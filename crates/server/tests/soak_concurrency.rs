//! Concurrency soak against the reactor daemon: hundreds of simultaneous
//! clients, admin ADD/REMOVE churn while they sync, digest-verified
//! convergence once the churn settles, and a SHUTDOWN issued under load
//! that must drain — flush staged replies, close every connection, join
//! every worker — without hanging or panicking.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use cluster::set_digest;
use reconcile_core::backends::RibltBackend;
use reconcile_core::{sync_sharded_tcp, TcpSyncConfig};
use riblt::FixedBytes;
use server::loadgen::{self, LoadgenConfig};
use server::{item_to_hex, AdminClient, Daemon, DaemonConfig};

type Item = FixedBytes<8>;

const BASE_ITEMS: u64 = 1_024;
const CLIENTS: usize = 200;

fn spawn_daemon() -> Daemon<Item> {
    loadgen::raise_nofile_limit(4 * CLIENTS as u64 + 512);
    Daemon::spawn(
        DaemonConfig {
            shards: 8,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            ..Default::default()
        },
        loadgen::server_items(BASE_ITEMS),
    )
    .unwrap()
}

#[test]
fn soak_200_clients_with_admin_churn_converges() {
    let daemon = spawn_daemon();
    let addr = daemon.data_addr().to_string();
    let baseline_digest = daemon.digest();

    // Admin churn: ADD then REMOVE high items through the admin socket
    // while the fleet syncs, exercising set mutations + cache regeneration
    // on the live event loop. Net effect is zero, so the post-churn set is
    // byte-for-byte the baseline.
    let churning = Arc::new(AtomicBool::new(true));
    let churn_flag = Arc::clone(&churning);
    let admin_addr = daemon.admin_addr();
    let churner = thread::Builder::new()
        .name("churner".into())
        .spawn(move || {
            let mut admin = AdminClient::connect(admin_addr).expect("admin connect");
            let mut mutations = 0usize;
            let mut i = 0u64;
            while churn_flag.load(Ordering::Relaxed) {
                let hex = item_to_hex(&Item::from_u64(1_000_000 + i));
                let added = admin.send(&format!("ADD {hex}")).expect("ADD");
                assert!(added.starts_with("OK"), "{added}");
                let removed = admin.send(&format!("REMOVE {hex}")).expect("REMOVE");
                assert!(removed.starts_with("OK"), "{removed}");
                mutations += 2;
                i += 1;
                thread::sleep(Duration::from_millis(2));
            }
            mutations
        })
        .unwrap();

    // Phase 1: the fleet syncs twice (fresh connection per round, churn
    // mode) while the set is being mutated underneath it. Rounds that
    // straddle a mutation legitimately see an off-by-a-few diff count, so
    // the only hard requirements here are that nothing hangs and the
    // daemon survives.
    let churn_phase = loadgen::run(
        &addr,
        &LoadgenConfig {
            clients: CLIENTS,
            rounds: 2,
            base_items: BASE_ITEMS,
            staleness: vec![0, 4, 16, 64],
            reconnect: true,
            ..Default::default()
        },
    );
    assert_eq!(
        churn_phase.syncs_ok + churn_phase.syncs_failed,
        CLIENTS * 2,
        "every round must settle, success or failure: {churn_phase:?}"
    );
    assert!(
        churn_phase.syncs_ok > 0,
        "no sync succeeded under churn: {churn_phase:?}"
    );

    churning.store(false, Ordering::Relaxed);
    let mutations = churner.join().unwrap();
    assert!(mutations > 0, "churner never ran");
    assert_eq!(
        daemon.digest(),
        baseline_digest,
        "net-zero churn must restore the exact baseline set"
    );

    // Phase 2: stable set, full fleet, strict verification — every client
    // must recover exactly its staleness-induced difference.
    let stable_phase = loadgen::run(
        &addr,
        &LoadgenConfig {
            clients: CLIENTS,
            rounds: 1,
            base_items: BASE_ITEMS,
            staleness: vec![0, 4, 16, 64],
            reconnect: false,
            ..Default::default()
        },
    );
    assert_eq!(
        stable_phase.syncs_ok, CLIENTS,
        "stable-set fleet must be perfect: {stable_phase:?}"
    );
    assert_eq!(stable_phase.syncs_failed, 0, "{stable_phase:?}");

    // Digest-verified convergence: a client at each staleness level applies
    // the diffs it recovered and must land on the daemon's exact digest.
    let key = riblt_hash::SipKey::default();
    for staleness in [0u64, 4, 64, 256] {
        let mut local = loadgen::client_items(BASE_ITEMS, staleness);
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let (diffs, _) = sync_sharded_tcp(
            &mut conn,
            &local,
            |_| RibltBackend::<Item>::with_key_and_alpha(8, 32, key, riblt::DEFAULT_ALPHA),
            &TcpSyncConfig {
                key,
                ..Default::default()
            },
        )
        .expect("convergence sync");
        for diff in diffs {
            for item in diff.remote_only {
                local.push(item);
            }
            local.retain(|item| !diff.local_only.contains(item));
        }
        assert_eq!(
            set_digest(local.iter(), key),
            daemon.digest(),
            "client at staleness {staleness} did not converge"
        );
    }

    let stats = daemon.stats();
    assert!(
        stats.connections_accepted >= CLIENTS * 3,
        "expected at least three fleets' worth of accepts, saw {}",
        stats.connections_accepted
    );
    daemon.shutdown();
}

#[test]
fn shutdown_under_load_drains_without_hanging() {
    let daemon = spawn_daemon();
    let addr = daemon.data_addr().to_string();
    let admin_addr = daemon.admin_addr();

    // A fleet of clients mid-sync when the SHUTDOWN lands. Their outcome is
    // allowed to be either a completed sync or a clean transport error —
    // what is not allowed is a hang on either side.
    let fleet: Vec<_> = (0..64)
        .map(|i| {
            let addr = addr.clone();
            thread::Builder::new()
                .name(format!("shutdown-client-{i}"))
                .spawn(move || {
                    let local = loadgen::client_items(BASE_ITEMS, 64 + (i as u64 % 64));
                    let mut conn = match std::net::TcpStream::connect(&addr) {
                        Ok(conn) => conn,
                        Err(_) => return false,
                    };
                    conn.set_read_timeout(Some(Duration::from_secs(10)))
                        .unwrap();
                    let key = riblt_hash::SipKey::default();
                    sync_sharded_tcp(
                        &mut conn,
                        &local,
                        |_| {
                            RibltBackend::<Item>::with_key_and_alpha(
                                8,
                                32,
                                key,
                                riblt::DEFAULT_ALPHA,
                            )
                        },
                        &TcpSyncConfig {
                            key,
                            threads: 1,
                            ..Default::default()
                        },
                    )
                    .is_ok()
                })
                .unwrap()
        })
        .collect();

    // Give the fleet a moment to get connections open and sessions flowing,
    // then pull the plug through the admin socket — the same path an
    // operator uses.
    thread::sleep(Duration::from_millis(50));
    let mut admin = AdminClient::connect(admin_addr).expect("admin connect");
    let goodbye = admin.send("SHUTDOWN").expect("SHUTDOWN reply");
    assert!(goodbye.starts_with("BYE"), "{goodbye}");

    // The drain must complete promptly: staged replies flushed, every
    // connection closed, all worker threads joined. The deadline is the
    // *capped* drain grace — this daemon's 30s read_timeout must not buy
    // the drain 30 seconds — plus scheduling slack; a watchdog turns a
    // wedged drain into a failure instead of a hung test binary.
    let drain_bound = server::event::drain_grace(Duration::from_secs(30)) + Duration::from_secs(5);
    assert!(
        drain_bound < Duration::from_secs(30),
        "drain grace must be capped well below the watchdog, got {drain_bound:?}"
    );
    let drain_started = Instant::now();
    let (done_tx, done_rx) = mpsc::channel();
    let waiter = thread::Builder::new()
        .name("drain-waiter".into())
        .spawn(move || {
            daemon.wait();
            let _ = done_tx.send(());
        })
        .unwrap();
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("daemon failed to drain within 30s of SHUTDOWN under load");
    let drained_in = drain_started.elapsed();
    assert!(
        drained_in <= drain_bound,
        "drain took {drained_in:?}, exceeding the capped grace bound {drain_bound:?}"
    );
    waiter.join().unwrap();

    // Every client settles (ok or clean error) and the listener is gone.
    let mut completed = 0usize;
    for handle in fleet {
        if handle.join().expect("client panicked") {
            completed += 1;
        }
    }
    // Clients that finished before the drain cut them off genuinely
    // synced; there is no required minimum, the invariant is settling.
    let _ = completed;
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match std::net::TcpStream::connect(&addr) {
            Err(_) => break,
            Ok(_) => {
                // A TIME_WAIT-race accept can briefly succeed; the listener
                // must be gone shortly after the drain.
                assert!(
                    Instant::now() < deadline,
                    "data listener still accepting after shutdown"
                );
                thread::sleep(Duration::from_millis(50));
            }
        }
    }
}
