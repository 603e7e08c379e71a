//! Synthetic load generation against a `reconciled` daemon: N concurrent
//! clients at mixed staleness, with optional reconnect churn between
//! rounds — the workload behind the `loadgen` binary, the concurrency soak
//! test, and the `fig_daemon_scale` bench.
//!
//! ## Concurrency by construction
//!
//! Every client thread opens its TCP connection *before* a shared barrier
//! and only starts syncing after every other client is connected, so the
//! daemon genuinely holds `clients` simultaneous connections at the start
//! of every round — peak concurrency is the configured number, not a
//! scheduling accident. Later rounds each dial a fresh connection (the
//! wire protocol handshakes once per connection); the
//! [`LoadgenConfig::reconnect`] knob decides whether the old connection
//! drops before the new dial (churn: active count dips, accept path
//! re-exercised) or after (steady: never fewer than `clients` open).
//!
//! Client threads are blocking-I/O driven on purpose: the *daemon* is the
//! system under test, and a thread per synthetic client keeps the load
//! generator trivially correct. Decode work per client is pinned to one
//! thread (`threads: 1`) so a thousand clients do not ask for a thousand
//! decode pools.

use std::net::{TcpStream, UdpSocket};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use reconcile_core::backends::RibltBackend;
use riblt::FixedBytes;
use riblt_hash::SipKey;
use statesync::{sync_sharded_udp, SyncClient, UdpSyncConfig};

/// The item type the load generator speaks — the same 8-byte items the
/// `reconciled`/`reconcile-client` binaries use.
pub type Item = FixedBytes<8>;

/// Item length of [`Item`] in bytes.
pub const ITEM_LEN: usize = 8;

/// Which transport the synthetic clients dial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Stream transport: one TCP connection per round, framed mux protocol.
    #[default]
    Tcp,
    /// Datagram transport: one UDP socket per round, cookie-session
    /// protocol ([`statesync::sync_sharded_udp`]).
    Udp,
}

/// Workload shape for [`run`].
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Simultaneous client connections.
    pub clients: usize,
    /// Reconciliation rounds each client performs.
    pub rounds: usize,
    /// Items in the server's set; client `i` holds `base_items` items of
    /// which `staleness[i % staleness.len()]` differ from the server's.
    pub base_items: u64,
    /// Staleness mix, cycled over clients: how many items a client's local
    /// set lags the server by (0 = already converged).
    pub staleness: Vec<u64>,
    /// Connect churn. The wire protocol handshakes once per connection, so
    /// every round dials a fresh connection; this controls *when* the old
    /// one is released. `true` closes it before dialing the next round (the
    /// daemon's active-connection count dips and the accept path is
    /// re-exercised mid-run); `false` dials first and closes after, so the
    /// daemon never holds fewer than `clients` connections.
    pub reconnect: bool,
    /// Shared keyed-hash key — must match the daemon's.
    pub key: SipKey,
    /// Client-side socket read timeout (UDP: the overall sync deadline).
    pub read_timeout: Duration,
    /// Transport the clients dial ([`Transport::Tcp`] by default; the
    /// `reconnect` knob is meaningless over UDP, where every round is a
    /// fresh session anyway).
    pub transport: Transport,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 64,
            rounds: 1,
            base_items: 2_048,
            staleness: vec![0, 8, 64, 256],
            reconnect: false,
            key: SipKey::default(),
            read_timeout: Duration::from_secs(30),
            transport: Transport::Tcp,
        }
    }
}

/// Aggregate outcome of a [`run`].
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Clients that ran.
    pub clients: usize,
    /// Successful reconciliation rounds across all clients.
    pub syncs_ok: usize,
    /// Failed rounds (connect errors, sync errors, wrong difference count).
    pub syncs_failed: usize,
    /// Differences recovered across all successful rounds.
    pub diffs_recovered: usize,
    /// Coded-symbol units consumed across all successful rounds.
    pub units_consumed: usize,
    /// Protocol request rounds after the handshake exchange
    /// (`statesync::TcpSyncOutcome::rounds`), summed over the successful
    /// syncs; 0 over UDP, which has no rounds.
    pub request_rounds: usize,
    /// Wall time from the post-connect barrier to the last client's exit.
    pub wall: Duration,
    /// Per-round sync latencies, sorted ascending (successful rounds only).
    pub sync_latencies: Vec<Duration>,
}

impl LoadgenReport {
    /// Successful syncs per wall-clock second.
    pub fn syncs_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.syncs_ok as f64 / self.wall.as_secs_f64()
    }

    /// The `q`-quantile (0.0 ..= 1.0) of the per-round sync latency, in
    /// seconds; 0 when no round succeeded.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        if self.sync_latencies.is_empty() {
            return 0.0;
        }
        let rank = ((self.sync_latencies.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.sync_latencies[rank].as_secs_f64()
    }
}

/// Builds client `index`'s local set: `base_items` items, the first
/// `staleness` of which differ from the server's `0..base_items` seed (the
/// client holds `staleness..base_items + staleness` instead).
pub fn client_items(base_items: u64, staleness: u64) -> Vec<Item> {
    (staleness..base_items + staleness)
        .map(Item::from_u64)
        .collect()
}

/// The server seed matching [`client_items`]: items `0..base_items`.
pub fn server_items(base_items: u64) -> Vec<Item> {
    (0..base_items).map(Item::from_u64).collect()
}

/// Runs the workload against the daemon's data listener at `addr`.
///
/// Connects all clients, barriers, then lets every client reconcile for
/// `rounds` rounds. Each client verifies its recovered difference count
/// (`2 × staleness`: the lag in both directions); a mismatch counts the
/// round as failed.
pub fn run(addr: &str, config: &LoadgenConfig) -> LoadgenReport {
    let barrier = Arc::new(Barrier::new(config.clients + 1));
    let syncs_ok = Arc::new(AtomicUsize::new(0));
    let syncs_failed = Arc::new(AtomicUsize::new(0));
    let diffs = Arc::new(AtomicUsize::new(0));
    let units = Arc::new(AtomicUsize::new(0));
    let request_rounds = Arc::new(AtomicUsize::new(0));
    let latencies = Arc::new(Mutex::new(Vec::new()));

    let mut handles = Vec::with_capacity(config.clients);
    for index in 0..config.clients {
        let thread_addr = addr.to_string();
        let thread_config = config.clone();
        let thread_barrier = Arc::clone(&barrier);
        let thread_ok = Arc::clone(&syncs_ok);
        let thread_failed = Arc::clone(&syncs_failed);
        let thread_diffs = Arc::clone(&diffs);
        let thread_units = Arc::clone(&units);
        let thread_request_rounds = Arc::clone(&request_rounds);
        let thread_latencies = Arc::clone(&latencies);
        let handle = thread::Builder::new()
            .name(format!("loadgen-{index}"))
            .stack_size(256 * 1024)
            .spawn(move || {
                client_main(
                    index,
                    &thread_addr,
                    &thread_config,
                    &thread_barrier,
                    &thread_ok,
                    &thread_failed,
                    &thread_diffs,
                    &thread_units,
                    &thread_request_rounds,
                    &thread_latencies,
                )
            });
        match handle {
            Ok(handle) => handles.push(handle),
            Err(_) => {
                // Thread exhaustion: release the barrier slot so the rest
                // of the fleet still starts.
                barrier.wait();
                syncs_failed.fetch_add(config.rounds, Ordering::Relaxed);
            }
        }
    }

    // All clients are connected once the barrier releases; the measured
    // window starts here.
    barrier.wait();
    let started = Instant::now();
    for handle in handles {
        let _ = handle.join();
    }
    let wall = started.elapsed();

    let mut sync_latencies = std::mem::take(&mut *obs::lock_unpoisoned(&latencies));
    sync_latencies.sort_unstable();
    LoadgenReport {
        clients: config.clients,
        syncs_ok: syncs_ok.load(Ordering::Relaxed),
        syncs_failed: syncs_failed.load(Ordering::Relaxed),
        diffs_recovered: diffs.load(Ordering::Relaxed),
        units_consumed: units.load(Ordering::Relaxed),
        request_rounds: request_rounds.load(Ordering::Relaxed),
        wall,
        sync_latencies,
    }
}

#[allow(clippy::too_many_arguments)]
fn client_main(
    index: usize,
    addr: &str,
    config: &LoadgenConfig,
    barrier: &Barrier,
    syncs_ok: &AtomicUsize,
    syncs_failed: &AtomicUsize,
    diffs_total: &AtomicUsize,
    units_total: &AtomicUsize,
    request_rounds_total: &AtomicUsize,
    latencies: &Mutex<Vec<Duration>>,
) {
    let staleness = config.staleness[index % config.staleness.len().max(1)];
    let mut client = SyncClient::new(client_items(config.base_items, staleness), config.key, 1);
    let expected_diffs = 2 * staleness as usize;
    let udp = UdpSyncConfig {
        key: config.key,
        symbol_len: ITEM_LEN,
        deadline: config.read_timeout,
        ..Default::default()
    };
    let backend = |_| {
        RibltBackend::<Item>::with_key_and_alpha(ITEM_LEN, 32, config.key, riblt::DEFAULT_ALPHA)
    };

    // Connect before the barrier: when the fleet starts syncing, every
    // connection already exists — concurrency is the configured count.
    let mut conn = connect(addr, config);
    barrier.wait();

    for round in 0..config.rounds {
        if round > 0 {
            // One handshake (or cookie session) per connection: every round
            // needs a fresh one. Under churn the old connection drops first;
            // otherwise it is held until the replacement is dialed, so the
            // daemon's active count never dips below the fleet size.
            if config.reconnect {
                drop(conn.take());
            }
            conn = connect(addr, config);
        }
        let t0 = Instant::now();
        let result = match conn.as_mut() {
            Some(Conn::Tcp(stream)) => client
                .sync(stream)
                .map(|(diffs, outcome)| (diffs, outcome.units, outcome.rounds)),
            Some(Conn::Udp(socket)) => sync_sharded_udp(socket, client.items(), backend, &udp)
                .map(|(diffs, outcome)| (diffs, outcome.units, 0)),
            None => {
                syncs_failed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        let elapsed = t0.elapsed();
        match result {
            Ok((round_diffs, units, request_rounds)) => {
                let recovered: usize = round_diffs
                    .iter()
                    .map(|d| d.remote_only.len() + d.local_only.len())
                    .sum();
                if recovered == expected_diffs {
                    syncs_ok.fetch_add(1, Ordering::Relaxed);
                    diffs_total.fetch_add(recovered, Ordering::Relaxed);
                    units_total.fetch_add(units, Ordering::Relaxed);
                    request_rounds_total.fetch_add(request_rounds, Ordering::Relaxed);
                    obs::lock_unpoisoned(latencies).push(elapsed);
                } else {
                    syncs_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                syncs_failed.fetch_add(1, Ordering::Relaxed);
                // The connection is in an unknown state; drop it so the
                // next round starts clean.
                drop(conn.take());
            }
        }
    }
}

/// A client's connection: a TCP stream, or a UDP socket connected to the
/// daemon's datagram listener.
enum Conn {
    Tcp(TcpStream),
    Udp(UdpSocket),
}

fn connect(addr: &str, config: &LoadgenConfig) -> Option<Conn> {
    if config.transport == Transport::Udp {
        let socket = UdpSocket::bind("0.0.0.0:0").ok()?;
        socket.connect(addr).ok()?;
        return Some(Conn::Udp(socket));
    }
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(config.read_timeout)).ok()?;
    stream.set_nodelay(true).ok();
    Some(Conn::Tcp(stream))
}

/// Raises the process's file-descriptor soft limit toward `want` (bounded
/// by the hard limit) and returns the resulting soft limit. Needed before
/// thousand-peer runs on hosts with the conservative 1024 default (GitHub
/// CI runners); a no-op when the limit is already high enough.
#[cfg(unix)]
pub fn raise_nofile_limit(want: u64) -> u64 {
    use std::os::raw::c_int;

    const RLIMIT_NOFILE: c_int = 7;

    #[repr(C)]
    struct RLimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    extern "C" {
        fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }

    let mut limit = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) } != 0 {
        return 0;
    }
    if limit.rlim_cur >= want {
        return limit.rlim_cur;
    }
    limit.rlim_cur = want.min(limit.rlim_max);
    unsafe {
        setrlimit(RLIMIT_NOFILE, &limit);
        if getrlimit(RLIMIT_NOFILE, &mut limit) != 0 {
            return 0;
        }
    }
    limit.rlim_cur
}

/// Non-Unix fallback: reports the request as-is without changing anything.
#[cfg(not(unix))]
pub fn raise_nofile_limit(want: u64) -> u64 {
    want
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_items_lag_the_server_by_staleness() {
        let server = server_items(100);
        let client = client_items(100, 10);
        assert_eq!(client.len(), server.len());
        let only_server = server.iter().filter(|i| !client.contains(i)).count();
        let only_client = client.iter().filter(|i| !server.contains(i)).count();
        assert_eq!(only_server, 10);
        assert_eq!(only_client, 10);
    }

    #[test]
    fn zero_staleness_is_identical_sets() {
        assert_eq!(client_items(50, 0), server_items(50));
    }

    #[test]
    fn nofile_limit_reports_a_sane_value() {
        let limit = raise_nofile_limit(256);
        assert!(limit >= 256 || limit == 0, "{limit}");
    }

    #[test]
    fn quantiles_on_empty_and_singleton_reports() {
        let empty = LoadgenReport::default();
        assert_eq!(empty.latency_quantile(0.99), 0.0);
        let one = LoadgenReport {
            sync_latencies: vec![Duration::from_millis(5)],
            ..Default::default()
        };
        assert!((one.latency_quantile(0.5) - 0.005).abs() < 1e-9);
        assert!((one.latency_quantile(0.99) - 0.005).abs() < 1e-9);
    }
}
