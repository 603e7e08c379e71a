//! The acceptance test of the real-socket deployment: two separately
//! spawned OS processes — the `reconciled` daemon and `reconcile-client` —
//! reconcile a 10k-element set with a 500-element symmetric difference over
//! localhost TCP across 8 shards, then converge on the union (the client
//! pushes its exclusive items back through the admin socket), verified by
//! comparing the daemon's `STATS` digest with the client's printed digest.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use riblt::FixedBytes;
use server::{admin_request, item_to_hex};

type Item = FixedBytes<8>;

const SHARDS: u16 = 8;
/// The key both processes are given: neither starts without one.
const KEY: &str = "0123456789abcdef:fedcba9876543210";

/// Kills the daemon process on drop so a failing test never leaks it. A
/// detached drainer thread owns the stdout pipe for the daemon's whole life
/// (a closed pipe would EPIPE its final log line).
struct DaemonProcess {
    child: Child,
    data_addr: String,
    admin_addr: String,
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn write_item_file(path: &std::path::Path, values: impl Iterator<Item = u64>) {
    let mut file = std::fs::File::create(path).unwrap();
    for v in values {
        writeln!(file, "{}", item_to_hex(&Item::from_u64(v))).unwrap();
    }
}

fn spawn_daemon(load: &std::path::Path) -> DaemonProcess {
    let mut child = Command::new(env!("CARGO_BIN_EXE_reconciled"))
        .args([
            "--load",
            load.to_str().unwrap(),
            "--shards",
            &SHARDS.to_string(),
            "--read-timeout-ms",
            "5000",
            "--key",
            KEY,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn reconciled");

    // The daemon prints its bound addresses on startup. A drainer thread
    // owns the pipe (it keeps reading until the daemon exits), and the
    // channel gives the parse an enforceable deadline — a wedged daemon
    // fails the test at 30s instead of hanging it on a blocked read.
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            match line {
                Ok(line) => {
                    let _ = tx.send(line);
                }
                Err(_) => break,
            }
        }
    });
    let mut data_addr = None;
    let mut admin_addr = None;
    let deadline = Instant::now() + Duration::from_secs(30);
    while data_addr.is_none() || admin_addr.is_none() {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .expect("reconciled did not print its addresses within 30s");
        let line = rx
            .recv_timeout(remaining)
            .expect("reconciled exited or stalled before printing its addresses");
        if let Some(addr) = line.trim().strip_prefix("reconciled: data ") {
            data_addr = Some(addr.to_string());
        }
        if let Some(addr) = line.trim().strip_prefix("reconciled: admin ") {
            admin_addr = Some(addr.to_string());
        }
    }
    DaemonProcess {
        child,
        data_addr: data_addr.expect("daemon printed its data address"),
        admin_addr: admin_addr.expect("daemon printed its admin address"),
    }
}

fn stats_field(admin_addr: &str, field: &str) -> String {
    let reply = admin_request(admin_addr, "STATS").unwrap();
    reply
        .split_whitespace()
        .find_map(|pair| pair.strip_prefix(&format!("{field}=")))
        .unwrap_or_else(|| panic!("no {field} in {reply:?}"))
        .to_string()
}

#[test]
fn two_processes_converge_over_localhost() {
    let dir = std::env::temp_dir().join(format!("reconciled-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // 10k elements each, symmetric difference 500: the daemon alone holds
    // 0..250, the client alone holds 10_000..10_250.
    let server_file = dir.join("server-items.txt");
    let client_file = dir.join("client-items.txt");
    write_item_file(&server_file, 0..10_000);
    write_item_file(&client_file, 250..10_250);

    let daemon = spawn_daemon(&server_file);
    assert_eq!(stats_field(&daemon.admin_addr, "count"), "10000");

    let output = Command::new(env!("CARGO_BIN_EXE_reconcile-client"))
        .args([
            "--connect",
            &daemon.data_addr,
            "--load",
            client_file.to_str().unwrap(),
            "--admin",
            &daemon.admin_addr,
            "--push",
            "--key",
            KEY,
            "--timeout-ms",
            "10000",
        ])
        .output()
        .expect("spawn reconcile-client");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "client failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    // The client learned the daemon's 250 exclusive items and pushed back
    // its own 250 across the negotiated shard count.
    assert!(stdout.contains(&format!("shards={SHARDS}")), "{stdout}");
    assert!(stdout.contains("learned=250"), "{stdout}");
    assert!(stdout.contains("local_only=250"), "{stdout}");
    assert!(stdout.contains("pushed 250/250"), "{stdout}");
    assert!(stdout.contains("count=10250"), "{stdout}");
    let client_digest = stdout
        .lines()
        .find_map(|line| {
            line.split_once("digest=")
                .map(|(_, d)| d.trim().to_string())
        })
        .expect("client printed a digest");

    // Both processes now hold the identical 10_250-element union.
    assert_eq!(stats_field(&daemon.admin_addr, "count"), "10250");
    assert_eq!(stats_field(&daemon.admin_addr, "digest"), client_digest);
    let opened: usize = stats_field(&daemon.admin_addr, "sessions_opened")
        .parse()
        .unwrap();
    assert_eq!(opened, usize::from(SHARDS), "one stream per shard");
    assert_eq!(
        stats_field(&daemon.admin_addr, "sessions_completed"),
        opened.to_string()
    );

    // The observability surface is live across the process boundary:
    // `METRICS` returns a valid Prometheus exposition whose session
    // histograms saw the eight per-shard streams, and `TRACE` replays the
    // lifecycle.
    let mut admin = server::AdminClient::connect(daemon.admin_addr.as_str()).unwrap();
    let metrics = admin.metrics().unwrap();
    let summary = obs::validate_prometheus(&metrics)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{metrics}"));
    assert!(summary.series >= 15, "only {} series", summary.series);
    assert!(
        summary.histograms >= 3,
        "only {} histograms",
        summary.histograms
    );
    assert_eq!(
        obs::sample_value(&metrics, "reconciled_session_symbols_count", &[]),
        Some(f64::from(SHARDS))
    );
    assert!(
        obs::sample_value(&metrics, "reconciled_session_symbols_sum", &[]).unwrap() > 0.0,
        "session histogram recorded no symbols"
    );
    assert!(
        obs::sample_value(&metrics, "reconciled_mutations_total", &[("op", "insert")]).unwrap()
            >= 250.0,
        "the pushed items count as inserts"
    );
    // The client's 250 pushed items arrive as admin ADDs, which by now
    // dominate the bounded event ring (evicting the earlier session
    // events — `session_done` coverage lives in the in-process tests).
    let trace = admin.trace(100).unwrap();
    assert!(
        trace.iter().any(|l| l.contains("admin_add")),
        "no admin_add in {trace:#?}"
    );
    drop(admin);

    // Graceful shutdown via the admin socket: the process exits cleanly.
    assert_eq!(
        admin_request(&daemon.admin_addr, "SHUTDOWN").unwrap(),
        "BYE shutting down"
    );
    let mut daemon = daemon;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match daemon.child.try_wait().unwrap() {
            Some(status) => {
                assert!(status.success(), "daemon exited with {status}");
                break;
            }
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            None => panic!("daemon did not shut down within 30s"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_reports_clean_error_against_a_mis_keyed_daemon() {
    let dir = std::env::temp_dir().join(format!("reconciled-keytest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let items_file = dir.join("items.txt");
    write_item_file(&items_file, 0..100);

    let daemon = spawn_daemon(&items_file);
    // Different key ⇒ the handshake must refuse before any symbols move.
    let output = Command::new(env!("CARGO_BIN_EXE_reconcile-client"))
        .args([
            "--connect",
            &daemon.data_addr,
            "--load",
            items_file.to_str().unwrap(),
            "--key",
            "dead:beef",
            "--timeout-ms",
            "5000",
        ])
        .output()
        .expect("spawn reconcile-client");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("fingerprint"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The refusal of a binary run without `--key`: a usage error that names
/// the flag, exit status 2, and nothing on stdout.
fn refused_without_a_key(output: std::process::Output) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--key K0HEX:K1HEX is required"), "{stderr}");
    assert!(output.stdout.is_empty(), "{output:?}");
}

#[test]
fn reconciled_refuses_to_start_without_a_key() {
    // It says so before it binds a port: it prints no address.
    let output = Command::new(env!("CARGO_BIN_EXE_reconciled"))
        .args(["--listen", "127.0.0.1:0", "--admin", "127.0.0.1:0"])
        .output()
        .expect("spawn reconciled");
    refused_without_a_key(output);
}

#[test]
fn reconcile_client_refuses_to_connect_without_a_key() {
    let dir = std::env::temp_dir().join(format!("reconciled-nokey-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let items_file = dir.join("items.txt");
    write_item_file(&items_file, 0..10);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_reconcile-client"))
        .args([
            "--connect",
            &listener.local_addr().unwrap().to_string(),
            "--load",
            items_file.to_str().unwrap(),
        ])
        .output()
        .expect("spawn reconcile-client");
    refused_without_a_key(output);
    // It never connected.
    listener.set_nonblocking(true).unwrap();
    assert_eq!(
        listener.accept().unwrap_err().kind(),
        std::io::ErrorKind::WouldBlock
    );
    let _ = std::fs::remove_dir_all(&dir);
}
