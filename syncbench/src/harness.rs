//! The closed loop: one client thread syncing against one in-process
//! `server::Daemon` over kernel loopback, every sync verified exactly.
//!
//! Exactly two threads ever work: this client (`threads: 1`) and one reactor
//! worker (`reactor_workers: 1`), and the worker process pins itself to one
//! CPU so that they take turns on it. Every other configuration field stays
//! at its `Default`, so a change to a default is measured.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use reconcile_core::backends::RibltBackend;
use reconcile_core::{EngineError, SetDifference};
use riblt_bench::Item32;
use riblt_hash::SipKey;
use server::{Daemon, DaemonConfig};
use statesync::{sync_sharded_tcp, TcpSyncConfig, TcpSyncOutcome};

use crate::relay::Relay;
use crate::trace::{self, TracedBackend, TracedStream, Tracer};
use crate::workload::{Expected, Inputs, Workload, ITEM_LEN, SHARDS, WAN_ONE_WAY};

/// A sync that neither finishes nor fails within this long is failed by the
/// socket, so a wedged server cannot hold the run past its time limit.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(20);
/// A phase stops early after this many failed syncs…
const MAX_FAILURES: u64 = 3;
/// …and the loop as a whole this long after set-up; both only keep a run
/// that is already broken inside the benchmark driver's time limit.
const MAX_LOOP_WALL: Duration = Duration::from_secs(120);

/// Configuration of the daemon under test.
pub fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        reactor_workers: 1,
        shards: SHARDS,
        symbol_len: ITEM_LEN,
        ..Default::default()
    }
}

/// Configuration of the benchmark's client.
pub fn client_config() -> TcpSyncConfig {
    TcpSyncConfig {
        threads: 1,
        symbol_len: ITEM_LEN,
        ..Default::default()
    }
}

/// The backend the client decodes with (default key and α, as the daemon).
pub fn client_backend() -> RibltBackend<Item32> {
    RibltBackend::new(ITEM_LEN, DaemonConfig::default().batch_symbols)
}

/// Syncs attempted and failed so far in this process. A failed sync (an
/// error, a timeout or a wrong difference) contributes no latency sample.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Syncs started.
    pub attempted: u64,
    /// Syncs that errored or recovered the wrong difference.
    pub failed: u64,
}

/// Process CPU time in seconds (`CLOCK_PROCESS_CPUTIME_ID`): every thread of
/// this process, so the client, the reactor worker and the relay.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which is valid and exclusively borrowed for the call; on
    // 64-bit Linux (the only target of this benchmark, see README) both of
    // its fields are 64-bit, as declared above.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Pins the calling thread, and every thread it starts afterwards, to one
/// CPU: the highest-numbered one it may run on (device interrupts mostly land
/// on the lowest). Returns that CPU.
///
/// The protocol is lock-step, so client and reactor worker never compute at
/// the same time; on two CPUs every hand-over wakes a halted virtual CPU,
/// which on the shared reference host cost anything from 5 to 50 % of a
/// sync depending on the hour. On one CPU a hand-over is a context switch.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    /// glibc's `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: the kernel writes at most `size` bytes through the pointer,
    // which is valid and exclusively borrowed for `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("sched_getaffinity returned an empty set")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes through the pointer, which is
    // valid for that many; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Peak resident set of this process in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn dial(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let conn = TcpStream::connect(addr)?;
    // Every client of the daemon must switch Nagle off (ROADMAP, latency
    // budget): a stall of a client that forgets is a defect, not a workload.
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    conn.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    Ok(conn)
}

/// What one sync returned, and how long it took from `connect` to the
/// differences.
pub type SyncResult = (
    reconcile_core::Result<(Vec<SetDifference<Item32>>, TcpSyncOutcome)>,
    f64,
);

/// One sync of `items` against `addr`; with a tracer, through the traced
/// stream and backend wrappers.
pub fn sync_once(addr: SocketAddr, items: &[Item32], tracer: Option<&Tracer>) -> SyncResult {
    let config = client_config();
    let start = Instant::now();
    let result = match tracer {
        None => dial(addr)
            .map_err(EngineError::from)
            .and_then(|mut conn| sync_sharded_tcp(&mut conn, items, |_| client_backend(), &config)),
        Some(tracer) => {
            let span = tracer.enter(trace::SYNC);
            let result = tracer
                .time(trace::CONNECT, || dial(addr))
                .map_err(EngineError::from)
                .and_then(|conn| {
                    let mut io = TracedStream::new(conn, tracer.clone());
                    let backend = |_| TracedBackend::new(client_backend(), tracer.clone());
                    sync_sharded_tcp(&mut io, items, backend, &config)
                });
            tracer.exit(span);
            result
        }
    };
    (result, start.elapsed().as_secs_f64())
}

/// One verified sync of the timed loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Which client set was synced.
    pub variant: usize,
    /// Wall seconds of the sync, `connect` to differences.
    pub sync_s: f64,
    /// Wall seconds of the whole loop iteration: variant switch, mutation
    /// burst, sync and verification.
    pub iteration_s: f64,
    /// Wall seconds of the mutation burst before it (0 without churn).
    pub mutate_s: f64,
    /// Differences recovered and verified.
    pub diffs: usize,
    /// The driver's own accounting of the conversation.
    pub outcome: TcpSyncOutcome,
}

/// Samples of `setup_s`: one fresh daemon each.
#[derive(Debug, Default, Clone)]
pub struct Setup {
    /// `Daemon::spawn` with the workload's server set, seconds.
    pub spawn_s: Vec<f64>,
    /// The first sync against it (server caches cold), seconds.
    pub cold_sync_s: Vec<f64>,
}

impl Setup {
    /// Spawn plus cold sync, per daemon.
    pub fn total_s(&self) -> Vec<f64> {
        self.spawn_s
            .iter()
            .zip(&self.cold_sync_s)
            .map(|(a, b)| a + b)
            .collect()
    }
}

/// The daemon under test plus everything that drives it.
pub struct Driver<'a> {
    workload: &'a Workload,
    /// The run's seeded inputs.
    pub inputs: Inputs,
    /// The daemon under test.
    pub daemon: Daemon<Item32>,
    /// The `wan_rtt` link, if the workload has one.
    pub relay: Option<Relay>,
    key: SipKey,
    step: usize,
    deadline: Instant,
    /// One sample per fresh daemon of the set-up.
    pub setup: Setup,
    /// Every sync attempted through this driver, set-up included.
    pub tally: Tally,
}

/// Counts one verified-or-failed sync into `tally` and returns the
/// recovered difference count when it was exactly `want`.
fn check(
    tally: &mut Tally,
    what: &str,
    result: reconcile_core::Result<(Vec<SetDifference<Item32>>, TcpSyncOutcome)>,
    want: &Expected,
    key: SipKey,
) -> Option<TcpSyncOutcome> {
    tally.attempted += 1;
    match result {
        Ok((diffs, outcome)) if want.matches(&diffs, key) => return Some(outcome),
        Ok((diffs, _)) => eprintln!(
            "syncbench: {what}: wrong difference ({} items recovered, {} expected)",
            diffs.iter().map(SetDifference::len).sum::<usize>(),
            want.len()
        ),
        Err(e) => eprintln!("syncbench: {what}: {e}"),
    }
    tally.failed += 1;
    None
}

impl<'a> Driver<'a> {
    /// Sets up the run: `setup_daemons` fresh daemons one after another,
    /// each spawned with the server set and synced once, cold and verified
    /// (one `setup_s` sample each); the last one stays for the run, behind
    /// the relay if the workload has one.
    pub fn set_up(workload: &'a Workload, inputs: Inputs) -> Result<Driver<'a>, String> {
        let key = daemon_config().key;
        let (mut tally, mut setup) = (Tally::default(), Setup::default());
        let want = Expected::new(&[inputs.remote_only()], inputs.local_only(), key);
        let mut daemon = None;
        for _ in 0..workload.setup_daemons {
            drop(daemon.take()); // one server set in memory at a time
            let start = Instant::now();
            let fresh = Daemon::spawn(daemon_config(), inputs.server.iter().copied())
                .map_err(|e| format!("Daemon::spawn: {e}"))?;
            let spawn_s = start.elapsed().as_secs_f64();
            let (result, cold_sync_s) = sync_once(fresh.data_addr(), &inputs.client, None);
            check(&mut tally, "cold sync", result, &want, key)
                .ok_or("a cold sync failed; no set-up time to report")?;
            setup.spawn_s.push(spawn_s);
            setup.cold_sync_s.push(cold_sync_s);
            daemon = Some(fresh);
        }
        let daemon = daemon.ok_or("workload sets up no daemon")?;
        let relay = match workload.relay {
            true => Some(
                Relay::spawn(daemon.data_addr(), WAN_ONE_WAY).map_err(|e| format!("relay: {e}"))?,
            ),
            false => None,
        };
        Ok(Driver {
            workload,
            inputs,
            daemon,
            relay,
            key,
            step: 0,
            deadline: Instant::now() + MAX_LOOP_WALL,
            setup,
            tally,
        })
    }

    fn target(&self) -> SocketAddr {
        self.relay
            .as_ref()
            .map_or(self.daemon.data_addr(), Relay::addr)
    }

    /// Applies churn burst `burst` through the daemon's own mutation calls:
    /// a block of fresh keys in, the previous block out (net zero).
    fn mutate(&self, burst: usize) -> bool {
        let mut ok = true;
        for key in self.inputs.burst(burst) {
            ok &= self.daemon.insert(*key);
        }
        if burst > 0 {
            for key in self.inputs.burst(burst - 1) {
                ok &= self.daemon.remove(key);
            }
        }
        ok
    }

    /// One iteration of the closed loop: select the next client variant,
    /// apply the mutation burst if the workload churns, sync, verify.
    pub fn step(&mut self, tracer: Option<&Tracer>) -> Option<Sample> {
        let step = self.step;
        self.step += 1;
        let start = Instant::now();
        self.inputs.select(step);
        let mut mutate_s = 0.0;
        let mut mutated = true;
        let want = if self.workload.churn {
            let start = Instant::now();
            mutated = match tracer {
                Some(tracer) => tracer.time(trace::MUTATE, || self.mutate(step)),
                None => self.mutate(step),
            };
            mutate_s = start.elapsed().as_secs_f64();
            Expected::new(
                &[self.inputs.remote_only(), self.inputs.burst(step)],
                self.inputs.local_only(),
                self.key,
            )
        } else {
            Expected::new(
                &[self.inputs.remote_only()],
                self.inputs.local_only(),
                self.key,
            )
        };
        let (result, sync_s) = sync_once(self.target(), &self.inputs.client, tracer);
        let outcome = check(&mut self.tally, self.workload.name, result, &want, self.key)?;
        if !mutated {
            eprintln!(
                "syncbench: {}: the daemon refused a mutation",
                self.workload.name
            );
            self.tally.failed += 1;
            return None;
        }
        Some(Sample {
            variant: self.inputs.variant(),
            sync_s,
            iteration_s: start.elapsed().as_secs_f64(),
            mutate_s,
            diffs: want.len(),
            outcome,
        })
    }

    /// Runs `syncs` iterations of the loop and measures the whole phase.
    pub fn run(&mut self, syncs: usize, tracer: Option<&Tracer>) -> Phase {
        let failed_before = self.tally.failed;
        let cpu_start = process_cpu_s();
        let mut samples = Vec::with_capacity(syncs);
        for _ in 0..syncs {
            if self.tally.failed - failed_before >= MAX_FAILURES || Instant::now() > self.deadline {
                eprintln!("syncbench: {}: loop cut short", self.workload.name);
                break;
            }
            samples.extend(self.step(tracer));
        }
        Phase {
            samples,
            cpu_s: process_cpu_s() - cpu_start,
        }
    }

    /// Waits (bounded) until the daemon has closed every connection, so its
    /// per-connection accounting is folded into the registry.
    pub fn drain(&self) {
        let start = Instant::now();
        while self.daemon.stats().connections_active > 0 && start.elapsed() < Duration::from_secs(2)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// A measured run of consecutive loop iterations.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// One sample per verified sync.
    pub samples: Vec<Sample>,
    /// Process CPU seconds of the whole phase.
    pub cpu_s: f64,
}

impl Phase {
    /// Per-sync wall times in milliseconds.
    pub fn sync_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.sync_s * 1e3).collect()
    }

    /// Sums `f` over the samples.
    pub fn total(&self, f: impl Fn(&Sample) -> usize) -> f64 {
        self.samples.iter().map(|s| f(s) as f64).sum()
    }

    /// The smallest `f` among the samples of each client-set variant that
    /// has any, in variant order.
    ///
    /// Each variant is the same work every time it comes round, and other
    /// tenants of the host only ever add time to it, so its fastest
    /// repetition is the closest a run gets to the program's own cost; the
    /// caller then averages over the variants, whose work differs.
    pub fn best_per_variant(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        let variants = self
            .samples
            .iter()
            .map(|s| s.variant + 1)
            .max()
            .unwrap_or(0);
        let mut best = vec![f64::INFINITY; variants];
        for s in &self.samples {
            best[s.variant] = best[s.variant].min(f(s));
        }
        best.retain(|b| b.is_finite());
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_advances_with_work_and_peak_rss_is_positive() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(x != 1 && process_cpu_s() > before);
        assert!(peak_rss_mb().unwrap() > 1.0);
    }

    #[test]
    fn best_per_variant_is_the_minimum_of_each_variant_that_was_sampled() {
        let sample = |variant: usize, sync_s: f64| Sample {
            variant,
            sync_s,
            iteration_s: sync_s + 1.0,
            mutate_s: 0.0,
            diffs: 10,
            outcome: TcpSyncOutcome {
                shards: 8,
                rounds: 1,
                units: 32,
                bytes_sent: 100,
                bytes_received: 1_000,
                decode_wall_s: 0.0,
            },
        };
        let phase = Phase {
            // Variant 1 never ran (its sync failed, say); variant 3 ran once.
            samples: vec![
                sample(0, 5.0),
                sample(2, 9.0),
                sample(0, 4.0),
                sample(3, 7.0),
                sample(2, 8.0),
                sample(0, 6.0),
            ],
            cpu_s: 0.0,
        };
        assert_eq!(phase.best_per_variant(|s| s.sync_s), [4.0, 8.0, 7.0]);
        assert_eq!(phase.best_per_variant(|s| s.iteration_s), [5.0, 9.0, 8.0]);
        assert!(Phase::default().best_per_variant(|s| s.sync_s).is_empty());
    }

    #[test]
    fn pinning_leaves_this_thread_one_allowed_cpu() {
        // Affects this test's thread only: pid 0 is the calling thread.
        let cpu = pin_to_one_cpu().unwrap();
        assert_eq!(pin_to_one_cpu().unwrap(), cpu);
    }
}
