//! `syncbench`: the repository's end-to-end benchmark (contract in
//! `BENCHMARK.json` at the repository root, reasoning in this package's
//! README).
//!
//! ```text
//! syncbench                          every workload, untraced then traced; prints every metric
//! syncbench --workload W --seed N --seconds S --trace 0|1
//!                                    one run; last stdout line is the result as JSON
//! syncbench --repeat K               K untraced runs of every workload on seeds N..N+K;
//!                                    prints the spread of every end-to-end metric
//! ```
//!
//! Every measured run happens in a child process of its own (this binary
//! re-executed with `--worker`), its stderr sent to a file: the daemon
//! prints a line per disconnect, and allocator state, the process-wide
//! metrics registry and `VmHWM` must not leak from one run into the next.

mod harness;
mod layers;
mod relay;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use riblt_bench::json::{self, JsonValue};

use harness::{Driver, Phase, Tally};
use layers::Metric;
use stats::{mean, median, percentile, quartile_spread, sorted, tail};
use trace::{Summary, Tracer};
use workload::{Inputs, Workload, CHURN_BURST, WAN_ONE_WAY};

/// Where child logs and traces go, relative to the working directory.
const OUT_DIR: &str = "target/syncbench";
/// The relay self-test: this many one-byte pings, whose median round trip
/// must be within [`PING_TOLERANCE_MS`] of two one-way delays.
const PINGS: usize = 5;
const PING_TOLERANCE_MS: f64 = 2.0;

/// One metric of `BENCHMARK.json`.
struct MetricSpec {
    name: String,
    unit: String,
    better: String,
    /// Regression bound as a share of the median (end-to-end metrics only).
    bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the program itself follows, so the file
/// stays the one place that names metrics, units and bounds.
struct Spec {
    run_seconds: u64,
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

impl Spec {
    fn load() -> Spec {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let text = |v: &JsonValue, key: &str| -> String {
            v.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing string `{key}`"))
                .to_string()
        };
        let list = |key: &str| -> Vec<JsonValue> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing array `{key}`"))
                .to_vec()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            list(key)
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: text(m, "better"),
                    bound: m.get("bound").and_then(JsonValue::as_number),
                })
                .collect()
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_number)
                .expect("BENCHMARK.json: run_seconds") as u64,
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Parsed command line.
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    traced: bool,
    repeat: Option<usize>,
    worker: bool,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            seed: 1,
            seconds: None,
            traced: false,
            repeat: None,
            worker: false,
        };
        let mut args = args;
        while let Some(flag) = args.next() {
            let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => cli.workload = Some(value("a workload name")?),
                "--seed" => cli.seed = number(&value("a number")?)?,
                "--seconds" => cli.seconds = Some(number(&value("a number")?)?.max(1)),
                "--trace" => cli.traced = number(&value("0 or 1")?)? != 0,
                "--repeat" => cli.repeat = Some(number(&value("a count")?)? as usize),
                "--worker" => cli.worker = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if cli.repeat.is_some_and(|k| k < 2) {
            return Err("--repeat needs at least 2 runs".into());
        }
        Ok(cli)
    }
}

fn number(text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("`{text}` is not a whole number"))
}

/// What one run measured.
struct Report {
    tally: Tally,
    /// False if a harness self-check failed (the relay ran late).
    harness_ok: bool,
    metrics: Vec<Metric>,
}

/// Untraced run: the end-to-end metrics.
fn run_untraced(w: &Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let counts = w.counts(seconds);
    let inputs = Inputs::generate(w, seed, counts.warmup + counts.timed);
    let harness_ok = relay_self_test(w)?;
    let mut driver = Driver::set_up(w, inputs)?;
    driver.run(counts.warmup, None);
    let phase = driver.run(counts.timed, None);
    if phase.samples.is_empty() {
        return Err("every timed sync failed".into());
    }
    // The raw samples, for whoever has to explain a noisy run (the worker's
    // stderr is a log file).
    for (i, s) in driver.setup.total_s().iter().enumerate() {
        eprintln!("setup {i} setup_ms {:.3}", s * 1e3);
    }
    for (i, s) in phase.samples.iter().enumerate() {
        let (sync_ms, iteration_ms) = (s.sync_s * 1e3, s.iteration_s * 1e3);
        eprintln!(
            "sample {i} variant {} sync_ms {sync_ms:.3} iteration_ms {iteration_ms:.3}",
            s.variant
        );
    }
    let (tally, setup) = (driver.tally, driver.setup.clone());
    drop(driver);
    let diffs = phase.total(|s| s.diffs);
    let syncs = phase.samples.len() as f64;
    let best_iteration_s = mean(&phase.best_per_variant(|s| s.iteration_s));
    let metrics = vec![
        // The fastest, like `sync_ms_best`: a fresh daemon's 20 ms of thread
        // spawns and first-touch page faults read 20 to 37 ms by the median
        // of 25 in back-to-back runs, 17 to 25 ms by the minimum.
        ("setup_s", sorted(&setup.total_s())[0]),
        ("sync_ms_best", best_sync_ms(&phase)),
        ("diffs_per_s", diffs / syncs / best_iteration_s),
        (
            "wire_bytes_per_diff",
            phase.total(|s| s.outcome.bytes_sent + s.outcome.bytes_received) / diffs,
        ),
        ("symbols_per_diff", phase.total(|s| s.outcome.units) / diffs),
        ("peak_rss_mb", harness::peak_rss_mb()?),
    ];
    Ok(Report {
        tally,
        harness_ok,
        metrics,
    })
}

/// Mean over the client-set variants of each variant's fastest sync, in
/// milliseconds (see [`Phase::best_per_variant`]). A mean, because on
/// `wan_rtt` the variants differ by whole round trips and a median would
/// jump by 50 ms between seeds.
fn best_sync_ms(phase: &Phase) -> f64 {
    mean(&phase.best_per_variant(|s| s.sync_s * 1e3))
}

/// On a relayed workload, pings through a relay of the workload's delay and
/// returns whether the median round trip is on time.
fn relay_self_test(w: &Workload) -> Result<bool, String> {
    if !w.relay {
        return Ok(true);
    }
    let rtts = relay::ping_through_relay(WAN_ONE_WAY, PINGS).map_err(|e| format!("relay: {e}"))?;
    let want = 2.0 * WAN_ONE_WAY.as_secs_f64() * 1e3;
    let ok = (median(&rtts) - want).abs() <= PING_TOLERANCE_MS;
    if !ok {
        eprintln!("syncbench: relay self-test: round trips {rtts:?} ms, want {want} ms");
    }
    Ok(ok)
}

/// Registry counters of the daemon the per-layer metrics take deltas of.
#[derive(Clone, Copy)]
struct ServerCounters {
    cache_hits: u64,
    cache_misses: u64,
    symbols_served: u64,
    serve_cpu_ns: u64,
    bytes_in: u64,
    bytes_out: u64,
    backpressure_pauses: u64,
    connection_errors: u64,
}

impl ServerCounters {
    fn read(driver: &Driver) -> ServerCounters {
        driver.drain();
        let m = driver.daemon.metrics();
        ServerCounters {
            cache_hits: m.wire_cache_hits.get(),
            cache_misses: m.wire_cache_misses.get(),
            symbols_served: m.symbols_served.get(),
            serve_cpu_ns: m.serve_cpu_nanos.get(),
            bytes_in: m.bytes_in.get(),
            bytes_out: m.bytes_out.get(),
            backpressure_pauses: m.backpressure_pauses.get(),
            connection_errors: m.connection_errors.get(),
        }
    }

    /// What was counted since `earlier`.
    fn since(self, earlier: ServerCounters) -> ServerCounters {
        ServerCounters {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            symbols_served: self.symbols_served - earlier.symbols_served,
            serve_cpu_ns: self.serve_cpu_ns - earlier.serve_cpu_ns,
            bytes_in: self.bytes_in - earlier.bytes_in,
            bytes_out: self.bytes_out - earlier.bytes_out,
            backpressure_pauses: self.backpressure_pauses - earlier.backpressure_pauses,
            connection_errors: self.connection_errors - earlier.connection_errors,
        }
    }
}

/// Traced run: a quarter of the timed count untraced (the reference the
/// tracing overhead is taken against), then a quarter traced, then the
/// direct per-layer measurements.
fn run_traced(w: &Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let counts = w.counts(seconds);
    let block = counts.timed.div_ceil(4);
    let inputs = Inputs::generate(w, seed, counts.warmup + 2 * block);
    let mut harness_ok = relay_self_test(w)?;
    let mut driver = Driver::set_up(w, inputs)?;
    driver.run(counts.warmup, None);

    let before = ServerCounters::read(&driver);
    let reference = driver.run(block, None);
    let tracer = Tracer::default();
    let traced = driver.run(block, Some(&tracer));
    let served = ServerCounters::read(&driver).since(before);
    if reference.samples.is_empty() || traced.samples.is_empty() {
        return Err("every sync of a measured block failed".into());
    }

    let spans = tracer.spans();
    let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.json", w.name));
    trace::write_json(&path, w.name, seed, &spans)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let sum = Summary::of(&spans);

    let mut metrics = layers::direct(&driver.inputs);
    metrics.extend(backend_and_io(&sum, &traced, tracer.payload_bytes()));
    metrics.extend(server_side(&driver, served, &reference, &traced));

    // Harness: the relay's own lateness, and what tracing cost.
    let one_way = driver.relay.as_ref().map(|r| sorted(&r.one_way_ms()));
    let (one_way_p50, one_way_max) = match &one_way {
        Some(ms) if !ms.is_empty() => (percentile(ms, 50.0), ms[ms.len() - 1]),
        _ => (0.0, 0.0),
    };
    let sync_span_ms: Vec<f64> = sum.sync_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let (reference_best, traced_best) = (best_sync_ms(&reference), best_sync_ms(&traced));
    let sync_ns: u64 = sum.sync_ns.iter().sum();
    metrics.extend([
        ("relay.one_way_ms_p50", one_way_p50),
        ("relay.one_way_ms_max", one_way_max),
        ("client.sync_ms_p50", median(&reference.sync_ms())),
        ("trace.sync_ms_p50", median(&sync_span_ms)),
        (
            "trace.overhead_pct",
            100.0 * (traced_best - reference_best) / reference_best,
        ),
        (
            "trace.span_sum_pct",
            100.0 * (sum.sync_children_ns + sum.sync_self_ns) as f64 / sync_ns as f64,
        ),
    ]);

    // The datagram transport, where the workload carries it.
    let mut tally = driver.tally;
    if w.udp {
        let inputs = &driver.inputs;
        metrics.extend(layers::udp(inputs, counts.timed.div_ceil(16), &mut tally)?);
    } else {
        metrics.extend(layers::UDP_METRICS.map(|name| (name, 0.0)));
    }
    // A relay that ran more than the tolerance late on its median chunk
    // measured its own scheduling, not the link.
    harness_ok &= one_way_p50 <= WAN_ONE_WAY.as_secs_f64() * 1e3 + PING_TOLERANCE_MS;
    Ok(Report {
        tally,
        harness_ok,
        metrics,
    })
}

/// Client-side layers, from the spans of the traced block.
fn backend_and_io(sum: &Summary, traced: &Phase, payload_bytes: u64) -> Vec<Metric> {
    let syncs = traced.samples.len() as f64;
    let wire_bytes = traced.total(|s| s.outcome.bytes_sent + s.outcome.bytes_received);
    let sync_ms = sorted(&traced.sync_ms());
    let (tail_pct, tail_ms) = tail(&sync_ms);
    vec![
        ("backend.build_client_ms", sum.ms_per_sync(trace::BUILD)),
        ("backend.absorb_ms", sum.ms_per_sync(trace::ABSORB)),
        ("backend.absorb_calls", sum.calls_per_sync(trace::ABSORB)),
        (
            "backend.into_difference_ms",
            sum.ms_per_sync(trace::INTO_DIFFERENCE),
        ),
        (
            "reconcile_core.handshake_ms",
            sum.ms_per_sync(trace::HANDSHAKE),
        ),
        (
            "reconcile_core.frame_overhead_bytes_per_sync",
            (wire_bytes - payload_bytes as f64) / syncs,
        ),
        (
            "statesync.rounds_per_sync",
            traced.total(|s| s.outcome.rounds) / syncs,
        ),
        (
            "statesync.io_write_calls_per_sync",
            sum.calls_per_sync(trace::IO_WRITE),
        ),
        (
            "statesync.io_read_calls_per_sync",
            sum.calls_per_sync(trace::IO_READ),
        ),
        (
            "statesync.io_write_ms_per_sync",
            sum.ms_per_sync(trace::IO_WRITE),
        ),
        (
            "statesync.io_read_wait_ms_per_sync",
            sum.ms_per_sync(trace::IO_READ),
        ),
        ("statesync.connect_ms", sum.ms_per_sync(trace::CONNECT)),
        (
            "statesync.self_ms_per_sync",
            sum.sync_self_ns as f64 / 1e6 / sum.syncs.max(1) as f64,
        ),
        ("client.sync_ms_p90", percentile(&sync_ms, 90.0)),
        ("client.sync_ms_p99", percentile(&sync_ms, 99.0)),
        ("client.sync_ms_tail", tail_ms),
        ("client.sync_ms_tail_pct", tail_pct),
        ("client.sync_samples", syncs),
    ]
}

/// Server-side layers: registry deltas over both measured blocks, the
/// daemon's histograms (cumulative since its spawn), and timed `Daemon`
/// calls.
fn server_side(
    driver: &Driver,
    served: ServerCounters,
    reference: &Phase,
    traced: &Phase,
) -> Vec<Metric> {
    let setup = &driver.setup;
    let both = || reference.samples.iter().chain(&traced.samples);
    let syncs = both().count() as f64;
    let units: f64 = both().map(|s| s.outcome.units as f64).sum();
    let mutations = 2.0 * CHURN_BURST as f64 * both().filter(|s| s.mutate_s > 0.0).count() as f64;
    let mutate_s: f64 = both().map(|s| s.mutate_s).sum();
    let per_sync = |count: u64| count as f64 / syncs;
    let lookups = served.cache_hits + served.cache_misses;
    let m = driver.daemon.metrics();
    let serve_batch = m.serve_batch_seconds.snapshot();
    vec![
        ("server.spawn_ms", median(&setup.spawn_s) * 1e3),
        ("server.cold_sync_ms", median(&setup.cold_sync_s) * 1e3),
        (
            "server.serve_cpu_ms_per_sync",
            per_sync(served.serve_cpu_ns) / 1e6,
        ),
        ("server.serve_batch_us_p50", serve_batch.p50() / 1e3),
        ("server.serve_batch_us_p99", serve_batch.p99() / 1e3),
        (
            "server.wire_cache_hit_ratio",
            served.cache_hits as f64 / lookups.max(1) as f64,
        ),
        (
            "server.symbols_served_per_sync",
            per_sync(served.symbols_served),
        ),
        (
            "statesync.tail_waste_symbols_per_sync",
            per_sync(served.symbols_served) - units / syncs,
        ),
        ("server.bytes_in_per_sync", per_sync(served.bytes_in)),
        ("server.bytes_out_per_sync", per_sync(served.bytes_out)),
        (
            "server.handshake_us_p50",
            m.handshake_seconds.snapshot().p50() / 1e3,
        ),
        (
            "server.connection_ms_p50",
            m.connection_seconds.snapshot().p50() / 1e6,
        ),
        (
            "server.backpressure_pauses",
            served.backpressure_pauses as f64,
        ),
        ("server.connection_errors", served.connection_errors as f64),
        (
            "server.mutate_us_per_op",
            if mutations > 0.0 {
                mutate_s * 1e6 / mutations
            } else {
                0.0
            },
        ),
        // Client, reactor worker and (on wan_rtt) relay threads together,
        // over the untraced reference block.
        (
            "process.cpu_ms_per_sync",
            reference.cpu_s * 1e3 / reference.samples.len() as f64,
        ),
    ]
}

/// The result line the benchmark contract asks for.
fn result_json(spec: &Spec, traced: bool, report: &Report) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in spec.metrics(traced) {
        let (_, value) = report
            .metrics
            .iter()
            .find(|(name, _)| *name == m.name)
            .ok_or(format!(
                "metric `{}` of BENCHMARK.json was not measured",
                m.name
            ))?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is not a finite number", m.name));
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(&m.name),
            json::number(*value),
            json::quote(&m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0 && report.harness_ok,
        report.tally.attempted,
        report.tally.failed,
        fields.join(", ")
    ))
}

/// `--worker`: measure one workload in this process and print the result.
fn worker(spec: &Spec, cli: &Cli) -> Result<(), String> {
    let name = cli.workload.as_deref().ok_or("--worker needs --workload")?;
    let w = workload::find(name).ok_or(format!("unknown workload `{name}`"))?;
    let seconds = cli.seconds.unwrap_or(spec.run_seconds);
    // Before any thread is spawned, so that all of them inherit it. A
    // sandbox that forbids it costs steadiness, not correctness.
    match harness::pin_to_one_cpu() {
        Ok(cpu) => eprintln!("syncbench: pinned to CPU {cpu}"),
        Err(e) => eprintln!("syncbench: not pinned to one CPU: {e}"),
    }
    let report = if cli.traced {
        run_traced(w, cli.seed, seconds)?
    } else {
        run_untraced(w, cli.seed, seconds)?
    };
    println!("{}", result_json(spec, cli.traced, &report)?);
    Ok(())
}

/// The parsed result of one child run.
struct ChildResult {
    line: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<(String, f64)>,
}

/// Runs one workload in a fresh child process, its stderr in a log file.
fn run_child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<ChildResult, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let log_path = format!("{OUT_DIR}/stderr-{workload}-trace{}.log", u8::from(traced));
    let log = std::fs::File::create(&log_path).map_err(|e| format!("{log_path}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--worker", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(log)
        .output()
        .map_err(|e| format!("spawning the worker: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let (Some(line), true) = (line, output.status.success()) else {
        let log = std::fs::read_to_string(&log_path).unwrap_or_default();
        let tail: Vec<&str> = log.lines().rev().take(5).collect();
        return Err(format!(
            "{workload}: worker failed ({}); last lines of {log_path}:\n{}",
            output.status,
            tail.into_iter().rev().collect::<Vec<_>>().join("\n")
        ));
    };
    let doc = json::parse(line).map_err(|e| format!("{workload}: worker output: {e}"))?;
    let count = |key: &str| doc.get(key).and_then(JsonValue::as_number).unwrap_or(0.0) as u64;
    let values = match doc.get("metrics") {
        Some(JsonValue::Object(map)) => map
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_number()?)))
            .collect(),
        _ => Vec::new(),
    };
    Ok(ChildResult {
        line: line.to_string(),
        correct: doc.get("correct") == Some(&JsonValue::Bool(true)),
        attempted: count("attempted"),
        failed: count("failed"),
        values,
    })
}

fn value_of(result: &ChildResult, name: &str) -> f64 {
    result
        .values
        .iter()
        .find(|(k, _)| k == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// Default mode: every workload, untraced then traced, every metric printed
/// by name with its unit. Returns false if any run was incorrect.
fn run_all(spec: &Spec, cli: &Cli) -> Result<bool, String> {
    let seconds = cli.seconds.unwrap_or(spec.run_seconds);
    println!(
        "syncbench: seed {}, {seconds} s of timed work per run, {} cores, loopback TCP",
        cli.seed,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut all_correct = true;
    for workload in &spec.workloads {
        for traced in [false, true] {
            let result = run_child(workload, cli.seed, seconds, traced)?;
            all_correct &= result.correct;
            println!(
                "\n{workload} ({}): {} syncs attempted, {} failed{}",
                if traced {
                    "traced, per layer"
                } else {
                    "untraced, end to end"
                },
                result.attempted,
                result.failed,
                if result.correct {
                    ""
                } else {
                    "  ** INCORRECT **"
                }
            );
            for m in spec.metrics(traced) {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
                println!(
                    "  {:<46} {:>16.4} {:<6} ({} is better{bound})",
                    m.name,
                    value_of(&result, &m.name),
                    m.unit,
                    m.better
                );
            }
        }
    }
    println!("\ntraces and worker logs: {OUT_DIR}/");
    Ok(all_correct)
}

/// `--repeat K`: K untraced runs of every workload in fresh processes, on
/// seeds `seed..seed+K` as the benchmark driver does, and the spread of
/// every end-to-end metric against its bound. Returns false if a spread
/// exceeds its bound or a run was incorrect.
fn run_repeat(spec: &Spec, cli: &Cli, runs: usize) -> Result<bool, String> {
    let seconds = cli.seconds.unwrap_or(spec.run_seconds);
    let mut ok = true;
    // values[workload][metric] = one value per run
    let mut values = vec![vec![Vec::new(); spec.end_to_end.len()]; spec.workloads.len()];
    for run in 0..runs {
        for (w, workload) in spec.workloads.iter().enumerate() {
            let result = run_child(workload, cli.seed + run as u64, seconds, false)?;
            if !result.correct {
                println!(
                    "run {run} of {workload}: INCORRECT ({} failed)",
                    result.failed
                );
                ok = false;
            }
            for (m, metric) in spec.end_to_end.iter().enumerate() {
                values[w][m].push(value_of(&result, &metric.name));
            }
            eprintln!("syncbench: run {}/{runs} of {workload} done", run + 1);
        }
    }
    println!(
        "| workload | metric | unit | min | median | max | range % | quartile spread % | bound % |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for (w, workload) in spec.workloads.iter().enumerate() {
        for (m, metric) in spec.end_to_end.iter().enumerate() {
            let v = sorted(&values[w][m]);
            let (min, max, mid) = (v[0], v[v.len() - 1], median(&v));
            let spread = quartile_spread(&v);
            let bound = metric.bound.unwrap_or(f64::INFINITY);
            let verdict = if spread > bound {
                ok = false;
                " **over**"
            } else if spread > bound / 3.0 {
                " (over a third)"
            } else {
                ""
            };
            println!(
                "| {workload} | {} | {} | {min:.4} | {mid:.4} | {max:.4} | {:.2} | {:.2}{verdict} | {:.0} |",
                metric.name,
                metric.unit,
                100.0 * (max - min) / mid,
                100.0 * spread,
                100.0 * bound
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("syncbench: {e}\nusage: syncbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat K]");
            return ExitCode::from(2);
        }
    };
    let outcome = if cli.worker {
        worker(&spec, &cli).map(|()| true)
    } else if let Some(workload) = &cli.workload {
        // One run, as the benchmark driver invokes it: the result line is
        // printed even when it says `"correct": false`.
        let seconds = cli.seconds.unwrap_or(spec.run_seconds);
        run_child(workload, cli.seed, seconds, cli.traced).map(|result| {
            println!("{}", result.line);
            true
        })
    } else if let Some(runs) = cli.repeat {
        run_repeat(&spec, &cli, runs)
    } else {
        run_all(&spec, &cli)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("syncbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
