//! Instrumentation-overhead benchmark: proves the `obs` handles wired into
//! the serving hot paths cost at most [`THRESHOLD_PCT`] of encode/decode
//! throughput.
//!
//! Differential timing (bare loop vs instrumented loop) cannot resolve a
//! sub-2% effect on a shared machine — run-to-run wall-time swings of
//! ±5-20% drown the signal. So the budget is checked the other way around:
//! the bench times the bare hot loop, then times *just the per-batch
//! instrument mix the daemon's serve path adds* (a `SpanTimer` into a
//! latency histogram, a symbol counter, a size histogram) for the same
//! number of batches, and reports the ratio. The added calls are measured
//! directly — nanoseconds per batch, stable under min-of-N — instead of as
//! a difference of two large noisy numbers. A fully instrumented loop
//! still runs once per bench as a functional sanity check.
//!
//! Usage:
//!
//! ```text
//! obs_overhead [--quick|--full] [--seed N] [--check] [--out PATH]
//! ```
//!
//! `--check` exits nonzero when the overhead ratio of any bench exceeds
//! the threshold; the CI `perf-smoke` job runs `--quick --check` on every
//! push. `obs` has one build, so the instruments timed here are the ones
//! the daemon runs.

use riblt::{Decoder, Encoder};
use riblt_bench::{items32, timed, Item32, RunScale};
use riblt_hash::splitmix64;
use std::hint::black_box;
use std::sync::Arc;

/// Maximum tolerated slowdown of an instrumented loop, in percent.
pub const THRESHOLD_PCT: f64 = 2.0;

/// Coded symbols per instrumented batch — the granularity the daemon
/// observes at (one serve batch ≈ one histogram observation).
const BATCH: usize = 128;

fn main() {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: obs_overhead [--quick|--full] [--seed N] [--check] [--out PATH]");
            std::process::exit(2);
        }
    };

    eprintln!("# obs_overhead ({:?} mode, seed {})", cli.scale, cli.seed);
    let results = vec![
        bench_encode(cli.scale, cli.seed),
        bench_decode(cli.scale, cli.seed),
    ];

    let mut failed = false;
    for r in &results {
        eprintln!(
            "# {:<7} bare {:.6}s  instruments {:.9}s over {} batches  overhead {:.4}%",
            r.name, r.bare_s, r.instruments_s, r.batches, r.overhead_pct
        );
        if r.overhead_pct > THRESHOLD_PCT {
            failed = true;
        }
    }

    let report = render_report(&cli, &results);
    match &cli.out {
        Some(path) => {
            std::fs::write(path, &report).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("# wrote {path}");
        }
        None => print!("{report}"),
    }

    if cli.check {
        if failed {
            eprintln!("# FAIL: instrumentation overhead exceeds {THRESHOLD_PCT}%");
            std::process::exit(1);
        }
        eprintln!("# OK: overhead within {THRESHOLD_PCT}%");
    }
}

struct Cli {
    scale: RunScale,
    seed: u64,
    check: bool,
    out: Option<String>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            scale: RunScale::Quick,
            seed: 0,
            check: false,
            out: None,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cli.scale = RunScale::Quick,
                "--full" => cli.scale = RunScale::Full,
                "--check" => cli.check = true,
                "--seed" => {
                    let value = args.next().ok_or("--seed needs a value")?;
                    cli.seed = value
                        .parse()
                        .map_err(|_| format!("bad --seed value: {value}"))?;
                }
                "--out" => cli.out = Some(args.next().ok_or("--out needs a path")?),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(cli)
    }
}

/// One bench's result: min-of-N bare wall time, the directly measured cost
/// of the instrument calls for the same batch count, and their ratio.
struct Overhead {
    name: &'static str,
    bare_s: f64,
    instruments_s: f64,
    batches: usize,
    overhead_pct: f64,
}

impl Overhead {
    fn new(name: &'static str, bare_s: f64, instruments_s: f64, batches: usize) -> Overhead {
        Overhead {
            name,
            bare_s,
            instruments_s,
            batches,
            overhead_pct: instruments_s / bare_s * 100.0,
        }
    }
}

/// The per-batch instrument mix the daemon's serve path pays: a span timer
/// into a seconds histogram, a symbols counter, and a size histogram.
struct Instruments {
    batch_seconds: Arc<obs::Histogram>,
    symbols: Arc<obs::Counter>,
    batch_units: Arc<obs::Histogram>,
}

impl Instruments {
    fn new(registry: &obs::Registry, prefix: &str) -> Instruments {
        Instruments {
            batch_seconds: registry.histogram_seconds(
                &format!("overhead_{prefix}_batch_seconds"),
                "Latency of one instrumented batch.",
            ),
            symbols: registry.counter(
                &format!("overhead_{prefix}_symbols_total"),
                "Symbols pushed through the instrumented loop.",
            ),
            batch_units: registry.histogram(
                &format!("overhead_{prefix}_batch_units"),
                "Symbols per instrumented batch.",
            ),
        }
    }

    /// Exactly what the hot path pays per served batch, and nothing else.
    #[inline]
    fn per_batch(&self, units: u64) {
        let span = obs::SpanTimer::start(&self.batch_seconds);
        span.stop();
        self.symbols.add(units);
        self.batch_units.observe(units);
    }
}

/// Times the instrument mix alone for `batches` batches, min of `trials`.
/// Every call has a side effect (atomic updates, two clock reads feeding
/// an observation), so the loop cannot be optimized away.
fn instrument_cost(instruments: &Instruments, batches: usize, trials: u32) -> f64 {
    let mut min = f64::INFINITY;
    for _ in 0..trials {
        let (_, secs) = timed(|| {
            for _ in 0..batches {
                instruments.per_batch(BATCH as u64);
            }
        });
        min = min.min(secs);
    }
    min
}

fn bench_encode(scale: RunScale, seed: u64) -> Overhead {
    let n = scale.pick(20_000u64, 100_000u64);
    let produced = scale.pick(40_000usize, 200_000usize);
    let trials = scale.pick(5u32, 9u32);
    let items = items32(n, splitmix64(seed ^ 0x0b5e));

    let registry = obs::Registry::new();
    let instruments = Instruments::new(&registry, "encode");

    let loaded = || {
        let mut enc = Encoder::<Item32>::new();
        for item in &items {
            enc.add_symbol(*item).unwrap();
        }
        enc
    };

    let mut bare_min = f64::INFINITY;
    for _ in 0..trials {
        let mut enc = loaded();
        let (_, secs) = timed(|| {
            let mut done = 0;
            while done < produced {
                let take = BATCH.min(produced - done);
                black_box(enc.produce_coded_symbols(take));
                done += take;
            }
        });
        bare_min = bare_min.min(secs);
    }

    // Functional sanity: the instrumented loop produces the same symbols
    // and populates every series.
    let mut enc = loaded();
    let mut done = 0;
    while done < produced {
        let take = BATCH.min(produced - done);
        let span = obs::SpanTimer::start(&instruments.batch_seconds);
        black_box(enc.produce_coded_symbols(take));
        span.stop();
        instruments.symbols.add(take as u64);
        instruments.batch_units.observe(take as u64);
        done += take;
    }
    assert_eq!(instruments.symbols.get(), produced as u64);

    let batches = produced.div_ceil(BATCH);
    let instruments_s = instrument_cost(&instruments, batches, trials);
    Overhead::new("encode", bare_min, instruments_s, batches)
}

fn bench_decode(scale: RunScale, seed: u64) -> Overhead {
    let d = scale.pick(10_000u64, 30_000u64);
    let trials = scale.pick(5u32, 9u32);
    let items = items32(d, splitmix64(seed ^ 0xdc0d));

    let mut enc = Encoder::<Item32>::new();
    for item in &items {
        enc.add_symbol(*item).unwrap();
    }
    let coded = enc.produce_coded_symbols(2 * d as usize + 4);

    let registry = obs::Registry::new();
    let instruments = Instruments::new(&registry, "decode");

    let mut bare_min = f64::INFINITY;
    let mut batches = 0usize;
    for _ in 0..trials {
        let ((recovered, used_batches), secs) = timed(|| {
            let mut dec = Decoder::<Item32>::new();
            let mut used = 0;
            for chunk in coded.chunks(BATCH) {
                for cs in chunk {
                    dec.add_coded_symbol(cs.clone());
                }
                used += 1;
                if dec.is_decoded() {
                    break;
                }
            }
            (dec.recovered_count(), used)
        });
        assert_eq!(recovered, d as usize, "bare decode finished");
        bare_min = bare_min.min(secs);
        batches = used_batches;
    }

    // Functional sanity for the instrumented variant.
    let mut dec = Decoder::<Item32>::new();
    for chunk in coded.chunks(BATCH) {
        let span = obs::SpanTimer::start(&instruments.batch_seconds);
        for cs in chunk {
            dec.add_coded_symbol(cs.clone());
        }
        span.stop();
        instruments.symbols.add(chunk.len() as u64);
        instruments.batch_units.observe(chunk.len() as u64);
        if dec.is_decoded() {
            break;
        }
    }
    assert_eq!(
        dec.recovered_count(),
        d as usize,
        "instrumented decode finished"
    );

    let instruments_s = instrument_cost(&instruments, batches, trials);
    Overhead::new("decode", bare_min, instruments_s, batches)
}

fn render_report(cli: &Cli, results: &[Overhead]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"seed\": {},\n  \"threshold_pct\": {THRESHOLD_PCT},\n",
        match cli.scale {
            RunScale::Quick => "quick",
            RunScale::Full => "full",
        },
        cli.seed
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"bare_s\": {:.9}, \"instruments_s\": {:.9}, \"batches\": {}, \"overhead_pct\": {:.4} }}{}\n",
            r.name,
            r.bare_s,
            r.instruments_s,
            r.batches,
            r.overhead_pct,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
