//! The request window's policy table: what a sizing policy costs in
//! request rounds and in symbols served, replayed over `riblt`'s own
//! `Encoder`/`Decoder` — the simulation behind the constants in
//! `reconcile_core::window`, the first flight of
//! `reconcile_core::first_flight` and the table in ARCHITECTURE.md ("The
//! request window").
//!
//! A trial splits a balanced difference of `d` items (half on each side,
//! no common items: they cancel out of every cell and of every bucket of
//! the count sketch) uniformly over 8 shards and decodes every shard once,
//! recording what a policy can see and what it is charged for: the count
//! sketch's estimate `d̂₀` of the whole difference (computed exactly, from
//! the items' keyed hashes), the decoder's `DifferenceEstimate` at every
//! 32-symbol tile boundary, and the length `u_s` of the prefix the decoder
//! consumes. A decoder consumes the same prefix however it is asked for, so
//! every policy is then replayed over the same recording, as `ClientMux`
//! drives it: the handshake's flight carries every shard's first flight;
//! each request round pools the shards' latest estimates, asks every
//! undecoded shard up to `window::request_until(requested, 32, d̂, ∞)` and
//! receives all of it.
//!
//! Three first flights run side by side over that one ladder: one tile per
//! shard (`ladder`, the protocol-version-3 flight, which every open without
//! a sketch still gets), the window's first rung of the sketch's estimate,
//! `request_until(0, 32, d̂₀/8, ∞)`, sized to finish the median shard
//! (`median`, the flight protocol version 4 shipped with), and the flight a
//! server sends now, `window::first_flight_until(32, d̂₀/8)`: that rung plus
//! `2·√(d̂₀/8)`, sized to finish the slowest of the 8 (`sized`). Lock-step —
//! one more tile per shard per round — is analytic: `⌈max u_s/32⌉ − 1`
//! request rounds, `Σ ⌈u_s/32⌉·32` symbols.
//!
//! The margin trades symbols for rounds. A shard's need is spread ±`√d` by
//! the decoder and ±`1.3·√d` by the hash split, so the median flight leaves
//! about half the shards one request round short, and the sync waits for
//! the slowest. At d = 2,000 the margin's ≈ 32 symbols a shard take the
//! mean from 1.26 request rounds to 0.69, for 3.4 % more symbols served
//! (+8.4 % over lock-step, where the median flight read +4.9 %); sizing the
//! median flight from the true `d` instead of `d̂₀` would only reach 1.19.
//! Below d ≈ 140 (17.5 a shard) the margin fits the first tile and costs
//! nothing; at 16,000 it is 1 % of what the one-tile flight serves.
//!
//! Output columns: `d, trials, estimate_per_diff, estimate_sd_pct,
//! lock_step_rounds, lock_step_symbols_per_diff`, then per first flight
//! `rounds, rounds_max, symbols_per_diff, vs_lock_step_pct,
//! vs_lock_step_pct_max` (`estimate_*` are the mean and spread of `d̂₀/d`,
//! `rounds` are request rounds after the handshake's flight, `symbols` are
//! symbols served, `_max` the worst trial).
//!
//! A `--full` run (200 trials a row; the quick 20 move the sized flight by
//! more than the margins) is its own gate, so a later edit of a constant
//! cannot drift silently: it exits 1 unless the sized flight reads, at
//! d = 100, exactly lock-step's rounds and symbols; at d = 256, at most 0.6
//! request rounds and 2.5 % symbols over lock-step; at d = 2,000, at most
//! 0.85 rounds and 1.10 × lock-step's symbols; and at d = 16,000, at most
//! 2 % more symbols than the one-tile flight.

use reconcile_core::window::{first_flight_until, request_until};
use reconcile_core::CountSketch;
use riblt::{Decoder, DifferenceEstimate, Encoder, Symbol};
use riblt_bench::{BenchCli, Item8, RunScale};
use riblt_hash::{splitmix64, SipKey};

const SHARDS: usize = 8;
const TILE: usize = 32;

/// One shard's decode, recorded once and replayed under every policy.
struct ShardTrace {
    /// Coded symbols the decoder consumes.
    units: usize,
    /// `estimates[k]`: the decoder's estimate after `k + 1` whole tiles,
    /// for every tile it consumed without completing.
    estimates: Vec<DifferenceEstimate>,
}

/// One trial: the count sketch's estimate of the whole difference, and
/// every shard's decode.
fn trace_trial(d: u64, seed: u64) -> (f64, Vec<ShardTrace>) {
    let mut shards: Vec<(Encoder<Item8>, Decoder<Item8>)> = (0..SHARDS)
        .map(|_| (Encoder::new(), Decoder::new()))
        .collect();
    let (mut server, mut client) = (CountSketch::new(), CountSketch::new());
    for k in 0..d {
        let item = Item8::from_u64(splitmix64(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1);
        let shard = splitmix64(seed.rotate_left(17) ^ k) % SHARDS as u64;
        let (encoder, decoder) = &mut shards[shard as usize];
        if k % 2 == 0 {
            server.insert(item.hash_with(SipKey::default()));
            encoder.add_symbol(item).expect("fresh encoder");
        } else {
            client.insert(item.hash_with(SipKey::default()));
            decoder.add_symbol(item).expect("fresh decoder");
        }
    }
    let traces = shards
        .into_iter()
        .map(|(mut encoder, mut decoder)| {
            let mut estimates = Vec::new();
            while !decoder.is_decoded() {
                decoder.add_coded_symbol(encoder.produce_next_coded_symbol());
                let units = decoder.coded_symbols_received();
                if units % TILE == 0 && !decoder.is_decoded() {
                    estimates.push(decoder.difference_estimate());
                }
            }
            ShardTrace {
                units: decoder.coded_symbols_received(),
                estimates,
            }
        })
        .collect();
    (client.estimate_difference(&server), traces)
}

/// Request rounds and symbols served when every shard's first flight is
/// `first` symbols and `window::request_until` sizes every round after it.
fn replay(traces: &[ShardTrace], first: usize) -> (usize, usize) {
    let mut requested = vec![first; traces.len()];
    let mut rounds = 0;
    loop {
        // A shard's estimate is the one it reported with its last whole
        // tile; a shard that completed keeps the one before.
        let mut pooled = DifferenceEstimate::default();
        for (trace, &requested) in traces.iter().zip(&requested) {
            let tiles = requested.min(trace.units - 1) / TILE;
            if let Some(estimate) = tiles.checked_sub(1).map(|k| &trace.estimates[k]) {
                pooled.merge(estimate);
            }
        }
        let mut asked = false;
        for (trace, requested) in traces.iter().zip(&mut requested) {
            if trace.units > *requested {
                *requested = request_until(*requested, TILE, pooled.mean(), usize::MAX)
                    .expect("no budget in the simulation");
                asked = true;
            }
        }
        if !asked {
            return (rounds, requested.iter().sum());
        }
        rounds += 1;
    }
}

#[derive(Default)]
struct Tally {
    rounds: usize,
    rounds_max: usize,
    served: usize,
    /// Worst trial's symbols served over its lock-step symbols.
    worst: f64,
}

impl Tally {
    fn add(&mut self, (rounds, served): (usize, usize), lock_step_symbols: usize) {
        self.rounds += rounds;
        self.rounds_max = self.rounds_max.max(rounds);
        self.served += served;
        self.worst = self.worst.max(served as f64 / lock_step_symbols as f64);
    }
}

/// The three first flights: one tile, the first rung of the sketch's
/// estimate, or that rung and its margin as a server sizes it.
const FLIGHTS: [&str; 3] = ["ladder", "median", "sized"];

fn main() {
    let cli = BenchCli::from_args();
    let trials = cli.scale.pick(20u64, 200u64);
    // The gates were set on 200 trials a row; over 20 the sized flight's
    // rounds and symbols move by more than their margins.
    let gated = cli.scale == RunScale::Full;
    let mut csv = cli.sink();
    eprintln!(
        "# request-window policy ({:?} mode): {trials} trials per row, {SHARDS} shards, {TILE}-symbol tiles{}",
        cli.scale,
        if gated { "" } else { "; --full checks the gates" }
    );
    let mut header = vec![
        "d".to_string(),
        "trials".to_string(),
        "estimate_per_diff".to_string(),
        "estimate_sd_pct".to_string(),
        "lock_step_rounds".to_string(),
        "lock_step_symbols_per_diff".to_string(),
    ];
    for name in FLIGHTS {
        for column in [
            "rounds",
            "rounds_max",
            "symbols_per_diff",
            "vs_lock_step_pct",
            "vs_lock_step_pct_max",
        ] {
            header.push(format!("{name}_{column}"));
        }
    }
    csv.cells(&header);

    let mut failures = Vec::new();
    for d in [100u64, 256, 400, 1_000, 2_000, 4_000, 16_000] {
        let (mut lock_rounds, mut lock_symbols) = (0usize, 0usize);
        let mut tallies = FLIGHTS.map(|_| Tally::default());
        let mut ratios = Vec::with_capacity(trials as usize);
        for trial in 0..trials {
            let (estimate, traces) = trace_trial(d, splitmix64(cli.seed_or(0x71_1e) ^ d) ^ trial);
            ratios.push(estimate / d as f64);
            let trial_lock_symbols: usize =
                traces.iter().map(|t| t.units.div_ceil(TILE) * TILE).sum();
            lock_rounds += traces
                .iter()
                .map(|t| t.units)
                .max()
                .expect("shards")
                .div_ceil(TILE)
                - 1;
            lock_symbols += trial_lock_symbols;
            let per_shard = estimate / SHARDS as f64;
            let median = request_until(0, TILE, per_shard, usize::MAX);
            let firsts = [
                TILE,
                median.expect("no budget in the simulation"),
                first_flight_until(TILE, per_shard),
            ];
            for (first, tally) in firsts.into_iter().zip(&mut tallies) {
                tally.add(replay(&traces, first), trial_lock_symbols);
            }
        }
        let mean = |total: usize| total as f64 / trials as f64;
        let per_diff = |total: usize| total as f64 / (trials * d) as f64;
        let ratio_mean = ratios.iter().sum::<f64>() / trials as f64;
        let ratio_var = ratios
            .iter()
            .map(|r| (r - ratio_mean) * (r - ratio_mean))
            .sum::<f64>()
            / trials as f64;
        let mut cells = vec![
            d.to_string(),
            trials.to_string(),
            format!("{ratio_mean:.3}"),
            format!("{:.1}", ratio_var.sqrt() * 100.0),
            format!("{:.2}", mean(lock_rounds)),
            format!("{:.3}", per_diff(lock_symbols)),
        ];
        for tally in &tallies {
            cells.push(format!("{:.2}", mean(tally.rounds)));
            cells.push(tally.rounds_max.to_string());
            cells.push(format!("{:.3}", per_diff(tally.served)));
            cells.push(format!(
                "{:+.1}",
                (tally.served as f64 / lock_symbols as f64 - 1.0) * 100.0
            ));
            cells.push(format!("{:+.1}", (tally.worst - 1.0) * 100.0));
        }
        csv.cells(&cells);

        let [ladder, _, sized] = &tallies;
        let mut gate = |broken: bool, what: String| {
            if gated && broken {
                failures.push(format!("d = {d}: the sized flight reads {what}"));
            }
        };
        let over_lock_step = |served: usize| served as f64 / lock_symbols as f64;
        match d {
            100 => gate(
                (sized.rounds, sized.served) != (lock_rounds, lock_symbols),
                format!(
                    "{} rounds, {} symbols against lock-step's {lock_rounds}, {lock_symbols}",
                    sized.rounds, sized.served
                ),
            ),
            256 => gate(
                mean(sized.rounds) > 0.6 || over_lock_step(sized.served) > 1.025,
                format!(
                    "{:.2} request rounds (at most 0.6), {:.3} x lock-step's symbols (at most 1.025)",
                    mean(sized.rounds),
                    over_lock_step(sized.served)
                ),
            ),
            2_000 => gate(
                mean(sized.rounds) > 0.85 || over_lock_step(sized.served) > 1.10,
                format!(
                    "{:.2} request rounds (at most 0.85), {:.3} x lock-step's symbols (at most 1.10)",
                    mean(sized.rounds),
                    over_lock_step(sized.served)
                ),
            ),
            16_000 => gate(
                sized.served as f64 > 1.02 * ladder.served as f64,
                format!(
                    "{} symbols against the one-tile flight's {} (at most 2 % more)",
                    sized.served, ladder.served
                ),
            ),
            _ => {}
        }
    }
    drop(csv);
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("table_window_policy: {failure}");
        }
        std::process::exit(1);
    }
}
