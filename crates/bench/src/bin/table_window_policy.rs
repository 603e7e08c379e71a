//! The request window's policy table: what a sizing rule costs in request
//! rounds and in symbols served, replayed over `riblt`'s own
//! `Encoder`/`Decoder` — the simulation behind the constants in
//! `reconcile_core::window` and the table in ARCHITECTURE.md ("The request
//! window").
//!
//! A trial splits a balanced difference of `d` items (half on each side,
//! no common items: they cancel out of every cell) uniformly over 8 shards
//! and decodes every shard once, recording what a rule can see and what it
//! is charged for: the decoder's `DifferenceEstimate` at every 32-symbol
//! tile boundary, and the length `u_s` of the prefix the decoder consumes.
//! A decoder consumes the same prefix however it is asked for, so every
//! rule is then replayed over the same recording, as `ClientMux` would
//! drive it: the handshake's flight carries every shard's first tile; each
//! request round pools the shards' latest estimates, asks every undecoded
//! shard up to `rule(requested, 32, d̂, ∞)` and receives all of it.
//!
//! Two rules run side by side: `window::request_until` itself, and the
//! ladder it replaced (frozen here as the table's "before"). Lock-step —
//! one more tile per shard per round — is analytic: `⌈max u_s/32⌉ − 1`
//! request rounds, `Σ ⌈u_s/32⌉·32` symbols.
//!
//! Output columns: `d, trials, lock_step_rounds, lock_step_symbols_per_diff`,
//! then per rule `rounds, rounds_max, symbols_per_diff, vs_lock_step_pct,
//! vs_lock_step_pct_max` (`rounds` are request rounds after the handshake's
//! flight, `symbols` are symbols served, `_max` the worst trial).
//!
//! The run is its own gate, so a later edit of a constant cannot drift
//! silently: it exits 1 when the d = 100 or d = 256 row differs from
//! lock-step in rounds or symbols, or when d = 2,000 reads more than 2.6
//! request rounds or more than 1.06 × lock-step symbols.

use reconcile_core::window::request_until;
use riblt::{Decoder, DifferenceEstimate, Encoder};
use riblt_bench::{BenchCli, Item8};
use riblt_hash::splitmix64;

const SHARDS: usize = 8;
const TILE: usize = 32;

/// A sizing rule, with the signature of `window::request_until`.
type Rule = fn(usize, usize, f64, usize) -> Option<usize>;

/// The ladder of PRs 16–23: up to `1.25·d̂`, then `1.45·d̂`, then `0.1·d̂`
/// more a round.
fn parent_ladder(requested: usize, tile: usize, difference: f64, _budget: usize) -> Option<usize> {
    let asked = requested as f64;
    let target = if asked < 1.25 * difference {
        1.25 * difference
    } else if asked < 1.45 * difference {
        1.45 * difference
    } else {
        asked + 0.1 * difference
    };
    Some(((target / tile as f64).ceil() as usize * tile).max(requested + tile))
}

/// One shard's decode, recorded once and replayed under every rule.
struct ShardTrace {
    /// Coded symbols the decoder consumes.
    units: usize,
    /// `estimates[k]`: the decoder's estimate after `k + 1` whole tiles,
    /// for every tile it consumed without completing.
    estimates: Vec<DifferenceEstimate>,
}

fn trace_trial(d: u64, seed: u64) -> Vec<ShardTrace> {
    let mut shards: Vec<(Encoder<Item8>, Decoder<Item8>)> = (0..SHARDS)
        .map(|_| (Encoder::new(), Decoder::new()))
        .collect();
    for k in 0..d {
        let item = Item8::from_u64(splitmix64(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1);
        let shard = splitmix64(seed.rotate_left(17) ^ k) % SHARDS as u64;
        let (encoder, decoder) = &mut shards[shard as usize];
        if k % 2 == 0 {
            encoder.add_symbol(item).expect("fresh encoder");
        } else {
            decoder.add_symbol(item).expect("fresh decoder");
        }
    }
    shards
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
        .collect()
}

/// Request rounds and symbols served when `rule` drives one trial.
fn replay(traces: &[ShardTrace], rule: Rule) -> (usize, usize) {
    let mut requested = vec![TILE; traces.len()];
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
                *requested = rule(*requested, TILE, pooled.mean(), usize::MAX)
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

fn main() {
    let cli = BenchCli::from_args();
    let trials = cli.scale.pick(20u64, 200u64);
    let rules: [(&str, Rule); 2] = [("parent", parent_ladder), ("window", request_until)];
    let mut csv = cli.sink();
    eprintln!(
        "# request-window policy ({:?} mode): {trials} trials per row, {SHARDS} shards, {TILE}-symbol tiles",
        cli.scale
    );
    let mut header = vec![
        "d".to_string(),
        "trials".to_string(),
        "lock_step_rounds".to_string(),
        "lock_step_symbols_per_diff".to_string(),
    ];
    for (name, _) in rules {
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
        let mut tallies = rules.map(|_| Tally::default());
        for trial in 0..trials {
            let traces = trace_trial(d, splitmix64(cli.seed_or(0x71_1e) ^ d) ^ trial);
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
            for ((_, rule), tally) in rules.iter().zip(&mut tallies) {
                tally.add(replay(&traces, *rule), trial_lock_symbols);
            }
        }
        let mean = |total: usize| total as f64 / trials as f64;
        let per_diff = |total: usize| total as f64 / (trials * d) as f64;
        let mut cells = vec![
            d.to_string(),
            trials.to_string(),
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

        let [_, window] = &tallies;
        if matches!(d, 100 | 256) && (window.rounds, window.served) != (lock_rounds, lock_symbols) {
            failures.push(format!(
                "d = {d}: the window differs from lock-step ({} rounds, {} symbols against {lock_rounds}, {lock_symbols})",
                window.rounds, window.served
            ));
        }
        if d == 2_000 {
            if mean(window.rounds) > 2.6 {
                failures.push(format!(
                    "d = 2,000: {:.2} request rounds, over 2.6",
                    mean(window.rounds)
                ));
            }
            if window.served * 100 > lock_symbols * 106 {
                failures.push(format!(
                    "d = 2,000: {} symbols served, over 1.06 x lock-step's {lock_symbols}",
                    window.served
                ));
            }
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
