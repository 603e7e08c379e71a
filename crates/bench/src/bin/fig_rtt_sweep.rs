//! Round trips against link latency: the sharded sync driver with its
//! request window (`reconcile_core::window`) over the deterministic link
//! emulator, beside what asking one batch per round would have cost.
//!
//! Each row syncs a ledger pair that differs by exactly `d` items (half on
//! each side) through `statesync::sync_sharded_riblt` (the shipped client
//! against the library's server) — 8 shards, 32-symbol batches, one decode
//! thread, an uncapped link — at RTT ∈ {0, 10, 50, 100 ms}, averaged over
//! seeded trials. `rounds` counts as `statesync::TcpSyncOutcome::rounds`
//! does: request rounds *after* the handshake exchange, whose round trip
//! carries the hellos and every shard's first flight. A round costs one
//! round trip, so `sync_ms` = `(rounds + 1) × RTT` + measured CPU, the
//! client's set-up pass included.
//!
//! The lock-step columns are analytic, not measured — no lock-step code
//! path exists any more. A decoder consumes the same prefix of its stream
//! however it is asked for, so from each shard's consumed units `u_s`
//! lock-step would have taken `⌈max u_s / 32⌉ − 1` rounds after the
//! handshake exchange, received `Σ ⌈u_s / 32⌉ · 32` symbols, and waited
//! `(rounds + 1) × RTT`.
//!
//! Output columns: `rtt_ms, d, trials, rounds, rounds_max, sync_ms,
//! symbols, lock_step_rounds, lock_step_ms, lock_step_symbols,
//! served_vs_lock_step_pct` (the last is what the window costs: symbols
//! served over lock-step's, in per cent). `--full` adds a d = 16,000 row,
//! where a constant second rung overshot (`table_window_policy` has the
//! rule-by-rule comparison this figure checks on the real driver).

use netsim::{run_in_memory, LinkConfig};
use reconcile_core::backends::RibltBackend;
use reconcile_core::ShardPartitioner;
use riblt_bench::{csv_emit, BenchCli};
use statesync::{
    sync_sharded_riblt, synth_account, synth_address, Ledger, LedgerItem, ShardedRibltConfig,
    ShardedSyncConfig, SyncConfig, ITEM_LEN,
};

const SHARDS: u16 = 8;
const BATCH: usize = 32;
const ACCOUNTS: u64 = 5_000;

/// A ledger pair whose symmetric difference is exactly `d` items, half on
/// each side: `d / 2` accounts changed state (to a seed-dependent version).
fn ledgers_differing_by(d: u64, seed: u64) -> (Ledger, Ledger) {
    let stale = Ledger::genesis(ACCOUNTS.max(d / 2));
    let mut latest = stale.clone();
    for account in 0..d / 2 {
        latest.put(synth_address(account), synth_account(account, 1 + seed));
    }
    (latest, stale)
}

/// Coded symbols each shard's decoder consumes.
fn units_by_shard(latest: &Ledger, stale: &Ledger, config: &ShardedSyncConfig) -> Vec<usize> {
    let partitioner = ShardPartitioner::new(config.key, config.shards);
    let backend = RibltBackend::<LedgerItem>::with_key_and_alpha(
        ITEM_LEN,
        BATCH,
        config.key,
        riblt::DEFAULT_ALPHA,
    );
    partitioner
        .partition(&latest.items())
        .iter()
        .zip(&partitioner.partition(&stale.items()))
        .map(|(server, client)| {
            run_in_memory(backend.clone(), server, client, usize::MAX)
                .expect("rateless streams always decode")
                .units
        })
        .collect()
}

fn main() {
    let cli = BenchCli::from_args();
    let trials = cli.scale.pick(10u64, 50u64);
    let mut csv = cli.sink();
    eprintln!(
        "# RTT sweep ({:?} mode): {trials} trials per row, {SHARDS} shards, {BATCH}-symbol batches",
        cli.scale
    );
    csv.header(&[
        "rtt_ms",
        "d",
        "trials",
        "rounds",
        "rounds_max",
        "sync_ms",
        "symbols",
        "lock_step_rounds",
        "lock_step_ms",
        "lock_step_symbols",
        "served_vs_lock_step_pct",
    ]);
    let differences: &[u64] = cli.scale.pick(&[100, 2_000], &[100, 2_000, 16_000]);

    for rtt_ms in [0.0f64, 10.0, 50.0, 100.0] {
        for &d in differences {
            let link = LinkConfig {
                one_way_delay_s: rtt_ms / 2e3,
                bandwidth_bps: None,
            };
            let config = ShardedRibltConfig {
                batch_symbols: BATCH,
                sharding: ShardedSyncConfig {
                    shards: SHARDS,
                    threads: 1,
                    base: SyncConfig {
                        link,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            };
            let (mut rounds, mut rounds_max, mut sync_ms, mut symbols) = (0usize, 0usize, 0.0, 0);
            let (mut lock_rounds, mut lock_symbols) = (0usize, 0usize);
            for trial in 0..trials {
                let (latest, stale) = ledgers_differing_by(d, cli.seed_or(0x277) + trial);
                let (updated, outcome) =
                    sync_sharded_riblt(&latest, &stale, config).expect("sharded sync");
                assert_eq!(updated, latest, "sync did not converge");
                // The simulator's count includes the handshake's flight.
                rounds += outcome.rounds - 1;
                rounds_max = rounds_max.max(outcome.rounds - 1);
                sync_ms += outcome.completion_time_s * 1e3;
                symbols += outcome.payloads * BATCH;

                let units = units_by_shard(&latest, &stale, &config.sharding);
                assert_eq!(outcome.units_transferred, units.iter().sum::<usize>());
                lock_rounds += units.iter().max().expect("shards").div_ceil(BATCH) - 1;
                lock_symbols += units
                    .iter()
                    .map(|u| u.div_ceil(BATCH) * BATCH)
                    .sum::<usize>();
            }
            let per = |total: usize| total as f64 / trials as f64;
            csv_emit!(
                csv,
                rtt_ms,
                d,
                trials,
                format!("{:.2}", per(rounds)),
                rounds_max,
                format!("{:.1}", sync_ms / trials as f64),
                format!("{:.0}", per(symbols)),
                format!("{:.2}", per(lock_rounds)),
                format!("{:.1}", (per(lock_rounds) + 1.0) * rtt_ms),
                format!("{:.0}", per(lock_symbols)),
                format!(
                    "{:+.1}",
                    (symbols as f64 / lock_symbols as f64 - 1.0) * 100.0
                )
            );
        }
    }
}
