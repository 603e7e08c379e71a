//! The request window on the sharded driver, over the link emulator: a
//! seeded battery pinning how many rounds a sync takes, what the window
//! costs in symbols against asking one batch per round, and that a round
//! is exactly one round trip. (Its own test binary: 80 debug-build syncs
//! would otherwise contend with the unit tests that fold measured CPU time
//! into virtual clocks.)

use netsim::LinkConfig;
use reconcile_core::backends::RibltBackend;
use reconcile_core::{run_in_memory, ShardPartitioner};
use statesync::{
    sync_sharded_riblt, synth_account, synth_address, Ledger, LedgerItem, ShardedRibltConfig,
    ShardedSyncConfig, SyncConfig, ITEM_LEN,
};

/// A 1,000-account ledger pair whose symmetric difference is exactly `d`
/// items, half on each side: `d / 2` accounts changed state.
fn ledgers_differing_by(d: u64, seed: u64) -> (Ledger, Ledger) {
    let stale = Ledger::genesis(1_000);
    let mut latest = stale.clone();
    for account in 0..d / 2 {
        latest.put(synth_address(account), synth_account(account, seed));
    }
    assert_eq!(latest.item_difference(&stale) as u64, d);
    (latest, stale)
}

/// Coded symbols each shard's decoder consumes — the same prefix however
/// it is asked for — from which lock-step's cost follows: a round and 32
/// symbols per started batch.
fn units_by_shard(latest: &Ledger, stale: &Ledger, config: &ShardedRibltConfig) -> Vec<usize> {
    let sharding = config.sharding;
    let partitioner = ShardPartitioner::new(sharding.key, sharding.shards);
    let backend = RibltBackend::<LedgerItem>::with_key_and_alpha(
        ITEM_LEN,
        config.batch_symbols,
        sharding.key,
        riblt::DEFAULT_ALPHA,
    );
    partitioner
        .partition(&latest.items())
        .iter()
        .zip(&partitioner.partition(&stale.items()))
        .map(|(server, client)| {
            run_in_memory(backend.clone(), server, client, usize::MAX)
                .unwrap()
                .units
        })
        .collect()
}

#[test]
fn windowed_requests_cut_the_rounds_within_the_symbol_bound() {
    let link = LinkConfig {
        one_way_delay_s: 0.025,
        bandwidth_bps: None,
    };
    let config = ShardedRibltConfig {
        batch_symbols: 32,
        sharding: ShardedSyncConfig {
            shards: 8,
            threads: 1,
            base: SyncConfig {
                link,
                ..Default::default()
            },
            ..Default::default()
        },
    };
    let (mut rounds, mut lock_step_rounds) = (0, 0);
    let (mut received, mut lock_step_received) = (0, 0);
    for seed in 1..=20u64 {
        let (latest, stale) = ledgers_differing_by(2_000, seed);
        let (updated, outcome) = sync_sharded_riblt(&latest, &stale, config).unwrap();
        assert_eq!(updated, latest);
        let units = units_by_shard(&latest, &stale, &config);
        assert_eq!(outcome.units_transferred, units.iter().sum::<usize>());
        let lock_step_symbols: usize = units.iter().map(|u| u.div_ceil(32) * 32).sum();
        assert!(
            outcome.rounds <= 6,
            "seed {seed}: {} rounds",
            outcome.rounds
        );
        // One sync may overshoot by several tiles (one in 17 by more than
        // 6 %); the 6 % bound is on the run's total, checked below.
        assert!(
            outcome.payloads * 32 <= lock_step_symbols * 112 / 100,
            "seed {seed}: {} symbols received, lock-step {lock_step_symbols}",
            outcome.payloads * 32
        );
        // A round is one round trip of the link, and nothing else waits.
        let floor = outcome.rounds as f64 * link.rtt();
        let cpu = outcome.client_cpu_s + outcome.server_cpu_s;
        assert!(
            (floor..=floor + cpu + 1e-9).contains(&outcome.completion_time_s),
            "seed {seed}: {} s for {} rounds",
            outcome.completion_time_s,
            outcome.rounds
        );
        rounds += outcome.rounds;
        lock_step_rounds += units.iter().max().unwrap().div_ceil(32);
        received += outcome.payloads * 32;
        lock_step_received += lock_step_symbols;
    }
    // 12.7 lock-step rounds on average; the window takes about four.
    assert!(lock_step_rounds >= 20 * 11, "{lock_step_rounds}");
    assert!(rounds <= 20 * 9 / 2, "{rounds}");
    // The benchmark's bound on bytes per difference is 6 %.
    assert!(
        received * 100 <= lock_step_received * 106,
        "{received} symbols received, lock-step {lock_step_received}"
    );

    // Small differences never pay for the window: a shard is asked for at
    // least one more batch every round, as lock-step asked.
    for d in [16, 100, 256] {
        for seed in 1..=20u64 {
            let (latest, stale) = ledgers_differing_by(d, seed);
            let (_, outcome) = sync_sharded_riblt(&latest, &stale, config).unwrap();
            let units = units_by_shard(&latest, &stale, &config);
            let lock_step = units.iter().max().unwrap().div_ceil(32);
            assert!(
                outcome.rounds <= lock_step,
                "d={d} seed {seed}: {} rounds, lock-step {lock_step}",
                outcome.rounds
            );
        }
    }
}
