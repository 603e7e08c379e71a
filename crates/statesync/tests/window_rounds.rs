//! The request window on the sharded driver, over the link emulator: a
//! seeded battery pinning how many rounds a sync takes, what the window
//! costs in symbols against asking one batch per round, and that a round
//! is exactly one round trip. (Its own test binary: 120 debug-build syncs
//! would otherwise contend with the unit tests that fold measured CPU time
//! into virtual clocks.)

use netsim::LinkConfig;
use reconcile_core::backends::RibltBackend;
use reconcile_core::{run_in_memory, ShardPartitioner};
use statesync::{
    sync_sharded_riblt, synth_account, synth_address, Ledger, LedgerItem, ShardedRibltConfig,
    ShardedSyncConfig, SyncConfig, ITEM_LEN,
};

/// A ledger pair of 1,000 accounts (more when `d` needs them) whose
/// symmetric difference is exactly `d` items, half on each side: `d / 2`
/// accounts changed state.
fn ledgers_differing_by(d: u64, seed: u64) -> (Ledger, Ledger) {
    let stale = Ledger::genesis(1_000.max(d / 2));
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

/// One sync of a battery, or the sum of several: the rounds it took (the
/// simulator counts its opening flight, which a real connection's handshake
/// carries) and the symbols it received, beside what lock-step would have.
#[derive(Default)]
struct Sync {
    rounds: usize,
    received: usize,
    lock_step_received: usize,
    lock_step_rounds: usize,
}

/// Twenty seeded syncs of `d` differences. Every one converges, consumes
/// exactly the prefix lock-step would, and pays one round trip of the link
/// per round and nothing else.
fn battery(d: u64, config: ShardedRibltConfig) -> Vec<Sync> {
    let link = config.sharding.base.link;
    (1..=20u64)
        .map(|seed| {
            let (latest, stale) = ledgers_differing_by(d, seed);
            let (updated, outcome) = sync_sharded_riblt(&latest, &stale, config).unwrap();
            assert_eq!(updated, latest);
            let units = units_by_shard(&latest, &stale, &config);
            assert_eq!(outcome.units_transferred, units.iter().sum::<usize>());
            // A round is one round trip of the link, and nothing else waits.
            let floor = outcome.rounds as f64 * link.rtt();
            let cpu = outcome.client_cpu_s + outcome.server_cpu_s;
            assert!(
                (floor..=floor + cpu + 1e-9).contains(&outcome.completion_time_s),
                "d={d} seed {seed}: {} s for {} rounds",
                outcome.completion_time_s,
                outcome.rounds
            );
            Sync {
                rounds: outcome.rounds,
                received: outcome.payloads * 32,
                lock_step_received: units.iter().map(|u| u.div_ceil(32) * 32).sum(),
                lock_step_rounds: units.iter().max().unwrap().div_ceil(32),
            }
        })
        .collect()
}

fn sum(syncs: &[Sync]) -> Sync {
    syncs.iter().fold(Sync::default(), |sum, sync| Sync {
        rounds: sum.rounds + sync.rounds,
        received: sum.received + sync.received,
        lock_step_received: sum.lock_step_received + sync.lock_step_received,
        lock_step_rounds: sum.lock_step_rounds + sync.lock_step_rounds,
    })
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
    let syncs = battery(2_000, config);
    for (seed, sync) in (1..).zip(&syncs) {
        // The opening flight, the ask sized to the median shard, the ask
        // sized to the slowest, and at most one top-up.
        assert!(sync.rounds <= 4, "seed {seed}: {} rounds", sync.rounds);
        // One sync may overshoot by several tiles (one in 17 by more than
        // 6 %); the 6 % bound is on the run's total, checked below.
        assert!(
            sync.received <= sync.lock_step_received * 112 / 100,
            "seed {seed}: {} symbols received, lock-step {}",
            sync.received,
            sync.lock_step_received
        );
    }
    let Sync {
        rounds,
        received,
        lock_step_received,
        lock_step_rounds,
    } = sum(&syncs);
    // 12.7 lock-step rounds on average; the window takes 3.4 (68 over these
    // seeds, 82 under the 1.25 / 1.45 ladder), pinned with one sync's slack.
    assert!(lock_step_rounds >= 20 * 11, "{lock_step_rounds}");
    assert!(rounds <= 68 + 4, "{rounds}");
    // The benchmark's bound on bytes per difference is 6 %.
    assert!(
        received * 100 <= lock_step_received * 106,
        "{received} symbols received, lock-step {lock_step_received}"
    );

    // The neighbouring sizes, each with its own pins: `(d, lock-step rounds
    // a sync at least, rounds over the 20 syncs, rounds a sync at most,
    // symbols against lock-step in per cent at most)`. Measured 58 rounds
    // at +2.9 % and 67 at +4.9 % (65 at +1.3 % and 75 at +3.2 % under the
    // 1.25 / 1.45 ladder, whose slowest sync at 4,000 also took 5).
    for (d, lock_step_floor, rounds_pin, rounds_max, percent) in
        [(1_000, 6, 58 + 4, 4, 104), (4_000, 22, 67 + 5, 5, 106)]
    {
        let syncs = battery(d, config);
        let Sync {
            rounds,
            received,
            lock_step_received,
            lock_step_rounds,
        } = sum(&syncs);
        assert!(
            lock_step_rounds >= 20 * lock_step_floor,
            "{lock_step_rounds}"
        );
        assert!(rounds <= rounds_pin, "d={d}: {rounds} rounds");
        assert!(
            syncs.iter().all(|s| s.rounds <= rounds_max),
            "d={d}: a sync over {rounds_max} rounds"
        );
        assert!(
            received * 100 <= lock_step_received * percent,
            "d={d}: {received} symbols received, lock-step {lock_step_received}"
        );
    }

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
