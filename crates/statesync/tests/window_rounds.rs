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
    // Per size: `(d, lock-step rounds a sync at least, flights over the 20
    // syncs, flights a sync at most, symbols against lock-step in per cent
    // over the 20 syncs and in the worst sync)`, the flights and symbols
    // pinned at what these seeds measure with one sync's slack or one point.
    // The first flight reaches the first rung plus 2·√d̂ a shard, so most
    // syncs end in the opening flight or one request round after it: 36 /
    // 33 / 24 flights where the first rung alone took 50 / 48 / 38 (12.7,
    // 6.9 and 23.6 lock-step rounds a sync). The margin is paid in symbols,
    // +6.0 / +6.1 / +8.3 % over lock-step where the first rung alone read
    // +3.9 / +1.6 / +5.3 %: +2.0 / +4.5 / +2.8 % over it, inside the
    // benchmark's 6 % bound on bytes per difference, which is a bound
    // against the parent commit rather than against lock-step.
    for (d, lock_step_floor, flights_pin, flights_max, percent, percent_max) in [
        (2_000, 11, 36 + 3, 3, 107, 114),
        (1_000, 6, 33 + 2, 2, 107, 120),
        (4_000, 22, 24 + 2, 2, 109, 122),
    ] {
        let syncs = battery(d, config);
        for (seed, sync) in (1..).zip(&syncs) {
            assert!(
                sync.rounds <= flights_max,
                "d={d} seed {seed}: {} flights",
                sync.rounds
            );
            assert!(
                sync.received * 100 <= sync.lock_step_received * percent_max,
                "d={d} seed {seed}: {} symbols received, lock-step {}",
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
        assert!(
            lock_step_rounds >= 20 * lock_step_floor,
            "d={d}: {lock_step_rounds}"
        );
        assert!(rounds <= flights_pin, "d={d}: {rounds} flights");
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
