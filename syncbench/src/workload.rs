//! The four workloads, their seeded inputs, and exact verification of every
//! recovered difference.

use std::time::Duration;

use cluster::set_digest;
use reconcile_core::SetDifference;
use riblt_bench::{items32, Item32};
use riblt_hash::SipKey;

/// Item length in bytes (SHA-256-sized keys, as in the paper's ledger).
pub const ITEM_LEN: usize = 32;
/// Keyspace shards of the daemon under test.
pub const SHARDS: u16 = 8;
/// `--seconds` value the counts in [`WORKLOADS`] were sized for on the
/// reference host; other values scale every count linearly.
pub const REFERENCE_SECONDS: u64 = 20;
/// Keys inserted (and previous keys removed) before each `write_churn` sync.
pub const CHURN_BURST: usize = 256;
/// One-way delay of the `wan_rtt` relay: RTT = 50 ms, the paper's link.
pub const WAN_ONE_WAY: Duration = Duration::from_millis(25);

/// One closed-loop workload: a single client syncing against one daemon.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Items in the server's set.
    pub server_items: usize,
    /// Symmetric difference of every sync, half on each side.
    pub difference: usize,
    /// Distinct client sets the syncs cycle through. Symbols, bytes and
    /// rounds per difference depend on which items differ, so a run's value
    /// is a mean or a median over this many draws and moves little from seed
    /// to seed.
    pub variants: usize,
    /// Discarded syncs before the timed phase (at [`REFERENCE_SECONDS`]).
    pub warmup: usize,
    /// Timed syncs (at [`REFERENCE_SECONDS`]).
    pub timed: usize,
    /// Fresh daemons spawned for `setup_s`; the last one serves the run.
    pub setup_daemons: usize,
    /// Route the client through the delay relay.
    pub relay: bool,
    /// Apply a mutation burst to the server before every sync.
    pub churn: bool,
    /// Also report the ungated `udp.*` numbers over these sets when traced.
    pub udp: bool,
}

/// Every set is 20,000 items (640 KB) so that one sync's working set stays
/// inside a core's private cache: on the shared reference host, memory
/// beyond it slowed identical work by 20–80 % for minutes at a time (see the
/// README's noise section), and no run length averages that out.
///
/// Counts are sized to about [`REFERENCE_SECONDS`] of timed work each
/// (≈10 ms, ≈5 ms, ≈0.76 s and ≈11 ms per loop iteration) and are multiples
/// of `variants`, so every client set is synced equally often. The warm-ups
/// (a tenth) let the process's heap stop growing.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bulk_catchup",
        server_items: 20_000,
        difference: 2_000,
        variants: 16,
        warmup: 160,
        timed: 1_600,
        setup_daemons: 40,
        relay: false,
        churn: false,
        udp: true,
    },
    Workload {
        name: "stale_tip",
        server_items: 20_000,
        difference: 100,
        variants: 128,
        warmup: 320,
        timed: 3_200,
        setup_daemons: 40,
        relay: false,
        churn: false,
        udp: false,
    },
    Workload {
        name: "wan_rtt",
        server_items: 20_000,
        difference: 2_000,
        variants: 8,
        warmup: 2,
        timed: 24,
        setup_daemons: 40,
        relay: true,
        churn: false,
        udp: false,
    },
    Workload {
        name: "write_churn",
        server_items: 20_000,
        difference: 2_000,
        variants: 16,
        warmup: 144,
        timed: 1_440,
        setup_daemons: 40,
        relay: false,
        churn: true,
        udp: false,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Sync counts of one run, scaled from the table by `--seconds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Discarded warm-up syncs.
    pub warmup: usize,
    /// Timed syncs.
    pub timed: usize,
}

impl Workload {
    /// Fixed work for a run of `seconds`: the table's counts scaled
    /// linearly, never below one sync. The same `seconds` always gives the
    /// same counts, so counted metrics repeat exactly.
    pub fn counts(&self, seconds: u64) -> Counts {
        let scale = |n: usize| (n as u64 * seconds).div_ceil(REFERENCE_SECONDS).max(1) as usize;
        Counts {
            warmup: scale(self.warmup),
            timed: scale(self.timed),
        }
    }
}

/// What a sync must recover, as counts plus order-independent digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    remote_len: usize,
    remote_digest: u64,
    local_len: usize,
    local_digest: u64,
}

impl Expected {
    /// The expectation "exactly `remote_parts` concatenated are server-only
    /// and exactly `local` is client-only".
    pub fn new(remote_parts: &[&[Item32]], local: &[Item32], key: SipKey) -> Expected {
        Expected {
            remote_len: remote_parts.iter().map(|p| p.len()).sum(),
            remote_digest: set_digest(remote_parts.iter().flat_map(|p| p.iter()), key),
            local_len: local.len(),
            local_digest: set_digest(local, key),
        }
    }

    /// Differences a correct sync recovers.
    pub fn len(&self) -> usize {
        self.remote_len + self.local_len
    }

    /// True if the per-shard differences are exactly the expected sets.
    pub fn matches(&self, diffs: &[SetDifference<Item32>], key: SipKey) -> bool {
        let remote_len: usize = diffs.iter().map(|d| d.remote_only.len()).sum();
        let local_len: usize = diffs.iter().map(|d| d.local_only.len()).sum();
        remote_len == self.remote_len
            && local_len == self.local_len
            && set_digest(diffs.iter().flat_map(|d| d.remote_only.iter()), key)
                == self.remote_digest
            && set_digest(diffs.iter().flat_map(|d| d.local_only.iter()), key) == self.local_digest
    }
}

/// The seeded inputs of one run: the server's set, the client's set in its
/// current variant, and the `write_churn` key pool.
///
/// Variant `k` of the client set is the server set with its `k`-th block of
/// `difference / 2` items replaced by the `k`-th block of fresh items, so a
/// sync must recover exactly those two blocks. Switching variants rewrites
/// only the two affected blocks in place.
pub struct Inputs {
    /// The server's initial set.
    pub server: Vec<Item32>,
    /// The client's set (holds the variant last passed to [`Self::select`]).
    pub client: Vec<Item32>,
    /// `burst × CHURN_BURST` keys never in either set (empty without churn).
    pub pool: Vec<Item32>,
    fresh: Vec<Item32>,
    half: usize,
    variants: usize,
    current: usize,
}

impl Inputs {
    /// Generates everything from `seed` in one `items32` draw, so all items
    /// are distinct. `bursts` sizes the churn pool.
    pub fn generate(w: &Workload, seed: u64, bursts: usize) -> Inputs {
        let half = w.difference / 2;
        assert!(
            w.difference.is_multiple_of(2) && w.variants * half <= w.server_items,
            "variant blocks must tile the server set"
        );
        let pool_len = if w.churn { bursts * CHURN_BURST } else { 0 };
        let fresh_len = w.variants * half;
        let mut server = items32((w.server_items + fresh_len + pool_len) as u64, seed);
        let pool = server.split_off(w.server_items + fresh_len);
        let fresh = server.split_off(w.server_items);
        let mut client = server.clone();
        client[..half].copy_from_slice(&fresh[..half]);
        Inputs {
            server,
            client,
            pool,
            fresh,
            half,
            variants: w.variants,
            current: 0,
        }
    }

    fn block(&self, variant: usize) -> std::ops::Range<usize> {
        variant * self.half..(variant + 1) * self.half
    }

    /// Rewrites the client set in place to hold variant `index % variants`.
    pub fn select(&mut self, index: usize) {
        let next = index % self.variants;
        let (old, new) = (self.block(self.current), self.block(next));
        self.client[old.clone()].copy_from_slice(&self.server[old]);
        self.client[new.clone()].copy_from_slice(&self.fresh[new]);
        self.current = next;
    }

    /// The variant the client set holds now.
    pub fn variant(&self) -> usize {
        self.current
    }

    /// Items only the server holds under the current variant (before churn).
    pub fn remote_only(&self) -> &[Item32] {
        &self.server[self.block(self.current)]
    }

    /// Items only the client holds under the current variant.
    pub fn local_only(&self) -> &[Item32] {
        &self.fresh[self.block(self.current)]
    }

    /// Keys of churn burst `burst`.
    pub fn burst(&self, burst: usize) -> &[Item32] {
        &self.pool[burst * CHURN_BURST..(burst + 1) * CHURN_BURST]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const SMALL: Workload = Workload {
        name: "small",
        server_items: 2_000,
        difference: 100,
        variants: 4,
        warmup: 1,
        timed: 3,
        setup_daemons: 1,
        relay: false,
        churn: true,
        udp: false,
    };

    #[test]
    fn counts_scale_with_seconds_and_never_reach_zero() {
        let w = &WORKLOADS[0];
        assert_eq!(
            w.counts(REFERENCE_SECONDS),
            Counts {
                warmup: w.warmup,
                timed: w.timed
            }
        );
        assert_eq!(w.counts(5).timed, w.timed / 4);
        let tiny = WORKLOADS[2].counts(1);
        assert!(tiny.warmup >= 1 && tiny.timed >= 1);
    }

    #[test]
    fn every_variant_differs_from_the_server_by_exactly_its_blocks() {
        let mut inputs = Inputs::generate(&SMALL, 7, 2);
        let server: HashSet<Item32> = inputs.server.iter().copied().collect();
        assert_eq!(inputs.pool.len(), 2 * CHURN_BURST);
        // Visit variants out of order, and wrap around.
        for index in [0usize, 3, 1, 2, 4, 7] {
            inputs.select(index);
            let client: HashSet<Item32> = inputs.client.iter().copied().collect();
            assert_eq!(client.len(), SMALL.server_items);
            let remote: HashSet<Item32> = server.difference(&client).copied().collect();
            let local: HashSet<Item32> = client.difference(&server).copied().collect();
            assert_eq!(remote, inputs.remote_only().iter().copied().collect());
            assert_eq!(local, inputs.local_only().iter().copied().collect());
            assert_eq!(remote.len() + local.len(), SMALL.difference);
            assert!(inputs
                .pool
                .iter()
                .all(|k| !server.contains(k) && !client.contains(k)));
        }
    }

    #[test]
    fn same_seed_same_sets_other_seed_other_sets() {
        let a = Inputs::generate(&SMALL, 11, 1);
        let b = Inputs::generate(&SMALL, 11, 1);
        let c = Inputs::generate(&SMALL, 12, 1);
        assert_eq!(a.server, b.server);
        assert_eq!(a.client, b.client);
        assert_eq!(a.pool, b.pool);
        assert_ne!(a.server, c.server);
    }

    #[test]
    fn expected_accepts_the_exact_difference_only() {
        let key = SipKey::default();
        let inputs = Inputs::generate(&SMALL, 3, 1);
        let want = Expected::new(
            &[inputs.remote_only(), inputs.burst(0)],
            inputs.local_only(),
            key,
        );
        assert_eq!(want.len(), SMALL.difference + CHURN_BURST);
        let mut remote = inputs.remote_only().to_vec();
        remote.extend_from_slice(inputs.burst(0));
        // Split across two shards, in another order.
        remote.reverse();
        let (r0, r1) = remote.split_at(17);
        let mut diffs = vec![
            SetDifference {
                remote_only: r0.to_vec(),
                local_only: inputs.local_only().to_vec(),
            },
            SetDifference {
                remote_only: r1.to_vec(),
                local_only: Vec::new(),
            },
        ];
        assert!(want.matches(&diffs, key));
        // Right count, one wrong item.
        diffs[1].remote_only[0] = inputs.server[SMALL.server_items - 1];
        assert!(!want.matches(&diffs, key));
        // One item missing.
        diffs[1].remote_only.remove(0);
        assert!(!want.matches(&diffs, key));
    }
}
