//! Shared helpers for the experiment binaries and Criterion benches that
//! regenerate the paper's tables and figures.
//!
//! Every binary in `src/bin/` prints a self-describing CSV table whose
//! columns mirror one figure of the paper; EXPERIMENTS.md records the
//! outputs next to the paper's numbers. All binaries share the same command
//! line ([`BenchCli`]): `--full` for the paper-scale sweep (default is a
//! quicker laptop-scale sweep), `--seed` to re-randomize trials, `--out` to
//! write the CSV to a file.

#![forbid(unsafe_code)]

use riblt::FixedBytes;
use riblt_hash::{splitmix64, SplitMix64};

mod cli;
pub mod json;
pub mod snapshot;

pub use cli::{BenchCli, CsvSink};

/// 32-byte items (SHA-256-sized keys) used by the communication experiments.
pub type Item32 = FixedBytes<32>;
/// 8-byte items used by the computation experiments.
pub type Item8 = FixedBytes<8>;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Fast run with reduced trials / ranges (default).
    Quick,
    /// Paper-scale run (pass `--full`).
    Full,
}

impl RunScale {
    /// Parses the scale from the process arguments (`--full` selects
    /// [`RunScale::Full`]).
    pub fn from_args() -> RunScale {
        if std::env::args().any(|a| a == "--full") {
            RunScale::Full
        } else {
            RunScale::Quick
        }
    }

    /// Picks between the quick and full value.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            RunScale::Quick => quick,
            RunScale::Full => full,
        }
    }
}

/// Deterministically generates `n` distinct 32-byte items.
pub fn items32(n: u64, seed: u64) -> Vec<Item32> {
    let mut gen = SplitMix64::new(splitmix64(seed) | 1);
    (0..n)
        .map(|_| {
            let mut bytes = [0u8; 32];
            gen.fill_bytes(&mut bytes);
            FixedBytes(bytes)
        })
        .collect()
}

/// Deterministically generates `n` distinct non-zero 8-byte items.
pub fn items8(n: u64, seed: u64) -> Vec<Item8> {
    let mut gen = SplitMix64::new(splitmix64(seed) | 1);
    let mut out = Vec::with_capacity(n as usize);
    let mut seen = std::collections::HashSet::with_capacity(n as usize);
    while out.len() < n as usize {
        let v = gen.next_u64() | 1;
        if seen.insert(v) {
            out.push(Item8::from_u64(v));
        }
    }
    out
}

/// Two sets whose symmetric difference has a known size.
pub struct SetPair<T> {
    /// Alice's set.
    pub alice: Vec<T>,
    /// Bob's set.
    pub bob: Vec<T>,
    /// Size of the symmetric difference.
    pub difference: usize,
}

fn split_universe<T: Clone>(universe: &[T], shared: u64, a_only: u64) -> (Vec<T>, Vec<T>) {
    let shared_items = &universe[..shared as usize];
    let a_excl = &universe[shared as usize..(shared + a_only) as usize];
    let b_excl = &universe[(shared + a_only) as usize..];
    let mut alice = shared_items.to_vec();
    alice.extend_from_slice(a_excl);
    let mut bob = shared_items.to_vec();
    bob.extend_from_slice(b_excl);
    (alice, bob)
}

/// Builds a pair of `n`-item 32-byte sets with symmetric difference `d`
/// (split as evenly as possible between the two sides).
pub fn set_pair32(n: u64, d: u64, seed: u64) -> SetPair<Item32> {
    assert!(d <= 2 * n, "difference larger than the two sets combined");
    let a_only = d / 2 + d % 2;
    let b_only = d / 2;
    let shared = n - a_only.min(n);
    let universe = items32(shared + a_only + b_only, seed);
    let (alice, bob) = split_universe(&universe, shared, a_only);
    SetPair {
        alice,
        bob,
        difference: (a_only + b_only) as usize,
    }
}

/// Builds a pair of `n`-item 8-byte sets with symmetric difference `d`.
pub fn set_pair8(n: u64, d: u64, seed: u64) -> SetPair<Item8> {
    assert!(d <= 2 * n, "difference larger than the two sets combined");
    let a_only = d / 2 + d % 2;
    let b_only = d / 2;
    let shared = n - a_only.min(n);
    let universe = items8(shared + a_only + b_only, seed);
    let (alice, bob) = split_universe(&universe, shared, a_only);
    SetPair {
        alice,
        bob,
        difference: (a_only + b_only) as usize,
    }
}

/// Measures the wall-clock seconds taken by `f`, returning `(result, secs)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_pairs_have_the_requested_difference() {
        for (n, d) in [(1_000u64, 10u64), (500, 1), (100, 200)] {
            let pair = set_pair32(n, d, 9);
            assert_eq!(pair.difference, d as usize);
            let a: std::collections::HashSet<_> = pair.alice.iter().collect();
            let b: std::collections::HashSet<_> = pair.bob.iter().collect();
            let sym = a.symmetric_difference(&b).count();
            assert_eq!(sym, d as usize);
        }
        let pair = set_pair8(2_000, 33, 4);
        assert_eq!(pair.difference, 33);
    }

    #[test]
    fn items_are_distinct() {
        let items = items32(5_000, 3);
        let unique: std::collections::HashSet<_> = items.iter().collect();
        assert_eq!(unique.len(), 5_000);
        let items = items8(5_000, 3);
        let unique: std::collections::HashSet<_> = items.iter().collect();
        assert_eq!(unique.len(), 5_000);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(RunScale::Quick.pick(1, 2), 1);
        assert_eq!(RunScale::Full.pick(1, 2), 2);
    }

    #[test]
    fn timed_returns_result_and_duration() {
        let (value, secs) = timed(|| 6 * 7);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }
}
