//! Irregular Rateless IBLT (paper §8).
//!
//! The regular design maps *every* source symbol with the same probability
//! function ρ(i) = 1/(1 + 0.5·i). The irregular variant partitions source
//! symbols into `c` classes by hash; class `j` gets its own parameter α_j
//! and a weight w_j (the probability a random symbol lands in it). With the
//! configuration found by the paper's search (c = 3, w = 0.18/0.56/0.26,
//! α = 0.11/0.68/0.82) the asymptotic communication overhead drops from
//! 1.35 to ≈1.10, at the cost of ≈1.9× slower encoding/decoding (the
//! non-0.5 α values need `powf` instead of a square root).
//!
//! The API *is* the regular one: [`IrregularClasses`] is a
//! [`MappingRule`], and [`IrregularSketch`], [`IrregularEncoder`] and
//! [`IrregularDecoder`] are [`Sketch`], [`Encoder`] and [`Decoder`] under it.

use riblt_hash::{splitmix64, SipKey};

use crate::coded::CodedSymbol;
use crate::decoder::Decoder;
use crate::encoder::Encoder;
use crate::mapping::MappingRule;
use crate::sketch::Sketch;
use crate::symbol::Symbol;

/// Partition of source symbols into classes with per-class mapping
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct IrregularClasses {
    weights: Vec<f64>,
    alphas: Vec<f64>,
    /// Cumulative weights scaled to the u64 range, used for hash-based class
    /// selection.
    thresholds: Vec<u64>,
}

impl IrregularClasses {
    /// Creates a class configuration. `weights` must sum to ≈1 and match
    /// `alphas` in length; every α must be positive.
    pub fn new(weights: &[f64], alphas: &[f64]) -> Self {
        assert_eq!(
            weights.len(),
            alphas.len(),
            "weights/alphas length mismatch"
        );
        assert!(!weights.is_empty(), "at least one class is required");
        let total: f64 = weights.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "class weights must sum to 1 (got {total})"
        );
        assert!(alphas.iter().all(|&a| a > 0.0), "alphas must be positive");
        let mut thresholds = Vec::with_capacity(weights.len());
        let mut acc = 0.0f64;
        for &w in weights {
            acc += w;
            let t = (acc.min(1.0) * u64::MAX as f64) as u64;
            thresholds.push(t);
        }
        // Guard against floating-point shortfall on the last boundary.
        *thresholds.last_mut().unwrap() = u64::MAX;
        IrregularClasses {
            weights: weights.to_vec(),
            alphas: alphas.to_vec(),
            thresholds,
        }
    }

    /// The configuration found by the paper's brute-force search (§8):
    /// overhead → 1.10 as d → ∞.
    pub fn paper_optimal() -> Self {
        Self::new(&[0.18, 0.56, 0.26], &[0.11, 0.68, 0.82])
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.alphas.len()
    }

    /// Class weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Per-class mapping parameters.
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// The class a symbol with checksum hash `hash` belongs to.
    ///
    /// Class membership is derived from an *independent* mix of the hash so
    /// that it does not correlate with the index-mapping PRNG, which is
    /// seeded with the hash itself.
    pub fn class_of(&self, hash: u64) -> usize {
        let selector = splitmix64(hash ^ 0x1bd1_1bda_a9fc_1a22);
        self.thresholds
            .iter()
            .position(|&t| selector <= t)
            .unwrap_or(self.thresholds.len() - 1)
    }
}

impl Default for IrregularClasses {
    fn default() -> Self {
        Self::paper_optimal()
    }
}

impl MappingRule for IrregularClasses {
    /// The α of the class `hash` falls in.
    fn alpha_of(&self, hash: u64) -> f64 {
        self.alphas[self.class_of(hash)]
    }

    fn uniform_alpha(&self) -> Option<f64> {
        None
    }
}

/// Fixed-size sketch using per-class mapping parameters.
pub type IrregularSketch<S> = Sketch<S, IrregularClasses>;

/// Streaming encoder with per-class mapping parameters.
pub type IrregularEncoder<S> = Encoder<S, IrregularClasses>;

/// Streaming decoder with per-class mapping parameters.
pub type IrregularDecoder<S> = Decoder<S, IrregularClasses>;

impl<S: Symbol> Sketch<S, IrregularClasses> {
    /// Creates an empty sketch of `m` coded symbols with explicit classes
    /// and key.
    pub fn with_classes(m: usize, classes: IrregularClasses, key: SipKey) -> Self {
        Self::from_cells_with_rule(vec![CodedSymbol::default(); m], key, classes)
    }
}

impl<S: Symbol> Encoder<S, IrregularClasses> {
    /// Creates an encoder with explicit classes and checksum key.
    pub fn with_classes(classes: IrregularClasses, key: SipKey) -> Self {
        Self::with_rule(classes, key)
    }
}

impl<S: Symbol> Decoder<S, IrregularClasses> {
    /// Creates a decoder with explicit classes and checksum key (must match
    /// the encoder's).
    pub fn with_classes(classes: IrregularClasses, key: SipKey) -> Self {
        Self::with_rule(classes, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::symbol::FixedBytes;
    use std::collections::BTreeSet;

    type Sym = FixedBytes<8>;

    #[test]
    fn class_selection_matches_weights() {
        let classes = IrregularClasses::paper_optimal();
        let trials = 100_000u64;
        let mut counts = vec![0usize; classes.num_classes()];
        for i in 0..trials {
            counts[classes.class_of(splitmix64(i))] += 1;
        }
        for (j, &w) in classes.weights().iter().enumerate() {
            let observed = counts[j] as f64 / trials as f64;
            assert!(
                (observed - w).abs() < 0.01,
                "class {j}: observed {observed:.3}, expected {w:.3}"
            );
        }
    }

    #[test]
    fn class_of_is_deterministic() {
        let classes = IrregularClasses::paper_optimal();
        for h in [0u64, 1, u64::MAX, 0xdeadbeef] {
            assert_eq!(classes.class_of(h), classes.class_of(h));
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn weights_must_sum_to_one() {
        IrregularClasses::new(&[0.5, 0.2], &[0.5, 0.5]);
    }

    #[test]
    fn irregular_sketch_reconciles() {
        let alice: Vec<Sym> = (0..2_000u64).map(Sym::from_u64).collect();
        let bob: Vec<Sym> = (50..2_050u64).map(Sym::from_u64).collect();
        let m = 400;
        let mut sa = IrregularSketch::new(m);
        let mut sb = IrregularSketch::new(m);
        for s in &alice {
            sa.add_symbol(s);
        }
        for s in &bob {
            sb.add_symbol(s);
        }
        let diff = sa.subtracted(&sb).unwrap().decode().unwrap();
        let remote: BTreeSet<u64> = diff.remote_only.iter().map(|s| s.to_u64()).collect();
        let local: BTreeSet<u64> = diff.local_only.iter().map(|s| s.to_u64()).collect();
        assert_eq!(remote, (0..50).collect());
        assert_eq!(local, (2000..2050).collect());
    }

    #[test]
    fn irregular_streaming_roundtrip() {
        let mut enc = IrregularEncoder::<Sym>::new();
        for i in 0..1_000u64 {
            enc.add_symbol(Sym::from_u64(i)).unwrap();
        }
        let mut dec = IrregularDecoder::<Sym>::new();
        for i in 20..1_020u64 {
            dec.add_symbol(Sym::from_u64(i)).unwrap();
        }
        let mut used = 0;
        while !dec.is_decoded() {
            dec.add_coded_symbol(enc.produce_next_coded_symbol());
            used += 1;
            assert!(used < 5_000, "failed to converge");
        }
        let diff = dec.into_difference();
        assert_eq!(diff.remote_only.len(), 20);
        assert_eq!(diff.local_only.len(), 20);
    }

    #[test]
    fn undersized_irregular_sketch_fails_gracefully() {
        let mut s = IrregularSketch::<Sym>::new(10);
        for i in 0..200u64 {
            s.add_symbol(&Sym::from_u64(i));
        }
        assert_eq!(s.decode().unwrap_err(), Error::DecodeIncomplete);
    }

    #[test]
    fn add_after_decoding_started_is_rejected() {
        let mut dec = IrregularDecoder::<Sym>::new();
        dec.add_coded_symbol(CodedSymbol::default());
        assert!(dec.add_symbol(Sym::from_u64(1)).is_err());
    }
}
