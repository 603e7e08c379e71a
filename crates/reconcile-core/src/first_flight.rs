//! The first flight: how much of every shard's stream a server sends in
//! answer to a wildcard open, before the client has decoded anything.
//!
//! A client that opens every shard at once ([`crate::SHARD_ALL`]) appends a
//! [`CountSketch`] of its set to the open: how many of its items' keyed
//! hashes fall in each of [`BUCKETS`] buckets. The server keeps the same
//! counts for its own set (`cluster::Node` moves one per mutation). Items
//! both sides hold cancel in every bucket, so the bucket-wise difference
//! `x_b` of the two sketches counts the symmetric difference alone — `+1`
//! for an item only the client holds, `−1` for one only the server holds —
//! and its spread estimates the difference's size:
//!
//! ```text
//! d̂ = (Σ_b x_b² − (Σ_b x_b)² / B) / (1 − 1/B)
//! ```
//!
//! unbiased however `d` splits between the two sides, with a standard
//! deviation of `√(2d²/B + d)`: ±9 % at d = 2,000, the spread the decoders'
//! pooled estimate has after one 32-symbol tile per shard of 8, except that
//! this one exists before the first flight (PBS runs the same Tug-of-War
//! estimate before its first round).
//!
//! [`FirstFlight::for_sketch`] sizes every shard's first flight from it with
//! the window's own rule, [`first_flight_until`] at `d̂/S`: the first rung
//! (`1.35·d̂`, which finishes the median shard) plus `2·√d̂`, sized to
//! finish the slowest of eight, since a sync waits for its slowest shard.
//! It is bounded by what one range request may name
//! ([`RangeRequest::largest_count`]) and by the server's per-stream unit
//! budget, so a sketch buys nothing one `Request` per shard could not
//! already ask for. The server says what it granted in one frame ahead of
//! the payloads: a [`RangeRequest`] addressed to [`crate::SHARD_ALL`],
//! `[tile, symbols)`, the range it serves every shard beyond the first tile
//! an open always earns. The client is built from that range, booked as
//! requested ([`crate::ClientMux::new`]), and its window continues from the
//! second rung. A wrong estimate costs a round or some tail symbols,
//! never correctness: the stream is rateless.
//!
//! An open without a sketch is estimate 0, which [`first_flight_until`]
//! answers with one tile, and is sent no grant: protocol version 3's
//! answer, byte for byte.
//!
//! The sketch on the wire, after the stream open's magic and item length:
//!
//! ```text
//! VLQ(B) · VLQ(n) · B × VLQ(zigzag(c_b − ⌊n/B⌋))
//! ```
//!
//! `n ≤ u32::MAX` items in all and `c_b` in bucket `b`: 261 bytes for a set
//! of 20,000 items, whose counts sit within a byte's zig-zag range of their
//! mean.

use riblt::wire::{read_vlq, write_vlq, zigzag_decode, zigzag_encode};

use crate::engine::RangeRequest;
use crate::error::{EngineError, Result};
use crate::window::first_flight_until;

/// Buckets of a [`CountSketch`]: a protocol constant, not a setting.
pub const BUCKETS: usize = 1 << BUCKET_BITS;

const BUCKET_BITS: u32 = 8;

/// The bucket of the item whose keyed hash is `hash`: its top byte. The
/// shard (`splitmix64(hash) % S`) and the index mapping (a generator seeded
/// with `hash`) each mix all 64 bits, so the bucket tells nothing about
/// either (the χ² test below holds it to that), and a client pays one shift
/// and one increment an item for its sketch.
#[inline]
fn bucket_of(hash: u64) -> usize {
    (hash >> (64 - BUCKET_BITS)) as usize
}

/// How many items of a set fall in each bucket (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountSketch {
    counts: [u64; BUCKETS],
    len: u64,
}

impl Default for CountSketch {
    fn default() -> Self {
        CountSketch {
            counts: [0; BUCKETS],
            len: 0,
        }
    }
}

impl CountSketch {
    /// The sketch of an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sketch of the items whose keyed hashes are `hashes`.
    pub fn from_hashes(hashes: &[u64]) -> Self {
        let mut counts = [0; BUCKETS];
        for &hash in hashes {
            counts[bucket_of(hash)] += 1;
        }
        CountSketch {
            counts,
            len: hashes.len() as u64,
        }
    }

    /// Counts the item whose keyed hash is `hash`.
    #[inline]
    pub fn insert(&mut self, hash: u64) {
        self.counts[bucket_of(hash)] += 1;
        self.len += 1;
    }

    /// Uncounts an item [`Self::insert`] counted.
    #[inline]
    pub fn remove(&mut self, hash: u64) {
        self.counts[bucket_of(hash)] -= 1;
        self.len -= 1;
    }

    /// Appends the wire form (see the module docs).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let base = (self.len / BUCKETS as u64) as i64;
        write_vlq(out, BUCKETS as u64);
        write_vlq(out, self.len);
        for &count in &self.counts {
            write_vlq(out, zigzag_encode(count as i64 - base));
        }
    }

    /// Inverse of [`Self::encode`], which must have written all of `bytes`.
    /// Anything else — truncation, trailing bytes, another bucket count, a
    /// set beyond `u32::MAX` items, a bucket outside `0..=n` or buckets that
    /// do not add up to `n` — is [`EngineError::WireFormat`].
    pub(crate) fn decode(bytes: &[u8]) -> Result<CountSketch> {
        let mut pos = 0;
        if read_vlq(bytes, &mut pos)? != BUCKETS as u64 {
            return Err(EngineError::WireFormat(
                "count sketch of another bucket count",
            ));
        }
        let len = read_vlq(bytes, &mut pos)?;
        if len > u64::from(u32::MAX) {
            return Err(EngineError::WireFormat(
                "count sketch of over u32::MAX items",
            ));
        }
        let base = (len / BUCKETS as u64) as i64;
        let mut counts = [0; BUCKETS];
        for count in &mut counts {
            *count = base
                .checked_add(zigzag_decode(read_vlq(bytes, &mut pos)?))
                .filter(|count| (0..=len as i64).contains(count))
                .ok_or(EngineError::WireFormat("count sketch bucket out of range"))?
                as u64;
        }
        if pos != bytes.len() {
            return Err(EngineError::WireFormat("bytes after the count sketch"));
        }
        if counts.iter().sum::<u64>() != len {
            return Err(EngineError::WireFormat(
                "count sketch buckets disagree with its item count",
            ));
        }
        Ok(CountSketch { counts, len })
    }

    /// The estimated size of the symmetric difference between this set and
    /// `other`'s (see the module docs): never negative, exactly 0 for equal
    /// counts, and the same bits whatever both sets hold in common.
    pub fn estimate_difference(&self, other: &CountSketch) -> f64 {
        let x = || {
            let pairs = self.counts.iter().zip(&other.counts);
            pairs.map(|(&a, &b)| a as f64 - b as f64)
        };
        let buckets = BUCKETS as f64;
        let mean = x().sum::<f64>() / buckets;
        let spread: f64 = x().map(|x| (x - mean) * (x - mean)).sum();
        spread * buckets / (buckets - 1.0)
    }
}

/// What a server sends every shard in answer to a wildcard open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirstFlight {
    /// The difference the open's count sketch estimates; `None` for an open
    /// without one.
    pub estimate: Option<f64>,
    /// Symbols every shard is sent: `[0, symbols)` of its stream, whole
    /// tiles, at least one.
    pub symbols: usize,
    /// The grant frame's range, `[tile, symbols)`: what every shard is sent
    /// beyond the open's first tile. `None` for an open without a sketch,
    /// which is sent no grant.
    pub grant: Option<RangeRequest>,
}

impl FirstFlight {
    /// Sizes the first flight of each of `shards` shards for a wildcard
    /// open whose bytes after the item length are `sketch` (what
    /// [`validate_stream_open`](crate::wirefmt::validate_stream_open)
    /// returns: a count sketch, or nothing), for a server whose own set is
    /// sketched by `own`, that serves `tile`-symbol payloads and at most
    /// `unit_budget` symbols per stream. This is the one sizing rule of
    /// every server that answers wildcard opens.
    pub fn for_sketch(
        sketch: &[u8],
        own: &CountSketch,
        shards: u16,
        tile: usize,
        unit_budget: usize,
    ) -> Result<FirstFlight> {
        let estimate = match sketch.is_empty() {
            true => None,
            false => Some(CountSketch::decode(sketch)?.estimate_difference(own)),
        };
        let per_shard = estimate.unwrap_or(0.0) / f64::from(shards.max(1));
        // The window's first flight, capped at what one range request may
        // name and at the budget in whole tiles — but an open always earns one.
        let cap = RangeRequest::largest_count(tile).min(unit_budget / tile * tile);
        let symbols = first_flight_until(tile, per_shard).min(cap).max(tile);
        let grant = match estimate {
            Some(_) => Some(RangeRequest::new(tile, symbols - tile)?),
            None => None,
        };
        Ok(FirstFlight {
            estimate,
            symbols,
            grant,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::RIBLT_STREAM_MAGIC;
    use crate::wirefmt::{encode_stream_open, validate_stream_open};
    use riblt::{FixedBytes, Symbol};
    use riblt_hash::{SipKey, SplitMix64};

    type Item = FixedBytes<32>;

    fn hashes(items: &[Item]) -> Vec<u64> {
        Item::hash_many_with(items, SipKey::default())
    }

    /// `count` items no other call of the same generator draws.
    fn fresh(gen: &mut SplitMix64, count: u64) -> Vec<Item> {
        (0..count)
            .map(|_| {
                let mut bytes = [0u8; 32];
                gen.fill_bytes(&mut bytes);
                Item::from(bytes)
            })
            .collect()
    }

    /// The wire form of the sketch of `hashes`.
    fn wire(hashes: &[u64]) -> Vec<u8> {
        let mut wire = Vec::new();
        CountSketch::from_hashes(hashes).encode(&mut wire);
        wire
    }

    #[test]
    fn sketches_roundtrip_and_fit_in_a_few_hundred_bytes() {
        let mut gen = SplitMix64::new(0x5e7);
        for n in [0u64, 1, 255, 20_000] {
            let hashes = hashes(&fresh(&mut gen, n));
            let wire = wire(&hashes);
            assert_eq!(
                CountSketch::decode(&wire).unwrap(),
                CountSketch::from_hashes(&hashes)
            );
            assert!(wire.len() <= 300, "{n} items: {} bytes", wire.len());
            // Behind a stream open, it is what validating the open leaves.
            let open = [&encode_stream_open(RIBLT_STREAM_MAGIC, 32)[..], &wire].concat();
            assert_eq!(
                validate_stream_open(&open, RIBLT_STREAM_MAGIC, 32).unwrap(),
                wire
            );
        }
    }

    /// Hand-rolled property test (the style of the decoder's
    /// `pooled_difference_estimate_stays_in_its_band`).
    #[test]
    fn the_estimate_stays_in_its_band_and_common_items_cancel() {
        // The band: each bucket difference has variance λ = d/B and a fourth
        // cumulant of λ, so the spread of B of them varies by 2d²/B + d.
        // Four of those standard deviations, whichever way d leans.
        for (shape, client_share) in [("balanced", 0.5), ("one-sided", 1.0), ("90/10", 0.9)] {
            for d in [0u64, 1, 12, 250, 2_000, 16_000] {
                for seed in 1..=10u64 {
                    let mut gen = SplitMix64::new((seed * 0x51ed) ^ d);
                    let ours = (d as f64 * client_share).round() as u64;
                    let client_only = hashes(&fresh(&mut gen, ours));
                    let server_only = hashes(&fresh(&mut gen, d - ours));
                    let client = CountSketch::from_hashes(&client_only);
                    let server = CountSketch::from_hashes(&server_only);
                    let estimate = client.estimate_difference(&server);
                    let d = d as f64;
                    let band = 4.0 * (2.0 * d * d / BUCKETS as f64 + d).sqrt();
                    assert!(
                        (estimate - d).abs() <= band,
                        "{shape} d={d} seed={seed}: estimated {estimate:.1}, band ±{band:.1}"
                    );
                    if seed == 1 {
                        // 18,000 items both sides hold change no bit of it.
                        let common = hashes(&fresh(&mut gen, 18_000));
                        let with =
                            |only: &[u64]| CountSketch::from_hashes(&[only, &common[..]].concat());
                        assert_eq!(
                            with(&client_only)
                                .estimate_difference(&with(&server_only))
                                .to_bits(),
                            estimate.to_bits(),
                            "{shape} d={d}"
                        );
                    }
                }
            }
        }
        // One difference is exactly one, either way round.
        let one = CountSketch::from_hashes(&[0xfeed]);
        assert_eq!(one.estimate_difference(&CountSketch::new()), 1.0);
        assert_eq!(CountSketch::new().estimate_difference(&one), 1.0);
    }

    /// Pearson's χ² of a contingency table against independence, and its
    /// degrees of freedom.
    fn chi_squared(table: &[Vec<u64>]) -> (f64, f64) {
        let total: u64 = table.iter().flatten().sum();
        let rows: Vec<u64> = table.iter().map(|row| row.iter().sum()).collect();
        let columns: Vec<u64> = (0..table[0].len())
            .map(|c| table.iter().map(|row| row[c]).sum())
            .collect();
        let mut chi = 0.0;
        for (row, &row_total) in table.iter().zip(&rows) {
            for (&seen, &column_total) in row.iter().zip(&columns) {
                let expected = row_total as f64 * column_total as f64 / total as f64;
                chi += (seen as f64 - expected).powi(2) / expected;
            }
        }
        let dof = (rows.len() - 1) * (columns.len() - 1);
        (chi, dof as f64)
    }

    #[test]
    fn the_bucket_is_independent_of_the_shard_and_of_the_mapping() {
        // 8 shards × 256 buckets at 50 items a cell, and the same buckets
        // against the first cell the item's mapping draws past cell 0 (1, 2,
        // 3 or further: about 64, 18, 7 and 11 % of items).
        let items = hashes(&fresh(&mut SplitMix64::new(0xc41), 8 * BUCKETS as u64 * 50));
        let partitioner = crate::ShardPartitioner::new(SipKey::default(), 8);
        let mut by_shard = vec![vec![0u64; BUCKETS]; 8];
        let mut by_mapping = vec![vec![0u64; BUCKETS]; 4];
        for &hash in &items {
            let bucket = bucket_of(hash);
            by_shard[usize::from(partitioner.shard_of_hash(hash))][bucket] += 1;
            let second = riblt::IndexMapping::new(hash).advance();
            by_mapping[second.min(4) as usize - 1][bucket] += 1;
        }
        for (what, table) in [("shard", by_shard), ("mapping", by_mapping)] {
            let (chi, dof) = chi_squared(&table);
            // Five standard deviations of a χ² with `dof` degrees.
            assert!(
                chi < dof + 5.0 * (2.0 * dof).sqrt(),
                "bucket against {what}: χ² {chi:.0} on {dof} degrees"
            );
        }
    }

    #[test]
    fn the_first_flight_is_the_windows_first_rung_of_the_estimate() {
        let mut gen = SplitMix64::new(0xf1);
        let common = hashes(&fresh(&mut gen, 5_000));
        let own = CountSketch::from_hashes(&common);
        let flight = |sketch: &[u8], shards, budget| {
            FirstFlight::for_sketch(sketch, &own, shards, 32, budget)
        };

        // No sketch: one tile, no grant.
        let plain = flight(&[], 8, 1 << 20).unwrap();
        assert_eq!(
            (plain.estimate, plain.symbols, plain.grant),
            (None, 32, None)
        );

        // 2,000 differences over 8 shards: first_flight_until(32, d̂/8) —
        // about 1.35 × 250 + 2·√250 = 337.5 + 31.6 = 369.1 → 12 tiles, one
        // more than the first rung's 11 — and ±9 % on d̂ moves it by a tile.
        let client = [&common[..], &hashes(&fresh(&mut gen, 2_000))].concat();
        let sized = flight(&wire(&client), 8, 1 << 20).unwrap();
        let estimate = sized.estimate.unwrap();
        assert_eq!(sized.symbols, first_flight_until(32, estimate / 8.0));
        assert!((352..=416).contains(&sized.symbols), "{}", sized.symbols);
        let grant = sized.grant.unwrap();
        assert_eq!(
            (grant.offset, usize::from(grant.count)),
            (32, sized.symbols - 32)
        );

        // Identical sets: one tile, and a grant that says so.
        let same = flight(&wire(&common), 8, 1 << 20).unwrap();
        assert_eq!(same.estimate, Some(0.0));
        assert_eq!(
            same.grant,
            Some(RangeRequest {
                offset: 32,
                count: 0
            })
        );

        // Caps: what one request may name, and the unit budget in whole
        // tiles — but never less than the one tile an open always earns.
        let huge = [&common[..], &hashes(&fresh(&mut gen, 60_000))].concat();
        let sketch = wire(&huge);
        assert_eq!(
            flight(&sketch, 1, 1 << 20).unwrap().symbols,
            RangeRequest::MAX_COUNT
        );
        assert_eq!(flight(&sketch, 1, 1_000).unwrap().symbols, 992);
        assert_eq!(flight(&sketch, 1, 10).unwrap().symbols, 32);
    }

    #[test]
    fn hostile_sketches_are_typed_errors() {
        let good = wire(&[1, 2, 3]);
        let own = CountSketch::new();
        let refused = |sketch: &[u8]| FirstFlight::for_sketch(sketch, &own, 8, 32, 1 << 20);
        assert!(refused(&good).is_ok());
        for cut in 1..good.len() {
            assert!(matches!(
                refused(&good[..cut]),
                Err(EngineError::WireFormat(_))
            ));
        }
        let mut trailing = good.clone();
        trailing.push(0);
        // VLQ(256) is [0x80, 0x02]; [0x80, 0x01] declares 128 buckets.
        let mut other_buckets = good.clone();
        other_buckets[1] = 0x01;
        // Ten bytes whose last carries bit 64.
        let mut beyond_u64 = vec![0xff; 9];
        beyond_u64.push(0x02);
        let with_len = |len: u64| {
            let mut wire = Vec::new();
            write_vlq(&mut wire, BUCKETS as u64);
            write_vlq(&mut wire, len);
            for _ in 0..BUCKETS {
                write_vlq(&mut wire, 0);
            }
            wire
        };
        for (what, sketch) in [
            ("trailing bytes", trailing),
            ("another bucket count", other_buckets),
            ("a varint past u64", beyond_u64),
            ("n beyond u32", with_len(1 << 32)),
            ("buckets that disagree with n", with_len(BUCKETS as u64 + 1)),
        ] {
            assert!(
                matches!(refused(&sketch), Err(EngineError::WireFormat(_))),
                "{what}"
            );
        }
    }
}
