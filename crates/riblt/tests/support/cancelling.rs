//! A difference crafted to cancel in cell 0 under a known key.
//!
//! Cell 0 of a difference is the XOR of its items and of their keyed hashes,
//! with the signed count of its two sides. So each candidate item is a
//! 321-bit row over GF(2) (256 item bits, 64 hash bits, a parity bit), and
//! elimination over 400 candidates finds an even subset whose rows XOR to
//! zero. Split in halves, one per side, it empties cell 0 from the start.

use riblt::{FixedBytes, Symbol};
use riblt_hash::{splitmix64, SipKey};

pub type Item = FixedBytes<32>;

/// More than the 321 a full-rank set needs, so a dependency always exists.
const CANDIDATES: usize = 400;
/// A row: item, hash and parity words, then the candidates it combines.
const WORDS: usize = 6 + CANDIDATES.div_ceil(64);

/// Item `i`: four pseudo-random words, distinct for distinct `i` below
/// 2^56 (the first word is a bijection of `i`).
pub fn item(i: u64) -> Item {
    let mut bytes = [0u8; 32];
    for (k, chunk) in bytes.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&splitmix64(i ^ (k as u64) << 56).to_le_bytes());
    }
    Item::from(bytes)
}

/// Two disjoint halves of equal size, drawn from items `2^48..`: put one
/// half on each side of a sync and cell 0 of their difference cancels under
/// `key`.
pub fn cancelling_halves(key: SipKey) -> (Vec<Item>, Vec<Item>) {
    let bit = |row: &[u64; WORDS], b: usize| row[b / 64] >> (b % 64) & 1 == 1;
    let candidates: Vec<Item> = (0..CANDIDATES as u64)
        .map(|i| item((1 << 48) + i))
        .collect();
    let mut basis: Vec<([u64; WORDS], usize)> = Vec::new();
    for (i, candidate) in candidates.iter().enumerate() {
        let mut row = [0u64; WORDS];
        for (word, chunk) in row.iter_mut().zip(candidate.0.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        row[4] = candidate.hash_with(key);
        row[5] = 1;
        row[6 + i / 64] |= 1 << (i % 64);
        // Each basis row clears its pivot bit in every row reduced after it.
        for (pivot_row, pivot) in &basis {
            if bit(&row, *pivot) {
                row.iter_mut().zip(pivot_row).for_each(|(w, p)| *w ^= p);
            }
        }
        match (0..6 * 64).find(|&b| bit(&row, b)) {
            Some(pivot) => basis.push((row, pivot)),
            None => {
                let subset: Vec<Item> = (0..CANDIDATES)
                    .filter(|&c| bit(&row, 6 * 64 + c))
                    .map(|c| candidates[c])
                    .collect();
                let (server, client) = subset.split_at(subset.len() / 2);
                return (server.to_vec(), client.to_vec());
            }
        }
    }
    unreachable!("{CANDIDATES} rows of 321 bits are linearly dependent")
}
