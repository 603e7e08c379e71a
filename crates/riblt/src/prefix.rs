//! A set's contribution to the first `m` coded symbols, item by item.
//!
//! The coding window ([`crate::Encoder`], a decoder's local set) walks cell
//! by cell: each index takes the symbols parked on it out of a calendar
//! queue, applies them and parks each again at its next index, so every
//! step chases a bucket chain and then waits on one symbol's
//! square-root-and-divide chain. When the length of the prefix is known
//! before the walk — a client holding the first `m` cells of a stream — the
//! same cells come out of walking items instead: each member of the set is
//! applied to every index it maps to below `m`, eight members in flight so
//! that eight independent draw chains overlap, and a lane takes the next
//! member as soon as its item's next index reaches `m`. No window is
//! filled and no queue kept; each member's mapping is returned parked at
//! its first index at or past `m`, where a window that must go on from `m`
//! takes it up ([`crate::Decoder::adopt_local_set`]).
//!
//! Two forms compute the same cells and mappings bit for bit: scalar lanes
//! over [`IndexMapping::advance`] (every target, every α), and, at α = 0.5
//! on CPUs with `avx512f` and `avx512dq`, the lanes of AVX-512 registers,
//! which run the xorshift draw, the u64 → f64 conversion, the square root,
//! the division and the integer ceil of eight members at once with the
//! scalar form's exact operations. [`apply_prefix`] picks by CPU detection
//! alone.

use crate::coded::{CodedSymbol, Direction};
use crate::mapping::IndexMapping;
use crate::symbol::Symbol;

/// Members in flight.
const LANES: usize = 8;

/// Applies the members of a set to coded symbols `cells` = `[0, m)` in
/// `direction`, and returns each member's mapping parked at its first index
/// at or past `m`, in the order of `members`.
///
/// The set is `items[j]` for each `j` of `members` (positions into
/// `items`), `hashes[j]` being `items[j]`'s keyed hash, all of them mapped
/// with parameter `alpha`: the cells equal the first `m` an
/// [`crate::Encoder`] of those members produces (applied in `direction`),
/// and each mapping stands where repeated [`IndexMapping::advance`] would
/// first reach `m` or beyond. Runs in AVX-512 lanes where
/// [`prefix_uses_avx512`] says so, in [`apply_prefix_scalar`]'s lanes
/// otherwise.
///
/// # Panics
/// If `items` and `hashes` differ in length, a member is out of range, or
/// `alpha` is not positive.
pub fn apply_prefix<S: Symbol>(
    cells: &mut [CodedSymbol<S>],
    items: &[S],
    hashes: &[u64],
    members: &[u32],
    alpha: f64,
    direction: Direction,
) -> Vec<IndexMapping> {
    #[cfg(target_arch = "x86_64")]
    if !cells.is_empty() && prefix_uses_avx512(alpha) {
        assert_eq!(items.len(), hashes.len(), "one keyed hash per item");
        // Every entry is overwritten: each member parks once.
        let mut parked = vec![IndexMapping::new(0); members.len()];
        // SAFETY: `prefix_uses_avx512` found `avx512f` and `avx512dq` with
        // `is_x86_feature_detected!`, the features the lanes are compiled
        // for.
        unsafe { wide::apply_prefix(cells, items, hashes, members, direction, &mut parked) };
        return parked;
    }
    apply_prefix_scalar(cells, items, hashes, members, alpha, direction)
}

/// [`apply_prefix`] in scalar lanes, each an [`IndexMapping`] stepped with
/// its own arithmetic (the eight lanes' draws and factors computed
/// together): the path of every CPU without AVX-512 and of every α but
/// 0.5, and the reference the AVX-512 lanes are held to.
///
/// # Panics
/// As [`apply_prefix`].
pub fn apply_prefix_scalar<S: Symbol>(
    cells: &mut [CodedSymbol<S>],
    items: &[S],
    hashes: &[u64],
    members: &[u32],
    alpha: f64,
    direction: Direction,
) -> Vec<IndexMapping> {
    assert_eq!(items.len(), hashes.len(), "one keyed hash per item");
    // Fresh mappings, each replaced by its parked one once it leaves the
    // prefix.
    let mut parked = fresh_mappings(hashes, members, alpha);
    let (m, n) = (cells.len() as u64, members.len());
    if m == 0 {
        return parked;
    }
    // Lane `l` walks member `slot[l]` with mapping `lanes[l]`; `IDLE` once
    // no member is left for it.
    const IDLE: usize = usize::MAX;
    let mut slot = [IDLE; LANES];
    let mut lanes: [IndexMapping; LANES] = std::array::from_fn(|_| IndexMapping::new(0));
    for (lane, member) in (0..n.min(LANES)).enumerate() {
        (slot[lane], lanes[lane]) = (member, parked[member].clone());
    }
    let mut next = n.min(LANES);
    let mut walking = next;
    while walking > 0 {
        for (mapping, &slot) in lanes.iter().zip(&slot) {
            if slot != IDLE {
                let at = members[slot] as usize;
                let cell = &mut cells[mapping.current_index() as usize];
                cell.apply_parts(&items[at], hashes[at], direction);
            }
        }
        IndexMapping::advance_lanes(&mut lanes);
        for (mapping, slot) in lanes.iter_mut().zip(&mut slot) {
            if *slot == IDLE || mapping.current_index() < m {
                continue;
            }
            parked[*slot] = mapping.clone();
            if next < n {
                (*slot, *mapping) = (next, parked[next].clone());
                next += 1;
            } else {
                *slot = IDLE;
                walking -= 1;
            }
        }
    }
    parked
}

/// Whether [`apply_prefix`] at `alpha` runs in AVX-512 lanes on this CPU:
/// at α = 0.5 where `avx512f` and `avx512dq` are detected.
pub fn prefix_uses_avx512(alpha: f64) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        alpha == 0.5
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = alpha;
        false
    }
}

/// Every member's mapping at index 0, in the order of `members`.
fn fresh_mappings(hashes: &[u64], members: &[u32], alpha: f64) -> Vec<IndexMapping> {
    let fresh = |&at: &u32| IndexMapping::with_alpha(hashes[at as usize], alpha);
    members.iter().map(fresh).collect()
}

/// The α = 0.5 walk in the lanes of AVX-512 registers. Compiled for
/// `avx512f` and `avx512dq` (`vpmullq`, `vcvtuqq2pd`, `vcvttpd2uqq`) and
/// entered only where the CPU has both.
///
/// A lane holds a member's index, its generator state and the jump factor
/// of the draw that state made, so a step computes its index from a factor
/// drawn a step earlier while it draws the next one: only the cheap index
/// update (a multiply and a ceil) and the xorshift carry from one step to
/// the next, and the square roots and divisions of successive steps
/// overlap. A member
/// finishes every few steps, so a lane is refilled almost every step: the
/// first draw and factor of every member are computed up front, eight at a
/// time, and a refill loads them into the finished lanes with one masked
/// expand, instead of starting that lane's chain from its seed.
#[cfg(target_arch = "x86_64")]
mod wide {
    use std::arch::x86_64::{
        __m512d, __m512i, _mm512_add_epi64, _mm512_add_pd, _mm512_castpd_si512,
        _mm512_castsi512_pd, _mm512_cmp_pd_mask, _mm512_cmplt_epu64_mask, _mm512_cvtepu64_pd,
        _mm512_cvttpd_epu64, _mm512_div_pd, _mm512_loadu_si512, _mm512_mask_add_epi64,
        _mm512_mask_cmpge_epu64_mask, _mm512_mask_expandloadu_epi64, _mm512_mask_mov_epi64,
        _mm512_max_epu64, _mm512_mul_pd, _mm512_mullo_epi64, _mm512_set1_epi64, _mm512_set1_pd,
        _mm512_setzero_si512, _mm512_slli_epi64, _mm512_sqrt_pd, _mm512_srli_epi64,
        _mm512_storeu_si512, _mm512_sub_pd, _mm512_xor_si512, _CMP_GE_OQ, _CMP_LT_OQ,
    };

    use riblt_hash::XorShift64Star;

    use super::LANES;
    use crate::coded::{CodedSymbol, Direction};
    use crate::mapping::{IndexMapping, DRAW_SCALE};
    use crate::symbol::Symbol;

    /// Eight lane values, lane 0 first.
    type Lanes = [u64; LANES];

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(values: &[u64]) -> __m512i {
        let values: &Lanes = values[..LANES].try_into().expect("eight lanes");
        // SAFETY: `values` is 64 readable bytes, the width of the load,
        // which has no alignment requirement; its feature, `avx512f`, is
        // one `prefix_uses_avx512` detected before entering this module.
        unsafe { _mm512_loadu_si512(values.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store(values: &mut [u64], register: __m512i) {
        let values: &mut Lanes = (&mut values[..LANES]).try_into().expect("eight lanes");
        // SAFETY: `values` is 64 writable bytes, the width of the store,
        // which has no alignment requirement; its feature, `avx512f`, is
        // one `prefix_uses_avx512` detected before entering this module.
        unsafe { _mm512_storeu_si512(values.as_mut_ptr().cast(), register) }
    }

    /// `values[from..]` into the lanes `lanes` selects, in lane order; the
    /// other lanes keep `keep`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn expand(keep: __m512i, lanes: u8, values: &[u64], from: usize) -> __m512i {
        let values = &values[from..from + lanes.count_ones() as usize];
        // SAFETY: the expand reads one element per selected lane, in order,
        // so `lanes.count_ones()` u64s from the start of `values`, which
        // holds exactly that many; it has no alignment requirement. Its
        // feature, `avx512f`, is one `prefix_uses_avx512` detected before
        // entering this module.
        unsafe { _mm512_mask_expandloadu_epi64(keep, lanes, values.as_ptr().cast()) }
    }

    /// One xorshift64* step of every lane's generator: the next state, and
    /// the jump factor 1/√(1 − r) − 1 of its draw, r from the draw's high
    /// 53 bits — `XorShift64Star::next_u64` and `crate::mapping`'s
    /// `sqrt_factor`, operation for operation.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn draw(state: __m512i) -> (__m512i, __m512d) {
        let mut x = state;
        x = _mm512_xor_si512(x, _mm512_slli_epi64::<13>(x));
        x = _mm512_xor_si512(x, _mm512_srli_epi64::<7>(x));
        x = _mm512_xor_si512(x, _mm512_slli_epi64::<17>(x));
        let draw = _mm512_mullo_epi64(x, _mm512_set1_epi64(XorShift64Star::MULTIPLIER as i64));
        let one = _mm512_set1_pd(1.0);
        let r = _mm512_mul_pd(
            _mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(draw)),
            _mm512_set1_pd(DRAW_SCALE),
        );
        let factor = _mm512_sub_pd(
            _mm512_div_pd(one, _mm512_sqrt_pd(_mm512_sub_pd(one, r))),
            one,
        );
        (x, factor)
    }

    /// The mapped index after `current` at α = 0.5 in every lane, given the
    /// jump factor of the next draw: `crate::mapping`'s `next_index`,
    /// operation for operation (integer ceil, at least 1, `u64::MAX / 2` at
    /// or past 2^64, saturating add).
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn next_index(current: __m512i, factor: __m512d) -> __m512i {
        let jump = _mm512_mul_pd(
            _mm512_add_pd(_mm512_cvtepu64_pd(current), _mm512_set1_pd(1.5)),
            factor,
        );
        let floor = _mm512_cvttpd_epu64(jump);
        let fraction = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_cvtepu64_pd(floor), jump);
        let ones = _mm512_set1_epi64(1);
        let ceil = _mm512_max_epu64(_mm512_mask_add_epi64(floor, fraction, floor, ones), ones);
        let huge = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(jump, _mm512_set1_pd(u64::MAX as f64));
        let ceil = _mm512_mask_mov_epi64(ceil, huge, _mm512_set1_epi64((u64::MAX / 2) as i64));
        let next = _mm512_add_epi64(current, ceil);
        let wrapped = _mm512_cmplt_epu64_mask(next, current);
        _mm512_mask_mov_epi64(next, wrapped, _mm512_set1_epi64(-1))
    }

    /// [`super::apply_prefix`] at α = 0.5, writing each member's parked
    /// mapping into `parked` (one per member).
    ///
    /// # Safety
    /// The CPU must have `avx512f` and `avx512dq`.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn apply_prefix<S: Symbol>(
        cells: &mut [CodedSymbol<S>],
        items: &[S],
        hashes: &[u64],
        members: &[u32],
        direction: Direction,
        parked: &mut [IndexMapping],
    ) {
        let (m, n) = (cells.len() as u64, members.len());
        assert_eq!(parked.len(), n, "one parked mapping per member");
        if m == 0 || n == 0 {
            return;
        }
        // Every member's first draw: its state after it and its factor,
        // padded to whole registers.
        let padded = n.div_ceil(LANES) * LANES;
        let mut first_state = vec![1u64; padded];
        let mut first_factor = vec![0u64; padded];
        for (state, &at) in first_state.iter_mut().zip(members) {
            *state = XorShift64Star::new(hashes[at as usize]).state();
        }
        for at in (0..padded).step_by(LANES) {
            let (state, factor) = draw(load(&first_state[at..]));
            store(&mut first_state[at..], state);
            store(&mut first_factor[at..], _mm512_castpd_si512(factor));
        }
        // Lane `l` walks member `slot[l]`, at index `current` with state
        // `state` and the factor `factor` of that state's draw; `walking`
        // has a bit set per busy lane.
        let mut slot = [0usize; LANES];
        let mut walking = u8::MAX >> (LANES - n.min(LANES));
        for (lane, slot) in slot.iter_mut().enumerate().take(n) {
            *slot = lane;
        }
        let mut next = n.min(LANES);
        let mut current = _mm512_setzero_si512();
        let mut state = expand(current, walking, &first_state, 0);
        let mut factor = expand(current, walking, &first_factor, 0);
        let limit = _mm512_set1_epi64(m as i64);
        let (mut at, mut states, mut indices): (Lanes, Lanes, Lanes) = Default::default();
        while walking != 0 {
            store(&mut at, current);
            let mut busy = walking;
            while busy != 0 {
                let lane = busy.trailing_zeros() as usize;
                busy &= busy - 1;
                let member = members[slot[lane]] as usize;
                cells[at[lane] as usize].apply_parts(&items[member], hashes[member], direction);
            }
            let after = next_index(current, _mm512_castsi512_pd(factor));
            let reached = _mm512_mask_cmpge_epu64_mask(walking, after, limit);
            let (drawn, drawn_factor) = draw(state);
            // Park the lanes that left the prefix (at `after`, with the state
            // whose draw took them there), and refill them in lane order
            // with the next members while there are any.
            store(&mut states, state);
            store(&mut indices, after);
            (current, state, factor) = (after, drawn, _mm512_castpd_si512(drawn_factor));
            let mut refill = 0u8;
            let mut lanes = reached;
            while lanes != 0 {
                let lane = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let prng = XorShift64Star::new(states[lane]);
                parked[slot[lane]] = IndexMapping::parked(prng, indices[lane], 0.5);
                if next < n {
                    slot[lane] = next;
                    next += 1;
                    refill |= 1 << lane;
                } else {
                    walking &= !(1 << lane);
                }
            }
            let from = next - refill.count_ones() as usize;
            current = _mm512_mask_mov_epi64(current, refill, _mm512_setzero_si512());
            state = expand(state, refill, &first_state, from);
            factor = expand(factor, refill, &first_factor, from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::mapping::DEFAULT_ALPHA;
    use crate::symbol::{FixedBytes, HashedSymbol};
    use riblt_hash::{splitmix64, SipKey};

    type Item = FixedBytes<32>;

    /// `n` items, their hashes under `key`, and — for `with_zero` — a
    /// member whose hash is 0 (which `XorShift64Star` remaps) in place of
    /// the middle one.
    fn set(n: usize, seed: u64, key: SipKey, with_zero: bool) -> (Vec<Item>, Vec<u64>) {
        let items: Vec<Item> = (0..n as u64)
            .map(|i| {
                let mut bytes = [0u8; 32];
                riblt_hash::SplitMix64::new(splitmix64(seed ^ i)).fill_bytes(&mut bytes);
                FixedBytes(bytes)
            })
            .collect();
        let mut hashes = Item::hash_many_with(&items, key);
        if with_zero && n > 0 {
            hashes[n / 2] = 0;
        }
        (items, hashes)
    }

    /// What the coding window makes of the members: an encoder's first `m`
    /// cells, and each member's mapping advanced one index at a time until
    /// it reaches `m`.
    fn by_the_window(
        items: &[Item],
        hashes: &[u64],
        members: &[u32],
        m: usize,
        alpha: f64,
    ) -> (Vec<CodedSymbol<Item>>, Vec<Signature>) {
        let mut encoder = Encoder::<Item>::with_key_and_alpha(SipKey::default(), alpha);
        for &at in members {
            let at = at as usize;
            let hashed = HashedSymbol::with_hash(items[at], hashes[at]);
            encoder.add_hashed_symbol(hashed).unwrap();
        }
        let cells = encoder.produce_coded_symbols(m);
        let parked = members
            .iter()
            .map(|&at| {
                let mut mapping = IndexMapping::with_alpha(hashes[at as usize], alpha);
                while mapping.current_index() < m as u64 {
                    mapping.advance();
                }
                park_signature(mapping)
            })
            .collect();
        (cells, parked)
    }

    /// Where a mapping stands and the next indices it would give.
    type Signature = (u64, Vec<u64>);

    /// A mapping's [`Signature`]: two mappings with equal ones stand at the
    /// same index with the same next four ahead of them.
    fn park_signature(mut mapping: IndexMapping) -> Signature {
        let at = mapping.current_index();
        (at, (0..4).map(|_| mapping.advance()).collect())
    }

    #[test]
    fn both_lane_forms_equal_the_window_cell_for_cell_and_park_where_it_would() {
        let lanes = if prefix_uses_avx512(DEFAULT_ALPHA) {
            "AVX-512 lanes and scalar lanes (avx512f + avx512dq detected)"
        } else {
            "scalar lanes only (no avx512f + avx512dq)"
        };
        println!("apply_prefix: checking {lanes}");
        let key = SipKey::default();
        for (n, with_zero) in [
            (0, false),
            (1, false),
            (1, true),
            (7, false),
            (8, true),
            (9, false),
            (2_500, true),
        ] {
            let (items, hashes) = set(n, n as u64 * 31 + 5, key, with_zero);
            for shards in [1u64, 3, 8] {
                for shard in 0..shards {
                    // A shard's members: every position whose hash it owns.
                    let members: Vec<u32> = (0..n as u32)
                        .filter(|&at| splitmix64(hashes[at as usize]) % shards == shard)
                        .collect();
                    for m in [1usize, 2, 31, 32, 33, 384] {
                        let at = format!("n {n} shard {shard}/{shards} m {m}");
                        let (cells, parked) =
                            by_the_window(&items, &hashes, &members, m, DEFAULT_ALPHA);
                        type Form = fn(
                            &mut [CodedSymbol<Item>],
                            &[Item],
                            &[u64],
                            &[u32],
                            f64,
                            Direction,
                        ) -> Vec<IndexMapping>;
                        let forms: [(&str, Form); 2] =
                            [("detected", apply_prefix), ("scalar", apply_prefix_scalar)];
                        for (form, apply) in forms {
                            let mut mine = vec![CodedSymbol::default(); m];
                            let mappings = apply(
                                &mut mine,
                                &items,
                                &hashes,
                                &members,
                                DEFAULT_ALPHA,
                                Direction::Add,
                            );
                            assert_eq!(mine, cells, "{form}: {at}");
                            let mine: Vec<_> = mappings.into_iter().map(park_signature).collect();
                            assert_eq!(mine, parked, "{form}: {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn other_alphas_and_a_removed_set_take_the_scalar_lanes_alike() {
        let key = SipKey::default();
        let (items, hashes) = set(300, 77, key, true);
        let members: Vec<u32> = (0..300).step_by(2).collect();
        for alpha in [0.3, 0.9] {
            assert!(!prefix_uses_avx512(alpha));
            let (cells, parked) = by_the_window(&items, &hashes, &members, 40, alpha);
            let mut mine = vec![CodedSymbol::default(); 40];
            let mappings =
                apply_prefix(&mut mine, &items, &hashes, &members, alpha, Direction::Add);
            assert_eq!(mine, cells, "alpha {alpha}");
            let mine: Vec<_> = mappings.into_iter().map(park_signature).collect();
            assert_eq!(mine, parked, "alpha {alpha}");
        }
        // Removing what was added leaves empty cells.
        let mut cells = vec![CodedSymbol::default(); 64];
        apply_prefix(&mut cells, &items, &hashes, &members, 0.5, Direction::Add);
        apply_prefix(
            &mut cells,
            &items,
            &hashes,
            &members,
            0.5,
            Direction::Remove,
        );
        assert!(cells.iter().all(CodedSymbol::is_empty_cell));
    }

    #[test]
    fn no_cells_leave_every_mapping_fresh() {
        let key = SipKey::default();
        let (items, hashes) = set(20, 3, key, false);
        let members: Vec<u32> = (0..20).collect();
        let parked = apply_prefix::<Item>(&mut [], &items, &hashes, &members, 0.5, Direction::Add);
        for (mapping, &hash) in parked.into_iter().zip(&hashes) {
            assert_eq!(
                park_signature(mapping),
                park_signature(IndexMapping::new(hash))
            );
        }
    }

    #[test]
    #[should_panic(expected = "one keyed hash per item")]
    fn a_short_hash_slice_is_refused() {
        let (items, hashes) = set(10, 1, SipKey::default(), false);
        let mut cells = vec![CodedSymbol::default(); 4];
        apply_prefix(
            &mut cells,
            &items,
            &hashes[..9],
            &[0, 1],
            0.5,
            Direction::Add,
        );
    }
}
