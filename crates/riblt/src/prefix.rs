//! A set's contribution to the first `m` coded symbols, item by item.
//!
//! The coding window ([`crate::Encoder`], a decoder's local set) walks cell
//! by cell: each index takes the symbols parked on it out of a calendar
//! queue, applies them and parks each again at its next index, so every
//! step chases a bucket chain and then waits on one symbol's
//! square-root-and-divide chain. When the length of the prefix is known
//! before the walk — a client holding the first `m` cells of a stream, a
//! server's cold [`crate::SketchCache`] asked for its first `m` — the
//! same cells come out of walking items instead: each member of the set is
//! applied to every index it maps to below `m`, eight members in flight so
//! that eight independent draw chains overlap, and a lane takes the next
//! member as soon as its item's next index reaches `m`. No window is
//! filled and no queue kept; each member's mapping is parked at its first
//! index at or past `m`, where a window that must go on from `m` takes it
//! up ([`crate::Decoder::adopt_local_set`], or the cache's own windows).
//!
//! A member leaves the prefix every few steps, so which lanes finish
//! differs at almost every step. Retiring and refilling them one lane at a
//! time branches on that pattern, which no predictor learns. So the AVX-512
//! lanes retire and refill without a branch: the lanes that reached `m` are
//! compressed into a park log, the next members are expanded into exactly
//! those lanes, and while every lane is busy the scatter into the cells is
//! eight trips with no test and no bounds check. Only the tail, where fewer
//! members wait than lanes finished, branches. On an Intel Xeon with
//! AVX-512, on one pinned core, over 20,000 32-byte items in eight shards
//! at m = 32 and m = 384 (grouping included), the branch-free retire and
//! refill took 15–20 % off the walk's median time, and the unchecked
//! scatter 8–11 % more (EXPERIMENTS.md). Which lane takes which member then
//! differs from the scalar lanes; the cells cannot tell, since each is a
//! sum (an XOR and a count) over the members that map to it, and every
//! member is walked from its own seed and parked once.
//!
//! The park log stays a log until something reads it: a client's shard
//! that decodes within the prefix drops it unread, and only one that asks
//! again turns it into mappings ([`ParkLog::into_mappings`]). A cold cache
//! writes it over its coding windows' mappings in place, which stand at
//! index 0 until then, and parks the windows at `m`.
//!
//! Every mapping rule walks: each member at the α its rule gives it, so
//! the irregular variant's mixed classes take the same walk as the regular
//! stream. Two forms compute the same cells and mappings bit for bit:
//! scalar lanes over [`IndexMapping::advance`] (every target, every rule),
//! and, where the rule is uniform α = 0.5 on CPUs with `avx512f` and
//! `avx512dq`, the lanes of AVX-512 registers, which run the xorshift
//! draw, the u64 → f64 conversion, the square root, the division and the
//! integer ceil of eight members at once with the scalar form's exact
//! operations. [`apply_prefix`] picks by the rule and CPU detection alone.

use crate::coded::{CodedSymbol, Direction};
use crate::mapping::{IndexMapping, MappingRule};
use crate::symbol::Symbol;

/// Members in flight.
const LANES: usize = 8;

/// Applies the members of a set to coded symbols `cells` = `[0, m)` in
/// `direction`, and returns each member's mapping parked at its first index
/// at or past `m`, in the order of `members`.
///
/// The set is `items[j]` for each `j` of `members` (positions into
/// `items`), `hashes[j]` being `items[j]`'s keyed hash, each mapped with
/// the parameter `rule` gives it: the cells equal the first `m` an
/// [`crate::Encoder`] of those members under `rule` produces (applied in
/// `direction`), and each mapping stands where repeated
/// [`IndexMapping::advance`] would first reach `m` or beyond. Runs in
/// AVX-512 lanes where [`prefix_uses_avx512`] says so, in
/// [`apply_prefix_scalar`]'s lanes otherwise; [`apply_prefix_logged`] is
/// the same walk with the mappings left in its park log.
///
/// # Panics
/// If `items` and `hashes` differ in length, a member is out of range, or
/// the rule gives a member an α that is not positive.
pub fn apply_prefix<S: Symbol, R: MappingRule>(
    cells: &mut [CodedSymbol<S>],
    items: &[S],
    hashes: &[u64],
    members: &[u32],
    rule: &R,
    direction: Direction,
) -> Vec<IndexMapping> {
    apply_prefix_logged(cells, items, hashes, members, rule, direction).into_mappings()
}

/// [`apply_prefix`], with each member's parked mapping left in the form
/// the walk wrote it: the AVX-512 lanes' park log, turned into mappings
/// only if [`ParkLog::into_mappings`] is called. A client that decodes
/// within the cells drops it unread.
///
/// # Panics
/// As [`apply_prefix`].
pub fn apply_prefix_logged<S: Symbol, R: MappingRule>(
    cells: &mut [CodedSymbol<S>],
    items: &[S],
    hashes: &[u64],
    members: &[u32],
    rule: &R,
    direction: Direction,
) -> ParkLog {
    #[cfg(target_arch = "x86_64")]
    if !cells.is_empty() && prefix_uses_avx512(rule) {
        // SAFETY: `prefix_uses_avx512` found `avx512f` and `avx512dq` with
        // `is_x86_feature_detected!`, the features the lanes are compiled
        // for.
        return unsafe { wide::apply_prefix(cells, items, hashes, members, direction) };
    }
    ParkLog(Parked::Mappings(apply_prefix_scalar(
        cells, items, hashes, members, rule, direction,
    )))
}

/// Where an [`apply_prefix_logged`] walk parked each member: its mapping at
/// its first index at or past the prefix's length, held as the walk wrote
/// it until [`Self::into_mappings`].
#[derive(Debug, Clone)]
pub struct ParkLog(Parked);

#[derive(Debug, Clone)]
enum Parked {
    /// Every member's mapping, in the order of the members: the scalar
    /// lanes' form.
    Mappings(Vec<IndexMapping>),
    /// The AVX-512 lanes' log at α = 0.5, one entry per member in the order
    /// the members left the prefix: entry `k` is member `positions[k]` (a
    /// position into the walk's members), parked at index `indices[k]` with
    /// generator state `states[k]`.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Log {
        positions: Vec<u64>,
        states: Vec<u64>,
        indices: Vec<u64>,
    },
}

impl ParkLog {
    /// Each member's parked mapping, in the order of the walk's members.
    pub fn into_mappings(self) -> Vec<IndexMapping> {
        match self.0 {
            Parked::Mappings(mappings) => mappings,
            Parked::Log { ref positions, .. } => {
                // Every entry is overwritten: each member parks once.
                let mut mappings = vec![IndexMapping::new(0); positions.len()];
                self.park_into(&mut mappings);
                mappings
            }
        }
    }

    /// Writes each member's parked mapping over `mappings[j]`, `j` being
    /// its position in the walk's members: what a coding window that held
    /// the members from index 0 takes up in place
    /// ([`crate::encoder::CodingWindow::apply_prefix`]).
    ///
    /// # Panics
    /// If `mappings` is not one per member.
    pub(crate) fn park_into(self, mappings: &mut [IndexMapping]) {
        match self.0 {
            Parked::Mappings(parked) => mappings.clone_from_slice(&parked),
            Parked::Log {
                positions,
                states,
                indices,
            } => {
                assert_eq!(positions.len(), mappings.len(), "one mapping per member");
                for ((&at, &state), &index) in positions.iter().zip(&states).zip(&indices) {
                    let prng = riblt_hash::XorShift64Star::new(state);
                    mappings[at as usize] = IndexMapping::parked(prng, index, 0.5);
                }
            }
        }
    }
}

/// [`apply_prefix`] in scalar lanes, each an [`IndexMapping`] stepped with
/// its own arithmetic and its own α (the eight lanes' draws and factors
/// computed together): the path of every CPU without AVX-512 and of every
/// rule but uniform α = 0.5, mixed ones included, and the reference the
/// AVX-512 lanes are held to.
///
/// # Panics
/// As [`apply_prefix`].
pub fn apply_prefix_scalar<S: Symbol, R: MappingRule>(
    cells: &mut [CodedSymbol<S>],
    items: &[S],
    hashes: &[u64],
    members: &[u32],
    rule: &R,
    direction: Direction,
) -> Vec<IndexMapping> {
    assert_eq!(items.len(), hashes.len(), "one keyed hash per item");
    // Fresh mappings, each replaced by its parked one once it leaves the
    // prefix.
    let fresh = |&at: &u32| {
        let hash = hashes[at as usize];
        IndexMapping::with_alpha(hash, rule.alpha_of(hash))
    };
    let mut parked: Vec<IndexMapping> = members.iter().map(fresh).collect();
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

/// Whether [`apply_prefix`] under `rule` runs in AVX-512 lanes on this
/// CPU: where the rule is uniform α = 0.5 and `avx512f` and `avx512dq` are
/// detected.
pub fn prefix_uses_avx512<R: MappingRule>(rule: &R) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        rule.uniform_alpha() == Some(0.5)
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = rule;
        false
    }
}

/// The α = 0.5 walk in the lanes of AVX-512 registers. Compiled for
/// `avx512f` and `avx512dq` (`vpmullq`, `vcvtuqq2pd`, `vcvttpd2uqq`) and
/// entered only where the CPU has both.
///
/// A lane holds a member's position in `members`, its index, its generator
/// state and the jump factor of the draw that state made, so a step
/// computes its index from a factor drawn a step earlier while it draws the
/// next one: only the cheap index update (a multiply and a ceil) and the
/// xorshift carry from one step to the next, and the square roots and
/// divisions of successive steps overlap.
///
/// A member finishes every few steps, so lanes retire and refill almost
/// every step, and neither asks which lanes they are. The finished lanes'
/// positions, states and indices are compressed (`vpcompressq`) to the low
/// lanes of a register and stored whole at the end of the park log, which
/// advances by the number finished; a compress with a memory destination
/// is microcoded on some CPUs. The same lanes take the next members with a
/// masked expand (`vpexpandq`) of the eight positions, first states and
/// first factors after `next`, which advances by as many. Every member's
/// first draw and factor are computed up front, eight at a time, so a
/// refilled lane starts from them instead of from its seed. While every
/// lane is busy the scatter into the cells is eight trips with no test;
/// only the tail, where fewer members wait than lanes finished, leaves
/// lanes idle and tests them.
#[cfg(target_arch = "x86_64")]
mod wide {
    use std::arch::x86_64::{
        __m512d, __m512i, _mm512_add_epi64, _mm512_add_pd, _mm512_castpd_si512,
        _mm512_castsi512_pd, _mm512_cmp_pd_mask, _mm512_cmplt_epu64_mask, _mm512_cvtepu64_pd,
        _mm512_cvttpd_epu64, _mm512_div_pd, _mm512_loadu_si512, _mm512_mask_add_epi64,
        _mm512_mask_cmpge_epu64_mask, _mm512_mask_expand_epi64, _mm512_mask_mov_epi64,
        _mm512_maskz_compress_epi64, _mm512_maskz_mov_epi64, _mm512_max_epu64, _mm512_mul_pd,
        _mm512_mullo_epi64, _mm512_set1_epi64, _mm512_set1_pd, _mm512_set_epi64,
        _mm512_setzero_si512, _mm512_slli_epi64, _mm512_sqrt_pd, _mm512_srli_epi64,
        _mm512_storeu_si512, _mm512_sub_pd, _mm512_xor_si512, _CMP_GE_OQ, _CMP_LT_OQ,
    };

    use riblt_hash::XorShift64Star;

    use super::{ParkLog, Parked, LANES};
    use crate::coded::{CodedSymbol, Direction};
    use crate::mapping::DRAW_SCALE;
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

    /// [`super::apply_prefix_logged`] at α = 0.5 over at least one cell.
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
    ) -> ParkLog {
        let (m, n) = (cells.len() as u64, members.len());
        assert!(m > 0, "a walk over no cells parks nothing");
        assert_eq!(items.len(), hashes.len(), "one keyed hash per item");
        // Every member's first draw: its state after it and its factor,
        // padded to whole registers and one more, so that a refill always
        // loads eight.
        let padded = n.div_ceil(LANES) * LANES + LANES;
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
        // The park log, one register past the members so that a park always
        // stores eight; each member parks once, so it fills exactly.
        let (mut positions, mut states, mut indices) =
            (vec![0; n + LANES], vec![0; n + LANES], vec![0; n + LANES]);
        // Lane `l` walks member `position[l]` (a position into `members`),
        // at index `current` with state `state` and the factor `factor` of
        // that state's draw; `walking` has a bit set per busy lane, and
        // `next` is the first member no lane has taken yet.
        let lane_numbers = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        let mut next = n.min(LANES);
        let mut walking = (0..next).fold(0u8, |lanes, lane| lanes | 1 << lane);
        let mut position = _mm512_maskz_mov_epi64(walking, lane_numbers);
        let mut current = _mm512_setzero_si512();
        let mut state = _mm512_maskz_mov_epi64(walking, load(&first_state));
        let mut factor = _mm512_maskz_mov_epi64(walking, load(&first_factor));
        let limit = _mm512_set1_epi64(m as i64);
        let mut logged = 0;
        let (mut at, mut slot): (Lanes, Lanes) = Default::default();
        while walking != 0 {
            store(&mut at, current);
            store(&mut slot, position);
            if walking == u8::MAX {
                // Every lane busy: eight trips and no test.
                for lane in 0..LANES {
                    let (at, slot) = (at[lane] as usize, slot[lane] as usize);
                    debug_assert!(at < cells.len() && slot < n, "a busy lane");
                    // SAFETY: a busy lane stands below `m` (one that reaches
                    // `m` is refilled at index 0 or goes idle) and holds a
                    // position below `n` (refills take `next..n`), and every
                    // member indexed `hashes`, as long as `items`, in the
                    // first-draw pass.
                    unsafe {
                        let member = *members.get_unchecked(slot) as usize;
                        cells.get_unchecked_mut(at).apply_parts(
                            items.get_unchecked(member),
                            *hashes.get_unchecked(member),
                            direction,
                        );
                    }
                }
            } else {
                // The tail: the busy lanes only.
                for lane in 0..LANES {
                    if walking & 1 << lane == 0 {
                        continue;
                    }
                    let member = members[slot[lane] as usize] as usize;
                    cells[at[lane] as usize].apply_parts(&items[member], hashes[member], direction);
                }
            }
            let after = next_index(current, _mm512_castsi512_pd(factor));
            let reached = _mm512_mask_cmpge_epu64_mask(walking, after, limit);
            let (drawn, drawn_factor) = draw(state);
            // Park the lanes that left the prefix, at `after` with the state
            // whose draw took them there: compressed in the register, then
            // stored whole over the log's free end.
            store(
                &mut positions[logged..],
                _mm512_maskz_compress_epi64(reached, position),
            );
            store(
                &mut states[logged..],
                _mm512_maskz_compress_epi64(reached, state),
            );
            store(
                &mut indices[logged..],
                _mm512_maskz_compress_epi64(reached, after),
            );
            logged += reached.count_ones() as usize;
            (current, state, factor) = (after, drawn, _mm512_castpd_si512(drawn_factor));
            // Refill them with the next members, expanded from the eight
            // after `next`; at the tail, as many as are left, and the others
            // go idle.
            let mut refill = reached;
            while refill.count_ones() as usize > n - next {
                refill &= refill - 1;
            }
            walking &= !reached | refill;
            let numbers = _mm512_add_epi64(lane_numbers, _mm512_set1_epi64(next as i64));
            position = _mm512_mask_expand_epi64(position, refill, numbers);
            current = _mm512_mask_mov_epi64(current, refill, _mm512_setzero_si512());
            state = _mm512_mask_expand_epi64(state, refill, load(&first_state[next..]));
            factor = _mm512_mask_expand_epi64(factor, refill, load(&first_factor[next..]));
            next += refill.count_ones() as usize;
        }
        for log in [&mut positions, &mut states, &mut indices] {
            log.truncate(n);
        }
        ParkLog(Parked::Log {
            positions,
            states,
            indices,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::irregular::IrregularClasses;
    use crate::mapping::{Uniform, DEFAULT_ALPHA};
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

    /// What the coding window makes of the members under `rule`: an
    /// encoder's first `m` cells, and each member's mapping advanced one
    /// index at a time until it reaches `m`.
    fn by_the_window<R: MappingRule>(
        items: &[Item],
        hashes: &[u64],
        members: &[u32],
        m: usize,
        rule: &R,
    ) -> (Vec<CodedSymbol<Item>>, Vec<Signature>) {
        let mut encoder = Encoder::<Item, R>::with_rule(rule.clone(), SipKey::default());
        for &at in members {
            let at = at as usize;
            let hashed = HashedSymbol::with_hash(items[at], hashes[at]);
            encoder.add_hashed_symbol(hashed).unwrap();
        }
        let cells = encoder.produce_coded_symbols(m);
        let parked = members
            .iter()
            .map(|&at| {
                let hash = hashes[at as usize];
                let mut mapping = IndexMapping::with_alpha(hash, rule.alpha_of(hash));
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

    /// Both lane forms under `rule` against the window, over sets of every
    /// size around a lane count, split into shards as a client splits its
    /// set, at prefixes of one cell to twelve tiles.
    fn both_forms_equal_the_window<R: MappingRule>(rule: &R) {
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
                        let at = format!("{rule:?}: n {n} shard {shard}/{shards} m {m}");
                        let (cells, parked) = by_the_window(&items, &hashes, &members, m, rule);
                        type Form<R> = fn(
                            &mut [CodedSymbol<Item>],
                            &[Item],
                            &[u64],
                            &[u32],
                            &R,
                            Direction,
                        ) -> Vec<IndexMapping>;
                        let forms: [(&str, Form<R>); 2] =
                            [("detected", apply_prefix), ("scalar", apply_prefix_scalar)];
                        for (form, apply) in forms {
                            let mut mine = vec![CodedSymbol::default(); m];
                            let mappings =
                                apply(&mut mine, &items, &hashes, &members, rule, Direction::Add);
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
    fn both_lane_forms_equal_the_window_cell_for_cell_and_park_where_it_would() {
        let lanes = if prefix_uses_avx512(&Uniform(DEFAULT_ALPHA)) {
            "AVX-512 lanes and scalar lanes (avx512f + avx512dq detected)"
        } else {
            "scalar lanes only (no avx512f + avx512dq)"
        };
        println!("apply_prefix: checking {lanes}");
        both_forms_equal_the_window(&Uniform(DEFAULT_ALPHA));
        // A mixed rule walks each member at its class's α, in scalar lanes.
        let irregular = IrregularClasses::default();
        assert!(!prefix_uses_avx512(&irregular));
        both_forms_equal_the_window(&irregular);
    }

    #[test]
    fn other_alphas_and_a_removed_set_take_the_scalar_lanes_alike() {
        let key = SipKey::default();
        let (items, hashes) = set(300, 77, key, true);
        let members: Vec<u32> = (0..300).step_by(2).collect();
        for alpha in [0.3, 0.9] {
            let rule = Uniform(alpha);
            assert!(!prefix_uses_avx512(&rule));
            let (cells, parked) = by_the_window(&items, &hashes, &members, 40, &rule);
            let mut mine = vec![CodedSymbol::default(); 40];
            let mappings =
                apply_prefix(&mut mine, &items, &hashes, &members, &rule, Direction::Add);
            assert_eq!(mine, cells, "alpha {alpha}");
            let mine: Vec<_> = mappings.into_iter().map(park_signature).collect();
            assert_eq!(mine, parked, "alpha {alpha}");
        }
        // Removing what was added leaves empty cells.
        let (mut cells, rule) = (vec![CodedSymbol::default(); 64], Uniform(0.5));
        apply_prefix(&mut cells, &items, &hashes, &members, &rule, Direction::Add);
        apply_prefix(
            &mut cells,
            &items,
            &hashes,
            &members,
            &rule,
            Direction::Remove,
        );
        assert!(cells.iter().all(CodedSymbol::is_empty_cell));
    }

    /// The member orders of the small-scope test over positions `0..n`:
    /// sorted, reversed, the two halves interleaved, and four seeded
    /// shuffles.
    fn member_orders(n: u32) -> Vec<(String, Vec<u32>)> {
        let sorted: Vec<u32> = (0..n).collect();
        let half = n.div_ceil(2);
        let interleaved = (0..half)
            .flat_map(|at| [at, at + half])
            .filter(|&at| at < n)
            .collect();
        let mut orders = vec![
            ("sorted".to_string(), sorted.clone()),
            (
                "reversed".to_string(),
                sorted.iter().rev().copied().collect(),
            ),
            ("interleaved".to_string(), interleaved),
        ];
        for seed in 0..4u64 {
            let mut gen = riblt_hash::SplitMix64::new(seed * 0x9e37 + u64::from(n));
            let mut shuffled = sorted.clone();
            for at in (1..shuffled.len()).rev() {
                shuffled.swap(at, (gen.next_u64() % (at as u64 + 1)) as usize);
            }
            orders.push((format!("shuffle {seed}"), shuffled));
        }
        orders
    }

    #[test]
    fn every_small_walk_equals_the_scalar_lanes_exhaustively() {
        // Every set of up to three lane groups over every prefix of up to
        // twelve cells, in seven member orders: each retire-and-refill
        // pattern the lanes can meet that small, and the tail.
        let rule = Uniform(DEFAULT_ALPHA);
        let lanes = if prefix_uses_avx512(&rule) {
            "AVX-512 lanes (avx512f + avx512dq detected) against the scalar lanes"
        } else {
            "scalar lanes against themselves (no avx512f + avx512dq)"
        };
        println!("apply_prefix_logged, n <= 24, m <= 12: {lanes}");
        let key = SipKey::new(0x5ca1, 0xe5);
        let (items, hashes) = set(24, 0x5ca1e5, key, true);
        for n in 0..=24u32 {
            for (order, members) in member_orders(n) {
                for m in 0..=12usize {
                    let at = format!("n {n}, {order}, m {m}");
                    let mut scalar = vec![CodedSymbol::default(); m];
                    let reference = apply_prefix_scalar(
                        &mut scalar,
                        &items,
                        &hashes,
                        &members,
                        &rule,
                        Direction::Add,
                    );
                    let mut logged = vec![CodedSymbol::default(); m];
                    let parked = apply_prefix_logged(
                        &mut logged,
                        &items,
                        &hashes,
                        &members,
                        &rule,
                        Direction::Add,
                    )
                    .into_mappings();
                    assert_eq!(logged, scalar, "{at}");
                    assert_eq!(parked.len(), reference.len(), "{at}");
                    for (j, (mine, theirs)) in parked.into_iter().zip(reference).enumerate() {
                        assert_eq!(
                            park_signature(mine),
                            park_signature(theirs),
                            "{at}: member {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn no_cells_leave_every_mapping_fresh() {
        let key = SipKey::default();
        let (items, hashes) = set(20, 3, key, false);
        let members: Vec<u32> = (0..20).collect();
        let rule = Uniform(0.5);
        let parked =
            apply_prefix::<Item, _>(&mut [], &items, &hashes, &members, &rule, Direction::Add);
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
            &Uniform(0.5),
            Direction::Add,
        );
    }
}
