//! The request window: how much of a rateless stream a client asks for next.
//!
//! A multiplexed server only sends what it is asked for, so a client that
//! asks one batch at a time pays one round trip per batch — 12.7 of them
//! for 2,000 differences over 8 shards. The decoder's
//! [`riblt::DifferenceEstimate`] says how big the difference is after the
//! first batch, and a shard of `d` differences decodes from about
//! `1.35·d + 0.9·√d` coded symbols (±`√d`), so the client can ask for most
//! of what it needs at once:
//!
//! 1. up to [`FIRST_RUNG`]`·d̂` while the estimate rests on one batch per
//!    shard (±9.5 % pooled over 8 shards), or on the count sketch of the
//!    client's set (±9 %), from which a server sizes the first flight
//!    (below: this rung and a margin). This ask is sized to finish the
//!    median shard: rounded up to whole tiles it reaches the `1.41·d` the
//!    median shard of 250 differences decodes at, so about half the shards
//!    are done after one request round. What it spends is whatever an
//!    estimate that came out high asked for beyond each shard's need;
//! 2. up to [`SECOND_RUNG`]`·√d̂` above that once the estimate rests on the
//!    first range (±3 %). This ask is sized to finish the slowest shard: a
//!    shard's need is spread ±`√d` by the decoder and ±`1.3·√d` by the
//!    hash split around the pooled mean, so four `√d̂` over `1.35·d̂` cover
//!    the slowest of 8 (`1.60·d̂` at 250 differences a shard, `1.44·d̂` at
//!    2,000 — a constant multiple would overshoot large differences).
//!    Every shard the first rung left open is sent the whole gap, which is
//!    the window's one real cost in symbols;
//! 3. then top up by [`TOP_UP`]`·d̂` a round, and never by less: a stream
//!    that stands just short of the second rung gets the full top-up.
//!
//! Ranges are whole tiles (the server's batch size) and every ask is at
//! least one tile, so no stream ever takes more rounds than asking tile by
//! tile would.
//!
//! The first ask is the first flight, and a server sizes it before the
//! client has decoded anything, at its own estimate of `d̂` per shard, read
//! off the count sketch a wildcard open carries ([`crate::first_flight`]),
//! with [`first_flight_until`]: the first rung plus
//! [`FIRST_FLIGHT_MARGIN`]`·√d̂`. The rung alone finishes the median shard,
//! but a sync waits for its slowest, and the margin — half the second
//! rung's reach past the first, which an estimate read off no decoded cell
//! does not justify in full — sizes every shard for the slowest instead
//! (PBS's trade: every group is sized so that the round succeeds for all
//! of them, at a few symbols each). So the first flight leaves in the
//! handshake's own round trip; the client books it as asked for, stands
//! past the first rung, and its first request, if it needs one, reaches
//! the second. An open without a sketch is estimate 0, which is one tile,
//! and a flight within one tile (`1.35·d̂ + 2·√d̂ ≤ 32`, `d̂ ≤ 17.5` a
//! shard) is one tile either way.
//!
//! At 2,000 differences over 8 shards the window takes 2.3 request rounds
//! after a one-tile first flight instead of 11.8 tile by tile, for 4.9 %
//! more symbols than that; 1.3 after a first flight of the rung alone, for
//! the same symbols; and 0.7 after the flight with its margin, for 8.4 %
//! (3.4 % more than the rung alone). The ladder before the rungs
//! (`1.25·d̂`, then `1.45·d̂`, whose first ask was sized to land *below* the
//! median shard) took 3.1 for 2.5 %. Rounds against symbols is the whole
//! trade: `table_window_policy` (in `riblt-bench`) replays this function
//! over recorded decodes, after each of those three first flights, and is
//! the source of every number here and of the tables in ARCHITECTURE.md
//! ("The request window", "The first flight").
//!
//! Which rung a stream stands on is read off `requested` against `d̂`, not
//! remembered, so an estimate that grows can put a stream back under the
//! first rung, where it is asked for less than the second rung it was
//! heading for. That is deliberate (the first estimate was low: ask up to
//! the median again before paying for the gap; sending such a stream
//! a full step further instead reads 2.0 rounds for 6.1 % at 1,000
//! differences where this reads 2.2 for 3.9 %) and it is the one place
//! where a larger estimate asks for less: on either side of the first rung
//! the ask never shrinks as the estimate grows, and it never shrinks as
//! `requested` grows.

use crate::engine::RangeRequest;
use crate::error::{EngineError, Result};

/// First ask, as a multiple of the estimated difference.
pub const FIRST_RUNG: f64 = 1.35;
/// Second ask, as a multiple of the estimate's square root above the first.
pub const SECOND_RUNG: f64 = 4.0;
/// Top-up per round after the second rung, as a fraction of the estimate.
pub const TOP_UP: f64 = 0.1;
/// What a server's first flight adds to the first rung, as a multiple of
/// the estimate's square root.
pub const FIRST_FLIGHT_MARGIN: f64 = 2.0;

/// The stream offset a server's first flight reaches, for a stream whose
/// difference is estimated at `difference` symbols:
/// [`FIRST_RUNG`]`·d̂ + `[`FIRST_FLIGHT_MARGIN`]`·√d̂` in whole tiles, and
/// one tile for an estimate of 0, below 0 or NaN. Uncapped: what one range
/// request may name and the server's budget are the caller's to apply.
pub fn first_flight_until(tile: usize, difference: f64) -> usize {
    let target = FIRST_RUNG * difference + FIRST_FLIGHT_MARGIN * difference.sqrt();
    // NaN (and so any negative estimate, through its square root) maps to
    // 0 tiles, which the clamp turns into the one tile an open always earns.
    let tiles = ((target / tile as f64).ceil() as usize).clamp(1, usize::MAX / tile);
    tiles * tile
}

/// The stream offset to request up to, for a stream whose first
/// `requested` symbols (a multiple of `tile`) are already asked for and
/// whose difference is estimated at `difference` symbols (0 when there is
/// no estimate: one tile at a time). At least one tile past `requested`,
/// always a multiple of `tile`, and never past the tile that holds symbol
/// `budget` — `None` once `requested` has reached it.
pub fn request_until(
    requested: usize,
    tile: usize,
    difference: f64,
    budget: usize,
) -> Option<usize> {
    let asked = requested as f64;
    let first = FIRST_RUNG * difference;
    let target = if asked < first {
        first
    } else {
        (first + SECOND_RUNG * difference.sqrt()).max(asked + TOP_UP * difference)
    };
    // `as usize` saturates and maps NaN to 0, so an absurd estimate cannot
    // wrap and a meaningless one asks one tile.
    let tiles = ((target / tile as f64).ceil() as usize).min(usize::MAX / tile);
    let last = budget.div_ceil(tile).saturating_mul(tile);
    let until = (tiles * tile).max(requested.saturating_add(tile)).min(last);
    (until > requested).then_some(until)
}

/// One round's range requests, from `requested` to [`request_until`]'s
/// offset: a want past [`RangeRequest::largest_count`] goes out as several,
/// all in this round. [`EngineError::DecodeIncomplete`] at the budget, and
/// a range past the wire's fields is an error of its own. An iterator, not
/// a `Vec`: the client asks every round and allocates nothing for it.
pub fn next_requests(
    requested: usize,
    tile: usize,
    difference: f64,
    budget: usize,
) -> Result<impl Iterator<Item = Result<RangeRequest>>> {
    let until =
        request_until(requested, tile, difference, budget).ok_or(EngineError::DecodeIncomplete)?;
    let cap = RangeRequest::largest_count(tile);
    Ok((requested..until)
        .step_by(cap)
        .map(move |offset| RangeRequest::new(offset, (until - offset).min(cap))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use riblt_hash::SplitMix64;

    #[test]
    fn stops_at_the_tile_that_holds_the_budget() {
        // Budget 200, tile 32: the last tile ends at 224.
        assert_eq!(request_until(32, 32, 1e9, 200), Some(224));
        assert_eq!(request_until(192, 32, 0.0, 200), Some(224));
        assert_eq!(request_until(224, 32, 1e9, 200), None);
        assert_eq!(request_until(32, 32, 250.0, 16), None);
    }

    #[test]
    fn climbs_the_rungs_then_tops_up() {
        // d = 250, tile 32: 32 → 1.35·d = 337.5 → 11 tiles = 352.
        assert_eq!(request_until(32, 32, 250.0, usize::MAX), Some(352));
        // 352 ≥ 337.5 → 337.5 + 4·√250 = 337.5 + 63.2 = 400.7 (the top-up,
        // 352 + 25, is less) → 13 tiles = 416.
        assert_eq!(request_until(352, 32, 250.0, usize::MAX), Some(416));
        // Past the second rung: 416 + 0.1·d = 441 → 14 tiles = 448.
        assert_eq!(request_until(416, 32, 250.0, usize::MAX), Some(448));
        // d = 2,000: 1.35·d = 2,700 → 85 tiles = 2,720. The second rung,
        // 2,700 + 4·√2,000 = 2,878.9, is 1.44·d where a shard of 250 is
        // sent 1.66·d; from 2,720 the top-up reaches further, 2,920 → 92
        // tiles = 2,944, and from 2,688 (a first estimate 1 % lower) it is
        // the rung: 90 tiles = 2,880.
        assert_eq!(request_until(32, 32, 2_000.0, usize::MAX), Some(2_720));
        assert_eq!(request_until(2_720, 32, 2_000.0, usize::MAX), Some(2_944));
        assert_eq!(request_until(2_688, 32, 2_000.0, usize::MAX), Some(2_720));
        // Top-ups of 0.1·d = 200: 2,912 + 200 = 3,112 → 98 tiles = 3,136,
        // and as much from just short of the second rung: 2,848 + 200 =
        // 3,048 → 96 tiles = 3,072, not the one tile that reaches 2,878.9.
        assert_eq!(request_until(2_912, 32, 2_000.0, usize::MAX), Some(3_136));
        assert_eq!(request_until(2_848, 32, 2_000.0, usize::MAX), Some(3_072));
        // An estimate that grew to 262 puts 352 back under the first rung
        // (1.35·262 = 353.7): the ask is the rung's 12 tiles, not the 416 it
        // was at 250.
        assert_eq!(request_until(352, 32, 262.0, usize::MAX), Some(384));
    }

    #[test]
    fn a_want_past_the_request_cap_is_split_within_the_round() {
        let cap = RangeRequest::largest_count(32);
        let range = |offset, count| RangeRequest::new(offset, count).unwrap();
        let asks = |requested, difference, budget| {
            next_requests(requested, 32, difference, budget)
                .and_then(|asks| asks.collect::<Result<Vec<_>>>())
        };
        // Within the cap: one request, to `request_until`'s offset.
        assert_eq!(asks(32, 250.0, usize::MAX), Ok(vec![range(32, 320)]));
        // 1.35 × 30,000 = 40,500 → 1,266 tiles = 40,512: three requests.
        assert_eq!(
            asks(32, 30_000.0, usize::MAX),
            Ok(vec![
                range(32, cap),
                range(32 + cap, cap),
                range(32 + 2 * cap, 40_512 - 32 - 2 * cap),
            ])
        );
        // At the budget's tile there is nothing left to ask.
        assert_eq!(asks(224, 1e9, 200), Err(EngineError::DecodeIncomplete));
        // An offset past the wire's u32 is refused, not wrapped.
        assert!(matches!(
            asks(1 << 32, 0.0, usize::MAX),
            Err(EngineError::Protocol(_))
        ));
    }

    #[test]
    fn never_asks_less_than_one_tile_or_off_the_tiling() {
        for requested in (0..2_048).step_by(32) {
            for difference in [0.0, 0.4, 12.0, 31.9, 250.0, 1e6, f64::MAX] {
                let until = request_until(requested, 32, difference, 1 << 20).unwrap();
                assert!(until >= requested + 32, "{requested} {difference}");
                assert!(until <= 1 << 20);
                assert_eq!(until % 32, 0);
            }
        }
    }

    #[test]
    fn small_differences_ask_tile_by_tile() {
        // d̂ ≤ 47 per shard (d ≤ 376 over 8 shards; 1.35·47 = 63.45 still
        // fits the second tile, and 63.45 + 4·√47 = 90.9 the third), and no
        // estimate at all (0.0): every round is one more tile, exactly what
        // lock-step asked.
        for difference in [0.0, 1.0, 12.5, 32.0, 47.0] {
            for requested in [32, 64, 96, 640] {
                assert_eq!(
                    request_until(requested, 32, difference, usize::MAX),
                    Some(requested + 32)
                );
            }
        }
        // 1.35·48 = 64.8: the first ask that is two tiles.
        assert_eq!(request_until(32, 32, 48.0, usize::MAX), Some(96));
    }

    /// Hand-rolled property test (the style of `tests/property_tests.rs`):
    /// seeded draws, a failing case prints its inputs.
    #[test]
    fn asks_never_shrink_as_requested_or_the_estimate_grows() {
        let mut gen = SplitMix64::new(0x91d0);
        // A draw that is small, tile-sized or huge with equal chance.
        let mut draw = move |scale: u64| match gen.next_u64() % 3 {
            0 => gen.next_u64() % 8,
            1 => gen.next_u64() % scale,
            _ => gen.next_u64() % (scale * 4_096),
        };
        for case in 0..20_000 {
            let tile = 1 + draw(64) as usize;
            let requested = (1 + draw(64) as usize) * tile;
            let further = requested + draw(64) as usize * tile;
            let budget = if case % 4 == 0 {
                draw(1 << 20) as usize
            } else {
                usize::MAX
            };
            let difference = draw(1 << 12) as f64 / 8.0;
            let larger = difference + draw(1 << 12) as f64 / 8.0;
            let context =
                format!("tile {tile}, requested {requested}, budget {budget}, d̂ {difference}");

            // In `requested`: a stream that has asked for more is never
            // asked up to less. (`None` is a stream at its budget tile.)
            let until = request_until(requested, tile, difference, budget);
            let until_further = request_until(further, tile, difference, budget);
            assert!(
                until.unwrap_or(requested) <= until_further.unwrap_or(further),
                "{context}: {until:?}, from {further} {until_further:?}"
            );

            // In `difference`, on either side of the first rung: both
            // estimates leave the stream under it, or neither does.
            let asked = requested as f64;
            if asked < FIRST_RUNG * difference || asked >= FIRST_RUNG * larger {
                let until_larger = request_until(requested, tile, larger, budget);
                assert!(
                    until <= until_larger,
                    "{context}: {until:?}, at {larger} {until_larger:?}"
                );
            }
        }
    }

    #[test]
    fn the_first_flight_adds_the_margin_to_the_first_rung() {
        // 250 a shard: 337.5 + 2·√250 = 369.1 → 12 tiles, where the rung
        // alone is 11; 2,000 a shard: 2,700 + 89.4 = 2,789.4 → 88 tiles.
        assert_eq!(first_flight_until(32, 250.0), 384);
        assert_eq!(first_flight_until(32, 2_000.0), 2_816);
        // One tile while 1.35·d̂ + 2·√d̂ ≤ 32, i.e. d̂ ≤ 17.5 a shard:
        // `stale_tip`'s 12.5 (100 differences over 8 shards) keeps its one
        // tile unless the sketch reads more than 140, 3σ high.
        for difference in [0.0, 1.0, 12.5, 17.4, 17.5] {
            assert_eq!(first_flight_until(32, difference), 32, "{difference}");
        }
        assert_eq!(first_flight_until(32, 17.6), 64);
        assert_eq!(first_flight_until(32, 140.0 / 8.0), 32);
        // No meaningful estimate: the one tile an open always earns.
        for difference in [f64::NAN, -0.0, -1.0, -1e9, f64::NEG_INFINITY] {
            assert_eq!(first_flight_until(32, difference), 32, "{difference}");
        }
        // An absurd one: the last whole tile a `usize` holds, for the
        // caller to cap.
        assert_eq!(first_flight_until(32, f64::INFINITY), usize::MAX / 32 * 32);
    }

    /// Hand-rolled property test, in the style of
    /// `asks_never_shrink_as_requested_or_the_estimate_grows`.
    #[test]
    fn the_first_flight_is_whole_tiles_past_the_first_rung_and_grows_with_the_estimate() {
        let mut gen = SplitMix64::new(0xf1f1);
        for _ in 0..20_000 {
            let tile = 1 + (gen.next_u64() % 64) as usize;
            let scale = [8.0, 512.0, 65_536.0][(gen.next_u64() % 3) as usize];
            let difference = (gen.next_u64() % 4_096) as f64 / 4_096.0 * scale;
            let larger = difference + (gen.next_u64() % 4_096) as f64 / 4_096.0 * scale;
            let flight = first_flight_until(tile, difference);
            let context = format!("tile {tile}, d̂ {difference}: {flight}");
            assert_eq!(flight % tile, 0, "{context}");
            assert!(flight >= tile, "{context}");
            let rung = request_until(0, tile, difference, usize::MAX).unwrap();
            assert!(flight >= rung, "{context}, first rung {rung}");
            let at_larger = first_flight_until(tile, larger);
            assert!(flight <= at_larger, "{context}, at {larger} {at_larger}");
        }
    }

    #[test]
    fn meaningless_estimates_ask_one_tile_and_absurd_ones_the_budget() {
        for requested in [32, 64, 512] {
            // NaN has no rung to stand on: one tile, as with no estimate.
            for budget in [1 << 20, usize::MAX] {
                assert_eq!(
                    request_until(requested, 32, f64::NAN, budget),
                    Some(requested + 32)
                );
                assert_eq!(
                    request_until(requested, 32, -1.0, budget),
                    Some(requested + 32)
                );
            }
            // ∞ and f64::MAX ask for everything: the budget's tile, or the
            // last whole tile a `usize` holds.
            for difference in [f64::INFINITY, f64::MAX] {
                assert_eq!(request_until(requested, 32, difference, 1_000), Some(1_024));
                assert_eq!(
                    request_until(requested, 32, difference, usize::MAX),
                    Some(usize::MAX / 32 * 32)
                );
            }
            assert_eq!(request_until(1_024, 32, f64::INFINITY, 1_000), None);
        }
    }
}
