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
//!    shard (±9.5 % pooled over 8 shards): an estimate one standard
//!    deviation high still lands below what the median shard needs;
//! 2. up to [`SECOND_RUNG`]`·d̂` once the estimate rests on that range
//!    (±3 %): the median shard of 250 differences decodes at 1.41·d, the
//!    slowest of 8 at 1.56·d̄;
//! 3. then top up by [`TOP_UP`]`·d̂` a round.
//!
//! Ranges are whole tiles (the server's batch size) and every ask is at
//! least one tile, so no stream ever takes more rounds than asking tile by
//! tile would, and a difference of up to a tile per shard is asked for
//! exactly as it was tile by tile. At 2,000 differences over 8 shards the
//! window takes 4.0 rounds instead of 12.7 for 2.3 % more symbols; the
//! simulation table, the per-shard-estimate comparison and what the rungs
//! trade against each other are in ARCHITECTURE.md ("The request window").

/// First ask, as a multiple of the estimated difference.
pub const FIRST_RUNG: f64 = 1.25;
/// Second ask, as a multiple of the estimated difference.
pub const SECOND_RUNG: f64 = 1.45;
/// Top-up per round after the second rung, as a fraction of the estimate.
pub const TOP_UP: f64 = 0.1;

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
    let target = if asked < FIRST_RUNG * difference {
        FIRST_RUNG * difference
    } else if asked < SECOND_RUNG * difference {
        SECOND_RUNG * difference
    } else {
        asked + TOP_UP * difference
    };
    // `as usize` saturates, so an absurd estimate cannot wrap.
    let tiles = ((target / tile as f64).ceil() as usize).min(usize::MAX / tile);
    let last = budget.div_ceil(tile).saturating_mul(tile);
    let until = (tiles * tile).max(requested.saturating_add(tile)).min(last);
    (until > requested).then_some(until)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // d = 250, tile 32: 32 → 1.25·d = 312.5 → 320.
        assert_eq!(request_until(32, 32, 250.0, usize::MAX), Some(320));
        // 320 < 1.45·d = 362.5 → 384.
        assert_eq!(request_until(320, 32, 250.0, usize::MAX), Some(384));
        // Past the second rung: 0.1·d = 25 → one tile.
        assert_eq!(request_until(384, 32, 250.0, usize::MAX), Some(416));
        // d = 2,000: top-ups of 200 → 7 tiles.
        assert_eq!(request_until(2_912, 32, 2_000.0, usize::MAX), Some(3_136));
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
        // d̂ ≤ 44 per shard (d ≤ 350 over 8 shards), and no estimate at all
        // (0.0): every round is one more tile, exactly what lock-step asked.
        for difference in [0.0, 1.0, 12.5, 44.0] {
            for requested in [32, 64, 96, 640] {
                assert_eq!(
                    request_until(requested, 32, difference, usize::MAX),
                    Some(requested + 32)
                );
            }
        }
    }
}
