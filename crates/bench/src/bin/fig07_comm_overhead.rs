//! Figure 7: communication overhead (bytes transmitted ÷ d·ℓ) of the
//! reconciliation schemes for 32-byte items and set differences of 1–400.
//!
//! Rateless IBLT, Irregular Rateless IBLT, MET-IBLT and "regular IBLT +
//! estimator" are all driven through the *same* `ReconcileBackend` session
//! engine (`netsim::run_in_memory`), so every scheme pays its real
//! protocol behaviour — retry rounds, estimator shipment, block escalation —
//! under identical conditions; bytes are then charged with the paper's
//! per-unit accounting (ℓ+9 per rateless coded symbol, ℓ+16 per IBLT cell,
//! 15 KB per estimator). The genie-aided "regular IBLT" line (table sized by
//! empirical calibration, no estimator round) and the Merkle trie keep their
//! scheme-specific harnesses, as in the paper.
//!
//! Output columns: `d, riblt, irregular, met_iblt, regular_iblt,
//! regular_iblt_estimator, pinsketch, merkle_trie`.

use iblt::{calibrate, Iblt, ESTIMATOR_WIRE_BYTES};
use merkle_trie::heal_in_memory;
use netsim::run_in_memory;
use reconcile_core::backends::{IrregularRibltBackend, RibltBackend};
use reconcile_core::ReconcileBackend;
use riblt_bench::{set_pair32, BenchCli, Item32};
use statesync::backends::{IbltBackend, MetIbltBackend};

const ITEM_LEN: usize = 32;
/// Checksum + compressed count of one rateless coded symbol (§7.1: "these
/// two fields together occupy about 9 bytes").
const RIBLT_PER_SYMBOL_OVERHEAD: usize = 9;
/// Per-cell overhead of the fixed IBLT baselines (8-byte checksum + 8-byte
/// count, the paper's accounting).
const IBLT_CELL_BYTES: usize = ITEM_LEN + 16;

/// Average scheme units consumed per trial, measured through the session
/// engine on fresh random set pairs.
fn mean_units<B, F>(make_backend: F, d: u64, trials: u64, seed: u64) -> f64
where
    B: ReconcileBackend<Item = Item32> + Clone,
    F: Fn() -> B,
{
    let mut total = 0usize;
    for t in 0..trials {
        let pair = set_pair32(d.max(1), d, seed ^ d ^ (t << 20));
        let report = run_in_memory(make_backend(), &pair.alice, &pair.bob, 10_000_000)
            .expect("conformant backend must reconcile");
        total += report.units;
    }
    total as f64 / trials as f64
}

fn main() {
    let cli = BenchCli::from_args();
    let scale = cli.scale;
    let mut csv = cli.sink();
    let diffs: Vec<u64> = scale.pick(
        vec![1, 2, 5, 10, 20, 50, 100, 200, 300, 400],
        vec![
            1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 75, 100, 150, 200, 250, 300, 350, 400,
        ],
    );
    let trials = scale.pick(10, 100);
    let iblt_failure_target = scale.pick(1.0 / 100.0, 1.0 / 3000.0);
    let iblt_trials = scale.pick(100, 3000);
    let trie_set_size = scale.pick(20_000u64, 100_000u64);
    eprintln!(
        "# Fig. 7 reproduction ({:?} mode): {trials} trials, IBLT failure target {iblt_failure_target}",
        scale
    );

    csv.header(&[
        "d",
        "riblt",
        "irregular",
        "met_iblt",
        "regular_iblt",
        "regular_iblt_estimator",
        "pinsketch",
        "merkle_trie",
    ]);

    for &d in &diffs {
        let denom = (d as usize * ITEM_LEN) as f64;

        // Rateless IBLT: coded symbols consumed × (item + 9 bytes). A batch
        // of one isolates the scheme's intrinsic overhead from batching.
        let riblt_units = mean_units(
            || RibltBackend::<Item32>::new(ITEM_LEN, 1),
            d,
            trials,
            cli.seed_or(0x707),
        );
        let riblt_overhead = riblt_units * (ITEM_LEN + RIBLT_PER_SYMBOL_OVERHEAD) as f64 / denom;

        // Irregular Rateless IBLT (§8): same accounting, lower asymptote.
        let irr_units = mean_units(
            || IrregularRibltBackend::<Item32>::new(ITEM_LEN, 1),
            d,
            trials,
            cli.seed_or(0x188),
        );
        let irr_overhead = irr_units * (ITEM_LEN + RIBLT_PER_SYMBOL_OVERHEAD) as f64 / denom;

        // MET-IBLT: cells of every block fetched until joint decoding
        // succeeded.
        let met_units = mean_units(
            || MetIbltBackend::<Item32>::new(ITEM_LEN),
            d,
            trials,
            cli.seed_or(0x3e7),
        );
        let met_overhead = met_units * IBLT_CELL_BYTES as f64 / denom;

        // Regular IBLT + estimator: the full protocol — estimator round,
        // estimate-sized table, doubling on failure.
        let est_units = mean_units(
            || IbltBackend::<Item32>::new(ITEM_LEN),
            d,
            trials,
            cli.seed_or(0x1b17),
        );
        let iblt_est_overhead =
            (est_units * IBLT_CELL_BYTES as f64 + ESTIMATOR_WIRE_BYTES as f64) / denom;

        // Regular IBLT with a genie-aided size: calibrate the table
        // empirically for this d (no estimator round, no retry).
        let cal = calibrate(d, iblt_failure_target, iblt_trials, |cells, k, seed| {
            let pair = set_pair32(d, d, cli.seed_or(0x1b17) ^ d ^ (seed << 24));
            let mut table = Iblt::from_set(cells, k, pair.alice.iter());
            let other = Iblt::from_set(cells, k, pair.bob.iter());
            table.subtract(&other);
            table.decode().is_complete()
        });
        let iblt_overhead = (cal.params.cells * IBLT_CELL_BYTES) as f64 / denom;

        // PinSketch: d syndromes of ℓ bytes each — overhead 1 by construction
        // (our GF(2^64) implementation demonstrates the computation; the
        // byte accounting matches the paper's GF(2^256)-capable baseline).
        let pinsketch_overhead = 1.0;

        // Merkle trie: heal byte cost over a trie of `trie_set_size` accounts.
        let trie_overhead = if d >= 10 {
            let pair = set_pair32(trie_set_size, d, cli.seed_or(0x7121e) ^ d);
            let mut server = merkle_trie::MerkleTrie::new();
            let mut client = merkle_trie::MerkleTrie::new();
            for item in &pair.alice {
                server.insert(&item.0[..20], item.0[20..].to_vec());
            }
            for item in &pair.bob {
                client.insert(&item.0[..20], item.0[20..].to_vec());
            }
            let (_, stats) = heal_in_memory(client, &server, 384);
            stats.total_bytes() as f64 / denom
        } else {
            f64::NAN
        };

        riblt_bench::csv_emit!(
            csv,
            d,
            format!("{riblt_overhead:.2}"),
            format!("{irr_overhead:.2}"),
            format!("{met_overhead:.2}"),
            format!("{iblt_overhead:.2}"),
            format!("{iblt_est_overhead:.2}"),
            format!("{pinsketch_overhead:.2}"),
            format!("{trie_overhead:.1}")
        );
    }
}
