//! One scenario, every scheme: the `ReconcileBackend` trait in action.
//!
//! Run with `cargo run --release --example backend_matrix`.
//!
//! Reconciles the same pair of 10,000-item sets (difference 200) through
//! each backend in the workspace using the same generic session engine, and
//! prints what each scheme paid — the architectural form of the paper's §7
//! comparison: identical protocol conditions, costs differing only by
//! scheme.

use netsim::{run_in_memory, RunReport};
use reconcile_core::backends::{IrregularRibltBackend, RibltBackend};
use reconcile_core::ReconcileBackend;
use riblt::FixedBytes;
use riblt_hash::splitmix64;
use statesync::backends::{IbltBackend, MetIbltBackend, PinSketchBackend};

type Item = FixedBytes<8>;

fn report_line(name: &str, d: usize, r: &RunReport<Item>) {
    println!(
        "{name:<18} {:>6} units {:>9} B down {:>7} B up {:>4} rounds   ({:.2} units/diff)",
        r.units,
        r.bytes_to_client,
        r.bytes_to_server,
        r.rounds,
        r.units as f64 / d as f64,
    );
}

fn main() {
    let n = 10_000u64;
    let d_each = 100u64; // per-side exclusives → |A △ B| = 200
    let universe: Vec<Item> = (0..n + d_each)
        .map(|i| Item::from_u64(splitmix64(i + 1) | 1))
        .collect();
    let alice: Vec<Item> = universe[..n as usize].to_vec();
    let bob: Vec<Item> = universe[d_each as usize..].to_vec();
    let d = 2 * d_each as usize;
    println!("reconciling two {n}-item sets with {d} differences through every backend:\n");

    let run = |name: &'static str, report: RunReport<Item>| {
        assert_eq!(
            report.difference.len(),
            d,
            "{name} recovered a wrong difference"
        );
        report_line(name, d, &report);
    };

    let b = RibltBackend::<Item>::new(8, 32);
    run(
        b.name(),
        run_in_memory(b.clone(), &alice, &bob, 100_000).unwrap(),
    );

    let b = IrregularRibltBackend::<Item>::new(8, 32);
    run(
        b.name(),
        run_in_memory(b.clone(), &alice, &bob, 100_000).unwrap(),
    );

    let b = IbltBackend::<Item>::new(8);
    run(
        b.name(),
        run_in_memory(b.clone(), &alice, &bob, 100_000).unwrap(),
    );

    let b = MetIbltBackend::<Item>::new(8);
    run(
        b.name(),
        run_in_memory(b.clone(), &alice, &bob, 100_000).unwrap(),
    );

    let b = PinSketchBackend::new(64);
    run(
        b.name(),
        run_in_memory(b.clone(), &alice, &bob, 100_000).unwrap(),
    );

    println!(
        "\nunits are scheme-specific (coded symbols / cells / syndromes); \
         the difference recovered is identical for every backend."
    );
}
