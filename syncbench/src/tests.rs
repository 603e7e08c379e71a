//! Whole-run tests: small workloads through the same code paths as the
//! real ones, checked for seed determinism and against `BENCHMARK.json`.

use super::*;
use workload::WORKLOADS;

const SMALL_CHURN: Workload = Workload {
    name: "small_churn",
    server_items: 4_000,
    difference: 200,
    variants: 4,
    warmup: 1,
    timed: 8,
    setup_daemons: 2,
    relay: false,
    churn: true,
    udp: true,
};

const SMALL_WAN: Workload = Workload {
    name: "small_wan",
    server_items: 2_000,
    difference: 40,
    variants: 2,
    warmup: 1,
    timed: 4,
    setup_daemons: 1,
    relay: true,
    churn: false,
    udp: false,
};

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} not measured"))
        .1
}

#[test]
fn benchmark_json_names_the_workloads_of_the_table() {
    let spec = Spec::load();
    let table: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(spec.workloads, table);
    assert!(spec
        .end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn untraced_runs_repeat_exactly_at_a_fixed_seed_and_fill_every_end_to_end_metric() {
    let spec = Spec::load();
    let seconds = workload::REFERENCE_SECONDS;
    let a = run_untraced(&SMALL_CHURN, 5, seconds).unwrap();
    let b = run_untraced(&SMALL_CHURN, 5, seconds).unwrap();
    let other = run_untraced(&SMALL_CHURN, 6, seconds).unwrap();
    for report in [&a, &b, &other] {
        // 2 cold syncs + 1 warm-up + 8 timed, none failed.
        assert_eq!((report.tally.attempted, report.tally.failed), (11, 0));
        assert!(report.harness_ok);
        let line = result_json(&spec, false, report).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 11, \"failed\": 0,"));
        riblt_bench::json::parse(&line).unwrap();
    }
    for counted in ["symbols_per_diff", "wire_bytes_per_diff"] {
        assert_eq!(value(&a, counted), value(&b, counted), "{counted}");
    }
    assert_ne!(
        value(&a, "wire_bytes_per_diff"),
        value(&other, "wire_bytes_per_diff")
    );
    // Every sync recovers the variant's 200 items plus the 256 pool keys.
    let overhead = value(&a, "symbols_per_diff");
    assert!((1.2..2.5).contains(&overhead), "{overhead}");
}

#[test]
fn traced_runs_repeat_their_counts_and_account_for_the_sync_span() {
    let spec = Spec::load();
    let seconds = workload::REFERENCE_SECONDS;
    let a = run_traced(&SMALL_CHURN, 9, seconds).unwrap();
    let b = run_traced(&SMALL_CHURN, 9, seconds).unwrap();
    result_json(&spec, true, &a).unwrap();
    // 2 cold + 1 warm-up + 2 reference + 2 traced + 1 over UDP.
    assert_eq!((a.tally.attempted, a.tally.failed), (8, 0));
    assert!(value(&a, "udp.datagrams_per_sync") > 0.0);
    for counted in [
        "statesync.rounds_per_sync",
        "backend.absorb_calls",
        "statesync.io_read_calls_per_sync",
        "statesync.io_write_calls_per_sync",
        "reconcile_core.frame_overhead_bytes_per_sync",
        "server.symbols_served_per_sync",
        "server.bytes_out_per_sync",
    ] {
        assert_eq!(value(&a, counted), value(&b, counted), "{counted}");
        assert!(value(&a, counted) > 0.0, "{counted}");
    }
    // Leaf children never overlap on one client thread.
    assert!((value(&a, "trace.span_sum_pct") - 100.0).abs() < 1e-6);
    assert_eq!(value(&a, "client.sync_samples"), 2.0);
    // Every shard was mutated before every sync, so no cached batch is valid.
    assert!(value(&a, "server.wire_cache_hit_ratio") < 0.5);
    assert!(value(&a, "server.mutate_us_per_op") > 0.0);
    assert_eq!(value(&a, "server.connection_errors"), 0.0);
}

#[test]
fn relayed_syncs_pay_one_round_trip_per_round() {
    let report = run_traced(&SMALL_WAN, 3, workload::REFERENCE_SECONDS).unwrap();
    assert_eq!(report.tally.failed, 0);
    assert!(report.harness_ok);
    let rtt = 2.0 * WAN_ONE_WAY.as_secs_f64() * 1e3;
    let handshake = value(&report, "reconcile_core.handshake_ms");
    assert!((rtt..rtt + 10.0).contains(&handshake), "{handshake}");
    let rounds = value(&report, "statesync.rounds_per_sync");
    let sync = value(&report, "trace.sync_ms_p50");
    assert!(
        sync >= (rounds + 1.0) * rtt,
        "{sync} ms for {rounds} rounds"
    );
    let one_way = value(&report, "relay.one_way_ms_p50");
    assert!((25.0..27.0).contains(&one_way), "{one_way}");
}
