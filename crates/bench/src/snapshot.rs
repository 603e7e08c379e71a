//! Perf-snapshot schema: the stable shape of the `BENCH_<date>.json`
//! files written by the `perf_snapshot` binary and checked in at the repo
//! root as the performance trajectory of the codebase.
//!
//! The schema is deliberately small and append-only:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "generated": "2026-08-07",
//!   "mode": "quick",
//!   "seed": 0,
//!   "benches": [
//!     {
//!       "name": "decode_throughput/32B",
//!       "params": { "symbol_bytes": 32, "difference": 10000, "trials": 3 },
//!       "metrics": { "wall_s": 0.41, "diffs_per_s": 73170.7 }
//!     }
//!   ]
//! }
//! ```
//!
//! Rules enforced by [`validate`] (and by the CI `perf-smoke` job):
//! `schema_version` must equal [`SCHEMA_VERSION`]; `generated` is a
//! `YYYY-MM-DD` date; `mode` is `"quick"` or `"full"`; every bench carries
//! a non-empty `name`, numeric `params`, and numeric `metrics` including
//! `wall_s`; and every family in [`REQUIRED_BENCHES`] appears at least
//! once. Adding new benches or metrics is allowed; renaming or dropping a
//! required family is a schema regression.
//!
//! Snapshots may additionally carry an optional `daemon_metrics` object —
//! the live daemon's `obs` registry dump (`{"series": [...]}`) captured
//! during the `daemon_stream` bench. When the key is present it must hold a
//! non-empty `series` array whose entries each carry a string `name` and a
//! `type` of `counter`, `gauge`, or `histogram`, with the matching numeric
//! fields (`value` for counters/gauges; `count` and `sum` for histograms).
//! Older snapshots without the key stay valid.

use crate::json::{self, JsonValue};
use std::fmt::Write as _;

/// Version stamp written into (and required from) every snapshot file.
pub const SCHEMA_VERSION: u64 = 1;

/// Bench families every snapshot must contain (matched as a prefix of the
/// bench `name`, so `decode_throughput/32B` satisfies `decode_throughput`).
pub const REQUIRED_BENCHES: &[&str] = &[
    "encode_throughput",
    "decode_throughput",
    "sketch_subtract",
    "mux_sharded_decode",
    "daemon_stream",
    "udp_loss",
];

/// One micro-bench result: a name plus ordered `params` and `metrics`
/// key/value pairs (ordered so the emitted JSON is deterministic).
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Bench identifier, `family/variant` (e.g. `decode_throughput/32B`).
    pub name: String,
    /// Input sizes and knobs the numbers were measured at.
    pub params: Vec<(String, f64)>,
    /// Measured outputs; must include `wall_s`.
    pub metrics: Vec<(String, f64)>,
}

impl BenchRecord {
    /// Starts a record with no params or metrics.
    pub fn new(name: impl Into<String>) -> Self {
        BenchRecord {
            name: name.into(),
            params: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Adds an input parameter.
    pub fn param(mut self, key: &str, value: f64) -> Self {
        self.params.push((key.to_string(), value));
        self
    }

    /// Adds a measured metric.
    pub fn metric(mut self, key: &str, value: f64) -> Self {
        self.metrics.push((key.to_string(), value));
        self
    }
}

/// A full snapshot: header plus the bench records, rendered with
/// [`Snapshot::to_json`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `YYYY-MM-DD` date the snapshot was taken.
    pub generated: String,
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// User seed the pinned-seed benches were XORed with (0 = default).
    pub seed: u64,
    /// Compact registry JSON (`{"series": [...]}`) captured from the live
    /// daemon during `daemon_stream`, if the bench produced one.
    pub daemon_metrics: Option<String>,
    /// The bench results.
    pub benches: Vec<BenchRecord>,
}

impl Snapshot {
    /// Renders the snapshot as pretty-printed JSON in schema order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"generated\": {},", json::quote(&self.generated));
        let _ = writeln!(out, "  \"mode\": {},", json::quote(&self.mode));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        if let Some(metrics) = &self.daemon_metrics {
            let _ = writeln!(out, "  \"daemon_metrics\": {},", metrics.trim());
        }
        out.push_str("  \"benches\": [\n");
        for (i, bench) in self.benches.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": {},", json::quote(&bench.name));
            write_pairs(&mut out, "params", &bench.params, true);
            write_pairs(&mut out, "metrics", &bench.metrics, false);
            out.push_str("    }");
            out.push_str(if i + 1 < self.benches.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn write_pairs(out: &mut String, label: &str, pairs: &[(String, f64)], trailing_comma: bool) {
    let _ = write!(out, "      \"{label}\": {{");
    for (i, (key, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, " {}: {}", json::quote(key), json::number(*value));
    }
    out.push_str(if pairs.is_empty() { "}" } else { " }" });
    out.push_str(if trailing_comma { ",\n" } else { "\n" });
}

/// Validates a snapshot document against the schema described in the module
/// docs. Returns a human-readable reason on failure.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;

    let version = doc
        .get("schema_version")
        .and_then(JsonValue::as_number)
        .ok_or("missing numeric `schema_version`")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }

    let generated = doc
        .get("generated")
        .and_then(JsonValue::as_str)
        .ok_or("missing string `generated`")?;
    if !is_iso_date(generated) {
        return Err(format!(
            "`generated` is not a YYYY-MM-DD date: {generated:?}"
        ));
    }

    let mode = doc
        .get("mode")
        .and_then(JsonValue::as_str)
        .ok_or("missing string `mode`")?;
    if mode != "quick" && mode != "full" {
        return Err(format!(
            "`mode` must be \"quick\" or \"full\", got {mode:?}"
        ));
    }

    doc.get("seed")
        .and_then(JsonValue::as_number)
        .ok_or("missing numeric `seed`")?;

    if let Some(metrics) = doc.get("daemon_metrics") {
        check_daemon_metrics(metrics)?;
    }

    let benches = doc
        .get("benches")
        .and_then(JsonValue::as_array)
        .ok_or("missing `benches` array")?;
    if benches.is_empty() {
        return Err("`benches` is empty".into());
    }

    let mut names = Vec::with_capacity(benches.len());
    for (i, bench) in benches.iter().enumerate() {
        let name = bench
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or(format!("bench[{i}] missing string `name`"))?;
        if name.is_empty() {
            return Err(format!("bench[{i}] has an empty name"));
        }
        check_numeric_object(bench, name, "params")?;
        check_numeric_object(bench, name, "metrics")?;
        let metrics = bench.get("metrics").expect("checked above");
        if metrics
            .get("wall_s")
            .and_then(JsonValue::as_number)
            .is_none()
        {
            return Err(format!("bench {name:?} is missing the `wall_s` metric"));
        }
        names.push(name);
    }

    for family in REQUIRED_BENCHES {
        if !names.iter().any(|n| {
            n.strip_prefix(family)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
        }) {
            return Err(format!("required bench family {family:?} is missing"));
        }
    }
    Ok(())
}

/// Checks the optional `daemon_metrics` block: a non-empty `series` array
/// of named counter/gauge/histogram entries with the numeric fields their
/// type implies.
fn check_daemon_metrics(metrics: &JsonValue) -> Result<(), String> {
    let series = metrics
        .get("series")
        .and_then(JsonValue::as_array)
        .ok_or("`daemon_metrics` is missing its `series` array")?;
    if series.is_empty() {
        return Err("`daemon_metrics.series` is empty".into());
    }
    for (i, entry) in series.iter().enumerate() {
        let name = entry
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or(format!("daemon_metrics.series[{i}] missing string `name`"))?;
        let kind = entry
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or(format!("daemon_metrics series {name:?} missing `type`"))?;
        let required: &[&str] = match kind {
            "counter" | "gauge" => &["value"],
            "histogram" => &["count", "sum"],
            other => {
                return Err(format!(
                    "daemon_metrics series {name:?} has unknown type {other:?}"
                ))
            }
        };
        for field in required {
            if entry.get(field).and_then(JsonValue::as_number).is_none() {
                return Err(format!(
                    "daemon_metrics {kind} {name:?} is missing numeric `{field}`"
                ));
            }
        }
    }
    Ok(())
}

fn check_numeric_object(bench: &JsonValue, name: &str, field: &str) -> Result<(), String> {
    match bench.get(field) {
        Some(JsonValue::Object(map)) => {
            for (key, value) in map {
                if value.as_number().is_none() {
                    return Err(format!("bench {name:?} {field}.{key} is not a number"));
                }
            }
            Ok(())
        }
        _ => Err(format!("bench {name:?} missing `{field}` object")),
    }
}

fn is_iso_date(text: &str) -> bool {
    let bytes = text.as_bytes();
    bytes.len() == 10
        && bytes[4] == b'-'
        && bytes[7] == b'-'
        && [0, 1, 2, 3, 5, 6, 8, 9]
            .iter()
            .all(|&i| bytes[i].is_ascii_digit())
}

/// Today's date in UTC as `YYYY-MM-DD`, derived from the system clock with
/// the standard civil-from-days conversion (no external date crate).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let (year, month, day) = civil_from_days(days);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Howard Hinnant's `civil_from_days`: days since 1970-01-01 to (y, m, d).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if month <= 2 { year + 1 } else { year }, month, day)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let benches = REQUIRED_BENCHES
            .iter()
            .map(|family| {
                BenchRecord::new(format!("{family}/32B"))
                    .param("symbol_bytes", 32.0)
                    .metric("wall_s", 0.5)
                    .metric("per_s", 1234.5)
            })
            .collect();
        Snapshot {
            generated: "2026-08-07".into(),
            mode: "quick".into(),
            seed: 0,
            daemon_metrics: None,
            benches,
        }
    }

    #[test]
    fn emitted_snapshot_validates() {
        let text = sample().to_json();
        validate(&text).unwrap();
    }

    #[test]
    fn emitted_snapshot_is_parseable_in_order() {
        let text = sample().to_json();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema_version").unwrap().as_number(),
            Some(SCHEMA_VERSION as f64)
        );
        let benches = doc.get("benches").unwrap().as_array().unwrap();
        assert_eq!(benches.len(), REQUIRED_BENCHES.len());
        assert_eq!(
            benches[0].get("metrics").unwrap().get("per_s").unwrap(),
            &JsonValue::Number(1234.5)
        );
    }

    #[test]
    fn missing_family_is_a_schema_regression() {
        let mut snap = sample();
        snap.benches
            .retain(|b| !b.name.starts_with("daemon_stream"));
        let err = validate(&snap.to_json()).unwrap_err();
        assert!(err.contains("daemon_stream"), "{err}");
    }

    #[test]
    fn family_prefix_must_match_whole_segment() {
        let mut snap = sample();
        for bench in &mut snap.benches {
            if bench.name.starts_with("daemon_stream") {
                bench.name = "daemon_streamer/32B".into();
            }
        }
        let err = validate(&snap.to_json()).unwrap_err();
        assert!(err.contains("daemon_stream"), "{err}");
    }

    #[test]
    fn records_beyond_the_required_families_validate() {
        // `decode_local_set` and `client_setup` are recorded by every new
        // snapshot but are not required families: the snapshots taken
        // before they existed stay valid.
        let mut snap = sample();
        snap.benches.push(
            BenchRecord::new("decode_local_set/32B")
                .param("local_set", 20_000.0)
                .param("window_bytes_per_symbol", 68.0)
                .metric("wall_s", 0.05)
                .metric("decode_ms", 3.9),
        );
        snap.benches.push(
            BenchRecord::new("client_setup/32B")
                .param("local_set", 20_000.0)
                .param("shards", 8.0)
                .metric("wall_s", 0.04)
                .metric("setup_ms", 0.8),
        );
        validate(&snap.to_json()).unwrap();
        assert!(!REQUIRED_BENCHES.contains(&"decode_local_set"));
        assert!(!REQUIRED_BENCHES.contains(&"client_setup"));
    }

    #[test]
    fn missing_wall_s_is_rejected() {
        let mut snap = sample();
        snap.benches[0].metrics.retain(|(k, _)| k != "wall_s");
        let err = validate(&snap.to_json()).unwrap_err();
        assert!(err.contains("wall_s"), "{err}");
    }

    #[test]
    fn bad_header_fields_are_rejected() {
        let mut snap = sample();
        snap.mode = "medium".into();
        assert!(validate(&snap.to_json()).unwrap_err().contains("mode"));

        let mut snap = sample();
        snap.generated = "yesterday".into();
        assert!(validate(&snap.to_json())
            .unwrap_err()
            .contains("YYYY-MM-DD"));

        let text = sample().to_json().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 99",
        );
        assert!(validate(&text).unwrap_err().contains("schema_version"));
    }

    #[test]
    fn daemon_metrics_block_round_trips() {
        let mut snap = sample();
        snap.daemon_metrics = Some(
            concat!(
                "{\"series\":[",
                "{\"name\":\"reconciled_sessions_opened_total\",\"type\":\"counter\",\"value\":8},",
                "{\"name\":\"reconciled_items\",\"type\":\"gauge\",\"value\":20000},",
                "{\"name\":\"reconciled_session_symbols\",\"type\":\"histogram\",",
                "\"count\":8,\"sum\":4096,\"max\":700,\"mean\":512,\"p50\":500,\"p90\":650,\"p99\":690}",
                "]}"
            )
            .to_string(),
        );
        let text = snap.to_json();
        validate(&text).unwrap();
        let doc = json::parse(&text).unwrap();
        let series = doc
            .get("daemon_metrics")
            .and_then(|m| m.get("series"))
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(series.len(), 3);
    }

    #[test]
    fn malformed_daemon_metrics_is_rejected() {
        let mut snap = sample();
        snap.daemon_metrics = Some("{\"series\":[]}".into());
        let err = validate(&snap.to_json()).unwrap_err();
        assert!(err.contains("empty"), "{err}");

        snap.daemon_metrics = Some("{\"series\":[{\"name\":\"x\",\"type\":\"counter\"}]}".into());
        let err = validate(&snap.to_json()).unwrap_err();
        assert!(err.contains("value"), "{err}");

        snap.daemon_metrics =
            Some("{\"series\":[{\"name\":\"x\",\"type\":\"summary\",\"value\":1}]}".into());
        let err = validate(&snap.to_json()).unwrap_err();
        assert!(err.contains("unknown type"), "{err}");

        snap.daemon_metrics =
            Some("{\"series\":[{\"name\":\"h\",\"type\":\"histogram\",\"count\":1}]}".into());
        let err = validate(&snap.to_json()).unwrap_err();
        assert!(err.contains("sum"), "{err}");
    }

    #[test]
    fn civil_date_conversion_matches_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(20_672), (2026, 8, 7));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }
}
