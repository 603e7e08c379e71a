//! Kernel snapshot schema: the file `crates/bench/kernel_ab` writes on
//! every run (`target/kernel_ab/snapshot.json`), which a performance PR
//! commits at the repo root as `BENCH_<date>.json`, the kernel trajectory
//! of the codebase.
//!
//! ```json
//! {
//!   "schema_version": 3,
//!   "generated": "2026-10-19",
//!   "parent_commit": "a29a8983c1ed47e1a6293d17a1257d23d33afaef",
//!   "change_commit": "a29a8983c1ed47e1a6293d17a1257d23d33afaef",
//!   "seed": 1,
//!   "reps": 101,
//!   "prefix_uses_avx512": true,
//!   "rows": [
//!     {"kernel": "pure peel, d 2,000, 32 B", "fastest_ms": 1.2360, "q1_ms": 1.2550, "median_ms": 1.2730, "q3_ms": 1.3010, "median_delta_pct": -0.10}
//!   ]
//! }
//! ```
//!
//! A row holds the change side's repetitions of one kernel: fastest, first
//! quartile, median and third quartile, in ms; the change's median against
//! the parent's, in per cent (`+` is slower). A `run.sh HEAD` run times
//! one commit against itself, so there `median_delta_pct` is the row's A/A
//! spread. `change_commit` ends in `-dirty` when the change side was a
//! working tree that differed from its commit.
//!
//! Quantiles interpolate linearly between order statistics ([`quantile`]):
//! of `n` sorted repetitions, quantile `p` sits at rank `(n − 1)·p`. An odd
//! count's median is its middle repetition, an even count's the mean of its
//! middle two.
//!
//! [`validate`] holds a file to: `schema_version` 3; a `YYYY-MM-DD`
//! `generated`; non-empty `parent_commit` and `change_commit`; a numeric
//! `seed`; a positive `reps`; a boolean `prefix_uses_avx512`; and a
//! non-empty `rows` array, each row with a non-empty `kernel` and every
//! numeric field, and fastest ≤ Q1 ≤ median ≤ Q3. The schema-v1 files at
//! the repo root (up to 2026-10-04, written by a separate-process harness
//! since removed) are history and not validated.

use crate::json::{self, JsonValue};
use std::fmt::Write as _;

/// Version stamp written into every snapshot file.
pub const SCHEMA_VERSION: u64 = 3;

/// A row's numeric fields, in the order they are written.
const ROW_FIELDS: [&str; 5] = [
    "fastest_ms",
    "q1_ms",
    "median_ms",
    "q3_ms",
    "median_delta_pct",
];

/// One side's repetitions of one kernel, in ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The fastest repetition.
    pub fastest_ms: f64,
    /// First quartile.
    pub q1_ms: f64,
    /// Median.
    pub median_ms: f64,
    /// Third quartile.
    pub q3_ms: f64,
}

impl Spread {
    /// The spread of `secs`, one entry per repetition (at least one).
    pub fn of_secs(mut secs: Vec<f64>) -> Spread {
        secs.sort_by(f64::total_cmp);
        let ms = |p| quantile(&secs, p) * 1e3;
        Spread {
            fastest_ms: secs[0] * 1e3,
            q1_ms: ms(0.25),
            median_ms: ms(0.5),
            q3_ms: ms(0.75),
        }
    }
}

/// Quantile `p` of `sorted` (ascending, non-empty): linear between the two
/// order statistics either side of rank `(len − 1)·p`.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let rank = (sorted.len() - 1) as f64 * p;
    let low = rank.floor() as usize;
    let high = (low + 1).min(sorted.len() - 1);
    sorted[low] + (rank - low as f64) * (sorted[high] - sorted[low])
}

/// One kernel's row.
#[derive(Debug, Clone)]
pub struct Row {
    /// The kernel's name, as `kernel_ab`'s table prints it.
    pub kernel: String,
    /// The change side's repetitions.
    pub change: Spread,
    /// The change's median over the parent's, minus one, in per cent.
    pub median_delta_pct: f64,
}

/// A whole snapshot file, rendered with [`Snapshot::to_json`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `YYYY-MM-DD` date the snapshot was taken.
    pub generated: String,
    /// The commit the parent side's crates were exported from.
    pub parent_commit: String,
    /// The commit of the change side's checkout.
    pub change_commit: String,
    /// Seed of the kernels' inputs.
    pub seed: u64,
    /// Repetitions per kernel and side.
    pub reps: usize,
    /// Whether the change side's walks ran in AVX-512 lanes
    /// (`riblt::prefix_uses_avx512`).
    pub prefix_uses_avx512: bool,
    /// One row per kernel, in the order they ran.
    pub rows: Vec<Row>,
}

impl Snapshot {
    /// Renders the snapshot as JSON in schema order, one row per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        for (key, value) in [
            ("generated", &self.generated),
            ("parent_commit", &self.parent_commit),
            ("change_commit", &self.change_commit),
        ] {
            let _ = writeln!(out, "  \"{key}\": {},", json::quote(value));
        }
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"reps\": {},", self.reps);
        let _ = writeln!(
            out,
            "  \"prefix_uses_avx512\": {},",
            self.prefix_uses_avx512
        );
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let s = row.change;
            let _ = write!(
                out,
                "    {{\"kernel\": {}, \"fastest_ms\": {:.4}, \"q1_ms\": {:.4}, \"median_ms\": {:.4}, \"q3_ms\": {:.4}, \"median_delta_pct\": {:.2}}}",
                json::quote(&row.kernel),
                s.fastest_ms,
                s.q1_ms,
                s.median_ms,
                s.q3_ms,
                row.median_delta_pct
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Validates a snapshot document against the schema described in the module
/// docs. Returns a human-readable reason on failure.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_number)
            .ok_or(format!("missing numeric `{key}`"))
    };
    let string = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_str)
            .filter(|s| !s.is_empty())
            .ok_or(format!("missing string `{key}`"))
    };

    let version = number("schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!("schema_version {version} is not {SCHEMA_VERSION}"));
    }
    let generated = string("generated")?;
    if !is_iso_date(generated) {
        return Err(format!(
            "`generated` is not a YYYY-MM-DD date: {generated:?}"
        ));
    }
    string("parent_commit")?;
    string("change_commit")?;
    number("seed")?;
    let reps = number("reps")?;
    if reps < 1.0 {
        return Err(format!("`reps` must be positive, got {reps}"));
    }
    if !matches!(doc.get("prefix_uses_avx512"), Some(JsonValue::Bool(_))) {
        return Err("missing boolean `prefix_uses_avx512`".into());
    }

    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .filter(|rows| !rows.is_empty())
        .ok_or("missing or empty `rows` array")?;
    for (i, row) in rows.iter().enumerate() {
        let kernel = row
            .get("kernel")
            .and_then(JsonValue::as_str)
            .filter(|k| !k.is_empty())
            .ok_or(format!("rows[{i}] missing string `kernel`"))?;
        let mut values = [0.0; ROW_FIELDS.len()];
        for (value, field) in values.iter_mut().zip(ROW_FIELDS) {
            *value = row
                .get(field)
                .and_then(JsonValue::as_number)
                .ok_or(format!("row {kernel:?} missing numeric `{field}`"))?;
        }
        let [fastest, q1, median, q3, _] = values;
        if !(fastest <= q1 && q1 <= median && median <= q3) {
            return Err(format!(
                "row {kernel:?}: quartiles out of order (fastest ≤ Q1 ≤ median ≤ Q3 must hold)"
            ));
        }
    }
    Ok(())
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
        let row = |kernel: &str, secs: Vec<f64>| Row {
            kernel: kernel.into(),
            change: Spread::of_secs(secs),
            median_delta_pct: -0.25,
        };
        Snapshot {
            generated: "2026-10-19".into(),
            parent_commit: "a29a898".into(),
            change_commit: "a29a898-dirty".into(),
            seed: 1,
            reps: 5,
            prefix_uses_avx512: true,
            rows: vec![
                row("pure peel", vec![0.0013, 0.0011, 0.0012, 0.0015, 0.0014]),
                row("encode", vec![0.0052, 0.0050, 0.0051, 0.0054, 0.0053]),
            ],
        }
    }

    /// `text` with its first `"key": value` member cut out (the sample's
    /// values hold no `,` or `}`).
    fn without(text: &str, key: &str) -> String {
        let start = text.find(&format!("\"{key}\": ")).unwrap();
        let len = text[start..].find([',', '}']).unwrap();
        if text[start + len..].starts_with(',') {
            format!("{}{}", &text[..start], &text[start + len + 1..])
        } else {
            // The row's last member: take the separator before it.
            format!("{}{}", &text[..start - 2], &text[start + len..])
        }
    }

    #[test]
    fn committed_v3_snapshots_validate() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut checked = 0;
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = json::parse(&text).unwrap();
            let version = doc.get("schema_version").and_then(JsonValue::as_number);
            if version < Some(SCHEMA_VERSION as f64) {
                continue;
            }
            validate(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            checked += 1;
        }
        assert!(checked > 0, "no schema-v3 BENCH_*.json at the repo root");
    }

    #[test]
    fn emitted_snapshot_validates() {
        validate(&sample().to_json()).unwrap();
    }

    #[test]
    fn emitted_snapshot_is_parseable_in_order() {
        let doc = json::parse(&sample().to_json()).unwrap();
        assert_eq!(
            doc.get("change_commit").unwrap().as_str(),
            Some("a29a898-dirty")
        );
        assert_eq!(doc.get("prefix_uses_avx512"), Some(&JsonValue::Bool(true)));
        let rows = doc.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("kernel").unwrap().as_str(), Some("encode"));
        assert_eq!(rows[0].get("median_ms").unwrap().as_number(), Some(1.3));
        assert_eq!(rows[0].get("q3_ms").unwrap().as_number(), Some(1.4));
        assert_eq!(
            rows[0].get("median_delta_pct").unwrap().as_number(),
            Some(-0.25)
        );
    }

    #[test]
    fn a_row_that_lacks_a_field_is_rejected() {
        let text = sample().to_json();
        for field in ROW_FIELDS.into_iter().chain(["kernel"]) {
            let err = validate(&without(&text, field)).unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn quartiles_out_of_order_are_rejected() {
        for (from, to) in [
            ("\"fastest_ms\": 1.1000", "\"fastest_ms\": 1.2100"),
            ("\"q1_ms\": 1.2000", "\"q1_ms\": 1.3500"),
            ("\"q3_ms\": 1.4000", "\"q3_ms\": 1.2900"),
        ] {
            let text = sample().to_json();
            assert!(text.contains(from), "{text}");
            let err = validate(&text.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains("out of order"), "{err}");
        }
    }

    #[test]
    fn bad_header_fields_are_rejected() {
        let text = sample().to_json();
        for key in ["parent_commit", "change_commit", "prefix_uses_avx512"] {
            let err = validate(&without(&text, key)).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
        let text = text.replace("\"prefix_uses_avx512\": true", "\"prefix_uses_avx512\": 1");
        assert!(validate(&text).unwrap_err().contains("prefix_uses_avx512"));
        let text = sample()
            .to_json()
            .replace("\"schema_version\": 3", "\"schema_version\": 2");
        assert!(validate(&text).unwrap_err().contains("schema_version"));
        let mut snap = sample();
        snap.generated = "yesterday".into();
        assert!(validate(&snap.to_json())
            .unwrap_err()
            .contains("YYYY-MM-DD"));
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let one = Spread::of_secs(vec![0.002]);
        assert_eq!(
            (one.fastest_ms, one.q1_ms, one.median_ms, one.q3_ms),
            (2.0, 2.0, 2.0, 2.0)
        );
        // An even count's median is the mean of its middle two.
        assert_eq!(quantile(&[1.0, 2.0, 4.0, 8.0], 0.5), 3.0);
        assert_eq!(quantile(&[1.0, 2.0, 4.0, 8.0], 0.25), 1.75);
        // An odd count's quartiles fall on repetitions.
        let odd: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(
            [0.25, 0.5, 0.75].map(|p| quantile(&odd, p)),
            [25.0, 50.0, 75.0]
        );
    }

    #[test]
    fn civil_date_conversion_matches_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(20_672), (2026, 8, 7));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }
}
