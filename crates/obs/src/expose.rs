//! A strict validator for the Prometheus text exposition format.
//!
//! Used by tests (and CI) to assert that whatever the admin socket's
//! `METRICS` command returns is something a real Prometheus scraper would
//! accept: HELP/TYPE headers precede samples, histogram buckets are
//! cumulative and monotone, `+Inf` agrees with `_count`, and `_sum` is
//! present. The validator is independent of [`crate::Registry`]'s renderer
//! so a rendering bug cannot hide behind a matching parser bug.

use std::collections::BTreeMap;

/// What a validated exposition contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpositionSummary {
    /// Distinct `(family, labels)` series, counting each histogram group
    /// (its buckets + sum + count) as one series.
    pub series: usize,
    /// Distinct histogram `(family, labels)` groups.
    pub histograms: usize,
    /// Total sample lines parsed.
    pub samples: usize,
}

#[derive(Debug, Default)]
struct Family {
    has_help: bool,
    typ: Option<String>,
}

/// One parsed sample line.
#[derive(Debug)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Validates `text` as Prometheus text exposition format.
///
/// Returns a summary of the series found, or a description of the first
/// violation. Blank lines and non-HELP/TYPE comments (such as a trailing
/// `# EOF` marker) are ignored.
pub fn validate_prometheus(text: &str) -> Result<ExpositionSummary, String> {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or_default();
            if name.is_empty() {
                return Err(format!("line {lineno}: HELP with no metric name"));
            }
            families.entry(name.to_string()).or_default().has_help = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or_default();
            let typ = parts.next().unwrap_or_default();
            if name.is_empty() || typ.is_empty() {
                return Err(format!("line {lineno}: malformed TYPE line {line:?}"));
            }
            if !matches!(
                typ,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {lineno}: unknown type {typ:?}"));
            }
            let fam = families.entry(name.to_string()).or_default();
            if fam.typ.is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for {name:?}"));
            }
            fam.typ = Some(typ.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // arbitrary comment, e.g. "# EOF"
        }
        let sample = parse_sample(line).map_err(|e| format!("line {lineno}: {e} in {line:?}"))?;
        samples.push(sample);
    }

    // Resolve each sample to its family and check headers exist.
    let family_of = |name: &str| -> String {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if families.get(base).and_then(|f| f.typ.as_deref()) == Some("histogram") {
                    return base.to_string();
                }
            }
        }
        name.to_string()
    };

    let mut seen: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for sample in &samples {
        let family = family_of(&sample.name);
        let fam = families
            .get(&family)
            .ok_or_else(|| format!("sample {:?} has no TYPE header", sample.name))?;
        if !fam.has_help {
            return Err(format!("family {family:?} has TYPE but no HELP"));
        }
        if fam.typ.is_none() {
            return Err(format!("family {family:?} has HELP but no TYPE"));
        }
        if !sample.value.is_finite() && !sample.name.ends_with("_bucket") {
            return Err(format!("sample {:?} has non-finite value", sample.name));
        }
        if fam.typ.as_deref() == Some("counter") && sample.value < 0.0 {
            return Err(format!("counter {:?} is negative", sample.name));
        }
        let key = (sample.name.clone(), sample.labels.clone());
        if seen.contains(&key) {
            return Err(format!(
                "duplicate sample {:?} with labels {:?}",
                sample.name, sample.labels
            ));
        }
        seen.push(key);
    }

    // Histogram structural checks, grouped by (family, labels-minus-le).
    let mut histogram_groups: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for (family, fam) in &families {
        if fam.typ.as_deref() != Some("histogram") {
            continue;
        }
        let bucket_name = format!("{family}_bucket");
        let sum_name = format!("{family}_sum");
        let count_name = format!("{family}_count");
        let mut groups: Vec<Vec<(String, String)>> = Vec::new();
        for s in samples.iter().filter(|s| s.name == bucket_name) {
            let mut labels = s.labels.clone();
            labels.retain(|(k, _)| k != "le");
            if !groups.contains(&labels) {
                groups.push(labels);
            }
        }
        if groups.is_empty() {
            return Err(format!("histogram {family:?} has no _bucket samples"));
        }
        for group in groups {
            let mut buckets: Vec<(f64, f64)> = Vec::new();
            for s in samples.iter().filter(|s| s.name == bucket_name) {
                let mut labels = s.labels.clone();
                let le = match labels.iter().position(|(k, _)| k == "le") {
                    Some(i) => labels.remove(i).1,
                    None => return Err(format!("histogram {family:?} bucket without le label")),
                };
                if labels != group {
                    continue;
                }
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>()
                        .map_err(|_| format!("histogram {family:?}: bad le value {le:?}"))?
                };
                buckets.push((bound, s.value));
            }
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le bounds are ordered"));
            let mut prev = -1.0f64;
            for &(bound, cumulative) in &buckets {
                if cumulative < prev {
                    return Err(format!(
                        "histogram {family:?}: bucket le={bound} not monotone ({cumulative} < {prev})"
                    ));
                }
                prev = cumulative;
            }
            let inf = buckets
                .last()
                .filter(|(bound, _)| bound.is_infinite())
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("histogram {family:?} missing le=\"+Inf\" bucket"))?;
            let count = samples
                .iter()
                .find(|s| s.name == count_name && s.labels == group)
                .map(|s| s.value)
                .ok_or_else(|| format!("histogram {family:?} missing _count"))?;
            if (inf - count).abs() > f64::EPSILON {
                return Err(format!(
                    "histogram {family:?}: +Inf bucket {inf} != _count {count}"
                ));
            }
            samples
                .iter()
                .find(|s| s.name == sum_name && s.labels == group)
                .ok_or_else(|| format!("histogram {family:?} missing _sum"))?;
            histogram_groups.push((family.clone(), group));
        }
    }

    // Count distinct series: histogram groups count once; everything else
    // per distinct (name, labels).
    let histogram_sample_names: Vec<String> = histogram_groups
        .iter()
        .flat_map(|(f, _)| {
            vec![
                format!("{f}_bucket"),
                format!("{f}_sum"),
                format!("{f}_count"),
            ]
        })
        .collect();
    let scalar_series = seen
        .iter()
        .filter(|(name, _)| !histogram_sample_names.contains(name))
        .count();

    Ok(ExpositionSummary {
        series: scalar_series + histogram_groups.len(),
        histograms: histogram_groups.len(),
        samples: samples.len(),
    })
}

/// Extracts the value of the sample `name{labels}` from an exposition, with
/// `labels` given as `(key, value)` pairs in any order. Returns `None` if
/// absent or unparsable.
pub fn sample_value(text: &str, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    let mut want: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    want.sort();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        if let Ok(sample) = parse_sample(line) {
            if sample.name != name {
                continue;
            }
            let mut got = sample.labels.clone();
            got.sort();
            if got == want {
                return Some(sample.value);
            }
        }
    }
    None
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_and_labels, value_str) = match line.find('}') {
        Some(close) => {
            let (head, tail) = line.split_at(close + 1);
            (head, tail.trim())
        }
        None => {
            let mut parts = line.splitn(2, ' ');
            let head = parts.next().ok_or("empty line")?;
            (head, parts.next().ok_or("sample with no value")?.trim())
        }
    };
    let value: f64 = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .split_whitespace()
            .next()
            .ok_or("sample with no value")?
            .parse()
            .map_err(|_| format!("bad sample value {v:?}"))?,
    };
    let (name, labels) = match name_and_labels.find('{') {
        Some(open) => {
            let name = &name_and_labels[..open];
            let body = name_and_labels[open + 1..]
                .strip_suffix('}')
                .ok_or("unterminated label block")?;
            (name, parse_labels(body)?)
        }
        None => (name_and_labels.trim(), Vec::new()),
    };
    if name.is_empty() || !valid_name(name) {
        return Err(format!("bad metric name {name:?}"));
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without '='")?;
        let key = rest[..eq].trim();
        if key.is_empty() || !valid_name(key) {
            return Err(format!("bad label name {key:?}"));
        }
        let after = &rest[eq + 1..];
        let inner = after.strip_prefix('"').ok_or("label value not quoted")?;
        // Find the closing quote, honoring backslash escapes.
        let mut value = String::new();
        let mut chars = inner.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    _ => return Err("bad escape in label value".to_string()),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or("unterminated label value")?;
        labels.push((key.to_string(), value));
        rest = inner[end + 1..].trim_start_matches(',').trim_start();
    }
    Ok(labels)
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# HELP req_total Requests.
# TYPE req_total counter
req_total 7
req_total{result=\"hit\"} 3
# HELP live Live things.
# TYPE live gauge
live -2
# HELP size_bytes Sizes.
# TYPE size_bytes histogram
size_bytes_bucket{le=\"10\"} 1
size_bytes_bucket{le=\"+Inf\"} 2
size_bytes_sum 1010
size_bytes_count 2
# EOF
";

    #[test]
    fn accepts_a_well_formed_exposition() {
        let summary = validate_prometheus(GOOD).expect("valid");
        assert_eq!(summary.histograms, 1);
        // req_total, req_total{hit}, live, size_bytes group.
        assert_eq!(summary.series, 4);
        assert_eq!(summary.samples, 7);
    }

    #[test]
    fn sample_value_reads_plain_and_labeled() {
        assert_eq!(sample_value(GOOD, "req_total", &[]), Some(7.0));
        assert_eq!(
            sample_value(GOOD, "req_total", &[("result", "hit")]),
            Some(3.0)
        );
        assert_eq!(sample_value(GOOD, "live", &[]), Some(-2.0));
        assert_eq!(sample_value(GOOD, "missing", &[]), None);
    }

    #[test]
    fn rejects_samples_without_headers() {
        let err = validate_prometheus("orphan_total 1\n").unwrap_err();
        assert!(err.contains("no TYPE header"), "{err}");
    }

    #[test]
    fn rejects_non_monotone_buckets() {
        let text = "\
# HELP h H.
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 9
h_count 5
";
        let err = validate_prometheus(text).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
    }

    #[test]
    fn rejects_inf_count_mismatch() {
        let text = "\
# HELP h H.
# TYPE h histogram
h_bucket{le=\"+Inf\"} 5
h_sum 9
h_count 4
";
        let err = validate_prometheus(text).unwrap_err();
        assert!(err.contains("!= _count"), "{err}");
    }

    #[test]
    fn rejects_missing_sum_and_missing_inf() {
        let no_inf = "\
# HELP h H.
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_count 5
h_sum 9
";
        assert!(validate_prometheus(no_inf).unwrap_err().contains("+Inf"));
        let no_sum = "\
# HELP h H.
# TYPE h histogram
h_bucket{le=\"+Inf\"} 5
h_count 5
";
        assert!(validate_prometheus(no_sum).unwrap_err().contains("_sum"));
    }

    #[test]
    fn rejects_duplicates_and_negative_counters() {
        let dup = "\
# HELP c C.
# TYPE c counter
c 1
c 2
";
        assert!(validate_prometheus(dup).unwrap_err().contains("duplicate"));
        let neg = "\
# HELP c C.
# TYPE c counter
c -1
";
        assert!(validate_prometheus(neg).unwrap_err().contains("negative"));
    }

    #[test]
    fn ignores_plain_comments_and_blank_lines() {
        let text = "\n# just a comment\n# EOF\n";
        let summary = validate_prometheus(text).expect("valid");
        assert_eq!(summary.samples, 0);
    }

    #[test]
    fn parses_escaped_label_values() {
        let text = "\
# HELP c C.
# TYPE c counter
c{path=\"a\\\"b\\\\c\"} 1
";
        let summary = validate_prometheus(text).expect("valid");
        assert_eq!(summary.samples, 1);
        assert_eq!(sample_value(text, "c", &[("path", "a\"b\\c")]), Some(1.0));
    }

    #[test]
    fn registry_rendering_passes_the_validator() {
        let reg = crate::Registry::new();
        reg.counter("v_req_total", "Requests.").add(12);
        reg.counter_with("v_bytes_total", "Bytes.", &[("direction", "in")])
            .add(100);
        reg.counter_with("v_bytes_total", "Bytes.", &[("direction", "out")])
            .add(200);
        reg.gauge("v_live", "Live.").set(3);
        let h = reg.histogram_seconds("v_op_seconds", "Latency.");
        for i in 0..100 {
            h.observe(i * 1_000_000);
        }
        let text = reg.render_prometheus();
        let summary = validate_prometheus(&text)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
        assert_eq!(summary.series, 5, "{text}");
        assert_eq!(summary.histograms, 1, "{text}");
    }
}
