//! The [`Registry`]: named, labeled metric series with Prometheus-text
//! exposition.
//!
//! A registry is a flat list of series in registration order. Registration
//! is idempotent — asking for an existing `(name, labels)` pair returns the
//! same underlying instrument — so call sites can register from wherever
//! they run without coordinating. Handles are `Arc`s: the hot path touches
//! only the instrument's atomics, never the registry lock.
//!
//! ## Naming scheme
//!
//! Series follow the Prometheus conventions used across this workspace:
//! `<component>_<what>_<unit>` with `_total` on counters
//! (`reconciled_bytes_total`), base units in exposition (histograms that
//! record nanoseconds are registered with [`Registry::histogram_seconds`],
//! which scales rendered bounds and sums by `1e-9` so the wire shows
//! seconds), and label keys for bounded dimensions only
//! (`direction="in"`, `result="hit"` — never unbounded peers or items).

use std::sync::Arc;
#[cfg(feature = "enabled")]
use std::sync::Mutex;

use crate::{Counter, Gauge, Histogram};

/// Scale applied to histogram values recorded in nanoseconds so they render
/// as seconds.
pub const NANOS_SCALE: f64 = 1e-9;

/// One registered series.
#[cfg(feature = "enabled")]
struct Series {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    kind: SeriesKind,
}

#[cfg(feature = "enabled")]
enum SeriesKind {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram { hist: Arc<Histogram>, scale: f64 },
}

#[cfg(feature = "enabled")]
impl SeriesKind {
    fn type_name(&self) -> &'static str {
        match self {
            SeriesKind::Counter(_) => "counter",
            SeriesKind::Gauge(_) => "gauge",
            SeriesKind::Histogram { .. } => "histogram",
        }
    }
}

/// A collection of named metric series.
///
/// Disabled builds (`--no-default-features`) hand out fresh inert
/// instruments and render empty expositions.
#[derive(Default)]
pub struct Registry {
    #[cfg(feature = "enabled")]
    inner: Mutex<Vec<Series>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("series", &self.series_len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a labeled counter.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        #[cfg(feature = "enabled")]
        {
            self.register(name, help, labels, |kind| match kind {
                SeriesKind::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            })
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (name, help, labels);
            Arc::new(Counter::new())
        }
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or finds) a labeled gauge.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        #[cfg(feature = "enabled")]
        {
            self.register(name, help, labels, |kind| match kind {
                SeriesKind::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            })
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (name, help, labels);
            Arc::new(Gauge::new())
        }
    }

    /// Registers (or finds) an unlabeled histogram whose recorded values
    /// are already in their exposition unit (counts, bytes).
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[], 1.0)
    }

    /// Registers (or finds) an unlabeled histogram that records
    /// **nanoseconds** and renders as seconds (use with
    /// [`crate::SpanTimer`] / [`Histogram::observe_duration`]).
    pub fn histogram_seconds(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[], NANOS_SCALE)
    }

    /// Registers (or finds) a labeled histogram with an exposition scale
    /// multiplying rendered bucket bounds, sums and quantiles.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        scale: f64,
    ) -> Arc<Histogram> {
        #[cfg(feature = "enabled")]
        {
            self.register_with_scale(name, help, labels, scale)
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (name, help, labels, scale);
            Arc::new(Histogram::new())
        }
    }

    /// Number of registered series.
    pub fn series_len(&self) -> usize {
        #[cfg(feature = "enabled")]
        return crate::lock_unpoisoned(&self.inner).len();
        #[cfg(not(feature = "enabled"))]
        0
    }
}

/// Instruments the registry knows how to create and expose.
#[cfg(feature = "enabled")]
trait Registrable: Sized {
    fn create() -> SeriesKind;
}

#[cfg(feature = "enabled")]
impl Registrable for Counter {
    fn create() -> SeriesKind {
        SeriesKind::Counter(Arc::new(Counter::new()))
    }
}

#[cfg(feature = "enabled")]
impl Registrable for Gauge {
    fn create() -> SeriesKind {
        SeriesKind::Gauge(Arc::new(Gauge::new()))
    }
}

#[cfg(feature = "enabled")]
impl Registry {
    fn register<T: Registrable>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        extract: impl Fn(&SeriesKind) -> Option<Arc<T>>,
    ) -> Arc<T> {
        debug_assert!(valid_metric_name(name), "bad metric name {name:?}");
        let labels = owned_labels(labels);
        let mut inner = crate::lock_unpoisoned(&self.inner);
        if let Some(series) = inner.iter().find(|s| s.name == name && s.labels == labels) {
            return extract(&series.kind).unwrap_or_else(|| {
                panic!(
                    "series {name:?} already registered as {}",
                    series.kind.type_name()
                )
            });
        }
        let kind = T::create();
        let handle = extract(&kind).expect("create() returns the requested kind");
        inner.push(Series {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            kind,
        });
        handle
    }

    fn register_with_scale(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        scale: f64,
    ) -> Arc<Histogram> {
        debug_assert!(valid_metric_name(name), "bad metric name {name:?}");
        let labels = owned_labels(labels);
        let mut inner = crate::lock_unpoisoned(&self.inner);
        if let Some(series) = inner.iter().find(|s| s.name == name && s.labels == labels) {
            return match &series.kind {
                SeriesKind::Histogram { hist, .. } => Arc::clone(hist),
                other => panic!(
                    "series {name:?} already registered as {}",
                    other.type_name()
                ),
            };
        }
        let hist = Arc::new(Histogram::new());
        inner.push(Series {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            kind: SeriesKind::Histogram {
                hist: Arc::clone(&hist),
                scale,
            },
        });
        hist
    }
}

#[cfg(feature = "enabled")]
fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[cfg(feature = "enabled")]
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

impl Registry {
    /// Renders every series in the Prometheus text exposition format:
    /// `# HELP` / `# TYPE` per family, cumulative `_bucket{le=…}` samples
    /// ending in `+Inf`, plus `_sum` and `_count` for histograms.
    ///
    /// Families are grouped by name in first-registration order; label
    /// variants of the same family share one HELP/TYPE header.
    pub fn render_prometheus(&self) -> String {
        #[cfg(feature = "enabled")]
        {
            let inner = crate::lock_unpoisoned(&self.inner);
            let mut out = String::new();
            let mut rendered: Vec<&str> = Vec::new();
            for series in inner.iter() {
                if rendered.contains(&series.name.as_str()) {
                    continue;
                }
                rendered.push(series.name.as_str());
                out.push_str(&format!(
                    "# HELP {} {}\n# TYPE {} {}\n",
                    series.name,
                    series.help,
                    series.name,
                    series.kind.type_name()
                ));
                for variant in inner.iter().filter(|s| s.name == series.name) {
                    render_series(&mut out, variant);
                }
            }
            out
        }
        #[cfg(not(feature = "enabled"))]
        String::new()
    }
}

#[cfg(feature = "enabled")]
fn render_series(out: &mut String, series: &Series) {
    match &series.kind {
        SeriesKind::Counter(c) => {
            out.push_str(&format!(
                "{}{} {}\n",
                series.name,
                label_block(&series.labels, None),
                c.get()
            ));
        }
        SeriesKind::Gauge(g) => {
            out.push_str(&format!(
                "{}{} {}\n",
                series.name,
                label_block(&series.labels, None),
                g.get()
            ));
        }
        SeriesKind::Histogram { hist, scale } => {
            let snap = hist.snapshot();
            for (bound, cumulative) in snap.cumulative_nonzero() {
                let le = fmt_float(bound as f64 * scale);
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    series.name,
                    label_block(&series.labels, Some(&le)),
                    cumulative
                ));
            }
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                series.name,
                label_block(&series.labels, Some("+Inf")),
                snap.count
            ));
            out.push_str(&format!(
                "{}_sum{} {}\n",
                series.name,
                label_block(&series.labels, None),
                fmt_float(snap.sum as f64 * scale)
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                series.name,
                label_block(&series.labels, None),
                snap.count
            ));
        }
    }
}

/// Renders `{k="v",le="…"}` (or nothing when there are no labels).
#[cfg(feature = "enabled")]
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(feature = "enabled")]
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats a float the shortest way Rust knows that still round-trips;
/// integers render without a fractional part (Prometheus accepts both).
#[cfg(feature = "enabled")]
fn fmt_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

/// The process-wide registry used by library layers (cluster pools,
/// statesync muxes) that have no natural owner to hang a registry on.
/// Components that do own their lifecycle (the daemon) carry their own
/// [`Registry`] instead so tests never share series.
pub fn global() -> &'static Registry {
    static GLOBAL: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(feature = "enabled")]
    fn registration_is_idempotent_per_name_and_labels() {
        let reg = Registry::new();
        let a = reg.counter("test_total", "help");
        let b = reg.counter("test_total", "help");
        assert!(Arc::ptr_eq(&a, &b));
        let c = reg.counter_with("test_total", "help", &[("result", "hit")]);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(reg.series_len(), 2);
    }

    #[test]
    #[cfg(feature = "enabled")]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("test_total", "help");
        reg.gauge("test_total", "help");
    }

    #[test]
    #[cfg(feature = "enabled")]
    fn prometheus_rendering_has_help_type_and_samples() {
        let reg = Registry::new();
        reg.counter("req_total", "Requests served.").add(7);
        reg.counter_with("req_total", "Requests served.", &[("result", "hit")])
            .add(3);
        reg.gauge("live", "Live things.").set(-2);
        let hist = reg.histogram("size_bytes", "Payload sizes.");
        hist.observe(10);
        hist.observe(1000);
        let text = reg.render_prometheus();
        assert!(
            text.contains("# HELP req_total Requests served.\n"),
            "{text}"
        );
        assert!(text.contains("# TYPE req_total counter\n"), "{text}");
        // One HELP/TYPE header even with two label variants.
        assert_eq!(text.matches("# TYPE req_total").count(), 1, "{text}");
        assert!(text.contains("req_total 7\n"), "{text}");
        assert!(text.contains("req_total{result=\"hit\"} 3\n"), "{text}");
        assert!(text.contains("live -2\n"), "{text}");
        assert!(
            text.contains("size_bytes_bucket{le=\"+Inf\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("size_bytes_sum 1010\n"), "{text}");
        assert!(text.contains("size_bytes_count 2\n"), "{text}");
    }

    #[test]
    #[cfg(feature = "enabled")]
    fn seconds_histogram_scales_bounds_and_sum() {
        let reg = Registry::new();
        let hist = reg.histogram_seconds("op_seconds", "Op latency.");
        hist.observe(1_500_000_000); // 1.5s in ns
        let text = reg.render_prometheus();
        assert!(text.contains("op_seconds_count 1\n"), "{text}");
        // Sum renders in seconds, not nanoseconds.
        assert!(text.contains("op_seconds_sum 1.5\n"), "{text}");
        assert!(!text.contains("1500000000"), "{text}");
    }

    #[test]
    #[cfg(not(feature = "enabled"))]
    fn disabled_registry_is_empty() {
        let reg = Registry::new();
        let c = reg.counter("x_total", "h");
        c.add(9);
        assert_eq!(reg.series_len(), 0);
        assert_eq!(reg.render_prometheus(), "");
    }

    #[test]
    fn global_returns_the_same_registry() {
        let a = global() as *const Registry;
        let b = global() as *const Registry;
        assert_eq!(a, b);
    }
}
