//! The global named-metrics registry and its snapshot exporters.
//!
//! Call sites never touch the registry directly: the [`count!`],
//! [`gauge!`], and [`observe!`] macros expand to a per-call-site
//! `OnceLock` cache holding a `&'static` metric, so after the first hit
//! the hot path is one pointer load plus one `Relaxed` `fetch_add` —
//! and with the `enabled` feature off, the macro support functions
//! compile to empty bodies and the whole path disappears.
//!
//! Metric storage is `Box::leak`ed on first registration: the set of
//! metric *names* is a small static vocabulary (`flexsp.cache.hits`,
//! `flexsp.arbiter.grants`, …), so the leak is bounded and buys
//! `&'static` handles that need no reference counting on the hot path.
//!
//! [`count!`]: crate::count
//! [`gauge!`]: crate::gauge
//! [`observe!`]: crate::observe

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// Global registry of named metrics. One per process; get it with
/// [`registry()`].
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

/// The process-wide metrics registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        let mut map = self.counters.lock().expect("metrics registry poisoned");
        map.entry(name).or_insert_with(|| Box::leak(Box::default()))
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        let mut map = self.gauges.lock().expect("metrics registry poisoned");
        map.entry(name).or_insert_with(|| Box::leak(Box::default()))
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        let mut map = self.histograms.lock().expect("metrics registry poisoned");
        map.entry(name).or_insert_with(|| Box::leak(Box::default()))
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(&k, v)| (k, v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(&k, v)| (k, v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(&k, v)| (k, v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Convenience: [`Registry::snapshot`] on the global registry.
pub fn metrics_snapshot() -> MetricsSnapshot {
    registry().snapshot()
}

/// A point-in-time copy of the registry, renderable as JSON or
/// Prometheus text.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every registered counter, name-sorted.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every registered gauge, name-sorted.
    pub gauges: Vec<(&'static str, i64)>,
    /// `(name, snapshot)` for every registered histogram, name-sorted.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

/// `flexsp.cache.hits` → `flexsp_cache_hits` (Prometheus metric names
/// allow `[a-zA-Z0-9_:]` only).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

impl MetricsSnapshot {
    /// What happened between `earlier` and `self`: counters and
    /// histograms minus their `earlier` values (metrics registered
    /// since count from zero), gauges as they are now. Scopes the
    /// process-wide registry to one run.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|&(name, v)| {
                let before = earlier.counters.iter().find(|(n, _)| *n == name);
                (name, v.saturating_sub(before.map_or(0, |&(_, b)| b)))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let mut delta = h.clone();
                if let Some((_, b)) = earlier.histograms.iter().find(|(n, _)| n == name) {
                    for (d, old) in delta.counts.iter_mut().zip(b.counts.iter()) {
                        *d = d.saturating_sub(*old);
                    }
                    delta.sum = delta.sum.saturating_sub(b.sum);
                    delta.count = delta.count.saturating_sub(b.count);
                }
                (*name, delta)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Renders the snapshot as a JSON object:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {name:
    /// {count, sum, mean, p50, p90, p99}}}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            s.push_str(&format!("{sep}\n    \"{name}\": {v}"));
        }
        s.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            s.push_str(&format!("{sep}\n    \"{name}\": {v}"));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            s.push_str(&format!(
                "{sep}\n    \"{name}\": {{\"count\": {}, \"sum\": {}, \"mean\": {:.3}, \
                 \"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}}}",
                h.count,
                h.sum,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            ));
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Histograms export as summaries (`{quantile="…"}` series plus
    /// `_sum` / `_count`).
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            s.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            s.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            s.push_str(&format!("# TYPE {n} summary\n"));
            for q in [0.5, 0.9, 0.99] {
                s.push_str(&format!("{n}{{quantile=\"{q}\"}} {:.3}\n", h.quantile(q)));
            }
            s.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        s
    }
}

// ---------------------------------------------------------------------
// Macro support. The macros below expand in *downstream* crates, so the
// feature gate must live here (a `#[cfg(feature = …)]` inside a macro
// body would consult the downstream crate's features, not ours). With
// `enabled` off these bodies are empty and `#[inline(always)]` erases
// the call.
// ---------------------------------------------------------------------

#[cfg(feature = "enabled")]
#[doc(hidden)]
#[inline]
pub fn __count(cell: &OnceLock<&'static Counter>, name: &'static str, n: u64) {
    cell.get_or_init(|| registry().counter(name)).add(n);
}

#[cfg(not(feature = "enabled"))]
#[doc(hidden)]
#[inline(always)]
pub fn __count(_cell: &OnceLock<&'static Counter>, _name: &'static str, _n: u64) {}

#[cfg(feature = "enabled")]
#[doc(hidden)]
#[inline]
pub fn __gauge_set(cell: &OnceLock<&'static Gauge>, name: &'static str, v: i64) {
    cell.get_or_init(|| registry().gauge(name)).set(v);
}

#[cfg(not(feature = "enabled"))]
#[doc(hidden)]
#[inline(always)]
pub fn __gauge_set(_cell: &OnceLock<&'static Gauge>, _name: &'static str, _v: i64) {}

#[cfg(feature = "enabled")]
#[doc(hidden)]
#[inline]
pub fn __observe(cell: &OnceLock<&'static Histogram>, name: &'static str, v: u64) {
    cell.get_or_init(|| registry().histogram(name)).record(v);
}

#[cfg(not(feature = "enabled"))]
#[doc(hidden)]
#[inline(always)]
pub fn __observe(_cell: &OnceLock<&'static Histogram>, _name: &'static str, _v: u64) {}

/// An elapsed-time probe for feeding duration histograms from
/// instrumented crates without leaking either `cfg(feature = …)` or a
/// clock type into them: [`Stopwatch::start`] captures
/// `std::time::Instant::now()` when `enabled` is on and is a zero-sized
/// no-op otherwise, so call sites read
///
/// ```
/// use flexsp_telemetry as tel;
/// let t = tel::Stopwatch::start();
/// // … the work being timed …
/// tel::observe!("flexsp.example.us", t.elapsed_us());
/// ```
///
/// unconditionally. (`flexsp-lint`'s `telemetry-hygiene` rule forbids
/// the inline `cfg` + `Instant` spelling outside this crate; this is
/// the sanctioned replacement.)
#[cfg(feature = "enabled")]
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(std::time::Instant);

#[cfg(feature = "enabled")]
impl Stopwatch {
    /// Starts the clock.
    #[inline]
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Microseconds since [`Stopwatch::start`], saturating.
    #[inline]
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// Zero-sized stand-in with the `enabled` feature off: the paired
/// `observe!` is a no-op, so the value never matters.
#[cfg(not(feature = "enabled"))]
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch;

#[cfg(not(feature = "enabled"))]
impl Stopwatch {
    /// Starts nothing.
    #[inline(always)]
    pub fn start() -> Self {
        Stopwatch
    }

    /// Always zero (the paired `observe!` is a no-op too).
    #[inline(always)]
    pub fn elapsed_us(&self) -> u64 {
        0
    }
}

/// Bumps the global counter `$name` by `$n` (default 1). One `Relaxed`
/// `fetch_add` after the first call per site; a no-op with the
/// `enabled` feature off.
#[macro_export]
macro_rules! count {
    ($name:expr) => {
        $crate::count!($name, 1u64)
    };
    ($name:expr, $n:expr) => {{
        static __FLEXSP_METRIC: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        $crate::__count(&__FLEXSP_METRIC, $name, $n as u64);
    }};
}

/// Sets the global gauge `$name` to `$v`. A no-op with the `enabled`
/// feature off.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $v:expr) => {{
        static __FLEXSP_METRIC: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        $crate::__gauge_set(&__FLEXSP_METRIC, $name, $v as i64);
    }};
}

/// Records `$v` into the global histogram `$name`. A no-op with the
/// `enabled` feature off.
#[macro_export]
macro_rules! observe {
    ($name:expr, $v:expr) => {{
        static __FLEXSP_METRIC: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        $crate::__observe(&__FLEXSP_METRIC, $name, $v as u64);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_scopes_counters_and_histograms_to_the_later_run() {
        let mut h1 = HistogramSnapshot::default();
        h1.counts[2] = 3;
        h1.sum = 9;
        h1.count = 3;
        let earlier = MetricsSnapshot {
            counters: vec![("jobs", 1000)],
            gauges: vec![("depth", 4)],
            histograms: vec![("lat", h1.clone())],
        };
        let mut h2 = h1.clone();
        h2.counts[2] = 5;
        h2.counts[7] = 1;
        h2.sum = 40;
        h2.count = 6;
        let later = MetricsSnapshot {
            counters: vec![("fresh", 7), ("jobs", 2000)],
            gauges: vec![("depth", 2)],
            histograms: vec![("lat", h2)],
        };
        let d = later.since(&earlier);
        assert_eq!(d.counters, vec![("fresh", 7), ("jobs", 1000)]);
        assert_eq!(d.gauges, vec![("depth", 2)]);
        let lat = &d.histograms[0].1;
        assert_eq!(
            (lat.counts[2], lat.counts[7], lat.sum, lat.count),
            (2, 1, 31, 3)
        );
    }
}
