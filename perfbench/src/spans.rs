//! `Category::Bench` spans around calls into each layer, and the
//! per-layer numbers derived from them.
//!
//! The span tracer keeps a fixed ring per thread that can never be
//! cleared, and the library's own spans (one per LP solve, per B&B
//! claim, ...) would wrap it within a few plans. So a traced run records
//! only the benchmark's spans: [`bench_span!`] switches the global sink
//! on just long enough to open its span and off again, and the guard
//! records its event on drop regardless. Library spans opened while the
//! sink is off stay inert. A per-run span budget keeps the calling
//! thread's ring from wrapping, and the run fails if any ring did.

use std::collections::BTreeMap;

use flexsp_telemetry as tel;

use crate::stats;

/// Span events the calling thread may record in one run: below the
/// ring's capacity, with room for the set-up spans.
pub const SPAN_BUDGET: u64 = tel::RING_CAP as u64 - 1024;

/// Whether this run records spans, and how many it may still record.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    left: u64,
}

impl Tracer {
    /// A tracer that records up to [`SPAN_BUDGET`] spans when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            left: SPAN_BUDGET,
        }
    }

    /// Whether the run is traced at all.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Claims one span from the budget; false when untraced or spent.
    pub fn take(&mut self) -> bool {
        if self.on && self.left > 0 {
            self.left -= 1;
            true
        } else {
            false
        }
    }
}

/// Opens a `Category::Bench` span named `$name` when `$record` is true
/// (an inert guard otherwise). Bind the result: the span ends when the
/// guard drops.
#[macro_export]
macro_rules! bench_span {
    ($record:expr, $name:literal) => {{
        if $record {
            ::flexsp_telemetry::tracing_start();
            let guard = ::flexsp_telemetry::span!(::flexsp_telemetry::Category::Bench, $name);
            ::flexsp_telemetry::tracing_stop();
            guard
        } else {
            ::flexsp_telemetry::span!(::flexsp_telemetry::Category::Bench, $name)
        }
    }};
    ($record:expr, $name:literal, $key:literal => $val:expr) => {{
        if $record {
            ::flexsp_telemetry::tracing_start();
            let guard = ::flexsp_telemetry::span!(
                ::flexsp_telemetry::Category::Bench,
                $name,
                $key => $val
            );
            ::flexsp_telemetry::tracing_stop();
            guard
        } else {
            ::flexsp_telemetry::span!(::flexsp_telemetry::Category::Bench, $name, $key => $val)
        }
    }};
}

/// Sorts one thread's spans by start and returns each one's self time:
/// its duration minus the spans it fully contains. Spans that only
/// overlap (two requests in flight at once) are not nested.
fn self_times(evs: &mut [tel::SpanRecord]) -> Vec<u64> {
    // Parents before the children they contain.
    evs.sort_by_key(|e| (e.start_us, std::cmp::Reverse(e.dur_us)));
    let end = |e: &tel::SpanRecord| e.start_us + e.dur_us;
    let mut self_us: Vec<u64> = evs.iter().map(|e| e.dur_us).collect();
    let mut open: Vec<usize> = Vec::new();
    for (i, e) in evs.iter().enumerate() {
        open.retain(|&p| end(&evs[p]) > e.start_us);
        if let Some(&p) = open.iter().rev().find(|&&p| end(&evs[p]) >= end(e)) {
            self_us[p] = self_us[p].saturating_sub(e.dur_us);
        }
        open.push(i);
    }
    self_us
}

/// One finished bench span: its self time in microsecond ticks and its
/// argument.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Duration minus the part covered by nested bench spans.
    pub self_us: u64,
    /// The span's `key => value` argument, if any.
    pub arg: Option<u64>,
}

/// Bench spans drained from the tracer, grouped by name.
#[derive(Debug, Default)]
pub struct Spans(BTreeMap<&'static str, Vec<Sample>>);

impl Spans {
    /// Drains every `Category::Bench` event recorded so far and computes
    /// each span's self time. Fails if any thread's ring wrapped, since
    /// the numbers would then come from a truncated record.
    pub fn drain() -> Result<Self, String> {
        let dropped = tel::dropped_events();
        if dropped > 0 {
            return Err(format!(
                "span ring wrapped: {dropped} events dropped, per-layer numbers would be truncated"
            ));
        }
        let mut by_thread: BTreeMap<u64, Vec<tel::SpanRecord>> = BTreeMap::new();
        for e in tel::drain_events() {
            if e.cat == tel::Category::Bench {
                by_thread.entry(e.tid).or_default().push(e);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<Sample>> = BTreeMap::new();
        for (_, mut evs) in by_thread {
            let self_us = self_times(&mut evs);
            for (e, s) in evs.iter().zip(self_us) {
                out.entry(e.name).or_default().push(Sample {
                    self_us: s,
                    arg: e.arg.map(|(_, v)| v),
                });
            }
        }
        Ok(Spans(out))
    }

    /// Samples of the span named `name` (empty if none was recorded).
    pub fn get(&self, name: &str) -> &[Sample] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Self times of `name`, in microsecond ticks.
    pub fn ticks(&self, name: &str) -> Vec<u64> {
        self.get(name).iter().map(|s| s.self_us).collect()
    }

    /// Mean self time of `name` in microseconds. A tick count is an
    /// unbiased estimate of a duration however short, so the mean keeps
    /// sub-microsecond resolution.
    pub fn mean_us(&self, name: &str) -> f64 {
        let t = self.ticks(name);
        stats::ratio(t.iter().sum::<u64>() as f64, t.len() as f64)
    }

    /// The `q`-quantile of `name`'s self time in microseconds.
    pub fn quantile_us(&self, name: &str, q: f64) -> f64 {
        stats::tick_quantile(&self.ticks(name), q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: u64, dur_us: u64) -> tel::SpanRecord {
        tel::SpanRecord {
            name,
            cat: tel::Category::Bench,
            start_us,
            dur_us,
            tid: 1,
            arg: None,
        }
    }

    #[test]
    fn nested_spans_leave_their_parent_its_self_time() {
        let mut evs = vec![
            span("child", 12, 3),
            span("parent", 10, 10),
            span("next", 20, 5),
        ];
        let self_us = self_times(&mut evs);
        let by_name: Vec<(&str, u64)> = evs.iter().map(|e| e.name).zip(self_us).collect();
        assert_eq!(by_name, vec![("parent", 7), ("child", 3), ("next", 5)]);
    }

    #[test]
    fn overlapping_spans_keep_their_whole_duration() {
        let mut evs = vec![span("a", 0, 10), span("b", 5, 10)];
        assert_eq!(self_times(&mut evs), vec![10, 10]);
    }
}
