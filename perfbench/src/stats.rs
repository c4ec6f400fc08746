//! Order statistics over measured samples.

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (the "type 7" estimator). `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (`0.0` for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of durations read in whole ticks (the span tracer's
/// microseconds), treating each tick value `k` as the interval
/// `[k - 0.5, k + 0.5)` and interpolating inside the interval that holds
/// the quantile. Plain order statistics of tick counts would read the
/// same integer on every run; this estimate keeps the resolution the
/// sample count supports. `0.0` for an empty slice.
pub fn tick_quantile(ticks: &[u64], q: f64) -> f64 {
    if ticks.is_empty() {
        return 0.0;
    }
    let mut v = ticks.to_vec();
    v.sort_unstable();
    let target = q.clamp(0.0, 1.0) * v.len() as f64;
    let mut below = 0usize;
    let mut i = 0;
    while i < v.len() {
        let k = v[i];
        let run = v[i..].iter().take_while(|&&x| x == k).count();
        if (below + run) as f64 >= target {
            let inside = (target - below as f64) / run as f64;
            return (k as f64 - 0.5 + inside).max(0.0);
        }
        below += run;
        i += run;
    }
    v[v.len() - 1] as f64
}

/// Mean of `values` (`0.0` for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nanosecond latencies kept in fixed-size buckets, so memory stays the
/// same however many operations a run completes: exact to the
/// nanosecond below 100 µs, to the microsecond up to 100 ms (longer
/// samples land in the last bucket).
#[derive(Debug, Clone)]
pub struct NanoHistogram {
    fine: Vec<u32>,
    coarse: Vec<u32>,
    count: u64,
}

impl NanoHistogram {
    /// Buckets per range: 1 ns wide, then 1 µs wide.
    const BUCKETS: u64 = 100_000;

    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            fine: vec![0; Self::BUCKETS as usize],
            coarse: vec![0; Self::BUCKETS as usize],
            count: 0,
        }
    }

    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        if ns < Self::BUCKETS {
            self.fine[ns as usize] += 1;
        } else {
            let us = (ns / 1000).min(Self::BUCKETS - 1);
            self.coarse[us as usize] += 1;
        }
        self.count += 1;
    }

    /// The `q`-quantile in nanoseconds, interpolated inside the bucket
    /// that holds it (`0.0` when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0.0;
        let fine = self
            .fine
            .iter()
            .enumerate()
            .map(|(ns, &c)| (ns as f64, 1.0, c));
        let coarse = self
            .coarse
            .iter()
            .enumerate()
            .map(|(us, &c)| (us as f64 * 1000.0, 1000.0, c));
        for (lo, width, c) in fine.chain(coarse) {
            if c == 0 {
                continue;
            }
            let c = f64::from(c);
            if below + c >= target {
                return lo + width * (target - below) / c;
            }
            below += c;
        }
        Self::BUCKETS as f64 * 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tick_quantile_resolves_below_one_tick() {
        // Three of four samples read 0 ticks: the median sits inside the
        // zero interval, not at a whole tick.
        let m = tick_quantile(&[0, 0, 0, 1], 0.5);
        assert!(m > 0.0 && m < 0.5, "{m}");
        assert!((tick_quantile(&[5; 10], 0.5) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_follow_the_samples() {
        let mut h = NanoHistogram::new();
        for ns in 1..=100 {
            h.record(ns);
        }
        h.record(2_000_000_000);
        let p50 = h.quantile_ns(0.5);
        assert!((50.0..52.0).contains(&p50), "{p50}");
        assert!(h.quantile_ns(1.0) >= 99_999_000.0);
        assert!(h.quantile_ns(0.99) < 101.0);
    }
}
