//! What a run reports: its metrics, its output checks, and the result
//! line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output failed its check (or that errored).
    pub failed: u64,
    /// The first few failure descriptions, for stderr.
    pub failures: Vec<String>,
    /// Metrics for the result line, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable `name value unit` lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one checked operation; `check` is its verdict.
    pub fn check(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    /// Adds a metric to the result line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a human-readable line (printed, not part of the result).
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push(format!("{name} {value} {unit}"));
    }

    /// True when every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Values print with every digit Rust keeps
    /// (the shortest text that reads back to the same `f64`).
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.metric("setup_s", 0.8127, "s");
        o.metric("ops_per_s", 12.0, "1/s");
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 12.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.check(Err("dropped sequence".into()));
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (2, 1));
    }
}
