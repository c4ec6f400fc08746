//! The FlexSP benchmark: one command, three workloads, every number
//! measured from outside the program through each layer's public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_step --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of a run with tracing off;
//! `--trace 1` prints the per-layer metrics of a traced run. Either way
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, and the exit code is non-zero if
//! any output check failed. See `perfbench/README.md` for the workloads,
//! the metrics and what each should move.

mod checks;
mod clock;
mod cluster_churn;
mod plan_serving;
mod report;
mod spans;
mod stats;
mod train_step;

use std::collections::BTreeMap;
use std::process::ExitCode;

use report::Outcome;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <train_step|plan_serving|cluster_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The end-to-end metrics, reported by every workload (units in
/// `BENCHMARK.json`). An operation is a step of `train_step`, a
/// delivered plan of `plan_serving`, and one public arbiter, lease or
/// pump call of `cluster_churn`. The median latency is printed but not
/// part of the result: `plan_serving`'s is a cache hit's round trip,
/// dominated by two cross-thread wake-ups whose cost on a shared host
/// moved by a third between runs of identical code.
pub fn end_to_end(out: &mut Outcome, setup_s: f64, ops_per_s: f64, p50_ms: f64, p90_ms: f64) {
    out.metric("setup_s", setup_s, "s");
    out.metric(
        "peak_rss_mb",
        clock::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
    out.metric("ops_per_s", ops_per_s, "1/s");
    out.metric("op_ms_p90", p90_ms, "ms");
    out.note("op_ms_p50", p50_ms, "ms");
}

/// Every per-layer metric with its unit, in print order. A traced run
/// prints all of them; a layer a workload never calls reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.next_batch_us", "us"),
    ("cost.fit_ms", "ms"),
    ("trace.generate_ms", "ms"),
    ("workflow.trials_per_step", "count"),
    ("workflow.feasible_trial_ratio", "ratio"),
    ("blaster.blast_us", "us"),
    ("blaster.micro_batches", "count"),
    ("bucketing.bucket_dp_us", "us"),
    ("bucketing.token_error_ratio", "ratio"),
    ("planner.plan_mb_ms_p50", "ms"),
    ("planner.plan_mb_ms_p90", "ms"),
    ("planner.milps_per_mb", "count"),
    ("planner.model_builds_per_mb", "count"),
    ("milp.nodes_per_mb", "count"),
    ("milp.lp_solves_per_mb", "count"),
    ("milp.pivots_per_lp", "count"),
    ("milp.us_per_lp", "us"),
    ("milp.basis_reuse_rate", "ratio"),
    ("placement.place_us", "us"),
    ("executor.execute_us", "us"),
    ("executor.pred_err", "ratio"),
    ("executor.alltoall_share", "ratio"),
    ("executor.comm_reuse_ratio", "ratio"),
    ("executor.sim_tokens_per_gpu_s", "tokens/GPU/s"),
    ("executor.speedup_vs_deepspeed", "x"),
    ("service.hit_us_p50", "us"),
    ("service.hit_us_p99", "us"),
    ("service.miss_ms_p50", "ms"),
    ("service.miss_ms_p99", "ms"),
    ("service.handoff_us_p50", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_kreq", "count"),
    ("cache.coalesced_share", "ratio"),
    ("arbiter.try_lease_us_p50", "us"),
    ("arbiter.request_us_p50", "us"),
    ("arbiter.claim_us_p50", "us"),
    ("arbiter.claim_success_ratio", "ratio"),
    ("arbiter.cancel_us_p50", "us"),
    ("arbiter.denial_ratio", "ratio"),
    ("arbiter.job_wait_ticks_p99", "ticks"),
    ("lease.grow_us_p50", "us"),
    ("lease.shrink_us_p50", "us"),
    ("lease.renew_us_p50", "us"),
    ("lease.release_us_p50", "us"),
    ("lease.sync_us_p50", "us"),
    ("lease.sync_us_p99", "us"),
    ("pump.poll_us_p50", "us"),
    ("pump.poll_us_p99", "us"),
    ("pump.active_poll_ratio", "ratio"),
    ("telemetry.overhead_pct", "%"),
];

/// The per-layer values one traced run measured.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Adds every per-layer metric to the result line.
    pub fn emit(self, out: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            out.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// How much slower the traced half ran than the untraced half on the
/// same work, in percent.
pub fn overhead_pct(untraced_s: f64, traced_s: f64) -> f64 {
    100.0 * stats::ratio(traced_s - untraced_s, untraced_s)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args, &mut Outcome) = match (args.workload.as_str(), args.trace) {
        ("train_step", false) => train_step::run,
        ("train_step", true) => train_step::run_traced,
        ("plan_serving", false) => plan_serving::run,
        ("plan_serving", true) => plan_serving::run_traced,
        ("cluster_churn", false) => cluster_churn::run,
        ("cluster_churn", true) => cluster_churn::run_traced,
        (w, _) => {
            eprintln!("unknown workload {w:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    run(&args, &mut out);
    let error_rate = stats::ratio(out.failed as f64, out.attempted as f64);
    out.note("error_rate", error_rate, "ratio");
    out.note("host_speed_at_end", clock::host_factor(), "x nominal");
    for line in &out.notes {
        println!("{} {line}", args.workload);
    }
    for f in &out.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_documented_command_line() {
        let a = args("--workload hit --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("hit", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload x --seed -1 --seconds 10").is_err());
        assert!(args("--workload x --seed 1 --seconds 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--seed 1 --seconds 1").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --bogus 3").is_err());
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
