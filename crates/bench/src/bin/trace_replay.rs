//! Replays a generated job trace through the real arbiter + solver
//! stack (event-loop pumping on a `LogicalClock`) and proves the run
//! deterministic: the same seed is replayed **twice** and the two
//! observation-log hashes must match bit-for-bit, or the process exits
//! nonzero. Prints a flat JSON summary of the observations.
//!
//! ```text
//! # Flagship load: 1000 jobs on 16x8 GPUs, planning every 16th job:
//! cargo run --release -p flexsp-bench --bin trace_replay
//!
//! # CI smoke: 1000 jobs, planning every 64th job, double-run identical:
//! cargo run --release -p flexsp-bench --bin trace_replay -- --quick
//!
//! # Knobs:
//! cargo run --release -p flexsp-bench --bin trace_replay -- \
//!     --jobs 2000 --nodes 32 --seed 7 --plan-every 8 --shards 4
//!
//! # Observability: dump a Perfetto-loadable chrome trace and a
//! # Prometheus snapshot of the metrics the second run added:
//! cargo run --release -p flexsp-bench --bin trace_replay -- \
//!     --quick --trace-out trace.json --metrics-out metrics.prom
//! ```

use flexsp_telemetry as tel;
use flexsp_trace::{generate, replay, ReplayConfig, TraceConfig};

fn flag(args: &[String], name: &str) -> Option<u64> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("{name} requires an integer value");
                std::process::exit(2);
            })
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = flag(&args, "--jobs").unwrap_or(1000) as usize;
    let nodes = flag(&args, "--nodes").unwrap_or(16) as u32;
    let seed = flag(&args, "--seed").unwrap_or(42);
    let plan_every = flag(&args, "--plan-every").unwrap_or(if quick { 64 } else { 16 });
    let shards = flag(&args, "--shards").unwrap_or(4) as u32;
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned());
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1).cloned());
    let metrics_out = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1).cloned());

    let trace = generate(&TraceConfig::new(jobs, nodes, seed));
    let mut cfg = ReplayConfig::new();
    cfg.shards = shards;
    cfg.plan_every = plan_every;

    let first = replay(&trace, &cfg);
    // Only the second run is traced and measured: the span ring drains
    // into exactly one replay's timeline, the metrics are the registry's
    // change over that run alone, and the hash check still proves the
    // tracer never leaks into the observation log.
    let before = tel::metrics_snapshot();
    if trace_out.is_some() {
        tel::tracing_start();
    }
    let second = replay(&trace, &cfg);
    if let Some(path) = &trace_out {
        tel::tracing_stop();
        std::fs::write(path, tel::drain_chrome_trace()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }
    if let Some(path) = &metrics_out {
        let run = tel::metrics_snapshot().since(&before);
        std::fs::write(path, run.to_prometheus()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }
    if first.log_hash != second.log_hash || first.log != second.log {
        eprintln!(
            "NONDETERMINISM: seed {seed} replayed to {:016x} then {:016x}",
            first.log_hash, second.log_hash
        );
        std::process::exit(1);
    }

    let s = &first.stats;
    let json = format!(
        "{{\n  \"jobs\": {},\n  \"events\": {},\n  \"horizon_ticks\": {},\n  \
         \"log_lines\": {},\n  \"log_hash\": \"{:016x}\",\n  \"admitted\": {},\n  \
         \"immediate_grants\": {},\n  \"queued_claims\": {},\n  \"never_admitted\": {},\n  \
         \"reaps\": {},\n  \"preempted_jobs\": {},\n  \"gpus_moved\": {},\n  \
         \"wait_mean_ticks\": {:.3},\n  \"wait_p50_ticks\": {},\n  \"wait_p99_ticks\": {},\n  \
         \"wait_max_ticks\": {},\n  \"makespan_ticks\": {},\n  \"maintains\": {},\n  \
         \"plans\": {},\n  \"replans\": {},\n  \"plan_failures\": {}\n}}\n",
        s.jobs,
        trace.events.len(),
        trace.horizon,
        first.log.len(),
        first.log_hash,
        s.admitted,
        s.immediate_grants,
        s.queued_claims,
        s.never_admitted,
        s.reaps,
        s.preempted_jobs,
        s.gpus_moved,
        s.wait_mean,
        s.wait_p50,
        s.wait_p99,
        s.wait_max,
        s.makespan,
        s.maintains,
        s.plans,
        s.replans,
        s.plan_failures,
    );
    print!("{json}");
    eprintln!(
        "trace_replay: seed {seed} deterministic across two runs \
         (hash {:016x}, {} log lines)",
        first.log_hash,
        first.log.len()
    );
    let a = &first.arbiter;
    eprintln!(
        "arbiter: grants={} denials={} reaps={} gpus_moved={}",
        a.grants, a.denials, a.reaps, a.gpus_moved
    );
    if let Some(path) = out {
        std::fs::write(&path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }
}
