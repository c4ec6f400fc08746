//! `train_step`: the paper's Fig. 6 point as a closed loop with one
//! caller. Each step draws a 256-sequence CommonCrawl batch for GPT-7B at
//! a 128K context, solves it on a simulated 8×8 A100 cluster with
//! `SolverConfig::fast()` and executes the plan. DeepSpeed-Ulysses runs
//! on the same batches, outside the timed window, as the reference.

use flexsp_baselines::{DeepSpeedUlysses, TrainingSystem};
use flexsp_core::blaster::blast;
use flexsp_core::bucketing::{bucket_dp, token_error_ratio};
use flexsp_core::{
    place_shapes_within, plan_micro_batch_within, Executor, FlexSpSolver, GroupShape, NodeSlots,
    SolvedIteration, SolverConfig,
};
use flexsp_cost::CostModel;
use flexsp_data::{GlobalBatchLoader, LengthDistribution, Sequence};
use flexsp_model::{ActivationPolicy, ModelConfig};
use flexsp_sim::ClusterSpec;

use crate::clock::{host_factor, Timer};
use crate::report::Outcome;
use crate::spans::{Spans, Tracer};
use crate::{bench_span, checks, stats, Args};

const NODES: u32 = 8;
const CONTEXT: u64 = 128 * 1024;
const BATCH: usize = 256;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Setup {
    cost: CostModel,
    solver: FlexSpSolver,
    executor: Executor,
    deepspeed: DeepSpeedUlysses,
}

fn set_up(tr: &mut Tracer) -> Setup {
    let cluster = ClusterSpec::a100_cluster(NODES);
    let model = ModelConfig::gpt_7b(CONTEXT);
    let policy = ActivationPolicy::None;
    let cost = {
        let _span = bench_span!(tr.take(), "cost.fit");
        CostModel::fit(&cluster, &model, policy)
    };
    let deepspeed = DeepSpeedUlysses::new(cluster.clone(), model.clone(), policy)
        .expect("GPT-7B at 128K fits the 64-GPU cluster");
    Setup {
        solver: FlexSpSolver::new(cost.clone(), SolverConfig::fast()),
        executor: Executor::new(cluster, model, policy),
        cost,
        deepspeed,
    }
}

/// Per-step measurements of one phase.
#[derive(Default)]
struct Phase {
    /// Wall seconds of each whole step (draw + solve + execute).
    step_s: Vec<f64>,
    /// Wall seconds of each `solve_iteration` call.
    solve_s: Vec<f64>,
    /// [`host_factor`] right after each step.
    host: Vec<f64>,
    tokens: u64,
    flexsp_sim_s: f64,
    deepspeed_sim_s: f64,
    alltoall_s: f64,
    pred_err: Vec<f64>,
    micro_batches: Vec<f64>,
    trials: Vec<f64>,
    feasible_trials: Vec<f64>,
    model_builds: u64,
    milps: u64,
    nodes: u64,
    lp_solves: u64,
    pivots: u64,
    reuse_hits: u64,
    reuse_misses: u64,
    /// Token error ratio of each re-bucketed micro-batch (traced only).
    token_error: Vec<f64>,
    /// LP solves in the isolated planner re-runs (traced only).
    rerun_lps: u64,
}

impl Phase {
    /// `times` at nominal host speed: scaled by the median host factor
    /// of the phase (one factor per step would add its own noise, since
    /// steps differ in cost).
    fn nominal(&self, times: &[f64]) -> Vec<f64> {
        let host = stats::median(&self.host);
        times.iter().map(|t| t * host).collect()
    }
}

enum Stop {
    After(f64),
    Steps(usize),
}

fn run_phase(s: &mut Setup, seed: u64, stop: Stop, tr: &mut Tracer, out: &mut Outcome) -> Phase {
    let mut loader =
        GlobalBatchLoader::new(LengthDistribution::common_crawl(), BATCH, CONTEXT, seed);
    let mut p = Phase::default();
    loop {
        let done = match stop {
            Stop::After(secs) => p.step_s.iter().sum::<f64>() >= secs,
            Stop::Steps(n) => p.step_s.len() >= n,
        };
        if done {
            break;
        }
        let step = Timer::start();
        let batch = {
            let _span = bench_span!(tr.take(), "data.next_batch");
            loader.next_batch()
        };
        let solve = Timer::start();
        let solved = s.solver.solve_iteration(&batch);
        let solve_s = solve.secs();
        let executed = solved.as_ref().ok().map(|sol| {
            let _span = bench_span!(tr.take(), "executor.execute");
            s.executor.execute(&sol.plan)
        });
        p.step_s.push(step.secs());
        p.solve_s.push(solve_s);
        p.host.push(host_factor());

        // Outside the timed window: check the step, run the reference,
        // and (traced runs) re-run each layer on this step's inputs.
        let sol = match solved {
            Ok(sol) => sol,
            Err(e) => {
                out.check(Err(format!("solve_iteration failed: {e}")));
                continue;
            }
        };
        let report = match executed {
            Some(Ok(r)) => r,
            Some(Err(e)) => {
                out.check(Err(format!("executor rejected the plan: {e}")));
                continue;
            }
            None => unreachable!("a solved plan is always executed"),
        };
        out.check(check_step(&sol, &batch));
        let tokens: u64 = batch.iter().map(|q| q.len).sum();
        let ds = s
            .deepspeed
            .run_iteration(&batch)
            .expect("DeepSpeed-Ulysses runs every batch that fits the context");
        p.tokens += tokens;
        p.flexsp_sim_s += report.total_s;
        p.deepspeed_sim_s += ds.total_s;
        p.alltoall_s += report.alltoall_s;
        for (mb, r) in sol.plan.micro_batches.iter().zip(&report.micro_batches) {
            let pred = mb.predicted_time(&s.cost);
            p.pred_err
                .push(stats::ratio((pred - r.time_s).abs(), r.time_s));
        }
        let m = sol.plan.micro_batches.len();
        p.micro_batches.push(m as f64);
        p.trials.push(sol.trials.len() as f64);
        let feasible = sol.trials.iter().filter(|(_, t)| t.is_some()).count();
        p.feasible_trials
            .push(stats::ratio(feasible as f64, sol.trials.len() as f64));
        let st = &sol.stats;
        p.model_builds += u64::from(st.model_builds);
        p.milps += u64::from(st.search_steps);
        p.nodes += st.milp.nodes;
        p.lp_solves += st.milp.lp_solves;
        p.pivots += st.milp.pivots();
        p.reuse_hits += st.milp.basis_reuse_hits;
        p.reuse_misses += st.milp.basis_reuse_misses;
        if tr.on() {
            out.check(rerun_layers(s, &batch, m, tr, &mut p));
        }
    }
    p
}

/// The step's output check: every sequence planned exactly once, the
/// plan placed, and a finite predicted time. (The executor accepting
/// the plan is checked by the caller.)
fn check_step(sol: &SolvedIteration, batch: &[Sequence]) -> Result<(), String> {
    checks::covers_exactly(&sol.plan, batch)?;
    checks::placed(&sol.plan)?;
    if !(sol.predicted_s.is_finite() && sol.predicted_s > 0.0) {
        return Err(format!("predicted_s = {}", sol.predicted_s));
    }
    Ok(())
}

/// Re-runs blast, bucketing, micro-batch planning and placement on the
/// step's own batch at the chosen micro-batch count, each under its own
/// span. Excluded from every end-to-end time. Fails if a re-planned
/// micro-batch does not place.
fn rerun_layers(
    s: &Setup,
    batch: &[Sequence],
    m: usize,
    tr: &mut Tracer,
    p: &mut Phase,
) -> Result<(), String> {
    let cfg = s.solver.config();
    let micro_batches = {
        let _span = bench_span!(tr.take(), "blaster.blast");
        blast(batch, m, cfg.sort_by_length)
    };
    let slots = NodeSlots::new(s.cost.topology());
    for mb in &micro_batches {
        let buckets = {
            let _span = bench_span!(tr.take(), "bucketing.bucket_dp");
            bucket_dp(mb, cfg.num_buckets)
        };
        p.token_error.push(token_error_ratio(&buckets));
        let planned = {
            let _span = bench_span!(tr.take(), "planner.plan_micro_batch");
            plan_micro_batch_within(&s.cost, &buckets, &slots, &cfg.planner)
        };
        let Ok(plan) = planned else { continue };
        p.rerun_lps += plan.stats.milp.lp_solves;
        let shapes: Vec<GroupShape> = plan.groups.iter().map(|g| g.shape).collect();
        let placed = {
            let _span = bench_span!(tr.take(), "placement.place_shapes");
            place_shapes_within(&slots, &shapes)
        };
        placed.map_err(|e| format!("re-planned micro-batch does not place: {e}"))?;
    }
    Ok(())
}

/// Simulated FlexSP training throughput and its speedup over
/// DeepSpeed-Ulysses on the same batches.
fn quality(p: &Phase, gpus: f64) -> (f64, f64) {
    let tokens_per_gpu_s = stats::ratio(p.tokens as f64, p.flexsp_sim_s * gpus);
    (
        tokens_per_gpu_s,
        stats::ratio(p.deepspeed_sim_s, p.flexsp_sim_s),
    )
}

/// The end-to-end run: set up `SETUPS` times (median `setup_s`), then steps
/// for `args.seconds` of measured time.
pub fn run(args: &Args, out: &mut Outcome) {
    let mut tr = Tracer::new(false);
    let mut setups = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        let t = Timer::start();
        setup = Some(set_up(&mut tr));
        setups.push(t.secs() * host_factor());
    }
    let mut s = setup.expect("set up at least once");
    let p = run_phase(&mut s, args.seed, Stop::After(args.seconds), &mut tr, out);
    let steps = p.step_s.len() as f64;
    let step_s = p.nominal(&p.step_s);
    let solve_s = p.nominal(&p.solve_s);
    let steps_per_s = steps / step_s.iter().sum::<f64>();
    let (tokens_per_gpu_s, speedup) = quality(&p, f64::from(s.cost.num_gpus()));
    crate::end_to_end(
        out,
        stats::median(&setups),
        steps_per_s,
        1e3 * stats::quantile(&step_s, 0.5),
        1e3 * stats::quantile(&step_s, 0.9),
    );
    out.note("steps_per_s", steps_per_s, "1/s");
    out.note(
        "step_solve_ms_p50",
        1e3 * stats::quantile(&solve_s, 0.5),
        "ms",
    );
    out.note(
        "step_solve_ms_p90",
        1e3 * stats::quantile(&solve_s, 0.9),
        "ms",
    );
    out.note(
        "raw_steps_per_s",
        steps / p.step_s.iter().sum::<f64>(),
        "1/s",
    );
    out.note("host_speed", stats::median(&p.host), "x nominal");
    out.note("sim_tokens_per_gpu_s", tokens_per_gpu_s, "tokens/GPU/s");
    out.note("sim_speedup_vs_deepspeed", speedup, "x");
    out.note("steps", steps, "count");
}

/// The traced run: the same steps untraced, then traced, with the
/// per-layer numbers from the traced half.
pub fn run_traced(args: &Args, out: &mut Outcome) {
    let mut off = Tracer::new(false);
    let mut s = set_up(&mut off);
    let untraced = run_phase(
        &mut s,
        args.seed,
        Stop::After(args.seconds / 2.0),
        &mut off,
        out,
    );
    let mut tr = Tracer::new(true);
    let mut s = set_up(&mut tr);
    let n = untraced.step_s.len();
    let p = run_phase(&mut s, args.seed, Stop::Steps(n), &mut tr, out);
    let spans = match Spans::drain() {
        Ok(spans) => spans,
        Err(e) => {
            out.check(Err(e));
            Spans::default()
        }
    };
    let gpus = f64::from(s.cost.num_gpus());
    let (tokens_per_gpu_s, speedup) = quality(&p, gpus);
    let mbs = p.micro_batches.iter().sum::<f64>();
    let pool = s.executor.pool().stats();
    let mut layer = crate::Layers::default();
    layer.set("data.next_batch_us", spans.mean_us("data.next_batch"));
    layer.set("cost.fit_ms", spans.mean_us("cost.fit") / 1e3);
    layer.set("workflow.trials_per_step", stats::mean(&p.trials));
    layer.set(
        "workflow.feasible_trial_ratio",
        stats::mean(&p.feasible_trials),
    );
    layer.set("blaster.blast_us", spans.mean_us("blaster.blast"));
    layer.set("blaster.micro_batches", stats::mean(&p.micro_batches));
    layer.set(
        "bucketing.bucket_dp_us",
        spans.mean_us("bucketing.bucket_dp"),
    );
    layer.set("bucketing.token_error_ratio", stats::mean(&p.token_error));
    layer.set(
        "planner.plan_mb_ms_p50",
        spans.quantile_us("planner.plan_micro_batch", 0.5) / 1e3,
    );
    layer.set(
        "planner.plan_mb_ms_p90",
        spans.quantile_us("planner.plan_micro_batch", 0.9) / 1e3,
    );
    layer.set("planner.milps_per_mb", stats::ratio(p.milps as f64, mbs));
    layer.set(
        "planner.model_builds_per_mb",
        stats::ratio(p.model_builds as f64, mbs),
    );
    layer.set("milp.nodes_per_mb", stats::ratio(p.nodes as f64, mbs));
    layer.set(
        "milp.lp_solves_per_mb",
        stats::ratio(p.lp_solves as f64, mbs),
    );
    layer.set(
        "milp.pivots_per_lp",
        stats::ratio(p.pivots as f64, p.lp_solves as f64),
    );
    let planner_us: u64 = spans.ticks("planner.plan_micro_batch").iter().sum();
    layer.set(
        "milp.us_per_lp",
        stats::ratio(planner_us as f64, p.rerun_lps as f64),
    );
    layer.set(
        "milp.basis_reuse_rate",
        stats::ratio(p.reuse_hits as f64, (p.reuse_hits + p.reuse_misses) as f64),
    );
    layer.set(
        "placement.place_us",
        spans.mean_us("placement.place_shapes"),
    );
    layer.set("executor.execute_us", spans.mean_us("executor.execute"));
    layer.set("executor.pred_err", stats::mean(&p.pred_err));
    layer.set(
        "executor.alltoall_share",
        stats::ratio(p.alltoall_s, p.flexsp_sim_s),
    );
    layer.set(
        "executor.comm_reuse_ratio",
        stats::ratio(pool.hits as f64, (pool.hits + pool.creations) as f64),
    );
    layer.set("executor.sim_tokens_per_gpu_s", tokens_per_gpu_s);
    layer.set("executor.speedup_vs_deepspeed", speedup);
    layer.set(
        "telemetry.overhead_pct",
        crate::overhead_pct(
            untraced.nominal(&untraced.step_s).iter().sum(),
            p.nominal(&p.step_s).iter().sum(),
        ),
    );
    layer.emit(out);
}
