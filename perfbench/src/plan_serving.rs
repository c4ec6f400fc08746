//! `plan_serving`: two tenant `SolverService`s with one worker each share
//! one `SharedPlanCache` of the default capacity (128 plans). One caller
//! alternates between the tenants and keeps one request outstanding per
//! tenant. Each request is a recurring batch shape — 16 Wikipedia
//! sequences for GPT-7B at a 48K context on a 2×8 cluster — with fresh
//! sequence ids, drawn from a Zipf popularity over a universe of shapes
//! larger than the cache.

use flexsp_core::{FlexSpSolver, PlanStats, SharedPlanCache, SolverConfig, SolverService};
use flexsp_cost::CostModel;
use flexsp_data::{GlobalBatchLoader, LengthDistribution, Sequence};
use flexsp_model::{ActivationPolicy, ModelConfig};
use flexsp_sim::ClusterSpec;
use flexsp_telemetry::SpanGuard;

use crate::clock::{host_factor, Timer};
use crate::report::Outcome;
use crate::spans::{Spans, Tracer};
use crate::{bench_span, checks, stats, Args};

const NODES: u32 = 2;
const CONTEXT: u64 = 48 * 1024;
const SEQS: usize = 16;
/// Distinct batch shapes requests draw from (the cache holds 128).
const UNIVERSE: usize = 192;
/// Zipf exponent of shape popularity.
const ZIPF_S: f64 = 1.0;
/// Requests per deck: each shape appears in a deck as often as its
/// Zipf share says, in a seeded random order, so the request mix (and
/// with it the miss count) does not vary with the seed.
const DECK: usize = 1024;
/// Requests served during set-up, so the measured window starts from a
/// filled cache.
const WARMUP: usize = 64;
const CACHE_CAPACITY: usize = 128;
/// Requests between two host measurements (see [`serve`]).
const BLOCK: usize = 64;

/// SplitMix64: the request stream's seeded generator.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

struct Setup {
    /// Sequence lengths of each shape, most popular first.
    universe: Vec<Vec<u64>>,
    /// Shape ranks of the current deck, dealt from the back.
    deck: Vec<usize>,
    /// Every rank as often as its share of a deck.
    full_deck: Vec<usize>,
    rng: Rng,
    next_id: u64,
    cache: SharedPlanCache,
    tenants: [SolverService; 2],
}

impl Setup {
    /// The next request: the next shape of the shuffled deck, with
    /// fresh ids.
    fn next_request(&mut self) -> Vec<Sequence> {
        if self.deck.is_empty() {
            self.deck = self.full_deck.clone();
            // Fisher-Yates with the run's seeded generator.
            for i in (1..self.deck.len()).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.deck.swap(i, j);
            }
        }
        let rank = self.deck.pop().expect("a refilled deck is never empty");
        let base = self.next_id;
        self.next_id += SEQS as u64;
        self.universe[rank]
            .iter()
            .enumerate()
            .map(|(i, &len)| Sequence::new(base + i as u64, len))
            .collect()
    }

    fn shut_down(self) {
        for t in self.tenants {
            t.shutdown();
        }
    }
}

fn set_up(seed: u64, tr: &mut Tracer, out: &mut Outcome) -> Setup {
    let cluster = ClusterSpec::a100_cluster(NODES);
    let model = ModelConfig::gpt_7b(CONTEXT);
    let cost = {
        let _span = bench_span!(tr.take(), "cost.fit");
        CostModel::fit(&cluster, &model, ActivationPolicy::None)
    };
    let mut loader = GlobalBatchLoader::new(LengthDistribution::wikipedia(), SEQS, CONTEXT, seed);
    let mut universe: Vec<Vec<u64>> = Vec::with_capacity(UNIVERSE);
    while universe.len() < UNIVERSE {
        let mut lens: Vec<u64> = loader.next_batch().iter().map(|s| s.len).collect();
        lens.sort_unstable();
        if !universe.contains(&lens) {
            universe.push(lens);
        }
    }
    let weights: Vec<f64> = (1..=UNIVERSE).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let full_deck = weights
        .iter()
        .enumerate()
        .flat_map(|(rank, w)| {
            let copies = ((DECK as f64 * w / total).round() as usize).max(1);
            std::iter::repeat_n(rank, copies)
        })
        .collect();
    let solver = FlexSpSolver::new(cost, SolverConfig::fast());
    let cache = SharedPlanCache::new(CACHE_CAPACITY);
    let tenants = [
        SolverService::spawn_with_shared_cache(solver.clone(), 1, &cache),
        SolverService::spawn_with_shared_cache(solver, 1, &cache),
    ];
    let mut s = Setup {
        universe,
        deck: Vec::new(),
        full_deck,
        rng: Rng(seed ^ 0x5EED_5EED_5EED_5EED),
        next_id: 0,
        cache,
        tenants,
    };
    let mut off = Tracer::new(false);
    serve(&mut s, Stop::Requests(WARMUP), &mut off, out);
    s
}

enum Stop {
    After(f64),
    Requests(usize),
}

/// One delivered plan.
struct Delivery {
    latency_s: f64,
    from_cache: bool,
    solve_wall_s: f64,
    stats: PlanStats,
    micro_batches: usize,
    trials: usize,
    feasible_trials: usize,
}

/// What one serving phase measured.
struct Served {
    deliveries: Vec<Delivery>,
    /// Seconds the blocks took.
    busy_s: f64,
    /// [`host_factor`] after each block.
    hosts: Vec<f64>,
}

impl Served {
    /// The median host factor: times scaled by it are at nominal host
    /// speed.
    fn host(&self) -> f64 {
        stats::median(&self.hosts)
    }
}

struct InFlight {
    batch: Vec<Sequence>,
    timer: Timer,
    span: SpanGuard,
}

/// The closed loop: one request outstanding per tenant, received in
/// alternation, until `stop`. Every [`BLOCK`] requests the loop lets both
/// tenants drain and measures the host with nothing else running, so the
/// run's times can be put at nominal host speed.
fn serve(s: &mut Setup, stop: Stop, tr: &mut Tracer, out: &mut Outcome) -> Served {
    let wall = Timer::start();
    let mut submitted = 0usize;
    let mut served = Served {
        deliveries: Vec::new(),
        busy_s: 0.0,
        hosts: Vec::new(),
    };
    let mut in_flight: [Option<InFlight>; 2] = [None, None];
    let more = |submitted: usize| match stop {
        Stop::After(secs) => wall.secs() < secs,
        Stop::Requests(n) => submitted < n,
    };
    let submit = |s: &mut Setup, t: usize, tr: &mut Tracer, submitted: &mut usize| {
        let batch = s.next_request();
        let span = bench_span!(tr.take(), "service.request", "req" => *submitted as u64);
        let timer = Timer::start();
        s.tenants[t].submit(batch.clone());
        *submitted += 1;
        InFlight { batch, timer, span }
    };
    while more(submitted) {
        let block = Timer::start();
        let end = submitted + BLOCK;
        let open = |submitted: usize| more(submitted) && submitted < end;
        for (t, slot) in in_flight.iter_mut().enumerate() {
            if open(submitted) {
                *slot = Some(submit(s, t, tr, &mut submitted));
            }
        }
        while in_flight.iter().any(Option::is_some) {
            for (t, slot) in in_flight.iter_mut().enumerate() {
                let Some(req) = slot.take() else {
                    continue;
                };
                let result = s.tenants[t].recv_plan();
                let latency_s = req.timer.secs();
                drop(req.span);
                match result {
                    Ok(sol) => {
                        out.check(
                            checks::covers_exactly(&sol.plan, &req.batch)
                                .and(checks::placed(&sol.plan)),
                        );
                        served.deliveries.push(Delivery {
                            latency_s,
                            from_cache: sol.from_cache,
                            solve_wall_s: sol.solve_wall_s,
                            stats: sol.stats,
                            micro_batches: sol.plan.micro_batches.len(),
                            trials: sol.trials.len(),
                            feasible_trials: sol.trials.iter().filter(|(_, p)| p.is_some()).count(),
                        });
                    }
                    Err(e) => out.check(Err(format!("tenant {t}: {e}"))),
                }
                if open(submitted) {
                    *slot = Some(submit(s, t, tr, &mut submitted));
                }
            }
        }
        served.busy_s += block.secs();
        served.hosts.push(host_factor());
    }
    served
}

/// The end-to-end run: set up three times (median `setup_s`), then serve
/// for `args.seconds`. Times are reported at nominal host speed (see
/// [`host_factor`]).
pub fn run(args: &Args, out: &mut Outcome) {
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..3 {
        if let Some(old) = setup.take() {
            old.shut_down();
        }
        let t = Timer::start();
        setup = Some(set_up(args.seed, &mut off, out));
        setups.push(t.secs() * host_factor());
    }
    let mut s = setup.expect("set up at least once");
    let before = s.cache.stats();
    let served = serve(&mut s, Stop::After(args.seconds), &mut off, out);
    let after = s.cache.stats();
    s.shut_down();
    // Latencies in ms at nominal host speed.
    let host = served.host();
    let lat: Vec<f64> = served
        .deliveries
        .iter()
        .map(|d| d.latency_s * host * 1e3)
        .collect();
    let plans_per_s = lat.len() as f64 / (served.busy_s * host);
    crate::end_to_end(
        out,
        stats::median(&setups),
        plans_per_s,
        stats::quantile(&lat, 0.5),
        stats::quantile(&lat, 0.9),
    );
    out.note("plans_per_s", plans_per_s, "1/s");
    out.note("plan_ms_p50", stats::quantile(&lat, 0.5), "ms");
    out.note("plan_ms_p99", stats::quantile(&lat, 0.99), "ms");
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    out.note(
        "cache_hit_ratio",
        stats::ratio(hits as f64, lat.len() as f64),
        "ratio",
    );
    out.note("cache_misses", misses as f64, "count");
    out.note("requests", lat.len() as f64, "count");
    out.note("raw_plans_per_s", lat.len() as f64 / served.busy_s, "1/s");
    out.note("host_speed", host, "x nominal");
}

/// The traced run: the same requests untraced, then traced, each from a
/// fresh set-up; per-layer numbers from the traced half.
pub fn run_traced(args: &Args, out: &mut Outcome) {
    let mut off = Tracer::new(false);
    let mut s = set_up(args.seed, &mut off, out);
    let untraced = serve(&mut s, Stop::After(args.seconds / 2.0), &mut off, out);
    s.shut_down();
    let mut tr = Tracer::new(true);
    let mut s = set_up(args.seed, &mut tr, out);
    let before = s.cache.stats();
    let served = serve(
        &mut s,
        Stop::Requests(untraced.deliveries.len()),
        &mut tr,
        out,
    );
    let after = s.cache.stats();
    s.shut_down();
    let spans = match Spans::drain() {
        Ok(spans) => spans,
        Err(e) => {
            out.check(Err(e));
            Spans::default()
        }
    };
    let requests = served.deliveries.len() as f64;
    let mut hit_us = Vec::new();
    let mut miss_us = Vec::new();
    let mut handoff_us = Vec::new();
    for sample in spans.get("service.request") {
        let Some(d) = sample.arg.and_then(|i| served.deliveries.get(i as usize)) else {
            continue;
        };
        if d.from_cache {
            hit_us.push(sample.self_us);
        } else {
            miss_us.push(sample.self_us);
            handoff_us.push(sample.self_us as f64 - d.solve_wall_s * 1e6);
        }
    }
    let misses: Vec<&Delivery> = served.deliveries.iter().filter(|d| !d.from_cache).collect();
    let mut st = PlanStats::default();
    for d in &misses {
        st.absorb(&d.stats);
    }
    let mbs: f64 = misses.iter().map(|d| d.micro_batches as f64).sum();
    let hits = (after.hits - before.hits) as f64;
    let lookups = hits + (after.misses - before.misses + after.coalesced - before.coalesced) as f64;
    let mut layer = crate::Layers::default();
    layer.set("cost.fit_ms", spans.mean_us("cost.fit") / 1e3);
    layer.set(
        "workflow.trials_per_step",
        stats::mean(&misses.iter().map(|d| d.trials as f64).collect::<Vec<_>>()),
    );
    layer.set(
        "workflow.feasible_trial_ratio",
        stats::ratio(
            misses.iter().map(|d| d.feasible_trials as f64).sum(),
            misses.iter().map(|d| d.trials as f64).sum(),
        ),
    );
    layer.set(
        "blaster.micro_batches",
        stats::ratio(mbs, misses.len() as f64),
    );
    layer.set(
        "planner.milps_per_mb",
        stats::ratio(f64::from(st.search_steps), mbs),
    );
    layer.set(
        "planner.model_builds_per_mb",
        stats::ratio(f64::from(st.model_builds), mbs),
    );
    layer.set("milp.nodes_per_mb", stats::ratio(st.milp.nodes as f64, mbs));
    layer.set(
        "milp.lp_solves_per_mb",
        stats::ratio(st.milp.lp_solves as f64, mbs),
    );
    layer.set(
        "milp.pivots_per_lp",
        stats::ratio(st.milp.pivots() as f64, st.milp.lp_solves as f64),
    );
    layer.set("milp.basis_reuse_rate", st.milp.basis_reuse_rate());
    layer.set("service.hit_us_p50", stats::tick_quantile(&hit_us, 0.5));
    layer.set("service.hit_us_p99", stats::tick_quantile(&hit_us, 0.99));
    layer.set(
        "service.miss_ms_p50",
        stats::tick_quantile(&miss_us, 0.5) / 1e3,
    );
    layer.set(
        "service.miss_ms_p99",
        stats::tick_quantile(&miss_us, 0.99) / 1e3,
    );
    layer.set("service.handoff_us_p50", stats::median(&handoff_us));
    layer.set("cache.hit_ratio", stats::ratio(hits, lookups));
    layer.set(
        "cache.evictions_per_kreq",
        stats::ratio(1e3 * (after.evictions - before.evictions) as f64, requests),
    );
    layer.set(
        "cache.coalesced_share",
        stats::ratio((after.coalesced - before.coalesced) as f64, requests),
    );
    layer.set(
        "telemetry.overhead_pct",
        crate::overhead_pct(
            untraced.busy_s * untraced.host(),
            served.busy_s * served.host(),
        ),
    );
    layer.emit(out);
}
