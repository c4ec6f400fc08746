//! `cluster_churn`: a benchmark-owned walker steps through a seeded
//! `flexsp_trace::generate` job trace on a contended 16×8 cluster,
//! calling the arbiter's public API directly on a `LogicalClock` with a
//! `MaintenancePump`, in `flexsp_trace::replay`'s visit order: poll,
//! apply the tick's events, claim queued tickets, then `Lease::sync`
//! every live lease. There is no planning. Each pass walks the whole
//! trace on a fresh arbiter; a run makes passes until its time is up.

use std::collections::BTreeMap;
use std::sync::Arc;

use flexsp_arbiter::{
    ClusterArbiter, JobId, Lease, LeaseEvent, LogicalClock, MaintenancePump, Priority, SlotRequest,
    Ticket,
};
use flexsp_sim::Topology;
use flexsp_trace::{generate, replay, ReplayConfig, Trace, TraceConfig, TraceEvent, TraceOp};

use crate::clock::{host_factor, Timer};
use crate::report::Outcome;
use crate::spans::{Spans, Tracer, SPAN_BUDGET};
use crate::stats::{self, NanoHistogram};
use crate::{bench_span, checks, Args};

const NODES: u32 = 16;
/// Jobs in the trace (the flagship `TraceConfig::standard` has 1000).
const JOBS: usize = 3000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The public calls the walker makes, for per-kind span sampling.
#[derive(Debug, Clone, Copy)]
enum Call {
    TryLease,
    Request,
    Claim,
    Cancel,
    Grow,
    Shrink,
    Renew,
    Release,
    Sync,
    Poll,
}

const CALLS: usize = 10;

/// Times every public call (end-to-end latency) and, in traced runs,
/// opens a span on a sample of them.
struct Meter {
    /// Latencies of the current pass.
    hist: NanoHistogram,
    ops: u64,
    op_ns: u64,
    /// Throughput and latency quantiles of each finished pass.
    passes: Vec<PassTiming>,
    tracer: Tracer,
    /// Calls seen per kind, and the sampling stride per kind.
    seen: [u64; CALLS],
    every: [u64; CALLS],
}

impl Meter {
    fn new(tracer: Tracer) -> Self {
        Self {
            hist: NanoHistogram::new(),
            ops: 0,
            op_ns: 0,
            passes: Vec::new(),
            tracer,
            seen: [0; CALLS],
            every: [1; CALLS],
        }
    }

    /// Whether this call of `kind` gets a span.
    fn sample(&mut self, kind: Call) -> bool {
        let k = kind as usize;
        self.seen[k] += 1;
        self.tracer.on() && self.seen[k].is_multiple_of(self.every[k]) && self.tracer.take()
    }

    /// Runs one public call under the clock.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Timer::start();
        let out = f();
        let ns = t.nanos();
        self.hist.record(ns);
        self.ops += 1;
        self.op_ns += ns;
        out
    }
}

/// One timed pass: calls per second of time inside the calls, latency
/// quantiles in nanoseconds, and the host's speed right after it.
#[derive(Debug, Clone, Copy)]
struct PassTiming {
    ops_per_s: f64,
    p50_ns: f64,
    p90_ns: f64,
    p99_ns: f64,
    /// [`host_factor`] measured right after the pass.
    host: f64,
}

impl PassTiming {
    /// The pass's figures on a host of nominal speed.
    fn normalized(&self) -> PassTiming {
        PassTiming {
            ops_per_s: self.ops_per_s / self.host,
            p50_ns: self.p50_ns * self.host,
            p90_ns: self.p90_ns * self.host,
            p99_ns: self.p99_ns * self.host,
            host: 1.0,
        }
    }
}

/// What one pass observed; two passes over one trace must agree, and
/// with `flexsp_trace::replay`.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    jobs: usize,
    admitted: usize,
    immediate_grants: usize,
    queued_claims: usize,
    reaps: usize,
    preempted_jobs: usize,
    gpus_moved: u64,
    maintains: u64,
    waits: Vec<u64>,
    try_leases: u64,
    denials: u64,
    claims: u64,
    claimed: u64,
    polls: u64,
    active_polls: u64,
}

/// One walk over the trace on a fresh arbiter.
struct Pass<'a> {
    trace: &'a Trace,
    clock: LogicalClock,
    arb: ClusterArbiter,
    pump: MaintenancePump,
    held: Vec<(u64, Lease)>,
    tickets: Vec<(u64, Ticket)>,
    arrived: BTreeMap<u64, u64>,
    admitted: BTreeMap<u64, u64>,
    lost: BTreeMap<u64, u64>,
    c: Counts,
}

impl<'a> Pass<'a> {
    fn new(trace: &'a Trace) -> Self {
        let cfg = ReplayConfig::new();
        let topo = Topology::new(trace.nodes, trace.node_width);
        let clock = LogicalClock::new();
        let arb = ClusterArbiter::with_clock(&topo, cfg.policy, Arc::new(clock.clone()))
            .with_shards(cfg.shards)
            .with_grace(cfg.grace.max(1));
        Self {
            trace,
            clock,
            pump: MaintenancePump::new(arb.clone()),
            arb,
            held: Vec::new(),
            tickets: Vec::new(),
            arrived: BTreeMap::new(),
            admitted: BTreeMap::new(),
            lost: BTreeMap::new(),
            c: Counts::default(),
        }
    }

    /// Walks the whole trace, then releases what is still held. Outside
    /// the timed calls, checks `audit()` and that no GPU sits in two
    /// live leases: after every visit when `every_visit`, else at the end.
    fn run(mut self, m: &mut Meter, out: &mut Outcome, every_visit: bool) -> Counts {
        let mut first = 0usize;
        let mut now = 0u64;
        self.visit(0, &mut first, m);
        if every_visit {
            out.check(self.check());
        }
        loop {
            let horizon = self.trace.horizon;
            let next_trace = self
                .trace
                .events
                .get(first)
                .map(|e| e.at.max(now + 1))
                .filter(|&t| t <= horizon);
            let next_deadline = m
                .time(|| self.pump.next_deadline())
                .map(|d| d.max(now + 1))
                .filter(|&d| d <= horizon);
            let next = match (next_trace, next_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let Some(t) = next else { break };
            self.clock.advance(t - now);
            now = t;
            self.visit(t, &mut first, m);
            if every_visit {
                out.check(self.check());
            }
        }
        for (_, lease) in std::mem::take(&mut self.held) {
            let _span = bench_span!(m.sample(Call::Release), "lease.release");
            m.time(|| drop(lease));
        }
        for (_, t) in std::mem::take(&mut self.tickets) {
            let _span = bench_span!(m.sample(Call::Cancel), "arbiter.cancel");
            m.time(|| self.arb.cancel(&t));
        }
        out.check(self.check());
        for (job, at) in &self.admitted {
            self.c.waits.push(at - self.arrived[job]);
        }
        self.c.waits.sort_unstable();
        self.c
    }

    fn check(&self) -> Result<(), String> {
        self.arb.audit()?;
        checks::leases_disjoint(self.held.iter().map(|(_, l)| l))
    }

    fn admit(&mut self, job: u64, lease: Lease, now: u64, immediate: bool) {
        self.admitted.entry(job).or_insert(now);
        self.c.admitted += 1;
        if immediate {
            self.c.immediate_grants += 1;
        } else {
            self.c.queued_claims += 1;
        }
        self.held.push((job, lease));
    }

    fn visit(&mut self, now: u64, first: &mut usize, m: &mut Meter) {
        let polled = {
            let _span = bench_span!(m.sample(Call::Poll), "pump.poll");
            m.time(|| self.pump.poll())
        };
        self.c.polls += 1;
        self.c.active_polls += u64::from(polled.is_some());
        let report = polled.unwrap_or_default();
        let events = &self.trace.events;
        let start = *first;
        while *first < events.len() && events[*first].at <= now {
            *first += 1;
        }
        if report.is_quiet() && start == *first {
            return;
        }
        if !report.is_quiet() {
            self.c.maintains += 1;
            self.c.reaps += report.expired.len();
        }
        for i in start..*first {
            self.apply(self.trace.events[i], now, m);
        }

        let mut claimed = Vec::new();
        let mut waiting = Vec::new();
        for (job, t) in std::mem::take(&mut self.tickets) {
            let lease = {
                let _span = bench_span!(m.sample(Call::Claim), "arbiter.claim");
                m.time(|| self.arb.claim(&t))
            };
            self.c.claims += 1;
            match lease {
                Some(l) => claimed.push((job, l)),
                None => waiting.push((job, t)),
            }
        }
        self.tickets = waiting;
        self.c.claimed += claimed.len() as u64;
        for (job, lease) in claimed {
            self.admit(job, lease, now, false);
        }

        let mut lapsed = Vec::new();
        for (i, (job, lease)) in self.held.iter_mut().enumerate() {
            let ev = {
                let _span = bench_span!(m.sample(Call::Sync), "lease.sync");
                m.time(|| lease.sync())
            };
            match ev {
                LeaseEvent::Resized { lost } => {
                    let total = self.lost.entry(*job).or_insert(0);
                    if *total == 0 {
                        self.c.preempted_jobs += 1;
                    }
                    *total += u64::from(lost);
                    self.c.gpus_moved += u64::from(lost);
                }
                LeaseEvent::Lapsed => lapsed.push(i),
                LeaseEvent::Unchanged => {}
            }
        }
        for i in lapsed.into_iter().rev() {
            let (_, lease) = self.held.remove(i);
            let _span = bench_span!(m.sample(Call::Release), "lease.release");
            m.time(|| drop(lease));
        }
    }

    fn apply(&mut self, ev: TraceEvent, now: u64, m: &mut Meter) {
        let job = ev.job;
        let held = self.held.iter().position(|(j, _)| *j == job);
        match ev.op {
            TraceOp::Arrive {
                gpus,
                priority,
                term,
                immediate,
            } => {
                self.c.jobs += 1;
                self.arrived.insert(job, now);
                let mut req = SlotRequest::new(JobId(job), gpus).with_priority(Priority(priority));
                if let Some(t) = term {
                    req = req.with_term(t);
                }
                if immediate {
                    let granted = {
                        let _span = bench_span!(m.sample(Call::TryLease), "arbiter.try_lease");
                        m.time(|| self.arb.try_lease(req))
                    };
                    self.c.try_leases += 1;
                    match granted {
                        Ok(lease) => return self.admit(job, lease, now, true),
                        Err(_) => self.c.denials += 1,
                    }
                }
                let queued = {
                    let _span = bench_span!(m.sample(Call::Request), "arbiter.request");
                    m.time(|| self.arb.request(req))
                };
                if let Ok(t) = queued {
                    self.tickets.push((job, t));
                }
            }
            TraceOp::Grow { gpus } => {
                if let Some(i) = held {
                    let lease = &mut self.held[i].1;
                    let _span = bench_span!(m.sample(Call::Grow), "lease.grow");
                    let _ = m.time(|| lease.grow(gpus, None));
                }
            }
            TraceOp::Shrink { gpus } => {
                if let Some(i) = held {
                    let lease = &mut self.held[i].1;
                    let _span = bench_span!(m.sample(Call::Shrink), "lease.shrink");
                    let _ = m.time(|| lease.shrink(gpus));
                }
            }
            TraceOp::Renew => {
                if let Some(i) = held {
                    let lease = &mut self.held[i].1;
                    let _span = bench_span!(m.sample(Call::Renew), "lease.renew");
                    let _ = m.time(|| lease.renew());
                }
            }
            TraceOp::Depart => {
                if let Some(i) = held {
                    let (_, lease) = self.held.remove(i);
                    let _span = bench_span!(m.sample(Call::Release), "lease.release");
                    m.time(|| drop(lease));
                } else if let Some(i) = self.tickets.iter().position(|(j, _)| *j == job) {
                    let (_, t) = self.tickets.remove(i);
                    let _span = bench_span!(m.sample(Call::Cancel), "arbiter.cancel");
                    m.time(|| self.arb.cancel(&t));
                }
            }
        }
    }
}

fn set_up(seed: u64, tr: &mut Tracer) -> Trace {
    let _span = bench_span!(tr.take(), "trace.generate");
    generate(&TraceConfig::new(JOBS, NODES, seed))
}

/// Compares a pass with `flexsp_trace::replay` on the same trace and
/// configuration.
fn agrees_with_replay(c: &Counts, trace: &Trace) -> Result<(), String> {
    let r = replay(trace, &ReplayConfig::new()).stats;
    let p99 = |w: &[u64]| {
        w.get((w.len() * 99 / 100).min(w.len().saturating_sub(1)))
            .copied()
    };
    let ours = (
        c.jobs,
        c.admitted,
        c.immediate_grants,
        c.queued_claims,
        c.reaps,
        c.preempted_jobs,
        c.gpus_moved,
        c.maintains,
        c.jobs - c.admitted,
        p99(&c.waits).unwrap_or(0),
        c.waits.last().copied().unwrap_or(0),
    );
    let theirs = (
        r.jobs,
        r.admitted,
        r.immediate_grants,
        r.queued_claims,
        r.reaps,
        r.preempted_jobs,
        r.gpus_moved,
        r.maintains,
        r.never_admitted,
        r.wait_p99,
        r.wait_max,
    );
    if ours == theirs {
        Ok(())
    } else {
        Err(format!(
            "walker (jobs, admitted, immediate, queued, reaps, preempted, moved, maintains, \
             never admitted, wait p99, wait max) = {ours:?}, replay says {theirs:?}"
        ))
    }
}

/// The verification pass, untimed: `audit()` and the lease-overlap
/// check after every visit, and the walker's counts against
/// `flexsp_trace::replay` on the same trace.
fn verify(trace: &Trace, out: &mut Outcome) -> Counts {
    let mut m = Meter::new(Tracer::new(false));
    let counts = Pass::new(trace).run(&mut m, out, true);
    out.check(agrees_with_replay(&counts, trace));
    counts
}

/// Timed passes until `stop`; each must repeat the verified counts.
fn run_passes(
    trace: &Trace,
    verified: &Counts,
    stop: Stop,
    m: &mut Meter,
    out: &mut Outcome,
) -> usize {
    let wall = Timer::start();
    let mut passes = 0usize;
    loop {
        let done = match stop {
            Stop::After(secs) => passes > 0 && wall.secs() >= secs,
            Stop::Passes(n) => passes >= n,
        };
        if done {
            return passes;
        }
        m.hist = NanoHistogram::new();
        let (ops, ns) = (m.ops, m.op_ns);
        let counts = Pass::new(trace).run(m, out, false);
        m.passes.push(PassTiming {
            ops_per_s: (m.ops - ops) as f64 / ((m.op_ns - ns) as f64 * 1e-9),
            p50_ns: m.hist.quantile_ns(0.5),
            p90_ns: m.hist.quantile_ns(0.9),
            p99_ns: m.hist.quantile_ns(0.99),
            host: host_factor(),
        });
        passes += 1;
        out.check(if counts == *verified {
            Ok(())
        } else {
            Err(format!("pass {passes} diverged from the verified pass"))
        });
    }
}

enum Stop {
    After(f64),
    Passes(usize),
}

fn wait_p99(c: &Counts) -> f64 {
    stats::quantile(&c.waits.iter().map(|&w| w as f64).collect::<Vec<_>>(), 0.99)
}

/// The end-to-end run: generate the trace several times (median
/// `setup_s`), verify, then make timed passes for `args.seconds`. Every
/// time is reported at nominal host speed (see [`host_factor`]).
pub fn run(args: &Args, out: &mut Outcome) {
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut trace = None;
    for _ in 0..SETUPS {
        let t = Timer::start();
        trace = Some(set_up(args.seed, &mut off));
        // At nominal host speed, like the passes.
        setups.push(t.secs() * host_factor());
    }
    let trace = trace.expect("set up at least once");
    let counts = verify(&trace, out);
    let mut m = Meter::new(off);
    let passes = run_passes(&trace, &counts, Stop::After(args.seconds), &mut m, out);
    // Every pass repeats the same calls; report the median pass at
    // nominal host speed, and the raw median beside it.
    let median = |f: fn(&PassTiming) -> f64| {
        stats::median(
            &m.passes
                .iter()
                .map(|p| f(&p.normalized()))
                .collect::<Vec<_>>(),
        )
    };
    let raw_ops_per_s = stats::median(&m.passes.iter().map(|p| p.ops_per_s).collect::<Vec<_>>());
    let ops_per_s = median(|p| p.ops_per_s);
    let p50_ns = median(|p| p.p50_ns);
    crate::end_to_end(
        out,
        stats::median(&setups),
        ops_per_s,
        p50_ns * 1e-6,
        median(|p| p.p90_ns) * 1e-6,
    );
    out.note("arbiter_ops_per_s", ops_per_s, "1/s");
    out.note("arbiter_op_us_p50", p50_ns * 1e-3, "us");
    out.note("arbiter_op_us_p99", median(|p| p.p99_ns) * 1e-3, "us");
    out.note("raw_arbiter_ops_per_s", raw_ops_per_s, "1/s");
    out.note(
        "host_speed",
        stats::median(&m.passes.iter().map(|p| p.host).collect::<Vec<_>>()),
        "x nominal",
    );
    out.note("job_wait_ticks_p99", wait_p99(&counts), "ticks");
    out.note("passes", passes as f64, "count");
    out.note("ops", m.ops as f64, "count");
}

/// The traced run: the same passes untraced, then traced with each kind
/// of call sampled so the spans fit the ring; per-layer numbers from
/// the traced half.
pub fn run_traced(args: &Args, out: &mut Outcome) {
    let mut off = Tracer::new(false);
    let trace = set_up(args.seed, &mut off);
    let counts = verify(&trace, out);
    let mut untraced = Meter::new(off);
    let passes = run_passes(
        &trace,
        &counts,
        Stop::After(args.seconds / 2.0),
        &mut untraced,
        out,
    );

    let mut tr = Tracer::new(true);
    let trace = set_up(args.seed, &mut tr);
    let mut m = Meter::new(tr);
    // Spans per kind of call: an equal share of the budget, minus room
    // for the set-up span.
    let per_kind = (SPAN_BUDGET - 64) / CALLS as u64;
    for k in 0..CALLS {
        m.every[k] = untraced.seen[k].div_ceil(per_kind).max(1);
    }
    run_passes(&trace, &counts, Stop::Passes(passes), &mut m, out);
    let spans = match Spans::drain() {
        Ok(spans) => spans,
        Err(e) => {
            out.check(Err(e));
            Spans::default()
        }
    };
    let p50 = |name: &str| spans.quantile_us(name, 0.5);
    let mut layer = crate::Layers::default();
    layer.set("trace.generate_ms", spans.mean_us("trace.generate") / 1e3);
    layer.set("arbiter.try_lease_us_p50", p50("arbiter.try_lease"));
    layer.set("arbiter.request_us_p50", p50("arbiter.request"));
    layer.set("arbiter.claim_us_p50", p50("arbiter.claim"));
    layer.set(
        "arbiter.claim_success_ratio",
        stats::ratio(counts.claimed as f64, counts.claims as f64),
    );
    layer.set("arbiter.cancel_us_p50", p50("arbiter.cancel"));
    layer.set(
        "arbiter.denial_ratio",
        stats::ratio(counts.denials as f64, counts.try_leases as f64),
    );
    layer.set("arbiter.job_wait_ticks_p99", wait_p99(&counts));
    layer.set("lease.grow_us_p50", p50("lease.grow"));
    layer.set("lease.shrink_us_p50", p50("lease.shrink"));
    layer.set("lease.renew_us_p50", p50("lease.renew"));
    layer.set("lease.release_us_p50", p50("lease.release"));
    layer.set("lease.sync_us_p50", p50("lease.sync"));
    layer.set("lease.sync_us_p99", spans.quantile_us("lease.sync", 0.99));
    layer.set("pump.poll_us_p50", p50("pump.poll"));
    layer.set("pump.poll_us_p99", spans.quantile_us("pump.poll", 0.99));
    layer.set(
        "pump.active_poll_ratio",
        stats::ratio(counts.active_polls as f64, counts.polls as f64),
    );
    layer.set(
        "telemetry.overhead_pct",
        crate::overhead_pct(untraced.op_ns as f64, m.op_ns as f64),
    );
    layer.emit(out);
}
