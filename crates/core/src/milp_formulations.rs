//! MILP formulations of the planning problem (paper §4.1.1/§4.1.3),
//! placement-aware: decision variables are keyed by [`GroupShape`]
//! (degree × nodes spanned), so the optimizer can trade an intra-node
//! degree-8 group against a node-spanning one at their *different* fitted
//! communication costs.

use flexsp_cost::CostModel;
use flexsp_data::Sequence;
use flexsp_milp::{Basis, LinExpr, MilpSolver, Problem, VarId, VarKind};
use flexsp_sim::{GroupShape, NodeSlots};
use flexsp_telemetry as tel;

use crate::bucketing::Bucket;
use crate::plan::{GroupAssignment, MicroBatchPlan, PlanStats};
use crate::planner::{available_shapes, finalize, lpt_split, PlannerConfig};

/// Shape-aggregated formulation with binary search on the makespan `C`.
///
/// For fixed `C`, feasibility is a small MILP over per-shape group counts
/// `n_s` and per-(bucket, shape) assignment counts `x_{q,s}`:
///
/// ```text
/// Σ_s d(s)·n_s ≤ N                  (GPU budget, Eq. 20)
/// Σ_{s: sku(s)=k} d(s)·n_s ≤ N_k    (per-SKU-class budget, mixed
///                                    clusters only)
/// n_s ≤ cap_topo(s)                 (node capacity: intra shapes are
///                                    bounded by their class's per-node
///                                    slots)
/// Σ_s x_{q,s} = b̂_q   ∀q           (assignment, Eq. 22)
/// Σ_q x_{q,s}·w(ŝ_q,s) ≤ (C − β_s)·n_s  ∀s  (aggregate time, Eq. 18)
/// Σ_q x_{q,s}·ŝ_q ≤ cap(d(s))·n_s  ∀s   (aggregate memory, Eq. 19)
/// ```
///
/// Each feasible `(n, x)` is split into concrete groups by LPT and then
/// run through the [placement engine](crate::placement); if the realized
/// plan respects memory and the cluster, `C` is achievable and the search
/// tightens. Because the candidate is *placed* before evaluation, its
/// predicted time reflects realized spans — the engine may even tighten a
/// planned spanning shape into an intra-node one when slots allow.
///
/// The binary-search steps differ **only** in the `C`-dependent numbers:
/// the `(C − β_s)` coefficient on `n_s` in each aggregate-time row and
/// the time-gated upper bounds of the `x_{q,s}`. So the model is built
/// once ([`AggregatedModel`]) and mutated in place between steps via the
/// `flexsp-milp` mutation API, and each step's root relaxation warm
/// starts from the previous step's basis — the incremental-LP pattern
/// this crate's [`PlanStats`] counters make observable
/// (`model_builds == 1`, `search_steps == N`, basis-reuse hits).
pub(crate) fn plan_aggregated(
    cost: &CostModel,
    buckets: &[Bucket],
    avail: &NodeSlots,
    config: &PlannerConfig,
    warm: &MicroBatchPlan,
) -> (Option<MicroBatchPlan>, PlanStats) {
    let mut stats = PlanStats::default();
    let n_gpus = avail.total_free();
    let shapes = available_shapes(cost, avail);
    if shapes.is_empty() || buckets.is_empty() {
        return (None, stats);
    }

    // Bracket: the warm plan is a feasible witness for its own makespan;
    // the lower bound combines the best single-sequence time of the
    // largest bucket with the total-work bound.
    let hi0 = warm.predicted_time(cost);
    let mut lo = lower_bound(cost, buckets, n_gpus, &shapes);
    let mut hi = hi0.max(lo);
    let mut best: Option<MicroBatchPlan> = None;
    let mut best_time = hi0;

    let mut model = {
        let _build_span = tel::span!(tel::Category::Solver, "milp.build_model", "buckets" => buckets.len() as u64);
        AggregatedModel::build(cost, buckets, avail, &shapes)
    };
    stats.model_builds += 1;
    tel::count!("flexsp.milp.model_builds");
    // Basis of the previous step's root relaxation, carried across the
    // binary search so each re-solve starts from the last optimum.
    let mut carried: Option<Basis> = None;

    for _ in 0..config.search_iters {
        if hi - lo <= config.search_rel_tol * hi {
            break;
        }
        let c = 0.5 * (lo + hi);
        stats.search_steps += 1;
        model.set_makespan(cost, buckets, &shapes, c);
        // The `n_s` columns are declared before the `x_{q,s}` columns, so
        // first-fractional branching settles group counts first. A step
        // that finds nothing within the barren budget counts as
        // infeasible, exactly like a step proven infeasible.
        let mut solver = MilpSolver::new()
            .node_limit(config.milp_node_limit)
            .barren_node_limit(config.milp_barren_nodes)
            .relative_gap(0.02)
            .lp_engine(config.lp_engine)
            .threads(config.milp_threads);
        if let Some(basis) = carried.clone() {
            solver = solver.root_basis(basis);
        }
        let feasible = match solver.solve(&model.problem) {
            Ok(mut sol) => {
                stats.milp.absorb(&sol.stats());
                if let Some(basis) = sol.take_root_basis() {
                    carried = Some(basis);
                }
                if sol.status().has_solution() {
                    Some(model.extract(&sol))
                } else {
                    None
                }
            }
            // Numerical trouble at one step just counts as infeasible; the
            // search continues on the rest of the bracket.
            Err(_) => None,
        };
        match feasible {
            Some((counts, assignment)) => {
                match split_into_groups(cost, buckets, avail, &shapes, &counts, &assignment) {
                    Some(plan) => {
                        let t = plan.predicted_time(cost);
                        if t < best_time {
                            best_time = t;
                            best = Some(plan);
                        }
                        // The achieved makespan may be well below c.
                        hi = c.min(best_time);
                    }
                    None => lo = c,
                }
            }
            None => lo = c,
        }
    }
    (best, stats)
}

fn lower_bound(cost: &CostModel, buckets: &[Bucket], n_gpus: u32, shapes: &[GroupShape]) -> f64 {
    // Every sequence needs at least its cheapest feasible placement.
    let per_seq = buckets
        .iter()
        .map(|b| {
            shapes
                .iter()
                .filter(|&&s| b.upper <= cost.max_group_tokens(s.degree))
                .map(|&s| cost.seq_time(b.upper, s) + cost.group_overhead(s))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0, f64::max);
    // Total GPU-seconds of the cheapest placements spread over all GPUs.
    let work: f64 = buckets
        .iter()
        .map(|b| {
            let cheapest = shapes
                .iter()
                .filter(|&&s| b.upper <= cost.max_group_tokens(s.degree))
                .map(|&s| s.degree as f64 * cost.seq_time(b.upper, s))
                .fold(f64::INFINITY, f64::min);
            cheapest * b.count() as f64
        })
        .sum();
    per_seq.max(work / n_gpus as f64)
}

type Assignment = Vec<Vec<u64>>; // [bucket][shape index] -> count

/// The feasibility MILP of the aggregated formulation, built once per
/// `plan_micro_batch` call and mutated between binary-search steps.
struct AggregatedModel {
    problem: Problem,
    n_vars: Vec<VarId>,
    x_vars: Vec<Vec<VarId>>,
    /// Constraint index of the aggregate-time row, per shape.
    time_rows: Vec<usize>,
}

/// The most shape-`s` groups the **free slots** can host concurrently —
/// the node-capacity cap installed as the `n_s` upper bound. Intra-node
/// shapes are limited by their SKU class's free per-node slots, spanning
/// shapes by the class's free GPU budget (spill and cross-class shapes —
/// whose SKU class cannot host them alone on the free slots — by the
/// whole free budget). On an unrestricted ledger these are exactly the
/// topology caps.
fn shape_count_cap(avail: &NodeSlots, s: GroupShape) -> f64 {
    let budget = (avail.total_free() / s.degree) as f64;
    if avail.min_span_free_sku(s.degree, s.sku).is_none() {
        return budget; // spill/cross-class: bounded by the global GPU row
    }
    let class_budget = budget.min((avail.free_sku_gpus(s.sku) / s.degree) as f64);
    if s.is_intra() {
        class_budget.min(avail.intra_capacity_free_sku(s.degree, s.sku) as f64)
    } else {
        class_budget
    }
}

impl AggregatedModel {
    fn build(
        cost: &CostModel,
        buckets: &[Bucket],
        avail: &NodeSlots,
        shapes: &[GroupShape],
    ) -> Self {
        let n_gpus = avail.total_free();
        let q = buckets.len();
        let ns = shapes.len();
        let mut p = Problem::minimize();

        // n_s: number of shape-s groups, capped by free node capacity.
        let n_vars: Vec<_> = shapes
            .iter()
            .map(|&s| {
                p.add_var(
                    format!("n_{s}"),
                    VarKind::Integer,
                    0.0,
                    shape_count_cap(avail, s),
                )
            })
            .collect();
        // x_{q,s}: sequences of bucket q on shape-s groups. Bounds are
        // C-dependent (time gating) and set by `set_makespan`.
        let mut x_vars = vec![Vec::with_capacity(ns); q];
        for (qi, b) in buckets.iter().enumerate() {
            for &s in shapes {
                let fits_mem = b.upper <= cost.max_group_tokens(s.degree);
                let ub = if fits_mem { b.count() as f64 } else { 0.0 };
                x_vars[qi].push(p.add_var(format!("x_{qi}_{s}"), VarKind::Integer, 0.0, ub));
            }
        }

        // GPU budget (row 0).
        p.add_le(
            LinExpr::from_terms(
                n_vars
                    .iter()
                    .zip(shapes)
                    .map(|(&v, &s)| (v, s.degree as f64)),
            ),
            n_gpus as f64,
        );
        // Per-SKU-class GPU budgets (mixed clusters only): class-hosted
        // shapes cannot jointly exceed their class's **free** GPUs.
        // Spill and cross-class shapes draw from several classes and stay
        // under the global row only; their spill pricing is handled at
        // placement time.
        let topo = cost.topology();
        if !topo.is_single_sku() {
            for sku in topo.skus() {
                let expr = LinExpr::from_terms(
                    n_vars
                        .iter()
                        .zip(shapes)
                        .filter(|(_, &s)| {
                            s.sku == sku && avail.min_span_free_sku(s.degree, s.sku).is_some()
                        })
                        .map(|(&v, &s)| (v, s.degree as f64)),
                );
                p.add_le(expr, avail.free_sku_gpus(sku) as f64);
            }
        }
        // Assignment completeness (the next q rows; on mixed clusters
        // the per-class budget rows sit between them and row 0).
        for (qi, b) in buckets.iter().enumerate() {
            p.add_eq(
                LinExpr::from_terms(x_vars[qi].iter().map(|&v| (v, 1.0))),
                b.count() as f64,
            );
        }
        // Aggregate time and memory per shape. The `n_s` coefficient of
        // the time row is the C-dependent `−(C − β_s)`; a placeholder is
        // installed here and overwritten by `set_makespan` before every
        // solve (the term must exist so the sparsity pattern — and with
        // it any carried basis — survives the mutation).
        let mut time_rows = Vec::with_capacity(ns);
        for (si, &s) in shapes.iter().enumerate() {
            let mut time = LinExpr::new();
            let mut mem = LinExpr::new();
            for (qi, b) in buckets.iter().enumerate() {
                time.add_term(x_vars[qi][si], cost.seq_time(b.upper, s));
                mem.add_term(x_vars[qi][si], b.upper as f64);
            }
            time.add_term(n_vars[si], -1.0);
            time_rows.push(p.num_constraints());
            p.add_le(time, 0.0);
            mem.add_term(n_vars[si], -(cost.max_group_tokens(s.degree) as f64));
            p.add_le(mem, 0.0);
        }
        // Objective: total predicted work (prefers efficient shapes), plus
        // a tiny GPU-parsimony term so spare groups are not opened for free.
        let mut obj = LinExpr::new();
        for (qi, b) in buckets.iter().enumerate() {
            for (si, &s) in shapes.iter().enumerate() {
                obj.add_term(x_vars[qi][si], cost.seq_time(b.upper, s));
            }
        }
        for (si, &s) in shapes.iter().enumerate() {
            obj.add_term(n_vars[si], 1e-6 * s.degree as f64);
        }
        p.set_objective(obj);

        Self {
            problem: p,
            n_vars,
            x_vars,
            time_rows,
        }
    }

    /// Installs the makespan `c` into the C-dependent coefficients and
    /// bounds — the only numbers that move between binary-search steps.
    fn set_makespan(
        &mut self,
        cost: &CostModel,
        buckets: &[Bucket],
        shapes: &[GroupShape],
        c: f64,
    ) {
        for (si, &s) in shapes.iter().enumerate() {
            let slack = (c - cost.group_overhead(s)).max(0.0);
            self.problem
                .set_constraint_coef(self.time_rows[si], self.n_vars[si], -slack);
            for (qi, b) in buckets.iter().enumerate() {
                let fits_mem = b.upper <= cost.max_group_tokens(s.degree);
                let fits_time = cost.seq_time(b.upper, s) + cost.group_overhead(s) <= c;
                let ub = if fits_mem && fits_time {
                    b.count() as f64
                } else {
                    0.0
                };
                self.problem.set_bounds(self.x_vars[qi][si], 0.0, ub);
            }
        }
    }

    fn extract(&self, sol: &flexsp_milp::MilpSolution) -> (Vec<u64>, Assignment) {
        let counts: Vec<u64> = self
            .n_vars
            .iter()
            .map(|&v| sol.value(v).round() as u64)
            .collect();
        let assignment: Assignment = self
            .x_vars
            .iter()
            .map(|row| row.iter().map(|&v| sol.value(v).round() as u64).collect())
            .collect();
        (counts, assignment)
    }
}

/// Splits the per-shape aggregate assignment into concrete groups (LPT),
/// validating per-group memory, then places the whole micro-batch onto
/// the topology. Longer sequences in a bucket are handed out first so the
/// representative-length approximation stays safe.
fn split_into_groups(
    cost: &CostModel,
    buckets: &[Bucket],
    avail: &NodeSlots,
    shapes: &[GroupShape],
    counts: &[u64],
    assignment: &Assignment,
) -> Option<MicroBatchPlan> {
    // Per-bucket dealing cursors: longest members first.
    let mut pools: Vec<Vec<Sequence>> = buckets
        .iter()
        .map(|b| {
            let mut v = b.seqs.clone();
            v.sort_by_key(|s| std::cmp::Reverse(s.len));
            v
        })
        .collect();

    let mut groups = Vec::new();
    for (si, &s) in shapes.iter().enumerate() {
        let n_s = counts[si] as usize;
        let mut members: Vec<Sequence> = Vec::new();
        for (qi, pool) in pools.iter_mut().enumerate() {
            let take = assignment[qi][si] as usize;
            for _ in 0..take {
                members.push(pool.pop()?);
            }
        }
        if members.is_empty() {
            continue;
        }
        if n_s == 0 {
            return None; // assignment without groups: infeasible split
        }
        let cap = cost.max_group_tokens(s.degree);
        let bins = lpt_split(cost, &members, s, n_s, cap)?;
        for bin in bins.into_iter().filter(|b| !b.is_empty()) {
            groups.push(GroupAssignment::new(s, bin));
        }
    }
    // All pools must be drained.
    if pools.iter().any(|p| !p.is_empty()) {
        return None;
    }
    finalize(MicroBatchPlan::new(groups), avail)
}

/// Paper-faithful per-group formulation (Eq. 17–22): one binary `m_p` per
/// virtual group, an integer assignment matrix `Â ∈ N^{Q×P}`, and a free
/// makespan `C`, with symmetry-breaking ordering within each shape class.
///
/// Virtual groups are enumerated per *shape* up to the node-capacity cap.
/// Only tractable for small clusters (the virtual-group count is
/// `Σ_s cap(s)`); production planning uses [`plan_aggregated`]. Inside
/// the single branch-and-bound run, child nodes re-solve from their
/// parent's basis (see `flexsp-milp`), which is where this formulation's
/// basis reuse shows up in [`PlanStats`].
pub(crate) fn plan_per_group(
    cost: &CostModel,
    buckets: &[Bucket],
    avail: &NodeSlots,
    config: &PlannerConfig,
    warm: &MicroBatchPlan,
) -> (Option<MicroBatchPlan>, PlanStats) {
    let mut stats = PlanStats::default();
    let n_gpus = avail.total_free();
    let shapes = available_shapes(cost, avail);
    let q = buckets.len();
    if shapes.is_empty() || q == 0 {
        return (None, stats);
    }
    // Virtual groups: node-capacity-capped slots per shape.
    let mut slots: Vec<GroupShape> = Vec::new(); // shape per slot
    for &s in &shapes {
        for _ in 0..shape_count_cap(avail, s) as u32 {
            slots.push(s);
        }
    }
    let np = slots.len();

    let build_span =
        tel::span!(tel::Category::Solver, "milp.build_model", "buckets" => buckets.len() as u64);
    let mut p = Problem::minimize();
    let c_var = p.add_var("C", VarKind::Continuous, 0.0, f64::INFINITY);
    let m_vars: Vec<_> = (0..np).map(|pi| p.add_binary(format!("m_{pi}"))).collect();
    let mut a_vars = vec![Vec::with_capacity(np); q];
    for (qi, b) in buckets.iter().enumerate() {
        for (pi, &s) in slots.iter().enumerate() {
            let ub = if b.upper <= cost.max_group_tokens(s.degree) {
                b.count() as f64
            } else {
                0.0
            };
            a_vars[qi].push(p.add_var(format!("A_{qi}_{pi}"), VarKind::Integer, 0.0, ub));
        }
    }

    // Eq. 18 time + Eq. 19 memory per virtual group (memory doubles as the
    // Eq. 21 linking constraint: no sequences on unselected groups).
    for (pi, &s) in slots.iter().enumerate() {
        let mut time = LinExpr::term(m_vars[pi], cost.group_overhead(s));
        let mut mem = LinExpr::new();
        for (qi, b) in buckets.iter().enumerate() {
            time.add_term(a_vars[qi][pi], cost.seq_time(b.upper, s));
            mem.add_term(a_vars[qi][pi], b.upper as f64);
        }
        time.add_term(c_var, -1.0);
        p.add_le(time, 0.0);
        mem.add_term(m_vars[pi], -(cost.max_group_tokens(s.degree) as f64));
        p.add_le(mem, 0.0);
    }
    // Eq. 20 GPU budget.
    p.add_le(
        LinExpr::from_terms(
            m_vars
                .iter()
                .zip(&slots)
                .map(|(&m, &s)| (m, s.degree as f64)),
        ),
        n_gpus as f64,
    );
    // Per-SKU-class GPU budgets (mixed clusters only), as in the
    // aggregated formulation: the caps are the classes' *free* GPUs.
    let topo = cost.topology();
    if !topo.is_single_sku() {
        for sku in topo.skus() {
            let expr = LinExpr::from_terms(
                m_vars
                    .iter()
                    .zip(&slots)
                    .filter(|(_, &s)| {
                        s.sku == sku && avail.min_span_free_sku(s.degree, s.sku).is_some()
                    })
                    .map(|(&m, &s)| (m, s.degree as f64)),
            );
            p.add_le(expr, avail.free_sku_gpus(sku) as f64);
        }
    }
    // Eq. 22 assignment completeness.
    for (qi, b) in buckets.iter().enumerate() {
        p.add_eq(
            LinExpr::from_terms(a_vars[qi].iter().map(|&v| (v, 1.0))),
            b.count() as f64,
        );
    }
    // Symmetry breaking: within a shape class, slots activate in order.
    for w in (0..np).collect::<Vec<_>>().windows(2) {
        let (a, b) = (w[0], w[1]);
        if slots[a] == slots[b] {
            p.add_ge(
                LinExpr::term(m_vars[a], 1.0) - LinExpr::term(m_vars[b], 1.0),
                0.0,
            );
        }
    }
    p.set_objective(LinExpr::term(c_var, 1.0));

    // Warm start from the heuristic plan.
    let warm_values = warm_start_values(cost, buckets, &slots, warm, 1 + np, q, np);

    let mut solver = MilpSolver::new()
        .node_limit(config.milp_node_limit)
        .relative_gap(config.search_rel_tol)
        .lp_engine(config.lp_engine)
        .threads(config.milp_threads);
    if let Some(ws) = warm_values {
        solver = solver.warm_start(ws);
    }
    stats.model_builds += 1;
    tel::count!("flexsp.milp.model_builds");
    stats.search_steps += 1;
    drop(build_span);
    let Ok(sol) = solver.solve(&p) else {
        return (None, stats);
    };
    stats.milp.absorb(&sol.stats());
    if !sol.status().has_solution() {
        return (None, stats);
    }

    // Extract: per selected slot, pull counts from each bucket pool.
    let mut pools: Vec<Vec<Sequence>> = buckets
        .iter()
        .map(|b| {
            let mut v = b.seqs.clone();
            v.sort_by_key(|s| std::cmp::Reverse(s.len));
            v
        })
        .collect();
    let mut groups = Vec::new();
    for (pi, &s) in slots.iter().enumerate() {
        let mut members = Vec::new();
        for (qi, pool) in pools.iter_mut().enumerate() {
            let take = sol.value(a_vars[qi][pi]).round() as usize;
            for _ in 0..take {
                let Some(s) = pool.pop() else {
                    return (None, stats);
                };
                members.push(s);
            }
        }
        if !members.is_empty() {
            groups.push(GroupAssignment::new(s, members));
        }
    }
    if pools.iter().any(|p| !p.is_empty()) {
        return (None, stats);
    }
    (finalize(MicroBatchPlan::new(groups), avail), stats)
}

/// Maps a concrete plan onto the per-group decision variables
/// (`[C, m…, Â…]` in declaration order) for use as a MILP warm start.
fn warm_start_values(
    cost: &CostModel,
    buckets: &[Bucket],
    slots: &[GroupShape],
    warm: &MicroBatchPlan,
    total_vars: usize,
    q: usize,
    np: usize,
) -> Option<Vec<f64>> {
    let _ = total_vars;
    let mut values = vec![0.0; 1 + np + q * np];
    values[0] = warm.predicted_time(cost);
    // Slot indices per shape, in declaration order. The warm plan carries
    // *realized* shapes, which may not all be virtual-slot shapes (e.g. a
    // fragmented three-node span); match by degree, preferring the exact
    // shape.
    let mut free_slots: std::collections::BTreeMap<GroupShape, Vec<usize>> = Default::default();
    for (pi, &s) in slots.iter().enumerate() {
        free_slots.entry(s).or_default().push(pi);
    }
    for v in free_slots.values_mut() {
        v.reverse(); // pop() yields the lowest index first
    }
    // Bucket lookup: length -> bucket index (buckets are disjoint ranges).
    let bucket_of = |len: u64| -> Option<usize> {
        buckets
            .iter()
            .position(|b| len <= b.upper && b.seqs.iter().any(|s| s.len == len))
    };
    for g in &warm.groups {
        let slot_shape = if free_slots.get(&g.shape).is_some_and(|v| !v.is_empty()) {
            g.shape
        } else {
            *free_slots
                .iter()
                .filter(|(s, v)| s.degree == g.degree() && !v.is_empty())
                .map(|(s, _)| s)
                .next()?
        };
        let pi = free_slots.get_mut(&slot_shape)?.pop()?;
        values[1 + pi] = 1.0;
        for s in &g.seqs {
            let qi = bucket_of(s.len)?;
            values[1 + np + qi * np + pi] += 1.0;
        }
    }
    Some(values)
}
