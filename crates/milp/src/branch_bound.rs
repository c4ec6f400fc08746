//! Best-first branch and bound over the simplex relaxation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrd};
use std::sync::{Condvar, Mutex};
// lint: allow(clock) times a solve for MilpSolution::solve_time_secs; no limit reads it
use std::time::Instant;

use flexsp_telemetry as tel;

use crate::basis::Basis;
use crate::error::SolveError;
use crate::problem::{ObjectiveSense, Problem, VarKind};
use crate::simplex::{solve_lp_with, LpEngine, LpOptions, LpOutcome, LpStats};
use crate::solution::{MilpSolution, MilpStatus};
use crate::sparse::{BuildOutcome, SparseModel};
use crate::{FEAS_TOL, INT_TOL};

/// Counters describing a branch-and-bound run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch-and-bound nodes processed.
    pub nodes: u64,
    /// Linear relaxations solved: the root, one per node, and one per
    /// heuristic completion of a model with continuous variables. An
    /// all-integer model completes without an LP (see
    /// [`SolveStats::point_checks`]).
    pub lp_solves: u64,
    /// Heuristic completions settled without an LP: in an all-integer
    /// model the rounded point is checked directly.
    pub point_checks: u64,
    /// Sparse constraint matrices built: one per sparse-engine solve,
    /// shared by all of its relaxations; zero for the dense engine.
    pub matrix_builds: u64,
    /// Incumbents discovered by the fix-and-complete rounding heuristic.
    pub heuristic_incumbents: u64,
    /// Primal simplex pivots across all relaxations.
    pub primal_pivots: u64,
    /// Dual simplex pivots (warm re-solves) across all relaxations.
    pub dual_pivots: u64,
    /// Basis refactorizations across all relaxations.
    pub refactorizations: u64,
    /// Relaxations completed from a reused (parent or caller) basis.
    pub basis_reuse_hits: u64,
    /// Relaxations where a supplied basis had to be dropped for a cold
    /// start.
    pub basis_reuse_misses: u64,
    /// Why each solve stopped: one count per solve.
    pub stops: StopCounts,
}

impl SolveStats {
    /// Total simplex pivots across both variants.
    pub fn pivots(&self) -> u64 {
        self.primal_pivots + self.dual_pivots
    }

    /// Fraction of relaxations that ran warm from a reused basis (0 when
    /// none attempted).
    pub fn basis_reuse_rate(&self) -> f64 {
        let attempts = self.basis_reuse_hits + self.basis_reuse_misses;
        if attempts == 0 {
            return 0.0;
        }
        self.basis_reuse_hits as f64 / attempts as f64
    }

    /// Accumulates `other` into `self` (used when aggregating across
    /// binary-search steps or micro-batches).
    pub fn absorb(&mut self, other: &SolveStats) {
        self.nodes += other.nodes;
        self.lp_solves += other.lp_solves;
        self.point_checks += other.point_checks;
        self.matrix_builds += other.matrix_builds;
        self.heuristic_incumbents += other.heuristic_incumbents;
        self.primal_pivots += other.primal_pivots;
        self.dual_pivots += other.dual_pivots;
        self.refactorizations += other.refactorizations;
        self.basis_reuse_hits += other.basis_reuse_hits;
        self.basis_reuse_misses += other.basis_reuse_misses;
        self.stops.absorb(&other.stops);
    }

    fn absorb_lp(&mut self, lp: &LpStats) {
        self.primal_pivots += lp.primal_pivots;
        self.dual_pivots += lp.dual_pivots;
        self.refactorizations += lp.refactorizations;
        if lp.warm_attempted {
            if lp.warm_used {
                self.basis_reuse_hits += 1;
            } else {
                self.basis_reuse_misses += 1;
            }
        }
    }
}

/// Why a branch-and-bound solve stopped. Every solve records exactly one
/// in [`SolveStats::stops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The global bound closed the relative gap on the incumbent.
    GapClosed,
    /// Every open node was expanded or pruned.
    Drained,
    /// The barren-node budget ran out before any incumbent was found
    /// (see [`MilpSolver::barren_node_limit`]); reported as infeasible.
    BarrenBudget,
    /// The node budget ran out.
    NodeLimit,
    /// The root relaxation is infeasible.
    InfeasibleRoot,
    /// The root relaxation is unbounded.
    UnboundedRoot,
}

/// Per-[`StopReason`] solve counts, indexed by variant; sums across
/// solves with [`SolveStats::absorb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StopCounts([u64; 6]);

impl StopCounts {
    /// Solves that stopped for `reason`.
    pub fn get(&self, reason: StopReason) -> u64 {
        self.0[reason as usize]
    }

    /// Solves counted, over all reasons.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    fn record(&mut self, reason: StopReason) {
        self.0[reason as usize] += 1;
    }

    fn absorb(&mut self, other: &StopCounts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// Configurable branch-and-bound MILP solver.
///
/// The solver is a *good-incumbent-fast* design matching how the FlexSP
/// paper uses SCIP: it accepts a warm-start incumbent, hunts for feasible
/// solutions with a fix-and-complete rounding heuristic, and stops at a
/// node, barren-node, or relative-gap limit, reporting
/// [`MilpStatus::Feasible`] when optimality was not proven. Every limit
/// is counted in nodes, never in wall-clock time, so a serial solve is
/// the same search on any machine under any load.
///
/// # Example
///
/// ```
/// use flexsp_milp::{LinExpr, MilpSolver, Problem, VarKind};
/// # fn main() -> Result<(), flexsp_milp::SolveError> {
/// // 0/1 knapsack: max 10a + 13b + 7c, 5a + 7b + 4c <= 9.
/// let mut p = Problem::maximize();
/// let a = p.add_binary("a");
/// let b = p.add_binary("b");
/// let c = p.add_binary("c");
/// p.add_le(LinExpr::from_terms([(a, 5.0), (b, 7.0), (c, 4.0)]), 9.0);
/// p.set_objective(LinExpr::from_terms([(a, 10.0), (b, 13.0), (c, 7.0)]));
/// let sol = MilpSolver::new().node_limit(1_000).solve(&p)?;
/// assert!((sol.objective() - 17.0).abs() < 1e-6); // a + c
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MilpSolver {
    node_limit: u64,
    barren_node_limit: u64,
    relative_gap: f64,
    warm_start: Option<Vec<f64>>,
    lp_engine: LpEngine,
    root_basis: Option<Basis>,
    threads: usize,
}

impl Default for MilpSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl MilpSolver {
    /// Creates a solver with defaults: 200 000 nodes, no barren-node
    /// limit, 10⁻⁶ relative gap, sparse LP engine with parent-basis
    /// reuse, one thread.
    pub fn new() -> Self {
        Self {
            node_limit: 200_000,
            barren_node_limit: u64::MAX,
            relative_gap: 1e-6,
            warm_start: None,
            lp_engine: LpEngine::default(),
            root_basis: None,
            threads: 1,
        }
    }

    /// Sets the node budget. When exhausted, the best incumbent is
    /// returned with [`MilpStatus::Feasible`].
    pub fn node_limit(mut self, limit: u64) -> Self {
        self.node_limit = limit;
        self
    }

    /// Gives up once `limit` nodes have been expanded without finding an
    /// incumbent (none by default): the solve stops with
    /// [`StopReason::BarrenBudget`] and reports [`MilpStatus::Infeasible`]
    /// — or [`MilpStatus::Feasible`] if a parallel worker still expanding
    /// a node found one after the budget ran out. Suits feasibility probes
    /// that treat "no answer yet" as "no".
    pub fn barren_node_limit(mut self, limit: u64) -> Self {
        self.barren_node_limit = limit;
        self
    }

    /// Sets the relative optimality gap at which the search stops and the
    /// incumbent is declared [`MilpStatus::Optimal`].
    pub fn relative_gap(mut self, gap: f64) -> Self {
        self.relative_gap = gap.max(0.0);
        self
    }

    /// Supplies a known feasible assignment (full variable vector) used as
    /// the initial incumbent. Invalid warm starts are silently ignored.
    pub fn warm_start(mut self, values: Vec<f64>) -> Self {
        self.warm_start = Some(values);
        self
    }

    /// Selects the LP engine for every relaxation. The dense tableau
    /// engine implies cold starts (basis reuse is a sparse-engine
    /// feature).
    pub fn lp_engine(mut self, engine: LpEngine) -> Self {
        self.lp_engine = engine;
        self
    }

    /// Sets the number of branch-and-bound worker threads.
    ///
    /// `threads(1)` (the default) runs the single-threaded best-first
    /// search unchanged. With `n > 1`, `n` workers drain one shared open
    /// node heap, share one atomic incumbent, and re-solve children warm
    /// from their parents' bases exactly as the serial search does; the
    /// node budgets are shared across workers.
    /// Any thread count returns the same objective (the search only
    /// terminates when the global bound — over open *and* in-flight
    /// nodes — proves the incumbent optimal within the configured gap),
    /// though tie-equivalent optimal *assignments* and effort counters
    /// may differ. `0` is treated as `1`.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Seeds the root relaxation with a basis from a previous solve of
    /// the same-shaped (possibly mutated) problem — the cross-solve warm
    /// start the makespan binary search uses. Unusable bases are dropped
    /// silently.
    pub fn root_basis(mut self, basis: Basis) -> Self {
        self.root_basis = Some(basis);
        self
    }

    /// Solves `problem` to the configured limits.
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the underlying simplex (iteration
    /// limits / numerical breakdown).
    pub fn solve(&self, problem: &Problem) -> Result<MilpSolution, SolveError> {
        // lint: allow(clock) measured for solve_time_secs, never a stop condition
        let start = Instant::now();
        let _solve_span =
            tel::span!(tel::Category::Solver, "milp.solve", "vars" => problem.num_vars() as u64);
        let mut sol = self.search(problem)?;
        sol.solve_time_secs = start.elapsed().as_secs_f64();
        Ok(sol)
    }

    /// The branch-and-bound search behind [`MilpSolver::solve`].
    fn search(&self, problem: &Problem) -> Result<MilpSolution, SolveError> {
        let mut stats = SolveStats::default();
        let sense_sign = match problem.sense() {
            ObjectiveSense::Minimize => 1.0,
            ObjectiveSense::Maximize => -1.0,
        };
        // Internally we always minimize `score = sense_sign * objective`.
        let int_vars: Vec<usize> = (0..problem.num_vars())
            .filter(|&j| matches!(problem.vars[j].kind, VarKind::Integer | VarKind::Binary))
            .collect();
        // With no continuous variable, a rounded point is a complete
        // assignment: the heuristic checks it instead of solving an LP.
        let all_integer = int_vars.len() == problem.num_vars();

        let root_bounds: Vec<(f64, f64)> =
            problem.vars.iter().map(|v| (v.lower, v.upper)).collect();

        let mut incumbent: Option<(Vec<f64>, f64)> = None; // (values, score)
        if let Some(ws) = &self.warm_start {
            if problem.is_feasible(ws, 1e-6) {
                let mut vals = ws.clone();
                for &j in &int_vars {
                    vals[j] = vals[j].round();
                }
                let score = sense_sign * problem.objective_value(&vals);
                incumbent = Some((vals, score));
            }
        }

        // Every relaxation of this solve differs only in variable bounds,
        // so they all share one constraint matrix.
        let model = match self.lp_engine {
            LpEngine::DenseTableau => None,
            LpEngine::SparseRevised => {
                stats.matrix_builds += 1;
                match SparseModel::build(problem) {
                    BuildOutcome::Model(m) => Some(m),
                    BuildOutcome::TriviallyInfeasible => {
                        return Ok(self.finish(
                            problem,
                            incumbent,
                            f64::NEG_INFINITY,
                            sense_sign,
                            StopReason::InfeasibleRoot,
                            stats,
                            None,
                        ));
                    }
                }
            }
        };
        let model = model.as_ref();

        stats.lp_solves += 1;
        let (root_outcome, root_lp_stats) = {
            let _root_span = tel::span!(tel::Category::Solver, "milp.root_lp");
            solve_lp_with(
                problem,
                model,
                &LpOptions {
                    bound_overrides: Some(&root_bounds),
                    warm_basis: self.root_basis.as_ref(),
                    engine: self.lp_engine,
                },
            )?
        };
        stats.absorb_lp(&root_lp_stats);
        let mut root = match root_outcome {
            LpOutcome::Infeasible => {
                return Ok(self.finish(
                    problem,
                    incumbent,
                    f64::NEG_INFINITY,
                    sense_sign,
                    StopReason::InfeasibleRoot,
                    stats,
                    None,
                ));
            }
            LpOutcome::Unbounded => {
                // If a warm start exists the problem is feasible but the
                // relaxation is unbounded; report unbounded either way, as
                // the true MILP optimum cannot be bounded.
                return Ok(self.finish(
                    problem,
                    None,
                    f64::NEG_INFINITY,
                    sense_sign,
                    StopReason::UnboundedRoot,
                    stats,
                    None,
                ));
            }
            LpOutcome::Optimal(s) => s,
        };
        // The root relaxation's basis is handed back to the caller (for
        // the next binary-search step) and down to the root's children.
        let root_basis = root.take_basis();

        let mut heap = BinaryHeap::new();
        heap.push(OpenNode {
            score: sense_sign * root.objective,
            depth: 0,
            seq: 0,
            bounds: root_bounds,
            basis: root_basis.clone(),
        });

        if self.threads > 1 {
            return self.solve_parallel(
                problem,
                model,
                &int_vars,
                all_integer,
                sense_sign,
                incumbent,
                heap,
                stats,
                root_basis,
            );
        }
        let mut next_seq: u64 = 1;
        while let Some(node) = heap.pop() {
            // Global bound = best open node (best-first ⇒ the popped one).
            let bound = match &incumbent {
                Some((_, inc)) => node.score.min(*inc),
                None => node.score,
            };
            if let Some((_, inc)) = &incumbent {
                let stop = if self.gap_closed(*inc, bound) {
                    Some(StopReason::GapClosed)
                } else if node.score >= *inc - 1e-9 {
                    // Nothing left can improve the incumbent.
                    Some(StopReason::Drained)
                } else {
                    None
                };
                if let Some(stop) = stop {
                    return Ok(self.finish(
                        problem, incumbent, bound, sense_sign, stop, stats, root_basis,
                    ));
                }
            }
            if let Some(stop) = self.budget_stop(stats.nodes, incumbent.is_some()) {
                return Ok(self.finish(
                    problem, incumbent, bound, sense_sign, stop, stats, root_basis,
                ));
            }

            stats.nodes += 1;
            stats.lp_solves += 1;
            let (node_outcome, node_lp_stats) = solve_lp_with(
                problem,
                model,
                &LpOptions {
                    bound_overrides: Some(&node.bounds),
                    warm_basis: node.basis.as_ref(),
                    engine: self.lp_engine,
                },
            )?;
            stats.absorb_lp(&node_lp_stats);
            let mut lp = match node_outcome {
                LpOutcome::Infeasible => continue,
                LpOutcome::Unbounded => {
                    // Can only happen at the root, handled above.
                    continue;
                }
                LpOutcome::Optimal(s) => s,
            };
            // Children re-solve from this node's optimal basis with the
            // dual simplex instead of cold-starting.
            let child_basis = lp.take_basis();
            let lp_score = sense_sign * lp.objective;
            if let Some((_, inc)) = &incumbent {
                if lp_score >= *inc - 1e-9 {
                    continue;
                }
            }

            match first_fractional(&lp.values, &int_vars) {
                None => {
                    // Integral: new incumbent.
                    let mut vals = lp.values.clone();
                    for &j in &int_vars {
                        vals[j] = vals[j].round();
                    }
                    let score = sense_sign * problem.objective_value(&vals);
                    if incumbent.as_ref().is_none_or(|(_, s)| score < *s) {
                        incumbent = Some((vals, score));
                        tel::count!("flexsp.milp.incumbents");
                    }
                }
                Some((bvar, bval)) => {
                    if let Some((vals, score)) = self.fix_and_complete(
                        problem,
                        model,
                        &node.bounds,
                        &lp.values,
                        child_basis.as_ref(),
                        &int_vars,
                        all_integer,
                        sense_sign,
                        &mut stats,
                    )? {
                        if incumbent.as_ref().is_none_or(|(_, s)| score < *s) {
                            incumbent = Some((vals, score));
                            stats.heuristic_incumbents += 1;
                            tel::count!("flexsp.milp.incumbents");
                        }
                    }
                    let (lo, hi) = node.bounds[bvar];
                    let floor = bval.floor();
                    if floor >= lo - FEAS_TOL {
                        let mut b = node.bounds.clone();
                        b[bvar] = (lo, floor.min(hi));
                        if b[bvar].0 <= b[bvar].1 + FEAS_TOL {
                            heap.push(OpenNode {
                                score: lp_score,
                                depth: node.depth + 1,
                                seq: next_seq,
                                bounds: b,
                                basis: child_basis.clone(),
                            });
                            next_seq += 1;
                        }
                    }
                    let ceil = bval.ceil();
                    if ceil <= hi + FEAS_TOL {
                        let mut b = node.bounds.clone();
                        b[bvar] = (ceil.max(lo), hi);
                        if b[bvar].0 <= b[bvar].1 + FEAS_TOL {
                            heap.push(OpenNode {
                                score: lp_score,
                                depth: node.depth + 1,
                                seq: next_seq,
                                bounds: b,
                                basis: child_basis,
                            });
                            next_seq += 1;
                        }
                    }
                }
            }
        }

        // Heap exhausted: incumbent (if any) is optimal.
        let bound = incumbent.as_ref().map(|(_, s)| *s).unwrap_or(f64::INFINITY);
        Ok(self.finish(
            problem,
            incumbent,
            bound,
            sense_sign,
            StopReason::Drained,
            stats,
            root_basis,
        ))
    }

    /// Multi-threaded best-first search over the open-node heap built by
    /// [`MilpSolver::solve`] (root already expanded). `threads` workers
    /// drain the lock-protected heap under a condvar, share one atomic
    /// incumbent, re-solve children warm from their parents' bases, and
    /// respect the shared node budgets. The search terminates only when
    /// (a) the heap drains with every worker idle,
    /// (b) the global bound over open *and* in-flight nodes closes the
    /// gap, or (c) a shared limit trips — so any thread count returns the
    /// same objective as the serial search.
    #[allow(clippy::too_many_arguments)]
    fn solve_parallel(
        &self,
        problem: &Problem,
        model: Option<&SparseModel>,
        int_vars: &[usize],
        all_integer: bool,
        sense_sign: f64,
        incumbent: Option<(Vec<f64>, f64)>,
        heap: BinaryHeap<OpenNode>,
        mut stats: SolveStats,
        root_basis: Option<Basis>,
    ) -> Result<MilpSolution, SolveError> {
        let n = self.threads;
        let shared = SharedSearch {
            solver: self,
            problem,
            model,
            int_vars,
            all_integer,
            sense_sign,
            state: Mutex::new(SearchState {
                heap,
                next_seq: 1,
                claimed: 0,
                active: 0,
                active_scores: vec![f64::INFINITY; n],
                incumbent: incumbent.clone(),
                stop: None,
                final_bound: f64::NEG_INFINITY,
                error: None,
            }),
            work: Condvar::new(),
            incumbent_score: AtomicU64::new(
                incumbent.map(|(_, s)| s).unwrap_or(f64::INFINITY).to_bits(),
            ),
        };
        let worker_stats: Vec<SolveStats> = std::thread::scope(|scope| {
            let shared = &shared;
            let handles: Vec<_> = (0..n)
                .map(|w| scope.spawn(move || shared.worker(w)))
                .collect();
            handles
                .into_iter()
                // lint: allow(unwrap) join fails only on a worker panic; re-raise it, don't swallow it
                .map(|h| h.join().expect("branch-and-bound worker panicked"))
                .collect()
        });
        for ws in &worker_stats {
            stats.absorb(ws);
        }
        let state = shared.state.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = state.error {
            return Err(e);
        }
        let stop = state.stop.unwrap_or(StopReason::Drained);
        let incumbent = state.incumbent;
        let bound = match stop {
            StopReason::Drained => incumbent.as_ref().map(|(_, s)| *s).unwrap_or(f64::INFINITY),
            _ => state.final_bound,
        };
        Ok(self.finish(
            problem, incumbent, bound, sense_sign, stop, stats, root_basis,
        ))
    }

    /// The fix-and-complete rounding heuristic: rounds every integer
    /// variable of a node's LP solution into the node's bounds, fixes it
    /// there, and returns the completed point with its score if it is
    /// feasible.
    ///
    /// With continuous variables (`all_integer == false`), an LP warm
    /// from the node's basis completes them. In an all-integer model the
    /// fixed bounds leave exactly one point, so that point is checked
    /// directly: no LP, no basis, and the same feasibility test the LP
    /// path applies to its own result ([`SolveStats::point_checks`]).
    #[allow(clippy::too_many_arguments)]
    fn fix_and_complete(
        &self,
        problem: &Problem,
        model: Option<&SparseModel>,
        bounds: &[(f64, f64)],
        lp_values: &[f64],
        node_basis: Option<&Basis>,
        int_vars: &[usize],
        all_integer: bool,
        sense_sign: f64,
        stats: &mut SolveStats,
    ) -> Result<Option<(Vec<f64>, f64)>, SolveError> {
        let mut fixed = bounds.to_vec();
        for &j in int_vars {
            let r = lp_values[j].round().clamp(bounds[j].0, bounds[j].1);
            let r = r.round();
            fixed[j] = (r, r);
        }
        let vals = if all_integer {
            stats.point_checks += 1;
            fixed.into_iter().map(|(r, _)| r).collect()
        } else {
            stats.lp_solves += 1;
            let (outcome, lp_stats) = solve_lp_with(
                problem,
                model,
                &LpOptions {
                    bound_overrides: Some(&fixed),
                    warm_basis: node_basis,
                    engine: self.lp_engine,
                },
            )?;
            stats.absorb_lp(&lp_stats);
            let LpOutcome::Optimal(s) = outcome else {
                return Ok(None);
            };
            let mut vals = s.values;
            for &j in int_vars {
                vals[j] = vals[j].round();
            }
            vals
        };
        if !problem.is_feasible(&vals, 1e-6) {
            return Ok(None);
        }
        let score = sense_sign * problem.objective_value(&vals);
        Ok(Some((vals, score)))
    }

    /// The budget that stops the search before it expands node number
    /// `nodes + 1`, if one has run out.
    fn budget_stop(&self, nodes: u64, has_incumbent: bool) -> Option<StopReason> {
        if !has_incumbent && nodes >= self.barren_node_limit {
            Some(StopReason::BarrenBudget)
        } else if nodes >= self.node_limit {
            Some(StopReason::NodeLimit)
        } else {
            None
        }
    }

    fn gap_closed(&self, incumbent_score: f64, bound: f64) -> bool {
        (incumbent_score - bound) <= self.relative_gap * incumbent_score.abs().max(1.0) + 1e-12
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        problem: &Problem,
        incumbent: Option<(Vec<f64>, f64)>,
        bound_score: f64,
        sense_sign: f64,
        stop: StopReason,
        mut stats: SolveStats,
        root_basis: Option<Basis>,
    ) -> MilpSolution {
        let (values, objective) = match &incumbent {
            Some((vals, _)) => (vals.clone(), problem.objective_value(vals)),
            None => (Vec::new(), f64::NAN),
        };
        let found = incumbent.is_some();
        let status = match stop {
            StopReason::GapClosed | StopReason::Drained if found => MilpStatus::Optimal,
            // A parallel worker may install an incumbent after another
            // worker tripped the barren budget; the solution is real.
            StopReason::NodeLimit | StopReason::BarrenBudget if found => MilpStatus::Feasible,
            StopReason::UnboundedRoot => MilpStatus::Unbounded,
            _ => MilpStatus::Infeasible,
        };
        stats.stops.record(stop);
        match stop {
            StopReason::GapClosed => tel::count!("flexsp.milp.stop_gap_closed"),
            StopReason::Drained => tel::count!("flexsp.milp.stop_drained"),
            StopReason::BarrenBudget => tel::count!("flexsp.milp.stop_barren_budget"),
            StopReason::NodeLimit => tel::count!("flexsp.milp.stop_node_limit"),
            StopReason::InfeasibleRoot => tel::count!("flexsp.milp.stop_infeasible_root"),
            StopReason::UnboundedRoot => tel::count!("flexsp.milp.stop_unbounded_root"),
        }
        tel::count!("flexsp.milp.solves");
        tel::count!("flexsp.milp.nodes", stats.nodes);
        tel::count!("flexsp.milp.lp_solves", stats.lp_solves);
        tel::count!("flexsp.milp.point_checks", stats.point_checks);
        tel::count!("flexsp.milp.matrix_builds", stats.matrix_builds);
        MilpSolution {
            status,
            values,
            objective,
            best_bound: sense_sign * bound_score,
            nodes: stats.nodes,
            // Set by `solve`, which times the whole search.
            solve_time_secs: 0.0,
            stats,
            root_basis,
        }
    }
}

/// The branching variable: the first fractional integer variable in
/// declaration order, with its value, or `None` when every integer
/// variable is integral. A model that declares its structural integers
/// first (the planner's group counts before its assignments) has B&B
/// settle those before anything else.
fn first_fractional(values: &[f64], int_vars: &[usize]) -> Option<(usize, f64)> {
    int_vars.iter().find_map(|&j| {
        let frac = values[j] - values[j].floor();
        (frac > INT_TOL && frac < 1.0 - INT_TOL).then_some((j, values[j]))
    })
}

struct OpenNode {
    score: f64,
    depth: u32,
    /// Heap insertion sequence number — the final, always-distinct
    /// tie-break that makes the node order total and deterministic.
    seq: u64,
    bounds: Vec<(f64, f64)>,
    /// Parent relaxation's optimal basis (warm start for this node).
    basis: Option<Basis>,
}

/// NaN-safe score comparison: NaN orders *after* every real score (a NaN
/// relaxation bound is "worst", so such a node is expanded last), and two
/// NaNs compare equal. Total over all f64 values.
fn score_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        // lint: allow(unwrap) both NaN cases are handled in the arms above
        (false, false) => a.partial_cmp(&b).expect("both non-NaN"),
    }
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for OpenNode {}
impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// **Documented total order** (`BinaryHeap` is a max-heap, so "greater"
/// means "expanded sooner"):
///
/// 1. *Lower* score first — best-first on the relaxation bound, with NaN
///    scores ordered last via [`score_cmp`].
/// 2. Ties break toward *deeper* nodes, so dives finish and produce
///    incumbents.
/// 3. Remaining ties break toward the *older* node (lower `seq`) — FIFO
///    among full equals, matching the order the serial search discovered
///    them.
///
/// `seq` is unique per search, so the order is total and deterministic:
/// serial and parallel runs pop equal-scored nodes in the same relative
/// order, and heap behavior never depends on unspecified tie handling.
impl Ord for OpenNode {
    fn cmp(&self, other: &Self) -> Ordering {
        score_cmp(other.score, self.score)
            .then_with(|| self.depth.cmp(&other.depth))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Mutable search state shared by all branch-and-bound workers, guarded
/// by a single mutex. Workers hold it only to claim a node and to push
/// children; LP solves happen outside the lock.
struct SearchState {
    heap: BinaryHeap<OpenNode>,
    /// Next heap insertion sequence number (root used 0).
    next_seq: u64,
    /// Total nodes claimed — the shared counter the node budget meters.
    claimed: u64,
    /// Workers currently expanding a node.
    active: usize,
    /// Per-worker score of the node being expanded (`INFINITY` = idle).
    /// Folded into the global bound so the gap check never ignores work
    /// still in flight.
    active_scores: Vec<f64>,
    /// Best feasible point: `(values, score)` in minimize-score space.
    incumbent: Option<(Vec<f64>, f64)>,
    stop: Option<StopReason>,
    /// Best bound to report when stopping on the gap or a budget.
    final_bound: f64,
    /// First LP error; aborts the whole search.
    error: Option<SolveError>,
}

/// Everything the worker pool shares. The incumbent *score* is mirrored
/// into a lock-free bit-cast atomic so the hot pruning path inside node
/// expansion never touches the mutex.
struct SharedSearch<'a> {
    solver: &'a MilpSolver,
    problem: &'a Problem,
    /// The solve's constraint matrix (`None` for the dense engine).
    model: Option<&'a SparseModel>,
    int_vars: &'a [usize],
    /// No continuous variables: heuristic completions are point checks.
    all_integer: bool,
    sense_sign: f64,
    state: Mutex<SearchState>,
    /// Signaled when children are pushed or the search stops.
    work: Condvar,
    /// `f64::to_bits` of the incumbent score (`INFINITY` if none).
    /// Monotonically non-increasing via CAS in [`Self::try_improve`].
    incumbent_score: AtomicU64,
}

impl SharedSearch<'_> {
    /// Lock-free read of the best incumbent score seen so far.
    fn best_score(&self) -> f64 {
        f64::from_bits(self.incumbent_score.load(AtomicOrd::Acquire))
    }

    /// CAS-improve the atomic incumbent score, then publish the values
    /// under the state lock. The post-CAS re-check keeps the stored
    /// values consistent when two workers improve concurrently.
    fn try_improve(&self, vals: Vec<f64>, score: f64) {
        let mut cur = self.incumbent_score.load(AtomicOrd::Acquire);
        loop {
            if score >= f64::from_bits(cur) {
                return;
            }
            match self.incumbent_score.compare_exchange_weak(
                cur,
                score.to_bits(),
                AtomicOrd::AcqRel,
                AtomicOrd::Acquire,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.incumbent.as_ref().is_none_or(|(_, s)| score < *s) {
            st.incumbent = Some((vals, score));
            tel::count!("flexsp.milp.incumbents");
        }
    }

    /// Valid lower bound on every undiscovered solution: the minimum
    /// score over open nodes *and* nodes currently being expanded (a
    /// worker may still push children scored at its claimed bound).
    fn global_bound(st: &SearchState) -> f64 {
        let open = st.heap.peek().map(|n| n.score).unwrap_or(f64::INFINITY);
        st.active_scores.iter().fold(open, |acc, &s| acc.min(s))
    }

    /// Worker loop: claim a node under the lock, expand it outside the
    /// lock, push children back, repeat. Termination mirrors the serial
    /// loop's exits — gap closed, everything prunable, limits, or the
    /// heap drained with all workers idle.
    fn worker(&self, w: usize) -> SolveStats {
        let mut stats = SolveStats::default();
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if st.stop.is_some() || st.error.is_some() {
                break;
            }
            if let Some((_, inc)) = &st.incumbent {
                let inc = *inc;
                // The heap top is the minimum open score; if it cannot
                // improve the incumbent nothing in the heap can (serial:
                // "nothing left can improve" exit). In-flight workers may
                // still push improving children, so keep draining.
                if st.heap.peek().is_some_and(|n| n.score >= inc - 1e-9) {
                    st.heap.clear();
                }
                let bound = Self::global_bound(&st);
                if self.solver.gap_closed(inc, bound) {
                    st.final_bound = bound.min(inc);
                    st.stop = Some(StopReason::GapClosed);
                    self.work.notify_all();
                    break;
                }
            }
            if st.heap.is_empty() {
                if st.active == 0 {
                    st.stop = Some(StopReason::Drained);
                    self.work.notify_all();
                    break;
                }
                st = {
                    let _wait_span =
                        tel::span!(tel::Category::Solver, "bnb.claim.wait", "worker" => w as u64);
                    self.work.wait(st).unwrap_or_else(|e| e.into_inner())
                };
                continue;
            }
            if let Some(stop) = self.solver.budget_stop(st.claimed, st.incumbent.is_some()) {
                let bound = Self::global_bound(&st);
                st.final_bound = match &st.incumbent {
                    Some((_, inc)) => bound.min(*inc),
                    None => bound,
                };
                st.stop = Some(stop);
                self.work.notify_all();
                break;
            }
            let node = {
                let _claim_span =
                    tel::span!(tel::Category::Solver, "bnb.claim", "worker" => w as u64);
                // lint: allow(unwrap) the claim loop only reaches here after observing a non-empty heap
                let node = st.heap.pop().expect("heap checked non-empty");
                st.claimed += 1;
                st.active += 1;
                st.active_scores[w] = node.score;
                node
            };
            drop(st);

            let expanded = {
                let _expand_span =
                    tel::span!(tel::Category::Solver, "bnb.expand", "worker" => w as u64);
                self.expand(node, &mut stats)
            };

            st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            st.active -= 1;
            st.active_scores[w] = f64::INFINITY;
            match expanded {
                Ok(children) => {
                    let _publish_span = tel::span!(tel::Category::Solver, "bnb.publish",
                        "children" => children.len() as u64);
                    for mut child in children {
                        child.seq = st.next_seq;
                        st.next_seq += 1;
                        st.heap.push(child);
                        self.work.notify_one();
                    }
                    // If this was the last in-flight node and it produced
                    // nothing, the loop iteration below declares Drained.
                }
                Err(e) => {
                    if st.error.is_none() {
                        st.error = Some(e);
                    }
                    self.work.notify_all();
                    break;
                }
            }
        }
        stats
    }

    /// Expand one claimed node: warm LP re-solve from the parent basis,
    /// prune against the lock-free incumbent score, run the rounding
    /// heuristic, and return up to two children (`seq` is assigned by
    /// the caller under the state lock). Runs without holding the lock.
    fn expand(&self, node: OpenNode, stats: &mut SolveStats) -> Result<Vec<OpenNode>, SolveError> {
        let solver = self.solver;
        stats.nodes += 1;
        stats.lp_solves += 1;
        let (outcome, lp_stats) = solve_lp_with(
            self.problem,
            self.model,
            &LpOptions {
                bound_overrides: Some(&node.bounds),
                warm_basis: node.basis.as_ref(),
                engine: solver.lp_engine,
            },
        )?;
        stats.absorb_lp(&lp_stats);
        let mut lp = match outcome {
            LpOutcome::Optimal(s) => s,
            // Infeasible subtree, or unbounded (root-only, handled before
            // workers start).
            _ => return Ok(Vec::new()),
        };
        let child_basis = lp.take_basis();
        let lp_score = self.sense_sign * lp.objective;
        if lp_score >= self.best_score() - 1e-9 {
            return Ok(Vec::new());
        }
        match first_fractional(&lp.values, self.int_vars) {
            None => {
                // Integral: candidate incumbent.
                let mut vals = lp.values.clone();
                for &j in self.int_vars {
                    vals[j] = vals[j].round();
                }
                let score = self.sense_sign * self.problem.objective_value(&vals);
                self.try_improve(vals, score);
                Ok(Vec::new())
            }
            Some((bvar, bval)) => {
                if let Some((vals, score)) = solver.fix_and_complete(
                    self.problem,
                    self.model,
                    &node.bounds,
                    &lp.values,
                    child_basis.as_ref(),
                    self.int_vars,
                    self.all_integer,
                    self.sense_sign,
                    stats,
                )? {
                    if score < self.best_score() {
                        stats.heuristic_incumbents += 1;
                        self.try_improve(vals, score);
                    }
                }
                let mut children = Vec::with_capacity(2);
                let (lo, hi) = node.bounds[bvar];
                let floor = bval.floor();
                if floor >= lo - FEAS_TOL {
                    let mut b = node.bounds.clone();
                    b[bvar] = (lo, floor.min(hi));
                    if b[bvar].0 <= b[bvar].1 + FEAS_TOL {
                        children.push(OpenNode {
                            score: lp_score,
                            depth: node.depth + 1,
                            seq: 0, // assigned under the state lock
                            bounds: b,
                            basis: child_basis.clone(),
                        });
                    }
                }
                let ceil = bval.ceil();
                if ceil <= hi + FEAS_TOL {
                    let mut b = node.bounds.clone();
                    b[bvar] = (ceil.max(lo), hi);
                    if b[bvar].0 <= b[bvar].1 + FEAS_TOL {
                        children.push(OpenNode {
                            score: lp_score,
                            depth: node.depth + 1,
                            seq: 0,
                            bounds: b,
                            basis: child_basis,
                        });
                    }
                }
                Ok(children)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Rng;
    use crate::{LinExpr, Problem, VarKind};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn knapsack_exact() {
        // max Σ v x, Σ w x <= 26; optimum 51 with items {1,2,4} (w 25).
        let v = [24.0, 13.0, 23.0, 15.0, 16.0];
        let w = [12.0, 7.0, 11.0, 8.0, 9.0];
        let mut p = Problem::maximize();
        let xs: Vec<_> = (0..5).map(|i| p.add_binary(format!("x{i}"))).collect();
        p.add_le(
            LinExpr::from_terms(xs.iter().copied().zip(w.iter().copied())),
            26.0,
        );
        p.set_objective(LinExpr::from_terms(
            xs.iter().copied().zip(v.iter().copied()),
        ));
        let sol = MilpSolver::new().solve(&p).unwrap();
        assert_eq!(sol.status(), MilpStatus::Optimal);
        // Brute-force optimum for this instance:
        let mut best = 0.0f64;
        for mask in 0u32..32 {
            let (mut tv, mut tw) = (0.0, 0.0);
            for i in 0..5 {
                if mask & (1 << i) != 0 {
                    tv += v[i];
                    tw += w[i];
                }
            }
            if tw <= 26.0 {
                best = best.max(tv);
            }
        }
        approx(sol.objective(), best);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // x[i][j] and x[j][i] in one loop
    fn assignment_problem() {
        // 3×3 assignment, cost matrix; optimum picks one per row/col.
        let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        let mut p = Problem::minimize();
        let mut x = [[None; 3]; 3];
        for (i, row) in x.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = Some(p.add_binary(format!("x{i}{j}")));
            }
        }
        for i in 0..3 {
            p.add_eq(
                LinExpr::from_terms((0..3).map(|j| (x[i][j].unwrap(), 1.0))),
                1.0,
            );
            p.add_eq(
                LinExpr::from_terms((0..3).map(|j| (x[j][i].unwrap(), 1.0))),
                1.0,
            );
        }
        let mut obj = LinExpr::new();
        for i in 0..3 {
            for j in 0..3 {
                obj.add_term(x[i][j].unwrap(), cost[i][j]);
            }
        }
        p.set_objective(obj);
        let sol = MilpSolver::new().solve(&p).unwrap();
        assert_eq!(sol.status(), MilpStatus::Optimal);
        approx(sol.objective(), 5.0); // (0,1)=1 + (1,0)=2 + (2,2)=2
    }

    #[test]
    fn general_integers() {
        // min 3x + 4y s.t. 2x + y >= 7, x + 3y >= 9, x,y ∈ Z≥0.
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Integer, 0.0, 100.0);
        let y = p.add_var("y", VarKind::Integer, 0.0, 100.0);
        p.add_ge(LinExpr::from_terms([(x, 2.0), (y, 1.0)]), 7.0);
        p.add_ge(LinExpr::from_terms([(x, 1.0), (y, 3.0)]), 9.0);
        p.set_objective(LinExpr::from_terms([(x, 3.0), (y, 4.0)]));
        let sol = MilpSolver::new().solve(&p).unwrap();
        // Brute force over a small grid:
        let mut best = f64::INFINITY;
        for xi in 0..20 {
            for yi in 0..20 {
                let (xf, yf) = (xi as f64, yi as f64);
                if 2.0 * xf + yf >= 7.0 && xf + 3.0 * yf >= 9.0 {
                    best = best.min(3.0 * xf + 4.0 * yf);
                }
            }
        }
        approx(sol.objective(), best);
    }

    #[test]
    fn infeasible_milp() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.add_ge(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), 3.0);
        p.set_objective(LinExpr::term(x, 1.0));
        let sol = MilpSolver::new().solve(&p).unwrap();
        assert_eq!(sol.status(), MilpStatus::Infeasible);
    }

    #[test]
    fn unbounded_milp() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Integer, 0.0, f64::INFINITY);
        p.set_objective(LinExpr::term(x, 1.0));
        let sol = MilpSolver::new().solve(&p).unwrap();
        assert_eq!(sol.status(), MilpStatus::Unbounded);
    }

    #[test]
    fn warm_start_is_used_and_improved() {
        // Knapsack where warm start is suboptimal.
        let mut p = Problem::maximize();
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.add_le(LinExpr::from_terms([(a, 1.0), (b, 1.0)]), 1.0);
        p.set_objective(LinExpr::from_terms([(a, 1.0), (b, 2.0)]));
        let sol = MilpSolver::new()
            .warm_start(vec![1.0, 0.0])
            .solve(&p)
            .unwrap();
        approx(sol.objective(), 2.0);
    }

    #[test]
    fn zero_node_budget_returns_warm_start() {
        let mut p = Problem::maximize();
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.add_le(LinExpr::from_terms([(a, 1.0), (b, 1.0)]), 1.0);
        p.set_objective(LinExpr::from_terms([(a, 1.0), (b, 2.0)]));
        let sol = MilpSolver::new()
            .node_limit(0)
            .warm_start(vec![1.0, 0.0])
            .solve(&p)
            .unwrap();
        assert_eq!(sol.status(), MilpStatus::Feasible);
        approx(sol.objective(), 1.0);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max x + y, x integer ≤ 2.5 constraint, y continuous ≤ 1.7.
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Integer, 0.0, 10.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, 10.0);
        p.add_le(LinExpr::term(x, 1.0), 2.5);
        p.add_le(LinExpr::term(y, 1.0), 1.7);
        p.set_objective(LinExpr::from_terms([(x, 1.0), (y, 1.0)]));
        let sol = MilpSolver::new().solve(&p).unwrap();
        approx(sol.objective(), 3.7);
        approx(sol.value(x), 2.0);
    }

    /// Mirror of the planner's makespan objective: minimize a continuous
    /// C with C >= load_g for two "groups"; items of weights `w` are
    /// assigned binarily.
    fn two_group_makespan(w: &[f64]) -> Problem {
        let mut p = Problem::minimize();
        let c = p.add_var("C", VarKind::Continuous, 0.0, f64::INFINITY);
        let mut assign = Vec::new();
        for (i, _) in w.iter().enumerate() {
            let a = p.add_binary(format!("a{i}")); // 1 = group A, 0 = group B
            assign.push(a);
        }
        let mut load_a = LinExpr::new();
        let mut load_b = LinExpr::constant_expr(w.iter().sum());
        for (i, &a) in assign.iter().enumerate() {
            load_a.add_term(a, w[i]);
            load_b.add_term(a, -w[i]);
        }
        p.add_constraint(load_a.clone() - LinExpr::term(c, 1.0), crate::Cmp::Le, 0.0);
        p.add_constraint(load_b.clone() - LinExpr::term(c, 1.0), crate::Cmp::Le, 0.0);
        p.set_objective(LinExpr::term(c, 1.0));
        p
    }

    #[test]
    fn minmax_via_auxiliary_variable() {
        let sol = MilpSolver::new()
            .solve(&two_group_makespan(&[5.0, 3.0, 2.0]))
            .unwrap();
        approx(sol.objective(), 5.0); // {5} vs {3,2}
    }

    fn open(score: f64, depth: u32, seq: u64) -> OpenNode {
        OpenNode {
            score,
            depth,
            seq,
            bounds: Vec::new(),
            basis: None,
        }
    }

    #[test]
    fn open_node_order_is_total_and_nan_safe() {
        // Max-heap: Greater = expanded sooner. Lower score wins...
        assert_eq!(open(1.0, 0, 0).cmp(&open(2.0, 5, 9)), Ordering::Greater);
        // ...NaN scores are expanded last and compare equal to each other
        // (then fall through to the depth/seq tie-breaks)...
        assert_eq!(open(f64::NAN, 0, 0).cmp(&open(2.0, 0, 1)), Ordering::Less);
        assert_eq!(
            open(f64::NAN, 0, 0).cmp(&open(f64::NAN, 0, 1)),
            Ordering::Greater
        );
        // ...equal scores prefer the deeper node (finish dives first)...
        assert_eq!(open(3.0, 2, 0).cmp(&open(3.0, 1, 9)), Ordering::Greater);
        // ...and full ties prefer the older node (FIFO among equals).
        assert_eq!(open(3.0, 1, 2).cmp(&open(3.0, 1, 7)), Ordering::Greater);
        // seq is unique per search, so distinct nodes never compare Equal:
        // the order is total, antisymmetric, and deterministic.
        let a = open(3.0, 1, 7);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert_eq!(
            open(3.0, 1, 7).cmp(&open(3.0, 1, 2)).reverse(),
            open(3.0, 1, 2).cmp(&open(3.0, 1, 7))
        );
    }

    #[test]
    fn heap_pops_in_documented_order() {
        let mut heap = BinaryHeap::new();
        for node in [
            open(2.0, 1, 1),
            open(1.0, 0, 2),
            open(1.0, 3, 3),
            open(1.0, 3, 4),
            open(f64::NAN, 9, 5),
        ] {
            heap.push(node);
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|n| n.seq)).collect();
        // Best score first; among score ties deepest first; among full
        // ties oldest first; NaN dead last.
        assert_eq!(order, vec![3, 4, 2, 1, 5]);
    }

    /// A knapsack big enough that every thread count has real work, with
    /// a unique optimum so objective equality is meaningful.
    fn wide_knapsack() -> (Problem, f64) {
        let v = [24.0, 13.0, 23.0, 15.0, 16.0, 9.0, 7.0, 11.0, 5.0, 8.0];
        let w = [12.0, 7.0, 11.0, 8.0, 9.0, 5.0, 4.0, 6.0, 3.0, 5.0];
        let cap = 33.0;
        let mut p = Problem::maximize();
        let xs: Vec<_> = (0..v.len())
            .map(|i| p.add_binary(format!("x{i}")))
            .collect();
        p.add_le(
            LinExpr::from_terms(xs.iter().copied().zip(w.iter().copied())),
            cap,
        );
        p.set_objective(LinExpr::from_terms(
            xs.iter().copied().zip(v.iter().copied()),
        ));
        let mut best = 0.0f64;
        for mask in 0u32..(1 << v.len()) {
            let (mut tv, mut tw) = (0.0, 0.0);
            for i in 0..v.len() {
                if mask & (1 << i) != 0 {
                    tv += v[i];
                    tw += w[i];
                }
            }
            if tw <= cap {
                best = best.max(tv);
            }
        }
        (p, best)
    }

    #[test]
    fn parallel_threads_match_serial_objective() {
        let (p, best) = wide_knapsack();
        let serial = MilpSolver::new().solve(&p).unwrap();
        assert_eq!(serial.status(), MilpStatus::Optimal);
        approx(serial.objective(), best);
        for threads in [2, 4, 8] {
            let par = MilpSolver::new().threads(threads).solve(&p).unwrap();
            assert_eq!(par.status(), MilpStatus::Optimal, "threads={threads}");
            approx(par.objective(), serial.objective());
            assert!(p.is_feasible(par.values(), 1e-6));
        }
    }

    #[test]
    fn parallel_respects_zero_node_budget() {
        let (p, _) = wide_knapsack();
        let warm = vec![0.0; 10];
        let sol = MilpSolver::new()
            .threads(4)
            .node_limit(0)
            .warm_start(warm)
            .solve(&p)
            .unwrap();
        // Budget spent before any node: the warm start survives as a
        // feasible (not proven optimal) incumbent, as in the serial path.
        assert_eq!(sol.status(), MilpStatus::Feasible);
        approx(sol.objective(), 0.0);
    }

    /// True when `sol` is one solve that stopped for `reason`.
    fn stopped(sol: &MilpSolution, reason: StopReason) -> bool {
        let stops = sol.stats().stops;
        stops.total() == 1 && stops.get(reason) == 1
    }

    #[test]
    fn every_solve_records_one_stop_reason() {
        let (p, _) = wide_knapsack();
        let solved = MilpSolver::new().solve(&p).unwrap();
        assert!(
            stopped(&solved, StopReason::GapClosed) || stopped(&solved, StopReason::Drained),
            "{:?}",
            solved.stats()
        );
        let capped = MilpSolver::new()
            .node_limit(0)
            .warm_start(vec![0.0; 10])
            .solve(&p)
            .unwrap();
        assert!(stopped(&capped, StopReason::NodeLimit));

        let mut infeasible = Problem::minimize();
        let x = infeasible.add_binary("x");
        infeasible.add_ge(LinExpr::term(x, 1.0), 2.0);
        infeasible.set_objective(LinExpr::term(x, 1.0));
        let sol = MilpSolver::new().solve(&infeasible).unwrap();
        assert!(stopped(&sol, StopReason::InfeasibleRoot));

        let mut unbounded = Problem::maximize();
        let y = unbounded.add_var("y", VarKind::Integer, 0.0, f64::INFINITY);
        unbounded.set_objective(LinExpr::term(y, 1.0));
        let sol = MilpSolver::new().solve(&unbounded).unwrap();
        assert!(stopped(&sol, StopReason::UnboundedRoot));

        let mut sum = solved.stats();
        sum.absorb(&capped.stats());
        assert_eq!(sum.stops.total(), 2);
        assert_eq!(sum.stops.get(StopReason::NodeLimit), 1);
    }

    #[test]
    fn one_matrix_build_serves_every_relaxation() {
        let (p, _) = wide_knapsack();
        let mut sum = SolveStats::default();
        for threads in [1, 4] {
            let s = MilpSolver::new()
                .threads(threads)
                .solve(&p)
                .unwrap()
                .stats();
            assert!(s.nodes > 1 && s.lp_solves > 1, "threads={threads}: {s:?}");
            assert_eq!(s.matrix_builds, 1, "threads={threads}");
            sum.absorb(&s);
        }
        assert_eq!(sum.matrix_builds, 2);
        let dense = MilpSolver::new()
            .lp_engine(LpEngine::DenseTableau)
            .solve(&p)
            .unwrap()
            .stats();
        assert!(dense.lp_solves > 1, "{dense:?}");
        assert_eq!(dense.matrix_builds, 0);

        // A violated variable-free row is caught by the build itself.
        let mut trivial = Problem::minimize();
        let x = trivial.add_binary("x");
        trivial.add_ge(LinExpr::new(), 1.0);
        trivial.set_objective(LinExpr::term(x, 1.0));
        let sol = MilpSolver::new().solve(&trivial).unwrap();
        assert_eq!(sol.status(), MilpStatus::Infeasible);
        assert!(stopped(&sol, StopReason::InfeasibleRoot));
        assert_eq!((sol.stats().matrix_builds, sol.stats().lp_solves), (1, 0));
    }

    #[test]
    fn all_integer_completions_solve_no_lp() {
        let (p, _) = wide_knapsack();
        for threads in [1, 4] {
            let s = MilpSolver::new()
                .threads(threads)
                .solve(&p)
                .unwrap()
                .stats();
            // The root LP, then one LP per node and none per completion.
            assert_eq!(s.lp_solves, s.nodes + 1, "threads={threads}: {s:?}");
            assert!(s.point_checks > 0, "threads={threads}: {s:?}");
        }
        // A continuous variable keeps the completion LP. The relaxation
        // splits 16 evenly, so the search has to branch.
        let mixed = MilpSolver::new()
            .solve(&two_group_makespan(&[7.0, 5.0, 4.0]))
            .unwrap();
        approx(mixed.objective(), 9.0); // {7} vs {5,4}
        let s = mixed.stats();
        assert!(s.lp_solves > s.nodes + 1, "{s:?}");
        assert_eq!(s.point_checks, 0);
    }

    /// An all-integer problem with integer coefficients: 2–6 variables
    /// with upper bounds 1–5 and 1–5 rows, mostly `≤`.
    fn random_integer_problem(rng: &mut Rng) -> Problem {
        let mut p = if rng.int(0, 1) == 0 {
            Problem::minimize()
        } else {
            Problem::maximize()
        };
        let vars: Vec<_> = (0..rng.int(2, 6))
            .map(|i| p.add_var(format!("x{i}"), VarKind::Integer, 0.0, rng.int(1, 5) as f64))
            .collect();
        for _ in 0..rng.int(1, 5) {
            let mut e = LinExpr::new();
            for &v in &vars {
                if rng.int(0, 2) > 0 {
                    e.add_term(v, rng.int(-3, 3) as f64);
                }
            }
            let rhs = rng.int(-2, 12) as f64;
            match rng.int(0, 5) {
                0 => p.add_ge(e, rhs),
                1 => p.add_eq(e, rhs),
                _ => p.add_le(e, rhs),
            };
        }
        p.set_objective(LinExpr::from_terms(
            vars.iter()
                .map(|&v| (v, rng.int(-5, 5) as f64))
                .collect::<Vec<_>>(),
        ));
        p
    }

    #[test]
    fn point_check_matches_the_warm_completion_lp() {
        let mut rng = Rng(0xf1c5_c0de);
        let solver = MilpSolver::new();
        let (mut by_lp_stats, mut by_point_stats) = (SolveStats::default(), SolveStats::default());
        let (mut feasible, mut infeasible) = (0, 0);
        for _ in 0..400 {
            let p = random_integer_problem(&mut rng);
            let BuildOutcome::Model(model) = SparseModel::build(&p) else {
                continue;
            };
            let int_vars: Vec<usize> = (0..p.num_vars()).collect();
            let sense_sign = match p.sense() {
                ObjectiveSense::Minimize => 1.0,
                ObjectiveSense::Maximize => -1.0,
            };
            for _ in 0..8 {
                // Node bounds as branching makes them, the node's basis,
                // and a fractional point to round (not always in bounds).
                let bounds: Vec<(f64, f64)> = p
                    .vars
                    .iter()
                    .map(|d| {
                        let lo = rng.int(0, d.upper as i64);
                        (lo as f64, rng.int(lo, d.upper as i64) as f64)
                    })
                    .collect();
                let (node, _) = solve_lp_with(
                    &p,
                    Some(&model),
                    &LpOptions {
                        bound_overrides: Some(&bounds),
                        ..Default::default()
                    },
                )
                .unwrap();
                let basis = node.optimal().and_then(|s| s.basis().cloned());
                let point: Vec<f64> = bounds
                    .iter()
                    .map(|&(lo, hi)| rng.int(8 * lo as i64 - 8, 8 * hi as i64 + 8) as f64 / 8.0)
                    .collect();
                let complete = |all_integer, stats: &mut SolveStats| {
                    solver
                        .fix_and_complete(
                            &p,
                            Some(&model),
                            &bounds,
                            &point,
                            basis.as_ref(),
                            &int_vars,
                            all_integer,
                            sense_sign,
                            stats,
                        )
                        .unwrap()
                };
                let by_lp = complete(false, &mut by_lp_stats);
                let by_point = complete(true, &mut by_point_stats);
                // `==` on the values: the LP may return -0.0 for +0.0.
                assert_eq!(by_point, by_lp, "{p:?} bounds {bounds:?} point {point:?}");
                if by_point.is_some() {
                    feasible += 1;
                } else {
                    infeasible += 1;
                }
            }
        }
        let checks = feasible + infeasible;
        assert_eq!(by_point_stats.point_checks, checks);
        assert_eq!(by_point_stats.lp_solves, 0);
        assert_eq!(by_lp_stats.lp_solves, checks);
        assert_eq!(by_lp_stats.point_checks, 0);
        assert!(
            feasible >= 500 && infeasible >= 2000 && by_lp_stats.basis_reuse_hits >= 700,
            "{feasible} feasible, {infeasible} infeasible, {by_lp_stats:?}"
        );
    }

    /// Integer-infeasible, but only branching can tell: `2(x1 + … + x6)
    /// = 7` has fractional LP solutions at every node until the search
    /// runs out of subtrees.
    fn parity_trap() -> Problem {
        let mut p = Problem::minimize();
        let xs: Vec<_> = (0..6)
            .map(|i| p.add_var(format!("x{i}"), VarKind::Integer, 0.0, 3.0))
            .collect();
        p.add_eq(LinExpr::from_terms(xs.iter().map(|&x| (x, 2.0))), 7.0);
        p.set_objective(LinExpr::from_terms(xs.iter().map(|&x| (x, 1.0))));
        p
    }

    #[test]
    fn barren_budget_gives_up_without_an_incumbent() {
        let p = parity_trap();
        let full = MilpSolver::new().solve(&p).unwrap();
        assert_eq!(full.status(), MilpStatus::Infeasible);
        assert!(stopped(&full, StopReason::Drained));
        assert!(full.nodes() > 8, "needs a real tree: {}", full.nodes());
        for threads in [1, 4] {
            let barren = MilpSolver::new()
                .barren_node_limit(8)
                .threads(threads)
                .solve(&p)
                .unwrap();
            assert_eq!(barren.status(), MilpStatus::Infeasible);
            assert!(stopped(&barren, StopReason::BarrenBudget));
            assert_eq!(barren.nodes(), 8, "threads={threads}");
            assert_status_matches_values(&barren);
        }
        // A zero budget stops before the first node, unless an incumbent
        // (here a warm start) is already in hand.
        let (k, best) = wide_knapsack();
        let cold = MilpSolver::new().barren_node_limit(0).solve(&k).unwrap();
        assert!(stopped(&cold, StopReason::BarrenBudget));
        assert_status_matches_values(&cold);
        let warm = MilpSolver::new()
            .barren_node_limit(0)
            .warm_start(vec![0.0; 10])
            .solve(&k)
            .unwrap();
        assert_eq!(warm.status(), MilpStatus::Optimal);
        approx(warm.objective(), best);
        // With several workers, one may still be expanding a node that
        // yields an incumbent after another tripped the budget. That
        // solution is real, so the status must say so.
        let late = MilpSolver::new().finish(
            &k,
            Some((vec![0.0; 10], 0.0)),
            f64::NEG_INFINITY,
            -1.0,
            StopReason::BarrenBudget,
            SolveStats::default(),
            None,
        );
        assert_eq!(late.status(), MilpStatus::Feasible);
        assert!(stopped(&late, StopReason::BarrenBudget));
        assert_status_matches_values(&late);
    }

    /// A solve reports a solution exactly when it returns values.
    fn assert_status_matches_values(sol: &MilpSolution) {
        assert_eq!(
            sol.status().has_solution(),
            !sol.values().is_empty(),
            "{:?} with {} values",
            sol.status(),
            sol.values().len()
        );
    }

    #[test]
    fn branches_on_the_first_fractional_variable() {
        let values = [0.0, 0.9, 2.0, 0.5];
        assert_eq!(first_fractional(&values, &[0, 1, 2, 3]), Some((1, 0.9)));
        assert_eq!(first_fractional(&values, &[2, 3]), Some((3, 0.5)));
        assert_eq!(first_fractional(&[1.0, 2.0], &[0, 1]), None);
    }

    #[test]
    fn node_budgeted_serial_search_is_repeatable() {
        let p = parity_trap();
        let run = || MilpSolver::new().node_limit(40).solve(&p).unwrap();
        let (a, b) = (run(), run());
        assert_eq!(a.stats(), b.stats());
        assert!(stopped(&a, StopReason::NodeLimit));
    }

    #[test]
    fn parallel_infeasible_matches_serial() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.add_ge(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), 3.0);
        p.set_objective(LinExpr::from_terms([(x, 1.0), (y, 1.0)]));
        let sol = MilpSolver::new().threads(4).solve(&p).unwrap();
        assert_eq!(sol.status(), MilpStatus::Infeasible);
    }
}
