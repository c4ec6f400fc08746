//! LP entry points: engine selection, warm starts, and solve statistics.
//!
//! Two interchangeable engines solve the linear relaxation:
//!
//! * [`LpEngine::SparseRevised`] (default) — revised simplex over sparse
//!   columns with an LU-factored basis, product-form eta updates, and
//!   periodic refactorization ([`crate::revised`]). Supports warm-basis
//!   re-solves: install a [`Basis`] from a previous solution and the
//!   bounded dual simplex repairs primal feasibility after RHS/bound
//!   edits instead of re-running phase 1.
//! * [`LpEngine::DenseTableau`] — the original dense two-phase tableau
//!   ([`crate::dense`]), kept as an always-available A/B reference.
//!
//! [`solve_lp`] keeps the original cold-start signature; [`solve_lp_opts`]
//! exposes warm starts and per-solve [`LpStats`]. Both build the sparse
//! matrix per call; branch and bound builds it once per MILP solve and
//! calls the crate-private `solve_lp_with` for each relaxation.

use crate::basis::Basis;
use crate::error::SolveError;
use crate::problem::Problem;
use crate::revised::Engine;
use crate::sparse::{BuildOutcome, SparseModel};
use crate::FEAS_TOL;

/// Which LP algorithm runs the relaxation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LpEngine {
    /// Sparse revised simplex with warm-basis support (default).
    #[default]
    SparseRevised,
    /// Legacy dense tableau (cold starts only; A/B reference).
    DenseTableau,
}

/// Options for [`solve_lp_opts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LpOptions<'a> {
    /// Per-variable `(lower, upper)` overrides (used by branch and bound).
    pub bound_overrides: Option<&'a [(f64, f64)]>,
    /// Basis from a previous solve of the same-shaped problem to warm
    /// start from. Ignored by the dense engine; silently dropped when it
    /// no longer fits.
    pub warm_basis: Option<&'a Basis>,
    /// Engine selection.
    pub engine: LpEngine,
}

/// Counters describing one LP solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Primal simplex basis changes.
    pub primal_pivots: u64,
    /// Dual simplex basis changes (warm re-solves only).
    pub dual_pivots: u64,
    /// Nonbasic bound flips.
    pub bound_flips: u64,
    /// Basis refactorizations (beyond the initial factorization).
    pub refactorizations: u64,
    /// A warm basis was supplied and installation was attempted.
    pub warm_attempted: bool,
    /// The warm basis carried the solve to completion (no cold fallback).
    pub warm_used: bool,
}

impl LpStats {
    /// Total basis changes across both simplex variants.
    pub fn pivots(&self) -> u64 {
        self.primal_pivots + self.dual_pivots
    }
}

/// Result of solving a linear program.
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal(LpSolution),
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

impl LpOutcome {
    /// The solution if the outcome is [`LpOutcome::Optimal`].
    pub fn optimal(&self) -> Option<&LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// An optimal solution to a linear program.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Values of the structural variables, indexed by [`crate::VarId::index`]
    /// position.
    pub values: Vec<f64>,
    /// Objective value in the problem's own sense (including the
    /// objective's constant term).
    pub objective: f64,
    /// The optimal basis (sparse engine only), reusable via
    /// [`LpOptions::warm_basis`].
    pub(crate) basis: Option<Basis>,
}

impl LpSolution {
    /// The optimal basis, when the solving engine produced one. Feed it
    /// back through [`LpOptions::warm_basis`] (or
    /// [`MilpSolver::root_basis`](crate::MilpSolver::root_basis)) after
    /// mutating the problem's RHS, bounds, or coefficients to re-solve
    /// incrementally.
    pub fn basis(&self) -> Option<&Basis> {
        self.basis.as_ref()
    }

    /// Extracts the basis, leaving `None` behind.
    pub fn take_basis(&mut self) -> Option<Basis> {
        self.basis.take()
    }
}

/// Solves the linear relaxation of `problem`, optionally overriding
/// variable bounds (used by branch and bound). Cold start on the default
/// (sparse revised) engine; see [`solve_lp_opts`] for warm starts.
///
/// Integer/binary kinds are ignored — every variable is relaxed to its
/// (possibly overridden) continuous range.
///
/// # Errors
///
/// Returns [`SolveError::IterationLimit`] if the simplex fails to converge
/// within a generous pivot budget (a symptom of numerical trouble), and
/// [`SolveError::BoundMismatch`] if `bound_overrides` has the wrong length.
///
/// # Example
///
/// ```
/// use flexsp_milp::{solve_lp, LinExpr, LpOutcome, Problem, VarKind};
/// # fn main() -> Result<(), flexsp_milp::SolveError> {
/// let mut p = Problem::maximize();
/// let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
/// let y = p.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
/// p.add_le(LinExpr::from_terms([(x, 1.0), (y, 2.0)]), 14.0);
/// p.add_ge(LinExpr::from_terms([(x, 3.0), (y, -1.0)]), 0.0);
/// p.add_le(LinExpr::from_terms([(x, 1.0), (y, -1.0)]), 2.0);
/// p.set_objective(LinExpr::from_terms([(x, 3.0), (y, 4.0)]));
/// let out = solve_lp(&p, None)?;
/// let sol = out.optimal().expect("feasible");
/// assert!((sol.objective - 34.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn solve_lp(
    problem: &Problem,
    bound_overrides: Option<&[(f64, f64)]>,
) -> Result<LpOutcome, SolveError> {
    solve_lp_opts(
        problem,
        &LpOptions {
            bound_overrides,
            warm_basis: None,
            engine: LpEngine::SparseRevised,
        },
    )
    .map(|(outcome, _)| outcome)
}

/// Solves the linear relaxation with full control over engine, bound
/// overrides, and warm-basis reuse, returning per-solve [`LpStats`].
///
/// A warm basis that cannot be installed (shape mismatch, singular after
/// coefficient edits) or whose dual repair stalls is dropped and the
/// solve silently restarts cold — `stats.warm_attempted` and
/// `stats.warm_used` report what actually happened.
///
/// # Errors
///
/// Same conditions as [`solve_lp`].
pub fn solve_lp_opts(
    problem: &Problem,
    opts: &LpOptions<'_>,
) -> Result<(LpOutcome, LpStats), SolveError> {
    let model = match opts.engine {
        LpEngine::DenseTableau => None,
        LpEngine::SparseRevised => match SparseModel::build(problem) {
            BuildOutcome::Model(m) => Some(m),
            BuildOutcome::TriviallyInfeasible => {
                check_overrides(problem, opts)?;
                return Ok((LpOutcome::Infeasible, LpStats::default()));
            }
        },
    };
    solve_lp_with(problem, model.as_ref(), opts)
}

/// [`solve_lp_opts`] over a prebuilt constraint matrix: `model` is the
/// problem's [`SparseModel`] for the sparse engine and `None` for the
/// dense tableau, which builds its own. Branch and bound builds the model
/// once per MILP solve and passes it to every LP; only variable bounds
/// change between them.
pub(crate) fn solve_lp_with(
    problem: &Problem,
    model: Option<&SparseModel>,
    opts: &LpOptions<'_>,
) -> Result<(LpOutcome, LpStats), SolveError> {
    debug_assert_eq!(model.is_none(), opts.engine == LpEngine::DenseTableau);
    check_overrides(problem, opts)?;
    let bound = |j: usize| -> (f64, f64) {
        match opts.bound_overrides {
            Some(b) => b[j],
            None => {
                let d = &problem.vars[j];
                (d.lower, d.upper)
            }
        }
    };
    for j in 0..problem.num_vars() {
        let (l, u) = bound(j);
        if l > u + FEAS_TOL {
            return Ok((LpOutcome::Infeasible, LpStats::default()));
        }
    }

    let Some(model) = model else {
        let outcome = crate::dense::solve_dense(problem, opts.bound_overrides)?;
        return Ok((outcome, LpStats::default()));
    };

    if let Some(warm) = opts.warm_basis {
        match Engine::solve_warm(problem, model, &bound, warm) {
            Ok(result) => return Ok(result),
            Err(_) => {
                // Fall through to a cold solve, remembering the miss.
                let (outcome, mut stats) = Engine::solve_cold(problem, model, &bound)?;
                stats.warm_attempted = true;
                stats.warm_used = false;
                return Ok((outcome, stats));
            }
        }
    }
    Engine::solve_cold(problem, model, &bound)
}

/// Rejects bound overrides whose length does not match the problem.
fn check_overrides(problem: &Problem, opts: &LpOptions<'_>) -> Result<(), SolveError> {
    match opts.bound_overrides {
        Some(b) if b.len() != problem.num_vars() => Err(SolveError::BoundMismatch {
            expected: problem.num_vars(),
            got: b.len(),
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Rng;
    use crate::{LinExpr, VarKind};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// Runs both engines and asserts they agree before returning the
    /// sparse result.
    fn solve_both(p: &Problem) -> LpOutcome {
        let sparse = solve_lp(p, None).unwrap();
        let dense = solve_lp_opts(
            p,
            &LpOptions {
                engine: LpEngine::DenseTableau,
                ..Default::default()
            },
        )
        .unwrap()
        .0;
        match (&sparse, &dense) {
            (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) => approx(a.objective, b.objective),
            (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
            (LpOutcome::Unbounded, LpOutcome::Unbounded) => {}
            other => panic!("engines disagree: {other:?}"),
        }
        sparse
    }

    #[test]
    fn textbook_max_lp() {
        // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 → x=3, y=1.5, obj=21.
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        let y = p.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        p.add_le(LinExpr::from_terms([(x, 6.0), (y, 4.0)]), 24.0);
        p.add_le(LinExpr::from_terms([(x, 1.0), (y, 2.0)]), 6.0);
        p.set_objective(LinExpr::from_terms([(x, 5.0), (y, 4.0)]));
        let sol = solve_both(&p);
        let s = sol.optimal().unwrap();
        approx(s.objective, 21.0);
        approx(s.values[0], 3.0);
        approx(s.values[1], 1.5);
    }

    #[test]
    fn equality_and_ge_rows() {
        // min x + y s.t. x + y = 10, x >= 3, y >= 2 → obj 10.
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        let y = p.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        p.add_eq(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), 10.0);
        p.add_ge(LinExpr::term(x, 1.0), 3.0);
        p.add_ge(LinExpr::term(y, 1.0), 2.0);
        p.set_objective(LinExpr::from_terms([(x, 1.0), (y, 1.0)]));
        let sol = solve_both(&p);
        approx(sol.optimal().unwrap().objective, 10.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, 1.0);
        p.add_ge(LinExpr::term(x, 1.0), 5.0);
        p.set_objective(LinExpr::term(x, 1.0));
        assert!(matches!(solve_both(&p), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        p.set_objective(LinExpr::term(x, 1.0));
        assert!(matches!(solve_both(&p), LpOutcome::Unbounded));
    }

    #[test]
    fn respects_upper_bounds_without_rows() {
        // max x + y with x,y ∈ [0, 2] and x + y <= 3 → 3.
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, 2.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, 2.0);
        p.add_le(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), 3.0);
        p.set_objective(LinExpr::from_terms([(x, 1.0), (y, 1.0)]));
        let sol = solve_both(&p);
        approx(sol.optimal().unwrap().objective, 3.0);
    }

    #[test]
    fn bound_overrides_take_effect() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, 10.0);
        p.set_objective(LinExpr::term(x, 1.0));
        p.add_le(LinExpr::term(x, 1.0), 8.0);
        let sol = solve_lp(&p, Some(&[(0.0, 4.0)])).unwrap();
        approx(sol.optimal().unwrap().objective, 4.0);
    }

    #[test]
    fn nonzero_lower_bounds() {
        // min x + 2y, x ∈ [2, 5], y ∈ [1, 4], x + y >= 5 → x=4,y=1 → 6.
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 2.0, 5.0);
        let y = p.add_var("y", VarKind::Continuous, 1.0, 4.0);
        p.add_ge(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), 5.0);
        p.set_objective(LinExpr::from_terms([(x, 1.0), (y, 2.0)]));
        let sol = solve_both(&p);
        approx(sol.optimal().unwrap().objective, 6.0);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x with x ∈ [-5, 5], x >= -3 → -3.
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, -5.0, 5.0);
        p.add_ge(LinExpr::term(x, 1.0), -3.0);
        p.set_objective(LinExpr::term(x, 1.0));
        let sol = solve_both(&p);
        approx(sol.optimal().unwrap().objective, -3.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate construction; must not cycle.
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        let y = p.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        let z = p.add_var("z", VarKind::Continuous, 0.0, f64::INFINITY);
        p.add_le(LinExpr::from_terms([(x, 0.5), (y, -5.5), (z, -2.5)]), 0.0);
        p.add_le(LinExpr::from_terms([(x, 0.5), (y, -1.5), (z, -0.5)]), 0.0);
        p.add_le(LinExpr::term(x, 1.0), 1.0);
        p.set_objective(LinExpr::from_terms([(x, 10.0), (y, -57.0), (z, -9.0)]));
        let sol = solve_both(&p);
        assert!(sol.optimal().is_some());
    }

    #[test]
    fn objective_constant_reported() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 1.0, 3.0);
        p.set_objective(LinExpr::term(x, 2.0) + 7.0);
        let sol = solve_both(&p);
        approx(sol.optimal().unwrap().objective, 9.0);
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let p = Problem::minimize();
        let sol = solve_both(&p);
        approx(sol.optimal().unwrap().objective, 0.0);
    }

    #[test]
    fn constant_constraint_infeasible() {
        let mut p = Problem::minimize();
        let _x = p.add_var("x", VarKind::Continuous, 0.0, 1.0);
        p.add_ge(LinExpr::new(), 1.0); // 0 >= 1
        assert!(matches!(solve_both(&p), LpOutcome::Infeasible));
    }

    #[test]
    fn warm_resolve_after_rhs_tightening() {
        // max 5x + 4y s.t. 6x + 4y <= b, x + 2y <= 6.
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        let y = p.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        p.add_le(LinExpr::from_terms([(x, 6.0), (y, 4.0)]), 24.0);
        p.add_le(LinExpr::from_terms([(x, 1.0), (y, 2.0)]), 6.0);
        p.set_objective(LinExpr::from_terms([(x, 5.0), (y, 4.0)]));
        let (out, _) = solve_lp_opts(&p, &LpOptions::default()).unwrap();
        let basis = out.optimal().unwrap().basis().unwrap().clone();

        p.set_rhs(0, 18.0); // tighten the first row
        let (warm, stats) = solve_lp_opts(
            &p,
            &LpOptions {
                warm_basis: Some(&basis),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(stats.warm_attempted && stats.warm_used, "{stats:?}");
        let (cold, _) = solve_lp_opts(&p, &LpOptions::default()).unwrap();
        approx(
            warm.optimal().unwrap().objective,
            cold.optimal().unwrap().objective,
        );
    }

    #[test]
    fn warm_resolve_detects_new_infeasibility() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, 1.0);
        p.add_ge(LinExpr::term(x, 1.0), 0.5);
        p.set_objective(LinExpr::term(x, 1.0));
        let (out, _) = solve_lp_opts(&p, &LpOptions::default()).unwrap();
        let basis = out.optimal().unwrap().basis().unwrap().clone();
        p.set_rhs(0, 5.0); // now impossible with x ≤ 1
        let (warm, _) = solve_lp_opts(
            &p,
            &LpOptions {
                warm_basis: Some(&basis),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(matches!(warm, LpOutcome::Infeasible));
    }

    /// A bounded LP with 2–8 variables and 1–6 mixed-sense rows.
    fn random_problem(rng: &mut Rng) -> Problem {
        let mut p = if rng.int(0, 1) == 0 {
            Problem::minimize()
        } else {
            Problem::maximize()
        };
        let n = rng.int(2, 8) as usize;
        let vars: Vec<_> = (0..n)
            .map(|i| {
                p.add_var(
                    format!("x{i}"),
                    VarKind::Continuous,
                    0.0,
                    rng.int(1, 6) as f64,
                )
            })
            .collect();
        for _ in 0..rng.int(1, 6) {
            let mut e = LinExpr::new();
            for &v in &vars {
                if rng.int(0, 3) > 0 {
                    e.add_term(v, rng.int(-4, 4) as f64);
                }
            }
            let rhs = rng.int(-8, 16) as f64;
            match rng.int(0, 2) {
                0 => p.add_le(e, rhs),
                1 => p.add_ge(e, rhs),
                _ => p.add_eq(e, rhs),
            };
        }
        p.set_objective(LinExpr::from_terms(
            vars.iter()
                .map(|&v| (v, rng.int(-5, 5) as f64))
                .collect::<Vec<_>>(),
        ));
        p
    }

    /// Random sub-ranges of each variable's bounds, as branching makes
    /// them; about one set in eight crosses a pair.
    fn random_overrides(rng: &mut Rng, p: &Problem) -> Vec<(f64, f64)> {
        let mut b: Vec<(f64, f64)> = p
            .vars
            .iter()
            .map(|d| {
                let lo = rng.int(0, d.upper as i64);
                (lo as f64, rng.int(lo, d.upper as i64) as f64)
            })
            .collect();
        if rng.int(0, 7) == 0 {
            let j = rng.int(0, b.len() as i64 - 1) as usize;
            b[j] = (b[j].1 + 1.0, b[j].1);
        }
        b
    }

    fn assert_bit_equal(a: &(LpOutcome, LpStats), b: &(LpOutcome, LpStats)) {
        assert_eq!(a.1, b.1);
        match (&a.0, &b.0) {
            (LpOutcome::Optimal(x), LpOutcome::Optimal(y)) => {
                assert_eq!(x.objective.to_bits(), y.objective.to_bits());
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x.values), bits(&y.values));
                assert_eq!(x.basis, y.basis);
            }
            (LpOutcome::Infeasible, LpOutcome::Infeasible)
            | (LpOutcome::Unbounded, LpOutcome::Unbounded) => {}
            other => panic!("outcomes differ: {other:?}"),
        }
    }

    #[test]
    fn prebuilt_model_solves_bit_identically_to_a_per_lp_build() {
        let mut rng = Rng(0x5eed_f1e5);
        let (mut cold, mut warm_used) = (0, 0);
        for _ in 0..500 {
            let p = random_problem(&mut rng);
            let BuildOutcome::Model(model) = SparseModel::build(&p) else {
                continue;
            };
            let mut prior: Option<Basis> = None;
            for _ in 0..6 {
                let bounds = random_overrides(&mut rng, &p);
                let mut next = None;
                for warm_basis in std::iter::once(None).chain(prior.as_ref().map(Some)) {
                    let opts = LpOptions {
                        bound_overrides: Some(&bounds),
                        warm_basis,
                        engine: LpEngine::SparseRevised,
                    };
                    let per_lp = solve_lp_opts(&p, &opts).unwrap();
                    let shared = solve_lp_with(&p, Some(&model), &opts).unwrap();
                    assert_bit_equal(&per_lp, &shared);
                    if warm_basis.is_none() {
                        cold += 1;
                        next = per_lp.0.optimal().and_then(|s| s.basis().cloned());
                    } else if per_lp.1.warm_used {
                        warm_used += 1;
                    }
                }
                prior = next.or(prior);
            }
        }
        assert!(
            cold >= 2500 && warm_used >= 300,
            "{cold} cold, {warm_used} warm"
        );
    }

    #[test]
    fn mismatched_warm_basis_falls_back_cold() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, 3.0);
        p.add_le(LinExpr::term(x, 1.0), 2.0);
        p.set_objective(LinExpr::term(x, 1.0));
        let (out, _) = solve_lp_opts(&p, &LpOptions::default()).unwrap();
        let basis = out.optimal().unwrap().basis().unwrap().clone();

        // A different-shaped problem rejects the basis but still solves.
        let mut q = Problem::maximize();
        let a = q.add_var("a", VarKind::Continuous, 0.0, 1.0);
        let b = q.add_var("b", VarKind::Continuous, 0.0, 1.0);
        q.add_le(LinExpr::from_terms([(a, 1.0), (b, 1.0)]), 1.5);
        q.set_objective(LinExpr::from_terms([(a, 1.0), (b, 1.0)]));
        let (warm, stats) = solve_lp_opts(
            &q,
            &LpOptions {
                warm_basis: Some(&basis),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(stats.warm_attempted && !stats.warm_used);
        approx(warm.optimal().unwrap().objective, 1.5);
    }
}
