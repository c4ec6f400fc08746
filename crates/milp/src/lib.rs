//! Linear and mixed-integer linear programming for the FlexSP parallelism
//! planner.
//! (Where this crate sits in the solve → place → execute pipeline is
//! described in `docs/ARCHITECTURE.md` at the repository root.)
//!
//! The FlexSP paper (ASPLOS 2025) formulates heterogeneous sequence-parallel
//! group selection and sequence assignment as a mixed-integer linear program
//! (MILP) and solves it with SCIP. This crate is a from-scratch replacement
//! for that dependency: a dense, bounded-variable, two-phase primal simplex
//! for linear relaxations ([`solve_lp`]) and a best-first branch-and-bound
//! search with warm starts, a rounding heuristic, and node/gap limits
//! ([`MilpSolver`]).
//!
//! The solver is deliberately engineered for the planner's regime —
//! problems with a few hundred rows and a few hundred to a couple of
//! thousand variables, solved under a tight budget (the paper reports
//! 5–15 s per solve) where a good *feasible* plan matters more than a proven
//! optimum.
//!
//! # Incremental solving: `Basis` and the mutation API
//!
//! The planner recovers its min-max makespan by binary-searching a scalar
//! `C` over a sequence of *nearly identical* feasibility MILPs: between
//! steps only `C`-dependent coefficients, bounds, and right-hand sides
//! move. Rebuilding the model and re-running phase 1 at every step (and at
//! every branch-and-bound node) would dominate planning time, so this
//! crate supports editing a [`Problem`] in place and resuming from the
//! previous optimum:
//!
//! * **Mutation API** — [`Problem::set_rhs`], [`Problem::set_bounds`],
//!   [`Problem::set_objective_coef`], and [`Problem::set_constraint_coef`]
//!   edit numbers without changing the problem's shape.
//! * **[`Basis`]** — every sparse-engine [`LpSolution`] carries its
//!   optimal basis ([`LpSolution::basis`]); re-install it via
//!   [`LpOptions::warm_basis`] or [`MilpSolver::root_basis`] and the
//!   bounded *dual simplex* repairs primal feasibility in a handful of
//!   pivots instead of a cold two-phase solve. Branch and bound re-solves
//!   every child node from its parent's basis the same way.
//! * **Engines** — [`LpEngine::SparseRevised`] (default) runs a revised
//!   simplex over sparse columns with an LU-factored basis and eta
//!   updates; [`LpEngine::DenseTableau`] keeps the original dense tableau
//!   as an A/B reference, and property tests assert the two agree.
//!
//! Warm starts are best-effort by construction: a basis that no longer
//! fits (shape change, singular after edits, stalled dual) is dropped and
//! the solve silently restarts cold, so reuse never affects correctness —
//! only speed. [`SolveStats`] reports pivots, refactorizations, and
//! basis-reuse hits/misses so callers can verify reuse actually happens.
//!
//! # Example
//!
//! Maximize `3x + 2y` subject to `x + y <= 4`, `x + 3y <= 6` with integral
//! `x, y ∈ [0, 10]`:
//!
//! ```
//! use flexsp_milp::{LinExpr, MilpSolver, Problem, VarKind};
//!
//! # fn main() -> Result<(), flexsp_milp::SolveError> {
//! let mut p = Problem::maximize();
//! let x = p.add_var("x", VarKind::Integer, 0.0, 10.0);
//! let y = p.add_var("y", VarKind::Integer, 0.0, 10.0);
//! p.add_le(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), 4.0);
//! p.add_le(LinExpr::from_terms([(x, 1.0), (y, 3.0)]), 6.0);
//! p.set_objective(LinExpr::from_terms([(x, 3.0), (y, 2.0)]));
//!
//! let sol = MilpSolver::new().solve(&p)?;
//! assert_eq!(sol.value(x).round() as i64, 4);
//! assert_eq!(sol.value(y).round() as i64, 0);
//! assert!((sol.objective() - 12.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basis;
mod branch_bound;
mod dense;
mod error;
mod expr;
mod lu;
mod problem;
mod revised;
mod simplex;
mod solution;
mod sparse;

pub use basis::Basis;
pub use branch_bound::{MilpSolver, SolveStats, StopCounts, StopReason};
pub use error::SolveError;
pub use expr::{LinExpr, VarId};
pub use problem::{Cmp, Constraint, ObjectiveSense, Problem, VarKind};
pub use simplex::{solve_lp, solve_lp_opts, LpEngine, LpOptions, LpOutcome, LpSolution, LpStats};
pub use solution::{MilpSolution, MilpStatus};

/// Feasibility tolerance used throughout the crate.
pub const FEAS_TOL: f64 = 1e-7;
/// Integrality tolerance: a value within this distance of an integer is
/// considered integral.
pub const INT_TOL: f64 = 1e-6;
