//! Output checks: a run counts an operation as failed unless its output
//! passes these.

use std::collections::HashSet;

use flexsp_arbiter::Lease;
use flexsp_core::IterationPlan;
use flexsp_data::Sequence;

/// The plan assigns every sequence of `batch` exactly once (same id, same
/// length) and nothing else.
pub fn covers_exactly(plan: &IterationPlan, batch: &[Sequence]) -> Result<(), String> {
    let mut want: Vec<(u64, u64)> = batch.iter().map(|s| (s.id, s.len)).collect();
    let mut got: Vec<(u64, u64)> = plan
        .micro_batches
        .iter()
        .flat_map(|mb| &mb.groups)
        .flat_map(|g| &g.seqs)
        .map(|s| (s.id, s.len))
        .collect();
    want.sort_unstable();
    got.sort_unstable();
    if want == got {
        return Ok(());
    }
    let missing = want.iter().filter(|s| !got.contains(s)).count();
    Err(format!(
        "plan carries {} sequences for a batch of {} ({missing} missing or changed)",
        got.len(),
        want.len()
    ))
}

/// Every group of the plan has a placement.
pub fn placed(plan: &IterationPlan) -> Result<(), String> {
    if plan.is_placed() {
        Ok(())
    } else {
        Err("plan has an unplaced group".into())
    }
}

/// No GPU sits in two of the `leases`.
pub fn leases_disjoint<'a>(leases: impl IntoIterator<Item = &'a Lease>) -> Result<(), String> {
    let mut seen = HashSet::new();
    for lease in leases {
        for gpu in lease.gpus() {
            if !seen.insert(*gpu) {
                return Err(format!("{gpu:?} is held by two live leases"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsp_core::{FlexSpSolver, SolverConfig};
    use flexsp_cost::CostModel;
    use flexsp_model::{ActivationPolicy, ModelConfig};
    use flexsp_sim::ClusterSpec;

    fn solved_plan() -> (IterationPlan, Vec<Sequence>) {
        let cluster = ClusterSpec::a100_cluster(1);
        let model = ModelConfig::gpt_7b(16 * 1024);
        let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
        let solver = FlexSpSolver::new(cost, SolverConfig::fast());
        let batch: Vec<Sequence> = [4096, 2048, 2048, 1024, 512]
            .iter()
            .enumerate()
            .map(|(i, &l)| Sequence::new(100 + i as u64, l))
            .collect();
        let solved = solver.solve_iteration(&batch).expect("small batch solves");
        (solved.plan, batch)
    }

    #[test]
    fn a_solved_plan_passes() {
        let (plan, batch) = solved_plan();
        assert_eq!(covers_exactly(&plan, &batch), Ok(()));
        assert_eq!(placed(&plan), Ok(()));
    }

    #[test]
    fn a_plan_with_one_dropped_sequence_fails() {
        let (mut plan, batch) = solved_plan();
        let group = plan
            .micro_batches
            .iter_mut()
            .flat_map(|mb| &mut mb.groups)
            .find(|g| !g.seqs.is_empty())
            .expect("a non-empty group");
        group.seqs.pop();
        assert!(covers_exactly(&plan, &batch).is_err());
    }

    #[test]
    fn a_plan_with_a_renamed_sequence_fails() {
        let (mut plan, batch) = solved_plan();
        plan.micro_batches[0].groups[0].seqs[0].id = 9999;
        assert!(covers_exactly(&plan, &batch).is_err());
    }

    #[test]
    fn an_unplaced_plan_fails() {
        let (mut plan, _) = solved_plan();
        plan.micro_batches[0].groups[0].placement = None;
        assert!(placed(&plan).is_err());
    }
}
