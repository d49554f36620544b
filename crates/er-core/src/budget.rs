//! Budget-constrained resolution.
//!
//! The paper's extended report describes configuring the approach "to
//! optimize for the case where the goal is to generate the highest possible
//! quality result given a resolution cost budget" (footnote 6). Two pieces
//! implement that here:
//!
//! 1. the schedule's cost vector is laid over the budget
//!    ([`pper_schedule::CostVectorSpec::BudgetPerTask`]), so bucket balancing
//!    and the weighting function optimize exactly the within-budget
//!    interval — work past the budget collapses into the last bucket and
//!    can be weighted down hard;
//! 2. the run is *truncated* at the budget: progressive ER's premature-
//!    termination guarantee means the result at budget `B` is every
//!    duplicate whose discovery event on the run's global timeline is
//!    stamped at or before `B` — [`run_with_budget`] reports both the
//!    truncated view and (for calibration) the run's full curve.

use pper_datagen::Dataset;
use pper_mapreduce::MrError;
use pper_schedule::CostVectorSpec;

use crate::config::ErConfig;
use crate::pipeline::{ErRunResult, ProgressiveEr};

/// What a budget-capped run delivered.
#[derive(Debug)]
pub struct BudgetReport {
    /// The cost budget the run was optimized for and truncated at.
    pub budget: f64,
    /// Correct-duplicate recall delivered within the budget.
    pub recall_at_budget: f64,
    /// Duplicate pairs discovered within the budget (correct and not).
    pub delivered: Vec<(u32, u32)>,
    /// Fraction of the budget consumed by preprocessing (job 1 + schedule
    /// generation + routing) rather than resolution.
    pub overhead_fraction: f64,
    /// The complete underlying run (curve beyond the budget included), for
    /// calibration plots.
    pub full_run: ErRunResult,
}

/// Run the pipeline optimized for, and truncated at, a total virtual-cost
/// budget.
///
/// The budget is a *cluster* budget in the same units as
/// [`ErRunResult::total_cost`]; the per-task share handed to the scheduler
/// divides it by the reduce task count.
///
/// # Panics
/// Panics if `budget` is not greater than zero (NaN included). Callers
/// taking the budget from outside the program check it first, as `pper run
/// --budget` does.
pub fn run_with_budget(
    config: &ErConfig,
    ds: &Dataset,
    budget: f64,
) -> Result<BudgetReport, MrError> {
    assert!(budget > 0.0, "budget must be positive");
    let mut config = config.clone();
    let per_task = budget / config.reduce_tasks() as f64;
    config.schedule.cost_vector = CostVectorSpec::BudgetPerTask(per_task);
    // With a budget, result mass past the horizon is worthless: use a
    // weighting that de-emphasizes late buckets hard.
    config.schedule.weighting = pper_schedule::Weighting::Exponential { decay: 0.7 };

    let full_run = ProgressiveEr::new(config).try_run(ds)?;

    let recall_at_budget = full_run.curve.recall_at(budget);
    let delivered = duplicates_within(&full_run, budget);
    Ok(BudgetReport {
        budget,
        recall_at_budget,
        overhead_fraction: (full_run.overhead_cost / budget).min(1.0),
        delivered,
        full_run,
    })
}

/// Duplicates found at or before `budget` on the run's global timeline.
fn duplicates_within(run: &ErRunResult, budget: f64) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = run
        .found_events
        .iter()
        .filter(|&&(cost, _, _)| cost <= budget)
        .map(|&(_, a, b)| (a.min(b), a.max(b)))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pper_datagen::PubGen;

    #[test]
    fn budget_truncates_and_reports() {
        let ds = PubGen::new(2_000, 111).generate();
        let config = ErConfig::citeseer(2);
        // First measure an unconstrained run to pick a mid-run budget.
        let full = ProgressiveEr::new(config.clone()).run(&ds);
        let budget = full.total_cost * 0.5;

        let report = run_with_budget(&config, &ds, budget).unwrap();
        assert!(report.recall_at_budget > 0.0);
        assert!(report.recall_at_budget <= report.full_run.curve.final_recall());
        assert!(report.overhead_fraction > 0.0 && report.overhead_fraction <= 1.0);
        // Delivered pairs are a subset of the full run's duplicates and at
        // least as many as the correct pairs counted by the curve.
        assert!(report
            .delivered
            .iter()
            .all(|p| report.full_run.duplicates.contains(p)));
        assert!(report.delivered.len() as u64 >= report.full_run.curve.found_at(budget));
    }

    #[test]
    fn larger_budget_never_hurts() {
        let ds = PubGen::new(1_500, 112).generate();
        let config = ErConfig::citeseer(2);
        let full = ProgressiveEr::new(config.clone()).run(&ds);
        let small = run_with_budget(&config, &ds, full.total_cost * 0.3).unwrap();
        let large = run_with_budget(&config, &ds, full.total_cost * 0.9).unwrap();
        assert!(large.recall_at_budget >= small.recall_at_budget);
    }

    #[test]
    fn budget_dominated_by_overhead_yields_nothing() {
        let ds = PubGen::new(1_500, 113).generate();
        let config = ErConfig::citeseer(2);
        let full = ProgressiveEr::new(config.clone()).run(&ds);
        // A budget below the preprocessing cost cannot deliver results.
        let report = run_with_budget(&config, &ds, full.overhead_cost * 0.5).unwrap();
        assert_eq!(report.recall_at_budget, 0.0);
        assert!(report.delivered.is_empty());
        assert_eq!(report.overhead_fraction, 1.0);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn rejects_nonpositive_budget() {
        let ds = PubGen::new(100, 114).generate();
        let _ = run_with_budget(&ErConfig::citeseer(1), &ds, 0.0);
    }
}
