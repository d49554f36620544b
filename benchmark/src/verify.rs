//! Output verification and the quality metrics read off a result.
//!
//! Every execution is checked; one that returns an error, differs from the
//! reference fingerprint, misses a recall target or falls below the quality
//! floors counts as failed against the executions attempted.

use std::sync::Arc;

use pper_datagen::Dataset;
use pper_er::prelude::*;
use pper_journal::{recover, JournalEvent, JournalState, JournalStore};
use pper_simil::MatchRule;

use crate::workload::{Workload, JOURNAL_JOB};

/// Lowest acceptable precision on every workload.
pub const PRECISION_FLOOR: f64 = 0.99;

/// The quality metrics of one result. All are functions of the deterministic
/// virtual clock and the generator's ground truth, so they repeat bit for bit
/// for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Correct duplicates found ÷ ground-truth duplicate pairs.
    pub final_recall: f64,
    /// Correct duplicates ÷ reported duplicates.
    pub precision: f64,
    /// Normalized area under the recall curve over the workload's horizon.
    pub auc_recall: f64,
    /// Virtual cost at which recall first reached 0.5.
    pub vcost_to_recall50: Option<f64>,
    /// Virtual cost at which recall first reached 0.8.
    pub vcost_to_recall80: Option<f64>,
    /// Virtual completion time of the simulated cluster.
    pub total_vcost: f64,
}

impl Quality {
    /// Read the quality metrics off a result.
    pub fn of(workload: Workload, ds: &Dataset, result: &ErRunResult) -> Self {
        Self {
            final_recall: result.curve.final_recall(),
            precision: result.precision,
            auc_recall: auc_recall(ds, result, workload.horizon()),
            vcost_to_recall50: result.curve.time_to_recall(0.5),
            vcost_to_recall80: result.curve.time_to_recall(0.8),
            total_vcost: result.total_cost,
        }
    }

    /// The mean of each metric over the datasets of a workload. A recall
    /// target one dataset missed stays missed.
    ///
    /// # Panics
    /// Panics on an empty slice: a workload has at least one dataset.
    pub fn mean(of: &[Quality]) -> Self {
        assert!(!of.is_empty(), "mean of no qualities");
        let mean = |f: &dyn Fn(&Quality) -> f64| of.iter().map(f).sum::<f64>() / of.len() as f64;
        let mean_reached = |f: &dyn Fn(&Quality) -> Option<f64>| {
            of.iter()
                .map(f)
                .sum::<Option<f64>>()
                .map(|sum| sum / of.len() as f64)
        };
        Self {
            final_recall: mean(&|q| q.final_recall),
            precision: mean(&|q| q.precision),
            auc_recall: mean(&|q| q.auc_recall),
            vcost_to_recall50: mean_reached(&|q| q.vcost_to_recall50),
            vcost_to_recall80: mean_reached(&|q| q.vcost_to_recall80),
            total_vcost: mean(&|q| q.total_vcost),
        }
    }

    /// The quality floors this falls below; empty if none. They are stated
    /// for a workload, so they are checked on the mean over its datasets: a
    /// single dataset an eighth of the size scatters a little below them.
    pub fn below_floors(&self, workload: Workload) -> Vec<String> {
        let mut why = Vec::new();
        if self.final_recall < workload.recall_floor() {
            why.push(format!(
                "final recall {:.4} below {}",
                self.final_recall,
                workload.recall_floor()
            ));
        }
        if self.precision < PRECISION_FLOOR {
            why.push(format!(
                "precision {:.4} below {PRECISION_FLOOR}",
                self.precision
            ));
        }
        why
    }

    /// The recall targets an execution with this quality never reached; empty
    /// if it reached both. Checked on every dataset.
    pub fn missed_targets(&self) -> Vec<String> {
        let mut why = Vec::new();
        if self.vcost_to_recall50.is_none() {
            why.push("never reached recall 0.5".into());
        }
        if self.vcost_to_recall80.is_none() {
            why.push("never reached recall 0.8".into());
        }
        why
    }
}

/// ∫₀ᴴ recall(c) dc / H for the step curve the result's correct duplicate
/// events trace, recall held at its final value after the run ends. Each
/// correct duplicate found at cost `c < H` contributes `(H − c) / (H · T)`,
/// `T` being the number of ground-truth pairs — the same counting as
/// `RecallCurve`, integrated exactly instead of sampled.
pub fn auc_recall(ds: &Dataset, result: &ErRunResult, horizon: f64) -> f64 {
    let total_truth = ds.truth.total_duplicate_pairs();
    if total_truth == 0 {
        return 0.0;
    }
    let area: f64 = result
        .found_events
        .iter()
        .filter(|&&(_, a, b)| ds.truth.is_duplicate(a, b))
        .map(|&(cost, _, _)| (horizon - cost).max(0.0))
        .sum();
    area / (horizon * total_truth as f64)
}

/// Re-score every reported duplicate with the string-path `MatchRule`, an
/// oracle independent of the prepared kernels the pipeline decides with.
/// Returns how many reported pairs the oracle rejects (0 when correct).
pub fn oracle_rejections(rule: &MatchRule, ds: &Dataset, result: &ErRunResult) -> usize {
    result
        .duplicates
        .iter()
        .filter(|&&(a, b)| !rule.matches(&ds.entity(a).attrs, &ds.entity(b).attrs))
        .count()
}

/// What recovery found in the journal a `books-durable` execution wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JournalSummary {
    /// Events in the journal.
    pub events: u64,
    /// Checkpoint-cut events among them.
    pub checkpoint_cuts: u64,
}

/// Recover the journal and check it is clean (no torn tail, no corruption)
/// and ends in `JobFinished` agreeing with `result`.
pub fn check_journal(
    journal: &Arc<dyn JournalStore>,
    result: &ErRunResult,
) -> Result<JournalSummary, String> {
    let recovered = recover(journal, JOURNAL_JOB).map_err(|e| e.to_string())?;
    if !recovered.report.clean() {
        return Err(format!("journal is not clean: {:?}", recovered.report));
    }
    match recovered.events.last() {
        Some((_, JournalEvent::JobFinished { duplicates, .. }))
            if *duplicates == result.duplicates.len() as u64 => {}
        Some((_, last)) => {
            return Err(format!(
                "journal ends in {}, expected job-finished with {} duplicates",
                last.name(),
                result.duplicates.len()
            ))
        }
        None => return Err("journal is empty".into()),
    }
    let state = JournalState::replay(&recovered.events);
    if state.finished.is_none() {
        return Err("replayed journal state is not finished".into());
    }
    let checkpoint_cuts = recovered
        .events
        .iter()
        .filter(|(_, e)| matches!(e, JournalEvent::CheckpointCut { .. }))
        .count() as u64;
    Ok(JournalSummary {
        events: recovered.events.len() as u64,
        checkpoint_cuts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pper_datagen::PubGen;

    #[test]
    fn auc_integrates_the_step_curve_exactly() {
        let ds = PubGen::new(600, 5).generate();
        let result = ProgressiveEr::new(ErConfig::citeseer(2)).run(&ds);
        let horizon = result.total_cost * 1.25;
        let auc = auc_recall(&ds, &result, horizon);
        // A fine left Riemann sum of the curve converges to the same area.
        let steps = 200_000;
        let riemann: f64 = (0..steps)
            .map(|i| result.curve.recall_at(horizon * i as f64 / steps as f64))
            .sum::<f64>()
            / steps as f64;
        assert!((auc - riemann).abs() < 1e-4, "{auc} vs {riemann}");
        assert!(auc > 0.0 && auc < result.curve.final_recall());
    }

    #[test]
    fn mean_quality_keeps_a_missed_target_missed() {
        let reached = Quality {
            final_recall: 0.9,
            precision: 1.0,
            auc_recall: 0.8,
            vcost_to_recall50: Some(100.0),
            vcost_to_recall80: Some(300.0),
            total_vcost: 1000.0,
        };
        let missed = Quality {
            final_recall: 0.7,
            vcost_to_recall80: None,
            ..reached
        };
        let mean = Quality::mean(&[reached, missed]);
        assert!((mean.final_recall - 0.8).abs() < 1e-12);
        assert_eq!(mean.vcost_to_recall50, Some(100.0));
        assert_eq!(mean.vcost_to_recall80, None);
        assert_eq!(mean.missed_targets().len(), 1);
        assert_eq!(mean.below_floors(Workload::PubsOurs).len(), 1);
    }

    #[test]
    fn string_path_oracle_accepts_what_the_pipeline_reports() {
        let ds = PubGen::new(600, 6).generate();
        let config = ErConfig::citeseer(2);
        let result = ProgressiveEr::new(config.clone()).run(&ds);
        assert!(!result.duplicates.is_empty());
        assert_eq!(oracle_rejections(&config.rule, &ds, &result), 0);
    }
}
