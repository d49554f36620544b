//! Orchestration of the full progressive pipeline (Fig. 3): first job →
//! schedule generation → second job, with timelines merged onto one global
//! virtual clock.

use std::sync::Arc;

use pper_datagen::Dataset;
use pper_mapreduce::{Counters, MrError, ProgressEvent};
use pper_schedule::{generate_schedule, EstimationContext, Schedule};

use crate::config::ErConfig;
use crate::job1::run_job1;
use crate::job2::{run_job2, Job2Result};
use crate::metrics::RecallCurve;

/// Result of one ER run (ours or a baseline) — everything the experiment
/// harness needs.
#[derive(Debug)]
pub struct ErRunResult {
    /// Recall-versus-cost curve counting only *correct* duplicates.
    pub curve: RecallCurve,
    /// All pairs the matcher declared duplicates (normalized, deduplicated).
    pub duplicates: Vec<(u32, u32)>,
    /// Duplicate discovery events in timeline order: `(cost, a, b)` for
    /// every matcher-positive pair (correct or not).
    pub found_events: Vec<(f64, u32, u32)>,
    /// Virtual completion time of the whole run.
    pub total_cost: f64,
    /// Virtual cost spent before any pair could be resolved (job startup,
    /// the entire first job, schedule generation, routing) — the
    /// preprocessing overhead visible at the start of Fig. 10's curves.
    pub overhead_cost: f64,
    /// Merged counters from every task of every job.
    pub counters: Counters,
    /// Fraction of emitted duplicates that are correct per ground truth.
    pub precision: f64,
    /// Human-readable label for reports.
    pub label: String,
}

impl ErRunResult {
    /// Convenience: recall at a given virtual cost.
    pub fn recall_at(&self, cost: f64) -> f64 {
        self.curve.recall_at(cost)
    }

    /// Score a run against `ds`'s ground truth: the recall curve and found
    /// events from its global `timeline`, the precision from its
    /// deduplicated `duplicates`.
    pub(crate) fn from_timeline(
        ds: &Dataset,
        timeline: &[ProgressEvent],
        duplicates: Vec<(u32, u32)>,
        total_cost: f64,
        overhead_cost: f64,
        counters: Counters,
        label: String,
    ) -> Self {
        let truth = &ds.truth;
        let curve =
            RecallCurve::from_timeline_where(timeline, truth.total_duplicate_pairs(), |v| {
                let (a, b) = crate::unpack_pair(v);
                truth.is_duplicate(a, b)
            });
        let correct = duplicates
            .iter()
            .filter(|&&(a, b)| truth.is_duplicate(a, b))
            .count();
        let precision = if duplicates.is_empty() {
            1.0
        } else {
            correct as f64 / duplicates.len() as f64
        };
        let found_events = timeline
            .iter()
            .filter(|e| e.kind == crate::EVENT_DUPLICATE)
            .map(|e| {
                let (a, b) = crate::unpack_pair(e.value);
                (e.cost, a, b)
            })
            .collect();
        Self {
            curve,
            duplicates,
            found_events,
            total_cost,
            overhead_cost,
            counters,
            precision,
            label,
        }
    }
}

/// The paper's approach, end to end.
#[derive(Debug, Clone)]
pub struct ProgressiveEr {
    /// Pipeline configuration.
    pub config: ErConfig,
}

impl ProgressiveEr {
    /// Build a pipeline.
    pub fn new(config: ErConfig) -> Self {
        Self { config }
    }

    /// Run both jobs, panicking on runtime errors (convenient for
    /// experiments; see [`ProgressiveEr::try_run`] for error handling).
    pub fn run(&self, ds: &Dataset) -> ErRunResult {
        #[expect(
            clippy::expect_used,
            reason = "documented panicking convenience wrapper; fallible callers use try_run"
        )]
        self.try_run(ds).expect("pipeline run failed")
    }

    /// Run both jobs: the statistics job, schedule generation (replicated
    /// in each map task's setup; computed once here and shared, §III-B),
    /// then the resolution job from its first block.
    pub fn try_run(&self, ds: &Dataset) -> Result<ErRunResult, MrError> {
        let job1 = run_job1(ds, &self.config)?;
        let schedule = Arc::new(self.generate_schedule(ds, &job1.stats));
        let job2 = run_job2(ds, &self.config, schedule)?;
        Ok(self.assemble(ds, job2, job1.virtual_cost, job1.counters))
    }

    /// Splice the resolution job's timeline onto the global clock at
    /// `offset` (job 2 starts where job 1 finished) and score the run.
    /// `pub(crate)` for the durable runner, which drives the jobs itself.
    pub(crate) fn assemble(
        &self,
        ds: &Dataset,
        job2: Job2Result,
        offset: f64,
        mut counters: Counters,
    ) -> ErRunResult {
        let config = &self.config;
        let timeline: Vec<ProgressEvent> = job2
            .timeline
            .iter()
            .map(|e| ProgressEvent {
                cost: e.cost + offset,
                ..*e
            })
            .collect();
        counters.merge(&job2.counters);
        ErRunResult::from_timeline(
            ds,
            &timeline,
            job2.duplicates,
            offset + job2.virtual_cost,
            offset + config.cost_model.job_startup,
            counters,
            format!(
                "ours-{}-{:?}-mu{}",
                config.mechanism.name(),
                config.schedule.scheduler,
                config.machines
            ),
        )
    }

    /// Generate the progressive schedule from first-job statistics.
    pub fn generate_schedule(&self, ds: &Dataset, stats: &pper_blocking::DatasetStats) -> Schedule {
        let config = &self.config;
        let ctx = EstimationContext {
            dataset_size: ds.len(),
            policy: &config.policy,
            cost_model: &config.cost_model,
            prob: config.prob.as_model(),
        };
        let mut sc = config.schedule.clone();
        sc.reduce_tasks = config.reduce_tasks();
        generate_schedule(stats, &ctx, &sc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::{BasicApproach, BasicConfig};
    use crate::config::ProbModelKind;
    use pper_datagen::PubGen;

    #[test]
    fn pipeline_end_to_end_recall_and_precision() {
        let ds = PubGen::new(3_000, 91).generate();
        let result = ProgressiveEr::new(ErConfig::citeseer(2)).run(&ds);
        assert!(
            result.curve.final_recall() > 0.85,
            "final recall {:.3}",
            result.curve.final_recall()
        );
        assert!(result.precision > 0.8, "precision {:.3}", result.precision);
        assert!(result.total_cost > result.overhead_cost);
    }

    #[test]
    fn ours_beats_basic_progressively() {
        // The headline claim (Fig. 8): at matched recall targets, ours gets
        // there in less virtual cost than Basic-F.
        let ds = PubGen::new(4_000, 92).generate();
        let er = ErConfig::citeseer(3);
        let ours = ProgressiveEr::new(er.clone()).run(&ds);
        let basic = BasicApproach::new(er, BasicConfig::full(15))
            .run(&ds)
            .unwrap();
        for recall in [0.3, 0.5, 0.7] {
            let t_ours = ours.curve.time_to_recall(recall);
            let t_basic = basic.curve.time_to_recall(recall);
            let (Some(a), Some(b)) = (t_ours, t_basic) else {
                panic!("both approaches should reach recall {recall}");
            };
            assert!(
                a < b,
                "ours should reach recall {recall} first: {a:.0} vs {b:.0}"
            );
        }
    }

    #[test]
    fn trained_prob_model_works_end_to_end() {
        let train = PubGen::new(1_000, 93).generate();
        let ds = PubGen::new(2_000, 94).generate();
        let mut config = ErConfig::citeseer(2);
        config.prob = ProbModelKind::train(&train, &config.families);
        let result = ProgressiveEr::new(config).run(&ds);
        assert!(result.curve.final_recall() > 0.8);
    }

    #[test]
    fn more_machines_do_not_hurt_recall() {
        let ds = PubGen::new(2_000, 95).generate();
        let r2 = ProgressiveEr::new(ErConfig::citeseer(2)).run(&ds);
        let r6 = ProgressiveEr::new(ErConfig::citeseer(6)).run(&ds);
        assert!((r2.curve.final_recall() - r6.curve.final_recall()).abs() < 0.05);
        assert!(r6.total_cost < r2.total_cost, "parallelism should pay off");
    }
}
