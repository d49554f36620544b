//! Pipeline configuration.

use pper_blocking::{presets, BlockingFamily};
use pper_mapreduce::{ClusterSpec, JobConfig};
use pper_progressive::{LevelPolicy, MechanismKind};
use pper_schedule::{ScheduleConfig, TrainedProb, TreeScheduler, Weighting};
use pper_simil::{AttributeSim, MatchRule, WeightedAttr};

/// Full configuration of the progressive pipeline.
#[derive(Clone)]
pub struct ErConfig {
    /// Blocking families in dominance order (`X¹ ⊵ Y¹ ⊵ Z¹`).
    pub families: Vec<BlockingFamily>,
    /// The resolve/match function.
    pub rule: MatchRule,
    /// Window/Frac/Th policy per level.
    pub policy: LevelPolicy,
    /// Simulated cluster size μ (2 map + 2 reduce slots per machine).
    pub machines: usize,
    /// Scheduler selection and knobs.
    pub schedule: ScheduleConfig,
    /// Progressive mechanism `M` (§VI-A3): SN for CiteSeerX, PSNM for
    /// OL-Books. `pper_progressive` owns the choice and its pair stream.
    pub mechanism: MechanismKind,
    /// Duplicate-probability model `Prob(|X|)` (§VI-A4): each preset's
    /// committed table, or one [`TrainedProb::train`] learns from a sample.
    pub prob: TrainedProb,
    /// OS threads for executing simulated tasks (`None` = all cores).
    pub worker_threads: Option<usize>,
    /// Task-failure injection applied to the resolution (second) job.
    pub faults: Option<pper_mapreduce::FaultPlan>,
    /// Task lifecycle observer threaded into every MR job this config
    /// launches (statistics, resolution, and Basic). The durable runner
    /// (`crate::durable`) uses it to journal task completions, attempt
    /// histories, and exhaustion for the dead-letter queue. `None` (the
    /// default) observes nothing and costs nothing.
    pub observer: Option<pper_mapreduce::TaskObserver>,
    /// Read by nothing: every job dispatches through the one cursor pool
    /// (`pper_mapreduce::exec`). Kept, with its one-valued type, until the
    /// benchmark harness stops copying it (ROADMAP item 1(c)).
    pub executor: pper_mapreduce::ExecutorKind,
    /// Memory budget for the statistics job's shuffle. `None` (the default)
    /// groups every partition in memory; `Some(cfg)` spills partitions
    /// larger than `cfg.max_partition_records` through an external sorter
    /// with bounded RAM (see `pper_mapreduce::ShuffleSpillConfig`). The
    /// grouped output — and therefore every downstream statistic — is
    /// bit-identical either way; only the working set changes.
    pub shuffle_spill: Option<pper_mapreduce::ShuffleSpillConfig>,
}

impl std::fmt::Debug for ErConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ErConfig")
            .field("families", &self.families.len())
            .field("machines", &self.machines)
            .field("mechanism", &self.mechanism.name())
            .field("scheduler", &self.schedule.scheduler)
            .finish_non_exhaustive()
    }
}

impl ErConfig {
    /// The paper's CiteSeerX setup on μ machines: Table II blocking,
    /// edit-distance weighted rule over title/abstract/venue (abstract
    /// capped at 350 chars), SN mechanism, CiteSeerX level policy.
    pub fn citeseer(machines: usize) -> Self {
        let rule = MatchRule::new(
            vec![
                WeightedAttr::new(0, 0.55, AttributeSim::Levenshtein { max_chars: None }),
                WeightedAttr::new(
                    1,
                    0.25,
                    AttributeSim::Levenshtein {
                        max_chars: Some(350),
                    },
                ),
                WeightedAttr::new(2, 0.20, AttributeSim::Levenshtein { max_chars: None }),
            ],
            0.82,
        );
        Self {
            families: presets::citeseer_families(),
            rule,
            policy: LevelPolicy::citeseer(),
            machines,
            schedule: ScheduleConfig::default(),
            mechanism: MechanismKind::Sn,
            prob: TrainedProb::citeseer(),
            worker_threads: None,
            faults: None,
            observer: None,
            executor: pper_mapreduce::ExecutorKind::default(),
            shuffle_spill: None,
        }
    }

    /// The paper's OL-Books setup on μ machines: 8-attribute rule (edit
    /// distance on the texty attributes, exact elsewhere), PSNM mechanism,
    /// OL-Books level policy.
    pub fn books(machines: usize) -> Self {
        let rule = MatchRule::new(
            vec![
                WeightedAttr::new(0, 0.35, AttributeSim::Levenshtein { max_chars: None }),
                WeightedAttr::new(1, 0.20, AttributeSim::Levenshtein { max_chars: None }),
                WeightedAttr::new(2, 0.10, AttributeSim::Levenshtein { max_chars: None }),
                WeightedAttr::new(3, 0.05, AttributeSim::Exact),
                WeightedAttr::new(4, 0.15, AttributeSim::Levenshtein { max_chars: None }),
                WeightedAttr::new(5, 0.05, AttributeSim::Exact),
                WeightedAttr::new(6, 0.05, AttributeSim::Exact),
                WeightedAttr::new(7, 0.05, AttributeSim::Exact),
            ],
            0.80,
        );
        Self {
            families: presets::books_families(),
            rule,
            policy: LevelPolicy::books(),
            machines,
            schedule: ScheduleConfig::default(),
            mechanism: MechanismKind::Psnm,
            prob: TrainedProb::books(),
            worker_threads: None,
            faults: None,
            observer: None,
            executor: pper_mapreduce::ExecutorKind::default(),
            shuffle_spill: None,
        }
    }

    /// Replace the tree scheduler (for the §VI-B2 comparison).
    pub fn with_scheduler(mut self, scheduler: TreeScheduler) -> Self {
        self.schedule.scheduler = scheduler;
        self
    }

    /// Replace the weighting function.
    pub fn with_weighting(mut self, weighting: Weighting) -> Self {
        self.schedule.weighting = weighting;
        self
    }

    /// Bound the statistics job's shuffle memory: partitions above the
    /// configured record budget group through a disk-backed external sort.
    pub fn with_shuffle_spill(mut self, spill: pper_mapreduce::ShuffleSpillConfig) -> Self {
        self.shuffle_spill = Some(spill);
        self
    }

    /// The simulated cluster (paper config: 2+2 slots per machine).
    pub fn cluster(&self) -> ClusterSpec {
        ClusterSpec::paper(self.machines)
    }

    /// Number of reduce tasks `r`.
    pub fn reduce_tasks(&self) -> usize {
        self.cluster().reduce_slots()
    }

    /// Runtime configuration of the job `name` on this pipeline's cluster,
    /// with the settings every job of a run shares; a job adds only what
    /// is its own (its fault plan).
    pub fn job_config(&self, name: &str) -> JobConfig {
        let mut cfg = JobConfig::new(name, self.cluster());
        cfg.worker_threads = self.worker_threads;
        cfg.observer = self.observer.clone();
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let c = ErConfig::citeseer(10);
        assert_eq!(c.reduce_tasks(), 20);
        assert_eq!(c.families.len(), 3);
        assert_eq!(c.mechanism.name(), "sn-hint");
        let b = ErConfig::books(5);
        assert_eq!(b.mechanism.name(), "psnm");
        assert_eq!(b.rule.attrs.len(), 8);
    }
}
