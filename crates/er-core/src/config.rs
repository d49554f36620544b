//! Pipeline configuration.

use pper_blocking::{presets, BlockingFamily};
use pper_datagen::Dataset;
use pper_mapreduce::{ClusterSpec, CostModel, JobConfig};
use pper_progressive::{LevelPolicy, Mechanism, PairSource};
use pper_schedule::{
    DupProbability, HeuristicProb, ScheduleConfig, TrainedProb, TreeScheduler, Weighting,
};
use pper_simil::{AttributeSim, MatchRule, WeightedAttr};

/// Which progressive mechanism `M` resolves the blocks (§VI-A3: SN-with-hint
/// for CiteSeerX, PSNM for OL-Books).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanismKind {
    /// Sorted Neighbor with the sorted-list hint of ref. \[5\].
    Sn,
    /// Progressive Sorted Neighborhood Method of ref. \[6\].
    Psnm,
}

/// Runtime-dispatched pair source over the two mechanisms.
pub enum AnyRun {
    /// An [`pper_progressive::sn::SnRun`].
    Sn(pper_progressive::sn::SnRun),
    /// A [`pper_progressive::psnm::PsnmRun`].
    Psnm(pper_progressive::psnm::PsnmRun),
}

impl PairSource for AnyRun {
    fn next_pair(&mut self) -> Option<(u32, u32)> {
        match self {
            AnyRun::Sn(r) => r.next_pair(),
            AnyRun::Psnm(r) => r.next_pair(),
        }
    }
    fn feedback(&mut self, is_duplicate: bool) {
        match self {
            AnyRun::Sn(r) => r.feedback(is_duplicate),
            AnyRun::Psnm(r) => r.feedback(is_duplicate),
        }
    }
    fn remaining_hint(&self) -> u64 {
        match self {
            AnyRun::Sn(r) => r.remaining_hint(),
            AnyRun::Psnm(r) => r.remaining_hint(),
        }
    }
}

impl MechanismKind {
    /// Start the configured mechanism on a sorted block.
    pub fn start(&self, sorted: Vec<u32>, window: usize) -> AnyRun {
        match self {
            MechanismKind::Sn => AnyRun::Sn(pper_progressive::SnHint.start(sorted, window)),
            MechanismKind::Psnm => {
                AnyRun::Psnm(pper_progressive::Psnm::default().start(sorted, window))
            }
        }
    }

    /// Mechanism name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MechanismKind::Sn => "sn-hint",
            MechanismKind::Psnm => "psnm",
        }
    }
}

/// Duplicate-probability model selection (§VI-A4).
#[derive(Debug, Clone)]
pub enum ProbModelKind {
    /// Closed-form heuristic; no training data needed.
    Heuristic(HeuristicProb),
    /// Model trained from a labeled dataset.
    Trained(TrainedProb),
}

impl ProbModelKind {
    /// Train from a dataset under the given blocking configuration.
    pub fn train(train: &Dataset, families: &[BlockingFamily]) -> Self {
        ProbModelKind::Trained(TrainedProb::train(train, families))
    }

    /// View as the estimation trait object.
    pub fn as_model(&self) -> &dyn DupProbability {
        match self {
            ProbModelKind::Heuristic(h) => h,
            ProbModelKind::Trained(t) => t,
        }
    }
}

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
    /// Cost calibration.
    pub cost_model: CostModel,
    /// Scheduler selection and knobs (reduce task count is overridden from
    /// `machines`).
    pub schedule: ScheduleConfig,
    /// Progressive mechanism.
    pub mechanism: MechanismKind,
    /// Duplicate-probability model.
    pub prob: ProbModelKind,
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
            cost_model: CostModel::default(),
            schedule: ScheduleConfig::new(machines * 2),
            mechanism: MechanismKind::Sn,
            prob: ProbModelKind::Heuristic(HeuristicProb::default()),
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
            cost_model: CostModel::default(),
            schedule: ScheduleConfig::new(machines * 2),
            mechanism: MechanismKind::Psnm,
            prob: ProbModelKind::Heuristic(HeuristicProb::default()),
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
    /// is its own (fault plan, reduce-task count).
    pub fn job_config(&self, name: &str) -> JobConfig {
        let mut cfg = JobConfig::new(name, self.cluster());
        cfg.cost_model = self.cost_model.clone();
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

    #[test]
    fn mechanism_dispatch_yields_pairs() {
        for kind in [MechanismKind::Sn, MechanismKind::Psnm] {
            let mut run = kind.start(vec![0, 1, 2], 2);
            let mut pairs = Vec::new();
            while let Some(p) = run.next_pair() {
                run.feedback(false);
                pairs.push(p);
            }
            assert_eq!(pairs.len(), 3, "{}", kind.name());
        }
    }
}
