//! Job configuration and the user-facing programming model: [`Mapper`],
//! [`Reducer`] / [`PartitionReducer`], [`TaskContext`], and [`Emitter`].

use crate::cost::CostClock;
use crate::counters::Counters;
use crate::error::MrError;
use crate::exec::ExecutorKind;
use crate::faults::{FaultPlan, InjectedAbort};
use crate::fxhash::hash_one;
use crate::observe::TaskObserver;
use crate::progress::ProgressEvent;
use crate::shuffle::GroupedPartition;

/// Kind of a simulated task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Map-side task.
    Map,
    /// Reduce-side task.
    Reduce,
}

/// Identity of a simulated task within one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId {
    /// Map or reduce.
    pub kind: TaskKind,
    /// Index within the phase (0-based).
    pub index: usize,
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            TaskKind::Map => write!(f, "map-{}", self.index),
            TaskKind::Reduce => write!(f, "reduce-{}", self.index),
        }
    }
}

/// Concurrent map tasks per machine: the paper's cluster ran "at most two
/// concurrent map and two concurrent reduce tasks on each machine" (§VI-A1).
pub const MAP_SLOTS_PER_MACHINE: usize = 2;
/// Concurrent reduce tasks per machine (§VI-A1).
pub const REDUCE_SLOTS_PER_MACHINE: usize = 2;

/// The simulated cluster: `machines` machines each running
/// [`MAP_SLOTS_PER_MACHINE`] concurrent map tasks and
/// [`REDUCE_SLOTS_PER_MACHINE`] concurrent reduce tasks, as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of simulated machines (μ in the paper's figures).
    pub machines: usize,
}

impl ClusterSpec {
    /// The paper's cluster of `machines` machines: 2 map + 2 reduce slots
    /// per machine.
    pub fn paper(machines: usize) -> Self {
        Self { machines }
    }

    /// Total map slots across the cluster.
    pub fn map_slots(&self) -> usize {
        self.machines * MAP_SLOTS_PER_MACHINE
    }

    /// Total reduce slots across the cluster.
    pub fn reduce_slots(&self) -> usize {
        self.machines * REDUCE_SLOTS_PER_MACHINE
    }

    /// Refuse a cluster with no machines ([`MrError::InvalidCluster`],
    /// naming `job`).
    pub fn check(&self, job: &str) -> Result<(), MrError> {
        if self.machines == 0 {
            return Err(MrError::InvalidCluster(format!(
                "job '{job}': machines must be positive, got {self:?}"
            )));
        }
        Ok(())
    }
}

/// Configuration for one MapReduce job.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Human-readable job name (appears in errors and reports).
    pub name: String,
    /// Cluster to run on.
    pub cluster: ClusterSpec,
    /// Number of OS threads used to *execute* simulated tasks. `None` means
    /// "use available parallelism". This affects wall-clock speed only, never
    /// the virtual-time results.
    pub worker_threads: Option<usize>,
    /// Deterministic task-failure injection (None = no failures).
    pub faults: Option<FaultPlan>,
    /// Task lifecycle observer (None = no observation). Notified from the
    /// driver thread in task-index order after each phase's barrier — see
    /// [`crate::observe`] — so a journal built from the notifications is
    /// deterministic regardless of worker interleaving.
    pub observer: Option<TaskObserver>,
    /// Read by nothing: every job dispatches through the one cursor pool
    /// ([`crate::exec`]). Kept, with its one-valued type, until the
    /// benchmark harness stops assigning it (ROADMAP item 1(c)).
    pub executor: ExecutorKind,
}

impl JobConfig {
    /// A job on the given cluster.
    pub fn new(name: impl Into<String>, cluster: ClusterSpec) -> Self {
        Self {
            name: name.into(),
            cluster,
            worker_threads: None,
            faults: None,
            observer: None,
            executor: ExecutorKind::default(),
        }
    }

    /// Number of map tasks: the number of map slots, mirroring the paper's
    /// block-size tweak that makes "the number of required map tasks equal
    /// to the maximum number of map tasks that can be run simultaneously"
    /// (§VI-A1).
    pub fn map_tasks(&self) -> usize {
        self.cluster.map_slots().max(1)
    }

    /// Number of reduce tasks: r = the number of reduce slots (§VI-A1,
    /// "μ machines × 2 reduce slots").
    pub fn reduce_tasks(&self) -> usize {
        self.cluster.reduce_slots().max(1)
    }

    /// `(map tasks, reduce tasks)` of a run over `inputs` records: no more
    /// map tasks than records, and at least one.
    pub(crate) fn task_counts(&self, inputs: usize) -> (usize, usize) {
        (self.map_tasks().min(inputs).max(1), self.reduce_tasks())
    }

    /// Validate the fault plan against the task counts of a run over
    /// `inputs` records ([`MrError::InvalidFaultPlan`]): every referenced
    /// task index must exist (a fault aimed at a task the job does not have
    /// is a configuration bug, not a no-op) and every fault must be
    /// well-formed. Attempt exhaustion is *not* pre-checked — it surfaces
    /// through the attempt loop itself, like a real cluster.
    pub fn check_faults(&self, inputs: usize) -> Result<(), MrError> {
        let Some(plan) = &self.faults else {
            return Ok(());
        };
        let (num_map, num_reduce) = self.task_counts(inputs);
        plan.validate(num_map, num_reduce)
            .map_err(|msg| MrError::InvalidFaultPlan(format!("job '{}': {msg}", self.name)))
    }
}

/// Per-task state handed to user code: the virtual clock, counters and the
/// progress event log. Charges use the calibration in [`crate::cost`].
pub struct TaskContext {
    /// This task's identity.
    pub id: TaskId,
    /// Virtual clock; charge all work against it.
    pub clock: CostClock,
    /// Task-local counters, merged job-wide after completion.
    pub counters: Counters,
    /// Progress events (e.g. "duplicate pair found") stamped with the current
    /// virtual time, in non-decreasing cost order; merged into the job-level
    /// timeline after completion.
    pub events: Vec<ProgressEvent>,
    /// Which attempt of the task this is (1-based, like Hadoop attempt ids).
    /// Attempts past 1 mean earlier attempts died and were re-executed.
    pub attempt: u32,
    /// Injected fault: the attempt panics (with an
    /// [`InjectedAbort`] payload the runtime catches) as soon as its virtual
    /// clock crosses this cost. `None` = run to completion.
    pub abort_at: Option<f64>,
}

impl TaskContext {
    /// Create a context for `id`.
    pub fn new(id: TaskId) -> Self {
        Self {
            id,
            clock: CostClock::new(),
            counters: Counters::new(),
            events: Vec::new(),
            attempt: 1,
            abort_at: None,
        }
    }

    /// Charge `units` of virtual work.
    #[inline]
    pub fn charge(&mut self, units: f64) {
        self.clock.charge(units);
        if let Some(limit) = self.abort_at {
            if self.clock.now() >= limit {
                #[expect(
                    clippy::panic,
                    reason = "the injected kill of a fault plan; the runtime catches this payload"
                )]
                std::panic::panic_any(InjectedAbort {
                    at: self.clock.now(),
                });
            }
        }
    }

    /// Current virtual time of this task.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Record a progress event carrying `value` at the current virtual time.
    #[inline]
    pub fn log_event(&mut self, value: u64) {
        let cost = self.now();
        debug_assert!(
            self.events.last().is_none_or(|e| e.cost <= cost),
            "events must be logged in non-decreasing cost order"
        );
        self.events.push(ProgressEvent { cost, value });
    }
}

/// Buffered key-value output of a map task.
pub struct Emitter<K, V> {
    records: Vec<(K, V)>,
}

impl<K, V> Emitter<K, V> {
    pub(crate) fn new() -> Self {
        Self {
            records: Vec::new(),
        }
    }

    /// Emit one intermediate key-value pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.records.push((key, value));
    }

    /// Number of records emitted so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub(crate) fn into_records(self) -> Vec<(K, V)> {
        self.records
    }
}

/// User-defined map function.
///
/// A map task receives a contiguous split of the input and calls
/// [`Mapper::map`] once per input record, after a single [`Mapper::setup`]
/// call (Hadoop's `setup()`). Each emitted record then goes to the reduce
/// task [`Mapper::partition`] names for its key.
pub trait Mapper: Sync {
    /// One input record.
    type Input: Sync;
    /// Intermediate key. Must be totally ordered for the shuffle sort and
    /// hashable for shuffle grouping.
    type Key: Ord + std::hash::Hash + Send + Sync;
    /// Intermediate value. Values are never cloned by the runtime: reduce
    /// attempts (including fault-plan re-executions) borrow the grouped
    /// partition, so `Clone` is not required.
    type Value: Send + Sync;

    /// Called once per task before any input record. The ER pipeline's
    /// second job generates the progressive schedule here (§III-B).
    fn setup(&self, _ctx: &mut TaskContext) {}

    /// Process one input record, emitting any number of key-value pairs.
    fn map(
        &self,
        input: &Self::Input,
        ctx: &mut TaskContext,
        out: &mut Emitter<Self::Key, Self::Value>,
    );

    /// The reduce task, in `0..num_reduce`, that receives `key`'s group.
    /// The default is Hadoop's `hash(key) mod r` (the Basic baseline of
    /// §II-C and the first job); the second job overrides it to route each
    /// tree to the task the schedule assigns it (§III-B). An index
    /// `>= num_reduce` fails the job with
    /// [`crate::error::MrError::InvalidPartition`]; it is never clamped.
    #[inline]
    fn partition(&self, key: &Self::Key, num_reduce: usize) -> usize {
        (hash_one(key) % num_reduce.max(1) as u64) as usize
    }
}

/// Classic per-group reduce function: called once per distinct key with all
/// values for that key, in ascending key order. Run it as a
/// [`PartitionReducer`] through [`GroupReducer`].
pub trait Reducer: Sync {
    /// Intermediate key (must match the mapper's).
    type Key: Ord + Send + Sync;
    /// Intermediate value (must match the mapper's).
    type Value: Send + Sync;
    /// Final output record.
    type Output: Send;

    /// Process one key group. `values` is a borrowed slice into the
    /// partition's flat value arena, in map-output order.
    fn reduce(
        &self,
        key: &Self::Key,
        values: &[Self::Value],
        ctx: &mut TaskContext,
        out: &mut Vec<Self::Output>,
    );
}

/// Whole-partition reduce: receives *all* groups of the partition (sorted by
/// key) in one call, as a borrowed [`GroupedPartition`] view.
///
/// The paper's second job needs this shape: each reduce task first ingests
/// all its assigned trees, then resolves blocks in block-schedule order,
/// interleaving blocks of different trees (§III-A). Hadoop programs simulate
/// it by buffering inside `reduce()`; we expose it directly. Borrowing (not
/// consuming) the partition lets a fault-plan re-execution simply call the
/// reducer again on the same data — no per-attempt copies.
pub trait PartitionReducer: Sync {
    /// Intermediate key (must match the mapper's).
    type Key: Ord + Send + Sync;
    /// Intermediate value (must match the mapper's).
    type Value: Send + Sync;
    /// Final output record.
    type Output: Send;

    /// Process the whole partition; groups iterate ascending by key.
    fn reduce_partition(
        &self,
        partition: &GroupedPartition<Self::Key, Self::Value>,
        ctx: &mut TaskContext,
        out: &mut Vec<Self::Output>,
    );
}

/// Adapter running a classic [`Reducer`] as a [`PartitionReducer`]: one
/// `reduce()` call per group, in key order, and nothing before the first
/// group or after the last.
pub struct GroupReducer<R> {
    inner: R,
}

impl<R> GroupReducer<R> {
    /// Wrap a per-group reducer.
    pub fn new(inner: R) -> Self {
        Self { inner }
    }
}

impl<R: Reducer> PartitionReducer for GroupReducer<R> {
    type Key = R::Key;
    type Value = R::Value;
    type Output = R::Output;

    fn reduce_partition(
        &self,
        partition: &GroupedPartition<Self::Key, Self::Value>,
        ctx: &mut TaskContext,
        out: &mut Vec<Self::Output>,
    ) {
        for (key, values) in partition.iter() {
            self.inner.reduce(key, values, ctx, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A mapper that keeps the default routing.
    struct Hashed;
    impl Mapper for Hashed {
        type Input = ();
        type Key = u64;
        type Value = ();
        fn map(&self, _: &(), _: &mut TaskContext, _: &mut Emitter<u64, ()>) {}
    }

    #[test]
    fn default_partition_in_range() {
        for key in 0..1000u64 {
            assert!(Hashed.partition(&key, 7) < 7);
        }
    }

    #[test]
    fn default_partition_deterministic() {
        assert_eq!(Hashed.partition(&42, 13), Hashed.partition(&42, 13));
    }

    #[test]
    fn default_partition_single_task() {
        for key in [0u64, 1, 999, u64::MAX] {
            assert_eq!(Hashed.partition(&key, 1), 0);
        }
    }

    proptest! {
        // The routing contract on random keys: the default index is always
        // `< num_reduce` and deterministic.
        #[test]
        fn prop_default_partition_stays_in_range_and_deterministic(
            keys in proptest::collection::vec(0u64..50_000, 1..200),
            num_reduce in 1usize..32,
        ) {
            for k in &keys {
                let p = Hashed.partition(k, num_reduce);
                prop_assert!(p < num_reduce);
                prop_assert_eq!(p, Hashed.partition(k, num_reduce));
            }
        }
    }

    #[test]
    fn cluster_slots() {
        let c = ClusterSpec::paper(10);
        assert_eq!(c.map_slots(), 20);
        assert_eq!(c.reduce_slots(), 20);
    }

    #[test]
    fn job_defaults_follow_cluster() {
        let cfg = JobConfig::new("j", ClusterSpec::paper(5));
        assert_eq!(cfg.map_tasks(), 10);
        assert_eq!(cfg.reduce_tasks(), 10);
    }

    #[test]
    fn job_task_counts_never_zero() {
        let cfg = JobConfig::new("j", ClusterSpec::paper(0));
        assert_eq!(cfg.map_tasks(), 1);
        assert_eq!(cfg.reduce_tasks(), 1);
    }

    #[test]
    fn task_id_display() {
        let t = TaskId {
            kind: TaskKind::Reduce,
            index: 3,
        };
        assert_eq!(t.to_string(), "reduce-3");
    }

    #[test]
    fn context_charges_and_logs() {
        let mut ctx = TaskContext::new(TaskId {
            kind: TaskKind::Map,
            index: 0,
        });
        ctx.charge(5.0);
        ctx.log_event(42);
        assert_eq!(ctx.now(), 5.0);
        assert_eq!(
            ctx.events,
            [ProgressEvent {
                cost: 5.0,
                value: 42
            }]
        );
    }

    #[test]
    fn emitter_buffers_in_order() {
        let mut e: Emitter<u32, &str> = Emitter::new();
        assert!(e.is_empty());
        e.emit(2, "b");
        e.emit(1, "a");
        assert_eq!(e.len(), 2);
        assert_eq!(e.into_records(), vec![(2, "b"), (1, "a")]);
    }
}
