//! Job configuration and the user-facing programming model: [`Mapper`],
//! [`Reducer`] / [`PartitionReducer`], [`TaskContext`], and [`Emitter`].

use serde::{Deserialize, Serialize};

use crate::cost::{CostClock, CostModel};
use crate::counters::Counters;
use crate::exec::ExecutorKind;
use crate::faults::{FaultPlan, InjectedAbort};
use crate::observe::TaskObserver;
use crate::progress::EventLog;
use crate::shuffle::GroupedPartition;

/// Kind of a simulated task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

/// The simulated cluster: `machines` machines each running
/// `map_slots_per_machine` concurrent map tasks and
/// `reduce_slots_per_machine` concurrent reduce tasks.
///
/// The paper's experimental cluster ran "at most two concurrent map and two
/// concurrent reduce tasks on each machine" (§VI-A1); use
/// `ClusterSpec::new(machines, 2, 2)` to mirror that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of simulated machines (μ in the paper's figures).
    pub machines: usize,
    /// Concurrent map tasks per machine.
    pub map_slots_per_machine: usize,
    /// Concurrent reduce tasks per machine.
    pub reduce_slots_per_machine: usize,
}

impl ClusterSpec {
    /// A cluster of `machines` machines with the given per-machine slot counts.
    pub fn new(machines: usize, map_slots: usize, reduce_slots: usize) -> Self {
        Self {
            machines,
            map_slots_per_machine: map_slots,
            reduce_slots_per_machine: reduce_slots,
        }
    }

    /// The paper's configuration: 2 map + 2 reduce slots per machine.
    pub fn paper(machines: usize) -> Self {
        Self::new(machines, 2, 2)
    }

    /// Total map slots across the cluster.
    pub fn map_slots(&self) -> usize {
        self.machines * self.map_slots_per_machine
    }

    /// Total reduce slots across the cluster.
    pub fn reduce_slots(&self) -> usize {
        self.machines * self.reduce_slots_per_machine
    }
}

/// Configuration for one MapReduce job.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Human-readable job name (appears in errors and reports).
    pub name: String,
    /// Cluster to run on.
    pub cluster: ClusterSpec,
    /// Number of reduce tasks. `None` means "use `cluster.reduce_slots()`".
    pub num_reduce_tasks: Option<usize>,
    /// Cost calibration shared by all tasks.
    pub cost_model: CostModel,
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
    /// benchmark harness stops assigning it (ROADMAP item 1(f)).
    pub executor: ExecutorKind,
}

impl JobConfig {
    /// A job on the given cluster with default cost model and task counts.
    pub fn new(name: impl Into<String>, cluster: ClusterSpec) -> Self {
        Self {
            name: name.into(),
            cluster,
            num_reduce_tasks: None,
            cost_model: CostModel::default(),
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

    /// Effective number of reduce tasks (r in the paper).
    pub fn reduce_tasks(&self) -> usize {
        self.num_reduce_tasks
            .unwrap_or(self.cluster.reduce_slots())
            .max(1)
    }
}

/// Per-task state handed to user code: the virtual clock, counters, the
/// progress event log, and the job's cost model.
pub struct TaskContext {
    /// This task's identity.
    pub id: TaskId,
    /// Virtual clock; charge all work against it.
    pub clock: CostClock,
    /// Task-local counters, merged job-wide after completion.
    pub counters: Counters,
    /// Progress events (e.g. "duplicate pair found") stamped with the current
    /// virtual time; merged into the job-level timeline after completion.
    pub events: EventLog,
    /// Cost calibration constants.
    pub cost_model: CostModel,
    /// Which attempt of the task this is (1-based, like Hadoop attempt ids).
    /// Attempts past 1 mean earlier attempts died and were re-executed.
    pub attempt: u32,
    /// Injected fault: the attempt panics (with an
    /// [`InjectedAbort`] payload the runtime catches) as soon as its virtual
    /// clock crosses this cost. `None` = run to completion.
    pub abort_at: Option<f64>,
}

impl TaskContext {
    /// Create a context for `id` with the given cost model.
    pub fn new(id: TaskId, cost_model: CostModel) -> Self {
        Self {
            id,
            clock: CostClock::new(),
            counters: Counters::new(),
            events: EventLog::new(),
            cost_model,
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

    /// Record a progress event of `kind` with `value` at the current virtual
    /// time. Kinds are defined by the job (see `pper-er`'s event constants).
    #[inline]
    pub fn log_event(&mut self, kind: u32, value: u64) {
        let now = self.now();
        self.events.push(now, kind, value);
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
/// call (Hadoop's `setup()`), and before a final [`Mapper::cleanup`].
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

    /// Called once per task after the last input record.
    fn cleanup(&self, _ctx: &mut TaskContext) {}
}

/// Classic per-group reduce function: called once per distinct key with all
/// values for that key, in ascending key order.
pub trait Reducer: Sync {
    /// Intermediate key (must match the mapper's).
    type Key: Ord + Send + Sync;
    /// Intermediate value (must match the mapper's).
    type Value: Send + Sync;
    /// Final output record.
    type Output: Send;

    /// Called once per task before the first group.
    fn setup(&self, _ctx: &mut TaskContext) {}

    /// Process one key group. `values` is a borrowed slice into the
    /// partition's flat value arena, in map-output order.
    fn reduce(
        &self,
        key: &Self::Key,
        values: &[Self::Value],
        ctx: &mut TaskContext,
        out: &mut Vec<Self::Output>,
    );

    /// Called once per task after the last group.
    fn cleanup(&self, _ctx: &mut TaskContext, _out: &mut Vec<Self::Output>) {}
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

/// Adapter running a classic [`Reducer`] as a [`PartitionReducer`]
/// (one `reduce()` call per group, in key order).
pub struct GroupReducer<R> {
    inner: R,
}

impl<R> GroupReducer<R> {
    /// Wrap a per-group reducer.
    pub fn new(inner: R) -> Self {
        Self { inner }
    }

    /// Access the wrapped reducer.
    pub fn inner(&self) -> &R {
        &self.inner
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
        self.inner.setup(ctx);
        for (key, values) in partition.iter() {
            self.inner.reduce(key, values, ctx, out);
        }
        self.inner.cleanup(ctx, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut cfg = JobConfig::new("j", ClusterSpec::new(0, 0, 0));
        cfg.num_reduce_tasks = Some(0);
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
        let mut ctx = TaskContext::new(
            TaskId {
                kind: TaskKind::Map,
                index: 0,
            },
            CostModel::default(),
        );
        ctx.charge(5.0);
        ctx.log_event(1, 42);
        assert_eq!(ctx.now(), 5.0);
        assert_eq!(ctx.events.len(), 1);
        let ev = ctx.events.iter().next().unwrap();
        assert_eq!((ev.cost, ev.kind, ev.value), (5.0, 1, 42));
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
