//! The job executor: splits input, runs map tasks, shuffles, runs reduce
//! tasks, and assembles virtual-time reports.
//!
//! Simulated tasks are executed on a pool of OS threads (a shared cursor
//! claimed one index at a time, [`crate::exec`]), so wall-clock parallelism is
//! real; but the *reported* phase durations come from the per-task virtual
//! clocks combined with list scheduling over the simulated cluster's slots
//! ([`crate::cost::list_schedule_starts`]). This separation lets a laptop
//! faithfully reproduce curves for a 25-machine cluster.
//!
//! ## Fault tolerance
//!
//! Each simulated task runs as a sequence of *attempts*, exactly like a
//! Hadoop task: an attempt that panics (genuinely, or through an injected
//! [`crate::faults::FaultPlan`] abort) is caught, its partial virtual cost
//! is accounted as wasted, and the task is re-executed with a fresh
//! [`TaskContext`] — up to [`crate::faults::MAX_ATTEMPTS`]. Only attempt
//! exhaustion surfaces [`MrError::TaskFailed`]; a job without a fault plan
//! keeps the historical single-attempt behaviour where a panic aborts the
//! job with [`MrError::TaskPanicked`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::cost::{
    list_schedule_starts, makespan, EMIT_PER_RECORD, JOB_STARTUP, READ_PER_ENTITY,
    SHUFFLE_PER_RECORD, TASK_STARTUP,
};
use crate::counters::Counters;
use crate::error::MrError;
use crate::exec::run_cursor_pool;
use crate::faults::{InjectedAbort, MAX_ATTEMPTS};
use crate::job::{Emitter, JobConfig, Mapper, PartitionReducer, TaskContext, TaskId, TaskKind};
use crate::observe::{AttemptRecord, TaskEvent};
use crate::progress::ProgressEvent;
use crate::shuffle::{
    shuffle_partitions, shuffle_partitions_spilling, GroupedPartition, PartitionBuckets,
    ShuffleSpillConfig, ShuffleSpillStats,
};

/// Virtual-time summary of one phase (map or reduce).
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Virtual cost of each task, indexed by task id.
    pub task_costs: Vec<f64>,
    /// Virtual completion time of the phase on the simulated cluster.
    pub makespan: f64,
}

impl PhaseReport {
    /// The phase on `slots` slots, and each task's start under list
    /// scheduling in task order.
    fn scheduled(task_costs: Vec<f64>, slots: usize) -> (Self, Vec<f64>) {
        let starts = list_schedule_starts(&task_costs, slots);
        let makespan = makespan(&starts, &task_costs);
        let phase = Self {
            task_costs,
            makespan,
        };
        (phase, starts)
    }
}

/// Wall-clock time spent in each phase of a run. Informational only — all
/// experiment results derive from virtual time — but it shows where *real*
/// time goes, which is what shuffle/runtime perf work optimizes.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallPhases {
    /// Map task execution.
    pub map: Duration,
    /// Shuffle: record routing plus the pooled sort/group into flat
    /// partitions.
    pub shuffle: Duration,
    /// Reduce task execution.
    pub reduce: Duration,
}

/// Everything a completed job reports.
#[derive(Debug)]
pub struct JobResult<O> {
    /// Concatenated reduce outputs (grouped by reduce task, tasks in order).
    pub outputs: Vec<O>,
    /// Merged counters from every task.
    pub counters: Counters,
    /// Map phase virtual-time summary.
    pub map_phase: PhaseReport,
    /// Reduce phase virtual-time summary.
    pub reduce_phase: PhaseReport,
    /// All progress events re-based onto the global virtual timeline
    /// (job startup + map makespan + per-task wave start), sorted by time.
    pub timeline: Vec<ProgressEvent>,
    /// Virtual completion time of the whole job.
    pub total_virtual_cost: f64,
    /// Actual wall-clock execution time (informational; all experiment
    /// results use virtual time).
    pub wall_clock: Duration,
    /// Wall-clock breakdown of `wall_clock` by phase.
    pub wall_phases: WallPhases,
    /// Number of intermediate records that crossed the shuffle.
    pub shuffle_records: u64,
}

/// `max / mean` over a cost vector; 1.0 for empty or all-zero phases.
fn max_mean_ratio(costs: &[f64]) -> f64 {
    if costs.is_empty() {
        return 1.0;
    }
    let mean = costs.iter().sum::<f64>() / costs.len() as f64;
    if mean <= f64::EPSILON {
        return 1.0;
    }
    costs.iter().cloned().fold(0.0_f64, f64::max) / mean
}

/// One committed simulated task after retries: the surviving attempt's
/// value, the task's virtual cost and the part of it wasted by dead
/// attempts, plus counters and events — the latter already rebased past the
/// wasted prefix.
struct TaskRun<T> {
    value: T,
    /// Total virtual cost occupied on the task's slot (`clean + wasted`).
    cost: f64,
    /// Virtual time burned by dead attempts before the surviving one.
    wasted: f64,
    /// Attempts consumed (1 = clean first run).
    attempts: u32,
    /// History of the dead attempts, for the lifecycle observer.
    failures: Vec<AttemptRecord>,
    counters: Counters,
    events: Vec<ProgressEvent>,
}

/// A task that could not commit: the job-level error plus the attempt
/// history the lifecycle observer (and the dead-letter queue built on it)
/// wants alongside.
struct TaskFailure {
    error: MrError,
    attempts: u32,
    failures: Vec<AttemptRecord>,
}

/// Render a caught panic payload for error messages.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(abort) = payload.downcast_ref::<InjectedAbort>() {
        return format!("injected abort at virtual cost {}", abort.at);
    }
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// Execute one simulated task as attempts `1..=MAX_ATTEMPTS`, Hadoop-style.
///
/// Every attempt gets a fresh [`TaskContext`]. An attempt dies by panicking
/// (genuinely, or at the clock an injected
/// [`crate::faults::AttemptFault::abort_at`] names) or by running to
/// completion under an injected discard; either way it adds its own clock
/// at death to `wasted` and the task re-runs. The surviving attempt's
/// events are shifted past the wasted prefix and its clock is charged for
/// it, so the task occupies its slot for `clean + wasted` virtual time.
fn run_one_task<T>(
    cfg: &JobConfig,
    kind: TaskKind,
    idx: usize,
    f: &(impl Fn(usize, &mut TaskContext) -> T + Sync),
) -> Result<TaskRun<T>, TaskFailure> {
    let budget = cfg.faults.as_ref().map_or(1, |_| MAX_ATTEMPTS);
    let id = TaskId { kind, index: idx };
    let mut wasted = 0.0_f64;
    let mut failures: Vec<AttemptRecord> = Vec::new();
    for attempt in 1..=budget {
        let injected = cfg
            .faults
            .as_ref()
            .and_then(|p| p.fault_for(kind, idx, attempt));
        let mut ctx = TaskContext::new(id);
        ctx.attempt = attempt;
        ctx.abort_at = injected.and_then(|fault| fault.abort_at);
        let discarded = injected.is_some_and(|fault| fault.abort_at.is_none());
        let error = match catch_unwind(AssertUnwindSafe(|| f(idx, &mut ctx))) {
            Ok(value) if !discarded => {
                for e in &mut ctx.events {
                    e.cost += wasted;
                }
                // Bypass `TaskContext::charge` so a still-armed `abort_at`
                // cannot fire outside the catch_unwind above.
                ctx.clock.charge(wasted);
                if !failures.is_empty() {
                    ctx.counters.add("task_retries", failures.len() as u64);
                }
                if wasted > 0.0 {
                    ctx.counters
                        .add("wasted_virtual_cost", wasted.round() as u64);
                }
                return Ok(TaskRun {
                    value,
                    cost: ctx.now(),
                    wasted,
                    attempts: attempt,
                    failures,
                    counters: ctx.counters,
                    events: ctx.events,
                });
            }
            Ok(_) => format!("injected failure discarded attempt {attempt}"),
            Err(payload) => panic_message(payload.as_ref()),
        };
        // The borrow of `ctx` ended with the attempt; its clock holds the
        // deterministic virtual time at which it died.
        wasted += ctx.now();
        failures.push(AttemptRecord {
            attempt,
            error,
            wasted_cost: ctx.now(),
        });
    }
    // Without a fault plan the budget is one attempt: the historical
    // contract where any panic aborts the job.
    let last_error = failures.last().map(|f| f.error.clone()).unwrap_or_default();
    let task = id.to_string();
    Err(TaskFailure {
        error: match cfg.faults {
            Some(_) => MrError::TaskFailed {
                task,
                attempts: budget,
                last_error,
            },
            None => MrError::TaskPanicked {
                task,
                message: last_error,
            },
        },
        attempts: budget,
        failures,
    })
}

/// Run `count` simulated tasks (index-addressed) on up to `threads` OS
/// threads, collecting per-task [`TaskRun`]s in index order. The cursor
/// pool runs each index exactly once and barriers before returning, so the
/// index-order collection below (and therefore every observable) does not
/// depend on dispatch order. Each task internally retries per the job's
/// fault plan ([`run_one_task`]); the first task-level error aborts the job.
fn run_tasks<T: Send>(
    cfg: &JobConfig,
    count: usize,
    threads: usize,
    kind: TaskKind,
    f: impl Fn(usize, &mut TaskContext) -> T + Sync,
) -> Result<Vec<TaskRun<T>>, MrError> {
    // Per-index result slot a worker publishes into (None until its task ran).
    type TaskSlot<T> = Mutex<Option<Result<TaskRun<T>, TaskFailure>>>;
    let results: Vec<TaskSlot<T>> = (0..count).map(|_| Mutex::new(None)).collect();
    run_cursor_pool(count, threads, &|idx| {
        *results[idx].lock() = Some(run_one_task(cfg, kind, idx, &f));
    });

    // Post-barrier, on the driver thread, in task-index order: notify the
    // lifecycle observer for EVERY task (all of them ran to completion
    // before the scope joined), then surface the lowest-index failure.
    // Keeping notification out of the worker loop makes the event order
    // (and any journal built from it) deterministic regardless of worker
    // interleaving, and leaves the hot path lock-free.
    let mut runs = Vec::with_capacity(count);
    let mut first_failure: Option<MrError> = None;
    for (idx, slot) in results.into_iter().enumerate() {
        let id = TaskId { kind, index: idx };
        match slot.into_inner() {
            Some(Ok(run)) => {
                if let Some(obs) = &cfg.observer {
                    obs.notify(&TaskEvent::Finished {
                        job: &cfg.name,
                        id,
                        attempts: run.attempts,
                        failures: &run.failures,
                        cost: run.cost,
                        wasted: run.wasted,
                    });
                }
                runs.push(run);
            }
            Some(Err(fail)) => {
                if let Some(obs) = &cfg.observer {
                    obs.notify(&TaskEvent::Exhausted {
                        job: &cfg.name,
                        id,
                        attempts: fail.attempts,
                        failures: &fail.failures,
                    });
                }
                if first_failure.is_none() {
                    first_failure = Some(fail.error);
                }
            }
            None => {
                if first_failure.is_none() {
                    first_failure = Some(MrError::Internal(format!(
                        "task {id} finished without a result or an error"
                    )));
                }
            }
        }
    }
    match first_failure {
        Some(err) => Err(err),
        None => Ok(runs),
    }
}

/// Split `inputs` into `n` contiguous chunks of near-equal length.
fn split_ranges(len: usize, n: usize) -> Vec<(usize, usize)> {
    let n = n.max(1);
    let base = len / n;
    let extra = len % n;
    let mut ranges = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < extra);
        ranges.push((start, start + size));
        start += size;
    }
    ranges
}

struct MapTaskOutput<K, V> {
    buckets: Vec<Vec<(K, V)>>,
    records: u64,
}

/// Run a job: map, route each record to [`Mapper::partition`]'s reduce
/// task, group in memory, reduce.
pub fn run_job<M, R>(
    cfg: &JobConfig,
    mapper: &M,
    reducer: &R,
    inputs: &[M::Input],
) -> Result<JobResult<R::Output>, MrError>
where
    M: Mapper,
    R: PartitionReducer<Key = M::Key, Value = M::Value>,
{
    execute(cfg, mapper, reducer, inputs, in_memory_shuffle)
}

/// Run a job whose shuffle grouping spills to disk when a reduce
/// partition exceeds the configured record budget. Outputs are bit-identical to [`run_job`] at any thread
/// count — only the shuffle's memory working set (and the
/// `shuffle_spill_*` counters) change.
///
/// A set `dir` is created (with its parents) before the first attempt.
///
/// Storage-fault ladder: transient spill faults were already retried
/// inside the sorter; a corrupted spill run (CRC mismatch — the poisoned
/// file is quarantined) or a transient fault that outlived its in-place
/// budget re-runs the whole map+shuffle here, at most
/// [`pper_vfs::RETRY_ATTEMPTS`] attempts in all. Re-running is sound because
/// map tasks are deterministic and spill runs are freshly named per attempt;
/// permanent faults (a full disk among them) surface typed immediately.
pub fn run_job_spilling<M, R>(
    cfg: &JobConfig,
    mapper: &M,
    reducer: &R,
    spill: &ShuffleSpillConfig,
    inputs: &[M::Input],
) -> Result<JobResult<R::Output>, MrError>
where
    M: Mapper,
    M::Key: crate::spill::SpillCodec,
    M::Value: crate::spill::SpillCodec,
    R: PartitionReducer<Key = M::Key, Value = M::Value>,
{
    if let Some(dir) = &spill.dir {
        spill.vfs.create_dir_all(dir)?;
    }
    let mut reruns = 0u32;
    loop {
        let result = execute(cfg, mapper, reducer, inputs, |per, threads| {
            shuffle_partitions_spilling(per, threads, spill)
        });
        match result {
            Err(MrError::Io(fault))
                if !fault.is_permanent() && reruns + 1 < pper_vfs::RETRY_ATTEMPTS =>
            {
                reruns += 1;
            }
            Ok(mut job) => {
                if reruns > 0 {
                    job.counters.add("shuffle_spill_reruns", reruns as u64);
                }
                return Ok(job);
            }
            other => return other,
        }
    }
}

/// The default grouping strategy for [`execute`]: the fully in-memory
/// parallel tag sort, never spilling.
fn in_memory_shuffle<K, V>(
    per_partition: Vec<PartitionBuckets<K, V>>,
    threads: usize,
) -> Result<(Vec<GroupedPartition<K, V>>, ShuffleSpillStats), MrError>
where
    K: Ord + std::hash::Hash + Eq + Send,
    V: Send,
{
    Ok((
        shuffle_partitions(per_partition, threads),
        ShuffleSpillStats::default(),
    ))
}

/// Shared executor behind the public entry points. `group_fn` turns the
/// routed per-partition buckets into grouped partitions — the in-memory
/// tag sort by default, the spilling external sort for
/// [`run_job_spilling`]. Keeping it a closure parameter keeps
/// [`crate::spill::SpillCodec`] bounds off the non-spilling entry points.
fn execute<M, R, G>(
    cfg: &JobConfig,
    mapper: &M,
    reducer: &R,
    inputs: &[M::Input],
    group_fn: G,
) -> Result<JobResult<R::Output>, MrError>
where
    M: Mapper,
    R: PartitionReducer<Key = M::Key, Value = M::Value>,
    G: FnOnce(
        Vec<PartitionBuckets<M::Key, M::Value>>,
        usize,
    ) -> Result<(Vec<GroupedPartition<M::Key, M::Value>>, ShuffleSpillStats), MrError>,
{
    cfg.cluster.check(&cfg.name)?;

    #[expect(
        clippy::disallowed_methods,
        reason = "informational elapsed-time counter for the job report only; \
                  scheduling and costs run entirely on virtual time"
    )]
    let started = Instant::now();
    cfg.check_faults(inputs.len())?;
    let (num_map, num_reduce) = cfg.task_counts(inputs.len());
    let threads = cfg
        .worker_threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |p| p.get()));

    // ---- Map phase -------------------------------------------------------
    let ranges = split_ranges(inputs.len(), num_map);
    let raw_map_runs = run_tasks(cfg, num_map, threads, TaskKind::Map, |idx, ctx| {
        let (start, end) = ranges[idx];
        ctx.charge(TASK_STARTUP);
        mapper.setup(ctx);
        let mut emitter = Emitter::new();
        for input in &inputs[start..end] {
            ctx.charge(READ_PER_ENTITY);
            mapper.map(input, ctx, &mut emitter);
        }
        let records = emitter.len() as u64;
        ctx.charge(EMIT_PER_RECORD * records as f64);
        let mut buckets: Vec<Vec<(M::Key, M::Value)>> =
            (0..num_reduce).map(|_| Vec::new()).collect();
        for (k, v) in emitter.into_records() {
            let p = mapper.partition(&k, num_reduce);
            if p >= num_reduce {
                return Err(MrError::InvalidPartition {
                    job: cfg.name.clone(),
                    partition: p,
                    num_reduce,
                });
            }
            buckets[p].push((k, v));
        }
        Ok(MapTaskOutput { buckets, records })
    })?;
    // Surface the first deterministic task-level error (e.g. an
    // out-of-range partition) in task-index order.
    let mut counters = Counters::new();
    let mut map_costs: Vec<f64> = Vec::with_capacity(raw_map_runs.len());
    let mut map_events: Vec<ProgressEvent> = Vec::new();
    let mut map_outputs: Vec<MapTaskOutput<M::Key, M::Value>> =
        Vec::with_capacity(raw_map_runs.len());
    for run in raw_map_runs {
        map_outputs.push(run.value?);
        map_costs.push(run.cost);
        counters.merge(&run.counters);
        // No mapper in the workspace logs an event; should one, it is
        // stamped at its task-local time plus job startup.
        map_events.extend(run.events.iter().map(|e| ProgressEvent {
            cost: e.cost + JOB_STARTUP,
            ..*e
        }));
    }
    let wall_map = started.elapsed();
    let shuffle_records: u64 = map_outputs.iter().map(|m| m.records).sum();
    let (map_phase, _) = PhaseReport::scheduled(map_costs, cfg.cluster.map_slots());

    // ---- Shuffle ---------------------------------------------------------
    // Map tasks already bucketed their records per reduce partition; the
    // transpose moves Vec handles only, never records. Then sort+group each
    // partition into its flat arena on the worker pool. Grouping is stable on
    // (key, map-output order), reproducing the old driver-thread stable sort
    // bit for bit — see [`crate::shuffle`].
    let mut per_partition: Vec<PartitionBuckets<M::Key, M::Value>> = (0..num_reduce)
        .map(|_| Vec::with_capacity(map_outputs.len()))
        .collect();
    for m in map_outputs {
        for (p, bucket) in m.buckets.into_iter().enumerate() {
            per_partition[p].push(bucket);
        }
    }
    let (grouped, spill_stats) = group_fn(per_partition, threads)?;
    if spill_stats.spilled_partitions > 0 {
        counters.add(
            "shuffle_spilled_partitions",
            spill_stats.spilled_partitions as u64,
        );
        counters.add("shuffle_spill_runs", spill_stats.spill_runs as u64);
        counters.add("shuffle_spill_bytes", spill_stats.spill_bytes);
    }
    if spill_stats.spill_io_retries > 0 {
        counters.add("shuffle_spill_io_retries", spill_stats.spill_io_retries);
        counters.add(
            "shuffle_spill_backoff_units",
            spill_stats.spill_backoff_units,
        );
    }
    let wall_shuffle = started.elapsed().saturating_sub(wall_map);

    // ---- Reduce phase ----------------------------------------------------
    // Every attempt borrows its flat partition, so fault-plan re-execution
    // replays for free — no per-attempt copies, and fault-free runs never
    // copy at all.
    let reduce_runs: Vec<TaskRun<Vec<R::Output>>> =
        run_tasks(cfg, num_reduce, threads, TaskKind::Reduce, |idx, ctx| {
            let partition = &grouped[idx];
            ctx.charge(TASK_STARTUP);
            ctx.charge(SHUFFLE_PER_RECORD * partition.num_records() as f64);
            let mut out = Vec::new();
            reducer.reduce_partition(partition, ctx, &mut out);
            out
        })?;
    drop(grouped);
    let wall_reduce = started.elapsed().saturating_sub(wall_map + wall_shuffle);

    let reduce_costs: Vec<f64> = reduce_runs.iter().map(|r| r.cost).collect();
    let (reduce_phase, reduce_starts) =
        PhaseReport::scheduled(reduce_costs, cfg.cluster.reduce_slots());
    // Shuffle-skew counter: max/mean of the reduce-task virtual costs, in
    // thousandths so it fits the u64 counter space (1000 = perfectly even).
    counters.add(
        "shuffle_skew_milli",
        (max_mean_ratio(&reduce_phase.task_costs) * 1000.0).round() as u64,
    );
    let reduce_base = JOB_STARTUP + map_phase.makespan;

    let mut timeline = map_events;
    let mut outputs = Vec::new();
    for (idx, r) in reduce_runs.into_iter().enumerate() {
        counters.merge(&r.counters);
        timeline.extend(r.events.into_iter().map(|e| ProgressEvent {
            cost: e.cost + reduce_base + reduce_starts[idx],
            ..e
        }));
        outputs.extend(r.value);
    }
    timeline.sort_by(|a, b| a.cost.total_cmp(&b.cost));

    Ok(JobResult {
        outputs,
        counters,
        total_virtual_cost: reduce_base + reduce_phase.makespan,
        map_phase,
        reduce_phase,
        timeline,
        wall_clock: started.elapsed(),
        wall_phases: WallPhases {
            map: wall_map,
            shuffle: wall_shuffle,
            reduce: wall_reduce,
        },
        shuffle_records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{ClusterSpec, GroupReducer, Reducer};

    struct KeyMod;
    impl Mapper for KeyMod {
        type Input = u64;
        type Key = u64;
        type Value = u64;
        fn map(&self, input: &u64, ctx: &mut TaskContext, out: &mut Emitter<u64, u64>) {
            ctx.charge(1.0);
            out.emit(input % 10, *input);
        }
    }

    struct CountValues;
    impl Reducer for CountValues {
        type Key = u64;
        type Value = u64;
        type Output = (u64, u64);
        fn reduce(
            &self,
            key: &u64,
            values: &[u64],
            ctx: &mut TaskContext,
            out: &mut Vec<(u64, u64)>,
        ) {
            ctx.charge(values.len() as f64);
            ctx.counters.add("values", values.len() as u64);
            out.push((*key, values.len() as u64));
        }
    }

    fn job(machines: usize) -> JobConfig {
        JobConfig::new("test", ClusterSpec::paper(machines))
    }

    #[test]
    fn spilling_job_matches_in_memory_job() {
        let inputs: Vec<u64> = (0..500).map(|i| (i * 17) % 400).collect();
        let reducer = GroupReducer::new(CountValues);
        let baseline = run_job(&job(2), &KeyMod, &reducer, &inputs).unwrap();
        // Budget far below any partition: everything spills in tiny runs.
        let spill = ShuffleSpillConfig::new(16);
        let spilled = run_job_spilling(&job(2), &KeyMod, &reducer, &spill, &inputs).unwrap();
        assert_eq!(spilled.outputs, baseline.outputs);
        assert_eq!(
            spilled.reduce_phase.task_costs,
            baseline.reduce_phase.task_costs
        );
        assert_eq!(
            spilled.total_virtual_cost.to_bits(),
            baseline.total_virtual_cost.to_bits()
        );
        assert!(spilled.counters.get("shuffle_spilled_partitions") > 0);
        assert!(spilled.counters.get("shuffle_spill_bytes") > 0);
        assert_eq!(baseline.counters.get("shuffle_spilled_partitions"), 0);
    }

    #[test]
    fn spilling_job_creates_a_missing_spill_dir() {
        let root = std::env::temp_dir().join(format!("pper-spill-mkdir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("missing").join("spill");
        let inputs: Vec<u64> = (0..500).map(|i| (i * 17) % 400).collect();
        let reducer = GroupReducer::new(CountValues);
        let baseline = run_job(&job(2), &KeyMod, &reducer, &inputs).unwrap();
        let spill = ShuffleSpillConfig::new(3).with_dir(&dir);
        let spilled = run_job_spilling(&job(2), &KeyMod, &reducer, &spill, &inputs).unwrap();
        assert_eq!(spilled.outputs, baseline.outputs);
        assert!(spilled.counters.get("shuffle_spilled_partitions") > 0);
        assert!(dir.is_dir());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn groups_all_values_per_key() {
        let inputs: Vec<u64> = (0..100).collect();
        let result = run_job(&job(2), &KeyMod, &GroupReducer::new(CountValues), &inputs).unwrap();
        let mut outputs = result.outputs;
        outputs.sort();
        assert_eq!(outputs.len(), 10);
        assert!(outputs.iter().all(|&(_, n)| n == 10));
        assert_eq!(result.counters.get("values"), 100);
        assert_eq!(result.shuffle_records, 100);
    }

    #[test]
    fn deterministic_across_runs_and_thread_counts() {
        let inputs: Vec<u64> = (0..500).collect();
        let mut cfg1 = job(3);
        cfg1.worker_threads = Some(1);
        let mut cfg8 = job(3);
        cfg8.worker_threads = Some(8);
        let r1 = run_job(&cfg1, &KeyMod, &GroupReducer::new(CountValues), &inputs).unwrap();
        let r8 = run_job(&cfg8, &KeyMod, &GroupReducer::new(CountValues), &inputs).unwrap();
        let mut o1 = r1.outputs.clone();
        let mut o8 = r8.outputs.clone();
        o1.sort();
        o8.sort();
        assert_eq!(o1, o8);
        assert_eq!(r1.total_virtual_cost, r8.total_virtual_cost);
        assert_eq!(r1.map_phase.makespan, r8.map_phase.makespan);
    }

    #[test]
    fn virtual_cost_decreases_with_more_machines() {
        let inputs: Vec<u64> = (0..2000).collect();
        let small = run_job(&job(1), &KeyMod, &GroupReducer::new(CountValues), &inputs).unwrap();
        let big = run_job(&job(8), &KeyMod, &GroupReducer::new(CountValues), &inputs).unwrap();
        assert!(
            big.total_virtual_cost < small.total_virtual_cost,
            "8 machines ({}) should beat 1 machine ({})",
            big.total_virtual_cost,
            small.total_virtual_cost
        );
    }

    #[test]
    fn rejects_zero_machine_cluster() {
        let cfg = JobConfig::new("bad", ClusterSpec::paper(0));
        let err = run_job(&cfg, &KeyMod, &GroupReducer::new(CountValues), &[1u64]).unwrap_err();
        assert!(matches!(err, MrError::InvalidCluster(_)));
    }

    #[test]
    fn empty_input_runs_clean() {
        let result = run_job(&job(2), &KeyMod, &GroupReducer::new(CountValues), &[]).unwrap();
        assert!(result.outputs.is_empty());
        assert_eq!(result.shuffle_records, 0);
    }

    struct PanickyMapper;
    impl Mapper for PanickyMapper {
        type Input = u64;
        type Key = u64;
        type Value = u64;
        fn map(&self, input: &u64, _ctx: &mut TaskContext, _out: &mut Emitter<u64, u64>) {
            if *input == 7 {
                panic!("bad record");
            }
        }
    }

    #[test]
    fn task_panic_becomes_error() {
        let inputs: Vec<u64> = (0..10).collect();
        let err = run_job(
            &job(2),
            &PanickyMapper,
            &GroupReducer::new(CountValues),
            &inputs,
        )
        .unwrap_err();
        match err {
            MrError::TaskPanicked { message, .. } => assert!(message.contains("bad record")),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn reduce_events_land_on_global_timeline() {
        struct EventReducer;
        impl Reducer for EventReducer {
            type Key = u64;
            type Value = u64;
            type Output = ();
            fn reduce(
                &self,
                _key: &u64,
                values: &[u64],
                ctx: &mut TaskContext,
                _out: &mut Vec<()>,
            ) {
                ctx.charge(values.len() as f64);
                ctx.log_event(values.len() as u64);
            }
        }
        let inputs: Vec<u64> = (0..50).collect();
        let cfg = job(1);
        let result = run_job(&cfg, &KeyMod, &GroupReducer::new(EventReducer), &inputs).unwrap();
        assert!(!result.timeline.is_empty());
        let base = JOB_STARTUP + result.map_phase.makespan;
        assert!(result.timeline.iter().all(|e| e.cost >= base));
        assert!(result.timeline.windows(2).all(|w| w[0].cost <= w[1].cost));
    }

    struct SumReducer;
    impl Reducer for SumReducer {
        type Key = u64;
        type Value = u64;
        type Output = (u64, u64);
        fn reduce(
            &self,
            key: &u64,
            values: &[u64],
            ctx: &mut TaskContext,
            out: &mut Vec<(u64, u64)>,
        ) {
            ctx.charge(values.len() as f64);
            out.push((*key, values.iter().sum()));
        }
    }

    #[test]
    fn injected_failures_slow_the_task_but_keep_results() {
        use crate::faults::FaultPlan;
        let inputs: Vec<u64> = (0..500).collect();
        let clean_cfg = job(2);
        let clean = run_job(&clean_cfg, &KeyMod, &GroupReducer::new(SumReducer), &inputs).unwrap();

        let mut faulty_cfg = job(2);
        faulty_cfg.faults = Some(FaultPlan::fail_reduce(0, 2));
        let faulty = run_job(
            &faulty_cfg,
            &KeyMod,
            &GroupReducer::new(SumReducer),
            &inputs,
        )
        .unwrap();

        let mut a = clean.outputs.clone();
        let mut b = faulty.outputs.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "retried task must produce identical output");
        assert!(
            faulty.reduce_phase.task_costs[0] > clean.reduce_phase.task_costs[0],
            "failed attempts must waste virtual time"
        );
        // Unaffected tasks cost the same.
        assert_eq!(
            faulty.reduce_phase.task_costs[1],
            clean.reduce_phase.task_costs[1]
        );
        assert_eq!(faulty.counters.get("task_retries"), 2);
        assert!(faulty.total_virtual_cost >= clean.total_virtual_cost);
    }

    #[test]
    fn exhausted_attempts_fail_the_job() {
        use crate::faults::FaultPlan;
        let inputs: Vec<u64> = (0..50).collect();
        let mut cfg = job(1);
        cfg.faults = Some(FaultPlan::fail_map(0, 4));
        let err = run_job(&cfg, &KeyMod, &GroupReducer::new(SumReducer), &inputs).unwrap_err();
        assert!(matches!(err, MrError::TaskFailed { .. }), "{err}");
    }

    #[test]
    fn failed_task_events_shift_later() {
        use crate::faults::FaultPlan;
        struct EventingReducer;
        impl Reducer for EventingReducer {
            type Key = u64;
            type Value = u64;
            type Output = ();
            fn reduce(
                &self,
                _key: &u64,
                values: &[u64],
                ctx: &mut TaskContext,
                _out: &mut Vec<()>,
            ) {
                ctx.charge(values.len() as f64);
                ctx.log_event(1);
            }
        }
        let inputs: Vec<u64> = (0..200).collect();
        let mut cfg = job(1);
        let clean = run_job(&cfg, &KeyMod, &GroupReducer::new(EventingReducer), &inputs).unwrap();
        cfg.faults = Some(FaultPlan::fail_reduce(0, 1).with_discard(TaskKind::Reduce, 1, 1));
        let faulty = run_job(&cfg, &KeyMod, &GroupReducer::new(EventingReducer), &inputs).unwrap();
        assert_eq!(clean.timeline.len(), faulty.timeline.len());
        for (c, f) in clean.timeline.iter().zip(&faulty.timeline) {
            assert!(f.cost > c.cost, "events must shift later under retries");
        }
    }

    #[test]
    fn real_attempt_deaths_are_retried_and_results_unchanged() {
        use crate::faults::FaultPlan;
        let inputs: Vec<u64> = (0..500).collect();
        let clean = run_job(&job(2), &KeyMod, &GroupReducer::new(SumReducer), &inputs).unwrap();

        // Attempt 1 dies at start, attempt 2 dies once its clock crosses 60
        // cost units, attempt 3 survives.
        let mut cfg = job(2);
        cfg.faults = Some(
            FaultPlan::default()
                .with_crash(TaskKind::Reduce, 0, 1)
                .with_abort(TaskKind::Reduce, 0, 2, 60.0),
        );
        let faulty = run_job(&cfg, &KeyMod, &GroupReducer::new(SumReducer), &inputs).unwrap();

        let mut a = clean.outputs.clone();
        let mut b = faulty.outputs.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "re-executed task must produce identical output");
        assert_eq!(faulty.counters.get("task_retries"), 2);
        assert!(faulty.counters.get("wasted_virtual_cost") > 0);
        assert!(
            faulty.reduce_phase.task_costs[0] > clean.reduce_phase.task_costs[0],
            "dead attempts must waste virtual time"
        );
        assert_eq!(
            faulty.reduce_phase.task_costs[1],
            clean.reduce_phase.task_costs[1]
        );
    }

    struct FlakyMapper;
    impl Mapper for FlakyMapper {
        type Input = u64;
        type Key = u64;
        type Value = u64;
        fn map(&self, input: &u64, ctx: &mut TaskContext, out: &mut Emitter<u64, u64>) {
            if ctx.attempt == 1 {
                panic!("transient fault");
            }
            ctx.charge(1.0);
            out.emit(input % 10, *input);
        }
    }

    #[test]
    fn genuine_panic_below_budget_recovers() {
        use crate::faults::FaultPlan;
        let inputs: Vec<u64> = (0..200).collect();
        let clean = run_job(&job(2), &KeyMod, &GroupReducer::new(SumReducer), &inputs).unwrap();
        // A real panic!() on every first attempt: with an attempt budget the
        // job must survive and match the clean run.
        let mut cfg = job(2);
        cfg.faults = Some(FaultPlan::default());
        let flaky = run_job(&cfg, &FlakyMapper, &GroupReducer::new(SumReducer), &inputs).unwrap();
        let mut a = clean.outputs.clone();
        let mut b = flaky.outputs.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(flaky.counters.get("task_retries") >= 1);
        assert!(flaky.total_virtual_cost > clean.total_virtual_cost);
    }

    #[test]
    fn genuine_panic_exhausting_budget_fails_with_last_error() {
        use crate::faults::FaultPlan;
        let inputs: Vec<u64> = (0..10).collect();
        let mut cfg = job(2);
        cfg.faults = Some(FaultPlan::default());
        let err = run_job(
            &cfg,
            &PanickyMapper,
            &GroupReducer::new(CountValues),
            &inputs,
        )
        .unwrap_err();
        match err {
            MrError::TaskFailed {
                attempts,
                last_error,
                ..
            } => {
                assert_eq!(attempts, MAX_ATTEMPTS);
                assert!(last_error.contains("bad record"), "{last_error}");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn out_of_range_fault_entries_are_rejected() {
        use crate::faults::FaultPlan;
        let inputs: Vec<u64> = (0..50).collect();
        let mut cfg = job(1);
        cfg.faults = Some(FaultPlan::fail_map(99, 2));
        let err = run_job(&cfg, &KeyMod, &GroupReducer::new(SumReducer), &inputs).unwrap_err();
        assert!(matches!(err, MrError::InvalidFaultPlan(_)), "{err}");
        assert!(err.to_string().contains("99"), "{err}");

        let mut cfg = job(1);
        cfg.faults = Some(FaultPlan::default().with_abort(TaskKind::Reduce, 50, 1, 10.0));
        let err = run_job(&cfg, &KeyMod, &GroupReducer::new(SumReducer), &inputs).unwrap_err();
        assert!(matches!(err, MrError::InvalidFaultPlan(_)), "{err}");
    }

    #[test]
    fn every_death_point_wastes_the_dead_attempts_clock() {
        use crate::faults::FaultPlan;
        use crate::observe::TaskObserver;
        use std::sync::Arc;
        let inputs: Vec<u64> = (0..500).collect();
        let reducer = GroupReducer::new(SumReducer);
        let clean = run_job(&job(2), &KeyMod, &reducer, &inputs).unwrap();
        let clean_cost = clean.reduce_phase.task_costs[0];
        let startup = TASK_STARTUP;
        let mid = (startup + clean_cost) / 2.0;

        // The first attempt of reduce-0 dies at its start, at a clock, at
        // its end; `died` bounds the clock the dead attempt stopped at (an
        // abort fires on the first charge that reaches its clock).
        let table = [
            (
                FaultPlan::default().with_crash(TaskKind::Reduce, 0, 1),
                startup..=startup,
            ),
            (
                FaultPlan::default().with_abort(TaskKind::Reduce, 0, 1, mid),
                mid..=clean_cost,
            ),
            (FaultPlan::fail_reduce(0, 1), clean_cost..=clean_cost),
        ];
        for (plan, died) in table {
            let dead: Arc<Mutex<Vec<AttemptRecord>>> = Arc::default();
            let sink = Arc::clone(&dead);
            let mut cfg = job(2);
            cfg.faults = Some(plan.clone());
            cfg.observer = Some(TaskObserver::new(move |event| {
                if let TaskEvent::Finished { failures, .. } = event {
                    sink.lock().extend_from_slice(failures);
                }
            }));
            let faulty = run_job(&cfg, &KeyMod, &reducer, &inputs).unwrap();
            assert_eq!(faulty.outputs, clean.outputs, "{plan:?}");
            assert_eq!(faulty.counters.get("task_retries"), 1, "{plan:?}");

            let dead = dead.lock();
            assert_eq!(dead.len(), 1, "{plan:?}");
            let clock = dead[0].wasted_cost;
            assert!(died.contains(&clock), "{plan:?}: died at {clock}");
            assert_eq!(
                faulty.counters.get("wasted_virtual_cost"),
                clock.round() as u64,
                "{plan:?}"
            );
            let mut costs = clean.reduce_phase.task_costs.clone();
            costs[0] += clock;
            assert_eq!(faulty.reduce_phase.task_costs, costs, "{plan:?}");
        }
    }

    #[test]
    fn out_of_range_partition_is_an_error_not_a_clamp() {
        struct OffByOne;
        impl Mapper for OffByOne {
            type Input = u64;
            type Key = u64;
            type Value = u64;
            fn map(&self, input: &u64, ctx: &mut TaskContext, out: &mut Emitter<u64, u64>) {
                KeyMod.map(input, ctx, out);
            }
            fn partition(&self, _key: &u64, num_reduce: usize) -> usize {
                num_reduce // one past the end — used to be clamped silently
            }
        }
        let inputs: Vec<u64> = (0..10).collect();
        let err =
            run_job(&job(2), &OffByOne, &GroupReducer::new(CountValues), &inputs).unwrap_err();
        match err {
            MrError::InvalidPartition {
                job,
                partition,
                num_reduce,
            } => {
                assert_eq!(job, "test");
                assert_eq!(partition, num_reduce);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn wall_phases_sum_within_wall_clock() {
        let inputs: Vec<u64> = (0..500).collect();
        let r = run_job(&job(2), &KeyMod, &GroupReducer::new(CountValues), &inputs).unwrap();
        let phases = r.wall_phases.map + r.wall_phases.shuffle + r.wall_phases.reduce;
        assert!(phases <= r.wall_clock, "{phases:?} > {:?}", r.wall_clock);
        assert!(r.wall_phases.map > Duration::ZERO);
    }

    #[test]
    fn split_ranges_cover_input() {
        for (len, n) in [(10, 3), (0, 4), (5, 5), (7, 10), (100, 1)] {
            let ranges = split_ranges(len, n);
            assert_eq!(ranges.len(), n);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, len);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
        }
    }
}
