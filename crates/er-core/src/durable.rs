//! Durable job execution: journal every lifecycle event, checkpoint on a
//! fixed virtual-cost grid, and resume or reprocess in a *fresh process*.
//!
//! [`run_durable`] runs the pipeline once, start to finish — statistics
//! job, schedule generation, resolution job — appending to the job's
//! [`pper_journal`] log as it goes. The schedule is journaled once, when it
//! is generated. The resolution job then cuts its checkpoints *in-line*:
//! this module installs a [`CutSink`] on the job's one [`Stage`], and every
//! reduce task, as its own clock crosses the `checkpoint_every` grid (and at
//! its last block), hands over a delta — blocks done, clock, pairs compared
//! and duplicates found since its previous cut — which is appended as a
//! `CheckpointCut` record before the task moves on (§III-B's per-task
//! α-incremental result files, made the unit of recovery). Every task
//! completion (with its attempt history) and every attempt-budget
//! exhaustion is journaled through the runtime's [`TaskObserver`] hook. A
//! healthy run executes each job exactly once and its counters are the
//! uninterrupted run's.
//!
//! Appended is not yet synced. [`JobJournal`] syncs by itself once a byte
//! budget of records has accumulated; this module adds a barrier only where
//! something starts to rest on the records: after `ScheduleGenerated`,
//! before the resolution job cuts against that schedule (one barrier for
//! the whole statistics job); before a dead-letter capture is reported; and
//! on every return of [`run_durable`], [`resume_durable`] and
//! [`reprocess_dlq`], `Ok` or `Err`. A killed process loses nothing past
//! the record it was writing; a machine crash loses at most the unsynced
//! tail, which the resumed stage re-executes. A sync that fails ends the
//! run with the typed journal error — it is never retried.
//!
//! [`resume_durable`] reconstructs the run in a fresh process from nothing
//! but the journal (plus the dataset file named in the `JobStarted`
//! parameters, which also pin its entity count and content hash — a resume
//! against another dataset is refused): [`JournalState`] folds each task's
//! deltas in `seq` order, [`journaled_checkpoint`] turns the fold into a
//! [`Checkpoint`] (a task with no cut starts from scratch; with no schedule
//! journaled the deterministic early stages re-run), and one more resolution
//! stage resumes it — still cutting in-line, so a resumed run can be killed
//! and resumed again — to the bit-identical final result: same duplicates,
//! curve, timeline, and total virtual cost as the uninterrupted run. A
//! task's deltas depend only on its own deterministic execution, so a
//! retried or discarded attempt re-emits records its dead predecessor
//! already wrote; those are recognised by `(task, seq)` and not appended
//! again, and the fold never depends on how the worker threads interleaved
//! their appends.
//!
//! Tasks that exhaust their attempt budget are captured into the journal's
//! dead-letter queue with full failure history and a JSON reprocessing
//! context; [`reprocess_dlq`] drains them back into the attempt loop.

use std::hash::Hasher;
use std::sync::Arc;

use parking_lot::Mutex;
use pper_datagen::Dataset;
use pper_journal::{
    recover, AttemptFailure, JobJournal, JournalError, JournalEvent, JournalState, JournalStore,
    TaskClass,
};
use pper_mapreduce::fxhash::FxHasher;
use pper_mapreduce::{Counters, MrError, TaskEvent, TaskKind, TaskObserver};
use pper_schedule::Schedule;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{Checkpoint, TaskCheckpoint};
use crate::job1::run_job1;
use crate::job2::{run_job2_stage, CutSink, Stage, StageOutcome};
use crate::pipeline::{ErRunResult, ProgressiveEr};

/// Knobs for a durable run.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Virtual-cost spacing of the checkpoint grid on each reduce task's own
    /// clock: a task of the resolution job cuts a checkpoint at the first
    /// block boundary past `every`, `2·every`, ..., and at its last block.
    pub checkpoint_every: f64,
    /// Conformance-harness hook: abort the process (as if `kill -9`) right
    /// after the N-th journal event is appended and the log synced, so that
    /// event is durable and nothing after it is. `None` disables.
    pub kill_after_events: Option<u64>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            checkpoint_every: 2_000.0,
            kill_after_events: None,
        }
    }
}

/// Everything a durable run can fail with.
#[derive(Debug)]
pub enum DurableError {
    /// Reading or writing the journal failed.
    Journal(JournalError),
    /// The pipeline itself failed (non-task-exhaustion errors).
    Run(MrError),
    /// One or more tasks exhausted their attempt budget; they were captured
    /// into the journal's dead-letter queue for later reprocessing.
    DeadLettered {
        /// The job whose journal holds the captures.
        job_id: String,
        /// Rendered ids of the captured tasks (e.g. `"reduce-0"`).
        tasks: Vec<String>,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Journal(e) => write!(f, "durable run journal error: {e}"),
            DurableError::Run(e) => write!(f, "durable run failed: {e}"),
            DurableError::DeadLettered { job_id, tasks } => write!(
                f,
                "job '{job_id}': {} task(s) exhausted their attempt budget and were \
                 dead-lettered ({}); reprocess with `pper dlq --reprocess`",
                tasks.len(),
                tasks.join(", ")
            ),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<JournalError> for DurableError {
    fn from(e: JournalError) -> Self {
        DurableError::Journal(e)
    }
}

impl From<MrError> for DurableError {
    fn from(e: MrError) -> Self {
        DurableError::Run(e)
    }
}

/// Bit-exact summary of an [`ErRunResult`] for cross-process comparison:
/// every float is carried as its IEEE-754 bit pattern, so two processes
/// agreeing on the fingerprint agree on duplicates, timeline, curve, and
/// total virtual cost down to the last bit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResultFingerprint {
    /// All duplicate pairs, normalized and sorted.
    pub duplicates: Vec<(u32, u32)>,
    /// Timeline of found duplicates as `(cost bits, a, b)`.
    pub found_events: Vec<(u64, u32, u32)>,
    /// `total_cost.to_bits()`.
    pub total_cost_bits: u64,
    /// `precision.to_bits()`.
    pub precision_bits: u64,
    /// `curve.final_recall().to_bits()`.
    pub final_recall_bits: u64,
    /// Number of points on the recall curve.
    pub curve_len: u64,
}

impl ResultFingerprint {
    /// Fingerprint a run result.
    pub fn of(result: &ErRunResult) -> Self {
        Self {
            duplicates: result.duplicates.clone(),
            found_events: result
                .found_events
                .iter()
                .map(|&(cost, a, b)| (cost.to_bits(), a, b))
                .collect(),
            total_cost_bits: result.total_cost.to_bits(),
            precision_bits: result.precision.to_bits(),
            final_recall_bits: result.curve.final_recall().to_bits(),
            curve_len: result.curve.len() as u64,
        }
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> Result<String, MrError> {
        serde_json::to_string(self).map_err(|e| MrError::Internal(format!("fingerprint: {e}")))
    }

    /// Parse from JSON.
    pub fn from_json(json: &str) -> Result<Self, MrError> {
        serde_json::from_str(json).map_err(|e| MrError::Internal(format!("fingerprint: {e}")))
    }
}

/// A task captured by the observer when it exhausted its attempt budget,
/// pending dead-letter capture.
struct ExhaustedTask {
    job: String,
    kind: TaskClass,
    index: u32,
    attempts: u32,
    failures: Vec<AttemptFailure>,
}

/// State shared between the durable driver and the callbacks it installs
/// (the task observer and the cut sink).
struct Shared {
    journal: Mutex<JobJournal>,
    /// First journal I/O error hit inside a callback (callbacks cannot
    /// return errors through the runtime, so they park them here).
    io_error: Mutex<Option<JournalError>>,
    /// Exhausted tasks seen by the observer, drained on stage failure.
    exhausted: Mutex<Vec<ExhaustedTask>>,
    /// Next dead-letter sequence number.
    next_dlq_seq: Mutex<u32>,
    /// Per reduce task of the resolution job: the `seq` of the next
    /// checkpoint cut the journal does not hold yet.
    next_cut_seq: Mutex<Vec<u32>>,
}

impl Shared {
    fn new(journal: JobJournal, next_dlq_seq: u32) -> Arc<Self> {
        Arc::new(Self {
            journal: Mutex::new(journal),
            io_error: Mutex::new(None),
            exhausted: Mutex::new(Vec::new()),
            next_dlq_seq: Mutex::new(next_dlq_seq),
            next_cut_seq: Mutex::new(Vec::new()),
        })
    }

    /// Append one event, surfacing any parked callback I/O error first.
    fn append(&self, event: &JournalEvent) -> Result<u64, DurableError> {
        if let Some(e) = self.io_error.lock().take() {
            return Err(DurableError::Journal(e));
        }
        self.journal
            .lock()
            .append(event)
            .map_err(DurableError::Journal)
    }

    /// The barrier: on `Ok`, every record appended so far is on disk.
    fn sync(&self) -> Result<(), DurableError> {
        self.journal.lock().sync().map_err(DurableError::Journal)
    }

    /// Append one event from a callback, parking the first failure.
    fn append_from_callback(&self, event: &JournalEvent) -> bool {
        match self.journal.lock().append(event) {
            Ok(_) => true,
            Err(e) => {
                self.io_error.lock().get_or_insert(e);
                false
            }
        }
    }

    /// The cut sink: journal a reduce task's delta before the task moves
    /// on. Only the record next in line for its task is appended — an
    /// attempt re-running after its predecessor died re-emits what that one
    /// already wrote, and after a failed append nothing of the task may
    /// follow the gap.
    fn cut(&self, seq: u32, delta: TaskCheckpoint) {
        let mut next = self.next_cut_seq.lock();
        if next.get(delta.task) != Some(&seq) {
            return;
        }
        let event = JournalEvent::CheckpointCut {
            task: delta.task as u32,
            seq,
            blocks_done: delta.blocks_done as u64,
            clock: delta.clock,
            resolved: delta
                .resolved
                .into_iter()
                .map(|(tree, pairs)| (tree as u32, pairs))
                .collect(),
            duplicates: delta.duplicates,
        };
        if self.append_from_callback(&event) {
            next[delta.task] += 1;
        }
    }
}

fn class_of(kind: TaskKind) -> TaskClass {
    match kind {
        TaskKind::Map => TaskClass::Map,
        TaskKind::Reduce => TaskClass::Reduce,
    }
}

fn convert_failures(failures: &[pper_mapreduce::AttemptRecord]) -> Vec<AttemptFailure> {
    failures
        .iter()
        .map(|f| AttemptFailure {
            attempt: f.attempt,
            wasted_cost: f.wasted_cost,
            error: f.error.clone(),
        })
        .collect()
}

/// Build the [`TaskObserver`] that journals task lifecycle events.
fn make_observer(shared: &Arc<Shared>) -> TaskObserver {
    let shared = Arc::clone(shared);
    TaskObserver::new(move |ev| {
        let event = match ev {
            TaskEvent::Finished {
                job,
                id,
                attempts,
                failures,
                cost,
                wasted,
            } => JournalEvent::TaskFinished {
                job: (*job).to_string(),
                kind: class_of(id.kind),
                index: id.index as u32,
                attempts: *attempts,
                cost: *cost,
                wasted: *wasted,
                failures: convert_failures(failures),
            },
            TaskEvent::Exhausted {
                job,
                id,
                attempts,
                failures,
            } => {
                let conv = convert_failures(failures);
                shared.exhausted.lock().push(ExhaustedTask {
                    job: (*job).to_string(),
                    kind: class_of(id.kind),
                    index: id.index as u32,
                    attempts: *attempts,
                    failures: conv.clone(),
                });
                JournalEvent::TaskExhausted {
                    job: (*job).to_string(),
                    kind: class_of(id.kind),
                    index: id.index as u32,
                    attempts: *attempts,
                    failures: conv,
                }
            }
        };
        shared.append_from_callback(&event);
    })
}

/// The reprocessing context recorded with a dead-lettered task. Field order
/// is the order of the keys in the journaled JSON.
#[derive(Serialize)]
struct DlqContext<'a> {
    stage: &'a str,
    dataset: &'a str,
    task: &'a str,
}

/// Finish a pipeline stage: surface parked journal errors, and on task
/// exhaustion capture the observed tasks into the dead-letter queue with a
/// JSON reprocessing context — synced, since the error names the captures —
/// before failing.
fn finish_stage<T>(
    shared: &Shared,
    job_id: &str,
    ds: &Dataset,
    stage: &str,
    result: Result<T, MrError>,
) -> Result<T, DurableError> {
    if let Some(e) = shared.io_error.lock().take() {
        return Err(DurableError::Journal(e));
    }
    match result {
        Ok(v) => {
            // A successful stage leaves no exhausted tasks behind (a job
            // with one would have errored); clear defensively anyway.
            shared.exhausted.lock().clear();
            Ok(v)
        }
        Err(err) => {
            let captured: Vec<ExhaustedTask> = std::mem::take(&mut *shared.exhausted.lock());
            if captured.is_empty() {
                return Err(DurableError::Run(err));
            }
            let mut task_names = Vec::with_capacity(captured.len());
            for ex in captured {
                let seq = {
                    let mut s = shared.next_dlq_seq.lock();
                    let seq = *s;
                    *s += 1;
                    seq
                };
                let task = format!("{}-{}", ex.kind.name(), ex.index);
                // The dataset name is outside input (the data file's
                // header), so the context goes through the JSON encoder.
                let context_json = serde_json::to_string(&DlqContext {
                    stage,
                    dataset: &ds.name,
                    task: &task,
                })
                .map_err(|e| MrError::Internal(format!("dead-letter context: {e}")))?;
                task_names.push(task);
                shared.append(&JournalEvent::DeadLettered {
                    seq,
                    job: ex.job,
                    kind: ex.kind,
                    index: ex.index,
                    attempts: ex.attempts,
                    failures: ex.failures,
                    context_json,
                })?;
            }
            shared.sync()?;
            Err(DurableError::DeadLettered {
                job_id: job_id.to_string(),
                tasks: task_names,
            })
        }
    }
}

/// The [`Checkpoint`] a job's journal holds: the schedule as journaled and,
/// per reduce task, the fold of its checkpoint cuts (pairs sorted, as a
/// checkpoint stores them; a task with no cut is at block zero). `None`
/// before the schedule was journaled — there is nothing to resume yet.
///
/// For every cut record, this checkpoint's entry for the record's task,
/// taken from the journal up to and including it, equals the
/// [`TaskCheckpoint`] that [`ProgressiveEr::run_stage`] cuts when killed at
/// the record's clock.
pub fn journaled_checkpoint(
    state: &JournalState,
    machines: usize,
) -> Result<Option<Checkpoint>, MrError> {
    let (Some(json), Some(job1_cost)) = (&state.schedule_json, state.job1_cost) else {
        return Ok(None);
    };
    let schedule: Schedule = serde_json::from_str(json)
        .map_err(|e| MrError::Checkpoint(format!("journaled schedule: {e}")))?;
    let tasks = state
        .tasks
        .iter()
        .enumerate()
        .map(|(task, progress)| TaskCheckpoint {
            task,
            blocks_done: progress.blocks_done as usize,
            clock: progress.clock,
            resolved: progress
                .resolved
                .iter()
                .map(|(tree, pairs)| {
                    let mut pairs = pairs.clone();
                    pairs.sort_unstable();
                    (*tree as usize, pairs)
                })
                .collect(),
            duplicates: progress.duplicates.clone(),
        })
        .collect();
    Ok(Some(Checkpoint {
        schedule,
        job1_cost,
        // No one threshold: each task's own clock is its watermark.
        crash_at: 0.0,
        machines,
        tasks,
    }))
}

/// Drive the pipeline to completion, journaling as it goes: `first` opens
/// this process's stretch of the log (`JobStarted`, or the `DlqDrained`
/// records of a reprocess), then the stages run.
///
/// `resume` is the checkpoint the journal holds and, per task, how many cut
/// records went into it; `None` starts from the statistics job. The `er`
/// passed here must already have the journaling observer installed.
///
/// Once a durable entry point has a journal to append to, every exit is
/// this function's, and it syncs on all of them: a result, and an error a
/// caller may act on by resuming, is reported only once the records it
/// rests on are on disk.
fn drive(
    er: &ProgressiveEr,
    ds: &Dataset,
    job_id: &str,
    shared: &Arc<Shared>,
    every: f64,
    first: &[JournalEvent],
    resume: Option<(Checkpoint, Vec<u32>)>,
) -> Result<ErRunResult, DurableError> {
    let outcome = first
        .iter()
        .try_for_each(|event| shared.append(event).map(drop))
        .and_then(|()| run_stages(er, ds, job_id, shared, every, resume));
    let synced = shared.sync();
    outcome.and_then(|result| synced.map(|()| result))
}

fn run_stages(
    er: &ProgressiveEr,
    ds: &Dataset,
    job_id: &str,
    shared: &Arc<Shared>,
    every: f64,
    resume: Option<(Checkpoint, Vec<u32>)>,
) -> Result<ErRunResult, DurableError> {
    let config = &er.config;
    let fresh;
    let (schedule, job1_cost, job1_counters, first_seq) = match &resume {
        Some((cp, cuts)) => (&cp.schedule, cp.job1_cost, Counters::new(), cuts.clone()),
        None => {
            // ---- Statistics job ---------------------------------------
            let job1 = finish_stage(shared, job_id, ds, "job1-blocking", run_job1(ds, config))?;
            shared.append(&JournalEvent::Job1Finished {
                virtual_cost: job1.virtual_cost,
            })?;

            // ---- Schedule generation: journaled here, and only here ---
            fresh = er.generate_schedule(ds, &job1.stats);
            shared.append(&JournalEvent::ScheduleGenerated {
                task_blocks: fresh.block_order.iter().map(|b| b.len() as u64).collect(),
                schedule_json: serde_json::to_string(&fresh)
                    .map_err(|e| MrError::Checkpoint(format!("schedule: {e}")))?,
            })?;
            // One barrier for everything up to here. The cuts that follow
            // are deltas against this schedule, and from now on a crash
            // must cost a budget of them, not the statistics job again.
            shared.sync()?;
            let first_seq = vec![0; fresh.num_tasks];
            (&fresh, job1.virtual_cost, job1.counters, first_seq)
        }
    };

    // ---- Resolution job: one pass, cutting checkpoints in-line ---------
    *shared.next_cut_seq.lock() = first_seq.clone();
    let emit = |seq, delta| shared.cut(seq, delta);
    let sink = CutSink {
        every,
        first_seq: &first_seq,
        emit: &emit,
    };
    let stage = Stage {
        resume: resume.as_ref().map(|(cp, _)| cp),
        crash_at: None,
        cuts: Some(&sink),
    };
    let outcome = run_job2_stage(ds, config, schedule, stage);
    let job2 = match finish_stage(shared, job_id, ds, "job2-resolution", outcome)? {
        StageOutcome::Finished(job2) => job2,
        StageOutcome::Checkpoints(_) => {
            return Err(MrError::Internal("a stage without a threshold was cut".into()).into())
        }
    };
    let result = er.assemble(ds, job2, job1_cost, job1_counters);

    let mut entries: Vec<(String, u64)> = result
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    entries.sort();
    shared.append(&JournalEvent::CountersSnapshot { entries })?;
    shared.append(&JournalEvent::JobFinished {
        duplicates: result.duplicates.len() as u64,
        total_cost: result.total_cost,
    })?;
    Ok(result)
}

fn check_every(every: f64) -> Result<(), DurableError> {
    if every.is_finite() && every > 0.0 {
        Ok(())
    } else {
        Err(DurableError::Run(MrError::Checkpoint(format!(
            "checkpoint_every must be finite and positive, got {every}"
        ))))
    }
}

/// Install the journaling observer on a copy of the pipeline.
fn with_observer(er: &ProgressiveEr, shared: &Arc<Shared>) -> ProgressiveEr {
    let mut er = er.clone();
    er.config.observer = Some(make_observer(shared));
    er
}

/// Run the pipeline durably: journal every lifecycle event to `store`
/// under `job_id`, checkpoint the resolution job on the
/// [`DurableOptions::checkpoint_every`] grid, and return the final result —
/// bit-identical (as a [`ResultFingerprint`]), counters included, to an
/// uninterrupted [`ProgressiveEr::try_run`].
///
/// `params` is recorded verbatim in the `JobStarted` event (plus
/// `checkpoint_every` and `dataset` entries if absent), giving a fresh
/// process everything it needs to rebuild the configuration for
/// [`resume_durable`] and to check it was handed the same dataset.
pub fn run_durable(
    er: &ProgressiveEr,
    ds: &Dataset,
    store: &Arc<dyn JournalStore>,
    job_id: &str,
    params: &[(String, String)],
    opts: &DurableOptions,
) -> Result<ErRunResult, DurableError> {
    check_every(opts.checkpoint_every)?;
    let mut journal = JobJournal::create(Arc::clone(store), job_id)?;
    journal.set_kill_after(opts.kill_after_events);
    let shared = Shared::new(journal, 0);
    let er = with_observer(er, &shared);

    let mut all_params: Vec<(String, String)> = params.to_vec();
    // Rust's float Display is shortest-round-trip, so the grid spacing
    // survives the string trip exactly.
    for (key, value) in [
        ("checkpoint_every", format!("{}", opts.checkpoint_every)),
        ("dataset", dataset_digest(ds)),
    ] {
        if !all_params.iter().any(|(k, _)| k == key) {
            all_params.push((key.into(), value));
        }
    }
    let started = JournalEvent::JobStarted {
        job_id: job_id.to_string(),
        params: all_params,
    };
    let every = opts.checkpoint_every;
    drive(&er, ds, job_id, &shared, every, &[started], None)
}

/// The `dataset` parameter: the entity count and an FxHash of every
/// attribute and cluster id. Checkpoints name entities by id, so resuming
/// them against other data would index out of bounds or resolve the wrong
/// records.
fn dataset_digest(ds: &Dataset) -> String {
    let mut h = FxHasher::default();
    for e in &ds.entities {
        h.write_usize(e.attrs.len());
        for attr in &e.attrs {
            h.write_usize(attr.len());
            h.write(attr.as_bytes());
        }
        h.write_u32(ds.truth.cluster(e.id));
    }
    format!("{} entities, fxhash {:016x}", ds.entities.len(), h.finish())
}

/// Recover a job's journal and fold it to the resume state, truncating any
/// torn tail so new records never land behind garbage.
fn recover_state(
    store: &Arc<dyn JournalStore>,
    job_id: &str,
) -> Result<JournalState, DurableError> {
    let rec = recover(store, job_id)?;
    if !rec.report.clean() {
        store.truncate_log(job_id, rec.report.valid_bytes)?;
    }
    Ok(JournalState::replay(&rec.events))
}

fn grid_spacing(state: &JournalState, opts: &DurableOptions) -> Result<f64, DurableError> {
    let every = match state.param("checkpoint_every") {
        Some(v) => v.parse::<f64>().map_err(|_| {
            DurableError::Journal(JournalError::BadState(format!(
                "journaled checkpoint_every '{v}' is not a number"
            )))
        })?,
        None => opts.checkpoint_every,
    };
    check_every(every)?;
    Ok(every)
}

/// Recover, fold, and run the job on from what the journal holds: the
/// body of [`resume_durable`] and, with `drain_dlq`, of [`reprocess_dlq`].
fn redrive(
    er: &ProgressiveEr,
    ds: &Dataset,
    store: &Arc<dyn JournalStore>,
    job_id: &str,
    opts: &DurableOptions,
    drain_dlq: bool,
) -> Result<ErRunResult, DurableError> {
    let state = recover_state(store, job_id)?;
    let bad_state = |what: &str| {
        Err(DurableError::Journal(JournalError::BadState(format!(
            "job '{job_id}' has no {what}"
        ))))
    };
    if state.job_id.is_none() {
        return bad_state("job-started record to resume from");
    }
    if drain_dlq && state.dlq.is_empty() {
        return bad_state("dead-lettered tasks to reprocess");
    }
    // Journals written before the dataset was pinned carry no digest.
    if let Some(journaled) = state.param("dataset") {
        let given = dataset_digest(ds);
        if journaled != given {
            return Err(DurableError::Journal(JournalError::BadState(format!(
                "job '{job_id}' was journaled against a dataset of {journaled}, \
                 but was handed one of {given}"
            ))));
        }
    }
    let every = grid_spacing(&state, opts)?;
    let resume = journaled_checkpoint(&state, er.config.machines)?
        .map(|cp| (cp, state.tasks.iter().map(|task| task.cuts).collect()));
    let mut journal = JobJournal::create(Arc::clone(store), job_id)?;
    journal.set_kill_after(opts.kill_after_events);
    let shared = Shared::new(journal, state.next_dlq_seq);
    let mut er = with_observer(er, &shared);
    let mut drained = Vec::new();
    if drain_dlq {
        // The captured tasks re-enter the attempt loop without the fault
        // that killed them (the operational fix a DLQ exists for).
        er.config.faults = None;
        drained.extend(
            state
                .dlq
                .iter()
                .map(|entry| JournalEvent::DlqDrained { seq: entry.seq }),
        );
    }
    drive(&er, ds, job_id, &shared, every, &drained, resume)
}

/// Resume a durable job in a fresh process from nothing but its journal
/// (and the dataset): every reduce task of the resolution job picks up at
/// its own latest checkpoint cut, or — if the kill landed before the
/// schedule was journaled — the deterministic early stages re-run. The
/// final result is bit-identical to the uninterrupted run; the resumed run
/// keeps cutting checkpoints and can itself be killed and resumed.
pub fn resume_durable(
    er: &ProgressiveEr,
    ds: &Dataset,
    store: &Arc<dyn JournalStore>,
    job_id: &str,
    opts: &DurableOptions,
) -> Result<ErRunResult, DurableError> {
    redrive(er, ds, store, job_id, opts, false)
}

/// Drain the job's dead-letter queue back into the attempt loop: append a
/// `DlqDrained` record per captured task, clear the fault injection from
/// the configuration, and run the job on from its checkpoint cuts. With the
/// fault gone the result equals the fault-free run bit for bit.
pub fn reprocess_dlq(
    er: &ProgressiveEr,
    ds: &Dataset,
    store: &Arc<dyn JournalStore>,
    job_id: &str,
    opts: &DurableOptions,
) -> Result<ErRunResult, DurableError> {
    redrive(er, ds, store, job_id, opts, true)
}
