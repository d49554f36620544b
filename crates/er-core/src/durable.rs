//! Durable job execution: journal every lifecycle event, checkpoint on a
//! fixed virtual-cost grid, and resume or reprocess in a *fresh process*.
//!
//! The in-process stages of [`ProgressiveEr::run_stage`] prove the
//! determinism story; this module turns the same primitive
//! ([`run_job2_stage`]) into the operational model of a real MapReduce
//! deployment. [`run_durable`] drives the pipeline in *stages*: statistics
//! job, schedule generation, then the resolution job executed as a chain of
//! killed stages on a `checkpoint_every` virtual-cost grid, each cutting a
//! [`Checkpoint`] that is appended to the job's [`pper_journal`] log and
//! then *re-read from the journal by byte offset* before the next cut —
//! the journal record, not process memory, is the checkpoint of record.
//! Every task completion (with its attempt history) and every
//! attempt-budget exhaustion is journaled through the runtime's
//! [`TaskObserver`] hook.
//!
//! [`resume_durable`] reconstructs the run in a fresh process from nothing
//! but the journal (plus the dataset file named in the `JobStarted`
//! parameters): it folds the event stream with [`JournalState`], picks up
//! from the latest checkpoint offset (or re-runs the deterministic early
//! stages if the kill landed before the first cut), and continues the grid
//! to the bit-identical final result — same duplicates, curve, timeline,
//! and total virtual cost as the uninterrupted run.
//!
//! Tasks that exhaust their attempt budget are captured into the journal's
//! dead-letter queue with full failure history and a JSON reprocessing
//! context; [`reprocess_dlq`] drains them back into the attempt loop.

use std::sync::Arc;

use parking_lot::Mutex;
use pper_datagen::Dataset;
use pper_journal::{
    read_event_at, recover, AttemptFailure, JobJournal, JournalError, JournalEvent, JournalState,
    JournalStore, TaskClass,
};
use pper_mapreduce::{Counters, MrError, TaskEvent, TaskKind, TaskObserver};
use serde::{Deserialize, Serialize};

use crate::checkpoint::Checkpoint;
use crate::job1::run_job1;
use crate::job2::{run_job2_stage, Stage, StageOutcome};
use crate::pipeline::{ErRunResult, ProgressiveEr};

/// Knobs for a durable run.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Virtual-cost spacing of the checkpoint grid: the resolution job is
    /// crashed-and-checkpointed at `every`, `2·every`, ... until every
    /// scheduled block is done.
    pub checkpoint_every: f64,
    /// Conformance-harness hook: abort the process (as if `kill -9`) right
    /// after the N-th journal event is durably appended. `None` disables.
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

/// State shared between the durable driver and the observer closure.
struct Shared {
    journal: Mutex<JobJournal>,
    /// First journal I/O error hit inside the observer (the observer
    /// cannot return errors through the runtime, so it parks them here).
    io_error: Mutex<Option<JournalError>>,
    /// Exhausted tasks seen by the observer, drained on stage failure.
    exhausted: Mutex<Vec<ExhaustedTask>>,
    /// Next dead-letter sequence number.
    next_dlq_seq: Mutex<u32>,
}

impl Shared {
    fn new(journal: JobJournal, next_dlq_seq: u32) -> Arc<Self> {
        Arc::new(Self {
            journal: Mutex::new(journal),
            io_error: Mutex::new(None),
            exhausted: Mutex::new(Vec::new()),
            next_dlq_seq: Mutex::new(next_dlq_seq),
        })
    }

    /// Append one event, surfacing any parked observer I/O error first.
    fn append(&self, event: &JournalEvent) -> Result<u64, DurableError> {
        if let Some(e) = self.io_error.lock().take() {
            return Err(DurableError::Journal(e));
        }
        self.journal
            .lock()
            .append(event)
            .map_err(DurableError::Journal)
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
        if let Err(e) = shared.journal.lock().append(&event) {
            let mut slot = shared.io_error.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        }
    })
}

/// The reprocessing context recorded with a dead-lettered task. Field order
/// is the order of the keys in the journaled JSON.
#[derive(Serialize)]
struct DlqContext<'a> {
    stage: &'a str,
    dataset: &'a str,
    task: &'a str,
    crash_at: Option<f64>,
    checkpoint_offset: Option<u64>,
}

/// Finish a pipeline stage: surface parked journal errors, and on task
/// exhaustion capture the observed tasks into the dead-letter queue with a
/// JSON reprocessing context before failing.
fn finish_stage<T>(
    shared: &Shared,
    job_id: &str,
    ds: &Dataset,
    stage: &str,
    crash_at: Option<f64>,
    checkpoint_offset: Option<u64>,
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
                    crash_at,
                    checkpoint_offset,
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
            Err(DurableError::DeadLettered {
                job_id: job_id.to_string(),
                tasks: task_names,
            })
        }
    }
}

/// Re-read the checkpoint cut at journal offset `offset`.
fn read_checkpoint(
    store: &Arc<dyn JournalStore>,
    job_id: &str,
    offset: u64,
) -> Result<Checkpoint, DurableError> {
    match read_event_at(store, job_id, offset)? {
        JournalEvent::CheckpointCut { checkpoint_json } => {
            Ok(Checkpoint::from_json(&checkpoint_json)?)
        }
        other => Err(DurableError::Journal(JournalError::BadState(format!(
            "offset {offset} holds a {} event, expected checkpoint-cut",
            other.name()
        )))),
    }
}

/// Drive the staged pipeline to completion, journaling as it goes.
///
/// `resume_from` carries the journal offset of the checkpoint cut to pick
/// up from and that cut, decoded; `None` starts from the statistics job.
/// The `er` passed here must already have the journaling observer installed.
fn drive(
    er: &ProgressiveEr,
    ds: &Dataset,
    store: &Arc<dyn JournalStore>,
    job_id: &str,
    shared: &Arc<Shared>,
    every: f64,
    resume_from: Option<(u64, Checkpoint)>,
) -> Result<ErRunResult, DurableError> {
    let config = &er.config;
    // `cut` is the journal offset of the latest checkpoint cut and `cp` its
    // decoded record; before the first cut, `cp` is the starting line — the
    // schedule, nothing resolved, threshold zero — and is not resumable.
    let (job1_counters, mut cp, mut cut) = match resume_from {
        Some((offset, cp)) => (Counters::new(), cp, Some(offset)),
        None => {
            // ---- Stage: statistics job --------------------------------
            let job1 = finish_stage(
                shared,
                job_id,
                ds,
                "job1-blocking",
                None,
                None,
                run_job1(ds, config),
            )?;
            shared.append(&JournalEvent::Job1Finished {
                virtual_cost: job1.virtual_cost,
            })?;

            // ---- Stage: schedule generation ---------------------------
            let schedule = er.generate_schedule(ds, &job1.stats);
            let total_blocks: u64 = schedule.block_order.iter().map(|b| b.len() as u64).sum();
            shared.append(&JournalEvent::ScheduleGenerated {
                num_tasks: schedule.num_tasks as u32,
                total_blocks,
            })?;
            let start = Checkpoint {
                schedule,
                job1_cost: job1.virtual_cost,
                crash_at: 0.0,
                machines: config.machines,
                tasks: Vec::new(),
            };
            (job1.counters, start, None)
        }
    };

    // ---- Resolution job: cut on the grid until no block remains, then ---
    // ---- replay the completed checkpoint into the result ---------------
    let job2 = loop {
        let next_cut = cp.crash_at + every;
        let stage = Stage {
            resume: cut.map(|_| &cp),
            crash_at: (cut.is_none() || cp.blocks_remaining() > 0).then_some(next_cut),
        };
        let outcome = finish_stage(
            shared,
            job_id,
            ds,
            match (stage.crash_at, stage.resume) {
                (None, _) => "job2-final",
                (Some(_), None) => "job2-crash",
                (Some(_), Some(_)) => "job2-resume-crash",
            },
            stage.crash_at,
            cut,
            run_job2_stage(ds, config, &cp.schedule, stage),
        )?;
        match outcome {
            StageOutcome::Finished(job2) => break job2,
            StageOutcome::Checkpoints(tasks) => {
                cp.crash_at = next_cut;
                cp.tasks = tasks;
                let offset = shared.append(&JournalEvent::CheckpointCut {
                    checkpoint_json: cp.to_json()?,
                })?;
                cut = Some(offset);
                if cp.blocks_remaining() > 0 {
                    // The journal record — not the in-memory value — is the
                    // checkpoint of record: dereference the offset and cut
                    // the next stage from what a fresh process would see.
                    cp = read_checkpoint(store, job_id, offset)?;
                }
            }
        }
    };
    let result = er.assemble(ds, job2, cp.job1_cost, job1_counters);

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
/// bit-identical (as a [`ResultFingerprint`]) to an uninterrupted
/// [`ProgressiveEr::try_run`].
///
/// `params` is recorded verbatim in the `JobStarted` event (plus a
/// `checkpoint_every` entry if absent), giving a fresh process everything
/// it needs to rebuild the configuration for [`resume_durable`].
///
/// Counters follow the crash/resume convention of
/// [`ProgressiveEr::run_stage`]: they count work the final stage actually
/// executed, not work replayed from checkpoints, so a staged run reports
/// far fewer comparisons than [`ProgressiveEr::try_run`] even though the
/// result fingerprint is bit-identical.
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
    if !all_params.iter().any(|(k, _)| k == "checkpoint_every") {
        // Rust's float Display is shortest-round-trip, so the grid spacing
        // survives the string trip exactly.
        all_params.push((
            "checkpoint_every".into(),
            format!("{}", opts.checkpoint_every),
        ));
    }
    shared.append(&JournalEvent::JobStarted {
        job_id: job_id.to_string(),
        params: all_params,
    })?;
    drive(&er, ds, store, job_id, &shared, opts.checkpoint_every, None)
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

/// Resume a durable job in a fresh process from nothing but its journal
/// (and the dataset): continue from the latest checkpoint offset, or — if
/// the kill landed before the first cut — re-run the deterministic early
/// stages. The final result is bit-identical to the uninterrupted run.
pub fn resume_durable(
    er: &ProgressiveEr,
    ds: &Dataset,
    store: &Arc<dyn JournalStore>,
    job_id: &str,
    opts: &DurableOptions,
) -> Result<ErRunResult, DurableError> {
    let state = recover_state(store, job_id)?;
    if state.job_id.is_none() {
        return Err(DurableError::Journal(JournalError::BadState(format!(
            "journal for '{job_id}' has no job-started record to resume from"
        ))));
    }
    let every = grid_spacing(&state, opts)?;
    let mut journal = JobJournal::create(Arc::clone(store), job_id)?;
    journal.set_kill_after(opts.kill_after_events);
    let shared = Shared::new(journal, state.next_dlq_seq);
    let er = with_observer(er, &shared);
    let resume_from = match &state.last_checkpoint {
        Some((offset, json)) => Some((*offset, Checkpoint::from_json(json)?)),
        None => None,
    };
    drive(&er, ds, store, job_id, &shared, every, resume_from)
}

/// Drain the job's dead-letter queue back into the attempt loop: append a
/// `DlqDrained` record per captured task, clear the fault injection from
/// the configuration, and re-drive the job to completion. With the fault
/// gone the result equals the fault-free run bit for bit.
pub fn reprocess_dlq(
    er: &ProgressiveEr,
    ds: &Dataset,
    store: &Arc<dyn JournalStore>,
    job_id: &str,
    opts: &DurableOptions,
) -> Result<ErRunResult, DurableError> {
    let state = recover_state(store, job_id)?;
    if state.job_id.is_none() {
        return Err(DurableError::Journal(JournalError::BadState(format!(
            "journal for '{job_id}' has no job-started record"
        ))));
    }
    if state.dlq.is_empty() {
        return Err(DurableError::Journal(JournalError::BadState(format!(
            "job '{job_id}' has no dead-lettered tasks to reprocess"
        ))));
    }
    let every = grid_spacing(&state, opts)?;
    let mut journal = JobJournal::create(Arc::clone(store), job_id)?;
    journal.set_kill_after(opts.kill_after_events);
    let shared = Shared::new(journal, state.next_dlq_seq);
    let mut er = with_observer(er, &shared);
    // The captured tasks re-enter the attempt loop without the fault that
    // killed them (the operational fix a DLQ exists for).
    er.config.faults = None;
    for entry in &state.dlq {
        shared.append(&JournalEvent::DlqDrained { seq: entry.seq })?;
    }
    let resume_from = match &state.last_checkpoint {
        Some((offset, json)) => Some((*offset, Checkpoint::from_json(json)?)),
        None => None,
    };
    drive(&er, ds, store, job_id, &shared, every, resume_from)
}
