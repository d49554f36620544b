//! Durable job execution: journal every lifecycle event, checkpoint on a
//! fixed virtual-cost grid, and resume or reprocess in a *fresh process*.
//!
//! [`run_durable`] runs the pipeline once, start to finish — statistics
//! job, schedule generation, resolution job — appending to the job's
//! [`pper_journal`] log as it goes. The schedule itself is never journaled:
//! `ScheduleGenerated` holds job 1's cost and the schedule's
//! [`digest`](pper_schedule::Schedule::digest). The resolution job then
//! cuts its checkpoints *in-line*:
//! this module installs a [`CutSink`] on the job's one [`Stage`], and every
//! reduce task, as its own clock crosses the `checkpoint_every` grid (and at
//! its last block), hands over a delta — blocks done, clock, and the
//! duplicates found since its previous cut — which is appended as a
//! `CheckpointCut` record before the task moves on. That grid is the one α
//! grid of the pipeline: §III-B's per-task α-incremental result files, made
//! the unit of recovery (see [`crate::job2`], "Durable execution"). Every task
//! completion (with its attempt history) and every attempt-budget
//! exhaustion (as a `DeadLettered` record) is journaled through the
//! runtime's [`TaskObserver`] hook. A healthy run executes each job exactly
//! once and its counters are the uninterrupted run's.
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
//! Every record goes through one writer behind one lock, which appends by
//! the reader's rule, [`JournalState::apply`]: it holds the fold of the log
//! (empty for a fresh run, the recovered one for a resume), skips a record
//! the fold does not take, and folds in each record it appends, so each
//! task's next cut and the next dead-letter `seq` are the fold's. A job id
//! names one run: [`run_durable`] refuses a log that already holds records.
//!
//! [`resume_durable`] reconstructs the run in a fresh process from nothing
//! but the journal (plus the dataset file named in the `JobStarted`
//! parameters). Three parameters are in every journal, and a resume refuses
//! one without them with [`JournalError::BadState`]: `machines`, the machine
//! count the cuts were taken on; `checkpoint_every`, the grid the resumed
//! run keeps cutting on (taken from the journal, not from
//! [`DurableOptions`]); and `dataset`, the entity count and content hash —
//! a resume against another dataset is refused. The schedule is a pure
//! function of the dataset and the parameters, so a resume regenerates it
//! as a fresh run does: it runs the statistics job (unobserved — its
//! records are in the journal) and schedule generation, and appends nothing
//! until the job-1 cost, bit for bit, and the schedule digest equal the
//! journaled ones; a mismatch is [`MrError::Checkpoint`]. One more
//! resolution stage resumes the fold against the regenerated schedule (a
//! task with no cut starts from scratch; with no schedule journaled the run
//! goes on as a fresh one) — still cutting in-line, so a resumed run can be
//! killed and resumed again — to the bit-identical final result: same
//! duplicates, curve, timeline, and total virtual cost as the uninterrupted
//! run. A task's deltas depend only on its own deterministic execution, so
//! the records a retried attempt re-emits are not taken again, and the fold
//! never depends on how the worker threads interleaved their appends.
//!
//! Tasks that exhaust their attempt budget are captured into the journal's
//! dead-letter queue with full failure history; [`reprocess_dlq`] drains
//! them back into the attempt loop.

use std::hash::Hasher;
use std::sync::Arc;

use parking_lot::Mutex;
use pper_datagen::Dataset;
use pper_journal::{
    recover, AttemptFailure, JobJournal, JournalError, JournalEvent, JournalState, JournalStore,
    TaskClass, TaskProgress, MAGIC,
};
use pper_mapreduce::fxhash::FxHasher;
use pper_mapreduce::{MrError, TaskEvent, TaskKind, TaskObserver};
use pper_schedule::DomList;
use serde::{Deserialize, Serialize};

use crate::job1::run_job1;
use crate::job2::{run_job2_stage, CutSink, Stage};
use crate::pipeline::{ErRunResult, ProgressiveEr};

/// Knobs for a durable run.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Virtual-cost spacing of the checkpoint grid on each reduce task's own
    /// clock: a task of the resolution job cuts a checkpoint at the first
    /// block boundary past `every`, `2·every`, ..., and at its last block.
    /// Read by [`run_durable`], which journals it; a resume takes the grid
    /// from the journal.
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

/// The journal writer, shared behind one lock between the durable driver
/// and the callbacks it installs (the task observer and the cut sink).
struct Writer {
    journal: JobJournal,
    /// The fold of the log: recovered, then extended by each append.
    fold: JournalState,
    /// First journal error hit inside a callback (callbacks cannot return
    /// errors through the runtime, so they park them here).
    parked: Option<JournalError>,
    /// Tasks the observer dead-lettered since the stage started, as the
    /// error names them (e.g. `"reduce-0"`).
    dead_lettered: Vec<String>,
}

impl Writer {
    /// Open the job's journal to append behind `fold`, the fold of what it
    /// already holds.
    fn open(
        store: &Arc<dyn JournalStore>,
        job_id: &str,
        opts: &DurableOptions,
        fold: JournalState,
    ) -> Result<Arc<Mutex<Self>>, JournalError> {
        let mut journal = JobJournal::create(Arc::clone(store), job_id)?;
        journal.set_kill_after(opts.kill_after_events);
        Ok(Arc::new(Mutex::new(Self {
            journal,
            fold,
            parked: None,
            dead_lettered: Vec::new(),
        })))
    }

    /// The one append: a record the fold does not take — a cut that is not
    /// next in line, re-emitted by a retried attempt or behind a failed
    /// append — is skipped; any other is appended and, once written, folded
    /// in.
    fn append(&mut self, event: &JournalEvent) -> Result<(), JournalError> {
        if self.fold.takes(event) {
            self.journal.append(event)?;
            self.fold.apply(event);
        }
        Ok(())
    }

    /// [`Writer::append`] from a callback, parking the first failure.
    fn append_or_park(&mut self, event: &JournalEvent) {
        if let Err(e) = self.append(event) {
            self.parked.get_or_insert(e);
        }
    }

    /// [`Writer::append`] from the driver, surfacing a parked failure first.
    fn append_unparked(&mut self, event: &JournalEvent) -> Result<(), JournalError> {
        match self.parked.take() {
            Some(e) => Err(e),
            None => self.append(event),
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

/// A copy of the pipeline whose [`TaskObserver`] journals task lifecycle
/// events: a finished task as `TaskFinished`, an exhausted one as its
/// dead-letter capture.
fn with_observer(er: &ProgressiveEr, writer: &Arc<Mutex<Writer>>) -> ProgressiveEr {
    let shared = Arc::clone(writer);
    let mut er = er.clone();
    er.config.observer = Some(TaskObserver::new(move |ev| {
        let mut writer = shared.lock();
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
                let seq = match writer.fold.capture_seq() {
                    Ok(seq) => seq,
                    Err(used_up) => {
                        writer.parked.get_or_insert(used_up);
                        return;
                    }
                };
                writer.dead_lettered.push(id.to_string());
                JournalEvent::DeadLettered {
                    seq,
                    job: (*job).to_string(),
                    kind: class_of(id.kind),
                    index: id.index as u32,
                    attempts: *attempts,
                    failures: convert_failures(failures),
                }
            }
        };
        writer.append_or_park(&event);
    }));
    er
}

/// Finish a pipeline stage: surface parked journal errors, and when tasks
/// exhausted their budget — the observer has journaled each one's
/// dead-letter capture — sync the captures, since the error names them,
/// before failing.
fn finish_stage<T>(
    writer: &Mutex<Writer>,
    job_id: &str,
    result: Result<T, MrError>,
) -> Result<T, DurableError> {
    let mut writer = writer.lock();
    if let Some(e) = writer.parked.take() {
        return Err(DurableError::Journal(e));
    }
    let tasks = std::mem::take(&mut writer.dead_lettered);
    match result {
        Ok(v) => Ok(v),
        Err(err) if tasks.is_empty() => Err(DurableError::Run(err)),
        Err(_) => {
            writer.journal.sync()?;
            Err(DurableError::DeadLettered {
                job_id: job_id.to_string(),
                tasks,
            })
        }
    }
}

/// What a resume starts the resolution job from: the job-1 cost and
/// schedule digest the regenerated ones must equal, and the journal's fold
/// of each task's checkpoint cuts.
struct Resume<'s> {
    job1_cost: f64,
    digest: u64,
    tasks: &'s [TaskProgress],
}

/// The [`Resume`] a job's journal holds, or `None` before the schedule was
/// journaled — there is nothing to resume yet. The cuts are tied to the
/// machine count `cut_on` that the `JobStarted` parameters record (the wave
/// layout decides the global timeline): a resume configured for another one
/// is refused.
fn journaled_resume<'s>(
    state: &'s JournalState,
    cut_on: &str,
    machines: usize,
) -> Result<Option<Resume<'s>>, MrError> {
    let Some((job1_cost, digest)) = state.schedule else {
        return Ok(None);
    };
    let cut_on: usize = cut_on.parse().map_err(|_| {
        MrError::Checkpoint(format!("journaled machines '{cut_on}' is not a count"))
    })?;
    if cut_on != machines {
        return Err(MrError::Checkpoint(format!(
            "checkpoint was cut on {cut_on} machines but resume is configured for {machines}"
        )));
    }
    Ok(Some(Resume {
        job1_cost,
        digest,
        tasks: &state.tasks,
    }))
}

/// Drive the pipeline to completion, journaling as it goes. `first` opens
/// this process's stretch of the log (`JobStarted`, or the `DlqDrained`
/// records of a reprocess), ahead of the first record a stage appends.
///
/// `resume` is what the journal holds to resume from; `None` runs as a
/// fresh run does. The `er` passed here must already have the journaling
/// observer installed.
///
/// Once a durable entry point has a journal to append to, every exit is
/// this function's, and it syncs on all of them: a result, and an error a
/// caller may act on by resuming, is reported only once the records it
/// rests on are on disk.
fn drive(
    er: &ProgressiveEr,
    ds: &Dataset,
    job_id: &str,
    writer: &Mutex<Writer>,
    every: f64,
    first: &[JournalEvent],
    resume: Option<Resume<'_>>,
) -> Result<ErRunResult, DurableError> {
    let outcome = run_jobs(er, ds, job_id, writer, every, first, resume);
    let synced = writer.lock().journal.sync();
    outcome.and_then(|result| synced.map(|()| result).map_err(DurableError::Journal))
}

fn run_jobs(
    er: &ProgressiveEr,
    ds: &Dataset,
    job_id: &str,
    writer: &Mutex<Writer>,
    every: f64,
    first: &[JournalEvent],
    resume: Option<Resume<'_>>,
) -> Result<ErRunResult, DurableError> {
    let config = &er.config;
    let append = |event: &JournalEvent| writer.lock().append_unparked(event);
    let open = || first.iter().try_for_each(append);

    // ---- Statistics job and schedule generation, as on a fresh run ------
    // A resume's job 1 is journaled already, so it runs unobserved, and
    // the process appends nothing until its schedule is the one the cuts
    // were taken against.
    let job1 = match &resume {
        None => {
            open()?;
            finish_stage(writer, job_id, run_job1(ds, config))?
        }
        Some(_) => {
            let mut unobserved = config.clone();
            unobserved.observer = None;
            run_job1(ds, &unobserved)?
        }
    };
    let schedule = er.generate_schedule(ds, &job1.stats);
    let (job1_cost, digest) = (job1.virtual_cost, schedule.digest());
    match &resume {
        None => {
            let task_blocks = schedule.block_order.iter().map(|b| b.len() as u64);
            append(&JournalEvent::ScheduleGenerated {
                job1_cost,
                task_blocks: task_blocks.collect(),
                digest,
            })?;
            // One barrier for everything up to here: the cuts that follow
            // are deltas against this schedule.
            writer.lock().journal.sync()?;
        }
        Some(r) if (r.job1_cost.to_bits(), r.digest) == (job1_cost.to_bits(), digest) => open()?,
        Some(r) => {
            return Err(MrError::Checkpoint(format!(
                "the journal holds job 1 at {} and schedule {:016x}; this run generated \
                 job 1 at {job1_cost} and schedule {digest:016x}",
                r.job1_cost, r.digest
            ))
            .into())
        }
    }

    // ---- Resolution job: one pass, cutting checkpoints in-line ---------
    let emit = |event| writer.lock().append_or_park(&event);
    let sink = CutSink { every, emit: &emit };
    let stage = Stage {
        resume: resume.as_ref().map(|resume| resume.tasks),
        cuts: Some(&sink),
        observer: None,
    };
    let outcome = run_job2_stage(ds, config, &schedule, stage);
    let job2 = finish_stage(writer, job_id, outcome)?;
    let result = er.assemble(ds, job2, job1_cost, job1.counters);

    let mut entries: Vec<(String, u64)> = result
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    entries.sort();
    append(&JournalEvent::CountersSnapshot { entries })?;
    append(&JournalEvent::JobFinished {
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

/// Run the pipeline durably: journal every lifecycle event to `store`
/// under `job_id`, checkpoint the resolution job on the
/// [`DurableOptions::checkpoint_every`] grid, and return the final result —
/// bit-identical (as a [`ResultFingerprint`]), counters included, to an
/// uninterrupted [`ProgressiveEr::try_run`].
///
/// `params` is recorded verbatim in the `JobStarted` event, followed by
/// `machines`, `checkpoint_every` and `dataset` entries written from the
/// configuration, `opts` and `ds`, giving a fresh process everything it
/// needs to rebuild the configuration for [`resume_durable`] and to check
/// it was handed the same dataset.
///
/// # Errors
///
/// A `params` entry under one of those three keys, and a configuration with
/// more blocking families than a dominance list holds, are refused
/// ([`MrError::InvalidConfig`]) before the journal is created, as is a
/// cluster with no machines ([`MrError::InvalidCluster`]). A log of another
/// format version is refused with [`JournalError::UnsupportedVersion`], and
/// a log that holds any byte past its header with
/// [`JournalError::BadState`], before anything is appended: a job id names
/// one run, which only [`resume_durable`] and [`reprocess_dlq`] continue.
pub fn run_durable(
    er: &ProgressiveEr,
    ds: &Dataset,
    store: &Arc<dyn JournalStore>,
    job_id: &str,
    params: &[(String, String)],
    opts: &DurableOptions,
) -> Result<ErRunResult, DurableError> {
    check_every(opts.checkpoint_every)?;
    // What a resume checks. Rust's float Display is shortest-round-trip, so
    // the grid spacing survives the string trip exactly.
    let checked = [
        ("machines", er.config.machines.to_string()),
        ("checkpoint_every", format!("{}", opts.checkpoint_every)),
        ("dataset", dataset_digest(ds)),
    ];
    if let Some((key, _)) = params
        .iter()
        .find(|(k, _)| checked.iter().any(|c| c.0 == k))
    {
        return Err(MrError::InvalidConfig(format!(
            "parameter '{key}' is written by run_durable, not by its caller"
        ))
        .into());
    }
    DomList::check_capacity(er.config.families.len())?;
    er.config.cluster().check(job_id)?;
    let writer = Writer::open(store, job_id, opts, JournalState::default())?;
    if store.read(job_id)?.len() > MAGIC.len() {
        return Err(JournalError::BadState(format!(
            "job '{job_id}' already has a journal: a job id names one run, which only a \
             resume or a dead-letter reprocess continues"
        ))
        .into());
    }
    let er = with_observer(er, &writer);
    let own = checked.map(|(key, value)| (key.to_string(), value));
    let started = JournalEvent::JobStarted {
        job_id: job_id.to_string(),
        params: params.iter().cloned().chain(own).collect(),
    };
    let every = opts.checkpoint_every;
    drive(&er, ds, job_id, &writer, every, &[started], None)
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
    let rec = recover(store, job_id)?;
    if !rec.report.clean() {
        // So new records never land behind garbage.
        store.truncate_log(job_id, rec.report.valid_bytes)?;
    }
    let state = JournalState::replay(&rec.events);
    let bad_state = |why: String| DurableError::Journal(JournalError::BadState(why));
    if state.job_id.is_none() {
        return Err(bad_state(format!(
            "job '{job_id}' has no job-started record to resume from"
        )));
    }
    if drain_dlq && state.dlq.is_empty() {
        return Err(bad_state(format!(
            "job '{job_id}' has no dead-lettered tasks to reprocess"
        )));
    }
    let param = |key: &str| {
        let missing = || bad_state(format!("job '{job_id}' has no '{key}' parameter"));
        state.param(key).ok_or_else(missing)
    };
    let (cut_on, every, journaled) = (
        param("machines")?,
        param("checkpoint_every")?,
        param("dataset")?,
    );
    let given = dataset_digest(ds);
    if journaled != given {
        return Err(bad_state(format!(
            "job '{job_id}' was journaled against a dataset of {journaled}, \
             but was handed one of {given}"
        )));
    }
    let every = every.parse::<f64>().map_err(|_| {
        bad_state(format!(
            "journaled checkpoint_every '{every}' is not a number"
        ))
    })?;
    check_every(every)?;
    DomList::check_capacity(er.config.families.len())?;
    let resume = journaled_resume(&state, cut_on, er.config.machines)?;
    let writer = Writer::open(store, job_id, opts, state.clone())?;
    let mut er = with_observer(er, &writer);
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
    drive(&er, ds, job_id, &writer, every, &drained, resume)
}

/// Resume a durable job in a fresh process from nothing but its journal
/// (and the dataset): the statistics job and schedule generation re-run,
/// and once the schedule matches the journaled digest every reduce task of
/// the resolution job picks up at its own latest checkpoint cut (if the
/// kill landed before the schedule was journaled, the run goes on as a
/// fresh one). The final result is bit-identical to the uninterrupted run;
/// the resumed run keeps cutting checkpoints and can itself be killed and
/// resumed.
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
