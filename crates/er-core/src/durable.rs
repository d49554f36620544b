//! Durable job execution: journal every lifecycle event, checkpoint on a
//! fixed virtual-cost grid, and resume or reprocess in a *fresh process*
//! (DESIGN.md, "Durable job journal").
//!
//! [`run_durable`] runs the pipeline once — statistics job, schedule
//! generation, resolution job — appending to the job's [`pper_journal`]
//! log as it goes. `ScheduleGenerated` holds job 1's cost and the
//! schedule's [`digest`](pper_schedule::Schedule::digest), never the
//! schedule. Through the [`CutSink`] on its one [`Stage`], every reduce
//! task of the resolution job appends a `CheckpointCut` delta (blocks done,
//! clock, the duplicates found since its previous cut) each time its own
//! clock crosses the `checkpoint_every` grid, and at its last block:
//! §III-B's per-task α-incremental result files, made the unit of recovery.
//! Task completions and dead-letter captures are journaled through the
//! runtime's [`TaskObserver`] hook. [`JobJournal`] syncs by itself once a
//! byte budget has accumulated; this module adds a barrier behind
//! `ScheduleGenerated`, before a dead-letter capture is reported, and on
//! every return of an entry point. A failed sync is never retried.
//!
//! One read per process: [`run_durable`] starts the log
//! ([`JobJournal::start`] refuses one that holds records — a job id names
//! one run); the caller of [`resume_durable`] or [`reprocess_dlq`] reopens
//! it ([`JobJournal::reopen`] folds it and cuts a torn tail off) and moves
//! the [`Reopened`] value in. Every record goes through one writer behind
//! one lock that appends by the reader's rule, [`JournalState::apply`]: it
//! holds the fold (whose recovered duplicates move into the resumed stage),
//! skips a record the fold does not take, and folds in each one it appends.
//! A finished job's fold takes nothing, so its resume appends nothing.
//!
//! A resume refuses, with [`JournalError::BadState`], a journal without
//! `machines`, `checkpoint_every` or `dataset`, or journaled against
//! another dataset. It re-runs job 1 (unobserved) and schedule generation,
//! appends nothing until job 1's cost and the schedule digest equal the
//! journaled ones ([`MrError::Checkpoint`] otherwise), and resumes every
//! task from its cuts, still cutting, to the bit-identical result. A
//! task's deltas depend only on its own deterministic execution, so a
//! retried attempt's are not taken again and the thread interleaving never
//! shows. [`reprocess_dlq`] drains the dead-letter queue back into the
//! attempt loop.

use std::hash::Hasher;
use std::sync::Arc;

use parking_lot::Mutex;
use pper_datagen::Dataset;
use pper_journal::{
    AttemptFailure, JobJournal, JournalError, JournalEvent, JournalState, JournalStore, Reopened,
    TaskClass, TaskProgress,
};
use pper_mapreduce::fxhash::FxHasher;
use pper_mapreduce::{MrError, TaskEvent, TaskKind, TaskObserver};
use pper_schedule::DomList;
use serde::{Deserialize, Serialize};

use crate::job1::run_job1;
use crate::job2::{check_faults, check_grid, run_job2_stage, CutSink, Stage};
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
    /// The fold of the log: reopened, then extended by each append.
    fold: JournalState,
    /// First journal error hit inside a callback (callbacks cannot return
    /// errors through the runtime, so they park them here).
    parked: Option<JournalError>,
    /// Tasks the observer dead-lettered since the stage started, as the
    /// error names them (e.g. `"reduce-0"`).
    dead_lettered: Vec<String>,
}

impl Writer {
    /// Append to the opened `journal` behind `fold`, the fold of what it
    /// already holds, killing the process after the `kill`-th append.
    fn open(mut journal: JobJournal, kill: Option<u64>, fold: JournalState) -> Arc<Mutex<Self>> {
        journal.set_kill_after(kill);
        Arc::new(Mutex::new(Self {
            journal,
            fold,
            parked: None,
            dead_lettered: Vec::new(),
        }))
    }

    /// The one append: a record the fold does not take — a cut not next in
    /// line, re-emitted by a retried attempt or behind a failed append, or
    /// any record of a finished job — is skipped; any other is appended and
    /// folded in once written.
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

/// What a resume starts the resolution job from, once the journal holds a
/// schedule: the job-1 cost and schedule digest the regenerated ones must
/// equal, and the journal's fold of each task's checkpoint cuts.
struct Resume {
    job1_cost: f64,
    digest: u64,
    tasks: Vec<TaskProgress>,
}

/// Drive the pipeline, with the journaling observer installed in `er`, to
/// completion from `resume` (`None` runs as a fresh run does). `first`
/// opens this process's stretch of the log (`JobStarted`, or a reprocess's
/// `DlqDrained` records) ahead of the first record a stage appends. Every
/// exit of an entry point with a journal is this function's, and it syncs
/// on each: nothing is reported before the records it rests on are on disk.
fn drive(
    er: &ProgressiveEr,
    ds: &Dataset,
    job_id: &str,
    writer: &Mutex<Writer>,
    every: f64,
    first: &[JournalEvent],
    resume: Option<Resume>,
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
    resume: Option<Resume>,
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
        resume: resume.as_ref().map(|resume| resume.tasks.as_slice()),
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
/// ([`MrError::InvalidConfig`]) before the journal is created, as are a
/// grid spacing that is not finite and positive ([`MrError::Checkpoint`]),
/// a cluster with no machines ([`MrError::InvalidCluster`]) and a fault
/// plan the resolution job cannot run ([`MrError::InvalidFaultPlan`]). A log
/// of another format version is refused with
/// [`JournalError::UnsupportedVersion`], and one that holds any byte past
/// its header with [`JournalError::BadState`], before anything is appended:
/// a job id names one run, which only a resume or a reprocess continues.
pub fn run_durable(
    er: &ProgressiveEr,
    ds: &Dataset,
    store: &Arc<dyn JournalStore>,
    job_id: &str,
    params: &[(String, String)],
    opts: &DurableOptions,
) -> Result<ErRunResult, DurableError> {
    check_grid(opts.checkpoint_every)?;
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
    check_faults(ds, &er.config)?;
    let journal = JobJournal::start(Arc::clone(store), job_id)?;
    let writer = Writer::open(journal, opts.kill_after_events, JournalState::default());
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

/// Run the job on from what the reopened journal holds: the body of
/// [`resume_durable`] and, with `drain_dlq`, of [`reprocess_dlq`].
fn redrive(
    er: &ProgressiveEr,
    ds: &Dataset,
    reopened: Reopened,
    opts: &DurableOptions,
    drain_dlq: bool,
) -> Result<ErRunResult, DurableError> {
    let Reopened {
        journal, mut state, ..
    } = reopened;
    let job_id = journal.job_id().to_string();
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
    check_grid(every)?;
    DomList::check_capacity(er.config.families.len())?;
    let cut_on: usize = cut_on.parse().map_err(|_| {
        MrError::Checkpoint(format!("journaled machines '{cut_on}' is not a count"))
    })?;
    let dlq = if drain_dlq { &state.dlq[..] } else { &[] };
    let drained: Vec<_> = dlq
        .iter()
        .map(|e| JournalEvent::DlqDrained { seq: e.seq })
        .collect();
    // Cuts are tied to the machine count they were cut on (the wave layout
    // decides the global timeline). The duplicates move into the resume:
    // the writer's fold takes a cut by its task's count of cuts alone.
    let machines = er.config.machines;
    let resume = match state.schedule {
        None => None,
        Some(_) if cut_on != machines => {
            return Err(MrError::Checkpoint(format!(
                "checkpoint was cut on {cut_on} machines but resume is configured for {machines}"
            ))
            .into())
        }
        Some((job1_cost, digest)) => Some(Resume {
            job1_cost,
            digest,
            tasks: (state.tasks.iter_mut())
                .map(|task| TaskProgress {
                    duplicates: std::mem::take(&mut task.duplicates),
                    ..*task
                })
                .collect(),
        }),
    };
    // The captured tasks re-enter the attempt loop without their fault (the
    // fix a DLQ exists for); a finished job is replayed as it finished, so
    // without faults once a reprocess has finished it.
    let fault_free = drain_dlq || (state.finished.is_some() && state.next_dlq_seq > 0);
    let writer = Writer::open(journal, opts.kill_after_events, state);
    let mut er = with_observer(er, &writer);
    if fault_free {
        er.config.faults = None;
    }
    drive(&er, ds, &job_id, &writer, every, &drained, resume)
}

/// Resume a durable job in a fresh process from nothing but its journal,
/// reopened by the caller ([`JobJournal::reopen`], the process's one read
/// of the log), and the dataset: the statistics job and schedule generation
/// re-run, and once the schedule matches the journaled digest every reduce
/// task of the resolution job picks up at its own latest checkpoint cut (if
/// the kill landed before the schedule was journaled, the run goes on as a
/// fresh one). The final result is bit-identical to the uninterrupted run;
/// the resumed run keeps cutting checkpoints and can itself be killed and
/// resumed. A finished job is answered the same way, replayed from its
/// cuts under the faults of the process that finished it (none after a
/// reprocess), and its log is left as it was. The result's counters are
/// this process's, not the job's.
pub fn resume_durable(
    er: &ProgressiveEr,
    ds: &Dataset,
    reopened: Reopened,
    opts: &DurableOptions,
) -> Result<ErRunResult, DurableError> {
    redrive(er, ds, reopened, opts, false)
}

/// Drain the reopened job's dead-letter queue back into the attempt loop:
/// append a `DlqDrained` record per captured task, clear the fault
/// injection from the configuration, and run the job on from its cuts.
/// With the fault gone the result equals the fault-free run bit for bit.
pub fn reprocess_dlq(
    er: &ProgressiveEr,
    ds: &Dataset,
    reopened: Reopened,
    opts: &DurableOptions,
) -> Result<ErRunResult, DurableError> {
    redrive(er, ds, reopened, opts, true)
}
