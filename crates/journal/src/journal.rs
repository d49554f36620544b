//! The per-job journal writer, recovery, and the replayed job state.
//!
//! [`JobJournal`] is the write side: it frames and appends events through a
//! [`JournalStore`] and owns the one sync policy. An appended record is
//! *written* — a killed process loses nothing past the record it was
//! writing — and it is *acknowledged* only once a sync has covered it:
//! [`JobJournal::append`] syncs by itself whenever 128 KiB (`SYNC_BUDGET`)
//! have gone unsynced, and the runner calls [`JobJournal::sync`] before it
//! reports anything that rests on the records. A machine crash can
//! therefore lose at most one budget of records, as a torn or garbage tail
//! behind a valid prefix. [`recover`] is the read side: it parses the
//! longest valid record prefix (tolerating that tail) and decodes it to
//! `(offset, event)` pairs.
//! [`JournalState`] folds that stream into "where was this job" — enough
//! for a fresh process to reconstruct the run and continue (the job-1 cost
//! and schedule digest a regenerated schedule must match, and per reduce
//! task the fold of its checkpoint-cut deltas), and the source of the job's
//! live dead-letter queue. [`JournalState::apply`] is the one rule of that
//! fold, for the reader's [`JournalState::replay`] and the durable writer.

use std::sync::Arc;

use crate::event::JournalEvent;
use crate::frame::{self, RecoveryReport, MAGIC};
use crate::store::JournalStore;
use crate::JournalError;

/// Unsynced bytes at which [`JobJournal::append`] syncs on its own. A
/// checkpoint cut carries the duplicates found since the task's previous cut
/// (16 bytes each, behind a 37-byte record), so journal bytes grow with
/// results, not with pairs compared: a byte budget keeps the syncs — and
/// what a machine crash can cost in re-execution — proportional to what a
/// run has found at any dataset size, where a record count would not (a
/// cut runs from ~40 bytes to a few KiB, a `TaskFinished` is ~60 bytes).
/// 128 KiB is a few thousand duplicates: large enough that the disk barrier
/// stops dominating the append path, small enough that the re-executed tail
/// is a few percent of a run.
const SYNC_BUDGET: u64 = 128 << 10;

/// Append-side handle for one job's journal.
pub struct JobJournal {
    store: Arc<dyn JournalStore>,
    job_id: String,
    events_appended: u64,
    kill_after: Option<u64>,
    /// Bytes appended since the last successful sync.
    unsynced: u64,
    /// The failed sync that closed this handle, if any.
    sync_failed: Option<JournalError>,
}

impl std::fmt::Debug for JobJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobJournal")
            .field("job_id", &self.job_id)
            .field("events_appended", &self.events_appended)
            .field("kill_after", &self.kill_after)
            .finish()
    }
}

impl JobJournal {
    /// Open (creating if absent) the journal for `job_id`.
    ///
    /// A brand-new journal gets the magic header written and synced before
    /// this returns; an existing one has its header validated so appending
    /// to a foreign, corrupt or other-version file fails fast.
    pub fn create(store: Arc<dyn JournalStore>, job_id: &str) -> Result<Self, JournalError> {
        match store.read(job_id) {
            Ok(bytes) if !bytes.is_empty() => frame::check_header(&bytes)?,
            Ok(_) | Err(JournalError::NotFound(_)) => {
                store.append(job_id, &MAGIC)?;
                store.sync(job_id)?;
            }
            Err(e) => return Err(e),
        }
        Ok(Self {
            store,
            job_id: job_id.to_string(),
            events_appended: 0,
            kill_after: None,
            unsynced: 0,
            sync_failed: None,
        })
    }

    /// Conformance-harness hook: once the `n`-th event is appended, the log
    /// is synced and the process aborts as if killed. `None` disables.
    ///
    /// Aborting *after* a sync is the strictest kill point: the event is
    /// durable, nothing after it is, and resume must pick up exactly there.
    pub fn set_kill_after(&mut self, n: Option<u64>) {
        self.kill_after = n;
    }

    /// Frame and append one event; returns the byte offset of the record's
    /// frame header. The record is written, not yet acknowledged: it is
    /// covered by the next sync — this call's own once `SYNC_BUDGET` bytes
    /// have accumulated, or the caller's [`JobJournal::sync`].
    pub fn append(&mut self, event: &JournalEvent) -> Result<u64, JournalError> {
        self.check_open()?;
        let payload = event.encode();
        let mut framed = Vec::with_capacity(frame::FRAME_HEADER + payload.len());
        frame::write_frame(&mut framed, &payload);
        let offset = self.store.append(&self.job_id, &framed)?;
        self.events_appended += 1;
        self.unsynced += frame::off_u64(framed.len());
        let kill = self.kill_after.is_some_and(|n| self.events_appended >= n);
        if kill || self.unsynced >= SYNC_BUDGET {
            self.sync()?;
        }
        if kill {
            // Simulated `kill -9` for the kill-point conformance suite:
            // no unwinding, no destructors, no further writes.
            std::process::abort();
        }
        Ok(offset)
    }

    /// Force every appended record to stable storage: on `Ok`, all of them
    /// are acknowledged. Call it before reporting anything that rests on
    /// the records.
    ///
    /// A failed sync closes the handle: this call and every later `append`
    /// and `sync` return the same error. It is never retried, because the
    /// kernel may drop the dirty pages of a failed `fsync` and report the
    /// next one clean — success then would acknowledge records that are not
    /// on disk. The log itself stays a valid prefix for a later resume.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.check_open()?;
        if self.unsynced > 0 {
            if let Err(e) = self.store.sync(&self.job_id) {
                self.sync_failed = Some(e.clone());
                return Err(e);
            }
            self.unsynced = 0;
        }
        Ok(())
    }

    fn check_open(&self) -> Result<(), JournalError> {
        match &self.sync_failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }
}

/// Result of [`recover`]: the decoded event stream plus what the frame
/// layer had to drop to get there.
#[derive(Debug)]
pub struct RecoveredJournal {
    /// `(byte offset of the record, event)` in append order.
    pub events: Vec<(u64, JournalEvent)>,
    /// Torn-tail / corruption report from the frame layer.
    pub report: RecoveryReport,
}

/// Read and decode a job's journal, recovering the longest valid prefix.
///
/// A record whose checksum matches but whose payload fails to decode stops
/// the prefix there (marked corrupt) rather than erroring: recovery always
/// yields every event that is certainly good.
pub fn recover(
    store: &Arc<dyn JournalStore>,
    job_id: &str,
) -> Result<RecoveredJournal, JournalError> {
    let bytes = store.read(job_id)?;
    let (frames, mut report) = frame::read_frames(&bytes)?;
    let mut events = Vec::with_capacity(frames.len());
    for (offset, payload) in frames {
        match JournalEvent::decode(payload) {
            Ok(ev) => events.push((offset, ev)),
            Err(_) => {
                // Checksummed but undecodable: schema damage. Keep the
                // prefix before it, report everything from here as dropped.
                report.corrupt = true;
                report.dropped_bytes += report.valid_bytes - offset;
                report.valid_bytes = offset;
                break;
            }
        }
    }
    Ok(RecoveredJournal { events, report })
}

/// One task sitting in the dead-letter queue.
#[derive(Debug, Clone, PartialEq)]
pub struct DlqEntry {
    /// Sequence number assigned at capture (stable across drains).
    pub seq: u32,
    /// Name of the MR job the task belonged to.
    pub job: String,
    /// Map or reduce side.
    pub kind: crate::event::TaskClass,
    /// Task index within its phase.
    pub index: u32,
    /// Attempts the task consumed before exhausting its budget.
    pub attempts: u32,
    /// Rendered failure history, one entry per dead attempt.
    pub failures: Vec<crate::event::AttemptFailure>,
}

/// What the journal holds of one reduce task of the resolution job: the
/// fold of the task's `CheckpointCut` records in `seq` order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskProgress {
    /// Blocks the schedule assigns to the task.
    pub blocks: u64,
    /// Records folded — the `seq` the task's next record carries.
    pub cuts: u32,
    /// Watermark of the latest cut (0 before the first).
    pub blocks_done: u64,
    /// The task's virtual clock at that watermark.
    pub clock: f64,
    /// Every duplicate found up to the watermark as `(task-local cost, a,
    /// b)`, in discovery order.
    pub duplicates: Vec<(f64, u32, u32)>,
}

/// The fold of a job's event stream: everything a fresh process needs to
/// know to list, resume, or reprocess the job.
#[derive(Debug, Clone, Default)]
pub struct JournalState {
    /// Job id from `JobStarted` (None if the log predates it — unresumable).
    pub job_id: Option<String>,
    /// Configuration key/value pairs from `JobStarted`.
    pub params: Vec<(String, String)>,
    /// `(job-1 cost, schedule digest)` from `ScheduleGenerated`, once the
    /// schedule was generated.
    pub schedule: Option<(f64, u64)>,
    /// Per reduce task of the resolution job (empty until the schedule was
    /// generated): the fold of its checkpoint cuts.
    pub tasks: Vec<TaskProgress>,
    /// `(duplicates, total_cost)` once the job finished.
    pub finished: Option<(u64, f64)>,
    /// Count of `TaskFinished` events seen.
    pub tasks_finished: u64,
    /// Latest counters snapshot, if any.
    pub counters: Vec<(String, u64)>,
    /// Live dead-letter queue: captured minus drained.
    pub dlq: Vec<DlqEntry>,
    /// Next dead-letter sequence number to assign: one past the largest
    /// journaled, so `u32::MAX + 1` once a capture took the last `u32` — a
    /// journal is outside input, and [`JournalState::capture_seq`] refuses
    /// that value with [`JournalError::BadState`] rather than wrap.
    pub next_dlq_seq: u64,
}

impl JournalState {
    /// Fold an event stream (as produced by [`recover`]) into a state.
    pub fn replay(events: &[(u64, JournalEvent)]) -> Self {
        let mut st = Self::default();
        for (_, event) in events {
            st.apply(event);
        }
        st
    }

    /// Whether [`JournalState::apply`] folds `event` in: all but a
    /// `CheckpointCut` not next in line for its task (a repeat, a gap, an
    /// unknown task), which carries nothing the deterministic re-execution
    /// will not produce again.
    pub fn takes(&self, event: &JournalEvent) -> bool {
        match event {
            JournalEvent::CheckpointCut { task, seq, .. } => usize::try_from(*task)
                .ok()
                .and_then(|task| self.tasks.get(task))
                .is_some_and(|progress| progress.cuts == *seq),
            _ => true,
        }
    }

    /// Fold one event in; false, leaving the state as it was, for one it
    /// does not [take](JournalState::takes).
    pub fn apply(&mut self, event: &JournalEvent) -> bool {
        if !self.takes(event) {
            return false;
        }
        match event {
            JournalEvent::JobStarted { job_id, params } => {
                self.job_id = Some(job_id.clone());
                self.params = params.clone();
            }
            JournalEvent::ScheduleGenerated {
                job1_cost,
                task_blocks,
                digest,
            } => {
                // Watermarks index into the schedule they were cut against:
                // a new schedule starts every task over.
                self.schedule = Some((*job1_cost, *digest));
                self.tasks = task_blocks
                    .iter()
                    .map(|&blocks| TaskProgress {
                        blocks,
                        ..TaskProgress::default()
                    })
                    .collect();
            }
            JournalEvent::TaskFinished { .. } => self.tasks_finished += 1,
            JournalEvent::CheckpointCut {
                task,
                blocks_done,
                clock,
                duplicates,
                ..
            } => {
                let progress = usize::try_from(*task)
                    .ok()
                    .and_then(|task| self.tasks.get_mut(task));
                if let Some(progress) = progress {
                    progress.cuts += 1;
                    progress.blocks_done = *blocks_done;
                    progress.clock = *clock;
                    progress.duplicates.extend_from_slice(duplicates);
                }
            }
            JournalEvent::CountersSnapshot { entries } => {
                self.counters = entries.clone();
            }
            JournalEvent::DeadLettered {
                seq,
                job,
                kind,
                index,
                attempts,
                failures,
            } => {
                self.dlq.push(DlqEntry {
                    seq: *seq,
                    job: job.clone(),
                    kind: *kind,
                    index: *index,
                    attempts: *attempts,
                    failures: failures.clone(),
                });
                self.next_dlq_seq = self.next_dlq_seq.max(u64::from(*seq) + 1);
            }
            JournalEvent::DlqDrained { seq } => {
                self.dlq.retain(|e| e.seq != *seq);
            }
            JournalEvent::JobFinished {
                duplicates,
                total_cost,
            } => self.finished = Some((*duplicates, *total_cost)),
        }
        true
    }

    /// The `seq` the job's next dead-letter capture carries, or
    /// [`JournalError::BadState`] once a capture has taken the last `u32`.
    pub fn capture_seq(&self) -> Result<u32, JournalError> {
        u32::try_from(self.next_dlq_seq).map_err(|_| {
            JournalError::BadState("the job has used every dead-letter sequence number".into())
        })
    }

    /// How far the checkpoint cuts reach over all reduce tasks, as the one
    /// line `pper resume` and `pper jobs` print.
    pub fn progress(&self) -> String {
        let sum = |of: fn(&TaskProgress) -> u64| self.tasks.iter().map(of).sum::<u64>();
        format!(
            "{} of {} blocks and {} duplicates checkpointed across {} tasks, furthest clock {:.0}",
            sum(|task| task.blocks_done),
            sum(|task| task.blocks),
            sum(|task| frame::off_u64(task.duplicates.len())),
            self.tasks.len(),
            self.tasks.iter().map(|t| t.clock).fold(0.0, f64::max)
        )
    }

    /// Look up a `JobStarted` configuration parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AttemptFailure, TaskClass};
    use crate::store::MemStore;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn mem() -> Arc<dyn JournalStore> {
        MemStore::shared()
    }

    #[test]
    fn append_recover_round_trip() {
        let store = mem();
        let mut j = JobJournal::create(Arc::clone(&store), "rt").unwrap();
        let ev1 = JournalEvent::JobStarted {
            job_id: "rt".into(),
            params: vec![("machines".into(), "2".into())],
        };
        let ev2 = JournalEvent::ScheduleGenerated {
            job1_cost: 17.5,
            task_blocks: vec![3, 4],
            digest: 99,
        };
        let off1 = j.append(&ev1).unwrap();
        let off2 = j.append(&ev2).unwrap();
        assert_eq!(off1, MAGIC.len() as u64);
        assert!(off2 > off1);
        let rec = recover(&store, "rt").unwrap();
        assert!(rec.report.clean());
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.events[0], (off1, ev1));
        assert_eq!(rec.events[1], (off2, ev2));
    }

    /// A `MemStore` that counts its syncs and fails the one numbered
    /// `fail_at` — once: a retry would go through.
    struct CountingStore {
        inner: MemStore,
        syncs: AtomicU64,
        fail_at: u64,
    }

    impl CountingStore {
        fn syncs(&self) -> u64 {
            self.syncs.load(Ordering::SeqCst)
        }
    }

    impl JournalStore for CountingStore {
        fn append(&self, job: &str, bytes: &[u8]) -> Result<u64, JournalError> {
            self.inner.append(job, bytes)
        }
        fn read(&self, job: &str) -> Result<Vec<u8>, JournalError> {
            self.inner.read(job)
        }
        fn sync(&self, _job: &str) -> Result<(), JournalError> {
            let n = self.syncs.fetch_add(1, Ordering::SeqCst);
            if n == self.fail_at {
                return Err(JournalError::Store("sync failed".into()));
            }
            Ok(())
        }
        fn truncate_log(&self, job: &str, len: u64) -> Result<(), JournalError> {
            self.inner.truncate_log(job, len)
        }
        fn list_jobs(&self) -> Result<Vec<String>, JournalError> {
            self.inner.list_jobs()
        }
    }

    fn counting(fail_at: u64) -> (Arc<CountingStore>, JobJournal) {
        let counted = Arc::new(CountingStore {
            inner: MemStore::new(),
            syncs: 0.into(),
            fail_at,
        });
        let store: Arc<dyn JournalStore> = Arc::<CountingStore>::clone(&counted);
        let journal = JobJournal::create(store, "grouped").unwrap();
        assert_eq!(counted.syncs(), 1, "the header is synced by create");
        (counted, journal)
    }

    #[test]
    fn syncs_are_grouped_by_bytes_and_on_request() {
        let (store, mut j) = counting(u64::MAX);
        // A record of a little over a quarter of the budget.
        let quarter = JournalEvent::CountersSnapshot {
            entries: vec![("x".repeat(SYNC_BUDGET as usize / 4), 0)],
        };
        for _ in 0..3 {
            j.append(&quarter).unwrap();
        }
        assert_eq!(store.syncs(), 1, "three quarters of the budget: unsynced");
        j.append(&quarter).unwrap();
        assert_eq!(store.syncs(), 2, "the append that crosses the budget syncs");
        j.append(&quarter).unwrap();
        assert_eq!(store.syncs(), 2, "and the count starts over");
        j.sync().unwrap();
        assert_eq!(store.syncs(), 3);
        j.sync().unwrap();
        assert_eq!(store.syncs(), 3, "nothing unsynced, nothing to do");
    }

    #[test]
    fn a_failed_sync_closes_the_journal() {
        let (store, mut j) = counting(1);
        j.append(&JournalEvent::DlqDrained { seq: 0 }).unwrap();
        let failed = j.sync().unwrap_err();
        let written = store.read("grouped").unwrap();
        // No retry (it would succeed), no further record.
        assert_eq!(j.sync().unwrap_err(), failed);
        assert_eq!(
            j.append(&JournalEvent::DlqDrained { seq: 1 }).unwrap_err(),
            failed
        );
        assert_eq!(store.syncs(), 2);
        assert_eq!(store.read("grouped").unwrap(), written);
    }

    #[test]
    fn create_is_idempotent_and_validates_header() {
        let store = mem();
        {
            let mut j = JobJournal::create(Arc::clone(&store), "idem").unwrap();
            j.append(&JournalEvent::DlqDrained { seq: 0 }).unwrap();
        }
        // Re-opening appends after existing events, never rewrites the header.
        let mut j2 = JobJournal::create(Arc::clone(&store), "idem").unwrap();
        j2.append(&JournalEvent::DlqDrained { seq: 1 }).unwrap();
        let rec = recover(&store, "idem").unwrap();
        assert_eq!(rec.events.len(), 2);
        // A log that is not a journal is rejected.
        store.append("alien", b"not a journal at all").unwrap();
        assert!(matches!(
            JobJournal::create(Arc::clone(&store), "alien"),
            Err(JournalError::BadHeader(_))
        ));
        // So is a journal of another format version — typed, by both ends:
        // version 1 (JSON checkpoints), version 2 (cuts that listed their
        // compared pairs), version 3 (two records per exhausted task) and
        // version 4 (the schedule's JSON).
        for found in [1, 2, 3, 4] {
            let job = format!("old-v{found}");
            store.append(&job, b"PPERJNL").unwrap();
            store.append(&job, &[found]).unwrap();
            let unsupported = JournalError::UnsupportedVersion {
                found,
                supported: 5,
            };
            assert_eq!(
                JobJournal::create(Arc::clone(&store), &job).unwrap_err(),
                unsupported
            );
            assert_eq!(recover(&store, &job).unwrap_err(), unsupported);
        }
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let mstore = Arc::new(MemStore::new());
        let store: Arc<dyn JournalStore> = Arc::<MemStore>::clone(&mstore);
        let mut j = JobJournal::create(Arc::clone(&store), "torn").unwrap();
        j.append(&JournalEvent::DlqDrained { seq: 0 }).unwrap();
        j.append(&JournalEvent::DlqDrained { seq: 1 }).unwrap();
        let full = store.read("torn").unwrap().len();
        mstore.truncate("torn", full - 2);
        let rec = recover(&store, "torn").unwrap();
        assert_eq!(rec.events.len(), 1);
        assert!(rec.report.torn_tail && !rec.report.corrupt);
        assert_eq!(
            rec.report.dropped_bytes as usize,
            full - 2 - rec.report.valid_bytes as usize
        );
    }

    #[test]
    fn undecodable_payload_is_reported_corrupt() {
        let store = mem();
        let mut framed = MAGIC.to_vec();
        crate::frame::write_frame(&mut framed, &[250, 1, 2, 3]); // bogus tag
        store.append("bad", &framed).unwrap();
        let rec = recover(&store, "bad").unwrap();
        assert!(rec.events.is_empty());
        assert!(rec.report.corrupt);
        assert_eq!(rec.report.valid_bytes, MAGIC.len() as u64);
    }

    #[test]
    fn state_replay_tracks_dlq() {
        let store = mem();
        let mut j = JobJournal::create(Arc::clone(&store), "state").unwrap();
        j.append(&JournalEvent::JobStarted {
            job_id: "state".into(),
            params: vec![("dataset".into(), "ds.jsonl".into())],
        })
        .unwrap();
        j.append(&JournalEvent::DeadLettered {
            seq: 0,
            job: "j2".into(),
            kind: TaskClass::Reduce,
            index: 3,
            attempts: 4,
            failures: vec![AttemptFailure {
                attempt: 1,
                wasted_cost: 2.5,
                error: "boom".into(),
            }],
        })
        .unwrap();
        j.append(&JournalEvent::DeadLettered {
            seq: 1,
            job: "j2".into(),
            kind: TaskClass::Reduce,
            index: 5,
            attempts: 4,
            failures: vec![],
        })
        .unwrap();
        j.append(&JournalEvent::DlqDrained { seq: 0 }).unwrap();

        let rec = recover(&store, "state").unwrap();
        let st = JournalState::replay(&rec.events);
        assert_eq!(st.job_id.as_deref(), Some("state"));
        assert_eq!(st.param("dataset"), Some("ds.jsonl"));
        assert!(st.schedule.is_none() && st.tasks.is_empty());
        assert_eq!(st.dlq.len(), 1);
        assert_eq!(st.dlq[0].seq, 1);
        assert_eq!(st.dlq[0].index, 5);
        assert_eq!(st.next_dlq_seq, 2);
        assert!(st.finished.is_none());
    }

    fn cut(task: u32, seq: u32, blocks_done: u64, pair: (u32, u32)) -> JournalEvent {
        JournalEvent::CheckpointCut {
            task,
            seq,
            blocks_done,
            clock: 100.0 * blocks_done as f64,
            duplicates: vec![(99.5 * blocks_done as f64, pair.0, pair.1)],
        }
    }

    fn fold(events: &[JournalEvent]) -> JournalState {
        let numbered: Vec<(u64, JournalEvent)> = events.iter().cloned().map(|e| (0, e)).collect();
        JournalState::replay(&numbered)
    }

    #[test]
    fn cuts_fold_per_task_whatever_the_interleaving() {
        let schedule = JournalEvent::ScheduleGenerated {
            job1_cost: 50.0,
            task_blocks: vec![5, 3, 0],
            digest: 7,
        };
        let t0 = [cut(0, 0, 2, (1, 2)), cut(0, 1, 5, (3, 4))];
        let t1 = [cut(1, 0, 1, (5, 6)), cut(1, 1, 3, (7, 8))];
        let one = fold(&[
            schedule.clone(),
            t0[0].clone(),
            t0[1].clone(),
            t1[0].clone(),
            t1[1].clone(),
        ]);
        let other = fold(&[
            schedule.clone(),
            t1[0].clone(),
            t0[0].clone(),
            t1[1].clone(),
            t0[1].clone(),
        ]);
        assert_eq!(one.tasks, other.tasks);
        assert_eq!(one.schedule, Some((50.0, 7)));
        assert_eq!(one.tasks[0].cuts, 2);
        assert_eq!(one.tasks[0].blocks_done, 5);
        assert_eq!(one.tasks[0].clock, 500.0);
        assert_eq!(one.tasks[0].duplicates, vec![(199.0, 1, 2), (497.5, 3, 4)]);
        assert_eq!(one.tasks[2], TaskProgress::default());
        assert_eq!(
            one.progress(),
            "8 of 8 blocks and 4 duplicates checkpointed across 3 tasks, furthest clock 500"
        );

        // A repeated record, one past a gap, and one for a task the
        // schedule does not have change nothing.
        let noisy = fold(&[
            schedule.clone(),
            t0[0].clone(),
            t0[0].clone(),
            cut(0, 2, 4, (9, 9)),
            cut(3, 0, 1, (9, 9)),
            t0[1].clone(),
        ]);
        assert_eq!(noisy.tasks[0], one.tasks[0]);
        assert_eq!(
            noisy.tasks[1],
            TaskProgress {
                blocks: 3,
                ..TaskProgress::default()
            }
        );

        // The rule the writer appends by: `apply` refuses the same records
        // one at a time, and takes the next in line.
        let mut st = fold(&[schedule.clone(), t0[0].clone()]);
        for noise in [t0[0].clone(), cut(0, 2, 4, (9, 9)), cut(3, 0, 1, (9, 9))] {
            assert!(!st.takes(&noise) && !st.apply(&noise), "{noise:?}");
        }
        assert!(st.takes(&t0[1]) && st.apply(&t0[1]));
        assert_eq!(st.tasks[0], one.tasks[0]);

        // Cuts before any schedule have nothing to index into; a second
        // schedule voids the cuts taken against the first.
        assert!(fold(&[t0[0].clone()]).tasks.is_empty());
        let again = fold(&[schedule.clone(), t0[0].clone(), schedule]);
        assert_eq!(again.tasks[0].cuts, 0);
    }
}
