//! Durable runner conformance: journaled runs equal to plain runs down to
//! the counters, an in-process kill-point sweep over journal prefixes, the
//! fold of the in-line checkpoint cuts against the in-process kill oracle,
//! and the dead-letter round trip.
//!
//! The unit of failure is a *record boundary*: `run_durable` executes the
//! resolution job once and its reduce tasks append their checkpoint cuts
//! while they run, so the N-th record of a journal can sit anywhere —
//! between the jobs, between two map tasks, or in the middle of a reduce
//! task with its neighbours at other blocks. The *process-level* sweep
//! (child `pper` processes aborted after every N-th append) lives in the
//! root package's `tests/resume_process.rs`; here the same sweep is driven
//! in-process by replaying every durable prefix of a finished journal into
//! a fresh store — exactly the bytes a `kill -9` after the N-th synced
//! append would have left. A prefix that fails to resume is written under
//! `target/tmp/durable-sweeps/` before the test panics.
//!
//! The journal groups its syncs, so a *machine* crash keeps less than a
//! process kill: the log as of its last sync, plus whatever the filesystem
//! made of the tail. The last three tests hold the sync placement itself,
//! every sync of a run failing in turn, and the power-cut images.

use std::collections::BTreeSet;
use std::sync::Arc;

use parking_lot::Mutex;
use pper_datagen::{Dataset, PubGen};
use pper_er::prelude::*;
use pper_journal::{
    recover, FileStore, JobJournal, JournalError, JournalEvent, JournalState, JournalStore,
    MemStore, TaskProgress,
};
use pper_mapreduce::{FaultKind, FaultPlan, FaultVfs, IoFaultPlan, IoOp, TaskKind, Vfs};

type Events = Vec<(u64, JournalEvent)>;

fn small_pipeline() -> ProgressiveEr {
    ProgressiveEr::new(ErConfig::citeseer(2))
}

fn threaded_pipeline(threads: usize) -> ProgressiveEr {
    let mut er = small_pipeline();
    er.config.worker_threads = Some(threads);
    er
}

fn dataset() -> Dataset {
    PubGen::new(1_200, 417).generate()
}

fn opts(every: f64) -> DurableOptions {
    DurableOptions {
        checkpoint_every: every,
        kill_after_events: None,
    }
}

const EVERY: f64 = 1_500.0;

/// The events of a finished durable run and the log's bytes.
fn finished_journal(er: &ProgressiveEr, ds: &Dataset, job: &str) -> (Events, Vec<u8>) {
    let store = MemStore::shared();
    run_durable(er, ds, &store, job, &[], &opts(EVERY)).unwrap();
    let rec = recover(&store, job).unwrap();
    assert!(rec.report.clean());
    (rec.events, store.read(job).unwrap())
}

fn store_holding(job: &str, bytes: &[u8]) -> Arc<dyn JournalStore> {
    let store = MemStore::shared();
    store.append(job, bytes).unwrap();
    store
}

/// Resume `job` from `bytes` — all a killed process left behind — and
/// require the fault-free fingerprint; returns the store the resumed run
/// completed in. On failure the bytes are kept for the post-mortem.
fn resume_from(
    er: &ProgressiveEr,
    ds: &Dataset,
    job: &str,
    bytes: &[u8],
    golden: &ResultFingerprint,
    what: &str,
) -> Arc<dyn JournalStore> {
    let store = store_holding(job, bytes);
    let outcome = resume_durable(er, ds, &store, job, &opts(EVERY))
        .map(|resumed| ResultFingerprint::of(&resumed));
    if outcome.as_ref().ok() != Some(golden) {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("durable-sweeps");
        std::fs::create_dir_all(&dir).unwrap();
        let kept = dir.join(format!("{job}-{}.journal", bytes.len()));
        std::fs::write(&kept, bytes).unwrap();
        match outcome {
            Err(e) => panic!("{what}: resume failed: {e} (prefix kept at {kept:?})"),
            Ok(_) => panic!("{what}: fingerprint diverged (prefix kept at {kept:?})"),
        }
    }
    store
}

/// Byte offsets at which a kill leaves a log of whole records: after every
/// record but the very first (a log with no `JobStarted` has nothing to
/// resume), up to the full log. Entry `i` is the log after record `i`.
fn record_boundaries(events: &Events, len: usize) -> Vec<usize> {
    let mut boundaries: Vec<usize> = events[1..].iter().map(|&(off, _)| off as usize).collect();
    boundaries.push(len);
    boundaries
}

fn is_cut(event: &JournalEvent) -> bool {
    matches!(event, JournalEvent::CheckpointCut { .. })
}

/// Positions of the checkpoint cuts in the event stream.
fn cut_positions(events: &Events) -> Vec<usize> {
    (0..events.len())
        .filter(|&i| is_cut(&events[i].1))
        .collect()
}

/// The checkpoint cuts of the stream, ordered by `(task, seq)` — how the
/// worker threads interleaved them is not part of the record.
fn cuts_by_task(events: &Events) -> Vec<JournalEvent> {
    let mut cuts: Vec<JournalEvent> = events
        .iter()
        .map(|(_, e)| e.clone())
        .filter(is_cut)
        .collect();
    cuts.sort_by_key(|e| match e {
        JournalEvent::CheckpointCut { task, seq, .. } => (*task, *seq),
        _ => unreachable!(),
    });
    cuts
}

/// The clocks at which `task` cut, in order.
fn cut_clocks(events: &Events, task: u32) -> Vec<f64> {
    events
        .iter()
        .filter_map(|(_, e)| match e {
            JournalEvent::CheckpointCut { task: t, clock, .. } if *t == task => Some(*clock),
            _ => None,
        })
        .collect()
}

/// Every `(task, seq)` is in the log exactly once, and a task's records
/// appear in `seq` order from zero. Returns how many there are.
fn assert_cuts_unique_and_ordered(events: &Events) -> usize {
    let mut seen = BTreeSet::new();
    for (_, event) in events {
        if let JournalEvent::CheckpointCut { task, seq, .. } = event {
            assert!(seen.insert((*task, *seq)), "({task}, {seq}) appended twice");
            assert!(
                *seq == 0 || seen.contains(&(*task, seq - 1)),
                "task {task}: record {seq} before record {}",
                seq - 1
            );
        }
    }
    seen.len()
}

/// What a journal's checkpoint cuts hold, over all reduce tasks: blocks
/// under a watermark, blocks scheduled, duplicates made durable.
fn checkpointed(state: &JournalState) -> (u64, u64, u64) {
    let sum = |of: fn(&TaskProgress) -> u64| state.tasks.iter().map(of).sum::<u64>();
    (
        sum(|t| t.blocks_done),
        sum(|t| t.blocks),
        sum(|t| t.duplicates.len() as u64),
    )
}

fn counters_of(result: &ErRunResult) -> Vec<(String, u64)> {
    let mut entries: Vec<(String, u64)> = result
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    entries.sort();
    entries
}

const RESUME_COUNTERS: [&str; 3] = [
    "resume_replay_cost",
    "resume_replayed_duplicates",
    "job2_blocks_skipped_resumed",
];

#[test]
fn durable_run_matches_plain_run() {
    let er = small_pipeline();
    let ds = dataset();
    let plain = er.try_run(&ds).unwrap();
    let golden = ResultFingerprint::of(&plain);

    let store = MemStore::shared();
    let result = run_durable(&er, &ds, &store, "job-plain", &[], &opts(EVERY)).unwrap();
    assert_eq!(ResultFingerprint::of(&result), golden);
    // One pass of each job: the counters are the uninterrupted run's, and
    // nothing was resumed.
    assert_eq!(counters_of(&result), counters_of(&plain));
    for name in RESUME_COUNTERS {
        assert_eq!(result.counters.get(name), 0, "{name} on a healthy run");
    }

    // The journal tells the whole story: started, finished, every task.
    let rec = recover(&store, "job-plain").unwrap();
    assert!(rec.report.clean());
    let state = JournalState::replay(&rec.events);
    assert_eq!(state.job_id.as_deref(), Some("job-plain"));
    assert_eq!(state.param("checkpoint_every"), Some("1500"));
    assert!(state.job1_cost.is_some());
    assert!(state.schedule_json.is_some());
    assert!(state.dlq.is_empty());
    let (dups, total_cost) = state.finished.expect("job-finished event");
    assert_eq!(dups, golden.duplicates.len() as u64);
    assert_eq!(total_cost.to_bits(), golden.total_cost_bits);
    assert_eq!(state.counters, counters_of(&plain));

    // One execution of the resolution job: each of its reduce tasks
    // finished exactly once.
    let reduce_tasks = state.tasks.len();
    assert!(reduce_tasks > 1);
    let job2_reduces = rec
        .events
        .iter()
        .filter(|(_, e)| {
            matches!(e, JournalEvent::TaskFinished { job, kind, .. }
                if job == "pper-job2-resolution" && *kind == pper_journal::TaskClass::Reduce)
        })
        .count();
    assert_eq!(job2_reduces, reduce_tasks);

    // Every task cut on its way and once at its last block: the fold is
    // the whole run.
    assert!(assert_cuts_unique_and_ordered(&rec.events) > reduce_tasks);
    let (blocks_done, blocks, duplicates) = checkpointed(&state);
    assert_eq!(blocks_done, blocks);
    assert_eq!(duplicates, plain.counters.get("duplicates_found"));
    assert!(state.progress().starts_with(&format!(
        "{blocks} of {blocks} blocks and {duplicates} duplicates checkpointed across \
         {reduce_tasks} tasks, furthest clock "
    )));
    assert!(state.tasks.iter().all(|t| t.blocks == 0 || t.cuts > 0));
    let pairs_journaled: usize = state
        .tasks
        .iter()
        .flat_map(|t| t.resolved.iter().map(|(_, pairs)| pairs.len()))
        .sum();
    assert_eq!(pairs_journaled as u64, plain.counters.get("pairs_compared"));
}

#[test]
fn staged_cut_equals_direct_cut() {
    let er = small_pipeline();
    let ds = dataset();
    let cut = |from: Option<&Checkpoint>, at| {
        let stage = er.run_stage(&ds, from, Some(at)).unwrap();
        stage.cut().expect("a stage with a threshold is cut")
    };
    let staged = cut(Some(&cut(None, 1_000.0)), 2_200.0);
    let direct = cut(None, 2_200.0);
    assert_eq!(staged.to_json().unwrap(), direct.to_json().unwrap());
}

#[test]
fn fingerprint_json_round_trips() {
    let er = small_pipeline();
    let ds = dataset();
    let fp = ResultFingerprint::of(&er.try_run(&ds).unwrap());
    let back = ResultFingerprint::from_json(&fp.to_json().unwrap()).unwrap();
    assert_eq!(back, fp);
}

/// The oracle for the in-line cuts: for every task and every `seq`, the
/// fold of the journal up to that record is the checkpoint the in-process
/// kill (`run_stage` with a threshold) cuts for that task at the record's
/// clock — byte for byte as JSON.
#[test]
fn fold_of_the_cuts_equals_the_killed_stage_checkpoint() {
    let er = small_pipeline();
    let ds = dataset();
    let (events, _) = finished_journal(&er, &ds, "job-oracle");

    let mut checked = 0;
    let mut with_pairs = 0;
    for i in cut_positions(&events) {
        let JournalEvent::CheckpointCut {
            task, seq, clock, ..
        } = &events[i].1
        else {
            unreachable!()
        };
        let task = *task as usize;
        let state = JournalState::replay(&events[..=i]);
        assert_eq!(state.tasks[task].cuts, seq + 1);
        let folded = journaled_checkpoint(&state, er.config.machines)
            .unwrap()
            .expect("the schedule is journaled before any cut");
        folded.validate(er.config.machines).unwrap();
        let killed = er
            .run_stage(&ds, None, Some(*clock))
            .unwrap()
            .cut()
            .expect("a stage with a threshold is cut");
        assert_eq!(
            serde_json::to_string(&folded.tasks[task]).unwrap(),
            serde_json::to_string(&killed.tasks[task]).unwrap(),
            "task {task}, record {seq}, clock {clock}"
        );
        assert_eq!(
            serde_json::to_string(&folded.schedule).unwrap(),
            serde_json::to_string(&killed.schedule).unwrap()
        );
        assert_eq!(folded.job1_cost.to_bits(), killed.job1_cost.to_bits());
        checked += 1;
        with_pairs += usize::from(!folded.tasks[task].resolved.is_empty());
    }
    assert!(checked >= 8, "only {checked} cut records");
    assert!(with_pairs >= checked / 2, "the cuts carry no pairs");
}

/// In-process kill-point sweep: every durable prefix of a finished journal
/// that ends on a record boundary — exactly what a `kill -9` right after
/// the N-th synced append leaves on disk, including the ones that land
/// inside a running reduce task — resumes in a fresh store to the
/// bit-identical result, whether the reduce tasks ran (and interleaved
/// their appends) on one worker thread or two.
#[test]
fn every_journal_prefix_resumes_bit_identically() {
    let ds = dataset();
    let golden = ResultFingerprint::of(&small_pipeline().try_run(&ds).unwrap());

    for threads in [1, 2] {
        let er = threaded_pipeline(threads);
        let (events, bytes) = finished_journal(&er, &ds, "job-sweep");
        let boundaries = record_boundaries(&events, bytes.len());
        assert!(cut_positions(&events).len() >= 8, "want a meaningful sweep");

        let mut mid_reduce = 0;
        for (i, &cut) in boundaries.iter().enumerate() {
            let what = format!("{threads} thread(s), boundary {i} (byte {cut})");
            let store = resume_from(&er, &ds, "job-sweep", &bytes[..cut], &golden, &what);
            let after = recover(&store, "job-sweep").unwrap();
            assert!(after.report.clean(), "{what}");
            assert!(matches!(
                after.events.last(),
                Some((_, JournalEvent::JobFinished { .. }))
            ));
            assert_cuts_unique_and_ordered(&after.events);
            assert_eq!(cuts_by_task(&after.events), cuts_by_task(&events), "{what}");
            // A prefix ending in a cut was killed mid-reduce: the tasks
            // that had cut resume past their watermarks, the rest start
            // from scratch.
            if is_cut(&events[i].1) {
                mid_reduce += 1;
                let state = JournalState::replay(&after.events);
                let skipped = state
                    .counters
                    .iter()
                    .find(|(name, _)| name == "job2_blocks_skipped_resumed");
                assert!(matches!(skipped, Some((_, n)) if *n > 0), "{what}");
            }
        }
        assert!(mid_reduce >= 8, "{threads} thread(s): {mid_reduce}");
    }
}

/// A kill mid-append leaves a torn tail behind the last boundary; resume
/// must drop it (and truncate, so new records stay reachable) and still
/// reach the identical result — for a tail torn inside the final record and
/// for one torn inside a checkpoint cut: in its frame header, its
/// watermark, its pair list, and one byte short of whole.
#[test]
fn resume_recovers_from_torn_tail() {
    let er = small_pipeline();
    let ds = dataset();
    let golden = ResultFingerprint::of(&er.try_run(&ds).unwrap());
    let (events, bytes) = finished_journal(&er, &ds, "job-torn");

    // (start of the torn record, bytes of it that made it to disk)
    let last_off = events.last().unwrap().0 as usize;
    let mut tears = vec![(last_off, (bytes.len() - last_off) / 2)];
    let at = cut_positions(&events)
        .into_iter()
        .filter(|&i| {
            matches!(&events[i].1,
                JournalEvent::CheckpointCut { resolved, .. } if !resolved.is_empty())
        })
        .nth(2)
        .expect("a third cut with pairs in it");
    let cut_off = events[at].0 as usize;
    let cut_len = events[at + 1].0 as usize - cut_off;
    tears.extend([3, 8 + 10, cut_len / 2, cut_len - 1].map(|kept| (cut_off, kept)));

    for (start, kept) in tears {
        let what = format!("record at {start} torn after {kept} bytes");
        let torn = &bytes[..start + kept];
        let pre = recover(&store_holding("job-torn", torn), "job-torn").unwrap();
        assert!(pre.report.torn_tail, "{what}");
        assert_eq!(pre.report.valid_bytes as usize, start, "{what}");

        let store = resume_from(&er, &ds, "job-torn", torn, &golden, &what);
        // The torn bytes were truncated away before new appends, so the
        // whole log is valid again.
        let post = recover(&store, "job-torn").unwrap();
        assert!(post.report.clean(), "{what}");
        assert_eq!(cuts_by_task(&post.events), cuts_by_task(&events), "{what}");
    }
}

/// Kill the resumed run again: a journal that already holds one resume is
/// cut back to every boundary the resumed process wrote and resumed a
/// second time.
#[test]
fn a_resumed_run_killed_again_resumes_bit_identically() {
    let ds = dataset();
    let golden = ResultFingerprint::of(&small_pipeline().try_run(&ds).unwrap());

    for threads in [1, 2] {
        let er = threaded_pipeline(threads);
        let (events, bytes) = finished_journal(&er, &ds, "job-twice");
        // First kill: mid-reduce, a third of the way through the cuts.
        let cuts = cut_positions(&events);
        let first_kill = events[cuts[cuts.len() / 3] + 1].0 as usize;
        let once = resume_from(
            &er,
            &ds,
            "job-twice",
            &bytes[..first_kill],
            &golden,
            "first",
        );
        let once_events = recover(&once, "job-twice").unwrap().events;
        let once_bytes = once.read("job-twice").unwrap();

        let mut second_kills = 0;
        let mut mid_reduce = 0;
        let boundaries = record_boundaries(&once_events, once_bytes.len());
        for (i, &cut) in boundaries.iter().enumerate() {
            if cut <= first_kill {
                continue; // the first process's records: swept elsewhere
            }
            let what = format!("{threads} thread(s), second kill at boundary {i}");
            let twice = resume_from(&er, &ds, "job-twice", &once_bytes[..cut], &golden, &what);
            let twice_events = recover(&twice, "job-twice").unwrap().events;
            assert_cuts_unique_and_ordered(&twice_events);
            assert_eq!(cuts_by_task(&twice_events), cuts_by_task(&events), "{what}");
            second_kills += 1;
            mid_reduce += usize::from(is_cut(&once_events[i].1));
        }
        assert!(
            second_kills >= 8 && mid_reduce >= 4,
            "{second_kills} second kills, {mid_reduce} of them mid-reduce"
        );
    }
}

/// The resume counters appear on a genuinely resumed run, and count what
/// the checkpoint cuts had made durable.
#[test]
fn resume_counters_count_what_the_cuts_held() {
    let er = small_pipeline();
    let ds = dataset();
    let plain = er.try_run(&ds).unwrap();
    let golden = ResultFingerprint::of(&plain);
    let (events, bytes) = finished_journal(&er, &ds, "job-counted");

    let cuts = cut_positions(&events);
    let kill = cuts[cuts.len() / 2] + 1;
    let (blocks_held, blocks, duplicates_held) =
        checkpointed(&JournalState::replay(&events[..kill]));
    assert!(blocks_held > 0 && blocks_held < blocks);

    let store = store_holding("job-counted", &bytes[..events[kill].0 as usize]);
    let resumed = resume_durable(&er, &ds, &store, "job-counted", &opts(EVERY)).unwrap();
    assert_eq!(ResultFingerprint::of(&resumed), golden);
    assert_eq!(
        resumed.counters.get("job2_blocks_skipped_resumed"),
        blocks_held
    );
    assert_eq!(
        resumed.counters.get("resume_replayed_duplicates"),
        duplicates_held
    );
    assert!(resumed.counters.get("resume_replay_cost") > 0);
    assert!(resumed.counters.get("pairs_compared") < plain.counters.get("pairs_compared"));
    assert_eq!(
        resumed.counters.get("duplicates_found"),
        plain.counters.get("duplicates_found")
    );
}

#[test]
fn resume_of_empty_journal_is_an_error() {
    let er = small_pipeline();
    let ds = dataset();
    let store = MemStore::shared();
    let err = resume_durable(&er, &ds, &store, "job-none", &opts(EVERY));
    assert!(err.is_err(), "no journal should not resume");
}

/// A journal pins the dataset it was written against: a resume handed a
/// smaller dataset, or the same one with one attribute edited, is refused
/// with `BadState` before any stage runs and leaves the log as it was. A
/// log written before the pin (no `dataset` parameter) still resumes.
#[test]
fn a_resume_against_another_dataset_is_refused() {
    let er = small_pipeline();
    let ds = dataset();
    let golden = ResultFingerprint::of(&er.try_run(&ds).unwrap());
    let (events, bytes) = finished_journal(&er, &ds, "job-pinned");
    let JournalEvent::JobStarted { job_id, params } = &events[0].1 else {
        panic!("the log starts with JobStarted");
    };
    assert!(params.iter().any(|(k, _)| k == "dataset"));
    let kept = events.len() / 2;
    let half = &bytes[..record_boundaries(&events, bytes.len())[kept - 1]];

    let mut edited = ds.clone();
    edited.entities[7].attrs[0].push('x');
    for other in [PubGen::new(600, 417).generate(), edited] {
        let store = store_holding("job-pinned", half);
        let refused = resume_durable(&er, &other, &store, "job-pinned", &opts(EVERY));
        let Err(DurableError::Journal(JournalError::BadState(why))) = refused else {
            panic!("a resume against another dataset was not refused");
        };
        assert!(why.contains("journaled against a dataset"), "{why}");
        assert_eq!(store.read("job-pinned").unwrap(), half);
    }

    // The same prefix as a binary from before the pin wrote it.
    let store = MemStore::shared();
    let mut journal = JobJournal::create(Arc::clone(&store), "job-pinned").unwrap();
    journal
        .append(&JournalEvent::JobStarted {
            job_id: job_id.clone(),
            params: params
                .iter()
                .filter(|(k, _)| k != "dataset")
                .cloned()
                .collect(),
        })
        .unwrap();
    for (_, event) in &events[1..kept] {
        journal.append(event).unwrap();
    }
    let unpinned = store.read("job-pinned").unwrap();
    resume_from(&er, &ds, "job-pinned", &unpinned, &golden, "unpinned log");
}

/// A log written by format version 1 is refused with the typed error by
/// every entry point — there is no second reader.
#[test]
fn a_version_1_journal_is_unsupported() {
    let er = small_pipeline();
    let ds = dataset();
    let store = store_holding("job-v1", b"PPERJNL\x01");
    let unsupported = |result: Result<ErRunResult, DurableError>| {
        matches!(
            result,
            Err(DurableError::Journal(JournalError::UnsupportedVersion {
                found: 1,
                supported: 2
            }))
        )
    };
    let o = opts(EVERY);
    assert!(unsupported(resume_durable(&er, &ds, &store, "job-v1", &o)));
    assert!(unsupported(reprocess_dlq(&er, &ds, &store, "job-v1", &o)));
    assert!(unsupported(run_durable(
        &er,
        &ds,
        &store,
        "job-v1",
        &[],
        &o
    )));
}

/// The dead-letter round trip, for both ways an attempt can die after it
/// has cut checkpoints: legacy discard (every attempt runs the task to its
/// end and is thrown away) and a crash in mid-reduce (every attempt dies
/// once its clock passes the task's second cut). The dead attempts' cuts
/// are durable, their re-runs re-emit them, and each `(task, seq)` is in
/// the log exactly once; the capture carries the failure history and its
/// context; reprocessing with the fault removed equals the fault-free run
/// bit for bit.
#[test]
fn dlq_captures_exhausted_task_and_reprocesses() {
    let ds = dataset();
    let golden_er = small_pipeline();
    let golden = ResultFingerprint::of(&golden_er.try_run(&ds).unwrap());
    let (healthy, _) = finished_journal(&golden_er, &ds, "job-dlq");
    let task0_clocks = cut_clocks(&healthy, 0);
    assert!(task0_clocks.len() >= 3, "task 0 cuts {task0_clocks:?}");
    let task0_cuts = |events: &Events| -> Vec<JournalEvent> {
        let of_task0 = |e: &JournalEvent| matches!(e, JournalEvent::CheckpointCut { task: 0, .. });
        cuts_by_task(events).into_iter().filter(of_task0).collect()
    };

    // Default attempt budget is 4; 4 failing attempts exhaust it.
    let discard = FaultPlan::fail_reduce(0, 4);
    let crash = (1..=4).fold(FaultPlan::default(), |plan, attempt| {
        plan.with_abort(TaskKind::Reduce, 0, attempt, task0_clocks[1] + 1.0)
    });
    for (plan, cuts_before_death) in [(discard, task0_clocks.len()), (crash, 2)] {
        let mut faulty = small_pipeline();
        faulty.config.faults = Some(plan);

        let store = MemStore::shared();
        let err = run_durable(&faulty, &ds, &store, "job-dlq", &[], &opts(EVERY))
            .expect_err("exhausted task must fail the durable run");
        match &err {
            DurableError::DeadLettered { job_id, tasks } => {
                assert_eq!(job_id, "job-dlq");
                assert_eq!(tasks, &["reduce-0".to_string()]);
            }
            other => panic!("expected DeadLettered, got {other}"),
        }

        // The capture carries everything an operator needs.
        let rec = recover(&store, "job-dlq").unwrap();
        let state = JournalState::replay(&rec.events);
        assert_eq!(state.dlq.len(), 1);
        let entry = &state.dlq[0];
        assert_eq!(entry.index, 0);
        assert_eq!(entry.attempts, 4);
        assert_eq!(entry.failures.len(), 4);
        assert!(entry.failures.iter().all(|f| !f.error.is_empty()));
        assert_eq!(
            entry.context_json,
            format!(
                "{{\"stage\":\"job2-resolution\",\"dataset\":\"{}\",\"task\":\"reduce-0\"}}",
                ds.name
            )
        );

        // Four attempts emitted the dead task's cuts; the log holds each
        // once, and they are the healthy run's records.
        assert_cuts_unique_and_ordered(&rec.events);
        assert_eq!(state.tasks[0].cuts as usize, cuts_before_death);
        assert_eq!(
            task0_cuts(&rec.events),
            task0_cuts(&healthy)[..cuts_before_death]
        );
        // The other tasks ran to their ends.
        assert!(state.tasks[1..].iter().all(|t| t.blocks_done == t.blocks));

        // Drain the queue with the fault gone: bit-identical to fault-free,
        // picking the dead task up at its last cut.
        let reprocessed = reprocess_dlq(&faulty, &ds, &store, "job-dlq", &opts(EVERY)).unwrap();
        assert_eq!(ResultFingerprint::of(&reprocessed), golden);
        assert_eq!(
            reprocessed.counters.get("job2_blocks_skipped_resumed"),
            checkpointed(&state).0
        );

        // The journal now records the drain; the DLQ folds back to empty.
        let rec = recover(&store, "job-dlq").unwrap();
        assert_cuts_unique_and_ordered(&rec.events);
        assert_eq!(cuts_by_task(&rec.events), cuts_by_task(&healthy));
        let state = JournalState::replay(&rec.events);
        assert!(state.dlq.is_empty(), "drained entries must leave the DLQ");
        assert!(state.finished.is_some());

        // A second reprocess has nothing to drain.
        assert!(reprocess_dlq(&faulty, &ds, &store, "job-dlq", &opts(EVERY)).is_err());
    }
}

/// Attempts that die below the budget after they have cut — one discarded
/// at its end, one crashed in mid-reduce: the retries re-emit the dead
/// attempts' records, none is appended twice, and the run ends in the
/// fault-free duplicates (re-execution delays the retried tasks' events, so
/// only the clock readings differ).
#[test]
fn a_retried_attempt_does_not_journal_its_cuts_twice() {
    let ds = dataset();
    let er = small_pipeline();
    let golden = ResultFingerprint::of(&er.try_run(&ds).unwrap());
    let (healthy, _) = finished_journal(&er, &ds, "job-retry");
    let task1_clocks = cut_clocks(&healthy, 1);
    assert!(task1_clocks.len() >= 3, "task 1 cuts {task1_clocks:?}");

    let mut faulty = small_pipeline();
    faulty.config.faults = Some(FaultPlan::fail_reduce(0, 1).with_abort(
        TaskKind::Reduce,
        1,
        1,
        task1_clocks[1] + 1.0,
    ));
    let store = MemStore::shared();
    let run = run_durable(&faulty, &ds, &store, "job-retry", &[], &opts(EVERY)).unwrap();
    assert_eq!(run.counters.get("task_retries"), 2);
    assert_eq!(ResultFingerprint::of(&run).duplicates, golden.duplicates);

    let events = recover(&store, "job-retry").unwrap().events;
    assert_cuts_unique_and_ordered(&events);
    assert_eq!(cuts_by_task(&events), cuts_by_task(&healthy));
}

/// The dataset name is outside input (the JSONL header `pper run --data`
/// reads): whatever it holds, the dead-letter context must stay valid JSON
/// that carries the name back intact.
#[test]
fn dlq_context_escapes_the_dataset_name() {
    let mut ds = PubGen::new(600, 418).generate();
    ds.name = "we\"ird\\name\n".to_string();
    let mut faulty = small_pipeline();
    faulty.config.faults = Some(FaultPlan::fail_reduce(0, 4));

    let store = MemStore::shared();
    run_durable(&faulty, &ds, &store, "job-name", &[], &opts(EVERY))
        .expect_err("exhausted task must fail the durable run");
    let state = JournalState::replay(&recover(&store, "job-name").unwrap().events);
    let context = serde_json::parse_value_str(&state.dlq[0].context_json)
        .expect("context_json must parse as JSON");
    let serde::Value::Map(fields) = context else {
        panic!("context_json must be an object, got {context:?}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["stage", "dataset", "task"]);
    assert_eq!(fields[1].1, serde::Value::Str(ds.name.clone()));
}

/// CI's exhaustive sweep (`cargo test --release -p pper-er --test durable --
/// --ignored`): *every byte* prefix of a finished journal — every record
/// boundary and every torn tail there is — resumes bit-identically, at one
/// worker thread and at two. A smaller dataset than the boundary sweep's:
/// there are as many resumes as the journal has bytes.
#[test]
#[ignore = "one resume per journal byte; CI runs it in release"]
fn every_byte_prefix_resumes_bit_identically() {
    let ds = PubGen::new(100, 419).generate();
    let golden = ResultFingerprint::of(&small_pipeline().try_run(&ds).unwrap());
    let every = opts(40.0);
    for threads in [1, 2] {
        let er = threaded_pipeline(threads);
        let store = MemStore::shared();
        run_durable(&er, &ds, &store, "job-bytes", &[], &every).unwrap();
        let events = recover(&store, "job-bytes").unwrap().events;
        let bytes = store.read("job-bytes").unwrap();
        assert!(cut_positions(&events).len() >= 6);
        // From the first byte past `JobStarted` on.
        for cut in events[1].0 as usize..=bytes.len() {
            let what = format!("{threads} thread(s), {cut} of {} bytes", bytes.len());
            resume_from(&er, &ds, "job-bytes", &bytes[..cut], &golden, &what);
        }
    }
}

/// A `MemStore` that notes the log's length at every sync: the bytes a
/// machine crash at any later moment is sure to have kept.
#[derive(Default)]
struct SyncLog {
    inner: MemStore,
    synced: Mutex<Vec<usize>>,
}

impl SyncLog {
    fn shared() -> (Arc<Self>, Arc<dyn JournalStore>) {
        let log = Arc::new(Self::default());
        let store: Arc<dyn JournalStore> = Arc::<Self>::clone(&log);
        (log, store)
    }

    /// The log is synced to its end: nothing reported rests on less.
    fn assert_fully_synced(&self, job: &str, what: &str) {
        let len = self.inner.read(job).unwrap().len();
        assert_eq!(self.synced.lock().last(), Some(&len), "{what}");
    }
}

impl JournalStore for SyncLog {
    fn append(&self, job: &str, bytes: &[u8]) -> Result<u64, JournalError> {
        self.inner.append(job, bytes)
    }

    fn read(&self, job: &str) -> Result<Vec<u8>, JournalError> {
        self.inner.read(job)
    }

    fn sync(&self, job: &str) -> Result<(), JournalError> {
        let len = self.inner.read(job)?.len();
        self.synced.lock().push(len);
        Ok(())
    }

    fn truncate_log(&self, job: &str, len: u64) -> Result<(), JournalError> {
        self.inner.truncate_log(job, len)
    }

    fn list_jobs(&self) -> Result<Vec<String>, JournalError> {
        self.inner.list_jobs()
    }
}

/// `JobJournal`'s private sync budget: the unsynced bytes at which an
/// append syncs by itself.
const SYNC_BUDGET: usize = 128 << 10;

/// Where the syncs fall. A finished run's log is synced to its end when the
/// call returns, and so is a resumed run's and one that ends dead-lettered;
/// the schedule is on disk before the first cut is appended; in between, no
/// more than one budget (and the record that crossed it) is ever unsynced;
/// and all of it takes a small fraction of a sync per record.
#[test]
fn syncs_are_grouped_and_cover_everything_a_return_reports() {
    let ds = dataset();
    let golden = ResultFingerprint::of(&small_pipeline().try_run(&ds).unwrap());
    for threads in [1, 2] {
        let er = threaded_pipeline(threads);
        let job = "job-syncs";
        let (log, store) = SyncLog::shared();
        run_durable(&er, &ds, &store, job, &[], &opts(EVERY)).unwrap();
        log.assert_fully_synced(job, "run_durable returned");

        let events = recover(&store, job).unwrap().events;
        let bytes = store.read(job).unwrap();
        let synced = log.synced.lock().clone();
        let end_of = |i: usize| {
            events
                .get(i + 1)
                .map_or(bytes.len(), |(off, _)| *off as usize)
        };
        let schedule = events
            .iter()
            .position(|(_, e)| matches!(e, JournalEvent::ScheduleGenerated { .. }))
            .expect("a schedule record");
        let first_cut = events[cut_positions(&events)[0]].0 as usize;
        assert!(
            synced
                .iter()
                .any(|&len| (end_of(schedule)..=first_cut).contains(&len)),
            "{threads} thread(s): no sync between the schedule and the first cut in {synced:?}"
        );
        let largest = (0..events.len())
            .map(|i| end_of(i) - events[i].0 as usize)
            .max()
            .unwrap();
        for span in synced.windows(2) {
            assert!(
                span[1] - span[0] <= SYNC_BUDGET + largest,
                "{threads} thread(s): {span:?} unsynced"
            );
        }
        assert!(
            synced
                .iter()
                .any(|&len| first_cut < len && len < bytes.len()),
            "{threads} thread(s): the budget never triggered in {synced:?}"
        );
        assert!(
            synced.len() * 8 <= events.len(),
            "{threads} thread(s): {} syncs for {} records",
            synced.len(),
            events.len()
        );

        // A resumed run: killed mid-reduce, synced to its end on return.
        let cuts = cut_positions(&events);
        let kill = events[cuts[cuts.len() / 2] + 1].0 as usize;
        let (log, store) = SyncLog::shared();
        store.append(job, &bytes[..kill]).unwrap();
        let resumed = resume_durable(&er, &ds, &store, job, &opts(EVERY)).unwrap();
        assert_eq!(ResultFingerprint::of(&resumed), golden);
        log.assert_fully_synced(job, "resume_durable returned");

        // A dead-lettered one: the captures the error names are on disk.
        let mut faulty = threaded_pipeline(threads);
        faulty.config.faults = Some(FaultPlan::fail_reduce(0, 4));
        let (log, store) = SyncLog::shared();
        let err = run_durable(&faulty, &ds, &store, job, &[], &opts(EVERY)).unwrap_err();
        assert!(matches!(err, DurableError::DeadLettered { .. }), "{err}");
        log.assert_fully_synced(job, "run_durable returned DeadLettered");
        let state = JournalState::replay(&recover(&store, job).unwrap().events);
        assert_eq!(state.dlq.len(), 1);
    }
}

/// Every sync of a run fails in turn — the header's, the barrier behind the
/// schedule, the budget-triggered ones, the one before the return: each
/// ends the run in the typed fsync fault, and the run stops there (only a
/// failed *last* sync leaves a log that holds `JobFinished`). The file left
/// behind, reopened on the plain filesystem, resumes to the fault-free
/// result.
#[test]
fn a_failed_sync_is_a_typed_error_and_the_log_left_behind_resumes() {
    let er = small_pipeline();
    let ds = dataset();
    let golden = ResultFingerprint::of(&er.try_run(&ds).unwrap());
    let job = "job-fsync";
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("durable-failed-sync");
    let _ = std::fs::remove_dir_all(&root);

    let mut finished_at = Vec::new();
    let mut nth = 0;
    loop {
        let dir = root.join(nth.to_string());
        let plan = IoFaultPlan::new().with_at(IoOp::Fsync, job, nth, FaultKind::FsyncFail);
        let fvfs = FaultVfs::new(plan).unwrap();
        let vfs: Arc<dyn Vfs> = Arc::new(fvfs.clone());
        let store: Arc<dyn JournalStore> = Arc::new(FileStore::open_with(vfs, &dir).unwrap());
        let outcome = run_durable(&er, &ds, &store, job, &[], &opts(EVERY));
        drop(store);
        if fvfs.faults_fired() == 0 {
            // The run has no sync number `nth`: the sweep is over.
            assert_eq!(ResultFingerprint::of(&outcome.unwrap()), golden);
            break;
        }
        match outcome {
            Err(DurableError::Journal(JournalError::Fault(fault))) => {
                assert_eq!(fault.info().op, IoOp::Fsync, "sync {nth}: {fault}");
                assert!(fault.is_permanent(), "sync {nth}: {fault}");
            }
            Err(other) => panic!("sync {nth}: expected the fsync fault, got {other}"),
            Ok(_) => panic!("sync {nth} failed and the run reported success"),
        }

        let plain = FileStore::shared(&dir).unwrap();
        let left = recover(&plain, job).unwrap();
        assert!(left.report.clean(), "sync {nth}");
        if matches!(
            left.events.last(),
            Some((_, JournalEvent::JobFinished { .. }))
        ) {
            finished_at.push(nth);
        }
        let rerun = if left.events.is_empty() {
            // The header's own sync: the log holds no job yet.
            run_durable(&er, &ds, &plain, job, &[], &opts(EVERY))
        } else {
            resume_durable(&er, &ds, &plain, job, &opts(EVERY))
        };
        assert_eq!(ResultFingerprint::of(&rerun.unwrap()), golden, "sync {nth}");
        nth += 1;
    }
    // Header, schedule barrier, at least one budget-triggered, the last.
    assert!(nth >= 4, "only {nth} syncs in the run");
    assert_eq!(finished_at, [nth - 1]);
    let _ = std::fs::remove_dir_all(&root);
}

/// What a machine crash leaves is the log as of some sync — here each one a
/// finished run made, from the first that covers `JobStarted` — and,
/// on a filesystem that extended the file before it wrote the blocks, a run
/// of zeros behind it. (`crc32(b"") == 0`: the zeros parse as empty
/// frames, and it is the event decoder that must stop at them.) Either
/// image resumes to the uninterrupted result; the records lost with the
/// tail are re-executed and journaled again exactly once, and the resume
/// counters count what the image held, zeros or none.
#[test]
fn a_power_cut_at_any_sync_reexecutes_the_lost_tail_exactly_once() {
    let er = threaded_pipeline(1);
    let ds = dataset();
    let plain = er.try_run(&ds).unwrap();
    let golden = ResultFingerprint::of(&plain);
    let job = "job-power";
    let (log, store) = SyncLog::shared();
    run_durable(&er, &ds, &store, job, &[], &opts(EVERY)).unwrap();
    let events = recover(&store, job).unwrap().events;
    let bytes = store.read(job).unwrap();
    let synced: Vec<usize> = log
        .synced
        .lock()
        .iter()
        .copied()
        .filter(|&len| len >= events[1].0 as usize)
        .collect();
    assert!(synced.len() >= 4, "synced at {synced:?}");

    for &len in &synced {
        let mut counters = Vec::new();
        for zeros in [0, 4096] {
            let what = format!("synced to {len}, {zeros} zeros behind");
            let mut image = bytes[..len].to_vec();
            image.resize(len + zeros, 0);

            let store = store_holding(job, &image);
            let held = recover(&store, job).unwrap();
            assert_eq!(held.report.valid_bytes as usize, len, "{what}");
            assert_eq!(held.report.corrupt, zeros > 0, "{what}");
            assert!(!held.report.torn_tail, "{what}");
            let state = JournalState::replay(&held.events);
            let (blocks_held, _, duplicates_held) = checkpointed(&state);
            let pairs_held: usize = state
                .tasks
                .iter()
                .flat_map(|t| t.resolved.iter().map(|(_, pairs)| pairs.len()))
                .sum();

            let resumed = resume_durable(&er, &ds, &store, job, &opts(EVERY)).unwrap();
            assert_eq!(ResultFingerprint::of(&resumed), golden, "{what}");
            let count = |name| resumed.counters.get(name);
            assert_eq!(count("job2_blocks_skipped_resumed"), blocks_held, "{what}");
            assert_eq!(
                count("resume_replayed_duplicates"),
                duplicates_held,
                "{what}"
            );
            assert_eq!(
                count("pairs_compared") + pairs_held as u64,
                plain.counters.get("pairs_compared"),
                "{what}"
            );
            assert_eq!(
                count("duplicates_found"),
                plain.counters.get("duplicates_found"),
                "{what}"
            );

            let after = recover(&store, job).unwrap();
            assert!(after.report.clean(), "{what}");
            assert_cuts_unique_and_ordered(&after.events);
            assert_eq!(cuts_by_task(&after.events), cuts_by_task(&events), "{what}");
            counters.push(counters_of(&resumed));
        }
        assert_eq!(counters[0], counters[1], "synced to {len}");
    }
}
