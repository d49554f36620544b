//! Durable runner conformance: journaled runs equal to plain runs down to
//! the counters, an in-process kill-point sweep over journal prefixes, the
//! fold of the in-line checkpoint cuts at every cut, the replay that
//! rebuilds a resumed task's resolved-pair sets (and refuses a fold it
//! contradicts), the journal's bytes per duplicate, and the dead-letter
//! round trip.
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

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pper_datagen::{BookGen, Dataset, PubGen};
use pper_er::job2::{run_job2_stage, CutSink, Job2Result, Stage};
use pper_er::prelude::*;
use pper_journal::{
    recover, FileStore, JobJournal, JournalError, JournalEvent, JournalState, JournalStore,
    MemStore, TaskProgress,
};
use pper_mapreduce::{
    FaultKind, FaultPlan, FaultVfs, IoFaultPlan, IoOp, MrError, ShuffleSpillConfig, TaskKind, Vfs,
};

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

/// A store holding a synced journal of `events` under `job`.
fn journal_of<'e>(
    job: &str,
    events: impl IntoIterator<Item = &'e JournalEvent>,
) -> Arc<dyn JournalStore> {
    let store = MemStore::shared();
    let mut journal = JobJournal::create(Arc::clone(&store), job).unwrap();
    for event in events {
        journal.append(event).unwrap();
    }
    journal.sync().unwrap();
    store
}

/// The records a kill in the middle of the resolution job's cuts leaves.
fn killed_mid_reduce(events: &Events) -> Vec<JournalEvent> {
    let cuts = cut_positions(events);
    let kill = cuts[cuts.len() / 2] + 1;
    events[..kill].iter().map(|(_, e)| e.clone()).collect()
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

/// Resume `er` from a synced journal of `killed`: the resume must be
/// refused with the typed checkpoint error and leave the log as it was.
/// Returns the refusal.
fn refused_checkpoint(
    er: &ProgressiveEr,
    ds: &Dataset,
    killed: &[JournalEvent],
    what: &str,
) -> String {
    let store = journal_of("job-refused", killed);
    let before = store.read("job-refused").unwrap();
    let refused = resume_durable(er, ds, &store, "job-refused", &opts(EVERY));
    assert_eq!(store.read("job-refused").unwrap(), before, "{what}");
    match refused {
        Err(DurableError::Run(MrError::Checkpoint(why))) => why,
        other => panic!("{what}: expected a refused resume, got {other:?}"),
    }
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

const RESUME_COUNTERS: [&str; 4] = [
    "resume_replay_cost",
    "resume_replayed_duplicates",
    "resume_replayed_pairs",
    "job2_blocks_skipped_resumed",
];

/// The schedule a journal's fold was cut against, regenerated as a resume
/// does: job 1, then schedule generation, to the journaled digest.
fn journaled_schedule(
    er: &ProgressiveEr,
    ds: &Dataset,
    state: &JournalState,
) -> pper_schedule::Schedule {
    let job1 = run_job1(ds, &er.config).unwrap();
    let schedule = er.generate_schedule(ds, &job1.stats);
    let (_, digest) = state.schedule.expect("a journaled schedule");
    assert_eq!(schedule.digest(), digest);
    schedule
}

/// Job 2 alone, resumed from `tasks` against `schedule`.
fn resume_stage(
    er: &ProgressiveEr,
    ds: &Dataset,
    schedule: &pper_schedule::Schedule,
    tasks: &[TaskProgress],
) -> Result<Job2Result, MrError> {
    let stage = Stage {
        resume: Some(tasks),
        ..Stage::default()
    };
    run_job2_stage(ds, &er.config, schedule, stage)
}

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
    // `ScheduleGenerated` holds job 1's cost and the schedule's digest.
    let job1 = run_job1(&ds, &er.config).unwrap();
    let schedule = er.generate_schedule(&ds, &job1.stats);
    let (job1_cost, digest) = state.schedule.expect("a schedule record");
    assert_eq!(job1_cost.to_bits(), job1.virtual_cost.to_bits());
    assert_eq!(digest, schedule.digest());
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
    // The journal lists no compared pair, yet the finished fold replays
    // to every one of them, and leaves the matcher nothing to decide.
    let replayed = resume_stage(&er, &ds, &schedule, &state.tasks).unwrap();
    assert_eq!(
        replayed.counters.get("resume_replayed_pairs"),
        plain.counters.get("pairs_compared")
    );
    assert_eq!(replayed.counters.get("pairs_compared"), 0);
    assert_eq!(replayed.duplicates, plain.duplicates);
}

#[test]
fn fingerprint_json_round_trips() {
    let er = small_pipeline();
    let ds = dataset();
    let fp = ResultFingerprint::of(&er.try_run(&ds).unwrap());
    let back = ResultFingerprint::from_json(&fp.to_json().unwrap()).unwrap();
    assert_eq!(back, fp);
}

/// Per `(task, seq)`: how many pairs the matcher had decided in the task
/// when it cut that record — job 2 alone on `schedule`, with the cut grid
/// and the stage observer installed. A task's pairs and cuts come from one
/// thread, in order.
fn compared_at_cuts(
    er: &ProgressiveEr,
    ds: &Dataset,
    schedule: &pper_schedule::Schedule,
) -> BTreeMap<(u32, u32), u64> {
    let compared: Vec<AtomicU64> = (0..schedule.num_tasks())
        .map(|_| AtomicU64::new(0))
        .collect();
    let at_cut = Mutex::new(BTreeMap::new());
    let observe = |tree: u32, _, _| {
        compared[schedule.task_of_tree[tree as usize]].fetch_add(1, Ordering::SeqCst);
    };
    let emit = |cut| {
        if let JournalEvent::CheckpointCut { task, seq, .. } = cut {
            let pairs = compared[task as usize].load(Ordering::SeqCst);
            at_cut.lock().insert((task, seq), pairs);
        }
    };
    let sink = CutSink {
        every: EVERY,
        emit: &emit,
    };
    let stage = Stage {
        cuts: Some(&sink),
        observer: Some(&observe),
        ..Stage::default()
    };
    run_job2_stage(ds, &er.config, schedule, stage).unwrap();
    at_cut.into_inner()
}

/// The fold at every cut: taken from the journal up to and including any
/// cut record, the entry for the record's task stands at the record's
/// watermark and clock, passes what the resolution stage checks of a fold
/// before it resumes one, and replays exactly the pairs the task had
/// compared when it cut the record.
#[test]
fn the_fold_up_to_every_cut_stands_at_that_cut() {
    let er = small_pipeline();
    let ds = dataset();
    let (events, _) = finished_journal(&er, &ds, "job-fold");
    let schedule = journaled_schedule(&er, &ds, &JournalState::replay(&events));
    let compared_at = compared_at_cuts(&er, &ds, &schedule);

    let mut checked = 0;
    let mut with_pairs = 0;
    for i in cut_positions(&events) {
        let JournalEvent::CheckpointCut {
            task,
            seq,
            blocks_done,
            clock,
            ..
        } = &events[i].1
        else {
            unreachable!()
        };
        let task = *task as usize;
        let state = JournalState::replay(&events[..=i]);
        assert_eq!(state.tasks[task].cuts, seq + 1);
        assert!(
            state.schedule.is_some(),
            "the schedule is journaled before any cut"
        );
        let at = &state.tasks[task];
        let what = format!("task {task}, record {seq}");
        assert_eq!(at.blocks_done, *blocks_done, "{what}");
        assert_eq!(at.clock.to_bits(), clock.to_bits(), "{what}");
        assert!(at.blocks_done <= at.blocks, "{what}");
        assert!(at.clock.is_finite() && at.clock >= 0.0, "{what}");
        assert!(at.duplicates.windows(2).all(|w| w[0].0 <= w[1].0), "{what}");
        assert!(
            at.duplicates.last().is_none_or(|d| d.0 <= at.clock),
            "{what}"
        );
        checked += 1;
        // The task's fold alone, every other task from scratch: the pairs
        // its done blocks replay are the task's.
        let alone: Vec<TaskProgress> = (0..state.tasks.len())
            .map(|t| match t == task {
                true => at.clone(),
                false => TaskProgress {
                    blocks: state.tasks[t].blocks,
                    ..TaskProgress::default()
                },
            })
            .collect();
        let resumed = resume_stage(&er, &ds, &schedule, &alone).unwrap();
        let replayed = resumed.counters.get("resume_replayed_pairs");
        assert_eq!(replayed, compared_at[&(task as u32, *seq)], "{what}");
        with_pairs += usize::from(replayed > 0);
    }
    assert!(checked >= 8, "only {checked} cut records");
    assert!(with_pairs >= checked / 2, "the cuts replay no pairs");
}

/// A cut's duplicates are written `a < b`, like every other pair in the
/// journal. Per task they follow one another in cost order, and over all
/// tasks they are the run's duplicate events, each once (`job2.rs`'s unit
/// tests hold each task's cuts to its own event log, cost for cost).
#[test]
fn cut_duplicates_are_the_duplicate_events_each_once_and_a_below_b() {
    let er = small_pipeline();
    let ds = dataset();
    let plain = er.try_run(&ds).unwrap();
    let (events, _) = finished_journal(&er, &ds, "job-cut-pairs");

    let mut from_cuts = Vec::new();
    let mut task_duplicates: BTreeMap<u32, Vec<(f64, u32, u32)>> = BTreeMap::new();
    for cut in cuts_by_task(&events) {
        let JournalEvent::CheckpointCut {
            task, duplicates, ..
        } = cut
        else {
            unreachable!()
        };
        for &(_, a, b) in &duplicates {
            assert!(a < b, "task {task}: ({a}, {b})");
            from_cuts.push((a, b));
        }
        task_duplicates.entry(task).or_default().extend(duplicates);
    }
    for (task, duplicates) in &task_duplicates {
        assert!(
            duplicates.windows(2).all(|w| w[0].0 <= w[1].0),
            "task {task}"
        );
    }
    let mut found: Vec<(u32, u32)> = plain.found_events.iter().map(|&(_, a, b)| (a, b)).collect();
    from_cuts.sort_unstable();
    found.sort_unstable();
    assert!(!found.is_empty());
    assert_eq!(from_cuts, found);
}

/// Cuts once carried their duplicates in the mechanism's in-pair order. A
/// killed journal with one cut re-encoded so, every pair `b > a`, resumes
/// to the fault-free fingerprint: the replayed events normalize the pair.
#[test]
fn a_cut_with_its_duplicates_swapped_resumes_bit_identically() {
    let er = small_pipeline();
    let ds = dataset();
    let golden = ResultFingerprint::of(&er.try_run(&ds).unwrap());
    let (events, _) = finished_journal(&er, &ds, "job-swapped");
    let mut killed = killed_mid_reduce(&events);
    let swapped = killed
        .iter()
        .rposition(|e| {
            matches!(e, JournalEvent::CheckpointCut { duplicates, .. } if !duplicates.is_empty())
        })
        .expect("a cut with duplicates before the kill");
    if let JournalEvent::CheckpointCut { duplicates, .. } = &mut killed[swapped] {
        for pair in duplicates.iter_mut() {
            *pair = (pair.0, pair.2, pair.1);
        }
    }
    let bytes = journal_of("job-swapped", &killed)
        .read("job-swapped")
        .unwrap();
    let resumed = resume_from(&er, &ds, "job-swapped", &bytes, &golden, "swapped cut");
    let after = recover(&resumed, "job-swapped").unwrap();
    assert!(matches!(
        after.events.last(),
        Some((_, JournalEvent::JobFinished { .. }))
    ));
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
/// watermark, its duplicate list, and one byte short of whole.
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
                JournalEvent::CheckpointCut { duplicates, .. } if duplicates.len() >= 2)
        })
        .nth(2)
        .expect("a third cut with duplicates in it");
    let cut_off = events[at].0 as usize;
    let cut_len = events[at + 1].0 as usize - cut_off;
    // Frame header, tag, task, seq, watermark, clock and count: 37 bytes,
    // then 16 per duplicate; this tear is inside the second.
    let in_duplicates = 37 + 16 + 5;
    assert!(in_duplicates < cut_len - 1);
    tears.extend([3, 8 + 10, in_duplicates, cut_len - 1].map(|kept| (cut_off, kept)));

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
/// the checkpoint cuts had made durable; job 1 re-runs, and its counters
/// are the uninterrupted run's.
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
    let job1 = counters_of(&plain);
    let job1 = job1.iter().filter(|(name, _)| name.starts_with("job1_"));
    assert!(job1.clone().count() >= 3);
    for (name, value) in job1 {
        assert_eq!(resumed.counters.get(name), *value, "{name}");
    }
}

/// The log a kill leaves when every reduce task but `task` had finished:
/// the records before the first cut, every other task's cuts, and `task`'s
/// first `cuts` cuts.
fn killed_with_one_task_behind(events: &Events, job: &str, task: u32, cuts: u32) -> Vec<u8> {
    let first_cut = cut_positions(events)[0];
    let kept = events
        .iter()
        .enumerate()
        .filter(|(i, (_, event))| match event {
            JournalEvent::CheckpointCut { task: t, seq, .. } => *t != task || *seq < cuts,
            _ => *i < first_cut,
        });
    journal_of(job, kept.map(|(_, (_, event))| event))
        .read(job)
        .unwrap()
}

/// Replay rebuilds what the blocks under a watermark compared: a task
/// resumed from a cut that falls between two blocks of one of its trees
/// replays the done blocks (PSNM on books, whose feedback must see the
/// original decisions; SN on publications), skips what they compared in
/// the blocks after the watermark, and ends in the fault-free fingerprint.
/// Every other task's fold is whole, so it replays everything and the
/// comparison counters are the behind task's alone.
#[test]
fn replay_rebuilds_the_resolved_pair_sets_across_a_watermark() {
    let books = (BookGen::new(1_200, 421).generate(), ErConfig::books(2));
    let pubs = (dataset(), ErConfig::citeseer(2));
    for (ds, config) in [books, pubs] {
        let plain = ProgressiveEr::new(config.clone()).try_run(&ds).unwrap();
        let golden = ResultFingerprint::of(&plain);
        for threads in [1, 2] {
            let mut er = ProgressiveEr::new(config.clone());
            er.config.worker_threads = Some(threads);
            let (events, _) = finished_journal(&er, &ds, "job-replay");
            let schedule = journaled_schedule(&er, &ds, &JournalState::replay(&events));
            let (mut resumed_at, mut skipped_after) = (0, 0);
            for i in cut_positions(&events) {
                let JournalEvent::CheckpointCut {
                    task,
                    seq,
                    blocks_done,
                    ..
                } = events[i].1
                else {
                    unreachable!()
                };
                let (done, rest) =
                    schedule.block_order[task as usize].split_at(blocks_done as usize);
                if !done.iter().any(|b| rest.iter().any(|r| r.tree == b.tree)) {
                    continue;
                }
                let what = format!(
                    "{}, {threads} thread(s), task {task} at block {blocks_done}",
                    config.mechanism.name()
                );
                let bytes = killed_with_one_task_behind(&events, "job-replay", task, seq + 1);
                let store = store_holding("job-replay", &bytes);
                let resumed = resume_durable(&er, &ds, &store, "job-replay", &opts(EVERY))
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(ResultFingerprint::of(&resumed), golden, "{what}");
                let count = |name| resumed.counters.get(name);
                assert!(count("resume_replayed_pairs") > 0, "{what}");
                assert_eq!(
                    count("pairs_compared") + count("resume_replayed_pairs"),
                    plain.counters.get("pairs_compared"),
                    "{what}"
                );
                resumed_at += 1;
                skipped_after += usize::from(count("pairs_skipped_already_resolved") > 0);
            }
            let what = format!("{}, {threads} thread(s)", config.mechanism.name());
            assert!(
                resumed_at >= 3,
                "{what}: {resumed_at} watermarks inside a tree"
            );
            assert!(
                skipped_after > 0,
                "{what}: no skip after {resumed_at} watermarks"
            );
        }
    }
}

/// A fold is outside input, and its duplicates must be what its done
/// blocks meet: a task whose replay does not meet its fold's duplicates, in
/// order, fails the resume with the typed checkpoint error, naming the
/// task and the first position that differs — for a fold with one
/// duplicate deleted, and for a fold cut against another dataset of the
/// same size. A deleted duplicate shows only where its decision steers the
/// replay: PSNM promotes a duplicate's neighbours, and a stop rule counts
/// non-duplicates. One in an SN block that runs to its end leaves a fold
/// no replay can tell from a run whose matcher rejected the pair.
#[test]
fn a_fold_its_replay_contradicts_is_refused() {
    let ds = BookGen::new(1_200, 421).generate();
    let er = ProgressiveEr::new(ErConfig::books(2));
    let (events, _) = finished_journal(&er, &ds, "job-contradicted");
    let state = JournalState::replay(&events);
    let schedule = journaled_schedule(&er, &ds, &state);
    let refusal = |outcome: Result<Job2Result, MrError>| match outcome {
        Err(MrError::Checkpoint(why)) => why,
        other => panic!(
            "expected a refused fold, got {:?}",
            other.map(|r| r.duplicates.len())
        ),
    };

    // One duplicate deleted, from the task whose fold holds most: the first
    // that shares an entity with the duplicate after it. PSNM promotes a
    // duplicate's neighbours, which share one of its entities, so that next
    // duplicate is what its decision steered the run to; a replay that no
    // longer promotes meets the fold's rest in another order.
    let task = (0..state.tasks.len())
        .max_by_key(|&t| state.tasks[t].duplicates.len())
        .unwrap();
    let mut deleted = state.tasks.clone();
    assert!(deleted[task].duplicates.len() >= 2);
    let at = deleted[task]
        .duplicates
        .windows(2)
        .position(|w| {
            let ((_, a, b), (_, c, d)) = (w[0], w[1]);
            [a, b].iter().any(|e| [c, d].contains(e))
        })
        .unwrap();
    let gone = deleted[task].duplicates.remove(at);
    let why = refusal(resume_stage(&er, &ds, &schedule, &deleted));
    assert!(why.starts_with(&format!("task {task}: ")), "{why}");
    assert!(why.contains(" as duplicate "), "{why}");

    // The same journal through `resume_durable`.
    let mut spoilt: Vec<JournalEvent> = events
        .iter()
        .map(|(_, event)| event.clone())
        .filter(|event| !matches!(event, JournalEvent::JobFinished { .. }))
        .collect();
    let holder = spoilt
        .iter()
        .position(|event| {
            matches!(event, JournalEvent::CheckpointCut { task: t, duplicates, .. }
                if *t as usize == task && duplicates.contains(&gone))
        })
        .unwrap();
    if let JournalEvent::CheckpointCut { duplicates, .. } = &mut spoilt[holder] {
        duplicates.retain(|dup| *dup != gone);
    }
    let spoilt = journal_of("job-contradicted", &spoilt);
    let refused = resume_durable(&er, &ds, &spoilt, "job-contradicted", &opts(EVERY));
    assert!(
        matches!(&refused, Err(DurableError::Run(MrError::Checkpoint(why)))
            if why.starts_with(&format!("task {task}: "))),
        "{:?}",
        refused.map(|r| r.duplicates.len())
    );

    // The whole fold against a dataset of the same size from another seed.
    let other = BookGen::new(1_200, 422).generate();
    let why = refusal(resume_stage(&er, &other, &schedule, &state.tasks));
    assert!(why.starts_with("task "), "{why}");
}

/// The journal grows with results, not with comparisons. On the shape of
/// the end-to-end benchmark's durable workload — 2 500 books at μ = 10, a
/// spilling statistics shuffle, the 1 500-unit grid — the checkpoint cuts'
/// frames take at most 16 bytes per duplicate they hold plus 40 per cut,
/// frame header included, while the run compares many times more pairs
/// than it finds.
#[test]
fn checkpoint_cuts_take_bytes_per_duplicate_not_per_pair() {
    let ds = BookGen::new(2_500, 42).generate();
    let config = ErConfig::books(10).with_shuffle_spill(ShuffleSpillConfig::new(500));
    let er = ProgressiveEr::new(config);
    let store = MemStore::shared();
    let run = run_durable(&er, &ds, &store, "job-size", &[], &opts(1_500.0)).unwrap();
    let events = recover(&store, "job-size").unwrap().events;
    let len = store.read("job-size").unwrap().len();

    let (mut frames, mut duplicates, mut cuts) = (0, 0, 0);
    for (i, (offset, event)) in events.iter().enumerate() {
        if let JournalEvent::CheckpointCut {
            duplicates: held, ..
        } = event
        {
            let end = events.get(i + 1).map_or(len, |next| next.0 as usize);
            frames += end - *offset as usize;
            duplicates += held.len();
            cuts += 1;
        }
    }
    assert!(
        cuts > 0 && duplicates > 0,
        "{cuts} cuts, {duplicates} duplicates"
    );
    assert!(
        frames <= 16 * duplicates + 40 * cuts,
        "{cuts} cuts holding {duplicates} duplicates take {frames} bytes"
    );
    assert!(run.counters.get("pairs_compared") > 4 * duplicates as u64);
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
/// with `BadState` before any stage runs and leaves the log as it was.
#[test]
fn a_resume_against_another_dataset_is_refused() {
    let er = small_pipeline();
    let ds = dataset();
    let (events, bytes) = finished_journal(&er, &ds, "job-pinned");
    let JournalEvent::JobStarted { params, .. } = &events[0].1 else {
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
}

/// `machines`, `checkpoint_every` and `dataset` are in every journal
/// `run_durable` writes, and a resume needs each: a journal whose
/// `JobStarted` lacks one is refused with `BadState` naming it, before
/// anything is appended — not resumed on the configured machine count, the
/// options' grid or an unchecked dataset.
#[test]
fn a_journal_without_a_required_parameter_is_refused() {
    let ds = dataset();
    let er = small_pipeline();
    let (events, _) = finished_journal(&er, &ds, "job-params");
    let mut killed = killed_mid_reduce(&events);
    let JournalEvent::JobStarted { params, .. } = killed[0].clone() else {
        panic!("the log starts with JobStarted");
    };
    for key in ["machines", "checkpoint_every", "dataset"] {
        if let JournalEvent::JobStarted { params: kept, .. } = &mut killed[0] {
            *kept = params.iter().filter(|(k, _)| k != key).cloned().collect();
        }
        let store = journal_of("job-params", &killed);
        let before = store.read("job-params").unwrap();
        let refused = resume_durable(&er, &ds, &store, "job-params", &opts(EVERY));
        let Err(DurableError::Journal(JournalError::BadState(why))) = refused else {
            panic!("a journal without '{key}' was not refused: {refused:?}");
        };
        assert!(why.contains(&format!("'{key}'")), "{why}");
        assert_eq!(store.read("job-params").unwrap(), before, "{key}");
    }
}

/// `run_durable` writes `machines`, `checkpoint_every` and `dataset` from
/// the configuration, the options and the dataset, after the caller's
/// parameters. A caller's entry under one of those keys is refused with
/// the typed configuration error before any journal exists: it would
/// shadow the value the run used (a 2-machine run journaled as cut on 4
/// machines, which no resume of that configuration accepts).
#[test]
fn a_caller_may_not_set_the_parameters_a_resume_checks() {
    let ds = dataset();
    let er = small_pipeline();
    for key in ["machines", "checkpoint_every", "dataset"] {
        let store = MemStore::shared();
        let params = [(key.to_string(), "4".to_string())];
        let refused = run_durable(&er, &ds, &store, "job-shadow", &params, &opts(EVERY));
        assert!(
            matches!(refused, Err(DurableError::Run(MrError::InvalidConfig(_)))),
            "{key}: {refused:?}"
        );
        assert!(store.list_jobs().unwrap().is_empty(), "{key}");
    }

    let store = MemStore::shared();
    let params = [("data".to_string(), "pubs.json".to_string())];
    run_durable(&er, &ds, &store, "job-shadow", &params, &opts(EVERY)).unwrap();
    let events = recover(&store, "job-shadow").unwrap().events;
    let JournalEvent::JobStarted { params, .. } = &events[0].1 else {
        panic!("the log starts with JobStarted");
    };
    let keys: Vec<&str> = params.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["data", "machines", "checkpoint_every", "dataset"]);
    assert_eq!((params[1].1.as_str(), params[2].1.as_str()), ("2", "1500"));
}

/// A cluster with no machines is refused before the journal is created,
/// like the other parameters `run_durable` checks: a run that cannot start
/// leaves no unfinished job behind for `pper jobs` to list.
#[test]
fn a_durable_run_with_no_machines_leaves_no_journal() {
    let ds = dataset();
    let store = MemStore::shared();
    let er = ProgressiveEr::new(ErConfig::citeseer(0));
    let refused = run_durable(&er, &ds, &store, "job-empty", &[], &opts(EVERY));
    assert!(
        matches!(refused, Err(DurableError::Run(MrError::InvalidCluster(_)))),
        "{refused:?}"
    );
    assert!(store.list_jobs().unwrap().is_empty());
}

/// Job 1's journaled cost is outside input: it becomes the resumed
/// timeline's offset. A resume re-runs job 1, and refuses a
/// `ScheduleGenerated` whose cost is not its own bit for bit — NaN, a
/// negative cost, infinity, one ulp off — with the typed checkpoint error
/// before anything is appended: never a resumed run whose total cost holds
/// it.
#[test]
fn a_journaled_job1_cost_that_is_not_a_cost_is_refused() {
    let ds = dataset();
    let er = small_pipeline();
    let (events, _) = finished_journal(&er, &ds, "job-cost");
    let mut killed = killed_mid_reduce(&events);
    let record = killed
        .iter()
        .position(|e| matches!(e, JournalEvent::ScheduleGenerated { .. }))
        .expect("a ScheduleGenerated record before the kill");
    let JournalEvent::ScheduleGenerated { job1_cost: run, .. } = killed[record] else {
        unreachable!()
    };
    let ulp_off = f64::from_bits(run.to_bits() + 1);
    for cost in [f64::NAN, -1e6, f64::INFINITY, ulp_off] {
        if let JournalEvent::ScheduleGenerated { job1_cost, .. } = &mut killed[record] {
            *job1_cost = cost;
        }
        refused_checkpoint(&er, &ds, &killed, &format!("{cost}"));
    }
}

/// A checkpoint is tied to the machine count it was cut on (the wave layout
/// decides the global timeline): a journal written at μ = 2 and killed inside
/// the reduce phase is refused by a resume configured for μ = 3, with the
/// typed checkpoint error, before anything is appended.
#[test]
fn a_resume_on_another_machine_count_is_refused() {
    let ds = dataset();
    let (events, _) = finished_journal(&small_pipeline(), &ds, "job-mu");
    let other = ProgressiveEr::new(ErConfig::citeseer(3));
    refused_checkpoint(&other, &ds, &killed_mid_reduce(&events), "μ = 3");
}

/// The journal keeps the schedule's digest, not the schedule: a resume
/// regenerates the schedule and refuses a digest other than its own — one
/// bit flipped — with the typed checkpoint error, before anything is
/// appended.
#[test]
fn a_journaled_digest_one_bit_off_is_refused() {
    let ds = dataset();
    let er = small_pipeline();
    let (events, _) = finished_journal(&er, &ds, "job-digest");
    let mut killed = killed_mid_reduce(&events);
    for event in &mut killed {
        if let JournalEvent::ScheduleGenerated { digest, .. } = event {
            *digest ^= 1 << 17;
        }
    }
    let why = refused_checkpoint(&er, &ds, &killed, "a flipped digest bit");
    assert!(why.contains("schedule"), "{why}");
}

/// A resume configured with another scheduler than the run's generates
/// another schedule, and the cuts index into the run's: it is refused with
/// the typed checkpoint error before anything is appended.
#[test]
fn a_resume_with_another_scheduler_is_refused() {
    let ds = dataset();
    let (events, _) = finished_journal(&small_pipeline(), &ds, "job-lpt");
    let mut other = small_pipeline();
    other.config.schedule.scheduler = pper_schedule::TreeScheduler::Lpt;
    refused_checkpoint(&other, &ds, &killed_mid_reduce(&events), "LPT");
}

/// A checkpointed duplicate is outside input too: one at a cost that is
/// not finite and non-negative, or whose ids are not two distinct entities
/// of the dataset, is refused with the typed checkpoint error before any
/// task starts and before anything is appended — never a panic, and never
/// a resumed timeline that holds it.
#[test]
fn a_checkpointed_duplicate_that_does_not_fit_is_refused() {
    type Defect = fn(&mut (f64, u32, u32), u32);
    let defects: [(&str, Defect); 5] = [
        ("b past the entities", |d, n| d.2 = n),
        ("a at u32::MAX", |d, _| d.1 = u32::MAX),
        ("a pair of one entity", |d, _| d.2 = d.1),
        ("NaN cost", |d, _| d.0 = f64::NAN),
        ("negative cost", |d, _| d.0 = -1.0),
    ];
    let ds = dataset();
    let er = small_pipeline();
    let entities = u32::try_from(ds.len()).unwrap();
    let (events, _) = finished_journal(&er, &ds, "job-dup");
    let killed = killed_mid_reduce(&events);
    // The first cut with duplicates: its task's first checkpointed ones.
    let spoilt = killed
        .iter()
        .position(|e| {
            matches!(e, JournalEvent::CheckpointCut { duplicates, .. } if !duplicates.is_empty())
        })
        .expect("a cut with duplicates before the kill");
    for (what, defect) in defects {
        let mut events = killed.clone();
        if let JournalEvent::CheckpointCut { duplicates, .. } = &mut events[spoilt] {
            defect(&mut duplicates[0], entities);
        }
        refused_checkpoint(&er, &ds, &events, what);
    }
}

/// More blocking families than a dominance list holds: `try_run` and
/// `run_durable` refuse the configuration with the typed error before any
/// task starts or any journal exists, and a resume refuses it before
/// anything is appended.
#[test]
fn too_many_families_are_refused_before_any_job() {
    let ds = dataset();
    let mut er = small_pipeline();
    while er.config.families.len() <= pper_schedule::MAX_FAMILIES {
        let extra = er.config.families[0].clone();
        er.config.families.push(extra);
    }
    let started = Arc::new(Mutex::new(0));
    let seen = Arc::clone(&started);
    er.config.observer = Some(pper_mapreduce::TaskObserver::new(move |_| {
        *seen.lock() += 1
    }));
    let refused = er.try_run(&ds);
    assert!(
        matches!(refused, Err(MrError::InvalidConfig(_))),
        "{refused:?}"
    );
    assert_eq!(*started.lock(), 0, "a task ran");

    let store = MemStore::shared();
    let refused = run_durable(&er, &ds, &store, "job-wide", &[], &opts(EVERY));
    assert!(
        matches!(refused, Err(DurableError::Run(MrError::InvalidConfig(_)))),
        "{refused:?}"
    );
    assert!(store.list_jobs().unwrap().is_empty());

    let (events, bytes) = finished_journal(&small_pipeline(), &ds, "job-wide");
    let cuts = cut_positions(&events);
    let killed = &bytes[..events[cuts[cuts.len() / 2] + 1].0 as usize];
    let store = store_holding("job-wide", killed);
    let refused = resume_durable(&er, &ds, &store, "job-wide", &opts(EVERY));
    assert!(
        matches!(refused, Err(DurableError::Run(MrError::InvalidConfig(_)))),
        "{refused:?}"
    );
    assert_eq!(store.read("job-wide").unwrap(), killed);
}

/// A log written by format version 1, 3 or 4 is refused with the typed
/// error by every entry point — there is no second reader.
#[test]
fn a_version_1_journal_is_unsupported() {
    let er = small_pipeline();
    let ds = dataset();
    for found in [1, 3, 4] {
        let store = store_holding("job-old", &[b"PPERJNL".as_slice(), &[found]].concat());
        let unsupported = |result: Result<ErRunResult, DurableError>| {
            matches!(
                result,
                Err(DurableError::Journal(JournalError::UnsupportedVersion {
                    found: f,
                    supported: 5
                })) if f == found
            )
        };
        let o = opts(EVERY);
        assert!(unsupported(resume_durable(&er, &ds, &store, "job-old", &o)));
        assert!(unsupported(reprocess_dlq(&er, &ds, &store, "job-old", &o)));
        assert!(unsupported(run_durable(
            &er,
            &ds,
            &store,
            "job-old",
            &[],
            &o
        )));
    }
}

/// The dead-letter round trip, for both ways an attempt can die after it
/// has cut checkpoints: legacy discard (every attempt runs the task to its
/// end and is thrown away) and a crash in mid-reduce (every attempt dies
/// once its clock passes the task's second cut). The dead attempts' cuts
/// are durable, their re-runs re-emit them, and each `(task, seq)` is in
/// the log exactly once; the exhausted task leaves one record, its capture,
/// which carries the failure history; reprocessing with the fault removed
/// equals the fault-free run bit for bit.
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
        assert_eq!(entry.job, "pper-job2-resolution");
        let captures = rec
            .events
            .iter()
            .filter(|(_, e)| matches!(e, JournalEvent::DeadLettered { .. }))
            .count();
        assert_eq!(captures, 1, "one record per exhausted task");

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

/// A dead-letter `seq` is read back from the journal, outside input: a
/// crafted capture at `u32::MAX` replays without overflow, and the next
/// capture the job needs is refused with the typed journal error rather
/// than a wrapped or panicking sequence number.
#[test]
fn an_exhausted_dead_letter_sequence_is_a_typed_error() {
    let ds = dataset();
    let mut faulty = small_pipeline();
    faulty.config.faults = Some(FaultPlan::fail_reduce(0, 4));
    let store = MemStore::shared();
    run_durable(&faulty, &ds, &store, "job-seq", &[], &opts(EVERY))
        .expect_err("exhausted task must fail the durable run");
    let mut events: Vec<JournalEvent> = recover(&store, "job-seq")
        .unwrap()
        .events
        .into_iter()
        .map(|(_, e)| e)
        .collect();
    for event in &mut events {
        if let JournalEvent::DeadLettered { seq, .. } = event {
            *seq = u32::MAX;
        }
    }
    let crafted = journal_of("job-seq", &events);
    let state = JournalState::replay(&recover(&crafted, "job-seq").unwrap().events);
    assert_eq!(state.next_dlq_seq, u64::from(u32::MAX) + 1);
    assert_eq!(state.dlq.len(), 1);

    let refused = resume_durable(&faulty, &ds, &crafted, "job-seq", &opts(EVERY));
    let Err(DurableError::Journal(JournalError::BadState(why))) = refused else {
        panic!("an exhausted sequence was not refused: {refused:?}");
    };
    assert!(why.contains("dead-letter sequence"), "{why}");
}

/// Attempts that die below the budget after they have cut — one discarded
/// at its end, one crashed in mid-reduce: the retries re-emit the dead
/// attempts' records, none is appended twice, and the run ends in the
/// fault-free duplicates (re-execution delays the retried tasks' events, so
/// only the clock readings differ). At one worker thread the writer is
/// called by one task at a time; at two and eight, concurrently, and its one
/// lock must still append each task's records in line.
#[test]
fn a_retried_attempt_does_not_journal_its_cuts_twice() {
    let ds = dataset();
    let er = small_pipeline();
    let golden = ResultFingerprint::of(&er.try_run(&ds).unwrap());
    let (healthy, _) = finished_journal(&er, &ds, "job-retry");
    let task1_clocks = cut_clocks(&healthy, 1);
    assert!(task1_clocks.len() >= 3, "task 1 cuts {task1_clocks:?}");

    for threads in [1, 2, 8] {
        let mut faulty = threaded_pipeline(threads);
        faulty.config.faults = Some(FaultPlan::fail_reduce(0, 1).with_abort(
            TaskKind::Reduce,
            1,
            1,
            task1_clocks[1] + 1.0,
        ));
        let store = MemStore::shared();
        let run = run_durable(&faulty, &ds, &store, "job-retry", &[], &opts(EVERY)).unwrap();
        assert_eq!(run.counters.get("task_retries"), 2, "{threads} thread(s)");
        assert_eq!(ResultFingerprint::of(&run).duplicates, golden.duplicates);

        let events = recover(&store, "job-retry").unwrap().events;
        assert_cuts_unique_and_ordered(&events);
        assert_eq!(
            cuts_by_task(&events),
            cuts_by_task(&healthy),
            "{threads} thread(s)"
        );
    }
}

/// A job id names one run. A second fresh run on a journaled id would
/// append its records behind the first run's — here a second capture under
/// dead-letter `seq` 0, which a reprocess would then drain twice — so it is
/// refused with the typed journal error, and the log keeps its one capture.
#[test]
fn a_second_fresh_run_on_a_journaled_job_id_is_refused() {
    let ds = PubGen::new(600, 417).generate();
    let mut faulty = small_pipeline();
    faulty.config.faults = Some(FaultPlan::fail_reduce(0, 9));
    let store = MemStore::shared();
    let o = DurableOptions::default();
    let first = run_durable(&faulty, &ds, &store, "job-twice", &[], &o);
    assert!(
        matches!(first, Err(DurableError::DeadLettered { .. })),
        "{first:?}"
    );
    let before = store.read("job-twice").unwrap();

    let second = run_durable(&faulty, &ds, &store, "job-twice", &[], &o);
    let Err(DurableError::Journal(JournalError::BadState(why))) = second else {
        panic!("a second run on a journaled job id was not refused: {second:?}");
    };
    assert!(why.contains("names one run"), "{why}");
    assert_eq!(store.read("job-twice").unwrap(), before);
    let events = recover(&store, "job-twice").unwrap().events;
    let captures: Vec<u32> = events
        .iter()
        .filter_map(|(_, e)| match e {
            JournalEvent::DeadLettered { seq, .. } => Some(*seq),
            _ => None,
        })
        .collect();
    assert_eq!(captures, [0]);
    assert_eq!(JournalState::replay(&events).dlq.len(), 1);
}

/// A fresh run on a log with a torn tail would append behind the garbage,
/// where no recovery reads it; it is refused, the bytes stay as they were,
/// and the resume that truncates the tail first ends in the fault-free run.
#[test]
fn a_fresh_run_on_a_torn_journal_is_refused() {
    let ds = PubGen::new(600, 417).generate();
    let er = small_pipeline();
    let o = DurableOptions::default();
    let full = MemStore::shared();
    let golden = ResultFingerprint::of(&run_durable(&er, &ds, &full, "job-torn", &[], &o).unwrap());
    let bytes = full.read("job-torn").unwrap();
    let torn = &bytes[..bytes.len() - 3];
    let store = store_holding("job-torn", torn);
    let rec = recover(&store, "job-torn").unwrap();
    assert!(rec.report.torn_tail && !rec.report.corrupt);

    let refused = run_durable(&er, &ds, &store, "job-torn", &[], &o);
    let Err(DurableError::Journal(JournalError::BadState(why))) = refused else {
        let duplicates = refused.map(|run| run.duplicates.len());
        panic!("a fresh run on a torn journal was not refused: {duplicates:?}");
    };
    assert!(why.contains("names one run"), "{why}");
    assert_eq!(store.read("job-torn").unwrap(), torn);

    let resumed = resume_durable(&er, &ds, &store, "job-torn", &o).unwrap();
    assert_eq!(ResultFingerprint::of(&resumed), golden);
    assert!(recover(&store, "job-torn").unwrap().report.clean());
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

/// A dataset whose run appends more than two budgets of records after its
/// schedule (about 10 bytes per entity: a cut holds its duplicates, not
/// its compared pairs), so the budget triggers syncs of its own.
fn budget_dataset() -> Dataset {
    PubGen::new(36_000, 417).generate()
}

/// Where the syncs fall. A finished run's log is synced to its end when the
/// call returns, and so is a resumed run's and one that ends dead-lettered;
/// the schedule is on disk before the first cut is appended; in between, no
/// more than one budget (and the record that crossed it) is ever unsynced;
/// and all of it takes a small fraction of a sync per record.
#[test]
fn syncs_are_grouped_and_cover_everything_a_return_reports() {
    let ds = budget_dataset();
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
    let ds = budget_dataset();
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
    let ds = budget_dataset();
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
                count("pairs_compared") + count("resume_replayed_pairs"),
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
