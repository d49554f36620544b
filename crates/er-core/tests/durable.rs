//! Durable runner conformance: journaled runs fingerprint-identical to
//! plain runs, an in-process kill-point sweep over journal prefixes, and
//! the dead-letter round trip.
//!
//! The *process-level* kill sweep (child `pper` processes aborted at every
//! event boundary) lives in the root package's `tests/resume_process.rs`;
//! here the same boundary sweep is driven in-process by replaying every
//! durable byte prefix of a finished journal into a fresh store — exactly
//! the bytes a `kill -9` after the N-th synced append would have left.

use std::sync::Arc;

use pper_datagen::PubGen;
use pper_er::prelude::*;
use pper_journal::{recover, JournalState, JournalStore, MemStore};
use pper_mapreduce::FaultPlan;

fn small_pipeline() -> ProgressiveEr {
    ProgressiveEr::new(ErConfig::citeseer(2))
}

fn dataset() -> pper_datagen::Dataset {
    PubGen::new(1_200, 417).generate()
}

fn opts(every: f64) -> DurableOptions {
    DurableOptions {
        checkpoint_every: every,
        kill_after_events: None,
    }
}

#[test]
fn durable_run_matches_plain_run() {
    let er = small_pipeline();
    let ds = dataset();
    let golden = ResultFingerprint::of(&er.try_run(&ds).unwrap());

    let store = MemStore::shared();
    let result = run_durable(&er, &ds, &store, "job-plain", &[], &opts(1_500.0)).unwrap();
    assert_eq!(ResultFingerprint::of(&result), golden);

    // The journal tells the whole story: started, finished, every task.
    let rec = recover(&store, "job-plain").unwrap();
    assert!(rec.report.clean());
    let state = JournalState::replay(&rec.events);
    assert_eq!(state.job_id.as_deref(), Some("job-plain"));
    assert_eq!(state.param("checkpoint_every"), Some("1500"));
    assert!(state.job1_cost.is_some());
    assert!(state.schedule.is_some());
    assert!(state.last_checkpoint.is_some());
    assert!(state.tasks_finished > 0);
    assert!(state.dlq.is_empty());
    let (dups, total_cost) = state.finished.expect("job-finished event");
    assert_eq!(dups, golden.duplicates.len() as u64);
    assert_eq!(total_cost.to_bits(), golden.total_cost_bits);
    assert!(!state.counters.is_empty());
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

/// In-process kill-point sweep: every durable byte prefix of a finished
/// journal — exactly what a `kill -9` right after the N-th synced append
/// leaves on disk — resumes in a fresh store to the bit-identical result.
#[test]
fn every_journal_prefix_resumes_bit_identically() {
    let er = small_pipeline();
    let ds = dataset();
    let golden = ResultFingerprint::of(&er.try_run(&ds).unwrap());

    let store = MemStore::shared();
    run_durable(&er, &ds, &store, "job-sweep", &[], &opts(1_500.0)).unwrap();
    let rec = recover(&store, "job-sweep").unwrap();
    assert!(rec.report.clean());
    let bytes = store.read("job-sweep").unwrap();

    // Event boundaries: each event's start offset (skipping the first —
    // a prefix with zero events has nothing to resume) plus the full log.
    let mut boundaries: Vec<usize> = rec.events[1..]
        .iter()
        .map(|&(off, _)| off as usize)
        .collect();
    boundaries.push(bytes.len());
    assert!(
        boundaries.len() >= 6,
        "want a meaningful sweep, got {} boundaries",
        boundaries.len()
    );

    for (i, &cut) in boundaries.iter().enumerate() {
        let replay: Arc<dyn JournalStore> = MemStore::shared();
        replay.append("job-sweep", &bytes[..cut]).unwrap();
        let resumed = resume_durable(&er, &ds, &replay, "job-sweep", &opts(1_500.0))
            .unwrap_or_else(|e| panic!("resume at boundary {i} (byte {cut}) failed: {e}"));
        assert_eq!(
            ResultFingerprint::of(&resumed),
            golden,
            "boundary {i} (byte {cut}) diverged"
        );
    }
}

/// A kill mid-append leaves a torn tail behind the last boundary; resume
/// must drop it (and truncate, so new records stay reachable) and still
/// reach the identical result.
#[test]
fn resume_recovers_from_torn_tail() {
    let er = small_pipeline();
    let ds = dataset();
    let golden = ResultFingerprint::of(&er.try_run(&ds).unwrap());

    let store = MemStore::shared();
    run_durable(&er, &ds, &store, "job-torn", &[], &opts(1_500.0)).unwrap();
    let bytes = store.read("job-torn").unwrap();
    let rec = recover(&store, "job-torn").unwrap();
    // Cut mid-record: half-way into the final event's frame.
    let last_off = rec.events.last().unwrap().0 as usize;
    let cut = last_off + (bytes.len() - last_off) / 2;
    assert!(cut > last_off && cut < bytes.len());

    let replay: Arc<dyn JournalStore> = MemStore::shared();
    replay.append("job-torn", &bytes[..cut]).unwrap();
    let pre = recover(&replay, "job-torn").unwrap();
    assert!(pre.report.torn_tail);

    let resumed = resume_durable(&er, &ds, &replay, "job-torn", &opts(1_500.0)).unwrap();
    assert_eq!(ResultFingerprint::of(&resumed), golden);
    // The torn bytes were truncated away before new appends, so the whole
    // log is valid again.
    let post = recover(&replay, "job-torn").unwrap();
    assert!(post.report.clean());
}

#[test]
fn resume_of_empty_journal_is_an_error() {
    let er = small_pipeline();
    let ds = dataset();
    let store = MemStore::shared();
    let err = resume_durable(&er, &ds, &store, "job-none", &opts(1_500.0));
    assert!(err.is_err(), "no journal should not resume");
}

/// The dead-letter round trip: a task exhausting its attempt budget lands
/// in the DLQ with full failure history and context; reprocessing with the
/// fault removed equals the fault-free run bit for bit.
#[test]
fn dlq_captures_exhausted_task_and_reprocesses() {
    let ds = dataset();
    let golden_er = small_pipeline();
    let golden = ResultFingerprint::of(&golden_er.try_run(&ds).unwrap());

    let mut faulty = small_pipeline();
    // Default attempt budget is 4; 4 failing attempts exhaust it.
    faulty.config.faults = Some(FaultPlan::fail_reduce(0, 4));

    let store = MemStore::shared();
    let err = run_durable(&faulty, &ds, &store, "job-dlq", &[], &opts(1_500.0))
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
    // Byte for byte what journals have always recorded for a plain name.
    assert_eq!(
        entry.context_json,
        format!(
            "{{\"stage\":\"job2-crash\",\"dataset\":\"{}\",\"task\":\"reduce-0\",\
             \"crash_at\":1500,\"checkpoint_offset\":null}}",
            ds.name
        )
    );

    // Drain the queue with the fault gone: bit-identical to fault-free.
    let reprocessed = reprocess_dlq(&faulty, &ds, &store, "job-dlq", &opts(1_500.0)).unwrap();
    assert_eq!(ResultFingerprint::of(&reprocessed), golden);

    // The journal now records the drain; the DLQ folds back to empty.
    let state = JournalState::replay(&recover(&store, "job-dlq").unwrap().events);
    assert!(state.dlq.is_empty(), "drained entries must leave the DLQ");
    assert!(state.finished.is_some());

    // A second reprocess has nothing to drain.
    assert!(reprocess_dlq(&faulty, &ds, &store, "job-dlq", &opts(1_500.0)).is_err());
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
    run_durable(&faulty, &ds, &store, "job-name", &[], &opts(1_500.0))
        .expect_err("exhausted task must fail the durable run");
    let state = JournalState::replay(&recover(&store, "job-name").unwrap().events);
    let context = serde_json::parse_value_str(&state.dlq[0].context_json)
        .expect("context_json must parse as JSON");
    let serde::Value::Map(fields) = context else {
        panic!("context_json must be an object, got {context:?}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["stage", "dataset", "task", "crash_at", "checkpoint_offset"]
    );
    assert_eq!(fields[1].1, serde::Value::Str(ds.name.clone()));
}
