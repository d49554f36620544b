//! Thread-count fingerprint parity for the full ER pipeline.
//!
//! Task dispatch (`pper_mapreduce::exec`) decides only which OS thread runs
//! which simulated task; every virtual-time observable of an ER run — the
//! duplicate stream, recall curve, counters, total cost — must be
//! bit-identical at every thread count. These tests sweep the progressive
//! pipeline, the basic approach, and the durable runner (including a
//! kill-point journal prefix resumed at a *different* thread count) over
//! 1/2/8 worker threads.

use std::sync::Arc;

use pper_datagen::PubGen;
use pper_er::prelude::*;
use pper_journal::{recover, JournalStore, MemStore};
use pper_mapreduce::{FaultPlan, ShuffleSpillConfig};

const THREADS: &[usize] = &[1, 2, 8];

fn dataset() -> pper_datagen::Dataset {
    PubGen::new(1_200, 417).generate()
}

fn config(threads: usize) -> ErConfig {
    let mut config = ErConfig::citeseer(2);
    config.worker_threads = Some(threads);
    config
}

#[test]
fn pipeline_fingerprint_identical_across_thread_counts() {
    let ds = dataset();
    let golden = ResultFingerprint::of(&ProgressiveEr::new(config(1)).try_run(&ds).unwrap());
    for &threads in THREADS {
        let run = ProgressiveEr::new(config(threads)).try_run(&ds).unwrap();
        assert_eq!(ResultFingerprint::of(&run), golden, "threads={threads}");
    }
}

#[test]
fn basic_fingerprint_identical_across_thread_counts() {
    let ds = dataset();
    let run = |threads| {
        BasicApproach::new(config(threads), BasicConfig::popcorn(15, 0.01))
            .run(&ds)
            .unwrap()
    };
    let golden = ResultFingerprint::of(&run(1));
    for &threads in THREADS {
        assert_eq!(
            ResultFingerprint::of(&run(threads)),
            golden,
            "threads={threads}"
        );
    }
}

#[test]
fn faulted_and_spilling_pipeline_identical_across_thread_counts() {
    let ds = dataset();
    let clean_golden = ResultFingerprint::of(&ProgressiveEr::new(config(1)).try_run(&ds).unwrap());
    // A retried reduce task wastes virtual time on its own clock, so
    // faulted runs have their own golden — identical at every thread count,
    // but deliberately not compared against the clean one.
    let faulted_run = |threads| {
        let mut config = config(threads);
        config.faults = Some(FaultPlan::fail_reduce(0, 2));
        let run = ProgressiveEr::new(config).try_run(&ds).unwrap();
        assert!(run.counters.get("task_retries") >= 2);
        ResultFingerprint::of(&run)
    };
    let faulted_golden = faulted_run(1);
    for &threads in THREADS {
        assert_eq!(
            faulted_run(threads),
            faulted_golden,
            "faulted threads={threads}"
        );

        // Spilling only trades memory for disk: its virtual time is
        // bit-identical to the in-memory shuffle, at every thread count.
        let spilling = config(threads).with_shuffle_spill(ShuffleSpillConfig::new(50));
        let run = ProgressiveEr::new(spilling).try_run(&ds).unwrap();
        assert!(run.counters.get("shuffle_spilled_partitions") > 0);
        assert_eq!(
            ResultFingerprint::of(&run),
            clean_golden,
            "spilling threads={threads}"
        );
    }
}

#[test]
fn durable_run_and_cross_thread_count_resume_identical() {
    let ds = dataset();
    let opts = DurableOptions {
        checkpoint_every: 1_500.0,
        kill_after_events: None,
    };
    let golden = ResultFingerprint::of(&ProgressiveEr::new(config(1)).try_run(&ds).unwrap());

    for &threads in THREADS {
        let er = ProgressiveEr::new(config(threads));
        let store = MemStore::shared();
        let result = run_durable(&er, &ds, &store, "job-exec", &[], &opts).unwrap();
        assert_eq!(
            ResultFingerprint::of(&result),
            golden,
            "durable threads={threads}"
        );
    }

    // Truncate a finished 2-thread journal to a mid-run prefix — exactly
    // the bytes a kill -9 would have left — then resume it on 8 threads:
    // the journal replays task-by-task, so the thread count of the
    // resuming process must not matter.
    let store = MemStore::shared();
    let er = ProgressiveEr::new(config(2));
    run_durable(&er, &ds, &store, "job-exec-kill", &[], &opts).unwrap();
    let rec = recover(&store, "job-exec-kill").unwrap();
    assert!(rec.report.clean());
    let bytes = store.read("job-exec-kill").unwrap();
    let cut = rec.events[rec.events.len() / 2].0 as usize;

    let replay: Arc<dyn JournalStore> = MemStore::shared();
    replay.append("job-exec-kill", &bytes[..cut]).unwrap();
    let wider = ProgressiveEr::new(config(8));
    let resumed = resume_durable(&wider, &ds, &replay, "job-exec-kill", &opts).unwrap();
    assert_eq!(ResultFingerprint::of(&resumed), golden);
}
