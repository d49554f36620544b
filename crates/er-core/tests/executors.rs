//! Cross-backend fingerprint parity for the full ER pipeline.
//!
//! The executor backend (`pper_mapreduce::ExecutorKind`) decides only which
//! OS thread runs which simulated task; every virtual-time observable of an
//! ER run — the duplicate stream, recall curve, counters, total cost — must
//! be bit-identical across backends and thread counts. These tests sweep
//! the progressive pipeline, the basic approach, and the durable runner
//! (including a kill-point journal prefix resumed under a *different*
//! backend) over the cursor and work-stealing executors at 1/2/8 worker
//! threads.

use std::sync::Arc;

use pper_datagen::PubGen;
use pper_er::prelude::*;
use pper_journal::{recover, JournalStore, MemStore};
use pper_mapreduce::{ExecutorKind, FaultPlan, ShuffleSpillConfig};

const BACKENDS: &[ExecutorKind] = &[ExecutorKind::Cursor, ExecutorKind::WorkStealing];

const THREADS: &[usize] = &[1, 2, 8];

fn dataset() -> pper_datagen::Dataset {
    PubGen::new(1_200, 417).generate()
}

fn config(backend: ExecutorKind, threads: usize) -> ErConfig {
    let mut config = ErConfig::citeseer(2).with_executor(backend);
    config.worker_threads = Some(threads);
    config
}

#[test]
fn pipeline_fingerprint_identical_across_backends() {
    let ds = dataset();
    let golden = ResultFingerprint::of(
        &ProgressiveEr::new(config(ExecutorKind::Cursor, 1))
            .try_run(&ds)
            .unwrap(),
    );
    for &backend in BACKENDS {
        for &threads in THREADS {
            let run = ProgressiveEr::new(config(backend, threads))
                .try_run(&ds)
                .unwrap();
            assert_eq!(
                ResultFingerprint::of(&run),
                golden,
                "backend={} threads={threads}",
                backend.name()
            );
        }
    }
}

#[test]
fn basic_fingerprint_identical_across_backends() {
    let ds = dataset();
    let run = |backend, threads| {
        BasicApproach::new(config(backend, threads), BasicConfig::popcorn(15, 0.01))
            .run(&ds)
            .unwrap()
    };
    let golden = ResultFingerprint::of(&run(ExecutorKind::Cursor, 1));
    for &backend in BACKENDS {
        for &threads in THREADS {
            assert_eq!(
                ResultFingerprint::of(&run(backend, threads)),
                golden,
                "backend={} threads={threads}",
                backend.name()
            );
        }
    }
}

#[test]
fn faulted_and_spilling_pipeline_identical_across_backends() {
    let ds = dataset();
    let clean_golden = ResultFingerprint::of(
        &ProgressiveEr::new(config(ExecutorKind::Cursor, 1))
            .try_run(&ds)
            .unwrap(),
    );
    // A retried reduce task wastes virtual time on its own clock, so
    // faulted runs have their own golden — identical across backends, but
    // deliberately not compared against the clean one.
    let faulted_run = |backend| {
        let mut config = config(backend, 8);
        config.faults = Some(FaultPlan::fail_reduce(0, 2));
        let run = ProgressiveEr::new(config).try_run(&ds).unwrap();
        assert!(run.counters.get("task_retries") >= 2);
        ResultFingerprint::of(&run)
    };
    let faulted_golden = faulted_run(ExecutorKind::Cursor);
    for &backend in BACKENDS {
        assert_eq!(
            faulted_run(backend),
            faulted_golden,
            "faulted backend={}",
            backend.name()
        );

        // Spilling only trades memory for disk: its virtual time is
        // bit-identical to the in-memory shuffle, under every backend.
        let spilling = config(backend, 8).with_shuffle_spill(ShuffleSpillConfig::new(50));
        let run = ProgressiveEr::new(spilling).try_run(&ds).unwrap();
        assert!(run.counters.get("shuffle_spilled_partitions") > 0);
        assert_eq!(
            ResultFingerprint::of(&run),
            clean_golden,
            "spilling backend={}",
            backend.name()
        );
    }
}

#[test]
fn durable_run_and_cross_backend_resume_identical() {
    let ds = dataset();
    let opts = DurableOptions {
        checkpoint_every: 1_500.0,
        kill_after_events: None,
    };
    let golden = ResultFingerprint::of(
        &ProgressiveEr::new(config(ExecutorKind::Cursor, 1))
            .try_run(&ds)
            .unwrap(),
    );

    for &backend in BACKENDS {
        let er = ProgressiveEr::new(config(backend, 2));
        let store = MemStore::shared();
        let result = run_durable(&er, &ds, &store, "job-exec", &[], &opts).unwrap();
        assert_eq!(
            ResultFingerprint::of(&result),
            golden,
            "durable backend={}",
            backend.name()
        );
    }

    // Truncate a finished cursor-backend journal to a mid-run prefix —
    // exactly the bytes a kill -9 would have left — then resume it under
    // the work-stealing backend at a different thread count: the journal
    // replays task-by-task, so the backend of the resuming process must
    // not matter.
    let store = MemStore::shared();
    let er = ProgressiveEr::new(config(ExecutorKind::Cursor, 2));
    run_durable(&er, &ds, &store, "job-exec-kill", &[], &opts).unwrap();
    let rec = recover(&store, "job-exec-kill").unwrap();
    assert!(rec.report.clean());
    let bytes = store.read("job-exec-kill").unwrap();
    let cut = rec.events[rec.events.len() / 2].0 as usize;

    let replay: Arc<dyn JournalStore> = MemStore::shared();
    replay.append("job-exec-kill", &bytes[..cut]).unwrap();
    let thief = ProgressiveEr::new(config(ExecutorKind::WorkStealing, 8));
    let resumed = resume_durable(&thief, &ds, &replay, "job-exec-kill", &opts).unwrap();
    assert_eq!(ResultFingerprint::of(&resumed), golden);
}
