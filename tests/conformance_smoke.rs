//! Tier-1 smokes of two conformance families whose full sweeps live in the
//! member crates (`crates/er-core/tests/{resume_checkpoint,durable,executors}.rs`):
//!
//! * **resume** — however a run is cut into stages, in process or through
//!   the durable journal, it ends in the uninterrupted run's fingerprint;
//! * **executors** — the dispatch backend and the thread count reach no
//!   observable.

use std::sync::Arc;

use pper::datagen::{BookGen, Dataset};
use pper::er::checkpoint::Checkpoint;
use pper::er::prelude::*;
use pper::journal::{recover, JournalState, JournalStore, MemStore};
use pper::mapreduce::ExecutorKind;

fn dataset() -> Dataset {
    BookGen::new(1_200, 611).generate()
}

fn pipeline() -> ProgressiveEr {
    ProgressiveEr::new(ErConfig::books(2))
}

fn fingerprint(er: &ProgressiveEr, ds: &Dataset) -> ResultFingerprint {
    ResultFingerprint::of(&er.try_run(ds).unwrap())
}

fn cut(er: &ProgressiveEr, ds: &Dataset, from: Option<&Checkpoint>, at: f64) -> Checkpoint {
    er.run_stage(ds, from, Some(at))
        .unwrap()
        .cut()
        .expect("a stage with a threshold is cut")
}

fn finish(er: &ProgressiveEr, ds: &Dataset, from: &Checkpoint) -> ResultFingerprint {
    let stage = er.run_stage(ds, Some(from), None).unwrap();
    ResultFingerprint::of(
        &stage
            .finished()
            .expect("a stage without a threshold finishes"),
    )
}

const DURABLE: DurableOptions = DurableOptions {
    checkpoint_every: 1_000.0,
    kill_after_events: None,
};

/// A finished durable run's journal, cut back to the bytes a `kill -9`
/// right after the synced append of event `events - 1` leaves behind
/// (`kill_after_events` itself aborts the process; `tests/resume_process.rs`
/// sweeps that on child processes).
fn killed_after(store: &Arc<dyn JournalStore>, job: &str, events: usize) -> Arc<dyn JournalStore> {
    let boundary = recover(store, job).unwrap().events[events].0 as usize;
    let prefix: Arc<dyn JournalStore> = MemStore::shared();
    prefix
        .append(job, &store.read(job).unwrap()[..boundary])
        .unwrap();
    prefix
}

#[test]
fn staged_and_durable_runs_end_in_the_uninterrupted_fingerprint() {
    let ds = dataset();
    let er = pipeline();
    let golden = fingerprint(&er, &ds);

    // One cut: before any block, mid-run, past the end.
    let mut mid_run = false;
    for at in [0.0, 1_500.0, 1e15] {
        let cp = cut(&er, &ds, None, at);
        mid_run |= cp.blocks_done() > 0 && cp.blocks_remaining() > 0;
        assert_eq!(finish(&er, &ds, &cp), golden, "cut at {at}");
    }
    assert!(mid_run, "no threshold landed mid-run");

    // Chained: T1 → T2 → finish, and the chained cut is the direct one.
    let first = cut(&er, &ds, None, 800.0);
    let second = cut(&er, &ds, Some(&first), 2_000.0);
    assert_eq!(
        second.to_json().unwrap(),
        cut(&er, &ds, None, 2_000.0).to_json().unwrap()
    );
    assert_eq!(finish(&er, &ds, &second), golden, "chained");

    // Durable: killed in job 1, right after a cut, and in the final stage.
    let store = MemStore::shared();
    let run = run_durable(&er, &ds, &store, "smoke", &[], &DURABLE).unwrap();
    assert_eq!(ResultFingerprint::of(&run), golden, "durable");
    let events = recover(&store, "smoke").unwrap().events;
    let first_cut = events
        .iter()
        .position(|(_, e)| e.name() == "checkpoint-cut")
        .expect("the run cuts checkpoints");
    for kill in [2, first_cut + 1, events.len() - 2] {
        let prefix = killed_after(&store, "smoke", kill);
        let resumed = resume_durable(&er, &ds, &prefix, "smoke", &DURABLE).unwrap();
        assert_eq!(
            ResultFingerprint::of(&resumed),
            golden,
            "killed after event {kill} of {}",
            events.len()
        );
    }
}

#[test]
fn backend_and_thread_count_reach_no_observable() {
    let ds = dataset();
    let golden = fingerprint(&pipeline(), &ds);
    let configured = |executor, threads| {
        let mut er = pipeline();
        er.config.executor = executor;
        er.config.worker_threads = Some(threads);
        er
    };
    for executor in [ExecutorKind::Cursor, ExecutorKind::WorkStealing] {
        for threads in [1, 2] {
            assert_eq!(
                fingerprint(&configured(executor, threads), &ds),
                golden,
                "{} at {threads} thread(s)",
                executor.name()
            );
        }
    }

    // A journal whose `JobStarted` recorded the retired `chunked:<K>`
    // backend still resumes: the name parses as the cursor pool.
    let store = MemStore::shared();
    let params = [("executor".to_string(), "chunked:4".to_string())];
    run_durable(&pipeline(), &ds, &store, "old", &params, &DURABLE).unwrap();
    let killed = killed_after(&store, "old", 5);
    let state = JournalState::replay(&recover(&killed, "old").unwrap().events);
    let recorded = ExecutorKind::parse(state.param("executor").unwrap()).unwrap();
    assert_eq!(recorded, ExecutorKind::Cursor);
    let resumed = resume_durable(&configured(recorded, 2), &ds, &killed, "old", &DURABLE).unwrap();
    assert_eq!(ResultFingerprint::of(&resumed), golden);
}
