//! Tier-1 smokes of four conformance families whose full sweeps live in the
//! member crates (`crates/er-core/tests/{durable,executors,chaos_invariance,
//! io_chaos}.rs`):
//!
//! * **resume** — wherever the durable journal is cut back to (between the
//!   jobs, or inside a running reduce task that was cutting its checkpoints
//!   in-line), it ends in the uninterrupted run's fingerprint;
//! * **executors** — the thread count reaches no observable, and a journal
//!   that recorded a retired dispatch backend still resumes;
//! * **chaos** — task attempts that die below the attempt budget change
//!   nothing but the clock; an exhausted budget is a typed error;
//! * **chaos-io** — a transient or corrupted spill ends in the fault-free
//!   fingerprint; a full disk while spilling is the typed disk-full
//!   `MrError::Io`.

use std::sync::Arc;

use pper::datagen::{BookGen, Dataset};
use pper::er::prelude::*;
use pper::journal::{recover, JobJournal, JournalStore, MemStore};
use pper::mapreduce::{
    ExecutorKind, FaultKind, FaultPlan, FaultVfs, IoFaultPlan, IoOp, MrError, ShuffleSpillConfig,
    TaskKind, Vfs,
};

fn dataset() -> Dataset {
    BookGen::new(1_200, 611).generate()
}

fn pipeline() -> ProgressiveEr {
    ProgressiveEr::new(ErConfig::books(2))
}

fn fingerprint(er: &ProgressiveEr, ds: &Dataset) -> ResultFingerprint {
    ResultFingerprint::of(&er.try_run(ds).unwrap())
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
fn durable_runs_end_in_the_uninterrupted_fingerprint() {
    let ds = dataset();
    let golden = fingerprint(&pipeline(), &ds);

    // Durable, one pass cutting in-line, on one worker thread and on two:
    // killed in job 1, right after the first cut and the middle one (both
    // inside running reduce tasks), and after the last task event.
    for threads in [1, 2] {
        let mut er = pipeline();
        er.config.worker_threads = Some(threads);
        let store = MemStore::shared();
        let run = run_durable(&er, &ds, &store, "smoke", &[], &DURABLE).unwrap();
        assert_eq!(ResultFingerprint::of(&run), golden, "durable");
        let events = recover(&store, "smoke").unwrap().events;
        let cuts: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].1.name() == "checkpoint-cut")
            .collect();
        assert!(cuts.len() >= 4, "the run cuts checkpoints: {cuts:?}");
        for kill in [2, cuts[0] + 1, cuts[cuts.len() / 2] + 1, events.len() - 2] {
            let prefix = killed_after(&store, "smoke", kill);
            let reopened = JobJournal::reopen(prefix, "smoke").unwrap();
            let resumed = resume_durable(&er, &ds, reopened, &DURABLE).unwrap();
            assert_eq!(
                ResultFingerprint::of(&resumed),
                golden,
                "{threads} thread(s), killed after event {kill} of {}",
                events.len()
            );
        }
    }
}

#[test]
fn backend_and_thread_count_reach_no_observable() {
    let ds = dataset();
    let golden = fingerprint(&pipeline(), &ds);
    let configured = |threads| {
        let mut er = pipeline();
        er.config.worker_threads = Some(threads);
        er
    };
    for threads in [1, 2, 8] {
        assert_eq!(
            fingerprint(&configured(threads), &ds),
            golden,
            "{threads} thread(s)"
        );
    }

    // A journal whose `JobStarted` recorded a retired backend still
    // resumes: the name parses as the cursor pool. The parameters are read
    // from the reopened fold and the fold moves into the resume, as `pper
    // resume` does it.
    for retired in ["chunked:4", "stealing"] {
        let store = MemStore::shared();
        let params = [("executor".to_string(), retired.to_string())];
        run_durable(&pipeline(), &ds, &store, "old", &params, &DURABLE).unwrap();
        let reopened = JobJournal::reopen(killed_after(&store, "old", 5), "old").unwrap();
        let recorded = ExecutorKind::parse(reopened.state.param("executor").unwrap()).unwrap();
        assert_eq!(recorded, ExecutorKind::Cursor, "{retired}");
        let resumed = resume_durable(&configured(2), &ds, reopened, &DURABLE).unwrap();
        assert_eq!(ResultFingerprint::of(&resumed), golden, "{retired}");
    }
}

#[test]
fn task_faults_below_the_budget_change_only_the_clock() {
    let ds = dataset();
    let golden = fingerprint(&pipeline(), &ds);
    let faulted = |plan| {
        let mut er = pipeline();
        er.config.faults = Some(plan);
        er.try_run(&ds)
    };

    // One attempt of each flavour dies: discarded after half its work,
    // killed at its start, panicking mid-flight.
    let plan = FaultPlan::fail_reduce(0, 1)
        .with_crash(TaskKind::Reduce, 1, 1)
        .with_abort(TaskKind::Map, 0, 1, 50.0);
    let run = faulted(plan).unwrap();
    assert!(run.counters.get("task_retries") >= 3);
    assert!(run.counters.get("wasted_virtual_cost") > 0);
    // Re-execution delays the retried tasks' events, so the fingerprint is
    // the clean one in everything but its clock readings.
    let fp = ResultFingerprint::of(&run);
    assert!(run.total_cost >= f64::from_bits(golden.total_cost_bits));
    let untimed = |fp: &ResultFingerprint| {
        let mut found: Vec<(u32, u32)> = fp.found_events.iter().map(|e| (e.1, e.2)).collect();
        found.sort_unstable();
        (
            fp.duplicates.clone(),
            found,
            fp.precision_bits,
            fp.final_recall_bits,
            fp.curve_len,
        )
    };
    assert_eq!(untimed(&fp), untimed(&golden));

    let exhausted = FaultPlan::fail_reduce(1, 3).with_crash(TaskKind::Reduce, 1, 4);
    match faulted(exhausted) {
        Err(MrError::TaskFailed { attempts, .. }) => assert_eq!(attempts, 4),
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

#[test]
fn spill_storage_faults_end_in_the_fault_free_fingerprint() {
    let ds = dataset();
    let golden = fingerprint(&pipeline(), &ds);
    let dir = std::env::temp_dir().join(format!("pper-smoke-io-{}", std::process::id()));
    let spilling = |op, fault| {
        let plan = IoFaultPlan::new().with_at(op, "pper-extsort", 0, fault);
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(plan).unwrap());
        let spill = ShuffleSpillConfig::new(40).with_dir(&dir).with_vfs(vfs);
        ProgressiveEr::new(ErConfig::books(2).with_shuffle_spill(spill)).try_run(&ds)
    };

    let ladder = [
        (
            IoOp::Write,
            FaultKind::Transient { times: 2 },
            "shuffle_spill_io_retries",
        ),
        (IoOp::Read, FaultKind::CorruptRead, "shuffle_spill_reruns"),
    ];
    for (op, fault, counter) in ladder {
        let run = spilling(op, fault).unwrap();
        assert!(run.counters.get(counter) > 0, "{counter} did not record");
        assert_eq!(ResultFingerprint::of(&run), golden, "{counter}");
    }
    match spilling(IoOp::Write, FaultKind::Enospc) {
        Err(MrError::Io(fault)) => assert!(fault.is_disk_full(), "{fault}"),
        other => panic!("expected a typed disk-full fault, got {:?}", other.err()),
    }
    std::fs::remove_dir_all(&dir).ok();
}
