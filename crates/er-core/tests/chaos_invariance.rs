//! Chaos invariance: injected task failures below the attempt budget —
//! attempts discarded at their end, attempts killed at their start, and
//! attempts that panic mid-flight once their virtual clock crosses a
//! threshold — must never change *what* the pipeline computes. Re-executed
//! attempts only add wasted virtual cost; the duplicate set, the comparison
//! counts, and the final recall are invariant. Exhausting the budget must
//! fail the job loudly instead of silently corrupting results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use pper_datagen::{Dataset, PubGen};
use pper_er::{
    run_durable, BasicApproach, BasicConfig, DurableError, DurableOptions, ErConfig, ErRunResult,
    ProgressiveEr,
};
use pper_journal::MemStore;
use pper_mapreduce::faults::MAX_ATTEMPTS;
use pper_mapreduce::{FaultPlan, MrError, TaskKind, TaskObserver};
use proptest::prelude::*;

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| PubGen::new(900, 811).generate())
}

fn run_pipeline(faults: Option<FaultPlan>) -> Result<ErRunResult, MrError> {
    let mut config = ErConfig::citeseer(2);
    config.faults = faults;
    ProgressiveEr::new(config).try_run(dataset())
}

/// Chaos must not change results — only add wasted cost.
fn assert_chaos_invariant(faulty: &ErRunResult, clean: &ErRunResult, what: &str) {
    assert_eq!(
        faulty.duplicates, clean.duplicates,
        "{what}: duplicate set must be fault-invariant"
    );
    assert_eq!(
        faulty.counters.get("pairs_compared"),
        clean.counters.get("pairs_compared"),
        "{what}: comparison counts must be fault-invariant"
    );
    assert_eq!(
        faulty.counters.get("duplicates_found"),
        clean.counters.get("duplicates_found"),
        "{what}: duplicate events must be fault-invariant"
    );
    assert_eq!(
        faulty.curve.final_recall().to_bits(),
        clean.curve.final_recall().to_bits(),
        "{what}: final recall must be fault-invariant"
    );
    assert!(
        faulty.total_cost >= clean.total_cost,
        "{what}: failures can only add virtual cost ({} < {})",
        faulty.total_cost,
        clean.total_cost
    );
    // Re-execution delays a retried task's events on the global timeline,
    // so the cross-task interleaving may shift — but exactly the same
    // discoveries must be made.
    let mut faulty_pairs: Vec<(u32, u32)> =
        faulty.found_events.iter().map(|e| (e.1, e.2)).collect();
    let mut clean_pairs: Vec<(u32, u32)> = clean.found_events.iter().map(|e| (e.1, e.2)).collect();
    faulty_pairs.sort_unstable();
    clean_pairs.sort_unstable();
    assert_eq!(
        faulty_pairs, clean_pairs,
        "{what}: the discovered pairs must be fault-invariant"
    );
    assert!(
        faulty.found_events.windows(2).all(|w| w[0].0 <= w[1].0),
        "{what}: faulty timeline must stay monotone"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    // Random fault plans mixing all three death points, always below the
    // 4-attempt budget, so a later attempt always survives.
    #[test]
    fn prop_random_fault_plans_below_exhaustion_are_invisible(
        discards in proptest::collection::vec((0usize..4, 1u32..3), 0..3),
        crashes in proptest::collection::vec((0usize..4, 0usize..2), 0..3),
        aborts in proptest::collection::vec((0usize..4, 100u32..5_000), 0..3),
    ) {
        // Every death takes its task's next attempt, so no two share a key.
        let next = |plan: &FaultPlan, kind, idx| plan.deaths_for(kind, idx) + 1;
        let mut plan = FaultPlan::default();
        for &(idx, n) in &discards {
            if plan.deaths_for(TaskKind::Reduce, idx) + n < MAX_ATTEMPTS {
                for _ in 0..n {
                    let attempt = next(&plan, TaskKind::Reduce, idx);
                    plan = plan.with_discard(TaskKind::Reduce, idx, attempt);
                }
            }
        }
        for &(idx, kind) in &crashes {
            let kind = if kind == 0 { TaskKind::Map } else { TaskKind::Reduce };
            if plan.deaths_for(kind, idx) + 1 < MAX_ATTEMPTS {
                let attempt = next(&plan, kind, idx);
                plan = plan.with_crash(kind, idx, attempt);
            }
        }
        for &(idx, at) in &aborts {
            if plan.deaths_for(TaskKind::Reduce, idx) + 1 < MAX_ATTEMPTS {
                let attempt = next(&plan, TaskKind::Reduce, idx);
                plan = plan.with_abort(TaskKind::Reduce, idx, attempt, f64::from(at));
            }
        }

        let clean = run_pipeline(None).unwrap();
        let faulty = run_pipeline(Some(plan.clone())).unwrap();
        assert_chaos_invariant(&faulty, &clean, &format!("{plan:?}"));
    }
}

#[test]
fn real_panics_below_exhaustion_do_not_fail_the_job() {
    // The headline fix: an attempt that really dies (panic at its start,
    // panic mid-flight once its clock crosses a threshold) is re-executed
    // instead of failing the job.
    let plan = FaultPlan::default()
        .with_crash(TaskKind::Reduce, 0, 1)
        .with_abort(TaskKind::Reduce, 1, 1, 50.0)
        .with_abort(TaskKind::Map, 2, 1, 10.0);
    let clean = run_pipeline(None).unwrap();
    let faulty = run_pipeline(Some(plan)).unwrap();
    assert_chaos_invariant(&faulty, &clean, "real panics");
    assert!(
        faulty.counters.get("task_retries") >= 3,
        "all three injected deaths must be retried, got {}",
        faulty.counters.get("task_retries")
    );
    assert!(
        faulty.counters.get("wasted_virtual_cost") > 0,
        "re-execution must account wasted cost"
    );
}

#[test]
fn exhausting_the_attempt_budget_fails_the_job() {
    let mut plan = FaultPlan::fail_reduce(1, 3);
    plan = plan.with_crash(TaskKind::Reduce, 1, 4);
    assert!(plan.exhausts_attempts(TaskKind::Reduce, 1));
    match run_pipeline(Some(plan)) {
        Err(MrError::TaskFailed { attempts, .. }) => assert_eq!(attempts, 4),
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

/// A fault plan aimed at a task the resolution job does not have is
/// refused before the statistics job runs a task, and before a durable run
/// creates its journal: a run that could never finish leaves nothing behind.
#[test]
fn out_of_range_fault_plans_are_rejected_upfront() {
    let mut config = ErConfig::citeseer(2);
    config.faults = Some(FaultPlan::fail_reduce(99, 1));
    let tasks = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&tasks);
    config.observer = Some(TaskObserver::new(move |_| {
        seen.fetch_add(1, Ordering::SeqCst);
    }));
    let er = ProgressiveEr::new(config);
    match er.try_run(dataset()) {
        Err(MrError::InvalidFaultPlan(msg)) => {
            assert!(msg.contains("99"), "message should name the index: {msg}")
        }
        other => panic!("expected InvalidFaultPlan, got {other:?}"),
    }
    assert_eq!(tasks.load(Ordering::SeqCst), 0, "a task ran");

    let store = MemStore::shared();
    let opts = DurableOptions::default();
    let refused = run_durable(&er, dataset(), &store, "faults", &[], &opts);
    assert!(
        matches!(
            refused,
            Err(DurableError::Run(MrError::InvalidFaultPlan(_)))
        ),
        "{refused:?}"
    );
    assert!(
        store.list_jobs().unwrap().is_empty(),
        "a journal was created"
    );
}

#[test]
fn basic_baseline_is_chaos_invariant() {
    let ds = dataset();
    let clean_er = ErConfig::citeseer(2);
    let clean = BasicApproach::new(clean_er.clone(), BasicConfig::full(15))
        .run(ds)
        .unwrap();

    let mut faulty_er = clean_er;
    faulty_er.faults = Some(
        FaultPlan::fail_reduce(0, 2)
            .with_crash(TaskKind::Map, 1, 1)
            .with_abort(TaskKind::Reduce, 2, 1, 200.0),
    );
    let faulty = BasicApproach::new(faulty_er, BasicConfig::full(15))
        .run(ds)
        .unwrap();
    assert_chaos_invariant(&faulty, &clean, "basic baseline");
}
