//! Integration tests for the extension modules: failure injection through
//! the full pipeline, clustering, budgeted runs, and the two mechanisms.

use pper::datagen::PubGen;
use pper::er::{
    correlation_clustering, run_with_budget, transitive_closure, ClusterMetrics, ErConfig,
    MechanismKind, ProgressiveEr,
};
use pper::mapreduce::{FaultPlan, TaskKind};

#[test]
fn pipeline_survives_injected_task_failures() {
    let ds = PubGen::new(1_500, 401).generate();
    let clean = ProgressiveEr::new(ErConfig::citeseer(2)).run(&ds);

    // Fail every reduce task once: the reduce makespan must grow no matter
    // which task is on the critical path. (Failing a single task need not
    // move the phase makespan — that is correct wave-scheduling behaviour.)
    let mut config = ErConfig::citeseer(2);
    let reduce_tasks = config.reduce_tasks();
    config.faults = Some((0..reduce_tasks).fold(FaultPlan::default(), |plan, i| {
        plan.with_discard(TaskKind::Reduce, i, 1)
    }));
    let faulty = ProgressiveEr::new(config).run(&ds);

    // Retried tasks reproduce the same results…
    assert_eq!(clean.duplicates, faulty.duplicates);
    // …at strictly higher virtual cost.
    assert!(
        faulty.total_cost > clean.total_cost,
        "retries must cost time: {} vs {}",
        faulty.total_cost,
        clean.total_cost
    );
    assert_eq!(faulty.counters.get("task_retries"), reduce_tasks as u64);
}

#[test]
fn exhausted_retries_surface_as_error() {
    let ds = PubGen::new(300, 402).generate();
    let mut config = ErConfig::citeseer(1);
    config.faults = Some(FaultPlan::fail_reduce(0, 9));
    let err = ProgressiveEr::new(config).try_run(&ds).unwrap_err();
    assert!(err.to_string().contains("failed after"));
}

#[test]
fn clustering_pipeline_output_beats_pairs_alone() {
    let ds = PubGen::new(2_500, 403).generate();
    let result = ProgressiveEr::new(ErConfig::citeseer(2)).run(&ds);

    let tc = transitive_closure(ds.len(), &result.duplicates);
    let tc_metrics = ClusterMetrics::evaluate(&tc, &ds.truth);
    assert!(tc_metrics.f1() > 0.85, "TC F1 {:.3}", tc_metrics.f1());
    // Transitive closure can only add pairs, so its pairwise recall is at
    // least the raw pair recall.
    assert!(tc_metrics.pairwise_recall >= result.curve.final_recall() - 1e-9);

    let cc = correlation_clustering(ds.len(), &result.duplicates);
    let cc_metrics = ClusterMetrics::evaluate(&cc, &ds.truth);
    assert!(cc_metrics.f1() > 0.8, "CC F1 {:.3}", cc_metrics.f1());
    // Correlation clustering refines TC, so its precision is at least TC's.
    assert!(cc_metrics.pairwise_precision >= tc_metrics.pairwise_precision - 1e-9);
}

#[test]
fn budgeted_run_delivers_partial_results() {
    let ds = PubGen::new(1_500, 404).generate();
    let config = ErConfig::citeseer(2);
    let full = ProgressiveEr::new(config.clone()).run(&ds);
    let report = run_with_budget(&config, &ds, full.total_cost * 0.4).unwrap();
    assert!(report.recall_at_budget > 0.0);
    assert!(!report.delivered.is_empty());
    assert!(report.recall_at_budget <= full.curve.final_recall() + 1e-9);
}

#[test]
fn mechanisms_agree_on_exhaustive_coverage() {
    // Same blocking, same stop rules: both mechanisms cover the same
    // windowed pair set. PSNM's adaptive promotions only change order, not
    // coverage.
    let ds = PubGen::new(1_200, 406).generate();
    let mut finals = Vec::new();
    for mechanism in [MechanismKind::Sn, MechanismKind::Psnm] {
        let mut config = ErConfig::citeseer(2);
        config.mechanism = mechanism;
        let result = ProgressiveEr::new(config).run(&ds);
        finals.push((mechanism.name(), result.curve.final_recall()));
    }
    for w in finals.windows(2) {
        assert!(
            (w[0].1 - w[1].1).abs() < 0.02,
            "coverage mismatch: {finals:?}"
        );
    }
}
