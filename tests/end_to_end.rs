//! Cross-crate integration tests: the full pipeline on both synthetic
//! datasets, exercised through the top-level `pper` facade.

use pper::datagen::{BookGen, PubGen};
use pper::er::{BasicApproach, BasicConfig, ErConfig, MechanismKind, ProgressiveEr};

#[test]
fn publications_pipeline_end_to_end() {
    let ds = PubGen::new(3_000, 201).generate();
    let result = ProgressiveEr::new(ErConfig::citeseer(2)).run(&ds);

    assert!(
        result.curve.final_recall() > 0.85,
        "final recall {:.3}",
        result.curve.final_recall()
    );
    assert!(result.precision > 0.8, "precision {:.3}", result.precision);

    // Every reported duplicate pair must share at least one root block —
    // the pipeline never compares across blocks.
    for &(a, b) in &result.duplicates {
        let ea = ds.entity(a);
        let eb = ds.entity(b);
        let co_blocked = ErConfig::citeseer(2)
            .families
            .iter()
            .any(|f| f.root_key(ea) == f.root_key(eb));
        assert!(
            co_blocked,
            "pair ({a},{b}) reported without sharing a block"
        );
    }
}

#[test]
fn books_pipeline_with_psnm() {
    let ds = BookGen::new(3_000, 202).generate();
    let config = ErConfig::books(2);
    assert_eq!(config.mechanism, MechanismKind::Psnm);
    let result = ProgressiveEr::new(config).run(&ds);
    assert!(
        result.curve.final_recall() > 0.8,
        "final recall {:.3}",
        result.curve.final_recall()
    );
    assert!(result.precision > 0.75, "precision {:.3}", result.precision);
}

#[test]
fn recall_curve_is_monotone_and_bounded() {
    let ds = PubGen::new(2_000, 203).generate();
    let result = ProgressiveEr::new(ErConfig::citeseer(2)).run(&ds);
    let samples = result.curve.sample(result.total_cost, 50);
    assert!(samples.windows(2).all(|w| w[0].1 <= w[1].1));
    assert!(samples.iter().all(|&(_, r)| (0.0..=1.0).contains(&r)));
    // Curve breakpoints never exceed the run's total cost.
    assert!(result.curve.last_cost() <= result.total_cost + 1e-6);
}

#[test]
fn progressive_beats_basic_at_mid_recall() {
    let ds = PubGen::new(3_000, 204).generate();
    let er = ErConfig::citeseer(2);
    let ours = ProgressiveEr::new(er.clone()).run(&ds);
    let basic = BasicApproach::new(er, BasicConfig::full(15))
        .run(&ds)
        .unwrap();
    let t_ours = ours.curve.time_to_recall(0.6).expect("ours reaches 0.6");
    let t_basic = basic.curve.time_to_recall(0.6).expect("basic reaches 0.6");
    assert!(
        t_ours < t_basic,
        "progressive pipeline should lead at recall 0.6: {t_ours:.0} vs {t_basic:.0}"
    );
}

#[test]
fn results_identical_across_simulated_cluster_sizes() {
    // Virtual time changes with μ, but the *set* of duplicates found must
    // not (same schedule semantics, just different parallelism).
    let ds = PubGen::new(1_500, 205).generate();
    let r2 = ProgressiveEr::new(ErConfig::citeseer(2)).run(&ds);
    let r5 = ProgressiveEr::new(ErConfig::citeseer(5)).run(&ds);
    // Recall parity (schedules differ slightly in task packing, but every
    // tree is fully scheduled either way, so the found set matches).
    assert_eq!(r2.duplicates, r5.duplicates);
}

#[test]
fn checkpoint_cuts_cover_all_duplicates() {
    use pper::er::{run_durable, DurableOptions};
    use pper::journal::{recover, JournalState, MemStore};

    // The paper's per-α result files (§III-B) are the durable runner's
    // checkpoint cuts: on a fine grid the tasks cut several times each, and
    // their cuts together hand over every duplicate the run reports.
    let ds = PubGen::new(1_500, 206).generate();
    let config = ErConfig::citeseer(2);
    let store = MemStore::shared();
    let opts = DurableOptions {
        checkpoint_every: 300.0,
        ..Default::default()
    };
    let pipeline = ProgressiveEr::new(config.clone());
    let result = run_durable(&pipeline, &ds, &store, "alpha", &[], &opts).unwrap();
    let state = JournalState::replay(&recover(&store, "alpha").unwrap().events);
    assert!(state.tasks.iter().any(|task| task.cuts > 1));

    let mut from_cuts: Vec<(u32, u32)> = state
        .tasks
        .iter()
        .flat_map(|task| &task.duplicates)
        .map(|&(_, a, b)| (a.min(b), a.max(b)))
        .collect();
    from_cuts.sort_unstable();
    from_cuts.dedup();
    assert_eq!(from_cuts, result.duplicates);
    // No task's last cut stands past the end of the run.
    let (job1_cost, _) = state.schedule.unwrap();
    assert!(state
        .tasks
        .iter()
        .all(|task| job1_cost + task.clock <= result.total_cost + 1e-6));
}

#[test]
fn prepared_and_string_paths_agree_on_long_attributes() {
    use pper::er::job2::{run_job2_stage, Stage};
    use pper::er::run_job1;
    use std::sync::Mutex;

    // Fast smoke of the prepared-vs-string conformance family on the rule
    // whose cost is the multi-word edit distance. The pipeline compares
    // through the prepared path only, so each approach is held to the
    // string rule, `MatchRule::matches`, pair by pair (the full form is
    // `crates/er-core/tests/prepared_regression.rs`).
    let ds = PubGen::new(300, 207).generate();
    let er = ErConfig::citeseer(2);
    let string_rule = |a: u32, b: u32| er.rule.matches(&ds.entity(a).attrs, &ds.entity(b).attrs);

    // Ours: the stage observer on job 2's pair loop hands back every pair
    // the job compared.
    let job1 = run_job1(&ds, &er).unwrap();
    let schedule = ProgressiveEr::new(er.clone()).generate_schedule(&ds, &job1.stats);
    let pairs = Mutex::new(Vec::new());
    let observe = |_tree, a, b| pairs.lock().unwrap().push((a, b));
    let stage = Stage {
        observer: Some(&observe),
        ..Stage::default()
    };
    let ours = run_job2_stage(&ds, &er, &schedule, stage).unwrap();
    let mut compared = 0;
    for (a, b) in pairs.into_inner().unwrap() {
        compared += 1;
        assert_eq!(
            string_rule(a, b),
            ours.duplicates.binary_search(&(a, b)).is_ok(),
            "job 2 and the string rule disagree on ({a}, {b})"
        );
    }
    assert_eq!(compared, ours.counters.get("pairs_compared"));

    // Basic F with an unbounded window compares every co-blocked pair once:
    // brute force over the blocking keys, decided by the string rule.
    let basic = BasicApproach::new(er.clone(), BasicConfig::full(10_000))
        .run(&ds)
        .unwrap();
    let (mut co_blocked, mut expected) = (0, Vec::new());
    for (i, ea) in ds.entities.iter().enumerate() {
        for eb in &ds.entities[i + 1..] {
            if er.families.iter().any(|f| f.root_key(ea) == f.root_key(eb)) {
                co_blocked += 1;
                if string_rule(ea.id, eb.id) {
                    expected.push((ea.id, eb.id));
                }
            }
        }
    }
    assert_eq!(basic.counters.get("pairs_compared"), co_blocked);
    assert_eq!(basic.duplicates, expected);

    // The smoke must keep covering the multi-word kernel. Accepting a pair
    // under the CiteSeerX rule takes all three terms (title + abstract
    // weights alone stay below the threshold), so every reported duplicate
    // had both its title and its abstract compared.
    let long_ascii = |id: u32, attr: usize| {
        let v = &ds.entity(id).attrs[attr];
        v.is_ascii() && v.len() > 64
    };
    for (attr, name) in [(0, "titles"), (1, "abstracts")] {
        assert!(
            ours.duplicates
                .iter()
                .any(|&(a, b)| long_ascii(a, attr) && long_ascii(b, attr)),
            "no compared pair with two > 64-char ASCII {name}"
        );
    }
}
