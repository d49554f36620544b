//! The pipeline compares pairs through the prepared path only
//! (`pper_simil::prepared`); the string path, `MatchRule::matches`, is the
//! reference it is held to. These tests are that hold at the pipeline level,
//! and they stand on an independent oracle rather than a second pipeline:
//!
//! * **job 2** — a stage killed past the end of the run returns a checkpoint
//!   listing every pair the job compared and every pair it accepted, so each
//!   decision can be re-taken by the string rule;
//! * **Basic** — Basic F with an unbounded window compares every co-blocked
//!   pair exactly once (the smallest-key rule of Kolb et al. picks the one
//!   block), so the expected result is brute force over the blocking keys.
//!
//! Either fails if the reducer's wiring — slot memo, signature store,
//! local-index bookkeeping — hands the kernel the wrong entity.

use std::collections::{BTreeMap, BTreeSet};

use pper_datagen::{BookGen, Dataset, PubGen};
use pper_er::{BasicApproach, BasicConfig, ErConfig, ProgressiveEr};

type Pair = (u32, u32);

fn string_rule(config: &ErConfig, ds: &Dataset, (a, b): Pair) -> bool {
    config
        .rule
        .matches(&ds.entity(a).attrs, &ds.entity(b).attrs)
}

fn job2_decides_every_compared_pair_as_the_string_rule(ds: &Dataset, config: ErConfig) {
    let pipeline = ProgressiveEr::new(config.clone());
    let run = pipeline.try_run(ds).unwrap();
    // Killed at a threshold no task's clock reaches: every block completes
    // and the checkpoint holds the whole run.
    let checkpoint = pipeline
        .run_stage(ds, None, Some(1e15))
        .unwrap()
        .cut()
        .expect("a stage with a threshold is cut");
    assert_eq!(checkpoint.blocks_remaining(), 0);

    let compared: Vec<Pair> = checkpoint
        .tasks
        .iter()
        .flat_map(|task| task.resolved.iter())
        .flat_map(|(_, pairs)| pairs.iter().copied())
        .collect();
    let accepted: BTreeSet<Pair> = checkpoint
        .tasks
        .iter()
        .flat_map(|task| task.duplicates.iter())
        .map(|&(_, a, b)| (a.min(b), a.max(b)))
        .collect();

    assert_eq!(
        compared.len() as u64,
        run.counters.get("pairs_compared"),
        "the checkpoint lists every comparison of the run"
    );
    assert!(
        accepted.iter().copied().eq(run.duplicates.iter().copied()),
        "the checkpoint's duplicates are the run's"
    );
    assert!(!accepted.is_empty(), "nothing accepted, nothing checked");
    for pair in compared {
        assert_eq!(
            string_rule(&config, ds, pair),
            accepted.contains(&pair),
            "job 2 and MatchRule::matches disagree on {pair:?}"
        );
    }
}

fn basic_full_is_brute_force_over_co_blocked_pairs(ds: &Dataset, config: ErConfig) {
    let mut co_blocked: BTreeSet<Pair> = BTreeSet::new();
    for family in &config.families {
        let mut blocks: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        for entity in &ds.entities {
            blocks
                .entry(family.root_key(entity))
                .or_default()
                .push(entity.id);
        }
        for members in blocks.values() {
            for (i, &a) in members.iter().enumerate() {
                co_blocked.extend(members[i + 1..].iter().map(|&b| (a.min(b), a.max(b))));
            }
        }
    }
    let expected: Vec<Pair> = co_blocked
        .iter()
        .copied()
        .filter(|&pair| string_rule(&config, ds, pair))
        .collect();
    assert!(!expected.is_empty(), "nothing to find, nothing checked");

    let run = BasicApproach::new(config, BasicConfig::full(10_000))
        .run(ds)
        .unwrap();
    assert_eq!(
        run.counters.get("pairs_compared"),
        co_blocked.len() as u64,
        "every co-blocked pair is compared exactly once"
    );
    assert_eq!(run.duplicates, expected);
}

#[test]
fn job2_matches_the_string_rule_pair_by_pair() {
    // SN over the rule whose cost is the multi-word edit distance, then
    // PSNM over the eight-attribute books rule.
    let pubs = PubGen::new(600, 207).generate();
    job2_decides_every_compared_pair_as_the_string_rule(&pubs, ErConfig::citeseer(2));
    let books = BookGen::new(600, 208).generate();
    job2_decides_every_compared_pair_as_the_string_rule(&books, ErConfig::books(2));
}

#[test]
fn basic_full_matches_brute_force_under_the_string_rule() {
    let pubs = PubGen::new(400, 207).generate();
    basic_full_is_brute_force_over_co_blocked_pairs(&pubs, ErConfig::citeseer(2));
    let books = BookGen::new(400, 208).generate();
    basic_full_is_brute_force_over_co_blocked_pairs(&books, ErConfig::books(2));
}
