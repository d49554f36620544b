//! The pipeline compares pairs through the prepared path only
//! (`pper_simil::prepared`); the string path, `MatchRule::matches`, is the
//! reference it is held to. These tests are that hold at the pipeline level,
//! and they stand on independent oracles rather than a second pipeline:
//!
//! * **job 2** — the fold of a finished durable run's journal lists every
//!   pair the job compared and every pair it accepted, so each decision can
//!   be re-taken by the string rule;
//! * **Basic** — Basic F with an unbounded window compares every co-blocked
//!   pair exactly once (the smallest-key rule of Kolb et al. picks the one
//!   block), so the expected result is brute force over the blocking keys;
//! * **job 2's coverage** — the same brute force holds job 2's compared
//!   pairs to the paper's redundancy-free *and* complete resolution (§III-A,
//!   §V): with exhaustive root windows the fold lists every co-blocked pair
//!   exactly once; under the paper's windows it lists none twice and none
//!   outside a block.
//!
//! The first two fail if the reducer's wiring — slot memo, signature store,
//! local-index bookkeeping — hands the kernel the wrong entity; the third if
//! `SHOULD-RESOLVE` or the resolved-pair sets let a pair through twice.

use std::collections::{BTreeMap, BTreeSet};

use pper_datagen::{BookGen, Dataset, PubGen};
use pper_er::prelude::*;
use pper_journal::{recover, JournalState, MemStore};

type Pair = (u32, u32);

fn string_rule(config: &ErConfig, ds: &Dataset, (a, b): Pair) -> bool {
    config
        .rule
        .matches(&ds.entity(a).attrs, &ds.entity(b).attrs)
}

/// Brute force over the blocking keys: every pair that shares a root block
/// in some family.
fn co_blocked(ds: &Dataset, config: &ErConfig) -> BTreeSet<Pair> {
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
    co_blocked
}

/// A finished durable run and the fold of its journal: per task and tree,
/// every pair job 2 compared, and every duplicate it accepted.
fn journaled_run(ds: &Dataset, config: &ErConfig) -> (ErRunResult, Checkpoint) {
    let store = MemStore::shared();
    let er = ProgressiveEr::new(config.clone());
    let opts = DurableOptions::default();
    let run = run_durable(&er, ds, &store, "fold", &[], &opts).unwrap();
    let state = JournalState::replay(&recover(&store, "fold").unwrap().events);
    assert!(state.tasks.iter().all(|t| t.blocks_done == t.blocks));
    let checkpoint = journaled_checkpoint(&state, config.machines)
        .unwrap()
        .expect("a finished run journaled its schedule");
    (run, checkpoint)
}

/// Every `(tree, pair)` the fold lists, in task order.
fn listed(checkpoint: &Checkpoint) -> impl Iterator<Item = (usize, Pair)> + '_ {
    checkpoint
        .tasks
        .iter()
        .flat_map(|task| task.resolved.iter())
        .flat_map(|(tree, pairs)| pairs.iter().map(move |&pair| (*tree, pair)))
}

fn job2_decides_every_compared_pair_as_the_string_rule(ds: &Dataset, config: ErConfig) {
    let (run, checkpoint) = journaled_run(ds, &config);
    let compared: Vec<Pair> = listed(&checkpoint).map(|(_, pair)| pair).collect();
    let accepted: BTreeSet<Pair> = checkpoint
        .tasks
        .iter()
        .flat_map(|task| task.duplicates.iter())
        .map(|&(_, a, b)| (a.min(b), a.max(b)))
        .collect();

    assert_eq!(
        compared.len() as u64,
        run.counters.get("pairs_compared"),
        "the fold lists every comparison of the run"
    );
    assert!(
        accepted.iter().copied().eq(run.duplicates.iter().copied()),
        "the fold's duplicates are the run's"
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
    let co_blocked = co_blocked(ds, &config);
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

/// ROADMAP 5(a), checks (i) and (ii) against `co_blocked`.
fn job2_covers_the_co_blocked_pairs(ds: &Dataset, mut config: ErConfig) {
    let co_blocked = co_blocked(ds, &config);
    let what = format!("{} at μ = {}", ds.name, config.machines);

    // (ii) Under the paper's windows: no pair twice, none outside the
    // co-blocked set, and every id a member of the tree it is listed under
    // (a split sub-tree's members share its root block's key).
    let (_, checkpoint) = journaled_run(ds, &config);
    let trees = &checkpoint.schedule.trees;
    assert!(
        trees.iter().any(|t| t.root_level > 0),
        "{what}: no tree was split"
    );
    let in_tree = |tree: usize, id: u32| {
        let t = &trees[tree];
        config.families[t.family].key_at(ds.entity(id), t.root_level) == t.root_key()
    };
    let mut seen = BTreeSet::new();
    for (tree, (a, b)) in listed(&checkpoint) {
        assert!(seen.insert((a, b)), "{what}: ({a}, {b}) compared twice");
        assert!(
            co_blocked.contains(&(a, b)),
            "{what}: ({a}, {b}) shares no block"
        );
        assert!(
            in_tree(tree, a) && in_tree(tree, b),
            "{what}: ({a}, {b}) not in tree {tree}"
        );
    }
    assert!(
        !seen.is_empty(),
        "{what}: nothing compared, nothing checked"
    );

    // (i) Root windows that span every block: every co-blocked pair, each
    // exactly once.
    config.policy.window_root = ds.len();
    let (_, checkpoint) = journaled_run(ds, &config);
    let mut compared: Vec<Pair> = listed(&checkpoint).map(|(_, pair)| pair).collect();
    compared.sort_unstable();
    assert!(
        compared.iter().copied().eq(co_blocked.iter().copied()),
        "{what}: {} pairs compared, {} co-blocked",
        compared.len(),
        co_blocked.len()
    );
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

#[test]
fn job2_compares_every_co_blocked_pair_once() {
    // SN and PSNM, each with split sub-trees in its schedule.
    let pubs = PubGen::new(1_500, 209).generate();
    let books = BookGen::new(1_500, 210).generate();
    for machines in [1, 4] {
        job2_covers_the_co_blocked_pairs(&pubs, ErConfig::citeseer(machines));
        job2_covers_the_co_blocked_pairs(&books, ErConfig::books(machines));
    }
}
