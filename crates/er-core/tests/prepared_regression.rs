//! The pipeline compares pairs through the prepared path only
//! (`pper_simil::PreparedRule`); the string path, `MatchRule::matches`, is the
//! reference it is held to. These tests are that hold at the pipeline level,
//! and they stand on independent oracles rather than a second pipeline:
//!
//! * **job 2** — the stage observer on job 2's pair loop hands back every
//!   pair the job compared, and the fold of a finished durable run's
//!   journal every pair it accepted, so each decision can be re-taken by
//!   the string rule;
//! * **Basic** — Basic F with an unbounded window compares every co-blocked
//!   pair exactly once (the smallest-key rule of Kolb et al. picks the one
//!   block), so the expected result is brute force over the blocking keys;
//! * **job 2's coverage** — the same brute force holds job 2's compared
//!   pairs to the paper's redundancy-free *and* complete resolution (§III-A,
//!   §V): with exhaustive root windows the observer sees every co-blocked
//!   pair exactly once; under the paper's windows it sees none twice and
//!   none outside a block.
//!
//! The first two fail if the reducer's wiring — slot memo, signature store,
//! local-index bookkeeping — hands the kernel the wrong entity; the third if
//! `SHOULD-RESOLVE` or the resolved-pair sets let a pair through twice.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use pper_blocking::{BlockingFamily, PrefixFunction};
use pper_datagen::{BookGen, Dataset, Entity, GroundTruth, PubGen};
use pper_er::job2::{run_job2_stage, Job2Result, Stage};
use pper_er::prelude::*;
use pper_journal::{recover, JournalState, MemStore};
use pper_schedule::Schedule;

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

/// A finished durable run and the fold of its journal: per task, every
/// duplicate job 2 accepted.
fn journaled_run(ds: &Dataset, config: &ErConfig) -> (ErRunResult, JournalState) {
    let store = MemStore::shared();
    let er = ProgressiveEr::new(config.clone());
    let opts = DurableOptions::default();
    let run = run_durable(&er, ds, &store, "fold", &[], &opts).unwrap();
    let state = JournalState::replay(&recover(&store, "fold").unwrap().events);
    assert!(state.tasks.iter().all(|t| t.blocks_done == t.blocks));
    (run, state)
}

/// Job 2 with the stage observer on its pair loop: the job's result, the
/// schedule it ran, and every `(tree, pair)` the matcher decided.
fn observed_run(ds: &Dataset, config: &ErConfig) -> (Job2Result, Schedule, Vec<(usize, Pair)>) {
    let job1 = run_job1(ds, config).unwrap();
    let schedule = ProgressiveEr::new(config.clone()).generate_schedule(ds, &job1.stats);
    let listed = Mutex::new(Vec::new());
    let observe = |tree, a, b| listed.lock().unwrap().push((tree as usize, (a, b)));
    let stage = Stage {
        observer: Some(&observe),
        ..Stage::default()
    };
    let run = run_job2_stage(ds, config, &schedule, stage).unwrap();
    (run, schedule, listed.into_inner().unwrap())
}

fn job2_decides_every_compared_pair_as_the_string_rule(ds: &Dataset, config: ErConfig) {
    let (run, state) = journaled_run(ds, &config);
    let (job2, _, listed) = observed_run(ds, &config);
    let compared: Vec<Pair> = listed.into_iter().map(|(_, pair)| pair).collect();
    let accepted: BTreeSet<Pair> = state
        .tasks
        .iter()
        .flat_map(|task| task.duplicates.iter())
        .map(|&(_, a, b)| (a.min(b), a.max(b)))
        .collect();

    assert_eq!(
        compared.len() as u64,
        run.counters.get("pairs_compared"),
        "the observer sees every comparison of the run"
    );
    assert!(
        accepted.iter().copied().eq(run.duplicates.iter().copied()),
        "the fold's duplicates are the run's"
    );
    assert_eq!(
        job2.duplicates, run.duplicates,
        "the observed job is the run's"
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

/// Job 2's resolution against `co_blocked`: (ii) redundancy-free under the
/// paper's windows, (i) also complete with root windows that span the data.
fn job2_covers_the_co_blocked_pairs(ds: &Dataset, mut config: ErConfig) {
    let co_blocked = co_blocked(ds, &config);
    let what = format!("{} at μ = {}", ds.name, config.machines);

    // (ii) Under the paper's windows: no pair twice, none outside the
    // co-blocked set, and every id a member of the tree it is listed under
    // (a split sub-tree's members share its root block's key).
    let (_, schedule, listed) = observed_run(ds, &config);
    let trees = &schedule.trees;
    assert!(
        trees.iter().any(|t| t.root_level > 0),
        "{what}: no tree was split"
    );
    let in_tree = |tree: usize, id: u32| {
        let t = &trees[tree];
        config.families[t.family].key_at(ds.entity(id), t.root_level) == t.root_key()
    };
    let mut seen = BTreeSet::new();
    for (tree, (a, b)) in listed {
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
    let (_, _, listed) = observed_run(ds, &config);
    let mut compared: Vec<Pair> = listed.into_iter().map(|(_, pair)| pair).collect();
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
fn basic_full_matches_brute_force_on_keys_shared_across_families() {
    // Every attribute holds one value, so Y and Z, cutting it at the same
    // length, share every key and only the family index tells their blocks
    // apart. X cuts at 30 chars, so its keys are longer than Basic keeps
    // inline. The stems are `ids_collide_exactly_where_keys_do`'s: keys that
    // differ only in case or go through non-ASCII lowercasing.
    let stems = [
        "İstanbul",
        "istanbul",
        "ISTANBUL",
        "ΟΔΟΣ",
        "ΟΔΟΣΑ",
        "οδος",
        "οδοσ",
        "straße",
        "STRASSE",
        "Data",
        "DATA",
        "data",
    ];
    let tails = [
        "",
        " and the long and winding road home",
        " by the sea, by the sea, by the beautiful sea",
    ];
    let values: Vec<String> = stems
        .iter()
        .flat_map(|stem| tails.iter().map(move |tail| format!("{stem}{tail}")))
        .flat_map(|value| (0..4).map(move |copy| format!("{value} {copy}")))
        .collect();
    let entities: Vec<Entity> = values
        .iter()
        .enumerate()
        .map(|(id, value)| Entity::new(id as u32, vec![value.clone(); 3]))
        .collect();
    let truth = GroundTruth::new((0..entities.len() as u32).map(|id| id / 4).collect());
    let schema = ["a", "b", "c"].map(String::from).to_vec();
    let ds = Dataset::new("shared keys", schema, entities, truth);

    let mut config = ErConfig::citeseer(3);
    config.families = [(0, 30), (1, 4), (2, 4)]
        .iter()
        .zip(["X", "Y", "Z"])
        .map(|(&(attr, chars), name)| {
            BlockingFamily::new(name, vec![PrefixFunction::new(attr, chars)])
        })
        .collect();
    basic_full_is_brute_force_over_co_blocked_pairs(&ds, config);
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
