//! Allocation budget of the two-job pipeline and of the Basic baseline: heap
//! allocations per compared pair of one `ProgressiveEr::try_run` or
//! `BasicApproach::run`.
//!
//! The resolve loop itself allocates nothing per pair (tree-local indices,
//! a bitset in PSNM, prepared signatures per entity); what remains is per
//! entity (preparation) and per block (member and sort vectors). Dividing
//! by the pairs compared gives a number that is
//! exact on any host and moves when someone puts a per-pair `String`,
//! `Vec` or map node back — the benchmark reports the same ratio as
//! `er.allocs_per_pair`.

use pper_datagen::{BookGen, PubGen};
use pper_er::prelude::*;

#[path = "../../simil/tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Measured 0.26 on this dataset (66 296 allocations for 253 917 pairs),
/// down from 0.37 (94 872) while job 1 keyed each record by a fresh
/// `String`, kept a `String` per distinct root key in its interner and a
/// `String` and a vector per distinct child key (singletons included) in
/// its tree splits, from 0.40 (102 229) while job 2 routed each entity
/// through a key buffer and sorted each tree on string rows before filing
/// it by key, from 0.67 while a prepared entity was a vector of 64-byte
/// terms with one buffer per Levenshtein value, from 1.18 while every
/// routed record carried a heap dominance list and every `Exact` value was
/// a `String` of its own, from 2.46 while the blocking keys were a fresh
/// `String` per (entity, tree, level), and from 6.7 with per-pair hash
/// sets and cloned shuffle values. Of what remains, ≈ 43k is preparing
/// each entity's similarity signatures once per reduce task, two
/// allocations each (the record buffer and the byte buffer; a third only
/// for a non-ASCII Levenshtein value). No record, interned key or split
/// member allocates; the rest is per tree and per block: job 1's tree (one
/// row vector per split block, a key and a member vector per kept block),
/// statistics and side data (the root block's sort rows and ranked
/// members), and job 2's member, rank, block and slot vectors. The ceiling
/// leaves room for allocator-growth noise of the containers, not for a
/// per-pair allocation; the previous 0.37 fails it.
const MAX_ALLOCS_PER_PAIR: f64 = 0.28;

#[test]
fn pipeline_allocations_per_compared_pair_stay_under_the_ceiling() {
    let ds = BookGen::new(7_500, 336).generate();
    let mut config = ErConfig::books(10);
    // One worker thread runs every task on the calling thread, where the
    // per-thread counter sees it.
    config.worker_threads = Some(1);
    let er = ProgressiveEr::new(config);

    let before = allocations();
    let result = er.try_run(&ds).unwrap();
    let allocs = allocations() - before;

    let pairs = result.counters.get("pairs_compared");
    assert!(pairs > 100_000, "dataset too small to amortize: {pairs}");
    let per_pair = allocs as f64 / pairs as f64;
    assert!(
        per_pair <= MAX_ALLOCS_PER_PAIR,
        "{allocs} allocations for {pairs} compared pairs = {per_pair:.2} per pair \
         (ceiling {MAX_ALLOCS_PER_PAIR})"
    );
}

/// Measured 0.17 on this dataset, one of `pubs-basic`'s (31 854 allocations
/// for 187 296 pairs), down from 0.32 while a prepared entity was a term
/// vector plus one buffer per Levenshtein value, and from 0.51 while every
/// entity built three key `String`s and an `Arc` key list and cloned a key
/// into each of its records. Most of what remains (≈ 28k) is signature
/// preparation, once per entity per reduce task: the record buffer and the
/// byte buffer, and a `char` buffer only for a non-ASCII value. The rest is
/// per block: the member, sort and slot vectors. The shuffle key is inline
/// and a record carries only the entity.
const MAX_BASIC_ALLOCS_PER_PAIR: f64 = 0.20;

#[test]
fn basic_allocations_per_compared_pair_stay_under_the_ceiling() {
    let ds = PubGen::new(5_000, 337).generate();
    let mut config = ErConfig::citeseer(10);
    // As above: every task on the calling thread.
    config.worker_threads = Some(1);
    let basic = BasicApproach::new(config, BasicConfig::full(15));

    let before = allocations();
    let result = basic.run(&ds).unwrap();
    let allocs = allocations() - before;

    let pairs = result.counters.get("pairs_compared");
    assert!(pairs > 100_000, "dataset too small to amortize: {pairs}");
    let per_pair = allocs as f64 / pairs as f64;
    assert!(
        per_pair <= MAX_BASIC_ALLOCS_PER_PAIR,
        "{allocs} allocations for {pairs} compared pairs = {per_pair:.2} per pair \
         (ceiling {MAX_BASIC_ALLOCS_PER_PAIR})"
    );
}
