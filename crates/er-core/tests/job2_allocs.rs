//! Allocation budget of the two-job pipeline: heap allocations per compared
//! pair of one `ProgressiveEr::try_run`.
//!
//! The resolve loop itself allocates nothing per pair (tree-local indices,
//! a bitset in PSNM, prepared signatures per entity); what remains is per
//! entity (routing, dominance lists, preparation) and per block (member and
//! sort vectors). Dividing by the pairs compared gives a number that is
//! exact on any host and moves when someone puts a per-pair `String`,
//! `Vec` or map node back — the benchmark reports the same ratio as
//! `er.allocs_per_pair`.

use pper_datagen::BookGen;
use pper_er::prelude::*;

#[path = "../../simil/tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Measured 1.18 on this dataset (298 441 allocations for 253 917 pairs),
/// down from 2.46 while the blocking keys were a fresh `String` per
/// (entity, tree, level) — job 1's signatures and tree splits, job 2's
/// routing — and from 6.7 with per-pair hash sets and cloned shuffle
/// values. About two thirds of what remains (≈ 195k) is preparing each
/// entity's similarity signatures once per reduce task. The ceiling leaves
/// room for allocator-growth noise of the containers, not for a per-pair
/// allocation.
const MAX_ALLOCS_PER_PAIR: f64 = 1.25;

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
