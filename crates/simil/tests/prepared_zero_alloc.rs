//! Proof of the tentpole's zero-allocation contract: once entities are
//! prepared and the scratch buffers are warm, `PreparedRule::score` and
//! `PreparedRule::matches` perform **no heap allocation per pair**.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms the scratch to its high-water mark, snapshots the allocation
//! counter, runs thousands of pair comparisons, and asserts the counter
//! never moved. The counter is per thread (see `common/counting_alloc.rs`),
//! so the two tests below hold under the default parallel harness.

use pper_simil::{AttributeSim, MatchRule, PreparedRule, SimScratch, TokenInterner, WeightedAttr};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A rule exercising every kernel at once.
fn six_kernel_rule() -> MatchRule {
    MatchRule::new(
        vec![
            WeightedAttr::new(
                0,
                0.30,
                AttributeSim::Levenshtein {
                    max_chars: Some(350),
                },
            ),
            WeightedAttr::new(1, 0.20, AttributeSim::JaroWinkler),
            WeightedAttr::new(2, 0.15, AttributeSim::JaccardTokens),
            WeightedAttr::new(3, 0.15, AttributeSim::QGram { q: 2 }),
            WeightedAttr::new(4, 0.10, AttributeSim::Exact),
            WeightedAttr::new(5, 0.10, AttributeSim::Soundex),
        ],
        0.8,
    )
}

fn entity(i: usize) -> Vec<String> {
    vec![
        format!("progressive entity resolution with mapreduce number {i}"),
        format!("author name {i}"),
        format!("alpha beta gamma token{}", i % 7),
        format!("qgram material {i} with shared substrings"),
        format!("cat{}", i % 3),
        format!("Robertson{i}"),
    ]
}

#[test]
fn prepared_pair_path_allocates_nothing() {
    let rule = six_kernel_rule();
    let prepared = PreparedRule::new(rule);
    let mut interner = TokenInterner::new();
    let mut scratch = SimScratch::new();

    // Preparation allocates (signatures, interner growth) — all up front.
    let entities: Vec<_> = (0..32)
        .map(|i| prepared.prepare(&entity(i), &mut interner))
        .collect();

    // Warm the scratch buffers to their high-water mark.
    let mut sink = 0.0f64;
    for a in &entities {
        for b in &entities {
            sink += prepared.score(a, b, &mut scratch);
            sink += f64::from(prepared.matches(a, b, &mut scratch));
        }
    }

    // From here on: zero heap traffic over thousands of pair comparisons.
    let before = allocations();
    for _ in 0..4 {
        for a in &entities {
            for b in &entities {
                sink += prepared.score(a, b, &mut scratch);
                sink += f64::from(prepared.matches(a, b, &mut scratch));
            }
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "prepared score/matches must not allocate per pair (sink {sink})"
    );
}

#[test]
fn unicode_fallback_path_allocates_nothing() {
    // The DP fallback (non-ASCII chars) must also be allocation-free.
    let rule = MatchRule::new(
        vec![
            WeightedAttr::new(0, 0.7, AttributeSim::Levenshtein { max_chars: None }),
            WeightedAttr::new(1, 0.3, AttributeSim::JaroWinkler),
        ],
        0.8,
    );
    let prepared = PreparedRule::new(rule);
    let mut interner = TokenInterner::new();
    let mut scratch = SimScratch::new();
    let a = prepared.prepare(
        &["café résumé naïve übermäßig".into(), "αβγδε".into()],
        &mut interner,
    );
    let b = prepared.prepare(
        &["cafe resume naive ubermassig".into(), "αβγδζ".into()],
        &mut interner,
    );

    // Warm-up: both entry points, so every scratch buffer reaches its
    // high-water mark before counting starts.
    let mut sink = prepared.score(&a, &b, &mut scratch);
    sink += f64::from(prepared.matches(&a, &b, &mut scratch));
    let before = allocations();
    for _ in 0..1000 {
        sink += prepared.score(&a, &b, &mut scratch);
        sink += f64::from(prepared.matches(&a, &b, &mut scratch));
    }
    assert_eq!(
        allocations() - before,
        0,
        "unicode fallback must not allocate per pair (sink {sink})"
    );
}
