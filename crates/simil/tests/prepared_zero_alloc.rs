//! Proof of the prepared path's zero-allocation contract: once entities
//! are prepared and the scratch buffers are warm, `PreparedRule::score`,
//! `PreparedRule::matches` and `BlockScorer::score_block` perform **no heap
//! allocation per pair** — including Levenshtein values on both sides of
//! the 64-char word boundary, alternating on one scratch, non-ASCII ones,
//! and `Exact` values too long to sit in their record. And what
//! `PreparedRule::prepare` itself allocates: one buffer of records, one of
//! bytes, and one of `char`s only for a non-ASCII Levenshtein value.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms the scratch to its high-water mark, snapshots the allocation
//! counter, runs thousands of pair comparisons, and asserts the counter
//! never moved. The counter is per thread (see `common/counting_alloc.rs`),
//! so the tests below hold under the default parallel harness.

use pper_simil::{AttributeSim, BlockScorer, MatchRule, PreparedRule, SimScratch, WeightedAttr};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A rule exercising every kernel shape at once.
fn every_kernel_rule() -> MatchRule {
    MatchRule::new(
        vec![
            WeightedAttr::new(
                0,
                0.50,
                AttributeSim::Levenshtein {
                    max_chars: Some(350),
                },
            ),
            WeightedAttr::new(1, 0.30, AttributeSim::Levenshtein { max_chars: None }),
            WeightedAttr::new(2, 0.20, AttributeSim::Exact),
        ],
        0.8,
    )
}

/// The Levenshtein attribute cycles through the multi-word Myers regimes:
/// ~55 chars (one word), 65–80 chars (just past the boundary) and
/// abstract-sized 150–350 chars (three to six words), so consecutive pairs
/// on one scratch change word count in both directions.
fn levenshtein_value(i: usize) -> String {
    let filler = "a parallel progressive approach to entity resolution using mapreduce; ";
    match i % 3 {
        0 => format!("progressive entity resolution with mapreduce number {i}"),
        1 => filler.chars().cycle().skip(i).take(65 + i % 16).collect(),
        _ => filler
            .chars()
            .cycle()
            .skip(i)
            .take(150 + (i * 37) % 201)
            .collect(),
    }
}

/// Every fourth entity has a non-ASCII author (the DP, and a `char` buffer)
/// and every fifth a 30-byte category (kept outside its record).
fn entity(i: usize) -> Vec<String> {
    let author = if i % 4 == 1 {
        format!("autör namé {i}")
    } else {
        format!("author name {i}")
    };
    let category = if i.is_multiple_of(5) {
        format!("a category thirty bytes lo{:04}", i % 3)
    } else {
        format!("cat{}", i % 3)
    };
    vec![levenshtein_value(i), author, category]
}

#[test]
fn prepared_pair_path_allocates_nothing() {
    let rule = every_kernel_rule();
    let prepared = PreparedRule::new(rule);
    let mut scratch = SimScratch::new();

    // Preparation allocates (the signatures) — all up front.
    let entities: Vec<_> = (0..32).map(|i| prepared.prepare(&entity(i))).collect();

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
fn block_scorer_allocates_nothing_once_warm() {
    let prepared = PreparedRule::new(every_kernel_rule());
    let entities: Vec<_> = (0..32).map(|i| prepared.prepare(&entity(i))).collect();
    let mut scorer = BlockScorer::new();
    let mut scores = Vec::new();

    // Warm-up: every probe once, so the widest probe table and the
    // accumulators are at their high-water mark.
    let mut sink = 0.0f64;
    for probe in &entities {
        scorer.score_block(&prepared, probe, &entities, &mut scores);
        sink += scores.iter().sum::<f64>();
    }

    let before = allocations();
    for _ in 0..4 {
        // Short and long probes alternate (see `levenshtein_value`).
        for probe in &entities {
            scorer.score_block(&prepared, probe, &entities, &mut scores);
            sink += scores.iter().sum::<f64>();
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "BlockScorer::score_block must not allocate once warm (sink {sink})"
    );
}

#[test]
fn unicode_fallback_path_allocates_nothing() {
    // The DP fallback (non-ASCII chars) must also be allocation-free.
    let rule = MatchRule::new(
        vec![
            WeightedAttr::new(0, 0.7, AttributeSim::Levenshtein { max_chars: None }),
            WeightedAttr::new(1, 0.3, AttributeSim::Levenshtein { max_chars: Some(4) }),
        ],
        0.8,
    );
    let prepared = PreparedRule::new(rule);
    let mut scratch = SimScratch::new();
    let a = prepared.prepare(&["café résumé naïve übermäßig", "αβγδε"]);
    let b = prepared.prepare(&["cafe resume naive ubermassig", "αβζδε"]);

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

    // The pair above is chars against bytes. The other mixes — bytes against
    // chars, chars against chars of another length — go through the same
    // scratch row, and a pair `matches` rejects on its length or histogram
    // bound touches no buffer at all.
    let c = prepared.prepare(&["çafé résumé naïve übermäßig, encore", "αβγ"]);
    let short = prepared.prepare(&["caf", "αβγδε"]);
    let disjoint = prepared.prepare(&["0123456789 0123456789 01234", "αβγδε"]);
    let pairs = [(&b, &a), (&a, &c), (&c, &b), (&a, &short), (&a, &disjoint)];
    assert!(!prepared.matches(&a, &short, &mut scratch));
    assert!(!prepared.matches(&a, &disjoint, &mut scratch));
    for (x, y) in pairs {
        sink += prepared.score(x, y, &mut scratch);
        sink += f64::from(prepared.matches(x, y, &mut scratch));
    }
    let before = allocations();
    for _ in 0..1000 {
        for (x, y) in pairs {
            sink += prepared.score(x, y, &mut scratch);
            sink += f64::from(prepared.matches(x, y, &mut scratch));
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "mixed and bound-rejected pairs must not allocate (sink {sink})"
    );
}

#[test]
fn long_near_duplicates_allocate_nothing() {
    // The abstract term alone, at two thresholds: under 0.95 a pair the
    // banded scan puts past 31 edits is rejected on that bound, under 0.5
    // it goes on to the full-width scan.
    let rule = |threshold| {
        let abstract_term = AttributeSim::Levenshtein {
            max_chars: Some(350),
        };
        PreparedRule::new(MatchRule::new(
            vec![WeightedAttr::new(0, 1.0, abstract_term)],
            threshold,
        ))
    };
    let (strict, loose) = (rule(0.95), rule(0.5));
    let base: String = "we resolve entities progressively on mapreduce, block by block; "
        .chars()
        .cycle()
        .take(400)
        .collect();
    let mut near = base.clone().into_bytes();
    for at in [3, 90, 170, 260, 340] {
        near.swap(at, at + 1);
    }
    let near = String::from_utf8(near).unwrap();
    let rotated = format!("{}{}", &base[60..350], &base[..60]);
    let values = [base, near, rotated];
    let entities: Vec<_> = values.iter().map(|v| strict.prepare(&[v])).collect();
    let mut scratch = SimScratch::new();
    let mut sink = 0.0f64;
    let mut run = |scratch: &mut SimScratch| {
        for rule in [&strict, &loose] {
            for a in &entities {
                for b in &entities {
                    sink += rule.score(a, b, scratch);
                    sink += f64::from(rule.matches(a, b, scratch));
                }
            }
        }
    };
    run(&mut scratch);
    let before = allocations();
    for _ in 0..200 {
        run(&mut scratch);
    }
    assert_eq!(
        allocations() - before,
        0,
        "banded and full-width scans must not allocate once warm (sink {sink})"
    );
}

/// `ErConfig::books`' rule over title, authors, publisher, year, isbn,
/// pages, language and format.
fn books_rule() -> MatchRule {
    let lev = || AttributeSim::Levenshtein { max_chars: None };
    MatchRule::new(
        vec![
            WeightedAttr::new(0, 0.35, lev()),
            WeightedAttr::new(1, 0.20, lev()),
            WeightedAttr::new(2, 0.10, lev()),
            WeightedAttr::new(3, 0.05, AttributeSim::Exact),
            WeightedAttr::new(4, 0.15, lev()),
            WeightedAttr::new(5, 0.05, AttributeSim::Exact),
            WeightedAttr::new(6, 0.05, AttributeSim::Exact),
            WeightedAttr::new(7, 0.05, AttributeSim::Exact),
        ],
        0.80,
    )
}

#[test]
fn prepare_allocates_one_buffer_of_each_kind_it_fills() {
    let prepared = PreparedRule::new(books_rule());
    let allocations_of = |row: &[&str]| {
        let before = allocations();
        let entity = prepared.prepare(row);
        let allocated = allocations() - before;
        drop(entity);
        allocated
    };
    let book = [
        "the art of computer programming",
        "knuth",
        "addison wesley",
        "1968",
        "0201038013",
        "650",
        "english",
        "hardcover",
    ];
    // The records and one byte buffer for the four Levenshtein values.
    assert_eq!(allocations_of(&book), 2);
    // A non-ASCII title goes to a buffer of `char`s.
    let mut wide = book;
    wide[0] = "l'art de la programmation informatique, tome ü";
    assert_eq!(allocations_of(&wide), 3);
    // A 30-byte `Exact` value is too long for its record and joins the
    // Levenshtein values in the byte buffer.
    let mut long = book;
    long[7] = "hardcover with dust jacket, 1s";
    assert_eq!(long[7].len(), 30);
    assert_eq!(allocations_of(&long), 2);
}
