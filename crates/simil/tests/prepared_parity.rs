//! Property-based parity suite: the prepared path must reproduce the
//! string path exactly — bit-identical `score` values and identical
//! `matches` decisions — across every [`AttributeSim`] kernel, including
//! Unicode inputs (the DP fallback) and ASCII strings on both sides of the
//! 64-char Myers word boundary.

use proptest::collection::vec;
use proptest::prelude::*;

use pper_simil::{AttributeSim, MatchRule, PreparedRule, SimScratch, WeightedAttr};

/// One rule exercising every kernel shape, with a distinct weight per term
/// and a Levenshtein cap small enough for generated strings to exceed it.
fn every_kernel_rule(threshold: f64) -> MatchRule {
    let rule = MatchRule::new(
        vec![
            WeightedAttr::new(0, 0.45, AttributeSim::Levenshtein { max_chars: None }),
            WeightedAttr::new(
                1,
                0.35,
                AttributeSim::Levenshtein {
                    max_chars: Some(24),
                },
            ),
            WeightedAttr::new(2, 0.20, AttributeSim::Exact),
        ],
        threshold,
    );
    // No wildcard arm: a kernel added to `AttributeSim` fails to compile
    // here, and passes again only once this rule — and with it every
    // property below — has a term of the new shape.
    let mut covered = [false; 3];
    for term in &rule.attrs {
        let shape = match term.sim {
            AttributeSim::Levenshtein { max_chars: None } => 0,
            AttributeSim::Levenshtein { max_chars: Some(_) } => 1,
            AttributeSim::Exact => 2,
        };
        covered[shape] = true;
    }
    assert_eq!(covered, [true; 3], "a kernel shape has no parity term");
    rule
}

/// Assert the full parity contract on one pair of attribute vectors.
fn assert_parity(rule: &MatchRule, a: &[String], b: &[String]) {
    let prepared = PreparedRule::new(rule.clone());
    let mut scratch = SimScratch::new();
    let pa = prepared.prepare(a);
    let pb = prepared.prepare(b);

    let string_score = rule.score(a, b);
    let prep_score = prepared.score(&pa, &pb, &mut scratch);
    assert_eq!(
        prep_score.to_bits(),
        string_score.to_bits(),
        "score parity: prepared {prep_score} vs string {string_score} on {a:?} / {b:?}"
    );
    assert_eq!(
        prepared.matches(&pa, &pb, &mut scratch),
        rule.matches(a, b),
        "matches parity on {a:?} / {b:?} (score {string_score}, threshold {})",
        rule.threshold
    );
    // Scratch reuse must not change results: run the same pair again.
    assert_eq!(
        prepared.score(&pa, &pb, &mut scratch).to_bits(),
        string_score.to_bits(),
        "score parity must survive scratch reuse"
    );
}

proptest! {
    // ASCII vectors over every kernel; the capped attribute runs past its
    // cap, threshold sweeps the full range so both decisions occur.
    #[test]
    fn ascii_vectors_all_kernels(
        a0 in "[a-f]{0,12}", b0 in "[a-f]{0,12}",
        a1 in "[a-e ]{0,30}", b1 in "[a-e ]{0,30}",
        a2 in "[a-b]{0,3}", b2 in "[a-b]{0,3}",
        threshold in 0.0f64..1.0,
    ) {
        let rule = every_kernel_rule(threshold);
        let a = vec![a0, a1, a2];
        let b = vec![b0, b1, b2];
        assert_parity(&rule, &a, &b);
    }

    // Unicode inputs (the `.` alphabet includes multi-byte scalars) force
    // the Levenshtein DP fallback and exercise char-boundary truncation.
    #[test]
    fn unicode_vectors_all_kernels(
        a0 in ".{0,12}", b0 in ".{0,12}",
        a1 in ".{0,30}", b1 in ".{0,30}",
        a2 in ".{0,3}", b2 in ".{0,3}",
        threshold in 0.0f64..1.0,
    ) {
        let rule = every_kernel_rule(threshold);
        let a = vec![a0, a1, a2];
        let b = vec![b0, b1, b2];
        assert_parity(&rule, &a, &b);
    }

    // ASCII strings around the 64-char word boundary on an uncapped
    // Levenshtein term: one-word and two-word Myers patterns both occur.
    #[test]
    fn myers_word_boundary(
        a in "[a-d]{50,90}",
        b in "[a-d]{50,90}",
        threshold in 0.0f64..1.0,
    ) {
        let rule = MatchRule::new(
            vec![WeightedAttr::new(0, 1.0, AttributeSim::Levenshtein { max_chars: None })],
            threshold,
        );
        assert_parity(&rule, &[a], &[b]);
    }

    // Missing-value renormalization: empty strings and short vectors drop
    // terms identically on both paths.
    #[test]
    fn missing_values_renormalize_identically(
        a0 in "[a-c]{0,8}", b0 in "[a-c]{0,8}",
        a1 in "[a-c]{0,8}",
        len_a in 0usize..=3, len_b in 0usize..=3,
        threshold in 0.0f64..1.0,
    ) {
        let rule = every_kernel_rule(threshold);
        let mut a = vec![a0, a1, String::new()];
        let mut b = vec![b0.clone(), String::new(), b0];
        a.truncate(len_a);
        b.truncate(len_b);
        assert_parity(&rule, &a, &b);
    }

    // The paper's CiteSeerX rule at its real threshold, on strings shaped
    // like near-duplicates — the early-exit hot case.
    #[test]
    fn citeseer_shaped_pairs(
        title in "[a-e ]{5,40}",
        abs in "[a-e ]{0,80}",
        venue in "[a-c]{0,6}",
        typo in "[a-e]{1,3}",
    ) {
        let rule = MatchRule::new(
            vec![
                WeightedAttr::new(0, 0.55, AttributeSim::Levenshtein { max_chars: None }),
                WeightedAttr::new(1, 0.25, AttributeSim::Levenshtein { max_chars: Some(350) }),
                WeightedAttr::new(2, 0.20, AttributeSim::Levenshtein { max_chars: None }),
            ],
            0.82,
        );
        let a = vec![title.clone(), abs.clone(), venue.clone()];
        // A near-duplicate: the title with a small corruption appended.
        let near = vec![format!("{title}{typo}"), abs, venue];
        assert_parity(&rule, &a, &near);
        assert_parity(&rule, &a, &a);
        // And a far pair (reversed title) for the early-reject branch.
        let far = vec![
            title.chars().rev().collect::<String>(),
            String::new(),
            String::new(),
        ];
        assert_parity(&rule, &a, &far);
    }
}

/// `base` with its first `k` characters replaced through `swap`.
fn with_head(base: &str, k: usize, swap: impl Fn(char) -> char) -> String {
    base.chars()
        .enumerate()
        .map(|(i, c)| if i < k { swap(c) } else { c })
        .collect()
}

proptest! {
    // The bounds `matches` takes before a Levenshtein kernel runs, under
    // generated rules: random weights and threshold, an `Exact` term known
    // from the start, a second Levenshtein term scanned ahead of the first
    // whenever it drew the larger weight, a cap or none, attributes missing
    // on one side. Against one base value
    // stand values at *every* distance `k` from equal to disjoint — so
    // wherever the drawn rule puts the reject boundary, the pairs one edit to
    // either side of it are among them — built four ways: `k` characters
    // appended (the length bound sees `k`), replaced by a character of a
    // class the base lacks (the histogram bound sees `k`, as bytes and —
    // replaced by a non-ASCII one — as bytes against chars), and replaced
    // within their class (both bounds see 0 and only the scan can tell).
    #[test]
    fn bounded_matches_agrees_at_every_distance(
        base in "[a-h ]{1,40}",
        w_exact in 0.0f64..1.0, w_lev in 0.01f64..1.0, w_tail in 0.0f64..1.0,
        threshold in 0.0f64..1.0,
        cap in 0usize..3,
        same_category in 0u8..2,
        missing in 0u8..8,
    ) {
        let max_chars = [None, Some(16), Some(64)][cap];
        let rule = MatchRule::new(
            vec![
                WeightedAttr::new(0, w_exact, AttributeSim::Exact),
                WeightedAttr::new(1, w_lev, AttributeSim::Levenshtein { max_chars }),
                WeightedAttr::new(2, w_tail, AttributeSim::Levenshtein { max_chars: None }),
            ],
            threshold,
        );
        let a = vec!["x".to_string(), base.clone(), "p q r".to_string()];
        let len = base.chars().count();
        for k in 0..=len {
            for lev in [
                format!("{base}{}", "~".repeat(k)),
                with_head(&base, k, |_| '~'),
                with_head(&base, k, |_| 'é'),
                with_head(&base, k, |c| if c == ' ' { '@' } else { c.to_ascii_uppercase() }),
            ] {
                let mut b = vec![
                    if same_category == 1 { "x" } else { "y" }.to_string(),
                    lev,
                    "p q s".to_string(),
                ];
                for (i, value) in b.iter_mut().enumerate() {
                    // Never the Levenshtein value at every `k`: bit 1 drops
                    // it only for the odd ones.
                    if missing & (1 << i) != 0 && (i != 1 || k % 2 == 1) {
                        value.clear();
                    }
                }
                assert_parity(&rule, &a, &b);
                assert_parity(&rule, &b, &a);
            }
        }
    }
}

proptest! {
    // The first pass's early reject under generated rules: 2 to 8 terms of
    // random kinds and weights, a random threshold. Against one base vector
    // stand pairs whose first `k` terms are as far apart as they get (no
    // character class in common, or a different `Exact` value) and whose
    // later terms are equal, for every `k`: the score steps down term by
    // term across the threshold, so a reject one term too early, or one
    // that leaves out a term's weight, flips a decision here. Each value is
    // missing on one side or the other in a third of the cases.
    #[test]
    fn early_reject_agrees_at_every_term(
        weights in vec(0.0f64..1.0, 2..9),
        kinds in vec(0u8..3, 8..9),
        threshold in 0.0f64..1.0,
        base in vec("[a-h ]{1,12}", 8..9),
        far in vec("[0-9]{1,12}", 8..9),
        missing in vec(0u8..6, 8..9),
    ) {
        if weights.iter().all(|&w| w == 0.0) {
            return;
        }
        let terms = weights
            .iter()
            .zip(&kinds)
            .enumerate()
            .map(|(i, (&weight, kind))| {
                let sim = match kind {
                    0 => AttributeSim::Levenshtein { max_chars: None },
                    1 => AttributeSim::Levenshtein { max_chars: Some(6) },
                    _ => AttributeSim::Exact,
                };
                WeightedAttr::new(i, weight, sim)
            })
            .collect();
        let rule = MatchRule::new(terms, threshold);
        let n = weights.len();
        for k in 0..=n {
            let mut a = base[..n].to_vec();
            let mut b: Vec<String> = (0..n)
                .map(|i| if i < k { far[i].clone() } else { base[i].clone() })
                .collect();
            for i in 0..n {
                match missing[i] {
                    0 => a[i].clear(),
                    1 => b[i].clear(),
                    _ => {}
                }
            }
            assert_parity(&rule, &a, &b);
            assert_parity(&rule, &b, &a);
        }
    }
}

/// `ErConfig::books`' rule over title, authors, publisher, year, isbn,
/// pages, language and format, at its real threshold.
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

/// `book` with the `Exact` values picked by the bits of `mask` changed.
fn exacts_differing(book: &[String], mask: u8) -> Vec<String> {
    let mut other = book.to_vec();
    for (bit, i) in [3, 5, 6, 7].into_iter().enumerate() {
        if mask & (1 << bit) != 0 {
            other[i].push('9');
        }
    }
    other
}

proptest! {
    // The books rule on the three pair shapes its decisions turn on, each
    // with one value missing on one side in half the cases: near-duplicates
    // (the title one substitution away, the authors too or not); pairs that
    // differ only in the `Exact` terms; and titles one substitution apart
    // with authors that share no character class.
    #[test]
    fn books_shaped_pairs(
        title in "[a-h ]{5,40}",
        authors in "[a-h ]{3,24}",
        far_authors in "[p-w]{3,24}",
        publisher in "[a-e ]{2,16}",
        isbn in "[0-9]{10}",
        year in "[0-3]{1,2}",
        at in 0usize..40,
        letter in 0u8..8,
        typo_authors in 0u8..2,
        differ in 0u8..16,
        missing in 0usize..16,
    ) {
        let rule = books_rule();
        let book: Vec<String> = [
            title.as_str(), &authors, &publisher, &year, &isbn, "350", "english", "hardcover",
        ]
        .map(str::to_string)
        .to_vec();
        // One substitution (none if `letter` is already there).
        let substitute = |value: &str| {
            let at = at % value.chars().count();
            let swap = |(i, c)| if i == at { char::from(b'a' + letter) } else { c };
            value.chars().enumerate().map(swap).collect::<String>()
        };
        let mut near = book.clone();
        near[0] = substitute(&title);
        if typo_authors == 1 {
            near[1] = substitute(&authors);
        }
        let exact_only = exacts_differing(&book, differ);
        let mut far = exacts_differing(&book, differ);
        far[0] = substitute(&title);
        far[1] = far_authors;
        for mut other in [near, exact_only, far] {
            if let Some(value) = other.get_mut(missing) {
                value.clear();
            }
            assert_parity(&rule, &book, &other);
            assert_parity(&rule, &other, &book);
        }
    }
}

/// `Exact` values of every byte length from empty to twice the 23 bytes a
/// prepared value keeps inline (a longer one goes to the heap), each against
/// itself, itself one byte longer, itself with one byte changed at every
/// position, and itself with a two-, three- or four-byte character put in
/// at every position — so some of them straddle the capacity. The
/// Levenshtein term is equal, so the `Exact` term decides the pair.
#[test]
fn exact_values_on_both_sides_of_the_inline_capacity() {
    let rule = MatchRule::new(
        vec![
            WeightedAttr::new(0, 0.5, AttributeSim::Exact),
            WeightedAttr::new(1, 0.5, AttributeSim::Levenshtein { max_chars: None }),
        ],
        0.75,
    );
    for len in 0..=46 {
        let value: String = "abcdefghij".chars().cycle().take(len).collect();
        let mut others = vec![value.clone(), format!("{value}k")];
        for at in 0..=len {
            if at < len {
                let mut changed = value.clone().into_bytes();
                changed[at] = b'z';
                others.push(String::from_utf8(changed).unwrap());
            }
            for wide in ["é", "€", "😀"] {
                let mut with = value.clone();
                with.insert_str(at, wide);
                others.push(with);
            }
        }
        let a = vec![value, "pq".to_string()];
        for other in others {
            let b = vec![other, "pq".to_string()];
            assert_parity(&rule, &a, &b);
            assert_parity(&rule, &b, &a);
        }
    }
}

/// Thresholds sitting exactly on reachable score values: with no margin
/// in `matches`, equality is the edge case.
#[test]
fn exact_threshold_boundaries() {
    // Two equal-weight Exact terms → reachable scores {0, 0.5, 1}.
    for threshold in [0.0, 0.5, 1.0] {
        let rule = MatchRule::new(
            vec![
                WeightedAttr::new(0, 0.5, AttributeSim::Exact),
                WeightedAttr::new(1, 0.5, AttributeSim::Exact),
            ],
            threshold,
        );
        for (a, b) in [
            (["x", "y"], ["x", "y"]),
            (["x", "y"], ["x", "z"]),
            (["x", "y"], ["w", "z"]),
        ] {
            let a: Vec<String> = a.iter().map(|s| s.to_string()).collect();
            let b: Vec<String> = b.iter().map(|s| s.to_string()).collect();
            assert_parity(&rule, &a, &b);
        }
    }

    // A Levenshtein similarity alone (`abcd` / `abce`: 1 − 1/4 = 0.75), and
    // an `Exact` term's weight plus a Levenshtein term's share
    // (0.5 + 0.5·0.75 = 0.875): each pair at its own score and one ulp to
    // either side. The pairs reach the threshold with the bounds `matches`
    // starts from (one substitution between classes), with a bound of 1
    // (a transposition), or with a length difference and a missing value.
    let lev = || AttributeSim::Levenshtein { max_chars: None };
    let rules = [
        vec![WeightedAttr::new(0, 1.0, lev())],
        vec![
            WeightedAttr::new(1, 0.5, AttributeSim::Exact),
            WeightedAttr::new(0, 0.5, lev()),
        ],
        vec![
            WeightedAttr::new(0, 0.35, lev()),
            WeightedAttr::new(1, 0.05, AttributeSim::Exact),
            WeightedAttr::new(2, 0.20, lev()),
        ],
    ];
    let owned = |v: [&str; 3]| v.map(str::to_string).to_vec();
    let a = owned(["abcd", "x", "pq"]);
    assert_eq!(
        MatchRule::new(rules[0].clone(), 0.75).score(&a, &owned(["abce", "x", "pq"])),
        0.75
    );
    assert_eq!(
        MatchRule::new(rules[1].clone(), 0.875).score(&a, &owned(["abce", "x", "pq"])),
        0.875
    );
    let around_its_score = |terms: &[WeightedAttr], a: &[String], b: &[String]| {
        let score = MatchRule::new(terms.to_vec(), 0.0).score(a, b);
        let below = f64::from_bits(score.to_bits().saturating_sub(1));
        let above = f64::from_bits(score.to_bits() + 1);
        for threshold in [below, score, above] {
            if (0.0..=1.0).contains(&threshold) {
                let rule = MatchRule::new(terms.to_vec(), threshold);
                assert_parity(&rule, a, b);
                assert_parity(&rule, b, a);
            }
        }
    };
    for terms in &rules {
        for b in [
            ["abce", "x", "pq"],
            ["abce", "y", "pq"],
            ["bacd", "x", "qp"],
            ["abcdef", "x", ""],
        ] {
            around_its_score(terms, &a, &owned(b));
        }
    }

    // Levenshtein terms declared before an `Exact` one, every bound exact
    // (equal values, and two substitutions between classes): summed in
    // declaration order the score is one ulp above 0.86, and summed with
    // the `Exact` term first it is 0.86. So a bound summed in any other
    // order than the string path's rejects this pair at its own score.
    let terms = [
        WeightedAttr::new(0, 0.45, lev()),
        WeightedAttr::new(1, 0.35, lev()),
        WeightedAttr::new(2, 0.20, AttributeSim::Exact),
    ];
    let (a, b) = (owned(["abcd", "abcde", "x"]), owned(["abcd", "abcfg", "x"]));
    let score = MatchRule::new(terms.to_vec(), 0.0).score(&a, &b);
    assert_eq!(score, f64::from_bits(0.86f64.to_bits() + 1));
    assert!(0.20 + 0.45 + 0.35 * 0.6 < score);
    around_its_score(&terms, &a, &b);
}
