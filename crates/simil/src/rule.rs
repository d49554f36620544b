//! Weighted-sum match rules over entity attribute vectors (§VI-A2).
//!
//! A [`MatchRule`] scores a pair of entities as the weighted sum of
//! per-attribute similarities and declares them co-referent when the score
//! reaches a threshold. [`AttributeSim`] selects the kernel per attribute,
//! including the paper's cap of comparing "only the first ≤ 350 characters"
//! of the abstract attribute (footnote 8).

use crate::levenshtein::levenshtein_similarity;
use crate::prepared::MAX_TERMS;

/// Similarity kernel applied to one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum AttributeSim {
    /// Normalized Levenshtein similarity; `max_chars` truncates both inputs
    /// first (the paper compares only the first 350 chars of abstracts).
    Levenshtein { max_chars: Option<usize> },
    /// 1.0 on byte equality, else 0.0 (categorical attributes).
    Exact,
}

impl AttributeSim {
    /// Score two attribute values in `[0, 1]`.
    pub fn score(&self, a: &str, b: &str) -> f64 {
        match self {
            AttributeSim::Levenshtein { max_chars } => match max_chars {
                Some(cap) => levenshtein_similarity(truncate(a, *cap), truncate(b, *cap)),
                None => levenshtein_similarity(a, b),
            },
            AttributeSim::Exact => f64::from(a == b),
        }
    }
}

pub(crate) fn truncate(s: &str, max_chars: usize) -> &str {
    // An all-ASCII head is one byte per character and ends on a character
    // boundary (a continuation byte only follows a non-ASCII lead byte):
    // cut at the byte, without decoding. Fewer bytes than `max_chars` are
    // fewer characters too.
    match s.as_bytes().get(..max_chars) {
        None => return s,
        Some(head) if head.is_ascii() => return &s[..max_chars],
        Some(_) => {}
    }
    match s.char_indices().nth(max_chars) {
        Some((byte_idx, _)) => &s[..byte_idx],
        None => s,
    }
}

/// One attribute's contribution to a match rule.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedAttr {
    /// Index into the entity's attribute vector.
    pub attr: usize,
    /// Non-negative weight; weights are normalized at evaluation time.
    pub weight: f64,
    /// Similarity kernel.
    pub sim: AttributeSim,
}

impl WeightedAttr {
    /// Construct a weighted attribute term.
    pub fn new(attr: usize, weight: f64, sim: AttributeSim) -> Self {
        Self { attr, weight, sim }
    }
}

/// Weighted-summation match rule with a decision threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchRule {
    /// The weighted attribute terms.
    pub attrs: Vec<WeightedAttr>,
    /// Decision threshold in `[0, 1]` on the normalized weighted score.
    pub threshold: f64,
}

impl MatchRule {
    /// Build a rule from terms and a threshold.
    ///
    /// # Panics
    /// Panics if `attrs` is empty or has a million terms or more, any weight
    /// is negative, all weights are zero, or the threshold is outside
    /// `[0, 1]`.
    pub fn new(attrs: Vec<WeightedAttr>, threshold: f64) -> Self {
        assert!(!attrs.is_empty(), "match rule needs at least one attribute");
        // The prepared path's early reject has rounding room for this many.
        assert!(
            attrs.len() < MAX_TERMS,
            "match rule needs fewer than {MAX_TERMS} attributes"
        );
        assert!(
            attrs.iter().all(|a| a.weight >= 0.0),
            "weights must be non-negative"
        );
        assert!(
            attrs.iter().map(|a| a.weight).sum::<f64>() > 0.0,
            "at least one weight must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0,1]"
        );
        Self { attrs, threshold }
    }

    /// Normalized weighted similarity score of two attribute vectors.
    ///
    /// Missing values (empty strings or indices beyond either vector) carry
    /// no evidence either way, so their terms are *dropped* and the score is
    /// renormalized over the attributes both entities actually have — the
    /// standard treatment for dirty data, and what keeps a duplicate pair
    /// with one lost abstract from being rejected on that absence alone.
    /// A pair with no comparable attribute at all scores 0.
    pub fn score(&self, a: &[String], b: &[String]) -> f64 {
        let mut used_weight = 0.0;
        let mut score = 0.0;
        for term in &self.attrs {
            let (Some(va), Some(vb)) = (a.get(term.attr), b.get(term.attr)) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            used_weight += term.weight;
            score += term.weight * term.sim.score(va, vb);
        }
        if used_weight == 0.0 {
            0.0
        } else {
            score / used_weight
        }
    }

    /// The co-reference decision: `score >= threshold`.
    pub fn matches(&self, a: &[String], b: &[String]) -> bool {
        self.score(a, b) >= self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rule() -> MatchRule {
        MatchRule::new(
            vec![
                WeightedAttr::new(0, 0.6, AttributeSim::Levenshtein { max_chars: None }),
                WeightedAttr::new(1, 0.4, AttributeSim::Exact),
            ],
            0.85,
        )
    }

    fn ent(a: &str, b: &str) -> Vec<String> {
        vec![a.to_string(), b.to_string()]
    }

    #[test]
    fn identical_entities_match() {
        let r = rule();
        let e = ent("progressive entity resolution", "ICDE");
        assert_eq!(r.score(&e, &e), 1.0);
        assert!(r.matches(&e, &e));
    }

    #[test]
    fn near_duplicates_match_distinct_dont() {
        let r = rule();
        let a = ent("progressive entity resolution", "ICDE");
        let b = ent("progresive entity resolution", "ICDE"); // one typo
        let c = ent("stream processing at scale", "VLDB");
        assert!(r.matches(&a, &b));
        assert!(!r.matches(&a, &c));
    }

    #[test]
    fn missing_attributes_renormalize() {
        let r = rule();
        let a = ent("title", "ICDE");
        let b = vec!["title".to_string()]; // venue missing
                                           // Only the title term is comparable: identical titles ⇒ score 1.
        assert!((r.score(&a, &b) - 1.0).abs() < 1e-12);
        // Nothing comparable at all ⇒ 0.
        let empty = vec![String::new(), String::new()];
        assert_eq!(r.score(&a, &empty), 0.0);
    }

    #[test]
    fn truncation_cap_applies() {
        let long_a = "x".repeat(500);
        let mut long_b = "x".repeat(350);
        long_b.push_str(&"y".repeat(150)); // differs only after 350 chars
        let sim = AttributeSim::Levenshtein {
            max_chars: Some(350),
        };
        assert_eq!(sim.score(&long_a, &long_b), 1.0);
        let uncapped = AttributeSim::Levenshtein { max_chars: None };
        assert!(uncapped.score(&long_a, &long_b) < 1.0);
    }

    #[test]
    fn truncate_respects_char_boundaries() {
        assert_eq!(truncate("αβγδ", 2), "αβ");
        assert_eq!(truncate("ab", 10), "ab");
    }

    #[test]
    #[should_panic(expected = "at least one attribute")]
    fn rejects_empty_rule() {
        let _ = MatchRule::new(vec![], 0.5);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_bad_threshold() {
        let _ = MatchRule::new(vec![WeightedAttr::new(0, 1.0, AttributeSim::Exact)], 1.5);
    }

    proptest! {
        #[test]
        fn prop_score_in_unit_interval(a in "[a-d]{0,10}", b in "[a-d]{0,10}", c in "[a-d]{0,6}", d in "[a-d]{0,6}") {
            let r = rule();
            let s = r.score(&ent(&a, &c), &ent(&b, &d));
            prop_assert!((0.0..=1.0).contains(&s));
        }

        // ASCII heads of every length around the cap (cut at the byte) in
        // front of arbitrary tails (cut by decoding).
        #[test]
        fn prop_truncate_keeps_the_first_chars(head in "[a-z ]{0,12}", tail in ".{0,12}", cap in 0usize..30) {
            let s = format!("{head}{tail}");
            prop_assert_eq!(truncate(&s, cap), s.chars().take(cap).collect::<String>());
        }

        #[test]
        fn prop_score_symmetric(a in "[a-d]{0,10}", b in "[a-d]{0,10}") {
            let r = rule();
            let ea = ent(&a, "v");
            let eb = ent(&b, "v");
            prop_assert!((r.score(&ea, &eb) - r.score(&eb, &ea)).abs() < 1e-12);
        }
    }
}
