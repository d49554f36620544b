//! Zero-allocation prepared similarity signatures and threshold-aware
//! early-exit matching.
//!
//! The string-path [`MatchRule::score`] truncates both values to the
//! term's cap and re-collects them into `Vec<char>` buffers on *every*
//! pair — yet an entity in a block of `n` participates in ~`n` comparisons
//! and recurs across overlapping blocks. This module amortizes all of that
//! per *entity* instead of per *pair*:
//!
//! * [`PreparedEntity`] — per rule term, the signature that term's kernel
//!   consumes: a Levenshtein value (any `max_chars` cap pre-applied) in one
//!   of two representations with its character-class histogram (below), or
//!   the raw value for `Exact`.
//! * [`PreparedRule`] — scores/matches two [`PreparedEntity`]s using a
//!   reusable [`SimScratch`] (DP row, Myers character-class table), so the
//!   per-pair path performs **zero heap allocation** after scratch buffers
//!   reach their high-water mark.
//! * [`PreparedCache`] — the per-reduce-task signature store (entity id →
//!   slot, [`PreparedEntity`] by slot) both reducers of the pipeline
//!   resolve through: prepare once per task, compare by slot.
//!
//! # Parity contract
//!
//! For the same rule and attribute vectors:
//!
//! * [`PreparedRule::score`] returns **bit-identical** `f64` values to
//!   [`MatchRule::score`] — it evaluates terms in the original declaration
//!   order with the same floating-point operation sequence, and every
//!   kernel reproduces the string kernel's exact arithmetic (integer
//!   distance/overlap counts feeding the same normalization expression).
//! * [`PreparedRule::matches`] returns **identical decisions** to
//!   [`MatchRule::matches`], with no margin: it runs a term's kernel only
//!   while the whole rule's bounds (below) leave the decision open, and
//!   both bounds are exact tests of the string path's score.
//!
//! # Levenshtein values: two representations, and a distance floor
//!
//! An ASCII value is kept one byte per character (`LevText::Ascii`):
//! preparing it is a copy of the attribute's bytes, and the blocked Myers
//! bit-parallel scan (`crate::myers`: `⌈len/64⌉` words per column, the
//! shorter value as the pattern) reads it as it is, at any length. Any
//! other value is kept as Unicode scalar values (`LevText::Wide`) for the
//! two-row DP, which is generic over the two element types, so a pair with
//! one value of each kind compares without a converted copy. Both kernels
//! produce the same exact integer distance.
//!
//! Beside the value sits a histogram of its characters over 32 folded
//! classes (scalar value mod 32), `[u8; 32]`; a value with more than 255
//! characters of one class has none. [`PreparedRule::matches`] — `score`
//! never — uses it to bound a Levenshtein term *before* its kernel runs.
//! The distance `d` is at least the length difference, and at least the
//! *bag distance* of the two histograms (an edit moves at most one
//! occurrence into, out of, or between classes, so `d` edits cannot undo a
//! surplus of more than `d` occurrences, and it is never below the length
//! difference). That floor, `d₀` — the length difference alone where a
//! value has no histogram — costs nothing to read.
//!
//! # The whole rule's bound
//!
//! `matches` gives every term a similarity before any kernel runs: an
//! `Exact` term its exact one (byte equality), a Levenshtein term the upper
//! bound `sim(d₀)`. Then, until the pair is decided:
//!
//! * it **rejects** if `upper / used_weight < threshold`, where `upper` is
//!   `Σ w·bound` over the usable terms;
//! * it **accepts** if `lower / used_weight ≥ threshold`, where `lower` is
//!   `Σ w·sim` over the terms known exactly;
//! * otherwise it runs the kernel of the heaviest Levenshtein term still
//!   bounded (the first in declaration order on a tie), replaces its bound
//!   with its exact similarity, and tests again. With no such term left,
//!   `lower` is the string path's score and its test is the string path's.
//!
//! Both tests are exact, with no margin. `used_weight`, `upper` and `lower`
//! are summed in declaration order — the string path's operation sequence —
//! and every operand of `upper` is at least, every operand of `lower` at
//! most, the string path's operand in the same place. Each step is monotone
//! under IEEE rounding: `d₀ as f64 ≤ d as f64` (exact integers), so
//! `1 − d₀/len ≥ 1 − d/len` (division by a positive value and subtraction
//! from a constant, each correctly rounded, preserve order), so
//! `w·sim(d₀) ≥ w·sim(d)` for a weight `w ≥ 0`; a term left out of `lower`
//! is an addend of `0 ≤ w·sim`; and a correctly rounded sum or quotient of
//! larger operands is no smaller. So `upper / used_weight` is at least, and
//! `lower / used_weight` at most, the string path's score, and each test
//! that fires gives the string path's answer.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;

use crate::levenshtein::levenshtein_scratch;
use crate::myers::MyersScratch;
use crate::rule::{truncate, AttributeSim, MatchRule};

/// Character classes of a [`LevSig`] histogram: a scalar value's low five
/// bits, which folds the two cases of a letter into one class.
const CLASSES: usize = 32;

/// A Levenshtein value as the kernels read it, in one of two
/// representations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LevText {
    /// An ASCII value, one byte per character: what the bit-parallel scan
    /// reads, and a `memcpy` of the attribute to prepare.
    Ascii(Box<[u8]>),
    /// Any other value as Unicode scalar values, for the two-row DP.
    Wide(Box<[char]>),
}

impl LevText {
    /// Length in characters.
    pub(crate) fn len(&self) -> usize {
        match self {
            LevText::Ascii(bytes) => bytes.len(),
            LevText::Wide(chars) => chars.len(),
        }
    }
}

/// One Levenshtein term's signature: the value and what bounds its distance
/// to another value from below without reading either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LevSig {
    pub(crate) text: LevText,
    /// Occurrences of each character class in `text`; `None` when some
    /// class occurs more often than a `u8` counts, and the value then takes
    /// part in no histogram bound.
    hist: Option<[u8; CLASSES]>,
}

impl LevSig {
    fn new(value: &str) -> Self {
        let mut counts = [0u32; CLASSES];
        let text = if value.is_ascii() {
            for &b in value.as_bytes() {
                counts[usize::from(b) % CLASSES] += 1;
            }
            LevText::Ascii(value.as_bytes().into())
        } else {
            let chars: Box<[char]> = value.chars().collect();
            for &c in chars.iter() {
                counts[c as usize % CLASSES] += 1;
            }
            LevText::Wide(chars)
        };
        let hist = counts
            .iter()
            .all(|&n| n <= u32::from(u8::MAX))
            .then(|| counts.map(|n| n as u8));
        Self { text, hist }
    }

    /// A lower bound on the edit distance to `other` that reads neither
    /// value: the *bag distance* of the two histograms where both have one,
    /// the length difference otherwise. One edit adds an occurrence to a
    /// class, removes one, or moves one between two classes, so it lowers
    /// the surplus of either value over the other — summed over the classes
    /// — by at most one, and both surpluses are zero between equal values.
    fn distance_floor(&self, other: &Self) -> usize {
        let len_diff = self.text.len().abs_diff(other.text.len());
        let (Some(a), Some(b)) = (&self.hist, &other.hist) else {
            return len_diff;
        };
        // The two surpluses add up to the classes' absolute differences
        // and differ by the length difference; this is the larger one, so
        // never below the length difference.
        let differences: u32 = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| u32::from(x.abs_diff(y)))
            .sum();
        (differences as usize + len_diff) / 2
    }
}

/// Normalized Levenshtein similarity of two values at distance `d`, the
/// longer of `max_len` characters — the string kernel's expression.
#[inline]
pub(crate) fn levenshtein_sim(d: usize, max_len: usize) -> f64 {
    if max_len == 0 {
        return 1.0;
    }
    1.0 - d as f64 / max_len as f64
}

/// One rule term's precomputed signature for one entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PreparedAttr {
    /// Attribute index out of range or value empty — the term is dropped
    /// for any pair involving this entity (mirroring the string path's
    /// missing-value renormalization).
    Missing,
    /// Levenshtein value (cap pre-applied) with its character-class
    /// histogram.
    Lev(LevSig),
    /// The raw value (`Exact`).
    Raw(String),
}

/// All of one entity's per-term signatures for one [`PreparedRule`]
/// (`terms[i]` pairs with `rule.attrs[i]`).
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedEntity {
    pub(crate) terms: Vec<PreparedAttr>,
}

/// Reusable kernel buffers: everything the per-pair path needs beyond the
/// two [`PreparedEntity`]s. Buffers grow to a high-water mark and are
/// reused, so a warm scratch makes pair comparison allocation-free.
#[derive(Debug, Default)]
pub(crate) struct KernelScratch {
    /// Two-row DP buffer for the non-ASCII Levenshtein fallback (either or
    /// both sides non-ASCII: the DP reads bytes and chars alike).
    pub(crate) row: Vec<usize>,
    /// Blocked-Myers character-class table and column state (the table is
    /// filled and re-cleared per call by touching only the pattern's
    /// characters).
    pub(crate) myers: MyersScratch,
}

/// What [`PreparedRule::matches`] knows of one term's similarity on the
/// pair it is deciding.
#[derive(Debug, Clone, Copy)]
enum Known {
    /// A value is missing on either side: the term is dropped.
    Dropped,
    /// At most this: a Levenshtein term whose kernel has not run, at the
    /// similarity of its distance's lower bound.
    AtMost(f64),
    /// Exactly this.
    Exact(f64),
}

/// Reusable per-task scratch for [`PreparedRule::score`] /
/// [`PreparedRule::matches`]. Create one per reduce task (or worker) and
/// pass it to every pair comparison.
#[derive(Debug, Default)]
pub struct SimScratch {
    pub(crate) kernels: KernelScratch,
    /// Per term, what `matches` knows of the current pair's similarity.
    known: Vec<Known>,
}

impl SimScratch {
    /// Fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A [`MatchRule`] compiled for prepared evaluation: signatures are built
/// per entity via [`PreparedRule::prepare`], pairs are scored via
/// [`PreparedRule::score`] / [`PreparedRule::matches`].
#[derive(Debug, Clone)]
pub struct PreparedRule {
    rule: MatchRule,
}

impl PreparedRule {
    /// Compile a rule for prepared evaluation.
    pub fn new(rule: MatchRule) -> Self {
        Self { rule }
    }

    /// The underlying rule.
    pub fn rule(&self) -> &MatchRule {
        &self.rule
    }

    /// Build the per-term signatures of one entity from owned or borrowed
    /// attribute values (a row served straight out of an on-disk store
    /// needs no intermediate `Vec<String>`). All allocation of the prepared
    /// path happens here, once per entity per task — never per pair.
    pub fn prepare<S: AsRef<str>>(&self, attrs: &[S]) -> PreparedEntity {
        let terms = self
            .rule
            .attrs
            .iter()
            .map(|term| {
                let Some(v) = attrs.get(term.attr).map(|s| s.as_ref()) else {
                    return PreparedAttr::Missing;
                };
                if v.is_empty() {
                    return PreparedAttr::Missing;
                }
                match &term.sim {
                    AttributeSim::Levenshtein { max_chars } => {
                        let capped = match max_chars {
                            Some(cap) => truncate(v, *cap),
                            None => v,
                        };
                        PreparedAttr::Lev(LevSig::new(capped))
                    }
                    AttributeSim::Exact => PreparedAttr::Raw(v.to_string()),
                }
            })
            .collect();
        PreparedEntity { terms }
    }

    /// Normalized weighted similarity — **bit-identical** to
    /// [`MatchRule::score`] on the same attribute vectors: terms are
    /// accumulated in declaration order with the same operation sequence.
    pub fn score(&self, a: &PreparedEntity, b: &PreparedEntity, s: &mut SimScratch) -> f64 {
        debug_assert_eq!(a.terms.len(), self.rule.attrs.len());
        debug_assert_eq!(b.terms.len(), self.rule.attrs.len());
        let mut used_weight = 0.0;
        let mut score = 0.0;
        for (i, term) in self.rule.attrs.iter().enumerate() {
            let (ta, tb) = (&a.terms[i], &b.terms[i]);
            if matches!(ta, PreparedAttr::Missing) || matches!(tb, PreparedAttr::Missing) {
                continue;
            }
            used_weight += term.weight;
            score += term.weight * term_score(&term.sim, ta, tb, &mut s.kernels);
        }
        if used_weight == 0.0 {
            0.0
        } else {
            score / used_weight
        }
    }

    /// The co-reference decision — **identical** to [`MatchRule::matches`]
    /// but threshold-aware: every term starts at what costs nothing to know
    /// (an `Exact` term's similarity, a Levenshtein term's similarity at
    /// the distance its lengths and histograms bound it by from below), and
    /// Levenshtein kernels run, heaviest term first, only while the whole
    /// rule's bounds leave the decision open (see the module docs for why
    /// both tests are exact).
    pub fn matches(&self, a: &PreparedEntity, b: &PreparedEntity, s: &mut SimScratch) -> bool {
        let terms = &self.rule.attrs;
        debug_assert_eq!(a.terms.len(), terms.len());
        debug_assert_eq!(b.terms.len(), terms.len());
        let threshold = self.rule.threshold;

        s.known.clear();
        let mut used_weight = 0.0;
        for (term, (ta, tb)) in terms.iter().zip(a.terms.iter().zip(&b.terms)) {
            let known = match (ta, tb) {
                (PreparedAttr::Missing, _) | (_, PreparedAttr::Missing) => Known::Dropped,
                (PreparedAttr::Lev(la), PreparedAttr::Lev(lb)) => Known::AtMost(levenshtein_sim(
                    la.distance_floor(lb),
                    la.text.len().max(lb.text.len()),
                )),
                _ => Known::Exact(term_score(&term.sim, ta, tb, &mut s.kernels)),
            };
            if !matches!(known, Known::Dropped) {
                used_weight += term.weight;
            }
            s.known.push(known);
        }
        if used_weight == 0.0 {
            return 0.0 >= threshold;
        }

        loop {
            // Both sums in declaration order, the string path's operation
            // sequence: `upper` adds each term at its bound, `lower` only
            // the terms known exactly.
            let (mut upper, mut lower) = (0.0f64, 0.0f64);
            let mut heaviest_open: Option<usize> = None;
            for (i, (term, known)) in terms.iter().zip(&s.known).enumerate() {
                match *known {
                    Known::Dropped => {}
                    Known::AtMost(sim) => {
                        upper += term.weight * sim;
                        if heaviest_open.is_none_or(|h| term.weight > terms[h].weight) {
                            heaviest_open = Some(i);
                        }
                    }
                    Known::Exact(sim) => {
                        upper += term.weight * sim;
                        lower += term.weight * sim;
                    }
                }
            }
            if upper / used_weight < threshold {
                return false;
            }
            if lower / used_weight >= threshold {
                return true;
            }
            // With no term open, `lower` is the string path's score.
            let Some(i) = heaviest_open else {
                return false;
            };
            let sim = term_score(&terms[i].sim, &a.terms[i], &b.terms[i], &mut s.kernels);
            s.known[i] = Known::Exact(sim);
        }
    }
}

/// Exact edit distance of two prepared values: the blocked Myers scan when
/// both are ASCII (the shorter as the pattern), the two-row DP otherwise.
fn levenshtein_distance(a: &LevText, b: &LevText, s: &mut KernelScratch) -> usize {
    match (a, b) {
        (LevText::Ascii(x), LevText::Ascii(y)) => {
            let (short, long) = if x.len() <= y.len() { (x, y) } else { (y, x) };
            if short.is_empty() {
                long.len()
            } else {
                s.myers.distance(short, long)
            }
        }
        (LevText::Ascii(x), LevText::Wide(y)) => levenshtein_scratch(x, y, &mut s.row),
        (LevText::Wide(x), LevText::Ascii(y)) => levenshtein_scratch(x, y, &mut s.row),
        (LevText::Wide(x), LevText::Wide(y)) => levenshtein_scratch(x, y, &mut s.row),
    }
}

/// One term's kernel over prepared signatures — each arm reproduces the
/// corresponding string kernel's exact arithmetic.
pub(crate) fn term_score(
    sim: &AttributeSim,
    a: &PreparedAttr,
    b: &PreparedAttr,
    s: &mut KernelScratch,
) -> f64 {
    match (sim, a, b) {
        (AttributeSim::Levenshtein { .. }, PreparedAttr::Lev(la), PreparedAttr::Lev(lb)) => {
            let max_len = la.text.len().max(lb.text.len());
            levenshtein_sim(levenshtein_distance(&la.text, &lb.text, s), max_len)
        }
        (AttributeSim::Exact, PreparedAttr::Raw(va), PreparedAttr::Raw(vb)) => f64::from(va == vb),
        _ => unreachable!("entity prepared for a different rule"),
    }
}

/// The one per-task signature store: a `key → slot` map and the prepared
/// entities by slot. An entity is prepared the first time the task sees its
/// key; a reducer memoizes the returned slot per block or tree member, so
/// the map is probed once per member and every pair comparison is two slice
/// indexes ([`at`](Self::at)).
#[derive(Debug, Default)]
pub struct PreparedCache<K> {
    slot_of: HashMap<K, u32>,
    entities: Vec<PreparedEntity>,
}

impl<K: Eq + Hash> PreparedCache<K> {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            slot_of: HashMap::new(),
            entities: Vec::new(),
        }
    }

    /// Number of entities prepared so far.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// True if no entity has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// The slot of `key`, preparing `attrs` under it on first sight.
    pub fn slot(&mut self, rule: &PreparedRule, key: K, attrs: &[String]) -> u32 {
        match self.slot_of.entry(key) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(vacant) => {
                self.entities.push(rule.prepare(attrs));
                *vacant.insert(self.entities.len() as u32 - 1)
            }
        }
    }

    /// The prepared signatures in `slot`.
    ///
    /// # Panics
    /// Panics if [`slot`](Self::slot) never returned `slot`.
    #[inline]
    pub fn at(&self, slot: u32) -> &PreparedEntity {
        &self.entities[slot as usize]
    }

    /// Prepare `attrs` under `key` unless already cached.
    pub fn ensure(&mut self, rule: &PreparedRule, key: K, attrs: &[String]) {
        self.slot(rule, key, attrs);
    }

    /// The prepared signatures of a cached entity.
    ///
    /// # Panics
    /// Panics if `key` was never [`ensure`](Self::ensure)d.
    pub fn get(&self, key: &K) -> &PreparedEntity {
        #[expect(
            clippy::expect_used,
            reason = "documented panicking accessor (see # Panics); misuse is a caller bug, \
                      not a runtime fault"
        )]
        self.at(*self.slot_of.get(key).expect("entity not prepared"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenshtein::levenshtein;
    use crate::rule::WeightedAttr;
    use proptest::prelude::*;

    fn citeseer_rule() -> MatchRule {
        MatchRule::new(
            vec![
                WeightedAttr::new(0, 0.55, AttributeSim::Levenshtein { max_chars: None }),
                WeightedAttr::new(
                    1,
                    0.25,
                    AttributeSim::Levenshtein {
                        max_chars: Some(350),
                    },
                ),
                WeightedAttr::new(2, 0.20, AttributeSim::Levenshtein { max_chars: None }),
            ],
            0.82,
        )
    }

    #[test]
    fn prepared_score_bit_identical_on_citeseer_rule() {
        let rule = citeseer_rule();
        let pr = PreparedRule::new(rule.clone());
        let mut scratch = SimScratch::new();
        let cases = [
            (
                vec!["progressive entity resolution", "some abstract", "ICDE"],
                vec!["progresive entity resolution", "some abstract", "ICDE"],
            ),
            (
                vec!["a completely different title", "", "VLDB"],
                vec!["progressive entity resolution", "some abstract", ""],
            ),
            (vec!["", "", ""], vec!["", "", ""]),
        ];
        for (a, b) in cases {
            let sa: Vec<String> = a.iter().map(|s| s.to_string()).collect();
            let sb: Vec<String> = b.iter().map(|s| s.to_string()).collect();
            let pa = pr.prepare(&sa);
            let pb = pr.prepare(&sb);
            assert_eq!(
                pr.score(&pa, &pb, &mut scratch).to_bits(),
                rule.score(&sa, &sb).to_bits()
            );
            assert_eq!(pr.matches(&pa, &pb, &mut scratch), rule.matches(&sa, &sb));
        }
    }

    #[test]
    fn early_exit_decisions_match_string_path() {
        let rule = citeseer_rule();
        let pr = PreparedRule::new(rule.clone());
        let mut scratch = SimScratch::new();
        // A pair whose first (heaviest) term alone forces the reject.
        let sa = vec![
            "totally unrelated words here".to_string(),
            "x".to_string(),
            "y".to_string(),
        ];
        let sb = vec![
            "progressive entity resolution".to_string(),
            "x".to_string(),
            "y".to_string(),
        ];
        let (a, b) = (pr.prepare(&sa), pr.prepare(&sb));
        assert_eq!(pr.matches(&a, &b, &mut scratch), rule.matches(&sa, &sb));
    }

    fn single_levenshtein_rule() -> MatchRule {
        MatchRule::new(
            vec![WeightedAttr::new(
                0,
                1.0,
                AttributeSim::Levenshtein { max_chars: None },
            )],
            0.5,
        )
    }

    #[test]
    fn ascii_terms_never_reach_the_dp_at_any_length() {
        // The DP is the only user of `kernels.row`, so a row buffer that
        // never grew proves no ASCII/ASCII term reached it — one word,
        // several words, either side shorter, `score` and `matches`.
        let rule = single_levenshtein_rule();
        let pr = PreparedRule::new(rule.clone());
        let mut scratch = SimScratch::new();
        let base = "the quick brown fox jumps over the lazy dog again and again forever ";
        let values: Vec<Vec<String>> = [1usize, 20, 64, 65, 130, 350]
            .iter()
            .map(|&n| vec![base.chars().cycle().take(n).collect::<String>()])
            .chain([vec![base.repeat(3).replace("quick", "quik")]])
            .collect();
        let prepared: Vec<_> = values.iter().map(|v| pr.prepare(v)).collect();
        for (va, pa) in values.iter().zip(&prepared) {
            for (vb, pb) in values.iter().zip(&prepared) {
                assert_eq!(
                    pr.score(pa, pb, &mut scratch).to_bits(),
                    rule.score(va, vb).to_bits()
                );
                assert_eq!(pr.matches(pa, pb, &mut scratch), rule.matches(va, vb));
            }
        }
        assert_eq!(scratch.kernels.row.capacity(), 0, "DP ran on ASCII input");
    }

    #[test]
    fn non_ascii_input_takes_the_dp_and_agrees() {
        let rule = single_levenshtein_rule();
        let pr = PreparedRule::new(rule.clone());
        let mut scratch = SimScratch::new();
        let sa = vec!["café au lait".to_string()];
        let sb = vec!["cafe au lait".to_string()];
        let pa = pr.prepare(&sa);
        let pb = pr.prepare(&sb);
        assert_eq!(
            pr.score(&pa, &pb, &mut scratch).to_bits(),
            rule.score(&sa, &sb).to_bits()
        );
        assert!(scratch.kernels.row.capacity() > 0, "DP did not run");
    }

    /// Signature and capped value, as `prepare` derives them.
    fn capped_sig(value: &str, cap: Option<usize>) -> (LevSig, &str) {
        let capped = cap.map_or(value, |cap| truncate(value, cap));
        (LevSig::new(capped), capped)
    }

    proptest! {
        #[test]
        fn distance_floor_never_exceeds_the_distance(
            a in ".{0,40}", b in ".{0,40}",
            x in "[a-f ]{0,60}", y in "[a-f ]{0,60}",
            cap in 0usize..50, capped in 0u8..2,
        ) {
            let cap = (capped == 1).then_some(cap);
            // Unicode against Unicode, ASCII against ASCII, and mixed.
            for (p, q) in [(&a, &b), (&x, &y), (&a, &y)] {
                let ((sp, cp), (sq, cq)) = (capped_sig(p, cap), capped_sig(q, cap));
                let (d, floor) = (levenshtein(cp, cq), sp.distance_floor(&sq));
                prop_assert!(floor <= d, "{cp:?} / {cq:?}");
                prop_assert!(floor >= sp.text.len().abs_diff(sq.text.len()));
                prop_assert_eq!(floor, sq.distance_floor(&sp));
                prop_assert_eq!(sp.distance_floor(&sp), 0);
            }
        }

        // More repeats of one class than a `u8` counts: the value has no
        // histogram, and a pair with it falls back to the length bound —
        // never to a bound read off a wrapped or clamped count.
        #[test]
        fn saturated_histogram_gives_no_bound_never_a_wrong_one(
            run in 250usize..300,
            other_run in 0usize..300,
            tail in "[a-d]{0,12}",
            other in "[a-d ]{0,40}",
            wide in 0u8..2,
            cap in 200usize..400, capped in 0u8..2,
        ) {
            let cap = (capped == 1).then_some(cap);
            // 'a', 'A' and 'á' share class 1.
            let long = format!("{}{tail}", if wide == 1 { "á" } else { "a" }.repeat(run));
            let (sig, kept) = capped_sig(&long, cap);
            let in_class = kept.chars().filter(|&c| c as usize % CLASSES == 1).count();
            prop_assert_eq!(sig.hist.is_none(), in_class > usize::from(u8::MAX));
            for q in [other, "A".repeat(other_run), "b".repeat(other_run)] {
                let (sq, cq) = capped_sig(&q, cap);
                let floor = sig.distance_floor(&sq);
                prop_assert!(floor <= levenshtein(kept, cq), "{run} / {cq:?}");
                if sig.hist.is_none() || sq.hist.is_none() {
                    prop_assert_eq!(floor, sig.text.len().abs_diff(sq.text.len()));
                }
            }
        }
    }

    /// `matches` on one pair — checked against the string path — and the
    /// Myers scans it ran.
    fn decide_counting(rule: &MatchRule, a: &[&str], b: &[&str]) -> (bool, usize) {
        let owned = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (va, vb) = (owned(a), owned(b));
        let pr = PreparedRule::new(rule.clone());
        let mut scratch = SimScratch::new();
        let decision = pr.matches(&pr.prepare(&va), &pr.prepare(&vb), &mut scratch);
        assert_eq!(decision, rule.matches(&va, &vb), "{a:?} / {b:?}");
        (decision, scratch.kernels.myers.scans)
    }

    #[test]
    fn bound_rejected_pairs_run_no_scan() {
        let rule = MatchRule::new(single_levenshtein_rule().attrs, 0.8);
        let decide = |a, b| decide_counting(&rule, &[a], &[b]);
        // Too different in length to reach 0.8, whatever the characters.
        assert_eq!(
            decide("progressive entity resolution", "progressive"),
            (false, 0)
        );
        // Equal lengths, so the length bound says nothing; no class in common.
        assert_eq!(decide("abcdefghijklmnop", "qrstuvwxyzqrstuv"), (false, 0));
        // Neither bound decides these two: one scan each, either outcome.
        assert_eq!(
            decide(
                "progressive entity resolution",
                "progresive entity resolution"
            ),
            (true, 1)
        );
        assert_eq!(decide("abcdefghijklmnop", "ponmlkjihgfedcba"), (false, 1));
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

    const BOOK: [&str; 8] = [
        "the art of computer programming",
        "knuth",
        "addison wesley",
        "1968",
        "0201038013",
        "650",
        "english",
        "hardcover",
    ];

    #[test]
    fn whole_rule_bound_rejects_before_any_scan() {
        let rule = books_rule();
        // The title one edit away — its own bound, 30/31, rejects nothing —
        // authors with no character class in common (a bound of 0),
        // publisher and isbn equal, and every `Exact` term different.
        let other = [
            "the art of computer programing",
            "sievers",
            "addison wesley",
            "1973",
            "0201038013",
            "672",
            "german",
            "paperback",
        ];
        assert_eq!(decide_counting(&rule, &BOOK, &other), (false, 0));
        // The same with the language missing on one side. With the
        // Levenshtein terms taken at 1, the rule could still reach 0.8 of
        // the 0.95 left; at their bounds it reaches 0.62.
        let mut other = other;
        other[6] = "";
        assert_eq!(decide_counting(&rule, &BOOK, &other), (false, 0));
    }

    #[test]
    fn duplicates_scan_each_levenshtein_term_at_most_once() {
        let rule = books_rule();
        let mut typo = BOOK;
        typo[0] = "the art of computer programing";
        let mut no_publisher = typo;
        no_publisher[2] = "";
        for other in [BOOK, typo, no_publisher] {
            let (decision, scans) = decide_counting(&rule, &BOOK, &other);
            assert!(decision, "{other:?}");
            assert!(scans <= 4, "{scans} scans for 4 Levenshtein terms");
        }
    }

    #[test]
    fn cache_prepares_each_entity_once() {
        let pr = PreparedRule::new(citeseer_rule());
        let mut cache: PreparedCache<u32> = PreparedCache::new();
        let a = vec!["title one".to_string(), "abs".to_string(), "v".to_string()];
        let b = vec!["title two".to_string(), "abs".to_string(), "v".to_string()];
        for _ in 0..3 {
            assert_eq!(cache.slot(&pr, 1, &a), 0);
            assert_eq!(cache.slot(&pr, 2, &b), 1);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.at(1), cache.get(&2));
        assert_ne!(cache.at(0), cache.at(1));
    }
}
