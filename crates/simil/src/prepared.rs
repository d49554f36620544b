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
//!   [`MatchRule::matches`]. It evaluates terms in descending weight order
//!   and stops as soon as the accept/reject decision is forced: accept once
//!   the pessimistic bound (remaining terms scoring 0) clears the
//!   threshold, reject once the optimistic bound (remaining terms
//!   scoring 1) cannot reach it. Both bounds carry a `1e-9` guard band
//!   — orders of
//!   magnitude above the worst-case float-summation error for any
//!   realistic term count — and when neither bound forces a decision the
//!   full score is re-accumulated in declaration order, making the
//!   boundary comparison bit-identical to the string path.
//!
//! # Levenshtein values: two representations, and a bound before the scan
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
//! never — uses it to decide a Levenshtein term *before* its kernel runs.
//! Two lower bounds on the distance `d` cost nothing to read: the length
//! difference, and the *bag distance* of the two histograms (an edit moves
//! at most one occurrence into, out of, or between classes, so `d` edits
//! cannot undo a surplus of more than `d` occurrences). `matches` evaluates
//! the optimistic bound it evaluates after every term — this term and all
//! remaining ones at their best — with the term's similarity taken at the
//! lower bound instead of at `d`, and rejects if that already fails.
//!
//! This rejects only pairs the loop would have rejected at the same term.
//! Let `d₀ ≤ d`. Every step from the distance to the bound's left-hand side
//! is monotone under IEEE rounding: `d₀ as f64 ≤ d as f64` (exact
//! integers), so `1 − d₀/len ≥ 1 − d/len` (division by a positive value and
//! subtraction from a constant, each correctly rounded, preserve order),
//! so `acc + w·sim(d₀) ≥ acc + w·sim(d)` for a weight `w ≥ 0`, so the two
//! sums after adding the same remaining weights in the same order, and
//! their quotients by the same `used_weight`, compare the same way. The
//! value tested at `d₀` is therefore at least the value the loop tests
//! after running the kernel; if it is below `threshold − 1e-9`, so is the
//! loop's, and the loop returns `false` there (its accept test, on a
//! smaller sum still, cannot have fired first). Both tests are one
//! closure, so expression and margin cannot drift apart. A pair the bounds
//! do not reject runs the exact kernel as before.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;

use crate::levenshtein::levenshtein_scratch;
use crate::myers::MyersScratch;
use crate::rule::{truncate, AttributeSim, MatchRule};

/// Decision guard band for early exit: bounds must clear the threshold by
/// this relative margin before a decision is taken early. Worst-case float
/// summation error for a rule of `k` terms is ~`k · 2.2e-16` of the used
/// weight, so `1e-9` is conservatively safe for any rule with fewer than
/// ~10^6 terms while still firing on every non-borderline pair.
const DECISION_MARGIN: f64 = 1e-9;

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

    /// A lower bound on the edit distance to `other` from the two
    /// histograms (their *bag distance*), where both have one. One edit
    /// adds an occurrence to a class, removes one, or moves one between two
    /// classes, so it lowers the surplus of either value over the other —
    /// summed over the classes — by at most one, and both surpluses are
    /// zero between equal values.
    fn bag_distance(&self, other: &Self) -> Option<usize> {
        let (a, b) = (self.hist.as_ref()?, other.hist.as_ref()?);
        // The two surpluses add up to the classes' absolute differences
        // and differ by the length difference; this is the larger one.
        let differences: u32 = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| u32::from(x.abs_diff(y)))
            .sum();
        Some((differences as usize + self.text.len().abs_diff(other.text.len())) / 2)
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

/// Reusable per-task scratch for [`PreparedRule::score`] /
/// [`PreparedRule::matches`]. Create one per reduce task (or worker) and
/// pass it to every pair comparison.
#[derive(Debug, Default)]
pub struct SimScratch {
    pub(crate) kernels: KernelScratch,
    /// Per-term usability of the current pair (both sides present).
    usable: Vec<bool>,
    /// Per-term similarity cache for the early-exit fallback recompute.
    sims: Vec<f64>,
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
    /// Term indices in descending weight order (stable on ties) — the
    /// evaluation order that forces early-exit decisions soonest.
    order: Vec<u32>,
}

impl PreparedRule {
    /// Compile a rule for prepared evaluation.
    pub fn new(rule: MatchRule) -> Self {
        let mut order: Vec<u32> = (0..rule.attrs.len() as u32).collect();
        order.sort_by(|&x, &y| {
            let (wx, wy) = (rule.attrs[x as usize].weight, rule.attrs[y as usize].weight);
            wy.partial_cmp(&wx)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.cmp(&y))
        });
        Self { rule, order }
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
    /// but threshold-aware: terms are evaluated in descending weight order
    /// and evaluation stops as soon as the accept/reject decision is
    /// forced — for a Levenshtein term, already at the distance its
    /// lengths and histograms bound it by from below, before its kernel
    /// runs (see the module docs for the exactness arguments).
    pub fn matches(&self, a: &PreparedEntity, b: &PreparedEntity, s: &mut SimScratch) -> bool {
        let n = self.rule.attrs.len();
        debug_assert_eq!(a.terms.len(), n);
        debug_assert_eq!(b.terms.len(), n);
        let threshold = self.rule.threshold;

        s.usable.clear();
        let mut used_weight = 0.0;
        for i in 0..n {
            let usable = !matches!(a.terms[i], PreparedAttr::Missing)
                && !matches!(b.terms[i], PreparedAttr::Missing);
            s.usable.push(usable);
            if usable {
                used_weight += self.rule.attrs[i].weight;
            }
        }
        if used_weight == 0.0 {
            return 0.0 >= threshold;
        }

        s.sims.clear();
        s.sims.resize(n, 0.0);
        let mut acc = 0.0f64;
        for (pos, &oi) in self.order.iter().enumerate() {
            let i = oi as usize;
            if !s.usable[i] {
                continue;
            }
            let term = &self.rule.attrs[i];
            // Optimistic bound with the terms up to this one accumulated to
            // `acc`: every remaining term scores 1, added in the same order
            // the real accumulation would add them. Failing it forces
            // REJECT.
            let usable = &s.usable;
            let cannot_reach = |acc: f64| {
                let mut optimistic = acc;
                for &oj in &self.order[pos + 1..] {
                    if usable[oj as usize] {
                        optimistic += self.rule.attrs[oj as usize].weight;
                    }
                }
                optimistic / used_weight < threshold - DECISION_MARGIN
            };

            // Decide before scanning: the bound at a distance the term's
            // real distance cannot be below (see the module docs).
            if let (PreparedAttr::Lev(la), PreparedAttr::Lev(lb)) = (&a.terms[i], &b.terms[i]) {
                let max_len = la.text.len().max(lb.text.len());
                let at_best = |d: usize| acc + term.weight * levenshtein_sim(d, max_len);
                let len_diff = la.text.len().abs_diff(lb.text.len());
                if cannot_reach(at_best(len_diff)) {
                    return false;
                }
                if la
                    .bag_distance(lb)
                    .is_some_and(|bag| bag > len_diff && cannot_reach(at_best(bag)))
                {
                    return false;
                }
            }

            let sim = term_score(&term.sim, &a.terms[i], &b.terms[i], &mut s.kernels);
            s.sims[i] = sim;
            acc += term.weight * sim;

            // Pessimistic bound: every remaining term scores 0. Monotone
            // float rounding makes the full accumulation at least `acc`,
            // so clearing the threshold now forces ACCEPT.
            if acc / used_weight >= threshold + DECISION_MARGIN {
                return true;
            }
            if cannot_reach(acc) {
                return false;
            }
        }

        // Neither bound fired: borderline pair. Re-accumulate the cached
        // similarities in declaration order — the string path's exact
        // float sequence — so the final comparison is bit-identical.
        let mut uw = 0.0;
        let mut sc = 0.0;
        for (i, term) in self.rule.attrs.iter().enumerate() {
            if s.usable[i] {
                uw += term.weight;
                sc += term.weight * s.sims[i];
            }
        }
        sc / uw >= threshold
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
    fn order_is_descending_weight_stable() {
        let rule = MatchRule::new(
            vec![
                WeightedAttr::new(0, 0.2, AttributeSim::Exact),
                WeightedAttr::new(1, 0.5, AttributeSim::Exact),
                WeightedAttr::new(2, 0.2, AttributeSim::Exact),
                WeightedAttr::new(3, 0.1, AttributeSim::Exact),
            ],
            0.5,
        );
        let pr = PreparedRule::new(rule);
        assert_eq!(pr.order, vec![1, 0, 2, 3]);
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

    /// What `matches` knows of the distance before any kernel runs.
    fn distance_floor(a: &LevSig, b: &LevSig) -> usize {
        let len_diff = a.text.len().abs_diff(b.text.len());
        a.bag_distance(b).map_or(len_diff, |bag| bag.max(len_diff))
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
                let d = levenshtein(cp, cq);
                prop_assert!(distance_floor(&sp, &sq) <= d, "{cp:?} / {cq:?}");
                prop_assert_eq!(distance_floor(&sp, &sq), distance_floor(&sq, &sp));
                prop_assert_eq!(distance_floor(&sp, &sp), 0);
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
                let floor = distance_floor(&sig, &sq);
                prop_assert!(floor <= levenshtein(kept, cq), "{run} / {cq:?}");
                if sig.hist.is_none() || sq.hist.is_none() {
                    prop_assert_eq!(floor, sig.text.len().abs_diff(sq.text.len()));
                }
            }
        }
    }

    #[test]
    fn bound_rejected_pairs_run_no_scan() {
        let rule = MatchRule::new(
            vec![WeightedAttr::new(
                0,
                1.0,
                AttributeSim::Levenshtein { max_chars: None },
            )],
            0.8,
        );
        let pr = PreparedRule::new(rule.clone());
        let mut scratch = SimScratch::new();
        let mut decide = |a: &str, b: &str| {
            let (va, vb) = (vec![a.to_string()], vec![b.to_string()]);
            let pa = pr.prepare(&va);
            let pb = pr.prepare(&vb);
            let before = scratch.kernels.myers.scans;
            let decision = pr.matches(&pa, &pb, &mut scratch);
            assert_eq!(decision, rule.matches(&va, &vb), "{a:?} / {b:?}");
            (decision, scratch.kernels.myers.scans - before)
        };
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
