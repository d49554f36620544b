//! Zero-allocation prepared similarity signatures and threshold-aware
//! early-exit matching.
//!
//! The string-path [`MatchRule::score`] truncates both values to the
//! term's cap and re-collects them into `Vec<char>` buffers on *every*
//! pair — yet an entity in a block of `n` participates in ~`n` comparisons
//! and recurs across overlapping blocks. This module amortizes all of that
//! per *entity* instead of per *pair*:
//!
//! * [`PreparedEntity`] — one entity's signatures for one rule, in two
//!   buffers: a fixed-size record per rule term (`TermSig`: `Missing`, a
//!   Levenshtein value's place, length and character-class histogram, or an
//!   `Exact` value of up to 23 bytes held inline), and one byte buffer
//!   holding every ASCII Levenshtein value (any `max_chars` cap pre-applied)
//!   and every longer `Exact` value, back to back. A third buffer, of
//!   `char`s, is allocated only when a Levenshtein value is non-ASCII.
//!   [`PreparedRule::prepare`] sizes the buffers before it fills them, so an
//!   all-ASCII entity is two allocations, and comparing two `Exact` values
//!   of at most 23 bytes reads no buffer.
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
//!   both bounds are exact tests of the string path's score. Its first pass
//!   may stop early with a slack of 1e-9, but only on pairs the exact reject
//!   test would turn down anyway.
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
//! produce the same exact integer distance, and both read the value through
//! a `LevText` borrowed from its entity's buffers.
//!
//! Beside the value's place sits a histogram of its characters over 32
//! folded classes (scalar value mod 32), `[u8; 32]`; a value with more than
//! 255 characters of one class has none. [`PreparedRule::matches`] —
//! `score` never — uses it to bound a Levenshtein term *before* its kernel
//! runs. The distance `d` is at least the length difference, and at least
//! the *bag distance* of the two histograms (an edit moves at most one
//! occurrence into, out of, or between classes, so `d` edits cannot undo a
//! surplus of more than `d` occurrences, and it is never below the length
//! difference). That floor, `d₀` — the length difference alone where a
//! value has no histogram — reads the two records only.
//!
//! # The whole rule's bound
//!
//! `matches` gives every term a similarity before any kernel runs: an
//! `Exact` term its exact one (byte equality), a Levenshtein term the upper
//! bound `sim(d₀)`. One pass over both entities' records computes them, and
//! with them `used_weight`, `upper` — `Σ w·bound` over the usable terms —
//! and `lower` — `Σ w·sim` over the terms known exactly. Then:
//!
//! * it **rejects** if `upper / used_weight < threshold`;
//! * it **accepts** if `lower / used_weight ≥ threshold`;
//! * otherwise it runs the kernel of the heaviest Levenshtein term still
//!   bounded (the first in declaration order on a tie), replaces its bound
//!   with its exact similarity, sums both again and tests again. With no
//!   such term left, `lower` is the string path's score and its test is the
//!   string path's.
//!
//! Both tests are exact, with no margin. `used_weight`, `upper` and `lower`
//! are summed in declaration order — the string path's operation sequence —
//! in the first pass as in every later one, and every operand of `upper` is
//! at least, every operand of `lower` at most, the string path's operand in
//! the same place. Each step is monotone under IEEE rounding:
//! `d₀ as f64 ≤ d as f64` (exact integers), so `1 − d₀/len ≥ 1 − d/len`
//! (division by a positive value and subtraction from a constant, each
//! correctly rounded, preserve order), so `w·sim(d₀) ≥ w·sim(d)` for a
//! weight `w ≥ 0`; a term left out of `lower` is an addend of `0 ≤ w·sim`;
//! and a correctly rounded sum or quotient of larger operands is no
//! smaller. So `upper / used_weight` is at least, and `lower / used_weight`
//! at most, the string path's score, and each test that fires gives the
//! string path's answer.
//!
//! ## Stopping the first pass early
//!
//! Most pairs the first pass rejects are out of reach after a term or two:
//! on one `books-ours` dataset, 214 732 of the 253 917 compared pairs after
//! the title or the authors. So after each term the pass also asks whether the
//! terms it has not read could still lift the pair to the threshold. A term
//! adds its weight to `used_weight` and at most its weight to `upper` (every
//! similarity is at most 1), and `upper ≤ used_weight`, so
//! `(upper + P) / (used_weight + P)` grows with the weight `P` of the unread
//! terms that turn out present. With `R` the total weight of the unread
//! terms, `P ≤ R`, and `(upper + R) / (used_weight + R)` bounds every later
//! `upper / used_weight` and the string path's score from above. The pass
//! rejects once that falls short of `θ′ = threshold · (1 − SLACK)`:
//!
//! ```text
//! θ′ · used_weight − upper > R · (1 − θ′)
//! ```
//!
//! [`PreparedRule::new`] keeps the right-hand side per term, so the check
//! is one multiply, one subtract and one compare. A threshold of 0 never
//! stops the pass (`−upper` is never above `R`), nor does a pass that has
//! used no weight yet.
//!
//! **The slack.** The check's sums and the string path's are rounded in
//! different places, so the check tests against `θ′`, a relative
//! [`SLACK`] of 1e-9 below the threshold. With `n` terms and `u = 2⁻⁵³`:
//! `used_weight`, `upper`, `R` and `1 − θ′` are sums and products of
//! non-negative values, each within `(n + 1)·u` of its exact value
//! relatively, so a check that fires (compared after one more rounding,
//! which preserves order against the stored right-hand side) gives
//! `(upper + R) / (used_weight + R) < θ′ · (1 + 2(n + 1)·u)` in exact
//! arithmetic. The string path's score is at most that, and its own sums
//! and division add at most `2(n + 1)·u`; `θ′` itself is two roundings. So
//! the string path's score is below `threshold · (1 − SLACK) · (1 + (4n +
//! 6)·u)`, which is below the threshold for every rule of fewer than
//! [`MAX_TERMS`] (10⁶) terms — [`MatchRule::new`] asserts that bound. The
//! same argument puts the whole pass's bound, `upper / used_weight` summed
//! over every term, below the threshold: a pair the check stops is one the
//! exact reject test would have turned down, so stopping saves reading its
//! remaining records and changes no kernel run. A pair inside the slack
//! reads on and meets the exact tests; the slack decides no pair.
//!
//! # Long values: the band first
//!
//! A term's kernel, where both values are ASCII, the shorter is longer than
//! one 64-character word and the floor `d₀` is at most [`BAND`] (31), first
//! runs the banded scan (`crate::myers`): one word per text column, holding
//! the diagonals `|i − j| ≤ 31`, instead of `⌈len/64⌉`. It can only
//! over-estimate a cell whose optimal path leaves the band, so it is exact
//! for any distance up to 31 and knows when the distance is larger:
//!
//! * `d ≤ 31`: the term is known exactly, at the full scan's similarity;
//! * `d > 31`: in `matches`, the term's bound becomes `sim(32)` — tighter
//!   than `sim(d₀)`, as `d₀ ≤ 31` — and the rule's two tests run again.
//!   That bound is as exact as `sim(d₀)` (`32 ≤ d`, and the same monotone
//!   steps), so a pair it rejects is one the string path rejects. Only a
//!   pair it still leaves open runs the full-width scan for the term.
//!
//! `score` takes the band's distance where it has one and the full scan's
//! otherwise, so every score stays bit-identical. The heaviest open term is
//! still the one settled next. Near-duplicates, what a long value's kernel
//! mostly meets, end inside the band: per execution of the `pubs-ours`
//! benchmark workload, 975 of the 986 kernel runs on abstract-length
//! values (the shorter at least 200 characters).

use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;

use crate::levenshtein::levenshtein_scratch;
use crate::myers::{MyersScratch, BAND, WORD};
use crate::rule::{truncate, AttributeSim, MatchRule, WeightedAttr};

/// Character classes of a [`LevSig`] histogram: a scalar value's low five
/// bits, which folds the two cases of a letter into one class.
const CLASSES: usize = 32;

/// A Levenshtein value as the kernels read it, borrowed from its entity's
/// buffers in one of two representations.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LevText<'a> {
    /// An ASCII value, one byte per character: what the bit-parallel scan
    /// reads, and a `memcpy` of the attribute to prepare.
    Ascii(&'a [u8]),
    /// Any other value as Unicode scalar values, for the two-row DP.
    Wide(&'a [char]),
}

/// One Levenshtein term's record: where its value sits in the entity's
/// buffers, and what bounds its distance to another value from below
/// without reading either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LevSig {
    /// Offset of the value in the entity's `chars` if `wide`, else in its
    /// `bytes`.
    start: u32,
    /// Length in characters.
    len: u32,
    /// The value is non-ASCII and kept as `char`s.
    wide: bool,
    /// Occurrences of each character class in the value; `None` when some
    /// class occurs more often than a `u8` counts, and the value then takes
    /// part in no histogram bound.
    hist: Option<[u8; CLASSES]>,
}

impl LevSig {
    /// Appends `value` to `bytes` if it is ASCII, to `chars` otherwise, and
    /// returns its record.
    fn append(value: &str, bytes: &mut Vec<u8>, chars: &mut Vec<char>) -> Self {
        let mut counts = [0u32; CLASSES];
        let wide = !value.is_ascii();
        let (start, end) = if wide {
            let start = chars.len();
            chars.extend(value.chars());
            for &c in &chars[start..] {
                counts[c as usize % CLASSES] += 1;
            }
            (start, chars.len())
        } else {
            for &b in value.as_bytes() {
                counts[usize::from(b) % CLASSES] += 1;
            }
            let start = bytes.len();
            bytes.extend_from_slice(value.as_bytes());
            (start, bytes.len())
        };
        let hist = counts
            .iter()
            .all(|&n| n <= u32::from(u8::MAX))
            .then(|| counts.map(|n| n as u8));
        // `prepare` bounds both buffers by `u32::MAX`.
        Self {
            start: start as u32,
            len: (end - start) as u32,
            wide,
            hist,
        }
    }

    /// Length in characters.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// A lower bound on the edit distance to `other` that reads neither
    /// value: the *bag distance* of the two histograms where both have one,
    /// the length difference otherwise. One edit adds an occurrence to a
    /// class, removes one, or moves one between two classes, so it lowers
    /// the surplus of either value over the other — summed over the classes
    /// — by at most one, and both surpluses are zero between equal values.
    #[inline]
    fn distance_floor(&self, other: &Self) -> usize {
        let len_diff = self.len().abs_diff(other.len());
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

/// The relative slack of the first pass's early reject, which tests against
/// `threshold · (1 − SLACK)`: room for the rounding of the check's own sums
/// and of the string path's score (see the module docs), so a pair the
/// early reject stops is one the string path rejects. It covers rules of
/// fewer than [`MAX_TERMS`] terms.
const SLACK: f64 = 1e-9;

/// A [`MatchRule`] has fewer terms than this ([`MatchRule::new`] asserts
/// it), so that [`SLACK`] covers the rounding of its sums.
pub(crate) const MAX_TERMS: usize = 1_000_000;

/// Bytes an `Exact` value keeps inside its record ([`ExactText::Inline`]).
const INLINE_EXACT: usize = 23;

/// An `Exact` value, in one of two representations chosen by length alone:
/// a value of at most [`INLINE_EXACT`] bytes is always `Inline`, a longer
/// one always `Spilled`. So values of different representations differ, an
/// inline buffer is zero past its value, and two inline values are equal
/// exactly when their records are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExactText {
    /// The value in the record itself, zero-padded: comparing two reads no
    /// buffer.
    Inline { len: u8, bytes: [u8; INLINE_EXACT] },
    /// A longer value, at `start` in the entity's byte buffer.
    Spilled { start: u32, len: u32 },
}

impl ExactText {
    /// The record of `value`, appending it to `bytes` if it is too long to
    /// sit inline.
    fn append(value: &str, bytes: &mut Vec<u8>) -> Self {
        let value = value.as_bytes();
        if value.len() > INLINE_EXACT {
            let start = bytes.len();
            bytes.extend_from_slice(value);
            // `prepare` bounds the buffer by `u32::MAX`.
            return ExactText::Spilled {
                start: start as u32,
                len: value.len() as u32,
            };
        }
        let mut inline = [0; INLINE_EXACT];
        inline[..value.len()].copy_from_slice(value);
        ExactText::Inline {
            len: value.len() as u8,
            bytes: inline,
        }
    }
}

/// One rule term's record in a [`PreparedEntity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TermSig {
    /// Attribute index out of range or value empty — the term is dropped
    /// for any pair involving this entity (mirroring the string path's
    /// missing-value renormalization).
    Missing,
    /// A Levenshtein value (cap pre-applied).
    Lev(LevSig),
    /// An `Exact` value.
    Exact(ExactText),
}

// A pair's first pass reads two records per term: keep them small.
const _: () = assert!(std::mem::size_of::<TermSig>() <= 44);

/// All of one entity's per-term signatures for one [`PreparedRule`]
/// (`terms[i]` pairs with `rule.attrs[i]`), and the values they point into.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedEntity {
    pub(crate) terms: Box<[TermSig]>,
    /// Every ASCII Levenshtein value and every `Exact` value longer than
    /// [`INLINE_EXACT`] bytes, back to back.
    bytes: Box<[u8]>,
    /// Every non-ASCII Levenshtein value; empty, and unallocated, when
    /// there is none.
    chars: Box<[char]>,
}

impl PreparedEntity {
    /// The value of one of this entity's Levenshtein records.
    #[inline]
    pub(crate) fn lev_text(&self, sig: &LevSig) -> LevText<'_> {
        let range = span(sig.start, sig.len);
        if sig.wide {
            LevText::Wide(&self.chars[range])
        } else {
            LevText::Ascii(&self.bytes[range])
        }
    }

    /// Whether two `Exact` values — `x` of this entity, `y` of `other` —
    /// are byte-equal. Two inline values are equal exactly when their
    /// records are, and an inline value never equals a spilled one.
    #[inline]
    fn exact_eq(&self, x: &ExactText, other: &Self, y: &ExactText) -> bool {
        match (*x, *y) {
            (ExactText::Spilled { start, len }, ExactText::Spilled { start: s, len: l }) => {
                self.bytes[span(start, len)] == other.bytes[span(s, l)]
            }
            _ => x == y,
        }
    }
}

/// The index range of a value `len` long at `start` in an entity's buffer.
#[inline]
fn span(start: u32, len: u32) -> std::ops::Range<usize> {
    start as usize..start as usize + len as usize
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

impl Known {
    /// What costs nothing to know of term `ta`/`tb` of the pair `a`/`b`:
    /// an `Exact` term's similarity, a Levenshtein term's bound.
    #[inline]
    fn before_kernels(a: &PreparedEntity, ta: &TermSig, b: &PreparedEntity, tb: &TermSig) -> Self {
        match (ta, tb) {
            (TermSig::Missing, _) | (_, TermSig::Missing) => Known::Dropped,
            (TermSig::Lev(la), TermSig::Lev(lb)) => Known::AtMost(levenshtein_sim(
                la.distance_floor(lb),
                la.len().max(lb.len()),
            )),
            (TermSig::Exact(x), TermSig::Exact(y)) => Known::Exact(f64::from(a.exact_eq(x, b, y))),
            _ => unreachable!("entity prepared for a different rule"),
        }
    }

    /// Adds the term at weight `w` to `upper` at its bound and, if known
    /// exactly, to `lower`.
    #[inline]
    fn add_to(self, w: f64, upper: &mut f64, lower: &mut f64) {
        match self {
            Known::Dropped => {}
            Known::AtMost(sim) => *upper += w * sim,
            Known::Exact(sim) => {
                *upper += w * sim;
                *lower += w * sim;
            }
        }
    }
}

/// Reusable per-task scratch for [`PreparedRule::score`] /
/// [`PreparedRule::matches`]. Create one per reduce task (or worker) and
/// pass it to every pair comparison.
#[derive(Debug, Default)]
pub struct SimScratch {
    pub(crate) kernels: KernelScratch,
    /// Per term, what `matches` knows of the current pair's similarity
    /// once its first pass leaves the pair open.
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
    /// `threshold · (1 − SLACK)`, the threshold of the first pass's early
    /// reject.
    early_threshold: f64,
    /// Per term, `R · (1 − early_threshold)`, where `R` is the total weight
    /// of the terms declared after it: how far the terms the first pass has
    /// not read yet can lift its sums (see the module docs).
    reach: Box<[f64]>,
}

impl PreparedRule {
    /// Compile a rule for prepared evaluation.
    pub fn new(rule: MatchRule) -> Self {
        let early_threshold = rule.threshold * (1.0 - SLACK);
        let mut reach = vec![0.0; rule.attrs.len()].into_boxed_slice();
        let mut after = 0.0;
        for (reach, term) in reach.iter_mut().zip(&rule.attrs).rev() {
            *reach = after * (1.0 - early_threshold);
            after += term.weight;
        }
        Self {
            rule,
            early_threshold,
            reach,
        }
    }

    /// The underlying rule.
    pub fn rule(&self) -> &MatchRule {
        &self.rule
    }

    /// Build the per-term signatures of one entity from owned or borrowed
    /// attribute values (a row served straight out of an on-disk store
    /// needs no intermediate `Vec<String>`). All allocation of the prepared
    /// path happens here, once per entity per task — never per pair: the
    /// record buffer, the byte buffer if a value goes there, and the `char`
    /// buffer if a Levenshtein value is non-ASCII, each sized before it is
    /// filled.
    ///
    /// # Panics
    /// Panics if the entity's values for the rule total more than
    /// `u32::MAX` bytes or characters.
    pub fn prepare<S: AsRef<str>>(&self, attrs: &[S]) -> PreparedEntity {
        // The value a term keeps, cap applied; `None` if missing.
        let value = |term: &WeightedAttr| {
            let v = attrs.get(term.attr)?.as_ref();
            match term.sim {
                _ if v.is_empty() => None,
                AttributeSim::Levenshtein {
                    max_chars: Some(cap),
                } => Some(truncate(v, cap)),
                _ => Some(v),
            }
        };
        let (mut n_bytes, mut n_chars) = (0, 0);
        for term in &self.rule.attrs {
            match (&term.sim, value(term)) {
                (_, None) => {}
                (AttributeSim::Levenshtein { .. }, Some(v)) if !v.is_ascii() => {
                    n_chars += v.chars().count();
                }
                (AttributeSim::Levenshtein { .. }, Some(v)) => n_bytes += v.len(),
                (AttributeSim::Exact, Some(v)) if v.len() > INLINE_EXACT => n_bytes += v.len(),
                (AttributeSim::Exact, Some(_)) => {}
            }
        }
        let limit = u32::MAX as usize;
        assert!(
            n_bytes <= limit && n_chars <= limit,
            "an entity's prepared values exceed u32 offsets"
        );
        let mut bytes = Vec::with_capacity(n_bytes);
        let mut chars = Vec::with_capacity(n_chars);
        let terms = self
            .rule
            .attrs
            .iter()
            .map(|term| match (&term.sim, value(term)) {
                (_, None) => TermSig::Missing,
                (AttributeSim::Levenshtein { .. }, Some(v)) => {
                    TermSig::Lev(LevSig::append(v, &mut bytes, &mut chars))
                }
                (AttributeSim::Exact, Some(v)) => TermSig::Exact(ExactText::append(v, &mut bytes)),
            })
            .collect();
        debug_assert_eq!((bytes.len(), chars.len()), (n_bytes, n_chars));
        PreparedEntity {
            terms,
            bytes: bytes.into_boxed_slice(),
            chars: chars.into_boxed_slice(),
        }
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
            if matches!(a.terms[i], TermSig::Missing) || matches!(b.terms[i], TermSig::Missing) {
                continue;
            }
            used_weight += term.weight;
            score += term.weight * term_score(a, b, i, &mut s.kernels);
        }
        if used_weight == 0.0 {
            0.0
        } else {
            score / used_weight
        }
    }

    /// The co-reference decision — **identical** to [`MatchRule::matches`]
    /// but threshold-aware: one pass over both entities' records takes
    /// every term at what costs nothing to know (an `Exact` term's
    /// similarity, a Levenshtein term's similarity at the distance its
    /// lengths and histograms bound it by from below), stops as soon as
    /// the terms it has not read cannot lift the pair to the threshold, and
    /// tests the whole rule's bounds; only a pair they leave open runs
    /// Levenshtein kernels, heaviest term first, until they decide it (see
    /// the module docs for why every test is exact).
    pub fn matches(&self, a: &PreparedEntity, b: &PreparedEntity, s: &mut SimScratch) -> bool {
        let FirstPass::Summed {
            used_weight,
            upper,
            lower,
        } = self.first_pass(a, b)
        else {
            return false;
        };
        let threshold = self.rule.threshold;
        if used_weight == 0.0 {
            return 0.0 >= threshold;
        }
        if upper / used_weight < threshold {
            return false;
        }
        if lower / used_weight >= threshold {
            return true;
        }
        self.settle(a, b, used_weight, s)
    }

    /// The first pass of [`matches`](Self::matches): every term at what
    /// costs nothing to know, `used_weight`, `upper` and `lower` summed in
    /// declaration order — the string path's operation sequence: `upper`
    /// adds each term at its bound, `lower` only the terms known exactly.
    /// After each term it rejects the pair if even the terms not read yet,
    /// all present and all at similarity 1, would leave the bound short of
    /// the threshold (see the module docs).
    #[inline]
    fn first_pass(&self, a: &PreparedEntity, b: &PreparedEntity) -> FirstPass {
        let terms = &self.rule.attrs;
        debug_assert_eq!(a.terms.len(), terms.len());
        debug_assert_eq!(b.terms.len(), terms.len());
        let (mut used_weight, mut upper, mut lower) = (0.0f64, 0.0f64, 0.0f64);
        let records = a.terms.iter().zip(b.terms.iter());
        for (k, ((term, &reach), (ta, tb))) in
            terms.iter().zip(&*self.reach).zip(records).enumerate()
        {
            let known = Known::before_kernels(a, ta, b, tb);
            if !matches!(known, Known::Dropped) {
                used_weight += term.weight;
            }
            known.add_to(term.weight, &mut upper, &mut lower);
            if self.early_threshold * used_weight - upper > reach {
                return FirstPass::Rejected(k + 1);
            }
        }
        FirstPass::Summed {
            used_weight,
            upper,
            lower,
        }
    }

    /// The rest of [`matches`](Self::matches) for a pair its first pass left
    /// open: run the kernel of the heaviest term still bounded (the first in
    /// declaration order on a tie), replace its bound with its similarity,
    /// sum again and test again. A long value's kernel is the band first; a
    /// band that finds the distance past [`BAND`] tightens the bound and
    /// tests again before the full-width scan runs (see the module docs).
    fn settle(
        &self,
        a: &PreparedEntity,
        b: &PreparedEntity,
        used_weight: f64,
        s: &mut SimScratch,
    ) -> bool {
        let terms = &self.rule.attrs;
        let threshold = self.rule.threshold;
        s.known.clear();
        s.known.extend(
            a.terms
                .iter()
                .zip(b.terms.iter())
                .map(|(ta, tb)| Known::before_kernels(a, ta, b, tb)),
        );
        loop {
            let mut heaviest_open: Option<usize> = None;
            for (i, (term, known)) in terms.iter().zip(&s.known).enumerate() {
                if matches!(known, Known::AtMost(_))
                    && heaviest_open.is_none_or(|h| term.weight > terms[h].weight)
                {
                    heaviest_open = Some(i);
                }
            }
            // With no term open, `lower` was the string path's score, and
            // it fell short.
            let Some(i) = heaviest_open else {
                return false;
            };
            let (TermSig::Lev(la), TermSig::Lev(lb)) = (&a.terms[i], &b.terms[i]) else {
                unreachable!("only a Levenshtein term is left open");
            };
            let max_len = la.len().max(lb.len());
            let d = match banded(a, la, b, lb, &mut s.kernels.myers) {
                Band::Within(d) => d,
                Band::Beyond => {
                    // The band ran only on a floor of at most `BAND`, so
                    // this bound is the tighter one.
                    s.known[i] = Known::AtMost(levenshtein_sim(BAND + 1, max_len));
                    if let Some(decision) = decide(terms, &s.known, used_weight, threshold) {
                        return decision;
                    }
                    levenshtein_distance(a.lev_text(la), b.lev_text(lb), &mut s.kernels)
                }
                Band::Skipped => {
                    levenshtein_distance(a.lev_text(la), b.lev_text(lb), &mut s.kernels)
                }
            };
            s.known[i] = Known::Exact(levenshtein_sim(d, max_len));
            if let Some(decision) = decide(terms, &s.known, used_weight, threshold) {
                return decision;
            }
        }
    }
}

/// How a pair's first pass ended.
#[derive(Debug)]
enum FirstPass {
    /// Rejected early, after reading this many terms.
    Rejected(
        #[cfg_attr(
            not(test),
            expect(dead_code, reason = "only the unit tests ask where the pass stopped")
        )]
        usize,
    ),
    /// Every term read, and the three sums.
    Summed {
        used_weight: f64,
        upper: f64,
        lower: f64,
    },
}

/// The whole rule's two tests on what is known of each term: `upper` and
/// `lower` summed in declaration order, then the reject test and the accept
/// test. `None` while both leave the pair open.
fn decide(
    terms: &[WeightedAttr],
    known: &[Known],
    used_weight: f64,
    threshold: f64,
) -> Option<bool> {
    let (mut upper, mut lower) = (0.0f64, 0.0f64);
    for (term, known) in terms.iter().zip(known) {
        known.add_to(term.weight, &mut upper, &mut lower);
    }
    if upper / used_weight < threshold {
        return Some(false);
    }
    (lower / used_weight >= threshold).then_some(true)
}

/// What the banded scan tells of a Levenshtein term.
enum Band {
    /// It does not apply: a value is non-ASCII, the shorter value fits one
    /// word (whose full scan is one word per column already), or the floor
    /// already puts the distance past [`BAND`].
    Skipped,
    /// The distance, at most [`BAND`].
    Within(usize),
    /// The distance is more than [`BAND`].
    Beyond,
}

/// The banded scan of the Levenshtein values `la` of `a` and `lb` of `b`,
/// where it applies (see the module docs).
fn banded(
    a: &PreparedEntity,
    la: &LevSig,
    b: &PreparedEntity,
    lb: &LevSig,
    myers: &mut MyersScratch,
) -> Band {
    let (LevText::Ascii(x), LevText::Ascii(y)) = (a.lev_text(la), b.lev_text(lb)) else {
        return Band::Skipped;
    };
    let (short, long) = if x.len() <= y.len() { (x, y) } else { (y, x) };
    if short.len() <= WORD || la.distance_floor(lb) > BAND {
        return Band::Skipped;
    }
    match myers.distance_within(short, long, BAND) {
        Some(d) => Band::Within(d),
        None => Band::Beyond,
    }
}

/// Exact edit distance of two prepared values: the full-width blocked Myers
/// scan when both are ASCII (the shorter as the pattern), the two-row DP
/// otherwise.
fn levenshtein_distance(a: LevText<'_>, b: LevText<'_>, s: &mut KernelScratch) -> usize {
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

/// Term `i`'s kernel on the pair `a`/`b`, neither side `Missing` — each arm
/// reproduces the corresponding string kernel's exact arithmetic. A
/// Levenshtein term takes the band's distance where the band applies and
/// finds one, the full-width scan's otherwise.
pub(crate) fn term_score(
    a: &PreparedEntity,
    b: &PreparedEntity,
    i: usize,
    s: &mut KernelScratch,
) -> f64 {
    match (&a.terms[i], &b.terms[i]) {
        (TermSig::Lev(la), TermSig::Lev(lb)) => {
            let d = match banded(a, la, b, lb, &mut s.myers) {
                Band::Within(d) => d,
                Band::Skipped | Band::Beyond => {
                    levenshtein_distance(a.lev_text(la), b.lev_text(lb), s)
                }
            };
            levenshtein_sim(d, la.len().max(lb.len()))
        }
        (TermSig::Exact(x), TermSig::Exact(y)) => f64::from(a.exact_eq(x, b, y)),
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

    /// Record and capped value, as `prepare` derives them.
    fn capped_sig(value: &str, cap: Option<usize>) -> (LevSig, &str) {
        let capped = cap.map_or(value, |cap| truncate(value, cap));
        (
            LevSig::append(capped, &mut Vec::new(), &mut Vec::new()),
            capped,
        )
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
                prop_assert!(floor >= sp.len().abs_diff(sq.len()));
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
                    prop_assert_eq!(floor, sig.len().abs_diff(sq.len()));
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

    /// A 400-character abstract, which the rule cuts to 350.
    fn abstract_bytes() -> Vec<u8> {
        "we resolve entities progressively on mapreduce, block by block; "
            .bytes()
            .cycle()
            .take(400)
            .collect()
    }

    /// The abstract with the characters at `at` and `at + 1` swapped, for
    /// each `at`: a histogram bound of 0, a distance of up to two per swap.
    fn swapped(at: impl IntoIterator<Item = usize>) -> String {
        let mut value = abstract_bytes();
        for i in at {
            value.swap(i, i + 1);
        }
        String::from_utf8(value).unwrap()
    }

    /// The paper's abstract term alone: a Levenshtein term cut at 350
    /// characters.
    fn abstract_rule(threshold: f64) -> MatchRule {
        MatchRule::new(
            vec![WeightedAttr::new(
                0,
                1.0,
                AttributeSim::Levenshtein {
                    max_chars: Some(350),
                },
            )],
            threshold,
        )
    }

    /// `matches` on one single-term pair, checked against the string path
    /// (and `score` too): the decision, the full-width scans and the banded
    /// scans it ran.
    fn decide_banding(rule: &MatchRule, a: &str, b: &str) -> (bool, usize, usize) {
        let (va, vb) = (vec![a.to_string()], vec![b.to_string()]);
        let pr = PreparedRule::new(rule.clone());
        let (pa, pb) = (pr.prepare(&va), pr.prepare(&vb));
        let mut scratch = SimScratch::new();
        assert_eq!(
            pr.score(&pa, &pb, &mut scratch).to_bits(),
            rule.score(&va, &vb).to_bits()
        );
        let mut scratch = SimScratch::new();
        let decision = pr.matches(&pa, &pb, &mut scratch);
        assert_eq!(decision, rule.matches(&va, &vb), "{a:?} / {b:?}");
        let myers = &scratch.kernels.myers;
        (decision, myers.scans, myers.band_scans)
    }

    #[test]
    fn abstract_near_duplicates_are_decided_in_the_band() {
        let base = swapped([]);
        let rule = abstract_rule(0.95);
        // A few swaps: accepted on the band's exact distance.
        let near = swapped([3, 90, 170, 260, 340]);
        assert!(levenshtein(&base[..350], &near[..350]) <= 10);
        assert_eq!(decide_banding(&rule, &base, &near), (true, 0, 1));
        // Fifteen swaps, still inside the band: rejected on it, though the
        // histograms say nothing.
        let far = swapped((0..15).map(|e| 2 + e * 23));
        let d = levenshtein(&base[..350], &far[..350]);
        assert!((18..=BAND).contains(&d), "{d}");
        assert_eq!(decide_banding(&rule, &base, &far), (false, 0, 1));
        // Swaps past the cap are cut off with it.
        assert_eq!(
            decide_banding(&rule, &base, &swapped([360, 390])),
            (true, 0, 1)
        );
    }

    #[test]
    fn pairs_the_band_bounds_out_run_no_full_scan() {
        // The abstract with its first 60 characters moved to its end: the
        // same characters (a floor of 0) at a distance far past the band.
        let base = swapped([]);
        let rotated = format!("{}{}", &base[60..350], &base[..60]);
        let d = levenshtein(&base[..350], &rotated);
        assert!(d > BAND, "{d}");
        // At most 1 − 32/350 ≈ 0.909 once the band says d > 31: rejected
        // under 0.95 without the full-width scan ...
        assert_eq!(
            decide_banding(&abstract_rule(0.95), &base, &rotated),
            (false, 0, 1)
        );
        // ... and decided by it where that bound leaves the pair open.
        let open = abstract_rule(1.0 - (d + 1) as f64 / 350.0);
        assert_eq!(decide_banding(&open, &base, &rotated), (true, 1, 1));
        // A floor past the radius skips the band: the full scan decides.
        let mut marked = abstract_bytes();
        marked[..40].fill(b'#');
        let marked = String::from_utf8(marked).unwrap();
        assert_eq!(
            decide_banding(&abstract_rule(0.5), &base, &marked),
            (true, 1, 0)
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

    /// How many terms the first pass of `rule` reads on one pair, after
    /// checking `matches` against the string path.
    fn terms_read(rule: &MatchRule, a: &[&str], b: &[&str]) -> usize {
        decide_counting(rule, a, b);
        let pr = PreparedRule::new(rule.clone());
        match pr.first_pass(&pr.prepare(a), &pr.prepare(b)) {
            FirstPass::Rejected(read) => read,
            FirstPass::Summed { .. } => rule.attrs.len(),
        }
    }

    #[test]
    fn first_pass_stops_once_the_unread_terms_cannot_reach_the_threshold() {
        let rule = books_rule();
        // A title 28 characters shorter: at most 0.35·3/31 + 0.65 < 0.8,
        // whatever the other seven terms hold.
        let mut far_title = BOOK;
        far_title[0] = "the";
        assert_eq!(terms_read(&rule, &BOOK, &far_title), 1);
        // The title one edit away leaves 0.99 in reach; authors with no
        // character class in common take it to 0.79.
        let mut far_authors = BOOK;
        far_authors[0] = "the art of computer programing";
        far_authors[1] = "sievers";
        assert_eq!(terms_read(&rule, &BOOK, &far_authors), 2);
        // A near-duplicate and an equal pair read every term.
        let mut typo = BOOK;
        typo[0] = "the art of computer programing";
        assert_eq!(terms_read(&rule, &BOOK, &typo), 8);
        assert_eq!(terms_read(&rule, &BOOK, &BOOK), 8);
    }

    #[test]
    fn first_pass_with_missing_values_agrees_with_the_string_path() {
        let rule = books_rule();
        let mut far_authors = BOOK;
        far_authors[0] = "the art of computer programing";
        far_authors[1] = "sievers";
        // A value missing past the stop: the unread weight still counts
        // it, so the pass stops where it did, and rejects as the string
        // path does.
        for later in 2..8 {
            let mut other = far_authors;
            other[later] = "";
            assert_eq!(terms_read(&rule, &BOOK, &other), 2, "{later}");
            assert_eq!(terms_read(&rule, &other, &BOOK), 2, "{later}");
        }
        // The authors missing instead: the title alone leaves the pair
        // open, and the rest decide it.
        let mut no_authors = far_authors;
        no_authors[1] = "";
        assert_eq!(terms_read(&rule, &BOOK, &no_authors), 8);
        assert!(decide_counting(&rule, &BOOK, &no_authors).0);
        // Only the title present, and far: rejected after it.
        let mut only_title = ["the"; 8];
        only_title[1..].fill("");
        assert_eq!(terms_read(&rule, &BOOK, &only_title), 1);
    }

    #[test]
    fn a_zero_threshold_never_rejects_early() {
        let rule = MatchRule::new(books_rule().attrs, 0.0);
        let nothing_alike = ["x", "y", "z", "1", "2", "3", "4", "5"];
        assert_eq!(terms_read(&rule, &BOOK, &nothing_alike), 8);
        assert!(decide_counting(&rule, &BOOK, &nothing_alike).0);
    }

    #[test]
    fn a_bound_on_the_threshold_is_not_rejected_early() {
        // The title with `k` characters appended (a distance of `k`, and a
        // floor of `k`), every other term equal: the bound after the title
        // is the pair's score, and so is the threshold. The early reject
        // tests below it, and the exact test accepts the pair.
        let title = BOOK[0];
        for k in 0..=2 * title.len() {
            let longer = format!("{title}{}", "~".repeat(k));
            let mut other = BOOK;
            other[0] = &longer;
            let owned = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
            let score = books_rule().score(&owned(&BOOK), &owned(&other));
            let rule = MatchRule::new(books_rule().attrs, score);
            assert_eq!(terms_read(&rule, &BOOK, &other), 8, "{k}");
            assert!(decide_counting(&rule, &BOOK, &other).0, "{k}");
            // One ulp above it, the string path rejects — early or not.
            let above = f64::from_bits(score.to_bits() + 1);
            if above <= 1.0 {
                assert!(
                    !decide_counting(&MatchRule::new(books_rule().attrs, above), &BOOK, &other).0
                );
            }
        }
    }

    #[test]
    fn slack_covers_the_rounding_of_the_largest_rule() {
        // The early reject's sums and the string path's score round at most
        // about (4n + 6) times, each by 2⁻⁵³ relative (see the module docs).
        let unit = f64::EPSILON / 2.0;
        assert!((4 * MAX_TERMS + 6) as f64 * unit < SLACK);
    }

    #[test]
    fn exact_values_sit_inline_up_to_the_capacity_and_decide_as_strings() {
        let rule = MatchRule::new(vec![WeightedAttr::new(0, 1.0, AttributeSim::Exact)], 1.0);
        let pr = PreparedRule::new(rule.clone());
        let a = |n: usize| "a".repeat(n);
        let cap = INLINE_EXACT;
        // `é` is two bytes: after `cap - 1` others it straddles the boundary.
        let straddling = format!("{}é", a(cap - 1));
        for (value, inline) in [
            (a(1), true),
            (a(cap - 1), true),
            (a(cap), true),
            (a(cap + 1), false),
            (straddling.clone(), false),
        ] {
            let entity = pr.prepare(&[&value]);
            let kept = match entity.terms[0] {
                TermSig::Exact(ExactText::Inline { len, bytes }) => {
                    assert!(inline, "{value:?} inline");
                    bytes[..usize::from(len)].to_vec()
                }
                TermSig::Exact(ExactText::Spilled { start, len }) => {
                    assert!(!inline, "{value:?} in the byte buffer");
                    entity.bytes[span(start, len)].to_vec()
                }
                other => panic!("{value:?}: {other:?}"),
            };
            assert_eq!(kept, value.as_bytes());
            // An inline value leaves the byte buffer empty.
            assert_eq!(entity.bytes.len(), if inline { 0 } else { value.len() });
        }
        assert_eq!(pr.prepare(&[""]).terms[0], TermSig::Missing);

        let mut scratch = SimScratch::new();
        let pairs = [
            (a(cap), a(cap)),
            (a(cap), a(cap - 1)),
            (a(cap), a(cap + 1)),
            (a(cap + 1), a(cap + 1)),
            (a(cap - 1), a(cap - 1)),
            // Equal up to the capacity, different past it.
            (format!("{}b", a(cap)), format!("{}c", a(cap))),
            (format!("{}bb", a(cap)), format!("{}b", a(cap))),
            (straddling.clone(), straddling.clone()),
            (straddling.clone(), format!("{}è", a(cap - 1))),
            (straddling.clone(), format!("{}e", a(cap - 1))),
            (a(cap), String::new()),
            (String::new(), String::new()),
        ];
        for (x, y) in pairs {
            let (x, y) = (vec![x], vec![y]);
            let (px, py) = (pr.prepare(&x), pr.prepare(&y));
            assert_eq!(
                pr.score(&px, &py, &mut scratch).to_bits(),
                rule.score(&x, &y).to_bits(),
                "{x:?} / {y:?}"
            );
            assert_eq!(pr.matches(&px, &py, &mut scratch), rule.matches(&x, &y));
            assert_eq!(pr.matches(&py, &px, &mut scratch), rule.matches(&y, &x));
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
