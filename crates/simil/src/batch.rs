//! Block-batched scoring: one probe entity against a block of candidates.
//!
//! Blocking hands the resolver a *block* of entities; PSNM-style windows
//! then compare one probe against the `w` entities before it. The scalar
//! prepared path ([`PreparedRule::score`]) is already allocation-free, but
//! it still redoes per-probe work for every candidate: a Levenshtein term
//! rebuilds the pattern's Myers character-class table for each pair.
//! [`BlockScorer`] fills the probe's table once per block and runs only the
//! bit-parallel scan per pair (`crate::myers`'s fill/scan/clear split), for
//! an ASCII probe of any length against ASCII candidates of any length.
//!
//! # Parity contract
//!
//! [`BlockScorer::score_block`] is **bit-identical** to calling
//! [`PreparedRule::score`] on each `(probe, candidate)` pair — and hence to
//! the string path [`MatchRule::score`](crate::MatchRule::score):
//!
//! * Per candidate, terms accumulate in declaration order with the exact
//!   scalar operation sequence (`used_weight += w; score += w * sim`,
//!   final `score / used_weight`). The loops here are term-major for
//!   cache-friendliness, but each candidate's accumulator sees the same
//!   additions in the same order as the scalar pair loop.
//! * Batched Myers produces the same integer distance as the scalar path.
//!   The probe is always the pattern, whichever side is shorter: the
//!   distance is symmetric and exact, and the normaliser is `max(len)`
//!   either way — one function, `prepared::levenshtein_sim`, on both
//!   paths. A non-ASCII candidate takes the two-row DP, as it does on the
//!   scalar path.
//!
//! [`BlockScorer::matches_block`] compares the (bit-identical) scores
//! against the rule threshold, which is the decision
//! [`MatchRule::matches`](crate::MatchRule::matches) and
//! [`PreparedRule::matches`] return.

use crate::levenshtein::levenshtein_scratch;
use crate::prepared::{
    levenshtein_sim, term_score, LevSig, LevText, PreparedAttr, PreparedEntity, PreparedRule,
    SimScratch,
};
use crate::rule::AttributeSim;

/// Reusable state for probe-vs-block scoring. Create one per task/worker;
/// buffers grow to a high-water mark and are reused, so a warm scorer
/// allocates nothing per block.
#[derive(Debug, Default)]
pub struct BlockScorer {
    /// Scalar-kernel scratch: fallback terms (`Exact`, a non-ASCII probe)
    /// and the Myers table a batched Levenshtein term fills with its probe.
    scratch: SimScratch,
    /// Per-candidate `used_weight` accumulators.
    acc_w: Vec<f64>,
    /// Per-candidate weighted-score accumulators.
    acc_s: Vec<f64>,
    /// Score buffer backing `matches_block`.
    scores: Vec<f64>,
}

impl BlockScorer {
    /// Fresh scorer (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Score `probe` against every candidate, writing one score per
    /// candidate into `out` (cleared first). `out[j]` is bit-identical to
    /// `rule.score(probe, &cands[j], scratch)`.
    pub fn score_block(
        &mut self,
        rule: &PreparedRule,
        probe: &PreparedEntity,
        cands: &[PreparedEntity],
        out: &mut Vec<f64>,
    ) {
        let n = cands.len();
        self.acc_w.clear();
        self.acc_w.resize(n, 0.0);
        self.acc_s.clear();
        self.acc_s.resize(n, 0.0);
        let terms = &rule.rule().attrs;
        debug_assert_eq!(probe.terms.len(), terms.len());

        for (i, term) in terms.iter().enumerate() {
            let pt = &probe.terms[i];
            if matches!(pt, PreparedAttr::Missing) {
                // The scalar path drops the term for every pair involving
                // this probe; no accumulator moves.
                continue;
            }
            match (&term.sim, pt) {
                (
                    AttributeSim::Levenshtein { .. },
                    PreparedAttr::Lev(LevSig {
                        text: LevText::Ascii(pc),
                        ..
                    }),
                ) if !pc.is_empty() => {
                    self.batched_levenshtein(term.weight, pc, cands, i);
                }
                _ => {
                    for (j, cand) in cands.iter().enumerate() {
                        let ct = &cand.terms[i];
                        if matches!(ct, PreparedAttr::Missing) {
                            continue;
                        }
                        let sim = term_score(&term.sim, pt, ct, &mut self.scratch.kernels);
                        self.acc_w[j] += term.weight;
                        self.acc_s[j] += term.weight * sim;
                    }
                }
            }
        }

        out.clear();
        out.extend(self.acc_w.iter().zip(&self.acc_s).map(
            |(&w, &s)| {
                if w == 0.0 {
                    0.0
                } else {
                    s / w
                }
            },
        ));
    }

    /// Match decisions for `probe` against every candidate: identical to
    /// `rule.matches(probe, &cands[j], scratch)` (and to the string path),
    /// via the bit-identical block scores compared to the threshold.
    pub fn matches_block(
        &mut self,
        rule: &PreparedRule,
        probe: &PreparedEntity,
        cands: &[PreparedEntity],
        out: &mut Vec<bool>,
    ) {
        let mut scores = std::mem::take(&mut self.scores);
        self.score_block(rule, probe, cands, &mut scores);
        out.clear();
        out.extend(scores.iter().map(|&s| s >= rule.rule().threshold));
        self.scores = scores;
    }

    /// One Levenshtein term with a non-empty ASCII probe: the probe's Myers
    /// table is built once and every ASCII candidate, longer or shorter,
    /// costs one scan against it. Nothing else touches the table while it
    /// is filled: a non-ASCII candidate goes to the two-row DP.
    fn batched_levenshtein(&mut self, weight: f64, pc: &[u8], cands: &[PreparedEntity], i: usize) {
        let kernels = &mut self.scratch.kernels;
        kernels.myers.fill(pc);
        for (j, cand) in cands.iter().enumerate() {
            let ct = &cand.terms[i];
            let PreparedAttr::Lev(cand) = ct else {
                debug_assert!(
                    matches!(ct, PreparedAttr::Missing),
                    "entity prepared for a different rule"
                );
                continue;
            };
            let d = match &cand.text {
                LevText::Ascii(cc) => kernels.myers.scan(pc.len(), cc),
                LevText::Wide(cc) => levenshtein_scratch(pc, cc, &mut kernels.row),
            };
            let sim = levenshtein_sim(d, pc.len().max(cand.text.len()));
            self.acc_w[j] += weight;
            self.acc_s[j] += weight * sim;
        }
        kernels.myers.clear(pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{MatchRule, WeightedAttr};
    use proptest::prelude::*;

    /// Every kernel shape in one rule: an uncapped and a capped Levenshtein
    /// term (batched) around an `Exact` one (scalar fallback).
    fn mixed_rule() -> MatchRule {
        MatchRule::new(
            vec![
                WeightedAttr::new(0, 0.60, AttributeSim::Levenshtein { max_chars: None }),
                WeightedAttr::new(1, 0.15, AttributeSim::Exact),
                WeightedAttr::new(
                    2,
                    0.25,
                    AttributeSim::Levenshtein {
                        max_chars: Some(16),
                    },
                ),
            ],
            0.75,
        )
    }

    fn prepare_all(pr: &PreparedRule, rows: &[Vec<String>]) -> Vec<PreparedEntity> {
        rows.iter().map(|r| pr.prepare(r)).collect()
    }

    fn assert_block_parity(rule: &MatchRule, rows: &[Vec<String>], probe_idx: usize) {
        let pr = PreparedRule::new(rule.clone());
        let prepared = prepare_all(&pr, rows);
        let mut scorer = BlockScorer::new();
        let mut scratch = SimScratch::new();
        let probe = &prepared[probe_idx];

        let mut scores = Vec::new();
        let mut decisions = Vec::new();
        scorer.score_block(&pr, probe, &prepared, &mut scores);
        scorer.matches_block(&pr, probe, &prepared, &mut decisions);
        assert_eq!(scores.len(), rows.len());

        for (j, cand) in prepared.iter().enumerate() {
            let scalar = pr.score(probe, cand, &mut scratch);
            assert_eq!(
                scores[j].to_bits(),
                scalar.to_bits(),
                "score parity vs prepared scalar: probe {probe_idx} cand {j}"
            );
            let string_path = rule.score(&rows[probe_idx], &rows[j]);
            assert_eq!(
                scores[j].to_bits(),
                string_path.to_bits(),
                "score parity vs string path: probe {probe_idx} cand {j}"
            );
            assert_eq!(
                decisions[j],
                pr.matches(probe, cand, &mut scratch),
                "decision parity vs prepared scalar: probe {probe_idx} cand {j}"
            );
            assert_eq!(
                decisions[j],
                rule.matches(&rows[probe_idx], &rows[j]),
                "decision parity vs string path: probe {probe_idx} cand {j}"
            );
        }
    }

    #[test]
    fn handcrafted_edge_cases() {
        let rows: Vec<Vec<String>> = [
            // Near-duplicate of the probe.
            ["progressive entity resolution", "EN", "hardcover"],
            // Probe row.
            ["progresive entity resolution", "EN", "hardcover"],
            // Candidate shorter than the probe (the probe stays the Myers
            // pattern).
            ["pro", "EN", "x"],
            // Empty attributes (Missing on the candidate side).
            ["", "", ""],
            // Non-ASCII: the DP, as a candidate inside a batched term and
            // as a probe through the scalar kernel.
            ["progrèssive entity resolution", "EN", "softcovér"],
            // Longer-than-64-chars title: a two-word probe table, and a
            // candidate longer than every other probe; a format the cap
            // cuts.
            [
                "a very long title that keeps going and going and going and going and going",
                "DE",
                "paperback, second printing",
            ],
        ]
        .iter()
        .map(|r| r.iter().map(|s| s.to_string()).collect())
        .collect();

        let rule = mixed_rule();
        for probe_idx in 0..rows.len() {
            assert_block_parity(&rule, &rows, probe_idx);
        }
    }

    #[test]
    fn missing_probe_attr_skips_term_for_all_candidates() {
        // Probe with every attr empty: all terms Missing → score 0.0.
        let rows: Vec<Vec<String>> = vec![
            vec![String::new(); 3],
            ["t", "E", "f"].iter().map(|s| s.to_string()).collect(),
        ];
        assert_block_parity(&mixed_rule(), &rows, 0);
    }

    #[test]
    fn prepare_is_the_same_over_owned_and_borrowed_values() {
        let pr = PreparedRule::new(mixed_rule());
        let refs = ["progrèssive entity resolution", "EN", ""];
        let owned: Vec<String> = refs.iter().map(|s| s.to_string()).collect();
        assert_eq!(pr.prepare(&owned), pr.prepare(&refs));
        // A row shorter than the rule is Missing terms either way.
        assert_eq!(pr.prepare(&owned[..1]), pr.prepare(&refs[..1]));
    }

    #[test]
    fn reusable_scorer_leaves_no_state_behind() {
        // Score two different blocks through one scorer; results must match
        // a fresh scorer's (catches peq leakage between calls).
        let rule = mixed_rule();
        let pr = PreparedRule::new(rule.clone());
        let block_a: Vec<Vec<String>> = (0..5)
            .map(|k| (0..3).map(|a| format!("value {k} attr {a} xyz")).collect())
            .collect();
        let block_b: Vec<Vec<String>> = (0..5)
            .map(|k| (0..3).map(|a| format!("other {a} {k}")).collect())
            .collect();
        let pa = prepare_all(&pr, &block_a);
        let pb = prepare_all(&pr, &block_b);

        let mut warm = BlockScorer::new();
        let mut tmp = Vec::new();
        warm.score_block(&pr, &pa[0], &pa, &mut tmp);
        let mut warm_scores = Vec::new();
        warm.score_block(&pr, &pb[0], &pb, &mut warm_scores);

        let mut fresh = BlockScorer::new();
        let mut fresh_scores = Vec::new();
        fresh.score_block(&pr, &pb[0], &pb, &mut fresh_scores);
        let bits = |v: &Vec<f64>| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&warm_scores), bits(&fresh_scores));
    }

    #[test]
    fn ascii_block_never_reaches_the_dp() {
        // Probes and candidates of one to six words, in both length orders:
        // the DP row buffer (only the DP touches it) must never grow.
        let rule = mixed_rule();
        let pr = PreparedRule::new(rule.clone());
        let rows: Vec<Vec<String>> = [3usize, 64, 65, 200, 350, 40]
            .iter()
            .map(|&n| {
                let long: String = "progressive entity resolution, "
                    .chars()
                    .cycle()
                    .take(n)
                    .collect();
                vec![long; 3]
            })
            .collect();
        let prepared = prepare_all(&pr, &rows);
        let mut scorer = BlockScorer::new();
        let mut scores = Vec::new();
        for probe in &prepared {
            scorer.score_block(&pr, probe, &prepared, &mut scores);
        }
        assert_eq!(
            scorer.scratch.kernels.row.capacity(),
            0,
            "DP ran on ASCII input"
        );
        for probe_idx in 0..rows.len() {
            assert_block_parity(&rule, &rows, probe_idx);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        // Abstract-sized probes against candidates on both sides of the
        // probe's length, down to empty and up to seven words.
        #[test]
        fn prop_block_parity_long_probes(
            probe in proptest::collection::vec("[a-e ]{65,400}", 3..4),
            rows in proptest::collection::vec(
                proptest::collection::vec("[a-e ]{0,420}", 3..4), 1..6),
            short_rows in proptest::collection::vec(
                proptest::collection::vec("[a-e ]{0,64}", 3..4), 1..4),
        ) {
            let mut all: Vec<Vec<String>> = vec![probe];
            all.extend(rows);
            all.extend(short_rows);
            assert_block_parity(&mixed_rule(), &all, 0);
        }

        #[test]
        fn prop_block_parity_random_rows(
            rows in proptest::collection::vec(
                proptest::collection::vec(".{0,70}", 3..4), 1..9),
            probe_sel in 0usize..64,
        ) {
            let rows: Vec<Vec<String>> = rows;
            let probe_idx = probe_sel % rows.len();
            assert_block_parity(&mixed_rule(), &rows, probe_idx);
        }

        #[test]
        fn prop_block_parity_ascii_titles(
            rows in proptest::collection::vec(
                proptest::collection::vec("[a-e ]{0,80}", 3..4), 2..12),
            probe_sel in 0usize..64,
        ) {
            let rows: Vec<Vec<String>> = rows;
            let probe_idx = probe_sel % rows.len();
            assert_block_parity(&mixed_rule(), &rows, probe_idx);
        }
    }
}
