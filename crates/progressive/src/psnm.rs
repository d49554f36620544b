//! The Progressive Sorted Neighborhood Method (the paper's ref. \[6\],
//! Papenbrock, Heise & Naumann, TKDE 2015).
//!
//! Like the SN hint, PSNM sorts the block and walks pairs in increasing rank
//! distance — but it is *adaptive*: when a pair is confirmed a duplicate,
//! the neighborhoods of both entities are promoted and explored immediately
//! (duplicates cluster in the sort order, so a hit at `(i, i+d)` makes
//! `(i, i+d+1)` and `(i−1, i+d)` unusually promising). This is the
//! "progressiveness" that lets PSNM front-load recall relative to a static
//! window sweep.

use std::collections::VecDeque;

use pper_datagen::EntityId;

use crate::mechanism::{Mechanism, PairSource};

/// The PSNM mechanism. `lookahead` bounds how many promoted pairs a single
/// duplicate can enqueue (the classic formulation grows the local window by
/// one in each direction, i.e. 2).
#[derive(Debug, Clone, Copy)]
pub struct Psnm {
    /// Maximum promoted pairs per confirmed duplicate.
    pub lookahead: usize,
}

impl Default for Psnm {
    fn default() -> Self {
        Self { lookahead: 2 }
    }
}

/// Pair stream for one block under [`Psnm`].
#[derive(Debug)]
pub struct PsnmRun {
    order: Vec<EntityId>,
    window: usize,
    lookahead: usize,
    /// Base sweep state: current distance and left index.
    d: usize,
    i: usize,
    /// Promoted (index, index) pairs awaiting emission, highest priority first.
    boost: VecDeque<(usize, usize)>,
    /// Index pairs already emitted, to deduplicate the base sweep against
    /// promotions: an `n × window` bitset, pair `(i, j)` at bit
    /// `i·window + (j − i − 1)`. Every emitted pair has `1 ≤ j − i ≤ window`.
    emitted: Vec<u64>,
    /// Number of bits set in `emitted`.
    emitted_count: u64,
    /// The last emitted index pair, for feedback.
    last: Option<(usize, usize)>,
}

impl Mechanism for Psnm {
    type Run = PsnmRun;

    fn start(&self, sorted: Vec<EntityId>, window: usize) -> PsnmRun {
        let window = window.min(sorted.len().saturating_sub(1));
        PsnmRun {
            emitted: vec![0; (sorted.len() * window).div_ceil(64)],
            emitted_count: 0,
            window,
            order: sorted,
            lookahead: self.lookahead,
            d: 1,
            i: 0,
            boost: VecDeque::new(),
            last: None,
        }
    }

    fn name(&self) -> &'static str {
        "psnm"
    }
}

impl PsnmRun {
    /// Word index and mask of pair `(i, j)` in `emitted`.
    #[inline]
    fn bit(&self, i: usize, j: usize) -> (usize, u64) {
        debug_assert!(i < j && j - i <= self.window && j < self.order.len());
        let bit = i * self.window + (j - i - 1);
        (bit / 64, 1 << (bit % 64))
    }

    fn emit(&mut self, i: usize, j: usize) -> Option<(EntityId, EntityId)> {
        let (word, mask) = self.bit(i, j);
        if self.emitted[word] & mask != 0 {
            return None;
        }
        self.emitted[word] |= mask;
        self.emitted_count += 1;
        self.last = Some((i, j));
        Some((self.order[i], self.order[j]))
    }
}

impl PairSource for PsnmRun {
    fn next_pair(&mut self) -> Option<(EntityId, EntityId)> {
        // Promoted pairs take priority over the base sweep.
        while let Some((i, j)) = self.boost.pop_front() {
            if let Some(pair) = self.emit(i, j) {
                return Some(pair);
            }
        }
        loop {
            if self.d > self.window || self.order.len() < 2 {
                return None;
            }
            if self.i + self.d < self.order.len() {
                let (i, j) = (self.i, self.i + self.d);
                self.i += 1;
                if let Some(pair) = self.emit(i, j) {
                    return Some(pair);
                }
                continue;
            }
            self.d += 1;
            self.i = 0;
        }
    }

    fn feedback(&mut self, is_duplicate: bool) {
        let Some((i, j)) = self.last.take() else {
            return;
        };
        if !is_duplicate {
            return;
        }
        // Promote the immediate extensions of a confirmed duplicate, staying
        // within the window.
        let mut promoted = 0;
        let candidates = [
            (i, j + 1),
            (i.wrapping_sub(1), j),
            (i, j + 2),
            (i.wrapping_sub(1), j.wrapping_sub(1)),
        ];
        for (a, b) in candidates {
            if promoted >= self.lookahead {
                break;
            }
            if a >= self.order.len() || b >= self.order.len() || a >= b {
                continue;
            }
            if b - a > self.window {
                continue;
            }
            let (word, mask) = self.bit(a, b);
            if self.emitted[word] & mask != 0 {
                continue;
            }
            self.boost.push_back((a, b));
            promoted += 1;
        }
    }

    fn remaining_hint(&self) -> u64 {
        if self.order.len() < 2 {
            return 0;
        }
        let n = self.order.len();
        let total = Psnm::default().full_pairs(n, self.window);
        total.saturating_sub(self.emitted_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_with_truth(
        run: &mut PsnmRun,
        is_dup: impl Fn(EntityId, EntityId) -> bool,
    ) -> Vec<(EntityId, EntityId)> {
        let mut out = Vec::new();
        while let Some((a, b)) = run.next_pair() {
            run.feedback(is_dup(a, b));
            out.push((a, b));
        }
        out
    }

    #[test]
    fn no_duplicates_reduces_to_sn_order() {
        let mut psnm = Psnm::default().start((0..5).collect(), 4);
        let pairs = drain_with_truth(&mut psnm, |_, _| false);
        let mut sn = crate::sn::SnHint.start((0..5).collect(), 4);
        let mut sn_pairs = Vec::new();
        while let Some(p) = sn.next_pair() {
            sn.feedback(false);
            sn_pairs.push(p);
        }
        assert_eq!(pairs, sn_pairs);
    }

    #[test]
    fn duplicate_promotes_neighborhood() {
        // Entities 0..6; say 0,1,2 are all duplicates of each other.
        // After (0,1) confirms, (0,2) should be explored before the base
        // sweep finishes distance 1.
        let mut run = Psnm::default().start((0..6).collect(), 5);
        let p1 = run.next_pair().unwrap();
        assert_eq!(p1, (0, 1));
        run.feedback(true);
        let p2 = run.next_pair().unwrap();
        assert_eq!(p2, (0, 2), "lookahead should promote (0,2)");
    }

    #[test]
    fn yields_each_pair_at_most_once() {
        let mut run = Psnm::default().start((0..15).collect(), 6);
        // Everything is a duplicate: maximal promotion churn.
        let pairs = drain_with_truth(&mut run, |_, _| true);
        let mut seen = std::collections::HashSet::new();
        for p in &pairs {
            assert!(seen.insert(*p), "pair {p:?} yielded twice");
        }
        // Full coverage of the window despite promotions.
        assert_eq!(pairs.len() as u64, Psnm::default().full_pairs(15, 6));
    }

    #[test]
    fn promotions_respect_window() {
        let mut run = Psnm::default().start((0..10).collect(), 2);
        let pairs = drain_with_truth(&mut run, |_, _| true);
        for (a, b) in pairs {
            assert!(b - a <= 2, "pair ({a},{b}) beyond window");
        }
    }

    #[test]
    fn early_duplicate_mass_beats_static_order_on_clustered_input() {
        // 40 entities; ids 10..14 form one duplicate cluster sitting adjacent
        // in sort order. Measure how many of the cluster's 10 pairs each
        // mechanism finds within the first 60 comparisons.
        let n = 40u32;
        let cluster = 10u32..15;
        let is_dup = |a: EntityId, b: EntityId| cluster.contains(&a) && cluster.contains(&b);

        let mut psnm = Psnm::default().start((0..n).collect(), 20);
        let mut psnm_found = 0;
        for _ in 0..60 {
            let Some((a, b)) = psnm.next_pair() else {
                break;
            };
            let dup = is_dup(a, b);
            psnm.feedback(dup);
            psnm_found += u32::from(dup);
        }

        let mut sn = crate::sn::SnHint.start((0..n).collect(), 20);
        let mut sn_found = 0;
        for _ in 0..60 {
            let Some((a, b)) = sn.next_pair() else { break };
            let dup = is_dup(a, b);
            sn.feedback(dup);
            sn_found += u32::from(dup);
        }
        assert!(
            psnm_found >= sn_found,
            "psnm {psnm_found} should front-load at least as many duplicates as sn {sn_found}"
        );
        assert!(
            psnm_found >= 7,
            "psnm should find most cluster pairs early, got {psnm_found}"
        );
    }

    /// Reference model: the same sweep-and-promote rules with the emitted
    /// pairs in a `HashSet` of index pairs, as `PsnmRun` kept them before
    /// the bitset.
    struct SetModel {
        n: usize,
        window: usize,
        d: usize,
        i: usize,
        boost: VecDeque<(usize, usize)>,
        emitted: std::collections::HashSet<(usize, usize)>,
        last: Option<(usize, usize)>,
    }

    impl SetModel {
        fn new(n: usize, window: usize) -> Self {
            Self {
                n,
                window: window.min(n.saturating_sub(1)),
                d: 1,
                i: 0,
                boost: VecDeque::new(),
                emitted: std::collections::HashSet::new(),
                last: None,
            }
        }

        fn next_pair(&mut self) -> Option<(usize, usize)> {
            loop {
                let (i, j) = if let Some(p) = self.boost.pop_front() {
                    p
                } else if self.d > self.window || self.n < 2 {
                    return None;
                } else if self.i + self.d < self.n {
                    self.i += 1;
                    (self.i - 1, self.i - 1 + self.d)
                } else {
                    self.d += 1;
                    self.i = 0;
                    continue;
                };
                if self.emitted.insert((i, j)) {
                    self.last = Some((i, j));
                    return Some((i, j));
                }
            }
        }

        fn feedback(&mut self, is_duplicate: bool) {
            let Some((i, j)) = self.last.take() else {
                return;
            };
            if !is_duplicate {
                return;
            }
            let mut promoted = 0;
            for (a, b) in [
                (i, j + 1),
                (i.wrapping_sub(1), j),
                (i, j + 2),
                (i.wrapping_sub(1), j.wrapping_sub(1)),
            ] {
                if promoted >= Psnm::default().lookahead {
                    break;
                }
                if a >= self.n || b >= self.n || a >= b || b - a > self.window {
                    continue;
                }
                if self.emitted.contains(&(a, b)) {
                    continue;
                }
                self.boost.push_back((a, b));
                promoted += 1;
            }
        }

        fn remaining_hint(&self) -> u64 {
            if self.n < 2 {
                return 0;
            }
            Psnm::default()
                .full_pairs(self.n, self.window)
                .saturating_sub(self.emitted.len() as u64)
        }
    }

    /// Drive the bitset run and the set model with one feedback stream
    /// (cycled when the run outlasts it) and compare them step by step.
    fn assert_matches_set_model(n: usize, window: usize, feedback: &[bool]) {
        // Entity ids differ from ranks, so an index/id mix-up cannot pass.
        let order: Vec<EntityId> = (0..n as u32).map(|r| 1_000 - r).collect();
        let mut run = Psnm::default().start(order.clone(), window);
        let mut model = SetModel::new(n, window);
        assert_eq!(run.remaining_hint(), model.remaining_hint());
        let mut step = 0;
        loop {
            let expected = model.next_pair().map(|(i, j)| (order[i], order[j]));
            assert_eq!(run.next_pair(), expected, "n={n} w={window} step={step}");
            assert_eq!(run.remaining_hint(), model.remaining_hint());
            if expected.is_none() {
                break;
            }
            let is_dup = feedback[step % feedback.len()];
            run.feedback(is_dup);
            model.feedback(is_dup);
            step += 1;
        }
        assert_eq!(run.remaining_hint(), 0, "a drained run covers the window");
    }

    proptest::proptest! {
        #[test]
        fn prop_bitset_run_matches_set_model(
            n in 0usize..=200,
            window in 0usize..=20,
            feedback in proptest::collection::vec(0u8..4, 1..64),
        ) {
            // About one duplicate in four, in arbitrary runs.
            let feedback: Vec<bool> = feedback.iter().map(|&b| b == 0).collect();
            assert_matches_set_model(n, window, &feedback);
        }

        #[test]
        fn prop_bitset_run_matches_set_model_under_maximal_churn(
            n in 0usize..=200,
            window in 0usize..=20,
        ) {
            // Every pair a duplicate: every emission promotes.
            assert_matches_set_model(n, window, &[true]);
        }
    }

    #[test]
    fn feedback_without_pending_pair_is_noop() {
        let mut run = Psnm::default().start(vec![0, 1], 1);
        run.feedback(true); // nothing pending: must not panic or enqueue
        assert_eq!(run.next_pair(), Some((0, 1)));
    }
}
