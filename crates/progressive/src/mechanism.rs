//! The progressive mechanism `M`: one feedback-driven pair stream over a
//! sorted block, with or without PSNM's promotions.

use std::collections::VecDeque;

use pper_datagen::EntityId;

/// Which progressive mechanism `M` resolves the blocks (§VI-A3: SN-with-hint
/// for CiteSeerX, PSNM for OL-Books).
///
/// Both walk a block sorted by the blocking attribute (the paper sorts
/// "using the values of the attribute on which the blocking was performed",
/// §VI-A3) in non-decreasing `distance(⟨e_i, e_j⟩) = |rank(e_i) − rank(e_j)|`:
/// all distance-1 pairs in list order, then all distance-2 pairs, …, up to
/// the window `w`. "The closer the entities are to each other in the sorted
/// list, the more likely they are to be duplicates of each other."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanismKind {
    /// Sorted Neighbor with the sorted-list hint of ref. \[5\] (Whang et
    /// al.): the distance-major sweep alone; feedback is ignored.
    Sn,
    /// Progressive Sorted Neighborhood Method of ref. \[6\] (Papenbrock,
    /// Heise & Naumann, TKDE 2015): the same sweep, but when a pair is
    /// confirmed a duplicate its neighbourhood is promoted and explored
    /// immediately (duplicates cluster in the sort order, so a hit at
    /// `(i, i+d)` makes `(i, i+d+1)` and `(i−1, i+d)` unusually promising).
    Psnm,
}

/// Maximum pairs PSNM promotes per confirmed duplicate: the classic
/// formulation grows the local window by one in each direction.
const LOOKAHEAD: usize = 2;

impl MechanismKind {
    /// Start resolving a block. `sorted` is the block's member list in sort
    /// order; `window` is the maximum rank distance to consider.
    pub fn start(self, sorted: Vec<EntityId>, window: usize) -> PairStream {
        let window = window.min(sorted.len().saturating_sub(1));
        let promotion = match self {
            MechanismKind::Sn => None,
            MechanismKind::Psnm => Some(Promotion {
                boost: VecDeque::new(),
                emitted: vec![0; (sorted.len() * window).div_ceil(64)],
                last: None,
            }),
        };
        PairStream {
            order: sorted,
            sweep: Sweep { window, d: 1, i: 0 },
            promotion,
        }
    }

    /// Mechanism name for reports.
    pub fn name(self) -> &'static str {
        match self {
            MechanismKind::Sn => "sn-hint",
            MechanismKind::Psnm => "psnm",
        }
    }
}

/// A prioritized, resumable stream of entity pairs for one block.
///
/// The consumer alternates [`PairSource::next_pair`] and
/// [`PairSource::feedback`]: PSNM uses the feedback (was the last pair a
/// duplicate?) to re-prioritize, and stopping rules live outside the source
/// so a block can be suspended and resumed (incremental resolution, §III-A).
pub trait PairSource {
    /// The next pair to resolve, or `None` when the ordering is exhausted.
    fn next_pair(&mut self) -> Option<(EntityId, EntityId)>;

    /// Report whether the most recently yielded pair was a duplicate.
    /// Calling it without a pending pair is a no-op.
    fn feedback(&mut self, is_duplicate: bool);
}

/// Pair stream for one block under either [`MechanismKind`].
#[derive(Debug)]
pub struct PairStream {
    order: Vec<EntityId>,
    sweep: Sweep,
    /// PSNM's promotion state; `None` under SN, whose order is static.
    promotion: Option<Promotion>,
}

/// The distance-major base sweep over rank indices.
#[derive(Debug)]
struct Sweep {
    /// The window, clamped to `n − 1` for a block of `n` entities.
    window: usize,
    /// Current rank distance (1-based).
    d: usize,
    /// Current left index within the current distance sweep.
    i: usize,
}

impl Sweep {
    /// The next index pair of a block of `n` entities, or `None` once every
    /// distance up to the window is swept.
    #[inline]
    fn next(&mut self, n: usize) -> Option<(usize, usize)> {
        loop {
            if self.d > self.window {
                return None;
            }
            if self.i + self.d < n {
                let pair = (self.i, self.i + self.d);
                self.i += 1;
                return Some(pair);
            }
            self.d += 1;
            self.i = 0;
        }
    }
}

/// What PSNM adds to the sweep.
#[derive(Debug)]
struct Promotion {
    /// Promoted index pairs awaiting emission, highest priority first.
    boost: VecDeque<(usize, usize)>,
    /// Index pairs already emitted, to deduplicate the base sweep against
    /// promotions: an `n × window` bitset, pair `(i, j)` at bit
    /// `i·window + (j − i − 1)`. Every emitted pair has `1 ≤ j − i ≤ window`.
    emitted: Vec<u64>,
    /// The last emitted index pair, for feedback.
    last: Option<(usize, usize)>,
}

/// Word index and mask of pair `(i, j)` in [`Promotion::emitted`].
#[inline]
fn bit(window: usize, i: usize, j: usize) -> (usize, u64) {
    debug_assert!(i < j && j - i <= window);
    let bit = i * window + (j - i - 1);
    (bit / 64, 1 << (bit % 64))
}

impl Promotion {
    /// The next index pair of a block of `n` entities: promoted pairs take
    /// priority over the base sweep, and no pair is emitted twice.
    fn next(&mut self, sweep: &mut Sweep, n: usize) -> Option<(usize, usize)> {
        loop {
            let (i, j) = match self.boost.pop_front() {
                Some(pair) => pair,
                None => sweep.next(n)?,
            };
            let (word, mask) = bit(sweep.window, i, j);
            if self.emitted[word] & mask == 0 {
                self.emitted[word] |= mask;
                self.last = Some((i, j));
                return Some((i, j));
            }
        }
    }

    /// Promote the immediate extensions of the last pair if it was a
    /// duplicate, staying within the window.
    fn feedback(&mut self, is_duplicate: bool, n: usize, window: usize) {
        let Some((i, j)) = self.last.take() else {
            return;
        };
        if !is_duplicate {
            return;
        }
        let mut promoted = 0;
        let candidates = [
            (i, j + 1),
            (i.wrapping_sub(1), j),
            (i, j + 2),
            (i.wrapping_sub(1), j.wrapping_sub(1)),
        ];
        for (a, b) in candidates {
            if promoted >= LOOKAHEAD {
                break;
            }
            if a >= n || b >= n || a >= b || b - a > window {
                continue;
            }
            let (word, mask) = bit(window, a, b);
            if self.emitted[word] & mask != 0 {
                continue;
            }
            self.boost.push_back((a, b));
            promoted += 1;
        }
    }
}

// SN's whole pair loop is the two methods below and `Sweep::next`; they are
// `#[inline]` so it is inlined into the caller's loop in another crate,
// while PSNM's work stays behind one call.
impl PairSource for PairStream {
    #[inline]
    fn next_pair(&mut self) -> Option<(EntityId, EntityId)> {
        let n = self.order.len();
        let (i, j) = match &mut self.promotion {
            None => self.sweep.next(n)?,
            Some(p) => p.next(&mut self.sweep, n)?,
        };
        Some((self.order[i], self.order[j]))
    }

    #[inline]
    fn feedback(&mut self, is_duplicate: bool) {
        if let Some(p) = &mut self.promotion {
            p.feedback(is_duplicate, self.order.len(), self.sweep.window);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use MechanismKind::{Psnm, Sn};

    fn drain_with_truth(
        run: &mut PairStream,
        is_dup: impl Fn(EntityId, EntityId) -> bool,
    ) -> Vec<(EntityId, EntityId)> {
        let mut out = Vec::new();
        while let Some((a, b)) = run.next_pair() {
            run.feedback(is_dup(a, b));
            out.push((a, b));
        }
        out
    }

    fn drain(run: &mut PairStream) -> Vec<(EntityId, EntityId)> {
        drain_with_truth(run, |_, _| false)
    }

    /// Every pair of `0..n` within rank distance `w`, by brute force.
    fn window_pair_count(n: u32, w: u32) -> usize {
        (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|(a, b)| b - a <= w)
            .count()
    }

    #[test]
    fn mechanism_dispatch_yields_pairs() {
        for kind in [Sn, Psnm] {
            assert_eq!(
                drain(&mut kind.start(vec![0, 1, 2], 2)).len(),
                3,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn paper_example_order() {
        // Sorted list [e3, e2, e4, e1] (paper ids; ours 3,2,4,1): ⟨e3,e2⟩
        // precedes ⟨e3,e4⟩ because distance 1 < 2.
        let mut run = Sn.start(vec![3, 2, 4, 1], 3);
        let pairs = drain(&mut run);
        assert_eq!(pairs, vec![(3, 2), (2, 4), (4, 1), (3, 4), (2, 1), (3, 1)]);
    }

    #[test]
    fn window_limits_distance() {
        let mut run = Sn.start(vec![0, 1, 2, 3], 1);
        assert_eq!(drain(&mut run), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn window_clamps_to_block_size() {
        let mut run = Sn.start(vec![0, 1], 100);
        assert_eq!(drain(&mut run), vec![(0, 1)]);
    }

    #[test]
    fn empty_and_singleton_blocks_yield_nothing() {
        for kind in [Sn, Psnm] {
            assert!(kind.start(vec![], 5).next_pair().is_none());
            assert!(kind.start(vec![7], 5).next_pair().is_none());
        }
    }

    #[test]
    fn yields_each_pair_once_and_covers_window() {
        let n = 20;
        let w = 7;
        let mut run = Sn.start((0..n).collect(), w as usize);
        let pairs = drain(&mut run);
        assert_eq!(pairs.len(), window_pair_count(n, w));
        let mut seen = HashSet::new();
        for (a, b) in &pairs {
            assert!(seen.insert((*a, *b)), "pair ({a},{b}) yielded twice");
            assert!(b - a >= 1 && b - a <= w);
        }
        // Distance-major: distances never decrease.
        assert!(pairs.windows(2).all(|p| p[0].1 - p[0].0 <= p[1].1 - p[1].0));
    }

    #[test]
    fn no_duplicates_reduces_to_sn_order() {
        let psnm = drain(&mut Psnm.start((0..5).collect(), 4));
        assert_eq!(psnm, drain(&mut Sn.start((0..5).collect(), 4)));
    }

    #[test]
    fn duplicate_promotes_neighborhood() {
        // Entities 0..6; say 0,1,2 are all duplicates of each other.
        // After (0,1) confirms, (0,2) should be explored before the base
        // sweep finishes distance 1.
        let mut run = Psnm.start((0..6).collect(), 5);
        let p1 = run.next_pair().unwrap();
        assert_eq!(p1, (0, 1));
        run.feedback(true);
        let p2 = run.next_pair().unwrap();
        assert_eq!(p2, (0, 2), "lookahead should promote (0,2)");
    }

    #[test]
    fn yields_each_pair_at_most_once() {
        let mut run = Psnm.start((0..15).collect(), 6);
        // Everything is a duplicate: maximal promotion churn.
        let pairs = drain_with_truth(&mut run, |_, _| true);
        let mut seen = HashSet::new();
        for p in &pairs {
            assert!(seen.insert(*p), "pair {p:?} yielded twice");
        }
        // Full coverage of the window despite promotions.
        assert_eq!(pairs.len(), window_pair_count(15, 6));
    }

    #[test]
    fn promotions_respect_window() {
        let mut run = Psnm.start((0..10).collect(), 2);
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
        let cluster = 10u32..15;
        let is_dup = |a: EntityId, b: EntityId| cluster.contains(&a) && cluster.contains(&b);
        let found = |kind: MechanismKind| {
            let mut run = kind.start((0..40).collect(), 20);
            let mut found = 0;
            for _ in 0..60 {
                let Some((a, b)) = run.next_pair() else {
                    break;
                };
                let dup = is_dup(a, b);
                run.feedback(dup);
                found += u32::from(dup);
            }
            found
        };
        let (psnm_found, sn_found) = (found(Psnm), found(Sn));
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
    /// pairs in a `HashSet` of index pairs, as PSNM kept them before the
    /// bitset. At look-ahead 0 nothing is ever promoted: it is SN.
    struct SetModel {
        n: usize,
        window: usize,
        lookahead: usize,
        d: usize,
        i: usize,
        boost: VecDeque<(usize, usize)>,
        emitted: HashSet<(usize, usize)>,
        last: Option<(usize, usize)>,
    }

    impl SetModel {
        fn new(n: usize, window: usize, lookahead: usize) -> Self {
            Self {
                n,
                window: window.min(n.saturating_sub(1)),
                lookahead,
                d: 1,
                i: 0,
                boost: VecDeque::new(),
                emitted: HashSet::new(),
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
                if promoted >= self.lookahead {
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
    }

    /// Drive the stream and the set model with one feedback stream (cycled
    /// when the run outlasts it) and compare them step by step: SN against
    /// the model at look-ahead 0, PSNM against it at look-ahead 2.
    fn assert_matches_set_model(n: usize, window: usize, feedback: &[bool]) {
        // Entity ids differ from ranks, so an index/id mix-up cannot pass.
        let order: Vec<EntityId> = (0..n as u32).map(|r| 1_000 - r).collect();
        for (kind, lookahead) in [(Sn, 0), (Psnm, LOOKAHEAD)] {
            let mut run = kind.start(order.clone(), window);
            let mut model = SetModel::new(n, window, lookahead);
            let mut step = 0;
            loop {
                let expected = model.next_pair().map(|(i, j)| (order[i], order[j]));
                assert_eq!(
                    run.next_pair(),
                    expected,
                    "{kind:?} n={n} w={window} step={step}"
                );
                if expected.is_none() {
                    break;
                }
                let is_dup = feedback[step % feedback.len()];
                run.feedback(is_dup);
                model.feedback(is_dup);
                step += 1;
            }
            // A drained run covers the window.
            assert_eq!(
                model.emitted.len(),
                window_pair_count(n as u32, window as u32)
            );
        }
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
        for kind in [Sn, Psnm] {
            let mut run = kind.start(vec![0, 1], 1);
            run.feedback(true); // nothing pending: must not panic or enqueue
            assert_eq!(run.next_pair(), Some((0, 1)));
        }
    }
}
