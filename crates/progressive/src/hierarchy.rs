//! The hierarchical-partitioning hint of Whang et al. (the paper's
//! ref. \[5\]) used as a progressive mechanism.
//!
//! The hint recursively divides a (sorted) block into a hierarchy of
//! partitions; entities sharing a deeper partition are more likely to be
//! duplicates. As a mechanism, pairs are emitted in order of the *depth of
//! their lowest common partition* — deepest (most similar) first — which is
//! a coarser-grained but cheaper prioritization than exact rank distance.
//! §III-A notes that "our approach can use the hierarchical partitioning
//! hint along with an appropriate ER algorithm as a mechanism M"; this
//! module makes that concrete.

use pper_datagen::EntityId;

use crate::mechanism::{Mechanism, PairSource};

/// The hierarchy-hint mechanism.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyHint {
    /// Partitions are halved until they are at most this big.
    pub leaf_size: usize,
}

impl Default for HierarchyHint {
    fn default() -> Self {
        Self { leaf_size: 4 }
    }
}

/// Pair stream for one block under [`HierarchyHint`]. The ordering is
/// precomputed at start (bounded by the window, so O(n·w) like any sorted
/// neighbourhood enumeration).
#[derive(Debug)]
pub struct HierarchyRun {
    pairs: Vec<(EntityId, EntityId)>,
    next: usize,
}

impl Mechanism for HierarchyHint {
    type Run = HierarchyRun;

    fn start(&self, sorted: Vec<EntityId>, window: usize) -> HierarchyRun {
        let n = sorted.len();
        let window = window.min(n.saturating_sub(1));
        if n < 2 || window == 0 {
            return HierarchyRun {
                pairs: Vec::new(),
                next: 0,
            };
        }
        // Depth of the lowest common partition of positions i and j when
        // recursively halving [0, n): count how many times both fall in the
        // same half. Equivalent formulation: walk down while the range
        // contains both.
        let leaf = self.leaf_size.max(2);
        let common_depth = |i: usize, j: usize| -> u32 {
            let (mut lo, mut hi) = (0usize, n);
            let mut depth = 0;
            while hi - lo > leaf {
                let mid = lo + (hi - lo) / 2;
                if j < mid {
                    hi = mid;
                } else if i >= mid {
                    lo = mid;
                } else {
                    return depth; // split apart here
                }
                depth += 1;
            }
            depth
        };

        let mut keyed: Vec<(u32, usize, usize)> = Vec::new();
        for d in 1..=window {
            for i in 0..n - d {
                keyed.push((common_depth(i, i + d), i, i + d));
            }
        }
        // Deepest common partition first; ties by rank distance then
        // position (stable against the SN order).
        keyed.sort_by(|a, b| {
            b.0.cmp(&a.0)
                .then((a.2 - a.1).cmp(&(b.2 - b.1)))
                .then(a.1.cmp(&b.1))
        });
        HierarchyRun {
            pairs: keyed
                .into_iter()
                .map(|(_, i, j)| (sorted[i], sorted[j]))
                .collect(),
            next: 0,
        }
    }

    fn name(&self) -> &'static str {
        "hierarchy-hint"
    }
}

impl PairSource for HierarchyRun {
    fn next_pair(&mut self) -> Option<(EntityId, EntityId)> {
        let pair = self.pairs.get(self.next).copied();
        self.next += usize::from(pair.is_some());
        pair
    }

    fn feedback(&mut self, _is_duplicate: bool) {
        // The hierarchy ordering is static.
    }

    fn remaining_hint(&self) -> u64 {
        (self.pairs.len() - self.next) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(run: &mut HierarchyRun) -> Vec<(EntityId, EntityId)> {
        let mut out = Vec::new();
        while let Some(p) = run.next_pair() {
            run.feedback(false);
            out.push(p);
        }
        out
    }

    #[test]
    fn covers_the_window_exactly_once() {
        let (n, w) = (16u32, 5usize);
        let mut run = HierarchyHint::default().start((0..n).collect(), w);
        let pairs = drain(&mut run);
        assert_eq!(
            pairs.len() as u64,
            HierarchyHint::default().full_pairs(n as usize, w)
        );
        let mut seen = std::collections::HashSet::new();
        for (a, b) in pairs {
            assert!(seen.insert((a, b)));
            assert!(b > a && (b - a) as usize <= w);
        }
    }

    #[test]
    fn same_leaf_pairs_come_before_cross_partition_pairs() {
        // 16 entities, leaf 4: the first emitted pairs must be within-leaf
        // (e.g. (0,1)), and cross-half pairs like (7,8) must come last among
        // equal distances.
        let mut run = HierarchyHint::default().start((0..16).collect(), 3);
        let pairs = drain(&mut run);
        let pos = |p: (u32, u32)| pairs.iter().position(|&x| x == p).unwrap();
        assert!(pos((0, 1)) < pos((7, 8)), "within-leaf before cross-root");
        assert!(pos((4, 5)) < pos((7, 8)));
    }

    #[test]
    fn tiny_blocks_degenerate_gracefully() {
        assert!(HierarchyHint::default()
            .start(vec![], 5)
            .next_pair()
            .is_none());
        assert!(HierarchyHint::default()
            .start(vec![9], 5)
            .next_pair()
            .is_none());
        let mut two = HierarchyHint::default().start(vec![3, 7], 5);
        assert_eq!(two.next_pair(), Some((3, 7)));
        assert_eq!(two.next_pair(), None);
    }

    #[test]
    fn remaining_hint_is_exact() {
        let mut run = HierarchyHint::default().start((0..10).collect(), 4);
        let total = run.remaining_hint();
        let mut left = total;
        while run.next_pair().is_some() {
            left -= 1;
            assert_eq!(run.remaining_hint(), left);
        }
        assert_eq!(left, 0);
    }

    #[test]
    fn finds_clustered_duplicates_early() {
        // Duplicates at positions 0..4 (one leaf of the 32-entity block,
        // leaf size 4). All six of the cluster's pairs sit at the deepest
        // level; within it, the 24 distance-1 pairs (3 duplicates) come
        // first, then distance-2 pairs starting with (0,2) and (1,3) — so
        // 5 of 6 duplicate pairs surface within the first 26 comparisons,
        // far ahead of a plain distance sweep over all 32 entities (which
        // interleaves 29 more d1/d2 pairs before (0,2)).
        let mut run = HierarchyHint::default().start((0..32).collect(), 8);
        let mut found = 0;
        for _ in 0..26 {
            let Some((a, b)) = run.next_pair() else { break };
            let dup = a < 4 && b < 4;
            run.feedback(dup);
            found += u32::from(dup);
        }
        assert_eq!(
            found, 5,
            "expected 5 cluster pairs in the first 26 comparisons"
        );
        // The sixth ((0,3), distance 3) arrives before any cross-leaf pair.
        let mut last_cluster_pos = 26;
        while let Some((a, b)) = run.next_pair() {
            run.feedback(false);
            last_cluster_pos += 1;
            if a < 4 && b < 4 {
                break;
            }
        }
        let depth3_pairs = 8 * 6; // all within-leaf pairs precede cross-leaf ones
        assert!(
            last_cluster_pos <= depth3_pairs,
            "(0,3) should arrive within the deepest level, got position {last_cluster_pos}"
        );
    }
}
