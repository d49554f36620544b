//! Clustering of resolved duplicate pairs (§II-A): "a clustering technique
//! such as transitive closure \[1\] or correlation clustering \[22\] may be
//! applied at the end to group duplicate entities into disjoint clusters
//! such that each cluster uniquely represents a single real-world object".
//!
//! * [`transitive_closure`] — union-find over the duplicate pairs;
//! * [`correlation_clustering`] — the classic greedy pivot algorithm
//!   (Ailon et al.'s KwikCluster specialization of Bansal-Blum-Chawla
//!   correlation clustering): pick a pivot, absorb its positive neighbours,
//!   repeat. Deterministic here (pivots in id order) so results are stable;
//! * [`ClusterMetrics`] — pairwise precision/recall/F1 of a clustering
//!   against ground truth.

use std::collections::HashMap;

use pper_datagen::{EntityId, GroundTruth};

/// Disjoint-set forest (union by rank, path halving).
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns true if they were separate.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Extract clusters as a dense `entity → cluster id` assignment.
    pub fn into_assignment(mut self) -> Vec<u32> {
        let n = self.parent.len();
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let mut out = Vec::with_capacity(n);
        for x in 0..n as u32 {
            let root = self.find(x);
            let next = remap.len() as u32;
            out.push(*remap.entry(root).or_insert(next));
        }
        out
    }
}

/// Transitive closure: every connected component of the duplicate graph
/// becomes one cluster. Returns `entity → cluster id` over `n` entities.
pub fn transitive_closure(n: usize, pairs: &[(EntityId, EntityId)]) -> Vec<u32> {
    let mut uf = UnionFind::new(n);
    for &(a, b) in pairs {
        uf.union(a, b);
    }
    uf.into_assignment()
}

/// Greedy pivot correlation clustering: process entities in id order; an
/// unassigned entity becomes a pivot and absorbs all *unassigned* entities
/// connected to it by a positive (duplicate) edge.
///
/// Unlike transitive closure, a chain `a—b—c` without the `a—c` edge does
/// not necessarily merge all three: `c` joins only if it is adjacent to the
/// pivot. This bounds the damage of a single false-positive edge, which is
/// exactly why the paper lists correlation clustering as the alternative.
pub fn correlation_clustering(n: usize, pairs: &[(EntityId, EntityId)]) -> Vec<u32> {
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(a, b) in pairs {
        adjacency[a as usize].push(b);
        adjacency[b as usize].push(a);
    }
    const UNASSIGNED: u32 = u32::MAX;
    let mut assignment = vec![UNASSIGNED; n];
    let mut next_cluster = 0u32;
    for pivot in 0..n as u32 {
        if assignment[pivot as usize] != UNASSIGNED {
            continue;
        }
        assignment[pivot as usize] = next_cluster;
        for &nb in &adjacency[pivot as usize] {
            if assignment[nb as usize] == UNASSIGNED {
                assignment[nb as usize] = next_cluster;
            }
        }
        next_cluster += 1;
    }
    assignment
}

/// Pairwise clustering quality against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterMetrics {
    /// Pairs clustered together that are true duplicates / pairs clustered
    /// together.
    pub pairwise_precision: f64,
    /// Pairs clustered together that are true duplicates / true duplicate
    /// pairs.
    pub pairwise_recall: f64,
    /// Number of produced clusters.
    pub clusters: usize,
}

impl ClusterMetrics {
    /// Harmonic mean of pairwise precision and recall.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.pairwise_precision, self.pairwise_recall);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Evaluate an assignment against ground truth.
    pub fn evaluate(assignment: &[u32], truth: &GroundTruth) -> Self {
        assert_eq!(assignment.len(), truth.len());
        let mut produced: HashMap<u32, Vec<u32>> = HashMap::new();
        for (id, &c) in assignment.iter().enumerate() {
            produced.entry(c).or_default().push(id as u32);
        }
        let mut together = 0u64;
        let mut correct = 0u64;
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "commutative pair counting: together/correct are sums over unordered \
                      cluster-member pairs, so the totals are independent of the order \
                      clusters are visited in"
        )]
        for members in produced.values() {
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    together += 1;
                    correct += u64::from(truth.is_duplicate(a, b));
                }
            }
        }
        let truth_pairs = truth.total_duplicate_pairs();
        Self {
            pairwise_precision: if together == 0 {
                1.0
            } else {
                correct as f64 / together as f64
            },
            pairwise_recall: if truth_pairs == 0 {
                1.0
            } else {
                correct as f64 / truth_pairs as f64
            },
            clusters: produced.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already connected");
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        let assignment = uf.into_assignment();
        assert_eq!(assignment[0], assignment[2]);
        assert_ne!(assignment[0], assignment[3]);
        assert_ne!(assignment[3], assignment[4]);
    }

    #[test]
    fn transitive_closure_merges_chains() {
        let clusters = transitive_closure(5, &[(0, 1), (1, 2)]);
        assert_eq!(clusters[0], clusters[1]);
        assert_eq!(clusters[1], clusters[2]);
        assert_ne!(clusters[0], clusters[3]);
    }

    #[test]
    fn correlation_clustering_resists_chaining() {
        // Chain 0—1—2 without 0—2: pivot 0 absorbs 1; 2 is not adjacent to
        // 0, so it becomes its own pivot.
        let clusters = correlation_clustering(3, &[(0, 1), (1, 2)]);
        assert_eq!(clusters[0], clusters[1]);
        assert_ne!(clusters[0], clusters[2]);
        // Transitive closure merges all three.
        let tc = transitive_closure(3, &[(0, 1), (1, 2)]);
        assert_eq!(tc[0], tc[2]);
    }

    #[test]
    fn correlation_clustering_complete_cliques_merge() {
        let clusters = correlation_clustering(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(clusters[0], clusters[1]);
        assert_eq!(clusters[1], clusters[2]);
    }

    #[test]
    fn metrics_perfect_clustering() {
        let truth = GroundTruth::new(vec![0, 0, 1, 1, 2]);
        let m = ClusterMetrics::evaluate(&[0, 0, 1, 1, 2], &truth);
        assert_eq!(m.pairwise_precision, 1.0);
        assert_eq!(m.pairwise_recall, 1.0);
        assert_eq!(m.f1(), 1.0);
        assert_eq!(m.clusters, 3);
    }

    #[test]
    fn metrics_overmerged_clustering() {
        let truth = GroundTruth::new(vec![0, 0, 1, 1]);
        // Everything in one cluster: recall 1, precision 2/6.
        let m = ClusterMetrics::evaluate(&[0, 0, 0, 0], &truth);
        assert_eq!(m.pairwise_recall, 1.0);
        assert!((m.pairwise_precision - 2.0 / 6.0).abs() < 1e-12);
        assert!(m.f1() < 1.0);
    }

    #[test]
    fn metrics_singletons() {
        let truth = GroundTruth::new(vec![0, 0, 1]);
        let m = ClusterMetrics::evaluate(&[0, 1, 2], &truth);
        assert_eq!(m.pairwise_precision, 1.0); // vacuous
        assert_eq!(m.pairwise_recall, 0.0);
        assert_eq!(m.f1(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_transitive_closure_is_equivalence(
            n in 2usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40), 0..60)
        ) {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .filter(|(a, b)| (*a as usize) < n && (*b as usize) < n && a != b)
                .collect();
            let clusters = transitive_closure(n, &edges);
            // Every edge's endpoints share a cluster.
            for (a, b) in &edges {
                prop_assert_eq!(clusters[*a as usize], clusters[*b as usize]);
            }
            // Cluster ids are dense.
            let max = clusters.iter().copied().max().unwrap_or(0) as usize;
            prop_assert!(max < n);
        }

        #[test]
        fn prop_correlation_refines_transitive_closure(
            n in 2usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40), 0..60)
        ) {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .filter(|(a, b)| (*a as usize) < n && (*b as usize) < n && a != b)
                .collect();
            let cc = correlation_clustering(n, &edges);
            let tc = transitive_closure(n, &edges);
            // Correlation clusters never span transitive-closure components.
            for a in 0..n {
                for b in (a + 1)..n {
                    if cc[a] == cc[b] {
                        prop_assert_eq!(tc[a], tc[b]);
                    }
                }
            }
        }
    }
}
