//! Block statistics — the output of the paper's first MR job (§III-B):
//! block sizes, parent→child structure, and the overlap information needed
//! to compute **covered pairs** per block (§IV-A).
//!
//! A pair inside block `X` (family `m` in the dominance order) is
//! *uncovered* if some more-dominating family already places both entities
//! in one of its root blocks; the responsible tree for such a shared pair
//! belongs to the dominating family, so `X`'s cost/duplicate estimates must
//! ignore it. The paper computes `Uncov(X)` by inclusion–exclusion over
//! `OLP(·)` overlap counts; [`uncovered_pairs`] implements exactly that
//! formula by grouping member signatures (the grouping *is* the `OLP`
//! computation, see [`olp`]), and tests validate it against a brute-force
//! pair scan.

use std::collections::HashMap;

use pper_datagen::{Dataset, EntityId};
use serde::{Deserialize, Serialize};

use crate::forest::{Forest, Tree};
use crate::function::BlockingFamily;
use crate::FamilyIndex;

/// `Pairs(n) = n·(n−1)/2`.
#[inline]
pub fn pairs(n: usize) -> u64 {
    let n = n as u64;
    if n < 2 {
        0
    } else {
        n * (n - 1) / 2
    }
}

/// Per-entity root-key signature: `sig[f]` is the entity's root blocking key
/// under family `f`. Computed once by the first job's map phase (the
/// "annotated entity" e*, §III-B).
pub type Signature = Vec<String>;

/// Resolves an [`EntityId`] to its [`Signature`]. The driver holds a dense
/// `Vec` over the whole dataset; a reduce task holds one over just its
/// received entities, indexed by their position among them.
pub trait SignatureSource {
    /// Signature of entity `id`. Panics if absent (pipeline logic error).
    fn signature(&self, id: EntityId) -> &Signature;
}

impl SignatureSource for Vec<Signature> {
    fn signature(&self, id: EntityId) -> &Signature {
        &self[id as usize]
    }
}

impl SignatureSource for [Signature] {
    fn signature(&self, id: EntityId) -> &Signature {
        &self[id as usize]
    }
}

/// Compute every entity's signature under all families.
pub fn compute_signatures(ds: &Dataset, families: &[BlockingFamily]) -> Vec<Signature> {
    ds.entities
        .iter()
        .map(|e| families.iter().map(|f| f.root_key(e)).collect())
        .collect()
}

/// `OLP({X} ∪ H)` for all combinations `H` of one root block per family in
/// `subset`: the number of entities of `members` falling in each combination
/// of dominating root blocks. Returned as a map from the key-tuple
/// (projected onto `subset`, joined) to the shared-entity count.
pub fn olp(
    members: &[EntityId],
    signatures: &impl SignatureSource,
    subset: &[FamilyIndex],
) -> HashMap<Vec<String>, usize> {
    let mut counts: HashMap<Vec<String>, usize> = HashMap::new();
    for &id in members {
        let sig = signatures.signature(id);
        let key: Vec<String> = subset.iter().map(|&f| sig[f].clone()).collect();
        *counts.entry(key).or_insert(0) += 1;
    }
    counts
}

/// `Uncov(X)` for a block of family index `m` (0-based in the dominance
/// order): the number of member pairs co-located in at least one root block
/// of a family `< m`, via the paper's inclusion–exclusion formula
///
/// ```text
/// Uncov(X) = Σ_{k=1}^{m} (−1)^{k+1} · Σ_{H ∈ BCK(l₁)×…×BCK(l_k)} Pairs(OLP({X}∪H))
/// ```
///
/// where each inner sum is realized by grouping `X`'s members by their key
/// tuple under the chosen family subset.
pub fn uncovered_pairs(
    members: &[EntityId],
    signatures: &impl SignatureSource,
    m: FamilyIndex,
) -> u64 {
    if m == 0 {
        return 0; // the most dominating family has no uncovered pairs
    }
    let mut total: i64 = 0;
    // Enumerate non-empty subsets of {0, …, m-1} as bitmasks.
    for mask in 1u32..(1 << m) {
        let subset: Vec<FamilyIndex> = (0..m).filter(|&f| mask & (1 << f) != 0).collect();
        let sign: i64 = if subset.len() % 2 == 1 { 1 } else { -1 };
        let olp_counts = olp(members, signatures, &subset);
        let shared: i64 = olp_counts.values().map(|&c| pairs(c) as i64).sum();
        total += sign * shared;
    }
    debug_assert!(total >= 0, "inclusion-exclusion must not go negative");
    total.max(0) as u64
}

/// Statistics for one block, parallel to `Tree::blocks` by index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Blocking key.
    pub key: String,
    /// Level (0 = root).
    pub level: usize,
    /// Parent index within the tree (`None` for root).
    pub parent: Option<usize>,
    /// Child indices within the tree.
    pub children: Vec<usize>,
    /// Block cardinality `|X|`.
    pub size: usize,
    /// Pairs shared with dominating families' root blocks.
    pub uncovered_pairs: u64,
}

impl NodeStats {
    /// `Cov(X) = Pairs(|X|) − Uncov(X)` (§IV-A).
    pub fn covered_pairs(&self) -> u64 {
        pairs(self.size).saturating_sub(self.uncovered_pairs)
    }
}

/// Statistics for one tree — everything the schedule generator needs to
/// know about it, with node indices matching the source [`Tree`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeStats {
    /// Blocking family of the tree.
    pub family: FamilyIndex,
    /// Root blocking key.
    pub root_key: String,
    /// Per-block stats, index-aligned with `Tree::blocks`.
    pub nodes: Vec<NodeStats>,
}

impl TreeStats {
    /// Gather stats from a materialized tree.
    pub fn from_tree(tree: &Tree, signatures: &impl SignatureSource) -> Self {
        let nodes = tree
            .blocks
            .iter()
            .map(|b| NodeStats {
                key: b.key.clone(),
                level: b.level,
                parent: b.parent,
                children: b.children.clone(),
                size: b.size(),
                uncovered_pairs: uncovered_pairs(&b.members, signatures, tree.family),
            })
            .collect();
        Self {
            family: tree.family,
            root_key: tree.root().key.clone(),
            nodes,
        }
    }

    /// Bottom-up node order (children before parents).
    pub fn bottom_up(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).rev()
    }

    /// Indices of all descendants of node `idx`.
    pub fn descendants(&self, idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = self.nodes[idx].children.clone();
        while let Some(i) = stack.pop() {
            out.push(i);
            stack.extend_from_slice(&self.nodes[i].children);
        }
        out
    }
}

/// Dataset-level statistics: one [`TreeStats`] per tree across all forests —
/// the complete output of the paper's first MR job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Number of entities `|D|`.
    pub num_entities: usize,
    /// Per-tree statistics, in forest order then root-key order.
    pub trees: Vec<TreeStats>,
}

impl DatasetStats {
    /// Gather stats from materialized forests.
    pub fn from_forests(ds: &Dataset, families: &[BlockingFamily], forests: &[Forest]) -> Self {
        let signatures = compute_signatures(ds, families);
        let trees = forests
            .iter()
            .flat_map(|f| f.trees.iter())
            .map(|t| TreeStats::from_tree(t, &signatures))
            .collect();
        Self {
            num_entities: ds.len(),
            trees,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::build_forests;
    use crate::presets;
    use pper_datagen::{toy_people, PubGen};
    use proptest::prelude::*;

    #[test]
    fn pairs_formula() {
        assert_eq!(pairs(0), 0);
        assert_eq!(pairs(1), 0);
        assert_eq!(pairs(2), 1);
        assert_eq!(pairs(10), 45);
        assert_eq!(pairs(30), 435);
    }

    /// Brute-force oracle: count pairs sharing at least one dominating key.
    fn uncovered_bruteforce(members: &[EntityId], sigs: &[Signature], m: usize) -> u64 {
        let mut count = 0;
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                if (0..m).any(|f| sigs[a as usize][f] == sigs[b as usize][f]) {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn uncovered_zero_for_most_dominating_family() {
        let sigs = vec![vec!["a".into()], vec!["a".into()]];
        assert_eq!(uncovered_pairs(&[0, 1], &sigs, 0), 0);
    }

    #[test]
    fn paper_figure_four_example() {
        // Fig. 4: |Y¹₁|=30, |X¹₁∩Y¹₁|=10, |X¹₂∩Y¹₁|=20, X¹ ⊵ Y¹
        // ⇒ Uncov(Y¹₁) = Pairs(10) + Pairs(20) = 45 + 190 = 235.
        // Model: 30 entities; 10 share X-key "x1", 20 share "x2".
        let mut sigs: Vec<Signature> = Vec::new();
        let mut members = Vec::new();
        for i in 0..30u32 {
            let xkey = if i < 10 { "x1" } else { "x2" };
            sigs.push(vec![xkey.into(), "y1".into()]);
            members.push(i);
        }
        assert_eq!(uncovered_pairs(&members, &sigs, 1), 235);
        let n = NodeStats {
            key: "y1".into(),
            level: 0,
            parent: None,
            children: vec![],
            size: 30,
            uncovered_pairs: 235,
        };
        assert_eq!(n.covered_pairs(), pairs(30) - 235);
    }

    #[test]
    fn toy_dataset_stats() {
        let ds = toy_people();
        let families = presets::toy_families();
        let forests = build_forests(&ds, &families);
        let stats = DatasetStats::from_forests(&ds, &families, &forests);
        assert_eq!(stats.num_entities, 9);
        // X-family trees have no uncovered pairs.
        for t in stats.trees.iter().filter(|t| t.family == 0) {
            assert!(t.nodes.iter().all(|n| n.uncovered_pairs == 0));
        }
        // Y tree "hi" = {e1,e2}, both share X-key "jo": its single pair is
        // uncovered.
        let hi = stats
            .trees
            .iter()
            .find(|t| t.family == 1 && t.root_key == "hi")
            .unwrap();
        assert_eq!(hi.nodes[0].uncovered_pairs, 1);
        assert_eq!(hi.nodes[0].covered_pairs(), 0);
        // Y tree "la" = {e4,e5,e9}: e4 has X-key "ch", e5 "gh", e9 "jo" —
        // no pair shares an X root, so all 3 pairs are covered.
        let la = stats
            .trees
            .iter()
            .find(|t| t.family == 1 && t.root_key == "la")
            .unwrap();
        assert_eq!(la.nodes[0].uncovered_pairs, 0);
        assert_eq!(la.nodes[0].covered_pairs(), 3);
    }

    #[test]
    fn inclusion_exclusion_matches_bruteforce_on_real_blocks() {
        let ds = PubGen::new(2_000, 21).generate();
        let families = presets::citeseer_families();
        let forests = build_forests(&ds, &families);
        let sigs = compute_signatures(&ds, &families);
        for forest in &forests {
            for tree in &forest.trees {
                for b in tree.blocks.iter().take(5) {
                    if b.size() > 300 {
                        continue; // keep the O(n²) oracle cheap
                    }
                    assert_eq!(
                        uncovered_pairs(&b.members, &sigs, tree.family),
                        uncovered_bruteforce(&b.members, &sigs, tree.family),
                        "family {} key {}",
                        tree.family,
                        b.key
                    );
                }
            }
        }
    }

    #[test]
    fn stats_align_with_tree_indices() {
        let ds = PubGen::new(1_500, 22).generate();
        let families = presets::citeseer_families();
        let forests = build_forests(&ds, &families);
        let sigs = compute_signatures(&ds, &families);
        for forest in &forests {
            for tree in &forest.trees {
                let stats = TreeStats::from_tree(tree, &sigs);
                assert_eq!(stats.nodes.len(), tree.blocks.len());
                for (n, b) in stats.nodes.iter().zip(&tree.blocks) {
                    assert_eq!(n.key, b.key);
                    assert_eq!(n.size, b.size());
                    assert_eq!(n.parent, b.parent);
                    assert_eq!(n.children, b.children);
                }
            }
        }
    }

    #[test]
    fn olp_counts_shared_entities() {
        let sigs: Vec<Signature> = vec![
            vec!["a".into(), "p".into()],
            vec!["a".into(), "q".into()],
            vec!["b".into(), "p".into()],
        ];
        let counts = olp(&[0, 1, 2], &sigs, &[0]);
        assert_eq!(counts[&vec!["a".to_string()]], 2);
        assert_eq!(counts[&vec!["b".to_string()]], 1);
        let counts2 = olp(&[0, 1, 2], &sigs, &[0, 1]);
        assert_eq!(counts2.len(), 3);
    }

    proptest! {
        #[test]
        fn prop_uncovered_matches_bruteforce(
            keys in proptest::collection::vec((0u8..4, 0u8..4, 0u8..4), 2..40),
            m in 0usize..3
        ) {
            let sigs: Vec<Signature> = keys
                .iter()
                .map(|(a, b, c)| vec![a.to_string(), b.to_string(), c.to_string()])
                .collect();
            let members: Vec<EntityId> = (0..sigs.len() as u32).collect();
            prop_assert_eq!(
                uncovered_pairs(&members, &sigs, m),
                uncovered_bruteforce(&members, &sigs, m)
            );
        }

        #[test]
        fn prop_uncovered_bounded_by_total_pairs(
            keys in proptest::collection::vec((0u8..3, 0u8..3), 2..30),
        ) {
            let sigs: Vec<Signature> = keys
                .iter()
                .map(|(a, b)| vec![a.to_string(), b.to_string()])
                .collect();
            let members: Vec<EntityId> = (0..sigs.len() as u32).collect();
            let u = uncovered_pairs(&members, &sigs, 1);
            prop_assert!(u <= pairs(members.len()));
        }
    }
}
