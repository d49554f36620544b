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
//! formula by grouping members by their root-key ids (the grouping *is* the
//! `OLP` computation, see [`olp`]), and tests validate it against a
//! brute-force pair scan over the key strings.

use std::collections::HashMap;

use pper_datagen::{Dataset, Entity, EntityId};
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

/// Root-key ids of a set of entities: the annotated entity `e*` of the
/// first job's map phase (§III-B), each key replaced by a `u32` id.
///
/// `row(e)[f]` names entity `e`'s root key under family `f`. Each family's
/// ids are interned in first-seen order and dense from 0. They are only
/// ever compared for equality: two entities share a root block of family
/// `f` exactly when their ids under `f` are equal.
#[derive(Debug, Clone)]
pub struct Signatures {
    /// Families interned per row.
    width: usize,
    /// Number of rows (entities).
    rows: usize,
    /// Row-major ids: row `e` is `ids[e * width..(e + 1) * width]`.
    ids: Vec<u32>,
    /// Per family, the number of distinct ids (they are `0..distinct[f]`).
    distinct: Vec<u32>,
}

impl Signatures {
    /// Intern the root keys of `families` over `entities`; the `i`-th
    /// entity gets row `i`. Every key is extracted once into one reused
    /// buffer, and a `String` is kept only per distinct key.
    pub fn intern<'e>(
        families: &[BlockingFamily],
        entities: impl IntoIterator<Item = &'e Entity>,
    ) -> Self {
        let mut interners: Vec<HashMap<String, u32>> = vec![HashMap::new(); families.len()];
        let mut ids = Vec::new();
        let mut rows = 0;
        let mut key = String::new();
        for entity in entities {
            for (family, interner) in families.iter().zip(&mut interners) {
                key.clear();
                family.levels[0].key_into(entity, &mut key);
                let id = match interner.get(key.as_str()) {
                    Some(&id) => id,
                    None => {
                        let id = interner.len() as u32;
                        interner.insert(key.clone(), id);
                        id
                    }
                };
                ids.push(id);
            }
            rows += 1;
        }
        Self {
            width: families.len(),
            rows,
            ids,
            distinct: interners.iter().map(|i| i.len() as u32).collect(),
        }
    }

    /// The ids of entity `id`, one per interned family.
    #[inline]
    pub fn row(&self, id: EntityId) -> &[u32] {
        let at = id as usize * self.width;
        &self.ids[at..at + self.width]
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no entity was interned.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }
}

/// Compute every entity's signature under all families.
pub fn compute_signatures(ds: &Dataset, families: &[BlockingFamily]) -> Signatures {
    Signatures::intern(families, &ds.entities)
}

/// Reusable buffers for [`olp`] and [`uncovered_pairs`]. The arrays are
/// indexed by key id or group label; an entry a call touches is reset
/// before the call returns, so one scratch serves any number of blocks.
#[derive(Debug, Clone, Default)]
pub struct OlpScratch {
    /// Per member position: its group under the families grouped so far.
    labels: Vec<u32>,
    /// Member positions bucketed by label.
    order: Vec<u32>,
    /// Bucket ends into `order`, by label.
    ends: Vec<u32>,
    /// Per key id: the group it opened in the current bucket, or `NONE`.
    opened: Vec<u32>,
    /// Per group label: its size — the `OLP` counts [`olp`] returns.
    sizes: Vec<u32>,
}

/// An [`OlpScratch::opened`] entry no group holds.
const NONE: u32 = u32::MAX;

impl OlpScratch {
    /// Split every group of `labels` (dense, `< groups`) by the members'
    /// ids under `family`, relabelling them densely; returns the new group
    /// count. Members are bucketed by label with a counting sort, so a
    /// bucket's ids go through `opened` with no map.
    fn refine(
        &mut self,
        members: &[EntityId],
        signatures: &Signatures,
        family: FamilyIndex,
        groups: u32,
    ) -> u32 {
        let Self {
            labels,
            order,
            ends,
            opened,
            ..
        } = self;
        ends.clear();
        ends.resize(groups as usize + 1, 0);
        for &l in labels.iter() {
            ends[l as usize + 1] += 1;
        }
        for g in 0..groups as usize {
            ends[g + 1] += ends[g];
        }
        // Placing a member advances its bucket's start to its end, so
        // `ends[g]` ends bucket `g` afterwards.
        order.resize(members.len(), 0);
        for (i, &l) in labels.iter().enumerate() {
            order[ends[l as usize] as usize] = i as u32;
            ends[l as usize] += 1;
        }
        opened.resize(opened.len().max(signatures.distinct[family] as usize), NONE);
        let id = |i: u32| signatures.row(members[i as usize])[family] as usize;
        let mut next = 0;
        let mut start = 0;
        for &end in &ends[..groups as usize] {
            let bucket = &order[start..end as usize];
            for &i in bucket {
                let group = &mut opened[id(i)];
                if *group == NONE {
                    *group = next;
                    next += 1;
                }
                labels[i as usize] = *group;
            }
            for &i in bucket {
                opened[id(i)] = NONE;
            }
            start = end as usize;
        }
        next
    }
}

/// `OLP({X} ∪ H)` for all combinations `H` of one root block per family in
/// `subset`: the number of entities of `members` falling in each
/// combination of dominating root blocks that any member reaches, in no
/// particular order.
pub fn olp<'s>(
    members: &[EntityId],
    signatures: &Signatures,
    subset: impl IntoIterator<Item = FamilyIndex>,
    scratch: &'s mut OlpScratch,
) -> &'s [u32] {
    scratch.labels.clear();
    scratch.labels.resize(members.len(), 0);
    let mut groups = 1;
    for family in subset {
        groups = scratch.refine(members, signatures, family, groups);
    }
    let OlpScratch { labels, sizes, .. } = scratch;
    sizes.clear();
    sizes.resize(groups as usize, 0);
    for &l in labels.iter() {
        sizes[l as usize] += 1;
    }
    sizes
}

/// `Uncov(X)` for a block of family index `m` (0-based in the dominance
/// order): the number of member pairs co-located in at least one root block
/// of a family `< m`, via the paper's inclusion–exclusion formula
///
/// ```text
/// Uncov(X) = Σ_{k=1}^{m} (−1)^{k+1} · Σ_{H ∈ BCK(l₁)×…×BCK(l_k)} Pairs(OLP({X}∪H))
/// ```
///
/// where each inner sum is realized by grouping `X`'s members by their ids
/// under the chosen family subset ([`olp`]). `signatures` must intern at
/// least the families `0..m`.
pub fn uncovered_pairs(
    members: &[EntityId],
    signatures: &Signatures,
    m: FamilyIndex,
    scratch: &mut OlpScratch,
) -> u64 {
    let mut total: i64 = 0;
    // Enumerate non-empty subsets of {0, …, m-1} as bitmasks.
    for mask in 1u32..(1 << m) {
        let subset = (0..m).filter(|&f| mask & (1 << f) != 0);
        let shared: i64 = olp(members, signatures, subset, scratch)
            .iter()
            .map(|&c| pairs(c as usize) as i64)
            .sum();
        total += if mask.count_ones() % 2 == 1 {
            shared
        } else {
            -shared
        };
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
    /// Gather stats from a materialized tree. `signatures` must intern at
    /// least the families that dominate the tree's (`0..tree.family`).
    pub fn from_tree(tree: &Tree, signatures: &Signatures, scratch: &mut OlpScratch) -> Self {
        let nodes = tree
            .blocks
            .iter()
            .map(|b| NodeStats {
                key: b.key.clone(),
                level: b.level,
                parent: b.parent,
                children: b.children.clone(),
                size: b.size(),
                uncovered_pairs: uncovered_pairs(&b.members, signatures, tree.family, scratch),
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
        let mut scratch = OlpScratch::default();
        let trees = forests
            .iter()
            .flat_map(|f| f.trees.iter())
            .map(|t| TreeStats::from_tree(t, &signatures, &mut scratch))
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
    use crate::function::PrefixFunction;
    use crate::presets;
    use pper_datagen::{toy_people, BookGen, PubGen};
    use proptest::prelude::*;

    #[test]
    fn pairs_formula() {
        assert_eq!(pairs(0), 0);
        assert_eq!(pairs(1), 0);
        assert_eq!(pairs(2), 1);
        assert_eq!(pairs(10), 45);
        assert_eq!(pairs(30), 435);
    }

    /// Brute-force oracle on the key strings themselves: count pairs
    /// sharing at least one dominating root key.
    fn uncovered_bruteforce(
        members: &[EntityId],
        entities: &[Entity],
        families: &[BlockingFamily],
        m: usize,
    ) -> u64 {
        let mut count = 0;
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                let (ea, eb) = (&entities[a as usize], &entities[b as usize]);
                if families[..m]
                    .iter()
                    .any(|f| f.root_key(ea) == f.root_key(eb))
                {
                    count += 1;
                }
            }
        }
        count
    }

    /// Entities whose attribute `f` is `rows[i][f]`, and one family per
    /// column keying on its whole (lowercased) value.
    fn keyed(rows: &[Vec<String>]) -> (Vec<Entity>, Vec<BlockingFamily>) {
        let entities: Vec<Entity> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| Entity::new(i as EntityId, row.clone()))
            .collect();
        let width = rows.first().map_or(0, Vec::len);
        let families = (0..width)
            .map(|f| BlockingFamily::new(format!("F{f}"), vec![PrefixFunction::new(f, 16)]))
            .collect();
        (entities, families)
    }

    fn uncovered(members: &[EntityId], sigs: &Signatures, m: usize) -> u64 {
        uncovered_pairs(members, sigs, m, &mut OlpScratch::default())
    }

    #[test]
    fn uncovered_zero_for_most_dominating_family() {
        let (entities, families) = keyed(&[vec!["a".into()], vec!["a".into()]]);
        let sigs = Signatures::intern(&families, &entities);
        assert_eq!(uncovered(&[0, 1], &sigs, 0), 0);
        assert_eq!(uncovered(&[0, 1], &sigs, 1), 1);
    }

    #[test]
    fn paper_figure_four_example() {
        // Fig. 4: |Y¹₁|=30, |X¹₁∩Y¹₁|=10, |X¹₂∩Y¹₁|=20, X¹ ⊵ Y¹
        // ⇒ Uncov(Y¹₁) = Pairs(10) + Pairs(20) = 45 + 190 = 235.
        // Model: 30 entities; 10 share X-key "x1", 20 share "x2".
        let rows: Vec<Vec<String>> = (0..30)
            .map(|i| vec![if i < 10 { "x1" } else { "x2" }.into(), "y1".into()])
            .collect();
        let (entities, families) = keyed(&rows);
        let sigs = Signatures::intern(&families, &entities);
        let members: Vec<EntityId> = (0..30).collect();
        assert_eq!(uncovered(&members, &sigs, 1), 235);
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
        let cases = [
            (
                PubGen::new(2_000, 21).generate(),
                presets::citeseer_families(),
            ),
            (
                BookGen::new(2_000, 21).generate(),
                presets::books_families(),
            ),
        ];
        for (ds, families) in &cases {
            let forests = build_forests(ds, families);
            let sigs = compute_signatures(ds, families);
            let mut checked = 0;
            for forest in &forests {
                for tree in &forest.trees {
                    for b in tree.blocks.iter().take(5) {
                        if b.size() > 300 {
                            continue; // keep the O(n²) oracle cheap
                        }
                        assert_eq!(
                            uncovered(&b.members, &sigs, tree.family),
                            uncovered_bruteforce(&b.members, &ds.entities, families, tree.family),
                            "{} family {} key {}",
                            ds.name,
                            tree.family,
                            b.key
                        );
                        checked += u64::from(tree.family > 0);
                    }
                }
            }
            assert!(checked > 50, "{}: {checked} dominated blocks", ds.name);
        }
    }

    #[test]
    fn ids_collide_exactly_where_keys_do() {
        // Keys that differ only in case, and keys that go through
        // non-ASCII lowercasing: İ lowercases to two chars ("i̇", not "i"),
        // and Σ lowercases to ς at a word's end but σ inside one — so
        // "ΟΔΟΣ" and "ΟΔΟΣΑ" cut to three or four chars meet "οδος" only
        // where the cut ends on the Σ.
        let values = [
            "Data",
            "DATA",
            "data",
            "dAtum",
            "İstanbul",
            "istanbul",
            "İSTANBUL",
            "ISTANBUL",
            "ΟΔΟΣ",
            "ΟΔΟΣΑ",
            "οδος",
            "οδοσ",
            "ὈΔΟΣ",
            "",
            "straße",
            "STRASSE",
        ];
        let entities: Vec<Entity> = values
            .iter()
            .enumerate()
            .map(|(i, v)| Entity::new(i as EntityId, vec![v.to_string(); 4]))
            .collect();
        let families: Vec<BlockingFamily> = [1, 3, 4, 6]
            .iter()
            .enumerate()
            .map(|(attr, &chars)| {
                BlockingFamily::new(format!("F{chars}"), vec![PrefixFunction::new(attr, chars)])
            })
            .collect();
        let sigs = Signatures::intern(&families, &entities);
        assert_eq!(sigs.len(), entities.len());
        let mut collisions = 0;
        for (f, family) in families.iter().enumerate() {
            for a in &entities {
                for b in &entities {
                    let same_key = family.root_key(a) == family.root_key(b);
                    assert_eq!(
                        sigs.row(a.id)[f] == sigs.row(b.id)[f],
                        same_key,
                        "family {f}: {:?} vs {:?}",
                        a.attr(f),
                        b.attr(f)
                    );
                    collisions += u32::from(same_key && a.id < b.id);
                }
            }
        }
        assert!(collisions > 20, "only {collisions} colliding pairs");
        // Every member pair of one all-colliding block is uncovered under
        // a dominating family whose ids collide where the keys do.
        let members: Vec<EntityId> = (0..entities.len() as EntityId).collect();
        assert_eq!(
            uncovered(&members, &sigs, 3),
            uncovered_bruteforce(&members, &entities, &families, 3)
        );
    }

    #[test]
    fn stats_align_with_tree_indices() {
        let ds = PubGen::new(1_500, 22).generate();
        let families = presets::citeseer_families();
        let forests = build_forests(&ds, &families);
        let sigs = compute_signatures(&ds, &families);
        let mut scratch = OlpScratch::default();
        for forest in &forests {
            for tree in &forest.trees {
                let stats = TreeStats::from_tree(tree, &sigs, &mut scratch);
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
        let (entities, families) = keyed(&[
            vec!["a".into(), "p".into()],
            vec!["a".into(), "q".into()],
            vec!["b".into(), "p".into()],
        ]);
        let sigs = Signatures::intern(&families, &entities);
        let mut scratch = OlpScratch::default();
        let sorted = |counts: &[u32]| {
            let mut counts = counts.to_vec();
            counts.sort_unstable();
            counts
        };
        // {a: 2, b: 1}
        assert_eq!(sorted(olp(&[0, 1, 2], &sigs, [0], &mut scratch)), [1, 2]);
        // {(a,p), (a,q), (b,p)}
        assert_eq!(
            sorted(olp(&[0, 1, 2], &sigs, [0, 1], &mut scratch)),
            [1, 1, 1]
        );
        // A sub-block sees only its own members' combinations.
        assert_eq!(sorted(olp(&[0, 2], &sigs, [1], &mut scratch)), [2]);
    }

    proptest! {
        #[test]
        fn prop_uncovered_matches_bruteforce(
            keys in proptest::collection::vec((0u8..4, 0u8..4, 0u8..4), 2..40),
            m in 0usize..4
        ) {
            let rows: Vec<Vec<String>> = keys
                .iter()
                .map(|(a, b, c)| vec![a.to_string(), b.to_string(), c.to_string()])
                .collect();
            let (entities, families) = keyed(&rows);
            let sigs = Signatures::intern(&families, &entities);
            // Every member set, not only whole datasets: the odd positions.
            let all: Vec<EntityId> = (0..rows.len() as EntityId).collect();
            let odd: Vec<EntityId> = all.iter().copied().filter(|i| i % 2 == 1).collect();
            let mut scratch = OlpScratch::default();
            for members in [&all, &odd] {
                prop_assert_eq!(
                    uncovered_pairs(members, &sigs, m, &mut scratch),
                    uncovered_bruteforce(members, &entities, &families, m)
                );
            }
        }

        #[test]
        fn prop_uncovered_bounded_by_total_pairs(
            keys in proptest::collection::vec((0u8..3, 0u8..3), 2..30),
        ) {
            let rows: Vec<Vec<String>> = keys
                .iter()
                .map(|(a, b)| vec![a.to_string(), b.to_string()])
                .collect();
            let (entities, families) = keyed(&rows);
            let sigs = Signatures::intern(&families, &entities);
            let members: Vec<EntityId> = (0..rows.len() as u32).collect();
            let u = uncovered(&members, &sigs, 1);
            prop_assert!(u <= pairs(members.len()));
        }
    }
}
