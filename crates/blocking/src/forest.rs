//! Materialized block trees and forests (§III-A).
//!
//! Applying a main blocking function to the dataset yields root blocks; each
//! sub-blocking function splits every block of the previous level into child
//! blocks. The result is one tree per root block — the *forest* of that
//! blocking function.
//!
//! Two cleanups from the paper's block-elimination technique (referenced in
//! §IV-B) are applied during construction:
//!
//! * blocks with fewer than two members contain no pairs and are never
//!   created (their members remain covered by the parent);
//! * a child block with exactly the same members as its parent is merged
//!   into it — the split is retried at the next deeper level, so degenerate
//!   levels never produce duplicate work.

use std::collections::{BTreeMap, HashMap};

use pper_datagen::{Dataset, Entity, EntityId};
use serde::{Deserialize, Serialize};

use crate::function::BlockingFamily;
use crate::FamilyIndex;

/// Anything that can resolve an [`EntityId`] to its [`Entity`].
///
/// The driver holds the whole dataset; a reduce task holds just the
/// entities it received and names each by its position among them.
pub trait EntityLookup {
    /// The entity with the given id. Panics if absent (absence is a pipeline
    /// logic error, not a data error).
    fn entity(&self, id: EntityId) -> &Entity;
}

impl EntityLookup for Dataset {
    fn entity(&self, id: EntityId) -> &Entity {
        Dataset::entity(self, id)
    }
}

/// Positional form: the members of one root block as a reduce task
/// received them, each addressed by its index in the vector.
impl EntityLookup for Vec<&Entity> {
    fn entity(&self, local: EntityId) -> &Entity {
        self[local as usize]
    }
}

/// One block in a tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Blocking key of this block (at its level's function).
    pub key: String,
    /// Level within the family: 0 = root (main function).
    pub level: usize,
    /// Member entity ids, sorted ascending.
    pub members: Vec<EntityId>,
    /// Index of the parent block within the tree (`None` for the root).
    pub parent: Option<usize>,
    /// Indices of child blocks within the tree.
    pub children: Vec<usize>,
}

impl Block {
    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// True for leaf blocks.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// True for the root block.
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }
}

/// A tree of blocks rooted at one main-function block. Blocks are stored in
/// pre-order (`blocks[0]` is the root, parents before descendants), so
/// iterating indices in reverse visits children before parents — the
/// bottom-up resolution order of §III-A.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tree {
    /// Which blocking family this tree belongs to.
    pub family: FamilyIndex,
    /// Blocks in pre-order; index 0 is the root.
    pub blocks: Vec<Block>,
}

impl Tree {
    /// Build the tree for root block `root_key` over `members`, splitting
    /// with `family`'s sub-blocking functions.
    ///
    /// `members` may arrive in any order; they are sorted for determinism.
    pub fn build(
        family_index: FamilyIndex,
        family: &BlockingFamily,
        root_key: String,
        mut members: Vec<EntityId>,
        lookup: &impl EntityLookup,
    ) -> Self {
        members.sort_unstable();
        members.dedup();
        let blocks = vec![Block {
            key: root_key,
            level: 0,
            members,
            parent: None,
            children: Vec::new(),
        }];
        let mut tree = Self {
            family: family_index,
            blocks,
        };
        tree.split_block(0, 1, family, lookup, &mut String::new());
        // `split_block` appends children depth-first, so the vector is
        // already in pre-order; verify in debug builds.
        debug_assert!(tree
            .blocks
            .iter()
            .enumerate()
            .all(|(i, b)| b.parent.map_or(i == 0, |p| p < i)));
        tree
    }

    /// Recursively split block `idx` starting at split `level`, skipping
    /// degenerate levels whose single child would equal the parent. Every
    /// member's key is extracted into `key`, one buffer for the whole tree;
    /// only a new child block gets a `String` of its own.
    fn split_block(
        &mut self,
        idx: usize,
        mut level: usize,
        family: &BlockingFamily,
        lookup: &impl EntityLookup,
        key: &mut String,
    ) {
        while level < family.depth() {
            // Children in ascending key order, the order they are stored in.
            let mut groups: BTreeMap<String, Vec<EntityId>> = BTreeMap::new();
            for &id in &self.blocks[idx].members {
                key.clear();
                family.levels[level].key_into(lookup.entity(id), key);
                match groups.get_mut(key.as_str()) {
                    Some(members) => members.push(id),
                    None => {
                        groups.insert(key.clone(), vec![id]);
                    }
                }
            }
            if groups.len() == 1 {
                // Single child identical to the parent: merge (skip level).
                level += 1;
                continue;
            }
            for (child_key, members) in groups {
                if members.len() < 2 {
                    continue; // no pairs: eliminated
                }
                let child_idx = self.blocks.len();
                self.blocks.push(Block {
                    key: child_key,
                    level,
                    members,
                    parent: Some(idx),
                    children: Vec::new(),
                });
                self.blocks[idx].children.push(child_idx);
                self.split_block(child_idx, level + 1, family, lookup, key);
            }
            return;
        }
    }

    /// The root block.
    pub fn root(&self) -> &Block {
        &self.blocks[0]
    }

    /// Number of blocks in the tree.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// A tree always contains at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Block indices in bottom-up order (every child before its parent).
    pub fn bottom_up(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.blocks.len()).rev()
    }

    /// Indices of the descendant blocks of `idx` (children, grandchildren, …).
    pub fn descendants(&self, idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack: Vec<usize> = self.blocks[idx].children.clone();
        while let Some(i) = stack.pop() {
            out.push(i);
            stack.extend_from_slice(&self.blocks[i].children);
        }
        out
    }
}

/// The forest of one main blocking function: all its trees, sorted by root
/// key.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Forest {
    /// Which blocking family this forest belongs to.
    pub family: FamilyIndex,
    /// Trees sorted by root key.
    pub trees: Vec<Tree>,
}

impl Forest {
    /// Total number of blocks across all trees.
    pub fn num_blocks(&self) -> usize {
        self.trees.iter().map(Tree::len).sum()
    }
}

/// Build every family's forest over the whole dataset.
///
/// Root blocks with fewer than two members are dropped (no pairs). This is
/// the library-local equivalent of what the two MR jobs compute in a
/// distributed fashion; the pipeline uses it for tests, examples, and the
/// schedule generator's input statistics.
pub fn build_forests(ds: &Dataset, families: &[BlockingFamily]) -> Vec<Forest> {
    families
        .iter()
        .enumerate()
        .map(|(fi, family)| {
            let mut by_key: HashMap<String, Vec<EntityId>> = HashMap::new();
            for e in &ds.entities {
                by_key.entry(family.root_key(e)).or_default().push(e.id);
            }
            #[expect(clippy::disallowed_methods, reason = "the keys are sorted below")]
            let mut keys: Vec<String> = by_key
                .iter()
                .filter(|(_, v)| v.len() >= 2)
                .map(|(k, _)| k.clone())
                .collect();
            keys.sort();
            let trees = keys
                .into_iter()
                .filter_map(|key| {
                    // The key came out of `by_key` just above, so the miss
                    // arm (skip) is unreachable rather than a panic.
                    let members = by_key.remove(&key)?;
                    Some(Tree::build(fi, family, key, members, ds))
                })
                .collect();
            Forest { family: fi, trees }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use pper_datagen::{toy_people, PubGen};

    #[test]
    fn toy_forest_matches_table_one() {
        let ds = toy_people();
        let forests = build_forests(&ds, &presets::toy_families());
        // X¹ partitions into 5 blocks: jo{e1,e2,e3,e9}, ch{e4,e7}, gh{e5},
        // ma{e6}, wi{e8} — singletons dropped, so 2 trees survive.
        let x = &forests[0];
        assert_eq!(x.trees.len(), 2);
        let jo = x.trees.iter().find(|t| t.root().key == "jo").unwrap();
        assert_eq!(jo.root().members, vec![0, 1, 2, 8]);
        let ch = x.trees.iter().find(|t| t.root().key == "ch").unwrap();
        assert_eq!(ch.root().members, vec![3, 6]);

        // Y¹ (state): az{e3,e6,e7,e8}, hi{e1,e2}, la{e4,e5,e9}.
        let y = &forests[1];
        assert_eq!(y.trees.len(), 3);
        let la = y.trees.iter().find(|t| t.root().key == "la").unwrap();
        assert_eq!(la.root().members, vec![3, 4, 8]);
    }

    #[test]
    fn jo_tree_splits_at_level_one() {
        let ds = toy_people();
        let forests = build_forests(&ds, &presets::toy_families());
        let jo = forests[0]
            .trees
            .iter()
            .find(|t| t.root().key == "jo")
            .unwrap();
        // 3-char prefix splits {john×3, joey}: "joh"{0,1,2} + singleton "joe"
        // (dropped). "joh" then has a single identical child at 5 chars
        // ("john ") which merges away, so the tree is root + one child.
        assert_eq!(jo.len(), 2);
        let child = &jo.blocks[1];
        assert_eq!(child.key, "joh");
        assert_eq!(child.members, vec![0, 1, 2]);
        assert_eq!(child.parent, Some(0));
        assert!(child.is_leaf());
    }

    #[test]
    fn preorder_and_bottom_up_are_consistent() {
        let ds = PubGen::new(2_000, 11).generate();
        let forests = build_forests(&ds, &presets::citeseer_families());
        for forest in &forests {
            for tree in &forest.trees {
                // Pre-order: parents precede children.
                for (i, b) in tree.blocks.iter().enumerate() {
                    if let Some(p) = b.parent {
                        assert!(p < i);
                        assert!(tree.blocks[p].children.contains(&i));
                        assert!(tree.blocks[p].level < b.level);
                    }
                }
                // Bottom-up: every child index visited before its parent.
                let order: Vec<usize> = tree.bottom_up().collect();
                let pos = |idx: usize| order.iter().position(|&i| i == idx).unwrap();
                for (i, b) in tree.blocks.iter().enumerate() {
                    if let Some(p) = b.parent {
                        assert!(pos(i) < pos(p));
                    }
                }
            }
        }
    }

    #[test]
    fn children_partition_within_parent() {
        let ds = PubGen::new(3_000, 12).generate();
        let forests = build_forests(&ds, &presets::citeseer_families());
        for tree in &forests[0].trees {
            for b in &tree.blocks {
                let child_total: usize = b.children.iter().map(|&c| tree.blocks[c].size()).sum();
                assert!(child_total <= b.size());
                // Children are disjoint and all members belong to the parent.
                let mut seen = std::collections::HashSet::new();
                for &c in &b.children {
                    for &m in &tree.blocks[c].members {
                        assert!(seen.insert(m), "child blocks must be disjoint");
                        assert!(b.members.binary_search(&m).is_ok());
                    }
                }
            }
        }
    }

    #[test]
    fn no_singleton_or_identical_child_blocks() {
        let ds = PubGen::new(3_000, 13).generate();
        for forest in build_forests(&ds, &presets::citeseer_families()) {
            for tree in &forest.trees {
                for b in &tree.blocks {
                    assert!(b.size() >= 2, "all blocks have pairs");
                    if let Some(p) = b.parent {
                        assert!(
                            b.size() < tree.blocks[p].size() || tree.blocks[p].children.len() > 1,
                            "child identical to parent should have merged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_duplicate_pair_shares_some_root_block() {
        // The generators + presets must preserve the blocking assumption:
        // (nearly) every duplicate pair co-occurs in at least one root block.
        let ds = PubGen::new(4_000, 14).generate();
        let forests = build_forests(&ds, &presets::citeseer_families());
        let mut total = 0u64;
        let mut covered = 0u64;
        let mut cluster_members: HashMap<u32, Vec<EntityId>> = HashMap::new();
        for e in &ds.entities {
            cluster_members
                .entry(ds.truth.cluster(e.id))
                .or_default()
                .push(e.id);
        }
        for ids in cluster_members.values().filter(|v| v.len() >= 2) {
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    total += 1;
                    let together = forests.iter().enumerate().any(|(fi, _)| {
                        let fam = &presets::citeseer_families()[fi];
                        fam.root_key(ds.entity(a)) == fam.root_key(ds.entity(b))
                    });
                    if together {
                        covered += 1;
                    }
                }
            }
        }
        assert!(total > 300);
        let coverage = covered as f64 / total as f64;
        assert!(
            coverage > 0.95,
            "blocking should cover nearly all duplicate pairs, got {coverage:.3}"
        );
    }

    #[test]
    fn descendants_transitive() {
        let ds = PubGen::new(2_000, 15).generate();
        let forests = build_forests(&ds, &presets::citeseer_families());
        let tree = forests[0].trees.iter().max_by_key(|t| t.len()).unwrap();
        let desc = tree.descendants(0);
        assert_eq!(
            desc.len(),
            tree.len() - 1,
            "root's descendants = all others"
        );
    }
}
