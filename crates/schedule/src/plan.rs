//! Mutable planning structures: trees whose per-block estimates can be
//! updated as the generator splits sub-trees, and the final [`Schedule`].

use pper_blocking::{FamilyIndex, NodeStats, TreeStats};
use serde::{Deserialize, Serialize};

/// One block inside a [`PlanTree`], carrying both structure and estimates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanNode {
    /// Blocking key.
    pub key: String,
    /// Original level in the blocking hierarchy (0 = root of the original
    /// tree; a split sub-tree's root keeps its original level).
    pub level: usize,
    /// Parent index within this tree (`None` for the tree's root).
    pub parent: Option<usize>,
    /// Child indices within this tree.
    pub children: Vec<usize>,
    /// True if the block has no sub-blocks in the *blocking hierarchy*.
    /// Unlike `is_leaf()`, this is invariant under schedule-time tree
    /// splitting: a parent whose children are split off keeps
    /// `hier_leaf == false`, because its sub-blocks still exist — they are
    /// just resolved in another task.
    pub hier_leaf: bool,
    /// Block cardinality `|X|`.
    pub size: usize,
    /// Covered pairs `Cov(X)` (§IV-A); decreases when a descendant sub-tree
    /// is split off.
    pub cov: u64,
    /// Estimated duplicates found when this block is resolved — `Dup(X)`,
    /// Eq. (2).
    pub dup: f64,
    /// Estimated distinct pairs resolved before termination — `Dis(X)`.
    pub dis: f64,
    /// Estimated resolution cost — `Cost(X)`, Eq. (3)/(5).
    pub cost: f64,
    /// `Util(X) = Dup(X) / Cost(X)`.
    pub util: f64,
}

impl PlanNode {
    /// Build from gathered statistics (estimates filled in later).
    pub fn from_stats(stats: &NodeStats) -> Self {
        Self {
            key: stats.key.clone(),
            level: stats.level,
            parent: stats.parent,
            children: stats.children.clone(),
            hier_leaf: stats.children.is_empty(),
            size: stats.size,
            cov: stats.covered_pairs(),
            dup: 0.0,
            dis: 0.0,
            cost: 0.0,
            util: 0.0,
        }
    }

    /// True if this node is the tree's root.
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// True if this node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// A schedulable tree: possibly an original root tree, possibly a sub-tree
/// split off by the generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanTree {
    /// Blocking family.
    pub family: FamilyIndex,
    /// Root key of the *original* tree this (sub-)tree came from — used by
    /// the map phase to locate trees from entity keys.
    pub origin_root_key: String,
    /// `(level, key)` of this tree's root block. Equals
    /// `(0, origin_root_key)` for unsplit trees.
    pub root_level: usize,
    /// Blocks in pre-order; index 0 is the root.
    pub nodes: Vec<PlanNode>,
}

impl PlanTree {
    /// Build an (estimate-less) plan tree from job-1 statistics.
    pub fn from_stats(stats: &TreeStats) -> Self {
        Self {
            family: stats.family,
            origin_root_key: stats.root_key.clone(),
            root_level: 0,
            nodes: stats.nodes.iter().map(PlanNode::from_stats).collect(),
        }
    }

    /// The root node's key.
    pub fn root_key(&self) -> &str {
        &self.nodes[0].key
    }

    /// Total estimated cost of all blocks.
    pub fn total_cost(&self) -> f64 {
        self.nodes.iter().map(|n| n.cost).sum()
    }

    /// Indices of all descendants of `idx` within this tree.
    pub fn descendants(&self, idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = self.nodes[idx].children.clone();
        while let Some(i) = stack.pop() {
            out.push(i);
            stack.extend_from_slice(&self.nodes[i].children);
        }
        out
    }

    /// Detach the sub-tree rooted at child node `sub_root` (which must not
    /// be the tree's root), returning it as a new [`PlanTree`].
    ///
    /// Structure only: the caller re-runs estimation on both trees (the
    /// paper's split-update equations of §IV-C2 are equivalent to
    /// re-evaluating Eq. 2–5 on the new structures). `Cov` of every ancestor
    /// of the split point is reduced by the sub-tree root's `Cov`, since
    /// those pairs are now resolved (fully) inside the split tree.
    ///
    /// # Panics
    /// Panics if `sub_root` is 0 (cannot split the root off itself).
    pub fn split_off(&mut self, sub_root: usize) -> PlanTree {
        assert!(sub_root != 0, "cannot split the root");
        let sub_indices = {
            let mut v = vec![sub_root];
            v.extend(self.descendants(sub_root));
            v.sort_unstable();
            v
        };
        let sub_cov = self.nodes[sub_root].cov;

        // Reduce Cov along the ancestor chain.
        let mut p = self.nodes[sub_root].parent;
        while let Some(idx) = p {
            self.nodes[idx].cov = self.nodes[idx].cov.saturating_sub(sub_cov);
            p = self.nodes[idx].parent;
        }

        // Build the new tree with re-mapped indices.
        let remap: std::collections::HashMap<usize, usize> = sub_indices
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        let new_nodes: Vec<PlanNode> = sub_indices
            .iter()
            .map(|&old| {
                let n = &self.nodes[old];
                PlanNode {
                    parent: if old == sub_root {
                        None
                    } else {
                        n.parent.map(|p| remap[&p])
                    },
                    children: n.children.iter().map(|c| remap[c]).collect(),
                    ..n.clone()
                }
            })
            .collect();
        let new_tree = PlanTree {
            family: self.family,
            origin_root_key: self.origin_root_key.clone(),
            root_level: self.nodes[sub_root].level,
            nodes: new_nodes,
        };

        // Remove the split indices from this tree (compact + remap).
        // lint:allow(panic_path) split targets are chosen below the root by the caller; a rootless parent is a plan-construction bug worth stopping on
        let parent_of_sub = self.nodes[sub_root].parent.expect("non-root has parent");
        self.nodes[parent_of_sub]
            .children
            .retain(|&c| c != sub_root);
        let mut keep: Vec<usize> = (0..self.nodes.len())
            .filter(|i| sub_indices.binary_search(i).is_err())
            .collect();
        keep.sort_unstable();
        let keep_remap: std::collections::HashMap<usize, usize> = keep
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        self.nodes = keep
            .iter()
            .map(|&old| {
                let n = &self.nodes[old];
                PlanNode {
                    parent: n.parent.map(|p| keep_remap[&p]),
                    children: n.children.iter().map(|c| keep_remap[c]).collect(),
                    ..n.clone()
                }
            })
            .collect();

        new_tree
    }
}

/// Reference to one block within a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockRef {
    /// Index into `Schedule::trees`.
    pub tree: usize,
    /// Node index within that tree.
    pub node: usize,
}

/// The complete progressive schedule: the output of §IV, consumed by the
/// second MR job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Schedule {
    /// All trees, including any split sub-trees (appended after originals).
    pub trees: Vec<PlanTree>,
    /// Reduce task assigned to each tree (`task_of_tree[t] < num_tasks`).
    pub task_of_tree: Vec<usize>,
    /// Per reduce task: blocks in resolution order (the *block schedule*).
    pub block_order: Vec<Vec<BlockRef>>,
    /// Sequence value `SQ` per tree, within the owning task's range:
    /// routing key for the map/partition functions (§III-B).
    pub tree_sq: Vec<u64>,
    /// Dominance value `Dom(T)` per tree (§V).
    pub dom: Vec<u64>,
    /// Number of reduce tasks `r`.
    pub num_tasks: usize,
}

impl Schedule {
    /// Exclusive upper bounds of each task's SQ range (for the range
    /// partitioner): task `t` owns `[t·W, (t+1)·W)`.
    pub fn sq_bounds(&self) -> Vec<u64> {
        (1..=self.num_tasks as u64)
            .map(|t| t * Self::SQ_RANGE)
            .collect()
    }

    /// Width of each task's sequence range.
    pub const SQ_RANGE: u64 = 1 << 32;

    /// Estimated total resolution cost across all trees.
    pub fn total_cost(&self) -> f64 {
        self.trees.iter().map(PlanTree::total_cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built tree:       root(0) size 30 cov 400
    ///                         /            \
    ///                   a(1) size 20     b(2) size 8
    ///                   /
    ///             c(3) size 10
    fn sample_tree() -> PlanTree {
        let mk = |key: &str, level, parent, children: Vec<usize>, size, cov| PlanNode {
            key: key.into(),
            level,
            parent,
            hier_leaf: children.is_empty(),
            children,
            size,
            cov,
            dup: 0.0,
            dis: 0.0,
            cost: 0.0,
            util: 0.0,
        };
        PlanTree {
            family: 0,
            origin_root_key: "ro".into(),
            root_level: 0,
            nodes: vec![
                mk("ro", 0, None, vec![1, 2], 30, 400),
                mk("roa", 1, Some(0), vec![3], 20, 150),
                mk("rob", 1, Some(0), vec![], 8, 25),
                mk("roac", 2, Some(1), vec![], 10, 40),
            ],
        }
    }

    #[test]
    fn descendants_of_root_cover_tree() {
        let t = sample_tree();
        let mut d = t.descendants(0);
        d.sort_unstable();
        assert_eq!(d, vec![1, 2, 3]);
        assert_eq!(t.descendants(2), Vec::<usize>::new());
    }

    #[test]
    fn split_off_detaches_subtree_and_updates_cov() {
        let mut t = sample_tree();
        let sub = t.split_off(1); // split the "roa" sub-tree (nodes 1 and 3)

        // New tree: roa root with roac child, levels preserved.
        assert_eq!(sub.nodes.len(), 2);
        assert_eq!(sub.root_key(), "roa");
        assert_eq!(sub.root_level, 1);
        assert!(sub.nodes[0].is_root());
        assert_eq!(sub.nodes[0].children, vec![1]);
        assert_eq!(sub.nodes[1].parent, Some(0));
        assert_eq!(sub.nodes[1].key, "roac");
        assert_eq!(sub.origin_root_key, "ro");

        // Old tree: root + "rob", root's cov reduced by roa's 150.
        assert_eq!(t.nodes.len(), 2);
        assert_eq!(t.nodes[0].cov, 250);
        assert_eq!(t.nodes[0].children, vec![1]);
        assert_eq!(t.nodes[1].key, "rob");
        assert_eq!(t.nodes[1].parent, Some(0));
    }

    #[test]
    fn split_off_leaf_subtree() {
        let mut t = sample_tree();
        let sub = t.split_off(3); // deepest leaf
        assert_eq!(sub.nodes.len(), 1);
        assert_eq!(sub.root_key(), "roac");
        // Ancestors "roa" and root both lose roac's 40 cov.
        assert_eq!(t.nodes[0].cov, 360);
        assert_eq!(t.nodes[1].cov, 110);
        assert!(t.nodes[1].children.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot split the root")]
    fn split_root_rejected() {
        sample_tree().split_off(0);
    }

    #[test]
    fn sq_bounds_partition_tasks() {
        let s = Schedule {
            trees: vec![],
            task_of_tree: vec![],
            block_order: vec![vec![], vec![], vec![]],
            tree_sq: vec![],
            dom: vec![],
            num_tasks: 3,
        };
        let b = s.sq_bounds();
        assert_eq!(b.len(), 3);
        assert_eq!(b[0], Schedule::SQ_RANGE);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }
}
