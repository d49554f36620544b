//! Mutable planning structures: trees whose per-block estimates can be
//! updated as the generator splits sub-trees, and the final [`Schedule`].

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use pper_blocking::{FamilyIndex, NodeStats, Placement, TreeStats};
use pper_mapreduce::fxhash::FxHasher;

/// One block inside a [`PlanTree`], carrying both structure and estimates.
#[derive(Debug, Clone)]
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
    /// Unlike an empty `children`, this is invariant under schedule-time tree
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
    /// Job 1's id of the block ([`pper_blocking::Place::node`]): it stays
    /// with the block when the block's sub-tree is split off.
    pub origin: u32,
}

impl PlanNode {
    /// Build from gathered statistics (estimates filled in later); `origin`
    /// is job 1's id of the block.
    pub fn from_stats(stats: &NodeStats, origin: u32) -> Self {
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
            origin,
        }
    }

    /// True if this node is the tree's root.
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }
}

/// A schedulable tree: possibly an original root tree, possibly a sub-tree
/// split off by the generator.
#[derive(Debug, Clone)]
pub struct PlanTree {
    /// Blocking family.
    pub family: FamilyIndex,
    /// Level of this tree's root block: 0 for an original tree, the split
    /// point's level for a sub-tree the generator split off.
    pub root_level: usize,
    /// Blocks in pre-order; index 0 is the root.
    pub nodes: Vec<PlanNode>,
    /// For a sub-tree the generator split off, job 1's id of the block its
    /// root was split from: the parent block, in whichever tree holds it.
    pub split_from: Option<u32>,
}

impl PlanTree {
    /// Build an (estimate-less) plan tree from job-1 statistics; job 1
    /// numbers the tree's nodes from `first_node`.
    pub fn from_stats(stats: &TreeStats, first_node: u32) -> Self {
        Self {
            family: stats.family,
            root_level: 0,
            nodes: (first_node..)
                .zip(&stats.nodes)
                .map(|(origin, node)| PlanNode::from_stats(node, origin))
                .collect(),
            split_from: None,
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
        #[expect(
            clippy::expect_used,
            reason = "split targets are chosen below the root by the caller; a rootless \
                      parent is a plan-construction bug worth stopping on"
        )]
        let parent_of_sub = self.nodes[sub_root].parent.expect("non-root has parent");

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
            root_level: self.nodes[sub_root].level,
            nodes: new_nodes,
            split_from: Some(self.nodes[parent_of_sub].origin),
        };

        // Remove the split indices from this tree (compact + remap).
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockRef {
    /// Index into `Schedule::trees`.
    pub tree: usize,
    /// Node index within that tree.
    pub node: usize,
}

/// The complete progressive schedule: the output of §IV, consumed by the
/// second MR job.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// All trees, including any split sub-trees (appended after originals).
    /// A tree's index here is its identity: the second job keys its shuffle
    /// by it and `Dom(T)` is derived from it.
    pub trees: Vec<PlanTree>,
    /// Reduce task assigned to each tree (`task_of_tree[t] < num_tasks()`):
    /// the second job routes every tree by it.
    pub task_of_tree: Vec<usize>,
    /// Per reduce task: blocks in resolution order (the *block schedule*).
    pub block_order: Vec<Vec<BlockRef>>,
    /// Job 1's side data: where each entity sits in each family's forest,
    /// which job 2 routes and orders by. It is a function of the dataset
    /// and the blocking families, like the statistics the rest of the
    /// schedule comes from, so [`Schedule::digest`] leaves it out.
    pub placement: Arc<Placement>,
}

impl Schedule {
    /// Number of reduce tasks `r`: one block schedule each.
    pub fn num_tasks(&self) -> usize {
        self.block_order.len()
    }

    /// Estimated total resolution cost across all trees.
    pub fn total_cost(&self) -> f64 {
        self.trees.iter().map(PlanTree::total_cost).sum()
    }

    /// An FxHash of every planning field, floats by their bits — not of
    /// job 1's ids and side data, which the statistics the plan was made
    /// from determine. A durable run
    /// journals it in place of the schedule: a resume regenerates the
    /// schedule from job 1's statistics and refuses to go on unless the
    /// digests agree.
    pub fn digest(&self) -> u64 {
        let mut h = FxHasher::default();
        self.trees.len().hash(&mut h);
        for tree in &self.trees {
            (tree.family, tree.root_level).hash(&mut h);
            tree.nodes.len().hash(&mut h);
            for n in &tree.nodes {
                (&n.key, n.level, n.parent, &n.children, n.hier_leaf).hash(&mut h);
                let floats = [n.dup, n.dis, n.cost, n.util].map(f64::to_bits);
                (n.size, n.cov, floats).hash(&mut h);
            }
        }
        (&self.task_of_tree, &self.block_order).hash(&mut h);
        h.finish()
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
    /// whose nodes job 1 numbered 10–13.
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
            origin: 0,
        };
        let mut nodes = vec![
            mk("ro", 0, None, vec![1, 2], 30, 400),
            mk("roa", 1, Some(0), vec![3], 20, 150),
            mk("rob", 1, Some(0), vec![], 8, 25),
            mk("roac", 2, Some(1), vec![], 10, 40),
        ];
        for (origin, node) in (10..).zip(&mut nodes) {
            node.origin = origin;
        }
        PlanTree {
            family: 0,
            root_level: 0,
            split_from: None,
            nodes,
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
        // Each block keeps job 1's id, and the sub-tree records where it
        // hung: under the root, job 1's block 10.
        assert_eq!(
            sub.nodes.iter().map(|n| n.origin).collect::<Vec<_>>(),
            [11, 13]
        );
        assert_eq!(sub.split_from, Some(10));

        // Old tree: root + "rob", root's cov reduced by roa's 150.
        assert_eq!(t.nodes.len(), 2);
        assert_eq!(t.nodes[0].cov, 250);
        assert_eq!(t.nodes[0].children, vec![1]);
        assert_eq!(t.nodes[1].key, "rob");
        assert_eq!(t.nodes[1].parent, Some(0));
        assert_eq!(
            t.nodes.iter().map(|n| n.origin).collect::<Vec<_>>(),
            [10, 12]
        );
        assert_eq!(t.split_from, None);
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
    fn digest_tells_edited_schedules_apart() {
        let schedule = Schedule {
            trees: vec![sample_tree()],
            task_of_tree: vec![0],
            block_order: vec![vec![BlockRef { tree: 0, node: 1 }], vec![]],
            placement: Arc::default(),
        };
        assert_eq!(schedule.digest(), schedule.clone().digest());
        type Edit = fn(&mut Schedule);
        let edits: [Edit; 6] = [
            |s| s.trees[0].nodes[2].util = f64::from_bits(s.trees[0].nodes[2].util.to_bits() ^ 1),
            |s| s.trees[0].nodes[3].key.push('x'),
            |s| s.trees[0].root_level = 1,
            |s| s.block_order[0][0].node = 2,
            |s| s.block_order.swap(0, 1),
            |s| s.task_of_tree[0] = 1,
        ];
        for (i, edit) in edits.into_iter().enumerate() {
            let mut edited = schedule.clone();
            edit(&mut edited);
            assert_ne!(edited.digest(), schedule.digest(), "edit {i}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot split the root")]
    fn split_root_rejected() {
        sample_tree().split_off(0);
    }
}
