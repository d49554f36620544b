//! Duplicate and cost estimation — Eq. (2)–(5) of §IV-B.
//!
//! Estimates are computed per tree in a single bottom-up pass (children
//! before parents), exactly as the paper's computation algorithm prescribes,
//! and stored on the [`PlanNode`](crate::plan::PlanNode)s. Re-running the pass after a structural
//! change (a sub-tree split) reproduces the paper's split-update equations,
//! because those are just Eq. 2–5 re-evaluated on the new structure.

use pper_mapreduce::CostModel;
use pper_progressive::LevelPolicy;

use crate::plan::PlanTree;
use crate::probmodel::DupProbability;

/// Everything estimation needs besides the tree itself.
pub struct EstimationContext<'a> {
    /// `|D|`: total entities in the dataset.
    pub dataset_size: usize,
    /// Window/Frac/Th policy (§VI-A5).
    pub policy: &'a LevelPolicy,
    /// Cost calibration.
    pub cost_model: &'a CostModel,
    /// Duplicate-probability model `Prob(|X|)`.
    pub prob: &'a dyn DupProbability,
}

/// `Σ_{d=1..w} (n−d)`: pairs a windowed sorted-neighbourhood mechanism
/// resolves on a block of `n` entities with window `w`.
pub fn window_pairs(n: usize, window: usize) -> u64 {
    let n = n as u64;
    let w = (window as u64).min(n.saturating_sub(1));
    n * w - w * (w + 1) / 2
}

/// Recompute `Dup`, `Dis`, `Cost` and `Util` for every node of `tree`,
/// bottom-up.
///
/// * `d(X) = Prob(|X|) · Cov(X)` — §VI-A4 over covered pairs;
/// * `Dup(X) = Frac(X)·d(X) − Σ_child Frac(c)·d(c)` — Eq. (2);
/// * `Dis(X) = min(Th(X), Remain(X))`,
///   `Remain(X) = Cov(X) − d(X) − Σ_desc Dis(desc)` — Eq. (4);
/// * non-root: `Cost(X) = CostA(X) + CostP(X)` — Eq. (3), with
///   `CostP(X) = (Dup(X) + Dis(X)) · resolve_pair`;
/// * root: `Cost(X) = CostA(X) + CostF(X) − Σ_desc CostP(desc)` — Eq. (5),
///   where `CostF` is the full windowed resolution cost scaled by the
///   block's covered-pair ratio (uncovered pairs are skipped by the
///   SHOULD-RESOLVE check at negligible cost).
///
/// Whether a node is a *root* is judged on the current tree structure, so a
/// split sub-tree's root automatically gets `Frac = 1`, the root window and
/// full resolution, as §IV-C2's split strategy requires. Whether it is a
/// *leaf* is judged on the blocking hierarchy (`hier_leaf`): a parent whose
/// children were split away keeps mid-level parameters, since its sub-blocks
/// still exist and are resolved in another task.
pub fn recompute_tree(tree: &mut PlanTree, ctx: &EstimationContext) {
    let n_nodes = tree.nodes.len();
    let mut d = vec![0.0f64; n_nodes]; // d(X) per node
    let mut costp = vec![0.0f64; n_nodes]; // CostP(X) per node

    for idx in (0..n_nodes).rev() {
        let node = &tree.nodes[idx];
        let is_root = node.is_root();
        let is_leaf = node.hier_leaf;
        d[idx] = ctx.prob.estimate_dups(
            tree.family,
            node.level,
            node.size,
            ctx.dataset_size,
            node.cov,
        );
        let frac = ctx.policy.frac(is_root, is_leaf);

        // Eq. (2): own share of duplicates minus what children already found.
        let child_found: f64 = node
            .children
            .iter()
            .map(|&c| {
                let cn = &tree.nodes[c];
                ctx.policy.frac(false, cn.hier_leaf) * d[c]
            })
            .sum();
        let dup = (frac * d[idx] - child_found).max(0.0);

        let desc = tree.descendants(idx);
        let cost_a = ctx.cost_model.block_additional_cost(node.size);

        let (dis, cost);
        if is_root {
            // Eq. (5): full resolution minus work already done below.
            let total_pairs = pper_blocking::pairs(node.size);
            let cov_ratio = if total_pairs == 0 {
                0.0
            } else {
                node.cov as f64 / total_pairs as f64
            };
            let full = window_pairs(node.size, ctx.policy.window_root) as f64 * cov_ratio;
            let cost_f = ctx.cost_model.resolve_pair * full;
            let desc_costp: f64 = desc.iter().map(|&i| costp[i]).sum();
            dis = (full - dup).max(0.0);
            cost = (cost_a + cost_f - desc_costp).max(cost_a);
        } else {
            // Eq. (4) then Eq. (3).
            let desc_dis: f64 = desc.iter().map(|&i| tree.nodes[i].dis).sum();
            let remain = (node.cov as f64 - d[idx] - desc_dis).max(0.0);
            dis = (ctx.policy.termination(node.size) as f64).min(remain);
            costp[idx] = ctx.cost_model.resolve_pair * (dup + dis);
            cost = cost_a + costp[idx];
        }

        let node = &mut tree.nodes[idx];
        node.dup = dup;
        node.dis = dis;
        node.cost = cost;
        node.util = if cost > f64::EPSILON { dup / cost } else { 0.0 };
    }
}

/// Recompute estimates for every tree.
pub fn recompute_all(trees: &mut [PlanTree], ctx: &EstimationContext) {
    for tree in trees {
        recompute_tree(tree, ctx);
    }
}

/// Invariant checks shared by tests and debug assertions.
#[doc(hidden)]
pub fn check_estimates(tree: &PlanTree) -> Result<(), String> {
    for (i, n) in tree.nodes.iter().enumerate() {
        if !(n.dup >= 0.0 && n.dis >= 0.0 && n.cost >= 0.0 && n.util >= 0.0) {
            return Err(format!("node {i} has negative estimate: {n:?}"));
        }
        if n.cost == 0.0 && n.size >= 2 {
            return Err(format!("node {i} of size {} has zero cost", n.size));
        }
        if n.dup > n.cov as f64 + 1e-9 {
            return Err(format!(
                "node {i}: dup {} exceeds covered pairs {}",
                n.dup, n.cov
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanNode;
    use crate::probmodel::HeuristicProb;
    use pper_blocking::{build_forests, presets, DatasetStats};
    use pper_datagen::PubGen;

    fn ctx<'a>(
        n: usize,
        policy: &'a LevelPolicy,
        cm: &'a CostModel,
        prob: &'a HeuristicProb,
    ) -> EstimationContext<'a> {
        EstimationContext {
            dataset_size: n,
            policy,
            cost_model: cm,
            prob,
        }
    }

    fn leaf(key: &str, parent: Option<usize>, size: usize, cov: u64) -> PlanNode {
        PlanNode {
            key: key.into(),
            level: if parent.is_some() { 1 } else { 0 },
            parent,
            children: vec![],
            hier_leaf: true,
            size,
            cov,
            dup: 0.0,
            dis: 0.0,
            cost: 0.0,
            util: 0.0,
        }
    }

    #[test]
    fn window_pairs_matches_enumeration() {
        assert_eq!(window_pairs(4, 3), 6);
        assert_eq!(window_pairs(4, 1), 3);
        assert_eq!(window_pairs(4, 99), 6);
        assert_eq!(window_pairs(0, 5), 0);
        assert_eq!(window_pairs(1, 5), 0);
        // n=10, w=4: 9+8+7+6 = 30
        assert_eq!(window_pairs(10, 4), 30);
    }

    #[test]
    fn single_root_block_equations() {
        let policy = LevelPolicy::citeseer();
        let cm = CostModel::default();
        let prob = HeuristicProb {
            base: 0.2,
            scale: 0.0, // constant probability for hand-checkable numbers
        };
        let mut tree = PlanTree {
            family: 0,
            origin_root_key: "k".into(),
            root_level: 0,
            nodes: vec![leaf("k", None, 10, 45)], // all pairs covered
        };
        recompute_tree(&mut tree, &ctx(1000, &policy, &cm, &prob));
        let n = &tree.nodes[0];
        // d = 0.2 * 45 = 9; root frac = 1, no children ⇒ Dup = 9.
        assert!((n.dup - 9.0).abs() < 1e-9);
        // CostF = window_pairs(10, 15) * (45/45) = Pairs(10) = 45 units.
        let expected_cost = cm.block_additional_cost(10) + 45.0;
        assert!((n.cost - expected_cost).abs() < 1e-9, "{}", n.cost);
        assert!((n.util - n.dup / n.cost).abs() < 1e-12);
        check_estimates(&tree).unwrap();
    }

    #[test]
    fn parent_dup_subtracts_child_share() {
        let policy = LevelPolicy::citeseer();
        let cm = CostModel::default();
        let prob = HeuristicProb {
            base: 0.2,
            scale: 0.0,
        };
        let mut tree = PlanTree {
            family: 0,
            origin_root_key: "k".into(),
            root_level: 0,
            nodes: vec![
                PlanNode {
                    children: vec![1],
                    hier_leaf: false,
                    ..leaf("k", None, 10, 45)
                },
                leaf("kc", Some(0), 6, 15),
            ],
        };
        recompute_tree(&mut tree, &ctx(1000, &policy, &cm, &prob));
        // child: d = 3, leaf frac 0.8 ⇒ Dup_child = 2.4.
        assert!((tree.nodes[1].dup - 2.4).abs() < 1e-9);
        // child Dis = min(Th=6, Remain = 15 - 3 - 0 = 12) = 6.
        assert!((tree.nodes[1].dis - 6.0).abs() < 1e-9);
        // root: d = 9 ⇒ Dup_root = 1·9 − 0.8·3 = 6.6.
        assert!((tree.nodes[0].dup - 6.6).abs() < 1e-9);
        // root cost = CostA + CostF − CostP(child); CostP(child) = 2.4+6 = 8.4.
        let expected = cm.block_additional_cost(10) + 45.0 - 8.4;
        assert!((tree.nodes[0].cost - expected).abs() < 1e-9);
        check_estimates(&tree).unwrap();
    }

    #[test]
    fn deeper_children_reduce_remain() {
        let policy = LevelPolicy::citeseer();
        let cm = CostModel::default();
        let prob = HeuristicProb {
            base: 0.1,
            scale: 0.0,
        };
        let mut tree = PlanTree {
            family: 0,
            origin_root_key: "k".into(),
            root_level: 0,
            nodes: vec![
                PlanNode {
                    children: vec![1],
                    hier_leaf: false,
                    ..leaf("k", None, 40, 700)
                },
                PlanNode {
                    children: vec![2],
                    level: 1,
                    hier_leaf: false,
                    ..leaf("ka", Some(0), 30, 400)
                },
                PlanNode {
                    level: 2,
                    ..leaf("kab", Some(1), 20, 150)
                },
            ],
        };
        recompute_tree(&mut tree, &ctx(1000, &policy, &cm, &prob));
        // Mid node's Remain subtracts the leaf's Dis:
        // leaf: d=15, Dis = min(20, 150-15) = 20.
        assert!((tree.nodes[2].dis - 20.0).abs() < 1e-9);
        // mid: d=40, Remain = 400 - 40 - 20 = 340, Th=30 ⇒ Dis=30.
        assert!((tree.nodes[1].dis - 30.0).abs() < 1e-9);
        check_estimates(&tree).unwrap();
    }

    #[test]
    fn estimates_hold_invariants_on_real_forests() {
        let ds = PubGen::new(4_000, 31).generate();
        let families = presets::citeseer_families();
        let forests = build_forests(&ds, &families);
        let stats = DatasetStats::from_forests(&ds, &families, &forests);
        let policy = LevelPolicy::citeseer();
        let cm = CostModel::default();
        let prob = HeuristicProb::default();
        let c = ctx(ds.len(), &policy, &cm, &prob);
        for ts in &stats.trees {
            let mut tree = PlanTree::from_stats(ts);
            recompute_tree(&mut tree, &c);
            check_estimates(&tree).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn split_then_recompute_makes_new_root_full() {
        let policy = LevelPolicy::citeseer();
        let cm = CostModel::default();
        let prob = HeuristicProb {
            base: 0.2,
            scale: 0.0,
        };
        let c = ctx(1000, &policy, &cm, &prob);
        let mut tree = PlanTree {
            family: 0,
            origin_root_key: "k".into(),
            root_level: 0,
            nodes: vec![
                PlanNode {
                    children: vec![1],
                    hier_leaf: false,
                    ..leaf("k", None, 40, 700)
                },
                leaf("ka", Some(0), 25, 250),
            ],
        };
        recompute_tree(&mut tree, &c);
        let child_cost_before = tree.nodes[1].cost;

        let mut sub = tree.split_off(1);
        recompute_tree(&mut tree, &c);
        recompute_tree(&mut sub, &c);

        // The split root is now resolved fully: its cost grows (Eq. 5 > Eq. 3
        // for a block this size) and its Frac rises to 1 (higher Dup).
        assert!(
            sub.nodes[0].cost > child_cost_before,
            "full resolution should cost more: {} vs {child_cost_before}",
            sub.nodes[0].cost
        );
        // Old parent lost the child's covered pairs.
        assert_eq!(tree.nodes[0].cov, 450);
        check_estimates(&tree).unwrap();
        check_estimates(&sub).unwrap();
    }
}
