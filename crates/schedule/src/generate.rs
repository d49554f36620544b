//! `GENERATE-SCHEDULE` (Fig. 6) and the baseline schedulers.
//!
//! The optimal schedule (§IV-C1) sorts blocks by utility into the list `SL`,
//! cuts `SL` into buckets by a cost vector `C` (bucket `k` holds the blocks
//! resolvable during `(c_{k−1}·r, c_k·r]` cluster-cost units), and balances
//! each bucket's cost across the `r` reduce tasks. That partitioning is
//! NP-hard, and large trees can make bucket balance outright infeasible, so
//! the approximate solution:
//!
//! 1. **Identify-Trees** — mark a tree overflowed if any bucket of its cost
//!    vector `VC(T)` exceeds that bucket's width;
//! 2. **Split-Tree** — greedily split sub-trees off overflowed trees
//!    (`SHOULD-SPLIT` keeps the highest-utility children with the root and
//!    splits the rest once the kept set would overflow a bucket);
//! 3. **Partition-Trees** — assign trees to reduce tasks in descending
//!    weighted-cost order, each to the task with the largest slack `SK(R)`;
//! 4. **Sort-Blocks** — order each task's blocks by descending utility,
//!    subject to the child-before-parent constraint of incremental
//!    bottom-up resolution (children are hoisted ahead of their parent).
//!
//! [`TreeScheduler::NoSplit`] skips step 2 and [`TreeScheduler::Lpt`]
//! replaces steps 1–3 with longest-processing-time load balancing — the two
//! baselines of §VI-B2.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use pper_blocking::{DatasetStats, Placement};
use pper_mapreduce::cost::block_additional_cost;

use crate::estimate::{recompute_all, recompute_tree, root_cost, EstimationContext};
use crate::plan::{BlockRef, PlanTree, Schedule};

/// The weighting function `W(·)` over the cost vector (§II-B): non-increasing
/// weights emphasizing early cost intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Weighting {
    /// All intervals weigh the same (final recall is all that matters).
    Uniform,
    /// `W(c_k) = (|C| − k + 1) / |C|`: linearly decaying emphasis.
    Linear,
    /// `W(c_k) = decay^(k−1)`: sharply front-loaded emphasis.
    Exponential {
        /// Per-bucket decay in `(0, 1]`.
        decay: f64,
    },
}

impl Weighting {
    /// Weight of 1-based bucket `k` out of `num_buckets`.
    pub fn weight(&self, k: usize, num_buckets: usize) -> f64 {
        debug_assert!(k >= 1 && k <= num_buckets);
        match self {
            Weighting::Uniform => 1.0,
            Weighting::Linear => (num_buckets - k + 1) as f64 / num_buckets as f64,
            Weighting::Exponential { decay } => decay.powi(k as i32 - 1),
        }
    }
}

/// Which tree-scheduling algorithm to run (§VI-B2's comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeScheduler {
    /// The paper's algorithm: identify + split + slack partitioning.
    Progressive,
    /// The paper's algorithm without tree splitting.
    NoSplit,
    /// Longest Processing Time load balancing (Graham): sort trees by cost,
    /// assign each to the least-loaded task.
    Lpt,
}

/// Schedule-generation parameters; the reduce-task count `r` is the
/// cluster's, an argument of [`generate_schedule`].
#[derive(Debug, Clone)]
pub struct ScheduleConfig {
    /// Number of cost-vector buckets `|C|`; [`generate_schedule`] treats 0
    /// as 1.
    pub num_buckets: usize,
    /// Weighting function `W(·)`.
    pub weighting: Weighting,
    /// Trees split per identify/split iteration (the batch size `b`).
    pub split_batch: usize,
    /// Which scheduler to run.
    pub scheduler: TreeScheduler,
}

impl Default for ScheduleConfig {
    /// Paper-flavoured defaults.
    fn default() -> Self {
        Self {
            num_buckets: 10,
            weighting: Weighting::Linear,
            split_batch: 4,
            scheduler: TreeScheduler::Progressive,
        }
    }
}

/// Bucketed view of the current utility-sorted block list `SL`.
struct Buckets {
    /// Number of buckets `|C|`.
    count: usize,
    /// Width `c_k − c_{k−1}` of every bucket (per-task cost units).
    width: f64,
    /// 0-based bucket of every block.
    of_block: HashMap<(usize, usize), usize>,
}

impl Buckets {
    /// Build `SL`, the cost vector `C` (uniform buckets over each task's
    /// share `total / r` of the whole run), and each block's bucket.
    fn build(trees: &[PlanTree], r: usize, num_buckets: usize) -> Self {
        let mut sl: Vec<(usize, usize, f64, f64)> = Vec::new(); // (tree, node, util, cost)
        let mut total = 0.0;
        for (ti, tree) in trees.iter().enumerate() {
            for (ni, node) in tree.nodes.iter().enumerate() {
                sl.push((ti, ni, node.util, node.cost));
                total += node.cost;
            }
        }
        sl.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));

        let share = (total / r as f64).max(f64::MIN_POSITIVE);
        let width = share / num_buckets as f64;

        let mut of_block = HashMap::with_capacity(sl.len());
        let mut cum = 0.0;
        for (ti, ni, _, cost) in sl {
            cum += cost;
            // Block is in bucket k if cumulative SL cost ≤ c_k · r.
            let k = ((cum / (width * r as f64)).ceil() as usize)
                .saturating_sub(1)
                .min(num_buckets - 1);
            of_block.insert((ti, ni), k);
        }
        Self {
            count: num_buckets,
            width,
            of_block,
        }
    }

    /// Cost vector `VC(T)` of the sub-tree rooted at `node` in `tree`.
    fn subtree_vc(&self, trees: &[PlanTree], tree: usize, node: usize) -> Vec<f64> {
        let mut vc = vec![0.0; self.count];
        let t = &trees[tree];
        let mut stack = vec![node];
        while let Some(i) = stack.pop() {
            let k = self.of_block[&(tree, i)];
            vc[k] += t.nodes[i].cost;
            stack.extend_from_slice(&t.nodes[i].children);
        }
        vc
    }

    /// Full-tree cost vector.
    fn tree_vc(&self, trees: &[PlanTree], tree: usize) -> Vec<f64> {
        self.subtree_vc(trees, tree, 0)
    }
}

/// Generate a progressive schedule for `reduce_tasks` reduce tasks from
/// job-1 statistics.
///
/// `ctx` supplies the estimation models; `cfg` the scheduling knobs. Zero
/// reduce tasks or zero buckets count as one.
pub fn generate_schedule(
    stats: &DatasetStats,
    ctx: &EstimationContext,
    cfg: &ScheduleConfig,
    reduce_tasks: usize,
) -> Schedule {
    let reduce_tasks = reduce_tasks.max(1);
    let cfg = &ScheduleConfig {
        num_buckets: cfg.num_buckets.max(1),
        ..cfg.clone()
    };
    // Job 1 numbers the nodes of its trees in order.
    let mut first_node = 0;
    let mut trees: Vec<PlanTree> = stats
        .trees
        .iter()
        .map(|tree| {
            let plan = PlanTree::from_stats(tree, first_node);
            first_node += tree.nodes.len() as u32;
            plan
        })
        .collect();
    recompute_all(&mut trees, ctx);

    let assignment = match cfg.scheduler {
        TreeScheduler::Progressive => {
            split_overflowed_trees(&mut trees, ctx, cfg, reduce_tasks);
            partition_trees(&trees, cfg, reduce_tasks)
        }
        TreeScheduler::NoSplit => partition_trees(&trees, cfg, reduce_tasks),
        TreeScheduler::Lpt => partition_lpt(&trees, reduce_tasks),
    };
    finalize(
        trees,
        assignment,
        reduce_tasks,
        Arc::clone(&stats.placement),
    )
}

/// Safety cap on identify/split iterations.
const MAX_SPLIT_ROUNDS: usize = 64;

/// The identify/split loop (Fig. 6 lines 2–7).
fn split_overflowed_trees(
    trees: &mut Vec<PlanTree>,
    ctx: &EstimationContext,
    cfg: &ScheduleConfig,
    reduce_tasks: usize,
) {
    for _round in 0..MAX_SPLIT_ROUNDS {
        let buckets = Buckets::build(trees, reduce_tasks, cfg.num_buckets);
        // IDENTIFY-TREES: overflowed *and splittable* (root has children).
        let mut overflowed: Vec<(usize, f64)> = (0..trees.len())
            .filter(|&t| !trees[t].nodes[0].children.is_empty())
            .filter_map(|t| {
                let vc = buckets.tree_vc(trees, t);
                let worst = vc
                    .iter()
                    .map(|&v| v - buckets.width)
                    .fold(f64::MIN, f64::max);
                (worst > 1e-9).then_some((t, worst))
            })
            .collect();
        if overflowed.is_empty() {
            return;
        }
        // Split the worst offenders first, b per round.
        overflowed.sort_by(|a, b| b.1.total_cmp(&a.1));
        let batch: Vec<usize> = overflowed
            .iter()
            .take(cfg.split_batch.max(1))
            .map(|&(t, _)| t)
            .collect();
        let mut split_any = false;
        for t in batch {
            split_any |= split_tree(trees, t, &buckets, ctx, cfg);
        }
        if !split_any {
            return; // nothing can improve further
        }
    }
}

/// `SPLIT-TREE` (Fig. 6): greedily decide, child by child in descending
/// utility, whether each child sub-tree stays with the root or becomes a
/// stand-alone tree. Returns true if at least one sub-tree was split.
fn split_tree(
    trees: &mut Vec<PlanTree>,
    t: usize,
    buckets: &Buckets,
    ctx: &EstimationContext,
    cfg: &ScheduleConfig,
) -> bool {
    let root_bucket = buckets.of_block[&(t, 0)];
    let mut children: Vec<usize> = trees[t].nodes[0].children.clone();
    children.sort_by(|&a, &b| trees[t].nodes[b].util.total_cmp(&trees[t].nodes[a].util));

    let mut kept: Vec<usize> = Vec::new(); // the set E
    let mut kept_vc = vec![0.0; cfg.num_buckets];
    let mut to_split: Vec<usize> = Vec::new();
    for &child in &children {
        let child_vc = buckets.subtree_vc(trees, t, child);
        // SHOULD-SPLIT: new root cost assuming Chd = E ∪ {child}; place it in
        // the root's bucket (V*), and test every bucket for overflow.
        let new_root_cost = root_cost_with_children(&trees[t], ctx, &kept, child);
        let mut overflow = false;
        for h in 0..cfg.num_buckets {
            let mut load = kept_vc[h] + child_vc[h];
            if h == root_bucket {
                load += new_root_cost;
            }
            if load > buckets.width + 1e-9 {
                overflow = true;
                break;
            }
        }
        if overflow && !kept.is_empty() {
            to_split.push(child);
        } else {
            // Keep the child (the first/most useful child always stays: a
            // tree must retain at least one child or the split is pointless).
            for (k, v) in kept_vc.iter_mut().zip(&child_vc) {
                *k += v;
            }
            kept.push(child);
        }
    }
    if to_split.is_empty() {
        return false;
    }
    // Detach in descending node index so earlier indices stay valid.
    to_split.sort_unstable_by(|a, b| b.cmp(a));
    for child in to_split {
        let mut sub = trees[t].split_off(child);
        recompute_tree(&mut sub, ctx);
        trees.push(sub);
    }
    recompute_tree(&mut trees[t], ctx);
    true
}

/// Root cost under the assumption that only `kept ∪ {candidate}` of the
/// root's children remain attached (Eq. 5 on the hypothetical structure).
fn root_cost_with_children(
    tree: &PlanTree,
    ctx: &EstimationContext,
    kept: &[usize],
    candidate: usize,
) -> f64 {
    let root = &tree.nodes[0];
    // Covered pairs the root would lose: every child sub-tree not kept.
    let removed_cov: u64 = root
        .children
        .iter()
        .filter(|&&c| c != candidate && !kept.contains(&c))
        .map(|&c| tree.nodes[c].cov)
        .sum();
    let cov = root.cov.saturating_sub(removed_cov);
    // CostP of the descendants that remain: kept children's sub-trees.
    let mut desc_costp = 0.0;
    let mut stack: Vec<usize> = kept.iter().copied().chain([candidate]).collect();
    while let Some(i) = stack.pop() {
        let n = &tree.nodes[i];
        desc_costp += n.cost - block_additional_cost(n.size);
        stack.extend_from_slice(&n.children);
    }
    root_cost(root.size, cov, desc_costp, ctx).1
}

/// `PARTITION-TREES`: descending weighted-cost order, each tree to the task
/// with the largest slack `SK(R)`.
fn partition_trees(trees: &[PlanTree], cfg: &ScheduleConfig, reduce_tasks: usize) -> Vec<usize> {
    let buckets = Buckets::build(trees, reduce_tasks, cfg.num_buckets);
    let vcs: Vec<Vec<f64>> = (0..trees.len())
        .map(|t| buckets.tree_vc(trees, t))
        .collect();
    let weights: Vec<f64> = (1..=cfg.num_buckets)
        .map(|k| cfg.weighting.weight(k, cfg.num_buckets))
        .collect();

    let mut order: Vec<usize> = (0..trees.len()).collect();
    let weighted_cost =
        |t: usize| -> f64 { vcs[t].iter().zip(&weights).map(|(&v, &w)| v * w).sum() };
    order.sort_by(|&a, &b| weighted_cost(b).total_cmp(&weighted_cost(a)));

    let mut load = vec![vec![0.0; cfg.num_buckets]; reduce_tasks];
    let mut assignment = vec![0usize; trees.len()];
    for t in order {
        // SK(R) = Σ_h δ_h · W(c_h) · (width_h − load_R[h]).
        let best = (0..reduce_tasks)
            .map(|r| {
                let slack: f64 = (0..cfg.num_buckets)
                    .filter(|&h| vcs[t][h] > 0.0)
                    .map(|h| weights[h] * (buckets.width - load[r][h]))
                    .sum();
                (r, slack)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(0, |(r, _)| r);
        assignment[t] = best;
        for h in 0..cfg.num_buckets {
            load[best][h] += vcs[t][h];
        }
    }
    assignment
}

/// LPT baseline: trees in descending total cost, each to the least-loaded
/// task.
fn partition_lpt(trees: &[PlanTree], reduce_tasks: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..trees.len()).collect();
    order.sort_by(|&a, &b| trees[b].total_cost().total_cmp(&trees[a].total_cost()));
    let mut load = vec![0.0f64; reduce_tasks];
    let mut assignment = vec![0usize; trees.len()];
    for t in order {
        let best = load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(r, _)| r);
        assignment[t] = best;
        load[best] += trees[t].total_cost();
    }
    assignment
}

/// `SORT-BLOCKS` per task: the block schedule of each of `num_tasks`
/// tasks, over the trees `assignment` gives it.
fn finalize(
    trees: Vec<PlanTree>,
    assignment: Vec<usize>,
    num_tasks: usize,
    placement: Arc<Placement>,
) -> Schedule {
    let block_order: Vec<Vec<BlockRef>> = (0..num_tasks)
        .map(|task| {
            let task_trees: Vec<usize> = (0..trees.len())
                .filter(|&t| assignment[t] == task)
                .collect();
            sort_blocks(&trees, &task_trees)
        })
        .collect();
    Schedule {
        task_of_tree: assignment,
        block_order,
        trees,
        placement,
    }
}

/// Order a task's blocks by descending utility subject to the
/// child-before-parent constraint: visiting blocks in utility order, any
/// still-unemitted descendants of a block are hoisted immediately before it
/// (in post-order, highest-utility siblings first).
fn sort_blocks(trees: &[PlanTree], task_trees: &[usize]) -> Vec<BlockRef> {
    let mut all: Vec<BlockRef> = task_trees
        .iter()
        .flat_map(|&t| (0..trees[t].nodes.len()).map(move |n| BlockRef { tree: t, node: n }))
        .collect();
    all.sort_by(|a, b| {
        let ua = trees[a.tree].nodes[a.node].util;
        let ub = trees[b.tree].nodes[b.node].util;
        ub.total_cmp(&ua)
            .then(a.tree.cmp(&b.tree))
            .then(a.node.cmp(&b.node))
    });

    let mut emitted: HashSet<BlockRef> = HashSet::new();
    let mut out = Vec::with_capacity(all.len());
    for b in &all {
        emit_with_descendants(trees, *b, &mut emitted, &mut out);
    }
    out
}

fn emit_with_descendants(
    trees: &[PlanTree],
    b: BlockRef,
    emitted: &mut HashSet<BlockRef>,
    out: &mut Vec<BlockRef>,
) {
    if emitted.contains(&b) {
        return;
    }
    // Children in descending utility, each with its own descendants first.
    let mut children = trees[b.tree].nodes[b.node].children.clone();
    children.sort_by(|&x, &y| {
        trees[b.tree].nodes[y]
            .util
            .total_cmp(&trees[b.tree].nodes[x].util)
    });
    for c in children {
        emit_with_descendants(
            trees,
            BlockRef {
                tree: b.tree,
                node: c,
            },
            emitted,
            out,
        );
    }
    emitted.insert(b);
    out.push(b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probmodel::TrainedProb;
    use pper_blocking::{build_forests, presets};
    use pper_datagen::PubGen;
    use pper_progressive::LevelPolicy;

    fn make_stats(n: usize, seed: u64) -> (DatasetStats, usize) {
        let ds = PubGen::new(n, seed).generate();
        let families = presets::citeseer_families();
        let forests = build_forests(&ds, &families);
        (
            DatasetStats::from_forests(&ds, &families, &forests),
            ds.len(),
        )
    }

    fn run(
        stats: &DatasetStats,
        dataset_size: usize,
        scheduler: TreeScheduler,
        tasks: usize,
    ) -> Schedule {
        let policy = LevelPolicy::citeseer();
        let prob = TrainedProb::citeseer();
        let ctx = EstimationContext {
            dataset_size,
            policy: &policy,
            prob: &prob,
        };
        let cfg = ScheduleConfig {
            scheduler,
            ..ScheduleConfig::default()
        };
        generate_schedule(stats, &ctx, &cfg, tasks)
    }

    #[test]
    fn weighting_is_non_increasing() {
        for w in [
            Weighting::Uniform,
            Weighting::Linear,
            Weighting::Exponential { decay: 0.6 },
        ] {
            let vals: Vec<f64> = (1..=8).map(|k| w.weight(k, 8)).collect();
            assert!(vals.windows(2).all(|p| p[0] >= p[1]), "{w:?}: {vals:?}");
            assert!(vals.iter().all(|&v| v > 0.0 && v <= 1.0));
        }
    }

    #[test]
    fn schedule_covers_every_block_exactly_once() {
        let (stats, n) = make_stats(3_000, 41);
        for scheduler in [
            TreeScheduler::Progressive,
            TreeScheduler::NoSplit,
            TreeScheduler::Lpt,
        ] {
            let s = run(&stats, n, scheduler, 4);
            let mut seen = std::collections::HashSet::new();
            for order in &s.block_order {
                for b in order {
                    assert!(
                        seen.insert((b.tree, b.node)),
                        "{scheduler:?} duplicated block"
                    );
                }
            }
            let total: usize = s.trees.iter().map(|t| t.nodes.len()).sum();
            assert_eq!(seen.len(), total, "{scheduler:?} missed blocks");
        }
    }

    #[test]
    fn each_tree_lands_on_one_task_and_blocks_follow() {
        let (stats, n) = make_stats(3_000, 42);
        let s = run(&stats, n, TreeScheduler::Progressive, 4);
        for (task, order) in s.block_order.iter().enumerate() {
            for b in order {
                assert_eq!(s.task_of_tree[b.tree], task);
            }
        }
    }

    #[test]
    fn children_always_precede_parents() {
        let (stats, n) = make_stats(4_000, 43);
        for scheduler in [
            TreeScheduler::Progressive,
            TreeScheduler::NoSplit,
            TreeScheduler::Lpt,
        ] {
            let s = run(&stats, n, scheduler, 4);
            for order in &s.block_order {
                let pos: HashMap<(usize, usize), usize> = order
                    .iter()
                    .enumerate()
                    .map(|(i, b)| ((b.tree, b.node), i))
                    .collect();
                for b in order {
                    for &c in &s.trees[b.tree].nodes[b.node].children {
                        assert!(
                            pos[&(b.tree, c)] < pos[&(b.tree, b.node)],
                            "{scheduler:?}: child after parent"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn progressive_splits_skewed_trees() {
        let (stats, n) = make_stats(6_000, 44);
        let nosplit = run(&stats, n, TreeScheduler::NoSplit, 8);
        let ours = run(&stats, n, TreeScheduler::Progressive, 8);
        assert_eq!(nosplit.trees.len(), stats.trees.len());
        assert!(
            ours.trees.len() > stats.trees.len(),
            "skewed Zipf blocks should trigger splits: {} vs {}",
            ours.trees.len(),
            stats.trees.len()
        );
        // Split trees are marked by a non-zero root level.
        assert!(ours.trees.iter().any(|t| t.root_level > 0));
    }

    #[test]
    fn lpt_balances_total_cost() {
        let (stats, n) = make_stats(4_000, 45);
        let s = run(&stats, n, TreeScheduler::Lpt, 4);
        let mut loads = vec![0.0; 4];
        for (t, tree) in s.trees.iter().enumerate() {
            loads[s.task_of_tree[t]] += tree.total_cost();
        }
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let min = loads.iter().cloned().fold(f64::MAX, f64::min);
        // Graham's bound keeps imbalance small; generous check here.
        assert!(
            max < 2.0 * min + 1.0,
            "LPT load imbalance too large: {loads:?}"
        );
    }

    #[test]
    fn split_trees_preserve_cov_mass() {
        // Splitting redistributes covered pairs but must not create or lose
        // root-level coverage overall.
        let (stats, n) = make_stats(5_000, 48);
        let before: u64 = stats.trees.iter().map(|t| t.nodes[0].covered_pairs()).sum();
        let s = run(&stats, n, TreeScheduler::Progressive, 8);
        let after: u64 = s.trees.iter().map(|t| t.nodes[0].cov).sum();
        assert_eq!(before, after);
    }

    mod random_trees {
        use super::*;
        use pper_blocking::{NodeStats, TreeStats};
        use proptest::prelude::*;

        /// Random tree stats: a root of `size` members recursively divided
        /// into child blocks — structurally arbitrary but valid.
        fn arb_tree(family: usize, key_seed: u32) -> impl Strategy<Value = TreeStats> {
            (4usize..600, 0u8..3).prop_map(move |(size, depth)| {
                let mut nodes = vec![NodeStats {
                    key: format!("r{key_seed}"),
                    level: 0,
                    parent: None,
                    children: vec![],
                    size,
                    uncovered_pairs: 0,
                }];
                // Deterministic pseudo-random splitting from the size.
                let mut frontier = vec![0usize];
                for level in 1..=depth as usize {
                    let mut next = Vec::new();
                    for &p in &frontier {
                        let psize = nodes[p].size;
                        if psize < 8 {
                            continue;
                        }
                        let left = psize / 2 - (psize % 3);
                        let right = psize - left - 1;
                        for (i, csize) in [left, right].into_iter().enumerate() {
                            if csize < 2 {
                                continue;
                            }
                            let idx = nodes.len();
                            nodes.push(NodeStats {
                                key: format!("{}c{i}", nodes[p].key),
                                level,
                                parent: Some(p),
                                children: vec![],
                                size: csize,
                                uncovered_pairs: 0,
                            });
                            nodes[p].children.push(idx);
                            next.push(idx);
                        }
                    }
                    frontier = next;
                }
                TreeStats {
                    family,
                    root_key: format!("r{key_seed}"),
                    nodes,
                }
            })
        }

        fn arb_stats() -> impl Strategy<Value = DatasetStats> {
            proptest::collection::vec(0u32..1000, 2..12).prop_flat_map(|seeds| {
                let trees: Vec<_> = seeds
                    .iter()
                    .enumerate()
                    .map(|(i, &seed)| arb_tree(i % 3, seed * 16 + i as u32))
                    .collect();
                trees.prop_map(|trees| DatasetStats {
                    num_entities: 10_000,
                    trees,
                    placement: Arc::default(),
                })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            #[test]
            fn prop_schedule_is_complete_for_random_trees(
                stats in arb_stats(),
                tasks in 0usize..9,
                buckets in 0usize..12,
                scheduler_pick in 0u8..3,
            ) {
                let scheduler = match scheduler_pick {
                    0 => TreeScheduler::Progressive,
                    1 => TreeScheduler::NoSplit,
                    _ => TreeScheduler::Lpt,
                };
                let policy = LevelPolicy::citeseer();
                let prob = TrainedProb::citeseer();
                let ctx = EstimationContext {
                    dataset_size: stats.num_entities,
                    policy: &policy,
                    prob: &prob,
                };
                let cfg = ScheduleConfig {
                    num_buckets: buckets,
                    scheduler,
                    ..ScheduleConfig::default()
                };
                let s = generate_schedule(&stats, &ctx, &cfg, tasks);

                // Zero tasks count as one.
                prop_assert_eq!(s.num_tasks(), tasks.max(1));

                // Complete, duplicate-free block coverage.
                let mut seen = std::collections::HashSet::new();
                for (task, order) in s.block_order.iter().enumerate() {
                    for b in order {
                        prop_assert!(seen.insert((b.tree, b.node)));
                        prop_assert_eq!(s.task_of_tree[b.tree], task);
                    }
                }
                let total: usize = s.trees.iter().map(|t| t.nodes.len()).sum();
                prop_assert_eq!(seen.len(), total);

                // Child-before-parent in every task order.
                for order in &s.block_order {
                    let pos: HashMap<(usize, usize), usize> = order
                        .iter()
                        .enumerate()
                        .map(|(i, b)| ((b.tree, b.node), i))
                        .collect();
                    for b in order {
                        for &c in &s.trees[b.tree].nodes[b.node].children {
                            prop_assert!(pos[&(b.tree, c)] < pos[&(b.tree, b.node)]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_task_schedule_works() {
        let (stats, n) = make_stats(1_000, 49);
        let s = run(&stats, n, TreeScheduler::Progressive, 1);
        assert_eq!(s.num_tasks(), 1);
        assert!(s.task_of_tree.iter().all(|&t| t == 0));
        assert_eq!(s.block_order.len(), 1);
    }
}
