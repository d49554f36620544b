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

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use pper_blocking::DatasetStats;

use crate::estimate::{recompute_all, recompute_tree, EstimationContext};
use crate::plan::{BlockRef, PlanTree, Schedule};

/// The weighting function `W(·)` over the cost vector (§II-B): non-increasing
/// weights emphasizing early cost intervals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// How the cost vector `C` is laid out (the extended report discusses
/// "several ways for specifying the weighting function and the cost
/// vector", including optimizing "for the case where the goal is to
/// generate the highest possible quality result given a resolution cost
/// budget").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CostVectorSpec {
    /// `C` spans the estimated per-task share of the whole run (default):
    /// optimize progressiveness over the full execution.
    FullRun,
    /// `C` spans exactly this many per-task cost units: optimize the result
    /// delivered within a resolution budget. Blocks past the budget pile
    /// into the final bucket, where the weighting function can zero them
    /// out.
    BudgetPerTask(f64),
}

/// Which tree-scheduling algorithm to run (§VI-B2's comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TreeScheduler {
    /// The paper's algorithm: identify + split + slack partitioning.
    Progressive,
    /// The paper's algorithm without tree splitting.
    NoSplit,
    /// Longest Processing Time load balancing (Graham): sort trees by cost,
    /// assign each to the least-loaded task.
    Lpt,
}

/// Schedule-generation parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleConfig {
    /// Number of reduce tasks `r`.
    pub reduce_tasks: usize,
    /// Number of cost-vector buckets `|C|`.
    pub num_buckets: usize,
    /// Weighting function `W(·)`.
    pub weighting: Weighting,
    /// Trees split per identify/split iteration (the batch size `b`).
    pub split_batch: usize,
    /// Which scheduler to run.
    pub scheduler: TreeScheduler,
    /// Cost-vector layout.
    pub cost_vector: CostVectorSpec,
}

impl ScheduleConfig {
    /// Paper-flavoured defaults for `r` reduce tasks.
    pub fn new(reduce_tasks: usize) -> Self {
        Self {
            reduce_tasks: reduce_tasks.max(1),
            num_buckets: 10,
            weighting: Weighting::Linear,
            split_batch: 4,
            scheduler: TreeScheduler::Progressive,
            cost_vector: CostVectorSpec::FullRun,
        }
    }

    /// Same configuration with a different scheduler.
    pub fn with_scheduler(mut self, scheduler: TreeScheduler) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Bucketed view of the current utility-sorted block list `SL`.
struct Buckets {
    /// Bucket widths `c_k − c_{k−1}` (per-task cost units).
    widths: Vec<f64>,
    /// 0-based bucket of every block.
    of_block: HashMap<(usize, usize), usize>,
}

impl Buckets {
    /// Build `SL`, the cost vector `C` (uniform buckets over the per-task
    /// share dictated by `spec`), and each block's bucket.
    fn build(trees: &[PlanTree], r: usize, num_buckets: usize, spec: CostVectorSpec) -> Self {
        let mut sl: Vec<(usize, usize, f64, f64)> = Vec::new(); // (tree, node, util, cost)
        let mut total = 0.0;
        for (ti, tree) in trees.iter().enumerate() {
            for (ni, node) in tree.nodes.iter().enumerate() {
                sl.push((ti, ni, node.util, node.cost));
                total += node.cost;
            }
        }
        sl.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));

        let share = match spec {
            CostVectorSpec::FullRun => (total / r.max(1) as f64).max(f64::MIN_POSITIVE),
            CostVectorSpec::BudgetPerTask(budget) => budget.max(f64::MIN_POSITIVE),
        };
        let width = share / num_buckets.max(1) as f64;
        let widths = vec![width; num_buckets.max(1)];

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
        Self { widths, of_block }
    }

    /// Cost vector `VC(T)` of the sub-tree rooted at `node` in `tree`.
    fn subtree_vc(&self, trees: &[PlanTree], tree: usize, node: usize) -> Vec<f64> {
        let mut vc = vec![0.0; self.widths.len()];
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

/// Generate a progressive schedule from job-1 statistics.
///
/// `ctx` supplies the estimation models; `cfg` the scheduling knobs.
pub fn generate_schedule(
    stats: &DatasetStats,
    ctx: &EstimationContext,
    cfg: &ScheduleConfig,
) -> Schedule {
    let mut trees: Vec<PlanTree> = stats.trees.iter().map(PlanTree::from_stats).collect();
    recompute_all(&mut trees, ctx);

    match cfg.scheduler {
        TreeScheduler::Progressive => {
            split_overflowed_trees(&mut trees, ctx, cfg);
            let assignment = partition_trees(&trees, cfg);
            finalize(trees, assignment, cfg)
        }
        TreeScheduler::NoSplit => {
            let assignment = partition_trees(&trees, cfg);
            finalize(trees, assignment, cfg)
        }
        TreeScheduler::Lpt => {
            let assignment = partition_lpt(&trees, cfg.reduce_tasks);
            finalize(trees, assignment, cfg)
        }
    }
}

/// Safety cap on identify/split iterations.
const MAX_SPLIT_ROUNDS: usize = 64;

/// The identify/split loop (Fig. 6 lines 2–7).
fn split_overflowed_trees(
    trees: &mut Vec<PlanTree>,
    ctx: &EstimationContext,
    cfg: &ScheduleConfig,
) {
    for _round in 0..MAX_SPLIT_ROUNDS {
        let buckets = Buckets::build(trees, cfg.reduce_tasks, cfg.num_buckets, cfg.cost_vector);
        // IDENTIFY-TREES: overflowed *and splittable* (root has children).
        let mut overflowed: Vec<(usize, f64)> = (0..trees.len())
            .filter(|&t| !trees[t].nodes[0].children.is_empty())
            .filter_map(|t| {
                let vc = buckets.tree_vc(trees, t);
                let worst = vc
                    .iter()
                    .zip(&buckets.widths)
                    .map(|(&v, &w)| v - w)
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
            if load > buckets.widths[h] + 1e-9 {
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
    let total_pairs = pper_blocking::pairs(root.size);
    let cov_ratio = if total_pairs == 0 {
        0.0
    } else {
        cov as f64 / total_pairs as f64
    };
    let full = crate::estimate::window_pairs(root.size, ctx.policy.window_root) as f64 * cov_ratio;
    let cost_f = ctx.cost_model.resolve_pair * full;
    let cost_a = ctx.cost_model.block_additional_cost(root.size);
    // CostP of the descendants that remain: kept children's sub-trees.
    let mut desc_costp = 0.0;
    let mut stack: Vec<usize> = kept.iter().copied().chain([candidate]).collect();
    while let Some(i) = stack.pop() {
        let n = &tree.nodes[i];
        desc_costp += n.cost - ctx.cost_model.block_additional_cost(n.size);
        stack.extend_from_slice(&n.children);
    }
    (cost_a + cost_f - desc_costp).max(cost_a)
}

/// `PARTITION-TREES`: descending weighted-cost order, each tree to the task
/// with the largest slack `SK(R)`.
fn partition_trees(trees: &[PlanTree], cfg: &ScheduleConfig) -> Vec<usize> {
    let buckets = Buckets::build(trees, cfg.reduce_tasks, cfg.num_buckets, cfg.cost_vector);
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

    let mut load = vec![vec![0.0; cfg.num_buckets]; cfg.reduce_tasks];
    let mut assignment = vec![0usize; trees.len()];
    for t in order {
        // SK(R) = Σ_h δ_h · W(c_h) · (width_h − load_R[h]).
        let best = (0..cfg.reduce_tasks)
            .map(|r| {
                let slack: f64 = (0..cfg.num_buckets)
                    .filter(|&h| vcs[t][h] > 0.0)
                    .map(|h| weights[h] * (buckets.widths[h] - load[r][h]))
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
    let mut load = vec![0.0f64; reduce_tasks.max(1)];
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

/// `SORT-BLOCKS` per task plus SQ/Dom assignment.
fn finalize(trees: Vec<PlanTree>, assignment: Vec<usize>, cfg: &ScheduleConfig) -> Schedule {
    let num_tasks = cfg.reduce_tasks;
    let block_order: Vec<Vec<BlockRef>> = (0..num_tasks)
        .map(|task| {
            let task_trees: Vec<usize> = (0..trees.len())
                .filter(|&t| assignment[t] == task)
                .collect();
            sort_blocks(&trees, &task_trees)
        })
        .collect();

    // Tree SQ: within each task, trees ranked by the position of their first
    // scheduled block; SQ = task·RANGE + rank.
    let mut tree_sq = vec![0u64; trees.len()];
    for (task, order) in block_order.iter().enumerate() {
        let mut seen: Vec<usize> = Vec::new();
        for b in order {
            if !seen.contains(&b.tree) {
                seen.push(b.tree);
            }
        }
        for (rank, &t) in seen.iter().enumerate() {
            tree_sq[t] = task as u64 * Schedule::SQ_RANGE + rank as u64;
        }
    }

    // Dominance values: any distinct assignment works; tree index + 1 keeps
    // zero free as a sentinel namespace.
    let dom: Vec<u64> = (0..trees.len()).map(|t| t as u64 + 1).collect();

    Schedule {
        task_of_tree: assignment,
        block_order,
        tree_sq,
        dom,
        num_tasks,
        trees,
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

    let mut emitted: HashMap<(usize, usize), bool> = HashMap::new();
    let mut out = Vec::with_capacity(all.len());
    for b in &all {
        emit_with_descendants(trees, *b, &mut emitted, &mut out);
    }
    out
}

fn emit_with_descendants(
    trees: &[PlanTree],
    b: BlockRef,
    emitted: &mut HashMap<(usize, usize), bool>,
    out: &mut Vec<BlockRef>,
) {
    if emitted.contains_key(&(b.tree, b.node)) {
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
    emitted.insert((b.tree, b.node), true);
    out.push(b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probmodel::HeuristicProb;
    use pper_blocking::{build_forests, presets};
    use pper_datagen::PubGen;
    use pper_mapreduce::CostModel;
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
        let cm = CostModel::default();
        let prob = HeuristicProb::default();
        let ctx = EstimationContext {
            dataset_size,
            policy: &policy,
            cost_model: &cm,
            prob: &prob,
        };
        let cfg = ScheduleConfig::new(tasks).with_scheduler(scheduler);
        generate_schedule(stats, &ctx, &cfg)
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
    fn sq_values_respect_task_ranges() {
        let (stats, n) = make_stats(3_000, 46);
        let s = run(&stats, n, TreeScheduler::Progressive, 4);
        for (t, &sq) in s.tree_sq.iter().enumerate() {
            let task = s.task_of_tree[t] as u64;
            assert!(sq >= task * Schedule::SQ_RANGE);
            assert!(sq < (task + 1) * Schedule::SQ_RANGE);
        }
    }

    #[test]
    fn dom_values_unique() {
        let (stats, n) = make_stats(2_000, 47);
        let s = run(&stats, n, TreeScheduler::Progressive, 4);
        let mut doms = s.dom.clone();
        doms.sort_unstable();
        doms.dedup();
        assert_eq!(doms.len(), s.trees.len());
        assert!(doms.iter().all(|&d| d > 0));
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

    #[test]
    fn budget_cost_vector_reorders_priorities() {
        // With a tiny per-task budget, every bucket shrinks, so far more
        // trees overflow and get split than under the full-run layout.
        let (stats, n) = make_stats(5_000, 50);
        let policy = LevelPolicy::citeseer();
        let cm = CostModel::default();
        let prob = HeuristicProb::default();
        let ctx = EstimationContext {
            dataset_size: n,
            policy: &policy,
            cost_model: &cm,
            prob: &prob,
        };
        let full_cfg = ScheduleConfig::new(8);
        let full = generate_schedule(&stats, &ctx, &full_cfg);
        let mut budget_cfg = ScheduleConfig::new(8);
        budget_cfg.cost_vector = CostVectorSpec::BudgetPerTask(500.0);
        let budgeted = generate_schedule(&stats, &ctx, &budget_cfg);
        assert!(
            budgeted.trees.len() >= full.trees.len(),
            "tight budget should split at least as many trees: {} vs {}",
            budgeted.trees.len(),
            full.trees.len()
        );
        // Both remain complete schedules.
        let blocks = |s: &Schedule| -> usize { s.trees.iter().map(|t| t.nodes.len()).sum() };
        let ordered = |s: &Schedule| -> usize { s.block_order.iter().map(Vec::len).sum() };
        assert_eq!(blocks(&budgeted), ordered(&budgeted));
        assert_eq!(blocks(&full), ordered(&full));
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
                })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

            #[test]
            fn prop_schedule_is_complete_for_random_trees(
                stats in arb_stats(),
                tasks in 1usize..9,
                scheduler_pick in 0u8..3,
            ) {
                let scheduler = match scheduler_pick {
                    0 => TreeScheduler::Progressive,
                    1 => TreeScheduler::NoSplit,
                    _ => TreeScheduler::Lpt,
                };
                let policy = LevelPolicy::citeseer();
                let cm = CostModel::default();
                let prob = HeuristicProb::default();
                let ctx = EstimationContext {
                    dataset_size: stats.num_entities,
                    policy: &policy,
                    cost_model: &cm,
                    prob: &prob,
                };
                let cfg = ScheduleConfig::new(tasks).with_scheduler(scheduler);
                let s = generate_schedule(&stats, &ctx, &cfg);

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

                // Valid SQ + unique Dom values.
                let mut doms = s.dom.clone();
                doms.sort_unstable();
                doms.dedup();
                prop_assert_eq!(doms.len(), s.trees.len());
            }
        }
    }

    #[test]
    fn single_task_schedule_works() {
        let (stats, n) = make_stats(1_000, 49);
        let s = run(&stats, n, TreeScheduler::Progressive, 1);
        assert_eq!(s.num_tasks, 1);
        assert!(s.task_of_tree.iter().all(|&t| t == 0));
        assert_eq!(s.block_order.len(), 1);
    }
}
