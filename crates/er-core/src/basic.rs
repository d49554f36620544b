//! The Basic approach (§II-C, Fig. 2): the baseline our pipeline is
//! evaluated against.
//!
//! One MR job. The map function determines each entity's blocking key
//! value(s) and emits a key-value pair per main blocking function, keyed by
//! `(blocking key, function id)`; the default hash partitioner routes whole
//! blocks to reduce tasks; each reduce call partially resolves its block
//! with the mechanism `M` until the Popcorn stopping condition fires
//! (or fully, for "Basic F").
//!
//! As in the paper's experiments, the redundancy-elimination technique of
//! Kolb et al. (ref. \[14\]) is incorporated: a pair co-occurring in several
//! blocks is resolved only in the common block with the smallest blocking
//! key value. The §II-C limitations this baseline exhibits by construction:
//! schedule oblivious to duplicate distribution, single visit per block
//! (so the Popcorn threshold trades early detection against final recall),
//! no hierarchy to cut large-block overhead, and shared pairs resolved
//! late in whatever block happens to have the smallest key.
//!
//! A shuffled record is `((BlockingKey, family), &Entity)`: the key inline
//! (a [`BlockingKey`], job 1's key too, orders, compares and hashes exactly
//! as its `str`, so blocks reach the same reduce tasks in the same order as
//! `String` keys would) and the dataset's own entity, borrowed. The entity's keys under
//! the other families do not travel with it: as in job 1, a key is cheap to
//! recompute from the attribute values. Each block `(k, f)` extracts its
//! members' root keys under every other family once, into one buffer the
//! reduce task reuses, and keeps a member's key `k_g` under family `g` only
//! when `(k_g, g) < (k, f)`. A pair is skipped exactly when its two members
//! kept the same key under some family `g`: the block `(k_g, g)` is a
//! smaller one they share, and it resolves the pair.

use pper_blocking::{BlockingFamily, BlockingKey};
use pper_datagen::{Dataset, Entity, EntityId};
use pper_mapreduce::cost::{block_additional_cost, JOB_STARTUP, KEY_PER_ENTITY, RESOLVE_PAIR};
use pper_mapreduce::prelude::*;
use pper_progressive::{MechanismKind, PairSource, StopRule, StopState};
use pper_simil::{PreparedCache, PreparedRule, SimScratch};

use crate::config::ErConfig;
use crate::pipeline::ErRunResult;
use crate::{memo_slot, BlockTally, NO_SLOT};

/// Basic-baseline knobs (§VI-B1).
#[derive(Debug, Clone)]
pub struct BasicConfig {
    /// Sorted-neighbourhood window `w` (the paper sweeps 5 and 15).
    pub window: usize,
    /// Popcorn stopping threshold; `None` is "Basic F" (blocks resolved to
    /// completion).
    pub popcorn_threshold: Option<f64>,
}

impl BasicConfig {
    /// Basic F: no stopping condition.
    pub fn full(window: usize) -> Self {
        Self {
            window,
            popcorn_threshold: None,
        }
    }

    /// Popcorn stopping at `threshold`.
    pub fn popcorn(window: usize, threshold: f64) -> Self {
        Self {
            window,
            popcorn_threshold: Some(threshold),
        }
    }

    /// The stop rule every block runs under. Popcorn's rate-measurement
    /// window scales inversely with the threshold (a rate of 0.001 is only
    /// observable over ≥ 1000 comparisons), so the paper's full threshold
    /// sweep — from 0.1 down to 0.00001 — produces genuinely different
    /// behaviour.
    fn stop_rule(&self) -> StopRule {
        match self.popcorn_threshold {
            None => StopRule::Exhaust,
            Some(threshold) => StopRule::Popcorn {
                threshold,
                window: if threshold > 0.0 {
                    ((2.0 / threshold).ceil() as u64).clamp(50, 200_000)
                } else {
                    200_000
                },
            },
        }
    }
}

/// Map key: `(blocking key value, function id)` — ordered by key value
/// first, exactly the order the smallest-key rule compares by.
type BasicKey = (BlockingKey, u8);

struct BasicMapper<'d> {
    families: &'d [BlockingFamily],
}

impl<'d> Mapper for BasicMapper<'d> {
    type Input = &'d Entity;
    type Key = BasicKey;
    type Value = &'d Entity;

    fn map(
        &self,
        entity: &&'d Entity,
        ctx: &mut TaskContext,
        out: &mut Emitter<BasicKey, &'d Entity>,
    ) {
        let entity = *entity;
        for (f, family) in self.families.iter().enumerate() {
            ctx.charge(KEY_PER_ENTITY);
            out.emit(
                (BlockingKey::of(&family.levels[0], entity), f as u8),
                entity,
            );
        }
    }
}

struct BasicReducer<'a> {
    families: &'a [BlockingFamily],
    rule: PreparedRule,
    mechanism: MechanismKind,
    basic: &'a BasicConfig,
}

/// What one reduce task reuses across its blocks.
#[derive(Default)]
struct TaskScratch {
    /// Entities are prepared once per task: one recurring across the task's
    /// blocks reuses its signatures.
    cache: PreparedCache<EntityId>,
    sim: SimScratch,
    /// Per member of the current block, one entry per family: the member's
    /// key under that family where the smallest-key rule can prefer it over
    /// the block's ([`BasicReducer::smaller_keys`]).
    smaller: Vec<Option<BlockingKey>>,
}

impl<'a> PartitionReducer for BasicReducer<'a> {
    type Key = BasicKey;
    type Value = &'a Entity;
    /// A duplicate is recorded once, as the task's progress event.
    type Output = ();

    fn reduce_partition(
        &self,
        partition: &pper_mapreduce::GroupedPartition<BasicKey, &'a Entity>,
        ctx: &mut TaskContext,
        _: &mut Vec<()>,
    ) {
        let mut task = TaskScratch::default();
        for (key, values) in partition.iter() {
            self.reduce_block(key, values, ctx, &mut task);
        }
    }
}

impl BasicReducer<'_> {
    /// Fill `task.smaller` for the block `(key, f)`: member `m`'s entry for
    /// family `g` is its key under `g` when `(that key, g) < (key, f)`, else
    /// `None`. Two members with equal `Some` entries share the smaller block
    /// `(that key, g)`, which resolves their pair instead (Kolb et al.'s
    /// smallest-key rule); the block's own family never does.
    fn smaller_keys(
        &self,
        (key, f): (&BlockingKey, usize),
        members: &[&Entity],
        task: &mut TaskScratch,
    ) {
        task.smaller.clear();
        for &entity in members {
            for (g, family) in self.families.iter().enumerate() {
                let smaller = (g != f)
                    .then(|| BlockingKey::of(&family.levels[0], entity))
                    .filter(|other| (other, g) < (key, f));
                task.smaller.push(smaller);
            }
        }
    }

    fn reduce_block(
        &self,
        (key, f): &BasicKey,
        values: &[&Entity],
        ctx: &mut TaskContext,
        task: &mut TaskScratch,
    ) {
        if values.len() < 2 {
            return;
        }
        let family = &self.families[*f as usize];
        // The block's members, ascending by entity id. As in job 2, the
        // resolve loop names a member by its position here, so ids
        // tie-break and order as they would themselves and every per-pair
        // access is a slice index.
        let mut members = values.to_vec();
        members.sort_unstable_by_key(|e| e.id);
        self.smaller_keys((key, *f as usize), &members, task);
        let n = self.families.len();
        let locals: Vec<u32> = (0..members.len() as u32).collect();
        // `slots[l]` is member `l`'s slot in the task's cache, or `NO_SLOT`
        // until its first comparison in this block.
        let mut slots = vec![NO_SLOT; locals.len()];

        let sorted =
            pper_progressive::sort_by_attrs(&locals, &[family.levels[0].attr, 0], &members);
        ctx.charge(block_additional_cost(sorted.len()));

        let mut run = self.mechanism.start(sorted, self.basic.window);
        let mut stop = StopState::new(self.basic.stop_rule());
        let mut tally = BlockTally::default();
        while let Some((a, b)) = run.next_pair() {
            // Kolb-style smallest-key rule: resolve the pair only in the
            // common block with the smallest (key, function) value.
            let (ia, ib) = (a as usize, b as usize);
            let smaller_a = &task.smaller[ia * n..][..n];
            let smaller_b = &task.smaller[ib * n..][..n];
            if smaller_a
                .iter()
                .zip(smaller_b)
                .any(|(ka, kb)| ka.is_some() && ka == kb)
            {
                tally.skipped_redundant += 1;
                continue;
            }
            ctx.charge(RESOLVE_PAIR);
            tally.compared += 1;
            let (ea, eb) = (members[ia], members[ib]);
            let cache = &mut task.cache;
            let sa = memo_slot(cache, &self.rule, &mut slots[ia], ea);
            let sb = memo_slot(cache, &self.rule, &mut slots[ib], eb);
            let is_dup = self.rule.matches(cache.at(sa), cache.at(sb), &mut task.sim);
            run.feedback(is_dup);
            if is_dup {
                tally.duplicates += 1;
                ctx.log_event(crate::pack_pair(ea.id, eb.id));
            }
            if stop.observe(is_dup) {
                ctx.counters.incr("blocks_stopped_early");
                break;
            }
        }
        tally.flush(&mut ctx.counters);
        ctx.counters.incr("blocks_resolved");
    }
}

/// The Basic baseline runner.
#[derive(Debug, Clone)]
pub struct BasicApproach {
    /// Shared pipeline configuration (blocking, rule, cluster, mechanism).
    pub er: ErConfig,
    /// Basic-specific knobs.
    pub basic: BasicConfig,
}

impl BasicApproach {
    /// Build a runner.
    pub fn new(er: ErConfig, basic: BasicConfig) -> Self {
        Self { er, basic }
    }

    /// Run the baseline and report the same result shape as the pipeline.
    pub fn run(&self, ds: &Dataset) -> Result<ErRunResult, MrError> {
        let mut cfg = self.er.job_config("pper-basic");
        cfg.faults = self.er.faults.clone();

        let mapper = BasicMapper {
            families: &self.er.families,
        };
        let reducer = BasicReducer {
            families: &self.er.families,
            rule: PreparedRule::new(self.er.rule.clone()),
            mechanism: self.er.mechanism,
            basic: &self.basic,
        };
        let entities: Vec<&Entity> = ds.entities.iter().collect();
        let result = run_job(&cfg, &mapper, &reducer, &entities)?;

        Ok(ErRunResult::from_timeline(
            ds,
            &result.timeline,
            crate::duplicates_of(&result.timeline),
            result.total_virtual_cost,
            JOB_STARTUP + result.map_phase.makespan,
            result.counters,
            format!(
                "basic-{}-w{}-{}",
                self.er.mechanism.name(),
                self.basic.window,
                self.basic
                    .popcorn_threshold
                    .map_or("F".to_string(), |t| t.to_string())
            ),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pper_datagen::PubGen;

    #[test]
    fn basic_full_reaches_high_recall() {
        let ds = PubGen::new(2_000, 81).generate();
        let runner = BasicApproach::new(ErConfig::citeseer(2), BasicConfig::full(15));
        let r = runner.run(&ds).unwrap();
        assert!(
            r.curve.final_recall() > 0.8,
            "Basic F should be thorough, got {:.3}",
            r.curve.final_recall()
        );
        assert!(r.precision > 0.8, "precision {:.3}", r.precision);
        assert!(r.counters.get("pairs_skipped_redundant") > 0);
    }

    #[test]
    fn aggressive_popcorn_trades_recall_for_cost() {
        let ds = PubGen::new(2_000, 82).generate();
        let er = ErConfig::citeseer(2);
        let full = BasicApproach::new(er.clone(), BasicConfig::full(15))
            .run(&ds)
            .unwrap();
        let aggressive = BasicApproach::new(er, BasicConfig::popcorn(15, 0.2))
            .run(&ds)
            .unwrap();
        assert!(aggressive.total_cost < full.total_cost);
        assert!(aggressive.curve.final_recall() <= full.curve.final_recall() + 1e-9);
        assert!(aggressive.counters.get("blocks_stopped_early") > 0);
    }

    #[test]
    fn each_pair_resolved_once_across_blocks() {
        // The smallest-key rule must prevent double counting: compared pairs
        // across all reduce tasks ≤ distinct pairs sharing a block.
        let ds = PubGen::new(1_000, 83).generate();
        let runner = BasicApproach::new(ErConfig::citeseer(2), BasicConfig::full(1_000));
        let r = runner.run(&ds).unwrap();
        // With an effectively unbounded window every co-blocked pair is
        // compared exactly once, so duplicates are unique by construction —
        // and the run found each true pair at most once.
        let mut d = r.duplicates.clone();
        d.dedup();
        assert_eq!(d.len(), r.duplicates.len());
        let events = r.counters.get("duplicates_found");
        assert_eq!(events as usize, r.duplicates.len());
    }
}
