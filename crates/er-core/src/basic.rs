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

use std::sync::Arc;

use pper_blocking::forest::EntityLookup;
use pper_blocking::BlockingFamily;
use pper_datagen::{Dataset, Entity, EntityId};
use pper_mapreduce::prelude::*;
use pper_progressive::{PairSource, StopRule, StopState};
use pper_simil::{PreparedCache, PreparedRule, SimScratch};
use serde::{Deserialize, Serialize};

use crate::config::{ErConfig, MechanismKind};
use crate::pipeline::ErRunResult;
use crate::{memo_slot, BlockTally, EVENT_DUPLICATE, NO_SLOT};

/// Basic-baseline knobs (§VI-B1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BasicConfig {
    /// Sorted-neighbourhood window `w` (the paper sweeps 5 and 15).
    pub window: usize,
    /// Popcorn stopping threshold; `None` is "Basic F" (blocks resolved to
    /// completion).
    pub popcorn_threshold: Option<f64>,
    /// Comparisons window over which the Popcorn rate is measured.
    pub popcorn_window: u64,
}

impl BasicConfig {
    /// Basic F: no stopping condition.
    pub fn full(window: usize) -> Self {
        Self {
            window,
            popcorn_threshold: None,
            popcorn_window: 100,
        }
    }

    /// Popcorn stopping at `threshold`. The rate-measurement window scales
    /// inversely with the threshold (a rate of 0.001 is only observable
    /// over ≥ 1000 comparisons), so the paper's full threshold sweep — from
    /// 0.1 down to 0.00001 — produces genuinely different behaviour.
    pub fn popcorn(window: usize, threshold: f64) -> Self {
        let rate_window = if threshold > 0.0 {
            ((2.0 / threshold).ceil() as u64).clamp(50, 200_000)
        } else {
            200_000
        };
        Self {
            window,
            popcorn_threshold: Some(threshold),
            popcorn_window: rate_window,
        }
    }

    fn stop_rule(&self) -> StopRule {
        match self.popcorn_threshold {
            None => StopRule::Exhaust,
            Some(threshold) => StopRule::Popcorn {
                threshold,
                window: self.popcorn_window,
            },
        }
    }
}

/// Map value: the dataset's own entity (borrowed, as in job 2) plus its full
/// `(key, family)` block-key list for the smallest-key redundancy check —
/// one list per entity, shared by the records of all its families.
type Keyed<'d> = (&'d Entity, Arc<[BasicKey]>);

/// Map key: `(blocking key value, function id)` — ordered by key value
/// first, exactly the order the smallest-key rule compares by.
type BasicKey = (String, u8);

struct BasicMapper<'d> {
    families: &'d [BlockingFamily],
}

impl<'d> Mapper for BasicMapper<'d> {
    type Input = &'d Entity;
    type Key = BasicKey;
    type Value = Keyed<'d>;

    fn map(
        &self,
        entity: &&'d Entity,
        ctx: &mut TaskContext,
        out: &mut Emitter<BasicKey, Keyed<'d>>,
    ) {
        let entity = *entity;
        let keys: Arc<[BasicKey]> = self
            .families
            .iter()
            .enumerate()
            .map(|(f, fam)| (fam.root_key(entity), f as u8))
            .collect();
        for key in keys.iter() {
            ctx.charge(ctx.cost_model.read_per_entity * 0.25);
            out.emit(key.clone(), (entity, Arc::clone(&keys)));
        }
    }
}

struct BasicReducer<'a> {
    families: &'a [BlockingFamily],
    rule: PreparedRule,
    mechanism: MechanismKind,
    basic: &'a BasicConfig,
}

/// One block's members, ascending by entity id. As in job 2, the resolve
/// loop names a member by its position here, so ids tie-break and order as
/// they would themselves and every per-pair access is a slice index.
struct Members<'p>(Vec<&'p Keyed<'p>>);

impl EntityLookup for Members<'_> {
    fn entity(&self, local: u32) -> &Entity {
        self.0[local as usize].0
    }
}

impl<'a> PartitionReducer for BasicReducer<'a> {
    type Key = BasicKey;
    type Value = Keyed<'a>;
    type Output = (EntityId, EntityId);

    fn reduce_partition(
        &self,
        partition: &pper_mapreduce::GroupedPartition<BasicKey, Keyed<'a>>,
        ctx: &mut TaskContext,
        out: &mut Vec<(EntityId, EntityId)>,
    ) {
        // Entities are prepared once per task (one recurring across the
        // task's blocks reuses its signatures) and every pair comparison
        // goes through the same reusable scratch.
        let mut sim = (PreparedCache::new(), SimScratch::new());
        for (key, values) in partition.iter() {
            self.reduce_block(key, values, ctx, out, &mut sim);
        }
    }
}

impl BasicReducer<'_> {
    fn reduce_block(
        &self,
        key: &BasicKey,
        values: &[Keyed<'_>],
        ctx: &mut TaskContext,
        out: &mut Vec<(EntityId, EntityId)>,
        (cache, scratch): &mut (PreparedCache<EntityId>, SimScratch),
    ) {
        if values.len() < 2 {
            return;
        }
        let family = &self.families[key.1 as usize];
        let mut members = Members(values.iter().collect());
        members.0.sort_unstable_by_key(|(e, _)| e.id);
        let locals: Vec<u32> = (0..members.0.len() as u32).collect();
        // `slots[l]` is member `l`'s slot in the task's cache, or `NO_SLOT`
        // until its first comparison in this block.
        let mut slots = vec![NO_SLOT; locals.len()];

        let sorted =
            pper_progressive::sort_by_attrs(&locals, &[family.levels[0].attr, 0], &members);
        ctx.charge(ctx.cost_model.block_additional_cost(sorted.len()));

        let mut run = self.mechanism.start(sorted, self.basic.window);
        let mut stop = StopState::new(self.basic.stop_rule());
        let mut tally = BlockTally::default();
        while let Some((a, b)) = run.next_pair() {
            // Kolb-style smallest-key rule: resolve the pair only in the
            // common block with the smallest (key, function) value.
            let (ia, ib) = (a as usize, b as usize);
            let (&(ea, ref keys_a), &(eb, ref keys_b)) = (members.0[ia], members.0[ib]);
            let smallest_common = keys_a.iter().filter(|k| keys_b.contains(k)).min();
            if smallest_common != Some(key) {
                tally.skipped_redundant += 1;
                continue;
            }
            ctx.charge(ctx.cost_model.resolve_pair);
            tally.compared += 1;
            let sa = memo_slot(cache, &self.rule, &mut slots[ia], ea);
            let sb = memo_slot(cache, &self.rule, &mut slots[ib], eb);
            let is_dup = self.rule.matches(cache.at(sa), cache.at(sb), scratch);
            run.feedback(is_dup);
            if is_dup {
                tally.duplicates += 1;
                ctx.log_event(EVENT_DUPLICATE, crate::pack_pair(ea.id, eb.id));
                out.push((ea.id.min(eb.id), ea.id.max(eb.id)));
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

        let mut duplicates = result.outputs;
        duplicates.sort_unstable();
        duplicates.dedup();

        Ok(ErRunResult::from_timeline(
            ds,
            &result.timeline,
            duplicates,
            result.total_virtual_cost,
            cfg.cost_model.job_startup + result.map_phase.makespan,
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
