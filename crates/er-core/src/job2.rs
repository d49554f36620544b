//! The second MR job (§III-B): schedule-driven progressive resolution.
//!
//! * **Map setup** — generate the progressive schedule from the first job's
//!   statistics (every map task derives the identical schedule; here the
//!   driver computes it once and shares it, charging each task the
//!   generation cost against its virtual clock).
//! * **Map** — for each entity, emit one record per tree containing it,
//!   keyed by the tree's sequence value `SQ` and carrying the entity plus
//!   its dominance list (§V).
//! * **Partition** — a range partitioner over `SQ` routes every tree to its
//!   scheduled reduce task.
//! * **Reduce (whole partition)** — ingest the task's trees, then walk the
//!   task's *block schedule*: for each block, materialize its members,
//!   sort them by the blocking attribute, run the configured mechanism with
//!   the level's window, and resolve pairs until the level's stop rule
//!   fires — skipping pairs another tree is responsible for
//!   (`SHOULD-RESOLVE`) and pairs already resolved in this tree's child
//!   blocks. Root blocks resolve fully. The task outputs each duplicate as
//!   an `(a, b)` id pair, `a < b`, as Basic's reducer does; the paper's
//!   per-α result files (§III-B) are the durable runner's checkpoint cuts
//!   (`cuts` below, every `checkpoint_every` cost units). Inside a task every
//!   entity goes by its *tree-local index* (its position in the tree's
//!   id-sorted member vector): the mechanism, `SHOULD-RESOLVE`, the
//!   resolved-pair set and the prepared signatures are all reached by
//!   position, and global ids reappear only in duplicate events, result
//!   records and checkpoints.
//!
//! ## Durable execution
//!
//! [`run_job2_stage`] is the resolution job as the durable runner
//! ([`crate::durable`]) drives it: a [`Stage`] carries what that runner
//! installs, and no other caller sets its fields.
//!
//! * **`cuts`**, a [`CutSink`]: the job runs to its end, and whenever a
//!   task finishes a block with its clock past the next grid line (and once
//!   more at its last block) it hands the sink a *delta* — blocks done, the
//!   clock, and the pairs compared and duplicates found since its previous
//!   cut. A task's deltas are numbered 0, 1, 2, … and depend on nothing but
//!   the task's own deterministic execution, so a retried attempt, a
//!   resumed task and the uninterrupted run all emit the same records.
//!   Without a sink the resolve loop tracks nothing.
//! * **`resume`**, the [`Checkpoint`] the journal's deltas fold to (see
//!   [`crate::checkpoint`]): each task replays its recorded duplicates at
//!   their original virtual costs, restores its resolved-pair sets,
//!   continues its clock from the checkpointed watermark, and resolves only
//!   the remaining blocks; a task the checkpoint holds no completed block of
//!   starts from scratch.
//!
//! [`run_job2`] is the stage with neither. Because execution is
//! deterministic, a resumed job reproduces the uninterrupted run's
//! duplicate set and timeline bit for bit.

use std::sync::Arc;

use pper_blocking::forest::EntityLookup;
use pper_blocking::BlockingFamily;
use pper_datagen::{Dataset, Entity, EntityId};
use pper_mapreduce::fxhash::{FxHashMap, FxHashSet};
use pper_mapreduce::prelude::*;
use pper_mapreduce::runtime::run_job_with_partitioner;
use pper_progressive::{LevelPolicy, PairSource, StopState};
use pper_schedule::{should_resolve, DomList, Schedule, TreeLocator};
use pper_simil::{PreparedCache, PreparedRule, SimScratch};

use crate::checkpoint::{Checkpoint, TaskCheckpoint};
use crate::config::ErConfig;
use crate::{memo_slot, BlockTally, EVENT_DUPLICATE, NO_SLOT};

/// Map output value: the dataset's own entity (borrowed — routing an entity
/// to its trees copies a pointer) and its dominance list for the target
/// tree.
type Routed<'d> = (&'d Entity, DomList);

struct RouteMapper<'d> {
    families: &'d [BlockingFamily],
    schedule: &'d Schedule,
    locator: &'d TreeLocator,
}

impl<'d> Mapper for RouteMapper<'d> {
    type Input = &'d Entity;
    type Key = u64;
    type Value = Routed<'d>;

    fn setup(&self, ctx: &mut TaskContext) {
        // Every map task generates the progressive schedule from the
        // gathered statistics (§III-B). The dominant term is sorting SL.
        let total_blocks: usize = self.schedule.trees.iter().map(|t| t.nodes.len()).sum();
        ctx.charge(ctx.cost_model.sort_cost(total_blocks) * 2.0);
        ctx.counters.incr("job2_schedules_generated");
    }

    fn map(&self, entity: &&'d Entity, ctx: &mut TaskContext, out: &mut Emitter<u64, Routed<'d>>) {
        let entity = *entity;
        self.locator
            .route(self.schedule, self.families, entity, |tree, list| {
                ctx.charge(ctx.cost_model.read_per_entity * 0.25);
                out.emit(self.schedule.tree_sq[tree], (entity, list));
            });
    }
}

/// An entity's position in its tree's id-sorted member vector. The resolve
/// loop works on these *tree-local indices* throughout — the mechanism is
/// started on them and every per-pair access is a slice index — and converts
/// to global [`EntityId`]s only where something leaves the task: duplicate
/// events, result records and checkpoint cuts. Ascending local index is
/// ascending entity id, so id tie-breaks and `(min, max)` pair keys order
/// exactly as they would on global ids.
type Local = u32;

/// Per-tree resolve state. Entities and dominance lists stay borrowed from
/// the job's flat shuffle partition — a task restoring from checkpoint or
/// re-running after a fault reads the same arena, no copies.
struct TreeState<'p> {
    /// The tree's members, ascending by entity id; indexed by [`Local`].
    entities: Vec<&'p Entity>,
    /// `doms[l]` is the dominance list routed with `entities[l]`.
    doms: Vec<&'p DomList>,
    /// `slots[l]` is the member's slot in the task's [`PreparedCache`], or
    /// [`NO_SLOT`] until its first comparison in this tree.
    slots: Vec<u32>,
    /// The members in the tree's sort order, built at the first block the
    /// task resolves of the tree (empty until then). Every block of a tree
    /// sorts by the same total order — the family's blocking attribute, then
    /// the title, then local index — so a block's sorted member list is this
    /// one filtered by the block's key.
    order: Vec<Local>,
    /// Pairs already *compared* in this tree, so a parent block never
    /// repeats its children's work (§III-A): local indices through
    /// [`crate::pack_pair`], smaller index in the high half, so packed keys
    /// sort like the `(a, b)` id pairs they stand for.
    resolved: FxHashSet<u64>,
}

impl<'p> TreeState<'p> {
    fn ingest(values: &'p [Routed<'_>]) -> Self {
        let mut members: Vec<&'p Routed<'_>> = values.iter().collect();
        members.sort_unstable_by_key(|(entity, _)| entity.id);
        debug_assert!(
            members.windows(2).all(|w| w[0].0.id < w[1].0.id),
            "a tree receives each of its entities once"
        );
        Self {
            entities: members.iter().map(|(entity, _)| *entity).collect(),
            doms: members.iter().map(|(_, dom)| dom).collect(),
            slots: vec![NO_SLOT; members.len()],
            order: Vec::new(),
            resolved: FxHashSet::default(),
        }
    }

    /// The members of the block `key` names at `level`, in sort order.
    fn sorted_block(&mut self, family: &BlockingFamily, level: usize, key: &str) -> Vec<Local> {
        if self.order.is_empty() {
            // Compound SNM sort key: the blocking attribute, ties broken by
            // the most discriminative attribute (index 0, the title).
            let all: Vec<Local> = (0..self.entities.len() as Local).collect();
            self.order = pper_progressive::sort_by_attrs(&all, &[family.levels[0].attr, 0], &*self);
        }
        // Prefix nesting makes the level key sufficient.
        self.order
            .iter()
            .copied()
            .filter(|&l| family.key_is(self.entities[l as usize], level, key))
            .collect()
    }

    /// Global id of a member.
    #[inline]
    fn id(&self, local: Local) -> EntityId {
        self.entities[local as usize].id
    }

    /// Take a checkpoint's pairs back in.
    fn restore_resolved(&mut self, pairs: &[(EntityId, EntityId)]) {
        let entities = &self.entities;
        let local = |id: EntityId| entities.binary_search_by_key(&id, |e| e.id).ok();
        // A pair naming an entity this tree never received can never be
        // generated here either: nothing to skip, so it is dropped.
        self.resolved.extend(
            pairs.iter().filter_map(|&(a, b)| {
                Some(crate::pack_pair(local(a)? as Local, local(b)? as Local))
            }),
        );
    }
}

/// Block sorting looks members up by their local index.
impl EntityLookup for TreeState<'_> {
    fn entity(&self, local: Local) -> &Entity {
        self.entities[local as usize]
    }
}

/// Everything one reduce task holds while it resolves its block schedule.
struct TaskState<'p> {
    /// Resolve state of each tree routed to the task, by tree id.
    trees: FxHashMap<usize, TreeState<'p>>,
    /// An entity's signatures are built on its first comparison in the
    /// task and reused across every block, of any tree, the task resolves
    /// it in; a tree reaches them through its slot vector.
    prepared: PreparedCache<EntityId>,
}

/// What the durable runner installs on the resolution job (see the module
/// docs' durable-execution section). The default stage is the plain job.
#[derive(Clone, Copy, Default)]
pub struct Stage<'a> {
    /// Restore each task from this checkpoint and resolve only the blocks
    /// past its watermark; `None` (or a task entry with no completed block)
    /// starts from the first block.
    pub resume: Option<&'a Checkpoint>,
    /// Cut checkpoints in-line, as per-task deltas, while the job runs on.
    pub cuts: Option<&'a CutSink<'a>>,
}

/// Where the resolution job's reduce tasks hand the checkpoint deltas they
/// cut in-line (see the module docs' durable-execution section).
pub struct CutSink<'a> {
    /// Spacing of the grid on each task's own virtual clock: a task cuts at
    /// the first block boundary at or past each line it crosses.
    pub every: f64,
    /// Per task, the number its first delta carries: how many of the task's
    /// deltas the checkpoint being resumed already holds, zero without one.
    pub first_seq: &'a [u32],
    /// Receives `(seq, delta)` on the reduce task's worker thread. The
    /// delta is a [`TaskCheckpoint`] whose `resolved` and `duplicates` hold
    /// only what was added since the task's previous cut, the pairs in
    /// comparison order.
    pub emit: &'a (dyn Fn(u32, TaskCheckpoint) + Sync),
}

impl CutSink<'_> {
    /// The first grid line past `clock`: where a task's last cut (or its
    /// start) stands decides its next, so a resumed task cuts where the
    /// uninterrupted one would have.
    fn line_after(&self, clock: f64) -> f64 {
        ((clock / self.every).floor() + 1.0) * self.every
    }
}

/// One reduce task's side of a [`CutSink`]: what it has compared and found
/// since its last cut, and where the next one is due.
struct Cutter<'a> {
    sink: &'a CutSink<'a>,
    /// Number of the next delta.
    seq: u32,
    /// The grid line the task's clock has to reach for the next cut.
    next_line: f64,
    /// Pairs compared since the last cut, per tree.
    pending: Vec<(usize, Vec<(EntityId, EntityId)>)>,
    /// Duplicates found since the last cut, as `(task-local cost, a, b)`.
    duplicates: Vec<(f64, EntityId, EntityId)>,
}

impl<'a> Cutter<'a> {
    fn new(sink: &'a CutSink<'a>, task: usize, clock: f64) -> Self {
        Self {
            sink,
            seq: sink.first_seq[task],
            next_line: sink.line_after(clock),
            pending: Vec::new(),
            duplicates: Vec::new(),
        }
    }

    /// Take in the pairs a finished block compared (packed local indices).
    fn compared(&mut self, tree: usize, state: &TreeState<'_>, block: &[u64]) {
        if block.is_empty() {
            return;
        }
        let at = match self.pending.iter().position(|&(t, _)| t == tree) {
            Some(at) => at,
            None => {
                self.pending.push((tree, Vec::new()));
                self.pending.len() - 1
            }
        };
        self.pending[at].1.extend(block.iter().map(|&key| {
            let (a, b) = crate::unpack_pair(key);
            (state.id(a), state.id(b))
        }));
    }

    /// A block boundary: cut if a grid line was crossed or the task is done.
    fn block_done(&mut self, task: usize, blocks_done: usize, clock: f64, last: bool) {
        if clock < self.next_line && !last {
            return;
        }
        let mut resolved = std::mem::take(&mut self.pending);
        resolved.sort_unstable_by_key(|&(tree, _)| tree);
        let delta = TaskCheckpoint {
            task,
            blocks_done,
            clock,
            resolved,
            duplicates: std::mem::take(&mut self.duplicates),
        };
        (self.sink.emit)(self.seq, delta);
        self.seq += 1;
        self.next_line = self.sink.line_after(clock);
    }
}

struct ResolveReducer<'a> {
    families: &'a [BlockingFamily],
    schedule: &'a Schedule,
    /// `SQ → tree id`, the inverse of `schedule.tree_sq`.
    sq_to_tree: &'a FxHashMap<u64, usize>,
    policy: &'a LevelPolicy,
    rule: PreparedRule,
    mechanism: crate::config::MechanismKind,
    stage: Stage<'a>,
}

impl<'a> PartitionReducer for ResolveReducer<'a> {
    type Key = u64;
    type Value = Routed<'a>;
    type Output = (EntityId, EntityId);

    fn reduce_partition(
        &self,
        partition: &pper_mapreduce::GroupedPartition<u64, Routed<'a>>,
        ctx: &mut TaskContext,
        out: &mut Vec<(EntityId, EntityId)>,
    ) {
        let mut state = self.ingest(partition, ctx);
        self.resolve(&mut state, ctx, out);
    }
}

impl<'a> ResolveReducer<'a> {
    fn new(
        config: &'a ErConfig,
        schedule: &'a Schedule,
        sq_to_tree: &'a FxHashMap<u64, usize>,
        stage: Stage<'a>,
    ) -> Self {
        Self {
            families: &config.families,
            schedule,
            sq_to_tree,
            policy: &config.policy,
            rule: PreparedRule::new(config.rule.clone()),
            mechanism: config.mechanism,
            stage,
        }
    }

    /// Ingest the task's trees from its shuffle partition.
    fn ingest<'p>(
        &self,
        partition: &'p pper_mapreduce::GroupedPartition<u64, Routed<'_>>,
        ctx: &mut TaskContext,
    ) -> TaskState<'p> {
        let mut trees = FxHashMap::default();
        for (sq, values) in partition.iter() {
            let Some(&tree) = self.sq_to_tree.get(sq) else {
                ctx.counters.incr("job2_unroutable_groups");
                continue;
            };
            trees.insert(tree, TreeState::ingest(values));
        }
        TaskState {
            trees,
            prepared: PreparedCache::new(),
        }
    }

    /// Walk the task's block schedule over the ingested trees.
    fn resolve(
        &self,
        state: &mut TaskState<'_>,
        ctx: &mut TaskContext,
        out: &mut Vec<(EntityId, EntityId)>,
    ) {
        let task = ctx.id.index;
        let n_families = self.families.len();
        let TaskState {
            trees: states,
            prepared,
        } = state;

        // A task the checkpoint holds no completed block of has nothing to
        // restore: it starts from scratch, on its natural clock.
        let resume = self
            .stage
            .resume
            .map(|cp| &cp.tasks[task])
            .filter(|tc| tc.blocks_done > 0);

        if let Some(tc) = resume {
            // Work redone before the clock override (startup, shuffle,
            // schedule ingestion) is the price of resuming.
            ctx.counters
                .add("resume_replay_cost", ctx.now().round() as u64);
            // Restore the resolved-pair sets so blocks resolved after the
            // resume still skip work the checkpointed blocks already did.
            for (tree, pairs) in &tc.resolved {
                if let Some(state) = states.get_mut(tree) {
                    state.restore_resolved(pairs);
                }
            }
            // Replay checkpointed duplicates at their original task-local
            // costs, so the timeline and the output are the interrupted
            // run's.
            for &(cost, a, b) in &tc.duplicates {
                ctx.events
                    .push(cost, EVENT_DUPLICATE, crate::pack_pair(a, b));
                out.push((a.min(b), a.max(b)));
                ctx.counters.incr("duplicates_found");
                ctx.counters.incr("resume_replayed_duplicates");
            }
            // Continue the virtual clock from the checkpointed watermark;
            // the remaining blocks then land on exactly the costs the
            // uninterrupted run would have charged.
            ctx.clock = CostClock::with_offset(tc.clock);
        }

        let resumed_blocks = resume.map_or(0, |tc| tc.blocks_done);
        // In-line cuts hand over what happened since the previous one: what
        // was restored above is durable already. Pairs and duplicates are
        // logged only for a cut to take.
        let mut cutter = self
            .stage
            .cuts
            .map(|sink| Cutter::new(sink, task, ctx.now()));

        let mut scratch = SimScratch::new();

        let blocks = &self.schedule.block_order[task];
        for (block_idx, block) in blocks.iter().enumerate() {
            if block_idx < resumed_blocks {
                // Already resolved before the interruption; its charges are
                // part of the checkpointed clock.
                ctx.counters.incr("job2_blocks_skipped_resumed");
                continue;
            }
            'block: {
                let Some(state) = states.get_mut(&block.tree) else {
                    // Tree received no entities (cannot happen for real trees).
                    break 'block;
                };
                let plan_tree = &self.schedule.trees[block.tree];
                let node = &plan_tree.nodes[block.node];
                let family = &self.families[plan_tree.family];

                // Materialize the block — members of the tree whose key at
                // the node's level equals the node's key — already in hint
                // order (sorted by the blocking attribute).
                let sorted = state.sorted_block(family, node.level, &node.key);
                ctx.charge(ctx.cost_model.read_per_entity * state.entities.len() as f64);
                if sorted.len() < 2 {
                    break 'block;
                }
                ctx.charge(ctx.cost_model.block_additional_cost(sorted.len()));

                // Root-ness follows the scheduling tree: a split sub-tree's root
                // is promoted to full root-style resolution (§IV-C2). Leaf-ness
                // follows the blocking hierarchy: a parent whose children were
                // split away keeps its mid-level window — its sub-blocks still
                // exist, they are just resolved in another task.
                let is_root = node.is_root();
                let is_leaf = node.hier_leaf;
                let window = self.policy.window(is_root, is_leaf);
                let mut stop = StopState::new(self.policy.stop_rule(is_root, sorted.len()));
                let mut run = self.mechanism.start(sorted, window);
                let mut block_added: Vec<u64> = Vec::new();
                let mut tally = BlockTally::default();

                while let Some((a, b)) = run.next_pair() {
                    let key = crate::pack_pair(a, b);
                    if state.resolved.contains(&key) {
                        tally.skipped_resolved += 1;
                        continue;
                    }
                    let (ia, ib) = (a as usize, b as usize);
                    if !should_resolve(state.doms[ia], state.doms[ib], plan_tree.family, n_families)
                    {
                        tally.skipped_redundant += 1;
                        continue;
                    }
                    ctx.charge(ctx.cost_model.resolve_pair);
                    tally.compared += 1;
                    state.resolved.insert(key);
                    if cutter.is_some() {
                        block_added.push(key);
                    }
                    let (ea, eb) = (state.entities[ia], state.entities[ib]);
                    let sa = memo_slot(prepared, &self.rule, &mut state.slots[ia], ea);
                    let sb = memo_slot(prepared, &self.rule, &mut state.slots[ib], eb);
                    let is_dup = self
                        .rule
                        .matches(prepared.at(sa), prepared.at(sb), &mut scratch);
                    run.feedback(is_dup);
                    if is_dup {
                        tally.duplicates += 1;
                        ctx.log_event(EVENT_DUPLICATE, crate::pack_pair(ea.id, eb.id));
                        out.push((ea.id.min(eb.id), ea.id.max(eb.id)));
                        if let Some(cutter) = &mut cutter {
                            cutter.duplicates.push((ctx.now(), ea.id, eb.id));
                        }
                    }
                    if stop.observe(is_dup) {
                        ctx.counters.incr("blocks_stopped_early");
                        break;
                    }
                }
                tally.flush(&mut ctx.counters);
                ctx.counters.incr("blocks_resolved");
                if let Some(cutter) = &mut cutter {
                    cutter.compared(block.tree, state, &block_added);
                }
            }
            // The block boundary a checkpoint can sit on.
            if let Some(cutter) = &mut cutter {
                let blocks_done = block_idx + 1;
                cutter.block_done(task, blocks_done, ctx.now(), blocks_done == blocks.len());
            }
        }
    }
}

/// Result of the second job.
#[derive(Debug)]
pub struct Job2Result {
    /// All duplicate pairs found, normalized `a < b`, deduplicated.
    pub duplicates: Vec<(EntityId, EntityId)>,
    /// Global timeline of duplicate events.
    pub timeline: Vec<ProgressEvent>,
    /// Virtual completion time of the job.
    pub virtual_cost: f64,
    /// Merged counters.
    pub counters: Counters,
}

/// `SQ → tree id` for the reduce side: the inverse of `schedule.tree_sq`,
/// built once per job and shared by every reduce task.
fn sq_to_tree(schedule: &Schedule) -> FxHashMap<u64, usize> {
    schedule
        .tree_sq
        .iter()
        .enumerate()
        .map(|(t, &sq)| (sq, t))
        .collect()
}

fn assemble(result: pper_mapreduce::runtime::JobResult<(EntityId, EntityId)>) -> Job2Result {
    let mut duplicates = result.outputs;
    duplicates.sort_unstable();
    duplicates.dedup();

    Job2Result {
        duplicates,
        timeline: result.timeline,
        virtual_cost: result.total_virtual_cost,
        counters: result.counters,
    }
}

/// Run the second job against a generated schedule: the default [`Stage`],
/// start to finish.
pub fn run_job2(
    ds: &Dataset,
    config: &ErConfig,
    schedule: Arc<Schedule>,
) -> Result<Job2Result, MrError> {
    run_job2_stage(ds, config, &schedule, Stage::default())
}

/// Run the second job against `schedule` with `stage` installed. A resumed
/// job runs the schedule its checkpoint carries — the watermarks index into
/// it — so it must be handed `&checkpoint.schedule` itself.
///
/// Rejected with [`MrError::Checkpoint`] before any task starts: a
/// checkpoint that fails [`Checkpoint::validate`] for this configuration or
/// arrives with another schedule, and a cut sink whose grid is not finite
/// and positive or that does not number every task.
pub fn run_job2_stage(
    ds: &Dataset,
    config: &ErConfig,
    schedule: &Schedule,
    stage: Stage<'_>,
) -> Result<Job2Result, MrError> {
    if let Some(checkpoint) = stage.resume {
        checkpoint.validate(config.machines)?;
        if !std::ptr::eq(schedule, &checkpoint.schedule) {
            return Err(MrError::Checkpoint(
                "a resumed stage runs the schedule its checkpoint carries".into(),
            ));
        }
    }
    if let Some(sink) = stage.cuts {
        if !(sink.every.is_finite() && sink.every > 0.0) {
            return Err(MrError::Checkpoint(format!(
                "checkpoint grid spacing must be finite and positive, got {}",
                sink.every
            )));
        }
        if sink.first_seq.len() != schedule.num_tasks {
            return Err(MrError::Checkpoint(format!(
                "the cut sink numbers {} tasks, the schedule has {}",
                sink.first_seq.len(),
                schedule.num_tasks
            )));
        }
    }

    let locator = TreeLocator::new(schedule, config.families.len());
    let sq_to_tree = sq_to_tree(schedule);
    let mut cfg = config.job_config("pper-job2-resolution");
    cfg.num_reduce_tasks = Some(schedule.num_tasks);
    cfg.faults = config.faults.clone();

    let mapper = RouteMapper {
        families: &config.families,
        schedule,
        locator: &locator,
    };
    let reducer = ResolveReducer::new(config, schedule, &sq_to_tree, stage);
    let partitioner = RangePartitioner::new(schedule.sq_bounds(), |sq: &u64| *sq);
    let entities: Vec<&Entity> = ds.entities.iter().collect();
    run_job_with_partitioner(&cfg, &mapper, &reducer, &partitioner, &entities).map(assemble)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job1::run_job1;
    use pper_datagen::PubGen;
    use pper_schedule::{generate_schedule, EstimationContext};

    fn schedule_for(ds: &Dataset, config: &ErConfig) -> Arc<Schedule> {
        let job1 = run_job1(ds, config).unwrap();
        let ctx = EstimationContext {
            dataset_size: ds.len(),
            policy: &config.policy,
            cost_model: &config.cost_model,
            prob: config.prob.as_model(),
        };
        let mut sc = config.schedule.clone();
        sc.reduce_tasks = config.reduce_tasks();
        Arc::new(generate_schedule(&job1.stats, &ctx, &sc))
    }

    #[test]
    fn job2_finds_most_duplicates_without_redundancy() {
        let ds = PubGen::new(3_000, 71).generate();
        let config = ErConfig::citeseer(2);
        let schedule = schedule_for(&ds, &config);
        let result = run_job2(&ds, &config, schedule).unwrap();

        let truth = ds.truth.total_duplicate_pairs();
        let correct = result
            .duplicates
            .iter()
            .filter(|&&(a, b)| ds.truth.is_duplicate(a, b))
            .count() as u64;
        let recall = correct as f64 / truth as f64;
        assert!(
            recall > 0.8,
            "recall {recall:.3} too low ({correct}/{truth})"
        );
        // Redundancy-free: every pair compared at most once per tree, and
        // cross-tree redundancy should be a small residual (only the pairs
        // legitimately re-examined when both of a pair's trees were split).
        assert!(result.counters.get("pairs_skipped_redundant") > 0);
        // Duplicates list is deduplicated and sorted.
        assert!(result.duplicates.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn job2_timeline_is_monotone_and_matches_counters() {
        let ds = PubGen::new(1_500, 72).generate();
        let config = ErConfig::citeseer(2);
        let schedule = schedule_for(&ds, &config);
        let result = run_job2(&ds, &config, schedule).unwrap();
        assert!(result.timeline.windows(2).all(|w| w[0].cost <= w[1].cost));
        let events = result
            .timeline
            .iter()
            .filter(|e| e.kind == EVENT_DUPLICATE)
            .count() as u64;
        assert_eq!(events, result.counters.get("duplicates_found"));
    }

    #[test]
    fn stage_rejects_foreign_checkpoints() {
        let ds = PubGen::new(600, 78).generate();
        let config = ErConfig::citeseer(2);
        let schedule = schedule_for(&ds, &config);
        let cp = Checkpoint {
            schedule: (*schedule).clone(),
            job1_cost: 0.0,
            machines: config.machines,
            tasks: (0..schedule.num_tasks)
                .map(|task| TaskCheckpoint {
                    task,
                    blocks_done: 0,
                    clock: 0.0,
                    resolved: Vec::new(),
                    duplicates: Vec::new(),
                })
                .collect(),
        };
        let rejected = |schedule: &Schedule, cp: &Checkpoint| {
            let stage = Stage {
                resume: Some(cp),
                cuts: None,
            };
            matches!(
                run_job2_stage(&ds, &config, schedule, stage),
                Err(MrError::Checkpoint(_))
            )
        };
        assert!(!rejected(&cp.schedule, &cp));
        // The watermarks index into the checkpoint's schedule, no other.
        assert!(rejected(&schedule, &cp));
        let mut foreign = cp.clone();
        foreign.machines += 1;
        assert!(rejected(&foreign.schedule, &foreign));
    }

    #[test]
    fn entity_in_two_trees_of_a_task_is_prepared_once() {
        let ds = PubGen::new(1_500, 77).generate();
        let config = ErConfig::citeseer(1); // two reduce tasks: trees share them
        let schedule = schedule_for(&ds, &config);
        let locator = TreeLocator::new(&schedule, config.families.len());
        let sq_to_tree = sq_to_tree(&schedule);
        let reducer = ResolveReducer::new(&config, &schedule, &sq_to_tree, Stage::default());

        // Task 0's shuffle partition, as the route mapper would fill it.
        let mut records: Vec<(u64, Routed<'_>)> = Vec::new();
        for entity in &ds.entities {
            locator.route(&schedule, &config.families, entity, |tree, list| {
                if schedule.task_of_tree[tree] == 0 {
                    records.push((schedule.tree_sq[tree], (entity, list)));
                }
            });
        }
        let partition = pper_mapreduce::GroupedPartition::from_buckets(vec![records]);
        let id = TaskId {
            kind: TaskKind::Reduce,
            index: 0,
        };
        let mut ctx = TaskContext::new(id, config.cost_model.clone());
        let mut state = reducer.ingest(&partition, &mut ctx);
        reducer.resolve(&mut state, &mut ctx, &mut Vec::new());

        // Every (tree, member) that was compared holds a slot; the task
        // prepared one entity per *distinct* id among them.
        let mut slotted: Vec<(EntityId, u32)> = state
            .trees
            .values()
            .flat_map(|tree| {
                tree.entities
                    .iter()
                    .zip(&tree.slots)
                    .filter(|(_, &slot)| slot != NO_SLOT)
                    .map(|(e, &slot)| (e.id, slot))
            })
            .collect();
        let uses = slotted.len();
        slotted.sort_unstable();
        slotted.dedup();
        let distinct = slotted.len();
        assert!(uses > distinct, "no entity was compared in two trees");
        assert!(
            slotted.windows(2).all(|w| w[0].0 != w[1].0),
            "an entity reached two different slots"
        );
        assert_eq!(state.prepared.len(), distinct);
        assert!(ctx.counters.get("pairs_compared") > 0);
    }

    #[test]
    fn job2_deterministic_virtual_time() {
        let ds = PubGen::new(1_000, 74).generate();
        let mut c1 = ErConfig::citeseer(2);
        c1.worker_threads = Some(1);
        let mut c8 = ErConfig::citeseer(2);
        c8.worker_threads = Some(8);
        let s1 = schedule_for(&ds, &c1);
        let r1 = run_job2(&ds, &c1, s1).unwrap();
        let s8 = schedule_for(&ds, &c8);
        let r8 = run_job2(&ds, &c8, s8).unwrap();
        assert_eq!(r1.duplicates, r8.duplicates);
        assert_eq!(r1.virtual_cost, r8.virtual_cost);
    }
}
