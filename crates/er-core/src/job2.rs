//! The second MR job (§III-B): schedule-driven progressive resolution.
//!
//! * **Map setup** — generate the progressive schedule from the first job's
//!   statistics (every map task derives the identical schedule; here the
//!   driver computes it once and shares it, charging each task the
//!   generation cost against its virtual clock).
//! * **Map** — for each entity, emit one record per tree containing it,
//!   keyed by the tree's index in the schedule and carrying the entity plus
//!   its dominance list (§V), held in the record itself. Job 1's side data,
//!   which the schedule carries (the paper's distributed-cache input), names
//!   the trees from integers: routing extracts no blocking key
//!   (`TreeLocator::route`). The paper keys a record by a sequence value
//!   `SQ` that orders a streaming reducer's input; the reducer here ingests
//!   the whole partition before its first block, so the order of its groups
//!   does not matter.
//! * **Partition** — the mapper routes every tree to its scheduled reduce
//!   task, `task_of_tree`; a tree scheduled on no task of the job fails it
//!   with [`MrError::InvalidPartition`].
//! * **Reduce (whole partition)** — ingest the task's trees, then walk the
//!   task's *block schedule*. A tree's first block sorts the tree by the
//!   ranks job 1 gave its root block (blocking attribute, then title, then
//!   id) and files every member under its deepest node and each node above
//!   it, in one pass over that order, both from the side data
//!   (`TreeLocator::seat`); each block takes its members, runs the
//!   configured mechanism with the level's window, and resolves pairs until
//!   the level's stop rule fires — skipping pairs another tree is
//!   responsible for (`SHOULD-RESOLVE`) and pairs already resolved in this
//!   tree's child blocks (a tree's last block records none: no later block
//!   of the tree reads them). Root blocks resolve fully. The task records each
//!   duplicate once, as a progress event carrying the packed id pair, as
//!   Basic's reducer does, and its duplicate list is the timeline's; the
//!   job's one output is why a resumed task refused its fold. Inside a task
//!   every entity goes by its *tree-local index* (its position in the
//!   tree's id-sorted member vector): the mechanism, `SHOULD-RESOLVE`, the
//!   resolved-pair set and the prepared signatures are all reached by
//!   position, and global ids reappear only in duplicate events, checkpoint
//!   cuts and the stage observer's pairs.
//!
//! ## Durable execution
//!
//! [`run_job2_stage`] is the resolution job as the durable runner
//! ([`crate::durable`]) and the tests drive it: a [`Stage`] carries what they
//! install, and no other caller sets its fields.
//!
//! * **`cuts`**, a [`CutSink`]: the job runs to its end, and whenever a
//!   task finishes a block with its clock past the next grid line (and once
//!   more at its last block) it hands the sink a journal
//!   [`JournalEvent::CheckpointCut`] record, a *delta* — blocks done, the
//!   clock, and the duplicates found since its previous cut. A task's
//!   records are numbered 0, 1, 2, … and depend on nothing but the task's
//!   own deterministic execution, so a retried attempt, a resumed task and
//!   the uninterrupted run all emit the same records. Without a sink the
//!   resolve loop tracks nothing.
//! * **`resume`**, the journal's fold of those records, one
//!   [`TaskProgress`] per task: each task replays its recorded duplicates at
//!   their original virtual costs, continues its clock from the
//!   checkpointed watermark, and resolves only the remaining blocks; a task
//!   the fold holds no completed block of starts from scratch. The cuts do
//!   not list the pairs compared, so the resolved-pair sets come back by
//!   *replay*: every done block runs through the same block body — sorted
//!   members, mechanism, resolved-pair check, `SHOULD-RESOLVE`, stop rule —
//!   with the matcher's decision replaced by membership in the task's
//!   journaled duplicates. A replayed pair charges nothing and logs
//!   nothing; PSNM's feedback and the stop rule see what they saw in the
//!   original run, so the block's pair stream, and every tree's set, is
//!   the original's. The duplicates the replay meets must be the fold's,
//!   in order, or the stage fails with [`MrError::Checkpoint`].
//! * **`observer`**: called with `(tree, a, b)`, `a < b`, for every pair the
//!   matcher decides (never for a replayed one) — the tap the tests hold
//!   job 2's pair coverage to.
//!
//! The grid, `checkpoint_every` cost units on each task's own clock, is the
//! paper's α (§III-B: a reduce task outputs its results "to a different
//! file every α units of cost"), and a cut's duplicates are that file: the
//! task's duplicate events logged since its previous cut, at the task-local
//! costs they were logged at.
//!
//! [`run_job2`] is the stage with none of them. Because execution is
//! deterministic, a resumed job reproduces the uninterrupted run's
//! duplicate set and timeline bit for bit (`tests/durable.rs`, and
//! `tests/resume_process.rs` across processes).

use std::sync::Arc;

use pper_blocking::BlockingFamily;
use pper_datagen::{Dataset, Entity, EntityId};
use pper_journal::{JournalEvent, TaskProgress};
use pper_mapreduce::cost::{
    block_additional_cost, sort_cost, KEY_PER_ENTITY, READ_PER_ENTITY, RESOLVE_PAIR, SCHEDULE_SORTS,
};
use pper_mapreduce::fxhash::{FxHashMap, FxHashSet};
use pper_mapreduce::prelude::*;
use pper_progressive::{LevelPolicy, MechanismKind, PairSource, StopState};
use pper_schedule::{should_resolve, DomList, PlanTree, Schedule, TreeLocator};
use pper_simil::{PreparedCache, PreparedRule, SimScratch};

use crate::config::ErConfig;
use crate::{memo_slot, BlockTally, NO_SLOT};

/// Map output value: the dataset's own entity (borrowed — routing an entity
/// to its trees copies a pointer) and its dominance list for the target
/// tree (a fixed array — routing allocates nothing per record).
type Routed<'d> = (&'d Entity, DomList);

struct RouteMapper<'d> {
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
        ctx.charge(sort_cost(total_blocks) * SCHEDULE_SORTS);
        ctx.counters.incr("job2_schedules_generated");
    }

    fn map(&self, entity: &&'d Entity, ctx: &mut TaskContext, out: &mut Emitter<u64, Routed<'d>>) {
        let entity = *entity;
        self.locator.route(entity, |tree, list| {
            ctx.charge(KEY_PER_ENTITY);
            out.emit(tree as u64, (entity, list));
        });
    }

    /// The task the schedule runs the tree on.
    fn partition(&self, tree: &u64, _num_reduce: usize) -> usize {
        self.schedule.task_of_tree[*tree as usize]
    }
}

/// An entity's position in its tree's id-sorted member vector. The resolve
/// loop works on these *tree-local indices* throughout — the mechanism is
/// started on them and every per-pair access is a slice index — and converts
/// to global [`EntityId`]s only where something leaves the task: duplicate
/// events, checkpoint cuts and the stage observer's pairs. Ascending local
/// index is ascending entity id, so id tie-breaks and `(min, max)` pair keys
/// order exactly as they would on global ids.
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
    /// `blocks[n]` is the members of the tree's node `n` in the tree's sort
    /// order, filed at the first block the task resolves of the tree (empty
    /// until then) and taken when node `n` is resolved. Every block of a
    /// tree sorts by the same total order — the family's blocking attribute,
    /// then the title, then id, in which job 1 ranked the root block — so
    /// the tree is sorted once, by rank, and a block's list is that order
    /// restricted to the block's members.
    blocks: Vec<Vec<Local>>,
    /// Pairs already *compared* in this tree, so a parent block never
    /// repeats its children's work (§III-A): local indices through
    /// [`crate::pack_pair`], smaller index in the high half, so packed keys
    /// sort like the `(a, b)` id pairs they stand for. Only a later block of
    /// the same tree reads the set, so the pairs of the tree's last block in
    /// the task's schedule are never inserted: it holds exactly what the
    /// tree's other blocks compared (a resumed task's replayed blocks
    /// included), and stays empty for a tree of one block.
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
            blocks: Vec::new(),
            resolved: FxHashSet::default(),
        }
    }

    /// The members of node `node` of the schedule's tree `t`, in sort order.
    /// The tree's first block sorts the members and files every block of
    /// the tree.
    fn take_block(
        &mut self,
        locator: &TreeLocator,
        t: usize,
        tree: &PlanTree,
        node: usize,
    ) -> Vec<Local> {
        if self.blocks.is_empty() {
            self.file(locator, t, tree);
        }
        std::mem::take(&mut self.blocks[node])
    }

    /// Sort the schedule's tree `t` by rank and file each member under
    /// every node from its deepest one up, both from job 1's side data
    /// (`TreeLocator::seat`). The root block is the whole order: a tree
    /// receives exactly its root block's members (`TreeLocator::route`).
    /// Going through the order once, every block keeps the order's order.
    fn file(&mut self, locator: &TreeLocator, t: usize, tree: &PlanTree) {
        // Each member's deepest node, by local index, and its rank packed
        // with its local index into one sort key (ranks are distinct within
        // a tree). Routing only sends a tree entities job 1 placed in it.
        let mut deepest: Vec<u32> = Vec::with_capacity(self.entities.len());
        let mut keyed: Vec<u64> = Vec::with_capacity(self.entities.len());
        for (l, entity) in (0..Local::MAX).zip(&self.entities) {
            let (rank, node) = locator
                .seat(entity.id, tree.family, t)
                .unwrap_or((u32::MAX, 0));
            deepest.push(node as u32);
            keyed.push(u64::from(rank) << 32 | u64::from(l));
        }
        keyed.sort_unstable();
        let order: Vec<Local> = keyed.iter().map(|&key| key as Local).collect();
        drop(keyed);
        // Node 0 is the root; it takes the order itself, once it is filed.
        self.blocks = std::iter::once(Vec::new())
            .chain(
                tree.nodes[1..]
                    .iter()
                    .map(|node| Vec::with_capacity(node.size)),
            )
            .collect();
        for &l in &order {
            let mut node = deepest[l as usize] as usize;
            while let Some(parent) = tree.nodes[node].parent {
                self.blocks[node].push(l);
                node = parent;
            }
        }
        self.blocks[0] = order;
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

/// What the durable runner and the tests install on the resolution job (see
/// the module docs' durable-execution section). The default stage is the
/// plain job.
#[derive(Clone, Copy, Default)]
pub struct Stage<'a> {
    /// The journal's fold of each task's cuts, by task: restore each task
    /// from its entry and resolve only the blocks past its watermark; `None`
    /// (or an entry with no completed block) starts from the first block.
    pub resume: Option<&'a [TaskProgress]>,
    /// Cut checkpoints in-line, as per-task deltas, while the job runs on.
    pub cuts: Option<&'a CutSink<'a>>,
    /// Called on the reduce task's worker thread with `(tree, a, b)`,
    /// `a < b`, once for every pair the matcher decides, never for a pair a
    /// resumed task replays.
    pub observer: Option<&'a (dyn Fn(u32, EntityId, EntityId) + Sync)>,
}

/// Where the resolution job's reduce tasks hand the checkpoint deltas they
/// cut in-line (see the module docs' durable-execution section).
pub struct CutSink<'a> {
    /// Spacing of the grid on each task's own virtual clock: a task cuts at
    /// the first block boundary at or past each line it crosses.
    pub every: f64,
    /// Receives each delta on the reduce task's worker thread, as the
    /// journal's [`JournalEvent::CheckpointCut`] record: a task's first one
    /// carries the `seq` after the cuts the resumed fold holds (zero
    /// without one), its `duplicates` only what was found since the task's
    /// previous cut.
    pub emit: &'a (dyn Fn(JournalEvent) + Sync),
}

impl CutSink<'_> {
    /// The first grid line past `clock`: where a task's last cut (or its
    /// start) stands decides its next, so a resumed task cuts where the
    /// uninterrupted one would have.
    fn line_after(&self, clock: f64) -> f64 {
        ((clock / self.every).floor() + 1.0) * self.every
    }
}

/// One reduce task's side of a [`CutSink`]: how many of its events earlier
/// cuts hold, and where the next cut is due.
struct Cutter<'a> {
    sink: &'a CutSink<'a>,
    task: u32,
    /// Number of the next delta.
    seq: u32,
    /// The grid line the task's clock has to reach for the next cut.
    next_line: f64,
    /// The task's duplicate events an earlier cut (or the resumed fold)
    /// holds: the next cut takes the ones logged after them.
    logged: usize,
}

impl<'a> Cutter<'a> {
    fn new(sink: &'a CutSink<'a>, task: usize, seq: u32, clock: f64, logged: usize) -> Self {
        Self {
            sink,
            task: task as u32,
            seq,
            next_line: sink.line_after(clock),
            logged,
        }
    }

    /// A block boundary: cut if a grid line was crossed or the task is done.
    /// `events` is the task's event log, its costs still task-local.
    fn block_done(&mut self, blocks_done: usize, clock: f64, last: bool, events: &[ProgressEvent]) {
        if clock < self.next_line && !last {
            return;
        }
        let duplicates = events[self.logged..]
            .iter()
            .map(crate::found_event)
            .collect();
        self.logged = events.len();
        (self.sink.emit)(JournalEvent::CheckpointCut {
            task: self.task,
            seq: self.seq,
            blocks_done: blocks_done as u64,
            clock,
            duplicates,
        });
        self.seq += 1;
        self.next_line = self.sink.line_after(clock);
    }
}

/// A resumed task's replay of its done blocks: the matcher's decision is
/// membership in the duplicates its fold holds, and the duplicates the
/// replay meets are held to the fold's, in order.
struct Replay<'f> {
    /// The fold's duplicates, in discovery order.
    expected: &'f [(f64, EntityId, EntityId)],
    /// The same, packed, for the per-pair decision.
    found: FxHashSet<u64>,
    /// The duplicates the replay met, packed, in order.
    met: Vec<u64>,
    /// Pairs the replay decided.
    pairs: u64,
}

impl<'f> Replay<'f> {
    fn new(expected: &'f [(f64, EntityId, EntityId)]) -> Self {
        Self {
            expected,
            found: expected
                .iter()
                .map(|&(_, a, b)| crate::pack_pair(a, b))
                .collect(),
            met: Vec::new(),
            pairs: 0,
        }
    }

    /// Decide a compared pair as the original run did.
    #[inline]
    fn decide(&mut self, a: EntityId, b: EntityId) -> bool {
        self.pairs += 1;
        let key = crate::pack_pair(a, b);
        let is_dup = self.found.contains(&key);
        if is_dup {
            self.met.push(key);
        }
        is_dup
    }

    /// After the last done block: the replay met exactly the fold's
    /// duplicates, in order; otherwise the task and the first position that
    /// differs.
    fn check(&self, task: usize) -> Result<(), String> {
        let held: Vec<u64> = self
            .expected
            .iter()
            .map(|&(_, a, b)| crate::pack_pair(a, b))
            .collect();
        let len = held.len().max(self.met.len());
        let Some(at) = (0..len).find(|&i| held.get(i) != self.met.get(i)) else {
            return Ok(());
        };
        let show = |pair: Option<&u64>| match pair.map(|&key| crate::unpack_pair(key)) {
            Some((a, b)) => format!("({a}, {b})"),
            None => "nothing".to_string(),
        };
        Err(format!(
            "task {task}: replaying its checkpointed blocks meets {} as duplicate {at}, \
             but its checkpoint cuts hold {} there",
            show(self.met.get(at)),
            show(held.get(at))
        ))
    }
}

struct ResolveReducer<'a> {
    families: &'a [BlockingFamily],
    schedule: &'a Schedule,
    /// Where the schedule's blocks went; the mapper routes with it too.
    locator: TreeLocator,
    policy: &'a LevelPolicy,
    rule: PreparedRule,
    mechanism: MechanismKind,
    stage: Stage<'a>,
}

impl<'a> PartitionReducer for ResolveReducer<'a> {
    type Key = u64;
    type Value = Routed<'a>;
    /// A duplicate is recorded once, as the task's progress event; the one
    /// output a task can have is why its resumed fold was refused.
    type Output = String;

    fn reduce_partition(
        &self,
        partition: &pper_mapreduce::GroupedPartition<u64, Routed<'a>>,
        ctx: &mut TaskContext,
        refused: &mut Vec<String>,
    ) {
        let mut state = Self::ingest(partition);
        if let Err(why) = self.resolve(&mut state, ctx) {
            refused.push(why);
        }
    }
}

impl<'a> ResolveReducer<'a> {
    fn new(config: &'a ErConfig, schedule: &'a Schedule, stage: Stage<'a>) -> Self {
        Self {
            families: &config.families,
            schedule,
            locator: TreeLocator::new(schedule),
            policy: &config.policy,
            rule: PreparedRule::new(config.rule.clone()),
            mechanism: config.mechanism,
            stage,
        }
    }

    /// Ingest the task's trees from its shuffle partition, each under its
    /// key.
    fn ingest<'p>(
        partition: &'p pper_mapreduce::GroupedPartition<u64, Routed<'_>>,
    ) -> TaskState<'p> {
        let trees = partition
            .iter()
            .map(|(&tree, values)| (tree as usize, TreeState::ingest(values)))
            .collect();
        TaskState {
            trees,
            prepared: PreparedCache::new(),
        }
    }

    /// Walk the task's block schedule over the ingested trees. A resumed
    /// task replays its done blocks first, and fails with the reason if
    /// the replay does not meet its fold's duplicates.
    fn resolve(&self, state: &mut TaskState<'_>, ctx: &mut TaskContext) -> Result<(), String> {
        let task = ctx.id.index;
        let n_families = self.families.len();
        let TaskState {
            trees: states,
            prepared,
        } = state;

        // A task the fold holds no completed block of has nothing to
        // restore: it starts from scratch, on its natural clock.
        let progress = self.stage.resume.map(|tasks| &tasks[task]);
        let resume = progress.filter(|tc| tc.blocks_done > 0);

        if let Some(tc) = resume {
            // Work redone before the clock override (startup, shuffle,
            // schedule ingestion) is the price of resuming.
            ctx.counters
                .add("resume_replay_cost", ctx.now().round() as u64);
            // Replay checkpointed duplicates at their original task-local
            // costs, so the timeline is the interrupted run's.
            for &(cost, a, b) in &tc.duplicates {
                ctx.events.push(ProgressEvent {
                    cost,
                    value: crate::pack_pair(a, b),
                });
                ctx.counters.incr("duplicates_found");
                ctx.counters.incr("resume_replayed_duplicates");
            }
            // Continue the virtual clock from the checkpointed watermark;
            // the remaining blocks then land on exactly the costs the
            // uninterrupted run would have charged.
            ctx.clock = CostClock::with_offset(tc.clock);
        }

        let resumed_blocks = resume.map_or(0, |tc| tc.blocks_done as usize);
        let blocks = &self.schedule.block_order[task];
        // The blocks under the watermark are replayed, not resolved: that
        // rebuilds the resolved-pair sets the blocks after it skip by.
        let mut replay = resume.map(|tc| Replay::new(&tc.duplicates));
        // In-line cuts hand over what happened since the previous one: what
        // was restored above is durable already.
        let mut cutter = self.stage.cuts.map(|sink| {
            let seq = progress.map_or(0, |tc| tc.cuts);
            Cutter::new(sink, task, seq, ctx.now(), ctx.events.len())
        });

        let mut scratch = SimScratch::new();

        // `last[i]`: block `i` is the last of its tree in this task's
        // schedule, so nothing ever looks its pairs up in `resolved`.
        let mut seen = FxHashSet::default();
        let mut last = vec![false; blocks.len()];
        for (i, block) in blocks.iter().enumerate().rev() {
            last[i] = seen.insert(block.tree);
        }
        for (block_idx, block) in blocks.iter().enumerate() {
            let replaying = replay.is_some();
            if replaying {
                // Resolved before the interruption; its charges are part of
                // the checkpointed clock.
                ctx.counters.incr("job2_blocks_skipped_resumed");
            }
            'block: {
                let Some(state) = states.get_mut(&block.tree) else {
                    // Tree received no entities (cannot happen for real trees).
                    break 'block;
                };
                let plan_tree = &self.schedule.trees[block.tree];
                let node = &plan_tree.nodes[block.node];

                // The block's members, already in hint order (sorted by the
                // blocking attribute).
                let sorted = state.take_block(&self.locator, block.tree, plan_tree, block.node);
                if !replaying {
                    ctx.charge(READ_PER_ENTITY * state.entities.len() as f64);
                }
                if sorted.len() < 2 {
                    break 'block;
                }
                if !replaying {
                    ctx.charge(block_additional_cost(sorted.len()));
                }

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
                let mut tally = BlockTally::default();

                while let Some((a, b)) = run.next_pair() {
                    let key = crate::pack_pair(a, b);
                    if !state.resolved.is_empty() && state.resolved.contains(&key) {
                        tally.skipped_resolved += 1;
                        continue;
                    }
                    let (ia, ib) = (a as usize, b as usize);
                    if !should_resolve(state.doms[ia], state.doms[ib], plan_tree.family, n_families)
                    {
                        tally.skipped_redundant += 1;
                        continue;
                    }
                    if !last[block_idx] {
                        state.resolved.insert(key);
                    }
                    let (ea, eb) = (state.entities[ia], state.entities[ib]);
                    let is_dup = match &mut replay {
                        Some(replay) => replay.decide(ea.id, eb.id),
                        None => {
                            ctx.charge(RESOLVE_PAIR);
                            tally.compared += 1;
                            if let Some(observe) = self.stage.observer {
                                observe(block.tree as u32, ea.id.min(eb.id), ea.id.max(eb.id));
                            }
                            let sa = memo_slot(prepared, &self.rule, &mut state.slots[ia], ea);
                            let sb = memo_slot(prepared, &self.rule, &mut state.slots[ib], eb);
                            let is_dup =
                                self.rule
                                    .matches(prepared.at(sa), prepared.at(sb), &mut scratch);
                            if is_dup {
                                tally.duplicates += 1;
                                ctx.log_event(crate::pack_pair(ea.id, eb.id));
                            }
                            is_dup
                        }
                    };
                    run.feedback(is_dup);
                    if stop.observe(is_dup) {
                        if !replaying {
                            ctx.counters.incr("blocks_stopped_early");
                        }
                        break;
                    }
                }
                if !replaying {
                    tally.flush(&mut ctx.counters);
                    ctx.counters.incr("blocks_resolved");
                }
            }
            let blocks_done = block_idx + 1;
            if !replaying {
                // The block boundary a checkpoint can sit on.
                if let Some(cutter) = &mut cutter {
                    let last = blocks_done == blocks.len();
                    cutter.block_done(blocks_done, ctx.now(), last, &ctx.events);
                }
            } else if blocks_done == resumed_blocks {
                // The last done block ends the replay.
                if let Some(replay) = replay.take() {
                    ctx.counters.add("resume_replayed_pairs", replay.pairs);
                    replay.check(task)?;
                }
            }
        }
        Ok(())
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

fn assemble(result: pper_mapreduce::runtime::JobResult<String>) -> Job2Result {
    Job2Result {
        duplicates: crate::duplicates_of(&result.timeline),
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

/// Check a resumed fold against the schedule it is about to index and the
/// dataset of `entities` entities its duplicates name: one entry per task,
/// watermarks within the task's blocks, a finite non-negative clock, and
/// duplicates at finite non-negative costs, in cost order and not past the
/// clock, each a pair of two distinct entities of the dataset (in either
/// order). The fold is read from a journal, so it is outside input; what
/// only a replay can check — that the done blocks meet exactly these
/// duplicates — each task checks as it resumes.
fn check_fold(schedule: &Schedule, entities: usize, tasks: &[TaskProgress]) -> Result<(), MrError> {
    let err = |msg: String| Err(MrError::Checkpoint(msg));
    if tasks.len() != schedule.num_tasks() {
        return err(format!(
            "the journal holds {} task entries but the schedule expects {}",
            tasks.len(),
            schedule.num_tasks()
        ));
    }
    for (idx, t) in tasks.iter().enumerate() {
        let blocks = schedule.block_order[idx].len();
        if t.blocks_done > blocks as u64 {
            return err(format!(
                "task {idx} claims {} resolved blocks but its schedule has only {blocks}",
                t.blocks_done
            ));
        }
        if !t.clock.is_finite() || t.clock < 0.0 {
            return err(format!(
                "task {idx} has a non-finite or negative clock ({})",
                t.clock
            ));
        }
        for &(cost, a, b) in &t.duplicates {
            if !cost.is_finite() || cost < 0.0 {
                return err(format!(
                    "task {idx} records a duplicate at a non-finite or negative cost ({cost})"
                ));
            }
            if a == b || a.max(b) as usize >= entities {
                return err(format!(
                    "task {idx} records the duplicate ({a}, {b}), which is not two distinct \
                     entities of the {entities} in the dataset"
                ));
            }
        }
        // Duplicates in cost order, and the clock not before the last.
        let costs: Vec<f64> = t.duplicates.iter().map(|d| d.0).chain([t.clock]).collect();
        if let Some(w) = costs.windows(2).find(|w| w[1] < w[0]) {
            return err(format!(
                "task {idx} records cost {} after {}: its duplicates must be in cost \
                 order and not past its clock {}",
                w[1], w[0], t.clock
            ));
        }
    }
    Ok(())
}

/// The runtime configuration of the resolution job: the pipeline's, with
/// its fault plan.
fn job_config(config: &ErConfig) -> JobConfig {
    let mut cfg = config.job_config("pper-job2-resolution");
    cfg.faults = config.faults.clone();
    cfg
}

/// Refuse a fault plan the resolution job on `ds` cannot run
/// ([`MrError::InvalidFaultPlan`]) by the rule the runtime applies when the
/// job starts — so a caller can refuse it before job 1 runs.
pub(crate) fn check_faults(ds: &Dataset, config: &ErConfig) -> Result<(), MrError> {
    job_config(config).check_faults(ds.len())
}

/// Refuse a checkpoint grid whose spacing `every` is not finite and
/// positive ([`MrError::Checkpoint`]).
pub(crate) fn check_grid(every: f64) -> Result<(), MrError> {
    if every.is_finite() && every > 0.0 {
        Ok(())
    } else {
        Err(MrError::Checkpoint(format!(
            "the checkpoint grid's spacing (checkpoint_every) must be finite and positive, \
             got {every}"
        )))
    }
}

/// Run the second job against `schedule` with `stage` installed. A resumed
/// job runs the schedule its fold was cut against — the watermarks index
/// into it.
///
/// Rejected with [`MrError::Checkpoint`] before any task starts: a fold
/// that does not fit the schedule (see `check_fold`) and a cut sink whose
/// grid is not finite and positive. Rejected with it once the job has run:
/// a fold whose done blocks, replayed, do not meet its duplicates in order
/// (the error names the lowest such task and the first position that
/// differs). A configuration with more blocking families than a [`DomList`]
/// holds is [`MrError::InvalidConfig`].
///
/// Routing reads the schedule's side data, not the entities, so every run
/// first checks that the side data was made from `ds`
/// ([`pper_blocking::Placement::made_for`]): a schedule made for another
/// dataset is [`MrError::InvalidConfig`], or, for a resumed stage, the
/// [`MrError::Checkpoint`] of the lowest task whose fold holds a done block
/// — that fold would replay over the wrong records. A schedule whose task
/// count is not the cluster's reduce-task count is [`MrError::InvalidConfig`]
/// too.
pub fn run_job2_stage(
    ds: &Dataset,
    config: &ErConfig,
    schedule: &Schedule,
    stage: Stage<'_>,
) -> Result<Job2Result, MrError> {
    DomList::check_capacity(config.families.len())?;
    if !schedule.placement.made_for(ds) {
        let why = format!(
            "the schedule was made for another dataset than the {} entities given",
            ds.len()
        );
        let replaying = stage
            .resume
            .and_then(|tasks| tasks.iter().position(|tc| tc.blocks_done > 0));
        return Err(match replaying {
            Some(task) => MrError::Checkpoint(format!("task {task}: {why}")),
            None => MrError::InvalidConfig(why),
        });
    }
    if schedule.num_tasks() != config.reduce_tasks() {
        return Err(MrError::InvalidConfig(format!(
            "the schedule has {} reduce tasks but the cluster runs {}",
            schedule.num_tasks(),
            config.reduce_tasks()
        )));
    }
    if let Some(tasks) = stage.resume {
        check_fold(schedule, ds.len(), tasks)?;
    }
    if let Some(sink) = stage.cuts {
        check_grid(sink.every)?;
    }

    let cfg = job_config(config);
    let reducer = ResolveReducer::new(config, schedule, stage);
    let mapper = RouteMapper {
        schedule,
        locator: &reducer.locator,
    };
    let entities: Vec<&Entity> = ds.entities.iter().collect();
    let result = run_job(&cfg, &mapper, &reducer, &entities)?;
    // Outputs come grouped by task, in task order: the lowest refused task.
    match result.outputs.first() {
        Some(why) => Err(MrError::Checkpoint(why.clone())),
        None => Ok(assemble(result)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job1::run_job1;
    use crate::pipeline::ProgressiveEr;
    use pper_datagen::{BookGen, PubGen};
    use std::collections::BTreeSet;

    fn schedule_for(ds: &Dataset, config: &ErConfig) -> Arc<Schedule> {
        let job1 = run_job1(ds, config).unwrap();
        let pipeline = ProgressiveEr::new(config.clone());
        Arc::new(pipeline.generate_schedule(ds, &job1.stats))
    }

    /// Reduce task `task`'s shuffle partition, as the route mapper fills it.
    fn task_partition<'d>(
        ds: &'d Dataset,
        schedule: &Schedule,
        task: usize,
    ) -> pper_mapreduce::GroupedPartition<u64, Routed<'d>> {
        let locator = TreeLocator::new(schedule);
        let mut records: Vec<(u64, Routed<'_>)> = Vec::new();
        for entity in &ds.entities {
            locator.route(entity, |tree, list| {
                if schedule.task_of_tree[tree] == task {
                    records.push((tree as u64, (entity, list)));
                }
            });
        }
        pper_mapreduce::GroupedPartition::from_buckets(vec![records])
    }

    /// Ingest and resolve reduce task `task` on its own.
    fn resolve_task<'p>(
        reducer: &ResolveReducer<'_>,
        partition: &'p pper_mapreduce::GroupedPartition<u64, Routed<'_>>,
        task: usize,
    ) -> (TaskState<'p>, TaskContext) {
        let id = TaskId {
            kind: TaskKind::Reduce,
            index: task,
        };
        let mut ctx = TaskContext::new(id);
        let mut state = ResolveReducer::ingest(partition);
        reducer.resolve(&mut state, &mut ctx).unwrap();
        (state, ctx)
    }

    /// What one reduce task hands out, in order: the pairs it compared (the
    /// stage observer) and the cuts it emitted.
    enum Handed {
        Pair(u32, EntityId, EntityId),
        Cut(JournalEvent),
    }

    #[test]
    fn resolved_holds_exactly_what_a_later_block_of_the_tree_can_skip() {
        let ds = PubGen::new(3_000, 79).generate();
        let config = ErConfig::citeseer(2);
        let schedule = schedule_for(&ds, &config);
        // Every block charges its members' read cost, so each block
        // boundary crosses a line of this grid: one delta per block, whose
        // `duplicates` are the events it logged, preceded by the pairs the
        // block compared.
        let handed = std::sync::Mutex::new(Vec::new());
        let emit = |cut| handed.lock().unwrap().push(Handed::Cut(cut));
        let observe = |tree, a, b| handed.lock().unwrap().push(Handed::Pair(tree, a, b));
        let sink = CutSink {
            every: 1e-6,
            emit: &emit,
        };
        let stage = Stage {
            resume: None,
            cuts: Some(&sink),
            observer: Some(&observe),
        };
        let reducer = ResolveReducer::new(&config, &schedule, stage);

        let (mut single_block, mut remembered, mut found) = (0, 0, 0);
        for task in 0..schedule.num_tasks() {
            let partition = task_partition(&ds, &schedule, task);
            let (state, ctx) = resolve_task(&reducer, &partition, task);
            let blocks = &schedule.block_order[task];
            // Per tree, the pairs every block of it but its last compared.
            let last_of = |tree| blocks.iter().rposition(|b| b.tree == tree);
            let mut expected: FxHashMap<usize, Vec<(EntityId, EntityId)>> = FxHashMap::default();
            let mut cut_duplicates = Vec::new();
            let mut at = 0;
            for handed in std::mem::take(&mut *handed.lock().unwrap()) {
                match handed {
                    Handed::Pair(tree, a, b) => {
                        let tree = tree as usize;
                        assert_eq!(tree, blocks[at].tree, "task {task}, block {at}");
                        assert!(a < b, "task {task}: ({a}, {b})");
                        if last_of(tree) != Some(at) {
                            expected.entry(tree).or_default().push((a, b));
                        }
                    }
                    Handed::Cut(JournalEvent::CheckpointCut {
                        blocks_done,
                        duplicates,
                        ..
                    }) => {
                        at += 1;
                        assert_eq!(blocks_done, at as u64, "task {task}");
                        cut_duplicates.extend(duplicates);
                    }
                    Handed::Cut(other) => panic!("{other:?}"),
                }
            }
            assert_eq!(at, blocks.len(), "task {task}");

            // The cuts hand over the task's duplicate events, each once, in
            // order, at their task-local costs, every pair `a < b`.
            let logged: Vec<_> = ctx.events.iter().map(crate::found_event).collect();
            assert_eq!(cut_duplicates, logged, "task {task}");
            assert!(cut_duplicates.iter().all(|&(_, a, b)| a < b));
            found += logged.len();

            for (tree, tree_state) in &state.trees {
                let mut held: Vec<(EntityId, EntityId)> = tree_state
                    .resolved
                    .iter()
                    .map(|&key| {
                        let (a, b) = crate::unpack_pair(key);
                        (
                            tree_state.entities[a as usize].id,
                            tree_state.entities[b as usize].id,
                        )
                    })
                    .collect();
                held.sort_unstable();
                let mut want = expected.remove(tree).unwrap_or_default();
                want.sort_unstable();
                assert_eq!(held, want, "task {task}, tree {tree}");
                if blocks.iter().filter(|b| b.tree == *tree).count() == 1 {
                    assert!(tree_state.resolved.is_empty(), "tree {tree}");
                    single_block += 1;
                }
                remembered += usize::from(!held.is_empty());
            }
            assert!(expected.is_empty(), "task {task}: {expected:?}");
        }
        assert!(
            single_block > 0 && remembered > 0 && found > 0,
            "{single_block} / {remembered} / {found}"
        );
    }

    /// Hand out every block of `ds`'s schedule as the resolve loop does and
    /// hold each to the definition the loop had before blocks were filed:
    /// the tree's members sorted by the family's attribute and the title,
    /// then filtered by their key at the node's level; and to the size job 1
    /// counted for the node, `|X|`, which holds wherever the schedule was
    /// generated from the same dataset. Returns the number of blocks whose
    /// members are not one contiguous run of that order.
    fn assert_blocks_are_the_filtered_order(
        ds: &Dataset,
        config: &ErConfig,
        schedule: &Schedule,
    ) -> usize {
        let mut scattered = 0;
        let locator = TreeLocator::new(schedule);
        for task in 0..schedule.num_tasks() {
            let partition = task_partition(ds, schedule, task);
            let mut state = ResolveReducer::ingest(&partition);
            for block in &schedule.block_order[task] {
                let tree = &schedule.trees[block.tree];
                let family = &config.families[tree.family];
                let node = &tree.nodes[block.node];
                let state = state.trees.get_mut(&block.tree).unwrap();
                let all: Vec<Local> = (0..state.entities.len() as Local).collect();
                let order = pper_progressive::sort_by_attrs(
                    &all,
                    &[family.levels[0].attr, 0],
                    &state.entities,
                );
                let want: Vec<Local> = order
                    .iter()
                    .copied()
                    .filter(|&l| family.key_at(state.entities[l as usize], node.level) == node.key)
                    .collect();
                let got = state.take_block(&locator, block.tree, tree, block.node);
                assert_eq!(
                    got, want,
                    "task {task}, tree {}, node {}",
                    block.tree, block.node
                );
                assert_eq!(got.len(), node.size, "job 1's |X| of that node");
                let mut rank = vec![0; order.len()];
                for (r, &l) in order.iter().enumerate() {
                    rank[l as usize] = r;
                }
                scattered += usize::from(
                    got.windows(2)
                        .any(|w| rank[w[1] as usize] != rank[w[0] as usize] + 1),
                );
            }
        }
        scattered
    }

    #[test]
    fn blocks_are_the_filtered_tree_order_on_split_schedules() {
        let cases = [
            (PubGen::new(3_000, 79).generate(), ErConfig::citeseer(10)),
            (BookGen::new(3_000, 79).generate(), ErConfig::books(10)),
        ];
        for (ds, config) in &cases {
            let schedule = schedule_for(ds, config);
            assert!(
                schedule.trees.iter().any(|t| t.root_level > 0),
                "{}: no split sub-tree",
                ds.name
            );
            assert_blocks_are_the_filtered_order(ds, config, &schedule);
        }
    }

    /// Titles (and abstracts) whose keys agree only after lowercasing — by
    /// ASCII case, or through `İ`, `ẞ` and `Σ` — and raw values that sort
    /// between them, so a block's members are scattered over its tree's
    /// order rather than one run of it; and values shorter than the prefix,
    /// which key to the whole lowercased value.
    #[test]
    fn blocks_are_the_filtered_tree_order_across_case_and_unicode_variants() {
        let stems = [
            "John",
            "JOhn",
            "john",
            "JOHN",
            "joHn",
            "Joe",
            "JOE",
            "joe",
            "Jz",
            "jz",
            "İstanbul",
            "İSTANBUL",
            "istanbul",
            "ẞtraße",
            "ßtraße",
            "ẞTRAẞE",
            "Σοφία",
            "ΣΟΦΊΑ",
            "σοφία",
        ];
        let words = ["Smith data", "smythe Query", "SMITH join", "Wa graph"];
        let venues = ["VLDB", "vldb", "Vldb", "SIGMOD", "sigmod"];
        // Values shorter than every prefix: one letter in either case, and
        // empty ones.
        let short = ["J", "j", "J", "", ""];
        let entities: Vec<Entity> = (0..stems.len() * words.len() * 2)
            .map(|i| {
                format!(
                    "{} {}",
                    stems[i % stems.len()],
                    words[i / stems.len() % words.len()]
                )
            })
            .chain(short.iter().map(|s| s.to_string()))
            .enumerate()
            .map(|(i, title)| {
                let attrs = vec![
                    title.clone(),
                    title,
                    venues[i % venues.len()].to_string(),
                    String::new(),
                    String::new(),
                ];
                Entity::new(i as EntityId, attrs)
            })
            .collect();
        let n = entities.len();
        let schema = ["title", "abstract", "venue", "authors", "year"];
        let ds = Dataset::new(
            "variants",
            schema.iter().map(|s| s.to_string()).collect(),
            entities,
            pper_datagen::GroundTruth::new((0..n as u32).collect()),
        );
        let config = ErConfig::citeseer(2);
        let schedule = schedule_for(&ds, &config);
        let scattered = assert_blocks_are_the_filtered_order(&ds, &config, &schedule);
        assert!(scattered > 0, "every block is one run of its tree's order");
    }

    /// Eight titles whose level keys nest only when each char is lowercased
    /// on its own: lowercasing the cut prefix as a string keys `xyzΣabcd…`
    /// to `xyzς` at four chars (a final sigma) but to `xyzσabcd` at eight,
    /// where it meets `xyzσabcd…`, so job 1 built two `xyzσabcd` blocks of
    /// two while a filing by key handed each all four. Job 2 takes every
    /// block with job 1's `|X|` members, and with root windows that span the
    /// data it compares every co-blocked pair exactly once.
    #[test]
    fn sigma_titles_get_job_1s_blocks_and_every_co_blocked_pair_once() {
        let titles = ["xyzΣabcd", "xyzΣefgh", "xyzσabcd", "xyzσefgh"]
            .into_iter()
            .flat_map(|stem| [format!("{stem} one"), format!("{stem} two")]);
        let entities: Vec<Entity> = titles
            .enumerate()
            .map(|(i, title)| {
                let attrs = vec![
                    title.clone(),
                    title,
                    format!("v{i}"),
                    String::new(),
                    String::new(),
                ];
                Entity::new(i as EntityId, attrs)
            })
            .collect();
        let n = entities.len();
        let schema = ["title", "abstract", "venue", "authors", "year"];
        let ds = Dataset::new(
            "sigma titles",
            schema.iter().map(|s| s.to_string()).collect(),
            entities,
            pper_datagen::GroundTruth::new((0..n as u32).collect()),
        );
        let mut config = ErConfig::citeseer(1);
        config.policy.window_root = ds.len();
        let schedule = schedule_for(&ds, &config);
        let locator = TreeLocator::new(&schedule);
        for task in 0..schedule.num_tasks() {
            let partition = task_partition(&ds, &schedule, task);
            let mut state = ResolveReducer::ingest(&partition);
            for block in &schedule.block_order[task] {
                let tree = &schedule.trees[block.tree];
                let state = state.trees.get_mut(&block.tree).unwrap();
                let got = state.take_block(&locator, block.tree, tree, block.node);
                let node = &tree.nodes[block.node];
                assert_eq!(
                    got.len(),
                    node.size,
                    "tree {}, block {:?}",
                    block.tree,
                    node.key
                );
            }
        }

        // Brute force over the root keys: every pair sharing a root block.
        let mut co_blocked = Vec::new();
        for (i, a) in ds.entities.iter().enumerate() {
            for b in &ds.entities[i + 1..] {
                if config
                    .families
                    .iter()
                    .any(|f| f.root_key(a) == f.root_key(b))
                {
                    co_blocked.push((a.id, b.id));
                }
            }
        }
        let compared = std::sync::Mutex::new(Vec::new());
        let observe = |_, a, b| compared.lock().unwrap().push((a, b));
        let stage = Stage {
            observer: Some(&observe),
            ..Stage::default()
        };
        run_job2_stage(&ds, &config, &schedule, stage).unwrap();
        let mut compared = compared.into_inner().unwrap();
        compared.sort_unstable();
        assert_eq!(compared, co_blocked);
    }

    /// Job 1's `Cov` of a tree is what job 2 compares in it. With root
    /// windows that span the dataset a root block resolves every pair it
    /// holds but those `SHOULD-RESOLVE` hands to a dominating family, which
    /// are exactly the pairs `Uncov` counts; a pair a descendant block
    /// compared is skipped, not compared again. A sub-tree the schedule
    /// split off resolves its share in a tree of its own, so the distinct
    /// pairs the observer reports for a job-1 tree and every sub-tree split
    /// from it must be that tree's root `covered_pairs()`: the signatures
    /// job 1 counts by and the dominance lists job 2 skips by agree.
    #[test]
    fn job2_compares_exactly_job_1s_covered_pairs_of_every_tree() {
        let cases = [
            (PubGen::new(3_000, 83).generate(), ErConfig::citeseer(10)),
            (BookGen::new(3_000, 83).generate(), ErConfig::books(10)),
        ];
        for (ds, mut config) in cases {
            config.policy.window_root = ds.len();
            let job1 = run_job1(&ds, &config).unwrap();
            let schedule = ProgressiveEr::new(config.clone()).generate_schedule(&ds, &job1.stats);
            assert!(
                schedule.trees.iter().any(|t| t.split_from.is_some()),
                "{}: no split sub-tree",
                ds.name
            );
            // Job 1 numbers its trees' nodes in order: a schedule tree
            // belongs to the job-1 tree whose node ids hold its root's.
            let mut firsts = Vec::with_capacity(job1.stats.trees.len());
            let mut first = 0;
            for tree in &job1.stats.trees {
                firsts.push(first);
                first += tree.nodes.len() as u32;
            }
            let job1_tree = |tree: u32| {
                let origin = schedule.trees[tree as usize].nodes[0].origin;
                firsts.partition_point(|&f| f <= origin) - 1
            };

            let compared = std::sync::Mutex::new(Vec::new());
            let observe = |tree, a, b| compared.lock().unwrap().push((tree, a, b));
            let stage = Stage {
                observer: Some(&observe),
                ..Stage::default()
            };
            run_job2_stage(&ds, &config, &schedule, stage).unwrap();
            let mut per_tree = vec![BTreeSet::new(); job1.stats.trees.len()];
            for (tree, a, b) in compared.into_inner().unwrap() {
                per_tree[job1_tree(tree)].insert((a, b));
            }
            for (stats, pairs) in job1.stats.trees.iter().zip(&per_tree) {
                assert_eq!(
                    pairs.len() as u64,
                    stats.nodes[0].covered_pairs(),
                    "{}: family {} tree {:?}",
                    ds.name,
                    stats.family,
                    stats.root_key
                );
            }
        }
    }

    /// Job 2 routes by the schedule's side data, not by the entities, so a
    /// plain run refuses a schedule made for another dataset before any
    /// task runs: one of the same size from another seed, and one of
    /// another size. The dataset the schedule was made for runs.
    #[test]
    fn a_schedule_made_for_another_dataset_is_refused() {
        let config = ErConfig::books(2);
        let ds = BookGen::new(1_200, 421).generate();
        let schedule = schedule_for(&ds, &config);
        for other in [
            BookGen::new(1_200, 422).generate(),
            BookGen::new(1_100, 421).generate(),
        ] {
            match run_job2_stage(&other, &config, &schedule, Stage::default()) {
                Err(MrError::InvalidConfig(why)) => {
                    assert!(why.contains("another dataset"), "{why}");
                }
                outcome => panic!(
                    "{} entities: expected a refusal, got {:?}",
                    other.len(),
                    outcome.map(|r| r.duplicates.len())
                ),
            }
        }
        let run = run_job2_stage(&ds, &config, &schedule, Stage::default()).unwrap();
        assert!(!run.duplicates.is_empty());
    }

    /// Job 2 runs one reduce task per reduce slot, so a schedule generated
    /// for a cluster of another size is refused before any task runs.
    #[test]
    fn a_schedule_for_another_cluster_size_is_refused() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ds = PubGen::new(800, 73).generate();
        let schedule = schedule_for(&ds, &ErConfig::citeseer(2));
        let ran = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&ran);
        let mut config = ErConfig::citeseer(3);
        config.observer = Some(TaskObserver::new(move |_| {
            seen.fetch_add(1, Ordering::SeqCst);
        }));
        match run_job2_stage(&ds, &config, &schedule, Stage::default()) {
            Err(MrError::InvalidConfig(why)) => {
                assert!(
                    why.contains("4 reduce tasks") && why.contains("runs 6"),
                    "{why}"
                );
            }
            outcome => panic!(
                "expected a refusal, got {:?}",
                outcome.map(|r| r.duplicates.len())
            ),
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0);
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
        let events = result.timeline.len() as u64;
        assert_eq!(events, result.counters.get("duplicates_found"));
        assert_eq!(result.duplicates, crate::duplicates_of(&result.timeline));
    }

    /// The fold comes from a journal, outside input: before any task
    /// starts, the stage refuses one that does not fit the schedule.
    #[test]
    fn stage_rejects_a_fold_that_does_not_fit_the_schedule() {
        let ds = PubGen::new(600, 78).generate();
        let config = ErConfig::citeseer(2);
        let schedule = schedule_for(&ds, &config);
        assert!(schedule.num_tasks() >= 2);
        // Task 0 holds no completed block, so it starts from scratch and
        // the rest of its entry is never read: every check is on its own.
        let mut fold = vec![TaskProgress::default(); schedule.num_tasks()];
        fold[0].clock = 60.0;
        fold[0].duplicates = vec![(55.0, 1, 2)];
        let rejected = |fold: &[TaskProgress]| {
            let stage = Stage {
                resume: Some(fold),
                ..Stage::default()
            };
            matches!(
                run_job2_stage(&ds, &config, &schedule, stage),
                Err(MrError::Checkpoint(_))
            )
        };
        assert!(!rejected(&fold));
        assert!(rejected(&fold[1..]), "one entry short");

        let watermark = schedule.block_order[0].len() as u64 + 1;
        type Spoil<'s> = &'s dyn Fn(&mut [TaskProgress]);
        let cases: [(&str, Spoil); 6] = [
            ("watermark past the blocks", &|f| {
                f[0].blocks_done = watermark
            }),
            ("NaN clock", &|f| f[1].clock = f64::NAN),
            ("infinite clock", &|f| f[1].clock = f64::INFINITY),
            ("negative clock", &|f| f[1].clock = -1.0),
            ("duplicate past the clock", &|f| {
                f[0].duplicates.push((100.0, 3, 4))
            }),
            ("duplicates out of order", &|f| {
                f[0].duplicates.push((50.0, 3, 4))
            }),
        ];
        for (what, spoil) in cases {
            let mut spoilt = fold.clone();
            spoil(&mut spoilt);
            assert!(rejected(&spoilt), "{what}");
        }
    }

    /// A tree scheduled on a task past the schedule's is a placement error,
    /// not a tree moved onto the last task (whose block schedule does not
    /// hold it).
    #[test]
    fn a_tree_routed_past_the_tasks_is_an_error_not_a_clamp() {
        let ds = PubGen::new(600, 78).generate();
        let config = ErConfig::citeseer(2);
        let mut schedule = (*schedule_for(&ds, &config)).clone();
        let tasks = schedule.num_tasks();
        let tree = (0..schedule.trees.len())
            .find(|&t| schedule.task_of_tree[t] + 1 < tasks)
            .expect("a tree off the last task");
        schedule.task_of_tree[tree] = tasks;
        match run_job2(&ds, &config, Arc::new(schedule)) {
            Err(MrError::InvalidPartition {
                partition,
                num_reduce,
                ..
            }) => assert_eq!((partition, num_reduce), (tasks, tasks)),
            other => panic!("expected an invalid partition, got {other:?}"),
        }
    }

    #[test]
    fn entity_in_two_trees_of_a_task_is_prepared_once() {
        let ds = PubGen::new(1_500, 77).generate();
        let config = ErConfig::citeseer(1); // two reduce tasks: trees share them
        let schedule = schedule_for(&ds, &config);
        let reducer = ResolveReducer::new(&config, &schedule, Stage::default());
        let partition = task_partition(&ds, &schedule, 0);
        let (state, ctx) = resolve_task(&reducer, &partition, 0);

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
