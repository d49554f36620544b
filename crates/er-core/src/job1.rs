//! The first MR job (§III-B): progressive blocking + statistics gathering.
//!
//! * **Map** — determine each entity's blocking key values (the annotated
//!   entity `e*`) and emit one record per main blocking function, keyed by
//!   `(family, root key)` and carrying the entity's id — in memory and
//!   through the spilling shuffle alike. The root key is a [`BlockingKey`],
//!   Basic's shuffle key too: inline, so a record moves no `String`, and
//!   ordered and hashed as its text, so each block reaches the reduce task
//!   and the place in its partition a `String` key would give it.
//! * **Reduce** — called per root block: look the block's members up in the
//!   dataset by id, materialize the block's tree by applying the family's
//!   sub-blocking functions, and compute the per-node statistics (sizes,
//!   child keys, overlap information for the covered-pair computation of
//!   §IV-A). The reducer also sorts the root block once, in the order job 2
//!   resolves it (blocking attribute, title, id), and hands on every
//!   member's rank in that order and the deepest block holding it.
//!
//! The driver gathers those into [`DatasetStats::placement`], one
//! rank and block id per (entity, family): the paper's distributed-cache
//! input to job 2, which then routes, sorts and files by these integers and
//! never extracts a key. The map output doubles as the "annotated dataset":
//! keys are cheap to recompute from attribute values, so no intermediate
//! file is materialized (a pure representation choice — the information
//! content matches the paper's annotated dataset). The reducer interns its
//! members' dominating root keys as `u32` [`Signatures`] for the `OLP`
//! counts, and splits the tree by [`BlockingKey`]s too: the only `String`s
//! it makes are the keys of the blocks it keeps.

use bytes::{Buf, BufMut};
use pper_blocking::{
    BlockingFamily, BlockingKey, DatasetStats, OlpScratch, Signatures, Tree, TreeStats,
};
use pper_datagen::{Dataset, Entity, EntityId};
use pper_mapreduce::cost::{KEY_PER_ENTITY, READ_PER_ENTITY};
use pper_mapreduce::prelude::*;

use crate::config::ErConfig;

/// `(family, root key)` with the root key as a `String`: job 1's record
/// shape as the benchmark harness's shuffle probe emits it. No job keys by
/// it; it is kept, like [`SpillEntity`], until the probe stops naming it
/// (ROADMAP item 1(c)).
pub type BlockKey = (u8, String);

/// Intermediate key of job 1: `(family, root key)`. The family index plays
/// the paper's "function ID in the key" role, keeping same-valued keys of
/// different functions apart.
type Job1Key = (u8, RootKey);

/// A root key with a spill encoding: its text behind a varint length, the
/// bytes a `String` key spills as. The order and hash are the
/// [`BlockingKey`]'s, which are its text's.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct RootKey(BlockingKey);

impl SpillCodec for RootKey {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        let text = self.0.as_str();
        (text.len() as u64).encode(buf);
        buf.put_slice(text.as_bytes());
    }
    fn decode(buf: &mut bytes::Bytes) -> Result<Self, MrError> {
        let len = u64::decode(buf)?;
        if (buf.remaining() as u64) < len {
            return Err(MrError::Spill("truncated blocking key".into()));
        }
        let raw = buf.split_to(len as usize);
        let text = std::str::from_utf8(&raw).map_err(|e| MrError::Spill(e.to_string()))?;
        Ok(RootKey(BlockingKey::new(text)))
    }
}

/// [`Entity`] with a binary spill encoding. Job 1 ships entity ids through
/// both shuffles, so no job uses it: it is kept, with its codec, until the
/// benchmark harness's spill probe stops naming it (ROADMAP item 1(c)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillEntity(pub Entity);

impl SpillCodec for SpillEntity {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.0.id.encode(buf);
        self.0.attrs.encode(buf);
    }
    fn decode(buf: &mut bytes::Bytes) -> Result<Self, MrError> {
        let id = EntityId::decode(buf)?;
        let attrs = Vec::<String>::decode(buf)?;
        Ok(SpillEntity(Entity::new(id, attrs)))
    }
}

/// Emits one `(family, root key)` record per main blocking function,
/// carrying the entity's id: the in-memory shuffle moves the inline key
/// and a `u32`, the spilling one encodes the key's text and a varint.
struct AnnotateMapper<'a> {
    families: &'a [BlockingFamily],
}

impl Mapper for AnnotateMapper<'_> {
    type Input = Entity;
    type Key = Job1Key;
    type Value = EntityId;

    fn map(&self, entity: &Entity, ctx: &mut TaskContext, out: &mut Emitter<Job1Key, EntityId>) {
        for (f, family) in self.families.iter().enumerate() {
            ctx.charge(KEY_PER_ENTITY);
            let key = RootKey(BlockingKey::of(&family.levels[0], entity));
            out.emit((f as u8, key), entity.id);
        }
        ctx.counters.incr("job1_entities_annotated");
    }
}

/// Builds one root block's tree, statistics and side data, finding its
/// members in the dataset by id.
struct StatsReducer<'d> {
    families: &'d [BlockingFamily],
    ds: &'d Dataset,
}

impl Reducer for StatsReducer<'_> {
    type Key = Job1Key;
    type Value = EntityId;
    /// The tree's statistics and its [`Tree::ranked`] members, by entity id.
    type Output = (TreeStats, Vec<(EntityId, u32)>);

    fn reduce(
        &self,
        key: &Job1Key,
        values: &[EntityId],
        ctx: &mut TaskContext,
        out: &mut Vec<Self::Output>,
    ) {
        if values.len() < 2 {
            ctx.counters.incr("job1_singleton_blocks_dropped");
            return;
        }
        let family_index = key.0 as usize;
        let family = &self.families[family_index];

        // As in job 2 and Basic, a member is named by its position among the
        // received values, in id order: the statistics carry sizes and pair
        // counts, never ids, and the sort's id tie-break is a position's.
        let mut ids = values.to_vec();
        ids.sort_unstable();
        let entities: Vec<&Entity> = ids.iter().map(|&id| self.ds.entity(id)).collect();
        // Only the dominating families' keys decide a pair's coverage.
        let signatures =
            Signatures::intern(&self.families[..family_index], entities.iter().copied());
        let members: Vec<EntityId> = (0..entities.len() as EntityId).collect();

        // Tree construction: one key extraction per member per level.
        ctx.charge(READ_PER_ENTITY * (members.len() * family.depth()) as f64);
        let root_key = key.1 .0.as_str().to_owned();
        let tree = Tree::build(family_index, family, root_key, members, &entities);

        // Overlap statistics: signature grouping per block per subset —
        // charge one pass per block.
        let stat_cost: f64 = tree
            .blocks
            .iter()
            .map(|b| READ_PER_ENTITY * b.size() as f64)
            .sum();
        ctx.charge(stat_cost);

        let stats = TreeStats::from_tree(&tree, &signatures, &mut OlpScratch::default());
        let mut ranked = tree.ranked(family, &entities);
        for (member, _) in &mut ranked {
            *member = ids[*member as usize];
        }
        ctx.counters.incr("job1_trees_built");
        ctx.counters.add("job1_blocks", tree.len() as u64);
        out.push((stats, ranked));
    }
}

/// Result of the first job.
#[derive(Debug)]
pub struct Job1Result {
    /// Per-tree statistics across all families, and the side data.
    pub stats: DatasetStats,
    /// Virtual completion time of the job on the simulated cluster.
    pub virtual_cost: f64,
    /// Merged counters.
    pub counters: Counters,
}

/// Run the first job on the simulated cluster.
pub fn run_job1(ds: &Dataset, config: &ErConfig) -> Result<Job1Result, MrError> {
    let cfg = config.job_config("pper-job1-blocking");
    let mapper = AnnotateMapper {
        families: &config.families,
    };
    let reducer = GroupReducer::new(StatsReducer {
        families: &config.families,
        ds,
    });
    // The spilling shuffle groups oversized partitions through a disk-backed
    // external sort, bit-identical to the in-memory tag sort (see
    // `pper_mapreduce::shuffle`): the same records reach the same reducer.
    let result = match &config.shuffle_spill {
        Some(spill) => run_job_spilling(&cfg, &mapper, &reducer, spill, &ds.entities)?,
        None => run_job(&cfg, &mapper, &reducer, &ds.entities)?,
    };

    let mut trees = result.outputs;
    // Deterministic order regardless of reduce partitioning: the order job
    // 1's block ids number the trees' nodes in.
    trees.sort_by(|(a, _), (b, _)| a.family.cmp(&b.family).then(a.root_key.cmp(&b.root_key)));
    Ok(Job1Result {
        stats: DatasetStats::assemble(ds, config.families.len(), trees),
        virtual_cost: result.total_virtual_cost,
        counters: result.counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ProgressiveEr;
    use pper_blocking::{build_forests, presets, sort_by_attrs};
    use pper_datagen::{toy_people, BookGen, PubGen};
    use pper_mapreduce::fxhash::hash_one;
    use pper_schedule::TreeLocator;

    #[test]
    fn job1_matches_local_forest_construction() {
        let spill = || ShuffleSpillConfig::new(40);
        let cases = [
            (PubGen::new(1_500, 61).generate(), ErConfig::citeseer(2)),
            (BookGen::new(1_500, 61).generate(), ErConfig::books(2)),
            (
                PubGen::new(1_500, 61).generate(),
                ErConfig::citeseer(2).with_shuffle_spill(spill()),
            ),
            (
                BookGen::new(1_500, 61).generate(),
                ErConfig::books(2).with_shuffle_spill(spill()),
            ),
        ];
        for (ds, config) in &cases {
            let job = run_job1(ds, config).unwrap();

            let forests = build_forests(ds, &config.families);
            let local = DatasetStats::from_forests(ds, &config.families, &forests);

            assert_eq!(job.stats.trees.len(), local.trees.len());
            for (a, b) in job.stats.trees.iter().zip(&local.trees) {
                assert_eq!(a.family, b.family);
                assert_eq!(a.root_key, b.root_key);
                assert_eq!(a.nodes, b.nodes, "tree {}/{}", a.family, a.root_key);
            }
        }
    }

    /// Job 1's side data against its definition, for the in-memory and the
    /// spilling shuffle and for the statistics built locally: each tree's
    /// ranks are `sort_by_attrs` of its root block, each member's node is
    /// the deepest block `Tree::build` puts it in, and an entity whose root
    /// block formed no tree has no place. On the split schedules generated
    /// from it, each tree a member is routed to seats it at the tree's
    /// deepest node whose key the member has.
    #[test]
    fn side_data_ranks_each_root_block_and_names_each_members_deepest_block() {
        let spill = || ShuffleSpillConfig::new(40);
        let cases = [
            (PubGen::new(3_000, 79).generate(), ErConfig::citeseer(10)),
            (BookGen::new(3_000, 79).generate(), ErConfig::books(10)),
            (
                PubGen::new(3_000, 79).generate(),
                ErConfig::citeseer(10).with_shuffle_spill(spill()),
            ),
            (
                BookGen::new(3_000, 79).generate(),
                ErConfig::books(10).with_shuffle_spill(spill()),
            ),
        ];
        for (ds, config) in &cases {
            let families = &config.families;
            let forests = build_forests(ds, families);
            let local = DatasetStats::from_forests(ds, families, &forests);
            let job = run_job1(ds, config).unwrap();
            for stats in [&job.stats, &local] {
                let placement = &stats.placement;
                let mut placed = vec![vec![false; families.len()]; ds.len()];
                let mut first = 0;
                for tree in forests.iter().flat_map(|forest| &forest.trees) {
                    let (family, members) = (tree.family, &tree.root().members);
                    let attrs = [families[family].levels[0].attr, 0];
                    let mut ranked = vec![None; members.len()];
                    for &id in members {
                        let place = placement.get(id, family).unwrap();
                        ranked[place.rank as usize] = Some(id);
                        let deepest = (0..tree.len())
                            .filter(|&b| tree.blocks[b].members.contains(&id))
                            .max_by_key(|&b| tree.blocks[b].level)
                            .unwrap();
                        assert_eq!(place.node, first + deepest as u32, "entity {id}");
                        placed[id as usize][family] = true;
                    }
                    let order: Vec<EntityId> = ranked.into_iter().map(Option::unwrap).collect();
                    assert_eq!(order, sort_by_attrs(members, &attrs, ds));
                    first += tree.len() as u32;
                }
                for (id, placed) in (0..).zip(&placed) {
                    for (family, &placed) in placed.iter().enumerate() {
                        assert_eq!(placement.get(id, family).is_some(), placed, "{id}/{family}");
                    }
                }
            }
            assert_eq!(job.stats.placement, local.placement);

            let schedule = ProgressiveEr::new(config.clone()).generate_schedule(ds, &job.stats);
            assert!(schedule.trees.iter().any(|t| t.root_level > 0), "no split");
            let locator = TreeLocator::new(&schedule);
            for entity in &ds.entities {
                locator.route(entity, |t, _| {
                    let tree = &schedule.trees[t];
                    let family = &families[tree.family];
                    let deepest = (0..tree.nodes.len())
                        .filter(|&n| {
                            family.key_at(entity, tree.nodes[n].level) == tree.nodes[n].key
                        })
                        .max_by_key(|&n| tree.nodes[n].level);
                    let seat = locator
                        .seat(entity.id, tree.family, t)
                        .map(|(_, node)| node);
                    assert_eq!(seat, deepest, "entity {}", entity.id);
                });
            }
        }
    }

    #[test]
    fn job1_toy_dataset() {
        let ds = toy_people();
        let mut config = ErConfig::citeseer(1);
        config.families = presets::toy_families();
        let job = run_job1(&ds, &config).unwrap();
        // X-forest: "jo" and "ch"; Y-forest: "az", "hi", "la".
        assert_eq!(job.stats.trees.len(), 5);
        assert!(job.virtual_cost > 0.0);
        assert_eq!(job.counters.get("job1_entities_annotated"), 9);
        assert!(job.counters.get("job1_singleton_blocks_dropped") >= 3);
    }

    #[test]
    fn job1_spilled_shuffle_matches_in_memory() {
        let ds = PubGen::new(900, 63).generate();
        let baseline = run_job1(&ds, &ErConfig::citeseer(3)).unwrap();
        // Budget of 40 records per partition forces nearly every partition
        // of a 900×3-record shuffle to spill; run at several worker-thread
        // counts to cover the parallel spill dispatch too.
        for threads in [1usize, 2, 8] {
            let mut config = ErConfig::citeseer(3).with_shuffle_spill(ShuffleSpillConfig::new(40));
            config.worker_threads = Some(threads);
            let spilled = run_job1(&ds, &config).unwrap();
            assert_eq!(
                spilled.stats.trees, baseline.stats.trees,
                "threads={threads}"
            );
            assert_eq!(
                spilled.virtual_cost.to_bits(),
                baseline.virtual_cost.to_bits(),
                "threads={threads}"
            );
            assert!(
                spilled.counters.get("shuffle_spilled_partitions") > 0,
                "threads={threads}: spill never engaged"
            );
            // A record spills as its key and a varint id, about 16 bytes
            // here; a spilled entity, its 350-char abstract included, would
            // take about 280.
            let records =
                spilled.counters.get("job1_entities_annotated") * config.families.len() as u64;
            let bytes = spilled.counters.get("shuffle_spill_bytes");
            assert!(
                bytes > 0 && bytes <= 32 * records,
                "threads={threads}: {bytes} spill bytes for {records} records"
            );
        }
        assert_eq!(baseline.counters.get("shuffle_spilled_partitions"), 0);
    }

    /// A root key spills as the bytes its `String` did, hashes to the same
    /// reduce task, and reads back as itself: inline, at and past the
    /// inline capacity, and non-ASCII.
    #[test]
    fn root_keys_round_trip_through_the_spill_codec() {
        let (at_capacity, past_capacity) = ("a".repeat(22), "a".repeat(23));
        let texts = [
            "",
            "pr",
            &at_capacity,
            &past_capacity,
            "i̇stanbul",
            "i̇stanbul straße οδος",
            "σς",
        ];
        for text in texts {
            let record = (2u8, RootKey(BlockingKey::new(text)));
            let mut buf = bytes::BytesMut::new();
            record.encode(&mut buf);
            let mut as_string = bytes::BytesMut::new();
            (2u8, text.to_string()).encode(&mut as_string);
            assert_eq!(&buf[..], &as_string[..], "{text:?}");
            // The same reduce task as the `String` key's.
            assert_eq!(hash_one(&record), hash_one(&(2u8, text)), "{text:?}");
            let mut bytes = buf.freeze();
            assert_eq!(Job1Key::decode(&mut bytes).unwrap(), record, "{text:?}");
            assert!(!bytes.has_remaining(), "{text:?}");
        }
        // A cut record and bytes that are no text are errors, not keys.
        let mut buf = bytes::BytesMut::new();
        RootKey(BlockingKey::new("prog")).encode(&mut buf);
        assert!(RootKey::decode(&mut buf.freeze().slice(0..3)).is_err());
        let mut buf = bytes::BytesMut::new();
        buf.put_slice(&[2, 0xff, 0xfe]);
        assert!(RootKey::decode(&mut buf.freeze()).is_err());
    }

    #[test]
    fn spill_entity_round_trips() {
        let e = Entity::new(7, vec!["Title".into(), String::new(), "ünïcode ✓".into()]);
        let mut buf = bytes::BytesMut::new();
        SpillEntity(e.clone()).encode(&mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(SpillEntity::decode(&mut bytes).unwrap().0, e);
    }

    #[test]
    fn job1_deterministic_across_cluster_sizes() {
        let ds = PubGen::new(800, 62).generate();
        let a = run_job1(&ds, &ErConfig::citeseer(1)).unwrap();
        let b = run_job1(&ds, &ErConfig::citeseer(7)).unwrap();
        assert_eq!(a.stats.trees.len(), b.stats.trees.len());
        for (x, y) in a.stats.trees.iter().zip(&b.stats.trees) {
            assert_eq!(x, y);
        }
    }
}
