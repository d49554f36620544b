//! The shuffle-to-reduce handoff: flat grouped partitions built on the
//! worker pool.
//!
//! The original shuffle materialized every reduce partition as a nested
//! `Vec<(K, Vec<V>)>` — one heap allocation per key group plus a full
//! stable sort of `(K, V)` records on the driver thread. This module
//! replaces it with a flat [`GroupedPartition`]: one sorted value arena per
//! partition plus group-boundary offsets, handed to reducers as borrowed
//! `(&K, &[V])` group views. The flat shape kills the per-group and
//! per-value allocations, makes fault-tolerant reduce re-execution a
//! re-borrow instead of a deep clone, and lets every partition be sorted
//! and grouped in parallel on the worker pool.
//!
//! ## Ordering contract
//!
//! Grouping must reproduce the original stable sort exactly: groups
//! ascending by key, values within a group in map-task concatenation order
//! (Hadoop's merge is stable per map output). [`GroupedPartition::from_buckets`]
//! guarantees this without a stable record sort:
//!
//! 1. records are drained in bucket order and each key is assigned a dense
//!    *group id* at its first occurrence (an `FxHashMap` probe — no clone,
//!    the first occurrence's key is moved into the map);
//! 2. the distinct keys (one per group) are sorted once, giving each group
//!    id its *rank* in ascending key order;
//! 3. every record was tagged `(group id, arrival index)` on the way in;
//!    after remapping group id → rank, a single unstable integer sort on
//!    the packed `(rank, arrival)` u64 reproduces the stable
//!    sort-by-key order bit for bit — key comparisons happen only
//!    `g·log g` times (distinct keys) instead of `n·log n` (records).
//!
//! Because the per-partition result depends only on that partition's
//! records (never on thread interleaving), fanning partitions out over
//! worker threads cannot change any result — only wall-clock time. No
//! virtual cost is charged here: the driver-thread shuffle never charged
//! any either (reduce tasks pay `shuffle_per_record` when they ingest the
//! partition), so virtual-time accounting is unchanged.

use std::hash::Hash;
use std::path::PathBuf;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use pper_vfs::{RetryPolicy, Vfs};

use crate::error::MrError;
use crate::exec::run_cursor_pool;
use crate::extsort::{ExternalSorter, SpillFullPolicy};
use crate::fxhash::FxHashMap;
use crate::spill::SpillCodec;

/// One reduce partition's map-side buckets, in map-task order — the shape
/// the map phase hands to [`GroupedPartition::from_buckets`].
pub type PartitionBuckets<K, V> = Vec<Vec<(K, V)>>;

/// One reduce partition in flat form: `keys[g]` owns group `g`'s key,
/// `values[starts[g]..starts[g+1]]` are its values — groups ascending by
/// key, values in map-output order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupedPartition<K, V> {
    keys: Vec<K>,
    /// Group boundaries into `values`; `starts.len() == keys.len() + 1`.
    starts: Vec<usize>,
    values: Vec<V>,
}

impl<K, V> Default for GroupedPartition<K, V> {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            starts: vec![0],
            values: Vec::new(),
        }
    }
}

impl<K, V> GroupedPartition<K, V> {
    /// Number of key groups.
    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }

    /// Number of records across all groups.
    pub fn num_records(&self) -> usize {
        self.values.len()
    }

    /// True when the partition received no records.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Group `g` as a borrowed view: its key and value slice.
    pub fn group(&self, g: usize) -> (&K, &[V]) {
        (
            &self.keys[g],
            &self.values[self.starts[g]..self.starts[g + 1]],
        )
    }

    /// The group keys, ascending.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Iterate groups in ascending key order as `(&K, &[V])` views.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&K, &[V])> + '_ {
        (0..self.keys.len()).map(move |g| self.group(g))
    }
}

impl<K: Ord + Hash + Eq, V> GroupedPartition<K, V> {
    /// Group one partition's records, delivered as the per-map-task buckets
    /// in map-task order (the stability reference order).
    pub fn from_buckets(buckets: Vec<Vec<(K, V)>>) -> Self {
        let total: usize = buckets.iter().map(Vec::len).sum();
        if total == 0 {
            return Self::default();
        }
        assert!(
            total <= u32::MAX as usize,
            "partition exceeds u32 record capacity"
        );

        // Pass 1: move records into an arrival-order arena, tagging each
        // with (first-occurrence group id, arrival index) packed into a
        // u64. Duplicate keys are dropped here (they are redundant once the
        // group id is known) — dropped, never cloned. Values live in their
        // own slots so the sort below moves 8-byte tags, not records.
        let mut gids: FxHashMap<K, u32> =
            FxHashMap::with_capacity_and_hasher(total / 8 + 8, Default::default());
        let mut tags: Vec<u64> = Vec::with_capacity(total);
        let mut slots: Vec<Option<V>> = Vec::with_capacity(total);
        for bucket in buckets {
            for (k, v) in bucket {
                let next = gids.len() as u32;
                let gid = *gids.entry(k).or_insert(next);
                tags.push((u64::from(gid) << 32) | slots.len() as u64);
                slots.push(Some(v));
            }
        }

        // Pass 2: sort the distinct keys once; rank = position in key order.
        #[expect(
            clippy::disallowed_methods,
            reason = "drain order is irrelevant: the very next line sorts the pairs by key, \
                      which fully determines the result"
        )]
        let mut distinct: Vec<(K, u32)> = gids.drain().collect();
        distinct.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut rank_of = vec![0u32; distinct.len()];
        for (rank, &(_, gid)) in distinct.iter().enumerate() {
            rank_of[gid as usize] = rank as u32;
        }

        // Pass 3: remap tags to (rank, arrival) and integer-sort them.
        // Arrival order breaks ties exactly like the stable sort it replaces.
        for tag in tags.iter_mut() {
            let rank = rank_of[(*tag >> 32) as usize];
            *tag = (u64::from(rank) << 32) | (*tag & u64::from(u32::MAX));
        }
        tags.sort_unstable();

        // Pass 4: gather values in tag order and record group boundaries.
        // Ranks appear 0..g in order, each at least once, so boundaries
        // fall out of a single scan.
        let keys: Vec<K> = distinct.into_iter().map(|(k, _)| k).collect();
        let mut starts = Vec::with_capacity(keys.len() + 1);
        let mut values = Vec::with_capacity(total);
        let mut current = u32::MAX;
        for tag in tags {
            let rank = (tag >> 32) as u32;
            if rank != current {
                starts.push(values.len());
                current = rank;
            }
            let arrival = (tag & u64::from(u32::MAX)) as usize;
            // Unreachable without a bug in this function; covered by the
            // proptest equivalence suite below.
            #[expect(
                clippy::expect_used,
                reason = "local two-pass invariant: arrival indices are assigned densely in \
                          pass 1 and each tag carries a distinct one, so every slot is taken \
                          exactly once"
            )]
            values.push(slots[arrival].take().expect("unique arrival index"));
        }
        starts.push(values.len());
        debug_assert_eq!(starts.len(), keys.len() + 1);
        Self {
            keys,
            starts,
            values,
        }
    }

    /// Group a single flat record list (one conceptual bucket).
    pub fn from_pairs(records: Vec<(K, V)>) -> Self {
        Self::from_buckets(vec![records])
    }
}

/// Run `group` over every partition's buckets on up to `threads` worker
/// threads and collect the results in partition order.
///
/// Partitions are dispatched through the cursor pool exactly like the
/// runtime's task phases; results land in per-index slots, collected
/// post-barrier. On one thread `collect` drives `group` lazily, so a
/// fallible grouping stops at its first error.
fn fan_out<K, V, R, C>(
    per_partition: Vec<PartitionBuckets<K, V>>,
    threads: usize,
    group: impl Fn(PartitionBuckets<K, V>) -> R + Sync,
) -> C
where
    K: Send,
    V: Send,
    R: Send,
    C: FromIterator<R>,
{
    let count = per_partition.len();
    let threads = threads.max(1).min(count.max(1));
    if threads == 1 {
        return per_partition.into_iter().map(group).collect();
    }
    let work: Vec<Mutex<Option<PartitionBuckets<K, V>>>> = per_partition
        .into_iter()
        .map(|p| Mutex::new(Some(p)))
        .collect();
    let done: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
    run_cursor_pool(count, threads, &|idx| {
        if let Some(buckets) = work[idx].lock().take() {
            *done[idx].lock() = Some(group(buckets));
        }
    });
    // The pool hands each index to exactly one worker, so every slot is
    // filled here; grouping an empty bucket list (an empty partition) is
    // the benign fallback rather than a panic.
    done.into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(|| group(Vec::new())))
        .collect()
}

/// Sort+group every partition on up to `threads` worker threads.
///
/// `per_partition[p]` holds partition `p`'s buckets in map-task order;
/// results land in partition order.
/// Deliberately *no* [`crate::job::TaskContext`] and no virtual charges —
/// see the module docs.
pub(crate) fn shuffle_partitions<K, V>(
    per_partition: Vec<PartitionBuckets<K, V>>,
    threads: usize,
) -> Vec<GroupedPartition<K, V>>
where
    K: Ord + Hash + Eq + Send,
    V: Send,
{
    fan_out(per_partition, threads, GroupedPartition::from_buckets)
}

/// Memory-budget policy for shuffle grouping — when a partition's record
/// count exceeds `max_partition_records`, its grouping runs through an
/// [`ExternalSorter`] (bounded memory, disk-backed runs) instead of the
/// in-memory tag sort. The result is bit-identical either way; only the
/// working set changes.
#[derive(Debug, Clone)]
pub struct ShuffleSpillConfig {
    /// Partitions with more records than this spill to disk.
    pub max_partition_records: usize,
    /// Records per sorted run while spilling (the sorter's in-memory
    /// buffer bound).
    pub run_capacity: usize,
    /// Directory for run files; `None` = the system temp directory.
    pub dir: Option<PathBuf>,
    /// Filesystem the spill path writes through (chaos suites inject a
    /// `FaultVfs` here; production keeps the passthrough default).
    pub vfs: Arc<dyn Vfs>,
    /// Bounded deterministic retry budget for transient spill faults. Also
    /// bounds how often a corrupted spill run may trigger a map/shuffle
    /// re-run (see [`crate::runtime::run_job_spilling`]).
    pub retry: RetryPolicy,
    /// What a sorter does when spilling becomes impossible (disk full,
    /// retries exhausted): surface the typed fault, or degrade that
    /// partition to in-memory grouping.
    pub on_full: SpillFullPolicy,
}

impl ShuffleSpillConfig {
    /// Spill partitions above `max_partition_records`, buffering runs of a
    /// quarter of that bound (so a spilling partition's sort working set
    /// stays well under the threshold that triggered it).
    pub fn new(max_partition_records: usize) -> Self {
        Self {
            max_partition_records,
            run_capacity: (max_partition_records / 4).max(1),
            dir: None,
            vfs: pper_vfs::std_vfs(),
            retry: RetryPolicy::default(),
            on_full: SpillFullPolicy::default(),
        }
    }

    /// Override the spill directory.
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Route spill I/O through `vfs`.
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// Override the transient-fault retry budget.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Override the disk-exhaustion policy.
    pub fn with_full_policy(mut self, policy: SpillFullPolicy) -> Self {
        self.on_full = policy;
        self
    }
}

/// What the spilling shuffle did — surfaced as job counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleSpillStats {
    /// Partitions whose grouping went through the external sorter.
    pub spilled_partitions: usize,
    /// Sorted runs written across all spilled partitions.
    pub spill_runs: usize,
    /// Bytes written to run files across all spilled partitions.
    pub spill_bytes: u64,
    /// Transient spill faults retried in place (deterministic backoff).
    pub spill_io_retries: u64,
    /// Virtual backoff units charged by those retries.
    pub spill_backoff_units: u64,
    /// Partitions that fell back to in-memory grouping after a permanent
    /// spill fault (only under [`SpillFullPolicy::InMemory`]).
    pub degraded_partitions: usize,
}

impl ShuffleSpillStats {
    fn absorb(&mut self, other: ShuffleSpillStats) {
        self.spilled_partitions += other.spilled_partitions;
        self.spill_runs += other.spill_runs;
        self.spill_bytes += other.spill_bytes;
        self.spill_io_retries += other.spill_io_retries;
        self.spill_backoff_units += other.spill_backoff_units;
        self.degraded_partitions += other.degraded_partitions;
    }
}

/// One record of a spilling partition: the key it groups under, its global
/// arrival index (bucket-drain order), and the value. Ordering by
/// `(key, arrival)` is exactly the in-memory tag sort's `(rank, arrival)`
/// order, since rank is the key's position in ascending key order.
struct Tagged<K, V> {
    key: K,
    arrival: u32,
    value: V,
}

impl<K: Ord, V> PartialEq for Tagged<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.arrival == other.arrival
    }
}
impl<K: Ord, V> Eq for Tagged<K, V> {}
impl<K: Ord, V> PartialOrd for Tagged<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, V> Ord for Tagged<K, V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then(self.arrival.cmp(&other.arrival))
    }
}

impl<K: SpillCodec, V: SpillCodec> SpillCodec for Tagged<K, V> {
    fn encode(&self, buf: &mut BytesMut) {
        self.key.encode(buf);
        self.arrival.encode(buf);
        self.value.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, MrError> {
        Ok(Self {
            key: K::decode(buf)?,
            arrival: u32::decode(buf)?,
            value: V::decode(buf)?,
        })
    }
}

impl<K: Ord + Hash + Eq, V> GroupedPartition<K, V> {
    /// Group one partition under a memory budget: partitions within
    /// `cfg.max_partition_records` use [`GroupedPartition::from_buckets`]
    /// unchanged; larger ones externally sort `(key, arrival, value)` tags
    /// and assemble the arena from the merged stream. Both paths produce
    /// identical partitions — the external order `(key, arrival)` is the
    /// tag sort's `(rank, arrival)` order.
    pub fn from_buckets_spilling(
        buckets: Vec<Vec<(K, V)>>,
        cfg: &ShuffleSpillConfig,
    ) -> Result<(Self, ShuffleSpillStats), MrError>
    where
        K: SpillCodec,
        V: SpillCodec,
    {
        let total: usize = buckets.iter().map(Vec::len).sum();
        if total <= cfg.max_partition_records {
            return Ok((Self::from_buckets(buckets), ShuffleSpillStats::default()));
        }
        assert!(
            total <= u32::MAX as usize,
            "partition exceeds u32 record capacity"
        );

        let mut sorter: ExternalSorter<Tagged<K, V>> = ExternalSorter::new(cfg.run_capacity)
            .with_vfs(Arc::clone(&cfg.vfs))
            .with_retry(cfg.retry)
            .with_full_policy(cfg.on_full);
        if let Some(dir) = &cfg.dir {
            sorter = sorter.with_dir(dir.clone());
        }
        let mut arrival = 0u32;
        for bucket in buckets {
            for (k, v) in bucket {
                sorter.push(Tagged {
                    key: k,
                    arrival,
                    value: v,
                })?;
                arrival += 1;
            }
        }
        let stats = ShuffleSpillStats {
            spilled_partitions: 1,
            spill_runs: sorter.spilled_runs(),
            spill_bytes: sorter.spilled_bytes(),
            spill_io_retries: sorter.io_retries(),
            spill_backoff_units: sorter.backoff_units(),
            degraded_partitions: usize::from(sorter.degraded()),
        };

        // Boundary-scan assembly straight off the merged stream: each
        // group keeps its first record's key (duplicates compare equal,
        // exactly like the in-memory path's first-occurrence key).
        let mut keys: Vec<K> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        let mut values: Vec<V> = Vec::with_capacity(total);
        for item in sorter.into_stream()? {
            let tagged = item?;
            if keys.last() != Some(&tagged.key) {
                starts.push(values.len());
                keys.push(tagged.key);
            }
            values.push(tagged.value);
        }
        starts.push(values.len());
        Ok((
            Self {
                keys,
                starts,
                values,
            },
            stats,
        ))
    }
}

/// [`shuffle_partitions`] under a memory budget: per-partition
/// grouping routes through [`GroupedPartition::from_buckets_spilling`],
/// fanned out through the cursor pool. Bit-identical partitions to the
/// in-memory shuffle at any thread count.
pub(crate) fn shuffle_partitions_spilling<K, V>(
    per_partition: Vec<PartitionBuckets<K, V>>,
    threads: usize,
    cfg: &ShuffleSpillConfig,
) -> Result<(Vec<GroupedPartition<K, V>>, ShuffleSpillStats), MrError>
where
    K: Ord + Hash + Eq + Send + SpillCodec,
    V: Send + SpillCodec,
{
    let grouped: Vec<(GroupedPartition<K, V>, ShuffleSpillStats)> =
        fan_out::<_, _, _, Result<_, MrError>>(per_partition, threads, |buckets| {
            GroupedPartition::from_buckets_spilling(buckets, cfg)
        })?;
    let mut stats = ShuffleSpillStats::default();
    let partitions = grouped
        .into_iter()
        .map(|(partition, spilled)| {
            stats.absorb(spilled);
            partition
        })
        .collect();
    Ok((partitions, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference semantics: stable sort by key, then run-length group —
    /// exactly the original driver-thread shuffle.
    fn naive_group<K: Ord + Clone, V>(buckets: Vec<Vec<(K, V)>>) -> Vec<(K, Vec<V>)> {
        let mut records: Vec<(K, V)> = buckets.into_iter().flatten().collect();
        records.sort_by(|a, b| a.0.cmp(&b.0));
        let mut groups: Vec<(K, Vec<V>)> = Vec::new();
        for (k, v) in records {
            match groups.last_mut() {
                Some((gk, gvs)) if *gk == k => gvs.push(v),
                _ => groups.push((k, vec![v])),
            }
        }
        groups
    }

    fn flat_as_nested<K: Clone, V: Clone>(p: &GroupedPartition<K, V>) -> Vec<(K, Vec<V>)> {
        p.iter().map(|(k, vs)| (k.clone(), vs.to_vec())).collect()
    }

    #[test]
    fn empty_partition() {
        let p: GroupedPartition<u64, u64> = GroupedPartition::from_buckets(vec![]);
        assert!(p.is_empty());
        assert_eq!(p.num_groups(), 0);
        assert_eq!(p.num_records(), 0);
        assert_eq!(p.iter().count(), 0);
    }

    #[test]
    fn groups_sorted_and_values_in_arrival_order() {
        let buckets = vec![
            vec![(2u64, "b0"), (1, "a0"), (2, "b1")],
            vec![(1u64, "a1"), (3, "c0")],
        ];
        let p = GroupedPartition::from_buckets(buckets);
        assert_eq!(p.num_groups(), 3);
        assert_eq!(p.num_records(), 5);
        assert_eq!(p.group(0), (&1, &["a0", "a1"][..]));
        assert_eq!(p.group(1), (&2, &["b0", "b1"][..]));
        assert_eq!(p.group(2), (&3, &["c0"][..]));
        assert_eq!(p.keys(), &[1, 2, 3]);
    }

    #[test]
    fn parallel_fanout_matches_serial() {
        let mk = || {
            (0..16)
                .map(|p| {
                    (0..4)
                        .map(|m| (0..100).map(|i| ((i * 7 + p) % 13u64, i + m)).collect())
                        .collect()
                })
                .collect::<Vec<Vec<Vec<(u64, u64)>>>>()
        };
        let serial = shuffle_partitions(mk(), 1);
        let parallel = shuffle_partitions(mk(), 8);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn spilling_below_threshold_never_spills() {
        let buckets = vec![vec![(1u32, 10u32), (2, 20)], vec![(1, 11)]];
        let cfg = ShuffleSpillConfig::new(100);
        let (p, stats) = GroupedPartition::from_buckets_spilling(buckets.clone(), &cfg).unwrap();
        assert_eq!(stats, ShuffleSpillStats::default());
        assert_eq!(p, GroupedPartition::from_buckets(buckets));
    }

    #[test]
    fn spilling_shuffle_identical_across_thread_counts() {
        let mk = || {
            (0..12)
                .map(|p| {
                    (0..3)
                        .map(|m| {
                            (0..300)
                                .map(|i| (((i * 31 + p * 7 + m) % 23) as u64, (i + m) as u64))
                                .collect()
                        })
                        .collect()
                })
                .collect::<Vec<Vec<Vec<(u64, u64)>>>>()
        };
        // Budget far below the 900-record partitions: every partition spills.
        let cfg = ShuffleSpillConfig {
            max_partition_records: 50,
            run_capacity: 7,
            ..ShuffleSpillConfig::new(50)
        };
        let reference = shuffle_partitions(mk(), 1);
        for threads in [1usize, 2, 8] {
            let (spilled, stats) = shuffle_partitions_spilling(mk(), threads, &cfg).unwrap();
            assert_eq!(spilled, reference, "threads={threads}");
            assert_eq!(stats.spilled_partitions, 12, "threads={threads}");
            assert!(stats.spill_runs >= 12, "threads={threads}");
            assert!(stats.spill_bytes > 0, "threads={threads}");
        }
    }

    proptest! {
        // A tiny-budget spilling shuffle (runs of 2–8 records) produces a
        // partition byte-identical to the in-memory tag sort, for string
        // block keys like the ER pipeline's.
        #[test]
        fn prop_spilled_equals_in_memory(
            buckets in proptest::collection::vec(
                proptest::collection::vec((("[a-c]{0,3}", 0u8..4), 0u32..1000), 0..80),
                0..5,
            ),
            run_capacity in 2usize..9,
        ) {
            let buckets: Vec<Vec<((String, u8), u32)>> = buckets
                .into_iter()
                .map(|b| b.into_iter().collect())
                .collect();
            let cfg = ShuffleSpillConfig {
                max_partition_records: 0, // force the spill path always
                run_capacity,
                ..ShuffleSpillConfig::new(1)
            };
            let (spilled, _) =
                GroupedPartition::from_buckets_spilling(buckets.clone(), &cfg).unwrap();
            let in_memory = GroupedPartition::from_buckets(buckets);
            prop_assert_eq!(spilled, in_memory);
        }
    }

    proptest! {
        // Flat grouping is element-for-element identical to the naive
        // nested grouping for arbitrary (key, value) multisets spread over
        // arbitrary bucket boundaries.
        #[test]
        fn flat_equals_naive_nested(
            buckets in proptest::collection::vec(
                proptest::collection::vec((0u16..50, 0u32..1_000_000), 0..60),
                0..6,
            )
        ) {
            let flat = GroupedPartition::from_buckets(buckets.clone());
            let naive = naive_group(buckets);
            prop_assert_eq!(flat_as_nested(&flat), naive);
            // Offsets are internally consistent.
            let total: usize = flat.iter().map(|(_, vs)| vs.len()).sum();
            prop_assert_eq!(total, flat.num_records());
            // Keys strictly ascending.
            prop_assert!(flat.keys().windows(2).all(|w| w[0] < w[1]));
        }

        // String keys (the ER pipeline's job-1 shape) group identically too.
        #[test]
        fn flat_equals_naive_string_keys(
            records in proptest::collection::vec(("[a-d]{0,3}", 0u8..255), 0..120)
        ) {
            let flat = GroupedPartition::from_pairs(records.clone());
            let naive = naive_group(vec![records]);
            prop_assert_eq!(flat_as_nested(&flat), naive);
        }
    }
}
