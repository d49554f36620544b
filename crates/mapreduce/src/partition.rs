//! Partitioners routing intermediate keys to reduce tasks.
//!
//! The Basic baseline uses the default hash partitioner (§II-C); the paper's
//! second job routes blocks by their *sequence values* so that each tree
//! lands on its designated reduce task — that is a [`RangePartitioner`] over
//! pre-assigned sequence ranges.

use crate::fxhash::hash_one;
use std::hash::Hash;

/// Maps an intermediate key to a reduce partition in `0..num_partitions`.
pub trait Partitioner<K>: Sync {
    /// Partition index for `key`. Must be `< num_partitions`.
    fn partition(&self, key: &K, num_partitions: usize) -> usize;
}

/// Hadoop's default: `hash(key) mod r`.
#[derive(Debug, Default, Clone, Copy)]
pub struct HashPartitioner;

impl<K: Hash> Partitioner<K> for HashPartitioner {
    #[inline]
    fn partition(&self, key: &K, num_partitions: usize) -> usize {
        (hash_one(key) % num_partitions.max(1) as u64) as usize
    }
}

/// Routes keys by pre-computed range boundaries.
///
/// `bounds[i]` is the *exclusive* upper bound of partition `i`'s key range,
/// expressed through a key-to-`u64` projection supplied at construction.
/// Keys at or above the last bound go to the last partition.
pub struct RangePartitioner<K> {
    bounds: Vec<u64>,
    project: fn(&K) -> u64,
}

impl<K> RangePartitioner<K> {
    /// Build from ascending exclusive upper bounds and a key projection.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: Vec<u64>, project: fn(&K) -> u64) -> Self {
        assert!(!bounds.is_empty(), "need at least one range bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "range bounds must be strictly ascending"
        );
        Self { bounds, project }
    }

    /// Number of partitions this partitioner defines.
    pub fn partitions(&self) -> usize {
        self.bounds.len()
    }
}

impl<K: Sync> Partitioner<K> for RangePartitioner<K> {
    #[inline]
    fn partition(&self, key: &K, num_partitions: usize) -> usize {
        let v = (self.project)(key);
        let idx = self.bounds.partition_point(|&b| b <= v);
        idx.min(self.bounds.len() - 1)
            .min(num_partitions.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hash_partitioner_in_range() {
        let p = HashPartitioner;
        for key in 0..1000u64 {
            let idx = p.partition(&key, 7);
            assert!(idx < 7);
        }
    }

    #[test]
    fn hash_partitioner_deterministic() {
        let p = HashPartitioner;
        assert_eq!(p.partition(&"abc", 13), p.partition(&"abc", 13));
    }

    #[test]
    fn hash_partitioner_single_partition() {
        let p = HashPartitioner;
        assert_eq!(p.partition(&"x", 1), 0);
    }

    #[test]
    fn range_partitioner_routes_by_bounds() {
        // Partitions: [0,10), [10,20), [20,inf)
        let p = RangePartitioner::new(vec![10, 20, 30], |k: &u64| *k);
        assert_eq!(p.partition(&0, 3), 0);
        assert_eq!(p.partition(&9, 3), 0);
        assert_eq!(p.partition(&10, 3), 1);
        assert_eq!(p.partition(&19, 3), 1);
        assert_eq!(p.partition(&20, 3), 2);
        assert_eq!(p.partition(&999, 3), 2); // clamps to last
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn range_partitioner_rejects_unsorted_bounds() {
        let _ = RangePartitioner::new(vec![10, 5], |k: &u64| *k);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn range_partitioner_rejects_empty() {
        let _ = RangePartitioner::new(Vec::new(), |k: &u64| *k);
    }

    #[test]
    fn range_partitioner_key_at_and_above_last_bound() {
        // Keys exactly at the last bound and far above it both clamp to the
        // last partition — no index can ever escape `0..partitions()`.
        let p = RangePartitioner::new(vec![10, 20], |k: &u64| *k);
        assert_eq!(p.partition(&20, 2), 1);
        assert_eq!(p.partition(&u64::MAX, 2), 1);
    }

    #[test]
    fn range_partitioner_clamps_to_fewer_runtime_partitions() {
        // A partitioner planned for 4 ranges run on a 2-task job must not
        // index past the runtime's partition count.
        let p = RangePartitioner::new(vec![10, 20, 30, 40], |k: &u64| *k);
        assert_eq!(p.partitions(), 4);
        for key in [0u64, 15, 25, 35, 99] {
            assert!(p.partition(&key, 2) < 2, "key {key}");
        }
    }

    #[test]
    fn range_partitioner_single_partition_job() {
        let p = RangePartitioner::new(vec![100], |k: &u64| *k);
        for key in [0u64, 50, 100, 1000] {
            assert_eq!(p.partition(&key, 1), 0);
        }
    }

    proptest! {
        // Partitioner contract: index always `< num_partitions` and
        // deterministic, for both partitioner types on random keys.
        #[test]
        fn prop_partitioners_stay_in_range_and_deterministic(
            keys in proptest::collection::vec(0u64..50_000, 1..200),
            partitions in 1usize..32,
            bounds_raw in proptest::collection::vec(1u64..40_000, 1..16),
        ) {
            let hash = HashPartitioner;
            let mut bounds = bounds_raw;
            bounds.sort_unstable();
            bounds.dedup();
            let range = RangePartitioner::new(bounds, |k: &u64| *k);
            for k in &keys {
                let (h, r) = (hash.partition(k, partitions), range.partition(k, partitions));
                prop_assert!(h < partitions && r < partitions);
                prop_assert_eq!(h, hash.partition(k, partitions));
                prop_assert_eq!(r, range.partition(k, partitions));
            }
        }
    }
}
