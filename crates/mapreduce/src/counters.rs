//! Job counters, mirroring Hadoop's named counter groups.
//!
//! Each task accumulates counters locally (no synchronization on the hot
//! path); the runtime merges them into a single [`Counters`] in the
//! [`crate::runtime::JobResult`].

use crate::fxhash::FxHashMap;
use std::fmt;

/// A set of named `u64` counters.
///
/// Counter names are `&'static str` because in practice they are declared as
/// constants by the job implementation (e.g. `"pairs_resolved"`), which keeps
/// increments allocation-free.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    values: FxHashMap<&'static str, u64>,
}

impl Counters {
    /// An empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name`, creating it at zero if absent.
    #[inline]
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.values.entry(name).or_insert(0) += delta;
    }

    /// Increment counter `name` by one.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Merge another counter set into this one (summing shared names).
    pub fn merge(&mut self, other: &Counters) {
        #[expect(
            clippy::iter_over_hash_type,
            reason = "entry-wise commutative sums: the merged values are independent \
                      of the order entries are visited in"
        )]
        for (k, v) in &other.values {
            *self.values.entry(k).or_insert(0) += v;
        }
    }

    /// Iterate over `(name, value)` pairs in ascending name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        #[expect(
            clippy::disallowed_methods,
            reason = "the pairs are sorted by name immediately below, before anything observes them"
        )]
        let mut entries: Vec<_> = self.values.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries.into_iter().map(|(k, v)| (*k, *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no counter was ever touched.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut c = Counters::new();
        c.add("pairs", 5);
        c.incr("pairs");
        assert_eq!(c.get("pairs"), 6);
        assert_eq!(c.get("missing"), 0);
    }

    #[test]
    fn merge_sums_shared_names() {
        let mut a = Counters::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = Counters::new();
        b.add("y", 3);
        b.add("z", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 4);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn display_sorted() {
        let mut c = Counters::new();
        c.add("b", 2);
        c.add("a", 1);
        assert_eq!(c.to_string(), "a = 1\nb = 2\n");
    }
}
