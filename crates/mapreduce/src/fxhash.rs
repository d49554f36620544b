//! A minimal FxHash implementation (the rustc hash), vendored in-repo so the
//! hot shuffle path does not pay SipHash's per-key cost and the workspace
//! stays within its approved dependency set.
//!
//! FxHash is *not* HashDoS-resistant; every use in this workspace hashes
//! internally-generated keys (block ids, entity ids), never untrusted input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The Fx (Firefox/rustc) hasher: a multiply-rotate word-at-a-time hash.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Hash a single hashable value with FxHash: [`crate::job::Mapper::partition`]'s
/// default routing.
#[inline]
pub fn hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(hash_one(&"block-key"), hash_one(&"block-key"));
        assert_eq!(hash_one(&42u64), hash_one(&42u64));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a distribution test, just a sanity check that the hash is not
        // degenerate on the id-like keys we use.
        let h: FxHashSet<u64> = (0..10_000u64).map(|i| hash_one(&i)).collect();
        assert_eq!(h.len(), 10_000);
    }

    #[test]
    fn string_and_bytes_agree_on_empty() {
        assert_eq!(hash_one(&""), hash_one(&""));
        assert_ne!(hash_one(&"a"), hash_one(&"b"));
    }

    #[test]
    fn fx_map_basic_ops() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("x".into(), 1);
        m.insert("y".into(), 2);
        assert_eq!(m.get("x"), Some(&1));
        assert_eq!(m.len(), 2);
    }
}
