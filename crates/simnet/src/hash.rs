//! Deterministic hashing for shuffle partitioners.
//!
//! `std::collections::HashMap`'s default hasher is randomly seeded per
//! process, which would make hash-partitioned shuffles (Hadoop, Spark)
//! non-reproducible across runs. Every partitioner in the stack uses this
//! fixed-seed FNV-1a hasher instead.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// FNV-1a with a fixed seed. Fast, deterministic, good enough dispersion
/// for partitioning (not HashDoS-resistant — irrelevant in a simulator).
#[derive(Debug, Clone)]
pub struct DetHasher(u64);

impl Default for DetHasher {
    fn default() -> DetHasher {
        DetHasher(0xcbf29ce484222325)
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// A `HashMap` over [`DetHasher`]: unlike the default `RandomState`
/// map, its layout and iteration order are the same in every process.
pub type DetMap<K, V> = HashMap<K, V, BuildHasherDefault<DetHasher>>;

/// Hash any `Hash` value deterministically.
pub fn det_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DetHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Deterministic partition assignment: `hash(key) % parts`.
pub fn partition_of<T: Hash + ?Sized>(key: &T, parts: u32) -> u32 {
    (det_hash(key) % parts as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_across_calls() {
        assert_eq!(det_hash(&"hello"), det_hash(&"hello"));
        assert_eq!(det_hash(&42u64), det_hash(&42u64));
        assert_ne!(det_hash(&"hello"), det_hash(&"world"));
    }

    #[test]
    fn partitions_in_range_and_spread() {
        let parts = 7;
        let mut seen = vec![0u32; parts as usize];
        for k in 0..1000u64 {
            let p = partition_of(&k, parts);
            assert!(p < parts);
            seen[p as usize] += 1;
        }
        // Rough dispersion: no partition empty, none hogging >40%.
        for (i, c) in seen.iter().enumerate() {
            assert!(*c > 0, "partition {i} empty");
            assert!(*c < 400, "partition {i} has {c}");
        }
    }
}
