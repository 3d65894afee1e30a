//! Block manager and shuffle store.
//!
//! Data-plane state shared (via `Arc`) by every executor and the driver:
//! cached RDD partitions and shuffle map outputs. Entries remember which
//! executor produced them so an executor failure can invalidate exactly
//! its share — the event that triggers lineage recomputation and stage
//! retry in the driver.

use std::collections::HashMap;

use parking_lot::RwLock;

use crate::config::StorageLevel;
use crate::plan::{PartValue, RddId, ShuffleId};

/// Global executor index (node-major).
pub type ExecId = u32;

/// A cached partition.
pub struct CachedBlock {
    /// The partition data.
    pub value: PartValue,
    /// Logical size in bytes.
    pub bytes: u64,
    /// Executor holding it.
    pub owner: ExecId,
    /// Whether it resides on disk (spilled or DiskOnly).
    pub on_disk: bool,
}

/// Per-cluster block manager: cached RDD partitions keyed by
/// `(rdd, partition)`. Memory accounting is per executor; inserting past
/// the budget spills (MemoryAndDisk / DiskOnly) or evicts the
/// least-recently-cached memory block (MemoryOnly).
pub struct BlockStore {
    blocks: RwLock<HashMap<(RddId, u32), CachedBlock>>,
    mem_used: RwLock<HashMap<ExecId, u64>>,
    insert_order: RwLock<Vec<(RddId, u32)>>,
    mem_budget: u64,
}

/// Outcome of a cache insertion (what the executor must charge time for).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Stored in memory.
    Memory,
    /// Written to local disk (caller charges a disk write).
    Disk,
    /// Stored in memory after evicting older memory blocks (MemoryOnly
    /// pressure); evicted partitions will recompute from lineage.
    MemoryAfterEviction,
}

impl BlockStore {
    /// Store with a per-executor memory budget (logical bytes).
    pub fn new(mem_budget: u64) -> BlockStore {
        BlockStore {
            blocks: RwLock::new(HashMap::new()),
            mem_used: RwLock::new(HashMap::new()),
            insert_order: RwLock::new(Vec::new()),
            mem_budget,
        }
    }

    /// Look up a cached partition owned by `exec` (Spark reads its own
    /// block manager; remote cached blocks are recomputed instead —
    /// documented simplification). Returns `(value, bytes, on_disk)`.
    pub fn get(&self, rdd: RddId, part: u32, exec: ExecId) -> Option<(PartValue, u64, bool)> {
        let g = self.blocks.read();
        let b = g.get(&(rdd, part))?;
        if b.owner != exec {
            return None;
        }
        Some((b.value.clone(), b.bytes, b.on_disk))
    }

    /// The executor holding a cached partition (driver-side locality).
    pub fn owner(&self, rdd: RddId, part: u32) -> Option<ExecId> {
        self.blocks.read().get(&(rdd, part)).map(|b| b.owner)
    }

    /// Whether any live copy exists (driver-side planning).
    pub fn contains(&self, rdd: RddId, part: u32) -> bool {
        self.blocks.read().contains_key(&(rdd, part))
    }

    /// Insert a block under `level`, applying the memory budget.
    pub fn put(
        &self,
        rdd: RddId,
        part: u32,
        exec: ExecId,
        value: PartValue,
        bytes: u64,
        level: StorageLevel,
    ) -> CacheOutcome {
        let mut mem = self.mem_used.write();
        let used = mem.entry(exec).or_insert(0);
        let outcome = match level {
            StorageLevel::DiskOnly => CacheOutcome::Disk,
            StorageLevel::MemoryAndDisk => {
                if *used + bytes <= self.mem_budget {
                    *used += bytes;
                    CacheOutcome::Memory
                } else {
                    CacheOutcome::Disk
                }
            }
            StorageLevel::MemoryOnly => {
                if *used + bytes <= self.mem_budget {
                    *used += bytes;
                    CacheOutcome::Memory
                } else {
                    // Evict oldest memory-resident blocks of this executor.
                    let mut blocks = self.blocks.write();
                    let mut order = self.insert_order.write();
                    let mut i = 0;
                    while *used + bytes > self.mem_budget && i < order.len() {
                        let key = order[i];
                        let evictable = blocks
                            .get(&key)
                            .map(|b| b.owner == exec && !b.on_disk)
                            .unwrap_or(false);
                        if evictable {
                            let b = blocks.remove(&key).unwrap();
                            *used = used.saturating_sub(b.bytes);
                            order.remove(i);
                        } else {
                            i += 1;
                        }
                    }
                    *used += bytes;
                    CacheOutcome::MemoryAfterEviction
                }
            }
        };
        let on_disk = outcome == CacheOutcome::Disk;
        self.blocks.write().insert(
            (rdd, part),
            CachedBlock {
                value,
                bytes,
                owner: exec,
                on_disk,
            },
        );
        self.insert_order.write().push((rdd, part));
        outcome
    }

    /// Drop everything an executor held (executor loss).
    pub fn invalidate_executor(&self, exec: ExecId) -> usize {
        let mut blocks = self.blocks.write();
        let before = blocks.len();
        blocks.retain(|_, b| b.owner != exec);
        self.mem_used.write().remove(&exec);
        before - blocks.len()
    }
}

/// One registered shuffle map output bucket.
pub struct ShuffleBucket {
    /// The bucket's records.
    pub value: PartValue,
    /// Logical bytes.
    pub bytes: u64,
    /// Executor that produced it.
    pub owner: ExecId,
}

/// Shuffle map outputs keyed by `(shuffle, map partition, reduce
/// partition)`. Spark always writes shuffle files to the producer's local
/// disk; the executor charges that write when registering.
#[derive(Default)]
pub struct ShuffleStore {
    buckets: RwLock<HashMap<(ShuffleId, u32, u32), ShuffleBucket>>,
    /// Map partitions completed per shuffle.
    done: RwLock<HashMap<ShuffleId, std::collections::HashSet<u32>>>,
}

impl ShuffleStore {
    /// Empty store.
    pub fn new() -> ShuffleStore {
        ShuffleStore::default()
    }

    /// Register every bucket of one map partition.
    pub fn put_map_output(
        &self,
        shuffle: ShuffleId,
        map_part: u32,
        exec: ExecId,
        buckets: Vec<(PartValue, u64)>,
    ) {
        let mut g = self.buckets.write();
        for (r, (value, bytes)) in buckets.into_iter().enumerate() {
            g.insert(
                (shuffle, map_part, r as u32),
                ShuffleBucket {
                    value,
                    bytes,
                    owner: exec,
                },
            );
        }
        self.done
            .write()
            .entry(shuffle)
            .or_default()
            .insert(map_part);
    }

    /// Whether a map partition's output is available.
    pub fn has_map_output(&self, shuffle: ShuffleId, map_part: u32) -> bool {
        self.done
            .read()
            .get(&shuffle)
            .map(|s| s.contains(&map_part))
            .unwrap_or(false)
    }

    /// Fetch one bucket: `(value, bytes, owner)`.
    pub fn get_bucket(
        &self,
        shuffle: ShuffleId,
        map_part: u32,
        reduce_part: u32,
    ) -> Option<(PartValue, u64, ExecId)> {
        let g = self.buckets.read();
        g.get(&(shuffle, map_part, reduce_part))
            .map(|b| (b.value.clone(), b.bytes, b.owner))
    }

    /// Drop everything an executor produced; returns the map partitions
    /// lost per shuffle (these must be re-executed — stage retry).
    pub fn invalidate_executor(&self, exec: ExecId) -> Vec<(ShuffleId, u32)> {
        let mut lost = Vec::new();
        let mut g = self.buckets.write();
        g.retain(|(s, m, _), b| {
            if b.owner == exec {
                lost.push((*s, *m));
                false
            } else {
                true
            }
        });
        lost.sort();
        lost.dedup();
        let mut done = self.done.write();
        for (s, m) in &lost {
            if let Some(set) = done.get_mut(s) {
                set.remove(m);
            }
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pv(n: usize) -> PartValue {
        PartValue::of((0..n as u64).collect::<Vec<_>>())
    }

    #[test]
    fn block_store_respects_owner() {
        let bs = BlockStore::new(1 << 20);
        bs.put(1, 0, 3, pv(10), 100, StorageLevel::MemoryAndDisk);
        assert!(bs.get(1, 0, 3).is_some());
        assert!(bs.get(1, 0, 4).is_none(), "other executors miss");
        assert!(bs.contains(1, 0));
    }

    #[test]
    fn owner_is_the_one_executor_get_serves() {
        let bs = BlockStore::new(1 << 20);
        assert_eq!(bs.owner(1, 0), None);
        bs.put(1, 0, 3, pv(10), 100, StorageLevel::MemoryAndDisk);
        assert_eq!(bs.owner(1, 0), Some(3));
        assert_eq!((0..8).find(|e| bs.get(1, 0, *e).is_some()), Some(3));
        assert_eq!(bs.owner(1, 1), None, "other partitions have no owner");
        bs.invalidate_executor(3);
        assert_eq!(bs.owner(1, 0), None);
    }

    #[test]
    fn memory_and_disk_spills_past_budget() {
        let bs = BlockStore::new(150);
        assert_eq!(
            bs.put(1, 0, 0, pv(1), 100, StorageLevel::MemoryAndDisk),
            CacheOutcome::Memory
        );
        assert_eq!(
            bs.put(1, 1, 0, pv(1), 100, StorageLevel::MemoryAndDisk),
            CacheOutcome::Disk
        );
        let (_, _, on_disk) = bs.get(1, 1, 0).unwrap();
        assert!(on_disk);
    }

    #[test]
    fn memory_only_evicts_oldest() {
        let bs = BlockStore::new(150);
        bs.put(1, 0, 0, pv(1), 100, StorageLevel::MemoryOnly);
        let out = bs.put(1, 1, 0, pv(1), 100, StorageLevel::MemoryOnly);
        assert_eq!(out, CacheOutcome::MemoryAfterEviction);
        assert!(bs.get(1, 0, 0).is_none(), "older block evicted");
        assert!(bs.get(1, 1, 0).is_some());
    }

    #[test]
    fn invalidation_prunes_only_owner() {
        let bs = BlockStore::new(1 << 20);
        bs.put(1, 0, 0, pv(1), 10, StorageLevel::MemoryAndDisk);
        bs.put(1, 1, 1, pv(1), 10, StorageLevel::MemoryAndDisk);
        assert_eq!(bs.invalidate_executor(0), 1);
        assert!(bs.get(1, 1, 1).is_some());
    }

    #[test]
    fn shuffle_store_roundtrip_and_loss() {
        let ss = ShuffleStore::new();
        ss.put_map_output(0, 2, 5, vec![(pv(3), 30), (pv(1), 10)]);
        assert!(ss.has_map_output(0, 2));
        assert!(!ss.has_map_output(0, 0));
        let (v, bytes, owner) = ss.get_bucket(0, 2, 1).unwrap();
        assert_eq!(v.items, 1);
        assert_eq!(bytes, 10);
        assert_eq!(owner, 5);
        let lost = ss.invalidate_executor(5);
        assert_eq!(lost, vec![(0, 2)]);
        assert!(!ss.has_map_output(0, 2));
    }
}
