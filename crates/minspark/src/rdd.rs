//! Typed, lazy RDD handles (the user-facing API of Sec. II-E).
//!
//! Transformations (`map`, `flat_map`, `filter`, `map_values`,
//! `reduce_by_key`, `join`, ...) only append nodes to the shared
//! [`Plan`]; nothing materializes until an action runs on the driver
//! ([`crate::driver::SparkDriver`]) — Spark's lazy evaluation. RDDs track
//! their partitioner so that a join of two co-partitioned RDDs stays
//! narrow, which is the mechanism behind the tuned BigDataBench PageRank
//! (Fig. 5/6 of the paper).

use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;

use hpcbd_minhdfs::Hdfs;
use hpcbd_simnet::{partition_of, DetMap, Work};

use crate::config::StorageLevel;
use crate::plan::{Compute, PartValue, Plan, RddNode, SplitFn};

/// Element bound for RDD contents.
pub trait Data: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Data for T {}

/// Key bound for pair-RDD operations.
pub trait Key: Data + Eq + Ord + Hash {}
impl<T: Data + Eq + Ord + Hash> Key for T {}

/// A typed handle to one plan node.
pub struct Rdd<T> {
    pub(crate) plan: Arc<Plan>,
    pub(crate) id: usize,
    pub(crate) _t: PhantomData<fn() -> T>,
}

impl<T> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            plan: self.plan.clone(),
            id: self.id,
            _t: PhantomData,
        }
    }
}

impl<T: Data> Rdd<T> {
    pub(crate) fn from_node(plan: Arc<Plan>, node: Arc<RddNode>) -> Rdd<T> {
        Rdd {
            plan,
            id: node.id,
            _t: PhantomData,
        }
    }

    fn node(&self) -> Arc<RddNode> {
        self.plan.node(self.id)
    }

    /// Partition count.
    pub fn num_partitions(&self) -> u32 {
        self.node().partitions
    }

    /// Plan-node id (diagnostics).
    pub fn id(&self) -> usize {
        self.id
    }

    pub(crate) fn narrow<U: Data>(
        &self,
        op_name: &'static str,
        work_per_item: Work,
        item_bytes: u64,
        keep_partitioner: bool,
        f: impl Fn(&[T]) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        let parent = self.node();
        let node = self.plan.add_node(RddNode {
            id: 0,
            op_name,
            partitions: parent.partitions,
            compute: Compute::Narrow {
                parent: parent.id,
                f: Arc::new(move |pv| PartValue::of(f(pv.as_slice::<T>()))),
            },
            work_per_item,
            scale: parent.scale,
            item_bytes,
            storage: parking_lot::RwLock::new(None),
            source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
            partitioner: if keep_partitioner {
                parent.partitioner
            } else {
                None
            },
            prefs: Vec::new(),
        });
        Rdd::from_node(self.plan.clone(), node)
    }

    /// `map`: one output element per input element.
    pub fn map<U: Data>(&self, f: impl Fn(&T) -> U + Send + Sync + 'static) -> Rdd<U> {
        self.narrow(
            "map",
            Work::new(4.0, 32.0),
            self.node().item_bytes,
            false,
            move |v| v.iter().map(&f).collect(),
        )
    }

    /// `map` with an explicit per-logical-item CPU cost (for benchmarks
    /// whose map body does real work, e.g. record parsing).
    pub fn map_with_cost<U: Data>(
        &self,
        work_per_item: Work,
        item_bytes: u64,
        f: impl Fn(&T) -> U + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.narrow("map", work_per_item, item_bytes, false, move |v| {
            v.iter().map(&f).collect()
        })
    }

    /// `flatMap`.
    pub fn flat_map<U: Data>(&self, f: impl Fn(&T) -> Vec<U> + Send + Sync + 'static) -> Rdd<U> {
        self.flat_map_with_cost(Work::new(8.0, 48.0), self.node().item_bytes, f)
    }

    /// `flatMap` with explicit per-logical-item CPU work and output item
    /// wire size (flat maps often change the record shape drastically —
    /// e.g. adjacency lists exploding into slim contribution pairs).
    pub fn flat_map_with_cost<U: Data>(
        &self,
        work_per_item: Work,
        item_bytes: u64,
        f: impl Fn(&T) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        // Append each element's output in one copy: collecting a
        // `FlatMap` pushes item by item with no size hint to reserve by.
        self.narrow("flatMap", work_per_item, item_bytes, false, move |v| {
            let mut out = Vec::new();
            for x in v {
                out.append(&mut f(x));
            }
            out
        })
    }

    /// `filter`.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Rdd<T> {
        self.narrow(
            "filter",
            Work::new(2.0, 16.0),
            self.node().item_bytes,
            true,
            move |v| v.iter().filter(|x| f(x)).cloned().collect(),
        )
    }

    /// `persist(level)`: mark this RDD for caching at first
    /// materialization. Mutates the plan node (like Spark, persistence is
    /// a property of the RDD, not a new RDD) and returns `self` for
    /// chaining.
    pub fn persist(&self, level: StorageLevel) -> Rdd<T> {
        *self.node().storage.write() = Some(level);
        self.clone()
    }

    /// Remove the persistence mark (`unpersist`).
    pub fn unpersist(&self) -> Rdd<T> {
        *self.node().storage.write() = None;
        self.clone()
    }
}

impl<K: Key, V: Data> Rdd<(K, V)> {
    /// `mapValues` (keeps the partitioner — key layout is unchanged).
    pub fn map_values<W: Data>(&self, f: impl Fn(&V) -> W + Send + Sync + 'static) -> Rdd<(K, W)> {
        self.narrow(
            "mapValues",
            Work::new(4.0, 32.0),
            self.node().item_bytes,
            true,
            move |v| v.iter().map(|(k, val)| (k.clone(), f(val))).collect(),
        )
    }

    /// Drop keys (`values`).
    pub fn values(&self) -> Rdd<V> {
        self.narrow(
            "values",
            Work::new(1.0, 16.0),
            self.node().item_bytes,
            false,
            move |v| v.iter().map(|(_, val)| val.clone()).collect(),
        )
    }

    /// `reduceByKey(f, numPartitions)`: map-side combine, hash shuffle,
    /// reduce-side merge. The result is hash-partitioned by key into
    /// `parts` partitions (recorded, enabling narrow joins downstream).
    pub fn reduce_by_key(
        &self,
        parts: u32,
        f: impl Fn(&V, &V) -> V + Send + Sync + 'static,
    ) -> Rdd<(K, V)> {
        let parent = self.node();
        let f = Arc::new(f);
        let f_split = f.clone();
        let split = Arc::new(move |pv: &PartValue, n: u32| {
            combine_by_key(pv.as_slice::<(K, V)>(), n, &*f_split)
                .into_iter()
                .map(PartValue::of)
                .collect::<Vec<_>>()
        });
        let shuffle = self.plan.add_shuffle(crate::plan::ShuffleDep {
            parent: parent.id,
            partitions: parts,
            split,
        });
        let combine = Arc::new(move |buckets: Vec<PartValue>| {
            PartValue::of(reduce_buckets(&typed::<(K, V)>(&buckets), &*f))
        });
        let node = self.plan.add_node(RddNode {
            id: 0,
            op_name: "reduceByKey",
            partitions: parts,
            compute: Compute::ShuffleRead { shuffle, combine },
            work_per_item: Work::new(12.0, 64.0),
            scale: parent.scale,
            item_bytes: parent.item_bytes,
            storage: parking_lot::RwLock::new(None),
            source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
            partitioner: Some(parts as u64),
            prefs: Vec::new(),
        });
        Rdd::from_node(self.plan.clone(), node)
    }

    /// `groupByKey(numPartitions)`: full shuffle without map-side
    /// combine (the shuffle-heavy pattern of the HiBench PageRank).
    pub fn group_by_key(&self, parts: u32) -> Rdd<(K, Vec<V>)> {
        let parent = self.node();
        let shuffle = self.plan.add_shuffle(crate::plan::ShuffleDep {
            parent: parent.id,
            partitions: parts,
            split: key_split::<K, V>(),
        });
        let combine = Arc::new(|buckets: Vec<PartValue>| {
            PartValue::of(group_buckets(&typed::<(K, V)>(&buckets)))
        });
        let node = self.plan.add_node(RddNode {
            id: 0,
            op_name: "groupByKey",
            partitions: parts,
            compute: Compute::ShuffleRead { shuffle, combine },
            work_per_item: Work::new(10.0, 64.0),
            scale: parent.scale,
            item_bytes: parent.item_bytes,
            storage: parking_lot::RwLock::new(None),
            source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
            partitioner: Some(parts as u64),
            prefs: Vec::new(),
        });
        Rdd::from_node(self.plan.clone(), node)
    }

    /// `partitionBy(parts)`: hash-repartition by key.
    pub fn partition_by(&self, parts: u32) -> Rdd<(K, V)> {
        let parent = self.node();
        let shuffle = self.plan.add_shuffle(crate::plan::ShuffleDep {
            parent: parent.id,
            partitions: parts,
            split: key_split::<K, V>(),
        });
        let combine = Arc::new(|buckets: Vec<PartValue>| {
            let mut out = typed::<(K, V)>(&buckets).concat();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            PartValue::of(out)
        });
        let node = self.plan.add_node(RddNode {
            id: 0,
            op_name: "partitionBy",
            partitions: parts,
            compute: Compute::ShuffleRead { shuffle, combine },
            work_per_item: Work::new(6.0, 48.0),
            scale: parent.scale,
            item_bytes: parent.item_bytes,
            storage: parking_lot::RwLock::new(None),
            source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
            partitioner: Some(parts as u64),
            prefs: Vec::new(),
        });
        Rdd::from_node(self.plan.clone(), node)
    }

    /// `join(other, parts)`: inner join. When both sides already carry
    /// the same hash partitioner with `parts` partitions the join is
    /// **narrow** — each output partition zips the two aligned parent
    /// partitions locally with no shuffle. Otherwise both sides shuffle.
    pub fn join<W: Data>(&self, other: &Rdd<(K, W)>, parts: u32) -> Rdd<(K, (V, W))> {
        let left = self.node();
        let right = other.plan.node(other.id);
        let co_partitioned = left.partitioner.is_some()
            && left.partitioner == right.partitioner
            && left.partitions == parts
            && right.partitions == parts;
        if co_partitioned {
            let f = Arc::new(|l: &PartValue, r: &PartValue| {
                PartValue::of(merge_join::<K, V, W>(
                    l.as_slice::<(K, V)>().iter().collect(),
                    r.as_slice::<(K, W)>().iter().collect(),
                ))
            });
            let node = self.plan.add_node(RddNode {
                id: 0,
                op_name: "join(narrow)",
                partitions: parts,
                compute: Compute::CoPartitioned {
                    left: left.id,
                    right: right.id,
                    f,
                },
                work_per_item: Work::new(14.0, 96.0),
                scale: left.scale,
                item_bytes: left.item_bytes + right.item_bytes,
                storage: parking_lot::RwLock::new(None),
                source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
                partitioner: left.partitioner,
                prefs: Vec::new(),
            });
            return Rdd::from_node(self.plan.clone(), node);
        }
        // Wide join: shuffle both parents.
        let ls = self.plan.add_shuffle(crate::plan::ShuffleDep {
            parent: left.id,
            partitions: parts,
            split: key_split::<K, V>(),
        });
        let rs = self.plan.add_shuffle(crate::plan::ShuffleDep {
            parent: right.id,
            partitions: parts,
            split: key_split::<K, W>(),
        });
        let combine = Arc::new(|lbuckets: Vec<PartValue>, rbuckets: Vec<PartValue>| {
            PartValue::of(merge_join::<K, V, W>(
                lbuckets
                    .iter()
                    .flat_map(|b| b.as_slice::<(K, V)>())
                    .collect(),
                rbuckets
                    .iter()
                    .flat_map(|b| b.as_slice::<(K, W)>())
                    .collect(),
            ))
        });
        let node = self.plan.add_node(RddNode {
            id: 0,
            op_name: "join(wide)",
            partitions: parts,
            compute: Compute::ShuffleJoin {
                left: ls,
                right: rs,
                combine,
            },
            work_per_item: Work::new(16.0, 112.0),
            scale: left.scale,
            item_bytes: left.item_bytes + right.item_bytes,
            storage: parking_lot::RwLock::new(None),
            source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
            partitioner: Some(parts as u64),
            prefs: Vec::new(),
        });
        Rdd::from_node(self.plan.clone(), node)
    }
}

// The shuffle data path. Every fold by key below is [`aggregate`]: one
// pass in arrival order with an index map from key to output slot, so
// each key's values fold left to right in input order. That is the
// order a stable sort by key followed by a run fold would give, with
// no comparison sort of the items. Only the distinct keys are sorted,
// and only where the output must be key-ordered. The map is never
// iterated, so its layout cannot reach any result.

/// The map side of a plain hash shuffle: [`split_by_key`] behind a
/// type-erased [`SplitFn`].
pub(crate) fn key_split<K: Key, V: Data>() -> SplitFn {
    Arc::new(|pv: &PartValue, n: u32| {
        split_by_key(pv.as_slice::<(K, V)>(), n)
            .into_iter()
            .map(PartValue::of)
            .collect()
    })
}

/// Split `items` into `n` buckets by `partition_of`, keeping input order
/// within each.
fn split_by_key<K: Key, V: Data>(items: &[(K, V)], n: u32) -> Vec<Vec<(K, V)>> {
    deal(items.iter().cloned(), &destinations(items, n), n)
}

/// Each item's bucket: one `partition_of` hash per item.
fn destinations<K: Key, V>(items: &[(K, V)], n: u32) -> Vec<u32> {
    items.iter().map(|(k, _)| partition_of(k, n)).collect()
}

/// Deal `items` into `n` buckets by `dest`, keeping input order within
/// each. A counting pass sizes every bucket exactly.
fn deal<T>(items: impl IntoIterator<Item = T>, dest: &[u32], n: u32) -> Vec<Vec<T>> {
    let mut sizes = vec![0usize; n as usize];
    for &b in dest {
        sizes[b as usize] += 1;
    }
    let mut buckets: Vec<Vec<T>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (&b, item) in dest.iter().zip(items) {
        buckets[b as usize].push(item);
    }
    buckets
}

/// Fold `items` by key in arrival order. The output holds the distinct
/// keys in first-appearance order; a key whose values are `v1, v2, v3`
/// gets `fold(fold(init(v1), v2), v3)`. `cap` bounds the distinct keys
/// and sizes the index map and the output up front: letting them grow
/// costs more than the fold.
fn aggregate<'a, K: Key, V: 'a, A>(
    items: impl IntoIterator<Item = &'a (K, V)>,
    cap: usize,
    init: impl Fn(&V) -> A,
    fold: impl Fn(&mut A, &V),
) -> Vec<(K, A)> {
    let mut slot: DetMap<K, usize> = DetMap::with_capacity_and_hasher(cap, Default::default());
    let mut out: Vec<(K, A)> = Vec::with_capacity(cap);
    for (k, v) in items {
        // One probe per item. `entry` takes the key by value, a free copy
        // for the integer keys the benchmarks shuffle.
        match slot.entry(k.clone()) {
            Entry::Occupied(e) => fold(&mut out[*e.get()].1, v),
            Entry::Vacant(e) => {
                e.insert(out.len());
                out.push((k.clone(), init(v)));
            }
        }
    }
    out
}

/// Sort folded output by key, and give back the slack `aggregate` sized
/// for every item: the result may stay cached until the job ends. Keys
/// are distinct, so an unstable sort yields the stable order.
fn key_sorted<K: Key, A>(mut out: Vec<(K, A)>) -> Vec<(K, A)> {
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    out.shrink_to_fit();
    out
}

/// Map side of `reduce_by_key`: fold the partition by key, then deal the
/// folded items into their buckets. Each bucket holds a key at most
/// once, in first-appearance order, and is sized exactly because the
/// shuffle store keeps every map output until the job ends.
fn combine_by_key<K: Key, V: Data>(
    items: &[(K, V)],
    n: u32,
    f: &impl Fn(&V, &V) -> V,
) -> Vec<Vec<(K, V)>> {
    let folded = aggregate(items, items.len(), V::clone, |acc, v| *acc = f(acc, v));
    let dest = destinations(&folded, n);
    deal(folded, &dest, n)
}

/// Reduce side of `reduce_by_key`: the fetched buckets read in bucket
/// order, folded by key, sorted by key. A map bucket holds each key at
/// most once, so a key's operands arrive in bucket order whatever the
/// order inside each bucket.
fn reduce_buckets<K: Key, V: Data>(buckets: &[&[(K, V)]], f: &impl Fn(&V, &V) -> V) -> Vec<(K, V)> {
    let cap = buckets.iter().map(|b| b.len()).sum();
    let items = buckets.iter().flat_map(|b| b.iter());
    key_sorted(aggregate(items, cap, V::clone, |acc, v| *acc = f(acc, v)))
}

/// Reduce side of `group_by_key`: the fetched buckets read in bucket
/// order, each key's values collected in that order, sorted by key.
fn group_buckets<K: Key, V: Data>(buckets: &[&[(K, V)]]) -> Vec<(K, Vec<V>)> {
    let cap = buckets.iter().map(|b| b.len()).sum();
    let items = buckets.iter().flat_map(|b| b.iter());
    key_sorted(aggregate(
        items,
        cap,
        |v| vec![v.clone()],
        |vs, v| vs.push(v.clone()),
    ))
}

/// Inner merge join, sorted by key. Within a key the pairs come in left
/// input order, then right input order.
fn merge_join<K: Key, V: Data, W: Data>(
    mut l: Vec<&(K, V)>,
    mut r: Vec<&(K, W)>,
) -> Vec<(K, (V, W))> {
    l.sort_by(|a, b| a.0.cmp(&b.0));
    r.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < l.len() && j < r.len() {
        match l[i].0.cmp(&r[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let k = &l[i].0;
                let i_end = i + l[i..].iter().take_while(|x| x.0 == *k).count();
                let j_end = j + r[j..].iter().take_while(|x| x.0 == *k).count();
                for (_, v) in &l[i..i_end] {
                    for (_, w) in &r[j..j_end] {
                        out.push((k.clone(), (v.clone(), w.clone())));
                    }
                }
                (i, j) = (i_end, j_end);
            }
        }
    }
    out
}

/// The typed contents of fetched buckets, in bucket order.
fn typed<T: Send + Sync + 'static>(buckets: &[PartValue]) -> Vec<&[T]> {
    buckets.iter().map(|b| b.as_slice::<T>()).collect()
}

/// Source constructors, callable with just a plan handle (the driver
/// exposes them as `sc.parallelize` / `sc.hadoop_file`).
pub(crate) mod sources {
    use super::*;
    use hpcbd_simnet::InputFormat;

    /// `sc.parallelize(data, parts)`: slice a driver-side collection.
    /// The slices ship with the tasks (dispatch cost ∝ slice bytes). A
    /// partition is a view of the shared collection, not a copy, so a
    /// lineage recompute reads the same data.
    pub fn parallelize<T: Data>(
        plan: &Arc<Plan>,
        data: Vec<T>,
        parts: u32,
        item_bytes: u64,
    ) -> Rdd<T> {
        let data = Arc::new(data);
        let n = data.len();
        let parts = parts.max(1);
        let per_part_bytes = (n as u64 * item_bytes) / parts as u64;
        let node = plan.add_node(RddNode {
            id: 0,
            op_name: "parallelize",
            partitions: parts,
            compute: Compute::Source(Arc::new(move |_ctx, p| {
                let start = p as usize * n / parts as usize;
                let end = (p as usize + 1) * n / parts as usize;
                PartValue::view(data.clone(), start..end)
            })),
            work_per_item: Work::new(2.0, 16.0),
            scale: 1.0,
            item_bytes,
            storage: parking_lot::RwLock::new(None),
            source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
            partitioner: None,
            prefs: Vec::new(),
        });
        // Record dispatch weight on the node via prefs-free channel:
        // the driver reads `source_dispatch_bytes`.
        node.source_dispatch_bytes
            .store(per_part_bytes, std::sync::atomic::Ordering::Relaxed);
        Rdd::from_node(plan.clone(), node)
    }

    /// `sc.textFile`-style source over an HDFS file: one partition per
    /// block, preferring the block's replica nodes, parsing the file's
    /// sample records via `format`.
    pub fn hadoop_file<I: InputFormat>(
        plan: &Arc<Plan>,
        hdfs: &Hdfs,
        path: &str,
        format: Arc<I>,
    ) -> Rdd<I::Rec> {
        let file = hdfs
            .stat(path)
            .unwrap_or_else(|| panic!("hdfs file {path} not loaded"));
        let blocks = file.blocks.clone();
        let prefs: Vec<Vec<hpcbd_simnet::NodeId>> =
            blocks.iter().map(|b| b.replicas.clone()).collect();
        let hdfs = hdfs.clone();
        let scale = format.logical_scale();
        let record_work = format.record_work();
        let bytes_per_record = {
            // Average logical record size: derived from one sample block.
            let sample = format.sample_records(blocks[0].offset, blocks[0].len);
            if sample.is_empty() {
                64
            } else {
                (blocks[0].len as f64 / (sample.len() as f64 * scale)).max(1.0) as u64
            }
        };
        let node = plan.add_node(RddNode {
            id: 0,
            op_name: "hadoopFile",
            partitions: blocks.len() as u32,
            compute: Compute::Source(Arc::new(move |ctx, p| {
                let block = &blocks[p as usize];
                hdfs.read_block(ctx, block);
                PartValue::of(format.sample_records(block.offset, block.len))
            })),
            work_per_item: record_work,
            scale,
            item_bytes: bytes_per_record,
            storage: parking_lot::RwLock::new(None),
            source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
            partitioner: None,
            prefs,
        });
        Rdd::from_node(plan.clone(), node)
    }

    /// Source over a file replicated on every node's local scratch (the
    /// paper's "Spark on local filesystem" configuration in Table II):
    /// `parts` even byte-range partitions, no locality constraint (every
    /// node has the file), no HDFS overheads.
    pub fn local_file<I: InputFormat>(
        plan: &Arc<Plan>,
        path: &str,
        size: u64,
        parts: u32,
        format: Arc<I>,
    ) -> Rdd<I::Rec> {
        let path = path.to_string();
        let scale = format.logical_scale();
        let record_work = format.record_work();
        let node = plan.add_node(RddNode {
            id: 0,
            op_name: "localFile",
            partitions: parts,
            compute: Compute::Source(Arc::new(move |ctx, p| {
                let chunk = size.div_ceil(parts as u64);
                let offset = (p as u64 * chunk).min(size);
                let len = chunk.min(size - offset);
                // The file must exist on this node's scratch.
                let entry = ctx
                    .fs()
                    .expect(hpcbd_simnet::Mount::Scratch(ctx.node()), &path);
                debug_assert!(entry.logical_size >= size);
                ctx.disk_read(len);
                PartValue::of(format.sample_records(offset, len))
            })),
            work_per_item: record_work,
            scale,
            item_bytes: 64,
            storage: parking_lot::RwLock::new(None),
            source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
            partitioner: None,
            prefs: Vec::new(),
        });
        Rdd::from_node(plan.clone(), node)
    }
}

/// The sort-then-fold bodies the arrival-order [`aggregate`] replaced,
/// kept as they were as the reference for its bit-identity: a stable
/// sort by key, then one left-to-right fold per run of equal keys.
#[cfg(test)]
mod sort_based {
    use super::{split_by_key, Data, Key};

    fn fold_runs<K: Key, V: Data>(mut items: Vec<(K, V)>, f: &impl Fn(&V, &V) -> V) -> Vec<(K, V)> {
        items.sort_by(|a, b| a.0.cmp(&b.0));
        // `dedup_by` passes (later, kept) and drops `later` on `true`.
        items.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = f(&kept.1, &later.1);
            }
            same
        });
        items
    }

    pub fn combine_by_key<K: Key, V: Data>(
        items: &[(K, V)],
        n: u32,
        f: &impl Fn(&V, &V) -> V,
    ) -> Vec<Vec<(K, V)>> {
        split_by_key(items, n)
            .into_iter()
            .map(|bucket| fold_runs(bucket, f))
            .collect()
    }

    pub fn reduce_buckets<K: Key, V: Data>(
        buckets: &[&[(K, V)]],
        f: &impl Fn(&V, &V) -> V,
    ) -> Vec<(K, V)> {
        fold_runs(buckets.concat(), f)
    }

    pub fn group_buckets<K: Key, V: Data>(buckets: &[&[(K, V)]]) -> Vec<(K, Vec<V>)> {
        let mut items = buckets.concat();
        items.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out: Vec<(K, Vec<V>)> = Vec::new();
        for (k, v) in items {
            match out.last_mut() {
                Some((last, vs)) if *last == k => vs.push(v),
                _ => out.push((k, vec![v])),
            }
        }
        out
    }
}

/// The hash-map bodies the sort-based shuffle replaced, kept as they
/// were (typed slices in place of `PartValue`s) as the reference the
/// tests below compare the data path against.
#[cfg(test)]
mod oracle {
    use super::{Data, Key};
    use hpcbd_simnet::partition_of;

    pub fn split_by_key<K: Key, V: Data>(items: &[(K, V)], n: u32) -> Vec<Vec<(K, V)>> {
        let mut buckets: Vec<Vec<(K, V)>> = (0..n).map(|_| Vec::new()).collect();
        for (k, v) in items {
            buckets[partition_of(k, n) as usize].push((k.clone(), v.clone()));
        }
        buckets
    }

    pub fn combine_by_key<K: Key, V: Data>(
        items: &[(K, V)],
        n: u32,
        f: &impl Fn(&V, &V) -> V,
    ) -> Vec<Vec<(K, V)>> {
        let mut buckets: Vec<std::collections::HashMap<K, V>> =
            (0..n).map(|_| std::collections::HashMap::new()).collect();
        for (k, v) in items {
            let b = partition_of(k, n) as usize;
            match buckets[b].get_mut(k) {
                Some(acc) => *acc = f(acc, v),
                None => {
                    buckets[b].insert(k.clone(), v.clone());
                }
            }
        }
        buckets
            .into_iter()
            .map(|m| {
                let mut v: Vec<(K, V)> = m.into_iter().collect();
                v.sort_by(|a, b| a.0.cmp(&b.0));
                v
            })
            .collect::<Vec<_>>()
    }

    pub fn reduce_buckets<K: Key, V: Data>(
        buckets: &[&[(K, V)]],
        f: &impl Fn(&V, &V) -> V,
    ) -> Vec<(K, V)> {
        let mut acc: std::collections::HashMap<K, V> = std::collections::HashMap::new();
        for b in buckets {
            for (k, v) in *b {
                match acc.get_mut(k) {
                    Some(a) => *a = f(a, v),
                    None => {
                        acc.insert(k.clone(), v.clone());
                    }
                }
            }
        }
        let mut out: Vec<(K, V)> = acc.into_iter().collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    pub fn group_buckets<K: Key, V: Data>(buckets: &[&[(K, V)]]) -> Vec<(K, Vec<V>)> {
        let mut acc: std::collections::HashMap<K, Vec<V>> = std::collections::HashMap::new();
        for b in buckets {
            for (k, v) in *b {
                acc.entry(k.clone()).or_default().push(v.clone());
            }
        }
        let mut out: Vec<(K, Vec<V>)> = acc.into_iter().collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    pub fn hash_join<K: Key, V: Data, W: Data>(l: &[(K, V)], r: &[(K, W)]) -> Vec<(K, (V, W))> {
        let mut rmap: std::collections::HashMap<&K, Vec<&W>> = std::collections::HashMap::new();
        for (k, w) in r {
            rmap.entry(k).or_default().push(w);
        }
        let mut out: Vec<(K, (V, W))> = Vec::new();
        for (k, v) in l {
            if let Some(ws) = rmap.get(k) {
                for w in ws {
                    out.push((k.clone(), (v.clone(), (*w).clone())));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bucket counts every case runs: one, a few, and more buckets than
    /// items (most of them empty).
    const NS: [u32; 5] = [1, 2, 7, 64, 1000];

    /// Neither commutative nor associative: a changed fold order or
    /// operand order changes the result.
    fn mix(a: &u64, b: &u64) -> u64 {
        a.wrapping_mul(31).wrapping_add(*b)
    }

    /// Rounding makes `f64` sums order-sensitive; compare them by bits.
    fn sum(a: &f64, b: &f64) -> f64 {
        a + b
    }

    fn bits(v: Vec<(u32, f64)>) -> Vec<(u32, u64)> {
        v.into_iter().map(|(k, x)| (k, x.to_bits())).collect()
    }

    fn bits_of(vs: &[f64]) -> Vec<u64> {
        vs.iter().map(|x| x.to_bits()).collect()
    }

    fn slices<T>(buckets: &[Vec<T>]) -> Vec<&[T]> {
        buckets.iter().map(Vec::as_slice).collect()
    }

    /// `buckets` (each key-sorted, as the oracle returns them) with each
    /// bucket's entries reordered by where their key first appears in
    /// `items`.
    fn by_first_appearance<V>(
        items: &[(u32, V)],
        buckets: Vec<Vec<(u32, V)>>,
    ) -> Vec<Vec<(u32, V)>> {
        let mut first = std::collections::BTreeMap::new();
        for (i, (k, _)) in items.iter().enumerate() {
            first.entry(*k).or_insert(i);
        }
        buckets
            .into_iter()
            .map(|mut b| {
                b.sort_by_key(|(k, _)| first[k]);
                b
            })
            .collect()
    }

    /// A whole shuffle: `map` splits every map partition into `n`
    /// buckets, then `reduce` reads reduce partition `r`'s bucket from
    /// each map partition, in map-partition order.
    fn shuffle<V, M, R>(
        parts: &[Vec<(u32, V)>],
        n: u32,
        map: impl Fn(&[(u32, V)], u32) -> Vec<Vec<M>>,
        reduce: impl Fn(&[&[M]]) -> R,
    ) -> Vec<R> {
        let outputs: Vec<Vec<Vec<M>>> = parts.iter().map(|p| map(p, n)).collect();
        (0..n as usize)
            .map(|r| reduce(&outputs.iter().map(|o| o[r].as_slice()).collect::<Vec<_>>()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn map_side_buckets_hold_the_oracle_folds_in_first_appearance_order(
            items in collection::vec((0u32..12, any::<u64>()), 0..400),
            reals in collection::vec((0u32..12, -1.0e6f64..1.0e6), 0..400),
        ) {
            for n in NS {
                prop_assert_eq!(split_by_key(&items, n), oracle::split_by_key(&items, n));
                prop_assert_eq!(
                    combine_by_key(&items, n, &mix),
                    by_first_appearance(&items, oracle::combine_by_key(&items, n, &mix)),
                    "n = {}", n
                );
                let got: Vec<_> = combine_by_key(&reals, n, &sum).into_iter().map(bits).collect();
                let want: Vec<_> =
                    by_first_appearance(&reals, oracle::combine_by_key(&reals, n, &sum))
                        .into_iter()
                        .map(bits)
                        .collect();
                prop_assert_eq!(got, want, "n = {}", n);
            }
        }

        #[test]
        fn map_then_reduce_matches_the_sort_based_shuffle(
            parts in collection::vec(collection::vec((0u32..12, any::<u64>()), 0..80), 0..10),
            reals in collection::vec(collection::vec((0u32..12, -1.0e6f64..1.0e6), 0..80), 0..10),
        ) {
            for n in NS {
                let got = shuffle(&parts, n, |p, n| combine_by_key(p, n, &mix), |b| reduce_buckets(b, &mix));
                let want = shuffle(
                    &parts,
                    n,
                    |p, n| sort_based::combine_by_key(p, n, &mix),
                    |b| sort_based::reduce_buckets(b, &mix),
                );
                prop_assert_eq!(got, want, "n = {}", n);
                let got = shuffle(&reals, n, |p, n| combine_by_key(p, n, &sum), |b| bits(reduce_buckets(b, &sum)));
                let want = shuffle(
                    &reals,
                    n,
                    |p, n| sort_based::combine_by_key(p, n, &sum),
                    |b| bits(sort_based::reduce_buckets(b, &sum)),
                );
                prop_assert_eq!(got, want, "n = {}", n);
            }
        }

        #[test]
        fn reduce_side_matches_the_hash_map_oracle(
            buckets in collection::vec(collection::vec((0u32..12, any::<u64>()), 0..80), 0..10),
            reals in collection::vec(collection::vec((0u32..12, -1.0e6f64..1.0e6), 0..80), 0..10),
        ) {
            let (b, r) = (slices(&buckets), slices(&reals));
            prop_assert_eq!(reduce_buckets(&b, &mix), oracle::reduce_buckets(&b, &mix));
            prop_assert_eq!(bits(reduce_buckets(&r, &sum)), bits(oracle::reduce_buckets(&r, &sum)));
            prop_assert_eq!(group_buckets(&b), oracle::group_buckets(&b));
            prop_assert_eq!(bits(reduce_buckets(&r, &sum)), bits(sort_based::reduce_buckets(&r, &sum)));
            prop_assert_eq!(group_buckets(&b), sort_based::group_buckets(&b));
            let got: Vec<_> = group_buckets(&r).into_iter().map(|(k, vs)| (k, bits_of(&vs))).collect();
            let want: Vec<_> = sort_based::group_buckets(&r)
                .into_iter()
                .map(|(k, vs)| (k, bits_of(&vs)))
                .collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn merge_join_matches_the_hash_join_oracle(
            l in collection::vec((0u32..8, any::<u64>()), 0..150),
            r in collection::vec((0u32..8, any::<u32>()), 0..150),
        ) {
            // Narrow: both sides as they are.
            prop_assert_eq!(merge_join(l.iter().collect(), r.iter().collect()), oracle::hash_join(&l, &r));
            // Wide: both sides split, then read bucket by bucket.
            for n in NS {
                let (lb, rb) = (split_by_key(&l, n), split_by_key(&r, n));
                prop_assert_eq!(
                    merge_join(lb.iter().flatten().collect(), rb.iter().flatten().collect()),
                    oracle::hash_join(&lb.concat(), &rb.concat()),
                    "n = {}", n
                );
            }
        }
    }
}
