//! The logical plan: an untyped RDD DAG shared by driver and executors.
//!
//! Typed `Rdd<T>` handles (see [`crate::rdd`]) append nodes to this
//! registry; the driver walks it to build stages and the executors walk
//! it to materialize partitions (lineage). Closures are type-erased
//! around [`PartValue`] — a partition's worth of data plus its item
//! count, which drives all cost accounting.

use std::any::Any;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::RwLock;

use hpcbd_simnet::{NodeId, ProcCtx, Work};

use crate::config::StorageLevel;

/// Id of an RDD node in the plan.
pub type RddId = usize;
/// Id of a shuffle dependency.
pub type ShuffleId = usize;
/// Identifies a partitioner, for co-partitioned narrow joins.
pub type PartitionerId = u64;

/// A type-erased partition transform.
pub type NarrowFn = Arc<dyn Fn(&PartValue) -> PartValue + Send + Sync>;
/// A type-erased partition producer (sources).
pub type SourceFn = Arc<dyn Fn(&mut ProcCtx, u32) -> PartValue + Send + Sync>;
/// A type-erased zip of two aligned partitions (narrow joins).
pub type ZipFn = Arc<dyn Fn(&PartValue, &PartValue) -> PartValue + Send + Sync>;
/// A type-erased map-side bucket splitter.
pub type SplitFn = Arc<dyn Fn(&PartValue, u32) -> Vec<PartValue> + Send + Sync>;
/// A type-erased merge of fetched shuffle buckets.
pub type CombineFn = Arc<dyn Fn(Vec<PartValue>) -> PartValue + Send + Sync>;
/// A type-erased merge of two shuffles' buckets (wide joins).
pub type JoinCombineFn = Arc<dyn Fn(Vec<PartValue>, Vec<PartValue>) -> PartValue + Send + Sync>;

/// One partition's materialized data: a `Vec<T>` behind `Any`, plus the
/// sample item count. A `parallelize` partition is a [`PartValue::view`]
/// of the driver's collection instead, so serving it copies nothing.
#[derive(Clone)]
pub struct PartValue {
    /// The data: an `Arc<Vec<T>>`, or an `Arc<View<T>>` for a view.
    data: Arc<dyn Any + Send + Sync>,
    /// Sample items in this partition.
    pub items: usize,
}

/// The range `start..start + items` of a shared vector. Kept behind the
/// `Any` rather than as a `PartValue` field, so the shuffle and block
/// stores, which hold every bucket of a job, do not pay for it.
struct View<T> {
    all: Arc<Vec<T>>,
    start: usize,
}

impl PartValue {
    /// Wrap a typed vector.
    pub fn of<T: Send + Sync + 'static>(v: Vec<T>) -> PartValue {
        PartValue {
            items: v.len(),
            data: Arc::new(v),
        }
    }

    /// A view of `range` of a shared vector; no element is copied.
    pub fn view<T: Send + Sync + 'static>(all: Arc<Vec<T>>, range: Range<usize>) -> PartValue {
        let items = all[range.clone()].len();
        PartValue {
            data: Arc::new(View {
                all,
                start: range.start,
            }),
            items,
        }
    }

    /// Borrow the typed items.
    pub fn as_slice<T: Send + Sync + 'static>(&self) -> &[T] {
        if let Some(v) = self.data.downcast_ref::<Vec<T>>() {
            return v;
        }
        let v = self
            .data
            .downcast_ref::<View<T>>()
            .expect("partition element type mismatch");
        &v.all[v.start..v.start + self.items]
    }
}

/// How a node computes one of its partitions.
pub enum Compute {
    /// Leaf: produce partition `p` directly (parallelize slice, HDFS
    /// block read). The closure charges its own I/O via `ProcCtx`.
    Source(SourceFn),
    /// One-to-one on the same partition of `parent` (map/filter/flatMap/
    /// mapValues — pipelined within a stage).
    Narrow {
        /// Parent RDD.
        parent: RddId,
        /// Transform of the parent partition.
        f: NarrowFn,
    },
    /// Reader side of a shuffle: combine the fetched map-output buckets
    /// for this reduce partition.
    ShuffleRead {
        /// The shuffle this node reads.
        shuffle: ShuffleId,
        /// Merge buckets (already filtered to this partition).
        combine: CombineFn,
    },
    /// Reader side of a wide join: combine fetched buckets from two
    /// shuffles.
    ShuffleJoin {
        /// Left-side shuffle.
        left: ShuffleId,
        /// Right-side shuffle.
        right: ShuffleId,
        /// Merge the two bucket sets for this partition.
        combine: JoinCombineFn,
    },
    /// Coalesce: output partition `p` concatenates the parent partitions
    /// listed in `groups[p]` (narrow, no shuffle).
    Coalesce {
        /// Parent RDD.
        parent: RddId,
        /// Parent partitions feeding each output partition.
        groups: Vec<Vec<u32>>,
        /// Typed concatenation of the gathered parent partitions.
        merge: CombineFn,
    },
    /// Union: partition `p` passes through parent `left` partition `p`
    /// when `p < left_parts`, else parent `right` partition
    /// `p - left_parts`.
    UnionSelect {
        /// First parent.
        left: RddId,
        /// Second parent.
        right: RddId,
        /// Partition count of the first parent.
        left_parts: u32,
    },
    /// Partition-wise zip of two co-partitioned parents (narrow join).
    CoPartitioned {
        /// Left parent.
        left: RddId,
        /// Right parent.
        right: RddId,
        /// Combine the two aligned partitions.
        f: ZipFn,
    },
}

/// Map side of a shuffle dependency.
pub struct ShuffleDep {
    /// RDD whose partitions get re-bucketed.
    pub parent: RddId,
    /// Number of reduce-side partitions.
    pub partitions: u32,
    /// Split one parent partition into `partitions` buckets.
    pub split: SplitFn,
}

/// One node of the logical plan.
pub struct RddNode {
    /// Node id (index in the plan).
    pub id: RddId,
    /// Human-readable operator name ("map", "reduceByKey", ...).
    pub op_name: &'static str,
    /// Partition count.
    pub partitions: u32,
    /// How partitions materialize.
    pub compute: Compute,
    /// CPU work per *logical* item processed by this node.
    pub work_per_item: Work,
    /// Logical-records-per-sample-record multiplier, inherited from the
    /// source.
    pub scale: f64,
    /// Serialized bytes per logical item (shuffle/cache sizing).
    pub item_bytes: u64,
    /// Persistence requested via `.persist(...)`. Interior-mutable:
    /// like Spark, `persist` marks an existing RDD.
    pub storage: RwLock<Option<StorageLevel>>,
    /// Extra control-plane bytes shipped with each task of this node
    /// (`parallelize` slices travel inside the task closure).
    pub source_dispatch_bytes: std::sync::atomic::AtomicU64,
    /// Hash partitioner identity, when this RDD's layout is known
    /// (output of reduceByKey / partitionBy). Joins of equal partitioners
    /// stay narrow.
    pub partitioner: Option<PartitionerId>,
    /// Preferred nodes per partition (HDFS locality for sources).
    pub prefs: Vec<Vec<NodeId>>,
}

/// The shared plan registry.
#[derive(Default)]
pub struct Plan {
    nodes: RwLock<Vec<Arc<RddNode>>>,
    shuffles: RwLock<Vec<Arc<ShuffleDep>>>,
}

impl Plan {
    /// Fresh empty plan.
    pub fn new() -> Arc<Plan> {
        Arc::new(Plan::default())
    }

    /// Register a node, assigning its id.
    pub fn add_node(&self, mut node: RddNode) -> Arc<RddNode> {
        let mut g = self.nodes.write();
        node.id = g.len();
        let node = Arc::new(node);
        g.push(node.clone());
        node
    }

    /// Register a shuffle dependency, returning its id.
    pub fn add_shuffle(&self, dep: ShuffleDep) -> ShuffleId {
        let mut g = self.shuffles.write();
        g.push(Arc::new(dep));
        g.len() - 1
    }

    /// Node by id.
    pub fn node(&self, id: RddId) -> Arc<RddNode> {
        self.nodes.read()[id].clone()
    }

    /// Shuffle dep by id.
    pub fn shuffle(&self, id: ShuffleId) -> Arc<ShuffleDep> {
        self.shuffles.read()[id].clone()
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.nodes.read().len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.read().is_empty()
    }

    /// The shuffle dependencies a stage ending at `target` needs, i.e.
    /// every shuffle reachable from `target` through narrow /
    /// co-partitioned edges only.
    pub fn stage_shuffle_inputs(&self, target: RddId) -> Vec<ShuffleId> {
        let mut out = Vec::new();
        let mut stack = vec![target];
        let mut seen = std::collections::HashSet::new();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            match &self.node(id).compute {
                Compute::Source(_) => {}
                Compute::Narrow { parent, .. } | Compute::Coalesce { parent, .. } => {
                    stack.push(*parent)
                }
                Compute::ShuffleRead { shuffle, .. } => out.push(*shuffle),
                Compute::ShuffleJoin { left, right, .. } => {
                    out.push(*left);
                    out.push(*right);
                }
                Compute::UnionSelect { left, right, .. }
                | Compute::CoPartitioned { left, right, .. } => {
                    stack.push(*left);
                    stack.push(*right);
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(plan: &Plan, parts: u32) -> Arc<RddNode> {
        plan.add_node(RddNode {
            id: 0,
            op_name: "source",
            partitions: parts,
            compute: Compute::Source(Arc::new(|_ctx, p| PartValue::of(vec![p as u64]))),
            work_per_item: Work::NONE,
            scale: 1.0,
            item_bytes: 8,
            storage: RwLock::new(None),
            source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
            partitioner: None,
            prefs: vec![],
        })
    }

    #[test]
    fn ids_assigned_sequentially() {
        let plan = Plan::new();
        let a = leaf(&plan, 2);
        let b = leaf(&plan, 2);
        assert_eq!(a.id, 0);
        assert_eq!(b.id, 1);
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn part_value_roundtrip() {
        let pv = PartValue::of(vec![1u32, 2, 3]);
        assert_eq!(pv.items, 3);
        assert_eq!(pv.as_slice::<u32>(), &[1, 2, 3]);
    }

    #[test]
    fn part_value_view_shares_the_vector() {
        let data = Arc::new(vec![10u32, 11, 12, 13, 14, 15]);
        let pv = PartValue::view(data.clone(), 2..5);
        assert_eq!(pv.items, 3);
        assert_eq!(pv.as_slice::<u32>(), &[12, 13, 14]);
        let empty = PartValue::view(data.clone(), 6..6);
        assert_eq!((empty.items, empty.as_slice::<u32>()), (0, &[] as &[u32]));
        assert_eq!(
            Arc::strong_count(&data),
            3,
            "views hold the vector, not copies"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn part_value_view_past_the_end_panics() {
        PartValue::view(Arc::new(vec![1u8, 2]), 1..3);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn part_value_type_mismatch_panics() {
        let pv = PartValue::of(vec![1u32]);
        pv.as_slice::<u64>();
    }

    #[test]
    fn stage_inputs_stop_at_shuffles() {
        let plan = Plan::new();
        let src = leaf(&plan, 4);
        let sid = plan.add_shuffle(ShuffleDep {
            parent: src.id,
            partitions: 4,
            split: Arc::new(|_pv, n| (0..n).map(|_| PartValue::of(Vec::<u64>::new())).collect()),
        });
        let red = plan.add_node(RddNode {
            id: 0,
            op_name: "reduceByKey",
            partitions: 4,
            compute: Compute::ShuffleRead {
                shuffle: sid,
                combine: Arc::new(|_| PartValue::of(Vec::<u64>::new())),
            },
            work_per_item: Work::NONE,
            scale: 1.0,
            item_bytes: 8,
            storage: RwLock::new(None),
            source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
            partitioner: Some(7),
            prefs: vec![],
        });
        let mapped = plan.add_node(RddNode {
            id: 0,
            op_name: "map",
            partitions: 4,
            compute: Compute::Narrow {
                parent: red.id,
                f: Arc::new(|pv| pv.clone()),
            },
            work_per_item: Work::NONE,
            scale: 1.0,
            item_bytes: 8,
            storage: RwLock::new(None),
            source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
            partitioner: Some(7),
            prefs: vec![],
        });
        assert_eq!(plan.stage_shuffle_inputs(mapped.id), vec![sid]);
        assert!(plan.stage_shuffle_inputs(src.id).is_empty());
    }
}
