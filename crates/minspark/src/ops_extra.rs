//! Additional RDD operators beyond the core set the paper's benchmarks
//! use: `union`, `distinct`, `sortByKey`, `cogroup`, `keys`, `sample`,
//! and the `saveAsHadoopFile` output action. These round the API out to
//! what a downstream user of the engine expects from Sec. II-E's
//! description of "coarse-grained transformations (e.g., map, filter
//! and join)".

use std::sync::Arc;

use hpcbd_simnet::{partition_of, Work};

use crate::driver::SparkDriver;
use crate::plan::{Compute, PartValue, RddNode};
use crate::rdd::{key_split, Data, Key, Rdd};

/// Result element of [`Rdd::cogroup`]: the two sides' value groups.
pub type CoGrouped<K, V, W> = (K, (Vec<V>, Vec<W>));

impl<T: Data> Rdd<T> {
    /// `union(other)`: concatenation of the two RDDs' partitions (narrow
    /// in Spark; here the result has `self.parts + other.parts`
    /// partitions, each passing one parent partition through).
    pub fn union(&self, other: &Rdd<T>) -> Rdd<T> {
        let left = self.plan.node(self.id);
        let right = self.plan.node(other.id);
        let lparts = left.partitions;
        let (lid, rid) = (left.id, right.id);
        // Route partition p to the matching parent partition. Implemented
        // as a co-partitioned combine over a widened index space is not
        // possible with differing counts, so union materializes through a
        // dedicated narrow node that selects its parent by partition id.
        let node = self.plan.add_node(RddNode {
            id: 0,
            op_name: "union",
            partitions: left.partitions + right.partitions,
            compute: Compute::UnionSelect {
                left: lid,
                right: rid,
                left_parts: lparts,
            },
            work_per_item: Work::new(1.0, 8.0),
            scale: left.scale.max(right.scale),
            item_bytes: left.item_bytes.max(right.item_bytes),
            storage: parking_lot::RwLock::new(None),
            source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
            partitioner: None,
            prefs: Vec::new(),
        });
        Rdd::from_node(self.plan.clone(), node)
    }

    /// `distinct(numPartitions)`: shuffle by value hash, deduplicate.
    pub fn distinct(&self, parts: u32) -> Rdd<T>
    where
        T: Eq + Ord + std::hash::Hash,
    {
        let parent = self.plan.node(self.id);
        let split = Arc::new(move |pv: &PartValue, n: u32| {
            let mut buckets: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
            for x in pv.as_slice::<T>() {
                buckets[partition_of(x, n) as usize].push(x.clone());
            }
            // Pre-deduplicate map-side (like a combiner).
            buckets
                .into_iter()
                .map(|mut b| {
                    b.sort();
                    b.dedup();
                    PartValue::of(b)
                })
                .collect::<Vec<_>>()
        });
        let shuffle = self.plan.add_shuffle(crate::plan::ShuffleDep {
            parent: parent.id,
            partitions: parts,
            split,
        });
        let combine = Arc::new(|buckets: Vec<PartValue>| {
            let mut all: Vec<T> = Vec::new();
            for b in &buckets {
                all.extend(b.as_slice::<T>().iter().cloned());
            }
            all.sort();
            all.dedup();
            PartValue::of(all)
        });
        let node = self.plan.add_node(RddNode {
            id: 0,
            op_name: "distinct",
            partitions: parts,
            compute: Compute::ShuffleRead { shuffle, combine },
            work_per_item: Work::new(10.0, 48.0),
            scale: parent.scale,
            item_bytes: parent.item_bytes,
            storage: parking_lot::RwLock::new(None),
            source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
            partitioner: None,
            prefs: Vec::new(),
        });
        Rdd::from_node(self.plan.clone(), node)
    }

    /// `sample(fraction)`: deterministic pseudo-random subset (seeded by
    /// the RDD id, like passing a seed to Spark's `sample`).
    pub fn sample(&self, fraction: f64) -> Rdd<T>
    where
        T: std::hash::Hash,
    {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
        let threshold = (fraction * u32::MAX as f64) as u32;
        let seed = self.id as u64;
        self.narrow(
            "sample",
            Work::new(2.0, 16.0),
            self.plan.node(self.id).item_bytes,
            true,
            move |v: &[T]| {
                v.iter()
                    .filter(|x| (hpcbd_simnet::det_hash(&(seed, *x)) >> 32) as u32 <= threshold)
                    .cloned()
                    .collect()
            },
        )
    }
}

impl<K: Key, V: Data> Rdd<(K, V)> {
    /// `keys()`.
    pub fn keys(&self) -> Rdd<K> {
        self.narrow("keys", Work::new(1.0, 16.0), 8, false, |v: &[(K, V)]| {
            v.iter().map(|(k, _)| k.clone()).collect()
        })
    }

    /// `sortByKey(numPartitions)`: range-free simplification — hash
    /// shuffle then sort within partitions (total order within each
    /// partition, like Spark's per-partition ordering guarantee after
    /// `repartitionAndSortWithinPartitions`).
    pub fn sort_by_key(&self, parts: u32) -> Rdd<(K, V)> {
        let repart = self.partition_by(parts);
        repart.narrow(
            "sortByKey",
            Work::new(20.0, 96.0),
            self.plan.node(self.id).item_bytes,
            true,
            |v: &[(K, V)]| {
                let mut out = v.to_vec();
                out.sort_by(|a, b| a.0.cmp(&b.0));
                out
            },
        )
    }

    /// `cogroup(other, numPartitions)`: full outer grouping of both
    /// sides by key.
    pub fn cogroup<W: Data>(&self, other: &Rdd<(K, W)>, parts: u32) -> Rdd<CoGrouped<K, V, W>> {
        let left = self.plan.node(self.id);
        let right = self.plan.node(other.id);
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
        let combine = Arc::new(|lb: Vec<PartValue>, rb: Vec<PartValue>| {
            let mut groups: std::collections::BTreeMap<K, (Vec<V>, Vec<W>)> =
                std::collections::BTreeMap::new();
            for b in &lb {
                for (k, v) in b.as_slice::<(K, V)>() {
                    groups.entry(k.clone()).or_default().0.push(v.clone());
                }
            }
            for b in &rb {
                for (k, w) in b.as_slice::<(K, W)>() {
                    groups.entry(k.clone()).or_default().1.push(w.clone());
                }
            }
            PartValue::of(groups.into_iter().collect::<Vec<_>>())
        });
        let node = self.plan.add_node(RddNode {
            id: 0,
            op_name: "cogroup",
            partitions: parts,
            compute: Compute::ShuffleJoin {
                left: ls,
                right: rs,
                combine,
            },
            work_per_item: Work::new(14.0, 96.0),
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

impl<T: Data> Rdd<T> {
    /// `mapPartitions`: transform each partition as a whole (amortize
    /// per-partition setup the way Spark users do with connection pools
    /// or per-split parsers).
    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(&[T]) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.narrow(
            "mapPartitions",
            Work::new(4.0, 32.0),
            self.plan.node(self.id).item_bytes,
            false,
            f,
        )
    }

    /// `coalesce(n)`: shrink to `n` partitions without a shuffle; output
    /// partition `p` concatenates an even share of parent partitions.
    pub fn coalesce(&self, n: u32) -> Rdd<T> {
        let parent = self.plan.node(self.id);
        let n = n.clamp(1, parent.partitions);
        let old = parent.partitions;
        let groups: Vec<Vec<u32>> = (0..n)
            .map(|p| {
                let start = (p as u64 * old as u64 / n as u64) as u32;
                let end = ((p as u64 + 1) * old as u64 / n as u64) as u32;
                (start..end).collect()
            })
            .collect();
        let merge = Arc::new(|parts: Vec<PartValue>| {
            let mut out: Vec<T> = Vec::new();
            for pv in &parts {
                out.extend(pv.as_slice::<T>().iter().cloned());
            }
            PartValue::of(out)
        });
        let node = self.plan.add_node(RddNode {
            id: 0,
            op_name: "coalesce",
            partitions: n,
            compute: Compute::Coalesce {
                parent: parent.id,
                groups,
                merge,
            },
            work_per_item: Work::new(2.0, 24.0),
            scale: parent.scale,
            item_bytes: parent.item_bytes,
            storage: parking_lot::RwLock::new(None),
            source_dispatch_bytes: std::sync::atomic::AtomicU64::new(0),
            partitioner: None,
            prefs: Vec::new(),
        });
        Rdd::from_node(self.plan.clone(), node)
    }

    /// `rdd.toDebugString()`: the lineage as an indented operator tree —
    /// the tool Spark users reach for to see where their shuffles and
    /// cache points are.
    pub fn to_debug_string(&self) -> String {
        fn walk(plan: &crate::plan::Plan, id: usize, depth: usize, out: &mut String) {
            let node = plan.node(id);
            let cached = match *node.storage.read() {
                Some(crate::config::StorageLevel::MemoryAndDisk) => " [MEMORY_AND_DISK]",
                Some(crate::config::StorageLevel::MemoryOnly) => " [MEMORY_ONLY]",
                Some(crate::config::StorageLevel::DiskOnly) => " [DISK_ONLY]",
                None => "",
            };
            out.push_str(&format!(
                "{}({}) {}[{} partitions]{}\n",
                "  ".repeat(depth),
                id,
                node.op_name,
                node.partitions,
                cached
            ));
            match &node.compute {
                Compute::Source(_) => {}
                Compute::Narrow { parent, .. } => walk(plan, *parent, depth + 1, out),
                Compute::ShuffleRead { shuffle, .. } => {
                    let dep = plan.shuffle(*shuffle);
                    out.push_str(&format!(
                        "{}+- shuffle #{shuffle}\n",
                        "  ".repeat(depth + 1)
                    ));
                    walk(plan, dep.parent, depth + 2, out);
                }
                Compute::ShuffleJoin { left, right, .. } => {
                    for (side, sid) in [("left", left), ("right", right)] {
                        let dep = plan.shuffle(*sid);
                        out.push_str(&format!(
                            "{}+- {side} shuffle #{sid}\n",
                            "  ".repeat(depth + 1)
                        ));
                        walk(plan, dep.parent, depth + 2, out);
                    }
                }
                Compute::Coalesce { parent, .. } => walk(plan, *parent, depth + 1, out),
                Compute::UnionSelect { left, right, .. }
                | Compute::CoPartitioned { left, right, .. } => {
                    walk(plan, *left, depth + 1, out);
                    walk(plan, *right, depth + 1, out);
                }
            }
        }
        let mut out = String::new();
        walk(&self.plan, self.id, 0, &mut out);
        out
    }
}

impl SparkDriver<'_> {
    /// `rdd.saveAsHadoopFile(path)`: write every partition to HDFS as
    /// `path/part-NNNNN`, with replicated block writes charged to the
    /// executors. Returns total logical bytes written.
    pub fn save_as_hadoop_file<T: Data>(&mut self, rdd: &Rdd<T>, path: &str) -> u64 {
        let hdfs = self.hdfs().clone();
        let node = self.plan().node(rdd.id());
        let item_bytes = node.item_bytes;
        let path = path.to_string();
        let action: crate::executor::ActionFn = Arc::new(move |ctx, scale, pv| {
            let bytes = (pv.items as f64 * scale * item_bytes as f64) as u64;
            // The executor writes its output partition through the HDFS
            // client path (pipelined replicas).
            hdfs.write_file(ctx, &format!("{path}/part-unsorted"), bytes, None);
            PartValue::of(vec![bytes])
        });
        let partials = self.run_action_public(rdd.id(), action);
        partials
            .into_iter()
            .filter_map(|(_, pv)| pv)
            .map(|pv| pv.as_slice::<u64>().iter().sum::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::{SparkCluster, SparkConfig};

    #[test]
    fn union_concatenates() {
        let r = SparkCluster::new(2, SparkConfig::default()).run(|sc| {
            let a = sc.parallelize(vec![1u32, 2, 3], 2);
            let b = sc.parallelize(vec![10u32, 20], 2);
            let u = a.union(&b);
            let mut out = sc.collect(&u);
            out.sort();
            (out, u.num_partitions())
        });
        assert_eq!(r.value.0, vec![1, 2, 3, 10, 20]);
        assert_eq!(r.value.1, 4);
    }

    #[test]
    fn distinct_deduplicates() {
        let r = SparkCluster::new(2, SparkConfig::default()).run(|sc| {
            let xs = sc.parallelize(vec![3u32, 1, 3, 7, 1, 1, 9, 7], 3);
            let d = xs.distinct(2);
            let mut out = sc.collect(&d);
            out.sort();
            out
        });
        assert_eq!(r.value, vec![1, 3, 7, 9]);
    }

    #[test]
    fn sort_by_key_orders_within_partitions_and_counts_all() {
        let r = SparkCluster::new(2, SparkConfig::default()).run(|sc| {
            let pairs: Vec<(u32, u64)> = (0..100).rev().map(|i| (i, i as u64)).collect();
            let rdd = sc.parallelize(pairs, 4);
            let sorted = rdd.sort_by_key(4);
            let out = sc.collect(&sorted);
            (out.len(), out)
        });
        assert_eq!(r.value.0, 100);
        // Per-partition runs must each be sorted.
        // (collect preserves partition order; detect boundaries by drops.)
        let mut runs = 1;
        for w in r.value.1.windows(2) {
            if w[1].0 < w[0].0 {
                runs += 1;
            }
        }
        assert!(runs <= 4, "at most one run per partition, saw {runs}");
    }

    #[test]
    fn cogroup_groups_both_sides() {
        let r = SparkCluster::new(2, SparkConfig::default()).run(|sc| {
            let a = sc.parallelize(vec![(1u32, "x"), (2, "y"), (1, "z")], 2);
            let b = sc.parallelize(vec![(1u32, 10u64), (3, 30)], 2);
            let cg = a.cogroup(&b, 2);
            let mut out = sc.collect(&cg);
            out.sort_by_key(|(k, _)| *k);
            out
        });
        assert_eq!(r.value.len(), 3);
        assert_eq!(r.value[0].0, 1);
        assert_eq!(r.value[0].1 .0.len(), 2);
        assert_eq!(r.value[0].1 .1, vec![10]);
        assert_eq!(r.value[1], (2, (vec!["y"], vec![])));
        assert_eq!(r.value[2], (3, (vec![], vec![30])));
    }

    #[test]
    fn keys_and_sample() {
        let r = SparkCluster::new(1, SparkConfig::default()).run(|sc| {
            let pairs: Vec<(u32, u64)> = (0..1000).map(|i| (i, 0u64)).collect();
            let rdd = sc.parallelize(pairs, 4);
            let ks = rdd.keys();
            let sampled = ks.sample(0.1);
            let n_all = sc.count(&ks);
            let n_sampled = sc.count(&sampled);
            // Determinism: same sample twice.
            let s1 = sc.collect(&sampled);
            let s2 = sc.collect(&sampled);
            (n_all, n_sampled, s1 == s2)
        });
        assert_eq!(r.value.0, 1000);
        let frac = r.value.1 as f64 / 1000.0;
        assert!((0.05..0.2).contains(&frac), "sampled fraction {frac}");
        assert!(r.value.2);
    }

    #[test]
    fn map_partitions_transforms_whole_partitions() {
        let r = SparkCluster::new(1, SparkConfig::default()).run(|sc| {
            let xs = sc.parallelize((0..100u64).collect(), 4);
            // Per-partition running sum: only meaningful partition-wise.
            let sums = xs.map_partitions(|v: &[u64]| vec![v.iter().sum::<u64>()]);
            sc.collect(&sums)
        });
        assert_eq!(r.value.len(), 4);
        assert_eq!(r.value.iter().sum::<u64>(), (0..100u64).sum());
    }

    #[test]
    fn coalesce_preserves_data_with_fewer_partitions() {
        let r = SparkCluster::new(2, SparkConfig::default()).run(|sc| {
            let xs = sc.parallelize((0..1000u32).collect(), 16);
            let c = xs.coalesce(3);
            assert_eq!(c.num_partitions(), 3);
            let mut out = sc.collect(&c);
            out.sort();
            out
        });
        assert_eq!(r.value, (0..1000u32).collect::<Vec<_>>());
    }

    #[test]
    fn coalesce_to_one_and_identity() {
        let r = SparkCluster::new(1, SparkConfig::default()).run(|sc| {
            let xs = sc.parallelize((0..50u32).collect(), 5);
            let one = xs.coalesce(1);
            let same = xs.coalesce(99); // clamps to parent count
            (sc.count(&one), same.num_partitions(), sc.count(&same))
        });
        assert_eq!(r.value, (50, 5, 50));
    }

    #[test]
    fn debug_string_shows_lineage_shuffles_and_cache_points() {
        use crate::StorageLevel;
        let r = SparkCluster::new(1, SparkConfig::default()).run(|sc| {
            let pairs: Vec<(u32, u64)> = (0..10).map(|i| (i, 1)).collect();
            let a = sc.parallelize(pairs, 2);
            let red = a
                .reduce_by_key(2, |x, y| x + y)
                .persist(StorageLevel::MemoryOnly);
            let out = red.map_values(|v| v * 2);
            out.to_debug_string()
        });
        let s = r.value;
        assert!(s.contains("mapValues"), "{s}");
        assert!(s.contains("reduceByKey"), "{s}");
        assert!(s.contains("[MEMORY_ONLY]"), "{s}");
        assert!(s.contains("shuffle #0"), "{s}");
        assert!(s.contains("parallelize"), "{s}");
    }

    #[test]
    fn save_as_hadoop_file_writes_and_charges() {
        let r = SparkCluster::new(2, SparkConfig::default())
            .with_hdfs(hpcbd_minhdfs::HdfsConfig::default())
            .run(|sc| {
                let xs = sc.parallelize_with_bytes((0..10_000u64).collect(), 8, 1000);
                let t0 = sc.now();
                let bytes = sc.save_as_hadoop_file(&xs, "/out");
                (bytes, (sc.now() - t0).nanos())
            });
        assert_eq!(r.value.0, 10_000 * 1000);
        assert!(r.value.1 > 0);
    }
}
