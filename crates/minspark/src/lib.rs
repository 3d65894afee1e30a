//! `hpcbd-minspark` — a Spark-like RDD engine on `simnet`.
//!
//! Reproduces every Spark mechanism the paper's analysis rests on
//! (Sec. II-E, V, VI):
//!
//! * **RDDs with lazy evaluation** — transformations build a DAG; actions
//!   trigger the driver's stage scheduler ([`driver::SparkDriver`]).
//! * **Stages at shuffle boundaries** with narrow-dependency pipelining,
//!   locality-aware task placement (HDFS replicas, cached blocks) and
//!   per-task driver dispatch overhead — the cause of Spark's loss in the
//!   reduce microbenchmark (Fig. 3).
//! * **`persist`/StorageLevels** with per-executor memory accounting,
//!   disk spill (MEMORY_AND_DISK) and eviction (MEMORY_ONLY) — the
//!   one-line change worth ~3x in the BigDataBench PageRank (Fig. 5/6).
//! * **Partitioner tracking** — `join` after `reduceByKey` with the same
//!   hash partitioner is narrow, keeping the tuned PageRank's per-
//!   iteration shuffle volume low.
//! * **Pluggable shuffle engine** — socket (default) vs RDMA data plane
//!   with the control plane always on Java sockets, the exact split of
//!   the Spark-RDMA plugin evaluated in Figs. 3/6/7.
//! * **Lineage fault tolerance** — executor loss invalidates its cached
//!   partitions and map outputs; the driver re-executes exactly the lost
//!   work (stage retry on fetch failure), while the driver itself remains
//!   a single point of failure, as the paper notes.
//!
//! # Example
//!
//! ```
//! use hpcbd_minspark::{SparkCluster, SparkConfig};
//!
//! let result = SparkCluster::new(2, SparkConfig::default()).run(|sc| {
//!     let nums = sc.parallelize((1..=100u64).collect(), 8);
//!     let evens = nums.filter(|x| x % 2 == 0);
//!     sc.reduce(&evens, |a, b| a + b)
//! });
//! assert_eq!(result.value, Some((2..=100).step_by(2).sum()));
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod driver;
pub mod executor;
pub mod metrics;
pub mod ops_extra;
pub mod plan;
pub mod rdd;
pub mod scheduled;
pub mod session;
pub mod shared;
pub mod stores;

pub use config::{ShuffleEngine, SparkConfig, StorageLevel};
pub use driver::SparkDriver;
pub use metrics::MetricsSnapshot;
pub use plan::Plan;
pub use rdd::{Data, Key, Rdd};
pub use scheduled::{scheduled_answers, scheduled_pagerank};
pub use session::{SparkCluster, SparkResult};
pub use shared::{Accumulator, Broadcast};

#[cfg(test)]
mod tests {
    use super::*;
    use hpcbd_simnet::{SimDuration, SimTime, Work};
    use std::sync::Arc;

    #[test]
    fn reduce_action_matches_sequential() {
        let r = SparkCluster::new(2, SparkConfig::default()).run(|sc| {
            let xs = sc.parallelize((0..1000u64).collect(), 16);
            sc.reduce(&xs, |a, b| a + b)
        });
        assert_eq!(r.value, Some(499_500));
        assert!(r.elapsed > SimTime::ZERO);
    }

    #[test]
    fn empty_rdd_reduce_is_none() {
        let r = SparkCluster::new(1, SparkConfig::default()).run(|sc| {
            let xs = sc.parallelize(Vec::<u64>::new(), 4);
            sc.reduce(&xs, |a, b| a + b)
        });
        assert_eq!(r.value, None);
    }

    #[test]
    fn map_filter_count_pipeline() {
        let r = SparkCluster::new(2, SparkConfig::default()).run(|sc| {
            let xs = sc.parallelize((0..500u32).collect(), 8);
            let ys = xs.map(|x| x * 2).filter(|x| x % 3 == 0);
            sc.count(&ys)
        });
        let oracle = (0..500u32).map(|x| x * 2).filter(|x| x % 3 == 0).count() as u64;
        assert_eq!(r.value, oracle);
    }

    #[test]
    fn reduce_by_key_matches_oracle() {
        let r = SparkCluster::new(2, SparkConfig::default()).run(|sc| {
            let pairs: Vec<(u32, u64)> = (0..300).map(|i| (i % 7, i as u64)).collect();
            let rdd = sc.parallelize(pairs, 6);
            let summed = rdd.reduce_by_key(4, |a, b| a + b);
            let mut out = sc.collect(&summed);
            out.sort();
            out
        });
        let mut oracle = std::collections::HashMap::new();
        for i in 0..300u32 {
            *oracle.entry(i % 7).or_insert(0u64) += i as u64;
        }
        let mut oracle: Vec<(u32, u64)> = oracle.into_iter().collect();
        oracle.sort();
        assert_eq!(r.value, oracle);
    }

    #[test]
    fn wide_join_matches_oracle() {
        let r = SparkCluster::new(2, SparkConfig::default()).run(|sc| {
            let a = sc.parallelize(vec![(1u32, "a"), (2, "b"), (3, "c")], 2);
            let b = sc.parallelize(vec![(2u32, 20u64), (3, 30), (3, 31), (4, 40)], 3);
            let j = a.join(&b, 4);
            let mut out = sc.collect(&j);
            out.sort();
            out
        });
        assert_eq!(
            r.value,
            vec![(2, ("b", 20)), (3, ("c", 30)), (3, ("c", 31))]
        );
    }

    #[test]
    fn co_partitioned_join_is_narrow_and_correct() {
        let r = SparkCluster::new(2, SparkConfig::default()).run(|sc| {
            let a = sc
                .parallelize((0..100u32).map(|i| (i, 1u64)).collect::<Vec<_>>(), 4)
                .reduce_by_key(4, |x, y| x + y);
            let b = sc
                .parallelize((0..100u32).map(|i| (i, 2u64)).collect::<Vec<_>>(), 4)
                .reduce_by_key(4, |x, y| x + y);
            let j = a.join(&b, 4);
            let node = sc.plan().node(j.id());
            let narrow = node.op_name == "join(narrow)";
            let cnt = sc.count(&j);
            (narrow, cnt)
        });
        assert!(r.value.0, "co-partitioned join must be narrow");
        assert_eq!(r.value.1, 100);
    }

    #[test]
    fn unaligned_join_is_wide() {
        let r = SparkCluster::new(1, SparkConfig::default()).run(|sc| {
            let a = sc
                .parallelize((0..10u32).map(|i| (i, 1u64)).collect::<Vec<_>>(), 4)
                .reduce_by_key(4, |x, y| x + y);
            let b = sc.parallelize((0..10u32).map(|i| (i, 2u64)).collect::<Vec<_>>(), 4);
            let j = a.join(&b, 4);
            sc.plan().node(j.id()).op_name
        });
        assert_eq!(r.value, "join(wide)");
    }

    #[test]
    fn persist_speeds_up_reuse() {
        fn run(persist: bool) -> SimDuration {
            let r = SparkCluster::new(2, SparkConfig::default()).run(move |sc| {
                let xs = sc.parallelize((0..2000u64).collect(), 8);
                // An expensive map stage.
                let heavy = xs.map_with_cost(Work::new(2.0e5, 1.0e5), 8, |x| x * 3);
                if persist {
                    heavy.persist(StorageLevel::MemoryAndDisk);
                }
                let c1 = sc.count(&heavy);
                let t1 = sc.now();
                let c2 = sc.count(&heavy);
                let t2 = sc.now();
                assert_eq!(c1, c2);
                t2 - t1
            });
            r.value
        }
        let second_cached = run(true);
        let second_uncached = run(false);
        assert!(
            second_cached < second_uncached,
            "cached re-count {second_cached} must beat uncached {second_uncached}"
        );
    }

    #[test]
    fn rdma_shuffle_beats_socket_on_shuffle_heavy_job() {
        fn run(engine: ShuffleEngine) -> SimTime {
            // Shuffle-bound: ~1 GB of logical shuffle data, so task time
            // (network + disk) dwarfs driver dispatch. At small volumes
            // the driver is the bottleneck and the engines tie — which is
            // itself the paper's Fig. 3 observation.
            let config = SparkConfig::with_shuffle(engine);
            let r = SparkCluster::new(4, config).run(|sc| {
                let pairs: Vec<(u32, u64)> = (0..20_000).map(|i| (i % 1000, i as u64)).collect();
                let rdd = sc.parallelize_with_bytes(pairs, 16, 50_000);
                let red = rdd.group_by_key(16);
                sc.count(&red)
            });
            r.elapsed
        }
        let socket = run(ShuffleEngine::Socket);
        let rdma = run(ShuffleEngine::Rdma);
        assert!(
            rdma < socket,
            "rdma {rdma} must beat socket {socket} when shuffling"
        );
    }

    #[test]
    fn executor_failure_recovers_via_lineage() {
        let config = SparkConfig {
            executors_per_node: 2,
            task_timeout: SimDuration::from_secs(8),
            // Executor 1 dies 1.5 seconds in — after app startup,
            // typically holding cached/shuffle state.
            fail_executor: Some((1, SimTime(1_500_000_000))),
            ..Default::default()
        };
        let r = SparkCluster::new(2, config).run(|sc| {
            let pairs: Vec<(u32, u64)> = (0..400).map(|i| (i % 13, 1u64)).collect();
            let rdd = sc.parallelize(pairs, 8);
            let summed = rdd
                .reduce_by_key(4, |a, b| a + b)
                .persist(StorageLevel::MemoryAndDisk);
            let c1 = sc.count(&summed);
            // Survive the failure across a second pass over the same data.
            let mut out = sc.collect(&summed);
            out.sort();
            (c1, out)
        });
        assert_eq!(r.value.0, 13);
        let sums: u64 = r.value.1.iter().map(|(_, v)| v).sum();
        assert_eq!(sums, 400, "all 400 contributions survive the failure");
    }

    #[test]
    fn fault_plan_node_crash_recovers_via_lineage() {
        use hpcbd_simnet::{FaultPlan, NodeId};
        let config = SparkConfig {
            executors_per_node: 2,
            task_timeout: SimDuration::from_secs(8),
            ..Default::default()
        };
        // Node 1 (both of its executors plus its shuffle service) dies
        // right after app startup, while the first waves are in flight;
        // the driver on node 0 recovers from lineage.
        let plan = FaultPlan::new(7).crash_node(NodeId(1), SimTime(1_000_000_000));
        let r = SparkCluster::new(3, config).faults(plan).run(|sc| {
            let pairs: Vec<(u32, u64)> = (0..400).map(|i| (i % 13, 1u64)).collect();
            let rdd = sc.parallelize(pairs, 8);
            let summed = rdd
                .reduce_by_key(4, |a, b| a + b)
                .persist(StorageLevel::MemoryAndDisk);
            let c1 = sc.count(&summed);
            let mut out = sc.collect(&summed);
            out.sort();
            (c1, out)
        });
        assert_eq!(r.value.0, 13);
        let sums: u64 = r.value.1.iter().map(|(_, v)| v).sum();
        assert_eq!(sums, 400, "all 400 contributions survive the node loss");
        assert_eq!(
            r.metrics.executors_lost, 2,
            "both executors on the crashed node must be declared lost"
        );
    }

    #[test]
    fn parallelize_views_serve_the_input_in_partition_order() {
        for (n, parts) in [(0usize, 4u32), (3, 8), (10, 3), (1024, 64)] {
            let input: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
            let data = input.clone();
            let r = SparkCluster::new(2, SparkConfig::default()).run(move |sc| {
                let xs = sc.parallelize(data, parts);
                let lens = sc.collect(&xs.map_partitions(|v| vec![v.len()]));
                (sc.collect(&xs), lens, sc.count(&xs))
            });
            let (got, lens, count) = r.value;
            assert_eq!(got, input, "n={n} parts={parts}");
            assert_eq!(count, n as u64);
            // The slicing the views replaced: partition p held
            // data[p*n/parts .. (p+1)*n/parts].
            let expect: Vec<usize> = (0..parts as usize)
                .map(|p| (p + 1) * n / parts as usize - p * n / parts as usize)
                .collect();
            assert_eq!(lens, expect, "n={n} parts={parts}");
        }
    }

    #[test]
    fn lost_executor_mid_reduce_recomputes_parallelize_views() {
        use hpcbd_simnet::{FaultPlan, NodeId};
        fn run(crash_at: Option<SimTime>) -> ((u64, SimTime, SimTime), u64) {
            let config = SparkConfig {
                executors_per_node: 2,
                task_timeout: SimDuration::from_secs(8),
                ..Default::default()
            };
            let mut cluster = SparkCluster::new(3, config);
            if let Some(at) = crash_at {
                cluster = cluster.faults(FaultPlan::new(11).crash_node(NodeId(1), at));
            }
            let r = cluster.run(|sc| {
                let xs = sc.parallelize((0..4_000u64).map(|i| i * i).collect(), 12);
                // Long tasks keep a wave in flight when the node dies.
                let heavy = xs.map_with_cost(Work::new(400_000.0, 64.0), 8, |x| x ^ 0x5a5a);
                let t0 = sc.now();
                let v = sc.reduce(&heavy, |a, b| a.wrapping_mul(31).wrapping_add(*b));
                (v.expect("non-empty"), t0, sc.now())
            });
            (r.value, r.metrics.executors_lost)
        }
        let ((clean, t0, t1), lost) = run(None);
        assert_eq!(lost, 0);
        let mid = SimTime(t0.nanos() + (t1.nanos() - t0.nanos()) / 2);
        let ((faulty, ..), lost) = run(Some(mid));
        assert_eq!(lost, 2, "both executors on the crashed node are lost");
        assert_eq!(faulty, clean, "recomputed views give the fault-free result");
    }

    #[test]
    fn permanently_crashed_majority_aborts_with_structured_error() {
        use hpcbd_simnet::{FaultPlan, NodeId};
        let config = SparkConfig {
            executors_per_node: 2,
            task_timeout: SimDuration::from_secs(8),
            max_task_retries: 0,
            ..Default::default()
        };
        // Both non-driver nodes die permanently while waves are in
        // flight. With no retry budget the first requeued task must
        // abort the job as a structured error — not hang, not retry
        // forever against executors that will never come back.
        let plan = FaultPlan::new(7)
            .crash_node(NodeId(1), SimTime(1_000_000_000))
            .crash_node(NodeId(2), SimTime(1_000_000_000));
        let err = SparkCluster::new(3, config)
            .faults(plan)
            .try_run(|sc| {
                let xs = sc.parallelize((0..4_000u64).collect(), 12);
                // Long tasks keep waves in flight across the crash.
                let heavy = xs.map_with_cost(Work::new(2_000_000.0, 64.0), 8, |x| x * 2);
                sc.count(&heavy)
            })
            .map(|r| r.value)
            .expect_err("zero retry budget under a crashed majority must abort");
        assert_eq!(err.runtime, "spark");
        assert!(err.reason.contains("job aborted"), "reason: {}", err.reason);
    }

    #[test]
    fn speculation_sidesteps_a_straggler() {
        use hpcbd_simnet::{FaultPlan, NodeId};
        fn run(speculation: bool) -> (u64, crate::metrics::MetricsSnapshot) {
            let config = SparkConfig {
                executors_per_node: 2,
                speculation,
                ..Default::default()
            };
            // Node 1 computes 25x slower for the whole run.
            let plan = FaultPlan::new(3).slow_node(NodeId(1), SimTime(0), SimTime(u64::MAX), 25.0);
            let r = SparkCluster::new(2, config).faults(plan).run(|sc| {
                let xs = sc.parallelize((0..4_000u64).collect(), 8);
                let heavy = xs.map_with_cost(Work::new(120_000.0, 64.0), 8, |x| x * 2);
                sc.count(&heavy)
            });
            assert_eq!(r.value, 4_000);
            (r.elapsed.nanos(), r.metrics)
        }
        let (slow, m0) = run(false);
        let (fast, m1) = run(true);
        assert_eq!(m0.speculative_tasks, 0);
        assert!(m1.speculative_tasks > 0, "idle executors must speculate");
        assert!(
            fast < slow,
            "backup copies ({fast} ns) must beat waiting on the straggler ({slow} ns)"
        );
    }

    #[test]
    fn determinism_of_elapsed_time() {
        fn once() -> u64 {
            SparkCluster::new(2, SparkConfig::default())
                .run(|sc| {
                    let xs = sc.parallelize((0..500u64).collect(), 8);
                    let p = xs.map(|x| (x % 5, *x)).reduce_by_key(4, |a, b| a + b);
                    sc.count(&p)
                })
                .elapsed
                .nanos()
        }
        assert_eq!(once(), once());
    }

    #[test]
    fn memory_only_eviction_recomputes() {
        let config = SparkConfig {
            executors_per_node: 1,
            executor_mem: 4_000, // tiny: forces eviction
            ..Default::default()
        };
        let r = SparkCluster::new(1, config).run(|sc| {
            let xs = sc.parallelize((0..1000u64).collect(), 4);
            let a = xs.map(|x| x + 1);
            a.persist(StorageLevel::MemoryOnly);
            let c1 = sc.count(&a);
            let c2 = sc.count(&a); // some partitions recompute
            (c1, c2)
        });
        assert_eq!(r.value.0, 1000);
        assert_eq!(r.value.1, 1000);
    }

    #[test]
    fn driver_dispatch_overhead_scales_with_partitions() {
        fn run(parts: u32) -> SimTime {
            SparkCluster::new(1, SparkConfig::default())
                .run(move |sc| {
                    let xs = sc.parallelize(vec![1u64; 64], parts);
                    sc.count(&xs)
                })
                .elapsed
        }
        let few = run(2);
        let many = run(64);
        assert!(
            many > few,
            "64 tasks ({many}) must cost more driver time than 2 ({few})"
        );
    }

    #[test]
    fn collect_preserves_partition_order() {
        let r = SparkCluster::new(1, SparkConfig::default()).run(|sc| {
            let xs = sc.parallelize((0..100u32).collect(), 5);
            sc.collect(&xs)
        });
        assert_eq!(r.value, (0..100u32).collect::<Vec<_>>());
    }

    #[test]
    fn fold_take_first_actions() {
        let r = SparkCluster::new(1, SparkConfig::default()).run(|sc| {
            let xs = sc.parallelize((10..110u64).collect(), 4);
            let folded = sc.fold(&xs, 0, |a, b| a + b);
            let empty = sc.parallelize(Vec::<u64>::new(), 2);
            let zero = sc.fold(&empty, 42, |a, b| a + b);
            let head = sc.take(&xs, 3);
            let first = sc.first(&xs);
            let none = sc.first(&empty);
            (folded, zero, head, first, none)
        });
        assert_eq!(r.value.0, (10..110u64).sum());
        assert_eq!(r.value.1, 42);
        assert_eq!(r.value.2, vec![10, 11, 12]);
        assert_eq!(r.value.3, Some(10));
        assert_eq!(r.value.4, None);
    }

    #[test]
    fn metrics_expose_cache_and_shuffle_mechanisms() {
        let r = SparkCluster::new(2, SparkConfig::default()).run(|sc| {
            let pairs: Vec<(u32, u64)> = (0..2000).map(|i| (i % 50, 1)).collect();
            let rdd = sc.parallelize_with_bytes(pairs, 8, 1000);
            let red = rdd
                .reduce_by_key(4, |a, b| a + b)
                .persist(StorageLevel::MemoryAndDisk);
            let c1 = sc.count(&red); // misses: first materialization
            let c2 = sc.count(&red); // hits: cached
            (c1, c2)
        });
        assert_eq!(r.value.0, r.value.1);
        let m = r.metrics;
        assert_eq!(m.cache_misses, 4, "4 partitions computed once");
        assert!(m.cache_hits >= 4, "second count served from cache: {m:?}");
        assert!(m.shuffle_bytes_total() > 0);
        assert!(m.tasks_launched >= 16, "8 map + 4 reduce + 4 cached reads");
        assert_eq!(m.fetch_failures, 0);
        assert_eq!(m.executors_lost, 0);
    }

    #[test]
    fn metrics_record_executor_loss() {
        let config = SparkConfig {
            executors_per_node: 2,
            task_timeout: SimDuration::from_secs(6),
            // Die mid-job: a deliberately slow map keeps tasks in
            // flight past the injection time.
            fail_executor: Some((1, SimTime(1_200_000_000))),
            ..Default::default()
        };
        let r = SparkCluster::new(2, config).run(|sc| {
            let pairs: Vec<(u32, u64)> = (0..400).map(|i| (i % 13, 1)).collect();
            let rdd = sc.parallelize(pairs, 8);
            let slow = rdd.map_with_cost(Work::new(4.0e6, 1.0e6), 16, |kv| *kv);
            let red = slow.reduce_by_key(4, |a, b| a + b);
            let c1 = sc.count(&red);
            let c2 = sc.count(&red);
            (c1, c2)
        });
        assert_eq!(r.value.0, 13);
        assert_eq!(r.value.1, 13);
        assert_eq!(r.metrics.executors_lost, 1);
    }

    #[test]
    fn hdfs_sourced_rdd_counts_logical_records() {
        struct Fmt;
        impl hpcbd_simnet::InputFormat for Fmt {
            type Rec = u64;
            fn sample_records(&self, offset: u64, _len: u64) -> Vec<u64> {
                vec![offset; 10] // 10 sample records per block
            }
            fn logical_scale(&self) -> f64 {
                1000.0
            }
            fn record_work(&self) -> Work {
                Work::new(20.0, 80.0)
            }
        }
        let r = SparkCluster::new(2, SparkConfig::default())
            .with_hdfs(hpcbd_minhdfs::HdfsConfig::default())
            .hdfs_file("/data", 4 * (128 << 20), None)
            .run(|sc| {
                let xs = sc.hadoop_file("/data", Arc::new(Fmt));
                sc.count(&xs)
            });
        // 4 blocks x 10 sample records x 1000 scale.
        assert_eq!(r.value, 40_000);
    }
}
