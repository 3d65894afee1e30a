//! `hpcbd-minmapreduce` — a Hadoop-MapReduce-like engine on `simnet`.
//!
//! Implements the MapReduce programming model of Sec. II-D on the
//! `minhdfs` substrate, preserving the cost structure that makes Hadoop
//! the slowest-but-steadiest line of Fig. 4: per-job and per-task JVM
//! startup, input splits scheduled with block locality, map outputs
//! **spilled to local disk** and served back by per-node shuffle servers
//! over the socket transport, reducer-side merge sort, replicated HDFS
//! output, and automatic re-execution of failed tasks.
//!
//! # Example: word count
//!
//! ```
//! use std::sync::Arc;
//! use hpcbd_minmapreduce::{InputFormat, MrJobBuilder};
//! use hpcbd_simnet::Work;
//!
//! struct Words;
//! impl InputFormat for Words {
//!     type Rec = String;
//!     fn sample_records(&self, offset: u64, len: u64) -> Vec<String> {
//!         // Two deterministic words per 64 MB block.
//!         let b = offset / (64 << 20);
//!         vec![format!("w{}", b % 3), "common".to_string()]
//!     }
//!     fn logical_scale(&self) -> f64 { 1.0 }
//!     fn record_work(&self) -> Work { Work::new(50.0, 100.0) }
//! }
//!
//! let result = MrJobBuilder::new(
//!     Arc::new(Words),
//!     "/in",
//!     256 << 20, // 4 blocks of 64 MB
//!     |w: &String| vec![(w.clone(), 1u64)],
//!     |_k, vs: &[u64]| vs.iter().sum(),
//! )
//! .hdfs(hpcbd_minhdfs::HdfsConfig { block_size: 64 << 20, ..Default::default() })
//! .run(2);
//! let common = result
//!     .pairs
//!     .iter()
//!     .find(|(k, _)| k == "common")
//!     .map(|(_, v)| *v)
//!     .unwrap();
//! assert_eq!(common, 4);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod scheduled;
pub mod types;

pub use engine::{MrJobBuilder, MrResult, PAIR_BYTES};
pub use scheduled::scheduled_answers;
pub use types::{InputFormat, JobConf, LocalityStats};

#[cfg(test)]
mod tests {
    use super::*;
    use hpcbd_minhdfs::HdfsConfig;
    use hpcbd_simnet::Work;
    use std::sync::Arc;

    /// Deterministic synthetic input: each 32 MB block yields ten
    /// `(key, 1)`-style records drawn from a small key universe.
    struct Synth {
        keys: u64,
        scale: f64,
    }

    impl InputFormat for Synth {
        type Rec = u64;
        fn sample_records(&self, offset: u64, _len: u64) -> Vec<u64> {
            let block = offset / (32 << 20);
            (0..10).map(|i| (block * 7 + i) % self.keys).collect()
        }
        fn logical_scale(&self) -> f64 {
            self.scale
        }
        fn record_work(&self) -> Work {
            Work::new(100.0, 200.0)
        }
    }

    fn count_job(nodes: u32, blocks: u64, keys: u64) -> MrResult<u64, u64> {
        MrJobBuilder::new(
            Arc::new(Synth { keys, scale: 1.0 }),
            "/in",
            blocks * (32 << 20),
            |k: &u64| vec![(*k, 1u64)],
            |_k, vs: &[u64]| vs.iter().sum(),
        )
        .hdfs(HdfsConfig {
            block_size: 32 << 20,
            ..Default::default()
        })
        .conf(JobConf {
            reduce_tasks: 4,
            slots_per_node: 2,
            ..Default::default()
        })
        .run(nodes)
    }

    fn oracle_counts(blocks: u64, keys: u64) -> std::collections::BTreeMap<u64, u64> {
        let mut m = std::collections::BTreeMap::new();
        for b in 0..blocks {
            for i in 0..10 {
                *m.entry((b * 7 + i) % keys).or_insert(0u64) += 1;
            }
        }
        m
    }

    #[test]
    fn counts_match_oracle() {
        let blocks = 8;
        let keys = 5;
        let result = count_job(2, blocks, keys);
        let oracle = oracle_counts(blocks, keys);
        let got: std::collections::BTreeMap<u64, u64> = result.pairs.iter().cloned().collect();
        assert_eq!(got, oracle);
        assert_eq!(
            result.locality.local_maps + result.locality.remote_maps,
            blocks as u32
        );
    }

    #[test]
    fn results_are_deterministic() {
        let a = count_job(3, 6, 4);
        let b = count_job(3, 6, 4);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.elapsed, b.elapsed);
    }

    #[test]
    fn replication_3_makes_most_maps_local() {
        // With replication 3 on 3 nodes every block is everywhere.
        let r = count_job(3, 9, 4);
        assert_eq!(r.locality.remote_maps, 0);
        assert_eq!(r.locality.local_maps, 9);
    }

    #[test]
    fn combiner_reduces_shuffle_but_not_results() {
        let blocks = 6u64;
        let keys = 3u64;
        let with_combiner = MrJobBuilder::new(
            Arc::new(Synth { keys, scale: 1.0 }),
            "/in",
            blocks * (32 << 20),
            |k: &u64| vec![(*k, 1u64)],
            |_k, vs: &[u64]| vs.iter().sum(),
        )
        .combiner(|_k, vs: &[u64]| vs.iter().sum())
        .hdfs(HdfsConfig {
            block_size: 32 << 20,
            ..Default::default()
        })
        .run(2);
        let without = count_job(2, blocks, keys);
        let a: std::collections::BTreeMap<u64, u64> = with_combiner.pairs.iter().cloned().collect();
        let b: std::collections::BTreeMap<u64, u64> = without.pairs.iter().cloned().collect();
        assert_eq!(a, b, "combiner must not change results");
    }

    #[test]
    fn failed_worker_tasks_are_reexecuted() {
        let blocks = 8u64;
        let keys = 5u64;
        let result = MrJobBuilder::new(
            Arc::new(Synth { keys, scale: 1.0 }),
            "/in",
            blocks * (32 << 20),
            |k: &u64| vec![(*k, 1u64)],
            |_k, vs: &[u64]| vs.iter().sum(),
        )
        .hdfs(HdfsConfig {
            block_size: 32 << 20,
            ..Default::default()
        })
        .conf(JobConf {
            reduce_tasks: 2,
            slots_per_node: 2,
            task_timeout: hpcbd_simnet::SimDuration::from_secs(30),
            ..Default::default()
        })
        // Worker 1 dies while running its second map task.
        .fail_worker_after(1, 1)
        .run(2);
        assert!(result.locality.reexecuted_maps >= 1);
        let oracle = oracle_counts(blocks, keys);
        let got: std::collections::BTreeMap<u64, u64> = result.pairs.iter().cloned().collect();
        assert_eq!(got, oracle, "results survive a worker failure");
    }

    #[test]
    fn fault_plan_node_crash_reexecutes_lost_maps() {
        use hpcbd_simnet::{FaultPlan, NodeId, SimTime};
        let blocks = 8u64;
        let keys = 5u64;
        let result = MrJobBuilder::new(
            Arc::new(Synth {
                keys,
                scale: 50_000.0,
            }),
            "/in",
            blocks * (32 << 20),
            |k: &u64| vec![(*k, 1u64)],
            |_k, vs: &[u64]| vs.iter().sum(),
        )
        .hdfs(HdfsConfig {
            block_size: 32 << 20,
            ..Default::default()
        })
        .conf(JobConf {
            reduce_tasks: 2,
            slots_per_node: 2,
            task_timeout: hpcbd_simnet::SimDuration::from_secs(20),
            ..Default::default()
        })
        // Node 1 — two workers plus the shuffle server holding its map
        // outputs — dies mid-map-phase, after its workers already homed
        // some outputs there.
        .faults(FaultPlan::new(11).crash_node(NodeId(1), SimTime(3_300_000_000)))
        .run(3);
        assert!(
            result.locality.reexecuted_maps >= 1,
            "maps homed on the crashed node must re-execute"
        );
        let oracle = oracle_counts(blocks, keys);
        let got: std::collections::BTreeMap<u64, u64> = result.pairs.iter().cloned().collect();
        assert_eq!(got, oracle, "results survive the node crash");
    }

    #[test]
    fn speculative_execution_rescues_stragglers() {
        fn run(speculative: bool) -> (hpcbd_simnet::SimTime, MrResult<u64, u64>) {
            let r = MrJobBuilder::new(
                Arc::new(Synth {
                    keys: 5,
                    scale: 200_000.0,
                }),
                "/in",
                8 * (32 << 20),
                |k: &u64| vec![(*k, 1u64)],
                |_k, vs: &[u64]| vs.iter().sum(),
            )
            .hdfs(HdfsConfig {
                block_size: 32 << 20,
                ..Default::default()
            })
            .conf(JobConf {
                reduce_tasks: 2,
                slots_per_node: 2,
                speculative_execution: speculative,
                ..Default::default()
            })
            // Worker 0's maps run 20x slower: a classic straggler.
            .slow_worker(0, 20.0)
            .combiner(|_k, vs: &[u64]| vs.iter().sum())
            .run(2);
            (r.elapsed, r)
        }
        let (slow_t, no_spec) = run(false);
        let (spec_t, with_spec) = run(true);
        assert_eq!(no_spec.locality.speculative_maps, 0);
        assert!(with_spec.locality.speculative_maps >= 1);
        assert!(
            spec_t.as_secs_f64() < slow_t.as_secs_f64() * 0.75,
            "backup tasks must rescue the job: {spec_t} vs {slow_t}"
        );
        // Results identical either way.
        let a: std::collections::BTreeMap<u64, u64> = no_spec.pairs.into_iter().collect();
        let b: std::collections::BTreeMap<u64, u64> = with_spec.pairs.into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn speculation_is_a_noop_without_stragglers() {
        let normal = count_job(2, 8, 5);
        let r = MrJobBuilder::new(
            Arc::new(Synth {
                keys: 5,
                scale: 1.0,
            }),
            "/in",
            8 * (32 << 20),
            |k: &u64| vec![(*k, 1u64)],
            |_k, vs: &[u64]| vs.iter().sum(),
        )
        .hdfs(HdfsConfig {
            block_size: 32 << 20,
            ..Default::default()
        })
        .conf(JobConf {
            reduce_tasks: 4,
            slots_per_node: 2,
            speculative_execution: true,
            ..Default::default()
        })
        .run(2);
        let a: std::collections::BTreeMap<u64, u64> = normal.pairs.into_iter().collect();
        let b: std::collections::BTreeMap<u64, u64> = r.pairs.into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn scale_factor_multiplies_time_not_results() {
        let slow = MrJobBuilder::new(
            Arc::new(Synth {
                keys: 4,
                scale: 1000.0,
            }),
            "/in",
            4 * (32 << 20),
            |k: &u64| vec![(*k, 1u64)],
            |_k, vs: &[u64]| vs.iter().sum(),
        )
        .hdfs(HdfsConfig {
            block_size: 32 << 20,
            ..Default::default()
        })
        .run(2);
        let fast = MrJobBuilder::new(
            Arc::new(Synth {
                keys: 4,
                scale: 1.0,
            }),
            "/in",
            4 * (32 << 20),
            |k: &u64| vec![(*k, 1u64)],
            |_k, vs: &[u64]| vs.iter().sum(),
        )
        .hdfs(HdfsConfig {
            block_size: 32 << 20,
            ..Default::default()
        })
        .run(2);
        assert!(slow.elapsed > fast.elapsed);
        // Sample-level results identical; only the modeled time scales.
        let a: std::collections::BTreeMap<u64, u64> = slow.pairs.into_iter().collect();
        let b: std::collections::BTreeMap<u64, u64> = fast.pairs.into_iter().collect();
        assert_eq!(a, b);
    }
}
