//! Figure 3 — the reduce microbenchmark (OSU-style).
//!
//! MPI side: `MPI_Reduce` of a replicated float array, timed over many
//! iterations, exactly like the OSU microbenchmark the paper uses. Spark
//! side: the paper's equivalent (Fig. 2's code): an array of
//! `processes x array_size` floats parallelized into one RDD, folded
//! with a `reduce` action. The Spark-RDMA variant only changes the
//! shuffle engine — which, as the paper observes, barely matters here
//! because a `reduce` action shuffles nothing; the driver's coordination
//! (always on Java sockets) dominates.

use std::sync::Arc;

use hpcbd_cluster::Placement;
use hpcbd_minimpi::{mpirun, ReduceOp};
use hpcbd_minspark::{ShuffleEngine, SparkCluster, SparkConfig};

use crate::table::{fmt_micros, ResultTable};

/// One measured series point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReducePoint {
    /// Per-process message size in bytes (elements x 4, f32).
    pub bytes: u64,
    /// Mean per-operation latency in microseconds.
    pub latency_us: f64,
}

/// MPI reduce latency for `elements` f32 per rank on `placement`,
/// averaged over `iters` operations after one warmup.
// TABLE3-BEGIN: reduce-mpi
pub fn mpi_reduce_latency(placement: Placement, elements: usize, iters: u32) -> ReducePoint {
    let data = Arc::new(vec![1.0f32; elements]);
    let out = mpirun(placement, move |rank| {
        // Warmup: route establishment, algorithm warm caches.
        rank.reduce(0, ReduceOp::Sum, data.clone());
        rank.barrier();
        let t0 = rank.now();
        for _ in 0..iters {
            rank.reduce(0, ReduceOp::Sum, data.clone());
        }
        rank.barrier();
        (rank.now() - t0).as_secs_f64()
    });
    let worst = out.results.iter().cloned().fold(0.0f64, f64::max);
    ReducePoint {
        bytes: elements as u64 * 4,
        latency_us: worst / iters as f64 * 1e6,
    }
}
// TABLE3-END: reduce-mpi

/// Spark reduce latency for the equivalent problem: an RDD of
/// `procs x elements` floats reduced to one scalar (the paper's Fig. 2
/// construction), timed from the driver around the action only.
// TABLE3-BEGIN: reduce-spark
pub fn spark_reduce_latency(placement: Placement, elements: usize, rdma: bool) -> ReducePoint {
    let mut config = SparkConfig::with_shuffle(if rdma {
        ShuffleEngine::Rdma
    } else {
        ShuffleEngine::Socket
    });
    config.executors_per_node = placement.per_node;
    let total = placement.total() as usize * elements;
    let parts = placement.total();
    let secs = SparkCluster::new(placement.nodes, config)
        .run(move |sc| {
            let zeros = vec![0.5f32; total];
            let rdd = sc.parallelize_with_bytes(zeros, parts, 4);
            let t0 = sc.now();
            let sum = sc.reduce(&rdd, |a, b| a + b);
            let dt = (sc.now() - t0).as_secs_f64();
            assert!(sum.is_some());
            dt
        })
        .value;
    ReducePoint {
        bytes: elements as u64 * 4,
        latency_us: secs * 1e6,
    }
}
// TABLE3-END: reduce-spark

/// The standard message-size sweep of Fig. 3 (bytes per process).
pub fn standard_sizes() -> Vec<usize> {
    // 4 B .. 1 MB in x4 steps (f32 element counts).
    vec![1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144]
}

/// Reproduce Fig. 3: all three series over the size sweep on the given
/// placement (the paper: 8 nodes x 8 processes).
pub fn figure3(placement: Placement, sizes: &[usize], mpi_iters: u32) -> ResultTable {
    let mut t = ResultTable::new(
        format!(
            "Fig. 3 — Reduce microbenchmark, {} processes ({} nodes x {} ppn)",
            placement.total(),
            placement.nodes,
            placement.per_node
        ),
        &["bytes", "MPI", "Spark", "Spark-RDMA"],
    );
    for &elements in sizes {
        let mpi = mpi_reduce_latency(placement, elements, mpi_iters);
        let spark = spark_reduce_latency(placement, elements, false);
        let spark_rdma = spark_reduce_latency(placement, elements, true);
        t.push_row(vec![
            (elements * 4).to_string(),
            fmt_micros(mpi.latency_us),
            fmt_micros(spark.latency_us),
            fmt_micros(spark_rdma.latency_us),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Placement {
        Placement::new(2, 4)
    }

    #[test]
    fn mpi_latency_grows_with_message_size() {
        let small_msg = mpi_reduce_latency(small(), 1, 5);
        let large_msg = mpi_reduce_latency(small(), 65536, 5);
        assert!(small_msg.latency_us < large_msg.latency_us);
        // Small reduce is microseconds, not milliseconds.
        assert!(
            small_msg.latency_us < 100.0,
            "4B reduce took {}us",
            small_msg.latency_us
        );
    }

    #[test]
    fn spark_latency_dwarfs_mpi_at_all_sizes() {
        for elements in [1usize, 4096] {
            let mpi = mpi_reduce_latency(small(), elements, 3);
            let spark = spark_reduce_latency(small(), elements, false);
            assert!(
                spark.latency_us > 50.0 * mpi.latency_us,
                "at {elements} elems: spark {}us vs mpi {}us",
                spark.latency_us,
                mpi.latency_us
            );
        }
    }

    #[test]
    fn rdma_does_not_significantly_change_spark_reduce() {
        // The paper: "the use of Spark RDMA does not significantly
        // improve the results" — no shuffle happens in a reduce action.
        let socket = spark_reduce_latency(small(), 1024, false);
        let rdma = spark_reduce_latency(small(), 1024, true);
        let ratio = socket.latency_us / rdma.latency_us;
        assert!(
            (0.8..1.25).contains(&ratio),
            "socket/rdma ratio {ratio} should be ~1"
        );
    }

    #[test]
    fn figure3_produces_full_sweep() {
        let t = figure3(small(), &[1, 256], 3);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.headers.len(), 4);
        // Monotone size column.
        assert!(t.cell_f64(0, 0) < t.cell_f64(1, 0));
    }
}
