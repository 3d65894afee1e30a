//! Figure 4 — the StackExchange AnswersCount benchmark.
//!
//! Counts the average number of answers per question over an 80 GB text
//! dump, implemented in all four paradigms (Sec. V-C):
//!
//! * **OpenMP** — single node only (8- and 16-core teams): sequential
//!   scratch read plus a parallel parse/count region on the `minomp`
//!   pool, with region time charged through the OpenMP cost model.
//! * **MPI** — parallel I/O (`read_at_all`) over per-node replicas;
//!   *fails below 41 processes* on 80 GB because of the `int` count
//!   limitation, exactly like the paper.
//! * **Spark** — `hadoop_file` over HDFS, map + reduce actions.
//! * **Hadoop** — a MapReduce job with a combiner.
//!
//! Every implementation returns `(elapsed seconds, average answers per
//! question)`; the averages must all agree with the dataset oracle.

use std::sync::Arc;

use hpcbd_cluster::Placement;
use hpcbd_minhdfs::HdfsConfig;
use hpcbd_minimpi::{MpiJob, ReduceOp};
use hpcbd_minmapreduce::{JobConf, MrJobBuilder};
use hpcbd_minomp::{OmpModel, OmpPool, Schedule};
use hpcbd_minspark::{SparkCluster, SparkConfig};
use hpcbd_simnet::{InputFormat, NodeId, Sim, Topology, Work};
use hpcbd_workloads::{PostKind, StackExchangeDataset};

use crate::table::{fmt_secs, ResultTable};

/// The 80 GB benchmark input (sampled).
pub fn dataset() -> StackExchangeDataset {
    StackExchangeDataset::paper_80gb()
}

/// Native per-logical-record cost of the C parse/count loop used by the
/// OpenMP and MPI implementations (sscanf-free scanning).
fn native_scan_work() -> Work {
    Work::new(60.0, 1600.0)
}

/// OpenMP on one node with `threads` threads.
// TABLE3-BEGIN: answers-openmp
pub fn openmp_answers(ds: &StackExchangeDataset, threads: u32) -> (f64, f64) {
    let ds = ds.clone();
    let mut sim = Sim::new(Topology::comet(1));
    sim.world()
        .fs
        .replicate_to_scratch([NodeId(0)], "posts.txt", ds.logical_size, None);
    let proc = sim.spawn(NodeId(0), "omp-main", move |ctx| {
        let t0 = ctx.now();
        // Sequential read of the whole file from local scratch.
        ctx.disk_read(ds.logical_size);
        // Parallel parse + count region over the logical records.
        let records = ds.logical_records();
        let sample = ds.sample_records(0, ds.logical_size);
        let model = OmpModel::default();
        let schedule = Schedule::Dynamic { chunk: 4096 };
        model.charge_region(
            ctx,
            threads,
            schedule,
            records as usize,
            native_scan_work().scaled(records as f64),
        );
        // The real count runs on the actual `minomp` pool (real threads).
        let pool = OmpPool::new(threads as usize);
        let sample_ref = Arc::new(sample);
        let sr = sample_ref.clone();
        let (q, a) = pool.parallel_reduce(
            0..sample_ref.len() as u64,
            schedule,
            (0u64, 0u64),
            move |i| match sr[i as usize].kind {
                PostKind::Question => (1, 0),
                PostKind::Answer => (0, 1),
            },
            |x, y| (x.0 + y.0, x.1 + y.1),
        );
        ((ctx.now() - t0).as_secs_f64(), a as f64 / q as f64)
    });
    let mut report = sim.run();
    report.result::<(f64, f64)>(proc)
}
// TABLE3-END: answers-openmp

/// MPI with parallel I/O on `placement`.
// TABLE3-BEGIN: answers-mpi
pub fn mpi_answers(ds: &StackExchangeDataset, placement: Placement) -> Result<(f64, f64), String> {
    let ds = Arc::new(ds.clone());
    let mut sim = Sim::new(Topology::comet(placement.nodes));
    sim.world().fs.replicate_to_scratch(
        (0..placement.nodes).map(NodeId),
        "posts.txt",
        ds.logical_size,
        None,
    );
    let job = MpiJob::spawn(&mut sim, placement, move |rank| {
        let t0 = rank.now();
        let file = rank.file_open_all("posts.txt").map_err(|e| e.to_string())?;
        let (offset, len) = file.read_chunked_all(rank).map_err(|e| e.to_string())?;
        let sample = ds.sample_records(offset, len);
        let scale = ds.logical_scale();
        rank.ctx()
            .compute(native_scan_work().scaled(sample.len() as f64 * scale), 1.0);
        let (mut q, mut a) = (0u64, 0u64);
        for p in &sample {
            match p.kind {
                PostKind::Question => q += 1,
                PostKind::Answer => a += 1,
            }
        }
        let totals = rank.allreduce(ReduceOp::Sum, &[q, a]);
        Ok::<(f64, f64), String>((
            (rank.now() - t0).as_secs_f64(),
            totals[1] as f64 / totals[0] as f64,
        ))
    });
    let mut report = sim.run();
    let results = job.results::<Result<(f64, f64), String>>(&mut report);
    let mut worst = 0.0f64;
    let mut avg = 0.0;
    for r in results {
        let (t, av) = r?;
        worst = worst.max(t);
        avg = av;
    }
    Ok((worst, avg))
}
// TABLE3-END: answers-mpi

/// Spark over HDFS on `placement`.
// TABLE3-BEGIN: answers-spark
pub fn spark_answers(ds: &StackExchangeDataset, placement: Placement) -> (f64, f64) {
    let ds = Arc::new(ds.clone());
    let config = SparkConfig {
        executors_per_node: placement.per_node,
        ..Default::default()
    };
    let r = SparkCluster::new(placement.nodes, config)
        .with_hdfs(HdfsConfig::default())
        .hdfs_file("/posts", ds.logical_size, None)
        .run(move |sc| {
            let t0 = sc.now();
            let posts = sc.hadoop_file("/posts", ds);
            let counts = posts.map(|p| match p.kind {
                PostKind::Question => (1u64, 0u64),
                PostKind::Answer => (0, 1),
            });
            let (q, a) = sc
                .reduce(&counts, |x, y| (x.0 + y.0, x.1 + y.1))
                .expect("non-empty dataset");
            ((sc.now() - t0).as_secs_f64(), a as f64 / q as f64)
        });
    r.value
}
// TABLE3-END: answers-spark

/// Hadoop MapReduce on `placement`.
// TABLE3-BEGIN: answers-hadoop
pub fn hadoop_answers(ds: &StackExchangeDataset, placement: Placement) -> (f64, f64) {
    let result = MrJobBuilder::new(
        Arc::new(ds.clone()),
        "/posts",
        ds.logical_size,
        |p: &hpcbd_workloads::Post| match p.kind {
            PostKind::Question => vec![("q", 1u64)],
            PostKind::Answer => vec![("a", 1u64)],
        },
        |_k, vs: &[u64]| vs.iter().sum(),
    )
    .combiner(|_k, vs: &[u64]| vs.iter().sum())
    .conf(JobConf {
        reduce_tasks: 2,
        slots_per_node: placement.per_node,
        ..Default::default()
    })
    .run(placement.nodes);
    let q = result
        .pairs
        .iter()
        .find(|(k, _)| *k == "q")
        .map(|(_, v)| *v)
        .unwrap_or(1);
    let a = result
        .pairs
        .iter()
        .find(|(k, _)| *k == "a")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    (result.elapsed.as_secs_f64(), a as f64 / q as f64)
}
// TABLE3-END: answers-hadoop

/// Reproduce Fig. 4: execution time vs process count for all four
/// paradigms, `ppn` processes per node. OpenMP appears only at the 8-
/// and 16-core points (one node); MPI reports its failure below 41
/// processes.
pub fn figure4(ds: &StackExchangeDataset, node_counts: &[u32], ppn: u32) -> ResultTable {
    let mut t = ResultTable::new(
        format!("Fig. 4 — StackExchange AnswersCount, 80 GB, {ppn} processes/node"),
        &["processes", "OpenMP", "MPI", "Spark", "Hadoop"],
    );
    for &nodes in node_counts {
        let placement = Placement::new(nodes, ppn);
        let procs = placement.total();
        let omp = if nodes == 1 && (procs == 8 || procs == 16) {
            fmt_secs(openmp_answers(ds, procs).0)
        } else if nodes == 1 {
            fmt_secs(openmp_answers(ds, procs.min(16)).0)
        } else {
            "-".to_string()
        };
        let mpi = match mpi_answers(ds, placement) {
            Ok((t, _)) => fmt_secs(t),
            Err(_) => "fail (>MAX_INT chunk)".to_string(),
        };
        let spark = fmt_secs(spark_answers(ds, placement).0);
        let hadoop = fmt_secs(hadoop_answers(ds, placement).0);
        t.push_row(vec![procs.to_string(), omp, mpi, spark, hadoop]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small dataset for fast tests: 4 GB logical, ~20k sample records.
    fn small_ds() -> StackExchangeDataset {
        let size = 4u64 << 30;
        let records = size / hpcbd_workloads::stackexchange::RECORD_BYTES;
        StackExchangeDataset::new(0xA125, size, records / 20_000)
    }

    #[test]
    fn answers_values_are_pinned() {
        // The Fig. 4 table prints milliseconds and never the averages.
        // These pin the `to_bits()` of every arm's `(elapsed, avg)` at
        // the paper's 80 GB: one node of 8 (MPI fails below 41
        // processes) and 6 nodes of 8. Rerun under each
        // `HPCBD_EXECUTION` mode.
        let ds = dataset();
        let bits = |(t, avg): (f64, f64)| (t.to_bits(), avg.to_bits());
        let one = Placement::new(1, 8);
        let six = Placement::new(6, 8);
        assert!(mpi_answers(&ds, one).is_err(), "MPI fails at 8 processes");
        let got = [
            bits(openmp_answers(&ds, 8)),
            bits(spark_answers(&ds, one)),
            bits(hadoop_answers(&ds, one)),
            bits(mpi_answers(&ds, six).expect("MPI runs at 48 processes")),
            bits(spark_answers(&ds, six)),
            bits(hadoop_answers(&ds, six)),
        ];
        // Every arm counts the same sample, so every average agrees.
        let avg = 0x4010014788592679;
        let want: [(u64, u64); 6] = [
            (0x4059007c9c676e12, avg),
            (0x406dd223cbb3ea75, avg),
            (0x407042502cf011e5, avg),
            (0x4030ab2e5715e671, avg),
            (0x4044fd049d59d3c2, avg),
            (0x40483db048fba505, avg),
        ];
        let hex: Vec<String> = got
            .iter()
            .map(|(t, a)| format!("({t:#018x}, {a:#018x})"))
            .collect();
        assert_eq!(got, want, "got [{}]", hex.join(", "));
    }

    #[test]
    fn all_paradigms_agree_on_the_average() {
        let ds = small_ds();
        let placement = Placement::new(2, 4);
        let (q, a) = ds.oracle_counts(0, ds.logical_size);
        let oracle = a as f64 / q as f64;
        let (_, omp) = openmp_answers(&ds, 8);
        let (_, mpi) = mpi_answers(&ds, placement).unwrap();
        let (_, spark) = spark_answers(&ds, placement);
        let (_, hadoop) = hadoop_answers(&ds, placement);
        for (name, avg) in [
            ("openmp", omp),
            ("mpi", mpi),
            ("spark", spark),
            ("hadoop", hadoop),
        ] {
            assert!(
                (avg - oracle).abs() / oracle < 0.02,
                "{name} avg {avg} vs oracle {oracle}"
            );
        }
        // Sanity: around 4 answers per question by construction.
        assert!((oracle - 4.0).abs() < 0.5);
    }

    #[test]
    fn spark_beats_hadoop() {
        // Fig. 4: "noticeable difference between the Hadoop and Spark
        // execution times" — Hadoop persists intermediates to disk and
        // pays job/task startup.
        let ds = small_ds();
        let placement = Placement::new(2, 4);
        let (spark_t, _) = spark_answers(&ds, placement);
        let (hadoop_t, _) = hadoop_answers(&ds, placement);
        assert!(
            spark_t < hadoop_t,
            "spark {spark_t} must beat hadoop {hadoop_t}"
        );
    }

    #[test]
    fn spark_scales_with_nodes() {
        let ds = small_ds();
        let (t2, _) = spark_answers(&ds, Placement::new(2, 4));
        let (t4, _) = spark_answers(&ds, Placement::new(4, 4));
        assert!(t4 < t2, "4 nodes ({t4}) must beat 2 nodes ({t2})");
    }

    #[test]
    fn openmp_16_threads_beats_8() {
        let ds = small_ds();
        let (t8, _) = openmp_answers(&ds, 8);
        let (t16, _) = openmp_answers(&ds, 16);
        assert!(t16 < t8, "16 threads ({t16}) must beat 8 ({t8})");
    }

    #[test]
    fn openmp_is_disk_bound_so_scaling_saturates() {
        // A single node reads the whole file; compute threads cannot
        // hide the sequential disk — the reason OpenMP cannot compete at
        // scale in Fig. 4.
        let ds = small_ds();
        let (t8, _) = openmp_answers(&ds, 8);
        let (t16, _) = openmp_answers(&ds, 16);
        let speedup = t8 / t16;
        assert!(
            speedup < 1.9,
            "disk floor should cap the 8->16 speedup, got {speedup}"
        );
    }

    #[test]
    fn mpi_80gb_fails_with_16_procs() {
        let ds = dataset();
        let err = mpi_answers(&ds, Placement::new(2, 8)).unwrap_err();
        assert!(err.contains("MAX_INT"));
    }

    #[test]
    fn figure4_rows_render() {
        let ds = small_ds();
        let t = figure4(&ds, &[1, 2], 4);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[1][1], "-", "OpenMP absent beyond one node");
    }
}
