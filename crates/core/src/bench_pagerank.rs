//! Figures 6 & 7 — the PageRank benchmark.
//!
//! One million logical vertices (a 10k-vertex deterministic sample with
//! content scale 100), 16 processes per node, node counts swept:
//!
//! * **MPI** (Fig. 6) — block vertex partitioning, per-iteration
//!   contribution exchange with `alltoall`. Near-flat in node count at
//!   this problem size: per-rank compute shrinks but the exchange
//!   grows, the paper's "MPI code performs almost the same".
//! * **Spark, BigDataBench-tuned** (Figs. 5/6) — adjacency co-partitioned
//!   with the ranks (narrow join) and every intermediate persisted
//!   MEMORY_AND_DISK, the one-line `persist` the paper credits with ~3x.
//!   Because shuffle volume is low, Spark-RDMA ≈ Spark.
//! * **Spark, HiBench-style** (Fig. 7) — no persist, non-co-partitioned
//!   wide join: the adjacency reshuffles every iteration, so the RDMA
//!   shuffle engine wins and the gap grows with node count.
//! * **OpenSHMEM** (ablation A5) — one-sided contribution exchange with
//!   put-with-signal, the irregular-communication pattern Sec. II-C says
//!   PGAS serves well.

use std::collections::BTreeMap;
use std::sync::Arc;

use hpcbd_cluster::Placement;
use hpcbd_minhdfs::HdfsConfig;
use hpcbd_minimpi::{MpiJob, ReduceOp};
use hpcbd_minspark::{Rdd, ShuffleEngine, SparkCluster, SparkConfig, StorageLevel};
use hpcbd_simnet::{Sim, Topology, Work};
use hpcbd_workloads::graph::EdgeListFile;
use hpcbd_workloads::PowerLawGraph;

use crate::table::{fmt_secs, ResultTable};

/// Benchmark input: sample graph + content scale (sample x scale =
/// logical size).
#[derive(Clone)]
pub struct PagerankInput {
    /// The materialized sample graph.
    pub graph: Arc<PowerLawGraph>,
    /// Logical vertices per sample vertex.
    pub scale: u64,
    /// Power iterations.
    pub iters: u32,
}

impl PagerankInput {
    /// The paper's 1M-vertex input (10k sample, scale 100), 5 iterations.
    pub fn paper() -> PagerankInput {
        let (graph, scale) = PowerLawGraph::paper_1m_sample();
        PagerankInput {
            graph: Arc::new(graph),
            scale,
            iters: 5,
        }
    }

    /// A small test input.
    pub fn small() -> PagerankInput {
        PagerankInput {
            graph: Arc::new(PowerLawGraph::new(600, 11, 6)),
            scale: 50,
            iters: 4,
        }
    }

    /// Native per-logical-edge work of the C implementation.
    fn native_edge_work() -> Work {
        Work::new(12.0, 48.0)
    }

    /// Input for the full-Comet run: 1,984 nodes x 24 cores = 47,616
    /// ranks, and the sample graph is sized so every rank owns exactly
    /// two vertices (95,232 sample vertices, ~2M logical at scale 21).
    /// `quick` trims the power iterations for the CI scale-smoke job.
    pub fn comet(quick: bool) -> PagerankInput {
        PagerankInput::comet_at(Placement::new(1984, 24), quick)
    }

    /// [`PagerankInput::comet`] for a slice of the machine: two sample
    /// vertices per rank of `placement`.
    pub fn comet_at(placement: Placement, quick: bool) -> PagerankInput {
        PagerankInput {
            graph: Arc::new(PowerLawGraph::new(placement.total() * 2, 17, 4)),
            scale: 21,
            iters: if quick { 2 } else { 5 },
        }
    }
}

/// Sequential oracle with the *Spark dataflow semantics* (vertices that
/// receive no contribution in an iteration drop out of the ranks RDD,
/// like the reference BigDataBench/HiBench codes). Returns the map of
/// surviving vertex -> rank. Ordered maps fix the order of every `f64`
/// sum, so the result is the same in every process.
pub fn spark_semantics_oracle(graph: &PowerLawGraph, iters: u32) -> BTreeMap<u32, f64> {
    let adj = graph.adjacency();
    let mut ranks: BTreeMap<u32, f64> = (0..graph.vertices).map(|v| (v, 1.0)).collect();
    for _ in 0..iters {
        let mut contribs: BTreeMap<u32, f64> = BTreeMap::new();
        for (v, r) in &ranks {
            let outs = &adj[*v as usize];
            let share = *r / outs.len() as f64;
            for u in outs {
                *contribs.entry(*u).or_insert(0.0) += share;
            }
        }
        ranks = contribs
            .into_iter()
            .map(|(v, c)| (v, 0.15 + 0.85 * c))
            .collect();
    }
    ranks
}

/// MPI PageRank. Returns (elapsed seconds, rank-vector sample at rank 0).
// TABLE3-BEGIN: pagerank-mpi
pub fn mpi_pagerank(input: &PagerankInput, placement: Placement) -> (f64, Vec<f64>) {
    let input = input.clone();
    let mut sim = Sim::new(Topology::comet(placement.nodes));
    let job = MpiJob::spawn(&mut sim, placement, move |rank| {
        rank.set_bytes_scale(input.scale as f64);
        let n = input.graph.vertices;
        let p = rank.size();
        let me = rank.rank();
        // Block partition [r*n/p, (r+1)*n/p); `owner` is its exact
        // integer inverse (validated against the bounds in the tests).
        let owner = |v: u32| -> u32 { (((v as u64 + 1) * p as u64 - 1) / n as u64) as u32 };
        let v0 = (me as u64 * n as u64 / p as u64) as u32;
        let v1 = ((me as u64 + 1) * n as u64 / p as u64) as u32;
        let adj: Vec<Vec<u32>> = (v0..v1).map(|v| input.graph.neighbours(v)).collect();
        let local_edges: usize = adj.iter().map(|a| a.len()).sum();
        let mut ranks: Vec<f64> = vec![1.0; (v1 - v0) as usize];
        let t0 = rank.now();
        for iter in 0..input.iters {
            rank.span_open_with(|| format!("pagerank/iter/{iter}"));
            // Bucket contributions by destination owner (packed as
            // [dest, share] f64 pairs for the typed alltoall).
            let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); p as usize];
            for (i, outs) in adj.iter().enumerate() {
                let share = ranks[i] / outs.len() as f64;
                for u in outs {
                    let b = owner(*u) as usize;
                    buckets[b].push(*u as f64);
                    buckets[b].push(share);
                }
            }
            rank.ctx().compute(
                PagerankInput::native_edge_work().scaled(local_edges as f64 * input.scale as f64),
                1.0,
            );
            let incoming = rank.alltoall(buckets);
            let mut contrib = vec![0.0f64; (v1 - v0) as usize];
            let mut recvd_pairs = 0usize;
            for part in &incoming {
                recvd_pairs += part.len() / 2;
                for pair in part.chunks_exact(2) {
                    contrib[(pair[0] as u32 - v0) as usize] += pair[1];
                }
            }
            rank.ctx().compute(
                Work::new(4.0, 24.0).scaled(recvd_pairs as f64 * input.scale as f64),
                1.0,
            );
            for (r, c) in ranks.iter_mut().zip(&contrib) {
                *r = 0.15 + 0.85 * c;
            }
            rank.span_close();
        }
        let elapsed = (rank.now() - t0).as_secs_f64();
        // Gather the full vector at rank 0 for validation.
        let gathered = rank.gather(0, &ranks);
        (elapsed, gathered)
    });
    let mut report = sim.run();
    let results = job.results::<(f64, Option<Vec<f64>>)>(&mut report);
    let elapsed = results.iter().map(|(t, _)| *t).fold(0.0, f64::max);
    let ranks = results
        .into_iter()
        .find_map(|(_, g)| g)
        .expect("rank 0 gathers");
    (elapsed, ranks)
}
// TABLE3-END: pagerank-mpi

/// Which Spark PageRank code is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparkVariant {
    /// BigDataBench-tuned: co-partitioned links, persist everywhere.
    BigDataBenchTuned,
    /// HiBench-style: wide joins, no caching — shuffle-heavy.
    HiBench,
}

/// A completed Spark PageRank run.
pub struct SparkPagerankRun {
    /// Measured action span, seconds.
    pub elapsed: f64,
    /// Surviving vertex ranks (sample graph).
    pub ranks: Vec<(u32, f64)>,
    /// Job metrics (shuffle volumes, cache behaviour).
    pub metrics: hpcbd_minspark::MetricsSnapshot,
}

/// Spark PageRank. Returns (elapsed seconds, surviving vertex ranks).
pub fn spark_pagerank(
    input: &PagerankInput,
    placement: Placement,
    variant: SparkVariant,
    engine: ShuffleEngine,
) -> (f64, Vec<(u32, f64)>) {
    let run = spark_pagerank_run(input, placement, variant, engine);
    (run.elapsed, run.ranks)
}

/// [`spark_pagerank`] with full job metrics.
// TABLE3-BEGIN: pagerank-spark
pub fn spark_pagerank_run(
    input: &PagerankInput,
    placement: Placement,
    variant: SparkVariant,
    engine: ShuffleEngine,
) -> SparkPagerankRun {
    let input = input.clone();
    let parts = 64u32;
    let mut config = SparkConfig::with_shuffle(engine);
    config.executors_per_node = placement.per_node;
    let file = EdgeListFile::new((*input.graph).clone(), input.scale);
    let logical_size = file.logical_size();
    let avg_degree = input.graph.edge_count() / input.graph.vertices as u64;
    let r = SparkCluster::new(placement.nodes, config)
        .with_hdfs(HdfsConfig::default())
        .hdfs_file("/graph/edges", logical_size, None)
        .run(move |sc| {
            let t0 = sc.now();
            let edges = sc.hadoop_file("/graph/edges", Arc::new(file));
            let grouped = edges.group_by_key(parts);
            // One serialized adjacency record is the vertex id plus its
            // neighbour list (boxed Java collections are fat on the wire).
            let adj_item_bytes = 24 + 16 * avg_degree;
            let links: Rdd<(u32, Vec<u32>)> = match variant {
                SparkVariant::BigDataBenchTuned => grouped.persist(StorageLevel::MemoryAndDisk),
                // `map` drops the partitioner: joins go wide, like the
                // HiBench code whose layout Spark cannot reuse — and the
                // whole adjacency travels in every one of them.
                SparkVariant::HiBench => grouped.map_with_cost(
                    hpcbd_simnet::Work::new(4.0, 32.0),
                    adj_item_bytes,
                    |kv| kv.clone(),
                ),
            };
            let mut ranks = links.map_values(|_| 1.0f64);
            for _ in 0..input.iters {
                let contribs = links
                    .join(&ranks, parts)
                    .values()
                    // Contributions are slim (vertex, share) pairs.
                    .flat_map_with_cost(hpcbd_simnet::Work::new(8.0, 48.0), 24, |(dsts, rank)| {
                        let share = rank / dsts.len() as f64;
                        dsts.iter().map(|d| (*d, share)).collect()
                    });
                if variant == SparkVariant::BigDataBenchTuned {
                    // "This caching is not done in HiBench" — Fig. 5.
                    contribs.persist(StorageLevel::MemoryAndDisk);
                }
                ranks = contribs
                    .reduce_by_key(parts, |a, b| a + b)
                    .map_values(|c| 0.15 + 0.85 * c);
            }
            let out = sc.collect(&ranks);
            ((sc.now() - t0).as_secs_f64(), out)
        });
    let (elapsed, ranks) = r.value;
    SparkPagerankRun {
        elapsed,
        ranks,
        metrics: r.metrics,
    }
}
// TABLE3-END: pagerank-spark

/// OpenSHMEM PageRank (ablation A5): one-sided contribution exchange.
// TABLE3-BEGIN: pagerank-shmem
pub fn shmem_pagerank(input: &PagerankInput, placement: Placement) -> (f64, Vec<f64>) {
    let input = input.clone();
    let out = hpcbd_minshmem::shmem_run_on(
        &hpcbd_cluster::ClusterSpec::comet(placement.nodes),
        placement,
        move |pe| {
            pe.set_bytes_scale(input.scale as f64);
            let n = input.graph.vertices;
            let p = pe.npes();
            let me = pe.pe();
            let owner = |v: u32| -> u32 { (((v as u64 + 1) * p as u64 - 1) / n as u64) as u32 };
            let bounds = |r: u32| -> (u32, u32) {
                (
                    (r as u64 * n as u64 / p as u64) as u32,
                    ((r as u64 + 1) * n as u64 / p as u64) as u32,
                )
            };
            let (v0, v1) = bounds(me);
            let adj: Vec<Vec<u32>> = (v0..v1).map(|v| input.graph.neighbours(v)).collect();
            let local_edges: usize = adj.iter().map(|a| a.len()).sum();
            // Symmetric landing zone: packed [dest, share] pairs, one
            // region per source PE.
            let region = 2 * (n as usize / p as usize + 2) * 8;
            let inbox = pe.malloc::<f64>("pr.inbox", region * p as usize, 0.0);
            let inlen = pe.malloc::<u64>("pr.inlen", p as usize, 0);
            let mut ranks: Vec<f64> = vec![1.0; (v1 - v0) as usize];
            let t0 = pe.now();
            for iter in 0..input.iters {
                pe.span_open_with(|| format!("pagerank/iter/{iter}"));
                let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); p as usize];
                for (i, outs) in adj.iter().enumerate() {
                    let share = ranks[i] / outs.len() as f64;
                    for u in outs {
                        let b = owner(*u) as usize;
                        buckets[b].push(*u as f64);
                        buckets[b].push(share);
                    }
                }
                pe.ctx().compute(
                    PagerankInput::native_edge_work()
                        .scaled(local_edges as f64 * input.scale as f64),
                    1.0,
                );
                let sig = 1000 + iter as u64;
                for dst in 0..p {
                    let bucket = &buckets[dst as usize];
                    assert!(
                        bucket.len() <= region,
                        "inbox region too small: {} > {region}",
                        bucket.len()
                    );
                    pe.put(&inlen, me as usize, &[bucket.len() as u64], dst);
                    if bucket.is_empty() {
                        pe.signal(dst, sig);
                    } else {
                        let b = bucket.clone();
                        pe.put_signal(&inbox, me as usize * region, &b, dst, sig);
                    }
                }
                let mut contrib = vec![0.0f64; (v1 - v0) as usize];
                for _ in 0..p {
                    let from = pe.wait_signal(sig);
                    let len = pe.local_clone(&inlen)[from as usize] as usize;
                    let data = pe.local_range(&inbox, from as usize * region, len);
                    for pair in data.chunks_exact(2) {
                        contrib[(pair[0] as u32 - v0) as usize] += pair[1];
                    }
                }
                pe.ctx().compute(
                    Work::new(4.0, 24.0).scaled(local_edges as f64 * input.scale as f64),
                    1.0,
                );
                for (r, c) in ranks.iter_mut().zip(&contrib) {
                    *r = 0.15 + 0.85 * c;
                }
                pe.barrier_all();
                pe.span_close();
            }
            ((pe.now() - t0).as_secs_f64(), ranks)
        },
    );
    let elapsed = out.results.iter().map(|(t, _)| *t).fold(0.0, f64::max);
    let mut ranks = Vec::new();
    for (_, slice) in out.results {
        ranks.extend(slice);
    }
    (elapsed, ranks)
}
// TABLE3-END: pagerank-shmem

/// Ablation A1 (Sec. VI-C): the BigDataBench PageRank with a
/// per-iteration materializing action (as the reference code does when
/// checkpointing convergence), with and without `persist`. Without the
/// cache every action re-fetches and re-combines the ranks lineage;
/// with it the second use of each iteration's RDDs is a memory hit.
/// Returns (seconds with persist, seconds without).
pub fn persist_ablation(input: &PagerankInput, placement: Placement) -> (f64, f64) {
    fn run(input: &PagerankInput, placement: Placement, persist: bool) -> f64 {
        let input = input.clone();
        let parts = 32u32;
        let config = SparkConfig {
            executors_per_node: placement.per_node,
            ..Default::default()
        };
        let file = EdgeListFile::new((*input.graph).clone(), input.scale);
        let logical_size = file.logical_size();
        SparkCluster::new(placement.nodes, config)
            .with_hdfs(HdfsConfig::default())
            .hdfs_file("/graph/edges", logical_size, None)
            .run(move |sc| {
                let t0 = sc.now();
                let edges = sc.hadoop_file("/graph/edges", Arc::new(file));
                let grouped = edges.group_by_key(parts);
                let links = if persist {
                    grouped.persist(StorageLevel::MemoryAndDisk)
                } else {
                    grouped
                };
                let mut ranks = links.map_values(|_| 1.0f64);
                for _ in 0..input.iters {
                    let contribs = links.join(&ranks, parts).values().flat_map_with_cost(
                        hpcbd_simnet::Work::new(8.0, 48.0),
                        24,
                        |(dsts, rank)| {
                            let share = rank / dsts.len() as f64;
                            dsts.iter().map(|d| (*d, share)).collect()
                        },
                    );
                    if persist {
                        contribs.persist(StorageLevel::MemoryAndDisk);
                    }
                    ranks = contribs
                        .reduce_by_key(parts, |a, b| a + b)
                        .map_values(|c| 0.15 + 0.85 * c);
                    if persist {
                        ranks.persist(StorageLevel::MemoryAndDisk);
                    }
                    // Materializing action each iteration (convergence
                    // check in the reference code).
                    let _ = sc.count(&ranks);
                }
                (sc.now() - t0).as_secs_f64()
            })
            .value
    }
    (run(input, placement, true), run(input, placement, false))
}

/// Reproduce Fig. 6: BigDataBench PageRank — MPI vs Spark vs Spark-RDMA.
pub fn figure6(input: &PagerankInput, node_counts: &[u32], ppn: u32) -> ResultTable {
    let mut t = ResultTable::new(
        format!(
            "Fig. 6 — BigDataBench PageRank, {} logical vertices, {ppn} procs/node",
            input.graph.vertices as u64 * input.scale
        ),
        &["nodes", "MPI", "Spark", "Spark-RDMA"],
    );
    for &nodes in node_counts {
        let placement = Placement::new(nodes, ppn);
        let (mpi_t, _) = mpi_pagerank(input, placement);
        let (spark_t, _) = spark_pagerank(
            input,
            placement,
            SparkVariant::BigDataBenchTuned,
            ShuffleEngine::Socket,
        );
        let (rdma_t, _) = spark_pagerank(
            input,
            placement,
            SparkVariant::BigDataBenchTuned,
            ShuffleEngine::Rdma,
        );
        t.push_row(vec![
            nodes.to_string(),
            fmt_secs(mpi_t),
            fmt_secs(spark_t),
            fmt_secs(rdma_t),
        ]);
    }
    t
}

/// Reproduce Fig. 7: HiBench PageRank — Spark default vs Spark-RDMA.
pub fn figure7(input: &PagerankInput, node_counts: &[u32], ppn: u32) -> ResultTable {
    let mut t = ResultTable::new(
        format!(
            "Fig. 7 — HiBench PageRank, {} logical vertices, {ppn} procs/node",
            input.graph.vertices as u64 * input.scale
        ),
        &["nodes", "Spark", "Spark-RDMA"],
    );
    for &nodes in node_counts {
        let placement = Placement::new(nodes, ppn);
        let (spark_t, _) = spark_pagerank(
            input,
            placement,
            SparkVariant::HiBench,
            ShuffleEngine::Socket,
        );
        let (rdma_t, _) =
            spark_pagerank(input, placement, SparkVariant::HiBench, ShuffleEngine::Rdma);
        t.push_row(vec![nodes.to_string(), fmt_secs(spark_t), fmt_secs(rdma_t)]);
    }
    t
}

/// MPI PageRank restructured for full-machine scale. Same math as
/// [`mpi_pagerank`] (which is the frozen Fig. 6 artifact and stays as
/// the paper wrote it), but the two O(p) walls are removed so 47,616
/// ranks fit:
///
/// * the dense `alltoall` — whose per-rank bucket vector alone is O(p),
///   ~48k mostly-empty `Vec`s per rank per iteration at Comet scale —
///   becomes a sparse neighbour exchange over
///   [`alltoallv_sparse`](hpcbd_minimpi::MpiRank::alltoallv_sparse)
///   (Bruck rotation, ceil(log2 p) rounds, traffic proportional to the
///   items actually sent);
/// * the O(n·p)-byte rank-0 `gather` used for validation becomes an
///   O(log p) `allreduce` checksum over the rank vector.
///
/// Returns (max per-rank elapsed seconds, global rank-vector checksum).
pub fn comet_mpi_pagerank(input: &PagerankInput, placement: Placement) -> (f64, f64) {
    let input = input.clone();
    let mut sim = Sim::new(Topology::comet(placement.nodes));
    let job = MpiJob::spawn(&mut sim, placement, move |rank| {
        rank.set_bytes_scale(input.scale as f64);
        let n = input.graph.vertices;
        let p = rank.size();
        let me = rank.rank();
        let owner = |v: u32| -> u32 { (((v as u64 + 1) * p as u64 - 1) / n as u64) as u32 };
        let v0 = (me as u64 * n as u64 / p as u64) as u32;
        let v1 = ((me as u64 + 1) * n as u64 / p as u64) as u32;
        let adj: Vec<Vec<u32>> = (v0..v1).map(|v| input.graph.neighbours(v)).collect();
        let local_edges: usize = adj.iter().map(|a| a.len()).sum();
        let mut ranks: Vec<f64> = vec![1.0; (v1 - v0) as usize];
        let t0 = rank.now();
        for iter in 0..input.iters {
            rank.span_open_with(|| format!("pagerank/iter/{iter}"));
            // Bucket contributions by destination owner — but only the
            // owners this rank actually reaches (a handful, not p).
            let mut buckets: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
            for (i, outs) in adj.iter().enumerate() {
                let share = ranks[i] / outs.len() as f64;
                for u in outs {
                    let b = buckets.entry(owner(*u)).or_default();
                    b.push(*u as f64);
                    b.push(share);
                }
            }
            rank.ctx().compute(
                PagerankInput::native_edge_work().scaled(local_edges as f64 * input.scale as f64),
                1.0,
            );
            let incoming = rank.alltoallv_sparse(buckets.into_iter().collect());
            let mut contrib = vec![0.0f64; (v1 - v0) as usize];
            let mut recvd_pairs = 0usize;
            for (_, part) in &incoming {
                recvd_pairs += part.len() / 2;
                for pair in part.chunks_exact(2) {
                    contrib[(pair[0] as u32 - v0) as usize] += pair[1];
                }
            }
            rank.ctx().compute(
                Work::new(4.0, 24.0).scaled(recvd_pairs as f64 * input.scale as f64),
                1.0,
            );
            for (r, c) in ranks.iter_mut().zip(&contrib) {
                *r = 0.15 + 0.85 * c;
            }
            rank.span_close();
        }
        let elapsed = (rank.now() - t0).as_secs_f64();
        let local_sum: f64 = ranks.iter().sum();
        let checksum = rank.allreduce(ReduceOp::Sum, &[local_sum])[0];
        (elapsed, checksum)
    });
    let mut report = sim.run();
    let results = job.results::<(f64, f64)>(&mut report);
    let elapsed = results.iter().map(|(t, _)| *t).fold(0.0, f64::max);
    let checksum = results.first().map(|(_, c)| *c).expect("rank 0 result");
    (elapsed, checksum)
}

/// The Fig. 6 workloads at full-Comet scale: one simulated process per
/// core of the real machine (1,984 nodes x 24 cores/node). The MPI arm
/// runs [`comet_mpi_pagerank`] across all 47,616 ranks; the Spark arm
/// runs the tuned BigDataBench code with 24 executors per node, which —
/// with a shuffle service and an HDFS datanode per node plus the
/// driver — simulates 51,585 processes. Each row reports the simulated
/// time and a rank-vector checksum so the run validates itself.
pub fn figure6_comet(input: &PagerankInput, placement: Placement) -> ResultTable {
    figure6_comet_with(input, placement, |_, _| {})
}

/// [`figure6_comet`], calling `after_arm(system, processes)` as each
/// arm's simulation returns, before the next one starts.
pub fn figure6_comet_with(
    input: &PagerankInput,
    placement: Placement,
    mut after_arm: impl FnMut(&str, u64),
) -> ResultTable {
    let mut t = ResultTable::new(
        format!(
            "Fig. 6 at full-Comet scale — {} nodes x {} procs/node, {} logical vertices",
            placement.nodes,
            placement.per_node,
            input.graph.vertices as u64 * input.scale
        ),
        &["system", "processes", "time", "checksum"],
    );
    let (mpi_t, mpi_sum) = comet_mpi_pagerank(input, placement);
    after_arm("MPI (sparse alltoallv)", placement.total() as u64);
    t.push_row(vec![
        "MPI (sparse alltoallv)".to_string(),
        placement.total().to_string(),
        fmt_secs(mpi_t),
        format!("{mpi_sum:.6e}"),
    ]);
    let spark = spark_pagerank_run(
        input,
        placement,
        SparkVariant::BigDataBenchTuned,
        ShuffleEngine::Rdma,
    );
    let spark_sum = rank_checksum(&spark.ranks);
    // Executors plus one shuffle service and one datanode per node,
    // plus the driver.
    let spark_procs = placement.nodes as u64 * (placement.per_node as u64 + 2) + 1;
    after_arm("Spark-RDMA (tuned)", spark_procs);
    t.push_row(vec![
        "Spark-RDMA (tuned)".to_string(),
        spark_procs.to_string(),
        fmt_secs(spark.elapsed),
        format!("{spark_sum:.6e}"),
    ]);
    t
}

/// The Spark arm's checksum in [`figure6_comet_with`]: the sum of the
/// surviving ranks in output order.
fn rank_checksum(ranks: &[(u32, f64)]) -> f64 {
    ranks.iter().map(|(_, r)| *r).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcbd_simnet::det_hash;
    use hpcbd_workloads::pagerank_reference;

    #[test]
    fn spark_rank_values_are_pinned() {
        // Every other check sees virtual times and item counts, or
        // compares values within a tolerance. These FNV-1a digests of
        // each `(vertex, rank.to_bits())` list pin the values
        // themselves, so a shuffle that folds an f64 sum in another
        // order fails here. Rerun under each `HPCBD_EXECUTION` mode.
        let input = PagerankInput::small();
        let mut got = Vec::new();
        for variant in [SparkVariant::BigDataBenchTuned, SparkVariant::HiBench] {
            for engine in [ShuffleEngine::Socket, ShuffleEngine::Rdma] {
                let (_, ranks) = spark_pagerank(&input, Placement::new(2, 4), variant, engine);
                let bits: Vec<(u32, u64)> = ranks.iter().map(|(v, r)| (*v, r.to_bits())).collect();
                got.push(det_hash(&bits));
            }
        }
        // The Spark-RDMA arm of `fig6 --quick --comet --nodes 4`: its
        // ranks and the checksum the table prints.
        let placement = Placement::new(4, 24);
        let comet = PagerankInput::comet_at(placement, true);
        let run = spark_pagerank_run(
            &comet,
            placement,
            SparkVariant::BigDataBenchTuned,
            ShuffleEngine::Rdma,
        );
        let bits: Vec<(u32, u64)> = run.ranks.iter().map(|(v, r)| (*v, r.to_bits())).collect();
        got.push(det_hash(&bits));
        got.push(rank_checksum(&run.ranks).to_bits());
        let tuned_and_hibench = 0xd1a2298ed9a46ef6;
        let want: [u64; 6] = [
            tuned_and_hibench,
            tuned_and_hibench,
            tuned_and_hibench,
            tuned_and_hibench,
            0x0183e685dbaebe4e,
            0x4068000000000002,
        ];
        let hex: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
        assert_eq!(got, want, "got [{}]", hex.join(", "));
    }

    #[test]
    fn mpi_matches_reference_exactly() {
        let input = PagerankInput::small();
        let (t, ranks) = mpi_pagerank(&input, Placement::new(2, 4));
        let oracle = pagerank_reference(&input.graph, input.iters);
        assert_eq!(ranks.len(), oracle.len());
        for (a, b) in ranks.iter().zip(&oracle) {
            assert!((a - b).abs() < 1e-9, "mpi {a} vs oracle {b}");
        }
        assert!(t > 0.0);
    }

    #[test]
    fn shmem_matches_reference_exactly() {
        let input = PagerankInput::small();
        let (t, ranks) = shmem_pagerank(&input, Placement::new(2, 2));
        let oracle = pagerank_reference(&input.graph, input.iters);
        assert_eq!(ranks.len(), oracle.len());
        for (a, b) in ranks.iter().zip(&oracle) {
            assert!((a - b).abs() < 1e-9, "shmem {a} vs oracle {b}");
        }
        assert!(t > 0.0);
    }

    #[test]
    fn comet_sparse_mpi_matches_dense_checksum() {
        // The sparse-exchange variant computes the same rank vector as
        // the frozen dense artifact; only the f64 accumulation order
        // differs, so compare the checksums with a tolerance.
        let input = PagerankInput::small();
        for placement in [
            Placement::new(1, 3),
            Placement::new(2, 4),
            Placement::new(3, 5),
        ] {
            let (dense_t, dense_ranks) = mpi_pagerank(&input, placement);
            let (sparse_t, sparse_sum) = comet_mpi_pagerank(&input, placement);
            let dense_sum: f64 = dense_ranks.iter().sum();
            assert!(
                (dense_sum - sparse_sum).abs() < 1e-9 * dense_sum.abs().max(1.0),
                "dense {dense_sum} vs sparse {sparse_sum}"
            );
            assert!(dense_t > 0.0 && sparse_t > 0.0);
        }
    }

    #[test]
    fn comet_input_covers_every_rank() {
        // Every one of the 47,616 Comet ranks owns at least one vertex,
        // so no rank degenerates to an empty block partition.
        let input = PagerankInput::comet(true);
        let p = 1984u64 * 24;
        assert!(input.graph.vertices as u64 >= 2 * p);
        assert_eq!(input.graph.vertices as u64 * input.scale, 1_999_872);
    }

    #[test]
    fn spark_matches_dataflow_oracle() {
        let input = PagerankInput::small();
        let (_, ranks) = spark_pagerank(
            &input,
            Placement::new(2, 4),
            SparkVariant::BigDataBenchTuned,
            ShuffleEngine::Socket,
        );
        let oracle = spark_semantics_oracle(&input.graph, input.iters);
        assert_eq!(ranks.len(), oracle.len());
        for (v, r) in &ranks {
            let o = oracle[v];
            assert!((r - o).abs() < 1e-9, "vertex {v}: spark {r} vs oracle {o}");
        }
    }

    #[test]
    fn hibench_variant_agrees_with_tuned_on_values() {
        let input = PagerankInput::small();
        let (_, tuned) = spark_pagerank(
            &input,
            Placement::new(1, 4),
            SparkVariant::BigDataBenchTuned,
            ShuffleEngine::Socket,
        );
        let (_, hibench) = spark_pagerank(
            &input,
            Placement::new(1, 4),
            SparkVariant::HiBench,
            ShuffleEngine::Socket,
        );
        let a: std::collections::HashMap<u32, u64> =
            tuned.iter().map(|(v, r)| (*v, r.to_bits())).collect();
        let b: std::collections::HashMap<u32, u64> =
            hibench.iter().map(|(v, r)| (*v, r.to_bits())).collect();
        assert_eq!(a, b, "caching must not change results");
    }

    #[test]
    fn hibench_shuffles_far_more_bytes_than_tuned() {
        // The mechanism behind Figs. 6/7, verified directly: the wide
        // joins of the HiBench code move the adjacency every iteration.
        let input = PagerankInput::small();
        let p = Placement::new(2, 4);
        let tuned = spark_pagerank_run(
            &input,
            p,
            SparkVariant::BigDataBenchTuned,
            ShuffleEngine::Socket,
        );
        let hibench = spark_pagerank_run(&input, p, SparkVariant::HiBench, ShuffleEngine::Socket);
        assert!(
            hibench.metrics.shuffle_bytes_total() > 2 * tuned.metrics.shuffle_bytes_total(),
            "hibench {} vs tuned {}",
            hibench.metrics.shuffle_bytes_total(),
            tuned.metrics.shuffle_bytes_total()
        );
        // And the tuned variant's persist actually hits.
        assert!(tuned.metrics.cache_hits > 0);
    }

    #[test]
    fn tuned_beats_hibench_in_time() {
        // The ~3x persist effect, directionally.
        let input = PagerankInput::small();
        let p = Placement::new(2, 4);
        let (tuned_t, _) = spark_pagerank(
            &input,
            p,
            SparkVariant::BigDataBenchTuned,
            ShuffleEngine::Socket,
        );
        let (hibench_t, _) =
            spark_pagerank(&input, p, SparkVariant::HiBench, ShuffleEngine::Socket);
        assert!(
            tuned_t < hibench_t,
            "tuned {tuned_t} must beat hibench {hibench_t}"
        );
    }

    #[test]
    fn mpi_beats_spark_in_absolute_time() {
        let input = PagerankInput::small();
        let p = Placement::new(2, 4);
        let (mpi_t, _) = mpi_pagerank(&input, p);
        let (spark_t, _) = spark_pagerank(
            &input,
            p,
            SparkVariant::BigDataBenchTuned,
            ShuffleEngine::Socket,
        );
        assert!(mpi_t < spark_t, "mpi {mpi_t} vs spark {spark_t}");
    }
}
