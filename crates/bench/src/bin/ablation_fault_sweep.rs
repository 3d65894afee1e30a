//! Ablation A4b — recovery-cost sweep (Sec. VI-D): the same iterative
//! workload replayed under a grid of deterministic [`FaultPlan`]s — node
//! crash, straggler, message loss — once per paradigm, so the *recovery
//! cost structure* of each fault-tolerance protocol can be compared on
//! one table: MPI pays checkpoints always and whole-iteration replay on
//! failure, Spark recomputes only the lost lineage, MapReduce re-executes
//! lost tasks from replicated HDFS input.
//!
//! Virtual times are bit-identical from run to run, so the conformance
//! gate diffs the `--quick` output against its golden verbatim.

use hpcbd_cluster::Placement;
use hpcbd_minimpi::{mpirun_faulty, CheckpointMode, Checkpointer, FaultPolicy, ReduceOp};
use hpcbd_minmapreduce::{InputFormat, JobConf, MrJobBuilder};
use hpcbd_minshmem::{shmem_run_faulty, PeCtx, ShmemCheckpointer};
use hpcbd_minspark::{ShuffleEngine, SparkCluster, SparkConfig};
use hpcbd_simnet::{FaultPlan, NodeId, SimDuration, SimTime, Work};
use std::sync::Arc;

/// Which fault the scenario injects; crash times are derived per
/// paradigm from its clean runtime (each paradigm's schedule differs).
#[derive(Clone, Copy)]
enum Fault {
    None,
    /// Crash node 1 at `frac` of the paradigm's clean runtime.
    Crash {
        frac: f64,
    },
    /// Node 1 computes `factor`x slower for the whole run.
    Straggler {
        factor: f64,
    },
    /// Uniform message-drop probability in parts per million.
    Drops {
        ppm: u32,
    },
}

struct Scenario {
    label: &'static str,
    fault: Fault,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            label: "clean",
            fault: Fault::None,
        },
        Scenario {
            label: "node-crash @40%",
            fault: Fault::Crash { frac: 0.40 },
        },
        Scenario {
            label: "node-crash @75%",
            fault: Fault::Crash { frac: 0.75 },
        },
        Scenario {
            label: "straggler x6",
            fault: Fault::Straggler { factor: 6.0 },
        },
        Scenario {
            label: "drops 5%",
            fault: Fault::Drops { ppm: 50_000 },
        },
    ]
}

/// Build the plan for a scenario. `crash_at` is the paradigm-specific
/// absolute crash time resolved from the clean run.
fn plan_for(fault: Fault, crash_at: SimTime) -> FaultPlan {
    let plan = FaultPlan::new(42);
    match fault {
        Fault::None => plan,
        Fault::Crash { .. } => plan.crash_node(NodeId(1), crash_at),
        Fault::Straggler { factor } => {
            plan.slow_node(NodeId(1), SimTime(0), SimTime(u64::MAX), factor)
        }
        Fault::Drops { ppm } => plan.drop_messages(ppm),
    }
}

// ---------------------------------------------------------------- MPI --

/// Iterative MPI job under `plan`: coordinated checkpoints every
/// `interval` iterations, plan-driven failure detection, and
/// checkpoint/restart recovery with full replay accounting.
fn run_mpi(placement: Placement, iters: u32, interval: u32, plan: FaultPlan) -> f64 {
    let out = mpirun_faulty(placement, plan, move |rank| {
        let per_iter = Work::new(2.0e8, 8.0e8);
        let stall = SimDuration::from_secs(4);
        let mut ck = Checkpointer::new(interval, 24u64 << 20);
        let mut iter = 0;
        while iter < iters {
            rank.ctx().compute(per_iter, 1.0);
            let _ = rank.allreduce(ReduceOp::Sum, &[f64::from(iter)]);
            ck.after_iteration(rank, iter);
            if ck.poll_plan_failure(
                rank,
                FaultPolicy::Restart {
                    relaunch_stall: stall,
                },
            ) {
                iter = ck.restart_replayed(rank, stall, iter, per_iter, 1);
                continue;
            }
            iter += 1;
        }
        rank.now()
    });
    out.results
        .iter()
        .map(|t| t.as_secs_f64())
        .fold(0.0, f64::max)
}

// -------------------------------------------------------------- Spark --

/// Iterative Spark job under `plan`: map-heavy rounds with a shuffle per
/// round; recovery is lineage recomputation (plus speculation for the
/// straggler scenario).
fn run_spark(nodes: u32, epn: u32, rounds: u32, items: u64, plan: FaultPlan) -> f64 {
    let mut config = SparkConfig::with_shuffle(ShuffleEngine::Socket);
    config.executors_per_node = epn;
    config.task_timeout = SimDuration::from_secs(10);
    config.speculation = true;
    let mut cluster = SparkCluster::new(nodes, config);
    if !plan.is_empty() {
        cluster = cluster.faults(plan);
    }
    cluster
        .run(move |sc| {
            let t0 = sc.now();
            let parts = 16u32;
            let xs = sc.parallelize((0..items).collect::<Vec<u64>>(), parts);
            let mut cur = xs;
            for _ in 0..rounds {
                let pairs =
                    cur.map_with_cost(Work::new(3.0e5, 64.0), 16, |x| (x % 64, x.wrapping_mul(31)));
                cur = pairs
                    .reduce_by_key(parts, |a, b| a.wrapping_add(*b))
                    .map(|(k, v)| k.wrapping_add(*v));
            }
            let n = sc.count(&cur);
            assert!(n > 0);
            (sc.now() - t0).as_secs_f64()
        })
        .value
}

// ---------------------------------------------------------- MapReduce --

/// Deterministic synthetic MR input (same shape as the engine's tests).
struct Synth {
    scale: f64,
}

impl InputFormat for Synth {
    type Rec = u64;
    fn sample_records(&self, offset: u64, _len: u64) -> Vec<u64> {
        let block = offset / (32 << 20);
        (0..10).map(|i| (block * 7 + i) % 5).collect()
    }
    fn logical_scale(&self) -> f64 {
        self.scale
    }
    fn record_work(&self) -> Work {
        Work::new(100.0, 200.0)
    }
}

/// MR count job under `plan`: recovery is tasktracker-failure detection
/// plus re-execution of lost maps from replicated HDFS blocks.
fn run_mr(nodes: u32, blocks: u64, scale: f64, plan: FaultPlan) -> f64 {
    let mut builder = MrJobBuilder::new(
        Arc::new(Synth { scale }),
        "/in",
        blocks * (32 << 20),
        |k: &u64| vec![(*k, 1u64)],
        |_k, vs: &[u64]| vs.iter().sum(),
    )
    .hdfs(hpcbd_minhdfs::HdfsConfig {
        block_size: 32 << 20,
        ..Default::default()
    })
    .conf(JobConf {
        reduce_tasks: 2,
        slots_per_node: 2,
        task_timeout: SimDuration::from_secs(20),
        speculative_execution: true,
        ..Default::default()
    });
    if !plan.is_empty() {
        builder = builder.faults(plan);
    }
    builder.run(nodes).elapsed.as_secs_f64()
}

// ------------------------------------------ A4c: coordinated vs async --

/// One semantic checkpoint-mode data point: virtual seconds, the final
/// state value (for oracle comparison), and iterations replayed.
struct CkptPoint {
    secs: f64,
    state: u64,
    replayed: u64,
}

/// Iterative MPI job whose *state* is checkpointed (payload capture) and
/// restored semantically on failure: lost iterations are re-executed by
/// the main loop from the restored value, so the final state proves the
/// restart read the last *durable* checkpoint.
fn run_mpi_ckpt(
    placement: Placement,
    iters: u32,
    interval: u32,
    mode: CheckpointMode,
    plan: FaultPlan,
) -> CkptPoint {
    let out = mpirun_faulty(placement, plan, move |rank| {
        let per_iter = Work::new(2.0e8, 8.0e8);
        let stall = SimDuration::from_secs(4);
        let mut ck = Checkpointer::new(interval, 24u64 << 20).with_mode(mode);
        let mut state = 0u64;
        let mut replayed = 0u64;
        let mut iter = 0;
        while iter < iters {
            rank.ctx().compute(per_iter, 1.0);
            let r = rank.allreduce(ReduceOp::Sum, &[f64::from(iter + 1)]);
            state = state.wrapping_add((r[0] as u64).wrapping_mul(u64::from(iter) + 1));
            ck.after_iteration_with(rank, iter, || state);
            if ck.poll_plan_failure(
                rank,
                FaultPolicy::Restart {
                    relaunch_stall: stall,
                },
            ) {
                let resume = ck.restart_semantic(rank, stall, iter + 1);
                replayed += u64::from(iter + 1 - resume);
                state = ck.restore_payload::<u64>(resume).unwrap_or(0);
                iter = resume;
                continue;
            }
            iter += 1;
        }
        (rank.now().as_secs_f64(), state, replayed)
    });
    fold_points(&out.results)
}

/// The SHMEM mirror of [`run_mpi_ckpt`]: state evolves over
/// `sum_to_all`, checkpoints drain through the symmetric heap's node
/// disks, restart agreement goes through an allgather.
fn run_shmem_ckpt(
    placement: Placement,
    iters: u32,
    interval: u32,
    mode: CheckpointMode,
    plan: FaultPlan,
) -> CkptPoint {
    let out = shmem_run_faulty(placement, plan, move |pe: &mut PeCtx| {
        let per_iter = Work::new(2.0e8, 8.0e8);
        let stall = SimDuration::from_secs(4);
        let mut ck = ShmemCheckpointer::new(interval, 24u64 << 20).with_mode(mode);
        let acc = pe.malloc::<f64>("a4c_acc", 1, 0.0);
        let mut state = 0u64;
        let mut replayed = 0u64;
        let mut iter = 0;
        while iter < iters {
            pe.ctx().compute(per_iter, 1.0);
            pe.local_write(&acc, 0, &[f64::from(iter + 1)]);
            pe.sum_to_all(&acc);
            let v = pe.local_clone(&acc)[0];
            state = state.wrapping_add((v as u64).wrapping_mul(u64::from(iter) + 1));
            ck.after_iteration_with(pe, iter, || state);
            if ck.poll_plan_failure(
                pe,
                FaultPolicy::Restart {
                    relaunch_stall: stall,
                },
            ) {
                let resume = ck.restart_semantic(pe, stall, iter + 1);
                replayed += u64::from(iter + 1 - resume);
                state = ck.restore_payload::<u64>(resume).unwrap_or(0);
                iter = resume;
                continue;
            }
            iter += 1;
        }
        pe.free(acc);
        (pe.now().as_secs_f64(), state, replayed)
    });
    fold_points(&out.results)
}

/// Collapse per-process `(secs, state, replayed)` tuples: slowest clock
/// wins, states must agree (they are allreduce-derived), replay sums.
fn fold_points(results: &[(f64, u64, u64)]) -> CkptPoint {
    let secs = results.iter().map(|r| r.0).fold(0.0, f64::max);
    let state = results[0].1;
    assert!(
        results.iter().all(|r| r.1 == state),
        "collective-derived state must agree across processes"
    );
    CkptPoint {
        secs,
        state,
        replayed: results.iter().map(|r| r.2).sum(),
    }
}

/// The A4c table: coordinated vs asynchronous checkpointing at equal
/// interval, fault-free and under a node crash, for MPI and SHMEM.
fn a4c_async_ckpt(placement: Placement, iters: u32, interval: u32) {
    println!();
    println!(
        "A4c — coordinated vs async checkpointing (interval {interval}, {} iters):",
        iters
    );
    println!(
        "{:<8} {:<12} {:>12} {:>20} {:>9} {:>7}",
        "runtime", "ckpt mode", "clean", "node-crash @55%", "replayed", "result"
    );
    type Runner = fn(Placement, u32, u32, CheckpointMode, FaultPlan) -> CkptPoint;
    let runners: [(&str, Runner); 2] = [("mpi", run_mpi_ckpt), ("shmem", run_shmem_ckpt)];
    for (name, run) in runners {
        for mode in [CheckpointMode::Coordinated, CheckpointMode::Async] {
            let clean = run(placement, iters, interval, mode, FaultPlan::new(7));
            let crash_at = SimTime((clean.secs * 0.55 * 1e9) as u64);
            let plan = FaultPlan::new(7).crash_node(NodeId(1), crash_at);
            let faulty = run(placement, iters, interval, mode, plan);
            let ok = faulty.state == clean.state;
            assert!(
                ok,
                "{name}/{mode:?}: restart must reproduce the fault-free state \
                 (got {}, oracle {})",
                faulty.state, clean.state
            );
            println!(
                "{:<8} {:<12} {:>11.3}s {:>10.3}s ({:+6.1}%) {:>9} {:>7}",
                name,
                match mode {
                    CheckpointMode::Coordinated => "coordinated",
                    CheckpointMode::Async => "async",
                },
                clean.secs,
                faulty.secs,
                (faulty.secs / clean.secs - 1.0) * 100.0,
                faulty.replayed,
                if ok { "ok" } else { "CORRUPT" }
            );
        }
    }
    println!();
    println!("shape: at equal interval the async mode's steady-state (clean) cost");
    println!("is lower — the drain overlaps later iterations instead of stopping");
    println!("the world — while restart still lands on the last checkpoint whose");
    println!("background drain had fully reached the disk before the crash (a");
    println!("mid-drain crash forfeits that snapshot and replays further back).");
}

// --------------------------------------------------------------- main --

/// Crash time for a paradigm: `frac` through the clean runtime, offset
/// past the framework's startup phase so the victim is actually working.
fn crash_time(clean_secs: f64, startup_secs: f64, frac: f64) -> SimTime {
    let t = (startup_secs + (clean_secs - startup_secs) * frac).max(startup_secs + 0.1);
    SimTime((t * 1e9) as u64)
}

fn main() {
    let args = hpcbd_bench::BenchArgs::parse();
    hpcbd_bench::banner("Ablation A4b (fault sweep: recovery cost per paradigm)");
    let quick = args.quick;
    let (placement, iters, interval) = if quick {
        (Placement::new(2, 2), 6u32, 3u32)
    } else {
        (Placement::new(4, 8), 10, 3)
    };
    let (spark_nodes, spark_epn, spark_rounds, spark_items) = if quick {
        (3, 2, 3u32, 2_000u64)
    } else {
        (4, 4, 6, 20_000)
    };
    let (mr_nodes, mr_blocks, mr_scale) = if quick {
        (3u32, 8u64, 50_000.0)
    } else {
        (4, 16, 200_000.0)
    };

    hpcbd_bench::run_with_report("ablation_fault_sweep", &args, || {
        let mpi_clean = run_mpi(placement, iters, interval, FaultPlan::new(42));
        let spark_clean = run_spark(
            spark_nodes,
            spark_epn,
            spark_rounds,
            spark_items,
            FaultPlan::new(42),
        );
        let mr_clean = run_mr(mr_nodes, mr_blocks, mr_scale, FaultPlan::new(42));

        println!();
        println!(
            "{:<18} {:>22} {:>22} {:>22}",
            "scenario", "MPI ckpt/restart", "Spark lineage", "MR re-execution"
        );
        let cell = |secs: f64, clean: f64| -> String {
            if (secs - clean).abs() < f64::EPSILON * clean {
                format!("{secs:9.3}s   (base)")
            } else {
                format!("{secs:9.3}s ({:+6.1}%)", (secs / clean - 1.0) * 100.0)
            }
        };
        for sc in scenarios() {
            let (mpi_t, spark_t, mr_t) = match sc.fault {
                Fault::None => (mpi_clean, spark_clean, mr_clean),
                fault => {
                    let frac = match fault {
                        Fault::Crash { frac } => frac,
                        _ => 0.0,
                    };
                    // Spark's measured span starts after ~0.9 s of app
                    // startup; MR's includes the 2.5 s job submission.
                    let mpi = run_mpi(
                        placement,
                        iters,
                        interval,
                        plan_for(fault, crash_time(mpi_clean, 0.0, frac)),
                    );
                    let spark = run_spark(
                        spark_nodes,
                        spark_epn,
                        spark_rounds,
                        spark_items,
                        plan_for(fault, crash_time(spark_clean + 0.9, 0.9, frac)),
                    );
                    let mr = run_mr(
                        mr_nodes,
                        mr_blocks,
                        mr_scale,
                        plan_for(fault, crash_time(mr_clean, 2.6, frac)),
                    );
                    (mpi, spark, mr)
                }
            };
            println!(
                "{:<18} {:>22} {:>22} {:>22}",
                sc.label,
                cell(mpi_t, mpi_clean),
                cell(spark_t, spark_clean),
                cell(mr_t, mr_clean)
            );
        }
        println!();
        println!("shape: the crash rows show the protocols' asymmetry — MPI replays");
        println!("whole iterations from the last coordinated checkpoint, Spark");
        println!("recomputes only the lost partitions' lineage, MapReduce re-runs");
        println!("lost map tasks against surviving HDFS replicas. Stragglers hurt");
        println!("BSP-style MPI most (every allreduce waits); speculation caps the");
        println!("damage for Spark and MapReduce. Message drops cost retransmits");
        println!("everywhere but trigger no recovery protocol.");

        a4c_async_ckpt(placement, iters, interval);
    });
}
