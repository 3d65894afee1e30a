//! `conformance` — the determinism gate CI actually runs.
//!
//! Four subcommands (see DESIGN.md §11 and §13 for the underlying
//! model):
//!
//! * `conformance gate [--bless] [--golden DIR]` — recompute every
//!   bench bin's `--quick` output by invoking the sibling release
//!   binaries, diff each against the golden registry pinned under
//!   `results/golden/`, re-run a subset in parallel execution mode
//!   against the *same* goldens (cross-mode coverage), and byte-compare
//!   phase-attributed JSON reports across modes. `--bless` re-pins the
//!   registry after an intentional behaviour change; the PR diff then
//!   shows exactly which table rows moved.
//! * `conformance explore [--seed N] [--schedules N] [--threads N]
//!   [--pipeline fig3|fig6|fault|all] [--repro-out PATH]` — run the
//!   schedule-perturbation explorer (`hpcbd-check`) over representative
//!   pipelines; on divergence, write a replayable repro file and fail.
//! * `conformance lint [--pipeline ...]` — run the determinism lint
//!   matrix (thread sweep, shuffled polling, allocator poisoning,
//!   telemetry identity) over the same pipelines.
//! * `conformance campaign [--seed N] [--campaigns N] [--plan-out PATH]`
//!   — run the seeded fault-campaign explorer (`hpcbd-check`): first a
//!   self-test that plants [`hpcbd_minimpi::RecoveryBug`] and demands
//!   the harness catch the silent corruption (with a shrunk minimal
//!   plan), then N adversarial campaigns per runtime (MPI, SHMEM,
//!   Spark) under both execution modes (sequential, parallel), each of
//!   which must end digest-equal to the fault-free oracle or in a
//!   structured abort.
//!
//! Exit status is the gate verdict: 0 clean, 1 divergence/mismatch,
//! 2 usage or environment error.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use hpcbd_check::{lint_workload, Explorer, GoldenRegistry, GoldenStatus};
use hpcbd_cluster::Placement;
use hpcbd_core::bench_pagerank::{figure6, PagerankInput};
use hpcbd_core::bench_reduce;

/// Every bench bin the golden registry pins, with the argument set that
/// makes its output deterministic. `bench` needs `--digests` because its
/// normal output is wall-clock timings.
const BINS: &[(&str, &[&str])] = &[
    ("table1", &["--quick"]),
    ("fig3", &["--quick"]),
    ("table2", &["--quick"]),
    ("fig4", &["--quick"]),
    ("fig6", &["--quick"]),
    ("fig7", &["--quick"]),
    ("table3", &["--quick"]),
    ("ablation_persist", &["--quick"]),
    ("ablation_replication", &["--quick"]),
    ("ablation_rdma_all", &["--quick"]),
    ("ablation_fault", &["--quick"]),
    ("ablation_fault_sweep", &["--quick"]),
    ("ablation_shmem_pagerank", &["--quick"]),
    ("ablation_offload", &["--quick"]),
    ("ablation_queries", &["--quick"]),
    ("ablation_seismic", &["--quick"]),
    ("bench", &["--quick", "--digests"]),
    ("bench_datacenter", &["--quick"]),
];

/// Bins additionally re-run under `HPCBD_EXECUTION=parallel:4` against
/// the same goldens: a cheap cross-mode determinism check on the
/// pipelines that stress the scheduler hardest (iterative allreduce,
/// fault recovery, the multi-tenant day).
const CROSS_MODE: &[&str] = &["fig6", "ablation_fault_sweep", "bench_datacenter"];
const CROSS_MODE_EXECUTION: &str = "parallel:4";

fn usage() -> ExitCode {
    eprintln!(
        "usage: conformance <gate|explore|lint|campaign> [options]\n\
         \n\
         gate     [--bless] [--golden DIR]\n\
         explore  [--seed N] [--schedules N] [--threads N]\n\
         \x20        [--pipeline fig3|fig6|fault|all] [--repro-out PATH]\n\
         lint     [--pipeline fig3|fig6|fault|all]\n\
         campaign [--seed N] [--campaigns N] [--plan-out PATH]"
    );
    ExitCode::from(2)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gate") => gate(&args[1..]),
        Some("explore") => explore(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("campaign") => campaign(&args[1..]),
        _ => usage(),
    }
}

// ---------------------------------------------------------------- gate

/// Locate a sibling bench binary next to this executable.
fn sibling(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("executable has no parent directory")?;
    let path = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    if path.exists() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found — build the whole workspace first (cargo build --release)",
            path.display()
        ))
    }
}

/// Run one bench bin and capture its stdout. `execution` is the
/// `HPCBD_EXECUTION` value, or `None` for the default (sequential).
fn run_bin(name: &str, extra: &[&str], execution: Option<&str>) -> Result<String, String> {
    let mut cmd = Command::new(sibling(name)?);
    cmd.args(extra);
    match execution {
        Some(v) => {
            cmd.env("HPCBD_EXECUTION", v);
        }
        None => {
            cmd.env_remove("HPCBD_EXECUTION");
        }
    }
    let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{name} exited with {}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8(out.stdout).map_err(|_| format!("{name}: stdout is not UTF-8"))
}

fn gate(args: &[String]) -> ExitCode {
    let bless = args.iter().any(|a| a == "--bless");
    let golden_dir = flag_value(args, "--golden")
        .or_else(|| std::env::var("HPCBD_GOLDEN_DIR").ok())
        .unwrap_or_else(|| "results/golden".to_string());
    let registry = GoldenRegistry::open(&golden_dir);
    println!(
        "conformance gate: {} bins, registry at {golden_dir}{}",
        BINS.len(),
        if bless { " (blessing)" } else { "" }
    );

    let mut failures = 0u32;
    fn check(registry: &GoldenRegistry, failures: &mut u32, name: &str, output: &str, label: &str) {
        match registry.check(name, output) {
            Ok(GoldenStatus::Match) => println!("  PASS {label}"),
            Ok(GoldenStatus::Missing) => {
                *failures += 1;
                println!("  FAIL {label}: no golden pinned (run `conformance gate --bless`)");
            }
            Ok(GoldenStatus::Mismatch { diag }) => {
                *failures += 1;
                println!("  FAIL {label}:");
                for line in diag.lines() {
                    println!("       {line}");
                }
            }
            Err(e) => {
                *failures += 1;
                println!("  FAIL {label}: registry I/O error: {e}");
            }
        }
    }

    for (name, extra) in BINS {
        match run_bin(name, extra, None) {
            Ok(output) => {
                if bless {
                    match registry.bless(name, &output) {
                        Ok(()) => println!("  BLESS {name}"),
                        Err(e) => {
                            failures += 1;
                            println!("  FAIL {name}: bless: {e}");
                        }
                    }
                } else {
                    check(&registry, &mut failures, name, &output, name);
                }
            }
            Err(e) => {
                failures += 1;
                println!("  FAIL {name}: {e}");
            }
        }
    }

    // Cross-mode: the same goldens must reproduce under the parallel
    // engine — goldens double as cross-mode determinism oracles.
    if !bless {
        let exec = CROSS_MODE_EXECUTION;
        for name in CROSS_MODE {
            let extra = BINS
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, e)| *e)
                .unwrap();
            match run_bin(name, extra, Some(exec)) {
                Ok(output) => check(
                    &registry,
                    &mut failures,
                    name,
                    &output,
                    &format!("{name} [{exec}]"),
                ),
                Err(e) => {
                    failures += 1;
                    println!("  FAIL {name} [{exec}]: {e}");
                }
            }
        }

        // Phase-attributed reports must be byte-identical across modes.
        match report_cross_mode(exec) {
            Ok(()) => println!("  PASS fig6 report [sequential == {exec}]"),
            Err(e) => {
                failures += 1;
                println!("  FAIL fig6 report cross-mode [{exec}]:");
                for line in e.lines() {
                    println!("       {line}");
                }
            }
        }
    }

    if failures == 0 {
        println!("conformance gate: clean");
        ExitCode::SUCCESS
    } else {
        println!("conformance gate: {failures} failure(s)");
        ExitCode::FAILURE
    }
}

/// Run `fig6 --quick --report` sequentially and under `exec`, and
/// byte-compare the two `hpcbd.report.v1` JSON documents.
fn report_cross_mode(exec: &str) -> Result<(), String> {
    let tmp = std::env::temp_dir();
    let tag = exec.replace(':', "-");
    let seq_path = tmp.join(format!("hpcbd-conf-{}-seq.json", std::process::id()));
    let par_path = tmp.join(format!("hpcbd-conf-{}-{tag}.json", std::process::id()));
    let result = (|| {
        run_bin(
            "fig6",
            &["--quick", "--report", &seq_path.display().to_string()],
            None,
        )?;
        run_bin(
            "fig6",
            &["--quick", "--report", &par_path.display().to_string()],
            Some(exec),
        )?;
        let seq = std::fs::read_to_string(&seq_path).map_err(|e| format!("read report: {e}"))?;
        let par = std::fs::read_to_string(&par_path).map_err(|e| format!("read report: {e}"))?;
        if seq == par {
            Ok(())
        } else {
            Err(match hpcbd_obs::first_divergence(&seq, &par) {
                Some(d) => d.render(),
                None => "reports differ only in trailing whitespace".to_string(),
            })
        }
    })();
    let _ = std::fs::remove_file(&seq_path);
    let _ = std::fs::remove_file(&par_path);
    result
}

// ------------------------------------------------------- explore / lint

/// The pipelines the explorer and lint cover: the reduce collective
/// sweep (fig3), the iterative PageRank pipeline (fig6), and an
/// adversarial faulty workload (crash + straggler + degraded link +
/// message drops). Small configurations — each must be cheap enough to
/// re-run dozens of times.
type Pipeline = (&'static str, fn());

fn pipelines(filter: &str) -> Result<Vec<Pipeline>, ExitCode> {
    let all: Vec<Pipeline> = vec![
        ("fig3", || {
            bench_reduce::figure3(Placement::new(2, 4), &[1usize, 4096], 3);
        }),
        ("fig6", || {
            figure6(&PagerankInput::small(), &[1u32, 2], 4);
        }),
        ("fault", fault_pipeline),
    ];
    if filter == "all" {
        return Ok(all);
    }
    let picked: Vec<_> = all.into_iter().filter(|(n, _)| *n == filter).collect();
    if picked.is_empty() {
        eprintln!("unknown pipeline `{filter}` (expected fig3, fig6, fault or all)");
        return Err(ExitCode::from(2));
    }
    Ok(picked)
}

/// The adversarial faulty workload from the tier-1 determinism suite:
/// a node crash under a deadline-looped sink, a permanent straggler, a
/// degraded link, and heavy message drops, all in one plan.
fn fault_pipeline() {
    use hpcbd_simnet::{
        FaultPlan, MatchSpec, NodeId, Payload, Pid, Sim, SimDuration, SimTime, Topology, Transport,
        Work,
    };
    let mut sim = Sim::new(Topology::comet(3));
    sim.set_fault_plan(
        FaultPlan::new(99)
            .crash_node(NodeId(1), SimTime(40_000_000))
            .slow_node(NodeId(2), SimTime(0), SimTime(u64::MAX), 3.0)
            .degrade_link(NodeId(0), NodeId(2), SimTime(0), SimTime(u64::MAX), 2.5)
            .drop_messages(100_000),
    );
    let sink = sim.spawn(NodeId(1), "sink".to_string(), move |ctx| {
        let crash = ctx.node_crash_time();
        let mut seen = 0u64;
        while let Ok(m) = ctx.recv_deadline(MatchSpec::tag(9), crash) {
            seen += m.bytes;
        }
        seen
    });
    let n = 4u32;
    for i in 0..n {
        let node = NodeId(i % 3);
        sim.spawn(node, format!("w{i}"), move |ctx| {
            let tr = Transport::ipoib_socket();
            let me = ctx.pid();
            let right = Pid(1 + (me.0 % n));
            let mut acc = 0u64;
            for round in 0..6u64 {
                ctx.compute(Work::new(2.0e6 * (1.0 + me.0 as f64), 64.0), 1.0);
                ctx.send(sink, 9, 256, Payload::Empty, &tr);
                ctx.send(right, 7, 128 + 64 * round, Payload::value(round), &tr);
                let m = ctx.recv(MatchSpec::tag(7));
                if let Payload::Value(v) = &m.payload {
                    acc += v.downcast_ref::<u64>().unwrap() + m.bytes;
                }
                if ctx
                    .recv_timeout(MatchSpec::tag(55), SimDuration::from_micros(40))
                    .is_err()
                {
                    acc += 1;
                }
            }
            acc
        });
    }
    sim.run();
}

fn explore(args: &[String]) -> ExitCode {
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|v| parse_u64(&v))
        .unwrap_or(0xC0FFEE);
    let schedules: usize = flag_value(args, "--schedules")
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let threads: usize = flag_value(args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let filter = flag_value(args, "--pipeline").unwrap_or_else(|| "all".to_string());
    let repro_out = flag_value(args, "--repro-out");
    let pipes = match pipelines(&filter) {
        Ok(p) => p,
        Err(code) => return code,
    };

    println!(
        "conformance explore: seed={seed:#x} schedules={schedules} threads={threads} \
         pipelines={filter}"
    );
    for (name, workload) in pipes {
        let report = Explorer::new(seed)
            .schedules(schedules)
            .threads(threads)
            .explore(workload);
        match &report.divergence {
            None => println!(
                "  PASS {name}: {} perturbed schedule(s), oracle sha256={}",
                report.schedules_run, report.oracle_digest
            ),
            Some(d) => {
                println!(
                    "  FAIL {name} after {} schedule(s):\n{}",
                    report.schedules_run,
                    d.render()
                );
                if let Some(path) = &repro_out {
                    let repro = format!(
                        "hpcbd conformance divergence repro\n\
                         pipeline:  {name}\n\
                         command:   conformance explore --pipeline {name} --seed {seed:#x} \
                         --schedules {schedules} --threads {threads}\n\
                         oracle sha256: {}\n\n{}",
                        report.oracle_digest,
                        d.render()
                    );
                    match std::fs::write(path, repro) {
                        Ok(()) => println!("  repro written to {path}"),
                        Err(e) => eprintln!("  failed to write repro {path}: {e}"),
                    }
                }
                return ExitCode::FAILURE;
            }
        }
    }
    println!("conformance explore: clean");
    ExitCode::SUCCESS
}

fn lint(args: &[String]) -> ExitCode {
    let filter = flag_value(args, "--pipeline").unwrap_or_else(|| "all".to_string());
    let pipes = match pipelines(&filter) {
        Ok(p) => p,
        Err(code) => return code,
    };
    println!("conformance lint: pipelines={filter}");
    for (name, workload) in pipes {
        let report = lint_workload(workload);
        match &report.divergence {
            None => println!("  PASS {name}: {} condition(s)", report.conditions.len()),
            Some(d) => {
                println!("  FAIL {name}:\n{}", d.render());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("conformance lint: clean");
    ExitCode::SUCCESS
}

// ------------------------------------------------------------ campaign

/// The fault-campaign robustness gate (DESIGN.md §13). The campaign
/// *generator, classifier and shrinker* live in `hpcbd-check`
/// (dependency-light, simnet only); the concrete runtime workloads are
/// composed here, where every runtime crate is in scope.
mod campaign_workloads {
    use hpcbd_check::{classify_run, CampaignOutcome, CampaignSpace};
    use hpcbd_cluster::Placement;
    use hpcbd_minimpi::{
        mpirun_faulty, CheckpointMode, Checkpointer, FaultPolicy, RecoveryBug, ReduceOp,
    };
    use hpcbd_minshmem::{shmem_run_faulty, PeCtx, ShmemCheckpointer};
    use hpcbd_minspark::{SparkCluster, SparkConfig};
    use hpcbd_simnet::{FaultPlan, NodeId, SimDuration, SimTime, Work};

    /// A runtime under campaign test: a name, the closure that runs it
    /// under a plan, and the space of faults the generator may aim at
    /// (derived from an oracle run).
    pub struct Subject {
        /// Runtime name (`mpi`, `shmem`, `spark`).
        pub name: &'static str,
        /// Fault-free oracle result.
        pub oracle: u64,
        /// What the generator may target.
        pub space: CampaignSpace,
        run: Box<dyn Fn(&FaultPlan) -> u64>,
    }

    impl Subject {
        /// Classify one campaign run against the oracle.
        pub fn classify(&self, plan: &FaultPlan) -> CampaignOutcome {
            classify_run(&self.oracle, || (self.run)(plan))
        }
    }

    /// Iterative MPI job with asynchronous checkpointing and semantic
    /// restart; the state value is the digest. `bug` plants
    /// [`RecoveryBug::RestartUndrained`] for the harness self-test.
    fn mpi_job(
        plan: &FaultPlan,
        bug: Option<RecoveryBug>,
    ) -> (u64, SimTime, Vec<(SimTime, SimTime)>) {
        let plan = plan.clone();
        let out = mpirun_faulty(Placement::new(2, 2), plan, move |rank| {
            let work = Work::new(5.0e7, 0.0);
            let stall = SimDuration::from_secs(1);
            let mut ck = Checkpointer::new(2, 64 << 20).with_mode(CheckpointMode::Async);
            if let Some(b) = bug {
                ck = ck.with_planted_bug(b);
            }
            let mut state = 0u64;
            let mut iter = 0u32;
            while iter < 8 {
                rank.ctx().compute(work, 1.0);
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
                    state = ck.restore_payload::<u64>(resume).unwrap_or(0);
                    iter = resume;
                    continue;
                }
                iter += 1;
            }
            (state, rank.now(), ck.drain_windows())
        });
        let end = out.results.iter().map(|r| r.1).max().expect("ranks > 0");
        (out.results[0].0, end, out.results[0].2.clone())
    }

    /// The SHMEM mirror of [`mpi_job`]: state over `sum_to_all`,
    /// background drains through the symmetric heap's node disks.
    fn shmem_job(plan: &FaultPlan) -> (u64, SimTime, Vec<(SimTime, SimTime)>) {
        let plan = plan.clone();
        let out = shmem_run_faulty(Placement::new(2, 2), plan, |pe: &mut PeCtx| {
            let work = Work::new(5.0e7, 0.0);
            let stall = SimDuration::from_secs(1);
            let mut ck = ShmemCheckpointer::new(2, 64 << 20).with_mode(CheckpointMode::Async);
            let acc = pe.malloc::<f64>("campaign_acc", 1, 0.0);
            let mut state = 0u64;
            let mut iter = 0u32;
            while iter < 8 {
                pe.ctx().compute(work, 1.0);
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
                    state = ck.restore_payload::<u64>(resume).unwrap_or(0);
                    iter = resume;
                    continue;
                }
                iter += 1;
            }
            pe.free(acc);
            (state, pe.now(), ck.drain_windows())
        });
        let end = out.results.iter().map(|r| r.1).max().expect("pes > 0");
        (out.results[0].0, end, out.results[0].2.clone())
    }

    /// Spark job whose digest folds the collected key/value pairs, so a
    /// lineage recomputation that loses or duplicates data is visible.
    fn spark_job(plan: &FaultPlan) -> (u64, SimTime) {
        let config = SparkConfig {
            executors_per_node: 1,
            task_timeout: SimDuration::from_secs(5),
            ..SparkConfig::default()
        };
        let mut cluster = SparkCluster::new(3, config);
        if !plan.is_empty() {
            cluster = cluster.faults(plan.clone());
        }
        cluster
            .run(|sc| {
                let xs = sc.parallelize((0..800u64).collect::<Vec<u64>>(), 8);
                let pairs = xs.map_with_cost(Work::new(2.0e6, 64.0), 8, |x| (x % 16, *x));
                let red = pairs.reduce_by_key(8, |a, b| a.wrapping_add(*b));
                let digest = sc
                    .collect(&red)
                    .into_iter()
                    .fold(0u64, |acc, (k, v)| acc.wrapping_mul(31).wrapping_add(k ^ v));
                (digest, sc.now())
            })
            .value
    }

    /// Build the three campaign subjects, deriving each space (horizon,
    /// protected nodes, drain windows) from a fault-free oracle run.
    pub fn subjects() -> Vec<Subject> {
        let none = FaultPlan::new(0);
        let (mpi_oracle, mpi_end, mpi_windows) = mpi_job(&none, None);
        let (shmem_oracle, shmem_end, shmem_windows) = shmem_job(&none);
        let (spark_oracle, spark_end) = spark_job(&none);
        vec![
            Subject {
                name: "mpi",
                oracle: mpi_oracle,
                space: CampaignSpace::new(2, mpi_end).with_drain_windows(mpi_windows),
                run: Box::new(|p| mpi_job(p, None).0),
            },
            Subject {
                name: "shmem",
                oracle: shmem_oracle,
                space: CampaignSpace::new(2, shmem_end).with_drain_windows(shmem_windows),
                run: Box::new(|p| shmem_job(p).0),
            },
            Subject {
                // Node 0 hosts the driver — a real SPOF the cluster
                // builder refuses to crash, so the generator must not
                // aim at it.
                name: "spark",
                oracle: spark_oracle,
                space: CampaignSpace::new(3, spark_end).protect(NodeId(0)),
                run: Box::new(|p| spark_job(p).0),
            },
        ]
    }

    /// Harness self-test: plant [`RecoveryBug::RestartUndrained`] and
    /// demand a drain-window crash be caught as a silent corruption.
    /// Returns the shrunk minimal plan description, or an error if the
    /// planted bug escaped every drain-crash campaign.
    pub fn planted_bug_self_test(seed: u64) -> Result<String, String> {
        use hpcbd_check::{generate_plan, shrink_plan, CampaignKind};
        let none = FaultPlan::new(0);
        let (oracle, end, windows) = mpi_job(&none, None);
        if windows.is_empty() {
            return Err("oracle run produced no drain windows".to_string());
        }
        let space = CampaignSpace::new(2, end).with_drain_windows(windows);
        let buggy = |plan: &FaultPlan| {
            classify_run(&oracle, || {
                mpi_job(plan, Some(RecoveryBug::RestartUndrained)).0
            })
        };
        for s in seed..seed + 8 {
            let plan = generate_plan(&space, CampaignKind::DrainCrash, s);
            if !buggy(&plan).is_violation() {
                continue;
            }
            // Caught. Shrink to the minimal plan that still trips it.
            let minimal = shrink_plan(&plan, |p| buggy(p).is_violation());
            // The unplanted runtime must survive the same minimal plan.
            return match classify_run(&oracle, || mpi_job(&minimal, None).0) {
                CampaignOutcome::OracleEqual => Ok(minimal.describe()),
                other => Err(format!(
                    "minimal plan breaks the UNPLANTED runtime too: {other:?}\n{}",
                    minimal.describe()
                )),
            };
        }
        Err("planted RestartUndrained bug escaped 8 drain-crash campaigns".to_string())
    }
}

fn campaign(args: &[String]) -> ExitCode {
    use hpcbd_check::{generate_campaigns, shrink_plan, CampaignTally};
    use hpcbd_simnet::{set_default_execution, Execution};

    let seed: u64 = flag_value(args, "--seed")
        .and_then(|v| parse_u64(&v))
        .unwrap_or(0xFA_0175);
    let count: usize = flag_value(args, "--campaigns")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let plan_out = flag_value(args, "--plan-out");
    println!("conformance campaign: seed={seed:#x} campaigns={count} per runtime+mode");

    // Structured aborts and classified violations unwind through
    // catch_unwind by design; the default hook's backtrace spew for
    // each *expected* panic would drown the verdict lines.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // Self-test first: the gate is only trustworthy if it demonstrably
    // catches a planted recovery bug.
    match campaign_workloads::planted_bug_self_test(seed) {
        Ok(minimal) => {
            println!("  PASS self-test: planted RestartUndrained caught; shrunk minimal plan:");
            for line in minimal.lines() {
                println!("       {line}");
            }
        }
        Err(e) => {
            println!("  FAIL self-test: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut failures = 0u32;
    let mut artifact = String::new();
    for exec in [Execution::Sequential, Execution::Parallel { threads: 4 }] {
        set_default_execution(exec);
        let mode = match exec {
            Execution::Sequential => "sequential",
            Execution::Parallel { .. } => "parallel:4",
        };
        for subject in campaign_workloads::subjects() {
            let campaigns = generate_campaigns(&subject.space, seed, count);
            let mut tally = CampaignTally::default();
            for c in &campaigns {
                let outcome = subject.classify(&c.plan);
                let shrunk = if outcome.is_violation() {
                    let minimal = shrink_plan(&c.plan, |p| subject.classify(p).is_violation());
                    Some(minimal.describe())
                } else {
                    None
                };
                tally.record(c, &outcome, shrunk.as_deref());
            }
            if tally.violations.is_empty() {
                println!(
                    "  PASS {} [{mode}]: {} campaign(s) — {} oracle-equal, {} structured abort(s)",
                    subject.name,
                    tally.total(),
                    tally.oracle_equal,
                    tally.aborts
                );
            } else {
                failures += tally.violations.len() as u32;
                for (kind, vseed, detail) in &tally.violations {
                    println!("  FAIL {} [{mode}] {kind} seed={vseed:#x}:", subject.name);
                    for line in detail.lines() {
                        println!("       {line}");
                    }
                    artifact.push_str(&format!(
                        "runtime: {}\nexecution: {mode}\nkind: {kind}\nseed: {vseed:#x}\n\
                         replay: conformance campaign --seed {vseed:#x} --campaigns 1\n\
                         {detail}\n\n",
                        subject.name
                    ));
                }
            }
        }
    }
    set_default_execution(Execution::Sequential);
    std::panic::set_hook(default_hook);

    if let (Some(path), false) = (&plan_out, artifact.is_empty()) {
        match std::fs::write(path, &artifact) {
            Ok(()) => println!("  minimal fault plan(s) written to {path}"),
            Err(e) => eprintln!("  failed to write {path}: {e}"),
        }
    }
    if failures == 0 {
        println!("conformance campaign: clean");
        ExitCode::SUCCESS
    } else {
        println!("conformance campaign: {failures} violation(s)");
        ExitCode::FAILURE
    }
}

/// Parse decimal or `0x`-prefixed hex.
fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}
