//! Fig. 6 — BigDataBench (tuned) PageRank: MPI vs Spark vs Spark-RDMA.
//!
//! With `--comet` the same workloads run at full-machine scale instead:
//! one simulated process per core of the real Comet (1,984 nodes x
//! 24 cores = 47,616 MPI ranks; ~51.6k processes on the Spark side),
//! exercising the coroutine process engine (DESIGN.md §12). `--quick`
//! then trims the power iterations, not the process count.
//! `--nodes N` (1 to 1,984) runs the first N nodes instead, with two
//! sample vertices per rank as at full scale; with `HPCBD_SELFPROF=1`
//! each arm also prints its event count and host cost per event on
//! stderr.

use hpcbd_cluster::Placement;
use hpcbd_core::bench_pagerank::{figure6, figure6_comet_with, PagerankInput};

/// Comet's node count.
const COMET_NODES: u32 = 1984;

fn main() {
    let args = hpcbd_bench::BenchArgs::parse_allowing(&[("--comet", false), ("--nodes", true)]);
    let comet = std::env::args().any(|a| a == "--comet");
    let mut from_nodes = std::env::args().skip_while(|a| a != "--nodes");
    let nodes = match from_nodes.next() {
        None => COMET_NODES,
        Some(_) => match from_nodes.next().unwrap_or_default().parse::<u32>() {
            Ok(n) if comet && (1..=COMET_NODES).contains(&n) => n,
            _ => {
                eprintln!(
                    "error: --nodes takes a node count in 1..={COMET_NODES} and needs --comet"
                );
                std::process::exit(2);
            }
        },
    };
    if comet {
        let placement = Placement::new(nodes, 24);
        if nodes == COMET_NODES {
            hpcbd_bench::banner("Fig. 6 at full-Comet scale (47,616+ simulated processes)");
        } else {
            hpcbd_bench::banner(&format!(
                "Fig. 6 on {nodes} of Comet's {COMET_NODES} nodes ({} MPI ranks)",
                placement.total()
            ));
        }
        let input = PagerankInput::comet_at(placement, args.quick);
        let profile = hpcbd_simnet::selfprof_from_env();
        hpcbd_bench::run_with_report("fig6_comet", &args, || {
            let mut seen = arm_counters();
            let table = figure6_comet_with(&input, placement, |system, procs| {
                if profile {
                    let now = arm_counters();
                    let (events, ns) = (now.0 - seen.0, now.1 - seen.1);
                    eprintln!(
                        "{system}: {procs} processes, {events} events (queue_pop), \
                         host {:.3} s, {:.2} µs/event",
                        ns as f64 * 1e-9,
                        ns as f64 * 1e-3 / events.max(1) as f64
                    );
                    seen = now;
                }
            });
            println!("{table}");
            println!("every rank of the real machine is a simulated process; validation");
            println!("is an O(log p) allreduce checksum rather than a rank-0 gather.");
        });
        return;
    }
    hpcbd_bench::banner("Fig. 6 (BigDataBench PageRank, 1M vertices)");
    let (input, nodes, ppn) = if args.quick {
        (PagerankInput::small(), vec![1u32, 2], 4)
    } else {
        (PagerankInput::paper(), vec![1u32, 2, 4, 8], 16)
    };
    hpcbd_bench::run_with_report("fig6", &args, || {
        let table = figure6(&input, &nodes, ppn);
        println!("{table}");
        println!("shape: MPI near-flat (exchange-bound at this size); tuned Spark");
        println!("scales down with nodes; Spark-RDMA ~= Spark because the persist+");
        println!("co-partitioning keeps shuffle volume low.");
    });
}

/// The self-profiler's `(queue_pop, run_wall_ns)` totals so far.
fn arm_counters() -> (u64, u64) {
    let snap = hpcbd_simnet::selfprof_snapshot();
    let get = |name| snap.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v);
    (get("queue_pop"), get("run_wall_ns"))
}
