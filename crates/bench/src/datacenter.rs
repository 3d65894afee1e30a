//! The "busy datacenter day" scenario: every runtime's workloads
//! replayed concurrently through the multi-tenant scheduler
//! (DESIGN.md §15, `bench_datacenter`).
//!
//! Three sections run back to back on the same cluster spec:
//!
//! 1. **idle** — the open-loop sources trickle jobs onto a mostly-empty
//!    cluster; latency is pure service time, the SLO baseline.
//! 2. **contended** — diurnal query traffic peaks over a heavy batch +
//!    HPC backbone; queueing delay inflates the interactive tail.
//! 3. **contended-nopreempt** — the same offered load with preemption
//!    disabled: the control for what queue-share reclamation buys.
//!
//! Everything is virtual-time deterministic, so the rendered table is
//! byte-identical from run to run — the conformance gate diffs it
//! against its golden.

use hpcbd_sched::{
    factory, quantile_ns, run, QueueSpec, RateProcess, ScenarioOutcome, ScenarioSpec, SourceSpec,
};
use hpcbd_simnet::SimDuration;

/// Offered-load level for a scenario section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Sparse arrivals; no meaningful queueing.
    Idle,
    /// The diurnal rush hour over the batch backbone.
    Rush,
}

/// Cluster and workload scale for one section.
#[derive(Debug, Clone, Copy)]
struct Scale {
    nodes: u32,
    per_node: u32,
    rack_size: u32,
    horizon_s: f64,
    /// Interactive query input bytes (per job).
    query_bytes: u64,
    /// Batch AnswersCount input bytes (per job).
    batch_bytes: u64,
    /// PageRank logical edges (per job).
    edges: u64,
    /// PageRank logical vertices.
    vertices: u64,
    /// MPI gang width.
    ranks: u32,
    /// SHMEM gang width.
    pes: u32,
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale {
            nodes: 4,
            per_node: 4,
            rack_size: 2,
            horizon_s: 600.0,
            query_bytes: 6 << 30,
            batch_bytes: 48 << 30,
            edges: 512 << 20,
            vertices: 4 << 20,
            ranks: 8,
            pes: 4,
        }
    } else {
        Scale {
            nodes: 16,
            per_node: 8,
            rack_size: 4,
            horizon_s: 3600.0,
            query_bytes: 24 << 30,
            batch_bytes: 192 << 30,
            edges: 2048 << 20,
            vertices: 16 << 20,
            ranks: 16,
            pes: 8,
        }
    }
}

/// Build one scenario section. The queue table and job mix are fixed;
/// `load` scales the arrival processes, `preemption` toggles queue-share
/// reclamation.
pub fn scenario(load: Load, preemption: bool, quick: bool) -> ScenarioSpec {
    let s = scale(quick);
    let n = s.nodes;
    // Rush multiplies the offered load asymmetrically: the interactive
    // front-end gets busier but stays near its fair share (a bursty
    // query tier, not a runaway one), while the batch + HPC backbone is
    // oversubscribed well past the cluster — that is the regime where
    // share reclamation matters. Idle keeps the same mix sparse.
    let (fg_boost, bg_boost) = match load {
        Load::Idle => (1.0, 1.0),
        Load::Rush => (8.0, 20.0),
    };
    let sources = vec![
        // Interactive query front-end: Spark AnswersCount, two tenants,
        // diurnal rate (one "day" = the horizon).
        SourceSpec {
            name: "queries",
            process: RateProcess::Diurnal {
                base_per_s: 0.004 * fg_boost,
                peak_per_s: 0.04 * fg_boost,
                period_s: s.horizon_s,
            },
            factory: factory(move |k| {
                hpcbd_minspark::scheduled_answers(
                    "interactive",
                    if k % 2 == 0 { "web" } else { "mobile" },
                    s.query_bytes,
                    4,
                    n,
                )
            }),
        },
        // Batch backbone: Hadoop AnswersCount over the full dump.
        SourceSpec {
            name: "etl",
            process: RateProcess::Poisson {
                rate_per_s: 0.002 * bg_boost,
            },
            factory: factory(move |_| {
                hpcbd_minmapreduce::scheduled_answers("batch", "etl", s.batch_bytes, 8, 2, n)
            }),
        },
        // Batch analytics: Spark PageRank (shuffle-heavy).
        SourceSpec {
            name: "analytics",
            process: RateProcess::Poisson {
                rate_per_s: 0.0015 * bg_boost,
            },
            factory: factory(move |_| {
                hpcbd_minspark::scheduled_pagerank("batch", "science", s.vertices, s.edges, 3, 4, n)
            }),
        },
        // HPC backbone: gang-scheduled MPI PageRank…
        SourceSpec {
            name: "mpi",
            process: RateProcess::Poisson {
                rate_per_s: 0.0015 * bg_boost,
            },
            factory: factory(move |_| {
                hpcbd_minimpi::scheduled_pagerank("hpc", "sim", s.vertices, s.edges, 3, s.ranks)
            }),
        },
        // …SHMEM PageRank…
        SourceSpec {
            name: "shmem",
            process: RateProcess::Poisson {
                rate_per_s: 0.001 * bg_boost,
            },
            factory: factory(move |_| {
                hpcbd_minshmem::scheduled_pagerank("hpc", "sim", s.vertices, s.edges, 3, s.pes)
            }),
        },
        // …and single-node OpenMP scans.
        SourceSpec {
            name: "omp",
            process: RateProcess::Poisson {
                rate_per_s: 0.001 * bg_boost,
            },
            factory: factory(move |_| {
                hpcbd_minomp::scheduled_answers("hpc", "sim", s.query_bytes, 8, 4)
            }),
        },
    ];
    ScenarioSpec {
        name: match (load, preemption) {
            (Load::Idle, _) => "idle",
            (Load::Rush, true) => "contended",
            (Load::Rush, false) => "contended-nopreempt",
        },
        nodes: s.nodes,
        per_node: s.per_node,
        rack_size: s.rack_size,
        horizon_s: s.horizon_s,
        seed: 0xDA7ACE47,
        locality_delay: SimDuration::from_secs(2),
        preemption,
        queues: vec![
            // The interactive weight is deliberately generous: its
            // guaranteed share covers the diurnal peak, so under rush it
            // is the starved beneficiary of preemption, not a victim.
            QueueSpec::new("interactive", 10).slo_ns(30_000_000_000),
            QueueSpec::new("batch", 2),
            QueueSpec::new("hpc", 4),
        ],
        sources,
    }
}

/// Render one section's outcome as a deterministic text table.
pub fn render(out: &ScenarioOutcome, name: &str) -> String {
    let mut s = String::new();
    let ms = |ns: u64| ns as f64 / 1e6;
    s.push_str(&format!(
        "--- {name}: {} jobs offered, makespan {:.1} s, fairness(max/min weighted share) {}\n",
        out.offered,
        out.makespan_ns as f64 / 1e9,
        match out.stats.fairness_x1000 {
            Some(x) => format!("{:.3}", x as f64 / 1000.0),
            None => "n/a".into(),
        },
    ));
    s.push_str(
        "queue        | jobs |   p50 ms |   p99 ms |  p999 ms | wait p99 ms | slo-met | preempt | local/rack/any\n",
    );
    for q in &out.stats.queues {
        s.push_str(&format!(
            "{:<12} | {:>4} | {:>8.1} | {:>8.1} | {:>8.1} | {:>11.1} | {:>7} | {:>7} | {}/{}/{}\n",
            q.name,
            q.completed,
            ms(quantile_ns(&q.latency_ns, 0.5)),
            ms(quantile_ns(&q.latency_ns, 0.99)),
            ms(quantile_ns(&q.latency_ns, 0.999)),
            ms(quantile_ns(&q.wait_ns, 0.99)),
            q.slo_met,
            q.preemptions,
            q.local,
            q.rack,
            q.remote,
        ));
    }
    s
}

/// Run all three sections in order (idle, contended,
/// contended-nopreempt) and return their outcomes with rendered tables.
pub fn run_all(quick: bool) -> Vec<(&'static str, ScenarioOutcome)> {
    [
        scenario(Load::Idle, true, quick),
        scenario(Load::Rush, true, quick),
        scenario(Load::Rush, false, quick),
    ]
    .into_iter()
    .map(|spec| (spec.name, run(&spec)))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sections_complete_all_offered_jobs() {
        let spec = scenario(Load::Idle, true, true);
        let out = run(&spec);
        assert!(out.offered > 0);
        let done: u64 = out.stats.queues.iter().map(|q| q.completed).sum();
        assert_eq!(done, out.offered);
    }

    #[test]
    fn rush_inflates_interactive_tail_latency() {
        let idle = run(&scenario(Load::Idle, true, true));
        let rush = run(&scenario(Load::Rush, true, true));
        let p99 = |o: &ScenarioOutcome| {
            let q = &o.stats.queues[0];
            assert_eq!(q.name, "interactive");
            quantile_ns(&q.latency_ns, 0.99)
        };
        assert!(
            p99(&rush) > p99(&idle),
            "contention must inflate the interactive tail: idle {} rush {}",
            p99(&idle),
            p99(&rush)
        );
    }

    #[test]
    fn preemption_protects_the_interactive_queue() {
        let with = run(&scenario(Load::Rush, true, true));
        let without = run(&scenario(Load::Rush, false, true));
        // Preemption trades batch progress for the interactive tier:
        // more queries inside the SLO and a shorter queueing tail.
        let slo = |o: &ScenarioOutcome| o.stats.queues[0].slo_met;
        assert!(
            slo(&with) >= slo(&without),
            "preemption must not lower interactive SLO attainment: with {} without {}",
            slo(&with),
            slo(&without)
        );
        let wait99 = |o: &ScenarioOutcome| quantile_ns(&o.stats.queues[0].wait_ns, 0.99);
        assert!(
            wait99(&with) <= wait99(&without),
            "preemption must not inflate interactive queueing delay: with {} without {}",
            wait99(&with),
            wait99(&without)
        );
        assert!(
            wait99(&with) > 0,
            "the rush must produce nonzero interactive queueing delay"
        );
        let kills: u64 = with.stats.queues.iter().map(|q| q.kills_sent).sum();
        let kills_off: u64 = without.stats.queues.iter().map(|q| q.kills_sent).sum();
        assert_eq!(kills_off, 0);
        assert!(kills > 0, "the rush must trigger at least one reclaim");
    }
}
