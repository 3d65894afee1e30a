//! Bit-determinism regression tests across the engine's two grant
//! paths.
//!
//! The engine's contract (DESIGN.md §6) is that a run is a pure
//! function of its inputs: same makespans, same per-process finish
//! times and statistics, same benchmark tables, however often it is
//! replayed. A grant reaches a process by one of two paths, and the
//! contract says the choice must not matter: an aligning process that
//! is already globally minimal takes the token itself (the self-grant
//! fast path), every other grant goes through the ready queue and a
//! park/wake round-trip. These tests run whole paper pipelines (Fig. 3,
//! Fig. 6) and an adversarial engine-level workload twice as they are
//! and twice with every alignment forced down the queue path, and
//! compare everything.
//!
//! The forcing perturbation is process-global state
//! ([`hpcbd::simnet::set_perturbation`]), so every test in this binary
//! serializes on one mutex and clears it before releasing the mutex.

use std::sync::Mutex;

use hpcbd::cluster::Placement;
use hpcbd::core::{bench_pagerank, bench_reduce};
use hpcbd::simnet::{
    set_perturbation, MatchSpec, Payload, Perturbation, Sim, SimTime, Topology, Transport, Work,
};

/// Serializes tests that install the process-global perturbation.
static PERTURB_GUARD: Mutex<()> = Mutex::new(());

/// Run `f` twice as it is and twice with the self-grant fast path
/// defeated at every alignment, returning the four outputs in order
/// [plain, plain, queue path, queue path].
fn four_runs<T>(mut f: impl FnMut() -> T) -> Vec<T> {
    let _g = PERTURB_GUARD.lock().unwrap();
    let queue_path = Perturbation {
        seed: 0,
        defeat_fast_path_one_in: 1,
    };
    let mut out = Vec::with_capacity(4);
    for p in [None, None, Some(queue_path.clone()), Some(queue_path)] {
        set_perturbation(p);
        out.push(f());
    }
    set_perturbation(None);
    out
}

#[test]
fn fig3_pipeline_is_bit_identical_across_modes() {
    let tables =
        four_runs(|| bench_reduce::figure3(Placement::new(2, 4), &[1usize, 4096], 3).to_csv());
    assert_eq!(tables[0], tables[1], "replays differ");
    assert_eq!(
        tables[0], tables[2],
        "the queue path differs from the fast path"
    );
    assert_eq!(tables[2], tables[3], "queue-path replays differ");
}

#[test]
fn fig6_pipeline_is_bit_identical_across_modes() {
    let input = bench_pagerank::PagerankInput::small();
    let tables = four_runs(|| bench_pagerank::figure6(&input, &[1u32, 2], 4).to_csv());
    assert_eq!(tables[0], tables[1], "replays differ");
    assert_eq!(
        tables[0], tables[2],
        "the queue path differs from the fast path"
    );
    assert_eq!(tables[2], tables[3], "queue-path replays differ");
}

/// An adversarial mixed workload exercising every visible-operation
/// class: point-to-point messaging with equal-time ties, timeouts,
/// try_recv polling, disk and NFS contention, one-sided transfers, and
/// uneven compute. Compares full per-process reports, not just the
/// makespan.
#[test]
fn engine_reports_are_bit_identical_across_modes() {
    #[derive(Debug, PartialEq)]
    struct RunDigest {
        finishes: Vec<(String, u64)>,
        stats: Vec<hpcbd::simnet::ProcStats>,
        makespan: SimTime,
        dropped: u64,
        results: Vec<u64>,
    }

    fn run_once() -> RunDigest {
        let mut sim = Sim::new(Topology::comet(3));
        let n = 6u32;
        let pids: Vec<_> = (0..n)
            .map(|i| {
                let node = hpcbd::simnet::NodeId(i % 3);
                sim.spawn(node, format!("w{i}"), move |ctx| {
                    let tr = Transport::ipoib_socket();
                    let me = ctx.pid();
                    let right = hpcbd::simnet::Pid((me.0 + 1) % n);
                    let mut acc = 0u64;
                    for round in 0..5u64 {
                        // Uneven compute: different per-process cost so
                        // clocks interleave; ring exchange creates ties.
                        ctx.compute(Work::new(1.0 + me.0 as f64 + round as f64, 64.0), 1.0);
                        ctx.send(right, 7, 128 + 64 * round, Payload::value(round), &tr);
                        let m = ctx.recv(MatchSpec::tag(7));
                        if let Payload::Value(v) = &m.payload {
                            acc += v.downcast_ref::<u64>().unwrap() + m.bytes;
                        }
                        if me.0 % 2 == 0 {
                            ctx.disk_write(1 << 16);
                        } else {
                            ctx.nfs_read(1 << 14);
                        }
                        if ctx.try_recv(MatchSpec::tag(99)).is_some() {
                            acc += 1_000_000;
                        }
                        ctx.one_sided_transfer(
                            hpcbd::simnet::NodeId((me.0 + 1) % 3),
                            256,
                            &Transport::rdma_verbs(),
                            1,
                        );
                    }
                    // A timeout that always fires (nobody sends tag 55).
                    assert!(ctx
                        .recv_timeout(
                            MatchSpec::tag(55),
                            hpcbd::simnet::SimDuration::from_micros(50)
                        )
                        .is_err());
                    acc
                })
            })
            .collect();
        let mut report = sim.run();
        RunDigest {
            finishes: report
                .procs
                .iter()
                .map(|p| (p.name.clone(), p.finish.nanos()))
                .collect(),
            stats: report.procs.iter().map(|p| p.stats.clone()).collect(),
            makespan: report.makespan(),
            dropped: report.dropped_msgs,
            results: pids.iter().map(|&p| report.result::<u64>(p)).collect(),
        }
    }

    let runs = four_runs(run_once);
    assert_eq!(runs[0], runs[1], "replays differ");
    assert_eq!(
        runs[0], runs[2],
        "the queue path differs from the fast path"
    );
    assert_eq!(runs[2], runs[3], "queue-path replays differ");
}

/// Faulty runs must be exactly as deterministic as clean ones: the same
/// [`hpcbd::simnet::FaultPlan`] — a node crash, a straggler interval, a
/// degraded link, and heavy message drops all at once — replayed over
/// both grant paths must yield byte-identical traces (including the
/// injected `Fault` events) and identical per-process statistics.
#[test]
fn faulty_runs_are_bit_identical_across_modes() {
    use hpcbd::simnet::{FaultPlan, NodeId, Pid, SimDuration};

    #[derive(Debug, PartialEq)]
    struct RunDigest {
        trace_json: String,
        stats: Vec<hpcbd::simnet::ProcStats>,
        makespan: SimTime,
        dropped: u64,
        results: Vec<u64>,
    }

    fn run_once() -> RunDigest {
        let mut sim = Sim::new(Topology::comet(3));
        let trace = sim.enable_tracing();
        sim.set_fault_plan(
            FaultPlan::new(99)
                .crash_node(NodeId(1), SimTime(40_000_000))
                .slow_node(NodeId(2), SimTime(0), SimTime(u64::MAX), 3.0)
                .degrade_link(NodeId(0), NodeId(2), SimTime(0), SimTime(u64::MAX), 2.5)
                .drop_messages(100_000),
        );
        // A sink on node 1 that dies when its node's crash hits; workers
        // fire-and-forget to it (messages to the dead sink are dropped by
        // the engine, never blocking the senders).
        let sink = sim.spawn(NodeId(1), "sink".to_string(), move |ctx| {
            let crash = ctx.node_crash_time();
            let mut seen = 0u64;
            while let Ok(m) = ctx.recv_deadline(MatchSpec::tag(9), crash) {
                seen += m.bytes;
            }
            seen
        });
        let n = 4u32;
        let workers: Vec<_> = (0..n)
            .map(|i| {
                let node = hpcbd::simnet::NodeId(i % 3);
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
                })
            })
            .collect();
        let mut report = sim.run();
        let names: Vec<String> = report.procs.iter().map(|p| p.name.clone()).collect();
        let fault_spans = trace
            .sorted_events()
            .iter()
            .filter(|e| matches!(e.kind, hpcbd::simnet::EventKind::Fault(_)))
            .count();
        assert!(
            fault_spans > 0,
            "the plan must actually inject faults into the trace"
        );
        RunDigest {
            trace_json: trace.to_chrome_json(&names),
            stats: report.procs.iter().map(|p| p.stats.clone()).collect(),
            makespan: report.makespan(),
            dropped: report.dropped_msgs,
            results: workers.iter().map(|&p| report.result::<u64>(p)).collect(),
        }
    }

    let runs = four_runs(run_once);
    assert!(
        runs[0].stats.iter().any(|s| s.fault_events > 0),
        "fault statistics must be populated"
    );
    assert_eq!(runs[0], runs[1], "replays differ");
    assert_eq!(
        runs[0], runs[2],
        "the queue path differs from the fast path"
    );
    assert_eq!(runs[2], runs[3], "queue-path replays differ");
}

/// The observability layer must not disturb determinism, and its own
/// output must be deterministic: capturing a Fig. 6 quick run and
/// rendering the full [`hpcbd::obs::RunReport`] (phase attribution,
/// causal critical path, category breakdowns) must produce byte-identical
/// JSON over both grant paths.
#[test]
fn run_reports_are_byte_identical_across_modes() {
    fn run_once() -> String {
        hpcbd::simnet::begin_capture();
        let input = bench_pagerank::PagerankInput::small();
        let _ = bench_pagerank::figure6(&input, &[2u32], 4);
        let captures = hpcbd::simnet::end_capture();
        assert!(
            !captures.is_empty(),
            "figure6 must produce at least one captured run"
        );
        hpcbd::obs::RunReport::from_captures("fig6", true, &captures).to_json()
    }

    let reports = four_runs(run_once);
    assert_eq!(reports[0], reports[1], "replayed reports differ");
    assert_eq!(
        reports[0], reports[2],
        "the queue-path report differs from the fast-path one"
    );
    assert_eq!(reports[2], reports[3], "queue-path reports differ");
    // The report must actually contain phase attribution, not an empty
    // shell: PageRank iterations and runtime collectives are annotated.
    assert!(
        reports[0].contains("pagerank/iter/*"),
        "per-iteration spans missing from report"
    );
}
