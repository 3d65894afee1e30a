//! Criterion microbenchmarks for the engine's host hot path.
//!
//! Complements `paper_benches` (whole-artifact wall clock) with the
//! individual mechanisms the perf work targets: the calendar ready
//! queue vs the `BinaryHeap` it replaced, raw message-handoff cost
//! through the engine in both execution modes, the tracing overhead of
//! per-process buffering, the memoized collective selection, and the
//! scheduler's slot-ledger queries and dispatch round.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hpcbd_simnet::{
    allreduce_algo, set_default_execution, CalendarQueue, Execution, MatchSpec, NodeId, OrderKey,
    Payload, Pid, Sim, SimTime, Topology, Transport, Work,
};

/// Queue churn modeling the engine's access pattern: a sliding window of
/// `window` keys, each pop followed by a push slightly in the future.
fn queue_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_churn");
    g.sample_size(20);
    for window in [64usize, 4096] {
        let keys: Vec<OrderKey> = (0..window)
            .map(|i| OrderKey {
                time: SimTime(i as u64 * 1000),
                pid: Pid((i % 97) as u32),
                gen: i as u64,
            })
            .collect();
        g.bench_function(&format!("calendar_{window}"), |b| {
            b.iter(|| {
                let mut q = CalendarQueue::new();
                for &k in &keys {
                    q.push(k);
                }
                for i in 0..window * 4 {
                    let min = q.pop_min().unwrap();
                    q.push(OrderKey {
                        time: min.time + hpcbd_simnet::SimDuration::from_nanos(window as u64 * 500),
                        pid: min.pid,
                        gen: min.gen + 1,
                    });
                    black_box(i);
                }
                while q.pop_min().is_some() {}
            })
        });
        g.bench_function(&format!("binary_heap_{window}"), |b| {
            b.iter(|| {
                let mut q: BinaryHeap<Reverse<OrderKey>> = BinaryHeap::new();
                for &k in &keys {
                    q.push(Reverse(k));
                }
                for i in 0..window * 4 {
                    let Reverse(min) = q.pop().unwrap();
                    q.push(Reverse(OrderKey {
                        time: min.time + hpcbd_simnet::SimDuration::from_nanos(window as u64 * 500),
                        pid: min.pid,
                        gen: min.gen + 1,
                    }));
                    black_box(i);
                }
                while q.pop().is_some() {}
            })
        });
    }
    g.finish();
}

/// Raw engine handoff cost: a 2-process ping-pong, 200 rounds — almost
/// every cycle is align/dispatch/park/wake machinery.
fn pingpong(exec: Execution, tracing: bool) -> u64 {
    set_default_execution(exec);
    let mut sim = Sim::new(Topology::comet(2));
    if tracing {
        sim.enable_tracing();
    }
    let tr = Transport::ipoib_socket();
    let a = sim.spawn(NodeId(0), "a", {
        move |ctx| {
            let peer = Pid(1);
            for i in 0..200u64 {
                ctx.send(peer, 1, 64, Payload::value(i), &tr);
                let _ = ctx.recv(MatchSpec::tag(2));
            }
            ctx.now().nanos()
        }
    });
    let _b = sim.spawn(NodeId(1), "b", {
        move |ctx| {
            let peer = Pid(0);
            for i in 0..200u64 {
                let _ = ctx.recv(MatchSpec::tag(1));
                ctx.send(peer, 2, 64, Payload::value(i), &tr);
            }
        }
    });
    let mut report = sim.run();
    report.result::<u64>(a)
}

/// Grants issued by a process that keeps running: 16 processes on 4
/// nodes, each looping disk write, sleep and a few nanoseconds of
/// compute. Every `release_turn` hands the token to the next process
/// while the releasing one runs on to its next operation — the shape
/// the two-process ping-pong never produces (both of its grants come
/// from a process about to park), and the one that decides what a
/// threaded engine costs per event on the datacenter day. One run is
/// 3,200 events (16 processes x 100 rounds x 2 visible operations).
fn fan_release(exec: Execution) -> u64 {
    set_default_execution(exec);
    let mut sim = Sim::new(Topology::comet(4));
    for i in 0..16u32 {
        sim.spawn(NodeId(i % 4), format!("w{i}"), move |ctx| {
            for _ in 0..100 {
                ctx.disk_write(4096);
                ctx.sleep(hpcbd_simnet::SimDuration::from_nanos(500));
                ctx.compute(Work::flops(10.0), 1.0);
            }
        });
    }
    sim.run().makespan().nanos()
}

fn engine_handoff(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_handoff");
    g.sample_size(20);
    for (name, exec) in [
        ("fan_release_sequential", Execution::Sequential),
        ("fan_release_parallel", Execution::Parallel { threads: 2 }),
    ] {
        g.bench_function(name, |b| b.iter(|| black_box(fan_release(exec))));
    }
    g.bench_function("pingpong_sequential", |b| {
        b.iter(|| black_box(pingpong(Execution::Sequential, false)))
    });
    g.bench_function("pingpong_parallel", |b| {
        b.iter(|| black_box(pingpong(Execution::Parallel { threads: 2 }, false)))
    });
    set_default_execution(Execution::Sequential);
    g.finish();
}

/// Tracing overhead: the same workload with the per-process trace
/// buffers on vs off. The delta is the cost the buffering must keep
/// near zero.
fn tracing_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracing_overhead");
    g.sample_size(20);
    g.bench_function("pingpong_untraced", |b| {
        b.iter(|| black_box(pingpong(Execution::Sequential, false)))
    });
    g.bench_function("pingpong_traced", |b| {
        b.iter(|| black_box(pingpong(Execution::Sequential, true)))
    });
    g.finish();
}

/// Telemetry overhead: the costs the live-telemetry subsystem must
/// keep invisible. `pingpong_metrics_off` is the plain uncaptured hot
/// path (one resolved `bool` per would-be metric call; must match
/// `engine_handoff/pingpong_sequential`). The captured pair prices the
/// sampler's collection cost against an identical capture without it,
/// and the selfprof pair prices the host profiler's relaxed counters.
fn telemetry_overhead(c: &mut Criterion) {
    fn captured_pingpong(interval: Option<u64>) -> u64 {
        hpcbd_simnet::set_telemetry_interval(interval);
        hpcbd_simnet::begin_capture();
        let r = pingpong(Execution::Sequential, true);
        let caps = hpcbd_simnet::end_capture();
        hpcbd_simnet::set_telemetry_interval(None);
        black_box(caps.len());
        r
    }
    let mut g = c.benchmark_group("telemetry_overhead");
    g.sample_size(20);
    g.bench_function("pingpong_metrics_off", |b| {
        hpcbd_simnet::set_telemetry_interval(None);
        b.iter(|| black_box(pingpong(Execution::Sequential, false)))
    });
    g.bench_function("pingpong_captured_no_telemetry", |b| {
        b.iter(|| black_box(captured_pingpong(None)))
    });
    g.bench_function("pingpong_captured_telemetry", |b| {
        b.iter(|| black_box(captured_pingpong(Some(1_000))))
    });
    g.bench_function("pingpong_selfprof_on", |b| {
        hpcbd_simnet::selfprof_reset();
        hpcbd_simnet::set_selfprof(true);
        b.iter(|| black_box(pingpong(Execution::Sequential, false)));
        hpcbd_simnet::set_selfprof(false);
    });
    set_default_execution(Execution::Sequential);
    g.finish();
}

/// Compute-only segments: the self-grant fast path should make a pure
/// compute/sleep loop nearly queue-free.
fn compute_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("compute_loop");
    g.sample_size(20);
    g.bench_function("sleep_chain_1proc", |b| {
        b.iter(|| {
            set_default_execution(Execution::Sequential);
            let mut sim = Sim::new(Topology::comet(1));
            sim.spawn(NodeId(0), "w", |ctx| {
                for _ in 0..500 {
                    ctx.compute(Work::flops(1.0e6), 1.0);
                    ctx.sleep(hpcbd_simnet::SimDuration::from_nanos(100));
                }
                ctx.now().nanos()
            });
            black_box(sim.run().makespan())
        })
    });
    g.finish();
}

/// Memoized collective selection: repeated lookups of the same
/// `(comm, bytes)` key, as PageRank's per-iteration allreduce issues.
fn collective_memo(c: &mut Criterion) {
    let mut g = c.benchmark_group("collective_memo");
    g.sample_size(50);
    g.bench_function("allreduce_algo_repeat", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..1000 {
                acc += allreduce_algo(black_box(64), black_box(8 << 20)) as usize;
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// The scheduler's control plane in isolation. The ledger queries are
/// what `dispatch_round` asks once per pending task, on a full ledger
/// (every counter zero: the early-out) and a half-full one (first half
/// of the slots busy: the search has to walk to the first free rack).
/// The `backlog200` pair prices one dispatch round against a 200-task
/// locality-seeking backlog on a full 128-slot cluster: the second run
/// adds 100 one-task submissions, each of which makes the scheduler
/// re-plan over the whole backlog, so (pokes100 - pokes0) / 100 is one
/// round plus one submit message.
fn sched_ledger(c: &mut Criterion) {
    use hpcbd_sched::{JobSpec, QueueSpec, ScenarioSpec, Segment, SlotLedger, TaskSpec, Wave};

    const QUERIES: u32 = 10_000;
    let mut g = c.benchmark_group("sched_ledger");
    g.sample_size(20);
    for nodes in [16u32, 2048] {
        for (fill, busy_nodes) in [("full", nodes), ("half", nodes / 2)] {
            let mut l = SlotLedger::new(nodes, 8, 4);
            for s in 0..busy_nodes * 8 {
                l.reserve(s, (s % 4) as usize, true, s as u64);
            }
            let slots = nodes * 8;
            let probe = NodeId(nodes / 2);
            g.bench_function(&format!("free_any_x10k_{slots}_{fill}"), |b| {
                b.iter(|| {
                    (0..QUERIES)
                        .filter_map(|_| black_box(&l).free_any())
                        .count()
                })
            });
            g.bench_function(&format!("free_in_rack_x10k_{slots}_{fill}"), |b| {
                b.iter(|| {
                    (0..QUERIES)
                        .filter_map(|_| black_box(&l).free_in_rack(black_box(probe)))
                        .count()
                })
            });
            g.bench_function(&format!("usage_x10k_{slots}_{fill}"), |b| {
                b.iter(|| {
                    (0..QUERIES)
                        .map(|q| black_box(&l).usage(q as usize % 4))
                        .sum::<u32>()
                })
            });
        }
    }

    fn job(tasks: Vec<TaskSpec>) -> JobSpec {
        JobSpec {
            template: "bench/compute",
            queue: "only",
            tenant: "bench",
            waves: vec![Wave { tasks, gang: false }],
        }
    }
    let task = |ms: u64, preferred: Option<NodeId>| {
        let seg: Segment = std::sync::Arc::new(move |ctx, _env| {
            ctx.compute(Work::flops(3.0e6 * ms as f64), 1.0);
        });
        TaskSpec {
            segments: vec![seg],
            preferred,
            preemptable: true,
        }
    };
    let spec = ScenarioSpec {
        name: "backlog",
        nodes: 16,
        per_node: 8,
        rack_size: 4,
        horizon_s: 1.0,
        seed: 1,
        locality_delay: hpcbd_simnet::SimDuration::from_millis(5),
        preemption: false,
        queues: vec![QueueSpec::new("only", 1)],
        sources: vec![],
    };
    set_default_execution(Execution::Sequential);
    for pokes in [0u64, 100] {
        // The cluster fills at t = 0 and stays full for a virtual second;
        // the 200-task backlog and the pokes all arrive inside it, past
        // both locality-delay levels so every pending task asks all
        // three of free_on / free_in_rack / free_any.
        let mut trace = vec![
            (0, job(vec![task(1000, None); 128])),
            (
                1_000_000,
                job((0..200).map(|i| task(1, Some(NodeId(i % 16)))).collect()),
            ),
        ];
        trace.extend((0..pokes).map(|k| (20_000_000 + k * 1_000_000, job(vec![task(1, None)]))));
        g.bench_function(&format!("backlog200_pokes{pokes}"), |b| {
            b.iter(|| black_box(hpcbd_sched::run_trace(&spec, trace.clone()).makespan_ns))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    queue_churn,
    engine_handoff,
    tracing_overhead,
    telemetry_overhead,
    compute_loop,
    collective_memo,
    sched_ledger
);
criterion_main!(benches);
