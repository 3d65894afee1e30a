//! Unit probes: each prices one engine operation in isolation (the
//! shapes come from `crates/bench/benches/bench_hotpath.rs`), so that a
//! workload's counted operations can be turned into estimated seconds.
//! Each probe repeats its loop until `budget_s` has passed.

use std::hint::black_box;
use std::time::Instant;

use hpcbd_cluster::Placement;
use hpcbd_core::bench_fileread;
use hpcbd_core::bench_pagerank::{self, PagerankInput};
use hpcbd_simnet::{
    CalendarQueue, MatchSpec, NodeId, OrderKey, Payload, Pid, Sim, SimDuration, SimTime, Topology,
    Transport, Work,
};

use crate::spans::engine_events;

const PINGPONG_ROUNDS: u64 = 2_000;
const SPAWN_PROCS: u32 = 8_192;
const LOOP_OPS: u64 = 20_000;

/// Repeat `f` until the budget is spent; seconds per call.
fn per_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= budget_s {
            return elapsed / calls as f64;
        }
    }
}

pub fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Sliding-window churn of the ready queue: pop the minimum, push a key
/// slightly in the future. Nanoseconds per pop+push at `window` keys.
fn queue_push_pop_ns(window: usize, budget_s: f64) -> f64 {
    let mut q = CalendarQueue::new();
    for i in 0..window {
        q.push(OrderKey {
            time: SimTime(i as u64 * 1000),
            pid: Pid((i % 97) as u32),
            gen: i as u64,
        });
    }
    let ahead = SimDuration::from_nanos(window as u64 * 500);
    const BATCH: u64 = 4_096;
    let per_batch = per_call(budget_s, || {
        for _ in 0..BATCH {
            let min = q.pop_min().expect("the window never empties");
            q.push(OrderKey {
                time: min.time + ahead,
                pid: min.pid,
                gen: min.gen + 1,
            });
        }
    });
    black_box(q.len());
    per_batch / BATCH as f64 * 1e9
}

/// Two processes on two nodes exchanging `PINGPONG_ROUNDS` messages:
/// almost every host cycle is queue/park/wake/token machinery.
fn pingpong(tracing: bool) {
    let mut sim = Sim::new(Topology::comet(2));
    if tracing {
        sim.enable_tracing();
    }
    let tr = Transport::ipoib_socket();
    sim.spawn(NodeId(0), "a", move |ctx| {
        for i in 0..PINGPONG_ROUNDS {
            ctx.send(Pid(1), 1, 64, Payload::value(i), &tr);
            let _ = ctx.recv(MatchSpec::tag(2));
        }
    });
    sim.spawn(NodeId(1), "b", move |ctx| {
        for i in 0..PINGPONG_ROUNDS {
            let _ = ctx.recv(MatchSpec::tag(1));
            ctx.send(Pid(0), 2, 64, Payload::value(i), &tr);
        }
    });
    black_box(sim.run().makespan());
}

/// Host nanoseconds per ping-pong round under whatever engine mode the
/// process environment selects. The parent divides by the sequential
/// events-per-round to get nanoseconds per event.
pub fn pingpong_round_ns(budget_s: f64) -> f64 {
    per_call(budget_s, || pingpong(false)) / PINGPONG_ROUNDS as f64 * 1e9
}

/// Engine events one ping-pong round takes (sequential engine; exact).
fn pingpong_events_per_round() -> f64 {
    hpcbd_simnet::set_selfprof(true);
    hpcbd_simnet::selfprof_reset();
    pingpong(false);
    let events = engine_events();
    hpcbd_simnet::set_selfprof(false);
    events as f64 / PINGPONG_ROUNDS as f64
}

fn trivial_procs() {
    let nodes = 64;
    let mut sim = Sim::new(Topology::comet(nodes));
    for i in 0..SPAWN_PROCS {
        sim.spawn(NodeId(i % nodes), "probe", |_ctx| {});
    }
    black_box(sim.run().makespan());
}

fn single_proc_loop_ns(budget_s: f64, body: fn(&mut hpcbd_simnet::ProcCtx)) -> f64 {
    per_call(budget_s, || {
        let mut sim = Sim::new(Topology::comet(1));
        sim.spawn(NodeId(0), "loop", move |ctx| {
            for _ in 0..LOOP_OPS {
                body(ctx);
            }
        });
        black_box(sim.run().makespan());
    }) / LOOP_OPS as f64
        * 1e9
}

/// Every probe that runs on the sequential engine, as
/// `(metric, value)`. Must be the first thing its process does: the
/// memory probe reads a high-water mark.
pub fn sequential_probes(budget_s: f64) -> Vec<(&'static str, f64)> {
    let hwm_before = vm_hwm_kib();
    trivial_procs();
    let bytes_per_proc = (vm_hwm_kib() - hwm_before) as f64 * 1024.0 / SPAWN_PROCS as f64;
    let spawn_ns = per_call(budget_s, trivial_procs) / SPAWN_PROCS as f64 * 1e9;

    let events_per_round = pingpong_events_per_round();
    let round_ns = pingpong_round_ns(budget_s);
    let traced_round_ns = per_call(budget_s, || pingpong(true)) / PINGPONG_ROUNDS as f64 * 1e9;

    let t0 = Instant::now();
    black_box(bench_pagerank::shmem_pagerank(
        &PagerankInput::paper(),
        Placement::new(8, 16),
    ));
    let shmem_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    black_box(bench_fileread::spark_hdfs_read(
        Placement::new(8, 8),
        512 << 30,
        3,
    ));
    let hdfs_s = t0.elapsed().as_secs_f64();

    vec![
        ("simnet.coro.bytes_per_proc", bytes_per_proc),
        ("simnet.coro.spawn_ns", spawn_ns),
        ("pingpong.events_per_round", events_per_round),
        ("pingpong.round_ns", round_ns),
        ("simnet.engine.handoff_ns", round_ns / events_per_round),
        (
            "simnet.trace.append_ns",
            (traced_round_ns - round_ns) / events_per_round,
        ),
        (
            "simnet.queue.push_pop_ns_w64",
            queue_push_pop_ns(64, budget_s),
        ),
        (
            "simnet.queue.push_pop_ns_w8192",
            queue_push_pop_ns(8192, budget_s),
        ),
        (
            "simnet.device.reserve_ns",
            single_proc_loop_ns(budget_s, |ctx| ctx.disk_write(1 << 16)),
        ),
        (
            "simnet.compute.advance_ns",
            single_proc_loop_ns(budget_s, |ctx| {
                ctx.compute(Work::flops(1.0e6), 1.0);
                ctx.sleep(SimDuration::from_nanos(100));
            }) / 2.0,
        ),
        ("minshmem.pagerank_probe_s", shmem_s),
        ("minhdfs.read_probe_s", hdfs_s),
    ]
}
