//! `hpcbd-simnet` — a deterministic virtual-time cluster simulator.
//!
//! This crate is the substrate of the `hpcbd` study: a conservative
//! discrete-event engine on which mini implementations of MPI, OpenMP,
//! OpenSHMEM, HDFS, Hadoop MapReduce and Spark all execute. Simulated
//! processes are stackful coroutines running *real* Rust code on small
//! lazily-paged stacks (a full 48k-process Comet fits on a laptop); the
//! time they are charged comes from explicit cost models for computation
//! ([`Work`]/[`RuntimeClass`]), network transports ([`Transport`]), and
//! storage devices ([`topology::DiskSpec`]).
//!
//! Design (see `DESIGN.md` §2 at the repository root):
//!
//! * **Ordered commits.** Simulation-visible operations are totally
//!   ordered: the process performing one always holds the commit token and
//!   has the minimum virtual clock among runnable processes. This makes
//!   every schedule, and therefore every reported time, reproducible
//!   bit-for-bit. Under the default [`Execution::Sequential`] mode the
//!   token doubles as a baton — one process runs at a time; under
//!   [`Execution::Parallel`] the compute segments between commits overlap
//!   across real cores while the commit order (and every virtual-time
//!   result) stays bit-identical (see [`parallel`]).
//! * **Lazy conservatism.** Local computation (`compute`, `advance`)
//!   advances the private clock without synchronization. Any operation with
//!   global effect (message delivery, NIC/disk reservation) first yields
//!   until the process is globally minimal, so shared resources are always
//!   reserved in virtual-time order.
//! * **Logical sizes.** Messages and files carry a logical byte size that
//!   drives every cost, decoupled from the (optionally much smaller) real
//!   Rust payload used for correctness.
//!
//! # Example
//!
//! ```
//! use hpcbd_simnet::{MatchSpec, Payload, Sim, Topology, Transport};
//!
//! let mut sim = Sim::new(Topology::comet(2));
//! let ping = sim.spawn(hpcbd_simnet::NodeId(0), "ping", |ctx| {
//!     ctx.send(hpcbd_simnet::Pid(1), 7, 1024, Payload::Empty, &Transport::rdma_verbs());
//! });
//! let pong = sim.spawn(hpcbd_simnet::NodeId(1), "pong", |ctx| {
//!     let m = ctx.recv(MatchSpec::tag(7));
//!     (m.bytes, ctx.now())
//! });
//! let mut report = sim.run();
//! let (bytes, t) = report.result::<(u64, hpcbd_simnet::SimTime)>(pong);
//! assert_eq!(bytes, 1024);
//! assert!(t > hpcbd_simnet::SimTime::ZERO);
//! let _ = ping;
//! ```

#![warn(missing_docs)]

pub mod abort;
pub mod ckpt;
mod coro;
pub mod cost;
pub mod dataset;
pub mod engine;
pub mod error;
pub mod faults;
pub mod fs;
pub mod hash;
pub mod job;
pub mod message;
pub mod observe;
pub mod parallel;
pub mod perturb;
pub mod queue;
pub mod selfprof;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod topology;
pub mod trace;
pub mod transport;

pub use abort::{StructuredAbort, STRUCTURED_ABORT_MARKER};
pub use ckpt::{CheckpointMode, Drain, DrainSchedule, FaultPolicy};
pub use cost::{
    allreduce_algo, collective_memo_stats, AllreduceAlgo, RuntimeClass, Work,
    ALLREDUCE_RING_THRESHOLD,
};
pub use dataset::InputFormat;
pub use engine::{Pid, ProcCtx, ProcReport, Sim, SimReport, World};
pub use error::{DeadlockNote, RecvTimeout};
pub use faults::{FaultAtom, FaultEvent, FaultPlan, LinkFault};
pub use fs::{FileEntry, Mount, SimFs};
pub use hash::{det_hash, partition_of, DetHasher, DetMap};
pub use job::{JobChannel, LaunchEnv, TaskClosure, JOB_TAG_BASE};
pub use message::{MatchSpec, Message, Payload, Tag};
pub use observe::{begin_capture, capture_active, end_capture, RunCapture};
pub use parallel::{default_execution, set_default_execution, Execution};
pub use perturb::{current_perturbation, set_perturbation, Perturbation};
pub use queue::{CalendarQueue, OrderKey};
pub use selfprof::{
    selfprof_enabled, selfprof_from_env, selfprof_reset, selfprof_snapshot, set_selfprof, HostOp,
    HOST_OP_NAMES,
};
pub use stats::ProcStats;
pub use telemetry::{
    parse_telemetry_interval, set_telemetry_interval, telemetry_from_env_value, telemetry_interval,
    MetricOp, MetricPoint, DEFAULT_TELEMETRY_INTERVAL_NS,
};
pub use time::{SimDuration, SimTime};
pub use topology::{DiskSpec, Node, NodeId, NodeSpec, Topology};
pub use trace::{json_escape, json_escape_into, EventKind, Micros, Trace, TraceEvent};
pub use transport::Transport;

/// Shim: the `(commits, rollbacks)` totals of the removed speculative
/// mode, which `benchmark/src/cell.rs` still reads. Goes once the
/// benchmark drops its `simnet.speculate.*` rows (ROADMAP item 2).
pub fn spec_counters_take() -> (u64, u64) {
    (0, 0)
}

#[cfg(test)]
mod engine_tests {
    use super::*;

    fn two_node_sim() -> Sim {
        Sim::new(Topology::comet(2))
    }

    #[test]
    fn background_disk_write_overlaps_compute_and_serializes_on_device() {
        let mut sim = two_node_sim();
        let p = sim.spawn(NodeId(0), "drainer", |ctx| {
            let t0 = ctx.now();
            let done = ctx.disk_write_background(256 << 20);
            let t1 = ctx.now();
            // Issuing the drain costs the caller nothing: it overlaps.
            assert_eq!(t0, t1, "background write must not block the caller");
            assert!(done > t0, "the device still takes real time");
            // A foreground write issued while the drain is in flight
            // queues behind it on the same device.
            ctx.disk_write(1);
            assert!(
                ctx.now() > done,
                "foreground I/O must serialize after the in-flight drain: \
                 {} vs drain done {done}",
                ctx.now()
            );
            done
        });
        let mut report = sim.run();
        let done = report.result::<SimTime>(p);
        assert!(done > SimTime::ZERO);
    }

    #[test]
    fn single_process_compute_advances_clock() {
        let mut sim = two_node_sim();
        let p = sim.spawn(NodeId(0), "solo", |ctx| {
            ctx.compute(Work::flops(3.0e9), 1.0); // 1 second at 3 GFlop/s
            ctx.now()
        });
        let mut report = sim.run();
        let t = report.result::<SimTime>(p);
        assert_eq!(t.nanos(), 1_000_000_000);
        assert_eq!(report.makespan().nanos(), 1_000_000_000);
    }

    #[test]
    fn ping_pong_round_trip_time_is_symmetric() {
        let mut sim = two_node_sim();
        let tr = Transport::rdma_verbs();
        let _a = sim.spawn(NodeId(0), "a", move |ctx| {
            ctx.send(Pid(1), 1, 8, Payload::Empty, &tr);
            let m = ctx.recv(MatchSpec::tag(2));
            assert_eq!(m.src, Pid(1));
            ctx.now()
        });
        let _b = sim.spawn(NodeId(1), "b", move |ctx| {
            let m = ctx.recv(MatchSpec::tag(1));
            assert_eq!(m.src, Pid(0));
            ctx.send(Pid(0), 2, 8, Payload::Empty, &tr);
            ctx.now()
        });
        let report = sim.run();
        // One 8-byte RDMA message each way: makespan well under 100us.
        assert!(report.makespan() < SimTime(100_000));
        assert!(report.makespan() > SimTime::ZERO);
    }

    #[test]
    fn determinism_across_runs() {
        fn run_once() -> (u64, Vec<u64>) {
            let mut sim = Sim::new(Topology::comet(4));
            let tr = Transport::ipoib_socket();
            let n = 8u32;
            for i in 0..n {
                sim.spawn(NodeId(i % 4), format!("w{i}"), move |ctx| {
                    // Everyone chatters with everyone in a ring.
                    let next = Pid((i + 1) % n);
                    ctx.compute(Work::flops(1.0e6 * (i as f64 + 1.0)), 1.0);
                    ctx.send(next, 9, 1 << (10 + (i % 4)), Payload::Empty, &tr);
                    let m = ctx.recv(MatchSpec::tag(9));
                    ctx.disk_write(1 << 20);
                    m.bytes
                });
            }
            let report = sim.run();
            let finishes = report.procs.iter().map(|p| p.finish.nanos()).collect();
            (report.makespan().nanos(), finishes)
        }
        let first = run_once();
        for _ in 0..3 {
            assert_eq!(run_once(), first, "simulation must be deterministic");
        }
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_sequential() {
        fn run_once(exec: Execution) -> (u64, Vec<u64>, Vec<ProcStats>) {
            let mut sim = Sim::new(Topology::comet(4));
            sim.set_execution(exec);
            let tr = Transport::ipoib_socket();
            let n = 8u32;
            for i in 0..n {
                sim.spawn(NodeId(i % 4), format!("w{i}"), move |ctx| {
                    let next = Pid((i + 1) % n);
                    for round in 0..4u64 {
                        ctx.compute(Work::flops(1.0e5 * (i as f64 + round as f64 + 1.0)), 1.0);
                        ctx.send(next, 9, 1 << (10 + (i % 4)), Payload::Empty, &tr);
                        let m = ctx.recv(MatchSpec::tag(9));
                        ctx.disk_write(m.bytes);
                    }
                    ctx.one_sided_transfer(NodeId((i + 1) % 4), 4096, &Transport::rdma_verbs(), 2);
                });
            }
            let report = sim.run();
            (
                report.makespan().nanos(),
                report.procs.iter().map(|p| p.finish.nanos()).collect(),
                report.procs.iter().map(|p| p.stats.clone()).collect(),
            )
        }
        let seq = run_once(Execution::Sequential);
        for threads in [1, 2, 8] {
            assert_eq!(
                run_once(Execution::Parallel { threads }),
                seq,
                "parallel({threads}) diverged from sequential"
            );
        }
    }

    #[test]
    fn execution_mode_is_reported_by_builder() {
        let mut sim = two_node_sim();
        assert_eq!(sim.execution(), Execution::Sequential);
        sim.set_execution(Execution::Parallel { threads: 3 });
        assert_eq!(sim.execution(), Execution::Parallel { threads: 3 });
    }

    #[test]
    fn nic_serializes_concurrent_transfers() {
        // Two processes on node0 blast large messages to node1 at the same
        // virtual time: the shared sender NIC must serialize them, so the
        // second arrival is roughly one transfer later than the first.
        let mut sim = two_node_sim();
        let tr = Transport::rdma_verbs();
        let bytes = 64u64 << 20; // 64 MiB => ~10ms on 6.4 GB/s
        for i in 0..2 {
            sim.spawn(NodeId(0), format!("s{i}"), move |ctx| {
                ctx.send(Pid(2), 5, bytes, Payload::Empty, &tr);
            });
        }
        let sink = sim.spawn(NodeId(1), "sink", |ctx| {
            let m1 = ctx.recv(MatchSpec::tag(5));
            let m2 = ctx.recv(MatchSpec::tag(5));
            (m1.arrival, m2.arrival)
        });
        let mut report = sim.run();
        let (a1, a2) = report.result::<(SimTime, SimTime)>(sink);
        let xfer = Transport::rdma_verbs().wire_time(bytes).nanos() as i64;
        let gap = a2.nanos() as i64 - a1.nanos() as i64;
        assert!(
            (gap - xfer).abs() < xfer / 100,
            "gap {gap} should be ~one transfer {xfer}"
        );
    }

    #[test]
    fn intra_node_messages_skip_the_nic() {
        let mut sim = two_node_sim();
        let tr = Transport::shared_memory();
        let _s = sim.spawn(NodeId(0), "s", move |ctx| {
            ctx.send(Pid(1), 1, 4096, Payload::Empty, &tr);
        });
        let r = sim.spawn(NodeId(0), "r", move |ctx| {
            ctx.recv(MatchSpec::tag(1));
            ctx.now()
        });
        let mut report = sim.run();
        let t = report.result::<SimTime>(r);
        assert!(t < SimTime(10_000), "shm message took {t}");
    }

    #[test]
    fn disk_contention_serializes_readers() {
        let mut sim = two_node_sim();
        let gb = 1u64 << 30;
        for i in 0..4 {
            sim.spawn(NodeId(0), format!("r{i}"), move |ctx| {
                ctx.disk_read(gb);
                ctx.now()
            });
        }
        let report = sim.run();
        // 4 GiB at 900 MB/s is ~4.77s; with serialization the last reader
        // finishes at the full 4-GiB mark, not at the 1-GiB mark.
        let makespan = report.makespan().as_secs_f64();
        assert!(makespan > 4.5 && makespan < 5.2, "makespan {makespan}");
    }

    #[test]
    fn recv_timeout_fires_without_sender() {
        let mut sim = two_node_sim();
        let p = sim.spawn(NodeId(0), "waiter", |ctx| {
            let r = ctx.recv_timeout(MatchSpec::tag(1), SimDuration::from_millis(5));
            (r.is_err(), ctx.now())
        });
        // A second process keeps the sim alive past the deadline.
        sim.spawn(NodeId(1), "bystander", |ctx| {
            ctx.sleep(SimDuration::from_millis(10));
        });
        let mut report = sim.run();
        let (timed_out, t) = report.result::<(bool, SimTime)>(p);
        assert!(timed_out);
        assert_eq!(t.nanos(), 5_000_000);
    }

    #[test]
    fn recv_timeout_receives_when_message_beats_deadline() {
        let mut sim = two_node_sim();
        let tr = Transport::rdma_verbs();
        let _s = sim.spawn(NodeId(0), "s", move |ctx| {
            ctx.sleep(SimDuration::from_millis(1));
            ctx.send(Pid(1), 3, 64, Payload::Empty, &tr);
        });
        let r = sim.spawn(NodeId(1), "r", |ctx| {
            ctx.recv_timeout(MatchSpec::tag(3), SimDuration::from_millis(100))
                .map(|m| m.bytes)
                .ok()
        });
        let mut report = sim.run();
        assert_eq!(report.result::<Option<u64>>(r), Some(64));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected_and_reported() {
        let mut sim = two_node_sim();
        sim.spawn(NodeId(0), "a", |ctx| {
            ctx.recv(MatchSpec::tag(1));
        });
        sim.spawn(NodeId(1), "b", |ctx| {
            ctx.recv(MatchSpec::tag(2));
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn process_panic_propagates_with_message() {
        let mut sim = two_node_sim();
        sim.spawn(NodeId(0), "bad", |_ctx| panic!("boom"));
        sim.spawn(NodeId(1), "waits-forever", |ctx| {
            ctx.recv(MatchSpec::tag(1));
        });
        sim.run();
    }

    #[test]
    fn messages_to_finished_processes_are_dropped() {
        let mut sim = two_node_sim();
        let tr = Transport::rdma_verbs();
        sim.spawn(NodeId(0), "quits", |_ctx| {});
        sim.spawn(NodeId(1), "talker", move |ctx| {
            ctx.sleep(SimDuration::from_millis(1));
            ctx.send(Pid(0), 1, 8, Payload::Empty, &tr);
        });
        let report = sim.run();
        assert_eq!(report.dropped_msgs, 1);
    }

    #[test]
    fn value_payloads_share_without_copy() {
        let mut sim = two_node_sim();
        let tr = Transport::rdma_verbs();
        let big = std::sync::Arc::new((0..1000u64).collect::<Vec<_>>());
        let big2 = big.clone();
        sim.spawn(NodeId(0), "s", move |ctx| {
            ctx.send(Pid(1), 1, 8000, Payload::Value(big2), &tr);
        });
        let r = sim.spawn(NodeId(1), "r", |ctx| {
            let m = ctx.recv(MatchSpec::tag(1));
            let v = m.expect_value::<Vec<u64>>();
            v.iter().sum::<u64>()
        });
        let mut report = sim.run();
        assert_eq!(report.result::<u64>(r), 999 * 1000 / 2);
    }

    #[test]
    fn wait_time_accounts_blocking() {
        let mut sim = two_node_sim();
        let tr = Transport::rdma_verbs();
        sim.spawn(NodeId(0), "slow-sender", move |ctx| {
            ctx.sleep(SimDuration::from_millis(50));
            ctx.send(Pid(1), 1, 8, Payload::Empty, &tr);
        });
        sim.spawn(NodeId(1), "receiver", |ctx| {
            ctx.recv(MatchSpec::tag(1));
        });
        let report = sim.run();
        let wait = report.procs[1].stats.wait_time;
        assert!(
            wait >= SimDuration::from_millis(50),
            "receiver should wait ~50ms, waited {wait}"
        );
    }

    #[test]
    fn tracing_captures_the_timeline() {
        let mut sim = two_node_sim();
        let trace = sim.enable_tracing();
        let tr = Transport::rdma_verbs();
        sim.spawn(NodeId(0), "producer", move |ctx| {
            ctx.compute(Work::flops(3.0e6), 1.0);
            ctx.disk_read(1 << 20);
            ctx.send(Pid(1), 1, 4096, Payload::Empty, &tr);
        });
        sim.spawn(NodeId(1), "consumer", |ctx| {
            ctx.recv(MatchSpec::tag(1));
            ctx.disk_write(2 << 20);
        });
        let report = sim.run();
        let events = trace.sorted_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.label()).collect();
        assert!(kinds.contains(&"compute"));
        assert!(kinds.contains(&"disk_read"));
        assert!(kinds.contains(&"send"));
        assert!(kinds.contains(&"recv"));
        assert!(kinds.contains(&"disk_write"));
        // Spans are well-formed and within the run.
        for e in &events {
            assert!(e.start <= e.end);
            assert!(e.end <= report.makespan());
        }
        // The report carries the same trace.
        assert_eq!(report.trace.as_ref().unwrap().len(), events.len());
        // Export shapes.
        let names: Vec<String> = report.procs.iter().map(|p| p.name.clone()).collect();
        let json = trace.to_chrome_json(&names);
        assert!(json.contains("producer"));
        let txt = trace.render_text(&names);
        assert!(txt.contains("consumer"));
    }

    #[test]
    fn spans_record_nested_phase_events() {
        let mut sim = two_node_sim();
        let trace = sim.enable_tracing();
        sim.spawn(NodeId(0), "worker", |ctx| {
            ctx.span_open("job");
            for i in 0..2 {
                ctx.span_open_with(|| format!("job/iter/{i}"));
                ctx.compute(Work::flops(1.0e6), 1.0);
                ctx.span_close();
            }
            ctx.span_close();
            // Left open deliberately: must auto-close at process finish.
            ctx.span_open("dangling");
            ctx.compute(Work::flops(1.0e6), 1.0);
        });
        sim.spawn(NodeId(1), "other", |_| {});
        let report = sim.run();
        let phases: Vec<(String, u32, SimTime, SimTime)> = trace
            .sorted_events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Phase { label, depth } => {
                    Some((label.to_string(), *depth, e.start, e.end))
                }
                _ => None,
            })
            .collect();
        let mut labels: Vec<&str> = phases.iter().map(|p| p.0.as_str()).collect();
        labels.sort_unstable();
        assert_eq!(labels, vec!["dangling", "job", "job/iter/0", "job/iter/1"]);
        let job = phases.iter().find(|p| p.0 == "job").unwrap();
        assert_eq!(job.1, 0, "outermost span has depth 0");
        for it in phases.iter().filter(|p| p.0.starts_with("job/iter")) {
            assert_eq!(it.1, 1, "nested span has depth 1");
            assert!(job.2 <= it.2 && it.3 <= job.3, "iter inside job");
        }
        let dangling = phases.iter().find(|p| p.0 == "dangling").unwrap();
        assert_eq!(
            dangling.3, report.procs[0].finish,
            "auto-closed at process finish"
        );
    }

    #[test]
    fn spans_are_noops_without_tracing() {
        let mut sim = two_node_sim();
        sim.spawn(NodeId(0), "w", |ctx| {
            assert!(!ctx.tracing_enabled());
            ctx.span_open("never");
            ctx.span_open_with(|| unreachable!("label must not be built"));
            ctx.compute(Work::flops(1.0e6), 1.0);
            ctx.span_close();
            ctx.span_close();
            ctx.span("alsonever", |c| c.now())
        });
        sim.spawn(NodeId(1), "q", |_| {});
        let report = sim.run();
        assert!(report.trace.is_none());
    }

    #[test]
    fn tracing_off_by_default() {
        let mut sim = two_node_sim();
        sim.spawn(NodeId(0), "p", |ctx| {
            ctx.compute(Work::flops(1.0e6), 1.0);
        });
        sim.spawn(NodeId(1), "q", |_| {});
        let report = sim.run();
        assert!(report.trace.is_none());
    }

    #[test]
    fn send_to_self_is_received_later() {
        let mut sim = two_node_sim();
        let tr = Transport::shared_memory();
        let p = sim.spawn(NodeId(0), "selfie", move |ctx| {
            let me = ctx.pid();
            ctx.send(me, 5, 64, Payload::value(123u64), &tr);
            let m = ctx.recv(MatchSpec::tag(5));
            *m.expect_value::<u64>()
        });
        sim.spawn(NodeId(1), "other", |_| {});
        let mut report = sim.run();
        assert_eq!(report.result::<u64>(p), 123);
    }

    #[test]
    fn zero_byte_messages_and_zero_sleep() {
        let mut sim = two_node_sim();
        let tr = Transport::rdma_verbs();
        sim.spawn(NodeId(0), "a", move |ctx| {
            ctx.sleep(SimDuration::ZERO);
            ctx.send(Pid(1), 1, 0, Payload::Empty, &tr);
            ctx.disk_read(0);
        });
        let r = sim.spawn(NodeId(1), "b", |ctx| {
            let m = ctx.recv(MatchSpec::tag(1));
            m.bytes
        });
        let mut report = sim.run();
        assert_eq!(report.result::<u64>(r), 0);
    }

    #[test]
    fn zero_timeout_recv_expires_immediately_without_sender() {
        let mut sim = two_node_sim();
        let p = sim.spawn(NodeId(0), "w", |ctx| {
            ctx.recv_timeout(MatchSpec::tag(9), SimDuration::ZERO)
                .is_err()
        });
        sim.spawn(NodeId(1), "keepalive", |ctx| {
            ctx.sleep(SimDuration::from_millis(1));
        });
        let mut report = sim.run();
        assert!(report.result::<bool>(p));
    }

    #[test]
    fn nfs_is_a_single_shared_server() {
        // Readers on DIFFERENT nodes still serialize through NFS.
        let mut sim = two_node_sim();
        let gb = 1u64 << 30;
        for i in 0..2 {
            sim.spawn(NodeId(i), format!("nfs{i}"), move |ctx| {
                ctx.nfs_read(gb);
                ctx.now()
            });
        }
        let report = sim.run();
        // 2 GiB at 250 MB/s is ~8.6s serialized; parallel would be ~4.3s.
        let makespan = report.makespan().as_secs_f64();
        assert!(makespan > 8.0, "NFS must serialize: {makespan}");
    }

    #[test]
    fn stats_track_messages_and_disk() {
        let mut sim = two_node_sim();
        let tr = Transport::rdma_verbs();
        sim.spawn(NodeId(0), "s", move |ctx| {
            ctx.send(Pid(1), 1, 1000, Payload::Empty, &tr);
            ctx.disk_write(4096);
        });
        sim.spawn(NodeId(1), "r", |ctx| {
            ctx.recv(MatchSpec::tag(1));
            ctx.disk_read(2048);
        });
        let report = sim.run();
        assert_eq!(report.procs[0].stats.msgs_sent, 1);
        assert_eq!(report.procs[0].stats.bytes_sent, 1000);
        assert_eq!(report.procs[0].stats.disk_write_bytes, 4096);
        assert_eq!(report.procs[1].stats.msgs_recvd, 1);
        assert_eq!(report.procs[1].stats.disk_read_bytes, 2048);
        let total = report.total_stats();
        assert_eq!(total.msgs_sent, 1);
        assert_eq!(total.msgs_recvd, 1);
    }

    #[test]
    fn try_recv_only_sees_arrived_messages() {
        let mut sim = two_node_sim();
        let tr = Transport::rdma_verbs();
        let _s = sim.spawn(NodeId(0), "s", move |ctx| {
            ctx.send(Pid(1), 1, 8, Payload::Empty, &tr);
        });
        let r = sim.spawn(NodeId(1), "r", |ctx| {
            let early = ctx.try_recv(MatchSpec::tag(1)).is_some();
            ctx.sleep(SimDuration::from_millis(1));
            let late = ctx.try_recv(MatchSpec::tag(1)).is_some();
            (early, late)
        });
        let mut report = sim.run();
        let (early, late) = report.result::<(bool, bool)>(r);
        assert!(!early, "message cannot have arrived at t=0");
        assert!(late, "message must be visible after 1ms");
    }
}
