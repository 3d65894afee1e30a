//! A grant stays in the run-next slot of the worker that made it; an
//! idle worker steals it only once it has aged, polls for a bounded
//! time and then sleeps, and is notified only when nobody is polling.
//! A lost wakeup would leave a worker asleep on runnable work; the run
//! then finishes only because the enqueuing worker itself comes back for
//! the entry. These short runs, where workers go idle and are woken
//! constantly, therefore sit inside a watchdog that fails the test
//! instead of hanging, and each must reproduce the sequential makespan.
//! `Sim::run` itself asserts that every slot and the shared queue are
//! empty once the pool has shut down, so each run also checks that no
//! entry was left behind or duplicated.
//!
//! One `#[test]` in its own test binary: `set_perturbation` and the
//! self-profiler are process-global.

use std::sync::mpsc;
use std::time::Duration;

use hpcbd_simnet::{
    selfprof_reset, selfprof_snapshot, set_perturbation, set_selfprof, Execution, MatchSpec,
    NodeId, Payload, Perturbation, Pid, Sim, Topology, Transport,
};

const TAG: hpcbd_simnet::Tag = 7;

/// Ping-pong between two processes: every wake hands the only runnable
/// coroutine to whichever worker is free, the others go idle.
fn ping_pong(exec: Execution, rounds: u32) -> u64 {
    let mut sim = Sim::new(Topology::comet(2));
    sim.set_execution(exec);
    let tr = Transport::ipoib_socket();
    for i in 0..2u32 {
        sim.spawn(NodeId(i), format!("p{i}"), move |ctx| {
            for round in 0..rounds {
                if round % 2 == i {
                    ctx.send(Pid(1 - i), TAG, 64, Payload::Empty, &tr);
                } else {
                    ctx.recv(MatchSpec::tag(TAG));
                }
            }
        });
    }
    sim.run().makespan().nanos()
}

/// Fan-in: `leaves` processes wake at once and all send to one root, so
/// many enqueues race the workers going idle.
fn fan_in(exec: Execution, leaves: u32, rounds: u32) -> u64 {
    let mut sim = Sim::new(Topology::comet(4));
    sim.set_execution(exec);
    let tr = Transport::ipoib_socket();
    sim.spawn(NodeId(0), "root", move |ctx| {
        for _ in 0..leaves * rounds {
            ctx.recv(MatchSpec::tag(TAG));
        }
    });
    for i in 0..leaves {
        sim.spawn(NodeId(1 + i % 3), format!("leaf{i}"), move |ctx| {
            for _ in 0..rounds {
                ctx.send(Pid(0), TAG, 256, Payload::Empty, &tr);
            }
        });
    }
    sim.run().makespan().nanos()
}

/// Two processes whose host code keeps their worker busy for 2 ms after
/// every visible operation. The grant a disk write releases sits in the
/// busy worker's slot; the only way it runs meanwhile is a steal. The
/// busy time is a sleep, not a spin, so that the idle worker gets to
/// look twice even on a host with a single core.
fn busy_between_ops(exec: Execution) -> u64 {
    let mut sim = Sim::new(Topology::comet(2));
    sim.set_execution(exec);
    for i in 0..2u32 {
        sim.spawn(NodeId(i), format!("busy{i}"), move |ctx| {
            for _ in 0..10 {
                ctx.disk_write(4096);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
    }
    sim.run().makespan().nanos()
}

fn host_ops(name: &str) -> u64 {
    let row = selfprof_snapshot().into_iter().find(|r| r.0 == name);
    row.unwrap_or_else(|| panic!("selfprof has no {name} row"))
        .1
}

#[test]
fn resume_queue_never_sleeps_on_work() {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let oracle = (
            ping_pong(Execution::Sequential, 40),
            fan_in(Execution::Sequential, 6, 5),
        );
        let modes = [
            Execution::Parallel { threads: 1 },
            Execution::Parallel { threads: 2 },
            Execution::Parallel { threads: 8 },
        ];
        set_selfprof(true);
        selfprof_reset();
        let want = busy_between_ops(Execution::Sequential);
        assert_eq!(
            host_ops("resume_steal"),
            0,
            "one worker has nobody to steal from"
        );
        let got = busy_between_ops(Execution::Parallel { threads: 1 });
        assert_eq!(got, want, "stolen grants moved a virtual time");
        // The thread coroutine backend runs process bodies off the worker
        // threads: its wakes take the shared queue, not a slot, and there
        // is nothing to steal.
        let slots_in_use = host_ops("resume_local") > host_ops("resume_shared");
        assert!(
            !slots_in_use || host_ops("resume_steal") > 0,
            "a worker busy for 2 ms kept every grant"
        );
        set_selfprof(false);
        for i in 0..200u64 {
            let exec = modes[i as usize % modes.len()];
            set_perturbation((i % 2 == 1).then(|| Perturbation::from_seed(i)));
            let (got, want) = if i % 4 < 2 {
                (ping_pong(exec, 40), oracle.0)
            } else {
                (fan_in(exec, 6, 5), oracle.1)
            };
            assert_eq!(got, want, "sim {i} under {exec:?} diverged");
        }
        set_perturbation(None);
        done.send(()).expect("watchdog gone");
    });
    match finished.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("a simulation hung: a worker is asleep on a non-empty resume queue")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("a simulation panicked"),
    }
}
