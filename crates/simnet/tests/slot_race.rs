//! The waker slot's race: a wake that lands between a coroutine's last
//! state check in `Slot::park` and its worker's publish of the parked
//! state. The waker then sees the coroutine running and leaves the
//! re-enqueue to that worker, whose publish must fail and re-enqueue it.
//! A publish that overwrote the pending value instead would lose the
//! grant: the holder of the commit token would never run again and the
//! simulation would hang.
//!
//! The wakes that can land there come from a thread that keeps running:
//! a token release (`Waker::Runs`) under `parallel:2` and `parallel:4`,
//! while the granted process is still switching out on another worker.
//! Rings of processes whose commits advance their clocks (disk writes,
//! sends) keep several of them in flight at once; `set_perturbation`
//! shifts grants in wall-clock time. The runs sit inside a watchdog that
//! fails the test instead of hanging, and each must reproduce the
//! sequential makespan.
//!
//! The asm backend's switch-out takes nanoseconds, so few wakes hit the
//! window (on one CPU only a preemption opens it). The test therefore
//! runs a second time in a child process under the thread coroutine
//! backend (`HPCBD_COROUTINE=threads`), where a switch-out is a condvar
//! handshake between two OS threads that keeps the window open for
//! microseconds; there the race must actually occur.
//!
//! One `#[test]` in its own test binary: `set_perturbation`, the
//! coroutine backend and the self-profiler are process-global.

use std::process::Command;
use std::sync::mpsc;
use std::time::Duration;

use hpcbd_simnet::{
    selfprof_reset, selfprof_snapshot, set_perturbation, set_selfprof, Execution, MatchSpec,
    NodeId, Payload, Perturbation, Pid, Sim, Topology, Transport,
};

const TAG: hpcbd_simnet::Tag = 9;
/// Processes per run: `RINGS` rings of `LINKS`.
const RINGS: u32 = 3;
const LINKS: u32 = 4;
const ROUNDS: u32 = 40;
const RUNS: u64 = 60;
const TEST: &str = "a_wake_racing_a_publish_is_never_lost";

/// `RINGS` rings of `LINKS` processes spread over four nodes. Each round
/// a process writes to its node's disk, sends to the next link of its
/// ring and receives from the previous one.
fn rings(exec: Execution) -> u64 {
    let mut sim = Sim::new(Topology::comet(4));
    sim.set_execution(exec);
    let tr = Transport::ipoib_socket();
    for c in 0..RINGS {
        for l in 0..LINKS {
            let next = Pid(c * LINKS + (l + 1) % LINKS);
            sim.spawn(NodeId((c + l) % 4), format!("r{c}l{l}"), move |ctx| {
                for r in 0..ROUNDS {
                    ctx.disk_write(4096 * u64::from(1 + (l + r) % 3));
                    ctx.send(next, TAG, 64, Payload::Empty, &tr);
                    ctx.recv(MatchSpec::tag(TAG));
                }
            });
        }
    }
    sim.run().makespan().nanos()
}

fn host_ops(name: &str) -> u64 {
    let row = selfprof_snapshot().into_iter().find(|r| r.0 == name);
    row.unwrap_or_else(|| panic!("selfprof has no {name} row"))
        .1
}

/// `RUNS` parallel runs against the sequential oracle; returns how many
/// publishes a racing wake made fail.
fn race_runs() -> u64 {
    let want = rings(Execution::Sequential);
    let modes = [
        Execution::Parallel { threads: 2 },
        Execution::Parallel { threads: 4 },
    ];
    set_selfprof(true);
    selfprof_reset();
    for i in 0..RUNS {
        let exec = modes[i as usize % modes.len()];
        set_perturbation((i % 3 == 2).then(|| Perturbation::from_seed(i)));
        assert_eq!(rings(exec), want, "sim {i} under {exec:?} diverged");
    }
    set_perturbation(None);
    set_selfprof(false);
    // Every resume ends in a finish or a switch-out, and a switch-out is
    // a published park (counted) or a failed publish (not): a run resumes
    // each process once to start it, once per park, and once per failed
    // publish.
    let procs = RUNS * u64::from(RINGS * LINKS);
    let (resumes, parks) = (host_ops("coro_resume"), host_ops("park"));
    resumes
        .checked_sub(parks + procs)
        .unwrap_or_else(|| panic!("{resumes} resumes for {parks} parks of {procs} processes"))
}

#[test]
fn a_wake_racing_a_publish_is_never_lost() {
    let threads_backend = std::env::var("HPCBD_COROUTINE").is_ok_and(|v| v.trim() == "threads");
    if !threads_backend {
        let child = Command::new(std::env::current_exe().expect("test binary path"))
            .args(["--exact", TEST, "--test-threads=1"])
            .env("HPCBD_COROUTINE", "threads")
            .output()
            .expect("re-run under the thread backend");
        assert!(
            child.status.success(),
            "under the thread backend:\n{}{}",
            String::from_utf8_lossy(&child.stdout),
            String::from_utf8_lossy(&child.stderr)
        );
    }
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let raced = race_runs();
        if threads_backend {
            assert!(raced > 0, "no wake hit the publish window");
        }
        done.send(()).expect("watchdog gone");
    });
    match finished.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("a simulation hung: a wake that raced a park was lost")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("a simulation panicked"),
    }
}
