//! The schedule-perturbation explorer: adversarial determinism checking
//! against the unperturbed oracle.
//!
//! One exploration runs a workload under three regimes and demands
//! bit-identical captures from all of them:
//!
//! 1. **Oracle** — no perturbation. This is the reference schedule the
//!    engine's contract is stated against.
//! 2. **Sequential replay** — the same thing again. A divergence here
//!    cannot involve the scheduler at all and is immediately classified
//!    as host nondeterminism (hash seeds, addresses, wall clock).
//! 3. **Perturbed runs** — `schedules` runs under
//!    [`Perturbation::from_seed`] with per-run seeds derived from the
//!    explorer seed. Each sends a different seeded subset of the
//!    alignments that could take the self-grant fast path down the
//!    queue path (push, dispatch, park, wake) instead; both paths must
//!    make the same grant, so every run must reproduce the oracle (see
//!    `hpcbd_simnet::perturb`).
//!
//! When a perturbed run diverges, the explorer shrinks the divergence to
//! the minimal event prefix — because captures are compared in the
//! deterministic export order, the first differing event index *is* the
//! minimal prefix (see `compare.rs`) — and then replays the same
//! perturbation seed once more to classify it: a run that reproduces
//! itself under its own seed is **schedule-dependent** (the engine
//! contract is broken), one that does not is **host nondeterminism**
//! (something outside virtual time leaks into results).
//!
//! Engine-global state (installed perturbation, telemetry interval, the
//! capture window) is process-wide, so explorations serialize on a
//! harness lock and restore previous globals on exit, panic included.

use parking_lot::{Mutex, MutexGuard};

use hpcbd_simnet::{
    begin_capture, det_hash, end_capture, set_perturbation, set_telemetry_interval,
    telemetry_interval, Perturbation, RunCapture,
};

use crate::compare::{capture_digest, compare_runs, Classification, Divergence};

static HARNESS: Mutex<()> = Mutex::new(());

/// Serialize harness activity process-wide. Exploration, lint and any
/// test that toggles engine globals directly must hold this.
pub fn harness_lock() -> MutexGuard<'static, ()> {
    HARNESS.lock()
}

/// Restores the pre-harness engine globals on drop (panic included).
pub(crate) struct RestoreGlobals {
    prev_telemetry: Option<u64>,
}

impl RestoreGlobals {
    pub(crate) fn capture() -> RestoreGlobals {
        RestoreGlobals {
            prev_telemetry: telemetry_interval(),
        }
    }
}

impl Drop for RestoreGlobals {
    fn drop(&mut self) {
        set_perturbation(None);
        set_telemetry_interval(self.prev_telemetry);
    }
}

/// Run the workload inside a capture window and take its captures.
pub(crate) fn run_captured<F: Fn()>(workload: &F) -> Vec<RunCapture> {
    begin_capture();
    workload();
    end_capture()
}

/// Result of one exploration.
#[derive(Debug)]
pub struct ExploreReport {
    /// Perturbed schedules completed (including a divergent one).
    pub schedules_run: usize,
    /// The first divergence found, shrunk and classified, if any.
    pub divergence: Option<Divergence>,
    /// SHA-256 digest of the oracle capture sequence.
    pub oracle_digest: String,
}

impl ExploreReport {
    /// Panic with the full first-divergence report unless every run was
    /// bit-identical to the oracle. The assertion form integration
    /// tests use.
    pub fn assert_deterministic(&self) {
        if let Some(d) = &self.divergence {
            panic!(
                "schedule exploration found a divergence after {} perturbed schedule(s):\n{}",
                self.schedules_run,
                d.render()
            );
        }
    }
}

/// Seeded explorer; builder-style configuration.
#[derive(Debug, Clone)]
pub struct Explorer {
    seed: u64,
    schedules: usize,
}

impl Explorer {
    /// Explorer with `seed` driving every per-schedule perturbation,
    /// defaulting to 8 schedules.
    pub fn new(seed: u64) -> Explorer {
        Explorer { seed, schedules: 8 }
    }

    /// Number of perturbed schedules to drive.
    pub fn schedules(mut self, n: usize) -> Explorer {
        self.schedules = n;
        self
    }

    /// The perturbation seed used for schedule `i` (stable across
    /// explorer configurations, so a reported seed can be replayed
    /// directly).
    pub fn schedule_seed(&self, i: usize) -> u64 {
        det_hash(&(self.seed, i as u64, 0x5eedu64))
    }

    /// Run the exploration. The workload must be re-runnable: each call
    /// must build and run the same simulation(s) from scratch.
    pub fn explore<F: Fn()>(&self, workload: F) -> ExploreReport {
        let _guard = harness_lock();
        self.explore_locked(workload)
    }

    /// [`Explorer::explore`] for a caller that holds [`harness_lock`].
    fn explore_locked<F: Fn()>(&self, workload: F) -> ExploreReport {
        let _restore = RestoreGlobals::capture();

        set_perturbation(None);
        let oracle = run_captured(&workload);
        let oracle_digest = capture_digest(&oracle);
        assert!(
            !oracle.is_empty(),
            "workload ran no simulations inside the capture window"
        );

        // Sequential replay: no perturbation in play, so any divergence
        // is host nondeterminism by construction.
        let replay = run_captured(&workload);
        if let Some(mut d) = compare_runs(&oracle, &replay) {
            d.condition = "sequential replay".to_string();
            d.classification = Some(Classification::HostNondeterminism);
            return ExploreReport {
                schedules_run: 0,
                divergence: Some(d),
                oracle_digest,
            };
        }

        for i in 0..self.schedules {
            let seed = self.schedule_seed(i);
            set_perturbation(Some(Perturbation::from_seed(seed)));
            let run = run_captured(&workload);
            if let Some(mut d) = compare_runs(&oracle, &run) {
                // Classification replay: the same seed drives the same
                // perturbation decisions, so a schedule-dependent
                // divergence reproduces bit-identically.
                let again = run_captured(&workload);
                d.classification = Some(if compare_runs(&run, &again).is_none() {
                    Classification::ScheduleDependent
                } else {
                    Classification::HostNondeterminism
                });
                d.condition = format!("perturbed schedule #{i} seed={seed:#018x}");
                return ExploreReport {
                    schedules_run: i + 1,
                    divergence: Some(d),
                    oracle_digest,
                };
            }
        }

        ExploreReport {
            schedules_run: self.schedules,
            divergence: None,
            oracle_digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcbd_simnet::{MatchSpec, NodeId, Payload, Pid, Sim, Topology, Transport, Work};

    fn ping_pong_workload() {
        let tr = Transport::rdma_verbs();
        let mut sim = Sim::new(Topology::comet(2));
        for p in 0..4u32 {
            sim.spawn(NodeId(p % 2), format!("p{p}"), move |ctx| {
                let peer = Pid(p ^ 1);
                ctx.compute(Work::flops(1.0e6 * (p as f64 + 1.0)), 1.0);
                ctx.send(peer, 7, 256, Payload::Empty, &tr);
                ctx.recv(MatchSpec::tag(7));
                ctx.compute(Work::flops(5.0e5), 1.0);
            });
        }
        sim.run();
    }

    #[test]
    fn clean_workload_explores_clean() {
        let report = Explorer::new(0xE0).schedules(6).explore(ping_pong_workload);
        assert_eq!(report.schedules_run, 6);
        report.assert_deterministic();
    }

    /// Device-contention workload: every process hammers its node's
    /// scratch disk and the shared NFS server, so the order in which
    /// reservations reach a device cell decides every completion time.
    fn disk_contention_workload() {
        let tr = Transport::ipoib_socket();
        let n = 6u32;
        let mut sim = Sim::new(Topology::comet(2));
        for p in 0..n {
            sim.spawn(NodeId(p % 2), format!("d{p}"), move |ctx| {
                for round in 0..3u64 {
                    ctx.compute(Work::flops(1.0e5 * (p as f64 + 1.0)), 1.0);
                    ctx.disk_write(1 << (14 + (p + round as u32) % 3));
                    ctx.send(Pid((p + 1) % n), 2, 128, Payload::Empty, &tr);
                    ctx.recv(MatchSpec::tag(2));
                    ctx.nfs_read(1 << 12);
                }
            });
        }
        sim.run();
    }

    #[test]
    fn exploration_of_contended_devices_is_clean() {
        let report = Explorer::new(0x5bec)
            .schedules(6)
            .explore(disk_contention_workload);
        assert_eq!(report.schedules_run, 6);
        report.assert_deterministic();
    }

    #[test]
    fn schedule_seeds_are_stable_and_distinct() {
        let e = Explorer::new(1);
        assert_eq!(e.schedule_seed(0), Explorer::new(1).schedule_seed(0));
        assert_ne!(e.schedule_seed(0), e.schedule_seed(1));
        assert_ne!(e.schedule_seed(0), Explorer::new(2).schedule_seed(0));
    }

    #[test]
    fn globals_are_restored_after_explore() {
        // Sibling tests set the globals under the lock; read them under it.
        let _guard = harness_lock();
        let before = telemetry_interval();
        Explorer::new(3)
            .schedules(1)
            .explore_locked(ping_pong_workload);
        assert_eq!(telemetry_interval(), before);
        assert!(hpcbd_simnet::current_perturbation().is_none());
    }

    #[test]
    #[should_panic(expected = "no simulations")]
    fn empty_workload_is_rejected() {
        Explorer::new(0).schedules(1).explore(|| {});
    }
}
