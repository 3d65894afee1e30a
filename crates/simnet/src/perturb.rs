//! Schedule perturbation: seeded, legality-preserving stress knobs for
//! the engine's parallel scheduler.
//!
//! The engine's determinism contract says every simulation-visible
//! operation commits in `(virtual time, pid, generation)` order, and
//! that nothing else — token hand-off timing, which processes are
//! in flight, wall-clock interleavings, the self-grant fast path —
//! can influence a virtual-time result. The conformance harness
//! (`hpcbd-check`) tests that contract *adversarially*: it installs a
//! [`Perturbation`] and re-runs a workload many times, each time
//! driving the scheduler through a different **legal** schedule, then
//! asserts every run is bit-identical to the sequential oracle.
//!
//! A schedule is *legal* when the commit (grant) order is exactly the
//! total `(time, pid, gen)` order the sequential engine produces; the
//! conservative in-flight frontier rule admits arbitrary wall-clock
//! reorderings around it. The knobs below only ever perturb inside that
//! admitted set:
//!
//! * **Grant holds** (`hold_one_in`): `try_dispatch` defers a grantable
//!   candidate while other processes are still in flight, so the queue
//!   fills with more (later-keyed) entries before the decision is
//!   retaken. The candidate stays minimal, so the grant *order* is
//!   untouched — only its wall-clock moment moves.
//! * **Token keeps** (`keep_one_in`): `release_turn` keeps the commit
//!   token through the next compute segment (exactly the behaviour the
//!   engine already has when the in-flight cap is reached), shifting
//!   which processes ever become concurrently in-flight.
//! * **Fast-path defeats** (`defeat_fast_path_one_in`): `align_quiet`
//!   skips the self-grant fast path and goes through the queue + condvar
//!   round-trip, exercising the equivalence of the two grant paths.
//! * **Wall-clock jitter** (`spin_max`): seeded spin/yield before an
//!   alignment randomizes which racing process reaches the scheduler
//!   lock first — the tie the frontier rule must absorb.
//!
//! Every decision is a pure function of the perturbation seed and
//! deterministic per-process state (pid, visible-op counter), so a
//! divergence found under a seed can be replayed with that seed.
//! Perturbations have no effect in sequential mode (there is no token
//! release and no in-flight set to perturb).

use std::sync::Arc;

use parking_lot::Mutex;

use crate::hash::det_hash;

/// Seeded scheduler-perturbation knobs. Install process-wide with
/// [`set_perturbation`]; the engine resolves the installed value once
/// per [`crate::Sim::run`].
#[derive(Debug, Clone)]
pub struct Perturbation {
    /// Seed feeding every decision hash.
    pub seed: u64,
    /// Defer a grant 1-in-N times while other processes are in flight
    /// (0 disables).
    pub hold_one_in: u32,
    /// Keep the token at a release point 1-in-N times (0 disables).
    pub keep_one_in: u32,
    /// Skip the self-grant fast path 1-in-N times (0 disables).
    pub defeat_fast_path_one_in: u32,
    /// Upper bound on seeded spin iterations injected before alignments
    /// (0 disables jitter).
    pub spin_max: u32,
}

impl Perturbation {
    /// Derive a full knob mix from one seed: every knob active, with
    /// seed-dependent intensities so different seeds explore different
    /// regions of the legal-schedule space.
    pub fn from_seed(seed: u64) -> Perturbation {
        let h = det_hash(&(seed, 0x6d69u64));
        Perturbation {
            seed,
            hold_one_in: 2 + (h % 5) as u32,        // 2..=6
            keep_one_in: 2 + ((h >> 8) % 5) as u32, // 2..=6
            defeat_fast_path_one_in: 1 + ((h >> 16) % 3) as u32, // 1..=3
            spin_max: 16 + ((h >> 24) % 241) as u32, // 16..=256
        }
    }

    #[inline]
    fn decide(&self, salt: u64, a: u64, b: u64, one_in: u32) -> bool {
        one_in != 0 && det_hash(&(self.seed, salt, a, b)).is_multiple_of(one_in as u64)
    }

    /// Whether `try_dispatch` should defer granting the candidate keyed
    /// `(time, pid, gen)` for now. Only consulted while the in-flight
    /// set is non-empty, so progress is never at risk: holds stop the
    /// moment the in-flight set drains.
    #[inline]
    pub(crate) fn hold_grant(&self, time_ns: u64, pid: u32, gen: u64) -> bool {
        self.decide(0xA1, time_ns ^ gen, pid as u64, self.hold_one_in)
    }

    /// Whether a release point should keep the token instead.
    #[inline]
    pub(crate) fn keep_token(&self, pid: u32, op: u64) -> bool {
        self.decide(0xB2, pid as u64, op, self.keep_one_in)
    }

    /// Whether an alignment should skip the self-grant fast path.
    #[inline]
    pub(crate) fn defeat_fast_path(&self, pid: u32, op: u64) -> bool {
        self.decide(0xC3, pid as u64, op, self.defeat_fast_path_one_in)
    }

    /// Burn a seeded, bounded amount of wall-clock before an alignment
    /// (and occasionally yield the OS thread) so racing processes reach
    /// the scheduler lock in shuffled orders.
    #[inline]
    pub(crate) fn jitter(&self, pid: u32, op: u64) {
        if self.spin_max == 0 {
            return;
        }
        let h = det_hash(&(self.seed, 0xD4u64, pid as u64, op));
        for _ in 0..(h % self.spin_max as u64) {
            std::hint::spin_loop();
        }
        if h.is_multiple_of(7) {
            std::thread::yield_now();
        }
    }
}

static PERTURB: Mutex<Option<Arc<Perturbation>>> = Mutex::new(None);

/// Install (or clear, with `None`) the process-wide perturbation. Like
/// [`crate::set_default_execution`], this is global state intended for
/// the conformance harness; concurrent harness runs must serialize
/// externally. Takes effect for simulations whose `run` starts after the
/// call.
pub fn set_perturbation(p: Option<Perturbation>) {
    *PERTURB.lock() = p.map(Arc::new);
}

/// The currently installed perturbation, if any.
pub fn current_perturbation() -> Option<Arc<Perturbation>> {
    PERTURB.lock().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let a = Perturbation::from_seed(42);
        let b = Perturbation::from_seed(42);
        for op in 0..200u64 {
            assert_eq!(a.hold_grant(op * 3, 1, op), b.hold_grant(op * 3, 1, op));
            assert_eq!(a.keep_token(2, op), b.keep_token(2, op));
            assert_eq!(a.defeat_fast_path(3, op), b.defeat_fast_path(3, op));
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = Perturbation::from_seed(1);
        let b = Perturbation::from_seed(2);
        let differs = (0..500u64).any(|op| {
            a.hold_grant(op, 0, op) != b.hold_grant(op, 0, op)
                || a.keep_token(0, op) != b.keep_token(0, op)
        });
        assert!(differs, "seeds 1 and 2 explore identical schedules");
    }

    #[test]
    fn from_seed_knobs_are_all_active_and_bounded() {
        for seed in 0..64u64 {
            let p = Perturbation::from_seed(seed);
            assert!((2..=6).contains(&p.hold_one_in));
            assert!((2..=6).contains(&p.keep_one_in));
            assert!((1..=3).contains(&p.defeat_fast_path_one_in));
            assert!((16..=256).contains(&p.spin_max));
        }
    }

    #[test]
    fn install_and_clear_roundtrip() {
        set_perturbation(Some(Perturbation::from_seed(7)));
        assert_eq!(current_perturbation().unwrap().seed, 7);
        set_perturbation(None);
        assert!(current_perturbation().is_none());
    }
}
