//! Schedule perturbation: a seeded, legality-preserving stress knob for
//! the engine's grant paths.
//!
//! The engine's determinism contract says every simulation-visible
//! operation commits in `(virtual time, pid, generation)` order, and
//! that nothing else — in particular which of the two grant paths hands
//! a process the token — can influence a virtual-time result. An
//! aligning process that is already globally minimal takes the token
//! itself (the *self-grant fast path*); every other grant goes through
//! the ready queue, the dispatcher and a park/wake round-trip. The
//! conformance harness (`hpcbd-check`) tests that the two paths are
//! equivalent: it installs a [`Perturbation`] and re-runs a workload,
//! each time sending a different seeded subset of fast-path-eligible
//! alignments down the queue path, then asserts every run is
//! bit-identical to the unperturbed oracle.
//!
//! * **Fast-path defeats** (`defeat_fast_path_one_in`): `align_quiet`
//!   skips the self-grant fast path 1-in-N times and pushes, dispatches
//!   and parks instead.
//!
//! Every decision is a pure function of the perturbation seed and
//! deterministic per-process state (pid, visible-op counter), so a
//! divergence found under a seed can be replayed with that seed.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::hash::det_hash;

/// Seeded scheduler perturbation. Install process-wide with
/// [`set_perturbation`]; the engine resolves the installed value once
/// per [`crate::Sim::run`].
#[derive(Debug, Clone)]
pub struct Perturbation {
    /// Seed feeding every decision hash.
    pub seed: u64,
    /// Skip the self-grant fast path 1-in-N times (0 disables).
    pub defeat_fast_path_one_in: u32,
}

impl Perturbation {
    /// Derive the knob from one seed, with a seed-dependent intensity so
    /// different seeds send different alignments down the queue path.
    pub fn from_seed(seed: u64) -> Perturbation {
        let h = det_hash(&(seed, 0x6d69u64));
        Perturbation {
            seed,
            defeat_fast_path_one_in: 1 + ((h >> 16) % 3) as u32, // 1..=3
        }
    }

    /// Whether an alignment should skip the self-grant fast path.
    #[inline]
    pub(crate) fn defeat_fast_path(&self, pid: u32, op: u64) -> bool {
        let one_in = u64::from(self.defeat_fast_path_one_in);
        one_in != 0 && det_hash(&(self.seed, 0xC3u64, u64::from(pid), op)).is_multiple_of(one_in)
    }
}

static PERTURB: Mutex<Option<Arc<Perturbation>>> = Mutex::new(None);

/// Install (or clear, with `None`) the process-wide perturbation. This
/// is global state intended for the conformance harness; concurrent
/// harness runs must serialize externally. Takes effect for simulations
/// whose `run` starts after the call.
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
            assert_eq!(a.defeat_fast_path(3, op), b.defeat_fast_path(3, op));
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = Perturbation::from_seed(1);
        let b = Perturbation::from_seed(2);
        let differs = (0..500u64).any(|op| a.defeat_fast_path(0, op) != b.defeat_fast_path(0, op));
        assert!(differs, "seeds 1 and 2 explore identical schedules");
    }

    #[test]
    fn from_seed_knob_is_active_and_bounded() {
        for seed in 0..64u64 {
            let p = Perturbation::from_seed(seed);
            assert!((1..=3).contains(&p.defeat_fast_path_one_in));
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
