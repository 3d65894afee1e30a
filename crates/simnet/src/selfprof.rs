//! Host-side self-profiler: cheap wall-clock accounting of the
//! simulator's own subsystems, so a benchmark row that moved can be
//! explained by the *mix of engine work* that produced it (queue ops,
//! coroutine switches, token protocol) rather than guessed at.
//!
//! The counters tally what the host did, not what was simulated, and a
//! perturbed run ([`crate::perturb`]) parks and wakes where a plain one
//! self-grants. They are therefore emitted only inside the report's
//! `host_profile` section — gated behind `HPCBD_SELFPROF` — and never
//! folded into digests.
//!
//! Cost contract: **zero-cost when off** up to one relaxed atomic load
//! per counted operation (the same budget `observe::capture_active`
//! already spends per run). When on, each count is one relaxed
//! `fetch_add` — no locks, no allocation, no wall-clock reads on the
//! hot path (run wall time is measured once per `Sim::run`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A counted simulator-subsystem operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HostOp {
    /// Ready-queue insertions (calendar queue pushes).
    QueuePush,
    /// Ready-queue removals (grants and stale-entry discards).
    QueuePop,
    /// Coroutine resumptions by the resume loop.
    CoroResume,
    /// Coroutine parks published to the slot protocol.
    Park,
    /// Wake values handed to parked (or racing) processes.
    Wake,
    /// Commit-token grants through the dispatcher.
    TokenGrant,
    /// Token releases into overlapped execution: always 0 since the
    /// parallel engine mode was removed. The row stays because
    /// `benchmark/` reads it as `simnet.token.releases`.
    TokenRelease,
}

/// Display names, indexed by `HostOp as usize` — also the key order of
/// the `host_profile` JSON section.
pub const HOST_OP_NAMES: [&str; 7] = [
    "queue_push",
    "queue_pop",
    "coro_resume",
    "park",
    "wake",
    "token_grant",
    "token_release",
];

const N_OPS: usize = HOST_OP_NAMES.len();

static ENABLED: AtomicBool = AtomicBool::new(false);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTS: [AtomicU64; N_OPS] = [ZERO; N_OPS];
/// Accumulated `Sim::run` wall time while the profiler was on.
static WALL_NS: AtomicU64 = AtomicU64::new(0);
/// Number of `Sim::run` calls the wall time covers.
static RUNS: AtomicU64 = AtomicU64::new(0);

/// Count one host-side operation. Inlined to a single relaxed load (and
/// a predictable untaken branch) when the profiler is off.
#[inline(always)]
pub fn host_count(op: HostOp) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNTS[op as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Whether the self-profiler is currently on.
#[inline]
pub fn selfprof_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the self-profiler on or off. Turning it on also consults
/// nothing and clears nothing — pair with [`selfprof_reset`] to start a
/// fresh measurement window.
pub fn set_selfprof(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Resolve `HPCBD_SELFPROF` (`1` / `true` / `on`, case-insensitive) and
/// switch the profiler accordingly. Returns the resulting state.
pub fn selfprof_from_env() -> bool {
    let on = std::env::var("HPCBD_SELFPROF")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "1" || v == "true" || v == "on"
        })
        .unwrap_or(false);
    set_selfprof(on);
    on
}

/// Zero every counter and the wall-time accumulator.
pub fn selfprof_reset() {
    for c in &COUNTS {
        c.store(0, Ordering::Relaxed);
    }
    WALL_NS.store(0, Ordering::Relaxed);
    RUNS.store(0, Ordering::Relaxed);
}

/// Snapshot the counters as `(name, count)` rows in `HOST_OP_NAMES`
/// order, followed by `run_wall_ns` and `runs`.
pub fn selfprof_snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = HOST_OP_NAMES
        .iter()
        .zip(&COUNTS)
        .map(|(&name, c)| (name, c.load(Ordering::Relaxed)))
        .collect();
    out.push(("run_wall_ns", WALL_NS.load(Ordering::Relaxed)));
    out.push(("runs", RUNS.load(Ordering::Relaxed)));
    out
}

/// Credit one completed `Sim::run`'s wall time (called by the engine
/// when the profiler is on).
pub(crate) fn add_run_wall_ns(ns: u64) {
    WALL_NS.fetch_add(ns, Ordering::Relaxed);
    RUNS.fetch_add(1, Ordering::Relaxed);
}

/// The rows of one run, in [`selfprof_snapshot`] order: each counter's
/// growth since `before` (a snapshot taken as the run started), then
/// `run_wall_ns` = `wall_ns` and `runs` = 1. The counters are
/// process-wide, so a run that overlaps another `Sim::run` (a nested
/// one, or one on another thread) also tallies that run's operations.
pub(crate) fn run_profile(
    before: &[(&'static str, u64)],
    wall_ns: u64,
) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = HOST_OP_NAMES
        .iter()
        .zip(&COUNTS)
        .zip(before)
        .map(|((&name, c), &(_, b))| (name, c.load(Ordering::Relaxed).saturating_sub(b)))
        .collect();
    out.push(("run_wall_ns", wall_ns));
    out.push(("runs", 1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    // Profiler state is process-global; serialize the tests that use it.
    static GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn counts_only_while_enabled() {
        let _g = GUARD.lock();
        set_selfprof(false);
        selfprof_reset();
        host_count(HostOp::QueuePush);
        assert_eq!(selfprof_snapshot()[HostOp::QueuePush as usize].1, 0);
        set_selfprof(true);
        host_count(HostOp::QueuePush);
        host_count(HostOp::QueuePush);
        host_count(HostOp::Wake);
        set_selfprof(false);
        let snap = selfprof_snapshot();
        assert_eq!(snap[HostOp::QueuePush as usize], ("queue_push", 2));
        assert_eq!(snap[HostOp::Wake as usize], ("wake", 1));
        selfprof_reset();
        assert!(selfprof_snapshot().iter().all(|&(_, v)| v == 0));
    }

    #[test]
    fn snapshot_rows_follow_name_table() {
        let _g = GUARD.lock();
        let snap = selfprof_snapshot();
        assert_eq!(snap.len(), HOST_OP_NAMES.len() + 2);
        for (row, &name) in snap.iter().zip(HOST_OP_NAMES.iter()) {
            assert_eq!(row.0, name);
        }
        assert_eq!(snap[HOST_OP_NAMES.len()].0, "run_wall_ns");
        assert_eq!(snap[HOST_OP_NAMES.len() + 1].0, "runs");
    }
}
