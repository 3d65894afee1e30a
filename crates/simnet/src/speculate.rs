//! Optimistic speculation past the conservative frontier (Time Warp).
//!
//! Under [`crate::Execution::Parallel`] the engine is conservative:
//! every simulation-visible operation waits until its process is the
//! globally minimal runnable one, so the serial chain of visible
//! operations — token grant, coroutine wake, operation body, token
//! release — bounds wall-clock speedup no matter how many cores exist.
//! `BENCH_simnet.json` showed that chain eating nearly the whole fig6
//! run. [`crate::Execution::Speculative`] attacks it with an
//! anti-message-free variant of Jefferson's Time Warp, specialized to
//! the fact that simulated processes are stackful coroutines running
//! arbitrary Rust: a coroutine's stack cannot be rewound, so *user code
//! never observes a speculative value*. Speculation is confined to the
//! engine's own operations, in three classes:
//!
//! 1. **Buffer-and-go** (sends): a send's shared effects — NIC
//!    reservation, fault decisions, delivery — depend only on state *at
//!    its order key*, never on the sender's continuation. The sender
//!    records a [`SpecSend`] keyed `(virtual time, pid, generation)`
//!    and keeps computing; the scheduler executes the effect when that
//!    key becomes globally minimal. No validation, no rollback, no
//!    park: the sender's wake round-trip simply vanishes from the
//!    serial chain.
//! 2. **Speculate-validate-replay** (device reservations: disk, NFS,
//!    one-sided NIC transfers): the process captures a
//!    [`SpecCheckpoint`] of its mutable state (clock, stats, trace
//!    cursor), snapshots the device cell's next-free time, computes the
//!    op's outcome from the snapshot, applies it optimistically, and
//!    parks with a [`SpecIo`] record. At the order key the scheduler
//!    *validates*: if the cell still holds the snapshot value, the
//!    prediction is committed in place (next-free times are monotone,
//!    so value equality implies the same outcome) and the process is
//!    woken straight into its continuation — without ever taking the
//!    commit token. If the cell moved, the speculation lost: the
//!    process is woken with the token, rolls its checkpoint back, and
//!    replays the op against live state. Replay always succeeds (the
//!    token holder is the frontier), so livelock is impossible by
//!    construction; the per-process throttle below only caps *wasted*
//!    work, it is not needed for progress.
//! 3. **Conservative fallback** (blocking receives, `ordered` effect
//!    closures, one-sided transfers with non-trivial data-plane
//!    effects): operations whose outcome feeds user code before their
//!    order key commits still align conservatively. Correct-by-
//!    construction beats fast-and-subtle here.
//!
//! Why no anti-messages: Time Warp needs them because optimistic
//! effects escape into other processes before validation. Here every
//! shared effect is either buffered until its order key (class 1) or
//! validated at its order key before anything downstream can read it
//! (class 2), so a lost speculation is repaired entirely locally —
//! nothing to un-send.
//!
//! Every commit still happens in exact `(virtual time, pid, generation)`
//! order with state identical to the sequential engine's at that point,
//! which is why all goldens, the determinism lint, and the schedule
//! explorer hold bit-identical digests under this mode.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::engine::Pid;
use crate::message::{Payload, Tag};
use crate::queue::OrderKey;
use crate::stats::ProcStats;
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;

/// Maximum sends a process may buffer before falling back to a
/// conservative (aligning) send, which drains the buffer. Bounds both
/// queue growth and how far a process's virtual time can run ahead of
/// the frontier.
pub const SPEC_WINDOW: usize = 8;

/// Consecutive lost speculations after which a process enters cooldown.
pub const SPEC_THROTTLE_AFTER: u32 = 4;

/// Validated-class operations that take the conservative path during a
/// cooldown. Purely a waste cap — see the module docs on livelock.
pub const SPEC_COOLDOWN_OPS: u32 = 16;

/// A buffered send: everything the scheduler needs to execute the
/// send's shared effects at its order key. Pure-precomputable pieces
/// (wire time, endpoint costs) are resolved at buffer time; the
/// order-dependent pieces (NIC queueing, the fault plan's drop-hash
/// sequence number) are resolved at commit.
pub(crate) struct SpecSend {
    /// Commit point in the global visible-operation order.
    pub key: OrderKey,
    pub dst: Pid,
    pub dst_node: NodeId,
    pub same_node: bool,
    pub tag: Tag,
    pub bytes: u64,
    pub payload: Payload,
    pub sent_at: SimTime,
    pub recv_cost: SimDuration,
    pub wire: SimDuration,
    pub latency: SimDuration,
}

/// Which shared cell a validated speculation read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpecCell {
    /// A node's NIC next-free time.
    Nic(NodeId),
    /// A node's scratch-disk next-free time.
    Disk(NodeId),
    /// The shared NFS server's next-free time.
    Nfs,
}

/// A parked validated-class speculation: the read-set snapshot and the
/// predicted reservation, checked by the scheduler at the order key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpecIo {
    pub cell: SpecCell,
    /// The cell value the prediction was computed from.
    pub snap: SimTime,
    /// Predicted reservation start (`max(op time, snap)`).
    pub predicted_start: SimTime,
    /// How far the reservation advances the cell past its start.
    pub reserve: SimDuration,
    /// The process clock to resume with on a clean commit (the process
    /// already applied it optimistically).
    pub resume_clock: SimTime,
}

/// Checkpoint of the per-process mutable state a validated speculation
/// may dirty: clock, statistics, and the trace-buffer cursor. Captured
/// before the optimistic apply, restored on rollback. (RNG/fault
/// counters need no entry: the drop-hash sequence advances only at
/// commit, which speculation never reaches on the losing path.)
pub(crate) struct SpecCheckpoint {
    pub clock: SimTime,
    pub stats: ProcStats,
    pub trace_len: usize,
}

/// Planted speculation bugs for harness self-tests, mirroring
/// [`crate::ckpt::RecoveryBug`]'s role for checkpoint-restart: prove
/// the safety net actually catches an unsound engine, and give the
/// criterion suite a deterministic rollback workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecBug {
    /// **Unsound**: the commit step trusts the speculated reservation —
    /// it neither validates the read-set nor publishes the reservation
    /// to the device cell. A later request can start before the
    /// speculated transfer finished, so virtual times diverge from the
    /// sequential oracle the moment a device is used twice. The
    /// schedule explorer must catch this.
    TrustStalePrediction,
    /// **Sound but wasteful**: every validation is treated as stale, so
    /// every validated-class speculation rolls back and replays. Results
    /// stay bit-identical (replay recomputes from live state); used to
    /// benchmark rollback-replay cost and to exercise the rollback path
    /// deterministically.
    ForceReplay,
}

static SPEC_BUG: Mutex<Option<SpecBug>> = Mutex::new(None);

/// Plant (or clear, with `None`) a process-wide speculation bug. Like
/// [`crate::set_perturbation`], harness-only global state, resolved once
/// per [`crate::Sim::run`].
pub fn set_spec_bug(bug: Option<SpecBug>) {
    *SPEC_BUG.lock() = bug;
}

/// The currently planted speculation bug, if any.
pub fn current_spec_bug() -> Option<SpecBug> {
    *SPEC_BUG.lock()
}

/// Process-global commit/rollback accumulators, summed over every
/// completed `Sim::run`. Wall-clock-schedule-dependent (a rollback
/// happens only when real threads race), so they are deliberately kept
/// out of every digest, capture and report table — they exist for
/// attribution in `BENCH_simnet.json` and engine diagnostics.
static SPEC_COMMITS: AtomicU64 = AtomicU64::new(0);
static SPEC_ROLLBACKS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn spec_counters_add(commits: u64, rollbacks: u64) {
    if commits != 0 {
        SPEC_COMMITS.fetch_add(commits, Ordering::Relaxed);
    }
    if rollbacks != 0 {
        SPEC_ROLLBACKS.fetch_add(rollbacks, Ordering::Relaxed);
    }
}

/// Take (read and reset) the process-global `(commits, rollbacks)`
/// speculation counters accumulated since the last take.
pub fn spec_counters_take() -> (u64, u64) {
    (
        SPEC_COMMITS.swap(0, Ordering::Relaxed),
        SPEC_ROLLBACKS.swap(0, Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_bug_install_and_clear_roundtrip() {
        let _g = crate::HARNESS_GUARD.lock();
        set_spec_bug(Some(SpecBug::ForceReplay));
        assert_eq!(current_spec_bug(), Some(SpecBug::ForceReplay));
        set_spec_bug(None);
        assert_eq!(current_spec_bug(), None);
    }

    #[test]
    fn counters_accumulate_and_reset_on_take() {
        let _ = spec_counters_take();
        spec_counters_add(3, 1);
        spec_counters_add(2, 0);
        assert_eq!(spec_counters_take(), (5, 1));
        assert_eq!(spec_counters_take(), (0, 0));
    }
}
