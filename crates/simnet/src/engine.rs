//! The conservative virtual-time execution engine.
//!
//! Every simulated process is a stackful coroutine ([`crate::coro`])
//! executing real Rust code — a few hundred KiB of lazily-paged stack
//! instead of the 2 MiB OS thread of earlier versions, which is what
//! lets a full SDSC Comet (1984 nodes x 24 ≈ 48k processes) run on a
//! laptop-class host. The engine enforces a single invariant:
//! **whenever a process performs a simulation-visible operation
//! (message send/delivery, disk reservation, sleep), it is the process
//! with the minimum virtual clock among all runnable processes, and
//! those commit windows are totally ordered.** The commit token is
//! passed through explicit per-process wakers: a wake stores the grant
//! in the process's slot and leaves its coroutine in the run-next slot
//! of the worker that issued the wake (see [`Engine::enqueue_resume`]);
//! parking is an in-process context switch, not a condvar wait. The
//! ready queue is a calendar bucket queue
//! ([`crate::queue::CalendarQueue`]) ordered by
//! `(virtual time, pid, generation)`, a key chosen to be independent of
//! the wall-clock order in which entries are pushed — which is what lets
//! the same queue drive both execution modes below bit-identically.
//!
//! Between simulation-visible operations a process runs arbitrary real
//! computation and advances its own clock locally ([`ProcCtx::compute`])
//! at zero synchronization cost; the conservative yield happens lazily
//! at the next visible operation.
//!
//! # Execution modes
//!
//! * [`Execution::Sequential`] (default): at most one process executes
//!   at a time. A process keeps the token from its commit window through
//!   the following compute segment, exactly like a classic baton-passing
//!   conservative simulator.
//! * [`Execution::Parallel`]: after a process finishes the *commit* part
//!   of a visible operation (its mutation of shared simulation state),
//!   the token is released immediately and the process runs its next
//!   compute segment concurrently with other released processes — real
//!   Rust work overlaps on real cores. Ordering is preserved by a
//!   conservative lookahead rule: a released process `q` whose last
//!   commit ended at virtual time `lb_q` can only re-enter the ready
//!   queue at `(t, q)` with `t >= lb_q`, so the scheduler may grant a
//!   queued entry `e` whenever `(e.time, e.pid) < (lb_q, q)` for every
//!   in-flight `q`. Under that rule every grant decision is identical to
//!   the sequential schedule, making virtual times, results, and stats
//!   **bit-identical** across modes (see DESIGN.md §"Parallel engine").
//!
//! # Host-performance structure (DESIGN.md §9)
//!
//! The hot path is sharded so unrelated processes never contend on one
//! lock:
//!
//! * `sched` — the scheduler state proper (ready queue, token, in-flight
//!   frontier, per-process scheduling cells). The only lock on the
//!   align/dispatch path, with an O(1)-amortized calendar queue behind
//!   it and a *self-grant fast path* that skips the queue and the
//!   condition-variable round-trip entirely when the aligning process is
//!   already globally minimal.
//! * per-process mail shards — mailbox, final stats and finish time.
//!   Mailbox scans (`recv` matching, `try_recv` polling) touch only the
//!   owning process's shard.
//! * per-node device cells — NIC and scratch-disk next-free times; a
//!   separate cell for the shared NFS server. They are only ever touched
//!   with the commit token held, which already orders every access, so
//!   they are plain atomics read and written without a lock or an RMW.
//! * per-process waker slots — one atomic state word per process
//!   (running, parked, value pending): a wake is one swap, a park's
//!   publish one compare-exchange ([`Slot`]).
//!
//! Every mutation of sharded state still happens inside a commit window
//! (token held), so the total order of visible operations — and with it
//! bit-determinism — is untouched; the sharding only shortens and
//! de-contends the critical sections. An uncontended lock/unlock pair
//! costs about 18 ns on a 2-core x86-64 host, so on an engine-bound run
//! the locks that remain (`sched` and the mail shards) are still a
//! measurable share of the host time (DESIGN.md §9).
//!
//! Trace events are buffered in a per-process `Vec` and merged at
//! export ([`crate::trace::Trace`]), so tracing costs one `Vec::push`
//! of a 48 B event on the hot path. The export pays for the order:
//! [`crate::trace::Trace::sorted_events`] sorts packed
//! `(start, pid, append index)` keys, then re-sorts each run of equal
//! `(start, pid)` by the rest of the key — about 11 ms for a 150 k-event
//! section on a 2-core host (DESIGN.md §9).

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::cost::Work;
use crate::error::{DeadlockNote, RecvTimeout};
use crate::fs::SimFs;
use crate::message::{MatchSpec, Message, Payload, Tag};
use crate::parallel::{default_execution, Execution};
use crate::queue::{CalendarQueue, OrderKey};
use crate::stats::ProcStats;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology};
use crate::trace::TraceEvent;
use crate::transport::Transport;

/// Identifies a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl Pid {
    /// Index into the process table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Immutable world state shared by every process: the hardware topology
/// and the storage namespace.
pub struct World {
    /// Hardware description of the cluster.
    pub topology: Topology,
    /// Simulated storage namespace.
    pub fs: SimFs,
    /// NFS share characteristics (one server for the whole cluster).
    pub nfs: crate::topology::DiskSpec,
    /// Execution trace sink (empty unless `Sim::enable_tracing` ran).
    pub(crate) trace: std::sync::OnceLock<Arc<crate::trace::Trace>>,
    /// Installed fault plan (empty unless `Sim::set_fault_plan` ran).
    pub(crate) faults: std::sync::OnceLock<Arc<crate::faults::FaultPlan>>,
}

impl World {
    /// Build a world over a topology with an empty filesystem.
    pub fn new(topology: Topology) -> World {
        World {
            topology,
            fs: SimFs::new(),
            nfs: crate::topology::DiskSpec::nfs_share(),
            trace: std::sync::OnceLock::new(),
            faults: std::sync::OnceLock::new(),
        }
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<crate::faults::FaultPlan>> {
        self.faults.get()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum WakeReason {
    Turn,
    Message,
    Timeout,
    Deadlock,
}

impl WakeReason {
    fn from_u8(v: u8) -> WakeReason {
        match v {
            0 => WakeReason::Turn,
            1 => WakeReason::Message,
            2 => WakeReason::Timeout,
            _ => WakeReason::Deadlock,
        }
    }
}

#[derive(Debug)]
enum Status {
    Ready,
    Running,
    Blocked {
        spec: MatchSpec,
        deadline: Option<SimTime>,
    },
    Done,
}

/// Per-process waker slot: one state word and the wake value it
/// guards. The state is [`RUNNING`] while the coroutine executes (or is
/// switching out), [`PARKED`] once its worker has published the
/// suspension, and [`VALUE`] while a wake value waits to be consumed.
/// Every transition is a single atomic operation, so a blocking cycle
/// costs two read-modify-writes (the wake's swap, the worker's
/// compare-exchange) and no lock.
///
/// * **No lost wakeup.** [`Slot::wake`] and [`Slot::publish_park`]
///   both act on `state` in one RMW, so exactly one of them sees the
///   other: a wake that lands before the publish turns it into a failed
///   compare-exchange (the worker re-enqueues), one that lands after
///   finds [`PARKED`] (the waker enqueues).
/// * **Ordering.** The coroutine's saved context reaches its next
///   resumer through the worker's `Release` compare-exchange, the
///   waker's `Acquire` swap, and the resume path's release/acquire pair
///   ([`Engine::enqueue_resume`]). The value fields are written before
///   the waker's `Release` swap and read after [`Slot::park`]'s
///   `Acquire` load. The `RUNNING` store that consumes a value needs no
///   ordering of its own: the next wake is issued only after this
///   process pushes a new queue entry under the `sched` lock.
struct Slot {
    state: AtomicU8,
    /// The pending wake's clock, in nanoseconds.
    clock: AtomicU64,
    /// The pending wake's [`WakeReason`], as `u8`.
    reason: AtomicU8,
}

/// [`Slot`] state: the coroutine runs, or is switching out.
const RUNNING: u8 = 0;
/// [`Slot`] state: suspended with no value; a wake must enqueue it.
const PARKED: u8 = 1;
/// [`Slot`] state: a wake value is pending.
const VALUE: u8 = 2;

impl Slot {
    /// A slot in the [`PARKED`] state: a coroutine first runs when its
    /// first wake enqueues it.
    fn new() -> Slot {
        Slot {
            state: AtomicU8::new(PARKED),
            clock: AtomicU64::new(0),
            reason: AtomicU8::new(WakeReason::Turn as u8),
        }
    }

    /// Store a wake value. Returns true iff the coroutine was parked,
    /// i.e. the caller must enqueue it for resumption; otherwise it is
    /// running and consumes the value itself ([`Slot::park`]) or its
    /// worker's publish fails and re-enqueues it.
    fn wake(&self, clock: SimTime, reason: WakeReason) -> bool {
        self.clock.store(clock.nanos(), Ordering::Relaxed);
        self.reason.store(reason as u8, Ordering::Relaxed);
        let old = self.state.swap(VALUE, Ordering::AcqRel);
        debug_assert_ne!(old, VALUE, "second wake before park");
        old == PARKED
    }

    /// Wait (in the coroutine sense) until a wake value is available.
    /// Must run inside this process's coroutine. If the value raced in
    /// between the caller's last visible operation and this park, it is
    /// consumed without suspending at all.
    fn park(&self) -> (SimTime, WakeReason) {
        loop {
            if self.state.load(Ordering::Acquire) == VALUE {
                let v = (
                    SimTime(self.clock.load(Ordering::Relaxed)),
                    WakeReason::from_u8(self.reason.load(Ordering::Relaxed)),
                );
                self.state.store(RUNNING, Ordering::Relaxed);
                return v;
            }
            crate::coro::suspend();
        }
    }

    /// Publish a switched-out coroutine as parked. Returns false if a
    /// wake raced in between its last state check and its context save:
    /// the waker saw [`RUNNING`] and left the re-enqueue to the caller.
    fn publish_park(&self) -> bool {
        self.state
            .compare_exchange(RUNNING, PARKED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// Scheduling cell of one process: the fields the dispatcher reads and
/// writes under the `sched` lock. Everything else a process owns lives in
/// its [`ProcShard`] (mail lock) or its `ProcCtx` (no lock at all).
struct SchedProc {
    clock: SimTime,
    gen: u64,
    status: Status,
    wake_reason: WakeReason,
}

/// Scheduler state: the single lock on the align/dispatch hot path.
struct Sched {
    procs: Vec<SchedProc>,
    runnable: CalendarQueue,
    live: usize,
    deadlocked: bool,
    /// Current commit-token holder: the one process allowed to mutate
    /// shared simulation state. `None` while the token is being passed.
    turn: Option<Pid>,
    /// Released processes still running a compute segment, with the
    /// lower bound on the virtual time of their next ready-queue entry
    /// (their clock at release; clocks only move forward).
    inflight: Vec<(Pid, SimTime)>,
    /// (pid, message, was_deadlock) for every unwound process.
    panics: Vec<PanicRecord>,
}

impl Sched {
    /// Push `pid` as runnable at `time`, invalidating any earlier entry
    /// for it. Caller holds the sched lock.
    fn push(&mut self, pid: Pid, time: SimTime) {
        crate::selfprof::host_count(crate::selfprof::HostOp::QueuePush);
        let p = &mut self.procs[pid.index()];
        p.gen += 1;
        let gen = p.gen;
        self.runnable.push(OrderKey { time, pid, gen });
    }
}

/// (pid, message, was_deadlock) of one unwound process.
type PanicRecord = (Pid, String, bool);

/// Per-process shard: everything a process owns that other processes
/// only touch inside commit windows. The mail lock is effectively
/// uncontended — the commit token already serializes every access — and
/// exists to satisfy `Sync`, not to arbitrate.
struct ProcShard {
    name: String,
    node: NodeId,
    slot: Slot,
    mail: Mutex<Mail>,
}

struct Mail {
    mailbox: std::collections::VecDeque<Message>,
    finish: Option<SimTime>,
    stats: ProcStats,
}

/// A device next-free cell, as [`Engine::reserve_cell`] addresses it.
#[derive(Clone, Copy)]
enum DeviceCell {
    /// A node's NIC.
    Nic(NodeId),
    /// A node's scratch disk.
    Disk(NodeId),
    /// The shared NFS server.
    Nfs,
}

/// Per-node device state: next-free times of the node's NIC and scratch
/// disk, in nanoseconds. Touched only by processes on (or transferring
/// from) this node, inside commit windows: the commit token serializes
/// every access, so the cells are atomics only for `Sync` and are read
/// and written with plain `Relaxed` loads and stores (see
/// [`Engine::reserve_cell`]).
struct NodeRes {
    nic_free: AtomicU64,
    disk_free: AtomicU64,
}

struct Engine {
    sched: Mutex<Sched>,
    shards: Vec<ProcShard>,
    nodes: Vec<NodeRes>,
    /// Next-free time of the shared NFS server; token-serialized like
    /// the [`NodeRes`] cells.
    nfs_free: AtomicU64,
    /// Installed schedule perturbation (conformance harness only; see
    /// [`crate::perturb`]). Resolved once at `Sim::run`; `None` on
    /// normal runs, so the hot path pays one pointer test.
    perturb: Option<Arc<crate::perturb::Perturbation>>,
    /// Messages sent to processes that had already finished.
    /// Token-serialized; atomic only for `Sync`.
    dropped_msgs: AtomicU64,
    /// Sequence numbers handed to inter-node messages for the fault
    /// plan's drop hash. Incremented inside send commit windows, which
    /// are totally ordered identically in both execution modes — the
    /// basis of faulty-run bit-determinism. Only advanced when the plan
    /// actually enables drops.
    fault_seq: AtomicU64,
    /// Telemetry sampling interval resolved at run start (`None` off).
    /// Per-process contexts copy it into a `bool`; the report carries it
    /// so the observability layer knows the tick (see
    /// [`crate::telemetry`]).
    telemetry_interval: Option<u64>,
    /// Metric points absorbed from per-process buffers at finish.
    /// Export order is recovered by [`crate::telemetry::sort_points`],
    /// so the wall-clock absorb order is irrelevant.
    metric_sink: Mutex<Vec<crate::telemetry::MetricPoint>>,
    /// One run-next slot per worker: `0` when empty, else
    /// `stamp << 32 | pid + 1`, a coroutine with a pending wake value that
    /// the worker will resume as soon as its current one switches out.
    /// Only worker `w` fills `next[w]`; anyone may empty it (the owner by
    /// `swap`, an idle worker by `compare_exchange`). The stamp counts the
    /// owner's stores, so a thief can tell the entry it saw a poll ago from
    /// a new entry for the same pid.
    next: Vec<AtomicU64>,
    /// Overflow of the slots: wakes issued off the worker pool (the first
    /// grant of a run, every wake under the thread coroutine backend) or
    /// while the waker's slot was still full. Lock order: `sched` may be
    /// held when taking this lock, never the reverse.
    resume: Mutex<VecDeque<Pid>>,
    resume_cv: Condvar,
    /// Length of `resume`, written under its lock. Read without it (hence
    /// `Relaxed`: a hint that publishes nothing) so a worker finding the
    /// queue empty takes no lock.
    resume_len: AtomicUsize,
    /// Workers inside the bounded poll of [`Engine::next_resume`]. A hint:
    /// while one is polling it will find any new entry within a
    /// [`POLL_SPACING`], so nobody needs to be woken.
    pollers: AtomicUsize,
    /// Workers blocked in `resume_cv.wait` that no `notify_one` has
    /// claimed yet. Written only under the `resume` lock, read without it
    /// as a hint.
    sleepers: AtomicUsize,
    /// Set (under the `resume` lock) once the last process finished or a
    /// worker spawn failed; workers exit when they find nothing to run.
    shutdown: AtomicBool,
}

/// What the thread issuing a wake does next, which decides whether the
/// grant it leaves in its run-next slot is worth a `futex_wake`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waker {
    /// Keeps executing its coroutine (token release): the entry waits
    /// for as long as that compute segment lasts unless another worker
    /// takes it.
    Runs,
    /// Parks or finishes right after: its own worker is free to drain
    /// the slot within nanoseconds.
    Parks,
}

/// Spacing of an idle worker's polls, which is also the age a run-next
/// entry must reach before it is stolen (seen unchanged on two
/// consecutive polls). A steal moves the whole chain of grants, and the
/// engine's working set behind it, to the thief's cache: on
/// `datacenter_day` under `parallel:1` (two cores, `wall_mt_s`, sequential
/// 0.083 s) a 0.25 µs spacing steals 3.6 k grants a day and reads 0.146 s,
/// 1 µs 1.6 k and 0.117 s, 4 µs 290 and 0.099 s, 16 µs 0.092 s, 64 µs
/// 0.091 s; `comet_sixteenth` reads 0.63 / 0.46 / 0.38 / 0.36 s at
/// 1 / 4 / 16 / 64 µs. About 25 µs per steal, so an entry younger than
/// that is cheaper left to its owner; `reduce64` and `pagerank16`, whose
/// segments run for far longer, do not move between 1 and 64 µs.
const POLL_SPACING: Duration = Duration::from_micros(16);
/// Polls without work before a worker sleeps on the condvar (about
/// 4 ms). Same measurement at 16 µs: 64 rounds read 0.097 s (a sleeper
/// costs its waker a `futex_wake` and comes back a scheduling latency
/// later), 256 and 1,000 rounds both 0.093 s.
const POLL_ROUNDS: u32 = 256;

thread_local! {
    /// The engine and worker index this OS thread is running
    /// [`worker_loop`] for (null off the worker pool).
    static WORKER: Cell<(*const Engine, usize)> = const { Cell::new((std::ptr::null(), 0)) };
    /// Stamp of this thread's last run-next store.
    static STAMP: Cell<u32> = const { Cell::new(0) };
}

/// Worker index of the calling thread in `engine`, with a fresh stamp
/// for its run-next slot. Read at call time and never inlined: a wake
/// does not span a `suspend`, so a coroutine that migrated reads the
/// thread it is on *now*, provided the compiler cannot reuse a
/// thread-local address it computed before the switch
/// ([`crate::coro`] relies on the same property for `CURRENT`). The
/// thread coroutine backend runs process bodies on their own OS threads,
/// which are no workers: its wakes all take the shared queue.
#[inline(never)]
fn worker_here(engine: &Engine) -> Option<(usize, u32)> {
    let (e, w) = WORKER.with(Cell::get);
    if !std::ptr::eq(e, engine) {
        return None;
    }
    let stamp = STAMP.with(|s| {
        s.set(s.get().wrapping_add(1));
        s.get()
    });
    Some((w, stamp))
}

/// Marks the calling thread as worker `w` of an engine for its
/// lifetime, restoring the previous mark on drop (a process body may run
/// a nested `Sim` on its worker's thread).
struct WorkerScope {
    prev: (*const Engine, usize),
}

impl WorkerScope {
    fn enter(engine: &Engine, w: usize) -> WorkerScope {
        WorkerScope {
            prev: WORKER.with(|c| c.replace((engine, w))),
        }
    }
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        WORKER.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
thread_local! {
    /// `notify_one` calls the resume path made on this thread.
    static RESUME_NOTIFIES: Cell<u64> = const { Cell::new(0) };
    /// Acquisitions of the `resume` lock made on this thread.
    static RESUME_LOCKS: Cell<u64> = const { Cell::new(0) };
}

impl Engine {
    /// Hand `pid` a wake value, enqueuing its coroutine for resumption
    /// if it is parked. If the coroutine is currently running (e.g. it
    /// granted itself between pushing its ready-queue entry and
    /// parking), the value alone suffices: its park loop consumes it
    /// without suspending, or its worker re-enqueues it at switch-out.
    fn wake(&self, pid: Pid, clock: SimTime, reason: WakeReason, waker: Waker) {
        crate::selfprof::host_count(crate::selfprof::HostOp::Wake);
        if self.shards[pid.index()].slot.wake(clock, reason) {
            self.enqueue_resume(pid, waker);
        }
    }

    /// Make `pid`'s coroutine (parked, wake value pending) available to
    /// the worker pool. Go's `runnext` rule: the grant stays on the worker
    /// that made it, in `next[w]`, and that worker resumes it as soon as
    /// its current coroutine switches out; the shared queue only takes
    /// what the slot cannot.
    ///
    /// * **No lost wakeup, no starvation.** Progress never depends on a
    ///   steal or a notify: a worker drains its own slot every time its
    ///   coroutine switches out. An entry in the shared queue behind a
    ///   busy pool is reached as soon as the running chain parks, which it
    ///   must once it needs that process: the process is either in flight
    ///   (the frontier then blocks every later grant) or doomed by
    ///   deadlock teardown. The `futex_wake` is an optimization for
    ///   overlap: a waker that keeps running wakes one sleeper, and only
    ///   if nobody is already polling; a kick that falls between a
    ///   worker's last poll and its sleep costs overlap until the next
    ///   one, nothing else. Sequential mode (one worker, which is the
    ///   waker) never takes the lock or enters the kernel here.
    /// * **Ordering.** [`Engine::wake`] enqueues only a coroutine whose
    ///   previous worker already published [`PARKED`] with a `Release`
    ///   compare-exchange after saving its context, and the wake's
    ///   `Acquire` swap read that state ([`Slot`]); the `Release` store
    ///   below and the `Acquire` swap or compare-exchange that empties
    ///   `next[w]` carry it on to whichever worker resumes it (the
    ///   `resume` mutex does the same on the overflow path).
    /// * **Determinism.** Which worker resumes a coroutine, and when,
    ///   carries an already-committed grant to a core; it decides nothing
    ///   (DESIGN.md §12).
    fn enqueue_resume(&self, pid: Pid, waker: Waker) {
        if let Some((w, stamp)) = worker_here(self) {
            let slot = &self.next[w];
            // Only this thread fills `next[w]`: empty now means empty
            // until the store.
            if slot.load(Ordering::Relaxed) == 0 {
                slot.store(
                    u64::from(stamp) << 32 | (u64::from(pid.0) + 1),
                    Ordering::Release,
                );
                if waker == Waker::Runs
                    && self.pollers.load(Ordering::Relaxed) == 0
                    && self.sleepers.load(Ordering::Relaxed) > 0
                {
                    self.notify_sleeper(&self.lock_resume());
                }
                return;
            }
        }
        let mut q = self.lock_resume();
        q.push_back(pid);
        self.resume_len.store(q.len(), Ordering::Relaxed);
        // Two coroutines are runnable and the waker's worker takes one.
        if self.pollers.load(Ordering::Relaxed) == 0 {
            self.notify_sleeper(&q);
        }
    }

    fn lock_resume(&self) -> MutexGuard<'_, VecDeque<Pid>> {
        #[cfg(test)]
        RESUME_LOCKS.with(|c| c.set(c.get() + 1));
        self.resume.lock()
    }

    /// Wake one sleeping worker, if any. The sleeper is claimed here, at
    /// notify time, so that the wakes issued until it runs do not each
    /// notify it again. Needs the `resume` lock: a worker registers as a
    /// sleeper and starts waiting in one critical section, so under the
    /// lock `sleepers > 0` means a `notify_one` finds it.
    fn notify_sleeper(&self, _resume: &MutexGuard<'_, VecDeque<Pid>>) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.sleepers.fetch_sub(1, Ordering::Relaxed);
            crate::selfprof::host_count(crate::selfprof::HostOp::WorkerNotify);
            #[cfg(test)]
            RESUME_NOTIFIES.with(|c| c.set(c.get() + 1));
            self.resume_cv.notify_one();
        }
    }

    /// Signal the worker pool to exit once it runs out of work.
    fn shut_down(&self) {
        let _q = self.lock_resume();
        self.shutdown.store(true, Ordering::Release);
        self.resume_cv.notify_all();
    }

    /// One look for a coroutine worker `w` may resume: its own slot, the
    /// shared queue, then another worker's slot. `seen` holds the value
    /// this worker last saw in each other slot; it steals only an entry
    /// it sees unchanged on two consecutive looks, i.e. whose owner has
    /// been busy for a poll spacing since the grant. An engine-bound
    /// owner parks and takes its entry itself long before that; a
    /// compute-bound one loses it to the idle core, which is the overlap
    /// `Execution::Parallel` exists for.
    fn try_take(&self, w: usize, seen: &mut [u64]) -> Option<Pid> {
        use crate::selfprof::{host_count, HostOp};
        let unpack = |v: u64| Pid(v as u32 - 1);
        if self.next[w].load(Ordering::Relaxed) != 0 {
            let v = self.next[w].swap(0, Ordering::Acquire);
            if v != 0 {
                host_count(HostOp::ResumeLocal);
                return Some(unpack(v));
            }
        }
        if self.resume_len.load(Ordering::Relaxed) != 0 {
            let mut q = self.lock_resume();
            let pid = q.pop_front();
            self.resume_len.store(q.len(), Ordering::Relaxed);
            if pid.is_some() {
                host_count(HostOp::ResumeShared);
                return pid;
            }
        }
        for (v, slot) in self.next.iter().enumerate() {
            if v == w {
                continue;
            }
            let cur = slot.load(Ordering::Relaxed);
            if cur != 0
                && cur == seen[v]
                && slot
                    .compare_exchange(cur, 0, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                seen[v] = 0;
                host_count(HostOp::ResumeSteal);
                return Some(unpack(cur));
            }
            seen[v] = cur;
        }
        None
    }

    /// The next coroutine for worker `w` to resume, or `None` at
    /// shutdown. With nothing to take, the worker polls: one
    /// [`Engine::try_take`], one `yield_now` (so that on a host with no
    /// spare core the worker that has the work gets the time slice), a
    /// [`POLL_SPACING`] spin, for [`POLL_ROUNDS`] rounds; then it sleeps
    /// until a notify.
    fn next_resume(&self, w: usize, seen: &mut [u64]) -> Option<Pid> {
        // Apart from the poll so that a busy worker leaves `pollers` alone.
        if let Some(pid) = self.try_take(w, seen) {
            return Some(pid);
        }
        loop {
            self.pollers.fetch_add(1, Ordering::Relaxed);
            for _ in 0..POLL_ROUNDS {
                let found = self.try_take(w, seen);
                if found.is_some() || self.shutdown.load(Ordering::Acquire) {
                    self.pollers.fetch_sub(1, Ordering::Relaxed);
                    return found;
                }
                std::thread::yield_now();
                let t0 = Instant::now();
                while t0.elapsed() < POLL_SPACING {
                    std::hint::spin_loop();
                }
            }
            self.pollers.fetch_sub(1, Ordering::Relaxed);
            let mut q = self.lock_resume();
            // Under the lock, where a push or a shutdown cannot slip
            // between the check and the wait. A slot store can: see
            // `enqueue_resume`.
            if q.is_empty() && !self.shutdown.load(Ordering::Relaxed) {
                self.sleepers.fetch_add(1, Ordering::Relaxed);
                crate::selfprof::host_count(crate::selfprof::HostOp::WorkerSleep);
                self.resume_cv.wait(&mut q);
            }
        }
    }

    /// Grant the commit token to the next runnable process if the
    /// conservative frontier allows it; otherwise detect completion or
    /// deadlock. Caller holds the sched lock. Idempotent: safe to call
    /// after any state change that might enable a grant. `waker` says
    /// what the calling thread does after the dispatch.
    fn try_dispatch(&self, g: &mut Sched, waker: Waker) {
        if g.turn.is_some() || g.deadlocked {
            return;
        }
        loop {
            let cand = match g.runnable.peek_min() {
                None => break,
                Some(e) => e,
            };
            if g.procs[cand.pid.index()].gen != cand.gen {
                crate::selfprof::host_count(crate::selfprof::HostOp::QueuePop);
                g.runnable.pop_min(); // stale entry
                continue;
            }
            // Perturbation (conformance harness): defer this grant while
            // other processes are still in flight. The candidate remains
            // the minimum, so only the grant's wall-clock moment moves —
            // every in-flight process re-triggers dispatch when it aligns
            // or finishes, and holds stop once the in-flight set drains,
            // so progress (and the deadlock detector) is unaffected.
            if let Some(p) = &self.perturb {
                if !g.inflight.is_empty() && p.hold_grant(cand.time.nanos(), cand.pid.0, cand.gen) {
                    return;
                }
            }
            // Conservative lookahead frontier: an in-flight process q
            // re-enters the queue at some (t, q) with t >= lb_q. Grant
            // `cand` only if no such future entry could order before it;
            // otherwise wait for the in-flight set to drain. (A process
            // with a live queue entry is never itself in flight: aligning
            // leaves the set before it pushes.)
            if g.inflight
                .iter()
                .any(|&(q, lb)| (cand.time, cand.pid) >= (lb, q))
            {
                return;
            }
            crate::selfprof::host_count(crate::selfprof::HostOp::QueuePop);
            g.runnable.pop_min();
            let p = &mut g.procs[cand.pid.index()];
            match &p.status {
                Status::Ready => {
                    p.status = Status::Running;
                }
                Status::Blocked {
                    deadline: Some(_), ..
                } => {
                    // Generation matched, so this entry is the deadline
                    // pushed when blocking: the deadline fired before any
                    // matching message was delivered.
                    p.status = Status::Running;
                    p.wake_reason = WakeReason::Timeout;
                    p.clock = p.clock.max(cand.time);
                }
                _ => continue, // defensive: not grantable
            }
            crate::selfprof::host_count(crate::selfprof::HostOp::TokenGrant);
            g.turn = Some(cand.pid);
            let clock = p.clock;
            let reason = p.wake_reason;
            self.wake(cand.pid, clock, reason, waker);
            return;
        }
        // Nothing grantable. With compute still in flight this is a
        // transient state; with nothing in flight and live processes it
        // is a distributed deadlock.
        if g.inflight.is_empty() && g.live > 0 && !g.deadlocked {
            g.deadlocked = true;
            let mut diag = String::new();
            for (i, p) in g.procs.iter().enumerate() {
                if let Status::Blocked { spec, .. } = &p.status {
                    diag.push_str(&format!(
                        "{} ({}) blocked at {} on recv {:?}; ",
                        Pid(i as u32),
                        self.shards[i].name,
                        p.clock,
                        spec
                    ));
                }
            }
            let mut doomed = Vec::new();
            for (i, p) in g.procs.iter_mut().enumerate() {
                if matches!(p.status, Status::Blocked { .. }) {
                    p.status = Status::Running;
                    p.wake_reason = WakeReason::Deadlock;
                    doomed.push((Pid(i as u32), p.clock));
                }
            }
            for (pid, clock) in doomed {
                self.wake(pid, clock, WakeReason::Deadlock, waker);
            }
            // Stash the diagnostic through the panics channel.
            g.panics
                .push((Pid(u32::MAX), format!("deadlock: {diag}"), true));
        }
    }

    /// Deliver a message, waking the destination if it is blocked on a
    /// matching receive. Caller holds the sched lock (and the commit
    /// token).
    fn deliver(&self, g: &mut Sched, dst: Pid, msg: Message) {
        let arrival = msg.arrival;
        let p = &mut g.procs[dst.index()];
        match &p.status {
            Status::Done => {
                self.dropped_msgs.fetch_add(1, Ordering::Relaxed);
            }
            Status::Blocked { spec, .. } if spec.matches(&msg) => {
                p.status = Status::Ready;
                p.wake_reason = WakeReason::Message;
                // Clock stays at the block-time value; the receiver
                // recomputes its resume clock from the matched message.
                let t = p.clock.max(arrival);
                self.shards[dst.index()].mail.lock().mailbox.push_back(msg);
                Sched::push(g, dst, t);
            }
            _ => {
                self.shards[dst.index()].mail.lock().mailbox.push_back(msg);
            }
        }
    }

    /// Reserve `dur` on a device cell starting no earlier than `at`;
    /// returns the completion time. Caller holds the commit token, whose
    /// hand-off through the `sched` lock and the waker slot orders every
    /// access to the cell (as it does for `dropped_msgs` and
    /// `fault_seq`): a load and a store, no read-modify-write.
    fn reserve_cell(&self, cell: DeviceCell, at: SimTime, dur: SimDuration) -> SimTime {
        let free = match cell {
            DeviceCell::Nic(n) => &self.nodes[n.index()].nic_free,
            DeviceCell::Disk(n) => &self.nodes[n.index()].disk_free,
            DeviceCell::Nfs => &self.nfs_free,
        };
        let end = at.max(SimTime(free.load(Ordering::Relaxed))) + dur;
        free.store(end.nanos(), Ordering::Relaxed);
        end
    }
}

/// Per-process context handed to each process closure. All simulation
/// operations go through this handle. Engine, trace and fault-plan
/// handles are resolved once at spawn — the hot path clones no `Arc`s.
pub struct ProcCtx {
    engine: Arc<Engine>,
    world: Arc<World>,
    proc_nodes: Arc<Vec<NodeId>>,
    pid: Pid,
    node: NodeId,
    clock: SimTime,
    stats: ProcStats,
    /// Preresolved fault plan (None on clean runs).
    faults: Option<Arc<crate::faults::FaultPlan>>,
    /// Whether tracing is enabled for this run (resolved at spawn).
    tracing: bool,
    /// Per-process append-only trace buffer; merged into the shared
    /// [`crate::trace::Trace`] once, at process finish.
    trace_buf: Vec<TraceEvent>,
    /// Open phase spans: `(label, open time)`, innermost last. Always
    /// empty when tracing is off (the span API is a no-op then).
    span_stack: Vec<(Arc<str>, SimTime)>,
    /// Whether telemetry is enabled for this run (resolved at spawn).
    telemetry: bool,
    /// Per-process append-only metric-point buffer; merged into the
    /// engine's sink at process finish. Always empty when telemetry is
    /// off (the metric API is a no-op then).
    metric_buf: Vec<crate::telemetry::MetricPoint>,
    /// In-flight cap above which `release_turn` keeps the token; `0`
    /// encodes sequential mode, making release a no-op without a lock.
    release_cap: usize,
    /// Schedule perturbation (conformance harness; `None` on normal
    /// runs) plus a per-process visible-op counter salting its
    /// decisions. The counter is deterministic per process, so a seed
    /// replays the same decision sequence.
    perturb: Option<Arc<crate::perturb::Perturbation>>,
    perturb_ops: u64,
}

impl ProcCtx {
    /// This process's id.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The node this process is placed on.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Node a process is placed on.
    #[inline]
    pub fn node_of(&self, pid: Pid) -> NodeId {
        self.proc_nodes[pid.index()]
    }

    /// Whether `pid` shares this process's node.
    #[inline]
    pub fn is_local(&self, pid: Pid) -> bool {
        self.node_of(pid) == self.node
    }

    /// Total number of processes in the simulation.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.proc_nodes.len()
    }

    /// Current virtual time of this process.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Shared world state (topology + filesystem).
    #[inline]
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The simulated filesystem.
    #[inline]
    pub fn fs(&self) -> &SimFs {
        &self.world.fs
    }

    /// Statistics collected so far by this process.
    #[inline]
    pub fn stats(&self) -> &ProcStats {
        &self.stats
    }

    /// Append a span to this process's trace buffer (no locking; the
    /// buffer is merged into the shared trace at process finish).
    #[inline]
    fn trace_push(&mut self, start: SimTime, end: SimTime, kind: crate::trace::EventKind) {
        if self.tracing {
            self.trace_buf.push(TraceEvent {
                pid: self.pid,
                start,
                end,
                kind,
            });
        }
    }

    /// The simulation's fault plan, if one was installed.
    #[inline]
    pub fn fault_plan(&self) -> Option<&Arc<crate::faults::FaultPlan>> {
        self.faults.as_ref()
    }

    /// Whether tracing (and with it the span API) is active for this
    /// run. Lets callers skip building dynamic span labels when the
    /// result would be discarded.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.tracing
    }

    /// Whether telemetry (and with it the metric API) is active for this
    /// run. Lets callers skip building dynamic label strings when the
    /// point would be discarded.
    #[inline]
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry
    }

    /// Append one metric point to this process's buffer (no locking; the
    /// buffer is merged into the engine's sink at process finish).
    #[inline]
    fn metric_push(
        &mut self,
        name: impl Into<Arc<str>>,
        labels: impl Into<Arc<str>>,
        op: crate::telemetry::MetricOp,
    ) {
        let seq = self.metric_buf.len() as u32;
        self.metric_buf.push(crate::telemetry::MetricPoint {
            time: self.clock,
            pid: self.pid,
            seq,
            name: name.into(),
            labels: labels.into(),
            op,
        });
    }

    /// Add `v` to the `(name, labels)` counter at the current virtual
    /// time. Counters saturate; they never wrap. No-op — including the
    /// argument conversions — when telemetry is off.
    #[inline]
    pub fn metric_counter(
        &mut self,
        name: impl Into<Arc<str>>,
        labels: impl Into<Arc<str>>,
        v: u64,
    ) {
        if self.telemetry {
            self.metric_push(name, labels, crate::telemetry::MetricOp::CounterAdd(v));
        }
    }

    /// Set the `(name, labels)` gauge to `v` at the current virtual
    /// time. No-op when telemetry is off.
    #[inline]
    pub fn metric_gauge(&mut self, name: impl Into<Arc<str>>, labels: impl Into<Arc<str>>, v: u64) {
        if self.telemetry {
            self.metric_push(name, labels, crate::telemetry::MetricOp::GaugeSet(v));
        }
    }

    /// Record one observation `v` into the `(name, labels)` fixed-bucket
    /// histogram at the current virtual time. No-op when telemetry is
    /// off.
    #[inline]
    pub fn metric_observe(
        &mut self,
        name: impl Into<Arc<str>>,
        labels: impl Into<Arc<str>>,
        v: u64,
    ) {
        if self.telemetry {
            self.metric_push(name, labels, crate::telemetry::MetricOp::Observe(v));
        }
    }

    /// Open a nestable phase span at the current virtual time. The span
    /// is recorded into the trace as a [`crate::trace::EventKind::Phase`]
    /// when the matching [`ProcCtx::span_close`] runs (any spans still
    /// open when the process finishes are closed at its finish time).
    /// No-op — including the label conversion — when tracing is off.
    #[inline]
    pub fn span_open(&mut self, label: impl Into<Arc<str>>) {
        if self.tracing {
            self.span_stack.push((label.into(), self.clock));
        }
    }

    /// Like [`ProcCtx::span_open`] but the label is built lazily, so
    /// `format!`-style labels cost nothing when tracing is off.
    #[inline]
    pub fn span_open_with(&mut self, label: impl FnOnce() -> String) {
        if self.tracing {
            self.span_stack.push((label().into(), self.clock));
        }
    }

    /// Close the innermost open phase span, recording it as a trace
    /// event covering `[open, now]`. No-op when tracing is off or no
    /// span is open.
    #[inline]
    pub fn span_close(&mut self) {
        if !self.tracing {
            return;
        }
        if let Some((label, start)) = self.span_stack.pop() {
            let depth = self.span_stack.len() as u32;
            let end = self.clock;
            self.trace_buf.push(TraceEvent {
                pid: self.pid,
                start,
                end,
                kind: crate::trace::EventKind::Phase { label, depth },
            });
        }
    }

    /// Run `f` inside a phase span: `span_open(label)`, `f`, `span_close`.
    #[inline]
    pub fn span<R>(&mut self, label: impl Into<Arc<str>>, f: impl FnOnce(&mut ProcCtx) -> R) -> R {
        self.span_open(label);
        let out = f(self);
        self.span_close();
        out
    }

    /// Close every span still open (process finish / unwind path).
    fn close_all_spans(&mut self) {
        while !self.span_stack.is_empty() {
            self.span_close();
        }
    }

    /// Earliest scheduled crash of this process's node, if any. Server
    /// loops use this as a receive deadline so everything hosted on the
    /// node dies at the plan's crash time.
    pub fn node_crash_time(&self) -> Option<SimTime> {
        self.crash_time_of(self.node)
    }

    /// Earliest scheduled crash of `node`, if any.
    pub fn crash_time_of(&self, node: NodeId) -> Option<SimTime> {
        self.faults.as_ref().and_then(|p| p.crash_time(node))
    }

    /// Record a structured fault / recovery event in the trace (a
    /// zero-length instant at the current virtual time) and count it in
    /// this process's statistics.
    pub fn record_fault(&mut self, ev: crate::faults::FaultEvent) {
        let t = self.clock;
        self.record_fault_at(t, ev);
    }

    /// Like [`ProcCtx::record_fault`], but stamped at an explicit
    /// virtual time — possibly in this process's past. Runtimes that
    /// *learn* of a fault after it happened (a checkpointer detecting a
    /// planned node crash at its next poll) use this so the trace shows
    /// the crash at the instant the node died, which is what recovery
    /// SLOs (time-to-detect, time-to-recover) are measured against.
    pub fn record_fault_at(&mut self, at: SimTime, ev: crate::faults::FaultEvent) {
        self.stats.fault_events += 1;
        // Box the payload only when the trace keeps it.
        if self.tracing {
            self.trace_push(at, at, crate::trace::EventKind::Fault(Box::new(ev)));
        }
    }

    /// Advance this process's clock by modeled computation: `work` executed
    /// at `runtime_factor` times native single-core cost (see
    /// [`crate::RuntimeClass`]). Purely local — no synchronization; in
    /// parallel mode this is the code that overlaps across cores.
    pub fn compute(&mut self, work: Work, runtime_factor: f64) {
        let mut d = {
            let spec = &self.world.topology.node(self.node).spec;
            work.duration_on(spec, runtime_factor)
        };
        if let Some(plan) = &self.faults {
            let f = plan.compute_factor(self.node, self.clock);
            if f != 1.0 {
                d = SimDuration::from_nanos((d.nanos() as f64 * f).round() as u64);
            }
        }
        let t0 = self.clock;
        self.clock += d;
        self.stats.compute_time += d;
        self.trace_push(t0, self.clock, crate::trace::EventKind::Compute);
    }

    /// Advance this process's clock by a raw duration (framework-internal
    /// overheads). Purely local.
    pub fn advance(&mut self, d: SimDuration) {
        self.clock += d;
        self.stats.compute_time += d;
    }

    /// Advance the clock and yield, letting earlier processes run.
    pub fn sleep(&mut self, d: SimDuration) {
        self.clock += d;
        self.become_min();
        self.release_turn();
    }

    /// Align: enter the ready queue at the current clock and wait for the
    /// commit token, i.e. until this process is the minimum-time runnable
    /// process. Returns `false` if the simulation is tearing down from a
    /// deadlock (the caller must not touch shared state).
    fn align_quiet(&mut self) -> bool {
        let me = self.pid;
        // Perturbation (conformance harness): jitter the wall-clock
        // approach to the scheduler lock and sometimes force the slow
        // (queue + condvar) path even when the fast path would apply.
        // Both choices are inside the frontier rule's admitted set, so
        // virtual-time results cannot change.
        let mut force_slow_path = false;
        if let Some(p) = &self.perturb {
            self.perturb_ops += 1;
            p.jitter(me.0, self.perturb_ops);
            force_slow_path = p.defeat_fast_path(me.0, self.perturb_ops);
        }
        {
            let mut g = self.engine.sched.lock();
            if g.deadlocked {
                return false;
            }
            if g.turn == Some(me) {
                // Sequential mode (or a kept token): pass it through the
                // queue so the globally minimal process gets it next.
                g.turn = None;
            }
            g.inflight.retain(|&(q, _)| q != me);
            // Self-grant fast path: if this process would be the next
            // grant anyway — the token is free, every queued entry orders
            // after `(clock, me)`, and no in-flight frontier blocks us —
            // take the token directly, skipping the queue round-trip and
            // the condvar park/wake entirely. The grant decision is the
            // same one `try_dispatch` would make for our pushed entry, so
            // the schedule (and every virtual-time result) is unchanged.
            if g.turn.is_none() && !force_slow_path {
                // Clean stale heads so the comparison sees a live entry.
                while let Some(k) = g.runnable.peek_min() {
                    if g.procs[k.pid.index()].gen != k.gen {
                        g.runnable.pop_min();
                    } else {
                        break;
                    }
                }
                let head_after_me = g
                    .runnable
                    .peek_min()
                    .is_none_or(|k| (k.time, k.pid) > (self.clock, me));
                if head_after_me
                    && !g
                        .inflight
                        .iter()
                        .any(|&(q, lb)| (self.clock, me) >= (lb, q))
                {
                    let p = &mut g.procs[me.index()];
                    p.clock = self.clock;
                    p.status = Status::Running;
                    p.wake_reason = WakeReason::Turn;
                    g.turn = Some(me);
                    return true;
                }
            }
            {
                let p = &mut g.procs[me.index()];
                p.clock = self.clock;
                p.status = Status::Ready;
                p.wake_reason = WakeReason::Turn;
            }
            Sched::push(&mut g, me, self.clock);
            self.engine.try_dispatch(&mut g, Waker::Parks);
        }
        let (clock, reason) = self.engine.shards[me.index()].slot.park();
        self.clock = clock;
        reason != WakeReason::Deadlock
    }

    /// Yield until this process is the minimum-time runnable process and
    /// holds the commit token. All operations with global effects call
    /// this first, which is what makes resource-reservation order
    /// independent of OS scheduling.
    fn become_min(&mut self) {
        if !self.align_quiet() {
            panic::panic_any(DeadlockNote(format!(
                "{} woken during deadlock teardown",
                self.pid
            )));
        }
    }

    /// Release the commit token after a visible operation's shared-state
    /// mutation, entering the in-flight set so the next compute segment
    /// can overlap with other processes. No-op in sequential mode (the
    /// token is kept until the next [`ProcCtx::become_min`]) — and the
    /// no-op is lock-free: `release_cap == 0` encodes sequential.
    fn release_turn(&mut self) {
        if self.release_cap == 0 {
            return; // sequential: keep the token; the next align passes it
        }
        // Perturbation (conformance harness): sometimes keep the token
        // through the next compute segment — exactly the legal behaviour
        // the engine already exhibits when the in-flight cap is reached.
        if let Some(p) = &self.perturb {
            self.perturb_ops += 1;
            if p.keep_token(self.pid.0, self.perturb_ops) {
                return;
            }
        }
        let mut g = self.engine.sched.lock();
        if g.deadlocked {
            return;
        }
        debug_assert_eq!(g.turn, Some(self.pid), "token released by non-holder");
        if g.inflight.len() >= self.release_cap {
            return; // keep the token; the next align passes it on
        }
        crate::selfprof::host_count(crate::selfprof::HostOp::TokenRelease);
        g.turn = None;
        g.inflight.push((self.pid, self.clock));
        self.engine.try_dispatch(&mut g, Waker::Runs);
    }

    /// Run `f` inside this process's next commit window: at a
    /// deterministic point in the global visible-operation order, with
    /// the commit token held. Frameworks use this to order side effects
    /// on state shared *outside* the engine (symmetric heaps, RMA
    /// windows) so parallel execution cannot reorder them.
    pub fn ordered<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.become_min();
        let out = f();
        self.release_turn();
        out
    }

    /// Send a message. The sender is charged the transport's endpoint CPU
    /// cost; the payload then occupies the sender NIC (serialized with
    /// other transfers from this node) and arrives `latency` later.
    /// Intra-node messages skip the NIC.
    pub fn send(
        &mut self,
        dst: Pid,
        tag: Tag,
        bytes: u64,
        payload: Payload,
        transport: &Transport,
    ) {
        let cpu = transport.endpoint_cpu(transport.send_overhead, bytes);
        let t0 = self.clock;
        self.clock += cpu;
        self.stats.compute_time += cpu;
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes;
        self.trace_push(t0, self.clock, crate::trace::EventKind::Send { dst, bytes });
        self.become_min();
        self.send_commit(dst, tag, bytes, payload, transport);
    }

    /// The commit-window part of a send (token held): NIC reservation,
    /// fault decisions, delivery, token release.
    fn send_commit(
        &mut self,
        dst: Pid,
        tag: Tag,
        bytes: u64,
        payload: Payload,
        transport: &Transport,
    ) {
        let sent_at = self.clock;
        let dst_node = self.proc_nodes[dst.index()];
        let same_node = dst_node == self.node;
        let wire = transport.wire_time(bytes);
        let mut arrival = if same_node {
            sent_at + transport.latency + wire
        } else {
            self.engine
                .reserve_cell(DeviceCell::Nic(self.node), sent_at, wire)
                + transport.latency
        };
        // Fault injection, inside the commit window so every decision
        // (and the drop-hash sequence number) lands at a deterministic
        // point of the global order. Intra-node loopback is immune.
        if !same_node {
            if let Some(plan) = self.faults.clone() {
                use crate::faults::{FaultEvent, LinkFault};
                let delayed = |ctx: &mut ProcCtx, ev: FaultEvent, delay: SimDuration| {
                    ctx.stats.fault_delay += delay;
                    ctx.record_fault(ev);
                };
                match plan.link_fault(self.node, dst_node, sent_at) {
                    Some((LinkFault::Degrade(f), _)) => {
                        let base = wire + transport.latency;
                        let delay = SimDuration::from_nanos(
                            (base.nanos() as f64 * (f - 1.0)).round() as u64,
                        );
                        arrival += delay;
                        let ev = FaultEvent::LinkDegraded {
                            dst_node,
                            bytes,
                            delay,
                        };
                        delayed(self, ev, delay);
                    }
                    Some((LinkFault::Partition, until)) => {
                        let healed = until + plan.retransmit();
                        if healed > arrival {
                            let delay = healed - arrival;
                            arrival = healed;
                            let ev = FaultEvent::LinkPartitioned {
                                dst_node,
                                bytes,
                                delay,
                            };
                            delayed(self, ev, delay);
                        }
                    }
                    None => {}
                }
                if plan.has_drops() {
                    let seq = self.engine.fault_seq.fetch_add(1, Ordering::Relaxed);
                    if plan.should_drop(seq) {
                        let delay = plan.retransmit();
                        arrival += delay;
                        let ev = FaultEvent::MessageDropped { dst, bytes, delay };
                        delayed(self, ev, delay);
                    }
                }
            }
        }
        let recv_cost = transport.endpoint_cpu(transport.recv_overhead, bytes);
        let msg = Message {
            src: self.pid,
            dst,
            tag,
            bytes,
            payload,
            sent_at,
            arrival,
            recv_cost,
        };
        {
            let mut g = self.engine.sched.lock();
            self.engine.deliver(&mut g, dst, msg);
        }
        self.release_turn();
    }

    fn take_match(&mut self, spec: MatchSpec) -> Option<Message> {
        let mut m = self.engine.shards[self.pid.index()].mail.lock();
        let best = m
            .mailbox
            .iter()
            .enumerate()
            .filter(|(_, m)| spec.matches(m))
            .min_by_key(|(i, m)| (m.arrival, *i))
            .map(|(i, _)| i);
        best.and_then(|i| m.mailbox.remove(i))
    }

    fn finish_recv(&mut self, msg: Message, blocked_since: SimTime) -> Message {
        let resume = self.clock.max(msg.arrival);
        self.stats.wait_time += resume - blocked_since;
        self.clock = resume + msg.recv_cost;
        self.stats.compute_time += msg.recv_cost;
        self.stats.msgs_recvd += 1;
        self.stats.bytes_recvd += msg.bytes;
        self.trace_push(
            blocked_since,
            self.clock,
            crate::trace::EventKind::Recv {
                src: msg.src,
                bytes: msg.bytes,
            },
        );
        msg
    }

    /// Receive the earliest-arriving message matching `spec`, blocking in
    /// virtual time until one is delivered. Panics (unwinding the whole
    /// simulation with a diagnostic) if no such message can ever arrive.
    pub fn recv(&mut self, spec: MatchSpec) -> Message {
        self.recv_deadline(spec, None)
            .expect("recv without deadline cannot time out")
    }

    /// Like [`ProcCtx::recv`] but gives up at virtual `deadline`.
    pub fn recv_timeout(
        &mut self,
        spec: MatchSpec,
        timeout: SimDuration,
    ) -> Result<Message, RecvTimeout> {
        let deadline = self.clock + timeout;
        self.recv_deadline(spec, Some(deadline))
    }

    /// Like [`ProcCtx::recv`] but gives up at an absolute virtual deadline.
    pub fn recv_deadline(
        &mut self,
        spec: MatchSpec,
        deadline: Option<SimTime>,
    ) -> Result<Message, RecvTimeout> {
        let blocked_since = self.clock;
        // Align first so the mailbox is inspected at a deterministic
        // point of the visible-operation order (identical in both
        // execution modes).
        self.become_min();
        if let Some(m) = self.take_match(spec) {
            let m = self.finish_recv(m, blocked_since);
            self.release_turn();
            return Ok(m);
        }
        // Block, handing the token back.
        let me = self.pid;
        {
            let mut g = self.engine.sched.lock();
            if g.deadlocked {
                drop(g);
                panic::panic_any(DeadlockNote(format!(
                    "{} blocked during deadlock teardown",
                    self.pid
                )));
            }
            debug_assert_eq!(g.turn, Some(me), "blocking without the token");
            g.turn = None;
            {
                let p = &mut g.procs[me.index()];
                p.clock = self.clock;
                p.status = Status::Blocked { spec, deadline };
            }
            if let Some(d) = deadline {
                Sched::push(&mut g, me, d.max(self.clock));
            } else {
                // No queue entry: only a matching delivery can wake us.
                g.procs[me.index()].gen += 1;
            }
            self.engine.try_dispatch(&mut g, Waker::Parks);
        }
        let (clock, reason) = self.engine.shards[me.index()].slot.park();
        self.clock = clock;
        match reason {
            WakeReason::Message => {
                let m = self
                    .take_match(spec)
                    .expect("woken for message but no match in mailbox");
                let m = self.finish_recv(m, blocked_since);
                self.release_turn();
                Ok(m)
            }
            WakeReason::Timeout => {
                self.stats.wait_time += self.clock - blocked_since;
                self.release_turn();
                Err(RecvTimeout)
            }
            WakeReason::Deadlock => panic::panic_any(DeadlockNote(format!(
                "{} blocked on {:?} forever",
                self.pid, spec
            ))),
            WakeReason::Turn => unreachable!("blocked process woken with {reason:?}"),
        }
    }

    /// Non-blocking receive: a matching message whose arrival time is not
    /// after this process's current clock.
    pub fn try_recv(&mut self, spec: MatchSpec) -> Option<Message> {
        // Align so the arrival check happens at a deterministic point.
        self.become_min();
        let now = self.clock;
        let taken = {
            let mut m = self.engine.shards[self.pid.index()].mail.lock();
            let best = m
                .mailbox
                .iter()
                .enumerate()
                .filter(|(_, m)| spec.matches(m) && m.arrival <= now)
                .min_by_key(|(i, m)| (m.arrival, *i))
                .map(|(i, _)| i);
            best.and_then(|i| m.mailbox.remove(i))
        };
        let out = taken.map(|m| self.finish_recv(m, now));
        self.release_turn();
        out
    }

    /// One-sided RDMA transfer (OpenSHMEM put/get, MPI RMA): the initiator
    /// pays the endpoint overhead, occupies its NIC for the payload, and
    /// blocks until remote completion (`latency` after the last byte).
    /// The target process is never involved — its CPU clock is untouched,
    /// which is exactly what RDMA hardware offload buys.
    ///
    /// `round_trips` is 1 for a put and 2 for a get or a fetching atomic.
    pub fn one_sided_transfer(
        &mut self,
        target_node: NodeId,
        bytes: u64,
        transport: &Transport,
        round_trips: u32,
    ) {
        self.one_sided_transfer_with(target_node, bytes, transport, round_trips, || ());
    }

    /// [`ProcCtx::one_sided_transfer`] with a data-plane `effect` executed
    /// inside the commit window, after the transfer's completion time is
    /// known. Frameworks pass the actual memory mutation (symmetric-heap
    /// store, window accumulate) here so that remote-memory effects are
    /// applied in deterministic virtual-time order even when other
    /// processes compute concurrently.
    pub fn one_sided_transfer_with<R>(
        &mut self,
        target_node: NodeId,
        bytes: u64,
        transport: &Transport,
        round_trips: u32,
        effect: impl FnOnce() -> R,
    ) -> R {
        let cpu = transport.endpoint_cpu(transport.send_overhead, bytes);
        let t_op = self.clock;
        self.clock += cpu;
        self.stats.compute_time += cpu;
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes;
        self.become_min();
        let wire = transport.wire_time(bytes);
        let lat = SimDuration::from_nanos(transport.latency.nanos() * round_trips.max(1) as u64);
        if target_node == self.node {
            self.clock += lat + wire;
        } else {
            let wire_done = self
                .engine
                .reserve_cell(DeviceCell::Nic(self.node), self.clock, wire);
            self.clock = wire_done + lat;
        }
        let out = effect();
        let end = self.clock;
        self.trace_push(t_op, end, crate::trace::EventKind::OneSided { bytes });
        self.release_turn();
        out
    }

    /// Service duration of a device request at the current clock (the
    /// straggler fault factor is clock-dependent).
    fn device_io_dur(&self, bytes: u64, is_nfs: bool, is_write: bool) -> SimDuration {
        let spec: crate::topology::DiskSpec = if is_nfs {
            self.world.nfs
        } else {
            self.world.topology.node(self.node).spec.disk
        };
        let bw = if is_write {
            spec.write_bw
        } else {
            spec.read_bw
        };
        let mut dur = spec.request_overhead + SimDuration::from_secs_f64(bytes as f64 / bw);
        // A straggling node is slow at everything local, its scratch
        // disk included; the shared NFS server is unaffected.
        if !is_nfs {
            if let Some(plan) = &self.faults {
                let f = plan.compute_factor(self.node, self.clock);
                if f != 1.0 {
                    dur = SimDuration::from_nanos((dur.nanos() as f64 * f).round() as u64);
                }
            }
        }
        dur
    }

    /// Apply a blocking device request's local effects: wait + volume
    /// stats, clock advance to `finish`, trace span.
    fn apply_device_io(&mut self, bytes: u64, is_nfs: bool, is_write: bool, finish: SimTime) {
        self.stats.disk_time += finish - self.clock;
        let t0 = self.clock;
        self.clock = finish;
        if is_write {
            self.stats.disk_write_bytes += bytes;
        } else {
            self.stats.disk_read_bytes += bytes;
        }
        let kind = match (is_nfs, is_write) {
            (true, _) => crate::trace::EventKind::Nfs { bytes },
            (false, true) => crate::trace::EventKind::DiskWrite { bytes },
            (false, false) => crate::trace::EventKind::DiskRead { bytes },
        };
        self.trace_push(t0, finish, kind);
    }

    fn device_io(&mut self, bytes: u64, is_nfs: bool, is_write: bool) {
        self.become_min();
        let cell = if is_nfs {
            DeviceCell::Nfs
        } else {
            DeviceCell::Disk(self.node)
        };
        let dur = self.device_io_dur(bytes, is_nfs, is_write);
        let finish = self.engine.reserve_cell(cell, self.clock, dur);
        self.apply_device_io(bytes, is_nfs, is_write, finish);
        self.release_turn();
    }

    /// Read `bytes` from this node's scratch disk (serialized with other
    /// requests to the same device; the cost includes queueing).
    pub fn disk_read(&mut self, bytes: u64) {
        self.device_io(bytes, false, false);
    }

    /// Write `bytes` to this node's scratch disk.
    pub fn disk_write(&mut self, bytes: u64) {
        self.device_io(bytes, false, true);
    }

    /// Read `bytes` from the shared NFS server (one server, cluster-wide
    /// contention).
    pub fn nfs_read(&mut self, bytes: u64) {
        self.device_io(bytes, true, false);
    }

    /// Write `bytes` to the shared NFS server.
    pub fn nfs_write(&mut self, bytes: u64) {
        self.device_io(bytes, true, true);
    }

    /// Issue a *background* write of `bytes` to this node's scratch
    /// disk: the device is reserved (serialized with every other
    /// request to it, foreground or background) and the write appears
    /// in the trace, but the calling process does **not** block — its
    /// clock is unchanged and compute proceeds overlapped with the I/O.
    /// Returns the virtual time the write completes on the device;
    /// asynchronous checkpointing registers that instant as the drain
    /// watermark ([`crate::ckpt::DrainSchedule`]).
    ///
    /// Reservation happens inside a commit window (like every shared
    /// resource), so the returned completion time is bit-identical
    /// across execution modes. The queueing delay is *not* charged to
    /// this process's `disk_time` — it never waited — but the bytes
    /// count toward its write volume.
    pub fn disk_write_background(&mut self, bytes: u64) -> SimTime {
        self.become_min();
        // Straggling nodes drain slowly too (same rule as `device_io`).
        let dur = self.device_io_dur(bytes, false, true);
        let finish = self
            .engine
            .reserve_cell(DeviceCell::Disk(self.node), self.clock, dur);
        self.stats.disk_write_bytes += bytes;
        self.trace_push(
            self.clock,
            finish,
            crate::trace::EventKind::DiskWrite { bytes },
        );
        self.release_turn();
        finish
    }
}

type ProcFn = Box<dyn FnOnce(&mut ProcCtx) -> Box<dyn Any + Send> + Send>;

struct ProcSpawn {
    node: NodeId,
    name: String,
    f: ProcFn,
}

/// Simulation builder: define a topology, spawn processes, run.
pub struct Sim {
    world: Arc<World>,
    spawns: Vec<ProcSpawn>,
    exec: Execution,
}

/// Final report of one process.
#[derive(Debug)]
pub struct ProcReport {
    /// Process id.
    pub pid: Pid,
    /// Process name given at spawn.
    pub name: String,
    /// Node it ran on.
    pub node: NodeId,
    /// Virtual time its closure returned.
    pub finish: SimTime,
    /// Accumulated statistics.
    pub stats: ProcStats,
}

/// Result of a completed simulation.
pub struct SimReport {
    /// Per-process reports, indexed by pid.
    pub procs: Vec<ProcReport>,
    /// Per-process return values, indexed by pid.
    results: Vec<Option<Box<dyn Any + Send>>>,
    /// Messages that were sent to already-finished processes.
    pub dropped_msgs: u64,
    /// The execution trace, when tracing was enabled.
    pub trace: Option<Arc<crate::trace::Trace>>,
    /// Telemetry sampling interval this run used (`None` off; see
    /// [`crate::telemetry`]).
    pub telemetry_interval: Option<u64>,
    /// Metric points recorded by processes, in the canonical
    /// `(time, name, labels, pid, seq)` export order. Empty when
    /// telemetry is off.
    pub metric_points: Vec<crate::telemetry::MetricPoint>,
}

impl SimReport {
    /// The virtual time at which the last process finished — the paper's
    /// "execution time" of a run.
    pub fn makespan(&self) -> SimTime {
        self.procs
            .iter()
            .map(|p| p.finish)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Take the typed return value of one process.
    pub fn result<T: 'static>(&mut self, pid: Pid) -> T {
        *self.results[pid.index()]
            .take()
            .unwrap_or_else(|| panic!("{pid} produced no result or it was already taken"))
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("{pid} result is not a {}", std::any::type_name::<T>()))
    }

    /// Aggregate statistics over all processes.
    pub fn total_stats(&self) -> ProcStats {
        let mut total = ProcStats::default();
        for p in &self.procs {
            total.merge(&p.stats);
        }
        total
    }
}

impl Sim {
    /// New simulation over `topology`, using the process-wide default
    /// execution mode (see [`set_default_execution`]).
    pub fn new(topology: Topology) -> Sim {
        Sim {
            world: Arc::new(World::new(topology)),
            spawns: Vec::new(),
            exec: default_execution(),
        }
    }

    /// Choose the execution mode for this run. Both modes produce
    /// bit-identical virtual-time results; [`Execution::Parallel`]
    /// overlaps compute segments across cores.
    pub fn set_execution(&mut self, exec: Execution) {
        self.exec = exec;
    }

    /// The execution mode this run will use.
    pub fn execution(&self) -> Execution {
        self.exec
    }

    /// Access the world (to pre-populate the filesystem).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Turn on execution tracing for this run; every simulation-visible
    /// operation records a timeline span. Returns the trace handle (also
    /// available on the final [`SimReport`]).
    pub fn enable_tracing(&mut self) -> Arc<crate::trace::Trace> {
        self.world
            .trace
            .get_or_init(|| Arc::new(crate::trace::Trace::new()))
            .clone()
    }

    /// Install a fault plan for this run (see [`crate::FaultPlan`]): node
    /// crashes, stragglers, link faults and message drops, all scheduled
    /// in virtual time and replayed bit-identically in both execution
    /// modes. The first installed plan wins; later calls return it
    /// unchanged.
    pub fn set_fault_plan(
        &mut self,
        plan: crate::faults::FaultPlan,
    ) -> Arc<crate::faults::FaultPlan> {
        self.world.faults.get_or_init(|| Arc::new(plan)).clone()
    }

    /// Register a process on `node`. Processes start at virtual time zero
    /// in registration order. Returns the process id.
    pub fn spawn<T, F>(&mut self, node: NodeId, name: impl Into<String>, f: F) -> Pid
    where
        T: Send + 'static,
        F: FnOnce(&mut ProcCtx) -> T + Send + 'static,
    {
        assert!(
            node.index() < self.world.topology.len(),
            "spawn on unknown {node}"
        );
        let pid = Pid(self.spawns.len() as u32);
        self.spawns.push(ProcSpawn {
            node,
            name: name.into(),
            f: Box::new(move |ctx| Box::new(f(ctx)) as Box<dyn Any + Send>),
        });
        pid
    }

    /// Run the simulation to completion and return the report.
    ///
    /// Panics if any process panicked (with that panic's message) or if a
    /// distributed deadlock was detected (with a per-process diagnostic).
    pub fn run(self) -> SimReport {
        let n = self.spawns.len();
        assert!(n > 0, "simulation has no processes");
        // When a run capture is active (bench bins building a RunReport),
        // force tracing on so the capture sees the full event stream. One
        // relaxed atomic load on the cold setup path; nothing on the hot
        // path changes.
        let capturing = crate::observe::capture_active();
        if capturing {
            self.world
                .trace
                .get_or_init(|| Arc::new(crate::trace::Trace::new()));
        }
        // Telemetry feeds the capture (the obs layer builds time-series
        // from it), so it only collects while a capture window is open —
        // points recorded into the void would be dropped anyway.
        let telemetry_interval = if capturing {
            crate::telemetry::telemetry_interval()
        } else {
            None
        };
        let selfprof_t0 = crate::selfprof::selfprof_enabled().then(std::time::Instant::now);
        // A captured run carries its own profile rows: the counters'
        // growth from here to the end of the run.
        let selfprof_before =
            (capturing && selfprof_t0.is_some()).then(crate::selfprof::selfprof_snapshot);
        let proc_nodes: Arc<Vec<NodeId>> = Arc::new(self.spawns.iter().map(|s| s.node).collect());
        let nodes = self.world.topology.len();
        let release_cap = match self.exec {
            Execution::Sequential => 0,
            Execution::Parallel { threads } => threads,
        };
        // Worker pool size. The frontier rule caps concurrency at the
        // token holder plus `threads` in-flight compute segments, so that
        // is the worker count; sequential mode is the one-worker pool,
        // run on the calling thread: zero thread spawns per run.
        let workers = release_cap.saturating_add(1).min(512).min(n);
        let perturb = crate::perturb::current_perturbation();
        let engine = Arc::new(Engine {
            perturb: perturb.clone(),
            sched: Mutex::new(Sched {
                procs: (0..n)
                    .map(|_| SchedProc {
                        clock: SimTime::ZERO,
                        gen: 0,
                        status: Status::Ready,
                        wake_reason: WakeReason::Turn,
                    })
                    .collect(),
                runnable: CalendarQueue::new(),
                live: n,
                deadlocked: false,
                turn: None,
                inflight: Vec::new(),
                panics: Vec::new(),
            }),
            shards: self
                .spawns
                .iter()
                .map(|s| ProcShard {
                    name: s.name.clone(),
                    node: s.node,
                    slot: Slot::new(),
                    mail: Mutex::new(Mail {
                        mailbox: std::collections::VecDeque::new(),
                        finish: None,
                        stats: ProcStats::default(),
                    }),
                })
                .collect(),
            nodes: (0..nodes)
                .map(|_| NodeRes {
                    nic_free: AtomicU64::new(0),
                    disk_free: AtomicU64::new(0),
                })
                .collect(),
            nfs_free: AtomicU64::new(0),
            dropped_msgs: AtomicU64::new(0),
            fault_seq: AtomicU64::new(0),
            telemetry_interval,
            metric_sink: Mutex::new(Vec::new()),
            next: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            resume: Mutex::new(VecDeque::new()),
            resume_cv: Condvar::new(),
            resume_len: AtomicUsize::new(0),
            pollers: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });

        type ResultSlots = Vec<Option<Box<dyn Any + Send>>>;
        let results: Arc<Mutex<ResultSlots>> = Arc::new(Mutex::new((0..n).map(|_| None).collect()));

        // One coroutine per process, each running the full process body
        // on its own lazily-paged stack. Bodies start suspended; the
        // scheduler's first wake enqueues them for a worker.
        let specs: Vec<(String, Box<dyn FnOnce() + Send>)> = self
            .spawns
            .into_iter()
            .enumerate()
            .map(|(i, spawn)| {
                let pid = Pid(i as u32);
                let engine = engine.clone();
                let world = self.world.clone();
                let proc_nodes = proc_nodes.clone();
                let results = results.clone();
                let perturb = perturb.clone();
                let name = spawn.name;
                let body: Box<dyn FnOnce() + Send> = Box::new(move || {
                    // Wait for the first grant.
                    let (clock, reason) = engine.shards[pid.index()].slot.park();
                    let tracing = world.trace.get().is_some();
                    let faults = world.faults.get().cloned();
                    let mut ctx = ProcCtx {
                        engine: engine.clone(),
                        world,
                        proc_nodes,
                        pid,
                        node: spawn.node,
                        clock,
                        stats: ProcStats::default(),
                        faults,
                        tracing,
                        trace_buf: Vec::new(),
                        span_stack: Vec::new(),
                        telemetry: engine.telemetry_interval.is_some(),
                        metric_buf: Vec::new(),
                        release_cap,
                        perturb,
                        perturb_ops: 0,
                    };
                    if reason == WakeReason::Deadlock {
                        // Simulation tore down before we ever ran.
                        finish_proc(&engine, &mut ctx, None);
                        return;
                    }
                    // Process start commits nothing: release the token so
                    // starts overlap in parallel mode.
                    ctx.release_turn();
                    let f = spawn.f;
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                    match outcome {
                        Ok(val) => {
                            results.lock()[pid.index()] = Some(val);
                            finish_proc(&engine, &mut ctx, None);
                        }
                        Err(payload) => {
                            let (msg, was_deadlock) = describe_panic(payload.as_ref());
                            finish_proc(&engine, &mut ctx, Some((msg, was_deadlock)));
                        }
                    }
                });
                (name, body)
            })
            .collect();
        let coros = crate::coro::Coroutines::build(specs);

        // Enqueue every process at its start time and kick off the first
        // grant; this thread is no worker yet, so it lands on the shared
        // resume queue the workers drain below. Pids go in descending
        // order: processes mostly start together, and a calendar bucket
        // keeps its minimum at the end, so each key lands there in O(1)
        // where ascending order would shift the whole bucket. The pop
        // order is the same either way (the key ignores push order).
        {
            let mut g = engine.sched.lock();
            for i in (0..n).rev() {
                let t = g.procs[i].clock;
                Sched::push(&mut g, Pid(i as u32), t);
            }
            engine.try_dispatch(&mut g, Waker::Parks);
        }

        if workers <= 1 {
            worker_loop(&engine, &coros, 0);
        } else {
            std::thread::scope(|scope| {
                for w in 1..workers {
                    let engine = &engine;
                    let coros = &coros;
                    let spawned = std::thread::Builder::new()
                        .name(format!("sim-worker-{w}"))
                        .spawn_scoped(scope, move || worker_loop(engine, coros, w));
                    if let Err(e) = spawned {
                        // Let the already-spawned workers drain and exit
                        // before unwinding, or the scope join would hang.
                        engine.shut_down();
                        panic!(
                            "failed to spawn engine worker thread {w} of {workers} \
                             for {n} simulated processes: {e}"
                        );
                    }
                }
                worker_loop(&engine, &coros, 0);
            });
        }
        // Every enqueued coroutine was resumed exactly once: a stray entry
        // would be a second resume of a finished process waiting to happen.
        assert!(
            engine.next.iter().all(|s| s.load(Ordering::Relaxed) == 0)
                && engine.resume.lock().is_empty(),
            "resume path not drained at shutdown"
        );
        drop(coros);

        let g = engine.sched.lock();
        // Report application panics first; deadlock only if nothing else.
        if let Some((pid, msg, _)) = g
            .panics
            .iter()
            .find(|(_, _, was_deadlock)| !*was_deadlock)
            .cloned()
        {
            panic!("simulated process {pid} panicked: {msg}");
        }
        if let Some((_, msg, _)) = g.panics.first().cloned() {
            panic!("{msg}");
        }
        let procs = engine
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let m = s.mail.lock();
                ProcReport {
                    pid: Pid(i as u32),
                    name: s.name.clone(),
                    node: s.node,
                    finish: m.finish.unwrap_or(g.procs[i].clock),
                    stats: m.stats.clone(),
                }
            })
            .collect();
        let dropped = engine.dropped_msgs.load(Ordering::Relaxed);
        drop(g);
        let results = Arc::try_unwrap(results)
            .map(|m| m.into_inner())
            .unwrap_or_else(|arc| {
                let mut g = arc.lock();
                g.iter_mut().map(|o| o.take()).collect()
            });
        let mut metric_points = std::mem::take(&mut *engine.metric_sink.lock());
        crate::telemetry::sort_points(&mut metric_points);
        let run_wall_ns = selfprof_t0.map(|t0| t0.elapsed().as_nanos() as u64);
        if let Some(ns) = run_wall_ns {
            crate::selfprof::add_run_wall_ns(ns);
        }
        let report = SimReport {
            procs,
            results,
            dropped_msgs: dropped,
            trace: self.world.trace.get().cloned(),
            telemetry_interval: engine.telemetry_interval,
            metric_points,
        };
        if capturing {
            let host_profile = selfprof_before
                .zip(run_wall_ns)
                .map(|(before, ns)| crate::selfprof::run_profile(&before, ns));
            crate::observe::record_run(&report, self.world.topology.len(), host_profile);
        }
        report
    }
}

fn describe_panic(payload: &(dyn Any + Send)) -> (String, bool) {
    if let Some(note) = payload.downcast_ref::<DeadlockNote>() {
        (note.0.clone(), true)
    } else if let Some(sa) = payload.downcast_ref::<crate::abort::StructuredAbort>() {
        // Keep the machine-recognizable marker: `Sim::run` re-panics
        // with this string and `StructuredAbort::from_message` parses
        // it back out (see `crate::abort`).
        (sa.to_string(), false)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        ((*s).to_string(), false)
    } else if let Some(s) = payload.downcast_ref::<String>() {
        (s.clone(), false)
    } else {
        ("<non-string panic payload>".to_string(), false)
    }
}

fn finish_proc(engine: &Arc<Engine>, ctx: &mut ProcCtx, panic_info: Option<(String, bool)>) {
    let pid = ctx.pid;
    if panic_info.is_none() {
        // Normal completion is itself a visible event: align so the
        // transition to Done happens at a deterministic point of the
        // global order (e.g. whether a message to this process is
        // dropped must not depend on wall-clock scheduling). During
        // deadlock teardown the alignment is skipped.
        let _ = ctx.align_quiet();
    }
    // Merge this process's trace buffer into the shared trace exactly
    // once. Export order is recovered by the sort in `sorted_events`, so
    // the append order across processes is irrelevant. Spans left open
    // (early return, panic unwind) close at the finish time first so the
    // exported trace only ever contains well-formed phase events.
    ctx.close_all_spans();
    if ctx.tracing {
        if let Some(tr) = ctx.world.trace.get() {
            tr.absorb(std::mem::take(&mut ctx.trace_buf));
        }
    }
    if !ctx.metric_buf.is_empty() {
        engine
            .metric_sink
            .lock()
            .append(&mut std::mem::take(&mut ctx.metric_buf));
    }
    {
        let mut m = engine.shards[pid.index()].mail.lock();
        m.finish = Some(ctx.clock);
        m.stats = std::mem::take(&mut ctx.stats);
    }
    let mut g = engine.sched.lock();
    if g.turn == Some(pid) {
        g.turn = None;
    }
    g.inflight.retain(|&(q, _)| q != pid);
    {
        let p = &mut g.procs[pid.index()];
        p.status = Status::Done;
        p.clock = ctx.clock;
        p.gen += 1; // invalidate any stale queue entries
    }
    if let Some((msg, was_deadlock)) = panic_info {
        g.panics.push((pid, msg, was_deadlock));
    }
    g.live -= 1;
    if g.live == 0 {
        // Last process: signal the worker pool to exit once the queue
        // drains. This coroutine performs no further visible operation
        // (its results are already stored), so it runs straight to
        // completion and its worker observes the shutdown.
        engine.shut_down();
    } else if !g.deadlocked {
        engine.try_dispatch(&mut g, Waker::Parks);
    }
}

/// Worker `w` of the pool: resume coroutines as [`Engine::next_resume`]
/// hands them out, each until its next suspension. Runs on the calling
/// thread in sequential mode (the one-worker pool) and on it plus the
/// spawned workers otherwise; exits at shutdown.
fn worker_loop(engine: &Engine, coros: &crate::coro::Coroutines, w: usize) {
    let _scope = WorkerScope::enter(engine, w);
    let mut seen = vec![0u64; engine.next.len()];
    while let Some(pid) = engine.next_resume(w, &mut seen) {
        crate::selfprof::host_count(crate::selfprof::HostOp::CoroResume);
        match coros.resume(pid.index()) {
            crate::coro::SwitchOut::Done => {}
            crate::coro::SwitchOut::Parked => {
                // Publish the parked state — or, if a wake raced in
                // between the coroutine's last state check and its
                // context save, re-enqueue it ourselves (the waker saw
                // `RUNNING` and deliberately left that to us).
                if engine.shards[pid.index()].slot.publish_park() {
                    crate::selfprof::host_count(crate::selfprof::HostOp::Park);
                } else {
                    engine.enqueue_resume(pid, Waker::Parks);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping_pong(rounds: u32) -> Sim {
        let mut sim = Sim::new(Topology::comet(2));
        sim.set_execution(Execution::Sequential);
        let tr = Transport::ipoib_socket();
        for i in 0..2u32 {
            sim.spawn(NodeId(i), format!("p{i}"), move |ctx| {
                let peer = Pid(1 - i);
                for round in 0..rounds {
                    if round % 2 == i {
                        ctx.send(peer, 7, 64, Payload::Empty, &tr);
                    } else {
                        ctx.recv(MatchSpec::tag(7));
                    }
                }
            });
        }
        sim
    }

    /// Sequential mode is the one-worker pool on the calling thread: every
    /// grant after the first goes through that worker's run-next slot, so
    /// the `resume` lock is taken for the first grant (push and pop) and
    /// for shutdown, however long the run, and nothing is ever notified.
    #[test]
    fn sequential_mode_resumes_without_the_lock_or_the_kernel() {
        let counts = |rounds| {
            let sim = ping_pong(rounds);
            let before = (
                RESUME_LOCKS.with(Cell::get),
                RESUME_NOTIFIES.with(Cell::get),
            );
            assert!(sim.run().makespan() > SimTime::ZERO);
            (
                RESUME_LOCKS.with(Cell::get) - before.0,
                RESUME_NOTIFIES.with(Cell::get) - before.1,
            )
        };
        let (locks, notifies) = counts(200);
        assert_eq!(notifies, 0);
        // The thread coroutine backend runs process bodies off the worker
        // thread, where these thread-local counts do not see them and
        // every wake takes the shared queue.
        if crate::coro::use_asm_backend() {
            assert_eq!(locks, 3);
            assert_eq!(counts(20), (3, 0));
        }
    }

    /// Deadlock teardown wakes every blocked process from one dispatch:
    /// with more of them than workers, all but the first overflow the
    /// waker's run-next slot into the shared queue. Each must still be
    /// resumed exactly once, and the diagnostic must not depend on the
    /// mode.
    #[test]
    fn deadlock_teardown_overflows_the_slot_and_reports_the_same_in_every_mode() {
        let diagnostic = |exec: Execution| {
            let mut sim = Sim::new(Topology::comet(2));
            sim.set_execution(exec);
            for i in 0..12u32 {
                sim.spawn(NodeId(i % 2), format!("stuck{i}"), move |ctx| {
                    ctx.sleep(SimDuration::from_nanos(u64::from(i) * 10));
                    ctx.recv(MatchSpec::tag(100 + Tag::from(i)));
                });
            }
            let err = panic::catch_unwind(AssertUnwindSafe(|| sim.run()))
                .err()
                .expect("twelve receives nobody sends to must deadlock");
            describe_panic(err.as_ref()).0
        };
        let locks = RESUME_LOCKS.with(Cell::get);
        let want = diagnostic(Execution::Sequential);
        // The last process to block runs the teardown and consumes its
        // own wake without parking; of the other eleven, one fits the
        // slot: ten pushes and ten pops on top of the usual three.
        if crate::coro::use_asm_backend() {
            assert_eq!(RESUME_LOCKS.with(Cell::get) - locks, 23);
        }
        assert!(want.starts_with("deadlock: "), "{want}");
        assert_eq!(want.matches("blocked at").count(), 12, "{want}");
        for exec in [
            Execution::Parallel { threads: 1 },
            Execution::Parallel { threads: 2 },
        ] {
            assert_eq!(diagnostic(exec), want, "under {exec:?}");
        }
    }

    /// A fresh slot is parked: the coroutine has not run yet, so its
    /// first wake must enqueue it.
    #[test]
    fn a_fresh_slot_is_parked_so_its_first_wake_enqueues() {
        let slot = Slot::new();
        assert_eq!(slot.state.load(Ordering::Relaxed), PARKED);
        assert!(slot.wake(SimTime(5), WakeReason::Turn));
        assert_eq!(slot.state.load(Ordering::Relaxed), VALUE);
    }

    /// A wake that lands while the coroutine runs leaves the enqueue to
    /// its worker: the wake does not enqueue, the worker's publish then
    /// fails (it re-enqueues), and the resumed park finds the value.
    #[test]
    fn a_wake_while_running_does_not_enqueue_and_the_next_publish_fails() {
        let slot = Slot::new();
        assert!(slot.wake(SimTime(1), WakeReason::Turn));
        assert_eq!(slot.park(), (SimTime(1), WakeReason::Turn));
        assert_eq!(slot.state.load(Ordering::Relaxed), RUNNING);
        assert!(!slot.wake(SimTime(2), WakeReason::Message));
        assert!(
            !slot.publish_park(),
            "a pending value must fail the publish"
        );
        assert_eq!(slot.state.load(Ordering::Relaxed), VALUE);
        assert_eq!(slot.park(), (SimTime(2), WakeReason::Message));
        // Without a racing wake the publish succeeds and the next wake
        // enqueues again.
        assert!(slot.publish_park());
        assert!(slot.wake(SimTime(3), WakeReason::Timeout));
    }

    /// Park consumes a pending value without suspending: outside a
    /// coroutine `coro::suspend` panics, so a park that returns here
    /// never tried. Every reason survives the trip through the `u8` cell.
    #[test]
    fn park_consumes_a_pending_value_without_suspending() {
        let slot = Slot::new();
        for (i, reason) in [
            WakeReason::Turn,
            WakeReason::Message,
            WakeReason::Timeout,
            WakeReason::Deadlock,
        ]
        .into_iter()
        .enumerate()
        {
            let at = SimTime(u64::MAX - i as u64);
            slot.wake(at, reason);
            assert_eq!(slot.park(), (at, reason));
            assert_eq!(slot.state.load(Ordering::Relaxed), RUNNING);
        }
    }
}
