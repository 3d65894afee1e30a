//! The conservative virtual-time execution engine.
//!
//! Every simulated process is a stackful coroutine (the private `coro`
//! module) executing real Rust code — a few hundred KiB of lazily-paged stack
//! instead of the 2 MiB OS thread of earlier versions, which is what
//! lets a full SDSC Comet (1984 nodes x 24 ≈ 48k processes) run on a
//! laptop-class host. The engine enforces a single invariant:
//! **whenever a process performs a simulation-visible operation
//! (message send/delivery, disk reservation, sleep), it is the process
//! with the minimum virtual clock among all runnable processes, and
//! those commit windows are totally ordered.** The commit token is
//! passed through explicit per-process wakers: a wake stores the grant
//! in the process's slot and leaves its coroutine in the engine's
//! run-next cell, which the resume loop empties; parking is an
//! in-process context switch, not a condvar wait. The ready queue is a
//! calendar bucket queue ([`crate::queue::CalendarQueue`]) ordered by
//! `(virtual time, pid, generation)`, a key chosen to be independent of
//! the wall-clock order in which entries are pushed.
//!
//! Between simulation-visible operations a process runs arbitrary real
//! computation and advances its own clock locally ([`ProcCtx::compute`])
//! at zero synchronization cost; the conservative yield happens lazily
//! at the next visible operation.
//!
//! # One engine
//!
//! At most one process executes at a time. A process keeps the token
//! from its commit window through the following compute segment, exactly
//! like a classic baton-passing conservative simulator, and the thread
//! that called [`Sim::run`] resumes every coroutine. A parallel mode
//! that released the token after each commit so compute segments could
//! overlap on other cores was measured slower than this schedule on
//! every benchmark workload and removed (DESIGN.md §7).
//!
//! # Host-performance structure (DESIGN.md §9)
//!
//! The engine is single-threaded by construction: the thread that
//! called [`Sim::run`] resumes every coroutine, process bodies are not
//! `Send`, and a [`ProcCtx`] holds its engine through an `Rc`. So no
//! engine state is behind a lock or an atomic; every mutation happens
//! inside a commit window (token held), which orders it, and a
//! `RefCell` borrow never outlives a switch-out. State is split by
//! owner:
//!
//! * `sched` — the scheduler state proper (ready queue, token,
//!   per-process scheduling cells), with an O(1)-amortized calendar
//!   queue and a *self-grant fast path* that skips the queue and the
//!   park/wake round-trip entirely when the aligning process is already
//!   globally minimal.
//! * per-process mail shards — mailbox, final stats, finish time and
//!   return value. Mailbox scans (`recv` matching, `try_recv` polling)
//!   touch only the owning process's shard.
//! * per-node device cells — NIC and scratch-disk next-free times; a
//!   separate cell for the shared NFS server.
//! * per-process waker slots — one state word per process (running,
//!   parked, value pending) and the wake value it guards.
//!
//! A traced run appends every process's events to one run-wide buffer
//! on the engine, and their labels and fault events to one
//! [`crate::trace::TraceTables`], so tracing costs one `Vec::push` of a
//! 40 B event on the hot path and nothing at process finish. At the end
//! of the run the buffer moves, uncopied, to the run capture — put into
//! export order in place by [`crate::trace::sort_for_export`] — or to
//! the [`crate::trace::Trace`] of [`Sim::enable_tracing`] (DESIGN.md
//! §9). The caller's trace is filled before the run's panic checks, so
//! a run that panics still leaves its events there.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

use crate::cost::Work;
use crate::error::{DeadlockNote, RecvTimeout};
use crate::fs::SimFs;
use crate::message::{MatchSpec, Message, Payload, Tag};
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
    /// The trace of [`Sim::enable_tracing`], which receives the run's
    /// events at its end (empty unless that ran).
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
enum WakeReason {
    Turn,
    Message,
    Timeout,
    Deadlock,
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
/// guards. The state is [`SlotState::Running`] while the coroutine
/// executes, [`SlotState::Parked`] while it is suspended with nothing
/// pending, and [`SlotState::Value`] while a wake value waits to be
/// consumed. A wake that finds the
/// coroutine running (it granted itself between pushing its ready-queue
/// entry and parking) only stores the value, which the running park
/// consumes without suspending; a wake that finds it parked must
/// enqueue it for the resume loop.
struct Slot {
    state: Cell<SlotState>,
    /// The pending wake's clock.
    clock: Cell<SimTime>,
    /// The pending wake's reason.
    reason: Cell<WakeReason>,
}

/// [`Slot`] states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// The coroutine runs.
    Running,
    /// Suspended with no value; a wake must enqueue it.
    Parked,
    /// A wake value is pending.
    Value,
}

impl Slot {
    /// A slot in the [`SlotState::Parked`] state: a coroutine first runs when its
    /// first wake enqueues it.
    fn new() -> Slot {
        Slot {
            state: Cell::new(SlotState::Parked),
            clock: Cell::new(SimTime::ZERO),
            reason: Cell::new(WakeReason::Turn),
        }
    }

    /// Store a wake value. Returns true iff the coroutine was parked,
    /// i.e. the caller must enqueue it for resumption; otherwise it is
    /// running and consumes the value itself ([`Slot::park`]).
    fn wake(&self, clock: SimTime, reason: WakeReason) -> bool {
        self.clock.set(clock);
        self.reason.set(reason);
        let old = self.state.replace(SlotState::Value);
        debug_assert_ne!(old, SlotState::Value, "second wake before park");
        old == SlotState::Parked
    }

    /// Wait (in the coroutine sense) until a wake value is available.
    /// Must run inside this process's coroutine. If the value is already
    /// there, it is consumed without suspending at all. Nothing runs
    /// between marking the slot parked and the switch-out, so a wake
    /// cannot slip in unseen.
    fn park(&self) -> (SimTime, WakeReason) {
        while self.state.get() != SlotState::Value {
            self.state.set(SlotState::Parked);
            crate::selfprof::host_count(crate::selfprof::HostOp::Park);
            crate::coro::suspend();
        }
        self.state.set(SlotState::Running);
        (self.clock.get(), self.reason.get())
    }
}

/// Scheduling cell of one process: the fields the dispatcher reads and
/// writes through the `sched` borrow. Everything else a process owns
/// lives in its [`ProcShard`] or its `ProcCtx`.
struct SchedProc {
    clock: SimTime,
    gen: u64,
    status: Status,
    wake_reason: WakeReason,
}

/// Scheduler state: the one `RefCell` on the align/dispatch hot path.
struct Sched {
    procs: Vec<SchedProc>,
    runnable: CalendarQueue,
    live: usize,
    deadlocked: bool,
    /// Current commit-token holder: the one process allowed to mutate
    /// shared simulation state. `None` while the token is being passed.
    turn: Option<Pid>,
    /// (pid, message, was_deadlock) for every unwound process.
    panics: Vec<PanicRecord>,
}

impl Sched {
    /// Push `pid` as runnable at `time`, invalidating any earlier entry
    /// for it. Caller holds the `sched` borrow.
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
/// only touch inside commit windows.
struct ProcShard {
    name: String,
    node: NodeId,
    slot: Slot,
    mail: RefCell<Mail>,
}

struct Mail {
    mailbox: VecDeque<Message>,
    finish: Option<SimTime>,
    stats: ProcStats,
    /// The closure's return value, once it returned.
    result: Option<Box<dyn Any>>,
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
/// disk. Touched only by processes on (or transferring from) this node,
/// inside commit windows (see [`Engine::reserve_cell`]).
struct NodeRes {
    nic_free: Cell<SimTime>,
    disk_free: Cell<SimTime>,
}

struct Engine {
    sched: RefCell<Sched>,
    shards: Vec<ProcShard>,
    nodes: Vec<NodeRes>,
    /// Next-free time of the shared NFS server.
    nfs_free: Cell<SimTime>,
    /// Messages sent to processes that had already finished.
    dropped_msgs: Cell<u64>,
    /// Sequence numbers handed to inter-node messages for the fault
    /// plan's drop hash. Incremented inside send commit windows, which
    /// are totally ordered — the basis of faulty-run bit-determinism.
    /// Only advanced when the plan actually enables drops.
    fault_seq: Cell<u64>,
    /// Telemetry sampling interval resolved at run start (`None` off).
    /// Per-process contexts copy it into a `bool`; the report carries it
    /// so the observability layer knows the tick (see
    /// [`crate::telemetry`]).
    telemetry_interval: Option<u64>,
    /// Metric points absorbed from per-process buffers at finish.
    /// Export order is recovered by [`crate::telemetry::sort_points`],
    /// so the wall-clock absorb order is irrelevant.
    metric_sink: RefCell<Vec<crate::telemetry::MetricPoint>>,
    /// The run's trace events from every process, in execution order,
    /// and the tables their labels and fault events live in. Empty when
    /// tracing is off.
    trace: RefCell<(Vec<TraceEvent>, crate::trace::TraceTables)>,
    /// The run-next cell: a parked coroutine with a pending wake value,
    /// which [`Engine::drive`] resumes as soon as the running one
    /// switches out.
    next: Cell<Option<Pid>>,
    /// Overflow of the cell: wakes issued while it was full, which only
    /// deadlock teardown does (it wakes every blocked process from one
    /// dispatch). Drained after the cell, in push order.
    resume: RefCell<VecDeque<Pid>>,
}

#[cfg(test)]
thread_local! {
    /// Pushes onto the `resume` overflow queue made on this thread.
    static RESUME_OVERFLOWS: Cell<u64> = const { Cell::new(0) };
}

impl Engine {
    /// Hand `pid` a wake value, enqueuing its coroutine for resumption
    /// if it is parked. If the coroutine is currently running (it
    /// granted itself between pushing its ready-queue entry and
    /// parking), the value alone suffices: its park consumes it without
    /// suspending.
    fn wake(&self, pid: Pid, clock: SimTime, reason: WakeReason) {
        crate::selfprof::host_count(crate::selfprof::HostOp::Wake);
        if self.shards[pid.index()].slot.wake(clock, reason) {
            self.enqueue_resume(pid);
        }
    }

    /// Make `pid`'s coroutine (parked, wake value pending) the next one
    /// [`Engine::drive`] resumes: the run-next cell, or the overflow
    /// queue when the cell is full.
    fn enqueue_resume(&self, pid: Pid) {
        if self.next.get().is_none() {
            self.next.set(Some(pid));
            return;
        }
        #[cfg(test)]
        RESUME_OVERFLOWS.with(|c| c.set(c.get() + 1));
        self.resume.borrow_mut().push_back(pid);
    }

    /// The resume loop: resume coroutines as the run-next cell, then the
    /// overflow queue, hand them out, each until its next suspension, on
    /// the thread that called [`Sim::run`]. Returns when both are empty,
    /// which ends the run: every live process is either running (and it
    /// is not, since the resume loop is asking) or has a wake pending in
    /// one of the two.
    fn drive(&self, coros: &crate::coro::Coroutines) {
        while let Some(pid) = self
            .next
            .take()
            .or_else(|| self.resume.borrow_mut().pop_front())
        {
            crate::selfprof::host_count(crate::selfprof::HostOp::CoroResume);
            coros.resume(pid.index());
        }
    }

    /// Grant the commit token to the next runnable process; with none
    /// left and processes still live, declare a deadlock. Caller holds
    /// the `sched` borrow. Idempotent: safe to call after any state change
    /// that might enable a grant.
    fn try_dispatch(&self, g: &mut Sched) {
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
            self.wake(cand.pid, clock, reason);
            return;
        }
        // Nothing grantable while processes are live: only the token
        // holder ever runs, and it just gave the token up, so every live
        // process is blocked on a receive nobody can send. A distributed
        // deadlock.
        if g.live > 0 {
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
                self.wake(pid, clock, WakeReason::Deadlock);
            }
            // Stash the diagnostic through the panics channel.
            g.panics
                .push((Pid(u32::MAX), format!("deadlock: {diag}"), true));
        }
    }

    /// Deliver a message, waking the destination if it is blocked on a
    /// matching receive. Caller holds the `sched` borrow (and the commit
    /// token).
    fn deliver(&self, g: &mut Sched, dst: Pid, msg: Message) {
        let arrival = msg.arrival;
        let p = &mut g.procs[dst.index()];
        match &p.status {
            Status::Done => {
                self.dropped_msgs.set(self.dropped_msgs.get() + 1);
            }
            Status::Blocked { spec, .. } if spec.matches(&msg) => {
                p.status = Status::Ready;
                p.wake_reason = WakeReason::Message;
                // Clock stays at the block-time value; the receiver
                // recomputes its resume clock from the matched message.
                let t = p.clock.max(arrival);
                self.shards[dst.index()]
                    .mail
                    .borrow_mut()
                    .mailbox
                    .push_back(msg);
                Sched::push(g, dst, t);
            }
            _ => {
                self.shards[dst.index()]
                    .mail
                    .borrow_mut()
                    .mailbox
                    .push_back(msg);
            }
        }
    }

    /// Reserve `dur` on a device cell starting no earlier than `at`;
    /// returns the completion time. Caller holds the commit token, which
    /// orders every reservation in virtual time.
    fn reserve_cell(&self, cell: DeviceCell, at: SimTime, dur: SimDuration) -> SimTime {
        let free = match cell {
            DeviceCell::Nic(n) => &self.nodes[n.index()].nic_free,
            DeviceCell::Disk(n) => &self.nodes[n.index()].disk_free,
            DeviceCell::Nfs => &self.nfs_free,
        };
        let end = at.max(free.get()) + dur;
        free.set(end);
        end
    }
}

/// Per-process context handed to each process closure. All simulation
/// operations go through this handle. Engine, trace and fault-plan
/// handles are resolved once at spawn — the hot path clones no `Arc`s.
/// Not `Send`: it lives on its process's coroutine, on the thread that
/// runs the simulation.
pub struct ProcCtx {
    engine: Rc<Engine>,
    world: Arc<World>,
    proc_nodes: Rc<[NodeId]>,
    pid: Pid,
    node: NodeId,
    clock: SimTime,
    stats: ProcStats,
    /// Preresolved fault plan (None on clean runs).
    faults: Option<Arc<crate::faults::FaultPlan>>,
    /// Whether tracing is enabled for this run (resolved at spawn).
    tracing: bool,
    /// Open phase spans: `(label, open time)`, innermost last. Always
    /// empty when tracing is off (the span API is a no-op then).
    span_stack: Vec<(crate::trace::Label, SimTime)>,
    /// Whether telemetry is enabled for this run (resolved at spawn).
    telemetry: bool,
    /// Per-process append-only metric-point buffer; merged into the
    /// engine's sink at process finish. Always empty when telemetry is
    /// off (the metric API is a no-op then).
    metric_buf: Vec<crate::telemetry::MetricPoint>,
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

    /// Append a span to the run's trace buffer.
    #[inline]
    fn trace_push(&mut self, start: SimTime, end: SimTime, kind: crate::trace::EventKind) {
        if self.tracing {
            self.engine.trace.borrow_mut().0.push(TraceEvent {
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
    pub fn span_open(&mut self, label: impl AsRef<str>) {
        if self.tracing {
            let label = self.engine.trace.borrow_mut().1.push_label(label.as_ref());
            self.span_stack.push((label, self.clock));
        }
    }

    /// Like [`ProcCtx::span_open`] but the label is built lazily, so
    /// `format!`-style labels cost nothing when tracing is off.
    #[inline]
    pub fn span_open_with(&mut self, label: impl FnOnce() -> String) {
        if self.tracing {
            let label = label();
            let label = self.engine.trace.borrow_mut().1.push_label(&label);
            self.span_stack.push((label, self.clock));
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
            self.trace_push(start, end, crate::trace::EventKind::Phase { label, depth });
        }
    }

    /// Run `f` inside a phase span: `span_open(label)`, `f`, `span_close`.
    #[inline]
    pub fn span<R>(&mut self, label: impl AsRef<str>, f: impl FnOnce(&mut ProcCtx) -> R) -> R {
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
        // Store the payload only when the trace keeps it.
        if self.tracing {
            let f = self.engine.trace.borrow_mut().1.push_fault(ev);
            self.trace_push(at, at, crate::trace::EventKind::Fault(f));
        }
    }

    /// Advance this process's clock by modeled computation: `work` executed
    /// at `runtime_factor` times native single-core cost (see
    /// [`crate::RuntimeClass`]). Purely local — no synchronization.
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
    }

    /// Align: enter the ready queue at the current clock and wait for the
    /// commit token, i.e. until this process is the minimum-time runnable
    /// process. Returns `false` if the simulation is tearing down from a
    /// deadlock (the caller must not touch shared state).
    fn align_quiet(&mut self) -> bool {
        let me = self.pid;
        // Perturbation (conformance harness): sometimes force the slow
        // path (queue push, dispatch, park) even when the fast path
        // would apply. Both paths make the same grant, so virtual-time
        // results cannot change.
        let mut force_slow_path = false;
        if let Some(p) = &self.perturb {
            self.perturb_ops += 1;
            force_slow_path = p.defeat_fast_path(me.0, self.perturb_ops);
        }
        {
            let mut g = self.engine.sched.borrow_mut();
            if g.deadlocked {
                return false;
            }
            if g.turn == Some(me) {
                // Pass the token through the queue so the globally
                // minimal process gets it next.
                g.turn = None;
            }
            // Self-grant fast path: if this process would be the next
            // grant anyway — the token is free and every queued entry
            // orders after `(clock, me)` — take the token directly,
            // skipping the queue round-trip and the park/wake entirely.
            // The grant decision is the same one `try_dispatch` would
            // make for our pushed entry, so the schedule (and every
            // virtual-time result) is unchanged.
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
                if head_after_me {
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
            self.engine.try_dispatch(&mut g);
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

    /// Run `f` inside this process's next commit window: at a
    /// deterministic point in the global visible-operation order, with
    /// the commit token held. Frameworks use this to order side effects
    /// on state shared *outside* the engine (symmetric heaps, RMA
    /// windows) in virtual time.
    pub fn ordered<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.become_min();
        f()
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
    /// fault decisions, delivery.
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
                    let seq = self.engine.fault_seq.get();
                    self.engine.fault_seq.set(seq + 1);
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
        let mut g = self.engine.sched.borrow_mut();
        self.engine.deliver(&mut g, dst, msg);
    }

    fn take_match(&mut self, spec: MatchSpec) -> Option<Message> {
        let mut m = self.engine.shards[self.pid.index()].mail.borrow_mut();
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
        // point of the visible-operation order.
        self.become_min();
        if let Some(m) = self.take_match(spec) {
            return Ok(self.finish_recv(m, blocked_since));
        }
        // Block, handing the token back.
        let me = self.pid;
        {
            let mut g = self.engine.sched.borrow_mut();
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
            self.engine.try_dispatch(&mut g);
        }
        let (clock, reason) = self.engine.shards[me.index()].slot.park();
        self.clock = clock;
        match reason {
            WakeReason::Message => {
                let m = self
                    .take_match(spec)
                    .expect("woken for message but no match in mailbox");
                Ok(self.finish_recv(m, blocked_since))
            }
            WakeReason::Timeout => {
                self.stats.wait_time += self.clock - blocked_since;
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
            let mut m = self.engine.shards[self.pid.index()].mail.borrow_mut();
            let best = m
                .mailbox
                .iter()
                .enumerate()
                .filter(|(_, m)| spec.matches(m) && m.arrival <= now)
                .min_by_key(|(i, m)| (m.arrival, *i))
                .map(|(i, _)| i);
            best.and_then(|i| m.mailbox.remove(i))
        };
        taken.map(|m| self.finish_recv(m, now))
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
    /// applied in deterministic virtual-time order.
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
    /// from run to run. The queueing delay is *not* charged to
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
        finish
    }
}

type ProcFn = Box<dyn FnOnce(&mut ProcCtx) -> Box<dyn Any>>;

struct ProcSpawn {
    node: NodeId,
    name: String,
    f: ProcFn,
}

/// Simulation builder: define a topology, spawn processes, run.
pub struct Sim {
    world: Arc<World>,
    spawns: Vec<ProcSpawn>,
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
    results: Vec<Option<Box<dyn Any>>>,
    /// Messages that were sent to already-finished processes.
    pub dropped_msgs: u64,
    /// The execution trace, when [`Sim::enable_tracing`] ran. A run
    /// traced only because a capture window was open hands its events
    /// to the capture instead, and this is `None`.
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
    /// New simulation over `topology`.
    pub fn new(topology: Topology) -> Sim {
        crate::execution::note_execution_env();
        Sim {
            world: Arc::new(World::new(topology)),
            spawns: Vec::new(),
        }
    }

    /// Access the world (to pre-populate the filesystem).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Turn on execution tracing for this run; every simulation-visible
    /// operation records a timeline span. Returns the trace handle (also
    /// available on the final [`SimReport`]). The trace receives the
    /// run's events when the run ends, also when `run` then panics.
    pub fn enable_tracing(&mut self) -> Arc<crate::trace::Trace> {
        self.world
            .trace
            .get_or_init(|| Arc::new(crate::trace::Trace::new()))
            .clone()
    }

    /// Install a fault plan for this run (see [`crate::FaultPlan`]): node
    /// crashes, stragglers, link faults and message drops, all scheduled
    /// in virtual time and replayed bit-identically. The first installed
    /// plan wins; later calls return it unchanged.
    pub fn set_fault_plan(
        &mut self,
        plan: crate::faults::FaultPlan,
    ) -> Arc<crate::faults::FaultPlan> {
        self.world.faults.get_or_init(|| Arc::new(plan)).clone()
    }

    /// Register a process on `node`. Processes start at virtual time zero
    /// in registration order. Returns the process id. The closure runs
    /// on the thread that calls [`Sim::run`], so neither it nor its
    /// result needs to be `Send`.
    pub fn spawn<T, F>(&mut self, node: NodeId, name: impl Into<String>, f: F) -> Pid
    where
        T: 'static,
        F: FnOnce(&mut ProcCtx) -> T + 'static,
    {
        assert!(
            node.index() < self.world.topology.len(),
            "spawn on unknown {node}"
        );
        let pid = Pid(self.spawns.len() as u32);
        self.spawns.push(ProcSpawn {
            node,
            name: name.into(),
            f: Box::new(move |ctx| Box::new(f(ctx)) as Box<dyn Any>),
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
        let tracing = capturing || self.world.trace.get().is_some();
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
        let proc_nodes: Rc<[NodeId]> = self.spawns.iter().map(|s| s.node).collect();
        let nodes = self.world.topology.len();
        let perturb = crate::perturb::current_perturbation();
        let engine = Rc::new(Engine {
            sched: RefCell::new(Sched {
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
                panics: Vec::new(),
            }),
            shards: self
                .spawns
                .iter()
                .map(|s| ProcShard {
                    name: s.name.clone(),
                    node: s.node,
                    slot: Slot::new(),
                    mail: RefCell::new(Mail {
                        mailbox: VecDeque::new(),
                        finish: None,
                        stats: ProcStats::default(),
                        result: None,
                    }),
                })
                .collect(),
            nodes: (0..nodes)
                .map(|_| NodeRes {
                    nic_free: Cell::new(SimTime::ZERO),
                    disk_free: Cell::new(SimTime::ZERO),
                })
                .collect(),
            nfs_free: Cell::new(SimTime::ZERO),
            dropped_msgs: Cell::new(0),
            fault_seq: Cell::new(0),
            telemetry_interval,
            metric_sink: RefCell::new(Vec::new()),
            trace: RefCell::default(),
            next: Cell::new(None),
            resume: RefCell::new(VecDeque::new()),
        });

        // One coroutine per process, each running the full process body
        // on its own lazily-paged stack. Bodies start suspended; the
        // scheduler's first wake enqueues them for the resume loop.
        let bodies: Vec<Box<dyn FnOnce()>> = self
            .spawns
            .into_iter()
            .enumerate()
            .map(|(i, spawn)| {
                let pid = Pid(i as u32);
                let engine = engine.clone();
                let world = self.world.clone();
                let proc_nodes = proc_nodes.clone();
                let perturb = perturb.clone();
                let body: Box<dyn FnOnce()> = Box::new(move || {
                    // Wait for the first grant.
                    let (clock, reason) = engine.shards[pid.index()].slot.park();
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
                        span_stack: Vec::new(),
                        telemetry: engine.telemetry_interval.is_some(),
                        metric_buf: Vec::new(),
                        perturb,
                        perturb_ops: 0,
                    };
                    if reason == WakeReason::Deadlock {
                        // Simulation tore down before we ever ran.
                        finish_proc(&engine, &mut ctx, None);
                        return;
                    }
                    let f = spawn.f;
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                    match outcome {
                        Ok(val) => {
                            engine.shards[pid.index()].mail.borrow_mut().result = Some(val);
                            finish_proc(&engine, &mut ctx, None);
                        }
                        Err(payload) => {
                            let (msg, was_deadlock) = describe_panic(payload.as_ref());
                            finish_proc(&engine, &mut ctx, Some((msg, was_deadlock)));
                        }
                    }
                });
                body
            })
            .collect();
        let coros = crate::coro::Coroutines::build(bodies);

        // Enqueue every process at its start time and kick off the first
        // grant, which lands in the run-next cell. Pids go in descending
        // order: processes mostly start together, and a calendar bucket
        // keeps its minimum at the end, so each key lands there in O(1)
        // where ascending order would shift the whole bucket. The pop
        // order is the same either way (the key ignores push order).
        {
            let mut g = engine.sched.borrow_mut();
            for i in (0..n).rev() {
                let t = g.procs[i].clock;
                Sched::push(&mut g, Pid(i as u32), t);
            }
            engine.try_dispatch(&mut g);
        }
        engine.drive(&coros);
        drop(coros);

        // The run's events go, uncopied, to the capture, else to the
        // caller's trace. Only a run that is both captured and traced by
        // its caller copies them, once. The caller's trace is filled
        // before the panic checks, so a run that panics leaves it every
        // event recorded.
        let (events, tables) = engine.trace.take();
        let caller_trace = self.world.trace.get().cloned();
        let captured = if capturing {
            if let Some(trace) = &caller_trace {
                trace.absorb(events.clone(), tables.clone());
            }
            Some((events, tables))
        } else {
            if let Some(trace) = &caller_trace {
                trace.absorb(events, tables);
            }
            None
        };

        let g = engine.sched.borrow();
        // With nothing left to resume, every process must have finished:
        // a live one would be parked with no wake coming.
        assert_eq!(
            g.live, 0,
            "resume loop ran dry with processes still live (lost wakeup)"
        );
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
        let (procs, results) = engine
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut m = s.mail.borrow_mut();
                let report = ProcReport {
                    pid: Pid(i as u32),
                    name: s.name.clone(),
                    node: s.node,
                    finish: m.finish.unwrap_or(g.procs[i].clock),
                    stats: std::mem::take(&mut m.stats),
                };
                (report, m.result.take())
            })
            .unzip();
        drop(g);
        let mut metric_points = engine.metric_sink.take();
        crate::telemetry::sort_points(&mut metric_points);
        let run_wall_ns = selfprof_t0.map(|t0| t0.elapsed().as_nanos() as u64);
        if let Some(ns) = run_wall_ns {
            crate::selfprof::add_run_wall_ns(ns);
        }
        let report = SimReport {
            procs,
            results,
            dropped_msgs: engine.dropped_msgs.get(),
            trace: caller_trace,
            telemetry_interval: engine.telemetry_interval,
            metric_points,
        };
        if let Some((events, tables)) = captured {
            let host_profile = selfprof_before
                .zip(run_wall_ns)
                .map(|(before, ns)| crate::selfprof::run_profile(&before, ns));
            crate::observe::record_run(
                &report,
                events,
                tables,
                self.world.topology.len(),
                host_profile,
            );
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

fn finish_proc(engine: &Engine, ctx: &mut ProcCtx, panic_info: Option<(String, bool)>) {
    let pid = ctx.pid;
    if panic_info.is_none() {
        // Normal completion is itself a visible event: align so the
        // transition to Done happens at a deterministic point of the
        // global order (e.g. whether a message to this process is
        // dropped must not depend on wall-clock scheduling). During
        // deadlock teardown the alignment is skipped.
        let _ = ctx.align_quiet();
    }
    // Spans left open (early return, panic unwind) close at the finish
    // time so the exported trace only ever contains well-formed phase
    // events.
    ctx.close_all_spans();
    if !ctx.metric_buf.is_empty() {
        engine.metric_sink.borrow_mut().append(&mut ctx.metric_buf);
    }
    {
        let mut m = engine.shards[pid.index()].mail.borrow_mut();
        m.finish = Some(ctx.clock);
        m.stats = std::mem::take(&mut ctx.stats);
    }
    let mut g = engine.sched.borrow_mut();
    if g.turn == Some(pid) {
        g.turn = None;
    }
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
    if g.live > 0 && !g.deadlocked {
        engine.try_dispatch(&mut g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping_pong(rounds: u32) -> Sim {
        let mut sim = Sim::new(Topology::comet(2));
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

    /// Every grant goes through the run-next cell, the first one of the
    /// run included: a deadlock-free run, however long, never pushes onto
    /// the overflow queue, so no wake takes the slow path.
    #[test]
    fn a_deadlock_free_run_never_overflows_the_run_next_cell() {
        let overflows = |rounds| {
            let sim = ping_pong(rounds);
            let before = RESUME_OVERFLOWS.with(|c| c.get());
            assert!(sim.run().makespan() > SimTime::ZERO);
            RESUME_OVERFLOWS.with(|c| c.get()) - before
        };
        assert_eq!(overflows(200), 0);
        assert_eq!(overflows(20), 0);
    }

    /// Deadlock teardown wakes every blocked process from one dispatch:
    /// all but the first overflow the run-next cell into the queue. Each
    /// must still be resumed exactly once, and the diagnostic must name
    /// every one of them.
    #[test]
    fn deadlock_teardown_overflows_the_cell_and_names_every_process() {
        let mut sim = Sim::new(Topology::comet(2));
        for i in 0..12u32 {
            sim.spawn(NodeId(i % 2), format!("stuck{i}"), move |ctx| {
                ctx.sleep(SimDuration::from_nanos(u64::from(i) * 10));
                ctx.recv(MatchSpec::tag(100 + Tag::from(i)));
            });
        }
        let overflows = RESUME_OVERFLOWS.with(|c| c.get());
        let err = panic::catch_unwind(AssertUnwindSafe(|| sim.run()))
            .err()
            .expect("twelve receives nobody sends to must deadlock");
        let want = describe_panic(err.as_ref()).0;
        // The last process to block runs the teardown and consumes its
        // own wake without parking; of the other eleven, one fits the
        // cell and ten overflow.
        assert_eq!(RESUME_OVERFLOWS.with(|c| c.get()) - overflows, 10);
        assert!(want.starts_with("deadlock: "), "{want}");
        assert_eq!(want.matches("blocked at").count(), 12, "{want}");
    }

    /// A run that panics still hands its events to the caller's trace.
    #[test]
    fn a_panicking_run_still_fills_the_callers_trace() {
        let mut sim = Sim::new(Topology::comet(1));
        let trace = sim.enable_tracing();
        sim.spawn(NodeId(0), "sleeper", |ctx| {
            ctx.span_open("before");
            ctx.sleep(SimDuration::from_nanos(10));
            ctx.span_close();
            panic!("boom");
        });
        let err = panic::catch_unwind(AssertUnwindSafe(|| sim.run()))
            .err()
            .expect("the process panics");
        assert!(describe_panic(err.as_ref()).0.contains("boom"));
        assert!(!trace.is_empty());
    }

    /// A fresh slot is parked: the coroutine has not run yet, so its
    /// first wake must enqueue it.
    #[test]
    fn a_fresh_slot_is_parked_so_its_first_wake_enqueues() {
        let slot = Slot::new();
        assert_eq!(slot.state.get(), SlotState::Parked);
        assert!(slot.wake(SimTime(5), WakeReason::Turn));
        assert_eq!(slot.state.get(), SlotState::Value);
    }

    /// Park consumes a pending value without suspending: outside a
    /// coroutine `coro::suspend` panics, so a park that returns here
    /// never tried. A wake that lands while the process runs does not
    /// enqueue it. Every reason survives the trip through the slot.
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
            assert_eq!(slot.wake(at, reason), i == 0);
            assert_eq!(slot.park(), (at, reason));
            assert_eq!(slot.state.get(), SlotState::Running);
        }
    }
}
