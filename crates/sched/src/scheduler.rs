//! The in-sim cluster scheduler and its slot workers.
//!
//! The engine's process table is fixed at run start, so the scheduler is
//! YARN-shaped: one scheduler process plus a pool of pre-spawned slot
//! workers (`per_node` per node). Jobs arrive as messages from the
//! open-loop submitter; tasks are shipped to workers as closures
//! ([`hpcbd_simnet::TaskClosure`]) and charge all their costs on the
//! worker's node, so tenants contend on real simulated devices.
//!
//! Scheduling policy, in dispatch order:
//!
//! 1. **Weighted max-min across queues** — each dispatch turn goes to
//!    the queue with the smallest `usage/weight` deficit ratio (ties by
//!    queue index); per-queue slot caps are respected.
//! 2. **FIFO within a queue**, except that *delay scheduling* lets a
//!    later job's task run when the head job is only waiting for
//!    locality: an elastic task waits up to `locality_delay` for a slot
//!    on its preferred node, another `locality_delay` for its rack, and
//!    then takes any slot. Gang waves (MPI/SHMEM) allocate all slots
//!    atomically and do *not* skip — a gang at the head blocks its
//!    queue until the cluster can host it.
//! 3. **Preemption** (optional): a queue holding less than its fair
//!    share while demand waits may reclaim slots from queues above
//!    their fair share — newest-dispatched preemptable task first, one
//!    kill per starved queue per dispatch round, and never below the
//!    victim's fair share. Preempted tasks are re-queued at the head of
//!    their job exactly once per kill; work done before the checkpoint
//!    is lost (restart-from-scratch semantics).
//!
//! Every decision happens in one process at virtual times fixed by the
//! engine's total order of message arrivals, so the schedule is
//! bit-identical from run to run.

use std::collections::VecDeque;
use std::sync::Arc;

use hpcbd_simnet::{
    JobChannel, LaunchEnv, MatchSpec, Message, Payload, Pid, ProcCtx, SimDuration, SimTime, Tag,
    Transport,
};

use crate::job::{JobSpec, Segment};
use crate::queue::{fair_share, QueueSpec, SlotLedger, SlotState};

/// Control-plane tags (all far below `JOB_TAG_BASE`).
pub const TAG_SUBMIT: Tag = 101;
const TAG_TASK: Tag = 102;
const TAG_TASK_DONE: Tag = 103;
const TAG_TASK_PREEMPTED: Tag = 104;
const TAG_KILL: Tag = 105;
const TAG_SHUTDOWN: Tag = 106;

/// Identity of one task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskKey {
    /// Job sequence number.
    pub job: u64,
    /// Wave index.
    pub wave: u32,
    /// Task index within the wave.
    pub index: u32,
    /// Attempt number (bumped by each preemption re-queue).
    pub attempt: u32,
}

/// A job submission (submitter to scheduler).
pub struct SubmitMsg {
    /// Scheduler-wide job sequence number (submit order).
    pub id: u64,
    /// The job.
    pub spec: JobSpec,
}

struct Dispatch {
    key: TaskKey,
    template: &'static str,
    preemptable: bool,
    segments: Vec<Segment>,
    env: LaunchEnv,
}

/// The long-lived slot-worker body: receive a task, run its segments
/// (checking for a preemption notice between segments), report back.
/// Stale kill notices — the task finished while the kill was in flight
/// — are consumed and ignored; the scheduler resolves that race on its
/// side by treating the completion as authoritative.
pub fn slot_worker(ctx: &mut ProcCtx, sched: Pid, control: Transport) {
    loop {
        let m = ctx.recv(MatchSpec::ANY);
        match m.tag {
            TAG_TASK => {
                let d: Arc<Dispatch> = m.expect_value();
                let mut preempted = false;
                ctx.span_open(d.template);
                for (i, seg) in d.segments.iter().enumerate() {
                    if i > 0 && d.preemptable {
                        if let Some(k) = ctx.try_recv(MatchSpec::tag(TAG_KILL)) {
                            let key: Arc<TaskKey> = k.expect_value();
                            if *key == d.key {
                                preempted = true;
                                break;
                            }
                        }
                    }
                    seg(ctx, &d.env);
                }
                ctx.span_close();
                let tag = if preempted {
                    TAG_TASK_PREEMPTED
                } else {
                    TAG_TASK_DONE
                };
                ctx.send(sched, tag, 128, Payload::value(d.key), &control);
            }
            TAG_KILL => {} // stale: the raced completion already reported
            TAG_SHUTDOWN => return,
            t => panic!("slot worker received unexpected tag {t}"),
        }
    }
}

/// Scheduler configuration.
pub struct SchedulerConfig {
    /// Queue table (index = queue id).
    pub queues: Vec<QueueSpec>,
    /// Worker pids in slot order (`node * per_node + k`).
    pub workers: Vec<Pid>,
    /// Slots per node.
    pub per_node: u32,
    /// Nodes per rack (locality middle tier).
    pub rack_size: u32,
    /// Total jobs the submitter will send; the scheduler exits when all
    /// have completed.
    pub expected_jobs: u64,
    /// Delay-scheduling wait per locality level.
    pub locality_delay: SimDuration,
    /// Enable preemption.
    pub preemption: bool,
    /// Control-plane transport (submit/dispatch/ack messages).
    pub control: Transport,
}

/// Per-queue outcome counters, returned by the scheduler process.
#[derive(Debug, Clone, Default)]
pub struct QueueStats {
    /// Queue name.
    pub name: &'static str,
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Per-job completion latency (submit to last task done), in
    /// completion order.
    pub latency_ns: Vec<u64>,
    /// Per-job queueing delay (submit to first dispatch), in completion
    /// order.
    pub wait_ns: Vec<u64>,
    /// Task dispatches (including re-dispatch after preemption).
    pub tasks_dispatched: u64,
    /// Dispatches that hit the preferred node.
    pub local: u64,
    /// Dispatches that hit the preferred rack (not node).
    pub rack: u64,
    /// Dispatches elsewhere (or with no preference).
    pub remote: u64,
    /// Kill notices sent to reclaim slots from this queue.
    pub kills_sent: u64,
    /// Effective preemptions (task acknowledged the kill).
    pub preemptions: u64,
    /// Task re-queues caused by preemption.
    pub requeues: u64,
    /// Jobs that met the queue's SLO target.
    pub slo_met: u64,
    /// Integrated slot-nanoseconds held.
    pub share_slot_ns: u128,
}

/// Whole-run outcome, returned by the scheduler process.
#[derive(Debug, Clone)]
pub struct SchedStats {
    /// Per-queue counters.
    pub queues: Vec<QueueStats>,
    /// max/min weight-normalized share ratio, thousandths (1000 = fair);
    /// `None` if a weighted queue got no slot time.
    pub fairness_x1000: Option<u64>,
    /// Total slots in the ledger.
    pub total_slots: u32,
    /// Virtual time the last job completed.
    pub makespan_ns: u64,
}

struct JobRun {
    spec: JobSpec,
    queue: usize,
    submitted: SimTime,
    first_dispatch: Option<SimTime>,
    wave: usize,
    wave_started: SimTime,
    pending: VecDeque<u32>,
    attempts: Vec<u32>,
    running: u32,
}

impl JobRun {
    fn load_wave(&mut self, wave: usize, now: SimTime) {
        self.wave = wave;
        self.wave_started = now;
        self.pending = (0..self.spec.waves[wave].tasks.len() as u32).collect();
        self.attempts = vec![0; self.spec.waves[wave].tasks.len()];
        self.running = 0;
    }
}

/// The job table, indexed by job id. Ids are the submitter's dense
/// submit sequence (`0..n`), so a vector slot per id replaces a search;
/// a completed job leaves its slot `None`, which the box keeps at one
/// word. Never iterated, so nothing in the schedule depends on its
/// layout.
#[derive(Default)]
struct Jobs(Vec<Option<Box<JobRun>>>);

impl Jobs {
    fn insert(&mut self, id: u64, job: JobRun) {
        let i = id as usize;
        if i >= self.0.len() {
            self.0.resize_with(i + 1, || None);
        }
        self.0[i] = Some(Box::new(job));
    }

    fn get_mut(&mut self, id: &u64) -> Option<&mut JobRun> {
        self.0.get_mut(*id as usize)?.as_deref_mut()
    }

    fn remove(&mut self, id: &u64) -> Option<JobRun> {
        self.0.get_mut(*id as usize)?.take().map(|job| *job)
    }
}

impl std::ops::Index<&u64> for Jobs {
    type Output = JobRun;

    fn index(&self, id: &u64) -> &JobRun {
        self.0
            .get(*id as usize)
            .and_then(Option::as_deref)
            .unwrap_or_else(|| panic!("unknown job {id}"))
    }
}

struct State {
    cfg: SchedulerConfig,
    ledger: SlotLedger,
    jobs: Jobs,
    queue_fifo: Vec<VecDeque<u64>>, // job ids with undispatched work
    slot_task: Vec<Option<(TaskKey, u64)>>,
    /// Slot of each worker, indexed by pid (`None` for other processes).
    worker_slot: Vec<Option<u32>>,
    stats: Vec<QueueStats>,
    meter: crate::queue::ShareMeter,
    dispatch_seq: u64,
    completed: u64,
    /// Queue weights and `floor(fair_share)` per queue: fixed for the run.
    weights: Vec<u32>,
    fair_floor: Vec<u32>,
    /// Undispatched tasks per queue (the sum of its jobs' `pending`).
    pending_tasks: Vec<u32>,
    q_labels: Vec<Arc<str>>,
}

/// `sched.locality` labels, indexed by the locality level a dispatch hit.
const LEVEL_LABELS: [&str; 3] = ["level=local", "level=rack", "level=any"];

impl State {
    /// Advance the share meter to `now` before mutating the ledger.
    fn tick(&mut self, now: SimTime) {
        self.meter.advance(now.nanos(), self.ledger.usages());
    }
}

/// The scheduler process body. Returns the run's [`SchedStats`]; read it
/// with `SimReport::result` after the run.
pub fn scheduler(ctx: &mut ProcCtx, cfg: SchedulerConfig) -> SchedStats {
    let nodes = cfg.workers.len() as u32 / cfg.per_node;
    let n_queues = cfg.queues.len();
    let weights: Vec<u32> = cfg.queues.iter().map(|q| q.weight).collect();
    let total = nodes * cfg.per_node;
    let mut st = State {
        ledger: SlotLedger::new(nodes, cfg.per_node, cfg.rack_size),
        jobs: Jobs::default(),
        queue_fifo: vec![VecDeque::new(); n_queues],
        slot_task: vec![None; cfg.workers.len()],
        worker_slot: {
            let len = cfg.workers.iter().map(|p| p.index() + 1).max().unwrap_or(0);
            let mut by_pid = vec![None; len];
            for (i, p) in cfg.workers.iter().enumerate() {
                by_pid[p.index()] = Some(i as u32);
            }
            by_pid
        },
        stats: cfg
            .queues
            .iter()
            .map(|q| QueueStats {
                name: q.name,
                ..QueueStats::default()
            })
            .collect(),
        meter: crate::queue::ShareMeter::new(n_queues),
        dispatch_seq: 0,
        completed: 0,
        fair_floor: (0..n_queues)
            .map(|qi| fair_share(total, &weights, qi).floor() as u32)
            .collect(),
        weights,
        pending_tasks: vec![0; n_queues],
        q_labels: cfg
            .queues
            .iter()
            .map(|q| format!("queue={}", q.name).into())
            .collect(),
        cfg,
    };

    while st.completed < st.cfg.expected_jobs {
        dispatch_round(ctx, &mut st);
        let deadline = next_escalation(ctx.now(), &st);
        let msg = match deadline {
            Some(d) => ctx.recv_deadline(MatchSpec::ANY, Some(d)).ok(),
            None => Some(ctx.recv(MatchSpec::ANY)),
        };
        if let Some(m) = msg {
            handle(ctx, &mut st, m);
            // Drain whatever else already arrived before re-planning.
            while let Some(m) = ctx.try_recv(MatchSpec::ANY) {
                handle(ctx, &mut st, m);
            }
        }
    }

    let control = st.cfg.control;
    for w in &st.cfg.workers {
        ctx.send(*w, TAG_SHUTDOWN, 32, Payload::Empty, &control);
    }
    let now = ctx.now();
    st.tick(now);
    for (qi, share) in st.meter.shares().iter().enumerate() {
        st.stats[qi].share_slot_ns = *share;
    }
    SchedStats {
        fairness_x1000: st.meter.maxmin_x1000(&st.weights),
        total_slots: st.ledger.total(),
        makespan_ns: now.nanos(),
        queues: st.stats,
    }
}

/// Earliest future locality-escalation instant among waiting jobs.
fn next_escalation(now: SimTime, st: &State) -> Option<SimTime> {
    let d = st.cfg.locality_delay;
    let mut min: Option<SimTime> = None;
    for fifo in &st.queue_fifo {
        for id in fifo {
            let job = &st.jobs[id];
            if job.pending.is_empty() || st.cfg.queues[job.queue].weight == 0 {
                continue;
            }
            for t in [job.wave_started + d, job.wave_started + d + d] {
                if t > now && min.map(|m| t < m).unwrap_or(true) {
                    min = Some(t);
                }
            }
        }
    }
    min
}

fn handle(ctx: &mut ProcCtx, st: &mut State, m: Message) {
    match m.tag {
        TAG_SUBMIT => {
            let sub: Arc<SubmitMsg> = m.expect_value();
            // The job table is indexed by id: keep it bounded by the
            // submit sequence.
            assert!(
                sub.id < st.cfg.expected_jobs,
                "job id {} outside the submit sequence 0..{}",
                sub.id,
                st.cfg.expected_jobs
            );
            let qi = st
                .cfg
                .queues
                .iter()
                .position(|q| q.name == sub.spec.queue)
                .unwrap_or_else(|| panic!("job for unknown queue {}", sub.spec.queue));
            let mut job = JobRun {
                spec: sub.spec.clone(),
                queue: qi,
                submitted: ctx.now(),
                first_dispatch: None,
                wave: 0,
                wave_started: ctx.now(),
                pending: VecDeque::new(),
                attempts: Vec::new(),
                running: 0,
            };
            job.load_wave(0, ctx.now());
            st.pending_tasks[qi] += job.pending.len() as u32;
            st.queue_fifo[qi].push_back(sub.id);
            st.jobs.insert(sub.id, job);
            st.stats[qi].submitted += 1;
            ctx.metric_counter("sched.arrivals", st.q_labels[qi].clone(), 1);
        }
        TAG_TASK_DONE | TAG_TASK_PREEMPTED => {
            let key: Arc<TaskKey> = m.expect_value();
            let slot = st
                .worker_slot
                .get(m.src.index())
                .copied()
                .flatten()
                .unwrap_or_else(|| panic!("task ack from non-worker {}", m.src));
            let (held, job_id) = st.slot_task[slot as usize]
                .take()
                .expect("ack from idle slot");
            assert_eq!(held, *key, "slot/task accounting out of sync");
            let now = ctx.now();
            st.tick(now);
            // A completion that beat an in-flight kill (slot still
            // reclaiming) is authoritative: the slot is freed all the
            // same and nothing is re-queued.
            st.ledger.release(slot);
            let job = st.jobs.get_mut(&job_id).expect("ack for unknown job");
            let qi = job.queue;
            job.running -= 1;
            if m.tag == TAG_TASK_PREEMPTED {
                // Re-queue exactly once, at the head so the job does not
                // lose its place; the lost segments re-run from scratch.
                job.attempts[key.index as usize] += 1;
                job.pending.push_front(key.index);
                st.pending_tasks[qi] += 1;
                if !st.queue_fifo[qi].contains(&job_id) {
                    st.queue_fifo[qi].push_back(job_id);
                }
                st.stats[qi].preemptions += 1;
                st.stats[qi].requeues += 1;
                ctx.metric_counter("sched.preemptions", st.q_labels[qi].clone(), 1);
            }
            if m.tag == TAG_TASK_DONE && job.pending.is_empty() && job.running == 0 {
                let next = job.wave + 1;
                if next < job.spec.waves.len() {
                    job.load_wave(next, now);
                    st.pending_tasks[qi] += job.pending.len() as u32;
                    if !st.queue_fifo[qi].contains(&job_id) {
                        st.queue_fifo[qi].push_back(job_id);
                    }
                } else {
                    complete_job(ctx, st, job_id, now);
                }
            }
            let usage = st.ledger.usage(qi) as u64;
            ctx.metric_gauge("sched.slots_busy", st.q_labels[qi].clone(), usage);
        }
        t => panic!("scheduler received unexpected tag {t}"),
    }
}

fn complete_job(ctx: &mut ProcCtx, st: &mut State, job_id: u64, now: SimTime) {
    let job = st.jobs.remove(&job_id).expect("completing unknown job");
    let qi = job.queue;
    st.queue_fifo[qi].retain(|j| *j != job_id);
    let latency = now.since(job.submitted).nanos();
    let wait = job
        .first_dispatch
        .map(|t| t.since(job.submitted).nanos())
        .unwrap_or(0);
    let s = &mut st.stats[qi];
    s.completed += 1;
    s.latency_ns.push(latency);
    s.wait_ns.push(wait);
    if let Some(target) = st.cfg.queues[qi].slo_target_ns {
        if latency <= target {
            s.slo_met += 1;
        }
    }
    st.completed += 1;
    if ctx.telemetry_enabled() {
        let tenant_label = format!(
            "queue={},tenant={}",
            st.cfg.queues[qi].name, job.spec.tenant
        );
        ctx.metric_observe("sched.job_latency_ns", tenant_label, latency);
    }
    ctx.metric_observe("sched.queue_wait_ns", st.q_labels[qi].clone(), wait);
    ctx.metric_counter("sched.jobs_completed", st.q_labels[qi].clone(), 1);
}

/// Locality level a job's tasks may use at `now`: 0 = node only,
/// 1 = rack, 2 = anywhere.
fn locality_level(now: SimTime, job: &JobRun, delay: SimDuration) -> u8 {
    if now >= job.wave_started + delay + delay {
        2
    } else if now >= job.wave_started + delay {
        1
    } else {
        0
    }
}

fn dispatch_round(ctx: &mut ProcCtx, st: &mut State) {
    loop {
        // Queue pick: smallest usage/weight among queues with pending
        // work and cap headroom.
        let mut order: Vec<(f64, usize)> = (0..st.cfg.queues.len())
            .filter(|qi| {
                let q = &st.cfg.queues[*qi];
                !st.queue_fifo[*qi].is_empty()
                    && q.weight > 0
                    && q.cap_slots
                        .map(|c| st.ledger.usage(*qi) < c)
                        .unwrap_or(true)
            })
            .map(|qi| {
                (
                    st.ledger.usage(qi) as f64 / st.cfg.queues[qi].weight as f64,
                    qi,
                )
            })
            .collect();
        order.sort_by(|a, b| a.partial_cmp(b).expect("deficit ratios are finite"));
        let mut dispatched = false;
        for (_, qi) in &order {
            if try_dispatch_queue(ctx, st, *qi) {
                dispatched = true;
                break;
            }
            // Gang reservation: if this (higher-priority, starved) queue
            // is blocked on an atomic gang allocation, hold the round so
            // freed slots accumulate for the gang instead of trickling
            // to lower-priority elastic tasks — otherwise a wide gang on
            // a busy cluster never sees enough simultaneous free slots.
            if starved_on_gang(st, *qi) {
                break;
            }
        }
        if dispatched {
            continue;
        }
        // Nothing moved: let starved queues reclaim their fair share.
        if st.cfg.preemption {
            for (_, qi) in &order {
                try_preempt(ctx, st, *qi);
            }
        }
        return;
    }
}

/// Try to dispatch one task (or one whole gang wave) from queue `qi`.
fn try_dispatch_queue(ctx: &mut ProcCtx, st: &mut State, qi: usize) -> bool {
    // By index: the fifo only changes on a successful dispatch, which
    // returns.
    for i in 0..st.queue_fifo[qi].len() {
        let job_id = st.queue_fifo[qi][i];
        let job = &st.jobs[&job_id];
        if job.pending.is_empty() {
            continue;
        }
        if job.spec.waves[job.wave].gang {
            // Gangs allocate atomically and never let later jobs skip
            // ahead in their own queue (no starvation by small jobs).
            return try_dispatch_gang(ctx, st, job_id);
        }
        if try_dispatch_elastic(ctx, st, job_id) {
            return true;
        }
        // Head job is locality-blocked; delay scheduling lets the next
        // job in the queue offer a task.
    }
    false
}

fn try_dispatch_elastic(ctx: &mut ProcCtx, st: &mut State, job_id: u64) -> bool {
    let job = &st.jobs[&job_id];
    let qi = job.queue;
    let level = locality_level(ctx.now(), job, st.cfg.locality_delay);
    let wave = job.wave;
    // First pending task that can get a slot at the current level.
    let mut choice: Option<(usize, u32, usize)> = None; // (pos in pending, slot, level hit)
    for (pos, idx) in job.pending.iter().enumerate() {
        let t = &job.spec.waves[wave].tasks[*idx as usize];
        let found = match t.preferred {
            None => st.ledger.free_any().map(|s| (s, 2)),
            Some(pref) => st
                .ledger
                .free_on(pref)
                .map(|s| (s, 0))
                .or_else(|| {
                    (level >= 1)
                        .then(|| st.ledger.free_in_rack(pref).map(|s| (s, 1)))
                        .flatten()
                })
                .or_else(|| {
                    (level >= 2)
                        .then(|| st.ledger.free_any().map(|s| (s, 2)))
                        .flatten()
                }),
        };
        if let Some((slot, hit)) = found {
            choice = Some((pos, slot, hit));
            break;
        }
    }
    let Some((pos, slot, hit)) = choice else {
        return false;
    };
    let job = st.jobs.get_mut(&job_id).expect("dispatching unknown job");
    let idx = job.pending.remove(pos).expect("pending position vanished");
    let attempt = job.attempts[idx as usize];
    job.running += 1;
    st.pending_tasks[qi] -= 1;
    if job.first_dispatch.is_none() {
        job.first_dispatch = Some(ctx.now());
    }
    let task = job.spec.waves[wave].tasks[idx as usize].clone();
    let template = job.spec.template;
    if job.pending.is_empty() {
        st.queue_fifo[qi].retain(|j| *j != job_id);
    }
    let key = TaskKey {
        job: job_id,
        wave: wave as u32,
        index: idx,
        attempt,
    };
    // `hit` is 0 = preferred node, 1 = its rack, 2 = anywhere (or no
    // preference).
    match hit {
        0 => st.stats[qi].local += 1,
        1 => st.stats[qi].rack += 1,
        _ => st.stats[qi].remote += 1,
    }
    ctx.metric_counter("sched.locality", LEVEL_LABELS[hit], 1);
    // A task that has been preempted twice is exempt from further kills
    // — without a bound, a starved queue can kill the same task at
    // every checkpoint, livelocking the cluster into restart churn.
    launch(
        ctx,
        st,
        slot,
        qi,
        key,
        template,
        task.preemptable && attempt < 2,
        task.segments,
        LaunchEnv {
            job: job_id,
            wave: wave as u32,
            index: idx,
            gang: Vec::new(),
            gang_nodes: Vec::new(),
            channel: JobChannel {
                job: job_id,
                wave: wave as u32,
            },
        },
    );
    true
}

fn try_dispatch_gang(ctx: &mut ProcCtx, st: &mut State, job_id: u64) -> bool {
    let job = &st.jobs[&job_id];
    let qi = job.queue;
    let wave = job.wave;
    let n = job.spec.waves[wave].tasks.len() as u32;
    // Cap check: the whole gang must fit under the queue's cap.
    if let Some(cap) = st.cfg.queues[qi].cap_slots {
        if st.ledger.usage(qi) + n > cap {
            return false;
        }
    }
    let Some(slots) = st.ledger.gang_pick(n) else {
        return false;
    };
    let job = st.jobs.get_mut(&job_id).expect("dispatching unknown job");
    st.pending_tasks[qi] -= job.pending.len() as u32;
    job.pending.clear();
    job.running = n;
    if job.first_dispatch.is_none() {
        job.first_dispatch = Some(ctx.now());
    }
    let template = job.spec.template;
    let tasks = job.spec.waves[wave].tasks.clone();
    let attempts = job.attempts.clone();
    st.queue_fifo[qi].retain(|j| *j != job_id);
    let gang: Vec<Pid> = slots.iter().map(|s| st.cfg.workers[*s as usize]).collect();
    let gang_nodes = slots
        .iter()
        .map(|s| st.ledger.node_of(*s))
        .collect::<Vec<_>>();
    for (i, slot) in slots.iter().enumerate() {
        let key = TaskKey {
            job: job_id,
            wave: wave as u32,
            index: i as u32,
            attempt: attempts[i],
        };
        st.stats[qi].remote += 1;
        launch(
            ctx,
            st,
            *slot,
            qi,
            key,
            template,
            false, // gang members are never preemptable
            tasks[i].segments.clone(),
            LaunchEnv {
                job: job_id,
                wave: wave as u32,
                index: i as u32,
                gang: gang.clone(),
                gang_nodes: gang_nodes.clone(),
                channel: JobChannel {
                    job: job_id,
                    wave: wave as u32,
                },
            },
        );
    }
    true
}

#[allow(clippy::too_many_arguments)]
fn launch(
    ctx: &mut ProcCtx,
    st: &mut State,
    slot: u32,
    qi: usize,
    key: TaskKey,
    template: &'static str,
    preemptable: bool,
    segments: Vec<Segment>,
    env: LaunchEnv,
) {
    let now = ctx.now();
    st.tick(now);
    st.dispatch_seq += 1;
    st.ledger.reserve(slot, qi, preemptable, st.dispatch_seq);
    st.slot_task[slot as usize] = Some((key, key.job));
    st.stats[qi].tasks_dispatched += 1;
    let control = st.cfg.control;
    ctx.send(
        st.cfg.workers[slot as usize],
        TAG_TASK,
        4096,
        Payload::value(Dispatch {
            key,
            template,
            preemptable,
            segments,
            env,
        }),
        &control,
    );
    ctx.metric_counter("sched.tasks_dispatched", st.q_labels[qi].clone(), 1);
    let usage = st.ledger.usage(qi) as u64;
    ctx.metric_gauge("sched.slots_busy", st.q_labels[qi].clone(), usage);
}

/// True when queue `qi` sits below its fair-share floor while its
/// head-of-line job is an unscheduled gang wave: the condition under
/// which the dispatch round reserves freed slots for the gang.
fn starved_on_gang(st: &State, qi: usize) -> bool {
    if st.ledger.usage(qi) >= st.fair_floor[qi] {
        return false;
    }
    st.queue_fifo[qi]
        .iter()
        .map(|id| &st.jobs[id])
        .find(|job| !job.pending.is_empty())
        .map(|job| job.spec.waves[job.wave].gang)
        .unwrap_or(false)
}

/// One paced preemption step for starved queue `qi`: send at most one
/// kill, and only while the queue sits below its fair share with demand
/// that free + already-reclaiming slots cannot cover.
fn try_preempt(ctx: &mut ProcCtx, st: &mut State, qi: usize) {
    let fs = st.fair_floor[qi];
    let usage = st.ledger.usage(qi);
    if usage >= fs {
        return;
    }
    let demand = st.pending_tasks[qi];
    debug_assert_eq!(
        demand,
        st.queue_fifo[qi]
            .iter()
            .map(|id| st.jobs[id].pending.len() as u32)
            .sum::<u32>(),
        "pending-task counter of queue {qi} drifted from its jobs"
    );
    if demand == 0 {
        return;
    }
    let want = demand.min(fs - usage);
    if st.ledger.free_count() + st.ledger.reclaiming_count() >= want {
        return;
    }
    let Some(victim) = st.ledger.pick_victim(&st.weights, qi) else {
        return;
    };
    let (key, _) = st.slot_task[victim as usize].expect("victim slot has no task");
    let victim_q = match st.ledger.state(victim) {
        SlotState::Busy { queue, .. } => queue,
        other => panic!("victim in state {other:?}"),
    };
    let now = ctx.now();
    st.tick(now);
    st.ledger.mark_reclaiming(victim);
    st.stats[victim_q].kills_sent += 1;
    let control = st.cfg.control;
    ctx.send(
        st.cfg.workers[victim as usize],
        TAG_KILL,
        64,
        Payload::value(key),
        &control,
    );
    ctx.metric_counter("sched.kills_sent", st.q_labels[victim_q].clone(), 1);
}

/// The open-loop submitter body: sleep to each arrival instant, then
/// submit. The whole trace is computed before the run (see
/// [`crate::arrivals`](mod@crate::arrivals)), so the offered load never reacts to the
/// system — the definition of open-loop.
pub fn submitter(ctx: &mut ProcCtx, sched: Pid, control: Transport, trace: Vec<(u64, JobSpec)>) {
    for (i, (at_ns, spec)) in trace.into_iter().enumerate() {
        let now = ctx.now().nanos();
        if at_ns > now {
            ctx.sleep(SimDuration::from_nanos(at_ns - now));
        }
        ctx.send(
            sched,
            TAG_SUBMIT,
            512,
            Payload::value(SubmitMsg { id: i as u64, spec }),
            &control,
        );
    }
}
