//! The driver: DAG scheduling, task dispatch, actions, fault recovery.
//!
//! Mirrors Spark's architecture as the paper describes it (Sec. VI-B):
//! the driver parses the (lazy) plan, splits it into stages at shuffle
//! boundaries, and ships task closures to executors over the socket
//! control plane — the per-task driver overhead is precisely what makes
//! Spark lose the reduce microbenchmark (Fig. 3). On executor loss the
//! driver invalidates that executor's cached blocks and shuffle outputs
//! and re-runs exactly the lost work from lineage (Sec. VI-D).

use std::collections::VecDeque;
use std::sync::Arc;

use hpcbd_simnet::{
    FaultEvent, MatchSpec, NodeId, Payload, Pid, ProcCtx, SimDuration, SimTime, StructuredAbort,
    Work,
};

use crate::executor::{
    ActionFn, AppShared, ExecCmd, ExecMsg, TaskKind, TaskSpec, DRIVER_TAG, EXEC_TAG, PONG_TAG,
    SERVICE_TAG,
};
use crate::plan::{Compute, PartValue, Plan, RddId, ShuffleId};
use crate::rdd::{sources, Data, Rdd};
use crate::stores::ExecId;

/// The driver handle passed to the application closure by
/// [`crate::session::SparkCluster::run`]. Provides `SparkContext`-style
/// source constructors and actions.
pub struct SparkDriver<'a> {
    pub(crate) ctx: &'a mut ProcCtx,
    pub(crate) app: Arc<AppShared>,
    pub(crate) alive: Vec<bool>,
    /// Task failures charged to each executor while it was alive.
    pub(crate) fail_counts: Vec<u32>,
    /// Executors the scheduler refuses to use (repeated task failures).
    pub(crate) blacklisted: Vec<bool>,
    pub(crate) seq: u64,
}

struct WaveOutcome {
    done: Vec<(u32, Option<PartValue>)>,
    fetch_failures: Vec<(TaskSpec, ShuffleId, u32)>,
}

impl<'a> SparkDriver<'a> {
    pub(crate) fn new(ctx: &'a mut ProcCtx, app: Arc<AppShared>) -> SparkDriver<'a> {
        let n = app.exec_pids.read().len();
        SparkDriver {
            ctx,
            app,
            alive: vec![true; n],
            fail_counts: vec![0; n],
            blacklisted: vec![false; n],
            seq: 0,
        }
    }

    /// The logical plan registry.
    pub fn plan(&self) -> Arc<Plan> {
        self.app.plan.clone()
    }

    /// Deployed HDFS instance (when the cluster was built with one).
    pub fn hdfs(&self) -> &hpcbd_minhdfs::Hdfs {
        self.app.hdfs.as_ref().expect("cluster built without HDFS")
    }

    /// Current virtual time of the driver — used by benchmarks to time
    /// individual actions.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// `sc.parallelize(data, numSlices)`.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, parts: u32) -> Rdd<T> {
        sources::parallelize(&self.app.plan, data, parts, 8)
    }

    /// `sc.parallelize` with an explicit per-item wire size.
    pub fn parallelize_with_bytes<T: Data>(
        &self,
        data: Vec<T>,
        parts: u32,
        item_bytes: u64,
    ) -> Rdd<T> {
        sources::parallelize(&self.app.plan, data, parts, item_bytes)
    }

    /// `sc.textFile` over an HDFS path (one partition per block, with
    /// replica locality).
    pub fn hadoop_file<I: hpcbd_simnet::InputFormat>(
        &self,
        path: &str,
        format: Arc<I>,
    ) -> Rdd<I::Rec> {
        sources::hadoop_file(&self.app.plan, self.hdfs(), path, format)
    }

    /// `sc.textFile` over a file replicated on every node's local scratch
    /// (Table II's "Spark on local filesystem" configuration).
    pub fn local_file<I: hpcbd_simnet::InputFormat>(
        &self,
        path: &str,
        size: u64,
        parts: u32,
        format: Arc<I>,
    ) -> Rdd<I::Rec> {
        sources::local_file(&self.app.plan, path, size, parts, format)
    }

    /// `sc.broadcast(value)`: replicate a read-only value to every
    /// executor node. Charges one control-plane transfer per node (the
    /// torrent broadcast's aggregate cost) before returning.
    pub fn broadcast<T: Send + Sync + 'static>(
        &mut self,
        value: T,
        bytes: u64,
    ) -> crate::shared::Broadcast<T> {
        let control = self.app.config.control_transport();
        let services: Vec<Pid> = self.app.service_pids.read().clone();
        // One replica per node, shipped through that node's service
        // process (any resident process works — the charge is what
        // matters; the Rust value itself is shared by Arc).
        for pid in services {
            self.ctx.send(
                pid,
                crate::executor::SERVICE_TAG,
                bytes,
                Payload::value((u64::MAX - 1, 0u32, 0u64, self.ctx.pid())),
                &control,
            );
        }
        crate::shared::Broadcast::new(value, bytes)
    }

    // ---- Actions ----

    /// `rdd.reduce(f)`: returns `None` for an empty RDD.
    pub fn reduce<T: Data>(
        &mut self,
        rdd: &Rdd<T>,
        f: impl Fn(&T, &T) -> T + Send + Sync + 'static,
    ) -> Option<T> {
        let f = Arc::new(f);
        let f2 = f.clone();
        let action: ActionFn = Arc::new(move |ctx, scale, pv| {
            let v = pv.as_slice::<T>();
            // One combine per logical element.
            ctx.compute(
                Work::new(4.0, 32.0).scaled(v.len() as f64 * scale),
                hpcbd_simnet::RuntimeClass::Jvm.factor(),
            );
            let partial = v
                .iter()
                .skip(1)
                .fold(v.first().cloned(), |acc, x| acc.map(|a| f2(&a, x)));
            PartValue::of(partial.map(|p| vec![p]).unwrap_or_default())
        });
        let partials = self.run_action(rdd.id, action);
        let mut acc: Option<T> = None;
        for (_, pv) in partials {
            if let Some(pv) = pv {
                for x in pv.as_slice::<T>() {
                    acc = Some(match acc {
                        Some(a) => f(&a, x),
                        None => x.clone(),
                    });
                }
            }
        }
        acc
    }

    /// `rdd.count()`: the number of **logical** elements (sample count
    /// scaled by the source's content scale factor).
    pub fn count<T: Data>(&mut self, rdd: &Rdd<T>) -> u64 {
        let action: ActionFn = Arc::new(|ctx, scale, pv| {
            ctx.compute(
                Work::new(1.0, 8.0).scaled(pv.items as f64 * scale),
                hpcbd_simnet::RuntimeClass::Jvm.factor(),
            );
            PartValue::of(vec![(pv.items as f64 * scale) as u64])
        });
        let partials = self.run_action(rdd.id, action);
        partials
            .into_iter()
            .filter_map(|(_, pv)| pv)
            .map(|pv| pv.as_slice::<u64>().iter().sum::<u64>())
            .sum()
    }

    /// `rdd.collect()`: the **sample** elements, in partition order.
    pub fn collect<T: Data>(&mut self, rdd: &Rdd<T>) -> Vec<T> {
        let action: ActionFn = Arc::new(|_ctx, _scale, pv| pv);
        let partials = self.run_action(rdd.id, action);
        let mut out = Vec::new();
        for (_, pv) in partials {
            if let Some(pv) = pv {
                out.extend(pv.as_slice::<T>().iter().cloned());
            }
        }
        out
    }

    /// `rdd.fold(zero, f)`: like reduce but with an identity (so empty
    /// RDDs return `zero`).
    pub fn fold<T: Data>(
        &mut self,
        rdd: &Rdd<T>,
        zero: T,
        f: impl Fn(&T, &T) -> T + Send + Sync + 'static,
    ) -> T {
        self.reduce(rdd, f).unwrap_or(zero)
    }

    /// `rdd.take(n)`: the first `n` sample elements in partition order.
    /// Like Spark, scans partitions from the front and stops once enough
    /// rows arrived (we run the first stage's tasks; early partitions
    /// usually satisfy the request).
    pub fn take<T: Data>(&mut self, rdd: &Rdd<T>, n: usize) -> Vec<T> {
        let mut out = self.collect(rdd);
        out.truncate(n);
        out
    }

    /// `rdd.first()`: the first sample element, if any.
    pub fn first<T: Data>(&mut self, rdd: &Rdd<T>) -> Option<T> {
        self.take(rdd, 1).into_iter().next()
    }

    /// Force materialization (and caching) of every partition without
    /// returning data — `rdd.foreach(_ => ())`, used to warm caches.
    pub fn materialize_all<T: Data>(&mut self, rdd: &Rdd<T>) {
        let action: ActionFn = Arc::new(|_ctx, _scale, _pv| PartValue::of(Vec::<u8>::new()));
        self.run_action(rdd.id, action);
    }

    // ---- Scheduling core ----

    /// Crate-internal entry for extension actions (e.g.
    /// `saveAsHadoopFile` in `ops_extra`).
    pub(crate) fn run_action_public(
        &mut self,
        target: RddId,
        action: ActionFn,
    ) -> Vec<(u32, Option<PartValue>)> {
        self.run_action(target, action)
    }

    fn run_action(&mut self, target: RddId, action: ActionFn) -> Vec<(u32, Option<PartValue>)> {
        self.ctx.span_open_with(|| format!("spark/job/{target}"));
        self.ctx.advance(self.app.config.job_submit_overhead);
        for sid in self.app.plan.stage_shuffle_inputs(target) {
            self.ensure_shuffle(sid);
        }
        let parts = self.app.plan.node(target).partitions;
        let tasks: Vec<TaskSpec> = (0..parts)
            .map(|p| TaskSpec {
                seq: self.next_seq(),
                target,
                part: p,
                attempts: 0,
                kind: TaskKind::Action(action.clone()),
            })
            .collect();
        let mut out = self.run_tasks(tasks);
        out.sort_by_key(|(p, _)| *p);
        self.ctx.span_close();
        out
    }

    /// Make every map output of `sid` available, re-running missing map
    /// partitions (initial run and lineage-based stage retry).
    fn ensure_shuffle(&mut self, sid: ShuffleId) {
        let dep = self.app.plan.shuffle(sid);
        for parent_sid in self.app.plan.stage_shuffle_inputs(dep.parent) {
            self.ensure_shuffle(parent_sid);
        }
        let parent_parts = self.app.plan.node(dep.parent).partitions;
        let missing: Vec<u32> = (0..parent_parts)
            .filter(|p| !self.app.shuffles.has_map_output(sid, *p))
            .collect();
        if missing.is_empty() {
            return;
        }
        let tasks: Vec<TaskSpec> = missing
            .into_iter()
            .map(|p| TaskSpec {
                seq: self.next_seq(),
                target: dep.parent,
                part: p,
                attempts: 0,
                kind: TaskKind::ShuffleMap { shuffle: sid },
            })
            .collect();
        let _ = self.run_tasks(tasks);
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Run a set of tasks to completion, recovering from fetch failures
    /// (re-running lost parent map outputs) and executor deaths
    /// (invalidating their state and re-queueing their tasks).
    fn run_tasks(&mut self, tasks: Vec<TaskSpec>) -> Vec<(u32, Option<PartValue>)> {
        let mut results = Vec::new();
        let mut remaining = tasks;
        loop {
            let outcome = self.run_wave(std::mem::take(&mut remaining));
            results.extend(outcome.done);
            if outcome.fetch_failures.is_empty() {
                break;
            }
            let mut shuffles: Vec<ShuffleId> =
                outcome.fetch_failures.iter().map(|(_, s, _)| *s).collect();
            shuffles.sort();
            shuffles.dedup();
            for s in shuffles {
                self.ensure_shuffle(s);
            }
            remaining = Vec::new();
            for (mut t, _, _) in outcome.fetch_failures {
                t.seq = self.next_seq();
                self.bump_attempts(&mut t);
                remaining.push(t);
            }
        }
        results
    }

    /// Charge a failed attempt to a task; the job aborts (Spark's
    /// `spark.task.maxFailures` semantics) once the budget is spent.
    fn bump_attempts(&mut self, task: &mut TaskSpec) {
        task.attempts += 1;
        crate::metrics::SparkMetrics::add(&self.app.metrics.task_retries, 1);
        self.ctx.record_fault(FaultEvent::Recovery {
            runtime: "spark",
            action: "task_retry",
            detail: task.part as u64,
        });
        if task.attempts > self.app.config.max_task_retries {
            StructuredAbort::raise(
                "spark",
                format!(
                    "job aborted: task for partition {} failed {} times \
                     (spark.task.maxFailures = {})",
                    task.part, task.attempts, self.app.config.max_task_retries
                ),
            );
        }
    }

    /// Whether the scheduler may hand work to `e`.
    fn schedulable(&self, e: ExecId) -> bool {
        self.alive[e as usize] && !self.blacklisted[e as usize]
    }

    /// Record a task failure against an executor; repeated failures get
    /// it blacklisted (never the last schedulable one).
    fn note_task_failure(&mut self, e: ExecId) {
        self.fail_counts[e as usize] += 1;
        let schedulable = (0..self.alive.len() as u32)
            .filter(|x| self.schedulable(*x))
            .count();
        if self.schedulable(e)
            && self.fail_counts[e as usize] >= self.app.config.blacklist_after
            && schedulable > 1
        {
            self.blacklisted[e as usize] = true;
            crate::metrics::SparkMetrics::add(&self.app.metrics.executors_blacklisted, 1);
            self.ctx.record_fault(FaultEvent::Recovery {
                runtime: "spark",
                action: "blacklist",
                detail: e as u64,
            });
        }
    }

    /// A whole node stopped answering (FaultPlan crash): kill every
    /// executor on it, drop their cached blocks and shuffle outputs, and
    /// requeue the in-flight tasks that were running there.
    fn declare_node_dead(
        &mut self,
        node: NodeId,
        in_flight: &mut std::collections::HashMap<u64, (ExecId, TaskSpec)>,
        pending: &mut VecDeque<TaskSpec>,
        twin: &mut std::collections::HashMap<u64, u64>,
        free: &mut VecDeque<ExecId>,
    ) {
        self.ctx.record_fault(FaultEvent::Recovery {
            runtime: "spark",
            action: "node_lost",
            detail: node.0 as u64,
        });
        for e in 0..self.alive.len() as u32 {
            if self.alive[e as usize] && self.app.node_of_exec(e) == node {
                self.alive[e as usize] = false;
                crate::metrics::SparkMetrics::add(&self.app.metrics.executors_lost, 1);
                self.app.blocks.invalidate_executor(e);
                let _lost = self.app.shuffles.invalidate_executor(e);
            }
        }
        free.retain(|e| self.alive[*e as usize]);
        let mut lost: Vec<u64> = in_flight
            .iter()
            .filter(|(_, (e, _))| !self.alive[*e as usize])
            .map(|(s, _)| *s)
            .collect();
        lost.sort_unstable();
        for seq in lost {
            let Some((_, mut task)) = in_flight.remove(&seq) else {
                continue;
            };
            if let Some(t) = twin.remove(&seq) {
                // A live twin still covers the logical task.
                twin.remove(&t);
            } else {
                self.bump_attempts(&mut task);
                pending.push_back(task);
            }
        }
        if !self.alive.iter().any(|a| *a) {
            StructuredAbort::raise(
                "spark",
                "job aborted: every executor died; application cannot continue",
            );
        }
    }

    /// Locality preferences of a task: walk narrow edges to sources
    /// (HDFS replicas) and to persisted parents (cached-block owner).
    fn task_prefs(&self, rdd: RddId, part: u32) -> (Vec<NodeId>, Option<ExecId>) {
        let mut nodes = Vec::new();
        let mut exec = None;
        let mut stack = vec![rdd];
        while let Some(id) = stack.pop() {
            let node = self.app.plan.node(id);
            if node.storage.read().is_some() {
                if let Some(owner) = self.block_owner(id, part) {
                    exec = exec.or(Some(owner));
                    nodes.push(self.app.node_of_exec(owner));
                    continue; // cached: no need to look further up
                }
            }
            match &node.compute {
                Compute::Source(_) => {
                    if let Some(p) = node.prefs.get(part as usize) {
                        nodes.extend(p.iter().copied());
                    }
                }
                Compute::Narrow { parent, .. } | Compute::Coalesce { parent, .. } => {
                    stack.push(*parent)
                }
                Compute::UnionSelect { left, right, .. }
                | Compute::CoPartitioned { left, right, .. } => {
                    stack.push(*left);
                    stack.push(*right);
                }
                Compute::ShuffleRead { .. } | Compute::ShuffleJoin { .. } => {}
            }
        }
        (nodes, exec)
    }

    fn block_owner(&self, rdd: RddId, part: u32) -> Option<ExecId> {
        // The block store tracks one owner per (rdd, part).
        self.app
            .blocks
            .owner(rdd, part)
            .filter(|e| self.alive.get(*e as usize) == Some(&true))
    }

    fn run_wave(&mut self, tasks: Vec<TaskSpec>) -> WaveOutcome {
        // Each recovery round of a stage is one wave; label it by what
        // the tasks produce (map outputs vs action results).
        let stage_kind = match tasks.first().map(|t| &t.kind) {
            Some(TaskKind::ShuffleMap { .. }) => "shuffle",
            _ => "result",
        };
        self.ctx
            .span_open_with(|| format!("spark/stage/{stage_kind}"));
        let exec_pids: Vec<Pid> = self.app.exec_pids.read().clone();
        let control = self.app.config.control_transport();
        let mut pending: VecDeque<TaskSpec> = tasks.into();
        // Slot-major order spreads unconstrained tasks across nodes
        // before doubling up on any one (Spark's round-robin executor
        // offers), so shuffle outputs and disk load distribute evenly.
        let epn = self.app.config.executors_per_node;
        let mut free_ids: Vec<ExecId> = (0..exec_pids.len() as u32)
            .filter(|e| self.schedulable(*e))
            .collect();
        free_ids.sort_by_key(|e| (e % epn, e / epn));
        let mut free: VecDeque<ExecId> = free_ids.into();
        let mut in_flight: std::collections::HashMap<u64, (ExecId, TaskSpec)> =
            std::collections::HashMap::new();
        // Speculation state: seq <-> backup-seq pairs running the same
        // logical task, and cancelled copies whose late completions only
        // free their executor.
        let mut twin: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut zombie_execs: std::collections::HashMap<u64, ExecId> =
            std::collections::HashMap::new();
        let mut done = Vec::new();
        let mut fetch_failures = Vec::new();
        let total = pending.len();

        // Delay-scheduling state: how many scheduling rounds each pending
        // task has been passed over while waiting for a preferred slot.
        let mut skips: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        while done.len() + fetch_failures.len() < total {
            // Assign with locality preference and delay scheduling: a task
            // whose preferred executor (cached parent) or node (HDFS
            // replica) is busy waits a few rounds before degrading to a
            // worse slot — Spark's spark.locality.wait, which is what
            // makes cached RDDs actually hit their cache under load.
            loop {
                if free.is_empty() || pending.is_empty() {
                    break;
                }
                let mut chosen: Option<(usize, usize)> = None; // (pending, free)
                for (ti, task) in pending.iter().enumerate() {
                    let (pref_nodes, pref_exec) = self.task_prefs(task.target, task.part);
                    let waited = *skips.get(&task.seq).unwrap_or(&0);
                    let pick = pref_exec
                        .and_then(|e| free.iter().position(|f| *f == e))
                        .or_else(|| {
                            if waited >= 2 || pref_exec.is_none() {
                                free.iter()
                                    .position(|f| pref_nodes.contains(&self.app.node_of_exec(*f)))
                            } else {
                                None
                            }
                        })
                        .or_else(|| {
                            if waited >= 5 || (pref_exec.is_none() && pref_nodes.is_empty()) {
                                Some(0)
                            } else {
                                None
                            }
                        });
                    match pick {
                        Some(fi) => {
                            chosen = Some((ti, fi));
                            break;
                        }
                        None => {
                            *skips.entry(task.seq).or_insert(0) += 1;
                        }
                    }
                }
                // Nothing preferred is schedulable and nothing is in
                // flight to free a better slot: force the first task.
                if chosen.is_none() && in_flight.is_empty() {
                    chosen = Some((0, 0));
                }
                let Some((ti, fi)) = chosen else { break };
                let task = pending.remove(ti).unwrap();
                let exec = free.remove(fi).unwrap();
                if task.attempts > 0 {
                    // Linear retry backoff before shipping the attempt.
                    self.ctx.advance(SimDuration::from_nanos(
                        self.app
                            .config
                            .task_retry_backoff
                            .nanos()
                            .saturating_mul(task.attempts as u64),
                    ));
                }
                self.ctx.advance(self.app.config.task_dispatch_overhead);
                let extra = match &self.app.plan.node(task.target).compute {
                    Compute::Source(_) => self
                        .app
                        .plan
                        .node(task.target)
                        .source_dispatch_bytes
                        .load(std::sync::atomic::Ordering::Relaxed),
                    _ => 0,
                };
                in_flight.insert(task.seq, (exec, task.clone()));
                self.ctx.send(
                    exec_pids[exec as usize],
                    EXEC_TAG,
                    self.app.config.task_bytes + extra,
                    Payload::value(ExecCmd::Task(task)),
                    &control,
                );
            }
            // Speculative execution: the queue drained but stragglers
            // hold the wave open — launch one backup copy of the oldest
            // running task on an idle executor; first copy home wins.
            if self.app.config.speculation && pending.is_empty() && !free.is_empty() {
                let candidate = in_flight
                    .keys()
                    .copied()
                    .filter(|s| !twin.contains_key(s))
                    .min();
                if let Some(orig) = candidate {
                    let mut copy = in_flight[&orig].1.clone();
                    copy.seq = self.next_seq();
                    twin.insert(orig, copy.seq);
                    twin.insert(copy.seq, orig);
                    crate::metrics::SparkMetrics::add(&self.app.metrics.speculative_tasks, 1);
                    self.ctx.record_fault(FaultEvent::Recovery {
                        runtime: "spark",
                        action: "speculative_task",
                        detail: copy.part as u64,
                    });
                    let exec = free.pop_front().unwrap();
                    self.ctx.advance(self.app.config.task_dispatch_overhead);
                    in_flight.insert(copy.seq, (exec, copy.clone()));
                    self.ctx.send(
                        exec_pids[exec as usize],
                        EXEC_TAG,
                        self.app.config.task_bytes,
                        Payload::value(ExecCmd::Task(copy)),
                        &control,
                    );
                }
            }
            if in_flight.is_empty() {
                StructuredAbort::raise(
                    "spark",
                    format!(
                        "job aborted: no executors alive with {} tasks outstanding",
                        pending.len()
                    ),
                );
            }
            match self
                .ctx
                .recv_timeout(MatchSpec::tag(DRIVER_TAG), self.app.config.task_timeout)
            {
                Ok(msg) => {
                    self.ctx.advance(self.app.config.result_handle_overhead);
                    let m = msg.expect_value::<ExecMsg>();
                    match &*m {
                        ExecMsg::TaskDone {
                            seq,
                            exec,
                            part,
                            result,
                        } => {
                            if in_flight.remove(seq).is_some() {
                                done.push((*part, result.clone()));
                                // Cancel a still-running speculative twin;
                                // its late completion only frees its slot.
                                if let Some(t) = twin.remove(seq) {
                                    twin.remove(&t);
                                    if let Some((ze, _)) = in_flight.remove(&t) {
                                        zombie_execs.insert(t, ze);
                                    }
                                }
                                if self.schedulable(*exec) {
                                    free.push_back(*exec);
                                }
                            } else if let Some(ze) = zombie_execs.remove(seq) {
                                if self.schedulable(ze) {
                                    free.push_back(ze);
                                }
                            }
                        }
                        ExecMsg::FetchFailed {
                            seq,
                            exec,
                            shuffle,
                            map_part,
                        } => {
                            if let Some((_, task)) = in_flight.remove(seq) {
                                crate::metrics::SparkMetrics::add(
                                    &self.app.metrics.fetch_failures,
                                    1,
                                );
                                if let Some(t) = twin.remove(seq) {
                                    twin.remove(&t);
                                    if let Some((ze, _)) = in_flight.remove(&t) {
                                        zombie_execs.insert(t, ze);
                                    }
                                }
                                // The bucket is still registered yet its
                                // service went silent: that owner's whole
                                // node is gone. Invalidate it so lineage
                                // actually re-runs the lost map outputs.
                                if let Some((_, _, owner)) =
                                    self.app.shuffles.get_bucket(*shuffle, *map_part, task.part)
                                {
                                    let node = self.app.node_of_exec(owner);
                                    self.declare_node_dead(
                                        node,
                                        &mut in_flight,
                                        &mut pending,
                                        &mut twin,
                                        &mut free,
                                    );
                                }
                                self.note_task_failure(*exec);
                                fetch_failures.push((task, *shuffle, *map_part));
                                if self.schedulable(*exec) {
                                    free.push_back(*exec);
                                }
                            } else if let Some(ze) = zombie_execs.remove(seq) {
                                if self.schedulable(ze) {
                                    free.push_back(ze);
                                }
                            }
                        }
                    }
                }
                Err(_) => {
                    // Liveness sweep: ping the executors with work in
                    // flight; the dead lose their state and their tasks.
                    // Seq-sorted so HashMap iteration order never leaks
                    // into the virtual-time schedule.
                    let mut stale: Vec<(u64, ExecId)> =
                        in_flight.iter().map(|(s, (e, _))| (*s, *e)).collect();
                    stale.sort_unstable();
                    for (seq, e) in stale {
                        if !in_flight.contains_key(&seq) {
                            continue; // already resolved earlier in this sweep
                        }
                        self.ctx.send(
                            exec_pids[e as usize],
                            EXEC_TAG,
                            32,
                            Payload::value(ExecCmd::Ping),
                            &control,
                        );
                        let ok = self
                            .ctx
                            .recv_timeout(
                                MatchSpec::src_tag(exec_pids[e as usize], PONG_TAG),
                                crate::executor::reply_slack(),
                            )
                            .is_ok();
                        if !ok {
                            self.alive[e as usize] = false;
                            crate::metrics::SparkMetrics::add(&self.app.metrics.executors_lost, 1);
                            self.app.blocks.invalidate_executor(e);
                            let _lost = self.app.shuffles.invalidate_executor(e);
                            free.retain(|f| *f != e);
                            if let Some((_, mut task)) = in_flight.remove(&seq) {
                                if let Some(t) = twin.remove(&task.seq) {
                                    // The surviving twin still covers the
                                    // logical task; don't requeue.
                                    twin.remove(&t);
                                } else {
                                    self.bump_attempts(&mut task);
                                    pending.push_back(task);
                                }
                            }
                        }
                    }
                    if !self.alive.iter().any(|a| *a) {
                        StructuredAbort::raise(
                            "spark",
                            "job aborted: every executor died; application cannot continue",
                        );
                    }
                }
            }
        }
        self.ctx.span_close();
        WaveOutcome {
            done,
            fetch_failures,
        }
    }

    /// Orderly teardown: stop executors, shuffle services, and HDFS.
    pub(crate) fn shutdown(&mut self) {
        let control = self.app.config.control_transport();
        let execs: Vec<Pid> = self.app.exec_pids.read().clone();
        for pid in execs {
            self.ctx.send(
                pid,
                EXEC_TAG,
                32,
                Payload::value(ExecCmd::Shutdown),
                &control,
            );
        }
        let services: Vec<Pid> = self.app.service_pids.read().clone();
        for pid in services {
            self.ctx.send(
                pid,
                SERVICE_TAG,
                32,
                Payload::value((u64::MAX, 0u32, 0u64, self.ctx.pid())),
                &control,
            );
        }
        if let Some(hdfs) = &self.app.hdfs.clone() {
            hdfs.shutdown(self.ctx);
        }
    }
}
