//! Executor processes, the shuffle service, and partition materialization
//! (lineage walking).

use std::sync::Arc;

use hpcbd_simnet::{
    MatchSpec, NodeId, Payload, Pid, ProcCtx, RuntimeClass, SimDuration, SimTime, Tag, Work,
};

use crate::config::SparkConfig;
use crate::plan::{Compute, PartValue, Plan, RddId, ShuffleId};
use crate::stores::{BlockStore, CacheOutcome, ExecId, ShuffleStore};

pub(crate) const EXEC_TAG: Tag = (1 << 46) + 1;
pub(crate) const DRIVER_TAG: Tag = (1 << 46) + 2;
pub(crate) const PONG_TAG: Tag = (1 << 46) + 3;
pub(crate) const SERVICE_TAG: Tag = (1 << 46) + 4;
// Fetch replies: SERVICE_REPLY | (shuffle << 24) | (node << 12) | reduce
// partition, built at both ends by `fetch_reply_tag`.
pub(crate) const SERVICE_REPLY: Tag = 1 << 47;

/// The tag of a shuffle service's reply to one fetch. A field that
/// overflowed its bits would let one fetch match another's reply.
fn fetch_reply_tag(shuffle: u64, node: NodeId, part: u32) -> Tag {
    assert!(
        shuffle < 1 << 23,
        "fetch reply tag: shuffle {shuffle} does not fit in 23 bits"
    );
    assert!(
        node.0 < 1 << 12,
        "fetch reply tag: node {} does not fit in 12 bits",
        node.0
    );
    assert!(
        part < 1 << 12,
        "fetch reply tag: reduce partition {part} does not fit in 12 bits"
    );
    SERVICE_REPLY | (shuffle << 24) | ((node.0 as u64) << 12) | part as u64
}

/// State shared by driver, executors and shuffle services.
pub(crate) struct AppShared {
    pub plan: Arc<Plan>,
    pub config: SparkConfig,
    pub blocks: BlockStore,
    pub shuffles: ShuffleStore,
    pub metrics: crate::metrics::SparkMetrics,
    pub exec_pids: parking_lot::RwLock<Vec<Pid>>,
    pub service_pids: parking_lot::RwLock<Vec<Pid>>,
    pub driver_pid: parking_lot::RwLock<Option<Pid>>,
    pub hdfs: Option<hpcbd_minhdfs::Hdfs>,
}

impl AppShared {
    pub(crate) fn node_of_exec(&self, e: ExecId) -> NodeId {
        NodeId(e / self.config.executors_per_node)
    }
}

/// Commands from driver to executor.
pub(crate) enum ExecCmd {
    Task(TaskSpec),
    Ping,
    Shutdown,
}

/// A schedulable task.
#[derive(Clone)]
pub(crate) struct TaskSpec {
    /// Wave-unique id for completion matching.
    pub seq: u64,
    /// RDD whose partition this task materializes.
    pub target: RddId,
    /// Partition index.
    pub part: u32,
    /// Failed attempts so far; the driver aborts past
    /// `SparkConfig::max_task_retries`.
    pub attempts: u32,
    pub kind: TaskKind,
}

#[derive(Clone)]
pub(crate) enum TaskKind {
    /// Materialize `target` partition `part` and register its buckets for
    /// `shuffle`.
    ShuffleMap { shuffle: ShuffleId },
    /// Materialize and apply the action's partial computation.
    Action(ActionFn),
}

pub(crate) type ActionFn = Arc<dyn Fn(&mut ProcCtx, f64, PartValue) -> PartValue + Send + Sync>;

/// Executor -> driver completion messages.
pub(crate) enum ExecMsg {
    TaskDone {
        seq: u64,
        exec: ExecId,
        part: u32,
        result: Option<PartValue>,
    },
    /// A shuffle input was missing (lost with a failed executor): the
    /// lineage event that triggers parent-stage re-execution.
    FetchFailed {
        seq: u64,
        exec: ExecId,
        shuffle: ShuffleId,
        map_part: u32,
    },
}

pub(crate) struct FetchFail {
    pub shuffle: ShuffleId,
    pub map_part: u32,
}

/// The executor main loop.
pub(crate) fn executor_loop(ctx: &mut ProcCtx, app: Arc<AppShared>, me: ExecId) {
    // Death time: the legacy per-executor knob, the FaultPlan's crash of
    // this node, whichever comes first.
    let legacy: Option<SimTime> = match app.config.fail_executor {
        Some((e, t)) if e == me => Some(t),
        _ => None,
    };
    let fail_at = match (legacy, ctx.node_crash_time()) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let control = app.config.control_transport();
    loop {
        let msg = match fail_at {
            Some(t) => match ctx.recv_deadline(MatchSpec::tag(EXEC_TAG), Some(t)) {
                Ok(m) => m,
                Err(_) => {
                    if Some(t) == ctx.node_crash_time() {
                        ctx.record_fault(hpcbd_simnet::FaultEvent::NodeCrash { node: ctx.node() });
                    }
                    return; // executor dies silently
                }
            },
            None => ctx.recv(MatchSpec::tag(EXEC_TAG)),
        };
        let driver = app.driver_pid.read().expect("driver registered");
        let cmd = msg.expect_value::<ExecCmd>();
        match &*cmd {
            ExecCmd::Ping => {
                ctx.send(driver, PONG_TAG, 16, Payload::Empty, &control);
            }
            ExecCmd::Shutdown => return,
            ExecCmd::Task(task) => {
                crate::metrics::SparkMetrics::add(&app.metrics.tasks_launched, 1);
                ctx.metric_counter(
                    "spark.tasks",
                    match &task.kind {
                        TaskKind::ShuffleMap { .. } => "kind=shuffle_map",
                        TaskKind::Action(_) => "kind=action",
                    },
                    1,
                );
                ctx.advance(app.config.task_launch_overhead);
                ctx.span_open(match &task.kind {
                    TaskKind::ShuffleMap { .. } => "spark/task/shuffle_map",
                    TaskKind::Action(_) => "spark/task/action",
                });
                let outcome = run_task(ctx, &app, me, task);
                ctx.span_close();
                let reply = match outcome {
                    Ok((result, bytes)) => (
                        ExecMsg::TaskDone {
                            seq: task.seq,
                            exec: me,
                            part: task.part,
                            result,
                        },
                        bytes,
                    ),
                    Err(f) => (
                        ExecMsg::FetchFailed {
                            seq: task.seq,
                            exec: me,
                            shuffle: f.shuffle,
                            map_part: f.map_part,
                        },
                        64,
                    ),
                };
                ctx.send(
                    driver,
                    DRIVER_TAG,
                    reply.1,
                    Payload::value(reply.0),
                    &control,
                );
            }
        }
    }
}

fn run_task(
    ctx: &mut ProcCtx,
    app: &Arc<AppShared>,
    me: ExecId,
    task: &TaskSpec,
) -> Result<(Option<PartValue>, u64), FetchFail> {
    match &task.kind {
        TaskKind::ShuffleMap { shuffle } => {
            let dep = app.plan.shuffle(*shuffle);
            let parent = app.plan.node(dep.parent);
            let pv = materialize(ctx, app, me, dep.parent, task.part)?;
            // Split + serialize + write shuffle files to local disk.
            let jvm = RuntimeClass::Jvm.factor();
            ctx.compute(
                Work::new(8.0, 64.0).scaled(pv.items as f64 * parent.scale),
                jvm,
            );
            let buckets = (dep.split)(&pv, dep.partitions);
            let sized: Vec<(PartValue, u64)> = buckets
                .into_iter()
                .map(|b| {
                    let bytes = (b.items as f64 * parent.scale * parent.item_bytes as f64) as u64;
                    (b, bytes)
                })
                .collect();
            let total: u64 = sized.iter().map(|(_, b)| *b).sum();
            // Shuffle files land in the OS page cache (Spark never
            // syncs them; a Comet node has 128 GB of RAM): charge a
            // memory-bandwidth copy, not a device write. Hadoop's
            // spills, by contrast, are modeled as real disk I/O.
            ctx.compute(Work::mem_bytes(total as f64), 1.0);
            app.shuffles.put_map_output(*shuffle, task.part, me, sized);
            Ok((None, 96))
        }
        TaskKind::Action(f) => {
            let node = app.plan.node(task.target);
            let pv = materialize(ctx, app, me, task.target, task.part)?;
            let out = f(ctx, node.scale, pv);
            let bytes = ((out.items as u64) * node.item_bytes).max(128);
            Ok((Some(out), bytes))
        }
    }
}

/// Materialize one partition by walking the lineage, using cached blocks
/// when this executor holds them.
pub(crate) fn materialize(
    ctx: &mut ProcCtx,
    app: &Arc<AppShared>,
    me: ExecId,
    rdd: RddId,
    part: u32,
) -> Result<PartValue, FetchFail> {
    let node = app.plan.node(rdd);
    let jvm = RuntimeClass::Jvm.factor();
    let persisted = *node.storage.read();
    if persisted.is_some() {
        if let Some((pv, bytes, on_disk)) = app.blocks.get(rdd, part, me) {
            crate::metrics::SparkMetrics::add(&app.metrics.cache_hits, 1);
            if on_disk {
                ctx.disk_read(bytes);
            } else {
                ctx.compute(Work::mem_bytes(bytes as f64), 1.0);
            }
            return Ok(pv);
        }
        crate::metrics::SparkMetrics::add(&app.metrics.cache_misses, 1);
    }
    let value = match &node.compute {
        Compute::Source(f) => {
            let pv = f(ctx, part);
            ctx.compute(node.work_per_item.scaled(pv.items as f64 * node.scale), jvm);
            pv
        }
        Compute::Narrow { parent, f } => {
            let pv = materialize(ctx, app, me, *parent, part)?;
            ctx.compute(node.work_per_item.scaled(pv.items as f64 * node.scale), jvm);
            f(&pv)
        }
        Compute::ShuffleRead { shuffle, combine } => {
            let buckets = fetch_shuffle(ctx, app, me, *shuffle, part)?;
            let items: usize = buckets.iter().map(|b| b.items).sum();
            ctx.compute(node.work_per_item.scaled(items as f64 * node.scale), jvm);
            combine(buckets)
        }
        Compute::ShuffleJoin {
            left,
            right,
            combine,
        } => {
            let lb = fetch_shuffle(ctx, app, me, *left, part)?;
            let rb = fetch_shuffle(ctx, app, me, *right, part)?;
            let items: usize = lb.iter().map(|b| b.items).sum::<usize>()
                + rb.iter().map(|b| b.items).sum::<usize>();
            ctx.compute(node.work_per_item.scaled(items as f64 * node.scale), jvm);
            combine(lb, rb)
        }
        Compute::Coalesce {
            parent,
            groups,
            merge,
        } => {
            let mut items = 0usize;
            let mut parts = Vec::new();
            for src in &groups[part as usize] {
                let pv = materialize(ctx, app, me, *parent, *src)?;
                items += pv.items;
                parts.push(pv);
            }
            ctx.compute(node.work_per_item.scaled(items as f64 * node.scale), jvm);
            merge(parts)
        }
        Compute::UnionSelect {
            left,
            right,
            left_parts,
        } => {
            if part < *left_parts {
                materialize(ctx, app, me, *left, part)?
            } else {
                materialize(ctx, app, me, *right, part - *left_parts)?
            }
        }
        Compute::CoPartitioned { left, right, f } => {
            let lv = materialize(ctx, app, me, *left, part)?;
            let rv = materialize(ctx, app, me, *right, part)?;
            let items = lv.items + rv.items;
            ctx.compute(node.work_per_item.scaled(items as f64 * node.scale), jvm);
            f(&lv, &rv)
        }
    };
    if let Some(level) = persisted {
        let bytes = (value.items as f64 * node.scale * node.item_bytes as f64) as u64;
        let outcome = app.blocks.put(rdd, part, me, value.clone(), bytes, level);
        match outcome {
            CacheOutcome::Disk => ctx.disk_write(bytes),
            CacheOutcome::Memory | CacheOutcome::MemoryAfterEviction => {
                ctx.compute(Work::mem_bytes(bytes as f64), 1.0)
            }
        }
    }
    Ok(value)
}

/// Fetch every map-output bucket of `shuffle` for reduce partition
/// `part`. Local buckets are page-cache reads; remote ones are grouped
/// into **one streaming request per source node** through its shuffle
/// service — Spark's `OpenBlocks` batching, which makes bandwidth (the
/// socket-vs-RDMA axis) rather than per-block round trips the dominant
/// network term.
fn fetch_shuffle(
    ctx: &mut ProcCtx,
    app: &Arc<AppShared>,
    me: ExecId,
    shuffle: ShuffleId,
    part: u32,
) -> Result<Vec<PartValue>, FetchFail> {
    let dep = app.plan.shuffle(shuffle);
    let data_tr = app.config.shuffle.data_transport();
    let my_node = app.node_of_exec(me);
    let parent_parts = app.plan.node(dep.parent).partitions;
    let mut out = Vec::with_capacity(parent_parts as usize);
    // Bytes needed from each remote source node, plus one representative
    // map partition per node to report if that node's service never
    // answers (its node crashed or is unreachable).
    let mut remote: std::collections::BTreeMap<NodeId, (u64, u32)> =
        std::collections::BTreeMap::new();
    for map_part in 0..parent_parts {
        let Some((value, bytes, owner)) = app.shuffles.get_bucket(shuffle, map_part, part) else {
            return Err(FetchFail { shuffle, map_part });
        };
        let owner_node = app.node_of_exec(owner);
        if owner_node == my_node {
            if bytes > 0 {
                // Local shuffle block: page-cache read.
                crate::metrics::SparkMetrics::add(&app.metrics.shuffle_bytes_local, bytes);
                ctx.compute(Work::mem_bytes(bytes as f64), 1.0);
            }
        } else {
            let entry = remote.entry(owner_node).or_insert((0, map_part));
            entry.0 += bytes;
        }
        out.push(value);
    }
    // One streamed transfer per source node.
    for (node, (bytes, rep_map_part)) in remote {
        if bytes == 0 {
            continue;
        }
        let tag = fetch_reply_tag(shuffle as u64, node, part);
        crate::metrics::SparkMetrics::add(&app.metrics.shuffle_bytes_remote, bytes);
        let service = app.service_pids.read()[node.index()];
        ctx.send(
            service,
            SERVICE_TAG,
            256,
            Payload::value((shuffle as u64, part, bytes, ctx.pid())),
            &data_tr,
        );
        // A healthy service answers within the transfer time; a crashed
        // node never does. Give the stream generous slack, then surface
        // the silence as a fetch failure for the driver to resolve.
        let wire = data_tr.wire_time(bytes);
        let timeout = SimDuration::from_nanos(wire.nanos().saturating_mul(4)) + reply_slack();
        if ctx.recv_timeout(MatchSpec::tag(tag), timeout).is_err() {
            return Err(FetchFail {
                shuffle,
                map_part: rep_map_part,
            });
        }
    }
    Ok(out)
}

/// Per-node shuffle service: streams batched bucket sets on the
/// configured shuffle transport. Mirrors Spark's external shuffle
/// service (and the SEDA server of the RDMA plugin). Shuffle blocks
/// live in the page cache; the NIC and this service's serialization are
/// the bottleneck, not the storage device.
pub(crate) fn shuffle_service_loop(ctx: &mut ProcCtx, app: Arc<AppShared>) {
    let data_tr = app.config.shuffle.data_transport();
    let my_node = ctx.node();
    let crash_at = ctx.node_crash_time();
    loop {
        let msg = match ctx.recv_deadline(MatchSpec::tag(SERVICE_TAG), crash_at) {
            Ok(m) => m,
            Err(_) => {
                ctx.record_fault(hpcbd_simnet::FaultEvent::NodeCrash { node: my_node });
                return; // the node died with its executors
            }
        };
        let req = msg.expect_value::<(u64, u32, u64, Pid)>();
        let (shuffle, reduce_part, bytes, reply_to) = *req;
        if shuffle == u64::MAX {
            return; // shutdown sentinel
        }
        if shuffle == u64::MAX - 1 {
            continue; // broadcast replica landed; nothing to serve
        }
        if bytes > 0 {
            ctx.compute(Work::mem_bytes(bytes as f64), 1.0);
        }
        let tag = fetch_reply_tag(shuffle, my_node, reduce_part);
        ctx.send(reply_to, tag, bytes.max(1), Payload::Empty, &data_tr);
    }
}

/// Executor-side helper shared with the driver for sizing result waits.
pub(crate) fn reply_slack() -> SimDuration {
    SimDuration::from_secs(5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_reply_tags_keep_their_fields_apart() {
        let top = fetch_reply_tag((1 << 23) - 1, NodeId(4095), 4095);
        assert_eq!(top, SERVICE_REPLY | ((1 << 47) - 1));
        assert_ne!(
            fetch_reply_tag(0, NodeId(1), 0),
            fetch_reply_tag(0, NodeId(0), 4095)
        );
    }

    #[test]
    #[should_panic(expected = "reduce partition 4096 does not fit")]
    fn fetch_reply_tag_rejects_a_partition_past_its_field() {
        fetch_reply_tag(0, NodeId(0), 4096);
    }

    #[test]
    #[should_panic(expected = "node 4096 does not fit")]
    fn fetch_reply_tag_rejects_a_node_past_its_field() {
        fetch_reply_tag(0, NodeId(4096), 0);
    }
}
