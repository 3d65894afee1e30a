//! The MapReduce execution engine: jobtracker, workers, shuffle servers.
//!
//! Faithful to the cost structure the paper attributes to Hadoop
//! (Sec. II-D, V-C): per-job and per-task JVM startup, every intermediate
//! result **persisted to local disk** (map-side spill, shuffle-server
//! read-back), a socket-transport shuffle, merge-sort at the reducer, and
//! replicated HDFS output. Failed tasks are detected by timeout + ping
//! and re-executed on surviving workers ("failed tasks are re-executed
//! automatically").

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::Hash;
use std::sync::Arc;

use parking_lot::RwLock;

use hpcbd_cluster::ClusterSpec;
use hpcbd_minhdfs::{Hdfs, HdfsBlock, HdfsConfig};
use hpcbd_simnet::{
    partition_of, DetMap, FaultEvent, FaultPlan, MatchSpec, NodeId, Payload, Pid, ProcCtx,
    RuntimeClass, Sim, SimDuration, SimTime, StructuredAbort, Tag, Transport, Work,
};

use crate::types::{InputFormat, JobConf, LocalityStats};

const JT_TAG: Tag = (1 << 44) + 1;
const WORKER_TAG: Tag = (1 << 44) + 2;
const SHUF_TAG: Tag = (1 << 44) + 3;
const PONG_TAG: Tag = (1 << 44) + 4;
// Own region: reply tags encode (map task << 8) | partition.
const SHUF_REPLY: Tag = 1 << 45;

/// Average serialized bytes of one intermediate key/value pair — drives
/// logical shuffle sizes (Java serialization is verbose).
pub const PAIR_BYTES: u64 = 24;

enum WorkerMsg {
    Map { task: u32, block: HdfsBlock },
    Reduce { partition: u32, map_tasks: u32 },
    Ping,
    Shutdown,
}

enum JtMsg<K2, V2> {
    MapDone {
        task: u32,
        worker: u32,
    },
    ReduceDone {
        partition: u32,
        worker: u32,
        pairs: Vec<(K2, V2)>,
    },
    /// A reducer's shuffle fetch timed out: the map output's home node is
    /// gone and the map must be re-executed (the reduce attempt aborted).
    MapLost {
        map_task: u32,
        partition: u32,
        worker: u32,
    },
}

struct ShufFetch {
    map_task: u32,
    partition: u32,
    reply_to: Pid,
}

/// Typed pairs of one shuffle bucket, keyed by (map task, partition).
type BucketPairs<K2, V2> = DetMap<(u32, u32), Arc<Vec<(K2, V2)>>>;

/// Map-output store: data plane (typed pairs) and size plane (logical
/// bytes) for the shuffle servers. Index: (map task, reduce partition).
struct MapOutputs<K2, V2> {
    pairs: RwLock<BucketPairs<K2, V2>>,
    bytes: RwLock<DetMap<(u32, u32), u64>>,
    /// Node that ran each map task (set at completion).
    homes: RwLock<DetMap<u32, NodeId>>,
}

impl<K2, V2> MapOutputs<K2, V2> {
    fn new() -> Arc<Self> {
        Arc::new(MapOutputs {
            pairs: RwLock::new(DetMap::default()),
            bytes: RwLock::new(DetMap::default()),
            homes: RwLock::new(DetMap::default()),
        })
    }
}

/// Everything the spawned processes share.
/// A boxed user map function.
type MapFn<R, K2, V2> = Box<dyn Fn(&R) -> Vec<(K2, V2)> + Send + Sync>;
/// A boxed user reduce/combine function.
type ReduceFn<K2, V2> = Box<dyn Fn(&K2, &[V2]) -> V2 + Send + Sync>;

struct JobCtx<I: InputFormat, K2, V2> {
    conf: JobConf,
    hdfs: Hdfs,
    input_path: String,
    format: Arc<I>,
    mapper: MapFn<I::Rec, K2, V2>,
    reducer: ReduceFn<K2, V2>,
    combiner: Option<ReduceFn<K2, V2>>,
    /// Extra CPU work per logical record in the map (beyond parsing).
    map_work: Work,
    /// CPU work per logical intermediate pair in the reduce.
    reduce_work: Work,
    outputs: Arc<MapOutputs<K2, V2>>,
    worker_pids: RwLock<Vec<Pid>>,
    shuffle_pids: RwLock<Vec<Pid>>,
    jt_pid: RwLock<Option<Pid>>,
    /// Fault injection: (worker index, dies after completing N map tasks).
    fail_worker: Option<(u32, u32)>,
    /// Straggler injection: (worker index, compute slowdown factor).
    slow_worker: Option<(u32, f64)>,
}

/// Result of a completed MapReduce job.
pub struct MrResult<K2, V2> {
    /// All reducer output pairs, sorted by partition then key order of
    /// arrival (deterministic).
    pub pairs: Vec<(K2, V2)>,
    /// The job's virtual execution time.
    pub elapsed: SimTime,
    /// Locality / re-execution accounting.
    pub locality: LocalityStats,
}

/// Configuration + closures for one job. Build with [`MrJobBuilder`].
pub struct MrJobBuilder<I: InputFormat, K2, V2> {
    conf: JobConf,
    format: Arc<I>,
    input_path: String,
    input_size: u64,
    mapper: MapFn<I::Rec, K2, V2>,
    reducer: ReduceFn<K2, V2>,
    combiner: Option<ReduceFn<K2, V2>>,
    map_work: Work,
    reduce_work: Work,
    hdfs_config: HdfsConfig,
    fail_worker: Option<(u32, u32)>,
    slow_worker: Option<(u32, f64)>,
    execution: Option<hpcbd_simnet::Execution>,
    faults: Option<FaultPlan>,
}

impl<I, K2, V2> MrJobBuilder<I, K2, V2>
where
    I: InputFormat,
    K2: Clone + Eq + Ord + Hash + Send + Sync + 'static,
    V2: Clone + Send + Sync + 'static,
{
    /// A job over `input_path` of `input_size` logical bytes, whose
    /// content is described by `format`.
    pub fn new(
        format: Arc<I>,
        input_path: &str,
        input_size: u64,
        mapper: impl Fn(&I::Rec) -> Vec<(K2, V2)> + Send + Sync + 'static,
        reducer: impl Fn(&K2, &[V2]) -> V2 + Send + Sync + 'static,
    ) -> Self {
        MrJobBuilder {
            conf: JobConf::default(),
            format,
            input_path: input_path.to_string(),
            input_size,
            mapper: Box::new(mapper),
            reducer: Box::new(reducer),
            combiner: None,
            map_work: Work::NONE,
            reduce_work: Work::new(8.0, 48.0),
            hdfs_config: HdfsConfig::default(),
            fail_worker: None,
            slow_worker: None,
            execution: None,
            faults: None,
        }
    }

    /// Install a deterministic fault plan: node crashes kill that node's
    /// workers and shuffle server (their tasks and map outputs are
    /// re-executed elsewhere), stragglers stretch compute, link/drop
    /// faults delay messages. Node 0 hosts the jobtracker — a real
    /// Hadoop-1 SPOF — so crashing it is refused.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        assert!(
            plan.crash_time(NodeId(0)).is_none(),
            "node 0 hosts the jobtracker; crashing it kills the job"
        );
        self.faults = Some(plan);
        self
    }

    /// Select the engine execution mode for this run (virtual-time
    /// results are bit-identical across modes; see
    /// [`hpcbd_simnet::parallel`]).
    pub fn execution(mut self, exec: hpcbd_simnet::Execution) -> Self {
        self.execution = Some(exec);
        self
    }

    /// Set the job configuration.
    pub fn conf(mut self, conf: JobConf) -> Self {
        self.conf = conf;
        self
    }

    /// Set the HDFS configuration (block size drives the split count).
    pub fn hdfs(mut self, config: HdfsConfig) -> Self {
        self.hdfs_config = config;
        self
    }

    /// Install a combiner (map-side pre-reduction).
    pub fn combiner(mut self, c: impl Fn(&K2, &[V2]) -> V2 + Send + Sync + 'static) -> Self {
        self.combiner = Some(Box::new(c));
        self
    }

    /// Extra CPU work per logical record in the map phase.
    pub fn map_work(mut self, w: Work) -> Self {
        self.map_work = w;
        self
    }

    /// CPU work per logical intermediate pair in the reduce phase.
    pub fn reduce_work(mut self, w: Work) -> Self {
        self.reduce_work = w;
        self
    }

    /// Fault injection: worker `w` dies silently while running its
    /// `n+1`-th map task.
    pub fn fail_worker_after(mut self, w: u32, n: u32) -> Self {
        self.fail_worker = Some((w, n));
        self
    }

    /// Straggler injection: worker `w` computes `factor`x slower (a bad
    /// disk or a noisy neighbour). Pair with
    /// [`crate::JobConf::speculative_execution`] to watch backup tasks
    /// rescue the job.
    pub fn slow_worker(mut self, w: u32, factor: f64) -> Self {
        assert!(factor >= 1.0);
        self.slow_worker = Some((w, factor));
        self
    }

    /// Run the job on a fresh `nodes`-node Comet allocation.
    pub fn run(self, nodes: u32) -> MrResult<K2, V2> {
        let cluster = ClusterSpec::comet(nodes);
        let mut sim = Sim::new(cluster.topology());
        if let Some(exec) = self.execution {
            sim.set_execution(exec);
        }
        if let Some(plan) = self.faults {
            sim.set_fault_plan(plan);
        }
        let hdfs = Hdfs::deploy(&mut sim, self.hdfs_config, None);
        hdfs.load_file_instant(&self.input_path, self.input_size, None);

        let job = Arc::new(JobCtx {
            conf: self.conf,
            hdfs: hdfs.clone(),
            input_path: self.input_path.clone(),
            format: self.format,
            mapper: self.mapper,
            reducer: self.reducer,
            combiner: self.combiner,
            map_work: self.map_work,
            reduce_work: self.reduce_work,
            outputs: MapOutputs::new(),
            worker_pids: RwLock::new(Vec::new()),
            shuffle_pids: RwLock::new(Vec::new()),
            jt_pid: RwLock::new(None),
            fail_worker: self.fail_worker,
            slow_worker: self.slow_worker,
        });

        // Shuffle server per node.
        for n in 0..nodes {
            let job2 = job.clone();
            let pid = sim.spawn(NodeId(n), format!("shuffle@{n}"), move |ctx| {
                shuffle_server(ctx, job2)
            });
            job.shuffle_pids.write().push(pid);
        }
        // Workers: slots per node.
        let mut widx = 0u32;
        for n in 0..nodes {
            for s in 0..self.conf.slots_per_node {
                let job2 = job.clone();
                let w = widx;
                let pid = sim.spawn(NodeId(n), format!("worker{w}@n{n}s{s}"), move |ctx| {
                    worker_loop(ctx, job2, w)
                });
                job.worker_pids.write().push(pid);
                widx += 1;
            }
        }
        // Jobtracker on node 0.
        let job2 = job.clone();
        let jt = sim.spawn(NodeId(0), "jobtracker", move |ctx| jobtracker(ctx, job2));
        *job.jt_pid.write() = Some(jt);

        let mut report = sim.run();
        let (pairs, locality) = report.result::<(Vec<(K2, V2)>, LocalityStats)>(jt);
        // Job time is the tracker's completion: the client-visible end.
        // (Speculative losers may still be burning cycles afterwards —
        // real Hadoop kills them; we just stop billing them.)
        let elapsed = report.procs[jt.index()].finish;
        MrResult {
            pairs,
            elapsed,
            locality,
        }
    }
}

fn control() -> Transport {
    Transport::java_socket_control()
}

fn jobtracker<I, K2, V2>(
    ctx: &mut ProcCtx,
    job: Arc<JobCtx<I, K2, V2>>,
) -> (Vec<(K2, V2)>, LocalityStats)
where
    I: InputFormat,
    K2: Clone + Eq + Ord + Hash + Send + Sync + 'static,
    V2: Clone + Send + Sync + 'static,
{
    let conf = job.conf;
    ctx.advance(conf.job_startup);
    let file = job
        .hdfs
        .stat(&job.input_path)
        .expect("input file loaded before job start");
    let worker_pids: Vec<Pid> = job.worker_pids.read().clone();
    let nworkers = worker_pids.len() as u32;
    let worker_node = |w: u32| -> NodeId { NodeId(w / conf.slots_per_node) };

    let mut locality = LocalityStats::default();
    let mut alive: Vec<bool> = vec![true; nworkers as usize];
    let mut free: VecDeque<u32> = (0..nworkers).collect();
    let mut pending: VecDeque<(u32, HdfsBlock)> = file
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (i as u32, b.clone()))
        .collect();
    let total_maps = pending.len() as u32;
    // Worker -> (task, block); the task flags are indexed by the dense
    // map task id.
    let mut in_flight: DetMap<u32, (u32, HdfsBlock)> = DetMap::default();
    let mut done_tasks = vec![false; total_maps as usize];
    let mut backed_up = vec![false; total_maps as usize];
    let mut done_maps = 0u32;

    // ---- Map phase ----
    ctx.span_open("mr/map_wave");
    while done_maps < total_maps {
        // Speculative execution: with no fresh work left but idle slots
        // and stragglers in flight, launch one backup copy per laggard
        // (Hadoop's `mapreduce.map.speculative`). First completion wins.
        // A task runs on one worker until it is backed up, so the
        // candidates' task ids are distinct: the minimum does not depend
        // on the map's iteration order.
        if conf.speculative_execution && pending.is_empty() && !free.is_empty() {
            let laggard = in_flight
                .iter()
                .filter(|(_, (t, _))| !backed_up[*t as usize] && !done_tasks[*t as usize])
                .map(|(w, (t, b))| (*w, *t, b.clone()))
                .min_by_key(|(_, t, _)| *t);
            if let Some((_, task, block)) = laggard {
                let w = free.pop_front().unwrap();
                backed_up[task as usize] = true;
                locality.speculative_maps += 1;
                ctx.advance(conf.scheduling_delay);
                in_flight.insert(w, (task, block.clone()));
                ctx.send(
                    worker_pids[w as usize],
                    WORKER_TAG,
                    512,
                    Payload::value(WorkerMsg::Map { task, block }),
                    &control(),
                );
            }
        }
        // Assign while possible, preferring block-local workers.
        while !pending.is_empty() && !free.is_empty() {
            let (slot_in_pending, widx) = {
                // Find a (task, free worker) pair with locality.
                let mut found = None;
                'outer: for (ti, (_, block)) in pending.iter().enumerate() {
                    for (fi, w) in free.iter().enumerate() {
                        if block.is_local_to(worker_node(*w)) {
                            found = Some((ti, fi));
                            break 'outer;
                        }
                    }
                }
                match found {
                    Some((ti, fi)) => (ti, fi),
                    None => (0, 0),
                }
            };
            let (task, block) = pending.remove(slot_in_pending).unwrap();
            let w = free.remove(widx).unwrap();
            if block.is_local_to(worker_node(w)) {
                locality.local_maps += 1;
            } else {
                locality.remote_maps += 1;
            }
            ctx.advance(conf.scheduling_delay);
            in_flight.insert(w, (task, block.clone()));
            ctx.send(
                worker_pids[w as usize],
                WORKER_TAG,
                512,
                Payload::value(WorkerMsg::Map { task, block }),
                &control(),
            );
        }
        // Await a completion (or detect failures).
        match ctx.recv_timeout(MatchSpec::tag(JT_TAG), conf.task_timeout) {
            Ok(msg) => {
                let m = msg.expect_value::<JtMsg<K2, V2>>();
                if let JtMsg::MapDone { task, worker } = &*m {
                    in_flight.remove(worker);
                    free.push_back(*worker);
                    // Duplicate completions (speculation) count once.
                    if !std::mem::replace(&mut done_tasks[*task as usize], true) {
                        done_maps += 1;
                    }
                }
            }
            Err(_) => {
                // Ping every in-flight worker; requeue tasks of the dead.
                // Sorted so the map's iteration order never leaks into
                // the virtual-time schedule.
                let mut stale: Vec<u32> = in_flight.keys().copied().collect();
                stale.sort_unstable();
                for w in stale {
                    ctx.send(
                        worker_pids[w as usize],
                        WORKER_TAG,
                        64,
                        Payload::value(WorkerMsg::Ping),
                        &control(),
                    );
                    let alive_now = ctx
                        .recv_timeout(
                            MatchSpec::src_tag(worker_pids[w as usize], PONG_TAG),
                            SimDuration::from_secs(5),
                        )
                        .is_ok();
                    if !alive_now {
                        alive[w as usize] = false;
                        let (task, block) = in_flight.remove(&w).expect("in flight");
                        locality.reexecuted_maps += 1;
                        ctx.record_fault(FaultEvent::Recovery {
                            runtime: "mapreduce",
                            action: "map_reexec",
                            detail: task as u64,
                        });
                        pending.push_back((task, block));
                    }
                }
                if !alive.iter().any(|a| *a) {
                    StructuredAbort::raise(
                        "mapreduce",
                        "job aborted: every worker died; job cannot finish",
                    );
                }
            }
        }
    }

    ctx.span_close();

    // ---- Reduce phase ----
    ctx.span_open("mr/reduce_wave");
    let mut pending_r: VecDeque<u32> = (0..conf.reduce_tasks).collect();
    let mut in_flight_r: DetMap<u32, u32> = DetMap::default();
    // Maps whose outputs died with their node, forced back into execution
    // by reducer MapLost reports.
    let mut pending_m: VecDeque<u32> = VecDeque::new();
    let mut in_flight_m: DetMap<u32, u32> = DetMap::default(); // worker -> map task
    let mut remapping = vec![false; total_maps as usize]; // by map task
    let mut output: Vec<(u32, Vec<(K2, V2)>)> = Vec::new();
    while output.len() < conf.reduce_tasks as usize {
        // Lost maps re-execute first; affected reduces wait for their
        // fresh outputs rather than timing out again.
        while !pending_m.is_empty() && !free.is_empty() {
            let t = pending_m.pop_front().unwrap();
            let w = free.pop_front().unwrap();
            if !alive[w as usize] {
                pending_m.push_front(t);
                continue;
            }
            let block = file.blocks[t as usize].clone();
            locality.reexecuted_maps += 1;
            ctx.advance(conf.scheduling_delay);
            in_flight_m.insert(w, t);
            ctx.send(
                worker_pids[w as usize],
                WORKER_TAG,
                512,
                Payload::value(WorkerMsg::Map { task: t, block }),
                &control(),
            );
        }
        while pending_m.is_empty()
            && in_flight_m.is_empty()
            && !pending_r.is_empty()
            && !free.is_empty()
        {
            let r = pending_r.pop_front().unwrap();
            let w = free.pop_front().unwrap();
            if !alive[w as usize] {
                pending_r.push_front(r);
                continue;
            }
            ctx.advance(conf.scheduling_delay);
            in_flight_r.insert(w, r);
            ctx.send(
                worker_pids[w as usize],
                WORKER_TAG,
                256,
                Payload::value(WorkerMsg::Reduce {
                    partition: r,
                    map_tasks: total_maps,
                }),
                &control(),
            );
        }
        match ctx.recv_timeout(MatchSpec::tag(JT_TAG), conf.task_timeout) {
            Ok(msg) => {
                let m = msg.expect_value::<JtMsg<K2, V2>>();
                match &*m {
                    JtMsg::ReduceDone {
                        partition,
                        worker,
                        pairs,
                    } => {
                        in_flight_r.remove(worker);
                        free.push_back(*worker);
                        output.push((*partition, pairs.clone()));
                    }
                    // A re-executed map finishing, or a speculative
                    // duplicate from the map phase arriving late.
                    JtMsg::MapDone { task, worker } => {
                        if in_flight_m.remove(worker).is_some() {
                            remapping[*task as usize] = false;
                        } else {
                            in_flight.remove(worker);
                        }
                        free.push_back(*worker);
                    }
                    JtMsg::MapLost {
                        map_task,
                        partition,
                        worker,
                    } => {
                        // The reporting reducer aborted: reclaim it and
                        // requeue its partition for after the re-map.
                        in_flight_r.remove(worker);
                        free.push_back(*worker);
                        pending_r.push_back(*partition);
                        // The map output's home node is dead: write off
                        // every worker there and requeue their work.
                        let home = job.outputs.homes.read().get(map_task).copied();
                        if let Some(home) = home {
                            ctx.record_fault(FaultEvent::Recovery {
                                runtime: "mapreduce",
                                action: "node_lost",
                                detail: home.0 as u64,
                            });
                            for w in 0..nworkers {
                                if alive[w as usize] && worker_node(w) == home {
                                    alive[w as usize] = false;
                                    if let Some(r) = in_flight_r.remove(&w) {
                                        pending_r.push_back(r);
                                    }
                                    if let Some(t) = in_flight_m.remove(&w) {
                                        remapping[t as usize] = false;
                                        pending_m.push_back(t);
                                    }
                                }
                            }
                            free.retain(|w| alive[*w as usize]);
                        }
                        if !std::mem::replace(&mut remapping[*map_task as usize], true) {
                            ctx.record_fault(FaultEvent::Recovery {
                                runtime: "mapreduce",
                                action: "map_reexec",
                                detail: *map_task as u64,
                            });
                            pending_m.push_back(*map_task);
                        }
                    }
                }
            }
            Err(_) => {
                let mut stale: Vec<u32> = in_flight_r
                    .keys()
                    .chain(in_flight_m.keys())
                    .copied()
                    .collect();
                stale.sort_unstable();
                for w in stale {
                    ctx.send(
                        worker_pids[w as usize],
                        WORKER_TAG,
                        64,
                        Payload::value(WorkerMsg::Ping),
                        &control(),
                    );
                    let ok = ctx
                        .recv_timeout(
                            MatchSpec::src_tag(worker_pids[w as usize], PONG_TAG),
                            SimDuration::from_secs(5),
                        )
                        .is_ok();
                    if !ok {
                        alive[w as usize] = false;
                        if let Some(r) = in_flight_r.remove(&w) {
                            pending_r.push_back(r);
                        }
                        if let Some(t) = in_flight_m.remove(&w) {
                            remapping[t as usize] = false;
                            locality.reexecuted_maps += 1;
                            pending_m.push_back(t);
                        }
                    }
                }
                if !alive.iter().any(|a| *a) {
                    StructuredAbort::raise(
                        "mapreduce",
                        "job aborted: every worker died; job cannot finish",
                    );
                }
            }
        }
    }

    ctx.span_close();

    // ---- Teardown ----
    // Shutdown goes to every worker, including ones presumed dead: a
    // worker wrongly declared dead by a slow ping is still blocked on its
    // queue, and a message to a truly dead process is silently dropped.
    for pid in worker_pids.iter() {
        ctx.send(
            *pid,
            WORKER_TAG,
            32,
            Payload::value(WorkerMsg::Shutdown),
            &control(),
        );
    }
    for pid in job.shuffle_pids.read().iter() {
        ctx.send(
            *pid,
            SHUF_TAG,
            32,
            Payload::value(ShufFetch {
                map_task: u32::MAX,
                partition: u32::MAX,
                reply_to: ctx.pid(),
            }),
            &control(),
        );
    }
    job.hdfs.shutdown(ctx);

    output.sort_by_key(|(p, _)| *p);
    let pairs = output.into_iter().flat_map(|(_, v)| v).collect();
    (pairs, locality)
}

fn worker_loop<I, K2, V2>(ctx: &mut ProcCtx, job: Arc<JobCtx<I, K2, V2>>, me: u32)
where
    I: InputFormat,
    K2: Clone + Eq + Ord + Hash + Send + Sync + 'static,
    V2: Clone + Send + Sync + 'static,
{
    // Straggler injection slows the map-side compute (the phase backup
    // tasks cover; reduce speculation is not modeled).
    let slowdown = match job.slow_worker {
        Some((w, f)) if w == me => f,
        _ => 1.0,
    };
    let jvm_factor = RuntimeClass::Jvm.factor();
    let crash_at = ctx.node_crash_time();
    let mut maps_done = 0u32;
    loop {
        let msg = match ctx.recv_deadline(MatchSpec::tag(WORKER_TAG), crash_at) {
            Ok(m) => m,
            Err(_) => {
                ctx.record_fault(FaultEvent::NodeCrash { node: ctx.node() });
                return; // the node died under this tasktracker
            }
        };
        let m = msg.expect_value::<WorkerMsg>();
        let jt = job.jt_pid.read().expect("jobtracker registered");
        match &*m {
            WorkerMsg::Ping => {
                ctx.send(jt, PONG_TAG, 16, Payload::Empty, &control());
            }
            WorkerMsg::Shutdown => return,
            WorkerMsg::Map { task, block } => {
                if let Some((fw, after)) = job.fail_worker {
                    if fw == me && maps_done >= after {
                        // Die silently mid-task.
                        return;
                    }
                }
                ctx.metric_counter("mr.tasks", "kind=map", 1);
                ctx.span_open("mr/task/map");
                ctx.advance(job.conf.task_jvm_startup);
                job.hdfs.read_block(ctx, block);
                let records = job.format.sample_records(block.offset, block.len);
                let scale = job.format.logical_scale();
                // Parse + map cost over *logical* records.
                let per_rec = job.format.record_work().plus(job.map_work);
                ctx.compute(
                    per_rec.scaled(records.len() as f64 * scale),
                    jvm_factor * slowdown,
                );
                // Real map over the sample.
                let parts = job.conf.reduce_tasks;
                let mut out: Vec<Vec<(K2, V2)>> = (0..parts).map(|_| Vec::new()).collect();
                let mut emitted = 0u64;
                for rec in &records {
                    for (k, v) in (job.mapper)(rec) {
                        emitted += 1;
                        let p = partition_of(&k, parts);
                        out[p as usize].push((k, v));
                    }
                }
                // Optional combiner (map-side pre-reduction).
                if let Some(comb) = &job.combiner {
                    ctx.compute(
                        Work::new(emitted as f64, emitted as f64 * 32.0).scaled(scale),
                        jvm_factor,
                    );
                    for slot in out.iter_mut() {
                        *slot = combine_pairs(std::mem::take(slot), comb);
                    }
                }
                // Spill to local disk (the defining Hadoop cost).
                let mut total_logical = 0u64;
                for (p, pairs) in out.into_iter().enumerate() {
                    let logical = (pairs.len() as f64 * scale * PAIR_BYTES as f64) as u64;
                    total_logical += logical;
                    job.outputs
                        .pairs
                        .write()
                        .insert((*task, p as u32), Arc::new(pairs));
                    job.outputs.bytes.write().insert((*task, p as u32), logical);
                }
                ctx.advance(SimDuration::from_secs_f64(
                    total_logical as f64 * job.conf.spill_cpu_per_byte,
                ));
                ctx.disk_write(total_logical);
                job.outputs.homes.write().insert(*task, ctx.node());
                maps_done += 1;
                ctx.send(
                    jt,
                    JT_TAG,
                    128,
                    Payload::value(JtMsg::<K2, V2>::MapDone {
                        task: *task,
                        worker: me,
                    }),
                    &control(),
                );
                ctx.span_close();
            }
            WorkerMsg::Reduce {
                partition,
                map_tasks,
            } => {
                ctx.metric_counter("mr.tasks", "kind=reduce", 1);
                ctx.span_open("mr/task/reduce");
                ctx.advance(job.conf.task_jvm_startup);
                let scale = job.format.logical_scale();
                let ipoib = Transport::ipoib_socket();
                // Shuffle: fetch this partition of every map output. A
                // fetch that outlives its generous deadline means the map
                // output's home node is gone — report it and abort; the
                // tracker re-executes the map and retries this reduce.
                let mut all: Vec<(K2, V2)> = Vec::new();
                let mut logical_in = 0u64;
                let mut lost: Option<u32> = None;
                for mt in 0..*map_tasks {
                    let home = *job
                        .outputs
                        .homes
                        .read()
                        .get(&mt)
                        .expect("map output registered");
                    let bytes = *job
                        .outputs
                        .bytes
                        .read()
                        .get(&(mt, *partition))
                        .expect("partition size");
                    logical_in += bytes;
                    if home == ctx.node() {
                        if bytes > 0 {
                            ctx.disk_read(bytes);
                        }
                    } else if bytes > 0 {
                        let server = job.shuffle_pids.read()[home.index()];
                        ctx.send(
                            server,
                            SHUF_TAG,
                            128,
                            Payload::value(ShufFetch {
                                map_task: mt,
                                partition: *partition,
                                reply_to: ctx.pid(),
                            }),
                            &control(),
                        );
                        let wire = ipoib.wire_time(bytes);
                        let timeout = SimDuration::from_nanos(wire.nanos().saturating_mul(4))
                            + SimDuration::from_secs(5);
                        if ctx
                            .recv_timeout(
                                MatchSpec::tag(SHUF_REPLY + ((mt as u64) << 8) + *partition as u64),
                                timeout,
                            )
                            .is_err()
                        {
                            lost = Some(mt);
                            break;
                        }
                    }
                    if let Some(pairs) = job.outputs.pairs.read().get(&(mt, *partition)) {
                        all.extend(pairs.iter().cloned());
                    }
                }
                if let Some(mt) = lost {
                    ctx.send(
                        jt,
                        JT_TAG,
                        96,
                        Payload::value(JtMsg::<K2, V2>::MapLost {
                            map_task: mt,
                            partition: *partition,
                            worker: me,
                        }),
                        &control(),
                    );
                    ctx.span_close();
                    continue;
                }
                // Merge sort cost over logical pairs.
                let n_logical = (logical_in / PAIR_BYTES).max(1) as f64;
                ctx.compute(
                    Work::new(n_logical * n_logical.log2().max(1.0), n_logical * 48.0),
                    jvm_factor,
                );
                // Real grouped reduce.
                let reduced = combine_pairs(all, &job.reducer);
                ctx.compute(job.reduce_work.scaled(n_logical), jvm_factor);
                // Output to HDFS (replicated write).
                let out_logical = (reduced.len() as f64 * scale * PAIR_BYTES as f64) as u64;
                job.hdfs.write_file(
                    ctx,
                    &format!("{}/part-r-{partition:05}", job.input_path),
                    out_logical,
                    None,
                );
                ctx.send(
                    jt,
                    JT_TAG,
                    out_logical.max(64),
                    Payload::value(JtMsg::<K2, V2>::ReduceDone {
                        partition: *partition,
                        worker: me,
                        pairs: reduced,
                    }),
                    &control(),
                );
                ctx.span_close();
            }
        }
    }
}

/// Group pairs by key and fold each group, in key order. Each key's
/// values keep their input order. Only the distinct keys are sorted.
fn combine_pairs<K2, V2>(
    pairs: Vec<(K2, V2)>,
    f: &(impl Fn(&K2, &[V2]) -> V2 + ?Sized),
) -> Vec<(K2, V2)>
where
    K2: Clone + Eq + Ord + Hash,
{
    let mut slot: DetMap<K2, usize> = DetMap::default();
    let mut groups: Vec<(K2, Vec<V2>)> = Vec::new();
    for (k, v) in pairs {
        match slot.entry(k) {
            Entry::Occupied(e) => groups[*e.get()].1.push(v),
            Entry::Vacant(e) => {
                groups.push((e.key().clone(), vec![v]));
                e.insert(groups.len() - 1);
            }
        }
    }
    // Keys are distinct, so an unstable sort yields the stable order.
    groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    groups
        .into_iter()
        .map(|(k, vs)| {
            let out = f(&k, &vs);
            (k, out)
        })
        .collect()
}

fn shuffle_server<I, K2, V2>(ctx: &mut ProcCtx, job: Arc<JobCtx<I, K2, V2>>)
where
    I: InputFormat,
    K2: Clone + Send + Sync + 'static,
    V2: Clone + Send + Sync + 'static,
{
    let ipoib = Transport::ipoib_socket();
    let crash_at = ctx.node_crash_time();
    loop {
        let msg = match ctx.recv_deadline(MatchSpec::tag(SHUF_TAG), crash_at) {
            Ok(m) => m,
            Err(_) => {
                ctx.record_fault(FaultEvent::NodeCrash { node: ctx.node() });
                return; // the node died with its map outputs
            }
        };
        let req = msg.expect_value::<ShufFetch>();
        if req.map_task == u32::MAX {
            return; // shutdown sentinel
        }
        let bytes = *job
            .outputs
            .bytes
            .read()
            .get(&(req.map_task, req.partition))
            .expect("partition size registered");
        // Map outputs live on disk; read back, then stream to the reducer.
        if bytes > 0 {
            ctx.disk_read(bytes);
        }
        ctx.send(
            req.reply_to,
            SHUF_REPLY + ((req.map_task as u64) << 8) + req.partition as u64,
            bytes.max(1),
            Payload::Empty,
            &ipoib,
        );
    }
}

/// The `RandomState`-map grouping `combine_pairs` had before it grouped
/// through a `DetMap` index: the oracle for the live body.
#[cfg(test)]
mod hash_map_oracle {
    use std::collections::HashMap;
    use std::hash::Hash;

    pub fn combine_pairs<K2, V2>(
        pairs: Vec<(K2, V2)>,
        f: &(impl Fn(&K2, &[V2]) -> V2 + ?Sized),
    ) -> Vec<(K2, V2)>
    where
        K2: Clone + Eq + Ord + Hash,
        V2: Clone,
    {
        let mut groups: HashMap<K2, Vec<V2>> = HashMap::new();
        for (k, v) in pairs {
            groups.entry(k).or_default().push(v);
        }
        let mut keys: Vec<K2> = groups.keys().cloned().collect();
        keys.sort();
        keys.into_iter()
            .map(|k| {
                let vs = &groups[&k];
                let out = f(&k, vs);
                (k, out)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Order-sensitive: any reordering of a group's values changes it.
    fn horner<K>(_k: &K, vs: &[u64]) -> u64 {
        vs.iter()
            .fold(0u64, |a, v| a.wrapping_mul(31).wrapping_add(*v))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn combine_pairs_matches_the_hash_map_oracle(
            items in proptest::collection::vec((0u64..6, 0u64..1000), 0..300),
        ) {
            // Six keys over up to 300 pairs: every group repeats.
            let got = combine_pairs(items.clone(), &horner);
            let want = hash_map_oracle::combine_pairs(items.clone(), &horner);
            prop_assert_eq!(got, want);
            let named: Vec<(String, u64)> =
                items.iter().map(|(k, v)| (format!("key-{k}"), *v)).collect();
            let got = combine_pairs(named.clone(), &horner);
            let want = hash_map_oracle::combine_pairs(named, &horner);
            prop_assert_eq!(got, want);
        }
    }
}
