//! Scenario assembly: cluster + scheduler + workers + open-loop traffic,
//! in one simulation.
//!
//! A scenario pre-computes every traffic source's arrival trace (a pure
//! function of the seed — see [`crate::arrivals`](mod@crate::arrivals)), pre-spawns the slot
//! workers and scheduler (the engine's process table is fixed at run
//! start), runs the simulation, and returns the scheduler's
//! [`SchedStats`].

use std::sync::Arc;

use hpcbd_cluster::ClusterSpec;
use hpcbd_simnet::{NodeId, Pid, Sim, SimDuration};

use crate::arrivals::{arrivals, RateProcess};
use crate::job::JobFactory;
use crate::queue::QueueSpec;
use crate::scheduler::{scheduler, slot_worker, submitter, SchedStats, SchedulerConfig};

/// One open-loop traffic source.
pub struct SourceSpec {
    /// Source name (seed salt and diagnostics).
    pub name: &'static str,
    /// Offered-load shape.
    pub process: RateProcess,
    /// Builds the source's `k`-th job.
    pub factory: JobFactory,
}

/// A full "datacenter day" scenario.
pub struct ScenarioSpec {
    /// Scenario name (report label).
    pub name: &'static str,
    /// Comet nodes.
    pub nodes: u32,
    /// Slots (containers) per node.
    pub per_node: u32,
    /// Nodes per rack (locality middle tier).
    pub rack_size: u32,
    /// Traffic horizon, virtual seconds; sources stop submitting here
    /// (the run then drains).
    pub horizon_s: f64,
    /// Master seed; each source salts it with its index and name.
    pub seed: u64,
    /// Delay-scheduling wait per locality level.
    pub locality_delay: SimDuration,
    /// Enable preemption.
    pub preemption: bool,
    /// Queue table.
    pub queues: Vec<QueueSpec>,
    /// Traffic sources.
    pub sources: Vec<SourceSpec>,
}

/// What a scenario run produced.
pub struct ScenarioOutcome {
    /// The scheduler's per-queue counters and integrals.
    pub stats: SchedStats,
    /// Jobs offered by all sources.
    pub offered: u64,
    /// The simulation's makespan (drain included), nanoseconds.
    pub makespan_ns: u64,
}

/// Nearest-rank quantile of a latency sample (`q` in [0, 1]). Sorts a
/// copy; exact, deterministic, no interpolation.
pub fn quantile_ns(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Run the scenario to completion and collect the scheduler's stats.
pub fn run(spec: &ScenarioSpec) -> ScenarioOutcome {
    // Pre-compute and merge the arrival traces: (instant, source, k),
    // ordered by time with (source, k) as the deterministic tie-break.
    let mut merged: Vec<(u64, usize, u64)> = Vec::new();
    for (si, src) in spec.sources.iter().enumerate() {
        let salt = hpcbd_simnet::det_hash(&(spec.seed, si as u64, src.name));
        for (k, at) in arrivals(salt, src.process, spec.horizon_s)
            .iter()
            .enumerate()
        {
            merged.push((*at, si, k as u64));
        }
    }
    merged.sort_unstable();
    let trace: Vec<(u64, crate::job::JobSpec)> = merged
        .iter()
        .map(|(at, si, k)| (*at, (spec.sources[*si].factory)(*k)))
        .collect();
    run_trace(spec, trace)
}

/// Why a job can never complete on a scenario's cluster. Each of these
/// would otherwise surface inside the scheduler coroutine, as an index
/// panic or as the engine's generic deadlock report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The job names a queue the scenario does not have.
    UnknownQueue,
    /// The job has no waves.
    NoWaves,
    /// This wave has no tasks, so no `TASK_DONE` ever completes it.
    EmptyWave {
        /// Wave index.
        wave: usize,
    },
    /// This gang wave needs `width` slots at once, but its queue can
    /// never hold more than `limit`, so the dispatch round would hold
    /// for it forever.
    GangTooWide {
        /// Wave index.
        wave: usize,
        /// Tasks in the gang.
        width: usize,
        /// The queue's `cap_slots`, or the cluster's slots if fewer.
        limit: u32,
    },
}

/// A [`JobError`] and the job of the trace it was found in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceError {
    /// Index of the job in the trace.
    pub job: usize,
    /// The job's template.
    pub template: &'static str,
    /// The job's queue name.
    pub queue: &'static str,
    /// What is wrong with it.
    pub cause: JobError,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let TraceError {
            job,
            template,
            queue,
            ..
        } = self;
        write!(
            f,
            "malformed job {job} (template {template}, queue {queue}): "
        )?;
        match self.cause {
            JobError::UnknownQueue => f.write_str("the scenario has no such queue"),
            JobError::NoWaves => f.write_str("it has no waves"),
            JobError::EmptyWave { wave } => write!(f, "wave {wave} has no tasks"),
            JobError::GangTooWide { wave, width, limit } => write!(
                f,
                "gang wave {wave} is {width} tasks wide but its queue can hold at most {limit} slots"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Check that every job of `trace` can complete on `spec`'s cluster;
/// the first one that cannot is the error.
pub fn validate_trace(
    spec: &ScenarioSpec,
    trace: &[(u64, crate::job::JobSpec)],
) -> Result<(), TraceError> {
    let slots = spec.nodes * spec.per_node;
    for (job, (_, js)) in trace.iter().enumerate() {
        let fail = |cause| TraceError {
            job,
            template: js.template,
            queue: js.queue,
            cause,
        };
        let queue = spec
            .queues
            .iter()
            .find(|q| q.name == js.queue)
            .ok_or_else(|| fail(JobError::UnknownQueue))?;
        if js.waves.is_empty() {
            return Err(fail(JobError::NoWaves));
        }
        let limit = queue.cap_slots.map_or(slots, |cap| cap.min(slots));
        for (wave, w) in js.waves.iter().enumerate() {
            let width = w.tasks.len();
            if width == 0 {
                return Err(fail(JobError::EmptyWave { wave }));
            }
            if w.gang && width > limit as usize {
                return Err(fail(JobError::GangTooWide { wave, width, limit }));
            }
        }
    }
    Ok(())
}

/// Run the scenario against an explicit arrival trace of
/// `(instant_ns, job)` pairs (must be time-sorted). `spec.sources` is
/// ignored; everything else applies. This is the layer tests use to
/// force specific contention patterns.
///
/// # Panics
///
/// With the [`TraceError`] as the message, before any simulated process
/// starts, if [`validate_trace`] rejects the trace.
pub fn run_trace(spec: &ScenarioSpec, trace: Vec<(u64, crate::job::JobSpec)>) -> ScenarioOutcome {
    if let Err(e) = validate_trace(spec, &trace) {
        panic!("{e}");
    }
    let offered = trace.len() as u64;

    let cluster = ClusterSpec::comet(spec.nodes);
    let control = cluster.control();
    let mut sim = Sim::new(cluster.topology());

    // Slot workers first: pids 0 .. nodes*per_node-1, in slot order.
    let sched_pid = Pid(spec.nodes * spec.per_node);
    let mut workers = Vec::with_capacity((spec.nodes * spec.per_node) as usize);
    for node in 0..spec.nodes {
        for k in 0..spec.per_node {
            let pid = sim.spawn(NodeId(node), format!("slot-{node}.{k}"), move |ctx| {
                slot_worker(ctx, sched_pid, control)
            });
            workers.push(pid);
        }
    }
    let cfg = SchedulerConfig {
        queues: spec.queues.clone(),
        workers: workers.clone(),
        per_node: spec.per_node,
        rack_size: spec.rack_size,
        expected_jobs: offered,
        locality_delay: spec.locality_delay,
        preemption: spec.preemption,
        control,
    };
    let got = sim.spawn(NodeId(0), "scheduler", move |ctx| scheduler(ctx, cfg));
    assert_eq!(
        got, sched_pid,
        "scheduler pid drifted from the worker count"
    );
    sim.spawn(NodeId(0), "submitter", move |ctx| {
        submitter(ctx, sched_pid, control, trace)
    });

    let mut report = sim.run();
    let stats: SchedStats = report.result(sched_pid);
    ScenarioOutcome {
        offered,
        makespan_ns: report.makespan().nanos(),
        stats,
    }
}

/// Convenience: a job factory from a plain function pointer or closure.
pub fn factory(f: impl Fn(u64) -> crate::job::JobSpec + Send + Sync + 'static) -> JobFactory {
    Arc::new(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = vec![10, 20, 30, 40];
        assert_eq!(quantile_ns(&v, 0.5), 20);
        assert_eq!(quantile_ns(&v, 0.99), 40);
        assert_eq!(quantile_ns(&v, 0.0), 10);
        assert_eq!(quantile_ns(&[], 0.5), 0);
    }
}
