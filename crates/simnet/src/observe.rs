//! Run capture: a process-global hook that snapshots every completed
//! [`crate::Sim`] run for the observability layer (`hpcbd-obs`).
//!
//! Bench binaries build one simulation per data point deep inside the
//! runtime crates; threading a collector handle through every call chain
//! would touch every API for a purely diagnostic concern. Instead, a
//! bin that wants a run report brackets its work with
//! [`begin_capture`]/[`end_capture`]; while active, every `Sim::run`
//! forces tracing on and appends a [`RunCapture`] — process metadata,
//! final statistics and the deterministically sorted event stream — to
//! the global capture buffer.
//!
//! Determinism: everything in a capture derives from virtual-time state
//! ([`crate::Trace::sorted_events`] order, per-process stats, finish
//! times), all of which are bit-identical across
//! [`crate::Execution::Sequential`] and [`crate::Execution::Parallel`].
//! Captures therefore compare byte-equal across modes once serialized.
//!
//! Cost: one relaxed atomic load per `Sim::run` when inactive — nothing
//! on the engine's per-operation hot path.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use crate::engine::SimReport;
use crate::stats::ProcStats;
use crate::time::SimTime;
use crate::topology::NodeId;
use crate::trace::TraceEvent;

/// Snapshot of one completed simulation run.
#[derive(Debug, Clone)]
pub struct RunCapture {
    /// Process names, indexed by pid.
    pub proc_names: Vec<String>,
    /// Node each process ran on, indexed by pid.
    pub proc_nodes: Vec<NodeId>,
    /// Per-process finish times, indexed by pid.
    pub finishes: Vec<SimTime>,
    /// Per-process final statistics, indexed by pid.
    pub stats: Vec<ProcStats>,
    /// Virtual time the last process finished.
    pub makespan: SimTime,
    /// Number of nodes in the run's topology.
    pub cluster_nodes: usize,
    /// Messages sent to already-finished processes.
    pub dropped_msgs: u64,
    /// The full event stream in the deterministic export order.
    pub events: Vec<TraceEvent>,
    /// Telemetry sampling interval the run used (`None` off; see
    /// [`crate::telemetry`]). Like the points below, excluded from
    /// conformance digests — `hpcbd-check` hashes capture fields
    /// explicitly.
    pub telemetry_interval: Option<u64>,
    /// Metric points recorded by processes, in the canonical
    /// `(time, name, labels, pid, seq)` order. Deterministic (virtual-
    /// time state only) but digest-excluded alongside the interval: a
    /// telemetry-on run must digest identically to a telemetry-off run.
    pub metric_points: Vec<crate::telemetry::MetricPoint>,
    /// This run's self-profiler rows (see [`crate::selfprof_snapshot`]:
    /// the counter growth over the run, its own `run_wall_ns`, and
    /// `runs` = 1), or `None` when the profiler was off. Host-side and
    /// wall-clock dependent, so digest-excluded like the telemetry
    /// fields.
    pub host_profile: Option<Vec<(&'static str, u64)>>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static CAPTURES: Mutex<Vec<RunCapture>> = Mutex::new(Vec::new());

/// Whether a capture window is open ([`begin_capture`] without a
/// matching [`end_capture`] yet).
#[inline]
pub fn capture_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Open a capture window: discard any stale captures and record every
/// subsequent `Sim::run` until [`end_capture`]. Capture state is
/// process-global — concurrent capture windows (e.g. parallel tests)
/// must be externally serialized.
pub fn begin_capture() {
    CAPTURES.lock().clear();
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Close the capture window and take every run recorded since
/// [`begin_capture`], in completion order (deterministic: bench sweeps
/// run their simulations one after another).
pub fn end_capture() -> Vec<RunCapture> {
    ACTIVE.store(false, Ordering::SeqCst);
    std::mem::take(&mut CAPTURES.lock())
}

/// Record one finished run. Called by `Sim::run` when a capture window
/// is open.
pub(crate) fn record_run(
    report: &SimReport,
    cluster_nodes: usize,
    host_profile: Option<Vec<(&'static str, u64)>>,
) {
    let events = report
        .trace
        .as_ref()
        .map(|t| t.sorted_events())
        .unwrap_or_default();
    let cap = RunCapture {
        proc_names: report.procs.iter().map(|p| p.name.clone()).collect(),
        proc_nodes: report.procs.iter().map(|p| p.node).collect(),
        finishes: report.procs.iter().map(|p| p.finish).collect(),
        stats: report.procs.iter().map(|p| p.stats.clone()).collect(),
        makespan: report.makespan(),
        cluster_nodes,
        dropped_msgs: report.dropped_msgs,
        events,
        telemetry_interval: report.telemetry_interval,
        metric_points: report.metric_points.clone(),
        host_profile,
    };
    CAPTURES.lock().push(cap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, Payload, Pid, Sim, Topology, Transport, Work};

    // Capture state is process-global; serialize the tests that use it.
    static GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn capture_records_runs_with_events() {
        let _g = GUARD.lock();
        begin_capture();
        let tr = Transport::rdma_verbs();
        let mut sim = Sim::new(Topology::comet(2));
        sim.spawn(NodeId(0), "s", move |ctx| {
            ctx.span_open("phase/a");
            ctx.compute(Work::flops(1.0e6), 1.0);
            ctx.send(Pid(1), 1, 128, Payload::Empty, &tr);
            ctx.span_close();
        });
        sim.spawn(NodeId(1), "r", |ctx| {
            ctx.recv(crate::MatchSpec::tag(1));
        });
        let report = sim.run();
        assert!(report.trace.is_some(), "capture must force tracing on");
        let caps = end_capture();
        assert_eq!(caps.len(), 1);
        let cap = &caps[0];
        assert_eq!(cap.proc_names, vec!["s".to_string(), "r".to_string()]);
        assert_eq!(cap.cluster_nodes, 2);
        assert_eq!(cap.makespan, report.makespan());
        assert!(cap
            .events
            .iter()
            .any(|e| matches!(e.kind, crate::trace::EventKind::Phase { .. })));
        assert!(!capture_active());
    }

    #[test]
    fn runs_outside_a_window_are_not_captured() {
        let _g = GUARD.lock();
        let mut sim = Sim::new(Topology::comet(1));
        sim.spawn(NodeId(0), "w", |ctx| {
            ctx.compute(Work::flops(1.0e6), 1.0);
        });
        let report = sim.run();
        assert!(report.trace.is_none(), "no capture, no forced tracing");
        begin_capture();
        assert_eq!(end_capture().len(), 0);
    }
}
