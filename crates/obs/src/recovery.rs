//! Recovery SLO metrics: time-to-detect, time-to-recover, and work
//! replayed, per fault event.
//!
//! The fault plan injects crashes; the runtimes record structured
//! [`FaultEvent`]s while recovering (see DESIGN.md §13). This module
//! folds those trace records into per-crash service-level metrics:
//!
//! * **time-to-detect** — from the crash instant (the back-dated
//!   [`FaultEvent::NodeCrash`] record) to the first *detection*
//!   record naming that node (`rank_failure_detected`,
//!   `pe_failure_detected`, `node_lost`).
//! * **time-to-recover** — from the crash instant to the last recovery
//!   action attributed to it (every [`FaultEvent::Recovery`] record is
//!   attributed to the most recent crash at or before its timestamp).
//! * **work replayed** — the summed `detail` of replay-class records
//!   (`checkpoint_restart`, `partial_restart`: iterations re-executed,
//!   summed across ranks) plus the count of task-grained re-executions
//!   (`task_retry`, `map_reexec`, `speculative_task`).
//!
//! All numbers derive from the deterministic event stream, so they are
//! bit-identical across execution modes and belong in the pinned
//! `hpcbd.report.v1` report.

use std::collections::BTreeMap;

use hpcbd_simnet::observe::RunCapture;
use hpcbd_simnet::{EventKind, FaultEvent, SimTime};

/// Recovery actions that mean "the runtime noticed node X died".
pub const DETECTION_ACTIONS: [&str; 3] =
    ["rank_failure_detected", "pe_failure_detected", "node_lost"];

/// Recovery actions whose `detail` counts re-executed iterations.
pub const REPLAY_ACTIONS: [&str; 2] = ["checkpoint_restart", "partial_restart"];

/// Recovery actions that each stand for one re-executed task.
pub const TASK_REPLAY_ACTIONS: [&str; 3] = ["task_retry", "map_reexec", "speculative_task"];

/// Per-crash recovery metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecovery {
    /// The crashed node.
    pub node: u32,
    /// Virtual time the node died (back-dated crash record).
    pub crash: SimTime,
    /// First detection record naming this node, if any.
    pub detect: Option<SimTime>,
    /// Last recovery action attributed to this crash, if any.
    pub recover: Option<SimTime>,
    /// Iterations re-executed because of this crash (summed across
    /// ranks) plus task-grained re-executions.
    pub work_replayed: u64,
    /// Total recovery records attributed to this crash.
    pub recovery_actions: u64,
}

impl FaultRecovery {
    /// Nanoseconds from crash to detection, when detected.
    pub fn time_to_detect_ns(&self) -> Option<u64> {
        self.detect
            .map(|d| d.nanos().saturating_sub(self.crash.nanos()))
    }

    /// Nanoseconds from crash to the last attributed recovery action.
    pub fn time_to_recover_ns(&self) -> Option<u64> {
        self.recover
            .map(|r| r.nanos().saturating_sub(self.crash.nanos()))
    }
}

/// All per-crash recovery metrics of one captured run, crashes ordered
/// by `(crash time, node)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// One entry per crashed node.
    pub faults: Vec<FaultRecovery>,
}

impl RecoverySummary {
    /// Whether the run saw any crash.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Fold a capture's fault records into per-crash recovery SLOs.
pub fn recovery_slos(cap: &RunCapture) -> RecoverySummary {
    // Crash instants: several processes may record the same node's
    // death (every server on it, or a back-dating rank 0) — keep the
    // earliest record per node.
    let mut crash_by_node: BTreeMap<u32, SimTime> = BTreeMap::new();
    for e in &cap.events {
        let EventKind::Fault(ev) = &e.kind else {
            continue;
        };
        if let FaultEvent::NodeCrash { node } = **ev {
            let t = crash_by_node.entry(node.0).or_insert(e.start);
            if e.start < *t {
                *t = e.start;
            }
        }
    }
    let mut faults: Vec<FaultRecovery> = crash_by_node
        .into_iter()
        .map(|(node, crash)| FaultRecovery {
            node,
            crash,
            detect: None,
            recover: None,
            work_replayed: 0,
            recovery_actions: 0,
        })
        .collect();
    faults.sort_by_key(|f| (f.crash, f.node));

    for e in &cap.events {
        let EventKind::Fault(ev) = &e.kind else {
            continue;
        };
        let FaultEvent::Recovery { action, detail, .. } = &**ev else {
            continue;
        };
        let t = e.start;
        // Attribute to the most recent crash at or before this record;
        // recovery work before any crash (e.g. a speculative copy under
        // pure stragglers) has no crash to charge.
        let Some(fault) = faults.iter_mut().rev().find(|f| f.crash <= t) else {
            continue;
        };
        if DETECTION_ACTIONS.contains(action) {
            // Detection names the node; re-attribute to it exactly.
            let node = *detail as u32;
            if let Some(f) = faults.iter_mut().find(|f| f.node == node) {
                if f.crash <= t && f.detect.is_none_or(|d| t < d) {
                    f.detect = Some(t);
                }
                f.recovery_actions += 1;
            }
            continue;
        }
        fault.recovery_actions += 1;
        if fault.recover.is_none_or(|r| r < t) {
            fault.recover = Some(t);
        }
        if REPLAY_ACTIONS.contains(action) {
            fault.work_replayed += detail;
        } else if TASK_REPLAY_ACTIONS.contains(action) {
            fault.work_replayed += 1;
        }
    }
    RecoverySummary { faults }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcbd_simnet::{NodeId, Pid, ProcStats, TraceEvent};

    fn fault_capture() -> RunCapture {
        let at = |t: u64, kind: EventKind| TraceEvent {
            pid: Pid(0),
            start: SimTime(t),
            end: SimTime(t),
            kind,
        };
        let rec = |t: u64, action: &'static str, detail: u64| {
            at(
                t,
                EventKind::Fault(Box::new(FaultEvent::Recovery {
                    runtime: "mpi",
                    action,
                    detail,
                })),
            )
        };
        RunCapture {
            proc_names: vec!["a".into()],
            proc_nodes: vec![NodeId(0)],
            finishes: vec![SimTime(10_000)],
            stats: vec![ProcStats::default()],
            makespan: SimTime(10_000),
            cluster_nodes: 2,
            dropped_msgs: 0,
            telemetry_interval: None,
            metric_points: Vec::new(),
            host_profile: None,
            events: vec![
                // Crash back-dated to t=1000; duplicate record later.
                at(
                    1_000,
                    EventKind::Fault(Box::new(FaultEvent::NodeCrash { node: NodeId(1) })),
                ),
                at(
                    1_400,
                    EventKind::Fault(Box::new(FaultEvent::NodeCrash { node: NodeId(1) })),
                ),
                rec(1_500, "rank_failure_detected", 1),
                rec(2_000, "checkpoint_restart", 3),
                rec(2_200, "checkpoint_restart", 3),
                rec(2_500, "task_retry", 7),
            ],
        }
    }

    #[test]
    fn slos_fold_detection_recovery_and_replay() {
        let s = recovery_slos(&fault_capture());
        assert_eq!(s.faults.len(), 1);
        let f = &s.faults[0];
        assert_eq!(f.node, 1);
        assert_eq!(f.crash, SimTime(1_000), "earliest crash record wins");
        assert_eq!(f.time_to_detect_ns(), Some(500));
        assert_eq!(f.time_to_recover_ns(), Some(1_500));
        assert_eq!(
            f.work_replayed, 7,
            "3 + 3 iterations replayed across ranks, plus one task retry"
        );
        assert_eq!(f.recovery_actions, 4);
    }

    #[test]
    fn recovery_before_any_crash_is_unattributed() {
        let mut cap = fault_capture();
        cap.events.insert(
            0,
            TraceEvent {
                pid: Pid(0),
                start: SimTime(10),
                end: SimTime(10),
                kind: EventKind::Fault(Box::new(FaultEvent::Recovery {
                    runtime: "spark",
                    action: "speculative_task",
                    detail: 4,
                })),
            },
        );
        let s = recovery_slos(&cap);
        assert_eq!(s.faults[0].recovery_actions, 4, "pre-crash action ignored");
    }

    #[test]
    fn fault_free_run_has_no_entries() {
        let mut cap = fault_capture();
        cap.events.clear();
        assert!(recovery_slos(&cap).is_empty());
    }
}
