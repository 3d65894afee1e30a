//! Capture comparison: locate the first divergence between two runs of
//! the same workload, down to the event index and order key.
//!
//! The event streams being compared are already in the engine's
//! deterministic export order (`(start, pid, end, kind)`), so the first
//! index at which they disagree *is* the minimal divergent prefix: every
//! earlier event is identical in both runs, and truncating either stream
//! just before that index yields equal prefixes. The explorer therefore
//! "shrinks" a divergence simply by scanning for that index — no
//! re-execution needed — and reports it as
//! `(event index, pids, order key, first differing record)`.

use hpcbd_simnet::RunCapture;

/// How a divergence replays, established by re-running the same
/// perturbation seed (see `explore.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// The divergent run reproduces bit-identically under its own seed:
    /// the outcome depends on the (legal) schedule, i.e. the engine's
    /// determinism contract itself is broken.
    ScheduleDependent,
    /// The divergent run does not even reproduce itself: some host
    /// nondeterminism (hash seeds, addresses, wall clock) leaks into
    /// virtual-time state.
    HostNondeterminism,
}

/// A minimal first-divergence report between an oracle run and a
/// perturbed / replayed run.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which harness condition produced the divergent run
    /// (e.g. `perturbed schedule #0 seed=0x1234`, `sequential replay`).
    pub condition: String,
    /// Index of the divergent capture within the workload's capture
    /// sequence (a workload may run several simulations).
    pub capture_index: usize,
    /// Index of the first differing event in the deterministic event
    /// order, when the divergence is in the event stream.
    pub event_index: Option<usize>,
    /// Order key `(virtual time ns, pid)` of the first differing event
    /// (taken from whichever side still has an event at that index).
    pub order_key: Option<(u64, u32)>,
    /// Pids implicated by the first differing record (deduplicated).
    pub pids: Vec<u32>,
    /// Which field diverged (`events`, `makespan`, `stats[3]`, ...).
    pub field: String,
    /// The oracle's value at the divergence point.
    pub expected: String,
    /// The divergent run's value at the same point.
    pub got: String,
    /// Replay classification, once established.
    pub classification: Option<Classification>,
}

impl Divergence {
    /// Multi-line human rendering, one screen, diagnosis first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "DIVERGENCE under {}: field `{}` of capture {}\n",
            self.condition, self.field, self.capture_index
        ));
        if let Some(i) = self.event_index {
            out.push_str(&format!("  event index: {i}\n"));
        }
        if let Some((t, p)) = self.order_key {
            out.push_str(&format!("  order key:   (t={t}ns, pid={p})\n"));
        }
        if !self.pids.is_empty() {
            let pids: Vec<String> = self.pids.iter().map(|p| format!("p{p}")).collect();
            out.push_str(&format!("  pids:        {}\n", pids.join(", ")));
        }
        out.push_str(&format!("  expected:    {}\n", self.expected));
        out.push_str(&format!("  got:         {}\n", self.got));
        match self.classification {
            Some(Classification::ScheduleDependent) => out.push_str(
                "  class:       schedule-dependent (reproduces under its seed; \
                 determinism contract broken)\n",
            ),
            Some(Classification::HostNondeterminism) => out.push_str(
                "  class:       host nondeterminism (does not reproduce under \
                 its own seed; hash seeds / addresses / wall clock leak)\n",
            ),
            None => {}
        }
        out
    }
}

fn mismatch(
    capture_index: usize,
    field: &str,
    expected: impl std::fmt::Debug,
    got: impl std::fmt::Debug,
) -> Divergence {
    Divergence {
        condition: String::new(),
        capture_index,
        event_index: None,
        order_key: None,
        pids: Vec::new(),
        field: field.to_string(),
        expected: format!("{expected:?}"),
        got: format!("{got:?}"),
        classification: None,
    }
}

/// Compare one capture against the oracle's; `None` when identical.
pub fn compare_captures(idx: usize, expected: &RunCapture, got: &RunCapture) -> Option<Divergence> {
    // Scalar run-level fields first: a mismatch there usually explains
    // (and subsumes) any event-stream difference.
    if expected.proc_names != got.proc_names {
        return Some(mismatch(
            idx,
            "proc_names",
            &expected.proc_names,
            &got.proc_names,
        ));
    }
    if expected.proc_nodes != got.proc_nodes {
        return Some(mismatch(
            idx,
            "proc_nodes",
            &expected.proc_nodes,
            &got.proc_nodes,
        ));
    }
    if expected.cluster_nodes != got.cluster_nodes {
        return Some(mismatch(
            idx,
            "cluster_nodes",
            expected.cluster_nodes,
            got.cluster_nodes,
        ));
    }
    if expected.dropped_msgs != got.dropped_msgs {
        return Some(mismatch(
            idx,
            "dropped_msgs",
            expected.dropped_msgs,
            got.dropped_msgs,
        ));
    }

    // Event streams: both sides are in the deterministic export order,
    // so the first differing index is the minimal divergent prefix.
    // Payloads are compared by content, each looked up in its own
    // capture's tables.
    let n = expected.events.len().min(got.events.len());
    for i in 0..n {
        let e = expected.events[i].resolve(&expected.tables);
        let g = got.events[i].resolve(&got.tables);
        if e != g {
            let mut pids = vec![e.pid.0, g.pid.0];
            pids.dedup();
            let mut d = mismatch(idx, "events", e, g);
            d.event_index = Some(i);
            d.order_key = Some((e.start.nanos(), e.pid.0));
            d.pids = pids;
            return Some(d);
        }
    }
    if expected.events.len() != got.events.len() {
        // One stream is a strict prefix of the other: diverges at the
        // shorter side's end.
        let (side, extra) = if expected.events.len() > got.events.len() {
            ("missing", &expected.events[n])
        } else {
            ("extra", &got.events[n])
        };
        let mut d = mismatch(
            idx,
            "events",
            format!("{} events", expected.events.len()),
            format!("{} events ({side} record at index {n})", got.events.len()),
        );
        d.event_index = Some(n);
        d.order_key = Some((extra.start.nanos(), extra.pid.0));
        d.pids = vec![extra.pid.0];
        return Some(d);
    }

    // Aggregates last: with identical event streams these only differ
    // if bookkeeping itself is schedule-dependent.
    for (pid, (e, g)) in expected.finishes.iter().zip(&got.finishes).enumerate() {
        if e != g {
            let mut d = mismatch(idx, &format!("finishes[{pid}]"), e, g);
            d.pids = vec![pid as u32];
            return Some(d);
        }
    }
    for (pid, (e, g)) in expected.stats.iter().zip(&got.stats).enumerate() {
        if e != g {
            let mut d = mismatch(idx, &format!("stats[{pid}]"), e, g);
            d.pids = vec![pid as u32];
            return Some(d);
        }
    }
    if expected.makespan != got.makespan {
        return Some(mismatch(idx, "makespan", expected.makespan, got.makespan));
    }
    None
}

/// Compare a whole capture sequence (a workload may run many sims)
/// against the oracle's; `None` when byte-identical.
pub fn compare_runs(expected: &[RunCapture], got: &[RunCapture]) -> Option<Divergence> {
    if expected.len() != got.len() {
        return Some(mismatch(
            expected.len().min(got.len()),
            "capture_count",
            expected.len(),
            got.len(),
        ));
    }
    expected
        .iter()
        .zip(got)
        .enumerate()
        .find_map(|(i, (e, g))| compare_captures(i, e, g))
}

/// A SHA-256 digest over a canonical serialization of a capture
/// sequence: equal digests ⇔ bit-identical virtual-time outcomes.
/// Useful where a property test wants one comparable value per run.
pub fn capture_digest(caps: &[RunCapture]) -> String {
    use std::fmt::Write as _;
    let mut buf = String::new();
    for c in caps {
        let _ = writeln!(
            buf,
            "run names={:?} nodes={:?} cluster={} dropped={} makespan={:?}",
            c.proc_names, c.proc_nodes, c.cluster_nodes, c.dropped_msgs, c.makespan
        );
        for (pid, (f, s)) in c.finishes.iter().zip(&c.stats).enumerate() {
            let _ = writeln!(buf, "p{pid} finish={f:?} stats={s:?}");
        }
        for e in &c.events {
            let _ = writeln!(buf, "{:?}", e.resolve(&c.tables));
        }
    }
    crate::sha256::sha256_hex(buf.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcbd_simnet::{EventKind, NodeId, Pid, ProcStats, RunCapture, SimTime, TraceEvent};

    fn cap() -> RunCapture {
        RunCapture {
            proc_names: vec!["a".into(), "b".into()],
            proc_nodes: vec![NodeId(0), NodeId(1)],
            finishes: vec![SimTime(10), SimTime(20)],
            stats: vec![ProcStats::default(), ProcStats::default()],
            makespan: SimTime(20),
            cluster_nodes: 2,
            dropped_msgs: 0,
            events: vec![
                TraceEvent {
                    pid: Pid(0),
                    start: SimTime(0),
                    end: SimTime(5),
                    kind: EventKind::Compute,
                },
                TraceEvent {
                    pid: Pid(1),
                    start: SimTime(5),
                    end: SimTime(20),
                    kind: EventKind::Compute,
                },
            ],
            tables: Default::default(),
            telemetry_interval: None,
            metric_points: Vec::new(),
            host_profile: None,
        }
    }

    #[test]
    fn telemetry_fields_are_digest_excluded() {
        // A telemetry-on capture must digest (and compare) identically to
        // a telemetry-off capture: the digest hashes capture fields
        // explicitly, and telemetry is deliberately not one of them —
        // nor is the wall-clock-dependent host profile.
        let mut on = cap();
        on.telemetry_interval = Some(1_000);
        on.host_profile = Some(vec![("queue_pop", 7), ("run_wall_ns", 12_345), ("runs", 1)]);
        on.metric_points.push(hpcbd_simnet::MetricPoint {
            time: SimTime(3),
            pid: Pid(0),
            seq: 0,
            name: "x".into(),
            labels: "".into(),
            op: hpcbd_simnet::MetricOp::CounterAdd(1),
        });
        assert_eq!(capture_digest(&[cap()]), capture_digest(&[on.clone()]));
        assert!(compare_runs(&[cap()], &[on]).is_none());
    }

    #[test]
    fn identical_captures_do_not_diverge() {
        assert!(compare_runs(&[cap()], &[cap()]).is_none());
        assert_eq!(capture_digest(&[cap()]), capture_digest(&[cap()]));
    }

    #[test]
    fn event_mismatch_reports_index_and_order_key() {
        let a = cap();
        let mut b = cap();
        b.events[1].end = SimTime(21);
        let d = compare_runs(&[a], &[b]).unwrap();
        assert_eq!(d.field, "events");
        assert_eq!(d.event_index, Some(1));
        assert_eq!(d.order_key, Some((5, 1)));
        assert_eq!(d.pids, vec![1]);
        assert!(d.render().contains("event index: 1"));
        assert_ne!(capture_digest(&[cap()]), {
            let mut b = cap();
            b.events[1].end = SimTime(21);
            capture_digest(&[b])
        });
    }

    #[test]
    fn extra_event_diverges_at_the_shorter_prefix_end() {
        let a = cap();
        let mut b = cap();
        b.events.push(TraceEvent {
            pid: Pid(0),
            start: SimTime(20),
            end: SimTime(22),
            kind: EventKind::Compute,
        });
        let d = compare_runs(&[a], &[b]).unwrap();
        assert_eq!(d.event_index, Some(2));
        assert_eq!(d.order_key, Some((20, 0)));
    }

    #[test]
    fn capture_count_mismatch_is_its_own_field() {
        let d = compare_runs(&[cap()], &[cap(), cap()]).unwrap();
        assert_eq!(d.field, "capture_count");
    }

    #[test]
    fn scalar_mismatch_beats_event_scan() {
        let a = cap();
        let mut b = cap();
        b.dropped_msgs = 3;
        b.events[0].end = SimTime(6);
        let d = compare_runs(&[a], &[b]).unwrap();
        assert_eq!(d.field, "dropped_msgs");
    }

    /// Labels are compared by their text, wherever each capture's tables
    /// hold it: the same labels stored in another order compare equal,
    /// and a different label of the same length at the same place does
    /// not.
    #[test]
    fn phase_labels_compare_by_content() {
        let with_labels = |stored: &[&str], used: &[usize]| {
            let mut c = cap();
            let labels: Vec<_> = stored.iter().map(|l| c.tables.push_label(l)).collect();
            for (e, &i) in c.events.iter_mut().zip(used) {
                e.kind = EventKind::Phase {
                    label: labels[i],
                    depth: 0,
                };
            }
            c
        };
        let a = with_labels(&["job", "map"], &[0, 1]);
        let b = with_labels(&["map", "job"], &[1, 0]);
        assert_ne!(a.events, b.events, "the two store the labels apart");
        let (a, b) = ([a], [b]);
        assert!(compare_runs(&a, &b).is_none());
        assert_eq!(capture_digest(&a), capture_digest(&b));
        let [a] = a;
        let c = with_labels(&["job", "red"], &[0, 1]);
        assert_eq!(a.events, c.events, "the same places, different text");
        let d = compare_runs(&[a], &[c]).unwrap();
        assert_eq!((d.field.as_str(), d.event_index), ("events", Some(1)));
    }
}
