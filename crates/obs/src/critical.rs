//! Critical-path extraction by backward time-walk.
//!
//! Starting at the last-finishing process at the makespan, walk
//! backwards through virtual time. At each step the walk sits on one
//! process at a `cursor` time and asks what that process was doing:
//!
//! * an event covering the cursor → attribute the covered slice to the
//!   event's category; if the event is a `Recv` whose matched send
//!   finished strictly inside the receive window, the message — not the
//!   receiver — was the bottleneck: attribute the slice after the send
//!   completed as `Comm` and *hop to the sender* (the causal edge);
//! * no event covering the cursor → the process was between visible
//!   operations (framework `advance` overheads or genuine idling):
//!   attribute the gap as `Idle`.
//!
//! Each step strictly decreases the cursor and attributes exactly the
//! interval it skipped, so the produced segments tile `[0, makespan]`
//! with no gaps or overlaps: **the per-phase breakdown sums to the
//! makespan in exact integer nanoseconds**, and the critical-path
//! length (makespan minus `Idle`) can never exceed the makespan.
//!
//! Each segment is also attributed to the innermost phase span
//! (recorded via `ProcCtx::span_open`) enclosing its start point on the
//! process the walk was on, which is what turns "4.2 s of comm" into
//! "4.2 s of comm inside `pagerank/iter/*/shuffle`". A segment refers to
//! that span's label in the capture's tables ([`Segment::phase_in`]);
//! no label text is copied.

use hpcbd_simnet::observe::RunCapture;
use hpcbd_simnet::trace::Label;
use hpcbd_simnet::{EventKind, Pid, SimDuration, SimTime, TraceTables};

use crate::causal::CausalGraph;

/// Where a slice of the critical path went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Modeled computation (including endpoint CPU costs inside other
    /// categories' events is *not* re-split: the event's own category
    /// wins).
    Compute,
    /// Message transfer: send overhead, wire/flight time, RDMA.
    Comm,
    /// Local disk and NFS operations (including device queueing).
    Disk,
    /// Blocked in a receive with no causally matched sender to hop to.
    Wait,
    /// No visible operation covered this slice: framework bookkeeping
    /// (`advance`) or genuine idling.
    Idle,
}

impl Category {
    /// All categories, in the fixed report order.
    pub const ALL: [Category; 5] = [
        Category::Compute,
        Category::Comm,
        Category::Disk,
        Category::Wait,
        Category::Idle,
    ];

    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::Comm => "comm",
            Category::Disk => "disk",
            Category::Wait => "wait",
            Category::Idle => "idle",
        }
    }

    /// Index into fixed-size per-category arrays.
    pub fn index(self) -> usize {
        match self {
            Category::Compute => 0,
            Category::Comm => 1,
            Category::Disk => 2,
            Category::Wait => 3,
            Category::Idle => 4,
        }
    }
}

/// One attributed slice of the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Process the walk was on.
    pub pid: Pid,
    /// Slice start (virtual time).
    pub start: SimTime,
    /// Slice end (virtual time); `start < end` always.
    pub end: SimTime,
    /// Attributed category.
    pub category: Category,
    /// Label of the innermost phase span enclosing `start` on `pid`, in
    /// the capture's tables, or `None` outside any span.
    pub phase: Option<Label>,
}

impl Segment {
    /// The text of [`Segment::phase`], looked up in `tables` (the
    /// capture's), or the empty string outside any span.
    pub fn phase_in<'a>(&self, tables: &'a TraceTables) -> &'a str {
        self.phase.map_or("", |l| tables.label(l))
    }
}

/// The walk's result: segments tiling `[0, makespan]` exactly.
#[derive(Debug, Default)]
pub struct CriticalPath {
    /// Attributed slices in walk order (decreasing time).
    pub segments: Vec<Segment>,
    /// The run's makespan.
    pub makespan: SimTime,
    /// Critical-path length: makespan minus the `Idle` share. Always
    /// `<= makespan`.
    pub length: SimDuration,
    /// Nanoseconds attributed per [`Category`] (indexed by
    /// [`Category::index`]); sums to the makespan exactly.
    pub by_category: [u64; 5],
}

/// Per-process view of the capture used by the walk: non-instant leaf
/// events (sorted, non-overlapping) and phase spans for attribution.
struct ProcView {
    /// `(start, end, event index)` of walkable leaf events.
    leaves: Vec<(SimTime, SimTime, usize)>,
    /// `(start, end, depth, label)` of phase spans, sorted by start.
    phases: Vec<(SimTime, SimTime, u32, Label)>,
}

impl ProcView {
    /// Innermost phase containing `t` (half-open `[start, end)`).
    fn phase_at(&self, t: SimTime) -> Option<Label> {
        let mut best: Option<&(SimTime, SimTime, u32, Label)> = None;
        for p in &self.phases {
            if p.0 > t {
                break;
            }
            if t < p.1 {
                let better = match best {
                    None => true,
                    Some(b) => (p.2, p.0) >= (b.2, b.0),
                };
                if better {
                    best = Some(p);
                }
            }
        }
        best.map(|p| p.3)
    }

    /// The last leaf event starting strictly before `t`, if any.
    fn last_starting_before(&self, t: SimTime) -> Option<(SimTime, SimTime, usize)> {
        let i = self.leaves.partition_point(|&(s, _, _)| s < t);
        (i > 0).then(|| self.leaves[i - 1])
    }
}

/// Compute the critical path of a captured run.
pub fn critical_path(cap: &RunCapture, graph: &CausalGraph) -> CriticalPath {
    let nprocs = cap.proc_names.len();
    let mut views: Vec<ProcView> = (0..nprocs)
        .map(|_| ProcView {
            leaves: Vec::new(),
            phases: Vec::new(),
        })
        .collect();
    for (i, e) in cap.events.iter().enumerate() {
        let v = &mut views[e.pid.index()];
        match e.kind {
            EventKind::Phase { label, depth } => v.phases.push((e.start, e.end, depth, label)),
            EventKind::Fault(_) => {}
            _ if e.start < e.end => v.leaves.push((e.start, e.end, i)),
            _ => {}
        }
    }
    for v in &mut views {
        v.leaves.sort_unstable_by_key(|&(s, e, i)| (s, e, i));
        v.phases.sort_by_key(|a| (a.0, a.2));
    }

    let mut out = CriticalPath {
        makespan: cap.makespan,
        ..CriticalPath::default()
    };
    // Start on the last-finishing process (lowest pid on ties — the
    // finishes vector is deterministic, so the tie-break is too).
    let Some(start_pid) = (0..nprocs).max_by_key(|&i| (cap.finishes[i], std::cmp::Reverse(i)))
    else {
        return out;
    };
    let mut pid = Pid(start_pid as u32);
    let mut cursor = cap.makespan;

    let push = |out: &mut CriticalPath,
                pid: Pid,
                start: SimTime,
                end: SimTime,
                cat: Category,
                phase: Option<Label>| {
        debug_assert!(start < end);
        out.by_category[cat.index()] += (end - start).nanos();
        out.segments.push(Segment {
            pid,
            start,
            end,
            category: cat,
            phase,
        });
    };

    while cursor > SimTime::ZERO {
        let view = &views[pid.index()];
        match view.last_starting_before(cursor) {
            Some((estart, eend, eidx)) if eend >= cursor => {
                // Covering event: estart < cursor <= eend.
                let e = &cap.events[eidx];
                match &e.kind {
                    EventKind::Recv { .. } => {
                        match graph.matched_send(eidx).map(|s| &cap.events[s]) {
                            Some(s) if s.end < cursor && s.end > estart => {
                                // The message was in flight until after
                                // the receiver blocked: hop to the
                                // sender at its send-completion time.
                                let phase = view.phase_at(s.end);
                                push(&mut out, pid, s.end, cursor, Category::Comm, phase);
                                cursor = s.end;
                                pid = s.pid;
                            }
                            Some(s) if s.end <= estart => {
                                // Message had already arrived when the
                                // receive posted; the slice is endpoint
                                // processing.
                                let phase = view.phase_at(estart);
                                push(&mut out, pid, estart, cursor, Category::Comm, phase);
                                cursor = estart;
                            }
                            _ => {
                                // No causal sender to follow: blocked.
                                let phase = view.phase_at(estart);
                                push(&mut out, pid, estart, cursor, Category::Wait, phase);
                                cursor = estart;
                            }
                        }
                    }
                    kind => {
                        let cat = match kind {
                            EventKind::Compute => Category::Compute,
                            EventKind::Send { .. } | EventKind::OneSided { .. } => Category::Comm,
                            EventKind::DiskRead { .. }
                            | EventKind::DiskWrite { .. }
                            | EventKind::Nfs { .. } => Category::Disk,
                            _ => Category::Idle, // unreachable: filtered above
                        };
                        let phase = view.phase_at(estart);
                        push(&mut out, pid, estart, cursor, cat, phase);
                        cursor = estart;
                    }
                }
            }
            hit => {
                // Gap back to the previous event's end (or to time zero).
                let gap_start = hit.map(|(_, eend, _)| eend).unwrap_or(SimTime::ZERO);
                debug_assert!(gap_start < cursor);
                let phase = view.phase_at(gap_start);
                push(&mut out, pid, gap_start, cursor, Category::Idle, phase);
                cursor = gap_start;
            }
        }
    }
    out.length =
        SimDuration::from_nanos(cap.makespan.nanos() - out.by_category[Category::Idle.index()]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::match_events;
    use hpcbd_simnet::{NodeId, ProcStats, ResolvedKind, TraceEvent, TraceTables};

    fn cap_of(events: Vec<TraceEvent<ResolvedKind<'static>>>, finishes: Vec<u64>) -> RunCapture {
        let n = finishes.len();
        let (events, tables) = TraceTables::store_all(events);
        RunCapture {
            proc_names: (0..n).map(|i| format!("p{i}")).collect(),
            proc_nodes: (0..n).map(|_| NodeId(0)).collect(),
            finishes: finishes.iter().map(|&f| SimTime(f)).collect(),
            stats: (0..n).map(|_| ProcStats::default()).collect(),
            makespan: SimTime(finishes.iter().copied().max().unwrap_or(0)),
            cluster_nodes: 1,
            dropped_msgs: 0,
            events,
            tables,
            telemetry_interval: None,
            metric_points: Vec::new(),
            host_profile: None,
        }
    }

    fn ev(
        pid: u32,
        start: u64,
        end: u64,
        kind: ResolvedKind<'static>,
    ) -> TraceEvent<ResolvedKind<'static>> {
        TraceEvent {
            pid: Pid(pid),
            start: SimTime(start),
            end: SimTime(end),
            kind,
        }
    }

    #[test]
    fn segments_tile_the_makespan_exactly() {
        // p0: compute [0,40], send [40,50];  p1: recv [0,80], disk [80,100].
        let events = vec![
            ev(0, 0, 40, EventKind::Compute),
            ev(
                0,
                40,
                50,
                EventKind::Send {
                    dst: Pid(1),
                    bytes: 8,
                },
            ),
            ev(
                1,
                0,
                80,
                EventKind::Recv {
                    src: Pid(0),
                    bytes: 8,
                },
            ),
            ev(1, 80, 100, EventKind::DiskWrite { bytes: 8 }),
        ];
        let cap = cap_of(events, vec![50, 100]);
        let graph = match_events(&cap.events);
        let cp = critical_path(&cap, &graph);
        let total: u64 = cp.by_category.iter().sum();
        assert_eq!(total, 100, "attribution must tile [0, makespan]");
        assert_eq!(cp.length.nanos() + cp.by_category[4], 100);
        assert!(cp.length.nanos() <= cap.makespan.nanos());
        // The walk hops the causal edge: disk ← comm (flight) ← send ←
        // compute on p0.
        assert_eq!(cp.by_category[Category::Disk.index()], 20);
        assert_eq!(cp.by_category[Category::Comm.index()], 40); // [50,80] flight + [40,50] send span
        assert_eq!(cp.by_category[Category::Compute.index()], 40);
        assert_eq!(cp.by_category[Category::Idle.index()], 0);
        // Walk crossed to p0 through the matched send.
        assert!(cp.segments.iter().any(|s| s.pid == Pid(0)));
    }

    #[test]
    fn gaps_become_idle_and_unmatched_recvs_become_wait() {
        let events = vec![
            // p0 idles until 30 then computes; a recv with no sender.
            ev(0, 30, 60, EventKind::Compute),
            ev(
                0,
                60,
                90,
                EventKind::Recv {
                    src: Pid(1),
                    bytes: 8,
                },
            ),
        ];
        let cap = cap_of(events, vec![90]);
        let graph = match_events(&cap.events);
        let cp = critical_path(&cap, &graph);
        assert_eq!(cp.by_category.iter().sum::<u64>(), 90);
        assert_eq!(cp.by_category[Category::Idle.index()], 30);
        assert_eq!(cp.by_category[Category::Wait.index()], 30);
        assert_eq!(cp.by_category[Category::Compute.index()], 30);
        assert_eq!(cp.length, SimDuration::from_nanos(60));
    }

    #[test]
    fn phases_attribute_by_innermost_containment() {
        let events = vec![
            ev(
                0,
                0,
                100,
                EventKind::Phase {
                    label: "outer",
                    depth: 0,
                },
            ),
            ev(
                0,
                20,
                60,
                EventKind::Phase {
                    label: "outer/inner",
                    depth: 1,
                },
            ),
            ev(0, 0, 20, EventKind::Compute),
            ev(0, 20, 60, EventKind::Compute),
            ev(0, 60, 100, EventKind::Compute),
        ];
        let cap = cap_of(events, vec![100]);
        let graph = match_events(&cap.events);
        let cp = critical_path(&cap, &graph);
        let by_phase: Vec<(&str, u64)> = cp
            .segments
            .iter()
            .map(|s| (s.phase_in(&cap.tables), (s.end - s.start).nanos()))
            .collect();
        assert!(by_phase.contains(&("outer/inner", 40)));
        assert_eq!(
            by_phase
                .iter()
                .filter(|(p, _)| *p == "outer")
                .map(|(_, n)| n)
                .sum::<u64>(),
            60
        );
    }

    #[test]
    fn empty_capture_yields_empty_path() {
        let cap = cap_of(Vec::new(), vec![0]);
        let cp = critical_path(&cap, &CausalGraph::default());
        assert!(cp.segments.is_empty());
        assert_eq!(cp.length, SimDuration::ZERO);
    }
}
