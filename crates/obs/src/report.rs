//! The unified run report: deterministic metrics, per-phase breakdown
//! and critical-path summary over one or more captured runs.
//!
//! A bench bin typically performs a sweep (several node counts ×
//! several runtimes), each data point being one `Sim` run; the report
//! carries one [`RunSection`] per captured run, in capture order.
//!
//! Determinism rules (DESIGN.md §10): every number is an integer
//! (nanoseconds or a count) derived from the deterministic event order
//! and per-process statistics; aggregation uses `BTreeMap`s; ordering
//! ties break on labels. The serialized report is therefore
//! byte-identical across runs.

use std::collections::BTreeMap;

use hpcbd_simnet::observe::RunCapture;
use hpcbd_simnet::{EventKind, ProcStats, SimTime};

use crate::causal::{match_events, CausalGraph};
use crate::critical::{critical_path, Category, CriticalPath};
use crate::json::JsonValue;
use crate::metrics::{collect_telemetry, Telemetry};
use crate::recovery::{recovery_slos, RecoverySummary};

/// How many top critical-path contributors each section keeps.
pub const TOP_K: usize = 8;

/// A fixed-bucket power-of-two histogram: bucket 0 holds zeros, bucket
/// `k > 0` holds values in `[2^(k-1), 2^k)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { counts: [0; 65] }
    }
}

impl Histogram {
    /// Count one value.
    pub fn add(&mut self, v: u64) {
        let bucket = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.counts[bucket] += 1;
    }

    /// Total number of counted values.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sparse `[[bucket_lower_bound, count], ...]` encoding.
    pub fn to_json(&self) -> JsonValue {
        let items = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| {
                let lower = if k == 0 { 0u64 } else { 1u64 << (k - 1) };
                JsonValue::Arr(vec![JsonValue::u64(lower), JsonValue::u64(c)])
            })
            .collect();
        JsonValue::Arr(items)
    }
}

/// Aggregated view of one (normalized) phase label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Normalized label: numeric path segments become `*`, so
    /// `pagerank/iter/3/shuffle` aggregates as `pagerank/iter/*/shuffle`.
    pub label: String,
    /// Number of span instances that normalized to this label.
    pub spans: u64,
    /// Summed wall (virtual) duration of those spans, across processes.
    pub span_ns: u64,
    /// Critical-path nanoseconds attributed to this phase, per
    /// [`Category`] (indexed by [`Category::index`]).
    pub crit: [u64; 5],
}

impl PhaseRow {
    /// Total critical-path nanoseconds attributed to this phase.
    pub fn crit_total(&self) -> u64 {
        self.crit.iter().sum()
    }
}

/// Report section for one captured simulation run.
#[derive(Debug)]
pub struct RunSection {
    /// Position of the run within the capture window.
    pub index: usize,
    /// Number of simulated processes.
    pub procs: usize,
    /// Number of nodes in the topology.
    pub cluster_nodes: usize,
    /// The run's makespan.
    pub makespan: SimTime,
    /// Messages delivered to finished processes.
    pub dropped_msgs: u64,
    /// Statistics summed over all processes.
    pub totals: ProcStats,
    /// Per-phase breakdown; rows ordered by critical-path share
    /// (descending), label ascending on ties. The rows' `crit` arrays
    /// sum to the makespan exactly.
    pub phases: Vec<PhaseRow>,
    /// The critical path.
    pub crit: CriticalPath,
    /// Top-K `(exact phase label, category, nanoseconds)` critical-path
    /// contributors.
    pub top: Vec<(String, Category, u64)>,
    /// Histograms: message sizes (bytes), phase span durations (ns),
    /// receive span durations (ns).
    pub hist_msg_bytes: Histogram,
    /// Phase span duration histogram (ns).
    pub hist_phase_ns: Histogram,
    /// Receive span (blocking + endpoint) duration histogram (ns).
    pub hist_recv_ns: Histogram,
    /// Matched send→recv edges.
    pub causal_edges: u64,
    /// Receives with no causally valid matched send.
    pub unmatched_recvs: u64,
    /// Per-crash recovery SLOs; empty for fault-free runs.
    pub recovery: RecoverySummary,
    /// Sampled live telemetry; `None` unless the run was captured with
    /// a telemetry interval set (see [`crate::metrics`]). Omitting the
    /// key keeps telemetry-off reports byte-identical to old goldens.
    pub telemetry: Option<Telemetry>,
}

/// Replace purely numeric path segments with `*` so per-iteration and
/// per-task spans aggregate into one row.
pub fn normalize_label(label: &str) -> String {
    if label.is_empty() {
        return "(unphased)".to_string();
    }
    label
        .split('/')
        .map(|seg| {
            if !seg.is_empty() && seg.bytes().all(|b| b.is_ascii_digit()) {
                "*"
            } else {
                seg
            }
        })
        .collect::<Vec<_>>()
        .join("/")
}

fn build_section(index: usize, cap: &RunCapture) -> RunSection {
    let graph: CausalGraph = match_events(&cap.events);
    let cp = critical_path(cap, &graph);

    let mut totals = ProcStats::default();
    for s in &cap.stats {
        totals.merge(s);
    }

    // Span aggregation and histograms. Spans add up per exact label
    // first, borrowed from the capture's tables; each distinct label is
    // normalized once.
    let mut exact_spans: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut hist_msg_bytes = Histogram::default();
    let mut hist_phase_ns = Histogram::default();
    let mut hist_recv_ns = Histogram::default();
    for e in &cap.events {
        match e.kind {
            EventKind::Phase { label, .. } => {
                let d = (e.end - e.start).nanos();
                hist_phase_ns.add(d);
                let slot = exact_spans.entry(cap.tables.label(label)).or_default();
                slot.0 += 1;
                slot.1 += d;
            }
            EventKind::Send { bytes, .. } => hist_msg_bytes.add(bytes),
            EventKind::Recv { .. } => hist_recv_ns.add((e.end - e.start).nanos()),
            _ => {}
        }
    }
    let mut span_agg: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (label, (spans, ns)) in exact_spans {
        let slot = span_agg.entry(normalize_label(label)).or_default();
        slot.0 += spans;
        slot.1 += ns;
    }

    // Critical-path attribution per exact label, then per normalized
    // phase (`normalize_label` keeps "(unphased)" as it is).
    let mut exact_agg: BTreeMap<(&str, usize), u64> = BTreeMap::new();
    for seg in &cp.segments {
        let ns = (seg.end - seg.start).nanos();
        let label = match seg.phase_in(&cap.tables) {
            "" => "(unphased)",
            label => label,
        };
        *exact_agg.entry((label, seg.category.index())).or_default() += ns;
    }
    let mut crit_agg: BTreeMap<String, [u64; 5]> = BTreeMap::new();
    for (&(label, cat), &ns) in &exact_agg {
        crit_agg.entry(normalize_label(label)).or_default()[cat] += ns;
    }

    // One row per label that appeared as a span or received attribution.
    let mut labels: Vec<String> = span_agg.keys().chain(crit_agg.keys()).cloned().collect();
    labels.sort_unstable();
    labels.dedup();
    let mut phases: Vec<PhaseRow> = labels
        .into_iter()
        .map(|label| {
            let (spans, span_ns) = span_agg.get(&label).copied().unwrap_or((0, 0));
            let crit = crit_agg.get(&label).copied().unwrap_or_default();
            PhaseRow {
                label,
                spans,
                span_ns,
                crit,
            }
        })
        .collect();
    phases.sort_by(|a, b| {
        b.crit_total()
            .cmp(&a.crit_total())
            .then_with(|| a.label.cmp(&b.label))
    });

    let mut top: Vec<(String, Category, u64)> = exact_agg
        .into_iter()
        .map(|((label, cat), ns)| (label.to_string(), Category::ALL[cat], ns))
        .collect();
    top.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| (&a.0, a.1).cmp(&(&b.0, b.1))));
    top.truncate(TOP_K);

    // Attach the run's host profile (its self-profiler rows:
    // wall-clock-dependent, only under `HPCBD_SELFPROF`) to the telemetry
    // section; without telemetry there is nowhere to surface it.
    let telemetry = collect_telemetry(cap).map(|mut t| {
        t.host_profile = cap.host_profile.as_ref().map(|rows| {
            rows.iter()
                .map(|&(name, v)| (name.to_string(), v))
                .collect()
        });
        t
    });

    RunSection {
        index,
        procs: cap.proc_names.len(),
        cluster_nodes: cap.cluster_nodes,
        makespan: cap.makespan,
        dropped_msgs: cap.dropped_msgs,
        totals,
        phases,
        causal_edges: graph.edges.len() as u64,
        unmatched_recvs: graph.unmatched_recvs,
        recovery: recovery_slos(cap),
        telemetry,
        crit: cp,
        top,
        hist_msg_bytes,
        hist_phase_ns,
        hist_recv_ns,
    }
}

/// A full, deterministic run report for one bench artifact.
#[derive(Debug)]
pub struct RunReport {
    /// Artifact name (`fig6`, `table2`, ...).
    pub bench: String,
    /// Whether the bin ran in `--quick` mode.
    pub quick: bool,
    /// One section per captured run, in capture order.
    pub sections: Vec<RunSection>,
}

impl RunReport {
    /// Build a report from the runs captured by
    /// [`hpcbd_simnet::observe::end_capture`].
    pub fn from_captures(bench: &str, quick: bool, caps: &[RunCapture]) -> RunReport {
        RunReport {
            bench: bench.to_string(),
            quick,
            sections: caps
                .iter()
                .enumerate()
                .map(|(i, c)| build_section(i, c))
                .collect(),
        }
    }

    /// The report as a [`JsonValue`] document (see module docs for the
    /// determinism rules).
    pub fn to_json_value(&self) -> JsonValue {
        let runs = self
            .sections
            .iter()
            .map(|s| {
                let by_cat = JsonValue::Obj(
                    Category::ALL
                        .iter()
                        .map(|c| {
                            (
                                format!("{}_ns", c.name()),
                                JsonValue::u64(s.crit.by_category[c.index()]),
                            )
                        })
                        .collect(),
                );
                let top = JsonValue::Arr(
                    s.top
                        .iter()
                        .map(|(label, cat, ns)| {
                            JsonValue::Obj(vec![
                                ("phase".into(), JsonValue::str(label.clone())),
                                ("category".into(), JsonValue::str(cat.name())),
                                ("ns".into(), JsonValue::u64(*ns)),
                            ])
                        })
                        .collect(),
                );
                let phases = JsonValue::Arr(
                    s.phases
                        .iter()
                        .map(|p| {
                            let mut kvs = vec![
                                ("phase".into(), JsonValue::str(p.label.clone())),
                                ("spans".into(), JsonValue::u64(p.spans)),
                                ("span_ns".into(), JsonValue::u64(p.span_ns)),
                            ];
                            for c in Category::ALL {
                                kvs.push((
                                    format!("crit_{}_ns", c.name()),
                                    JsonValue::u64(p.crit[c.index()]),
                                ));
                            }
                            JsonValue::Obj(kvs)
                        })
                        .collect(),
                );
                let t = &s.totals;
                let mut run_obj = vec![
                    ("run".into(), JsonValue::u64(s.index as u64)),
                    ("procs".into(), JsonValue::u64(s.procs as u64)),
                    (
                        "cluster_nodes".into(),
                        JsonValue::u64(s.cluster_nodes as u64),
                    ),
                    ("makespan_ns".into(), JsonValue::u64(s.makespan.nanos())),
                    ("dropped_msgs".into(), JsonValue::u64(s.dropped_msgs)),
                    (
                        "totals".into(),
                        JsonValue::Obj(vec![
                            ("msgs_sent".into(), JsonValue::u64(t.msgs_sent)),
                            ("bytes_sent".into(), JsonValue::u64(t.bytes_sent)),
                            ("msgs_recvd".into(), JsonValue::u64(t.msgs_recvd)),
                            ("bytes_recvd".into(), JsonValue::u64(t.bytes_recvd)),
                            ("disk_read_bytes".into(), JsonValue::u64(t.disk_read_bytes)),
                            (
                                "disk_write_bytes".into(),
                                JsonValue::u64(t.disk_write_bytes),
                            ),
                            ("compute_ns".into(), JsonValue::u64(t.compute_time.nanos())),
                            ("wait_ns".into(), JsonValue::u64(t.wait_time.nanos())),
                            ("disk_ns".into(), JsonValue::u64(t.disk_time.nanos())),
                            ("fault_events".into(), JsonValue::u64(t.fault_events)),
                            (
                                "fault_delay_ns".into(),
                                JsonValue::u64(t.fault_delay.nanos()),
                            ),
                        ]),
                    ),
                    (
                        "critical_path".into(),
                        JsonValue::Obj(vec![
                            ("length_ns".into(), JsonValue::u64(s.crit.length.nanos())),
                            (
                                "makespan_ns".into(),
                                JsonValue::u64(s.crit.makespan.nanos()),
                            ),
                            ("by_category".into(), by_cat),
                            ("top_contributors".into(), top),
                        ]),
                    ),
                    ("phases".into(), phases),
                    (
                        "histograms".into(),
                        JsonValue::Obj(vec![
                            ("msg_bytes".into(), s.hist_msg_bytes.to_json()),
                            ("phase_span_ns".into(), s.hist_phase_ns.to_json()),
                            ("recv_span_ns".into(), s.hist_recv_ns.to_json()),
                        ]),
                    ),
                    (
                        "causal".into(),
                        JsonValue::Obj(vec![
                            ("edges".into(), JsonValue::u64(s.causal_edges)),
                            ("unmatched_recvs".into(), JsonValue::u64(s.unmatched_recvs)),
                        ]),
                    ),
                ];
                // Recovery SLOs only exist under an injected fault plan;
                // omitting the key keeps fault-free reports byte-identical
                // to their pre-fault-support goldens.
                // Telemetry only exists when sampling was on; omitting
                // the key keeps telemetry-off reports byte-identical
                // to their goldens, like `recovery` below.
                if let Some(t) = &s.telemetry {
                    run_obj.push(("telemetry".into(), t.to_json_value()));
                }
                if !s.recovery.is_empty() {
                    let faults = JsonValue::Arr(
                        s.recovery
                            .faults
                            .iter()
                            .map(|f| {
                                let mut kvs = vec![
                                    ("node".into(), JsonValue::u64(u64::from(f.node))),
                                    ("crash_ns".into(), JsonValue::u64(f.crash.nanos())),
                                ];
                                if let Some(ttd) = f.time_to_detect_ns() {
                                    kvs.push(("time_to_detect_ns".into(), JsonValue::u64(ttd)));
                                }
                                if let Some(ttr) = f.time_to_recover_ns() {
                                    kvs.push(("time_to_recover_ns".into(), JsonValue::u64(ttr)));
                                }
                                kvs.push(("work_replayed".into(), JsonValue::u64(f.work_replayed)));
                                kvs.push((
                                    "recovery_actions".into(),
                                    JsonValue::u64(f.recovery_actions),
                                ));
                                JsonValue::Obj(kvs)
                            })
                            .collect(),
                    );
                    run_obj.push(("recovery".into(), faults));
                }
                JsonValue::Obj(run_obj)
            })
            .collect();
        JsonValue::Obj(vec![
            ("schema".into(), JsonValue::str("hpcbd.report.v1")),
            ("bench".into(), JsonValue::str(self.bench.clone())),
            ("quick".into(), JsonValue::Bool(self.quick)),
            ("runs".into(), JsonValue::Arr(runs)),
        ])
    }

    /// Serialize the report to its canonical JSON text.
    pub fn to_json(&self) -> String {
        let mut s = self.to_json_value().serialize();
        s.push('\n');
        s
    }

    /// Human-readable per-run tables.
    pub fn render_text(&self) -> String {
        fn pct(part: u64, whole: u64) -> String {
            if whole == 0 {
                return "0.0%".to_string();
            }
            let permille = part * 1000 / whole;
            format!("{}.{}%", permille / 10, permille % 10)
        }
        fn ns(v: u64) -> String {
            hpcbd_simnet::SimDuration::from_nanos(v).to_string()
        }
        let mut out = String::new();
        out.push_str(&format!(
            "RUN REPORT — {}{}\n",
            self.bench,
            if self.quick { " (quick)" } else { "" }
        ));
        for s in &self.sections {
            let mk = s.makespan.nanos();
            out.push_str(&format!(
                "\nrun {}: makespan {}  ({} procs on {} nodes)\n",
                s.index,
                ns(mk),
                s.procs,
                s.cluster_nodes
            ));
            let cats = Category::ALL
                .iter()
                .map(|c| format!("{} {}", c.name(), pct(s.crit.by_category[c.index()], mk)))
                .collect::<Vec<_>>()
                .join(" | ");
            out.push_str(&format!(
                "  critical path: {} ({} of makespan)   {}\n",
                ns(s.crit.length.nanos()),
                pct(s.crit.length.nanos(), mk),
                cats
            ));
            if s.totals.fault_events > 0 {
                out.push_str(&format!(
                    "  faults: {} event(s), +{} injected delay\n",
                    s.totals.fault_events, s.totals.fault_delay
                ));
            }
            if !s.recovery.is_empty() {
                out.push_str("  recovery timeline:\n");
                for f in &s.recovery.faults {
                    let ttd = f
                        .time_to_detect_ns()
                        .map_or("undetected".to_string(), |v| format!("detect +{}", ns(v)));
                    let ttr = f
                        .time_to_recover_ns()
                        .map_or("no recovery".to_string(), |v| format!("recover +{}", ns(v)));
                    out.push_str(&format!(
                        "    n{} crashed @{}  {}  {}  work replayed {}  ({} action(s))\n",
                        f.node,
                        ns(f.crash.nanos()),
                        ttd,
                        ttr,
                        f.work_replayed,
                        f.recovery_actions
                    ));
                }
            }
            if let Some(t) = &s.telemetry {
                out.push_str(&format!(
                    "  telemetry: {} series sampled @ {} ({} windows)\n",
                    t.series.len(),
                    ns(t.interval_ns),
                    t.windows
                ));
                for o in &t.slo {
                    out.push_str(&format!(
                        "    slo {}{}{}: attainment {}.{:04}% ({} of {} windows breached)\n",
                        o.monitor.metric,
                        if o.monitor.labels.is_empty() { "" } else { "{" },
                        if o.monitor.labels.is_empty() {
                            String::new()
                        } else {
                            format!("{}}}", o.monitor.labels)
                        },
                        o.attainment_ppm / 10_000,
                        o.attainment_ppm % 10_000,
                        o.windows_breached,
                        o.windows_evaluated
                    ));
                }
            }
            out.push_str("  per-phase breakdown (critical-path attribution; sums to makespan):\n");
            out.push_str(&format!(
                "    {:<40} {:>6} {:>12} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
                "PHASE", "SPANS", "SPAN-TIME", "COMPUTE", "COMM", "DISK", "WAIT", "IDLE"
            ));
            for p in &s.phases {
                out.push_str(&format!(
                    "    {:<40} {:>6} {:>12} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
                    p.label,
                    p.spans,
                    ns(p.span_ns),
                    pct(p.crit[0], mk),
                    pct(p.crit[1], mk),
                    pct(p.crit[2], mk),
                    pct(p.crit[3], mk),
                    pct(p.crit[4], mk),
                ));
            }
            if !s.top.is_empty() {
                out.push_str("  top critical-path contributors:\n");
                for (i, (label, cat, v)) in s.top.iter().enumerate() {
                    out.push_str(&format!(
                        "    {:>2}. {:<44} {:<8} {:>12} ({})\n",
                        i + 1,
                        label,
                        cat.name(),
                        ns(*v),
                        pct(*v, mk)
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcbd_simnet::{NodeId, Pid, ResolvedKind, TraceEvent, TraceTables};

    fn small_capture() -> RunCapture {
        let ev = |pid: u32, start: u64, end: u64, kind: ResolvedKind<'static>| TraceEvent {
            pid: Pid(pid),
            start: SimTime(start),
            end: SimTime(end),
            kind,
        };
        let (events, tables) = TraceTables::store_all([
            ev(
                0,
                0,
                50,
                EventKind::Phase {
                    label: "work/iter/0",
                    depth: 0,
                },
            ),
            ev(0, 0, 40, EventKind::Compute),
            ev(
                0,
                40,
                50,
                EventKind::Send {
                    dst: Pid(1),
                    bytes: 1024,
                },
            ),
            ev(
                1,
                0,
                80,
                EventKind::Recv {
                    src: Pid(0),
                    bytes: 1024,
                },
            ),
            ev(1, 80, 100, EventKind::DiskWrite { bytes: 4096 }),
        ]);
        RunCapture {
            proc_names: vec!["a".into(), "b".into()],
            proc_nodes: vec![NodeId(0), NodeId(1)],
            finishes: vec![SimTime(50), SimTime(100)],
            stats: vec![ProcStats::default(), ProcStats::default()],
            makespan: SimTime(100),
            cluster_nodes: 2,
            dropped_msgs: 0,
            telemetry_interval: None,
            metric_points: Vec::new(),
            host_profile: None,
            events,
            tables,
        }
    }

    #[test]
    fn phase_breakdown_sums_to_makespan() {
        let cap = small_capture();
        let report = RunReport::from_captures("unit", true, &[cap]);
        let s = &report.sections[0];
        let total: u64 = s.phases.iter().map(|p| p.crit_total()).sum();
        assert_eq!(total, s.makespan.nanos());
        assert!(s.crit.length.nanos() <= s.makespan.nanos());
    }

    #[test]
    fn labels_normalize_numeric_segments() {
        assert_eq!(
            normalize_label("work/iter/17/shuffle"),
            "work/iter/*/shuffle"
        );
        assert_eq!(normalize_label("plain"), "plain");
        assert_eq!(normalize_label(""), "(unphased)");
        assert_eq!(normalize_label("a/b2/3"), "a/b2/*");
    }

    #[test]
    fn json_has_required_keys_and_roundtrips() {
        let cap = small_capture();
        let report = RunReport::from_captures("unit", false, &[cap]);
        let text = report.to_json();
        let v = JsonValue::parse(&text).expect("report JSON must parse");
        assert_eq!(
            v.get("schema").and_then(|s| match s {
                JsonValue::Str(s) => Some(s.as_str()),
                _ => None,
            }),
            Some("hpcbd.report.v1")
        );
        let runs = v.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 1);
        for key in [
            "run",
            "procs",
            "cluster_nodes",
            "makespan_ns",
            "totals",
            "critical_path",
            "phases",
            "histograms",
            "causal",
        ] {
            assert!(runs[0].get(key).is_some(), "missing key {key}");
        }
        // Canonical form round-trips byte-exactly.
        assert_eq!(format!("{}\n", v.serialize()), text);
    }

    #[test]
    fn report_is_deterministic_for_identical_captures() {
        let a = RunReport::from_captures("unit", true, &[small_capture()]).to_json();
        let b = RunReport::from_captures("unit", true, &[small_capture()]).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn text_table_mentions_phases_and_categories() {
        let report = RunReport::from_captures("unit", true, &[small_capture()]);
        let txt = report.render_text();
        assert!(txt.contains("work/iter/*"), "text: {txt}");
        assert!(txt.contains("critical path:"), "text: {txt}");
        assert!(txt.contains("PHASE"), "text: {txt}");
    }

    #[test]
    fn recovery_key_appears_only_under_faults() {
        use hpcbd_simnet::FaultEvent;
        let clean = RunReport::from_captures("unit", true, &[small_capture()]);
        let v = JsonValue::parse(&clean.to_json()).unwrap();
        assert!(
            v.get("runs").unwrap().as_arr().unwrap()[0]
                .get("recovery")
                .is_none(),
            "fault-free reports must stay byte-identical to old goldens"
        );

        let mut cap = small_capture();
        let mut fault = |t: u64, ev: FaultEvent| TraceEvent {
            pid: Pid(0),
            start: SimTime(t),
            end: SimTime(t),
            kind: EventKind::Fault(cap.tables.push_fault(ev)),
        };
        let mut events = vec![fault(10, FaultEvent::NodeCrash { node: NodeId(1) })];
        events.push(fault(
            20,
            FaultEvent::Recovery {
                runtime: "mpi",
                action: "rank_failure_detected",
                detail: 1,
            },
        ));
        events.push(fault(
            30,
            FaultEvent::Recovery {
                runtime: "mpi",
                action: "checkpoint_restart",
                detail: 2,
            },
        ));
        cap.events.extend(events);
        let faulty = RunReport::from_captures("unit", true, &[cap]);
        let v = JsonValue::parse(&faulty.to_json()).unwrap();
        let rec = v.get("runs").unwrap().as_arr().unwrap()[0]
            .get("recovery")
            .expect("faulted run must report recovery SLOs");
        let f = &rec.as_arr().unwrap()[0];
        assert_eq!(f.get("time_to_detect_ns"), Some(&JsonValue::u64(10)));
        assert_eq!(f.get("time_to_recover_ns"), Some(&JsonValue::u64(20)));
        assert_eq!(f.get("work_replayed"), Some(&JsonValue::u64(2)));
        let txt = faulty.render_text();
        assert!(txt.contains("recovery timeline:"), "text: {txt}");
        assert!(txt.contains("n1 crashed"), "text: {txt}");
    }

    #[test]
    fn telemetry_key_appears_only_when_sampling_was_on() {
        let off = RunReport::from_captures("unit", true, &[small_capture()]);
        let v = JsonValue::parse(&off.to_json()).unwrap();
        assert!(
            v.get("runs").unwrap().as_arr().unwrap()[0]
                .get("telemetry")
                .is_none(),
            "telemetry-off reports must stay byte-identical to old goldens"
        );

        let mut cap = small_capture();
        cap.telemetry_interval = Some(10);
        let on = RunReport::from_captures("unit", true, &[cap]);
        let v = JsonValue::parse(&on.to_json()).unwrap();
        let t = v.get("runs").unwrap().as_arr().unwrap()[0]
            .get("telemetry")
            .expect("telemetry-on run must carry the section");
        assert_eq!(t.get("interval_ns"), Some(&JsonValue::u64(10)));
        assert!(!t.get("series").unwrap().as_arr().unwrap().is_empty());
        let txt = on.render_text();
        assert!(txt.contains("telemetry:"), "text: {txt}");
        assert!(txt.contains("slo "), "text: {txt}");
    }

    /// Ping-pong between two processes for `rounds` messages.
    fn ping_pong(rounds: u32) {
        use hpcbd_simnet::{MatchSpec, Payload, Sim, Topology, Transport};
        let mut sim = Sim::new(Topology::comet(2));
        let tr = Transport::ipoib_socket();
        for i in 0..2u32 {
            sim.spawn(NodeId(i), format!("p{i}"), move |ctx| {
                for round in 0..rounds {
                    if round % 2 == i {
                        ctx.send(Pid(1 - i), 7, 64, Payload::Empty, &tr);
                    } else {
                        ctx.recv(MatchSpec::tag(7));
                    }
                }
            });
        }
        sim.run();
    }

    #[test]
    fn host_profile_is_each_runs_own_selfprof_delta() {
        use hpcbd_simnet::{begin_capture, end_capture, selfprof_snapshot, set_selfprof};
        let profile = |cap: &RunCapture| {
            let mut cap = cap.clone();
            cap.telemetry_interval = Some(10);
            build_section(0, &cap).telemetry.unwrap().host_profile
        };
        // The profiler flag and the capture window are process-global;
        // no other test in this binary runs a simulation. Drive both
        // explicitly and restore the off state afterwards.
        set_selfprof(false);
        begin_capture();
        ping_pong(4);
        let off = end_capture();
        assert!(profile(&off[0]).is_none(), "profiler off: no rows");

        set_selfprof(true);
        let before = selfprof_snapshot();
        begin_capture();
        ping_pong(10);
        ping_pong(60);
        let caps = end_capture();
        let after = selfprof_snapshot();
        set_selfprof(false);

        let rows: Vec<Vec<(String, u64)>> = caps
            .iter()
            .map(|cap| profile(cap).expect("profiler on"))
            .collect();
        let mut want = hpcbd_simnet::HOST_OP_NAMES.to_vec();
        want.extend(["run_wall_ns", "runs"]);
        for r in &rows {
            let names: Vec<&str> = r.iter().map(|row| row.0.as_str()).collect();
            assert_eq!(names, want);
            assert_eq!(r.last().unwrap().1, 1, "one run per section");
        }
        let pop = hpcbd_simnet::HostOp::QueuePop as usize;
        assert!(
            rows[0][pop].1 < rows[1][pop].1,
            "the longer run must pop more: {} vs {}",
            rows[0][pop].1,
            rows[1][pop].1
        );
        // Rows split the global counters' growth exactly: the operation
        // counts and the wall time, not the `runs` row.
        for i in 0..want.len() - 1 {
            assert_eq!(
                rows[0][i].1 + rows[1][i].1,
                after[i].1 - before[i].1,
                "row {}",
                want[i]
            );
        }
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::default();
        h.add(0);
        h.add(1);
        h.add(1023);
        h.add(1024);
        let json = h.to_json().serialize();
        assert_eq!(json, "[[0,1],[1,1],[512,1],[1024,1]]");
        assert_eq!(h.total(), 4);
    }
}
