//! Extended Perfetto / Chrome-tracing export: the full event timeline
//! (phase spans included) plus flow arrows for every matched send→recv
//! edge, so the causal structure is visible in the UI — and, when the
//! run carried telemetry, one counter track (`ph: "C"`) per sampled
//! series plus an instant event (`ph: "i"`) per SLO breach.
//!
//! Builds on the same complete-event (`ph: "X"`) encoding as
//! [`hpcbd_simnet::Trace::to_chrome_json`]; flow arrows use `ph: "s"` /
//! `ph: "f"` pairs whose `id` is the edge index. Counter-track names
//! pass through [`json_escape`] exactly like event names — a metric
//! label containing a quote must not corrupt the document.

use std::fmt::Write as _;

use hpcbd_simnet::observe::RunCapture;
use hpcbd_simnet::{json_escape, json_escape_into, EventKind, Micros};

use crate::causal::CausalGraph;
use crate::metrics::{Points, Telemetry};

/// Render a captured run (events + causal edges) as a Chrome tracing
/// JSON array loadable in Perfetto.
pub fn to_perfetto_json(cap: &RunCapture, graph: &CausalGraph) -> String {
    to_perfetto_json_with_telemetry(cap, graph, None)
}

/// [`to_perfetto_json`], plus counter tracks and SLO-breach instants
/// for a sampled [`Telemetry`] section. Every record is written straight
/// into the one output `String`.
pub fn to_perfetto_json_with_telemetry(
    cap: &RunCapture,
    graph: &CausalGraph,
    telemetry: Option<&Telemetry>,
) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    // Separator before every record but the first.
    let mut next = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
    };
    for e in &cap.events {
        let name: &str = match &e.kind {
            EventKind::Phase { label, .. } => label,
            _ => e.kind.label(),
        };
        let proc = cap
            .proc_names
            .get(e.pid.index())
            .map(|s| s.as_str())
            .unwrap_or("?");
        next(&mut out);
        out.push_str("  {\"name\": \"");
        json_escape_into(&mut out, name);
        let _ = write!(
            out,
            "\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": {}, \"args\": {{\"proc\": \"",
            e.kind.label(),
            Micros(e.start.nanos()),
            Micros(e.end.nanos().saturating_sub(e.start.nanos())),
            e.pid.0,
        );
        json_escape_into(&mut out, proc);
        out.push_str("\"}}");
    }
    for (i, edge) in graph.edges.iter().enumerate() {
        let s = &cap.events[edge.send];
        let r = &cap.events[edge.recv];
        next(&mut out);
        let _ = write!(
            out,
            "  {{\"name\": \"msg\", \"cat\": \"flow\", \"ph\": \"s\", \"id\": {i}, \"ts\": {}, \"pid\": 0, \"tid\": {}}}",
            Micros(s.end.nanos()),
            s.pid.0,
        );
        next(&mut out);
        let _ = write!(
            out,
            "  {{\"name\": \"msg\", \"cat\": \"flow\", \"ph\": \"f\", \"bp\": \"e\", \"id\": {i}, \"ts\": {}, \"pid\": 0, \"tid\": {}}}",
            Micros(r.end.nanos()),
            r.pid.0,
        );
    }
    if let Some(t) = telemetry {
        for s in &t.series {
            // Track title: `name{labels}` — escaped the same way event
            // names are, so a quote in a label cannot break the JSON.
            let title = if s.labels.is_empty() {
                s.name.to_string()
            } else {
                format!("{}{{{}}}", s.name, s.labels)
            };
            let title = json_escape(&title);
            // One representative value per point: the per-window delta
            // for counters (reads as a rate), the value for gauges, the
            // windowed p99 for histograms.
            let rows: Vec<(u64, u64)> = match &s.points {
                Points::Counter(v) => v.iter().map(|p| (p[0], p[1])).collect(),
                Points::Gauge(v) => v.iter().map(|p| (p[0], p[1])).collect(),
                Points::Histogram(v) => v.iter().map(|p| (p[0], p[3])).collect(),
            };
            for (t_ns, value) in rows {
                next(&mut out);
                let _ = write!(
                    out,
                    "  {{\"name\": \"{title}\", \"cat\": \"telemetry\", \"ph\": \"C\", \"ts\": {}, \"pid\": 0, \"args\": {{\"value\": {value}}}}}",
                    Micros(t_ns),
                );
            }
        }
        for o in &t.slo {
            for b in &o.breaches {
                next(&mut out);
                out.push_str("  {\"name\": \"slo_breach ");
                json_escape_into(&mut out, &o.monitor.metric);
                let _ = write!(
                    out,
                    "\", \"cat\": \"slo\", \"ph\": \"i\", \"s\": \"g\", \"ts\": {}, \"pid\": 0, \"tid\": 0, \"args\": {{\"observed_p99\": {}, \"threshold\": {}}}}}",
                    Micros(b.t_ns),
                    b.observed_p99,
                    b.threshold,
                );
            }
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::match_events;
    use crate::json::JsonValue;
    use hpcbd_simnet::{NodeId, Pid, ProcStats, SimTime, TraceEvent};

    #[test]
    fn flow_arrows_connect_matched_pairs() {
        let ev = |pid: u32, start: u64, end: u64, kind: EventKind| TraceEvent {
            pid: Pid(pid),
            start: SimTime(start),
            end: SimTime(end),
            kind,
        };
        let cap = RunCapture {
            proc_names: vec!["send\"er".into(), "recv".into()],
            proc_nodes: vec![NodeId(0), NodeId(1)],
            finishes: vec![SimTime(10), SimTime(30)],
            stats: vec![ProcStats::default(), ProcStats::default()],
            makespan: SimTime(30),
            cluster_nodes: 2,
            dropped_msgs: 0,
            events: vec![
                ev(
                    0,
                    0,
                    10,
                    EventKind::Send {
                        dst: Pid(1),
                        bytes: 64,
                    },
                ),
                ev(
                    1,
                    0,
                    30,
                    EventKind::Recv {
                        src: Pid(0),
                        bytes: 64,
                    },
                ),
            ],
            telemetry_interval: None,
            metric_points: Vec::new(),
            host_profile: None,
        };
        let graph = match_events(&cap.events);
        let json = to_perfetto_json(&cap, &graph);
        assert!(json.contains("\"ph\": \"s\""), "json: {json}");
        assert!(json.contains("\"ph\": \"f\""), "json: {json}");
        assert!(json.contains(r#"send\"er"#), "escaped name: {json}");
        // The whole document must be valid JSON.
        JsonValue::parse(&json).expect("perfetto export must parse");
    }

    #[test]
    fn counter_tracks_escape_names_and_breaches_become_instants() {
        use crate::metrics::Registry;
        // A label with a quote: the counter-track name must be escaped
        // the same way event names are.
        let reg = Registry::new();
        reg.counter_add("util", "disk=\"sda\"", 0, 7);
        reg.counter_add("util", "disk=\"sda\"", 15, 3);
        // A histogram whose last window breaches its 4×p50 SLO.
        for t in 0..10u64 {
            reg.observe("lat", "", t, 100);
        }
        reg.observe("lat", "", 15, 1 << 30);
        let telemetry = reg.sample(10, 20);
        assert!(
            telemetry.slo.iter().any(|o| o.windows_breached > 0),
            "fixture must actually breach"
        );

        let cap = RunCapture {
            proc_names: vec!["p".into()],
            proc_nodes: vec![NodeId(0)],
            finishes: vec![SimTime(20)],
            stats: vec![ProcStats::default()],
            makespan: SimTime(20),
            cluster_nodes: 1,
            dropped_msgs: 0,
            events: Vec::new(),
            telemetry_interval: Some(10),
            metric_points: Vec::new(),
            host_profile: None,
        };
        let graph = match_events(&cap.events);
        let json = to_perfetto_json_with_telemetry(&cap, &graph, Some(&telemetry));
        assert!(json.contains("\"ph\": \"C\""), "counter track: {json}");
        assert!(
            json.contains(r#"util{disk=\"sda\"}"#),
            "escaped track name: {json}"
        );
        assert!(json.contains("\"ph\": \"i\""), "breach instant: {json}");
        assert!(json.contains("slo_breach lat"), "breach name: {json}");
        // Escaping must keep the whole document valid JSON.
        JsonValue::parse(&json).expect("perfetto export with telemetry must parse");
    }
}
