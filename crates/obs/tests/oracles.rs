//! The causal matcher and the Perfetto exporter against the versions
//! they replaced: `match_events` must give the same edges, the same
//! unmatched count and the same `matched_send` answer for every event
//! index; the in-place exporter must write the same bytes.

use std::collections::HashMap;

use hpcbd_obs::{
    match_events, to_perfetto_json_with_telemetry, CausalEdge, CausalGraph, Points, Registry,
    Telemetry,
};
use hpcbd_simnet::observe::RunCapture;
use hpcbd_simnet::{json_escape, EventKind, NodeId, Pid, ProcStats, SimTime, Trace, TraceEvent};
use proptest::prelude::*;

/// The previous `match_events`, kept verbatim as the reference (std
/// `HashMap`s of `usize` indices and a `send_of_recv` map).
fn oracle_match(events: &[TraceEvent]) -> (Vec<CausalEdge>, u64, HashMap<usize, usize>) {
    type Key = (u32, u32, u64);
    let mut sends: HashMap<Key, Vec<usize>> = HashMap::new();
    let mut recvs: HashMap<Key, Vec<usize>> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        match e.kind {
            EventKind::Send { dst, bytes } => {
                sends.entry((e.pid.0, dst.0, bytes)).or_default().push(i);
            }
            EventKind::Recv { src, bytes } => {
                recvs.entry((src.0, e.pid.0, bytes)).or_default().push(i);
            }
            _ => {}
        }
    }
    let (mut edges, mut unmatched, mut send_of_recv) = (Vec::new(), 0, HashMap::new());
    let mut keys: Vec<Key> = recvs.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let mut rs = recvs.remove(&key).unwrap_or_default();
        let mut ss = sends.remove(&key).unwrap_or_default();
        ss.sort_by_key(|&i| (events[i].start, events[i].end, i));
        rs.sort_by_key(|&i| (events[i].end, events[i].start, i));
        let mut si = ss.into_iter();
        for r in rs {
            match si.next() {
                Some(s) if events[s].end <= events[r].end => {
                    edges.push(CausalEdge { send: s, recv: r });
                    send_of_recv.insert(r, s);
                }
                _ => unmatched += 1,
            }
        }
    }
    edges.sort_unstable_by_key(|e| (e.recv, e.send));
    (edges, unmatched, send_of_recv)
}

/// The previous `to_perfetto_json_with_telemetry`, kept verbatim as the
/// reference: one `format!` per record.
fn oracle_perfetto(cap: &RunCapture, graph: &CausalGraph, telemetry: Option<&Telemetry>) -> String {
    fn us(nanos: u64) -> String {
        format!("{:.3}", nanos as f64 / 1e3)
    }
    let mut out = String::from("[\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
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
        push(
            format!(
                "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": {}, \"args\": {{\"proc\": \"{}\"}}}}",
                json_escape(name),
                e.kind.label(),
                us(e.start.nanos()),
                us(e.end.nanos().saturating_sub(e.start.nanos())),
                e.pid.0,
                json_escape(proc),
            ),
            &mut out,
        );
    }
    for (i, edge) in graph.edges.iter().enumerate() {
        let s = &cap.events[edge.send];
        let r = &cap.events[edge.recv];
        push(
            format!(
                "  {{\"name\": \"msg\", \"cat\": \"flow\", \"ph\": \"s\", \"id\": {i}, \"ts\": {}, \"pid\": 0, \"tid\": {}}}",
                us(s.end.nanos()),
                s.pid.0,
            ),
            &mut out,
        );
        push(
            format!(
                "  {{\"name\": \"msg\", \"cat\": \"flow\", \"ph\": \"f\", \"bp\": \"e\", \"id\": {i}, \"ts\": {}, \"pid\": 0, \"tid\": {}}}",
                us(r.end.nanos()),
                r.pid.0,
            ),
            &mut out,
        );
    }
    if let Some(t) = telemetry {
        for s in &t.series {
            let title = if s.labels.is_empty() {
                s.name.to_string()
            } else {
                format!("{}{{{}}}", s.name, s.labels)
            };
            let title = json_escape(&title);
            let rows: Vec<(u64, u64)> = match &s.points {
                Points::Counter(v) => v.iter().map(|p| (p[0], p[1])).collect(),
                Points::Gauge(v) => v.iter().map(|p| (p[0], p[1])).collect(),
                Points::Histogram(v) => v.iter().map(|p| (p[0], p[3])).collect(),
            };
            for (t_ns, value) in rows {
                push(
                    format!(
                        "  {{\"name\": \"{title}\", \"cat\": \"telemetry\", \"ph\": \"C\", \"ts\": {}, \"pid\": 0, \"args\": {{\"value\": {value}}}}}",
                        us(t_ns),
                    ),
                    &mut out,
                );
            }
        }
        for o in &t.slo {
            for b in &o.breaches {
                let name = json_escape(&format!("slo_breach {}", o.monitor.metric));
                push(
                    format!(
                        "  {{\"name\": \"{name}\", \"cat\": \"slo\", \"ph\": \"i\", \"s\": \"g\", \"ts\": {}, \"pid\": 0, \"tid\": 0, \"args\": {{\"observed_p99\": {}, \"threshold\": {}}}}}",
                        us(b.t_ns),
                        b.observed_p99,
                        b.threshold,
                    ),
                    &mut out,
                );
            }
        }
    }
    out.push_str("\n]\n");
    out
}

/// Random events on three processes, recorded in generation order and
/// returned in export order.
fn sorted(specs: &[(u32, u32, u64, u64, u8)]) -> Vec<TraceEvent> {
    let t = Trace::new();
    for &(pid, peer, start, len, sel) in specs {
        let bytes = 64 << (sel % 2);
        let kind = match sel {
            0 | 1 => EventKind::Send {
                dst: Pid(peer),
                bytes,
            },
            2 | 3 => EventKind::Recv {
                src: Pid(peer),
                bytes,
            },
            5 => EventKind::Phase {
                label: "tenant \"a\"/job".into(),
                depth: peer,
            },
            _ => EventKind::Compute,
        };
        t.record(Pid(pid), SimTime(start), SimTime(start + len), kind);
    }
    t.sorted_events()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Event times up to 2^50 ns, so the `{:.3}` microsecond fields
    /// carry every digit count; a quote in a process name, a phase
    /// label and a metric label; counter, gauge and histogram tracks
    /// and an SLO breach.
    #[test]
    fn perfetto_export_equals_the_format_based_export(
        specs in collection::vec((0u32..3, 0u32..3, 0u64..1 << 50, 0u64..1 << 20, 0u8..6), 0..80),
        samples in collection::vec((0u64..200, 0u64..1 << 40), 1..40),
    ) {
        let events = sorted(&specs);
        let reg = Registry::new();
        for &(t, v) in &samples {
            reg.counter_add("util", "disk=\"sda\"", t, v);
            reg.gauge_set("queue", "", t, v);
            reg.observe("lat", "", t, 100);
        }
        reg.observe("lat", "", 150, 1 << 30);
        let telemetry = reg.sample(10, 200);
        prop_assert!(telemetry.slo.iter().any(|o| !o.breaches.is_empty()));
        let cap = RunCapture {
            proc_names: vec!["a".into(), "b\"q".into(), "c\\d".into()],
            proc_nodes: vec![NodeId(0); 3],
            finishes: vec![SimTime(200); 3],
            stats: vec![ProcStats::default(); 3],
            makespan: SimTime(200),
            cluster_nodes: 1,
            dropped_msgs: 0,
            events,
            telemetry_interval: Some(10),
            metric_points: Vec::new(),
            host_profile: None,
        };
        let graph = match_events(&cap.events);
        for t in [None, Some(&telemetry)] {
            prop_assert_eq!(
                to_perfetto_json_with_telemetry(&cap, &graph, t),
                oracle_perfetto(&cap, &graph, t)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Three processes, two message sizes and a short time axis: many
    /// sends and recvs share a stream, many pairs are causally
    /// impossible, and some recvs have no send at all.
    #[test]
    fn matching_equals_the_map_based_matcher(
        // (pid, peer, start, len, selector) per event.
        specs in collection::vec((0u32..3, 0u32..3, 0u64..20, 0u64..8, 0u8..5), 0..160),
    ) {
        let events = sorted(&specs);
        let g = match_events(&events);
        let (edges, unmatched, send_of_recv) = oracle_match(&events);
        prop_assert_eq!(&g.edges, &edges);
        prop_assert_eq!(g.unmatched_recvs, unmatched);
        for i in 0..events.len() {
            prop_assert_eq!(g.matched_send(i), send_of_recv.get(&i).copied());
        }
    }
}
