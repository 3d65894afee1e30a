//! Execution tracing: a per-process timeline of simulation-visible
//! operations.
//!
//! Disabled by default (zero overhead); enable with
//! [`crate::Sim::enable_tracing`] before `run`. The collected events can
//! be rendered as a text timeline or exported in the Chrome tracing
//! format (`chrome://tracing`, Perfetto) for visual inspection of, say,
//! a Spark stage's dispatch wave or an alltoall's NIC serialization.

use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::Pid;
use crate::time::{SimDuration, SimTime};

/// What a trace event describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Modeled computation.
    Compute,
    /// Message handed to a transport.
    Send {
        /// Destination process.
        dst: Pid,
        /// Logical payload bytes.
        bytes: u64,
    },
    /// Message consumed (span covers blocking time).
    Recv {
        /// Source process.
        src: Pid,
        /// Logical payload bytes.
        bytes: u64,
    },
    /// Local disk read.
    DiskRead {
        /// Bytes read.
        bytes: u64,
    },
    /// Local disk write.
    DiskWrite {
        /// Bytes written.
        bytes: u64,
    },
    /// NFS server access.
    Nfs {
        /// Bytes moved.
        bytes: u64,
    },
    /// One-sided RDMA transfer initiated by this process.
    OneSided {
        /// Bytes moved.
        bytes: u64,
    },
    /// An injected fault or a runtime recovery action (zero-length
    /// instant; the payload carries the virtual-time cost). Boxed:
    /// faults are rare, and inline they would make every event 24 B
    /// larger.
    Fault(Box<crate::faults::FaultEvent>),
    /// A structured phase span opened with [`crate::ProcCtx::span_open`]:
    /// a nestable, runtime-level label ("pagerank/iter/3/shuffle",
    /// "mpi/allreduce") covering the primitive events it encloses.
    /// `depth` is the nesting level (0 = outermost) at which the span
    /// sat on its process's span stack.
    Phase {
        /// Hierarchical phase label; `/` separates levels.
        label: Arc<str>,
        /// Nesting depth on the opening process's span stack.
        depth: u32,
    },
}

impl EventKind {
    /// Short label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Compute => "compute",
            EventKind::Send { .. } => "send",
            EventKind::Recv { .. } => "recv",
            EventKind::DiskRead { .. } => "disk_read",
            EventKind::DiskWrite { .. } => "disk_write",
            EventKind::Nfs { .. } => "nfs",
            EventKind::OneSided { .. } => "rdma",
            EventKind::Fault(ev) => ev.label(),
            EventKind::Phase { .. } => "phase",
        }
    }
}

/// Escape a string for inclusion inside a JSON string literal: quotes,
/// backslashes and control characters become their escape sequences.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// [`json_escape`], appended to `out` instead of returned: the exporters
/// write every event straight into one document `String`.
pub fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Virtual nanoseconds rendered as the trace formats' microseconds with
/// three decimals (`{:.3}`), written in place by `write!`.
pub struct Micros(pub u64);

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}", self.0 as f64 / 1e3)
    }
}

/// One timeline span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The process the span belongs to.
    pub pid: Pid,
    /// Span start (virtual time).
    pub start: SimTime,
    /// Span end (virtual time).
    pub end: SimTime,
    /// What happened.
    pub kind: EventKind,
}

/// Collected events (append-only during a run).
#[derive(Default)]
pub struct Trace {
    events: Mutex<Vec<TraceEvent>>,
}

impl Trace {
    /// Fresh empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Record one span.
    pub fn record(&self, pid: Pid, start: SimTime, end: SimTime, kind: EventKind) {
        self.events.lock().push(TraceEvent {
            pid,
            start,
            end,
            kind,
        });
    }

    /// Merge a batch of events collected in a private per-process buffer.
    ///
    /// The engine buffers each process's events locally (one `Vec::push`
    /// per event, no shared lock on the hot path) and absorbs the buffer
    /// once at process finish. Because the export order is recovered
    /// entirely by the sort in [`Trace::sorted_events`], the wall-clock
    /// order in which buffers are absorbed is irrelevant: the result is
    /// byte-identical to recording every event through the shared lock.
    pub fn absorb(&self, mut batch: Vec<TraceEvent>) {
        self.events.lock().append(&mut batch);
    }

    /// Events in the deterministic export order.
    ///
    /// Under [`crate::Execution::Parallel`] events from different
    /// processes are appended in wall-clock order, which varies run to
    /// run — so the export order must come entirely from the sort key.
    /// The key `(start, pid, end, kind)` is a total order up to fully
    /// identical (hence interchangeable) events, making trace exports
    /// bit-identical across runs and execution modes.
    ///
    /// The result equals a stable sort by that key, computed in two
    /// passes so the expensive part of the key is rarely built: an
    /// unstable sort of packed `u128` keys `(start, pid, append index)`,
    /// then a sort of each run of equal `(start, pid)` by
    /// `(end, kind, append index)`. The append index breaks every tie,
    /// which is what makes both passes agree with the stable sort.
    pub fn sorted_events(&self) -> Vec<TraceEvent> {
        fn kind_key(k: &EventKind) -> (u8, u64, u32) {
            match *k {
                EventKind::Compute => (0, 0, 0),
                EventKind::Send { dst, bytes } => (1, bytes, dst.0),
                EventKind::Recv { src, bytes } => (2, bytes, src.0),
                EventKind::DiskRead { bytes } => (3, bytes, 0),
                EventKind::DiskWrite { bytes } => (4, bytes, 0),
                EventKind::Nfs { bytes } => (5, bytes, 0),
                EventKind::OneSided { bytes } => (6, bytes, 0),
                // Distinct fault events must sort apart; identical ones
                // are interchangeable, so a content hash is a valid key
                // (`Box<T>` hashes as `T`).
                EventKind::Fault(ref ev) => (7, crate::hash::det_hash(ev), 0),
                // Same argument for phases: the label hash separates
                // distinct spans, `depth` orders a parent after the child
                // it exactly coincides with.
                EventKind::Phase { ref label, depth } => {
                    (8, crate::hash::det_hash(&**label), depth)
                }
            }
        }
        let events = self.events.lock();
        assert!(
            events.len() <= u32::MAX as usize,
            "a trace holds fewer than 2^32 events"
        );
        let mut keys: Vec<u128> = events
            .iter()
            .enumerate()
            .map(|(i, e)| (e.start.nanos() as u128) << 64 | (e.pid.0 as u128) << 32 | i as u128)
            .collect();
        keys.sort_unstable();
        let index = |k: u128| k as u32 as usize;
        // Keys in one run differ only in the append index, so each run
        // is re-sorted in place by the rest of the export key.
        for run in keys.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
            if run.len() > 1 {
                run.sort_unstable_by_key(|&k| {
                    let e = &events[index(k)];
                    (e.end, kind_key(&e.kind), k)
                });
            }
        }
        keys.iter().map(|&k| events[index(k)].clone()).collect()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Chrome tracing format (a JSON array of complete events, `ph: "X"`)
    /// loadable in `chrome://tracing` or Perfetto. Timestamps in
    /// microseconds, one row per process.
    pub fn to_chrome_json(&self, proc_names: &[String]) -> String {
        let mut out = String::from("[\n");
        for (i, e) in self.sorted_events().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let name = proc_names
                .get(e.pid.index())
                .map(|s| s.as_str())
                .unwrap_or("?");
            // Phase spans display under their own label so nested runtime
            // phases read as a flame graph above the primitive ops.
            let display: &str = match &e.kind {
                EventKind::Phase { label, .. } => label,
                _ => e.kind.label(),
            };
            out.push_str("  {\"name\": \"");
            json_escape_into(&mut out, display);
            let _ = write!(
                out,
                "\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": {}, \"args\": {{\"proc\": \"",
                e.kind.label(),
                Micros(e.start.nanos()),
                Micros(e.end.nanos().saturating_sub(e.start.nanos())),
                e.pid.0,
            );
            json_escape_into(&mut out, name);
            out.push_str("\", \"detail\": \"");
            // Only a fault's `Debug` form can hold characters that need
            // escaping; every other detail is digits, letters and spaces.
            let _ = match &e.kind {
                EventKind::Send { dst, bytes } => write!(out, "to p{} {} B", dst.0, bytes),
                EventKind::Recv { src, bytes } => write!(out, "from p{} {} B", src.0, bytes),
                EventKind::DiskRead { bytes }
                | EventKind::DiskWrite { bytes }
                | EventKind::Nfs { bytes }
                | EventKind::OneSided { bytes } => write!(out, "{bytes} B"),
                EventKind::Compute => Ok(()),
                EventKind::Fault(ev) => {
                    json_escape_into(&mut out, &format!("{ev:?}"));
                    Ok(())
                }
                EventKind::Phase { depth, .. } => write!(out, "depth {depth}"),
            };
            out.push_str("\"}}");
        }
        out.push_str("\n]\n");
        out
    }

    /// A compact text timeline: one line per event, grouped by process,
    /// with a per-process fault summary (event count and total injected
    /// delay) after any process that observed faults.
    pub fn render_text(&self, proc_names: &[String]) -> String {
        fn flush_faults(out: &mut String, count: u64, delay: SimDuration) {
            if count > 0 {
                out.push_str(&format!(
                    "  -- faults: {count} event(s), +{delay} injected delay --\n"
                ));
            }
        }
        let mut out = String::new();
        let mut events = self.sorted_events();
        events.sort_by_key(|e| (e.pid, e.start));
        let mut current: Option<Pid> = None;
        let mut fault_count = 0u64;
        let mut fault_delay = SimDuration::ZERO;
        for e in events {
            if current != Some(e.pid) {
                flush_faults(&mut out, fault_count, fault_delay);
                fault_count = 0;
                fault_delay = SimDuration::ZERO;
                current = Some(e.pid);
                let name = proc_names
                    .get(e.pid.index())
                    .map(|s| s.as_str())
                    .unwrap_or("?");
                out.push_str(&format!("== {} ({}) ==\n", e.pid, name));
            }
            if let EventKind::Fault(ev) = &e.kind {
                fault_count += 1;
                fault_delay += ev.injected_delay();
            }
            out.push_str(&format!(
                "  [{} .. {}] {} {:?}\n",
                e.start,
                e.end,
                e.kind.label(),
                e.kind
            ));
        }
        flush_faults(&mut out, fault_count, fault_delay);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_sort() {
        let t = Trace::new();
        t.record(Pid(1), SimTime(20), SimTime(30), EventKind::Compute);
        t.record(
            Pid(0),
            SimTime(10),
            SimTime(15),
            EventKind::Send {
                dst: Pid(1),
                bytes: 64,
            },
        );
        let ev = t.sorted_events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].pid, Pid(0));
        assert_eq!(ev[1].kind, EventKind::Compute);
    }

    #[test]
    fn chrome_json_is_wellformed_enough() {
        let t = Trace::new();
        t.record(
            Pid(0),
            SimTime(1000),
            SimTime(3000),
            EventKind::DiskRead { bytes: 4096 },
        );
        let json = t.to_chrome_json(&["reader".to_string()]);
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"dur\": 2.000"));
        assert!(json.contains("disk_read"));
        assert!(json.trim_end().ends_with(']'));
    }

    /// The per-process-buffer path must be observationally identical to
    /// the old globally-locked path: on a randomized workload, absorbing
    /// whole per-process buffers (in any wall-clock order) exports the
    /// exact event sequence that per-event `record` calls produce.
    mod merge_order {
        use super::*;
        use proptest::prelude::*;

        fn build_event(pid: u32, start: u64, len: u64, kind_sel: u8, bytes: u64) -> TraceEvent {
            let kind = match kind_sel % 7 {
                0 => EventKind::Compute,
                1 => EventKind::Send {
                    dst: Pid(pid ^ 1),
                    bytes,
                },
                2 => EventKind::Recv {
                    src: Pid(pid ^ 1),
                    bytes,
                },
                3 => EventKind::DiskRead { bytes },
                4 => EventKind::DiskWrite { bytes },
                5 => EventKind::Nfs { bytes },
                _ => EventKind::OneSided { bytes },
            };
            TraceEvent {
                pid: Pid(pid),
                start: SimTime(start),
                end: SimTime(start + len),
                kind,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn absorbed_buffers_export_identically_to_global_records(
                // (pid, start, len, kind selector, bytes) per event; small
                // ranges force heavy collisions on (start, pid) so the
                // tie-breaking tail of the sort key is exercised.
                evs in collection::vec(
                    (0u32..6, 0u64..50, 0u64..5, 0u8..7, 0u64..4), 1..120),
                absorb_order_seed in 0u64..1000,
            ) {
                let events: Vec<TraceEvent> = evs
                    .iter()
                    .map(|&(p, s, l, k, b)| build_event(p, s, l, k, b))
                    .collect();

                // Reference: every event through the shared-lock path, in
                // generation order (an arbitrary wall-clock interleaving).
                let global = Trace::new();
                for e in &events {
                    global.record(e.pid, e.start, e.end, e.kind.clone());
                }

                // Candidate: split into per-process buffers (preserving
                // each process's own order, as the engine does), then
                // absorb the buffers in a seed-rotated process order to
                // model nondeterministic process-finish order.
                let buffered = Trace::new();
                let npids = 6;
                let mut bufs: Vec<Vec<TraceEvent>> = vec![Vec::new(); npids];
                for e in &events {
                    bufs[e.pid.index()].push(e.clone());
                }
                for i in 0..npids {
                    let p = (i + absorb_order_seed as usize) % npids;
                    buffered.absorb(std::mem::take(&mut bufs[p]));
                }

                prop_assert_eq!(global.len(), buffered.len());
                prop_assert_eq!(global.sorted_events(), buffered.sorted_events());
            }
        }
    }

    /// The two-pass packed-key sort against the single stable sort it
    /// replaced, on collision-heavy inputs with every event kind.
    mod sort_oracle {
        use super::*;
        use crate::faults::FaultEvent;
        use crate::topology::NodeId;
        use proptest::prelude::*;
        use proptest::test_runner::TestRng;

        /// The previous `Trace::sorted_events`, kept verbatim as the
        /// reference: a stable sort by `(start, pid, end, kind)`.
        fn oracle_sorted(appended: &[TraceEvent]) -> Vec<TraceEvent> {
            fn kind_key(k: &EventKind) -> (u8, u64, u32) {
                match *k {
                    EventKind::Compute => (0, 0, 0),
                    EventKind::Send { dst, bytes } => (1, bytes, dst.0),
                    EventKind::Recv { src, bytes } => (2, bytes, src.0),
                    EventKind::DiskRead { bytes } => (3, bytes, 0),
                    EventKind::DiskWrite { bytes } => (4, bytes, 0),
                    EventKind::Nfs { bytes } => (5, bytes, 0),
                    EventKind::OneSided { bytes } => (6, bytes, 0),
                    EventKind::Fault(ref ev) => (7, crate::hash::det_hash(ev), 0),
                    EventKind::Phase { ref label, depth } => {
                        (8, crate::hash::det_hash(&**label), depth)
                    }
                }
            }
            let mut v = appended.to_vec();
            v.sort_by_key(|e| (e.start, e.pid, e.end, kind_key(&e.kind)));
            v
        }

        /// `(pid, start, len, kind selector, payload)`: four processes
        /// and six start times force long `(start, pid)` runs; `len` 0
        /// gives zero-length spans.
        type Spec = (u32, u64, u64, u8, u64);

        fn event((pid, start, len, sel, x): Spec) -> TraceEvent {
            let kind = match sel {
                0 => EventKind::Compute,
                1 => EventKind::Send {
                    dst: Pid(x as u32),
                    bytes: x / 2,
                },
                2 => EventKind::Recv {
                    src: Pid(x as u32),
                    bytes: x / 2,
                },
                3 => EventKind::DiskRead { bytes: x },
                4 => EventKind::DiskWrite { bytes: x },
                5 => EventKind::Nfs { bytes: x },
                6 => EventKind::OneSided { bytes: x },
                7 => EventKind::Fault(Box::new(FaultEvent::NodeCrash {
                    node: NodeId(x as u32),
                })),
                8 => EventKind::Fault(Box::new(FaultEvent::Recovery {
                    runtime: "mpi",
                    action: "restart",
                    detail: x,
                })),
                // The same two labels at depths 0..3.
                _ => EventKind::Phase {
                    label: ["job", "job/stage"][x as usize % 2].into(),
                    depth: (sel - 9) as u32,
                },
            };
            TraceEvent {
                pid: Pid(pid),
                start: SimTime(start),
                end: SimTime(start + len),
                kind,
            }
        }

        fn case() -> impl Strategy<Value = (Vec<Spec>, u64)> {
            (
                collection::vec((0u32..4, 0u64..6, 0u64..3, 0u8..12, 0u64..4), 1..160),
                any::<u64>(),
            )
        }

        /// Split the events into per-process buffers, absorb them in an
        /// order shuffled by `seed`, and return the trace together with
        /// its append order.
        fn absorbed((specs, seed): &(Vec<Spec>, u64)) -> (Trace, Vec<TraceEvent>) {
            let mut bufs: Vec<Vec<TraceEvent>> = vec![Vec::new(); 4];
            for &s in specs {
                bufs[s.0 as usize].push(event(s));
            }
            let mut rng = TestRng::new(*seed);
            for i in (1..bufs.len()).rev() {
                bufs.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let t = Trace::new();
            let appended: Vec<TraceEvent> = bufs.concat();
            for b in bufs {
                t.absorb(b);
            }
            (t, appended)
        }

        fn agrees(sort: fn(&Trace) -> Vec<TraceEvent>, case: &(Vec<Spec>, u64)) -> bool {
            let (t, appended) = absorbed(case);
            sort(&t) == oracle_sorted(&appended)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn packed_key_sort_equals_the_stable_sort(c in case()) {
                prop_assert!(agrees(Trace::sorted_events, &c));
            }

            /// In-place writing changes no byte of the Chrome export;
            /// a `Recovery` fault's `Debug` form carries quotes to escape.
            #[test]
            fn chrome_json_equals_the_format_based_export(c in case()) {
                let names: Vec<String> =
                    ["plain", "qu\"ote", "back\\slash", "tab\tctl\x01"].map(String::from).into();
                let (t, appended) = absorbed(&c);
                prop_assert_eq!(
                    t.to_chrome_json(&names),
                    oracle_chrome_json(&oracle_sorted(&appended), &names)
                );
            }
        }

        /// The previous `Trace::to_chrome_json` body: one `format!` and
        /// three escaped `String`s per event.
        fn oracle_chrome_json(sorted: &[TraceEvent], proc_names: &[String]) -> String {
            let mut out = String::from("[\n");
            for (i, e) in sorted.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                let name = proc_names
                    .get(e.pid.index())
                    .map(|s| s.as_str())
                    .unwrap_or("?");
                let detail = match &e.kind {
                    EventKind::Send { dst, bytes } => format!("to p{} {} B", dst.0, bytes),
                    EventKind::Recv { src, bytes } => format!("from p{} {} B", src.0, bytes),
                    EventKind::DiskRead { bytes }
                    | EventKind::DiskWrite { bytes }
                    | EventKind::Nfs { bytes }
                    | EventKind::OneSided { bytes } => format!("{bytes} B"),
                    EventKind::Compute => String::new(),
                    EventKind::Fault(ev) => format!("{ev:?}"),
                    EventKind::Phase { depth, .. } => format!("depth {depth}"),
                };
                let display: &str = match &e.kind {
                    EventKind::Phase { label, .. } => label,
                    _ => e.kind.label(),
                };
                out.push_str(&format!(
                    "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 0, \"tid\": {}, \"args\": {{\"proc\": \"{}\", \"detail\": \"{}\"}}}}",
                    json_escape(display),
                    e.kind.label(),
                    e.start.nanos() as f64 / 1e3,
                    (e.end.nanos().saturating_sub(e.start.nanos())) as f64 / 1e3,
                    e.pid.0,
                    json_escape(name),
                    json_escape(&detail)
                ));
            }
            out.push_str("\n]\n");
            out
        }

        /// The property above is sharp enough to catch a sort that gets
        /// `(start, pid)` right but drops the rest of the key.
        #[test]
        fn oracle_rejects_an_unstable_start_pid_sort() {
            fn mutant(t: &Trace) -> Vec<TraceEvent> {
                let mut v = t.events.lock().clone();
                v.sort_unstable_by_key(|e| (e.start, e.pid));
                v
            }
            let mut rng = TestRng::new(0x5eed);
            let caught = (0..64).filter(|_| !agrees(mutant, &case().generate(&mut rng)));
            assert!(caught.count() > 32, "the oracle must reject the mutant");
        }

        #[test]
        fn trace_event_is_48_bytes() {
            assert_eq!(std::mem::size_of::<TraceEvent>(), 48);
        }
    }

    #[test]
    fn absorb_empty_batch_is_noop() {
        let t = Trace::new();
        t.absorb(Vec::new());
        assert!(t.is_empty());
        t.record(Pid(0), SimTime(1), SimTime(2), EventKind::Compute);
        t.absorb(Vec::new());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn chrome_json_escapes_special_characters() {
        let t = Trace::new();
        t.record(Pid(0), SimTime(0), SimTime(10), EventKind::Compute);
        t.record(
            Pid(0),
            SimTime(10),
            SimTime(20),
            EventKind::Phase {
                label: r#"odd"phase\label"#.into(),
                depth: 0,
            },
        );
        // A process name with a quote, a backslash and a control char must
        // not break the JSON document.
        let json = t.to_chrome_json(&["we\"ird\\name\tproc".to_string()]);
        assert!(json.contains(r#"we\"ird\\name\tproc"#), "json: {json}");
        assert!(json.contains(r#"odd\"phase\\label"#), "json: {json}");
        // Crude structural check: every quote in the output is either a
        // delimiter or escaped, so quotes balance to an even count after
        // removing escaped ones.
        let unescaped = json.replace("\\\\", "").replace("\\\"", "");
        assert_eq!(unescaped.matches('"').count() % 2, 0);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(json_escape(r"a\b"), r"a\\b");
        assert_eq!(json_escape("a\nb\x01"), "a\\nb\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn text_render_summarizes_faults_per_process() {
        use crate::faults::FaultEvent;
        let t = Trace::new();
        t.record(Pid(0), SimTime(0), SimTime(5), EventKind::Compute);
        t.record(
            Pid(0),
            SimTime(5),
            SimTime(5),
            EventKind::Fault(Box::new(FaultEvent::MessageDropped {
                dst: Pid(1),
                bytes: 64,
                delay: SimDuration::from_nanos(700),
            })),
        );
        t.record(
            Pid(0),
            SimTime(6),
            SimTime(6),
            EventKind::Fault(Box::new(FaultEvent::LinkDegraded {
                dst_node: crate::topology::NodeId(1),
                bytes: 64,
                delay: SimDuration::from_nanos(300),
            })),
        );
        t.record(Pid(1), SimTime(2), SimTime(9), EventKind::Compute);
        let txt = t.render_text(&["faulty".into(), "clean".into()]);
        assert!(
            txt.contains("-- faults: 2 event(s), +1.000us injected delay --"),
            "text: {txt}"
        );
        // The clean process gets no summary line.
        let after_clean = txt.split("== p1 (clean) ==").nth(1).unwrap();
        assert!(!after_clean.contains("faults:"), "text: {txt}");
    }

    #[test]
    fn phase_events_sort_with_parent_after_coincident_child() {
        let t = Trace::new();
        t.record(
            Pid(0),
            SimTime(0),
            SimTime(10),
            EventKind::Phase {
                label: "outer".into(),
                depth: 0,
            },
        );
        t.record(
            Pid(0),
            SimTime(0),
            SimTime(10),
            EventKind::Phase {
                label: "outer/inner".into(),
                depth: 1,
            },
        );
        let ev = t.sorted_events();
        // Equal (start, pid, end): depth breaks the tie only when the
        // label hashes collide, but the order must at least be stable.
        assert_eq!(ev.len(), 2);
        let again = t.sorted_events();
        assert_eq!(ev, again);
    }

    #[test]
    fn text_render_groups_by_process() {
        let t = Trace::new();
        t.record(Pid(0), SimTime(0), SimTime(5), EventKind::Compute);
        t.record(Pid(1), SimTime(2), SimTime(9), EventKind::Compute);
        let txt = t.render_text(&["a".into(), "b".into()]);
        assert!(txt.contains("== p0 (a) =="));
        assert!(txt.contains("== p1 (b) =="));
    }
}
