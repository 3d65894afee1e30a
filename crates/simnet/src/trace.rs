//! Execution tracing: a per-process timeline of simulation-visible
//! operations.
//!
//! Disabled by default (zero overhead); enable with
//! [`crate::Sim::enable_tracing`] before `run`. The collected events can
//! be rendered as a text timeline or exported in the Chrome tracing
//! format (`chrome://tracing`, Perfetto) for visual inspection of, say,
//! a Spark stage's dispatch wave or an alltoall's NIC serialization.
//!
//! A traced run appends every event, from every process, to one
//! run-wide buffer in execution order, and its labels and fault events
//! to one [`TraceTables`]. [`sort_for_export`] puts that buffer into
//! the deterministic export order in place; a run capture
//! ([`crate::observe`]) keeps the sorted buffer, and a [`Trace`] keeps
//! the buffer as recorded and sorts a copy per export.

use std::fmt::Write as _;

use parking_lot::Mutex;

use crate::engine::Pid;
use crate::faults::FaultEvent;
use crate::time::{SimDuration, SimTime};

/// What a trace event describes.
///
/// `L` and `F` are how a phase label and a fault event are held. A
/// recorded event holds a [`Label`] and a [`FaultRef`] into the
/// [`TraceTables`] of its trace, so events are plain data and a trace of
/// hundreds of thousands of them is freed without visiting them;
/// [`EventKind::resolve`] looks the payloads up ([`ResolvedKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind<L = Label, F = FaultRef> {
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
    /// instant; the payload carries the virtual-time cost). Out of line:
    /// faults are rare, and inline they would make every event 24 B
    /// larger.
    Fault(F),
    /// A structured phase span opened with [`crate::ProcCtx::span_open`]:
    /// a nestable, runtime-level label ("pagerank/iter/3/shuffle",
    /// "mpi/allreduce") covering the primitive events it encloses.
    /// `depth` is the nesting level (0 = outermost) at which the span
    /// sat on its process's span stack.
    Phase {
        /// Hierarchical phase label; `/` separates levels.
        label: L,
        /// Nesting depth on the opening process's span stack.
        depth: u32,
    },
}

/// An event kind with its phase label and fault event looked up.
pub type ResolvedKind<'a> = EventKind<&'a str, &'a FaultEvent>;

impl<L, F> EventKind<L, F> {
    /// This kind with its label passed through `label` and its fault
    /// through `fault`.
    fn map<L2, F2>(
        self,
        label: impl FnOnce(L) -> L2,
        fault: impl FnOnce(F) -> F2,
    ) -> EventKind<L2, F2> {
        match self {
            EventKind::Compute => EventKind::Compute,
            EventKind::Send { dst, bytes } => EventKind::Send { dst, bytes },
            EventKind::Recv { src, bytes } => EventKind::Recv { src, bytes },
            EventKind::DiskRead { bytes } => EventKind::DiskRead { bytes },
            EventKind::DiskWrite { bytes } => EventKind::DiskWrite { bytes },
            EventKind::Nfs { bytes } => EventKind::Nfs { bytes },
            EventKind::OneSided { bytes } => EventKind::OneSided { bytes },
            EventKind::Fault(f) => EventKind::Fault(fault(f)),
            EventKind::Phase { label: l, depth } => EventKind::Phase {
                label: label(l),
                depth,
            },
        }
    }
}

impl EventKind {
    /// This kind with its out-of-line payload looked up in `tables`,
    /// the tables of the trace or capture the event came from.
    pub fn resolve<'a>(&self, tables: &'a TraceTables) -> ResolvedKind<'a> {
        self.map(|l| tables.label(l), |f| tables.fault(f))
    }
}

impl<L, F> EventKind<L, F> {
    /// Short label for rendering; `None` for a fault, whose label comes
    /// from its payload.
    fn fixed_label(&self) -> Option<&'static str> {
        Some(match self {
            EventKind::Compute => "compute",
            EventKind::Send { .. } => "send",
            EventKind::Recv { .. } => "recv",
            EventKind::DiskRead { .. } => "disk_read",
            EventKind::DiskWrite { .. } => "disk_write",
            EventKind::Nfs { .. } => "nfs",
            EventKind::OneSided { .. } => "rdma",
            EventKind::Fault(_) => return None,
            EventKind::Phase { .. } => "phase",
        })
    }
}

impl EventKind {
    /// [`ResolvedKind::label`] without resolving the kind: only a
    /// fault's label is looked up in `tables`.
    pub fn label_in(&self, tables: &TraceTables) -> &'static str {
        match self {
            EventKind::Fault(f) => tables.fault(*f).label(),
            k => k.fixed_label().unwrap_or_default(),
        }
    }
}

impl ResolvedKind<'_> {
    /// Short label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Fault(ev) => ev.label(),
            k => k.fixed_label().unwrap_or_default(),
        }
    }
}

/// Where a phase label's text sits in its [`TraceTables`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    at: u32,
    len: u32,
}

/// A fault event's index in its [`TraceTables`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRef(u32);

/// The out-of-line payloads of a batch of events: the text of their
/// phase labels and their fault events. A traced run fills one for all
/// its processes, and the [`Trace`] or [`crate::RunCapture`] that takes
/// the run's events takes these with them, so they are freed together.
#[derive(Debug, Clone, Default)]
pub struct TraceTables {
    text: String,
    faults: Vec<FaultEvent>,
}

impl TraceTables {
    /// Store a phase label; the returned [`Label`] refers to it.
    pub fn push_label(&mut self, label: &str) -> Label {
        let at = u32::try_from(self.text.len()).expect("trace label text fits in 4 GiB");
        self.text.push_str(label);
        Label {
            at,
            len: label.len() as u32,
        }
    }

    /// Store a fault event; the returned [`FaultRef`] refers to it.
    pub fn push_fault(&mut self, ev: FaultEvent) -> FaultRef {
        self.faults.push(ev);
        FaultRef(self.faults.len() as u32 - 1)
    }

    /// Store the payloads of `events`: the events that refer to them,
    /// with the tables they are stored in.
    pub fn store_all<'a>(
        events: impl IntoIterator<Item = TraceEvent<ResolvedKind<'a>>>,
    ) -> (Vec<TraceEvent>, TraceTables) {
        let mut tables = TraceTables::default();
        let events = events
            .into_iter()
            .map(|e| {
                // Label first, then fault: one closure at a time holds
                // the tables.
                let kind = e.kind.map(|l| tables.push_label(l), |f| f);
                let kind = kind.map(|l| l, |f| tables.push_fault(f.clone()));
                TraceEvent {
                    pid: e.pid,
                    start: e.start,
                    end: e.end,
                    kind,
                }
            })
            .collect();
        (events, tables)
    }

    /// The text of a label stored in these tables.
    pub fn label(&self, l: Label) -> &str {
        &self.text[l.at as usize..(l.at + l.len) as usize]
    }

    /// A fault event stored in these tables.
    pub fn fault(&self, f: FaultRef) -> &FaultEvent {
        &self.faults[f.0 as usize]
    }

    /// Append `other`, and rebase the references of `batch`, which point
    /// into `other`, to point into `self`.
    fn append(&mut self, other: TraceTables, batch: &mut [TraceEvent]) {
        let text_base = self.text.len() as u32;
        let fault_base = self.faults.len() as u32;
        for e in batch {
            match &mut e.kind {
                EventKind::Phase { label, .. } => label.at += text_base,
                EventKind::Fault(f) => f.0 += fault_base,
                _ => {}
            }
        }
        assert!(
            self.text.len() + other.text.len() <= u32::MAX as usize,
            "trace label text fits in 4 GiB"
        );
        self.text.push_str(&other.text);
        self.faults.extend(other.faults);
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
    // Names and labels rarely need escaping: copy those whole.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
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
/// three decimals: the text of `format!("{:.3}", ns as f64 / 1e3)`.
/// Write it with `write!`, or with [`Micros::push_to`], which skips the
/// formatting machinery.
pub struct Micros(pub u64);

impl Micros {
    /// The text below 2^52 ns, built in `buf`; `None` above.
    ///
    /// Below 2^52 ns the quotient's double is within half a unit of its
    /// last place, under 0.0005 µs, of the exact `ns / 1000`, so `{:.3}`
    /// prints the exact decimal: integer division gives the same text
    /// without float formatting. Above, rounding can move the third
    /// decimal, and the float path is kept.
    fn exact<'b>(&self, buf: &'b mut [u8; 24]) -> Option<&'b str> {
        if self.0 >= 1 << 52 {
            return None;
        }
        let frac = self.0 % 1000;
        buf[20] = b'.';
        buf[21] = b'0' + (frac / 100) as u8;
        buf[22] = b'0' + (frac / 10 % 10) as u8;
        buf[23] = b'0' + (frac % 10) as u8;
        let at = decimal_tail(self.0 / 1000, &mut buf[..20]);
        std::str::from_utf8(&buf[at..]).ok()
    }

    /// Append the text to `out`.
    pub fn push_to(&self, out: &mut String) {
        match self.exact(&mut [0; 24]) {
            Some(text) => out.push_str(text),
            None => {
                let _ = write!(out, "{:.3}", self.0 as f64 / 1e3);
            }
        }
    }
}

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.exact(&mut [0; 24]) {
            Some(text) => f.write_str(text),
            None => write!(f, "{:.3}", self.0 as f64 / 1e3),
        }
    }
}

/// Write `v` in decimal at the end of `buf` and return where it starts.
fn decimal_tail(mut v: u64, buf: &mut [u8]) -> usize {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return at;
        }
    }
}

/// Append `v` in decimal to `out`, as `write!(out, "{v}")` would,
/// without the formatting machinery.
pub fn push_decimal(out: &mut String, v: u64) {
    let mut buf = [0; 20];
    let at = decimal_tail(v, &mut buf);
    out.push_str(std::str::from_utf8(&buf[at..]).unwrap_or_default());
}

/// One timeline span. `K` is [`EventKind`] for a recorded event and
/// [`ResolvedKind`] for one whose payload was looked up
/// ([`TraceEvent::resolve`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent<K = EventKind> {
    /// The process the span belongs to.
    pub pid: Pid,
    /// Span start (virtual time).
    pub start: SimTime,
    /// Span end (virtual time).
    pub end: SimTime,
    /// What happened.
    pub kind: K,
}

impl TraceEvent {
    /// This event with its payload looked up in `tables` (see
    /// [`EventKind::resolve`]). Two events from different traces are
    /// equal when their resolved forms are.
    pub fn resolve<'a>(&self, tables: &'a TraceTables) -> TraceEvent<ResolvedKind<'a>> {
        TraceEvent {
            pid: self.pid,
            start: self.start,
            end: self.end,
            kind: self.kind.resolve(tables),
        }
    }
}

/// Put `events`, whose payloads live in `tables`, into the
/// deterministic export order, in place.
///
/// Events arrive in execution order, which is not the export order, so
/// the export order must come entirely from the sort key. The key
/// `(start, pid, end, kind)` is a total order up to fully identical
/// (hence interchangeable) events, making trace exports bit-identical
/// across runs, and equal to a stable sort by that key.
///
/// The events are sorted where they lie, with no key array and no
/// second event buffer. One counting pass buckets them by start time
/// into about one bucket per 128 events (buckets are ranges of start
/// times, in order); the events are then swapped into their buckets
/// along the cycles of that permutation, and each bucket, small enough
/// to stay in cache, is sorted by the full key. Comparing
/// `(start, pid, end)` decides almost every pair; only a tie builds the
/// kind's key, which hashes a phase label or fault event.
pub fn sort_for_export(events: &mut [TraceEvent], tables: &TraceTables) {
    fn kind_key(k: EventKind, tables: &TraceTables) -> (u8, u64, u32) {
        match k {
            EventKind::Compute => (0, 0, 0),
            EventKind::Send { dst, bytes } => (1, bytes, dst.0),
            EventKind::Recv { src, bytes } => (2, bytes, src.0),
            EventKind::DiskRead { bytes } => (3, bytes, 0),
            EventKind::DiskWrite { bytes } => (4, bytes, 0),
            EventKind::Nfs { bytes } => (5, bytes, 0),
            EventKind::OneSided { bytes } => (6, bytes, 0),
            // Distinct fault events must sort apart; identical ones are
            // interchangeable, so a content hash is a valid key.
            EventKind::Fault(f) => (7, crate::hash::det_hash(tables.fault(f)), 0),
            // Same argument for phases: the label hash separates distinct
            // spans, `depth` orders a parent after the child it exactly
            // coincides with.
            EventKind::Phase { label, depth } => {
                (8, crate::hash::det_hash(tables.label(label)), depth)
            }
        }
    }
    let sort = |events: &mut [TraceEvent]| {
        events.sort_unstable_by(|a, b| {
            (a.start, a.pid, a.end)
                .cmp(&(b.start, b.pid, b.end))
                .then_with(|| kind_key(a.kind, tables).cmp(&kind_key(b.kind, tables)))
        })
    };
    let (lo, hi) = events.iter().fold((u64::MAX, 0), |(lo, hi), e| {
        (lo.min(e.start.nanos()), hi.max(e.start.nanos()))
    });
    let span = hi.saturating_sub(lo);
    // The fewest bits that spread the start times over the buckets.
    let buckets = (events.len() / 128).next_power_of_two();
    let shift = (u64::BITS - span.leading_zeros()).saturating_sub(buckets.trailing_zeros());
    // A 64-bit span over a single bucket shifts by 64: every event in
    // bucket 0.
    let bucket = |e: &TraceEvent| (e.start.nanos() - lo).checked_shr(shift).unwrap_or(0) as usize;
    let mut ends = vec![0usize; buckets + 1];
    for e in events.iter() {
        ends[bucket(e) + 1] += 1;
    }
    for b in 0..buckets {
        ends[b + 1] += ends[b];
    }
    // `next[b]` is the first position of bucket `b` not yet holding one
    // of its own events.
    let mut next = ends.clone();
    for b in 0..buckets {
        while next[b] < ends[b + 1] {
            let mut e = events[next[b]];
            loop {
                let t = bucket(&e);
                if t == b {
                    break;
                }
                std::mem::swap(&mut e, &mut events[next[t]]);
                next[t] += 1;
            }
            events[next[b]] = e;
            next[b] += 1;
        }
        sort(&mut events[ends[b]..ends[b + 1]]);
    }
}

/// Collected events and the tables their payloads live in.
#[derive(Default)]
pub struct Trace {
    inner: Mutex<(Vec<TraceEvent>, TraceTables)>,
}

impl Trace {
    /// Fresh empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Record one span, storing its payload in the trace's tables.
    pub fn record(&self, pid: Pid, start: SimTime, end: SimTime, kind: ResolvedKind<'_>) {
        let (batch, tables) = TraceTables::store_all([TraceEvent {
            pid,
            start,
            end,
            kind,
        }]);
        self.absorb(batch, tables);
    }

    /// Append a batch of events with the tables its payloads were stored
    /// in. Into an empty trace the batch and its tables move as they
    /// are; otherwise the batch's payload references are rebased onto
    /// the trace's tables.
    ///
    /// Because the export order is recovered entirely by the sort in
    /// [`Trace::sorted_events`], the order in which batches are appended
    /// is irrelevant: the export is byte-identical to recording every
    /// event one by one.
    pub fn absorb(&self, mut batch: Vec<TraceEvent>, batch_tables: TraceTables) {
        let (events, tables) = &mut *self.inner.lock();
        if events.is_empty() && tables.text.is_empty() && tables.faults.is_empty() {
            *events = batch;
            *tables = batch_tables;
        } else {
            tables.append(batch_tables, &mut batch);
            events.append(&mut batch);
        }
    }

    /// A copy of the tables the events' payloads live in, to resolve
    /// the events [`Trace::sorted_events`] returns.
    pub fn tables(&self) -> TraceTables {
        self.inner.lock().1.clone()
    }

    /// A copy of the events in the deterministic export order
    /// ([`sort_for_export`]). Their payloads live in [`Trace::tables`].
    pub fn sorted_events(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock();
        let (events, tables) = &*inner;
        let mut sorted = events.clone();
        sort_for_export(&mut sorted, tables);
        sorted
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.lock().0.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().0.is_empty()
    }

    /// Chrome tracing format (a JSON array of complete events, `ph: "X"`)
    /// loadable in `chrome://tracing` or Perfetto. Timestamps in
    /// microseconds, one row per process.
    pub fn to_chrome_json(&self, proc_names: &[String]) -> String {
        let tables = self.tables();
        let mut out = String::from("[\n");
        for (i, e) in self.sorted_events().iter().enumerate() {
            let kind = e.kind.resolve(&tables);
            if i > 0 {
                out.push_str(",\n");
            }
            let name = proc_names
                .get(e.pid.index())
                .map(|s| s.as_str())
                .unwrap_or("?");
            // Phase spans display under their own label so nested runtime
            // phases read as a flame graph above the primitive ops.
            let display: &str = match kind {
                EventKind::Phase { label, .. } => label,
                _ => kind.label(),
            };
            out.push_str("  {\"name\": \"");
            json_escape_into(&mut out, display);
            let _ = write!(
                out,
                "\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": {}, \"args\": {{\"proc\": \"",
                kind.label(),
                Micros(e.start.nanos()),
                Micros(e.end.nanos().saturating_sub(e.start.nanos())),
                e.pid.0,
            );
            json_escape_into(&mut out, name);
            out.push_str("\", \"detail\": \"");
            // Only a fault's `Debug` form can hold characters that need
            // escaping; every other detail is digits, letters and spaces.
            let _ = match kind {
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
        let tables = self.tables();
        let mut out = String::new();
        let mut events = self.sorted_events();
        events.sort_by_key(|e| (e.pid, e.start));
        let mut current: Option<Pid> = None;
        let mut fault_count = 0u64;
        let mut fault_delay = SimDuration::ZERO;
        for e in events {
            let kind = e.kind.resolve(&tables);
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
            if let EventKind::Fault(ev) = kind {
                fault_count += 1;
                fault_delay += ev.injected_delay();
            }
            out.push_str(&format!(
                "  [{} .. {}] {} {:?}\n",
                e.start,
                e.end,
                kind.label(),
                kind
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

    /// Appending whole per-process batches, in any order, exports the
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
                    global.record(e.pid, e.start, e.end, e.kind.resolve(&TraceTables::default()));
                }

                // Candidate: split into per-process buffers (preserving
                // each process's own order, as the engine does), then
                // absorb the buffers in a seed-rotated process order to
                // model nondeterministic process-finish order.
                let buffered = Trace::new();
                let npids = 6;
                let mut bufs: Vec<Vec<TraceEvent>> = vec![Vec::new(); npids];
                for e in &events {
                    bufs[e.pid.index()].push(*e);
                }
                for i in 0..npids {
                    let p = (i + absorb_order_seed as usize) % npids;
                    buffered.absorb(std::mem::take(&mut bufs[p]), TraceTables::default());
                }

                prop_assert_eq!(global.len(), buffered.len());
                prop_assert_eq!(global.sorted_events(), buffered.sorted_events());
            }
        }
    }

    /// The in-place bucketed sort against a single stable sort by the
    /// export key, on collision-heavy inputs with every event kind.
    mod sort_oracle {
        use super::*;
        use crate::faults::FaultEvent;
        use crate::topology::NodeId;
        use proptest::prelude::*;
        use proptest::test_runner::TestRng;
        use std::sync::LazyLock;

        /// An event with its payload looked up.
        type Resolved = TraceEvent<ResolvedKind<'static>>;

        /// The reference: a stable sort by `(start, pid, end, kind)`.
        fn oracle_sorted(appended: &[Resolved]) -> Vec<Resolved> {
            fn kind_key(k: &ResolvedKind<'_>) -> (u8, u64, u32) {
                match *k {
                    EventKind::Compute => (0, 0, 0),
                    EventKind::Send { dst, bytes } => (1, bytes, dst.0),
                    EventKind::Recv { src, bytes } => (2, bytes, src.0),
                    EventKind::DiskRead { bytes } => (3, bytes, 0),
                    EventKind::DiskWrite { bytes } => (4, bytes, 0),
                    EventKind::Nfs { bytes } => (5, bytes, 0),
                    EventKind::OneSided { bytes } => (6, bytes, 0),
                    EventKind::Fault(ref ev) => (7, crate::hash::det_hash(ev), 0),
                    EventKind::Phase { label, depth } => (8, crate::hash::det_hash(label), depth),
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

        /// The fault events `event` picks from: a crash of node `x`, then
        /// a restart with detail `x`, for `x` in 0..4.
        static FAULTS: LazyLock<Vec<FaultEvent>> = LazyLock::new(|| {
            let crash = |x| FaultEvent::NodeCrash { node: NodeId(x) };
            let restart = |detail| FaultEvent::Recovery {
                runtime: "mpi",
                action: "restart",
                detail,
            };
            (0..4).map(crash).chain((0..4).map(restart)).collect()
        });

        fn event((pid, start, len, sel, x): Spec) -> Resolved {
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
                7 => EventKind::Fault(&FAULTS[x as usize]),
                8 => EventKind::Fault(&FAULTS[4 + x as usize]),
                // The same two labels at depths 0..3.
                _ => EventKind::Phase {
                    label: ["job", "job/stage"][x as usize % 2],
                    depth: (sel - 9) as u32,
                },
            };
            TraceEvent {
                pid: Pid(pid),
                start: SimTime(start),
                end: SimTime(start.saturating_add(len)),
                kind,
            }
        }

        fn case() -> impl Strategy<Value = (Vec<Spec>, u64)> {
            (
                collection::vec((0u32..4, 0u64..6, 0u64..3, 0u8..12, 0u64..4), 1..160),
                any::<u64>(),
            )
        }

        /// Split the events into per-process buffers with their own
        /// tables, absorb them in an order shuffled by `seed`, and return
        /// the trace together with its append order.
        fn absorbed((specs, seed): &(Vec<Spec>, u64)) -> (Trace, Vec<Resolved>) {
            let mut bufs: Vec<Vec<Resolved>> = vec![Vec::new(); 4];
            for &s in specs {
                bufs[s.0 as usize].push(event(s));
            }
            let mut rng = TestRng::new(*seed);
            for i in (1..bufs.len()).rev() {
                bufs.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let t = Trace::new();
            for b in &bufs {
                let (batch, tables) = TraceTables::store_all(b.iter().copied());
                t.absorb(batch, tables);
            }
            (t, bufs.concat())
        }

        fn agrees(sort: fn(&Trace) -> Vec<TraceEvent>, case: &(Vec<Spec>, u64)) -> bool {
            let (t, appended) = absorbed(case);
            let tables = t.tables();
            let sorted: Vec<_> = sort(&t).iter().map(|e| e.resolve(&tables)).collect();
            sorted == oracle_sorted(&appended)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn export_sort_equals_the_stable_sort(c in case()) {
                prop_assert!(agrees(Trace::sorted_events, &c));
            }

            /// Start times over the whole `u64` range (a random value
            /// shifted right by 0 to 63 bits) and up to 1,500 events:
            /// buckets cover wide ranges of start times, and many
            /// events share one.
            #[test]
            fn export_sort_equals_the_stable_sort_on_spread_times(
                specs in collection::vec(
                    (0u32..4, (any::<u64>(), 0u32..64), 0u64..3, 0u8..12, 0u64..4), 1..1500),
                seed in any::<u64>(),
            ) {
                let specs: Vec<Spec> = specs
                    .iter()
                    .map(|&(pid, (x, shift), len, sel, v)| (pid, x >> shift, len, sel, v))
                    .collect();
                prop_assert!(agrees(Trace::sorted_events, &(specs, seed)));
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
        fn oracle_chrome_json(sorted: &[Resolved], proc_names: &[String]) -> String {
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
                let mut v = t.inner.lock().0.clone();
                v.sort_unstable_by_key(|e| (e.start, e.pid));
                v
            }
            let mut rng = TestRng::new(0x5eed);
            let caught = (0..64).filter(|_| !agrees(mutant, &case().generate(&mut rng)));
            assert!(caught.count() > 32, "the oracle must reject the mutant");
        }

        #[test]
        fn trace_event_is_40_bytes() {
            assert_eq!(std::mem::size_of::<TraceEvent>(), 40);
        }
    }

    #[test]
    fn absorb_empty_batch_is_noop() {
        let t = Trace::new();
        t.absorb(Vec::new(), TraceTables::default());
        assert!(t.is_empty());
        t.record(Pid(0), SimTime(1), SimTime(2), EventKind::Compute);
        t.absorb(Vec::new(), TraceTables::default());
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
                label: r#"odd"phase\label"#,
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

    /// `Micros` against the float formatting it stands for, at the edges
    /// of its integer path and on the float path above it.
    #[test]
    fn micros_matches_float_formatting() {
        for ns in [
            0,
            1,
            999,
            1000,
            1001,
            (1 << 52) - 1,
            1 << 52,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            8_897_624_003_498_442,
            u64::MAX,
        ] {
            let float = format!("{:.3}", ns as f64 / 1e3);
            assert_eq!(Micros(ns).to_string(), float, "ns = {ns}");
            let mut pushed = String::from("x");
            Micros(ns).push_to(&mut pushed);
            assert_eq!(pushed, format!("x{float}"), "ns = {ns}");
        }
    }

    #[test]
    fn push_decimal_matches_display() {
        for v in [0, 7, 10, 999, 1000, u32::MAX as u64, u64::MAX] {
            let mut out = String::new();
            push_decimal(&mut out, v);
            assert_eq!(out, v.to_string());
        }
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
            EventKind::Fault(&FaultEvent::MessageDropped {
                dst: Pid(1),
                bytes: 64,
                delay: SimDuration::from_nanos(700),
            }),
        );
        t.record(
            Pid(0),
            SimTime(6),
            SimTime(6),
            EventKind::Fault(&FaultEvent::LinkDegraded {
                dst_node: crate::topology::NodeId(1),
                bytes: 64,
                delay: SimDuration::from_nanos(300),
            }),
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
                label: "outer",
                depth: 0,
            },
        );
        t.record(
            Pid(0),
            SimTime(0),
            SimTime(10),
            EventKind::Phase {
                label: "outer/inner",
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
