//! Live virtual-time telemetry: a lock-sharded metrics registry, a
//! virtual-time sampler producing windowed time-series, quantile views
//! and threshold-based SLO monitors.
//!
//! The paper's figures — and everything else in this crate — are
//! end-of-run aggregates. A cluster operator instead watches *series*:
//! queue depth over time, per-node device utilization, tail latency per
//! window, SLO attainment. This module builds those series for a
//! captured run, from two inputs:
//!
//! 1. **Explicit metric points** recorded by runtime code through
//!    `ProcCtx::metric_counter` / `metric_gauge` / `metric_observe`
//!    (e.g. checkpoint drain-watermark lag). These arrive in
//!    [`RunCapture::metric_points`] already sorted into the canonical
//!    `(time, name, labels, pid, seq)` order.
//! 2. **Derived series** computed here from the deterministic event
//!    stream: engine runnable count / in-flight compute frontier /
//!    park-wake rates (from process lifecycle and `Recv`/`Compute`
//!    spans), per-node and cluster-wide disk / NFS / NIC busy time
//!    (from device spans), and per-phase task-latency histograms
//!    (from `Phase` spans — the existing `span_close` hook, no new
//!    runtime API).
//!
//! ## Determinism rule (DESIGN.md §14)
//!
//! Live engine state (how deep the ready queue actually was at a wall
//! instant) depends on the host, so it can never be sampled directly
//! without breaking the byte-identity contract. Every series here is
//! instead a pure function of virtual-time state: the sorted event
//! stream and the sorted metric points, both of which are already
//! bit-identical from run to run. Telemetry therefore serializes
//! byte-identically, and is excluded from conformance digests.
//!
//! ## Sampler tick semantics
//!
//! Virtual time is split into windows of `interval_ns`; window `w`
//! covers `[w·iv, (w+1)·iv)`, so an update landing exactly on a tick
//! belongs to the window *starting* there. Series are sparse: a window
//! with no activity emits no point (cost is O(updates), not
//! O(windows)). If the requested interval would produce more than
//! [`MAX_WINDOWS`] windows, the sampler coarsens it to the smallest
//! *multiple* of the request that fits — boundaries stay aligned with
//! the requested grid and the result is still deterministic; the
//! requested value is preserved in the report.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use hpcbd_simnet::observe::RunCapture;
use hpcbd_simnet::{EventKind, MetricOp, MetricPoint};

use crate::json::JsonValue;
use crate::report::normalize_label;

/// Upper bound on the number of sampling windows; a tinier requested
/// interval is coarsened (see module docs) so a long-makespan run with
/// `HPCBD_TELEMETRY=1` cannot allocate per-nanosecond series.
pub const MAX_WINDOWS: u64 = 1 << 16;

/// How many [`SloBreach`] records one monitor keeps (the total breach
/// count is always exact; only the per-window detail is capped).
pub const SLO_BREACH_CAP: usize = 32;

/// Number of registry shards. Sharding bounds contention when many
/// threads record concurrently; the sampled output is sorted by
/// `(name, labels)` so the shard layout never shows through.
const SHARDS: usize = 16;

/// What a time-series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone saturating counter; points are `[t, delta, cumulative]`.
    Counter,
    /// Instantaneous value; points are `[t, value]` (carry-forward
    /// between points).
    Gauge,
    /// Fixed-bucket histogram; points are
    /// `[t, count, p50, p99, p999]` over the window's observations.
    Histogram,
}

impl MetricKind {
    /// Stable name used in the JSON encoding.
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A fixed 65-bucket power-of-two histogram with rank-based quantiles:
/// bucket 0 holds zeros, bucket `k > 0` holds `[2^(k-1), 2^k)`.
/// Mirrors [`crate::report::Histogram`] but exposes quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist64 {
    counts: [u64; 65],
    total: u64,
}

impl Default for Hist64 {
    fn default() -> Hist64 {
        Hist64 {
            counts: [0; 65],
            total: 0,
        }
    }
}

impl Hist64 {
    /// Count one observation.
    pub fn add(&mut self, v: u64) {
        let bucket = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.counts[bucket] += 1;
        self.total = self.total.saturating_add(1);
    }

    /// Number of observations counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `qn/qd` quantile as the inclusive upper bound of the bucket
    /// containing rank `ceil(total · qn / qd)` (rank at least 1). An
    /// empty histogram reports 0 — callers emit no point for empty
    /// windows, so the 0 only ever shows up for whole-run summaries of
    /// series that recorded nothing.
    pub fn quantile(&self, qn: u64, qd: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = self.total.saturating_mul(qn).div_ceil(qd);
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return match k {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << k) - 1,
                };
            }
        }
        u64::MAX
    }

    /// p50 / p99 / p999 in one call.
    pub fn p50_p99_p999(&self) -> (u64, u64, u64) {
        (
            self.quantile(1, 2),
            self.quantile(99, 100),
            self.quantile(999, 1000),
        )
    }
}

/// Raw updates for one `(name, labels)` series before sampling.
/// Counter updates carry deltas, gauge updates values, histogram
/// updates observations.
#[derive(Debug)]
struct RawSeries {
    kind: MetricKind,
    updates: Vec<(u64, u64)>,
}

/// `(metric name, canonical label string)` — the registry key.
type SeriesKey = (Arc<str>, Arc<str>);
type Shard = BTreeMap<SeriesKey, RawSeries>;

/// The lock-sharded registry: updates hash to one of `SHARDS` (16) shards
/// by `(name, labels)`, so concurrent recorders on different metrics
/// rarely contend. [`Registry::sample`] drains every shard and sorts by
/// `(name, labels)`, so shard assignment never affects output.
#[derive(Debug)]
pub struct Registry {
    shards: Vec<Mutex<Shard>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
        }
    }

    fn shard(&self, name: &str, labels: &str) -> &Mutex<Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        labels.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn update(
        &self,
        name: impl Into<Arc<str>>,
        labels: impl Into<Arc<str>>,
        kind: MetricKind,
        t_ns: u64,
        v: u64,
    ) {
        let name = name.into();
        let labels = labels.into();
        let mut shard = self.shard(&name, &labels).lock().unwrap();
        let series = shard.entry((name, labels)).or_insert_with(|| RawSeries {
            kind,
            updates: Vec::new(),
        });
        // First registration wins the kind; a mismatched later update is
        // dropped rather than corrupting the series (mixing kinds under
        // one name is a caller bug, not a reason to poison the report).
        if series.kind == kind {
            series.updates.push((t_ns, v));
        }
    }

    /// Add `delta` to the counter series `(name, labels)` at virtual
    /// time `t_ns`. Counters saturate instead of wrapping.
    pub fn counter_add(
        &self,
        name: impl Into<Arc<str>>,
        labels: impl Into<Arc<str>>,
        t_ns: u64,
        delta: u64,
    ) {
        self.update(name, labels, MetricKind::Counter, t_ns, delta);
    }

    /// Set the gauge series `(name, labels)` to `value` at `t_ns`.
    pub fn gauge_set(
        &self,
        name: impl Into<Arc<str>>,
        labels: impl Into<Arc<str>>,
        t_ns: u64,
        value: u64,
    ) {
        self.update(name, labels, MetricKind::Gauge, t_ns, value);
    }

    /// Record one histogram observation into `(name, labels)` at `t_ns`.
    pub fn observe(
        &self,
        name: impl Into<Arc<str>>,
        labels: impl Into<Arc<str>>,
        t_ns: u64,
        value: u64,
    ) {
        self.update(name, labels, MetricKind::Histogram, t_ns, value);
    }

    /// Apply one explicit [`MetricPoint`] recorded by a process.
    pub fn record(&self, p: &MetricPoint) {
        let t = p.time.nanos();
        match p.op {
            MetricOp::CounterAdd(v) => self.counter_add(p.name.clone(), p.labels.clone(), t, v),
            MetricOp::GaugeSet(v) => self.gauge_set(p.name.clone(), p.labels.clone(), t, v),
            MetricOp::Observe(v) => self.observe(p.name.clone(), p.labels.clone(), t, v),
        }
    }

    /// Drain the registry into sampled time-series, quantile summaries
    /// and SLO outcomes. `interval_ns` must already be effective (see
    /// [`effective_interval`]); zero is treated as 1.
    pub fn sample(self, interval_ns: u64, makespan_ns: u64) -> Telemetry {
        let iv = interval_ns.max(1);
        let windows = makespan_ns / iv + 1;
        let mut all: Vec<(SeriesKey, RawSeries)> = Vec::new();
        for shard in &self.shards {
            let mut s = shard.lock().unwrap();
            all.extend(std::mem::take(&mut *s));
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));

        let mut series = Vec::with_capacity(all.len());
        let mut quantiles = Vec::new();
        let mut slo = Vec::new();
        for ((name, labels), mut raw) in all {
            // Stable: preserves the canonical (name, labels, pid, seq)
            // tie-break order the caller fed same-time updates in.
            raw.updates.sort_by_key(|&(t, _)| t);
            let points = match raw.kind {
                MetricKind::Counter => {
                    let mut pts: Vec<[u64; 3]> = Vec::new();
                    let mut cum = 0u64;
                    for &(t, delta) in &raw.updates {
                        let w = (t / iv) * iv;
                        cum = cum.saturating_add(delta);
                        match pts.last_mut() {
                            Some(last) if last[0] == w => {
                                last[1] = last[1].saturating_add(delta);
                                last[2] = cum;
                            }
                            _ => pts.push([w, delta, cum]),
                        }
                    }
                    Points::Counter(pts)
                }
                MetricKind::Gauge => {
                    let mut pts: Vec<[u64; 2]> = Vec::new();
                    for &(t, value) in &raw.updates {
                        let w = (t / iv) * iv;
                        match pts.last_mut() {
                            Some(last) if last[0] == w => last[1] = value,
                            _ => pts.push([w, value]),
                        }
                    }
                    Points::Gauge(pts)
                }
                MetricKind::Histogram => {
                    let mut pts: Vec<[u64; 5]> = Vec::new();
                    let mut whole = Hist64::default();
                    let mut win = Hist64::default();
                    let mut win_start: Option<u64> = None;
                    let flush = |win: &mut Hist64, start: Option<u64>, pts: &mut Vec<[u64; 5]>| {
                        if let Some(s) = start {
                            if win.total() > 0 {
                                let (p50, p99, p999) = win.p50_p99_p999();
                                pts.push([s, win.total(), p50, p99, p999]);
                            }
                        }
                        *win = Hist64::default();
                    };
                    for &(t, value) in &raw.updates {
                        let w = (t / iv) * iv;
                        if win_start != Some(w) {
                            flush(&mut win, win_start, &mut pts);
                            win_start = Some(w);
                        }
                        win.add(value);
                        whole.add(value);
                    }
                    flush(&mut win, win_start, &mut pts);

                    let (p50, p99, p999) = whole.p50_p99_p999();
                    quantiles.push(QuantileSummary {
                        name: name.clone(),
                        labels: labels.clone(),
                        count: whole.total(),
                        p50,
                        p99,
                        p999,
                    });
                    // Default SLO monitor: windowed p99 must stay within
                    // 4× the whole-run p50 (floor 1 so an all-zero
                    // series still has a meaningful threshold).
                    let monitor = SloMonitor {
                        metric: name.clone(),
                        labels: labels.clone(),
                        threshold: (p50.saturating_mul(4)).max(1),
                    };
                    slo.push(evaluate_slo(monitor, &pts));
                    Points::Histogram(pts)
                }
            };
            series.push(TimeSeries {
                name,
                labels,
                kind: raw.kind,
                points,
            });
        }
        Telemetry {
            interval_ns: iv,
            requested_interval_ns: iv,
            windows,
            series,
            quantiles,
            slo,
            host_profile: None,
        }
    }
}

/// Coarsen a requested sampling interval so `makespan / interval`
/// stays within [`MAX_WINDOWS`]: the result is the smallest *multiple*
/// of the request that fits (boundaries stay aligned with the
/// requested grid). Idempotent.
pub fn effective_interval(requested_ns: u64, makespan_ns: u64) -> u64 {
    let iv = requested_ns.max(1);
    let windows = makespan_ns / iv + 1;
    if windows <= MAX_WINDOWS {
        return iv;
    }
    let factor = windows.div_ceil(MAX_WINDOWS);
    iv.saturating_mul(factor)
}

/// Sampled points of one series, laid out per [`MetricKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Points {
    /// `[window_start_ns, delta, cumulative]` per active window.
    Counter(Vec<[u64; 3]>),
    /// `[window_start_ns, last_value]` per active window.
    Gauge(Vec<[u64; 2]>),
    /// `[window_start_ns, count, p50, p99, p999]` per active window.
    Histogram(Vec<[u64; 5]>),
}

impl Points {
    /// Number of sampled (active-window) points.
    pub fn len(&self) -> usize {
        match self {
            Points::Counter(v) => v.len(),
            Points::Gauge(v) => v.len(),
            Points::Histogram(v) => v.len(),
        }
    }

    /// Whether no window was active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One sampled time-series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    /// Metric name (e.g. `cluster.disk_busy_ns`).
    pub name: Arc<str>,
    /// Canonical label string (`key=value`, comma-separated, or empty).
    pub labels: Arc<str>,
    /// What the series measures.
    pub kind: MetricKind,
    /// Sparse per-window points.
    pub points: Points,
}

/// Whole-run quantiles for one histogram series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSummary {
    /// Metric name.
    pub name: Arc<str>,
    /// Label string.
    pub labels: Arc<str>,
    /// Observations over the whole run.
    pub count: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// A threshold monitor over one histogram series' windowed p99.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloMonitor {
    /// Monitored metric name.
    pub metric: Arc<str>,
    /// Label string.
    pub labels: Arc<str>,
    /// Windowed p99 above this value is a breach.
    pub threshold: u64,
}

/// One window whose p99 exceeded the monitor's threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloBreach {
    /// Window index (`t_ns / interval_ns`).
    pub window: u64,
    /// Window start, virtual ns.
    pub t_ns: u64,
    /// The offending windowed p99.
    pub observed_p99: u64,
    /// The monitor threshold at evaluation time.
    pub threshold: u64,
}

/// Evaluation result of one [`SloMonitor`] over a sampled series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloOutcome {
    /// The monitor that produced this outcome.
    pub monitor: SloMonitor,
    /// Windows that had at least one observation.
    pub windows_evaluated: u64,
    /// Windows whose p99 exceeded the threshold (exact, even when the
    /// breach detail list is capped).
    pub windows_breached: u64,
    /// `(evaluated − breached) · 1e6 / evaluated`; 1 000 000 when no
    /// window had samples.
    pub attainment_ppm: u64,
    /// Per-breach detail, capped at [`SLO_BREACH_CAP`].
    pub breaches: Vec<SloBreach>,
}

fn evaluate_slo(monitor: SloMonitor, hist_points: &[[u64; 5]]) -> SloOutcome {
    let mut breached = 0u64;
    let mut breaches = Vec::new();
    for p in hist_points {
        let [t, _count, _p50, p99, _p999] = *p;
        if p99 > monitor.threshold {
            breached += 1;
            if breaches.len() < SLO_BREACH_CAP {
                breaches.push(SloBreach {
                    window: 0, // fixed up below once we know the interval
                    t_ns: t,
                    observed_p99: p99,
                    threshold: monitor.threshold,
                });
            }
        }
    }
    let evaluated = hist_points.len() as u64;
    let attainment_ppm = (evaluated - breached)
        .saturating_mul(1_000_000)
        .checked_div(evaluated)
        .unwrap_or(1_000_000);
    SloOutcome {
        monitor,
        windows_evaluated: evaluated,
        windows_breached: breached,
        attainment_ppm,
        breaches,
    }
}

/// The full sampled telemetry of one run: the report's optional
/// `telemetry` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Telemetry {
    /// Effective sampling interval (after coarsening).
    pub interval_ns: u64,
    /// The interval that was asked for (differs from `interval_ns`
    /// only when coarsened; see [`effective_interval`]).
    pub requested_interval_ns: u64,
    /// Number of window slots spanned by `[0, makespan]`.
    pub windows: u64,
    /// Sampled series, sorted by `(name, labels)`.
    pub series: Vec<TimeSeries>,
    /// Whole-run quantiles, one per histogram series.
    pub quantiles: Vec<QuantileSummary>,
    /// SLO outcomes, one per default monitor.
    pub slo: Vec<SloOutcome>,
    /// Host self-profiler rows (`(name, count)`), present only when
    /// `HPCBD_SELFPROF` is on. Wall-clock-dependent by design — never
    /// part of run-to-run comparisons (see [`hpcbd_simnet::selfprof`]).
    pub host_profile: Option<Vec<(String, u64)>>,
}

impl Telemetry {
    /// Encode as the report's `telemetry` JSON object. Deterministic:
    /// fixed key order, integers only, series pre-sorted.
    pub fn to_json_value(&self) -> JsonValue {
        let series = JsonValue::Arr(
            self.series
                .iter()
                .map(|s| {
                    let points = match &s.points {
                        Points::Counter(v) => JsonValue::Arr(
                            v.iter()
                                .map(|p| {
                                    JsonValue::Arr(p.iter().map(|&x| JsonValue::u64(x)).collect())
                                })
                                .collect(),
                        ),
                        Points::Gauge(v) => JsonValue::Arr(
                            v.iter()
                                .map(|p| {
                                    JsonValue::Arr(p.iter().map(|&x| JsonValue::u64(x)).collect())
                                })
                                .collect(),
                        ),
                        Points::Histogram(v) => JsonValue::Arr(
                            v.iter()
                                .map(|p| {
                                    JsonValue::Arr(p.iter().map(|&x| JsonValue::u64(x)).collect())
                                })
                                .collect(),
                        ),
                    };
                    JsonValue::Obj(vec![
                        ("name".into(), JsonValue::str(s.name.as_ref())),
                        ("labels".into(), JsonValue::str(s.labels.as_ref())),
                        ("kind".into(), JsonValue::str(s.kind.name())),
                        ("points".into(), points),
                    ])
                })
                .collect(),
        );
        let quantiles = JsonValue::Arr(
            self.quantiles
                .iter()
                .map(|q| {
                    JsonValue::Obj(vec![
                        ("name".into(), JsonValue::str(q.name.as_ref())),
                        ("labels".into(), JsonValue::str(q.labels.as_ref())),
                        ("count".into(), JsonValue::u64(q.count)),
                        ("p50".into(), JsonValue::u64(q.p50)),
                        ("p99".into(), JsonValue::u64(q.p99)),
                        ("p999".into(), JsonValue::u64(q.p999)),
                    ])
                })
                .collect(),
        );
        let slo = JsonValue::Arr(
            self.slo
                .iter()
                .map(|o| {
                    let breaches = JsonValue::Arr(
                        o.breaches
                            .iter()
                            .map(|b| {
                                JsonValue::Obj(vec![
                                    ("window".into(), JsonValue::u64(b.window)),
                                    ("t_ns".into(), JsonValue::u64(b.t_ns)),
                                    ("observed_p99".into(), JsonValue::u64(b.observed_p99)),
                                    ("threshold".into(), JsonValue::u64(b.threshold)),
                                ])
                            })
                            .collect(),
                    );
                    JsonValue::Obj(vec![
                        ("metric".into(), JsonValue::str(o.monitor.metric.as_ref())),
                        ("labels".into(), JsonValue::str(o.monitor.labels.as_ref())),
                        ("threshold".into(), JsonValue::u64(o.monitor.threshold)),
                        (
                            "windows_evaluated".into(),
                            JsonValue::u64(o.windows_evaluated),
                        ),
                        (
                            "windows_breached".into(),
                            JsonValue::u64(o.windows_breached),
                        ),
                        ("attainment_ppm".into(), JsonValue::u64(o.attainment_ppm)),
                        ("breaches".into(), breaches),
                    ])
                })
                .collect(),
        );
        let mut kvs = vec![("interval_ns".into(), JsonValue::u64(self.interval_ns))];
        if self.requested_interval_ns != self.interval_ns {
            kvs.push((
                "requested_interval_ns".into(),
                JsonValue::u64(self.requested_interval_ns),
            ));
        }
        kvs.push(("windows".into(), JsonValue::u64(self.windows)));
        kvs.push(("series".into(), series));
        kvs.push(("quantiles".into(), quantiles));
        kvs.push(("slo".into(), slo));
        if let Some(hp) = &self.host_profile {
            kvs.push((
                "host_profile".into(),
                JsonValue::Obj(
                    hp.iter()
                        .map(|(name, v)| (name.clone(), JsonValue::u64(*v)))
                        .collect(),
                ),
            ));
        }
        JsonValue::Obj(kvs)
    }
}

/// Per-node device series are emitted only up to this cluster size;
/// beyond it the per-node label cardinality would dwarf the report, so
/// only the cluster-wide aggregates remain.
pub const MAX_PER_NODE_SERIES: usize = 32;

/// Build the sampled telemetry for one captured run, or `None` when
/// the run was captured with telemetry off.
pub fn collect_telemetry(cap: &RunCapture) -> Option<Telemetry> {
    let requested = cap.telemetry_interval?;
    let makespan = cap.makespan.nanos();
    let iv = effective_interval(requested, makespan);
    let reg = Registry::new();

    for p in &cap.metric_points {
        reg.record(p);
    }
    derive_engine_series(&reg, cap);
    derive_device_series(&reg, cap, iv);
    derive_phase_series(&reg, cap);

    let mut t = reg.sample(iv, makespan);
    t.requested_interval_ns = requested.max(1);
    // Breach window indices are interval-relative; fill them in now.
    for o in &mut t.slo {
        for b in &mut o.breaches {
            b.window = b.t_ns / iv;
        }
    }
    Some(t)
}

/// Engine-level series, derived deterministically from the event
/// stream: `engine.runnable` (processes not finished and not blocked in
/// a `Recv`), `engine.frontier` (concurrently in-flight `Compute`
/// spans), `engine.parks` / `engine.wakes` (one park per blocking
/// receive, one wake when it completes).
fn derive_engine_series(reg: &Registry, cap: &RunCapture) {
    // Signed deltas keyed by time; coalesced so one gauge point is
    // emitted per distinct transition instant.
    let mut runnable: BTreeMap<u64, i64> = BTreeMap::new();
    let mut frontier: BTreeMap<u64, i64> = BTreeMap::new();
    for f in &cap.finishes {
        *runnable.entry(0).or_default() += 1;
        *runnable.entry(f.nanos()).or_default() -= 1;
    }
    for e in &cap.events {
        match &e.kind {
            EventKind::Recv { .. } => {
                *runnable.entry(e.start.nanos()).or_default() -= 1;
                *runnable.entry(e.end.nanos()).or_default() += 1;
                reg.counter_add("engine.parks", "", e.start.nanos(), 1);
                reg.counter_add("engine.wakes", "", e.end.nanos(), 1);
            }
            EventKind::Compute => {
                *frontier.entry(e.start.nanos()).or_default() += 1;
                *frontier.entry(e.end.nanos()).or_default() -= 1;
            }
            _ => {}
        }
    }
    let mut level = 0i64;
    for (t, d) in runnable {
        level += d;
        reg.gauge_set("engine.runnable", "", t, level.max(0) as u64);
    }
    level = 0;
    for (t, d) in frontier {
        level += d;
        reg.gauge_set("engine.frontier", "", t, level.max(0) as u64);
    }
}

/// Device busy-time series from device spans: cluster-wide
/// `cluster.{disk,nfs,nic}_busy_ns` always, per-node
/// `node.{disk,nfs,nic}_busy_ns{node=K}` when the topology has at most
/// [`MAX_PER_NODE_SERIES`] nodes. A span's duration is split across the
/// windows it overlaps. `Recv` is deliberately *not* NIC busy time —
/// its span includes matching wait.
fn derive_device_series(reg: &Registry, cap: &RunCapture, iv: u64) {
    let per_node = cap.cluster_nodes <= MAX_PER_NODE_SERIES;
    let node_labels: Vec<Arc<str>> = (0..cap.cluster_nodes as u64)
        .map(|n| Arc::from(format!("node={n}").as_str()))
        .collect();
    for e in &cap.events {
        let device = match &e.kind {
            EventKind::DiskRead { .. } | EventKind::DiskWrite { .. } => "disk",
            EventKind::Nfs { .. } => "nfs",
            EventKind::Send { .. } | EventKind::OneSided { .. } => "nic",
            _ => continue,
        };
        let (start, end) = (e.start.nanos(), e.end.nanos());
        if end <= start {
            continue;
        }
        let cluster_name: &'static str = match device {
            "disk" => "cluster.disk_busy_ns",
            "nfs" => "cluster.nfs_busy_ns",
            _ => "cluster.nic_busy_ns",
        };
        let node_name: &'static str = match device {
            "disk" => "node.disk_busy_ns",
            "nfs" => "node.nfs_busy_ns",
            _ => "node.nic_busy_ns",
        };
        let node = cap.proc_nodes.get(e.pid.index()).map(|n| n.index());
        for w in (start / iv)..=((end - 1) / iv) {
            let lo = start.max(w * iv);
            let hi = end.min((w + 1).saturating_mul(iv));
            let busy = hi.saturating_sub(lo);
            if busy == 0 {
                continue;
            }
            reg.counter_add(cluster_name, "", w * iv, busy);
            if per_node {
                if let Some(n) = node {
                    if let Some(label) = node_labels.get(n) {
                        reg.counter_add(node_name, label.clone(), w * iv, busy);
                    }
                }
            }
        }
    }
}

/// Per-phase task-latency histograms from `Phase` spans (the existing
/// `span_close` hook): series `phase.span_ns{phase=<normalized>}`,
/// observed at the span's close time.
fn derive_phase_series(reg: &Registry, cap: &RunCapture) {
    let mut label_cache: BTreeMap<&str, Arc<str>> = BTreeMap::new();
    for e in &cap.events {
        if let EventKind::Phase { label, .. } = e.kind {
            let label = cap.tables.label(label);
            let labels = label_cache
                .entry(label)
                .or_insert_with(|| Arc::from(format!("phase={}", normalize_label(label)).as_str()))
                .clone();
            reg.observe(
                "phase.span_ns",
                labels,
                e.end.nanos(),
                e.end.nanos().saturating_sub(e.start.nanos()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcbd_simnet::{NodeId, Pid, ProcStats, ResolvedKind, SimTime, TraceEvent, TraceTables};

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

    fn cap_with(
        events: Vec<TraceEvent<ResolvedKind<'static>>>,
        interval: Option<u64>,
    ) -> RunCapture {
        let (events, tables) = TraceTables::store_all(events);
        RunCapture {
            proc_names: vec!["a".into(), "b".into()],
            proc_nodes: vec![NodeId(0), NodeId(1)],
            finishes: vec![SimTime(90), SimTime(100)],
            stats: vec![ProcStats::default(), ProcStats::default()],
            makespan: SimTime(100),
            cluster_nodes: 2,
            dropped_msgs: 0,
            events,
            tables,
            telemetry_interval: interval,
            metric_points: Vec::new(),
            host_profile: None,
        }
    }

    #[test]
    fn quantiles_on_single_bucket_histograms_collapse() {
        let mut h = Hist64::default();
        for _ in 0..100 {
            h.add(700); // bucket [512, 1024) → upper bound 1023
        }
        assert_eq!(h.p50_p99_p999(), (1023, 1023, 1023));
        let mut z = Hist64::default();
        z.add(0);
        assert_eq!(z.p50_p99_p999(), (0, 0, 0));
    }

    #[test]
    fn quantiles_on_empty_histogram_are_zero() {
        let h = Hist64::default();
        assert_eq!(h.total(), 0);
        assert_eq!(h.p50_p99_p999(), (0, 0, 0));
    }

    #[test]
    fn p999_needs_the_tail_bucket_only_past_its_rank() {
        // One outlier in 1000: its rank is 1000 but the p999 rank is
        // ceil(1000·999/1000) = 999, still in the fast bucket — a
        // single 1/1000 outlier does not move p999.
        let mut h = Hist64::default();
        for _ in 0..999 {
            h.add(100); // bucket [64, 128)
        }
        h.add(1 << 40);
        let (p50, p99, p999) = h.p50_p99_p999();
        assert_eq!(p50, 127);
        assert_eq!(p99, 127);
        assert_eq!(p999, 127);
        // A second outlier pushes the p999 rank past the fast bucket.
        h.add(1 << 40);
        assert_eq!(h.quantile(999, 1000), (1u64 << 41) - 1);
    }

    #[test]
    fn sparse_windows_emit_no_points() {
        // Observations in windows 0 and 9 only; nothing in between.
        let reg = Registry::new();
        reg.observe("lat", "", 5, 10);
        reg.observe("lat", "", 95, 20);
        let t = reg.sample(10, 100);
        assert_eq!(t.windows, 11);
        let s = &t.series[0];
        match &s.points {
            Points::Histogram(p) => {
                assert_eq!(p.len(), 2, "empty windows must not emit points");
                assert_eq!(p[0][0], 0);
                assert_eq!(p[1][0], 90);
                // A one-sample window's p50 == p99 == p999.
                assert_eq!(p[0][2], p[0][4]);
            }
            other => panic!("expected histogram points, got {other:?}"),
        }
        // SLO evaluation counts only sampled windows.
        assert_eq!(t.slo[0].windows_evaluated, 2);
    }

    #[test]
    fn boundary_update_belongs_to_the_window_starting_there() {
        let reg = Registry::new();
        reg.counter_add("c", "", 10, 1); // exactly on the tick
        reg.counter_add("c", "", 9, 1); // last ns of window 0
        let t = reg.sample(10, 20);
        match &t.series[0].points {
            Points::Counter(p) => {
                assert_eq!(p.as_slice(), &[[0, 1, 1], [10, 1, 2]]);
            }
            other => panic!("expected counter points, got {other:?}"),
        }
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let reg = Registry::new();
        reg.counter_add("c", "", 0, u64::MAX - 1);
        reg.counter_add("c", "", 1, 5);
        reg.counter_add("c", "", 2, 5);
        let t = reg.sample(10, 10);
        match &t.series[0].points {
            Points::Counter(p) => {
                assert_eq!(p.len(), 1);
                // Window delta and cumulative both saturate at u64::MAX.
                assert_eq!(p[0][1], u64::MAX);
                assert_eq!(p[0][2], u64::MAX);
            }
            other => panic!("expected counter points, got {other:?}"),
        }
    }

    #[test]
    fn gauge_takes_the_last_value_in_a_window() {
        let reg = Registry::new();
        reg.gauge_set("g", "", 1, 10);
        reg.gauge_set("g", "", 9, 30);
        reg.gauge_set("g", "", 15, 7);
        let t = reg.sample(10, 20);
        match &t.series[0].points {
            Points::Gauge(p) => assert_eq!(p.as_slice(), &[[0, 30], [10, 7]]),
            other => panic!("expected gauge points, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_kind_updates_are_dropped() {
        let reg = Registry::new();
        reg.counter_add("m", "", 0, 1);
        reg.gauge_set("m", "", 5, 99); // wrong kind: ignored
        let t = reg.sample(10, 10);
        assert_eq!(t.series.len(), 1);
        assert_eq!(t.series[0].kind, MetricKind::Counter);
        assert_eq!(t.series[0].points.len(), 1);
    }

    #[test]
    fn series_sort_by_name_then_labels_across_shards() {
        let reg = Registry::new();
        // Insertion order deliberately scrambled; shard assignment is an
        // implementation detail that must not show in the output order.
        reg.counter_add("z", "", 0, 1);
        reg.counter_add("a", "x=2", 0, 1);
        reg.counter_add("a", "x=1", 0, 1);
        reg.counter_add("m", "", 0, 1);
        let t = reg.sample(10, 10);
        let order: Vec<(String, String)> = t
            .series
            .iter()
            .map(|s| (s.name.to_string(), s.labels.to_string()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a".into(), "x=1".into()),
                ("a".into(), "x=2".into()),
                ("m".into(), "".into()),
                ("z".into(), "".into()),
            ]
        );
    }

    #[test]
    fn effective_interval_coarsens_to_an_aligned_multiple() {
        assert_eq!(effective_interval(100, 1_000), 100);
        assert_eq!(effective_interval(0, 1_000), 1);
        // 3 ns over a long makespan would be billions of windows;
        // the result is a multiple of the request and fits the cap.
        let eff = effective_interval(3, 10_000_000_000);
        assert_eq!(eff % 3, 0);
        assert!(10_000_000_000 / eff < MAX_WINDOWS);
        // Idempotent.
        assert_eq!(effective_interval(eff, 10_000_000_000), eff);
    }

    #[test]
    fn slo_monitor_flags_tail_windows() {
        let reg = Registry::new();
        // 30 fast observations across three windows, then one window
        // whose p99 blows past 4× the whole-run p50.
        for w in 0..3u64 {
            for i in 0..10u64 {
                reg.observe("lat", "", w * 10 + i, 100);
            }
        }
        reg.observe("lat", "", 35, 1 << 30);
        let t = reg.sample(10, 40);
        let o = &t.slo[0];
        assert_eq!(o.windows_evaluated, 4);
        assert_eq!(o.windows_breached, 1);
        assert_eq!(o.attainment_ppm, 750_000);
        assert_eq!(o.breaches.len(), 1);
        assert_eq!(o.breaches[0].t_ns, 30);
        assert!(o.breaches[0].observed_p99 > o.breaches[0].threshold);
    }

    #[test]
    fn slo_attainment_is_full_when_nothing_was_sampled() {
        let o = evaluate_slo(
            SloMonitor {
                metric: "m".into(),
                labels: "".into(),
                threshold: 1,
            },
            &[],
        );
        assert_eq!(o.windows_evaluated, 0);
        assert_eq!(o.attainment_ppm, 1_000_000);
        assert!(o.breaches.is_empty());
    }

    #[test]
    fn collect_returns_none_when_telemetry_is_off() {
        let cap = cap_with(vec![ev(0, 0, 50, EventKind::Compute)], None);
        assert!(collect_telemetry(&cap).is_none());
    }

    #[test]
    fn derived_series_cover_engine_devices_and_phases() {
        let events = vec![
            ev(
                0,
                0,
                50,
                EventKind::Phase {
                    label: "job/iter/3",
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
        ];
        let cap = cap_with(events, Some(10));
        let t = collect_telemetry(&cap).expect("telemetry on");
        let names: Vec<&str> = t.series.iter().map(|s| s.name.as_ref()).collect();
        for expected in [
            "cluster.disk_busy_ns",
            "cluster.nic_busy_ns",
            "engine.frontier",
            "engine.parks",
            "engine.runnable",
            "engine.wakes",
            "node.disk_busy_ns",
            "node.nic_busy_ns",
            "phase.span_ns",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        // The disk span [80, 100) splits evenly across two windows and
        // lands on node 1 (pid 1's node).
        let disk = t
            .series
            .iter()
            .find(|s| s.name.as_ref() == "node.disk_busy_ns")
            .unwrap();
        assert_eq!(disk.labels.as_ref(), "node=1");
        match &disk.points {
            Points::Counter(p) => assert_eq!(p.as_slice(), &[[80, 10, 10], [90, 10, 20]]),
            other => panic!("expected counter points, got {other:?}"),
        }
        // Phase labels normalize their numeric segments.
        let phase = t
            .series
            .iter()
            .find(|s| s.name.as_ref() == "phase.span_ns")
            .unwrap();
        assert_eq!(phase.labels.as_ref(), "phase=job/iter/*");
        // One park (the recv) and one wake.
        let parks = t
            .series
            .iter()
            .find(|s| s.name.as_ref() == "engine.parks")
            .unwrap();
        match &parks.points {
            Points::Counter(p) => assert_eq!(p.as_slice(), &[[0, 1, 1]]),
            other => panic!("expected counter points, got {other:?}"),
        }
        // Whole-run quantiles exist for the phase histogram.
        assert!(t
            .quantiles
            .iter()
            .any(|q| q.name.as_ref() == "phase.span_ns" && q.count == 1));
        // Runnable drops to 1 while pid 1 blocks in the recv and both
        // series stay non-negative.
        let runnable = t
            .series
            .iter()
            .find(|s| s.name.as_ref() == "engine.runnable")
            .unwrap();
        match &runnable.points {
            Points::Gauge(p) => {
                assert_eq!(p.first(), Some(&[0, 1]));
                assert!(p.iter().all(|g| g[1] <= 2));
            }
            other => panic!("expected gauge points, got {other:?}"),
        }
    }

    #[test]
    fn explicit_metric_points_flow_into_series() {
        let mut cap = cap_with(Vec::new(), Some(10));
        cap.metric_points = vec![
            MetricPoint {
                time: SimTime(5),
                pid: Pid(0),
                seq: 0,
                name: "ckpt.drain_lag_ns".into(),
                labels: "".into(),
                op: MetricOp::Observe(5_000),
            },
            MetricPoint {
                time: SimTime(15),
                pid: Pid(0),
                seq: 1,
                name: "ckpt.drain_lag_ns".into(),
                labels: "".into(),
                op: MetricOp::Observe(7_000),
            },
        ];
        let t = collect_telemetry(&cap).unwrap();
        let s = t
            .series
            .iter()
            .find(|s| s.name.as_ref() == "ckpt.drain_lag_ns")
            .expect("explicit series present");
        assert_eq!(s.kind, MetricKind::Histogram);
        assert_eq!(s.points.len(), 2);
        assert!(t
            .quantiles
            .iter()
            .any(|q| q.name.as_ref() == "ckpt.drain_lag_ns" && q.count == 2));
    }

    #[test]
    fn telemetry_json_is_deterministic_and_integer_only() {
        let events = vec![
            ev(0, 0, 40, EventKind::Compute),
            ev(1, 10, 30, EventKind::DiskRead { bytes: 64 }),
        ];
        let a = collect_telemetry(&cap_with(events.clone(), Some(10)))
            .unwrap()
            .to_json_value()
            .serialize();
        let b = collect_telemetry(&cap_with(events, Some(10)))
            .unwrap()
            .to_json_value()
            .serialize();
        assert_eq!(a, b);
        let v = JsonValue::parse(&a).expect("telemetry JSON parses");
        for key in ["interval_ns", "windows", "series", "quantiles", "slo"] {
            assert!(v.get(key).is_some(), "missing {key}: {a}");
        }
        // Off by default: no host_profile key without HPCBD_SELFPROF.
        assert!(v.get("host_profile").is_none());
        // Integers only: a '.' may appear in metric names but never
        // between digits (no float literals).
        let bytes = a.as_bytes();
        for i in 1..bytes.len() - 1 {
            if bytes[i] == b'.' {
                assert!(
                    !(bytes[i - 1].is_ascii_digit() && bytes[i + 1].is_ascii_digit()),
                    "float literal in JSON: {a}"
                );
            }
        }
    }

    #[test]
    fn host_profile_serializes_in_row_order_when_present() {
        let mut t = collect_telemetry(&cap_with(Vec::new(), Some(10))).unwrap();
        t.host_profile = Some(vec![("queue_push".into(), 42), ("runs".into(), 1)]);
        let s = t.to_json_value().serialize();
        let v = JsonValue::parse(&s).unwrap();
        let hp = v.get("host_profile").expect("host_profile present");
        assert_eq!(hp.get("queue_push"), Some(&JsonValue::u64(42)));
        assert_eq!(hp.get("runs"), Some(&JsonValue::u64(1)));
    }
}
