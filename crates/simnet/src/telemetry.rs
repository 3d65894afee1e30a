//! Virtual-time telemetry instrumentation: metric points and the
//! process-wide sampling-interval knob (`HPCBD_TELEMETRY=interval_ns`).
//!
//! The observability layer (`hpcbd-obs::metrics`) builds continuous
//! time-series — queue depth, device utilization, windowed latency
//! quantiles, SLO attainment — out of two inputs:
//!
//! 1. the deterministic event stream every capture already carries
//!    (engine- and device-level series are *derived* from it), and
//! 2. explicit [`MetricPoint`]s recorded by runtime code through
//!    [`crate::ProcCtx::metric_counter`] /
//!    [`crate::ProcCtx::metric_gauge`] /
//!    [`crate::ProcCtx::metric_observe`] for state the trace does not
//!    show (e.g. checkpoint drain-watermark lag).
//!
//! Determinism contract: a metric point is stamped with the recording
//! process's *virtual* clock and buffered per process (same discipline
//! as the trace buffer), then merged and sorted by
//! `(time, name, labels, pid, seq)` at run end. Everything about the
//! stream is a pure function of the virtual-time schedule, so telemetry
//! serializes byte-identically across
//! [`crate::Execution::Sequential`] and [`crate::Execution::Parallel`].
//! Metric points are deliberately excluded from conformance digests
//! (`hpcbd-check` hashes capture fields explicitly).
//!
//! Cost when off: one `bool` test per `metric_*` call (the flag is
//! resolved once at spawn), nothing on any other path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::engine::Pid;
use crate::time::SimTime;

/// Default sampling interval (100 ms of virtual time) used when
/// telemetry is requested (`--telemetry`) without an explicit
/// `HPCBD_TELEMETRY=interval_ns` override.
pub const DEFAULT_TELEMETRY_INTERVAL_NS: u64 = 100_000_000;

/// How a [`MetricPoint`] mutates its `(name, labels)` series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricOp {
    /// Add to a monotone (saturating) counter.
    CounterAdd(u64),
    /// Set a gauge to an instantaneous value.
    GaugeSet(u64),
    /// Record one observation into a fixed-bucket histogram.
    Observe(u64),
}

/// One metric update, recorded by a process at a virtual-time instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricPoint {
    /// Virtual time of the update (the recording process's clock).
    pub time: SimTime,
    /// Recording process.
    pub pid: Pid,
    /// Position in the recording process's buffer — preserves program
    /// order between same-time updates from one process.
    pub seq: u32,
    /// Metric name (e.g. `ckpt.drain_lag_ns`).
    pub name: Arc<str>,
    /// Canonical label string (`key=value`, comma-separated, or empty).
    pub labels: Arc<str>,
    /// The update itself.
    pub op: MetricOp,
}

/// Sort a merged metric-point stream into its canonical export order:
/// `(time, name, labels, pid, seq)`. Per-process buffers preserve
/// program order; the sort makes the merge order across processes (a
/// wall-clock artifact) irrelevant, exactly like
/// [`crate::Trace::sorted_events`].
pub(crate) fn sort_points(points: &mut [MetricPoint]) {
    points.sort_by(|a, b| {
        (a.time, a.name.as_ref(), a.labels.as_ref(), a.pid.0, a.seq).cmp(&(
            b.time,
            b.name.as_ref(),
            b.labels.as_ref(),
            b.pid.0,
            b.seq,
        ))
    });
}

/// Encoded process-wide telemetry interval; `u64::MAX` means "not yet
/// initialized, consult the environment", `0` means "off".
static TELEMETRY: AtomicU64 = AtomicU64::new(u64::MAX);

/// Set the process-wide telemetry sampling interval (`None` disables).
/// Overrides `HPCBD_TELEMETRY`. Intervals collide with neither sentinel:
/// `u64::MAX` is not a meaningful tick, and `0` is rejected by
/// [`parse_telemetry_interval`] anyway.
pub fn set_telemetry_interval(interval_ns: Option<u64>) {
    let v = match interval_ns {
        Some(0) | None => 0,
        Some(u64::MAX) => u64::MAX - 1,
        Some(i) => i,
    };
    TELEMETRY.store(v, Ordering::SeqCst);
}

/// The process-wide telemetry sampling interval: whatever
/// [`set_telemetry_interval`] last stored, else `HPCBD_TELEMETRY`, else
/// off. A malformed environment value falls back to off, but not
/// silently: a one-time stderr warning names the rejected value
/// (mirroring [`crate::Execution::from_env`]).
pub fn telemetry_interval() -> Option<u64> {
    let v = TELEMETRY.load(Ordering::SeqCst);
    if v != u64::MAX {
        return (v != 0).then_some(v);
    }
    let (interval, rejected) = telemetry_from_env_value(std::env::var("HPCBD_TELEMETRY").ok());
    if let Some(bad) = rejected {
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        WARN_ONCE.call_once(|| {
            eprintln!(
                "warning: unrecognized HPCBD_TELEMETRY value {bad:?} \
                 (expected a positive sampling interval in nanoseconds, \
                 e.g. HPCBD_TELEMETRY=100000000); telemetry stays off"
            );
        });
    }
    // Racing initializers agree (the env doesn't change underneath us).
    TELEMETRY.store(interval.unwrap_or(0), Ordering::SeqCst);
    interval
}

/// Resolve an `HPCBD_TELEMETRY` value (or its absence) to an interval
/// plus, when the value was malformed, the value to warn about. Split
/// from [`telemetry_interval`] so the fallback is testable without
/// touching the process environment or capturing stderr.
pub fn telemetry_from_env_value(v: Option<String>) -> (Option<u64>, Option<String>) {
    match v {
        Some(v) => match parse_telemetry_interval(&v) {
            Some(i) => (Some(i), None),
            None => (None, Some(v)),
        },
        None => (None, None),
    }
}

/// Parse a sampling interval: a positive integer nanosecond count
/// (whitespace tolerated). Zero is meaningless (an empty window) and
/// rejected, as is anything non-numeric.
pub fn parse_telemetry_interval(s: &str) -> Option<u64> {
    let n = s.trim().parse::<u64>().ok()?;
    (n > 0).then_some(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_positive_intervals() {
        assert_eq!(parse_telemetry_interval("100000000"), Some(100_000_000));
        assert_eq!(parse_telemetry_interval(" 42\n"), Some(42));
        assert_eq!(
            parse_telemetry_interval(&u64::MAX.to_string()),
            Some(u64::MAX)
        );
    }

    #[test]
    fn parse_rejects_zero_and_garbage() {
        assert_eq!(parse_telemetry_interval("0"), None);
        assert_eq!(parse_telemetry_interval(""), None);
        assert_eq!(parse_telemetry_interval("100ms"), None);
        assert_eq!(parse_telemetry_interval("-5"), None);
        assert_eq!(parse_telemetry_interval("1e9"), None);
        // One past u64::MAX overflows the parse and is rejected, not
        // wrapped or clamped to something surprising.
        assert_eq!(parse_telemetry_interval("18446744073709551616"), None);
    }

    #[test]
    fn env_fallback_reports_the_malformed_value() {
        // Well-formed values pass through without a warning.
        assert_eq!(
            telemetry_from_env_value(Some("5000".into())),
            (Some(5000), None)
        );
        // Absent variable: off, nothing to warn about.
        assert_eq!(telemetry_from_env_value(None), (None, None));
        // A malformed value falls back to off but surfaces the
        // offending string for the one-time warning.
        let (i, warn) = telemetry_from_env_value(Some("100ms".into()));
        assert_eq!(i, None);
        assert_eq!(warn.as_deref(), Some("100ms"));
        // So does a zero interval.
        let (i, warn) = telemetry_from_env_value(Some("0".into()));
        assert_eq!(i, None);
        assert_eq!(warn.as_deref(), Some("0"));
    }

    #[test]
    fn sort_points_orders_by_time_key_pid_seq() {
        let p = |t: u64, pid: u32, seq: u32, name: &str| MetricPoint {
            time: SimTime(t),
            pid: Pid(pid),
            seq,
            name: name.into(),
            labels: "".into(),
            op: MetricOp::CounterAdd(1),
        };
        let mut pts = vec![
            p(10, 1, 0, "b"),
            p(10, 0, 1, "a"),
            p(10, 0, 0, "a"),
            p(5, 7, 0, "z"),
        ];
        sort_points(&mut pts);
        let order: Vec<(u64, u32, u32)> = pts.iter().map(|p| (p.time.0, p.pid.0, p.seq)).collect();
        assert_eq!(order, vec![(5, 7, 0), (10, 0, 0), (10, 0, 1), (10, 1, 0)]);
        assert_eq!(pts[1].name.as_ref(), "a");
        assert_eq!(pts[3].name.as_ref(), "b");
    }
}
