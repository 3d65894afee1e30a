//! `hpcbd-obs` — the phase-attributed profiling layer.
//!
//! Turns the raw per-process event stream captured by
//! [`hpcbd_simnet::observe`] into an *explanation* of a run:
//!
//! * [`causal`] links every `Send` to the `Recv` that consumed it,
//!   giving a cross-process event DAG (and Perfetto flow arrows).
//! * [`critical`] walks that DAG backwards from the last-finishing
//!   process and partitions the whole `[0, makespan]` interval into
//!   contiguous segments, each attributed to a category
//!   (compute / comm / disk / wait / idle) and to the innermost
//!   runtime phase span enclosing it — the mechanical version of the
//!   paper's "where does the time go" narrative.
//! * [`report`] aggregates segments, spans and statistics into a
//!   [`RunReport`] with a stable JSON encoding and a human text table.
//! * [`perfetto`] extends the Chrome-tracing export with phase spans
//!   and send→recv flow arrows.
//! * [`recovery`] folds structured fault/recovery trace records into
//!   per-crash SLOs — time-to-detect, time-to-recover, work replayed —
//!   surfaced in the report's `recovery` key and text timeline.
//! * [`metrics`] builds live telemetry: a lock-sharded metrics
//!   registry sampled at virtual-time ticks into windowed time-series
//!   (queue depth, device utilization, latency quantiles) with SLO
//!   monitors — the report's optional `telemetry` key, which also
//!   carries the engine's self-profiler snapshot as `host_profile`
//!   (wall-clock-dependent, opt-in via `HPCBD_SELFPROF`).
//!
//! Everything here is a pure function of the captured run — which is
//! itself a pure function of virtual-time state — so reports are
//! byte-identical across executions. The JSON
//! encoder ([`json`]) emits integers only (nanoseconds, counts) in a
//! fixed key order; no floats, no maps with unstable iteration order.

#![warn(missing_docs)]

pub mod causal;
pub mod critical;
pub mod diff;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod recovery;
pub mod report;

pub use causal::{match_events, CausalEdge, CausalGraph};
pub use critical::{critical_path, Category, CriticalPath, Segment};
pub use diff::{first_divergence, LineDivergence};
pub use json::JsonValue;
pub use metrics::{
    collect_telemetry, effective_interval, Hist64, MetricKind, Points, QuantileSummary, Registry,
    SloBreach, SloMonitor, SloOutcome, Telemetry, TimeSeries,
};
pub use perfetto::{to_perfetto_json, to_perfetto_json_with_telemetry};
pub use recovery::{recovery_slos, FaultRecovery, RecoverySummary};
pub use report::{PhaseRow, RunReport, RunSection};
