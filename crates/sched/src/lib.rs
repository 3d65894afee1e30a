//! `hpcbd-sched` — the multi-tenant cluster scheduler and open-loop
//! traffic generator (DESIGN.md §15).
//!
//! Every benchmark before this crate ran one job on an idle cluster. The
//! paper's HPC-vs-Big-Data comparison, though, is really about shared
//! clusters: queueing delay, locality loss and tail-latency inflation
//! when batch backbones and interactive query traffic contend for the
//! same nodes. This crate supplies the missing machinery:
//!
//! * [`queue`] — named queues with weights/caps, per-node slot ledger,
//!   deterministic preemption-victim selection, fairness integrals;
//! * [`arrivals`](mod@arrivals) — seeded open-loop Poisson and diurnal arrival
//!   processes, generated before the run so the offered load is a pure
//!   function of the seed;
//! * [`job`] — the wave/task/segment job model runtimes compile their
//!   workloads into;
//! * [`scheduler`](mod@scheduler) — the in-sim scheduler process, slot workers, delay
//!   scheduling and kill/re-queue preemption protocol;
//! * [`scenario`] — glue that assembles a cluster, a queue table and a
//!   set of traffic sources into one deterministic simulation.
//!
//! Determinism: arrival traces are computed before `Sim::run`; every
//! scheduling decision happens inside one scheduler process at virtual
//! times fixed by the engine's `(time, pid, generation)` total order; no
//! host state leaks in. Every run therefore produces bit-identical
//! schedules, latencies and counters — CI byte-compares two.

#![warn(missing_docs)]

pub mod arrivals;
pub mod job;
pub mod queue;
pub mod scenario;
pub mod scheduler;

pub use arrivals::{arrivals, RateProcess, SplitMix64};
pub use job::{JobFactory, JobSpec, Segment, TaskSpec, Wave};
pub use queue::{fair_share, QueueSpec, ShareMeter, SlotLedger, SlotState};
pub use scenario::{
    factory, quantile_ns, run, run_trace, validate_trace, JobError, ScenarioOutcome, ScenarioSpec,
    SourceSpec, TraceError,
};
pub use scheduler::{
    scheduler, slot_worker, submitter, QueueStats, SchedStats, SchedulerConfig, SubmitMsg, TaskKey,
};
