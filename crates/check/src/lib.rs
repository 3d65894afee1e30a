//! `hpcbd-check` — the schedule-exploration conformance harness.
//!
//! The simulator's headline claim is *bit determinism*: every virtual
//! time, table, trace and report is a pure function of the workload,
//! identical from run to run and across hosts. This crate tests that
//! claim adversarially instead of incidentally:
//!
//! * [`explore`] drives the engine down its two grant paths in many
//!   seeded mixes (alignments that could self-grant sent through the
//!   ready queue instead — see [`hpcbd_simnet::perturb`]) and demands
//!   every run reproduce the unperturbed oracle bit-for-bit.
//!   Divergences are shrunk to the first
//!   differing event — `(event index, pids, order key, record)` — and
//!   classified by replay as schedule-dependent or host nondeterminism.
//! * [`campaign`] generates seeded adversarial fault campaigns (crash
//!   storms, correlated failures, straggler bursts, partition+drop
//!   combos, crashes inside checkpoint drains) and demands every run
//!   end digest-equal to the fault-free oracle or in a structured
//!   abort — never a hang, never a silent corruption. Violations are
//!   shrunk to a minimal fault plan by delta debugging.
//! * [`lint`] double-runs workloads under skewed host conditions:
//!   a replay, allocator-address poisoning, telemetry sampling.
//! * [`golden`] pins full `--quick` outputs of every bench bin under
//!   `results/golden/` with a SHA-256 manifest; the `conformance` bin
//!   (in `hpcbd-bench`) recomputes and diffs them in CI.
//! * [`compare`] and [`sha256`] are the shared comparison and digest
//!   machinery.

#![warn(missing_docs)]

pub mod campaign;
pub mod compare;
pub mod explore;
pub mod golden;
pub mod lint;
pub mod sha256;

pub use campaign::{
    classify_run, generate_campaigns, generate_plan, shrink_plan, Campaign, CampaignKind,
    CampaignOutcome, CampaignSpace, CampaignTally,
};
pub use compare::{capture_digest, compare_captures, compare_runs, Classification, Divergence};
pub use explore::{harness_lock, ExploreReport, Explorer};
pub use golden::{GoldenRegistry, GoldenStatus, MANIFEST};
pub use lint::{lint_workload, LintReport};
pub use sha256::{sha256_hex, Sha256};
