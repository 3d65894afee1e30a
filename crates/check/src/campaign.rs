//! Seeded fault-campaign explorer: adversarial robustness testing.
//!
//! The schedule explorer ([`crate::explore`]) asks "does every *legal
//! schedule* reproduce the oracle?"; this module asks the companion
//! robustness question: "does every *adversarial fault plan* leave the
//! runtime either digest-equal to the fault-free oracle or terminated
//! with a structured abort?" Anything else — a silent corruption, a
//! non-structured panic, a simulated deadlock — is a **violation**,
//! and violations are shrunk (greedy delta debugging over
//! [`FaultPlan::atoms`]) to a minimal fault plan before being
//! reported.
//!
//! Campaigns are generated from a seed, so a CI failure names
//! `(kind, seed)` and anyone can replay it. The five kinds target the
//! recovery paths that historically break:
//!
//! * [`CampaignKind::CrashStorm`] — several crashes on distinct nodes
//!   at scattered times.
//! * [`CampaignKind::Correlated`] — a multi-node failure at one
//!   instant (a rack/PDU loss).
//! * [`CampaignKind::StragglerBurst`] — overlapping slow-node
//!   intervals (detection paths must not fire on mere slowness).
//! * [`CampaignKind::PartitionDrop`] — a healed link partition plus a
//!   message-drop rate (retransmitted late, never lost).
//! * [`CampaignKind::DrainCrash`] — a crash aimed *inside* an
//!   asynchronous checkpoint drain window measured off an oracle run:
//!   the case that distinguishes a correct restart (fall back to the
//!   last drained checkpoint) from the classic watermark-confusion
//!   bug.

use std::any::Any;
use std::panic::AssertUnwindSafe;

use hpcbd_simnet::{FaultPlan, NodeId, SimTime, StructuredAbort};

/// The adversarial shapes the generator knows how to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// Several crashes on distinct nodes at scattered times.
    CrashStorm,
    /// Simultaneous crashes of consecutive nodes (correlated failure).
    Correlated,
    /// Overlapping straggler intervals on several nodes.
    StragglerBurst,
    /// A healed link partition combined with a message-drop rate.
    PartitionDrop,
    /// A crash timed inside an asynchronous checkpoint drain window.
    DrainCrash,
}

impl CampaignKind {
    /// All kinds, in generation rotation order.
    pub const ALL: [CampaignKind; 5] = [
        CampaignKind::CrashStorm,
        CampaignKind::Correlated,
        CampaignKind::StragglerBurst,
        CampaignKind::PartitionDrop,
        CampaignKind::DrainCrash,
    ];
}

impl std::fmt::Display for CampaignKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CampaignKind::CrashStorm => "crash-storm",
            CampaignKind::Correlated => "correlated",
            CampaignKind::StragglerBurst => "straggler-burst",
            CampaignKind::PartitionDrop => "partition-drop",
            CampaignKind::DrainCrash => "drain-crash",
        };
        f.write_str(s)
    }
}

/// What the generator is allowed to aim at: the workload's cluster
/// shape, its fault-free horizon, and (for [`CampaignKind::DrainCrash`])
/// the drain windows measured off an oracle run.
#[derive(Debug, Clone)]
pub struct CampaignSpace {
    /// Nodes in the cluster under test.
    pub nodes: u32,
    /// Fault-free makespan of the workload; fault times are sampled
    /// inside `[horizon/10, horizon]` so they land mid-run.
    pub horizon: SimTime,
    /// Nodes the generator must never crash (e.g. node 0 when it hosts
    /// a Spark driver or Hadoop jobtracker — a real SPOF, but crashing
    /// it is refused by those runtimes' builders).
    pub protected: Vec<NodeId>,
    /// `(issue, done)` drain windows from an oracle run of the async
    /// checkpointing workload; empty when the workload has none (the
    /// generator then substitutes a mid-horizon crash).
    pub drain_windows: Vec<(SimTime, SimTime)>,
    /// Upper bound on crashes per campaign (also bounded by the number
    /// of unprotected nodes).
    pub max_crashes: u32,
}

impl CampaignSpace {
    /// A space over `nodes` nodes and a fault-free `horizon`.
    pub fn new(nodes: u32, horizon: SimTime) -> CampaignSpace {
        assert!(nodes >= 2, "campaigns need at least two nodes");
        assert!(horizon.nanos() > 0, "horizon must be positive");
        CampaignSpace {
            nodes,
            horizon,
            protected: Vec::new(),
            drain_windows: Vec::new(),
            max_crashes: 2,
        }
    }

    /// Forbid crashing `node` (builder style).
    pub fn protect(mut self, node: NodeId) -> CampaignSpace {
        self.protected.push(node);
        self
    }

    /// Provide oracle drain windows for [`CampaignKind::DrainCrash`].
    pub fn with_drain_windows(mut self, windows: Vec<(SimTime, SimTime)>) -> CampaignSpace {
        self.drain_windows = windows;
        self
    }

    fn crashable(&self) -> Vec<NodeId> {
        (0..self.nodes)
            .map(NodeId)
            .filter(|n| !self.protected.contains(n))
            .collect()
    }
}

/// One generated campaign: a kind, the seed that built it, and the
/// fault plan to install.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Which adversarial shape this plan instantiates.
    pub kind: CampaignKind,
    /// Seed that generated the plan (replays the campaign exactly).
    pub seed: u64,
    /// The generated fault plan.
    pub plan: FaultPlan,
}

/// splitmix64 — the standard tiny deterministic PRNG; good enough for
/// sampling fault times and more than portable enough for CI replay.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next() % n
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi.saturating_sub(lo).max(1))
    }
}

/// Generate `count` campaigns over `space`, rotating through the kinds
/// (skipping [`CampaignKind::DrainCrash`] when the space has no drain
/// windows). Deterministic in `(space, seed, count)`.
pub fn generate_campaigns(space: &CampaignSpace, seed: u64, count: usize) -> Vec<Campaign> {
    let kinds: Vec<CampaignKind> = CampaignKind::ALL
        .into_iter()
        .filter(|k| *k != CampaignKind::DrainCrash || !space.drain_windows.is_empty())
        .collect();
    (0..count)
        .map(|i| {
            let kind = kinds[i % kinds.len()];
            let campaign_seed = seed.wrapping_add(i as u64);
            Campaign {
                kind,
                seed: campaign_seed,
                plan: generate_plan(space, kind, campaign_seed),
            }
        })
        .collect()
}

/// Build the fault plan for one `(kind, seed)` point of `space`.
pub fn generate_plan(space: &CampaignSpace, kind: CampaignKind, seed: u64) -> FaultPlan {
    let mut rng = Rng(seed ^ 0xc0ff_ee00_dead_beef);
    let lo = space.horizon.nanos() / 10;
    let hi = space.horizon.nanos().max(lo + 2);
    let crashable = space.crashable();
    let mut plan = FaultPlan::new(seed);
    match kind {
        CampaignKind::CrashStorm => {
            let k = rng.range(1, u64::from(space.max_crashes) + 1) as usize;
            let mut nodes = crashable.clone();
            for i in 0..k.min(nodes.len()) {
                let pick = i + rng.below((nodes.len() - i) as u64) as usize;
                nodes.swap(i, pick);
                plan = plan.crash_node(nodes[i], SimTime(rng.range(lo, hi)));
            }
        }
        CampaignKind::Correlated => {
            // One instant takes out a block of consecutive nodes — the
            // correlated rack/PDU failure mode.
            let at = SimTime(rng.range(lo, hi));
            let k = (rng.range(2, u64::from(space.max_crashes).max(2) + 1) as usize)
                .min(crashable.len());
            let start = rng.below((crashable.len() - k + 1) as u64) as usize;
            for n in &crashable[start..start + k] {
                plan = plan.crash_node(*n, at);
            }
        }
        CampaignKind::StragglerBurst => {
            let bursts = rng.range(2, 4);
            for _ in 0..bursts {
                let node = NodeId(rng.below(u64::from(space.nodes)) as u32);
                let from = rng.range(lo, hi - 1);
                let until = rng.range(from + 1, hi);
                let factor = 2.0 + rng.below(30) as f64;
                plan = plan.slow_node(node, SimTime(from), SimTime(until), factor);
            }
        }
        CampaignKind::PartitionDrop => {
            let a = NodeId(rng.below(u64::from(space.nodes)) as u32);
            let b = NodeId(
                ((a.0 as u64 + 1 + rng.below(u64::from(space.nodes) - 1)) % u64::from(space.nodes))
                    as u32,
            );
            let from = rng.range(lo, hi - 1);
            let until = rng.range(from + 1, hi);
            plan = plan
                .partition_link(a, b, SimTime(from), SimTime(until))
                .drop_messages(rng.range(10_000, 200_000) as u32);
        }
        CampaignKind::DrainCrash => {
            // Aim inside a drain window so the in-flight snapshot is
            // torn; restart must fall back to the last drained one.
            let at = if space.drain_windows.is_empty() {
                SimTime(rng.range(lo, hi))
            } else {
                let (issue, done) =
                    space.drain_windows[rng.below(space.drain_windows.len() as u64) as usize];
                let span = done.nanos().saturating_sub(issue.nanos()).max(2);
                SimTime(issue.nanos() + rng.range(1, span))
            };
            let node = crashable[rng.below(crashable.len() as u64) as usize];
            plan = plan.crash_node(node, at);
        }
    }
    plan
}

/// How one campaign run ended.
#[derive(Debug, Clone)]
pub enum CampaignOutcome {
    /// The run produced a result digest-equal to the fault-free oracle.
    OracleEqual,
    /// The runtime gave up loudly with a [`StructuredAbort`] — an
    /// acceptable terminal state (e.g. `MPI_Abort`, a Spark job
    /// failure after the retry budget).
    Abort(StructuredAbort),
    /// Anything else: silent corruption, a non-structured panic, or a
    /// simulated deadlock. These get shrunk and reported.
    Violation {
        /// Human-readable description of what went wrong.
        detail: String,
    },
}

impl CampaignOutcome {
    /// Whether this outcome violates the robustness contract.
    pub fn is_violation(&self) -> bool {
        matches!(self, CampaignOutcome::Violation { .. })
    }
}

/// Run `run` and classify its ending against `oracle`: digest-equal,
/// structured abort, or violation. Panics that are not
/// [`StructuredAbort`]s (including the engine's deadlock aborts) are
/// violations — the runtime broke instead of giving up loudly.
pub fn classify_run<R, F>(oracle: &R, run: F) -> CampaignOutcome
where
    R: PartialEq + std::fmt::Debug,
    F: FnOnce() -> R,
{
    match std::panic::catch_unwind(AssertUnwindSafe(run)) {
        Ok(ref r) if r == oracle => CampaignOutcome::OracleEqual,
        Ok(r) => CampaignOutcome::Violation {
            detail: format!("silent corruption: got {r:?}, oracle {oracle:?}"),
        },
        Err(payload) => match StructuredAbort::from_panic(payload.as_ref() as &(dyn Any + Send)) {
            Some(sa) => CampaignOutcome::Abort(sa),
            None => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                CampaignOutcome::Violation {
                    detail: format!("runtime panic: {msg}"),
                }
            }
        },
    }
}

/// Greedy delta debugging over [`FaultPlan::atoms`]: repeatedly try
/// dropping each atom, keeping any removal under which
/// `still_violates` holds, until no single atom can be removed. The
/// result is a 1-minimal violating plan — usually one or two atoms —
/// small enough to paste into a regression test.
pub fn shrink_plan<F>(plan: &FaultPlan, mut still_violates: F) -> FaultPlan
where
    F: FnMut(&FaultPlan) -> bool,
{
    let mut atoms = plan.atoms();
    let mut progress = true;
    while progress && atoms.len() > 1 {
        progress = false;
        let mut i = 0;
        while i < atoms.len() && atoms.len() > 1 {
            let mut candidate = atoms.clone();
            candidate.remove(i);
            let smaller = plan.from_atoms(&candidate);
            if still_violates(&smaller) {
                atoms = candidate;
                progress = true;
            } else {
                i += 1;
            }
        }
    }
    plan.from_atoms(&atoms)
}

/// Aggregate tallies of a campaign sweep (one runtime).
#[derive(Debug, Clone, Default)]
pub struct CampaignTally {
    /// Runs digest-equal to the oracle.
    pub oracle_equal: usize,
    /// Runs ending in a structured abort.
    pub aborts: usize,
    /// Violations, with the campaign that triggered each and its
    /// shrunk minimal plan description.
    pub violations: Vec<(CampaignKind, u64, String)>,
}

impl CampaignTally {
    /// Total classified runs.
    pub fn total(&self) -> usize {
        self.oracle_equal + self.aborts + self.violations.len()
    }

    /// Record one classified outcome (violations carry the shrunk
    /// plan's description).
    pub fn record(&mut self, campaign: &Campaign, outcome: &CampaignOutcome, shrunk: Option<&str>) {
        match outcome {
            CampaignOutcome::OracleEqual => self.oracle_equal += 1,
            CampaignOutcome::Abort(_) => self.aborts += 1,
            CampaignOutcome::Violation { detail } => self.violations.push((
                campaign.kind,
                campaign.seed,
                match shrunk {
                    Some(s) => format!("{detail}\nshrunk minimal plan:\n{s}"),
                    None => detail.clone(),
                },
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcbd_simnet::FaultAtom;

    fn space() -> CampaignSpace {
        CampaignSpace::new(4, SimTime(1_000_000_000))
            .protect(NodeId(0))
            .with_drain_windows(vec![
                (SimTime(100_000_000), SimTime(180_000_000)),
                (SimTime(400_000_000), SimTime(490_000_000)),
            ])
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        let a = generate_campaigns(&space(), 42, 20);
        let b = generate_campaigns(&space(), 42, 20);
        assert_eq!(a.len(), 20);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.plan.atoms(), y.plan.atoms());
            assert!(!x.plan.atoms().is_empty(), "campaigns must inject faults");
            // Protected nodes are never crashed.
            for atom in x.plan.atoms() {
                if let FaultAtom::Crash { node, .. } = atom {
                    assert_ne!(node, NodeId(0), "node 0 is protected");
                }
            }
        }
        // All kinds appear in rotation.
        for kind in CampaignKind::ALL {
            assert!(a.iter().any(|c| c.kind == kind), "missing {kind}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_campaigns(&space(), 1, 5);
        let b = generate_campaigns(&space(), 2, 5);
        assert!(
            a.iter()
                .zip(&b)
                .any(|(x, y)| x.plan.atoms() != y.plan.atoms()),
            "seeds must matter"
        );
    }

    #[test]
    fn drain_crash_campaigns_land_inside_windows() {
        let sp = space();
        let campaigns = generate_campaigns(&sp, 7, 25);
        let mut seen = 0;
        for c in campaigns {
            if c.kind != CampaignKind::DrainCrash {
                continue;
            }
            seen += 1;
            for atom in c.plan.atoms() {
                if let FaultAtom::Crash { at, .. } = atom {
                    assert!(
                        sp.drain_windows
                            .iter()
                            .any(|(issue, done)| *issue < at && at < *done),
                        "drain-crash at {at} outside every window"
                    );
                }
            }
        }
        assert!(seen >= 4, "rotation must produce drain-crash campaigns");
    }

    #[test]
    fn classify_distinguishes_the_three_endings() {
        let oracle = 10u32;
        assert!(matches!(
            classify_run(&oracle, || 10u32),
            CampaignOutcome::OracleEqual
        ));
        assert!(classify_run(&oracle, || 11u32).is_violation());
        match classify_run(&oracle, || -> u32 {
            StructuredAbort::raise("mpi", "MPI_Abort: test")
        }) {
            CampaignOutcome::Abort(sa) => assert_eq!(sa.runtime, "mpi"),
            other => panic!("expected abort, got {other:?}"),
        }
        match classify_run(&oracle, || -> u32 { panic!("index out of bounds") }) {
            CampaignOutcome::Violation { detail } => {
                assert!(detail.contains("index out of bounds"), "{detail}")
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn shrinker_reaches_the_minimal_plan() {
        // Violation iff the plan crashes node 2 — everything else is
        // noise the shrinker must strip.
        let plan = FaultPlan::new(9)
            .crash_node(NodeId(1), SimTime(10_000))
            .crash_node(NodeId(2), SimTime(20_000))
            .crash_node(NodeId(3), SimTime(30_000))
            .slow_node(NodeId(1), SimTime(0), SimTime(50_000), 4.0)
            .drop_messages(5_000);
        let violates = |p: &FaultPlan| {
            p.atoms()
                .iter()
                .any(|a| matches!(a, FaultAtom::Crash { node, .. } if *node == NodeId(2)))
        };
        assert!(violates(&plan));
        let minimal = shrink_plan(&plan, violates);
        assert_eq!(
            minimal.atoms().len(),
            1,
            "1-minimal: {}",
            minimal.describe()
        );
        assert!(violates(&minimal));
        assert_eq!(minimal.seed(), plan.seed(), "seed survives shrinking");
    }

    #[test]
    fn straggler_and_partition_intervals_are_nonempty() {
        let sp = CampaignSpace::new(3, SimTime(500_000));
        for seed in 0..50 {
            // Builders panic on zero-duration intervals; constructing
            // every kind across many seeds proves the generator
            // respects the validation envelope.
            for kind in CampaignKind::ALL {
                if kind == CampaignKind::DrainCrash {
                    continue;
                }
                let _ = generate_plan(&sp, kind, seed);
            }
        }
    }
}
