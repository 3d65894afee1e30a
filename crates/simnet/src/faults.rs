//! Deterministic fault injection: the [`FaultPlan`].
//!
//! A `FaultPlan` is a declarative, virtual-time-scheduled description of
//! everything that goes wrong during a run: node crashes at a `SimTime`,
//! straggler slowdowns over an interval, link degradation or partition
//! between node pairs, and per-message drops. It is installed once per
//! simulation ([`crate::Sim::set_fault_plan`]) and every layer — engine,
//! transports, storage, and all the mini-runtimes built on top — reads
//! the *same* plan, so an MPI job and a Spark job can be subjected to an
//! identical failure world and their recovery costs compared.
//!
//! # Determinism
//!
//! Nothing in this module consults the wall clock or OS randomness.
//!
//! * Crashes, stragglers, and link faults are pure functions of virtual
//!   time, which the engine already reproduces bit-for-bit.
//! * Per-message drops do not draw from a mutable RNG stream in the
//!   order processes happen to call `send`. Instead the engine assigns
//!   every inter-node message a sequence number from a counter
//!   incremented *inside the send commit window*. Commit windows are
//!   totally ordered in virtual time, so message
//!   `k` is the same message in every run; [`FaultPlan::should_drop`]
//!   then hashes `(seed, k)` with the fixed-seed FNV-1a hasher
//!   ([`crate::det_hash`]) and drops when `hash % 1_000_000 < drop_ppm`.
//!   The drop decision is a pure function of the plan and the message's
//!   position in the committed total order.
//!
//! "Dropped" messages are modeled the way reliable transports (TCP,
//! RC verbs) surface loss: the payload is delivered late by the
//! retransmission delay rather than vanishing, so protocols above never
//! lose control messages outright but *do* see timeouts fire, which is
//! what exercises their failure detectors. Process failure (a crashed
//! node) is real loss: runtimes terminate their server loops at the
//! plan's crash time and everything hosted there is gone.

use crate::hash::det_hash;
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;

/// What an active link fault does to traffic between a node pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFault {
    /// Wire + latency cost inflated by this factor (> 1.0).
    Degrade(f64),
    /// No delivery until the fault interval ends; messages sent during
    /// the partition arrive at heal time plus the retransmit delay.
    Partition,
}

/// A scheduled link fault between two nodes (symmetric), active on
/// messages *sent* in `[from, until)`.
#[derive(Debug, Clone, Copy)]
struct LinkSpec {
    a: NodeId,
    b: NodeId,
    from: SimTime,
    until: SimTime,
    fault: LinkFault,
}

/// A scheduled straggler interval: `node` runs `factor`× slower on
/// compute and local-disk work started in `[from, until)`.
#[derive(Debug, Clone, Copy)]
struct StragglerSpec {
    node: NodeId,
    from: SimTime,
    until: SimTime,
    factor: f64,
}

/// A structured record of an injected fault or a runtime's recovery
/// action, carried in the execution trace
/// ([`crate::trace::EventKind::Fault`]) with its virtual timestamp.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FaultEvent {
    /// A node reached its scheduled crash time; recorded by each server
    /// process on the node as it terminates.
    NodeCrash {
        /// The crashed node.
        node: NodeId,
    },
    /// An inter-node message was "dropped" and retransmitted.
    MessageDropped {
        /// Destination process of the affected message.
        dst: crate::engine::Pid,
        /// Logical payload bytes.
        bytes: u64,
        /// Extra delivery delay charged (the retransmission).
        delay: SimDuration,
    },
    /// A message crossed a degraded link.
    LinkDegraded {
        /// Destination node of the affected message.
        dst_node: NodeId,
        /// Logical payload bytes.
        bytes: u64,
        /// Extra delivery delay charged.
        delay: SimDuration,
    },
    /// A message was sent into a network partition and delivery stalled
    /// until the partition healed.
    LinkPartitioned {
        /// Destination node of the affected message.
        dst_node: NodeId,
        /// Logical payload bytes.
        bytes: u64,
        /// Extra delivery delay charged.
        delay: SimDuration,
    },
    /// A runtime performed a recovery action (task retry, speculative
    /// copy, re-replication, checkpoint restart, ...). `runtime` and
    /// `action` are short static labels; `detail` is an action-specific
    /// quantity (task id, block id, iteration, ...).
    Recovery {
        /// Which runtime recovered ("spark", "mapreduce", "hdfs", "mpi").
        runtime: &'static str,
        /// What it did ("task_retry", "re_replicate", "restart", ...).
        action: &'static str,
        /// Action-specific quantity.
        detail: u64,
    },
}

impl FaultEvent {
    /// Short label for trace rendering.
    pub fn label(&self) -> &'static str {
        match self {
            FaultEvent::NodeCrash { .. } => "node_crash",
            FaultEvent::MessageDropped { .. } => "msg_drop",
            FaultEvent::LinkDegraded { .. } => "link_degrade",
            FaultEvent::LinkPartitioned { .. } => "link_partition",
            FaultEvent::Recovery { .. } => "recovery",
        }
    }

    /// Extra virtual delay this event injected into the run (zero for
    /// events that carry no delay, like crashes and recovery actions).
    pub fn injected_delay(&self) -> SimDuration {
        match self {
            FaultEvent::MessageDropped { delay, .. }
            | FaultEvent::LinkDegraded { delay, .. }
            | FaultEvent::LinkPartitioned { delay, .. } => *delay,
            FaultEvent::NodeCrash { .. } | FaultEvent::Recovery { .. } => SimDuration::ZERO,
        }
    }
}

/// A deterministic, virtual-time-scheduled fault scenario. Built with
/// the chained constructors, installed with
/// [`crate::Sim::set_fault_plan`], and read by the engine and every
/// runtime. See the module docs for the determinism argument.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    drop_ppm: u32,
    retransmit: SimDuration,
    crashes: Vec<(NodeId, SimTime)>,
    stragglers: Vec<StragglerSpec>,
    links: Vec<LinkSpec>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// An empty plan. `seed` only matters once message drops are enabled.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_ppm: 0,
            retransmit: SimDuration::from_millis(200),
            crashes: Vec::new(),
            stragglers: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Schedule `node` to fail permanently at virtual time `at`.
    ///
    /// Crashes are permanent, so a second crash for the same node is a
    /// contradiction in the plan (which one do failure detectors
    /// replay?) and is rejected.
    pub fn crash_node(mut self, node: NodeId, at: SimTime) -> FaultPlan {
        assert!(
            self.crash_time(node).is_none(),
            "duplicate crash scheduled for node n{}: crashes are permanent, \
             one crash time per node",
            node.0
        );
        self.crashes.push((node, at));
        self
    }

    /// Make `node` a straggler: compute and local-disk operations started
    /// in `[from, until)` take `factor`× as long (factor > 1.0 slows).
    pub fn slow_node(
        mut self,
        node: NodeId,
        from: SimTime,
        until: SimTime,
        factor: f64,
    ) -> FaultPlan {
        assert!(factor > 0.0, "straggler factor must be positive");
        assert!(
            from < until,
            "zero-duration straggler interval on node n{}: [{from}, {until}) is empty",
            node.0
        );
        self.stragglers.push(StragglerSpec {
            node,
            from,
            until,
            factor,
        });
        self
    }

    /// Degrade the (symmetric) link between `a` and `b`: messages sent in
    /// `[from, until)` pay `factor`× the wire + latency cost.
    pub fn degrade_link(
        mut self,
        a: NodeId,
        b: NodeId,
        from: SimTime,
        until: SimTime,
        factor: f64,
    ) -> FaultPlan {
        assert!(factor >= 1.0, "degrade factor must be >= 1.0");
        assert!(
            from < until,
            "zero-duration link-degrade interval n{}-n{}: [{from}, {until}) is empty",
            a.0,
            b.0
        );
        self.links.push(LinkSpec {
            a,
            b,
            from,
            until,
            fault: LinkFault::Degrade(factor),
        });
        self
    }

    /// Partition the (symmetric) link between `a` and `b` for
    /// `[from, until)`: messages sent inside the window are held until
    /// the partition heals, then delivered after the retransmit delay.
    pub fn partition_link(
        mut self,
        a: NodeId,
        b: NodeId,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlan {
        assert!(
            from < until,
            "zero-duration partition interval n{}-n{}: [{from}, {until}) is empty",
            a.0,
            b.0
        );
        self.links.push(LinkSpec {
            a,
            b,
            from,
            until,
            fault: LinkFault::Partition,
        });
        self
    }

    /// Drop `ppm` out of every million inter-node messages (seeded
    /// counter-based hash; see module docs). Dropped messages are
    /// delivered late by the retransmit delay.
    pub fn drop_messages(mut self, ppm: u32) -> FaultPlan {
        assert!(
            ppm <= 1_000_000,
            "drop_messages rate is parts-per-million: {ppm} > 1_000_000"
        );
        self.drop_ppm = ppm;
        self
    }

    /// Override the retransmission delay charged to dropped and
    /// partition-held messages (default 200 ms — a TCP RTO-scale value).
    pub fn retransmit_delay(mut self, d: SimDuration) -> FaultPlan {
        self.retransmit = d;
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.drop_ppm == 0
            && self.crashes.is_empty()
            && self.stragglers.is_empty()
            && self.links.is_empty()
    }

    /// Whether per-message drops are enabled (the engine only burns
    /// message sequence numbers when they are).
    pub fn has_drops(&self) -> bool {
        self.drop_ppm > 0
    }

    /// The retransmission delay charged to dropped / partition-held
    /// messages.
    pub fn retransmit(&self) -> SimDuration {
        self.retransmit
    }

    /// Earliest scheduled crash time of `node`, if any.
    pub fn crash_time(&self, node: NodeId) -> Option<SimTime> {
        self.crashes
            .iter()
            .filter(|&&(n, _)| n == node)
            .map(|&(_, t)| t)
            .min()
    }

    /// All scheduled crashes, as declared.
    pub fn crashes(&self) -> &[(NodeId, SimTime)] {
        &self.crashes
    }

    /// Crashes at or before `at` over the first `nodes` node ids, in
    /// deterministic `(time, node)` order — what an SPMD failure
    /// detector replays to agree on the failure history.
    pub fn crashes_through(&self, nodes: u32, at: SimTime) -> Vec<(NodeId, SimTime)> {
        let mut v: Vec<(NodeId, SimTime)> = (0..nodes)
            .filter_map(|n| self.crash_time(NodeId(n)).map(|t| (NodeId(n), t)))
            .filter(|&(_, t)| t <= at)
            .collect();
        v.sort_by_key(|&(n, t)| (t, n));
        v
    }

    /// Slowdown factor for work started on `node` at time `at` (product
    /// of all active straggler intervals; `1.0` when healthy).
    pub fn compute_factor(&self, node: NodeId, at: SimTime) -> f64 {
        let mut f = 1.0;
        for s in &self.stragglers {
            if s.node == node && at >= s.from && at < s.until {
                f *= s.factor;
            }
        }
        f
    }

    /// The link fault (if any) affecting a message sent between `a` and
    /// `b` at time `at`, with the fault's end time. Link specs are
    /// symmetric; the first matching spec wins.
    pub fn link_fault(&self, a: NodeId, b: NodeId, at: SimTime) -> Option<(LinkFault, SimTime)> {
        self.links
            .iter()
            .find(|l| {
                ((l.a == a && l.b == b) || (l.a == b && l.b == a)) && at >= l.from && at < l.until
            })
            .map(|l| (l.fault, l.until))
    }

    /// Deterministic drop decision for the inter-node message holding
    /// sequence number `counter` in the committed total order.
    pub fn should_drop(&self, counter: u64) -> bool {
        self.drop_ppm > 0 && det_hash(&(self.seed, counter)) % 1_000_000 < self.drop_ppm as u64
    }

    /// The drop seed (atoms + seed + retransmit rebuild an equal plan).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decompose the plan into its indivisible injected faults, in
    /// declaration order. `atoms` / [`FaultPlan::with_atom`] are the
    /// campaign shrinker's interface: a violation is minimized by
    /// rebuilding plans from subsets of these atoms (seed and
    /// retransmit delay carry over unchanged) until no atom can be
    /// removed without the violation disappearing.
    pub fn atoms(&self) -> Vec<FaultAtom> {
        let mut v = Vec::new();
        for &(node, at) in &self.crashes {
            v.push(FaultAtom::Crash { node, at });
        }
        for s in &self.stragglers {
            v.push(FaultAtom::Straggler {
                node: s.node,
                from: s.from,
                until: s.until,
                factor: s.factor,
            });
        }
        for l in &self.links {
            v.push(match l.fault {
                LinkFault::Degrade(factor) => FaultAtom::Degrade {
                    a: l.a,
                    b: l.b,
                    from: l.from,
                    until: l.until,
                    factor,
                },
                LinkFault::Partition => FaultAtom::Partition {
                    a: l.a,
                    b: l.b,
                    from: l.from,
                    until: l.until,
                },
            });
        }
        if self.drop_ppm > 0 {
            v.push(FaultAtom::Drops { ppm: self.drop_ppm });
        }
        v
    }

    /// Add one atom back through the validating builder methods.
    pub fn with_atom(self, atom: FaultAtom) -> FaultPlan {
        match atom {
            FaultAtom::Crash { node, at } => self.crash_node(node, at),
            FaultAtom::Straggler {
                node,
                from,
                until,
                factor,
            } => self.slow_node(node, from, until, factor),
            FaultAtom::Degrade {
                a,
                b,
                from,
                until,
                factor,
            } => self.degrade_link(a, b, from, until, factor),
            FaultAtom::Partition { a, b, from, until } => self.partition_link(a, b, from, until),
            FaultAtom::Drops { ppm } => self.drop_messages(ppm),
        }
    }

    /// Rebuild a plan from a subset of atoms, keeping this plan's seed
    /// and retransmit delay (so drop decisions for surviving `Drops`
    /// atoms are unchanged).
    pub fn from_atoms(&self, atoms: &[FaultAtom]) -> FaultPlan {
        let mut p = FaultPlan::new(self.seed).retransmit_delay(self.retransmit);
        for a in atoms {
            p = p.with_atom(a.clone());
        }
        p
    }

    /// Human-readable one-line-per-atom rendering — the repro format
    /// the campaign runner writes for a shrunk minimal fault plan.
    pub fn describe(&self) -> String {
        let atoms = self.atoms();
        if atoms.is_empty() {
            return format!("fault plan (seed {}): empty\n", self.seed);
        }
        let mut s = format!(
            "fault plan (seed {}, retransmit {}):\n",
            self.seed, self.retransmit
        );
        for a in atoms {
            s.push_str(&format!("  {a}\n"));
        }
        s
    }
}

/// One indivisible injected fault — the unit the campaign shrinker adds
/// and removes. See [`FaultPlan::atoms`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAtom {
    /// [`FaultPlan::crash_node`].
    Crash {
        /// Crashed node.
        node: NodeId,
        /// Crash time.
        at: SimTime,
    },
    /// [`FaultPlan::slow_node`].
    Straggler {
        /// Straggling node.
        node: NodeId,
        /// Interval start.
        from: SimTime,
        /// Interval end (exclusive).
        until: SimTime,
        /// Slowdown factor.
        factor: f64,
    },
    /// [`FaultPlan::degrade_link`].
    Degrade {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// Interval start.
        from: SimTime,
        /// Interval end (exclusive).
        until: SimTime,
        /// Cost inflation factor.
        factor: f64,
    },
    /// [`FaultPlan::partition_link`].
    Partition {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// Interval start.
        from: SimTime,
        /// Interval end (exclusive).
        until: SimTime,
    },
    /// [`FaultPlan::drop_messages`].
    Drops {
        /// Drop rate in parts-per-million.
        ppm: u32,
    },
}

impl std::fmt::Display for FaultAtom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultAtom::Crash { node, at } => write!(f, "crash n{} @ {at}", node.0),
            FaultAtom::Straggler {
                node,
                from,
                until,
                factor,
            } => write!(f, "straggler n{} x{factor} [{from}, {until})", node.0),
            FaultAtom::Degrade {
                a,
                b,
                from,
                until,
                factor,
            } => write!(f, "degrade n{}-n{} x{factor} [{from}, {until})", a.0, b.0),
            FaultAtom::Partition { a, b, from, until } => {
                write!(f, "partition n{}-n{} [{from}, {until})", a.0, b.0)
            }
            FaultAtom::Drops { ppm } => write!(f, "drop {ppm} ppm"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_hash_is_deterministic_and_seeded() {
        let plan = FaultPlan::new(42).drop_messages(50_000); // 5%
        let first: Vec<bool> = (0..4096).map(|k| plan.should_drop(k)).collect();
        let second: Vec<bool> = (0..4096).map(|k| plan.should_drop(k)).collect();
        assert_eq!(first, second, "same plan, same counters, same decisions");

        // The rate is roughly honored (5% of 4096 ≈ 205; allow wide slack).
        let drops = first.iter().filter(|&&d| d).count();
        assert!((50..400).contains(&drops), "5% of 4096 gave {drops} drops");

        // A different seed reshuffles which messages drop.
        let other = FaultPlan::new(43).drop_messages(50_000);
        let reshuffled: Vec<bool> = (0..4096).map(|k| other.should_drop(k)).collect();
        assert_ne!(first, reshuffled, "seed must change the drop set");

        // Zero rate never drops; full rate always drops.
        assert!(!FaultPlan::new(1).should_drop(7));
        let always = FaultPlan::new(1).drop_messages(1_000_000);
        assert!((0..1000).all(|k| always.should_drop(k)));
    }

    #[test]
    fn crash_and_straggler_queries() {
        let plan = FaultPlan::new(0)
            .crash_node(NodeId(2), SimTime(3_000))
            .crash_node(NodeId(1), SimTime(9_000))
            .slow_node(NodeId(0), SimTime(100), SimTime(200), 4.0);
        assert_eq!(plan.crash_time(NodeId(2)), Some(SimTime(3_000)));
        assert_eq!(plan.crash_time(NodeId(0)), None);
        assert_eq!(
            plan.crashes_through(3, SimTime(4_000)),
            vec![(NodeId(2), SimTime(3_000))]
        );
        assert_eq!(
            plan.crashes_through(3, SimTime(10_000)),
            vec![(NodeId(2), SimTime(3_000)), (NodeId(1), SimTime(9_000))]
        );
        assert_eq!(plan.compute_factor(NodeId(0), SimTime(150)), 4.0);
        assert_eq!(plan.compute_factor(NodeId(0), SimTime(200)), 1.0);
        assert_eq!(plan.compute_factor(NodeId(1), SimTime(150)), 1.0);
    }

    #[test]
    fn crash_exactly_at_the_query_time_is_visible() {
        // `crashes_through(_, at)` is inclusive: a detector polling at
        // exactly the crash instant must see the crash, and
        // `crash_time` must report it unchanged.
        let plan = FaultPlan::new(0).crash_node(NodeId(1), SimTime(5_000));
        assert_eq!(plan.crash_time(NodeId(1)), Some(SimTime(5_000)));
        assert_eq!(
            plan.crashes_through(2, SimTime(5_000)),
            vec![(NodeId(1), SimTime(5_000))]
        );
        assert_eq!(plan.crashes_through(2, SimTime(4_999)), vec![]);
        // A crash at time zero is legal and immediately visible.
        let early = FaultPlan::new(0).crash_node(NodeId(0), SimTime::ZERO);
        assert_eq!(
            early.crashes_through(1, SimTime::ZERO),
            vec![(NodeId(0), SimTime::ZERO)]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate crash scheduled for node n2")]
    fn duplicate_crash_for_a_node_is_rejected() {
        let _ = FaultPlan::new(0)
            .crash_node(NodeId(2), SimTime(5_000))
            .crash_node(NodeId(2), SimTime(3_000));
    }

    #[test]
    #[should_panic(expected = "parts-per-million")]
    fn drop_rate_above_one_million_ppm_is_rejected() {
        let _ = FaultPlan::new(0).drop_messages(1_000_001);
    }

    #[test]
    #[should_panic(expected = "zero-duration straggler interval")]
    fn zero_duration_straggler_interval_is_rejected() {
        let _ = FaultPlan::new(0).slow_node(NodeId(0), SimTime(100), SimTime(100), 2.0);
    }

    #[test]
    #[should_panic(expected = "zero-duration partition interval")]
    fn zero_duration_partition_interval_is_rejected() {
        let _ = FaultPlan::new(0).partition_link(NodeId(0), NodeId(1), SimTime(50), SimTime(50));
    }

    #[test]
    #[should_panic(expected = "zero-duration link-degrade interval")]
    fn zero_duration_degrade_interval_is_rejected() {
        let _ = FaultPlan::new(0).degrade_link(NodeId(0), NodeId(1), SimTime(9), SimTime(9), 2.0);
    }

    #[test]
    fn atoms_roundtrip_through_the_builders() {
        let plan = FaultPlan::new(7)
            .retransmit_delay(SimDuration::from_millis(50))
            .crash_node(NodeId(2), SimTime(3_000))
            .slow_node(NodeId(0), SimTime(100), SimTime(200), 4.0)
            .degrade_link(NodeId(0), NodeId(1), SimTime(10), SimTime(20), 3.0)
            .partition_link(NodeId(1), NodeId(2), SimTime(0), SimTime(100))
            .drop_messages(50_000);
        let atoms = plan.atoms();
        assert_eq!(atoms.len(), 5);
        let rebuilt = plan.from_atoms(&atoms);
        assert_eq!(rebuilt.seed(), 7);
        assert_eq!(rebuilt.retransmit(), SimDuration::from_millis(50));
        assert_eq!(rebuilt.atoms(), atoms);
        assert_eq!(rebuilt.describe(), plan.describe());
        // Drop decisions survive the rebuild (same seed, same rate).
        assert!((0..512).all(|k| rebuilt.should_drop(k) == plan.should_drop(k)));
        // A subset rebuild keeps only the chosen atoms.
        let only_crash = plan.from_atoms(&atoms[..1]);
        assert_eq!(only_crash.atoms(), atoms[..1].to_vec());
        assert!(!only_crash.has_drops());
        // Empty subset is the empty plan.
        assert!(plan.from_atoms(&[]).is_empty());
    }

    #[test]
    fn link_faults_are_symmetric_and_windowed() {
        let plan = FaultPlan::new(0)
            .degrade_link(NodeId(0), NodeId(1), SimTime(10), SimTime(20), 3.0)
            .partition_link(NodeId(1), NodeId(2), SimTime(0), SimTime(100));
        assert!(matches!(
            plan.link_fault(NodeId(1), NodeId(0), SimTime(15)),
            Some((LinkFault::Degrade(f), SimTime(20))) if f == 3.0
        ));
        assert_eq!(plan.link_fault(NodeId(0), NodeId(1), SimTime(20)), None);
        assert_eq!(
            plan.link_fault(NodeId(2), NodeId(1), SimTime(50)),
            Some((LinkFault::Partition, SimTime(100)))
        );
        assert_eq!(plan.link_fault(NodeId(0), NodeId(2), SimTime(50)), None);
    }
}
