//! Queue and slot accounting: the pure bookkeeping under the scheduler.
//!
//! Everything here is plain state-machine arithmetic — no virtual time,
//! no messages — so the invariants the scheduler relies on (slots never
//! leak, preemption victims are chosen deterministically, fairness
//! integrals add up) are unit-testable in isolation.

use hpcbd_simnet::NodeId;

/// Static description of one named queue.
#[derive(Debug, Clone, Copy)]
pub struct QueueSpec {
    /// Queue name (report label).
    pub name: &'static str,
    /// Weight for max-min fair sharing; the queue's *fair share* is
    /// `total_slots * weight / sum(weights)`.
    pub weight: u32,
    /// Hard cap on concurrently held slots; `None` = no cap.
    pub cap_slots: Option<u32>,
    /// Job-completion latency target for SLO attainment reporting.
    pub slo_target_ns: Option<u64>,
}

impl QueueSpec {
    /// A weighted queue with no cap and no SLO target.
    pub fn new(name: &'static str, weight: u32) -> QueueSpec {
        QueueSpec {
            name,
            weight,
            cap_slots: None,
            slo_target_ns: None,
        }
    }

    /// Set the slot cap.
    pub fn cap(mut self, slots: u32) -> QueueSpec {
        self.cap_slots = Some(slots);
        self
    }

    /// Set the latency SLO target.
    pub fn slo_ns(mut self, target_ns: u64) -> QueueSpec {
        self.slo_target_ns = Some(target_ns);
        self
    }
}

/// This queue's fair share of `total` slots under max-min weighting.
pub fn fair_share(total: u32, weights: &[u32], qi: usize) -> f64 {
    let sum: u32 = weights.iter().sum();
    if sum == 0 {
        return 0.0;
    }
    total as f64 * weights[qi] as f64 / sum as f64
}

/// State of one slot in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Idle; dispatchable.
    Free,
    /// Running a task for `queue`; `seq` is the global dispatch sequence
    /// number (newest-first victim ordering), `preemptable` whether the
    /// task accepts a mid-run kill.
    Busy {
        /// Holding queue index.
        queue: usize,
        /// Task accepts preemption.
        preemptable: bool,
        /// Global dispatch sequence number.
        seq: u64,
    },
    /// A kill is in flight; the slot still counts against `queue` until
    /// the worker acknowledges (done or preempted).
    Reclaiming {
        /// Holding queue index.
        queue: usize,
    },
}

/// Per-node slot ledger over the cluster topology. Slot `s` lives on
/// node `s / per_node`; racks are contiguous groups of `rack_size`
/// nodes (Comet-style racks on an oversubscription-free fabric — the
/// rack level matters for locality preferences, not bandwidth). The
/// last rack is partial when `nodes % rack_size != 0`.
///
/// The scheduler queries the ledger once per pending task per message,
/// so every query answers from counters that `reserve` / `release` /
/// `mark_reclaiming` maintain: counts are field reads, and a slot search
/// gives up at once on a zero counter and otherwise walks rack, node and
/// slot only as far as the first one with a free slot. Invariant: each
/// counter equals what a scan of `state` would count (the unit tests
/// keep that scan as their oracle).
#[derive(Debug, Clone)]
pub struct SlotLedger {
    per_node: u32,
    rack_size: u32,
    state: Vec<SlotState>,
    free: u32,
    reclaiming: u32,
    /// Busy + reclaiming slots per queue; grows to the highest queue
    /// index ever reserved for.
    queue_usage: Vec<u32>,
    node_free: Vec<u32>,
    rack_free: Vec<u32>,
}

impl SlotLedger {
    /// A ledger of `nodes * per_node` free slots.
    pub fn new(nodes: u32, per_node: u32, rack_size: u32) -> SlotLedger {
        assert!(nodes > 0 && per_node > 0 && rack_size > 0);
        let rack_free = (0..nodes.div_ceil(rack_size))
            .map(|r| (nodes - r * rack_size).min(rack_size) * per_node)
            .collect();
        SlotLedger {
            per_node,
            rack_size,
            state: vec![SlotState::Free; (nodes * per_node) as usize],
            free: nodes * per_node,
            reclaiming: 0,
            queue_usage: Vec::new(),
            node_free: vec![per_node; nodes as usize],
            rack_free,
        }
    }

    /// Total slots.
    pub fn total(&self) -> u32 {
        self.state.len() as u32
    }

    /// Slots per node.
    pub fn per_node(&self) -> u32 {
        self.per_node
    }

    /// The node hosting slot `s`.
    pub fn node_of(&self, s: u32) -> NodeId {
        NodeId(s / self.per_node)
    }

    /// The rack of `node`.
    pub fn rack_of(&self, node: NodeId) -> u32 {
        node.0 / self.rack_size
    }

    /// Current state of slot `s`.
    pub fn state(&self, s: u32) -> SlotState {
        self.state[s as usize]
    }

    /// Number of free slots.
    pub fn free_count(&self) -> u32 {
        self.free
    }

    /// Number of slots with a kill in flight.
    pub fn reclaiming_count(&self) -> u32 {
        self.reclaiming
    }

    /// Slots currently charged to `queue` (busy + reclaiming).
    pub fn usage(&self, queue: usize) -> u32 {
        self.queue_usage.get(queue).copied().unwrap_or(0)
    }

    /// [`SlotLedger::usage`] of every queue that ever held a slot, by
    /// queue index (queues past the end hold nothing).
    pub fn usages(&self) -> &[u32] {
        &self.queue_usage
    }

    /// Lowest-numbered free slot on `node`.
    pub fn free_on(&self, node: NodeId) -> Option<u32> {
        if self.node_free[node.0 as usize] == 0 {
            return None;
        }
        let start = node.0 * self.per_node;
        (start..start + self.per_node).find(|s| self.state[*s as usize] == SlotState::Free)
    }

    /// Lowest-numbered free slot in `node`'s rack (any node of the rack,
    /// including `node` itself).
    pub fn free_in_rack(&self, node: NodeId) -> Option<u32> {
        let rack = self.rack_of(node);
        if self.rack_free[rack as usize] == 0 {
            return None;
        }
        let nodes = self.node_free.len() as u32;
        let first = rack * self.rack_size;
        (first..(first + self.rack_size).min(nodes)).find_map(|nd| self.free_on(NodeId(nd)))
    }

    /// Lowest-numbered free slot anywhere.
    pub fn free_any(&self) -> Option<u32> {
        if self.free == 0 {
            return None;
        }
        let rack = self.rack_free.iter().position(|f| *f > 0)? as u32;
        self.free_in_rack(NodeId(rack * self.rack_size))
    }

    /// Atomically pick `n` free slots for a gang, spreading over the
    /// nodes with the most free slots first (deterministic tie-break on
    /// node id). `None` if fewer than `n` slots are free.
    pub fn gang_pick(&self, n: u32) -> Option<Vec<u32>> {
        if self.free < n {
            return None;
        }
        let mut order: Vec<u32> = (0..self.node_free.len() as u32).collect();
        order.sort_by_key(|nd| (std::cmp::Reverse(self.node_free[*nd as usize]), *nd));
        let mut picked = Vec::with_capacity(n as usize);
        for nd in order {
            for k in 0..self.per_node {
                let s = nd * self.per_node + k;
                if self.state[s as usize] == SlotState::Free {
                    picked.push(s);
                    if picked.len() == n as usize {
                        return Some(picked);
                    }
                }
            }
        }
        None
    }

    /// The free counters covering `slot`: total, its node, its rack.
    fn free_counters(&mut self, slot: u32) -> [&mut u32; 3] {
        let node = self.node_of(slot);
        let rack = self.rack_of(node);
        [
            &mut self.free,
            &mut self.node_free[node.0 as usize],
            &mut self.rack_free[rack as usize],
        ]
    }

    /// Mark `slot` busy for `queue`.
    pub fn reserve(&mut self, slot: u32, queue: usize, preemptable: bool, seq: u64) {
        assert_eq!(
            self.state[slot as usize],
            SlotState::Free,
            "reserve of non-free slot {slot}"
        );
        self.state[slot as usize] = SlotState::Busy {
            queue,
            preemptable,
            seq,
        };
        for c in self.free_counters(slot) {
            *c -= 1;
        }
        if queue >= self.queue_usage.len() {
            self.queue_usage.resize(queue + 1, 0);
        }
        self.queue_usage[queue] += 1;
    }

    /// Free `slot` (task done or preemption acknowledged).
    pub fn release(&mut self, slot: u32) {
        match self.state[slot as usize] {
            SlotState::Free => panic!("double release of slot {slot}"),
            SlotState::Busy { queue, .. } => self.queue_usage[queue] -= 1,
            SlotState::Reclaiming { queue } => {
                self.queue_usage[queue] -= 1;
                self.reclaiming -= 1;
            }
        }
        self.state[slot as usize] = SlotState::Free;
        for c in self.free_counters(slot) {
            *c += 1;
        }
    }

    /// Transition a busy slot to reclaiming (kill sent, ack pending).
    pub fn mark_reclaiming(&mut self, slot: u32) {
        match self.state[slot as usize] {
            SlotState::Busy { queue, .. } => {
                self.state[slot as usize] = SlotState::Reclaiming { queue };
                self.reclaiming += 1;
            }
            other => panic!("mark_reclaiming on {other:?}"),
        }
    }

    /// Choose a preemption victim to benefit `beneficiary`: among queues
    /// holding more than their fair share (and not the beneficiary),
    /// take the most-over-share queue (lowest index on ties), and within
    /// it the newest-dispatched preemptable busy slot. `None` when no
    /// queue is over share or the over-share queues hold nothing
    /// preemptable.
    pub fn pick_victim(&self, weights: &[u32], beneficiary: usize) -> Option<u32> {
        let total = self.total();
        // Every queue above its fair share, most-over first (queue index
        // breaks exact ties, deterministically). A queue whose busy
        // tasks are all non-preemptable (gangs) is skipped in favour of
        // the next most-over queue — otherwise one pinned gang could
        // shield every other over-share tenant from reclamation.
        let mut over_queues: Vec<(f64, usize)> = (0..weights.len())
            .filter(|qi| *qi != beneficiary)
            .filter_map(|qi| {
                let over = self.usage(qi) as f64 - fair_share(total, weights, qi);
                (over > 0.0).then_some((over, qi))
            })
            .collect();
        over_queues.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1.cmp(&b.1)));
        for (_, victim_q) in over_queues {
            let mut best: Option<(u64, u32)> = None;
            for (i, st) in self.state.iter().enumerate() {
                if let SlotState::Busy {
                    queue,
                    preemptable: true,
                    seq,
                } = st
                {
                    if *queue == victim_q && best.map(|(b, _)| *seq > b).unwrap_or(true) {
                        best = Some((*seq, i as u32));
                    }
                }
            }
            if let Some((_, s)) = best {
                return Some(s);
            }
        }
        None
    }
}

/// Integrates per-queue slot occupancy over virtual time, for fairness
/// and utilization reporting.
#[derive(Debug, Clone)]
pub struct ShareMeter {
    last_ns: u64,
    acc_slot_ns: Vec<u128>,
}

impl ShareMeter {
    /// A meter over `queues` queues starting at t = 0.
    pub fn new(queues: usize) -> ShareMeter {
        ShareMeter {
            last_ns: 0,
            acc_slot_ns: vec![0; queues],
        }
    }

    /// Account the interval since the last call at the given per-queue
    /// usages (call *before* applying a state change at `now_ns`).
    pub fn advance(&mut self, now_ns: u64, usages: &[u32]) {
        let dt = now_ns.saturating_sub(self.last_ns) as u128;
        self.last_ns = now_ns;
        for (acc, u) in self.acc_slot_ns.iter_mut().zip(usages) {
            *acc += dt * *u as u128;
        }
    }

    /// Accumulated slot-nanoseconds per queue.
    pub fn shares(&self) -> &[u128] {
        &self.acc_slot_ns
    }

    /// max/min ratio of weight-normalized shares, in thousandths, over
    /// queues with nonzero weight. 1000 = perfectly weighted-fair.
    /// `None` if any weighted queue received zero slot-time.
    pub fn maxmin_x1000(&self, weights: &[u32]) -> Option<u64> {
        let mut lo: Option<f64> = None;
        let mut hi: Option<f64> = None;
        for (acc, w) in self.acc_slot_ns.iter().zip(weights) {
            if *w == 0 {
                continue;
            }
            let norm = *acc as f64 / *w as f64;
            if norm == 0.0 {
                return None;
            }
            lo = Some(lo.map_or(norm, |v: f64| v.min(norm)));
            hi = Some(hi.map_or(norm, |v: f64| v.max(norm)));
        }
        match (lo, hi) {
            (Some(lo), Some(hi)) => Some((hi / lo * 1000.0).round() as u64),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full-scan ledger queries the counters replaced, kept verbatim
    /// as the reference the incremental answers must equal.
    mod scan {
        use super::*;

        pub fn free_count(l: &SlotLedger) -> u32 {
            l.state
                .iter()
                .filter(|s| matches!(s, SlotState::Free))
                .count() as u32
        }

        pub fn reclaiming_count(l: &SlotLedger) -> u32 {
            l.state
                .iter()
                .filter(|s| matches!(s, SlotState::Reclaiming { .. }))
                .count() as u32
        }

        pub fn usage(l: &SlotLedger, queue: usize) -> u32 {
            l.state
                .iter()
                .filter(|s| match s {
                    SlotState::Busy { queue: q, .. } | SlotState::Reclaiming { queue: q } => {
                        *q == queue
                    }
                    SlotState::Free => false,
                })
                .count() as u32
        }

        pub fn free_on(l: &SlotLedger, node: NodeId) -> Option<u32> {
            let start = node.0 * l.per_node;
            (start..start + l.per_node).find(|s| l.state[*s as usize] == SlotState::Free)
        }

        pub fn free_in_rack(l: &SlotLedger, node: NodeId) -> Option<u32> {
            let rack = l.rack_of(node);
            (0..l.total()).find(|s| {
                l.rack_of(l.node_of(*s)) == rack && l.state[*s as usize] == SlotState::Free
            })
        }

        pub fn free_any(l: &SlotLedger) -> Option<u32> {
            (0..l.total()).find(|s| l.state[*s as usize] == SlotState::Free)
        }

        pub fn gang_pick(l: &SlotLedger, n: u32) -> Option<Vec<u32>> {
            if free_count(l) < n {
                return None;
            }
            let nodes = l.total() / l.per_node;
            let mut order: Vec<u32> = (0..nodes).collect();
            order.sort_by_key(|nd| {
                let free = (0..l.per_node)
                    .filter(|k| l.state[(nd * l.per_node + k) as usize] == SlotState::Free)
                    .count() as u32;
                (std::cmp::Reverse(free), *nd)
            });
            let mut picked = Vec::with_capacity(n as usize);
            for nd in order {
                for k in 0..l.per_node {
                    let s = nd * l.per_node + k;
                    if l.state[s as usize] == SlotState::Free {
                        picked.push(s);
                        if picked.len() == n as usize {
                            return Some(picked);
                        }
                    }
                }
            }
            None
        }

        pub fn pick_victim(l: &SlotLedger, weights: &[u32], beneficiary: usize) -> Option<u32> {
            let total = l.total();
            let mut over_queues: Vec<(f64, usize)> = (0..weights.len())
                .filter(|qi| *qi != beneficiary)
                .filter_map(|qi| {
                    let over = usage(l, qi) as f64 - fair_share(total, weights, qi);
                    (over > 0.0).then_some((over, qi))
                })
                .collect();
            over_queues.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1.cmp(&b.1)));
            for (_, victim_q) in over_queues {
                let best = l
                    .state
                    .iter()
                    .enumerate()
                    .filter_map(|(i, st)| match st {
                        SlotState::Busy {
                            queue,
                            preemptable: true,
                            seq,
                        } if *queue == victim_q => Some((*seq, i as u32)),
                        _ => None,
                    })
                    .max_by_key(|(seq, _)| *seq);
                if let Some((_, s)) = best {
                    return Some(s);
                }
            }
            None
        }
    }

    const QUEUES: usize = 3;

    /// Every query of the incremental ledger against the scan oracle.
    fn assert_matches_scan(l: &SlotLedger, nodes: u32, gang: u32) {
        prop_assert_eq!(l.free_count(), scan::free_count(l));
        prop_assert_eq!(l.reclaiming_count(), scan::reclaiming_count(l));
        for q in 0..QUEUES + 1 {
            prop_assert_eq!(l.usage(q), scan::usage(l, q), "usage({})", q);
        }
        for nd in (0..nodes).map(NodeId) {
            prop_assert_eq!(l.free_on(nd), scan::free_on(l, nd), "free_on({:?})", nd);
            prop_assert_eq!(
                l.free_in_rack(nd),
                scan::free_in_rack(l, nd),
                "free_in_rack({:?})",
                nd
            );
        }
        prop_assert_eq!(l.free_any(), scan::free_any(l));
        for n in [0, 1, gang, l.free_count(), l.free_count() + 1] {
            prop_assert_eq!(l.gang_pick(n), scan::gang_pick(l, n), "gang_pick({})", n);
        }
        let weights = [3, 1, 0];
        for b in 0..QUEUES {
            prop_assert_eq!(
                l.pick_victim(&weights, b),
                scan::pick_victim(l, &weights, b),
                "pick_victim({})",
                b
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random reserve / release / mark_reclaiming sequences over
        /// random shapes (single-slot nodes, partial last rack): after
        /// every step the counters answer exactly what a scan answers.
        #[test]
        fn incremental_ledger_equals_scan_oracle(
            nodes in 1u32..12,
            per_node in 1u32..5,
            rack_size in 1u32..6,
            ops in proptest::collection::vec((0u32..4, any::<u32>(), 0usize..QUEUES, any::<bool>()), 0..160),
        ) {
            let mut l = SlotLedger::new(nodes, per_node, rack_size);
            assert_matches_scan(&l, nodes, 2);
            for (seq, &(op, pick, queue, preemptable)) in ops.iter().enumerate() {
                let slot = pick % l.total();
                // Ops 0 and 1 both reserve, so ledgers fill up and the
                // zero-counter early-outs are exercised; an op that does
                // not apply to the slot's state falls through to the one
                // that does.
                match (op, l.state(slot)) {
                    (_, SlotState::Free) => l.reserve(slot, queue, preemptable, seq as u64),
                    (2, SlotState::Busy { .. }) => l.mark_reclaiming(slot),
                    (0 | 1, SlotState::Busy { .. }) => match l.free_any() {
                        Some(s) => l.reserve(s, queue, preemptable, seq as u64),
                        None => l.release(slot),
                    },
                    (_, _) => l.release(slot),
                }
                assert_matches_scan(&l, nodes, pick % 7);
            }
        }
    }

    #[test]
    fn reserve_release_conserves_slots() {
        let mut l = SlotLedger::new(2, 3, 2);
        assert_eq!(l.total(), 6);
        assert_eq!(l.free_count(), 6);
        let a = l.free_on(NodeId(1)).unwrap();
        l.reserve(a, 0, true, 1);
        assert_eq!(l.free_count(), 5);
        assert_eq!(l.usage(0), 1);
        l.release(a);
        assert_eq!(l.free_count(), 6);
        assert_eq!(l.usage(0), 0);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_is_a_bug() {
        let mut l = SlotLedger::new(1, 1, 1);
        l.reserve(0, 0, true, 1);
        l.release(0);
        l.release(0);
    }

    #[test]
    fn locality_search_escalates() {
        // 4 nodes, 1 slot each, racks of 2: {0,1} and {2,3}.
        let mut l = SlotLedger::new(4, 1, 2);
        l.reserve(0, 0, true, 1);
        assert_eq!(l.free_on(NodeId(0)), None);
        assert_eq!(l.free_in_rack(NodeId(0)), Some(1));
        l.reserve(1, 0, true, 2);
        assert_eq!(l.free_in_rack(NodeId(0)), None);
        assert_eq!(l.free_any(), Some(2));
    }

    #[test]
    fn gang_pick_prefers_emptiest_nodes() {
        let mut l = SlotLedger::new(3, 2, 4);
        l.reserve(0, 0, true, 1); // node 0 half busy
        let g = l.gang_pick(4).unwrap();
        // Nodes 1 and 2 (2 free slots each) fill before node 0's leftover.
        assert_eq!(g, vec![2, 3, 4, 5]);
        assert!(l.gang_pick(6).is_none(), "only 5 free");
    }

    #[test]
    fn victim_is_newest_preemptable_of_most_over_share_queue() {
        // 4 slots, two queues of equal weight: fair share 2 each.
        let mut l = SlotLedger::new(4, 1, 4);
        let w = [1, 1];
        l.reserve(0, 1, true, 10);
        l.reserve(1, 1, true, 20);
        l.reserve(2, 1, false, 30); // newest but pinned
        assert_eq!(l.usage(1), 3);
        // Queue 1 is one slot over fair share; newest preemptable is seq 20.
        assert_eq!(l.pick_victim(&w, 0), Some(1));
        // No preemption against yourself.
        assert_eq!(l.pick_victim(&w, 1), None);
        // At or under fair share: nothing to reclaim.
        l.release(1);
        l.release(2);
        assert_eq!(l.pick_victim(&w, 0), None);
    }

    #[test]
    fn reclaiming_still_charges_the_victim_queue() {
        let mut l = SlotLedger::new(2, 1, 2);
        l.reserve(0, 1, true, 1);
        l.mark_reclaiming(0);
        assert_eq!(l.usage(1), 1, "in-flight kill still counts");
        // A reclaiming slot is no longer a victim candidate.
        assert_eq!(l.pick_victim(&[0, 1], 0), None);
        l.release(0);
        assert_eq!(l.usage(1), 0);
    }

    #[test]
    fn share_meter_integrates_and_normalizes() {
        let mut m = ShareMeter::new(2);
        m.advance(1_000, &[2, 1]); // interval [0, 1000): usages applied retroactively
        m.advance(3_000, &[0, 1]);
        assert_eq!(m.shares(), &[2 * 1_000, 1_000 + 2_000]);
        // Equal weights: ratio 3000/2000 = 1.5.
        assert_eq!(m.maxmin_x1000(&[1, 1]), Some(1500));
        // Weight 2 on queue 1 halves its normalized share: 2000 vs 1500.
        assert_eq!(m.maxmin_x1000(&[1, 2]), Some(1333));
    }

    #[test]
    fn share_meter_empty_queue_yields_none() {
        let mut m = ShareMeter::new(2);
        m.advance(1_000, &[1, 0]);
        assert_eq!(m.maxmin_x1000(&[1, 1]), None);
        assert_eq!(m.maxmin_x1000(&[1, 0]), Some(1000));
    }

    #[test]
    fn fair_share_splits_by_weight() {
        assert_eq!(fair_share(32, &[6, 2], 0), 24.0);
        assert_eq!(fair_share(32, &[6, 2], 1), 8.0);
        assert_eq!(fair_share(32, &[], 0), 0.0);
    }
}
