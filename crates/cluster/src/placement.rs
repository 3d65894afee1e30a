//! Process placement: mapping ranks / executors to nodes.

use hpcbd_simnet::{NodeId, Pid};

/// A block placement of `total` processes over `nodes` nodes with
/// `per_node` processes each — the "`N` nodes, `P` processes/node" layout
/// every experiment in the paper uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Node count.
    pub nodes: u32,
    /// Processes per node.
    pub per_node: u32,
}

impl Placement {
    /// `nodes` x `per_node` placement.
    pub fn new(nodes: u32, per_node: u32) -> Placement {
        assert!(nodes > 0 && per_node > 0, "placement must be non-empty");
        Placement { nodes, per_node }
    }

    /// Total processes.
    #[inline]
    pub fn total(&self) -> u32 {
        self.nodes * self.per_node
    }

    /// The node hosting `rank` (block distribution: ranks 0..P on node 0,
    /// P..2P on node 1, ...).
    #[inline]
    pub fn node_of_rank(&self, rank: u32) -> NodeId {
        assert!(rank < self.total(), "rank {rank} out of range");
        NodeId(rank / self.per_node)
    }

    /// Ranks hosted on `node`.
    pub fn ranks_on(&self, node: NodeId) -> std::ops::Range<u32> {
        let start = node.0 * self.per_node;
        start..start + self.per_node
    }

    /// Iterate `(rank, node)` pairs in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, NodeId)> + '_ {
        (0..self.total()).map(move |r| (r, self.node_of_rank(r)))
    }
}

/// A scheduler-assigned placement: rank `i` runs on `nodes[i]`, with no
/// block structure assumed. This is what a cluster scheduler hands a
/// runtime when a job gets whatever slots were free — possibly scattered,
/// possibly several ranks on one node — instead of owning the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    nodes: Vec<NodeId>,
}

impl Assignment {
    /// Assignment from an explicit rank-to-node list.
    pub fn new(nodes: Vec<NodeId>) -> Assignment {
        assert!(!nodes.is_empty(), "assignment must be non-empty");
        Assignment { nodes }
    }

    /// The dense equivalent of a block [`Placement`].
    pub fn from_placement(p: Placement) -> Assignment {
        Assignment {
            nodes: p.iter().map(|(_, n)| n).collect(),
        }
    }

    /// Total ranks.
    #[inline]
    pub fn total(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// The node hosting `rank`.
    #[inline]
    pub fn node_of_rank(&self, rank: u32) -> NodeId {
        self.nodes[rank as usize]
    }

    /// Ranks hosted on `node`, in rank order.
    pub fn ranks_on(&self, node: NodeId) -> Vec<u32> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| **n == node)
            .map(|(r, _)| r as u32)
            .collect()
    }

    /// Iterate `(rank, node)` pairs in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, NodeId)> + '_ {
        self.nodes.iter().enumerate().map(|(r, n)| (r as u32, *n))
    }

    /// The distinct nodes used, ascending.
    pub fn distinct_nodes(&self) -> Vec<NodeId> {
        let mut v = self.nodes.clone();
        v.sort();
        v.dedup();
        v
    }

    /// The raw rank-to-node table.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

/// Bidirectional map between application-level ranks and engine pids,
/// built as a framework spawns its processes. Lets collectives address
/// "rank r" while the engine addresses `Pid`s (which may be offset by
/// auxiliary processes such as a Spark driver or HDFS datanodes).
#[derive(Debug, Clone, Default)]
pub struct RankMap {
    pids: Vec<Pid>,
}

impl RankMap {
    /// Empty map.
    pub fn new() -> RankMap {
        RankMap::default()
    }

    /// Construct from pids in rank order. The pids must be distinct.
    pub fn from_pids(pids: Vec<Pid>) -> RankMap {
        RankMap { pids }
    }

    /// Register the next rank's pid; returns the rank.
    pub fn push(&mut self, pid: Pid) -> u32 {
        self.pids.push(pid);
        (self.pids.len() - 1) as u32
    }

    /// Pid of `rank`.
    #[inline]
    pub fn pid(&self, rank: u32) -> Pid {
        self.pids[rank as usize]
    }

    /// Rank of `pid`, if it belongs to this map. O(1) when the ranks sit
    /// on consecutive pids from the first one, as the launchers spawn
    /// them; a scan otherwise. The pids are distinct, so the direct probe
    /// and the scan cannot disagree.
    pub fn rank_of(&self, pid: Pid) -> Option<u32> {
        let guess = pid.0.wrapping_sub(self.pids.first()?.0) as usize;
        if self.pids.get(guess) == Some(&pid) {
            return Some(guess as u32);
        }
        self.scan_rank_of(pid)
    }

    fn scan_rank_of(&self, pid: Pid) -> Option<u32> {
        self.pids.iter().position(|p| *p == pid).map(|i| i as u32)
    }

    /// Number of ranks.
    #[inline]
    pub fn len(&self) -> usize {
        self.pids.len()
    }

    /// True when no ranks are registered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pids.is_empty()
    }

    /// All pids in rank order.
    pub fn pids(&self) -> &[Pid] {
        &self.pids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement_maps_ranks() {
        let p = Placement::new(8, 8);
        assert_eq!(p.total(), 64);
        assert_eq!(p.node_of_rank(0), NodeId(0));
        assert_eq!(p.node_of_rank(7), NodeId(0));
        assert_eq!(p.node_of_rank(8), NodeId(1));
        assert_eq!(p.node_of_rank(63), NodeId(7));
        assert_eq!(p.ranks_on(NodeId(2)), 16..24);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_out_of_range_panics() {
        Placement::new(2, 2).node_of_rank(4);
    }

    #[test]
    fn iter_visits_every_rank_once() {
        let p = Placement::new(3, 5);
        let pairs: Vec<_> = p.iter().collect();
        assert_eq!(pairs.len(), 15);
        assert_eq!(pairs[0], (0, NodeId(0)));
        assert_eq!(pairs[14], (14, NodeId(2)));
    }

    #[test]
    fn assignment_maps_scattered_ranks() {
        let a = Assignment::new(vec![NodeId(3), NodeId(0), NodeId(3), NodeId(7)]);
        assert_eq!(a.total(), 4);
        assert_eq!(a.node_of_rank(0), NodeId(3));
        assert_eq!(a.node_of_rank(3), NodeId(7));
        assert_eq!(a.ranks_on(NodeId(3)), vec![0, 2]);
        assert_eq!(a.distinct_nodes(), vec![NodeId(0), NodeId(3), NodeId(7)]);
    }

    #[test]
    fn assignment_from_block_placement_agrees() {
        let p = Placement::new(3, 2);
        let a = Assignment::from_placement(p);
        for (r, n) in p.iter() {
            assert_eq!(a.node_of_rank(r), n);
        }
        assert_eq!(a.total(), p.total());
    }

    #[test]
    fn rank_map_roundtrip() {
        let mut m = RankMap::new();
        assert!(m.is_empty());
        assert_eq!(m.push(Pid(10)), 0);
        assert_eq!(m.push(Pid(20)), 1);
        assert_eq!(m.pid(1), Pid(20));
        assert_eq!(m.rank_of(Pid(10)), Some(0));
        assert_eq!(m.rank_of(Pid(99)), None);
        assert_eq!(m.len(), 2);
    }

    /// The probe agrees with the scan for every pid from below the map
    /// to past its end.
    fn assert_rank_of_agrees(m: &RankMap) {
        let hi = m.pids().iter().map(|p| p.0).max().unwrap_or(0) + 3;
        for p in (0..hi).chain([u32::MAX]) {
            assert_eq!(m.rank_of(Pid(p)), m.scan_rank_of(Pid(p)), "pid {p}");
        }
    }

    #[test]
    fn rank_of_contiguous_and_offset_maps() {
        for first in [0u32, 1, 5, 300] {
            let m = RankMap::from_pids((first..first + 24).map(Pid).collect());
            assert_rank_of_agrees(&m);
            assert_eq!(m.rank_of(Pid(first)), Some(0));
            assert_eq!(m.rank_of(Pid(first + 23)), Some(23));
            // Below the first pid and past the end.
            assert_eq!(m.rank_of(Pid(first.wrapping_sub(1))), None);
            assert_eq!(m.rank_of(Pid(first + 24)), None);
        }
        assert_eq!(RankMap::new().rank_of(Pid(0)), None);
    }

    #[test]
    fn rank_of_gapped_and_unsorted_maps() {
        // A gap (pids 13-14 belong to other processes), an unsorted map,
        // and one whose first pid is its largest.
        let gapped = RankMap::from_pids([10, 11, 12, 15, 16].map(Pid).to_vec());
        assert_rank_of_agrees(&gapped);
        assert_eq!(gapped.rank_of(Pid(13)), None);
        assert_eq!(gapped.rank_of(Pid(15)), Some(3));
        let unsorted = RankMap::from_pids([4, 2, 9, 3, 7, 5].map(Pid).to_vec());
        assert_rank_of_agrees(&unsorted);
        assert_eq!(unsorted.rank_of(Pid(2)), Some(1));
        assert_eq!(unsorted.rank_of(Pid(6)), None);
        let descending = RankMap::from_pids([40, 30, 20, 10].map(Pid).to_vec());
        assert_rank_of_agrees(&descending);
        assert_eq!(descending.rank_of(Pid(10)), Some(3));
        let mut pushed = RankMap::new();
        for p in [7, 8, 20, 9] {
            pushed.push(Pid(p));
        }
        assert_rank_of_agrees(&pushed);
        assert_eq!(pushed.rank_of(Pid(9)), Some(3));
    }
}
