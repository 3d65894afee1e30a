//! Send→Recv causal matching over a captured event stream.
//!
//! The trace records message endpoints independently: the sender logs a
//! `Send { dst, bytes }` span covering its endpoint CPU cost, the
//! receiver logs a `Recv { src, bytes }` span covering its blocking
//! time. The engine delivers messages between a (src, dst) pair of a
//! given logical size in FIFO order (the sender NIC serializes, and
//! mailbox matching takes the earliest arrival), so the k-th send on
//! the stream `(src, dst, bytes)` pairs with the k-th completed recv on
//! the same stream. Tag-selective receives can reorder *differently
//! sized* messages freely — those land on different streams — while
//! same-size reordering is rare and only weakens attribution, never
//! correctness: a pair whose send ends after the recv ends is causally
//! impossible and is dropped (counted in
//! [`CausalGraph::unmatched_recvs`]).
//!
//! Determinism: input order is the deterministic trace export order,
//! per-stream ordering is by `(end, start, index)` — no wall-clock
//! state anywhere. Streams are numbered in order of first appearance;
//! the sends and the recvs are each bucketed by stream number into one
//! flat array that carries their times, so no per-stream collection is
//! allocated and the per-stream sorts touch no event. The matched send
//! of each recv lands in a slot indexed by the recv's rank among all
//! recvs, so [`CausalGraph::edges`] comes out sorted by recv index with
//! no final sort; each recv appears in it at most once, so
//! [`CausalGraph::matched_send`] is a binary search over the edges.

use hpcbd_simnet::{DetMap, EventKind, SimTime, TraceEvent};

/// One matched message: indices into the captured event slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalEdge {
    /// Index of the `Send` event.
    pub send: usize,
    /// Index of the `Recv` event that consumed it.
    pub recv: usize,
}

/// The cross-process causal structure of one run.
#[derive(Debug, Default)]
pub struct CausalGraph {
    /// Matched send→recv pairs, ordered by recv event index.
    pub edges: Vec<CausalEdge>,
    /// `Recv` events with no causally valid matching send.
    pub unmatched_recvs: u64,
}

impl CausalGraph {
    /// The matched `Send` event index for recv event `recv_idx`, if any.
    pub fn matched_send(&self, recv_idx: usize) -> Option<usize> {
        self.edges
            .binary_search_by_key(&recv_idx, |e| e.recv)
            .ok()
            .map(|k| self.edges[k].send)
    }
}

/// Build the causal graph of a captured run. `events` must be in the
/// deterministic export order ([`hpcbd_simnet::sort_for_export`]).
pub fn match_events(events: &[TraceEvent]) -> CausalGraph {
    // Stream key: (src pid, dst pid, logical bytes).
    type Key = (u32, u32, u64);
    assert!(
        events.len() < u32::MAX as usize,
        "a capture holds fewer than 2^32 - 1 events"
    );
    const NONE: u32 = u32::MAX;
    // The map is only probed, never iterated: stream numbers come from
    // first appearance.
    let mut streams: DetMap<Key, u32> = DetMap::default();
    let mut number = |key: Key| {
        let next = streams.len() as u32;
        *streams.entry(key).or_insert(next)
    };
    // `(stream, (start, end, event index))` of every send and
    // `(stream, (end, start, rank))` of every recv, where a recv's rank
    // is its position in `recv_events`.
    let mut sends: Vec<(u32, (SimTime, SimTime, u32))> = Vec::new();
    let mut recvs: Vec<(u32, (SimTime, SimTime, u32))> = Vec::new();
    let mut recv_events: Vec<u32> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match e.kind {
            EventKind::Send { dst, bytes } => {
                let k = number((e.pid.0, dst.0, bytes));
                sends.push((k, (e.start, e.end, i as u32)));
            }
            EventKind::Recv { src, bytes } => {
                let k = number((src.0, e.pid.0, bytes));
                recvs.push((k, (e.end, e.start, recv_events.len() as u32)));
                recv_events.push(i as u32);
            }
            _ => {}
        }
    }
    let n = streams.len();
    let (send_at, mut sends) = bucket(n, &sends);
    let (recv_at, mut recvs) = bucket(n, &recvs);
    let mut send_of = vec![NONE; recv_events.len()];
    let mut graph = CausalGraph::default();
    for k in 0..n {
        let rs = &mut recvs[recv_at[k]..recv_at[k + 1]];
        if rs.is_empty() {
            continue;
        }
        let ss = &mut sends[send_at[k]..send_at[k + 1]];
        // Sends fire in start order (already the export order); recvs
        // complete in end order — the mailbox hands out earliest
        // arrivals first, so completion order is the FIFO order.
        ss.sort_unstable();
        rs.sort_unstable();
        let mut si = ss.iter();
        for &(r_end, _, rank) in rs.iter() {
            match si.next() {
                // A send that finishes after the recv completes cannot
                // have caused it; drop the pair rather than invent a
                // backwards edge.
                Some(&(_, s_end, s)) if s_end <= r_end => send_of[rank as usize] = s,
                _ => graph.unmatched_recvs += 1,
            }
        }
    }
    graph.edges = recv_events
        .iter()
        .zip(send_of)
        .filter(|&(_, s)| s != NONE)
        .map(|(&r, s)| CausalEdge {
            send: s as usize,
            recv: r as usize,
        })
        .collect();
    graph
}

/// Counting sort of `(stream, item)` pairs by stream: the items of
/// stream `k` are `flat[at[k]..at[k + 1]]`, in input order.
fn bucket<T: Copy + Default>(streams: usize, pairs: &[(u32, T)]) -> (Vec<usize>, Vec<T>) {
    let mut at = vec![0usize; streams + 1];
    for &(k, _) in pairs {
        at[k as usize + 1] += 1;
    }
    for k in 0..streams {
        at[k + 1] += at[k];
    }
    let mut fill = at.clone();
    let mut flat = vec![T::default(); pairs.len()];
    for &(k, item) in pairs {
        flat[fill[k as usize]] = item;
        fill[k as usize] += 1;
    }
    (at, flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcbd_simnet::{Pid, SimTime};

    fn ev(pid: u32, start: u64, end: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            pid: Pid(pid),
            start: SimTime(start),
            end: SimTime(end),
            kind,
        }
    }

    #[test]
    fn fifo_pairs_in_order() {
        let events = vec![
            ev(
                0,
                0,
                10,
                EventKind::Send {
                    dst: Pid(1),
                    bytes: 64,
                },
            ),
            ev(
                0,
                10,
                20,
                EventKind::Send {
                    dst: Pid(1),
                    bytes: 64,
                },
            ),
            ev(
                1,
                0,
                30,
                EventKind::Recv {
                    src: Pid(0),
                    bytes: 64,
                },
            ),
            ev(
                1,
                30,
                45,
                EventKind::Recv {
                    src: Pid(0),
                    bytes: 64,
                },
            ),
        ];
        let g = match_events(&events);
        assert_eq!(g.edges.len(), 2);
        assert_eq!(g.matched_send(2), Some(0));
        assert_eq!(g.matched_send(3), Some(1));
        assert_eq!(g.unmatched_recvs, 0);
    }

    #[test]
    fn different_sizes_are_different_streams() {
        let events = vec![
            ev(
                0,
                0,
                10,
                EventKind::Send {
                    dst: Pid(1),
                    bytes: 100,
                },
            ),
            ev(
                0,
                10,
                20,
                EventKind::Send {
                    dst: Pid(1),
                    bytes: 200,
                },
            ),
            // Receiver takes the 200-byte message first (tag selection).
            ev(
                1,
                0,
                30,
                EventKind::Recv {
                    src: Pid(0),
                    bytes: 200,
                },
            ),
            ev(
                1,
                30,
                45,
                EventKind::Recv {
                    src: Pid(0),
                    bytes: 100,
                },
            ),
        ];
        let g = match_events(&events);
        assert_eq!(g.matched_send(2), Some(1));
        assert_eq!(g.matched_send(3), Some(0));
    }

    #[test]
    fn causally_impossible_pairs_are_dropped() {
        let events = vec![
            // Send finishes after the recv completes: bogus pair.
            ev(
                0,
                0,
                50,
                EventKind::Send {
                    dst: Pid(1),
                    bytes: 8,
                },
            ),
            ev(
                1,
                0,
                20,
                EventKind::Recv {
                    src: Pid(0),
                    bytes: 8,
                },
            ),
            // And a recv with no send at all.
            ev(
                1,
                20,
                40,
                EventKind::Recv {
                    src: Pid(2),
                    bytes: 8,
                },
            ),
        ];
        let g = match_events(&events);
        assert!(g.edges.is_empty());
        assert_eq!(g.unmatched_recvs, 2);
        assert_eq!(g.matched_send(1), None);
    }
}
