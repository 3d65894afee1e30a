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
//! state anywhere. The per-stream maps are fixed-seed [`DetMap`]s and
//! hold `u32` event indices; [`CausalGraph::edges`] is sorted by recv
//! index and each recv appears in it at most once, so
//! [`CausalGraph::matched_send`] is a binary search over the edges.

use hpcbd_simnet::{DetMap, EventKind, TraceEvent};

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
/// deterministic export order ([`hpcbd_simnet::Trace::sorted_events`]).
pub fn match_events(events: &[TraceEvent]) -> CausalGraph {
    // Stream key: (src pid, dst pid, logical bytes).
    type Key = (u32, u32, u64);
    type Streams = DetMap<Key, Vec<u32>>;
    assert!(
        events.len() <= u32::MAX as usize,
        "a capture holds fewer than 2^32 events"
    );
    let mut sends = Streams::default();
    let mut recvs = Streams::default();
    for (i, e) in events.iter().enumerate() {
        match e.kind {
            EventKind::Send { dst, bytes } => {
                sends
                    .entry((e.pid.0, dst.0, bytes))
                    .or_default()
                    .push(i as u32);
            }
            EventKind::Recv { src, bytes } => {
                recvs
                    .entry((src.0, e.pid.0, bytes))
                    .or_default()
                    .push(i as u32);
            }
            _ => {}
        }
    }
    let at = |i: u32| &events[i as usize];
    let mut graph = CausalGraph::default();
    // Deterministic stream visit order (HashMap iteration order is not).
    let mut streams: Vec<(Key, Vec<u32>)> = recvs.into_iter().collect();
    streams.sort_unstable_by_key(|s| s.0);
    for (key, mut rs) in streams {
        let mut ss = sends.remove(&key).unwrap_or_default();
        // Sends fire in start order (already the export order); recvs
        // complete in end order — the mailbox hands out earliest
        // arrivals first, so completion order is the FIFO order.
        ss.sort_unstable_by_key(|&i| (at(i).start, at(i).end, i));
        rs.sort_unstable_by_key(|&i| (at(i).end, at(i).start, i));
        let mut si = ss.into_iter();
        for r in rs {
            match si.next() {
                // A send that finishes after the recv completes cannot
                // have caused it; drop the pair rather than invent a
                // backwards edge.
                Some(s) if at(s).end <= at(r).end => graph.edges.push(CausalEdge {
                    send: s as usize,
                    recv: r as usize,
                }),
                _ => graph.unmatched_recvs += 1,
            }
        }
    }
    graph.edges.sort_unstable_by_key(|e| e.recv);
    graph
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
