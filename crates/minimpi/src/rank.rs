//! The per-rank handle: MPI_COMM_WORLD as seen by one process.

use std::sync::Arc;

use hpcbd_cluster::{Placement, RankMap};
use hpcbd_simnet::{MatchSpec, Payload, Pid, ProcCtx, Tag, Transport};

use crate::datatype::MpiScalar;

/// Tag space reserved for collective operations; user tags must stay
/// below this.
pub(crate) const COLL_TAG_BASE: Tag = 1 << 40;

/// The world communicator handle held by each rank inside an
/// [`crate::mpirun`] closure. Wraps the simnet process context with
/// rank/size addressing and typed two-sided messaging; the collectives
/// in [`crate::collectives`] and the I/O routines in [`crate::io`]
/// build on these primitives.
pub struct MpiRank<'a> {
    pub(crate) ctx: &'a mut ProcCtx,
    pub(crate) rank: u32,
    pub(crate) size: u32,
    pub(crate) map: Arc<RankMap>,
    pub(crate) placement: Placement,
    pub(crate) rdma: Transport,
    pub(crate) shm: Transport,
    pub(crate) coll_seq: u64,
    pub(crate) bytes_scale: f64,
    pub(crate) win_seq: u64,
    pub(crate) win_store: std::sync::Arc<crate::rma::WinStore>,
}

impl<'a> MpiRank<'a> {
    /// Build a rank handle. Used by [`crate::mpirun`]; exposed so that
    /// experiments can embed MPI ranks in simulations that also host
    /// other processes (e.g. an HDFS cluster).
    pub fn new(
        ctx: &'a mut ProcCtx,
        rank: u32,
        map: Arc<RankMap>,
        placement: Placement,
    ) -> MpiRank<'a> {
        let size = map.len() as u32;
        MpiRank {
            ctx,
            rank,
            size,
            map,
            placement,
            rdma: Transport::rdma_verbs(),
            shm: Transport::shared_memory(),
            coll_seq: 0,
            bytes_scale: 1.0,
            win_seq: 0,
            win_store: crate::rma::WinStore::new(),
        }
    }

    /// Install the job-wide RMA window store (used by the launcher; a
    /// rank constructed without one gets a private store, making windows
    /// inaccessible across ranks).
    pub fn with_win_store(mut self, store: std::sync::Arc<crate::rma::WinStore>) -> Self {
        self.win_store = store;
        self
    }

    /// Next collective window id (SPMD-aligned, like collective tags).
    pub(crate) fn next_win_id(&mut self) -> u64 {
        let id = self.win_seq;
        self.win_seq += 1;
        id
    }

    /// The job-wide window store.
    pub(crate) fn win_store(&self) -> std::sync::Arc<crate::rma::WinStore> {
        self.win_store.clone()
    }

    /// The RDMA transport used for one-sided operations.
    pub(crate) fn rdma_transport(&self) -> Transport {
        self.rdma
    }

    /// Set the logical-bytes multiplier applied to every message this
    /// rank sends. Benchmarks operating on a sampled dataset (see
    /// DESIGN.md §2) set this to the sample's content scale factor so
    /// wire costs reflect the full-size problem while payloads stay
    /// sample-sized. Purely a costing knob; data is unchanged.
    pub fn set_bytes_scale(&mut self, scale: f64) {
        assert!(scale >= 1.0, "bytes scale must be >= 1");
        self.bytes_scale = scale;
    }

    /// This process's rank in MPI_COMM_WORLD.
    #[inline]
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of ranks in MPI_COMM_WORLD.
    #[inline]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The placement this job was launched with.
    #[inline]
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Engine pid of a rank.
    #[inline]
    pub fn pid_of(&self, rank: u32) -> Pid {
        self.map.pid(rank)
    }

    /// Access the underlying simulation context (compute costing, disk
    /// I/O, virtual clock).
    #[inline]
    pub fn ctx(&mut self) -> &mut ProcCtx {
        self.ctx
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> hpcbd_simnet::SimTime {
        self.ctx.now()
    }

    /// Open a named phase span on this rank's trace (no-op when tracing
    /// is off; see [`ProcCtx::span_open`]).
    #[inline]
    pub fn span_open(&mut self, label: impl AsRef<str>) {
        self.ctx.span_open(label);
    }

    /// Open a phase span with a lazily formatted label (the closure runs
    /// only when tracing is on).
    #[inline]
    pub fn span_open_with(&mut self, label: impl FnOnce() -> String) {
        self.ctx.span_open_with(label);
    }

    /// Close the innermost open phase span.
    #[inline]
    pub fn span_close(&mut self) {
        self.ctx.span_close();
    }

    /// Pick the transport for talking to `dst` (verbs across nodes,
    /// shared memory within one).
    #[inline]
    pub(crate) fn transport_to(&self, dst: u32) -> &Transport {
        if self.placement.node_of_rank(dst) == self.placement.node_of_rank(self.rank) {
            &self.shm
        } else {
            &self.rdma
        }
    }

    /// Blocking typed send (eager protocol, like MPI_Send of a contiguous
    /// buffer).
    pub fn send<T: MpiScalar>(&mut self, dst: u32, tag: Tag, data: &[T]) {
        assert!(tag < COLL_TAG_BASE, "user tags must be < 2^40");
        self.send_arc(dst, tag, Arc::new(data.to_vec()));
    }

    /// Send an `Arc`'d buffer without copying (useful when the same buffer
    /// goes to many peers).
    pub fn send_arc<T: MpiScalar>(&mut self, dst: u32, tag: Tag, data: Arc<Vec<T>>) {
        let bytes = (data.len() as f64 * T::BYTES as f64 * self.bytes_scale) as u64;
        let tr = *self.transport_to(dst);
        let pid = self.map.pid(dst);
        self.ctx.send(pid, tag, bytes, Payload::Value(data), &tr);
    }

    /// Blocking typed receive (MPI_Recv). `src = None` is MPI_ANY_SOURCE.
    /// Returns the payload and the sending rank.
    pub fn recv<T: MpiScalar>(&mut self, src: Option<u32>, tag: Tag) -> (Arc<Vec<T>>, u32) {
        let spec = MatchSpec {
            src: src.map(|r| self.map.pid(r)),
            tag: Some(tag),
        };
        let msg = self.ctx.recv(spec);
        let src_rank = self
            .map
            .rank_of(msg.src)
            .expect("message from a non-MPI process");
        (msg.expect_value::<Vec<T>>(), src_rank)
    }

    /// Combined send+receive (MPI_Sendrecv): posts the send, then blocks
    /// on the receive.
    pub fn sendrecv<T: MpiScalar>(
        &mut self,
        dst: u32,
        send_tag: Tag,
        data: &[T],
        src: u32,
        recv_tag: Tag,
    ) -> Arc<Vec<T>> {
        self.send(dst, send_tag, data);
        self.recv::<T>(Some(src), recv_tag).0
    }

    /// Next collective tag. Each rank advances its own counter; SPMD
    /// execution keeps the counters aligned, exactly like the sequence
    /// numbers real MPI implementations use for collective matching.
    pub(crate) fn next_coll_tag(&mut self) -> Tag {
        self.coll_seq += 1;
        COLL_TAG_BASE + self.coll_seq
    }

    /// Reserve `k` additional collective tags (multi-phase collectives use
    /// `tag..tag+k`; every rank must skip the same amount to stay aligned).
    pub(crate) fn skip_coll_tags(&mut self, k: u64) {
        self.coll_seq += k;
    }
}

#[cfg(test)]
mod tests {
    use crate::launch::mpirun;
    use hpcbd_cluster::Placement;

    #[test]
    fn point_to_point_roundtrip() {
        let out = mpirun(Placement::new(2, 1), |rank| {
            if rank.rank() == 0 {
                rank.send(1, 5, &[1.5f64, 2.5]);
                let (v, src) = rank.recv::<f64>(Some(1), 6);
                assert_eq!(src, 1);
                v.iter().sum::<f64>()
            } else {
                let (v, src) = rank.recv::<f64>(Some(0), 5);
                assert_eq!(src, 0);
                rank.send(0, 6, &[v.iter().sum::<f64>() * 2.0]);
                0.0
            }
        });
        assert_eq!(out.results[0], 8.0);
    }

    #[test]
    fn any_source_receive() {
        let out = mpirun(Placement::new(1, 3), |rank| {
            if rank.rank() == 0 {
                let mut got = vec![];
                for _ in 0..2 {
                    let (v, src) = rank.recv::<u32>(None, 1);
                    got.push((src, v[0]));
                }
                got.sort();
                got
            } else {
                rank.send(0, 1, &[rank.rank() * 10]);
                vec![]
            }
        });
        assert_eq!(out.results[0], vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn sendrecv_exchanges_between_neighbours() {
        let out = mpirun(Placement::new(2, 2), |rank| {
            let me = rank.rank();
            let n = rank.size();
            let right = (me + 1) % n;
            let left = (me + n - 1) % n;
            let got = rank.sendrecv(right, 7, &[me as i64], left, 7);
            got[0]
        });
        assert_eq!(out.results, vec![3, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "user tags")]
    fn reserved_tags_rejected() {
        mpirun(Placement::new(1, 2), |rank| {
            if rank.rank() == 0 {
                rank.send(1, 1 << 41, &[0u8]);
            } else {
                rank.recv::<u8>(Some(0), 1 << 41);
            }
        });
    }
}
