//! Collective operations with the algorithm selection real MPI
//! implementations perform.
//!
//! The paper attributes MPI's reduce-microbenchmark win partly to
//! "reduction and communication algorithms ... well tuned depending on
//! the array size and other parameters" (Sec. V-B1). This module
//! reproduces that structure:
//!
//! * barrier — dissemination (⌈log₂ n⌉ rounds);
//! * broadcast — binomial tree;
//! * reduce — binomial reduction tree;
//! * allreduce — recursive doubling for short vectors, Rabenseifner-style
//!   ring (reduce-scatter + allgather) past [`ALLREDUCE_RING_THRESHOLD`];
//! * scatter/gather — linear rooted;
//! * allgather — ring;
//! * alltoall — pairwise exchange.
//!
//! Every collective is validated against a sequential oracle in the
//! crate's tests and property tests.

use std::sync::Arc;

use crate::datatype::{MpiScalar, ReduceOp};
use crate::rank::MpiRank;

pub use hpcbd_simnet::ALLREDUCE_RING_THRESHOLD;
use hpcbd_simnet::{allreduce_algo, AllreduceAlgo};

impl MpiRank<'_> {
    /// MPI_Barrier: dissemination algorithm.
    pub fn barrier(&mut self) {
        let tag = self.next_coll_tag();
        let n = self.size();
        if n == 1 {
            return;
        }
        self.ctx.span_open("mpi/barrier");
        let me = self.rank();
        let mut step = 1u32;
        while step < n {
            let dst = (me + step) % n;
            let src = (me + n - step) % n;
            self.send_arc::<u8>(dst, tag, Arc::new(Vec::new()));
            let _ = self.recv::<u8>(Some(src), tag);
            step <<= 1;
        }
        self.ctx.span_close();
    }

    /// MPI_Bcast: binomial tree rooted at `root`.
    pub fn bcast<T: MpiScalar>(&mut self, root: u32, data: Option<Arc<Vec<T>>>) -> Arc<Vec<T>> {
        let tag = self.next_coll_tag();
        let n = self.size();
        let me = self.rank();
        self.ctx.span_open("mpi/bcast");
        // Re-number so the root is virtual rank 0.
        let vrank = (me + n - root) % n;
        let mut buf: Option<Arc<Vec<T>>> = if me == root {
            Some(data.expect("root must supply the broadcast buffer"))
        } else {
            None
        };
        // Binomial tree: the parent of virtual rank v is v with its lowest
        // set bit cleared; its children are v | bit for every bit below
        // the lowest set bit (all bits for v = 0).
        if vrank != 0 {
            let parent_vrank = vrank & (vrank - 1);
            let parent_rank = (parent_vrank + root) % n;
            let (v, _) = self.recv::<T>(Some(parent_rank), tag);
            buf = Some(v);
        }
        let buf = buf.expect("broadcast buffer present after receive");
        let mut bit = 1u32;
        while bit < n && vrank & bit == 0 {
            let child_v = vrank | bit;
            if child_v < n {
                let child = (child_v + root) % n;
                self.send_arc(child, tag, buf.clone());
            }
            bit <<= 1;
        }
        self.ctx.span_close();
        buf
    }

    /// MPI_Reduce: binomial tree combining towards `root`. Every rank
    /// passes its contribution; the root returns the combined vector,
    /// non-roots return `None`.
    ///
    /// `data` is shared, not copied: a leaf forwards it as is, and an
    /// inner node combines it with its first child into one fresh buffer
    /// (or in place, when it holds the only reference), then folds later
    /// children into that buffer in place. A buffer someone else still
    /// holds is never written.
    pub fn reduce<T: MpiScalar>(
        &mut self,
        root: u32,
        op: ReduceOp,
        data: Arc<Vec<T>>,
    ) -> Option<Vec<T>> {
        let tag = self.next_coll_tag();
        let n = self.size();
        let me = self.rank();
        self.ctx.span_open("mpi/reduce");
        let vrank = (me + n - root) % n;
        let mut acc = data;
        let mut bit = 1u32;
        while bit < n {
            if vrank & bit != 0 {
                // Send to parent and stop.
                let parent_v = vrank ^ bit;
                let parent = (parent_v + root) % n;
                self.send_arc(parent, tag, acc);
                self.ctx.span_close();
                return None;
            }
            let child_v = vrank | bit;
            if child_v < n {
                let child = (child_v + root) % n;
                let (v, _) = self.recv::<T>(Some(child), tag);
                match Arc::get_mut(&mut acc) {
                    Some(mine) => op.combine_into(mine, &v),
                    None => acc = Arc::new(op.combine_new(&acc, &v)),
                }
                // Local combine cost: one op + one load per element.
                self.charge_elementwise::<T>(acc.len());
            }
            bit <<= 1;
        }
        self.ctx.span_close();
        Some(Arc::unwrap_or_clone(acc))
    }

    /// MPI_Allreduce with size-dependent algorithm selection.
    pub fn allreduce<T: MpiScalar>(&mut self, op: ReduceOp, data: &[T]) -> Vec<T> {
        let bytes = data.len() as u64 * T::BYTES;
        if self.size() == 1 {
            return data.to_vec();
        }
        // Selection goes through the memoized cost-model table: PageRank
        // evaluates the identical (comm, bytes) key every iteration.
        self.ctx.span_open("mpi/allreduce");
        let acc = match allreduce_algo(self.size(), bytes) {
            AllreduceAlgo::RecursiveDoubling => self.allreduce_recursive_doubling(op, data),
            AllreduceAlgo::Ring => self.allreduce_ring(op, data),
        };
        self.ctx.span_close();
        acc
    }

    /// Recursive doubling: ⌈log₂ n⌉ exchange rounds, each with the full
    /// vector. Latency-optimal for short vectors. Non-power-of-two sizes
    /// fold the stragglers into the nearest power of two first.
    pub fn allreduce_recursive_doubling<T: MpiScalar>(
        &mut self,
        op: ReduceOp,
        data: &[T],
    ) -> Vec<T> {
        let tag = self.next_coll_tag();
        let n = self.size();
        let me = self.rank();
        let mut acc = data.to_vec();
        let pof2 = if n.is_power_of_two() {
            n
        } else {
            1 << (31 - n.leading_zeros())
        };
        let rem = n - pof2;
        // Phase 0: ranks >= pof2 send their data to rank - pof2.
        let mut participating = true;
        if me >= pof2 {
            self.send_arc((me - pof2) % n, tag, Arc::new(acc.clone()));
            participating = false;
        } else if me < rem {
            let (v, _) = self.recv::<T>(Some(me + pof2), tag);
            op.combine_into(&mut acc, &v);
            self.charge_elementwise::<T>(acc.len());
        }
        if participating {
            let mut mask = 1u32;
            while mask < pof2 {
                let peer = me ^ mask;
                self.send_arc(peer, tag + 1, Arc::new(acc.clone()));
                let (v, _) = self.recv::<T>(Some(peer), tag + 1);
                op.combine_into(&mut acc, &v);
                self.charge_elementwise::<T>(acc.len());
                mask <<= 1;
            }
        }
        // Phase 2: send results back to the folded ranks.
        if me < rem {
            self.send_arc(me + pof2, tag + 2, Arc::new(acc.clone()));
        } else if me >= pof2 {
            let (v, _) = self.recv::<T>(Some(me - pof2), tag + 2);
            acc = Arc::unwrap_or_clone(v);
        }
        // Reserve the tags used by the sub-phases.
        self.skip_coll_tags(2);
        acc
    }

    /// Ring allreduce (reduce-scatter + allgather): 2(n-1) steps each
    /// moving 1/n of the vector — bandwidth-optimal for large vectors.
    pub fn allreduce_ring<T: MpiScalar>(&mut self, op: ReduceOp, data: &[T]) -> Vec<T> {
        let tag = self.next_coll_tag();
        let n = self.size() as usize;
        let me = self.rank() as usize;
        let len = data.len();
        let mut acc = data.to_vec();
        if n == 1 {
            return acc;
        }
        // Chunk boundaries: chunk c covers [starts[c], starts[c+1]).
        let starts: Vec<usize> = (0..=n).map(|c| c * len / n).collect();
        let right = ((me + 1) % n) as u32;
        let left = ((me + n - 1) % n) as u32;
        // Reduce-scatter.
        for step in 0..n - 1 {
            let send_chunk = (me + n - step) % n;
            let recv_chunk = (me + n - step - 1) % n;
            let s = acc[starts[send_chunk]..starts[send_chunk + 1]].to_vec();
            self.send_arc(right, tag, std::sync::Arc::new(s));
            let (v, _) = self.recv::<T>(Some(left), tag);
            let dst = &mut acc[starts[recv_chunk]..starts[recv_chunk + 1]];
            op.combine_into(dst, &v);
            self.charge_elementwise::<T>(dst.len());
        }
        // Allgather.
        for step in 0..n - 1 {
            let send_chunk = (me + 1 + n - step) % n;
            let recv_chunk = (me + n - step) % n;
            let s = acc[starts[send_chunk]..starts[send_chunk + 1]].to_vec();
            self.send_arc(right, tag, std::sync::Arc::new(s));
            let (v, _) = self.recv::<T>(Some(left), tag);
            acc[starts[recv_chunk]..starts[recv_chunk + 1]].copy_from_slice(&v);
        }
        acc
    }

    /// MPI_Scatter: root splits `data` into `size` equal chunks.
    pub fn scatter<T: MpiScalar>(&mut self, root: u32, data: Option<&[T]>) -> Vec<T> {
        let tag = self.next_coll_tag();
        let n = self.size();
        let me = self.rank();
        self.ctx.span_open("mpi/scatter");
        let out = if me == root {
            let data = data.expect("root must supply scatter buffer");
            assert!(
                data.len().is_multiple_of(n as usize),
                "scatter buffer must divide evenly"
            );
            let chunk = data.len() / n as usize;
            let mut mine = Vec::new();
            for r in 0..n {
                let part = &data[r as usize * chunk..(r as usize + 1) * chunk];
                if r == me {
                    mine = part.to_vec();
                } else {
                    self.send_arc(r, tag, std::sync::Arc::new(part.to_vec()));
                }
            }
            mine
        } else {
            let (v, _) = self.recv::<T>(Some(root), tag);
            Arc::unwrap_or_clone(v)
        };
        self.ctx.span_close();
        out
    }

    /// MPI_Gather: inverse of scatter; root returns the concatenation in
    /// rank order.
    pub fn gather<T: MpiScalar>(&mut self, root: u32, data: &[T]) -> Option<Vec<T>> {
        let tag = self.next_coll_tag();
        let n = self.size();
        let me = self.rank();
        self.ctx.span_open("mpi/gather");
        let out = if me == root {
            let mut parts: Vec<Vec<T>> = vec![Vec::new(); n as usize];
            parts[me as usize] = data.to_vec();
            for _ in 0..n - 1 {
                let spec_any = None;
                let (v, src) = self.recv::<T>(spec_any, tag);
                parts[src as usize] = Arc::unwrap_or_clone(v);
            }
            Some(parts.concat())
        } else {
            self.send_arc(root, tag, std::sync::Arc::new(data.to_vec()));
            None
        };
        self.ctx.span_close();
        out
    }

    /// MPI_Allgather: ring algorithm; returns rank-ordered concatenation
    /// on every rank.
    pub fn allgather<T: MpiScalar>(&mut self, data: &[T]) -> Vec<T> {
        let tag = self.next_coll_tag();
        let n = self.size() as usize;
        let me = self.rank() as usize;
        self.ctx.span_open("mpi/allgather");
        let mut parts: Vec<Vec<T>> = vec![Vec::new(); n];
        parts[me] = data.to_vec();
        let right = ((me + 1) % n) as u32;
        let left = ((me + n - 1) % n) as u32;
        for step in 0..n - 1 {
            let send_idx = (me + n - step) % n;
            let recv_idx = (me + n - step - 1) % n;
            self.send_arc(right, tag, std::sync::Arc::new(parts[send_idx].clone()));
            let (v, _) = self.recv::<T>(Some(left), tag);
            parts[recv_idx] = Arc::unwrap_or_clone(v);
        }
        self.ctx.span_close();
        parts.concat()
    }

    /// MPI_Alltoall: pairwise exchange; `chunks[r]` goes to rank `r`, the
    /// result's slot `r` holds what rank `r` sent us.
    pub fn alltoall<T: MpiScalar>(&mut self, mut chunks: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let tag = self.next_coll_tag();
        let n = self.size();
        let me = self.rank();
        assert_eq!(chunks.len(), n as usize, "one chunk per destination");
        self.ctx.span_open("mpi/alltoall");
        let mut out: Vec<Vec<T>> = vec![Vec::new(); n as usize];
        out[me as usize] = std::mem::take(&mut chunks[me as usize]);
        // Rotated pairwise exchange: in step s we send to me+s and receive
        // from me-s. Sends are eager, so the send/recv order cannot
        // deadlock for any communicator size.
        for step in 1..n {
            let dst = (me + step) % n;
            let src = (me + n - step) % n;
            let chunk = std::mem::take(&mut chunks[dst as usize]);
            self.send_arc(dst, tag, Arc::new(chunk));
            let (v, _) = self.recv::<T>(Some(src), tag);
            out[src as usize] = Arc::unwrap_or_clone(v);
        }
        self.ctx.span_close();
        out
    }

    /// Sparse personalized all-to-all (MPI_Alltoallv for mostly-empty
    /// send matrices), via the Bruck rotation.
    ///
    /// `items` is this rank's outgoing traffic as `(dst, payload)` pairs;
    /// the result is the incoming traffic as `(src, payload)` pairs, in
    /// unspecified order. Semantically equivalent to [`MpiRank::alltoall`]
    /// with empty chunks for silent destinations, but the cost scales as
    /// O(log n) messages per rank instead of O(n): round `k` forwards to
    /// rank `me + 2^k (mod n)` every held item whose remaining hop
    /// distance `(dst - me) mod n` has bit `k` set, so each item reaches
    /// its destination in at most ⌈log₂ n⌉ hops and each rank exchanges
    /// exactly one (possibly empty) message per round. At a full Comet
    /// (47,616 ranks) that is 16 messages per rank where the dense
    /// exchange would send 47,615 — the difference between a feasible and
    /// an O(n²)-message PageRank edge exchange. Works for any
    /// communicator size, including non-powers-of-two. Fully
    /// synchronizing: every rank participates in every round.
    ///
    /// Routing costs O(1) host work per item per hop. Items travel with
    /// their remaining distance rather than their destination and wait in
    /// buckets indexed by the distance's lowest set bit. Round `k` clears
    /// bit `k`, and every lower bit is already clear, so bucket `k` is
    /// exactly round `k`'s batch: it is sent whole, and a received item
    /// goes straight to the result or to the bucket of its next hop. A
    /// bucket holds this rank's own items first, then each round's
    /// receipts in round order. That is the order a scan of all held items
    /// per round would batch them in, so message contents, the result's
    /// order and every sum over it do not depend on the bucketing.
    pub fn alltoallv_sparse<T: MpiScalar>(
        &mut self,
        items: Vec<(u32, Vec<T>)>,
    ) -> Vec<(u32, Vec<T>)> {
        let tag = self.next_coll_tag();
        let n = self.size();
        let me = self.rank();
        self.ctx.span_open("mpi/alltoallv_sparse");
        let mut mine: Vec<(u32, Vec<T>)> = Vec::new();
        // In-flight items as (origin, remaining distance, payload), in
        // bucket `distance.trailing_zeros()`.
        let mut due: [Vec<(u32, u32, Vec<T>)>; 32] = std::array::from_fn(|_| Vec::new());
        for (dst, v) in items {
            assert!(dst < n, "alltoallv_sparse destination {dst} out of range");
            match (dst + n - me) % n {
                0 => mine.push((me, v)),
                d => due[d.trailing_zeros() as usize].push((me, d, v)),
            }
        }
        let mut k = 0usize;
        while (1u64 << k) < n as u64 {
            let offset = 1u32 << k;
            let to = (me + offset) % n;
            let from = (me + n - offset) % n;
            let batch = std::mem::take(&mut due[k]);
            // Wire size: payload elements plus an 8-byte routing header
            // per item (origin + distance).
            let bytes: u64 = batch
                .iter()
                .map(|(_, _, v)| v.len() as u64 * T::BYTES + 8)
                .sum();
            let bytes = (bytes as f64 * self.bytes_scale) as u64;
            let tr = *self.transport_to(to);
            let pid = self.map.pid(to);
            self.ctx
                .send(pid, tag, bytes, hpcbd_simnet::Payload::value(batch), &tr);
            let spec = hpcbd_simnet::MatchSpec {
                src: Some(self.map.pid(from)),
                tag: Some(tag),
            };
            let received = self.ctx.recv(spec).into_value::<Vec<(u32, u32, Vec<T>)>>();
            let mut elems = 0usize;
            for (src, d, v) in Arc::unwrap_or_clone(received) {
                elems += v.len();
                match d - offset {
                    0 => mine.push((src, v)),
                    d => due[d.trailing_zeros() as usize].push((src, d, v)),
                }
            }
            // Repacking cost of the received batch.
            if elems > 0 {
                self.charge_elementwise::<T>(elems);
            }
            k += 1;
        }
        debug_assert!(
            due.iter().all(Vec::is_empty),
            "undelivered alltoallv_sparse items"
        );
        self.ctx.span_close();
        mine
    }

    /// MPI_Reduce_scatter_block: element-wise reduce of a `size *
    /// block`-element vector, rank `r` keeping block `r`. Implemented as
    /// the reduce-scatter phase of the ring (bandwidth-optimal).
    pub fn reduce_scatter_block<T: MpiScalar>(&mut self, op: ReduceOp, data: &[T]) -> Vec<T> {
        let n = self.size() as usize;
        let me = self.rank() as usize;
        assert!(
            data.len().is_multiple_of(n),
            "reduce_scatter_block needs size*block elements"
        );
        let block = data.len() / n;
        if n == 1 {
            return data.to_vec();
        }
        let tag = self.next_coll_tag();
        self.ctx.span_open("mpi/reduce_scatter");
        let mut acc = data.to_vec();
        let right = ((me + 1) % n) as u32;
        let left = ((me + n - 1) % n) as u32;
        // Chunk indices offset by -1 relative to the allreduce ring so
        // that rank `me` finishes holding exactly chunk `me`.
        for step in 0..n - 1 {
            let send_chunk = (me + n - step - 1) % n;
            let recv_chunk = (me + 2 * n - step - 2) % n;
            let s = acc[send_chunk * block..(send_chunk + 1) * block].to_vec();
            self.send_arc(right, tag, Arc::new(s));
            let (v, _) = self.recv::<T>(Some(left), tag);
            let dst = &mut acc[recv_chunk * block..(recv_chunk + 1) * block];
            op.combine_into(dst, &v);
            self.charge_elementwise::<T>(block);
        }
        self.ctx.span_close();
        acc[me * block..(me + 1) * block].to_vec()
    }

    /// MPI_Scan: inclusive prefix reduction — rank `r` receives the
    /// combination of ranks `0..=r`'s contributions. Linear pipeline.
    pub fn scan<T: MpiScalar>(&mut self, op: ReduceOp, data: &[T]) -> Vec<T> {
        let tag = self.next_coll_tag();
        let me = self.rank();
        let n = self.size();
        self.ctx.span_open("mpi/scan");
        let mut acc = data.to_vec();
        if me > 0 {
            let (prefix, _) = self.recv::<T>(Some(me - 1), tag);
            let mut combined = Arc::unwrap_or_clone(prefix);
            op.combine_into(&mut combined, &acc);
            self.charge_elementwise::<T>(acc.len());
            acc = combined;
        }
        if me + 1 < n {
            self.send_arc(me + 1, tag, Arc::new(acc.clone()));
        }
        self.ctx.span_close();
        acc
    }

    /// Charge the CPU cost of one element-wise pass over `len` elements.
    fn charge_elementwise<T: MpiScalar>(&mut self, len: usize) {
        let w = hpcbd_simnet::Work::new(len as f64, len as f64 * T::BYTES as f64 * 2.0);
        self.ctx.compute(w, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use crate::launch::mpirun;
    use crate::{MpiScalar, ReduceOp};
    use hpcbd_cluster::Placement;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn per_rank_vec(rank: u32, len: usize) -> Vec<f64> {
        (0..len).map(|i| (rank as f64) + (i as f64) * 0.5).collect()
    }

    fn oracle_reduce(n: u32, len: usize, op: ReduceOp) -> Vec<f64> {
        let mut acc = per_rank_vec(0, len);
        for r in 1..n {
            op.combine_into(&mut acc, &per_rank_vec(r, len));
        }
        acc
    }

    #[test]
    fn barrier_completes_at_every_size() {
        for (nodes, ppn) in [(1, 1), (1, 3), (2, 2), (3, 5), (4, 4)] {
            let out = mpirun(Placement::new(nodes, ppn), |rank| {
                rank.barrier();
                rank.barrier();
                rank.rank()
            });
            assert_eq!(out.results.len(), (nodes * ppn) as usize);
        }
    }

    #[test]
    fn bcast_delivers_root_buffer_everywhere() {
        for n in [2u32, 3, 4, 7, 8] {
            for root in [0, n - 1] {
                let out = mpirun(Placement::new(1, n), move |rank| {
                    let data = if rank.rank() == root {
                        Some(Arc::new(vec![3.25f64, -1.0, root as f64]))
                    } else {
                        None
                    };
                    (*rank.bcast(root, data)).clone()
                });
                for r in out.results {
                    assert_eq!(r, vec![3.25, -1.0, root as f64]);
                }
            }
        }
    }

    #[test]
    fn reduce_matches_oracle() {
        for n in [1u32, 2, 3, 4, 6, 8] {
            for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
                let out = mpirun(Placement::new(1, n), move |rank| {
                    let data = per_rank_vec(rank.rank(), 16);
                    rank.reduce(0, op, Arc::new(data))
                });
                let root_result = out.results[0].clone().expect("root gets the result");
                assert_eq!(root_result, oracle_reduce(n, 16, op));
                for r in &out.results[1..] {
                    assert!(r.is_none());
                }
            }
        }
    }

    /// The copying `reduce` the shared-buffer one replaced, kept as it
    /// was (its dead `unreachable!` arm now an assertion): copy the
    /// input, then fold each child in tree order.
    impl crate::rank::MpiRank<'_> {
        fn reduce_copying<T: MpiScalar>(
            &mut self,
            root: u32,
            op: ReduceOp,
            data: &[T],
        ) -> Option<Vec<T>> {
            let tag = self.next_coll_tag();
            let n = self.size();
            let me = self.rank();
            self.ctx.span_open("mpi/reduce");
            let vrank = (me + n - root) % n;
            let mut acc: Vec<T> = data.to_vec();
            let mut bit = 1u32;
            loop {
                if vrank & bit != 0 {
                    let parent_v = vrank ^ bit;
                    let parent = (parent_v + root) % n;
                    self.send_arc(parent, tag, Arc::new(acc));
                    self.ctx.span_close();
                    return None;
                }
                let child_v = vrank | bit;
                if child_v < n {
                    let child = (child_v + root) % n;
                    let (v, _) = self.recv::<T>(Some(child), tag);
                    op.combine_into(&mut acc, &v);
                    self.charge_elementwise::<T>(acc.len());
                }
                bit <<= 1;
                if bit >= n {
                    break;
                }
            }
            self.ctx.span_close();
            assert_eq!(me, root, "non-root finished reduce without sending");
            Some(acc)
        }
    }

    const OPS: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min];

    // Inputs that expose a changed operand or association order: both
    // zeros, NaN, and magnitudes far enough apart that rounding depends
    // on the grouping. No infinities and no product of 12 can overflow,
    // so no operation creates a NaN: every NaN in a result is the
    // input's, and `to_bits` compares reliably.
    const F64S: [f64; 8] = [0.0, -0.0, f64::NAN, 1.0, -1.0, 1e16, -3e16, 2.5e-300];
    const F32S: [f32; 8] = [0.0, -0.0, f32::NAN, 1.0, -1.0, 300.0, -250.0, 1e-5];

    fn palette_vec<T: Copy>(palette: &[T], seed: u64, rank: u32, len: usize) -> Vec<T> {
        (0..len)
            .map(|i| {
                palette[(hpcbd_simnet::det_hash(&(seed, rank, i)) % palette.len() as u64) as usize]
            })
            .collect()
    }

    /// Rank `me`'s reduce of `data` to every root under every op, by the
    /// copying body and by the shared-buffer one, given a shared and a
    /// sole reference (which it may combine into in place):
    /// `(root, op, [shared, sole], want)` as bits wherever `me` is the root.
    type Outcomes = Vec<(u32, ReduceOp, [Vec<u64>; 2], Vec<u64>)>;
    fn reduce_all_ways<T: MpiScalar>(
        rank: &mut crate::rank::MpiRank<'_>,
        data: &Arc<Vec<T>>,
        bits: impl Fn(&T) -> u64,
    ) -> Outcomes {
        let bits = |v: Vec<T>| v.iter().map(&bits).collect::<Vec<u64>>();
        let mut out = Vec::new();
        for root in 0..rank.size() {
            for op in OPS {
                let shared = rank.reduce(root, op, data.clone());
                let sole = rank.reduce(root, op, Arc::new(data.to_vec()));
                let want = rank.reduce_copying(root, op, data);
                assert_eq!(shared.is_some(), want.is_some());
                assert_eq!(sole.is_some(), want.is_some());
                if let (Some(shared), Some(sole), Some(want)) = (shared, sole, want) {
                    out.push((root, op, [bits(shared), bits(sole)], bits(want)));
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn reduce_equals_the_copying_body_bit_for_bit(
            short in 0usize..71,
            seed in any::<u64>(),
        ) {
            // A short vector, and one past 1,024 elements: the vectorised
            // loop body and its tail.
            for (n, len) in (1u32..=12).flat_map(|n| [(n, short), (n, 1031)]) {
                let out = mpirun(Placement::new(1, n), move |rank| {
                    let me = rank.rank();
                    let xs = Arc::new(palette_vec(&F64S, seed, me, len));
                    let ys = Arc::new(palette_vec(&F32S, seed, me, len));
                    let (x0, y0): (Vec<u64>, Vec<u32>) = (
                        xs.iter().map(|x| x.to_bits()).collect(),
                        ys.iter().map(|y| y.to_bits()).collect(),
                    );
                    let mut outcomes = reduce_all_ways(rank, &xs, |x| x.to_bits());
                    outcomes.extend(reduce_all_ways(rank, &ys, |y| y.to_bits() as u64));
                    rank.barrier();
                    let untouched = xs.iter().map(|x| x.to_bits()).eq(x0)
                        && ys.iter().map(|y| y.to_bits()).eq(y0);
                    let counts = (Arc::strong_count(&xs), Arc::strong_count(&ys));
                    (outcomes, untouched, counts)
                });
                let mut roots = 0;
                for (me, (outcomes, untouched, counts)) in out.results.into_iter().enumerate() {
                    prop_assert!(untouched, "n={n} rank {me}: input changed");
                    prop_assert_eq!(counts, (1, 1), "n={n} rank {me}: input still shared");
                    for (root, op, [shared, sole], want) in outcomes {
                        prop_assert_eq!(root, me as u32);
                        prop_assert_eq!(&shared, &want, "n={n} root={root} op={op:?} shared");
                        prop_assert_eq!(&sole, &want, "n={n} root={root} op={op:?} sole");
                        roots += 1;
                    }
                }
                // Every root, every op, both element types.
                prop_assert_eq!(roots, n as usize * OPS.len() * 2);
            }
        }
    }

    #[test]
    fn allreduce_small_uses_recursive_doubling_and_matches_oracle() {
        for n in [2u32, 3, 5, 8] {
            let out = mpirun(Placement::new(1, n), move |rank| {
                rank.allreduce(ReduceOp::Sum, &per_rank_vec(rank.rank(), 8))
            });
            let expect = oracle_reduce(n, 8, ReduceOp::Sum);
            for r in out.results {
                assert_eq!(r, expect);
            }
        }
    }

    #[test]
    fn allreduce_large_uses_ring_and_matches_oracle() {
        // 32k f64 = 256 KB > threshold, power-of-two size triggers ring.
        let len = 32 * 1024;
        let out = mpirun(Placement::new(2, 2), move |rank| {
            rank.allreduce(ReduceOp::Sum, &per_rank_vec(rank.rank(), len))
        });
        let expect = oracle_reduce(4, len, ReduceOp::Sum);
        for r in out.results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn ring_and_doubling_agree() {
        let len = 1000;
        let out = mpirun(Placement::new(1, 4), move |rank| {
            let d = per_rank_vec(rank.rank(), len);
            let a = rank.allreduce_ring(ReduceOp::Sum, &d);
            let b = rank.allreduce_recursive_doubling(ReduceOp::Sum, &d);
            (a, b)
        });
        for (a, b) in out.results {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let out = mpirun(Placement::new(2, 2), |rank| {
            let root_buf: Vec<i64> = (0..16).collect();
            let mine = rank.scatter(
                0,
                if rank.rank() == 0 {
                    Some(&root_buf)
                } else {
                    None
                },
            );
            assert_eq!(mine.len(), 4);
            assert_eq!(mine[0], rank.rank() as i64 * 4);
            rank.gather(0, &mine)
        });
        assert_eq!(
            out.results[0].clone().unwrap(),
            (0..16).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let out = mpirun(Placement::new(1, 3), |rank| {
            rank.allgather(&[rank.rank() as u64, 100 + rank.rank() as u64])
        });
        for r in out.results {
            assert_eq!(r, vec![0, 100, 1, 101, 2, 102]);
        }
    }

    #[test]
    fn alltoall_transposes() {
        let n = 4u32;
        let out = mpirun(Placement::new(2, 2), move |rank| {
            let me = rank.rank();
            let chunks: Vec<Vec<u32>> = (0..n).map(|dst| vec![me * 10 + dst]).collect();
            rank.alltoall(chunks)
        });
        for (me, rows) in out.results.iter().enumerate() {
            for (src, chunk) in rows.iter().enumerate() {
                assert_eq!(chunk, &vec![src as u32 * 10 + me as u32]);
            }
        }
    }

    #[test]
    fn alltoallv_sparse_matches_dense_alltoall() {
        // Every rank sends a distinct payload to every other rank; the
        // Bruck rotation must deliver the same (src, payload) multiset
        // the dense pairwise exchange produces, at every communicator
        // size including non-powers-of-two.
        for n in [1u32, 2, 3, 4, 5, 7, 8, 12] {
            let out = mpirun(Placement::new(1, n), move |rank| {
                let me = rank.rank();
                let items: Vec<(u32, Vec<u32>)> =
                    (0..n).map(|dst| (dst, vec![me * 100 + dst, me])).collect();
                let mut got = rank.alltoallv_sparse(items);
                got.sort();
                got
            });
            for (me, got) in out.results.iter().enumerate() {
                let expect: Vec<(u32, Vec<u32>)> = (0..n)
                    .map(|src| (src, vec![src * 100 + me as u32, src]))
                    .collect();
                assert_eq!(got, &expect, "n={n} me={me}");
            }
        }
    }

    #[test]
    fn alltoallv_sparse_handles_sparse_and_empty_traffic() {
        // Only rank 0 sends (to the last rank); everyone else has no
        // items but still participates in every round.
        let n = 6u32;
        let out = mpirun(Placement::new(2, 3), move |rank| {
            let me = rank.rank();
            let items: Vec<(u32, Vec<f64>)> = if me == 0 {
                vec![(n - 1, vec![2.5, -1.0])]
            } else {
                Vec::new()
            };
            rank.alltoallv_sparse(items)
        });
        for (me, got) in out.results.iter().enumerate() {
            if me as u32 == n - 1 {
                assert_eq!(got, &vec![(0u32, vec![2.5, -1.0])]);
            } else {
                assert!(got.is_empty(), "rank {me} received unexpected items");
            }
        }
    }

    #[test]
    fn alltoallv_sparse_self_items_and_composition() {
        let out = mpirun(Placement::new(1, 5), |rank| {
            let me = rank.rank();
            // Self-addressed item plus one to the next rank; then another
            // collective to confirm the tag counters stayed aligned.
            let got = rank.alltoallv_sparse(vec![
                (me, vec![me as i64]),
                ((me + 1) % 5, vec![-(me as i64)]),
            ]);
            let s = rank.allreduce(ReduceOp::Sum, &[1.0f64]);
            let mut got = got;
            got.sort();
            (got, s[0])
        });
        for (me, (got, s)) in out.results.iter().enumerate() {
            let me = me as u32;
            let prev = (me + 4) % 5;
            let mut expect = vec![(me, vec![me as i64]), (prev, vec![-(prev as i64)])];
            expect.sort();
            assert_eq!(got, &expect);
            assert_eq!(*s, 5.0);
        }
    }

    /// The `alltoallv_sparse` body the bucketed one replaced, kept as it
    /// was: every round re-partitions all held items by the hop bit.
    impl crate::rank::MpiRank<'_> {
        fn alltoallv_sparse_partitioned<T: MpiScalar>(
            &mut self,
            items: Vec<(u32, Vec<T>)>,
        ) -> Vec<(u32, Vec<T>)> {
            let tag = self.next_coll_tag();
            let n = self.size();
            let me = self.rank();
            self.ctx.span_open("mpi/alltoallv_sparse");
            let mut mine: Vec<(u32, Vec<T>)> = Vec::new();
            let mut held: Vec<(u32, u32, Vec<T>)> = Vec::new();
            for (dst, v) in items {
                if dst == me {
                    mine.push((me, v));
                } else {
                    held.push((me, dst, v));
                }
            }
            let mut k = 0u32;
            while (1u64 << k) < n as u64 {
                let offset = 1u32 << k;
                let to = (me + offset) % n;
                let from = (me + n - offset) % n;
                let (batch, keep): (Vec<_>, Vec<_>) = held
                    .into_iter()
                    .partition(|&(_, dst, _)| ((dst + n - me) % n) & offset != 0);
                held = keep;
                let bytes: u64 = batch
                    .iter()
                    .map(|(_, _, v)| v.len() as u64 * T::BYTES + 8)
                    .sum();
                let bytes = (bytes as f64 * self.bytes_scale) as u64;
                let tr = *self.transport_to(to);
                let pid = self.map.pid(to);
                self.ctx
                    .send(pid, tag, bytes, hpcbd_simnet::Payload::value(batch), &tr);
                let spec = hpcbd_simnet::MatchSpec {
                    src: Some(self.map.pid(from)),
                    tag: Some(tag),
                };
                let msg = self.ctx.recv(spec);
                let received = msg.expect_value::<Vec<(u32, u32, Vec<T>)>>();
                let mut elems = 0usize;
                for (src, dst, v) in Arc::unwrap_or_clone(received) {
                    elems += v.len();
                    if dst == me {
                        mine.push((src, v));
                    } else {
                        held.push((src, dst, v));
                    }
                }
                if elems > 0 {
                    self.charge_elementwise::<T>(elems);
                }
                k += 1;
            }
            self.ctx.span_close();
            mine
        }
    }

    /// A random sparse send list for rank `me` of `n`: up to six items
    /// (none on about one rank in seven), destinations drawn with
    /// repeats and self-addressing allowed, payloads of 0–3 values.
    fn random_sparse_items(seed: u64, n: u32, me: u32) -> Vec<(u32, Vec<f64>)> {
        let h = |tag: u64, i: u64| hpcbd_simnet::det_hash(&(seed, n, me, tag, i));
        (0..h(0, 0) % 7)
            .map(|i| {
                let dst = (h(1, i) % n as u64) as u32;
                let len = h(2, i) % 4;
                let v = (0..len)
                    .map(|j| (h(3, i * 4 + j) % 1000) as f64 / 7.0)
                    .collect();
                (dst, v)
            })
            .collect()
    }

    /// One rank's unsorted `alltoallv_sparse` result and finish time.
    type Exchanged = (Vec<(u32, Vec<f64>)>, u64);

    /// Every rank's [`Exchanged`], through the bucketed body or the
    /// partitioning oracle.
    fn sparse_exchange(seed: u64, n: u32, oracle: bool) -> Vec<Exchanged> {
        // Even sizes span two nodes, so routes mix shared memory and verbs.
        let placement = if n.is_multiple_of(2) {
            Placement::new(2, n / 2)
        } else {
            Placement::new(1, n)
        };
        mpirun(placement, move |rank| {
            let items = random_sparse_items(seed, n, rank.rank());
            let got = if oracle {
                rank.alltoallv_sparse_partitioned(items)
            } else {
                rank.alltoallv_sparse(items)
            };
            (got, rank.now().nanos())
        })
        .results
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn alltoallv_sparse_equals_the_partitioning_body(seed in any::<u64>()) {
            for n in 1u32..=40 {
                let got = sparse_exchange(seed, n, false);
                let want = sparse_exchange(seed, n, true);
                prop_assert_eq!(got, want, "n={}", n);
            }
        }
    }

    #[test]
    fn collectives_compose_without_tag_clashes() {
        let out = mpirun(Placement::new(1, 4), |rank| {
            let r = rank.rank();
            let s = rank.allreduce(ReduceOp::Sum, &[r as f64]);
            rank.barrier();
            let m = rank.allreduce(ReduceOp::Max, &[r as f64]);
            let b = rank.bcast(
                2,
                if r == 2 {
                    Some(Arc::new(vec![9.0f64]))
                } else {
                    None
                },
            );
            (s[0], m[0], b[0])
        });
        for (s, m, b) in out.results {
            assert_eq!((s, m, b), (6.0, 3.0, 9.0));
        }
    }

    #[test]
    fn large_allreduce_faster_with_ring_than_doubling() {
        // The tuned selection should pay off: compare virtual times.
        let len = 512 * 1024; // 4 MB of f64
        let ring = mpirun(Placement::new(4, 1), move |rank| {
            rank.allreduce_ring(ReduceOp::Sum, &vec![1.0f64; len]);
        })
        .elapsed();
        let doubling = mpirun(Placement::new(4, 1), move |rank| {
            rank.allreduce_recursive_doubling(ReduceOp::Sum, &vec![1.0f64; len]);
        })
        .elapsed();
        assert!(
            ring < doubling,
            "ring {ring} should beat recursive doubling {doubling} at 4MB"
        );
    }

    #[test]
    fn wire_size_constant_checks() {
        assert_eq!(<u32 as MpiScalar>::BYTES, 4);
    }

    #[test]
    fn reduce_scatter_block_matches_oracle() {
        for n in [1u32, 2, 4, 5, 8] {
            let block = 3usize;
            let out = mpirun(Placement::new(1, n), move |rank| {
                let data: Vec<f64> = (0..n as usize * block)
                    .map(|i| (rank.rank() as usize * 100 + i) as f64)
                    .collect();
                rank.reduce_scatter_block(ReduceOp::Sum, &data)
            });
            for (me, got) in out.results.iter().enumerate() {
                // Oracle: sum over ranks of their block `me`.
                let oracle: Vec<f64> = (0..block)
                    .map(|j| {
                        (0..n as usize)
                            .map(|r| (r * 100 + me * block + j) as f64)
                            .sum()
                    })
                    .collect();
                assert_eq!(got, &oracle, "n={n} me={me}");
            }
        }
    }

    #[test]
    fn scan_computes_inclusive_prefixes() {
        let out = mpirun(Placement::new(2, 3), |rank| {
            rank.scan(ReduceOp::Sum, &[rank.rank() as f64, 1.0])
        });
        for (me, got) in out.results.iter().enumerate() {
            let prefix: f64 = (0..=me).map(|r| r as f64).sum();
            assert_eq!(got, &vec![prefix, me as f64 + 1.0]);
        }
    }

    #[test]
    fn scan_max_and_composition_with_other_collectives() {
        let out = mpirun(Placement::new(1, 4), |rank| {
            let s = rank.scan(ReduceOp::Max, &[rank.rank() as f64 % 3.0]);
            rank.barrier();
            let rs = rank.reduce_scatter_block(ReduceOp::Sum, &[1.0f64; 4]);
            (s[0], rs[0])
        });
        assert_eq!(
            out.results,
            vec![(0.0, 4.0), (1.0, 4.0), (2.0, 4.0), (2.0, 4.0)]
        );
    }
}
