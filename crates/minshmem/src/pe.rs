//! The per-PE handle: symmetric allocation and one-sided communication.

use std::marker::PhantomData;
use std::sync::Arc;

use hpcbd_cluster::{Placement, RankMap};
use hpcbd_simnet::{MatchSpec, Payload, ProcCtx, Tag, Transport};

use crate::heap::{SymArray, SymHeaps};

/// Tag space for signal delivery; allocation ids and user signals share
/// the space below.
const SIGNAL_TAG_BASE: Tag = 1 << 41;

/// The handle each PE's closure receives from [`crate::shmem_run`]:
/// `shmem_my_pe` / `shmem_n_pes` addressing, symmetric allocation, and
/// the one-sided operations.
pub struct PeCtx<'a> {
    pub(crate) ctx: &'a mut ProcCtx,
    pub(crate) pe: u32,
    pub(crate) npes: u32,
    pub(crate) map: Arc<RankMap>,
    pub(crate) placement: Placement,
    pub(crate) heaps: Arc<SymHeaps>,
    pub(crate) rdma: Transport,
    pub(crate) next_alloc: u64,
    pub(crate) coll_seq: u64,
    pub(crate) bytes_scale: f64,
}

impl<'a> PeCtx<'a> {
    /// Construct a PE handle (used by the launcher).
    pub(crate) fn new(
        ctx: &'a mut ProcCtx,
        pe: u32,
        map: Arc<RankMap>,
        placement: Placement,
        heaps: Arc<SymHeaps>,
    ) -> PeCtx<'a> {
        let npes = map.len() as u32;
        PeCtx {
            ctx,
            pe,
            npes,
            map,
            placement,
            heaps,
            rdma: Transport::rdma_verbs(),
            next_alloc: 0,
            coll_seq: 0,
            bytes_scale: 1.0,
        }
    }

    /// Set the logical-bytes multiplier applied to every one-sided
    /// transfer (sampled-dataset costing; see DESIGN.md §2).
    pub fn set_bytes_scale(&mut self, scale: f64) {
        assert!(scale >= 1.0, "bytes scale must be >= 1");
        self.bytes_scale = scale;
    }

    /// `shmem_my_pe`.
    #[inline]
    pub fn pe(&self) -> u32 {
        self.pe
    }

    /// `shmem_n_pes`.
    #[inline]
    pub fn npes(&self) -> u32 {
        self.npes
    }

    /// Access the simulation context (compute costing, clock).
    #[inline]
    pub fn ctx(&mut self) -> &mut ProcCtx {
        self.ctx
    }

    /// The PE-to-node placement of this team.
    #[inline]
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> hpcbd_simnet::SimTime {
        self.ctx.now()
    }

    /// Open a named phase span on this PE's trace (no-op when tracing is
    /// off; see [`ProcCtx::span_open`]).
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

    /// `shmem_malloc` + initialization: collectively allocate a symmetric
    /// array of `len` elements, filled with `fill`, on every PE. All PEs
    /// must call with identical arguments (symmetric execution), like the
    /// real API. The `name` is for diagnostics only.
    pub fn malloc<T: Clone + Send + Sync + 'static>(
        &mut self,
        name: &str,
        len: usize,
        fill: T,
    ) -> SymArray<T> {
        let _ = name;
        let id = self.next_alloc;
        self.next_alloc += 1;
        self.heaps.install(self.pe, id, len, fill);
        // Symmetric allocation synchronizes like a barrier.
        self.barrier_all();
        SymArray {
            id,
            len,
            _t: PhantomData,
        }
    }

    /// `shmem_free` (collective).
    pub fn free<T>(&mut self, arr: SymArray<T>) {
        self.heaps.free(self.pe, arr.id);
        self.barrier_all();
    }

    /// Read this PE's local slice of a symmetric array.
    pub fn local_clone<T: Clone + 'static>(&self, arr: &SymArray<T>) -> Vec<T> {
        self.heaps.with(self.pe, arr, |v| v.clone())
    }

    /// Read a sub-range of this PE's local copy of a symmetric array.
    pub fn local_range<T: Clone + 'static>(
        &self,
        arr: &SymArray<T>,
        offset: usize,
        len: usize,
    ) -> Vec<T> {
        self.heaps
            .with(self.pe, arr, |v| v[offset..offset + len].to_vec())
    }

    /// Overwrite part of this PE's local slice (plain local store).
    pub fn local_write<T: Copy + 'static>(&mut self, arr: &SymArray<T>, offset: usize, src: &[T]) {
        self.heaps.with_mut(self.pe, arr, |v| {
            v[offset..offset + src.len()].copy_from_slice(src);
        });
    }

    /// `shmem_put`: one-sided write of `src` into `target_pe`'s copy of
    /// `arr` at `offset`. Blocks until remote completion; the target PE's
    /// CPU is not involved.
    pub fn put<T: Copy + Send + Sync + 'static>(
        &mut self,
        arr: &SymArray<T>,
        offset: usize,
        src: &[T],
        target_pe: u32,
    ) {
        let bytes = (std::mem::size_of_val(src) as f64 * self.bytes_scale) as u64;
        let node = self.placement.node_of_rank(target_pe);
        // The heap store happens inside the transfer's commit window so
        // remote-memory effects land in virtual-time order even when
        // other PEs execute concurrently.
        let heaps = &self.heaps;
        self.ctx
            .one_sided_transfer_with(node, bytes, &self.rdma, 1, || {
                heaps.with_mut(target_pe, arr, |v| {
                    v[offset..offset + src.len()].copy_from_slice(src);
                });
            });
    }

    /// `shmem_get`: one-sided read of `len` elements at `offset` from
    /// `target_pe`'s copy of `arr`.
    pub fn get<T: Copy + Send + Sync + 'static>(
        &mut self,
        arr: &SymArray<T>,
        offset: usize,
        len: usize,
        target_pe: u32,
    ) -> Vec<T> {
        let bytes = ((len * std::mem::size_of::<T>()) as f64 * self.bytes_scale) as u64;
        let node = self.placement.node_of_rank(target_pe);
        let heaps = &self.heaps;
        self.ctx
            .one_sided_transfer_with(node, bytes, &self.rdma, 2, || {
                heaps.with(target_pe, arr, |v| v[offset..offset + len].to_vec())
            })
    }

    /// `shmem_atomic_fetch_add` on one `u64` slot of `target_pe`'s array.
    pub fn atomic_fetch_add(
        &mut self,
        arr: &SymArray<u64>,
        index: usize,
        value: u64,
        target_pe: u32,
    ) -> u64 {
        let node = self.placement.node_of_rank(target_pe);
        let heaps = &self.heaps;
        self.ctx
            .one_sided_transfer_with(node, 8, &self.rdma, 2, || {
                heaps.with_mut(target_pe, arr, |v| {
                    let old = v[index];
                    v[index] += value;
                    old
                })
            })
    }

    /// `shmem_atomic_compare_swap`: if slot `index` of `target_pe`'s
    /// array equals `expected`, store `desired`; returns the previous
    /// value either way. One network round trip, target CPU untouched.
    pub fn atomic_compare_swap(
        &mut self,
        arr: &SymArray<u64>,
        index: usize,
        expected: u64,
        desired: u64,
        target_pe: u32,
    ) -> u64 {
        let node = self.placement.node_of_rank(target_pe);
        let heaps = &self.heaps;
        self.ctx
            .one_sided_transfer_with(node, 16, &self.rdma, 2, || {
                heaps.with_mut(target_pe, arr, |v| {
                    let old = v[index];
                    if old == expected {
                        v[index] = desired;
                    }
                    old
                })
            })
    }

    /// `shmem_put_signal`: a put followed by a signal delivery the target
    /// can block on with [`PeCtx::wait_signal`]. This is the RDMA-native
    /// notification idiom the collectives build on.
    pub fn put_signal<T: Copy + Send + Sync + 'static>(
        &mut self,
        arr: &SymArray<T>,
        offset: usize,
        src: &[T],
        target_pe: u32,
        signal: u64,
    ) {
        self.put(arr, offset, src, target_pe);
        self.signal(target_pe, signal);
    }

    /// Deliver a bare signal (zero-byte put-with-signal).
    pub fn signal(&mut self, target_pe: u32, signal: u64) {
        let pid = self.map.pid(target_pe);
        self.ctx.send(
            pid,
            SIGNAL_TAG_BASE + signal,
            8,
            Payload::Empty,
            &self.rdma.clone(),
        );
    }

    /// `shmem_wait_until`-style blocking on a signal value, returning the
    /// signalling PE.
    pub fn wait_signal(&mut self, signal: u64) -> u32 {
        let msg = self.ctx.recv(MatchSpec::tag(SIGNAL_TAG_BASE + signal));
        self.map
            .rank_of(msg.src)
            .expect("signal from non-PE process")
    }

    /// Next collective sequence number (kept aligned by symmetric
    /// execution, like the MPI collective tags).
    pub(crate) fn next_coll_seq(&mut self) -> u64 {
        self.coll_seq += 1;
        // Collective signals live far above user signals.
        (1 << 20) + self.coll_seq * 64
    }
}

#[cfg(test)]
mod tests {
    use crate::launch::shmem_run;
    use hpcbd_cluster::Placement;

    #[test]
    fn put_writes_remote_heap_only() {
        let out = shmem_run(Placement::new(2, 1), |pe| {
            let a = pe.malloc::<u32>("a", 2, 0);
            if pe.pe() == 0 {
                pe.put(&a, 1, &[77], 1);
            }
            pe.barrier_all();
            pe.local_clone(&a)
        });
        assert_eq!(out.results[0], vec![0, 0], "initiator heap untouched");
        assert_eq!(out.results[1], vec![0, 77]);
    }

    #[test]
    fn get_reads_remote_heap() {
        let out = shmem_run(Placement::new(2, 2), |pe| {
            let a = pe.malloc::<u64>("a", 1, 0);
            pe.local_write(&a, 0, &[pe.pe() as u64 * 100]);
            pe.barrier_all();
            let left = (pe.pe() + pe.npes() - 1) % pe.npes();
            pe.get(&a, 0, 1, left)[0]
        });
        assert_eq!(out.results, vec![300, 0, 100, 200]);
    }

    #[test]
    fn atomics_serialize_correctly() {
        let out = shmem_run(Placement::new(2, 2), |pe| {
            let a = pe.malloc::<u64>("ctr", 1, 0);
            let old = pe.atomic_fetch_add(&a, 0, 1, 0);
            pe.barrier_all();
            (old, pe.local_clone(&a)[0])
        });
        let finals: Vec<u64> = out.results.iter().map(|(_, f)| *f).collect();
        assert_eq!(finals[0], 4, "PE0 sees all four increments");
        let mut olds: Vec<u64> = out.results.iter().map(|(o, _)| *o).collect();
        olds.sort();
        assert_eq!(olds, vec![0, 1, 2, 3], "fetch-add returns unique olds");
    }

    #[test]
    fn signals_synchronize_producer_consumer() {
        let out = shmem_run(Placement::new(2, 1), |pe| {
            let a = pe.malloc::<u64>("x", 1, 0);
            if pe.pe() == 0 {
                pe.put_signal(&a, 0, &[99], 1, 5);
                0
            } else {
                let from = pe.wait_signal(5);
                assert_eq!(from, 0);
                pe.local_clone(&a)[0]
            }
        });
        assert_eq!(out.results[1], 99);
    }

    #[test]
    fn one_sided_ops_do_not_charge_target_cpu() {
        let out = shmem_run(Placement::new(2, 1), |pe| {
            let a = pe.malloc::<u8>("buf", 1 << 20, 0);
            if pe.pe() == 0 {
                let src = vec![1u8; 1 << 20];
                for _ in 0..8 {
                    pe.put(&a, 0, &src, 1);
                }
            }
            // No barrier: PE1 exits immediately after allocation.
            pe.now().nanos()
        });
        // PE1's clock only advanced through malloc's barrier, staying far
        // below PE0's, which paid for 8 MiB of puts.
        assert!(out.results[1] < out.results[0] / 2);
        let _ = out;
    }
}
