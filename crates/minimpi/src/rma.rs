//! MPI-3 one-sided communication (RMA windows).
//!
//! Sec. II-B of the paper traces the RMA interface from its limited
//! MPI-2 form to the MPI-3 overhaul that gives "better support for
//! one-sided and global-address-space models": memory exposed through
//! **windows**, remotely accessed with put/get/accumulate, synchronized
//! with fences. This module implements that active-target model. The
//! target rank's CPU is never involved in a transfer (RDMA offload),
//! exactly like the `minshmem` runtime — the two share the engine's
//! one-sided cost path.

use std::any::Any;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::datatype::{MpiScalar, ReduceOp};
use crate::rank::MpiRank;

/// Storage behind every window of one MPI job: per-rank buffers keyed by
/// window id. Shared by all rank closures through an `Arc`.
#[derive(Default)]
pub struct WinStore {
    wins: RwLock<HashMap<(u64, u32), Box<dyn Any + Send + Sync>>>,
}

impl WinStore {
    /// Fresh store (one per job).
    pub fn new() -> Arc<WinStore> {
        Arc::new(WinStore::default())
    }

    fn install<T: MpiScalar>(&self, win: u64, rank: u32, buf: Vec<T>) {
        self.wins.write().insert((win, rank), Box::new(buf));
    }

    fn with<T: MpiScalar, R>(&self, win: u64, rank: u32, f: impl FnOnce(&Vec<T>) -> R) -> R {
        let g = self.wins.read();
        let cell = g
            .get(&(win, rank))
            .unwrap_or_else(|| panic!("window {win} not exposed on rank {rank}"));
        f(cell.downcast_ref::<Vec<T>>().expect("window type mismatch"))
    }

    fn with_mut<T: MpiScalar, R>(
        &self,
        win: u64,
        rank: u32,
        f: impl FnOnce(&mut Vec<T>) -> R,
    ) -> R {
        let mut g = self.wins.write();
        let cell = g
            .get_mut(&(win, rank))
            .unwrap_or_else(|| panic!("window {win} not exposed on rank {rank}"));
        f(cell.downcast_mut::<Vec<T>>().expect("window type mismatch"))
    }

    fn free(&self, win: u64, rank: u32) {
        self.wins.write().remove(&(win, rank));
    }
}

/// A window handle (`MPI_Win`): this rank's exposed buffer plus the
/// ability to access every other rank's.
pub struct MpiWin<T> {
    id: u64,
    len: usize,
    _t: PhantomData<fn() -> T>,
}

impl<T: MpiScalar> MpiWin<T> {
    /// Elements each rank exposes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-length windows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl MpiRank<'_> {
    /// `MPI_Win_create` (collective): expose `local` for one-sided access
    /// by every rank. All ranks must pass buffers of the same length.
    pub fn win_create<T: MpiScalar>(&mut self, local: Vec<T>) -> MpiWin<T> {
        let id = self.next_win_id();
        let len = local.len();
        self.win_store().install(id, self.rank(), local);
        self.barrier();
        MpiWin {
            id,
            len,
            _t: PhantomData,
        }
    }

    /// `MPI_Win_free` (collective).
    pub fn win_free<T: MpiScalar>(&mut self, win: MpiWin<T>) {
        self.win_store().free(win.id, self.rank());
        self.barrier();
    }

    /// `MPI_Win_fence`: separate RMA epochs (a barrier; all outstanding
    /// one-sided transfers in this engine complete synchronously, so the
    /// fence's remaining job is the synchronization).
    pub fn win_fence<T: MpiScalar>(&mut self, _win: &MpiWin<T>) {
        self.barrier();
    }

    /// `MPI_Put`: one-sided write into `target`'s window at `offset`.
    pub fn win_put<T: MpiScalar>(
        &mut self,
        win: &MpiWin<T>,
        target: u32,
        offset: usize,
        data: &[T],
    ) {
        let bytes = (data.len() as u64 * T::BYTES) as f64 * self.bytes_scale;
        let node = self.placement().node_of_rank(target);
        let tr = self.rdma_transport();
        let store = self.win_store();
        // Window mutation inside the transfer's commit window: remote
        // memory effects apply in virtual-time order.
        self.ctx()
            .one_sided_transfer_with(node, bytes as u64, &tr, 1, || {
                store.with_mut(win.id, target, |buf: &mut Vec<T>| {
                    buf[offset..offset + data.len()].copy_from_slice(data);
                });
            });
    }

    /// `MPI_Get`: one-sided read from `target`'s window.
    pub fn win_get<T: MpiScalar>(
        &mut self,
        win: &MpiWin<T>,
        target: u32,
        offset: usize,
        len: usize,
    ) -> Vec<T> {
        let bytes = (len as u64 * T::BYTES) as f64 * self.bytes_scale;
        let node = self.placement().node_of_rank(target);
        let tr = self.rdma_transport();
        let store = self.win_store();
        self.ctx()
            .one_sided_transfer_with(node, bytes as u64, &tr, 2, || {
                store.with(win.id, target, |buf: &Vec<T>| {
                    buf[offset..offset + len].to_vec()
                })
            })
    }

    /// `MPI_Accumulate` with a predefined op: element-wise combine `data`
    /// into `target`'s window (atomic per element, like the standard
    /// requires for same-op accumulates).
    pub fn win_accumulate<T: MpiScalar>(
        &mut self,
        win: &MpiWin<T>,
        target: u32,
        offset: usize,
        op: ReduceOp,
        data: &[T],
    ) {
        let bytes = (data.len() as u64 * T::BYTES) as f64 * self.bytes_scale;
        let node = self.placement().node_of_rank(target);
        let tr = self.rdma_transport();
        let store = self.win_store();
        // Accumulate needs the round trip (fetch-op at the target HCA).
        self.ctx()
            .one_sided_transfer_with(node, bytes as u64, &tr, 2, || {
                store.with_mut(win.id, target, |buf: &mut Vec<T>| {
                    for (i, v) in data.iter().enumerate() {
                        buf[offset + i] = op.apply(buf[offset + i], *v);
                    }
                });
            });
    }

    /// Read this rank's own window contents (local load).
    pub fn win_local<T: MpiScalar>(&mut self, win: &MpiWin<T>) -> Vec<T> {
        let me = self.rank();
        self.win_store()
            .with(win.id, me, |buf: &Vec<T>| buf.clone())
    }
}

#[cfg(test)]
mod tests {
    use crate::launch::mpirun;
    use crate::ReduceOp;
    use hpcbd_cluster::Placement;

    #[test]
    fn put_fence_exposes_remote_writes() {
        let out = mpirun(Placement::new(2, 2), |rank| {
            let win = rank.win_create(vec![0u64; 4]);
            rank.win_fence(&win);
            // Everyone writes its id into slot `me` of rank 0's window.
            let me = rank.rank();
            rank.win_put(&win, 0, me as usize, &[me as u64 + 100]);
            rank.win_fence(&win);
            let local = rank.win_local(&win);
            rank.win_free(win);
            local
        });
        assert_eq!(out.results[0], vec![100, 101, 102, 103]);
        assert_eq!(out.results[1], vec![0, 0, 0, 0], "only rank 0 was written");
    }

    #[test]
    fn get_reads_remote_windows() {
        let out = mpirun(Placement::new(2, 1), |rank| {
            let me = rank.rank();
            let win = rank.win_create(vec![me as f64 * 10.0; 2]);
            rank.win_fence(&win);
            let other = 1 - me;
            let got = rank.win_get(&win, other, 0, 2);
            rank.win_fence(&win);
            rank.win_free(win);
            got
        });
        assert_eq!(out.results[0], vec![10.0, 10.0]);
        assert_eq!(out.results[1], vec![0.0, 0.0]);
    }

    #[test]
    fn accumulate_sums_contributions() {
        let out = mpirun(Placement::new(1, 4), |rank| {
            let win = rank.win_create(vec![0u64; 1]);
            rank.win_fence(&win);
            rank.win_accumulate(&win, 0, 0, ReduceOp::Sum, &[rank.rank() as u64 + 1]);
            rank.win_fence(&win);
            let v = rank.win_local(&win)[0];
            rank.win_free(win);
            v
        });
        assert_eq!(out.results[0], 1 + 2 + 3 + 4);
    }

    #[test]
    fn one_sided_does_not_involve_target_cpu() {
        let out = mpirun(Placement::new(2, 1), |rank| {
            let win = rank.win_create(vec![0u8; 1 << 20]);
            rank.win_fence(&win);
            if rank.rank() == 0 {
                let data = vec![7u8; 1 << 20];
                for _ in 0..8 {
                    rank.win_put(&win, 1, 0, &data);
                }
            }
            // Clock before the fence resynchronizes everyone: the target
            // must not have paid for the incoming puts.
            let t = rank.now().nanos();
            rank.win_fence(&win);
            rank.win_free(win);
            t
        });
        // Rank 1 paid only the fences; rank 0 paid 8 MiB of puts.
        assert!(out.results[1] < out.results[0]);
    }

    #[test]
    #[should_panic(expected = "not exposed")]
    fn access_after_free_panics() {
        mpirun(Placement::new(1, 2), |rank| {
            let win = rank.win_create(vec![0u32; 1]);
            rank.win_fence(&win);
            let id_probe = rank.rank() == 0;
            let w2 = rank.win_create(vec![0u32; 1]);
            rank.win_free(w2);
            if id_probe {
                // Window 1 was freed; accessing it must fail loudly.
                // (win handle consumed by free, so re-create the access
                // through a fresh window of the same id space.)
            }
            rank.win_put(&win, 0, 0, &[1]);
            rank.win_free(win);
            // Deliberate failure: put into a freed window id.
            let ghost = crate::rma::MpiWin::<u32> {
                id: 1,
                len: 1,
                _t: std::marker::PhantomData,
            };
            rank.win_put(&ghost, 0, 0, &[1]);
        });
    }
}
