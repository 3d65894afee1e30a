//! SPMD launch of a PE team (`shmem_init` / `oshrun`).

use std::sync::Arc;

use hpcbd_cluster::{ClusterSpec, Placement, RankMap};
use hpcbd_simnet::{FaultPlan, Pid, ProcCtx, Sim, SimReport, SimTime};

use crate::heap::SymHeaps;
use crate::pe::PeCtx;

/// Results of a PE team run.
pub struct ShmemOutput<T> {
    /// Per-PE return values, indexed by PE number.
    pub results: Vec<T>,
    /// Engine report.
    pub report: SimReport,
}

impl<T> ShmemOutput<T> {
    /// Execution time (virtual time of the slowest PE).
    pub fn elapsed(&self) -> SimTime {
        self.report.makespan()
    }
}

/// Embeds a PE team into an existing simulation (mirrors
/// `hpcbd_minimpi::MpiJob`).
pub struct ShmemJob {
    pids: Vec<Pid>,
}

impl ShmemJob {
    /// Spawn one process per PE of `placement` into `sim`.
    pub fn spawn<T, F>(sim: &mut Sim, placement: Placement, f: F) -> ShmemJob
    where
        T: Send + 'static,
        F: Fn(&mut PeCtx) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let heaps = SymHeaps::new(placement.total() as usize);
        let shared_map: Arc<std::sync::OnceLock<Arc<RankMap>>> =
            Arc::new(std::sync::OnceLock::new());
        let mut pids = Vec::with_capacity(placement.total() as usize);
        for (pe, node) in placement.iter() {
            let f = f.clone();
            let heaps = heaps.clone();
            let shared_map = shared_map.clone();
            let pid = sim.spawn(node, format!("pe{pe}"), move |ctx: &mut ProcCtx| {
                let map = shared_map.get().expect("PE map published").clone();
                let mut pe_handle = PeCtx::new(ctx, pe, map, placement, heaps);
                f(&mut pe_handle)
            });
            pids.push(pid);
        }
        shared_map
            .set(Arc::new(RankMap::from_pids(pids.clone())))
            .expect("PE map set once");
        ShmemJob { pids }
    }

    /// Pids of the team, in PE order.
    pub fn pids(&self) -> &[Pid] {
        &self.pids
    }

    /// Collect per-PE results from a finished simulation.
    pub fn results<T: 'static>(&self, report: &mut SimReport) -> Vec<T> {
        self.pids.iter().map(|p| report.result::<T>(*p)).collect()
    }
}

/// Launch a PE team on a Comet allocation sized to the placement.
pub fn shmem_run<T, F>(placement: Placement, f: F) -> ShmemOutput<T>
where
    T: Send + 'static,
    F: Fn(&mut PeCtx) -> T + Send + Sync + 'static,
{
    shmem_run_on(&ClusterSpec::comet(placement.nodes), placement, f)
}

/// [`shmem_run`] on an explicit cluster.
pub fn shmem_run_on<T, F>(cluster: &ClusterSpec, placement: Placement, f: F) -> ShmemOutput<T>
where
    T: Send + 'static,
    F: Fn(&mut PeCtx) -> T + Send + Sync + 'static,
{
    shmem_run_impl(cluster, placement, None, f)
}

/// [`shmem_run`] under a deterministic [`FaultPlan`] (mirrors
/// `hpcbd_minimpi::mpirun_faulty` — the plan is installed before any PE
/// starts). Pair with [`crate::ShmemCheckpointer::poll_plan_failure`]
/// inside `f` for recovery.
pub fn shmem_run_faulty<T, F>(placement: Placement, plan: FaultPlan, f: F) -> ShmemOutput<T>
where
    T: Send + 'static,
    F: Fn(&mut PeCtx) -> T + Send + Sync + 'static,
{
    shmem_run_impl(
        &ClusterSpec::comet(placement.nodes),
        placement,
        Some(plan),
        f,
    )
}

fn shmem_run_impl<T, F>(
    cluster: &ClusterSpec,
    placement: Placement,
    faults: Option<FaultPlan>,
    f: F,
) -> ShmemOutput<T>
where
    T: Send + 'static,
    F: Fn(&mut PeCtx) -> T + Send + Sync + 'static,
{
    let mut sim = Sim::new(cluster.topology());
    if let Some(plan) = faults {
        sim.set_fault_plan(plan);
    }
    let job = ShmemJob::spawn(&mut sim, placement, f);
    let mut report = sim.run();
    let results = job.results::<T>(&mut report);
    ShmemOutput { results, report }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pes_see_identity() {
        let out = shmem_run(Placement::new(2, 2), |pe| (pe.pe(), pe.npes()));
        for (i, (me, n)) in out.results.iter().enumerate() {
            assert_eq!(*me as usize, i);
            assert_eq!(*n, 4);
        }
    }

    #[test]
    fn deterministic_elapsed() {
        let t1 = shmem_run(Placement::new(2, 2), |pe| {
            let a = pe.malloc::<u64>("a", 8, 0);
            pe.put(&a, 0, &[pe.pe() as u64; 8], (pe.pe() + 1) % pe.npes());
            pe.barrier_all();
        })
        .elapsed();
        let t2 = shmem_run(Placement::new(2, 2), |pe| {
            let a = pe.malloc::<u64>("a", 8, 0);
            pe.put(&a, 0, &[pe.pe() as u64; 8], (pe.pe() + 1) % pe.npes());
            pe.barrier_all();
        })
        .elapsed();
        assert_eq!(t1, t2);
    }
}
