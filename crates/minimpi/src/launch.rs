//! `mpirun` — SPMD job launch.

use std::sync::Arc;

use hpcbd_cluster::{ClusterSpec, Placement, RankMap};
use hpcbd_simnet::{FaultPlan, Pid, ProcCtx, Sim, SimReport, SimTime};

use crate::rank::MpiRank;

/// Everything an MPI job run produced: per-rank results in rank order,
/// plus the simulation report (per-process stats and the makespan, which
/// is the job's execution time).
pub struct MpiOutput<T> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<T>,
    /// Engine report.
    pub report: SimReport,
}

impl<T> MpiOutput<T> {
    /// The job's execution time (virtual time of the slowest rank).
    pub fn elapsed(&self) -> SimTime {
        self.report.makespan()
    }
}

/// A builder for embedding MPI ranks into an existing simulation that
/// also hosts non-MPI processes (HDFS daemons, measurement probes, ...).
pub struct MpiJob {
    placement: Placement,
    pids: Vec<Pid>,
}

impl MpiJob {
    /// Spawn one process per rank of `placement` into `sim`, each running
    /// `f`. Rank r is placed on node `placement.node_of_rank(r)`.
    pub fn spawn<T, F>(sim: &mut Sim, placement: Placement, f: F) -> MpiJob
    where
        T: Send + 'static,
        F: Fn(&mut MpiRank) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let mut pids = Vec::with_capacity(placement.total() as usize);
        // The rank map is published to every rank closure after all of
        // them are registered; processes only start at `sim.run()`, so
        // the OnceLock is always populated before any rank reads it.
        let shared_map: Arc<std::sync::OnceLock<Arc<RankMap>>> =
            Arc::new(std::sync::OnceLock::new());
        let win_store = crate::rma::WinStore::new();
        for (rank, node) in placement.iter() {
            let f = f.clone();
            let shared_map = shared_map.clone();
            let win_store = win_store.clone();
            let pid = sim.spawn(node, format!("mpi-rank{rank}"), move |ctx: &mut ProcCtx| {
                let map = shared_map
                    .get()
                    .expect("rank map published before run")
                    .clone();
                let mut rank_handle =
                    MpiRank::new(ctx, rank, map, placement).with_win_store(win_store);
                f(&mut rank_handle)
            });
            pids.push(pid);
        }
        shared_map
            .set(Arc::new(RankMap::from_pids(pids.clone())))
            .expect("rank map set once");
        MpiJob { placement, pids }
    }

    /// Pids of the spawned ranks, in rank order.
    pub fn pids(&self) -> &[Pid] {
        &self.pids
    }

    /// The job placement.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Collect per-rank results from a finished simulation.
    pub fn results<T: 'static>(&self, report: &mut SimReport) -> Vec<T> {
        self.pids.iter().map(|p| report.result::<T>(*p)).collect()
    }
}

/// Launch an SPMD MPI job on a dedicated Comet allocation sized to the
/// placement, run it to completion, and return per-rank results.
///
/// This is the `mpirun -np N --map-by ppr:P:node` of the study.
pub fn mpirun<T, F>(placement: Placement, f: F) -> MpiOutput<T>
where
    T: Send + 'static,
    F: Fn(&mut MpiRank) -> T + Send + Sync + 'static,
{
    mpirun_on(&ClusterSpec::comet(placement.nodes), placement, f)
}

/// [`mpirun`] with an explicit cluster description.
pub fn mpirun_on<T, F>(cluster: &ClusterSpec, placement: Placement, f: F) -> MpiOutput<T>
where
    T: Send + 'static,
    F: Fn(&mut MpiRank) -> T + Send + Sync + 'static,
{
    mpirun_impl(cluster, placement, None, f)
}

/// [`mpirun`] under a deterministic [`FaultPlan`]: the plan is installed
/// before any rank starts, so node crashes, stragglers, link faults, and
/// message drops hit the job exactly as scheduled. Pair with
/// [`crate::Checkpointer::poll_plan_failure`] inside `f` for recovery —
/// without it, a crashed rank simply never reaches its next collective
/// and the job hangs or aborts, which is plain MPI's actual behavior.
pub fn mpirun_faulty<T, F>(placement: Placement, plan: FaultPlan, f: F) -> MpiOutput<T>
where
    T: Send + 'static,
    F: Fn(&mut MpiRank) -> T + Send + Sync + 'static,
{
    mpirun_impl(
        &ClusterSpec::comet(placement.nodes),
        placement,
        Some(plan),
        f,
    )
}

fn mpirun_impl<T, F>(
    cluster: &ClusterSpec,
    placement: Placement,
    faults: Option<FaultPlan>,
    f: F,
) -> MpiOutput<T>
where
    T: Send + 'static,
    F: Fn(&mut MpiRank) -> T + Send + Sync + 'static,
{
    assert!(
        placement.nodes <= cluster.nodes,
        "placement needs {} nodes, cluster has {}",
        placement.nodes,
        cluster.nodes
    );
    let mut sim = Sim::new(cluster.topology());
    if let Some(plan) = faults {
        sim.set_fault_plan(plan);
    }
    let job = MpiJob::spawn(&mut sim, placement, f);
    let mut report = sim.run();
    let results = job.results::<T>(&mut report);
    MpiOutput { results, report }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_correct_rank_and_size() {
        let out = mpirun(Placement::new(2, 3), |rank| (rank.rank(), rank.size()));
        assert_eq!(out.results.len(), 6);
        for (i, (r, s)) in out.results.iter().enumerate() {
            assert_eq!(*r as usize, i);
            assert_eq!(*s, 6);
        }
    }

    #[test]
    fn elapsed_is_positive_once_ranks_communicate() {
        let out = mpirun(Placement::new(2, 1), |rank| {
            if rank.rank() == 0 {
                rank.send(1, 1, &[42u64]);
            } else {
                rank.recv::<u64>(Some(0), 1);
            }
        });
        assert!(out.elapsed() > SimTime::ZERO);
    }

    #[test]
    fn placement_accessible_from_rank() {
        let out = mpirun(Placement::new(2, 2), |rank| {
            rank.placement().node_of_rank(rank.rank()).0
        });
        assert_eq!(out.results, vec![0, 0, 1, 1]);
    }
}
