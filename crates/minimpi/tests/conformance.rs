//! Schedule-exploration conformance: a representative MPI job must be
//! bit-identical to the sequential oracle under perturbed legal
//! schedules (see `hpcbd_check::explore`).

use hpcbd_check::Explorer;
use hpcbd_cluster::Placement;
use hpcbd_minimpi::{mpirun, ReduceOp};

/// Allreduce + barrier + alltoall across 4 ranks on 2 nodes: the
/// collective mix fig3 stresses, at smoke scale.
fn collective_workload() {
    let out = mpirun(Placement::new(2, 2), |rank| {
        let v = vec![rank.rank() as f64 + 1.0; 8];
        let summed = rank.allreduce(ReduceOp::Sum, &v);
        rank.barrier();
        let (me, n) = (rank.rank(), rank.size());
        let chunks: Vec<Vec<u64>> = (0..n).map(|p| vec![(me * 10 + p) as u64]).collect();
        let gathered = rank.alltoall(chunks);
        (summed, gathered)
    });
    // 1+2+3+4 = 10 in every allreduce slot; slot `src` of the alltoall
    // holds what `src` addressed to us.
    for (me, (summed, gathered)) in out.results.iter().enumerate() {
        assert!(summed.iter().all(|x| *x == 10.0));
        let expect: Vec<Vec<u64>> = (0..4).map(|src| vec![src * 10 + me as u64]).collect();
        assert_eq!(*gathered, expect);
    }
}

#[test]
fn mpi_collectives_are_schedule_independent() {
    Explorer::new(0x4D50)
        .schedules(8)
        .explore(collective_workload)
        .assert_deterministic();
}
