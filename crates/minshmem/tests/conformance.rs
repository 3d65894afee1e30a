//! Schedule-exploration conformance: a PGAS workload with one-sided
//! puts and a global barrier must be bit-identical to the sequential
//! oracle under perturbed legal schedules.

use hpcbd_check::Explorer;
use hpcbd_cluster::Placement;
use hpcbd_minshmem::shmem_run;

fn pgas_workload() {
    let out = shmem_run(Placement::new(2, 2), |pe| {
        let arr = pe.malloc::<u64>("slots", 4, 0);
        let me = pe.pe();
        // Every PE writes into PE 0's symmetric array, then reads a
        // neighbour's slot back after the barrier.
        pe.put(&arr, me as usize, &[me as u64 * 7], 0);
        pe.barrier_all();
        pe.local_clone(&arr)
    });
    assert_eq!(out.results[0], vec![0, 7, 14, 21]);
}

#[test]
fn shmem_puts_are_schedule_independent() {
    Explorer::new(0x5348)
        .schedules(8)
        .explore(pgas_workload)
        .assert_deterministic();
}
