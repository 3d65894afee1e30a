//! Schedule-exploration conformance: a simulated process that mixes the
//! *real* fork-join pool with the OpenMP timing model must stay
//! bit-identical to the sequential oracle under perturbed schedules —
//! even with genuine OS threads (the pool's workers) running inside the
//! simulated process's compute segments.

use hpcbd_check::Explorer;
use hpcbd_minomp::{OmpModel, OmpPool, Schedule};
use hpcbd_simnet::{NodeId, Sim, Topology, Work};

fn omp_region_workload() {
    let mut sim = Sim::new(Topology::comet(1));
    sim.spawn(NodeId(0), "omp", |ctx| {
        // Real pool execution: the reduction result (deterministic by
        // the pool's chunk-keyed fold) feeds the modeled region size, so
        // any pool nondeterminism would surface in virtual time.
        let pool = OmpPool::new(4);
        let sum = pool.parallel_reduce(
            0..10_000u64,
            Schedule::Dynamic { chunk: 64 },
            0u64,
            |i| i,
            |a, b| a + b,
        );
        assert_eq!(sum, 9_999 * 10_000 / 2);
        let model = OmpModel::default();
        for threads in [1u32, 4, 16] {
            model.charge_region(
                ctx,
                threads,
                Schedule::Static { chunk: None },
                (sum % 8_192) as usize + 1,
                Work::flops(2.0e8),
            );
            model.charge_region(
                ctx,
                threads,
                Schedule::Dynamic { chunk: 32 },
                4_096,
                Work::flops(1.0e8),
            );
        }
    });
    sim.run();
}

#[test]
fn omp_regions_are_schedule_independent() {
    Explorer::new(0x4F4D)
        .schedules(8)
        .explore(omp_region_workload)
        .assert_deterministic();
}
