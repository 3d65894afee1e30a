//! Property test: schedule exploration of a mixed MPI + Spark workload
//! is digest-equal to the sequential oracle for *arbitrary* explorer
//! seeds — the perturbation seed space contains no magic values that
//! break (or mask) determinism.
//!
//! Each proptest case runs a full exploration (oracle + replay +
//! perturbed schedules) under a different
//! seed and additionally pins the oracle digest across cases: every
//! exploration of the same workload must see the same oracle, whatever
//! seed drives the perturbations.
//!
//! The explorer itself gets a "would it notice?" self-test: a workload
//! whose own code leaks the schedule seed into a message size must be
//! *found* and classified as schedule-dependent. A safety net that
//! cannot catch a known unsound run proves nothing about a sound one.

use std::sync::OnceLock;

use hpcbd::check::{Classification, Explorer};
use hpcbd::cluster::Placement;
use hpcbd::minimpi::{mpirun, ReduceOp};
use hpcbd::minspark::{SparkCluster, SparkConfig};
use proptest::prelude::*;

/// An MPI collective job followed by a Spark shuffle job — the two
/// paradigms the paper compares, back to back in one capture window.
fn mixed_workload() {
    let mpi = mpirun(Placement::new(2, 2), |rank| {
        let v = vec![rank.rank() as f64; 4];
        rank.allreduce(ReduceOp::Sum, &v)
    });
    assert!(mpi.results.iter().all(|r| r == &vec![6.0; 4]));

    let spark = SparkCluster::new(2, SparkConfig::default()).run(|sc| {
        let nums = sc.parallelize((1..=64u64).collect(), 4);
        let odds = nums.filter(|x| x % 2 == 1);
        sc.reduce(&odds, |a, b| a + b)
    });
    assert_eq!(spark.value, Some(32 * 32)); // sum of odd 1..=63
}

/// Oracle digest pinned by the first case; all later cases must agree.
static ORACLE: OnceLock<String> = OnceLock::new();

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn perturbed_schedules_reproduce_the_oracle_for_any_seed(seed in 0u64..u64::MAX) {
        let report = Explorer::new(seed).schedules(4).explore(mixed_workload);
        if let Some(d) = &report.divergence {
            prop_assert!(false, "divergence under seed {seed:#x}:\n{}", d.render());
        }
        prop_assert_eq!(report.schedules_run, 4);
        let pinned = ORACLE.get_or_init(|| report.oracle_digest.clone());
        prop_assert_eq!(
            &report.oracle_digest, pinned,
            "oracle digest changed between explorations"
        );
    }
}

/// The bug is the workload's own: its message size reads the schedule
/// perturbation in force. There is none on the oracle run and its
/// replay and a seeded one on every perturbed run, so what the workload
/// does is a pure function of the schedule seed, with no race to lose.
fn seed_leaking_workload() {
    use hpcbd::simnet::{
        current_perturbation, MatchSpec, NodeId, Payload, Pid, Sim, Topology, Transport,
    };
    let bytes = 64 + current_perturbation().map_or(0, |p| 1 + p.seed % 1024);
    let tr = Transport::rdma_verbs();
    let mut sim = Sim::new(Topology::comet(2));
    sim.spawn(NodeId(0), "sender", move |ctx| {
        ctx.send(Pid(1), 1, bytes, Payload::Empty, &tr);
    });
    sim.spawn(NodeId(1), "receiver", |ctx| {
        ctx.recv(MatchSpec::tag(1));
    });
    sim.run();
}

#[test]
fn explorer_catches_a_schedule_dependent_workload() {
    let report = Explorer::new(0xBAD)
        .schedules(4)
        .explore(seed_leaking_workload);
    let d = report
        .divergence
        .expect("explorer failed to catch a seed-dependent message size: the safety net is dead");
    assert_eq!(report.schedules_run, 1, "every perturbed run diverges");
    assert_eq!(
        d.classification,
        Some(Classification::ScheduleDependent),
        "the run reproduces under its own seed, so it must classify as \
         schedule-dependent: {}",
        d.render()
    );
    // The first differing record is the sender's send, first in the
    // export order.
    assert_eq!((d.field.as_str(), d.event_index), ("events", Some(0)));
    assert_eq!(d.pids, vec![0]);
    assert!(d.expected.contains("bytes: 64"), "{}", d.render());
    assert!(!d.got.contains("bytes: 64"), "{}", d.render());
}
