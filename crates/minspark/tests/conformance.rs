//! Schedule-exploration conformance: a Spark pipeline with a narrow
//! map/filter stage and a wide reduceByKey shuffle must be bit-identical
//! to the sequential oracle under perturbed legal schedules.

use hpcbd_check::Explorer;
use hpcbd_minspark::{SparkCluster, SparkConfig};

fn spark_workload() {
    let r = SparkCluster::new(2, SparkConfig::default()).run(|sc| {
        let nums = sc.parallelize((1..=200u64).collect(), 8);
        let evens = nums.filter(|x| x % 2 == 0);
        let pairs = evens.map(|x| (x % 5, *x));
        let reduced = pairs.reduce_by_key(4, |a, b| a + b);
        sc.collect(&reduced)
    });
    let mut pairs = r.value;
    pairs.sort();
    // Sum of evens in 1..=200 grouped by x mod 5.
    let mut oracle: Vec<(u64, u64)> = (0..5).map(|k| (k, 0)).collect();
    for x in (2..=200u64).step_by(2) {
        oracle[(x % 5) as usize].1 += x;
    }
    oracle.retain(|(_, v)| *v > 0);
    oracle.sort();
    assert_eq!(pairs, oracle);
}

#[test]
fn spark_shuffle_is_schedule_independent() {
    Explorer::new(0x5350)
        .schedules(6)
        .explore(spark_workload)
        .assert_deterministic();
}
