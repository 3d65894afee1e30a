//! Schedule-exploration conformance: a full MapReduce job (splits,
//! spills, shuffle servers, reduce merge, replicated output) must be
//! bit-identical to the sequential oracle under perturbed legal
//! schedules.

use std::sync::Arc;

use hpcbd_check::Explorer;
use hpcbd_minmapreduce::{InputFormat, MrJobBuilder};
use hpcbd_simnet::Work;

struct Words;
impl InputFormat for Words {
    type Rec = String;
    fn sample_records(&self, offset: u64, _len: u64) -> Vec<String> {
        let b = offset / (64 << 20);
        vec![format!("w{}", b % 3), "common".to_string()]
    }
    fn logical_scale(&self) -> f64 {
        1.0
    }
    fn record_work(&self) -> Work {
        Work::new(50.0, 100.0)
    }
}

fn wordcount_workload() {
    let result = MrJobBuilder::new(
        Arc::new(Words),
        "/conformance/in",
        256 << 20,
        |w: &String| vec![(w.clone(), 1u64)],
        |_k, vs: &[u64]| vs.iter().sum(),
    )
    .hdfs(hpcbd_minhdfs::HdfsConfig {
        block_size: 64 << 20,
        ..Default::default()
    })
    .run(2);
    let common = result
        .pairs
        .iter()
        .find(|(k, _)| k == "common")
        .map(|(_, v)| *v)
        .unwrap();
    assert_eq!(common, 4);
}

#[test]
fn mapreduce_job_is_schedule_independent() {
    Explorer::new(0x4D52)
        .schedules(6)
        .explore(wordcount_workload)
        .assert_deterministic();
}
