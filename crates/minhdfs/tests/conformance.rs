//! Schedule-exploration conformance: an HDFS client doing replicated
//! reads and a pipelined write must be bit-identical to the sequential
//! oracle under perturbed legal schedules (datanode servers are
//! long-lived simulated processes, so this exercises the harness on a
//! service-style workload too).

use hpcbd_check::Explorer;
use hpcbd_minhdfs::{Hdfs, HdfsConfig};
use hpcbd_simnet::{NodeId, Sim, Topology};

fn hdfs_workload() {
    let mut sim = Sim::new(Topology::comet(3));
    let hdfs = Hdfs::deploy(&mut sim, HdfsConfig::with_replication(2), None);
    hdfs.load_file_instant("/conformance/in", 256 << 20, None);
    let client = hdfs.clone();
    sim.spawn(NodeId(0), "client", move |ctx| {
        let read = client.read_file(ctx, "/conformance/in");
        assert_eq!(read, 256 << 20);
        client.write_file(ctx, "/conformance/out", 64 << 20, None);
        client.shutdown(ctx);
        read
    });
    sim.run();
}

#[test]
fn hdfs_read_write_is_schedule_independent() {
    Explorer::new(0x4846)
        .schedules(8)
        .explore(hdfs_workload)
        .assert_deterministic();
}
