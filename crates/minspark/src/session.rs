//! Cluster assembly: deploy executors, shuffle services, optional HDFS,
//! and run a driver application.

use std::any::Any;
use std::sync::Arc;

use hpcbd_cluster::ClusterSpec;
use hpcbd_minhdfs::{Hdfs, HdfsConfig};
use hpcbd_simnet::{FaultPlan, NodeId, Sim, SimReport, SimTime, StructuredAbort};

use crate::config::SparkConfig;
use crate::driver::SparkDriver;
use crate::executor::{executor_loop, shuffle_service_loop, AppShared};
use crate::plan::Plan;
use crate::stores::{BlockStore, ShuffleStore};

type FileSeed = (String, u64, Option<Arc<dyn Any + Send + Sync>>);

/// Builder for one Spark application run on a fresh simulated cluster.
pub struct SparkCluster {
    nodes: u32,
    config: SparkConfig,
    hdfs_config: Option<HdfsConfig>,
    hdfs_files: Vec<FileSeed>,
    scratch_files: Vec<FileSeed>,
    faults: Option<FaultPlan>,
}

/// What a finished application produced.
pub struct SparkResult<T> {
    /// The application closure's return value.
    pub value: T,
    /// Virtual time when the whole simulation finished.
    pub elapsed: SimTime,
    /// Full engine report (per-process stats).
    pub report: SimReport,
    /// Job-level execution metrics (tasks, cache, shuffle, failures).
    pub metrics: crate::metrics::MetricsSnapshot,
}

impl SparkCluster {
    /// An application on `nodes` Comet nodes.
    pub fn new(nodes: u32, config: SparkConfig) -> SparkCluster {
        SparkCluster {
            nodes,
            config,
            hdfs_config: None,
            hdfs_files: Vec::new(),
            scratch_files: Vec::new(),
            faults: None,
        }
    }

    /// Install a deterministic fault plan for this run: node crashes
    /// kill whole executor groups (recovered through lineage), link and
    /// drop faults delay messages, stragglers stretch compute. Node 0
    /// hosts the driver — a real Spark SPOF — so crashing it is refused.
    pub fn faults(mut self, plan: FaultPlan) -> SparkCluster {
        assert!(
            plan.crash_time(NodeId(0)).is_none(),
            "node 0 hosts the driver; crashing it kills the application"
        );
        self.faults = Some(plan);
        self
    }

    /// Deploy HDFS with this configuration.
    pub fn with_hdfs(mut self, config: HdfsConfig) -> SparkCluster {
        self.hdfs_config = Some(config);
        self
    }

    /// Pre-load a file into HDFS (instant, untimed setup).
    pub fn hdfs_file(
        mut self,
        path: &str,
        size: u64,
        data: Option<Arc<dyn Any + Send + Sync>>,
    ) -> SparkCluster {
        self.hdfs_files.push((path.to_string(), size, data));
        self
    }

    /// Pre-replicate a file onto every node's local scratch (the
    /// "copied to local filesystems" configuration of Table II).
    pub fn scratch_file(
        mut self,
        path: &str,
        size: u64,
        data: Option<Arc<dyn Any + Send + Sync>>,
    ) -> SparkCluster {
        self.scratch_files.push((path.to_string(), size, data));
        self
    }

    /// [`SparkCluster::run`], but a deliberate job failure (retry budget
    /// exhausted, every executor dead — raised by the scheduler as a
    /// [`StructuredAbort`]) comes back as `Err` instead of unwinding.
    /// Genuine bugs (non-structured panics) still propagate: the
    /// fault-campaign harness relies on that distinction to separate
    /// "the runtime gave up, loudly" from "the runtime broke".
    pub fn try_run<T, F>(self, app: F) -> Result<SparkResult<T>, StructuredAbort>
    where
        T: Send + 'static,
        F: FnOnce(&mut SparkDriver) -> T + Send + 'static,
    {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run(app))) {
            Ok(res) => Ok(res),
            Err(payload) => {
                match StructuredAbort::from_panic(payload.as_ref() as &(dyn Any + Send)) {
                    Some(sa) => Err(sa),
                    None => std::panic::resume_unwind(payload),
                }
            }
        }
    }

    /// Spawn everything and run `app` on the driver. Returns its value
    /// plus timing.
    pub fn run<T, F>(self, app: F) -> SparkResult<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut SparkDriver) -> T + Send + 'static,
    {
        let cluster = ClusterSpec::comet(self.nodes);
        let mut sim = Sim::new(cluster.topology());
        if let Some(plan) = self.faults {
            sim.set_fault_plan(plan);
        }
        let hdfs = self
            .hdfs_config
            .map(|cfg| Hdfs::deploy(&mut sim, cfg, None));
        if let Some(h) = &hdfs {
            for (path, size, data) in &self.hdfs_files {
                h.load_file_instant(path, *size, data.clone());
            }
        } else {
            assert!(
                self.hdfs_files.is_empty(),
                "hdfs_file() requires with_hdfs()"
            );
        }
        for (path, size, data) in &self.scratch_files {
            sim.world().fs.replicate_to_scratch(
                (0..self.nodes).map(NodeId),
                path,
                *size,
                data.clone(),
            );
        }

        let app_shared = Arc::new(AppShared {
            plan: Plan::new(),
            config: self.config,
            metrics: crate::metrics::SparkMetrics::default(),
            blocks: BlockStore::new(self.config.executor_mem),
            shuffles: ShuffleStore::new(),
            exec_pids: parking_lot::RwLock::new(Vec::new()),
            service_pids: parking_lot::RwLock::new(Vec::new()),
            driver_pid: parking_lot::RwLock::new(None),
            hdfs,
        });

        // Shuffle service per node.
        for n in 0..self.nodes {
            let a = app_shared.clone();
            let pid = sim.spawn(NodeId(n), format!("shuffle-svc@{n}"), move |ctx| {
                shuffle_service_loop(ctx, a)
            });
            app_shared.service_pids.write().push(pid);
        }
        // Executors.
        let mut exec = 0u32;
        for n in 0..self.nodes {
            for s in 0..self.config.executors_per_node {
                let a = app_shared.clone();
                let e = exec;
                let pid = sim.spawn(NodeId(n), format!("exec{e}@n{n}s{s}"), move |ctx| {
                    executor_loop(ctx, a, e)
                });
                app_shared.exec_pids.write().push(pid);
                exec += 1;
            }
        }
        // Driver on node 0.
        let a = app_shared.clone();
        let driver_pid = sim.spawn(NodeId(0), "driver", move |ctx| {
            ctx.advance(a.config.app_startup);
            let mut driver = SparkDriver::new(ctx, a.clone());
            let value = app(&mut driver);
            driver.shutdown();
            value
        });
        *app_shared.driver_pid.write() = Some(driver_pid);

        let mut report = sim.run();
        let value = report.result::<T>(driver_pid);
        SparkResult {
            value,
            elapsed: report.makespan(),
            metrics: app_shared.metrics.snapshot(),
            report,
        }
    }
}
