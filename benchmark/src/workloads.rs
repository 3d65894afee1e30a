//! The six workloads: inputs made from the seed, the timed call (the
//! public figure driver a user regenerating the artifact runs), the
//! same work arm by arm for the traced run, and the seed-independent
//! paper-shape checks on what was produced.
//!
//! Everything here calls `crates/*` through public functions only; the
//! list is in `benchmark/README.md`.

use std::sync::Arc;

use hpcbd_bench::datacenter::{self, Load};
use hpcbd_cluster::Placement;
use hpcbd_core::bench_pagerank::{self, PagerankInput, SparkVariant};
use hpcbd_core::{bench_answers, bench_reduce, ResultTable};
use hpcbd_minspark::ShuffleEngine;
use hpcbd_sched::{quantile_ns, QueueStats, ScenarioOutcome, ScenarioSpec};
use hpcbd_simnet::RunCapture;
use hpcbd_workloads::stackexchange::RECORD_BYTES;
use hpcbd_workloads::{PowerLawGraph, StackExchangeDataset};

use crate::spans::Recorder;

/// Workload names, in the order every table prints them.
pub const NAMES: [&str; 6] = [
    "reduce64",
    "answers_scan",
    "pagerank16",
    "datacenter_day",
    "comet_sixteenth",
    "datacenter_day_report",
];

/// Generated inputs of one workload. The program under test receives
/// only these.
pub enum Inputs {
    /// Fig. 3 reduce sweep.
    Reduce {
        placement: Placement,
        sizes: Vec<usize>,
        iters: u32,
    },
    /// Fig. 4 AnswersCount.
    Answers {
        ds: StackExchangeDataset,
        nodes: Vec<u32>,
        ppn: u32,
    },
    /// Fig. 6 PageRank.
    Pagerank {
        input: PagerankInput,
        nodes: Vec<u32>,
        ppn: u32,
    },
    /// The three scheduler sections; `report` adds capture + `obs`.
    Day {
        sections: Vec<ScenarioSpec>,
        report: bool,
    },
    /// Fig. 6 at many-process scale.
    Comet {
        input: PagerankInput,
        placement: Placement,
    },
}

/// What one repetition produced.
pub enum Artifact {
    Table(ResultTable),
    Day {
        sections: Vec<(&'static str, ScenarioOutcome)>,
        /// Report JSON and Perfetto JSON, for the `_report` workload.
        report: Option<(String, String)>,
    },
}

/// A seed-derived share of `whole`, below `whole / per`: exactly 0 at
/// seed 0, so the default reproduces the published input. Used where a
/// driver takes no seed (Fig. 3) or where re-drawing with the seed would
/// change the host cost several-fold (the datacenter arrival traces).
fn jitter(seed: u64, salt: u32, whole: u64, per: u64) -> u64 {
    let h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(7 * salt + 11);
    h % (whole / per + 1)
}

impl Inputs {
    /// Build the inputs of `name`. `seed` is XOR-ed into every input
    /// seed the figure drivers take (0 reproduces the published inputs);
    /// `smoke` selects the repo's quick-scale configurations.
    pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Inputs> {
        let day = |report: bool| {
            let sections = [(Load::Idle, true), (Load::Rush, true), (Load::Rush, false)]
                .into_iter()
                .map(|(load, preemption)| {
                    let mut spec = datacenter::scenario(load, preemption, smoke);
                    if !smoke {
                        // Trough to peak of the diurnal day. The full
                        // 3,600 s horizon costs 1.5 s per repetition
                        // (host time grows faster than the backlog),
                        // which does not fit a run.
                        spec.horizon_s = DAY_HORIZON_S;
                    }
                    // The seed lengthens the day by up to 1/256: the same
                    // arrival trace with a few more jobs at its end. The
                    // arrival seed itself stays the published one; with
                    // it re-drawn, host time per event moves 3x with how
                    // deep the backlog happens to get, and no bound on a
                    // run-to-run spread could hold.
                    let millis = (spec.horizon_s * 1e3) as u64;
                    spec.horizon_s += jitter(seed, 0, millis, 256) as f64 / 1e3;
                    spec
                })
                .collect();
            Inputs::Day { sections, report }
        };
        Some(match name {
            "reduce64" => {
                let (placement, sizes, iters) = if smoke {
                    (Placement::new(2, 4), vec![1, 256, 16384], 5)
                } else {
                    (Placement::new(8, 8), bench_reduce::standard_sizes(), 5)
                };
                let sizes = sizes
                    .into_iter()
                    .enumerate()
                    .map(|(i, e)| e + jitter(seed, i as u32, e as u64, 256) as usize)
                    .collect();
                Inputs::Reduce {
                    placement,
                    sizes,
                    iters,
                }
            }
            "answers_scan" => {
                // `StackExchangeDataset::paper_80gb()` with the seed let in.
                let (size, sample, nodes, ppn) = if smoke {
                    (4u64 << 30, 20_000, vec![1, 2], 4)
                } else {
                    (80u64 << 30, 100_000, vec![1, 2, 4, 6, 8], 8)
                };
                let scale = size / RECORD_BYTES / sample;
                Inputs::Answers {
                    ds: StackExchangeDataset::new(0x5EAC ^ seed, size, scale),
                    nodes,
                    ppn,
                }
            }
            "pagerank16" => {
                // `PagerankInput::paper()` / `::small()` with the seed let in.
                let (vertices, graph_seed, degree, scale, iters, nodes, ppn) = if smoke {
                    (600, 11, 6, 50, 4, vec![1, 2], 4)
                } else {
                    (10_000, 0xBDB, 8, 100, 5, vec![8], 16)
                };
                Inputs::Pagerank {
                    input: PagerankInput {
                        graph: Arc::new(PowerLawGraph::new(vertices, graph_seed ^ seed, degree)),
                        scale,
                        iters,
                    },
                    nodes,
                    ppn,
                }
            }
            "datacenter_day" => day(false),
            "datacenter_day_report" => day(true),
            "comet_sixteenth" => {
                // `PagerankInput::comet(true)` at 1/16 of the machine:
                // two sample vertices per rank, scale 21, 2 iterations.
                let placement = Placement::new(if smoke { 8 } else { 124 }, 24);
                Inputs::Comet {
                    input: PagerankInput {
                        graph: Arc::new(PowerLawGraph::new(placement.total() * 2, 17 ^ seed, 4)),
                        scale: 21,
                        iters: 2,
                    },
                    placement,
                }
            }
            _ => return None,
        })
    }

    /// One repetition as a user runs it: the public figure driver.
    pub fn regenerate(&self) -> Artifact {
        match self {
            Inputs::Reduce {
                placement,
                sizes,
                iters,
            } => Artifact::Table(bench_reduce::figure3(*placement, sizes, *iters)),
            Inputs::Answers { ds, nodes, ppn } => {
                Artifact::Table(bench_answers::figure4(ds, nodes, *ppn))
            }
            Inputs::Pagerank { input, nodes, ppn } => {
                Artifact::Table(bench_pagerank::figure6(input, nodes, *ppn))
            }
            Inputs::Comet { input, placement } => {
                Artifact::Table(bench_pagerank::figure6_comet(input, *placement))
            }
            Inputs::Day { sections, report } => {
                if *report {
                    hpcbd_simnet::begin_capture();
                }
                let sections = run_sections(sections);
                let report = report.then(|| obs_outputs(&hpcbd_simnet::end_capture()));
                Artifact::Day { sections, report }
            }
        }
    }

    /// The simulations of one repetition without any `obs`
    /// post-processing: what pass B of the traced run puts inside and
    /// outside a capture window.
    pub fn simulate(&self) -> Artifact {
        match self {
            Inputs::Day { sections, .. } => Artifact::Day {
                sections: run_sections(sections),
                report: None,
            },
            _ => self.regenerate(),
        }
    }

    /// The same work as [`Inputs::regenerate`], one recorded span per
    /// arm — the per-runtime public functions the figure drivers are
    /// made of, called in the drivers' order.
    pub fn regenerate_by_arm(&self, rec: &mut Recorder) {
        match self {
            Inputs::Reduce {
                placement,
                sizes,
                iters,
            } => {
                for &e in sizes {
                    rec.arm("minimpi", "mpi_reduce_latency", || {
                        bench_reduce::mpi_reduce_latency(*placement, e, *iters)
                    });
                    rec.arm("minspark", "spark_reduce_latency", || {
                        bench_reduce::spark_reduce_latency(*placement, e, false)
                    });
                    rec.arm("minspark.rdma", "spark_reduce_latency", || {
                        bench_reduce::spark_reduce_latency(*placement, e, true)
                    });
                }
            }
            Inputs::Answers { ds, nodes, ppn } => {
                for &n in nodes {
                    let placement = Placement::new(n, *ppn);
                    if n == 1 {
                        let threads = placement.total().min(16);
                        rec.arm("minomp", "openmp_answers", || {
                            bench_answers::openmp_answers(ds, threads)
                        });
                    }
                    // An `Err` is the paper's MAX_INT failure, a table cell.
                    let _ = rec.arm("minimpi", "mpi_answers", || {
                        bench_answers::mpi_answers(ds, placement)
                    });
                    rec.arm("minspark", "spark_answers", || {
                        bench_answers::spark_answers(ds, placement)
                    });
                    rec.arm("minmapreduce", "hadoop_answers", || {
                        bench_answers::hadoop_answers(ds, placement)
                    });
                }
            }
            Inputs::Pagerank { input, nodes, ppn } => {
                for &n in nodes {
                    let placement = Placement::new(n, *ppn);
                    rec.arm("minimpi", "mpi_pagerank", || {
                        bench_pagerank::mpi_pagerank(input, placement)
                    });
                    for (layer, engine) in [
                        ("minspark", ShuffleEngine::Socket),
                        ("minspark.rdma", ShuffleEngine::Rdma),
                    ] {
                        rec.arm(layer, "spark_pagerank", || {
                            bench_pagerank::spark_pagerank(
                                input,
                                placement,
                                SparkVariant::BigDataBenchTuned,
                                engine,
                            )
                        });
                    }
                }
            }
            Inputs::Comet { input, placement } => {
                rec.arm("minimpi", "comet_mpi_pagerank", || {
                    bench_pagerank::comet_mpi_pagerank(input, *placement)
                });
                rec.arm("minspark.rdma", "spark_pagerank_run", || {
                    bench_pagerank::spark_pagerank_run(
                        input,
                        *placement,
                        SparkVariant::BigDataBenchTuned,
                        ShuffleEngine::Rdma,
                    )
                });
            }
            Inputs::Day { sections, report } => {
                if *report {
                    hpcbd_simnet::begin_capture();
                }
                for (spec, layer) in
                    sections
                        .iter()
                        .zip(["sched.idle", "sched.contended", "sched.nopreempt"])
                {
                    rec.arm(layer, "hpcbd_sched::run", || hpcbd_sched::run(spec));
                }
                if *report {
                    let captures = hpcbd_simnet::end_capture();
                    rec.arm("obs", "report+perfetto", || obs_outputs(&captures));
                }
            }
        }
    }
}

fn run_sections(sections: &[ScenarioSpec]) -> Vec<(&'static str, ScenarioOutcome)> {
    sections
        .iter()
        .map(|spec| (spec.name, hpcbd_sched::run(spec)))
        .collect()
}

/// Paper-scale traffic horizon of the datacenter workloads, virtual
/// seconds: the rising half of the 3,600 s diurnal period.
const DAY_HORIZON_S: f64 = 1800.0;

/// What `--report` and `--perfetto` do to a finished capture
/// (`hpcbd_bench::run_with_report`, minus the file writes).
fn obs_outputs(captures: &[RunCapture]) -> (String, String) {
    let report = hpcbd_obs::RunReport::from_captures("datacenter_day_report", false, captures);
    let perfetto = captures
        .first()
        .map(|cap| hpcbd_obs::to_perfetto_json(cap, &hpcbd_obs::match_events(&cap.events)))
        .unwrap_or_default();
    (report.to_json(), perfetto)
}

impl Artifact {
    /// The artifact as text; its FNV-1a digest is `sim_digest`.
    pub fn rendered(&self) -> String {
        match self {
            Artifact::Table(t) => t.to_csv(),
            Artifact::Day { sections, report } => {
                let mut s: String = sections
                    .iter()
                    .map(|(name, out)| datacenter::render(out, name))
                    .collect();
                if let Some((json, perfetto)) = report {
                    s.push_str(json);
                    s.push_str(perfetto);
                }
                s
            }
        }
    }

    /// Sum of the virtual (simulated) seconds the artifact reports.
    /// Exact; it must not move without a declared model change.
    pub fn virtual_s(&self) -> f64 {
        match self {
            Artifact::Day { sections, .. } => sections
                .iter()
                .map(|(_, out)| out.makespan_ns as f64 / 1e9)
                .sum(),
            Artifact::Table(t) => t
                .rows
                .iter()
                .flat_map(|row| row.iter())
                .filter_map(|cell| {
                    let secs = cell.strip_suffix("us").map(|v| (v, 1e-6));
                    let secs = secs.or_else(|| cell.strip_suffix('s').map(|v| (v, 1.0)));
                    secs.and_then(|(v, unit)| v.parse::<f64>().ok().map(|x| x * unit))
                })
                .sum(),
        }
    }

    /// A per-queue counter summed over every section (0 for the table
    /// artifacts).
    fn queue_sum(&self, counter: fn(&QueueStats) -> u64) -> u64 {
        match self {
            Artifact::Day { sections, .. } => sections
                .iter()
                .flat_map(|(_, out)| &out.stats.queues)
                .map(counter)
                .sum(),
            Artifact::Table(_) => 0,
        }
    }

    /// Jobs completed across sections.
    pub fn jobs(&self) -> u64 {
        self.queue_sum(|q| q.completed)
    }

    /// Preemptions across sections.
    pub fn preemptions(&self) -> u64 {
        self.queue_sum(|q| q.preemptions)
    }
}

/// The paper-shape assertions, as `(name, held)`. They hold at every
/// seed; a `false` is one failed operation.
pub fn shape_checks(inputs: &Inputs, artifact: &Artifact) -> Vec<(&'static str, bool)> {
    match (inputs, artifact) {
        (Inputs::Reduce { .. }, Artifact::Table(t)) => {
            let (mpi, spark, rdma) = (t.cell_f64(0, 1), t.cell_f64(0, 2), t.cell_f64(0, 3));
            vec![(
                "fig3: MPI < Spark-RDMA <= Spark at 4 B",
                mpi < rdma && rdma <= spark,
            )]
        }
        (Inputs::Answers { ds, .. }, Artifact::Table(t)) => {
            // MPI_File_read counts are C ints: a rank's chunk of the
            // 80 GB file exceeds MAX_INT below 41 processes.
            let int_limited = ds.logical_size == 80 << 30;
            let ok = t.rows.iter().all(|row| {
                let procs: u32 = row[0].parse().unwrap_or(0);
                let failed = row[2].starts_with("fail");
                failed == (int_limited && procs < 41)
            });
            vec![("fig4: MPI fails exactly below 41 processes on 80 GB", ok)]
        }
        (Inputs::Pagerank { .. }, Artifact::Table(t)) => {
            let ok = (0..t.rows.len()).all(|r| t.cell_f64(r, 1) < t.cell_f64(r, 2));
            vec![("fig6: MPI < Spark at every node count", ok)]
        }
        (Inputs::Comet { .. }, Artifact::Table(t)) => {
            let sum = |r: usize| t.rows[r][3].parse::<f64>().unwrap_or(f64::NAN);
            let (mpi, spark) = (sum(0), sum(1));
            vec![(
                "comet: MPI and Spark checksums agree to 1e-3",
                ((mpi - spark) / mpi).abs() < 1e-3,
            )]
        }
        (Inputs::Day { .. }, Artifact::Day { sections, .. }) => {
            let wait_p99 = |out: &ScenarioOutcome| quantile_ns(&out.stats.queues[0].wait_ns, 0.99);
            let preemptions = |out: &ScenarioOutcome| -> u64 {
                out.stats.queues.iter().map(|q| q.preemptions).sum()
            };
            let (idle, contended, nopreempt) = (&sections[0].1, &sections[1].1, &sections[2].1);
            vec![
                (
                    "day: every offered job completes in every section",
                    sections.iter().all(|(_, out)| {
                        out.stats.queues.iter().map(|q| q.completed).sum::<u64>() == out.offered
                    }),
                ),
                (
                    "day: interactive wait-p99 is 0 idle and not 0 contended",
                    wait_p99(idle) == 0 && wait_p99(contended) > 0,
                ),
                (
                    "day: preemptions > 0 contended and 0 without preemption",
                    preemptions(contended) > 0 && preemptions(nopreempt) == 0,
                ),
            ]
        }
        _ => vec![("artifact kind matches its workload", false)],
    }
}

/// FNV-1a, the digest `BENCH_simnet.json` uses for rendered tables.
pub fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_published_inputs() {
        let Some(Inputs::Reduce { sizes, .. }) = Inputs::build("reduce64", 0, false) else {
            panic!("reduce64 builds");
        };
        assert_eq!(sizes, bench_reduce::standard_sizes());
        let Some(Inputs::Answers { ds, .. }) = Inputs::build("answers_scan", 0, false) else {
            panic!("answers_scan builds");
        };
        let paper = StackExchangeDataset::paper_80gb();
        assert_eq!(
            (ds.seed, ds.logical_size, ds.scale),
            (paper.seed, paper.logical_size, paper.scale)
        );
    }

    #[test]
    fn another_seed_gives_other_inputs_and_the_same_seed_the_same() {
        let sizes = |seed| match Inputs::build("reduce64", seed, false) {
            Some(Inputs::Reduce { sizes, .. }) => sizes,
            _ => panic!("reduce64 builds"),
        };
        assert_ne!(sizes(1), sizes(0));
        assert_eq!(sizes(7), sizes(7));
        assert_eq!(sizes(7)[0], 1, "the 4 B row stays 4 B");
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(NAMES.iter().all(|n| Inputs::build(n, 0, true).is_some()));
        assert!(Inputs::build("nope", 0, true).is_none());
    }
}
