//! End-to-end scheduler tests: the full submit/dispatch/ack protocol
//! through the simnet engine, including preemption accounting, delay
//! scheduling and cross-execution-mode determinism.

use std::sync::Arc;

use hpcbd_sched::{
    factory, quantile_ns, run, run_trace, validate_trace, JobError, JobSpec, QueueSpec,
    RateProcess, ScenarioOutcome, ScenarioSpec, Segment, SourceSpec, TaskSpec, Wave,
};
use hpcbd_simnet::{set_default_execution, Execution, NodeId, SimDuration, Work};

/// A task that charges `ms` of compute per segment, `segments` times.
fn compute_task(ms: u64, segments: usize, preferred: Option<NodeId>) -> TaskSpec {
    let seg: Segment = Arc::new(move |ctx, _env| {
        // Comet's effective scalar rate is 3 GFlop/s per core.
        ctx.compute(Work::flops(3.0e6 * ms as f64), 1.0);
    });
    TaskSpec {
        segments: vec![seg; segments],
        preferred,
        preemptable: true,
    }
}

fn one_queue_spec(preemption: bool) -> ScenarioSpec {
    ScenarioSpec {
        name: "test",
        nodes: 2,
        per_node: 2,
        rack_size: 2,
        horizon_s: 1.0,
        seed: 1,
        locality_delay: SimDuration::from_millis(50),
        preemption,
        queues: vec![QueueSpec::new("only", 1)],
        sources: vec![],
    }
}

fn job(queue: &'static str, waves: Vec<Wave>) -> JobSpec {
    JobSpec {
        template: "test/compute",
        queue,
        tenant: "t0",
        waves,
    }
}

#[test]
fn elastic_jobs_complete_with_wave_barriers() {
    let spec = one_queue_spec(false);
    let trace: Vec<(u64, JobSpec)> = (0..3)
        .map(|i| {
            (
                i * 1_000_000,
                job(
                    "only",
                    vec![
                        Wave {
                            tasks: vec![compute_task(10, 1, None), compute_task(10, 1, None)],
                            gang: false,
                        },
                        Wave {
                            tasks: vec![compute_task(5, 1, None), compute_task(5, 1, None)],
                            gang: false,
                        },
                    ],
                ),
            )
        })
        .collect();
    let out = run_trace(&spec, trace);
    let q = &out.stats.queues[0];
    assert_eq!(q.submitted, 3);
    assert_eq!(q.completed, 3);
    assert_eq!(q.tasks_dispatched, 12);
    assert_eq!(q.latency_ns.len(), 3);
    // Two barrier-separated waves of >= 10 + 5 ms of compute.
    assert!(q.latency_ns.iter().all(|l| *l >= 15_000_000));
    assert_eq!(q.preemptions, 0);
    assert_eq!(q.requeues, 0);
    assert!(out.stats.fairness_x1000.is_some());
}

#[test]
fn gang_wave_allocates_atomically() {
    let mut spec = one_queue_spec(false);
    spec.nodes = 2;
    spec.per_node = 2;
    // A 4-wide gang on a 4-slot cluster: must wait for all slots.
    let trace = vec![
        (
            0,
            job(
                "only",
                vec![Wave {
                    tasks: vec![compute_task(20, 1, None); 2],
                    gang: false,
                }],
            ),
        ),
        (
            1_000_000,
            job(
                "only",
                vec![Wave {
                    tasks: vec![compute_task(10, 1, None); 4],
                    gang: true,
                }],
            ),
        ),
    ];
    let out = run_trace(&spec, trace);
    let q = &out.stats.queues[0];
    assert_eq!(q.completed, 2);
    assert_eq!(q.tasks_dispatched, 6);
    // The gang could not start until the elastic job's ~20 ms tasks
    // finished, so its latency includes that queueing delay.
    assert!(
        q.latency_ns[1] >= 28_000_000,
        "gang latency {:?}",
        q.latency_ns
    );
}

/// Preemption accounting: preempted work is re-queued exactly once per
/// kill, no slot leaks, and every job still completes.
#[test]
fn preemption_requeues_exactly_once_and_leaks_no_slots() {
    let mut spec = one_queue_spec(true);
    spec.queues = vec![QueueSpec::new("batch", 1), QueueSpec::new("urgent", 1)];
    // Batch fills all 4 slots with long checkpointed tasks; urgent
    // arrives needing its fair share (2 slots).
    let trace = vec![
        (
            0,
            job(
                "batch",
                vec![Wave {
                    tasks: vec![compute_task(20, 10, None); 4],
                    gang: false,
                }],
            ),
        ),
        (
            50_000_000,
            job(
                "urgent",
                vec![Wave {
                    tasks: vec![compute_task(20, 1, None); 2],
                    gang: false,
                }],
            ),
        ),
    ];
    let out = run_trace(&spec, trace);
    let batch = &out.stats.queues[0];
    let urgent = &out.stats.queues[1];
    assert_eq!(batch.completed, 1);
    assert_eq!(urgent.completed, 1);
    assert!(urgent.wait_ns[0] > 0, "urgent had to wait for a kill");
    // Two slots were reclaimed: each kill produced exactly one re-queue
    // and one re-dispatch.
    assert_eq!(batch.preemptions, 2, "stats: {batch:?}");
    assert_eq!(batch.requeues, batch.preemptions);
    assert_eq!(batch.kills_sent, batch.preemptions);
    assert_eq!(batch.tasks_dispatched, 4 + batch.requeues);
    // Urgent jumped the line: its latency is far below the batch job's.
    assert!(urgent.latency_ns[0] < batch.latency_ns[0]);
}

#[test]
fn no_preemption_means_no_kills() {
    let mut spec = one_queue_spec(false);
    spec.queues = vec![QueueSpec::new("batch", 1), QueueSpec::new("urgent", 1)];
    let trace = vec![
        (
            0,
            job(
                "batch",
                vec![Wave {
                    tasks: vec![compute_task(20, 10, None); 4],
                    gang: false,
                }],
            ),
        ),
        (
            50_000_000,
            job(
                "urgent",
                vec![Wave {
                    tasks: vec![compute_task(20, 1, None); 2],
                    gang: false,
                }],
            ),
        ),
    ];
    let out = run_trace(&spec, trace);
    let batch = &out.stats.queues[0];
    let urgent = &out.stats.queues[1];
    assert_eq!(batch.kills_sent + batch.preemptions + batch.requeues, 0);
    assert_eq!(urgent.completed, 1);
    // Without preemption the urgent job waits out the batch tasks.
    assert!(
        urgent.wait_ns[0] >= 100_000_000,
        "wait {:?}",
        urgent.wait_ns
    );
}

#[test]
fn delay_scheduling_escalates_node_rack_any() {
    let mut spec = one_queue_spec(false);
    spec.nodes = 2;
    spec.per_node = 1;
    spec.rack_size = 1; // two single-node racks: rack level never helps
    spec.locality_delay = SimDuration::from_millis(50);
    let trace = vec![
        (
            0,
            job(
                "only",
                vec![Wave {
                    tasks: vec![compute_task(400, 1, Some(NodeId(0)))],
                    gang: false,
                }],
            ),
        ),
        // Prefers busy node 0; node 1 is free the whole time.
        (
            10_000_000,
            job(
                "only",
                vec![Wave {
                    tasks: vec![compute_task(10, 1, Some(NodeId(0)))],
                    gang: false,
                }],
            ),
        ),
    ];
    let out = run_trace(&spec, trace);
    let q = &out.stats.queues[0];
    assert_eq!(q.completed, 2);
    assert_eq!(q.local, 1, "first job ran on its preferred node");
    assert_eq!(q.remote, 1, "second job escalated to the free node");
    // The second job waited the full two delay levels (2 x 50 ms) before
    // giving up on locality — not the 400 ms the busy node would cost.
    // Waits are recorded in completion order: the short second job
    // finishes first, so its wait is at index 0.
    let wait = q.wait_ns[0];
    assert!(
        (100_000_000..200_000_000).contains(&wait),
        "wait {wait} outside the delay-scheduling window"
    );
}

fn mixed_scenario(preemption: bool) -> ScenarioSpec {
    ScenarioSpec {
        name: "mixed",
        nodes: 4,
        per_node: 2,
        rack_size: 2,
        horizon_s: 60.0,
        seed: 42,
        locality_delay: SimDuration::from_millis(100),
        preemption,
        queues: vec![
            QueueSpec::new("interactive", 3).slo_ns(2_000_000_000),
            QueueSpec::new("batch", 1),
        ],
        sources: vec![
            SourceSpec {
                name: "queries",
                process: RateProcess::Diurnal {
                    base_per_s: 0.05,
                    peak_per_s: 0.6,
                    period_s: 60.0,
                },
                factory: factory(|k| JobSpec {
                    template: "query",
                    queue: "interactive",
                    tenant: if k % 2 == 0 { "web" } else { "mobile" },
                    waves: vec![Wave {
                        tasks: (0..3)
                            .map(|i| compute_task(30, 2, Some(NodeId((k as u32 + i) % 4))))
                            .collect(),
                        gang: false,
                    }],
                }),
            },
            SourceSpec {
                name: "backbone",
                process: RateProcess::Poisson { rate_per_s: 0.05 },
                factory: factory(|_k| JobSpec {
                    template: "backbone",
                    queue: "batch",
                    tenant: "science",
                    waves: vec![Wave {
                        tasks: vec![compute_task(200, 1, None); 4],
                        gang: true,
                    }],
                }),
            },
        ],
    }
}

fn digest(out: &ScenarioOutcome) -> String {
    let mut s = format!(
        "offered={} makespan={} fairness={:?} slots={}",
        out.offered, out.makespan_ns, out.stats.fairness_x1000, out.stats.total_slots
    );
    for q in &out.stats.queues {
        s.push_str(&format!(
            "\n{} sub={} done={} disp={} loc={}/{}/{} kills={} pre={} req={} slo={} share={} lat={:?} wait={:?}",
            q.name,
            q.submitted,
            q.completed,
            q.tasks_dispatched,
            q.local,
            q.rack,
            q.remote,
            q.kills_sent,
            q.preemptions,
            q.requeues,
            q.slo_met,
            q.share_slot_ns,
            q.latency_ns,
            q.wait_ns,
        ));
    }
    s
}

/// The default execution mode is process-global: tests that sweep it
/// take this lock so each really runs under the mode it set.
static MODE_SWEEP: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The tentpole determinism claim: sequential and parallel execution
/// produce bit-identical schedules, latencies and counters.
#[test]
fn mixed_scenario_is_identical_across_execution_modes() {
    let _sweep = MODE_SWEEP.lock().unwrap_or_else(|e| e.into_inner());
    let spec = mixed_scenario(true);
    set_default_execution(Execution::Sequential);
    let base = digest(&run(&spec));
    assert!(base.contains("done="), "sanity: {base}");
    set_default_execution(Execution::Parallel { threads: 4 });
    assert_eq!(base, digest(&run(&spec)), "divergence under parallel:4");
    set_default_execution(Execution::Sequential);
}

#[test]
fn mixed_scenario_latency_quantiles_are_ordered() {
    let spec = mixed_scenario(true);
    set_default_execution(Execution::Sequential);
    let out = run(&spec);
    let q = &out.stats.queues[0];
    assert!(q.completed > 5, "diurnal source offered too little");
    let p50 = quantile_ns(&q.latency_ns, 0.5);
    let p99 = quantile_ns(&q.latency_ns, 0.99);
    let p999 = quantile_ns(&q.latency_ns, 0.999);
    assert!(p50 > 0 && p50 <= p99 && p99 <= p999);
}

/// 64 nodes x 8 slots with a partial last rack (64 = 10 x 6 + 4): batch
/// floods the cluster, a burst of locality-seeking queries reclaims its
/// fair share by preemption, a gang squeezes in, and a final
/// whole-cluster gang can only start if every one of the 512 slots came
/// back.
fn wide_cluster_trace() -> (ScenarioSpec, Vec<(u64, JobSpec)>) {
    let spec = ScenarioSpec {
        name: "wide",
        nodes: 64,
        per_node: 8,
        rack_size: 6,
        horizon_s: 10.0,
        seed: 7,
        locality_delay: SimDuration::from_millis(20),
        preemption: true,
        queues: vec![
            QueueSpec::new("interactive", 3).slo_ns(1_000_000_000),
            QueueSpec::new("batch", 1),
        ],
        sources: vec![],
    };
    let elastic = |queue, tasks| job(queue, vec![Wave { tasks, gang: false }]);
    let gang = |width| {
        job(
            "batch",
            vec![Wave {
                tasks: vec![compute_task(10, 1, None).pinned(); width],
                gang: true,
            }],
        )
    };
    let mut trace = Vec::new();
    for i in 0..3 {
        trace.push((i, elastic("batch", vec![compute_task(20, 10, None); 256])));
    }
    for k in 0..40u32 {
        let tasks = (0..16)
            .map(|i| compute_task(10, 2, Some(NodeId((k * 7 + i) % 64))))
            .collect();
        trace.push((
            50_000_000 + k as u64 * 5_000_000,
            elastic("interactive", tasks),
        ));
    }
    trace.push((100_000_000, gang(64)));
    trace.sort_by_key(|(at, _)| *at);
    trace.push((5_000_000_000, gang(512)));
    (spec, trace)
}

#[test]
fn wide_cluster_completes_leaks_nothing_and_matches_across_modes() {
    let _sweep = MODE_SWEEP.lock().unwrap_or_else(|e| e.into_inner());
    let (spec, trace) = wide_cluster_trace();
    let tasks: u64 = trace.iter().map(|(_, j)| j.total_tasks() as u64).sum();
    let mut base: Option<String> = None;
    for exec in [Execution::Sequential, Execution::Parallel { threads: 4 }] {
        set_default_execution(exec);
        let out = run_trace(&spec, trace.clone());
        let q = &out.stats.queues;
        assert_eq!(out.stats.total_slots, 512);
        assert_eq!(q[0].completed + q[1].completed, out.offered);
        assert!(q[1].preemptions > 0, "no contention: {:?}", q[1]);
        assert_eq!(
            q[0].tasks_dispatched + q[1].tasks_dispatched,
            tasks + q[0].requeues + q[1].requeues
        );
        let got = digest(&out);
        assert_eq!(base.get_or_insert(got.clone()), &got, "under {exec:?}");
    }
    set_default_execution(Execution::Sequential);
}

fn rejected(spec: &ScenarioSpec, bad: JobSpec) -> JobError {
    let good = job(
        "only",
        vec![Wave {
            tasks: vec![compute_task(1, 1, None)],
            gang: false,
        }],
    );
    let err = validate_trace(spec, &[(0, good), (1, bad)]).unwrap_err();
    assert_eq!((err.job, err.template), (1, "test/compute"));
    err.cause
}

fn gang_of(queue: &'static str, width: usize) -> JobSpec {
    job(
        queue,
        vec![Wave {
            tasks: vec![compute_task(1, 1, None); width],
            gang: true,
        }],
    )
}

#[test]
fn job_without_waves_is_rejected() {
    let cause = rejected(&one_queue_spec(false), job("only", vec![]));
    assert_eq!(cause, JobError::NoWaves);
}

#[test]
fn empty_wave_is_rejected() {
    let waves = vec![
        Wave {
            tasks: vec![compute_task(1, 1, None)],
            gang: false,
        },
        Wave {
            tasks: vec![],
            gang: false,
        },
    ];
    let cause = rejected(&one_queue_spec(false), job("only", waves));
    assert_eq!(cause, JobError::EmptyWave { wave: 1 });
}

#[test]
fn gang_wider_than_the_cluster_is_rejected() {
    let spec = one_queue_spec(false);
    assert_eq!(validate_trace(&spec, &[(0, gang_of("only", 4))]), Ok(()));
    assert_eq!(
        rejected(&spec, gang_of("only", 5)),
        JobError::GangTooWide {
            wave: 0,
            width: 5,
            limit: 4,
        }
    );
}

#[test]
fn gang_wider_than_its_queue_cap_is_rejected() {
    let mut spec = one_queue_spec(false);
    spec.queues.push(QueueSpec::new("capped", 1).cap(2));
    assert_eq!(validate_trace(&spec, &[(0, gang_of("capped", 2))]), Ok(()));
    assert_eq!(
        rejected(&spec, gang_of("capped", 3)),
        JobError::GangTooWide {
            wave: 0,
            width: 3,
            limit: 2,
        }
    );
}

#[test]
fn job_for_an_unknown_queue_is_rejected() {
    let cause = rejected(&one_queue_spec(false), gang_of("nowhere", 1));
    assert_eq!(cause, JobError::UnknownQueue);
}

/// `run_trace` refuses a malformed trace by name on the caller's thread,
/// not as a panic (or deadlock report) from inside a simulated process.
#[test]
#[should_panic(
    expected = "malformed job 0 (template test/compute, queue only): gang wave 0 is 5 tasks wide but its queue can hold at most 4 slots"
)]
fn run_trace_names_the_malformed_job() {
    run_trace(&one_queue_spec(false), vec![(0, gang_of("only", 5))]);
}
