//! The metric tables, and the per-layer ledger of one workload: the
//! engine's exact operation counts from the traced cell joined with the
//! unit costs the probes measured, plus the measured residual
//! ("runtime + workload code"). ROADMAP open item 1 in one function.

use hpcbd_obs::JsonValue;

use crate::json::{f64_at, f64s_at, str_at};
use crate::stats::Summary;

/// End-to-end metrics: `(name, unit, bound)`, all lower-is-better, the
/// same rows as `BENCHMARK.json` (a test keeps the two in step).
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("wall_s", "s", 0.15),
    ("wall_mt_s", "s", 0.25),
    ("wall_spec_s", "s", 0.25),
    ("peak_rss_mib", "MiB", 0.10),
    ("setup_s", "s", 0.25),
];

/// Rows of [`END_TO_END`].
pub const WALL_S: usize = 0;
pub const WALL_MT_S: usize = 1;
pub const WALL_SPEC_S: usize = 2;
pub const PEAK_RSS_MIB: usize = 3;
pub const SETUP_S: usize = 4;

/// Per-layer metrics: `(name, unit, higher_is_better)`, in print order.
/// The last twelve are the unit probes, the same for every workload.
pub const PER_LAYER: [(&str, &str, bool); 63] = [
    ("simnet.engine.events", "count", false),
    ("simnet.engine.sims", "count", false),
    ("simnet.engine.procs", "count", false),
    ("simnet.engine.run_s", "s/rep", false),
    ("simnet.engine.host_ns_per_event", "ns/event", false),
    ("simnet.engine.est_s", "s/rep", false),
    ("simnet.queue.pushes", "count", false),
    ("simnet.queue.pops", "count", false),
    ("simnet.queue.useful_ratio", "ratio", true),
    ("simnet.queue.est_s", "s/rep", false),
    ("simnet.coro.parks", "count", false),
    ("simnet.coro.wakes", "count", false),
    ("simnet.coro.spawn_est_s", "s/rep", false),
    ("simnet.token.grants", "count", false),
    ("simnet.token.releases", "count", false),
    ("simnet.speculate.commits", "count", true),
    ("simnet.speculate.rollbacks", "count", false),
    ("simnet.speculate.commit_ratio", "ratio", true),
    ("simnet.message.sends", "count", false),
    ("simnet.message.bytes", "B", false),
    ("simnet.device.disk_bytes", "B", false),
    ("simnet.cost.memo_hit_ratio", "ratio", true),
    ("minimpi.arm_s", "s/rep", false),
    ("minimpi.arm_ns_per_event", "ns/event", false),
    ("minspark.arm_s", "s/rep", false),
    ("minspark.arm_ns_per_event", "ns/event", false),
    ("minspark.rdma_arm_s", "s/rep", false),
    ("minspark.rdma_arm_ns_per_event", "ns/event", false),
    ("minmapreduce.arm_s", "s/rep", false),
    ("minmapreduce.arm_ns_per_event", "ns/event", false),
    ("minomp.arm_s", "s/rep", false),
    ("minomp.arm_ns_per_event", "ns/event", false),
    ("sched.idle_s", "s/rep", false),
    ("sched.contended_s", "s/rep", false),
    ("sched.nopreempt_s", "s/rep", false),
    ("sched.jobs", "count", false),
    ("sched.host_us_per_job", "us/job", false),
    ("sched.preemptions", "count", false),
    ("core.residual_s", "s/rep", false),
    ("simnet.trace.events", "count", false),
    ("simnet.trace.overhead_ratio", "ratio", false),
    ("obs.report.build_s", "s/rep", false),
    ("obs.report.json_s", "s/rep", false),
    ("obs.causal.match_s", "s/rep", false),
    ("obs.critical.path_s", "s/rep", false),
    ("obs.perfetto.export_s", "s/rep", false),
    ("obs.report.ns_per_event", "ns/event", false),
    ("workloads.input_build_s", "s", false),
    ("core.first_rep_s", "s", false),
    ("core.virtual_s", "s", false),
    ("bench.trace_overhead_ratio", "ratio", false),
    ("simnet.queue.push_pop_ns_w64", "ns", false),
    ("simnet.queue.push_pop_ns_w8192", "ns", false),
    ("simnet.engine.handoff_ns", "ns", false),
    ("simnet.engine.handoff_mt_ns", "ns", false),
    ("simnet.engine.handoff_spec_ns", "ns", false),
    ("simnet.coro.spawn_ns", "ns", false),
    ("simnet.coro.bytes_per_proc", "B", false),
    ("simnet.device.reserve_ns", "ns", false),
    ("simnet.trace.append_ns", "ns", false),
    ("simnet.compute.advance_ns", "ns", false),
    ("minshmem.pagerank_probe_s", "s", false),
    ("minhdfs.read_probe_s", "s", false),
];

/// Number of trailing [`PER_LAYER`] rows that are unit probes.
pub const PROBE_ROWS: usize = 12;

/// Counts that are exact on the sequential engine: `compare` prints
/// them as counts and expects them identical between two commits
/// unless a change declares otherwise.
pub const EXACT: [&str; 3] = [
    "simnet.engine.events",
    "simnet.engine.procs",
    "core.virtual_s",
];

/// Mean processes per simulation from which the ready queue is priced
/// at the deep-window probe.
const DEEP_QUEUE_PROCS: f64 = 1024.0;

/// What the join needs from one traced repetition.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    pub events: f64,
    pub pushes: f64,
    pub pops: f64,
    pub procs: f64,
    pub sims: f64,
    /// Sum of the arm spans, seconds.
    pub arm_wall_s: f64,
}

/// Unit costs from the probes, nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    pub handoff_ns: f64,
    pub push_pop_ns_w64: f64,
    pub push_pop_ns_w8192: f64,
    pub spawn_ns: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct Estimates {
    /// `events x handoff_ns`: what the engine's hot path should cost.
    pub engine_est_s: f64,
    /// Of which the ready queue: one push+pop per pair of operations.
    pub queue_est_s: f64,
    /// `procs x spawn_ns`: process creation and teardown.
    pub spawn_est_s: f64,
    /// Arm wall minus the two estimates above. Negative when the probes
    /// overprice this workload's operations.
    pub residual_s: f64,
}

pub fn estimate(c: &Counts, u: &UnitCosts) -> Estimates {
    let deep = c.procs / c.sims.max(1.0) >= DEEP_QUEUE_PROCS;
    let push_pop_ns = if deep {
        u.push_pop_ns_w8192
    } else {
        u.push_pop_ns_w64
    };
    let engine_est_s = c.events * u.handoff_ns / 1e9;
    let spawn_est_s = c.procs * u.spawn_ns / 1e9;
    Estimates {
        engine_est_s,
        queue_est_s: (c.pushes + c.pops) / 2.0 * push_pop_ns / 1e9,
        spawn_est_s,
        residual_s: c.arm_wall_s - engine_est_s - spawn_est_s,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn counter(cell: &JsonValue, name: &str) -> f64 {
    cell.get("counters")
        .and_then(|c| f64_at(c, name))
        .unwrap_or(0.0)
}

/// `(wall seconds, events)` of one layer of the traced cell; zeros when
/// the workload's driver does not call that layer.
fn layer(traced: &JsonValue, name: &str) -> (f64, f64) {
    traced
        .get("layers")
        .and_then(JsonValue::as_arr)
        .and_then(|rows| rows.iter().find(|row| str_at(row, "layer") == Some(name)))
        .map_or((0.0, 0.0), |row| {
            (
                f64_at(row, "wall_s").unwrap_or(0.0),
                f64_at(row, "events").unwrap_or(0.0),
            )
        })
}

/// The counts of the traced cell, as the join takes them.
pub fn counts_of(traced: &JsonValue) -> Counts {
    let arm_wall_s = traced
        .get("layers")
        .and_then(JsonValue::as_arr)
        .map_or(0.0, |rows| {
            rows.iter().filter_map(|r| f64_at(r, "wall_s")).sum()
        });
    Counts {
        events: counter(traced, "coro_resume"),
        pushes: counter(traced, "queue_push"),
        pops: counter(traced, "queue_pop"),
        procs: f64_at(traced, "procs").unwrap_or(0.0),
        sims: f64_at(traced, "sims").unwrap_or(0.0),
        arm_wall_s,
    }
}

/// One probe's value by metric name; 0 when it was not measured.
pub fn probe(probes: &[(String, f64)], name: &str) -> f64 {
    probes
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

pub fn unit_costs(probes: &[(String, f64)]) -> UnitCosts {
    let get = |name: &str| probe(probes, name);
    UnitCosts {
        handoff_ns: get("simnet.engine.handoff_ns"),
        push_pop_ns_w64: get("simnet.queue.push_pop_ns_w64"),
        push_pop_ns_w8192: get("simnet.queue.push_pop_ns_w8192"),
        spawn_ns: get("simnet.coro.spawn_ns"),
    }
}

/// Every [`PER_LAYER`] metric of one workload, in table order, from
/// the traced cell, the two counting cells (threaded modes; `None` when
/// the cell failed) and the probes.
pub fn per_layer(
    traced: &JsonValue,
    mt: Option<&JsonValue>,
    spec: Option<&JsonValue>,
    probes: &[(String, f64)],
) -> Vec<(&'static str, f64)> {
    let t = |key: &str| f64_at(traced, key).unwrap_or(0.0);
    let counts = counts_of(traced);
    let est = estimate(&counts, &unit_costs(probes));
    // Fastest against fastest: with two repetitions a side, a mean would
    // report one preempted repetition as tracing overhead.
    let fastest = |key: &str| Summary::of(&f64s_at(traced, key)).map_or(0.0, |s| s.min);
    let sched_s = ["sched.idle", "sched.contended", "sched.nopreempt"].map(|l| layer(traced, l).0);
    let (commits, rollbacks) = spec.map_or((0.0, 0.0), |s| {
        (
            f64_at(s, "spec_commits").unwrap_or(0.0),
            f64_at(s, "spec_rollbacks").unwrap_or(0.0),
        )
    });

    let value = |name: &str| -> f64 {
        if let Some(prefix) = name.strip_suffix(".arm_s") {
            return layer(traced, prefix).0;
        }
        if let Some(prefix) = name.strip_suffix("_arm_s") {
            return layer(traced, prefix).0;
        }
        if let Some(prefix) = name
            .strip_suffix(".arm_ns_per_event")
            .or_else(|| name.strip_suffix("_arm_ns_per_event"))
        {
            let (wall, events) = layer(traced, prefix);
            return ratio(wall * 1e9, events);
        }
        match name {
            "simnet.engine.events" => counts.events,
            "simnet.engine.sims" => counts.sims,
            "simnet.engine.procs" => counts.procs,
            "simnet.engine.run_s" => t("run_wall_s"),
            "simnet.engine.host_ns_per_event" => ratio(t("run_wall_s") * 1e9, counts.events),
            "simnet.engine.est_s" => est.engine_est_s,
            "simnet.queue.pushes" => counts.pushes,
            "simnet.queue.pops" => counts.pops,
            "simnet.queue.useful_ratio" => ratio(counts.events, counts.pushes),
            "simnet.queue.est_s" => est.queue_est_s,
            "simnet.coro.parks" => counter(traced, "park"),
            "simnet.coro.wakes" => counter(traced, "wake"),
            "simnet.coro.spawn_est_s" => est.spawn_est_s,
            "simnet.token.grants" => mt.map_or(0.0, |m| counter(m, "token_grant")),
            "simnet.token.releases" => mt.map_or(0.0, |m| counter(m, "token_release")),
            "simnet.speculate.commits" => commits,
            "simnet.speculate.rollbacks" => rollbacks,
            "simnet.speculate.commit_ratio" => ratio(commits, commits + rollbacks),
            "simnet.message.sends" => t("sends"),
            "simnet.message.bytes" => t("bytes"),
            "simnet.device.disk_bytes" => t("disk_bytes"),
            "simnet.cost.memo_hit_ratio" => {
                ratio(t("memo_hits"), t("memo_hits") + t("memo_misses"))
            }
            "sched.idle_s" => sched_s[0],
            "sched.contended_s" => sched_s[1],
            "sched.nopreempt_s" => sched_s[2],
            "sched.jobs" => t("jobs"),
            "sched.host_us_per_job" => ratio(sched_s.iter().sum::<f64>() * 1e6, t("jobs")),
            "sched.preemptions" => t("preemptions"),
            "core.residual_s" => est.residual_s,
            "simnet.trace.events" => t("trace_events"),
            "simnet.trace.overhead_ratio" => ratio(t("capture_wall_s"), t("uncaptured_wall_s")),
            "obs.report.build_s" => t("obs_build_s"),
            "obs.report.json_s" => t("obs_json_s"),
            "obs.causal.match_s" => t("obs_match_s"),
            "obs.critical.path_s" => t("obs_path_s"),
            "obs.perfetto.export_s" => t("obs_export_s"),
            "obs.report.ns_per_event" => ratio(t("obs_build_s") * 1e9, t("trace_events")),
            "workloads.input_build_s" => t("input_build_s"),
            "core.first_rep_s" => t("first_rep_s"),
            "core.virtual_s" => t("virtual_s"),
            "bench.trace_overhead_ratio" => ratio(fastest("traced_reps"), fastest("untraced_reps")),
            name => probe(probes, name),
        }
    };
    PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, value(name)))
        .collect()
}

/// The ledger's closure conditions for one workload, as `(name, held)`.
pub fn closure_checks(traced: &JsonValue, probes: &[(String, f64)]) -> Vec<(&'static str, bool)> {
    let counts = counts_of(traced);
    let est = estimate(&counts, &unit_costs(probes));
    let reps = f64s_at(traced, "traced_reps");
    let rep_wall = reps.iter().sum::<f64>() / reps.len().max(1) as f64;
    let sum = est.engine_est_s + est.spawn_est_s + est.residual_s;
    vec![
        (
            "ledger: estimates + residual equal the arm wall",
            (sum - counts.arm_wall_s).abs() <= 1e-9 * counts.arm_wall_s.max(1.0),
        ),
        (
            "ledger: arm spans cover the repetition to 3 %",
            counts.arm_wall_s <= rep_wall && counts.arm_wall_s >= 0.97 * rep_wall,
        ),
        (
            "ledger: the queue estimate is within the engine estimate",
            est.queue_est_s <= est.engine_est_s,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const COSTS: UnitCosts = UnitCosts {
        handoff_ns: 400.0,
        push_pop_ns_w64: 40.0,
        push_pop_ns_w8192: 90.0,
        spawn_ns: 2_000.0,
    };

    #[test]
    fn estimates_and_residual_add_up_to_the_arm_wall() {
        let c = Counts {
            events: 333_000.0,
            pushes: 339_000.0,
            pops: 333_000.0,
            procs: 400.0,
            sims: 3.0,
            arm_wall_s: 1.46,
        };
        let e = estimate(&c, &COSTS);
        assert!((e.engine_est_s - 0.1332).abs() < 1e-12);
        assert!((e.engine_est_s + e.spawn_est_s + e.residual_s - c.arm_wall_s).abs() < 1e-12);
        assert!(e.queue_est_s <= e.engine_est_s);
        // 133 processes per simulation: the shallow-window price.
        assert!((e.queue_est_s - 336_000.0 * 40.0 / 1e9).abs() < 1e-12);
    }

    #[test]
    fn many_process_simulations_are_priced_at_the_deep_window() {
        let c = Counts {
            events: 1000.0,
            pushes: 1000.0,
            pops: 1000.0,
            procs: 6_201.0,
            sims: 2.0,
            arm_wall_s: 0.4,
        };
        assert!((estimate(&c, &COSTS).queue_est_s - 1000.0 * 90.0 / 1e9).abs() < 1e-15);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(EXACT.iter().all(|e| PER_LAYER.iter().any(|m| m.0 == *e)));
        assert!(PER_LAYER[PER_LAYER.len() - PROBE_ROWS..]
            .iter()
            .all(|m| m.0.ends_with("_ns")
                || m.0.contains("_ns_")
                || m.0.ends_with("_probe_s")
                || m.0.ends_with("bytes_per_proc")));
    }
}
