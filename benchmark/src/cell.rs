//! The child side of a cell: one (workload, engine mode) in its own
//! process, so that peak memory is per workload and no stack pool,
//! allocator state or global counter leaks between cells. The engine
//! mode is whatever `HPCBD_EXECUTION` the parent set; nothing here
//! names a mode.
//!
//! Protocol on stdout: a timed cell prints `READY` once set-up is done,
//! and every cell ends with `RESULT <json>` on one line.

use std::io::Write;
use std::time::Instant;

use hpcbd_obs::JsonValue;

use crate::json::{num, nums, obj};
use crate::probes::{self, vm_hwm_kib};
use crate::spans::Recorder;
use crate::workloads::{digest, shape_checks, Artifact, Inputs};

/// Timed repetitions a cell makes at least, whatever its budget.
pub const MIN_REPS: usize = 2;
/// Traced repetitions (and untraced ones they are compared with).
const TRACED_REPS: usize = 2;

fn emit(result: JsonValue) {
    let mut out = std::io::stdout().lock();
    // The parent treats a missing RESULT line as a failed cell.
    let _ = writeln!(out, "RESULT {}", result.serialize());
    let _ = out.flush();
}

fn checks_json(checks: &[(&'static str, bool)]) -> JsonValue {
    JsonValue::Arr(
        checks
            .iter()
            .map(|(name, held)| {
                obj(vec![
                    ("name", JsonValue::str(*name)),
                    ("held", JsonValue::Bool(*held)),
                ])
            })
            .collect(),
    )
}

/// One timed repetition: the figure driver plus rendering its output.
fn timed_rep(inputs: &Inputs) -> (f64, Artifact, u64) {
    let t0 = Instant::now();
    let artifact = inputs.regenerate();
    let rendered = artifact.rendered();
    let wall = t0.elapsed().as_secs_f64();
    (wall, artifact, digest(&rendered))
}

/// Set-up shared by the timed and traced cells: build the inputs, run
/// the cold first repetition, check its shape.
struct Warm {
    inputs: Inputs,
    input_build_s: f64,
    first_rep_s: f64,
    first: Artifact,
    digest: u64,
    checks: Vec<(&'static str, bool)>,
}

fn warm_up(workload: &str, seed: u64, smoke: bool) -> Result<Warm, String> {
    let t0 = Instant::now();
    let inputs = Inputs::build(workload, seed, smoke)
        .ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let input_build_s = t0.elapsed().as_secs_f64();
    let (first_rep_s, first, digest) = timed_rep(&inputs);
    let checks = shape_checks(&inputs, &first);
    Ok(Warm {
        inputs,
        input_build_s,
        first_rep_s,
        first,
        digest,
        checks,
    })
}

impl Warm {
    fn header(&self, checks: &[(&'static str, bool)]) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("input_build_s", num(self.input_build_s)),
            ("first_rep_s", num(self.first_rep_s)),
            (
                "sim_digest",
                JsonValue::str(format!("{:016x}", self.digest)),
            ),
            ("virtual_s", num(self.first.virtual_s())),
            ("checks", checks_json(checks)),
        ]
    }
}

/// The timed cell: tracing off, repetitions back to back until
/// `budget_s` has passed (one repetition with `smoke`).
pub fn timed(workload: &str, seed: u64, budget_s: f64, smoke: bool) -> Result<(), String> {
    let warm = warm_up(workload, seed, smoke)?;
    println!("READY");
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    let min_reps = if smoke { 1 } else { MIN_REPS };
    let (mut walls, mut digest_mismatches) = (Vec::new(), 0u64);
    let t0 = Instant::now();
    while walls.len() < min_reps || (!smoke && t0.elapsed().as_secs_f64() < budget_s) {
        let (wall, _, d) = timed_rep(&warm.inputs);
        walls.push(wall);
        digest_mismatches += (d != warm.digest) as u64;
    }
    let mut fields = warm.header(&warm.checks);
    fields.extend([
        ("reps", nums(&walls)),
        ("digest_mismatches", JsonValue::u64(digest_mismatches)),
        ("vm_hwm_kib", JsonValue::u64(vm_hwm_kib())),
    ]);
    emit(obj(fields));
    Ok(())
}

/// The operation counts of a self-profiler snapshot; its accumulated
/// wall time is the one row that is not a count.
fn counters_json(snapshot: &[(&'static str, u64)]) -> JsonValue {
    JsonValue::Obj(
        snapshot
            .iter()
            .filter(|(name, _)| *name != "run_wall_ns")
            .map(|(name, v)| (name.to_string(), JsonValue::u64(*v)))
            .collect(),
    )
}

/// The counting cell of the traced run, for the two threaded modes: one
/// warm repetition, then one under the self-profiler. Reports the
/// engine's operation counts (token grants/releases) and the
/// speculation outcome; these depend on the host schedule.
pub fn counts(workload: &str, seed: u64, smoke: bool) -> Result<(), String> {
    let warm = warm_up(workload, seed, smoke)?;
    let _ = hpcbd_simnet::spec_counters_take();
    hpcbd_simnet::set_selfprof(true);
    hpcbd_simnet::selfprof_reset();
    let (_, _, d) = timed_rep(&warm.inputs);
    hpcbd_simnet::set_selfprof(false);
    let (commits, rollbacks) = hpcbd_simnet::spec_counters_take();
    let mut fields = warm.header(&warm.checks);
    fields.extend([
        (
            "digest_mismatches",
            JsonValue::u64((d != warm.digest) as u64),
        ),
        (
            "counters",
            counters_json(&hpcbd_simnet::selfprof_snapshot()),
        ),
        ("spec_commits", JsonValue::u64(commits)),
        ("spec_rollbacks", JsonValue::u64(rollbacks)),
    ]);
    emit(obj(fields));
    Ok(())
}

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// The traced cell (sequential engine). After the warm-up:
/// untraced repetitions for the overhead base; pass A, the work arm by
/// arm under spans and the self-profiler; pass B, one repetition inside
/// a capture window for the counts only a capture exposes, and the
/// `obs` post-processing of that capture timed call by call.
pub fn traced(workload: &str, seed: u64, smoke: bool) -> Result<(), String> {
    traced_doc(workload, seed, smoke).map(emit)
}

/// What the traced cell reports, as a document.
pub fn traced_doc(workload: &str, seed: u64, smoke: bool) -> Result<JsonValue, String> {
    let mut rec = Recorder::new();
    let warm = rec.outer("set_up", |_| warm_up(workload, seed, smoke))?;
    let inputs = &warm.inputs;
    let untraced: Vec<f64> = (0..TRACED_REPS).map(|_| timed_rep(inputs).0).collect();

    // Pass A.
    let (memo_hits0, memo_misses0) = hpcbd_simnet::collective_memo_stats();
    hpcbd_simnet::set_selfprof(true);
    let mut snapshots = Vec::new();
    for _ in 0..TRACED_REPS {
        hpcbd_simnet::selfprof_reset();
        rec.outer("rep", |rec| inputs.regenerate_by_arm(rec));
        snapshots.push(hpcbd_simnet::selfprof_snapshot());
    }
    hpcbd_simnet::set_selfprof(false);
    let (memo_hits, memo_misses) = hpcbd_simnet::collective_memo_stats();
    // Operation counts are exact on the sequential engine; only the
    // accumulated wall time differs between repetitions.
    let counts_repeat = snapshots.windows(2).all(|w| {
        w[0].iter()
            .zip(&w[1])
            .all(|(a, b)| a.0 == "run_wall_ns" || a == b)
    });
    let traced_walls: Vec<f64> = rec
        .spans
        .iter()
        .filter(|s| s.name == "rep")
        .map(|s| s.seconds())
        .collect();
    // Layers come out in the order the arms first ran, the same in
    // every repetition; wall time is the mean over repetitions.
    let per_rep: Vec<_> = (0..TRACED_REPS as u32).map(|r| rec.by_layer(r)).collect();
    let layers = JsonValue::Arr(
        per_rep[0]
            .iter()
            .enumerate()
            .map(|(i, (layer, _, events))| {
                let wall = per_rep.iter().map(|rows| rows[i].1).sum::<f64>() / TRACED_REPS as f64;
                obj(vec![
                    ("layer", JsonValue::str(*layer)),
                    ("wall_s", num(wall)),
                    ("events", JsonValue::u64(*events)),
                ])
            })
            .collect(),
    );
    let run_wall_s = snapshots
        .iter()
        .map(|s| s.iter().find(|r| r.0 == "run_wall_ns").map_or(0, |r| r.1) as f64 / 1e9)
        .sum::<f64>()
        / TRACED_REPS as f64;

    // Pass B.
    let (uncaptured_wall_s, _) = time(|| inputs.simulate());
    hpcbd_simnet::begin_capture();
    let (capture_wall_s, artifact) = time(|| inputs.simulate());
    let captures = hpcbd_simnet::end_capture();
    let (build_s, report) =
        time(|| hpcbd_obs::RunReport::from_captures(workload, smoke, &captures));
    let (json_s, json) = time(|| report.to_json());
    let (match_s, graphs) = time(|| {
        captures
            .iter()
            .map(|cap| hpcbd_obs::match_events(&cap.events))
            .collect::<Vec<_>>()
    });
    let (path_s, _) = time(|| {
        for (cap, graph) in captures.iter().zip(&graphs) {
            std::hint::black_box(hpcbd_obs::critical_path(cap, graph));
        }
    });
    let (export_s, perfetto) = time(|| {
        captures
            .first()
            .zip(graphs.first())
            .map(|(cap, graph)| hpcbd_obs::to_perfetto_json(cap, graph))
    });
    std::hint::black_box((json.len(), perfetto.map(|p| p.len())));
    let stats = captures.iter().flat_map(|cap| &cap.stats);
    let (mut sends, mut bytes, mut disk_bytes) = (0u64, 0u64, 0u64);
    for s in stats {
        sends += s.msgs_sent;
        bytes += s.bytes_sent;
        disk_bytes += s.disk_read_bytes + s.disk_write_bytes;
    }

    let mut checks = warm.checks.clone();
    checks.push(("traced: engine counts repeat exactly", counts_repeat));
    let mut fields = warm.header(&checks);
    fields.extend([
        ("jobs", JsonValue::u64(artifact.jobs())),
        ("preemptions", JsonValue::u64(artifact.preemptions())),
        ("untraced_reps", nums(&untraced)),
        ("traced_reps", nums(&traced_walls)),
        ("run_wall_s", num(run_wall_s)),
        ("layers", layers),
        ("counters", counters_json(&snapshots[0])),
        ("memo_hits", JsonValue::u64(memo_hits - memo_hits0)),
        ("memo_misses", JsonValue::u64(memo_misses - memo_misses0)),
        ("uncaptured_wall_s", num(uncaptured_wall_s)),
        ("capture_wall_s", num(capture_wall_s)),
        ("sims", JsonValue::u64(captures.len() as u64)),
        (
            "procs",
            JsonValue::u64(captures.iter().map(|c| c.proc_names.len() as u64).sum()),
        ),
        (
            "trace_events",
            JsonValue::u64(captures.iter().map(|c| c.events.len() as u64).sum()),
        ),
        ("sends", JsonValue::u64(sends)),
        ("bytes", num(bytes as f64)),
        ("disk_bytes", num(disk_bytes as f64)),
        ("obs_build_s", num(build_s)),
        ("obs_json_s", num(json_s)),
        ("obs_match_s", num(match_s)),
        ("obs_path_s", num(path_s)),
        ("obs_export_s", num(export_s)),
        ("spans", rec.to_json()),
    ]);
    Ok(obj(fields))
}

/// The probes cell. `all` runs every sequential probe; otherwise only
/// the ping-pong, for the mode the environment selects.
pub fn probes(budget_s: f64, all: bool) {
    let rows = if all {
        probes::sequential_probes(budget_s)
    } else {
        vec![("pingpong.round_ns", probes::pingpong_round_ns(budget_s))]
    };
    emit(JsonValue::Obj(
        rows.into_iter()
            .map(|(name, v)| (name.to_string(), num(v)))
            .collect(),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{f64_at, str_at};
    use crate::ledger::closure_checks;
    use crate::workloads::NAMES;

    /// The ledger closure test. The self-profiler and the capture
    /// window are process-global, so every workload runs in this one
    /// test, one after another.
    #[test]
    fn ledger_closes_and_exact_counts_repeat_between_traced_runs() {
        let probes: Vec<(String, f64)> = probes::sequential_probes(0.02)
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect();
        for name in NAMES {
            let a = traced_doc(name, 3, true).expect("traced cell runs");
            let b = traced_doc(name, 3, true).expect("traced cell runs");
            assert_eq!(
                a.get("counters"),
                b.get("counters"),
                "{name}: engine counts"
            );
            for exact in ["procs", "sims", "trace_events", "sends", "virtual_s"] {
                assert_eq!(f64_at(&a, exact), f64_at(&b, exact), "{name}: {exact}");
            }
            assert_eq!(str_at(&a, "sim_digest"), str_at(&b, "sim_digest"), "{name}");
            assert!(
                f64_at(&a, "procs") > Some(0.0),
                "{name}: a capture saw processes"
            );
            let all_held = |doc: &JsonValue| {
                let checks = doc.get("checks").and_then(JsonValue::as_arr).unwrap_or(&[]);
                checks
                    .iter()
                    .all(|c| c.get("held") == Some(&JsonValue::Bool(true)))
            };
            assert!(
                all_held(&a) && all_held(&b),
                "{name}: shape and repeat checks"
            );
            // Repetitions are milliseconds at this scale: one preemption
            // between two arms is more than 3 %, so either run may close.
            let closes = |doc: &JsonValue| closure_checks(doc, &probes).iter().all(|c| c.1);
            assert!(
                closes(&a) || closes(&b),
                "{name}: {:?} / {:?}",
                closure_checks(&a, &probes),
                closure_checks(&b, &probes)
            );
        }
    }
}
