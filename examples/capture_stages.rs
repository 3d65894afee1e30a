//! Where a captured run's time and page faults go, stage by stage.
//!
//! Runs the benchmark-scale busy datacenter day (the three scheduler
//! sections of the `datacenter_day_report` workload, seed 0) `--reps N`
//! times and prints, per stage, the median and the minimum wall
//! milliseconds and the minor page faults per repetition, read from
//! `/proc/self/stat`
//! (Linux; elsewhere the fault columns read 0). The stages are the
//! untraced sections, the same sections inside a capture window,
//! `RunReport::from_captures`, its per-capture passes (`match_events`,
//! `critical_path`, `recovery_slos`) timed on their own, the Perfetto
//! export of capture 0, the report JSON, and the drop of the captures.
//!
//! Run with: `cargo run --release --example capture_stages -- --reps 5`

use std::time::Instant;

use hpcbd::obs::{critical_path, match_events, recovery_slos, to_perfetto_json, RunReport};
use hpcbd::simnet::{begin_capture, end_capture};
use hpcbd_bench::datacenter::{scenario, Load};

/// Virtual horizon of the benchmark's day: trough to peak of the
/// diurnal period.
const DAY_HORIZON_S: f64 = 1800.0;

/// Minor page faults of this process so far (field 10 of
/// `/proc/self/stat`).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the fields after it do not.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace()
        .nth(7)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Per-stage samples: `(name, [(ms, faults); reps])`, in stage order.
#[derive(Default)]
struct Stages(Vec<(String, Vec<(f64, u64)>)>);

impl Stages {
    /// Run `f` as stage `name` and record its wall time and faults.
    fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let (t0, f0) = (Instant::now(), minor_faults());
        let out = f();
        let sample = (t0.elapsed().as_secs_f64() * 1e3, minor_faults() - f0);
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => v.push(sample),
            None => self.0.push((name.to_string(), vec![sample])),
        }
        out
    }
}

/// `(median, minimum)` of `v`.
fn median_min(mut v: Vec<f64>) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    (v[v.len() / 2], v[0])
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut reps = 5usize;
    while let Some(a) = args.next() {
        match (a.as_str(), args.next().and_then(|v| v.parse().ok())) {
            ("--reps", Some(n)) if n > 0 => reps = n,
            _ => {
                eprintln!("usage: capture_stages [--reps N]  (N >= 1)");
                std::process::exit(2);
            }
        }
    }
    let sections: Vec<_> = [(Load::Idle, true), (Load::Rush, true), (Load::Rush, false)]
        .into_iter()
        .map(|(load, preemption)| {
            let mut spec = scenario(load, preemption, false);
            spec.horizon_s = DAY_HORIZON_S;
            spec
        })
        .collect();
    let run_day = || {
        for spec in &sections {
            hpcbd_sched::run(spec);
        }
    };

    let mut stages = Stages::default();
    // The untraced day first, on its own: interleaved with the captured
    // one, it leaves the allocator in a different state every time.
    for _ in 0..reps {
        stages.time("untraced sims", run_day);
    }
    for _ in 0..reps {
        let captures = stages.time("captured sims", || {
            begin_capture();
            run_day();
            end_capture()
        });
        let report = stages.time("from_captures", || {
            RunReport::from_captures("datacenter_day_report", false, &captures)
        });
        for (i, cap) in captures.iter().enumerate() {
            let graph = stages.time(&format!("  match_events[{i}]"), || {
                match_events(&cap.events)
            });
            stages.time(&format!("  critical_path[{i}]"), || {
                critical_path(cap, &graph)
            });
            stages.time(&format!("  recovery_slos[{i}]"), || recovery_slos(cap));
        }
        stages.time("perfetto[0]", || {
            let cap = &captures[0];
            to_perfetto_json(cap, &match_events(&cap.events))
        });
        stages.time("report json", || report.to_json());
        stages.time("drop captures", || drop(captures));
    }

    println!(
        "busy datacenter day at benchmark scale, {reps} repetition(s); \
         wall ms (median, min), minor faults per repetition (min..max)"
    );
    println!(
        "{:<20} {:>10} {:>10} {:>18}",
        "stage", "ms", "min ms", "faults"
    );
    let (mut captured_ms, mut captured_min) = (0.0, 0.0);
    let mut captured_faults = vec![0u64; reps];
    for (name, samples) in &stages.0 {
        let (ms, min) = median_min(samples.iter().map(|s| s.0).collect());
        let faults: Vec<u64> = samples.iter().map(|s| s.1).collect();
        let (lo, hi) = (faults.iter().min().unwrap(), faults.iter().max().unwrap());
        println!(
            "{name:<20} {ms:>10.2} {min:>10.2} {:>18}",
            format!("{lo}..{hi}")
        );
        // The captured day: every stage but the untraced sims and the
        // per-pass breakdown, which `from_captures` already contains.
        if name != "untraced sims" && !name.starts_with(' ') {
            captured_ms += ms;
            captured_min += min;
            for (total, f) in captured_faults.iter_mut().zip(&faults) {
                *total += f;
            }
        }
    }
    let (lo, hi) = (
        captured_faults.iter().min().unwrap(),
        captured_faults.iter().max().unwrap(),
    );
    println!(
        "{:<20} {captured_ms:>10.2} {captured_min:>10.2} {:>18}",
        "captured day",
        format!("{lo}..{hi}")
    );
    println!("captured day faults by repetition: {captured_faults:?}");
}
