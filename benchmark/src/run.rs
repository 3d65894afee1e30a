//! The parent side: spawns one cell at a time, each in its own child
//! process with `HPCBD_EXECUTION` as the only mode selector, collects
//! what the cells report, checks it, and turns it into named metrics.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use hpcbd_obs::JsonValue;

use crate::cell::MIN_REPS;
use crate::json::{f64_at, f64s_at, fields, num, obj, str_at};
use crate::ledger::{self, END_TO_END, PER_LAYER};
use crate::stats::{tail_percentile, Summary};

/// Environment that changes how the engine runs; scrubbed from every
/// child so that a cell measures the mode the parent chose and nothing
/// the caller's shell happened to carry.
const SCRUBBED_ENV: [&str; 5] = [
    "HPCBD_EXECUTION",
    "HPCBD_COROUTINE",
    "HPCBD_STACK_KIB",
    "HPCBD_TELEMETRY",
    "HPCBD_SELFPROF",
];

/// Sequential cells per timed run: three set-ups and three peak-memory
/// readings to take a median of, and timings pooled over three process
/// layouts.
const SEQUENTIAL_CELLS: usize = 3;
/// Shares of `--seconds` the sequential cells (together) and each
/// threaded cell measure for.
const SEQUENTIAL_SHARE: f64 = 0.5;
const THREADED_SHARE: f64 = 0.25;
/// Share of `--seconds` each unit probe runs for in a traced run.
const PROBE_SHARE: f64 = 0.025;
/// What each unit probe runs for with `--smoke`, seconds.
const SMOKE_PROBE_S: f64 = 0.03;
/// A child that outlives its budget by this much is killed.
const CHILD_GRACE: Duration = Duration::from_secs(90);

/// The three engine modes, as the values of `HPCBD_EXECUTION`.
#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    Unset,
    Threaded(&'static str),
}

pub const PARALLEL: Mode = Mode::Threaded("parallel");
pub const SPECULATIVE: Mode = Mode::Threaded("speculative");

/// The host, and the thread count the threaded modes are given:
/// `T = clamp(nproc - 1, 1, 3)`, so `T + 1` OS threads never exceed the
/// cores.
#[derive(Clone, Copy)]
pub struct Host {
    pub nproc: usize,
    pub threads: usize,
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            nproc,
            threads: (nproc.saturating_sub(1)).clamp(1, 3),
        }
    }

    fn env_value(&self, mode: Mode) -> Option<String> {
        match mode {
            Mode::Unset => None,
            Mode::Threaded(name) => Some(format!("{name}:{}", self.threads)),
        }
    }

    pub fn to_json(self) -> JsonValue {
        obj(vec![
            ("nproc", JsonValue::u64(self.nproc as u64)),
            ("T", JsonValue::u64(self.threads as u64)),
        ])
    }
}

/// What a finished child reported.
struct Cell {
    /// Spawn to the child's `READY` line, seconds.
    ready_s: Option<f64>,
    result: JsonValue,
}

/// Run one child to completion. Its stdout is read on a thread so that
/// a child stuck past `deadline` can be killed and reaped.
fn spawn_cell(host: Host, mode: Mode, args: &[String], deadline: Duration) -> Result<Cell, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("cell")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    if let Some(value) = host.env_value(mode) {
        cmd.env("HPCBD_EXECUTION", value);
    }
    let t0 = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send((t0.elapsed(), line)).is_err() {
                break;
            }
        }
    });
    let (mut ready_s, mut result) = (None, None);
    let mut timed_out = false;
    loop {
        match rx.recv_timeout(deadline.saturating_sub(t0.elapsed())) {
            Ok((at, line)) if line == "READY" => ready_s = Some(at.as_secs_f64()),
            Ok((_, line)) => {
                if let Some(json) = line.strip_prefix("RESULT ") {
                    result = Some(JsonValue::parse(json));
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                timed_out = true;
                // Killing closes the pipe, which ends the reader.
                let _ = child.kill();
                break;
            }
        }
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    reader.join().map_err(|_| "stdout reader panicked")?;
    if timed_out {
        return Err(format!("killed after {deadline:?}"));
    }
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    match result {
        Some(Ok(result)) => Ok(Cell { ready_s, result }),
        Some(Err(e)) => Err(format!("unparsable RESULT line: {e}")),
        None => Err("no RESULT line".into()),
    }
}

/// Options every run shares.
#[derive(Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl Options {
    fn cell_args(&self, workload: &str, kind: &str, budget_s: f64) -> Vec<String> {
        let mut args = vec![
            workload.to_string(),
            kind.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            budget_s.to_string(),
        ];
        if self.smoke {
            args.push("--smoke".into());
        }
        args
    }

    fn deadline(&self, budget_s: f64) -> Duration {
        CHILD_GRACE + Duration::from_secs_f64(budget_s)
    }
}

/// Failure accounting: an operation is one repetition or one check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: &str, held: bool) {
        self.attempted += 1;
        if !held {
            self.failed += 1;
            self.notes.push(format!("FAILED {what}"));
        }
    }

    /// A cell that crashed fails its cold repetition and the timed
    /// repetitions it would at least have made.
    fn crashed(&mut self, what: &str, why: &str) {
        let lost = 1 + MIN_REPS as u64;
        self.attempted += lost;
        self.failed += lost;
        self.notes.push(format!("FAILED cell {what}: {why}"));
    }

    /// Repetitions and shape checks a cell reports about itself.
    fn cell(&mut self, what: &str, result: &JsonValue, reps: u64, count_checks: bool) {
        self.attempted += reps;
        let mismatches = f64_at(result, "digest_mismatches").unwrap_or(0.0) as u64;
        if mismatches > 0 {
            self.failed += mismatches;
            self.notes.push(format!(
                "FAILED {what}: {mismatches} repetition(s) differ from the cell's first"
            ));
        }
        if count_checks {
            for c in result
                .get("checks")
                .and_then(JsonValue::as_arr)
                .unwrap_or(&[])
            {
                let held = c.get("held") == Some(&JsonValue::Bool(true));
                self.check(str_at(c, "name").unwrap_or("unnamed check"), held);
            }
        }
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The timed run of one workload.
pub struct Timed {
    pub workload: &'static str,
    pub sim_digest: String,
    pub tally: Tally,
    /// Samples per end-to-end metric, in [`END_TO_END`] order.
    pub samples: Vec<Vec<f64>>,
}

pub fn timed_run(host: Host, workload: &'static str, opt: Options) -> Timed {
    let mut tally = Tally::default();
    let mut samples = vec![Vec::new(); END_TO_END.len()];
    let mut sim_digest: Option<String> = None;
    let seq_budget = opt.seconds * SEQUENTIAL_SHARE / SEQUENTIAL_CELLS as f64;
    let cells = std::iter::repeat_n((Mode::Unset, ledger::WALL_S, seq_budget), SEQUENTIAL_CELLS)
        .chain([
            (PARALLEL, ledger::WALL_MT_S, opt.seconds * THREADED_SHARE),
            (
                SPECULATIVE,
                ledger::WALL_SPEC_S,
                opt.seconds * THREADED_SHARE,
            ),
        ]);
    for (i, (mode, wall_metric, budget)) in cells.enumerate() {
        let what = format!(
            "{workload} [{}]",
            host.env_value(mode).unwrap_or_else(|| "unset".into())
        );
        let args = opt.cell_args(workload, "timed", budget);
        let cell = match spawn_cell(host, mode, &args, opt.deadline(budget)) {
            Ok(cell) => cell,
            Err(why) => {
                tally.crashed(&what, &why);
                continue;
            }
        };
        let reps = f64s_at(&cell.result, "reps");
        tally.cell(&what, &cell.result, 1 + reps.len() as u64, i == 0);
        samples[wall_metric].extend(reps);
        if mode == Mode::Unset {
            if let Some(kib) = f64_at(&cell.result, "vm_hwm_kib") {
                samples[ledger::PEAK_RSS_MIB].push(kib / 1024.0);
            }
            samples[ledger::SETUP_S].extend(cell.ready_s);
        }
        // The repo's headline invariant: every mode, and every process,
        // produces the same bytes.
        let digest = str_at(&cell.result, "sim_digest").unwrap_or("").to_string();
        match &sim_digest {
            None => sim_digest = Some(digest),
            Some(first) => tally.check(
                &format!("{what}: sim_digest equals the first sequential cell's"),
                *first == digest,
            ),
        }
    }
    Timed {
        workload,
        sim_digest: sim_digest.unwrap_or_default(),
        tally,
        samples,
    }
}

impl Timed {
    pub fn summaries(&self) -> Vec<Option<Summary>> {
        self.samples.iter().map(|s| Summary::of(s)).collect()
    }

    pub fn print(&self) {
        println!("== {} (timed run, tracing off)", self.workload);
        for ((name, unit, _), samples) in END_TO_END.iter().zip(&self.samples) {
            match Summary::of(samples) {
                Some(s) => {
                    let tail = tail_percentile(samples)
                        .map_or(String::new(), |(p, v)| format!(" p{p} {v:.6}"));
                    println!(
                        "{name:<13} [{unit}] n={} min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}{tail}",
                        s.n, s.min, s.q1, s.median, s.q3, s.max
                    );
                }
                None => println!("{name:<13} [{unit}] no samples"),
            }
        }
        println!(
            "fail_share    [ratio] {} ({} failed / {} attempted)",
            self.tally.fail_share(),
            self.tally.failed,
            self.tally.attempted
        );
        println!("sim_digest    {}", self.sim_digest);
        for note in &self.tally.notes {
            println!("{note}");
        }
    }

    pub fn to_json(&self) -> JsonValue {
        let metrics = END_TO_END
            .iter()
            .zip(self.summaries())
            .filter_map(|((name, _, _), s)| Some((*name, s?.to_json())))
            .collect();
        obj(vec![
            ("sim_digest", JsonValue::str(self.sim_digest.clone())),
            ("attempted", JsonValue::u64(self.tally.attempted)),
            ("failed", JsonValue::u64(self.tally.failed)),
            ("end_to_end", obj(metrics)),
        ])
    }
}

/// The unit probes of one traced run: every sequential probe in one
/// child, and the ping-pong again under each threaded mode.
pub fn probes_run(host: Host, opt: Options) -> Result<Vec<(String, f64)>, String> {
    let budget = if opt.smoke {
        SMOKE_PROBE_S
    } else {
        opt.seconds * PROBE_SHARE
    };
    let probe = |mode: Mode, which: &str| -> Result<JsonValue, String> {
        let args = vec![
            "probes".to_string(),
            which.to_string(),
            "--seconds".into(),
            budget.to_string(),
        ];
        // A dozen probes share the one child.
        spawn_cell(host, mode, &args, opt.deadline(16.0 * budget))
            .map(|cell| cell.result)
            .map_err(|e| format!("probes [{which}]: {e}"))
    };
    let all = probe(Mode::Unset, "all")?;
    let mut rows: Vec<(String, f64)> = fields(&all)
        .iter()
        .filter_map(|(name, _)| Some((name.clone(), f64_at(&all, name)?)))
        .collect();
    let events_per_round = f64_at(&all, "pingpong.events_per_round").unwrap_or(1.0);
    for (mode, name) in [
        (PARALLEL, "simnet.engine.handoff_mt_ns"),
        (SPECULATIVE, "simnet.engine.handoff_spec_ns"),
    ] {
        let round_ns = f64_at(&probe(mode, "pingpong")?, "pingpong.round_ns").unwrap_or(0.0);
        rows.push((name.to_string(), round_ns / events_per_round));
    }
    Ok(rows)
}

/// The traced run of one workload.
pub struct Traced {
    pub workload: &'static str,
    pub tally: Tally,
    /// Every [`PER_LAYER`] metric, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    pub sim_digest: String,
    /// The traced cell's spans, as it reported them.
    pub spans: JsonValue,
}

pub fn traced_run(
    host: Host,
    workload: &'static str,
    opt: Options,
    probes: &[(String, f64)],
) -> Result<Traced, String> {
    let mut tally = Tally::default();
    let run = |mode: Mode, kind: &str| {
        spawn_cell(
            host,
            mode,
            &opt.cell_args(workload, kind, 0.0),
            opt.deadline(0.0),
        )
    };
    // Without the traced cell there is no ledger to print.
    let traced = run(Mode::Unset, "traced")
        .map_err(|e| format!("{workload} [traced]: {e}"))?
        .result;
    let reps = 1 + f64s_at(&traced, "untraced_reps").len() + f64s_at(&traced, "traced_reps").len();
    // Plus the two repetitions of pass B, in and out of a capture window.
    tally.cell(workload, &traced, reps as u64 + 2, true);
    for (name, held) in ledger::closure_checks(&traced, probes) {
        tally.check(name, held);
    }
    let digest = str_at(&traced, "sim_digest").unwrap_or("").to_string();
    let mut threaded = Vec::new();
    for mode in [PARALLEL, SPECULATIVE] {
        let what = format!("{workload} [{}]", host.env_value(mode).unwrap_or_default());
        match run(mode, "counts") {
            Ok(cell) => {
                tally.cell(&what, &cell.result, 2, false);
                tally.check(
                    &format!("{what}: sim_digest equals the sequential cell's"),
                    str_at(&cell.result, "sim_digest") == Some(&digest),
                );
                threaded.push(Some(cell.result));
            }
            Err(why) => {
                tally.crashed(&what, &why);
                threaded.push(None);
            }
        }
    }
    Ok(Traced {
        workload,
        metrics: ledger::per_layer(&traced, threaded[0].as_ref(), threaded[1].as_ref(), probes),
        tally,
        sim_digest: digest,
        spans: traced.get("spans").cloned().unwrap_or(JsonValue::Null),
    })
}

impl Traced {
    pub fn print(&self) {
        println!("== {} (traced run, per-layer ledger)", self.workload);
        let rows = PER_LAYER.len() - ledger::PROBE_ROWS;
        for ((name, unit, _), (_, value)) in PER_LAYER.iter().zip(&self.metrics).take(rows) {
            println!("{name:<34} [{unit}] {value}");
        }
        println!(
            "fail_share                         [ratio] {} ({} failed / {} attempted)",
            self.tally.fail_share(),
            self.tally.failed,
            self.tally.attempted
        );
        for note in &self.tally.notes {
            println!("{note}");
        }
    }

    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("sim_digest", JsonValue::str(self.sim_digest.clone())),
            ("attempted", JsonValue::u64(self.tally.attempted)),
            ("failed", JsonValue::u64(self.tally.failed)),
            (
                "per_layer",
                obj(self
                    .metrics
                    .iter()
                    .take(PER_LAYER.len() - ledger::PROBE_ROWS)
                    .map(|(name, v)| (*name, num(*v)))
                    .collect()),
            ),
        ])
    }
}

/// The line the driver reads: `correct`, `attempted`, `failed` and the
/// metrics with their units, as one JSON object.
pub fn contract_line(tally: &Tally, metrics: &[(&str, &str, f64)]) -> String {
    obj(vec![
        ("correct", JsonValue::Bool(tally.failed == 0)),
        ("attempted", JsonValue::u64(tally.attempted.max(1))),
        ("failed", JsonValue::u64(tally.failed)),
        (
            "metrics",
            obj(metrics
                .iter()
                .map(|(name, unit, value)| {
                    (
                        *name,
                        obj(vec![
                            ("value", num(*value)),
                            ("unit", JsonValue::str(*unit)),
                        ]),
                    )
                })
                .collect()),
        ),
    ])
    .serialize()
}
