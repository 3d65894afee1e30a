//! `hpcbd-benchmark` — the repo's benchmark (`/BENCHMARK.json`): host
//! seconds and host memory to regenerate six paper artifacts under the
//! three engine modes, and a per-layer ledger of where the host time
//! goes from a separate traced run. See `benchmark/README.md`.
//!
//! ```text
//! hpcbd-benchmark --workload W --seed N --seconds S --trace 0|1   (the driver's form)
//! hpcbd-benchmark run   [--workload W] [--seed N] [--seconds S] [--smoke] [--out FILE]
//! hpcbd-benchmark trace [--workload W] [--seed N] [--seconds S] [--smoke] [--out FILE]
//! hpcbd-benchmark compare A.json B.json
//! hpcbd-benchmark cell ...                                        (children of the above)
//! ```

mod cell;
mod compare;
mod json;
mod ledger;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use hpcbd_obs::JsonValue;

use crate::json::{num, obj};
use crate::ledger::{END_TO_END, PER_LAYER};
use crate::run::{Host, Options};

/// `run_seconds` of `BENCHMARK.json`, the default of `--seconds`.
const DEFAULT_SECONDS: f64 = 12.0;
const OUT_DIR: &str = "benchmark/out";

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    opt: Options,
    trace: Option<bool>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        workload: None,
        opt: Options {
            seed: 0,
            seconds: DEFAULT_SECONDS,
            smoke: false,
        },
        trace: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.opt.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {v}: out of range"));
                }
                args.opt.seconds = s;
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                })
            }
            "--out" => args.out = Some(value("--out")?),
            "--smoke" => args.opt.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            _ => args.positional.push(a),
        }
    }
    Ok(args)
}

fn selected(workload: &Option<String>) -> Result<Vec<&'static str>, String> {
    match workload {
        None => Ok(workloads::NAMES.to_vec()),
        Some(w) => workloads::NAMES
            .iter()
            .find(|n| *n == w)
            .map(|n| vec![*n])
            .ok_or(format!(
                "unknown workload '{w}' (one of {})",
                workloads::NAMES.join(", ")
            )),
    }
}

fn write_out(path: &str, doc: &JsonValue) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.serialize() + "\n").map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn result_doc(kind: &str, host: Host, opt: Options, rest: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut fields = vec![
        ("schema", JsonValue::u64(1)),
        ("kind", JsonValue::str(kind)),
        ("host", host.to_json()),
        ("seed", JsonValue::u64(opt.seed)),
        ("seconds", num(opt.seconds)),
        ("smoke", JsonValue::Bool(opt.smoke)),
    ];
    fields.extend(rest);
    obj(fields)
}

/// The timed run: tracing off, every end-to-end metric.
fn timed(args: &Args, host: Host) -> Result<Vec<run::Timed>, String> {
    let runs: Vec<run::Timed> = selected(&args.workload)?
        .into_iter()
        .map(|name| {
            let t = run::timed_run(host, name, args.opt);
            t.print();
            t
        })
        .collect();
    let docs = runs.iter().map(|t| (t.workload, t.to_json())).collect();
    let out = args.out.clone().unwrap_or(format!("{OUT_DIR}/run.json"));
    write_out(
        &out,
        &result_doc("run", host, args.opt, vec![("workloads", obj(docs))]),
    )?;
    Ok(runs)
}

/// The traced run: probes once, then every per-layer metric of each
/// workload; the spans go to `benchmark/out/trace.json`.
fn traced(args: &Args, host: Host) -> Result<Vec<run::Traced>, String> {
    let names = selected(&args.workload)?;
    let probes = run::probes_run(host, args.opt)?;
    println!("== probes (unit costs, once per traced run)");
    let probe_rows = &PER_LAYER[PER_LAYER.len() - ledger::PROBE_ROWS..];
    let probe_value = |name: &str| ledger::probe(&probes, name);
    for (name, unit, _) in probe_rows {
        println!("{name:<34} [{unit}] {}", probe_value(name));
    }
    let mut runs = Vec::new();
    for name in names {
        let t = run::traced_run(host, name, args.opt, &probes)?;
        t.print();
        runs.push(t);
    }
    let spans = runs.iter().map(|t| (t.workload, t.spans.clone())).collect();
    write_out(&format!("{OUT_DIR}/trace.json"), &obj(spans))?;
    let probes_json = obj(probe_rows
        .iter()
        .map(|(name, _, _)| (*name, num(probe_value(name))))
        .collect());
    let docs = runs.iter().map(|t| (t.workload, t.to_json())).collect();
    let out = args.out.clone().unwrap_or(format!("{OUT_DIR}/ledger.json"));
    write_out(
        &out,
        &result_doc(
            "ledger",
            host,
            args.opt,
            vec![("probes", probes_json), ("workloads", obj(docs))],
        ),
    )?;
    Ok(runs)
}

/// The driver's form: one workload, and as the last line of stdout the
/// JSON object the contract asks for. A failed operation is reported in
/// that object, not in the exit code.
fn driver_form(args: &Args, host: Host, trace: bool) -> Result<bool, String> {
    let line = if trace {
        let t = traced(args, host)?.pop().expect("one workload selected");
        let metrics: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .zip(&t.metrics)
            .map(|((name, unit, _), (_, v))| (*name, *unit, *v))
            .collect();
        run::contract_line(&t.tally, &metrics)
    } else {
        let t = timed(args, host)?.pop().expect("one workload selected");
        let metrics: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .zip(t.summaries())
            .map(|((metric, unit, _), s)| {
                s.map(|s| (*metric, *unit, s.median))
                    .ok_or(format!("{}: no sample of {metric}", t.workload))
            })
            .collect::<Result<_, _>>()?;
        run::contract_line(&t.tally, &metrics)
    };
    println!("{line}");
    Ok(true)
}

fn cell_main(args: &Args) -> Result<(), String> {
    let pos: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    let opt = args.opt;
    match pos[..] {
        ["cell", "probes", which] => {
            cell::probes(opt.seconds, which == "all");
            Ok(())
        }
        ["cell", workload, "timed"] => cell::timed(workload, opt.seed, opt.seconds, opt.smoke),
        ["cell", workload, "traced"] => cell::traced(workload, opt.seed, opt.smoke),
        ["cell", workload, "counts"] => cell::counts(workload, opt.seed, opt.smoke),
        _ => Err("usage: cell <workload> timed|traced|counts | cell probes all|pingpong".into()),
    }
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let host = Host::detect();
    let sub = args.positional.first().map(String::as_str);
    if !matches!(sub, Some("cell" | "compare")) {
        println!(
            "hpcbd-benchmark: nproc={} T={} (threaded modes run on T+1 OS threads) seed={} seconds={}{}",
            host.nproc,
            host.threads,
            args.opt.seed,
            args.opt.seconds,
            if args.opt.smoke { " smoke" } else { "" }
        );
    }
    match (sub, args.trace) {
        (Some("cell"), _) => cell_main(&args).map(|()| true),
        (Some("compare"), _) => match &args.positional[1..] {
            [a, b] => compare::compare(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        },
        (Some("run"), _) => Ok(timed(&args, host)?.iter().all(|t| t.tally.failed == 0)),
        (Some("trace"), _) => Ok(traced(&args, host)?.iter().all(|t| t.tally.failed == 0)),
        (None, Some(trace)) if args.workload.is_some() => driver_form(&args, host, trace),
        _ => Err("usage: hpcbd-benchmark run|trace|compare|--workload W --seed N --seconds S --trace 0|1 (see benchmark/README.md)".into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hpcbd-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{f64_at, str_at};

    /// `/BENCHMARK.json` and the tables in this crate say the same.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let rows = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .expect("an array")
                .to_vec()
        };
        assert_eq!(f64_at(&doc, "run_seconds"), Some(DEFAULT_SECONDS));
        let names: Vec<String> = rows("workloads")
            .iter()
            .map(|w| str_at(w, "name").expect("a name").to_string())
            .collect();
        assert_eq!(names, workloads::NAMES);
        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, (name, unit, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(str_at(row, "name"), Some(name));
            assert_eq!(str_at(row, "unit"), Some(unit));
            assert_eq!(str_at(row, "better"), Some("lower"));
            assert_eq!(f64_at(row, "bound"), Some(bound));
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, (name, unit, higher)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(str_at(row, "name"), Some(name));
            assert_eq!(str_at(row, "unit"), Some(unit));
            let better = if higher { "higher" } else { "lower" };
            assert_eq!(str_at(row, "better"), Some(better), "{name}");
        }
    }
}
