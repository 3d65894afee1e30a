//! `hpcbd-bench` — the harness that regenerates every table and figure.
//!
//! One binary per paper artifact (see DESIGN.md §4 for the index):
//!
//! | Binary | Artifact |
//! |---|---|
//! | `table1` | Table I — platform description |
//! | `fig3` | Fig. 3 — reduce microbenchmark |
//! | `table2` | Table II — parallel file read |
//! | `fig4` | Fig. 4 — AnswersCount |
//! | `fig6` | Fig. 6 — BigDataBench PageRank |
//! | `fig7` | Fig. 7 — HiBench PageRank |
//! | `table3` | Table III — LoC / boilerplate |
//! | `ablation_persist` | A1 — the `persist` effect |
//! | `ablation_replication` | A2 — HDFS replication vs locality |
//! | `ablation_rdma_all` | A3 — RDMA for the control plane too |
//! | `ablation_fault` | A4 — lineage vs checkpoint/restart |
//! | `ablation_fault_sweep` | A4b — fault-rate sweep across runtimes |
//! | `ablation_shmem_pagerank` | A5 — PageRank over PGAS |
//! | `ablation_offload` | A6 — RDMA offload factor |
//! | `ablation_queries` | A7 — query-shape sweep |
//! | `ablation_seismic` | A8 — seismic survey workload |
//! | `bench` | host wall-clock trajectory (`BENCH_simnet.json`) |
//!
//! All binaries accept `--quick` to run a scaled-down configuration
//! (fewer nodes, smaller sweep) for fast smoke runs; the default is the
//! paper-scale setup. For the constant-cost tables (`table1`, `table3`)
//! `--quick` is accepted and ignored — there is nothing to scale down —
//! so one invocation convention covers the whole harness (CI runs every
//! bin with `--quick` in its smoke matrix). Every binary also accepts
//! `--report PATH` (phase-attributed JSON run report, DESIGN.md §10),
//! `--perfetto PATH` (Chrome-tracing export with causal flow arrows)
//! and `--telemetry` / `--telemetry-out PATH` (live virtual-time
//! telemetry, DESIGN.md §14) via the shared [`BenchArgs`] parser. Criterion benches
//! (`cargo bench`) time the *simulator's wall-clock cost* on small
//! configurations of the same experiments; `bench_hotpath` times the
//! engine's scheduling/tracing machinery itself.

#![warn(missing_docs)]

pub mod datacenter;

use std::path::PathBuf;

/// True when `--quick` is among the CLI arguments.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The CLI flags every harness binary shares.
///
/// * `--quick` — run the scaled-down configuration.
/// * `--report PATH` — capture every simulator run the binary performs
///   and write a phase-attributed [`hpcbd_obs::RunReport`] to PATH
///   (also printed as a text table after the artifact's own output).
/// * `--perfetto PATH` — additionally write the first captured run as
///   Chrome-tracing JSON with causal flow arrows, loadable in Perfetto.
/// * `--telemetry` — sample live telemetry (time-series, windowed
///   quantiles, SLO attainment) into the report's `telemetry` section;
///   the interval comes from `HPCBD_TELEMETRY` (nanoseconds), default
///   [`hpcbd_simnet::DEFAULT_TELEMETRY_INTERVAL_NS`].
/// * `--telemetry-out PATH` — implies `--telemetry` and writes the
///   telemetry-bearing report JSON to PATH (independent of `--report`).
///
/// Unknown arguments are an error: the parser prints a usage line
/// naming the offending flag and exits with status 2, so a typo like
/// `--telemtry-out` fails loudly instead of silently running without
/// telemetry. Binaries with their own flags (e.g. `bench --out PATH`)
/// declare them via [`BenchArgs::parse_allowing`] and read the values
/// from `std::env::args` themselves.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--quick` was passed.
    pub quick: bool,
    /// Destination of the JSON run report, if `--report` was passed.
    pub report: Option<PathBuf>,
    /// Destination of the Perfetto trace, if `--perfetto` was passed.
    pub perfetto: Option<PathBuf>,
    /// `--telemetry` (or `--telemetry-out`) was passed.
    pub telemetry: bool,
    /// Destination of the telemetry report, if `--telemetry-out` was
    /// passed.
    pub telemetry_out: Option<PathBuf>,
}

/// A binary-specific extra flag: its name and whether it consumes the
/// following argument as a value.
pub type ExtraFlag = (&'static str, bool);

impl BenchArgs {
    /// Parse the shared flags from the process arguments. Any flag the
    /// parser does not know is a fatal error (usage to stderr, exit 2).
    pub fn parse() -> BenchArgs {
        Self::parse_allowing(&[])
    }

    /// Parse the shared flags, additionally accepting (and skipping
    /// over) the binary's own `extra` flags — the binary reads their
    /// values from `std::env::args` itself.
    pub fn parse_allowing(extra: &[ExtraFlag]) -> BenchArgs {
        match Self::parse_from(std::env::args().skip(1), extra) {
            Ok(parsed) => parsed,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit argument list. `extra` declares flags the
    /// caller handles itself; anything else unknown is an `Err` naming
    /// the offending argument.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        extra: &[ExtraFlag],
    ) -> Result<BenchArgs, String> {
        let mut parsed = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => parsed.quick = true,
                "--report" => parsed.report = it.next().map(PathBuf::from),
                "--perfetto" => parsed.perfetto = it.next().map(PathBuf::from),
                "--telemetry" => parsed.telemetry = true,
                "--telemetry-out" => {
                    parsed.telemetry_out = it.next().map(PathBuf::from);
                    parsed.telemetry = parsed.telemetry || parsed.telemetry_out.is_some();
                }
                other => match extra.iter().find(|(name, _)| *name == other) {
                    Some((_, true)) => {
                        it.next();
                    }
                    Some((_, false)) => {}
                    None => return Err(Self::usage(other, extra)),
                },
            }
        }
        Ok(parsed)
    }

    fn usage(bad: &str, extra: &[ExtraFlag]) -> String {
        let mut flags = String::from(
            "[--quick] [--report PATH] [--perfetto PATH] [--telemetry] [--telemetry-out PATH]",
        );
        for (name, takes_value) in extra {
            flags.push_str(&format!(
                " [{name}{}]",
                if *takes_value { " VALUE" } else { "" }
            ));
        }
        format!("error: unknown argument '{bad}'\nusage: {flags}")
    }
}

/// Run an artifact's body, optionally capturing every simulator run it
/// performs into a [`hpcbd_obs::RunReport`].
///
/// With neither `--report` nor `--perfetto` this is a plain call to `f`
/// — no capture, no tracing, zero overhead. Otherwise the body is
/// bracketed with [`hpcbd_simnet::begin_capture`] /
/// [`hpcbd_simnet::end_capture`] (which forces tracing on inside the
/// engine), the report is built, written, and its text rendering is
/// printed after the artifact's own output.
pub fn run_with_report<R>(artifact: &str, args: &BenchArgs, f: impl FnOnce() -> R) -> R {
    if args.report.is_none() && args.perfetto.is_none() && !args.telemetry {
        return f();
    }
    // `--telemetry` turns the sampler on for the capture window:
    // HPCBD_TELEMETRY picks the interval, else the default tick. The
    // prior interval is restored afterwards so library callers (tests)
    // don't leak sampling into later runs.
    let prev_interval = hpcbd_simnet::telemetry_interval();
    if args.telemetry {
        let interval = prev_interval.unwrap_or(hpcbd_simnet::DEFAULT_TELEMETRY_INTERVAL_NS);
        hpcbd_simnet::set_telemetry_interval(Some(interval));
    }
    // The self-profiler (HPCBD_SELFPROF) only matters when a report is
    // being captured — its counters surface as the report's
    // `host_profile` rows — so resolve the env here, not on every run.
    hpcbd_simnet::selfprof_from_env();
    hpcbd_simnet::begin_capture();
    let result = f();
    let captures = hpcbd_simnet::end_capture();
    hpcbd_simnet::set_telemetry_interval(prev_interval);
    let report = hpcbd_obs::RunReport::from_captures(artifact, args.quick, &captures);
    println!();
    print!("{}", report.render_text());
    if let Some(path) = &args.report {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => println!("report written to {}", path.display()),
            Err(e) => eprintln!("failed to write report {}: {e}", path.display()),
        }
    }
    if let Some(path) = &args.telemetry_out {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => println!("telemetry report written to {}", path.display()),
            Err(e) => eprintln!("failed to write telemetry {}: {e}", path.display()),
        }
    }
    if let Some(path) = &args.perfetto {
        match captures.first() {
            Some(cap) => {
                let graph = hpcbd_obs::match_events(&cap.events);
                let telemetry = report.sections.first().and_then(|s| s.telemetry.as_ref());
                let json = hpcbd_obs::to_perfetto_json_with_telemetry(cap, &graph, telemetry);
                match std::fs::write(path, json) {
                    Ok(()) => println!("perfetto trace written to {}", path.display()),
                    Err(e) => eprintln!("failed to write trace {}: {e}", path.display()),
                }
            }
            None => eprintln!("no simulator run captured; perfetto trace not written"),
        }
    }
    result
}

/// Standard banner for harness output.
pub fn banner(artifact: &str) {
    println!("==============================================================");
    println!("hpcbd reproduction — {artifact}");
    println!("(virtual times from the simulated Comet platform; see");
    println!(" EXPERIMENTS.md for the paper-vs-measured discussion)");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()), &[]).expect("valid args")
    }

    #[test]
    fn parses_shared_flags() {
        let a = parse(&["--quick", "--report", "out.json"]);
        assert!(a.quick);
        assert_eq!(a.report.as_deref(), Some(std::path::Path::new("out.json")));
        assert!(a.perfetto.is_none());
    }

    #[test]
    fn unknown_flag_is_an_error_naming_the_flag() {
        let err = BenchArgs::parse_from(["--telemtry-out".to_string(), "t.json".to_string()], &[])
            .expect_err("typo must not be ignored");
        assert!(err.contains("--telemtry-out"), "message: {err}");
        assert!(err.contains("usage:"), "message: {err}");
    }

    #[test]
    fn declared_extra_flags_are_skipped_with_their_values() {
        let a = BenchArgs::parse_from(
            [
                "--out",
                "BENCH_simnet.json",
                "--digests",
                "--perfetto",
                "t.json",
            ]
            .iter()
            .map(|s| s.to_string()),
            &[("--out", true), ("--digests", false)],
        )
        .expect("declared extras are accepted");
        assert!(!a.quick);
        assert!(a.report.is_none());
        assert_eq!(a.perfetto.as_deref(), Some(std::path::Path::new("t.json")));
        // An undeclared extra still errors, and the usage line lists the
        // declared ones.
        let err = BenchArgs::parse_from(["--nope".to_string()], &[("--out", true)])
            .expect_err("undeclared flag");
        assert!(
            err.contains("--nope") && err.contains("[--out VALUE]"),
            "{err}"
        );
    }

    #[test]
    fn missing_value_yields_none() {
        let a = parse(&["--report"]);
        assert!(a.report.is_none());
    }

    #[test]
    fn telemetry_flag_parses_alone() {
        let a = parse(&["--telemetry"]);
        assert!(a.telemetry);
        assert!(a.telemetry_out.is_none());
    }

    #[test]
    fn telemetry_out_implies_telemetry() {
        let a = parse(&["--telemetry-out", "t.json"]);
        assert!(a.telemetry);
        assert_eq!(
            a.telemetry_out.as_deref(),
            Some(std::path::Path::new("t.json"))
        );
        // A dangling --telemetry-out neither crashes nor enables
        // sampling by accident.
        let b = parse(&["--telemetry-out"]);
        assert!(!b.telemetry);
        assert!(b.telemetry_out.is_none());
    }
}
