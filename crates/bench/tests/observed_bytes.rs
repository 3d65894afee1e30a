//! Pinned digests of what `--report` and `--perfetto` write.
//!
//! Replay checks (CI's `cmp` steps, the conformance gate's report
//! replay) only compare two runs of the same code, so a deterministic
//! change to either export would pass them. These tests pin the SHA-256
//! of the report JSON and of capture 0's Perfetto export for two
//! artifacts: the quick busy datacenter day, built the way the
//! benchmark's `datacenter_day_report` workload builds it, and `fig6
//! --quick`. A change that moves these bytes on purpose updates the
//! digests here and says why.

use std::sync::Mutex;

use hpcbd_bench::datacenter::{scenario, Load};
use hpcbd_check::sha256_hex;
use hpcbd_core::bench_pagerank::{figure6, PagerankInput};
use hpcbd_simnet::observe::RunCapture;

/// Capture state is process-global: one capture window at a time.
static CAPTURE: Mutex<()> = Mutex::new(());

/// Run `body` inside a capture window with telemetry off, and return
/// the SHA-256 of the report JSON and of capture 0's Perfetto export.
fn digests(bench: &str, quick: bool, body: impl FnOnce()) -> (String, String) {
    let _g = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    hpcbd_simnet::set_telemetry_interval(None);
    hpcbd_simnet::begin_capture();
    body();
    let captures: Vec<RunCapture> = hpcbd_simnet::end_capture();
    let report = hpcbd_obs::RunReport::from_captures(bench, quick, &captures);
    let cap = captures.first().expect("the artifact runs a simulation");
    let perfetto = hpcbd_obs::to_perfetto_json(cap, &hpcbd_obs::match_events(&cap.events));
    (
        sha256_hex(report.to_json().as_bytes()),
        sha256_hex(perfetto.as_bytes()),
    )
}

#[test]
fn busy_day_report_and_perfetto_bytes_are_pinned() {
    let (report, perfetto) = digests("datacenter_day_report", false, || {
        for (load, preemption) in [(Load::Idle, true), (Load::Rush, true), (Load::Rush, false)] {
            hpcbd_sched::run(&scenario(load, preemption, true));
        }
    });
    assert_eq!(
        (report.as_str(), perfetto.as_str()),
        (
            "4c1ee613909bb36b73ffe0f4d13b636be5b9a546045b5cdecf621503ab5b850f",
            "a13a683ceee45ec72c780359bc8530cef4d44cbc0c9512f15896fc90dc2cb6a6"
        )
    );
}

#[test]
fn fig6_quick_report_and_perfetto_bytes_are_pinned() {
    let (report, perfetto) = digests("fig6", true, || {
        figure6(&PagerankInput::small(), &[1, 2], 4);
    });
    assert_eq!(
        (report.as_str(), perfetto.as_str()),
        (
            "32c2acfe8b25b9834fe4feeaddbbd1cf1ee188128929958c54744b582a569828",
            "4629060e14986beb931f590973d634894e917989d40779787d7325461b1a203a"
        )
    );
}
