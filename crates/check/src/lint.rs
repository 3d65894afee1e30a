//! The determinism lint: double-run a workload under skewed host
//! conditions and demand bit-identical captures.
//!
//! The explorer (`explore.rs`) attacks the *scheduler*; the lint attacks
//! the *host environment* the workload runs in. Each condition varies
//! one thing the engine's contract says must not matter:
//!
//! * **sequential replay** — the same sequential run twice; catches
//!   per-run nondeterminism with no concurrency at all (fresh hash
//!   seeds, iteration over address-keyed maps, wall-clock reads).
//! * **thread-count sweep** — parallel mode at 1, 2 and 8 threads;
//!   catches results that depend on how many compute segments overlap.
//! * **shuffled shard polling** — perturbation seeds that jitter and
//!   reorder every queue interaction (holds, token keeps, fast-path
//!   defeats), so processes poll shared state in shuffled wall-clock
//!   orders; catches "first poller wins" races.
//! * **allocator-address poisoning** — a seeded set of junk heap
//!   allocations is held alive across the run, shifting every address
//!   the workload's own allocations land on; catches any ordering
//!   derived from pointer values.
//! * **telemetry digest identity** — the same sequential run with
//!   telemetry sampling on must produce the *same conformance digest*
//!   as the telemetry-off oracle: telemetry is excluded from digests
//!   and must never perturb the simulation.
//! * **telemetry cross-mode identity** — the serialized telemetry
//!   section itself must be byte-identical across sequential and
//!   parallel execution; catches any wall-clock or schedule state
//!   leaking into a metric series.
//!
//! All conditions compare against the same sequential oracle, so a lint
//! pass certifies one workload across the whole condition matrix.

use hpcbd_simnet::{
    det_hash, set_default_execution, set_perturbation, set_telemetry_interval, Execution,
    Perturbation, RunCapture,
};

use crate::compare::{capture_digest, compare_runs, Classification, Divergence};
use crate::explore::{harness_lock, run_captured, RestoreGlobals};

/// Thread counts the sweep condition runs at.
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];
/// Base seeds for the shuffled-polling condition.
const POLL_SEEDS: [u64; 2] = [0xD00D, 0xFEED];
/// Rounds of allocator poisoning.
const POISON_ROUNDS: u64 = 2;
/// Sampling interval the telemetry conditions run with (1 µs of
/// virtual time — fine enough that lint workloads span many windows).
const TELEMETRY_LINT_INTERVAL_NS: u64 = 1_000;

/// Result of linting one workload.
#[derive(Debug)]
pub struct LintReport {
    /// Conditions that ran (in order), whether or not one diverged.
    pub conditions: Vec<String>,
    /// First divergence found, if any; `condition` names the culprit.
    pub divergence: Option<Divergence>,
}

impl LintReport {
    /// Panic with the first-divergence report unless every condition
    /// reproduced the oracle bit-identically.
    pub fn assert_clean(&self) {
        if let Some(d) = &self.divergence {
            panic!(
                "determinism lint failed after conditions {:?}:\n{}",
                self.conditions,
                d.render()
            );
        }
    }
}

/// Junk heap allocations with seeded sizes, held alive for the duration
/// of a poisoned run so the workload's own allocations land on shifted
/// addresses.
fn poison_allocations(round: u64) -> Vec<Vec<u8>> {
    (0..64u64)
        .map(|i| {
            let sz = 1 + (det_hash(&(0xA110Cu64, round, i)) % 4096) as usize;
            vec![0xA5u8; sz]
        })
        .collect()
}

/// Run the full lint matrix over a workload. The workload must be
/// re-runnable; each condition reruns it from scratch.
pub fn lint_workload<F: Fn()>(workload: F) -> LintReport {
    let _guard = harness_lock();
    let _restore = RestoreGlobals::capture();
    let mut conditions = Vec::new();

    set_perturbation(None);
    set_default_execution(Execution::Sequential);
    let oracle = run_captured(&workload);
    assert!(
        !oracle.is_empty(),
        "workload ran no simulations inside the capture window"
    );

    let check = |condition: String, conditions: &mut Vec<String>| -> Option<Divergence> {
        conditions.push(condition.clone());
        let run = run_captured(&workload);
        compare_runs(&oracle, &run).map(|mut d| {
            d.condition = condition;
            d
        })
    };

    // Sequential replay: divergence here is host nondeterminism by
    // construction (no scheduler involved).
    if let Some(mut d) = check("sequential replay".into(), &mut conditions) {
        d.classification = Some(Classification::HostNondeterminism);
        return LintReport {
            conditions,
            divergence: Some(d),
        };
    }

    for t in THREAD_SWEEP {
        set_default_execution(Execution::Parallel { threads: t });
        if let Some(d) = check(format!("thread sweep t={t}"), &mut conditions) {
            return LintReport {
                conditions,
                divergence: Some(d),
            };
        }
    }

    set_default_execution(Execution::Parallel { threads: 4 });
    for seed in POLL_SEEDS {
        set_perturbation(Some(Perturbation::from_seed(seed)));
        let cond = format!("shuffled polling seed={seed:#x}");
        if let Some(d) = check(cond, &mut conditions) {
            return LintReport {
                conditions,
                divergence: Some(d),
            };
        }
    }
    set_perturbation(None);

    for round in 0..POISON_ROUNDS {
        let _junk = poison_allocations(round);
        set_default_execution(Execution::Parallel { threads: 4 });
        let cond = format!("allocator poisoning round={round}");
        if let Some(d) = check(cond, &mut conditions) {
            return LintReport {
                conditions,
                divergence: Some(d),
            };
        }
    }

    // Telemetry digest identity: sampling on must not perturb the
    // simulation, and the telemetry itself must be digest-excluded, so
    // the conformance digest matches the telemetry-off oracle exactly.
    set_default_execution(Execution::Sequential);
    set_telemetry_interval(Some(TELEMETRY_LINT_INTERVAL_NS));
    conditions.push("telemetry digest identity".into());
    let telemetry_seq = run_captured(&workload);
    let mut divergence = compare_runs(&oracle, &telemetry_seq).map(|mut d| {
        d.condition = "telemetry digest identity".into();
        d
    });
    if divergence.is_none() {
        let (a, b) = (capture_digest(&oracle), capture_digest(&telemetry_seq));
        if a != b {
            divergence = Some(telemetry_divergence(
                "telemetry digest identity",
                "capture_digest",
                &a,
                &b,
            ));
        }
    }
    if let Some(d) = divergence {
        set_telemetry_interval(None);
        return LintReport {
            conditions,
            divergence: Some(d),
        };
    }

    // Telemetry cross-mode identity: the serialized telemetry section
    // must be byte-identical whichever execution mode produced it.
    let oracle_telemetry = serialize_telemetry(&telemetry_seq);
    set_default_execution(Execution::Parallel { threads: 2 });
    let cond = "telemetry cross-mode identity";
    conditions.push(cond.into());
    let got = serialize_telemetry(&run_captured(&workload));
    set_telemetry_interval(None);
    if oracle_telemetry != got {
        let d = first_telemetry_divergence(cond, &oracle_telemetry, &got);
        return LintReport {
            conditions,
            divergence: Some(d),
        };
    }

    LintReport {
        conditions,
        divergence: None,
    }
}

/// Serialize each capture's sampled telemetry to its canonical JSON
/// text (empty string for a capture that somehow sampled nothing).
fn serialize_telemetry(caps: &[RunCapture]) -> Vec<String> {
    caps.iter()
        .map(|c| {
            hpcbd_obs::collect_telemetry(c)
                .map(|t| t.to_json_value().serialize())
                .unwrap_or_default()
        })
        .collect()
}

fn telemetry_divergence(condition: &str, field: &str, expected: &str, got: &str) -> Divergence {
    Divergence {
        condition: condition.to_string(),
        capture_index: 0,
        event_index: None,
        order_key: None,
        pids: Vec::new(),
        field: field.to_string(),
        expected: expected.to_string(),
        got: got.to_string(),
        classification: None,
    }
}

/// Locate the first capture whose serialized telemetry differs and
/// report a window around the first differing byte.
fn first_telemetry_divergence(condition: &str, expected: &[String], got: &[String]) -> Divergence {
    for (i, (a, b)) in expected.iter().zip(got.iter()).enumerate() {
        if a != b {
            let at = a
                .bytes()
                .zip(b.bytes())
                .position(|(x, y)| x != y)
                .unwrap_or_else(|| a.len().min(b.len()));
            let ctx = |s: &str| {
                let bytes = s.as_bytes();
                let lo = at.saturating_sub(40);
                let hi = (at + 40).min(bytes.len());
                format!("...{}...", String::from_utf8_lossy(&bytes[lo..hi]))
            };
            let mut d = telemetry_divergence(condition, "telemetry", &ctx(a), &ctx(b));
            d.capture_index = i;
            return d;
        }
    }
    telemetry_divergence(
        condition,
        "telemetry capture count",
        &expected.len().to_string(),
        &got.len().to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcbd_simnet::{MatchSpec, NodeId, Payload, Pid, Sim, Topology, Transport, Work};

    fn ring_workload() {
        let tr = Transport::ipoib_socket();
        let n = 4u32;
        let mut sim = Sim::new(Topology::comet(2));
        for p in 0..n {
            sim.spawn(NodeId(p % 2), format!("r{p}"), move |ctx| {
                ctx.compute(Work::flops(2.0e6), 1.0);
                ctx.send(Pid((p + 1) % n), 1, 512, Payload::Empty, &tr);
                ctx.recv(MatchSpec::tag(1));
            });
        }
        sim.run();
    }

    #[test]
    fn clean_workload_passes_the_full_matrix() {
        let report = lint_workload(ring_workload);
        report.assert_clean();
        // replay + 3 thread counts + 2 poll seeds + 2 poison rounds
        // + telemetry digest identity + telemetry cross-mode identity.
        assert_eq!(report.conditions.len(), 10);
    }

    #[test]
    fn poison_allocations_are_seeded_and_nonempty() {
        let a = poison_allocations(0);
        let b = poison_allocations(0);
        assert_eq!(
            a.iter().map(Vec::len).collect::<Vec<_>>(),
            b.iter().map(Vec::len).collect::<Vec<_>>()
        );
        let c = poison_allocations(1);
        assert_ne!(
            a.iter().map(Vec::len).collect::<Vec<_>>(),
            c.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }
}
