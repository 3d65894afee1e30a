//! The determinism lint: double-run a workload under skewed host
//! conditions and demand bit-identical captures.
//!
//! The explorer (`explore.rs`) attacks the *scheduler*; the lint attacks
//! the *host environment* the workload runs in. Each condition varies
//! one thing the engine's contract says must not matter:
//!
//! * **replay** — the same run twice; catches per-run nondeterminism
//!   (fresh hash seeds, iteration over address-keyed maps, wall-clock
//!   reads).
//! * **allocator-address poisoning** — a seeded set of junk heap
//!   allocations is held alive across the run, shifting every address
//!   the workload's own allocations land on; catches any ordering
//!   derived from pointer values.
//! * **telemetry digest identity** — the same run with telemetry
//!   sampling on must produce the *same conformance digest* as the
//!   telemetry-off oracle: telemetry is excluded from digests and must
//!   never perturb the simulation.
//!
//! All conditions compare against the same oracle, so a lint pass
//! certifies one workload across the whole condition matrix.

use hpcbd_simnet::{det_hash, set_perturbation, set_telemetry_interval};

use crate::compare::{capture_digest, compare_runs, Classification, Divergence};
use crate::explore::{harness_lock, run_captured, RestoreGlobals};

/// Rounds of allocator poisoning.
const POISON_ROUNDS: u64 = 2;
/// Sampling interval the telemetry condition runs with (1 µs of
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

    // Replay: divergence here is host nondeterminism by construction
    // (nothing differs between the two runs but the host).
    if let Some(mut d) = check("sequential replay".into(), &mut conditions) {
        d.classification = Some(Classification::HostNondeterminism);
        return LintReport {
            conditions,
            divergence: Some(d),
        };
    }

    for round in 0..POISON_ROUNDS {
        let _junk = poison_allocations(round);
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
    let cond = "telemetry digest identity";
    set_telemetry_interval(Some(TELEMETRY_LINT_INTERVAL_NS));
    conditions.push(cond.into());
    let telemetry_run = run_captured(&workload);
    set_telemetry_interval(None);
    let divergence = compare_runs(&oracle, &telemetry_run)
        .map(|mut d| {
            d.condition = cond.into();
            d
        })
        .or_else(|| {
            let (a, b) = (capture_digest(&oracle), capture_digest(&telemetry_run));
            (a != b).then(|| Divergence {
                condition: cond.into(),
                capture_index: 0,
                event_index: None,
                order_key: None,
                pids: Vec::new(),
                field: "capture_digest".into(),
                expected: a,
                got: b,
                classification: None,
            })
        });
    LintReport {
        conditions,
        divergence,
    }
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
        // replay + 2 poison rounds + telemetry digest identity.
        assert_eq!(report.conditions.len(), 4);
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
