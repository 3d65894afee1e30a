//! `compare <a.json> <b.json>`: two result files of this benchmark, `a`
//! the base. One row per (end-to-end metric, workload) with a verdict,
//! then the exact counts side by side — as counts, not speed-ups.

use hpcbd_obs::JsonValue;

use crate::json::{f64_at, fields, str_at};
use crate::ledger::{END_TO_END, EXACT};
use crate::stats::Summary;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs spread wider than the bound and overlap: the pair
    /// neither shows a regression nor rules one out.
    Unresolved,
}

/// The rule of `choosing-metrics` section 6 for a lower-is-better
/// metric: `b` may be worse than `a` by at most `bound` of `a`'s
/// median; where either side's quartiles spread wider than the bound,
/// the pair is unresolved unless every run of `b` beats every run of `a`.
pub fn verdict(a: &Summary, b: &Summary, bound: f64) -> Verdict {
    if a.spread().max(b.spread()) > bound {
        if b.max < a.min {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if b.median > a.median * (1.0 + bound) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn fail_share(w: &JsonValue) -> f64 {
    f64_at(w, "failed").unwrap_or(0.0) / f64_at(w, "attempted").unwrap_or(1.0).max(1.0)
}

/// Print the comparison; `Ok(true)` when nothing got worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |doc: &JsonValue| doc.get("workloads").cloned().unwrap_or(JsonValue::Null);
    let (wa, wb) = (workloads(&a), workloads(&b));
    let mut all_ok = true;
    println!("base a = {path_a}\n     b = {path_b}");
    println!(
        "{:<22} {:<13} {:>30} {:>30} {:>9} {:>6}  verdict",
        "workload", "metric", "a median [q1, q3]", "b median [q1, q3]", "b/a", "bound"
    );
    for (name, in_a) in fields(&wa) {
        let Some(in_b) = wb.get(name) else {
            println!("{name:<22} only in a");
            continue;
        };
        for (metric, _, bound) in END_TO_END {
            let side = |w: &JsonValue| {
                w.get("end_to_end")
                    .and_then(|m| m.get(metric))
                    .and_then(Summary::from_json)
            };
            let (Some(sa), Some(sb)) = (side(in_a), side(in_b)) else {
                continue;
            };
            let v = verdict(&sa, &sb, bound);
            all_ok &= v != Verdict::Worse;
            let cell = |s: &Summary| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
            println!(
                "{name:<22} {metric:<13} {:>30} {:>30} {:>9.4} {:>6}  {}",
                cell(&sa),
                cell(&sb),
                sb.median / sa.median,
                bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (fa, fb) = (fail_share(in_a), fail_share(in_b));
        if fb > fa {
            all_ok = false;
        }
        println!(
            "{name:<22} {:<13} {fa:>30} {fb:>30} {:>9} {:>6}  {}",
            "fail_share",
            "",
            "any",
            if fb > fa { "worse" } else { "ok" }
        );
    }
    println!("\nexact counts (identical unless a change declares otherwise)");
    for (name, in_a) in fields(&wa) {
        let Some(in_b) = wb.get(name) else { continue };
        let digests = (str_at(in_a, "sim_digest"), str_at(in_b, "sim_digest"));
        if let (Some(da), Some(db)) = digests {
            let same = if da == db { "same" } else { "DIFFERENT" };
            println!("{name:<22} {:<22} {da:>20} {db:>20}  {same}", "sim_digest");
        }
        for count in EXACT {
            let side = |w: &JsonValue| w.get("per_layer").and_then(|m| f64_at(m, count));
            if let (Some(ca), Some(cb)) = (side(in_a), side(in_b)) {
                let same = if ca == cb { "same" } else { "DIFFERENT" };
                println!("{name:<22} {count:<22} {ca:>20} {cb:>20}  {same}");
            }
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values).expect("non-empty")
    }

    #[test]
    fn tight_runs_are_judged_by_their_medians() {
        let a = s(&[1.00, 1.01, 1.02, 1.01, 1.00]);
        assert_eq!(
            verdict(&a, &s(&[1.05, 1.06, 1.05, 1.04, 1.06]), 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &s(&[1.15, 1.16, 1.15, 1.14, 1.16]), 0.10),
            Verdict::Worse
        );
        // Better is never worse.
        assert_eq!(verdict(&a, &s(&[0.5, 0.5, 0.5]), 0.10), Verdict::Ok);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let a = s(&[1.0, 1.4, 1.8, 2.2, 1.1]);
        let b = s(&[1.2, 1.5, 2.0, 0.9, 1.3]);
        assert_eq!(verdict(&a, &b, 0.10), Verdict::Unresolved);
        // Unless every run of b beats every run of a.
        assert_eq!(
            verdict(&a, &s(&[0.5, 0.9, 0.7, 0.6, 0.8]), 0.10),
            Verdict::Ok
        );
    }
}
