#!/usr/bin/env python3
"""Wall-clock trajectory regression gate.

Compares two BENCH_simnet.json files (previous successful run vs this
run) row by row, keyed on (artifact, scale, mode). Macro rows — the
`paper`-scale ones, which run long enough for wall_min_s to be stable —
gate the build: a >15% regression in any of them fails. `quick` rows
are single-digit-millisecond and dominated by process noise, so they
are reported but never fail the gate. New rows (fresh artifact or mode)
and rows that disappeared are reported as informational.

Multi-tenant rows (`"multi_tenant": true`, emitted by the `datacenter`
artifact) carry the contended section's per-queue scheduler counters.
The gate echoes every queue's latency quantiles, queueing delay,
preemption activity and SLO attainment for the trajectory log, and
fails any multi-tenant row whose contended queues are missing the
`p99_latency_ns` or `slo_attainment_ppm` fields — a row without them
no longer measures what the busy-datacenter-day artifact claims.

Usage: bench_gate.py <previous.json> <current.json>
Exit:  0 clean, 1 regression, 2 usage/parse error.
"""

import json
import sys

THRESHOLD = 0.15  # fractional wall_min_s increase that fails a macro row
GATED_SCALES = {"paper"}


def rows(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for r in doc.get("results", []):
        out[(r["artifact"], r["scale"], r["mode"])] = {
            "wall_min_s": float(r["wall_min_s"]),
            "multi_tenant": bool(r.get("multi_tenant", False)),
            "contended": r.get("contended"),
        }
    return out


REQUIRED_QUEUE_FIELDS = ("p99_latency_ns", "slo_attainment_ppm")


def check_multi_tenant(label, row):
    """Echo a multi-tenant row's per-queue counters; return the list of
    missing required fields (empty when the row is well-formed)."""
    contended = row.get("contended")
    if not isinstance(contended, dict) or not contended.get("queues"):
        return [f"{label}: multi-tenant row has no contended queue counters"]
    print(
        f"  mt     {label}: contended offered={contended.get('offered')}"
        f" makespan={contended.get('makespan_ns')}ns"
    )
    missing = []
    for q in contended["queues"]:
        name = q.get("queue", "?")
        for field in REQUIRED_QUEUE_FIELDS:
            if field not in q:
                missing.append(f"{label}: queue {name} missing {field}")
        print(
            f"         queue {name}: jobs={q.get('completed')}"
            f" p50={q.get('p50_latency_ns')}ns p99={q.get('p99_latency_ns')}ns"
            f" wait_p99={q.get('wait_p99_ns')}ns"
            f" slo_ppm={q.get('slo_attainment_ppm')}"
            f" preempt={q.get('preemptions')} kills={q.get('kills_sent')}"
            f" local/rack/any={q.get('local')}/{q.get('rack')}/{q.get('any')}"
        )
    return missing


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        prev, curr = rows(argv[1]), rows(argv[2])
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_gate: cannot read trajectory files: {e}", file=sys.stderr)
        return 2

    regressions = []
    malformed = []
    for key in sorted(curr):
        artifact, scale, mode = key
        row = curr[key]
        new = row["wall_min_s"]
        label = f"{artifact}/{scale}/{mode}"
        # Multi-tenant rows are checked and echoed even when NEW — the
        # first run of a fresh artifact must already be well-formed.
        if row["multi_tenant"]:
            problems = check_multi_tenant(label, row)
            for p in problems:
                print(f"  FAIL   {p}")
            malformed.extend(problems)
        old_row = prev.get(key)
        if old_row is None:
            print(f"  NEW    {label}: {new:.6f}s (no previous row)")
            continue
        old = old_row["wall_min_s"]
        delta = (new - old) / old if old > 0 else 0.0
        gated = scale in GATED_SCALES
        if gated and delta > THRESHOLD:
            regressions.append((label, old, new, delta))
            print(f"  FAIL   {label}: {old:.6f}s -> {new:.6f}s ({delta:+.1%})")
        else:
            tag = "ok" if gated else "info"
            print(f"  {tag:<6} {label}: {old:.6f}s -> {new:.6f}s ({delta:+.1%})")
    for key in sorted(set(prev) - set(curr)):
        print(f"  GONE   {'/'.join(key)}: row no longer produced")

    failed = False
    if regressions:
        print(
            f"bench_gate: {len(regressions)} macro row(s) regressed "
            f">{THRESHOLD:.0%} in wall_min_s",
            file=sys.stderr,
        )
        failed = True
    if malformed:
        print(
            f"bench_gate: {len(malformed)} multi-tenant row problem(s) — "
            "contended rows must carry p99_latency_ns and slo_attainment_ppm",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print("bench_gate: no macro-row regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
