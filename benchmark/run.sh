#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark binary from source
# (release, offline) and runs it from the repository root.
#
#   benchmark/run.sh [--seed S] [--seconds N] [--smoke]
#       every workload: the timed run (tracing off), then the traced run
#       (per-layer ledger). Results land in benchmark/out/.
#   benchmark/run.sh --twice [--seed S] [--seconds N]
#       the timed run twice, then `compare` of the two result files.
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one workload, in the form the driver of BENCHMARK.json calls; the
#       last line of stdout is the result object.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/hpcbd-benchmark"

twice=0
args=()
for a in "$@"; do
  if [ "$a" = "--twice" ]; then twice=1; else args+=("$a"); fi
done

case " ${args[*]-} " in
  *" --trace "*)
    exec "$bin" "${args[@]}" ;;
esac
if [ "$twice" = 1 ]; then
  "$bin" run "${args[@]}" --out benchmark/out/run-1.json
  "$bin" run "${args[@]}" --out benchmark/out/run-2.json
  exec "$bin" compare benchmark/out/run-1.json benchmark/out/run-2.json
fi
"$bin" run "${args[@]}"
"$bin" trace "${args[@]}"
