#!/usr/bin/env bash
# One entry point for CI: build the benchmark, check BENCHMARK.json is the
# one the tables generate, run every workload end to end and traced, and
# compare result sets with `agree`.
#
#   benchmark/run.sh                 A/A: two end-to-end runs of this
#                                    checkout must agree with each other
#   benchmark/run.sh BASELINE.json   this checkout must agree with a result
#                                    set kept from the parent commit
#                                    (`run --out BASELINE.json` there)
#
# Results and Chrome traces land in benchmark/target/.
set -euo pipefail
cd "$(dirname "$0")/.."

bench() { cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }
out=benchmark/target

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bench manifest | diff -u BENCHMARK.json - \
  || { echo "BENCHMARK.json is stale: run 'ebs-benchmark manifest --write'" >&2; exit 1; }

bench run --out "$out/results.json"
bench run --traced --out "$out/results-traced.json"

if [ $# -ge 1 ]; then
  bench agree "$1" "$out/results.json"
else
  bench run --out "$out/results-again.json"
  bench agree "$out/results.json" "$out/results-again.json"
fi
