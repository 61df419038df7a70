#!/usr/bin/env bash
# The benchmark's A/A check and the one entry point for CI: run every
# workload RUNS times (seeds 1..RUNS), do it again, and compare the two
# sets.  Fails when a correctness check fails, when any end-to-end
# metric of the second set is worse than the first by more than its
# bound, or when an exact count differs.  Extra arguments go to `run`
# (for example -trace 1 to add the traced runs).
#
#   RUNS=10 bench/run.sh            # what the acceptance check asks for
#   bench/run.sh -seconds 6         # a quicker look
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${RUNS:-3}"
mkdir -p bench/out
go build -o bench/out/bench ./bench
bench/out/bench run -runs "$runs" -out bench/out/A.json "$@"
bench/out/bench run -runs "$runs" -out bench/out/B.json "$@"
bench/out/bench compare bench/out/A.json bench/out/B.json
