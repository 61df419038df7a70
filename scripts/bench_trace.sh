#!/usr/bin/env bash
# bench_trace.sh — the capture-once/replay-many performance gate.  Runs
# the FXU x BTAC factorial benchmark with tracing off (six coupled
# functional+timing runs) and with tracing on (one capture, six
# replays), emits BENCH_sweep_trace.json, and fails unless replay is
# strictly faster.  The replay-equivalence tests guarantee the numbers
# are identical either way; this gate guarantees the default policy is
# also the cheaper one.
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-BENCH_sweep_trace.json}"
bench_out="$(mktemp)"
trap 'rm -rf "$bench_out"' EXIT

echo "== benchmarking sweep: -trace=off vs default (capture-once/replay-many)"
go test -run '^$' -bench 'BenchmarkSweepTrace(Off|Auto)$' -benchtime=5x -count=3 . \
  | tee "$bench_out"

python3 - "$bench_out" "$out" <<'PY'
import json, re, sys

lines = open(sys.argv[1]).read().splitlines()
samples = {"off": [], "replay": []}
for line in lines:
    m = re.match(r"BenchmarkSweepTrace(Off|Auto)\S*\s+\d+\s+([\d.]+) ns/op", line)
    if m:
        samples["off" if m.group(1) == "Off" else "replay"].append(float(m.group(2)))

if not samples["off"] or not samples["replay"]:
    sys.exit("FAIL: benchmark output missing SweepTraceOff/SweepTraceAuto samples")

# Best-of-N per side: robust against one noisy CI sample on either side.
off = min(samples["off"])
replay = min(samples["replay"])
speedup = off / replay

report = {
    "benchmark": "sweep_trace",
    "cell": "Fasta/original seed 1 scale 1",
    "factorial": "FXUs {2,3,4} x BTAC {off,8}",
    "capture_per_cell_ns": off,
    "replay_ns": replay,
    "speedup": round(speedup, 3),
    "samples": samples,
}
with open(sys.argv[2], "w") as f:
    json.dump(report, f, indent=2, sort_keys=True)
    f.write("\n")

print(f"   capture-per-cell: {off/1e6:.1f} ms/factorial")
print(f"   capture-once/replay-many: {replay/1e6:.1f} ms/factorial")
print(f"   speedup: {speedup:.2f}x")
if speedup <= 1.0:
    sys.exit(f"FAIL: trace replay is not faster than capture-per-cell ({speedup:.2f}x)")
print("PASS: trace replay beats capture-per-cell")
PY
