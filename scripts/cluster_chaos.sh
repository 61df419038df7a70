#!/usr/bin/env bash
# cluster_chaos.sh — run a real distributed sweep with the coordinator's
# transport under full network chaos (refused dials, added latency,
# injected 503s, mid-stream cuts, corrupted JSONL lines, duplicated
# batch items, and a blackout window on one worker), then damage a
# finished local sweep's state directory and put `bioperf5 fsck`
# through its paces.  The gates:
#
#   1. the chaotic distributed manifest is byte-identical to a clean
#      single-node run — the fabric absorbs every injected wire fault;
#   2. fsck finds every planted corruption, quarantines without
#      deleting, repairs the torn journal tail, and exits nonzero;
#   3. a second fsck pass is clean (exit 0), and re-running the sweep
#      with -resume recomputes exactly the quarantined cell.
set -euo pipefail

cd "$(dirname "$0")/.."

work="$(mktemp -d)"
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/bioperf5" ./cmd/bioperf5

w1_port=18095
w2_port=18096

sweep_args=(sweep -apps Clustalw,Fasta -fxus 2,3 -btac off,8
            -variants original -seeds 1 -scale 2)

# canon strips the operational fields (timing, scheduler and cluster
# counters, the stage profile); determinism is asserted on the rest.
canon() {
  python3 - "$1" <<'PY'
import json, sys
m = json.load(open(sys.argv[1]))
for k in ("elapsed_ms", "scheduler", "cluster", "profile"):
    m.pop(k, None)
print(json.dumps(m, sort_keys=True, indent=1))
PY
}

start_worker() { # port
  local port="$1"; shift
  "$work/bioperf5" serve -addr "127.0.0.1:$port" "$@" \
    2>> "$work/serve-$port.stderr" &
  pids+=($!)
  disown $!
}

wait_ready() { # port...
  for port in "$@"; do
    local ok=0
    for _ in $(seq 1 50); do
      if curl -fsS "http://127.0.0.1:$port/readyz" > /dev/null 2>&1; then ok=1; break; fi
      sleep 0.2
    done
    if [ "$ok" -ne 1 ]; then
      echo "FAIL: worker on :$port never became ready" >&2
      cat "$work/serve-$port.stderr" >&2 || true
      exit 1
    fi
  done
}

echo "== single-node reference (fault-free)"
"$work/bioperf5" "${sweep_args[@]}" -workers 2 -json > "$work/ref.json"

echo "== distributed sweep with the coordinator transport under chaos"
start_worker "$w1_port"
start_worker "$w2_port"
wait_ready "$w1_port" "$w2_port"
chaos="seed=42,refuse=0.15,latency=0.15,latdelay=2ms,http5xx=0.2"
chaos="$chaos,cut=0.15,corruptline=0.15,dupitem=0.15,times=2"
chaos="$chaos,blackout=$w2_port@2+3"
BIOPERF5_FAULTS="$chaos" "$work/bioperf5" "${sweep_args[@]}" \
  -workers "http://127.0.0.1:$w1_port,http://127.0.0.1:$w2_port" \
  -json > "$work/chaos.json" 2> "$work/chaos.stderr"

grep -q "network chaos enabled" "$work/chaos.stderr" || {
  echo "FAIL: coordinator never armed the chaos transport" >&2
  cat "$work/chaos.stderr" >&2
  exit 1
}

canon "$work/ref.json"   > "$work/ref.canon"
canon "$work/chaos.json" > "$work/chaos.canon"
if ! diff -u "$work/ref.canon" "$work/chaos.canon"; then
  echo "FAIL: chaotic distributed manifest differs from the fault-free single-node run" >&2
  exit 1
fi
python3 - "$work/chaos.json" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))["cluster"]
assert c["failed_cells"] == 0, f"chaos must not fail cells: {c}"
assert c["completed"] == c["cells"], c
print(f"   chaos run converged: {c['cells']} cells, {c['http_retries']} HTTP retries, "
      f"{c['redispatched']} re-dispatched, {c['breaker_trips']} breaker trips, "
      f"{c['duplicates']} duplicate results dropped")
PY
echo "   chaotic manifest byte-identical to the fault-free run"

echo "== seed a resumable local sweep, then damage its state directory"
state="$work/state"
"$work/bioperf5" "${sweep_args[@]}" -workers 2 -resume "$state" -json > "$work/local.json"
canon "$work/local.json" > "$work/local.canon"
diff -u "$work/ref.canon" "$work/local.canon" > /dev/null

victim="$(find "$state" -maxdepth 1 -regextype posix-extended \
          -regex '.*/[0-9a-f]{64}\.json' | sort | head -1)"
trace_victim="$(find "$state/traces" -name '*.trace' | sort | head -1)"
python3 - "$victim" "$trace_victim" <<'PY'
import os, sys
for path in sys.argv[1:3]:  # tear both files in half, as a torn write would
    os.truncate(path, os.path.getsize(path) // 2)
PY
# Neither a local sweep nor a coordinator keeps a journal; this torn one
# stands for a journal.jsonl that a parent binary left in a state directory.
printf '{"hash":"torn-mid-wri' >> "$state/journal.jsonl"
: > "$state/$(printf 'a%.0s' $(seq 1 64) | tr a f).tmp42"  # stale temp file

echo "== fsck: must find all four, quarantine, repair, exit nonzero"
if "$work/bioperf5" fsck "$state" > "$work/fsck1.json" 2> "$work/fsck1.stderr"; then
  echo "FAIL: fsck exited zero on a damaged tree" >&2
  cat "$work/fsck1.json" >&2
  exit 1
fi
python3 - "$work/fsck1.json" "$victim" <<'PY'
import json, os, sys
rep = json.load(open(sys.argv[1]))
kinds = {f["kind"] for f in rep["findings"]}
want = {"cache-entry-corrupt", "trace-corrupt", "journal-torn-tail", "stale-temp"}
assert want <= kinds, f"missing kinds: {want - kinds} in {kinds}"
assert rep["quarantined"] >= 3, rep
assert rep["repaired"] >= 1, rep
assert not os.path.exists(sys.argv[2]), "corrupt entry left at its address"
for f in rep["findings"]:
    if f.get("quarantined_to"):
        assert os.path.exists(f["quarantined_to"]), f"quarantine lost {f}"
print(f"   fsck: {rep['damaged']} damaged, {rep['quarantined']} quarantined, "
      f"{rep['repaired']} repaired across {rep['scanned']} files")
PY

echo "== fsck again: the scrubbed tree must be clean"
"$work/bioperf5" fsck "$state" > "$work/fsck2.json"
python3 - "$work/fsck2.json" <<'PY'
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep["damaged"] == 0, f"second pass re-reported damage: {rep}"
PY

echo "== resume: recomputes exactly the quarantined cell"
"$work/bioperf5" "${sweep_args[@]}" -workers 2 -resume "$state" -json > "$work/resumed.json"
canon "$work/resumed.json" > "$work/resumed.canon"
if ! diff -u "$work/ref.canon" "$work/resumed.canon"; then
  echo "FAIL: post-fsck resumed manifest differs from the reference" >&2
  exit 1
fi
python3 - "$work/resumed.json" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))["scheduler"]
assert s["computed"] == 1, f"resume should recompute only the quarantined cell: {s}"
assert s["disk_corrupt"] == 0, f"fsck left corruption behind: {s}"
print(f"   resume: {s['computed']} recomputed, {s['disk_hits']} disk hits")
PY

echo "PASS: chaos sweep byte-identical; fsck quarantined, repaired, and resume recomputed only the damage"
