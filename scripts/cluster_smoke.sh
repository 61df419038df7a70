#!/usr/bin/env bash
# cluster_smoke.sh — stand up a real distributed sweep on the loopback:
# a cache hub, two `bioperf5 serve` workers pointed at it, and a
# coordinator running the factorial on them.  Mid-run — the moment
# it has admitted its first cells, observed on its /metrics, not after a
# sleep — one worker takes SIGKILL.  The gates: the merged manifest is
# byte-identical to a single-node run despite the death and every cell
# completed, whatever the timing; a second distributed run against
# two FRESH workers (empty local caches, same hub) is served almost
# entirely by the shared cache tier; the hub's /metrics shows the
# server.cache.* traffic that service implies; and a coordinator
# SIGKILLed once its -resume directory holds its first result entries
# resumes from them to the same manifest, leaving a directory fsck
# reports clean and no journal.
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

hub_port=18090
w1_port=18091
w2_port=18092
w3_port=18093
w4_port=18094
w5_port=18095
w6_port=18096
hub="http://127.0.0.1:$hub_port"

sweep_args=(sweep -apps Clustalw,Fasta -fxus 2,3,4 -btac off,8
            -variants original -seeds 1 -scale 3)

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

start_worker() { # port cache-dir [extra flags...]
  local port="$1" dir="$2"; shift 2
  "$work/bioperf5" serve -addr "127.0.0.1:$port" -cache-dir "$dir" "$@" \
    2>> "$work/serve-$port.stderr" &
  pids+=($!)
  disown $! # quiet bash's "Killed" notices when the test shoots a worker
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

echo "== single-node reference"
"$work/bioperf5" "${sweep_args[@]}" -workers 2 -json > "$work/ref.json"

echo "== start hub + two workers sharing it"
start_worker "$hub_port" "$work/hub-cache"
wait_ready "$hub_port"
start_worker "$w1_port" "$work/w1-cache" -cache-upstream "$hub"
start_worker "$w2_port" "$work/w2-cache" -cache-upstream "$hub"
wait_ready "$w1_port" "$w2_port"
w2_pid="${pids[-1]}"

# admitted prints how many cells the worker on a port has accepted.
admitted() { # port
  curl -fsS "http://127.0.0.1:$1/metrics" 2>/dev/null |
    awk '$1 == "server_cells_admitted" { print int($2) }'
}

echo "== distributed run 1: SIGKILL worker 2 on its first admitted batch"
"$work/bioperf5" "${sweep_args[@]}" \
  -workers "http://127.0.0.1:$w1_port,http://127.0.0.1:$w2_port" \
  -json > "$work/d1.json" 2> "$work/d1.stderr" &
coord=$!
# The first cell of a batch is a scale-3 capture (hundreds of ms), so a
# kill on the first sighting of an admitted cell always lands with that
# batch unanswered.
killed=0
for _ in $(seq 1 3000); do
  n="$(admitted "$w2_port" || true)"
  if [ "${n:-0}" -gt 0 ]; then
    kill -9 "$w2_pid"
    killed=1
    break
  fi
  kill -0 "$coord" 2>/dev/null || break
  sleep 0.01
done
if [ "$killed" -ne 1 ]; then
  echo "FAIL: worker 2 never admitted a cell while the sweep ran" >&2
  cat "$work/d1.stderr" >&2
  exit 1
fi
if ! wait "$coord"; then
  echo "FAIL: coordinator exited non-zero after losing a worker" >&2
  cat "$work/d1.stderr" >&2
  exit 1
fi

canon "$work/ref.json" > "$work/ref.canon"
canon "$work/d1.json"  > "$work/d1.canon"
if ! diff -u "$work/ref.canon" "$work/d1.canon"; then
  echo "FAIL: distributed manifest differs from single-node reference" >&2
  exit 1
fi
python3 - "$work/d1.json" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))["cluster"]
assert c["workers"] == 2, c
assert c["failed_cells"] == 0, f"survivor should finish every cell: {c}"
assert c["completed"] == c["cells"], c
# How fast the survivor finishes decides whether the coordinator gets to
# quarantine the dead worker before the sweep ends; either it did, or the
# batch the kill interrupted went out a second time.
assert c["workers_lost"] == 1 or c["dispatched"] > c["cells"], \
    f"the kill left no mark: neither a lost worker nor a cell dispatched twice: {c}"
print(f"   survived the kill: {c['cells']} cells in {c['dispatched']} dispatches, "
      f"{c['workers_lost']} worker declared lost, "
      f"{c['redispatched']} stragglers shadowed, {c['duplicates']} duplicate results dropped")
PY
echo "   merged manifest byte-identical to single-node despite the kill"

echo "== distributed run 2: fresh workers, warm shared cache"
start_worker "$w3_port" "$work/w3-cache" -cache-upstream "$hub"
start_worker "$w4_port" "$work/w4-cache" -cache-upstream "$hub"
wait_ready "$w3_port" "$w4_port"
"$work/bioperf5" "${sweep_args[@]}" \
  -workers "http://127.0.0.1:$w3_port,http://127.0.0.1:$w4_port" \
  -json > "$work/d2.json"

canon "$work/d2.json" > "$work/d2.canon"
if ! diff -u "$work/ref.canon" "$work/d2.canon"; then
  echo "FAIL: warm-cache manifest differs from single-node reference" >&2
  exit 1
fi
python3 - "$work/d2.json" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))["cluster"]
rate = (c["cache_hits"] + c["resumed"]) / c["cells"]
print(f"   warm run served {c['cache_hits']} of {c['cells']} cells from the shared tier ({rate:.0%})")
assert rate >= 0.9, f"shared cache served only {rate:.0%}, want >= 90%: {c}"
PY

echo "== hub metrics reflect the traffic"
curl -fsS "$hub/metrics" > "$work/hub.metrics"
python3 - "$work/hub.metrics" <<'PY'
import sys
vals = {}
for line in open(sys.argv[1]):
    if line.startswith("#") or not line.strip():
        continue
    name, _, val = line.rpartition(" ")
    vals[name.strip()] = float(val)
hits = vals.get("server_cache_hits", 0)
puts = vals.get("server_cache_puts", 0)
assert puts > 0, f"hub accepted no cache entries: {vals}"
assert hits > 0, f"hub served no cache entries: {vals}"
print(f"   hub: {puts:.0f} entries uploaded, {hits:.0f} served back")
PY

# entries counts the result entries (<64-hex>.json) in a state
# directory; one appears at its final name only once it is complete.
entries() {
  find "$1" -maxdepth 1 -regextype posix-extended -regex '.*/[0-9a-f]{64}\.json' 2>/dev/null | wc -l
}

echo "== fleet resume: SIGKILL the coordinator on its first result entries"
# Fresh workers with no upstream simulate every cell, so the first
# entries land while most cells are still out.
start_worker "$w5_port" "$work/w5-cache"
start_worker "$w6_port" "$work/w6-cache"
wait_ready "$w5_port" "$w6_port"
fleet=(-workers "http://127.0.0.1:$w5_port,http://127.0.0.1:$w6_port")
state="$work/fleet-state"
"$work/bioperf5" "${sweep_args[@]}" "${fleet[@]}" -resume "$state" -json \
  > /dev/null 2> "$work/r1.stderr" &
coord=$!
for _ in $(seq 1 3000); do
  if [ "$(entries "$state")" -gt 0 ] || ! kill -0 "$coord" 2>/dev/null; then break; fi
  sleep 0.01
done
kill -9 "$coord" 2>/dev/null || true
wait "$coord" 2>/dev/null || true
echo "   state directory holds $(entries "$state") result entries at the point of death"
if [ "$(entries "$state")" -eq 0 ]; then
  echo "FAIL: the coordinator filed no result entry before it died" >&2
  cat "$work/r1.stderr" >&2
  exit 1
fi
"$work/bioperf5" "${sweep_args[@]}" "${fleet[@]}" -resume "$state" -json > "$work/r2.json"
canon "$work/r2.json" > "$work/r2.canon"
if ! diff -u "$work/ref.canon" "$work/r2.canon"; then
  echo "FAIL: resumed fleet manifest differs from single-node reference" >&2
  exit 1
fi
python3 - "$work/r2.json" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))["cluster"]
assert c["resumed"] >= 1, f"the resume answered no cell from the state directory: {c}"
assert c["failed_cells"] == 0 and c["resumed"] + c["completed"] == c["cells"], c
print(f"   resumed {c['resumed']} of {c['cells']} cells, dispatched the other {c['completed']}")
PY
if [ -e "$state/journal.jsonl" ]; then
  echo "FAIL: the coordinator wrote a journal into its state directory" >&2
  exit 1
fi

echo "== fsck: an uninterrupted fleet state directory is clean"
"$work/bioperf5" "${sweep_args[@]}" "${fleet[@]}" -resume "$work/fleet-clean" -json > /dev/null
"$work/bioperf5" fsck "$work/fleet-clean" > "$work/fsck.json"
python3 - "$work/fsck.json" <<'PY'
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep["damaged"] == 0 and rep["scanned"] > 0, rep
print(f"   fsck: {rep['scanned']} files, none damaged")
PY

echo "PASS: distributed sweep byte-identical under worker death; warm fleet served by the shared cache; a killed coordinator resumes from its state directory"
