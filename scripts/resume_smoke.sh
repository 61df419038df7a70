#!/usr/bin/env bash
# resume_smoke.sh — kill a sweep mid-run with SIGKILL, resume it with
# -resume, and assert the resumed manifest is identical to an
# uninterrupted run's.  This is the crash-safety gate the atomic
# cache/manifest writes exist for: a -resume directory is a warm cache,
# and no amount of violence at the wrong moment may change the science.
set -euo pipefail

cd "$(dirname "$0")/.."

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/bioperf5" ./cmd/bioperf5

sweep_args=(sweep -apps Clustalw,Fasta -fxus 2,3,4 -btac off,8
            -variants original -seeds 1 -scale 3 -workers 2)

# canon strips the environment-dependent fields (timing, scheduler
# counters) from a manifest; determinism is asserted on the rest.
canon() {
  python3 - "$1" <<'PY'
import json, sys
m = json.load(open(sys.argv[1]))
m.pop("elapsed_ms", None)
m.pop("scheduler", None)
m.pop("profile", None)
print(json.dumps(m, sort_keys=True, indent=1))
PY
}

echo "== baseline: uninterrupted run"
"$work/bioperf5" "${sweep_args[@]}" -resume "$work/base" -json > /dev/null

# entries counts the result entries (<64-hex>.json) in a state
# directory.  An entry appears at its final name only once it is
# complete (written to a temp file, then renamed).
entries() {
  find "$1" -maxdepth 1 -regextype posix-extended -regex '.*/[0-9a-f]{64}\.json' 2>/dev/null | wc -l
}

# The kill is triggered by the first result entry, not by a clock: at
# that point some cells are done and most are not, however fast the
# host or the simulator is.
echo "== interrupted run: SIGKILL once the cache has a result entry"
"$work/bioperf5" "${sweep_args[@]}" -resume "$work/int" -json > /dev/null &
pid=$!
for _ in $(seq 1 1200); do
  if [ "$(entries "$work/int")" -gt 0 ] || ! kill -0 "$pid" 2>/dev/null; then break; fi
  sleep 0.05
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

cached=$(entries "$work/int")
echo "   cache holds $cached completed cells at the point of death"
if [ -f "$work/int/manifest.json" ]; then
  echo "FAIL: killed run left a manifest behind" >&2
  exit 1
fi

echo "== resume"
"$work/bioperf5" "${sweep_args[@]}" -resume "$work/int" -json > "$work/resumed.json"

canon "$work/base/manifest.json" > "$work/base.canon"
canon "$work/int/manifest.json"  > "$work/int.canon"
if ! diff -u "$work/base.canon" "$work/int.canon"; then
  echo "FAIL: resumed manifest differs from uninterrupted run" >&2
  exit 1
fi

# If the kill landed after any cell completed, the resumed run must
# have simulated strictly fewer cells than the baseline run did.
base_computed=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["scheduler"]["computed"])' "$work/base/manifest.json")
res_computed=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["scheduler"]["computed"])' "$work/int/manifest.json")
res_skipped=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["scheduler"]["disk_hits"])' "$work/int/manifest.json")
echo "   baseline simulated $base_computed cells; resume simulated $res_computed, skipped $res_skipped via the cache"
if [ "$cached" -gt 0 ]; then
  if [ "$res_computed" -ge "$base_computed" ]; then
    echo "FAIL: resume re-simulated already-cached cells" >&2
    exit 1
  fi
  if [ "$res_skipped" -eq 0 ]; then
    echo "FAIL: resume skipped nothing despite a non-empty cache" >&2
    exit 1
  fi
fi

echo "PASS: resumed manifest identical to uninterrupted run"
