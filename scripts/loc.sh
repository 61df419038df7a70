#!/usr/bin/env bash
# loc.sh — the line count every simplicity PR quotes: non-test Go outside
# bench/, in total and per package directory.  Run it at the parent and
# at the change; the difference is the PR's measured deletion.
#
#   scripts/loc.sh          print the counts
#   scripts/loc.sh -max N   also exit non-zero when the total exceeds N
#                           (CI's ceiling: a PR that grows the tree past
#                           it has to move it, deliberately)
set -euo pipefail
cd "$(dirname "$0")/.."

max=""
if [[ $# -eq 2 && "$1" == "-max" && "$2" =~ ^[0-9]+$ ]]; then
  max="$2"
elif [[ $# -gt 0 ]]; then
  echo "usage: loc.sh [-max N]" >&2
  exit 2
fi

files() { find "${1:-.}" -name '*.go' ! -name '*_test.go' ! -path './bench/*' "${@:2}"; }

total="$(files . | xargs cat | wc -l)"
printf '%7d  total (non-test Go outside bench/)\n' "$total"
files . -printf '%h\n' | sort -u | while read -r dir; do
  printf '%7d  %s\n' "$(files "$dir" -maxdepth 1 | xargs cat | wc -l)" "${dir#./}"
done
if [[ -n "$max" && "$total" -gt "$max" ]]; then
  echo "loc.sh: $total lines exceed the ceiling of $max" >&2
  exit 1
fi
