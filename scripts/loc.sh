#!/usr/bin/env bash
# loc.sh — the line count every simplicity PR quotes: non-test Go outside
# bench/, in total and per package directory.  Run it at the parent and
# at the change; the difference is the PR's measured deletion.
set -euo pipefail
cd "$(dirname "$0")/.."

files() { find "${1:-.}" -name '*.go' ! -name '*_test.go' ! -path './bench/*' "${@:2}"; }

printf '%7d  total (non-test Go outside bench/)\n' "$(files . | xargs cat | wc -l)"
files . -printf '%h\n' | sort -u | while read -r dir; do
  printf '%7d  %s\n' "$(files "$dir" -maxdepth 1 | xargs cat | wc -l)" "${dir#./}"
done
