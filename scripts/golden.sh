#!/usr/bin/env bash
# The gate: quick-mode CSVs must equal results/golden/ byte for byte.
#   scripts/golden.sh                   regenerate results/*.csv, compare with results/golden
#   scripts/golden.sh --bless           regenerate, then replace results/golden
#   scripts/golden.sh DIR [REF [GLOB]]  no run: compare DIR with REF (default results/golden),
#                                       both restricted to GLOB (default *.csv)
# A file present on one side only fails like a differing one. Run from the
# repository root; MPISIM_* variables pass through to the run.
set -euo pipefail
dir=${1:-results} ref=${2:-results/golden} glob=${3:-*.csv}
if [ $# -eq 0 ] || [ "$1" = --bless ]; then
  dir=results
  rm -f results/*.csv
  BENCH_QUICK=1 cargo run --release -q -p rbc-bench --bin all_figures >/dev/null
  if [ $# -eq 1 ]; then
    rm -rf "$ref" && mkdir -p "$ref" && cp results/*.csv "$ref"/
    echo "golden: blessed $(ls "$ref" | wc -l) files"
    exit
  fi
fi
# shellcheck disable=SC2086  # $glob must expand
names=$(for d in "$dir" "$ref"; do (cd "$d" && ls $glob 2>/dev/null || true); done | sort -u)
fail=0
[ -n "$names" ] || fail=1
for f in $names; do diff -u "$ref/$f" "$dir/$f" || fail=1; done
echo "golden: $(echo $names | wc -w) files, $dir vs $ref: $([ $fail = 0 ] && echo identical || echo DIFFERENT)"
exit $fail
