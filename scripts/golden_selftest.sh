#!/usr/bin/env bash
# The golden check must pass on an exact copy and fail on a last-digit
# change in either direction, a -1 % drift, a missing file and an extra
# file. Run from the repository root; touches nothing outside a temp dir.
set -euo pipefail
t=$(mktemp -d)
trap 'rm -rf "$t"' EXIT
fresh() { rm -f "$t"/*; cp results/golden/*.csv "$t"/; }
# Rewrite the last cell of fig8_jquick.csv's first data row with awk expression $1.
edit() { awk -F, -v OFS=, "NR==2{\$NF=sprintf(\"%.6f\", $1)}1" results/golden/fig8_jquick.csv >"$t/fig8_jquick.csv"; }
must_fail() {
  if scripts/golden.sh "$t" >/dev/null 2>&1; then
    echo "golden_selftest: the check passed on $1" >&2
    exit 1
  fi
}
fresh; scripts/golden.sh "$t" >/dev/null
fresh; edit '$NF+0.000001'; must_fail "a last digit raised"
fresh; edit '$NF-0.000001'; must_fail "a last digit lowered"
fresh; edit '$NF*0.99'; must_fail "a -1 % virtual-time drift"
fresh; rm "$t/fig4_iscan.csv"; must_fail "a missing CSV"
fresh; cp "$t/fig4_iscan.csv" "$t/unexpected.csv"; must_fail "an extra CSV"
echo "golden_selftest: exact copy passes; +1 digit, -1 digit, -1 %, missing and extra all fail"
