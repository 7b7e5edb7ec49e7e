#!/usr/bin/env bash
# Every DESIGN.md section cited as "DESIGN.md §n" (or "§n/§m") from
# crates/, scripts/ or README.md must exist as a "## §n" heading. Run from
# the repository root.
set -euo pipefail
cited=$(grep -rhoP 'DESIGN\.md §[0-9]+(/§[0-9]+)*' crates scripts README.md | grep -oP '§[0-9]+' | sort -u)
missing=0
for s in $cited; do
    grep -q "^## $s " DESIGN.md || { echo "design_refs: DESIGN.md has no '## $s' heading; cited at:"; grep -rnP "DESIGN\.md (§[0-9]+/)*$s\b" crates scripts README.md; missing=1; }
done
echo "design_refs: $(echo "$cited" | wc -l) cited sections checked"
exit $missing
