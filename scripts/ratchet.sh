#!/usr/bin/env bash
# The counts ROADMAP tracks can only go down: `unsafe` and `Instant`
# (wall-clock reads: only the scheduler profile may take them) occurrences
# in crates/mpisim/src, and distinct MPISIM_* knobs named in crates/*/src.
# Fails when any exceeds its ceiling; lower the ceiling when a PR lowers
# the count. Run from the repository root.
set -euo pipefail
max_unsafe=15 max_instant=3 max_knobs=8
unsafe=$(grep -ro unsafe crates/mpisim/src | wc -l)
instant=$(grep -ro Instant crates/mpisim/src | wc -l)
knobs=$(grep -rohP 'MPISIM_[A-Z]+(_[A-Z]+)*(?![A-Z_])' crates/*/src | sort -u | wc -l)
echo "ratchet: unsafe $unsafe (ceiling $max_unsafe), Instant $instant (ceiling $max_instant), MPISIM_* knobs $knobs (ceiling $max_knobs)"
[ "$unsafe" -le "$max_unsafe" ] && [ "$instant" -le "$max_instant" ] && [ "$knobs" -le "$max_knobs" ]
