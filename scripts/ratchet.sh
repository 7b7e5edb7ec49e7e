#!/usr/bin/env bash
# The counts ROADMAP tracks can only go down: `unsafe` (as a whole word,
# so the lint name `unsafe_code` does not count) and `Instant`
# (wall-clock reads: only the scheduler profile may take them) occurrences
# in crates/mpisim/src, distinct MPISIM_* knobs named in crates/*/src, and
# the `pub` fields of `SimConfig` and `VendorProfile` (a config field is a
# knob too). Fails
# when any exceeds its ceiling; lower the ceiling when a PR lowers the
# count. Run from the repository root.
set -euo pipefail
max_unsafe=1 max_instant=3 max_knobs=8 max_fields=8 max_vendor_fields=8
unsafe=$(grep -rwo unsafe crates/mpisim/src | wc -l)
instant=$(grep -ro Instant crates/mpisim/src | wc -l)
knobs=$(grep -rohP 'MPISIM_[A-Z]+(_[A-Z]+)*(?![A-Z_])' crates/*/src | sort -u | wc -l)
fields=$(sed -n '/^pub struct SimConfig {/,/^}/p' crates/mpisim/src/universe.rs | grep -cE '^ +pub [a-z_0-9]+:')
vendor_fields=$(sed -n '/^pub struct VendorProfile {/,/^}/p' crates/mpisim/src/model.rs | grep -cE '^ +pub [a-z_0-9]+:')
echo "ratchet: unsafe $unsafe (ceiling $max_unsafe), Instant $instant (ceiling $max_instant), MPISIM_* knobs $knobs (ceiling $max_knobs), SimConfig fields $fields (ceiling $max_fields), VendorProfile fields $vendor_fields (ceiling $max_vendor_fields)"
[ "$unsafe" -le "$max_unsafe" ] && [ "$instant" -le "$max_instant" ] && [ "$knobs" -le "$max_knobs" ] && [ "$fields" -gt 0 ] && [ "$fields" -le "$max_fields" ] && [ "$vendor_fields" -gt 0 ] && [ "$vendor_fields" -le "$max_vendor_fields" ]
