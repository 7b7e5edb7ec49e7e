#!/usr/bin/env bash
# The counts ROADMAP tracks can only go down: `unsafe` (as a whole word,
# so the lint name `unsafe_code` does not count) in every library crate's
# source (crates/*/src and the umbrella's src), `Instant` (wall-clock
# reads: only the scheduler profile may take them) occurrences in
# crates/mpisim/src, distinct MPISIM_* knobs named in crates/*/src, and
# the `pub` fields of `SimConfig` and `VendorProfile` (a config field is a
# knob too), and per-type collective copies: definitions of the thirteen
# blocking collectives or their `_async` forms, and of the seven
# nonblocking ones (`ibcast`, `ireduce`, `iallreduce`, `iscan`, `igather`,
# `igatherv`, `ibarrier`), in crates/mpisim/src/comm.rs and
# crates/core/src (all are `Transport`'s provided methods; a communicator
# only prices them, and `Comm` keeps six one-line adapters with MPI's
# tagless signatures). Fails when any exceeds its ceiling; lower the
# ceiling when a PR lowers the count. Run from the repository root.
set -euo pipefail
max_unsafe=0 max_instant=3 max_knobs=6 max_fields=8 max_vendor_fields=8 max_coll_copies=0 max_nbc_copies=6
# grep exits 1 when nothing matches, which under pipefail would end the
# script without a word: a count of 0 is a pass, so only exit 2 (an error)
# fails.
hits() { grep "$@" || [ $? -eq 1 ]; }
unsafe=$(hits -rwo unsafe crates/*/src src | wc -l)
instant=$(hits -ro Instant crates/mpisim/src | wc -l)
knobs=$(hits -rohP 'MPISIM_[A-Z]+(_[A-Z]+)*(?![A-Z_])' crates/*/src | sort -u | wc -l)
fields=$(sed -n '/^pub struct SimConfig {/,/^}/p' crates/mpisim/src/universe.rs | hits -cE '^ +pub [a-z_0-9]+:')
vendor_fields=$(sed -n '/^pub struct VendorProfile {/,/^}/p' crates/mpisim/src/model.rs | hits -cE '^ +pub [a-z_0-9]+:')
coll_copies=$(hits -rEow 'fn (bcast|reduce|allreduce|scan|exscan|gather|gatherv|allgather1|allgatherv|barrier|alltoallv|scatter|scatterv)(_async)?' crates/mpisim/src/comm.rs crates/core/src | wc -l)
nbc_copies=$(hits -rEow 'fn (ibcast|ireduce|iallreduce|iscan|igather|igatherv|ibarrier)' crates/mpisim/src/comm.rs crates/core/src | wc -l)
echo "ratchet: unsafe $unsafe (ceiling $max_unsafe), Instant $instant (ceiling $max_instant), MPISIM_* knobs $knobs (ceiling $max_knobs), SimConfig fields $fields (ceiling $max_fields), VendorProfile fields $vendor_fields (ceiling $max_vendor_fields), collective copies $coll_copies (ceiling $max_coll_copies), nonblocking collective copies $nbc_copies (ceiling $max_nbc_copies)"
[ "$unsafe" -le "$max_unsafe" ] && [ "$instant" -le "$max_instant" ] && [ "$knobs" -le "$max_knobs" ] && [ "$fields" -gt 0 ] && [ "$fields" -le "$max_fields" ] && [ "$vendor_fields" -gt 0 ] && [ "$vendor_fields" -le "$max_vendor_fields" ] && [ "$coll_copies" -le "$max_coll_copies" ] && [ "$nbc_copies" -le "$max_nbc_copies" ]
