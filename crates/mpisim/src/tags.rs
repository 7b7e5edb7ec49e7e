//! Reserved tag space.
//!
//! The paper (§V-D): "We define a distinct exclusive tag for each blocking
//! collective operation" and nonblocking collectives get default tags that
//! the user may override. User code must stay below [`RESERVED_BASE`];
//! everything above is library-internal. Collectives that need two message
//! streams (gatherv: metadata + payload) reserve two consecutive tags.

use crate::msg::Tag;

/// First reserved tag; user tags must be `< RESERVED_BASE`.
pub const RESERVED_BASE: Tag = 1 << 62;

/// Whether `tag` lies in the library-reserved space.
pub const fn is_reserved(tag: Tag) -> bool {
    tag >= RESERVED_BASE
}

// Blocking collectives (one exclusive tag each; gatherv-based ops use +1 too).
/// Exclusive tag of blocking `bcast` (§V-D).
pub const BCAST: Tag = RESERVED_BASE;
/// Exclusive tag of blocking `reduce`.
pub const REDUCE: Tag = RESERVED_BASE + 2;
/// Exclusive tag of blocking `allreduce`.
pub const ALLREDUCE: Tag = RESERVED_BASE + 4;
/// Exclusive tag of blocking `scan`.
pub const SCAN: Tag = RESERVED_BASE + 6;
/// Exclusive tag of blocking `exscan`.
pub const EXSCAN: Tag = RESERVED_BASE + 8;
/// Exclusive tag of blocking `gather`.
pub const GATHER: Tag = RESERVED_BASE + 10;
/// Exclusive tag of blocking `gatherv` (metadata stream; payload uses +1).
pub const GATHERV: Tag = RESERVED_BASE + 12;
/// Exclusive tag of blocking `allgather`.
pub const ALLGATHER: Tag = RESERVED_BASE + 14;
/// Exclusive tag of blocking `barrier`.
pub const BARRIER: Tag = RESERVED_BASE + 16;
/// Exclusive tag of blocking `alltoall`.
pub const ALLTOALL: Tag = RESERVED_BASE + 18;

/// Context-ID mask agreement during `split`/`dup`.
pub const CTX_AGREE: Tag = RESERVED_BASE + 20;
/// All-gather of `(color, key)` in the textbook all-gather
/// `MPI_Comm_split`. Only the test oracle for the distributed split
/// (`splitdist`'s unit tests) sends on it; the tag stays reserved.
pub const SPLIT_GATHER: Tag = RESERVED_BASE + 22;
/// Exclusive tag of blocking `scatter`.
pub const SCATTER: Tag = RESERVED_BASE + 24;
/// Exclusive tag of blocking `scatterv` (counts stream; payload uses +1).
pub const SCATTERV: Tag = RESERVED_BASE + 26;
/// Exclusive tag of blocking `allgatherv` (also claims +2/+3 for its bcasts).
pub const ALLGATHERV: Tag = RESERVED_BASE + 28; // +2, +3 for the bcasts
/// Exclusive tag of blocking `alltoallw`.
pub const ALLTOALLW: Tag = RESERVED_BASE + 34;

// Distributed-sort `MPI_Comm_split` (`splitdist`, the only split
// algorithm): sample-sort of `(color, key, rank)` triples over the parent.
/// Sample gather + splitter broadcast (claims +1 for the gatherv payload
/// and +2 for the broadcast).
pub const SPLIT_SAMPLE: Tag = RESERVED_BASE + 36;
/// All-reduce of per-bucket triple counts.
pub const SPLIT_COUNT: Tag = RESERVED_BASE + 40;
/// Triples travelling from their origin rank to their bucket leader.
pub const SPLIT_ROUTE: Tag = RESERVED_BASE + 42;
/// Exclusive prefix sum of sorted-triple counts (global positions).
pub const SPLIT_POS_SCAN: Tag = RESERVED_BASE + 44;
/// Segmented color scan (run boundaries and color indices).
pub const SPLIT_SEG_SCAN: Tag = RESERVED_BASE + 46;
/// All-reduce of the distinct-color count.
pub const SPLIT_NCOLORS: Tag = RESERVED_BASE + 48;
/// Leader summary table: leaders -> rank 0, then a binomial tree over the
/// leaders only.
pub const SPLIT_LEADERS: Tag = RESERVED_BASE + 50;
/// A leader's continuation portion of a color segment, sent to the
/// segment's gathering leader.
pub const SPLIT_PORTION: Tag = RESERVED_BASE + 52;
/// New-group notification headers travelling down the member binomial tree.
pub const SPLIT_NOTIFY: Tag = RESERVED_BASE + 54;
/// Dense member tables accompanying [`SPLIT_NOTIFY`] headers.
pub const SPLIT_TABLE: Tag = RESERVED_BASE + 56;

// Large-input collectives (`coll_large`, §V-D).
/// Size-adaptive broadcast (`bcast_auto`): length broadcast, then either
/// the binomial broadcast (+1) or scatterv (+1, +2) and the ring (+3).
pub const BCAST_LARGE: Tag = RESERVED_BASE + 58;
/// Size-adaptive reduction (`reduce_auto`): recursive halving or the
/// binomial reduce, then the slices' gatherv (+1, +2).
pub const REDUCE_LARGE: Tag = RESERVED_BASE + 62;

// Default tags for nonblocking collectives (paper: `RBC_IBCAST_TAG` etc.).
// Users may pass their own tag instead to run several operations of the
// same class concurrently.
/// Default tag of nonblocking `ibcast` (paper: `RBC_IBCAST_TAG`).
pub const IBCAST: Tag = RESERVED_BASE + 100;
/// Default tag of nonblocking `ireduce`.
pub const IREDUCE: Tag = RESERVED_BASE + 102;
/// Default tag of nonblocking `iscan`.
pub const ISCAN: Tag = RESERVED_BASE + 104;
/// Default tag of nonblocking `iexscan`.
pub const IEXSCAN: Tag = RESERVED_BASE + 106;
/// Default tag of nonblocking `igather`.
pub const IGATHER: Tag = RESERVED_BASE + 108;
/// Default tag of nonblocking `igatherv` (payload stream uses +1).
pub const IGATHERV: Tag = RESERVED_BASE + 110;
/// Default tag of nonblocking `ibarrier`.
pub const IBARRIER: Tag = RESERVED_BASE + 112;
/// Default tag of nonblocking `iallreduce`.
pub const IALLREDUCE: Tag = RESERVED_BASE + 114;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_predicate() {
        assert!(is_reserved(BCAST));
        assert!(is_reserved(IALLREDUCE));
        assert!(!is_reserved(0));
        assert!(!is_reserved(RESERVED_BASE - 1));
    }

    #[test]
    fn all_distinct_with_headroom() {
        // (tag, how many consecutive tags it claims). Every claim is padded
        // to an even width: each op may also use tag+1 for a second stream.
        let tags = [
            (BCAST, 1),
            (REDUCE, 1),
            (ALLREDUCE, 1),
            (SCAN, 1),
            (EXSCAN, 1),
            (GATHER, 1),
            (GATHERV, 2),
            (ALLGATHER, 1),
            (BARRIER, 1),
            (ALLTOALL, 1),
            (CTX_AGREE, 1),
            (SPLIT_GATHER, 1),
            (SCATTER, 1),
            (SCATTERV, 2),
            (ALLGATHERV, 4),
            (ALLTOALLW, 1),
            (SPLIT_SAMPLE, 3),
            (SPLIT_COUNT, 1),
            (SPLIT_ROUTE, 1),
            (SPLIT_POS_SCAN, 1),
            (SPLIT_SEG_SCAN, 1),
            (SPLIT_NCOLORS, 1),
            (SPLIT_LEADERS, 1),
            (SPLIT_PORTION, 1),
            (SPLIT_NOTIFY, 1),
            (SPLIT_TABLE, 1),
            (BCAST_LARGE, 4),
            (REDUCE_LARGE, 3),
            (IBCAST, 1),
            (IREDUCE, 1),
            (ISCAN, 1),
            (IEXSCAN, 1),
            (IGATHER, 1),
            (IGATHERV, 2),
            (IBARRIER, 1),
            (IALLREDUCE, 1),
        ];
        let claim = |&(t, w): &(Tag, u64)| t..t + w.max(2);
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                let (a, b) = (claim(a), claim(b));
                assert!(
                    a.end <= b.start || b.end <= a.start,
                    "tags {a:?} and {b:?} overlap"
                );
            }
        }
    }
}
