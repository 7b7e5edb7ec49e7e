//! Shared distributed-sorting building blocks.
//!
//! The sample-sort machinery was born in the `jquick` crate (single-level
//! sample sort, staged exchanges). The distributed-sort implementation of
//! `MPI_Comm_split` ([`crate::comm::Comm::split`]) needs the same two
//! generic pieces — splitter selection and run-length position encoding —
//! but `mpisim` cannot depend on `jquick` (the dependency points the other
//! way), so they live here and `jquick` re-exports them.
//!
//! * [`select_splitters`] — gather a sample to rank 0, sort it, pick
//!   `parts - 1` evenly spaced splitters, and broadcast them: the splitter
//!   step of the sample sort, of each level of the multi-level one, and of
//!   the distributed split.
//! * [`bucket_of`] — binary-search an element into the bucket its splitters
//!   define.
//! * [`encode_runs`] / [`decode_runs`] — the staged exchange's wire format:
//!   position-tagged elements collapse into `(first_pos, len)` run headers
//!   plus a position-sorted value vector, halving the bytes of the naive
//!   `(value, position)` pair encoding whenever runs are long.

use std::sync::Arc;

use crate::datum::{Datum, SortKey};
use crate::error::Result;
use crate::msg::Tag;
use crate::transport::Transport;

/// Gather every rank's `sample` contribution to rank 0, sort the union,
/// pick `parts - 1` evenly spaced splitters, and broadcast them to all
/// ranks. Claims tags `tag` (gatherv metadata), `tag + 1` (gatherv
/// payload), and `tag + 2` (broadcast). Every rank gets the broadcast's
/// shared buffer, not a copy of its own: the splitters are only read.
///
/// Rank 0 is charged `4` compute units per gathered sample for the local
/// sort (the constant the jquick sample sort always used). Returns an
/// empty splitter vector — one bucket — when the union is empty or
/// `parts <= 1`.
pub fn select_splitters<T: SortKey + Datum>(
    tr: &impl Transport,
    sample: Vec<T>,
    parts: usize,
    tag: Tag,
) -> Result<Arc<Vec<T>>> {
    crate::sched::poll::block_inline(select_splitters_async(tr, sample, parts, tag))
}

/// [`select_splitters`] as a maybe-async core (see [`crate::coll`]'s module
/// docs for the maybe-async contract).
pub async fn select_splitters_async<T: SortKey + Datum>(
    tr: &impl Transport,
    sample: Vec<T>,
    parts: usize,
    tag: Tag,
) -> Result<Arc<Vec<T>>> {
    let gathered = crate::coll::gatherv_async(tr, sample, 0, tag).await?;
    let splitters = gathered.map(|per_rank| {
        let mut all: Vec<T> = per_rank.into_iter().flatten().collect();
        tr.charge_compute(all.len() * 4);
        all.sort_by(T::cmp_key);
        Arc::new(if all.is_empty() || parts <= 1 {
            Vec::new()
        } else {
            (1..parts).map(|i| all[i * all.len() / parts]).collect()
        })
    });
    crate::coll::bcast_shared_async(tr, splitters, 0, tag + 2).await
}

/// The bucket index of `x` among the `splitters.len() + 1` buckets the
/// splitters define: bucket `i` holds the elements between splitter `i-1`
/// (exclusive) and splitter `i` (inclusive).
pub fn bucket_of<T: SortKey>(splitters: &[T], x: &T) -> usize {
    splitters.partition_point(|s| s.cmp_key(x).is_lt())
}

/// Run-length-encode position-tagged elements for a staged exchange's wire
/// format. `tagged` **must be sorted by position**; consecutive positions
/// collapse into one `(first_pos, len)` header, and the values ship
/// position-sorted in a separate plain `Vec<T>`. Compared to a
/// `Vec<(T, u64)>` pair encoding (16 bytes per `u64` element), this costs
/// `8·n + 16·runs` bytes — **half** whenever runs are long, which they are
/// by construction when each process ships a handful of contiguous
/// partition chunks per round. Headers and values travel as two messages
/// (payloads are typed, not serialized), so a non-empty edge pays one
/// extra α; empty edges elide the values frame and cost one α as before.
pub fn encode_runs<T: SortKey>(tagged: Vec<(T, u64)>) -> (Vec<(u64, u64)>, Vec<T>) {
    let mut runs: Vec<(u64, u64)> = Vec::with_capacity(4);
    let mut vals: Vec<T> = Vec::with_capacity(tagged.len());
    for &(x, pos) in &tagged {
        match runs.last_mut() {
            Some((first, len)) if *first + *len == pos => *len += 1,
            _ => runs.push((pos, 1)),
        }
        vals.push(x);
    }
    (runs, vals)
}

/// Inverse of [`encode_runs`]: expand `(first_pos, len)` headers and the
/// position-sorted values back into `(value, position)` pairs.
///
/// # Panics
/// If the header lengths do not sum to `vals.len()` (a framing bug).
pub fn decode_runs<T: SortKey>(runs: &[(u64, u64)], vals: Vec<T>) -> Vec<(T, u64)> {
    let total: u64 = runs.iter().map(|&(_, len)| len).sum();
    assert_eq!(
        total as usize,
        vals.len(),
        "staged-exchange framing mismatch"
    );
    let mut out = Vec::with_capacity(vals.len());
    let mut i = 0;
    for &(first, len) in runs {
        for k in 0..len {
            out.push((vals[i], first + k));
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn bucket_of_partitions_value_space() {
        let splitters = [10u64, 20, 30];
        assert_eq!(bucket_of(&splitters, &5), 0);
        assert_eq!(bucket_of(&splitters, &10), 0); // splitter goes left
        assert_eq!(bucket_of(&splitters, &11), 1);
        assert_eq!(bucket_of(&splitters, &30), 2);
        assert_eq!(bucket_of(&splitters, &31), 3);
        assert_eq!(bucket_of::<u64>(&[], &7), 0);
    }

    #[test]
    fn splitters_are_sorted_and_agreed() {
        let res = Universe::run_default(6, |env| {
            let w = &env.world;
            use crate::transport::Transport;
            // Each rank contributes two deterministic samples.
            let r = w.rank() as u64;
            select_splitters(w, vec![r * 10, r * 10 + 5], 4, 600).unwrap()
        });
        let first = &res.per_rank[0];
        assert_eq!(first.len(), 3);
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        for s in &res.per_rank {
            assert_eq!(s, first, "all ranks must agree on the splitters");
            // One buffer, the broadcast's, not a copy per rank.
            assert!(Arc::ptr_eq(s, first), "one shared buffer");
        }
    }

    #[test]
    fn empty_sample_means_one_bucket() {
        let res = Universe::run_default(3, |env| {
            select_splitters::<u64>(&env.world, Vec::new(), 8, 600).unwrap()
        });
        for s in res.per_rank {
            assert!(s.is_empty());
        }
    }

    #[test]
    fn runs_roundtrip_and_compress() {
        // Two contiguous chunks and one stray element.
        let tagged: Vec<(u64, u64)> = (100..180u64)
            .map(|p| (p * 3, p))
            .chain((500..520u64).map(|p| (p * 3, p)))
            .chain(std::iter::once((9u64, 900u64)))
            .collect();
        let n = tagged.len();
        let (runs, vals) = encode_runs(tagged.clone());
        assert_eq!(runs, vec![(100, 80), (500, 20), (900, 1)]);
        assert_eq!(vals.len(), n);
        assert_eq!(decode_runs(&runs, vals.clone()), tagged);
        // Wire bytes: pairs shipped 16·n; runs ship 8·n + 16·runs.
        let pair_bytes = n * std::mem::size_of::<(u64, u64)>();
        let run_bytes = vals.len() * 8 + runs.len() * 16;
        assert!(
            run_bytes * 100 <= pair_bytes * 53,
            "run encoding must roughly halve staged bytes: {run_bytes} vs {pair_bytes}"
        );
    }

    #[test]
    fn runs_empty_and_singletons() {
        let (runs, vals) = encode_runs::<u64>(Vec::new());
        assert!(runs.is_empty() && vals.is_empty());
        assert_eq!(decode_runs::<u64>(&runs, vals), Vec::new());
        // Fully scattered positions degrade to one run per element (worst
        // case: same bytes as the pair encoding, never more).
        let tagged: Vec<(u64, u64)> = (0..10u64).map(|p| (p, p * 2)).collect();
        let (runs, vals) = encode_runs(tagged.clone());
        assert_eq!(runs.len(), 10);
        assert_eq!(decode_runs(&runs, vals), tagged);
    }
}
