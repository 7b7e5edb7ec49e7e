//! Shared distributed-sorting building blocks.
//!
//! The distributed-sort implementation of `MPI_Comm_split`
//! ([`crate::comm::Comm::split`]) and `jquick`'s sample sorts pick their
//! splitters the same way, but `mpisim` cannot depend on `jquick` (the
//! dependency points the other way), so the shared pieces live here.
//!
//! * [`select_splitters`] — gather a sample to rank 0, sort it, pick
//!   `parts - 1` evenly spaced splitters, and broadcast them: the splitter
//!   step of the sample sort, of each level of the multi-level one, and of
//!   the distributed split.
//! * [`bucket_of`] — binary-search an element into the bucket its splitters
//!   define.

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
}
