//! Multi-level (k-way) sample sort — the middle point of the paper's §IV
//! trade-off spectrum: "multi-level variants of sample sort agree on k−1
//! pivots, partition local data into k pieces, route piece i to process
//! group i and recursively invoke sample sort on each process group."
//!
//! Like JQuick, the recursion creates one process group per piece on every
//! level — which is exactly where lightweight communicators matter. This
//! implementation splits groups with `rbc::Split_RBC_Comm` (O(1), local),
//! so the recursion costs no communicator construction at all; §IV notes
//! that recursive implementations with native MPI "create new
//! communicators on each level ... \[which\] usually prohibits
//! polylogarithmic running time".
//!
//! Unlike JQuick, data balance is only approximate (splitter quality), and
//! the group sizes are fixed fractions of p — the two §IV weaknesses
//! JQuick was designed to fix.

use mpisim::distsort::select_splitters_async;
use mpisim::{block_inline, coll, recv_async, MpiError, Result, SortKey, Src, Transport};
use rbc::RbcComm;

use crate::partition::{from_ordinals, local_sort_charged, to_ordinals};
use crate::pivot::draw_samples;
use crate::verify::KeyBits;

/// Splitter selection: sample gatherv (+1 payload) and broadcast (+2).
const TAG_SAMPLES: u64 = 110;
const TAG_ROUTE: u64 = 115;

/// Configuration of the k-way recursion.
#[derive(Clone, Copy, Debug)]
pub struct MultiLevelCfg {
    /// Fan-out per level (k = 2 degenerates to quicksort-like halving).
    pub fanout: usize,
    /// Samples contributed per process per level.
    pub oversample: u64,
}

impl Default for MultiLevelCfg {
    fn default() -> Self {
        MultiLevelCfg {
            fanout: 4,
            oversample: 24,
        }
    }
}

/// Statistics of one multi-level sort.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MlStats {
    /// Recursion levels executed.
    pub levels: u32,
    /// Communicator splits performed across all levels.
    pub group_splits: usize,
}

/// Sort the union of all processes' `data` over the RBC communicator
/// `comm`. Returns this process's sorted piece (sizes balanced only
/// approximately) plus statistics.
pub fn multilevel_sample_sort<T: SortKey + mpisim::Datum>(
    comm: &RbcComm,
    data: Vec<T>,
    cfg: &MultiLevelCfg,
) -> Result<(Vec<T>, MlStats)> {
    block_inline(multilevel_sample_sort_async(comm, data, cfg))
}

/// [`multilevel_sample_sort`] as a maybe-async core (see
/// [`mpisim::coll`]'s module docs). Sorts the keys' order-preserving
/// images, as [`crate::jquick_sort_async`] does.
pub async fn multilevel_sample_sort_async<T: SortKey + mpisim::Datum>(
    comm: &RbcComm,
    data: Vec<T>,
    cfg: &MultiLevelCfg,
) -> Result<(Vec<T>, MlStats)> {
    if cfg.fanout < 2 {
        return Err(MpiError::Usage("fanout must be at least 2".into()));
    }
    let mut data = to_ordinals(data);
    let mut stats = MlStats::default();
    let mut comm = comm.clone();

    while comm.size() > 1 {
        // Per-level route tag: a process that races ahead into the next
        // level must not have its messages matched by a neighbour's
        // current-level wildcard receive.
        let route_tag = TAG_ROUTE + 2 * stats.levels as u64;
        stats.levels += 1;
        let p = comm.size();
        let k = cfg.fanout.min(p);

        // 1. Agree on k-1 splitters from a gathered sample.
        let samples = draw_samples(&data, cfg.oversample, comm.state());
        let splitters = select_splitters_async(&comm, samples, k, TAG_SAMPLES).await?;

        // 2. Partition into k pieces and route piece i to group i.
        //    Groups are contiguous rank ranges of near-equal size.
        let group_of = |rank: usize| -> usize { (rank * k / p).min(k - 1) };
        let bounds: Vec<(usize, usize)> = (0..k)
            .map(|gi| {
                let f = (gi * p).div_ceil(k);
                let l = ((gi + 1) * p).div_ceil(k) - 1;
                (f, l)
            })
            .collect();
        let my_group = group_of(comm.rank());
        comm.charge_compute(data.len() * k.ilog2().max(1) as usize);
        let mut pieces: Vec<Vec<T::Ordinal>> = (0..k).map(|_| Vec::new()).collect();
        for x in data.drain(..) {
            let gi = splitters.partition_point(|s| s.cmp_key(&x).is_le());
            pieces[gi].push(x);
        }
        // Route piece i to a process of group i chosen round-robin by my
        // rank (spreads load); receive everything addressed to me.
        let mut expected_senders = 0usize;
        for sender in 0..p {
            let (f, l) = bounds[group_of(comm.rank())];
            let target_for_sender = f + (sender % (l - f + 1));
            if target_for_sender == comm.rank() && sender != comm.rank() {
                expected_senders += 1;
            }
        }
        for (gi, piece) in pieces.into_iter().enumerate() {
            let (f, l) = bounds[gi];
            let target = f + (comm.rank() % (l - f + 1));
            if target == comm.rank() {
                data.extend(piece);
            } else {
                comm.send_vec(piece, target, route_tag)?;
            }
        }
        for _ in 0..expected_senders {
            let (v, _) = recv_async::<T::Ordinal, _>(&comm, Src::Any, route_tag).await?;
            data.extend(v);
        }

        // 3. Recurse into my group: an O(1) local RBC split.
        let (f, l) = bounds[my_group];
        comm = comm.split(f, l)?;
        stats.group_splits += 1;
    }

    local_sort_charged(&comm, &mut data);
    Ok((from_ordinals(data), stats))
}

/// Sort + distributed verification, for tests and benches.
pub fn multilevel_checked<T: SortKey + mpisim::Datum + KeyBits>(
    world: &RbcComm,
    data: Vec<T>,
    cfg: &MultiLevelCfg,
) -> Result<(Vec<T>, crate::verify::VerifyReport, MlStats)> {
    let fp = crate::verify::fingerprint(&data);
    let (out, stats) = multilevel_sample_sort(world, data, cfg)?;
    // Pieces land on group-leader order == rank order; verify globally.
    let rep = crate::verify::verify_sorted(world, &out, fp, out.len())?;
    coll::barrier(world, TAG_SAMPLES + 8)?;
    Ok((out, rep, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::Universe;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn run_case(p: usize, n_per: usize, fanout: usize, seed: u64) -> Vec<MlStats> {
        let res = Universe::run_default(p, move |env| {
            let world = RbcComm::create(&env.world);
            let mut rng = StdRng::seed_from_u64(seed + world.rank() as u64);
            let data: Vec<u64> = (0..n_per).map(|_| rng.gen_range(0..1_000_000)).collect();
            let cfg = MultiLevelCfg {
                fanout,
                ..Default::default()
            };
            let (_, rep, stats) = multilevel_checked(&world, data, &cfg).unwrap();
            assert!(
                rep.locally_sorted && rep.globally_ordered && rep.permutation_preserved,
                "p={p} fanout={fanout}: {rep:?}"
            );
            stats
        });
        res.per_rank
    }

    #[test]
    fn sorts_with_various_fanouts() {
        for fanout in [2usize, 3, 4, 8] {
            run_case(8, 100, fanout, 1);
            run_case(9, 60, fanout, 2);
        }
    }

    #[test]
    fn level_count_is_log_k_of_p() {
        let stats = run_case(16, 50, 4, 3);
        // 16 processes, fanout 4: exactly 2 levels.
        assert!(stats.iter().all(|s| s.levels == 2), "{stats:?}");
        let stats = run_case(16, 50, 2, 4);
        assert!(stats.iter().all(|s| s.levels == 4), "{stats:?}");
    }

    #[test]
    fn single_process_trivial() {
        let res = Universe::run_default(1, |env| {
            let world = RbcComm::create(&env.world);
            let (out, stats) =
                multilevel_sample_sort(&world, vec![3u64, 1, 2], &MultiLevelCfg::default())
                    .unwrap();
            (out, stats.levels)
        });
        assert_eq!(res.per_rank[0], (vec![1, 2, 3], 0));
    }

    #[test]
    fn duplicates_and_empty_ranks() {
        let res = Universe::run_default(6, |env| {
            let world = RbcComm::create(&env.world);
            let data = if world.rank().is_multiple_of(2) {
                vec![7u64; 30]
            } else {
                Vec::new()
            };
            let (out, rep, _) =
                multilevel_checked(&world, data, &MultiLevelCfg::default()).unwrap();
            assert!(rep.globally_ordered && rep.permutation_preserved, "{rep:?}");
            out.len()
        });
        let total: usize = res.per_rank.iter().sum();
        assert_eq!(total, 90);
    }

    #[test]
    fn rejects_fanout_one() {
        let res = Universe::run_default(2, |env| {
            let world = RbcComm::create(&env.world);
            multilevel_sample_sort(
                &world,
                vec![1u64],
                &MultiLevelCfg {
                    fanout: 1,
                    oversample: 4,
                },
            )
            .err()
        });
        assert!(matches!(res.per_rank[0], Some(MpiError::Usage(_))));
    }
}
