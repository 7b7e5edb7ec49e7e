//! Hypercube quicksort baseline (paper §IV, \[6\]).
//!
//! The recursive algorithm JQuick improves on: runs on exactly 2^k
//! processes, performs k levels. On each level the group agrees on a pivot,
//! every process splits its data, and the halves are exchanged with the
//! hypercube partner (`rank XOR half`). No communicators are needed — the
//! group structure is implicit in the rank bits — but **data balance is not
//! maintained**: a process can end up with far more (or fewer) than n/p
//! elements, which is exactly the weakness JQuick's assignment step fixes.

use mpisim::{block_inline, coll, recv_async, Datum, MpiError, Result, SortKey, Src, Transport};

use crate::partition::{
    from_ordinals, local_sort_charged, partition, sample_median, to_ordinals, Strictness,
};
use crate::pivot::{draw_samples, PivotCfg};

const TAG_SAMPLES: u64 = 84;
const TAG_PIVOT: u64 = 87;
const TAG_XCHG: u64 = 88;

/// Sort with hypercube quicksort over all processes of `world` (must be a
/// power of two). Returns this process's sorted slice — sizes may be
/// imbalanced.
pub fn hypercube_sort<T: SortKey + Datum>(
    world: &impl Transport,
    data: Vec<T>,
    pivot_cfg: &PivotCfg,
) -> Result<Vec<T>> {
    block_inline(hypercube_sort_async(world, data, pivot_cfg))
}

/// [`hypercube_sort`] as a maybe-async core (see [`mpisim::coll`]'s
/// module docs): the same sends and receives in the same order, awaiting
/// where the synchronous function blocks. Sorts the keys' order-preserving
/// images, as [`crate::jquick_sort_async`] does.
pub async fn hypercube_sort_async<T: SortKey + Datum>(
    world: &impl Transport,
    data: Vec<T>,
    pivot_cfg: &PivotCfg,
) -> Result<Vec<T>> {
    let p = world.size();
    if !p.is_power_of_two() {
        return Err(MpiError::Usage(format!(
            "hypercube quicksort requires a power-of-two process count, got {p}"
        )));
    }
    let r = world.rank();
    let k = p.trailing_zeros();
    let mut data = to_ordinals(data);

    for level in 0..k {
        // The current group: processes sharing my high bits. Group size
        // half = p >> level; my subgroup rank is the low bits.
        let group_size = p >> level;
        let group_first = r & !(group_size - 1);
        let half = group_size / 2;

        // Pivot: median of samples gathered to the group's first process,
        // then broadcast (blocking; the baseline has no janus processes).
        let m = pivot_cfg.per_proc(group_size as u64);
        let samples = draw_samples(&data, m, world.state());
        // Gather along a binomial tree *within the group* using explicit
        // sends (the group has no communicator — that is the point).
        let my_sub = r - group_first;
        let mut pool = samples;
        let mut mask = 1usize;
        while mask < group_size {
            if my_sub & mask == 0 {
                let src = my_sub | mask;
                if src < group_size {
                    let (v, _) = recv_async::<T::Ordinal, _>(
                        world,
                        Src::Rank(group_first + src),
                        TAG_SAMPLES,
                    )
                    .await?;
                    pool.extend(v);
                }
            } else {
                world.send_vec(pool, group_first + (my_sub & !mask), TAG_SAMPLES)?;
                pool = Vec::new();
                break;
            }
            mask <<= 1;
        }
        // An empty pool means the whole group holds no data (every process
        // with data contributes at least one sample); broadcast the empty
        // pivot and exchange empty halves.
        let mut pivot_buf = if my_sub == 0 {
            world.charge_compute(pool.len() * 4);
            if pool.is_empty() {
                Vec::new()
            } else {
                vec![sample_median(pool)]
            }
        } else {
            Vec::new()
        };
        // Broadcast within the group via a rank-shifted binomial tree.
        group_bcast(world, group_first, group_size, &mut pivot_buf).await?;

        // Partition and exchange with the partner in the other half.
        let strict = Strictness::for_level(level);
        world.charge_compute(data.len());
        let (small, large) = match pivot_buf.first() {
            Some(pivot) => partition(data, pivot, strict),
            None => (Vec::new(), Vec::new()),
        };
        let partner = r ^ half;
        let (keep, send) = if my_sub < half {
            (small, large)
        } else {
            (large, small)
        };
        world.send_vec(send, partner, TAG_XCHG)?;
        let (recvd, _) = recv_async::<T::Ordinal, _>(world, Src::Rank(partner), TAG_XCHG).await?;
        let mut merged = keep;
        merged.extend(recvd);
        data = merged;
    }

    local_sort_charged(world, &mut data);
    Ok(from_ordinals(data))
}

/// Binomial broadcast from `group_first` within the rank window
/// `[group_first, group_first + group_size)`.
async fn group_bcast<T: Datum>(
    world: &impl Transport,
    group_first: usize,
    group_size: usize,
    data: &mut Vec<T>,
) -> Result<()> {
    let my_sub = world.rank() - group_first;
    let mut mask = 1usize;
    while mask < group_size {
        if my_sub & mask != 0 {
            let src = Src::Rank(group_first + (my_sub - mask));
            let (v, _) = recv_async::<T, _>(world, src, TAG_PIVOT).await?;
            *data = v;
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if my_sub + mask < group_size {
            world.send(data, group_first + my_sub + mask, TAG_PIVOT)?;
        }
        mask >>= 1;
    }
    Ok(())
}

/// Convenience: blocking global barrier + sort + verification for tests.
pub fn hypercube_sort_checked<T: SortKey + Datum + crate::verify::KeyBits>(
    world: &impl Transport,
    data: Vec<T>,
    pivot_cfg: &PivotCfg,
) -> Result<(Vec<T>, crate::verify::VerifyReport, f64)> {
    let fp = crate::verify::fingerprint(&data);
    let out = hypercube_sort(world, data, pivot_cfg)?;
    // Hypercube qsort does not promise balance: check everything else.
    let rep = crate::verify::verify_sorted(world, &out, fp, out.len())?;
    let imb = crate::verify::imbalance_factor(world, out.len())?;
    coll::barrier(world, 94)?;
    Ok((out, rep, imb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::Universe;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn run_case(p: usize, n_per: usize, seed: u64) {
        let res = Universe::run_default(p, move |env| {
            let w = &env.world;
            let mut rng = StdRng::seed_from_u64(seed ^ w.rank() as u64);
            let data: Vec<u64> = (0..n_per).map(|_| rng.gen_range(0..10_000)).collect();
            hypercube_sort_checked(w, data, &PivotCfg::default()).unwrap()
        });
        let mut total = 0usize;
        for (out, rep, _) in &res.per_rank {
            assert!(rep.locally_sorted && rep.globally_ordered && rep.permutation_preserved);
            total += out.len();
        }
        assert_eq!(total, p * n_per);
    }

    #[test]
    fn sorts_various_power_of_two_sizes() {
        run_case(2, 50, 1);
        run_case(4, 33, 2);
        run_case(8, 20, 3);
        run_case(16, 10, 4);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let res = Universe::run_default(3, |env| {
            hypercube_sort(&env.world, vec![1u64], &PivotCfg::default()).err()
        });
        assert!(matches!(res.per_rank[0], Some(MpiError::Usage(_))));
    }

    #[test]
    fn duplicates_do_not_break_it() {
        let res = Universe::run_default(4, |env| {
            let w = &env.world;
            let data = vec![7u64; 25];
            hypercube_sort_checked(w, data, &PivotCfg::default()).unwrap()
        });
        let total: usize = res.per_rank.iter().map(|(o, _, _)| o.len()).sum();
        assert_eq!(total, 100);
        for (_, rep, _) in res.per_rank {
            assert!(rep.globally_ordered && rep.permutation_preserved);
        }
    }

    #[test]
    fn skewed_input_creates_imbalance() {
        // All the small keys on one side: hypercube qsort will not balance.
        let res = Universe::run_default(8, |env| {
            let w = &env.world;
            let mut rng = StdRng::seed_from_u64(w.rank() as u64);
            // Heavily skewed distribution.
            let data: Vec<u64> = (0..64)
                .map(|_| {
                    let x: f64 = rng.gen();
                    (x * x * x * 10_000.0) as u64
                })
                .collect();
            hypercube_sort_checked(w, data, &PivotCfg { k1: 2, k3: 4 }).unwrap()
        });
        let max_imb = res
            .per_rank
            .iter()
            .map(|(_, _, i)| *i)
            .fold(0.0f64, f64::max);
        // With tiny samples and skew, some imbalance is expected (JQuick's
        // motivation). This asserts the checker sees it, not a huge value.
        assert!(max_imb >= 1.0);
    }
}
