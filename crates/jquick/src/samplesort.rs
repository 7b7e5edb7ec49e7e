//! Single-level sample sort baseline (paper §IV, \[15\]).
//!
//! p−1 splitters are chosen from a random sample of the input; every
//! process partitions its data into p buckets and routes bucket i to
//! process i in one all-to-all. Efficient only for n = Ω(p²/log p) — the
//! other end of the trade-off spectrum from hypercube quicksort — and its
//! output balance depends on sample quality.

use mpisim::{block_inline, coll, Datum, Result, SortKey, Transport};

use crate::partition::{from_ordinals, local_sort_charged, to_ordinals};
use crate::pivot::draw_samples;
use crate::verify::KeyBits;

const TAG_SAMPLES: u64 = 90;
const TAG_A2A: u64 = 92;

/// Oversampling factor: each process contributes `oversample` samples.
#[derive(Clone, Copy, Debug)]
pub struct SampleSortCfg {
    /// Samples contributed per process for splitter selection.
    pub oversample: u64,
}

impl Default for SampleSortCfg {
    fn default() -> Self {
        SampleSortCfg { oversample: 16 }
    }
}

/// Sort over all processes of `world`. Returns this process's sorted
/// bucket (sizes balanced only in expectation).
pub fn sample_sort<T: SortKey + Datum>(
    world: &impl Transport,
    data: Vec<T>,
    cfg: &SampleSortCfg,
) -> Result<Vec<T>> {
    block_inline(sample_sort_async(world, data, cfg))
}

/// [`sample_sort`] as a maybe-async core (see [`mpisim::coll`]'s module
/// docs). Sorts the keys' order-preserving images, as
/// [`crate::jquick_sort_async`] does.
pub async fn sample_sort_async<T: SortKey + Datum>(
    world: &impl Transport,
    data: Vec<T>,
    cfg: &SampleSortCfg,
) -> Result<Vec<T>> {
    let p = world.size();
    let mut data = to_ordinals(data);
    if p == 1 {
        data.sort_unstable_by(SortKey::cmp_key);
        return Ok(from_ordinals(data));
    }

    // 1. Sample and select p-1 splitters on rank 0, broadcast — the
    //    splitter machinery shared with mpisim's distributed comm_split.
    let samples = draw_samples(&data, cfg.oversample, world.state());
    let splitters =
        mpisim::distsort::select_splitters_async(world, samples, p, TAG_SAMPLES).await?;

    // 2. Partition into p buckets by binary search on the splitters.
    let mut buckets: Vec<Vec<T::Ordinal>> = (0..p).map(|_| Vec::new()).collect();
    let log_p = (usize::BITS - (p - 1).leading_zeros()) as usize;
    world.charge_compute(data.len() * log_p.max(1));
    for x in data {
        let idx = splitters.partition_point(|s| s.cmp_key(&x).is_le());
        buckets[idx].push(x);
    }

    // 3. One all-to-all exchange ("moves the data only once"), then local
    //    sort of the received pieces.
    let received = coll::alltoallv_async(world, buckets, TAG_A2A).await?;
    let mut out: Vec<T::Ordinal> = received.into_iter().flatten().collect();
    local_sort_charged(world, &mut out);
    Ok(from_ordinals(out))
}

/// Sort + verify, for tests and benches.
pub fn sample_sort_checked<T: SortKey + Datum + KeyBits>(
    world: &impl Transport,
    data: Vec<T>,
    cfg: &SampleSortCfg,
) -> Result<(Vec<T>, crate::verify::VerifyReport, f64)> {
    let fp = crate::verify::fingerprint(&data);
    let out = sample_sort(world, data, cfg)?;
    let rep = crate::verify::verify_sorted(world, &out, fp, out.len())?;
    let imb = crate::verify::imbalance_factor(world, out.len())?;
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
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(w.rank() as u64 * 77));
            let data: Vec<f64> = (0..n_per).map(|_| rng.gen_range(-1e6..1e6)).collect();
            sample_sort_checked(w, data, &SampleSortCfg::default()).unwrap()
        });
        let mut total = 0;
        for (out, rep, _) in &res.per_rank {
            assert!(
                rep.locally_sorted && rep.globally_ordered && rep.permutation_preserved,
                "{rep:?}"
            );
            total += out.len();
        }
        assert_eq!(total, p * n_per);
    }

    #[test]
    fn sorts_any_process_count() {
        run_case(1, 40, 0);
        run_case(3, 40, 1);
        run_case(4, 25, 2);
        run_case(7, 30, 3);
    }

    #[test]
    fn handles_duplicates_and_empties() {
        let res = Universe::run_default(5, |env| {
            let w = &env.world;
            let data = if w.rank() % 2 == 0 {
                vec![42u64; 20]
            } else {
                Vec::new()
            };
            sample_sort_checked(w, data, &SampleSortCfg::default()).unwrap()
        });
        let total: usize = res.per_rank.iter().map(|(o, _, _)| o.len()).sum();
        assert_eq!(total, 60);
        for (_, rep, _) in res.per_rank {
            assert!(rep.globally_ordered && rep.permutation_preserved);
        }
    }

    #[test]
    fn oversampling_improves_balance() {
        let imb_with = |oversample: u64| {
            let res = Universe::run_default(8, move |env| {
                let w = &env.world;
                let mut rng = StdRng::seed_from_u64(5 + w.rank() as u64);
                let data: Vec<u64> = (0..256).map(|_| rng.gen()).collect();
                let (_, _, imb) =
                    sample_sort_checked(w, data, &SampleSortCfg { oversample }).unwrap();
                imb
            });
            res.per_rank[0]
        };
        let rough = imb_with(2);
        let fine = imb_with(64);
        assert!(
            fine <= rough * 1.5,
            "more samples should not hurt balance much: {rough} -> {fine}"
        );
    }
}
