//! Large-input collective algorithms (paper §V-D: "It is easy to extend
//! our library by additional collective operations, e.g., for large input
//! sizes", citing Sanders/Speck/Träff's full-bandwidth algorithms \[7\]).
//!
//! The binomial algorithms in [`crate::coll`] are optimal for small inputs
//! (O(α log p) startups) but move β·l·log p volume on the bottleneck path.
//! The full-bandwidth alternatives here run on `coll`'s own trees, each in
//! a block of consecutive tags from `tag` (RBC's are
//! [`crate::tags::BCAST_LARGE`] and [`crate::tags::REDUCE_LARGE`]):
//!
//! * [`bcast_large`] — van de Geijn, tags `tag..=tag+3`: the root's length
//!   down the binomial tree (`tag`), [`coll::scatterv`] of p segments,
//!   segment `i` to rank `root + i` (`tag+1`, `tag+2`), then a p−1 round
//!   ring all-gather from `rank − 1` to `rank + 1` (`tag+3`). ≈ 2·l·β
//!   volume plus O(α·(p + log p)): wins once `l·β ≫ p·α`. Fewer elements
//!   than ranks take the binomial broadcast on `tag+1`.
//! * [`reduce_large`] — tags `tag..=tag+2`: recursive-halving
//!   reduce-scatter, log p rounds swapping half the current slice with
//!   `rank ^ half` (`tag`), leaving rank `i` the `i`-th slice, then one
//!   [`coll::gatherv`] to the root (`tag+1`, `tag+2`), which concatenates.
//!   ≈ 2·l·β volume. Unless p is a power of two and there are at least p
//!   elements, it is the binomial [`coll::reduce`] on `tag`.
//! * [`bcast_auto`] / [`reduce_auto`] — in the large algorithm's tag block,
//!   pick by size against [`large_threshold_bytes`], like production MPI
//!   implementations. `bcast_auto` broadcasts the length once and below
//!   the crossover takes the binomial broadcast on `tag+1`; `reduce_auto`
//!   decides on the local count, which MPI requires to agree.
//!
//! Each is an `*_async` core driven by [`block_inline`], as in `coll`.

use crate::coll;
use crate::datum::Datum;
use crate::error::Result;
use crate::msg::Tag;
use crate::sched::poll::block_inline;
use crate::transport::{recv_async, Src, Transport};

/// Crossover: below this many bytes the binomial algorithms win.
/// Derived from `2·l·β + p·α < log p · (α + l·β)` at the default model;
/// kept simple and documented rather than tuned per machine.
pub fn large_threshold_bytes(p: usize, alpha_ns: u64, beta_ns_per_byte: f64) -> usize {
    if p < 4 || beta_ns_per_byte <= 0.0 {
        return usize::MAX;
    }
    let log_p = (usize::BITS - (p - 1).leading_zeros()) as f64;
    // (log p - 2) · l·β  >  (p - log p) · α   =>   l > (p-log p)·α / ((log p-2)·β)
    let denom = (log_p - 2.0) * beta_ns_per_byte;
    if denom <= 0.0 {
        return usize::MAX;
    }
    (((p as f64 - log_p) * alpha_ns as f64) / denom) as usize
}

/// Whether a payload of `bytes` is past the crossover on `tr`'s cost model.
fn is_large(tr: &impl Transport, bytes: usize) -> bool {
    let model = &tr.state().router.cost;
    bytes >= large_threshold_bytes(tr.size(), model.alpha.as_nanos(), model.beta_ns_per_byte)
}

/// Split `len` into `parts` contiguous segments (first `len % parts` get
/// one extra).
fn segment(len: usize, parts: usize, i: usize) -> (usize, usize) {
    let base = len / parts;
    let rem = len % parts;
    let start = i * base + i.min(rem);
    let sz = base + usize::from(i < rem);
    (start, sz)
}

/// The slice `[lo, hi)` of `0..len` that recursive halving into `n` (a
/// power of two) parts leaves with part `i`: each bit of `i`, highest
/// first, keeps the lower (0) or upper (1) half, so part `i` is the `i`-th
/// slice in order.
fn halving_slice(i: usize, n: usize, len: usize) -> (usize, usize) {
    let (mut lo, mut hi) = (0, len);
    let mut bit = n / 2;
    while bit > 0 {
        let mid = lo + (hi - lo) / 2;
        (lo, hi) = if i & bit == 0 { (lo, mid) } else { (mid, hi) };
        bit >>= 1;
    }
    (lo, hi)
}

/// Van-de-Geijn broadcast: scatter + ring allgather. Falls back to the
/// binomial broadcast for fewer elements than ranks. Uses tags
/// `tag..=tag+3` (see the module docs).
pub fn bcast_large<T: Datum>(
    tr: &impl Transport,
    data: &mut Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<()> {
    block_inline(bcast_large_async(tr, data, root, tag))
}

/// [`bcast_large`] as a maybe-async core.
pub async fn bcast_large_async<T: Datum>(
    tr: &impl Transport,
    data: &mut Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<()> {
    bcast_sized(tr, data, root, tag, false).await
}

/// [`bcast_large`] (`auto` false) and [`bcast_auto`] (`auto` true): the
/// root's length decides, once every rank has it.
async fn bcast_sized<T: Datum>(
    tr: &impl Transport,
    data: &mut Vec<T>,
    root: usize,
    tag: Tag,
    auto: bool,
) -> Result<()> {
    let (p, r) = (tr.size(), tr.rank());
    let mut len = vec![data.len() as u64];
    coll::bcast_async(tr, &mut len, root, tag).await?;
    let len = len[0] as usize;
    if len < p || (auto && !is_large(tr, len * T::width())) {
        return coll::bcast_async(tr, data, root, tag + 1).await;
    }
    let rel = (r + p - root) % p;
    let blocks = (rel == 0).then(|| {
        let mut segs: Vec<Vec<T>> = (0..p)
            .map(|i| {
                let (start, sz) = segment(len, p, i);
                data[start..start + sz].to_vec()
            })
            .collect();
        segs.rotate_right(root);
        segs
    });
    // `segments[i]` is the segment rank `root + i` starts with.
    let mut segments: Vec<Vec<T>> = vec![Vec::new(); p];
    segments[rel] = coll::scatterv_async(tr, blocks, root, tag + 1).await?;
    let mut have = rel;
    for _ in 1..p {
        tr.send(&segments[have], (r + 1) % p, tag + 3)?;
        have = (have + p - 1) % p;
        segments[have] = recv_async::<T, _>(tr, Src::Rank((r + p - 1) % p), tag + 3)
            .await?
            .0;
    }
    *data = segments.concat();
    Ok(())
}

/// Reduce via recursive-halving reduce-scatter + binomial gather to root.
/// Requires a commutative, associative `op`. Uses tags `tag..=tag+2` (see
/// the module docs).
pub fn reduce_large<T: Datum>(
    tr: &impl Transport,
    data: &[T],
    root: usize,
    tag: Tag,
    op: impl Fn(&T, &T) -> T,
) -> Result<Option<Vec<T>>> {
    block_inline(reduce_large_async(tr, data, root, tag, op))
}

/// [`reduce_large`] as a maybe-async core.
pub async fn reduce_large_async<T: Datum>(
    tr: &impl Transport,
    data: &[T],
    root: usize,
    tag: Tag,
    op: impl Fn(&T, &T) -> T,
) -> Result<Option<Vec<T>>> {
    let (p, r, len) = (tr.size(), tr.rank(), data.len());
    tr.check_rank(root)?;
    if !p.is_power_of_two() || len < p {
        // Recursive halving needs a power of two; fall back otherwise.
        return coll::reduce_async(tr, data, root, tag, op).await;
    }
    // `buf` reduces part `r / group` of `p / group`, `group` this rank's
    // group, which halves every round.
    let mut buf = data.to_vec();
    let mut group = p;
    while group > 1 {
        let half = group / 2;
        let partner = r ^ half;
        let (lo, _) = halving_slice(r / group, p / group, len);
        let keep = halving_slice(r / half, p / half, len);
        let give = halving_slice(partner / half, p / half, len);
        tr.send(&buf[give.0 - lo..give.1 - lo], partner, tag)?;
        let (v, _) = recv_async::<T, _>(tr, Src::Rank(partner), tag).await?;
        let mut kept = buf[keep.0 - lo..keep.1 - lo].to_vec();
        for (a, b) in kept.iter_mut().zip(&v) {
            *a = op(a, b);
        }
        tr.charge_compute(kept.len());
        buf = kept;
        group = half;
    }
    let parts = coll::gatherv_async(tr, buf, root, tag + 1).await?;
    Ok(parts.map(|parts| parts.concat()))
}

/// Size-adaptive broadcast. Uses [`bcast_large`]'s tags.
pub fn bcast_auto<T: Datum>(
    tr: &impl Transport,
    data: &mut Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<()> {
    block_inline(bcast_auto_async(tr, data, root, tag))
}

/// [`bcast_auto`] as a maybe-async core.
pub async fn bcast_auto_async<T: Datum>(
    tr: &impl Transport,
    data: &mut Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<()> {
    bcast_sized(tr, data, root, tag, true).await
}

/// Size-adaptive reduction. Uses [`reduce_large`]'s tags.
pub fn reduce_auto<T: Datum>(
    tr: &impl Transport,
    data: &[T],
    root: usize,
    tag: Tag,
    op: impl Fn(&T, &T) -> T,
) -> Result<Option<Vec<T>>> {
    block_inline(reduce_auto_async(tr, data, root, tag, op))
}

/// [`reduce_auto`] as a maybe-async core.
pub async fn reduce_auto_async<T: Datum>(
    tr: &impl Transport,
    data: &[T],
    root: usize,
    tag: Tag,
    op: impl Fn(&T, &T) -> T,
) -> Result<Option<Vec<T>>> {
    if is_large(tr, data.len() * T::width()) {
        reduce_large_async(tr, data, root, tag, op).await
    } else {
        coll::reduce_async(tr, data, root, tag, op).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::ops;
    use crate::universe::Universe;
    use crate::Time;

    #[test]
    fn segments_partition_exactly() {
        for (len, parts) in [(10usize, 3usize), (16, 4), (7, 7), (100, 9)] {
            let mut covered = 0;
            for i in 0..parts {
                let (start, sz) = segment(len, parts, i);
                assert_eq!(start, covered);
                covered += sz;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn bcast_large_matches_binomial() {
        for p in [2usize, 3, 4, 5, 8, 13] {
            for len in [p, 3 * p + 1, 64 * p] {
                for root in [0, p - 1] {
                    let res = Universe::run_default(p, move |env| {
                        let w = &env.world;
                        let mut data = if w.rank() == root {
                            (0..len as u64).collect()
                        } else {
                            Vec::new()
                        };
                        bcast_large(w, &mut data, root, 700).unwrap();
                        data
                    });
                    let expected: Vec<u64> = (0..len as u64).collect();
                    for v in res.per_rank {
                        assert_eq!(v, expected, "p={p} len={len} root={root}");
                    }
                }
            }
        }
    }

    #[test]
    fn bcast_large_beats_binomial_for_big_payloads() {
        let p = 16;
        let len = 1 << 16; // 512 KiB of u64
        let time_of = |large: bool| {
            let res = Universe::run_default(p, move |env| {
                let w = &env.world;
                let mut data = if w.rank() == 0 {
                    vec![7u64; len]
                } else {
                    Vec::new()
                };
                let t0 = env.now();
                if large {
                    bcast_large(w, &mut data, 0, 700).unwrap();
                } else {
                    crate::coll::bcast(w, &mut data, 0, 700).unwrap();
                }
                env.now() - t0
            });
            res.per_rank.into_iter().max().unwrap()
        };
        let binomial = time_of(false);
        let vdg = time_of(true);
        assert!(
            vdg.as_nanos() * 3 < binomial.as_nanos() * 2,
            "scatter-allgather should win at this size: binomial={binomial} vdg={vdg}"
        );
    }

    #[test]
    fn binomial_beats_bcast_large_for_small_payloads() {
        let p = 16;
        let time_of = |large: bool| {
            let res = Universe::run_default(p, move |env| {
                let w = &env.world;
                let mut data = if w.rank() == 0 {
                    vec![7u64; 16]
                } else {
                    Vec::new()
                };
                let t0 = env.now();
                if large {
                    bcast_large(w, &mut data, 0, 700).unwrap();
                } else {
                    crate::coll::bcast(w, &mut data, 0, 700).unwrap();
                }
                env.now() - t0
            });
            res.per_rank.into_iter().max().unwrap()
        };
        assert!(time_of(false) < time_of(true));
    }

    #[test]
    fn reduce_large_matches_reference() {
        for p in [2usize, 4, 8] {
            let len = 8 * p;
            let res = Universe::run_default(p, move |env| {
                let w = &env.world;
                let data: Vec<u64> = (0..len as u64).map(|i| i + w.rank() as u64).collect();
                reduce_large(w, &data, 0, 700, ops::sum::<u64>()).unwrap()
            });
            let expected: Vec<u64> = (0..len as u64)
                .map(|i| (0..p as u64).map(|r| i + r).sum())
                .collect();
            assert_eq!(res.per_rank[0], Some(expected), "p={p}");
            for v in &res.per_rank[1..] {
                assert_eq!(*v, None);
            }
        }
    }

    #[test]
    fn reduce_large_falls_back_for_odd_p() {
        let res = Universe::run_default(5, |env| {
            let w = &env.world;
            reduce_large(w, &[1u64, 2], 0, 700, ops::sum::<u64>()).unwrap()
        });
        assert_eq!(res.per_rank[0], Some(vec![5, 10]));
    }

    #[test]
    fn auto_variants_pick_correctly_and_stay_correct() {
        let p = 8;
        for len in [4usize, 1 << 15] {
            let res = Universe::run_default(p, move |env| {
                let w = &env.world;
                let mut b = if w.rank() == 3 {
                    vec![9u64; len]
                } else {
                    Vec::new()
                };
                bcast_auto(w, &mut b, 3, 700).unwrap();
                let r = reduce_auto(w, &vec![1u64; len], 0, 720, ops::sum::<u64>()).unwrap();
                (b.len(), b[0], r.map(|v| v[0]))
            });
            for (rank, (bl, b0, r)) in res.per_rank.into_iter().enumerate() {
                assert_eq!((bl, b0), (len, 9), "len={len}");
                if rank == 0 {
                    assert_eq!(r, Some(p as u64));
                }
            }
        }
        // Which algorithms ran: the auto pair sends as many messages and
        // ends at the same clocks as a run of the pair it should pick, and
        // sends another count than the other pair. Below p elements both
        // are binomial, so 64 elements stand in for the small payload.
        let run = |len: usize, pick: Option<bool>| {
            Universe::run_default(p, move |env| {
                let w = &env.world;
                let mut b = if w.rank() == 3 {
                    vec![9u64; len]
                } else {
                    Vec::new()
                };
                let mine = vec![1u64; len];
                let sum = ops::sum::<u64>();
                match pick {
                    None => {
                        bcast_auto(w, &mut b, 3, 700).unwrap();
                        reduce_auto(w, &mine, 0, 720, sum).unwrap();
                    }
                    Some(true) => {
                        bcast_large(w, &mut b, 3, 700).unwrap();
                        reduce_large(w, &mine, 0, 720, sum).unwrap();
                    }
                    Some(false) => {
                        crate::coll::bcast(w, &mut vec![len as u64], 3, 700).unwrap();
                        crate::coll::bcast(w, &mut b, 3, 701).unwrap();
                        crate::coll::reduce(w, &mine, 0, 720, sum).unwrap();
                    }
                }
            })
        };
        for len in [64usize, 1 << 15] {
            let large = len * 8 >= large_threshold_bytes(p, 10_000, 1.0);
            assert_eq!(large, len == 1 << 15);
            let (auto, picked, other) = (
                run(len, None),
                run(len, Some(large)),
                run(len, Some(!large)),
            );
            assert_eq!(auto.metrics.messages, picked.metrics.messages, "len={len}");
            assert_eq!(auto.clocks, picked.clocks, "len={len}");
            assert_ne!(auto.metrics.messages, other.metrics.messages, "len={len}");
        }
    }

    #[test]
    fn halving_slices_tile_the_range_in_rank_order() {
        for (len, n) in [(8usize, 8usize), (9, 4), (100, 16), (5, 1)] {
            let mut covered = 0;
            for i in 0..n {
                let (lo, hi) = halving_slice(i, n, len);
                assert_eq!(lo, covered, "len={len} n={n} i={i}");
                assert!(hi >= lo);
                covered = hi;
            }
            assert_eq!(covered, len);
        }
    }

    /// The auto cores in future bodies (`run_poll`) against the sync
    /// functions in thread bodies (`run`), on both paths, at a power of two
    /// and at two other sizes (where `reduce_large` falls back).
    #[test]
    fn auto_cores_under_run_poll_match_the_sync_functions() {
        fn input(rank: usize, len: usize) -> (Vec<u64>, Vec<u64>) {
            let b = if rank == 3 {
                (0..len as u64).collect()
            } else {
                Vec::new()
            };
            (b, (0..len as u64).map(|i| i * 31 + rank as u64).collect())
        }
        for p in [8usize, 13, 64] {
            for len in [4usize, 1 << 15] {
                let sync = Universe::run_default(p, move |env| {
                    let w = &env.world;
                    let (mut b, mine) = input(w.rank(), len);
                    bcast_auto(w, &mut b, 3, 700).unwrap();
                    let r = reduce_auto(w, &mine, 0, 720, ops::sum::<u64>()).unwrap();
                    (b, r)
                });
                let poll =
                    Universe::run_poll(p, crate::SimConfig::default(), move |env| async move {
                        let w = &env.world;
                        let (mut b, mine) = input(w.rank(), len);
                        bcast_auto_async(w, &mut b, 3, 700).await.unwrap();
                        let r = reduce_auto_async(w, &mine, 0, 720, ops::sum::<u64>())
                            .await
                            .unwrap();
                        (b, r)
                    });
                let expected: Vec<u64> = (0..len as u64).collect();
                assert!(sync.per_rank.iter().all(|(b, _)| *b == expected));
                assert!(sync.per_rank[0].1.is_some());
                assert_eq!(sync.per_rank, poll.per_rank, "p={p} len={len}");
                assert_eq!(sync.clocks, poll.clocks, "p={p} len={len}");
            }
        }
    }

    #[test]
    fn threshold_is_sane() {
        let t = large_threshold_bytes(128, Time::from_micros(10).as_nanos(), 1.0);
        // With α = 10 µs, β = 1 ns/B, p = 128: roughly (128-7)·10000/5 ≈ 242 KB.
        assert!(t > 64 * 1024 && t < 1 << 20, "threshold {t}");
        assert_eq!(large_threshold_bytes(2, 10_000, 1.0), usize::MAX);
    }
}
