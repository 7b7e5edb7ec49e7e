//! Distributed-sort `MPI_Comm_split` vs the legacy all-gather oracle.
//!
//! The distributed algorithm (`SplitAlgo::DistributedSort`, the default)
//! must produce *identical* `(color → ordered member list)` tables, new
//! ranks, group sizes, and context IDs as the textbook all-gather split it
//! replaces — for random colors, random (colliding) keys, and
//! `MPI_UNDEFINED` ranks, and for any scheduler worker count.

use proptest::prelude::*;

use mpisim::{SimConfig, SplitAlgo, Transport, Universe};

/// What a rank observes about its new communicator: `(new_rank, size,
/// context id, ordered global member list)`; `None` for `MPI_UNDEFINED`.
type SplitView = Option<(usize, usize, String, Vec<usize>)>;

/// Deterministic per-rank `(color, key)` assignment: `None` color with
/// probability ~1/8, colors from `0..colors_max`, keys from a small range
/// so ties exercise the rank tie-breaker.
fn assignment(p: usize, colors_max: u64, seed: u64) -> Vec<(Option<u64>, u64)> {
    (0..p)
        .map(|r| {
            let mut s = seed
                .wrapping_add(r as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                | 1;
            s ^= s >> 31;
            s = s.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            s ^= s >> 29;
            let color = if s.is_multiple_of(8) {
                None
            } else {
                Some((s >> 3) % colors_max)
            };
            let key = (s >> 17) % 4;
            (color, key)
        })
        .collect()
}

fn split_tables(
    p: usize,
    cfg: SimConfig,
    assign: &[(Option<u64>, u64)],
) -> (Vec<SplitView>, Vec<mpisim::Time>) {
    // A future body: these universes go to p = 1024, several per case.
    let assign = &assign.to_vec();
    let res = Universe::run_poll(p, cfg, move |env| async move {
        let w = &env.world;
        let (color, key) = assign[w.rank()];
        w.split_with_async(color, key).await.unwrap().map(|c| {
            (
                c.rank(),
                c.size(),
                format!("{}", c.ctx()),
                c.group().iter_globals().collect::<Vec<_>>(),
            )
        })
    });
    (res.per_rank, res.clocks)
}

/// Run one assignment under both algorithms at 1 and 4 workers and
/// assert table equality plus worker-count determinism.
fn check_case(p: usize, colors_max: u64, seed: u64) {
    let assign = assignment(p, colors_max, seed);
    let mut oracle: Option<Vec<SplitView>> = None;
    for workers in [1, 4] {
        let cfg = SimConfig::default().with_workers(workers).with_seed(seed);
        let (dist, dist_clocks) = split_tables(p, cfg.clone(), &assign);
        let allgather = cfg.clone().with_split_algo(SplitAlgo::Allgather);
        let (gath, _) = split_tables(p, allgather, &assign);
        assert_eq!(
            dist, gath,
            "distributed split must equal the all-gather oracle (p={p} seed={seed})"
        );
        // Both worker counts agree on the tables too.
        match &oracle {
            None => oracle = Some(dist),
            Some(o) => assert_eq!(
                &dist, o,
                "tables must not depend on the worker count (p={p} seed={seed})"
            ),
        }
        // Virtual time of the distributed run is a pure function of the
        // program.
        let (_, again) = split_tables(p, cfg, &assign);
        assert_eq!(dist_clocks, again, "clocks must be stable");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    // The satellite oracle at the small and medium scales: p = 7 (odd,
    // partial buckets) and p = 64.
    #[test]
    fn distributed_split_matches_allgather_oracle(
        colors_max in 1u64..6,
        seed in any::<u64>(),
    ) {
        for p in [7usize, 64] {
            check_case(p, colors_max, seed);
        }
    }
}

/// The large point of the oracle sweep: p = 1024 at 1 and 4 workers
/// (fixed seeds — each case runs six thousand-rank universes, so the
/// sweep stays out of the proptest loop).
#[test]
fn distributed_split_matches_oracle_at_1024() {
    for seed in [3u64, 0xA5A5_5A5A] {
        check_case(1024, 5, seed);
    }
}

/// `MPI_UNDEFINED` everywhere: both algorithms must return `None` on every
/// rank without claiming a context ID.
#[test]
fn all_undefined_yields_no_communicator() {
    for algo in [SplitAlgo::DistributedSort, SplitAlgo::Allgather] {
        let res = Universe::run(5, SimConfig::default().with_split_algo(algo), |env| {
            env.world.split_with(None, 7).unwrap().is_none()
        });
        assert!(res.per_rank.into_iter().all(|b| b), "algo {algo:?}");
    }
}

/// Key collisions fall back to parent-rank order — the MPI-specified tie
/// break — identically under both algorithms.
#[test]
fn equal_keys_break_ties_by_parent_rank() {
    for algo in [SplitAlgo::DistributedSort, SplitAlgo::Allgather] {
        let res = Universe::run(8, SimConfig::default().with_split_algo(algo), |env| {
            let w = &env.world;
            let c = w.split(0, 42).unwrap();
            (c.rank(), c.group().iter_globals().collect::<Vec<_>>())
        });
        for (r, (nr, members)) in res.per_rank.into_iter().enumerate() {
            assert_eq!(nr, r, "algo {algo:?}");
            assert_eq!(members, (0..8).collect::<Vec<_>>(), "algo {algo:?}");
        }
    }
}
