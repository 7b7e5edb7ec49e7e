//! Property-based tests: every collective must agree with its sequential
//! reference for arbitrary process counts, payload lengths, and values —
//! including the large-input algorithms and the nonblocking machines —
//! under any legal matching order (seeded arrival jitter).

mod common;

use common::over_jitter_seeds;
use mpisim::nbcoll::{self, Progress};
use mpisim::{coll, coll_large, ops, SimConfig, Universe};
use proptest::prelude::*;

fn universe_inputs(p: usize, len: usize, seed: u64) -> Vec<Vec<u64>> {
    (0..p)
        .map(|r| {
            let mut s = seed.wrapping_add(r as u64).wrapping_mul(0x2545F4914F6CDD1D) | 1;
            (0..len)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s % 1_000_000 // keep sums far from overflow
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    #[test]
    fn blocking_collectives_match_reference(
        p in 1usize..12,
        len in 1usize..20,
        root_sel in 0usize..12,
        seed in any::<u64>(),
    ) {
        let root = root_sel % p;
        let inputs = universe_inputs(p, len, seed);
        let expected_sum: Vec<u64> = (0..len)
            .map(|i| inputs.iter().map(|v| v[i]).sum())
            .collect();
        let expected_max: Vec<u64> = (0..len)
            .map(|i| inputs.iter().map(|v| v[i]).max().unwrap())
            .collect();
        let inputs2 = inputs.clone();
        let per_rank = over_jitter_seeds(p, SimConfig::default().with_seed(seed), move |env| {
            let w = &env.world;
            use mpisim::Transport;
            let mine = inputs2[w.rank()].clone();
            let red = coll::reduce(w, &mine, root, 3, ops::sum::<u64>()).unwrap();
            let all = coll::allreduce(w, &mine, 5, ops::max::<u64>()).unwrap();
            let sc = coll::scan(w, &mine, 7, ops::sum::<u64>()).unwrap();
            let ex = coll::exscan(w, &mine, 9, ops::sum::<u64>()).unwrap();
            let mut bc = if w.rank() == root { mine.clone() } else { Default::default() };
            coll::bcast(w, &mut bc, root, 11).unwrap();
            (red, all, sc, ex, bc)
        });
        for (r, (red, all, sc, ex, bc)) in per_rank.into_iter().enumerate() {
            if r == root {
                prop_assert_eq!(red.clone(), Some(expected_sum.clone()));
            } else {
                prop_assert_eq!(red.clone(), None);
            }
            prop_assert_eq!(all, expected_max.clone());
            let pre_sum: Vec<u64> = (0..len)
                .map(|i| inputs[..=r].iter().map(|v| v[i]).sum())
                .collect();
            prop_assert_eq!(sc, pre_sum.clone());
            if r == 0 {
                prop_assert_eq!(ex.clone(), None);
            } else {
                let excl: Vec<u64> = (0..len)
                    .map(|i| inputs[..r].iter().map(|v| v[i]).sum())
                    .collect();
                prop_assert_eq!(ex.clone(), Some(excl));
            }
            prop_assert_eq!(bc, inputs[root].clone());
        }
    }

    #[test]
    fn nonblocking_matches_blocking(
        p in 1usize..10,
        len in 1usize..16,
        seed in any::<u64>(),
    ) {
        let inputs = universe_inputs(p, len, seed);
        let inputs2 = inputs.clone();
        let per_rank = over_jitter_seeds(p, SimConfig::default().with_seed(seed), move |env| {
            let w = &env.world;
            use mpisim::Transport;
            let mine = inputs2[w.rank()].clone();
            let mut a = nbcoll::iallreduce(w, &mine, 101, ops::sum::<u64>()).unwrap();
            let mut s = nbcoll::iscan(w, &mine, 103, ops::sum::<u64>()).unwrap();
            loop {
                let da = a.poll().unwrap();
                let ds = s.poll().unwrap();
                if da && ds { break; }
                mpisim::yield_now();
            }
            (a.result().unwrap().to_vec(), s.inclusive().unwrap().to_vec())
        });
        let expected_sum: Vec<u64> = (0..len)
            .map(|i| inputs.iter().map(|v| v[i]).sum())
            .collect();
        for (r, (all, sc)) in per_rank.into_iter().enumerate() {
            prop_assert_eq!(all, expected_sum.clone());
            let pre: Vec<u64> = (0..len)
                .map(|i| inputs[..=r].iter().map(|v| v[i]).sum())
                .collect();
            prop_assert_eq!(sc, pre);
        }
    }

    #[test]
    fn large_input_algorithms_match_binomial(
        p in 2usize..10,
        len_mul in 1usize..6,
        seed in any::<u64>(),
    ) {
        let len = p * len_mul + 3;
        let inputs = universe_inputs(p, len, seed);
        let inputs2 = inputs.clone();
        let res = Universe::run(p, SimConfig::default().with_seed(seed), move |env| {
            let w = &env.world;
            use mpisim::Transport;
            let mine = inputs2[w.rank()].clone();
            let mut b = if w.rank() == 0 { mine.clone() } else { Default::default() };
            coll_large::bcast_large(w, &mut b, 0, 701).unwrap();
            let r = coll_large::reduce_auto(w, &mine, 0, 711, ops::sum::<u64>()).unwrap();
            (b, r)
        });
        let expected_sum: Vec<u64> = (0..len)
            .map(|i| inputs.iter().map(|v| v[i]).sum())
            .collect();
        for (r, (b, red)) in res.per_rank.into_iter().enumerate() {
            prop_assert_eq!(b, inputs[0].clone());
            if r == 0 {
                prop_assert_eq!(red, Some(expected_sum.clone()));
            }
        }
    }

    #[test]
    fn gatherv_roundtrips_ragged_contributions(
        p in 1usize..10,
        seed in any::<u64>(),
        root_sel in 0usize..10,
    ) {
        let root = root_sel % p;
        let res = Universe::run(p, SimConfig::default().with_seed(seed), move |env| {
            let w = &env.world;
            use mpisim::Transport;
            let mine: Vec<u64> = (0..(w.rank() * 3) % 7).map(|i| (w.rank() * 100 + i) as u64).collect();
            coll::gatherv(w, mine, root, 21).unwrap()
        });
        let got = res.per_rank[root].as_ref().unwrap();
        for (r, v) in got.iter().enumerate() {
            let expect: Vec<u64> = (0..(r * 3) % 7).map(|i| (r * 100 + i) as u64).collect();
            prop_assert_eq!(v.clone(), expect);
        }
    }
}

/// Same seed, same configuration — identical results and virtual clocks.
#[test]
fn simulation_is_reproducible_for_deterministic_programs() {
    let run = || {
        let res = Universe::run(6, SimConfig::default().with_seed(99), |env| {
            let w = &env.world;
            use mpisim::Transport;
            // Deterministic communication pattern (no wildcards).
            let mine = vec![w.rank() as u64; 10];
            let s = coll::scan(w, &mine, 3, ops::sum::<u64>()).unwrap();
            let a = coll::allreduce(w, &s, 5, ops::max::<u64>()).unwrap();
            (a, env.now())
        });
        (res.per_rank, res.clocks)
    };
    let (a1, c1) = run();
    let (a2, c2) = run();
    assert_eq!(a1, a2);
    assert_eq!(c1, c2, "virtual clocks must be reproducible");
}
