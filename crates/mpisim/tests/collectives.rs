//! Blocking collectives vs sequential references, across awkward sizes;
//! the gather, reduce and wildcard cases also under any legal matching
//! order (seeded arrival jitter).

mod common;

use common::{jitter, over_jitter_seeds};
use mpisim::coll;
use mpisim::ops;
use mpisim::{ProcEnv, SimConfig, Src, Transport, Universe};

/// Process counts covering powers of two, odd sizes, and 1.
const SIZES: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 13, 16];

fn local_data(rank: usize, n: usize) -> Vec<u64> {
    (0..n).map(|i| (rank * 1000 + i) as u64).collect()
}

#[test]
fn bcast_all_roots() {
    for &p in SIZES {
        for root in [0, p / 2, p - 1] {
            let res = Universe::run_default(p, |env| {
                let w = &env.world;
                let mut data = if w.rank() == root {
                    vec![42u64, 43, 44]
                } else {
                    Vec::new()
                };
                coll::bcast(w, &mut data, root, 7).unwrap();
                data
            });
            for v in res.per_rank {
                assert_eq!(v, vec![42, 43, 44], "p={p} root={root}");
            }
        }
    }
}

#[test]
fn reduce_sum_matches_reference() {
    for &p in SIZES {
        let n = 5;
        let root = p - 1;
        let per_rank = over_jitter_seeds(p, SimConfig::default(), |env| {
            let w = &env.world;
            coll::reduce(w, &local_data(w.rank(), n), root, 9, ops::sum::<u64>()).unwrap()
        });
        let expected: Vec<u64> = (0..n)
            .map(|i| (0..p).map(|r| (r * 1000 + i) as u64).sum())
            .collect();
        for (r, v) in per_rank.into_iter().enumerate() {
            if r == root {
                assert_eq!(v, Some(expected.clone()), "p={p}");
            } else {
                assert_eq!(v, None);
            }
        }
    }
}

#[test]
fn allreduce_min_max() {
    for &p in SIZES {
        let res = Universe::run_default(p, |env| {
            let w = &env.world;
            let mine = [w.rank() as i64 - 3, -(w.rank() as i64)];
            let mn = coll::allreduce(w, &mine, 11, ops::min::<i64>()).unwrap();
            let mx = coll::allreduce(w, &mine, 13, ops::max::<i64>()).unwrap();
            (mn, mx)
        });
        for (mn, mx) in res.per_rank {
            assert_eq!(mn, vec![-3, -(p as i64 - 1)]);
            assert_eq!(mx, vec![p as i64 - 4, 0]);
        }
    }
}

#[test]
fn scan_inclusive_prefix() {
    for &p in SIZES {
        let res = Universe::run_default(p, |env| {
            let w = &env.world;
            coll::scan(w, &[w.rank() as u64 + 1], 5, ops::sum::<u64>()).unwrap()
        });
        for (r, v) in res.per_rank.into_iter().enumerate() {
            let expected: u64 = (1..=r as u64 + 1).sum();
            assert_eq!(v, vec![expected], "p={p} rank={r}");
        }
    }
}

#[test]
fn exscan_exclusive_prefix() {
    for &p in SIZES {
        let res = Universe::run_default(p, |env| {
            let w = &env.world;
            coll::exscan(w, &[w.rank() as u64 + 1], 5, ops::sum::<u64>()).unwrap()
        });
        for (r, v) in res.per_rank.into_iter().enumerate() {
            if r == 0 {
                assert_eq!(v, None, "rank 0 has no exclusive prefix");
            } else {
                let expected: u64 = (1..=r as u64).sum();
                assert_eq!(v, Some(vec![expected]), "p={p} rank={r}");
            }
        }
    }
}

#[test]
fn scan_vector_valued() {
    let res = Universe::run_default(6, |env| {
        let w = &env.world;
        let mine = vec![w.rank() as u64; 4];
        coll::scan(w, &mine, 5, ops::sum::<u64>()).unwrap()
    });
    for (r, v) in res.per_rank.into_iter().enumerate() {
        let expected: u64 = (0..=r as u64).sum();
        assert_eq!(v, vec![expected; 4]);
    }
}

#[test]
fn gather_concatenates_in_rank_order() {
    for &p in SIZES {
        let per_rank = over_jitter_seeds(p, SimConfig::default(), |env| {
            let w = &env.world;
            coll::gather(w, vec![w.rank() as u64], 0, 21).unwrap()
        });
        let expected: Vec<u64> = (0..p as u64).collect();
        assert_eq!(per_rank[0], Some(expected));
        for v in &per_rank[1..] {
            assert_eq!(*v, None);
        }
    }
}

#[test]
fn gatherv_variable_sizes() {
    for &p in SIZES {
        let root = p / 2;
        let per_rank = over_jitter_seeds(p, SimConfig::default(), |env| {
            let w = &env.world;
            // Rank r contributes r elements (rank 0 contributes none).
            let mine: Vec<u64> = (0..w.rank()).map(|i| (w.rank() * 100 + i) as u64).collect();
            coll::gatherv(w, mine, root, 31).unwrap()
        });
        let got = per_rank[root].as_ref().unwrap();
        for (r, v) in got.iter().enumerate() {
            let expected: Vec<u64> = (0..r).map(|i| (r * 100 + i) as u64).collect();
            assert_eq!(*v, expected, "p={p} origin={r}");
        }
    }
}

#[test]
fn allgather1_everyone_sees_all() {
    for &p in SIZES {
        let res = Universe::run_default(p, |env| {
            let w = &env.world;
            coll::allgather1(w, (w.rank() as u64, w.rank() as u64 * 2), 41).unwrap()
        });
        let expected: Vec<(u64, u64)> = (0..p as u64).map(|r| (r, r * 2)).collect();
        for v in res.per_rank {
            assert_eq!(v, expected);
        }
    }
}

#[test]
fn barrier_synchronises_virtual_time() {
    // A barrier must not complete on any rank before the slowest rank
    // reaches it (in virtual time).
    let res = Universe::run_default(8, |env| {
        let w = &env.world;
        if w.rank() == 3 {
            env.state().charge(mpisim::Time::from_millis(50));
        }
        coll::barrier(w, 51).unwrap();
        env.now()
    });
    for t in res.per_rank {
        assert!(
            t >= mpisim::Time::from_millis(50),
            "barrier exited before straggler at {t}"
        );
    }
}

#[test]
fn alltoallv_exchanges_buckets() {
    for &p in SIZES {
        let res = Universe::run_default(p, |env| {
            let w = &env.world;
            let send: Vec<Vec<u64>> = (0..p)
                .map(|dst| vec![(w.rank() * 10 + dst) as u64; dst % 3])
                .collect();
            coll::alltoallv(w, send, 61).unwrap()
        });
        for (r, got) in res.per_rank.into_iter().enumerate() {
            for (src, v) in got.into_iter().enumerate() {
                assert_eq!(v, vec![(src * 10 + r) as u64; r % 3], "p={p} {src}->{r}");
            }
        }
    }
}

#[test]
fn collective_virtual_times_scale_logarithmically() {
    // Broadcast of 1 element: makespan should grow ~log p, far slower than
    // linear. Compare p=4 vs p=64: log factor is 3x, linear would be 16x.
    let time_for = |p: usize| {
        let res = Universe::run(p, SimConfig::default(), |env| {
            let w = &env.world;
            let mut x = vec![0u64];
            coll::bcast(w, &mut x, 0, 7).unwrap();
            env.now()
        });
        res.per_rank.into_iter().max().unwrap()
    };
    let t4 = time_for(4);
    let t64 = time_for(64);
    assert!(t64.as_nanos() < t4.as_nanos() * 8, "t4={t4} t64={t64}");
    assert!(t64 > t4, "more rounds must cost more: t4={t4} t64={t64}");
}

#[test]
fn p2p_any_source_receives_all() {
    // Rank 0's wildcard receives, in the order they matched.
    let matched = |env: ProcEnv| {
        let w = &env.world;
        if w.rank() == 0 {
            (0..4)
                .map(|_| {
                    let (v, st) = w.recv::<u64>(Src::Any, 99).unwrap();
                    assert_eq!(v.len(), 1);
                    st.source
                })
                .collect()
        } else {
            w.send(&[w.rank() as u64], 0, 99).unwrap();
            Vec::new()
        }
    };
    let sorted = over_jitter_seeds(5, SimConfig::default(), |env| {
        let mut seen = matched(env);
        seen.sort_unstable();
        seen
    });
    assert_eq!(sorted[0], vec![1, 2, 3, 4]);
    // The seeds do reorder the matches: that is the point of the sweep.
    let orders: std::collections::HashSet<Vec<usize>> = (1..=4)
        .map(|seed| {
            let cfg = SimConfig::default().with_faults(jitter(seed));
            Universe::run(5, cfg, matched).per_rank.swap_remove(0)
        })
        .collect();
    assert!(
        orders.len() > 1,
        "every seed matched in one order: {orders:?}"
    );
}

#[test]
fn scatterv_distributes_blocks() {
    for &p in SIZES {
        for root in [0, p - 1] {
            let res = Universe::run_default(p, |env| {
                let w = &env.world;
                let blocks = (w.rank() == root).then(|| {
                    (0..p)
                        .map(|i| vec![(i * 10) as u64; i % 3 + 1])
                        .collect::<Vec<_>>()
                });
                coll::scatterv(w, blocks, root, 71).unwrap()
            });
            for (r, v) in res.per_rank.into_iter().enumerate() {
                assert_eq!(
                    v,
                    vec![(r * 10) as u64; r % 3 + 1],
                    "p={p} root={root} rank={r}"
                );
            }
        }
    }
}

#[test]
fn scatter_equal_blocks() {
    let res = Universe::run_default(4, |env| {
        let w = &env.world;
        let data = (w.rank() == 1).then(|| (0..12u64).collect::<Vec<_>>());
        coll::scatter(w, data, 1, 73).unwrap()
    });
    assert_eq!(res.per_rank[0], vec![0, 1, 2]);
    assert_eq!(res.per_rank[3], vec![9, 10, 11]);
}

#[test]
fn scatterv_inverts_gatherv() {
    // gatherv then scatterv returns everyone's original data.
    let res = Universe::run_default(7, |env| {
        let w = &env.world;
        let mine: Vec<u64> = (0..w.rank() as u64 + 1)
            .map(|i| w.rank() as u64 * 100 + i)
            .collect();
        let gathered = coll::gatherv(w, mine.clone(), 2, 75).unwrap();
        let back = coll::scatterv(w, gathered, 2, 77).unwrap();
        back == mine
    });
    assert!(res.per_rank.iter().all(|&ok| ok));
}

#[test]
fn alltoall_fixed_blocks() {
    let res = Universe::run_default(5, |env| {
        let w = &env.world;
        let send: Vec<Vec<u64>> = (0..5)
            .map(|d| vec![(w.rank() * 10 + d) as u64; 2])
            .collect();
        coll::alltoall(w, send, 79).unwrap()
    });
    for (r, got) in res.per_rank.into_iter().enumerate() {
        for (s, v) in got.into_iter().enumerate() {
            assert_eq!(v, vec![(s * 10 + r) as u64; 2]);
        }
    }
}

#[test]
fn allgatherv_everyone_gets_everything() {
    for &p in SIZES {
        let res = Universe::run_default(p, |env| {
            let w = &env.world;
            let mine: Vec<u64> = vec![w.rank() as u64; w.rank() % 4];
            coll::allgatherv(w, mine, 81).unwrap()
        });
        for got in res.per_rank {
            for (src, v) in got.into_iter().enumerate() {
                assert_eq!(v, vec![src as u64; src % 4], "p={p}");
            }
        }
    }
}

#[test]
fn scatter_of_nothing_gives_every_rank_an_empty_block() {
    for &p in SIZES {
        let res = Universe::run_default(p, |env| env.world.scatter(Some(Vec::<u64>::new()), 0));
        for (r, got) in res.per_rank.into_iter().enumerate() {
            assert_eq!(got, Ok(Vec::new()), "p={p} rank={r}");
        }
    }
}

/// Run a collective on 4 ranks where rank `bad` passes a malformed
/// argument: it must get `Usage` at once, and every peer, left waiting,
/// a `Timeout` with a `RoundBlame` (one naming `bad` among them) — never
/// a hang or a panic.
fn malformed_on(bad: usize, coll: impl Fn(&ProcEnv, bool) -> mpisim::Result<Vec<u64>> + Sync) {
    let res = Universe::run_default(4, |env| coll(&env, env.rank() == bad));
    let mut blamed = Vec::new();
    for (r, got) in res.per_rank.into_iter().enumerate() {
        match got {
            Err(mpisim::MpiError::Usage(_)) if r == bad => {}
            Err(mpisim::MpiError::Timeout { blame, .. }) if r != bad && !blame.is_empty() => {
                blamed.extend(blame.ranks());
            }
            other => panic!("rank {r} (bad {bad}): {other:?}"),
        }
    }
    assert!(blamed.contains(&bad), "bad {bad}, blamed {blamed:?}");
}

#[test]
fn malformed_collective_arguments_are_usage_errors_not_panics() {
    // alltoallv with a bucket short.
    malformed_on(1, |env, bad| {
        let n = if bad { 3 } else { 4 };
        let got = env.world.alltoallv(vec![vec![1u64]; n])?;
        Ok(got.concat())
    });
    // scatterv: the root passes too few blocks, or none.
    malformed_on(2, |env, bad| {
        let blocks = bad.then(|| vec![vec![1u64]; 3]);
        env.world.scatterv(blocks, 2)
    });
    malformed_on(0, |env, _| env.world.scatterv(None::<Vec<Vec<u64>>>, 0));
    // scatter: a count the ranks do not divide.
    malformed_on(3, |env, bad| {
        let data = bad.then(|| vec![1u64; 6]);
        env.world.scatter(data, 3)
    });
}
