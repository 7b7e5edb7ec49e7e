//! Failure injection: the simulator must fail loudly, not hang — and
//! every timeout or deadlock must carry a `RoundBlame` naming the ranks
//! the stalled operation was waiting on.

use mpisim::{
    nbcoll, ops, FaultPlan, MpiError, RankHealth, SimConfig, Src, Time, Transport, Universe,
};
use rbc::RbcComm;

#[test]
fn unmatched_recv_times_out_with_context() {
    let res = Universe::run_default(2, |env| {
        let w = &env.world;
        if w.rank() == 0 {
            w.recv::<u64>(Src::Rank(1), 42).err()
        } else {
            None
        }
    });
    match &res.per_rank[0] {
        Some(MpiError::Timeout {
            rank, waited_for, ..
        }) => {
            assert_eq!(*rank, 0);
            assert!(waited_for.contains("tag=42"), "got: {waited_for}");
        }
        other => panic!("expected timeout, got {other:?}"),
    }
}

#[test]
fn mismatched_collective_times_out() {
    // Rank 1 never joins the barrier: rank 0's barrier must time out
    // instead of hanging forever.
    let res = Universe::run_default(2, |env| {
        let w = &env.world;
        if w.rank() == 0 {
            w.barrier().err()
        } else {
            None
        }
    });
    assert!(matches!(res.per_rank[0], Some(MpiError::Timeout { .. })));
}

#[test]
fn type_mismatch_is_detected() {
    let res = Universe::run_default(2, |env| {
        let w = &env.world;
        if w.rank() == 0 {
            w.send(&[1.5f64], 1, 7).unwrap();
            None
        } else {
            w.recv::<u32>(Src::Rank(0), 7).err()
        }
    });
    assert!(matches!(
        res.per_rank[1],
        Some(MpiError::TypeMismatch {
            expected: "u32",
            ..
        })
    ));
}

#[test]
fn invalid_rank_is_rejected_immediately() {
    let res = Universe::run_default(2, |env| {
        let w = &env.world;
        let send_err = w.send(&[1u64], 5, 0).err();
        let recv_err = w.recv::<u64>(Src::Rank(9), 0).err();
        (send_err, recv_err)
    });
    for (s, r) in res.per_rank {
        assert!(matches!(
            s,
            Some(MpiError::InvalidRank { rank: 5, size: 2 })
        ));
        assert!(matches!(
            r,
            Some(MpiError::InvalidRank { rank: 9, size: 2 })
        ));
    }
}

#[test]
fn rbc_split_out_of_range_is_usage_error() {
    let res = Universe::run_default(4, |env| {
        let world = RbcComm::create(&env.world);
        let too_big = world.split(0, 9).err();
        let inverted = world.split(3, 1).err();
        let zero_stride = world.split_strided(0, 3, 0).err();
        (too_big, inverted, zero_stride)
    });
    for (a, b, c) in res.per_rank {
        assert!(matches!(a, Some(MpiError::Usage(_))));
        assert!(matches!(b, Some(MpiError::Usage(_))));
        assert!(matches!(c, Some(MpiError::Usage(_))));
    }
}

#[test]
#[should_panic(expected = "rank failure")]
fn rank_panic_propagates_to_harness() {
    Universe::run_default(3, |env| {
        if env.rank() == 2 {
            panic!("rank failure");
        }
    });
}

#[test]
fn nonblocking_wait_times_out_rather_than_spinning_forever() {
    // A receive whose sender never sends: wait() must give up.
    let res = Universe::run_default(2, |env| {
        let w = &env.world;
        if w.rank() == 0 {
            let req = w.irecv::<u64>(Src::Rank(1), 3);
            // wait() parks between tests; the deadlock detector ends it.
            req.wait().err()
        } else {
            None
        }
    });
    assert!(matches!(res.per_rank[0], Some(MpiError::Timeout { .. })));
}

/// Run a 4-rank receive cycle (a textbook deadlock) under the cooperative
/// backend and return each rank's `(rank, waited_for)` diagnostics.
fn coop_deadlock_diagnostics(workers: usize) -> Vec<Option<(usize, String)>> {
    let cfg = SimConfig::cooperative().with_workers(workers);
    Universe::run(4, cfg, |env| {
        let w = &env.world;
        let from = (w.rank() + 1) % 4;
        w.recv::<u64>(Src::Rank(from), 42).err().map(|e| match e {
            MpiError::Timeout {
                rank, waited_for, ..
            } => (rank, waited_for),
            other => panic!("expected Timeout, got {other:?}"),
        })
    })
    .per_rank
}

#[test]
fn coop_deadlock_diagnostics_exact_under_sharded_commit() {
    // Deadlock poisoning runs on the committing worker once every
    // outbox is pushed; the diagnostics must stay *exact*: same rank,
    // same `waited_for` text, for every worker count — byte-identical to
    // the 1-worker run.
    let oracle = coop_deadlock_diagnostics(1);
    for (r, d) in oracle.iter().enumerate() {
        let (rank, text) = d.as_ref().expect("every rank deadlocks");
        assert_eq!(*rank, r);
        assert!(
            text.contains("tag=42") && text.contains("cooperative deadlock"),
            "got: {text}"
        );
    }
    for workers in [4usize, 8] {
        assert_eq!(
            oracle,
            coop_deadlock_diagnostics(workers),
            "deadlock diagnostics diverged at {workers} workers"
        );
    }
}

/// Run a 4-rank iallreduce with rank 2 crash-stopped from the start and
/// collect, per rank, `(reported rank, blamed ranks, all-crashed?)`.
/// Every rank — the victim itself *and* the transitively stalled peers
/// (whose receive pattern points at a live-but-stuck neighbour) — must
/// blame exactly the crashed rank, thanks to the crash-priority rule.
fn crash_mid_iallreduce_blame(cfg: SimConfig) -> Vec<Option<(usize, Vec<usize>, bool)>> {
    let cfg = cfg.with_faults(FaultPlan::default().with_crash(2, Time::ZERO));
    Universe::run(4, cfg, |env| {
        let w = &env.world;
        let r = nbcoll::iallreduce(w, &[w.rank() as u64 + 1], 500, ops::sum::<u64>())
            .and_then(|sm| sm.wait_result());
        r.err().map(|e| match e {
            MpiError::Timeout { rank, blame, .. } => {
                let all_crashed = !blame.waiting_on.is_empty()
                    && blame
                        .waiting_on
                        .iter()
                        .all(|b| matches!(b.health, RankHealth::Crashed { .. }));
                (rank, blame.ranks(), all_crashed)
            }
            other => panic!("expected Timeout, got {other:?}"),
        })
    })
    .per_rank
}

#[test]
fn crash_mid_iallreduce_blames_exactly_the_crashed_rank_coop() {
    // The cooperative stagnation detector poisons the stalled ranks long
    // before any wall clock fires; diagnostics must be identical for
    // every worker count.
    let oracle = crash_mid_iallreduce_blame(SimConfig::cooperative().with_workers(1));
    for d in &oracle {
        let (rank, blamed, all_crashed) = d.as_ref().expect("every rank must error");
        assert_eq!(*blamed, vec![2], "rank {rank} blamed {blamed:?}");
        assert!(all_crashed, "rank {rank}: blame must report crashed health");
    }
    for workers in [4usize, 8] {
        let got = crash_mid_iallreduce_blame(SimConfig::cooperative().with_workers(workers));
        assert_eq!(oracle, got, "crash blame diverged at {workers} workers");
    }
}

/// Crash a rank mid-JQuick (50µs in — a few recursion messages deep at
/// α = 10µs) and require every failing rank's blame to name exactly the
/// victim.
fn crash_mid_jquick_blame(cfg: SimConfig, victim: usize) -> Vec<Option<(Vec<usize>, bool)>> {
    let cfg = cfg.with_faults(FaultPlan::default().with_crash(victim, Time::from_micros(50)));
    let p = 8u64;
    let n = 64 * p;
    Universe::run(p as usize, cfg, move |env| {
        let w = &env.world;
        let data: Vec<u64> = (0..64).map(|i| (w.rank() as u64 + 1) * 1000 + i).collect();
        let r = jquick::jquick_sort(
            &jquick::RbcBackend,
            w,
            data,
            n,
            &jquick::JQuickConfig::default(),
        );
        r.err().map(|e| match e {
            MpiError::Timeout { blame, .. } => {
                let all_crashed = !blame.waiting_on.is_empty()
                    && blame
                        .waiting_on
                        .iter()
                        .all(|b| matches!(b.health, RankHealth::Crashed { .. }));
                (blame.ranks(), all_crashed)
            }
            other => panic!("expected Timeout, got {other:?}"),
        })
    })
    .per_rank
}

#[test]
fn crash_mid_jquick_blames_the_crashed_rank_coop() {
    let run =
        |workers: usize| crash_mid_jquick_blame(SimConfig::cooperative().with_workers(workers), 5);
    let oracle = run(1);
    let failed: Vec<_> = oracle.iter().flatten().collect();
    assert!(!failed.is_empty(), "the crash must break the sort");
    for (blamed, all_crashed) in failed {
        assert_eq!(*blamed, vec![5], "blame must name exactly the victim");
        assert!(all_crashed, "blame must report crashed health");
    }
    for workers in [4usize, 8] {
        assert_eq!(
            oracle,
            run(workers),
            "jquick crash blame diverged at {workers} workers"
        );
    }
}

#[test]
fn coop_timeout_after_real_traffic_identical_under_sharded_commit() {
    // Commits with real deliveries happen first (a ring exchange),
    // *then* a rank waits forever: the poison must fire on exactly the
    // stuck ranks, with identical text for every worker count. Ranks 0
    // and 1 both wait on a tag nobody sends so the poison pass wakes
    // several blocked ranks in one commit.
    let run = |workers: usize| {
        let cfg = SimConfig::cooperative().with_workers(workers);
        Universe::run(8, cfg, |env| {
            let w = &env.world;
            let next = (w.rank() + 1) % 8;
            let prev = (w.rank() + 7) % 8;
            w.send(&[w.rank() as u64], next, 1).unwrap();
            let (v, _) = w.recv::<u64>(Src::Rank(prev), 1).unwrap();
            assert_eq!(v[0] as usize, prev);
            if w.rank() < 2 {
                w.recv::<u64>(Src::Any, 99).err().map(|e| match e {
                    MpiError::Timeout {
                        rank,
                        waited_for,
                        blame,
                        ..
                    } => (rank, waited_for, blame.ranks()),
                    other => panic!("expected Timeout, got {other:?}"),
                })
            } else {
                None
            }
        })
        .per_rank
    };
    let oracle = run(1);
    for (r, d) in oracle.iter().enumerate() {
        if r < 2 {
            let (rank, text, blamed) = d.as_ref().expect("stuck ranks time out");
            assert_eq!(*rank, r);
            assert!(text.contains("tag=99"), "got: {text}");
            // No faults are armed, so a wildcard wait blames exactly the
            // other ranks of the communicator — no more, no fewer.
            let others: Vec<usize> = (0..8).filter(|&x| x != r).collect();
            assert_eq!(*blamed, others, "rank {r} blamed {blamed:?}");
        } else {
            assert!(d.is_none(), "rank {r} should have finished cleanly");
        }
    }
    for workers in [4usize, 8] {
        assert_eq!(
            oracle,
            run(workers),
            "timeout diagnostics diverged at {workers} workers"
        );
    }
}

#[test]
fn sort_with_wrong_global_count_fails_cleanly() {
    let res = Universe::run_default(3, |env| {
        let w = &env.world;
        // n says 30, but every rank passes only 5 elements (needs 10).
        jquick::jquick_sort(
            &jquick::RbcBackend,
            w,
            vec![1u64; 5],
            30,
            &jquick::JQuickConfig::default(),
        )
        .err()
    });
    for e in res.per_rank {
        assert!(matches!(e, Some(MpiError::Usage(_))));
    }
}
