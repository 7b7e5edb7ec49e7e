//! Deeper RBC semantics: strided communicators end to end, large-input
//! collectives through RBC, recursion chains, and the exact §V-A overlap
//! contract.

use mpisim::{ops, FaultPlan, MpiError, Request, SimConfig, Src, Time, Transport, Universe};
use rbc::RbcComm;

#[test]
fn collectives_on_strided_communicators() {
    // Evens and odds as two strided RBC comms over one base context,
    // running the same collectives simultaneously with default tags —
    // overlap is zero, so nothing may interfere.
    let res = Universe::run_default(10, |env| {
        let world = RbcComm::create(&env.world);
        let r = world.rank();
        let mine = world.split_strided(r % 2, 9 - (1 - r % 2), 2).unwrap();
        assert_eq!(mine.size(), 5);
        let sum = mine.allreduce(&[r as u64], ops::sum::<u64>()).unwrap()[0];
        let sc = mine.scan(&[1u64], ops::sum::<u64>()).unwrap()[0];
        (sum, sc)
    });
    for (r, (sum, sc)) in res.per_rank.into_iter().enumerate() {
        let expected: u64 = (0..10u64).filter(|x| x % 2 == r as u64 % 2).sum();
        assert_eq!(sum, expected, "rank {r}");
        assert_eq!(sc as usize, r / 2 + 1);
    }
}

#[test]
fn deep_recursive_split_chain() {
    // log2(p) nested RBC splits — the quicksort pattern — must stay O(1)
    // per level in virtual time and produce correct leaf communicators.
    let p = 64usize;
    let res = Universe::run_default(p, move |env| {
        let mut comm = RbcComm::create(&env.world);
        let t0 = env.now();
        let mut levels = 0;
        while comm.size() > 1 {
            let half = comm.size() / 2;
            let r = comm.rank();
            comm = if r < half {
                comm.split(0, half - 1).unwrap()
            } else {
                comm.split(half, comm.size() - 1).unwrap()
            };
            levels += 1;
        }
        (levels, env.now() - t0, comm.range())
    });
    for (r, (levels, dt, range)) in res.per_rank.into_iter().enumerate() {
        assert_eq!(levels, 6);
        assert!(dt < Time::from_micros(1), "6 splits cost {dt}");
        assert_eq!(range, (r, r, 1), "leaf covers exactly me");
    }
}

#[test]
fn large_input_collectives_via_rbc() {
    let res = Universe::run_default(8, |env| {
        let world = RbcComm::create(&env.world);
        let n = 1 << 14; // 128 KiB of u64: above the crossover at p=8? Use auto.
        let mut data = if world.rank() == 0 {
            (0..n as u64).collect()
        } else {
            Vec::new()
        };
        world.bcast_auto(&mut data, 0).unwrap();
        let red = world
            .reduce_auto(&vec![1u64; 64], 0, ops::sum::<u64>())
            .unwrap();
        (data.len(), data[n - 1], red.map(|v| v[0]))
    });
    for (r, (len, last, red)) in res.per_rank.into_iter().enumerate() {
        assert_eq!(len, 1 << 14);
        assert_eq!(last, (1 << 14) - 1);
        if r == 0 {
            assert_eq!(red, Some(8));
        }
    }
}

#[test]
fn point_to_point_any_source_across_nested_ranges() {
    // ANY_SOURCE filtering must respect the *innermost* range even when
    // outer ranges share the context and tag.
    let res = Universe::run_default(8, |env| {
        let world = RbcComm::create(&env.world);
        let r = world.rank();
        match r {
            0 => {
                // Outside the inner range; same ctx, same tag.
                world.send(&[1000u64], 3, 4).unwrap();
                0
            }
            2 | 4 => {
                let outer = world.split(1, 6).unwrap();
                // Let rank 0's decoy land first: it is delivered at the
                // end of this epoch.
                mpisim::yield_now();
                let inner = outer.split(1, 4).unwrap(); // world ranks 2..=5
                inner.send(&[r as u64], 1, 4).unwrap(); // to world rank 3
                0
            }
            3 => {
                let outer = world.split(1, 6).unwrap();
                let inner = outer.split(1, 4).unwrap();
                // Two wildcard receives on the inner range: sources must be
                // 2 and 4 (inner ranks 0 and 2), never world-rank 0.
                let (a, sa) = inner.recv::<u64>(Src::Any, 4).unwrap();
                let (b, sb) = inner.recv::<u64>(Src::Any, 4).unwrap();
                // The decoy is still waiting on the base communicator.
                let (decoy, _) = world.recv::<u64>(Src::Rank(0), 4).unwrap();
                assert_eq!(decoy, vec![1000]);
                let mut got = vec![(sa.source, a[0]), (sb.source, b[0])];
                got.sort_unstable();
                assert_eq!(got, vec![(0, 2), (2, 4)]);
                1
            }
            1 | 5 | 6 => {
                // Members of the outer range but not the inner one: the
                // inner split is a Usage error for them, harmlessly.
                let outer = world.split(1, 6).unwrap();
                assert!(outer.split(1, 4).is_err() || (2..=5).contains(&r));
                0
            }
            _ => 0, // rank 7: not in the outer range at all
        }
    });
    assert_eq!(res.per_rank[3], 1);
}

#[test]
fn probe_then_recv_consistency_on_wildcards() {
    let res = Universe::run_default(4, |env| {
        let world = RbcComm::create(&env.world);
        match world.rank() {
            1 => {
                world.send(&[7u64, 8, 9], 0, 2).unwrap();
                None
            }
            0 => {
                // Probe (blocking) then receive exactly what was probed —
                // the paper's Recv-on-wildcard implementation (§V-C).
                let st = world.probe(Src::Any, 2).unwrap();
                let (v, st2) = world.recv::<u64>(Src::Rank(st.source), 2).unwrap();
                assert_eq!(st.count, 3);
                assert_eq!(st.source, st2.source);
                Some(v)
            }
            _ => None,
        }
    });
    assert_eq!(res.per_rank[0], Some(vec![7, 8, 9]));
}

#[test]
fn same_range_twice_shares_traffic_context_carefully() {
    // Two RBC comms over the SAME range are the same communication
    // context: simultaneous collectives need distinct tags (overlap > 1).
    let res = Universe::run_default(4, |env| {
        let world = RbcComm::create(&env.world);
        let a = world.split(0, 3).unwrap();
        let b = world.split(0, 3).unwrap();
        let ra = a.iallreduce(&[1u64], ops::sum::<u64>(), Some(500)).unwrap();
        let rb = b.iallreduce(&[2u64], ops::sum::<u64>(), Some(502)).unwrap();
        let x = ra.wait_result().unwrap()[0];
        let y = rb.wait_result().unwrap()[0];
        (x, y)
    });
    for (x, y) in res.per_rank {
        assert_eq!((x, y), (4, 8));
    }
}

#[test]
fn errors_are_usage_not_hangs_for_foreign_process() {
    // A process outside the range cannot construct the sub-communicator.
    let res = Universe::run_default(4, |env| {
        let world = RbcComm::create(&env.world);
        if world.rank() == 0 {
            world.split(1, 3).err()
        } else {
            world.split(1, 3).ok();
            None
        }
    });
    assert!(matches!(res.per_rank[0], Some(MpiError::Usage(_))));
}

#[test]
fn rbc_comm_handles_are_cheap_and_clonable() {
    let res = Universe::run_default(4, |env| {
        let world = RbcComm::create(&env.world);
        let clones: Vec<RbcComm> = (0..1000).map(|_| world.clone()).collect();
        // All clones address the same context; use one to talk.
        if world.rank() == 0 {
            clones[999].send(&[1u64], 1, 3).unwrap();
        } else if world.rank() == 1 {
            let (v, _) = clones[500].recv::<u64>(Src::Rank(0), 3).unwrap();
            assert_eq!(v, vec![1]);
        }
        env.now()
    });
    // 1000 clones must not show up in virtual time.
    assert!(res.per_rank[2] < Time::from_micros(1));
}

#[test]
fn rbc_creation_generates_zero_messages() {
    // "Creates range-based communicators in constant time WITHOUT
    // COMMUNICATION" — checked against the router's traffic counters.
    let res = Universe::run_default(16, |env| {
        let world = RbcComm::create(&env.world);
        let r = world.rank();
        let mut c = world;
        while c.size() > 1 {
            let half = c.size() / 2;
            c = if c.rank() < half {
                c.split(0, half - 1).unwrap()
            } else {
                c.split(half, c.size() - 1).unwrap()
            };
        }
        r
    });
    assert_eq!(
        res.metrics.messages, 0,
        "RBC created log2(16) communicators per rank with zero messages"
    );
    assert_eq!(res.metrics.bytes, 0);
}

/// `rbc::wait_async` on an `ibcast` over 8 poll-mode ranks: the broadcast
/// value, or the error it ended in. `crash_root` crash-stops the root at
/// time zero, so its sends are dropped and every other rank stalls.
/// `erased` waits through `Request::wait_async` instead.
fn poll_ibcast_wait(crash_root: bool, erased: bool) -> Vec<Result<u64, MpiError>> {
    let plan = if crash_root {
        FaultPlan::default().with_crash(0, Time::ZERO)
    } else {
        FaultPlan::default()
    };
    let cfg = SimConfig::cooperative().with_faults(plan);
    Universe::run_poll(8, cfg, move |env| async move {
        let world = RbcComm::create(&env.world);
        let payload = (world.rank() == 0).then(|| vec![7u64]);
        let mut req = world.ibcast(payload, 0, None)?;
        if erased {
            let mut req = Request::new(req);
            req.wait_async().await.map(|()| 0)
        } else {
            rbc::wait_async(&mut req).await?;
            Ok(req.into_data().expect("complete")[0])
        }
    })
    .per_rank
}

#[test]
fn wait_async_completes_an_ibcast_in_a_poll_mode_body() {
    assert_eq!(poll_ibcast_wait(false, false), vec![Ok(7); 8]);
}

#[test]
fn stalled_wait_async_reports_the_blame_of_request_wait_async() {
    let direct = poll_ibcast_wait(true, false);
    for (r, res) in direct.iter().enumerate().skip(1) {
        match res {
            Err(MpiError::Timeout { rank, blame, .. }) => {
                assert_eq!(*rank, r);
                assert_eq!(
                    blame.ranks(),
                    vec![0],
                    "rank {r} must blame the crashed root"
                );
            }
            other => panic!("rank {r}: expected Timeout, got {other:?}"),
        }
    }
    // Rank 0 completes locally (its sends are dropped), with a value only
    // the typed request can hand back: compare the failures.
    let errs = |v: Vec<Result<u64, MpiError>>| v.into_iter().map(Result::err).collect::<Vec<_>>();
    assert_eq!(errs(direct), errs(poll_ibcast_wait(true, true)));
}
