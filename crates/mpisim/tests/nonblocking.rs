//! Nonblocking collectives: correctness, overlap, and the §VI proposal.

use mpisim::icomm::icomm_create_group;
use mpisim::nbcoll::{self, Progress};
use mpisim::{ops, Group, Src, Transport, Universe};

const SIZES: &[usize] = &[1, 2, 3, 5, 8, 13];

#[test]
fn ibcast_matches_bcast() {
    for &p in SIZES {
        for root in [0, p - 1] {
            let res = Universe::run_default(p, |env| {
                let w = &env.world;
                let data = (w.rank() == root).then(|| vec![5u64, 6, 7]);
                let sm = nbcoll::ibcast(w, data, root, 3).unwrap();
                sm.wait_data().unwrap()
            });
            for v in res.per_rank {
                assert_eq!(v, vec![5, 6, 7], "p={p} root={root}");
            }
        }
    }
}

#[test]
fn ireduce_matches_reference() {
    for &p in SIZES {
        let res = Universe::run_default(p, |env| {
            let w = &env.world;
            let sm = nbcoll::ireduce(w, &[w.rank() as u64, 1], 0, 5, ops::sum::<u64>()).unwrap();
            sm.wait_result().unwrap()
        });
        let total: u64 = (0..p as u64).sum();
        assert_eq!(res.per_rank[0], Some(vec![total, p as u64]));
        for v in &res.per_rank[1..] {
            assert_eq!(*v, None);
        }
    }
}

#[test]
fn iallreduce_everyone_gets_result() {
    for &p in SIZES {
        let res = Universe::run_default(p, |env| {
            let w = &env.world;
            let sm = nbcoll::iallreduce(w, &[1u64], 7, ops::sum::<u64>()).unwrap();
            sm.wait_result().unwrap()
        });
        for v in res.per_rank {
            assert_eq!(v, vec![p as u64]);
        }
    }
}

#[test]
fn iscan_inclusive_and_exclusive() {
    for &p in SIZES {
        let res = Universe::run_default(p, |env| {
            let w = &env.world;
            let sm = nbcoll::iscan(w, &[w.rank() as u64 + 1], 9, ops::sum::<u64>()).unwrap();
            sm.wait_scan().unwrap()
        });
        for (r, (incl, excl)) in res.per_rank.into_iter().enumerate() {
            let inc: u64 = (1..=r as u64 + 1).sum();
            assert_eq!(incl, vec![inc]);
            if r == 0 {
                assert_eq!(excl, None);
            } else {
                assert_eq!(excl, Some(vec![inc - (r as u64 + 1)]));
            }
        }
    }
}

#[test]
fn igatherv_variable_contributions() {
    for &p in SIZES {
        let res = Universe::run_default(p, |env| {
            let w = &env.world;
            let mine: Vec<u64> = vec![w.rank() as u64; w.rank() % 3];
            let sm = nbcoll::igatherv(w, mine, 0, 11).unwrap();
            sm.wait_result().unwrap()
        });
        let got = res.per_rank[0].as_ref().unwrap();
        for (r, v) in got.iter().enumerate() {
            assert_eq!(*v, vec![r as u64; r % 3]);
        }
    }
}

#[test]
fn igather_flattens() {
    let res = Universe::run_default(6, |env| {
        let w = &env.world;
        let sm = nbcoll::igather(w, vec![w.rank() as u64 * 10], 2, 13).unwrap();
        sm.wait_result().unwrap()
    });
    assert_eq!(res.per_rank[2], Some(vec![0, 10, 20, 30, 40, 50]));
}

#[test]
fn ibarrier_completes() {
    for &p in SIZES {
        let res = Universe::run_default(p, |env| {
            let w = &env.world;
            let mut sm = nbcoll::ibarrier(w, 15).unwrap();
            let mut polls = 0usize;
            while !sm.poll().unwrap() {
                polls += 1;
                mpisim::yield_now();
            }
            polls
        });
        assert_eq!(res.per_rank.len(), p);
    }
}

/// The paper's Fig. 1 scenario: two halves created locally, nonblocking
/// broadcast on each half concurrently, progressed by polling.
#[test]
fn two_concurrent_ibcasts_on_overlap_free_halves() {
    let res = Universe::run_default(8, |env| {
        let w = &env.world;
        let (group, root_global) = if w.rank() < 4 {
            (Group::range(0, 1, 4), 0)
        } else {
            (Group::range(4, 1, 4), 4)
        };
        let half = w.create_group(&group, 21).unwrap();
        let data = (w.rank() == root_global).then(|| vec![root_global as u64]);
        let sm = nbcoll::ibcast(&half, data, 0, 23).unwrap();
        sm.wait_data().unwrap()[0]
    });
    assert_eq!(res.per_rank, vec![0, 0, 0, 0, 4, 4, 4, 4]);
}

/// Two nonblocking collectives in flight simultaneously on the SAME
/// communicator, distinguished by user tags (the RBC tag discipline).
#[test]
fn overlapping_nonblocking_collectives_with_user_tags() {
    let res = Universe::run_default(6, |env| {
        let w = &env.world;
        let a = nbcoll::iallreduce(w, &[1u64], 100, ops::sum::<u64>()).unwrap();
        let b = nbcoll::iallreduce(w, &[10u64], 200, ops::sum::<u64>()).unwrap();
        // Progress them interleaved.
        let mut a = a;
        let mut b = b;
        loop {
            let da = a.poll().unwrap();
            let db = b.poll().unwrap();
            if da && db {
                break;
            }
            mpisim::yield_now();
        }
        (a.result().unwrap().to_vec(), b.result().unwrap().to_vec())
    });
    for (a, b) in res.per_rank {
        assert_eq!(a, vec![6]);
        assert_eq!(b, vec![60]);
    }
}

#[test]
fn request_erasure_and_waitall() {
    let res = Universe::run_default(4, |env| {
        let w = &env.world;
        let mut reqs = vec![
            nbcoll::Request::new(nbcoll::ibarrier(w, 31).unwrap()),
            nbcoll::Request::new(nbcoll::ibarrier(w, 33).unwrap()),
        ];
        nbcoll::waitall(&mut reqs).unwrap();
        true
    });
    assert!(res.per_rank.iter().all(|&x| x));
}

#[test]
fn irecv_request_progress() {
    let res = Universe::run_default(2, |env| {
        let w = &env.world;
        if w.rank() == 0 {
            let mut req = w.irecv::<u64>(Src::Rank(1), 9);
            let done_before = req.test().unwrap();
            // Tell rank 1 we're ready; it sends only after this.
            w.send(&[0u8; 0], 1, 8).unwrap();
            while !req.test().unwrap() {
                mpisim::yield_now();
            }
            let (v, st) = req.take().unwrap();
            assert_eq!(st.source, 1);
            (done_before, v[0])
        } else {
            w.recv::<u8>(Src::Rank(0), 8).unwrap();
            w.send(&[77u64], 0, 9).unwrap();
            (false, 0)
        }
    });
    // Not complete before the sender sent; completes with the payload after.
    assert_eq!(res.per_rank[0], (false, 77));
}

// ---------------------------------------------------------------------------
// §VI: MPI_Icomm_create_group
// ---------------------------------------------------------------------------

#[test]
fn icomm_range_case_is_local_and_instant() {
    let res = Universe::run_default(8, |env| {
        let w = &env.world;
        let group = if w.rank() < 4 {
            Group::range(0, 1, 4)
        } else {
            Group::range(4, 1, 4)
        };
        let t0 = env.now();
        let mut req = icomm_create_group(w, &group, 5).unwrap();
        let local_elapsed = env.now() - t0;
        // Range case: complete immediately, without any communication.
        assert!(req.poll().unwrap());
        let c = req.take().unwrap();
        // Constant local cost, far below one message startup α.
        assert!(local_elapsed.as_nanos() < 1000, "took {local_elapsed}");
        let sum = c.allreduce(&[w.rank() as u64], ops::sum::<u64>()).unwrap()[0];
        (format!("{}", c.ctx()), sum)
    });
    assert_eq!(res.per_rank[0].1, 1 + 2 + 3);
    assert_eq!(res.per_rank[7].1, 4 + 5 + 6 + 7);
    // Distinct contexts for the two halves, shared within a half.
    assert_eq!(res.per_rank[0].0, res.per_rank[3].0);
    assert_ne!(res.per_rank[0].0, res.per_rank[4].0);
}

#[test]
fn icomm_non_range_uses_broadcast() {
    let res = Universe::run_default(6, |env| {
        let w = &env.world;
        // Even ranks form a strided (non-contiguous w.r.t. world? strided IS
        // a range of the world group only if stride matches; use a truly
        // irregular set): {0, 1, 3, 4}.
        if [0usize, 1, 3, 4].contains(&w.rank()) {
            let group = Group::from_ranks(vec![0, 1, 3, 4]);
            let req = icomm_create_group(w, &group, 5).unwrap();
            let c = req.wait_comm().unwrap();
            let ids = c.allgather1(w.rank() as u64).unwrap();
            Some(ids)
        } else {
            None
        }
    });
    for r in [0usize, 1, 3, 4] {
        assert_eq!(res.per_rank[r], Some(vec![0, 1, 3, 4]));
    }
    assert_eq!(res.per_rank[2], None);
    assert_eq!(res.per_rank[5], None);
}

#[test]
fn icomm_same_group_distinguished_by_generation() {
    let res = Universe::run_default(4, |env| {
        let w = &env.world;
        let group = Group::range(0, 1, 4);
        let c1 = icomm_create_group(w, &group, 5)
            .unwrap()
            .wait_comm()
            .unwrap();
        let c2 = icomm_create_group(&c1, &group, 5)
            .unwrap()
            .wait_comm()
            .unwrap();
        (format!("{}", c1.ctx()), format!("{}", c2.ctx()))
    });
    for (a, b) in res.per_rank {
        assert_ne!(a, b, "same-group creation must bump the generation c");
    }
}

#[test]
fn icomm_two_simultaneous_creations_both_progress() {
    // The §VI selling point: a process can progress several nonblocking
    // communicator creations at once.
    let res = Universe::run_default(8, |env| {
        let w = &env.world;
        // Irregular groups to force the broadcast path; rank 3 is in both.
        let ga = Group::from_ranks(vec![0, 1, 3, 6]);
        let gb = Group::from_ranks(vec![2, 3, 5, 7]);
        let mut pending = Vec::new();
        if ga.contains_global(w.rank()) {
            pending.push((icomm_create_group(w, &ga, 41).unwrap(), 'a'));
        }
        if gb.contains_global(w.rank()) {
            pending.push((icomm_create_group(w, &gb, 43).unwrap(), 'b'));
        }
        let mut out = Vec::new();
        while !pending.is_empty() {
            let mut i = 0;
            while i < pending.len() {
                if pending[i].0.poll().unwrap() {
                    let (mut req, label) = pending.remove(i);
                    let c = req.take().unwrap();
                    out.push((label, c));
                } else {
                    i += 1;
                }
            }
            mpisim::yield_now();
        }
        out.sort_by_key(|(l, _)| *l);
        out.into_iter()
            .map(|(l, c)| {
                let sum = c.allreduce(&[w.rank() as u64], ops::sum::<u64>()).unwrap()[0];
                (l, sum)
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(res.per_rank[0], vec![('a', 1 + 3 + 6)]);
    assert_eq!(res.per_rank[3], vec![('a', 10), ('b', 2 + 3 + 5 + 7)]);
    assert_eq!(res.per_rank[5], vec![('b', 17)]);
}
