//! Integration tests of the §VI proposal, `MPI_Icomm_create_group`,
//! exercising the properties the paper claims for it:
//!
//! * constant-time, communication-free creation for process ranges;
//! * full MPI semantics (no tag restrictions between the new communicators);
//! * simultaneous creations all make progress (no serialisation);
//! * recursive creation chains (quicksort-style) without any collective
//!   operations on the critical path.

use mpisim::icomm::icomm_create_group;
use mpisim::nbcoll::Progress;
use mpisim::{ops, Group, Src, Time, Transport, Universe};

#[test]
fn recursive_range_creation_is_communication_free() {
    // Halve the communicator log2(p) times — the recursion pattern of
    // hypercube quicksort — using only §VI range creations. Total virtual
    // time must stay below one message startup (α = 10 µs).
    let p = 16usize;
    let res = Universe::run_default(p, move |env| {
        let mut comm = env.world.clone();
        let t0 = env.now();
        let mut lo = 0usize;
        let mut size = p;
        while size > 1 {
            let half = size / 2;
            let (f, len) = if comm.rank() < half {
                (lo, half)
            } else {
                (lo + half, size - half)
            };
            let group = Group::range(f, 1, len);
            let mut req = icomm_create_group(&comm, &group, 3).unwrap();
            assert!(req.poll().unwrap(), "range case completes instantly");
            comm = req.take().unwrap();
            lo = f;
            size = len;
        }
        let elapsed = env.now() - t0;
        assert!(
            elapsed < Time::from_micros(10),
            "4 levels of communicator creation cost {elapsed} — should be local"
        );
        format!("{}", comm.ctx())
    });
    // Every leaf communicator has a distinct context ID.
    let mut ctxs = res.per_rank.clone();
    ctxs.sort();
    ctxs.dedup();
    assert_eq!(ctxs.len(), p, "leaf contexts must be pairwise distinct");
}

#[test]
fn derived_communicators_do_not_interfere() {
    // Full MPI semantics: same tag, same ranks, sibling communicators —
    // messages must not cross, because each has its own wide context ID.
    let res = Universe::run_default(4, |env| {
        let w = &env.world;
        let top = Group::range(0, 1, 4);
        let all = icomm_create_group(w, &top, 1).unwrap().wait_comm().unwrap();
        let sub = if w.rank() < 2 {
            Group::range(0, 1, 2)
        } else {
            Group::range(2, 1, 2)
        };
        let half = icomm_create_group(&all, &sub, 1)
            .unwrap()
            .wait_comm()
            .unwrap();
        // Rank 0 sends on BOTH communicators with the same tag.
        if w.rank() == 0 {
            all.send(&[111u64], 1, 9).unwrap();
            half.send(&[222u64], 1, 9).unwrap();
            (0, 0)
        } else if w.rank() == 1 {
            // Receive on `half` first — context matching must pick 222.
            let (h, _) = half.recv::<u64>(Src::Rank(0), 9).unwrap();
            let (a, _) = all.recv::<u64>(Src::Rank(0), 9).unwrap();
            (h[0], a[0])
        } else {
            (0, 0)
        }
    });
    assert_eq!(res.per_rank[1], (222, 111));
}

#[test]
fn irregular_groups_progress_concurrently_and_stay_isolated() {
    let res = Universe::run_default(6, |env| {
        let w = &env.world;
        let ga = Group::from_ranks(vec![0, 2, 4, 1]); // irregular order
        let gb = Group::from_ranks(vec![1, 3, 5, 2]); // overlaps ga in {1, 2}
        let mut reqs = Vec::new();
        if ga.contains_global(w.rank()) {
            reqs.push((icomm_create_group(w, &ga, 11).unwrap(), 'a'));
        }
        if gb.contains_global(w.rank()) {
            reqs.push((icomm_create_group(w, &gb, 13).unwrap(), 'b'));
        }
        let mut comms = Vec::new();
        while !reqs.is_empty() {
            let mut i = 0;
            while i < reqs.len() {
                if reqs[i].0.poll().unwrap() {
                    let (mut req, label) = reqs.remove(i);
                    comms.push((label, req.take().unwrap()));
                } else {
                    i += 1;
                }
            }
            mpisim::yield_now();
        }
        comms.sort_by_key(|(l, _)| *l);
        comms
            .into_iter()
            .map(|(l, c)| {
                // Distinct contexts: collectives with default tags on both
                // comms at once must not interfere, even on ranks 1 and 2
                // which sit in both groups.
                let sum = c.allreduce(&[w.rank() as u64], ops::sum::<u64>()).unwrap()[0];
                (l, sum)
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(res.per_rank[0], vec![('a', 2 + 4 + 1)]);
    assert_eq!(res.per_rank[1], vec![('a', 7), ('b', 1 + 3 + 5 + 2)]);
    assert_eq!(res.per_rank[2], vec![('a', 7), ('b', 11)]);
    assert_eq!(res.per_rank[5], vec![('b', 11)]);
}

#[test]
fn range_case_cost_independent_of_group_size() {
    // The §VI range path must be O(1): creation time must not grow with p.
    let cost_at = |p: usize| {
        let res = Universe::run_default(p, move |env| {
            let w = &env.world;
            let g = if w.rank() < p / 2 {
                Group::range(0, 1, p / 2)
            } else {
                Group::range(p / 2, 1, p - p / 2)
            };
            let t0 = env.now();
            let req = icomm_create_group(w, &g, 5).unwrap();
            assert!(req.is_done());
            env.now() - t0
        });
        res.per_rank.into_iter().max().unwrap()
    };
    let small = cost_at(4);
    let large = cost_at(256);
    assert_eq!(
        small, large,
        "range creation must be O(1): {small} vs {large}"
    );
}

#[test]
fn strided_subgroup_of_strided_parent_still_constant_time() {
    // Ranges compose: evens of a communicator over the evens.
    let res = Universe::run_default(8, |env| {
        let w = &env.world;
        if w.rank() % 2 != 0 {
            return None;
        }
        let evens = icomm_create_group(w, &Group::range(0, 2, 4), 21)
            .unwrap()
            .wait_comm()
            .unwrap();
        // {0, 4} is ranks {0, 2} of `evens` — NOT contiguous, so this takes
        // the broadcast path; {0, 2} is ranks {0, 1} — contiguous, local.
        if [0usize, 2].contains(&w.rank()) {
            let g = Group::range(0, 2, 2);
            let req = icomm_create_group(&evens, &g, 23).unwrap();
            let done_immediately = req.is_done();
            let c = req.wait_comm().unwrap();
            let sum = c.allreduce(&[w.rank() as u64], ops::sum::<u64>()).unwrap()[0];
            Some((done_immediately, sum))
        } else {
            Some((true, 0))
        }
    });
    assert_eq!(res.per_rank[0], Some((true, 2)));
    assert_eq!(res.per_rank[2], Some((true, 2)));
    assert_eq!(res.per_rank[1], None);
}

#[test]
fn a_group_naming_a_rank_outside_the_universe_is_a_usage_error() {
    // Range {1, 99} and dense [1, 99, 0]: rank 1 is the broadcast root of
    // both, and must get an error naming 99 before it sends to it.
    let res = Universe::run_default(4, |env| {
        let w = &env.world;
        if w.rank() != 1 {
            return Vec::new();
        }
        [
            Group::from_ranks(vec![1, 99]),
            Group::from_ranks(vec![1, 99, 0]),
        ]
        .iter()
        .map(|g| match icomm_create_group(w, g, 5) {
            Err(mpisim::MpiError::Usage(msg)) => msg,
            Err(e) => panic!("expected a usage error, got {e}"),
            Ok(_) => panic!("expected a usage error, got a pending creation"),
        })
        .collect()
    });
    assert_eq!(res.per_rank[1].len(), 2);
    for msg in &res.per_rank[1] {
        assert!(msg.contains("99"), "{msg}");
    }
}
