//! Table I of the paper: every listed RBC operation and class exists and
//! executes. This test is the "reproduction" of Table I — the library's
//! operation surface.
//!
//! | Blocking Ops | Nonblocking Ops | Classes           |
//! |--------------|-----------------|-------------------|
//! | rbc::Bcast   | rbc::Ibcast     | rbc::Request      |
//! | rbc::Reduce  | rbc::Ireduce    | rbc::Comm         |
//! | rbc::Scan    | rbc::Iscan      |                   |
//! | rbc::Gather  | rbc::Igather    |                   |
//! | rbc::Gatherv | rbc::Igatherv   |                   |
//! | rbc::Barrier | rbc::Ibarrier   |                   |
//! | rbc::Send    | rbc::Isend      |                   |
//! | rbc::Recv    | rbc::Irecv      |                   |
//! | rbc::Probe   | rbc::Iprobe     |                   |
//! | rbc::Wait    | rbc::Test       |                   |
//! | rbc::Waitall |                 |                   |
//! | rbc::Create_RBC_Comm  rbc::Split_RBC_Comm          |
//! | rbc::Comm_rank        rbc::Comm_size               |

use mpisim::{ops, Src, Transport, Universe};
use rbc::{RbcComm, Request};

#[test]
fn every_table_i_operation_runs() {
    let res = Universe::run_default(4, |env| {
        // Classes: rbc::Comm via Create_RBC_Comm / Split_RBC_Comm.
        let world: RbcComm = rbc::create_rbc_comm(&env.world);
        let r = rbc::comm_rank(&world);
        let s = rbc::comm_size(&world);
        assert_eq!(s, 4);
        let sub = rbc::split_rbc_comm(&world, 0, s - 1).unwrap();
        assert_eq!(sub.size(), 4);

        // Blocking collectives.
        let mut b = vec![if r == 0 { 7u64 } else { 0 }];
        world.bcast(&mut b, 0).unwrap(); // rbc::Bcast
        assert_eq!(b, vec![7]);
        let red = world.reduce(&[1u64], 0, ops::sum::<u64>()).unwrap(); // rbc::Reduce
        if r == 0 {
            assert_eq!(red, Some(vec![4]));
        }
        let sc = world.scan(&[1u64], ops::sum::<u64>()).unwrap(); // rbc::Scan
        assert_eq!(sc, vec![r as u64 + 1]);
        let g = world.gather(vec![r as u64], 0).unwrap(); // rbc::Gather
        if r == 0 {
            assert_eq!(g, Some(vec![0, 1, 2, 3]));
        }
        let gv = world.gatherv(vec![r as u64; r], 0).unwrap(); // rbc::Gatherv
        if r == 0 {
            assert_eq!(gv.unwrap()[3], vec![3, 3, 3]);
        }
        world.barrier().unwrap(); // rbc::Barrier

        // Point-to-point: Send/Recv/Probe + I-variants.
        if r == 0 {
            world.send(&[11u64], 1, 5).unwrap(); // rbc::Send
            world.isend(vec![22u64], 1, 6).unwrap(); // rbc::Isend
        }
        if r == 1 {
            let st = world.probe(Src::Rank(0), 5).unwrap(); // rbc::Probe
            assert_eq!((st.source, st.count), (0, 1));
            let (v, _) = world.recv::<u64>(Src::Rank(0), 5).unwrap(); // rbc::Recv
            assert_eq!(v, vec![11]);
            let mut req = world.irecv::<u64>(Src::Rank(0), 6); // rbc::Irecv

            // rbc::Test / rbc::Wait on the request.
            while !req.test().unwrap() {
                mpisim::yield_now();
            }
            assert_eq!(req.take().unwrap().0, vec![22]);
            // rbc::Iprobe returns None once consumed.
            assert!(world.iprobe(Src::Rank(0), 6).unwrap().is_none());
        }

        // Nonblocking collectives + Request/Test/Wait/Waitall.
        let ib = world.ibcast((r == 0).then(|| vec![1u64]), 0, None).unwrap(); // rbc::Ibcast
        let ir = world.ireduce(&[1u64], 0, ops::sum::<u64>(), None).unwrap(); // rbc::Ireduce
        let is = world.iscan(&[1u64], ops::sum::<u64>(), None).unwrap(); // rbc::Iscan
        let ig = world.igather(vec![r as u64], 0, None).unwrap(); // rbc::Igather
        let igv = world.igatherv(vec![r as u64], 0, None).unwrap(); // rbc::Igatherv
        let ibar = world.ibarrier(None).unwrap(); // rbc::Ibarrier
        let mut reqs = vec![
            Request::new(ib),
            Request::new(ir),
            Request::new(is),
            Request::new(ig),
            Request::new(igv),
            Request::new(ibar),
        ];
        assert!(rbc::testall(&mut reqs).is_ok()); // rbc::Testall
        rbc::waitall(&mut reqs).unwrap(); // rbc::Waitall

        // rbc::Wait on a single request.
        let mut one = Request::new(world.ibarrier(Some(999)).unwrap());
        one.wait().unwrap();
        true
    });
    assert!(res.per_rank.iter().all(|&ok| ok));
}

#[test]
fn interfaces_accept_user_tags_like_the_paper() {
    // §V-D: `int rbc::Ibcast(..., int tag = RBC_IBCAST_TAG)`.
    let res = Universe::run_default(3, |env| {
        let world = rbc::create_rbc_comm(&env.world);
        let a = world
            .ibcast((world.rank() == 0).then(|| vec![1u64]), 0, Some(777))
            .unwrap();
        let b = world
            .ibcast((world.rank() == 0).then(|| vec![2u64]), 0, Some(779))
            .unwrap();
        // Two broadcasts in flight on the same communicator, same root —
        // only possible with distinct tags.
        let x = a.wait_data().unwrap()[0];
        let y = b.wait_data().unwrap()[0];
        (x, y)
    });
    for (x, y) in res.per_rank {
        assert_eq!((x, y), (1, 2));
    }
}

// A user message on a reserved tag could be claimed by a collective's own
// receive, so `isend` refuses one in every build profile, and nothing
// leaves the rank.
#[test]
fn isend_rejects_a_reserved_tag() {
    let res = Universe::run_default(2, |env| {
        let world = rbc::create_rbc_comm(&env.world);
        let peer = 1 - world.rank();
        let reserved = [mpisim::tags::RESERVED_BASE, rbc::RBC_IBCAST_TAG, u64::MAX];
        let refused = reserved.map(|tag| match world.isend(vec![1u64], peer, tag) {
            Err(mpisim::MpiError::Usage(msg)) => msg.contains("reserved"),
            _ => false,
        });
        world.isend(vec![2u64], peer, 5).unwrap();
        let (got, _) = world.recv::<u64>(Src::Rank(peer), 5).unwrap();
        (refused, got)
    });
    for (refused, got) in res.per_rank {
        assert_eq!(refused, [true; 3]);
        assert_eq!(got, vec![2]);
    }
    assert_eq!(res.metrics.messages, 2, "only the user-tag sends travel");
}
