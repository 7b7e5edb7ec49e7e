//! Large-universe stress tests: the paper's 2^15-process regime, which
//! only future bodies on the epoch scheduler reach (a synchronous body is
//! an OS thread per rank), so the programs are async and enter through
//! `Universe::run_poll`.
//!
//! Every rank performs an RBC `split` (O(1), local, no communication) into
//! its half/quarter of the world, then an allreduce round-trip inside the
//! sub-communicator and a barrier over the world — exercising communicator
//! creation, binomial-tree collectives, and the mailbox wake-up path at
//! scale.

use mpisim::{coll, tags, SimConfig, Transport, Universe};
use rbc::RbcComm;

/// RBC split + allreduce round-trip at `p` ranks on the epoch scheduler.
/// Returns nothing; asserts correctness on every rank.
fn split_allreduce_roundtrip(p: usize) {
    let res = Universe::run_poll(p, SimConfig::cooperative(), move |env| async move {
        let world = RbcComm::create(&env.world);
        let r = world.rank();
        // Split into two halves — local, no messages.
        let half = p / 2;
        let (f, l) = if r < half {
            (0, half - 1)
        } else {
            (half, p - 1)
        };
        let sub = world.split(f, l).unwrap();
        // Allreduce inside my half: the sum of ones counts the half's size.
        let ones = coll::allreduce_async(&sub, &[1u64], tags::ALLREDUCE, |a, b| a + b)
            .await
            .unwrap()[0];
        // Round-trip: reduce the half's rank sum to the half root, then
        // broadcast it back out.
        let rank_sum =
            coll::reduce_async(&sub, &[sub.rank() as u64], 0, tags::REDUCE, |a, b| a + b)
                .await
                .unwrap()
                .map(|v| v[0]);
        let mut echoed = vec![rank_sum.unwrap_or(0)];
        coll::bcast_async(&sub, &mut echoed, 0, tags::BCAST)
            .await
            .unwrap();
        // World-wide barrier over the RBC world communicator.
        world.barrier_async().await.unwrap();
        (ones, echoed[0])
    });
    let half = p / 2;
    let lo_size = half as u64;
    let hi_size = (p - half) as u64;
    let lo_sum = lo_size * (lo_size - 1) / 2;
    let hi_sum = hi_size * (hi_size - 1) / 2;
    for (r, &(ones, sum)) in res.per_rank.iter().enumerate() {
        if r < half {
            assert_eq!(ones, lo_size, "rank {r}: wrong half size");
            assert_eq!(sum, lo_sum, "rank {r}: wrong echoed rank sum");
        } else {
            assert_eq!(ones, hi_size, "rank {r}: wrong half size");
            assert_eq!(sum, hi_sum, "rank {r}: wrong echoed rank sum");
        }
    }
}

#[test]
fn huge_universe_4096() {
    split_allreduce_roundtrip(4096);
}

/// The paper's full 2^15 scale: 32,768 future bodies, zero per-rank OS
/// threads.
#[test]
fn huge_universe_32768() {
    split_allreduce_roundtrip(32768);
}

/// Recursive halving down to singleton communicators at p = 4096: the
/// JQuick-style splitting schedule, all O(1) local splits.
#[test]
fn huge_universe_recursive_split_4096() {
    let p = 4096usize;
    let res = Universe::run_poll(p, SimConfig::cooperative(), move |env| async move {
        let world = RbcComm::create(&env.world);
        let mut c = world;
        let mut depth = 0u32;
        while c.size() > 1 {
            let half = c.size() / 2;
            let (f, l) = if c.rank() < half {
                (0, half - 1)
            } else {
                (half, c.size() - 1)
            };
            c = c.split(f, l).unwrap();
            depth += 1;
        }
        depth
    });
    // 4096 = 2^12: every rank bottoms out after exactly 12 halvings.
    assert!(res.per_rank.iter().all(|&d| d == 12), "uneven split depth");
}
