//! Exact virtual-time checks: the α–β model's arithmetic, asserted to the
//! nanosecond rather than bounded.
//!
//! The dissemination barrier runs ⌈log2 p⌉ rounds. In each, every rank
//! sends an empty message (its clock gains `send_overhead`, the message
//! arrives `α·a` after the send) and receives its peer's (`clock =
//! max(clock, arrival) + recv_overhead`). All ranks start a round at the
//! same time, so each round costs `max(α·a, send_overhead) +
//! recv_overhead` on every rank. `a` is the vendor's barrier α factor for
//! `Comm::barrier_async` and 1 for plain point-to-point traffic: the
//! generic `coll::barrier_async` on a communicator and the RBC barrier on
//! a subrange.

use mpisim::{coll, CostModel, SimConfig, Time, Transport, Universe, VendorProfile};
use rbc::RbcComm;

const SIZES: [usize; 9] = [1, 2, 3, 5, 8, 13, 64, 1000, 1024];

/// Which barrier a run measures.
#[derive(Clone, Copy, Debug)]
enum Barrier {
    /// `Comm::barrier_async`: the vendor's barrier cost scale applies.
    Native,
    /// `coll::barrier_async` over the communicator as a plain transport.
    Plain,
    /// `RbcComm::barrier_async` on ranks `2..=p + 1` of `p + 3`.
    RbcSubrange,
}

fn expected(p: usize, cost: &CostModel, alpha_factor: f64) -> Time {
    let rounds = p.next_power_of_two().trailing_zeros() as u64;
    let round = cost.alpha.scale(alpha_factor).max(cost.send_overhead) + cost.recv_overhead;
    Time::from_nanos(rounds * round.as_nanos())
}

/// Every participating rank's `(clock after − clock before)` the barrier.
fn barrier_spans(kind: Barrier, p: usize, vendor: VendorProfile) -> Vec<Time> {
    let world = match kind {
        Barrier::RbcSubrange => p + 3,
        Barrier::Native | Barrier::Plain => p,
    };
    let cfg = SimConfig::default().with_vendor(vendor);
    let res = Universe::run_poll(world, cfg, move |env| async move {
        let w = &env.world;
        let sub = match kind {
            Barrier::RbcSubrange if (2..=p + 1).contains(&w.rank()) => {
                Some(RbcComm::create(w).split(2, p + 1).unwrap())
            }
            Barrier::RbcSubrange => return None,
            Barrier::Native | Barrier::Plain => None,
        };
        let t0 = env.now();
        match kind {
            Barrier::Native => w.barrier_async().await.unwrap(),
            Barrier::Plain => coll::barrier_async(w, 7).await.unwrap(),
            Barrier::RbcSubrange => sub.as_ref().unwrap().barrier_async().await.unwrap(),
        }
        Some(env.now() - t0)
    });
    res.per_rank.into_iter().flatten().collect()
}

#[test]
fn dissemination_barrier_makespan_is_exact() {
    let cost = CostModel::supermuc_like();
    for vendor in [
        VendorProfile::neutral(),
        VendorProfile::intel_like(),
        VendorProfile::ibm_like(),
    ] {
        let native = vendor.coll_scale.barrier.alpha_factor;
        for kind in [Barrier::Native, Barrier::Plain, Barrier::RbcSubrange] {
            let a = match kind {
                Barrier::Native => native,
                Barrier::Plain | Barrier::RbcSubrange => 1.0,
            };
            for p in SIZES {
                let spans = barrier_spans(kind, p, vendor.clone());
                assert_eq!(spans.len(), p, "{kind:?} p {p}");
                let want = expected(p, &cost, a);
                assert!(
                    spans.iter().all(|&t| t == want),
                    "{} {kind:?} p {p}: want {want:?} on every rank, got {:?}",
                    vendor.name,
                    spans.iter().max()
                );
            }
        }
    }
}

#[test]
fn the_formula_reads_the_probed_values() {
    let cost = CostModel::supermuc_like();
    let intel = VendorProfile::intel_like().coll_scale.barrier.alpha_factor;
    assert_eq!(expected(1024, &cost, 1.0), Time::from_nanos(105_000));
    assert_eq!(expected(1024, &cost, intel), Time::from_nanos(125_000));
    assert_eq!(expected(1, &cost, 1.0), Time::ZERO);
}
