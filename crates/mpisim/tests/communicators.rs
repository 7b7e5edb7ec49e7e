//! Communicator construction: split, create_group, dup, context isolation,
//! and the cost asymmetries the paper's Fig. 5 measures.

use mpisim::{Group, SimConfig, Src, Time, Transport, Universe, VendorProfile};

#[test]
fn split_into_halves() {
    let res = Universe::run_default(8, |env| {
        let w = &env.world;
        let color = (w.rank() >= 4) as u64;
        let half = w.split(color, w.rank() as u64).unwrap();
        // Collective on the half must involve exactly 4 processes.
        let sum = half.allreduce(&[1u64], mpisim::ops::sum::<u64>()).unwrap()[0];
        (half.rank(), half.size(), sum)
    });
    for (r, (hr, hs, sum)) in res.per_rank.into_iter().enumerate() {
        assert_eq!(hs, 4);
        assert_eq!(sum, 4);
        assert_eq!(hr, r % 4);
    }
}

#[test]
fn split_respects_keys_reverse_order() {
    let res = Universe::run_default(6, |env| {
        let w = &env.world;
        // Same color for all; key reverses the rank order.
        let c = w.split(0, (w.size() - w.rank()) as u64).unwrap();
        c.rank()
    });
    for (r, new_rank) in res.per_rank.into_iter().enumerate() {
        assert_eq!(new_rank, 5 - r);
    }
}

#[test]
fn split_three_colors_context_distinct() {
    let res = Universe::run_default(9, |env| {
        let w = &env.world;
        let c = w.split((w.rank() % 3) as u64, w.rank() as u64).unwrap();
        (format!("{}", c.ctx()), c.size())
    });
    // All processes of one color share a context; different colors differ.
    let ctx_of = |r: usize| res.per_rank[r].0.clone();
    assert_eq!(ctx_of(0), ctx_of(3));
    assert_eq!(ctx_of(1), ctx_of(4));
    assert_ne!(ctx_of(0), ctx_of(1));
    assert_ne!(ctx_of(1), ctx_of(2));
    assert_ne!(ctx_of(0), ctx_of(2));
    for (_, s) in &res.per_rank {
        assert_eq!(*s, 3);
    }
}

#[test]
fn create_group_range() {
    let res = Universe::run_default(8, |env| {
        let w = &env.world;
        let group = if w.rank() < 4 {
            Group::range(0, 1, 4)
        } else {
            Group::range(4, 1, 4)
        };
        let c = w.create_group(&group, 17).unwrap();
        let ids = c.allgather1(w.rank() as u64).unwrap();
        (c.rank(), ids)
    });
    for (r, (cr, ids)) in res.per_rank.into_iter().enumerate() {
        assert_eq!(cr, r % 4);
        let base = if r < 4 { 0u64 } else { 4 };
        assert_eq!(ids, (base..base + 4).collect::<Vec<_>>());
    }
}

#[test]
fn create_group_ibm_ring_algo_works_too() {
    let cfg = SimConfig::default().with_vendor(VendorProfile::ibm_like());
    let res = Universe::run(6, cfg, |env| {
        let w = &env.world;
        let group = if w.rank() < 3 {
            Group::range(0, 1, 3)
        } else {
            Group::range(3, 1, 3)
        };
        let c = w.create_group(&group, 17).unwrap();
        c.allreduce(&[w.rank() as u64], mpisim::ops::sum::<u64>())
            .unwrap()[0]
    });
    assert_eq!(res.per_rank, vec![3, 3, 3, 12, 12, 12]);
}

#[test]
fn create_group_naming_a_rank_outside_the_universe_is_a_usage_error() {
    // Range {0, 99} (checked at its last member) and dense [0, 99, 1]
    // (walked); rank 0 must get an error naming 99, not wait on it.
    let res = Universe::run_default(4, |env| {
        let w = &env.world;
        if w.rank() != 0 {
            return Vec::new();
        }
        [
            Group::from_ranks(vec![0, 99]),
            Group::from_ranks(vec![0, 99, 1]),
        ]
        .iter()
        .map(|g| match w.create_group(g, 5) {
            Err(mpisim::MpiError::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {:?}", other.map(|c| c.size())),
        })
        .collect()
    });
    assert_eq!(res.per_rank[0].len(), 2);
    for msg in &res.per_rank[0] {
        assert!(msg.contains("99"), "{msg}");
    }
}

#[test]
fn context_isolation_between_parent_and_child() {
    // A message sent on the parent must not be matched by a receive on the
    // child communicator, even with identical rank and tag.
    let res = Universe::run_default(2, |env| {
        let w = &env.world;
        let sub = w.create_group(&Group::range(0, 1, 2), 3).unwrap();
        if w.rank() == 0 {
            w.send(&[111u64], 1, 5).unwrap(); // on parent
            sub.send(&[222u64], 1, 5).unwrap(); // on child
            0
        } else {
            // Receive on the child first: must get 222 despite 111 having
            // been pushed first.
            let (v_child, _) = sub.recv::<u64>(Src::Rank(0), 5).unwrap();
            let (v_parent, _) = w.recv::<u64>(Src::Rank(0), 5).unwrap();
            assert_eq!(v_child, vec![222]);
            assert_eq!(v_parent, vec![111]);
            1
        }
    });
    assert_eq!(res.per_rank, vec![0, 1]);
}

#[test]
fn dup_gets_fresh_context() {
    let res = Universe::run_default(3, |env| {
        let w = &env.world;
        let d = w.dup().unwrap();
        assert_ne!(format!("{}", d.ctx()), format!("{}", w.ctx()));
        // Both remain usable.
        let a = w.allreduce(&[1u64], mpisim::ops::sum::<u64>()).unwrap()[0];
        let b = d.allreduce(&[2u64], mpisim::ops::sum::<u64>()).unwrap()[0];
        (a, b)
    });
    for (a, b) in res.per_rank {
        assert_eq!((a, b), (3, 6));
    }
}

#[test]
fn nested_create_group() {
    // Create quarters out of halves: two levels of derivation.
    let res = Universe::run_default(8, |env| {
        let w = &env.world;
        let half_group = if w.rank() < 4 {
            Group::range(0, 1, 4)
        } else {
            Group::range(4, 1, 4)
        };
        let half = w.create_group(&half_group, 1).unwrap();
        let quarter_group = if half.rank() < 2 {
            half_group.subrange(0, 1, 1)
        } else {
            half_group.subrange(2, 3, 1)
        };
        let quarter = half.create_group(&quarter_group, 2).unwrap();
        quarter.allgather1(w.rank() as u64).unwrap()
    });
    assert_eq!(res.per_rank[0], vec![0, 1]);
    assert_eq!(res.per_rank[2], vec![2, 3]);
    assert_eq!(res.per_rank[5], vec![4, 5]);
    assert_eq!(res.per_rank[7], vec![6, 7]);
}

/// The heart of Fig. 5: native construction cost grows with p; and the
/// IBM-like ring algorithm is orders of magnitude slower than mask
/// agreement at scale.
#[test]
fn construction_costs_scale_as_paper_observes() {
    let split_cost = |p: usize, vendor: VendorProfile| -> Time {
        let cfg = SimConfig::default().with_vendor(vendor);
        let res = Universe::run(p, cfg, |env| {
            let w = &env.world;
            w.barrier().unwrap();
            let t0 = env.now();
            let _c = w
                .create_group(
                    &if w.rank() < p / 2 {
                        Group::range(0, 1, p / 2)
                    } else {
                        Group::range(p / 2, 1, p - p / 2)
                    },
                    9,
                )
                .unwrap();
            env.now() - t0
        });
        res.per_rank.into_iter().max().unwrap()
    };

    let intel_small = split_cost(16, VendorProfile::intel_like());
    let intel_big = split_cost(128, VendorProfile::intel_like());
    assert!(
        intel_big > intel_small,
        "create_group must get more expensive with p: {intel_small} vs {intel_big}"
    );

    let ibm_big = split_cost(128, VendorProfile::ibm_like());
    assert!(
        ibm_big.as_nanos() > 10 * intel_big.as_nanos(),
        "IBM-like ring must be far slower: intel={intel_big} ibm={ibm_big}"
    );

    // The gap must widen with p (the "orders of magnitude" of Fig. 5 is a
    // scaling statement).
    let intel_small_ratio = split_cost(16, VendorProfile::ibm_like()).as_nanos() as f64
        / split_cost(16, VendorProfile::intel_like()).as_nanos() as f64;
    let big_ratio = ibm_big.as_nanos() as f64 / intel_big.as_nanos() as f64;
    assert!(
        big_ratio > intel_small_ratio,
        "ratio must grow with p: {intel_small_ratio:.1} -> {big_ratio:.1}"
    );
}

#[test]
fn overlapping_create_group_with_distinct_tags() {
    // Groups {0,1,2,3} and {3,4,5,6}: rank 3 is in both (a janus-style
    // overlap). With distinct tags both creations succeed.
    let res = Universe::run_default(7, |env| {
        let w = &env.world;
        let left = Group::range(0, 1, 4);
        let right = Group::range(3, 1, 4);
        let mut sizes = Vec::new();
        if w.rank() <= 3 {
            let c = w.create_group(&left, 100).unwrap();
            sizes.push(c.allreduce(&[1u64], mpisim::ops::sum::<u64>()).unwrap()[0]);
        }
        if w.rank() >= 3 {
            let c = w.create_group(&right, 200).unwrap();
            sizes.push(c.allreduce(&[1u64], mpisim::ops::sum::<u64>()).unwrap()[0]);
        }
        sizes
    });
    assert_eq!(res.per_rank[0], vec![4]);
    assert_eq!(res.per_rank[3], vec![4, 4]);
    assert_eq!(res.per_rank[6], vec![4]);
}

#[test]
fn deadlock_detector_reports_timeout() {
    let res = Universe::run_default(2, |env| {
        let w = &env.world;
        if w.rank() == 0 {
            // Nobody ever sends tag 77.
            w.recv::<u64>(Src::Rank(1), 77).map(|_| ()).unwrap_err()
        } else {
            mpisim::MpiError::Usage("other rank".into())
        }
    });
    assert!(matches!(
        res.per_rank[0],
        mpisim::MpiError::Timeout { rank: 0, .. }
    ));
}

#[test]
fn traffic_accounting_counts_messages_and_bytes() {
    let res = Universe::run_default(2, |env| {
        let w = &env.world;
        if w.rank() == 0 {
            w.send(&[1u64, 2, 3], 1, 5).unwrap();
        } else {
            w.recv::<u64>(Src::Rank(0), 5).unwrap();
        }
    });
    assert_eq!(res.metrics.messages, 1);
    assert_eq!(res.metrics.bytes, 24);
}

#[test]
fn rbc_style_view_traffic_is_zero_for_pure_splits() {
    // Communicator creation by RBC generates NO traffic at all — the
    // measurable version of "without communication".
    let res = Universe::run_default(8, |env| {
        let _half = env
            .world
            .create_group(&Group::range(0, 1, 8), 3)
            .map(|_| ())
            .ok();
    });
    // Native creation DID send messages (mask agreement).
    assert!(res.metrics.messages > 0);
}
