//! Fig. 6: splitting a communicator into *overlapping* communicators of
//! size 4 ({0..3}, {3..6}, {6..9}, ...) with a cascaded vs an alternating
//! schedule (paper: p = 2^9..2^13, Intel MPI vs RBC).
//!
//! Processes at ranks 3, 6, 9, ... belong to two communicators. Cascaded:
//! every such process creates its left communicator first — native blocking
//! creation then chains across the whole machine and the time grows
//! linearly with p. Alternating: every other overlap process creates the
//! right one first, which bounds the chains. RBC: both schedules are local
//! and free.

use mpisim::{Group, SimConfig, Time, Transport, VendorProfile};
use rbc::RbcComm;

use crate::figs::scale;
use crate::{measure_async, ms, pow2_sweep, reps, Table};

/// Group k covers ranks 3k..=3k+3; usable p is 3m+1.
fn usable_p(p: usize) -> usize {
    if p < 4 {
        4
    } else {
        ((p - 1) / 3) * 3 + 1
    }
}

/// The group indices rank `r` belongs to, in (left, right) order.
fn my_groups(p: usize, r: usize) -> Vec<usize> {
    let n_groups = (p - 1) / 3;
    let mut gs = Vec::new();
    if r.is_multiple_of(3) {
        if r > 0 {
            gs.push(r / 3 - 1); // left group
        }
        if r / 3 < n_groups {
            gs.push(r / 3); // right group
        }
    } else {
        gs.push(r / 3);
    }
    gs
}

#[derive(Clone, Copy, PartialEq)]
enum Sched {
    Cascaded,
    Alternating,
}

fn native_overlap(p: usize, sched: Sched) -> Time {
    let p = usable_p(p);
    measure_async(
        p,
        SimConfig::cooperative().with_vendor(VendorProfile::intel_like()),
        reps(3),
        move |env, _| async move {
            let w = &env.world;
            let mut gs = my_groups(p, w.rank());
            // gs is in (left, right) order; flip for alternating on odd
            // overlap processes.
            if sched == Sched::Alternating && gs.len() == 2 && (w.rank() / 3) % 2 == 1 {
                gs.reverse();
            }
            w.barrier_async().await.unwrap();
            let t0 = env.now();
            for k in gs {
                let group = Group::range(3 * k, 1, 4);
                let _c = w.create_group_async(&group, 200 + k as u64).await.unwrap();
            }
            env.now() - t0
        },
    )
}

fn rbc_overlap(p: usize, sched: Sched) -> Time {
    let p = usable_p(p);
    measure_async(
        p,
        SimConfig::cooperative(),
        reps(3),
        move |env, _| async move {
            let world = RbcComm::create(&env.world);
            let mut gs = my_groups(p, world.rank());
            if sched == Sched::Alternating && gs.len() == 2 && (world.rank() / 3) % 2 == 1 {
                gs.reverse();
            }
            world.barrier_async().await.unwrap();
            let t0 = env.now();
            for k in gs {
                let _c = world.split(3 * k, 3 * k + 3).unwrap();
            }
            env.now() - t0
        },
    )
}

/// Regenerate this figure's tables and write their CSVs.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "Fig 6 — overlapping communicators of size 4, cascaded vs alternating",
        "p",
        &[
            "RBC Cascade",
            "RBC Alternating",
            "Intel Alternating create_group",
            "Intel Cascade create_group",
        ],
    );
    for p in pow2_sweep(4, scale::max_proc_exp()) {
        let p = p as usize;
        t.push(
            usable_p(p) as u64,
            vec![
                ms(rbc_overlap(p, Sched::Cascaded)),
                ms(rbc_overlap(p, Sched::Alternating)),
                ms(native_overlap(p, Sched::Alternating)),
                ms(native_overlap(p, Sched::Cascaded)),
            ],
        );
    }
    t.print();
    t.write_csv("fig6_overlap");
    vec![t]
}
