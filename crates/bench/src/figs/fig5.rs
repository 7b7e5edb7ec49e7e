//! Fig. 5: time to split a communicator of p processes into two halves —
//! `MPI_Comm_create_group` vs `MPI_Comm_split` vs RBC, both vendor
//! profiles (paper: p = 2^10..2^15).
//!
//! Expected shape: RBC flat at ~0; Intel-like `create_group` grows linearly
//! with p (explicit group representation); `split` costs about twice
//! `create_group` at large p; IBM-like `create_group` is orders of
//! magnitude slower (leader-ring agreement).

use mpisim::{Group, SimConfig, Time, Transport, VendorProfile};
use rbc::RbcComm;

use crate::figs::scale;
use crate::{measure_async, ms, pow2_sweep, reps, Table};

fn halves_group(p: usize, rank: usize) -> Group {
    if rank < p / 2 {
        Group::range(0, 1, p / 2)
    } else {
        Group::range(p / 2, 1, p - p / 2)
    }
}

fn create_group_time(p: usize, vendor: VendorProfile) -> Time {
    measure_async(
        p,
        SimConfig::cooperative().with_vendor(vendor),
        reps(5),
        move |env, rep| async move {
            let w = &env.world;
            let g = halves_group(p, w.rank());
            w.barrier_async().await.unwrap();
            let t0 = env.now();
            let _c = w.create_group_async(&g, 100 + rep as u64).await.unwrap();
            env.now() - t0
        },
    )
}

fn split_time(p: usize, vendor: VendorProfile) -> Time {
    measure_async(
        p,
        SimConfig::cooperative().with_vendor(vendor),
        reps(5),
        move |env, _| async move {
            let w = &env.world;
            let color = u64::from(w.rank() >= p / 2);
            w.barrier_async().await.unwrap();
            let t0 = env.now();
            let _c = w.split_async(color, w.rank() as u64).await.unwrap();
            env.now() - t0
        },
    )
}

fn rbc_time(p: usize) -> Time {
    measure_async(
        p,
        SimConfig::cooperative(),
        reps(5),
        move |env, _| async move {
            let world = RbcComm::create(&env.world);
            let r = world.rank();
            let (f, l) = if r < p / 2 {
                (0, p / 2 - 1)
            } else {
                (p / 2, p - 1)
            };
            world.barrier_async().await.unwrap();
            let t0 = env.now();
            let _c = world.split(f, l).unwrap();
            env.now() - t0
        },
    )
}

/// Regenerate this figure's tables and write their CSVs.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "Fig 5 — splitting a communicator of p processes into halves",
        "p",
        &[
            "IBM Comm_create_group",
            "IBM Comm_split",
            "Intel Comm_create_group",
            "Intel Comm_split",
            "RBC Comm_create_group",
        ],
    );
    for p in pow2_sweep(4, scale::max_proc_exp()) {
        let p = p as usize;
        t.push(
            p as u64,
            vec![
                ms(create_group_time(p, VendorProfile::ibm_like())),
                ms(split_time(p, VendorProfile::ibm_like())),
                ms(create_group_time(p, VendorProfile::intel_like())),
                ms(split_time(p, VendorProfile::intel_like())),
                ms(rbc_time(p)),
            ],
        );
    }
    t.print();
    t.write_csv("fig5_split");
    vec![t]
}
