//! Fig. 7: running-time *ratios* of MPI to RBC for broadcasts on a
//! sub-range covering half the processes (paper: 2^14 of 2^15 processes;
//! split once, then 1× or 50× nonblocking broadcast of n doubles).
//!
//! Native MPI must create the sub-communicator with a blocking operation
//! first (the vendor-best one: `create_group` for Intel-like, `split` for
//! IBM-like whose `create_group` is pathological); RBC splits locally.
//!
//! Expected shape: ratios far above 1 for small n (creation dominates),
//! decaying toward 1 as n grows; the 50-broadcast ratios sit below the
//! 1-broadcast ratios (creation amortised).

use mpisim::{nbcoll, Group, SimConfig, Time, Transport, VendorProfile};
use rbc::RbcComm;

use crate::figs::scale;
use crate::{measure_async, pow2_sweep, reps, Table};

#[derive(Clone, Copy)]
enum NativeCreate {
    CreateGroup,
    Split,
}

fn native_time(
    p: usize,
    n: usize,
    bcasts: usize,
    vendor: VendorProfile,
    how: NativeCreate,
) -> Time {
    measure_async(
        p,
        SimConfig::cooperative().with_vendor(vendor),
        reps(5),
        move |env, rep| async move {
            let w = &env.world;
            let in_range = w.rank() < p / 2;
            w.barrier_async().await.unwrap();
            let t0 = env.now();
            let sub = match how {
                NativeCreate::CreateGroup => {
                    if !in_range {
                        // create_group is collective over the new group only.
                        return Time::ZERO;
                    }
                    w.create_group_async(&Group::range(0, 1, p / 2), 300 + rep as u64)
                        .await
                        .unwrap()
                }
                NativeCreate::Split => {
                    // split must be called by ALL processes of the parent.
                    let c = w
                        .split_async(u64::from(!in_range), w.rank() as u64)
                        .await
                        .unwrap();
                    if !in_range {
                        return env.now() - t0;
                    }
                    c
                }
            };
            for _ in 0..bcasts {
                let data = (sub.rank() == 0).then(|| vec![1.0f64; n]);
                let mut sm = sub.ibcast(data, 0).unwrap();
                nbcoll::wait_async(&mut sm).await.unwrap();
            }
            env.now() - t0
        },
    )
}

fn rbc_time(p: usize, n: usize, bcasts: usize, vendor: VendorProfile) -> Time {
    measure_async(
        p,
        SimConfig::cooperative().with_vendor(vendor),
        reps(5),
        move |env, _| async move {
            let world = RbcComm::create(&env.world);
            world.barrier_async().await.unwrap();
            if world.rank() >= p / 2 {
                return Time::ZERO;
            }
            let t0 = env.now();
            let sub = world.split(0, p / 2 - 1).unwrap();
            for _ in 0..bcasts {
                let data = (sub.rank() == 0).then(|| vec![1.0f64; n]);
                let mut sm = sub.ibcast(data, 0, None).unwrap();
                rbc::wait_async(&mut sm).await.unwrap();
            }
            env.now() - t0
        },
    )
}

/// Regenerate this figure's tables and write their CSVs.
pub fn run() -> Vec<Table> {
    let p = scale::p_elems();
    let mut t = Table::with_unit(
        &format!(
            "Fig 7 — MPI/RBC time ratios: split + k× Ibcast on {} of {p} processes",
            p / 2
        ),
        "elements",
        &[
            "IBM split + 1x Ibcast",
            "IBM split + 50x Ibcast",
            "Intel create_group + 1x Ibcast",
            "Intel create_group + 50x Ibcast",
        ],
        "ratio",
    );
    for n in pow2_sweep(0, scale::max_elem_exp()) {
        let n = n as usize;
        let mut vals = Vec::new();
        for (vendor, how) in [
            (VendorProfile::ibm_like(), NativeCreate::Split),
            (VendorProfile::intel_like(), NativeCreate::CreateGroup),
        ] {
            for bcasts in [1usize, 50] {
                let native = native_time(p, n, bcasts, vendor.clone(), how);
                let rbc = rbc_time(p, n, bcasts, vendor.clone());
                vals.push(native.as_nanos() as f64 / rbc.as_nanos().max(1) as f64);
            }
        }
        t.push(n as u64, vals);
    }
    t.print();
    t.write_csv("fig7_subrange");
    vec![t]
}
