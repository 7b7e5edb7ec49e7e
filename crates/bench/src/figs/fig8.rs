//! Fig. 8: running times of Janus Quicksort with RBC communicators vs
//! native MPI communicators, both vendor personalities
//! (paper: 2^15 cores, n/p = 2^0..2^20, 64-bit floats, alternating
//! schedule; 7 repetitions for n/p ≤ 2^16, 3 above).
//!
//! Expected shape: JQuick/RBC beats JQuick/native-MPI by orders of
//! magnitude for small and moderate n/p (communicator creation dominates);
//! the curves converge as n/p grows; the Intel-like runs fluctuate at large
//! n/p (p2p jitter), affecting both RBC-on-Intel and native Intel.

use jquick::{jquick_sort_async, workloads, Backend, JQuickConfig, Layout, MpiBackend, RbcBackend};
use mpisim::{SimConfig, Time, Transport, VendorProfile};

use crate::figs::scale;
use crate::{measure_async, ms, pow2_sweep, Table};

fn gen(layout: &Layout, rank: u64, seed: u64) -> Vec<f64> {
    workloads::generate(layout, rank, seed, workloads::Dist::Uniform)
}

/// Mean JQuick sort makespan on `p` ranks with `n_per` elements each.
pub fn sort_time<B>(backend: B, p: usize, n_per: u64, vendor: VendorProfile) -> Time
where
    B: Backend + Copy,
    B::C: Sync,
{
    // Paper protocol: 7 reps for moderate sizes, 3 for large.
    let reps = if crate::quick_mode() {
        2
    } else if n_per <= 1 << 10 {
        7
    } else {
        3
    };
    let n = n_per * p as u64;
    measure_async(
        p,
        SimConfig::cooperative().with_vendor(vendor),
        reps,
        move |env, rep| async move {
            let w = &env.world;
            let layout = Layout::new(n, p as u64);
            let data = gen(&layout, w.rank() as u64, rep as u64 * 7919 + 1);
            w.barrier_async().await.unwrap();
            let t0 = env.now();
            let (_out, _stats) = jquick_sort_async(&backend, w, data, n, &JQuickConfig::default())
                .await
                .unwrap();
            env.now() - t0
        },
    )
}

/// Regenerate the Fig. 8 tables and write their CSVs.
pub fn run() -> Vec<Table> {
    let p = scale::p_elems();
    let mut t = Table::new(
        &format!("Fig 8 — JQuick on {p} cores: RBC vs native MPI communicators"),
        "n/p",
        &["RBC (Intel p2p)", "RBC (IBM p2p)", "Intel MPI", "IBM MPI"],
    );
    for n_per in pow2_sweep(0, scale::max_elem_exp()) {
        t.push(
            n_per,
            vec![
                ms(sort_time(RbcBackend, p, n_per, VendorProfile::intel_like())),
                ms(sort_time(RbcBackend, p, n_per, VendorProfile::ibm_like())),
                ms(sort_time(MpiBackend, p, n_per, VendorProfile::intel_like())),
                ms(sort_time(MpiBackend, p, n_per, VendorProfile::ibm_like())),
            ],
        );
    }
    t.print();
    t.write_csv("fig8_jquick");
    vec![t]
}
