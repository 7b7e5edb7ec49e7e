//! Fig. 4: running times of `MPI_Iscan` vs `rbc::Iscan`, doubles, per-rank
//! element counts swept (paper: 2^15 cores, n/p = 2^0..2^18).
//!
//! Expected shape: all implementations coincide for small n/p (startup
//! dominated); for large n/p RBC outperforms the vendor scans by up to an
//! order of magnitude (paper: factor up to 16).

use mpisim::{nbcoll, ops, Comm, SimConfig, Time, Transport, VendorProfile};
use rbc::RbcComm;

use crate::figs::scale;
use crate::{measure_async, ms, pow2_sweep, reps, Table};

/// `Iscan` on the communicator `comm` builds over the world: MPI's with
/// `Comm::clone`, RBC's with `RbcComm::create`.
fn iscan<C: Transport>(
    p: usize,
    n_per: usize,
    vendor: VendorProfile,
    comm: fn(&Comm) -> C,
) -> Time {
    let cfg = SimConfig::cooperative().with_vendor(vendor);
    measure_async(p, cfg, reps(5), move |env, rep| async move {
        let w = comm(&env.world);
        let data: Vec<f64> = (0..n_per).map(|i| (i + rep) as f64).collect();
        w.barrier_async().await.unwrap();
        let t0 = env.now();
        let mut sm = w.iscan(&data, ops::sum::<f64>(), None).unwrap();
        nbcoll::wait_async(&mut sm).await.unwrap();
        env.now() - t0
    })
}

/// Regenerate this figure's tables and write their CSVs.
pub fn run() -> Vec<Table> {
    let p = scale::p_elems();
    let mut t = Table::new(
        &format!("Fig 4 — nonblocking scan on {p} cores (doubles)"),
        "n/p",
        &["IBM MPI Iscan", "Intel MPI Iscan", "RBC Iscan (IBM p2p)"],
    );
    for n_per in pow2_sweep(0, scale::max_elem_exp()) {
        let n_per = n_per as usize;
        let ibm = iscan(p, n_per, VendorProfile::ibm_like(), Comm::clone);
        let intel = iscan(p, n_per, VendorProfile::intel_like(), Comm::clone);
        let rbc = iscan(p, n_per, VendorProfile::ibm_like(), RbcComm::create);
        t.push(n_per as u64, vec![ms(ibm), ms(intel), ms(rbc)]);
    }
    t.print();
    t.write_csv("fig4_iscan");
    vec![t]
}
