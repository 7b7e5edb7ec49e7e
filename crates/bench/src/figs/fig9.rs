//! Fig. 9 (a–h): nonblocking collectives — broadcast, reduce, scan, gather
//! — MPI vs RBC on both vendor personalities (paper: 2^15 cores; gather
//! swept only to 2^10 elements since the root receives p·n).
//!
//! Expected shape: RBC performs like the vendor collectives for small
//! inputs; for large inputs the vendor scans (and Intel-like
//! broadcast/reduce, with jitter) fall behind — "our range-based
//! communicator creation does not come with hidden overheads".

use mpisim::{ops, Request, SimConfig, Time, Transport, VendorProfile};
use rbc::RbcComm;

use crate::figs::scale;
use crate::{measure_async, ms, pow2_sweep, reps, Table};

/// The collective operation a Fig. 9 panel benchmarks.
#[derive(Clone, Copy, PartialEq)]
pub enum Op {
    /// Nonblocking broadcast.
    Bcast,
    /// Nonblocking reduce.
    Reduce,
    /// Nonblocking inclusive scan.
    Scan,
    /// Nonblocking gather.
    Gather,
}

impl Op {
    fn name(&self) -> &'static str {
        match self {
            Op::Bcast => "Broadcast",
            Op::Reduce => "Reduce",
            Op::Scan => "Scan",
            Op::Gather => "Gather",
        }
    }
}

async fn run_native(env: mpisim::ProcEnv, op: Op, n: usize, rep: usize) -> Time {
    let w = &env.world;
    let data: Vec<f64> = (0..n).map(|i| (i + rep) as f64).collect();
    w.barrier_async().await.unwrap();
    let t0 = env.now();
    let mut req = match op {
        Op::Bcast => Request::new(w.ibcast((w.rank() == 0).then_some(data), 0).unwrap()),
        Op::Reduce => Request::new(w.ireduce(&data, 0, ops::sum::<f64>()).unwrap()),
        Op::Scan => Request::new(w.iscan(&data, ops::sum::<f64>()).unwrap()),
        Op::Gather => Request::new(w.igather(data, 0).unwrap()),
    };
    req.wait_async().await.unwrap();
    env.now() - t0
}

async fn run_rbc(env: mpisim::ProcEnv, op: Op, n: usize, rep: usize) -> Time {
    let w = RbcComm::create(&env.world);
    let data: Vec<f64> = (0..n).map(|i| (i + rep) as f64).collect();
    w.barrier_async().await.unwrap();
    let t0 = env.now();
    let mut req = match op {
        Op::Bcast => Request::new(w.ibcast((w.rank() == 0).then_some(data), 0, None).unwrap()),
        Op::Reduce => Request::new(w.ireduce(&data, 0, ops::sum::<f64>(), None).unwrap()),
        Op::Scan => Request::new(w.iscan(&data, ops::sum::<f64>(), None).unwrap()),
        Op::Gather => Request::new(w.igather(data, 0, None).unwrap()),
    };
    req.wait_async().await.unwrap();
    env.now() - t0
}

/// One panel of Fig. 9: `op` under `vendor`, MPI vs RBC, swept over n/p.
pub fn panel(op: Op, vendor: VendorProfile) -> Table {
    let p = scale::p_elems();
    let max_exp = if op == Op::Gather {
        scale::max_elem_exp().min(10)
    } else {
        scale::max_elem_exp()
    };
    let mut t = Table::new(
        &format!("Fig 9 — {} with {} on {p} cores", op.name(), vendor.name),
        "n/p",
        &["MPI", "RBC"],
    );
    for n in pow2_sweep(0, max_exp) {
        let n = n as usize;
        let v = vendor.clone();
        let native = measure_async(
            p,
            SimConfig::cooperative().with_vendor(v.clone()),
            reps(5),
            move |env, rep| run_native(env, op, n, rep),
        );
        let v = vendor.clone();
        let rbc = measure_async(
            p,
            SimConfig::cooperative().with_vendor(v),
            reps(5),
            move |env, rep| run_rbc(env, op, n, rep),
        );
        t.push(n as u64, vec![ms(native), ms(rbc)]);
    }
    t
}

/// Regenerate all eight Fig. 9 panels and write their CSVs.
pub fn run() -> Vec<Table> {
    let mut out = Vec::new();
    for op in [Op::Bcast, Op::Reduce, Op::Scan, Op::Gather] {
        for vendor in [VendorProfile::ibm_like(), VendorProfile::intel_like()] {
            let name = format!(
                "fig9_{}_{}",
                op.name().to_lowercase(),
                if vendor.name.starts_with("ibm") {
                    "ibm"
                } else {
                    "intel"
                }
            );
            let t = panel(op, vendor);
            t.print();
            t.write_csv(&name);
            out.push(t);
        }
    }
    out
}
