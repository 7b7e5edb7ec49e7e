//! Fig. 9 (a–h): nonblocking collectives — broadcast, reduce, scan, gather
//! — MPI vs RBC on both vendor personalities (paper: 2^15 cores; gather
//! swept only to 2^10 elements since the root receives p·n).
//!
//! Expected shape: RBC performs like the vendor collectives for small
//! inputs; for large inputs the vendor scans (and Intel-like
//! broadcast/reduce, with jitter) fall behind — "our range-based
//! communicator creation does not come with hidden overheads".

use mpisim::{ops, Comm, ProcEnv, Request, SimConfig, Time, Transport, VendorProfile};
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

/// One rep of `op` on the communicator `comm` builds over the world: MPI's
/// with `Comm::clone`, RBC's with `RbcComm::create`.
async fn kernel<C: Transport>(
    env: ProcEnv,
    comm: fn(&Comm) -> C,
    op: Op,
    n: usize,
    rep: usize,
) -> Time {
    let w = comm(&env.world);
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

/// `op` with `n` elements per rank under `vendor`, on `comm`'s communicator.
fn time<C: Transport>(vendor: &VendorProfile, comm: fn(&Comm) -> C, op: Op, n: usize) -> Time {
    let cfg = SimConfig::cooperative().with_vendor(vendor.clone());
    measure_async(scale::p_elems(), cfg, reps(5), move |env, rep| {
        kernel(env, comm, op, n, rep)
    })
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
        let native = time(&vendor, Comm::clone, op, n);
        let rbc = time(&vendor, RbcComm::create, op, n);
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
