//! The paper's §VI proposal in action: `MPI_Icomm_create_group`.
//!
//! Creates a full binary recursion tree of communicators — the pattern of
//! any distributed divide-and-conquer algorithm — three ways, and reports
//! what each costs in virtual time and messages:
//!
//! 1. blocking `MPI_Comm_create_group` (today's MPI);
//! 2. nonblocking `MPI_Icomm_create_group`, range case (§VI: constant
//!    time, zero communication, full MPI semantics);
//! 3. RBC `Split_RBC_Comm` (constant time, zero communication, weakened
//!    tag semantics).
//!
//! Run with: `cargo run --release --example nonblocking_creation [p]`

use mpisim::icomm::icomm_create_group;
use mpisim::{Group, SimConfig, Time, Transport, Universe, VendorProfile};
use rbc::RbcComm;

fn main() {
    let p: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    assert!(p.is_power_of_two(), "use a power of two for clean halving");

    println!("building a full halving tree of communicators over {p} processes\n");
    println!("method                        | virtual time | messages");
    println!("------------------------------|--------------|---------");

    for method in [
        "blocking create_group",
        "icomm_create_group (§VI)",
        "RBC split",
    ] {
        let cfg = SimConfig::default().with_vendor(VendorProfile::intel_like());
        let res = Universe::run(p, cfg, move |env| {
            let w = &env.world;
            let t0 = env.now();
            match method {
                "blocking create_group" => {
                    let mut comm = w.clone();
                    let mut lo = 0usize;
                    while comm.size() > 1 {
                        let half = comm.size() / 2;
                        let (f, len) = if comm.rank() < half {
                            (lo, half)
                        } else {
                            (lo + half, comm.size() - half)
                        };
                        comm = comm.create_group(&Group::range(f, 1, len), 5).unwrap();
                        lo = f;
                    }
                }
                "icomm_create_group (§VI)" => {
                    let mut comm = w.clone();
                    let mut lo = 0usize;
                    while comm.size() > 1 {
                        let half = comm.size() / 2;
                        let (f, len) = if comm.rank() < half {
                            (lo, half)
                        } else {
                            (lo + half, comm.size() - half)
                        };
                        let req = icomm_create_group(&comm, &Group::range(f, 1, len), 5).unwrap();
                        comm = req.wait_comm().unwrap();
                        lo = f;
                    }
                }
                _ => {
                    let mut comm = RbcComm::create(w);
                    while comm.size() > 1 {
                        let half = comm.size() / 2;
                        comm = if comm.rank() < half {
                            comm.split(0, half - 1).unwrap()
                        } else {
                            comm.split(half, comm.size() - 1).unwrap()
                        };
                    }
                }
            }
            env.now() - t0
        });
        let max_t: Time = res.per_rank.iter().copied().max().unwrap();
        println!("{method:<30}| {max_t:>12} | {:>8}", res.metrics.messages);
    }
    println!("\nThe §VI range case and RBC both create log2({p}) levels of communicators");
    println!("with ZERO messages; blocking creation pays a collective per level. The");
    println!("§VI variant additionally keeps full MPI context isolation (no tag rules).");
}
