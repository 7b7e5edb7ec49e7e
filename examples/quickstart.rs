//! Quickstart — a direct transcription of Fig. 1 of the paper:
//!
//! "Nonblocking broadcast from rank 0 to ranks 0..s/2−1 and from rank s/2
//! to ranks s/2..s−1. Both RBC communicators are created locally without
//! process synchronization."
//!
//! Run with: `cargo run --release --example quickstart`

use mpisim::{Transport, Universe};
use rbc::RbcComm;

fn main() {
    let p = 8;
    let result = Universe::run_default(p, |env| {
        // rbc::Comm world, range;
        // rbc::Create_RBC_Comm(MPI_COMM_WORLD, &world);
        let world: RbcComm = rbc::create_rbc_comm(&env.world);
        let r = rbc::comm_rank(&world);
        let s = rbc::comm_size(&world);

        // if (r < s / 2) {f = 0; l = s / 2 - 1;}
        // else {f = s / 2; l = s - 1;}
        let (f, l) = if r < s / 2 {
            (0, s / 2 - 1)
        } else {
            (s / 2, s - 1)
        };

        // Local op. No synchronization.
        let range = rbc::split_rbc_comm(&world, f, l).expect("member of the range");

        // rbc::Ibcast(&e, 1, MPI_INT, root, range, &req);
        let root = 0;
        let payload = (range.rank() == root).then(|| vec![r as u64 * 100]);
        let mut req = range.ibcast(payload, root, None).expect("ibcast starts");

        // while (!flag) { /* Do something else. */ rbc::Test(&req, &flag, ...); }
        let mut flag = false;
        let mut useful_work = 0u64;
        while !flag {
            flag = rbc::test(&mut req).expect("test");
            // Do something else: one unit of overlapped work, which gives
            // the other ranks their turn.
            useful_work += 1;
            mpisim::yield_now();
        }

        let e = req.into_data().expect("broadcast complete")[0];
        (r, e, useful_work)
    });

    println!("rank | received | iterations of overlapped work");
    for (r, e, w) in &result.per_rank {
        println!("{r:>4} | {e:>8} | {w}");
    }
    println!(
        "\nvirtual makespan: {} (two broadcasts ran concurrently on locally created communicators)",
        result.max_time()
    );
}
