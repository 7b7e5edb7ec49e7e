//! Distributed QuickHull — the divide-and-conquer application the paper's
//! conclusion (§IX) proposes for RBC.
//!
//! Points are scattered over the processes; the recursion runs one
//! all-reduce per hull-edge node. With native MPI, each recursion node of a
//! group-splitting formulation would pay a blocking communicator creation;
//! the RBC formulation pays nothing.
//!
//! Run with: `cargo run --release --example quickhull [p] [points_per_proc]`

use jquick::quickhull::{quickhull, quickhull_reference, Point};
use mpisim::{Transport, Universe};
use rand::{rngs::StdRng, Rng, SeedableRng};

mod common;

const USAGE: &str = "usage: quickhull [p] [points_per_proc]";

fn main() {
    let p: usize = common::arg(1, 8, USAGE);
    let m: usize = common::arg(2, 5000, USAGE);

    let res = Universe::run_default(p, move |env| {
        let w = &env.world;
        let mut rng = StdRng::seed_from_u64(0xD1CE ^ w.rank() as u64);
        // Points in a disc — hull size grows ~ n^(1/3).
        let pts: Vec<Point> = (0..m)
            .map(|_| {
                let r = rng.gen_range(0.0f64..1.0).sqrt() * 100.0;
                let a = rng.gen_range(0.0f64..std::f64::consts::TAU);
                Point::new(r * a.cos(), r * a.sin())
            })
            .collect();
        w.barrier().unwrap();
        let t0 = env.now();
        let (hull, stats) = quickhull(w, &pts).unwrap();
        let elapsed = env.now() - t0;
        (pts, hull, stats, elapsed)
    });

    let (_, hull, stats, _) = &res.per_rank[0];
    let all: Vec<Point> = res
        .per_rank
        .iter()
        .flat_map(|(pts, ..)| pts.clone())
        .collect();
    let reference = quickhull_reference(&all);
    let max_t = res.per_rank.iter().map(|(.., t)| *t).max().unwrap();

    println!("{} points on {p} processes", all.len());
    println!("hull vertices:        {}", hull.len());
    println!("matches sequential:   {}", hull.len() == reference.len());
    println!("recursion nodes:      {}", stats.nodes);
    println!("max depth:            {}", stats.max_depth);
    println!("virtual time:         {max_t}");
    println!(
        "\nwith native MPI, {} recursion nodes would each pay a blocking communicator",
        stats.nodes
    );
    println!("creation; with RBC the group context costs nothing (paper §IX).");
    assert_eq!(hull.len(), reference.len());
}
