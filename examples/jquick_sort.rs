//! Janus Quicksort (paper §VII, the setting of Fig. 8) end to end: sort a
//! distributed array, verify the §II output contract (globally sorted,
//! perfectly balanced, permutation of the input), and print the per-rank
//! statistics.
//!
//! Usage: `cargo run --release --example jquick_sort [p] [n_per_proc] [backend]`
//! where backend is `rbc` (default) or `mpi`.

use jquick::{
    fingerprint, jquick_sort, verify_sorted, JQuickConfig, Layout, MpiBackend, RbcBackend,
};
use mpisim::{SimConfig, Transport, Universe, VendorProfile};
use rand::{rngs::StdRng, Rng, SeedableRng};

mod common;

const USAGE: &str = "usage: jquick_sort [p] [n_per_proc] [rbc|mpi]";

fn main() {
    let p: usize = common::arg(1, 16, USAGE);
    let n_per: u64 = common::arg(2, 1000, USAGE);
    let backend: String = common::arg(3, "rbc".to_string(), USAGE);
    if backend != "rbc" && backend != "mpi" {
        common::usage_exit(USAGE);
    }
    let n = n_per * p as u64;

    println!("JQuick: sorting {n} doubles on {p} simulated processes ({backend} backend)\n");

    let cfg = SimConfig::default().with_vendor(VendorProfile::intel_like());
    let mpi = backend == "mpi";
    let res = Universe::run(p, cfg, move |env| {
        let w = &env.world;
        let layout = Layout::new(n, p as u64);
        let me = w.rank() as u64;
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ me);
        let data: Vec<f64> = (0..layout.cap(me))
            .map(|_| rng.gen_range(-1e6..1e6))
            .collect();
        let fp = fingerprint(&data);

        w.barrier().unwrap();
        let t0 = env.now();
        let (out, stats) = if mpi {
            jquick_sort(&MpiBackend, w, data, n, &JQuickConfig::default()).unwrap()
        } else {
            jquick_sort(&RbcBackend, w, data, n, &JQuickConfig::default()).unwrap()
        };
        let elapsed = env.now() - t0;

        let report = verify_sorted(w, &out, fp, layout.cap(me) as usize).unwrap();
        assert!(report.all_ok(), "verification failed: {report:?}");
        (out.len(), stats, elapsed, report)
    });

    let (_, _, _, report) = &res.per_rank[0];
    println!("globally sorted:        {}", report.globally_ordered);
    println!("perfectly balanced:     {}", report.balanced);
    println!("permutation preserved:  {}", report.permutation_preserved);

    let max_time = res.per_rank.iter().map(|(_, _, t, _)| *t).max().unwrap();
    let max_level = res
        .per_rank
        .iter()
        .map(|(_, s, _, _)| s.max_level)
        .max()
        .unwrap();
    let creations: usize = res
        .per_rank
        .iter()
        .map(|(_, s, _, _)| s.comm_creations)
        .sum();
    let bases: usize = res
        .per_rank
        .iter()
        .map(|(_, s, _, _)| s.base_1 + s.base_2)
        .sum();

    println!("\nvirtual sort time (makespan): {max_time}");
    println!("recursion depth:              {max_level}");
    println!("communicators created:        {creations}");
    println!("base cases executed:          {bases}");
    println!(
        "output sizes: {:?} (⌊n/p⌋ = {}, ⌈n/p⌉ = {})",
        &res.per_rank.iter().map(|(l, ..)| *l).collect::<Vec<_>>()[..p.min(8)],
        n / p as u64,
        n.div_ceil(p as u64),
    );
}
