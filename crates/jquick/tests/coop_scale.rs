//! Janus Quicksort on the epoch scheduler's thread bodies at a thousand
//! ranks, the scale synchronous programs reach. This is the acceptance
//! scenario of the scheduler subsystem for synchronous programs: RBC
//! split + barrier + a small JQuick sort at a thousand simulated ranks,
//! one parked OS thread each.

use jquick::{fingerprint, jquick_sort, verify_sorted, JQuickConfig, Layout, RbcBackend};
use mpisim::{coll, SimConfig, Transport, Universe};

/// Deterministic per-rank input: values scattered so that the global sort
/// must move data between ranks.
fn gen_input(layout: &Layout, rank: u64, p: u64) -> Vec<u64> {
    let m = layout.cap(rank);
    (0..m)
        .map(|i| (i * p + (p - 1 - rank)) % layout.n.max(1))
        .collect()
}

/// Barrier + small JQuick sort at `p` ranks, `n_per` elements per rank,
/// as thread bodies, with distributed verification.
fn coop_jquick(p: usize, n_per: u64) {
    let n = n_per * p as u64;
    let res = Universe::run(p, SimConfig::cooperative(), move |env| {
        let w = &env.world;
        coll::barrier(w, 3).unwrap();
        let layout = Layout::new(n, p as u64);
        let data = gen_input(&layout, w.rank() as u64, p as u64);
        let fp = fingerprint(&data);
        let (out, _stats) = jquick_sort(&RbcBackend, w, data, n, &JQuickConfig::default()).unwrap();
        let rep = verify_sorted(w, &out, fp, layout.cap(w.rank() as u64) as usize).unwrap();
        assert!(rep.all_ok(), "rank {}: {rep:?}", w.rank());
        out.len() as u64
    });
    let total: u64 = res.per_rank.iter().sum();
    assert_eq!(total, n, "output is a permutation of the input size");
}

#[test]
fn coop_jquick_small_matches_thread_backend() {
    // Same program under both backends must produce identical sorted data.
    let p = 12;
    let n = 12 * 40u64;
    let run = |cfg: SimConfig| {
        Universe::run(p, cfg, move |env| {
            let w = &env.world;
            let layout = Layout::new(n, p as u64);
            let data = gen_input(&layout, w.rank() as u64, p as u64);
            jquick_sort(&RbcBackend, w, data, n, &JQuickConfig::default())
                .unwrap()
                .0
        })
        .per_rank
    };
    assert_eq!(run(SimConfig::default()), run(SimConfig::cooperative()));
}

#[test]
fn coop_jquick_1024_ranks() {
    coop_jquick(1024, 8);
}

#[test]
fn coop_jquick_identical_across_worker_counts() {
    // The epoch discipline makes the worker count invisible to the
    // simulation: the full JQuick pipeline (splits, collectives, pivot
    // RNG, exchange) must produce byte-identical output and clocks for
    // any coop_workers, including the host's full core count.
    let p = 96;
    let n = 96 * 16u64;
    let host = std::thread::available_parallelism().map_or(4, |c| c.get());
    let run = |workers: usize| {
        let cfg = SimConfig::cooperative().with_workers(workers);
        let res = Universe::run(p, cfg, move |env| {
            let w = &env.world;
            let layout = Layout::new(n, p as u64);
            let data = gen_input(&layout, w.rank() as u64, p as u64);
            jquick_sort(&RbcBackend, w, data, n, &JQuickConfig::default())
                .unwrap()
                .0
        });
        (res.per_rank, res.clocks)
    };
    let serial = run(1);
    for workers in [2, host, 8] {
        assert_eq!(serial, run(workers), "workers = {workers}");
    }
}

#[test]
fn coop_jquick_at_host_parallelism() {
    // The multi-worker configuration the sweeps use: all host cores. (Set
    // via with_workers, not the MPISIM_COOP_WORKERS env knob — mutating
    // the environment races with sibling tests reading it; the env path
    // is exercised by the CI largep sweeps instead.)
    let host = std::thread::available_parallelism().map_or(4, |c| c.get());
    let cfg = SimConfig::cooperative().with_workers(host);
    assert_eq!(cfg.coop_workers, host);
    let p = 256;
    let n = 256 * 8u64;
    let res = Universe::run(p, cfg, move |env| {
        let w = &env.world;
        coll::barrier(w, 3).unwrap();
        let layout = Layout::new(n, p as u64);
        let data = gen_input(&layout, w.rank() as u64, p as u64);
        let fp = fingerprint(&data);
        let (out, _stats) = jquick_sort(&RbcBackend, w, data, n, &JQuickConfig::default()).unwrap();
        let rep = verify_sorted(w, &out, fp, layout.cap(w.rank() as u64) as usize).unwrap();
        assert!(rep.all_ok(), "rank {}: {rep:?}", w.rank());
        out.len() as u64
    });
    assert_eq!(res.per_rank.iter().sum::<u64>(), n);
}

#[test]
fn coop_jquick_non_power_of_two() {
    // JQuick's selling point is any-p balance; exercise an awkward count.
    coop_jquick(769, 6);
}
