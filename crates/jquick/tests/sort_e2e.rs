//! End-to-end Janus Quicksort tests across backends, schedules,
//! assignments, process counts, and input distributions.

use jquick::{
    fingerprint, jquick_sort, verify_sorted, AssignmentKind, Backend, JQuickConfig, Layout,
    MpiBackend, RbcBackend, Schedule,
};
use mpisim::{FaultPlan, SimConfig, Time, Transport, Universe, VendorProfile};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn gen_input(layout: &Layout, rank: u64, seed: u64, dist: Dist) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ (rank.wrapping_mul(0x9E3779B97F4A7C15)));
    let m = layout.cap(rank) as usize;
    match dist {
        Dist::Uniform => (0..m).map(|_| rng.gen_range(-1e9..1e9)).collect(),
        Dist::FewValues => (0..m).map(|_| rng.gen_range(0..4) as f64).collect(),
        Dist::AllEqual => vec![42.0; m],
        Dist::Sorted => {
            let (w0, _) = layout.window(rank);
            (0..m).map(|i| (w0 + i as u64) as f64).collect()
        }
        Dist::Reversed => {
            let (w0, _) = layout.window(rank);
            (0..m)
                .map(|i| (layout.n - (w0 + i as u64)) as f64)
                .collect()
        }
        Dist::Skewed => (0..m)
            .map(|_| {
                let x: f64 = rng.gen();
                x * x * x * 1e6
            })
            .collect(),
    }
}

#[derive(Clone, Copy)]
enum Dist {
    Uniform,
    FewValues,
    AllEqual,
    Sorted,
    Reversed,
    Skewed,
}

fn run_sort<B: Backend>(
    backend: B,
    p: usize,
    n: u64,
    cfg: JQuickConfig,
    dist: Dist,
    vendor: VendorProfile,
    seed: u64,
) -> Vec<jquick::SortStats> {
    let sim = SimConfig::default().with_vendor(vendor).with_seed(seed);
    let res = Universe::run(p, sim, move |env| {
        let w = &env.world;
        let layout = Layout::new(n, p as u64);
        let data = gen_input(&layout, w.rank() as u64, seed, dist);
        let fp = fingerprint(&data);
        let (out, stats) = jquick_sort(&backend, w, data, n, &cfg).unwrap();
        let rep = verify_sorted(w, &out, fp, layout.cap(w.rank() as u64) as usize).unwrap();
        assert!(rep.all_ok(), "rank {} p={p} n={n}: {rep:?}", w.rank());
        stats
    });
    res.per_rank
}

#[test]
fn rbc_uniform_various_sizes() {
    for (p, n) in [
        (3usize, 30u64),
        (4, 64),
        (5, 40),
        (8, 256),
        (13, 130),
        (16, 160),
    ] {
        run_sort(
            RbcBackend,
            p,
            n,
            JQuickConfig::default(),
            Dist::Uniform,
            VendorProfile::neutral(),
            p as u64 * 31 + n,
        );
    }
}

#[test]
fn rbc_non_power_of_two_and_non_multiple() {
    // JQuick "runs on any number of cores" and we generalise to n not a
    // multiple of p.
    for (p, n) in [(6usize, 47u64), (7, 99), (9, 100), (11, 67), (12, 150)] {
        run_sort(
            RbcBackend,
            p,
            n,
            JQuickConfig::default(),
            Dist::Uniform,
            VendorProfile::neutral(),
            n * 7,
        );
    }
}

#[test]
fn rbc_one_element_per_process() {
    // The paper's n/p = 1 case (Fig. 8 starts there).
    for p in [3usize, 5, 8, 12] {
        run_sort(
            RbcBackend,
            p,
            p as u64,
            JQuickConfig::default(),
            Dist::Uniform,
            VendorProfile::neutral(),
            p as u64,
        );
    }
}

#[test]
fn rbc_duplicate_heavy_inputs() {
    for dist in [Dist::FewValues, Dist::AllEqual] {
        let stats = run_sort(
            RbcBackend,
            8,
            128,
            JQuickConfig::default(),
            dist,
            VendorProfile::neutral(),
            99,
        );
        // Duplicates trigger the comparator switching / settle machinery;
        // the sort must still finish in bounded levels.
        for s in stats {
            assert!(s.max_level < 64);
        }
    }
}

#[test]
fn rbc_presorted_and_reversed() {
    run_sort(
        RbcBackend,
        8,
        160,
        JQuickConfig::default(),
        Dist::Sorted,
        VendorProfile::neutral(),
        5,
    );
    run_sort(
        RbcBackend,
        8,
        160,
        JQuickConfig::default(),
        Dist::Reversed,
        VendorProfile::neutral(),
        6,
    );
}

#[test]
fn rbc_skewed_distribution_still_perfectly_balanced() {
    // Even with heavy skew the output is perfectly balanced (the point of
    // JQuick vs hypercube quicksort); verify_sorted checks `balanced`.
    run_sort(
        RbcBackend,
        12,
        240,
        JQuickConfig::default(),
        Dist::Skewed,
        VendorProfile::neutral(),
        17,
    );
}

#[test]
fn staged_assignment_matches_greedy() {
    let cfg = JQuickConfig {
        assignment: AssignmentKind::Staged,
        ..JQuickConfig::default()
    };
    for (p, n) in [(5usize, 50u64), (8, 128), (9, 95)] {
        run_sort(
            RbcBackend,
            p,
            n,
            cfg.clone(),
            Dist::Uniform,
            VendorProfile::neutral(),
            n + 1,
        );
    }
}

#[test]
fn cascaded_schedule_also_correct() {
    let cfg = JQuickConfig {
        schedule: Schedule::Cascaded,
        ..JQuickConfig::default()
    };
    run_sort(
        RbcBackend,
        9,
        90,
        cfg.clone(),
        Dist::Uniform,
        VendorProfile::neutral(),
        3,
    );
    run_sort(
        MpiBackend,
        8,
        80,
        cfg,
        Dist::Uniform,
        VendorProfile::neutral(),
        4,
    );
}

#[test]
fn mpi_backend_sorts_with_all_vendors() {
    for vendor in [
        VendorProfile::neutral(),
        VendorProfile::intel_like(),
        VendorProfile::ibm_like(),
    ] {
        run_sort(
            MpiBackend,
            8,
            96,
            JQuickConfig::default(),
            Dist::Uniform,
            vendor,
            8,
        );
    }
}

#[test]
fn rbc_faster_than_mpi_backend_for_small_inputs() {
    // The heart of Fig. 8: with one element per process the runtime is
    // dominated by communicator creation, where RBC wins decisively.
    let time_with = |use_rbc: bool| {
        let p = 32usize;
        let n = 32u64;
        let res = Universe::run(
            p,
            SimConfig::default().with_vendor(VendorProfile::intel_like()),
            move |env| {
                let w = &env.world;
                let layout = Layout::new(n, p as u64);
                let data = gen_input(&layout, w.rank() as u64, 12, Dist::Uniform);
                w.barrier().unwrap();
                let t0 = env.now();
                if use_rbc {
                    jquick_sort(&RbcBackend, w, data, n, &JQuickConfig::default()).unwrap();
                } else {
                    jquick_sort(&MpiBackend, w, data, n, &JQuickConfig::default()).unwrap();
                }
                env.now() - t0
            },
        );
        res.per_rank.into_iter().max().unwrap()
    };
    let rbc = time_with(true);
    let mpi = time_with(false);
    // At p=32 only ~5 levels of creation cost separate the two; the full
    // Fig. 8 gap appears at larger p (see the bench harness). 1.3x here.
    assert!(
        mpi.as_nanos() * 10 > 13 * rbc.as_nanos(),
        "RBC should win at n/p=1: rbc={rbc} mpi={mpi}"
    );
}

#[test]
fn stats_report_expected_structure() {
    let stats = run_sort(
        RbcBackend,
        16,
        320,
        JQuickConfig::default(),
        Dist::Uniform,
        VendorProfile::neutral(),
        21,
    );
    let total_base: usize = stats.iter().map(|s| s.base_1 + s.base_2).sum();
    assert!(total_base > 0, "base cases must occur");
    let max_level = stats.iter().map(|s| s.max_level).max().unwrap();
    // O(log p) levels with overwhelming probability: generous bound.
    assert!(max_level <= 40, "suspiciously deep recursion: {max_level}");
    // RBC backend still *creates* (O(1)) communicators; count them.
    assert!(stats.iter().any(|s| s.comm_creations > 0));
}

#[test]
fn all_equal_input_settles() {
    let stats = run_sort(
        RbcBackend,
        8,
        80,
        JQuickConfig::default(),
        Dist::AllEqual,
        VendorProfile::neutral(),
        1,
    );
    // The all-equal escalation must have fired somewhere.
    let settled: usize = stats.iter().map(|s| s.settled_equal).sum();
    assert!(settled > 0, "expected equal-settle path, stats: {stats:?}");
}

#[test]
fn input_size_mismatch_is_reported() {
    let res = Universe::run_default(4, |env| {
        let w = &env.world;
        // Everyone passes one element too few.
        let data = vec![1.0f64; 9];
        jquick_sort(&RbcBackend, w, data, 64, &JQuickConfig::default()).err()
    });
    for e in res.per_rank {
        assert!(matches!(e, Some(mpisim::MpiError::Usage(_))));
    }
}

#[test]
fn all_workload_distributions_sort_correctly() {
    use jquick::workloads;
    let (p, n) = (10usize, 120u64);
    let input = move |rank: usize, dist| {
        workloads::generate(&Layout::new(n, p as u64), rank as u64, 3, dist)
    };
    for dist in workloads::Dist::ALL {
        let res = Universe::run(p, SimConfig::default().with_seed(7), move |env| {
            let w = &env.world;
            let data = input(w.rank(), dist);
            let (fp, cap) = (fingerprint(&data), data.len());
            let (out, _) = jquick_sort(&RbcBackend, w, data, n, &JQuickConfig::default()).unwrap();
            let rep = verify_sorted(w, &out, fp, cap).unwrap();
            assert!(rep.all_ok(), "{dist:?}: {rep:?}");
            out
        });
        // Arrival jitter under perturbation seeds 1..=4: each seed is a
        // different legal matching order (the exchange's wildcard
        // receives), reproducibly. The output is the clean run's; each
        // seed's whole run is bit-identical at 1 and 4 workers.
        for seed in 1..=4 {
            let run = |workers: usize| {
                let faults = FaultPlan::default()
                    .with_jitter(Time::from_micros(20))
                    .with_perturb_seed(seed);
                let cfg = SimConfig::default()
                    .with_seed(7)
                    .with_faults(faults)
                    .with_workers(workers);
                let res = Universe::run_poll(p, cfg, move |env| async move {
                    let data = input(env.rank(), dist);
                    let cfg = JQuickConfig::default();
                    jquick::jquick_sort_async(&RbcBackend, &env.world, data, n, &cfg)
                        .await
                        .unwrap()
                });
                (res.per_rank, res.clocks, res.metrics)
            };
            let one = run(1);
            let outs = one.0.iter().map(|(out, _)| out);
            assert!(outs.eq(res.per_rank.iter()), "{dist:?}, jitter seed {seed}");
            assert_eq!(
                one,
                run(4),
                "{dist:?}, jitter seed {seed}: 1 and 4 workers differ"
            );
        }
    }
}

#[test]
fn jquick_is_deterministic_given_seed() {
    let run = || {
        let (p, n) = (9usize, 90u64);
        let cfg = SimConfig::default().with_seed(42);
        let res = Universe::run_poll(p, cfg, move |env| async move {
            let w = &env.world;
            let layout = Layout::new(n, p as u64);
            let data =
                jquick::generate_workload(&layout, w.rank() as u64, 11, jquick::Dist::Uniform);
            let (out, stats) =
                jquick::jquick_sort_async(&RbcBackend, w, data, n, &JQuickConfig::default())
                    .await
                    .unwrap();
            (out, stats.max_level, stats.comm_creations)
        });
        res.per_rank
    };
    // Delivery order is a function of the seed, so outputs *and*
    // structural stats repeat (pivots come from the seeded per-rank RNG
    // streams).
    assert_eq!(run(), run());
}

#[test]
fn moderate_scale_smoke() {
    // A p=64 sort with a few thousand elements, verifying end to end —
    // closer to the benchmark regime than the unit sizes above.
    let (p, n) = (64usize, 64 * 512u64);
    let res = Universe::run(p, SimConfig::default(), move |env| {
        let w = &env.world;
        let layout = Layout::new(n, p as u64);
        let data = jquick::generate_workload(&layout, w.rank() as u64, 77, jquick::Dist::Skewed);
        let fp = fingerprint(&data);
        let (out, stats) = jquick_sort(&RbcBackend, w, data, n, &JQuickConfig::default()).unwrap();
        let rep = verify_sorted(w, &out, fp, layout.cap(w.rank() as u64) as usize).unwrap();
        assert!(rep.all_ok());
        stats.max_level
    });
    let depth = res.per_rank.into_iter().max().unwrap();
    // O(log p) with overwhelming probability; log2(64) = 6, allow slack.
    assert!(depth <= 20, "depth {depth}");
}

// ---- the baseline sorters' async cores --------------------------------

/// A baseline's synchronous function under `Universe::run` (thread
/// bodies) and its `*_async` core under `Universe::run_poll` (future
/// bodies) are one program: same per-rank output, same clocks.
fn async_core_matches_sync<R, Fut>(
    p: usize,
    sync: impl Fn(&mpisim::Comm, Vec<f64>) -> R + Send + Sync,
    core: impl Fn(mpisim::Comm, Vec<f64>) -> Fut + Send + Sync,
) where
    R: PartialEq + std::fmt::Debug + Send,
    Fut: std::future::Future<Output = R> + Send,
{
    let cfg = || SimConfig::cooperative().with_seed(11);
    let layout = Layout::new(40 * p as u64, p as u64);
    let input = |rank: usize| gen_input(&layout, rank as u64, 5, Dist::Skewed);
    let a = Universe::run(p, cfg(), |env| sync(&env.world, input(env.rank())));
    let b = Universe::run_poll(p, cfg(), |env| core(env.world.clone(), input(env.rank())));
    assert!(a.clocks.iter().all(|&t| t > mpisim::Time::ZERO));
    assert_eq!((a.per_rank, a.clocks), (b.per_rank, b.clocks));
}

#[test]
fn hypercube_async_core_matches_sync() {
    let cfg = jquick::PivotCfg::default();
    async_core_matches_sync(
        8,
        |w, data| jquick::hypercube_sort(w, data, &cfg).unwrap(),
        |w, data| async move { jquick::hypercube_sort_async(&w, data, &cfg).await.unwrap() },
    );
}

#[test]
fn samplesort_async_core_matches_sync() {
    let cfg = jquick::SampleSortCfg::default();
    async_core_matches_sync(
        7,
        |w, data| jquick::sample_sort(w, data, &cfg).unwrap(),
        |w, data| async move { jquick::sample_sort_async(&w, data, &cfg).await.unwrap() },
    );
}

#[test]
fn multilevel_async_core_matches_sync() {
    let cfg = jquick::MultiLevelCfg::default();
    async_core_matches_sync(
        9,
        |w, data| jquick::multilevel_sample_sort(&rbc::RbcComm::create(w), data, &cfg).unwrap(),
        |w, data| async move {
            let world = rbc::RbcComm::create(&w);
            jquick::multilevel_sample_sort_async(&world, data, &cfg)
                .await
                .unwrap()
        },
    );
}
