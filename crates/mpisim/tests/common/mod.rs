//! Shared by the order-sensitive suites (`props.rs`, `collectives.rs`):
//! seeded arrival jitter, the source of different legal matching orders
//! now that every run is on the epoch scheduler.

use mpisim::{FaultPlan, ProcEnv, SimConfig, Time, Universe};

/// Arrival jitter under perturbation seed `seed`: one legal matching
/// order per seed, reproducibly.
pub fn jitter(seed: u64) -> FaultPlan {
    FaultPlan::default()
        .with_jitter(Time::from_micros(20))
        .with_perturb_seed(seed)
}

/// Run `f` on `p` ranks under `cfg`, clean, then under [`jitter`] seeds
/// 1..=4, each at 1 and 4 workers: a seed's values must equal the clean
/// run's, and its values and clocks must be bit-identical at both worker
/// counts. Returns the clean run's values.
pub fn over_jitter_seeds<R, F>(p: usize, cfg: SimConfig, f: F) -> Vec<R>
where
    R: Send + PartialEq + std::fmt::Debug,
    F: Fn(ProcEnv) -> R + Send + Sync,
{
    let run = |faults: FaultPlan, workers: usize| {
        let cfg = cfg.clone().with_faults(faults).with_workers(workers);
        let res = Universe::run(p, cfg, &f);
        (res.per_rank, res.clocks)
    };
    let (clean, _) = run(FaultPlan::default(), 1);
    for seed in 1..=4 {
        let one = run(jitter(seed), 1);
        assert_eq!(one.0, clean, "p={p}, jitter seed {seed} changed a value");
        assert_eq!(one, run(jitter(seed), 4), "p={p}, jitter seed {seed}");
    }
    clean
}
