//! Fault-injection sweep: straggler degradation of the §IV sorters.
//!
//! The paper's evaluation assumes a quiet machine; this extension asks
//! what happens when it isn't. A seeded straggler distribution (25 % of
//! ranks slowed by a factor drawn from [1, F]) is injected through
//! `mpisim::faults`, and JQuick, multi-level sample sort, and single-level
//! sample sort are measured at F ∈ {1, 2, 4, 8} on skewed input. Two
//! observables per point: virtual makespan (stragglers gate the critical
//! path differently depending on how many rounds each algorithm runs) and
//! max/avg output imbalance (which must stay at 1.0 for JQuick — perfect
//! balance is by construction, not by luck, so faults cannot break it).
//! Everything is deterministic in the perturbation seed, so the CSVs are
//! golden files (`results/golden/`).

use mpisim::{FaultPlan, SimConfig, Time};

use crate::figs::scale;
use crate::figs::sorters::{sort_time, Sorter};
use crate::{ms, reps, Table};

/// Fraction of ranks slowed in every faulted configuration.
const STRAGGLER_FRAC: f64 = 0.25;

/// One data point: virtual makespan and max/avg output imbalance of
/// `algo` under a straggler plan capped at `max_factor`.
fn faulted_sort_time(algo: Sorter, p: usize, n_per: u64, max_factor: f64) -> (Time, f64) {
    let plan = if max_factor > 1.0 {
        FaultPlan::default()
            .with_perturb_seed(1)
            .with_slowdown(STRAGGLER_FRAC, max_factor)
    } else {
        FaultPlan::default()
    };
    let cfg = SimConfig::cooperative().with_faults(plan);
    sort_time(algo, p, n_per, cfg, reps(3))
}

/// Regenerate the straggler-degradation tables and write their CSVs.
pub fn run() -> Vec<Table> {
    let p = scale::p_elems();
    let n_per = 64u64;
    let algos = [
        (Sorter::JQuick, "JQuick (RBC)"),
        (Sorter::MultiLevel(4), "Multi-level (k=4)"),
        (Sorter::SampleSort, "Sample sort"),
    ];
    let names: Vec<&str> = algos.iter().map(|&(_, n)| n).collect();
    let mut t = Table::new(
        &format!(
            "Faults — makespan under {:.0}% stragglers on {p} cores (n/p = {n_per}, skewed)",
            STRAGGLER_FRAC * 100.0
        ),
        "max_slowdown",
        &names,
    );
    let mut imb = Table::with_unit(
        &format!(
            "Faults — max/avg output size under {:.0}% stragglers on {p} cores (n/p = {n_per})",
            STRAGGLER_FRAC * 100.0
        ),
        "max_slowdown",
        &names,
        "ratio",
    );
    let mut degr = Table::with_unit(
        &format!("Faults — makespan degradation vs fault-free on {p} cores (n/p = {n_per})"),
        "max_slowdown",
        &names,
        "ratio",
    );
    let mut clean: Vec<f64> = Vec::new();
    for max_factor in [1u64, 2, 4, 8] {
        let mut times = Vec::new();
        let mut imbs = Vec::new();
        for &(algo, _) in &algos {
            let (dt, f) = faulted_sort_time(algo, p, n_per, max_factor as f64);
            times.push(ms(dt));
            imbs.push(f);
        }
        if max_factor == 1 {
            clean = times.clone();
        }
        degr.push(
            max_factor,
            times.iter().zip(&clean).map(|(t, c)| t / c).collect(),
        );
        t.push(max_factor, times);
        imb.push(max_factor, imbs);
        eprintln!("faults: finished max_slowdown = {max_factor}");
    }
    t.print();
    t.write_csv("faults_time");
    imb.print();
    imb.write_csv("faults_imbalance");
    degr.print();
    degr.write_csv("faults_degradation");
    vec![t, imb, degr]
}
