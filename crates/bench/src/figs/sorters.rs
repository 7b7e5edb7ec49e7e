//! Extension experiment: the paper's §IV algorithm families side by side.
//!
//! §IV frames distributed sorting as a trade-off spectrum — single-level
//! sample sort (one data exchange, needs n = Ω(p²/log p)), hypercube
//! quicksort (polylogarithmic, power-of-two p, unbalanced), multi-level
//! sample sort (in between) — and JQuick as the balanced, any-p member of
//! the quicksort family. This sweep measures all four over n/p (virtual
//! time) and their output imbalance on skewed input.
//!
//! The second half sweeps the **large-p regime** (2^10..2^15, cooperative
//! scheduler backend): multi-level sample sort at different fan-outs — and
//! therefore level counts ⌈log_k p⌉ — against JQuick at fixed n/p. This is
//! where the §IV families actually separate: at small p every variant is a
//! couple of exchanges, while at 2^15 the fan-out choice changes the level
//! count from 3 (k=32) to 15 (k=2), and splitter quality compounds per
//! level while JQuick stays perfectly balanced by construction.

use jquick::{
    hypercube, imbalance_factor_async, jquick_sort_async, multilevel, samplesort, workloads,
    JQuickConfig, Layout, PivotCfg, RbcBackend, SampleSortCfg,
};
use mpisim::{SimConfig, Time, Transport};
use rbc::RbcComm;

use crate::figs::scale;
use crate::{measure_async, ms, pow2_sweep, reps, Table};

/// A §IV sorter as the figures run it, each with its default
/// configuration.
#[derive(Clone, Copy)]
pub(crate) enum Sorter {
    JQuick,
    Hypercube,
    SampleSort,
    /// Multi-level sample sort with this fan-out.
    MultiLevel(usize),
}

/// One data point: virtual makespan (mean over `reps`) and max/avg output
/// imbalance of `algo` on skewed input under `cfg`.
pub(crate) fn sort_time(
    algo: Sorter,
    p: usize,
    n_per: u64,
    cfg: SimConfig,
    reps: usize,
) -> (Time, f64) {
    let n = n_per * p as u64;
    let imb = std::sync::Mutex::new(1.0f64);
    let imb_ref = &imb;
    let t = measure_async(p, cfg, reps, move |env, rep| async move {
        let w = &env.world;
        let layout = Layout::new(n, p as u64);
        let data = workloads::generate(
            &layout,
            w.rank() as u64,
            rep as u64 * 13 + 1,
            workloads::Dist::Skewed,
        );
        w.barrier_async().await.unwrap();
        let t0 = env.now();
        let out = match algo {
            Sorter::JQuick => {
                jquick_sort_async(&RbcBackend, w, data, n, &JQuickConfig::default())
                    .await
                    .unwrap()
                    .0
            }
            Sorter::Hypercube => hypercube::hypercube_sort_async(w, data, &PivotCfg::default())
                .await
                .unwrap(),
            Sorter::SampleSort => samplesort::sample_sort_async(w, data, &SampleSortCfg::default())
                .await
                .unwrap(),
            Sorter::MultiLevel(fanout) => {
                let cfg = multilevel::MultiLevelCfg {
                    fanout,
                    ..Default::default()
                };
                multilevel::multilevel_sample_sort_async(&RbcComm::create(w), data, &cfg)
                    .await
                    .unwrap()
                    .0
            }
        };
        let dt = env.now() - t0;
        let f = imbalance_factor_async(w, out.len()).await.unwrap();
        if w.rank() == 0 {
            let mut g = imb_ref.lock().unwrap();
            *g = g.max(f);
        }
        dt
    });
    (t, imb.into_inner().unwrap())
}

/// The large-p level-count comparison: multi-level fan-outs vs JQuick at
/// p = 2^10..2^15 (2^12 in quick mode), n/p fixed.
fn run_largep() -> Vec<Table> {
    let max_exp = if crate::quick_mode() { 12 } else { 15 };
    let n_per = 64u64;
    let series = [
        (Sorter::JQuick, "JQuick (RBC)"),
        (Sorter::MultiLevel(2), "Multi-level k=2"),
        (Sorter::MultiLevel(8), "Multi-level k=8"),
        (Sorter::MultiLevel(32), "Multi-level k=32"),
    ];
    let names: Vec<&str> = series.iter().map(|&(_, n)| n).collect();
    let mut t = Table::new(
        &format!(
            "Extension — §IV families at large p (n/p = {n_per}, skewed, cooperative backend)"
        ),
        "p",
        &names,
    );
    let mut imb = Table::with_unit(
        &format!("Extension — max/avg output size at large p (n/p = {n_per}, skewed)"),
        "p",
        &names,
        "ratio",
    );
    for e in (10..=max_exp).step_by(1) {
        let p = 1usize << e;
        let mut times = Vec::new();
        let mut imbs = Vec::new();
        for &(algo, _) in &series {
            let (dt, f) = sort_time(algo, p, n_per, SimConfig::cooperative(), 1);
            times.push(ms(dt));
            imbs.push(f);
        }
        t.push(p as u64, times);
        imb.push(p as u64, imbs);
        eprintln!("sorters largep: finished p = 2^{e}");
    }
    t.print();
    t.write_csv("ext_sorters_largep_time");
    imb.print();
    imb.write_csv("ext_sorters_largep_imbalance");
    vec![t, imb]
}

/// Regenerate the sorter-comparison tables and write their CSVs.
pub fn run() -> Vec<Table> {
    let p = scale::p_elems().next_power_of_two() / 2; // hypercube needs 2^k
    let series = [
        (Sorter::JQuick, "JQuick (RBC)"),
        (Sorter::Hypercube, "Hypercube qsort"),
        (Sorter::SampleSort, "Sample sort"),
        (Sorter::MultiLevel(4), "Multi-level (k=4)"),
    ];
    let names: Vec<&str> = series.iter().map(|&(_, n)| n).collect();
    let mut t = Table::new(
        &format!("Extension — §IV sorting algorithms on {p} cores (skewed doubles)"),
        "n/p",
        &names,
    );
    let mut imb = Table::with_unit(
        &format!("Extension — max/avg output size on {p} cores (skewed doubles)"),
        "n/p",
        &names,
        "ratio",
    );
    for n_per in pow2_sweep(2, scale::max_elem_exp().min(12)) {
        let mut times = Vec::new();
        let mut imbs = Vec::new();
        for &(algo, _) in &series {
            let (dt, f) = sort_time(algo, p, n_per, SimConfig::cooperative(), reps(3));
            times.push(ms(dt));
            imbs.push(f);
        }
        t.push(n_per, times);
        imb.push(n_per, imbs);
    }
    t.print();
    t.write_csv("ext_sorters_time");
    imb.print();
    imb.write_csv("ext_sorters_imbalance");
    let mut out = vec![t, imb];
    out.extend(run_largep());
    out
}
