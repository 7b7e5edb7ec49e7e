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
    hypercube, imbalance_factor, jquick_sort, multilevel, samplesort, workloads, JQuickConfig,
    Layout, PivotCfg, RbcBackend, SampleSortCfg,
};
use mpisim::{SimConfig, Time, Transport};
use rbc::RbcComm;

use crate::figs::scale;
use crate::{measure, ms, pow2_sweep, reps, Table};

fn sort_time(algo: &'static str, p: usize, n_per: u64) -> (Time, f64) {
    let n = n_per * p as u64;
    let imb = std::sync::Mutex::new(1.0f64);
    let t = {
        let imb = &imb;
        measure(p, SimConfig::cooperative(), reps(3), move |env, rep| {
            let w = &env.world;
            let layout = Layout::new(n, p as u64);
            let data = workloads::generate(
                &layout,
                w.rank() as u64,
                rep as u64 * 13 + 1,
                workloads::Dist::Skewed,
            );
            w.barrier().unwrap();
            let t0 = env.now();
            let out = match algo {
                "jquick" => {
                    jquick_sort(&RbcBackend, w, data, n, &JQuickConfig::default())
                        .unwrap()
                        .0
                }
                "hypercube" => hypercube::hypercube_sort(w, data, &PivotCfg::default()).unwrap(),
                "samplesort" => {
                    samplesort::sample_sort(w, data, &SampleSortCfg::default()).unwrap()
                }
                _ => {
                    let world = RbcComm::create(w);
                    multilevel::multilevel_sample_sort(
                        &world,
                        data,
                        &multilevel::MultiLevelCfg::default(),
                    )
                    .unwrap()
                    .0
                }
            };
            let dt = env.now() - t0;
            let f = imbalance_factor(w, out.len()).unwrap();
            if w.rank() == 0 {
                let mut g = imb.lock().unwrap();
                *g = g.max(f);
            }
            dt
        })
    };
    (t, imb.into_inner().unwrap())
}

/// One large-p data point: virtual makespan and max/avg output imbalance.
fn largep_sort_time(algo: &'static str, fanout: usize, p: usize, n_per: u64) -> (Time, f64) {
    let n = n_per * p as u64;
    let imb = std::sync::Mutex::new(1.0f64);
    let t = {
        let imb = &imb;
        measure(p, SimConfig::cooperative(), 1, move |env, rep| {
            let w = &env.world;
            let layout = Layout::new(n, p as u64);
            let data = workloads::generate(
                &layout,
                w.rank() as u64,
                rep as u64 * 13 + 1,
                workloads::Dist::Skewed,
            );
            w.barrier().unwrap();
            let t0 = env.now();
            let out = match algo {
                "jquick" => {
                    jquick_sort(&RbcBackend, w, data, n, &JQuickConfig::default())
                        .unwrap()
                        .0
                }
                _ => {
                    let world = RbcComm::create(w);
                    multilevel::multilevel_sample_sort(
                        &world,
                        data,
                        &multilevel::MultiLevelCfg {
                            fanout,
                            ..Default::default()
                        },
                    )
                    .unwrap()
                    .0
                }
            };
            let dt = env.now() - t0;
            let f = imbalance_factor(w, out.len()).unwrap();
            if w.rank() == 0 {
                let mut g = imb.lock().unwrap();
                *g = g.max(f);
            }
            dt
        })
    };
    (t, imb.into_inner().unwrap())
}

/// The large-p level-count comparison: multi-level fan-outs vs JQuick at
/// p = 2^10..2^15 (2^12 in quick mode), n/p fixed.
fn run_largep() -> Vec<Table> {
    let max_exp = if crate::quick_mode() { 12 } else { 15 };
    let n_per = 64u64;
    let series = [
        ("jquick", 0usize, "JQuick (RBC)"),
        ("multilevel", 2, "Multi-level k=2"),
        ("multilevel", 8, "Multi-level k=8"),
        ("multilevel", 32, "Multi-level k=32"),
    ];
    let names: Vec<&str> = series.iter().map(|&(_, _, n)| n).collect();
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
        for &(algo, fanout, _) in &series {
            let (dt, f) = largep_sort_time(algo, fanout, p, n_per);
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
    let mut t = Table::new(
        &format!("Extension — §IV sorting algorithms on {p} cores (skewed doubles)"),
        "n/p",
        &[
            "JQuick (RBC)",
            "Hypercube qsort",
            "Sample sort",
            "Multi-level (k=4)",
        ],
    );
    let mut imb = Table::with_unit(
        &format!("Extension — max/avg output size on {p} cores (skewed doubles)"),
        "n/p",
        &[
            "JQuick (RBC)",
            "Hypercube qsort",
            "Sample sort",
            "Multi-level (k=4)",
        ],
        "ratio",
    );
    for n_per in pow2_sweep(2, scale::max_elem_exp().min(12)) {
        let mut times = Vec::new();
        let mut imbs = Vec::new();
        for algo in ["jquick", "hypercube", "samplesort", "multilevel"] {
            let (dt, f) = sort_time(algo, p, n_per);
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
