//! Large-p sweep: the paper's headline regime and beyond, p = 2^10 ..
//! 2^15 and, on request, up to **p = 2^20**. Every rank is a future body
//! on the epoch scheduler (a few hundred bytes of future state, no OS
//! thread), so the tail of the sweep is the same experiment at a larger
//! p, not a different one.
//!
//! Two tables:
//!
//! 1. **Communicator creation at scale** — RBC `split` (O(1), local) vs
//!    native `MPI_Comm_create_group` (mask agreement over the new group)
//!    vs native `MPI_Comm_split`. The split column runs the **full range**:
//!    `Comm::split` is the distributed sample sort of
//!    `mpisim::splitdist` (O(√p) simulator memory per rank, plus a
//!    transient O(segment) member list on each segment-gathering leader —
//!    linear aggregate memory), not the textbook all-gather whose Θ(p²)
//!    aggregate memory used to cap this column at 2^12. The paper's point about heavyweight construction
//!    survives in the *costs*: split still pays sorting, routing, and a
//!    context agreement over the whole parent, so it stays orders of
//!    magnitude above RBC's local O(1) split at every p.
//! 2. **JQuick at scale** — RBC split + barrier + a small Janus Quicksort
//!    (n/p = 8) end to end, the acceptance scenario of the scheduler.
//!
//! Expected shape (EXPERIMENTS.md): RBC flat in p; `create_group` growing
//! with log p (agreement tree depth) plus the linear group build; native
//! split growing with log p (a constant number of parent-wide collectives
//! dominated by α·log p, plus the √p-element leader sorts); JQuick's
//! makespan polylogarithmic in p at fixed n/p.
//!
//! Sweep control: `BENCH_QUICK=1` caps the contiguous range at 2^12 (the
//! golden rows). `LARGEP_MAX_EXP=<e>` caps the sweep at 2^e (lenient:
//! unparsable values are ignored) and is also what opts the sparse tail
//! {2^16, 2^18, 2^20} in, up to 2^e, in quick mode too, so CI can run
//! `BENCH_QUICK=1 LARGEP_MAX_EXP=18` as a bounded smoke past 2^15.

use jquick::{jquick_sort_async, JQuickConfig, Layout, RbcBackend};
use mpisim::{coll, SimConfig, Time, Transport, Universe};
use rbc::RbcComm;

use crate::{measure_async, ms, quick_mode, reps, write_artifact, Table};

/// Largest process exponent of the contiguous part of the sweep (paper:
/// 2^15).
fn max_exp() -> u32 {
    if quick_mode() {
        12
    } else {
        15
    }
}

/// The swept process exponents: the contiguous range from 2^10, plus as
/// much of the sparse tail {2^16, 2^18, 2^20} as an explicit
/// `LARGEP_MAX_EXP` admits. The cap applies to both parts.
fn exps() -> Vec<u32> {
    let cap = std::env::var("LARGEP_MAX_EXP")
        .ok()
        .and_then(|s| s.trim().parse::<u32>().ok());
    let mut v: Vec<u32> = (10..=max_exp().min(cap.unwrap_or(u32::MAX))).collect();
    v.extend(
        [16u32, 18, 20]
            .into_iter()
            .filter(|&e| e <= cap.unwrap_or(0)),
    );
    v
}

fn coop() -> SimConfig {
    SimConfig::cooperative()
}

fn rbc_split_time(p: usize) -> Time {
    measure_async(p, coop(), reps(3), move |env, _| async move {
        let world = RbcComm::create(&env.world);
        let r = world.rank();
        let (f, l) = if r < p / 2 {
            (0, p / 2 - 1)
        } else {
            (p / 2, p - 1)
        };
        world.barrier_async().await.unwrap();
        let t0 = env.now();
        let _c = world.split(f, l).unwrap();
        env.now() - t0
    })
}

fn create_group_time(p: usize) -> Time {
    measure_async(p, coop(), reps(3), move |env, rep| async move {
        let w = &env.world;
        let g = if w.rank() < p / 2 {
            mpisim::Group::range(0, 1, p / 2)
        } else {
            mpisim::Group::range(p / 2, 1, p - p / 2)
        };
        w.barrier_async().await.unwrap();
        let t0 = env.now();
        let _c = w.create_group_async(&g, 100 + rep as u64).await.unwrap();
        env.now() - t0
    })
}

fn native_split_time(p: usize) -> Time {
    measure_async(p, coop(), reps(3), move |env, _| async move {
        let w = &env.world;
        let color = u64::from(w.rank() >= p / 2);
        w.barrier_async().await.unwrap();
        let t0 = env.now();
        let _c = w.split_async(color, w.rank() as u64).await.unwrap();
        env.now() - t0
    })
}

fn jquick_time(p: usize, n_per: u64) -> Time {
    let n = n_per * p as u64;
    measure_async(p, coop(), reps(2), move |env, rep| async move {
        let w = &env.world;
        let layout = Layout::new(n, p as u64);
        let m = layout.cap(w.rank() as u64);
        let data: Vec<u64> = (0..m)
            .map(|i| (i * p as u64 + (p as u64 - 1 - w.rank() as u64) + rep as u64) % n.max(1))
            .collect();
        coll::barrier_async(w, 3).await.unwrap();
        let t0 = env.now();
        let out = jquick_sort_async(&RbcBackend, w, data, n, &JQuickConfig::default())
            .await
            .unwrap()
            .0;
        let dt = env.now() - t0;
        assert_eq!(out.len() as u64, m, "JQuick must stay perfectly balanced");
        dt
    })
}

/// Run one traced JQuick slice at the foot of the sweep (p = 2^10,
/// n/p = 8) and export every observability artefact:
///
/// * `results/largep_trace.txt` — the canonical text rendering of the
///   deterministic trace. CI byte-diffs this file across
///   `MPISIM_COOP_WORKERS` settings; any difference means scheduling
///   leaked into the model.
/// * Chrome `trace_event` JSON (default `results/largep_trace.json`,
///   overridable via `MPISIM_TRACE_OUT`) — drop into Perfetto /
///   `chrome://tracing`, one track per rank in virtual microseconds.
/// * `results/host/BENCH_sched_profile.json` — the host wall-clock
///   scheduler profile (per-worker run/commit/idle split, outbox-unit
///   claims, outbox-pool hits). It measures this machine, not the model, so it
///   lives under `results/host/`, which no check reads.
pub fn traced_slice() {
    let p = 1usize << 10;
    let n = 8 * p as u64;
    let cfg = coop().with_trace(true).with_sched_profile(true);
    let res = Universe::run_poll(p, cfg, move |env| async move {
        let w = &env.world;
        let layout = Layout::new(n, p as u64);
        let m = layout.cap(w.rank() as u64);
        let data: Vec<u64> = (0..m)
            .map(|i| (i * p as u64 + (p as u64 - 1 - w.rank() as u64)) % n.max(1))
            .collect();
        let out = jquick_sort_async(&RbcBackend, w, data, n, &JQuickConfig::default())
            .await
            .unwrap()
            .0;
        assert_eq!(out.len() as u64, m, "JQuick must stay perfectly balanced");
    });
    let trace = res.trace.expect("tracing was requested");
    let chrome_path = mpisim::env::trace_out_from(mpisim::env::var("MPISIM_TRACE_OUT").as_deref())
        .unwrap_or_else(|| "results/largep_trace.json".to_string());
    write_artifact(&chrome_path, trace.to_chrome_json());
    write_artifact("results/largep_trace.txt", trace.to_text());
    eprintln!(
        "largep: traced slice at p = {p}: {} events -> {chrome_path} + results/largep_trace.txt",
        trace.events.len()
    );
    let profile = res.sched_profile.expect("profiling was requested");
    write_artifact("results/host/BENCH_sched_profile.json", profile.to_json());
    eprintln!("largep: wrote results/host/BENCH_sched_profile.json");
}

/// Regenerate the large-p tables and write their CSVs. The two
/// virtual-time tables are golden files: identical for any
/// `MPISIM_COOP_WORKERS`. The per-point host wall-clock goes to
/// `results/host/largep_wall.csv`.
pub fn run() -> Vec<Table> {
    let workers = SimConfig::cooperative().coop_workers;
    let mut comms = Table::new(
        "Large p — splitting a communicator of p processes into halves (cooperative backend)",
        "p",
        &["RBC split", "MPI_Comm_create_group", "MPI_Comm_split"],
    );
    let mut sort = Table::new(
        "Large p — RBC split + barrier + JQuick sort, n/p = 8 (cooperative backend)",
        "p",
        &["JQuick (RBC)"],
    );
    let mut wall = Table::with_unit(
        &format!("Large p — host wall-clock of the JQuick sweep ({workers} worker(s))"),
        "p",
        &["JQuick sweep wall-clock"],
        "s",
    );
    for e in exps() {
        let p = 1usize << e;
        comms.push(
            p as u64,
            vec![
                ms(rbc_split_time(p)),
                ms(create_group_time(p)),
                ms(native_split_time(p)),
            ],
        );
        let t0 = std::time::Instant::now();
        sort.push(p as u64, vec![ms(jquick_time(p, 8))]);
        wall.push(p as u64, vec![t0.elapsed().as_secs_f64()]);
        eprintln!("largep: finished p = 2^{e}");
    }
    comms.print();
    comms.write_csv("largep_comms");
    sort.print();
    sort.write_csv("largep_jquick");
    wall.print();
    wall.write_csv("host/largep_wall");
    traced_slice();
    vec![comms, sort, wall]
}
