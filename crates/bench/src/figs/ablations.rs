//! Extension experiments beyond the paper's figures (DESIGN.md §3):
//!
//! * greedy vs staged message assignment inside JQuick (§VII discusses the
//!   deterministic assignment of \[20\] as the bounded-degree alternative);
//! * the §VI `MPI_Icomm_create_group` proposal: constant-time range case
//!   vs broadcast-based irregular case vs blocking `MPI_Comm_create_group`
//!   vs RBC;
//! * JQuick schedule ablation: alternating vs cascaded (§VIII-C reports
//!   native MPI collapsing under cascades while RBC is indifferent).

use jquick::{
    jquick_sort_async, AssignmentKind, Backend, JQuickConfig, Layout, MpiBackend, RbcBackend,
    Schedule,
};
use mpisim::icomm::icomm_create_group;
use mpisim::{Group, SimConfig, Time, Transport, VendorProfile};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rbc::RbcComm;

use crate::figs::scale;
use crate::{measure_async, ms, pow2_sweep, reps, Table};

/// Mean makespan of one JQuick sort of `n` seeded random doubles on `p`
/// ranks; `seed_stride` keeps the two ablations' inputs apart.
fn jquick_time<B>(
    backend: B,
    p: usize,
    n: u64,
    sim: SimConfig,
    cfg: &JQuickConfig,
    seed_stride: u64,
) -> Time
where
    B: Backend + Copy,
    B::C: Sync,
{
    measure_async(p, sim, reps(5), move |env, rep| async move {
        let w = &env.world;
        let layout = Layout::new(n, p as u64);
        let mut rng = StdRng::seed_from_u64(rep as u64 * seed_stride + w.rank() as u64);
        let data: Vec<f64> = (0..layout.cap(w.rank() as u64))
            .map(|_| rng.gen())
            .collect();
        w.barrier_async().await.unwrap();
        let t0 = env.now();
        jquick_sort_async(&backend, w, data, n, cfg).await.unwrap();
        env.now() - t0
    })
}

/// Greedy vs staged exchange assignment (paper §VII-B choice).
pub fn assignment_ablation() -> Table {
    let p = if crate::quick_mode() { 16 } else { 64 };
    let mut t = Table::new(
        &format!("Ablation — greedy vs staged message assignment (JQuick/RBC, {p} cores)"),
        "n/p",
        &["Greedy", "Staged"],
    );
    for n_per in pow2_sweep(2, scale::max_elem_exp()) {
        let n = n_per * p as u64;
        let mut vals = Vec::new();
        for kind in [AssignmentKind::Greedy, AssignmentKind::Staged] {
            let cfg = JQuickConfig {
                assignment: kind,
                ..JQuickConfig::default()
            };
            let time = jquick_time(RbcBackend, p, n, SimConfig::cooperative(), &cfg, 31);
            vals.push(ms(time));
        }
        t.push(n_per, vals);
    }
    t.print();
    t.write_csv("ablation_assignment");
    t
}

/// Alternating vs cascaded janus splitting schedule (§VIII-C).
pub fn schedule_ablation() -> Table {
    // Cascade chains grow with the number of same-level groups, so this
    // ablation wants a larger p than the element sweeps.
    let p = if crate::quick_mode() { 16 } else { 256 };
    let n_per = 4u64;
    let n = n_per * p as u64;
    let mut t = Table::new(
        &format!("Ablation — cascaded vs alternating janus schedule (n/p = {n_per}, {p} cores)"),
        "variant (0=RBC,1=MPI)",
        &["Alternating", "Cascaded"],
    );
    for (idx, use_rbc) in [(0u64, true), (1u64, false)] {
        let mut vals = Vec::new();
        for schedule in [Schedule::Alternating, Schedule::Cascaded] {
            let cfg = JQuickConfig {
                schedule,
                ..JQuickConfig::default()
            };
            let sim = SimConfig::cooperative().with_vendor(VendorProfile::intel_like());
            let time = if use_rbc {
                jquick_time(RbcBackend, p, n, sim, &cfg, 131)
            } else {
                jquick_time(MpiBackend, p, n, sim, &cfg, 131)
            };
            vals.push(ms(time));
        }
        t.push(idx, vals);
    }
    t.print();
    t.write_csv("ablation_schedule");
    t
}

/// §VI nonblocking creation vs blocking creation vs RBC split.
pub fn icomm_ablation() -> Table {
    let mut t = Table::new(
        "Ablation — §VI MPI_Icomm_create_group vs blocking creation vs RBC",
        "p",
        &[
            "Comm_create_group (blocking)",
            "Icomm_create_group (range)",
            "Icomm_create_group (irregular)",
            "RBC split",
        ],
    );
    for p in pow2_sweep(4, scale::max_proc_exp()) {
        let p = p as usize;
        let vendor = VendorProfile::intel_like();
        // The lower or the upper half of the world, whichever holds `rank`.
        let half_of = move |rank: usize| {
            if rank < p / 2 {
                Group::range(0, 1, p / 2)
            } else {
                Group::range(p / 2, 1, p - p / 2)
            }
        };
        let coop = SimConfig::cooperative;
        let blocking = measure_async(
            p,
            coop().with_vendor(vendor.clone()),
            reps(5),
            move |env, rep| async move {
                let w = &env.world;
                let g = half_of(w.rank());
                w.barrier_async().await.unwrap();
                let t0 = env.now();
                let _ = w.create_group_async(&g, 400 + rep as u64).await.unwrap();
                env.now() - t0
            },
        );
        let range = measure_async(p, coop(), reps(5), move |env, _| async move {
            let w = &env.world;
            let g = half_of(w.rank());
            w.barrier_async().await.unwrap();
            let t0 = env.now();
            let req = icomm_create_group(w, &g, 5).unwrap();
            let _ = req.wait_comm_async().await.unwrap();
            env.now() - t0
        });
        let irregular = measure_async(p, coop(), reps(5), move |env, rep| async move {
            let w = &env.world;
            // Odd/even interleave: NOT a contiguous range -> broadcast path.
            let which = w.rank() % 2;
            let ranks: Vec<usize> = (0..p).filter(|r| r % 2 == which).collect();
            // Strided groups are ranges; force irregularity by swapping two
            // members' order... from_ranks sorts nothing, so rotate instead.
            let mut ranks = ranks;
            ranks.rotate_left(1 + (rep % 2));
            let g = Group::from_ranks(ranks);
            w.barrier_async().await.unwrap();
            let t0 = env.now();
            let req = icomm_create_group(w, &g, 7 + which as u64).unwrap();
            let _ = req.wait_comm_async().await.unwrap();
            env.now() - t0
        });
        let rbc = measure_async(p, coop(), reps(5), move |env, _| async move {
            let world = RbcComm::create(&env.world);
            let r = world.rank();
            let (f, l) = if r < p / 2 {
                (0, p / 2 - 1)
            } else {
                (p / 2, p - 1)
            };
            world.barrier_async().await.unwrap();
            let t0 = env.now();
            let _ = world.split(f, l).unwrap();
            env.now() - t0
        });
        t.push(
            p as u64,
            vec![ms(blocking), ms(range), ms(irregular), ms(rbc)],
        );
    }
    t.print();
    t.write_csv("ablation_icomm");
    t
}

/// Run all three ablations and write their CSVs.
pub fn run() -> Vec<Table> {
    vec![assignment_ablation(), schedule_ablation(), icomm_ablation()]
}
