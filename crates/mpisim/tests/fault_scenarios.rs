//! Fault-injection determinism matrix: any [`FaultPlan`] — stragglers,
//! crash-stop, message jitter — must leave the cooperative runtime
//! **byte-identical** across worker counts, because every fault decision
//! is a pure function of `(program, seed, perturbation seed)` and never
//! of scheduling. The storms reuse the commit tests' harness
//! (`commit_shard.rs`: wildcard receives, colliding tags,
//! a concurrent nonblocking collective) with a fault plan layered on top;
//! runs with crashes additionally capture the error text of every rank,
//! so the `RoundBlame` diagnostics themselves are checked for
//! worker-invariance.

use std::sync::Mutex;

use mpisim::{nbcoll, FaultPlan};
use mpisim::{ops, SimConfig, Src, Time, Transport, Universe};
use proptest::prelude::*;

/// One rank's full observation of a faulted storm: the exact `(source,
/// tag, value)` sequence its wildcard receives matched, its outcome
/// (`ok:<allreduce sum>` or the full error display, blame included), and
/// its final virtual clock.
type RankLog = (Vec<(usize, u64, u64)>, String, Time);

/// Same fan-out shape as the commit storms: 4 deterministic
/// targets with tags colliding in {0, 1, 2}.
const FANOUT_OFFSETS: [usize; 4] = [1, 4, 9, 16];

fn tag_of(k: usize) -> u64 {
    (k % 3) as u64
}

/// Run the storm under `plan` and capture every rank's observation.
/// Ranks that hit a fault-induced error (their own crash, or a stall
/// poisoned by the stagnation detector) record the error display instead
/// of a sum — including the blame text, which must itself be
/// deterministic.
fn faulted_storm_log(
    p: usize,
    per: usize,
    seed: u64,
    plan: &FaultPlan,
    workers: usize,
) -> Vec<RankLog> {
    assert!(p > *FANOUT_OFFSETS.iter().max().unwrap());
    let logs: Mutex<Vec<Vec<(usize, u64, u64)>>> = Mutex::new(vec![Vec::new(); p]);
    let cfg = SimConfig::cooperative()
        .with_seed(seed)
        .with_workers(workers)
        .with_faults(plan.clone());
    let res = Universe::run(p, cfg, |env| {
        let w = &env.world;
        let r = w.rank();
        let body = || -> mpisim::Result<u64> {
            for i in 0..per {
                for (k, off) in FANOUT_OFFSETS.iter().enumerate() {
                    let dst = (r + off) % p;
                    w.send(&[(r * 1000 + i * 10 + k) as u64], dst, tag_of(k))?;
                }
            }
            let coll = nbcoll::iallreduce(w, &[r as u64 + 1], 300, ops::sum::<u64>())?;
            for t in 0..3u64 {
                let n = per
                    * (0..FANOUT_OFFSETS.len())
                        .filter(|&k| tag_of(k) == t)
                        .count();
                for _ in 0..n {
                    let (v, st) = w.recv::<u64>(Src::Any, t)?;
                    logs.lock().unwrap()[r].push((st.source, t, v[0]));
                }
            }
            Ok(coll.wait_result()?[0])
        };
        match body() {
            Ok(sum) => format!("ok:{sum}"),
            Err(e) => format!("{e}"),
        }
    });
    let logs = logs.into_inner().unwrap();
    logs.into_iter()
        .zip(res.per_rank)
        .zip(res.clocks)
        .map(|((log, outcome), clock)| (log, outcome, clock))
        .collect()
}

/// Assert 4 and 8 workers reproduce the 1-worker run bit for bit under
/// `plan`.
fn assert_fault_plan_deterministic(p: usize, per: usize, seed: u64, plan: &FaultPlan) {
    let oracle = faulted_storm_log(p, per, seed, plan, 1);
    for workers in [4usize, 8] {
        let got = faulted_storm_log(p, per, seed, plan, workers);
        assert_eq!(
            oracle, got,
            "faulted run diverged (workers={workers}, plan={plan:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    // Stragglers + message jitter, no crashes: every rank completes and
    // the full log/clock picture must be worker-invariant.
    #[test]
    fn slowdown_and_jitter_are_deterministic(
        perturb in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan::default()
            .with_perturb_seed(perturb)
            .with_slowdown(0.3, 4.0)
            .with_jitter(Time::from_micros(2));
        assert_fault_plan_deterministic(24, 2, seed, &plan);
    }

    // Crash-stop: the crashed rank errors immediately, its peers stall
    // and are poisoned by the stagnation detector, and every error text
    // (RoundBlame included) must be identical across the matrix.
    #[test]
    fn crash_stop_is_deterministic(
        victim in 0usize..24,
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan::default()
            .with_perturb_seed(1)
            .with_crash(victim, Time::ZERO);
        assert_fault_plan_deterministic(24, 1, seed, &plan);
    }
}

/// All three fault kinds at once, including a mid-run crash time, on a
/// fixed seed (the proptest matrix above covers the random ones).
#[test]
fn combined_faults_are_deterministic() {
    let plan = FaultPlan::default()
        .with_perturb_seed(42)
        .with_slowdown(0.25, 8.0)
        .with_jitter(Time::from_micros(5))
        .with_crash(7, Time::from_micros(40));
    assert_fault_plan_deterministic(24, 2, 9, &plan);
}

/// A zero-magnitude plan — straggler fraction 0, or factor cap 1.0, or
/// zero jitter — must be **byte-identical** to running with no plan at
/// all: arming the machinery without any fault must not perturb a single
/// clock tick or delivery.
#[test]
fn zero_magnitude_plan_is_byte_identical_to_no_plan() {
    let clean = faulted_storm_log(24, 2, 5, &FaultPlan::default(), 4);
    let zero_frac = FaultPlan::default()
        .with_perturb_seed(99)
        .with_slowdown(0.0, 8.0)
        .with_jitter(Time::ZERO);
    let unit_factor = FaultPlan::default()
        .with_perturb_seed(7)
        .with_slowdown(0.9, 1.0);
    for plan in [zero_frac, unit_factor] {
        let got = faulted_storm_log(24, 2, 5, &plan, 4);
        assert_eq!(
            clean, got,
            "zero-magnitude plan perturbed the run: {plan:?}"
        );
    }
}

/// Sanity check that the injection is not a no-op: a real slowdown must
/// move virtual clocks relative to the clean run.
#[test]
fn nonzero_slowdown_actually_perturbs_clocks() {
    let clean = faulted_storm_log(24, 1, 5, &FaultPlan::default(), 4);
    let plan = FaultPlan::default()
        .with_perturb_seed(3)
        .with_slowdown(1.0, 8.0);
    let slowed = faulted_storm_log(24, 1, 5, &plan, 4);
    let clean_clocks: Vec<Time> = clean.iter().map(|l| l.2).collect();
    let slowed_clocks: Vec<Time> = slowed.iter().map(|l| l.2).collect();
    assert_ne!(clean_clocks, slowed_clocks, "slowdown plan had no effect");
}

/// The `MPISIM_FAULT_*` knobs must reach `SimConfig::cooperative()`
/// exactly like the `MPISIM_COOP_*` family. Checked in a child process:
/// `set_var` in a threaded test binary is a data race against concurrent
/// env reads, so the parent only *reads* its (unset) environment and the
/// mutation happens in the child.
#[test]
fn fault_env_knobs_are_honoured() {
    if std::env::var_os("MPISIM_FAULT_SEED").is_none()
        && std::env::var_os("MPISIM_FAULT_SLOW").is_none()
        && std::env::var_os("MPISIM_FAULT_CRASH").is_none()
        && std::env::var_os("MPISIM_FAULT_JITTER").is_none()
    {
        let cfg = SimConfig::cooperative();
        assert!(cfg.faults.is_noop(), "default faults must be a no-op");
    }
    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(exe)
        .args([
            "child_probe_fault_env",
            "--ignored",
            "--exact",
            "--nocapture",
        ])
        .env("MPISIM_FAULT_SEED", "9")
        .env("MPISIM_FAULT_SLOW", "0.25,4")
        .env("MPISIM_FAULT_CRASH", "3@5us,1@2ms")
        .env("MPISIM_FAULT_JITTER", "20us")
        .output()
        .expect("spawn child test process");
    assert!(
        out.status.success(),
        "child env probe failed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// Child half of `fault_env_knobs_are_honoured` (runs only when invoked
/// with `--ignored` by the parent, with the env vars set).
#[test]
#[ignore = "spawned as a child process by fault_env_knobs_are_honoured"]
fn child_probe_fault_env() {
    let cfg = SimConfig::cooperative();
    let expect = FaultPlan::default()
        .with_perturb_seed(9)
        .with_slowdown(0.25, 4.0)
        .with_crash(3, Time::from_micros(5))
        .with_crash(1, Time::from_millis(2))
        .with_jitter(Time::from_micros(20));
    assert_eq!(cfg.faults, expect);
}
