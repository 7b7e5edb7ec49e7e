//! The universe: runs `p` simulated MPI processes on the epoch scheduler
//! ([`crate::sched`]), which steps all ranks deterministically from a small
//! worker pool. The entry point decides what a rank body is:
//! [`Universe::run`] takes a synchronous closure and gives each rank a
//! parked OS thread to keep its stack on (to about 2^12 ranks),
//! [`Universe::run_poll`] takes an `async` body and a rank is a few
//! hundred bytes of future state (the paper's 2^15 processes, and 2^20).
//! Either way a rank runs only between its own MPI calls, which is the
//! weak-progress model the paper's RBC assumes (DESIGN.md §4).
//!
//! ```
//! use mpisim::{Universe, SimConfig, Transport};
//!
//! let res = Universe::run(4, SimConfig::default(), |env| {
//!     let world = env.world.clone();
//!     let mut x = vec![world.rank() as u64];
//!     world.bcast(&mut x, 0).unwrap();
//!     x[0]
//! });
//! assert_eq!(res.per_rank, vec![0, 0, 0, 0]);
//! ```
//!
//! The same program at 2^10 ranks, bit-for-bit reproducible:
//!
//! ```
//! use mpisim::{Universe, SimConfig, Transport};
//!
//! let res = Universe::run(1 << 10, SimConfig::default(), |env| {
//!     env.world.allreduce(&[1u64], |a, b| a + b).unwrap()[0]
//! });
//! assert!(res.per_rank.iter().all(|&s| s == 1 << 10));
//! ```

use std::sync::Arc;

use parking_lot::Mutex;

use crate::comm::Comm;
use crate::faults::{FaultPlan, FaultState};
use crate::model::{CostModel, VendorProfile};
use crate::proc::{ProcState, Router};
use crate::sched::{
    self,
    poll::{FutureBody, RankBody},
    thread::ThreadBody,
};
use crate::time::Time;

/// Both variants name the one runtime, the epoch scheduler
/// ([`crate::sched`]), and nothing reads the value. It is kept, with
/// [`SimConfig::with_backend`], only because the perf ledger under
/// `benchmark/` spells both variants; ROADMAP item 1(a) deletes both.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The epoch scheduler.
    Cooperative,
    /// The epoch scheduler.
    Poll,
}

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The machine's α–β cost model.
    pub cost: CostModel,
    /// The MPI-implementation personality to simulate.
    pub vendor: VendorProfile,
    /// Base seed for per-rank deterministic RNG streams.
    pub seed: u64,
    /// OS thread stack size of the thread bodies [`Universe::run`] builds.
    pub stack_size: usize,
    /// Worker threads of the cooperative scheduler. The epoch discipline
    /// makes the schedule — and therefore message-delivery order — a pure
    /// function of `(program, seed)` for **every** worker count, so this
    /// is purely a throughput knob: raise it to the host's core count to
    /// run independent ranks of each epoch in parallel with identical
    /// output.
    pub coop_workers: usize,
    /// Seeded fault-injection plan (stragglers, crash-stop, message
    /// jitter); the default plan injects nothing. Faults are a pure
    /// function of `(program, seed, perturb_seed)` — never of the worker
    /// count — so faulted runs keep the bit-identical
    /// determinism guarantees. See [`crate::faults`].
    pub faults: FaultPlan,
    /// Record a deterministic event trace ([`crate::obs::Trace`]): op
    /// spans, send/deliver edges, collective phase marks, fault and blame
    /// events, all stamped with virtual time. The trace is a pure
    /// function of `(program, seed, fault plan)` — byte-identical for
    /// every worker count — and recording it changes
    /// **nothing** the simulation computes (observer effect zero; see
    /// DESIGN.md §9). Off by default: tracing costs memory proportional
    /// to the event count.
    pub trace: bool,
    /// Record the cooperative scheduler's wall-clock phase profile
    /// ([`crate::obs::SchedProfile`]): per-worker run/commit/idle timings
    /// and claim counts. Host-time diagnostics, **outside** the
    /// deterministic domain — never compare these across runs in tests.
    pub sched_profile: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cost: CostModel::supermuc_like(),
            vendor: VendorProfile::neutral(),
            seed: 0x5bc,
            stack_size: 1 << 20,
            coop_workers: 1,
            faults: FaultPlan::default(),
            trace: false,
            sched_profile: false,
        }
    }
}

impl SimConfig {
    /// [`SimConfig::default`] with the environment knobs applied. The
    /// worker-pool size honours the `MPISIM_COOP_WORKERS` environment
    /// variable (default 1) — results are identical for every value — and
    /// the fault plan honours the `MPISIM_FAULT_SEED` / `MPISIM_FAULT_SLOW`
    /// / `MPISIM_FAULT_CRASH` / `MPISIM_FAULT_JITTER` knobs (strict
    /// parsing; see [`FaultPlan::from_env`]) — unlike the worker count,
    /// a fault plan *does* change what is simulated, deterministically.
    /// `MPISIM_TRACE=1` turns on the deterministic event trace and
    /// `MPISIM_SCHED_PROFILE=1` the wall-clock scheduler profile (both
    /// strict boolean knobs; see [`crate::env`]).
    pub fn cooperative() -> SimConfig {
        use crate::env;
        SimConfig {
            coop_workers: env::coop_workers_from(env::var("MPISIM_COOP_WORKERS").as_deref()),
            faults: FaultPlan::from_env(),
            trace: env::trace_from(env::var("MPISIM_TRACE").as_deref()),
            sched_profile: env::sched_profile_from(env::var("MPISIM_SCHED_PROFILE").as_deref()),
            ..SimConfig::default()
        }
    }

    /// Returns `self` unchanged: there is one runtime (see [`Backend`]).
    /// Kept only for the perf ledger under `benchmark/`; ROADMAP item 1(a)
    /// deletes it with [`Backend`].
    #[doc(hidden)]
    pub fn with_backend(self, _backend: Backend) -> SimConfig {
        self
    }

    /// Replace the cooperative worker count (any count is deterministic;
    /// more workers only changes wall-clock speed).
    pub fn with_workers(mut self, workers: usize) -> SimConfig {
        self.coop_workers = workers.max(1);
        self
    }

    /// Replace the vendor profile.
    pub fn with_vendor(mut self, vendor: VendorProfile) -> SimConfig {
        self.vendor = vendor;
        self
    }

    /// Replace the base RNG seed.
    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Replace the per-rank OS thread stack size.
    pub fn with_stack_size(mut self, bytes: usize) -> SimConfig {
        self.stack_size = bytes;
        self
    }

    /// Replace the fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> SimConfig {
        self.faults = plan;
        self
    }

    /// Turn the deterministic event trace on or off (see
    /// [`SimConfig::trace`]).
    pub fn with_trace(mut self, on: bool) -> SimConfig {
        self.trace = on;
        self
    }

    /// Turn the wall-clock scheduler profile on or off (see
    /// [`SimConfig::sched_profile`]).
    pub fn with_sched_profile(mut self, on: bool) -> SimConfig {
        self.sched_profile = on;
        self
    }
}

/// Handed to every rank body.
#[derive(Clone)]
pub struct ProcEnv {
    /// `MPI_COMM_WORLD`.
    pub world: Comm,
}

impl ProcEnv {
    /// This process's world rank.
    pub fn rank(&self) -> usize {
        use crate::transport::Transport;
        self.world.rank()
    }

    /// Number of processes in the universe.
    pub fn size(&self) -> usize {
        use crate::transport::Transport;
        self.world.size()
    }

    /// This rank's simulator state.
    pub fn state(&self) -> &Arc<ProcState> {
        self.world.proc_state()
    }

    /// This rank's virtual clock.
    pub fn now(&self) -> Time {
        self.state().now()
    }
}

/// Outcome of a simulation: per-rank return values, final virtual clocks,
/// and the model counters (message and byte totals among them).
#[derive(Debug)]
pub struct SimResult<R> {
    /// Each rank body's return value, indexed by rank.
    pub per_rank: Vec<R>,
    /// Each rank's virtual clock at exit.
    pub clocks: Vec<Time>,
    /// Deterministic model counters of the run (messages, bytes,
    /// per-class volumes, mailbox scans, epochs, wake-ups, switches) —
    /// pure functions of `(program, seed, fault plan)`, so CI gates them
    /// with exact equality. Always collected.
    pub metrics: crate::obs::MetricsSnapshot,
    /// The deterministic event trace, when [`SimConfig::trace`] was on.
    pub trace: Option<crate::obs::Trace>,
    /// The wall-clock scheduler phase profile, when
    /// [`SimConfig::sched_profile`] was on.
    pub sched_profile: Option<crate::obs::SchedProfile>,
}

impl<R> SimResult<R> {
    /// Makespan: the latest rank clock — what the paper reports as the
    /// running time of an operation executed by all processes.
    pub fn max_time(&self) -> Time {
        self.clocks.iter().copied().max().unwrap_or(Time::ZERO)
    }

    /// The earliest rank clock at exit.
    pub fn min_time(&self) -> Time {
        self.clocks.iter().copied().min().unwrap_or(Time::ZERO)
    }
}

/// Entry point; stateless. See [`Universe::run`].
pub struct Universe;

impl Universe {
    /// Run the synchronous rank body `f` on `p` simulated processes and
    /// collect results. Each rank is a thread body: one scoped OS thread
    /// of [`SimConfig::stack_size`], parked and stepped by the epoch
    /// scheduler, two hand-offs per step. The host's thread limits
    /// (`ulimit -u`, `vm.max_map_count`) put the ceiling somewhere past
    /// 2^12 ranks; larger universes, and every figure kernel, go through
    /// [`Universe::run_poll`]. A panic in any rank propagates with its
    /// payload once every rank thread has exited.
    pub fn run<R, F>(p: usize, cfg: SimConfig, f: F) -> SimResult<R>
    where
        R: Send,
        F: Fn(ProcEnv) -> R + Send + Sync,
    {
        let (router, states) = build_fabric(p, &cfg);
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..p).map(|_| None).collect());
        let rank_main = |state: Arc<ProcState>| {
            let rank = state.global_rank;
            let out = f(ProcEnv {
                world: Comm::world(state),
            });
            results.lock()[rank] = Some(out);
        };
        let sched = std::thread::scope(|scope| {
            let rank_main = &rank_main;
            Self::run_sched(&cfg, &router, &states, |rank, state, store| {
                let body = move || rank_main(state);
                Box::new(ThreadBody::spawn(
                    scope,
                    cfg.stack_size,
                    (rank, p),
                    store,
                    body,
                ))
            })
        });
        assemble_result(&router, &states, results.into_inner(), sched)
    }

    /// Run the async rank body `f` on `p` simulated processes. Each rank's
    /// future is a future body: a stackless task polled once per step, a
    /// few hundred bytes and no OS thread per rank, so universes reach
    /// p = 2^20 and beyond. Output is byte-identical to the same program
    /// under [`Universe::run`]. Panics in any rank propagate.
    pub fn run_poll<R, F, Fut>(p: usize, cfg: SimConfig, f: F) -> SimResult<R>
    where
        R: Send,
        F: Fn(ProcEnv) -> Fut + Send + Sync,
        Fut: std::future::Future<Output = R> + Send,
    {
        let (router, states) = build_fabric(p, &cfg);
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..p).map(|_| None).collect());
        let (f, results_ref) = (&f, &results);
        let sched = Self::run_sched(&cfg, &router, &states, |rank, state, store| {
            let fut = async move {
                let out = f(ProcEnv {
                    world: Comm::world(state),
                })
                .await;
                results_ref.lock()[rank] = Some(out);
            };
            Box::new(FutureBody::new(fut, rank, store))
        });
        assemble_result(&router, &states, results.into_inner(), sched)
    }

    /// Every rank is one task on the epoch scheduler, its body built by
    /// `body_of(rank, state, panic store)`; the two entry points differ
    /// only there. Returns the scheduler's deterministic
    /// `(epochs, wakeups, switches)` counters and, when profiling, its
    /// wall-clock phase profile.
    fn run_sched<'a>(
        cfg: &SimConfig,
        router: &Arc<Router>,
        states: &[Arc<ProcState>],
        body_of: impl Fn(usize, Arc<ProcState>, Arc<sched::SchedShared>) -> Box<dyn RankBody + 'a>,
    ) -> ((u64, u64, u64), Option<crate::obs::SchedProfile>) {
        let mut scheduler =
            sched::Scheduler::new(states.len(), Arc::clone(router), cfg.sched_profile);
        let store = scheduler.panic_store();
        for (rank, state) in states.iter().enumerate() {
            let body = body_of(rank, Arc::clone(state), Arc::clone(&store));
            scheduler.spawn(rank, body);
        }
        if let Some((_rank, payload)) = scheduler.run(cfg.coop_workers) {
            std::panic::resume_unwind(payload);
        }
        (scheduler.counters(), scheduler.take_profile())
    }

    /// [`Universe::run`] with [`SimConfig::default`].
    pub fn run_default<R, F>(p: usize, f: F) -> SimResult<R>
    where
        R: Send,
        F: Fn(ProcEnv) -> R + Send + Sync,
    {
        Universe::run(p, SimConfig::default(), f)
    }
}

/// The fabric of a `p`-rank universe under `cfg`: the router (tracing
/// enabled when asked) and one [`ProcState`] per rank.
fn build_fabric(p: usize, cfg: &SimConfig) -> (Arc<Router>, Vec<Arc<ProcState>>) {
    assert!(p >= 1, "need at least one process");
    let mut router = Router::new(
        p,
        cfg.cost.clone(),
        cfg.vendor.clone(),
        FaultState::resolve(&cfg.faults, p),
    );
    if cfg.trace {
        router.enable_trace();
    }
    let router = Arc::new(router);
    let states = (0..p)
        .map(|r| ProcState::new(r, Arc::clone(&router), cfg.seed))
        .collect();
    (router, states)
}

/// Assemble a [`SimResult`] from a completed run's raw state: per-rank
/// values, final clocks, the deterministic metrics snapshot
/// (with the scheduler's epoch/wakeup/switch counters spliced in), the
/// optional trace, and the optional wall-clock profile.
fn assemble_result<R>(
    router: &Arc<Router>,
    states: &[Arc<ProcState>],
    results: Vec<Option<R>>,
    (sched_counters, sched_profile): ((u64, u64, u64), Option<crate::obs::SchedProfile>),
) -> SimResult<R> {
    let per_rank = results
        .into_iter()
        .map(|r| r.expect("rank completed"))
        .collect();
    let clocks = states.iter().map(|s| s.now()).collect();
    let mut metrics = router.metrics_base();
    (metrics.epochs, metrics.wakeups, metrics.switches) = sched_counters;
    let trace = router.collect_trace();
    SimResult {
        per_rank,
        clocks,
        metrics,
        trace,
        sched_profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Src, Transport};

    #[test]
    fn ranks_see_world() {
        let res = Universe::run_default(5, |env| (env.rank(), env.size()));
        assert_eq!(res.per_rank, vec![(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
    }

    #[test]
    fn ring_send_recv() {
        let res = Universe::run_default(4, |env| {
            let w = &env.world;
            let next = (w.rank() + 1) % 4;
            let prev = (w.rank() + 3) % 4;
            w.send(&[w.rank() as u64], next, 1).unwrap();
            let (v, st) = w.recv::<u64>(Src::Rank(prev), 1).unwrap();
            assert_eq!(st.source, prev);
            v[0]
        });
        assert_eq!(res.per_rank, vec![3, 0, 1, 2]);
    }

    #[test]
    fn clocks_collected() {
        let res = Universe::run_default(2, |env| {
            env.state().charge(Time::from_millis(env.rank() as u64 + 1));
        });
        assert_eq!(res.clocks[0], Time::from_millis(1));
        assert_eq!(res.clocks[1], Time::from_millis(2));
        assert_eq!(res.max_time(), Time::from_millis(2));
        assert_eq!(res.min_time(), Time::from_millis(1));
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        Universe::run_default(2, |env| {
            if env.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn deterministic_results_across_runs() {
        let run = || {
            Universe::run(3, SimConfig::default().with_seed(7), |env| {
                env.state().rand_index(1_000_000)
            })
            .per_rank
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bcast_works() {
        let res = Universe::run_default(8, |env| {
            let mut x = vec![env.rank() as u64 * 100];
            env.world.bcast(&mut x, 3).unwrap();
            x[0]
        });
        assert_eq!(res.per_rank, vec![300; 8]);
    }
}
