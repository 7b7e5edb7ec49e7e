//! The epoch loop: publish a phase, let workers claim its units, advance
//! when the last unit completes.
//!
//! Execution proceeds in **epochs**. An epoch is a deterministically
//! ordered round of runnable tasks, which workers claim lock-free (an
//! atomic cursor over an immutable round vector) and step *in parallel*.
//! That cannot perturb the simulation because tasks of one round are
//! isolated: sends are staged in the sender's own buffer, a rank only
//! claims from its own mailbox and nothing is pushed into any mailbox
//! while tasks run, and clocks, RNG streams and context pools are
//! per-rank. When every task of the round has switched out, the worker
//! that completed the last unit commits the epoch (`sched/commit.rs`) and
//! publishes the next round: the tasks that yielded and the tasks the
//! commit woke, in ascending rank order. An empty next round with live
//! tasks is a deadlock; its tasks are poisoned (`sched/task.rs`).
//!
//! **Invariant:** a phase (a task round, or the shards of a wide commit)
//! is identified by a generation number that the claim cursor carries in
//! its high half. A claim succeeds only against the generation it read
//! from the gate, so a worker holding a stale phase can never take a unit
//! of the next one, and exactly one worker — the one whose completion
//! brings the done-count to the phase's unit count — advances the phase.
//! Round membership, each task's behaviour against frozen mailboxes and
//! the commit order are pure functions of `(program, seed)`; which worker
//! runs what is not an input to any of them. The *order* of a round is
//! not an input either (its tasks are isolated from one another), so it
//! is chosen for the host: rank order walks the per-rank state and the
//! mailboxes the destination-major commit just filled in address order.

use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use super::commit::{Begun, Commit, CommitWork};
use super::poll::RankBody;
use super::task::{poison, SchedShared, TaskSlot};
use crate::model::CommitAlgo;
use crate::obs::{SchedProfile, WorkerProfile};
use crate::proc::Router;

/// What the workers are currently claiming.
#[derive(Clone)]
enum Work {
    /// Tasks of the current epoch, in deterministic order.
    Tasks(Arc<Vec<usize>>),
    /// Shards of the finished epoch's staged messages.
    Commit(Arc<CommitWork>),
}

impl Work {
    fn units(&self) -> usize {
        match self {
            Work::Tasks(round) => round.len(),
            Work::Commit(cw) => cw.units(),
        }
    }
}

/// Phase control: the current claimable work and the generation the
/// lock-free claim cursor validates against.
struct EpochGate {
    work: Work,
    /// Bumped on every publish; also embedded in the claim cursor.
    gen: u64,
    /// All tasks finished: workers should exit.
    done: bool,
}

/// Consecutive no-progress epochs (no message staged, no task woken, no
/// task finished — pure yields) tolerated while a crash-stop fault is
/// armed before the run is declared stalled and every unfinished task is
/// poisoned. High enough that legitimate bounded polling never trips it;
/// the detector is off entirely when the fault plan schedules no crashes.
const STAGNANT_EPOCH_LIMIT: usize = 64;

/// The epoch scheduler of one universe run.
pub(crate) struct Scheduler {
    shared: Arc<SchedShared>,
    slots: Vec<TaskSlot>,
    /// Whether the fault plan schedules a crash (arms the stagnation
    /// detector).
    crashes_armed: bool,
    gate: Mutex<EpochGate>,
    gate_cv: Condvar,
    /// `((gen mod 2^32) << 32) | next_index`; see the module invariant.
    cursor: AtomicU64,
    /// Units of the current phase that have completed.
    round_done: AtomicUsize,
    commit: Commit,
    /// Displaced round `Arc`s: `publish_tasks` reuses one when no worker
    /// still holds a clone (always true at 1 worker), so steady-state
    /// round publishing is allocation-free.
    round_pool: Mutex<Vec<Arc<Vec<usize>>>>,
    /// Messages staged by the epoch being committed (written by
    /// `finish_round`, read by `finish_epoch`).
    epoch_msgs: AtomicUsize,
    /// Consecutive epochs without observable progress (see
    /// [`STAGNANT_EPOCH_LIMIT`]).
    stagnant: AtomicUsize,
    /// `live` count at the previous epoch's commit (a finish is progress).
    prev_live: AtomicUsize,
    /// Whether workers record wall-clock phase timings (host time, **not**
    /// deterministic; never fed back into scheduling or virtual time).
    profile: bool,
    /// Per-worker phase profiles, stored by each worker at exit.
    profiles: Mutex<Vec<WorkerProfile>>,
}

impl Scheduler {
    /// `p` empty task slots delivering through `router`.
    /// `commit_algo` selects the commit pipeline.
    pub fn new(p: usize, router: Arc<Router>, commit_algo: CommitAlgo, profile: bool) -> Scheduler {
        let shared = Arc::new(SchedShared::new(p));
        Scheduler {
            slots: (0..p).map(|_| TaskSlot::new()).collect(),
            shared,
            crashes_armed: router.faults.has_crashes(),
            commit: Commit::new(router, commit_algo),
            gate: Mutex::new(EpochGate {
                work: Work::Tasks(Arc::new(Vec::new())),
                gen: 0,
                done: false,
            }),
            gate_cv: Condvar::new(),
            cursor: AtomicU64::new(0),
            round_done: AtomicUsize::new(0),
            round_pool: Mutex::new(Vec::new()),
            epoch_msgs: AtomicUsize::new(0),
            stagnant: AtomicUsize::new(0),
            prev_live: AtomicUsize::new(p),
            profile,
            profiles: Mutex::new(Vec::new()),
        }
    }

    /// Handle for recording a rank body's panic (first one wins).
    pub fn panic_store(&self) -> Arc<SchedShared> {
        Arc::clone(&self.shared)
    }

    /// Install the body of `rank`'s task.
    pub fn spawn(&mut self, rank: usize, body: Box<dyn RankBody>) {
        self.slots[rank].install(body);
    }

    /// Run every spawned task to completion on `workers` OS threads.
    /// Returns the first recorded panic.
    pub fn run(&self, workers: usize) -> Option<(usize, Box<dyn Any + Send>)> {
        let workers = workers.max(1);
        // The worker count sizes the shard heuristic, which never affects
        // simulation output. Epoch 1 is every task, in rank order.
        self.commit.workers.store(workers, Ordering::Relaxed);
        {
            let mut g = self.gate.lock();
            g.work = Work::Tasks(Arc::new((0..self.slots.len()).collect()));
            g.gen = 1;
            g.done = self.slots.is_empty();
            self.round_done.store(0, Ordering::Relaxed);
            self.cursor.store(1 << 32, Ordering::Release);
        }
        if workers == 1 {
            self.worker_loop(0);
        } else {
            std::thread::scope(|scope| {
                for w in 0..workers {
                    std::thread::Builder::new()
                        .name(format!("sched-worker{w}"))
                        .spawn_scoped(scope, move || self.worker_loop(w))
                        .expect("spawn scheduler worker");
                }
            });
        }
        self.shared.panic.lock().take()
    }

    /// The scheduler's deterministic model counters after a run:
    /// `(epochs, wakeups, switches)`, identical for every worker count and
    /// commit algorithm.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.shared.epochs.load(Ordering::Relaxed),
            self.shared.wakeups.load(Ordering::Relaxed),
            self.shared.switches.load(Ordering::Relaxed),
        )
    }

    /// The wall-clock phase profile of the run, if profiling was on.
    pub fn take_profile(&self) -> Option<SchedProfile> {
        if !self.profile {
            return None;
        }
        let (pool_hits, pool_misses) = self.commit.pools.entry_pool.counters();
        Some(SchedProfile {
            workers: std::mem::take(&mut *self.profiles.lock()),
            pool_hits,
            pool_misses,
        })
    }

    /// Claim the next unit of the current phase if `gen` is still
    /// current. `None` means: phase drained or advanced — refresh via the
    /// gate.
    fn try_claim(&self, gen: u64, units: usize) -> Option<usize> {
        loop {
            let c = self.cursor.load(Ordering::Acquire);
            // The cursor carries gen mod 2^32; compare masked, or a run
            // past 2^32 phases would never match again and hang.
            if c >> 32 != gen & 0xffff_ffff {
                return None;
            }
            let i = (c & 0xffff_ffff) as usize;
            if i >= units {
                return None;
            }
            if self
                .cursor
                .compare_exchange_weak(c, c + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(i);
            }
        }
    }

    /// One worker: claim and execute units of the current phase, and of
    /// every phase it chains into, until the universe completes. When no
    /// unit is claimable and the phase has not advanced, another worker
    /// owns its tail and will publish the next one: sleep on the gate until
    /// it does.
    fn worker_loop(&self, widx: usize) {
        let mut prof = WorkerProfile::default();
        let mut g = self.gate.lock();
        while !g.done {
            let (gen, work) = (g.gen, g.work.clone());
            drop(g);
            while let Some(i) = self.try_claim(gen, work.units()) {
                let t0 = self.profile.then(std::time::Instant::now);
                match &work {
                    Work::Tasks(round) => self.slots[round[i]].step(round[i], &self.shared),
                    Work::Commit(cw) => self.commit.push_shard(cw, i),
                }
                if let Some(t0) = t0 {
                    let ns = t0.elapsed().as_nanos() as u64;
                    match &work {
                        Work::Tasks(_) => {
                            prof.run_ns += ns;
                            prof.tasks += 1;
                        }
                        Work::Commit(_) => {
                            prof.commit_ns += ns;
                            prof.shards += 1;
                        }
                    }
                }
                if self.round_done.fetch_add(1, Ordering::AcqRel) + 1 == work.units() {
                    // Last unit of the phase: advance it (single-threaded
                    // by construction: every other worker is waiting on
                    // the gate or about to). The advance orders and, on
                    // the inline path, delivers the epoch's messages:
                    // commit time.
                    let t0 = self.profile.then(std::time::Instant::now);
                    match &work {
                        Work::Tasks(round) => self.finish_round(round),
                        Work::Commit(cw) => self.finish_epoch(self.commit.finish(cw), cw.yielded),
                    }
                    if let Some(t0) = t0 {
                        prof.commit_ns += t0.elapsed().as_nanos() as u64;
                    }
                }
            }
            // Not held across the sleep: `publish_tasks` reuses a displaced
            // round vector once no worker shares it.
            drop(work);
            g = self.gate.lock();
            if !g.done && g.gen == gen {
                let idle0 = self.profile.then(std::time::Instant::now);
                while !g.done && g.gen == gen {
                    self.gate_cv.wait(&mut g);
                }
                if let Some(t) = idle0 {
                    prof.idle_ns += t.elapsed().as_nanos() as u64;
                }
            }
        }
        drop(g);
        if self.profile {
            let mut ps = self.profiles.lock();
            if ps.len() <= widx {
                ps.resize_with(widx + 1, Default::default);
            }
            ps[widx] = prof;
        }
    }

    /// The executed round is complete: collect the tasks that yielded,
    /// then the commit runs here or is published.
    fn finish_round(&self, round: &[usize]) {
        // Every member was stepped exactly once.
        self.shared
            .switches
            .fetch_add(round.len() as u64, Ordering::Relaxed);
        let mut next = self.commit.pools.idx_pool.take();
        next.extend(round.iter().filter(|&&tid| self.slots[tid].yielded()));
        let yielded = next.len();
        let (begun, msgs) = self.commit.begin(round, &self.slots, next);
        // Progress signal for the stagnation detector below: a pure
        // function of the epoch contents.
        self.epoch_msgs.store(msgs, Ordering::Relaxed);
        match begun {
            Begun::Delivered(next) => self.finish_epoch(next, yielded),
            // This worker re-enters its claim loop and takes shards
            // alongside the woken pool.
            Begun::Sharded(cw) => self.publish(Work::Commit(cw)),
        }
    }

    /// Deliveries are committed: `next[..yielded]` are the tasks that
    /// yielded, the rest the ranks whose armed wait a delivery satisfied.
    /// Wake those, detect stagnation and deadlock, and publish the next
    /// round in rank order.
    fn finish_epoch(&self, mut next: Vec<usize>, yielded: usize) {
        self.shared.epochs.fetch_add(1, Ordering::Relaxed);
        // A wait left armed by a body that then panicked out of its leaf
        // sits on a task that is not blocked: drop that one, wake the rest.
        let mut seen = 0;
        next.retain(|&tid| {
            seen += 1;
            seen <= yielded || self.slots[tid].unblock()
        });
        let woken_count = next.len() - yielded;
        self.shared
            .wakeups
            .fetch_add(woken_count as u64, Ordering::Relaxed);
        // Crash-stop stagnation detector. With a crashed rank in the
        // fault plan, a peer that polls for its messages in a *yield*
        // loop (a user program's `yield_now` loop; the libraries' own
        // loops park and end in the deadlock detector below) yields
        // forever: the round never
        // empties, so the exact detector cannot fire.
        // Progress is epoch-observable — a message staged, a task woken,
        // a task finished. STAGNANT_EPOCH_LIMIT epochs of pure yields
        // while crashes are armed mean no progress is possible any more:
        // poison every unfinished task so polling loops fail loudly with
        // a RoundBlame. Every input here is a pure function of the epoch
        // contents, so the poison epoch is identical for every worker
        // count and commit algorithm.
        let live = self.shared.live.load(Ordering::Acquire);
        if live > 0 && self.crashes_armed {
            let msgs = self.epoch_msgs.swap(0, Ordering::Relaxed);
            let prev = self.prev_live.swap(live, Ordering::Relaxed);
            if msgs > 0 || woken_count > 0 || prev != live {
                self.stagnant.store(0, Ordering::Relaxed);
            } else if self.stagnant.fetch_add(1, Ordering::Relaxed) + 1 >= STAGNANT_EPOCH_LIMIT {
                self.stagnant.store(0, Ordering::Relaxed);
                // Yielded (polling) tasks are already in `next`; blocked
                // ones join it.
                poison(&self.slots, &mut next, false);
            }
        }
        // Nothing runnable but tasks remain: deadlock. The poisoned
        // tasks run once more so their waits can return the timeout
        // error.
        if next.is_empty() && live > 0 {
            poison(&self.slots, &mut next, true);
            if next.is_empty() {
                eprintln!(
                    "mpisim: scheduler invariant broken: {live} live tasks, none \
                     runnable, none blocked"
                );
                std::process::abort();
            }
        }
        if live == 0 {
            let mut g = self.gate.lock();
            g.done = true;
            self.gate_cv.notify_all();
        } else {
            // Members are unique (a task is woken out of `ST_BLOCKED` at
            // most once and a yielded task is never blocked), so the
            // unstable sort has one result.
            next.sort_unstable();
            self.publish_tasks(next);
        }
    }

    /// Publish the next task round, reusing a displaced round `Arc` when
    /// no worker still holds a clone of it. At 1 worker that is always
    /// true by the time the next publish happens (the sole worker re-reads
    /// the gate, dropping its clone, before it can finish another round);
    /// a still-referenced `Arc` just falls back to a fresh allocation.
    fn publish_tasks(&self, mut next: Vec<usize>) {
        let cand = self.round_pool.lock().pop();
        let arc = match cand {
            Some(mut a) => match Arc::get_mut(&mut a) {
                Some(v) => {
                    v.clear();
                    v.append(&mut next);
                    a
                }
                None => Arc::new(std::mem::take(&mut next)),
            },
            None => Arc::new(std::mem::take(&mut next)),
        };
        if next.capacity() > 0 {
            next.clear();
            self.commit.pools.idx_pool.put(next);
        }
        self.publish(Work::Tasks(arc));
    }

    /// Install `work` as the next claimable phase. The cursor moves last:
    /// claims validate its gen half, so no worker can touch the new phase
    /// before the gate state it pairs with is visible.
    fn publish(&self, work: Work) {
        let units = work.units();
        let mut g = self.gate.lock();
        g.gen += 1;
        let prev = std::mem::replace(&mut g.work, work);
        self.round_done.store(0, Ordering::Relaxed);
        self.cursor
            .store((g.gen & 0xffff_ffff) << 32, Ordering::Release);
        // A one-unit phase is fully served by the publishing worker itself
        // — waking the pool for it would just thrash the sleeping workers
        // during serial phases of the program. They stay parked until a
        // wider phase (or `done`) arrives; the publisher alone keeps the
        // simulation live.
        if units > 1 {
            self.gate_cv.notify_all();
        }
        drop(g);
        // The displaced round vector feeds a later `publish_tasks` (its
        // `Arc` becomes unique once every worker re-reads the gate);
        // commit work is dropped as usual.
        if let Work::Tasks(arc) = prev {
            let mut pool = self.round_pool.lock();
            if pool.len() < 4 {
                pool.push(arc);
            }
        }
    }
}
