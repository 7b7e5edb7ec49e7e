//! The epoch loop: publish a round, let workers claim its tasks, commit
//! and advance when the last task completes.
//!
//! Execution proceeds in **epochs**. An epoch is a deterministically
//! ordered round of runnable tasks, which workers claim lock-free (an
//! atomic cursor over an immutable round vector) and step *in parallel*.
//! That cannot perturb the simulation because tasks of one round are
//! isolated: sends are staged in the stepping worker's outbox, a rank
//! only claims from its own mailbox and nothing is pushed into any
//! mailbox while tasks run, and clocks, RNG streams and context pools are
//! per-rank. A worker that finds no task left to claim hands its outbox
//! to the commit and only then counts the tasks it completed, so the
//! worker whose count completes the round holds every message of it: it
//! commits the epoch (`sched/commit.rs`) and publishes the next round,
//! the tasks that yielded and the tasks the commit woke, in ascending
//! rank order. An empty next round with live tasks is a deadlock; its
//! tasks are poisoned (`sched/task.rs`).
//!
//! **Invariant:** a round is identified by a generation number that the
//! claim cursor carries in its high half. A claim succeeds only against
//! the generation it read from the gate, so a worker holding a stale
//! round can never take a task of the next one, and exactly one worker —
//! the one whose count brings the done-count to the round's length —
//! commits the epoch and advances the round. Round membership, each task's behaviour against frozen
//! mailboxes and the set each mailbox receives are pure functions of
//! `(program, seed)`; which worker runs what is not an input to any of
//! them. The *order* of a round is not an input either (its tasks are
//! isolated from one another), so it is chosen for the host: rank order
//! walks the per-rank state in address order.

use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use super::commit::Commit;
use super::poll::RankBody;
use super::task::{poison, swap_outbox, Outbox, SchedShared, TaskSlot, OUTBOX};
use crate::obs::{SchedProfile, WorkerProfile};
use crate::proc::Router;

/// Round control: the current round and the generation the lock-free
/// claim cursor validates against.
struct EpochGate {
    /// Tasks of the current epoch, in rank order.
    round: Arc<Vec<usize>>,
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

/// The epoch scheduler of one universe run, whose rank bodies may borrow
/// for `'a`.
pub(crate) struct Scheduler<'a> {
    shared: Arc<SchedShared>,
    slots: Vec<TaskSlot>,
    /// The rank programs. A body's lock is taken only by the worker that
    /// won its task's claim, so it never waits.
    bodies: Vec<Mutex<Option<Box<dyn RankBody + 'a>>>>,
    /// Whether the fault plan schedules a crash (arms the stagnation
    /// detector).
    crashes_armed: bool,
    gate: Mutex<EpochGate>,
    gate_cv: Condvar,
    /// `((gen mod 2^32) << 32) | next_index`; see the module invariant.
    cursor: AtomicU64,
    /// Tasks of the current round that have completed their step.
    round_done: AtomicUsize,
    commit: Commit,
    /// The round the last [`publish`](Self::publish) displaced. The next
    /// `finish_round` builds its round in place in it when no worker still
    /// holds a clone (always true at 1 worker), so steady-state round
    /// publishing is allocation-free.
    spare: Mutex<Option<Arc<Vec<usize>>>>,
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

impl<'a> Scheduler<'a> {
    /// `p` empty task slots delivering through `router`.
    pub fn new(p: usize, router: Arc<Router>, profile: bool) -> Scheduler<'a> {
        let shared = Arc::new(SchedShared::new(p));
        Scheduler {
            slots: (0..p).map(|_| TaskSlot::new()).collect(),
            bodies: (0..p).map(|_| Mutex::new(None)).collect(),
            shared,
            crashes_armed: router.faults.has_crashes(),
            commit: Commit::new(router),
            gate: Mutex::new(EpochGate {
                round: Arc::new(Vec::new()),
                gen: 0,
                done: false,
            }),
            gate_cv: Condvar::new(),
            cursor: AtomicU64::new(0),
            round_done: AtomicUsize::new(0),
            spare: Mutex::new(None),
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
    pub fn spawn(&mut self, rank: usize, body: Box<dyn RankBody + 'a>) {
        *self.bodies[rank].get_mut() = Some(body);
    }

    /// Run every spawned task to completion on `workers` OS threads.
    /// Returns the first recorded panic.
    pub fn run(&self, workers: usize) -> Option<(usize, Box<dyn Any + Send>)> {
        let workers = workers.max(1);
        // Epoch 1 is every task, in rank order.
        {
            let mut g = self.gate.lock();
            g.round = Arc::new((0..self.slots.len()).collect());
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
    /// `(epochs, wakeups, switches)`, identical for every worker count.
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
        Some(SchedProfile {
            workers: std::mem::take(&mut *self.profiles.lock()),
        })
    }

    /// Claim the next task of the current round if `gen` is still
    /// current. `None` means: round drained or advanced — refresh via the
    /// gate.
    fn try_claim(&self, gen: u64, units: usize) -> Option<usize> {
        loop {
            let c = self.cursor.load(Ordering::Acquire);
            // The cursor carries gen mod 2^32; compare masked, or a run
            // past 2^32 rounds would never match again and hang.
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

    /// Step `rank`'s task on the calling worker, which claimed it.
    fn step(&self, rank: usize) {
        let mut body = self.bodies[rank]
            .try_lock()
            .expect("the claim CAS gives a task to one worker");
        self.slots[rank].step(rank, &mut body, &self.shared);
    }

    /// One worker: claim and step tasks of the current round, and of every
    /// round it chains into, until the universe completes. When no task is
    /// claimable it hands its outbox in and counts its tasks done; if the
    /// round has not advanced, another worker owns its tail and will
    /// publish the next one: sleep on the gate until it does.
    fn worker_loop(&self, widx: usize) {
        // A universe run inside a rank's step (on this thread, at one
        // worker) must not take that rank's staged sends for its own.
        let outer = swap_outbox(Outbox::new());
        let mut prof = WorkerProfile::default();
        let mut g = self.gate.lock();
        while !g.done {
            let (gen, round) = (g.gen, Arc::clone(&g.round));
            drop(g);
            let mut done = 0;
            while let Some(i) = self.try_claim(gen, round.len()) {
                let t0 = self.profile.then(std::time::Instant::now);
                self.step(round[i]);
                done += 1;
                if let Some(t0) = t0 {
                    prof.run_ns += t0.elapsed().as_nanos() as u64;
                    prof.tasks += 1;
                }
            }
            if done > 0 {
                OUTBOX.with(|o| self.commit.hand_in(&mut o.borrow_mut()));
                if self.round_done.fetch_add(done, Ordering::AcqRel) + done == round.len() {
                    // Last tasks of the round: commit the epoch and
                    // advance (single-threaded by construction: every
                    // other worker has handed its outbox in, counted its
                    // tasks and is waiting on the gate or about to).
                    let t0 = self.profile.then(std::time::Instant::now);
                    self.finish_round(&round);
                    if let Some(t0) = t0 {
                        prof.commit_ns += t0.elapsed().as_nanos() as u64;
                    }
                }
            }
            // Not held across the sleep: `finish_round` reuses a displaced
            // round once no worker shares it.
            drop(round);
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
        swap_outbox(outer);
        if self.profile {
            let mut ps = self.profiles.lock();
            if ps.len() <= widx {
                ps.resize_with(widx + 1, Default::default);
            }
            ps[widx] = prof;
        }
    }

    /// The executed round is complete: commit the epoch's messages, wake
    /// the ranks they satisfied, detect stagnation and deadlock, and
    /// publish the next round (the tasks that yielded and the ones woken)
    /// in rank order.
    fn finish_round(&self, round: &[usize]) {
        // Every member was stepped exactly once.
        self.shared
            .switches
            .fetch_add(round.len() as u64, Ordering::Relaxed);
        self.shared.epochs.fetch_add(1, Ordering::Relaxed);
        // The next round, built in the spare round when nobody shares it.
        let mut next_round = self
            .spare
            .lock()
            .take()
            .filter(|r| Arc::strong_count(r) == 1)
            .unwrap_or_default();
        let next = Arc::get_mut(&mut next_round).expect("an unshared round");
        next.clear();
        next.extend(round.iter().filter(|&&tid| self.slots[tid].yielded()));
        let yielded = next.len();
        // Progress signal for the stagnation detector below: a pure
        // function of the epoch contents.
        let msgs = self.commit.deliver(next);
        // A wait left armed by a body that then panicked out of its leaf
        // sits on a task that is not blocked: drop that one, and empty its
        // satisfied wait so that later deposits into the dead rank's
        // mailbox are not counted as pattern checks. Wake the rest.
        let mut seen = 0;
        next.retain(|&tid| {
            seen += 1;
            if seen <= yielded || self.slots[tid].unblock() {
                return true;
            }
            self.commit.router.mailboxes[tid].clear_wait();
            false
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
        // count.
        let live = self.shared.live.load(Ordering::Acquire);
        if live > 0 && self.crashes_armed {
            let prev = self.prev_live.swap(live, Ordering::Relaxed);
            if msgs > 0 || woken_count > 0 || prev != live {
                self.stagnant.store(0, Ordering::Relaxed);
            } else if self.stagnant.fetch_add(1, Ordering::Relaxed) + 1 >= STAGNANT_EPOCH_LIMIT {
                self.stagnant.store(0, Ordering::Relaxed);
                // Yielded (polling) tasks are already in `next`; blocked
                // ones join it.
                poison(&self.slots, next, false);
            }
        }
        // Nothing runnable but tasks remain: deadlock. The poisoned
        // tasks run once more so their waits can return the timeout
        // error.
        if next.is_empty() && live > 0 {
            poison(&self.slots, next, true);
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
            self.publish(next_round);
        }
    }

    /// Install `round` as the next claimable round. The cursor moves last:
    /// claims validate its gen half, so no worker can touch the new round
    /// before the gate state it pairs with is visible.
    fn publish(&self, round: Arc<Vec<usize>>) {
        let units = round.len();
        let mut g = self.gate.lock();
        g.gen += 1;
        let prev = std::mem::replace(&mut g.round, round);
        self.round_done.store(0, Ordering::Relaxed);
        self.cursor
            .store((g.gen & 0xffff_ffff) << 32, Ordering::Release);
        // A one-task round is fully served by the publishing worker itself
        // — waking the pool for it would just thrash the sleeping workers
        // during serial phases of the program. They stay parked until a
        // wider round (or `done`) arrives; the publisher alone keeps the
        // simulation live.
        if units > 1 {
            self.gate_cv.notify_all();
        }
        drop(g);
        // Unique again once every worker has re-read the gate.
        *self.spare.lock() = Some(prev);
    }
}
