//! One rank as a schedulable task: its slot, its states, where its sends
//! are staged, and the one protocol by which it waits.
//!
//! The slots sit on the [`Router`](crate::proc::Router), one per rank
//! like the mailboxes, and every leaf here takes the [`ProcState`] of the
//! rank that calls it: a rank finds its own slot through its own state,
//! never through an ambient pointer.
//!
//! **Invariant:** a slot is touched only by the worker that holds the
//! task in `ST_RUNNING` (claimed through the epoch cursor), by the body
//! itself while that worker is inside `proceed` (on that worker's thread,
//! or on the rank thread a thread body lends its turn to), or by the
//! committing worker after the round barrier, when no task of the round
//! is running.
//!
//! # Staging
//!
//! A send is staged, not delivered: [`stage_send`] appends it to the
//! **outbox** of the thread it runs on, a thread-local vector. On a
//! worker that is the worker's own outbox; a thread body's rank thread
//! holds its worker's outbox for the length of its turn (the baton
//! carries it, `sched/thread.rs`). A task runs to the end of its step
//! before its worker steps another, so each task's sends of an epoch form
//! one run of one outbox, in send order; that is all the commit needs
//! (`sched/commit.rs`). A send from a rank that is not running (through a
//! communicator kept past its universe) panics.
//!
//! # How a rank waits
//!
//! A wait that finds no matching message runs, in this order:
//!
//! 1. check the mailbox and arm its wait slot, in one step *under the
//!    mailbox lock*,
//! 2. store how the task runs again: `ST_BLOCKED`, when the commit wakes
//!    it; a yield stores nothing, and the step it ends stores `ST_READY`,
//!    next epoch,
//! 3. **suspend**; on resumption a poisoned task clears the slot and
//!    fails, any other starts over.
//!
//! No wake-up can be lost between the steps: a wake-up is a deposit that
//! satisfies the armed wait, deposits happen only at the commit, and the
//! commit runs when every task of the round has suspended. The committing
//! worker is the only waker: the mailbox tells it that a deposit satisfied
//! the wait and it moves the mailbox's rank into the next round. There is
//! one slot because a rank sits in one wait at a time: a later arming
//! replaces an earlier one, so a body must not keep two wait leaves
//! pending at once (a hand-rolled `join` of two receives).
//!
//! "Suspend" is the only step that depends on the kind of body, and it is
//! one question: [`suspend_in_place`]. [`TaskSlot::step`] marks the
//! stepping thread for the length of the step, in one thread-local
//! `Option<bool>` (`Some(true)` once the body yielded), and a leaf asks
//! that mark. Inside a step (a future body) the answer is `false` and the
//! leaf returns `Pending` up the await chain. Outside one, on a thread
//! body's rank thread, the leaf hands the baton back to its worker and
//! gets `true` when it is stepped again, so the leaf loops and the future
//! it sits in never observes `Pending`; that is why
//! [`block_inline`](super::poll::block_inline) may assume one poll. A
//! wait that has to suspend on any other thread panics: every MPI call
//! runs on a scheduler task.
//!
//! Three leaves run that protocol:
//!
//! | leaf | step 1 arms | runs again |
//! |---|---|---|
//! | [`claim`] / [`probe`] | the pattern | when a matching message is deposited |
//! | [`park_until_deposit`] | "any deposit" (nothing to match) | when *any* message is deposited into the rank's own mailbox |
//! | [`yield_now_async`] | nothing (the step stores `ST_READY`) | next epoch, unconditionally |
//!
//! The second is how the libraries' polling loops wait (`nbcoll` waits,
//! the JQuick driver): a sweep of `try_recv`s that all missed can only
//! turn out differently after a deposit, and deposits happen only at the
//! commit, so the epochs it sleeps through are exactly the ones in which
//! the sweep would have missed again. The third is left for user programs
//! that poll a request by hand (`while !req.test()? { yield_now() }`).
//!
//! A task runs until it reaches a leaf, so a loop that polls without ever
//! reaching one (`while !req.test()? {}`) would spin inside its step
//! forever. Nonblocking receives and probes that miss therefore count
//! ([`missed`]), and the [`MISS_LIMIT`]-th miss of one step panics with
//! a message naming the way out.
//!
//! # Try-mode
//!
//! A nonblocking request (`nbcoll`) is an async core that the request
//! polls in place from `test()`. It sets the slot's **try-mode** flag
//! for that poll ([`try_mode`]). A receive or probe then tries once
//! (`ProcState::try_recv_match`, counting a miss as above) and a miss
//! is `Pending`. [`park_until_deposit`] returns `Pending` without
//! arming. Nothing is armed and the task does not suspend: the core
//! stops at its first wait, `test()` returns, and a thread body never
//! blocks inside it.
//!
//! # Poisoning
//!
//! Sends never block, so an epoch that commits with nothing runnable and
//! nothing woken can make no further progress. The epoch layer then
//! *poisons* the blocked tasks: each joins the next round, and step 3
//! above returns [`crate::MpiError::Timeout`] naming what it waited for
//! and blaming the ranks it waited on (`ProcState::stalled`), in the
//! epoch the round empties, with no wall clock involved.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::task::{Context, Poll};

use parking_lot::Mutex;

use super::poll::{block_inline, RankBody, Step};
use super::suspend_in_place;
use crate::error::Result;
use crate::mailbox::Mailbox;
use crate::msg::{MatchPattern, Message, MsgInfo};
use crate::proc::ProcState;

/// In a round, or about to be placed in one: a task that yielded, or that
/// the commit woke.
const ST_READY: u8 = 0;
/// Executing on some worker right now.
const ST_RUNNING: u8 = 1;
/// Suspended with its mailbox's wait slot armed; only the commit (a
/// deposit that satisfies the wait, or poison) can move it.
const ST_BLOCKED: u8 = 2;
/// Body returned; never scheduled again.
const ST_FINISHED: u8 = 3;

/// Nonblocking receives, probes and try-mode leaves that may miss in one
/// task step before the rank panics: a loop that polls without reaching a
/// wait leaf never ends its step. Far above any library sweep, which parks
/// after one round of misses.
const MISS_LIMIT: u32 = 1 << 20;

/// Scheduler state shared between workers and rank bodies.
pub(crate) struct SchedShared {
    /// Unfinished tasks.
    pub(super) live: AtomicUsize,
    /// Task steps performed (deterministic model metric).
    pub(super) switches: AtomicU64,
    /// Epochs committed (deterministic model metric).
    pub(super) epochs: AtomicU64,
    /// Tasks woken by epoch commits (deterministic model metric).
    pub(super) wakeups: AtomicU64,
    /// First recorded panic payload, with the rank it came from.
    pub(super) panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

impl SchedShared {
    pub(super) fn new(p: usize) -> SchedShared {
        SchedShared {
            live: AtomicUsize::new(p),
            switches: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            panic: Mutex::new(None),
        }
    }
}

/// Record a rank body's panic payload; the first one wins and is
/// re-thrown by the universe after the scheduler drains.
pub(crate) fn record_panic(store: &SchedShared, rank: usize, payload: Box<dyn Any + Send>) {
    let mut g = store.panic.lock();
    if g.is_none() {
        *g = Some((rank, payload));
    }
}

/// One rank's scheduling state; see the module invariant for who may
/// touch what. It lives on the [`Router`](crate::proc::Router), next to
/// the rank's mailbox, so a wait leaf finds it through the rank's
/// [`ProcState`]. The rank's body is not here: the scheduler owns it
/// (`sched/epoch.rs`).
pub(crate) struct TaskSlot {
    /// One of the `ST_*` states. A wait leaf stores `ST_BLOCKED` before it
    /// suspends the body; a step that ends in a yield stores `ST_READY`.
    status: AtomicU8,
    /// Set by the deadlock and stagnation detectors; waits observe it and
    /// return `MpiError::Timeout` instead of parking again.
    poisoned: AtomicBool,
    /// Nonblocking receives and probes that missed in the current step
    /// (see [`missed`]); reset when the step begins.
    misses: AtomicU32,
    /// Set while the body polls a nonblocking request ([`try_mode`]).
    try_mode: AtomicBool,
}

impl TaskSlot {
    pub(crate) fn new() -> TaskSlot {
        TaskSlot {
            status: AtomicU8::new(ST_READY),
            poisoned: AtomicBool::new(false),
            misses: AtomicU32::new(0),
            try_mode: AtomicBool::new(false),
        }
    }

    /// Whether the last step ended in a yield: such tasks are in the next
    /// round whatever the commit delivers.
    pub(super) fn yielded(&self) -> bool {
        self.status.load(Ordering::Acquire) == ST_READY
    }

    /// Move a blocked task into the next round; false (and nothing
    /// happens) in every other state. Only the committing worker calls
    /// this, when no task runs.
    pub(super) fn unblock(&self) -> bool {
        self.status
            .compare_exchange(ST_BLOCKED, ST_READY, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Run one slice of this task (of `rank`, whose program is `body`)
    /// on the calling worker: step the body until it yields, parks or
    /// finishes. A body that suspended through anything but a wait leaf
    /// (a foreign future) has no wake-up source; treating it as a yield
    /// would spin forever.
    #[inline]
    pub(super) fn step(
        &self,
        rank: usize,
        body: &mut Option<Box<dyn RankBody + '_>>,
        shared: &SchedShared,
    ) {
        self.status.store(ST_RUNNING, Ordering::Release);
        self.misses.store(0, Ordering::Relaxed);
        let outer = STEP.with(|s| s.replace(Some(false)));
        let step = body.as_mut().expect("body installed").proceed();
        let yielded = STEP.with(|s| s.replace(outer)) == Some(true);
        if step == Step::Finished {
            self.status.store(ST_FINISHED, Ordering::Release);
            // Dropped on finish, so at 2^20 ranks the tail of a run does
            // not hold every completed body's captures live.
            *body = None;
            shared.live.fetch_sub(1, Ordering::AcqRel);
        } else if self.status.load(Ordering::Acquire) == ST_RUNNING {
            // No wait leaf blocked the task: it yielded, or it awaited
            // something that is not a leaf.
            if !yielded {
                eprintln!(
                    "mpisim: rank {rank} suspended outside a wait leaf \
                     (awaited a non-mpisim future?)"
                );
                std::process::abort();
            }
            self.status.store(ST_READY, Ordering::Release);
        }
    }
}

/// Poison every unfinished task (`only_blocked`: every blocked one) so
/// its pending or next wait fails instead of parking. Blocked tasks join
/// `next`, in rank order; the others observe the flag on their next
/// mailbox operation.
pub(super) fn poison(slots: &[TaskSlot], next: &mut Vec<usize>, only_blocked: bool) {
    for (rank, slot) in slots.iter().enumerate() {
        let st = slot.status.load(Ordering::Acquire);
        if st == ST_BLOCKED || (!only_blocked && st != ST_FINISHED) {
            slot.poisoned.store(true, Ordering::Release);
            if slot.unblock() {
                next.push(rank);
            }
        }
    }
}

/// Staged sends, each with its destination rank, in the order they were
/// staged (see the module docs).
pub(super) type Outbox = Vec<(usize, Message)>;

thread_local! {
    /// `Some` while this thread is inside [`TaskSlot::step`], and then
    /// whether the body it steps has yielded; `None` on every other
    /// thread, a thread body's rank thread included.
    pub(super) static STEP: Cell<Option<bool>> = const { Cell::new(None) };
    /// The outbox the sends of this thread's current task go to.
    pub(super) static OUTBOX: RefCell<Outbox> = const { RefCell::new(Vec::new()) };
}

/// Install `outbox` as the calling thread's outbox and return the one it
/// replaces.
pub(super) fn swap_outbox(outbox: Outbox) -> Outbox {
    OUTBOX.with(|o| o.replace(outbox))
}

/// The task slot of `state`'s rank.
#[inline]
fn slot_of(state: &ProcState) -> &TaskSlot {
    &state.router.slots[state.global_rank]
}

/// Stage an outgoing message of `state`'s rank, which must be running,
/// for delivery at the next epoch commit.
#[inline]
pub(crate) fn stage_send(state: &ProcState, dest: usize, msg: Message) {
    assert!(
        slot_of(state).status.load(Ordering::Relaxed) == ST_RUNNING,
        "MPI calls run on a scheduler task"
    );
    OUTBOX.with(|o| o.borrow_mut().push((dest, msg)));
}

/// A nonblocking receive or probe of `state`'s rank missed: count it and
/// say whether the task has been poisoned.
///
/// # Panics
///
/// On the [`MISS_LIMIT`]-th miss of one task step.
pub(crate) fn missed(state: &ProcState) -> bool {
    let slot = slot_of(state);
    let misses = slot.misses.load(Ordering::Relaxed) + 1;
    slot.misses.store(misses, Ordering::Relaxed);
    if misses == MISS_LIMIT {
        panic!(
            "rank {}: {MISS_LIMIT} nonblocking receives or probes missed without \
             the rank ever waiting; a polling loop must call `mpisim::yield_now()` \
             between polls (or `wait` on the request), or it never gives up its turn",
            state.global_rank
        );
    }
    slot.poisoned.load(Ordering::Acquire)
}

/// Run `poll` with `state`'s task in try-mode (see the module docs).
#[inline]
pub(crate) fn try_mode<R>(state: &ProcState, poll: impl FnOnce() -> R) -> R {
    let slot = slot_of(state);
    let outer = slot.try_mode.load(Ordering::Relaxed);
    slot.try_mode.store(true, Ordering::Relaxed);
    let out = poll();
    slot.try_mode.store(outer, Ordering::Relaxed);
    out
}

/// Whether `state`'s task is inside [`try_mode`].
#[inline]
pub(crate) fn in_try_mode(state: &ProcState) -> bool {
    slot_of(state).try_mode.load(Ordering::Relaxed)
}

/// One poll of a wait for `pat` on the mailbox of `state`'s rank (steps
/// 1–3 of the module docs); [`claim`] and [`probe`] are its two
/// instantiations. It keeps nothing between polls, so the future that
/// polls it holds only its pattern.
fn poll_wait<T>(
    state: &ProcState,
    pat: &MatchPattern,
    verb: &str,
    check_or_arm: fn(&Mailbox, &MatchPattern) -> Option<T>,
) -> Poll<Result<T>> {
    let (slot, mb) = (slot_of(state), &state.router.mailboxes[state.global_rank]);
    loop {
        if slot.poisoned.load(Ordering::Acquire) {
            // The poison path wakes without a deposit: the slot may still
            // hold this wait.
            mb.clear_wait();
            let why = "cooperative deadlock: every rank is blocked";
            return Poll::Ready(Err(state.stalled(verb, pat, why)));
        }
        if let Some(v) = check_or_arm(mb, pat) {
            return Poll::Ready(Ok(v));
        }
        slot.status.store(ST_BLOCKED, Ordering::Release);
        if !suspend_in_place(false) {
            return Poll::Pending;
        }
    }
}

/// One poll of a blocking claim of `state`'s rank.
pub(crate) fn claim(state: &ProcState, pat: &MatchPattern) -> Poll<Result<Message>> {
    poll_wait(state, pat, "recv", Mailbox::claim_or_wait)
}

/// One poll of a blocking probe of `state`'s rank.
pub(crate) fn probe(state: &ProcState, pat: &MatchPattern) -> Poll<Result<MsgInfo>> {
    poll_wait(state, pat, "probe", Mailbox::probe_or_wait)
}

/// The future of [`park_until_deposit`]: one suspension with the mailbox's
/// wait slot armed for any deposit.
struct DepositFut<'a> {
    state: &'a ProcState,
    armed: bool,
}

impl Future for DepositFut<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let state = self.state;
        let (slot, mb) = (slot_of(state), &state.router.mailboxes[state.global_rank]);
        if !self.armed {
            self.armed = true;
            if slot.try_mode.load(Ordering::Relaxed) {
                // The sweep before this park counted its misses already.
                return Poll::Pending;
            }
            mb.wait_any();
            slot.status.store(ST_BLOCKED, Ordering::Release);
            if !suspend_in_place(false) {
                return Poll::Pending;
            }
        }
        // Stepped again. A deposit emptied the slot when it woke us; the
        // poison path wakes without one, and the caller's next sweep
        // turns the poison into its `MpiError::Timeout`.
        if slot.poisoned.load(Ordering::Acquire) {
            mb.clear_wait();
        }
        Poll::Ready(())
    }
}

/// Park `state`'s task until its own mailbox receives any deposit: the
/// wait of a polling loop whose sweep of non-blocking receives all
/// missed. Nothing is deposited between that sweep and the suspension
/// (tasks run only between commits), so no wake-up is lost.
pub(crate) fn park_until_deposit(state: &ProcState) -> impl Future<Output = ()> + '_ {
    DepositFut {
        state,
        armed: false,
    }
}

/// The future of [`yield_now_async`]: one suspension, nothing armed, so
/// the task runs again next epoch whatever the commit delivers.
struct YieldFut {
    fired: bool,
}

impl Future for YieldFut {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.fired {
            return Poll::Ready(());
        }
        self.fired = true;
        if suspend_in_place(true) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// Yield the rank's turn: the task finishes its epoch slice and runs
/// again in the next epoch, after all staged deliveries commit. What a
/// hand-written polling loop calls between two polls (the "do something
/// else" of the paper's Fig. 1); without it the loop never ends its task
/// step. A loop that polls its own mailbox costs one task step per epoch
/// this way; the libraries' own loops wait through
/// [`ProcState::park_until_deposit`](crate::proc::ProcState::park_until_deposit)
/// instead.
pub fn yield_now_async() -> impl Future<Output = ()> {
    YieldFut { fired: false }
}

/// [`yield_now_async`] for synchronous rank programs (panics inside a
/// future body, like every synchronous wait; see [`block_inline`]).
pub fn yield_now() {
    block_inline(yield_now_async());
}
