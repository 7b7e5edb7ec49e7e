//! One rank as a schedulable task: its slot, its states, and the one
//! protocol by which it waits.
//!
//! **Invariant:** a slot's `body` and `staged` are touched only by the
//! worker that holds the task in `ST_RUNNING` (claimed through the epoch
//! cursor), by the body itself while that worker is inside `proceed`, or
//! by the committing worker after the round barrier, when no task of the
//! round is running. Everything a waker can reach lives in the
//! `Arc<TaskCore>`, so a stray waker never dangles.
//!
//! # How a rank waits
//!
//! A wait that finds no matching message runs, in this order:
//!
//! 1. store `ST_BLOCKING` (announce intent),
//! 2. claim-or-subscribe the task's waker *under the mailbox lock*,
//! 3. store the block intent and **suspend**,
//! 4. on resumption drop the stale subscription and start over.
//!
//! Announcing before subscribing means a wake-up that arrives between
//! steps 2 and 3 finds `ST_BLOCKING`, marks the task `ST_WOKEN_EARLY`, and
//! the worker requeues it instead of parking it. Under the epoch
//! discipline every wake-up fires at commit time, when the whole round has
//! parked, so that path is a backstop, not a code path.
//!
//! "Suspend" is the only step that depends on the kind of body, and it is
//! one question: [`suspend_in_place`]. A fiber answers by switching to its
//! worker and returns `true` when it is resumed, so the leaf loops and the
//! future it sits in never observes `Pending`; that is why
//! [`block_inline`](super::poll::block_inline) may assume one poll. A
//! stackless body answers `false` and the leaf returns `Pending` up the
//! await chain. Off a scheduler task (`Backend::Threads`) none of this
//! runs: the callers block on the mailbox condvar instead.
//!
//! Three leaves run that protocol:
//!
//! | leaf | step 2 subscribes | runs again |
//! |---|---|---|
//! | [`claim`] / [`probe`] | the pattern, in the mailbox's waiter list | when a matching message is deposited |
//! | [`park_until_deposit`] | nothing to match: arms the mailbox's owner-wait slot | when *any* message is deposited into the rank's own mailbox |
//! | [`yield_now_async`] | nothing (yield intent) | next epoch, unconditionally |
//!
//! The second is how the libraries' polling loops wait (`nbcoll` waits,
//! the JQuick driver): a sweep of `try_recv`s that all missed can only
//! turn out differently after a deposit, and deposits happen only at the
//! commit, so the epochs it sleeps through are exactly the ones in which
//! the sweep would have missed again. The third is left for user programs
//! that poll something other than their mailbox.
//!
//! # Poisoning
//!
//! Sends never block, so an epoch that commits with nothing runnable and
//! nothing woken can make no further progress. The epoch layer then
//! *poisons* the blocked tasks: each is woken, and step 4 above returns
//! [`MpiError::Timeout`] naming what it waited for, an exact and
//! immediate replacement for the thread backend's wall-clock timeout.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};

use parking_lot::Mutex;

use super::poll::{block_inline, RankBody, Step};
use super::suspend_in_place;
use crate::error::{MpiError, Result};
use crate::faults::RoundBlame;
use crate::mailbox::{Mailbox, Subscribed, WaitToken, Wake};
use crate::msg::{MatchPattern, Message, MsgInfo};
use crate::proc::WaitReason;
use crate::time::Time;

/// In a round (or about to be placed in one).
const ST_READY: u8 = 0;
/// Executing on some worker right now.
const ST_RUNNING: u8 = 1;
/// Announced intent to block; still switching out on its worker.
const ST_BLOCKING: u8 = 2;
/// Fully parked; only a wake-up can move it.
const ST_BLOCKED: u8 = 3;
/// Woken while still in `Blocking`; the worker re-enqueues instead of parking.
const ST_WOKEN_EARLY: u8 = 4;
/// Body returned; never scheduled again.
const ST_FINISHED: u8 = 5;

const INTENT_NONE: u8 = 0;
const INTENT_YIELD: u8 = 1;
const INTENT_BLOCK: u8 = 2;

/// Task state shared with mailbox wakers.
struct TaskCore {
    rank: usize,
    status: AtomicU8,
    /// Set by the deadlock and stagnation detectors; waits observe it and
    /// return `MpiError::Timeout` instead of parking again.
    poisoned: AtomicBool,
}

/// Scheduler state shared between workers, wakers and rank bodies.
pub(crate) struct SchedShared {
    /// Tasks woken during the current commit; they join the next round,
    /// which is sorted by rank before it is published. Only the
    /// committing worker fires wakers.
    pub(super) woken: Mutex<Vec<usize>>,
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
            woken: Mutex::new(Vec::new()),
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

/// Moves a task out of its blocked state into the next round. Called by
/// mailbox pushes (through [`TaskWaker`]) and by [`poison`], both only
/// ever during an epoch commit.
fn wake_core(core: &TaskCore, shared: &SchedShared) {
    loop {
        let (from, to) = match core.status.load(Ordering::Acquire) {
            ST_BLOCKED => (ST_BLOCKED, ST_READY),
            ST_BLOCKING => (ST_BLOCKING, ST_WOKEN_EARLY),
            // Ready / Running / WokenEarly / Finished: already awake (or
            // past caring); the wait loop re-checks the mailbox anyway.
            _ => return,
        };
        if core
            .status
            .compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            if to == ST_READY {
                shared.woken.lock().push(core.rank);
            }
            return;
        }
    }
}

/// The waker subscribed into mailboxes while a task is parked.
struct TaskWaker {
    core: Arc<TaskCore>,
    shared: Arc<SchedShared>,
}

impl Wake for TaskWaker {
    fn wake(&self) {
        wake_core(&self.core, &self.shared);
    }
}

/// One rank's scheduling state; see the module invariant for who may
/// touch what.
pub(super) struct TaskSlot {
    core: Arc<TaskCore>,
    /// Pre-built waker, cloned into mailbox subscriptions.
    waker: Arc<dyn Wake>,
    /// What the wait leaf asked for when the body last suspended.
    intent: AtomicU8,
    /// Messages sent by this task during the current epoch, in program
    /// order; drained by the commit.
    staged: UnsafeCell<Vec<(usize, Message)>>,
    /// The rank program; dropped on finish, so at 2^20 ranks the tail of a
    /// run does not hold every completed body's captures live.
    body: UnsafeCell<Option<Box<dyn RankBody>>>,
}

// SAFETY: the two `UnsafeCell`s are accessed under the module invariant
// (one worker at a time, ordered by the status state machine and the
// round barrier); every other field is `Sync` on its own.
unsafe impl Sync for TaskSlot {}

impl TaskSlot {
    pub(super) fn new(rank: usize, shared: &Arc<SchedShared>) -> TaskSlot {
        let core = Arc::new(TaskCore {
            rank,
            status: AtomicU8::new(ST_READY),
            poisoned: AtomicBool::new(false),
        });
        TaskSlot {
            waker: Arc::new(TaskWaker {
                core: Arc::clone(&core),
                shared: Arc::clone(shared),
            }),
            core,
            intent: AtomicU8::new(INTENT_NONE),
            staged: UnsafeCell::new(Vec::new()),
            body: UnsafeCell::new(None),
        }
    }

    pub(super) fn install(&mut self, body: Box<dyn RankBody>) {
        *self.body.get_mut() = Some(body);
    }

    /// Whether the last step ended in a yield: such tasks are in the next
    /// round whatever the commit delivers.
    pub(super) fn yielded(&self) -> bool {
        self.intent.load(Ordering::Acquire) == INTENT_YIELD
    }

    /// The messages this task staged during the round.
    ///
    /// # Safety
    /// Only after the round barrier (no task of the round is running) and
    /// only from the one committing worker.
    #[allow(clippy::mut_from_ref)]
    pub(super) unsafe fn staged(&self) -> &mut Vec<(usize, Message)> {
        &mut *self.staged.get()
    }

    /// Run one slice of this task on the calling worker: step the body
    /// until it yields, parks or finishes, then settle its status.
    #[inline]
    pub(super) fn step(&self, shared: &SchedShared) {
        self.core.status.store(ST_RUNNING, Ordering::Release);
        self.intent.store(INTENT_NONE, Ordering::Release);
        shared.switches.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.with(|c| c.replace(self));
        // SAFETY: this worker claimed the task through the cursor CAS and
        // holds it in `ST_RUNNING`; nobody else touches `body`.
        let body = unsafe { &mut *self.body.get() };
        let step = body.as_mut().expect("body installed").proceed();
        CURRENT.with(|c| c.set(prev));
        match step {
            // Re-entry happens at commit (the intent scan), which keeps
            // the next round's order deterministic.
            Step::Yielded => self.core.status.store(ST_READY, Ordering::Release),
            Step::Blocked => {
                if self
                    .core
                    .status
                    .compare_exchange(ST_BLOCKING, ST_BLOCKED, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // WokenEarly: convert to a yield so the commit scan
                    // re-enqueues it.
                    self.core.status.store(ST_READY, Ordering::Release);
                    self.intent.store(INTENT_YIELD, Ordering::Release);
                }
            }
            Step::Finished => {
                self.core.status.store(ST_FINISHED, Ordering::Release);
                *body = None;
                shared.live.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
}

/// Poison every unfinished task (`only_blocked`: every fully parked one)
/// and wake it, so its pending or next wait fails instead of parking.
/// Woken tasks queue on `shared.woken` in rank order; for the other
/// states `wake_core` is a no-op and the task observes the flag on its
/// next mailbox operation.
pub(super) fn poison(slots: &[TaskSlot], shared: &SchedShared, only_blocked: bool) {
    for slot in slots {
        let st = slot.core.status.load(Ordering::Acquire);
        if st == ST_BLOCKED || (!only_blocked && st != ST_FINISHED) {
            slot.core.poisoned.store(true, Ordering::Release);
            wake_core(&slot.core, shared);
        }
    }
}

thread_local! {
    /// The task this worker thread is stepping (null outside `step`).
    static CURRENT: Cell<*const TaskSlot> = const { Cell::new(std::ptr::null()) };
}

pub(super) fn current_slot() -> Option<&'static TaskSlot> {
    // SAFETY: `CURRENT` is non-null only inside `TaskSlot::step`, whose
    // `&self` outlives the body's execution; the 'static never escapes
    // this module's leaves.
    unsafe { CURRENT.with(|c| c.get()).as_ref() }
}

/// Whether the calling code runs inside a scheduler task (as opposed to a
/// plain rank thread of `Backend::Threads`).
pub(crate) fn on_task() -> bool {
    current_slot().is_some()
}

/// Stage an outgoing message with the current task for delivery at the
/// next epoch commit. Hands the message back when the caller is not on a
/// scheduler task (thread backend: deliver immediately).
pub(crate) fn try_stage_send(dest: usize, msg: Message) -> Option<Message> {
    match current_slot() {
        None => Some(msg),
        Some(slot) => {
            // SAFETY: the running task is the only one touching its slot.
            unsafe { (*slot.staged.get()).push((dest, msg)) };
            None
        }
    }
}

/// Whether the current task has been poisoned. Always `false` off a
/// scheduler task (thread-backend polling relies on wall-clock timeouts).
pub(crate) fn current_poisoned() -> bool {
    current_slot().is_some_and(|s| s.core.poisoned.load(Ordering::Acquire))
}

/// What the wait leaf that just suspended the current task asked for.
/// A body that suspended through anything else (a foreign future) has no
/// wake-up source; treating it as a yield would spin forever.
pub(super) fn suspended_step(rank: usize) -> Step {
    let slot = current_slot().expect("a body is stepped on a scheduler task");
    match slot.intent.load(Ordering::Acquire) {
        INTENT_BLOCK => Step::Blocked,
        INTENT_YIELD => Step::Yielded,
        other => {
            eprintln!(
                "mpisim: rank {rank} suspended with invalid intent {other} \
                 (awaited a non-mpisim future?)"
            );
            std::process::abort();
        }
    }
}

fn deadlock_err(rank: usize, reason: WaitReason, vnow: Time) -> MpiError {
    MpiError::Timeout {
        rank,
        waited_for: format!("{reason} [cooperative deadlock: every rank is blocked]"),
        virtual_now: vnow,
        // The scheduler has no fault-state access; `ProcState` fills the
        // blame in on the way out (`enrich_timeout`).
        blame: RoundBlame::default(),
    }
}

/// A wait on the current task's mailbox (steps 1–4 of the module docs);
/// [`claim`] and [`probe`] are its two instantiations.
struct WaitFut<'a, S> {
    mb: &'a Mailbox,
    pat: &'a MatchPattern,
    rank: usize,
    vnow: Time,
    reason: fn(MatchPattern) -> WaitReason,
    subscribe: S,
    token: Option<WaitToken>,
}

impl<T, S> Future for WaitFut<'_, S>
where
    S: Fn(&Mailbox, &MatchPattern, &Arc<dyn Wake>) -> Subscribed<T> + Unpin,
{
    type Output = Result<T>;
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Result<T>> {
        let this = self.get_mut();
        let slot = current_slot().expect("scheduler waits run on a scheduler task");
        loop {
            if let Some(t) = this.token.take() {
                // Normal wake-ups remove the subscription; the poison
                // path does not. Idempotent either way.
                this.mb.unsubscribe(t);
            }
            if slot.core.poisoned.load(Ordering::Acquire) {
                let reason = (this.reason)(this.pat.clone());
                return Poll::Ready(Err(deadlock_err(this.rank, reason, this.vnow)));
            }
            slot.core.status.store(ST_BLOCKING, Ordering::Release);
            match (this.subscribe)(this.mb, this.pat, &slot.waker) {
                Subscribed::Hit(v) => {
                    slot.core.status.store(ST_RUNNING, Ordering::Release);
                    return Poll::Ready(Ok(v));
                }
                Subscribed::Waiting(token) => {
                    this.token = Some(token);
                    slot.intent.store(INTENT_BLOCK, Ordering::Release);
                    if !suspend_in_place(slot) {
                        return Poll::Pending;
                    }
                }
            }
        }
    }
}

/// Blocking claim from a scheduler task.
pub(crate) fn claim<'a>(
    mb: &'a Mailbox,
    pat: &'a MatchPattern,
    rank: usize,
    vnow: Time,
) -> impl Future<Output = Result<Message>> + 'a {
    WaitFut {
        mb,
        pat,
        rank,
        vnow,
        reason: WaitReason::Recv,
        subscribe: Mailbox::claim_or_subscribe,
        token: None,
    }
}

/// Blocking probe from a scheduler task.
pub(crate) fn probe<'a>(
    mb: &'a Mailbox,
    pat: &'a MatchPattern,
    rank: usize,
    vnow: Time,
) -> impl Future<Output = Result<MsgInfo>> + 'a {
    WaitFut {
        mb,
        pat,
        rank,
        vnow,
        reason: WaitReason::Probe,
        subscribe: Mailbox::probe_or_subscribe,
        token: None,
    }
}

/// The future of [`park_until_deposit`]: one suspension with the task's
/// waker in its mailbox's owner-wait slot.
struct DepositFut<'a> {
    mb: &'a Mailbox,
    armed: bool,
}

impl Future for DepositFut<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let Some(slot) = current_slot() else {
            std::thread::yield_now();
            return Poll::Ready(());
        };
        if !self.armed {
            slot.core.status.store(ST_BLOCKING, Ordering::Release);
            self.mb.arm_owner_wait(&slot.waker);
            self.armed = true;
            slot.intent.store(INTENT_BLOCK, Ordering::Release);
            if !suspend_in_place(slot) {
                return Poll::Pending;
            }
        }
        // Stepped again. A deposit emptied the slot when it woke us; the
        // poison path wakes without one, and the caller's next sweep
        // turns the poison into its `MpiError::Timeout`.
        if slot.core.poisoned.load(Ordering::Acquire) {
            self.mb.cancel_owner_wait();
        }
        Poll::Ready(())
    }
}

/// Park the current task until `mb`, its own mailbox, receives any
/// deposit: the wait of a polling loop whose sweep of non-blocking
/// receives all missed. Nothing is deposited between that sweep and the
/// arming (tasks run only between commits), so no wake-up is lost; a
/// deposit between the arming and the suspension would find
/// `ST_BLOCKING` and requeue the task (see the module docs). Off a
/// scheduler task it yields the OS thread, as [`yield_now_async`] does.
pub(crate) fn park_until_deposit(mb: &Mailbox) -> impl Future<Output = ()> + '_ {
    DepositFut { mb, armed: false }
}

/// The future of [`yield_now_async`]: one suspension, no subscription, so
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
        let Some(slot) = current_slot() else {
            std::thread::yield_now();
            return Poll::Ready(());
        };
        slot.intent.store(INTENT_YIELD, Ordering::Release);
        if suspend_in_place(slot) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// Cooperatively yield on every backend: a scheduler task finishes its
/// epoch slice and runs again in the next epoch, after all staged
/// deliveries commit; a plain thread calls `std::thread::yield_now`.
/// For user programs that poll something the scheduler cannot see; a
/// loop that polls its own mailbox costs one task step per epoch this
/// way and should wait through
/// [`ProcState::park_until_deposit`](crate::proc::ProcState::park_until_deposit)
/// instead, as the libraries' loops do.
pub fn yield_now_async() -> impl Future<Output = ()> {
    YieldFut { fired: false }
}

/// [`yield_now_async`] for synchronous rank programs (panics inside a
/// poll-mode rank body, like every synchronous wait; see
/// [`block_inline`]).
pub fn yield_now() {
    block_inline(yield_now_async());
}
