//! The thread body: a synchronous closure on its own OS thread, stepped
//! by the scheduler like any other [`RankBody`].
//!
//! A synchronous rank program waits in the middle of its call stack, so
//! it needs a stack of its own, and an OS thread is one. The rank thread
//! and the worker that steps it pass a **baton** (one `Mutex<Turn>`, one
//! `Condvar`): [`RankBody::proceed`] hands it to the parked rank thread
//! and blocks until it comes back; [`suspend_in_place`], reached from a
//! wait leaf on the rank thread, hands it back and blocks until the next
//! `proceed`. A step is two futex hand-offs, tens of microseconds where a
//! future body pays tens of nanoseconds (DESIGN.md §4), so thread bodies
//! serve synchronous programs to about 2^12 ranks and everything larger
//! enters through [`crate::Universe::run_poll`].
//!
//! **Invariant:** the rank thread runs only while a worker is blocked in
//! `proceed` inside `TaskSlot::step` for its task. It is therefore "the
//! body itself" of the `sched/task.rs` invariant, and its leaves reach the
//! task's slot through the rank's `ProcState` as a future body's do. It is
//! inside no step itself: that is how [`suspend_in_place`] tells it from a
//! worker. The baton carries the worker's outbox both ways: the rank
//! thread installs it for its turn, stages into it, and hands it back, so
//! its sends land in the worker's outbox as a future body's would. The
//! mutex hand-off orders what the two sides wrote.

use std::cell::RefCell;
use std::sync::Arc;
use std::thread::{Builder, Scope};

use parking_lot::{Condvar, Mutex};

use super::poll::{RankBody, Step};
use super::task::{record_panic, swap_outbox, Outbox, SchedShared, STEP};

/// Who holds the baton, and with it the stepping worker's outbox.
enum Turn {
    /// The scheduler: the rank thread is parked (or not yet started), or
    /// it blocked in a wait leaf.
    Worker(Outbox),
    /// The scheduler, after the rank thread yielded.
    Yielded(Outbox),
    /// The rank thread, while a worker is inside `step` of its task. The
    /// outbox is taken out while the rank thread runs.
    Rank(Outbox),
    /// Nobody any more: the closure returned or panicked, or the body was
    /// dropped before its first step.
    Finished(Outbox),
}

struct Baton {
    turn: Mutex<Turn>,
    moved: Condvar,
}

impl Baton {
    fn hand(&self, turn: Turn) {
        *self.turn.lock() = turn;
        self.moved.notify_one();
    }

    /// Rank side: park until a worker hands the baton over, then install
    /// its outbox. False when the body was dropped instead.
    fn await_turn(&self) -> bool {
        let mut turn = self.turn.lock();
        loop {
            match &mut *turn {
                Turn::Rank(outbox) => {
                    swap_outbox(std::mem::take(outbox));
                    return true;
                }
                Turn::Finished(_) => return false,
                Turn::Worker(_) | Turn::Yielded(_) => self.moved.wait(&mut turn),
            }
        }
    }
}

thread_local! {
    /// This rank thread's baton (`None` on every other thread).
    static MY_BATON: RefCell<Option<Arc<Baton>>> = const { RefCell::new(None) };
}

/// The synchronous [`RankBody`]: `proceed` lends the calling worker's
/// turn to the rank's own thread.
pub(crate) struct ThreadBody {
    baton: Arc<Baton>,
}

impl ThreadBody {
    /// Spawn the parked thread of `rank` (of `p`) in `scope`; it runs
    /// `body` from the first `proceed` on. A panic in `body` is recorded
    /// in `store` first-wins and finishes the task.
    ///
    /// # Panics
    ///
    /// When the OS refuses another thread.
    pub(crate) fn spawn<'scope>(
        scope: &'scope Scope<'scope, '_>,
        stack_size: usize,
        (rank, p): (usize, usize),
        store: Arc<SchedShared>,
        body: impl FnOnce() + Send + 'scope,
    ) -> ThreadBody {
        let baton = Arc::new(Baton {
            turn: Mutex::new(Turn::Worker(Outbox::new())),
            moved: Condvar::new(),
        });
        let mine = Arc::clone(&baton);
        let spawned = Builder::new()
            .name(format!("rank{rank}"))
            .stack_size(stack_size)
            .spawn_scoped(scope, move || {
                if !mine.await_turn() {
                    return;
                }
                MY_BATON.with(|b| *b.borrow_mut() = Some(Arc::clone(&mine)));
                if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
                    record_panic(&store, rank, payload);
                }
                mine.hand(Turn::Finished(swap_outbox(Outbox::new())));
            });
        if let Err(e) = spawned {
            panic!(
                "cannot spawn the thread of rank {rank} in a universe of p = {p}: {e}; \
                 synchronous bodies take one OS thread per rank; use \
                 `Universe::run_poll` for universes this large"
            );
        }
        ThreadBody { baton }
    }
}

impl RankBody for ThreadBody {
    fn proceed(&mut self) -> Step {
        let mut turn = self.baton.turn.lock();
        *turn = Turn::Rank(swap_outbox(Outbox::new()));
        self.baton.moved.notify_one();
        loop {
            self.baton.moved.wait(&mut turn);
            let (outbox, step) = match &mut *turn {
                Turn::Rank(_) => continue,
                Turn::Worker(outbox) => (outbox, Step::Suspended),
                Turn::Yielded(outbox) => {
                    STEP.with(|s| s.set(Some(true)));
                    (outbox, Step::Suspended)
                }
                Turn::Finished(outbox) => (outbox, Step::Finished),
            };
            swap_outbox(std::mem::take(outbox));
            return step;
        }
    }
}

impl Drop for ThreadBody {
    /// Release a rank thread that was never stepped (a later rank's spawn
    /// failed), so the scope can join it. A body that ran has finished:
    /// the scheduler drops bodies only then.
    fn drop(&mut self) {
        self.baton.hand(Turn::Finished(Outbox::new()));
    }
}

/// The scheduler's suspension seam, reached from a wait leaf that stored
/// how its task runs again (`yielded`: it stored nothing). Inside a
/// `TaskSlot::step` (a future body, also one of a universe nested in a
/// rank thread) mark a yield on the step and return `false`: the leaf
/// returns `Pending`. On a rank thread hand the baton back and return
/// `true` once the task is stepped again; anywhere else, panic.
#[inline]
pub(super) fn suspend_in_place(yielded: bool) -> bool {
    let in_step = STEP.with(|s| s.replace(s.get().map(|y| y || yielded)));
    in_step.is_none() && hand_back(yielded)
}

/// [`suspend_in_place`] on a rank thread; out of line, so that a future
/// body's leaves carry one call to it.
#[inline(never)]
fn hand_back(yielded: bool) -> bool {
    let baton = MY_BATON.with(|b| b.borrow().clone());
    let baton = baton.expect("MPI calls run on a scheduler task");
    let outbox = swap_outbox(Outbox::new());
    baton.hand(if yielded {
        Turn::Yielded(outbox)
    } else {
        Turn::Worker(outbox)
    });
    let stepped = baton.await_turn();
    assert!(stepped, "a body that started is stepped until it finishes");
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_body_dropped_before_its_first_step_lets_the_scope_end() {
        let ran = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let store = Arc::new(SchedShared::new(1));
            let body = ThreadBody::spawn(scope, 64 << 10, (0, 1), store, || {
                ran.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            drop(body);
        });
        assert!(!ran.into_inner(), "an unstepped body never runs");
    }
}
