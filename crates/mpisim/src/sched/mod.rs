//! The epoch scheduler: N simulated ranks multiplexed over a small worker
//! pool, **deterministically for any worker count**. It is the only
//! runtime of [`crate::universe::Universe`].
//!
//! Every rank is a task that *suspends* at a blocking point and is stepped
//! again by the scheduler, and the commit wakes exactly the ranks whose
//! matching message arrived (a rank in a polling loop: whose mailbox
//! received anything at all). A rank therefore runs only between its own
//! MPI calls: the weak-progress model the paper's RBC assumes. What each
//! mailbox holds at every commit, and with it every simulation output, is
//! bit-for-bit identical for any `coop_workers` and either kind of rank
//! body.
//!
//! Each layer states its own invariant once, in its module docs:
//!
//! | module | owns | invariant in one line |
//! |---|---|---|
//! | `epoch` | gate, claim cursor, publish (rounds in rank order, the next built in the displaced one), worker loop and outbox hand-in, deadlock and stagnation detection | one generation-tagged phase at a time; the worker whose count completes it advances it |
//! | `commit` | outbox push on the committing worker, the woken ranks, the handed-in and spare outboxes | each sender's messages reach each mailbox in send order; nothing else is ordered |
//! | `task` | slot, states, staging into the thread's outbox, poisoning, the spin limit, **how a rank waits**: the three wait leaves (`claim` / `probe` on a pattern, `park_until_deposit` on any deposit, `yield_now_async`), and try-mode, in which a receive tries once and the park returns `Pending` unarmed | one worker touches a task at a time; check and arm, store the state, suspend |
//! | [`poll`] | [`RankBody`](poll::RankBody), [`Step`](poll::Step), the future body (an `async` program, [`crate::Universe::run_poll`]), [`block_inline`](poll::block_inline) | a body suspends only through the wait leaves |
//! | `thread` | the thread body (a synchronous closure on a parked OS thread, [`crate::Universe::run`]), the baton and the outbox it carries, `suspend_in_place` | the rank thread runs only while a worker is blocked in its `proceed` |
//!
//! DESIGN.md §4 argues the wait protocol and the two bodies, §5 why
//! committing deliveries at epoch boundaries preserves MPI matching
//! semantics, §7 and §10 the commit, §12 what is specific to future
//! bodies.

mod commit;
mod epoch;
pub mod poll;
mod task;
pub(crate) mod thread;

pub(crate) use epoch::Scheduler;
pub(crate) use task::{
    claim, in_try_mode, missed, park_until_deposit, probe, stage_send, try_mode, SchedShared,
};
pub use task::{yield_now, yield_now_async};

use thread::suspend_in_place;
