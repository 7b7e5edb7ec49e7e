//! The epoch scheduler: N simulated ranks multiplexed over a small worker
//! pool, **deterministically for any worker count**.
//!
//! The thread backend of [`crate::universe::Universe`] spawns one OS
//! thread per rank, which tops out around a few hundred ranks, far short
//! of the paper's 2^15-process evaluations. Here every rank is a task that
//! *suspends* at a blocking point instead of parking an OS thread, and the
//! commit wakes exactly the ranks whose matching message arrived
//! (a rank in a polling loop: whose mailbox received anything at all).
//! Merged delivery order, and with it every simulation output, is
//! bit-for-bit identical for any `coop_workers`, either commit algorithm
//! and either kind of rank body.
//!
//! Each layer states its own invariant once, in its module docs:
//!
//! | module | owns | invariant in one line |
//! |---|---|---|
//! | `epoch` | gate, claim cursor, publish (rounds in rank order), worker loop, deadlock and stagnation detection | one generation-tagged phase at a time; the last completed unit advances it |
//! | `commit` | commit key, the one ordering, shard push, the woken ranks, scratch pools | every mailbox sees ascending key order; the set of ranks woken is worker-invariant |
//! | `task` | slot, states, staging, poisoning, **how a rank waits**: the three wait leaves (`claim` / `probe` on a pattern, `park_until_deposit` on any deposit, `yield_now_async`) | one worker touches a task at a time; check and arm, store the state, suspend |
//! | [`poll`] | [`RankBody`](poll::RankBody), [`Step`](poll::Step), the stackless body, [`block_inline`](poll::block_inline) | a body suspends only through the wait leaves |
//! | `fiber` | context switch, stack slab, the stackful body (unix x86-64 / AArch64 only) | one worker on a stack at a time; the slab outlives its fibers |
//!
//! DESIGN.md §4 argues the wait protocol, §5 why committing deliveries at
//! epoch boundaries preserves MPI matching semantics, §7 and §10 the
//! commit, §12 what is specific to stackless bodies.

mod commit;
mod epoch;
#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
pub(crate) mod fiber;
pub mod poll;
mod task;

pub(crate) use epoch::Scheduler;
pub(crate) use task::{
    claim, current_poisoned, on_task, park_until_deposit, probe, stage_send, SchedShared,
};
pub use task::{yield_now, yield_now_async};

#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
use fiber::suspend_in_place;

/// Without a fiber implementation no body can suspend inside `proceed`.
#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn suspend_in_place(_slot: &task::TaskSlot) -> bool {
    false
}
