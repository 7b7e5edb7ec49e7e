//! Rank bodies: what the scheduler steps, and how a future is stepped.
//!
//! The scheduler knows one kind of task: a `RankBody`, stepped once per
//! claimed unit with `RankBody::proceed` until it reports
//! `Step::Finished`. Both are crate-private: two implementations exist,
//! one per entry point, and nothing outside `mpisim` adds one.
//! `FutureBody` wraps an `async` rank program
//! ([`crate::Universe::run_poll`]): the compiler's async transform keeps
//! exactly the live locals of the current await point, so a rank costs a
//! few hundred bytes and a 2^20-rank universe fits. `ThreadBody`
//! (`sched/thread.rs`) wraps a synchronous closure on a parked OS thread
//! of its own ([`crate::Universe::run`]).
//!
//! **Invariant:** a body returns `Step::Suspended` only after one of
//! the scheduler's wait leaves (`sched/task.rs`) stored how the task runs
//! again; a `Pending` from anything else has no wake-up source and aborts
//! the process.
//!
//! # One implementation per workload
//!
//! Every blocking core of the library (`coll`, the `nbcoll` waits,
//! `Comm::split`, `create_group`, RBC, the JQuick driver) is written once
//! as an `async fn` over those wait leaves. A future body suspends by
//! returning `Pending` through the await chain; on a thread body the leaf
//! resolves in place (the rank thread hands its baton back inside it), so
//! [`block_inline`] completes the whole future in a single poll. The
//! synchronous public API is `block_inline(<the async core>)` all the way
//! down.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use super::task::{record_panic, SchedShared};

/// What a step of a [`RankBody`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Suspended in a wait leaf, which recorded whether the task runs
    /// again next epoch (a yield) or when the commit wakes it.
    Suspended,
    /// The body is done and will never be stepped again.
    Finished,
}

/// One simulated rank as the scheduler sees it: one claimed unit of an
/// epoch round = one `proceed`.
pub(crate) trait RankBody: Send {
    /// Run until the body yields, parks, or finishes.
    fn proceed(&mut self) -> Step;
}

/// Drive a workload future to completion in one poll.
///
/// On a thread body every wait leaf resolves in place (see the module
/// docs), so the first poll returns `Ready`; this is how the synchronous
/// public API (`Transport::recv`, `Transport::bcast`, `jquick_sort`, …) runs
/// the shared async cores.
///
/// # Panics
///
/// Panics if the future suspends, which happens exactly when a
/// synchronous call has to wait *inside* a future body: an async rank
/// program must use the `*_async` API end to end.
pub fn block_inline<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!(
            "synchronous MPI call had to wait inside an async rank body: \
             under Universe::run_poll every blocking operation must go \
             through the *_async API (a synchronous rank program enters \
             through Universe::run)"
        ),
    }
}

/// The future body, the stackless [`RankBody`]: a pinned rank future
/// polled once per step.
/// `Ready` finishes the task, `Pending` comes from a wait leaf; a panic in
/// the rank program is recorded first-wins and finishes the task.
pub(crate) struct FutureBody<'a> {
    fut: Pin<Box<dyn Future<Output = ()> + Send + 'a>>,
    rank: usize,
    store: Arc<SchedShared>,
}

impl<'a> FutureBody<'a> {
    pub(crate) fn new(
        fut: impl Future<Output = ()> + Send + 'a,
        rank: usize,
        store: Arc<SchedShared>,
    ) -> FutureBody<'a> {
        FutureBody {
            fut: Box::pin(fut),
            rank,
            store,
        }
    }
}

impl RankBody for FutureBody<'_> {
    fn proceed(&mut self) -> Step {
        // The scheduler's wake path is the mailbox's wait slot, never
        // `Waker::wake`: a parked body is rescheduled by the epoch commit.
        let mut cx = Context::from_waker(Waker::noop());
        let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.fut.as_mut().poll(&mut cx)
        }));
        match polled {
            Ok(Poll::Ready(())) => Step::Finished,
            Ok(Poll::Pending) => Step::Suspended,
            Err(payload) => {
                record_panic(&self.store, self.rank, payload);
                Step::Finished
            }
        }
    }
}
