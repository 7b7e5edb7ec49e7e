//! Nonblocking collective operations: the blocking collectives' async
//! cores, polled one round at a time.
//!
//! Following Hoefler & Lumsdaine's round-based scheme (paper §III, \[3\]),
//! each operation is a machine whose states "begin with local work ... and
//! end with pending send/receive operations if these operations introduce
//! a data dependency" (§V-D). The `*_async` cores of [`crate::coll`] are
//! exactly such machines: their awaits are the round boundaries. So a
//! nonblocking collective here is its core, boxed, inside one generic
//! driver ([`Nbc`]): invoking the operation executes the first state and
//! returns a request, and each `test`/`poll` resumes the core until its
//! next receive that would have to wait. The driver is public, so a
//! caller's own multi-round operation (JQuick's recursion level) is an
//! async core on it too, awaiting these cores directly. Sends are buffered and never
//! block, so only receives create data dependencies.
//!
//! A poll runs the core in the scheduler's **try-mode**: a receive that
//! misses counts the miss, as a nonblocking receive does, and suspends
//! the core without arming the mailbox or suspending the rank. A thread
//! body therefore never blocks inside `test()`, and `Ok(false)` keeps its
//! meaning: *blocked until my mailbox changes*.
//!
//! The one place where the nonblocking and the blocking collectives
//! differ is the child-receive step of the reduce and gather trees
//! (`coll::Children`): a poll takes whichever children have arrived,
//! where a blocking receive takes them in tree order, so the two give
//! different virtual times.
//!
//! All operations are generic over [`Transport`] and take an explicit tag,
//! so several can be in flight simultaneously on overlapping
//! communicators — the property Janus Quicksort relies on. A
//! communicator starts them through [`Transport`]'s provided methods of
//! the same names ([`Transport::ibcast`], …), which run these functions
//! over its [`Transport::coll_view`] of the operation's class, on the
//! caller's tag or the reserved default; the functions here take any
//! transport as it is, priced by its own
//! [`Transport::cost_scale`].
//!
//! The waits ([`wait`], [`waitall`], [`sweep_until_done`]) are the paper's
//! `rbc::Wait`: they test, and between two unproductive tests the rank
//! parks until its mailbox changes. A wait nobody will ever satisfy ends
//! in the scheduler's structural deadlock detector, with a
//! [`crate::faults::RoundBlame`]. A request that names no rank
//! ([`Progress::proc_state`] is `None`) cannot be parked on, and a wait
//! on it fails with [`MpiError::Usage`].

use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::coll::{self, Children};
use crate::datum::Datum;
use crate::error::{MpiError, Result};
use crate::msg::Tag;
use crate::obs::{self, OpClass};
use crate::proc::ProcState;
use crate::sched::poll::block_inline;
use crate::transport::{RecvReq, Transport};

/// Anything that can be driven to completion by repeated polling.
/// `poll` returning `Ok(true)` means *locally complete* (outgoing messages
/// may still be buffered — same semantics as the paper's `rbc::Test`).
pub trait Progress: Send {
    /// Drive the operation one step; `Ok(true)` once locally complete.
    ///
    /// **Contract.** `Ok(false)` means: *blocked until my mailbox
    /// changes*. The operation ran until a nonblocking receive missed,
    /// and polling it again before a message is deposited into its rank's
    /// mailbox would miss again and change nothing (a miss moves no clock,
    /// draws no random number and sends nothing). The waits below rely on
    /// it: they do not poll the operation again until a deposit arrives.
    fn poll(&mut self) -> Result<bool>;

    /// The per-rank simulator state behind this operation: the rank whose
    /// mailbox [`Progress::poll`]'s contract is about. Lets
    /// [`Request::wait`]/[`waitall`] sleep until that mailbox changes and
    /// attribute a stall to the ranks it is waiting on (a
    /// [`crate::faults::RoundBlame`]). An operation that answers `None`
    /// cannot be waited on: the waits fail with [`MpiError::Usage`].
    fn proc_state(&self) -> Option<&Arc<ProcState>>;
}

impl<T: Datum, C: Transport> Progress for RecvReq<T, C> {
    fn poll(&mut self) -> Result<bool> {
        self.test()
    }

    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        Some(self.transport().state())
    }
}

/// A type-erased request handle (the paper's `rbc::Request` smart pointer).
pub struct Request(Box<dyn Progress>);

impl Request {
    /// Erase a concrete nonblocking operation into a request handle.
    pub fn new(p: impl Progress + 'static) -> Request {
        Request(Box::new(p))
    }

    /// `rbc::Test`.
    pub fn test(&mut self) -> Result<bool> {
        self.0.poll()
    }

    /// `rbc::Wait`: "takes a request and repeatedly calls rbc::Test until
    /// the operation is completed" (§V-B).
    pub fn wait(&mut self) -> Result<()> {
        wait(&mut *self.0)
    }

    /// [`Request::wait`] as a maybe-async core (see [`wait_async`]).
    pub async fn wait_async(&mut self) -> Result<()> {
        wait_async(&mut *self.0).await
    }
}

/// The rank an unfinished operation's waiter parks on.
fn park_on(p: &dyn Progress) -> Result<&Arc<ProcState>> {
    p.proc_state().ok_or_else(|| {
        MpiError::Usage("cannot wait on a nonblocking operation that names no rank".into())
    })
}

/// Poll `p` until it is locally complete: the loop behind
/// [`Request::wait`], every operation's `wait_*` method and `rbc::wait`.
/// A stall ends in [`MpiError::Timeout`] carrying the
/// [`crate::faults::RoundBlame`] of `p`'s rank.
pub fn wait(p: &mut dyn Progress) -> Result<()> {
    block_inline(wait_async(p))
}

/// [`wait`] as a maybe-async core, so it also runs inside a poll-mode
/// rank body. Between unproductive polls the rank sleeps until its
/// mailbox changes ([`Progress::poll`]'s contract), and a wait nobody
/// will ever satisfy is ended by the deadlock detector (the poisoned
/// receive inside `p.poll()` returns the error).
pub async fn wait_async(p: &mut dyn Progress) -> Result<()> {
    while !p.poll()? {
        park_on(p)?.park_until_deposit().await;
    }
    Ok(())
}

/// The polling wait of a rank that sweeps several operations of its own
/// (the JQuick driver's levels and base cases): run `sweep` until it
/// reports all done, parking between sweeps until the rank's mailbox
/// changes. Every operation swept must keep [`Progress::poll`]'s contract
/// (`Ok(false)` only after a receive missed).
pub async fn sweep_until_done(
    state: &Arc<ProcState>,
    mut sweep: impl FnMut() -> Result<bool>,
) -> Result<()> {
    while !sweep()? {
        state.park_until_deposit().await;
    }
    Ok(())
}

/// `rbc::Testall`: polls every request, true iff all are complete.
pub fn testall(reqs: &mut [Request]) -> Result<bool> {
    let mut all = true;
    for r in reqs.iter_mut() {
        all &= r.test()?;
    }
    Ok(all)
}

/// `rbc::Waitall`: repeatedly calls `testall` until all complete.
pub fn waitall(reqs: &mut [Request]) -> Result<()> {
    block_inline(waitall_async(reqs))
}

/// [`waitall`] as a maybe-async core (see [`wait_async`]). All requests
/// of one wait belong to the calling rank, so it parks on the first
/// unfinished one's.
pub async fn waitall_async(reqs: &mut [Request]) -> Result<()> {
    loop {
        let mut first = None;
        for (i, r) in reqs.iter_mut().enumerate() {
            if !r.test()? {
                park_on(&*r.0)?;
                first.get_or_insert(i);
            }
        }
        let Some(i) = first else {
            return Ok(());
        };
        park_on(&*reqs[i].0)?.park_until_deposit().await;
    }
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// A boxed async core of a nonblocking operation.
type Core<O> = Pin<Box<dyn Future<Output = Result<O>> + Send>>;

/// A nonblocking operation in flight: its async core and the one driver
/// every typed request below, [`crate::icomm::IcommCreate`] and a caller's
/// own cores (JQuick's levels and base cases) are polled through.
pub struct Nbc<O> {
    /// `None` once the core returned.
    core: Option<Core<O>>,
    /// What the core returned; `None` before, and after a failure.
    out: Option<O>,
    state: Arc<ProcState>,
    /// The class the core's sends were attributed to when it last
    /// suspended: a span it holds open across polls ([`obs::span`]) is
    /// back in force when it resumes.
    class: OpClass,
}

impl<O: Send> Nbc<O> {
    /// Box `core` and execute its first state (paper §V-D). `state` is the
    /// rank `core` runs on. `core` may wait only in the maybe-async
    /// receives, or in [`ProcState::park_until_deposit`] after a sweep of
    /// `try_recv`s that all missed: then a poll that returns `Ok(false)`
    /// keeps [`Progress::poll`]'s contract.
    pub fn start(
        state: Arc<ProcState>,
        core: impl Future<Output = Result<O>> + Send + 'static,
    ) -> Result<Nbc<O>> {
        let mut nb = Nbc {
            core: Some(Box::pin(core)),
            out: None,
            state,
            class: OpClass::P2p,
        };
        nb.poll()?;
        Ok(nb)
    }

    /// An operation that completed without a core (no communication).
    pub(crate) fn ready(state: &Arc<ProcState>, out: O) -> Nbc<O> {
        Nbc {
            core: None,
            out: Some(out),
            state: Arc::clone(state),
            class: OpClass::P2p,
        }
    }

    /// Resume the core in try-mode until it completes or its next receive
    /// misses; [`Progress::poll`].
    pub(crate) fn poll(&mut self) -> Result<bool> {
        let Some(core) = self.core.as_mut() else {
            return match self.out {
                Some(_) => Ok(true),
                None => Err(MpiError::Usage(
                    "polled a failed nonblocking operation".into(),
                )),
            };
        };
        let class = obs::class_guard(&self.state, self.class);
        let mut cx = Context::from_waker(Waker::noop());
        let polled = crate::sched::try_mode(&self.state, || core.as_mut().poll(&mut cx));
        self.class = self.state.cur_class();
        drop(class);
        match polled {
            Poll::Pending => Ok(false),
            Poll::Ready(out) => {
                self.core = None;
                self.out = Some(out?);
                Ok(true)
            }
        }
    }

    /// The core's output once complete.
    pub(crate) fn out(&self) -> Option<&O> {
        self.out.as_ref()
    }

    /// [`Nbc::out`] for the owner that takes it.
    pub(crate) fn out_mut(&mut self) -> Option<&mut O> {
        self.out.as_mut()
    }

    /// Consume the operation, returning the core's output if complete.
    pub fn into_out(self) -> Option<O> {
        self.out
    }

    /// Block until complete and return the output.
    fn wait_out(mut self) -> Result<O> {
        wait(&mut self)?;
        Ok(self.out.expect("completed"))
    }
}

impl<O: Send> Progress for Nbc<O> {
    fn poll(&mut self) -> Result<bool> {
        Nbc::poll(self)
    }

    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        Some(&self.state)
    }
}

/// `Progress` for a typed request: its field `0` is its [`Nbc`].
macro_rules! driven_by_nbc {
    ($([$($g:tt)*] $ty:ty;)*) => {$(
        impl<$($g)*> Progress for $ty {
            fn poll(&mut self) -> Result<bool> {
                self.0.poll()
            }

            fn proc_state(&self) -> Option<&Arc<ProcState>> {
                Some(&self.0.state)
            }
        }
    )*};
}

driven_by_nbc! {
    [T: Datum, C: Transport] Ibcast<T, C>;
    [T: Datum, C: Transport, F] Ireduce<T, C, F>;
    [T: Datum, C: Transport, F] Iallreduce<T, C, F>;
    [T: Datum, C: Transport, F] Iscan<T, C, F>;
    [T: Datum, C: Transport] Igatherv<T, C>;
    [T: Datum, C: Transport] Igather<T, C>;
    [C: Transport] Ibarrier<C>;
}

/// A rank's own copy of the transport, for a core that must own it.
fn own<C: Transport>(tr: &C) -> (Arc<ProcState>, C) {
    (Arc::clone(tr.state()), tr.clone())
}

// ---------------------------------------------------------------------------
// The operations
// ---------------------------------------------------------------------------

/// Nonblocking binomial broadcast. The payload is held and forwarded as a
/// shared `Arc` buffer (zero-copy fan-out, like [`crate::coll::bcast`]);
/// it is materialised into a `Vec` only when the caller takes ownership.
pub struct Ibcast<T, C>(Nbc<Arc<Vec<T>>>, PhantomData<fn() -> C>);

/// Start a nonblocking broadcast. On the root, `data` must be `Some`; on
/// other ranks pass `None` (the result is available through
/// [`Ibcast::data`] after completion).
pub fn ibcast<T: Datum, C: Transport>(
    tr: &C,
    data: Option<Vec<T>>,
    root: usize,
    tag: Tag,
) -> Result<Ibcast<T, C>> {
    tr.check_rank(root)?;
    if tr.rank() == root && data.is_none() {
        return Err(MpiError::Usage("ibcast root must supply data".into()));
    }
    let (state, tr) = own(tr);
    let data = data.map(Arc::new);
    let core = async move { coll::bcast_shared_async(&tr, data, root, tag).await };
    Ok(Ibcast(Nbc::start(state, core)?, PhantomData))
}

impl<T: Datum, C: Transport> Ibcast<T, C> {
    /// Broadcast payload; `None` until complete.
    pub fn data(&self) -> Option<&[T]> {
        self.0.out().map(|a| a.as_slice())
    }

    /// Consume the request, returning the payload if complete (at most one
    /// copy — none when this rank holds the last reference).
    pub fn into_data(self) -> Option<Vec<T>> {
        self.0.into_out().map(Arc::unwrap_or_clone)
    }

    /// Whether the broadcast is locally complete.
    pub fn is_done(&self) -> bool {
        self.0.out().is_some()
    }

    /// Block until complete and return the payload.
    pub fn wait_data(self) -> Result<Vec<T>> {
        self.0.wait_out().map(Arc::unwrap_or_clone)
    }
}

/// Nonblocking binomial reduction to `root`. `op` must be associative and
/// commutative (child contributions are folded in arrival order).
pub struct Ireduce<T, C, F>(Nbc<Option<Vec<T>>>, PhantomData<fn() -> (C, F)>);

/// Start a nonblocking reduce of `data` to `root` (`MPI_Ireduce`).
pub fn ireduce<T, C, F>(
    tr: &C,
    data: &[T],
    root: usize,
    tag: Tag,
    op: F,
) -> Result<Ireduce<T, C, F>>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send + 'static,
{
    let (state, tr) = own(tr);
    let acc = data.to_vec();
    let core =
        async move { coll::reduce_tree(&tr, acc, root, tag, op, Children::AsTheyArrive).await };
    Ok(Ireduce(Nbc::start(state, core)?, PhantomData))
}

impl<T: Datum, C, F> Ireduce<T, C, F> {
    /// Reduction result; `Some` only on the root after completion.
    pub fn result(&self) -> Option<&[T]> {
        self.0.out()?.as_deref()
    }

    /// Block until complete; the reduction lands `Some` only on the root.
    pub fn wait_result(self) -> Result<Option<Vec<T>>> {
        self.0.wait_out()
    }
}

/// Nonblocking all-reduce: reduce to rank 0, then broadcast, both phases
/// in one request. Uses tags `tag` and `tag + 1`.
pub struct Iallreduce<T, C, F>(Nbc<Arc<Vec<T>>>, PhantomData<fn() -> (C, F)>);

/// Start a nonblocking allreduce (`MPI_Iallreduce`): reduce to rank 0 on
/// `tag`, then broadcast on `tag + 1`.
pub fn iallreduce<T, C, F>(tr: &C, data: &[T], tag: Tag, op: F) -> Result<Iallreduce<T, C, F>>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send + 'static,
{
    let (state, tr) = own(tr);
    let acc = data.to_vec();
    let core = async move {
        let sum = coll::reduce_tree(&tr, acc, 0, tag, op, Children::AsTheyArrive).await?;
        coll::bcast_shared_async(&tr, sum.map(Arc::new), 0, tag + 1).await
    };
    Ok(Iallreduce(Nbc::start(state, core)?, PhantomData))
}

impl<T: Datum, C, F> Iallreduce<T, C, F> {
    /// The allreduce result; `None` until complete.
    pub fn result(&self) -> Option<&[T]> {
        self.0.out().map(|a| a.as_slice())
    }

    /// Block until complete and return the result.
    pub fn wait_result(self) -> Result<Vec<T>> {
        self.0.wait_out().map(Arc::unwrap_or_clone)
    }
}

/// Nonblocking prefix (Hillis–Steele rounds), inclusive and exclusive at
/// once.
pub struct Iscan<T, C, F>(Nbc<(Vec<T>, Option<Vec<T>>)>, PhantomData<fn() -> (C, F)>);

/// Start a nonblocking inclusive+exclusive prefix fold (`MPI_Iscan`).
pub fn iscan<T, C, F>(tr: &C, data: &[T], tag: Tag, op: F) -> Result<Iscan<T, C, F>>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send + 'static,
{
    let (state, tr) = own(tr);
    let incl = data.to_vec();
    let core = async move { coll::prefixes(&tr, incl, tag, op, true, "scan").await };
    Ok(Iscan(Nbc::start(state, core)?, PhantomData))
}

impl<T: Datum, C, F> Iscan<T, C, F> {
    /// Inclusive prefix over ranks `0..=rank`; `None` until complete.
    pub fn inclusive(&self) -> Option<&[T]> {
        self.0.out().map(|(incl, _)| incl.as_slice())
    }

    /// Exclusive prefix over ranks `0..rank`; `None` until complete or on
    /// rank 0 (which has no predecessors).
    pub fn exclusive(&self) -> Option<&[T]> {
        self.0.out()?.1.as_deref()
    }

    /// Block until complete, returning `(inclusive, exclusive)` prefixes.
    pub fn wait_scan(self) -> Result<(Vec<T>, Option<Vec<T>>)> {
        self.0.wait_out()
    }
}

/// Nonblocking binomial gather with variable contribution sizes. Uses tags
/// `tag` (metadata) and `tag + 1` (payload).
pub struct Igatherv<T, C>(Nbc<Option<Vec<Vec<T>>>>, PhantomData<fn() -> C>);

/// Start a nonblocking variable-count gather to `root` (`MPI_Igatherv`),
/// using `tag` for metadata and `tag + 1` for payload.
pub fn igatherv<T: Datum, C: Transport>(
    tr: &C,
    data: Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<Igatherv<T, C>> {
    let (state, tr) = own(tr);
    let core = async move { coll::gatherv_as_they_arrive_async(&tr, data, root, tag).await };
    Ok(Igatherv(Nbc::start(state, core)?, PhantomData))
}

impl<T: Datum, C> Igatherv<T, C> {
    /// Per-source-rank contributions; `Some` only on the root when done.
    pub fn result(&self) -> Option<Vec<Vec<T>>> {
        self.0.out()?.clone()
    }

    /// Block until complete; per-rank blocks land `Some` only on the root.
    pub fn wait_result(self) -> Result<Option<Vec<Vec<T>>>> {
        self.0.wait_out()
    }
}

/// Nonblocking equal-count gather: flattens the gatherv result in rank
/// order.
pub struct Igather<T, C>(Nbc<Option<Vec<Vec<T>>>>, PhantomData<fn() -> C>);

/// Start a nonblocking equal-count gather to `root` (`MPI_Igather`).
pub fn igather<T: Datum, C: Transport>(
    tr: &C,
    data: Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<Igather<T, C>> {
    Ok(Igather(igatherv(tr, data, root, tag)?.0, PhantomData))
}

impl<T: Datum, C> Igather<T, C> {
    /// Concatenated contributions in rank order; `Some` only on the root
    /// when done.
    pub fn result(&self) -> Option<Vec<T>> {
        Some(self.0.out()?.as_ref()?.concat())
    }

    /// Block until complete and return the concatenated data at the root.
    pub fn wait_result(self) -> Result<Option<Vec<T>>> {
        Ok(self.0.wait_out()?.map(|per_rank| per_rank.concat()))
    }
}

/// Nonblocking dissemination barrier.
pub struct Ibarrier<C>(Nbc<()>, PhantomData<fn() -> C>);

/// Start a nonblocking dissemination barrier (`MPI_Ibarrier`).
pub fn ibarrier<C: Transport>(tr: &C, tag: Tag) -> Result<Ibarrier<C>> {
    let (state, tr) = own(tr);
    let core = async move { coll::barrier_async(&tr, tag).await };
    Ok(Ibarrier(Nbc::start(state, core)?, PhantomData))
}

impl<C> Ibarrier<C> {
    /// Whether every round of the dissemination pattern has completed.
    pub fn is_done(&self) -> bool {
        self.0.out().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultState};
    use crate::time::Time;
    use crate::transport::Src;
    use crate::{ops, yield_now_async, ProcEnv, SimConfig, Universe};

    // -- The reference: the hand-written machines the driver replaced ----

    fn to_rel(rank: usize, root: usize, p: usize) -> usize {
        (rank + p - root) % p
    }

    fn from_rel(rel: usize, root: usize, p: usize) -> usize {
        (rel + root) % p
    }

    /// Children of `rel`, largest subtree first.
    fn children(rel: usize, p: usize) -> Vec<usize> {
        let lsb = if rel == 0 {
            p.next_power_of_two()
        } else {
            rel & rel.wrapping_neg()
        };
        let mut out = Vec::new();
        let mut m = lsb >> 1;
        while m > 0 {
            if rel + m < p {
                out.push(rel + m);
            }
            m >>= 1;
        }
        out
    }

    /// A gather's `(origin rank, count)` records.
    type Meta = Vec<(u64, u64)>;

    /// Each poll sweeps the children still pending in list order, takes
    /// every one whose contribution is there (`swap_remove`), and sends to
    /// the parent once none is left: the receive order the nonblocking
    /// trees must keep.
    struct RefIgatherv<C> {
        tr: C,
        root: usize,
        tag: Tag,
        meta: Meta,
        payload: Vec<u64>,
        pending: Vec<(usize, Option<Meta>)>,
        done: bool,
    }

    fn ref_igatherv<C: Transport>(tr: &C, data: Vec<u64>, root: usize, tag: Tag) -> RefIgatherv<C> {
        let (p, r) = (tr.size(), tr.rank());
        let pending = children(to_rel(r, root, p), p)
            .into_iter()
            .map(|c| (from_rel(c, root, p), None))
            .collect();
        let mut sm = RefIgatherv {
            tr: tr.clone(),
            root,
            tag,
            meta: vec![(r as u64, data.len() as u64)],
            payload: data,
            pending,
            done: false,
        };
        sm.poll().unwrap();
        sm
    }

    impl<C: Transport> RefIgatherv<C> {
        fn result(&self) -> Option<Vec<Vec<u64>>> {
            if self.tr.rank() != self.root {
                return None;
            }
            let mut out = vec![Vec::new(); self.tr.size()];
            let mut off = 0;
            for &(origin, cnt) in &self.meta {
                out[origin as usize] = self.payload[off..off + cnt as usize].to_vec();
                off += cnt as usize;
            }
            Some(out)
        }
    }

    impl<C: Transport> Progress for RefIgatherv<C> {
        fn proc_state(&self) -> Option<&Arc<ProcState>> {
            Some(self.tr.state())
        }

        fn poll(&mut self) -> Result<bool> {
            if self.done {
                return Ok(true);
            }
            let _class = obs::class_guard(self.tr.state(), OpClass::Gather);
            let mut i = 0;
            while i < self.pending.len() {
                let (child, meta) = &mut self.pending[i];
                let child = *child;
                if meta.is_none() {
                    match self.tr.try_recv::<(u64, u64)>(Src::Rank(child), self.tag)? {
                        None => {
                            i += 1;
                            continue;
                        }
                        Some((m, _)) => *meta = Some(m),
                    }
                }
                match self.tr.try_recv::<u64>(Src::Rank(child), self.tag + 1)? {
                    None => i += 1,
                    Some((d, _)) => {
                        let m = self.pending[i].1.take().expect("metadata first");
                        self.meta.extend_from_slice(&m);
                        self.payload.extend_from_slice(&d);
                        self.pending.swap_remove(i);
                    }
                }
            }
            if !self.pending.is_empty() {
                return Ok(false);
            }
            let (p, r) = (self.tr.size(), self.tr.rank());
            let rel = to_rel(r, self.root, p);
            if rel != 0 {
                let parent = from_rel(rel & (rel - 1), self.root, p);
                self.tr.send(&self.meta, parent, self.tag)?;
                self.tr.send(&self.payload, parent, self.tag + 1)?;
            }
            self.done = true;
            Ok(true)
        }
    }

    /// The reduce with [`RefIgatherv`]'s receive order.
    struct RefIreduce<C> {
        tr: C,
        root: usize,
        tag: Tag,
        acc: Vec<u64>,
        pending: Vec<usize>,
        done: bool,
    }

    fn ref_ireduce<C: Transport>(tr: &C, data: &[u64], root: usize, tag: Tag) -> RefIreduce<C> {
        let p = tr.size();
        let pending = children(to_rel(tr.rank(), root, p), p)
            .into_iter()
            .map(|c| from_rel(c, root, p))
            .collect();
        let mut sm = RefIreduce {
            tr: tr.clone(),
            root,
            tag,
            acc: data.to_vec(),
            pending,
            done: false,
        };
        sm.poll().unwrap();
        sm
    }

    impl<C: Transport> Progress for RefIreduce<C> {
        fn proc_state(&self) -> Option<&Arc<ProcState>> {
            Some(self.tr.state())
        }

        fn poll(&mut self) -> Result<bool> {
            if self.done {
                return Ok(true);
            }
            let _class = obs::class_guard(self.tr.state(), OpClass::Reduce);
            let mut i = 0;
            while i < self.pending.len() {
                match self
                    .tr
                    .try_recv::<u64>(Src::Rank(self.pending[i]), self.tag)?
                {
                    None => i += 1,
                    Some((v, _)) => {
                        for (a, b) in self.acc.iter_mut().zip(&v) {
                            *a += *b;
                        }
                        self.tr.charge_compute(self.acc.len());
                        self.pending.swap_remove(i);
                    }
                }
            }
            if !self.pending.is_empty() {
                return Ok(false);
            }
            let (p, r) = (self.tr.size(), self.tr.rank());
            let rel = to_rel(r, self.root, p);
            if rel != 0 {
                let parent = from_rel(rel & (rel - 1), self.root, p);
                self.tr.send(&self.acc, parent, self.tag)?;
            }
            self.done = true;
            Ok(true)
        }
    }

    // -- The receive-order rule --------------------------------------------

    /// What one rank saw: a gather to the last rank and a reduce to rank
    /// 0, each with the rank's clock once it completed.
    type Seen = (Option<Vec<Vec<u64>>>, Time, Option<Vec<u64>>, Time);

    /// Rank `r` starts `r % 3` epochs late, so children arrive both one
    /// by one and several at once.
    async fn gather_then_reduce(env: ProcEnv, reference: bool) -> Seen {
        let w = &env.world;
        let (p, r) = (w.size(), w.rank());
        for _ in 0..r % 3 {
            yield_now_async().await;
        }
        let mine: Vec<u64> = (0..r % 4).map(|i| (r * 10 + i) as u64).collect();
        let gathered = if reference {
            let mut sm = ref_igatherv(w, mine, p - 1, 40);
            wait_async(&mut sm).await.unwrap();
            sm.result()
        } else {
            let mut req = igatherv(w, mine, p - 1, 40).unwrap();
            wait_async(&mut req).await.unwrap();
            req.result()
        };
        let t_gather = env.now();
        let contribution = [r as u64, 1];
        let reduced = if reference {
            let mut sm = ref_ireduce(w, &contribution, 0, 42);
            wait_async(&mut sm).await.unwrap();
            (r == 0).then_some(sm.acc)
        } else {
            let mut req = ireduce(w, &contribution, 0, 42, ops::sum::<u64>()).unwrap();
            wait_async(&mut req).await.unwrap();
            req.result().map(<[u64]>::to_vec)
        };
        (gathered, t_gather, reduced, env.now())
    }

    // `igatherv` and `ireduce` take their children as they arrive, exactly
    // as the hand-written machines did: same results and, what the
    // blocking order would change, the same clock on every rank.
    #[test]
    fn nonblocking_trees_keep_the_arrival_order_of_the_machines() {
        for p in [1, 2, 3, 5, 8, 13, 64] {
            for seed in 1..=4 {
                for workers in [1, 4] {
                    let cfg = || {
                        let plan = FaultPlan::default()
                            .with_perturb_seed(seed)
                            .with_jitter(Time::from_micros(20));
                        SimConfig::default().with_workers(workers).with_faults(plan)
                    };
                    let want = Universe::run_poll(p, cfg(), |env| gather_then_reduce(env, true));
                    let got = Universe::run_poll(p, cfg(), |env| gather_then_reduce(env, false));
                    assert_eq!(
                        got.per_rank, want.per_rank,
                        "p {p}, seed {seed}, {workers} workers"
                    );
                    let total: u64 = (0..p as u64).sum();
                    assert_eq!(got.per_rank[0].2, Some(vec![total, p as u64]));
                }
            }
        }
    }

    // The rule by name. Rank 4, the root's largest subtree, is a straggler,
    // and the root starts late, so all three of its children (1, 2, 4) are
    // waiting when it does. The blocking reduce takes them smallest subtree
    // first and pays one receive overhead after the straggler; the
    // nonblocking one takes the straggler first and pays two more.
    #[test]
    fn a_straggler_child_separates_the_blocking_and_nonblocking_orders() {
        let slowed = |seed: u64| {
            let plan = FaultPlan::default()
                .with_perturb_seed(seed)
                .with_slowdown(0.2, 4.0);
            let f = FaultState::resolve(&plan, 8);
            ((0..8).all(|r| (f.factor(r) > 1.0) == (r == 4))).then_some(plan)
        };
        let plan = (0..)
            .find_map(slowed)
            .expect("some seed slows rank 4 alone");
        let root_clock = |blocking: bool| {
            let cfg = SimConfig::default().with_faults(plan.clone());
            let res = Universe::run_poll(8, cfg, move |env| async move {
                let w = &env.world;
                if w.rank() == 0 {
                    for _ in 0..4 {
                        yield_now_async().await;
                    }
                }
                let sum = if blocking {
                    coll::reduce_async(w, &[1u64], 0, 44, ops::sum::<u64>()).await
                } else {
                    let mut req = ireduce(w, &[1u64], 0, 44, ops::sum::<u64>()).unwrap();
                    wait_async(&mut req)
                        .await
                        .map(|()| req.result().map(<[u64]>::to_vec))
                };
                (sum.unwrap(), env.now())
            });
            assert_eq!(res.per_rank[0].0, Some(vec![8]));
            res.per_rank[0].1
        };
        let (blocking, nonblocking) = (root_clock(true), root_clock(false));
        assert_eq!(
            (blocking.as_nanos(), nonblocking.as_nanos()),
            (51_179, 52_181)
        );
        // Two more receive overheads (500 ns) and one-element folds (1 ns).
        assert_eq!(nonblocking.as_nanos() - blocking.as_nanos(), 2 * 501);
    }

    /// Bytes of the future `nb` boxed: a request's heap beside its `Nbc`.
    fn boxed<O>(nb: &Nbc<O>) -> usize {
        size_of_val(&**nb.core.as_ref().expect("still in flight"))
    }

    // Heap per request, counted without a timer. Rank 1 starts each
    // request while rank 0 stays silent, so every core is still in flight.
    #[test]
    fn the_boxed_cores_stay_within_their_byte_budgets() {
        Universe::run(2, SimConfig::default(), |env| {
            let w = &env.world;
            if w.rank() == 0 {
                return;
            }
            let (v, sum) = ([1.0f64], ops::sum::<f64>);
            let bcast = ibcast::<f64, _>(w, None, 0, 1).unwrap();
            let reduce = ireduce(w, &v, 1, 3, sum()).unwrap();
            let allreduce = iallreduce(w, &v, 5, sum()).unwrap();
            let scan = iscan(w, &v, 7, sum()).unwrap();
            let gatherv = igatherv(w, v.to_vec(), 1, 9).unwrap();
            let barrier = ibarrier(w, 11).unwrap();
            let sizes = [
                ("ibcast", boxed(&bcast.0), 184),
                ("ireduce", boxed(&reduce.0), 256),
                ("iallreduce", boxed(&allreduce.0), 248),
                ("iscan", boxed(&scan.0), 256),
                ("igatherv", boxed(&gatherv.0), 344),
                ("ibarrier", boxed(&barrier.0), 144),
            ];
            for (name, bytes, budget) in sizes {
                assert!(bytes <= budget, "{name}: {bytes} B, budget {budget} B");
            }
        });
    }
}
