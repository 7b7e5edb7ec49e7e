//! Nonblocking collective operations as explicit state machines.
//!
//! Following Hoefler & Lumsdaine's round-based scheme (paper §III, \[3\]):
//! each operation is a little machine whose states "begin with local work
//! ... and end with pending send/receive operations if these operations
//! introduce a data dependency" (§V-D). Invoking the operation executes the
//! first state and returns a request; each `test`/`poll` checks outstanding
//! receives and, when satisfied, executes the next state. Sends are
//! buffered and never block, so only receives create data dependencies.
//!
//! All machines are generic over [`Transport`] and take an explicit tag, so
//! several operations can be in flight simultaneously on overlapping
//! communicators — the property Janus Quicksort relies on.
//!
//! The waits ([`wait`], [`waitall`], [`sweep_until_done`]) are the paper's
//! `rbc::Wait`: they test, and between two unproductive tests the rank
//! parks until its mailbox changes. A wait nobody will ever satisfy ends
//! in the scheduler's structural deadlock detector, with a
//! [`crate::faults::RoundBlame`]. The one exception is a wait on a
//! *foreign* machine ([`Progress::proc_state`] is `None`), which the
//! scheduler cannot tell blocked from busy: it is polled once per epoch
//! and bounded by the wall clock ([`WAIT_TIMEOUT`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::datum::Datum;
use crate::error::{MpiError, Result};
use crate::msg::Tag;
use crate::obs::{self, OpClass};
use crate::proc::ProcState;
use crate::sched::poll::block_inline;
use crate::transport::{RecvReq, Src, Transport};

/// How long a wait polls a foreign machine (see the module docs) before
/// it fails: the only wall clock on a wait path.
pub const WAIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Anything that can be driven to completion by repeated polling.
/// `poll` returning `Ok(true)` means *locally complete* (outgoing messages
/// may still be buffered — same semantics as the paper's `rbc::Test`).
pub trait Progress: Send {
    /// Drive the operation one step; `Ok(true)` once locally complete.
    ///
    /// **Contract.** `Ok(false)` from a machine that names its rank
    /// ([`Progress::proc_state`] is `Some`) means: *blocked until my
    /// mailbox changes*. The machine ran until a non-blocking receive
    /// missed, and polling it again before a message is deposited into
    /// its rank's mailbox would miss again and change nothing (a miss
    /// moves no clock, draws no random number and sends nothing). The
    /// waits below rely on it: they do not poll such a machine again
    /// until a deposit arrives. A machine that can make progress without
    /// one (it watches a flag, a timer, another thread) must return
    /// `None` from `proc_state`.
    fn poll(&mut self) -> Result<bool>;

    /// The per-rank simulator state behind this operation, when one is
    /// reachable. Lets [`Request::wait`]/[`waitall`] sleep until the
    /// rank's mailbox changes (see [`Progress::poll`]) and attribute a
    /// stall to the ranks it is waiting on (a
    /// [`crate::faults::RoundBlame`]). The default `None` keeps foreign
    /// `Progress` implementations working: they are polled once per epoch
    /// under [`WAIT_TIMEOUT`].
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        None
    }
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
    /// Erase a concrete state machine into a request handle.
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

/// Build the timeout error for a stalled wait. With a [`ProcState`] in
/// hand the error names the stalled rank, its virtual clock, and the
/// ranks it is waiting on; without one it falls back to anonymous.
fn wait_timeout_err(state: Option<&Arc<ProcState>>, waited_for: &str) -> MpiError {
    match state {
        Some(s) => MpiError::Timeout {
            rank: s.global_rank,
            waited_for: waited_for.into(),
            virtual_now: s.now(),
            blame: s.stall_blame(),
        },
        None => MpiError::Timeout {
            rank: usize::MAX,
            waited_for: waited_for.into(),
            virtual_now: crate::time::Time::ZERO,
            blame: crate::faults::RoundBlame::default(),
        },
    }
}

/// What a wait does between two unproductive sweeps. If every unfinished
/// machine of the sweep named its rank (`park_on`): sleep until that
/// rank's mailbox changes ([`Progress::poll`]'s contract). Otherwise run
/// again next epoch, and fail once [`WAIT_TIMEOUT`] has passed since the
/// first such idle of the wait (`deadline`); the error names `rank`.
async fn idle(
    park_on: Option<&Arc<ProcState>>,
    rank: Option<&Arc<ProcState>>,
    deadline: &mut Option<Instant>,
    waited_for: &str,
) -> Result<()> {
    if let Some(s) = park_on {
        s.park_until_deposit().await;
        return Ok(());
    }
    let deadline = *deadline.get_or_insert_with(|| Instant::now() + WAIT_TIMEOUT);
    if Instant::now() > deadline {
        return Err(wait_timeout_err(rank, waited_for));
    }
    crate::sched::yield_now_async().await;
    Ok(())
}

/// Poll `p` until it is locally complete: the loop behind
/// [`Request::wait`], every machine's `wait_*` method and `rbc::wait`. A
/// stall ends in [`MpiError::Timeout`] carrying the
/// [`crate::faults::RoundBlame`] of `p`'s rank.
pub fn wait(p: &mut dyn Progress) -> Result<()> {
    block_inline(wait_async(p))
}

/// [`wait`] as a maybe-async core, so it also runs inside a poll-mode
/// rank body. Between unproductive polls a machine that names its rank
/// sleeps until that rank's mailbox changes ([`Progress::poll`]'s
/// contract), and a wait nobody will ever satisfy is ended by the
/// deadlock detector (the poisoned receive inside `p.poll()` returns the
/// error). A foreign machine is polled once per epoch under
/// [`WAIT_TIMEOUT`].
pub async fn wait_async(p: &mut dyn Progress) -> Result<()> {
    let mut deadline = None;
    while !p.poll()? {
        let state = p.proc_state();
        idle(state, state, &mut deadline, "nonblocking operation (wait)").await?;
    }
    Ok(())
}

/// The polling wait of a rank that sweeps several machines of its own
/// (the JQuick driver's levels and base cases): run `sweep` until it
/// reports all done, parking between sweeps until the rank's mailbox
/// changes. Every machine swept must keep [`Progress::poll`]'s contract
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

/// [`waitall`] as a maybe-async core (see [`wait_async`]).
pub async fn waitall_async(reqs: &mut [Request]) -> Result<()> {
    let mut deadline = None;
    loop {
        // `testall`, also noting whether an unfinished request is foreign
        // (completed ones may have dropped their transport, so the
        // question is asked of the unfinished only).
        let (mut all, mut foreign) = (true, false);
        for r in reqs.iter_mut() {
            if !r.test()? {
                all = false;
                foreign |= r.0.proc_state().is_none();
            }
        }
        if all {
            return Ok(());
        }
        // All requests of one wait belong to the calling rank.
        let state = reqs.iter().find_map(|r| r.0.proc_state());
        let park_on = state.filter(|_| !foreign);
        idle(
            park_on,
            state,
            &mut deadline,
            "nonblocking operations (waitall)",
        )
        .await?;
    }
}

// ---------------------------------------------------------------------------
// Binomial-tree shape helpers (shared by the machines below).
// ---------------------------------------------------------------------------

/// Parent of `rel` (rank relative to the root, not the root itself) in
/// the binomial tree used by bcast/reduce/gather: `rel` with its lowest
/// set bit cleared.
fn binom_parent(rel: usize) -> usize {
    debug_assert!(rel != 0, "the root has no parent");
    rel & (rel - 1)
}

/// Children of `rel` in the binomial tree over `p` nodes, in descending
/// subtree size, matching the blocking implementations.
fn binom_children(rel: usize, p: usize) -> Vec<usize> {
    debug_assert!(rel < p);
    let lsb = if rel == 0 {
        p.next_power_of_two()
    } else {
        rel & rel.wrapping_neg()
    };
    let mut children = Vec::new();
    let mut m = lsb >> 1;
    while m > 0 {
        if rel + m < p {
            children.push(rel + m);
        }
        m >>= 1;
    }
    children
}

fn from_rel(rel: usize, root: usize, p: usize) -> usize {
    (rel + root) % p
}

fn to_rel(rank: usize, root: usize, p: usize) -> usize {
    (rank + p - root) % p
}

// ---------------------------------------------------------------------------
// Ibcast
// ---------------------------------------------------------------------------

/// Nonblocking binomial broadcast. The payload is held and forwarded as a
/// shared `Arc` buffer (zero-copy fan-out, like [`crate::coll::bcast`]);
/// it is materialised into a `Vec` only when the caller takes ownership.
pub struct Ibcast<T: Datum, C: Transport> {
    tr: C,
    root: usize,
    tag: Tag,
    data: Option<Arc<Vec<T>>>,
    done: bool,
}

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
    let mut sm = Ibcast {
        tr: tr.clone(),
        root,
        tag,
        data: data.map(Arc::new),
        done: false,
    };
    sm.poll()?; // execute the first state immediately (paper §V-D)
    Ok(sm)
}

impl<T: Datum, C: Transport> Ibcast<T, C> {
    /// Send the payload on to this rank's children.
    fn forward(tr: &C, root: usize, tag: Tag, data: &Arc<Vec<T>>) -> Result<()> {
        let p = tr.size();
        let rel = to_rel(tr.rank(), root, p);
        for c in binom_children(rel, p) {
            tr.send_shared(data, from_rel(c, root, p), tag)?;
        }
        Ok(())
    }

    /// Broadcast payload; `None` until complete on non-root ranks.
    pub fn data(&self) -> Option<&[T]> {
        if !self.done {
            return None;
        }
        self.data.as_ref().map(|a| a.as_slice())
    }

    /// Consume the request, returning the payload if complete (at most one
    /// copy — none when this rank holds the last reference).
    pub fn into_data(self) -> Option<Vec<T>> {
        self.done
            .then_some(self.data)
            .flatten()
            .map(Arc::unwrap_or_clone)
    }

    /// Whether the broadcast is locally complete.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Block until complete and return the payload.
    pub fn wait_data(mut self) -> Result<Vec<T>> {
        wait(&mut self)?;
        Ok(self.into_data().expect("completed"))
    }
}

impl<T: Datum, C: Transport> Progress for Ibcast<T, C> {
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        Some(self.tr.state())
    }

    fn poll(&mut self) -> Result<bool> {
        if self.done {
            return Ok(true);
        }
        // Attribution only — the machines are polled many times per
        // logical operation, so per-poll trace spans would drown the
        // trace; sends priced inside a poll still count under the class.
        let _class = obs::class_guard(self.tr.state(), OpClass::Bcast);
        let p = self.tr.size();
        let rel = to_rel(self.tr.rank(), self.root, p);
        if rel != 0 {
            // Interior/leaf rank: wait for the parent's message.
            let parent = from_rel(binom_parent(rel), self.root, p);
            match self.tr.try_recv_shared::<T>(Src::Rank(parent), self.tag)? {
                None => return Ok(false),
                Some((v, _)) => self.data = Some(v),
            }
        }
        let data = self.data.as_ref().expect("the root supplied the data");
        Self::forward(&self.tr, self.root, self.tag, data)?;
        self.done = true;
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// Ireduce / Iallreduce
// ---------------------------------------------------------------------------

/// Nonblocking binomial reduction to `root`. `op` must be associative and
/// commutative (child contributions are folded in arrival order).
pub struct Ireduce<T: Datum, C: Transport, F> {
    tr: C,
    root: usize,
    tag: Tag,
    op: F,
    acc: Vec<T>,
    pending_children: Vec<usize>, // comm ranks still to hear from
    done: bool,
    is_root: bool,
}

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
    F: Fn(&T, &T) -> T + Send,
{
    tr.check_rank(root)?;
    let p = tr.size();
    let rel = to_rel(tr.rank(), root, p);
    let children = binom_children(rel, p);
    let mut sm = Ireduce {
        tr: tr.clone(),
        root,
        tag,
        op,
        acc: data.to_vec(),
        pending_children: children.into_iter().map(|c| from_rel(c, root, p)).collect(),
        done: false,
        is_root: tr.rank() == root,
    };
    sm.poll()?;
    Ok(sm)
}

impl<T, C, F> Ireduce<T, C, F>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    /// Reduction result; `Some` only on the root after completion.
    pub fn result(&self) -> Option<&[T]> {
        (self.done && self.is_root).then_some(self.acc.as_slice())
    }

    /// Block until complete; the reduction lands `Some` only on the root.
    pub fn wait_result(mut self) -> Result<Option<Vec<T>>> {
        wait(&mut self)?;
        Ok(self.is_root.then_some(self.acc))
    }
}

impl<T, C, F> Progress for Ireduce<T, C, F>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        Some(self.tr.state())
    }

    fn poll(&mut self) -> Result<bool> {
        if self.done {
            return Ok(true);
        }
        let _class = obs::class_guard(self.tr.state(), OpClass::Reduce);
        let mut i = 0;
        while i < self.pending_children.len() {
            let child = self.pending_children[i];
            match self.tr.try_recv::<T>(Src::Rank(child), self.tag)? {
                None => i += 1,
                Some((v, _)) => {
                    for (a, b) in self.acc.iter_mut().zip(v.iter()) {
                        *a = (self.op)(a, b);
                    }
                    self.tr.charge_compute(self.acc.len());
                    self.pending_children.swap_remove(i);
                }
            }
        }
        if self.pending_children.is_empty() {
            if !self.is_root {
                let p = self.tr.size();
                let rel = to_rel(self.tr.rank(), self.root, p);
                let parent = from_rel(binom_parent(rel), self.root, p);
                self.tr.send(&self.acc, parent, self.tag)?;
            }
            self.done = true;
            return Ok(true);
        }
        Ok(false)
    }
}

/// Nonblocking all-reduce: reduce to rank 0, then broadcast, both phases
/// under the same machine. Uses tags `tag` and `tag + 1`.
pub struct Iallreduce<T: Datum, C: Transport, F> {
    phase: IallreducePhase<T, C, F>,
}

enum IallreducePhase<T: Datum, C: Transport, F> {
    Reduce { sm: Ireduce<T, C, F>, tag: Tag },
    Bcast(Ibcast<T, C>),
    Done(Vec<T>),
    Poisoned,
}

/// Start a nonblocking allreduce (`MPI_Iallreduce`): reduce to rank 0 on
/// `tag`, then broadcast on `tag + 1`.
pub fn iallreduce<T, C, F>(tr: &C, data: &[T], tag: Tag, op: F) -> Result<Iallreduce<T, C, F>>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    let sm = ireduce(tr, data, 0, tag, op)?;
    let mut out = Iallreduce {
        phase: IallreducePhase::Reduce { sm, tag },
    };
    out.poll()?;
    Ok(out)
}

impl<T, C, F> Iallreduce<T, C, F>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    /// The allreduce result; `None` until complete.
    pub fn result(&self) -> Option<&[T]> {
        match &self.phase {
            IallreducePhase::Done(v) => Some(v),
            _ => None,
        }
    }

    /// Block until complete and return the result.
    pub fn wait_result(mut self) -> Result<Vec<T>> {
        wait(&mut self)?;
        match self.phase {
            IallreducePhase::Done(v) => Ok(v),
            _ => unreachable!("wait returned complete"),
        }
    }
}

impl<T, C, F> Progress for Iallreduce<T, C, F>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        match &self.phase {
            IallreducePhase::Reduce { sm, .. } => Some(sm.tr.state()),
            IallreducePhase::Bcast(bc) => Some(bc.tr.state()),
            _ => None,
        }
    }

    fn poll(&mut self) -> Result<bool> {
        loop {
            // The phase in flight is polled where it sits; it moves only
            // on a transition.
            let phase_done = match &mut self.phase {
                IallreducePhase::Reduce { sm, .. } => sm.poll()?,
                IallreducePhase::Bcast(bc) => bc.poll()?,
                IallreducePhase::Done(_) => return Ok(true),
                IallreducePhase::Poisoned => unreachable!("poll reentered poisoned state"),
            };
            if !phase_done {
                return Ok(false);
            }
            match std::mem::replace(&mut self.phase, IallreducePhase::Poisoned) {
                IallreducePhase::Reduce { sm, tag } => {
                    let tr = sm.tr.clone();
                    let root_data = sm.is_root.then(|| sm.acc.clone());
                    let bc = ibcast(&tr, root_data, 0, tag + 1)?;
                    self.phase = IallreducePhase::Bcast(bc);
                }
                IallreducePhase::Bcast(bc) => {
                    let v = bc.into_data().expect("bcast complete");
                    self.phase = IallreducePhase::Done(v);
                    return Ok(true);
                }
                IallreducePhase::Done(_) | IallreducePhase::Poisoned => {
                    unreachable!("matched above")
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Iscan / Iexscan
// ---------------------------------------------------------------------------

/// Nonblocking inclusive prefix (Hillis–Steele rounds). When `EXCLUSIVE` is
/// true also tracks the exclusive prefix.
pub struct Iscan<T: Datum, C: Transport, F> {
    tr: C,
    tag: Tag,
    op: F,
    incl: Vec<T>,
    excl: Option<Vec<T>>,
    d: usize,
    sent: bool,
    done: bool,
}

/// Start a nonblocking inclusive+exclusive prefix fold (`MPI_Iscan`).
pub fn iscan<T, C, F>(tr: &C, data: &[T], tag: Tag, op: F) -> Result<Iscan<T, C, F>>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    let mut sm = Iscan {
        tr: tr.clone(),
        tag,
        op,
        incl: data.to_vec(),
        excl: None,
        d: 1,
        sent: false,
        done: false,
    };
    sm.poll()?;
    Ok(sm)
}

impl<T, C, F> Iscan<T, C, F>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    /// Inclusive prefix over ranks `0..=rank`; `None` until complete.
    pub fn inclusive(&self) -> Option<&[T]> {
        self.done.then_some(self.incl.as_slice())
    }

    /// Exclusive prefix over ranks `0..rank`; `None` until complete or on
    /// rank 0 (which has no predecessors).
    pub fn exclusive(&self) -> Option<&[T]> {
        self.done.then_some(self.excl.as_deref()).flatten()
    }

    /// Block until complete, returning `(inclusive, exclusive)` prefixes.
    pub fn wait_scan(mut self) -> Result<(Vec<T>, Option<Vec<T>>)> {
        wait(&mut self)?;
        Ok((self.incl, self.excl))
    }
}

impl<T, C, F> Progress for Iscan<T, C, F>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        Some(self.tr.state())
    }

    fn poll(&mut self) -> Result<bool> {
        if self.done {
            return Ok(true);
        }
        let _class = obs::class_guard(self.tr.state(), OpClass::Scan);
        let p = self.tr.size();
        let r = self.tr.rank();
        while self.d < p {
            if !self.sent {
                if r + self.d < p {
                    self.tr.send(&self.incl, r + self.d, self.tag)?;
                }
                self.sent = true;
            }
            if r >= self.d {
                match self.tr.try_recv::<T>(Src::Rank(r - self.d), self.tag)? {
                    None => return Ok(false),
                    Some((v, _)) => {
                        // v covers ranks left of everything we hold.
                        match &mut self.excl {
                            None => self.excl = Some(v.clone()),
                            Some(e) => {
                                for (a, b) in e.iter_mut().zip(v.iter()) {
                                    *a = (self.op)(b, a);
                                }
                            }
                        }
                        for (a, b) in self.incl.iter_mut().zip(v.iter()) {
                            *a = (self.op)(b, a);
                        }
                        self.tr.charge_compute(self.incl.len());
                    }
                }
            }
            self.d <<= 1;
            self.sent = false;
        }
        self.done = true;
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// Igatherv / Igather
// ---------------------------------------------------------------------------

/// Nonblocking binomial gather with variable contribution sizes. Uses tags
/// `tag` (metadata) and `tag + 1` (payload).
/// (child comm rank, metadata if already received)
type PendingChild = (usize, Option<Vec<(u64, u64)>>);

/// Nonblocking gatherv state machine; see [`igatherv`].
pub struct Igatherv<T: Datum, C: Transport> {
    tr: C,
    root: usize,
    tag: Tag,
    meta: Vec<(u64, u64)>,
    payload: Vec<T>,
    pending: Vec<PendingChild>,
    done: bool,
    is_root: bool,
}

/// Start a nonblocking variable-count gather to `root` (`MPI_Igatherv`),
/// using `tag` for metadata and `tag + 1` for payload.
pub fn igatherv<T: Datum, C: Transport>(
    tr: &C,
    data: Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<Igatherv<T, C>> {
    tr.check_rank(root)?;
    let p = tr.size();
    let r = tr.rank();
    let rel = to_rel(r, root, p);
    let children = binom_children(rel, p);
    let mut sm = Igatherv {
        tr: tr.clone(),
        root,
        tag,
        meta: vec![(r as u64, data.len() as u64)],
        payload: data,
        pending: children
            .into_iter()
            .map(|c| (from_rel(c, root, p), None))
            .collect(),
        done: false,
        is_root: r == root,
    };
    sm.poll()?;
    Ok(sm)
}

impl<T: Datum, C: Transport> Igatherv<T, C> {
    /// Per-source-rank contributions; `Some` only on the root when done.
    pub fn result(&self) -> Option<Vec<Vec<T>>> {
        if !(self.done && self.is_root) {
            return None;
        }
        let p = self.tr.size();
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        let mut off = 0usize;
        for &(origin, cnt) in &self.meta {
            let cnt = cnt as usize;
            out[origin as usize] = self.payload[off..off + cnt].to_vec();
            off += cnt;
        }
        Some(out)
    }

    /// Block until complete; per-rank blocks land `Some` only on the root.
    pub fn wait_result(mut self) -> Result<Option<Vec<Vec<T>>>> {
        wait(&mut self)?;
        Ok(self.result())
    }
}

impl<T: Datum, C: Transport> Progress for Igatherv<T, C> {
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
            let (child, got_meta) = &mut self.pending[i];
            let child = *child;
            if got_meta.is_none() {
                match self.tr.try_recv::<(u64, u64)>(Src::Rank(child), self.tag)? {
                    None => {
                        i += 1;
                        continue;
                    }
                    Some((m, _)) => *got_meta = Some(m),
                }
            }
            // Metadata in hand; the payload follows on tag+1 from the same
            // child (FIFO per sender guarantees order).
            match self.tr.try_recv::<T>(Src::Rank(child), self.tag + 1)? {
                None => i += 1,
                Some((d, _)) => {
                    let m = self.pending[i].1.take().expect("meta stored");
                    self.meta.extend_from_slice(&m);
                    self.payload.extend_from_slice(&d);
                    self.pending.swap_remove(i);
                }
            }
        }
        if self.pending.is_empty() {
            if !self.is_root {
                let p = self.tr.size();
                let rel = to_rel(self.tr.rank(), self.root, p);
                let parent = from_rel(binom_parent(rel), self.root, p);
                self.tr.send(&self.meta, parent, self.tag)?;
                self.tr.send(&self.payload, parent, self.tag + 1)?;
            }
            self.done = true;
            return Ok(true);
        }
        Ok(false)
    }
}

/// Nonblocking equal-count gather: flattens the gatherv result in rank
/// order.
pub struct Igather<T: Datum, C: Transport> {
    inner: Igatherv<T, C>,
}

/// Start a nonblocking equal-count gather to `root` (`MPI_Igather`).
pub fn igather<T: Datum, C: Transport>(
    tr: &C,
    data: Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<Igather<T, C>> {
    Ok(Igather {
        inner: igatherv(tr, data, root, tag)?,
    })
}

impl<T: Datum, C: Transport> Igather<T, C> {
    /// Concatenated contributions in rank order; `Some` only on the root
    /// when done.
    pub fn result(&self) -> Option<Vec<T>> {
        self.inner
            .result()
            .map(|per_rank| per_rank.into_iter().flatten().collect())
    }

    /// Block until complete and return the concatenated data at the root.
    pub fn wait_result(mut self) -> Result<Option<Vec<T>>> {
        wait(&mut self)?;
        Ok(self.result())
    }
}

impl<T: Datum, C: Transport> Progress for Igather<T, C> {
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        self.inner.proc_state()
    }

    fn poll(&mut self) -> Result<bool> {
        self.inner.poll()
    }
}

// ---------------------------------------------------------------------------
// Ibarrier
// ---------------------------------------------------------------------------

/// Nonblocking dissemination barrier.
pub struct Ibarrier<C: Transport> {
    tr: C,
    tag: Tag,
    d: usize,
    sent: bool,
    done: bool,
}

/// Start a nonblocking dissemination barrier (`MPI_Ibarrier`).
pub fn ibarrier<C: Transport>(tr: &C, tag: Tag) -> Result<Ibarrier<C>> {
    let mut sm = Ibarrier {
        tr: tr.clone(),
        tag,
        d: 1,
        sent: false,
        done: false,
    };
    sm.poll()?;
    Ok(sm)
}

impl<C: Transport> Ibarrier<C> {
    /// Whether every round of the dissemination pattern has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }
}

impl<C: Transport> Progress for Ibarrier<C> {
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        Some(self.tr.state())
    }

    fn poll(&mut self) -> Result<bool> {
        if self.done {
            return Ok(true);
        }
        let _class = obs::class_guard(self.tr.state(), OpClass::Barrier);
        let p = self.tr.size();
        let r = self.tr.rank();
        while self.d < p {
            if !self.sent {
                self.tr
                    .send_vec::<u8>(Vec::new(), (r + self.d) % p, self.tag)?;
                self.sent = true;
            }
            if self
                .tr
                .try_recv::<u8>(Src::Rank((r + p - self.d) % p), self.tag)?
                .is_none()
            {
                return Ok(false);
            }
            self.d <<= 1;
            self.sent = false;
        }
        self.done = true;
        Ok(true)
    }
}
