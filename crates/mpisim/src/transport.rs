//! The `Transport` abstraction: typed point-to-point over some rank space,
//! and the one collective facade on top of it.
//!
//! Collective algorithms (blocking in [`crate::coll`], nonblocking state
//! machines in [`crate::nbcoll`]) are written once, generically over
//! `Transport`, and every collective is a provided method of the trait:
//! the thirteen blocking ones with their `_async` forms (the
//! `collectives!` table) and the seven nonblocking ones (the
//! `nonblocking!` table, RBC's signatures: the last argument is the
//! operation's tag, `None` for its reserved default). Every communicator
//! gets them, each run over [`Transport::coll_view`] of its operation
//! class. Both the native [`crate::comm::Comm`] and RBC's range
//! communicator implement it; the only differences between "vendor MPI
//! collectives" and "RBC collectives" are therefore (a) the communicator
//! construction path and (b) [`Transport::coll_scale`] — the vendor
//! [`CostScale`] of each class for `Comm`, neutral for RBC — exactly the
//! comparison the paper makes.

use std::future::{poll_fn, Future};
use std::ops::Range;
use std::sync::Arc;
use std::task::{ready, Poll};

use crate::coll;
use crate::datum::Datum;
use crate::error::{MpiError, Result};
use crate::model::CostScale;
use crate::msg::{ContextId, MatchPattern, Message, MsgInfo, SharedSlice, SrcFilter, Tag};
use crate::nbcoll::{self, Iallreduce, Ibarrier, Ibcast, Igather, Igatherv, Ireduce, Iscan};
use crate::obs::OpClass;
use crate::proc::ProcState;
use crate::sched::poll::block_inline;
use crate::tags;
use crate::time::Time;

/// Source argument of receives/probes, in communicator rank space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// A specific rank of the communicator.
    Rank(usize),
    /// `MPI_ANY_SOURCE`.
    Any,
}

/// Receive/probe status in communicator rank space (`MPI_Status` analogue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Status {
    /// Source rank within the communicator.
    pub source: usize,
    /// Tag of the matched message.
    pub tag: Tag,
    /// Number of received elements.
    pub count: usize,
    /// Received payload size in bytes.
    pub bytes: usize,
}

/// The blocking collectives of [`Transport`], one entry each:
/// `fn name / name_async<T>(args; trailing args) -> Out = (Class, TAG);`.
/// `name_async` runs the [`crate::coll`] core of the same name over
/// [`Transport::coll_view`] of `OpClass::Class`, with the reserved tag
/// `tags::TAG` between the arguments and the trailing ones (a reduction's
/// operator); the view is built when the call is made, and the future owns
/// it. `name` drives `name_async` with `block_inline`, so the two forms
/// cannot drift apart.
macro_rules! collectives {
    ($(
        $(#[$doc:meta])*
        fn $name:ident / $name_async:ident $(<$t:ident>)?
            ($($arg:ident: $arg_ty:ty),* $(; $($post:ident: $post_ty:ty),*)?)
            -> $out:ty = ($class:ident, $tag:ident);
    )*) => {$(
        $(#[$doc])*
        fn $name$(<$t: Datum>)?(
            &self,
            $($arg: $arg_ty,)*
            $($($post: $post_ty),*)?
        ) -> Result<$out> {
            block_inline(self.$name_async($($arg,)* $($($post),*)?))
        }

        #[doc = concat!("[`Transport::", stringify!($name), "`] for maybe-async workloads.")]
        fn $name_async$(<$t: Datum>)?(
            &self,
            $($arg: $arg_ty,)*
            $($($post: $post_ty),*)?
        ) -> impl Future<Output = Result<$out>> + Send {
            let view = self.coll_view(OpClass::$class);
            async move { coll::$name_async(&view, $($arg,)* tags::$tag, $($($post),*)?).await }
        }
    )*};
}

/// The nonblocking collectives of [`Transport`], one entry each:
/// `fn name[generics](args; trailing args) -> Request = (Class, TAG);`.
/// `name` starts the [`crate::nbcoll`] machine of the same name over
/// [`Transport::coll_view`] of `OpClass::Class`, on the caller's `tag`, or
/// on the reserved `tags::TAG` when it is `None` (paper §V-B: "the user can
/// specify an own user-defined tag"); the tag goes between the arguments
/// and the trailing ones, as in `collectives!`. The request owns the view.
macro_rules! nonblocking {
    ($(
        $(#[$doc:meta])*
        fn $name:ident [$($gen:tt)*]
            ($($arg:ident: $arg_ty:ty),* $(; $($post:ident: $post_ty:ty),*)?)
            -> $req:ty = ($class:ident, $tag:ident);
    )*) => {$(
        $(#[$doc])*
        fn $name<$($gen)*>(
            &self,
            $($arg: $arg_ty,)*
            $($($post: $post_ty,)*)?
            tag: Option<Tag>,
        ) -> Result<$req> {
            let tag = tag.unwrap_or(tags::$tag);
            nbcoll::$name(&self.coll_view(OpClass::$class), $($arg,)* tag $(, $($post),*)?)
        }
    )*};
}

/// Typed point-to-point operations over some rank space, and the
/// collectives over them.
///
/// Implementors supply the seven projection methods; sends, receives,
/// probes, virtual-time accounting and the blocking and nonblocking
/// collectives are provided generically on top. A communicator whose collectives cost what the
/// vendor's do overrides [`Transport::coll_scale`], nothing else.
pub trait Transport: Clone + Send + Sync + 'static {
    /// This process's rank within the communicator.
    fn rank(&self) -> usize;
    /// Number of processes in the communicator.
    fn size(&self) -> usize;
    /// The per-rank simulator state (mailbox, clock, RNG).
    fn state(&self) -> &Arc<ProcState>;
    /// Context ID messages are matched under.
    fn ctx(&self) -> ContextId;
    /// Communicator rank -> global rank.
    fn translate(&self, rank: usize) -> usize;
    /// Global rank -> communicator rank, if a member.
    fn rank_of_global(&self, global: usize) -> Option<usize>;
    /// How `Src::Any` maps onto the message-matching layer. Native
    /// communicators use a true wildcard (their context is private); RBC
    /// communicators restrict by range membership (paper §V-C).
    fn any_source_filter(&self) -> SrcFilter;
    /// Cost scaling of messages sent through this transport.
    fn cost_scale(&self) -> CostScale {
        CostScale::NEUTRAL
    }

    /// Cost scaling of the traffic inside this communicator's collectives
    /// of class `class`. Neutral unless overridden: RBC composes its
    /// collectives from plain point-to-point (paper §V-D), a native
    /// communicator prices them by its vendor profile.
    fn coll_scale(&self, class: OpClass) -> CostScale {
        let _ = class;
        CostScale::NEUTRAL
    }

    /// This transport with [`Transport::coll_scale`] of `class` on every
    /// message: what a collective of that class runs over.
    fn coll_view(&self, class: OpClass) -> Scaled<Self> {
        Scaled::new(self.clone(), self.coll_scale(class))
    }

    // ---- provided API ------------------------------------------------------

    /// Validate a communicator rank argument.
    fn check_rank(&self, rank: usize) -> Result<()> {
        if rank < self.size() {
            Ok(())
        } else {
            Err(MpiError::InvalidRank {
                rank,
                size: self.size(),
            })
        }
    }

    /// Build the matching-layer pattern for a receive/probe.
    fn pattern(&self, src: Src, tag: Tag) -> MatchPattern {
        let src = match src {
            Src::Rank(r) => SrcFilter::Exact(self.translate(r)),
            Src::Any => self.any_source_filter(),
        };
        MatchPattern {
            ctx: self.ctx(),
            src,
            tag,
        }
    }

    /// Translate matched-message metadata into communicator rank space.
    fn status_of(&self, info: &MsgInfo) -> Status {
        let source = self
            .rank_of_global(info.src_global)
            .expect("message source is a member of this communicator");
        Status {
            source,
            tag: info.tag,
            count: info.count,
            bytes: info.bytes,
        }
    }

    /// Buffered send (never blocks): copies `buf` into a fresh `Vec`,
    /// which the receiver takes or the dropped message frees.
    fn send<T: Datum>(&self, buf: &[T], dest: usize, tag: Tag) -> Result<()> {
        self.send_vec(buf.to_vec(), dest, tag)
    }

    /// Buffered send taking ownership (avoids one copy).
    fn send_vec<T: Datum>(&self, data: Vec<T>, dest: usize, tag: Tag) -> Result<()> {
        self.check_rank(dest)?;
        self.state().send_global(
            self.translate(dest),
            tag,
            self.ctx(),
            data,
            self.cost_scale(),
        );
        Ok(())
    }

    /// Buffered send of a shared buffer: clones the `Arc`, not the
    /// payload — the fan-out path of broadcast/scatter trees, where the
    /// same buffer goes to every child. Costs are identical to an owned
    /// send of the same bytes.
    fn send_shared<T: Datum>(&self, data: &Arc<Vec<T>>, dest: usize, tag: Tag) -> Result<()> {
        self.check_rank(dest)?;
        self.state().send_global_shared(
            self.translate(dest),
            tag,
            self.ctx(),
            Arc::clone(data),
            self.cost_scale(),
        );
        Ok(())
    }

    /// Buffered send of the elements `range` of a shared buffer: clones
    /// the `Arc` into the message, copies no element. Counted and priced
    /// as an owned send of those elements; the buffer lives until the
    /// receiver drops the message or its view.
    fn send_slice<T: Datum>(
        &self,
        data: &Arc<Vec<T>>,
        range: Range<usize>,
        dest: usize,
        tag: Tag,
    ) -> Result<()> {
        self.check_rank(dest)?;
        self.state().send_global_slice(
            self.translate(dest),
            tag,
            self.ctx(),
            SharedSlice::new(Arc::clone(data), range),
            self.cost_scale(),
        );
        Ok(())
    }

    /// Blocking receive.
    fn recv<T: Datum>(&self, src: Src, tag: Tag) -> Result<(Vec<T>, Status)> {
        block_inline(recv_async(self, src, tag))
    }

    /// Nonblocking receive attempt.
    fn try_recv<T: Datum>(&self, src: Src, tag: Tag) -> Result<Option<(Vec<T>, Status)>> {
        try_take(self, src, tag, Message::take::<T>)
    }

    /// Nonblocking receive attempt keeping the payload as a view, without
    /// copying it: of the sender's buffer for a [`Transport::send_slice`],
    /// of the whole payload otherwise.
    fn try_recv_slice<T: Datum>(
        &self,
        src: Src,
        tag: Tag,
    ) -> Result<Option<(SharedSlice<T>, Status)>> {
        try_take(self, src, tag, Message::take_slice::<T>)
    }

    /// Blocking probe (`MPI_Probe`).
    fn probe(&self, src: Src, tag: Tag) -> Result<Status> {
        block_inline(probe_async(self, src, tag))
    }

    /// Nonblocking probe (`MPI_Iprobe`).
    fn iprobe(&self, src: Src, tag: Tag) -> Result<Option<Status>> {
        if let Src::Rank(r) = src {
            self.check_rank(r)?;
        }
        let pat = self.pattern(src, tag);
        Ok(self.state().iprobe_match(&pat)?.map(|i| self.status_of(&i)))
    }

    /// Nonblocking receive (`MPI_Irecv` / `rbc::Irecv`; `Src::Any` is
    /// range-filtered on an RBC communicator, paper §V-C): returns a
    /// pollable request.
    fn irecv<T: Datum>(&self, src: Src, tag: Tag) -> RecvReq<T, Self> {
        RecvReq {
            tr: self.clone(),
            src,
            tag,
            done: None,
        }
    }

    // ---- blocking collectives ---------------------------------------------

    collectives! {
        /// `MPI_Bcast`: binomial broadcast from `root`; `data` is replaced on
        /// every other rank.
        fn bcast / bcast_async<T>(data: &mut Vec<T>, root: usize) -> () = (Bcast, BCAST);
        /// `MPI_Reduce`: elementwise `op`-fold to `root` (`Some` there only).
        fn reduce / reduce_async<T>(data: &[T], root: usize; op: impl Fn(&T, &T) -> T + Send)
            -> Option<Vec<T>> = (Reduce, REDUCE);
        /// `MPI_Allreduce`: elementwise `op`-fold, result everywhere.
        fn allreduce / allreduce_async<T>(data: &[T]; op: impl Fn(&T, &T) -> T + Send)
            -> Vec<T> = (Reduce, ALLREDUCE);
        /// `MPI_Scan`: inclusive prefix `op`-fold by rank.
        fn scan / scan_async<T>(data: &[T]; op: impl Fn(&T, &T) -> T + Send)
            -> Vec<T> = (Scan, SCAN);
        /// `MPI_Exscan`: exclusive prefix fold (`None` on rank 0).
        fn exscan / exscan_async<T>(data: &[T]; op: impl Fn(&T, &T) -> T + Send)
            -> Option<Vec<T>> = (Scan, EXSCAN);
        /// `MPI_Gather` of equal-sized blocks, concatenated in rank order at
        /// `root` (`Some` there only).
        fn gather / gather_async<T>(data: Vec<T>, root: usize) -> Option<Vec<T>> = (Gather, GATHER);
        /// `MPI_Gatherv`: variable-sized blocks, one `Vec` per rank at `root`.
        fn gatherv / gatherv_async<T>(data: Vec<T>, root: usize)
            -> Option<Vec<Vec<T>>> = (Gather, GATHERV);
        /// `MPI_Allgather` of one element per rank.
        fn allgather1 / allgather1_async<T>(item: T) -> Vec<T> = (Gather, ALLGATHER);
        /// `MPI_Allgatherv`: every rank receives every rank's block.
        fn allgatherv / allgatherv_async<T>(data: Vec<T>) -> Vec<Vec<T>> = (Gather, ALLGATHERV);
        /// `MPI_Barrier`: dissemination barrier.
        fn barrier / barrier_async() -> () = (Barrier, BARRIER);
        /// `MPI_Alltoallv`: `send[i]` goes to rank `i`; returns one block per
        /// source.
        fn alltoallv / alltoallv_async<T>(send: Vec<Vec<T>>) -> Vec<Vec<T>> = (Other, ALLTOALL);
        /// `MPI_Scatter`: `root` splits `data` into equal blocks, one per rank.
        fn scatter / scatter_async<T>(data: Option<Vec<T>>, root: usize)
            -> Vec<T> = (Other, SCATTER);
        /// `MPI_Scatterv`: `root` sends `blocks[i]` to rank `i`.
        fn scatterv / scatterv_async<T>(blocks: Option<Vec<Vec<T>>>, root: usize)
            -> Vec<T> = (Other, SCATTERV);
    }

    // ---- nonblocking collectives ------------------------------------------

    nonblocking! {
        /// `MPI_Ibcast` / `rbc::Ibcast`: nonblocking binomial broadcast from
        /// `root`, which passes `Some(data)`.
        fn ibcast[T: Datum](data: Option<Vec<T>>, root: usize)
            -> Ibcast<T, Scaled<Self>> = (Bcast, IBCAST);
        /// `MPI_Ireduce` / `rbc::Ireduce`: nonblocking elementwise
        /// `op`-fold to `root`.
        fn ireduce[T: Datum, F: Fn(&T, &T) -> T + Send + 'static](data: &[T], root: usize; op: F)
            -> Ireduce<T, Scaled<Self>, F> = (Reduce, IREDUCE);
        /// `MPI_Iallreduce`: nonblocking reduce to rank 0, then broadcast
        /// (on `tag` and `tag + 1`).
        fn iallreduce[T: Datum, F: Fn(&T, &T) -> T + Send + 'static](data: &[T]; op: F)
            -> Iallreduce<T, Scaled<Self>, F> = (Reduce, IALLREDUCE);
        /// `MPI_Iscan` / `rbc::Iscan`: nonblocking prefix fold; the request
        /// holds both the inclusive and the exclusive prefix.
        fn iscan[T: Datum, F: Fn(&T, &T) -> T + Send + 'static](data: &[T]; op: F)
            -> Iscan<T, Scaled<Self>, F> = (Scan, ISCAN);
        /// `MPI_Igather` / `rbc::Igather`: nonblocking equal-count gather to
        /// `root`.
        fn igather[T: Datum](data: Vec<T>, root: usize)
            -> Igather<T, Scaled<Self>> = (Gather, IGATHER);
        /// `MPI_Igatherv` / `rbc::Igatherv`: nonblocking variable-count
        /// gather to `root` (on `tag` and `tag + 1`).
        fn igatherv[T: Datum](data: Vec<T>, root: usize)
            -> Igatherv<T, Scaled<Self>> = (Gather, IGATHERV);
        /// `MPI_Ibarrier` / `rbc::Ibarrier`: nonblocking dissemination
        /// barrier.
        fn ibarrier[]() -> Ibarrier<Scaled<Self>> = (Barrier, IBARRIER);
    }

    // ---- virtual time ------------------------------------------------------

    /// This rank's current virtual clock.
    fn now(&self) -> Time {
        self.state().now()
    }

    /// Advance this rank's virtual clock by `dt`.
    fn charge(&self, dt: Time) {
        self.state().charge(dt);
    }

    /// Advance the clock by the model's local-compute cost for `elems` elements.
    fn charge_compute(&self, elems: usize) {
        self.state().charge_compute(elems);
    }
}

// ---------------------------------------------------------------------------
// The blocking primitives' cores
// ---------------------------------------------------------------------------
// Free functions rather than trait methods so `Transport` stays object- and
// vtable-simple: an `async fn` in the trait would force every implementor
// through return-position-impl-trait plumbing for three operations whose
// bodies are identical anyway. `Transport::{recv, probe}` are
// `block_inline` over these (see `crate::sched::poll::block_inline`).

/// One nonblocking receive attempt of `src`/`tag` on `tr`, its payload
/// extracted by `take`.
#[inline]
fn try_take<C: Transport, D>(
    tr: &C,
    src: Src,
    tag: Tag,
    take: impl FnOnce(Message) -> Result<(D, MsgInfo)>,
) -> Result<Option<(D, Status)>> {
    if let Src::Rank(r) = src {
        tr.check_rank(r)?;
    }
    let pat = tr.pattern(src, tag);
    match tr.state().try_recv_match(&pat)? {
        None => Ok(None),
        Some(m) => {
            let (data, info) = take(m)?;
            Ok(Some((data, tr.status_of(&info))))
        }
    }
}

/// One poll of a blocking receive of `src`/`tag` on `tr`: the leaf of
/// every receive core. It rebuilds the pattern on every poll, so a
/// suspended receive holds only its three arguments.
#[inline]
fn poll_matched<C: Transport>(tr: &C, src: Src, tag: Tag) -> Poll<Result<Message>> {
    if let Src::Rank(r) = src {
        tr.check_rank(r)?;
    }
    tr.state().poll_recv(&tr.pattern(src, tag))
}

/// [`Transport::recv`] for maybe-async workloads.
pub fn recv_async<T: Datum, C: Transport>(
    tr: &C,
    src: Src,
    tag: Tag,
) -> impl Future<Output = Result<(Vec<T>, Status)>> + '_ {
    poll_fn(move |_| {
        let (data, info) = ready!(poll_matched(tr, src, tag))?.take::<T>()?;
        Poll::Ready(Ok((data, tr.status_of(&info))))
    })
}

/// Receive keeping the payload behind an `Arc` (no copy): the receive
/// path of fan-out stages that forward the buffer onward with
/// [`Transport::send_shared`].
pub fn recv_shared_async<T: Datum, C: Transport>(
    tr: &C,
    src: Src,
    tag: Tag,
) -> impl Future<Output = Result<(Arc<Vec<T>>, Status)>> + '_ {
    poll_fn(move |_| {
        let (data, info) = ready!(poll_matched(tr, src, tag))?.take_shared::<T>()?;
        Poll::Ready(Ok((data, tr.status_of(&info))))
    })
}

/// [`Transport::probe`] for maybe-async workloads.
pub fn probe_async<C: Transport>(
    tr: &C,
    src: Src,
    tag: Tag,
) -> impl Future<Output = Result<Status>> + '_ {
    poll_fn(move |_| {
        if let Src::Rank(r) = src {
            tr.check_rank(r)?;
        }
        let info = ready!(tr.state().poll_probe(&tr.pattern(src, tag)))?;
        Poll::Ready(Ok(tr.status_of(&info)))
    })
}

/// A pending nonblocking receive.
pub struct RecvReq<T: Datum, C: Transport> {
    tr: C,
    src: Src,
    tag: Tag,
    done: Option<(Vec<T>, Status)>,
}

impl<T: Datum, C: Transport> RecvReq<T, C> {
    /// The transport this receive was posted on.
    pub fn transport(&self) -> &C {
        &self.tr
    }

    /// Poll for completion (`MPI_Test`).
    pub fn test(&mut self) -> Result<bool> {
        if self.done.is_some() {
            return Ok(true);
        }
        if let Some(hit) = self.tr.try_recv::<T>(self.src, self.tag)? {
            self.done = Some(hit);
            return Ok(true);
        }
        Ok(false)
    }

    /// Block until complete, returning the data (`MPI_Wait`).
    pub fn wait(self) -> Result<(Vec<T>, Status)> {
        block_inline(self.wait_async())
    }

    /// [`RecvReq::wait`] for maybe-async workloads.
    pub async fn wait_async(mut self) -> Result<(Vec<T>, Status)> {
        if let Some(hit) = self.done.take() {
            return Ok(hit);
        }
        recv_async::<T, C>(&self.tr, self.src, self.tag).await
    }

    /// Take the data if complete.
    pub fn take(&mut self) -> Option<(Vec<T>, Status)> {
        self.done.take()
    }

    /// Whether the receive has already completed.
    pub fn is_done(&self) -> bool {
        self.done.is_some()
    }
}

/// A transport wrapper applying a vendor cost scale to all messages.
/// Vendor (native MPI) collectives run through this; RBC runs neutral.
#[derive(Clone)]
pub struct Scaled<C: Transport> {
    /// The wrapped transport.
    pub inner: C,
    /// Multiplier applied to α and β of every message sent through here.
    pub scale: CostScale,
}

impl<C: Transport> Scaled<C> {
    /// Wrap `inner`, scaling every message cost by `scale`.
    pub fn new(inner: C, scale: CostScale) -> Scaled<C> {
        Scaled { inner, scale }
    }
}

impl<C: Transport> Transport for Scaled<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn state(&self) -> &Arc<ProcState> {
        self.inner.state()
    }
    fn ctx(&self) -> ContextId {
        self.inner.ctx()
    }
    fn translate(&self, rank: usize) -> usize {
        self.inner.translate(rank)
    }
    fn rank_of_global(&self, global: usize) -> Option<usize> {
        self.inner.rank_of_global(global)
    }
    fn any_source_filter(&self) -> SrcFilter {
        self.inner.any_source_filter()
    }
    fn cost_scale(&self) -> CostScale {
        self.scale
    }
    fn coll_scale(&self, class: OpClass) -> CostScale {
        self.inner.coll_scale(class)
    }
}
