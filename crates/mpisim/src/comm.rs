//! Native MPI communicators.
//!
//! `Comm` is the analogue of `MPI_Comm`: a context ID plus a process group.
//! The two construction paths the paper benchmarks (Fig. 5) are implemented
//! with their real algorithms so their costs *emerge* from the α–β model:
//!
//! * [`Comm::split`] — `MPI_Comm_split`: the distributed sample-sort
//!   algorithm of the private `splitdist` module (O(p log p) work,
//!   O(√p + p/groups) memory per rank — what production MPI stacks run at
//!   scale; DESIGN.md §6). The textbook all-gather split is a test oracle
//!   in `splitdist`'s unit tests;
//! * [`Comm::create_group`] — `MPI_Comm_create_group`: collective only over
//!   the **new group**'s members, a context-ID-mask all-reduce over that
//!   group, and explicit O(g) group-array construction (the linear cost the
//!   paper observes in Intel MPI). The IBM-like vendor profile instead
//!   serialises agreement through a leader ring, reproducing the
//!   "disproportionately slow" behaviour of Fig. 5.

use std::sync::Arc;

use crate::coll;
use crate::context::{mask_and, CtxMask, CtxPool};
use crate::datum::ops;
use crate::error::{MpiError, Result};
use crate::group::Group;
use crate::model::CreateGroupAlgo;
use crate::msg::{ContextId, SrcFilter, Tag};
use crate::proc::ProcState;
use crate::tags;
use crate::time::Time;
use crate::transport::Transport;

struct CommInner {
    ctx: ContextId,
    group: Group,
    rank: usize,
}

/// A native communicator handle (per process — cloning shares it).
#[derive(Clone)]
pub struct Comm {
    state: Arc<ProcState>,
    inner: Arc<CommInner>,
}

impl Comm {
    /// `MPI_COMM_WORLD` for this process.
    pub fn world(state: Arc<ProcState>) -> Comm {
        let p = state.router.nprocs();
        let rank = state.global_rank;
        Comm {
            state,
            inner: Arc::new(CommInner {
                ctx: ContextId::WORLD,
                group: Group::world(p),
                rank,
            }),
        }
    }

    /// Internal: this process's handle on `group` under context `ctx`.
    /// With the parent's own context it is a *view*: what
    /// communicator-construction algorithms communicate over before the
    /// new context exists (and is, conceptually, exactly RBC's trick).
    pub(crate) fn with_new_ctx(&self, ctx: ContextId, group: Group) -> Result<Comm> {
        let rank = group
            .inverse(self.state.global_rank)
            .ok_or_else(|| MpiError::Usage("calling process not in new group".into()))?;
        Ok(Comm {
            state: Arc::clone(&self.state),
            inner: Arc::new(CommInner { ctx, group, rank }),
        })
    }

    /// `MpiError::Usage` naming a member of `group` that is not a process
    /// of the universe; the creation entry points check this before any
    /// member sends.
    pub(crate) fn check_members(&self, group: &Group) -> Result<()> {
        let p = self.state.router.nprocs();
        match group.member_outside(p) {
            Some(g) => Err(MpiError::Usage(format!(
                "group member {g} is outside the universe of {p} processes"
            ))),
            None => Ok(()),
        }
    }

    /// The process group of this communicator.
    pub fn group(&self) -> &Group {
        &self.inner.group
    }

    /// The calling process's simulator state.
    pub fn proc_state(&self) -> &Arc<ProcState> {
        &self.state
    }

    /// The calling process's global rank.
    pub fn global_rank(&self) -> usize {
        self.state.global_rank
    }

    // ---- communicator construction -----------------------------------------

    /// Agree on a fresh small context ID over the members of `view`
    /// (mask all-reduce with `MPI_BAND`, §III), claiming `n_ids`
    /// consecutive free IDs and returning the `idx`-th of them.
    pub(crate) async fn agree_ctx_async(
        &self,
        view: &Comm,
        tag: Tag,
        n_ids: usize,
        idx: usize,
    ) -> Result<ContextId> {
        let snapshot: CtxMask = self.state.ctx_pool.lock().snapshot();
        let reduced =
            coll::allreduce_async(view, &[snapshot], tag, ops::band_array::<u64, 32>()).await?[0];
        let mut pool = self.state.ctx_pool.lock();
        let mut chosen = None;
        let mut work = reduced;
        for i in 0..n_ids {
            let id = CtxPool::lowest_free(&work)?;
            // Mark in the working mask so the next iteration finds the next
            // free bit, and in the local pool so future agreements skip it.
            work = mask_and(&work, &{
                let mut m = [!0u64; 32];
                m[(id as usize) / 64] &= !(1u64 << (id % 64));
                m
            });
            pool.mark_used(id);
            if i == idx {
                chosen = Some(id);
            }
        }
        Ok(ContextId::Small(chosen.expect("idx < n_ids")))
    }

    /// `MPI_Comm_dup`: same group, fresh context.
    pub fn dup(&self) -> Result<Comm> {
        crate::sched::poll::block_inline(self.dup_async())
    }

    /// [`Comm::dup`] as a maybe-async core.
    pub async fn dup_async(&self) -> Result<Comm> {
        let view = self.with_new_ctx(self.ctx(), self.inner.group.clone())?;
        let ctx = self.agree_ctx_async(&view, tags::CTX_AGREE, 1, 0).await?;
        self.with_new_ctx(ctx, self.inner.group.clone())
    }

    /// `MPI_Comm_split`: every process of the parent passes a `color` and a
    /// `key`; processes are grouped by color and ranked by `(key, rank)`.
    ///
    /// Runs the distributed sample sort of `splitdist` (DESIGN.md §6).
    pub fn split(&self, color: u64, key: u64) -> Result<Comm> {
        crate::sched::poll::block_inline(self.split_async(color, key))
    }

    /// [`Comm::split`] as a maybe-async core.
    pub async fn split_async(&self, color: u64, key: u64) -> Result<Comm> {
        Ok(self
            .split_with_async(Some(color), key)
            .await?
            .expect("defined color always yields a communicator"))
    }

    /// [`Comm::split`] with `MPI_UNDEFINED` support: ranks passing
    /// `color = None` take part in the collective but join no group and
    /// receive `Ok(None)` (the `MPI_COMM_NULL` analogue).
    pub fn split_with(&self, color: Option<u64>, key: u64) -> Result<Option<Comm>> {
        crate::sched::poll::block_inline(self.split_with_async(color, key))
    }

    /// [`Comm::split_with`] as a maybe-async core.
    pub async fn split_with_async(&self, color: Option<u64>, key: u64) -> Result<Option<Comm>> {
        crate::splitdist::split_distributed(self, color, key).await
    }

    /// `MPI_Comm_create_group`: blocking collective over the members of
    /// `group` only (paper \[1\]). The `tag` distinguishes concurrent
    /// creations on the same parent — overlapping creations with the same
    /// tag have undefined behaviour, exactly as in MPI. A member that is
    /// not a process of the universe is an [`MpiError::Usage`].
    pub fn create_group(&self, group: &Group, tag: Tag) -> Result<Comm> {
        crate::sched::poll::block_inline(self.create_group_async(group, tag))
    }

    /// [`Comm::create_group`] as a maybe-async core.
    pub async fn create_group_async(&self, group: &Group, tag: Tag) -> Result<Comm> {
        self.check_members(group)?;
        let view = self.with_new_ctx(self.ctx(), group.clone())?;
        let g = group.len();
        let vendor = &self.state.router.vendor;
        // Explicit O(g) group representation (paper §III: "the process
        // group is stored explicitly during the communicator construction").
        self.charge(Time(
            (g as f64 * vendor.group_build_ns_per_member).round() as u64
        ));
        let ctx = match vendor.create_group_algo {
            CreateGroupAlgo::MaskAllreduce => self.agree_ctx_async(&view, tag, 1, 0).await?,
            CreateGroupAlgo::LeaderRing => {
                // Serialised agreement: the mask is AND-folded along a ring
                // 0 -> 1 -> ... -> g-1, then the chosen ID rings back.
                // Θ(g·(α + c)) latency — the IBM-like pathology of Fig. 5.
                let r = view.rank();
                let snapshot = self.state.ctx_pool.lock().snapshot();
                let folded = if r == 0 {
                    snapshot
                } else {
                    let (prev, _) = crate::transport::recv_async::<[u64; 32], _>(
                        &view,
                        crate::transport::Src::Rank(r - 1),
                        tag,
                    )
                    .await?;
                    mask_and(&prev[0], &snapshot)
                };
                // Per-hop bookkeeping charged after receiving the token and
                // before forwarding it, so it serialises along the ring.
                self.charge(Time(vendor.create_group_member_overhead_ns.round() as u64));
                if r + 1 < g {
                    view.send(&[folded], r + 1, tag)?;
                    // Wait for the chosen ID to ring back down.
                    let (id, _) = crate::transport::recv_async::<u32, _>(
                        &view,
                        crate::transport::Src::Rank(r + 1),
                        tag,
                    )
                    .await?;
                    if r > 0 {
                        view.send(&id, r - 1, tag)?;
                    }
                    let id = id[0];
                    self.state.ctx_pool.lock().mark_used(id);
                    ContextId::Small(id)
                } else {
                    // Last member chooses and sends the ID back down.
                    let id = self.state.ctx_pool.lock().claim_lowest(&folded)?;
                    if g > 1 {
                        view.send(&[id], r - 1, tag)?;
                    }
                    ContextId::Small(id)
                }
            }
        };
        self.with_new_ctx(ctx, group.clone())
    }

    // ---- blocking collectives (vendor implementations) ----------------------
    //
    // These are the "native MPI" collectives: the same binomial algorithms
    // as RBC's, but run through the vendor cost profile.

    fn scaled(&self, scale: crate::model::CostScale) -> crate::transport::Scaled<Comm> {
        crate::transport::Scaled::new(self.clone(), scale)
    }

    /// `MPI_Bcast` under the vendor's bcast cost scaling.
    pub fn bcast<T: crate::datum::Datum>(&self, data: &mut Vec<T>, root: usize) -> Result<()> {
        let s = self.state.router.vendor.coll_scale.bcast;
        coll::bcast(&self.scaled(s), data, root, tags::BCAST)
    }

    /// `MPI_Reduce`: elementwise `op`-fold to `root` (returns `Some` there).
    pub fn reduce<T: crate::datum::Datum>(
        &self,
        data: &[T],
        root: usize,
        op: impl Fn(&T, &T) -> T,
    ) -> Result<Option<Vec<T>>> {
        let s = self.state.router.vendor.coll_scale.reduce;
        coll::reduce(&self.scaled(s), data, root, tags::REDUCE, op)
    }

    /// `MPI_Allreduce`: elementwise `op`-fold, result everywhere.
    pub fn allreduce<T: crate::datum::Datum>(
        &self,
        data: &[T],
        op: impl Fn(&T, &T) -> T,
    ) -> Result<Vec<T>> {
        let s = self.state.router.vendor.coll_scale.reduce;
        coll::allreduce(&self.scaled(s), data, tags::ALLREDUCE, op)
    }

    /// `MPI_Scan`: inclusive prefix `op`-fold by rank.
    pub fn scan<T: crate::datum::Datum>(
        &self,
        data: &[T],
        op: impl Fn(&T, &T) -> T,
    ) -> Result<Vec<T>> {
        let s = self.state.router.vendor.coll_scale.scan;
        coll::scan(&self.scaled(s), data, tags::SCAN, op)
    }

    /// `MPI_Exscan`: exclusive prefix fold (`None` on rank 0).
    pub fn exscan<T: crate::datum::Datum>(
        &self,
        data: &[T],
        op: impl Fn(&T, &T) -> T,
    ) -> Result<Option<Vec<T>>> {
        let s = self.state.router.vendor.coll_scale.scan;
        coll::exscan(&self.scaled(s), data, tags::EXSCAN, op)
    }

    /// `MPI_Gather` of equal-sized blocks (returns `Some` at `root`).
    pub fn gather<T: crate::datum::Datum>(
        &self,
        data: Vec<T>,
        root: usize,
    ) -> Result<Option<Vec<T>>> {
        let s = self.state.router.vendor.coll_scale.gather;
        coll::gather(&self.scaled(s), data, root, tags::GATHER)
    }

    /// `MPI_Gatherv`: variable-sized blocks, one `Vec` per rank at `root`.
    pub fn gatherv<T: crate::datum::Datum>(
        &self,
        data: Vec<T>,
        root: usize,
    ) -> Result<Option<Vec<Vec<T>>>> {
        let s = self.state.router.vendor.coll_scale.gather;
        coll::gatherv(&self.scaled(s), data, root, tags::GATHERV)
    }

    /// `MPI_Allgather` of one element per rank.
    pub fn allgather1<T: crate::datum::Datum>(&self, item: T) -> Result<Vec<T>> {
        let s = self.state.router.vendor.coll_scale.gather;
        coll::allgather1(&self.scaled(s), item, tags::ALLGATHER)
    }

    /// `MPI_Barrier`.
    pub fn barrier(&self) -> Result<()> {
        let s = self.state.router.vendor.coll_scale.barrier;
        coll::barrier(&self.scaled(s), tags::BARRIER)
    }

    /// `MPI_Alltoallv`: `send[i]` goes to rank `i`; returns one block per source.
    pub fn alltoallv<T: crate::datum::Datum>(&self, send: Vec<Vec<T>>) -> Result<Vec<Vec<T>>> {
        let s = self.state.router.vendor.coll_scale.other;
        coll::alltoallv(&self.scaled(s), send, tags::ALLTOALL)
    }

    /// `MPI_Scatter`: `root` splits `data` into equal blocks, one per rank.
    pub fn scatter<T: crate::datum::Datum>(
        &self,
        data: Option<Vec<T>>,
        root: usize,
    ) -> Result<Vec<T>> {
        let s = self.state.router.vendor.coll_scale.other;
        coll::scatter(&self.scaled(s), data, root, tags::SCATTER)
    }

    /// `MPI_Scatterv`: `root` sends `blocks[i]` to rank `i`.
    pub fn scatterv<T: crate::datum::Datum>(
        &self,
        blocks: Option<Vec<Vec<T>>>,
        root: usize,
    ) -> Result<Vec<T>> {
        let s = self.state.router.vendor.coll_scale.other;
        coll::scatterv(&self.scaled(s), blocks, root, tags::SCATTERV)
    }

    /// `MPI_Allgatherv`: every rank receives every rank's block.
    pub fn allgatherv<T: crate::datum::Datum>(&self, data: Vec<T>) -> Result<Vec<Vec<T>>> {
        let s = self.state.router.vendor.coll_scale.gather;
        coll::allgatherv(&self.scaled(s), data, tags::ALLGATHERV)
    }

    // ---- maybe-async collectives -------------------------------------------
    //
    // The `*_async` twins of the blocking collectives above: identical
    // algorithms and vendor scaling (they share the `coll::*_async` cores),
    // usable from poll-mode rank bodies where the sync forms would panic.

    /// [`Comm::bcast`] as a maybe-async core.
    pub async fn bcast_async<T: crate::datum::Datum>(
        &self,
        data: &mut Vec<T>,
        root: usize,
    ) -> Result<()> {
        let s = self.state.router.vendor.coll_scale.bcast;
        coll::bcast_async(&self.scaled(s), data, root, tags::BCAST).await
    }

    /// [`Comm::reduce`] as a maybe-async core.
    pub async fn reduce_async<T: crate::datum::Datum>(
        &self,
        data: &[T],
        root: usize,
        op: impl Fn(&T, &T) -> T,
    ) -> Result<Option<Vec<T>>> {
        let s = self.state.router.vendor.coll_scale.reduce;
        coll::reduce_async(&self.scaled(s), data, root, tags::REDUCE, op).await
    }

    /// [`Comm::allreduce`] as a maybe-async core.
    pub async fn allreduce_async<T: crate::datum::Datum>(
        &self,
        data: &[T],
        op: impl Fn(&T, &T) -> T,
    ) -> Result<Vec<T>> {
        let s = self.state.router.vendor.coll_scale.reduce;
        coll::allreduce_async(&self.scaled(s), data, tags::ALLREDUCE, op).await
    }

    /// [`Comm::scan`] as a maybe-async core.
    pub async fn scan_async<T: crate::datum::Datum>(
        &self,
        data: &[T],
        op: impl Fn(&T, &T) -> T,
    ) -> Result<Vec<T>> {
        let s = self.state.router.vendor.coll_scale.scan;
        coll::scan_async(&self.scaled(s), data, tags::SCAN, op).await
    }

    /// [`Comm::exscan`] as a maybe-async core.
    pub async fn exscan_async<T: crate::datum::Datum>(
        &self,
        data: &[T],
        op: impl Fn(&T, &T) -> T,
    ) -> Result<Option<Vec<T>>> {
        let s = self.state.router.vendor.coll_scale.scan;
        coll::exscan_async(&self.scaled(s), data, tags::EXSCAN, op).await
    }

    /// [`Comm::gather`] as a maybe-async core.
    pub async fn gather_async<T: crate::datum::Datum>(
        &self,
        data: Vec<T>,
        root: usize,
    ) -> Result<Option<Vec<T>>> {
        let s = self.state.router.vendor.coll_scale.gather;
        coll::gather_async(&self.scaled(s), data, root, tags::GATHER).await
    }

    /// [`Comm::gatherv`] as a maybe-async core.
    pub async fn gatherv_async<T: crate::datum::Datum>(
        &self,
        data: Vec<T>,
        root: usize,
    ) -> Result<Option<Vec<Vec<T>>>> {
        let s = self.state.router.vendor.coll_scale.gather;
        coll::gatherv_async(&self.scaled(s), data, root, tags::GATHERV).await
    }

    /// [`Comm::allgather1`] as a maybe-async core.
    pub async fn allgather1_async<T: crate::datum::Datum>(&self, item: T) -> Result<Vec<T>> {
        let s = self.state.router.vendor.coll_scale.gather;
        coll::allgather1_async(&self.scaled(s), item, tags::ALLGATHER).await
    }

    /// [`Comm::barrier`] as a maybe-async core.
    pub async fn barrier_async(&self) -> Result<()> {
        let s = self.state.router.vendor.coll_scale.barrier;
        coll::barrier_async(&self.scaled(s), tags::BARRIER).await
    }

    /// [`Comm::alltoallv`] as a maybe-async core.
    pub async fn alltoallv_async<T: crate::datum::Datum>(
        &self,
        send: Vec<Vec<T>>,
    ) -> Result<Vec<Vec<T>>> {
        let s = self.state.router.vendor.coll_scale.other;
        coll::alltoallv_async(&self.scaled(s), send, tags::ALLTOALL).await
    }

    /// [`Comm::scatter`] as a maybe-async core.
    pub async fn scatter_async<T: crate::datum::Datum>(
        &self,
        data: Option<Vec<T>>,
        root: usize,
    ) -> Result<Vec<T>> {
        let s = self.state.router.vendor.coll_scale.other;
        coll::scatter_async(&self.scaled(s), data, root, tags::SCATTER).await
    }

    /// [`Comm::scatterv`] as a maybe-async core.
    pub async fn scatterv_async<T: crate::datum::Datum>(
        &self,
        blocks: Option<Vec<Vec<T>>>,
        root: usize,
    ) -> Result<Vec<T>> {
        let s = self.state.router.vendor.coll_scale.other;
        coll::scatterv_async(&self.scaled(s), blocks, root, tags::SCATTERV).await
    }

    /// [`Comm::allgatherv`] as a maybe-async core.
    pub async fn allgatherv_async<T: crate::datum::Datum>(
        &self,
        data: Vec<T>,
    ) -> Result<Vec<Vec<T>>> {
        let s = self.state.router.vendor.coll_scale.gather;
        coll::allgatherv_async(&self.scaled(s), data, tags::ALLGATHERV).await
    }

    // ---- nonblocking collectives (MPI-3 style, vendor implementations) -------

    /// `MPI_Ibcast`.
    pub fn ibcast<T: crate::datum::Datum>(
        &self,
        data: Option<Vec<T>>,
        root: usize,
    ) -> Result<crate::nbcoll::Ibcast<T, crate::transport::Scaled<Comm>>> {
        let s = self.state.router.vendor.coll_scale.bcast;
        crate::nbcoll::ibcast(&self.scaled(s), data, root, tags::IBCAST)
    }

    /// `MPI_Ireduce`.
    pub fn ireduce<T: crate::datum::Datum, F>(
        &self,
        data: &[T],
        root: usize,
        op: F,
    ) -> Result<crate::nbcoll::Ireduce<T, crate::transport::Scaled<Comm>, F>>
    where
        F: Fn(&T, &T) -> T + Send + 'static,
    {
        let s = self.state.router.vendor.coll_scale.reduce;
        crate::nbcoll::ireduce(&self.scaled(s), data, root, tags::IREDUCE, op)
    }

    /// `MPI_Iscan` (inclusive; the machine also exposes the exclusive
    /// prefix).
    pub fn iscan<T: crate::datum::Datum, F>(
        &self,
        data: &[T],
        op: F,
    ) -> Result<crate::nbcoll::Iscan<T, crate::transport::Scaled<Comm>, F>>
    where
        F: Fn(&T, &T) -> T + Send + 'static,
    {
        let s = self.state.router.vendor.coll_scale.scan;
        crate::nbcoll::iscan(&self.scaled(s), data, tags::ISCAN, op)
    }

    /// `MPI_Igather`.
    pub fn igather<T: crate::datum::Datum>(
        &self,
        data: Vec<T>,
        root: usize,
    ) -> Result<crate::nbcoll::Igather<T, crate::transport::Scaled<Comm>>> {
        let s = self.state.router.vendor.coll_scale.gather;
        crate::nbcoll::igather(&self.scaled(s), data, root, tags::IGATHER)
    }

    /// `MPI_Igatherv`.
    pub fn igatherv<T: crate::datum::Datum>(
        &self,
        data: Vec<T>,
        root: usize,
    ) -> Result<crate::nbcoll::Igatherv<T, crate::transport::Scaled<Comm>>> {
        let s = self.state.router.vendor.coll_scale.gather;
        crate::nbcoll::igatherv(&self.scaled(s), data, root, tags::IGATHERV)
    }

    /// `MPI_Ibarrier`.
    pub fn ibarrier(&self) -> Result<crate::nbcoll::Ibarrier<crate::transport::Scaled<Comm>>> {
        let s = self.state.router.vendor.coll_scale.barrier;
        crate::nbcoll::ibarrier(&self.scaled(s), tags::IBARRIER)
    }
}

impl Transport for Comm {
    fn rank(&self) -> usize {
        self.inner.rank
    }

    fn size(&self) -> usize {
        self.inner.group.len()
    }

    fn state(&self) -> &Arc<ProcState> {
        &self.state
    }

    fn ctx(&self) -> ContextId {
        self.inner.ctx
    }

    fn translate(&self, rank: usize) -> usize {
        self.inner.group.translate(rank)
    }

    fn rank_of_global(&self, global: usize) -> Option<usize> {
        self.inner.group.inverse(global)
    }

    fn any_source_filter(&self) -> SrcFilter {
        // A native communicator owns its context: any message in it comes
        // from a member.
        SrcFilter::Any
    }
}
