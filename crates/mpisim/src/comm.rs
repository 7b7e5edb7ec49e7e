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
//!
//! Its collectives, blocking and nonblocking, are [`Transport`]'s provided
//! methods, the same binomial algorithms as RBC's; `Comm` only prices
//! them, overriding [`Transport::coll_scale`] with its vendor profile's
//! [`CollScales`](crate::model::CollScales). What it adds are six one-line
//! adapters with the MPI-3 signatures (`ibcast`, ...): `MPI_I*` take no
//! tag, so each calls the trait's method on its reserved default.

use std::sync::Arc;

use crate::coll;
use crate::context::{mask_and, CtxMask, CtxPool};
use crate::datum::{ops, Datum};
use crate::error::{MpiError, Result};
use crate::group::Group;
use crate::model::{CostScale, CreateGroupAlgo};
use crate::msg::{ContextId, SrcFilter, Tag};
use crate::nbcoll::{Ibarrier, Ibcast, Igather, Igatherv, Ireduce, Iscan};
use crate::obs::OpClass;
use crate::proc::ProcState;
use crate::tags;
use crate::time::Time;
use crate::transport::{Scaled, Transport};

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

    // ---- nonblocking collectives: MPI's tagless signatures -----------------
    // `MPI_I*` take no tag: each runs `Transport`'s method of its name on
    // the reserved default.

    /// `MPI_Ibcast`: [`Transport::ibcast`] on its reserved tag.
    pub fn ibcast<T: Datum>(
        &self,
        data: Option<Vec<T>>,
        root: usize,
    ) -> Result<Ibcast<T, Scaled<Comm>>> {
        Transport::ibcast(self, data, root, None)
    }

    /// `MPI_Ireduce`: [`Transport::ireduce`] on its reserved tag.
    pub fn ireduce<T: Datum, F: Fn(&T, &T) -> T + Send + 'static>(
        &self,
        data: &[T],
        root: usize,
        op: F,
    ) -> Result<Ireduce<T, Scaled<Comm>, F>> {
        Transport::ireduce(self, data, root, op, None)
    }

    /// `MPI_Iscan`: [`Transport::iscan`] on its reserved tag.
    pub fn iscan<T: Datum, F: Fn(&T, &T) -> T + Send + 'static>(
        &self,
        data: &[T],
        op: F,
    ) -> Result<Iscan<T, Scaled<Comm>, F>> {
        Transport::iscan(self, data, op, None)
    }

    /// `MPI_Igather`: [`Transport::igather`] on its reserved tag.
    pub fn igather<T: Datum>(&self, data: Vec<T>, root: usize) -> Result<Igather<T, Scaled<Comm>>> {
        Transport::igather(self, data, root, None)
    }

    /// `MPI_Igatherv`: [`Transport::igatherv`] on its reserved tag.
    pub fn igatherv<T: Datum>(
        &self,
        data: Vec<T>,
        root: usize,
    ) -> Result<Igatherv<T, Scaled<Comm>>> {
        Transport::igatherv(self, data, root, None)
    }

    /// `MPI_Ibarrier`: [`Transport::ibarrier`] on its reserved tag.
    pub fn ibarrier(&self) -> Result<Ibarrier<Scaled<Comm>>> {
        Transport::ibarrier(self, None)
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

    fn coll_scale(&self, class: OpClass) -> CostScale {
        // The vendor's collectives: the same algorithms as RBC's, priced by
        // the vendor profile.
        self.state.router.vendor.coll_scale.of(class)
    }
}
