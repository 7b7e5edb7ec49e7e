//! `MPI_Icomm_create_group` — the paper's §VI proposal.
//!
//! Nonblocking communicator creation that does not weaken MPI semantics:
//! the new communicator gets a *wide* context ID `⟨a, b, f, l, c⟩` managed
//! as follows.
//!
//! * If the new group is a **contiguous range** `f'..l'` of the parent's
//!   ranks, every member computes `⟨a, b, f+f', f+l', c+1⟩` **locally in
//!   constant time** — no communication at all. (When `f' = 0` and
//!   `l' = l−f` the group equals the parent's and `c+1` alone distinguishes
//!   the two.)
//! * Otherwise the *first* process of the group builds `⟨a, b, 0, l, 0⟩`
//!   from its own process ID `a` and a local counter `b`, increments the
//!   counter, and broadcasts the ID over the group with the user-supplied
//!   tag — a nonblocking O(α log g) operation.
//!
//! As the paper notes, two creations issued simultaneously both make
//! progress because the broadcasts overlap — unlike mask-all-reduce-based
//! designs, which must serialise.
//!
//! Caveat inherited from the proposal: re-creating the *same* range from
//! the *same* parent yields the same ID, so such communicators must not be
//! used concurrently (create a `dup` first, as with MPI tag collisions).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::coll;
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::group::Group;
use crate::msg::{ContextId, Tag};
use crate::nbcoll::{self, Nbc, Progress};
use crate::proc::ProcState;
use crate::time::Time;
use crate::transport::Transport;

/// Constant local cost of the range-case ID computation.
const LOCAL_CREATE_COST: Time = Time(100);

/// Normalise a parent context ID to wide form so the range rule can be
/// applied uniformly (small mask-allocated IDs are embedded with
/// `a = u32::MAX`, which no process ID uses).
fn widen(ctx: ContextId, parent_size: usize) -> (u32, u32, u32, u32, u32) {
    match ctx {
        ContextId::Wide { a, b, f, l, c } => (a, b, f, l, c),
        ContextId::Small(x) => (u32::MAX, x, 0, parent_size as u32 - 1, 0),
    }
}

/// A pending nonblocking communicator creation: complete at once on the
/// range path, otherwise the broadcast of the new context ID followed by
/// building the communicator, polled like every nonblocking collective
/// ([`nbcoll`]).
pub struct IcommCreate(Nbc<Option<Comm>>);

/// Begin nonblocking creation of a communicator over `group`, a subset of
/// `parent`'s processes. Must be called by every member of `group` (and
/// only those). `tag` disambiguates concurrent creations on one parent.
/// A member that is not a process of the universe is an
/// [`MpiError::Usage`].
pub fn icomm_create_group(parent: &Comm, group: &Group, tag: Tag) -> Result<IcommCreate> {
    parent.check_members(group)?;
    let me = parent.proc_state().global_rank;
    let my_rank = group
        .inverse(me)
        .ok_or_else(|| MpiError::Usage("caller not in new group".into()))?;
    let psize = parent.size();

    if let Some((f_prime, l_prime)) = group.as_range_of(parent.group()) {
        // Constant-time local path: no communication, no synchronization.
        let (a, b, f, _l, c) = widen(parent.ctx(), psize);
        let ctx = ContextId::Wide {
            a,
            b,
            f: f + f_prime as u32,
            l: f + l_prime as u32,
            c: c + 1,
        };
        parent.proc_state().charge(LOCAL_CREATE_COST);
        let comm = parent.with_new_ctx(ctx, group.clone())?;
        return Ok(IcommCreate(Nbc::ready(parent.proc_state(), Some(comm))));
    }

    // General path: first process picks the ID and broadcasts it over the
    // group (using the parent's context and the user tag).
    let view = parent.with_new_ctx(parent.ctx(), group.clone())?;
    let payload = (my_rank == 0).then(|| {
        let b = parent
            .proc_state()
            .icomm_counter
            .fetch_add(1, Ordering::Relaxed);
        Arc::new(vec![[me as u32, b, 0, group.len() as u32 - 1, 0]])
    });
    let group = group.clone();
    let core = async move {
        let id = coll::bcast_shared_async(&view, payload, 0, tag).await?[0];
        let [a, b, f, l, c] = id;
        let ctx = ContextId::Wide { a, b, f, l, c };
        Ok(Some(view.with_new_ctx(ctx, group)?))
    };
    Ok(IcommCreate(Nbc::start(
        Arc::clone(parent.proc_state()),
        core,
    )?))
}

impl IcommCreate {
    /// Take the created communicator once complete.
    pub fn take(&mut self) -> Option<Comm> {
        self.0.out_mut()?.take()
    }

    /// Whether creation has completed.
    pub fn is_done(&self) -> bool {
        self.0.out().is_some()
    }

    /// Block until creation completes and return the communicator.
    pub fn wait_comm(self) -> Result<Comm> {
        crate::block_inline(self.wait_comm_async())
    }

    /// [`IcommCreate::wait_comm`] as a maybe-async core (see
    /// [`nbcoll::wait_async`]).
    pub async fn wait_comm_async(mut self) -> Result<Comm> {
        nbcoll::wait_async(&mut self).await?;
        Ok(self.take().expect("completed creation yields a comm"))
    }
}

impl Progress for IcommCreate {
    fn poll(&mut self) -> Result<bool> {
        self.0.poll()
    }

    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        self.0.proc_state()
    }
}
