//! Communicator backends: the comparison axis of the paper's Fig. 8.
//!
//! JQuick is generic over how process-group communicators are obtained:
//!
//! * [`RbcBackend`] — `rbc::Split_RBC_Comm`: local, O(1), no communication;
//! * [`MpiBackend`] — native `MPI_Comm_create_group` per recursion level:
//!   a blocking collective whose cost grows with the group size (and is
//!   catastrophic under the IBM-like profile).
//!
//! Both backends run the *same* JQuick code; collective traffic is priced
//! by the communicator's own [`Transport::coll_scale`] (the vendor profile
//! for a native `Comm`, neutral for an `RbcComm`), mirroring that native
//! JQuick uses `MPI_Ibcast`/`MPI_Iscan` etc. while RBC JQuick uses RBC's
//! p2p-composed collectives. A backend decides only how communicators are
//! built.

use mpisim::{Comm, Result, Tag, Transport};
use rbc::RbcComm;

/// Splitting schedule for janus processes (paper §VIII-C): "In our
/// alternating schedule every other janus process splits the left group
/// first and the remaining janus processes split the right group first."
/// Cascaded splitting makes every janus split its left group first, which
/// chains native communicator constructions across the whole machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Every other janus splits its left group first (the paper's fix).
    #[default]
    Alternating,
    /// Every janus splits left first — the pathological chain of §VIII-C.
    Cascaded,
}

impl Schedule {
    /// Should process `me` create its LEFT-extending group first?
    pub fn left_first(&self, me: u64) -> bool {
        match self {
            Schedule::Cascaded => true,
            Schedule::Alternating => me.is_multiple_of(2),
        }
    }
}

/// A communicator-construction strategy JQuick is generic over: RBC range
/// splits or native MPI `comm_create_group` (the Fig. 8 comparison).
pub trait Backend: Send + Sync {
    /// The communicator type this backend produces.
    type C: Transport;

    /// A communicator over all processes, with rank == global index.
    fn world(&self, world: &Comm) -> Result<Self::C>;

    /// Derive the communicator for ranks `f..=l` (in `parent`'s rank
    /// space). For RBC this is local and O(1) and resolves without
    /// suspending; for native MPI it awaits a `create_group` collective
    /// over the new group. Any communication suspends instead of
    /// blocking, so the driver can run as an async rank body
    /// (`Universe::run_poll`).
    fn split_range_async(
        &self,
        parent: &Self::C,
        f: usize,
        l: usize,
        tag: Tag,
    ) -> impl std::future::Future<Output = Result<Self::C>> + Send;

    /// Short name for statistics and benchmark labels.
    fn name(&self) -> &'static str;
}

/// RBC: lightweight range-based communicators.
#[derive(Clone, Copy, Debug, Default)]
pub struct RbcBackend;

impl Backend for RbcBackend {
    type C = RbcComm;

    fn world(&self, world: &Comm) -> Result<RbcComm> {
        Ok(RbcComm::create(world))
    }

    async fn split_range_async(
        &self,
        parent: &RbcComm,
        f: usize,
        l: usize,
        _tag: Tag,
    ) -> Result<RbcComm> {
        // RBC splits are local arithmetic — nothing to suspend on.
        parent.split(f, l)
    }

    fn name(&self) -> &'static str {
        "rbc"
    }
}

/// Native MPI: one blocking `MPI_Comm_create_group` per subtask per level.
#[derive(Clone, Copy, Debug, Default)]
pub struct MpiBackend;

impl Backend for MpiBackend {
    type C = Comm;

    fn world(&self, world: &Comm) -> Result<Comm> {
        Ok(world.clone())
    }

    async fn split_range_async(&self, parent: &Comm, f: usize, l: usize, tag: Tag) -> Result<Comm> {
        let group = parent.group().subrange(f, l, 1);
        parent.create_group_async(&group, tag).await
    }

    fn name(&self) -> &'static str {
        "mpi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{block_inline, Universe};

    #[test]
    fn schedule_parity() {
        assert!(Schedule::Alternating.left_first(0));
        assert!(!Schedule::Alternating.left_first(1));
        assert!(Schedule::Cascaded.left_first(0));
        assert!(Schedule::Cascaded.left_first(1));
    }

    #[test]
    fn backends_split_equivalently() {
        let res = Universe::run_default(6, |env| {
            let rb = RbcBackend.world(&env.world).unwrap();
            let mb = MpiBackend.world(&env.world).unwrap();
            let me = env.rank();
            let (f, l) = if me < 3 { (0, 2) } else { (3, 5) };
            let rc = block_inline(RbcBackend.split_range_async(&rb, f, l, 900)).unwrap();
            let mc = block_inline(MpiBackend.split_range_async(&mb, f, l, 902)).unwrap();
            (rc.rank(), rc.size(), mc.rank(), mc.size())
        });
        for (r, (rr, rs, mr, ms)) in res.per_rank.into_iter().enumerate() {
            assert_eq!((rr, rs), (r % 3, 3));
            assert_eq!((mr, ms), (r % 3, 3));
        }
    }

    #[test]
    fn rbc_split_is_cheaper_than_mpi_split() {
        let res = Universe::run_default(8, |env| {
            let me = env.rank();
            let (f, l) = if me < 4 { (0, 3) } else { (4, 7) };
            let rb = RbcBackend.world(&env.world).unwrap();
            let t0 = env.now();
            block_inline(RbcBackend.split_range_async(&rb, f, l, 0)).unwrap();
            let rbc_cost = env.now() - t0;
            let mb = MpiBackend.world(&env.world).unwrap();
            let t0 = env.now();
            block_inline(MpiBackend.split_range_async(&mb, f, l, 904)).unwrap();
            let mpi_cost = env.now() - t0;
            (rbc_cost, mpi_cost)
        });
        for (rbc_cost, mpi_cost) in res.per_rank {
            assert!(
                mpi_cost.as_nanos() > 20 * rbc_cost.as_nanos().max(1),
                "rbc={rbc_cost} mpi={mpi_cost}"
            );
        }
    }
}
