//! RBC communicators (paper §V-A).
//!
//! An RBC communicator stores an MPI communicator `M`, the rank `f` of its
//! first process in `M`, and the rank `l` of its last process (plus an
//! optional stride, footnote 2). It is created **locally, in constant time,
//! without communication** — no collective call, no synchronization, no
//! context-ID agreement. All communication happens in `M`'s context; tags
//! disambiguate (see [`mpisim::tags`] and the overlap rules in §V-A).

use std::sync::Arc;

use mpisim::msg::SrcFilter;
use mpisim::{Comm, ContextId, MpiError, Result, Time, Transport};

/// Constant local cost of creating/splitting an RBC communicator.
const CREATE_COST: Time = Time(50);

/// A range-based communicator: processes `f, f+s, ..., l` of a base MPI
/// communicator. Cloning shares the handle (cheap).
#[derive(Clone)]
pub struct RbcComm {
    base: Comm,
    /// First member's rank in the base communicator.
    first: usize,
    /// Last member's rank in the base communicator.
    last: usize,
    /// Stride in base ranks (1 = contiguous).
    stride: usize,
}

impl RbcComm {
    /// `rbc::Create_RBC_Comm`: an RBC communicator containing **all**
    /// processes of an MPI communicator. Local, O(1), no communication.
    pub fn create(base: &Comm) -> RbcComm {
        base.proc_state().charge(CREATE_COST);
        RbcComm {
            base: base.clone(),
            first: 0,
            last: base.size() - 1,
            stride: 1,
        }
    }

    /// `rbc::Split_RBC_Comm`: a new RBC communicator containing processes
    /// with ranks `f..=l` of this RBC communicator. Local, O(1), no
    /// communication; only the members need to call it. Errors if the
    /// calling process is not inside the new range.
    pub fn split(&self, f: usize, l: usize) -> Result<RbcComm> {
        self.split_strided(f, l, 1)
    }

    /// Strided split (paper footnote 2): members are ranks
    /// `f, f+s, ..., f + s·⌊(l−f)/s⌋` of this communicator.
    pub fn split_strided(&self, f: usize, l: usize, s: usize) -> Result<RbcComm> {
        if s == 0 || f > l || l >= self.size() {
            return Err(MpiError::Usage(format!(
                "invalid RBC range {f}..={l} step {s} of size {}",
                self.size()
            )));
        }
        let len = (l - f) / s + 1;
        let new = RbcComm {
            base: self.base.clone(),
            first: self.first + self.stride * f,
            last: self.first + self.stride * (f + s * (len - 1)),
            stride: self.stride * s,
        };
        if new.base_member_rank(self.base.rank()).is_none() {
            return Err(MpiError::Usage(format!(
                "process with base rank {} is not in the new RBC range",
                self.base.rank()
            )));
        }
        self.base.proc_state().charge(CREATE_COST);
        Ok(new)
    }

    /// The base MPI communicator this range lives in.
    pub fn base(&self) -> &Comm {
        &self.base
    }

    /// `(first, last, stride)` in base ranks.
    pub fn range(&self) -> (usize, usize, usize) {
        (self.first, self.last, self.stride)
    }

    /// RBC rank of a base-communicator rank, if a member
    /// ("The RBC rank of a process with MPI rank m in M is m − f", §V-A).
    fn base_member_rank(&self, base_rank: usize) -> Option<usize> {
        if base_rank < self.first || base_rank > self.last {
            return None;
        }
        let off = base_rank - self.first;
        off.is_multiple_of(self.stride).then(|| off / self.stride)
    }

    /// Base-communicator rank of an RBC rank.
    pub fn to_base_rank(&self, rbc_rank: usize) -> usize {
        self.first + self.stride * rbc_rank
    }

    /// Number of processes shared with another RBC communicator on the same
    /// base. Per §V-A: if at most one process is shared, communication on
    /// the two communicators never interferes and tags are unrestricted.
    pub fn overlap_count(&self, other: &RbcComm) -> usize {
        (0..self.size())
            .filter(|&r| other.base_member_rank(self.to_base_rank(r)).is_some())
            .count()
    }
}

impl Transport for RbcComm {
    fn rank(&self) -> usize {
        self.base_member_rank(self.base.rank())
            .expect("holder of an RbcComm handle is a member")
    }

    fn size(&self) -> usize {
        (self.last - self.first) / self.stride + 1
    }

    fn state(&self) -> &Arc<mpisim::proc::ProcState> {
        self.base.proc_state()
    }

    fn ctx(&self) -> ContextId {
        // The whole point: RBC has no context of its own; it reuses M's.
        self.base.ctx()
    }

    fn translate(&self, rank: usize) -> usize {
        self.base.translate(self.to_base_rank(rank))
    }

    fn rank_of_global(&self, global: usize) -> Option<usize> {
        self.base
            .rank_of_global(global)
            .and_then(|br| self.base_member_rank(br))
    }

    fn any_source_filter(&self) -> SrcFilter {
        // §V-C: on a wildcard we may only accept messages whose source is a
        // member of THIS range — other traffic in the shared context must
        // be left alone. Over a base communicator in Range format (the
        // world, any RBC-style base) the members are an arithmetic
        // progression of global ranks: plain data, so a polling loop's
        // wildcard per sweep allocates nothing.
        let strided = self.base.group().as_range().and_then(|(first, stride, _)| {
            Some(SrcFilter::Strided {
                first: first + stride * self.first,
                stride: u32::try_from(stride * self.stride).ok()?,
                len: u32::try_from(self.size()).ok()?,
            })
        });
        // An irregular base has no such closed form: test membership
        // through the base's rank table.
        strided.unwrap_or_else(|| {
            let me = self.clone();
            SrcFilter::Filter(Arc::new(move |global| me.rank_of_global(global).is_some()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::Universe;

    #[test]
    fn create_covers_whole_world() {
        let res = Universe::run_default(4, |env| {
            let c = RbcComm::create(&env.world);
            (c.rank(), c.size(), c.range())
        });
        for (r, (rr, s, range)) in res.per_rank.into_iter().enumerate() {
            assert_eq!(rr, r);
            assert_eq!(s, 4);
            assert_eq!(range, (0, 3, 1));
        }
    }

    #[test]
    fn split_is_local_and_constant_time() {
        let res = Universe::run_default(8, |env| {
            let world = RbcComm::create(&env.world);
            let t0 = env.now();
            let half = if world.rank() < 4 {
                world.split(0, 3).unwrap()
            } else {
                world.split(4, 7).unwrap()
            };
            let dt = env.now() - t0;
            (half.rank(), half.size(), dt)
        });
        for (r, (hr, hs, dt)) in res.per_rank.into_iter().enumerate() {
            assert_eq!(hs, 4);
            assert_eq!(hr, r % 4);
            // Far below a single message startup (α = 10 µs): no
            // communication happened.
            assert!(dt.as_nanos() < 1_000, "split cost {dt}");
        }
    }

    #[test]
    fn nested_splits_compose() {
        let res = Universe::run_default(8, |env| {
            let world = RbcComm::create(&env.world);
            let r = world.rank();
            let half = world.split((r / 4) * 4, (r / 4) * 4 + 3).unwrap();
            let quarter = half
                .split((half.rank() / 2) * 2, (half.rank() / 2) * 2 + 1)
                .unwrap();
            (quarter.rank(), quarter.size(), quarter.range())
        });
        assert_eq!(res.per_rank[5], (1, 2, (4, 5, 1)));
        assert_eq!(res.per_rank[6], (0, 2, (6, 7, 1)));
    }

    #[test]
    fn strided_split_ranks() {
        let res = Universe::run_default(8, |env| {
            let world = RbcComm::create(&env.world);
            if world.rank().is_multiple_of(2) {
                let evens = world.split_strided(0, 7, 2).unwrap(); // 0,2,4,6
                Some((evens.rank(), evens.size(), evens.to_base_rank(evens.rank())))
            } else {
                None
            }
        });
        assert_eq!(res.per_rank[4], Some((2, 4, 4)));
        assert_eq!(res.per_rank[0], Some((0, 4, 0)));
        assert_eq!(res.per_rank[1], None);
    }

    #[test]
    fn strided_of_strided() {
        let res = Universe::run_default(16, |env| {
            let world = RbcComm::create(&env.world);
            if !world.rank().is_multiple_of(2) {
                return None;
            }
            let evens = world.split_strided(0, 15, 2).unwrap(); // 0,2,...,14
            if !evens.rank().is_multiple_of(2) {
                return None;
            }
            let fourth = evens.split_strided(0, 7, 2).unwrap(); // base 0,4,8,12
            Some((fourth.rank(), fourth.range()))
        });
        assert_eq!(res.per_rank[8], Some((2, (0, 12, 4))));
        assert_eq!(res.per_rank[2], None);
    }

    #[test]
    fn non_member_split_rejected() {
        let res = Universe::run_default(4, |env| {
            let world = RbcComm::create(&env.world);
            if world.rank() == 3 {
                world.split(0, 1).err()
            } else {
                None
            }
        });
        assert!(matches!(res.per_rank[3], Some(MpiError::Usage(_))));
    }

    #[test]
    fn overlap_counting() {
        let res = Universe::run_default(7, |env| {
            let world = RbcComm::create(&env.world);
            if world.rank() != 3 {
                return 0;
            }
            let left = world.split(0, 3).unwrap();
            let right = world.split(3, 6).unwrap();
            left.overlap_count(&right)
        });
        assert_eq!(res.per_rank[3], 1);
    }

    #[test]
    fn wildcard_filter_is_range_membership_without_a_closure() {
        let res = Universe::run_default(16, |env| {
            let world = RbcComm::create(&env.world);
            if !world.rank().is_multiple_of(4) {
                return true;
            }
            // Base ranks 0, 4, 8, 12 through two strided splits.
            let evens = world.split_strided(0, 15, 2).unwrap();
            let fourth = evens.split_strided(0, 7, 2).unwrap();
            let filter = fourth.any_source_filter();
            matches!(filter, SrcFilter::Strided { .. })
                && (0..16).all(|g| filter.matches(g) == fourth.rank_of_global(g).is_some())
        });
        assert!(res.per_rank.iter().all(|&ok| ok));
    }

    #[test]
    fn wildcard_filter_over_an_irregular_base_uses_its_rank_table() {
        let res = Universe::run_default(6, |env| {
            let members = [4usize, 0, 3, 1];
            if !members.contains(&env.world.rank()) {
                return true;
            }
            let group = mpisim::Group::from_ranks(members.to_vec());
            let base = env.world.create_group(&group, 5).unwrap();
            // Base ranks 1..=3 are globals 0, 3, 1.
            let Ok(sub) = RbcComm::create(&base).split(1, 3) else {
                return true; // global 4 is not in the sub-range
            };
            let filter = sub.any_source_filter();
            matches!(filter, SrcFilter::Filter(_))
                && (0..6).all(|g| filter.matches(g) == [0, 3, 1].contains(&g))
        });
        assert!(res.per_rank.iter().all(|&ok| ok));
    }

    #[test]
    fn rank_translation_roundtrip() {
        let res = Universe::run_default(12, |env| {
            let world = RbcComm::create(&env.world);
            if world.rank() < 2 || world.rank() > 10 || !(world.rank() - 2).is_multiple_of(3) {
                return true;
            }
            let sub = world.split_strided(2, 10, 3).unwrap(); // 2,5,8
            (0..sub.size()).all(|r| {
                let g = sub.translate(r);
                sub.rank_of_global(g) == Some(r)
            })
        });
        assert!(res.per_rank.iter().all(|&ok| ok));
    }
}
