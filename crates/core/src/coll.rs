//! Blocking collective operations on RBC communicators (paper §V-D).
//!
//! "Collective operations are implemented with point-to-point communication
//! provided by the RBC library. ... All implementations exploit binomial
//! tree based communication patterns." The thirteen blocking collectives
//! (`bcast`, `reduce`, `scan`, ..., with their `_async` forms) are
//! [`mpisim::Transport`]'s provided methods, which `RbcComm` implements at
//! neutral cost; each uses a distinct exclusive reserved tag, so as long as
//! user code avoids reserved tags, blocking collectives never interfere
//! with other communication. This module adds only the size-adaptive
//! extensions [`RbcComm::bcast_auto`] and [`RbcComm::reduce_auto`].

use mpisim::{tags, Datum, Result};

use crate::comm::RbcComm;

impl RbcComm {
    /// Size-adaptive broadcast (extension per §V-D: additional collectives
    /// "for large input sizes"): uses the binomial tree for small payloads
    /// and a scatter + ring-allgather full-bandwidth algorithm above the
    /// α/β crossover.
    pub fn bcast_auto<T: Datum>(&self, data: &mut Vec<T>, root: usize) -> Result<()> {
        mpisim::coll_large::bcast_auto(self, data, root, tags::BCAST_LARGE)
    }

    /// Size-adaptive reduction (extension; reduce-scatter + gather above
    /// the crossover).
    pub fn reduce_auto<T: Datum>(
        &self,
        data: &[T],
        root: usize,
        op: impl Fn(&T, &T) -> T,
    ) -> Result<Option<Vec<T>>> {
        mpisim::coll_large::reduce_auto(self, data, root, tags::REDUCE_LARGE, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{ops, Time, Transport, Universe};

    #[test]
    fn collectives_scoped_to_range() {
        // Collectives on a half must only involve the half's processes.
        let res = Universe::run_default(8, |env| {
            let world = RbcComm::create(&env.world);
            let r = world.rank();
            let half = if r < 4 {
                world.split(0, 3).unwrap()
            } else {
                world.split(4, 7).unwrap()
            };
            let sum = half.allreduce(&[r as u64], ops::sum::<u64>()).unwrap()[0];
            let mut top = vec![if half.rank() == 0 { r as u64 } else { 0 }];
            half.bcast(&mut top, 0).unwrap();
            (sum, top[0])
        });
        for (r, (sum, top)) in res.per_rank.into_iter().enumerate() {
            if r < 4 {
                assert_eq!((sum, top), (1 + 2 + 3, 0));
            } else {
                assert_eq!((sum, top), (4 + 5 + 6 + 7, 4));
            }
        }
    }

    #[test]
    fn scan_on_subrange_uses_rbc_ranks() {
        let res = Universe::run_default(6, |env| {
            let world = RbcComm::create(&env.world);
            if world.rank() < 2 {
                return None;
            }
            let sub = world.split(2, 5).unwrap();
            Some(sub.scan(&[1u64], ops::sum::<u64>()).unwrap()[0])
        });
        assert_eq!(
            res.per_rank,
            vec![None, None, Some(1), Some(2), Some(3), Some(4)]
        );
    }

    #[test]
    fn gatherv_on_strided_range() {
        let res = Universe::run_default(8, |env| {
            let world = RbcComm::create(&env.world);
            if !world.rank().is_multiple_of(2) {
                return None;
            }
            let evens = world.split_strided(0, 7, 2).unwrap();
            let mine = vec![world.rank() as u64; evens.rank()];
            evens.gatherv(mine, 0).unwrap()
        });
        let at_root = res.per_rank[0].as_ref().unwrap();
        assert_eq!(at_root[0], Vec::<u64>::new());
        assert_eq!(at_root[1], vec![2]);
        assert_eq!(at_root[2], vec![4, 4]);
        assert_eq!(at_root[3], vec![6, 6, 6]);
    }

    #[test]
    fn two_halves_run_collectives_concurrently_without_interference() {
        // Same reserved tags, same base context, disjoint ranges: matching
        // by source keeps them apart (overlap = 0 here).
        let res = Universe::run_default(8, |env| {
            let world = RbcComm::create(&env.world);
            let r = world.rank();
            let half = if r < 4 {
                world.split(0, 3).unwrap()
            } else {
                world.split(4, 7).unwrap()
            };
            // Desynchronise the halves in virtual time.
            if r >= 4 {
                env.state().charge(Time::from_millis(5));
            }
            half.allreduce(&[r as u64], ops::sum::<u64>()).unwrap()[0]
        });
        assert_eq!(res.per_rank[..4], [6, 6, 6, 6]);
        assert_eq!(res.per_rank[4..], [22, 22, 22, 22]);
    }

    #[test]
    fn reduce_root_only() {
        let res = Universe::run_default(5, |env| {
            let world = RbcComm::create(&env.world);
            world
                .reduce(&[1u64, world.rank() as u64], 2, ops::sum::<u64>())
                .unwrap()
        });
        assert_eq!(res.per_rank[2], Some(vec![5, 1 + 2 + 3 + 4]));
        assert_eq!(res.per_rank[0], None);
    }

    #[test]
    fn barrier_on_subrange_does_not_touch_outsiders() {
        let res = Universe::run_default(6, |env| {
            let world = RbcComm::create(&env.world);
            if world.rank() < 3 {
                let sub = world.split(0, 2).unwrap();
                sub.barrier().unwrap();
            }
            // Outsiders do nothing and must not hang or receive anything.
            env.now()
        });
        // Ranks 3..5 never communicated: their clocks show only the O(1)
        // local communicator-creation cost, far below one message startup.
        for t in &res.per_rank[3..] {
            assert!(t.as_nanos() < 1_000, "outsider clock {t}");
        }
    }
}
