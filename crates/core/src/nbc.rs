//! Nonblocking operations on RBC communicators (paper §V-B/§V-D).
//!
//! Every nonblocking collective has a default exclusive tag
//! (`RBC_IBCAST_TAG` style); "alternatively, the user can specify an own
//! user-defined tag", which is what avoids interference between
//! simultaneously executed nonblocking collectives on the same RBC
//! communicator and between overlapping RBC communicators sharing more than
//! one process. A reserved tag *space* would not suffice for the latter
//! (§V-D) — hence explicit per-operation tags.
//!
//! The collectives themselves (`ibcast`, `ireduce`, `iallreduce`, `iscan`,
//! `igather`, `igatherv`, `ibarrier`) and `irecv` are [`Transport`]'s
//! provided methods, with exactly this signature: the last argument is
//! the tag, `None` for the default below. An [`RbcComm`] prices them
//! neutrally, so they are the native ones minus the vendor's cost scale.
//! What this module adds is `isend`'s check of the reserved tag space and
//! the paper's names for the default tags.
//!
//! The request machinery (`rbc::Request` smart pointer, `Test`, `Wait`,
//! `Testall`, `Waitall`) is shared with the substrate's state machines.

use mpisim::{tags, Datum, MpiError, Result, Tag, Transport};

use crate::comm::RbcComm;

// Default tags, re-exported under their paper names.

/// Default tag of [`Transport::ibcast`] (the paper's `RBC_IBCAST_TAG`).
pub const RBC_IBCAST_TAG: Tag = tags::IBCAST;
/// Default tag of [`Transport::ireduce`].
pub const RBC_IREDUCE_TAG: Tag = tags::IREDUCE;
/// Default tag of [`Transport::iscan`].
pub const RBC_ISCAN_TAG: Tag = tags::ISCAN;
/// Default tag for exclusive-prefix use of [`Transport::iscan`].
pub const RBC_IEXSCAN_TAG: Tag = tags::IEXSCAN;
/// Default tag of [`Transport::igather`].
pub const RBC_IGATHER_TAG: Tag = tags::IGATHER;
/// Default tag of [`Transport::igatherv`] (payload stream uses +1).
pub const RBC_IGATHERV_TAG: Tag = tags::IGATHERV;
/// Default tag of [`Transport::ibarrier`].
pub const RBC_IBARRIER_TAG: Tag = tags::IBARRIER;
/// Default tag of [`Transport::iallreduce`] (broadcast phase uses +1).
pub const RBC_IALLREDUCE_TAG: Tag = tags::IALLREDUCE;

impl RbcComm {
    /// `rbc::Isend` — nonblocking send. Buffered: the request is complete
    /// immediately, but is returned for API fidelity. A tag in the
    /// library-reserved space ([`tags::RESERVED_BASE`] and up) is a usage
    /// error: it could match a collective's own traffic.
    pub fn isend<T: Datum>(&self, data: Vec<T>, dest: usize, tag: Tag) -> Result<()> {
        if tags::is_reserved(tag) {
            return Err(MpiError::Usage(format!(
                "isend tag {tag} lies in the reserved tag space"
            )));
        }
        self.send_vec(data, dest, tag)
    }
}

// Blanket re-exports so user code can write `rbc::wait`, `rbc::waitall`...
pub use mpisim::nbcoll::{testall, waitall, Progress, Request};

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{ops, Src, Universe};

    /// Figure 1 of the paper, verbatim: nonblocking broadcast from rank 0
    /// to ranks 0..s/2−1 and from rank s/2 to ranks s/2..s−1, both RBC
    /// communicators created locally without synchronization, progressed
    /// with `Test` in a work loop whose "do something else" gives up the
    /// rank's turn. Returns the broadcast value and the loop's iterations.
    async fn paper_fig1(env: mpisim::ProcEnv) -> (u64, u64) {
        let world = RbcComm::create(&env.world);
        let r = world.rank();
        let s = world.size();
        let (f, l) = if r < s / 2 {
            (0, s / 2 - 1)
        } else {
            (s / 2, s - 1)
        };
        let range = world.split(f, l).unwrap();
        let payload = (range.rank() == 0).then(|| vec![f as u64]);
        let mut req = range.ibcast(payload, 0, None).unwrap();
        let (mut flag, mut iterations) = (false, 0);
        while !flag {
            iterations += 1;
            flag = crate::test(&mut req).unwrap();
            // Do something else.
            mpisim::yield_now_async().await;
        }
        (req.into_data().unwrap()[0], iterations)
    }

    /// The Fig. 1 program is a function of its seed alone: the values and
    /// the iteration column (one more than the rank's depth in its half's
    /// binomial tree) are the same at 1 and 4 workers, as thread bodies
    /// and as future bodies.
    #[test]
    fn paper_fig1_two_half_broadcasts() {
        let half = |root: u64| [(root, 1), (root, 2), (root, 2), (root, 3)];
        let want: Vec<(u64, u64)> = half(0).into_iter().chain(half(4)).collect();
        for workers in [1, 4] {
            let cfg = || mpisim::SimConfig::default().with_workers(workers);
            let threads = Universe::run(8, cfg(), |env| mpisim::block_inline(paper_fig1(env)));
            assert_eq!(threads.per_rank, want, "thread bodies, {workers} workers");
            let futures = Universe::run_poll(8, cfg(), paper_fig1);
            assert_eq!(futures.per_rank, want, "future bodies, {workers} workers");
        }
    }

    /// §V-A overlap rule: two RBC communicators sharing exactly ONE process
    /// (a janus) may use the same default tags without interference.
    #[test]
    fn janus_overlap_one_process_no_tag_restriction() {
        let res = Universe::run_default(7, |env| {
            let world = RbcComm::create(&env.world);
            let r = world.rank();
            let mut out = Vec::new();
            let left = (r <= 3).then(|| world.split(0, 3).unwrap());
            let right = (r >= 3).then(|| world.split(3, 6).unwrap());
            // Start both reductions with the SAME default tag and progress
            // them simultaneously (what a janus process does).
            let mut a = left
                .as_ref()
                .map(|c| c.iallreduce(&[1u64], ops::sum::<u64>(), None).unwrap());
            let mut b = right
                .as_ref()
                .map(|c| c.iallreduce(&[100u64], ops::sum::<u64>(), None).unwrap());
            loop {
                let da = a.as_mut().is_none_or(|x| x.poll().unwrap());
                let db = b.as_mut().is_none_or(|x| x.poll().unwrap());
                if da && db {
                    break;
                }
                mpisim::yield_now();
            }
            if let Some(x) = a {
                out.push(x.result().unwrap()[0]);
            }
            if let Some(x) = b {
                out.push(x.result().unwrap()[0]);
            }
            out
        });
        assert_eq!(res.per_rank[0], vec![4]);
        assert_eq!(res.per_rank[3], vec![4, 400]);
        assert_eq!(res.per_rank[6], vec![400]);
    }

    /// Overlap on MORE than one process requires distinct user tags
    /// (§V-A). With distinct tags both operations complete correctly.
    #[test]
    fn heavy_overlap_needs_user_tags() {
        let res = Universe::run_default(6, |env| {
            let world = RbcComm::create(&env.world);
            let r = world.rank();
            let a_comm = (r <= 3).then(|| world.split(0, 3).unwrap());
            let b_comm = (r >= 2).then(|| world.split(2, 5).unwrap());
            let mut a = a_comm
                .as_ref()
                .map(|c| c.iallreduce(&[1u64], ops::sum::<u64>(), Some(900)).unwrap());
            let mut b = b_comm.as_ref().map(|c| {
                c.iallreduce(&[10u64], ops::sum::<u64>(), Some(902))
                    .unwrap()
            });
            loop {
                let da = a.as_mut().is_none_or(|x| x.poll().unwrap());
                let db = b.as_mut().is_none_or(|x| x.poll().unwrap());
                if da && db {
                    break;
                }
                mpisim::yield_now();
            }
            (
                a.map(|x| x.result().unwrap()[0]),
                b.map(|x| x.result().unwrap()[0]),
            )
        });
        assert_eq!(res.per_rank[2], (Some(4), Some(40)));
        assert_eq!(res.per_rank[0], (Some(4), None));
        assert_eq!(res.per_rank[5], (None, Some(40)));
    }

    #[test]
    fn any_source_on_range_ignores_outside_traffic() {
        let res = Universe::run_default(4, |env| {
            let world = RbcComm::create(&env.world);
            let r = world.rank();
            match r {
                0 => {
                    // Rank 0 is OUTSIDE the range; sends to rank 1 with the
                    // same tag on the same base context.
                    world.send(&[666u64], 1, 5).unwrap();
                    0
                }
                1 => {
                    let range = world.split(1, 3).unwrap();
                    // Wildcard receive on the range: must match rank 2's
                    // message, never rank 0's.
                    let (v, st) = range.recv::<u64>(Src::Any, 5).unwrap();
                    assert_eq!(st.source, 1); // rank 2 in world = rank 1 in range

                    // The outside message is still there on the base comm.
                    let (w, _) = world.recv::<u64>(Src::Rank(0), 5).unwrap();
                    assert_eq!(w, vec![666]);
                    v[0]
                }
                2 => {
                    let range = world.split(1, 3).unwrap();
                    // Let rank 0's message land first: it is delivered at
                    // the end of this epoch.
                    mpisim::yield_now();
                    range.send(&[42u64], 0, 5).unwrap();
                    0
                }
                _ => {
                    world.split(1, 3).unwrap();
                    0
                }
            }
        });
        assert_eq!(res.per_rank[1], 42);
    }

    #[test]
    fn iprobe_wildcard_filters_membership() {
        let res = Universe::run_default(3, |env| {
            let world = RbcComm::create(&env.world);
            match world.rank() {
                0 => {
                    world.send(&[1u64], 2, 9).unwrap();
                    (false, false)
                }
                1 => {
                    world.send(&[2u64], 2, 9).unwrap();
                    (false, false)
                }
                _ => {
                    let sub = world.split(1, 2).unwrap();
                    // Both messages are delivered at the end of this epoch.
                    mpisim::yield_now();
                    // Probe on the subrange: only rank 1's message counts.
                    let hit = sub.iprobe(Src::Any, 9).unwrap();
                    let filtered = matches!(hit, Some(st) if st.source == 0);
                    // Probe on the world sees rank 0's too.
                    let world_sees = world.iprobe(Src::Any, 9).unwrap().is_some();
                    (filtered, world_sees)
                }
            }
        });
        assert_eq!(res.per_rank[2], (true, true));
    }

    #[test]
    fn request_smart_pointer_erases_types() {
        let res = Universe::run_default(4, |env| {
            let world = RbcComm::create(&env.world);
            let mut reqs = vec![
                Request::new(world.ibarrier(Some(700)).unwrap()),
                Request::new(
                    world
                        .iallreduce(&[world.rank() as u64], ops::sum::<u64>(), Some(702))
                        .unwrap(),
                ),
            ];
            waitall(&mut reqs).unwrap();
            true
        });
        assert!(res.per_rank.iter().all(|&x| x));
    }
}
