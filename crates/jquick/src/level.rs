//! One distributed recursion level of JQuick (paper §VII, Fig. 3): pivot
//! selection → data partitioning → data assignment → data exchange.
//!
//! Everything is nonblocking: the level is an async core on
//! [`mpisim::nbcoll`]'s driver ([`Nbc`]), so a janus process owns *two*
//! of them (one per task) and polls them round-robin, and "progress in one
//! subtask [never] delays progress in another subtask". The core awaits
//! the collectives' own cores, with the nonblocking gather's child order.
//! Each collective runs over the task communicator's
//! [`Transport::coll_view`] of its class, so it is priced as that
//! communicator prices its own collectives (vendor scales for a native
//! `Comm`, neutral for an `RbcComm`); the exchange is plain point-to-point
//! in both cases.

use std::future::Future;
use std::sync::Arc;

use mpisim::nbcoll::Nbc;
use mpisim::{coll, ops, OpClass, Result, SortKey, Transport};

use crate::exchange::{self, AssignmentKind};
use crate::layout::{Layout, TaskRange};
use crate::partition::{sample_median, Parted, Segments, Strictness};
use crate::pivot::{draw_segment_samples, PivotCfg};

/// Level-internal user tags (see `exchange::tags` for the exchange's).
mod ltags {
    use mpisim::Tag;
    pub const SAMPLES: Tag = 30; // +1 used by gatherv payload
    pub const PIVOT: Tag = 33;
    pub const SCAN: Tag = 35;
    pub const TOTAL: Tag = 37;
}

/// What a completed level hands back to the driver.
pub enum LevelOutcome<T> {
    /// The task split at `s_total` smalls; my received halves.
    Split {
        /// Global number of elements below the pivot.
        s_total: u64,
        /// Elements of the small half landing in my window.
        small: Segments<T>,
        /// Elements of the large half landing in my window.
        large: Segments<T>,
    },
    /// Degenerate pivot (`s_total ∈ {0, N}`): no data moved; retry with the
    /// flipped comparator (paper's `<`/`≤` switching handles duplicates).
    Stuck {
        /// The local data, in its order: the input view itself when the
        /// level got one.
        data: Segments<T>,
    },
}

/// Start a level and run it to its first receive that misses. `c` is the
/// task communicator (rank `i` ⇔ global process `first_proc + i`); `data`
/// is my window∩task slice, as the views the previous level delivered.
pub fn start<T: SortKey, C: Transport>(
    c: C,
    layout: Layout,
    task: TaskRange,
    level: u32,
    kind: AssignmentKind,
    pivot_cfg: &PivotCfg,
    data: Segments<T>,
) -> Result<Nbc<LevelOutcome<T>>> {
    let samples = pivot_cfg.per_proc(task.nprocs(&layout));
    let state = Arc::clone(c.state());
    Nbc::start(state, run(c, layout, task, level, kind, samples, data))
}

/// The level's core: `samples` is my share of the pivot sample.
pub(crate) fn run<T: SortKey, C: Transport>(
    c: C,
    layout: Layout,
    task: TaskRange,
    level: u32,
    kind: AssignmentKind,
    samples: u64,
    data: Segments<T>,
) -> impl Future<Output = Result<LevelOutcome<T>>> {
    let (f, l) = task.procs(&layout);
    debug_assert_eq!(c.size() as u64, l - f + 1, "task comm must cover the task");
    debug_assert_eq!(
        data.len() as u64,
        task.load_of(&layout, f + c.rank() as u64)
    );
    async move {
        // Step 1: the task's first process gathers the samples and
        // broadcasts their median.
        let (keys, n_small) = {
            let sample = draw_segment_samples(&data, samples, c.state());
            let gathered = coll::gatherv_as_they_arrive_async(
                &c.coll_view(OpClass::Gather),
                sample,
                0,
                ltags::SAMPLES,
            )
            .await?;
            let mut pivot: Vec<T> = gathered
                .map(|per_rank| {
                    let all: Vec<T> = per_rank.into_iter().flatten().collect();
                    c.charge_compute(all.len() * 4); // sample sort
                    vec![sample_median(all)]
                })
                .unwrap_or_default();
            coll::bcast_async(&c.coll_view(OpClass::Bcast), &mut pivot, 0, ltags::PIVOT).await?;

            // Step 2: local partition (O(n/p) charged), in one pass that
            // counts the smalls for the prefix sum on the way. The pivot's
            // scope ends here, so the rest of the level does not carry it.
            c.charge_compute(data.len());
            let keys = Parted::new(data, &pivot[0], Strictness::for_level(level));
            let n_small = keys.small.len() as u64;
            (keys, n_small)
        };

        // Step 3: prefix-sum the small counts; the last process broadcasts
        // the total.
        let incl = coll::scan_async(
            &c.coll_view(OpClass::Scan),
            &[n_small],
            ltags::SCAN,
            ops::sum(),
        )
        .await?[0];
        let s_excl = incl - n_small;
        let last = c.size() - 1;
        let mut total = if c.rank() == last {
            vec![incl]
        } else {
            Vec::new()
        };
        coll::bcast_async(&c.coll_view(OpClass::Bcast), &mut total, last, ltags::TOTAL).await?;
        let s_total = total[0];
        if s_total == 0 || s_total == task.len() {
            // Degenerate split: the data is its own partition, and a
            // one-sided split kept it as it came. Hand it back, and let the
            // driver retry with the flipped comparator.
            let mut data = Segments::from(keys.small);
            data.push(keys.large);
            return Ok(LevelOutcome::Stuck { data });
        }

        // Step 4: data exchange. `off_excl` counts the task's elements
        // held by task processes before me. (Derived here rather than
        // before the first await, so the future does not carry them.)
        let f = task.procs(&layout).0;
        let me = f + c.rank() as u64;
        let off_excl = if me == f {
            0
        } else {
            layout.prefix(me) - task.lo
        };
        let (small, large) = match kind {
            AssignmentKind::Greedy => {
                exchange::greedy(&c, layout, task, f, keys, s_excl, off_excl, s_total)?.await?
            }
            AssignmentKind::Staged => {
                exchange::staged(&c, layout, task, f, keys, s_excl, off_excl, s_total).await?
            }
        };
        Ok(LevelOutcome::Split {
            s_total,
            small,
            large,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basecase::{settle, BaseTask};
    use crate::pivot::PivotCfg;
    use crate::{jquick_sort_async, JQuickConfig, RbcBackend};
    use mpisim::{nbcoll, SimConfig, Universe};
    use rbc::RbcComm;

    // A degenerate split moves no data and keeps no copy: on all-equal
    // keys (`<` puts them all right, `≤` all left) every rank gets back the
    // very `Vec` it passed in: same buffer, capacity, keys and order.
    #[test]
    fn a_degenerate_split_returns_its_input_untouched() {
        let (p, n) = (4, 4 * 9 + 3);
        let layout = Layout::new(n, p as u64);
        let task = TaskRange { lo: 0, hi: n };
        for (level, kind) in [0, 1]
            .into_iter()
            .flat_map(|l| [AssignmentKind::Greedy, AssignmentKind::Staged].map(|k| (l, k)))
        {
            let res = Universe::run_poll(p, SimConfig::default(), move |env| async move {
                let c = RbcComm::create(&env.world);
                let me = env.rank() as u64;
                // Spare capacity, which a partitioned copy would not keep.
                let mut data = Vec::with_capacity(layout.cap(me) as usize + 3);
                data.resize(layout.cap(me) as usize, 5u64);
                let (buf, len, cap) = (data.as_ptr() as usize, data.len(), data.capacity());
                let pivot_cfg = PivotCfg::default();
                let data = Segments::from(data);
                let mut lv = start(c, layout, task, level, kind, &pivot_cfg, data).unwrap();
                nbcoll::wait_async(&mut lv).await.unwrap();
                match lv.into_out() {
                    Some(LevelOutcome::Stuck { data }) => {
                        let data = data.into_vec();
                        data.as_ptr() as usize == buf
                            && (data.len(), data.capacity()) == (len, cap)
                            && data.iter().all(|&x| x == 5)
                    }
                    _ => false,
                }
            });
            assert!(
                res.per_rank.iter().all(|&ok| ok),
                "level {level}, {kind:?}: {:?}",
                res.per_rank
            );
        }
    }

    // Heap per task in flight, counted without a timer (u64 keys on RBC).
    // The driver boxes each level and each base case once; a level's
    // exchange lives inside it. The sort's own future is the rank body of
    // a future-body run, boxed once per rank for the whole sort. Nothing
    // here is polled, so nothing is received; the greedy exchange has
    // nothing to send.
    #[test]
    fn the_jquick_cores_stay_within_their_byte_budgets() {
        Universe::run_default(1, |env| {
            let c = RbcComm::create(&env.world);
            let cfg = JQuickConfig::default();
            let sort = jquick_sort_async(&RbcBackend, &env.world, vec![7u64], 1, &cfg);
            let (layout, task) = (Layout::new(1, 1), TaskRange { lo: 0, hi: 1 });
            let (kind, none) = (AssignmentKind::Greedy, Vec::<u64>::new);
            let level = run(c.clone(), layout, task, 0, kind, 1, vec![7u64].into());
            let parted = || Parted::new(Segments::new(), &0, Strictness::Lt);
            let greedy = exchange::greedy(&c, layout, task, 0, parted(), 0, 0, 0).unwrap();
            let staged = exchange::staged(&c, layout, task, 0, parted(), 0, 0, 0);
            let base = settle(c.clone(), layout, 0, BaseTask { task, data: none() });
            let sizes = [
                ("level", size_of_val(&level), 552),
                ("greedy exchange", size_of_val(&greedy), 120),
                ("staged exchange", size_of_val(&staged), 208),
                ("base case", size_of_val(&base), 176),
                ("jquick_sort_async", size_of_val(&sort), 800),
            ];
            for (name, bytes, budget) in sizes {
                assert!(bytes <= budget, "{name}: {bytes} B, budget {budget} B");
            }
        });
    }
}
