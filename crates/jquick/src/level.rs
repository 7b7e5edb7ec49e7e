//! One distributed recursion level of JQuick (paper §VII, Fig. 3): pivot
//! selection → data partitioning → data assignment → data exchange.
//!
//! Everything is nonblocking: the level is an async core on
//! [`mpisim::nbcoll`]'s driver ([`Nbc`]), so a janus process owns *two*
//! of them (one per task) and polls them round-robin, and "progress in one
//! subtask [never] delays progress in another subtask". The core awaits
//! the collectives' own cores, with the nonblocking gather's child order.
//! Collective traffic runs through a [`Scaled`] wrapper carrying the
//! backend's collective cost profile (vendor scales for native MPI,
//! neutral for RBC); the exchange is plain point-to-point in both cases.

use std::future::Future;
use std::sync::Arc;

use mpisim::model::{CollScales, CostScale};
use mpisim::nbcoll::Nbc;
use mpisim::{coll, ops, Result, Scaled, SortKey, Transport};

use crate::exchange::{self, AssignmentKind};
use crate::layout::{Layout, TaskRange};
use crate::partition::{count_small, sample_median, Strictness};
use crate::pivot::{draw_samples, PivotCfg};

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
        small: Vec<T>,
        /// Elements of the large half landing in my window.
        large: Vec<T>,
    },
    /// Degenerate pivot (`s_total ∈ {0, N}`): no data moved; retry with the
    /// flipped comparator (paper's `<`/`≤` switching handles duplicates).
    Stuck {
        /// The unchanged local data, returned to the caller.
        data: Vec<T>,
    },
}

/// Start a level and run it to its first receive that misses. `c` is the
/// task communicator (rank `i` ⇔ global process `first_proc + i`); `data`
/// is my window∩task slice.
#[allow(clippy::too_many_arguments)]
pub fn start<T: SortKey, C: Transport>(
    c: C,
    scales: CollScales,
    layout: Layout,
    task: TaskRange,
    level: u32,
    kind: AssignmentKind,
    pivot_cfg: &PivotCfg,
    data: Vec<T>,
) -> Result<Nbc<LevelOutcome<T>>> {
    let samples = pivot_cfg.per_proc(task.nprocs(&layout));
    let state = Arc::clone(c.state());
    Nbc::start(
        state,
        run(c, scales, layout, task, level, kind, samples, data),
    )
}

/// The level's core: `samples` is my share of the pivot sample.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<T: SortKey, C: Transport>(
    c: C,
    scales: CollScales,
    layout: Layout,
    task: TaskRange,
    level: u32,
    kind: AssignmentKind,
    samples: u64,
    data: Vec<T>,
) -> impl Future<Output = Result<LevelOutcome<T>>> {
    let (f, l) = task.procs(&layout);
    debug_assert_eq!(c.size() as u64, l - f + 1, "task comm must cover the task");
    let me = f + c.rank() as u64;
    debug_assert_eq!(data.len() as u64, task.load_of(&layout, me));
    async move {
        let scaled = |scale: CostScale| Scaled::new(c.clone(), scale);

        // Step 1: the task's first process gathers the samples and
        // broadcasts their median.
        let sample = draw_samples(&data, samples, c.state());
        let gathered =
            coll::gatherv_as_they_arrive_async(&scaled(scales.gather), sample, 0, ltags::SAMPLES)
                .await?;
        let mut pivot: Vec<T> = gathered
            .map(|per_rank| {
                let all: Vec<T> = per_rank.into_iter().flatten().collect();
                c.charge_compute(all.len() * 4); // sample sort
                vec![sample_median(all)]
            })
            .unwrap_or_default();
        coll::bcast_async(&scaled(scales.bcast), &mut pivot, 0, ltags::PIVOT).await?;

        // Step 2: local partition (O(n/p) charged): the count here, the
        // scatter in the exchange.
        c.charge_compute(data.len());
        let (pivot, strict) = (pivot[0], Strictness::for_level(level));
        let n_small = count_small(&data, &pivot, strict) as u64;

        // Step 3: prefix-sum the small counts; the last process broadcasts
        // the total.
        let incl =
            coll::scan_async(&scaled(scales.scan), &[n_small], ltags::SCAN, ops::sum()).await?[0];
        let s_excl = incl - n_small;
        let last = c.size() - 1;
        let mut total = if c.rank() == last {
            vec![incl]
        } else {
            Vec::new()
        };
        coll::bcast_async(&scaled(scales.bcast), &mut total, last, ltags::TOTAL).await?;
        let s_total = total[0];
        if s_total == 0 || s_total == task.len() {
            // Degenerate split: the data is its own partition. Keep it, and
            // let the driver retry with the flipped comparator.
            return Ok(LevelOutcome::Stuck { data });
        }

        // Step 4: data exchange. `off_excl` counts the task's elements
        // held by task processes before me.
        let off_excl = if me == f {
            0
        } else {
            layout.prefix(me) - task.lo
        };
        let (small, large) = match kind {
            AssignmentKind::Greedy => {
                exchange::greedy(
                    &c, layout, task, f, data, pivot, strict, n_small, s_excl, off_excl, s_total,
                )?
                .await?
            }
            AssignmentKind::Staged => {
                exchange::staged(
                    &c, layout, task, f, data, pivot, strict, s_excl, off_excl, s_total,
                )
                .await?
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

    // A degenerate split moves no data and scatters nothing: on all-equal
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
                // Spare capacity, which a scatter would not keep.
                let mut data = Vec::with_capacity(layout.cap(me) as usize + 3);
                data.resize(layout.cap(me) as usize, 5u64);
                let (buf, len, cap) = (data.as_ptr() as usize, data.len(), data.capacity());
                let scales = CollScales::NEUTRAL;
                let pivot_cfg = PivotCfg::default();
                let mut lv = start(c, scales, layout, task, level, kind, &pivot_cfg, data).unwrap();
                nbcoll::wait_async(&mut lv).await.unwrap();
                match lv.into_out() {
                    Some(LevelOutcome::Stuck { data }) => {
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
            let (scales, kind, none) =
                (CollScales::NEUTRAL, AssignmentKind::Greedy, Vec::<u64>::new);
            let level = run(c.clone(), scales, layout, task, 0, kind, 1, vec![7u64]);
            let lt = Strictness::Lt;
            let greedy = exchange::greedy(&c, layout, task, 0, none(), 0, lt, 0, 0, 0, 0).unwrap();
            let staged = exchange::staged(&c, layout, task, 0, none(), 0, lt, 0, 0, 0);
            let base = settle(c.clone(), layout, 0, BaseTask { task, data: none() });
            let sizes = [
                ("level", size_of_val(&level), 608),
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
