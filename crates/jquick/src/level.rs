//! One distributed recursion level of JQuick as a state machine
//! (paper §VII, Fig. 3): pivot selection → data partitioning → data
//! assignment → data exchange.
//!
//! Everything is nonblocking: a janus process owns *two* of these machines
//! (one per task) and polls them round-robin, so "progress in one subtask
//! [never] delays progress in another subtask". Collective traffic runs
//! through a [`Scaled`] wrapper carrying the backend's collective cost
//! profile (vendor scales for native MPI, neutral for RBC); the exchange is
//! plain point-to-point in both cases.

use mpisim::model::CollScales;
use mpisim::nbcoll::{self, Ibcast, Igatherv, Iscan, Progress};
use mpisim::{Result, Scaled, SortKey, Transport};

use crate::exchange::{AssignmentKind, ExchangeSm, Exchanged};
use crate::layout::{Layout, TaskRange};
use crate::partition::{partition, sample_median, Strictness};
use crate::pivot::{draw_samples, PivotCfg};

/// Level-internal user tags (see `exchange::tags` for the exchange's).
mod ltags {
    use mpisim::Tag;
    pub const SAMPLES: Tag = 30; // +1 used by gatherv payload
    pub const PIVOT: Tag = 33;
    pub const SCAN: Tag = 35;
    pub const TOTAL: Tag = 37;
}

type SumFn = fn(&u64, &u64) -> u64;

fn add(a: &u64, b: &u64) -> u64 {
    a + b
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

enum LState<T: SortKey, C: Transport> {
    Gather(Igatherv<T, Scaled<C>>),
    PivotBcast(Ibcast<T, Scaled<C>>),
    Scan {
        small: Vec<T>,
        large: Vec<T>,
        scan: Iscan<u64, Scaled<C>, SumFn>,
    },
    Total {
        small: Vec<T>,
        large: Vec<T>,
        s_excl: u64,
        bc: Ibcast<u64, Scaled<C>>,
    },
    Exchange {
        s_total: u64,
        x: ExchangeSm<T, C>,
    },
    Done(Option<LevelOutcome<T>>),
    Poisoned,
}

/// State machine of one recursion level: pivot selection, partition,
/// prefix sums, and the balanced data exchange, all nonblocking.
pub struct LevelSm<T: SortKey, C: Transport> {
    c: C,
    scales: CollScales,
    layout: Layout,
    task: TaskRange,
    level: u32,
    kind: AssignmentKind,
    first_proc: u64,
    me: u64,
    /// My task-local data; taken when partitioning.
    data: Vec<T>,
    state: LState<T, C>,
}

impl<T: SortKey + mpisim::Datum, C: Transport> LevelSm<T, C> {
    /// Start a level. `c` is the task communicator (rank `i` ⇔ global
    /// process `first_proc + i`); `data` is my window∩task slice.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        c: C,
        scales: CollScales,
        layout: Layout,
        task: TaskRange,
        level: u32,
        kind: AssignmentKind,
        pivot_cfg: &PivotCfg,
        data: Vec<T>,
    ) -> Result<LevelSm<T, C>> {
        let (f, l) = task.procs(&layout);
        let q = l - f + 1;
        debug_assert_eq!(c.size() as u64, q, "task comm must cover the task");
        let me = f + c.rank() as u64;
        debug_assert_eq!(data.len() as u64, task.load_of(&layout, me));
        // Step 1 begins: contribute samples to the task's first process.
        let m = pivot_cfg.per_proc(q);
        let samples = draw_samples(&data, m, c.state());
        let coll = Scaled::new(c.clone(), scales.gather);
        let gather = nbcoll::igatherv(&coll, samples, 0, ltags::SAMPLES)?;
        let mut sm = LevelSm {
            c,
            scales,
            layout,
            task,
            level,
            kind,
            first_proc: f,
            me,
            data,
            state: LState::Gather(gather),
        };
        sm.poll()?;
        Ok(sm)
    }

    /// Elements of the task held by task processes before me.
    fn off_excl(&self) -> u64 {
        if self.me == self.first_proc {
            0
        } else {
            self.layout.prefix(self.me) - self.task.lo
        }
    }

    /// Drive the machine; `Ok(true)` when the outcome is available.
    pub fn poll(&mut self) -> Result<bool> {
        loop {
            // The step in flight is polled where it sits; the state (some
            // 150 bytes) moves only on a transition.
            let step_done = match &mut self.state {
                LState::Gather(g) => g.poll()?,
                LState::PivotBcast(bc) => bc.poll()?,
                LState::Scan { scan, .. } => scan.poll()?,
                LState::Total { bc, .. } => bc.poll()?,
                LState::Exchange { x, .. } => x.poll()?,
                LState::Done(_) => return Ok(true),
                LState::Poisoned => unreachable!("poll reentered poisoned state"),
            };
            if !step_done {
                return Ok(false);
            }
            match std::mem::replace(&mut self.state, LState::Poisoned) {
                LState::Gather(g) => {
                    // Root computes the sample median and broadcasts it.
                    let payload = g.result().map(|per_rank| {
                        let all: Vec<T> = per_rank.into_iter().flatten().collect();
                        self.c.charge_compute(all.len() * 4); // sample sort
                        vec![sample_median(all)]
                    });
                    let coll = Scaled::new(self.c.clone(), self.scales.bcast);
                    let bc = nbcoll::ibcast(&coll, payload, 0, ltags::PIVOT)?;
                    self.state = LState::PivotBcast(bc);
                }
                LState::PivotBcast(bc) => {
                    let pivot = bc.into_data().expect("bcast complete")[0];
                    // Step 2: local partition (O(n/p) charged).
                    let strict = Strictness::for_level(self.level);
                    let data = std::mem::take(&mut self.data);
                    self.c.charge_compute(data.len());
                    let (small, large) = partition(data, &pivot, strict);
                    // Step 3 begins: prefix-sum the small counts.
                    let coll = Scaled::new(self.c.clone(), self.scales.scan);
                    let scan =
                        nbcoll::iscan(&coll, &[small.len() as u64], ltags::SCAN, add as SumFn)?;
                    self.state = LState::Scan { small, large, scan };
                }
                LState::Scan { small, large, scan } => {
                    let incl = scan.inclusive().expect("scan complete")[0];
                    let s_excl = incl - small.len() as u64;
                    // The last process broadcasts the total small count.
                    let q = self.c.size();
                    let payload = (self.c.rank() == q - 1).then(|| vec![incl]);
                    let coll = Scaled::new(self.c.clone(), self.scales.bcast);
                    let bc = nbcoll::ibcast(&coll, payload, q - 1, ltags::TOTAL)?;
                    self.state = LState::Total {
                        small,
                        large,
                        s_excl,
                        bc,
                    };
                }
                LState::Total {
                    small,
                    large,
                    s_excl,
                    bc,
                } => {
                    let s_total = bc.into_data().expect("bcast complete")[0];
                    if s_total == 0 || s_total == self.task.len() {
                        // Degenerate split: keep the data, let the driver
                        // retry with the flipped comparator.
                        let mut data = small;
                        data.extend(large);
                        self.state = LState::Done(Some(LevelOutcome::Stuck { data }));
                        return Ok(true);
                    }
                    // Step 4: data exchange.
                    let x = ExchangeSm::start(
                        self.kind,
                        &self.c,
                        self.layout,
                        self.task,
                        self.first_proc,
                        small,
                        large,
                        s_excl,
                        self.off_excl(),
                        s_total,
                    )?;
                    self.state = LState::Exchange { s_total, x };
                }
                LState::Exchange { s_total, mut x } => {
                    let Exchanged { small, large } = x.take().expect("exchange complete");
                    self.state = LState::Done(Some(LevelOutcome::Split {
                        s_total,
                        small,
                        large,
                    }));
                    return Ok(true);
                }
                LState::Done(_) | LState::Poisoned => unreachable!("matched above"),
            }
        }
    }

    /// Take the level's outcome once complete.
    pub fn take_outcome(&mut self) -> Option<LevelOutcome<T>> {
        match &mut self.state {
            LState::Done(out) => out.take(),
            _ => None,
        }
    }
}
