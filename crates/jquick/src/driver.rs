//! The JQuick driver: recursion, janus processes, and phase 2.
//!
//! Every process runs this loop over its ≤ 2 active tasks (a process can be
//! the last process of one task and the first of the next — a *janus*; see
//! the window argument in DESIGN.md). One iteration ("wave"):
//!
//! 1. run the levels of all active tasks **concurrently** (async cores on
//!    `nbcoll`'s driver, polled round-robin — the janus requirement of
//!    §VII);
//! 2. process outcomes in task-position order: queue base cases, retry
//!    degenerate splits with the flipped comparator (settling tasks whose
//!    elements are all equal), and collect pending subtask creations;
//! 3. create subtask communicators in schedule order (cascaded or
//!    alternating, §VIII-C) — O(1) local for RBC, blocking collective for
//!    native MPI.
//!
//! When no active tasks remain, phase 2 executes all queued base cases
//! concurrently, and the settled pieces are assembled into the output.
//!
//! Both polling phases park between sweeps until the rank's mailbox
//! changes ([`sweep_until_done`]). A wave nobody can finish (a crashed
//! peer, a rank that never joined) ends in the scheduler's structural
//! deadlock detector with a `RoundBlame`, never in a wall-clock deadline.

use std::sync::Arc;

use mpisim::nbcoll::{sweep_until_done, Nbc};
use mpisim::proc::ProcState;
use mpisim::{coll, Comm, Datum, MpiError, Progress, Result, SortKey, Time, Transport};

use crate::backend::{Backend, Schedule};
use crate::basecase::{self, BaseTask, Settled};
use crate::exchange::AssignmentKind;
use crate::layout::{Layout, TaskRange};
use crate::level::{self, LevelOutcome};
use crate::partition::{from_ordinals, to_ordinals, Segments};
use crate::pivot::PivotCfg;

/// User tags for the driver's blocking agreements.
const TAG_MINMAX: u64 = 70;
const TAG_CREATE_BASE: u64 = 60;

/// Degenerate-split retries before checking whether the task's elements
/// are all equal (and settling it in place if so).
const MAX_STUCK_RETRIES: u32 = 3;

/// Tunables of a JQuick run (all defaults follow the paper).
#[derive(Clone, Debug)]
pub struct JQuickConfig {
    /// Janus group-splitting schedule (§VIII-C).
    pub schedule: Schedule,
    /// Small/large exchange assignment strategy.
    pub assignment: AssignmentKind,
    /// Pivot-selection parameters.
    pub pivot: PivotCfg,
}

impl Default for JQuickConfig {
    fn default() -> Self {
        JQuickConfig {
            schedule: Schedule::Alternating,
            assignment: AssignmentKind::Greedy,
            pivot: PivotCfg::default(),
        }
    }
}

/// Per-process statistics of one sort.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Deepest recursion level this process participated in.
    pub max_level: u32,
    /// Communicators this process helped create (0 for RBC in spirit —
    /// RBC splits are counted too but cost O(1)).
    pub comm_creations: usize,
    /// Base cases executed on a single process.
    pub base_1: usize,
    /// Base cases executed on two processes (janus pairs).
    pub base_2: usize,
    /// Degenerate-split retries.
    pub stuck_retries: u32,
    /// Tasks settled because all their elements were equal.
    pub settled_equal: usize,
    /// Virtual time when the distributed phase ended (phase 2 start).
    pub distributed_end: Time,
}

struct ActiveTask<T, C> {
    task: TaskRange,
    comm: C,
    /// Global index of the task's first process (maps comm ranks to
    /// global process indices).
    first_proc: u64,
    level: u32,
    stuck: u32,
    data: Segments<T>,
}

struct PendingCreate<T, C> {
    parent_comm: C,
    parent_first: u64,
    sub: TaskRange,
    level: u32,
    data: Segments<T>,
}

/// Sort `data` across all processes of `world`. `n` is the global element
/// count; this process must hold exactly `Layout::new(n, p).cap(rank)`
/// elements (perfect input balance, as the paper assumes). Returns this
/// process's sorted output slice — exactly the same count (perfect output
/// balance) — plus statistics.
pub fn jquick_sort<T, B>(
    backend: &B,
    world: &Comm,
    data: Vec<T>,
    n: u64,
    cfg: &JQuickConfig,
) -> Result<(Vec<T>, SortStats)>
where
    T: SortKey + Datum,
    B: Backend,
{
    mpisim::block_inline(jquick_sort_async(backend, world, data, n, cfg))
}

/// Maybe-async core of [`jquick_sort`]: the identical algorithm, but every
/// blocking agreement (the all-equal min/max all-reduce, native
/// `create_group`, and the polling loops' waits) suspends instead of
/// parking, so the whole sort can run as a future body
/// (`Universe::run_poll`) at process counts no thread per rank reaches.
///
/// The sort runs on the keys' order-preserving images
/// ([`SortKey::to_ordinal`]: `u64` for `f64`, the identity for integers),
/// mapped in place here and back at the end. Images have the keys' width
/// and order, so every message, byte and charge is the same either way.
pub async fn jquick_sort_async<T, B>(
    backend: &B,
    world: &Comm,
    data: Vec<T>,
    n: u64,
    cfg: &JQuickConfig,
) -> Result<(Vec<T>, SortStats)>
where
    T: SortKey + Datum,
    B: Backend,
{
    let p = world.size() as u64;
    let me = world.rank() as u64;
    let layout = Layout::new(n, p);
    if data.len() as u64 != layout.cap(me) {
        return Err(MpiError::Usage(format!(
            "rank {me} got {} elements, capacity is {}",
            data.len(),
            layout.cap(me)
        )));
    }
    let data = to_ordinals(data);
    let wc = backend.world(world)?;
    let mut stats = SortStats::default();
    let mut bases: Vec<BaseTask<T::Ordinal>> = Vec::new();
    let mut settled: Vec<Settled<T::Ordinal>> = Vec::new();
    let mut active: Vec<ActiveTask<T::Ordinal, B::C>> = Vec::new();

    let root = TaskRange { lo: 0, hi: n };
    if root.nprocs(&layout) <= 2 {
        bases.push(BaseTask { task: root, data });
    } else {
        active.push(ActiveTask {
            task: root,
            comm: wc.clone(),
            first_proc: 0,
            level: 0,
            stuck: 0,
            data: Segments::from(data),
        });
    }

    // ---- distributed phase --------------------------------------------------
    let mut wave = 0u32;
    while !active.is_empty() {
        // Trace phase marker (no-op unless tracing is on): one per wave of
        // concurrent levels, at this rank's current virtual time.
        mpisim::obs::mark(world.proc_state(), || format!("jquick wave {wave}"));
        wave += 1;
        // 1. Start and drive all levels concurrently. The wave consumes
        //    `active`, and its two vectors hold exactly its tasks (at most
        //    two): they are alive for the whole wave, on every rank.
        active.sort_by_key(|t| t.task.lo);
        let wave_tasks = std::mem::take(&mut active);
        let mut metas = Vec::with_capacity(wave_tasks.len());
        let mut levels = Vec::with_capacity(wave_tasks.len());
        for at in wave_tasks {
            let ActiveTask {
                task,
                comm,
                first_proc,
                level,
                stuck,
                data,
            } = at;
            stats.max_level = stats.max_level.max(level);
            let lv = level::start(
                comm.clone(),
                layout,
                task,
                level,
                cfg.assignment,
                &cfg.pivot,
                data,
            )?;
            metas.push(TaskMeta {
                task,
                comm,
                first_proc,
                level,
                stuck,
            });
            levels.push(lv);
        }
        let outcomes = drive_all(world.proc_state(), levels).await?;

        // 2. Process outcomes left-to-right (the order matters for the
        //    blocking all-equal agreement: leftmost-first is globally
        //    consistent and acyclic).
        let mut pending: Vec<PendingCreate<T::Ordinal, B::C>> = Vec::new();
        for (meta, outcome) in metas.into_iter().zip(outcomes) {
            match outcome {
                LevelOutcome::Stuck { data } => {
                    stats.stuck_retries += 1;
                    let stuck = meta.stuck + 1;
                    // Boxed: the agreement runs only after repeated
                    // degenerate splits, and inline its future would size
                    // every rank's sort future.
                    if stuck >= MAX_STUCK_RETRIES && Box::pin(all_equal(&meta.comm, &data)).await? {
                        // All equal: the task is sorted in place.
                        stats.settled_equal += 1;
                        let my_lo = meta.task.lo.max(layout.prefix(me));
                        let data = data.into_vec();
                        settled.push(Settled { lo: my_lo, data });
                        continue;
                    }
                    // Retry with the flipped comparator and a fresh pivot.
                    active.push(ActiveTask {
                        task: meta.task,
                        comm: meta.comm,
                        first_proc: meta.first_proc,
                        level: meta.level + 1,
                        stuck,
                        data,
                    });
                }
                LevelOutcome::Split {
                    s_total,
                    small,
                    large,
                } => {
                    let (lt, rt) = meta.task.split_at(s_total);
                    for (sub, d) in [(lt, small), (rt, large)] {
                        let my_load = sub.load_of(&layout, me);
                        debug_assert_eq!(d.len() as u64, my_load, "perfect balance violated");
                        if my_load == 0 {
                            continue;
                        }
                        if sub.nprocs(&layout) <= 2 {
                            // Concatenated once, as it is queued: the views'
                            // buffers need not wait for phase 2.
                            bases.push(BaseTask {
                                task: sub,
                                data: d.into_vec(),
                            });
                        } else {
                            pending.push(PendingCreate {
                                parent_comm: meta.comm.clone(),
                                parent_first: meta.first_proc,
                                sub,
                                level: meta.level + 1,
                                data: d,
                            });
                        }
                    }
                }
            }
        }

        // 3. Create subtask communicators in schedule order.
        debug_assert!(pending.len() <= 2, "a process is in at most two tasks");
        order_pending(&mut pending, &layout, me, cfg.schedule);
        for pc in pending {
            let (f, l) = pc.sub.procs(&layout);
            // The tag must be identical on every member of the new group.
            // Sibling creations on the same parent context share at most
            // one process (the cut janus), so per-level tags suffice —
            // source matching disambiguates the rest (§V-A).
            let tag = TAG_CREATE_BASE + pc.level as u64 % 16;
            let comm = backend
                .split_range_async(
                    &pc.parent_comm,
                    (f - pc.parent_first) as usize,
                    (l - pc.parent_first) as usize,
                    tag,
                )
                .await?;
            stats.comm_creations += 1;
            active.push(ActiveTask {
                task: pc.sub,
                comm,
                first_proc: f,
                level: pc.level,
                stuck: 0,
                data: pc.data,
            });
        }
    }

    stats.distributed_end = world.proc_state().now();
    mpisim::obs::mark(world.proc_state(), || {
        "jquick distributed phase done".to_string()
    });

    // ---- phase 2: base cases -------------------------------------------------
    let mut started = Vec::with_capacity(bases.len());
    for bt in bases {
        if bt.task.nprocs(&layout) == 1 {
            stats.base_1 += 1;
        } else {
            stats.base_2 += 1;
        }
        started.push(basecase::start(&wc, layout, me, bt)?);
    }
    settled.extend(drive_all(world.proc_state(), started).await?);
    mpisim::obs::mark(world.proc_state(), || "jquick base cases done".to_string());

    // ---- assemble -------------------------------------------------------------
    settled.sort_by_key(|s| s.lo);
    let (w0, w1) = layout.window(me);
    let mut out = Vec::with_capacity((w1 - w0) as usize);
    let mut expect = w0;
    for s in settled {
        if s.lo != expect {
            return Err(MpiError::Usage(format!(
                "rank {me}: settled pieces not contiguous: expected {expect}, got {}",
                s.lo
            )));
        }
        expect += s.data.len() as u64;
        out.extend(s.data);
    }
    if expect != w1 {
        return Err(MpiError::Usage(format!(
            "rank {me}: output covers [{w0},{expect}) instead of [{w0},{w1})"
        )));
    }
    Ok((from_ordinals(out), stats))
}

/// The stuck task's blocking agreement: are all its elements equal? A
/// min/max all-reduce over the task communicator.
async fn all_equal<T: SortKey + Datum, C: Transport>(comm: &C, data: &Segments<T>) -> Result<bool> {
    let local_min = data
        .iter()
        .copied()
        .min_by(SortKey::cmp_key)
        .expect("task load >= 1");
    let local_max = data.iter().copied().max_by(SortKey::cmp_key).unwrap();
    let mm = coll::allreduce_async(
        comm,
        &[(local_min, local_max)],
        TAG_MINMAX,
        |a: &(T, T), b: &(T, T)| {
            let mn = if b.0.cmp_key(&a.0).is_lt() { b.0 } else { a.0 };
            let mx = if b.1.cmp_key(&a.1).is_gt() { b.1 } else { a.1 };
            (mn, mx)
        },
    )
    .await?[0];
    Ok(mm.0.cmp_key(&mm.1).is_eq())
}

struct TaskMeta<C> {
    task: TaskRange,
    comm: C,
    first_proc: u64,
    level: u32,
    stuck: u32,
}

/// Round-robin polling of this rank's operations (its levels, or its base
/// cases) until all complete; their outputs in order.
async fn drive_all<O: Send>(
    state: &Arc<ProcState>,
    mut ops: Vec<Nbc<O>>,
) -> Result<impl Iterator<Item = O>> {
    // Every operation that is not done stopped at a receive that missed
    // (`Progress::poll`'s contract): nothing changes for this rank, janus
    // or not, before its mailbox does. A wave nobody can finish ends in
    // the scheduler's deadlock detector.
    sweep_until_done(state, || {
        ops.iter_mut()
            .try_fold(true, |all, op| Ok(all & op.poll()?))
    })
    .await?;
    Ok(ops.into_iter().map(|op| op.into_out().expect("complete")))
}

/// Apply the janus splitting schedule: with two pending creations, one
/// extends left of me (I am its last process) and one extends right (I am
/// its first); the schedule decides which to create first (§VIII-C).
fn order_pending<T, C>(
    pending: &mut [PendingCreate<T, C>],
    layout: &Layout,
    me: u64,
    schedule: Schedule,
) {
    if pending.len() < 2 {
        return;
    }
    let is_left_extending = |pc: &PendingCreate<T, C>| {
        let (_, l) = pc.sub.procs(layout);
        l == me
    };
    let first_is_left = is_left_extending(&pending[0]);
    let want_left_first = schedule.left_first(me);
    if first_is_left != want_left_first {
        pending.swap(0, 1);
    }
}
