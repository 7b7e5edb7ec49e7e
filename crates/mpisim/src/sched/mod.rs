//! Cooperative rank scheduler: N simulated ranks multiplexed over a small
//! worker pool, **deterministically for any worker count**.
//!
//! The thread backend of [`crate::universe::Universe`] spawns one OS thread
//! per rank, which tops out around a few hundred ranks — far short of the
//! paper's 2^15-process evaluations. This module runs every rank body on a
//! *fiber* (a stackful coroutine; see `sched/fiber.rs`) instead: a
//! blocking point (`recv`, `probe`, a poll loop inside a nonblocking
//! collective) **yields to the scheduler** rather than parking an OS
//! thread, and the mailbox layer wakes exactly the ranks whose matching
//! message arrived.
//!
//! # Epoch discipline (deterministic parallelism)
//!
//! Execution proceeds in **epochs** (virtual-time windows). Each epoch has
//! a deterministically ordered set of runnable tasks; workers claim tasks
//! from that set lock-free (an atomic cursor over an immutable round
//! vector) and run them *in parallel*. Parallelism inside an epoch cannot
//! perturb the simulation because epoch-concurrent tasks are **isolated**:
//!
//! * sends are not delivered immediately — they are *staged* in the
//!   sending task's private buffer (`try_stage_send`);
//! * a rank only ever claims messages from its *own* mailbox, and nothing
//!   is pushed into any mailbox while tasks run;
//! * clocks, RNG streams, and context pools are per-rank.
//!
//! So within an epoch no task can observe another epoch-mate's progress,
//! and the OS's thread interleaving is irrelevant. When every task of the
//! epoch has switched out (yielded, blocked, or finished), the last worker
//! **commits** the epoch:
//!
//! 1. tasks that yielded re-enter the next round, in their epoch order;
//! 2. all staged messages are delivered in global **virtual-time order** —
//!    keyed by `(matchable_time, sender, seq)`, where `matchable_time` is
//!    the running maximum of arrival times along each sender's program
//!    order (per-sender monotone, so per-sender FIFO non-overtaking is
//!    preserved) and `seq` the sender's send counter. Deliveries wake
//!    blocked receivers, which join the next round in commit order;
//! 3. if the next round is empty while unfinished tasks remain, those
//!    tasks are deadlocked (sends never block) — they are *poisoned* and
//!    woken to return [`MpiError::Timeout`].
//!
//! Step 2 runs under one of two algorithms
//! ([`CommitAlgo`](crate::model::CommitAlgo)):
//!
//! * **Serial** (the reference tests compare against): the committing
//!   worker stable-sorts the staged run by the global key and pushes every
//!   message itself, waking receivers as it goes.
//! * **Sharded** (the default): the run is sorted *destination-major* —
//!   `(dest, matchable_time, sender, seq)` — so each destination rank's
//!   messages form one contiguous segment whose internal order is exactly
//!   the serial commit's per-mailbox subsequence. Segments are grouped
//!   into shards (never splitting a segment) and **all idle workers claim
//!   shards lock-free** through the same epoch-tagged cursor used for
//!   round claiming, batch-pushing into disjoint mailboxes with zero
//!   cross-shard contention. Wake-ups are *deferred*: each shard records
//!   `(global key of the triggering message, waker)` pairs, and after the
//!   push barrier the finishing worker merges them in global key order —
//!   reproducing the serial wake order bit for bit. See DESIGN.md §7.
//!
//! Either way the epoch's staged messages are gathered into one reused
//! buffer. The commit key is unique over the epoch, so there is exactly
//! one sorted order: the sharded commit's in-place unstable sort is
//! deterministic and allocates nothing (DESIGN.md §10). Every other commit
//! buffer (shards, wake records, round vectors) is recycled through
//! [`crate::pool`], which makes the steady-state epoch allocation-free at
//! one worker.
//!
//! Every input to this procedure — the round order, each task's behaviour
//! against a frozen mailbox state, the staged-message sort key, the wake
//! merge order — is a pure function of `(program, seed)`. Hence **the
//! merged delivery order, and with it every simulation output, is
//! bit-for-bit identical for any `coop_workers` and either commit
//! algorithm**, including 1 worker. See DESIGN.md §5 for why committing
//! deliveries at epoch boundaries preserves MPI matching semantics.
//!
//! # Blocking protocol (no lost wake-ups)
//!
//! A rank that finds no matching message executes, in order:
//!
//! 1. set its state to `Blocking` (announce intent),
//! 2. subscribe a waker in the mailbox *under the mailbox lock*,
//! 3. switch back to the worker, which downgrades `Blocking -> Blocked`.
//!
//! Under the epoch discipline all wake-ups fire at commit time, when every
//! task of the round has fully parked — but the `WokenEarly` intermediate
//! state is kept as a defensive backstop: a waker that observes `Blocking`
//! (task still switching out) marks it `WokenEarly` and the worker
//! re-enqueues it via the yield path instead of parking it.
//!
//! # Deadlock detection
//!
//! Sends never block, so if a committed epoch produces no runnable task
//! and no staged message woke anyone, no message can ever arrive again:
//! the remaining blocked tasks are deadlocked. The scheduler *poisons*
//! them — each is woken and its pending receive returns
//! [`MpiError::Timeout`] carrying the [`WaitReason`] it was parked on.
//! This replaces the thread backend's wall-clock timeout with an exact,
//! instantaneous detector.

#![allow(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{MpiError, Result};
use crate::mailbox::{Mailbox, Subscribed, Wake};
use crate::msg::{MatchPattern, Message, MsgInfo};
use crate::proc::WaitReason;
use crate::time::Time;

#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
mod fiber;

#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
pub mod fleet;

pub mod poll;

/// Whether the fiber backend exists on this target. On unsupported targets
/// the cooperative backend transparently falls back to the thread backend.
pub const SUPPORTED: bool = cfg!(all(
    unix,
    any(target_arch = "x86_64", target_arch = "aarch64")
));

// ---------------------------------------------------------------------------
// Task states and park intents
// ---------------------------------------------------------------------------

/// In a round (or about to be placed in one).
const ST_READY: u8 = 0;
/// Executing on some worker right now.
const ST_RUNNING: u8 = 1;
/// Announced intent to block; still switching out on its worker.
const ST_BLOCKING: u8 = 2;
/// Fully parked; only a wake-up can move it.
const ST_BLOCKED: u8 = 3;
/// Woken while still in `Blocking`; the worker re-enqueues instead of parking.
const ST_WOKEN_EARLY: u8 = 4;
/// Body returned; never scheduled again.
const ST_FINISHED: u8 = 5;

pub(crate) const INTENT_NONE: u8 = 0;
pub(crate) const INTENT_YIELD: u8 = 1;
pub(crate) const INTENT_BLOCK: u8 = 2;
pub(crate) const INTENT_FINISH: u8 = 3;

/// Task state shared with mailbox wakers (kept alive by `Arc` so a stray
/// waker can never dangle).
struct TaskCore {
    rank: usize,
    status: AtomicU8,
    /// Set by the deadlock detector; blocking operations observe it and
    /// return `MpiError::Timeout` instead of parking again.
    poisoned: AtomicBool,
    /// Why the task is parked (diagnostics; surfaced in deadlock errors).
    wait_reason: Mutex<Option<WaitReason>>,
}

/// Scheduler state shared between workers and wakers.
pub(crate) struct SchedShared {
    /// Tasks woken during the current commit, in commit order — the tail
    /// of the next round. Only the committing worker pushes deliveries, so
    /// the order is deterministic.
    woken: Mutex<Vec<usize>>,
    /// Unfinished tasks.
    live: AtomicUsize,
    /// Context switches performed (deterministic model metric).
    switches: AtomicU64,
    /// Epochs committed (deterministic model metric; incremented once per
    /// `finish_epoch`, which every commit path funnels through).
    epochs: AtomicU64,
    /// Tasks woken by epoch commits (deterministic model metric).
    wakeups: AtomicU64,
    /// First recorded panic payload, with the rank it came from.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

/// Moves a task out of its blocked state into the next round. Called by
/// mailbox pushes (via the [`Wake`] impl) and by the deadlock poisoner —
/// both only ever during an epoch commit.
fn wake_core(core: &TaskCore, shared: &SchedShared) {
    loop {
        match core.status.load(Ordering::Acquire) {
            ST_BLOCKED => {
                if core
                    .status
                    .compare_exchange(ST_BLOCKED, ST_READY, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    shared.woken.lock().push(core.rank);
                    return;
                }
            }
            ST_BLOCKING => {
                if core
                    .status
                    .compare_exchange(
                        ST_BLOCKING,
                        ST_WOKEN_EARLY,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    return;
                }
            }
            // Ready / Running / WokenEarly / Finished: already awake (or
            // past caring); the claim loop re-checks the mailbox anyway.
            _ => return,
        }
    }
}

/// The waker subscribed into mailboxes while a task is parked.
struct TaskWaker {
    core: Arc<TaskCore>,
    shared: Arc<SchedShared>,
}

impl Wake for TaskWaker {
    fn wake(&self) {
        wake_core(&self.core, &self.shared);
    }
}

// ---------------------------------------------------------------------------
// Task slots
// ---------------------------------------------------------------------------

#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
struct TaskSlot {
    core: Arc<TaskCore>,
    /// Pre-built waker, cloned into mailbox subscriptions.
    waker: Arc<dyn Wake>,
    /// What the task asked its worker to do when it switched out.
    intent: AtomicU8,
    /// Messages sent by this task during the current epoch, in program
    /// order; drained by the commit phase. Only the task (while `Running`)
    /// and the committing worker (while the task is parked) touch this.
    staged: std::cell::UnsafeCell<Vec<(usize, Message)>>,
    /// This slot runs a poll-mode [`poll::RankBody`] instead of a fiber
    /// ([`crate::Backend::Poll`]): no stack region, no context switch —
    /// a claimed task step calls `proceed()` on `poll_body`.
    is_poll: bool,
    /// The rank's fiber (`None` under poll mode, which has no stacks).
    fiber: std::cell::UnsafeCell<Option<fiber::Fiber>>,
    body: std::cell::UnsafeCell<Option<Box<dyn FnOnce() + Send>>>,
    /// The rank's poll-mode state machine (`None` under fiber mode, and
    /// dropped on finish so completed ranks release their state early).
    poll_body: std::cell::UnsafeCell<Option<Box<dyn poll::RankBody>>>,
}

// Safety: `fiber`, `body`, `poll_body`, and `staged` are only touched by
// the single worker that holds the task in `Running` state (enforced by
// the status state machine), by the fiber itself while that worker is
// suspended inside `resume`, or by the committing worker after the epoch
// barrier (when no task of the round is `Running`).
#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
unsafe impl Sync for TaskSlot {}
#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
unsafe impl Send for TaskSlot {}

thread_local! {
    /// The task currently executing on this worker thread (null outside).
    static CURRENT: Cell<*const ()> = const { Cell::new(std::ptr::null()) };
}

/// Whether the calling code runs on a scheduler fiber (vs a plain thread
/// or a poll-mode body).
#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
pub fn on_fiber() -> bool {
    imp::current_slot().is_some_and(|s| !s.is_poll)
}

/// Whether the calling code runs inside a poll-mode rank body
/// ([`crate::Backend::Poll`]): blocking primitives must suspend through
/// the `*_async` path instead of parking.
#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
pub fn on_poll_body() -> bool {
    imp::current_slot().is_some_and(|s| s.is_poll)
}

/// Without fibers there is no scheduler to run on.
#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub fn on_fiber() -> bool {
    false
}

/// Without a scheduler there are no poll-mode bodies either.
#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub fn on_poll_body() -> bool {
    false
}

// ---------------------------------------------------------------------------
// Fiber-backed implementation
// ---------------------------------------------------------------------------

#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
mod imp {
    use super::*;
    use crate::faults::RoundBlame;
    use crate::model::CommitAlgo;
    use crate::pool::Pool;
    use crate::proc::Router;
    use parking_lot::Condvar;
    use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
    use std::ffi::c_void;
    use std::os::raw::{c_int, c_long};

    // Raw mmap/mprotect bindings (std links libc on every unix target, so
    // no external crate is needed).
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        fn sysconf(name: c_int) -> c_long;
    }

    const PROT_NONE: c_int = 0;
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    #[cfg(target_os = "linux")]
    const MAP_ANON: c_int = 0x20;
    #[cfg(not(target_os = "linux"))]
    const MAP_ANON: c_int = 0x1000;
    /// Don't charge the (huge, mostly untouched) reservation against
    /// commit limits under strict overcommit accounting.
    #[cfg(target_os = "linux")]
    const MAP_NORESERVE: c_int = 0x4000;
    #[cfg(not(target_os = "linux"))]
    const MAP_NORESERVE: c_int = 0;
    #[cfg(target_os = "linux")]
    const SC_PAGESIZE: c_int = 30;
    #[cfg(not(target_os = "linux"))]
    const SC_PAGESIZE: c_int = 29;

    fn page_size() -> usize {
        let v = unsafe { sysconf(SC_PAGESIZE) };
        if v <= 0 {
            4096
        } else {
            v as usize
        }
    }

    /// One mapping holding every fiber stack, carved into equal regions,
    /// each preceded by a `PROT_NONE` **guard page**: a fiber that overruns
    /// its stack faults immediately instead of silently corrupting its
    /// neighbour (the canary check on finish remains as a second line).
    /// Untouched pages cost nothing: at the default 128 KiB per rank a
    /// 2^15-rank universe reserves ~4 GiB of address space but commits only
    /// the few pages each rank actually touches.
    ///
    /// Every guard splits the mapping, so a guarded slab costs ~2·p kernel
    /// VMAs — and Linux caps VMAs per process (`vm.max_map_count`, default
    /// 65530). At the paper's p = 2^15 the guards alone would exhaust that
    /// budget: the last `mprotect`s fail and, worse, later `mmap`s (worker
    /// thread stacks!) start failing too. Guards are therefore installed
    /// only when 2·p fits comfortably under the budget; above that the
    /// slab stays one O(1)-VMA mapping protected by canaries alone, as it
    /// was before guards existed. If `mmap` is unavailable entirely the
    /// slab falls back to a plain heap allocation (canary-only).
    pub(super) struct StackSlab {
        base: *mut u8,
        /// Total mapping length (guards included).
        total: usize,
        /// Distance between consecutive usable regions (= guard + per).
        stride: usize,
        /// Guard bytes before each region (0 on the heap fallback).
        guard: usize,
        /// Usable stack bytes per region.
        pub(super) per: usize,
        /// Heap-fallback layout (`None` when mmapped).
        heap_layout: Option<Layout>,
    }

    unsafe impl Send for StackSlab {}
    unsafe impl Sync for StackSlab {}

    /// VMA headroom kept free for everything else in the process (worker
    /// thread stacks, allocator arenas, mapped files).
    const VMA_MARGIN: usize = 4096;

    /// The documented Linux default of `vm.max_map_count`, assumed when
    /// the sysctl cannot be read.
    const VMA_BUDGET_DEFAULT: usize = 65530;

    /// Parse the contents of `/proc/sys/vm/max_map_count`. `None` (sysctl
    /// unreadable — procfs unmounted, sandboxed) or garbage falls back to
    /// the documented kernel default, conservatively.
    pub(super) fn vma_budget_from(content: Option<&str>) -> usize {
        content
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(VMA_BUDGET_DEFAULT)
    }

    /// The process's VMA budget, if this platform has one: the *actual*
    /// `vm.max_map_count` sysctl when readable, the documented default
    /// otherwise.
    fn vma_budget() -> Option<usize> {
        if cfg!(target_os = "linux") {
            Some(vma_budget_from(
                std::fs::read_to_string("/proc/sys/vm/max_map_count")
                    .ok()
                    .as_deref(),
            ))
        } else {
            None
        }
    }

    impl StackSlab {
        pub(super) fn new(n: usize, per: usize) -> StackSlab {
            StackSlab::with_budget(n, per, vma_budget())
        }

        /// [`StackSlab::new`] with an explicit VMA budget (`None` = no
        /// platform limit), so tests can pin the guard-page auto-disable
        /// boundary without touching the real sysctl.
        pub(super) fn with_budget(n: usize, per: usize, budget: Option<usize>) -> StackSlab {
            let page = page_size();
            // Round the usable size up to whole pages so every guard page
            // is page-aligned.
            let per = (per.max(16 * 1024)).div_ceil(page) * page;
            // Guards cost ~2n VMAs; skip them when that would crowd the
            // process's VMA budget (see the struct docs).
            let guard = match budget {
                Some(limit) if 2 * n + VMA_MARGIN > limit => 0,
                _ => page,
            };
            let stride = per + guard;
            let total = n * stride;
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    total,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANON | MAP_NORESERVE,
                    -1,
                    0,
                )
            };
            if ptr as isize != -1 && !ptr.is_null() {
                let base = ptr as *mut u8;
                if guard != 0 {
                    for i in 0..n {
                        // A failed mprotect leaves that one stack unguarded
                        // (still canary-checked); not worth aborting over.
                        unsafe { mprotect(base.add(i * stride) as *mut c_void, guard, PROT_NONE) };
                    }
                }
                return StackSlab {
                    base,
                    total,
                    stride,
                    guard,
                    per,
                    heap_layout: None,
                };
            }
            // Fallback: plain heap slab, no guard pages.
            let layout = Layout::from_size_align(n * per, 16).expect("stack slab layout");
            let base = unsafe { alloc(layout) };
            if base.is_null() {
                handle_alloc_error(layout);
            }
            StackSlab {
                base,
                total: n * per,
                stride: per,
                guard: 0,
                per,
                heap_layout: Some(layout),
            }
        }

        /// Base of region `i`'s *usable* stack (just above its guard page).
        pub(super) fn region(&self, i: usize) -> *mut u8 {
            unsafe { self.base.add(i * self.stride + self.guard) }
        }

        /// Whether overruns fault (guard pages active) on this slab.
        #[cfg(test)]
        pub(super) fn guarded(&self) -> bool {
            self.guard != 0
        }
    }

    impl Drop for StackSlab {
        fn drop(&mut self) {
            match self.heap_layout {
                Some(layout) => unsafe { dealloc(self.base, layout) },
                None => unsafe {
                    munmap(self.base as *mut c_void, self.total);
                },
            }
        }
    }

    /// A staged message annotated with its global commit key.
    struct CommitEntry {
        /// Running max of the sender's arrival times in program order: the
        /// virtual time at which this message becomes *matchable* (MPI
        /// non-overtaking: it cannot be received before its predecessors).
        matchable: Time,
        src: usize,
        /// The sender's per-epoch send counter (program order).
        seq: u32,
        dest: usize,
        msg: Message,
    }

    /// The global commit key: total over all staged messages of one epoch
    /// (`(src, seq)` alone is already unique). The serial commit pushes in
    /// exactly this order; the sharded commit merges wake-ups by it.
    type CommitKey = (Time, usize, u32);

    impl CommitEntry {
        fn key(&self) -> CommitKey {
            (self.matchable, self.src, self.seq)
        }
    }

    /// A wake-up recorded during a sharded commit push, deferred past the
    /// push barrier: the global key of the triggering message plus the
    /// waker to fire during the deterministic merge.
    struct WakeRec {
        key: CommitKey,
        /// Tie-break for several waiters of the *same* message: the push
        /// index within the recording shard's wake vector, with the shard
        /// index OR-ed into the high bits when shards are concatenated.
        /// Makes `(key, ord)` unique, so the wake merge can use an
        /// allocation-free unstable sort and still reproduce the stable
        /// concatenation order exactly.
        ord: u64,
        waker: Arc<dyn Wake>,
    }

    /// A sharded commit in flight: per-shard slices of the
    /// destination-major-sorted commit entries, claimed by workers through
    /// the epoch-tagged cursor exactly like round tasks.
    struct CommitWork {
        /// Shard `i`'s contiguous run of whole per-destination segments.
        /// Only the worker that claimed shard `i` touches element `i`.
        shards: Vec<std::cell::UnsafeCell<Vec<CommitEntry>>>,
        /// Shard `i`'s deferred wake records; same exclusivity.
        wakes: Vec<std::cell::UnsafeCell<Vec<WakeRec>>>,
        /// Tasks that yielded during the epoch — the already-ordered head
        /// of the next round, handed through to the finishing worker.
        next: Mutex<Vec<usize>>,
    }

    // Safety: `shards[i]`/`wakes[i]` are only touched by the single worker
    // that claimed index `i` through the cursor CAS, and by the finishing
    // worker after the commit barrier (`round_done` reaching the shard
    // count with AcqRel ordering).
    unsafe impl Send for CommitWork {}
    unsafe impl Sync for CommitWork {}

    /// What the workers are currently claiming: an epoch's task round or
    /// the sharded commit of its ordered staged messages.
    #[derive(Clone)]
    enum Work {
        /// Tasks of the current epoch, in deterministic order.
        Tasks(Arc<Vec<usize>>),
        /// Shards of the finished epoch's staged messages.
        Commit(Arc<CommitWork>),
    }

    impl Work {
        /// Number of claimable units this phase holds.
        fn units(&self) -> usize {
            match self {
                Work::Tasks(round) => round.len(),
                Work::Commit(cw) => cw.shards.len(),
            }
        }
    }

    /// Phase control: the current claimable work and the generation the
    /// lock-free claim cursor validates against.
    struct EpochGate {
        /// The current phase's work.
        work: Work,
        /// Generation counter, bumped on every publish (task round or
        /// commit phase); also embedded in the claim cursor.
        gen: u64,
        /// All tasks finished: workers should exit.
        done: bool,
    }

    /// Auto-sharding floor: a shard below this many entries amortises
    /// neither the claim CAS nor the per-destination mailbox lock, so
    /// small commits stay on the committing worker.
    const MIN_SHARD_ENTRIES: usize = 64;

    /// Consecutive no-progress epochs (no message staged, no task woken,
    /// no task finished — pure yields) tolerated while a crash-stop fault
    /// is armed before the scheduler declares the run stalled and poisons
    /// every unfinished task. High enough that legitimate bounded polling
    /// (a rank yielding a few times before sending) never trips it; the
    /// detector is off entirely when the fault plan schedules no crashes,
    /// so fault-free programs keep the exact-deadlock-only behaviour.
    const STAGNANT_EPOCH_LIMIT: usize = 64;

    /// The commit-scratch pool families of a scheduler, split out so a
    /// [`super::fleet::Fleet`] can share one set across every universe it
    /// admits (a solo [`Scheduler`] owns a private set). Sharing is
    /// unobservable in simulation output: pooled buffers are always handed
    /// out drained, so only their *capacity* — never their contents —
    /// survives a universe boundary. The process-global size-classed
    /// payload pool ([`crate::pool`]) is shared the same way.
    #[derive(Default)]
    pub(crate) struct SchedPools {
        /// Recycled commit-shard entry vectors: every drained
        /// (capacity-retaining) vector returns here, so steady-state
        /// commits allocate nothing per epoch.
        entry_pool: Pool<Vec<CommitEntry>>,
        /// Recycled round/next index vectors.
        idx_pool: Pool<Vec<usize>>,
        /// Recycled wake-record vectors.
        wake_pool: Pool<Vec<WakeRec>>,
        /// Recycled `push_segments` scratch (batch + keys + fired buffers).
        scratch_pool: Pool<CommitScratch>,
    }

    /// Wake channel between schedulers and the fleet worker pool: a
    /// versioned condvar. Every event a sweeping fleet worker could be
    /// waiting on — a universe publishing a multi-unit phase, a universe
    /// completing, an admission, shutdown — bumps the version and wakes
    /// the pool, so a worker that reads the version *before* sweeping can
    /// sleep on `wait_past` without lost-wakeup races.
    pub(crate) struct FleetSignal {
        version: Mutex<u64>,
        cv: Condvar,
    }

    impl FleetSignal {
        pub(crate) fn new() -> FleetSignal {
            FleetSignal {
                version: Mutex::new(0),
                cv: Condvar::new(),
            }
        }

        /// Current version; read before a sweep, passed to `wait_past`.
        pub(crate) fn version(&self) -> u64 {
            *self.version.lock()
        }

        /// Record an event and wake every sleeping fleet worker.
        pub(crate) fn notify(&self) {
            *self.version.lock() += 1;
            self.cv.notify_all();
        }

        /// Sleep until the version moves past `seen` (returns immediately
        /// if it already has).
        pub(crate) fn wait_past(&self, seen: u64) {
            let mut v = self.version.lock();
            while *v == seen {
                self.cv.wait(&mut v);
            }
        }
    }

    /// Why [`Scheduler::drain_phases`] returned.
    pub(crate) enum Drain {
        /// The universe completed: every task finished (or was poisoned
        /// and then finished) and the gate is `done`.
        Done,
        /// No unit of the current phase is claimable and the phase is not
        /// advancing under this worker: another worker owns the phase
        /// tail (it will publish the next phase — and signal, if the
        /// phase is multi-unit — when it finishes). Carries the stalled
        /// generation so a solo worker can sleep on the gate until it
        /// moves.
        Stalled(u64),
    }

    /// The cooperative scheduler for one universe run.
    pub(crate) struct Scheduler {
        shared: Arc<SchedShared>,
        slots: Vec<TaskSlot>,
        router: Arc<Router>,
        gate: Mutex<EpochGate>,
        gate_cv: Condvar,
        /// `((gen mod 2^32) << 32) | next_index` — claims CAS the low
        /// half after validating the high half, so a worker holding a
        /// stale phase can never steal an index from the next one.
        cursor: AtomicU64,
        /// Claim units of the current phase that have completed; the
        /// worker that completes the last one advances the phase.
        round_done: AtomicUsize,
        /// The one staged-entry vector every epoch gathers into and sorts
        /// in place (reused across epochs).
        commit_buf: Mutex<Vec<CommitEntry>>,
        /// The commit-scratch pools — private to this scheduler for a
        /// solo run, shared across universes under a fleet (see
        /// [`SchedPools`]).
        pools: Arc<SchedPools>,
        /// The owning fleet's wake channel, when this universe runs under
        /// one (`None` for solo runs). Notified whenever a multi-unit
        /// phase is published or the universe completes, so sweeping
        /// fleet workers parked on the fleet condvar — not this
        /// scheduler's `gate_cv` — observe the new work.
        signal: Option<Arc<FleetSignal>>,
        /// Displaced `Work::Tasks` round `Arc`s: `publish_tasks` reuses one
        /// when no worker still holds a clone (always true at 1 worker),
        /// so steady-state round publishing is allocation-free.
        round_pool: Mutex<Vec<Arc<Vec<usize>>>>,
        /// How the epoch commit delivers staged messages.
        commit_algo: CommitAlgo,
        /// Requested shard-count cap (0 = auto from the worker count).
        commit_shards: usize,
        /// Effective worker count of the current run (set by `run`).
        workers: AtomicUsize,
        /// Messages staged by the epoch being committed (crash-stagnation
        /// progress signal; written by `finish_round`, read at
        /// `finish_epoch`).
        epoch_msgs: AtomicUsize,
        /// Consecutive epochs without observable progress (see
        /// [`STAGNANT_EPOCH_LIMIT`]).
        stagnant: AtomicUsize,
        /// `live` count at the previous epoch's commit (a finish is
        /// progress).
        prev_live: AtomicUsize,
        /// Whether workers record wall-clock phase timings (see
        /// [`crate::obs::SchedProfile`]; host time, **not** deterministic).
        profile: bool,
        /// Per-worker phase profiles, merged by each worker at exit.
        profiles: Mutex<Vec<crate::obs::WorkerProfile>>,
        /// Global payload-pool counters at construction; `take_profile`
        /// reports this run's delta.
        payload_base: crate::pool::PayloadCounters,
        /// The fiber stack slab (`None` under poll mode, which is exactly
        /// how poll mode escapes the stack/VMA ceiling).
        _stacks: Option<StackSlab>,
    }

    impl Scheduler {
        /// Prepare `p` task slots with `stack_size` bytes of stack each
        /// (fiber mode), or `p` stackless poll slots when `poll_mode` is
        /// set — poll slots hold a [`poll::RankBody`] instead of a fiber
        /// and are stepped in place, so no stack slab is reserved at all.
        /// `router` is where committed messages are delivered;
        /// `commit_algo`/`commit_shards` select and size the commit
        /// pipeline (see [`CommitAlgo`]).
        /// `pools` supplies the commit-scratch pools (a fresh private set
        /// for solo runs, the fleet-shared set under a fleet) and
        /// `signal` the owning fleet's wake channel, if any.
        #[allow(clippy::too_many_arguments)]
        pub fn new(
            p: usize,
            stack_size: usize,
            router: Arc<Router>,
            commit_algo: CommitAlgo,
            commit_shards: usize,
            profile: bool,
            pools: Arc<SchedPools>,
            signal: Option<Arc<FleetSignal>>,
            poll_mode: bool,
        ) -> Scheduler {
            let stacks = (!poll_mode).then(|| StackSlab::new(p, stack_size));
            let shared = Arc::new(SchedShared {
                woken: Mutex::new(Vec::new()),
                live: AtomicUsize::new(p),
                switches: AtomicU64::new(0),
                epochs: AtomicU64::new(0),
                wakeups: AtomicU64::new(0),
                panic: Mutex::new(None),
            });
            let mut slots = Vec::with_capacity(p);
            for rank in 0..p {
                let core = Arc::new(TaskCore {
                    rank,
                    status: AtomicU8::new(ST_READY),
                    poisoned: AtomicBool::new(false),
                    wait_reason: Mutex::new(None),
                });
                let waker: Arc<dyn Wake> = Arc::new(TaskWaker {
                    core: Arc::clone(&core),
                    shared: Arc::clone(&shared),
                });
                slots.push(TaskSlot {
                    core,
                    waker,
                    intent: AtomicU8::new(INTENT_NONE),
                    staged: std::cell::UnsafeCell::new(Vec::new()),
                    is_poll: poll_mode,
                    // Placeholder; the real fiber is built below once the
                    // slot has its final address (fiber mode only).
                    fiber: std::cell::UnsafeCell::new(stacks.as_ref().map(|s| unsafe {
                        fiber::Fiber::new(s.region(rank), s.per, std::ptr::null_mut())
                    })),
                    body: std::cell::UnsafeCell::new(None),
                    poll_body: std::cell::UnsafeCell::new(None),
                });
            }
            let mut sched = Scheduler {
                shared,
                slots,
                router,
                gate: Mutex::new(EpochGate {
                    work: Work::Tasks(Arc::new(Vec::new())),
                    gen: 0,
                    done: false,
                }),
                gate_cv: Condvar::new(),
                cursor: AtomicU64::new(0),
                round_done: AtomicUsize::new(0),
                commit_buf: Mutex::new(Vec::new()),
                pools,
                signal,
                round_pool: Mutex::new(Vec::new()),
                commit_algo,
                commit_shards,
                workers: AtomicUsize::new(1),
                epoch_msgs: AtomicUsize::new(0),
                stagnant: AtomicUsize::new(0),
                prev_live: AtomicUsize::new(p),
                profile,
                profiles: Mutex::new(Vec::new()),
                payload_base: crate::pool::counters(),
                _stacks: stacks,
            };
            // Now that the slots are at their final addresses, point each
            // fiber's entry argument at its slot (fiber mode only; poll
            // slots have no fiber to re-point).
            for rank in 0..p {
                let (region, per) = match &sched._stacks {
                    Some(s) => (s.region(rank), s.per),
                    None => break,
                };
                let slot_ptr = &sched.slots[rank] as *const TaskSlot as *mut u8;
                sched.slots[rank].fiber = std::cell::UnsafeCell::new(Some(unsafe {
                    fiber::Fiber::new(region, per, slot_ptr)
                }));
            }
            sched
        }

        /// Handle for recording a rank body's panic (first one wins).
        pub fn panic_store(&self) -> Arc<SchedShared> {
            Arc::clone(&self.shared)
        }

        /// Install the body of `rank`'s task.
        ///
        /// # Safety
        /// The boxed closure's true lifetime must outlive [`Scheduler::run`]
        /// (the caller transmutes it to `'static`); `run` completes or
        /// poisons every task before returning, so the borrow never escapes.
        pub unsafe fn spawn(&self, rank: usize, body: Box<dyn FnOnce() + Send>) {
            *self.slots[rank].body.get() = Some(body);
        }

        /// Install the poll-mode state machine of `rank`'s task (poll-mode
        /// schedulers only; see [`poll::RankBody`]).
        ///
        /// # Safety
        /// As for [`Scheduler::spawn`]: anything the body borrows must
        /// outlive [`Scheduler::run`] (the caller transmutes the body to
        /// `'static`); `run` finishes or poisons every task before
        /// returning, so the borrow never escapes.
        pub unsafe fn spawn_poll(&self, rank: usize, body: Box<dyn poll::RankBody>) {
            debug_assert!(self.slots[rank].is_poll, "spawn_poll on a fiber scheduler");
            *self.slots[rank].poll_body.get() = Some(body);
        }

        /// Arm the gate for a run: record the effective worker count
        /// (a pure throughput knob — it sizes the shard heuristic, which
        /// never affects simulation output) and publish epoch 1 in
        /// `initial_order`. Solo runs call this through [`Scheduler::run`];
        /// a fleet calls it at admission and lets its sweeping workers
        /// drive the gate via [`Scheduler::drain_phases`].
        pub fn prepare(&self, workers: usize, initial_order: &[usize]) {
            self.workers.store(workers.max(1), Ordering::Relaxed);
            let mut g = self.gate.lock();
            g.work = Work::Tasks(Arc::new(initial_order.to_vec()));
            g.gen = 1;
            g.done = initial_order.is_empty();
            self.round_done.store(0, Ordering::Relaxed);
            self.cursor.store(1 << 32, Ordering::Release);
        }

        /// The first recorded rank panic, if any (taken, so a second call
        /// returns `None`).
        pub fn take_panic(&self) -> Option<(usize, Box<dyn Any + Send>)> {
            self.shared.panic.lock().take()
        }

        /// Run every spawned task to completion on `workers` OS threads,
        /// starting epoch 1 in `initial_order`. Returns the first recorded
        /// panic.
        pub fn run(
            &self,
            workers: usize,
            initial_order: &[usize],
        ) -> Option<(usize, Box<dyn Any + Send>)> {
            let workers = workers.max(1);
            self.prepare(workers, initial_order);
            if workers == 1 {
                self.worker_loop(0);
            } else {
                std::thread::scope(|scope| {
                    for w in 0..workers {
                        let this = &*self;
                        std::thread::Builder::new()
                            .name(format!("sched-worker{w}"))
                            .spawn_scoped(scope, move || this.worker_loop(w))
                            .expect("spawn scheduler worker");
                    }
                });
            }
            self.take_panic()
        }

        /// Total context switches performed (diagnostics).
        #[allow(dead_code)]
        pub fn switches(&self) -> u64 {
            self.shared.switches.load(Ordering::Relaxed)
        }

        /// The scheduler's deterministic model counters after a run:
        /// `(epochs, wakeups, switches)` — all pure functions of the
        /// program, identical for every worker count and commit algorithm.
        pub fn counters(&self) -> (u64, u64, u64) {
            (
                self.shared.epochs.load(Ordering::Relaxed),
                self.shared.wakeups.load(Ordering::Relaxed),
                self.shared.switches.load(Ordering::Relaxed),
            )
        }

        /// The wall-clock phase profile of the run, if profiling was on.
        pub fn take_profile(&self) -> Option<crate::obs::SchedProfile> {
            if !self.profile {
                return None;
            }
            let (pool_hits, pool_misses) = self.pools.entry_pool.counters();
            let payload = crate::pool::counters() - self.payload_base;
            Some(crate::obs::SchedProfile {
                workers: std::mem::take(&mut *self.profiles.lock()),
                pool_hits,
                pool_misses,
                payload_hits: payload.hits,
                payload_misses: payload.misses,
                payload_overflow: payload.overflow,
            })
        }

        /// Claim the next unit (task index or commit shard) of the current
        /// phase if `gen` is still current. `None` means: phase drained or
        /// advanced — refresh via the gate.
        fn try_claim(&self, gen: u64, units: usize) -> Option<usize> {
            loop {
                let c = self.cursor.load(Ordering::Acquire);
                // The cursor carries gen mod 2^32; compare masked, or a
                // run past 2^32 phases would never match again and hang.
                if c >> 32 != gen & 0xffff_ffff {
                    return None;
                }
                let i = (c & 0xffff_ffff) as usize;
                if i >= units {
                    return None;
                }
                if self
                    .cursor
                    .compare_exchange_weak(c, c + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return Some(i);
                }
            }
        }

        /// Claim and execute units of the current phase — and every phase
        /// it chains into — until the universe completes or the phase
        /// tail is owned by another worker. Never blocks: a solo worker
        /// sleeps on the gate between calls ([`Scheduler::worker_loop`]),
        /// a fleet worker moves on to the next runnable universe and
        /// parks on the fleet condvar only when *no* universe has work.
        ///
        /// This is the per-universe half of the generation-tagged
        /// multi-universe cursor: claims validate this scheduler's own
        /// `(gen, cursor)` pair, so which universes a worker visits — and
        /// in what order — can never leak a claim unit across universes
        /// or perturb the phase sequence within one.
        pub fn drain_phases(&self, prof: &mut crate::obs::WorkerProfile) -> Drain {
            // Wall-clock phase accounting (only when profiling): `Instant`
            // reads stay out of the deterministic domain — they never feed
            // back into scheduling decisions or virtual time.
            let (mut gen, mut work) = {
                let g = self.gate.lock();
                if g.done {
                    return Drain::Done;
                }
                (g.gen, g.work.clone())
            };
            loop {
                match self.try_claim(gen, work.units()) {
                    Some(i) => {
                        let t0 = self.profile.then(std::time::Instant::now);
                        match &work {
                            Work::Tasks(round) => self.run_task(round[i]),
                            Work::Commit(cw) => self.push_shard(cw, i),
                        }
                        if let Some(t0) = t0 {
                            let ns = t0.elapsed().as_nanos() as u64;
                            match &work {
                                Work::Tasks(_) => {
                                    prof.run_ns += ns;
                                    prof.tasks += 1;
                                }
                                Work::Commit(_) => {
                                    prof.commit_ns += ns;
                                    prof.shards += 1;
                                }
                            }
                        }
                        if self.round_done.fetch_add(1, Ordering::AcqRel) + 1 == work.units() {
                            // Last unit of the phase: advance it
                            // (single-threaded by construction — every
                            // other worker is either waiting on the gate,
                            // sweeping other universes, or about to).
                            // The advance orders and, on the inline path,
                            // delivers the epoch's messages: commit time.
                            let t0 = self.profile.then(std::time::Instant::now);
                            match &work {
                                Work::Tasks(round) => self.finish_round(round),
                                Work::Commit(cw) => self.finish_commit(cw),
                            }
                            if let Some(t0) = t0 {
                                prof.commit_ns += t0.elapsed().as_nanos() as u64;
                            }
                        }
                    }
                    None => {
                        let g = self.gate.lock();
                        if g.done {
                            return Drain::Done;
                        }
                        if g.gen == gen {
                            return Drain::Stalled(gen);
                        }
                        gen = g.gen;
                        work = g.work.clone();
                    }
                }
            }
        }

        fn worker_loop(&self, widx: usize) {
            let mut prof = crate::obs::WorkerProfile::default();
            loop {
                match self.drain_phases(&mut prof) {
                    Drain::Done => break,
                    Drain::Stalled(gen) => {
                        let idle0 = self.profile.then(std::time::Instant::now);
                        let mut g = self.gate.lock();
                        while !g.done && g.gen == gen {
                            self.gate_cv.wait(&mut g);
                        }
                        let done = g.done;
                        drop(g);
                        if let Some(t) = idle0 {
                            prof.idle_ns += t.elapsed().as_nanos() as u64;
                        }
                        if done {
                            break;
                        }
                    }
                }
            }
            if self.profile {
                let mut ps = self.profiles.lock();
                if ps.len() <= widx {
                    ps.resize_with(widx + 1, Default::default);
                }
                ps[widx] = prof;
            }
        }

        /// Shard-count target for a commit of `entries` staged messages:
        /// the explicit [`SimConfig::coop_commit_shards`] cap when set,
        /// otherwise ~2 claim units per worker with [`MIN_SHARD_ENTRIES`]
        /// as the floor (1 worker ⇒ 1 shard ⇒ the inline fast path).
        ///
        /// The shard count never affects simulation output — per-mailbox
        /// push order and the wake merge are independent of where the
        /// segment run is cut — so this is purely a throughput knob.
        ///
        /// [`SimConfig::coop_commit_shards`]: crate::SimConfig::coop_commit_shards
        fn shard_target(&self, entries: usize) -> usize {
            if entries == 0 {
                return 1;
            }
            if self.commit_shards > 0 {
                return self.commit_shards.min(entries);
            }
            let w = self.workers.load(Ordering::Relaxed).max(1);
            if w == 1 {
                return 1;
            }
            (entries / MIN_SHARD_ENTRIES).clamp(1, 2 * w)
        }

        /// The executed round is complete: requeue yielded tasks, gather
        /// and order the epoch's staged messages, and run — or publish —
        /// the commit.
        fn finish_round(&self, round: &[usize]) {
            // 1. Yielded tasks re-enter first, in their epoch order.
            let mut next = self.pools.idx_pool.take();
            for &tid in round {
                if self.slots[tid].intent.load(Ordering::Acquire) == INTENT_YIELD {
                    next.push(tid);
                }
            }
            // 2. Order and deliver the staged messages. The global commit
            // key is monotone along each sender's program order (running
            // max), so per-sender FIFO is preserved; across senders it
            // makes wake-up order — and hence the next round's tail —
            // follow virtual time.
            let mut staged = self.commit_buf.lock();
            for &tid in round {
                let out = unsafe { &mut *self.slots[tid].staged.get() };
                let mut matchable = Time::ZERO;
                for (seq, (dest, msg)) in out.drain(..).enumerate() {
                    matchable = matchable.max(msg.arrival);
                    staged.push(CommitEntry {
                        matchable,
                        src: tid,
                        seq: seq as u32,
                        dest,
                        msg,
                    });
                }
            }
            // Progress signal for the crash-stagnation detector: how many
            // messages this epoch stages (a pure function of the epoch
            // contents, so identical under every worker count and commit
            // algorithm). Read back by `finish_epoch`.
            self.epoch_msgs.store(staged.len(), Ordering::Relaxed);
            if self.commit_algo == CommitAlgo::Serial {
                // Serial reference: a stable sort on the global key and one
                // (matchable, src, seq)-ordered push loop on this worker;
                // wakes fire inline, in order.
                staged.sort_by_key(CommitEntry::key);
                for e in staged.drain(..) {
                    self.router.mailboxes[e.dest].push(e.msg);
                }
                drop(staged);
                self.finish_epoch(next);
                return;
            }
            // Sharded path: destination-major sort. Each destination's
            // segment is contiguous and internally ordered by the global
            // key — exactly the serial commit's per-mailbox subsequence —
            // so segments can be pushed concurrently without perturbing
            // any mailbox's state. The key is unique (`(src, seq)` alone
            // is), so the in-place unstable sort has exactly one possible
            // result and allocates no scratch.
            staged.sort_unstable_by_key(|e| (e.dest, e.matchable, e.src, e.seq));
            let mut buf = std::mem::take(&mut *staged);
            drop(staged);
            self.deliver_sorted(&mut buf, next);
            *self.commit_buf.lock() = buf;
        }

        /// Deliver a destination-major-ordered commit run: inline on this
        /// worker for small commits (or a 1-worker pool), else cut into
        /// shards at segment boundaries and published as [`Work::Commit`].
        /// `staged` is drained either way (capacity retained for reuse).
        fn deliver_sorted(&self, staged: &mut Vec<CommitEntry>, next: Vec<usize>) {
            let target = self.shard_target(staged.len());
            if target <= 1 {
                // Inline fast path: no claim round-trip for small commits
                // (or a 1-worker pool). Identical output by construction.
                let mut wakes = self.pools.wake_pool.take();
                let mut scratch = self.pools.scratch_pool.take();
                push_segments(&self.router, staged.drain(..), &mut wakes, &mut scratch);
                self.pools.scratch_pool.put(scratch);
                self.fire_wakes_merged(&mut wakes);
                self.pools.wake_pool.put(wakes);
                self.finish_epoch(next);
                return;
            }
            // Cut the run into ≤ target shards at segment boundaries
            // (shards own whole destinations; a `cmp` on `dest` marks the
            // cut). Every shard except possibly the last holds ≥ ⌈n/target⌉
            // entries, so at most `target` shards are produced. Shard
            // vectors are recycled through `entry_pool`, so steady state
            // moves each entry once (ordered run → shard) without
            // allocating. (Handing claimers disjoint raw sub-slices of
            // the run itself would avoid even that move, but needs
            // `ptr::read`-style manual moves out of aliased storage; one
            // 64-byte memcpy per message isn't worth that unsafety.)
            let per = staged.len().div_ceil(target);
            let take_shard = || {
                let mut v = self.pools.entry_pool.take();
                v.reserve(per + 8);
                v
            };
            let mut shards: Vec<std::cell::UnsafeCell<Vec<CommitEntry>>> = Vec::new();
            let mut cur: Vec<CommitEntry> = take_shard();
            for e in staged.drain(..) {
                if cur.len() >= per && cur.last().is_some_and(|l| l.dest != e.dest) {
                    let full = std::mem::replace(&mut cur, take_shard());
                    shards.push(std::cell::UnsafeCell::new(full));
                }
                cur.push(e);
            }
            if shards.is_empty() {
                // One giant destination segment (pure all-to-one fan-in):
                // a single mailbox must be pushed in order anyway.
                let mut wakes = self.pools.wake_pool.take();
                let mut scratch = self.pools.scratch_pool.take();
                push_segments(&self.router, cur.drain(..), &mut wakes, &mut scratch);
                self.pools.scratch_pool.put(scratch);
                self.pools.entry_pool.put(cur);
                self.fire_wakes_merged(&mut wakes);
                self.pools.wake_pool.put(wakes);
                self.finish_epoch(next);
                return;
            }
            shards.push(std::cell::UnsafeCell::new(cur));
            let wakes = (0..shards.len())
                .map(|_| std::cell::UnsafeCell::new(self.pools.wake_pool.take()))
                .collect();
            let cw = Arc::new(CommitWork {
                shards,
                wakes,
                next: Mutex::new(next),
            });
            // Publish the commit phase; this worker re-enters its claim
            // loop and takes shards alongside the woken pool.
            self.publish(Work::Commit(cw));
        }

        /// Push one claimed shard: batch-deliver its per-destination
        /// segments, deferring every wake-up as a keyed record.
        fn push_shard(&self, cw: &CommitWork, i: usize) {
            // Safety: shard `i` was claimed exclusively through the cursor
            // CAS; only this worker touches its vectors until the commit
            // barrier passes.
            let entries = unsafe { &mut *cw.shards[i].get() };
            let wakes = unsafe { &mut *cw.wakes[i].get() };
            let mut scratch = self.pools.scratch_pool.take();
            push_segments(&self.router, entries.drain(..), wakes, &mut scratch);
            self.pools.scratch_pool.put(scratch);
        }

        /// All shards are pushed: merge the deferred wake-ups in global
        /// key order (bit-identical to the serial commit's wake order) and
        /// close out the epoch.
        fn finish_commit(&self, cw: &CommitWork) {
            let mut recs = self.pools.wake_pool.take();
            for (s, slot) in cw.wakes.iter().enumerate() {
                // Safety: the commit barrier has passed; no worker holds a
                // shard any more.
                let ws = unsafe { &mut *slot.get() };
                for mut r in ws.drain(..) {
                    // Stamp the shard into the high ord bits so the
                    // concatenation order stays recoverable after the
                    // unstable merge sort (see [`WakeRec::ord`]).
                    r.ord |= (s as u64) << 32;
                    recs.push(r);
                }
                let ws = std::mem::take(ws);
                if ws.capacity() > 0 {
                    self.pools.wake_pool.put(ws);
                }
            }
            // Recycle the drained shard vectors (their capacity) for the
            // next epoch's commit.
            for cell in &cw.shards {
                let v = std::mem::take(unsafe { &mut *cell.get() });
                if v.capacity() > 0 {
                    self.pools.entry_pool.put(v);
                }
            }
            self.fire_wakes_merged(&mut recs);
            self.pools.wake_pool.put(recs);
            let next = std::mem::take(&mut *cw.next.lock());
            self.finish_epoch(next);
        }

        /// Fire deferred wake-ups in ascending global-key order. `(key,
        /// ord)` is unique (see [`WakeRec::ord`]), so the allocation-free
        /// unstable sort reproduces exactly what a stable by-key sort of
        /// the shard concatenation would: several waiters triggered by
        /// the *same* message keep their subscription order — the order
        /// the serial commit's inline `push` produces.
        fn fire_wakes_merged(&self, recs: &mut Vec<WakeRec>) {
            recs.sort_unstable_by_key(|r| (r.key, r.ord));
            for r in recs.drain(..) {
                r.waker.wake();
            }
        }

        /// Deliveries are committed: append woken receivers to the next
        /// round, detect deadlock, and publish the next round.
        fn finish_epoch(&self, mut next: Vec<usize>) {
            self.shared.epochs.fetch_add(1, Ordering::Relaxed);
            // Receivers woken by the committed deliveries, in commit order.
            let woken_count;
            {
                let mut w = self.shared.woken.lock();
                woken_count = w.len();
                next.append(&mut w);
            }
            self.shared
                .wakeups
                .fetch_add(woken_count as u64, Ordering::Relaxed);
            // Crash-stop stagnation detector. With a crashed rank in the
            // fault plan, a peer *polling* for its messages (nonblocking
            // collectives, sorter wave loops) yields forever: the round
            // never empties, so the exact deadlock detector below cannot
            // fire. Progress is epoch-observable — a message staged, a
            // task woken, a task finished. STAGNANT_EPOCH_LIMIT epochs of
            // pure yields while crashes are armed mean no progress is
            // possible any more: poison every unfinished task so polling
            // loops fail loudly with a RoundBlame. Every input here is a
            // pure function of the epoch contents, so the poison epoch is
            // identical for every worker count and commit algorithm.
            let live = self.shared.live.load(Ordering::Acquire);
            if live > 0 && self.router.faults.has_crashes() {
                let msgs = self.epoch_msgs.swap(0, Ordering::Relaxed);
                let prev = self.prev_live.swap(live, Ordering::Relaxed);
                if msgs > 0 || woken_count > 0 || prev != live {
                    self.stagnant.store(0, Ordering::Relaxed);
                } else if self.stagnant.fetch_add(1, Ordering::Relaxed) + 1 >= STAGNANT_EPOCH_LIMIT
                {
                    self.stagnant.store(0, Ordering::Relaxed);
                    for slot in &self.slots {
                        if slot.core.status.load(Ordering::Acquire) != ST_FINISHED {
                            slot.core.poisoned.store(true, Ordering::Release);
                            // Blocked tasks need a wake to observe the
                            // poison; yielded (polling) tasks are already
                            // in `next` and observe it on their next
                            // mailbox operation. `wake_core` is a no-op
                            // for non-blocked states.
                            wake_core(&slot.core, &self.shared);
                        }
                    }
                    next.append(&mut self.shared.woken.lock());
                }
            }
            // Nothing runnable but tasks remain: deadlock. Poison every
            // blocked task; the wake-ups queue them (in rank order) so
            // their blocking operations can return the timeout error.
            if next.is_empty() && live > 0 {
                for slot in &self.slots {
                    if slot.core.status.load(Ordering::Acquire) == ST_BLOCKED {
                        slot.core.poisoned.store(true, Ordering::Release);
                        wake_core(&slot.core, &self.shared);
                    }
                }
                next.append(&mut self.shared.woken.lock());
                if next.is_empty() {
                    eprintln!(
                        "mpisim: scheduler invariant broken: {live} live tasks, none \
                         runnable, none blocked"
                    );
                    std::process::abort();
                }
            }
            if live == 0 {
                let mut g = self.gate.lock();
                g.done = true;
                self.gate_cv.notify_all();
                drop(g);
                // Under a fleet, completion must also wake sweeping
                // workers parked on the fleet condvar so one of them
                // reaps this universe (and admits the next).
                if let Some(sig) = &self.signal {
                    sig.notify();
                }
            } else {
                self.publish_tasks(next);
            }
        }

        /// Publish the next task round, reusing a displaced round `Arc`
        /// when no worker still holds a clone of it. At 1 worker that is
        /// always true by the time the next publish happens (the sole
        /// worker re-reads the gate — dropping its clone — before it can
        /// finish another round), so the steady-state epoch publishes
        /// without touching the allocator; a still-referenced `Arc` just
        /// falls back to a fresh allocation.
        fn publish_tasks(&self, mut next: Vec<usize>) {
            let cand = self.round_pool.lock().pop();
            let arc = match cand {
                Some(mut a) => match Arc::get_mut(&mut a) {
                    Some(v) => {
                        v.clear();
                        v.append(&mut next);
                        a
                    }
                    None => Arc::new(std::mem::take(&mut next)),
                },
                None => Arc::new(std::mem::take(&mut next)),
            };
            if next.capacity() > 0 {
                next.clear();
                self.pools.idx_pool.put(next);
            }
            self.publish(Work::Tasks(arc));
        }

        /// Install `work` as the next claimable phase. The cursor moves
        /// last: claims validate its gen half, so no worker can touch the
        /// new phase before the gate state it pairs with is visible.
        fn publish(&self, work: Work) {
            let units = work.units();
            let mut g = self.gate.lock();
            g.gen += 1;
            let prev = std::mem::replace(&mut g.work, work);
            self.round_done.store(0, Ordering::Relaxed);
            self.cursor
                .store((g.gen & 0xffff_ffff) << 32, Ordering::Release);
            // A one-unit phase is fully served by the publishing worker
            // itself — waking the pool for it would just thrash the
            // sleeping workers during serial phases of the program. They
            // stay parked until a wider phase (or `done`) arrives; the
            // publisher alone keeps the simulation live.
            if units > 1 {
                self.gate_cv.notify_all();
            }
            drop(g);
            // Same rule for a fleet's pool: multi-unit phases invite idle
            // workers in; one-unit phases stay with the publishing worker
            // (its `drain_phases` claim loop serves them without ever
            // leaving the universe).
            if units > 1 {
                if let Some(sig) = &self.signal {
                    sig.notify();
                }
            }
            // The displaced round vector feeds a later `publish_tasks`
            // (its `Arc` becomes unique once every worker re-reads the
            // gate); commit work is dropped as usual.
            if let Work::Tasks(arc) = prev {
                let mut pool = self.round_pool.lock();
                if pool.len() < 4 {
                    pool.push(arc);
                }
            }
        }

        fn run_task(&self, tid: usize) {
            let slot = &self.slots[tid];
            slot.core.status.store(ST_RUNNING, Ordering::Release);
            slot.intent.store(INTENT_NONE, Ordering::Release);
            self.shared.switches.fetch_add(1, Ordering::Relaxed);
            let prev = CURRENT.with(|c| c.replace(slot as *const TaskSlot as *const ()));
            if slot.is_poll {
                // Poll slice = fiber slice: the body runs until it
                // yields, parks, or finishes — it just suspends by
                // returning from `proceed` instead of context-switching.
                // `Step` is mapped onto the same intents the fiber
                // stores, so the epoch bookkeeping below is shared.
                let step = {
                    // Safety: this worker holds the task in `Running`
                    // (claimed exclusively through the cursor CAS).
                    let body = unsafe { (*slot.poll_body.get()).as_mut() }
                        .expect("poll body installed and unfinished");
                    body.handle_incoming();
                    if body.wants_to_proceed() {
                        body.proceed()
                    } else {
                        poll::Step::Yielded
                    }
                };
                match step {
                    poll::Step::Yielded => slot.intent.store(INTENT_YIELD, Ordering::Release),
                    poll::Step::Blocked => slot.intent.store(INTENT_BLOCK, Ordering::Release),
                    poll::Step::Finished => {
                        slot.intent.store(INTENT_FINISH, Ordering::Release);
                        // Release the finished rank's state machine early:
                        // at 2^20 ranks the tail of a run would otherwise
                        // hold every completed body's captures live.
                        unsafe { *slot.poll_body.get() = None };
                    }
                }
            } else {
                unsafe {
                    (*slot.fiber.get())
                        .as_mut()
                        .expect("fiber installed")
                        .resume()
                };
            }
            CURRENT.with(|c| c.set(prev));
            match slot.intent.load(Ordering::Acquire) {
                INTENT_YIELD => {
                    // Re-entry happens at commit (the intent scan), which
                    // keeps the next round's order deterministic.
                    slot.core.status.store(ST_READY, Ordering::Release);
                }
                INTENT_BLOCK => {
                    if slot
                        .core
                        .status
                        .compare_exchange(
                            ST_BLOCKING,
                            ST_BLOCKED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_err()
                    {
                        // WokenEarly (defensive; unreachable under the epoch
                        // discipline): convert to a yield so the commit
                        // scan re-enqueues it.
                        slot.core.status.store(ST_READY, Ordering::Release);
                        slot.intent.store(INTENT_YIELD, Ordering::Release);
                    }
                }
                INTENT_FINISH => {
                    slot.core.status.store(ST_FINISHED, Ordering::Release);
                    // Poll bodies have no stack to overrun, hence no
                    // canary to check.
                    if let Some(f) = unsafe { &*slot.fiber.get() } {
                        if !f.canary_intact() {
                            eprintln!(
                                "mpisim: rank {tid} overflowed its {}-byte fiber stack; \
                                 raise SimConfig::coop_stack_size",
                                self._stacks.as_ref().map_or(0, |s| s.per)
                            );
                            std::process::abort();
                        }
                    }
                    self.shared.live.fetch_sub(1, Ordering::AcqRel);
                }
                other => {
                    // A fiber switched out without announcing an intent:
                    // scheduler invariant broken.
                    eprintln!("mpisim: fiber {tid} suspended with invalid intent {other}");
                    std::process::abort();
                }
            }
        }
    }

    /// Reusable scratch of one `push_segments` call: the per-destination
    /// message batch, its parallel key array, and the fired-subscription
    /// buffer handed to [`Mailbox::push_batch`]. Pooled so steady-state
    /// commits reuse the capacity of all three.
    #[derive(Default)]
    struct CommitScratch {
        batch: Vec<Message>,
        keys: Vec<CommitKey>,
        fired: Vec<(usize, Arc<dyn Wake>)>,
    }

    /// Push a destination-major-sorted run of commit entries: one
    /// [`Mailbox::push_batch`] per destination segment (one lock
    /// acquisition per destination, however large its fan-in), recording
    /// every triggered wake-up as a [`WakeRec`] keyed by the triggering
    /// message's global commit key instead of firing it.
    fn push_segments(
        router: &Router,
        entries: impl Iterator<Item = CommitEntry>,
        wakes: &mut Vec<WakeRec>,
        s: &mut CommitScratch,
    ) {
        fn flush(router: &Router, dest: usize, s: &mut CommitScratch, wakes: &mut Vec<WakeRec>) {
            if s.batch.is_empty() {
                return;
            }
            router.mailboxes[dest].push_batch(&mut s.batch, &mut s.fired);
            for (idx, waker) in s.fired.drain(..) {
                wakes.push(WakeRec {
                    key: s.keys[idx],
                    ord: wakes.len() as u64,
                    waker,
                });
            }
            s.keys.clear();
        }
        let mut dest = usize::MAX;
        for e in entries {
            if e.dest != dest {
                flush(router, dest, s, wakes);
                dest = e.dest;
            }
            s.keys.push(e.key());
            s.batch.push(e.msg);
        }
        flush(router, dest, s, wakes);
    }

    /// Entry point every fiber starts in (called by the asm trampoline with
    /// the `TaskSlot` pointer that was planted in the initial frame).
    #[no_mangle]
    unsafe extern "C" fn mpisim_fiber_main(task: *mut u8) -> ! {
        let slot = &*(task as *const TaskSlot);
        let body = (*slot.body.get()).take().expect("fiber body installed");
        body(); // catches its own panics
        slot.intent.store(INTENT_FINISH, Ordering::Release);
        (*slot.fiber.get())
            .as_mut()
            .expect("fiber installed")
            .switch_to_worker();
        // Resuming a finished fiber is a scheduler bug.
        std::process::abort();
    }

    /// Record a rank body's panic payload; the first one wins and is
    /// re-thrown by `Universe::run` after the scheduler drains.
    pub(crate) fn record_panic(store: &SchedShared, rank: usize, payload: Box<dyn Any + Send>) {
        let mut g = store.panic.lock();
        if g.is_none() {
            *g = Some((rank, payload));
        }
    }

    pub(super) fn current_slot() -> Option<&'static TaskSlot> {
        let p = CURRENT.with(|c| c.get());
        if p.is_null() {
            None
        } else {
            // Slots outlive every fiber execution; the 'static is internal.
            Some(unsafe { &*(p as *const TaskSlot) })
        }
    }

    /// Stage an outgoing message with the current task for delivery at the
    /// next epoch commit. Returns the message back when the caller is not
    /// on a scheduler fiber (thread backend: deliver immediately).
    pub(crate) fn try_stage_send(dest: usize, msg: Message) -> Option<Message> {
        match current_slot() {
            None => Some(msg),
            Some(slot) => {
                unsafe { (*slot.staged.get()).push((dest, msg)) };
                None
            }
        }
    }

    /// Cooperatively yield: finish this task's epoch slice and run again in
    /// the next epoch (after all staged deliveries commit). On a plain
    /// thread this is `std::thread::yield_now` — poll loops in the
    /// libraries call this so they behave correctly under both backends.
    pub fn yield_now() {
        match current_slot() {
            None => std::thread::yield_now(),
            Some(slot) if slot.is_poll => panic!(
                "synchronous yield inside a poll-mode rank body: under \
                 Backend::Poll use yield_now_async (and the *_async API \
                 for every blocking operation)"
            ),
            Some(slot) => {
                slot.intent.store(INTENT_YIELD, Ordering::Release);
                unsafe {
                    (*slot.fiber.get())
                        .as_mut()
                        .expect("fiber installed")
                        .switch_to_worker()
                };
            }
        }
    }

    /// Park the current task until a waker fires. The caller must already
    /// have announced `ST_BLOCKING` and subscribed a waker.
    fn park(slot: &TaskSlot, reason: WaitReason) {
        *slot.core.wait_reason.lock() = Some(reason);
        slot.intent.store(INTENT_BLOCK, Ordering::Release);
        unsafe {
            (*slot.fiber.get())
                .as_mut()
                .expect("park runs on a fiber")
                .switch_to_worker()
        };
        slot.core.wait_reason.lock().take();
    }

    pub(super) fn deadlock_err(rank: usize, reason: &WaitReason, vnow: Time) -> MpiError {
        MpiError::Timeout {
            rank,
            waited_for: format!("{reason} [cooperative deadlock: every rank is blocked]"),
            virtual_now: vnow,
            // The scheduler has no fault-state access; `ProcState` fills
            // the blame in on the way out (`enrich_timeout`).
            blame: RoundBlame::default(),
        }
    }

    /// Whether the current fiber's task has been poisoned by the deadlock
    /// or stagnation detector. Always `false` off-fiber (thread backend
    /// polling relies on wall-clock timeouts instead).
    pub(crate) fn current_poisoned() -> bool {
        current_slot().is_some_and(|s| s.core.poisoned.load(Ordering::Acquire))
    }

    /// Blocking claim under the cooperative scheduler: yields to the
    /// scheduler instead of parking the OS thread.
    pub(crate) fn claim_coop(
        mb: &Mailbox,
        pat: &MatchPattern,
        rank: usize,
        vnow: Time,
    ) -> Result<Message> {
        let slot = current_slot().expect("claim_coop runs on a fiber");
        loop {
            if slot.core.poisoned.load(Ordering::Acquire) {
                return Err(deadlock_err(rank, &WaitReason::Recv(pat.clone()), vnow));
            }
            // Announce intent to block *before* subscribing so a wake-up
            // arriving between subscription and the switch is never lost.
            slot.core.status.store(ST_BLOCKING, Ordering::Release);
            match mb.claim_or_subscribe(pat, &slot.waker) {
                Subscribed::Hit(m) => {
                    slot.core.status.store(ST_RUNNING, Ordering::Release);
                    return Ok(m);
                }
                Subscribed::Waiting(token) => {
                    park(slot, WaitReason::Recv(pat.clone()));
                    // Normal wake-ups remove the subscription; the poison
                    // path does not. Idempotent either way.
                    mb.unsubscribe(token);
                }
            }
        }
    }

    /// Blocking probe under the cooperative scheduler.
    pub(crate) fn probe_coop(
        mb: &Mailbox,
        pat: &MatchPattern,
        rank: usize,
        vnow: Time,
    ) -> Result<MsgInfo> {
        let slot = current_slot().expect("probe_coop runs on a fiber");
        loop {
            if slot.core.poisoned.load(Ordering::Acquire) {
                return Err(deadlock_err(rank, &WaitReason::Probe(pat.clone()), vnow));
            }
            slot.core.status.store(ST_BLOCKING, Ordering::Release);
            match mb.probe_or_subscribe(pat, &slot.waker) {
                Subscribed::Hit(info) => {
                    slot.core.status.store(ST_RUNNING, Ordering::Release);
                    return Ok(info);
                }
                Subscribed::Waiting(token) => {
                    park(slot, WaitReason::Probe(pat.clone()));
                    mb.unsubscribe(token);
                }
            }
        }
    }
}

#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
pub use imp::yield_now;
#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
pub(crate) use imp::{
    claim_coop, current_poisoned, probe_coop, record_panic, try_stage_send, SchedPools, Scheduler,
};

// ---------------------------------------------------------------------------
// Fallback for targets without a fiber implementation
// ---------------------------------------------------------------------------

/// On unsupported targets there are no fibers: yielding degrades to the OS
/// hint and `Universe` silently uses the thread backend.
#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub fn yield_now() {
    std::thread::yield_now();
}

/// Without fibers nothing is ever staged: the message bounces straight
/// back to the caller for immediate delivery.
#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub(crate) fn try_stage_send(_dest: usize, msg: Message) -> Option<Message> {
    Some(msg)
}

/// Without fibers there is no scheduler, hence no poisoning.
#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub(crate) fn current_poisoned() -> bool {
    false
}

#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub(crate) fn claim_coop(
    _mb: &Mailbox,
    _pat: &MatchPattern,
    _rank: usize,
    _vnow: Time,
) -> Result<Message> {
    unreachable!("cooperative backend unavailable on this target")
}

#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub(crate) fn probe_coop(
    _mb: &Mailbox,
    _pat: &MatchPattern,
    _rank: usize,
    _vnow: Time,
) -> Result<MsgInfo> {
    unreachable!("cooperative backend unavailable on this target")
}

#[cfg(all(test, unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
mod tests {
    use super::imp::{vma_budget_from, StackSlab};

    #[test]
    fn vma_budget_parses_sysctl_and_falls_back() {
        // A readable sysctl wins (whitespace tolerated).
        assert_eq!(vma_budget_from(Some("262144\n")), 262144);
        assert_eq!(vma_budget_from(Some("  1048576  ")), 1048576);
        // Unreadable or garbage: the documented kernel default.
        assert_eq!(vma_budget_from(None), 65530);
        assert_eq!(vma_budget_from(Some("")), 65530);
        assert_eq!(vma_budget_from(Some("not-a-number")), 65530);
        assert_eq!(vma_budget_from(Some("-1")), 65530);
    }

    #[test]
    fn stack_slab_guard_auto_disable_boundary() {
        // Guards cost 2·n VMAs plus the VMA_MARGIN headroom. The exact
        // boundary: a budget of 2n + margin still fits (guards on); one
        // VMA less does not (guards off, canary-only).
        let n = 8;
        let margin = 4096; // VMA_MARGIN
        let fits = StackSlab::with_budget(n, 16 * 1024, Some(2 * n + margin));
        assert!(
            fits.guarded(),
            "a budget exactly covering 2n + margin must keep guard pages"
        );
        let tight = StackSlab::with_budget(n, 16 * 1024, Some(2 * n + margin - 1));
        assert!(
            !tight.guarded(),
            "one VMA below the budget must auto-disable guard pages"
        );
        // No platform budget at all (non-Linux): guards stay on.
        let unlimited = StackSlab::with_budget(n, 16 * 1024, None);
        assert!(unlimited.guarded());
        // Either way the regions stay usable.
        unsafe { tight.region(n - 1).write(0x5A) };
        unsafe { fits.region(n - 1).write(0x5A) };
    }

    #[test]
    fn stack_slab_skips_guards_when_vma_budget_is_tight() {
        // 2^15 ranks would need 2^16 VMAs for guards — past the default
        // Linux vm.max_map_count. The slab must fall back to one unguarded
        // mapping (canary-only) instead of exhausting the budget and
        // starving later mmaps (e.g. worker-thread stacks).
        #[cfg(target_os = "linux")]
        {
            let slab = StackSlab::new(1 << 15, 16 * 1024);
            assert!(
                !slab.guarded(),
                "paper-scale slabs must stay one O(1)-VMA mapping"
            );
            // Regions remain usable.
            unsafe { slab.region((1 << 15) - 1).write(0x5A) };
        }
    }

    #[test]
    fn stack_slab_guards_and_isolates_regions() {
        let per = 64 * 1024;
        let slab = StackSlab::new(4, per);
        // On every supported CI target mmap is available, so overruns
        // must fault (a PROT_NONE page sits below each stack).
        #[cfg(target_os = "linux")]
        assert!(slab.guarded(), "linux slabs must carry guard pages");
        for i in 0..4 {
            let r = slab.region(i);
            // Usable regions are writable end to end and non-overlapping.
            unsafe {
                r.write(0xAB);
                r.add(slab.per - 1).write(0xCD);
            }
            if i > 0 {
                let prev_end = unsafe { slab.region(i - 1).add(slab.per) };
                assert!(
                    unsafe { prev_end.add(if slab.guarded() { 1 } else { 0 }) } <= r,
                    "regions must not overlap"
                );
            }
        }
    }
}
