//! The stackful rank body: a synchronous closure on its own call stack,
//! stepped by the scheduler like any other [`RankBody`].
//!
//! Everything stack-shaped lives here and nowhere else: the context
//! switch, the `mmap` slab the stacks are carved from, and [`FiberBody`],
//! which adapts the two to the scheduler's `proceed` protocol. Deleting
//! `Backend::Cooperative` is deleting this file, its `mod` line, the
//! `suspend_in_place` import in `sched/task.rs` and the backend's arm in
//! `universe.rs`.
//!
//! **Invariant:** a fiber's stack is entered by at most one worker at a
//! time (the task state machine hands a task to one worker per step), the
//! code on it leaves only through [`suspend_in_place`] or by finishing,
//! and its region outlives it (every body holds the slab alive).
//!
//! # The switch
//!
//! The worker enters a fiber with [`Fiber::resume`]; code on the fiber
//! returns control with [`Fiber::switch_to_worker`]. Both are the same
//! symmetric operation: save the callee-saved registers and stack pointer
//! of the current side, load the other side's. It is ~20 instructions of
//! assembly per architecture (x86-64 System V and AArch64 AAPCS). Only
//! callee-saved state needs saving because a switch is always performed
//! *by a function call* ([`mpisim_ctx_switch`]), so the caller-saved half
//! is already dead by the ABI contract. On x86-64 the MXCSR and x87
//! control words are saved too, matching Boost.Context and glibc's
//! `swapcontext`.
//!
//! # Stacks
//!
//! Stacks are regions of one `mmap` slab with a `PROT_NONE` **guard
//! page** below each (see [`StackSlab`]): an overrun faults immediately
//! instead of silently corrupting the neighbouring fiber. Each stack's
//! lowest word additionally holds a canary that [`FiberBody`] checks when
//! the fiber finishes: the only line of defence when guards are off
//! (universes past ~30k ranks, where 2·p guard VMAs would exhaust Linux's
//! `vm.max_map_count`, or the rare heap fallback when `mmap` fails), and
//! a cheap second line otherwise. Dropping a suspended (unfinished) fiber
//! frees its stack without unwinding it; the scheduler drops a body only
//! after it finished.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::arch::global_asm;
use std::cell::Cell;
use std::ffi::c_void;
use std::marker::PhantomPinned;
use std::os::raw::{c_int, c_long};
use std::sync::Arc;

use super::poll::{RankBody, Step};
use super::task::{current_slot, record_panic, SchedShared, TaskSlot};

/// Written to the lowest word of every fiber stack; checked on finish.
const STACK_CANARY: u64 = 0xB0A7_F1BE_25C0_FFEE;

// The context-switch symbol: `fn(save: *mut *mut u8, load: *const *mut u8)`.
// Saves the current callee-saved state on the current stack, stores the
// resulting stack pointer through `save`, then loads the stack pointer from
// `load` and restores the state found there. "Returning" from this function
// therefore resumes whatever context was previously saved through `load`.
#[cfg(target_arch = "x86_64")]
global_asm!(
    r#"
    .text
    .globl mpisim_ctx_switch
    .p2align 4
mpisim_ctx_switch:
    push rbp
    push rbx
    push r12
    push r13
    push r14
    push r15
    sub rsp, 8
    stmxcsr dword ptr [rsp]
    fnstcw  word ptr [rsp + 4]
    mov qword ptr [rdi], rsp
    mov rsp, qword ptr [rsi]
    ldmxcsr dword ptr [rsp]
    fldcw   word ptr [rsp + 4]
    add rsp, 8
    pop r15
    pop r14
    pop r13
    pop r12
    pop rbx
    pop rbp
    ret

    .globl mpisim_fiber_start
    .p2align 4
mpisim_fiber_start:
    mov rdi, r12
    and rsp, -16
    call mpisim_fiber_main
    ud2
"#
);

#[cfg(target_arch = "aarch64")]
global_asm!(
    r#"
    .text
    .globl mpisim_ctx_switch
    .p2align 2
mpisim_ctx_switch:
    sub sp, sp, #160
    stp x19, x20, [sp, #0]
    stp x21, x22, [sp, #16]
    stp x23, x24, [sp, #32]
    stp x25, x26, [sp, #48]
    stp x27, x28, [sp, #64]
    stp x29, x30, [sp, #80]
    stp d8,  d9,  [sp, #96]
    stp d10, d11, [sp, #112]
    stp d12, d13, [sp, #128]
    stp d14, d15, [sp, #144]
    mov x9, sp
    str x9, [x0]
    ldr x9, [x1]
    mov sp, x9
    ldp x19, x20, [sp, #0]
    ldp x21, x22, [sp, #16]
    ldp x23, x24, [sp, #32]
    ldp x25, x26, [sp, #48]
    ldp x27, x28, [sp, #64]
    ldp x29, x30, [sp, #80]
    ldp d8,  d9,  [sp, #96]
    ldp d10, d11, [sp, #112]
    ldp d12, d13, [sp, #128]
    ldp d14, d15, [sp, #144]
    add sp, sp, #160
    ret

    .globl mpisim_fiber_start
    .p2align 2
mpisim_fiber_start:
    mov x0, x19
    bl mpisim_fiber_main
    brk #0x1
"#
);

extern "C" {
    fn mpisim_ctx_switch(save: *mut *mut u8, load: *const *mut u8);
}

/// A suspended-or-running resumable context bound to one stack region.
struct Fiber {
    /// Stack pointer of the suspended fiber side (valid while suspended).
    task_sp: *mut u8,
    /// Stack pointer of the suspended worker side (valid while the fiber
    /// runs; the fiber switches back through it).
    ret_sp: *mut u8,
    /// Lowest address of this fiber's stack region (canary location).
    stack_lo: *mut u8,
}

impl Fiber {
    /// Prepare a fiber on the stack region `[stack_lo, stack_lo + size)`
    /// such that the first [`Fiber::resume`] enters `mpisim_fiber_start`,
    /// which tail-calls `mpisim_fiber_main(task)`.
    ///
    /// # Safety
    /// The region must be valid, exclusively owned, at least 1 KiB, and
    /// outlive the fiber. `task` is handed to `mpisim_fiber_main` and must
    /// stay valid until the fiber finishes.
    unsafe fn new(stack_lo: *mut u8, size: usize, task: *mut u8) -> Fiber {
        debug_assert!(size >= 1024);
        // Canary at the very bottom: overruns clobber it first.
        (stack_lo as *mut u64).write(STACK_CANARY);
        // 16-align the top; build the initial frame the restore path of
        // `mpisim_ctx_switch` expects.
        let top = ((stack_lo as usize + size) & !15) as *mut u8;
        let start = mpisim_fiber_start_addr();
        #[cfg(target_arch = "x86_64")]
        {
            let f = top.sub(72) as *mut u64;
            // [0]: MXCSR (dword) + x87 CW (word) in their power-on defaults.
            f.add(0).write(0x1F80 | (0x037F << 32));
            f.add(1).write(0); // r15
            f.add(2).write(0); // r14
            f.add(3).write(0); // r13
            f.add(4).write(task as u64); // r12 -> first arg in the trampoline
            f.add(5).write(0); // rbx
            f.add(6).write(0); // rbp
            f.add(7).write(start as u64); // return address -> trampoline
            f.add(8).write(0); // fake caller frame, keeps unwinders sane
            Fiber {
                task_sp: f as *mut u8,
                ret_sp: std::ptr::null_mut(),
                stack_lo,
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            let f = top.sub(160) as *mut u64;
            for i in 0..20 {
                f.add(i).write(0);
            }
            f.add(0).write(task as u64); // x19 -> first arg in the trampoline
            f.add(11).write(start as u64); // x30 (lr) -> trampoline
            Fiber {
                task_sp: f as *mut u8,
                ret_sp: std::ptr::null_mut(),
                stack_lo,
            }
        }
    }

    /// Enter the fiber from a worker thread. Returns when the fiber calls
    /// [`Fiber::switch_to_worker`] (or announces it finished).
    ///
    /// # Safety
    /// Must not be called while the fiber is already running anywhere, and
    /// never again after the fiber finished.
    unsafe fn resume(&mut self) {
        mpisim_ctx_switch(&mut self.ret_sp, &self.task_sp);
    }

    /// Suspend the fiber, returning control to the worker that resumed it.
    ///
    /// # Safety
    /// Must be called *from code running on this fiber's stack*.
    unsafe fn switch_to_worker(&mut self) {
        mpisim_ctx_switch(&mut self.task_sp, &self.ret_sp);
    }

    /// Whether the bottom-of-stack canary is still intact.
    fn canary_intact(&self) -> bool {
        // SAFETY: `stack_lo` is the base of this fiber's live region.
        unsafe { (self.stack_lo as *const u64).read() == STACK_CANARY }
    }
}

/// Address of the architecture trampoline declared in `global_asm!`.
fn mpisim_fiber_start_addr() -> usize {
    extern "C" {
        fn mpisim_fiber_start();
    }
    mpisim_fiber_start as *const () as usize
}

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
pub(crate) struct StackSlab {
    base: *mut u8,
    /// Total mapping length (guards included).
    total: usize,
    /// Distance between consecutive usable regions (= guard + per).
    stride: usize,
    /// Guard bytes before each region (0 on the heap fallback).
    guard: usize,
    /// Usable stack bytes per region.
    per: usize,
    /// Heap-fallback layout (`None` when mmapped).
    heap_layout: Option<Layout>,
}

// SAFETY: the slab is plain memory; `base` is only turned into disjoint
// per-rank regions, each used by one fiber at a time.
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
fn vma_budget_from(content: Option<&str>) -> usize {
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
    /// Reserve `n` stacks of `per` usable bytes each.
    pub(crate) fn new(n: usize, per: usize) -> StackSlab {
        StackSlab::with_budget(n, per, vma_budget())
    }

    /// [`StackSlab::new`] with an explicit VMA budget (`None` = no
    /// platform limit), so tests can pin the guard-page auto-disable
    /// boundary without touching the real sysctl.
    fn with_budget(n: usize, per: usize, budget: Option<usize>) -> StackSlab {
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
    fn region(&self, i: usize) -> *mut u8 {
        unsafe { self.base.add(i * self.stride + self.guard) }
    }

    /// Whether overruns fault (guard pages active) on this slab.
    #[cfg(test)]
    fn guarded(&self) -> bool {
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

/// The stackful [`RankBody`]: `proceed` resumes the rank's stack and
/// reports what the code on it asked for when it switched back.
///
/// The code on the fiber reaches this struct through the raw pointer
/// planted in its first frame while the worker is inside `proceed(&mut
/// self)`. [`PhantomPinned`] makes the type `!Unpin`, which is what keeps
/// `&mut FiberBody` from being treated as unique (the rule
/// self-referential futures rely on); both sides go through raw pointers
/// regardless, and the body lives in one `Box` from `new` to drop.
pub(crate) struct FiberBody<'a> {
    fiber: Fiber,
    /// The rank program; taken by `mpisim_fiber_main` on first entry.
    body: Option<Box<dyn FnOnce() + Send + 'a>>,
    rank: usize,
    store: Arc<SchedShared>,
    /// The task the current `proceed` runs for (see [`suspend_in_place`]).
    slot: *const TaskSlot,
    finished: bool,
    /// Keeps the stack region mapped for as long as the body exists.
    stacks: Arc<StackSlab>,
    _aliased: PhantomPinned,
}

// SAFETY: the closure and the panic store are `Send`, the stack region is
// this fiber's alone, and `slot` is only ever compared, never followed.
unsafe impl Send for FiberBody<'_> {}

impl<'a> FiberBody<'a> {
    /// A fiber for `rank` on region `rank` of `stacks`, running `body`. A
    /// panic in `body` is recorded in `store` first-wins and finishes the
    /// task.
    pub(crate) fn new(
        stacks: &Arc<StackSlab>,
        rank: usize,
        store: Arc<SchedShared>,
        body: impl FnOnce() + Send + 'a,
    ) -> Box<FiberBody<'a>> {
        let mut this = Box::new(FiberBody {
            fiber: Fiber {
                task_sp: std::ptr::null_mut(),
                ret_sp: std::ptr::null_mut(),
                stack_lo: std::ptr::null_mut(),
            },
            body: Some(Box::new(body)),
            rank,
            store,
            slot: std::ptr::null(),
            finished: false,
            stacks: Arc::clone(stacks),
            _aliased: PhantomPinned,
        });
        let entry_arg: *mut FiberBody<'a> = &mut *this;
        // SAFETY: region `rank` is this fiber's alone and `this.stacks`
        // keeps it mapped; the box's address is what the fiber is handed
        // and it stays put until the body is dropped.
        this.fiber = unsafe { Fiber::new(stacks.region(rank), stacks.per, entry_arg.cast()) };
        this
    }
}

thread_local! {
    /// The fiber this worker thread is inside [`Fiber::resume`] of.
    static RESUMED: Cell<*mut FiberBody<'static>> = const { Cell::new(std::ptr::null_mut()) };
}

impl RankBody for FiberBody<'_> {
    fn proceed(&mut self) -> Step {
        let this = (self as *mut Self).cast::<FiberBody<'static>>();
        // SAFETY: the scheduler steps a task on one worker at a time, so
        // the fiber is suspended here and nothing else touches `*this`
        // until `resume` hands the stack over.
        unsafe {
            (*this).slot = current_slot().map_or(std::ptr::null(), |s| s as *const TaskSlot);
            let prev = RESUMED.with(|r| r.replace(this));
            (*this).fiber.resume();
            RESUMED.with(|r| r.set(prev));
            if !(*this).finished {
                return Step::Suspended;
            }
        }
        // The fiber has finished: `self` is the only way left to the body.
        if !self.fiber.canary_intact() {
            eprintln!(
                "mpisim: rank {} overflowed its {}-byte fiber stack; \
                 raise SimConfig::coop_stack_size",
                self.rank, self.stacks.per
            );
            std::process::abort();
        }
        Step::Finished
    }
}

/// The scheduler's suspension seam on a target with fibers: when `slot`'s
/// body is the fiber this thread is inside, switch to its worker and
/// return `true` once resumed (possibly on another worker thread);
/// otherwise (a stackless body, also one nested in a fiber's universe)
/// return `false`.
#[inline]
pub(super) fn suspend_in_place(slot: &TaskSlot) -> bool {
    // Never inlined: the thread-local must be read afresh on every call,
    // not cached across a switch that may change threads. (Only the read
    // is out of line; a frame that is live across the switch costs a
    // mispredicted return on every resumption.)
    #[inline(never)]
    fn resumed() -> *mut FiberBody<'static> {
        RESUMED.with(|r| r.get())
    }
    let this = resumed();
    // SAFETY: a non-null `RESUMED` is a body whose `proceed` is on this
    // thread's worker stack; if it runs for `slot`, the caller is on that
    // fiber's stack.
    unsafe {
        if this.is_null() || !std::ptr::eq((*this).slot, slot) {
            return false;
        }
        (*this).fiber.switch_to_worker();
    }
    true
}

/// Entry point every fiber starts in (called by the asm trampoline with
/// the body pointer planted in the initial frame).
#[no_mangle]
unsafe extern "C" fn mpisim_fiber_main(this: *mut u8) -> ! {
    let this = this as *mut FiberBody<'static>;
    let body = (*this).body.take().expect("fiber body installed");
    if let Err(e) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        record_panic(&(*this).store, (*this).rank, e);
    }
    (*this).finished = true;
    (*this).fiber.switch_to_worker();
    // Resuming a finished fiber is a scheduler bug.
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::{vma_budget_from, StackSlab};

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
