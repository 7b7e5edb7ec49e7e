//! Memory instrumentation: a counting global allocator that is switched on
//! for one repetition only, and a reader for the kernel's resident-set
//! high-water mark.
//!
//! The idea is that of `crates/mpisim/tests/alloc_free.rs` (which may not
//! move): wrap the system allocator and count. Here the counter tracks
//! *live bytes* and their peak while enabled; while disabled every call is
//! one relaxed load on top of the system allocator, so timed repetitions
//! do not pay for the accounting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// The counting allocator. Installed as `#[global_allocator]` in `main.rs`
/// (not in the unit-test harness, hence the `allow`).
#[cfg_attr(test, allow(dead_code))]
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Live bytes relative to the moment counting was switched on. Signed: a
/// block allocated before the switch and freed after it counts negative.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

// All three atomics are statistics that publish no other data, so relaxed
// ordering is enough; `fetch_max` keeps the peak exact under two workers.
#[inline]
fn add(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

#[inline]
fn sub(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            sub(layout.size());
            add(new_size);
        }
        p
    }
}

/// Run `f` with counting on and return its result with the peak of live
/// heap bytes allocated since `f` began.
pub fn peak_heap_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    (out, PEAK.load(Ordering::Relaxed).max(0) as u64)
}

/// The process's resident-set high-water mark (`VmHWM` of
/// `/proc/self/status`) in bytes; `None` where the kernel does not
/// report it.
pub fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    kib.checked_mul(1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_line_is_parsed_in_bytes() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t    5124 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(5124 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tmany kB\n"), None);
    }

    #[test]
    fn peak_sees_a_transient_allocation() {
        // The allocator is only installed in the binary, not in the test
        // harness, so drive the counters directly.
        LIVE.store(0, Ordering::Relaxed);
        PEAK.store(0, Ordering::Relaxed);
        ENABLED.store(true, Ordering::Relaxed);
        add(1 << 20);
        sub(1 << 20);
        add(16);
        ENABLED.store(false, Ordering::Relaxed);
        add(1 << 30); // ignored: counting is off
        assert_eq!(PEAK.load(Ordering::Relaxed), 1 << 20);
        assert_eq!(LIVE.load(Ordering::Relaxed), 16);
    }
}
