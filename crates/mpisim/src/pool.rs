//! Buffer recycling: the one pooling implementation shared by the
//! scheduler's commit buffers and the message payload path.
//!
//! Two faces over the same discipline (take → use → reset → put):
//!
//! * [`Pool<T>`] — a plain value pool (a mutexed free list with hit/miss
//!   counters). The scheduler keeps one per buffer family (commit shard
//!   vectors, runnable-index vectors, …), replacing
//!   the hand-rolled `shard_pool` of PR 5.
//! * the **payload pool** ([`take_vec`] / [`recycle_vec`]) — a global,
//!   size-classed (power-of-two element capacities), `TypeId`-keyed pool
//!   of raw `Vec` allocations with per-thread free lists and a shared
//!   overflow tier. Message payloads draw from it on send and return to
//!   it when a [`crate::msg::Message`] is dropped or its payload is
//!   recycled after use, so steady-state epochs allocate nothing.
//!
//! Pooling is **unobservable**: a pooled buffer is always handed out
//! empty (`len == 0`) with at least the requested capacity, so simulated
//! clocks, delivery orders, and traces are identical whether a buffer is
//! fresh or recycled. The only observable artifacts are the wall-clock
//! hit/miss/overflow counters exported (never gated) through
//! [`crate::obs::SchedProfile`]. The payload pool is process-global, so
//! it is the one thing universes running in the same process share (its
//! per-thread caches outlive a `Universe::run` on the calling thread, its
//! overflow tier and counters are common to all threads): capacity
//! crosses a universe boundary, never bytes, lengths, or ordering
//! (DESIGN.md §11).
//!
//! # Safety model of the payload pool
//!
//! The pool never transmutes element types. A recycled `Vec<T>` is
//! decomposed into its raw parts and stored under `TypeId::of::<T>()`
//! together with a monomorphized release function; it is only ever
//! reassembled as a `Vec<T>` of the *same* `T` (same layout, same
//! allocation), and the release function frees it through the same
//! `Vec<T>` it came from. Element types are [`Datum`] (`Copy`), so
//! clearing a buffer never needs to run element destructors.

use std::any::TypeId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::datum::Datum;

// ---------------------------------------------------------------------------
// Pool<T>: the generic value pool
// ---------------------------------------------------------------------------

/// A mutexed free list of reusable values with hit/miss counters.
///
/// [`Pool::take`] pops a recycled value or falls back to `T::default()`;
/// [`Pool::put`] returns one. The caller is responsible for resetting the
/// value (e.g. `Vec::clear`) before or after `put` — the pool itself
/// never looks inside.
#[derive(Debug, Default)]
pub struct Pool<T> {
    items: Mutex<Vec<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T: Default> Pool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Pool {
            items: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Pop a recycled value, or construct a default one on a miss.
    pub fn take(&self) -> T {
        match self.items.lock().expect("pool poisoned").pop() {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                T::default()
            }
        }
    }

    /// Return a (reset) value to the free list.
    pub fn put(&self, item: T) {
        self.items.lock().expect("pool poisoned").push(item);
    }

    /// `(hits, misses)` since construction.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

// ---------------------------------------------------------------------------
// The global size-classed payload pool
// ---------------------------------------------------------------------------

/// Number of power-of-two capacity classes (covers every possible `Vec`
/// capacity on a 64-bit host).
const CLASSES: usize = 64;
/// Per-thread free-list bound, per (type, class).
const LOCAL_CAP: usize = 16;
/// Shared-overflow bound, per (type, class).
const SHARED_CAP: usize = 64;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static OVERFLOW: AtomicU64 = AtomicU64::new(0);

/// A recycled allocation: the raw parts of a `Vec<T>` (capacity in
/// *elements*) plus the monomorphized function that frees it as the same
/// `Vec<T>` it was born as.
struct RawBuf {
    ptr: *mut u8,
    cap: usize,
    release: unsafe fn(*mut u8, usize),
}

// SAFETY: a RawBuf exclusively owns its allocation (it was moved out of a
// uniquely-owned Vec), so it can migrate between threads freely.
unsafe impl Send for RawBuf {}

impl Drop for RawBuf {
    fn drop(&mut self) {
        // SAFETY: (ptr, cap) came from a Vec of the type `release` was
        // monomorphized for, and ownership is exclusive.
        unsafe { (self.release)(self.ptr, self.cap) }
    }
}

/// Frees a recycled buffer by reassembling the empty `Vec<T>` it came from.
unsafe fn release_as<T>(ptr: *mut u8, cap: usize) {
    drop(unsafe { Vec::from_raw_parts(ptr.cast::<T>(), 0, cap) });
}

type ClassList = Box<[Vec<RawBuf>; CLASSES]>;

/// A `TypeId` is a hash already: pass its bits through instead of
/// rehashing them on every take and recycle.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }
}

/// One free list per element type.
type ByType = HashMap<TypeId, ClassList, BuildHasherDefault<IdHasher>>;

fn fresh_classes() -> ClassList {
    Box::new(std::array::from_fn(|_| Vec::new()))
}

thread_local! {
    static LOCAL: RefCell<ByType> = RefCell::new(ByType::default());
}

fn shared() -> &'static Mutex<ByType> {
    static SHARED: OnceLock<Mutex<ByType>> = OnceLock::new();
    SHARED.get_or_init(|| Mutex::new(ByType::default()))
}

/// Smallest `c` with `2^c >= n` (for `n >= 1`).
fn class_for_request(n: usize) -> usize {
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// Largest `c` with `2^c <= cap` (for `cap >= 1`), so every buffer filed
/// under class `c` has capacity at least `2^c`.
fn class_for_capacity(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

/// An empty `Vec<T>` with capacity at least `n`, recycled when possible.
///
/// Fresh allocations are rounded up to the class boundary (`2^⌈log₂ n⌉`
/// elements) so a buffer lands back in the class it was taken from and
/// steady-state workloads converge onto a fixed working set of buffers.
pub fn take_vec<T: Datum>(n: usize) -> Vec<T> {
    if std::mem::size_of::<T>() == 0 || n == 0 {
        // ZSTs never allocate, and empty requests are served by the
        // dangling-pointer Vec; nothing to pool either way.
        return Vec::new();
    }
    let class = class_for_request(n);
    let tid = TypeId::of::<T>();
    let hit = LOCAL
        .with(|l| l.borrow_mut().get_mut(&tid).and_then(|c| c[class].pop()))
        .or_else(|| {
            shared()
                .lock()
                .expect("payload pool poisoned")
                .get_mut(&tid)
                .and_then(|c| c[class].pop())
        });
    match hit {
        Some(buf) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            let buf = std::mem::ManuallyDrop::new(buf);
            // SAFETY: the buffer was filed under TypeId::of::<T>(), so it
            // is the raw parts of a Vec<T>; class invariant gives cap >= n.
            unsafe { Vec::from_raw_parts(buf.ptr.cast::<T>(), 0, buf.cap) }
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            Vec::with_capacity(1usize << class)
        }
    }
}

/// Return a `Vec<T>`'s allocation to the pool (contents are discarded).
///
/// Beyond the per-thread and shared-overflow bounds the allocation is
/// simply freed (counted in [`counters`] as an overflow).
pub fn recycle_vec<T: Datum>(mut v: Vec<T>) {
    let cap = v.capacity();
    if std::mem::size_of::<T>() == 0 || cap == 0 {
        return;
    }
    v.clear();
    let class = class_for_capacity(cap);
    let mut v = std::mem::ManuallyDrop::new(v);
    let buf = RawBuf {
        ptr: v.as_mut_ptr().cast::<u8>(),
        cap,
        release: release_as::<T>,
    };
    let tid = TypeId::of::<T>();
    let buf = match LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let classes = l.entry(tid).or_insert_with(fresh_classes);
        if classes[class].len() < LOCAL_CAP {
            classes[class].push(buf);
            None
        } else {
            Some(buf)
        }
    }) {
        None => return,
        Some(buf) => buf,
    };
    let mut g = shared().lock().expect("payload pool poisoned");
    let classes = g.entry(tid).or_insert_with(fresh_classes);
    if classes[class].len() < SHARED_CAP {
        classes[class].push(buf);
    } else {
        OVERFLOW.fetch_add(1, Ordering::Relaxed);
        drop(buf);
    }
}

/// Cumulative payload-pool counters for this process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PayloadCounters {
    /// Requests served from a free list.
    pub hits: u64,
    /// Requests that had to allocate.
    pub misses: u64,
    /// Recycles dropped because both tiers were full.
    pub overflow: u64,
}

impl std::ops::Sub for PayloadCounters {
    type Output = PayloadCounters;
    fn sub(self, rhs: PayloadCounters) -> PayloadCounters {
        PayloadCounters {
            hits: self.hits.wrapping_sub(rhs.hits),
            misses: self.misses.wrapping_sub(rhs.misses),
            overflow: self.overflow.wrapping_sub(rhs.overflow),
        }
    }
}

/// Snapshot the process-wide payload-pool counters. Counters are global
/// (they aggregate every universe in the process); callers wanting a
/// per-run view subtract a baseline snapshot.
pub fn counters() -> PayloadCounters {
    PayloadCounters {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        overflow: OVERFLOW.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_and_counts() {
        let p: Pool<Vec<u32>> = Pool::new();
        let mut a = p.take(); // miss
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        a.clear();
        p.put(a);
        let b = p.take(); // hit
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
        assert_eq!(p.counters(), (1, 1));
    }

    #[test]
    fn take_vec_reuses_the_same_allocation() {
        let mut v = take_vec::<u64>(100);
        assert!(v.capacity() >= 100);
        v.extend(0..100u64);
        let ptr = v.as_ptr();
        recycle_vec(v);
        // Same thread, same type, same class: must come back verbatim.
        let w = take_vec::<u64>(100);
        assert!(w.is_empty());
        assert_eq!(w.as_ptr(), ptr);
        recycle_vec(w);
    }

    #[test]
    fn classes_round_up_and_file_down() {
        assert_eq!(class_for_request(1), 0);
        assert_eq!(class_for_request(2), 1);
        assert_eq!(class_for_request(3), 2);
        assert_eq!(class_for_request(1024), 10);
        assert_eq!(class_for_request(1025), 11);
        assert_eq!(class_for_capacity(1), 0);
        assert_eq!(class_for_capacity(3), 1);
        assert_eq!(class_for_capacity(1024), 10);
        assert_eq!(class_for_capacity(2047), 10);
    }

    #[test]
    fn types_do_not_mix() {
        let mut v = take_vec::<u32>(64);
        v.push(7);
        let ptr = v.as_ptr() as usize;
        recycle_vec(v);
        // A different element type must not see u32's buffer even if the
        // class matches.
        let w = take_vec::<(u64, u64)>(64);
        assert_ne!(w.as_ptr() as usize, ptr);
        recycle_vec(w);
        let again = take_vec::<u32>(64);
        assert_eq!(again.as_ptr() as usize, ptr);
        recycle_vec(again);
    }

    #[test]
    fn zst_and_empty_requests_bypass_the_pool() {
        let before = counters();
        let v = take_vec::<()>(128);
        recycle_vec(v);
        let e = take_vec::<u32>(0);
        recycle_vec(e);
        assert_eq!(counters(), before);
    }

    #[test]
    fn recycled_buffer_has_class_capacity() {
        // A fresh miss rounds the capacity up to the class boundary, so the
        // buffer can serve any request in its class after recycling.
        let v = take_vec::<u8>(33);
        assert_eq!(v.capacity(), 64);
        recycle_vec(v);
        let w = take_vec::<u8>(64);
        assert_eq!(w.capacity(), 64);
        recycle_vec(w);
    }
}
