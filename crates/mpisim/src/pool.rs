//! [`Pool<T>`]: a mutexed free list with hit/miss counters, for the
//! scheduler's commit scratch (outboxes, runnable-index vectors, …),
//! one pool per buffer family.
//!
//! Message payloads are not pooled: a payload is a plain `Vec<T>`,
//! allocated where it is built and freed where it is dropped. The
//! `#[doc(hidden)]` `take_vec`, `recycle_vec` and `counters` are
//! one-line stand-ins (`Vec::with_capacity`, `drop`, all-zero counters)
//! kept only because the perf ledger compiles against them; library code
//! does not call them.
//!
//! A pooled value carries capacity, never contents that matter: the
//! caller resets it before reuse, so simulated clocks, delivery orders
//! and traces are identical whether a buffer is fresh or recycled. The
//! hit/miss counters are wall-clock-domain artifacts exported (never
//! gated) through [`crate::obs::SchedProfile`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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
// Payload shims kept for the perf ledger
// ---------------------------------------------------------------------------

/// `Vec::with_capacity(n)`: payloads are allocated where they are built.
#[doc(hidden)]
pub fn take_vec<T: Datum>(n: usize) -> Vec<T> {
    Vec::with_capacity(n)
}

/// `drop(v)`: payloads are freed where they are dropped.
#[doc(hidden)]
pub fn recycle_vec<T: Datum>(v: Vec<T>) {
    drop(v)
}

/// Payload-pool counters; there is no payload pool, so always zero.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PayloadCounters {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub overflow: u64,
}

impl std::ops::Sub for PayloadCounters {
    type Output = PayloadCounters;
    fn sub(self, _: PayloadCounters) -> PayloadCounters {
        PayloadCounters::default()
    }
}

/// All-zero [`PayloadCounters`].
#[doc(hidden)]
pub fn counters() -> PayloadCounters {
    PayloadCounters::default()
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
}
