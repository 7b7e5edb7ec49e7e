//! Stand-ins for a payload pool that no longer exists, kept only because
//! the perf ledger under `benchmark/` compiles against them: `take_vec`
//! is `Vec::with_capacity`, `recycle_vec` is `drop`, and `counters`
//! reports all zeros. Every item is `#[doc(hidden)]` and library code
//! calls none of them; ROADMAP item 1(a) deletes the module.

use crate::datum::Datum;

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
