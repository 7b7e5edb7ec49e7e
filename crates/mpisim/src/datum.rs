//! Element ("datatype") support.
//!
//! MPI moves typed buffers; the simulator does the same with plain-old-data
//! Rust types. Payloads travel as `Vec<T>` behind `Box<dyn Any>` — no
//! serialization — so [`Datum`] only requires `Copy + Send + 'static`.

use std::cmp::Ordering;

/// A plain-old-data element that can travel in a message.
pub trait Datum: Copy + Send + Sync + 'static {
    /// Size in bytes, used by the α–β cost model (one "machine word" in the
    /// paper is one element; we charge by bytes for generality).
    fn width() -> usize {
        std::mem::size_of::<Self>()
    }
}

macro_rules! impl_datum {
    ($($t:ty),*) => { $(impl Datum for $t {})* };
}

impl_datum!(
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    bool,
    char,
    ()
);

impl<A: Datum, B: Datum> Datum for (A, B) {}
impl<A: Datum, B: Datum, C: Datum> Datum for (A, B, C) {}
impl<A: Datum, B: Datum, C: Datum, D: Datum> Datum for (A, B, C, D) {}
impl<T: Datum, const N: usize> Datum for [T; N] {}

/// Elements with an additive identity, for `sum`-style reductions.
pub trait Zeroed: Datum {
    /// The additive identity of the type.
    const ZERO: Self;
}

macro_rules! impl_zeroed {
    ($($t:ty),*) => { $(impl Zeroed for $t { const ZERO: Self = 0 as $t; })* };
}
impl_zeroed!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// A total order usable for sorting keys. `f64` gets IEEE-754 `total_cmp`.
///
/// **Tie contract:** `a.cmp_key(&b) == Ordering::Equal` implies that `a`
/// and `b` are interchangeable bit for bit: the order looks at the whole
/// value, never at a key field beside a payload. Every impl here keeps it
/// (`total_cmp` tells `-0.0` from `0.0` and NaN payloads apart; tuples
/// compare every field). It is what lets the sorters use unstable sorts,
/// selection and run merges and still produce the byte-identical output a
/// stable sort would; an impl that orders records by a prefix breaks that
/// determinism guarantee.
pub trait SortKey: Datum {
    /// Total-order comparison of two keys.
    fn cmp_key(&self, other: &Self) -> Ordering;
}

macro_rules! impl_sortkey_ord {
    ($($t:ty),*) => { $(impl SortKey for $t {
        fn cmp_key(&self, other: &Self) -> Ordering { Ord::cmp(self, other) }
    })* };
}
impl_sortkey_ord!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SortKey for f64 {
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl SortKey for f32 {
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl<A: SortKey, B: SortKey> SortKey for (A, B) {
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.0
            .cmp_key(&other.0)
            .then_with(|| self.1.cmp_key(&other.1))
    }
}

impl<A: SortKey, B: SortKey, C: SortKey> SortKey for (A, B, C) {
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.0
            .cmp_key(&other.0)
            .then_with(|| self.1.cmp_key(&other.1))
            .then_with(|| self.2.cmp_key(&other.2))
    }
}

/// Reduction operators. Implemented as cloneable closures so collectives can
/// stay generic; the helpers below cover the MPI builtins the paper needs
/// (`MPI_SUM` for prefix sums, `MPI_BAND` for context-ID masks, min/max).
pub mod ops {
    use super::{Datum, SortKey, Zeroed};

    /// `MPI_SUM`.
    pub fn sum<T>() -> impl Fn(&T, &T) -> T + Clone + Send + Sync + 'static
    where
        T: Zeroed + std::ops::Add<Output = T>,
    {
        |a: &T, b: &T| *a + *b
    }

    /// `MPI_MIN` under the element's total order.
    pub fn min<T: SortKey>() -> impl Fn(&T, &T) -> T + Clone + Send + Sync + 'static {
        |a: &T, b: &T| {
            if b.cmp_key(a) == std::cmp::Ordering::Less {
                *b
            } else {
                *a
            }
        }
    }

    /// `MPI_MAX` under the element's total order.
    pub fn max<T: SortKey>() -> impl Fn(&T, &T) -> T + Clone + Send + Sync + 'static {
        |a: &T, b: &T| {
            if b.cmp_key(a) == std::cmp::Ordering::Greater {
                *b
            } else {
                *a
            }
        }
    }

    /// `MPI_BAND` — used by context-ID mask agreement (§III of the paper).
    pub fn band<T>() -> impl Fn(&T, &T) -> T + Clone + Send + Sync + 'static
    where
        T: Datum + std::ops::BitAnd<Output = T>,
    {
        |a: &T, b: &T| *a & *b
    }

    /// Element-wise `MPI_BAND` over fixed-size arrays (context-ID masks are
    /// bit vectors).
    pub fn band_array<T, const N: usize>(
    ) -> impl Fn(&[T; N], &[T; N]) -> [T; N] + Clone + Send + Sync + 'static
    where
        T: Datum + std::ops::BitAnd<Output = T>,
    {
        |a: &[T; N], b: &[T; N]| {
            let mut out = *a;
            for i in 0..N {
                out[i] = a[i] & b[i];
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(f64::width(), 8);
        assert_eq!(u8::width(), 1);
        assert_eq!(<(u32, u32)>::width(), 8);
        assert_eq!(<[u64; 4]>::width(), 32);
    }

    #[test]
    fn sort_key_totality_on_floats() {
        assert_eq!(1.0f64.cmp_key(&2.0), Ordering::Less);
        assert_eq!(f64::NAN.cmp_key(&f64::NAN), Ordering::Equal);
        // total_cmp puts -0.0 before +0.0 — a genuine total order.
        assert_eq!((-0.0f64).cmp_key(&0.0), Ordering::Less);
    }

    #[test]
    fn tuple_key_lexicographic() {
        assert_eq!((1u64, 5u64).cmp_key(&(1, 7)), Ordering::Less);
        assert_eq!((2u64, 0u64).cmp_key(&(1, 7)), Ordering::Greater);
        assert_eq!((1u64, 7u64).cmp_key(&(1, 7)), Ordering::Equal);
    }

    #[test]
    fn builtin_ops() {
        let s = ops::sum::<u64>();
        assert_eq!(s(&3, &4), 7);
        let mn = ops::min::<f64>();
        assert_eq!(mn(&3.0, &-1.0), -1.0);
        let mx = ops::max::<i32>();
        assert_eq!(mx(&3, &-1), 3);
        let b = ops::band::<u64>();
        assert_eq!(b(&0b1100, &0b1010), 0b1000);
        let ba = ops::band_array::<u64, 2>();
        assert_eq!(ba(&[0b11, 0b01], &[0b10, 0b11]), [0b10, 0b01]);
    }
}
