//! Element ("datatype") support.
//!
//! MPI moves typed buffers; the simulator does the same with plain-old-data
//! Rust types. Payloads travel as `Vec<T>` behind an `Arc` with `T`
//! erased ([`crate::msg`]) — no serialization — so [`Datum`] only
//! requires `Copy + Send + Sync + 'static`.

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
///
/// **Ordinal contract:** [`SortKey::to_ordinal`] is an order isomorphism
/// onto a key that is cheaper to compare, and the sorters run on those
/// images: they map their input at entry and the output back at exit.
/// So the map must
/// - be a bijection whose inverse is [`SortKey::from_ordinal`], bit for
///   bit (`from_ordinal(to_ordinal(a))` has the bits of `a`);
/// - preserve the order exactly: `a.cmp_key(&b) ==
///   a.to_ordinal().cmp_key(&b.to_ordinal())`;
/// - keep the width: `Ordinal::width() == Self::width()`, so every
///   message of a sorter carries the same bytes either way.
///
/// Floats map to unsigned integers of their width by `total_cmp`'s own
/// bit transform with the sign bit flipped; integers map to themselves;
/// tuples map component-wise. A type with no cheaper key uses the
/// identity (`type Ordinal = Self`).
pub trait SortKey: Datum {
    /// The cheap key this type's order is isomorphic to.
    type Ordinal: SortKey;

    /// Total-order comparison of two keys.
    fn cmp_key(&self, other: &Self) -> Ordering;

    /// The order-preserving image of `self`.
    fn to_ordinal(self) -> Self::Ordinal;

    /// The key whose image is `o`: the inverse of [`SortKey::to_ordinal`].
    fn from_ordinal(o: Self::Ordinal) -> Self;
}

macro_rules! impl_sortkey_ord {
    ($($t:ty),*) => { $(impl SortKey for $t {
        type Ordinal = $t;
        fn cmp_key(&self, other: &Self) -> Ordering { Ord::cmp(self, other) }
        fn to_ordinal(self) -> $t { self }
        fn from_ordinal(o: $t) -> $t { o }
    })* };
}
impl_sortkey_ord!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// `total_cmp` flips the magnitude bits of negative floats so that the bits
// order as a signed integer; flipping the sign bit as well makes them order
// as an unsigned one. Negative floats thus get every bit flipped and
// positive ones only the sign bit, and the inverse reads which case applied
// from the image's top bit.
macro_rules! impl_sortkey_float {
    ($($f:ty => $u:ty, $i:ty);*) => { $(impl SortKey for $f {
        type Ordinal = $u;
        fn cmp_key(&self, other: &Self) -> Ordering {
            self.total_cmp(other)
        }
        fn to_ordinal(self) -> $u {
            let bits = self.to_bits();
            bits ^ (((bits as $i >> (<$u>::BITS - 1)) as $u) | !(<$u>::MAX >> 1))
        }
        fn from_ordinal(o: $u) -> $f {
            <$f>::from_bits(o ^ ((((!o) as $i >> (<$u>::BITS - 1)) as $u) | !(<$u>::MAX >> 1)))
        }
    })* };
}
impl_sortkey_float!(f64 => u64, i64; f32 => u32, i32);

impl<A: SortKey, B: SortKey> SortKey for (A, B) {
    type Ordinal = (A::Ordinal, B::Ordinal);
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.0
            .cmp_key(&other.0)
            .then_with(|| self.1.cmp_key(&other.1))
    }
    fn to_ordinal(self) -> Self::Ordinal {
        (self.0.to_ordinal(), self.1.to_ordinal())
    }
    fn from_ordinal(o: Self::Ordinal) -> Self {
        (A::from_ordinal(o.0), B::from_ordinal(o.1))
    }
}

impl<A: SortKey, B: SortKey, C: SortKey> SortKey for (A, B, C) {
    type Ordinal = (A::Ordinal, B::Ordinal, C::Ordinal);
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.0
            .cmp_key(&other.0)
            .then_with(|| self.1.cmp_key(&other.1))
            .then_with(|| self.2.cmp_key(&other.2))
    }
    fn to_ordinal(self) -> Self::Ordinal {
        (
            self.0.to_ordinal(),
            self.1.to_ordinal(),
            self.2.to_ordinal(),
        )
    }
    fn from_ordinal(o: Self::Ordinal) -> Self {
        (
            A::from_ordinal(o.0),
            B::from_ordinal(o.1),
            C::from_ordinal(o.2),
        )
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

    /// Every class of IEEE value at both signs: zeros, infinities, NaNs
    /// with distinct payloads, subnormals, the normal extremes.
    fn f64_edges() -> Vec<f64> {
        let mut v = vec![
            0.0,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            f64::MIN_POSITIVE,
            f64::EPSILON,
            1.0,
            1.5,
            f64::MAX,
        ];
        v.extend(v.clone().iter().map(|x| -x));
        v.push(f64::MIN);
        v
    }

    fn f32_edges() -> Vec<f32> {
        let mut v = vec![
            0.0,
            f32::INFINITY,
            f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0x7fc0_beef),
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
        ];
        v.extend(v.clone().iter().map(|x| -x));
        v.push(f32::MIN);
        v
    }

    /// The ordinal contract on a set of keys: order kept pairwise, round
    /// trip bit-identical (through `cmp_key`, which by the tie contract is
    /// bit equality and, unlike `==`, holds for NaN).
    fn check_ordinals<T: SortKey + std::fmt::Debug>(keys: &[T]) {
        assert_eq!(T::Ordinal::width(), T::width());
        for &a in keys {
            assert!(T::from_ordinal(a.to_ordinal()).cmp_key(&a).is_eq(), "{a:?}");
            for &b in keys {
                assert_eq!(
                    a.cmp_key(&b),
                    a.to_ordinal().cmp_key(&b.to_ordinal()),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn float_ordinals_keep_order_and_bits() {
        let f64s = f64_edges();
        check_ordinals(&f64s);
        for &x in &f64s {
            assert_eq!(f64::from_ordinal(x.to_ordinal()).to_bits(), x.to_bits());
        }
        let f32s = f32_edges();
        check_ordinals(&f32s);
        for &x in &f32s {
            assert_eq!(f32::from_ordinal(x.to_ordinal()).to_bits(), x.to_bits());
        }
        // The ends of the image are the ends of the order.
        assert_eq!((-f64::NAN).to_ordinal(), 0x0007_ffff_ffff_ffff);
        assert_eq!(f64::NAN.to_ordinal(), 0xfff8_0000_0000_0000);
        assert_eq!((-0.0f64).to_ordinal() + 1, 0.0f64.to_ordinal());
    }

    #[test]
    fn integer_and_tuple_ordinals() {
        check_ordinals(&[0u8, 1, u8::MAX]);
        check_ordinals(&[0u16, 1, u16::MAX]);
        check_ordinals(&[0u32, 1, u32::MAX]);
        check_ordinals(&[0u64, 1, u64::MAX]);
        check_ordinals(&[0usize, 1, usize::MAX]);
        check_ordinals(&[i8::MIN, -1, 0, i8::MAX]);
        check_ordinals(&[i16::MIN, -1, 0, i16::MAX]);
        check_ordinals(&[i32::MIN, -1, 0, i32::MAX]);
        check_ordinals(&[i64::MIN, -1, 0, i64::MAX]);
        check_ordinals(&[isize::MIN, -1, 0, isize::MAX]);
        let f = f64_edges();
        let pairs: Vec<(f64, u32)> = f.iter().flat_map(|&x| [(x, 0), (x, 7)]).collect();
        check_ordinals(&pairs);
        let mixed: Vec<(f32, f64)> = f32_edges().into_iter().zip(f.iter().copied()).collect();
        check_ordinals(&mixed);
        let triples: Vec<(f64, i8, f32)> = f
            .iter()
            .zip(f32_edges())
            .map(|(&x, y)| (x, -1, y))
            .chain([(0.0, 3, -0.0), (0.0, -3, 0.0)])
            .collect();
        check_ordinals(&triples);
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
