//! Local kernels: partition with duplicate handling, sample median, and
//! the charged local sort.
//!
//! The paper handles duplicate keys "by carefully switching between the
//! compare functions `<` and `≤`" (\[8\], §VIII-A): on even levels the left
//! partition holds elements strictly smaller than the pivot, on odd levels
//! elements smaller *or equal*. A run of duplicates therefore goes entirely
//! right on one level and entirely left on the next, so it cannot pin the
//! recursion to one side forever.
//!
//! What a kernel *charges* (virtual time, `Transport::charge_compute`) and
//! what it *costs the host* are separate: see DESIGN.md, "Local kernels:
//! charged work vs host work".

use std::cmp::Ordering;

use mpisim::{SortKey, Transport};

/// Which comparison defines the "small" side on this level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strictness {
    /// small ⇔ `x < pivot`
    Lt,
    /// small ⇔ `x ≤ pivot`
    Le,
}

impl Strictness {
    /// The paper's alternation: `<` on even levels, `≤` on odd levels.
    pub fn for_level(level: u32) -> Strictness {
        if level.is_multiple_of(2) {
            Strictness::Lt
        } else {
            Strictness::Le
        }
    }

    /// Whether `x` belongs to the small half under this strictness.
    pub fn is_small<T: SortKey>(&self, x: &T, pivot: &T) -> bool {
        let ord = x.cmp_key(pivot);
        match self {
            Strictness::Lt => ord.is_lt(),
            Strictness::Le => ord.is_le(),
        }
    }
}

/// Partition `data` into (small, large) by `pivot` under `strict`.
/// Preserves relative order within each side (stable): the next level's
/// seeded sample draws index into these vectors, so their order is part of
/// the deterministic result. Both outputs are exactly sized.
pub fn partition<T: SortKey>(data: Vec<T>, pivot: &T, strict: Strictness) -> (Vec<T>, Vec<T>) {
    // One copy of the loop per comparator: with the strictness tested per
    // element the scatter runs at half the speed.
    match strict {
        Strictness::Lt => scatter(data, pivot, Ordering::is_lt),
        Strictness::Le => scatter(data, pivot, Ordering::is_le),
    }
}

/// Stable two-way scatter, branch-free on the keys: a count pass sizes
/// `large`, then every element is written to *both* destinations (the small
/// side compacts in place in `data`, whose write cursor never passes the
/// read cursor) and only the cursor of the side it belongs to advances. On
/// uniform keys a `push` behind `if small` mispredicts every other element.
fn scatter<T: SortKey>(
    mut data: Vec<T>,
    pivot: &T,
    small: impl Fn(Ordering) -> bool,
) -> (Vec<T>, Vec<T>) {
    let n_small = data.iter().filter(|x| small(x.cmp_key(pivot))).count();
    let n_large = data.len() - n_small;
    let mut large = vec![*pivot; n_large];
    let (mut s, mut l, mut i) = (0, 0, 0);
    // `l < n_large` keeps the unconditional write to `large[l]` in bounds;
    // it turns false once, after the last large element.
    while l < n_large {
        let x = data[i];
        let is_small = small(x.cmp_key(pivot));
        data[s] = x;
        large[l] = x;
        s += usize::from(is_small);
        l += usize::from(!is_small);
        i += 1;
    }
    // Everything after the last large element is small.
    data.copy_within(i.., s);
    data.truncate(n_small);
    data.shrink_to_fit();
    (data, large)
}

/// The push loop `partition` replaced, kept as the test reference.
#[cfg(test)]
fn partition_reference<T: SortKey>(
    data: Vec<T>,
    pivot: &T,
    strict: Strictness,
) -> (Vec<T>, Vec<T>) {
    let mut small = Vec::new();
    let mut large = Vec::new();
    for x in data {
        if strict.is_small(&x, pivot) {
            small.push(x);
        } else {
            large.push(x);
        }
    }
    (small, large)
}

/// Index of the median element of `sorted` (upper median for even length).
pub fn median_index(len: usize) -> usize {
    debug_assert!(len > 0);
    len / 2
}

/// Median of a sample, by selection: under the [`SortKey`] tie contract the
/// element at the median index is the one a full sort would put there.
pub fn sample_median<T: SortKey>(mut sample: Vec<T>) -> T {
    debug_assert!(!sample.is_empty());
    let mid = median_index(sample.len());
    *sample.select_nth_unstable_by(mid, T::cmp_key).1
}

/// The order-preserving images of `keys` ([`SortKey::to_ordinal`]), which
/// every sorter of the crate runs on. An image has its key's width, so the
/// collect reuses `keys`' allocation.
pub(crate) fn to_ordinals<T: SortKey>(keys: Vec<T>) -> Vec<T::Ordinal> {
    keys.into_iter().map(T::to_ordinal).collect()
}

/// The keys of `images`: the inverse of [`to_ordinals`].
pub(crate) fn from_ordinals<T: SortKey>(images: Vec<T::Ordinal>) -> Vec<T> {
    images.into_iter().map(T::from_ordinal).collect()
}

/// Virtual-time charge of a local comparison sort of `m` elements:
/// `m ⌈log₂ m⌉`.
pub(crate) fn charge_sort(tr: &impl Transport, m: usize) {
    if m > 1 {
        let log_m = (usize::BITS - (m - 1).leading_zeros()) as usize;
        tr.charge_compute(m * log_m);
    }
}

/// Local comparison sort, charged `m ⌈log₂ m⌉`. Unstable on the host: the
/// [`SortKey`] tie contract makes the result equal the stable sort's bit
/// for bit.
pub(crate) fn local_sort_charged<T: SortKey>(tr: &impl Transport, data: &mut [T]) {
    charge_sort(tr, data.len());
    data.sort_unstable_by(T::cmp_key);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternation_by_level() {
        assert_eq!(Strictness::for_level(0), Strictness::Lt);
        assert_eq!(Strictness::for_level(1), Strictness::Le);
        assert_eq!(Strictness::for_level(2), Strictness::Lt);
    }

    #[test]
    fn strict_vs_lenient_on_duplicates() {
        let data = vec![3u64, 5, 5, 7, 5, 1];
        let (s, l) = partition(data.clone(), &5, Strictness::Lt);
        assert_eq!(s, vec![3, 1]);
        assert_eq!(l, vec![5, 5, 7, 5]);
        let (s, l) = partition(data, &5, Strictness::Le);
        assert_eq!(s, vec![3, 5, 5, 5, 1]);
        assert_eq!(l, vec![7]);
    }

    #[test]
    fn scatter_equals_the_push_loop() {
        // Five distinct keys, so every pivot has duplicates; every length up
        // to 64 covers the empty, all-small and all-large tails of the loop.
        for len in 0..64u64 {
            let data: Vec<u64> = (0..len).map(|i| (i * i + len) % 5).collect();
            for pivot in 0..6 {
                for strict in [Strictness::Lt, Strictness::Le] {
                    assert_eq!(
                        partition(data.clone(), &pivot, strict),
                        partition_reference(data.clone(), &pivot, strict),
                        "{strict:?} pivot {pivot} data {data:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_equal_flips_sides_across_levels() {
        let data = vec![4u64; 6];
        let (s, _) = partition(data.clone(), &4, Strictness::Lt);
        assert!(s.is_empty(), "Lt sends duplicates right");
        let (s, l) = partition(data, &4, Strictness::Le);
        assert_eq!(s.len(), 6, "Le sends duplicates left");
        assert!(l.is_empty());
    }

    #[test]
    fn partition_preserves_multiset() {
        let data = vec![9u64, 2, 7, 2, 8, 1, 7];
        let (mut s, l) = partition(data.clone(), &7, Strictness::Lt);
        s.extend(l);
        s.sort_unstable();
        let mut orig = data;
        orig.sort_unstable();
        assert_eq!(s, orig);
    }

    #[test]
    fn floats_with_total_order() {
        let data = vec![1.5f64, -0.0, 0.0, 2.5];
        let (s, _) = partition(data, &0.0, Strictness::Lt);
        // total_cmp: -0.0 < 0.0
        assert_eq!(s, vec![-0.0]);
        assert!(s[0].is_sign_negative());
    }

    #[test]
    fn sample_median_odd_even() {
        assert_eq!(sample_median(vec![5u64, 1, 9]), 5);
        assert_eq!(sample_median(vec![4u64, 1, 9, 5]), 5); // upper median
        assert_eq!(sample_median(vec![7u64]), 7);
        // Selection returns what the sort would: duplicates around the middle.
        assert_eq!(sample_median(vec![2u64, 9, 2, 2, 9, 1, 9]), 2);
    }
}
