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
use std::iter::once;

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
    let n_small = count_small(&data, pivot, strict);
    let lens = [n_small, data.len() - n_small];
    let mut sides = partition_into(data, pivot, strict, 1, &lens);
    let large = sides.pop().expect("two chunks");
    (sides.pop().expect("two chunks"), large)
}

/// How many elements of `data` are small under `strict`.
pub fn count_small<T: SortKey>(data: &[T], pivot: &T, strict: Strictness) -> usize {
    match strict {
        Strictness::Lt => data.iter().filter(|x| x.cmp_key(pivot).is_lt()).count(),
        Strictness::Le => data.iter().filter(|x| x.cmp_key(pivot).is_le()).count(),
    }
}

/// [`partition`] straight into chunks: the first `n_small_chunks` of
/// `lens` cut the small side in order, the rest the large side; they must
/// add up to [`count_small`] and to the remainder. One exactly sized `Vec`
/// per length: the greedy exchange sends them as they are.
pub fn partition_into<T: SortKey>(
    data: Vec<T>,
    pivot: &T,
    strict: Strictness,
    n_small_chunks: usize,
    lens: &[usize],
) -> Vec<Vec<T>> {
    debug_assert_eq!(lens.iter().sum::<usize>(), data.len());
    // One copy of the loop per comparator: with the strictness tested per
    // element the scatter runs at half the speed.
    match strict {
        Strictness::Lt => scatter(&data, pivot, Ordering::is_lt, n_small_chunks, lens),
        Strictness::Le => scatter(&data, pivot, Ordering::is_le, n_small_chunks, lens),
    }
}

/// Stable scatter into chunks, branch-free on the keys: every element is
/// written to *both* the current small and the current large chunk, and
/// only the cursor of the side it belongs to advances; a full chunk hands
/// the cursor on to the side's next one. On uniform keys a `push` behind
/// `if small` mispredicts every other element.
fn scatter<T: SortKey>(
    data: &[T],
    pivot: &T,
    small: impl Fn(Ordering) -> bool,
    n_small_chunks: usize,
    lens: &[usize],
) -> Vec<Vec<T>> {
    let mut chunks: Vec<Vec<T>> = lens.iter().map(|&n| vec![*pivot; n]).collect();
    // After its last chunk a side writes into a spare slot, never
    // advancing: no element is left for it.
    let mut spares = [*pivot; 2];
    let (s_spare, l_spare) = spares.split_at_mut(1);
    let (smalls, larges) = chunks.split_at_mut(n_small_chunks);
    let [mut smalls, mut larges] = [(smalls, s_spare), (larges, l_spare)]
        .map(|(side, spare)| side.iter_mut().map(Vec::as_mut_slice).chain(once(spare)));
    let (mut sc, mut lc): (&mut [T], &mut [T]) = (&mut [], &mut []);
    let (mut s, mut l, mut i) = (0, 0, 0);
    while i < data.len() {
        if s == sc.len() {
            (sc, s) = (smalls.next().expect("lens match the counts"), 0);
        }
        if l == lc.len() {
            (lc, l) = (larges.next().expect("lens match the counts"), 0);
        }
        // Both writes are in bounds until one of the two chunks is full.
        while s < sc.len() && l < lc.len() {
            let x = data[i];
            let is_small = small(x.cmp_key(pivot));
            sc[s] = x;
            lc[l] = x;
            s += usize::from(is_small);
            l += usize::from(!is_small);
            i += 1;
        }
    }
    chunks
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

    /// The ways to cut a side of `m` elements into one to three chunks:
    /// whole, or cut after the first element, in the middle and before the
    /// last, one or two of these at a time. An empty side has no chunk.
    fn cuttings(m: usize) -> Vec<Vec<usize>> {
        if m == 0 {
            return vec![Vec::new()];
        }
        let mut points: Vec<usize> = [1, m / 2, m - 1]
            .into_iter()
            .filter(|&c| 0 < c && c < m)
            .collect();
        points.dedup();
        let mut out = vec![vec![m]];
        for (i, &a) in points.iter().enumerate() {
            out.push(vec![a, m - a]);
            out.extend(points[i + 1..].iter().map(|&b| vec![a, b - a, m - b]));
        }
        out
    }

    #[test]
    fn partition_into_returns_the_reference_slices() {
        let slices = |side: &[u64], lens: &[usize]| -> Vec<Vec<u64>> {
            let mut rest = side;
            lens.iter()
                .map(|&n| {
                    let (head, tail) = rest.split_at(n);
                    rest = tail;
                    head.to_vec()
                })
                .collect()
        };
        // Five distinct keys, so every pivot has duplicates; pivots 0 and 5
        // leave one side empty under one of the comparators.
        for len in 0..32u64 {
            let data: Vec<u64> = (0..len).map(|i| (i * i + len) % 5).collect();
            for (pivot, strict) in (0..6).flat_map(|p| [(p, Strictness::Lt), (p, Strictness::Le)]) {
                let (small, large) = partition_reference(data.clone(), &pivot, strict);
                for s_lens in cuttings(small.len()) {
                    for l_lens in cuttings(large.len()) {
                        let lens = [&s_lens[..], &l_lens].concat();
                        let got = partition_into(data.clone(), &pivot, strict, s_lens.len(), &lens);
                        let mut want = slices(&small, &s_lens);
                        want.extend(slices(&large, &l_lens));
                        assert_eq!(
                            got, want,
                            "{strict:?} pivot {pivot} lens {lens:?} data {data:?}"
                        );
                        assert!(got.iter().all(|c| c.capacity() == c.len()));
                    }
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
