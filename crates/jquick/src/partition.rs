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
use std::ops::Deref;

use mpisim::{SharedSlice, SortKey, Transport};

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
    let (buf, n_small) = two_sided(once(&data[..]), data.len(), pivot, strict);
    drop(data);
    sides(buf, n_small, <[T]>::to_vec)
}

/// A run of a rank's keys: a buffer of its own, or a view of a buffer it
/// shares with other ranks (see [`SharedSlice`]). A view that spans its
/// whole buffer and holds its last reference becomes the buffer: a
/// point-to-point chunk usually arrives so, and then keeps no `Arc` alive.
/// Three words, like the `Vec` it usually is.
#[derive(Debug)]
pub enum Piece<T> {
    /// Keys this rank owns alone.
    Own(Vec<T>),
    /// A part of a buffer other ranks may read too.
    View(SharedSlice<T>),
}

impl<T> From<SharedSlice<T>> for Piece<T> {
    fn from(view: SharedSlice<T>) -> Piece<T> {
        view.try_unwrap().map_or_else(Piece::View, Piece::Own)
    }
}

impl<T> From<Vec<T>> for Piece<T> {
    fn from(v: Vec<T>) -> Piece<T> {
        Piece::Own(v)
    }
}

impl<T> Deref for Piece<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Piece::Own(v) => v,
            Piece::View(v) => v,
        }
    }
}

impl<T: Copy> Piece<T> {
    /// The keys as an owned `Vec`: moved out when this piece owns them,
    /// copied out of a shared buffer otherwise.
    pub fn into_vec(self) -> Vec<T> {
        match self {
            Piece::Own(v) => v,
            Piece::View(v) => v.into_vec(),
        }
    }
}

/// A rank's keys of one task as pieces, in the order they arrived: their
/// concatenation is the keys. The exchange delivers a level's keys this
/// way, most pieces views of their senders' partition buffers, and the
/// next level's partition reads them once, in place.
#[derive(Debug)]
pub struct Segments<T>(Pieces<T>);

/// The pieces of a [`Segments`]. One piece, the common case and the only
/// one at small n/p, is held inline: no list, no block of its own.
#[derive(Debug)]
enum Pieces<T> {
    /// No piece (an empty one), or one.
    One(Piece<T>),
    /// Two or more, in order. Boxed, so that a `Segments` is three words,
    /// the `Vec` it stands in for in every level's and exchange's future.
    #[allow(clippy::box_collection)]
    Many(Box<Vec<Piece<T>>>),
}

/// Keys that take at most this many bytes, a cache line, are copied
/// rather than shared: at that size a piece of their own (a block, a list
/// entry, a pointer to follow on every read, and for a view its sender's
/// whole buffer kept alive) costs more than their bytes. A side that small
/// is gathered into one buffer as it arrives ([`Segments::gather`]), and a
/// chunk that small travels as a copy.
pub(crate) const CACHE_LINE: usize = 64;

impl<T: Copy> Segments<T> {
    /// No keys.
    pub fn new() -> Segments<T> {
        Segments(Pieces::One(Piece::Own(Vec::new())))
    }

    /// Append `piece`'s keys to keys that arrive in pieces, `want` in all,
    /// gathering them: the first piece makes one buffer with room for all
    /// of them, and each piece is copied into it (a first piece that is
    /// all of them is kept as it is).
    pub fn gather(&mut self, piece: impl Into<Piece<T>>, want: usize) {
        let piece = piece.into();
        if self.is_empty() && piece.len() < want {
            self.0 = Pieces::One(Piece::Own(Vec::with_capacity(want)));
        }
        self.push(piece);
    }

    /// Append `piece`'s keys: copied into the one buffer when it has room
    /// for them (see [`Segments::gather`]), kept as a piece otherwise. An
    /// empty piece is dropped: it would only keep its buffer alive.
    pub fn push(&mut self, piece: impl Into<Piece<T>>) {
        let piece = piece.into();
        if piece.is_empty() {
            return;
        }
        match &mut self.0 {
            Pieces::One(Piece::Own(first)) if first.capacity() - first.len() >= piece.len() => {
                first.extend_from_slice(&piece)
            }
            Pieces::One(first) if first.is_empty() => *first = piece,
            Pieces::One(first) => {
                let first = std::mem::replace(first, Piece::Own(Vec::new()));
                self.0 = Pieces::Many(Box::new(vec![first, piece]));
            }
            Pieces::Many(pieces) => pieces.push(piece),
        }
    }

    /// The pieces, in order (an empty one for no keys).
    fn list(&self) -> &[Piece<T>] {
        match &self.0 {
            Pieces::One(piece) => std::slice::from_ref(piece),
            Pieces::Many(pieces) => pieces,
        }
    }

    /// Number of keys: a sum over the pieces, which are few.
    pub fn len(&self) -> usize {
        self.list().iter().map(|v| v.len()).sum()
    }

    /// Whether there are no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pieces' keys, piece by piece, in order.
    pub fn pieces(&self) -> impl Iterator<Item = &[T]> {
        self.list().iter().map(|v| &**v)
    }

    /// The keys, in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.pieces().flatten()
    }

    /// The `i`-th key of the concatenation.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    pub fn get(&self, mut i: usize) -> T {
        for v in self.pieces() {
            match v.get(i) {
                Some(&x) => return x,
                None => i -= v.len(),
            }
        }
        panic!("key index out of range")
    }

    /// The concatenation as one `Vec`: the one piece's own buffer when it
    /// has one (no copy), one exactly sized copy otherwise.
    pub fn into_vec(self) -> Vec<T> {
        if let Pieces::One(piece) = self.0 {
            return piece.into_vec();
        }
        let mut out = Vec::with_capacity(self.len());
        for v in self.pieces() {
            out.extend_from_slice(v);
        }
        out
    }
}

impl<T: Copy> Default for Segments<T> {
    fn default() -> Self {
        Segments::new()
    }
}

impl<T: Copy, P: Into<Piece<T>>> From<P> for Segments<T> {
    /// One piece; none if it is empty.
    fn from(piece: P) -> Segments<T> {
        let mut keys = Segments::new();
        keys.push(piece);
        keys
    }
}

/// A rank's keys after its level's partition: the small side and the
/// large side, each in input order. The exchange sends each side whole
/// when it goes to one process, and as views of it when it is cut into
/// chunks. The sides are two buffers, not one: every reader of a small
/// chunk is in the small subtask and every reader of a large chunk in the
/// large one, and the two subtasks run their next partitions apart, so
/// one shared buffer would live until the slower of them had read it.
pub struct Parted<T> {
    /// The smalls.
    pub small: Piece<T>,
    /// The larges.
    pub large: Piece<T>,
}

impl<T: SortKey> Parted<T> {
    /// Partition `input` by `pivot` under `strict`, stably, in one pass
    /// that reads each key once, writes it once and counts the smalls on
    /// the way (`two_sided`), then copies each side, while it is still in
    /// cache, out of the pass's buffer into one of its own (`paged_copy`).
    /// When the split is one-sided and `input` is one piece, that piece is
    /// the result and the copy is dropped: the level keeps its input as it
    /// is.
    pub fn new(input: Segments<T>, pivot: &T, strict: Strictness) -> Parted<T> {
        let (buf, n_small) = two_sided(input.pieces(), input.len(), pivot, strict);
        match input.0 {
            Pieces::One(kept) if n_small == buf.len() => {
                return Parted {
                    small: kept,
                    large: Piece::Own(Vec::new()),
                }
            }
            Pieces::One(kept) if n_small == 0 => {
                return Parted {
                    small: Piece::Own(Vec::new()),
                    large: kept,
                }
            }
            // The input's buffers go back to the allocator before the
            // sides take theirs, which are of the same sizes.
            pieces => drop(pieces),
        }
        let (small, large) = sides(buf, n_small, paged_copy);
        Parted {
            small: Piece::Own(small),
            large: Piece::Own(large),
        }
    }
}

/// The two sides of [`two_sided`]'s buffer `buf` with `n_small` smalls,
/// each in input order: the larges are reversed in place while they are
/// still in cache, then both sides are copied out by `copy`, and the
/// buffer is freed, to be taken again by the next partition of its size.
/// Cutting the buffer down to one side instead would leave a hole the size
/// of the other that no later buffer of the full size fits, and the heap
/// would grow past its live bytes.
fn sides<T: Copy>(
    mut buf: Vec<T>,
    n_small: usize,
    copy: impl Fn(&[T]) -> Vec<T>,
) -> (Vec<T>, Vec<T>) {
    let (small, large) = buf.split_at_mut(n_small);
    large.reverse();
    (copy(small), copy(large))
}

/// A page: the unit [`paged_copy`] rounds to.
const PAGE: usize = 4096;

/// A copy of a level's side `keys`: exactly sized below eight pages, with
/// room up to a whole number of pages from there. A side lives until every
/// rank that reads it has partitioned again, and the sides of a level are
/// freed in an order no allocator foresees: at arbitrary sizes their holes
/// are of arbitrary sizes too, the window-sized blocks of a later level do
/// not fit them, and the heap grows past its live bytes (peak RSS on
/// `jquick_bulk` rose 9–13 % over the exact-sized receive buffers it
/// replaced). Whole pages make the holes reusable, at most a page of
/// slack per side (EXPERIMENTS.md, "The fused partition").
fn paged_copy<T: Copy>(keys: &[T]) -> Vec<T> {
    let bytes = size_of_val(keys);
    let room = match bytes >= 8 * PAGE {
        true => bytes.next_multiple_of(PAGE) / size_of::<T>(),
        false => keys.len(),
    };
    let mut out = Vec::with_capacity(room);
    out.extend_from_slice(keys);
    out
}

/// The one partition kernel: a stable two-sided split of the keys of
/// `parts` (`len` of them) into one exactly sized buffer, smalls forward
/// from the front in input order, larges backward from the back (so in
/// reverse input order), and the small count. Every key is written once,
/// to its final slot: after `i` keys of which `s` were small, the next
/// small goes to `s` and the next large to `len - 1 - (i - s)`, and the
/// slot is selected, not branched on (on uniform keys a branch on
/// `is_small` mispredicts every other key). One copy of the loop per
/// comparator: with the strictness tested per key the loop runs at half
/// the speed.
fn two_sided<'a, T: SortKey>(
    parts: impl IntoIterator<Item = &'a [T]>,
    len: usize,
    pivot: &T,
    strict: Strictness,
) -> (Vec<T>, usize) {
    match strict {
        Strictness::Lt => two_sided_by(parts, len, pivot, Ordering::is_lt),
        Strictness::Le => two_sided_by(parts, len, pivot, Ordering::is_le),
    }
}

fn two_sided_by<'a, T: SortKey>(
    parts: impl IntoIterator<Item = &'a [T]>,
    len: usize,
    pivot: &T,
    small: impl Fn(Ordering) -> bool,
) -> (Vec<T>, usize) {
    let mut out = vec![*pivot; len];
    let (mut s, mut i) = (0, 0);
    for part in parts {
        for &x in part {
            let is_small = small(x.cmp_key(pivot));
            let at = if is_small { s } else { len - 1 - (i - s) };
            out[at] = x;
            s += usize::from(is_small);
            i += 1;
        }
    }
    debug_assert_eq!(i, len, "parts hold `len` keys");
    (out, s)
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
    use std::sync::Arc;

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

    /// The ways to cut `m` keys into one to three views: whole, or cut
    /// after the first key, in the middle and before the last, one or two
    /// of these at a time. No key, no view.
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

    /// `data` as the views `lens` cut it into, all of one shared buffer
    /// that holds a key before and after them which no view covers.
    fn views_of(data: &[u64], lens: &[usize]) -> Segments<u64> {
        let buf = Arc::new([&[99][..], data, &[99]].concat());
        let mut keys = Segments::new();
        let mut at = 1;
        for &n in lens {
            keys.push(SharedSlice::new(Arc::clone(&buf), at..at + n));
            at += n;
        }
        keys
    }

    #[test]
    fn the_fused_partition_returns_the_reference_sides() {
        // Five distinct keys, so every pivot has duplicates; pivots 0 and 5
        // leave one side empty under one of the comparators.
        for len in 0..32u64 {
            let data: Vec<u64> = (0..len).map(|i| (i * i + len) % 5).collect();
            for (pivot, strict) in (0..6).flat_map(|p| [(p, Strictness::Lt), (p, Strictness::Le)]) {
                let (small, large) = partition_reference(data.clone(), &pivot, strict);
                let one_sided = small.is_empty() || large.is_empty();
                // Views of a shared buffer, cut every way, and the whole
                // input as a buffer of the rank's own.
                let inputs = cuttings(data.len())
                    .into_iter()
                    .map(|lens| (format!("views {lens:?}"), views_of(&data, &lens)))
                    .chain([("own".to_string(), Segments::from(data.clone()))]);
                for (how, input) in inputs {
                    let pieces = input.pieces().count();
                    let first = input.pieces().next().map(<[u64]>::as_ptr);
                    let got = Parted::new(input, &pivot, strict);
                    let case = format!("{strict:?} pivot {pivot} {how} data {data:?}");
                    assert_eq!(
                        (&*got.small, &*got.large),
                        (&small[..], &large[..]),
                        "{case}"
                    );
                    for side in [&got.small, &got.large] {
                        if one_sided && pieces == 1 && !side.is_empty() {
                            // The level keeps its one input piece as it is.
                            assert_eq!(Some(side.as_ptr()), first, "{case}");
                        } else {
                            // A buffer of its own, exactly sized: none
                            // for an empty side.
                            assert!(
                                matches!(side, Piece::Own(v) if v.capacity() == v.len()),
                                "{case}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_side_of_eight_pages_or_more_is_copied_with_room_to_a_whole_page() {
        for (len, room) in [(0, 0), (5, 5), (4095, 4095), (4096, 4096), (4097, 4608)] {
            let keys: Vec<u64> = (0..len as u64).collect();
            let copy = paged_copy(&keys);
            assert_eq!((copy.len(), copy.capacity()), (len, room));
            assert_eq!(copy, keys);
        }
        // Sixteen-byte keys round to the same pages.
        let pairs = vec![(1u64, 2u64); 2049];
        assert_eq!(paged_copy(&pairs).capacity(), 2304);
    }

    #[test]
    fn segments_index_and_concatenate_through_their_pieces() {
        let data: Vec<u64> = (10..20).collect();
        for lens in cuttings(data.len()) {
            let keys = views_of(&data, &lens);
            assert_eq!(keys.len(), data.len());
            assert!((0..data.len()).all(|i| keys.get(i) == data[i]));
            assert!(keys.iter().eq(data.iter()));
            let out = keys.into_vec();
            assert_eq!((out.capacity(), out), (data.len(), data.clone()));
        }
        // Empty pieces are not kept.
        let mut keys = views_of(&data, &[0, 10, 0]);
        keys.push(Vec::new());
        assert_eq!(keys.pieces().count(), 1);
        // A whole buffer's last view becomes the buffer: no `Arc` stays
        // alive and nothing is copied.
        let v = data.clone();
        let at = v.as_ptr();
        let view = SharedSlice::from(Arc::new(v));
        let keys = Segments::from(view);
        assert!(matches!(keys.list(), [Piece::Own(_)]));
        let out = keys.into_vec();
        assert_eq!(out.as_ptr(), at);
        // A view of a buffer another reference holds stays a view.
        let buf = Arc::new(data.clone());
        let keys = Segments::from(SharedSlice::from(Arc::clone(&buf)));
        assert!(matches!(keys.list(), [Piece::View(_)]));
    }

    #[test]
    fn gathered_pieces_are_copied_into_one_buffer_and_pushed_ones_kept() {
        let buf = Arc::new((0..64u64).collect::<Vec<_>>());
        let view = |r| SharedSlice::new(Arc::clone(&buf), r);
        // Gathered: the first piece makes a buffer for all eight, and every
        // piece, view or owned, is copied into it as it comes.
        let mut keys = Segments::new();
        keys.gather(view(3..5), 8);
        keys.gather(vec![7u64, 8, 9], 8);
        keys.gather(view(10..13), 8);
        assert!(matches!(keys.list(), [Piece::Own(v)] if v.capacity() == 8));
        assert_eq!(keys.into_vec(), vec![3, 4, 7, 8, 9, 10, 11, 12]);
        // Pushed: each piece is kept, the views reading the shared buffer.
        let mut keys = Segments::new();
        keys.push(view(0..4));
        keys.push(view(20..25));
        assert!(matches!(keys.list(), [Piece::View(_), Piece::View(_)]));
        assert_eq!(
            keys.pieces().next().map(<[u64]>::as_ptr),
            Some(buf.as_ptr())
        );
        assert_eq!(keys.len(), 9);
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
