//! Property-based tests of the sorting algorithms: for arbitrary process
//! counts, input sizes, and key distributions (including adversarial
//! duplicate patterns), the output must be globally sorted, perfectly
//! balanced (JQuick), and a permutation of the input.

use std::sync::Arc;

use jquick::basecase::{self, merge_kept_half, BaseTask};
use jquick::partition::{partition, Parted, Piece, Segments, Strictness};
use jquick::{
    fingerprint, generate_workload, hypercube, jquick_sort, jquick_sort_async, samplesort,
    verify_sorted, AssignmentKind, Dist, JQuickConfig, Layout, PivotCfg, RbcBackend, SampleSortCfg,
    Schedule, TaskRange,
};
use mpisim::{Progress, SharedSlice, SimConfig, SortKey, Transport, Universe};
use proptest::prelude::*;

/// Generate each rank's input slice from a seed + distribution selector.
fn input_for(layout: &Layout, rank: u64, seed: u64, dist: u8) -> Vec<u64> {
    let m = layout.cap(rank) as usize;
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(rank + 1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..m)
        .map(|i| match dist % 5 {
            0 => next(),                         // uniform 64-bit
            1 => next() % 3,                     // heavy duplicates
            2 => 42,                             // all equal
            3 => layout.prefix(rank) + i as u64, // presorted
            _ => next() % 100,                   // moderate duplicates
        })
        .collect()
}

fn check_jquick(p: usize, n: u64, seed: u64, dist: u8, cfg: JQuickConfig) {
    let sim = SimConfig::default().with_seed(seed);
    let res = Universe::run(p, sim, move |env| {
        let w = &env.world;
        let layout = Layout::new(n, p as u64);
        let data = input_for(&layout, w.rank() as u64, seed, dist);
        let fp = fingerprint(&data);
        let (out, _) = jquick_sort(&RbcBackend, w, data, n, &cfg).unwrap();
        verify_sorted(w, &out, fp, layout.cap(w.rank() as u64) as usize).unwrap()
    });
    for rep in res.per_rank {
        assert!(rep.all_ok(), "p={p} n={n} seed={seed} dist={dist}: {rep:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case spins up a universe; keep the suite brisk
        .. ProptestConfig::default()
    })]

    #[test]
    fn jquick_sorts_arbitrary_configurations(
        p in 3usize..12,
        per in 1u64..24,
        extra in 0u64..7,
        seed in any::<u64>(),
        dist in 0u8..5,
    ) {
        let n = p as u64 * per + extra.min(p as u64 - 1); // n not a multiple of p
        check_jquick(p, n, seed, dist, JQuickConfig::default());
    }

    #[test]
    fn jquick_staged_assignment_equivalent(
        p in 3usize..10,
        per in 1u64..16,
        seed in any::<u64>(),
        dist in 0u8..5,
    ) {
        let cfg = JQuickConfig { assignment: AssignmentKind::Staged, ..Default::default() };
        check_jquick(p, p as u64 * per, seed, dist, cfg);
    }

    #[test]
    fn jquick_cascaded_schedule_equivalent(
        p in 3usize..10,
        per in 1u64..10,
        seed in any::<u64>(),
    ) {
        let cfg = JQuickConfig { schedule: Schedule::Cascaded, ..Default::default() };
        check_jquick(p, p as u64 * per, seed, 0, cfg);
    }

    #[test]
    fn hypercube_preserves_multiset_and_order(
        logp in 1u32..4,
        per in 1usize..24,
        seed in any::<u64>(),
        dist in 0u8..5,
    ) {
        let p = 1usize << logp;
        let res = Universe::run(p, SimConfig::default().with_seed(seed), move |env| {
            let w = &env.world;
            let layout = Layout::new((p * per) as u64, p as u64);
            let data = input_for(&layout, w.rank() as u64, seed, dist);
            let fp = fingerprint(&data);
            let out = hypercube::hypercube_sort(w, data, &PivotCfg::default()).unwrap();
            let rep = verify_sorted(w, &out, fp, out.len()).unwrap();
            (rep.locally_sorted, rep.globally_ordered, rep.permutation_preserved)
        });
        for (ls, go, pp) in res.per_rank {
            prop_assert!(ls && go && pp);
        }
    }

    #[test]
    fn samplesort_preserves_multiset_and_order(
        p in 1usize..9,
        per in 1usize..24,
        seed in any::<u64>(),
        dist in 0u8..5,
    ) {
        let res = Universe::run(p, SimConfig::default().with_seed(seed), move |env| {
            let w = &env.world;
            let layout = Layout::new((p * per) as u64, p as u64);
            let data = input_for(&layout, w.rank() as u64, seed, dist);
            let fp = fingerprint(&data);
            let out = samplesort::sample_sort(w, data, &SampleSortCfg::default()).unwrap();
            let rep = verify_sorted(w, &out, fp, out.len()).unwrap();
            (rep.locally_sorted, rep.globally_ordered, rep.permutation_preserved)
        });
        for (ls, go, pp) in res.per_rank {
            prop_assert!(ls && go && pp);
        }
    }
}

/// `partition` against the push loop it replaced (`Iterator::partition` is
/// that loop): both sides exactly, order included, both comparators.
/// Elements are compared through `cmp_key`, which by the tie contract is
/// bit equality and, unlike `==`, also holds for NaN against itself and
/// tells `-0.0` from `0.0`.
fn check_partition<T: SortKey + std::fmt::Debug>(data: &[T], pivot: T) {
    for strict in [Strictness::Lt, Strictness::Le] {
        let want: (Vec<T>, Vec<T>) = data.iter().partition(|&x| strict.is_small(x, &pivot));
        let got = partition(data.to_vec(), &pivot, strict);
        assert!(
            same(&got.0, &want.0) && same(&got.1, &want.1),
            "{strict:?} pivot {pivot:?} data {data:?}: got {got:?}, want {want:?}"
        );
        assert_eq!(got.0.capacity(), got.0.len(), "small is exactly sized");
        assert_eq!(got.1.capacity(), got.1.len(), "large is exactly sized");
    }
}

/// Equal lengths and bit-equal keys (see [`check_partition`]).
fn same<T: SortKey>(got: &[T], want: &[T]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.cmp_key(w).is_eq())
}

/// The level's fused partition ([`Parted::new`]) against the same push
/// loop, over the input cut at two seeded points into one to three views
/// of one shared buffer (an empty piece is no view): the small and large
/// sides must be the push loop's, bit for bit and in order. A one-sided
/// split of one view keeps that view; any other side is a buffer of its
/// own, exactly sized.
fn check_fused_partition<T: SortKey + std::fmt::Debug>(data: &[T], pivot: T, cut_seed: u64) {
    let mut at = keys(cut_seed, 2, data.len() as u64 + 1);
    at.sort_unstable();
    let bounds = [0, at[0] as usize, at[1] as usize, data.len()];
    let buf = Arc::new(data.to_vec());
    for strict in [Strictness::Lt, Strictness::Le] {
        let want: (Vec<T>, Vec<T>) = data.iter().partition(|&x| strict.is_small(x, &pivot));
        let mut input = Segments::new();
        for w in bounds.windows(2) {
            input.push(SharedSlice::new(Arc::clone(&buf), w[0]..w[1]));
        }
        let pieces = input.pieces().count();
        let got = Parted::new(input, &pivot, strict);
        let case = format!("{strict:?} pivot {pivot:?} cuts {bounds:?} data {data:?}");
        assert!(
            same(&got.small, &want.0) && same(&got.large, &want.1),
            "{case}: got {:?} | {:?}",
            got.small,
            got.large
        );
        let one_sided = want.0.is_empty() || want.1.is_empty();
        for side in [&got.small, &got.large] {
            match side {
                Piece::View(v) => {
                    assert!(
                        pieces == 1 && one_sided,
                        "{case}: only a kept input is a view"
                    );
                    assert!(
                        Arc::ptr_eq(v.buffer(), &buf),
                        "{case}: the input view is kept"
                    );
                }
                Piece::Own(v) => {
                    assert!(!(pieces == 1 && one_sided && !v.is_empty()), "{case}");
                    assert_eq!(v.capacity(), v.len(), "{case}: exactly sized");
                }
            }
        }
    }
}

const F64_EDGES: [f64; 8] = [
    -0.0,
    0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.5,
    -1.5,
    1.5,
];

/// `len` keys below `modulus` from a seeded xorshift stream.
fn keys(seed: u64, len: usize, modulus: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % modulus
        })
        .collect()
}

proptest! {
    #[test]
    fn partition_matches_push_loop_u64(
        len in 0usize..200,
        seed in any::<u64>(),
        pivot in 0u64..8,
    ) {
        let data = keys(seed, len, 8);
        check_partition(&data, pivot);
        // All-small and all-large under one of the two comparators.
        check_partition(&data, 0);
        check_partition(&data, 8);
        let wide = keys(seed, len, u64::MAX);
        check_partition(&wide, wide.first().copied().unwrap_or(pivot));
    }

    #[test]
    fn partition_matches_push_loop_f64(
        len in 0usize..200,
        seed in any::<u64>(),
        pivot in 0usize..8,
    ) {
        // Duplicates of every edge value, NaN pivot included.
        let data: Vec<f64> = keys(seed, len, 8).iter().map(|&i| F64_EDGES[i as usize]).collect();
        check_partition(&data, F64_EDGES[pivot]);
    }

    #[test]
    fn partition_matches_push_loop_pairs(
        len in 0usize..200,
        seed in any::<u64>(),
        pivot in 0u64..16,
    ) {
        let data: Vec<(u64, u64)> = keys(seed, len, 16).iter().map(|&k| (k / 4, k % 4)).collect();
        check_partition(&data, (pivot / 4, pivot % 4));
    }

    #[test]
    fn fused_partition_matches_push_loop(
        len in 0usize..200,
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
        pivot in 0u64..8,
    ) {
        let data = keys(seed, len, 8);
        check_fused_partition(&data, pivot, cut_seed);
        // All-small and all-large under one of the two comparators.
        check_fused_partition(&data, 0, cut_seed);
        check_fused_partition(&data, 8, cut_seed);
        // The images JQuick sorts `f64` keys as, edge values as pivots.
        let images: Vec<u64> = data.iter().map(|&i| F64_EDGES[i as usize].to_ordinal()).collect();
        check_fused_partition(&images, F64_EDGES[pivot as usize].to_ordinal(), cut_seed);
        let pairs: Vec<(u64, u64)> = data.iter().map(|&k| (k / 4, k % 4)).collect();
        check_fused_partition(&pairs, (pivot / 4, pivot % 4), cut_seed);
    }

    // Every split of a multiset into two sorted runs, every `cap_left`: the
    // two kept halves are the two slices of the stable sort of
    // `left ++ right`. The second field tags the run an element came from
    // without taking part in the order (deliberately outside the tie
    // contract), so "left first on ties" is visible.
    #[test]
    fn base_pair_halves_are_slices_of_the_stable_sort(
        len in 0usize..48,
        split in 0usize..49,
        seed in any::<u64>(),
        modulus in 1u64..7,
    ) {
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct Tagged(u64, bool);
        impl mpisim::Datum for Tagged {}
        impl SortKey for Tagged {
            type Ordinal = Tagged;
            fn cmp_key(&self, other: &Self) -> std::cmp::Ordering {
                self.0.cmp(&other.0)
            }
            fn to_ordinal(self) -> Tagged {
                self
            }
            fn from_ordinal(o: Tagged) -> Tagged {
                o
            }
        }
        let keys = keys(seed, len, modulus);
        let split = split.min(len);
        let mut left: Vec<Tagged> = keys[..split].iter().map(|&k| Tagged(k, false)).collect();
        let mut right: Vec<Tagged> = keys[split..].iter().map(|&k| Tagged(k, true)).collect();
        left.sort_by(Tagged::cmp_key);
        right.sort_by(Tagged::cmp_key);
        let mut union = left.clone();
        union.extend(&right);
        union.sort_by(Tagged::cmp_key);
        for cap_left in 0..=len {
            prop_assert_eq!(&merge_kept_half(&left, &right, cap_left, true)[..], &union[..cap_left]);
            prop_assert_eq!(&merge_kept_half(&left, &right, cap_left, false)[..], &union[cap_left..]);
        }
    }
}

#[test]
fn partition_edge_lengths() {
    check_partition::<u64>(&[], 3);
    check_partition(&[3u64], 3);
    check_partition(&[3u64], 2);
    check_partition(&[4u64, 3], 3);
    check_partition(&[3u64, 3], 3);
    check_partition(&[(1u64, 2u64), (1, 1)], (1, 2));
}

/// The pair base case end to end: two ranks drive `basecase::start`'s core
/// over every task window that straddles their boundary, duplicates across
/// the cut.
#[test]
fn base_pair_through_the_state_machine() {
    let n = 12u64; // windows [0, 6) and [6, 12)
    for lo in 0..6u64 {
        for hi in 7..=12u64 {
            // Keys 0..3, so that every cut falls inside a run of equals.
            let input = move |me: u64, load: u64| -> Vec<u64> {
                (0..load).map(|i| (i * 7 + me * 5 + lo) % 3).collect()
            };
            let res = Universe::run(2, SimConfig::default(), move |env| {
                let w = &env.world;
                let layout = Layout::new(n, 2);
                let task = TaskRange { lo, hi };
                let me = w.rank() as u64;
                let load = task.load_of(&layout, me);
                let bt = BaseTask {
                    task,
                    data: input(me, load),
                };
                let mut base = basecase::start(w, layout, me, bt).unwrap();
                while !base.poll().unwrap() {
                    mpisim::yield_now();
                }
                let s = base.into_out().unwrap();
                (s.lo, s.data, load)
            });
            let (lo0, d0, load0) = &res.per_rank[0];
            let (lo1, d1, load1) = &res.per_rank[1];
            assert_eq!((*lo0, *lo1), (lo, lo + load0));
            assert_eq!((d0.len() as u64, d1.len() as u64), (*load0, *load1));
            // Sorted and a permutation of the input: the sorted input itself.
            let mut want = input(0, *load0);
            want.extend(input(1, *load1));
            want.sort_unstable();
            let got: Vec<u64> = d0.iter().chain(d1).copied().collect();
            assert_eq!(got, want, "task [{lo}, {hi})");
        }
    }
}

/// JQuick sorts `f64` keys as their `u64` images: on input drawn only from
/// the edge values (signed zeros, infinities, NaN, duplicates), every
/// rank's output must be, bit for bit, its layout slice of a sequential
/// `total_cmp` sort, with both exchanges.
#[test]
fn jquick_on_f64_edges_equals_the_sequential_sort() {
    for p in [5usize, 8] {
        let n = p as u64 * 13 + 3;
        let layout = Layout::new(n, p as u64);
        let input = move |rank: u64| -> Vec<f64> {
            keys(2 * rank + 17, layout.cap(rank) as usize, 8)
                .iter()
                .map(|&i| F64_EDGES[i as usize])
                .collect()
        };
        let mut want: Vec<f64> = (0..p as u64).flat_map(input).collect();
        want.sort_by(f64::total_cmp);
        let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
        for assignment in [AssignmentKind::Greedy, AssignmentKind::Staged] {
            let cfg = JQuickConfig {
                assignment,
                ..Default::default()
            };
            let res = Universe::run(p, SimConfig::default().with_seed(3), move |env| {
                let w = &env.world;
                let data = input(w.rank() as u64);
                jquick_sort(&RbcBackend, w, data, n, &cfg).unwrap().0
            });
            for (rank, out) in res.per_rank.iter().enumerate() {
                let (lo, hi) = layout.window(rank as u64);
                let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                assert_eq!(
                    got,
                    want[lo as usize..hi as usize],
                    "p {p}, {assignment:?}, rank {rank}"
                );
            }
        }
    }
}

/// One p = 64 future-body JQuick run: `(max_time ns, messages, bytes,
/// FNV-1a digest over every rank's SortStats fields and output keys, in
/// rank order)`.
fn golden_run(dist: Dist) -> (u64, u64, u64, u64) {
    let (p, n) = (64usize, 64 * 200 + 17u64);
    let cfg = SimConfig::default().with_workers(1).with_seed(2018);
    let res = Universe::run_poll(p, cfg, move |env| async move {
        let w = &env.world;
        let layout = Layout::new(n, p as u64);
        let data = generate_workload(&layout, w.rank() as u64, 2018, dist);
        let (out, stats) = jquick_sort_async(&RbcBackend, w, data, n, &JQuickConfig::default())
            .await
            .unwrap();
        (stats, out)
    });
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u64| {
        for b in word.to_le_bytes() {
            digest = (digest ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (s, out) in &res.per_rank {
        fold(s.max_level as u64);
        fold(s.comm_creations as u64);
        fold(s.base_1 as u64);
        fold(s.base_2 as u64);
        fold(s.stuck_retries as u64);
        fold(s.settled_equal as u64);
        fold(s.distributed_end.as_nanos());
        out.iter().for_each(|x| fold(x.to_bits()));
    }
    (
        res.max_time().as_nanos(),
        res.metrics.messages,
        res.metrics.bytes,
        digest,
    )
}

/// Host-only changes to the local kernels must leave the model untouched.
/// The numbers were recorded at the commit *before* the branch-free
/// partition and the sort-once / merge-half base case (PR 12's head) and
/// must never be edited to make a kernel change pass.
#[test]
fn golden_model_counts_p64_poll() {
    assert_eq!(golden_run(Dist::Uniform), GOLDEN_UNIFORM);
    assert_eq!(golden_run(Dist::Skewed), GOLDEN_SKEWED);
    assert_eq!(golden_run(Dist::FewValues(5)), GOLDEN_FEW_VALUES);
}

// `Skewed` is a monotone map of the same draws as `Uniform`, so the two
// runs have one shape and differ in the keys (the digest) only.
const GOLDEN_UNIFORM: (u64, u64, u64, u64) = (915_976, 3897, 676_496, 4192105137056254916);
const GOLDEN_SKEWED: (u64, u64, u64, u64) = (915_976, 3897, 676_496, 14228742574624561680);
const GOLDEN_FEW_VALUES: (u64, u64, u64, u64) = (1_592_250, 4327, 312_232, 17442870204075713340);

/// Deterministic regression corpus: configurations that exercised bugs
/// during development (degenerate pivots, janus chains, ragged layouts).
#[test]
fn regression_corpus() {
    for (p, n, seed, dist) in [
        (5usize, 50u64, 51u64, 0u8), // staged-exchange premature completion
        (3, 3, 0, 2),                // all equal, one element each
        (7, 29, 1, 1),               // ragged + duplicates
        (11, 11, 9, 3),              // n/p = 1, presorted
        (4, 64, 2, 2),               // all equal, power of two
        (9, 100, 3, 4),              // ragged
    ] {
        check_jquick(p, n, seed, dist, JQuickConfig::default());
        check_jquick(
            p,
            n,
            seed,
            dist,
            JQuickConfig {
                assignment: AssignmentKind::Staged,
                ..Default::default()
            },
        );
    }
}
