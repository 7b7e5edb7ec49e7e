//! Perfect balance for every input at small scope. The paper claims that
//! JQuick leaves ⌊n/p⌋ or ⌈n/p⌉ elements on every process for *any*
//! input (§VII); here that is checked for every input, not for samples.
//!
//! A comparison sort sees only the relative order of its keys, so every
//! input of n keys is one of the weak orderings of n keys: 3, 13, 75, 541,
//! 4683, 47 293 and 545 835 of them for n = 2 … 8 (the Fubini numbers).
//! Each is dealt over p ∈ {2, …, 5} ranks by [`Layout`] and sorted by
//! `jquick_sort_async` on future bodies, with both exchanges and three
//! pivot seeds. Every run must return a sorted permutation of its input,
//! leave rank r holding exactly `layout.cap(r)` keys, and stay within the
//! bounds of [`check`].
//!
//! n ≤ 5 runs in a few seconds in debug. n = 6 and 7 take about a minute
//! in release and run only there (CI's large-universe job:
//! `cargo test -p jquick --release --test small_scope`). n = 8 is
//! `#[ignore]`d: about half a million inputs per (p, exchange, seed).

use jquick::{jquick_sort_async, AssignmentKind, JQuickConfig, Layout, RbcBackend, SortStats};
use mpisim::{SimConfig, Universe};

/// The pivot seeds: each is a universe seed, from which every rank's
/// sample draws follow.
const SEEDS: [u64; 3] = [1, 2, 3];

/// Every weak ordering of `n` keys, each as the keys `0..k` of its `k`
/// classes: the sequences over `0..n` whose values are exactly `0..k`.
fn weak_orderings(n: usize) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    let mut keys = vec![0u64; n];
    loop {
        let used = keys.iter().fold(0u32, |m, &k| m | 1 << k);
        if used & (used + 1) == 0 {
            out.push(keys.clone());
        }
        let Some(i) = keys.iter().rposition(|&k| k + 1 < n as u64) else {
            return out;
        };
        keys[i] += 1;
        keys[i + 1..].fill(0);
    }
}

/// Sort `keys`, dealt by the layout, over `p` ranks: each rank's output
/// and statistics.
fn sort(keys: &[u64], p: usize, seed: u64, kind: AssignmentKind) -> Vec<(Vec<u64>, SortStats)> {
    let n = keys.len() as u64;
    let layout = Layout::new(n, p as u64);
    let cfg = JQuickConfig {
        assignment: kind,
        ..JQuickConfig::default()
    };
    Universe::run_poll(p, SimConfig::default().with_seed(seed), |env| {
        let (lo, hi) = layout.window(env.rank() as u64);
        let mine = keys[lo as usize..hi as usize].to_vec();
        let cfg = &cfg;
        async move {
            jquick_sort_async(&RbcBackend, &env.world, mine, n, cfg)
                .await
                .unwrap()
        }
    })
    .per_rank
}

/// Sort `keys` over `p` ranks and check the claims, and two bounds on the
/// statistics:
/// - Levels. A task over at most two ranks is a base case, so with
///   p ≤ 2 there is no level. Otherwise each level either splits its task
///   or is stuck, a split takes at least one key off each side, and a task
///   over three or more ranks holds at least three keys: a rank's deepest
///   level is at most n − 3 plus its stuck retries.
/// - Stuck retries. A level is stuck when the sample median is the key its
///   comparator cannot split off, so retries are random and this bound is
///   empirical: over n ≤ 7 and the three seeds the most is 8 (n = 7, p = 5,
///   a task of three 1s and three 2s). 2n leaves room and still fails a
///   pivot rule that is stuck systematically.
fn check(keys: &[u64], p: usize, seed: u64, kind: AssignmentKind) {
    let what = || format!("p = {p}, {kind:?}, seed {seed}, keys {keys:?}");
    let n = keys.len() as u64;
    let layout = Layout::new(n, p as u64);
    let out = sort(keys, p, seed, kind);
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    let got: Vec<u64> = out.iter().flat_map(|(o, _)| o.iter().copied()).collect();
    assert!(got == sorted, "{}: not a sorted permutation", what());
    for (rank, (o, stats)) in out.iter().enumerate() {
        let (level, stuck) = (u64::from(stats.max_level), u64::from(stats.stuck_retries));
        let balanced = o.len() as u64 == layout.cap(rank as u64);
        assert!(balanced, "{}: rank {rank} holds {}", what(), o.len());
        let levels = if p <= 2 {
            (level, stuck) == (0, 0)
        } else {
            level <= n - 3 + stuck
        };
        let bounded = levels && stuck <= 2 * n;
        assert!(bounded, "{}: rank {rank}: {stats:?}", what());
    }
}

/// Every input of `n` keys over every p ∈ {2, …, min(5, n)}, both
/// exchanges and `seeds`.
fn every_input(n: usize, seeds: &[u64]) {
    let inputs = weak_orderings(n);
    for p in 2..=n.min(5) {
        for kind in [AssignmentKind::Greedy, AssignmentKind::Staged] {
            for &seed in seeds {
                for keys in &inputs {
                    check(keys, p, seed, kind);
                }
            }
        }
    }
}

#[test]
fn the_weak_orderings_are_counted_by_the_fubini_numbers() {
    let counts: Vec<usize> = (1..=7).map(|n| weak_orderings(n).len()).collect();
    assert_eq!(counts, [1, 3, 13, 75, 541, 4683, 47_293]);
    assert_eq!(
        weak_orderings(3)[..3],
        [vec![0, 0, 0], vec![0, 0, 1], vec![0, 1, 0]]
    );
}

#[test]
fn every_input_of_up_to_5_keys_sorts_perfectly_balanced() {
    for n in 2..=5 {
        every_input(n, &SEEDS);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: about a minute")]
fn every_input_of_6_and_7_keys_sorts_perfectly_balanced() {
    for n in 6..=7 {
        every_input(n, &SEEDS);
    }
}

#[test]
#[ignore = "about half a million inputs per (p, exchange, seed)"]
fn every_input_of_8_keys_sorts_perfectly_balanced() {
    every_input(8, &SEEDS);
}
