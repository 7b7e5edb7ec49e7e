//! Criterion microbenchmarks of the wall-clock hot paths: the O(1)
//! communicator operations the paper's contribution rests on, the local
//! phases of JQuick, and the matching engine of the substrate.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use jquick::assign::greedy_assignment;
use jquick::basecase::merge_kept_half;
use jquick::layout::{Layout, TaskRange};
use jquick::partition::{count_small, partition, partition_into, sample_median, Strictness};
use mpisim::context::CtxPool;
use mpisim::mailbox::Mailbox;
use mpisim::msg::{ContextId, MatchPattern, Message, SrcFilter};
use mpisim::{Group, SortKey, Time};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn bench_group_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("group");
    // The heart of RBC: O(1) subranging of a Range-format group ...
    let range = Group::range(0, 1, 1 << 20);
    g.bench_function("subrange_range_format", |b| {
        b.iter(|| black_box(&range).subrange(black_box(17), black_box(1 << 19), 1))
    });
    // ... versus the explicit O(p) construction native MPI performs.
    for p in [1usize << 10, 1 << 14] {
        g.bench_with_input(BenchmarkId::new("dense_group_build", p), &p, |b, &p| {
            b.iter(|| Group::from_ranks(black_box((0..p).rev().collect::<Vec<_>>())))
        });
    }
    g.bench_function("translate_strided", |b| {
        let s = Group::range(3, 7, 1 << 16);
        b.iter(|| s.translate(black_box(12345)))
    });
    g.bench_function("inverse_strided", |b| {
        let s = Group::range(3, 7, 1 << 16);
        b.iter(|| s.inverse(black_box(3 + 7 * 12345)))
    });
    g.finish();
}

fn bench_context_masks(c: &mut Criterion) {
    let mut g = c.benchmark_group("context");
    g.bench_function("mask_and_plus_lowest_free", |b| {
        let mut a = CtxPool::new();
        for id in 1..600 {
            a.mark_used(id);
        }
        let snap_a = a.snapshot();
        let snap_b = CtxPool::new().snapshot();
        b.iter(|| {
            let r = mpisim::context::mask_and(black_box(&snap_a), black_box(&snap_b));
            CtxPool::lowest_free(&r).unwrap()
        })
    });
    g.finish();
}

fn bench_mailbox(c: &mut Criterion) {
    let mut g = c.benchmark_group("mailbox");
    g.bench_function("push_claim_exact", |b| {
        let mb = Mailbox::new();
        let pat = MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Exact(1),
            tag: 7,
        };
        b.iter(|| {
            mb.push(Message::new::<u64>(
                1,
                7,
                ContextId::WORLD,
                vec![42],
                Time::ZERO,
                Time(10),
            ));
            mb.try_claim(&pat).unwrap()
        })
    });
    g.bench_function("wildcard_scan_32_pending", |b| {
        let mb = Mailbox::new();
        for src in 0..32 {
            mb.push(Message::new::<u64>(
                src,
                9,
                ContextId::WORLD,
                vec![src as u64],
                Time::ZERO,
                Time(100 - src as u64),
            ));
        }
        let pat = MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Any,
            tag: 9,
        };
        b.iter(|| {
            let m = mb.try_claim(&pat).unwrap();
            let src = m.src_global;
            mb.push(m); // put it back to keep the population stable
            src
        })
    });
    g.finish();
}

fn bench_jquick_local(c: &mut Criterion) {
    let mut g = c.benchmark_group("jquick_local");
    // Seeded uniform keys, as the workloads sort: a periodic sequence lets
    // the branch predictor learn a data-dependent partition loop and hides
    // what it costs on real input. The strictness arrives at run time, as
    // it does from `Strictness::for_level`.
    let mut rng = StdRng::seed_from_u64(2018);
    let data: Vec<f64> = (0..(1 << 16)).map(|_| rng.gen_range(-1e9..1e9)).collect();
    // The `_ordinal` rows run the same kernels on the same keys mapped to
    // their `u64` images before the clock, as the sorters do.
    let images: Vec<u64> = data.iter().map(|x| x.to_ordinal()).collect();
    g.bench_function("partition_64k", |b| {
        b.iter(|| partition(black_box(data.clone()), &0.0, black_box(Strictness::Lt)))
    });
    g.bench_function("partition_64k_ordinal", |b| {
        let pivot = 0.0f64.to_ordinal();
        b.iter(|| partition(black_box(images.clone()), &pivot, black_box(Strictness::Lt)))
    });
    // The greedy exchange's shape: each side cut in two message chunks,
    // the counts taken before the clock as the level takes them before
    // its prefix sum.
    g.bench_function("partition_into_64k_4chunks", |b| {
        let pivot = 0.0f64.to_ordinal();
        let n_small = count_small(&images, &pivot, Strictness::Lt);
        let n_large = images.len() - n_small;
        let lens = [
            n_small / 2,
            n_small - n_small / 2,
            n_large / 2,
            n_large - n_large / 2,
        ];
        b.iter(|| {
            let data = black_box(images.clone());
            partition_into(data, &pivot, black_box(Strictness::Lt), 2, &lens)
        })
    });
    // One pair base case at n/p = 2^13, the host work of both partners:
    // each sorts its own run once, then merges out the half it keeps.
    g.bench_function("base_pair_16k", |b| {
        b.iter(|| base_pair(black_box(&data[..1 << 14])))
    });
    g.bench_function("base_pair_16k_ordinal", |b| {
        b.iter(|| base_pair(black_box(&images[..1 << 14])))
    });
    g.bench_function("sample_median_256", |b| {
        let sample: Vec<f64> = data.iter().take(256).copied().collect();
        b.iter(|| sample_median(black_box(sample.clone())))
    });
    g.bench_function("greedy_assignment", |b| {
        let layout = Layout::new(1 << 20, 1 << 10);
        let task = TaskRange {
            lo: 12_345,
            hi: 900_000,
        };
        b.iter(|| {
            greedy_assignment(
                black_box(&layout),
                black_box(&task),
                300_000,
                500,
                400,
                600_000,
                444_444,
            )
        })
    });
    g.bench_function("layout_owner", |b| {
        let layout = Layout::new((1 << 30) + 7, 12_347);
        b.iter(|| layout.owner(black_box(987_654_321)))
    });
    g.finish();
}

/// Both halves of a pair base case over `keys` split in the middle.
fn base_pair<T: SortKey>(keys: &[T]) -> (Vec<T>, Vec<T>) {
    let (left, right) = keys.split_at(keys.len() / 2);
    let (mut left, mut right) = (left.to_vec(), right.to_vec());
    left.sort_unstable_by(T::cmp_key);
    right.sort_unstable_by(T::cmp_key);
    let cap_left = black_box(left.len());
    (
        merge_kept_half(&left, &right, cap_left, true),
        merge_kept_half(&left, &right, cap_left, false),
    )
}

fn bench_exchange_encoding(c: &mut Criterion) {
    use jquick::exchange::{decode_runs, encode_runs};
    let mut g = c.benchmark_group("staged_exchange");
    // The shape a bisection round ships: a few contiguous partition
    // chunks. 64k elements in 4 runs — the wire format collapses the old
    // 16-byte (value, pos) pairs into 8-byte values + 4 run headers,
    // halving staged-path bytes.
    let tagged: Vec<(u64, u64)> = (0..4u64)
        .flat_map(|chunk| {
            let base = chunk * 1_000_000;
            (base..base + (1 << 14)).map(move |p| (p * 7, p))
        })
        .collect();
    g.bench_function("encode_runs_64k_4chunks", |b| {
        b.iter(|| encode_runs(black_box(tagged.clone())))
    });
    let (runs, vals) = encode_runs(tagged.clone());
    assert_eq!(runs.len(), 4);
    // Report the compression itself alongside the timing: pair bytes vs
    // encoded bytes (values + headers).
    let pair_bytes = tagged.len() * std::mem::size_of::<(u64, u64)>();
    let run_bytes = vals.len() * 8 + runs.len() * 16;
    println!(
        "staged_exchange/bytes: pairs {pair_bytes} -> runs {run_bytes} ({:.1}% of pairs)",
        100.0 * run_bytes as f64 / pair_bytes as f64
    );
    g.bench_function("decode_runs_64k_4chunks", |b| {
        b.iter(|| decode_runs(black_box(&runs), black_box(vals.clone())))
    });
    g.finish();
}

/// The PR 8 commit-phase fan-out storm: every rank sends 4 one-word
/// messages per step to deterministic offsets with colliding tags, then
/// wildcard-drains its in-degree — the exact shape `tests/commit_shard.rs`
/// uses. The storm repeats for several rounds inside one universe so the
/// epoch commit (the push step under measurement) amortises the
/// universe setup out of the numbers. The ranks are future bodies: a
/// synchronous body would add two thread hand-offs to every task step.
fn commit_storm(p: usize, per: usize) -> mpisim::Time {
    use mpisim::{recv_async, SimConfig, Src, Transport, Universe};
    const OFFSETS: [usize; 4] = [1, 4, 9, 16];
    const ROUNDS: usize = 4;
    let cfg = SimConfig::cooperative().with_seed(7).with_workers(4);
    let res = Universe::run_poll(p, cfg, |env| async move {
        let w = &env.world;
        let r = w.rank();
        for _round in 0..ROUNDS {
            for i in 0..per {
                for (k, off) in OFFSETS.iter().enumerate() {
                    w.send(
                        &[(r * 100 + i * 10 + k) as u64],
                        (r + off) % p,
                        (k % 3) as u64,
                    )
                    .unwrap();
                }
            }
            for t in 0..3u64 {
                let n = per
                    * OFFSETS
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| k % 3 == t as usize)
                        .count();
                for _ in 0..n {
                    recv_async::<u64, _>(w, Src::Any, t).await.unwrap();
                }
            }
        }
    });
    res.clocks[0]
}

fn bench_commit_storm(c: &mut Criterion) {
    let mut g = c.benchmark_group("commit_storm");
    // (ranks, steps): m = p·per·4 staged messages per epoch wave, across
    // p tasks — small/medium/wide shapes, stepped by a 4-worker pool
    // whose outboxes one commit pushes.
    for &(p, per) in &[(64usize, 2usize), (64, 8), (64, 32), (256, 8)] {
        g.bench_function(&format!("p{p}x{per}"), |b| {
            b.iter(|| commit_storm(black_box(p), black_box(per)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_group_ops,
    bench_context_masks,
    bench_mailbox,
    bench_jquick_local,
    bench_exchange_encoding,
    bench_commit_storm
);
criterion_main!(benches);
