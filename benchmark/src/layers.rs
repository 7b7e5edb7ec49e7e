//! Per-layer drives: each times calls into one module's `pub` functions
//! from outside, inside a span of the traced run. Layers are named after
//! the modules they drive.
//!
//! Every closure's inputs and outputs pass through `black_box`, and every
//! drive checks that its total time grows with the amount of work: a
//! micro drive is timed at a quarter and at the full iteration count, a
//! universe drive against the empty universe of the same size.

use std::hint::black_box;
use std::time::Instant;

use jquick::assign::greedy_assignment;
use jquick::exchange::{decode_runs, encode_runs};
use jquick::layout::TaskRange;
use jquick::partition::{partition, sample_median, Strictness};
use jquick::Layout;
use mpisim::context::{mask_and, CtxPool};
use mpisim::mailbox::Mailbox;
use mpisim::msg::{MatchPattern, Message, SrcFilter};
use mpisim::nbcoll::{self, Request};
use mpisim::{
    ops, recv_async, yield_now_async, Backend, ContextId, Group, ProcEnv, SimConfig, Src, Time,
    Transport,
};
use rbc::RbcComm;

use crate::alloc::peak_heap_during;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, timed, Kind, Observe, Workload};

/// Sizes of the drives; `smoke` shrinks them like the workloads.
struct Sizes {
    /// Scale applied to micro-drive iteration counts.
    iters: u64,
    /// Ranks of the empty-universe and rank-epoch drives.
    p_universe: usize,
    /// Ranks of the collective drives.
    p_coll: usize,
    /// Operations per collective drive.
    coll_ops: usize,
    yields: usize,
    round_trips: usize,
}

impl Sizes {
    fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                iters: 1,
                p_universe: 1 << 8,
                p_coll: 1 << 8,
                coll_ops: 4,
                yields: 16,
                round_trips: 1000,
            }
        } else {
            Sizes {
                iters: 8,
                p_universe: 1 << 12,
                p_coll: 1 << 10,
                coll_ops: 16,
                yields: 64,
                round_trips: 10_000,
            }
        }
    }
}

fn config(backend: Backend, seed: u64) -> SimConfig {
    SimConfig::default()
        .with_backend(backend)
        .with_workers(1)
        .with_seed(seed)
}

/// Nanoseconds per call of `f` over `iters` calls, or `None` if the full
/// run did not take longer than a quarter run three times in a row: then
/// the compiler has removed the measured work and the number would be
/// meaningless.
fn grown_ns_per_iter(iters: u64, mut f: impl FnMut()) -> Option<f64> {
    let mut run = |n: u64| {
        let t0 = Instant::now();
        for _ in 0..n {
            f();
        }
        t0.elapsed()
    };
    run(iters / 8 + 1); // warm caches and the pool's size classes
    (0..3).find_map(|_| {
        let (quarter, full) = (run(iters / 4), run(iters));
        (full > quarter).then(|| full.as_nanos() as f64 / iters as f64)
    })
}

/// [`grown_ns_per_iter`] inside a span called `name`; panics where that
/// returns `None`.
fn per_iter_ns(t: &mut Tracer, name: &str, iters: u64, f: impl FnMut()) -> f64 {
    t.span(name, |t| {
        t.count("iters", iters as f64);
        grown_ns_per_iter(iters, f)
            .unwrap_or_else(|| panic!("{name}: total time does not grow with the iteration count"))
    })
}

/// Median wall seconds of three runs of `body` on `p` ranks (after one
/// warm-up run), inside a span called `name`. Panics if a rank fails.
fn universe_s<F, Fut>(t: &mut Tracer, name: &str, p: usize, cfg: &SimConfig, body: F) -> f64
where
    F: Fn(ProcEnv) -> Fut + Send + Sync,
    Fut: std::future::Future<Output = Result<(), String>> + Send,
{
    t.span(name, |t| {
        let mut walls = Vec::new();
        for i in 0..4 {
            let (rep, _) = timed(p, cfg.clone(), &body);
            if let Err(e) = &rep.check {
                panic!("{name}: {e}");
            }
            if i > 0 {
                walls.push(rep.wall_s);
            }
            t.count("messages", rep.metrics.messages as f64);
        }
        median(&walls)
    })
}

/// Host ns per rank and operation of a universe drive: its wall over the
/// empty universe's, divided by `p * ops`.
fn per_rank_op_ns(name: &str, wall_s: f64, empty_s: f64, p: usize, ops: usize) -> f64 {
    assert!(
        wall_s > empty_s,
        "{name}: {ops} operations took no longer than an empty universe"
    );
    (wall_s - empty_s) * 1e9 / (p * ops) as f64
}

/// Drive every layer once and return `(metric, value)` for each
/// workload-independent per-layer metric.
pub fn drive_all(t: &mut Tracer, seed: u64, smoke: bool) -> Vec<(&'static str, f64)> {
    let sz = Sizes::new(smoke);
    let mut out = Vec::new();
    t.span("layer:mpisim::universe", |t| {
        universe(t, &sz, seed, &mut out)
    });
    t.span("layer:mpisim::sched", |t| sched(t, &sz, seed, &mut out));
    t.span("layer:variants", |t| variants(t, seed, smoke, &mut out));
    t.span("layer:mpisim::mailbox", |t| mailbox(t, &sz, &mut out));
    t.span("layer:mpisim::pool+msg", |t| pool_and_msg(t, &sz, &mut out));
    t.span("layer:mpisim::coll+rbc::coll", |t| {
        collectives(t, &sz, seed, &mut out)
    });
    t.span("layer:mpisim::nbcoll+rbc::nbc", |t| {
        nonblocking(t, &sz, seed, &mut out)
    });
    t.span("layer:mpisim::comm+rbc::comm", |t| {
        communicators(t, &sz, seed, smoke, &mut out)
    });
    t.span("layer:jquick", |t| jquick_local(t, &sz, &mut out));
    out
}

type Out = Vec<(&'static str, f64)>;

async fn empty(_env: ProcEnv) -> Result<(), String> {
    Ok(())
}

fn universe(t: &mut Tracer, sz: &Sizes, seed: u64, out: &mut Out) {
    let p = sz.p_universe;
    for (backend, setup, heap) in [
        (
            Backend::Poll,
            "universe.setup_ns_per_rank.poll",
            "universe.idle_heap_bytes_per_rank.poll",
        ),
        (
            Backend::Cooperative,
            "universe.setup_ns_per_rank.fiber",
            "universe.idle_heap_bytes_per_rank.fiber",
        ),
    ] {
        let cfg = config(backend, seed);
        let wall = universe_s(t, setup, p, &cfg, empty);
        out.push((setup, wall * 1e9 / p as f64));
        let peak = t.span(heap, |_| {
            let ((rep, _), peak) = peak_heap_during(|| timed(p, cfg.clone(), empty));
            assert_eq!(rep.check, Ok(()));
            peak
        });
        out.push((heap, peak as f64 / p as f64));
    }
}

fn sched(t: &mut Tracer, sz: &Sizes, seed: u64, out: &mut Out) {
    let p = sz.p_universe;
    let yields = sz.yields;
    for (backend, name) in [
        (Backend::Poll, "sched.rank_epoch_ns.poll"),
        (Backend::Cooperative, "sched.rank_epoch_ns.fiber"),
    ] {
        let cfg = config(backend, seed);
        let idle = universe_s(t, &format!("{name}:empty"), p, &cfg, empty);
        let wall = universe_s(t, name, p, &cfg, move |_env| async move {
            for _ in 0..yields {
                yield_now_async().await;
            }
            Ok(())
        });
        assert!(wall > idle, "{name}: yielding took no longer than idling");
        out.push((name, wall * 1e9 / (p * yields) as f64));
    }

    // Two ranks bounce one word: every message is an epoch of width one.
    let trips = sz.round_trips;
    let cfg = config(Backend::Poll, seed);
    let idle = universe_s(t, "sched.pingpong_ns:empty", 2, &cfg, empty);
    let wall = universe_s(t, "sched.pingpong_ns", 2, &cfg, move |env| async move {
        let w = &env.world;
        let peer = 1 - w.rank();
        for i in 0..trips as u64 {
            if w.rank() == 0 {
                w.send(&[i], peer, 1).map_err(|e| e.to_string())?;
            }
            let (v, _) = recv_async::<u64, _>(w, Src::Rank(peer), 1)
                .await
                .map_err(|e| e.to_string())?;
            if v[0] != i {
                return Err(format!("pingpong: got {} in trip {i}", v[0]));
            }
            if w.rank() == 1 {
                w.send_vec(v, peer, 1).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    });
    out.push((
        "sched.pingpong_ns",
        per_rank_op_ns("sched.pingpong_ns", wall, idle, 2, trips),
    ));
}

/// Host ns per message of each variant in `variants`: three interleaved
/// rounds, the first a warm-up, the median of the other two. Panics if a
/// repetition fails its check or the variants disagree on the model counts
/// (one program on one seed must simulate the same thing on any backend
/// and worker count).
fn variant_ns_per_msg(
    t: &mut Tracer,
    seed: u64,
    base: &Workload,
    variants: &[(&'static str, Backend, usize)],
) -> Vec<f64> {
    let inputs = base.inputs(seed);
    let mut ns: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let mut model = None;
    for round in 0..3 {
        for (i, (name, backend, workers)) in variants.iter().enumerate() {
            t.span(name, |t| {
                let rep = base
                    .variant(*backend, *workers)
                    .run(&inputs, seed, Observe::default());
                if let Err(e) = &rep.check {
                    panic!("{name}: {e}");
                }
                let counts = *model.get_or_insert(rep.model_counts());
                assert_eq!(
                    rep.model_counts(),
                    counts,
                    "{name}: (virtual ns, messages, epochs) differ between variants of {}",
                    base.name
                );
                t.count("messages", rep.metrics.messages as f64);
                if round > 0 {
                    ns[i].push(rep.wall_s * 1e9 / rep.metrics.messages as f64);
                }
            });
        }
    }
    ns.iter().map(|v| median(v)).collect()
}

/// What the four workloads leave out: the latency workload on the fiber
/// backend and on two workers, the point-to-point storm on one and on two
/// workers. On a shared two-core host these are too unsteady to carry a
/// bound, so they are diagnostics of the traced run, each ratio with its
/// base beside it.
fn variants(t: &mut Tracer, seed: u64, smoke: bool, out: &mut Out) {
    let all = workloads::all(smoke);
    let find = |name: &str| {
        all.iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("the {name} workload exists"))
    };

    let ns = variant_ns_per_msg(
        t,
        seed,
        find("jquick_latency_poll"),
        &[
            ("variant.jquick_latency.poll_ns_per_msg", Backend::Poll, 1),
            (
                "variant.jquick_latency.fiber_ns_per_msg",
                Backend::Cooperative,
                1,
            ),
            ("variant.jquick_latency.w2_ns_per_msg", Backend::Poll, 2),
        ],
    );
    out.extend([
        ("variant.jquick_latency.poll_ns_per_msg", ns[0]),
        ("variant.jquick_latency.fiber_ns_per_msg", ns[1]),
        ("variant.jquick_latency.w2_ns_per_msg", ns[2]),
        ("ratio.fiber_over_poll", ns[1] / ns[0]),
        ("speedup.w2_over_w1", ns[0] / ns[2]),
    ]);

    let ns = variant_ns_per_msg(
        t,
        seed,
        &workloads::storm(smoke),
        &[
            ("sched.storm_w1_ns_per_msg", Backend::Poll, 1),
            ("sched.storm_w2_ns_per_msg", Backend::Poll, 2),
        ],
    );
    out.extend([
        ("sched.storm_w1_ns_per_msg", ns[0]),
        ("sched.storm_w2_ns_per_msg", ns[1]),
        ("speedup.storm_w2_over_w1", ns[0] / ns[1]),
    ]);
}

fn mailbox(t: &mut Tracer, sz: &Sizes, out: &mut Out) {
    let msg = |src: usize, tag: u64, word: u64, arrival: u64| {
        let mut data = mpisim::pool::take_vec::<u64>(1);
        data.push(word);
        Message::new::<u64>(src, tag, ContextId::WORLD, data, Time::ZERO, Time(arrival))
    };

    let mb = Mailbox::new();
    let exact = MatchPattern {
        ctx: ContextId::WORLD,
        src: SrcFilter::Exact(1),
        tag: 7,
    };
    let ns = per_iter_ns(t, "mailbox.push_claim_exact_ns", 100_000 * sz.iters, || {
        mb.push(black_box(msg(1, 7, 42, 10)));
        black_box(mb.try_claim(black_box(&exact)).expect("just pushed"));
    });
    out.push(("mailbox.push_claim_exact_ns", ns));

    // 32 senders pending; each claim takes the earliest arrival and puts
    // it back, so the population stays at 32.
    let mb = Mailbox::new();
    for src in 0..32 {
        mb.push(msg(src, 9, src as u64, 100 - src as u64));
    }
    let any = MatchPattern {
        ctx: ContextId::WORLD,
        src: SrcFilter::Any,
        tag: 9,
    };
    let ns = per_iter_ns(t, "mailbox.wildcard_claim_32_ns", 50_000 * sz.iters, || {
        let m = mb.try_claim(black_box(&any)).expect("32 pending");
        mb.push(black_box(m));
    });
    out.push(("mailbox.wildcard_claim_32_ns", ns));

    // One 256-message batch into one mailbox, as a commit shard delivers
    // a destination's segment; only `push_batch` is under the clock.
    const BATCH: usize = 256;
    let mb = Mailbox::new();
    let mut batch: Vec<Message> = Vec::with_capacity(BATCH);
    let mut fired = Vec::new();
    let mut pushing = std::time::Duration::ZERO;
    let batches = 200 * sz.iters;
    t.span("mailbox.push_batch_ns_per_msg", |t| {
        for round in 0..batches + 1 {
            for i in 0..BATCH {
                batch.push(msg(
                    i % 16,
                    (i % 3) as u64,
                    i as u64,
                    (round * 1000) + i as u64,
                ));
            }
            let t0 = Instant::now();
            mb.push_batch(black_box(&mut batch), &mut fired);
            if round > 0 {
                pushing += t0.elapsed(); // round 0 warms the buckets
            }
            for tag in 0..3 {
                let pat = MatchPattern {
                    ctx: ContextId::WORLD,
                    src: SrcFilter::Any,
                    tag,
                };
                while let Some(m) = mb.try_claim(&pat) {
                    drop(black_box(m));
                }
            }
        }
        t.count("messages", (batches * BATCH as u64) as f64);
    });
    assert!(mb.is_empty() && fired.is_empty());
    out.push((
        "mailbox.push_batch_ns_per_msg",
        pushing.as_nanos() as f64 / (batches * BATCH as u64) as f64,
    ));
}

fn pool_and_msg(t: &mut Tracer, sz: &Sizes, out: &mut Out) {
    for (n, take, fresh) in [
        (16usize, "pool.take_recycle_ns.16", "pool.fresh_alloc_ns.16"),
        (
            1024,
            "pool.take_recycle_ns.1024",
            "pool.fresh_alloc_ns.1024",
        ),
        (
            65536,
            "pool.take_recycle_ns.65536",
            "pool.fresh_alloc_ns.65536",
        ),
    ] {
        mpisim::pool::recycle_vec(Vec::<u64>::with_capacity(n)); // warm the class
        let ns = per_iter_ns(t, take, 200_000 * sz.iters, || {
            let mut v: Vec<u64> = mpisim::pool::take_vec(black_box(n));
            v.push(black_box(7));
            mpisim::pool::recycle_vec(black_box(v));
        });
        out.push((take, ns));
        let ns = per_iter_ns(t, fresh, 200_000 * sz.iters, || {
            let mut v: Vec<u64> = Vec::with_capacity(black_box(n));
            v.push(black_box(7));
            drop(black_box(v));
        });
        out.push((fresh, ns));
    }

    // What one send + receive does to a payload: pooled copy in,
    // `Message::new`, typed `take`, recycle.
    for (words, name, iters) in [
        (1usize, "msg.new_take_ns.8B", 200_000),
        (8192, "msg.new_take_ns.64KiB", 5_000),
    ] {
        let src: Vec<u64> = (0..words as u64).collect();
        let ns = per_iter_ns(t, name, iters * sz.iters, || {
            let mut data = mpisim::pool::take_vec::<u64>(words);
            data.extend_from_slice(black_box(&src));
            let m = Message::new::<u64>(1, 7, ContextId::WORLD, data, Time::ZERO, Time(10));
            let (v, info) = black_box(m).take::<u64>().expect("payload type matches");
            black_box(info);
            mpisim::pool::recycle_vec(black_box(v));
        });
        out.push((name, ns));
    }
}

fn collectives(t: &mut Tracer, sz: &Sizes, seed: u64, out: &mut Out) {
    let (p, n_ops) = (sz.p_coll, sz.coll_ops);
    let cfg = config(Backend::Poll, seed);
    let idle = universe_s(t, "coll:empty", p, &cfg, empty);

    let name = "coll.barrier_ns_per_rank_op";
    let wall = universe_s(t, name, p, &cfg, move |env| async move {
        for _ in 0..n_ops {
            env.world.barrier_async().await.map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    out.push((name, per_rank_op_ns(name, wall, idle, p, n_ops)));

    let name = "coll.allreduce_ns_per_rank_op";
    let wall = universe_s(t, name, p, &cfg, move |env| async move {
        let w = &env.world;
        for i in 0..n_ops as u64 {
            let s = w
                .allreduce_async(&[w.rank() as u64 + i], ops::sum::<u64>())
                .await
                .map_err(|e| e.to_string())?;
            let want = (p * (p - 1) / 2) as u64 + i * p as u64;
            if black_box(s[0]) != want {
                return Err(format!("allreduce gave {}, expected {want}", s[0]));
            }
        }
        Ok(())
    });
    out.push((name, per_rank_op_ns(name, wall, idle, p, n_ops)));

    let name = "rbc.coll.barrier_ns_per_rank_op";
    let wall = universe_s(t, name, p, &cfg, move |env| async move {
        let c = RbcComm::create(&env.world);
        for _ in 0..n_ops {
            c.barrier_async().await.map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    out.push((name, per_rank_op_ns(name, wall, idle, p, n_ops)));
}

/// Drive one request to completion the way `rbc::Wait` does, by calling
/// `Request::test` and yielding an epoch per unproductive test.
async fn test_until_done(mut req: Request) -> Result<(), String> {
    while !req.test().map_err(|e| e.to_string())? {
        yield_now_async().await;
    }
    Ok(())
}

fn nonblocking(t: &mut Tracer, sz: &Sizes, seed: u64, out: &mut Out) {
    let (p, n_ops) = (sz.p_coll, sz.coll_ops);
    let cfg = config(Backend::Poll, seed);
    let idle = universe_s(t, "nbcoll:empty", p, &cfg, empty);
    let e = |e: mpisim::MpiError| e.to_string();

    let name = "nbcoll.ibcast_ns_per_rank_op";
    let wall = universe_s(t, name, p, &cfg, move |env| async move {
        let w = &env.world;
        for i in 0..n_ops {
            let root = i % p;
            let data = (w.rank() == root).then(|| vec![i as f64; 64]);
            let m = nbcoll::ibcast(w, black_box(data), root, 500).map_err(e)?;
            test_until_done(Request::new(m)).await?;
        }
        Ok(())
    });
    out.push((name, per_rank_op_ns(name, wall, idle, p, n_ops)));

    let name = "nbcoll.ireduce_ns_per_rank_op";
    let wall = universe_s(t, name, p, &cfg, move |env| async move {
        let w = &env.world;
        let mine = vec![w.rank() as f64; 64];
        for i in 0..n_ops {
            let m =
                nbcoll::ireduce(w, black_box(&mine), i % p, 502, ops::sum::<f64>()).map_err(e)?;
            test_until_done(Request::new(m)).await?;
        }
        Ok(())
    });
    out.push((name, per_rank_op_ns(name, wall, idle, p, n_ops)));

    let name = "nbcoll.iscan_ns_per_rank_op";
    let wall = universe_s(t, name, p, &cfg, move |env| async move {
        let w = &env.world;
        let mine = vec![w.rank() as f64; 64];
        for _ in 0..n_ops {
            let m = nbcoll::iscan(w, black_box(&mine), 504, ops::sum::<f64>()).map_err(e)?;
            test_until_done(Request::new(m)).await?;
        }
        Ok(())
    });
    out.push((name, per_rank_op_ns(name, wall, idle, p, n_ops)));

    let name = "rbc.nbc.iscan_ns_per_rank_op";
    let wall = universe_s(t, name, p, &cfg, move |env| async move {
        let c = RbcComm::create(&env.world);
        let mine = vec![c.rank() as f64; 64];
        for _ in 0..n_ops {
            let m = c
                .iscan(black_box(&mine), ops::sum::<f64>(), None)
                .map_err(e)?;
            test_until_done(Request::new(m)).await?;
        }
        Ok(())
    });
    out.push((name, per_rank_op_ns(name, wall, idle, p, n_ops)));
}

fn communicators(t: &mut Tracer, sz: &Sizes, seed: u64, smoke: bool, out: &mut Out) {
    // Each phase of `comm_create` as its own universe, at that workload's p.
    let p = workloads::all(smoke)
        .into_iter()
        .find(|w| w.kind == Kind::CommCreate)
        .expect("the comm_create workload exists")
        .p;
    let cfg = config(Backend::Poll, seed);
    let wall = universe_s(t, "rbc.comm.split_chain_s", p, &cfg, |env| async move {
        black_box(workloads::rbc_split_chain(&env).await?);
        Ok(())
    });
    out.push(("rbc.comm.split_chain_s", wall));
    let wall = universe_s(t, "comm.create_group_s", p, &cfg, |env| async move {
        black_box(workloads::create_group_halves(&env).await?);
        Ok(())
    });
    out.push(("comm.create_group_s", wall));
    let wall = universe_s(t, "comm.native_split_s", p, &cfg, |env| async move {
        black_box(workloads::native_split_halves(&env).await?);
        Ok(())
    });
    out.push(("comm.native_split_s", wall));

    // One RBC split on the host: needs a live communicator, so it is
    // timed by rank 0 of a two-rank universe.
    let iters = 200_000 * sz.iters;
    let ns = t.span("rbc.comm.split_ns", |t| {
        let (rep, outs) = timed(2, config(Backend::Poll, seed), move |env| async move {
            let c = RbcComm::create(&env.world);
            let me = c.rank();
            grown_ns_per_iter(iters, || {
                let sub = black_box(&c).split(black_box(me), black_box(me));
                black_box(sub.expect("a rank may split off the range holding itself"));
            })
            .ok_or_else(|| "total time does not grow with the iteration count".to_string())
        });
        t.count("iters", iters as f64);
        match (rep.check, outs) {
            (Ok(()), Some(ns)) => ns[0],
            (Err(e), _) => panic!("rbc.comm.split_ns: {e}"),
            (Ok(()), None) => unreachable!("a passing repetition carries its outputs"),
        }
    });
    out.push(("rbc.comm.split_ns", ns));

    let range = Group::range(0, 1, 1 << 20);
    let ns = per_iter_ns(t, "group.subrange_ns", 500_000 * sz.iters, || {
        black_box(black_box(&range).subrange(black_box(17), black_box(1 << 19), 1));
    });
    out.push(("group.subrange_ns", ns));

    // The local part of context agreement: AND two masks, take the lowest
    // free id.
    let mut used = CtxPool::new();
    for id in 1..600 {
        used.mark_used(id);
    }
    let (a, b) = (used.snapshot(), CtxPool::new().snapshot());
    let ns = per_iter_ns(t, "context.mask_agree_ns", 200_000 * sz.iters, || {
        let r = mask_and(black_box(&a), black_box(&b));
        black_box(CtxPool::lowest_free(&r).expect("ids above 600 are free"));
    });
    out.push(("context.mask_agree_ns", ns));
}

fn jquick_local(t: &mut Tracer, sz: &Sizes, out: &mut Out) {
    const KEYS: usize = 1 << 16;
    let data: Vec<f64> = (0..KEYS as u64)
        .map(|i| ((i * 2_654_435_761) % 100_000) as f64)
        .collect();
    // `partition` consumes its input, so each call pays one 512 KiB copy
    // on top (as in `crates/bench/benches/micro.rs`).
    let ns = per_iter_ns(t, "jquick.partition_ns_per_elem", 50 * sz.iters, || {
        black_box(partition(
            black_box(data.clone()),
            black_box(&50_000.0),
            Strictness::Lt,
        ));
    });
    out.push(("jquick.partition_ns_per_elem", ns / KEYS as f64));

    let sample: Vec<f64> = data[..256].to_vec();
    let ns = per_iter_ns(
        t,
        "jquick.pivot.sample_median_256_ns",
        20_000 * sz.iters,
        || {
            black_box(sample_median(black_box(sample.clone())));
        },
    );
    out.push(("jquick.pivot.sample_median_256_ns", ns));

    let layout = Layout::new(1 << 20, 1 << 10);
    let task = TaskRange {
        lo: 12_345,
        hi: 900_000,
    };
    let ns = per_iter_ns(t, "jquick.assign.greedy_ns", 200_000 * sz.iters, || {
        black_box(greedy_assignment(
            black_box(&layout),
            black_box(&task),
            300_000,
            500,
            400,
            600_000,
            444_444,
        ));
    });
    out.push(("jquick.assign.greedy_ns", ns));

    // What a bisection round ships: 64 Ki values in four contiguous runs.
    let tagged: Vec<(u64, u64)> = (0..4u64)
        .flat_map(|chunk| {
            let base = chunk * 1_000_000;
            (base..base + (KEYS as u64 / 4)).map(move |pos| (pos * 7, pos))
        })
        .collect();
    let ns = per_iter_ns(
        t,
        "jquick.exchange.encode_ns_per_elem",
        50 * sz.iters,
        || {
            let (runs, vals) = encode_runs(black_box(tagged.clone()));
            mpisim::pool::recycle_vec(black_box(runs));
            mpisim::pool::recycle_vec(black_box(vals));
        },
    );
    out.push(("jquick.exchange.encode_ns_per_elem", ns / KEYS as f64));
    let (runs, vals) = encode_runs(tagged.clone());
    assert_eq!(runs.len(), 4);
    let ns = per_iter_ns(
        t,
        "jquick.exchange.decode_ns_per_elem",
        50 * sz.iters,
        || {
            black_box(decode_runs(black_box(&runs), black_box(vals.clone())));
        },
    );
    out.push(("jquick.exchange.decode_ns_per_elem", ns / KEYS as f64));

    let layout = Layout::new((1 << 30) + 7, 12_347);
    let ns = per_iter_ns(t, "jquick.layout.owner_ns", 2_000_000 * sz.iters, || {
        black_box(layout.owner(black_box(987_654_321)));
    });
    out.push(("jquick.layout.owner_ns", ns));
}
