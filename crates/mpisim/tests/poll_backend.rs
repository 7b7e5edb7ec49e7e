//! The two kinds of rank body: `Universe::run_poll` steps every rank as a
//! stackless future, `Universe::run` as a synchronous closure on its own
//! parked OS thread, through one epoch scheduler. A run's **entire
//! observable output** (per-rank results, wildcard delivery order,
//! virtual clocks, traffic, deterministic metrics and the event trace)
//! must be byte-identical between the two for every `(program, seed, p)`
//! both can run. That identity is what lets the figures and the large-p
//! tests run as future bodies while the small synchronous tests keep
//! validating the same library code (DESIGN.md §12).

use mpisim::{
    block_inline, coll, nbcoll, ops, MetricsSnapshot, ProcEnv, SimConfig, SimResult, Src,
    Transport, Universe,
};
use proptest::prelude::*;

/// How the shared async rank program is run on the scheduler.
#[derive(Clone, Copy, Debug)]
enum Body {
    /// `Universe::run` over `block_inline`: every await resolves in place
    /// on the rank's own thread.
    Thread,
    /// `Universe::run_poll`: every await that has to wait suspends.
    Future,
}

fn run_as<R, F, Fut>(body: Body, p: usize, cfg: SimConfig, f: F) -> SimResult<R>
where
    R: Send,
    F: Fn(ProcEnv) -> Fut + Send + Sync,
    Fut: std::future::Future<Output = R> + Send,
{
    match body {
        Body::Future => Universe::run_poll(p, cfg, f),
        Body::Thread => Universe::run(p, cfg, move |env| block_inline(f(env))),
    }
}

/// The epoch scheduler with `workers` workers.
fn sched(workers: usize) -> SimConfig {
    SimConfig::default().with_workers(workers)
}

/// What one rank observed: wildcard delivery log of the storm phase plus
/// the value-level results of the collective / communicator phases.
type RankLog = (Vec<(usize, u64)>, Vec<u64>);

/// The shared maybe-async rank program: an all-to-all storm drained
/// through wildcard receives (delivery *order* is schedule-sensitive, so
/// it detects any divergence in epoch structure), then the
/// round-structured workloads the tentpole names — collectives, a
/// nonblocking waitall, `Comm::split`'s distributed sort, and
/// `create_group`.
async fn rank_program(env: mpisim::ProcEnv, per: usize) -> RankLog {
    let w = env.world.clone();
    let p = w.size();
    let r = w.rank();

    // Storm: every rank sends `per` tagged messages to every other rank.
    for i in 0..per {
        for dst in 0..p {
            if dst != r {
                w.send(&[(r * 1000 + i) as u64], dst, 7).unwrap();
            }
        }
    }
    let mut deliveries = Vec::new();
    for _ in 0..(p - 1) * per {
        let (v, st) = mpisim::recv_async::<u64, _>(&w, Src::Any, 7).await.unwrap();
        deliveries.push((st.source, v[0]));
    }

    // Collectives (vendor-scaled, through the Comm async twins).
    let mut vals = Vec::new();
    vals.push(
        w.allreduce_async(&[r as u64 + 1], ops::sum::<u64>())
            .await
            .unwrap()[0],
    );
    vals.push(w.scan_async(&[1u64], ops::sum::<u64>()).await.unwrap()[0]);
    let mut b = if r == 0 { vec![41u64, 42] } else { Vec::new() };
    w.bcast_async(&mut b, 0).await.unwrap();
    vals.extend_from_slice(&b);

    // Raw coll cores over the unscaled transport.
    vals.push(
        coll::exscan_async(&w, &[r as u64], 300, ops::sum::<u64>())
            .await
            .unwrap()
            .map_or(u64::MAX, |v| v[0]),
    );
    coll::barrier_async(&w, 310).await.unwrap();

    // Nonblocking machines polled through the maybe-async yield.
    let mut reqs = vec![nbcoll::Request::new(
        nbcoll::iallreduce(&w, &[r as u64], 320, ops::max::<u64>()).unwrap(),
    )];
    nbcoll::waitall_async(&mut reqs).await.unwrap();

    // Distributed-sort split and create_group (context agreement).
    let sub = w.split_async((r % 3) as u64, r as u64).await.unwrap();
    vals.push(
        sub.allreduce_async(&[1u64], ops::sum::<u64>())
            .await
            .unwrap()[0],
    );
    let half = mpisim::Group::range(0, 1, p.div_ceil(2));
    if r < p.div_ceil(2) {
        let g = w.create_group_async(&half, 77).await.unwrap();
        vals.push(
            g.allreduce_async(&[r as u64], ops::sum::<u64>())
                .await
                .unwrap()[0],
        );
    } else {
        vals.push(0);
    }
    (deliveries, vals)
}

/// Full observable output of one run as `body`.
fn observe(
    p: usize,
    per: usize,
    seed: u64,
    workers: usize,
    body: Body,
) -> (
    Vec<RankLog>,
    Vec<mpisim::Time>,
    mpisim::MetricsSnapshot,
    String,
) {
    let cfg = sched(workers).with_seed(seed).with_trace(true);
    let res = run_as(body, p, cfg, move |env| rank_program(env, per));
    let trace = res.trace.as_ref().map(|t| t.to_text()).unwrap_or_default();
    (res.per_rank, res.clocks, res.metrics, trace)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    // The identity: a future body's output is byte-identical to a thread
    // body's for any (p, seed, worker count): same delivery order, same
    // clocks, same traffic and metrics counters, same trace text.
    #[test]
    fn future_body_matches_thread_body_exactly(
        p in 2usize..12,
        per in 1usize..4,
        seed in any::<u64>(),
        workers in 1usize..=4,
    ) {
        let thread = observe(p, per, seed, workers, Body::Thread);
        let future = observe(p, per, seed, workers, Body::Future);
        prop_assert_eq!(thread, future);
    }
}

// The ladder: the two bodies agree at 2^10, where a thread per rank is
// still cheap, and above that future bodies agree with themselves across
// worker counts, to 2^12 in debug builds and the paper's 2^15 in release.
#[test]
fn bodies_match_at_2_10_and_worker_counts_up_the_pow2_ladder() {
    let run = |body: Body, exp: u32, workers: usize| {
        let program = |env: ProcEnv| async move {
            let w = env.world.clone();
            let r = w.rank() as u64;
            let s = w
                .allreduce_async(&[r + 1], ops::sum::<u64>())
                .await
                .unwrap()[0];
            let sub = w.split_async(w.rank() as u64 % 2, r).await.unwrap();
            let g = sub
                .allreduce_async(&[1u64], ops::sum::<u64>())
                .await
                .unwrap()[0];
            (s, g)
        };
        let res = run_as(body, 1 << exp, sched(workers).with_seed(42), program);
        (res.per_rank, res.clocks, res.metrics)
    };
    assert_eq!(run(Body::Thread, 10, 4), run(Body::Future, 10, 4));
    let top = if cfg!(debug_assertions) { 12 } else { 15 };
    for exp in 10..=top {
        assert_eq!(
            run(Body::Future, exp, 1),
            run(Body::Future, exp, 4),
            "p = 2^{exp}"
        );
    }
}

// A synchronous program gets thread bodies and the same bytes at any
// worker count.
#[test]
fn sync_run_under_poll_equals_sync_run_under_cooperative() {
    let on = |workers: usize| {
        let cfg = sched(workers).with_seed(5).with_trace(true);
        let res = Universe::run(12, cfg, |env| block_inline(rank_program(env, 2)));
        let trace = res.trace.expect("tracing was requested").to_text();
        (res.per_rank, res.clocks, res.metrics, trace)
    };
    let one = on(1);
    assert!(one.2.switches > 0 && !one.3.is_empty());
    assert_eq!(one, on(4), "4 workers");
}

fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

// A synchronous call that has to wait inside a future body cannot suspend
// the body: it must panic, naming the API to use instead, whichever
// primitive it bottoms out in (a receive, a collective's receive, a yield).
#[test]
fn sync_waits_inside_poll_bodies_panic_naming_the_async_api() {
    type SyncOp = fn(&mpisim::Comm);
    let ops: [(&str, SyncOp); 3] = [
        ("recv", |w| {
            let peer = (w.rank() + 1) % w.size();
            w.recv::<u64>(Src::Rank(peer), 9).map(drop).unwrap()
        }),
        ("barrier", |w| coll::barrier(w, 11).unwrap()),
        ("yield_now", |_| mpisim::yield_now()),
    ];
    for (name, op) in ops {
        let err = std::panic::catch_unwind(|| {
            Universe::run_poll(2, sched(1), move |env| async move { op(&env.world) })
        })
        .expect_err(name);
        let msg = panic_message(err);
        assert!(
            msg.contains("_async API"),
            "sync {name} in a future body should point at the *_async API: {msg}"
        );
    }
}

// The receive of a synchronous call arms the rank's wait slot before the
// call panics out of it, so the slot stays armed on a finished task. The
// peers' messages then satisfy it at the commit: that rank must not be
// put into a round again. Its panic is re-thrown, the peers finish.
#[test]
fn a_wait_left_armed_by_a_panicking_leaf_wakes_nobody() {
    // Epoch 1 stages 3 × 43 messages into rank 0's mailbox and one around
    // the ring of the other three: 132 messages, in as many outboxes as
    // workers stepped a sender (how many did is up to the host).
    const TO_ZERO: u64 = 43;
    let body = |sync_wait: bool| {
        move |env: mpisim::ProcEnv| async move {
            let w = env.world;
            if w.rank() == 0 {
                if sync_wait {
                    w.recv::<u64>(Src::Rank(1), 9).map(drop).unwrap();
                } else {
                    mpisim::recv_async::<u64, _>(&w, Src::Rank(1), 9)
                        .await
                        .unwrap();
                }
                return;
            }
            // Into the panicked rank's mailbox, then once around the ring
            // of the other three so the run outlives the commit.
            for i in 0..TO_ZERO {
                w.send(&[i], 0, 9).unwrap();
            }
            w.send(&[0u64], w.rank() % 3 + 1, 10).unwrap();
            let prev = (w.rank() + 1) % 3 + 1;
            mpisim::recv_async::<u64, _>(&w, Src::Rank(prev), 10)
                .await
                .unwrap();
        }
    };
    for workers in [1, 4] {
        // The same epoch 1 with rank 0 waiting the async way: the run
        // completes.
        let res = Universe::run_poll(4, sched(workers), body(false));
        assert_eq!(res.per_rank.len(), 4);
        let err = std::panic::catch_unwind(|| Universe::run_poll(4, sched(workers), body(true)))
            .expect_err("rank 0's panic is re-thrown");
        let msg = panic_message(err);
        assert!(msg.contains("_async API"), "{workers} workers: {msg}");
    }
}

// Both kinds of body park through one protocol and are poisoned by one
// detector, so a deadlocked wait must report the same `MpiError::Timeout`
// (rank, what it waited for, virtual time, blame) from either. The blame
// is built where the wait stalls, and names the ranks its pattern waits
// on: the exact peer of a receive, every other rank for `Src::Any`.
#[test]
fn deadlock_errors_match_across_bodies() {
    /// The error's text and the ranks its blame names.
    fn blamed(err: mpisim::MpiError) -> (String, Vec<usize>) {
        let ranks = match &err {
            mpisim::MpiError::Timeout { blame, .. } => blame.ranks(),
            _ => Vec::new(),
        };
        (format!("{err:?}"), ranks)
    }
    async fn recv_cycle(env: mpisim::ProcEnv) -> (String, Vec<usize>) {
        let w = env.world;
        let peer = (w.rank() + 1) % w.size();
        let err = mpisim::recv_async::<u64, _>(&w, Src::Rank(peer), 3).await;
        blamed(err.unwrap_err())
    }
    async fn lonely_probe(env: mpisim::ProcEnv) -> (String, Vec<usize>) {
        // Real traffic first, so the clocks in the error are not all zero.
        let w = env.world;
        w.barrier_async().await.unwrap();
        let err = mpisim::probe_async(&w, Src::Any, 99).await;
        blamed(err.unwrap_err())
    }
    const P: usize = 3;
    for workers in [1, 4] {
        for (what, verb) in [(0, "recv("), (1, "probe(")] {
            let on = |body| match what {
                0 => run_as(body, P, sched(workers), recv_cycle).per_rank,
                _ => run_as(body, P, sched(workers), lonely_probe).per_rank,
            };
            let thread = on(Body::Thread);
            assert_eq!(thread, on(Body::Future), "{verb}..) at {workers} workers");
            for (rank, (e, blamed)) in thread.iter().enumerate() {
                assert!(
                    e.starts_with(&format!("Timeout {{ rank: {rank}, waited_for: \"{verb}"))
                        && e.contains("cooperative deadlock"),
                    "rank {rank}: {e}"
                );
                let waits_on: Vec<usize> = match what {
                    0 => vec![(rank + 1) % P],
                    _ => (0..P).filter(|&r| r != rank).collect(),
                };
                assert_eq!(blamed, &waits_on, "rank {rank}'s blame: {e}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wake on deposit: the libraries' polling loops park between sweeps
// ---------------------------------------------------------------------------

/// JQuick over RBC communicators at p = 256, n/p = 8 (the latency regime:
/// every level is a handful of one-word messages per rank): per-rank
/// output, makespan and the deterministic counters.
fn jquick_p256(body: Body, workers: usize) -> (Vec<Vec<u64>>, mpisim::Time, MetricsSnapshot) {
    const P: usize = 256;
    const PER: u64 = 8;
    let program = |env: mpisim::ProcEnv| async move {
        let w = env.world;
        let r = w.rank() as u64;
        let data: Vec<u64> = (0..PER)
            .map(|i| (r * PER + i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20)
            .collect();
        let cfg = jquick::JQuickConfig::default();
        jquick::jquick_sort_async(&jquick::RbcBackend, &w, data, P as u64 * PER, &cfg)
            .await
            .unwrap()
            .0
    };
    let res = run_as(body, P, sched(workers).with_seed(17), program);
    let max_time = res.max_time();
    (res.per_rank, max_time, res.metrics)
}

// A rank whose sweep of `try_recv`s missed is stepped again only after a
// deposit into its mailbox. While the loops yielded instead, every live
// rank was stepped in every epoch: 1.45 task steps per message at this
// size, 0.56 now. What is simulated must not notice.
#[test]
fn jquick_steps_fewer_tasks_than_it_sends_messages() {
    let poll = jquick_p256(Body::Future, 1);
    let out: Vec<u64> = poll.0.iter().flatten().copied().collect();
    assert_eq!(out.len(), 256 * 8);
    assert!(out.windows(2).all(|w| w[0] <= w[1]), "globally sorted");
    assert!(poll.0.iter().all(|o| o.len() == 8), "perfectly balanced");
    let m = &poll.2;
    assert!(
        m.switches < m.messages,
        "busy polling is back: {} task steps for {} messages",
        m.switches,
        m.messages
    );
    assert!(m.wakeups > 0, "parked ranks are woken by deposits");
    for (body, workers) in [(Body::Future, 4), (Body::Thread, 1), (Body::Thread, 4)] {
        assert_eq!(
            jquick_p256(body, workers),
            poll,
            "{body:?} at {workers} workers"
        );
    }
}

/// A `Progress` that names no rank: it completes on its `n`-th poll,
/// whatever is or is not delivered in between.
struct NthPoll {
    polls: u32,
    n: u32,
}

impl nbcoll::Progress for NthPoll {
    fn poll(&mut self) -> mpisim::Result<bool> {
        self.polls += 1;
        Ok(self.polls >= self.n)
    }

    fn proc_state(&self) -> Option<&std::sync::Arc<mpisim::proc::ProcState>> {
        None
    }
}

// A wait parks on the rank of an unfinished request, so a request whose
// `proc_state()` is `None` cannot be waited on: `wait` and `waitall` fail
// with `Usage` at its first unproductive poll. One that is complete on its
// first poll needs no park and succeeds.
#[test]
fn a_request_that_names_no_rank_cannot_be_waited_on() {
    for workers in [1, 4] {
        for body in [Body::Future, Body::Thread] {
            let program = |env: mpisim::ProcEnv| async move {
                let w = env.world;
                let mut done = NthPoll { polls: 0, n: 1 };
                nbcoll::wait_async(&mut done).await.unwrap();
                let mut alone = NthPoll { polls: 0, n: 3 };
                let one = nbcoll::wait_async(&mut alone).await.unwrap_err();
                let peer = (w.rank() + 1) % w.size();
                w.send(&[w.rank() as u64], peer, 4).unwrap();
                let mut reqs = vec![
                    nbcoll::Request::new(w.irecv::<u64>(Src::Any, 4)),
                    nbcoll::Request::new(NthPoll { polls: 0, n: 5 }),
                ];
                let all = nbcoll::waitall_async(&mut reqs).await.unwrap_err();
                (alone.polls, format!("{one:?}"), format!("{all:?}"))
            };
            let res = run_as(body, 4, sched(workers), program);
            for (polls, one, all) in &res.per_rank {
                assert_eq!(*polls, 1, "{body:?} at {workers} workers");
                for e in [one, all] {
                    assert!(
                        e.starts_with("Usage(") && e.contains("names no rank"),
                        "{body:?} at {workers} workers: {e}"
                    );
                }
            }
        }
    }
}

// A polling wait nobody will ever satisfy parks, the round empties, and
// the structural deadlock detector poisons it at once: the error is the
// poisoned receive's, identical for every worker count and both kinds of
// body.
#[test]
fn an_unanswered_polling_wait_ends_in_the_deadlock_detector() {
    const P: usize = 8;
    async fn lonely_wait(env: mpisim::ProcEnv) -> Option<String> {
        let w = env.world;
        let peer = (w.rank() + 1) % w.size();
        let mut req = w.irecv::<u64>(Src::Rank(peer), 5);
        let err = nbcoll::wait_async(&mut req).await;
        Some(format!("{:?}", err.unwrap_err()))
    }
    async fn lonely_waitall(env: mpisim::ProcEnv) -> Option<String> {
        // Real traffic first, so the clocks in the error are not all zero;
        // then a broadcast whose root never starts it, next to a receive
        // that does complete.
        let w = env.world;
        w.barrier_async().await.unwrap();
        let peer = (w.rank() + 1) % w.size();
        w.send(&[1u64], peer, 6).unwrap();
        if w.rank() == 0 {
            return None;
        }
        let mut reqs = vec![
            nbcoll::Request::new(w.irecv::<u64>(Src::Any, 6)),
            nbcoll::Request::new(nbcoll::ibcast::<u64, _>(&w, None, 0, 330).unwrap()),
        ];
        let err = nbcoll::waitall_async(&mut reqs).await;
        Some(format!("{:?}", err.unwrap_err()))
    }
    async fn lonely_jquick(env: mpisim::ProcEnv) -> Option<String> {
        // The last rank never joins the sort.
        let w = env.world;
        if w.rank() == P - 1 {
            return None;
        }
        let data: Vec<u64> = (0..8).map(|i| (w.rank() * 8 + i) as u64).collect();
        let cfg = jquick::JQuickConfig::default();
        let err =
            jquick::jquick_sort_async(&jquick::RbcBackend, &w, data, 8 * P as u64, &cfg).await;
        Some(format!("{:?}", err.unwrap_err()))
    }
    fn run<Fut>(
        body: Body,
        workers: usize,
        program: fn(mpisim::ProcEnv) -> Fut,
    ) -> Vec<Option<String>>
    where
        Fut: std::future::Future<Output = Option<String>> + Send,
    {
        run_as(body, P, sched(workers), program).per_rank
    }
    for what in ["wait", "waitall", "jquick"] {
        let on = |body, workers| match what {
            "wait" => run(body, workers, lonely_wait),
            "waitall" => run(body, workers, lonely_waitall),
            _ => run(body, workers, lonely_jquick),
        };
        let poll = on(Body::Future, 1);
        assert_eq!(poll, on(Body::Future, 4), "{what} at 4 workers");
        assert_eq!(poll, on(Body::Thread, 1), "{what} on thread bodies");
        assert_eq!(
            poll,
            on(Body::Thread, 4),
            "{what} on thread bodies, 4 workers"
        );
        assert!(poll.iter().flatten().count() >= P - 1, "{what}: {poll:?}");
        for (rank, e) in poll.iter().enumerate() {
            let Some(e) = e else { continue };
            assert!(
                e.starts_with(&format!("Timeout {{ rank: {rank}, waited_for: \"try_recv("))
                    && e.contains("cooperative stall: no further progress possible"),
                "{what}, rank {rank}: {e}"
            );
        }
    }
}
