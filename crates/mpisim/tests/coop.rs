//! Scheduler semantics: the epoch scheduler must preserve every MPI
//! behaviour, detect deadlocks exactly, fail loudly on a poll loop that
//! never waits, and deliver messages in an order that is a pure function
//! of `(program, seed)` — **for every worker count**: each epoch commit
//! fills every mailbox with the same set of messages, each sender's in
//! send order, so `coop_workers ∈ {1, 2, 4, 8}` must produce bit-identical
//! delivery logs, clocks, and sort outputs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use mpisim::nbcoll;
use mpisim::{coll, ops, FaultPlan, MpiError, SimConfig, Src, Time, Transport, Universe};
use proptest::prelude::*;

#[test]
fn coop_message_storm_all_to_one() {
    // Every rank floods rank 0 with small messages; wildcard receives must
    // drain them all. Under the cooperative backend each arriving message
    // wakes rank 0 exactly when a match exists.
    let p = 64;
    let per = 32;
    let res = Universe::run(p, SimConfig::cooperative(), move |env| {
        let w = &env.world;
        if w.rank() == 0 {
            let mut total = 0u64;
            for _ in 0..(p - 1) * per {
                let (v, _) = w.recv::<u64>(Src::Any, 9).unwrap();
                total += v[0];
            }
            total
        } else {
            for i in 0..per {
                w.send(&[i as u64], 0, 9).unwrap();
            }
            0
        }
    });
    let expected: u64 = (0..per as u64).sum::<u64>() * (p as u64 - 1);
    assert_eq!(res.per_rank[0], expected);
}

#[test]
fn coop_nonblocking_collectives_progress() {
    // A wait on nonblocking machines parks the rank between sweeps
    // (`ProcState::park_until_deposit`), which under the scheduler must
    // hand the worker to other ranks instead of spinning.
    let res = Universe::run(12, SimConfig::cooperative(), |env| {
        let w = &env.world;
        let mut reqs: Vec<nbcoll::Request> = (0..4u64)
            .map(|k| {
                nbcoll::Request::new(
                    nbcoll::iallreduce(w, &[k + 1], 200 + 2 * k, ops::sum::<u64>()).unwrap(),
                )
            })
            .collect();
        nbcoll::waitall(&mut reqs).unwrap();
        true
    });
    assert!(res.per_rank.iter().all(|&ok| ok));
}

#[test]
fn coop_split_and_vendor_collectives() {
    // Native MPI_Comm_split (allgather + mask agreement) under the
    // scheduler: context agreement blocks and wakes across sub-groups.
    let res = Universe::run(9, SimConfig::cooperative(), |env| {
        let w = &env.world;
        let c = w.split((w.rank() % 3) as u64, w.rank() as u64).unwrap();
        c.allreduce(&[1u64], ops::sum::<u64>()).unwrap()[0]
    });
    assert_eq!(res.per_rank, vec![3, 3, 3, 3, 3, 3, 3, 3, 3]);
}

#[test]
fn coop_deadlock_is_poisoned_not_hung() {
    // Two ranks each receive from the other before sending: a textbook
    // deadlock. The cooperative detector must fire immediately (no
    // wall-clock wait) and surface MpiError::Timeout on every rank.
    let t0 = std::time::Instant::now();
    let res = Universe::run(2, SimConfig::cooperative(), |env| {
        let w = &env.world;
        let other = 1 - w.rank();
        w.recv::<u64>(Src::Rank(other), 1).err().map(|e| match e {
            MpiError::Timeout { rank, .. } => rank,
            other => panic!("expected Timeout, got {other:?}"),
        })
    });
    assert_eq!(res.per_rank, vec![Some(0), Some(1)]);
    // Exact detection, in the epoch the round empties.
    assert!(t0.elapsed() < std::time::Duration::from_secs(5));
}

#[test]
fn coop_clock_skew_barrier_still_correct() {
    let res = Universe::run(9, SimConfig::cooperative(), |env| {
        let w = &env.world;
        env.state()
            .charge(Time::from_millis(w.rank() as u64 * w.rank() as u64));
        let s = coll::scan(w, &[w.rank() as u64], 7, ops::sum::<u64>()).unwrap()[0];
        coll::barrier(w, 9).unwrap();
        (s, env.now())
    });
    for (r, (s, t)) in res.per_rank.iter().enumerate() {
        let expect: u64 = (0..=r as u64).sum();
        assert_eq!(*s, expect);
        assert!(*t >= Time::from_millis(64), "rank {r} left barrier early");
    }
}

#[test]
fn coop_yield_fairness_under_polling() {
    // A rank that busy-polls (try_recv + yield) must not starve the rank
    // it is waiting on when both share the single worker.
    let res = Universe::run(2, SimConfig::cooperative(), |env| {
        let w = &env.world;
        if w.rank() == 0 {
            let mut polls = 0u64;
            loop {
                if let Some((v, _)) = w.try_recv::<u64>(Src::Rank(1), 5).unwrap() {
                    return (v[0], polls);
                }
                polls += 1;
                mpisim::yield_now();
            }
        } else {
            // Let rank 0 poll a few times before satisfying it.
            for _ in 0..3 {
                mpisim::yield_now();
            }
            w.send(&[42u64], 0, 5).unwrap();
            (0, 0)
        }
    });
    assert_eq!(res.per_rank[0].0, 42);
}

#[test]
fn coop_yield_loop_starved_by_a_crash_ends_in_the_stagnation_detector() {
    // A hand-written poll loop yields, so the round never empties and the
    // deadlock detector cannot see that its peer crashed: the stagnation
    // detector must (64 epochs without a message, a wake or a finish),
    // identically for every worker count. The libraries' own loops park
    // and never get this far (tests/poll_backend.rs).
    let run = |workers: usize| {
        let cfg = SimConfig::cooperative()
            .with_workers(workers)
            .with_faults(mpisim::FaultPlan::default().with_crash(1, Time::ZERO));
        let res = Universe::run(3, cfg, |env| {
            let w = &env.world;
            if w.rank() == 1 {
                // Crashed at time zero: the send is dropped.
                w.send(&[42u64], 0, 5).unwrap();
                return None;
            }
            loop {
                match w.try_recv::<u64>(Src::Rank(1), 5) {
                    Ok(Some(_)) => panic!("a crashed rank's message was delivered"),
                    Ok(None) => mpisim::yield_now(),
                    Err(e) => return Some(format!("{e:?}")),
                }
            }
        });
        (res.per_rank, res.metrics.epochs)
    };
    let (errs, epochs) = run(1);
    for rank in [0, 2] {
        let e = errs[rank].as_ref().expect("the poll loop must fail");
        assert!(
            e.contains("cooperative stall") && e.contains("Crashed"),
            "rank {rank}: {e}"
        );
    }
    assert!(epochs >= 64, "poisoned after {epochs} epochs");
    assert_eq!(run(4), (errs, epochs));
}

/// Per-rank storm observation: the sequence of `(source, value)` pairs
/// the rank's wildcard receives matched, plus its final virtual clock.
type DeliveryLog = (Vec<(usize, u64)>, Time);

/// Observed delivery log of one run, one entry per rank.
fn storm_delivery_log(p: usize, per: usize, seed: u64, workers: usize) -> Vec<DeliveryLog> {
    type LogStore = Arc<Mutex<Vec<Vec<(usize, u64)>>>>;
    let logs: LogStore = Arc::new(Mutex::new(vec![Vec::new(); p]));
    let logs2 = Arc::clone(&logs);
    let cfg = SimConfig::cooperative()
        .with_seed(seed)
        .with_workers(workers);
    let res = Universe::run(p, cfg, move |env| {
        let w = &env.world;
        // All-to-all storm: every rank sends `per` tagged messages to
        // every other rank, then wildcard-receives its share.
        for i in 0..per {
            for dst in 0..w.size() {
                if dst != w.rank() {
                    w.send(&[(w.rank() * 1000 + i) as u64], dst, 7).unwrap();
                }
            }
        }
        let mut got = Vec::new();
        for _ in 0..(w.size() - 1) * per {
            let (v, st) = w.recv::<u64>(Src::Any, 7).unwrap();
            got.push((st.source, v[0]));
        }
        logs2.lock().unwrap()[w.rank()] = got;
        env.now()
    });
    let logs = Arc::try_unwrap(logs).unwrap().into_inner().unwrap();
    logs.into_iter().zip(res.clocks).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    // The schedule is a pure function of the seed: two runs with the same
    // seed deliver every message to every rank in the identical order (and
    // reach identical virtual clocks).
    #[test]
    fn same_seed_same_delivery_order(
        p in 2usize..10,
        per in 1usize..5,
        seed in any::<u64>(),
    ) {
        let a = storm_delivery_log(p, per, seed, 1);
        let b = storm_delivery_log(p, per, seed, 1);
        prop_assert_eq!(a, b);
    }

    // The epoch discipline makes the worker count irrelevant to the
    // simulation: wildcard delivery order, per-rank clocks — everything —
    // must be bit-identical across coop_workers ∈ {1, 2, 4, 8}.
    #[test]
    fn any_worker_count_same_delivery_order(
        p in 2usize..10,
        per in 1usize..4,
        seed in any::<u64>(),
    ) {
        let serial = storm_delivery_log(p, per, seed, 1);
        for workers in [2usize, 4, 8] {
            let parallel = storm_delivery_log(p, per, seed, workers);
            prop_assert_eq!(&serial, &parallel, "workers = {}", workers);
        }
    }
}

#[test]
fn coop_many_sequential_universes() {
    // Scheduler state must not leak between runs (fresh slots, rank
    // threads joined, the thread-local step mark cleared).
    let launches = Arc::new(AtomicUsize::new(0));
    for round in 0..10u64 {
        let launches = Arc::clone(&launches);
        let res = Universe::run(8, SimConfig::cooperative().with_seed(round), move |env| {
            launches.fetch_add(1, Ordering::Relaxed);
            let w = &env.world;
            coll::allreduce(w, &[round], 5, ops::sum::<u64>()).unwrap()[0]
        });
        assert!(res.per_rank.iter().all(|&v| v == 8 * round));
    }
    assert_eq!(launches.load(Ordering::Relaxed), 80);
}

/// One universe of [`concurrent_solo_universes_match_their_solo_runs`].
enum Prog {
    /// Fan-out sends, wildcard receives on colliding tags and a
    /// concurrent nonblocking all-reduce (the fault-scenario storm).
    Storm,
    /// A reduce, a scan and a barrier per iteration.
    Colls,
    /// Rank 2 panics.
    Panic,
}

/// Everything a traced run produced: per-rank output (delivery log and
/// outcome, `RoundBlame` text included), clocks, the exact metrics and the
/// event trace as text.
type Observation = (Vec<String>, Vec<Time>, mpisim::MetricsSnapshot, String);

fn observe(p: usize, cfg: &SimConfig, prog: &Prog) -> Observation {
    let cfg = cfg.clone().with_workers(1).with_trace(true);
    let res = Universe::run(p, cfg, |env| {
        let w = &env.world;
        let r = w.rank();
        let body = || -> mpisim::Result<String> {
            let mut out = String::new();
            match prog {
                Prog::Storm => {
                    for (k, off) in [1usize, 4, 9, 16].into_iter().enumerate() {
                        w.send(&[(r * 10 + k) as u64], (r + off) % p, k as u64 % 3)?;
                    }
                    let coll = nbcoll::iallreduce(w, &[r as u64 + 1], 300, ops::sum::<u64>())?;
                    for (t, n) in [(0u64, 2), (1, 1), (2, 1)] {
                        for _ in 0..n {
                            let (v, st) = w.recv::<u64>(Src::Any, t)?;
                            out.push_str(&format!("{}:{} ", st.source, v[0]));
                        }
                    }
                    out.push_str(&format!("ok:{}", coll.wait_result()?[0]));
                }
                Prog::Colls => {
                    for i in 0..4u64 {
                        let red = coll::reduce(w, &[r as u64 + i], 0, 200, ops::sum::<u64>())?;
                        let scan = coll::scan(w, &[i + 1], 300, ops::sum::<u64>())?;
                        coll::barrier(w, 400)?;
                        out.push_str(&format!("{red:?}/{} ", scan[0]));
                    }
                }
                Prog::Panic if r == 2 => panic!("boom on rank {r}"),
                Prog::Panic => {}
            }
            Ok(out)
        };
        body().unwrap_or_else(|e| format!("{e}"))
    });
    let trace = res.trace.expect("traced run").to_text();
    (res.per_rank, res.clocks, res.metrics, trace)
}

/// "Many universes" is a loop of solo runs on as many threads as there
/// are cores (DESIGN.md §11). Universes share nothing, so a universe run
/// among concurrent neighbours must equal the same universe run alone,
/// and a rank panic must surface on the thread that ran that universe
/// only.
#[test]
fn concurrent_solo_universes_match_their_solo_runs() {
    let jitter = |s: u64| {
        FaultPlan::default()
            .with_perturb_seed(s)
            .with_slowdown(0.3, 4.0)
            .with_jitter(Time::from_micros(2))
    };
    let crash = |s: u64| {
        FaultPlan::default()
            .with_perturb_seed(1)
            .with_crash(3 + s as usize % 17, Time::ZERO)
    };
    let mut batch: Vec<(usize, SimConfig, Prog)> = Vec::new();
    for s in 0..4u64 {
        let cfg = |k: u64| SimConfig::cooperative().with_seed(s * 10 + k);
        batch.push((20 + s as usize, cfg(0), Prog::Storm));
        batch.push((24, cfg(1).with_faults(jitter(s)), Prog::Storm));
        batch.push((20, cfg(2).with_faults(crash(s)), Prog::Storm));
        batch.push((13 + s as usize, cfg(3), Prog::Colls));
    }
    batch.insert(5, (4, SimConfig::cooperative(), Prog::Panic));

    // `Err` carries the panic message `catch_unwind` saw.
    let observe_caught = |(p, cfg, prog): &(usize, SimConfig, Prog)| {
        let run = std::panic::AssertUnwindSafe(|| observe(*p, cfg, prog));
        std::panic::catch_unwind(run)
            .map_err(|e| e.downcast_ref::<String>().cloned().unwrap_or_default())
    };
    let next = AtomicUsize::new(0);
    let start = std::sync::Barrier::new(4);
    let got: Vec<Mutex<Option<Result<Observation, String>>>> =
        batch.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                start.wait();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(uni) = batch.get(i) else { break };
                    *got[i].lock().unwrap() = Some(observe_caught(uni));
                }
            });
        }
    });
    for (i, (uni, got)) in batch.iter().zip(got).enumerate() {
        let got = got.into_inner().unwrap().expect("every universe ran");
        assert_eq!(got, observe_caught(uni), "universe {i} diverged");
        match uni.2 {
            Prog::Panic => assert!(got.unwrap_err().contains("boom on rank 2")),
            Prog::Storm if !uni.1.faults.crashes.is_empty() => {
                let outs = got.unwrap().0;
                assert!(outs.iter().any(|out| out.contains("waiting on: rank")));
            }
            _ => assert!(got.is_ok()),
        }
    }
}

// ---------------------------------------------------------------------------
// Thread bodies: what `Universe::run` builds on the scheduler
// ---------------------------------------------------------------------------

/// A ring exchange with a yield in it and an all-reduce on 6 ranks, one
/// worker, as thread bodies (`sync`) or future bodies: the results, the
/// clocks and the scheduler's epochs and steps.
fn inner_universe(sync: bool) -> (Vec<u64>, Vec<Time>, (u64, u64)) {
    let cfg = SimConfig::cooperative().with_seed(3).with_workers(1);
    let program = |env: mpisim::ProcEnv| async move {
        let w = &env.world;
        w.send(&[w.rank() as u64], (w.rank() + 1) % 6, 1).unwrap();
        mpisim::yield_now_async().await;
        let (v, _) = mpisim::recv_async::<u64, _>(w, Src::Any, 1).await.unwrap();
        let sum = w.allreduce_async(&[v[0] * 10], ops::sum::<u64>()).await;
        sum.unwrap()[0] + v[0]
    };
    let res = if sync {
        Universe::run(6, cfg, |env| mpisim::block_inline(program(env)))
    } else {
        Universe::run_poll(6, cfg, program)
    };
    let steps = (res.metrics.epochs, res.metrics.switches);
    (res.per_rank, res.clocks, steps)
}

// A universe run from inside a rank body. With one inner worker the inner
// scheduler runs on the outer body's thread, so an inner wait or yield
// reaches `suspend_in_place` on a thread that is the rank thread of
// *another* task: inside the inner step it must suspend the inner body,
// not hand the outer baton back.
#[test]
fn a_universe_nested_in_a_rank_body_matches_its_solo_run() {
    let solo = inner_universe(true);
    assert_eq!(solo, inner_universe(false));
    for workers in [1, 4] {
        let cfg = || SimConfig::cooperative().with_workers(workers);
        for inner_sync in [false, true] {
            let nested = Universe::run(3, cfg(), move |env| {
                env.world.barrier().unwrap();
                let got = inner_universe(inner_sync);
                env.world.barrier().unwrap();
                got
            });
            assert!(nested.per_rank.iter().all(|got| *got == solo));
        }
        let nested = Universe::run_poll(3, cfg(), |env| async move {
            env.world.barrier_async().await.unwrap();
            let got = inner_universe(true);
            env.world.barrier_async().await.unwrap();
            got
        });
        assert!(nested.per_rank.iter().all(|got| *got == solo));
    }
}

// A communicator outlives its universe, but its rank runs no more: a send
// through it is an MPI call off every scheduler task, and says so.
#[test]
#[should_panic(expected = "MPI calls run on a scheduler task")]
fn a_comm_returned_out_of_a_finished_universe_panics_when_it_sends() {
    let mut worlds = Universe::run_default(2, |env| env.world.clone()).per_rank;
    let _ = worlds.swap_remove(0).send(&[1u64], 1, 0);
}

// A universe run inside a rank's step, on the worker that steps it, must
// not commit that rank's sends staged before it: the worker's outbox is
// set aside for the inner run and restored after it.
#[test]
fn a_universe_nested_after_a_send_keeps_the_outer_send() {
    for workers in [1, 2] {
        let cfg = SimConfig::cooperative().with_workers(workers);
        let res = Universe::run_poll(2, cfg, |env| async move {
            let w = &env.world;
            if w.rank() == 0 {
                w.send(&[7u64], 1, 5).unwrap();
                // Three ranks around a ring, on this worker's thread.
                let inner = Universe::run(3, SimConfig::default(), |env| {
                    let w = &env.world;
                    w.send(&[w.rank() as u64], (w.rank() + 1) % 3, 5).unwrap();
                    w.recv::<u64>(Src::Rank((w.rank() + 2) % 3), 5).unwrap().0[0]
                });
                inner.per_rank.iter().sum()
            } else {
                let (v, _) = mpisim::recv_async::<u64, _>(w, Src::Rank(0), 5)
                    .await
                    .unwrap();
                v[0]
            }
        });
        assert_eq!(res.per_rank, vec![3, 7], "{workers} workers");
    }
}

// A rank panic on a thread body is recorded, the structural detector
// poisons the waits it leaves unanswerable, every other rank thread runs
// to its end, and only then does `Universe::run` re-throw the payload.
#[test]
fn a_thread_body_panic_is_rethrown_once_every_rank_thread_has_exited() {
    struct Boom(usize);
    for workers in [1, 4] {
        let poisoned = AtomicUsize::new(0);
        let run = std::panic::AssertUnwindSafe(|| {
            Universe::run(6, SimConfig::cooperative().with_workers(workers), |env| {
                let w = &env.world;
                w.barrier().unwrap();
                if w.rank() == 2 {
                    std::panic::panic_any(Boom(w.rank()));
                }
                match w.recv::<u64>(Src::Rank(2), 1) {
                    Err(MpiError::Timeout { .. }) => poisoned.fetch_add(1, Ordering::SeqCst),
                    other => panic!("expected a poisoned wait, got {other:?}"),
                };
            })
        });
        let payload = std::panic::catch_unwind(run).expect_err("rank 2's panic propagates");
        assert_eq!(payload.downcast_ref::<Boom>().map(|b| b.0), Some(2));
        assert_eq!(poisoned.load(Ordering::SeqCst), 5, "{workers} workers");
    }
}

// A synchronous body is an OS thread; when the OS refuses one, the panic
// says how large the universe was and which entry point has no such limit.
#[test]
fn thread_exhaustion_names_the_way_out() {
    // No host maps a stack of a quarter of the address space.
    let cfg = SimConfig::cooperative().with_stack_size(usize::MAX / 4);
    let payload =
        std::panic::catch_unwind(|| Universe::run(4, cfg, |_env| ())).expect_err("the spawn fails");
    let msg = payload.downcast_ref::<String>().expect("a formatted panic");
    for part in ["p = 4", "one OS thread per rank", "Universe::run_poll"] {
        assert!(msg.contains(part), "{msg}");
    }
}

// A poll loop that never reaches a wait leaf never ends its task step:
// the 2^20-th miss of one step panics, naming the rank and the way out,
// on either kind of body and at any worker count.
#[test]
fn a_bare_poll_spin_panics_instead_of_hanging() {
    async fn spin(env: mpisim::ProcEnv) {
        let w = &env.world;
        if w.rank() == 1 {
            let mut req = w.irecv::<u64>(Src::Rank(0), 3);
            while !req.test().unwrap() {}
        }
    }
    for workers in [1, 4] {
        let cfg = || SimConfig::default().with_workers(workers);
        let thread = || Universe::run(2, cfg(), |env| mpisim::block_inline(spin(env)));
        let future = || Universe::run_poll(2, cfg(), spin);
        for (body, run) in [("thread", &thread as &dyn Fn() -> _), ("future", &future)] {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("the spin panics");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic");
            for part in ["rank 1", "`mpisim::yield_now()`", "`wait`"] {
                assert!(msg.contains(part), "{body} body, {workers} workers: {msg}");
            }
        }
    }
}

// The same spin on a collective request: `test()` polls the broadcast's
// core in try-mode, where a receive that misses counts like `try_recv`,
// so the loop panics the same way rather than blocking inside `test()`.
#[test]
fn a_bare_poll_spin_on_a_collective_request_panics() {
    async fn spin(env: mpisim::ProcEnv) {
        let w = &env.world;
        if w.rank() == 1 {
            // The root, rank 0, never starts the broadcast.
            let mut req = nbcoll::Request::new(w.ibcast::<u64>(None, 0).unwrap());
            while !req.test().unwrap() {}
        }
    }
    for workers in [1, 4] {
        let cfg = || SimConfig::default().with_workers(workers);
        let thread = || Universe::run(2, cfg(), |env| mpisim::block_inline(spin(env)));
        let future = || Universe::run_poll(2, cfg(), spin);
        for (body, run) in [("thread", &thread as &dyn Fn() -> _), ("future", &future)] {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("the spin panics");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic");
            for part in ["rank 1", "`mpisim::yield_now()`", "`wait`"] {
                assert!(msg.contains(part), "{body} body, {workers} workers: {msg}");
            }
        }
    }
}
