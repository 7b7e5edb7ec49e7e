//! Allocation-free hot path (PR 8 acceptance): a counting global
//! allocator proves that a steady-state cooperative epoch — ring
//! point-to-point traffic, a reduce, a scan, a JQuick-style staged
//! exchange (run-length encode → ship → decode), and a barrier, every
//! iteration — performs **exactly zero** heap allocations once the
//! payload pool and the scheduler's commit buffers are warm, and that
//! the total allocation count of a warm run is itself deterministic.
//!
//! The measurement only holds with everything on one thread: rank code,
//! commit and the payload pool's thread-local tier. So the storm is an
//! async program under `Universe::run_poll` (a future body is polled on
//! the worker's thread; a synchronous body would run on a thread of its
//! own) at `workers = 1`: the scheduler then runs its worker loop on the
//! calling thread (no allocating thread spawns, no `Arc`-published commit
//! phase: `shard_target` returns 1 and the commit stays inline), and the
//! payload pool's thread-local caches live on this one thread across
//! `Universe::run_poll` calls. This file is its own integration-test
//! binary with a single `#[test]` so no concurrent test pollutes the
//! counter.
//!
//! The collectives in the storm are the pooled ones (`reduce`, `scan`,
//! `barrier`); `bcast`/`allreduce` publish through an `Arc` per call and
//! are deliberately excluded — the zero-allocation contract covers the
//! epoch machinery and the staged payload path, not every collective's
//! internal rendezvous.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mpisim::{coll, distsort, ops, pool, recv_async, SimConfig, Src, Transport, Universe};

/// Counts every allocation event (alloc, alloc_zeroed, and realloc —
/// a realloc that moves is a fresh allocation for our purposes); frees
/// are not interesting. Relaxed ordering suffices: at `workers = 1` the
/// counter is only read on the thread that does all the allocating.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const P: usize = 8;
/// Iterations per run; the second half must allocate nothing.
const ITERS: usize = 40;
/// Iterations granted to warm the pools (pooled capacities only grow,
/// so reallocs die out once every buffer has reached its steady size).
const WARMUP: usize = ITERS / 2;
/// Elements per payload; small enough that every pooled vector settles
/// into its size class in one take.
const CHUNK: usize = 16;

/// The storm program.
async fn storm_body(env: mpisim::ProcEnv) -> Vec<u64> {
    let w = &env.world;
    let r = w.rank();
    let p = w.size();
    let next = (r + 1) % p;
    let prev = (r + p - 1) % p;
    let payload: [u64; CHUNK] = std::array::from_fn(|k| (r * CHUNK + k) as u64);
    let mut snaps = if r == 0 {
        Vec::with_capacity(ITERS)
    } else {
        Vec::new()
    };
    for i in 0..ITERS {
        // Ring point-to-point: the staged-exchange payload path.
        w.send(&payload, next, 100).unwrap();
        let (v, st) = recv_async::<u64, _>(w, Src::Rank(prev), 100).await.unwrap();
        assert_eq!((st.source, v.len()), (prev, CHUNK));
        pool::recycle_vec(v);
        // Binomial reduce to rank 0 (pooled accumulator).
        let acc = coll::reduce_async(w, &payload, 0, 200, ops::sum::<u64>()).await;
        if let Some(acc) = acc.unwrap() {
            pool::recycle_vec(acc);
        }
        // Hillis–Steele inclusive scan (pooled accumulator).
        let s = coll::scan_async(w, &payload, 300, ops::sum::<u64>())
            .await
            .unwrap();
        pool::recycle_vec(s);
        // JQuick-style staged exchange: tag a locally sorted chunk
        // with positions, run-length encode, ship both frames to
        // the ring neighbour, decode, recycle. This is exactly the
        // wire format of the sample sort's data exchange.
        let mut tagged: Vec<(u64, u64)> = pool::take_vec(CHUNK);
        let base = ((i * p + r) * CHUNK) as u64;
        for (k, &x) in payload.iter().enumerate() {
            tagged.push((x, base + k as u64));
        }
        tagged.sort_unstable_by_key(|&(_, pos)| pos);
        let (runs, vals) = distsort::encode_runs(tagged);
        w.send(&runs, next, 500).unwrap();
        w.send_vec(vals, next, 501).unwrap();
        pool::recycle_vec(runs);
        let (rruns, _) = recv_async::<(u64, u64), _>(w, Src::Rank(prev), 500)
            .await
            .unwrap();
        let (rvals, _) = recv_async::<u64, _>(w, Src::Rank(prev), 501).await.unwrap();
        let decoded = distsort::decode_runs(&rruns, rvals);
        assert_eq!(decoded.len(), CHUNK);
        pool::recycle_vec(rruns);
        pool::recycle_vec(decoded);
        // Quiesce the iteration, then snapshot the global counter.
        // With one worker everything, rank bodies and the commit, runs
        // on this very thread, so the read races with nothing.
        coll::barrier_async(w, 400).await.unwrap();
        if r == 0 {
            snaps.push(ALLOCS.load(Ordering::Relaxed));
        }
    }
    snaps
}

/// The one knob the measurement depends on, pinned: 1 worker (inline
/// commits, shared thread-locals). The default sharded commit orders
/// with the in-place unstable sort; the serial reference's stable
/// `sort_by_key` allocates scratch by design and is never the default.
fn storm_cfg(seed: u64) -> SimConfig {
    SimConfig::cooperative().with_seed(seed).with_workers(1)
}

/// One full solo storm run. Returns rank 0's allocation-counter
/// snapshot after each iteration's closing barrier, plus the run's
/// total count.
fn storm_run(seed: u64) -> (Vec<u64>, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let res = Universe::run_poll(P, storm_cfg(seed), storm_body);
    let total = ALLOCS.load(Ordering::Relaxed) - before;
    let snaps = res.per_rank.into_iter().next().unwrap();
    assert_eq!(snaps.len(), ITERS);
    (snaps, total)
}

#[test]
fn steady_state_epochs_allocate_nothing() {
    // Run 1 starts cold: pools fill and pooled capacities grow during
    // the warm-up window, after which every iteration must be free.
    let (snaps, _cold_total) = storm_run(42);
    let tail: Vec<u64> = snaps
        .windows(2)
        .skip(WARMUP - 1)
        .map(|w| w[1] - w[0])
        .collect();
    assert!(
        tail.iter().all(|&d| d == 0),
        "steady-state iterations allocated: per-iteration deltas after \
         warm-up = {tail:?}"
    );

    // Runs 2 and 3 start warm (the payload pool's thread-local caches
    // survive on this thread). Their *whole-run* totals — universe
    // setup included — must match exactly: the allocation count of a
    // warm run is a pure function of (program, seed).
    let (snaps2, total2) = storm_run(42);
    let (snaps3, total3) = storm_run(42);
    assert_eq!(
        total2, total3,
        "warm-run allocation totals diverged: {total2} vs {total3}"
    );
    // And warm runs must go allocation-free well before the cold run's
    // warm-up bound: the payload pool is already hot, so only the
    // universe-local buffers (mailbox slabs and indexes, per-task
    // staging, commit vectors) still grow — empirically for ~3 iterations; 8 is
    // the asserted bound.
    const UNIVERSE_WARMUP: usize = 8;
    for (label, s) in [("run2", &snaps2), ("run3", &snaps3)] {
        let deltas: Vec<u64> = s
            .windows(2)
            .skip(UNIVERSE_WARMUP - 1)
            .map(|w| w[1] - w[0])
            .collect();
        assert!(
            deltas.iter().all(|&d| d == 0),
            "{label} iterations allocated despite warm pools: {deltas:?}"
        );
    }
}
