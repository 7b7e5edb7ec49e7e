//! The allocation contract of the hot path: a counting global allocator
//! proves that a steady-state epoch — ring point-to-point traffic, a
//! reduce, a scan, a JQuick-style staged exchange (run-length encode →
//! ship → decode), a receive of the wrong element type, and two barriers,
//! every iteration — allocates **exactly one block per payload buffer it
//! creates and nothing else** once the scheduler's commit buffers and the
//! mailboxes are warm, that a warm run frees exactly the bytes it
//! allocates, and that the total allocation count of a warm run is itself
//! deterministic.
//!
//! The measurement only holds with everything on one thread: rank code
//! and commit. So the storm is an async program under
//! `Universe::run_poll` (a future body is polled on the worker's thread;
//! a synchronous body would run on a thread of its own) at `workers = 1`:
//! the scheduler then runs its worker loop on the calling thread (no
//! allocating thread spawns), and that one worker hands in its outbox and
//! pushes it into the mailboxes as it stands, on the same thread. This
//! file is its own integration-test binary with a single `#[test]` so no
//! concurrent test pollutes the counters.
//!
//! The collectives in the storm are `reduce`, `scan` and `barrier`;
//! `bcast`/`allreduce` publish through an `Arc` per call and are
//! deliberately excluded — the contract covers the epoch machinery and
//! the payload path, not every collective's internal rendezvous.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mpisim::{coll, distsort, ops, recv_async, MpiError, SimConfig, Src, Transport, Universe};

/// Counts every allocation event (alloc, alloc_zeroed, and realloc —
/// a realloc that moves is a fresh allocation for our purposes) and sums
/// the bytes handed out and given back (a realloc gives back its old
/// size and hands out its new one). Relaxed ordering suffices: at
/// `workers = 1` the counters are only read on the thread that does all
/// the allocating.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

fn allocated(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

fn freed(bytes: usize) {
    FREED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        freed(layout.size());
        allocated(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const P: usize = 8;
/// Iterations per run; every one after the warm-up allocates exactly
/// [`PER_ITER`] blocks.
const ITERS: usize = 40;
/// Iterations granted to warm the universe-local buffers (mailbox slabs
/// and indexes, per-task staging, commit vectors only grow, so reallocs
/// die out once each has reached its steady size — at `P = 8` already
/// after the first iteration; 8 is the asserted bound).
const UNIVERSE_WARMUP: usize = 8;
/// Elements per payload.
const CHUNK: usize = 16;

/// Blocks one iteration allocates over all `P = 8` ranks: one per
/// payload buffer it creates, nothing else.
///
/// | step | buffers | blocks |
/// |---|---|---:|
/// | ring send | the `send` copy, every rank | 8 |
/// | reduce | the accumulator (`data.to_vec()`), every rank; children forward it | 8 |
/// | scan | the accumulator, every rank, plus one `send` copy per round for each `r + d < p` (d = 1, 2, 4: 7 + 6 + 4) | 25 |
/// | exchange | `tagged`, `runs`, `vals`, the `send(&runs)` copy, `decoded`, every rank | 40 |
/// | mismatch | the `u64` `send` copy, freed untaken by the `u32` receive | 8 |
/// | barriers | empty payloads, no block | 0 |
const PER_ITER: u64 = 8 + 8 + 25 + 40 + 8;

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
        // Binomial reduce to rank 0.
        coll::reduce_async(w, &payload, 0, 200, ops::sum::<u64>())
            .await
            .unwrap();
        // Hillis–Steele inclusive scan.
        coll::scan_async(w, &payload, 300, ops::sum::<u64>())
            .await
            .unwrap();
        // JQuick-style staged exchange: tag a locally sorted chunk
        // with positions, run-length encode, ship both frames to
        // the ring neighbour, decode. This is exactly the wire format
        // of the sample sort's data exchange.
        let mut tagged: Vec<(u64, u64)> = Vec::with_capacity(CHUNK);
        let base = ((i * p + r) * CHUNK) as u64;
        for (k, &x) in payload.iter().enumerate() {
            tagged.push((x, base + k as u64));
        }
        tagged.sort_unstable_by_key(|&(_, pos)| pos);
        let (runs, vals) = distsort::encode_runs(tagged);
        w.send(&runs, next, 500).unwrap();
        w.send_vec(vals, next, 501).unwrap();
        let (rruns, _) = recv_async::<(u64, u64), _>(w, Src::Rank(prev), 500)
            .await
            .unwrap();
        let (rvals, _) = recv_async::<u64, _>(w, Src::Rank(prev), 501).await.unwrap();
        let decoded = distsort::decode_runs(&rruns, rvals);
        assert_eq!(decoded.len(), CHUNK);
        // A receive of the wrong element type: the matched `u64` payload
        // is dropped untaken, so its buffer is freed through the
        // message's element table (the byte balance checks it).
        w.send(&[i as u64], next, 600).unwrap();
        let err = recv_async::<u32, _>(w, Src::Rank(prev), 600)
            .await
            .unwrap_err();
        assert!(matches!(err, MpiError::TypeMismatch { .. }), "{err:?}");
        // Quiesce the iteration, snapshot the global counter, and hold
        // every rank until the snapshot is taken, so that consecutive
        // snapshots bracket exactly one iteration of every rank. With
        // one worker everything, rank bodies and the commit, runs on
        // this very thread, so the read races with nothing.
        coll::barrier_async(w, 400).await.unwrap();
        if r == 0 {
            snaps.push(ALLOCS.load(Ordering::Relaxed));
        }
        coll::barrier_async(w, 401).await.unwrap();
    }
    snaps
}

/// The one knob the measurement depends on, pinned: 1 worker (inline
/// commits on the calling thread). The commit pushes each handed-in
/// outbox as it stands, with no ordering pass and so no scratch to
/// allocate.
fn storm_cfg(seed: u64) -> SimConfig {
    SimConfig::cooperative().with_seed(seed).with_workers(1)
}

/// What one solo storm run did to the heap.
struct RunCounts {
    /// Rank 0's allocation-counter snapshot after each iteration's
    /// closing barrier.
    snaps: [u64; ITERS],
    /// Blocks allocated by the whole run, universe setup included.
    total: u64,
    /// Bytes allocated and freed by the whole run, measured after its
    /// result is dropped.
    alloc_bytes: u64,
    freed_bytes: u64,
}

impl RunCounts {
    /// Per-iteration allocation deltas from iteration `from` on.
    fn deltas_from(&self, from: usize) -> Vec<u64> {
        self.snaps
            .windows(2)
            .skip(from - 1)
            .map(|w| w[1] - w[0])
            .collect()
    }
}

fn storm_run(seed: u64) -> RunCounts {
    let before = ALLOCS.load(Ordering::Relaxed);
    let (a0, f0) = (
        ALLOC_BYTES.load(Ordering::Relaxed),
        FREED_BYTES.load(Ordering::Relaxed),
    );
    let res = Universe::run_poll(P, storm_cfg(seed), storm_body);
    let total = ALLOCS.load(Ordering::Relaxed) - before;
    let rank0 = &res.per_rank[0];
    assert_eq!(rank0.len(), ITERS);
    let snaps: [u64; ITERS] = std::array::from_fn(|k| rank0[k]);
    drop(res);
    RunCounts {
        snaps,
        total,
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed) - a0,
        freed_bytes: FREED_BYTES.load(Ordering::Relaxed) - f0,
    }
}

#[test]
fn steady_state_epochs_allocate_one_block_per_payload() {
    // Universes share nothing, so the first run is no colder than the
    // others: in every run the universe-local capacities grow during the
    // warm-up window, after which every iteration allocates exactly its
    // payload buffers, and the *whole-run* totals — universe setup
    // included — match exactly: the allocation count of a run is a pure
    // function of (program, seed).
    let runs = [storm_run(42), storm_run(42), storm_run(42)];
    for (label, run) in ["run2", "run3"].iter().zip(&runs[1..]) {
        assert_eq!(
            runs[0].total, run.total,
            "run1 and {label} allocation totals diverged: {} vs {}",
            runs[0].total, run.total
        );
    }
    for (label, run) in ["run1", "run2", "run3"].iter().zip(&runs) {
        let deltas = run.deltas_from(UNIVERSE_WARMUP);
        assert!(
            deltas.iter().all(|&d| d == PER_ITER),
            "{label}: steady-state iterations must allocate exactly {PER_ITER} \
             blocks: per-iteration deltas after warm-up = {deltas:?}"
        );
        // Nothing outlives a universe: every run gives back every byte
        // it takes.
        assert_eq!(
            run.alloc_bytes,
            run.freed_bytes,
            "{label} kept {} bytes past its universe",
            run.alloc_bytes as i64 - run.freed_bytes as i64
        );
    }
}
