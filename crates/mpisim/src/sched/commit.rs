//! The epoch commit: order a round's staged messages and deliver them.
//!
//! **Invariant:** every mailbox receives its messages in ascending
//! [`CommitKey`] order and a commit wakes the same *set* of ranks,
//! whatever the worker count, shard geometry or [`CommitAlgo`]. The key
//! is `(matchable, sender, seq)`: `matchable` is the running maximum of
//! arrival times along the sender's program order (per-sender monotone,
//! so MPI non-overtaking holds), `seq` the sender's per-epoch send
//! counter. `(sender, seq)` alone is unique, so
//! there is exactly one sorted order and an unstable in-place sort is
//! deterministic.
//!
//! Two deliveries of that one order exist:
//!
//! * **Serial** (the reference tests compare against): a stable sort on
//!   the key and one push loop on the committing worker.
//! * **Sharded** (the default): the run is sorted *destination-major*,
//!   `(dest, key)`, so each destination's messages form one contiguous
//!   segment whose internal order is the serial commit's per-mailbox
//!   subsequence. Small commits are pushed inline; wide ones are cut into
//!   shards at segment boundaries, which the epoch layer publishes for
//!   all workers to claim. Pushes into disjoint mailboxes cannot
//!   interfere.
//!
//! A wake-up is a rank number: a push reports whether it satisfied the
//! destination mailbox's armed wait, and the destination is appended to
//! the next round (per shard, then joined by the finishing worker). Their
//! order is not kept: the epoch layer sorts the round by rank (DESIGN.md
//! §7).
//!
//! Every buffer here (the gather run, shard and wake vectors, batch
//! scratch) is reused through [`SchedPools`], so a steady-state epoch at
//! one worker allocates nothing (DESIGN.md §10).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use super::task::TaskSlot;
use crate::model::CommitAlgo;
use crate::msg::Message;
use crate::pool::Pool;
use crate::proc::Router;
use crate::time::Time;

/// A staged message annotated with its global commit key.
pub(super) struct CommitEntry {
    matchable: Time,
    src: usize,
    seq: u32,
    dest: usize,
    msg: Message,
}

/// See the module invariant.
type CommitKey = (Time, usize, u32);

impl CommitEntry {
    fn key(&self) -> CommitKey {
        (self.matchable, self.src, self.seq)
    }
}

/// A sharded commit in flight: per-shard slices of the destination-major
/// run, claimed by workers through the epoch cursor like round tasks.
pub(super) struct CommitWork {
    /// Shard `i`'s contiguous run of whole per-destination segments.
    shards: Vec<UnsafeCell<Vec<CommitEntry>>>,
    /// The destinations shard `i`'s pushes woke.
    wakes: Vec<UnsafeCell<Vec<usize>>>,
    /// The next round so far (the tasks that yielded), handed through to
    /// the finishing worker.
    next: Mutex<Vec<usize>>,
    /// How many they are: where [`Commit::finish`] starts appending.
    pub(super) yielded: usize,
}

// SAFETY: `shards[i]` / `wakes[i]` are touched only by the one worker that
// claimed unit `i` through the cursor CAS, and by the finishing worker
// after the push barrier (the AcqRel count of completed units).
unsafe impl Send for CommitWork {}
unsafe impl Sync for CommitWork {}

impl CommitWork {
    /// Claimable units (shards).
    pub(super) fn units(&self) -> usize {
        self.shards.len()
    }
}

/// Reusable scratch of one `push_segments` call: the per-destination
/// message batch and the trigger-index buffer handed to
/// [`crate::mailbox::Mailbox::push_batch`].
#[derive(Default)]
struct CommitScratch {
    batch: Vec<Message>,
    fired: Vec<usize>,
}

/// The commit-scratch pool families of a scheduler, split out so a
/// `Fleet` can share one set across every universe it
/// admits (a solo scheduler owns a private set). Sharing is unobservable
/// in simulation output: pooled buffers are always handed out drained, so
/// only their *capacity* survives a universe boundary.
#[derive(Default)]
pub(crate) struct SchedPools {
    /// Commit-shard entry vectors.
    pub(super) entry_pool: Pool<Vec<CommitEntry>>,
    /// Round / next-round index vectors (used by the epoch layer) and
    /// the shards' woken-destination vectors.
    pub(super) idx_pool: Pool<Vec<usize>>,
    scratch_pool: Pool<CommitScratch>,
}

/// Auto-sharding floor: a shard below this many entries amortises neither
/// the claim CAS nor the per-destination mailbox lock, so small commits
/// stay on the committing worker.
const MIN_SHARD_ENTRIES: usize = 64;

/// What [`Commit::begin`] did with the round's messages.
pub(super) enum Begun {
    /// Delivered on the calling worker; carries the next round so far
    /// (the tasks that yielded, then the ranks the pushes woke) back.
    Delivered(Vec<usize>),
    /// Cut into shards: publish them, then call [`Commit::finish`].
    Sharded(Arc<CommitWork>),
}

/// One scheduler's commit pipeline.
pub(super) struct Commit {
    router: Arc<Router>,
    algo: CommitAlgo,
    /// Requested shard-count cap (0 = auto from the worker count).
    shard_cap: usize,
    /// Effective worker count of the current run.
    pub(super) workers: AtomicUsize,
    /// The one vector every epoch gathers into and sorts in place.
    buf: Mutex<Vec<CommitEntry>>,
    pub(super) pools: Arc<SchedPools>,
}

impl Commit {
    pub(super) fn new(
        router: Arc<Router>,
        algo: CommitAlgo,
        shard_cap: usize,
        pools: Arc<SchedPools>,
    ) -> Commit {
        Commit {
            router,
            algo,
            shard_cap,
            workers: AtomicUsize::new(1),
            buf: Mutex::new(Vec::new()),
            pools,
        }
    }

    /// Shard-count target for `entries` staged messages: the explicit
    /// [`SimConfig::coop_commit_shards`](crate::SimConfig::coop_commit_shards)
    /// cap when set, otherwise ~2 claim units per worker with
    /// [`MIN_SHARD_ENTRIES`] as the floor (1 worker ⇒ 1 shard ⇒ inline).
    /// Never affects simulation output, only throughput.
    fn shard_target(&self, entries: usize) -> usize {
        if entries == 0 {
            return 1;
        }
        if self.shard_cap > 0 {
            return self.shard_cap.min(entries);
        }
        let w = self.workers.load(Ordering::Relaxed).max(1);
        if w == 1 {
            return 1;
        }
        (entries / MIN_SHARD_ENTRIES).clamp(1, 2 * w)
    }

    /// Gather and order everything the tasks of `round` staged, then
    /// deliver it here or hand back shards. Returns what happened and how
    /// many messages the epoch staged. Must be called after the round
    /// barrier, by one worker.
    pub(super) fn begin(
        &self,
        round: &[usize],
        slots: &[TaskSlot],
        mut next: Vec<usize>,
    ) -> (Begun, usize) {
        let mut staged = self.buf.lock();
        for &tid in round {
            // SAFETY: past the round barrier, single committing worker.
            let out = unsafe { slots[tid].staged() };
            let mut matchable = Time::ZERO;
            for (seq, (dest, msg)) in out.drain(..).enumerate() {
                matchable = matchable.max(msg.arrival);
                staged.push(CommitEntry {
                    matchable,
                    src: tid,
                    seq: seq as u32,
                    dest,
                    msg,
                });
            }
        }
        let msgs = staged.len();
        if self.algo == CommitAlgo::Serial {
            staged.sort_by_key(CommitEntry::key);
            for e in staged.drain(..) {
                if self.router.mailboxes[e.dest].push(e.msg) {
                    next.push(e.dest);
                }
            }
            return (Begun::Delivered(next), msgs);
        }
        staged.sort_unstable_by_key(|e| (e.dest, e.matchable, e.src, e.seq));
        let target = self.shard_target(msgs);
        if target <= 1 {
            self.push_segments(&mut staged, &mut next);
            return (Begun::Delivered(next), msgs);
        }
        // Cut the run into ≤ target shards at segment boundaries (a
        // change of `dest` marks a legal cut). Every shard except
        // possibly the last holds ≥ ⌈n/target⌉ entries. Shard vectors are
        // recycled, so steady state moves each entry once without
        // allocating. (Handing claimers disjoint raw sub-slices of the
        // run would avoid even that move, but needs `ptr::read`-style
        // moves out of aliased storage; one 64-byte memcpy per message
        // isn't worth that unsafety.)
        let per = msgs.div_ceil(target);
        let take_shard = || {
            let mut v = self.pools.entry_pool.take();
            v.reserve(per + 8);
            v
        };
        let mut shards: Vec<UnsafeCell<Vec<CommitEntry>>> = Vec::new();
        let mut cur = take_shard();
        for e in staged.drain(..) {
            if cur.len() >= per && cur.last().is_some_and(|l| l.dest != e.dest) {
                shards.push(UnsafeCell::new(std::mem::replace(&mut cur, take_shard())));
            }
            cur.push(e);
        }
        if shards.is_empty() {
            // One giant destination segment (pure all-to-one fan-in): a
            // single mailbox must be pushed in order anyway.
            self.push_segments(&mut cur, &mut next);
            self.pools.entry_pool.put(cur);
            return (Begun::Delivered(next), msgs);
        }
        shards.push(UnsafeCell::new(cur));
        let wakes = (0..shards.len())
            .map(|_| UnsafeCell::new(self.pools.idx_pool.take()))
            .collect();
        let cw = CommitWork {
            shards,
            wakes,
            yielded: next.len(),
            next: Mutex::new(next),
        };
        (Begun::Sharded(Arc::new(cw)), msgs)
    }

    /// Push one claimed shard, recording the destinations it woke.
    pub(super) fn push_shard(&self, cw: &CommitWork, i: usize) {
        // SAFETY: unit `i` was claimed exclusively through the cursor CAS;
        // only this worker touches its vectors until the push barrier.
        let (entries, wakes) = unsafe { (&mut *cw.shards[i].get(), &mut *cw.wakes[i].get()) };
        self.push_segments(entries, wakes);
    }

    /// All shards are pushed: return the next round so far, the woken
    /// destinations of every shard appended.
    pub(super) fn finish(&self, cw: &CommitWork) -> Vec<usize> {
        let mut next = std::mem::take(&mut *cw.next.lock());
        for (wakes, shard) in cw.wakes.iter().zip(&cw.shards) {
            // SAFETY: the push barrier has passed; no worker holds a unit.
            let (ws, es) = unsafe { (&mut *wakes.get(), &mut *shard.get()) };
            next.append(ws);
            // Recycle the drained vectors (their capacity).
            let (ws, es) = (std::mem::take(ws), std::mem::take(es));
            if ws.capacity() > 0 {
                self.pools.idx_pool.put(ws);
            }
            if es.capacity() > 0 {
                self.pools.entry_pool.put(es);
            }
        }
        next
    }

    /// Push a destination-major-sorted run: one
    /// [`push_batch`](crate::mailbox::Mailbox::push_batch) per destination
    /// segment (one lock acquisition per destination, however large its
    /// fan-in), appending to `woken` every destination whose armed wait a
    /// message of its segment satisfied.
    fn push_segments(&self, entries: &mut Vec<CommitEntry>, woken: &mut Vec<usize>) {
        let mut s = self.pools.scratch_pool.take();
        let mut flush = |dest: usize, s: &mut CommitScratch| {
            if s.batch.is_empty() {
                return;
            }
            self.router.mailboxes[dest].push_batch(&mut s.batch, &mut s.fired);
            woken.extend(s.fired.drain(..).map(|_| dest));
        };
        let mut dest = usize::MAX;
        for e in entries.drain(..) {
            if e.dest != dest {
                flush(dest, &mut s);
                dest = e.dest;
            }
            s.batch.push(e.msg);
        }
        flush(dest, &mut s);
        self.pools.scratch_pool.put(s);
    }
}
