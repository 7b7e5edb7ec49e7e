//! The epoch commit: order a round's staged messages and deliver them.
//!
//! **Invariant:** every mailbox receives its messages in ascending
//! [`CommitKey`] order, and wakers fire in ascending key order of the
//! message that triggered them, whatever the worker count, shard geometry
//! or [`CommitAlgo`]. The key is `(matchable, sender, seq)`: `matchable`
//! is the running maximum of arrival times along the sender's program
//! order (per-sender monotone, so MPI non-overtaking holds), `seq` the
//! sender's per-epoch send counter. `(sender, seq)` alone is unique, so
//! there is exactly one sorted order and an unstable in-place sort is
//! deterministic.
//!
//! Two deliveries of that one order exist:
//!
//! * **Serial** (the reference tests compare against): a stable sort on
//!   the key and one push loop on the committing worker; wakers fire
//!   inline.
//! * **Sharded** (the default): the run is sorted *destination-major*,
//!   `(dest, key)`, so each destination's messages form one contiguous
//!   segment whose internal order is the serial commit's per-mailbox
//!   subsequence. Small commits are pushed inline; wide ones are cut into
//!   shards at segment boundaries, which the epoch layer publishes for
//!   all workers to claim. Pushes into disjoint mailboxes cannot
//!   interfere; wake-ups are *recorded* as `(key of the triggering
//!   message, waker)` and fired after the push barrier in key order,
//!   which reproduces the serial wake order bit for bit (DESIGN.md §7).
//!
//! Every buffer here (the gather run, shard and wake vectors, batch
//! scratch) is reused through [`SchedPools`], so a steady-state epoch at
//! one worker allocates nothing (DESIGN.md §10).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use super::task::TaskSlot;
use crate::mailbox::Wake;
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

/// A wake-up recorded during a push, deferred past the push barrier.
struct WakeRec {
    key: CommitKey,
    /// Tie-break for several waiters of the *same* message: the push
    /// index within the recording shard's wake vector, with the shard
    /// index OR-ed into the high bits when shards are concatenated.
    /// Makes `(key, ord)` unique, so the wake merge can use an
    /// allocation-free unstable sort and still reproduce the stable
    /// concatenation order exactly.
    ord: u64,
    waker: Arc<dyn Wake>,
}

/// A sharded commit in flight: per-shard slices of the destination-major
/// run, claimed by workers through the epoch cursor like round tasks.
pub(super) struct CommitWork {
    /// Shard `i`'s contiguous run of whole per-destination segments.
    shards: Vec<UnsafeCell<Vec<CommitEntry>>>,
    /// Shard `i`'s deferred wake records.
    wakes: Vec<UnsafeCell<Vec<WakeRec>>>,
    /// The head of the next round (the tasks that yielded), handed
    /// through to the finishing worker.
    next: Mutex<Vec<usize>>,
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
/// message batch, its parallel key array, and the fired-subscription
/// buffer handed to [`crate::mailbox::Mailbox::push_batch`].
#[derive(Default)]
struct CommitScratch {
    batch: Vec<Message>,
    keys: Vec<CommitKey>,
    fired: Vec<(usize, Arc<dyn Wake>)>,
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
    /// Round / next-round index vectors (used by the epoch layer).
    pub(super) idx_pool: Pool<Vec<usize>>,
    wake_pool: Pool<Vec<WakeRec>>,
    scratch_pool: Pool<CommitScratch>,
}

/// Auto-sharding floor: a shard below this many entries amortises neither
/// the claim CAS nor the per-destination mailbox lock, so small commits
/// stay on the committing worker.
const MIN_SHARD_ENTRIES: usize = 64;

/// What [`Commit::begin`] did with the round's messages.
pub(super) enum Begun {
    /// Delivered on the calling worker; carries the next round's head
    /// back.
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
        next: Vec<usize>,
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
                self.router.mailboxes[e.dest].push(e.msg);
            }
            return (Begun::Delivered(next), msgs);
        }
        staged.sort_unstable_by_key(|e| (e.dest, e.matchable, e.src, e.seq));
        let target = self.shard_target(msgs);
        if target <= 1 {
            self.push_inline(&mut staged);
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
            self.push_inline(&mut cur);
            self.pools.entry_pool.put(cur);
            return (Begun::Delivered(next), msgs);
        }
        shards.push(UnsafeCell::new(cur));
        let wakes = (0..shards.len())
            .map(|_| UnsafeCell::new(self.pools.wake_pool.take()))
            .collect();
        let cw = CommitWork {
            shards,
            wakes,
            next: Mutex::new(next),
        };
        (Begun::Sharded(Arc::new(cw)), msgs)
    }

    /// Push a destination-major run on the calling worker and fire its
    /// wake-ups. `run` is drained (capacity retained).
    fn push_inline(&self, run: &mut Vec<CommitEntry>) {
        let mut wakes = self.pools.wake_pool.take();
        self.push_segments(run, &mut wakes);
        fire_wakes_merged(&mut wakes);
        self.pools.wake_pool.put(wakes);
    }

    /// Push one claimed shard, deferring every wake-up as a keyed record.
    pub(super) fn push_shard(&self, cw: &CommitWork, i: usize) {
        // SAFETY: unit `i` was claimed exclusively through the cursor CAS;
        // only this worker touches its vectors until the push barrier.
        let (entries, wakes) = unsafe { (&mut *cw.shards[i].get(), &mut *cw.wakes[i].get()) };
        self.push_segments(entries, wakes);
    }

    /// All shards are pushed: fire the deferred wake-ups in global key
    /// order and return the next round's head.
    pub(super) fn finish(&self, cw: &CommitWork) -> Vec<usize> {
        let mut recs = self.pools.wake_pool.take();
        for (s, (wakes, shard)) in cw.wakes.iter().zip(&cw.shards).enumerate() {
            // SAFETY: the push barrier has passed; no worker holds a unit.
            let (ws, es) = unsafe { (&mut *wakes.get(), &mut *shard.get()) };
            for mut r in ws.drain(..) {
                // Stamp the shard into the high ord bits so the
                // concatenation order survives the unstable sort.
                r.ord |= (s as u64) << 32;
                recs.push(r);
            }
            // Recycle the drained vectors (their capacity).
            let (ws, es) = (std::mem::take(ws), std::mem::take(es));
            if ws.capacity() > 0 {
                self.pools.wake_pool.put(ws);
            }
            if es.capacity() > 0 {
                self.pools.entry_pool.put(es);
            }
        }
        fire_wakes_merged(&mut recs);
        self.pools.wake_pool.put(recs);
        std::mem::take(&mut *cw.next.lock())
    }

    /// Push a destination-major-sorted run: one
    /// [`push_batch`](crate::mailbox::Mailbox::push_batch) per destination
    /// segment (one lock acquisition per destination, however large its
    /// fan-in), recording every triggered wake-up as a [`WakeRec`] keyed by
    /// the triggering message instead of firing it.
    fn push_segments(&self, entries: &mut Vec<CommitEntry>, wakes: &mut Vec<WakeRec>) {
        let mut s = self.pools.scratch_pool.take();
        let mut flush = |dest: usize, s: &mut CommitScratch| {
            if s.batch.is_empty() {
                return;
            }
            self.router.mailboxes[dest].push_batch(&mut s.batch, &mut s.fired);
            for (idx, waker) in s.fired.drain(..) {
                wakes.push(WakeRec {
                    key: s.keys[idx],
                    ord: wakes.len() as u64,
                    waker,
                });
            }
            s.keys.clear();
        };
        let mut dest = usize::MAX;
        for e in entries.drain(..) {
            if e.dest != dest {
                flush(dest, &mut s);
                dest = e.dest;
            }
            s.keys.push(e.key());
            s.batch.push(e.msg);
        }
        flush(dest, &mut s);
        self.pools.scratch_pool.put(s);
    }
}

/// Fire deferred wake-ups in ascending global-key order. `(key, ord)` is
/// unique (see [`WakeRec::ord`]), so the allocation-free unstable sort
/// reproduces what a stable by-key sort of the shard concatenation would:
/// several waiters triggered by the *same* message keep their
/// subscription order, as under the serial commit's inline `push`.
fn fire_wakes_merged(recs: &mut Vec<WakeRec>) {
    recs.sort_unstable_by_key(|r| (r.key, r.ord));
    for r in recs.drain(..) {
        r.waker.wake();
    }
}
