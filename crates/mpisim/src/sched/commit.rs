//! The epoch commit: order a round's staged messages and deliver them.
//!
//! **Invariant:** every mailbox receives its messages in ascending key
//! order and a commit wakes the same *set* of ranks, whatever the worker
//! count, shard geometry or [`CommitAlgo`]; and a message moves once on
//! its way. The key ([`CommitKey::global`]) is `(matchable, sender,
//! seq)`: `matchable` is the running maximum of arrival times along the
//! sender's program order (per-sender monotone, so MPI non-overtaking
//! holds), `seq` the sender's per-epoch send counter. `(sender, seq)`
//! alone is unique, so there is exactly one sorted order and an unstable
//! in-place sort is deterministic.
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
//! Neither delivery sorts messages. What is ordered is a vector of
//! 32-byte [`CommitKey`]s, one per message: `(dest, matchable, sender,
//! seq)`, of which `(sender, seq)` is also the message's address,
//! `slots[sender].staged[seq]`. The committing worker then moves each
//! message once: from where its sender staged it straight into the
//! destination mailbox's slab (serial and inline deliveries), or into its
//! shard's vector, from which the worker that claims the shard moves it
//! into the slab. (Sorting the messages themselves, as this module used
//! to, moved each about 4.5 times before the first push.)
//!
//! A wake-up is a rank number: a push reports whether it satisfied the
//! destination mailbox's armed wait, and the destination is appended to
//! the next round (per shard, then joined by the finishing worker). Their
//! order is not kept: the epoch layer sorts the round by rank (DESIGN.md
//! §7).
//!
//! Every buffer here (the key vector, shard message and wake vectors) is
//! reused, the shards' through [`SchedPools`], so a steady-state commit at
//! one worker allocates nothing (DESIGN.md §10).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use parking_lot::Mutex;

use super::task::TaskSlot;
use crate::model::CommitAlgo;
use crate::msg::Message;
use crate::pool::Pool;
use crate::proc::Router;
use crate::time::Time;

/// Where a staged message goes, when, and where it sits; see the module
/// docs. The derived order is the destination-major one; the serial
/// reference orders by [`CommitKey::global`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CommitKey {
    dest: usize,
    matchable: Time,
    src: usize,
    seq: u32,
}

impl CommitKey {
    /// The module invariant's key.
    fn global(&self) -> (Time, usize, u32) {
        (self.matchable, self.src, self.seq)
    }
}

/// One claimable unit of a sharded commit: a run of whole per-destination
/// segments of the key order, its messages already moved here.
#[derive(Default)]
pub(super) struct Shard {
    /// The shard's keys are `keys[first..first + msgs.len()]`.
    first: usize,
    msgs: Vec<Message>,
    /// The destinations this shard's pushes woke.
    woken: Vec<usize>,
}

/// A sharded commit in flight, its shards claimed by workers through the
/// epoch cursor like round tasks. The lock of a shard is never contended:
/// it is held by the one worker that claimed the unit, then by the
/// finishing worker after the push barrier.
pub(super) struct CommitWork {
    shards: Vec<Mutex<Shard>>,
    /// The next round so far (the tasks that yielded), handed through to
    /// the finishing worker.
    next: Mutex<Vec<usize>>,
    /// How many they are: where [`Commit::finish`] starts appending.
    pub(super) yielded: usize,
}

impl CommitWork {
    /// Claimable units (shards).
    pub(super) fn units(&self) -> usize {
        self.shards.len()
    }
}

/// The commit-scratch pool families of one scheduler. Pooled buffers are
/// always handed out drained, so only their *capacity* survives an epoch.
#[derive(Default)]
pub(super) struct SchedPools {
    /// Commit shards (their message and wake vectors).
    pub(super) entry_pool: Pool<Shard>,
    /// Round / next-round index vectors (used by the epoch layer).
    pub(super) idx_pool: Pool<Vec<usize>>,
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
    /// Effective worker count of the current run.
    pub(super) workers: AtomicUsize,
    /// The epoch's keys: written (gathered and sorted in place) by
    /// [`Commit::begin`], read by the workers pushing its shards.
    keys: RwLock<Vec<CommitKey>>,
    pub(super) pools: SchedPools,
}

impl Commit {
    pub(super) fn new(router: Arc<Router>, algo: CommitAlgo) -> Commit {
        Commit {
            router,
            algo,
            workers: AtomicUsize::new(1),
            keys: RwLock::new(Vec::new()),
            pools: SchedPools::default(),
        }
    }

    /// Shard-count target for `entries` staged messages: ~2 claim units
    /// per worker with [`MIN_SHARD_ENTRIES`] as the floor (1 worker ⇒ 1
    /// shard ⇒ inline). Never affects simulation output, only throughput.
    fn shard_target(&self, entries: usize) -> usize {
        let w = self.workers.load(Ordering::Relaxed).max(1);
        if w == 1 {
            return 1;
        }
        (entries / MIN_SHARD_ENTRIES).clamp(1, 2 * w)
    }

    /// Gather and order the keys of everything the tasks of `round`
    /// staged, then deliver the messages here or hand back shards.
    /// Returns what happened and how many messages the epoch staged. Must
    /// be called after the round barrier, by one worker.
    pub(super) fn begin(
        &self,
        round: &[usize],
        slots: &[TaskSlot],
        mut next: Vec<usize>,
    ) -> (Begun, usize) {
        let mut keys = self.keys.write().expect("no commit panicked");
        keys.clear();
        for &src in round {
            // SAFETY: past the round barrier, single committing worker.
            let staged = unsafe { slots[src].staged() };
            let mut matchable = Time::ZERO;
            for (seq, (dest, msg)) in staged.iter().enumerate() {
                let msg = msg.as_ref().expect("staged this round");
                matchable = matchable.max(msg.arrival);
                keys.push(CommitKey {
                    dest: *dest,
                    matchable,
                    src,
                    seq: seq as u32,
                });
            }
        }
        let msgs = keys.len();
        // Move a message out of the place its sender staged it in.
        let take = |key: &CommitKey| {
            // SAFETY: as above, wherever this is called below.
            let staged = unsafe { slots[key.src].staged() };
            let msg = staged[key.seq as usize].1.take();
            msg.expect("a key is delivered once")
        };
        let ranges = if self.algo == CommitAlgo::Serial {
            keys.sort_by_key(CommitKey::global);
            for key in keys.iter() {
                if self.router.mailboxes[key.dest].push(take(key)) {
                    next.push(key.dest);
                }
            }
            Vec::new()
        } else {
            keys.sort_unstable();
            let ranges = cut(&keys, self.shard_target(msgs));
            if ranges.is_empty() {
                self.push_segments(&keys, keys.iter().map(take), &mut next);
            }
            ranges
        };
        // Shard vectors are recycled, so steady state moves each message
        // into its shard without allocating. (Letting the claimers take
        // from the staging vectors themselves would save that move, but
        // two workers would then write into one rank's vector.)
        let shards: Vec<Mutex<Shard>> = ranges
            .into_iter()
            .map(|range| {
                let mut shard = self.pools.entry_pool.take();
                shard.first = range.start;
                shard.msgs.extend(keys[range].iter().map(take));
                Mutex::new(shard)
            })
            .collect();
        for &src in round {
            // SAFETY: as above. Every message was taken: only `None`s go.
            unsafe { slots[src].staged() }.clear();
        }
        if shards.is_empty() {
            return (Begun::Delivered(next), msgs);
        }
        let cw = CommitWork {
            shards,
            yielded: next.len(),
            next: Mutex::new(next),
        };
        (Begun::Sharded(Arc::new(cw)), msgs)
    }

    /// Push one claimed shard, recording the destinations it woke.
    pub(super) fn push_shard(&self, cw: &CommitWork, i: usize) {
        let keys = self.keys.read().expect("no commit panicked");
        let mut shard = cw.shards[i].lock();
        let Shard { first, msgs, woken } = &mut *shard;
        self.push_segments(&keys[*first..][..msgs.len()], msgs.drain(..), woken);
    }

    /// All shards are pushed: return the next round so far, the woken
    /// destinations of every shard appended.
    pub(super) fn finish(&self, cw: &CommitWork) -> Vec<usize> {
        let mut next = std::mem::take(&mut *cw.next.lock());
        for shard in &cw.shards {
            let mut shard = std::mem::take(&mut *shard.lock());
            next.append(&mut shard.woken);
            // Recycle the drained vectors (their capacity).
            self.pools.entry_pool.put(shard);
        }
        next
    }

    /// Push the messages of a destination-major run of keys, `msgs`
    /// yielding them in key order: one
    /// [`push_all`](crate::mailbox::Mailbox::push_all) per destination
    /// segment (one lock acquisition per destination, however large its
    /// fan-in), appending to `woken` every destination whose armed wait a
    /// message of its segment satisfied.
    fn push_segments(
        &self,
        keys: &[CommitKey],
        mut msgs: impl Iterator<Item = Message>,
        woken: &mut Vec<usize>,
    ) {
        for segment in keys.chunk_by(|a, b| a.dest == b.dest) {
            let dest = segment[0].dest;
            let run = msgs.by_ref().take(segment.len());
            if self.router.mailboxes[dest].push_all(run).is_some() {
                woken.push(dest);
            }
        }
    }
}

/// Cut a destination-major run of keys into at most `target` ranges at
/// segment boundaries (a change of `dest` marks a legal cut). Every range
/// except possibly the last holds ≥ ⌈n/target⌉ keys. Empty when there is
/// nothing to publish: one range would do, be it because the target is 1
/// or because one giant destination segment (pure all-to-one fan-in) can
/// only be pushed in order anyway.
fn cut(keys: &[CommitKey], target: usize) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    if target <= 1 {
        return ranges;
    }
    let per = keys.len().div_ceil(target);
    let (mut first, mut end) = (0, 0);
    for segment in keys.chunk_by(|a, b| a.dest == b.dest) {
        if end - first >= per {
            ranges.push(first..end);
            first = end;
        }
        end += segment.len();
    }
    if !ranges.is_empty() {
        ranges.push(first..end);
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Destination-major keys, one per entry of `dests` (ascending).
    fn keys(dests: &[usize]) -> Vec<CommitKey> {
        let keys: Vec<CommitKey> = dests
            .iter()
            .enumerate()
            .map(|(seq, &dest)| CommitKey {
                dest,
                matchable: Time::ZERO,
                src: 0,
                seq: seq as u32,
            })
            .collect();
        assert!(keys.is_sorted());
        keys
    }

    // The shard geometry, by hand: cuts fall only where `dest` changes,
    // each range but the last reaches ⌈n/target⌉ keys, and one range is
    // no range (delivered inline).
    #[test]
    fn cut_splits_at_destination_boundaries_only() {
        // Four destination segments of 3, 1, 2 and 4 keys.
        let mixed = keys(&[0, 0, 0, 1, 2, 2, 3, 3, 3, 3]);
        assert_eq!(cut(&mixed, 1), []);
        assert_eq!(cut(&mixed, 2), [0..6, 6..10]);
        assert_eq!(cut(&mixed, 3), [0..4, 4..10]);
        // More shards than destinations: one per segment.
        assert_eq!(cut(&mixed, 100), [0..3, 3..4, 4..6, 6..10]);
        // All-to-one fan-in has no legal cut at any target.
        let fan_in = keys(&[5; 8]);
        for target in [1, 2, 3, 100] {
            assert_eq!(cut(&fan_in, target), [], "target {target}");
        }
    }
}
