//! Per-rank mailboxes: the matching engine.
//!
//! Every rank owns one mailbox; senders push completed messages into the
//! destination's mailbox (sends are buffered, so they never block). Matching
//! follows MPI semantics:
//!
//! * a receive matches on `(context, source, tag)`;
//! * per `(sender, context)` messages are non-overtaking (FIFO): for a given
//!   source we only ever consider that source's *earliest* matching message;
//! * with a wildcard source, among the per-source head candidates we pick
//!   the one with the earliest *virtual arrival* — mirroring "the first
//!   message to physically arrive wins" of a real network, independent of
//!   the real-time interleaving of simulator threads.
//!
//! # Indexed storage
//!
//! Patterns always pin an exact `(context, tag)` pair (the libraries never
//! wildcard those) and per-source order is FIFO, so the only message of a
//! `(context, tag, source)` triple a receive can ever take is the oldest
//! one. Storage is a slab and **one** index over it, neither of which
//! outlives the messages it holds:
//!
//! * **Slab.** Every pending message lives in one `Vec` of
//!   `{message, next}` nodes addressed by `u32` index. A claimed node goes
//!   onto a LIFO free list threaded through `next`, and a deposit takes
//!   the most recently freed node before growing the vector, so the slab's
//!   length is the mailbox's peak pending count and a refill lands on
//!   cache lines the last claim just touched.
//! * **Buckets.** One `Vec` of `{context, tag, srcs}`. Its first `live`
//!   elements are the buckets with a message pending, found by comparing
//!   `(tag, context)` one after the other; the rest are emptied buckets
//!   kept for their `srcs` capacity. A bucket is live **iff** at least one
//!   source has a message pending under its `(context, tag)`: the claim
//!   that empties `srcs` swaps the bucket behind the live prefix, and the
//!   next `(context, tag)` to open, the same or a different one,
//!   overwrites its key and reuses its vector.
//! * **Sources.** `srcs` is one `Vec` of `{arrival, src, head, tail}`, one
//!   element per source, kept sorted by `(arrival, src)` where `arrival`
//!   is that of the source's *oldest* pending message (unique: one head
//!   per source). `head` and `tail` are the slab indices of the source's
//!   FIFO, chained through `next`. The element exists **iff** the FIFO is
//!   non-empty. A deposit finds its source by position and links behind
//!   `tail`, or inserts a new element at its sorted place; an exact claim
//!   finds its source by position, a wildcard claim takes the first
//!   element, a filtered one the first that passes the predicate; the
//!   claim then moves the element to the place of its successor's arrival
//!   or, if it took the FIFO's last message, removes it.
//!
//! Everything is a short linear walk, which is what the traffic calls for
//! (measured over the four ledger workloads and the 28 quick-mode
//! figures): a deposit finds at most 3 messages pending in 94–98 % of
//! cases and at most 7 in 99.5 %, a claim at most 2 live buckets in
//! 98.6 % and never more than 5; the widest bucket any figure produces
//! holds 52 sources and the fullest mailbox 57 messages. Half of all
//! claims find the mailbox *empty*, and return before looking at
//! anything. Hash tables, which this module used to keep two of, cost
//! five probes per message on that traffic and more than the matching
//! itself. The price is the deep bucket: every operation is **O(s) in the
//! bucket's pending *sources* `s`** (position search, and the `memmove`
//! of the sorted insert), independent of the number of pending messages.
//! A 4096-source all-to-one fan-in pays it (`tests/stress.rs`,
//! `commit_fan_in_all_to_one_4096`: within a quarter of the hashed
//! index's time, which paid the same `memmove` per claim), and
//! `tests/mailbox_diff.rs` drains a 2^14-source bucket. Slab and vectors
//! only ever grow, to a size set by the peak pending population, so a
//! steady-state storm touches the allocator not at all.
//!
//! # Blocking and wake-ups
//!
//! Nothing blocks on a mailbox: a receive that finds no match arms the
//! mailbox's one **wait slot** and its scheduler task suspends. A mailbox
//! has one reader, its own rank, and a suspended rank sits in one wait, so
//! one slot is all there is: a pattern
//! ([`Mailbox::claim_or_wait`], [`Mailbox::probe_or_wait`]) that only a
//! matching deposit satisfies, or, for a rank that *polls* several
//! patterns and cannot name one (a nonblocking machine, a janus sweeping
//! two levels), "any deposit" ([`Mailbox::wait_any`]). The deposit that
//! satisfies the wait says so to its caller, and the epoch commit, which
//! knows whose mailbox it is pushing into, wakes that rank (see
//! [`crate::sched`]). A wait fires once: a satisfied pattern stays in the
//! slot as `Satisfied` until the rank's next arm or `clear_wait`, and the
//! deposits it sees are still pattern checks (`scans`), so neither the
//! rank woken nor `scans` depends on the order of one commit's deposits.

use parking_lot::Mutex;

use crate::msg::{ContextId, MatchPattern, Message, MsgInfo, SrcFilter, Tag};
use crate::time::Time;

/// What the mailbox's rank is suspended on; see the module docs.
enum Wait {
    /// A `recv` / `probe`: satisfied by a deposit matching the pattern.
    Match(MatchPattern),
    /// A polling loop between sweeps: satisfied by any deposit.
    AnyDeposit,
    /// A `Match` a deposit satisfied, until the rank runs again: later
    /// deposits still count as pattern checks but fire nothing.
    Satisfied,
}

/// Slab index of "no node": end of a FIFO chain or of the free list.
const NIL: u32 = u32::MAX;

/// One slab slot: a pending message and its FIFO successor, or (with
/// `msg` taken) a free slot and the next free one.
struct Node {
    msg: Option<Message>,
    next: u32,
}

/// One source's FIFO under one `(context, tag)`: the slab indices of its
/// oldest and newest pending message, keyed by the oldest one's arrival.
#[derive(Clone, Copy)]
struct SrcFifo {
    arrival: Time,
    src: usize,
    head: u32,
    tail: u32,
}

impl SrcFifo {
    fn key(&self) -> (Time, usize) {
        (self.arrival, self.src)
    }
}

/// The pending sources of one `(context, tag)`, sorted by [`SrcFifo::key`].
struct Bucket {
    ctx: ContextId,
    tag: Tag,
    srcs: Vec<SrcFifo>,
}

/// See the module docs ("Indexed storage") for the invariants tying
/// `slab`, `buckets` and `live` together.
struct Inner {
    slab: Vec<Node>,
    /// Most recently freed slab slot, [`NIL`] if none.
    free: u32,
    buckets: Vec<Bucket>,
    /// `buckets[..live]` have a message pending, the rest are spares.
    live: usize,
    count: usize,
    /// The wait slot. Armed only by this mailbox's own rank; the deposit
    /// that satisfies it leaves `Satisfied` (a pattern) or nothing.
    wait: Option<Wait>,
    /// Pattern checks performed by deposits (one per deposit while a
    /// pattern is armed or satisfied): the mailbox's share of the
    /// deterministic [`crate::obs::MetricsSnapshot`]. The wait at each
    /// commit is a pure function of the epoch structure and every deposit
    /// of the commit counts, so this count depends on neither the worker
    /// count nor the push order.
    scans: u64,
}

impl Inner {
    /// Store `m` in the most recently freed slab slot, or a new one, and
    /// return its index.
    fn alloc_node(&mut self, m: Message) -> u32 {
        let idx = self.free;
        if idx != NIL {
            let node = &mut self.slab[idx as usize];
            self.free = std::mem::replace(&mut node.next, NIL);
            node.msg = Some(m);
            return idx;
        }
        let idx = u32::try_from(self.slab.len())
            .ok()
            .filter(|&idx| idx != NIL)
            .expect("fewer than 2^32 - 1 pending messages");
        self.slab.push(Node {
            msg: Some(m),
            next: NIL,
        });
        idx
    }

    /// Position of the live bucket of `(ctx, tag)`.
    fn bucket_of(&self, ctx: ContextId, tag: Tag) -> Option<usize> {
        self.buckets[..self.live]
            .iter()
            .position(|b| b.tag == tag && b.ctx == ctx)
    }

    /// Link the message behind its source's FIFO; a source (or a bucket)
    /// with nothing pending gains its element first.
    fn enqueue(&mut self, m: Message) {
        let (ctx, tag, src, arrival) = (m.ctx, m.tag, m.src_global, m.arrival);
        let node = self.alloc_node(m);
        self.count += 1;
        let b = self.bucket_of(ctx, tag).unwrap_or_else(|| {
            match self.buckets.get_mut(self.live) {
                Some(spare) => (spare.ctx, spare.tag) = (ctx, tag),
                None => self.buckets.push(Bucket {
                    ctx,
                    tag,
                    srcs: Vec::new(),
                }),
            }
            self.live += 1;
            self.live - 1
        });
        let srcs = &mut self.buckets[b].srcs;
        if let Some(fifo) = srcs.iter_mut().find(|f| f.src == src) {
            let tail = std::mem::replace(&mut fifo.tail, node);
            self.slab[tail as usize].next = node;
            return;
        }
        let fifo = SrcFifo {
            arrival,
            src,
            head: node,
            tail: node,
        };
        let at = srcs.partition_point(|f| f.key() < fifo.key());
        srcs.insert(at, fifo);
    }

    /// Where the best matching candidate sits, as `(bucket, source)`
    /// positions: per-source FIFO heads only, earliest `(arrival, src)`
    /// among acceptable sources.
    fn best(&self, pat: &MatchPattern) -> Option<(usize, usize)> {
        if self.count == 0 {
            return None;
        }
        let b = self.bucket_of(pat.ctx, pat.tag)?;
        let srcs = &self.buckets[b].srcs;
        let i = match &pat.src {
            SrcFilter::Exact(s) => srcs.iter().position(|f| f.src == *s)?,
            SrcFilter::Any => 0,
            filter => srcs.iter().position(|f| filter.matches(f.src))?,
        };
        Some((b, i))
    }

    fn claim(&mut self, pat: &MatchPattern) -> Option<Message> {
        let (b, i) = self.best(pat)?;
        let srcs = &mut self.buckets[b].srcs;
        let head = srcs[i].head;
        let node = &mut self.slab[head as usize];
        let m = node.msg.take().expect("a linked node holds a message");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = head;
        self.count -= 1;

        if next == NIL {
            srcs.remove(i);
            if srcs.is_empty() {
                self.live -= 1;
                self.buckets.swap(b, self.live);
            }
            return Some(m);
        }
        // The successor is the source's head now: move the element to the
        // place of its arrival, which may lie on either side.
        let successor = self.slab[next as usize].msg.as_ref();
        let fifo = SrcFifo {
            arrival: successor.expect("a linked node holds a message").arrival,
            head: next,
            ..srcs[i]
        };
        let at = if fifo.key() > srcs[i].key() {
            let at = i + srcs[i + 1..].partition_point(|f| f.key() < fifo.key());
            srcs[i..=at].rotate_left(1);
            at
        } else {
            let at = srcs[..i].partition_point(|f| f.key() < fifo.key());
            srcs[at..=i].rotate_right(1);
            at
        };
        srcs[at] = fifo;
        Some(m)
    }

    fn probe(&self, pat: &MatchPattern) -> Option<MsgInfo> {
        let (b, i) = self.best(pat)?;
        let head = self.slab[self.buckets[b].srcs[i].head as usize]
            .msg
            .as_ref();
        Some(head.expect("a linked node holds a message").info())
    }
}

/// One rank's incoming-message queue with MPI matching semantics:
/// `(context, source, tag)` matching, FIFO per sender, earliest-arrival
/// selection among sources for wildcards.
pub struct Mailbox {
    inner: Mutex<Inner>,
}

impl Default for Mailbox {
    fn default() -> Self {
        Mailbox::new()
    }
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Mailbox {
        Mailbox {
            inner: Mutex::new(Inner {
                slab: Vec::new(),
                free: NIL,
                buckets: Vec::new(),
                live: 0,
                count: 0,
                wait: None,
                scans: 0,
            }),
        }
    }

    /// Deposit one message under the held lock; true if it satisfied the
    /// armed wait, which then fires nothing more. `AnyDeposit` is not a
    /// pattern check and adds nothing to `scans`. Every push goes through
    /// this one helper (by way of [`Mailbox::push_all`]), so single pushes
    /// and the commit's runs cannot drift apart (DESIGN.md §7).
    #[inline]
    fn deposit(g: &mut Inner, m: Message) -> bool {
        let satisfied = match &g.wait {
            None => false,
            Some(Wait::AnyDeposit) => {
                g.wait = None;
                true
            }
            Some(Wait::Satisfied) => {
                g.scans += 1;
                false
            }
            Some(Wait::Match(pat)) => {
                g.scans += 1;
                let hit = pat.matches(&m);
                if hit {
                    g.wait = Some(Wait::Satisfied);
                }
                hit
            }
        };
        g.enqueue(m);
        satisfied
    }

    /// Deposit a run of messages under **one** lock acquisition. If a
    /// message satisfied the armed wait, returns its position in the run
    /// (at most one does: a wait fires once) and the caller wakes this
    /// mailbox's rank. The epoch commit's entry point: it feeds each run
    /// of one outbox's messages to this destination straight from where
    /// the senders staged them.
    pub(crate) fn push_all(&self, msgs: impl Iterator<Item = Message>) -> Option<usize> {
        let mut g = self.inner.lock();
        let mut fired = None;
        for (idx, m) in msgs.enumerate() {
            if Self::deposit(&mut g, m) {
                fired = Some(idx);
            }
        }
        fired
    }

    /// Deposit one message; true if it satisfied the armed wait.
    pub fn push(&self, m: Message) -> bool {
        self.push_all(std::iter::once(m)).is_some()
    }

    /// Deposit a batch of messages under one lock acquisition, appending
    /// to `fired` the index within the batch of the message that
    /// satisfied the armed wait, if one did. `msgs` is drained, not
    /// consumed, so the caller's batch buffer keeps its capacity.
    pub fn push_batch(&self, msgs: &mut Vec<Message>, fired: &mut Vec<usize>) {
        if !msgs.is_empty() {
            fired.extend(self.push_all(msgs.drain(..)));
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().count
    }

    /// Cumulative wait-pattern match checks performed by deposits into
    /// this mailbox (see [`crate::obs::MetricsSnapshot::mailbox_scans`]).
    pub fn scans(&self) -> u64 {
        self.inner.lock().scans
    }

    /// Whether no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return the best matching message, if any.
    pub fn try_claim(&self, pat: &MatchPattern) -> Option<Message> {
        self.inner.lock().claim(pat)
    }

    /// Non-destructive probe.
    pub fn probe(&self, pat: &MatchPattern) -> Option<MsgInfo> {
        self.inner.lock().probe(pat)
    }

    /// Claim the best match, or, if nothing matches, arm the wait slot
    /// with `pat` (replacing whatever it held, `Satisfied` too). The
    /// check and the arming are one step under the mailbox lock; a hit
    /// clears the slot.
    pub fn claim_or_wait(&self, pat: &MatchPattern) -> Option<Message> {
        let mut g = self.inner.lock();
        let hit = g.claim(pat);
        g.wait = hit.is_none().then(|| Wait::Match(pat.clone()));
        hit
    }

    /// Probe the best match, or arm the wait slot as
    /// [`Mailbox::claim_or_wait`] does.
    pub fn probe_or_wait(&self, pat: &MatchPattern) -> Option<MsgInfo> {
        let mut g = self.inner.lock();
        let hit = g.probe(pat);
        g.wait = hit.is_none().then(|| Wait::Match(pat.clone()));
        hit
    }

    /// Arm the wait slot for the next deposit of *any* message. Called by
    /// the mailbox's rank after a sweep of non-blocking receives found
    /// nothing and before it suspends; nothing is deposited in between
    /// because scheduler tasks run only between commits (DESIGN.md §4).
    pub fn wait_any(&self) {
        self.inner.lock().wait = Some(Wait::AnyDeposit);
    }

    /// Disarm the wait slot, satisfied or not. Idempotent.
    pub fn clear_wait(&self) {
        self.inner.lock().wait = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{ContextId, SrcFilter};
    use std::sync::Arc;

    fn msg(src: usize, tag: u64, ctx: u32, arrival: u64, val: u64) -> Message {
        Message::new::<u64>(
            src,
            tag,
            ContextId::Small(ctx),
            vec![val],
            Time(0),
            Time(arrival),
        )
    }

    fn pat(src: SrcFilter, tag: u64, ctx: u32) -> MatchPattern {
        MatchPattern {
            ctx: ContextId::Small(ctx),
            src,
            tag,
        }
    }

    #[test]
    fn fifo_per_source() {
        let mb = Mailbox::new();
        mb.push(msg(1, 5, 0, 100, 111));
        mb.push(msg(1, 5, 0, 50, 222)); // later push, earlier arrival — must NOT overtake
        let m = mb.try_claim(&pat(SrcFilter::Exact(1), 5, 0)).unwrap();
        let (v, _) = m.take::<u64>().unwrap();
        assert_eq!(v, vec![111]);
        let m = mb.try_claim(&pat(SrcFilter::Exact(1), 5, 0)).unwrap();
        let (v, _) = m.take::<u64>().unwrap();
        assert_eq!(v, vec![222]);
    }

    #[test]
    fn wildcard_prefers_earliest_arrival() {
        let mb = Mailbox::new();
        mb.push(msg(1, 5, 0, 100, 111)); // physically first, arrives late
        mb.push(msg(2, 5, 0, 10, 222)); // physically second, arrives early
        let m = mb.try_claim(&pat(SrcFilter::Any, 5, 0)).unwrap();
        assert_eq!(m.src_global, 2);
    }

    #[test]
    fn context_isolation() {
        let mb = Mailbox::new();
        mb.push(msg(1, 5, 7, 10, 1));
        assert!(mb.try_claim(&pat(SrcFilter::Any, 5, 8)).is_none());
        assert!(mb.try_claim(&pat(SrcFilter::Any, 5, 7)).is_some());
    }

    #[test]
    fn tag_isolation() {
        let mb = Mailbox::new();
        mb.push(msg(1, 5, 0, 10, 1));
        assert!(mb.try_claim(&pat(SrcFilter::Exact(1), 6, 0)).is_none());
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn filter_wildcard_skips_non_members() {
        let mb = Mailbox::new();
        mb.push(msg(9, 5, 0, 1, 1)); // not in range, earliest arrival
        mb.push(msg(3, 5, 0, 50, 2));
        let f = SrcFilter::Filter(Arc::new(|g| (2..=4).contains(&g)));
        let m = mb.try_claim(&pat(f, 5, 0)).unwrap();
        assert_eq!(m.src_global, 3);
        assert_eq!(mb.len(), 1); // rank 9's message untouched
    }

    #[test]
    fn probe_does_not_remove() {
        let mb = Mailbox::new();
        mb.push(msg(1, 5, 0, 10, 42));
        let info = mb.probe(&pat(SrcFilter::Any, 5, 0)).unwrap();
        assert_eq!(info.src_global, 1);
        assert_eq!(info.count, 1);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn exact_source_fifo_even_with_other_traffic() {
        let mb = Mailbox::new();
        mb.push(msg(2, 5, 0, 500, 1));
        mb.push(msg(1, 5, 0, 1, 2));
        // Exact(2) must take src 2's head even though src 1 arrives earlier.
        let m = mb.try_claim(&pat(SrcFilter::Exact(2), 5, 0)).unwrap();
        assert_eq!(m.src_global, 2);
    }

    #[test]
    fn heads_index_tracks_pops_and_reinserts() {
        // Regression for the indexed storage: popping a head must expose
        // the source's next message at its own arrival key.
        let mb = Mailbox::new();
        mb.push(msg(1, 5, 0, 10, 1)); // src 1 head, arrival 10
        mb.push(msg(1, 5, 0, 5, 2)); //  src 1 second, arrival 5 (no overtake)
        mb.push(msg(2, 5, 0, 7, 3)); //  src 2 head, arrival 7
        let p = pat(SrcFilter::Any, 5, 0);
        // Heads are (10, src1) and (7, src2): src2 wins.
        assert_eq!(mb.try_claim(&p).unwrap().src_global, 2);
        // Now heads are (10, src1) only.
        let (v, _) = mb.try_claim(&p).unwrap().take::<u64>().unwrap();
        assert_eq!(v, vec![1]);
        // src1's second message surfaced with arrival 5.
        let (v, _) = mb.try_claim(&p).unwrap().take::<u64>().unwrap();
        assert_eq!(v, vec![2]);
        assert!(mb.is_empty());
    }

    #[test]
    fn index_tracks_pending_sources_and_slab_slots_are_reused() {
        let mb = Mailbox::new();
        for round in 0..3 {
            // A different `(ctx, tag)` every round: the one bucket the
            // mailbox ever needs serves them all.
            let tag = 5 + round as u64;
            for src in 0..4 {
                mb.push(msg(src, tag, round, 10 + src as u64, 0));
                mb.push(msg(src, tag, round, 20, 1));
            }
            {
                let g = mb.inner.lock();
                assert_eq!((g.live, g.buckets[0].srcs.len(), g.slab.len()), (1, 4, 8));
            }
            // Drain by exact source in odd rounds, by wildcard in even ones.
            for src in 0..4 {
                let src = if round % 2 == 1 {
                    SrcFilter::Exact(src)
                } else {
                    SrcFilter::Any
                };
                assert!(mb.try_claim(&pat(src.clone(), tag, round)).is_some());
                assert!(mb.try_claim(&pat(src, tag, round)).is_some());
            }
            // Every entry died with its last message and the bucket with
            // its last entry, keeping its capacity; the slab did not grow
            // past the peak and all of it is on the free list.
            let g = mb.inner.lock();
            assert_eq!((g.live, g.buckets.len(), g.count), (0, 1, 0));
            assert!(g.buckets[0].srcs.is_empty() && g.buckets[0].srcs.capacity() >= 4);
            assert!(g.slab.len() == 8 && g.slab.iter().all(|n| n.msg.is_none()) && g.free != NIL);
        }
    }

    #[test]
    fn a_drained_bucket_is_swapped_behind_the_live_ones() {
        let mb = Mailbox::new();
        for tag in 0..3 {
            mb.push(msg(1, tag, 0, 10, tag));
        }
        // Draining the first of three live buckets moves the last into
        // its place; the one in the middle is still found.
        assert!(mb.try_claim(&pat(SrcFilter::Any, 0, 0)).is_some());
        {
            let g = mb.inner.lock();
            assert_eq!((g.live, g.buckets.len()), (2, 3));
            assert_eq!((g.buckets[0].tag, g.buckets[1].tag), (2, 1));
        }
        assert!(mb.try_claim(&pat(SrcFilter::Any, 0, 0)).is_none());
        assert!(mb.probe(&pat(SrcFilter::Exact(1), 1, 0)).is_some());
        assert!(mb.try_claim(&pat(SrcFilter::Exact(1), 2, 0)).is_some());
        assert!(mb.try_claim(&pat(SrcFilter::Exact(1), 1, 0)).is_some());
        assert_eq!(mb.inner.lock().live, 0);
    }

    #[test]
    fn an_empty_mailbox_answers_without_looking() {
        let mb = Mailbox::new();
        assert!(mb.try_claim(&pat(SrcFilter::Any, 5, 0)).is_none());
        assert!(mb.probe(&pat(SrcFilter::Exact(1), 5, 0)).is_none());
        // Also once it has been used: nothing pending, nothing live.
        mb.push(msg(1, 5, 0, 10, 1));
        assert!(mb.try_claim(&pat(SrcFilter::Exact(1), 5, 0)).is_some());
        assert!(mb.try_claim(&pat(SrcFilter::Exact(1), 5, 0)).is_none());
        assert!(mb.probe(&pat(SrcFilter::Any, 5, 0)).is_none());
        assert!(mb.is_empty());
    }

    #[test]
    fn pattern_wait_is_satisfied_only_by_a_match_and_fires_once() {
        let mb = Mailbox::new();
        assert!(mb.claim_or_wait(&pat(SrcFilter::Exact(1), 5, 0)).is_none());
        assert!(!mb.push(msg(2, 5, 0, 1, 0)), "wrong source");
        assert!(!mb.push(msg(1, 6, 0, 1, 0)), "wrong tag");
        assert!(mb.push(msg(1, 5, 0, 1, 0)), "the match satisfies the wait");
        assert!(!mb.push(msg(1, 5, 0, 2, 0)), "which fires once");
        // One pattern check per deposit while the pattern was armed or
        // satisfied: the count does not depend on where the match fell.
        assert_eq!(mb.scans(), 4);
    }

    #[test]
    fn push_batch_reports_the_trigger_once_and_keeps_deposit_order() {
        let mb = Mailbox::new();
        assert!(mb.probe_or_wait(&pat(SrcFilter::Any, 5, 0)).is_none());
        let mut batch = vec![
            msg(1, 6, 0, 1, 10), // wrong tag: not the trigger
            msg(1, 5, 0, 2, 11), // first match: the trigger, index 1
            msg(1, 5, 0, 3, 12), // wait already satisfied
            msg(2, 5, 0, 1, 13),
        ];
        let mut fired = Vec::new();
        mb.push_batch(&mut batch, &mut fired);
        assert!(batch.is_empty(), "the batch buffer is drained for reuse");
        assert_eq!(fired, vec![1]);
        assert_eq!(mb.scans(), 4);
        // Messages landed with per-source FIFO and wildcard order exactly
        // as a sequence of single pushes would have left them.
        let p5 = pat(SrcFilter::Any, 5, 0);
        assert_eq!(mb.try_claim(&p5).unwrap().src_global, 2); // arrival 1
        let (v, _) = mb.try_claim(&p5).unwrap().take::<u64>().unwrap();
        assert_eq!(v, vec![11]); // src 1 head, arrival 2
        let (v, _) = mb.try_claim(&p5).unwrap().take::<u64>().unwrap();
        assert_eq!(v, vec![12]);
        assert_eq!(
            mb.try_claim(&pat(SrcFilter::Any, 6, 0)).unwrap().src_global,
            1
        );
        assert!(mb.is_empty());
    }

    #[test]
    fn any_deposit_wait_fires_once_and_is_not_a_pattern_check() {
        let mb = Mailbox::new();
        mb.wait_any();
        let mut batch = vec![msg(1, 9, 0, 1, 0), msg(2, 5, 0, 2, 0)];
        let mut fired = Vec::new();
        mb.push_batch(&mut batch, &mut fired);
        assert_eq!(fired, vec![0], "once per batch, by its first message");
        assert!(!mb.push(msg(1, 9, 0, 3, 0)), "the deposit cleared the slot");
        mb.wait_any();
        assert!(mb.push(msg(1, 9, 0, 4, 0)), "re-armed");
        // `clear_wait` disarms, and is idempotent.
        mb.wait_any();
        mb.clear_wait();
        mb.clear_wait();
        assert!(!mb.push(msg(1, 9, 0, 5, 0)));
        assert_eq!(mb.scans(), 0);
    }

    #[test]
    fn a_later_arming_replaces_an_earlier_one() {
        let mb = Mailbox::new();
        assert!(mb.claim_or_wait(&pat(SrcFilter::Exact(7), 5, 0)).is_none());
        assert!(mb.probe_or_wait(&pat(SrcFilter::Exact(8), 5, 0)).is_none());
        assert!(!mb.push(msg(7, 5, 0, 1, 0)), "the first pattern is gone");
        mb.wait_any();
        assert!(mb.push(msg(9, 9, 0, 2, 0)), "any deposit, not source 8");
        assert!(mb.claim_or_wait(&pat(SrcFilter::Exact(8), 5, 0)).is_none());
        assert!(!mb.push(msg(9, 9, 0, 3, 0)), "a pattern again");
        assert!(mb.push(msg(8, 5, 0, 4, 0)));
    }

    #[test]
    fn empty_push_batch_is_a_no_op() {
        let mb = Mailbox::new();
        let mut fired = Vec::new();
        mb.push_batch(&mut Vec::new(), &mut fired);
        assert!(fired.is_empty());
        assert!(mb.is_empty());
    }

    #[test]
    fn immediate_hit_does_not_arm_and_clears_a_stale_wait() {
        let mb = Mailbox::new();
        mb.push(msg(1, 5, 0, 1, 42));
        mb.wait_any();
        let m = mb.claim_or_wait(&pat(SrcFilter::Any, 5, 0)).unwrap();
        assert_eq!(m.src_global, 1);
        assert!(!mb.push(msg(1, 5, 0, 2, 0)));
        assert!(mb.probe_or_wait(&pat(SrcFilter::Any, 5, 0)).is_some());
        assert!(!mb.push(msg(1, 5, 0, 3, 0)));
        assert_eq!(mb.scans(), 0);
    }
}
