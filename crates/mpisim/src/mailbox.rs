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
//! one. Storage is three pieces per mailbox, none of which outlives the
//! messages it indexes:
//!
//! * **Slab.** Every pending message lives in one `Vec` of
//!   `{message, next}` nodes addressed by `u32` index. A claimed node goes
//!   onto a LIFO free list threaded through `next`, and a deposit takes
//!   the most recently freed node before growing the vector, so the slab's
//!   length is the mailbox's peak pending count and a refill lands on
//!   cache lines the last claim just touched.
//! * **FIFO links.** One map `(context, tag, source) → (head, tail)`. The
//!   nodes of a source's FIFO are chained head to tail through `next`; a
//!   deposit links behind `tail`, a claim unlinks `head`. The entry exists
//!   **iff** that source has a message pending under that `(context,
//!   tag)`: it is removed by the claim that drains the FIFO, so the table
//!   tracks pending sources, not sources ever heard from.
//! * **Heads index.** One map `(context, tag) → sorted Vec<(arrival,
//!   source)>` with exactly one element per FIFO of that bucket, keyed by
//!   the arrival of the FIFO's *head* (unique, one head per source). It
//!   changes only when a head changes: a deposit into an empty FIFO
//!   inserts, a claim removes and re-inserts the successor's key. A bucket
//!   whose vector empties is removed from the map and its vector kept (a
//!   handful of them) for the next bucket that opens.
//!
//! An exact-source claim is two hash lookups and never looks at another
//! source; a wildcard claim reads the first element of the heads vector
//! (a filtered one the first element passing the predicate) and then
//! proceeds as an exact claim: **expected O(1) for exact, O(log s) search
//! for the heads update with s the bucket's pending *sources*, independent
//! of the number of pending messages**. Both maps hash with a
//! multiplicative word hasher (keys come from the simulation, not from
//! outside the program). Slab, heads vectors and both tables only ever
//! grow, to a size set by the peak pending population, so a steady-state
//! storm touches the allocator not at all.
//!
//! # Blocking and wake-ups
//!
//! Thread-backend receivers block on the internal condvar with a wall-clock
//! timeout that acts as a deadlock detector ([`MpiError::Timeout`]).
//! A scheduler task instead arms the mailbox's one **wait slot** and
//! suspends. A mailbox has one reader, its own rank, and a suspended rank
//! sits in one wait, so one slot is all there is: a pattern
//! ([`Mailbox::claim_or_wait`], [`Mailbox::probe_or_wait`]) that only a
//! matching deposit satisfies, or, for a rank that *polls* several
//! patterns and cannot name one (a nonblocking machine, a janus sweeping
//! two levels), "any deposit" ([`Mailbox::wait_any`]). The deposit that
//! satisfies the wait clears it and says so to its caller; the epoch
//! commit, which knows whose mailbox it is pushing into, wakes that rank
//! (see [`crate::sched`]).

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::{MpiError, Result};
use crate::msg::{ContextId, MatchPattern, Message, MsgInfo, SrcFilter, Tag};
use crate::time::Time;

/// What the mailbox's rank is suspended on; see the module docs.
enum Wait {
    /// A `recv` / `probe`: satisfied by a deposit matching the pattern.
    Match(MatchPattern),
    /// A polling loop between sweeps: satisfied by any deposit.
    AnyDeposit,
}

/// Word-at-a-time multiplicative hasher (the Fx recipe) for the two
/// index maps. Their keys are a handful of integers produced by the
/// simulation itself, so SipHash's flood resistance buys nothing here.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// The table takes its bucket from the low bits, which a multiply
    /// leaves the weakest: fold the high half down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Slab index of "no node": end of a FIFO chain or of the free list.
const NIL: u32 = u32::MAX;

/// One slab slot: a pending message and its FIFO successor, or (with
/// `msg` taken) a free slot and the next free one.
struct Node {
    msg: Option<Message>,
    next: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct FifoKey {
    ctx: ContextId,
    tag: Tag,
    src: usize,
}

/// Slab indices of one source's oldest and newest pending message.
struct Fifo {
    head: u32,
    tail: u32,
}

/// The `(arrival, src)` keys of one `(context, tag)` bucket's FIFO heads,
/// sorted ascending.
type Heads = Vec<(Time, usize)>;

fn insert_head(heads: &mut Heads, key: (Time, usize)) {
    let i = heads.binary_search(&key).unwrap_err();
    heads.insert(i, key);
}

fn remove_head(heads: &mut Heads, key: (Time, usize)) {
    let i = heads.binary_search(&key).expect("head is indexed");
    heads.remove(i);
}

/// See the module docs ("Indexed storage") for the invariants tying
/// `slab`, `fifos` and `heads` together.
struct Inner {
    slab: Vec<Node>,
    /// Most recently freed slab slot, [`NIL`] if none.
    free: u32,
    fifos: WordMap<FifoKey, Fifo>,
    heads: WordMap<(ContextId, Tag), Heads>,
    /// Emptied heads vectors of drained buckets (at most
    /// [`Mailbox::SPARE_HEADS_CAP`]), capacity retained.
    spare_heads: Vec<Heads>,
    count: usize,
    /// The wait slot. Armed only by this mailbox's own rank, cleared by
    /// the deposit that satisfies it.
    wait: Option<Wait>,
    /// Pattern checks performed by deposits (one per deposit while a
    /// pattern is armed): the mailbox's share of the deterministic
    /// [`crate::obs::MetricsSnapshot`]. On the cooperative backend the
    /// armed wait at each commit is a pure function of the epoch
    /// structure, so this count is worker-invariant.
    scans: u64,
    /// Thread-backend receivers currently blocked on the condvar; a
    /// deposit notifies only when this is non-zero.
    cv_waiters: u32,
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

    /// Index the message under its `(ctx, tag, src)` FIFO; a FIFO that
    /// was empty also gains its entry in the bucket's heads vector.
    fn enqueue(&mut self, m: Message) {
        let (ctx, tag, src, arrival) = (m.ctx, m.tag, m.src_global, m.arrival);
        let node = self.alloc_node(m);
        match self.fifos.entry(FifoKey { ctx, tag, src }) {
            Entry::Occupied(mut e) => {
                let fifo = e.get_mut();
                self.slab[fifo.tail as usize].next = node;
                fifo.tail = node;
            }
            Entry::Vacant(e) => {
                e.insert(Fifo {
                    head: node,
                    tail: node,
                });
                let spare = &mut self.spare_heads;
                let heads = self
                    .heads
                    .entry((ctx, tag))
                    .or_insert_with(|| spare.pop().unwrap_or_default());
                insert_head(heads, (arrival, src));
            }
        }
        self.count += 1;
    }

    /// Source of the best matching candidate under MPI semantics: per-source
    /// FIFO heads only, earliest `(arrival, src)` among acceptable sources.
    /// An `Exact` source is returned unchecked.
    fn best_src(heads: &Heads, src: &SrcFilter) -> Option<usize> {
        match src {
            SrcFilter::Exact(s) => Some(*s),
            SrcFilter::Any => heads.first().map(|&(_, s)| s),
            filter => heads
                .iter()
                .find(|&&(_, s)| filter.matches(s))
                .map(|&(_, s)| s),
        }
    }

    fn claim(&mut self, pat: &MatchPattern) -> Option<Message> {
        let (ctx, tag) = (pat.ctx, pat.tag);
        // Entries, not `get_mut`: the claim that drains a FIFO (or the
        // bucket) removes it through the entry without a second probe.
        let Entry::Occupied(mut bucket) = self.heads.entry((ctx, tag)) else {
            return None;
        };
        let src = Self::best_src(bucket.get(), &pat.src)?;
        let Entry::Occupied(mut fifo) = self.fifos.entry(FifoKey { ctx, tag, src }) else {
            return None;
        };
        let head = fifo.get().head;
        let node = &mut self.slab[head as usize];
        let m = node.msg.take().expect("a linked node holds a message");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = head;
        self.count -= 1;

        let heads = bucket.get_mut();
        remove_head(heads, (m.arrival, src));
        if next != NIL {
            fifo.get_mut().head = next;
            let successor = self.slab[next as usize]
                .msg
                .as_ref()
                .expect("a linked node holds a message");
            insert_head(heads, (successor.arrival, src));
            return Some(m);
        }
        fifo.remove();
        if heads.is_empty() {
            let heads = bucket.remove();
            if self.spare_heads.len() < Mailbox::SPARE_HEADS_CAP {
                self.spare_heads.push(heads);
            }
        }
        Some(m)
    }

    fn probe(&self, pat: &MatchPattern) -> Option<MsgInfo> {
        let (ctx, tag) = (pat.ctx, pat.tag);
        let src = Self::best_src(self.heads.get(&(ctx, tag))?, &pat.src)?;
        let fifo = self.fifos.get(&FifoKey { ctx, tag, src })?;
        let head = self.slab[fifo.head as usize].msg.as_ref();
        Some(head.expect("a linked node holds a message").info())
    }
}

/// One rank's incoming-message queue with MPI matching semantics:
/// `(context, source, tag)` matching, FIFO per sender, earliest-arrival
/// selection among sources for wildcards.
pub struct Mailbox {
    inner: Mutex<Inner>,
    cv: Condvar,
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
                fifos: WordMap::default(),
                heads: WordMap::default(),
                spare_heads: Vec::new(),
                count: 0,
                wait: None,
                scans: 0,
                cv_waiters: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Bound on emptied heads vectors kept in [`Inner::spare_heads`];
    /// those of further drained buckets are dropped.
    const SPARE_HEADS_CAP: usize = 8;

    /// Deposit one message under the held lock; true if it satisfied the
    /// armed wait, which it then cleared. `AnyDeposit` is not a pattern
    /// check and adds nothing to `scans`. Both push flavours go through
    /// this single helper so their matching semantics can never drift
    /// apart: the sharded commit's serial-oracle equivalence (DESIGN.md
    /// §7) depends on [`Mailbox::push`] and [`Mailbox::push_batch`]
    /// agreeing exactly.
    #[inline]
    fn deposit(g: &mut Inner, m: Message) -> bool {
        let satisfied = match &g.wait {
            None => false,
            Some(Wait::AnyDeposit) => true,
            Some(Wait::Match(pat)) => {
                g.scans += 1;
                pat.matches(&m)
            }
        };
        if satisfied {
            g.wait = None;
        }
        g.enqueue(m);
        satisfied
    }

    /// Deposit a message and notify the condvar if a thread-backend
    /// receiver is blocked on it. True if the message satisfied the armed
    /// wait: the caller wakes this mailbox's rank.
    pub fn push(&self, m: Message) -> bool {
        let (satisfied, blocked) = {
            let mut g = self.inner.lock();
            (Self::deposit(&mut g, m), g.cv_waiters > 0)
        };
        if blocked {
            self.cv.notify_all();
        }
        satisfied
    }

    /// Deposit a batch of messages under **one** lock acquisition: the
    /// sharded epoch commit's entry point, which pushes each destination's
    /// globally-ordered message segment as one batch. If a message
    /// satisfied the armed wait, its index within the batch is appended to
    /// `fired` (at most one per call: the first satisfaction clears the
    /// slot). `msgs` is drained, not consumed, so the caller's batch
    /// buffer keeps its capacity for the next segment.
    pub fn push_batch(&self, msgs: &mut Vec<Message>, fired: &mut Vec<usize>) {
        if msgs.is_empty() {
            return;
        }
        let blocked = {
            let mut g = self.inner.lock();
            for (idx, m) in msgs.drain(..).enumerate() {
                if Self::deposit(&mut g, m) {
                    fired.push(idx);
                }
            }
            g.cv_waiters > 0
        };
        if blocked {
            self.cv.notify_all();
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
    /// with `pat` (replacing whatever it held). The check and the arming
    /// are one step under the mailbox lock; a hit clears the slot.
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

    /// Disarm the wait slot. Idempotent: the deposit that satisfied the
    /// wait already emptied it.
    pub fn clear_wait(&self) {
        self.inner.lock().wait = None;
    }

    /// Wait on the condvar for a deposit, counted in `cv_waiters` for the
    /// whole wait (the count changes only under the lock, so a deposit
    /// either sees it or the waiter sees the deposit). True on timeout.
    fn wait_timed_out(&self, g: &mut MutexGuard<'_, Inner>, timeout: Duration) -> bool {
        g.cv_waiters += 1;
        let timed_out = self.cv.wait_for(g, timeout).timed_out();
        g.cv_waiters -= 1;
        timed_out
    }

    /// Block (in wall-clock time) until a matching message can be claimed.
    pub fn claim_blocking(
        &self,
        pat: &MatchPattern,
        timeout: Duration,
        rank: usize,
        vnow: Time,
    ) -> Result<Message> {
        let mut g = self.inner.lock();
        loop {
            if let Some(m) = g.claim(pat) {
                return Ok(m);
            }
            if self.wait_timed_out(&mut g, timeout) {
                return Err(MpiError::Timeout {
                    rank,
                    waited_for: format!("recv({:?}, tag={}, {})", pat.src, pat.tag, pat.ctx),
                    virtual_now: vnow,
                    // The mailbox has no fault-state access; `ProcState`
                    // enriches the blame on the way out.
                    blame: crate::faults::RoundBlame::default(),
                });
            }
        }
    }

    /// Block until a matching message is present; do not remove it.
    pub fn probe_blocking(
        &self,
        pat: &MatchPattern,
        timeout: Duration,
        rank: usize,
        vnow: Time,
    ) -> Result<MsgInfo> {
        let mut g = self.inner.lock();
        loop {
            if let Some(info) = g.probe(pat) {
                return Ok(info);
            }
            if self.wait_timed_out(&mut g, timeout) {
                return Err(MpiError::Timeout {
                    rank,
                    waited_for: format!("probe({:?}, tag={}, {})", pat.src, pat.tag, pat.ctx),
                    virtual_now: vnow,
                    blame: crate::faults::RoundBlame::default(),
                });
            }
        }
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
    fn blocking_claim_times_out() {
        let mb = Mailbox::new();
        let err = mb
            .claim_blocking(
                &pat(SrcFilter::Exact(0), 1, 0),
                Duration::from_millis(20),
                3,
                Time(99),
            )
            .unwrap_err();
        assert!(matches!(err, MpiError::Timeout { rank: 3, .. }));
        assert_eq!(mb.inner.lock().cv_waiters, 0, "the wait un-counted itself");
    }

    #[test]
    fn blocking_claim_wakes_on_push() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            mb2.push(msg(0, 1, 0, 5, 7));
        });
        let m = mb
            .claim_blocking(
                &pat(SrcFilter::Exact(0), 1, 0),
                Duration::from_secs(5),
                0,
                Time(0),
            )
            .unwrap();
        assert_eq!(m.src_global, 0);
        h.join().unwrap();
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
            for src in 0..4 {
                mb.push(msg(src, 5, 0, 10 + src as u64, 0));
                mb.push(msg(src, 5, 0, 20, 1));
            }
            {
                let g = mb.inner.lock();
                assert_eq!((g.fifos.len(), g.heads.len(), g.slab.len()), (4, 1, 8));
            }
            // Drain by exact source in odd rounds, by wildcard in even ones.
            for src in 0..4 {
                let src = if round % 2 == 1 {
                    SrcFilter::Exact(src)
                } else {
                    SrcFilter::Any
                };
                assert!(mb.try_claim(&pat(src.clone(), 5, 0)).is_some());
                assert!(mb.try_claim(&pat(src, 5, 0)).is_some());
            }
            // Every entry died with its last message; the slab did not
            // grow past the peak and all of it is on the free list.
            let g = mb.inner.lock();
            assert!(g.fifos.is_empty() && g.heads.is_empty());
            assert_eq!((g.slab.len(), g.spare_heads.len(), g.count), (8, 1, 0));
            assert!(g.slab.iter().all(|n| n.msg.is_none()) && g.free != NIL);
        }
    }

    #[test]
    fn pattern_wait_is_satisfied_only_by_a_match_and_cleared_by_it() {
        let mb = Mailbox::new();
        assert!(mb.claim_or_wait(&pat(SrcFilter::Exact(1), 5, 0)).is_none());
        assert!(!mb.push(msg(2, 5, 0, 1, 0)), "wrong source");
        assert!(!mb.push(msg(1, 6, 0, 1, 0)), "wrong tag");
        assert!(mb.push(msg(1, 5, 0, 1, 0)), "the match satisfies the wait");
        assert!(!mb.push(msg(1, 5, 0, 2, 0)), "and cleared it");
        // One pattern check per deposit while the pattern was armed.
        assert_eq!(mb.scans(), 3);
    }

    #[test]
    fn push_batch_reports_the_trigger_once_and_keeps_deposit_order() {
        let mb = Mailbox::new();
        assert!(mb.probe_or_wait(&pat(SrcFilter::Any, 5, 0)).is_none());
        let mut batch = vec![
            msg(1, 6, 0, 1, 10), // wrong tag: not the trigger
            msg(1, 5, 0, 2, 11), // first match: the trigger, index 1
            msg(1, 5, 0, 3, 12), // wait already cleared
            msg(2, 5, 0, 1, 13),
        ];
        let mut fired = Vec::new();
        mb.push_batch(&mut batch, &mut fired);
        assert!(batch.is_empty(), "the batch buffer is drained for reuse");
        assert_eq!(fired, vec![1]);
        assert_eq!(mb.scans(), 2);
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
