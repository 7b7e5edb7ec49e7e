//! Differential test of the mailbox's indexed storage: random operation
//! sequences run against [`Mailbox`] and against a reference that keeps a
//! flat `Vec` of messages in deposit order and applies the matching rules
//! of the `mpisim::mailbox` module docs by literal scan. Every step must
//! return the same message, give the same verdict on the armed wait, and
//! leave the same `len` and `scans`.
//!
//! The walk runs in three shapes: the mixed one (3 contexts × 3 tags × 6
//! sources, 200 random cases), a *wide bucket* (one `(ctx, tag)`, 96
//! sources, at least 64 of them pending at once) and *many buckets* (24
//! `(ctx, tag)` pairs, at least 16 live at once, drained out of order):
//! the last two reach the tails of the index's linear walks (position
//! search over a bucket's sources, the sorted insert and the move of a
//! re-keyed source, the swap of a drained bucket behind the live ones),
//! which the traffic of the first never does.
//!
//! Plus one deep-bucket case whose run time would explode if any path
//! became linear in the number of pending messages, and one that deposits
//! the same messages in two source interleavings and finds nothing that
//! tells the two mailboxes apart: the epoch commit pushes in no
//! particular order across senders.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::sync::Arc;

use mpisim::mailbox::Mailbox;
use mpisim::msg::{ContextId, MatchPattern, Message, MsgInfo, SrcFilter};
use mpisim::Time;
use proptest::prelude::*;

const CTXS: [ContextId; 3] = [
    ContextId::Small(0),
    ContextId::Small(7),
    ContextId::Wide {
        a: 1,
        b: 2,
        f: 0,
        l: 5,
        c: 0,
    },
];

/// How many contexts (of [`CTXS`]), tags and sources a walk draws from.
#[derive(Clone, Copy)]
struct Shape {
    ctxs: usize,
    tags: u64,
    srcs: usize,
}

const MIXED: Shape = Shape {
    ctxs: 3,
    tags: 3,
    srcs: 6,
};

/// Xorshift stream: the vendored proptest shim has no collection
/// strategies, so a case is a seed and the operations are drawn from it.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

#[derive(Clone, Copy, Debug)]
enum RefSrc {
    Exact(usize),
    Any,
    /// Sources congruent to `.1` modulo `.0`.
    Mod(usize, usize),
}

impl RefSrc {
    fn accepts(self, src: usize) -> bool {
        match self {
            RefSrc::Exact(s) => s == src,
            RefSrc::Any => true,
            RefSrc::Mod(m, r) => src % m == r,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct RefPat {
    ctx: ContextId,
    tag: u64,
    src: RefSrc,
}

impl RefPat {
    fn draw(rng: &mut Rng, shape: Shape) -> RefPat {
        let src = match rng.below(4) {
            0 | 1 => RefSrc::Exact(rng.below(shape.srcs as u64) as usize),
            2 => RefSrc::Any,
            _ => {
                let m = 2 + rng.below(2) as usize;
                RefSrc::Mod(m, rng.below(m as u64) as usize)
            }
        };
        RefPat {
            ctx: CTXS[rng.below(shape.ctxs as u64) as usize],
            tag: rng.below(shape.tags),
            src,
        }
    }

    fn real(self) -> MatchPattern {
        MatchPattern {
            ctx: self.ctx,
            tag: self.tag,
            src: match self.src {
                RefSrc::Exact(s) => SrcFilter::Exact(s),
                RefSrc::Any => SrcFilter::Any,
                RefSrc::Mod(m, r) => SrcFilter::Filter(Arc::new(move |s| s % m == r)),
            },
        }
    }

    fn matches(self, m: &RefMsg) -> bool {
        m.ctx == self.ctx && m.tag == self.tag && self.src.accepts(m.src)
    }
}

/// A message as the reference sees it; `id` is unique and travels in the
/// real message's payload (`1 + id % 3` copies of it, so probes differ too).
#[derive(Clone, Copy, Debug, PartialEq)]
struct RefMsg {
    ctx: ContextId,
    tag: u64,
    src: usize,
    arrival: u64,
    id: u64,
}

impl RefMsg {
    fn draw(rng: &mut Rng, shape: Shape, id: u64) -> RefMsg {
        RefMsg {
            ctx: CTXS[rng.below(shape.ctxs as u64) as usize],
            tag: rng.below(shape.tags),
            src: rng.below(shape.srcs as u64) as usize,
            arrival: rng.below(40),
            id,
        }
    }

    fn count(&self) -> usize {
        1 + (self.id % 3) as usize
    }

    fn real(&self) -> Message {
        Message::new::<u64>(
            self.src,
            self.tag,
            self.ctx,
            vec![self.id; self.count()],
            Time::ZERO,
            Time(self.arrival),
        )
    }

    fn info(&self) -> MsgInfo {
        MsgInfo {
            src_global: self.src,
            tag: self.tag,
            count: self.count(),
            bytes: self.count() * 8,
            arrival: Time(self.arrival),
        }
    }
}

/// The reference's wait slot.
#[derive(Clone, Copy, Debug, Default)]
enum RefWait {
    #[default]
    None,
    AnyDeposit,
    Pattern(RefPat),
    /// A pattern a deposit satisfied: every later deposit is still a
    /// pattern check, and none fires.
    Satisfied,
}

/// The naive mailbox: messages in deposit order, every rule applied by
/// scanning, and the wait slot.
#[derive(Default)]
struct RefBox {
    msgs: Vec<RefMsg>,
    wait: RefWait,
    scans: u64,
}

impl RefBox {
    /// Deposit `m`; true if it satisfied the armed wait, which fires once.
    fn deposit(&mut self, m: RefMsg) -> bool {
        let satisfied = match self.wait {
            RefWait::None | RefWait::Satisfied => false,
            RefWait::AnyDeposit => true,
            RefWait::Pattern(pat) => pat.matches(&m),
        };
        self.scans += u64::from(matches!(
            self.wait,
            RefWait::Pattern(_) | RefWait::Satisfied
        ));
        if satisfied {
            self.wait = match self.wait {
                RefWait::Pattern(_) => RefWait::Satisfied,
                _ => RefWait::None,
            };
        }
        self.msgs.push(m);
        satisfied
    }

    /// Index into `msgs` of the message a receive with `pat` takes: per
    /// source only the oldest message under `(ctx, tag)` is a candidate;
    /// among the acceptable sources' candidates the smallest
    /// `(arrival, src)` wins.
    fn best(&self, pat: RefPat) -> Option<usize> {
        let mut seen = BTreeSet::new();
        let mut best: Option<usize> = None;
        for (i, m) in self.msgs.iter().enumerate() {
            if m.ctx != pat.ctx || m.tag != pat.tag || !seen.insert(m.src) {
                continue;
            }
            if !pat.src.accepts(m.src) {
                continue;
            }
            if best.is_none_or(|b| (m.arrival, m.src) < (self.msgs[b].arrival, self.msgs[b].src)) {
                best = Some(i);
            }
        }
        best
    }

    fn claim(&mut self, pat: RefPat) -> Option<RefMsg> {
        self.best(pat).map(|i| self.msgs.remove(i))
    }

    fn probe(&self, pat: RefPat) -> Option<RefMsg> {
        self.best(pat).map(|i| self.msgs[i])
    }

    /// `(live buckets, pending sources of the widest bucket)`.
    fn population(&self) -> (usize, usize) {
        let mut sources: HashMap<(ContextId, u64), BTreeSet<usize>> = HashMap::new();
        for m in &self.msgs {
            sources.entry((m.ctx, m.tag)).or_default().insert(m.src);
        }
        let widest = sources.values().map(BTreeSet::len).max();
        (sources.len(), widest.unwrap_or(0))
    }
}

fn assert_same_message(got: Option<Message>, want: Option<RefMsg>) {
    match (got, want) {
        (None, None) => {}
        (Some(m), Some(r)) => {
            let (payload, info) = m.take::<u64>().unwrap();
            assert_eq!(payload, vec![r.id; r.count()]);
            assert_eq!(info, r.info());
        }
        (got, want) => panic!("mailbox returned {got:?}, reference {want:?}"),
    }
}

/// Walk `steps` random operations; returns the peak [`RefBox::population`].
fn run_case(seed: u64, steps: usize, shape: Shape) -> (usize, usize) {
    let mut rng = Rng(seed | 1);
    let mb = Mailbox::new();
    let mut rf = RefBox::default();
    let mut next_msg = 0u64;
    let mut arms = 0u64;
    let mut peak = (0, 0);
    let mut fresh_msg = |rng: &mut Rng| {
        next_msg += 1;
        RefMsg::draw(rng, shape, next_msg)
    };
    for step in 0..steps {
        match rng.below(10) {
            0..=2 => {
                let m = fresh_msg(&mut rng);
                assert_eq!(mb.push(m.real()), rf.deposit(m));
            }
            3 => {
                let batch: Vec<RefMsg> = (0..rng.below(6)).map(|_| fresh_msg(&mut rng)).collect();
                let mut real: Vec<Message> = batch.iter().map(RefMsg::real).collect();
                let mut fired = Vec::new();
                mb.push_batch(&mut real, &mut fired);
                assert!(real.is_empty());
                let want: Vec<usize> = (0..batch.len())
                    .filter(|&idx| rf.deposit(batch[idx]))
                    .collect();
                assert_eq!(fired, want);
            }
            4 | 5 => {
                let pat = RefPat::draw(&mut rng, shape);
                assert_same_message(mb.try_claim(&pat.real()), rf.claim(pat));
            }
            6 => {
                let pat = RefPat::draw(&mut rng, shape);
                assert_eq!(mb.probe(&pat.real()), rf.probe(pat).map(|m| m.info()));
            }
            7 | 8 => {
                // Arm (or re-arm) a pattern, alternating the two flavours;
                // they differ only in whether a hit removes the message.
                let pat = RefPat::draw(&mut rng, shape);
                arms += 1;
                let want = rf.probe(pat);
                if arms.is_multiple_of(2) {
                    assert_same_message(mb.claim_or_wait(&pat.real()), rf.claim(pat));
                } else {
                    assert_eq!(mb.probe_or_wait(&pat.real()), want.map(|m| m.info()));
                }
                // A miss arms the slot over whatever it held, a hit clears it.
                rf.wait = match want {
                    None => RefWait::Pattern(pat),
                    Some(_) => RefWait::None,
                };
            }
            _ => {
                // Arm for any deposit, or clear (idempotent).
                if rng.below(2) == 0 {
                    mb.wait_any();
                    rf.wait = RefWait::AnyDeposit;
                } else {
                    mb.clear_wait();
                    rf.wait = RefWait::None;
                }
            }
        }
        assert_eq!(mb.len(), rf.msgs.len());
        assert_eq!(mb.scans(), rf.scans);
        if step % 16 == 0 {
            let now = rf.population();
            peak = (peak.0.max(now.0), peak.1.max(now.1));
        }
    }

    // Drain what is left through the wildcard path, bucket by bucket,
    // starting somewhere in the middle.
    let buckets = shape.ctxs as u64 * shape.tags;
    let start = rng.below(buckets);
    for k in 0..buckets {
        let b = (start + k) % buckets;
        let pat = RefPat {
            ctx: CTXS[(b / shape.tags) as usize],
            tag: b % shape.tags,
            src: RefSrc::Any,
        };
        while let Some(want) = rf.claim(pat) {
            assert_same_message(mb.try_claim(&pat.real()), Some(want));
        }
        assert!(mb.try_claim(&pat.real()).is_none());
    }
    assert!(mb.is_empty() && rf.msgs.is_empty());
    peak
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn mailbox_matches_flat_scan_reference(seed in any::<u64>(), steps in 1usize..400) {
        run_case(seed, steps, MIXED);
    }
}

/// One `(ctx, tag)` with up to 96 sources pending: exact, filtered and
/// wildcard claims interleaved with deposits while the bucket is wide.
#[test]
fn wide_bucket_matches_flat_scan_reference() {
    let shape = Shape {
        ctxs: 1,
        tags: 1,
        srcs: 96,
    };
    for seed in 1..=12u64 {
        let (_, widest) = run_case(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), 1500, shape);
        assert!(widest >= 64, "only {widest} sources were pending at once");
    }
}

/// 24 `(ctx, tag)` pairs of few sources each: buckets open, drain and
/// reopen in no particular order while most of them are live.
#[test]
fn many_live_buckets_match_flat_scan_reference() {
    let shape = Shape {
        ctxs: 3,
        tags: 8,
        srcs: 4,
    };
    for seed in 1..=12u64 {
        let (live, _) = run_case(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), 600, shape);
        assert!(live >= 16, "only {live} buckets were live at once");
    }
}

/// Deposit `msgs` into `mb` in an interleaving of its sources drawn from
/// `rng` that keeps every source's order, in runs of one to four
/// messages. Returns how many deposits fired the wait.
fn deposit_interleaved(mb: &Mailbox, msgs: &[RefMsg], rng: &mut Rng) -> usize {
    let mut queues: Vec<Vec<RefMsg>> = Vec::new();
    for m in msgs.iter().rev() {
        if queues.len() <= m.src {
            queues.resize_with(m.src + 1, Vec::new);
        }
        queues[m.src].push(*m);
    }
    let mut order = Vec::with_capacity(msgs.len());
    while order.len() < msgs.len() {
        let pending: Vec<usize> = (0..queues.len())
            .filter(|&s| !queues[s].is_empty())
            .collect();
        let src = pending[rng.below(pending.len() as u64) as usize];
        order.push(queues[src].pop().expect("a pending source"));
    }
    let mut fired = Vec::new();
    for run in order.chunks(1 + rng.below(4) as usize) {
        mb.push_batch(&mut run.iter().map(RefMsg::real).collect(), &mut fired);
    }
    fired.len()
}

/// The order-independence the epoch commit rests on: the same messages
/// deposited into two mailboxes, one commit at a time, in two
/// interleavings that each keep every source's order, leave both
/// answering every claim and probe alike, with the same `len` and
/// `scans`, firing in the same commits (and at most once per commit).
#[test]
fn deposit_order_across_sources_is_unobservable() {
    for seed in 1..=200u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (mb_a, mb_b) = (Mailbox::new(), Mailbox::new());
        let (mut rng_a, mut rng_b) = (Rng(seed * 3 + 1), Rng(seed * 5 + 1));
        let mut next_msg = 0u64;
        let (mut fired_a, mut fired_b) = (Vec::new(), Vec::new());
        for commit in 0..12 {
            // The rank's turn: it arms a wait (or leaves the slot as it
            // is) and claims or probes a little, on both mailboxes alike.
            match rng.below(5) {
                0 | 1 => {
                    let pat = RefPat::draw(&mut rng, MIXED);
                    let a = mb_a.probe_or_wait(&pat.real());
                    assert_eq!(a, mb_b.probe_or_wait(&pat.real()));
                }
                2 => {
                    mb_a.wait_any();
                    mb_b.wait_any();
                }
                3 => {
                    mb_a.clear_wait();
                    mb_b.clear_wait();
                }
                _ => {}
            }
            for _ in 0..rng.below(4) {
                let pat = RefPat::draw(&mut rng, MIXED);
                assert_eq!(mb_a.probe(&pat.real()), mb_b.probe(&pat.real()));
                let a = opened(mb_a.try_claim(&pat.real()));
                assert_eq!(a, opened(mb_b.try_claim(&pat.real())));
            }
            // The commit: one set of messages, two interleavings.
            let msgs: Vec<RefMsg> = (0..rng.below(24))
                .map(|_| {
                    next_msg += 1;
                    RefMsg::draw(&mut rng, MIXED, next_msg)
                })
                .collect();
            let a = deposit_interleaved(&mb_a, &msgs, &mut rng_a);
            let b = deposit_interleaved(&mb_b, &msgs, &mut rng_b);
            assert!(a <= 1 && b <= 1, "a wait fires once per commit");
            fired_a.extend((a == 1).then_some(commit));
            fired_b.extend((b == 1).then_some(commit));
            assert_eq!(mb_a.len(), mb_b.len());
            assert_eq!(mb_a.scans(), mb_b.scans(), "seed {seed}, commit {commit}");
        }
        assert_eq!(fired_a, fired_b, "seed {seed}");
        // Drain both through every bucket, wildcard by wildcard.
        for b in 0..MIXED.ctxs as u64 * MIXED.tags {
            let pat = RefPat {
                ctx: CTXS[(b / MIXED.tags) as usize],
                tag: b % MIXED.tags,
                src: RefSrc::Any,
            };
            while let Some(a) = opened(mb_a.try_claim(&pat.real())) {
                assert_eq!(Some(a), opened(mb_b.try_claim(&pat.real())));
            }
        }
        assert!(mb_a.is_empty() && mb_b.is_empty());
    }
}

/// A claimed message's payload and envelope.
fn opened(m: Option<Message>) -> Option<(Vec<u64>, MsgInfo)> {
    m.map(|m| m.take::<u64>().unwrap())
}

/// 2^14 sources with two messages each pending under one `(ctx, tag)`:
/// drained once by exact claims in reverse source order and once by
/// wildcard claims. A scan over pending messages per claim would make this
/// ~10^9 message visits.
#[test]
fn deep_bucket_drains_without_scanning_pending_messages() {
    const SOURCES: usize = 1 << 14;
    let ctx = ContextId::Small(3);
    // Head arrivals scrambled over the sources; the second message of a
    // source arrives earlier than its first for every third source (it
    // still must not overtake).
    let arrival = |src: usize, seq: u64| -> u64 {
        let head = (src as u64 * 7919) % 10_007;
        match (seq, src % 3) {
            (0, _) => head,
            (_, 0) => head / 2,
            _ => head + 1 + (src as u64 % 5),
        }
    };
    let fill = |mb: &Mailbox| {
        for seq in 0..2u64 {
            let mut batch: Vec<Message> = (0..SOURCES)
                .map(|src| {
                    let word = src as u64 * 2 + seq;
                    Message::new::<u64>(
                        src,
                        9,
                        ctx,
                        vec![word],
                        Time::ZERO,
                        Time(arrival(src, seq)),
                    )
                })
                .collect();
            mb.push_batch(&mut batch, &mut Vec::new());
        }
        assert_eq!(mb.len(), 2 * SOURCES);
    };
    let word = |m: Message| m.take::<u64>().unwrap().0[0];

    let mb = Mailbox::new();
    fill(&mb);
    for src in (0..SOURCES).rev() {
        let pat = MatchPattern {
            ctx,
            tag: 9,
            src: SrcFilter::Exact(src),
        };
        for seq in 0..2 {
            assert_eq!(word(mb.try_claim(&pat).unwrap()), src as u64 * 2 + seq);
        }
        assert!(mb.try_claim(&pat).is_none());
    }
    assert!(mb.is_empty());

    // Wildcard order from a heap of FIFO heads: pop the smallest
    // (arrival, src), then that source's successor becomes a head.
    fill(&mb);
    let any = MatchPattern {
        ctx,
        tag: 9,
        src: SrcFilter::Any,
    };
    let mut heads: BinaryHeap<Reverse<(u64, usize, u64)>> = (0..SOURCES)
        .map(|src| Reverse((arrival(src, 0), src, 0)))
        .collect();
    while let Some(Reverse((_, src, seq))) = heads.pop() {
        assert_eq!(word(mb.try_claim(&any).unwrap()), src as u64 * 2 + seq);
        if seq == 0 {
            heads.push(Reverse((arrival(src, 1), src, 1)));
        }
    }
    assert!(mb.is_empty());
}
