//! Per-rank state and the router connecting ranks.
//!
//! Each simulated MPI process (a scheduler task) owns a [`ProcState`]: its
//! global rank, its virtual clock, its RNG, and its context-ID pool. The
//! [`Router`] holds one mailbox per rank plus the cost model; sends are
//! buffered: the sending task stages each message for the epoch commit,
//! which deposits it into the destination mailbox.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::task::Poll;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::datum::Datum;
use crate::error::{MpiError, Result};
use crate::faults::{FaultState, RankBlame, RoundBlame, BLAME_CAP};
use crate::mailbox::Mailbox;
use crate::model::{CostModel, CostScale, VendorProfile};
use crate::msg::{ContextId, MatchPattern, Message, MsgInfo, SrcFilter, Tag};
use crate::obs::{MetricsSnapshot, OpClass, Trace, TraceEvent};
use crate::time::Time;

/// Why a rank is parked at a blocking point — the explicit wait state a
/// cooperative task carries while suspended. Surfaced in deadlock
/// diagnostics ("rank 5 blocked in recv(Exact(3), tag=7, ctx#2)").
#[derive(Clone, Debug)]
pub enum WaitReason {
    /// Blocked in a receive for this pattern.
    Recv(MatchPattern),
    /// Blocked in a probe for this pattern.
    Probe(MatchPattern),
}

impl std::fmt::Display for WaitReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (verb, pat) = match self {
            WaitReason::Recv(p) => ("recv", p),
            WaitReason::Probe(p) => ("probe", p),
        };
        write!(f, "{verb}({:?}, tag={}, {})", pat.src, pat.tag, pat.ctx)
    }
}

/// One rank's virtual clock and its per-[`OpClass`] send counters,
/// padded to a cache line so that scheduler workers stepping different
/// ranks never false-share. The cells live on the router (rather than
/// privately on each [`ProcState`]) so that blame diagnostics can report
/// any rank's last virtual-time activity when an operation stalls, and so
/// the metrics snapshot can sum every rank's counters.
#[repr(align(64))]
#[derive(Default)]
struct RankCell {
    clock: crate::time::VirtualClock,
    msgs: [AtomicU64; OpClass::COUNT],
    bytes: [AtomicU64; OpClass::COUNT],
}

impl RankCell {
    #[inline]
    fn count_class(&self, class: OpClass, bytes: usize) {
        self.msgs[class as usize].fetch_add(1, Ordering::Relaxed);
        self.bytes[class as usize].fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn msgs_of(&self, class: OpClass) -> u64 {
        self.msgs[class as usize].load(Ordering::Relaxed)
    }

    fn bytes_of(&self, class: OpClass) -> u64 {
        self.bytes[class as usize].load(Ordering::Relaxed)
    }
}

/// Shared fabric connecting all ranks: one mailbox per rank plus the
/// cost model. Sends stage their messages with the scheduler for commit
/// into the destination mailbox at the next epoch boundary (see
/// [`crate::sched`]).
pub struct Router {
    /// Destination mailboxes, indexed by global rank. Each mailbox carries
    /// its own lock: two ranks' deliveries never contend.
    pub mailboxes: Vec<Mailbox>,
    /// The α–β cost model all messages are priced under.
    pub cost: CostModel,
    /// Vendor pathology profile (jitter, collective scaling).
    pub vendor: VendorProfile,
    /// Resolved fault-injection state (default: no faults). Pure data —
    /// every fault decision is a hash of the perturbation seed, never a
    /// function of scheduling.
    pub faults: FaultState,
    /// Per-rank virtual clocks and per-[`OpClass`] send counters, indexed
    /// by global rank (always on; the counters are summed on read into the
    /// deterministic [`MetricsSnapshot`]).
    cells: Vec<RankCell>,
    /// Per-rank event-trace buffers, allocated only when the run traces.
    trace: Option<Vec<crate::obs::TraceCell>>,
}

impl Router {
    /// Build the fabric for `p` ranks under the given cost model, vendor
    /// profile, and fault state.
    pub fn new(p: usize, cost: CostModel, vendor: VendorProfile, faults: FaultState) -> Router {
        Router {
            mailboxes: (0..p).map(|_| Mailbox::new()).collect(),
            cost,
            vendor,
            faults,
            cells: (0..p).map(|_| RankCell::default()).collect(),
            trace: None,
        }
    }

    /// Allocate the per-rank trace buffers. Must be called before any rank
    /// runs (the universe does this when [`crate::SimConfig::trace`] is
    /// set), so every rank observes the same tracing mode for its whole
    /// lifetime.
    pub fn enable_trace(&mut self) {
        let p = self.mailboxes.len();
        self.trace = Some((0..p).map(|_| Default::default()).collect());
    }

    /// Merge the per-rank trace buffers into the global `(t, rank, seq)`
    /// order (`None` when tracing is off).
    pub fn collect_trace(&self) -> Option<Trace> {
        self.trace.as_deref().map(Trace::collect)
    }

    /// The deterministic model-metric snapshot of the fabric: traffic
    /// totals, per-class volumes, and mailbox scan work. The scheduler's
    /// counters (epochs, wake-ups, switches) are merged in by the
    /// universe, which owns the scheduler.
    pub fn metrics_base(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for class in OpClass::ALL {
            let i = class as usize;
            for cell in &self.cells {
                let m = cell.msgs_of(class);
                snap.class_msgs[i] += m;
                snap.class_bytes[i] += cell.bytes_of(class);
                snap.class_max_rank_msgs[i] = snap.class_max_rank_msgs[i].max(m);
            }
        }
        snap.messages = snap.class_msgs.iter().sum();
        snap.bytes = snap.class_bytes.iter().sum();
        snap.mailbox_scans = self.mailboxes.iter().map(|m| m.scans()).sum();
        snap
    }

    /// Rank `r`'s current virtual clock — its last virtual-time activity,
    /// as seen by blame diagnostics.
    pub fn clock_of(&self, r: usize) -> Time {
        self.cells[r].clock.now()
    }

    /// Number of ranks this router connects.
    pub fn nprocs(&self) -> usize {
        self.mailboxes.len()
    }
}

/// The simulator state owned by one rank: identity, virtual
/// clock, RNG stream, and context-ID pool.
pub struct ProcState {
    /// This process's rank in `MPI_COMM_WORLD`.
    pub global_rank: usize,
    /// The shared fabric (also owns this rank's clock — see `RankCell`).
    pub router: Arc<Router>,
    /// Deterministic per-rank random stream (pivot selection, jitter).
    pub rng: Mutex<StdRng>,
    /// MPICH-style context-ID allocation mask.
    pub ctx_pool: Mutex<crate::context::CtxPool>,
    /// Counter `b` of the §VI wide context-ID scheme.
    pub icomm_counter: AtomicU32,
    /// Program-order counter of messages this rank has sent — the jitter
    /// coordinate: worker-count invariant by construction.
    send_seq: AtomicU64,
    /// The [`OpClass`] currently attributed to this rank's sends, managed
    /// by the RAII guards in [`crate::obs`]. Lives here, not in a
    /// thread-local, because a future body suspends mid-collective and is
    /// polled again on a different worker thread.
    op_class: AtomicU8,
}

impl ProcState {
    /// Create the state for `global_rank`, with an RNG stream derived from
    /// `seed` and the rank.
    pub fn new(global_rank: usize, router: Arc<Router>, seed: u64) -> Arc<ProcState> {
        Arc::new(ProcState {
            global_rank,
            router,
            rng: Mutex::new(StdRng::seed_from_u64(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(global_rank as u64),
            )),
            ctx_pool: Mutex::new(crate::context::CtxPool::new()),
            icomm_counter: AtomicU32::new(0),
            send_seq: AtomicU64::new(0),
            op_class: AtomicU8::new(OpClass::P2p as u8),
        })
    }

    // ---- observability -----------------------------------------------------

    /// Set the current send-attribution class, returning the previous raw
    /// value (the obs guards restore it on drop). Only the rank itself
    /// touches its class, so a load and a store do (no atomic exchange).
    #[inline]
    pub(crate) fn set_op_class_raw(&self, v: u8) -> u8 {
        let prev = self.op_class.load(Ordering::Relaxed);
        self.op_class.store(v, Ordering::Relaxed);
        prev
    }

    /// The class this rank's sends are attributed to right now.
    #[inline]
    pub(crate) fn cur_class(&self) -> OpClass {
        OpClass::from_u8(self.op_class.load(Ordering::Relaxed))
    }

    /// Append an event to this rank's trace buffer, stamped with the
    /// rank's current virtual clock. No-op when tracing is off — the
    /// closure (and any allocation inside it) only runs when tracing, so
    /// the untraced hot path pays one branch on an `Option`.
    pub(crate) fn trace_push(&self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(cells) = &self.router.trace {
            cells[self.global_rank].push(self.now(), ev());
        }
    }

    // ---- virtual clock ----------------------------------------------------

    #[inline]
    fn clock(&self) -> &crate::time::VirtualClock {
        &self.router.cells[self.global_rank].clock
    }

    /// This rank's current virtual clock.
    #[inline]
    pub fn now(&self) -> Time {
        self.clock().now()
    }

    /// Advance the clock by `dt`. A rank slowed by the fault plan pays its
    /// multiplicative straggler factor on every local charge; the factor
    /// is exactly 1.0 for unaffected ranks, in which case no scaling (and
    /// no rounding) happens at all.
    pub fn advance(&self, dt: Time) {
        let f = self.router.faults.factor(self.global_rank);
        if f == 1.0 {
            self.clock().advance(dt);
        } else {
            self.clock().advance(dt.scale(f));
        }
    }

    /// `clock = max(clock, t)` — applied when a receive completes.
    pub fn advance_to(&self, t: Time) {
        self.clock().advance_to(t);
    }

    /// Charge local computation over `elems` elements.
    pub fn charge_compute(&self, elems: usize) {
        self.advance(self.router.cost.compute_cost(elems));
    }

    /// Charge an explicit span of virtual time.
    pub fn charge(&self, dt: Time) {
        self.advance(dt);
    }

    // ---- point-to-point on global ranks ------------------------------------

    /// Price one outgoing message of `bytes` payload bytes: charge the send
    /// overhead, apply vendor jitter, record traffic, and return the
    /// `(send_time, arrival)` pair the message is built from (it keeps
    /// only `arrival`).
    fn price_send(&self, bytes: usize, scale: CostScale) -> (Time, Time) {
        let t0 = self.now();
        self.advance(self.router.cost.send_overhead);
        let mut transfer = self.router.cost.transfer_time_scaled(bytes, scale);
        // Vendor jitter: collective-internal messages use `jitter_max`;
        // plain point-to-point (including everything RBC sends) uses the
        // weaker `p2p_jitter_max` — vendor p2p fluctuations hit RBC too.
        let jitter_cap = if scale == CostScale::NEUTRAL {
            self.router.vendor.p2p_jitter_max
        } else {
            self.router.vendor.jitter_max
        };
        if jitter_cap > 1.0 && bytes > self.router.vendor.jitter_threshold {
            let f: f64 = self.rng.lock().gen_range(1.0..jitter_cap);
            transfer = transfer.scale(f);
        }
        // Fault injection: a straggler's transfers take `factor ×` as long,
        // and the fault plan's arrival jitter inflates the arrival by a
        // pure hash of (perturb_seed, sender, send counter). Both inflate
        // the arrival *before* the message is staged, so the mailbox
        // selects jittered messages by arrival exactly like clean ones
        // (DESIGN.md §8) — and both are no-ops (bit for bit)
        // when the fault plan is empty or zero-magnitude.
        let faults = &self.router.faults;
        let f = faults.factor(self.global_rank);
        if f != 1.0 {
            transfer = transfer.scale(f);
        }
        let seq = self.send_seq.fetch_add(1, Ordering::Relaxed);
        let jit = faults.jitter_ns(self.global_rank, seq);
        if jit > 0 {
            transfer += Time::from_nanos(jit);
            self.trace_push(|| TraceEvent::FaultJitter { ns: jit });
        }
        self.router.cells[self.global_rank].count_class(self.cur_class(), bytes);
        (t0, t0 + transfer)
    }

    // ---- fault injection ---------------------------------------------------

    /// Whether this rank has crash-stopped: its own clock has reached its
    /// scheduled crash time. A pure per-rank predicate — monotone in the
    /// rank's own virtual time, independent of scheduling.
    #[inline]
    pub fn crashed(&self) -> bool {
        matches!(self.router.faults.crash_time(self.global_rank), Some(at) if self.now() >= at)
    }

    /// Timeout error for an operation attempted by this rank *after* its
    /// own crash point.
    fn crashed_err(&self, verb: &str, pat: &MatchPattern) -> MpiError {
        let at = self
            .router
            .faults
            .crash_time(self.global_rank)
            .expect("crashed_err on a rank with no crash scheduled");
        MpiError::Timeout {
            rank: self.global_rank,
            waited_for: format!(
                "{verb}({:?}, tag={}, {}) [rank crashed at {at}]",
                pat.src, pat.tag, pat.ctx
            ),
            virtual_now: self.now(),
            blame: self.blame_for(Some(pat)),
        }
    }

    /// Timeout error for a polling (nonblocking) operation whose task the
    /// cooperative scheduler poisoned: no further progress is possible.
    fn poisoned_err(&self, verb: &str, pat: &MatchPattern) -> MpiError {
        MpiError::Timeout {
            rank: self.global_rank,
            waited_for: format!(
                "{verb}({:?}, tag={}, {}) [cooperative stall: no further progress possible]",
                pat.src, pat.tag, pat.ctx
            ),
            virtual_now: self.now(),
            blame: self.blame_for(Some(pat)),
        }
    }

    /// Build the [`RoundBlame`] for an operation of this rank stalled on
    /// `pat` (`None` when no receive pattern is known, e.g. a nonblocking
    /// collective). Triggered crashes take global priority: whatever the
    /// pattern nominally waits on, a rank that has crash-stopped is the
    /// root cause, so the blame names exactly the triggered-crashed ranks.
    pub fn blame_for(&self, pat: Option<&MatchPattern>) -> RoundBlame {
        let faults = &self.router.faults;
        let p = self.router.nprocs();
        let me = self.global_rank;
        let crashed: Vec<usize> = faults
            .crashes()
            .iter()
            .filter(|&&(r, at)| self.router.clock_of(r) >= at)
            .map(|&(r, _)| r)
            .collect();
        let (listed, omitted) = if !crashed.is_empty() {
            let omitted = crashed.len().saturating_sub(BLAME_CAP);
            (
                crashed.into_iter().take(BLAME_CAP).collect::<Vec<_>>(),
                omitted,
            )
        } else {
            match pat.map(|p| &p.src) {
                Some(SrcFilter::Exact(g)) => (vec![*g], 0),
                Some(f @ (SrcFilter::Filter(_) | SrcFilter::Strided { .. })) => {
                    let all: Vec<usize> = (0..p).filter(|&r| r != me && f.matches(r)).collect();
                    let omitted = all.len().saturating_sub(BLAME_CAP);
                    (all.into_iter().take(BLAME_CAP).collect(), omitted)
                }
                Some(SrcFilter::Any) | None => {
                    let listed: Vec<usize> = (0..p).filter(|&r| r != me).take(BLAME_CAP).collect();
                    let omitted = p.saturating_sub(1).saturating_sub(listed.len());
                    (listed, omitted)
                }
            }
        };
        let blame = RoundBlame {
            waiting_on: listed
                .into_iter()
                .map(|r| {
                    let clock = self.router.clock_of(r);
                    RankBlame {
                        rank: r,
                        last_activity: clock,
                        health: faults.health_of(r, clock),
                    }
                })
                .collect(),
            omitted,
        };
        self.trace_push(|| TraceEvent::Blame {
            text: blame.to_string(),
        });
        blame
    }

    /// Fill in the blame of a [`MpiError::Timeout`] produced below the
    /// level that knows the fault state (scheduler poisoning). Errors that
    /// already carry blame pass through untouched.
    fn enrich_timeout(&self, e: MpiError, pat: Option<&MatchPattern>) -> MpiError {
        match e {
            MpiError::Timeout {
                rank,
                waited_for,
                virtual_now,
                blame,
            } if blame.is_empty() => MpiError::Timeout {
                rank,
                waited_for,
                virtual_now,
                blame: self.blame_for(pat),
            },
            other => other,
        }
    }

    /// Deposit `data` into `dest_global`'s mailbox. Buffered semantics:
    /// never blocks. `scale` models vendor-internal collective traffic;
    /// plain point-to-point uses `CostScale::NEUTRAL`.
    pub fn send_global<T: Datum>(
        &self,
        dest_global: usize,
        tag: Tag,
        ctx: ContextId,
        data: Vec<T>,
        scale: CostScale,
    ) {
        self.send_global_shared(dest_global, tag, ctx, Arc::new(data), scale);
    }

    /// Like [`ProcState::send_global`], but shipping a shared buffer: the
    /// `Arc` is cloned into the message in O(1) instead of copying the
    /// payload, so a fan-out of the same buffer to many destinations costs
    /// O(destinations) at the sender. Virtual-time pricing is identical to
    /// an owned send of the same bytes.
    pub fn send_global_shared<T: Datum>(
        &self,
        dest_global: usize,
        tag: Tag,
        ctx: ContextId,
        data: Arc<Vec<T>>,
        scale: CostScale,
    ) {
        // Crash-stop: a crashed rank's sends silently stop matching — no
        // pricing, no clock motion, no traffic, no staging. Peers observe
        // the silence as a timeout carrying a RoundBlame, never as a hang.
        if self.crashed() {
            self.trace_push(|| TraceEvent::FaultDrop { dest: dest_global });
            return;
        }
        let (t0, arrival) = self.price_send(data.len() * T::width(), scale);
        let msg = Message::new_shared(self.global_rank, tag, ctx, data, t0, arrival);
        self.trace_push(|| TraceEvent::Send {
            dest: dest_global,
            bytes: msg.bytes(),
            class: self.cur_class(),
            arrival,
        });
        crate::sched::stage_send(dest_global, msg);
    }

    /// One poll of a blocking receive matching `pat`; applies the
    /// virtual-time rule `clock = max(clock, arrival) + recv_overhead`.
    /// The one receive core: a future body suspends through the
    /// scheduler's claim, a thread body resolves it in place. Its future
    /// ([`crate::transport::recv_async`]) builds `pat` again on every poll,
    /// so a suspended receive stores no pattern. In try-mode a poll is one
    /// [`ProcState::try_recv_match`], and a miss is `Pending`.
    #[inline]
    pub fn poll_recv(&self, pat: &MatchPattern) -> Poll<Result<Message>> {
        if crate::sched::in_try_mode() {
            return tried(self.try_recv_match(pat));
        }
        if self.crashed() {
            return Poll::Ready(Err(self.crashed_err("recv", pat)));
        }
        let mb = &self.router.mailboxes[self.global_rank];
        crate::sched::claim(mb, pat, self.global_rank, self.now()).map(|claimed| {
            let m = claimed.map_err(|e| self.enrich_timeout(e, Some(pat)))?;
            self.account_delivery(&m);
            Ok(m)
        })
    }

    /// The post-claim half of every receive: virtual-time rule plus the
    /// `Deliver` trace event.
    fn account_delivery(&self, m: &Message) {
        self.advance_to(m.arrival);
        self.advance(self.router.cost.recv_overhead);
        self.trace_push(|| TraceEvent::Deliver {
            src: m.src_global,
            bytes: m.bytes(),
        });
    }

    /// Nonblocking receive attempt. On a hit, applies the same clock rule
    /// as a blocking receive. Errors when this rank has crash-stopped, or
    /// when the scheduler has poisoned the task (a stalled polling loop
    /// must fail loudly, not spin forever); a miss counts towards the
    /// spin limit of [`crate::sched`].
    pub fn try_recv_match(&self, pat: &MatchPattern) -> Result<Option<Message>> {
        if self.crashed() {
            return Err(self.crashed_err("try_recv", pat));
        }
        let hit = self.router.mailboxes[self.global_rank].try_claim(pat);
        match &hit {
            Some(m) => self.account_delivery(m),
            None if crate::sched::missed(self.global_rank) => {
                return Err(self.poisoned_err("try_recv", pat));
            }
            None => {}
        }
        Ok(hit)
    }

    /// Wait until this rank's mailbox receives a deposit: what a polling
    /// loop does between two sweeps of [`ProcState::try_recv_match`] /
    /// [`ProcState::iprobe_match`] that found nothing (the contract on
    /// [`crate::nbcoll::Progress::poll`]). Inside a nonblocking request's
    /// poll it returns `Pending` once instead, so the request reports
    /// `Ok(false)` and its waiter parks. On a scheduler task the rank is
    /// not stepped again before a commit delivers it a message, or the
    /// deadlock detector poisons it, in which case the next sweep fails
    /// with the poisoned receive's [`MpiError::Timeout`].
    pub async fn park_until_deposit(&self) {
        crate::sched::park_until_deposit(&self.router.mailboxes[self.global_rank]).await
    }

    /// One poll of a blocking probe: a matching message is available,
    /// and stays. Does not advance the clock past the arrival (the
    /// subsequent receive does). Waits like [`ProcState::poll_recv`], and
    /// in try-mode is one [`ProcState::iprobe_match`].
    pub fn poll_probe(&self, pat: &MatchPattern) -> Poll<Result<MsgInfo>> {
        if crate::sched::in_try_mode() {
            return tried(self.iprobe_match(pat));
        }
        if self.crashed() {
            return Poll::Ready(Err(self.crashed_err("probe", pat)));
        }
        let mb = &self.router.mailboxes[self.global_rank];
        crate::sched::probe(mb, pat, self.global_rank, self.now())
            .map(|probed| probed.map_err(|e| self.enrich_timeout(e, Some(pat))))
    }

    /// Nonblocking probe. Fails on self-crash and task poisoning, and
    /// counts a miss, exactly like [`ProcState::try_recv_match`].
    pub fn iprobe_match(&self, pat: &MatchPattern) -> Result<Option<MsgInfo>> {
        if self.crashed() {
            return Err(self.crashed_err("iprobe", pat));
        }
        match self.router.mailboxes[self.global_rank].probe(pat) {
            Some(i) => Ok(Some(i)),
            None if crate::sched::missed(self.global_rank) => Err(self.poisoned_err("iprobe", pat)),
            None => Ok(None),
        }
    }

    /// Uniform random value from this rank's deterministic stream.
    pub fn rand_index(&self, bound: usize) -> usize {
        if bound <= 1 {
            return 0;
        }
        self.rng.lock().gen_range(0..bound)
    }
}

/// A nonblocking attempt as one poll of a try-mode wait: a miss is
/// `Pending`.
#[inline]
fn tried<T>(attempt: Result<Option<T>>) -> Poll<Result<T>> {
    match attempt.transpose() {
        Some(done) => Poll::Ready(done),
        None => Poll::Pending,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::msg::SrcFilter;
    use std::future::Future;

    fn setup(p: usize) -> Vec<Arc<ProcState>> {
        setup_faulted(p, FaultState::default())
    }

    fn setup_faulted(p: usize, faults: FaultState) -> Vec<Arc<ProcState>> {
        let router = Arc::new(Router::new(
            p,
            CostModel::supermuc_like(),
            VendorProfile::neutral(),
            faults,
        ));
        (0..p)
            .map(|r| ProcState::new(r, Arc::clone(&router), 42))
            .collect()
    }

    /// The two `ProcState`s of a 2-rank universe under `plan`, each
    /// running `body` as a future body: sends stage for the epoch commit
    /// and receives wait on the scheduler, as in every real run.
    fn on_two<R, Fut>(plan: FaultPlan, body: impl Fn(Arc<ProcState>) -> Fut + Send + Sync) -> Vec<R>
    where
        R: Send,
        Fut: Future<Output = R> + Send,
    {
        let cfg = crate::SimConfig::default().with_seed(42).with_faults(plan);
        crate::Universe::run_poll(2, cfg, |env| body(Arc::clone(env.state()))).per_rank
    }

    /// A blocking receive of `pat`, polled as `transport::recv_async` polls
    /// it.
    async fn recv(me: &ProcState, pat: MatchPattern) -> Result<Message> {
        std::future::poll_fn(|_| me.poll_recv(&pat)).await
    }

    /// Rank 1's receive of rank 0's tag-7 messages.
    fn from_rank0() -> MatchPattern {
        MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Exact(0),
            tag: 7,
        }
    }

    #[test]
    fn rank_cell_counts_per_class() {
        let cell = RankCell::default();
        cell.count_class(OpClass::Bcast, 100);
        cell.count_class(OpClass::Bcast, 24);
        cell.count_class(OpClass::P2p, 8);
        assert_eq!(cell.msgs_of(OpClass::Bcast), 2);
        assert_eq!(cell.bytes_of(OpClass::Bcast), 124);
        assert_eq!(cell.msgs_of(OpClass::P2p), 1);
        assert_eq!(cell.bytes_of(OpClass::Scan), 0);
    }

    #[test]
    fn rank_cell_is_two_cache_lines() {
        // One clock plus two per-class counter arrays, padded to 64 bytes.
        assert_eq!(std::mem::size_of::<RankCell>(), 128);
    }

    #[test]
    fn send_recv_updates_clocks() {
        let cost = CostModel::supermuc_like();
        let got = on_two(FaultPlan::default(), |me| async move {
            if me.global_rank == 0 {
                me.send_global::<u64>(1, 7, ContextId::WORLD, vec![1, 2, 3], CostScale::NEUTRAL);
                return (me.now(), None);
            }
            let m = recv(&me, from_rank0()).await.unwrap();
            let (v, info) = m.take::<u64>().unwrap();
            assert_eq!(v, vec![1, 2, 3]);
            (me.now(), Some(info.arrival))
        });
        // Sender paid only the send overhead.
        assert_eq!(got[0], (cost.send_overhead, None));
        // Receiver's clock jumped to arrival (alpha + 24 bytes * beta) + recv overhead.
        let arrival = cost.transfer_time(24);
        assert_eq!(got[1], (arrival + cost.recv_overhead, Some(arrival)));
    }

    #[test]
    fn recv_does_not_rewind_clock() {
        let clocks = on_two(FaultPlan::default(), |me| async move {
            if me.global_rank == 0 {
                me.send_global::<u64>(1, 7, ContextId::WORLD, vec![1], CostScale::NEUTRAL);
            } else {
                me.advance(Time::from_millis(10));
                recv(&me, from_rank0()).await.unwrap();
            }
            me.now()
        });
        // Receiver was already past the arrival time; max() keeps it there.
        assert!(clocks[1] >= Time::from_millis(10));
    }

    #[test]
    fn try_recv_miss_leaves_clock() {
        let clocks = on_two(FaultPlan::default(), |me| async move {
            let pat = MatchPattern {
                ctx: ContextId::WORLD,
                src: SrcFilter::Any,
                tag: 0,
            };
            assert!(me.try_recv_match(&pat).unwrap().is_none());
            me.now()
        });
        assert_eq!(clocks, vec![Time::ZERO; 2]);
    }

    #[test]
    fn deterministic_rng_per_rank() {
        let a = setup(2);
        let b = setup(2);
        assert_eq!(a[0].rand_index(1000), b[0].rand_index(1000));
        assert_eq!(a[1].rand_index(1000), b[1].rand_index(1000));
    }

    #[test]
    fn charge_compute_uses_model() {
        let procs = setup(1);
        procs[0].charge_compute(5000);
        assert_eq!(procs[0].now(), Time::from_micros(5));
    }

    #[test]
    fn slowed_rank_pays_its_factor() {
        // frac = 1, max_factor such that every rank straggles; compare a
        // slowed rank's charge against a clean twin.
        let plan = FaultPlan::default()
            .with_slowdown(1.0, 4.0)
            .with_perturb_seed(11);
        let slowed = setup_faulted(2, FaultState::resolve(&plan, 2));
        let clean = setup(2);
        let f = slowed[0].router.faults.factor(0);
        assert!(f > 1.0, "rank 0 must straggle under frac=1");
        slowed[0].charge(Time::from_micros(100));
        clean[0].charge(Time::from_micros(100));
        assert_eq!(slowed[0].now(), Time::from_micros(100).scale(f));
        assert_eq!(clean[0].now(), Time::from_micros(100));
    }

    #[test]
    fn crashed_rank_sends_nothing_and_cannot_receive() {
        use crate::faults::RankHealth;
        let plan = FaultPlan::default().with_crash(0, Time::from_micros(10));
        let got = on_two(plan, |me| async move {
            if me.global_rank == 1 {
                // The message sent before the crash arrives; the one after
                // it never does, however many epochs rank 1 waits.
                recv(&me, from_rank0()).await.unwrap();
                for _ in 0..3 {
                    crate::yield_now_async().await;
                }
                assert!(me.try_recv_match(&from_rank0()).unwrap().is_none());
                return None;
            }
            // Before the crash time the rank behaves normally.
            assert!(!me.crashed());
            me.send_global::<u64>(1, 7, ContextId::WORLD, vec![1], CostScale::NEUTRAL);
            // Cross the crash point: sends become no-ops (no clock, no
            // traffic), receives fail with a self-blaming timeout.
            me.advance_to(Time::from_micros(10));
            assert!(me.crashed());
            let before = (me.now(), me.router.metrics_base());
            me.send_global::<u64>(1, 7, ContextId::WORLD, vec![2], CostScale::NEUTRAL);
            assert_eq!((me.now(), me.router.metrics_base()), before);
            Some(recv(&me, from_rank0()).await.unwrap_err())
        });
        match &got[0] {
            Some(MpiError::Timeout { rank, blame, .. }) => {
                assert_eq!(*rank, 0);
                assert_eq!(blame.ranks(), vec![0]);
                assert_eq!(
                    blame.waiting_on[0].health,
                    RankHealth::Crashed {
                        at: Time::from_micros(10)
                    }
                );
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn jitter_inflates_arrival_deterministically() {
        let arrival = |plan: FaultPlan| {
            on_two(plan, |me| async move {
                if me.global_rank == 0 {
                    let data = vec![1u64, 2, 3];
                    me.send_global(1, 7, ContextId::WORLD, data, CostScale::NEUTRAL);
                    return None;
                }
                Some(recv(&me, from_rank0()).await.unwrap().arrival)
            })[1]
                .expect("rank 1 received")
        };
        let plan = FaultPlan::default()
            .with_jitter(Time::from_micros(20))
            .with_perturb_seed(3);
        let a = arrival(plan.clone());
        assert_eq!(
            a,
            arrival(plan),
            "jitter must be a pure function of the plan"
        );
        let clean = arrival(FaultPlan::default());
        assert!(a >= clean && a <= clean + Time::from_micros(20));
    }

    #[test]
    fn blame_candidates_follow_the_pattern() {
        let procs = setup(12);
        procs[3].advance(Time::from_micros(9));
        let exact = procs[0].blame_for(Some(&MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Exact(3),
            tag: 1,
        }));
        assert_eq!(exact.ranks(), vec![3]);
        assert_eq!(exact.waiting_on[0].last_activity, Time::from_micros(9));
        let any = procs[0].blame_for(Some(&MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Any,
            tag: 1,
        }));
        assert_eq!(any.ranks(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(any.omitted, 3);
    }
}
