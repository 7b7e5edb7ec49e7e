//! The four workloads: what each simulates, how its inputs come from the
//! seed, and how its outputs are checked.
//!
//! A *repetition* builds one universe, runs the workload's rank program on
//! it and tears it down; the host wall-clock of exactly that is `wall_s`.
//! Inputs are generated from the seed before the clock starts and outputs
//! are checked after it stops. All rank programs are `async` and go through
//! `Universe::run_poll`, which also serves the fiber backend, so the fiber
//! variant of `jquick_latency_poll` runs the identical program.
//!
//! Every workload runs on one worker thread: on a shared two-core host a
//! two-worker run measures the host's scheduler as much as the program.
//! The fiber and two-worker *variants* ([`Workload::variant`]) are timed
//! in the traced run, as per-layer diagnostics without a bound.
//!
//! Configs are built from `SimConfig::default()` with explicit setters
//! only; `SimConfig::cooperative()` reads `MPISIM_*` knobs and is never
//! used here.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use jquick::{
    fingerprint, generate_workload, jquick_sort_async, Dist, JQuickConfig, Layout, RbcBackend,
    SortStats,
};
use mpisim::nbcoll::{waitall_async, Ibcast, Ireduce, Iscan};
use mpisim::pool::PayloadCounters;
use mpisim::proc::ProcState;
use mpisim::{
    recv_async, Backend, Group, MetricsSnapshot, ProcEnv, Progress, Request, SchedProfile,
    SimConfig, SimResult, Src, Transport, Universe,
};
use rbc::RbcComm;

/// The storm's send offsets and messages per offset and round: the
/// `commit_storm` shape of `crates/bench/benches/micro.rs`.
pub const STORM_OFFSETS: [usize; 4] = [1, 4, 9, 16];
pub const STORM_PER: usize = 8;
/// Tags collide on purpose: offsets 0 and 3 share tag 0.
const STORM_TAGS: u64 = 3;

/// What a workload simulates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Janus Quicksort over RBC communicators, `n_per` uniform doubles per
    /// rank.
    JQuick { n_per: u64 },
    /// The wildcard point-to-point storm, `rounds` rounds.
    Storm { rounds: usize },
    /// RBC split chain, then `create_group`, then native `split`.
    CommCreate,
    /// `iters` rounds of ibcast + ireduce + iscan in flight together on
    /// `len` doubles, first half on an RBC communicator, second half on
    /// the native one.
    NbcOverlap { iters: usize, len: usize },
}

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub p: usize,
    pub backend: Backend,
    pub workers: usize,
}

/// The wildcard point-to-point storm: p = 2^10, 32 rounds. Not one of the
/// workloads with a bound (of all shapes tried it was the least steady on
/// this host, calibrated or not); the traced run times it on one and on
/// two workers as `sched.storm_w{1,2}_ns_per_msg`.
pub fn storm(smoke: bool) -> Workload {
    Workload {
        name: "p2p_storm",
        why: "wide epochs of ~32 k one-word wildcard messages: commit ordering, push_batch, wake merge and mailbox matching dominate",
        kind: Kind::Storm {
            rounds: if smoke { 4 } else { 32 },
        },
        p: if smoke { 1 << 8 } else { 1 << 10 },
        backend: Backend::Poll,
        workers: 1,
    }
}

/// Every workload, in report order. `smoke` shrinks each to p = 2^8 (same
/// programs and checks, numbers not comparable with a full run).
pub fn all(smoke: bool) -> Vec<Workload> {
    let p = |full: usize| if smoke { 1 << 8 } else { full };
    let w = |name, why, kind, p| Workload {
        name,
        why,
        kind,
        p,
        backend: Backend::Poll,
        workers: 1,
    };
    vec![
        w(
            "jquick_latency_poll",
            "paper's headline regime (n/p = 8, large p): thin epochs of tiny messages, so sched, mailbox and rbc::coll do the work",
            Kind::JQuick { n_per: 8 },
            p(1 << 11),
        ),
        w(
            "jquick_bulk",
            "opposite regime (n/p = 2^14, small p): partition, exchange encode/decode and large payload moves dominate, sched does little",
            Kind::JQuick {
                n_per: if smoke { 1 << 10 } else { 1 << 14 },
            },
            1 << 8,
        ),
        w(
            "comm_create",
            "the paper's title claim: RBC split chain vs create_group vs native split; host time sits in comm, splitdist, context, group and coll",
            Kind::CommCreate,
            p(1 << 11),
        ),
        w(
            "nbc_overlap",
            "ibcast + ireduce + iscan in flight together under waitall: the only run of the hand-written nbcoll / rbc::nbc state machines",
            Kind::NbcOverlap {
                iters: if smoke { 4 } else { 32 },
                len: 64,
            },
            p(1 << 10),
        ),
    ]
}

/// The inputs of one workload, generated from the seed.
pub enum Inputs {
    JQuick {
        n: u64,
        per_rank: Vec<Vec<f64>>,
        fingerprint: u64,
    },
    Storm {
        salt: u64,
        /// Per rank: messages to receive and their wrapping checksum.
        expected: Vec<(u64, u64)>,
    },
    CommCreate,
    Nbc {
        base: f64,
    },
}

/// What the traced run switches on for one repetition.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Observe {
    pub trace: bool,
    pub profile: bool,
}

/// Per-sort statistics folded over ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SortSummary {
    pub max_level: u32,
    pub stuck_retries: u64,
    pub base_1: u64,
    pub base_2: u64,
    /// Largest output over n/p; JQuick must read exactly 1.0.
    pub imbalance: f64,
}

/// The outcome of one repetition.
pub struct Rep {
    pub wall_s: f64,
    pub virtual_ns: u64,
    pub metrics: MetricsSnapshot,
    pub pool: PayloadCounters,
    /// `Err` if a rank failed or the output check did.
    pub check: Result<(), String>,
    pub sort: Option<SortSummary>,
    /// `Request::test` calls per completed request (nbc_overlap only).
    pub polls_per_completion: Option<f64>,
    pub profile: Option<SchedProfile>,
    pub trace_events: Option<u64>,
}

impl Rep {
    /// The deterministic counts a host-only change must leave identical.
    pub fn model_counts(&self) -> (u64, u64, u64) {
        (self.virtual_ns, self.metrics.messages, self.metrics.epochs)
    }
}

/// One seeded word of storm payload.
fn storm_word(salt: u64, src: usize, round: usize, i: usize, k: usize) -> u64 {
    let mut h =
        salt ^ (((src as u64) << 32) | ((round as u64) << 16) | ((i as u64) << 8) | k as u64);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl Workload {
    /// The same program, inputs and checks on another backend or worker
    /// count.
    pub fn variant(&self, backend: Backend, workers: usize) -> Workload {
        Workload {
            backend,
            workers,
            ..self.clone()
        }
    }

    /// The simulator configuration of this workload.
    pub fn config(&self, seed: u64, observe: Observe) -> SimConfig {
        SimConfig::default()
            .with_backend(self.backend)
            .with_workers(self.workers)
            .with_seed(seed)
            .with_trace(observe.trace)
            .with_sched_profile(observe.profile)
    }

    /// Generate this workload's inputs from `seed`.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let p = self.p;
        match self.kind {
            Kind::JQuick { n_per } => {
                let n = n_per * p as u64;
                let layout = Layout::new(n, p as u64);
                let per_rank: Vec<Vec<f64>> = (0..p as u64)
                    .map(|r| generate_workload(&layout, r, seed, Dist::Uniform))
                    .collect();
                let fingerprint = per_rank
                    .iter()
                    .map(|v| fingerprint(v))
                    .fold(0u64, u64::wrapping_add);
                Inputs::JQuick {
                    n,
                    per_rank,
                    fingerprint,
                }
            }
            Kind::Storm { rounds } => {
                let salt = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let expected = (0..p)
                    .map(|r| {
                        let mut sum = 0u64;
                        for (k, off) in STORM_OFFSETS.iter().enumerate() {
                            let src = (r + p - off % p) % p;
                            for round in 0..rounds {
                                for i in 0..STORM_PER {
                                    sum = sum.wrapping_add(storm_word(salt, src, round, i, k));
                                }
                            }
                        }
                        ((rounds * STORM_PER * STORM_OFFSETS.len()) as u64, sum)
                    })
                    .collect();
                Inputs::Storm { salt, expected }
            }
            Kind::CommCreate => Inputs::CommCreate,
            Kind::NbcOverlap { .. } => Inputs::Nbc {
                base: (seed % 1000) as f64,
            },
        }
    }

    /// Run one repetition and check its output.
    pub fn run(&self, inputs: &Inputs, seed: u64, observe: Observe) -> Rep {
        let p = self.p;
        let cfg = self.config(seed, observe);
        match (self.kind, inputs) {
            (
                Kind::JQuick { .. },
                Inputs::JQuick {
                    n,
                    per_rank,
                    fingerprint,
                },
            ) => {
                let n = *n;
                // Each rank takes its own copy; the copies are made before
                // the clock starts.
                let slots: Vec<Mutex<Option<Vec<f64>>>> = per_rank
                    .iter()
                    .map(|v| Mutex::new(Some(v.clone())))
                    .collect();
                let slots = &slots;
                let (mut rep, outs) = timed(p, cfg, move |env: ProcEnv| async move {
                    let data = slots[env.rank()]
                        .lock()
                        .expect("no rank panicked holding its input slot")
                        .take()
                        .ok_or("input already taken")?;
                    jquick_sort_async(&RbcBackend, &env.world, data, n, &JQuickConfig::default())
                        .await
                        .map_err(|e| e.to_string())
                });
                if let Some(outs) = outs {
                    let layout = Layout::new(n, p as u64);
                    let keys: Vec<&[f64]> = outs.iter().map(|(v, _)| v.as_slice()).collect();
                    rep.check = check_sorted(&keys, &layout, *fingerprint);
                    rep.sort = Some(summarize_sort(&outs, &layout));
                }
                rep
            }
            (Kind::Storm { rounds }, Inputs::Storm { salt, expected }) => {
                let salt = *salt;
                let (mut rep, outs) = timed(p, cfg, move |env: ProcEnv| async move {
                    let w = &env.world;
                    let r = w.rank();
                    let (mut got, mut sum) = (0u64, 0u64);
                    for round in 0..rounds {
                        for i in 0..STORM_PER {
                            for (k, off) in STORM_OFFSETS.iter().enumerate() {
                                w.send(
                                    &[storm_word(salt, r, round, i, k)],
                                    (r + off) % p,
                                    k as u64 % STORM_TAGS,
                                )
                                .map_err(|e| e.to_string())?;
                            }
                        }
                        for t in 0..STORM_TAGS {
                            let n = STORM_PER
                                * (0..STORM_OFFSETS.len())
                                    .filter(|k| *k as u64 % STORM_TAGS == t)
                                    .count();
                            for _ in 0..n {
                                let (v, _) = recv_async::<u64, _>(w, Src::Any, t)
                                    .await
                                    .map_err(|e| e.to_string())?;
                                got += 1;
                                sum = sum.wrapping_add(v[0]);
                                mpisim::pool::recycle_vec(v);
                            }
                        }
                    }
                    Ok((got, sum))
                });
                if let Some(outs) = outs {
                    rep.check = match outs.iter().zip(expected).position(|(a, b)| a != b) {
                        None => Ok(()),
                        Some(r) => Err(format!(
                            "storm: rank {r} received (count, checksum) {:?}, expected {:?}",
                            outs[r], expected[r]
                        )),
                    };
                }
                rep
            }
            (Kind::CommCreate, Inputs::CommCreate) => {
                let (mut rep, outs) = timed(p, cfg, move |env: ProcEnv| async move {
                    let mut seen = rbc_split_chain(&env).await?;
                    seen.push(create_group_halves(&env).await?);
                    seen.push(native_split_halves(&env).await?);
                    Ok(seen)
                });
                if let Some(outs) = outs {
                    rep.check = check_comm_create(&outs, p);
                }
                rep
            }
            (Kind::NbcOverlap { iters, len }, Inputs::Nbc { base }) => {
                let base = *base;
                let (mut rep, outs) = timed(p, cfg, move |env: ProcEnv| async move {
                    nbc_overlap(&env, iters, len, base).await
                });
                if let Some(outs) = outs {
                    let polls: u64 = outs.iter().map(|(polls, _)| polls).sum();
                    let done: u64 = outs.iter().map(|(_, done)| done).sum();
                    rep.polls_per_completion = Some(polls as f64 / done.max(1) as f64);
                }
                rep
            }
            _ => panic!("inputs of another workload handed to {}", self.name),
        }
    }
}

/// Run `body` on a fresh universe under the clock. Returns the repetition
/// (check = the first rank error, if any) and, when every rank returned
/// `Ok`, the per-rank values.
pub fn timed<R, F, Fut>(p: usize, cfg: SimConfig, body: F) -> (Rep, Option<Vec<R>>)
where
    R: Send,
    F: Fn(ProcEnv) -> Fut + Send + Sync,
    Fut: std::future::Future<Output = Result<R, String>> + Send,
{
    let pool_before = mpisim::pool::counters();
    let t0 = Instant::now();
    let res: SimResult<Result<R, String>> = Universe::run_poll(p, cfg, body);
    let wall_s = t0.elapsed().as_secs_f64();
    let pool = mpisim::pool::counters() - pool_before;
    let virtual_ns = res.max_time().as_nanos();
    let mut outs = Vec::with_capacity(p);
    let mut check = Ok(());
    for (rank, r) in res.per_rank.into_iter().enumerate() {
        match r {
            Ok(v) => outs.push(v),
            Err(e) if check.is_ok() => check = Err(format!("rank {rank}: {e}")),
            Err(_) => {}
        }
    }
    let outs = check.is_ok().then_some(outs);
    let rep = Rep {
        wall_s,
        virtual_ns,
        metrics: res.metrics,
        pool,
        check,
        sort: None,
        polls_per_completion: None,
        profile: res.sched_profile,
        trace_events: res.trace.map(|t| t.events.len() as u64),
    };
    (rep, outs)
}

/// The JQuick output contract: every rank holds exactly its capacity, each
/// slice is sorted, slices are ordered across ranks, and the multiset
/// fingerprint equals the input's.
pub fn check_sorted(outs: &[&[f64]], layout: &Layout, input_fp: u64) -> Result<(), String> {
    let mut fp = 0u64;
    let mut prev_max: Option<f64> = None;
    for (rank, out) in outs.iter().enumerate() {
        let cap = layout.cap(rank as u64);
        if out.len() as u64 != cap {
            return Err(format!(
                "unbalanced: rank {rank} holds {} keys, capacity {cap}",
                out.len()
            ));
        }
        if out.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("rank {rank}: output not sorted"));
        }
        if let (Some(pm), Some(first)) = (prev_max, out.first()) {
            if pm > *first {
                return Err(format!(
                    "rank {rank}: first key below rank {}'s last",
                    rank - 1
                ));
            }
        }
        prev_max = out.last().copied().or(prev_max);
        fp = fp.wrapping_add(fingerprint(out));
    }
    if fp != input_fp {
        return Err("output is not a permutation of the input (fingerprint differs)".into());
    }
    Ok(())
}

fn summarize_sort(outs: &[(Vec<f64>, SortStats)], layout: &Layout) -> SortSummary {
    let mut s = SortSummary::default();
    let mut max_len = 0usize;
    for (out, st) in outs {
        s.max_level = s.max_level.max(st.max_level);
        s.stuck_retries += u64::from(st.stuck_retries);
        s.base_1 += st.base_1 as u64;
        s.base_2 += st.base_2 as u64;
        max_len = max_len.max(out.len());
    }
    s.imbalance = max_len as f64 / (layout.n as f64 / layout.p as f64);
    s
}

// ---- comm_create phases -------------------------------------------------

/// Which half of a communicator of `size` ranks `rank` falls in, as the
/// inclusive rank range of that half.
fn half_of(rank: usize, size: usize) -> (usize, usize) {
    let half = size / 2;
    if rank < half {
        (0, half - 1)
    } else {
        (half, size - 1)
    }
}

/// Phase 1: RBC `split` halving chain down to size 1, a barrier on every
/// level. Returns the `(size, rank)` seen in every communicator built.
pub async fn rbc_split_chain(env: &ProcEnv) -> Result<Vec<(usize, usize)>, String> {
    let mut c = RbcComm::create(&env.world);
    let mut seen = Vec::new();
    c.barrier_async().await.map_err(|e| e.to_string())?;
    while c.size() > 1 {
        let (f, l) = half_of(c.rank(), c.size());
        c = c.split(f, l).map_err(|e| e.to_string())?;
        seen.push((c.size(), c.rank()));
        c.barrier_async().await.map_err(|e| e.to_string())?;
    }
    Ok(seen)
}

/// Phase 2: one native `create_group` of the world's halves, then a
/// barrier on the new communicator.
pub async fn create_group_halves(env: &ProcEnv) -> Result<(usize, usize), String> {
    let w = &env.world;
    let (f, l) = half_of(w.rank(), w.size());
    let c = w
        .create_group_async(&Group::range(f, 1, l - f + 1), 100)
        .await
        .map_err(|e| e.to_string())?;
    c.barrier_async().await.map_err(|e| e.to_string())?;
    Ok((c.size(), c.rank()))
}

/// Phase 3: one native `split` of the world into halves, then a barrier.
pub async fn native_split_halves(env: &ProcEnv) -> Result<(usize, usize), String> {
    let w = &env.world;
    let color = u64::from(w.rank() >= w.size() / 2);
    let c = w
        .split_async(color, w.rank() as u64)
        .await
        .map_err(|e| e.to_string())?;
    c.barrier_async().await.map_err(|e| e.to_string())?;
    Ok((c.size(), c.rank()))
}

/// Every communicator a rank built must have the size and rank its
/// construction implies: halving levels p/2, p/4, .., 1, then the two
/// native halves.
pub fn check_comm_create(outs: &[Vec<(usize, usize)>], p: usize) -> Result<(), String> {
    for (r, seen) in outs.iter().enumerate() {
        let mut want = Vec::new();
        let mut size = p;
        while size > 1 {
            size /= 2;
            want.push((size, r % size));
        }
        let half = if r < p / 2 { p / 2 } else { p - p / 2 };
        want.extend([(half, r % (p / 2)); 2]);
        if *seen != want {
            return Err(format!(
                "comm_create: rank {r} saw (size, rank) {seen:?}, expected {want:?}"
            ));
        }
    }
    Ok(())
}

// ---- nbc_overlap -----------------------------------------------------------

/// Shares one nonblocking machine between the type-erased [`Request`] that
/// `waitall_async` drives and the rank body, which reads the result once
/// the request completes; counts `test` calls on the way.
struct Probe<M> {
    shared: Arc<Mutex<(M, u64)>>,
    state: Arc<ProcState>,
}

impl<M> Probe<M> {
    fn new(machine: M, state: &Arc<ProcState>) -> Probe<M> {
        Probe {
            shared: Arc::new(Mutex::new((machine, 0))),
            state: Arc::clone(state),
        }
    }

    fn handle(&self) -> Probe<M> {
        Probe {
            shared: Arc::clone(&self.shared),
            state: Arc::clone(&self.state),
        }
    }

    /// Read the completed machine; returns `read`'s verdict and the polls
    /// it took.
    fn finish(self, read: impl FnOnce(&M) -> bool) -> (bool, u64) {
        let g = self.shared.lock().expect("no poll panicked");
        (read(&g.0), g.1)
    }
}

impl<M: Progress> Progress for Probe<M> {
    fn poll(&mut self) -> mpisim::Result<bool> {
        let mut g = self.shared.lock().expect("no poll panicked");
        g.1 += 1;
        g.0.poll()
    }

    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        Some(&self.state)
    }
}

fn add(a: &f64, b: &f64) -> f64 {
    a + b
}
type Op = fn(&f64, &f64) -> f64;

/// One overlap round: three machines in flight together under
/// `waitall_async`, results compared with their closed forms. Returns the
/// polls the three requests took.
async fn overlap_round<C: Transport>(
    state: &Arc<ProcState>,
    bcast: Ibcast<f64, C>,
    reduce: Ireduce<f64, C, Op>,
    scan: Iscan<f64, C, Op>,
    want_bcast: &[f64],
    want_reduce: Option<&[f64]>,
    want_scan: &[f64],
) -> Result<u64, String> {
    let (b, r, s) = (
        Probe::new(bcast, state),
        Probe::new(reduce, state),
        Probe::new(scan, state),
    );
    let mut reqs = [
        Request::new(b.handle()),
        Request::new(r.handle()),
        Request::new(s.handle()),
    ];
    waitall_async(&mut reqs).await.map_err(|e| e.to_string())?;
    drop(reqs);
    let (ok_b, polls_b) = b.finish(|m| m.data() == Some(want_bcast));
    let (ok_r, polls_r) = r.finish(|m| m.result() == want_reduce);
    let (ok_s, polls_s) = s.finish(|m| m.inclusive() == Some(want_scan));
    match (ok_b, ok_r, ok_s) {
        (true, true, true) => Ok(polls_b + polls_r + polls_s),
        _ => Err(format!(
            "nbc_overlap: closed form missed (ibcast ok {ok_b}, ireduce ok {ok_r}, iscan ok {ok_s})"
        )),
    }
}

/// The nbc_overlap rank program. Rank `r` contributes `base + r + j` at
/// index `j`; all values are small integers, so every sum is exact in f64
/// whatever the fold order. Returns `(polls, completed requests)`.
async fn nbc_overlap(
    env: &ProcEnv,
    iters: usize,
    len: usize,
    base: f64,
) -> Result<(u64, u64), String> {
    let w = &env.world;
    let (p, r) = (w.size(), w.rank());
    let rc = RbcComm::create(w);
    let mine: Vec<f64> = (0..len).map(|j| base + (r + j) as f64).collect();
    let ranks_sum = (p * (p - 1) / 2) as f64;
    let want_reduce: Vec<f64> = (0..len)
        .map(|j| p as f64 * (base + j as f64) + ranks_sum)
        .collect();
    let want_scan: Vec<f64> = (0..len)
        .map(|j| (r + 1) as f64 * (base + j as f64) + (r * (r + 1) / 2) as f64)
        .collect();
    let mut polls = 0u64;
    for it in 0..iters {
        let root = (it * 7) % p;
        let want_bcast: Vec<f64> = (0..len).map(|j| base + (it * len + j) as f64).collect();
        let root_data = (r == root).then(|| want_bcast.clone());
        let want_reduce = (r == root).then_some(want_reduce.as_slice());
        let e = |e: mpisim::MpiError| e.to_string();
        polls += if it < iters / 2 {
            overlap_round(
                env.state(),
                rc.ibcast(root_data, root, None).map_err(e)?,
                rc.ireduce(&mine, root, add as Op, None).map_err(e)?,
                rc.iscan(&mine, add as Op, None).map_err(e)?,
                &want_bcast,
                want_reduce,
                &want_scan,
            )
            .await?
        } else {
            overlap_round(
                env.state(),
                w.ibcast(root_data, root).map_err(e)?,
                w.ireduce(&mine, root, add as Op).map_err(e)?,
                w.iscan(&mine, add as Op).map_err(e)?,
                &want_bcast,
                want_reduce,
                &want_scan,
            )
            .await?
        };
    }
    Ok((polls, 3 * iters as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout {
        Layout::new(8, 4)
    }

    fn fp(outs: &[&[f64]]) -> u64 {
        outs.iter()
            .map(|o| fingerprint(o))
            .fold(0u64, u64::wrapping_add)
    }

    #[test]
    fn sorted_balanced_permutation_passes() {
        let outs: [&[f64]; 4] = [&[1.0, 2.0], &[2.0, 3.0], &[4.0, 5.0], &[6.0, 7.0]];
        assert_eq!(check_sorted(&outs, &layout(), fp(&outs)), Ok(()));
    }

    #[test]
    fn unsorted_unordered_unbalanced_and_lossy_outputs_fail() {
        let good: [&[f64]; 4] = [&[1.0, 2.0], &[2.0, 3.0], &[4.0, 5.0], &[6.0, 7.0]];
        let want = fp(&good);
        let unsorted: [&[f64]; 4] = [&[2.0, 1.0], &[2.0, 3.0], &[4.0, 5.0], &[6.0, 7.0]];
        assert!(check_sorted(&unsorted, &layout(), want)
            .unwrap_err()
            .contains("not sorted"));
        let unordered: [&[f64]; 4] = [&[2.0, 3.0], &[1.0, 2.0], &[4.0, 5.0], &[6.0, 7.0]];
        assert!(check_sorted(&unordered, &layout(), want)
            .unwrap_err()
            .contains("below"));
        let unbalanced: [&[f64]; 4] = [&[1.0, 2.0, 2.0], &[3.0], &[4.0, 5.0], &[6.0, 7.0]];
        assert!(check_sorted(&unbalanced, &layout(), want)
            .unwrap_err()
            .contains("unbalanced"));
        let lossy: [&[f64]; 4] = [&[1.0, 2.0], &[2.0, 3.0], &[4.0, 5.0], &[6.0, 6.5]];
        assert!(check_sorted(&lossy, &layout(), want)
            .unwrap_err()
            .contains("permutation"));
    }

    #[test]
    fn comm_create_expectation() {
        // p = 4: levels of size 2 and 1, then two halves of size 2.
        let outs: Vec<Vec<(usize, usize)>> = (0..4)
            .map(|r| vec![(2, r % 2), (1, 0), (2, r % 2), (2, r % 2)])
            .collect();
        assert_eq!(check_comm_create(&outs, 4), Ok(()));
        let mut bad = outs.clone();
        bad[3][0] = (2, 0);
        assert!(check_comm_create(&bad, 4).unwrap_err().contains("rank 3"));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        for smoke in [false, true] {
            let ws = all(smoke);
            assert_eq!(ws.len(), 4);
            for (i, w) in ws.iter().enumerate() {
                assert!(crate::spec::valid_name(w.name), "{}", w.name);
                assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
                assert!(ws[..i].iter().all(|o| o.name != w.name), "{}", w.name);
                assert!(w.p.is_power_of_two());
            }
        }
    }

    /// Every workload runs end to end at a tiny size and passes its own
    /// check; the fiber and two-worker variants of the latency workload
    /// agree with it on every model count.
    #[test]
    fn every_workload_passes_its_check_at_toy_size() {
        for mut w in all(true).into_iter().chain([storm(true)]) {
            w.p = 32;
            if let Kind::JQuick { n_per } = &mut w.kind {
                *n_per = (*n_per).min(64);
            }
            let inputs = w.inputs(7);
            let rep = w.run(&inputs, 7, Observe::default());
            assert_eq!(rep.check, Ok(()), "{}", w.name);
            assert!(rep.metrics.messages > 0, "{}", w.name);
            if let Some(s) = rep.sort {
                assert_eq!(s.imbalance, 1.0, "{}", w.name);
            }
            assert_eq!(rep.polls_per_completion.is_some(), w.name == "nbc_overlap");
            if w.name == "jquick_latency_poll" {
                for (backend, workers) in [(Backend::Cooperative, 1), (Backend::Poll, 2)] {
                    let v = w
                        .variant(backend, workers)
                        .run(&inputs, 7, Observe::default());
                    assert_eq!(v.check, Ok(()), "{backend:?} x {workers}");
                    assert_eq!(
                        v.model_counts(),
                        rep.model_counts(),
                        "{backend:?} x {workers}"
                    );
                }
            }
        }
    }

    /// The negative test: a wrong output must surface as a failed check,
    /// which the runner counts in `ops_failed`.
    #[test]
    fn wrong_expectation_fails_the_storm_check() {
        let mut w = storm(true);
        w.p = 32;
        let Inputs::Storm { salt, mut expected } = w.inputs(3) else {
            unreachable!()
        };
        expected[5].1 ^= 1;
        let rep = w.run(&Inputs::Storm { salt, expected }, 3, Observe::default());
        assert!(rep.check.unwrap_err().contains("rank 5"));
    }
}
