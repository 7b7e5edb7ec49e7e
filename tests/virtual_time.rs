//! Exact virtual-time checks: the α–β model's arithmetic, asserted to the
//! nanosecond rather than bounded.
//!
//! The dissemination barrier runs ⌈log2 p⌉ rounds. In each, every rank
//! sends an empty message (its clock gains `send_overhead`, the message
//! arrives `α·a` after the send) and receives its peer's (`clock =
//! max(clock, arrival) + recv_overhead`). All ranks start a round at the
//! same time, so each round costs `max(α·a, send_overhead) +
//! recv_overhead` on every rank. `a` is the vendor's barrier α factor for
//! `Comm::barrier_async` and 1 for plain point-to-point traffic: the
//! generic `coll::barrier_async` on a communicator and the RBC barrier on
//! a subrange.
//!
//! The binomial broadcast from root 0 is a walk of its tree: a rank
//! forwards once its receive completes, to its children largest subtree
//! first, one `send_overhead` apart, and a child's receive completes
//! `T + recv_overhead` after its parent starts that send, where
//! `T = transfer_time_scaled(bytes, scale)`. The scale is the vendor's
//! bcast scale for `Comm::bcast_async` and neutral for `coll::bcast_async`
//! on a communicator or an RBC subrange (what an `RbcComm`'s `bcast` runs).
//! Payloads stay at or below every vendor's jitter threshold, above which
//! the transfer time is drawn at random.
//!
//! The Hillis–Steele inclusive scan (every JQuick level's step 3) is a
//! round-by-round walk: in the round of distance `d`, every rank `r` with
//! `r + d < p` sends its running prefix (one `send_overhead`; it arrives
//! `T` after the send starts), then every rank with `r >= d` receives from
//! `r - d` (`clock = max(clock, arrival) + recv_overhead`) and folds it in,
//! charged one compute step per element. The scale is the vendor's scan
//! scale for `Comm::scan_async` and neutral for `coll::scan_async`.
//!
//! Which scale each collective runs under is pinned for all of them at
//! once: under the Intel-like profile, whose six class scales all differ,
//! `Comm`'s thirteen blocking collectives and seven nonblocking ones must
//! leave the clocks and message counts of the `coll` / `nbcoll` core over
//! the world scaled by the field this file names for them, and an
//! `RbcComm`'s those of the core over the range at neutral cost. A
//! nonblocking collective given a user tag runs on it, and leaves the
//! messages on its reserved tag alone.

use mpisim::model::CollScales;
use mpisim::{
    coll, nbcoll, ops, tags, CostModel, CostScale, Progress, Scaled, SimConfig, Tag, Time,
    Transport, Universe, VendorProfile,
};
use rbc::RbcComm;

const SIZES: [usize; 9] = [1, 2, 3, 5, 8, 13, 64, 1000, 1024];

/// Which implementation of a collective a run measures.
#[derive(Clone, Copy, Debug)]
enum Path {
    /// The `Comm` method: the vendor's cost scale for the collective applies.
    Native,
    /// The generic `coll` core over the communicator as a plain transport.
    Plain,
    /// The generic `coll` core on ranks `2..=p + 1` of `p + 3`, split off
    /// by RBC.
    RbcSubrange,
}

const PATHS: [Path; 3] = [Path::Native, Path::Plain, Path::RbcSubrange];

/// Which collective a run measures.
#[derive(Clone, Copy, Debug)]
enum Op {
    Barrier,
    /// Broadcast of this many bytes from rank 0.
    Bcast(usize),
    /// Inclusive sum scan of this many bytes (`u64` elements) per rank.
    Scan(usize),
}

fn vendors() -> [VendorProfile; 3] {
    [
        VendorProfile::neutral(),
        VendorProfile::intel_like(),
        VendorProfile::ibm_like(),
    ]
}

fn expected(p: usize, cost: &CostModel, alpha_factor: f64) -> Time {
    let rounds = p.next_power_of_two().trailing_zeros() as u64;
    let round = cost.alpha.scale(alpha_factor).max(cost.send_overhead) + cost.recv_overhead;
    Time::from_nanos(rounds * round.as_nanos())
}

/// Every rank's clock after the binomial broadcast from rank 0, relative
/// to a common start, by a walk of the tree. Rank `r`'s parent is
/// `r & (r - 1)`, so parents come before their children in rank order.
fn bcast_clocks(p: usize, cost: &CostModel, t: Time) -> Vec<Time> {
    let mut received = vec![Time::ZERO; p];
    let mut clocks = vec![Time::ZERO; p];
    for r in 0..p {
        let lsb = if r == 0 {
            p.next_power_of_two()
        } else {
            r & r.wrapping_neg()
        };
        let mut clock = received[r];
        for k in (0..lsb.trailing_zeros()).rev() {
            let child = r + (1 << k);
            if child < p {
                received[child] = clock + t + cost.recv_overhead;
                clock += cost.send_overhead;
            }
        }
        clocks[r] = clock;
    }
    clocks
}

/// Every rank's clock after the Hillis–Steele scan of `len` elements,
/// relative to a common start, by a walk of its rounds.
fn scan_clocks(p: usize, cost: &CostModel, t: Time, len: usize) -> Vec<Time> {
    let mut clocks = vec![Time::ZERO; p];
    let mut d = 1;
    while d < p {
        // Every send of the round leaves before any receive of it.
        let sent: Vec<Time> = clocks.clone();
        for clock in &mut clocks[..p - d] {
            *clock += cost.send_overhead;
        }
        for r in d..p {
            clocks[r] = clocks[r].max(sent[r - d] + t) + cost.recv_overhead;
            clocks[r] += cost.compute_cost(len);
        }
        d *= 2;
    }
    clocks
}

/// Every participating rank's `(clock before, clock after − clock before)`
/// the collective, in rank order of the communicator it runs on.
fn spans(path: Path, op: Op, p: usize, vendor: VendorProfile) -> Vec<(Time, Time)> {
    let world = match path {
        Path::RbcSubrange => p + 3,
        Path::Native | Path::Plain => p,
    };
    let cfg = SimConfig::default().with_vendor(vendor);
    let res = Universe::run_poll(world, cfg, move |env| async move {
        let w = &env.world;
        let sub = match path {
            Path::RbcSubrange if (2..=p + 1).contains(&w.rank()) => {
                Some(RbcComm::create(w).split(2, p + 1).unwrap())
            }
            Path::RbcSubrange => return None,
            Path::Native | Path::Plain => None,
        };
        let mut data = match op {
            Op::Bcast(bytes) if sub.as_ref().map_or(w.rank(), |s| s.rank()) == 0 => {
                vec![7u8; bytes]
            }
            Op::Barrier | Op::Bcast(_) | Op::Scan(_) => Vec::new(),
        };
        let t0 = env.now();
        match (path, op) {
            (_, Op::Scan(_)) => {}
            (Path::Native, Op::Barrier) => w.barrier_async().await.unwrap(),
            (Path::Plain, Op::Barrier) => coll::barrier_async(w, 7).await.unwrap(),
            (Path::RbcSubrange, Op::Barrier) => {
                sub.as_ref().unwrap().barrier_async().await.unwrap()
            }
            (Path::Native, Op::Bcast(_)) => w.bcast_async(&mut data, 0).await.unwrap(),
            (Path::Plain, Op::Bcast(_)) => coll::bcast_async(w, &mut data, 0, 7).await.unwrap(),
            (Path::RbcSubrange, Op::Bcast(_)) => {
                coll::bcast_async(sub.as_ref().unwrap(), &mut data, 0, 7)
                    .await
                    .unwrap()
            }
        }
        if let Op::Bcast(bytes) = op {
            assert_eq!(data, vec![7u8; bytes]);
        }
        if let Op::Scan(bytes) = op {
            let me = sub.as_ref().map_or(w.rank(), |s| s.rank()) as u64;
            let mine = vec![me + 1; bytes / 8];
            let prefix = match path {
                Path::Native => w.scan_async(&mine, ops::sum()).await,
                Path::Plain => coll::scan_async(w, &mine, 7, ops::sum()).await,
                Path::RbcSubrange => {
                    coll::scan_async(sub.as_ref().unwrap(), &mine, 7, ops::sum()).await
                }
            };
            assert_eq!(prefix.unwrap(), vec![(me + 1) * (me + 2) / 2; bytes / 8]);
        }
        Some((t0, env.now() - t0))
    });
    res.per_rank.into_iter().flatten().collect()
}

#[test]
fn dissemination_barrier_makespan_is_exact() {
    let cost = CostModel::supermuc_like();
    for vendor in vendors() {
        let native = vendor.coll_scale.barrier.alpha_factor;
        for path in PATHS {
            let a = match path {
                Path::Native => native,
                Path::Plain | Path::RbcSubrange => 1.0,
            };
            for p in SIZES {
                let spans: Vec<Time> = spans(path, Op::Barrier, p, vendor.clone())
                    .into_iter()
                    .map(|(_, span)| span)
                    .collect();
                assert_eq!(spans.len(), p, "{path:?} p {p}");
                let want = expected(p, &cost, a);
                assert!(
                    spans.iter().all(|&t| t == want),
                    "{} {path:?} p {p}: want {want:?} on every rank, got {:?}",
                    vendor.name,
                    spans.iter().max()
                );
            }
        }
    }
}

#[test]
fn binomial_broadcast_clocks_are_exact() {
    let cost = CostModel::supermuc_like();
    for vendor in vendors() {
        for path in PATHS {
            let scale = match path {
                Path::Native => vendor.coll_scale.bcast,
                Path::Plain | Path::RbcSubrange => CostScale::NEUTRAL,
            };
            for bytes in [8, 8 * 1024] {
                assert!(bytes <= vendor.jitter_threshold);
                let t = cost.transfer_time_scaled(bytes, scale);
                for p in SIZES {
                    let got = spans(path, Op::Bcast(bytes), p, vendor.clone());
                    assert_eq!(got.len(), p, "{path:?} p {p}");
                    // Fresh clocks: every rank starts the broadcast at once.
                    assert!(got.iter().all(|&(t0, _)| t0 == got[0].0), "{path:?} p {p}");
                    let got: Vec<Time> = got.into_iter().map(|(_, span)| span).collect();
                    let want = bcast_clocks(p, &cost, t);
                    assert_eq!(
                        got, want,
                        "{} {path:?} {bytes} B p {p}: rank clocks",
                        vendor.name
                    );
                    if p.is_power_of_two() {
                        let levels = p.trailing_zeros() as u64;
                        let makespan = (t + cost.recv_overhead) * levels;
                        assert_eq!(got.iter().max(), Some(&makespan), "{path:?} p {p}");
                    }
                }
            }
        }
    }
}

#[test]
fn hillis_steele_scan_clocks_are_exact() {
    let cost = CostModel::supermuc_like();
    for vendor in vendors() {
        for path in PATHS {
            let scale = match path {
                Path::Native => vendor.coll_scale.scan,
                Path::Plain | Path::RbcSubrange => CostScale::NEUTRAL,
            };
            for bytes in [8, 8 * 1024] {
                assert!(bytes <= vendor.jitter_threshold);
                let t = cost.transfer_time_scaled(bytes, scale);
                for p in SIZES {
                    let got = spans(path, Op::Scan(bytes), p, vendor.clone());
                    assert_eq!(got.len(), p, "{path:?} p {p}");
                    assert!(got.iter().all(|&(t0, _)| t0 == got[0].0), "{path:?} p {p}");
                    let got: Vec<Time> = got.into_iter().map(|(_, span)| span).collect();
                    let want = scan_clocks(p, &cost, t, bytes / 8);
                    assert_eq!(
                        got, want,
                        "{} {path:?} {bytes} B p {p}: rank clocks",
                        vendor.name
                    );
                }
            }
        }
    }
}

#[test]
fn the_formula_reads_the_probed_values() {
    let cost = CostModel::supermuc_like();
    let intel = VendorProfile::intel_like().coll_scale.barrier.alpha_factor;
    assert_eq!(expected(1024, &cost, 1.0), Time::from_nanos(105_000));
    assert_eq!(expected(1024, &cost, intel), Time::from_nanos(125_000));
    assert_eq!(expected(1, &cost, 1.0), Time::ZERO);
    let makespan = |p, bytes, scale| {
        let t = cost.transfer_time_scaled(bytes, scale);
        bcast_clocks(p, &cost, t).into_iter().max().unwrap()
    };
    let intel_bcast = VendorProfile::intel_like().coll_scale.bcast;
    assert_eq!(
        makespan(1024, 8, CostScale::NEUTRAL),
        Time::from_nanos(105_080)
    );
    assert_eq!(
        makespan(1024, 8 * 1024, intel_bcast),
        Time::from_nanos(370_760)
    );
    assert_eq!(makespan(1, 8, CostScale::NEUTRAL), Time::ZERO);
}

/// A collective of the facade, for the pricing test below.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Coll {
    Bcast,
    Reduce,
    Allreduce,
    Scan,
    Exscan,
    Gather,
    Gatherv,
    Allgather1,
    Allgatherv,
    Barrier,
    Alltoallv,
    Scatter,
    Scatterv,
    Ibcast,
    Ireduce,
    Iallreduce,
    Iscan,
    Igather,
    Igatherv,
    Ibarrier,
}

impl Coll {
    const BLOCKING: [Coll; 13] = [
        Coll::Bcast,
        Coll::Reduce,
        Coll::Allreduce,
        Coll::Scan,
        Coll::Exscan,
        Coll::Gather,
        Coll::Gatherv,
        Coll::Allgather1,
        Coll::Allgatherv,
        Coll::Barrier,
        Coll::Alltoallv,
        Coll::Scatter,
        Coll::Scatterv,
    ];
    const NONBLOCKING: [Coll; 7] = [
        Coll::Ibcast,
        Coll::Ireduce,
        Coll::Iallreduce,
        Coll::Iscan,
        Coll::Igather,
        Coll::Igatherv,
        Coll::Ibarrier,
    ];

    /// The vendor scale a native communicator runs this collective under.
    fn scale(self, s: &CollScales) -> CostScale {
        match self {
            Coll::Bcast | Coll::Ibcast => s.bcast,
            Coll::Reduce | Coll::Allreduce | Coll::Ireduce | Coll::Iallreduce => s.reduce,
            Coll::Scan | Coll::Exscan | Coll::Iscan => s.scan,
            Coll::Gather
            | Coll::Gatherv
            | Coll::Allgather1
            | Coll::Allgatherv
            | Coll::Igather
            | Coll::Igatherv => s.gather,
            Coll::Barrier | Coll::Ibarrier => s.barrier,
            Coll::Alltoallv | Coll::Scatter | Coll::Scatterv => s.other,
        }
    }

    /// A nonblocking collective's reserved default tag.
    fn reserved(self) -> Tag {
        match self {
            Coll::Ibcast => tags::IBCAST,
            Coll::Ireduce => tags::IREDUCE,
            Coll::Iallreduce => tags::IALLREDUCE,
            Coll::Iscan => tags::ISCAN,
            Coll::Igather => tags::IGATHER,
            Coll::Igatherv => tags::IGATHERV,
            Coll::Ibarrier => tags::IBARRIER,
            blocking => panic!("{blocking:?} has no default tag"),
        }
    }
}

/// Rank `r`'s contribution: `LEN` words, large enough for every β factor
/// to move a clock, small enough to stay below every jitter threshold.
fn words(r: usize) -> Vec<u64> {
    const LEN: usize = 64;
    (0..LEN as u64).map(|i| r as u64 * 1000 + i).collect()
}

/// Run `op` through `c`'s facade method (`core == None`) or through the
/// generic core over `core` with the method's reserved tag. Returns what
/// the rank received, flattened.
fn run_blocking<C: Transport, R: Transport>(c: &C, core: Option<&R>, op: Coll) -> Vec<u64> {
    let (r, p) = (c.rank(), c.size());
    let root = p - 1;
    let sum = ops::sum::<u64>;
    let flat = |v: Vec<Vec<u64>>| v.concat();
    let blocks = || (r == root).then(|| (0..p).map(words).collect::<Vec<_>>());
    let out = match (op, core) {
        (Coll::Bcast, None) => {
            let mut d = words(r);
            c.bcast(&mut d, root).map(|()| d)
        }
        (Coll::Bcast, Some(t)) => {
            let mut d = words(r);
            coll::bcast(t, &mut d, root, tags::BCAST).map(|()| d)
        }
        (Coll::Reduce, None) => c
            .reduce(&words(r), root, sum())
            .map(Option::unwrap_or_default),
        (Coll::Reduce, Some(t)) => {
            coll::reduce(t, &words(r), root, tags::REDUCE, sum()).map(Option::unwrap_or_default)
        }
        (Coll::Allreduce, None) => c.allreduce(&words(r), sum()),
        (Coll::Allreduce, Some(t)) => coll::allreduce(t, &words(r), tags::ALLREDUCE, sum()),
        (Coll::Scan, None) => c.scan(&words(r), sum()),
        (Coll::Scan, Some(t)) => coll::scan(t, &words(r), tags::SCAN, sum()),
        (Coll::Exscan, None) => c.exscan(&words(r), sum()).map(Option::unwrap_or_default),
        (Coll::Exscan, Some(t)) => {
            coll::exscan(t, &words(r), tags::EXSCAN, sum()).map(Option::unwrap_or_default)
        }
        (Coll::Gather, None) => c.gather(words(r), root).map(Option::unwrap_or_default),
        (Coll::Gather, Some(t)) => {
            coll::gather(t, words(r), root, tags::GATHER).map(Option::unwrap_or_default)
        }
        (Coll::Gatherv, None) => c
            .gatherv(words(r), root)
            .map(|v| flat(v.unwrap_or_default())),
        (Coll::Gatherv, Some(t)) => {
            coll::gatherv(t, words(r), root, tags::GATHERV).map(|v| flat(v.unwrap_or_default()))
        }
        (Coll::Allgather1, None) => c.allgather1(r as u64),
        (Coll::Allgather1, Some(t)) => coll::allgather1(t, r as u64, tags::ALLGATHER),
        (Coll::Allgatherv, None) => c.allgatherv(words(r)).map(flat),
        (Coll::Allgatherv, Some(t)) => coll::allgatherv(t, words(r), tags::ALLGATHERV).map(flat),
        (Coll::Barrier, None) => c.barrier().map(|()| Vec::new()),
        (Coll::Barrier, Some(t)) => coll::barrier(t, tags::BARRIER).map(|()| Vec::new()),
        (Coll::Alltoallv, None) => c.alltoallv((0..p).map(words).collect()).map(flat),
        (Coll::Alltoallv, Some(t)) => {
            coll::alltoallv(t, (0..p).map(words).collect(), tags::ALLTOALL).map(flat)
        }
        (Coll::Scatter, None) => c.scatter(blocks().map(flat), root),
        (Coll::Scatter, Some(t)) => coll::scatter(t, blocks().map(flat), root, tags::SCATTER),
        (Coll::Scatterv, None) => c.scatterv(blocks(), root),
        (Coll::Scatterv, Some(t)) => coll::scatterv(t, blocks(), root, tags::SCATTERV),
        (nonblocking, _) => panic!("{nonblocking:?} is not a blocking collective"),
    };
    out.unwrap()
}

/// Run a nonblocking `op` on `c`: through its facade method on `tag`
/// (`core == None`) or through the `nbcoll` machine over `core` on the
/// same tag, the method's reserved one for `None`.
fn run_nonblocking<C: Transport>(
    c: &C,
    core: Option<&Scaled<C>>,
    op: Coll,
    tag: Option<Tag>,
) -> Vec<u64> {
    let (r, root) = (c.rank(), c.size() - 1);
    let sum = ops::sum::<u64>;
    let wait = |m: &mut dyn Progress| nbcoll::wait(m).unwrap();
    let on = tag.unwrap_or(op.reserved());
    match op {
        Coll::Ibcast => {
            let d = (r == root).then(|| words(r));
            let mut m = match core {
                None => c.ibcast(d, root, tag),
                Some(t) => nbcoll::ibcast(t, d, root, on),
            }
            .unwrap();
            wait(&mut m);
            m.into_data().unwrap()
        }
        Coll::Ireduce => {
            let mut m = match core {
                None => c.ireduce(&words(r), root, sum(), tag),
                Some(t) => nbcoll::ireduce(t, &words(r), root, on, sum()),
            }
            .unwrap();
            wait(&mut m);
            m.result().map(<[u64]>::to_vec).unwrap_or_default()
        }
        Coll::Iallreduce => {
            let mut m = match core {
                None => c.iallreduce(&words(r), sum(), tag),
                Some(t) => nbcoll::iallreduce(t, &words(r), on, sum()),
            }
            .unwrap();
            wait(&mut m);
            m.result().unwrap().to_vec()
        }
        Coll::Iscan => {
            let mut m = match core {
                None => c.iscan(&words(r), sum(), tag),
                Some(t) => nbcoll::iscan(t, &words(r), on, sum()),
            }
            .unwrap();
            wait(&mut m);
            m.inclusive().unwrap().to_vec()
        }
        Coll::Igather => {
            let mut m = match core {
                None => c.igather(words(r), root, tag),
                Some(t) => nbcoll::igather(t, words(r), root, on),
            }
            .unwrap();
            wait(&mut m);
            m.result().unwrap_or_default()
        }
        Coll::Igatherv => {
            let mut m = match core {
                None => c.igatherv(words(r), root, tag),
                Some(t) => nbcoll::igatherv(t, words(r), root, on),
            }
            .unwrap();
            wait(&mut m);
            m.result().unwrap_or_default().concat()
        }
        Coll::Ibarrier => {
            let mut m = match core {
                None => c.ibarrier(tag),
                Some(t) => nbcoll::ibarrier(t, on),
            }
            .unwrap();
            wait(&mut m);
            Vec::new()
        }
        blocking => panic!("{blocking:?} is not a nonblocking collective"),
    }
}

/// Run `op` on `c`: through the facade (`core == None`) or through the
/// core over `c` scaled by `core`. With a user `tag` (nonblocking only),
/// every rank first sends every other a stray message on the op's
/// reserved tag, which a collective running there would take.
fn run_on<C: Transport>(c: &C, core: Option<CostScale>, op: Coll, tag: Option<Tag>) -> Vec<u64> {
    let scaled = core.map(|s| Scaled::new(c.clone(), s));
    if tag.is_some() {
        for dest in (0..c.size()).filter(|&d| d != c.rank()) {
            c.send(&words(c.rank()), dest, op.reserved()).unwrap();
        }
    }
    if Coll::BLOCKING.contains(&op) {
        run_blocking(c, scaled.as_ref(), op)
    } else {
        run_nonblocking(c, scaled.as_ref(), op, tag)
    }
}

/// What a run leaves that pricing can move: each rank's output and clock,
/// and the message and byte counts, per class too.
type Footprint = (Vec<(Vec<u64>, Time)>, u64, u64, Vec<u64>);

/// `op` on `p` ranks under `vendor`, on the world (`rbc == false`) or on
/// an `RbcComm` over it, on `tag` ([`run_on`]): through the facade
/// (`core == None`) or through the core over that communicator scaled by
/// `core`.
fn footprint(
    op: Coll,
    p: usize,
    vendor: &VendorProfile,
    rbc: bool,
    core: Option<CostScale>,
    tag: Option<Tag>,
) -> Footprint {
    let cfg = SimConfig::default().with_vendor(vendor.clone());
    let res = Universe::run(p, cfg, move |env| {
        let w = &env.world;
        let out = if rbc {
            run_on(&RbcComm::create(w), core, op, tag)
        } else {
            run_on(w, core, op, tag)
        };
        (out, env.now())
    });
    let m = res.metrics;
    (res.per_rank, m.messages, m.bytes, m.class_msgs.to_vec())
}

#[test]
fn every_collective_is_priced_by_its_class() {
    let vendor = VendorProfile::intel_like();
    let s = &vendor.coll_scale;
    let classes = [s.bcast, s.reduce, s.scan, s.gather, s.barrier, s.other];
    for (i, a) in classes.iter().enumerate() {
        assert!(
            classes[i + 1..].iter().all(|b| b != a),
            "two classes share {a:?}"
        );
    }
    for p in [1, 2, 5, 8] {
        for op in Coll::BLOCKING.into_iter().chain(Coll::NONBLOCKING) {
            let native = footprint(op, p, &vendor, false, None, None);
            let mine = op.scale(s);
            assert_eq!(
                native,
                footprint(op, p, &vendor, false, Some(mine), None),
                "{op:?} at p = {p} on Comm"
            );
            // The test can tell the classes apart: under any other class's
            // scale the run differs (a barrier carries no bytes, so it
            // sees only α, which is 1.2 for every Intel-like class).
            let payload = !matches!(op, Coll::Barrier | Coll::Ibarrier);
            for other in classes.into_iter().filter(|&o| o != mine) {
                if p == 8 && (payload || other.alpha_factor != mine.alpha_factor) {
                    let priced = footprint(op, p, &vendor, false, Some(other), None);
                    assert_ne!(native, priced, "{op:?} at p = {p} under {other:?}");
                }
            }
        }
        for op in Coll::BLOCKING.into_iter().chain(Coll::NONBLOCKING) {
            let rbc = footprint(op, p, &vendor, true, None, None);
            let neutral = footprint(op, p, &vendor, true, Some(CostScale::NEUTRAL), None);
            assert_eq!(rbc, neutral, "{op:?} at p = {p} on RbcComm");
        }
    }
}

/// A nonblocking collective given a user tag (paper §V-B) runs on that
/// tag: its run equals the core's on it, with a stray message on the
/// reserved tag waiting at every rank from every other, which a
/// collective on the reserved tag would take first. On `Comm` and on
/// `RbcComm`, under the Intel-like profile.
#[test]
fn a_user_tag_replaces_the_reserved_one() {
    const USER: Tag = 900;
    let vendor = VendorProfile::intel_like();
    for op in Coll::NONBLOCKING {
        for (rbc, scale) in [
            (false, op.scale(&vendor.coll_scale)),
            (true, CostScale::NEUTRAL),
        ] {
            let facade = footprint(op, 5, &vendor, rbc, None, Some(USER));
            let core = footprint(op, 5, &vendor, rbc, Some(scale), Some(USER));
            assert_eq!(facade, core, "{op:?} on tag {USER}, rbc {rbc}");
        }
    }
}
