//! Distributed-sort `MPI_Comm_split`, the only split algorithm
//! ([`Comm::split`]).
//!
//! The textbook split all-gathers all p `(color, key)` pairs on every rank:
//! Θ(p) memory per rank and Θ(p²) across a simulated universe, which is why
//! the simulator used to cap the split column of the large-p figure at
//! 2^12 ranks. This module implements the algorithm production MPI stacks
//! use at scale instead (Sack & Gropp's exascale `MPI_Comm_split`): sort
//! the `(color, key, rank)` triples *across* the parent communicator and
//! build each color group's rank table only within its own segment.
//!
//! Phases (all collectives run over the parent communicator; every phase
//! is O(α log p) startups unless noted):
//!
//! 1. **Splitter selection** — a deterministic random sample of the
//!    triples (expected `√p · 16`) elects `k−1 ≈ √p−1` splitters via
//!    [`crate::distsort::select_splitters`].
//! 2. **Route** — each rank sends its single triple to the *leader* of its
//!    splitter bucket (rank ⌊b·p/k⌋); an all-reduced count vector tells
//!    each leader how many triples to expect. Leaders sort their ≈√p
//!    triples locally (charged per `SPLIT_SORT_NS`).
//! 3. **Position scans** — an exclusive prefix sum assigns every sorted
//!    triple its global position, and a segmented color scan finds, for
//!    each leader, where its first color's segment starts and how many
//!    distinct colors precede it. Because the triples are globally sorted
//!    by color first, every color occupies exactly one contiguous segment.
//! 4. **Segment gathering** — the leader holding a segment's first triple
//!    collects the segment's member list from the (few, contiguous)
//!    leaders holding its continuation, guided by an O(k) leader summary
//!    table relayed through rank 0.
//! 5. **Table distribution** — the gatherer compresses the member list
//!    into a stride-range descriptor when possible (O(1) wire bytes, and
//!    no rank-array build charge) and ships it down a binomial tree over
//!    the *new* ranks; irregular groups ship the explicit table as a
//!    shared-`Arc` payload, so all members of a group reference one host
//!    allocation while in flight.
//! 6. **Context agreement** — one mask all-reduce over the parent claims
//!    one context ID per distinct color, exactly like the textbook
//!    all-gather split, so both yield identical context IDs (the unit tests
//!    below keep that split as the oracle).
//!
//! Memory per rank is O(√p) for the sort plus O(g) only where a dense
//! table is unavoidable; the benchmark's contiguous-halves split stays
//! O(1) per member. `color = None` models `MPI_UNDEFINED`: the rank takes
//! part in every collective phase but joins no group and receives `None`.

use std::sync::Arc;

use crate::coll;
use crate::comm::Comm;
use crate::datum::{ops, Datum};
use crate::distsort::{bucket_of, select_splitters_async};
use crate::error::Result;
use crate::group::Group;
use crate::msg::Tag;
use crate::tags;
use crate::time::Time;
use crate::transport::{recv_async, recv_shared_async, Src, Transport};

/// `(color, key, origin parent rank)` — the origin breaks every tie, so
/// the sort order is total and the result deterministic.
type Triple = (u64, u64, u64);

/// Samples contributed per splitter (sample size ≈ `k · OVERSAMPLE`).
const OVERSAMPLE: usize = 16;

/// Per-element·log(m) cost (ns) of the local sort inside `comm_split`,
/// charged on the `m` triples a bucket leader *actually* sorts (≈√p,
/// DESIGN.md §6); the same on every vendor. The rank-0 splitter-sample
/// sort is charged through the machine's generic `compute_ns_per_elem`,
/// shared with jquick's sample sort.
const SPLIT_SORT_NS: f64 = 20.0;

/// Segmented color-scan state: `[nonempty, first_color, last_color,
/// distinct_runs, global_start_of_last_run]`. The combine below is the
/// standard segmented-scan merge and is associative.
type Seg = [u64; 5];

fn seg_combine(l: &Seg, r: &Seg) -> Seg {
    if r[0] == 0 {
        return *l;
    }
    if l[0] == 0 {
        return *r;
    }
    let merge = u64::from(l[2] == r[1]);
    [
        1,
        l[1],
        r[2],
        l[3] + r[3] - merge,
        if r[3] == 1 && merge == 1 { l[4] } else { r[4] },
    ]
}

/// Binomial gather over an explicit index space `0..n` (root index 0),
/// where `rank_of` maps indices to parent-communicator ranks: index
/// `idx`'s elements travel up the tree in O(log n) depth and land
/// concatenated (in no particular order) at index 0. The leader summary
/// table uses this so assembling it is O(α log √p), not a serial
/// O(α √p) receive chain at rank 0.
async fn gather_over<T: Datum>(
    parent: &Comm,
    mut data: Vec<T>,
    idx: usize,
    n: usize,
    rank_of: impl Fn(usize) -> usize,
    tag: Tag,
) -> Result<Vec<T>> {
    let mut mask = 1usize;
    while mask < n {
        if idx & mask == 0 {
            let child = idx | mask;
            if child < n {
                let (v, _) = recv_async::<T, _>(parent, Src::Rank(rank_of(child)), tag).await?;
                data.extend_from_slice(&v);
            }
        } else {
            parent.send_vec(data, rank_of(idx - mask), tag)?;
            return Ok(Vec::new());
        }
        mask <<= 1;
    }
    Ok(data)
}

/// Binomial broadcast over an explicit index space `0..n` (root index 0),
/// where `rank_of` maps indices to parent-communicator ranks. Used for the
/// leader summary table (indices = bucket numbers) so non-leader ranks
/// never see — or store — the table.
async fn bcast_over<T: Datum>(
    parent: &Comm,
    mut data: Vec<T>,
    idx: usize,
    n: usize,
    rank_of: impl Fn(usize) -> usize,
    tag: Tag,
) -> Result<Vec<T>> {
    let mut mask = 1usize;
    while mask < n {
        if idx & mask != 0 {
            let (v, _) = recv_async::<T, _>(parent, Src::Rank(rank_of(idx - mask)), tag).await?;
            data = v;
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if idx + mask < n {
            parent.send(&data, rank_of(idx + mask), tag)?;
        }
        mask >>= 1;
    }
    Ok(data)
}

/// Header travelling down the member tree:
/// `[new_rank, group_len, color_idx, kind, a, b, 0, 0]` where
/// `kind = 0` is a stride range over parent ranks (`a + b·x`) and
/// `kind = 1` an explicit table (a shared-`Arc` `SPLIT_TABLE` message
/// follows from the same sender).
type Header = [u64; 8];

/// Try to compress an ordered member list (parent ranks) into `(first,
/// stride)`; mirrors [`Group::from_ranks`]'s progression detection.
fn as_progression(members: &[u64]) -> Option<(u64, u64)> {
    if members.len() == 1 {
        return Some((members[0], 1));
    }
    if members[1] <= members[0] {
        return None;
    }
    let stride = members[1] - members[0];
    members
        .windows(2)
        .all(|w| w[1] > w[0] && w[1] - w[0] == stride)
        .then_some((members[0], stride))
}

/// The distributed `MPI_Comm_split`. Collective over the parent; returns
/// `None` for `color = None` (`MPI_UNDEFINED`) ranks. A maybe-async core
/// (see [`crate::coll`]'s module docs): the sync [`Comm::split`] drives it
/// with `block_inline`, poll-mode bodies await it directly.
pub(crate) async fn split_distributed(
    parent: &Comm,
    color: Option<u64>,
    key: u64,
) -> Result<Option<Comm>> {
    let p = parent.size();
    let r = parent.rank();
    let state = Arc::clone(parent.proc_state());
    let vendor = state.router.vendor.clone();

    // Bucket geometry: k ≈ √p buckets, bucket b led by rank ⌊b·p/k⌋
    // (strictly increasing in b because k ≤ p, so leaders are distinct).
    let k = ((p as f64).sqrt().ceil() as usize).clamp(1, p);
    let leader_rank = |b: usize| b * p / k;
    let my_bucket: Option<usize> = (0..k).find(|&b| leader_rank(b) == r);

    let triple: Option<Triple> = color.map(|c| (c, key, r as u64));

    // Phase 1: splitters from a deterministic random sample.
    let target = (k * OVERSAMPLE).min(p);
    let sample: Vec<Triple> = match triple {
        Some(t) if state.rand_index(p) < target => vec![t],
        _ => Vec::new(),
    };
    let splitters = select_splitters_async(parent, sample, k, tags::SPLIT_SAMPLE).await?;

    // Phase 2: per-bucket counts, then route my triple to its leader. A
    // leader keeps its own bucket's count; neither k-vector outlives the
    // all-reduce.
    let my_b = triple.as_ref().map(|t| bucket_of(&splitters, t));
    let expect: Option<usize> = {
        let mut mine = vec![0u64; k];
        if let Some(b) = my_b {
            mine[b] = 1;
        }
        let counts =
            coll::allreduce_async(parent, &mine, tags::SPLIT_COUNT, ops::sum::<u64>()).await?;
        my_bucket.map(|b| counts[b] as usize)
    };

    let mut held: Vec<Triple> = Vec::new();
    if let (Some(t), Some(b)) = (triple, my_b) {
        let dest = leader_rank(b);
        if dest == r {
            held.push(t);
        } else {
            parent.send_vec(vec![t], dest, tags::SPLIT_ROUTE)?;
        }
    }
    if let Some(expect) = expect {
        while held.len() < expect {
            let (v, _) = recv_async::<Triple, _>(parent, Src::Any, tags::SPLIT_ROUTE).await?;
            held.extend_from_slice(&v);
        }
        held.sort_unstable();
        let m = held.len();
        if m > 1 {
            let log_m = f64::from(usize::BITS - (m - 1).leading_zeros());
            state.charge(Time((m as f64 * log_m * SPLIT_SORT_NS).round() as u64));
        }
    }
    let m = held.len() as u64;

    // Phase 3a: global position of my sorted run.
    let my_start = coll::exscan_async(parent, &[m], tags::SPLIT_POS_SCAN, ops::sum::<u64>())
        .await?
        .map_or(0, |v| v[0]);

    // Local color runs: (color, local start index, length).
    let mut runs: Vec<(u64, usize, usize)> = Vec::new();
    for (i, t) in held.iter().enumerate() {
        match runs.last_mut() {
            Some(run) if run.0 == t.0 => run.2 += 1,
            _ => runs.push((t.0, i, 1)),
        }
    }

    // Phase 3b: segmented color scan over ranks.
    let my_seg: Seg = if held.is_empty() {
        [0; 5]
    } else {
        [
            1,
            held[0].0,
            held[held.len() - 1].0,
            runs.len() as u64,
            my_start + runs.last().expect("nonempty").1 as u64,
        ]
    };
    let prefix: Seg = coll::exscan_async(parent, &[my_seg], tags::SPLIT_SEG_SCAN, |l, r| {
        seg_combine(l, r)
    })
    .await?
    .map_or([0; 5], |v| v[0]);

    // Does my first run continue a segment that started on an earlier
    // leader? (Colors are globally sorted, so each color is exactly one
    // contiguous segment.)
    let merging = my_seg[0] == 1 && prefix[0] == 1 && prefix[2] == my_seg[1];
    let new_runs = if my_seg[0] == 1 {
        my_seg[3] - u64::from(merging)
    } else {
        0
    };
    let n_colors =
        coll::allreduce_async(parent, &[new_runs], tags::SPLIT_NCOLORS, ops::sum::<u64>()).await?
            [0];

    // Phase 4a: leader summary table `[rank, start, count, first, last]`,
    // gathered up a binomial tree over the k leaders to rank 0 (always a
    // leader: ⌊0·p/k⌋ = 0) and relayed back down the same tree — O(log k)
    // depth both ways, and non-leaders never see the table.
    let mut lt: Vec<[u64; 5]> = Vec::new();
    if let Some(bi) = my_bucket {
        let my_entry = [r as u64, my_start, m, my_seg[1], my_seg[2]];
        lt = gather_over(
            parent,
            vec![my_entry],
            bi,
            k,
            leader_rank,
            tags::SPLIT_LEADERS,
        )
        .await?;
        lt.sort_unstable_by_key(|e| e[0]);
        lt = bcast_over(parent, lt, bi, k, leader_rank, tags::SPLIT_LEADERS).await?;
    }

    // Phase 4b: ship my first run to its segment's gathering leader (the
    // leader whose position range contains the segment start).
    if merging {
        let seg_start = prefix[4];
        let gatherer = lt
            .iter()
            .find(|e| e[2] > 0 && e[1] <= seg_start && seg_start < e[1] + e[2])
            .expect("segment start held by some leader")[0] as usize;
        let first_run = runs[0];
        let origins: Vec<u64> = held[first_run.1..first_run.1 + first_run.2]
            .iter()
            .map(|t| t.2)
            .collect();
        parent.send_vec(origins, gatherer, tags::SPLIT_PORTION)?;
    }

    // Phase 4c/5: assemble each segment that starts on me and notify its
    // first member (which roots the member tree).
    let mut my_notify: Option<(Header, Option<Arc<Vec<u64>>>)> = None;
    if my_bucket.is_some() && !held.is_empty() {
        let my_lt_idx = lt
            .iter()
            .position(|e| e[0] == r as u64)
            .expect("leader listed");
        let base_idx = prefix[3] - u64::from(merging);
        for (j, &(c, start, len)) in runs.iter().enumerate() {
            if j == 0 && merging {
                continue;
            }
            let mut members: Vec<u64> = held[start..start + len].iter().map(|t| t.2).collect();
            if j == runs.len() - 1 {
                // Only my last run can continue past me. Walk the leader
                // table: a later non-empty leader whose first color is c
                // holds a continuation; the segment ends inside the first
                // such leader whose *last* color differs.
                for e in lt[my_lt_idx + 1..].iter().filter(|e| e[2] > 0) {
                    if e[3] != c {
                        break;
                    }
                    let (v, _) =
                        recv_async::<u64, _>(parent, Src::Rank(e[0] as usize), tags::SPLIT_PORTION)
                            .await?;
                    members.extend_from_slice(&v);
                    if e[4] != c {
                        break;
                    }
                }
            }
            let g = members.len() as u64;
            let color_idx = base_idx + j as u64;
            let root = members[0] as usize;
            let (kind, a, b, table) = match as_progression(&members) {
                Some((first, stride)) => (0, first, stride, None),
                None => (1, 0, 0, Some(Arc::new(members))),
            };
            let hdr: Header = [0, g, color_idx, kind, a, b, 0, 0];
            if root == r {
                my_notify = Some((hdr, table));
            } else {
                parent.send_vec(vec![hdr], root, tags::SPLIT_NOTIFY)?;
                if let Some(t) = &table {
                    parent.send_shared(t, root, tags::SPLIT_TABLE)?;
                }
            }
        }
    }

    // Phase 5: every member obtains its header (and table, for irregular
    // groups) and forwards down the binomial tree over *new* ranks.
    let mut group_info: Option<(Header, Option<Arc<Vec<u64>>>)> = my_notify;
    if triple.is_some() && group_info.is_none() {
        let (v, st) = recv_async::<Header, _>(parent, Src::Any, tags::SPLIT_NOTIFY).await?;
        let hdr = v[0];
        let table = if hdr[3] == 1 {
            Some(
                recv_shared_async::<u64, _>(parent, Src::Rank(st.source), tags::SPLIT_TABLE)
                    .await?
                    .0,
            )
        } else {
            None
        };
        group_info = Some((hdr, table));
    }
    if let Some((hdr, table)) = &group_info {
        let nr = hdr[0] as usize;
        let g = hdr[1] as usize;
        let member_rank = |x: usize| -> usize {
            if hdr[3] == 0 {
                (hdr[4] + hdr[5] * x as u64) as usize
            } else {
                table.as_ref().expect("dense header has table")[x] as usize
            }
        };
        let mut mask = 1usize;
        while mask < g && nr & mask == 0 {
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            let child = nr + mask;
            if child < g {
                let mut child_hdr = *hdr;
                child_hdr[0] = child as u64;
                let dest = member_rank(child);
                parent.send_vec(vec![child_hdr], dest, tags::SPLIT_NOTIFY)?;
                if let Some(t) = table {
                    parent.send_shared(t, dest, tags::SPLIT_TABLE)?;
                }
            }
            mask >>= 1;
        }
    }

    // Phase 6: context agreement over the parent — one ID per distinct
    // color, claimed in segment (= sorted color) order, identical to the
    // all-gather oracle's IDs.
    if n_colors == 0 {
        return Ok(None); // every rank passed MPI_UNDEFINED
    }
    let idx = group_info.as_ref().map_or(0, |(h, _)| h[2] as usize);
    let ctx = parent
        .agree_ctx_async(parent, tags::CTX_AGREE, n_colors as usize, idx)
        .await?;
    let Some((hdr, table)) = group_info else {
        return Ok(None);
    };
    let g = hdr[1] as usize;
    let pgroup = parent.group();
    let group = if hdr[3] == 0 {
        let (a, b) = (hdr[4] as usize, hdr[5] as usize);
        if pgroup.is_range() {
            // Affine composition: O(1), no rank array — the whole point.
            let first = pgroup.translate(a);
            if g == 1 {
                Group::range(first, 1, 1)
            } else {
                Group::range(first, pgroup.translate(a + b) - first, g)
            }
        } else {
            // A dense parent breaks the affine shortcut: this is a real
            // O(g) rank-array build and is charged like one.
            state.charge(Time(
                (g as f64 * vendor.group_build_ns_per_member).round() as u64
            ));
            Group::from_ranks((0..g).map(|x| pgroup.translate(a + b * x)).collect())
        }
    } else {
        // Explicit O(g) rank-array build, charged like native MPI's.
        state.charge(Time(
            (g as f64 * vendor.group_build_ns_per_member).round() as u64
        ));
        Group::from_ranks(
            table
                .expect("dense header has table")
                .iter()
                .map(|&pr| pgroup.translate(pr as usize))
                .collect(),
        )
    };
    let comm = parent.with_new_ctx(ctx, group)?;
    debug_assert_eq!(comm.rank(), hdr[0] as usize, "table order defines ranks");
    Ok(Some(comm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Universe};
    use proptest::prelude::*;

    /// The textbook `MPI_Comm_split`: all-gather every rank's
    /// `(defined, color, key)` over the parent (Ω(α log p + βp), Θ(p)
    /// memory per rank), group locally, one mask agreement over the
    /// parent, and explicit O(g) group construction. The oracle
    /// [`split_distributed`] must agree with.
    async fn split_allgather(parent: &Comm, color: Option<u64>, key: u64) -> Result<Option<Comm>> {
        let p = parent.size();
        let vendor = &parent.state().router.vendor;
        let triple = (u64::from(color.is_some()), color.unwrap_or(0), key);
        let pairs = coll::allgather1_async(parent, triple, tags::SPLIT_GATHER).await?;
        // Local grouping: sort defined ranks by (color, key, parent rank).
        let mut order: Vec<usize> = (0..p).filter(|&i| pairs[i].0 == 1).collect();
        order.sort_by_key(|&i| (pairs[i].1, pairs[i].2, i));
        let log_p = (usize::BITS - (p - 1).leading_zeros()).max(1) as u64;
        parent.charge(Time(
            (p as f64 * log_p as f64 * SPLIT_SORT_NS).round() as u64
        ));
        // Distinct colors in sorted order determine each group's context-ID
        // index within one shared agreement over the parent.
        let mut colors: Vec<u64> = order.iter().map(|&i| pairs[i].1).collect();
        colors.dedup();
        if colors.is_empty() {
            return Ok(None); // every rank passed MPI_UNDEFINED
        }
        let (my_idx, group) = match color {
            Some(c) => {
                let idx = colors.binary_search(&c).expect("own color present");
                let my_ranks: Vec<usize> = order
                    .iter()
                    .copied()
                    .filter(|&i| pairs[i].1 == c)
                    .map(|i| parent.group().translate(i))
                    .collect();
                let g = my_ranks.len();
                // Explicit group array construction, O(g).
                parent.charge(Time(
                    (g as f64 * vendor.group_build_ns_per_member).round() as u64
                ));
                (idx, Some(Group::from_ranks(my_ranks)))
            }
            None => (0, None),
        };
        let ctx = parent
            .agree_ctx_async(parent, tags::CTX_AGREE, colors.len(), my_idx)
            .await?;
        match group {
            Some(g) => Ok(Some(parent.with_new_ctx(ctx, g)?)),
            None => Ok(None),
        }
    }

    /// What a rank observes about its new communicator: `(new_rank, size,
    /// context id, ordered global member list)`; `None` for `MPI_UNDEFINED`.
    type SplitView = Option<(usize, usize, String, Vec<usize>)>;

    /// Deterministic per-rank `(color, key)` assignment: `None` color with
    /// probability ~1/8, colors from `0..colors_max`, keys from a small range
    /// so ties exercise the rank tie-breaker.
    fn assignment(p: usize, colors_max: u64, seed: u64) -> Vec<(Option<u64>, u64)> {
        (0..p)
            .map(|r| {
                let mut s = seed
                    .wrapping_add(r as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    | 1;
                s ^= s >> 31;
                s = s.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                s ^= s >> 29;
                let color = if s.is_multiple_of(8) {
                    None
                } else {
                    Some((s >> 3) % colors_max)
                };
                let key = (s >> 17) % 4;
                (color, key)
            })
            .collect()
    }

    /// Split `p` ranks by `assign`, through [`Comm::split_with_async`] or,
    /// with `oracle`, through [`split_allgather`].
    fn split_tables(
        p: usize,
        cfg: SimConfig,
        assign: &[(Option<u64>, u64)],
        oracle: bool,
    ) -> (Vec<SplitView>, Vec<Time>) {
        // A future body: these universes go to p = 1024, several per case.
        let assign = &assign.to_vec();
        let res = Universe::run_poll(p, cfg, move |env| async move {
            let w = &env.world;
            let (color, key) = assign[w.rank()];
            let c = if oracle {
                split_allgather(w, color, key).await
            } else {
                w.split_with_async(color, key).await
            };
            c.unwrap().map(|c| {
                (
                    c.rank(),
                    c.size(),
                    format!("{}", c.ctx()),
                    c.group().iter_globals().collect::<Vec<_>>(),
                )
            })
        });
        (res.per_rank, res.clocks)
    }

    /// Run one assignment under both algorithms at 1 and 4 workers and
    /// assert table equality plus worker-count determinism.
    fn check_case(p: usize, colors_max: u64, seed: u64) {
        let assign = assignment(p, colors_max, seed);
        let mut oracle: Option<Vec<SplitView>> = None;
        for workers in [1, 4] {
            let cfg = SimConfig::default().with_workers(workers).with_seed(seed);
            let (dist, dist_clocks) = split_tables(p, cfg.clone(), &assign, false);
            let (gath, _) = split_tables(p, cfg.clone(), &assign, true);
            assert_eq!(
                dist, gath,
                "distributed split must equal the all-gather oracle (p={p} seed={seed})"
            );
            // Both worker counts agree on the tables too.
            match &oracle {
                None => oracle = Some(dist),
                Some(o) => assert_eq!(
                    &dist, o,
                    "tables must not depend on the worker count (p={p} seed={seed})"
                ),
            }
            // Virtual time of the distributed run is a pure function of the
            // program.
            let (_, again) = split_tables(p, cfg, &assign, false);
            assert_eq!(dist_clocks, again, "clocks must be stable");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        // The oracle at the small and medium scales: p = 7 (odd, partial
        // buckets) and p = 64.
        #[test]
        fn distributed_split_matches_allgather_oracle(
            colors_max in 1u64..6,
            seed in any::<u64>(),
        ) {
            for p in [7usize, 64] {
                check_case(p, colors_max, seed);
            }
        }
    }

    /// The large point of the oracle sweep: p = 1024 at 1 and 4 workers
    /// (fixed seeds — each case runs six thousand-rank universes, so the
    /// sweep stays out of the proptest loop).
    #[test]
    fn distributed_split_matches_oracle_at_1024() {
        for seed in [3u64, 0xA5A5_5A5A] {
            check_case(1024, 5, seed);
        }
    }

    /// `MPI_UNDEFINED` everywhere: both algorithms must return `None` on every
    /// rank without claiming a context ID.
    #[test]
    fn all_undefined_yields_no_communicator() {
        for oracle in [false, true] {
            let res = Universe::run(5, SimConfig::default(), |env| {
                let w = &env.world;
                let c = if oracle {
                    crate::block_inline(split_allgather(w, None, 7))
                } else {
                    w.split_with(None, 7)
                };
                c.unwrap().is_none()
            });
            assert!(res.per_rank.into_iter().all(|b| b), "oracle {oracle}");
        }
    }

    /// Key collisions fall back to parent-rank order — the MPI-specified tie
    /// break — identically under both algorithms.
    #[test]
    fn equal_keys_break_ties_by_parent_rank() {
        for oracle in [false, true] {
            let res = Universe::run(8, SimConfig::default(), |env| {
                let w = &env.world;
                let c = if oracle {
                    crate::block_inline(split_allgather(w, Some(0), 42))
                        .unwrap()
                        .expect("defined color always yields a communicator")
                } else {
                    w.split(0, 42).unwrap()
                };
                (c.rank(), c.group().iter_globals().collect::<Vec<_>>())
            });
            for (r, (nr, members)) in res.per_rank.into_iter().enumerate() {
                assert_eq!(nr, r, "oracle {oracle}");
                assert_eq!(members, (0..8).collect::<Vec<_>>(), "oracle {oracle}");
            }
        }
    }

    #[test]
    fn seg_combine_merges_runs() {
        let id: Seg = [0; 5];
        let a: Seg = [1, 3, 3, 1, 0]; // one run of color 3 starting at 0
        let b: Seg = [1, 3, 5, 2, 7]; // colors 3..5, last run starts at 7
        assert_eq!(seg_combine(&id, &a), a);
        assert_eq!(seg_combine(&a, &id), a);
        // a's color 3 merges with b's leading color 3: 2 distinct runs.
        assert_eq!(seg_combine(&a, &b), [1, 3, 5, 2, 7]);
        // If b is a single run of the same color, the combined last run
        // starts where a's did.
        let b1: Seg = [1, 3, 3, 1, 7];
        assert_eq!(seg_combine(&a, &b1), [1, 3, 3, 1, 0]);
    }

    #[test]
    fn seg_combine_is_associative_on_cases() {
        let states = [
            [0u64; 5],
            [1, 1, 1, 1, 0],
            [1, 1, 2, 2, 3],
            [1, 2, 2, 1, 5],
            [1, 2, 4, 3, 9],
            [1, 4, 4, 1, 11],
        ];
        for a in states {
            for b in states {
                for c in states {
                    assert_eq!(
                        seg_combine(&seg_combine(&a, &b), &c),
                        seg_combine(&a, &seg_combine(&b, &c)),
                        "a={a:?} b={b:?} c={c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn progression_detection() {
        assert_eq!(as_progression(&[5]), Some((5, 1)));
        assert_eq!(as_progression(&[2, 4, 6]), Some((2, 2)));
        assert_eq!(as_progression(&[2, 4, 7]), None);
        assert_eq!(as_progression(&[4, 2]), None); // reversed: dense
    }
}
