//! Blocking collective operations, generic over [`Transport`].
//!
//! All patterns are binomial-tree / dissemination based — "generic, not
//! optimized for a specific network, but theoretically optimal for small
//! input sizes" (paper §V-D): O(α log p) startups, O(β·l·log p) volume.
//!
//! These are the cores behind [`Transport`]'s provided collectives
//! (`Transport::bcast`, ...), which run them over
//! [`Transport::coll_view`] of their class with their reserved tag. So the
//! *same algorithms* serve as both the vendor ("native MPI") collectives —
//! a native communicator's view carries the vendor cost profile — and as
//! RBC's collectives (neutral costs). That mirrors the paper's finding
//! that RBC collectives perform like their MPI counterparts: any measured
//! difference comes from communicator construction and vendor overheads,
//! not the algorithms. Called directly, a core runs at the cost scale of
//! the transport it is given, on the caller's tag.
//!
//! # Maybe-async
//!
//! Each collective is written **once**, as an `*_async` core whose
//! blocking receives go through the maybe-async transport primitives
//! ([`crate::transport::recv_async`] and friends); the synchronous
//! function of the same name drives the core with
//! [`crate::sched::poll::block_inline`]. Off a future body every await
//! resolves in place, so the sync wrappers behave exactly as before; in
//! one ([`crate::Universe::run_poll`]) the cores suspend at each blocked
//! receive and the scheduler re-polls them: one implementation for every
//! way a rank runs, and byte-identical output by construction (DESIGN.md
//! §12). The nonblocking collectives ([`crate::nbcoll`]) poll the same
//! cores; only the reduce and gather trees take their children in another
//! order there (`Children`).

use std::future::Future;
use std::sync::Arc;

use crate::datum::Datum;
use crate::error::{MpiError, Result};
use crate::msg::Tag;
use crate::obs::{self, OpClass};
use crate::sched::poll::block_inline;
use crate::transport::{recv_async, recv_shared_async, Src, Transport};

/// Elementwise combine of two equal-length vectors: `acc[i] = op(acc[i], v[i])`
/// (`v` provides the *left* operand when it comes from lower-ranked data).
fn combine_into<T: Datum>(acc: &mut [T], v: &[T], op: &impl Fn(&T, &T) -> T, v_is_left: bool) {
    debug_assert_eq!(acc.len(), v.len(), "reduction buffers must match");
    for (a, b) in acc.iter_mut().zip(v.iter()) {
        *a = if v_is_left { op(b, a) } else { op(a, b) };
    }
}

/// Children of `rel` (a rank relative to the root) in the binomial tree
/// over `p` nodes, smallest subtree first: `rel + 2^k` for every `2^k`
/// below `rel`'s lowest set bit (below `p` for the root). The parent of
/// `rel != 0` is `rel` with that bit cleared.
fn binom_children(rel: usize, p: usize) -> impl DoubleEndedIterator<Item = usize> {
    let lsb = if rel == 0 {
        p.next_power_of_two()
    } else {
        rel & rel.wrapping_neg()
    };
    (0..lsb.trailing_zeros())
        .map(move |k| rel + (1 << k))
        .filter(move |&c| c < p)
}

/// In which order the tree of [`reduce`] or [`gatherv`] takes its
/// children's contributions. The values are the same either way (the
/// operators commute); *when* each receive happens differs, and with it
/// the virtual time, so each collective keeps the order it always had.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Children {
    /// Smallest subtree first, one blocking receive each: the blocking
    /// collectives.
    InTreeOrder,
    /// As they arrive: sweep the children largest subtree first, take
    /// every one whose contribution is there, and park until the next
    /// deposit while any is missing. The nonblocking collectives
    /// ([`crate::nbcoll`]), whose poll is one sweep.
    AsTheyArrive,
}

/// [`Children::AsTheyArrive`]: the children of `rel` (communicator ranks
/// in the tree over `p` nodes rooted at `root`) largest subtree first, each
/// with room for a partial contribution.
fn arrival_list<S: Default>(rel: usize, root: usize, p: usize) -> Vec<(usize, S)> {
    binom_children(rel, p)
        .rev()
        .map(|c| ((c + root) % p, S::default()))
        .collect()
}

/// One sweep of [`Children::AsTheyArrive`]: offer each pending child to
/// `take`, which says whether it took the child's whole contribution (its
/// stash keeps a partial one between sweeps). A taken child's place is
/// filled with the last one (`swap_remove`); a miss moves no clock, so
/// sweeping again from the start after a deposit sees what an unbroken
/// sweep would have. `Ok(true)` once no child is pending.
fn sweep<S>(
    pending: &mut Vec<(usize, S)>,
    mut take: impl FnMut(usize, &mut S) -> Result<bool>,
) -> Result<bool> {
    let mut i = 0;
    while i < pending.len() {
        let (child, stash) = &mut pending[i];
        if take(*child, stash)? {
            pending.swap_remove(i);
        } else {
            i += 1;
        }
    }
    Ok(pending.is_empty())
}

/// Binomial-tree broadcast from `root`. On non-root ranks `data` is
/// replaced by the broadcast payload.
///
/// The payload travels the tree as a **shared** buffer: every stage clones
/// an `Arc`, not the data, so an interior node forwards to its O(log p)
/// children in O(1) copies instead of O(children · bytes) — the zero-copy
/// fan-out path ([`Transport::send_shared`]). Each rank materialises its
/// own `Vec` at most once, at the end, off every other rank's critical
/// path (and not at all when it holds the last reference).
pub fn bcast<T: Datum>(
    tr: &impl Transport,
    data: &mut Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<()> {
    block_inline(bcast_async(tr, data, root, tag))
}

/// [`bcast`] as a maybe-async core (see the module docs).
pub async fn bcast_async<T: Datum>(
    tr: &impl Transport,
    data: &mut Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<()> {
    let mine = (tr.rank() == root).then(|| Arc::new(std::mem::take(data)));
    let shared = bcast_shared_async(tr, mine, root, tag).await?;
    *data = Arc::unwrap_or_clone(shared);
    Ok(())
}

/// The tree of [`bcast`] on the shared buffer: `data` is the root's
/// payload (`None` elsewhere). Returns the payload on every rank, still
/// shared with the children it was forwarded to.
pub(crate) async fn bcast_shared_async<T: Datum>(
    tr: &impl Transport,
    data: Option<Arc<Vec<T>>>,
    root: usize,
    tag: Tag,
) -> Result<Arc<Vec<T>>> {
    let p = tr.size();
    let r = tr.rank();
    tr.check_rank(root)?;
    let _span = obs::span(tr.state(), OpClass::Bcast, "bcast");
    let rel = (r + p - root) % p;
    let data = if rel == 0 {
        data.expect("the root supplies the data")
    } else {
        let parent = (rel & (rel - 1)) + root;
        recv_shared_async::<T, _>(tr, Src::Rank(parent % p), tag)
            .await?
            .0
    };
    for c in binom_children(rel, p).rev() {
        tr.send_shared(&data, (c + root) % p, tag)?;
    }
    Ok(data)
}

/// Binomial-tree reduction to `root`. Returns `Some(result)` on the root,
/// `None` elsewhere. `op` should be associative; commutativity is assumed
/// (as for all MPI built-in operators).
pub fn reduce<T: Datum>(
    tr: &impl Transport,
    data: &[T],
    root: usize,
    tag: Tag,
    op: impl Fn(&T, &T) -> T,
) -> Result<Option<Vec<T>>> {
    block_inline(reduce_async(tr, data, root, tag, op))
}

/// [`reduce`] as a maybe-async core (see the module docs).
pub async fn reduce_async<T: Datum>(
    tr: &impl Transport,
    data: &[T],
    root: usize,
    tag: Tag,
    op: impl Fn(&T, &T) -> T,
) -> Result<Option<Vec<T>>> {
    reduce_tree(tr, data.to_vec(), root, tag, op, Children::InTreeOrder).await
}

/// The tree of [`reduce`], `acc` this rank's contribution, taking the
/// children in the order `children` names.
pub(crate) async fn reduce_tree<T: Datum>(
    tr: &impl Transport,
    mut acc: Vec<T>,
    root: usize,
    tag: Tag,
    op: impl Fn(&T, &T) -> T,
    children: Children,
) -> Result<Option<Vec<T>>> {
    let p = tr.size();
    let r = tr.rank();
    tr.check_rank(root)?;
    let _span = obs::span(tr.state(), OpClass::Reduce, "reduce");
    let rel = (r + p - root) % p;
    match children {
        Children::InTreeOrder => {
            for c in binom_children(rel, p) {
                let (v, _) = recv_async::<T, _>(tr, Src::Rank((c + root) % p), tag).await?;
                fold_child(tr, &mut acc, v, &op);
            }
        }
        Children::AsTheyArrive => {
            let mut pending = arrival_list::<()>(rel, root, p);
            while !sweep(&mut pending, |child, _| {
                let hit = tr.try_recv::<T>(Src::Rank(child), tag)?;
                Ok(hit.map(|(v, _)| fold_child(tr, &mut acc, v, &op)).is_some())
            })? {
                tr.state().park_until_deposit().await;
            }
        }
    }
    if rel == 0 {
        return Ok(Some(acc));
    }
    tr.send_vec(acc, ((rel & (rel - 1)) + root) % p, tag)?;
    Ok(None)
}

/// Fold a child's contribution `v` into `acc`. Child data comes from
/// higher relative ranks: `acc` is the left operand.
fn fold_child<T: Datum>(tr: &impl Transport, acc: &mut [T], v: Vec<T>, op: &impl Fn(&T, &T) -> T) {
    combine_into(acc, &v, op, false);
    tr.charge_compute(acc.len());
}

/// Reduce-to-all: binomial reduce to rank 0 followed by a broadcast.
pub fn allreduce<T: Datum>(
    tr: &impl Transport,
    data: &[T],
    tag: Tag,
    op: impl Fn(&T, &T) -> T,
) -> Result<Vec<T>> {
    block_inline(allreduce_async(tr, data, tag, op))
}

/// [`allreduce`] as a maybe-async core (see the module docs).
pub async fn allreduce_async<T: Datum>(
    tr: &impl Transport,
    data: &[T],
    tag: Tag,
    op: impl Fn(&T, &T) -> T,
) -> Result<Vec<T>> {
    // The span nests a reduce and a bcast; each inner span re-attributes
    // its own sends (innermost wins), so allreduce volume splits across
    // the two classes exactly as the algorithm does.
    let _span = obs::span(tr.state(), OpClass::Reduce, "allreduce");
    let mut out: Vec<T> = reduce_async(tr, data, 0, tag, op)
        .await?
        .unwrap_or_default();
    bcast_async(tr, &mut out, 0, tag).await?;
    Ok(out)
}

/// Inclusive prefix "sum" (Hillis–Steele over communicator ranks):
/// rank `i` obtains `op(data_0, ..., data_i)` in ⌈log₂ p⌉ rounds.
pub fn scan<T: Datum>(
    tr: &impl Transport,
    data: &[T],
    tag: Tag,
    op: impl Fn(&T, &T) -> T,
) -> Result<Vec<T>> {
    block_inline(scan_async(tr, data, tag, op))
}

/// [`scan`] as a maybe-async core (see the module docs).
pub async fn scan_async<T: Datum>(
    tr: &impl Transport,
    data: &[T],
    tag: Tag,
    op: impl Fn(&T, &T) -> T,
) -> Result<Vec<T>> {
    Ok(prefixes(tr, data.to_vec(), tag, op, false, "scan").await?.0)
}

/// Exclusive prefix: rank `i` obtains `op(data_0, ..., data_{i-1})`, `None`
/// on rank 0 (which has no predecessors).
pub fn exscan<T: Datum>(
    tr: &impl Transport,
    data: &[T],
    tag: Tag,
    op: impl Fn(&T, &T) -> T,
) -> Result<Option<Vec<T>>> {
    block_inline(exscan_async(tr, data, tag, op))
}

/// [`exscan`] as a maybe-async core (see the module docs).
pub async fn exscan_async<T: Datum>(
    tr: &impl Transport,
    data: &[T],
    tag: Tag,
    op: impl Fn(&T, &T) -> T,
) -> Result<Option<Vec<T>>> {
    Ok(prefixes(tr, data.to_vec(), tag, op, true, "exscan")
        .await?
        .1)
}

/// The rounds of [`scan`] and [`exscan`]: this rank's inclusive and
/// exclusive prefix, `incl` starting as its own contribution. The
/// exclusive one is `None` on rank 0, and on every rank unless
/// `with_excl` asks for it to be folded. `label` names the trace span.
pub(crate) async fn prefixes<T: Datum>(
    tr: &impl Transport,
    mut incl: Vec<T>,
    tag: Tag,
    op: impl Fn(&T, &T) -> T,
    with_excl: bool,
    label: &'static str,
) -> Result<(Vec<T>, Option<Vec<T>>)> {
    let p = tr.size();
    let r = tr.rank();
    let _span = obs::span(tr.state(), OpClass::Scan, label);
    let mut excl: Option<Vec<T>> = None;
    let mut d = 1usize;
    while d < p {
        if r + d < p {
            tr.send(&incl, r + d, tag)?;
        }
        if r >= d {
            let (v, _) = recv_async::<T, _>(tr, Src::Rank(r - d), tag).await?;
            // v covers ranks [r-2d+1, r-d]; accumulated windows are
            // contiguous, and v is always to the LEFT of what we hold.
            combine_into(&mut incl, &v, &op, true);
            tr.charge_compute(incl.len());
            if with_excl {
                match &mut excl {
                    // First contribution: keep the received buffer itself.
                    None => excl = Some(v),
                    Some(e) => combine_into(e, &v, &op, true),
                }
            }
        }
        d <<= 1;
    }
    Ok((incl, excl))
}

/// Binomial-tree gather of variable-size contributions. Returns
/// `Some(per_rank_data)` on the root (indexed by source rank), `None`
/// elsewhere. Uses tags `tag` (metadata) and `tag + 1` (payload).
pub fn gatherv<T: Datum>(
    tr: &impl Transport,
    data: Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<Option<Vec<Vec<T>>>> {
    block_inline(gatherv_async(tr, data, root, tag))
}

/// [`gatherv`] as a maybe-async core (see the module docs).
pub async fn gatherv_async<T: Datum>(
    tr: &impl Transport,
    data: Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<Option<Vec<Vec<T>>>> {
    gatherv_tree(tr, data, root, tag, Children::InTreeOrder).await
}

/// [`gatherv`] with the nonblocking gather's child order
/// (`Children::AsTheyArrive`): each child's contribution is taken as it
/// arrives, so the virtual time is [`crate::nbcoll::igatherv`]'s, not the
/// blocking gather's. For a caller's own core on [`crate::nbcoll::Nbc`].
pub fn gatherv_as_they_arrive_async<'a, T: Datum>(
    tr: &'a impl Transport,
    data: Vec<T>,
    root: usize,
    tag: Tag,
) -> impl Future<Output = Result<Option<Vec<Vec<T>>>>> + 'a {
    gatherv_tree(tr, data, root, tag, Children::AsTheyArrive)
}

/// The tree of [`gatherv`], taking the children in the order `children`
/// names.
async fn gatherv_tree<T: Datum>(
    tr: &impl Transport,
    data: Vec<T>,
    root: usize,
    tag: Tag,
    children: Children,
) -> Result<Option<Vec<Vec<T>>>> {
    let p = tr.size();
    let r = tr.rank();
    tr.check_rank(root)?;
    let _span = obs::span(tr.state(), OpClass::Gather, "gatherv");
    if p == 1 {
        return Ok(Some(vec![data]));
    }
    let rel = (r + p - root) % p;
    // (origin rank, element count) for each bundled contribution, payloads
    // concatenated in the same order.
    let mut meta: Vec<(u64, u64)> = vec![(r as u64, data.len() as u64)];
    let mut payload: Vec<T> = data;
    match children {
        Children::InTreeOrder => {
            for c in binom_children(rel, p) {
                let src = Src::Rank((c + root) % p);
                let (m, _) = recv_async::<(u64, u64), _>(tr, src, tag).await?;
                let (d, _) = recv_async::<T, _>(tr, src, tag + 1).await?;
                meta.extend_from_slice(&m);
                payload.extend_from_slice(&d);
            }
        }
        Children::AsTheyArrive => {
            let mut pending = arrival_list::<Option<Vec<(u64, u64)>>>(rel, root, p);
            while !sweep(&mut pending, |child, m| {
                if m.is_none() {
                    match tr.try_recv::<(u64, u64)>(Src::Rank(child), tag)? {
                        None => return Ok(false),
                        Some((got, _)) => *m = Some(got),
                    }
                }
                // The payload follows on tag + 1 (FIFO per sender).
                let Some((d, _)) = tr.try_recv::<T>(Src::Rank(child), tag + 1)? else {
                    return Ok(false);
                };
                meta.extend_from_slice(&m.take().expect("metadata first"));
                payload.extend_from_slice(&d);
                Ok(true)
            })? {
                tr.state().park_until_deposit().await;
            }
        }
    }
    if rel != 0 {
        let parent = ((rel & (rel - 1)) + root) % p;
        tr.send_vec(meta, parent, tag)?;
        tr.send_vec(payload, parent, tag + 1)?;
        return Ok(None);
    }
    // Root: scatter the bundle back into rank order.
    let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
    let mut off = 0usize;
    for (origin, cnt) in meta {
        let cnt = cnt as usize;
        out[origin as usize] = payload[off..off + cnt].to_vec();
        off += cnt;
    }
    Ok(Some(out))
}

/// Equal-count gather: each rank contributes `data`; the root receives the
/// concatenation in rank order.
pub fn gather<T: Datum>(
    tr: &impl Transport,
    data: Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<Option<Vec<T>>> {
    block_inline(gather_async(tr, data, root, tag))
}

/// [`gather`] as a maybe-async core (see the module docs).
pub async fn gather_async<T: Datum>(
    tr: &impl Transport,
    data: Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<Option<Vec<T>>> {
    Ok(gatherv_async(tr, data, root, tag)
        .await?
        .map(|per_rank| per_rank.into_iter().flatten().collect()))
}

/// All-gather of one element per rank (gather to 0 + broadcast).
pub fn allgather1<T: Datum>(tr: &impl Transport, item: T, tag: Tag) -> Result<Vec<T>> {
    block_inline(allgather1_async(tr, item, tag))
}

/// [`allgather1`] as a maybe-async core (see the module docs).
pub async fn allgather1_async<T: Datum>(tr: &impl Transport, item: T, tag: Tag) -> Result<Vec<T>> {
    let _span = obs::span(tr.state(), OpClass::Gather, "allgather1");
    let mut all = gather_async(tr, vec![item], 0, tag)
        .await?
        .unwrap_or_default();
    bcast_async(tr, &mut all, 0, tag).await?;
    Ok(all)
}

/// Dissemination barrier: ⌈log₂ p⌉ rounds, no data.
pub fn barrier(tr: &impl Transport, tag: Tag) -> Result<()> {
    block_inline(barrier_async(tr, tag))
}

/// [`barrier`] as a maybe-async core (see the module docs).
pub async fn barrier_async(tr: &impl Transport, tag: Tag) -> Result<()> {
    let p = tr.size();
    let r = tr.rank();
    let _span = obs::span(tr.state(), OpClass::Barrier, "barrier");
    let mut d = 1usize;
    while d < p {
        tr.send_vec::<u8>(Vec::new(), (r + d) % p, tag)?;
        recv_async::<u8, _>(tr, Src::Rank((r + p - d) % p), tag).await?;
        d <<= 1;
    }
    Ok(())
}

/// Direct (single-phase) personalized all-to-all with variable counts.
/// `send[i]` goes to rank `i`; returns the vector received from each rank.
pub fn alltoallv<T: Datum>(
    tr: &impl Transport,
    send: Vec<Vec<T>>,
    tag: Tag,
) -> Result<Vec<Vec<T>>> {
    block_inline(alltoallv_async(tr, send, tag))
}

/// [`alltoallv`] as a maybe-async core (see the module docs).
pub async fn alltoallv_async<T: Datum>(
    tr: &impl Transport,
    send: Vec<Vec<T>>,
    tag: Tag,
) -> Result<Vec<Vec<T>>> {
    let p = tr.size();
    let r = tr.rank();
    if send.len() != p {
        return Err(MpiError::Usage(format!(
            "alltoallv needs one bucket per rank: {} buckets for {p} ranks",
            send.len()
        )));
    }
    let _span = obs::span(tr.state(), OpClass::Other, "alltoallv");
    let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
    for (i, bucket) in send.into_iter().enumerate() {
        if i == r {
            out[r] = bucket;
        } else {
            tr.send_vec(bucket, i, tag)?;
        }
    }
    // Indexed loop, not `iter_mut`: an `&mut` borrow of `out` must not be
    // held across the `.await`.
    #[allow(clippy::needless_range_loop)]
    for i in 0..p {
        if i != r {
            let (v, _) = recv_async::<T, _>(tr, Src::Rank(i), tag).await?;
            out[i] = v;
        }
    }
    Ok(out)
}

/// Binomial-tree scatter of variable-size blocks: the root provides one
/// vector per rank; every rank receives its block. The inverse of
/// [`gatherv`], with the same two-message-per-edge framing
/// (tags `tag` and `tag + 1`). `blocks` is read at the root only; a root
/// passing `None` or other than one block per rank gets
/// [`MpiError::Usage`] before it sends anything.
pub fn scatterv<T: Datum>(
    tr: &impl Transport,
    blocks: Option<Vec<Vec<T>>>,
    root: usize,
    tag: Tag,
) -> Result<Vec<T>> {
    block_inline(scatterv_async(tr, blocks, root, tag))
}

/// [`scatterv`] as a maybe-async core (see the module docs).
pub async fn scatterv_async<T: Datum>(
    tr: &impl Transport,
    blocks: Option<Vec<Vec<T>>>,
    root: usize,
    tag: Tag,
) -> Result<Vec<T>> {
    let p = tr.size();
    let r = tr.rank();
    tr.check_rank(root)?;
    let blocks = match blocks {
        _ if r != root => None,
        Some(blocks) if blocks.len() == p => Some(blocks),
        Some(blocks) => {
            return Err(MpiError::Usage(format!(
                "scatterv needs one block per rank: {} blocks for {p} ranks",
                blocks.len()
            )))
        }
        None => {
            return Err(MpiError::Usage(
                "the scatterv root provides no blocks".into(),
            ))
        }
    };
    let _span = obs::span(tr.state(), OpClass::Other, "scatterv");
    let rel = (r + p - root) % p;
    // Receive my bundle (all blocks for my subtree) from the parent, or
    // start with everything at the root.
    let (mut meta, mut payload): (Vec<(u64, u64)>, Vec<T>) = if let Some(blocks) = blocks {
        if p == 1 {
            return Ok(blocks.into_iter().next().unwrap_or_default());
        }
        let meta = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (i as u64, b.len() as u64))
            .collect();
        (meta, blocks.into_iter().flatten().collect())
    } else {
        let mut mask = 1usize;
        loop {
            if rel & mask != 0 {
                let src = (rel - mask + root) % p;
                let (m, _) = recv_async::<(u64, u64), _>(tr, Src::Rank(src), tag).await?;
                let (d, _) = recv_async::<T, _>(tr, Src::Rank(src), tag + 1).await?;
                break (m, d);
            }
            mask <<= 1;
        }
    };
    // Forward each child's subtree share; keep my own block.
    let top = p.next_power_of_two();
    let mut m = if rel == 0 {
        top >> 1
    } else {
        (rel & rel.wrapping_neg()) >> 1
    };
    while m > 0 {
        let child_rel = rel + m;
        if child_rel < p {
            // The child's subtree covers relative ranks [child_rel, child_rel + m).
            let child_set: Vec<usize> = (child_rel..(child_rel + m).min(p))
                .map(|cr| (cr + root) % p)
                .collect();
            let mut c_meta = Vec::new();
            let mut c_payload = Vec::new();
            let mut k_meta = Vec::new();
            let mut k_payload = Vec::new();
            let mut off = 0usize;
            for &(origin, cnt) in &meta {
                let cnt = cnt as usize;
                let slice = &payload[off..off + cnt];
                if child_set.contains(&(origin as usize)) {
                    c_meta.push((origin, cnt as u64));
                    c_payload.extend_from_slice(slice);
                } else {
                    k_meta.push((origin, cnt as u64));
                    k_payload.extend_from_slice(slice);
                }
                off += cnt;
            }
            meta = k_meta;
            payload = k_payload;
            tr.send_vec(c_meta, (child_rel + root) % p, tag)?;
            tr.send_vec(c_payload, (child_rel + root) % p, tag + 1)?;
        }
        m >>= 1;
    }
    // What remains is exactly my block.
    debug_assert_eq!(meta.len(), 1);
    debug_assert_eq!(meta[0].0 as usize, r);
    Ok(payload)
}

/// Equal-count scatter: the root's `data` is split into `p` equal blocks
/// (empty ones for empty `data`). `data` is read at the root only; a count
/// not divisible by `p` there is an [`MpiError::Usage`], returned before
/// the root sends anything.
pub fn scatter<T: Datum>(
    tr: &impl Transport,
    data: Option<Vec<T>>,
    root: usize,
    tag: Tag,
) -> Result<Vec<T>> {
    block_inline(scatter_async(tr, data, root, tag))
}

/// [`scatter`] as a maybe-async core (see the module docs).
pub async fn scatter_async<T: Datum>(
    tr: &impl Transport,
    data: Option<Vec<T>>,
    root: usize,
    tag: Tag,
) -> Result<Vec<T>> {
    let p = tr.size();
    let blocks = match data {
        Some(d) if tr.rank() == root => {
            if d.len() % p != 0 {
                return Err(MpiError::Usage(format!(
                    "scatter needs a count divisible by {p} ranks, got {}",
                    d.len()
                )));
            }
            let each = d.len() / p;
            Some(
                (0..p)
                    .map(|i| d[i * each..(i + 1) * each].to_vec())
                    .collect(),
            )
        }
        _ => None,
    };
    scatterv_async(tr, blocks, root, tag).await
}

/// Fixed-size personalized all-to-all: `send[i]` (all equal length) goes
/// to rank `i`.
pub fn alltoall<T: Datum>(tr: &impl Transport, send: Vec<Vec<T>>, tag: Tag) -> Result<Vec<Vec<T>>> {
    block_inline(alltoall_async(tr, send, tag))
}

/// [`alltoall`] as a maybe-async core (see the module docs).
pub async fn alltoall_async<T: Datum>(
    tr: &impl Transport,
    send: Vec<Vec<T>>,
    tag: Tag,
) -> Result<Vec<Vec<T>>> {
    debug_assert!(send.windows(2).all(|w| w[0].len() == w[1].len()));
    alltoallv_async(tr, send, tag).await
}

/// Variable-count all-gather: every rank contributes `data`, every rank
/// receives all contributions indexed by source rank (gatherv + bcast of
/// the flattened bundle).
pub fn allgatherv<T: Datum>(tr: &impl Transport, data: Vec<T>, tag: Tag) -> Result<Vec<Vec<T>>> {
    block_inline(allgatherv_async(tr, data, tag))
}

/// [`allgatherv`] as a maybe-async core (see the module docs).
pub async fn allgatherv_async<T: Datum>(
    tr: &impl Transport,
    data: Vec<T>,
    tag: Tag,
) -> Result<Vec<Vec<T>>> {
    let p = tr.size();
    let _span = obs::span(tr.state(), OpClass::Gather, "allgatherv");
    let gathered = gatherv_async(tr, data, 0, tag).await?;
    let (mut counts, mut flat): (Vec<u64>, Vec<T>) = match gathered {
        Some(per_rank) => (
            per_rank.iter().map(|v| v.len() as u64).collect(),
            per_rank.into_iter().flatten().collect(),
        ),
        None => (Vec::new(), Vec::new()),
    };
    bcast_async(tr, &mut counts, 0, tag + 2).await?;
    bcast_async(tr, &mut flat, 0, tag + 3).await?;
    let mut out = Vec::with_capacity(p);
    let mut off = 0usize;
    for c in counts {
        let c = c as usize;
        out.push(flat[off..off + c].to_vec());
        off += c;
    }
    Ok(out)
}
