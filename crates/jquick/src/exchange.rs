//! The data-exchange step (paper §VII, step 4), as async cores a level
//! awaits, so a janus process can drive two exchanges simultaneously.
//!
//! Two implementations:
//!
//! * greedy — the paper's greedy message assignment: every process isends
//!   its (at most ~4) contiguous chunks directly to their target
//!   processes, then "receives messages until n/p elements have been
//!   received". A receiver may face Θ(min(p, n/p)) incoming messages in
//!   the worst case. No key is copied for the exchange: each chunk is a
//!   range of one side of the level's partition ([`Parted`]) and goes out
//!   as a view of it ([`Transport::send_slice`]), or, when it is that
//!   whole side, as the side itself; the receiver keeps each arrived
//!   chunk, in arrival order, as a piece of its next level's [`Segments`]
//!   ([`Transport::try_recv_slice`]), and that level's partition reads
//!   them in place. Keys of at most a cache line are the exception both
//!   ways: such a chunk travels as a copy, and such a
//!   side is gathered into one buffer as it arrives, because a piece of
//!   its own would cost its reader more than its bytes.
//! * staged — a bounded-degree stand-in for the deterministic message
//!   assignment of \[20\]: elements travel to their targets by recursive
//!   bisection of the process range, one send and O(1) receives per
//!   process per round, ⌈log₂ q⌉ rounds. Same O(α log p) startup budget as
//!   \[20\], at the price of possibly forwarding data O(log p) times.
//!
//! Both are generic over [`Transport`] and communicate within the task's
//! communicator using user-level tags (distinct per side), relying on RBC's
//! ≤1-process-overlap guarantee between adjacent tasks (§V-A). Both take
//! whatever has arrived on each poll and park until the next deposit: the
//! receive order, and with it element order and virtual time, is that of
//! the arrivals.
//!
//! Both take the same inputs: `keys` is my window∩task slice as the level
//! partitioned it (smalls, then larges); `s_excl`/`off_excl` are my prefix
//! counts within the task; `s_total` the task-wide small count.
//! `first_proc` maps task-comm ranks to global process indices
//! (`global = first_proc + rank`). Both return my received small and large
//! elements (exactly my window's intersection with each side — perfect
//! balance) as segment lists: views of the senders' buffers for greedy,
//! one buffer per side for staged, which reassembles its elements by
//! position. Each does its local work when called and returns a future
//! holding only what its receives need.

use std::future::Future;
use std::sync::Arc;

use mpisim::{Result, SharedSlice, SortKey, Src, Tag, Transport};

use crate::assign::{greedy_assignment, recv_expectation, OutMsg};
use crate::layout::{Layout, TaskRange};
use crate::partition::{Parted, Piece, Segments, CACHE_LINE};

/// Tags used inside a level; plain user tags, safe because simultaneously
/// active tasks share at most one process (the janus).
pub mod tags {
    use mpisim::Tag;
    /// Tag carrying small-half elements in the greedy exchange.
    pub const X_SMALL: Tag = 40;
    /// Tag carrying large-half elements in the greedy exchange.
    pub const X_LARGE: Tag = 42;
    /// Tag of the staged exchange's run headers (`(first_pos, len)` pairs).
    pub const X_STAGED: Tag = 44;
    /// Tag of the staged exchange's values payload (position-sorted).
    pub const X_STAGED_VALS: Tag = 46;
}

/// Which exchange algorithm to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AssignmentKind {
    /// Direct sends to final owners, computed by range arithmetic (§VII-B).
    #[default]
    Greedy,
    /// Recursive bisection: log rounds of neighbor exchanges.
    Staged,
}

// ---------------------------------------------------------------------------
// Greedy
// ---------------------------------------------------------------------------

/// Greedy exchange: every process sends each of its chunks to the final
/// owner, as a view of its side's partition buffer (`keys`) unless the
/// side is one chunk, keeps the chunk addressed to itself without a
/// message, then receives views until its expectation is met.
#[allow(clippy::too_many_arguments)]
pub(crate) fn greedy<'c, T: SortKey, C: Transport>(
    c: &'c C,
    layout: Layout,
    task: TaskRange,
    first_proc: u64,
    keys: Parted<T>,
    s_excl: u64,
    off_excl: u64,
    s_total: u64,
) -> Result<impl Future<Output = Result<(Segments<T>, Segments<T>)>> + 'c> {
    let me = first_proc + c.rank() as u64;
    let exp = recv_expectation(&layout, &task, s_total, me);
    let (n_small, n_large) = (exp.small_count as usize, exp.large_count as usize);
    let (my_small, my_large) = (keys.small.len() as u64, keys.large.len() as u64);
    let msgs = greedy_assignment(
        &layout, &task, s_excl, my_small, my_large, off_excl, s_total,
    );
    let n_small_msgs = msgs.partition_point(|m| m.small);
    debug_assert!(msgs[n_small_msgs..].iter().all(|m| !m.small));
    // A side of at most a cache line is gathered into one buffer as its
    // pieces arrive, instead of kept in pieces (see `CACHE_LINE`).
    let gather = [n_small, n_large].map(|want| want * size_of::<T>() <= CACHE_LINE);
    // Fire all sends up front (nonblocking, buffered), smalls first as
    // `greedy_assignment` lists them.
    let (mut got_small, mut got_large) = (Segments::new(), Segments::new());
    let (small_msgs, large_msgs) = msgs.split_at(n_small_msgs);
    let side =
        |keys, msgs, got, tag, want| send_side(c, keys, msgs, got, tag, want, me, first_proc);
    let want = |n, gather| if gather { Some(n) } else { None };
    side(
        keys.small,
        small_msgs,
        &mut got_small,
        tags::X_SMALL,
        want(n_small, gather[0]),
    )?;
    side(
        keys.large,
        large_msgs,
        &mut got_large,
        tags::X_LARGE,
        want(n_large, gather[1]),
    )?;
    // Receive until the window's worth of each side has arrived: every
    // sweep takes all small chunks there, then all large ones. `left`
    // counts what each side still waits for.
    let mut left = [n_small - got_small.len(), n_large - got_large.len()];
    Ok(async move {
        loop {
            take_arrived(c, tags::X_SMALL, &mut got_small, &mut left[0], gather[0])?;
            take_arrived(c, tags::X_LARGE, &mut got_large, &mut left[1], gather[1])?;
            if left == [0, 0] {
                return Ok((got_small, got_large));
            }
            c.state().park_until_deposit().await;
        }
    })
}

/// Take every chunk of `tag` that has arrived into `got`, until the
/// `left` keys it still waits for are there; copied into one buffer if the
/// side `gather`s.
fn take_arrived<T: SortKey, C: Transport>(
    c: &C,
    tag: Tag,
    got: &mut Segments<T>,
    left: &mut usize,
    gather: bool,
) -> Result<()> {
    while *left > 0 {
        let Some((v, _)) = c.try_recv_slice::<T>(Src::Any, tag)? else {
            break;
        };
        let want = got.len() + *left;
        *left = left
            .checked_sub(v.len())
            .expect("no more than the window's worth arrives");
        match gather {
            true => got.gather(v, want),
            false => got.push(v),
        }
    }
    Ok(())
}

/// Send one side's chunks `msgs` (in order) from the side's keys, keeping
/// the chunk addressed to myself in `got` without a message. A side that
/// is one chunk goes as it is: moved into the message when I own it. A
/// side cut into chunks goes as views of one shared buffer, except that a
/// chunk of at most `CACHE_LINE` bytes goes as a copy: a view of it
/// would cost its reader more than its bytes, and could keep a large
/// buffer alive for a few keys.
#[allow(clippy::too_many_arguments)]
fn send_side<T: SortKey, C: Transport>(
    c: &C,
    keys: Piece<T>,
    msgs: &[OutMsg],
    got: &mut Segments<T>,
    tag: Tag,
    gather: Option<usize>,
    me: u64,
    first_proc: u64,
) -> Result<()> {
    let dest = |m: &OutMsg| (m.target - first_proc) as usize;
    let keep = |got: &mut Segments<T>, piece: Piece<T>| match gather {
        Some(want) => got.gather(piece, want),
        None => got.push(piece),
    };
    let copy = |got: &mut Segments<T>, m: &OutMsg, chunk: &[T]| match m.target == me {
        true => {
            keep(got, Piece::Own(chunk.to_vec()));
            Ok(())
        }
        false => c.send(chunk, dest(m), tag),
    };
    let small = |m: &OutMsg| (m.local_range.1 - m.local_range.0) * size_of::<T>() <= CACHE_LINE;
    match (msgs, keys) {
        ([m], keys) if m.target == me => {
            keep(got, keys);
            Ok(())
        }
        ([m], Piece::Own(v)) => c.send_vec(v, dest(m), tag),
        ([m], Piece::View(v)) => c.send_slice(v.buffer(), v.range(), dest(m), tag),
        (msgs, keys) if msgs.iter().all(small) => msgs
            .iter()
            .try_for_each(|m| copy(got, m, &keys[m.local_range.0..m.local_range.1])),
        (msgs, keys) => {
            let (buf, at) = match keys {
                Piece::Own(v) => (Arc::new(v), 0),
                Piece::View(v) => (Arc::clone(v.buffer()), v.range().start),
            };
            for m in msgs {
                let range = at + m.local_range.0..at + m.local_range.1;
                if small(m) {
                    copy(got, m, &buf[range])?;
                } else if m.target == me {
                    keep(got, SharedSlice::new(Arc::clone(&buf), range).into());
                } else {
                    c.send_slice(&buf, range, dest(m), tag)?;
                }
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Staged (recursive bisection)
// ---------------------------------------------------------------------------

/// A sender this round still owes us data: its task-comm rank, plus its
/// run headers once those arrived.
type PendingSender = (usize, Option<Vec<(u64, u64)>>);

/// Partner of `x` when `[a, b]` splits at `mid` (first process of the right
/// half): mirror into the other half, clamped to the interval.
fn partner(x: u64, a: u64, b: u64, mid: u64) -> u64 {
    let shift = mid - a;
    if x < mid {
        (x + shift).min(b)
    } else {
        x - shift // >= a by construction (right half is never larger)
    }
}

/// Staged exchange: elements move toward their final owner through
/// O(log p) bisection rounds; each round halves the process range `[a, b]`
/// (global indices) containing me.
///
/// On the wire each round ships two messages per edge — run headers
/// (`(first_pos, len)`, tag [`tags::X_STAGED`]) and position-sorted values
/// (tag [`tags::X_STAGED_VALS`]) — instead of one `Vec<(T, u64)>` of
/// per-element position tags: see [`encode_runs`] for the byte math.
#[allow(clippy::too_many_arguments)]
pub(crate) fn staged<'c, T: SortKey, C: Transport>(
    c: &'c C,
    layout: Layout,
    task: TaskRange,
    first_proc: u64,
    keys: Parted<T>,
    s_excl: u64,
    off_excl: u64,
    s_total: u64,
) -> impl Future<Output = Result<(Segments<T>, Segments<T>)>> + 'c {
    let me = first_proc + c.rank() as u64;
    let (mut a, mut b) = task.procs(&layout);
    debug_assert_eq!(a, first_proc);
    let cut = task.lo + s_total;
    // Tag every element with its destination position.
    let mut held = Vec::with_capacity(keys.small.len() + keys.large.len());
    for (i, &x) in keys.small.iter().enumerate() {
        held.push((x, task.lo + s_excl + i as u64));
    }
    let l_excl = off_excl - s_excl;
    for (i, &x) in keys.large.iter().enumerate() {
        held.push((x, cut + l_excl + i as u64));
    }
    drop(keys);
    async move {
        while a < b {
            let mid = a + (b - a + 1).div_ceil(2); // left half is the larger
                                                   // Ship everything whose target lives in the other half.
            let dest_rank = (partner(me, a, b, mid) - first_proc) as usize;
            let (keep, mut ship): (Vec<_>, Vec<_>) = std::mem::take(&mut held)
                .into_iter()
                .partition(|&(_, pos)| (layout.owner(pos) < mid) == (me < mid));
            held = keep;
            // Position-sort so consecutive targets collapse into few runs
            // (ship is a union of contiguous partition chunks, so the run
            // count stays O(1) per round); the final sort needed this anyway,
            // so most of the work just moves earlier.
            ship.sort_by_key(|&(_, pos)| pos);
            c.charge_compute(ship.len());
            let (runs, vals) = encode_runs(ship);
            // Always send headers (possibly empty) so receive counts are
            // deterministic; the values message is elided when there is
            // nothing to ship (the receiver sees Σlen = 0 and skips it), so
            // an empty edge costs one α, as before. A non-empty edge pays one
            // extra α for the separate header frame — the price of keeping
            // payloads untyped-serialization-free — against β savings of
            // ~8 bytes/element, so the format wins whenever the round ships
            // more than a few words; see the module docs for the byte math.
            c.send_vec(runs, dest_rank, tags::X_STAGED)?;
            if !vals.is_empty() {
                c.send_vec(vals, dest_rank, tags::X_STAGED_VALS)?;
            }
            // Who sends to me this round? Every x in the other half with
            // partner(x) == me.
            let mut senders: Vec<PendingSender> = (a..=b)
                .filter(|&x| (x < mid) != (me < mid) && partner(x, a, b, mid) == me)
                .map(|x| ((x - first_proc) as usize, None))
                .collect();
            // Narrow my interval to my half.
            if me < mid {
                b = mid - 1;
            } else {
                a = mid;
            }
            // Drain the round's senders as they arrive.
            while !take_arrived_runs(c, &mut senders, &mut held)? {
                c.state().park_until_deposit().await;
            }
        }
        // Routing finished: everything I hold targets me. Reassemble in
        // position order so the output is deterministic.
        debug_assert!(held.iter().all(|&(_, pos)| layout.owner(pos) == me));
        held.sort_by_key(|&(_, pos)| pos);
        c.charge_compute(held.len());
        let k = held.partition_point(|&(_, pos)| pos < cut);
        let elems =
            |run: &[(T, u64)]| Segments::from(run.iter().map(|&(x, _)| x).collect::<Vec<T>>());
        Ok((elems(&held[..k]), elems(&held[k..])))
    }
}

/// One sweep over a round's pending `senders`: take each one's run headers,
/// then (in the same sweep when there) its values, decoded into `held`.
/// Headers and values are separate messages, but per-sender FIFO means
/// headers — sent first — are always claimable first. `Ok(true)` once no
/// sender is pending.
fn take_arrived_runs<T: SortKey, C: Transport>(
    c: &C,
    senders: &mut Vec<PendingSender>,
    held: &mut Vec<(T, u64)>,
) -> Result<bool> {
    let mut i = 0;
    while i < senders.len() {
        let (src, runs) = &mut senders[i];
        let src = Src::Rank(*src);
        if runs.is_none() {
            let Some((r, _)) = c.try_recv::<(u64, u64)>(src, tags::X_STAGED)? else {
                i += 1;
                continue;
            };
            if r.iter().map(|&(_, len)| len).sum::<u64>() == 0 {
                // Empty ship: the sender elided the values message.
                senders.swap_remove(i);
                continue;
            }
            *runs = Some(r);
        }
        match c.try_recv::<T>(src, tags::X_STAGED_VALS)? {
            None => i += 1,
            Some((vals, _)) => {
                let runs = senders.swap_remove(i).1.expect("headers arrived");
                held.extend(decode_runs(&runs, vals));
            }
        }
    }
    Ok(senders.is_empty())
}

/// Run-length-encode position-tagged elements for a staged exchange's wire
/// format. `tagged` **must be sorted by position**; consecutive positions
/// collapse into one `(first_pos, len)` header, and the values ship
/// position-sorted in a separate plain `Vec<T>`. Compared to a
/// `Vec<(T, u64)>` pair encoding (16 bytes per `u64` element), this costs
/// `8·n + 16·runs` bytes — **half** whenever runs are long, which they are
/// by construction when each process ships a handful of contiguous
/// partition chunks per round. Headers and values travel as two messages
/// (payloads are typed, not serialized), so a non-empty edge pays one
/// extra α; empty edges elide the values frame and cost one α as before.
pub fn encode_runs<T: SortKey>(tagged: Vec<(T, u64)>) -> (Vec<(u64, u64)>, Vec<T>) {
    let mut runs: Vec<(u64, u64)> = Vec::with_capacity(4);
    let mut vals: Vec<T> = Vec::with_capacity(tagged.len());
    for &(x, pos) in &tagged {
        match runs.last_mut() {
            Some((first, len)) if *first + *len == pos => *len += 1,
            _ => runs.push((pos, 1)),
        }
        vals.push(x);
    }
    (runs, vals)
}

/// Inverse of [`encode_runs`]: expand `(first_pos, len)` headers and the
/// position-sorted values back into `(value, position)` pairs.
///
/// # Panics
/// If the header lengths do not sum to `vals.len()` (a framing bug).
pub fn decode_runs<T: SortKey>(runs: &[(u64, u64)], vals: Vec<T>) -> Vec<(T, u64)> {
    let total: u64 = runs.iter().map(|&(_, len)| len).sum();
    assert_eq!(
        total as usize,
        vals.len(),
        "staged-exchange framing mismatch"
    );
    let mut out = Vec::with_capacity(vals.len());
    let mut i = 0;
    for &(first, len) in runs {
        for k in 0..len {
            out.push((vals[i], first + k));
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partner_mirrors_and_clamps() {
        // [0..=4], mid = 3 (left {0,1,2}, right {3,4}).
        assert_eq!(partner(0, 0, 4, 3), 3);
        assert_eq!(partner(1, 0, 4, 3), 4);
        assert_eq!(partner(2, 0, 4, 3), 4); // clamped
        assert_eq!(partner(3, 0, 4, 3), 0);
        assert_eq!(partner(4, 0, 4, 3), 1);
    }

    #[test]
    fn every_proc_has_bounded_incoming_degree() {
        for q in 2u64..40 {
            let a = 0;
            let b = q - 1;
            let mid = a + (b - a + 1).div_ceil(2);
            for me in a..=b {
                let senders = (a..=b)
                    .filter(|&x| (x < mid) != (me < mid) && partner(x, a, b, mid) == me)
                    .count();
                assert!(senders <= 2, "q={q} me={me} senders={senders}");
            }
        }
    }

    #[test]
    fn round_partners_are_symmetric_for_balanced_halves() {
        let (a, b) = (0u64, 7u64);
        let mid = 4;
        for x in a..=b {
            let p = partner(x, a, b, mid);
            assert_eq!(partner(p, a, b, mid), x);
        }
    }

    #[test]
    fn runs_roundtrip_and_compress() {
        // Two contiguous chunks and one stray element.
        let tagged: Vec<(u64, u64)> = (100..180u64)
            .map(|p| (p * 3, p))
            .chain((500..520u64).map(|p| (p * 3, p)))
            .chain(std::iter::once((9u64, 900u64)))
            .collect();
        let n = tagged.len();
        let (runs, vals) = encode_runs(tagged.clone());
        assert_eq!(runs, vec![(100, 80), (500, 20), (900, 1)]);
        assert_eq!(vals.len(), n);
        assert_eq!(decode_runs(&runs, vals.clone()), tagged);
        // Wire bytes: pairs shipped 16·n; runs ship 8·n + 16·runs.
        let pair_bytes = n * std::mem::size_of::<(u64, u64)>();
        let run_bytes = vals.len() * 8 + runs.len() * 16;
        assert!(
            run_bytes * 100 <= pair_bytes * 53,
            "run encoding must roughly halve staged bytes: {run_bytes} vs {pair_bytes}"
        );
    }

    #[test]
    fn runs_empty_and_singletons() {
        let (runs, vals) = encode_runs::<u64>(Vec::new());
        assert!(runs.is_empty() && vals.is_empty());
        assert_eq!(decode_runs::<u64>(&runs, vals), Vec::new());
        // Fully scattered positions degrade to one run per element (worst
        // case: same bytes as the pair encoding, never more).
        let tagged: Vec<(u64, u64)> = (0..10u64).map(|p| (p, p * 2)).collect();
        let (runs, vals) = encode_runs(tagged.clone());
        assert_eq!(runs.len(), 10);
        assert_eq!(decode_runs(&runs, vals), tagged);
    }
}
