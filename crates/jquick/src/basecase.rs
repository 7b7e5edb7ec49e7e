//! Base cases (paper §VII, phase 2).
//!
//! "Base cases are subtasks covering only one or two processes." They are
//! queued during the distributed phase and only executed after it, "so that
//! a janus process does not delay the execution of a larger subtask while
//! sorting a base case." All base cases run concurrently, each an async
//! core on [`mpisim::nbcoll`]'s driver, again so that a process holding
//! several of them cannot deadlock its partners.
//!
//! Two-process case: each side sorts *its own run once* and ships it
//! shared (one `Arc` read by both partners, no copy into the message); on
//! receipt it merges the two sorted runs only as far as the share it keeps
//! (the left process the first `cap_left` elements of the merge, the right
//! the rest). The merge takes the left process's run first on ties, so the
//! two shares are exactly the two slices of the stable sort of
//! `left ++ right`: complementary on duplicates, and identical to what both
//! sides sorting the whole union would give, at a fraction of the host
//! work. The *charge* is still that union sort's `m log m`, at the point the
//! partner's run arrives: the model prices the paper's receive + select +
//! local sort, not this host shortcut (DESIGN.md, "Local kernels").

use std::future::Future;
use std::sync::Arc;

use mpisim::nbcoll::Nbc;
use mpisim::{recv_shared_async, Result, SortKey, Src, Tag, Transport};

use crate::layout::{Layout, TaskRange};
use crate::partition::{charge_sort, local_sort_charged};

/// Base-case data exchange tag. A single constant suffices: two distinct
/// 2-process base tasks can never involve the same process pair (tasks are
/// disjoint position ranges, and a pair shares exactly one window
/// boundary).
const BASE_TAG: Tag = 50;

/// A queued base-case task: my part of a task covering ≤ 2 processes.
pub struct BaseTask<T> {
    /// The global position range the task settles.
    pub task: TaskRange,
    /// My local elements belonging to the task.
    pub data: Vec<T>,
}

/// A settled piece of output: globally sorted at positions
/// `[lo, lo + data.len())`.
pub struct Settled<T> {
    /// First global position of this piece.
    pub lo: u64,
    /// The sorted elements at `[lo, lo + data.len())`.
    pub data: Vec<T>,
}

/// Start settling a base-case task covering one or two processes and run
/// it to its first receive that misses. `world` must be a communicator
/// whose rank space equals global process indices. `me` is my global
/// index.
pub fn start<T: SortKey, C: Transport>(
    world: &C,
    layout: Layout,
    me: u64,
    bt: BaseTask<T>,
) -> Result<Nbc<Settled<T>>> {
    Nbc::start(
        Arc::clone(world.state()),
        settle(world.clone(), layout, me, bt),
    )
}

/// The base case's core: solo tasks sort locally; pair tasks swap sorted
/// runs with the partner and merge out their own window's share.
pub(crate) fn settle<T: SortKey, C: Transport>(
    c: C,
    layout: Layout,
    me: u64,
    bt: BaseTask<T>,
) -> impl Future<Output = Result<Settled<T>>> {
    let BaseTask {
        task,
        data: mut mine,
    } = bt;
    let (f, l) = task.procs(&layout);
    debug_assert!(l - f <= 1, "base case covers at most two processes");
    let partner = if me == f { l } else { f };
    async move {
        if f == l {
            local_sort_charged(&c, &mut mine);
            return Ok(Settled {
                lo: task.lo,
                data: mine,
            });
        }
        // Uncharged here: the union's sort is charged when it is complete.
        mine.sort_unstable_by(T::cmp_key);
        let mine = Arc::new(mine);
        c.send_shared(&mine, partner as usize, BASE_TAG)?;
        let src = Src::Rank(partner as usize);
        let (theirs, _) = recv_shared_async::<T, _>(&c, src, BASE_TAG).await?;
        charge_sort(&c, mine.len() + theirs.len());
        let cap_left = task.load_of(&layout, f) as usize;
        Ok(if me < partner {
            Settled {
                lo: task.lo,
                data: merge_kept_half(&mine, &theirs, cap_left, true),
            }
        } else {
            Settled {
                lo: task.lo + cap_left as u64,
                data: merge_kept_half(&theirs, &mine, cap_left, false),
            }
        })
    }
}

/// One partner's share of a pair base case: of the stable merge of the
/// sorted runs `left` and `right` (`left` first on ties, i.e. the stable
/// sort of `left ++ right`), the first `cap_left` elements if `keep_left`,
/// the remaining ones otherwise. Merges only the kept share.
pub fn merge_kept_half<T: SortKey>(
    left: &[T],
    right: &[T],
    cap_left: usize,
    keep_left: bool,
) -> Vec<T> {
    let (i, j) = co_rank(left, right, cap_left);
    if keep_left {
        merge(&left[..i], &right[..j])
    } else {
        merge(&left[i..], &right[j..])
    }
}

/// How many elements of `left` and of `right` the first `k` elements of
/// their stable merge hold.
fn co_rank<T: SortKey>(left: &[T], right: &[T], k: usize) -> (usize, usize) {
    debug_assert!(k <= left.len() + right.len());
    let (mut lo, mut hi) = (k.saturating_sub(right.len()), k.min(left.len()));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        // With `mid` taken from `left`, `right[k - mid - 1]` is the last one
        // taken from `right`; `left[mid]` goes before it unless greater.
        if left[mid].cmp_key(&right[k - mid - 1]).is_le() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo, k - lo)
}

/// Stable merge of two sorted runs, `left` first on ties. The source is
/// selected, not branched on: on random keys either run is as likely.
fn merge<T: SortKey>(left: &[T], right: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        let take_right = right[j].cmp_key(&left[i]).is_lt();
        out.push(if take_right { right[j] } else { left[i] });
        i += usize::from(!take_right);
        j += usize::from(take_right);
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{Comm, Universe};

    /// Settle `bt` on rank `w.rank()`, waiting for the partner.
    fn settled(w: &Comm, layout: Layout, bt: BaseTask<u64>) -> Settled<u64> {
        let mut base = start(w, layout, w.rank() as u64, bt).unwrap();
        mpisim::nbcoll::wait(&mut base).unwrap();
        base.into_out().unwrap()
    }

    #[test]
    fn solo_base_sorts_locally() {
        let res = Universe::run_default(1, |env| {
            let layout = Layout::new(5, 1);
            let bt = BaseTask {
                task: TaskRange { lo: 0, hi: 5 },
                data: vec![4u64, 1, 3, 0, 2],
            };
            let base = start(&env.world, layout, 0, bt).unwrap();
            let s = base.into_out().expect("a solo base needs no receive");
            (s.lo, s.data)
        });
        assert_eq!(res.per_rank[0], (0, vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn pair_base_splits_complementarily() {
        let res = Universe::run_default(2, |env| {
            let w = &env.world;
            let layout = Layout::new(8, 2);
            let task = TaskRange { lo: 0, hi: 8 };
            let data = if w.rank() == 0 {
                vec![7u64, 0, 5, 2]
            } else {
                vec![6, 1, 4, 3]
            };
            let bt = BaseTask { task, data };
            let s = settled(w, layout, bt);
            (s.lo, s.data)
        });
        assert_eq!(res.per_rank[0], (0, vec![0, 1, 2, 3]));
        assert_eq!(res.per_rank[1], (4, vec![4, 5, 6, 7]));
    }

    #[test]
    fn pair_base_with_duplicates_is_complementary() {
        let res = Universe::run_default(2, |env| {
            let w = &env.world;
            let layout = Layout::new(6, 2);
            let task = TaskRange { lo: 0, hi: 6 };
            // Many duplicates straddling the cut.
            let data = if w.rank() == 0 {
                vec![5u64, 5, 5]
            } else {
                vec![5, 1, 5]
            };
            let bt = BaseTask { task, data };
            settled(w, layout, bt).data
        });
        let mut all = res.per_rank[0].clone();
        all.extend(&res.per_rank[1]);
        assert_eq!(all, vec![1, 5, 5, 5, 5, 5]);
        assert_eq!(res.per_rank[0].len(), 3);
        assert_eq!(res.per_rank[1].len(), 3);
    }

    #[test]
    fn pair_base_partial_windows() {
        // Task [3, 7) over windows [0,4) and [4,8): left holds 1, right 3.
        let res = Universe::run_default(2, |env| {
            let w = &env.world;
            let layout = Layout::new(8, 2);
            let task = TaskRange { lo: 3, hi: 7 };
            let data = if w.rank() == 0 {
                vec![9u64]
            } else {
                vec![2, 11, 7]
            };
            let bt = BaseTask { task, data };
            let s = settled(w, layout, bt);
            (s.lo, s.data)
        });
        assert_eq!(res.per_rank[0], (3, vec![2]));
        assert_eq!(res.per_rank[1], (4, vec![7, 9, 11]));
    }
}
