//! Process groups.
//!
//! A group maps communicator ranks `0..len` to *global* ranks. Two storage
//! formats are provided, mirroring the sparse-representation discussion in
//! §III of the paper (Chaarawi & Gabriel's Range Format):
//!
//! * `Repr::Range` — an arithmetic progression `first, first+stride, ...`
//!   stored in O(1) space with O(1) translation both ways;
//! * `Repr::Dense` — an explicit rank array (what MPICH builds for every
//!   communicator, and what makes native construction Ω(p)).
//!
//! `Group::from_ranks` auto-detects progressions; sub-ranging a `Range`
//! group is O(1), which is the property RBC exploits.

use std::sync::Arc;

#[derive(Clone, Debug)]
enum Repr {
    Range {
        first: usize,
        stride: usize,
        len: usize,
    },
    Dense(Arc<Vec<usize>>),
}

/// An ordered set of global ranks (`MPI_Group` analogue), stored either as
/// a strided range (O(1) operations — the representation RBC exploits) or
/// as an explicit dense rank array.
#[derive(Clone, Debug)]
pub struct Group {
    repr: Repr,
}

impl Group {
    /// The world group over `p` processes: ranks are global ranks.
    pub fn world(p: usize) -> Group {
        Group {
            repr: Repr::Range {
                first: 0,
                stride: 1,
                len: p,
            },
        }
    }

    /// A strided range of global ranks (`MPI_Group_range_incl` analogue).
    pub fn range(first: usize, stride: usize, len: usize) -> Group {
        assert!(stride >= 1, "stride must be >= 1");
        assert!(len >= 1, "empty groups are not representable");
        Group {
            repr: Repr::Range { first, stride, len },
        }
    }

    /// Build a group from an explicit list of global ranks
    /// (`MPI_Group_incl` analogue). Detects arithmetic progressions and
    /// stores them in Range format.
    pub fn from_ranks(ranks: Vec<usize>) -> Group {
        assert!(!ranks.is_empty(), "empty groups are not representable");
        if ranks.len() == 1 {
            return Group::range(ranks[0], 1, 1);
        }
        if ranks[1] > ranks[0] {
            let stride = ranks[1] - ranks[0];
            let is_prog = ranks
                .windows(2)
                .all(|w| w[1] > w[0] && w[1] - w[0] == stride);
            if is_prog {
                return Group::range(ranks[0], stride, ranks.len());
            }
        }
        Group {
            repr: Repr::Dense(Arc::new(ranks)),
        }
    }

    /// Number of member processes.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Range { len, .. } => *len,
            Repr::Dense(v) => v.len(),
        }
    }

    /// Always false: empty groups are unrepresentable by construction.
    pub fn is_empty(&self) -> bool {
        false // empty groups are unrepresentable by construction
    }

    /// True if stored in the O(1) Range format.
    pub fn is_range(&self) -> bool {
        matches!(self.repr, Repr::Range { .. })
    }

    /// `(first, stride, len)` of the members' global ranks when stored in
    /// the O(1) Range format.
    pub fn as_range(&self) -> Option<(usize, usize, usize)> {
        match self.repr {
            Repr::Range { first, stride, len } => Some((first, stride, len)),
            Repr::Dense(_) => None,
        }
    }

    /// Group rank -> global rank.
    pub fn translate(&self, rank: usize) -> usize {
        match &self.repr {
            Repr::Range { first, stride, len } => {
                assert!(rank < *len, "rank {rank} out of range (len {len})");
                first + stride * rank
            }
            Repr::Dense(v) => v[rank],
        }
    }

    /// Global rank -> group rank, if a member.
    pub fn inverse(&self, global: usize) -> Option<usize> {
        match &self.repr {
            Repr::Range { first, stride, len } => {
                if global < *first {
                    return None;
                }
                let off = global - first;
                if !off.is_multiple_of(*stride) {
                    return None;
                }
                let r = off / stride;
                (r < *len).then_some(r)
            }
            Repr::Dense(v) => v.iter().position(|&g| g == global),
        }
    }

    /// A member whose global rank is `p` or above, i.e. not a process of
    /// a universe of `p`: the last member of a Range group (O(1)), the
    /// first such member of a Dense one (one walk, no allocation).
    pub(crate) fn member_outside(&self, p: usize) -> Option<usize> {
        match &self.repr {
            Repr::Range { first, stride, len } => {
                let last = first + stride * (len - 1);
                (last >= p).then_some(last)
            }
            Repr::Dense(v) => v.iter().copied().find(|&g| g >= p),
        }
    }

    /// Whether the global rank is a member.
    pub fn contains_global(&self, global: usize) -> bool {
        self.inverse(global).is_some()
    }

    /// Sub-range `first_rank..=last_rank` (in *this group's* rank space)
    /// with the given stride. O(1) when this group is in Range format —
    /// the operation underlying `rbc::Split_RBC_Comm`.
    pub fn subrange(&self, first_rank: usize, last_rank: usize, stride: usize) -> Group {
        assert!(first_rank <= last_rank && last_rank < self.len());
        assert!(stride >= 1);
        let len = (last_rank - first_rank) / stride + 1;
        match &self.repr {
            Repr::Range {
                first, stride: s0, ..
            } => Group::range(first + s0 * first_rank, s0 * stride, len),
            Repr::Dense(v) => Group::from_ranks(
                (0..len)
                    .map(|k| v[first_rank + k * stride])
                    .collect::<Vec<_>>(),
            ),
        }
    }

    /// Iterate over the global ranks of all members in rank order.
    pub fn iter_globals(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(move |r| self.translate(r))
    }

    /// True if the two groups describe the same member list.
    pub fn same_members(&self, other: &Group) -> bool {
        self.len() == other.len() && self.iter_globals().eq(other.iter_globals())
    }

    /// Number of processes present in both groups.
    pub fn overlap_count(&self, other: &Group) -> usize {
        self.iter_globals()
            .filter(|&g| other.contains_global(g))
            .count()
    }

    /// `MPI_Group_union` analogue: members of `self` in rank order, then
    /// members of `other` not already present.
    pub fn union(&self, other: &Group) -> Group {
        let mut ranks: Vec<usize> = self.iter_globals().collect();
        for g in other.iter_globals() {
            if !self.contains_global(g) {
                ranks.push(g);
            }
        }
        Group::from_ranks(ranks)
    }

    /// `MPI_Group_intersection` analogue (order of `self`). Returns `None`
    /// when the intersection is empty (empty groups are unrepresentable).
    pub fn intersection(&self, other: &Group) -> Option<Group> {
        let ranks: Vec<usize> = self
            .iter_globals()
            .filter(|&g| other.contains_global(g))
            .collect();
        (!ranks.is_empty()).then(|| Group::from_ranks(ranks))
    }

    /// `MPI_Group_difference` analogue (members of `self` not in `other`).
    pub fn difference(&self, other: &Group) -> Option<Group> {
        let ranks: Vec<usize> = self
            .iter_globals()
            .filter(|&g| !other.contains_global(g))
            .collect();
        (!ranks.is_empty()).then(|| Group::from_ranks(ranks))
    }

    /// If the members form a contiguous stride-preserving range of `parent`,
    /// return `(first_rank_in_parent, last_rank_in_parent)`. This is the
    /// test §VI's `MPI_Icomm_create_group` uses to decide whether the new
    /// context ID can be computed locally in constant time.
    pub fn as_range_of(&self, parent: &Group) -> Option<(usize, usize)> {
        let first = parent.inverse(self.translate(0))?;
        let mut prev = first;
        for r in 1..self.len() {
            let pr = parent.inverse(self.translate(r))?;
            if pr != prev + 1 {
                return None;
            }
            prev = pr;
        }
        Some((first, prev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_translation() {
        let g = Group::world(8);
        assert_eq!(g.len(), 8);
        assert!(g.is_range());
        assert_eq!(g.translate(3), 3);
        assert_eq!(g.inverse(5), Some(5));
        assert_eq!(g.inverse(8), None);
    }

    #[test]
    fn strided_range() {
        // MPI ranks f, f+s, ..., per the paper's footnote 2.
        let g = Group::range(4, 3, 4); // 4, 7, 10, 13
        assert_eq!(g.translate(0), 4);
        assert_eq!(g.translate(3), 13);
        assert_eq!(g.inverse(10), Some(2));
        assert_eq!(g.inverse(11), None);
        assert_eq!(g.inverse(3), None);
        assert_eq!(g.inverse(16), None);
    }

    #[test]
    fn from_ranks_detects_progressions() {
        assert!(Group::from_ranks(vec![2, 4, 6, 8]).is_range());
        assert!(Group::from_ranks(vec![5]).is_range());
        assert!(!Group::from_ranks(vec![1, 2, 4]).is_range());
        let g = Group::from_ranks(vec![3, 1, 2]); // unordered => dense
        assert!(!g.is_range());
        assert_eq!(g.translate(0), 3);
        assert_eq!(g.inverse(1), Some(1));
    }

    #[test]
    fn subrange_of_range_is_o1_and_correct() {
        let g = Group::range(10, 2, 8); // 10,12,...,24
        let s = g.subrange(2, 6, 2); // ranks 2,4,6 => globals 14,18,22
        assert!(s.is_range());
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter_globals().collect::<Vec<_>>(), vec![14, 18, 22]);
    }

    #[test]
    fn subrange_of_dense() {
        let g = Group::from_ranks(vec![9, 1, 5, 3, 7]);
        let s = g.subrange(1, 3, 1);
        assert_eq!(s.iter_globals().collect::<Vec<_>>(), vec![1, 5, 3]);
    }

    #[test]
    fn overlap_and_same_members() {
        let a = Group::range(0, 1, 4); // 0..=3
        let b = Group::range(3, 1, 4); // 3..=6
        assert_eq!(a.overlap_count(&b), 1);
        assert!(a.same_members(&Group::from_ranks(vec![0, 1, 2, 3])));
        assert!(!a.same_members(&b));
    }

    #[test]
    fn as_range_of_detection() {
        let parent = Group::range(0, 2, 10); // 0,2,...,18
        let sub = Group::range(4, 2, 3); // 4,6,8 => parent ranks 2,3,4
        assert_eq!(sub.as_range_of(&parent), Some((2, 4)));
        let non_contig = Group::from_ranks(vec![0, 4]);
        assert_eq!(non_contig.as_range_of(&parent), None);
        let foreign = Group::from_ranks(vec![1]);
        assert_eq!(foreign.as_range_of(&parent), None);
    }

    #[test]
    #[should_panic]
    fn translate_out_of_range_panics() {
        Group::range(0, 1, 2).translate(2);
    }

    #[test]
    fn set_operations() {
        let a = Group::range(0, 1, 4); // {0,1,2,3}
        let b = Group::range(2, 2, 3); // {2,4,6}
        let u = a.union(&b);
        assert_eq!(u.iter_globals().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 6]);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.iter_globals().collect::<Vec<_>>(), vec![2]);
        let d = a.difference(&b).unwrap();
        assert_eq!(d.iter_globals().collect::<Vec<_>>(), vec![0, 1, 3]);
        // Empty results are None.
        assert!(a.intersection(&Group::range(10, 1, 2)).is_none());
        assert!(a.difference(&Group::range(0, 1, 8)).is_none());
        // Union preserving range format when possible.
        let u2 = Group::range(0, 1, 2).union(&Group::range(2, 1, 2));
        assert!(u2.is_range());
        assert_eq!(u2.len(), 4);
    }
}
