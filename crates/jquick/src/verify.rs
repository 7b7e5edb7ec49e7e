//! Output checkers for distributed sorts.
//!
//! Used by tests and benchmarks to validate the §II output contract:
//! globally sorted (each process holds elements with consecutive global
//! ranks), balanced, and a permutation of the input.

use mpisim::{coll, Datum, Result, SortKey, Src, Transport};

const TAG_BOUNDARY: u64 = 80;
const TAG_CHECK: u64 = 82;

/// Report of a distributed verification, identical on every process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Every process's output is sorted.
    pub locally_sorted: bool,
    /// Each process's maximum is ≤ the next process's minimum.
    pub globally_ordered: bool,
    /// Every process holds exactly its expected element count.
    pub balanced: bool,
    /// The global output multiset equals the input (by fingerprint).
    pub permutation_preserved: bool,
}

impl VerifyReport {
    /// Whether all four properties hold.
    pub fn all_ok(&self) -> bool {
        self.locally_sorted && self.globally_ordered && self.balanced && self.permutation_preserved
    }
}

/// Elements whose value can be captured in 64 bits for fingerprinting.
pub trait KeyBits {
    /// A 64-bit image of the value (injective for the key types used here).
    fn key_bits(&self) -> u64;
}

impl KeyBits for u64 {
    fn key_bits(&self) -> u64 {
        *self
    }
}

impl KeyBits for i64 {
    fn key_bits(&self) -> u64 {
        *self as u64
    }
}

impl KeyBits for u32 {
    fn key_bits(&self) -> u64 {
        *self as u64
    }
}

impl KeyBits for f64 {
    fn key_bits(&self) -> u64 {
        self.to_bits()
    }
}

impl KeyBits for f32 {
    fn key_bits(&self) -> u64 {
        self.to_bits() as u64
    }
}

/// Order-independent fingerprint of a multiset of elements (commutative
/// wrapping sum of mixed element bits) — detects lost/duplicated elements
/// with high probability.
pub fn fingerprint<T: KeyBits>(data: &[T]) -> u64 {
    data.iter()
        .map(|x| {
            let mut h = x.key_bits() ^ 0xcbf29ce484222325;
            // splitmix64 finalizer.
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
            h ^ (h >> 31)
        })
        .fold(0u64, u64::wrapping_add)
}

/// Distributed verification over `world` (rank space = global indices).
/// `input_fp` is the pre-sort [`fingerprint`] of this process's input;
/// `expected_len` its required output length (⌊n/p⌋ or ⌈n/p⌉).
pub fn verify_sorted<T: SortKey + Datum + KeyBits>(
    world: &impl Transport,
    output: &[T],
    input_fp: u64,
    expected_len: usize,
) -> Result<VerifyReport> {
    let p = world.size();
    let r = world.rank();

    let locally_sorted = output.windows(2).all(|w| w[0].cmp_key(&w[1]).is_le());
    let balanced = output.len() == expected_len;

    // Boundary check: my max <= successor's min. Empty outputs only occur
    // when unbalanced; treat them as ordered to let `balanced` flag it.
    let globally_ordered = if p == 1 {
        true
    } else {
        if r + 1 < p {
            let my_max = output.last().copied();
            world.send_vec(my_max.into_iter().collect::<Vec<T>>(), r + 1, TAG_BOUNDARY)?;
        }
        let mut ok = true;
        if r > 0 {
            let (prev_max, _) = world.recv::<T>(Src::Rank(r - 1), TAG_BOUNDARY)?;
            if let (Some(pm), Some(my_min)) = (prev_max.first(), output.first()) {
                ok = pm.cmp_key(my_min).is_le();
            }
        }
        ok
    };

    // Permutation: global fingerprint of outputs must equal inputs'.
    let out_fp = fingerprint(output);
    let sums = coll::allreduce(
        world,
        &[
            input_fp,
            out_fp,
            u64::from(locally_sorted),
            u64::from(globally_ordered),
            u64::from(balanced),
        ],
        TAG_CHECK,
        |a: &u64, b: &u64| a.wrapping_add(*b),
    )?;
    Ok(VerifyReport {
        locally_sorted: sums[2] == p as u64,
        globally_ordered: sums[3] == p as u64,
        balanced: sums[4] == p as u64,
        permutation_preserved: sums[0] == sums[1],
    })
}

/// Max/avg imbalance of output sizes relative to n/p (hypercube quicksort
/// produces imbalance; JQuick must not).
pub fn imbalance_factor(world: &impl Transport, local_len: usize) -> Result<f64> {
    mpisim::block_inline(imbalance_factor_async(world, local_len))
}

/// [`imbalance_factor`] as a maybe-async core (see [`mpisim::coll`]'s
/// module docs).
pub async fn imbalance_factor_async(world: &impl Transport, local_len: usize) -> Result<f64> {
    let p = world.size() as u64;
    let totals = coll::allreduce_async(
        world,
        &[local_len as u64, local_len as u64],
        TAG_CHECK + 2,
        |a: &u64, b: &u64| a + b, // first slot: sum
    )
    .await?;
    let max = coll::allreduce_async(
        world,
        &[local_len as u64],
        TAG_CHECK + 4,
        |a: &u64, b: &u64| (*a).max(*b),
    )
    .await?[0];
    let avg = totals[0] as f64 / p as f64;
    Ok(max as f64 / avg.max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::Universe;

    #[test]
    fn fingerprint_is_order_independent() {
        let a = vec![3.5f64, 1.25, -7.0];
        let b = vec![-7.0f64, 3.5, 1.25];
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = vec![3.5f64, 1.25, -7.0, 0.0];
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn verify_accepts_sorted_output() {
        let res = Universe::run_default(4, |env| {
            let w = &env.world;
            let r = w.rank() as u64;
            let input: Vec<u64> = vec![r * 3, r * 3 + 2, r * 3 + 1];
            let fp = fingerprint(&input);
            let mut sorted = input;
            sorted.sort_unstable();
            verify_sorted(w, &sorted, fp, 3).unwrap()
        });
        for rep in res.per_rank {
            assert!(rep.all_ok(), "{rep:?}");
        }
    }

    #[test]
    fn verify_catches_global_disorder() {
        let res = Universe::run_default(2, |env| {
            let w = &env.world;
            // Locally sorted but globally inverted.
            let data: Vec<u64> = if w.rank() == 0 {
                vec![10, 11]
            } else {
                vec![0, 1]
            };
            let fp = fingerprint(&data);
            verify_sorted(w, &data, fp, 2).unwrap()
        });
        for rep in res.per_rank {
            assert!(rep.locally_sorted);
            assert!(!rep.globally_ordered);
        }
    }

    #[test]
    fn verify_catches_lost_elements() {
        let res = Universe::run_default(2, |env| {
            let w = &env.world;
            let input = vec![5u64, 6];
            let fp = fingerprint(&input);
            // An element was replaced (6 lost, 9 fabricated).
            let output = if w.rank() == 0 {
                vec![5u64, 5]
            } else {
                vec![6, 9]
            };
            verify_sorted(w, &output, fp, 2).unwrap()
        });
        for rep in res.per_rank {
            assert!(!rep.permutation_preserved);
        }
    }

    #[test]
    fn verify_catches_imbalance() {
        let res = Universe::run_default(2, |env| {
            let w = &env.world;
            let output: Vec<u64> = if w.rank() == 0 {
                vec![1, 2, 3]
            } else {
                vec![4]
            };
            verify_sorted(w, &output, fingerprint(&output), 2).unwrap()
        });
        for rep in res.per_rank {
            assert!(!rep.balanced);
        }
    }

    #[test]
    fn imbalance_factor_math() {
        let res = Universe::run_default(4, |env| {
            let w = &env.world;
            let len = if w.rank() == 0 { 8 } else { 0 };
            imbalance_factor(w, len).unwrap()
        });
        for f in res.per_rank {
            assert!((f - 4.0).abs() < 1e-9, "factor {f}");
        }
    }
}
