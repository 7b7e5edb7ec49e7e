//! Pivot selection (paper §VIII-A).
//!
//! "As a pivot we select the median of max(k₁ log p, k₂ n/p, k₃) samples
//! determined by random sampling." We use `k_total = max(k₁·⌈log₂ q⌉, k₃)`
//! samples per task (the `k₂ n/p` term is a robustness knob for enormous
//! local inputs; our default keeps sample volume O(log q), matching the
//! O(α log p) budget of the pivot step in the analysis §VII-A). Each task
//! process contributes ⌈k/q⌉ random local elements (with replacement) via a
//! nonblocking gather to the task's first process, which broadcasts the
//! median back.

use mpisim::proc::ProcState;
use mpisim::SortKey;

use crate::partition::Segments;

/// Sampling parameters.
#[derive(Clone, Copy, Debug)]
pub struct PivotCfg {
    /// Multiplier on ⌈log₂ q⌉.
    pub k1: u64,
    /// Minimum total sample count.
    pub k3: u64,
}

impl Default for PivotCfg {
    fn default() -> Self {
        PivotCfg { k1: 16, k3: 64 }
    }
}

impl PivotCfg {
    /// Total sample size for a task over `q` processes.
    pub fn total_samples(&self, q: u64) -> u64 {
        let log_q = 64 - (q.max(2) - 1).leading_zeros() as u64;
        (self.k1 * log_q).max(self.k3)
    }

    /// Samples contributed per process.
    pub fn per_proc(&self, q: u64) -> u64 {
        self.total_samples(q).div_ceil(q)
    }
}

/// Draw `m` random elements from `data` with replacement, using the rank's
/// deterministic RNG stream.
pub fn draw_samples<T: SortKey>(data: &[T], m: u64, state: &ProcState) -> Vec<T> {
    draw(data.len(), |i| data[i], m, state)
}

/// [`draw_samples`] from the concatenation of `keys`, indexed through its
/// views: the same draws, the same samples.
pub fn draw_segment_samples<T: SortKey>(keys: &Segments<T>, m: u64, state: &ProcState) -> Vec<T> {
    draw(keys.len(), |i| keys.get(i), m, state)
}

fn draw<T>(len: usize, at: impl Fn(usize) -> T, m: u64, state: &ProcState) -> Vec<T> {
    if len == 0 {
        return Vec::new();
    }
    (0..m).map(|_| at(state.rand_index(len))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn mk_state() -> Arc<ProcState> {
        let router = Arc::new(mpisim::proc::Router::new(
            1,
            mpisim::CostModel::default(),
            mpisim::VendorProfile::neutral(),
            mpisim::faults::FaultState::default(),
        ));
        ProcState::new(0, router, 7)
    }

    #[test]
    fn sample_count_grows_with_log_q() {
        let cfg = PivotCfg::default();
        assert_eq!(cfg.total_samples(2), 64); // k3 floor
        assert_eq!(cfg.total_samples(1024), 160); // 16 * 10
        assert!(cfg.total_samples(1 << 20) > cfg.total_samples(1 << 10));
    }

    #[test]
    fn per_proc_ceil_division() {
        let cfg = PivotCfg { k1: 16, k3: 64 };
        // q=3: total 64, per proc ceil(64/3)=22.
        assert_eq!(cfg.per_proc(3), 22);
        // Large q: at least 1 per process.
        assert!(cfg.per_proc(1 << 20) >= 1);
    }

    #[test]
    fn draw_samples_from_data() {
        let state = mk_state();
        let data: Vec<u64> = (100..200).collect();
        let s = draw_samples(&data, 32, &state);
        assert_eq!(s.len(), 32);
        assert!(s.iter().all(|x| data.contains(x)));
    }

    #[test]
    fn segment_samples_are_the_samples_of_the_concatenation() {
        let data: Vec<u64> = (100..200).collect();
        let buf = Arc::new(data.clone());
        let mut keys = Segments::new();
        for r in [0..7, 7..8, 8..60, 60..100] {
            keys.push(mpisim::SharedSlice::new(Arc::clone(&buf), r));
        }
        let (a, b) = (mk_state(), mk_state());
        assert_eq!(
            draw_segment_samples(&keys, 32, &a),
            draw_samples(&data, 32, &b)
        );
        assert!(draw_segment_samples(&Segments::<u64>::new(), 4, &a).is_empty());
    }

    #[test]
    fn draw_from_empty_is_empty() {
        let state = mk_state();
        let s = draw_samples::<u64>(&[], 10, &state);
        assert!(s.is_empty());
    }
}
