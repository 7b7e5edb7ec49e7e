//! The calibration kernel: how fast this host runs memory-touching code
//! *right now*, so that host time can be reported in calibrated seconds.
//!
//! The container's cores are shared. For minutes at a time everything that
//! touches memory runs 15-40 % slower (the cache levels next to the core
//! are contended) while register-only loops keep their speed; see
//! `benchmark/README.md`, "Why host time is calibrated". A run that falls
//! into such a phase reads slow by that much, whatever the code under test
//! does. So the timed run times this fixed kernel beside every repetition
//! and divides the repetition's wall-clock by the kernel's slowdown.
//!
//! The kernel uses `std` only and nothing of `mpisim`, `rbc` or `jquick`:
//! a change to the code under test cannot move it, so a real regression of
//! x % still reads as x % in calibrated time. Its three loops were picked
//! from eleven candidates because together they tracked the workloads best
//! through recorded slow phases:
//!
//! - small-object churn through the global allocator (a ring of 64 live
//!   blocks of 16-72 bytes),
//! - random read-modify-write over 1 MiB (stays in the core's own caches),
//! - random read-modify-write over 64 MiB (goes to the shared cache and
//!   DRAM).

use std::hint::black_box;
use std::time::Instant;

/// Blocks allocated (and freed) per sample.
const CHURN_OPS: usize = 200_000;
/// Words of the cache-resident table (1 MiB) and updates per sample.
const SMALL_WORDS: usize = 128 << 10;
const SMALL_OPS: usize = 2_000_000;
/// Words of the DRAM-sized table (64 MiB) and updates per sample.
const BIG_WORDS: usize = 8 << 20;
const BIG_OPS: usize = 300_000;

/// Seconds each loop takes on this container when the host is quiet (the
/// fifth percentile of a 15-minute recording). They only fix the unit: a
/// calibrated second is a second of this container's quiet phases.
const NOMINAL_S: [f64; 3] = [0.00296, 0.00461, 0.00425];

/// The kernel's tables and generator state.
pub struct Calibrator {
    small: Vec<u64>,
    big: Vec<u64>,
    ring: Vec<Option<Vec<u64>>>,
    state: u64,
}

fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *s >> 33
}

fn update(table: &mut [u64], ops: usize, state: &mut u64) {
    let n = table.len();
    for _ in 0..ops {
        let r = lcg(state);
        let slot = &mut table[r as usize % n];
        *slot = slot.wrapping_add(r);
    }
}

impl Calibrator {
    /// Allocate the tables, touch every page and run the kernel once, so
    /// the first sample already finds warm page tables and allocator bins.
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            small: vec![1; SMALL_WORDS],
            big: vec![1; BIG_WORDS],
            ring: (0..64).map(|_| None).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
        };
        c.sample();
        c
    }

    fn churn(&mut self, ops: usize) {
        for i in 0..ops {
            let block = vec![i as u64; 2 + (i & 7)];
            if let Some(old) = self.ring[i & 63].replace(black_box(block)) {
                self.state ^= old[0];
            }
        }
    }

    /// Seconds each of the three loops takes at `share` of its full
    /// length.
    fn timed_loops(&mut self, share: f64) -> [f64; 3] {
        let n = |ops: usize| black_box((ops as f64 * share) as usize);
        let mut out = [0.0; 3];
        let t0 = Instant::now();
        self.churn(n(CHURN_OPS));
        out[0] = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        update(&mut self.small, n(SMALL_OPS), &mut self.state);
        out[1] = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        update(&mut self.big, n(BIG_OPS), &mut self.state);
        out[2] = t0.elapsed().as_secs_f64();
        black_box((&self.small, &self.big, &self.ring));
        out
    }

    /// The host's slowdown right now: each loop's time over its nominal
    /// time, averaged with equal weights. About 1 on a quiet host; about
    /// 12 ms.
    pub fn sample(&mut self) -> f64 {
        let t = self.timed_loops(1.0);
        (0..3).map(|k| t[k] / NOMINAL_S[k]).sum::<f64>() / 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_is_positive_and_finite() {
        let mut c = Calibrator::new();
        let s = c.sample();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }

    /// The compiler has not removed the loops: every one of them takes
    /// longer at full length than at a quarter of it.
    #[test]
    fn every_loop_grows_with_its_length() {
        let mut c = Calibrator::new();
        let grows = (0..5).any(|_| {
            let (quarter, full) = (c.timed_loops(0.25), c.timed_loops(1.0));
            (0..3).all(|k| full[k] > quarter[k])
        });
        assert!(grows);
    }

    #[test]
    fn the_generator_reaches_the_whole_table() {
        let mut s = 1;
        let mut hit = [false; 64];
        for _ in 0..10_000 {
            hit[lcg(&mut s) as usize % 64] = true;
        }
        assert!(hit.iter().all(|h| *h));
    }
}
