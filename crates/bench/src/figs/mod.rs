//! One module per table/figure of the paper's evaluation (§VIII).
//!
//! Each module exposes `run() -> Vec<Table>`, prints the result tables, and
//! writes CSVs under `results/`. The per-experiment index lives in
//! DESIGN.md; expected-vs-measured shapes are recorded in EXPERIMENTS.md.

pub mod ablations;
pub mod faults;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod largep;
pub mod sorters;
pub mod tracevol;

/// Scaled-down stand-ins for the paper's 2^15 cores (see DESIGN.md §1).
pub mod scale {
    /// Process count for per-element sweeps (paper: 2^15).
    pub fn p_elems() -> usize {
        if crate::quick_mode() {
            32
        } else {
            128
        }
    }

    /// Largest exponent of the n/p sweeps (paper: 2^18 / 2^20).
    pub fn max_elem_exp() -> u32 {
        if crate::quick_mode() {
            8
        } else {
            16
        }
    }

    /// Largest exponent of process-count sweeps (paper: 2^15).
    pub fn max_proc_exp() -> u32 {
        if crate::quick_mode() {
            7
        } else {
            10
        }
    }
}
