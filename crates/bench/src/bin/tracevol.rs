//! Standalone runner for the per-collective communication-volume figure.
//!
//! Usage: `cargo run --release --bin tracevol` (set `BENCH_QUICK=1` for the
//! CI-sized sweep). Writes `results/tracevol_*.csv` and panics if any
//! collective's measured message count deviates from the model or breaks
//! its O(log p) per-rank bound.

fn main() {
    rbc_bench::figs::tracevol::run();
}
