//! Regenerates the large-p sweep: communicator creation at scale and
//! JQuick end to end, p = 2^10..2^15, every rank a future body on the
//! epoch scheduler. `BENCH_QUICK=1` caps the range at 2^12;
//! `LARGEP_MAX_EXP=<e>` caps the sweep at 2^e and opts in as much of the
//! sparse tail {2^16, 2^18, 2^20} as fits under it.
fn main() {
    rbc_bench::figs::largep::run();
}
