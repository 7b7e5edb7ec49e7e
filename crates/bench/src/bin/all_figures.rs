//! Regenerates every table and figure of the paper's evaluation plus the
//! extension experiments: every CSV that has a golden copy under
//! `results/golden/` (`scripts/golden.sh` runs this binary in quick mode
//! and byte-diffs the result). `BENCH_QUICK=1` shrinks the sweeps.
fn main() {
    rbc_bench::figs::fig4::run();
    rbc_bench::figs::fig5::run();
    rbc_bench::figs::fig6::run();
    rbc_bench::figs::fig7::run();
    rbc_bench::figs::fig8::run();
    rbc_bench::figs::fig9::run();
    rbc_bench::figs::ablations::run();
    rbc_bench::figs::sorters::run();
    rbc_bench::figs::largep::run();
    rbc_bench::figs::faults::run();
    rbc_bench::figs::tracevol::run();
}
