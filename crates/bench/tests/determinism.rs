//! The figure harness is a pure function of `(program, seed)`: kernels
//! whose receives are wildcards (JQuick's exchange, the gather and reduce
//! trees) report the same virtual times on every run and for every worker
//! count.
//!
//! One test on purpose: it sets process-wide environment variables.

use jquick::{MpiBackend, RbcBackend};
use mpisim::{Time, VendorProfile};
use rbc_bench::figs::{fig8, fig9};

type Rows = Vec<(u64, Vec<f64>)>;

fn observe() -> (Vec<Time>, Vec<Rows>) {
    let intel = VendorProfile::intel_like;
    let sorts = vec![
        fig8::sort_time(RbcBackend, 32, 8, intel()),
        fig8::sort_time(MpiBackend, 32, 8, intel()),
    ];
    let panels = [fig9::Op::Gather, fig9::Op::Reduce]
        .map(|op| fig9::panel(op, intel()).rows)
        .to_vec();
    (sorts, panels)
}

#[test]
fn wildcard_kernels_repeat_for_any_worker_count() {
    std::env::set_var("BENCH_QUICK", "1");
    let runs = ["1", "1", "4"].map(|workers| {
        std::env::set_var("MPISIM_COOP_WORKERS", workers);
        observe()
    });
    assert_eq!(runs[0], runs[1], "two runs at one worker differ");
    assert_eq!(runs[0], runs[2], "1 and 4 workers differ");
}
