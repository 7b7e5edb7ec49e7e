//! Export the traced JQuick slice on its own (without the full large-p
//! timing sweep): canonical trace text, Chrome `trace_event` JSON, and the
//! wall-clock scheduler profile.
//!
//! Run it several times, varying `MPISIM_COOP_WORKERS` and redirecting
//! the Chrome export with `MPISIM_TRACE_OUT`, and byte-diff `results/largep_trace.txt` between
//! runs: the deterministic trace must not depend on how the simulation was
//! scheduled.

fn main() {
    rbc_bench::figs::largep::traced_slice();
}
