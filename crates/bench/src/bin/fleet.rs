//! Fleet-mode throughput (`results/host/fleet_throughput.csv`) + the
//! fleet-vs-solo oracle artefacts.

fn main() {
    #[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
    rbc_bench::figs::fleet::run();
    #[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
    eprintln!("fleet bench needs the fiber scheduler (unix x86_64/aarch64); skipping");
}
