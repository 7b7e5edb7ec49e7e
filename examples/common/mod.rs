//! Command-line parsing shared by the examples: a missing positional
//! argument takes its default, a malformed one prints the usage line and
//! exits with status 2.

use std::str::FromStr;

/// Print `usage` to stderr and exit with status 2.
pub fn usage_exit(usage: &str) -> ! {
    eprintln!("{usage}");
    std::process::exit(2)
}

/// Positional argument `i` (1-based) parsed as `T`, or `default` when it
/// is absent.
pub fn arg<T: FromStr>(i: usize, default: T, usage: &str) -> T {
    match std::env::args().nth(i) {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| usage_exit(usage)),
    }
}
