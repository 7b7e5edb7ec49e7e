//! The shared environment-knob layer: every `MPISIM_*` variable is parsed
//! here, by a **pure function** over `Option<&str>` so each parser is
//! unit-testable without `set_var` (which is process-global and racy under
//! the parallel test harness).
//!
//! Contract (shared by every strict knob): unset or blank means the
//! default, a well-formed value configures, and anything else **panics**
//! with a message naming the variable and the expected shape. A mistyped
//! sweep knob silently falling back to the default would make the
//! experiment vacuous: a mistyped `MPISIM_FAULT_CRASH` injecting nothing
//! would measure a fault sweep without faults. The only deliberately
//! lenient knobs are `MPISIM_COOP_WORKERS` (a machine-shape hint, not an
//! experiment axis) and `MPISIM_TRACE_OUT` (a path, any string is
//! plausible).
//!
//! The event trace and the scheduler profile have no knob: a program
//! that wants them asks with `SimConfig::with_trace` /
//! `SimConfig::with_sched_profile`.

use crate::faults::SlowdownSpec;
use crate::time::Time;

/// Read an environment variable as a `String` (`None` when unset or not
/// UTF-8). The single choke point through which every `MPISIM_*` knob is
/// read, so grepping for `env::var` finds the full knob surface.
pub fn var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

// ---------------------------------------------------------------------------
// Scheduler knob (MPISIM_COOP_WORKERS)
// ---------------------------------------------------------------------------

/// Parse `MPISIM_COOP_WORKERS` (a positive worker count). Deliberately
/// lenient — unset, blank, or malformed all mean 1 worker: this knob
/// describes the host machine, not the experiment, and the run's output
/// is bit-identical for every value (DESIGN.md §5).
pub fn coop_workers_from(var: Option<&str>) -> usize {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(1)
        .max(1)
}

// ---------------------------------------------------------------------------
// Observability knob (MPISIM_TRACE_OUT)
// ---------------------------------------------------------------------------

/// Parse `MPISIM_TRACE_OUT` (an output path for exporters; lenient —
/// unset or blank means the exporter's default path).
pub fn trace_out_from(var: Option<&str>) -> Option<String> {
    match var.map(str::trim) {
        None | Some("") => None,
        Some(s) => Some(s.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Fault-injection knobs (MPISIM_FAULT_*)
// ---------------------------------------------------------------------------

/// Parse `MPISIM_FAULT_SEED` (a u64; unset or blank means 0). Garbage
/// panics — see [`crate::FaultPlan::from_env`].
pub fn fault_seed_from(var: Option<&str>) -> u64 {
    match var.map(str::trim) {
        None | Some("") => 0,
        Some(s) => s
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("MPISIM_FAULT_SEED={s:?} is not a u64 seed")),
    }
}

/// Parse `MPISIM_FAULT_SLOW=frac,max_factor` (e.g. `0.25,4`): `frac` must
/// be finite in `[0, 1]`, `max_factor` finite and `>= 1`. Unset or blank
/// means no slowdown; anything malformed panics.
pub fn fault_slow_from(var: Option<&str>) -> Option<SlowdownSpec> {
    let s = match var.map(str::trim) {
        None | Some("") => return None,
        Some(s) => s,
    };
    let bad = || -> ! {
        panic!(
            "MPISIM_FAULT_SLOW={s:?} is not a slowdown spec \
             (expected \"frac,max_factor\" with frac in [0,1], max_factor >= 1)"
        )
    };
    let (frac, max) = match s.split_once(',') {
        Some((a, b)) => (a.trim(), b.trim()),
        None => bad(),
    };
    let frac: f64 = frac.parse().unwrap_or_else(|_| bad());
    let max_factor: f64 = max.parse().unwrap_or_else(|_| bad());
    if !frac.is_finite()
        || !(0.0..=1.0).contains(&frac)
        || !max_factor.is_finite()
        || max_factor < 1.0
    {
        bad();
    }
    Some(SlowdownSpec { frac, max_factor })
}

/// Parse `MPISIM_FAULT_CRASH=rank@time[,rank@time...]` where `time` takes
/// a unit suffix (`50us`, `2ms`, `1s`, `800ns`). Unset or blank means no
/// crashes; anything malformed panics.
pub fn fault_crash_from(var: Option<&str>) -> Vec<(usize, Time)> {
    let s = match var.map(str::trim) {
        None | Some("") => return Vec::new(),
        Some(s) => s,
    };
    s.split(',')
        .map(|entry| {
            let entry = entry.trim();
            let bad = || -> ! {
                panic!(
                    "MPISIM_FAULT_CRASH entry {entry:?} is not \"rank@time\" \
                     (e.g. \"3@50us\")"
                )
            };
            let (rank, at) = match entry.split_once('@') {
                Some((r, t)) => (r.trim(), t.trim()),
                None => bad(),
            };
            let rank: usize = rank.parse().unwrap_or_else(|_| bad());
            let at = parse_time(at).unwrap_or_else(|| bad());
            (rank, at)
        })
        .collect()
}

/// Parse `MPISIM_FAULT_JITTER=<number><ns|us|ms|s>` (e.g. `20us`). Unset
/// or blank disables jitter; anything malformed panics.
pub fn fault_jitter_from(var: Option<&str>) -> Time {
    match var.map(str::trim) {
        None | Some("") => Time::ZERO,
        Some(s) => parse_time(s).unwrap_or_else(|| {
            panic!("MPISIM_FAULT_JITTER={s:?} is not a time span (e.g. \"20us\")")
        }),
    }
}

/// Parse a `<number><unit>` time span (`800ns`, `50us`, `2ms`, `1s`;
/// fractions allowed, must be finite and non-negative).
fn parse_time(s: &str) -> Option<Time> {
    let (num, mult) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e9)
    } else {
        return None;
    };
    let v: f64 = num.trim().parse().ok()?;
    if !v.is_finite() || v < 0.0 {
        return None;
    }
    Some(Time((v * mult).round() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- cooperative-scheduler knobs --------------------------------------

    #[test]
    fn coop_workers_is_lenient() {
        assert_eq!(coop_workers_from(None), 1);
        assert_eq!(coop_workers_from(Some("")), 1);
        assert_eq!(coop_workers_from(Some("garbage")), 1);
        assert_eq!(coop_workers_from(Some("0")), 1);
        assert_eq!(coop_workers_from(Some(" 8 ")), 8);
    }

    // ---- trace output knob ------------------------------------------------

    #[test]
    fn trace_out_is_lenient() {
        assert_eq!(trace_out_from(None), None);
        assert_eq!(trace_out_from(Some("  ")), None);
        assert_eq!(
            trace_out_from(Some(" results/t.json ")),
            Some("results/t.json".to_string())
        );
    }

    // ---- fault knobs (moved verbatim from faults.rs) ----------------------

    #[test]
    fn seed_parses_strictly() {
        assert_eq!(fault_seed_from(None), 0);
        assert_eq!(fault_seed_from(Some("")), 0);
        assert_eq!(fault_seed_from(Some(" 42 ")), 42);
        assert_eq!(fault_seed_from(Some("18446744073709551615")), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "not a u64 seed")]
    fn seed_rejects_garbage() {
        fault_seed_from(Some("0x12"));
    }

    #[test]
    #[should_panic(expected = "not a u64 seed")]
    fn seed_rejects_negative() {
        fault_seed_from(Some("-1"));
    }

    #[test]
    fn slow_parses_strictly() {
        assert_eq!(fault_slow_from(None), None);
        assert_eq!(fault_slow_from(Some("  ")), None);
        assert_eq!(
            fault_slow_from(Some("0.25,4")),
            Some(SlowdownSpec {
                frac: 0.25,
                max_factor: 4.0
            })
        );
        assert_eq!(
            fault_slow_from(Some(" 1 , 1.5 ")),
            Some(SlowdownSpec {
                frac: 1.0,
                max_factor: 1.5
            })
        );
    }

    #[test]
    #[should_panic(expected = "not a slowdown spec")]
    fn slow_rejects_missing_comma() {
        fault_slow_from(Some("0.25"));
    }

    #[test]
    #[should_panic(expected = "not a slowdown spec")]
    fn slow_rejects_out_of_range_frac() {
        fault_slow_from(Some("1.5,4"));
    }

    #[test]
    #[should_panic(expected = "not a slowdown spec")]
    fn slow_rejects_negative_frac() {
        fault_slow_from(Some("-0.1,4"));
    }

    #[test]
    #[should_panic(expected = "not a slowdown spec")]
    fn slow_rejects_sub_unity_factor() {
        fault_slow_from(Some("0.5,0.5"));
    }

    #[test]
    #[should_panic(expected = "not a slowdown spec")]
    fn slow_rejects_non_finite() {
        fault_slow_from(Some("NaN,4"));
    }

    #[test]
    fn crash_parses_strictly() {
        assert!(fault_crash_from(None).is_empty());
        assert_eq!(
            fault_crash_from(Some("3@50us")),
            vec![(3, Time::from_micros(50))]
        );
        assert_eq!(
            fault_crash_from(Some(" 1@2ms , 0@800ns ")),
            vec![(1, Time::from_millis(2)), (0, Time::from_nanos(800))]
        );
        assert_eq!(
            fault_crash_from(Some("2@1s")),
            vec![(2, Time::from_secs_f64(1.0))]
        );
    }

    #[test]
    #[should_panic(expected = "is not \"rank@time\"")]
    fn crash_rejects_missing_unit() {
        fault_crash_from(Some("3@50"));
    }

    #[test]
    #[should_panic(expected = "is not \"rank@time\"")]
    fn crash_rejects_negative_time() {
        fault_crash_from(Some("3@-5us"));
    }

    #[test]
    #[should_panic(expected = "is not \"rank@time\"")]
    fn crash_rejects_garbage_rank() {
        fault_crash_from(Some("x@5us"));
    }

    #[test]
    fn jitter_parses_strictly() {
        assert_eq!(fault_jitter_from(None), Time::ZERO);
        assert_eq!(fault_jitter_from(Some("")), Time::ZERO);
        assert_eq!(fault_jitter_from(Some("20us")), Time::from_micros(20));
        assert_eq!(fault_jitter_from(Some("1.5ms")), Time::from_micros(1500));
        assert_eq!(fault_jitter_from(Some("800ns")), Time::from_nanos(800));
    }

    #[test]
    #[should_panic(expected = "not a time span")]
    fn jitter_rejects_unitless() {
        fault_jitter_from(Some("20"));
    }

    #[test]
    #[should_panic(expected = "not a time span")]
    fn jitter_rejects_non_finite() {
        fault_jitter_from(Some("infus"));
    }
}
