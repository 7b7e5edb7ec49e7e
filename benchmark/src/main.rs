//! The perf ledger: host ns per simulated message, bytes per rank and
//! virtual time over four named workloads, decomposed per layer. Measures
//! `mpisim`, `rbc` and `jquick` from outside, through `pub` items only.
//!
//! ```text
//! perf-ledger run     [--seed S] [--workload W] [--seconds T] [--smoke] [--out FILE]
//! perf-ledger trace   [--seed S] [--workload W] [--smoke]
//! perf-ledger compare A.json B.json
//! perf-ledger spec                      # print BENCHMARK.json from the catalogue
//! perf-ledger --workload W --seed S --seconds T --trace 0|1      # one workload, one process
//! ```
//!
//! See `benchmark/README.md`.

mod alloc;
mod calib;
mod compare;
mod json;
mod layers;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use json::Value;
use run::Request;

// Not in the unit-test harness: tests that drive the counters directly
// must not see the harness's own allocations.
#[cfg(not(test))]
#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// How long one run measures; `BENCHMARK.json` repeats it.
pub const RUN_SECONDS: u64 = 28;
/// The default seed of `run` and `trace`.
const DEFAULT_SEED: u64 = 42;

/// Variables that change what the repository's own harnesses simulate or
/// sweep. None of them may leak into a measurement.
fn polluting_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MPISIM_") || k == "BENCH_QUICK" || k == "LARGEP_MAX_EXP")
        .collect()
}

/// Command-line options after the sub-command.
#[derive(Debug, Default, PartialEq)]
struct Options {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    probe: Option<String>,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !spec::valid_name(&w) {
                    return Err(format!("--workload: {w:?} is not a legal name"));
                }
                o.workload = Some(w);
            }
            "--seed" => {
                let s = value("--seed")?;
                o.seed = Some(
                    s.parse()
                        .map_err(|_| format!("--seed: {s:?} is not a u64"))?,
                );
            }
            "--seconds" => {
                let s = value("--seconds")?;
                let secs: f64 = s
                    .parse()
                    .map_err(|_| format!("--seconds: {s:?} is not a number"))?;
                if !(0.0..=3600.0).contains(&secs) {
                    return Err(format!("--seconds: {s} is out of range"));
                }
                o.seconds = Some(secs);
            }
            "--trace" => {
                o.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                })
            }
            "--probe" => o.probe = Some(value("--probe")?),
            "--out" => o.out = Some(value("--out")?),
            "--smoke" => o.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf-ledger run [--seed S] [--workload W] [--seconds T] [--smoke] [--out FILE]\n\
         \x20      perf-ledger trace [--seed S] [--workload W] [--smoke]\n\
         \x20      perf-ledger compare A.json B.json\n\
         \x20      perf-ledger spec\n\
         \x20      perf-ledger --workload W --seed S --seconds T --trace 0|1 [--smoke]"
    );
    ExitCode::from(2)
}

/// `BENCHMARK.json`, rendered from the catalogue.
fn benchmark_json() -> String {
    let list = |items: Vec<Value>| {
        let body: Vec<String> = items
            .iter()
            .map(|v| format!("    {}", v.render()))
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    };
    let command = Value::Arr(
        [
            "cargo",
            "run",
            "--release",
            "--offline",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ]
        .map(Value::str)
        .to_vec(),
    );
    let workloads = workloads::all(false)
        .iter()
        .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
        .collect();
    let end_to_end = spec::END_TO_END
        .iter()
        .map(|m| {
            Value::obj([
                ("name", Value::str(m.name)),
                ("unit", Value::str(m.unit)),
                ("better", Value::str("lower")),
                ("bound", Value::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = spec::PER_LAYER
        .iter()
        .map(|m| {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            Value::obj([
                ("name", Value::str(m.name)),
                ("unit", Value::str(m.unit)),
                ("better", Value::str(better)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.render(),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare" | "spec")) => (c, &args[1..]),
        Some(_) => ("one", &args[..]),
        None => return usage(),
    };
    let o = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };

    match command {
        "spec" => {
            print!("{}", benchmark_json());
            return ExitCode::SUCCESS;
        }
        "compare" => {
            return match o.positional.as_slice() {
                [a, b] => ExitCode::from(compare::compare(a, b)),
                _ => usage(),
            }
        }
        _ => {}
    }
    if !o.positional.is_empty() {
        eprintln!("unexpected argument {:?}", o.positional[0]);
        return usage();
    }

    let polluting = polluting_env();
    if !polluting.is_empty() {
        eprintln!(
            "refusing to measure: {} set in the environment; these knobs change what the \
             simulator runs. Unset them and run again.",
            polluting.join(", ")
        );
        return ExitCode::from(3);
    }

    let req = Request {
        seed: o.seed.unwrap_or(DEFAULT_SEED),
        seconds: o
            .seconds
            .unwrap_or(if o.smoke { 0.0 } else { RUN_SECONDS as f64 }),
        smoke: o.smoke,
    };
    let suite_mode = match command {
        "run" => Some(suite::Mode::Run),
        "trace" => Some(suite::Mode::Trace),
        _ => None,
    };
    if let Some(mode) = suite_mode {
        return ExitCode::from(suite::suite(
            mode,
            o.workload.as_deref(),
            &req,
            o.out.map(Into::into),
        ));
    }

    // One workload in this process.
    let Some(name) = o.workload.as_deref() else {
        eprintln!("--workload is required");
        return usage();
    };
    let Some(w) = workloads::all(req.smoke)
        .into_iter()
        .find(|w| w.name == name)
    else {
        eprintln!("unknown workload {name:?}");
        return ExitCode::from(2);
    };
    if let Some(kind) = o.probe.as_deref() {
        let v = match kind {
            "setup" => run::probe_setup(&w, &req, process_start),
            "memory" => run::probe_memory(&w, &req),
            other => {
                eprintln!("unknown probe {other:?}");
                return ExitCode::from(2);
            }
        };
        println!("{}", v.render());
        return ExitCode::SUCCESS;
    }

    let traced = o.trace.unwrap_or(false);
    let outcome = if traced {
        run::traced_run(&w, &req)
    } else {
        run::timed_run(&w, &req, process_start)
    };
    let smoke = if req.smoke {
        ", SMOKE: not comparable"
    } else {
        ""
    };
    outcome.print_table(&format!(
        "{} ({}, seed {}, p = {}, {} worker(s), {:?}{smoke})",
        w.name,
        if traced { "traced run" } else { "timed run" },
        req.seed,
        w.p,
        w.workers,
        w.backend
    ));
    // The driver reads the last line.
    println!("{}", outcome.contract_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn contract_flags_parse_in_any_order() {
        let o = opts(&[
            "--trace",
            "1",
            "--seconds",
            "8",
            "--workload",
            "jquick_bulk",
            "--seed",
            "7",
        ])
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("jquick_bulk"));
        assert_eq!(
            (o.seed, o.seconds, o.trace),
            (Some(7), Some(8.0), Some(true))
        );
    }

    #[test]
    fn malformed_flags_are_rejected() {
        for bad in [
            &["--seed", "minus-one"][..],
            &["--seed"],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--workload", "../etc"],
            &["--frobnicate"],
        ] {
            assert!(opts(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn spec_renders_parseable_json_within_the_size_limit() {
        let text = benchmark_json();
        assert!(text.len() < 64 * 1024);
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("workloads").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(
            doc.get("per_layer").unwrap().as_arr().unwrap().len(),
            spec::PER_LAYER.len()
        );
    }
}
