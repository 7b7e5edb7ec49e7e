//! One workload, one process: the timed run (`--trace 0`), the traced run
//! (`--trace 1`) and the two probes the timed run starts as children.
//!
//! The timed run is a closed loop: one universe at a time, the next
//! repetition starts when the previous one has been checked.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::alloc::{peak_heap_during, vm_hwm_bytes};
use crate::calib::Calibrator;
use crate::json::{self, Value};
use crate::layers;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::trace::Tracer;
use crate::workloads::{Inputs, Observe, Rep, Workload};

/// Timed repetitions a full run makes at least, whatever `--seconds` says.
pub const MIN_REPS: usize = 7;
/// Timed repetitions of a smoke run.
pub const SMOKE_REPS: usize = 2;
/// Set-ups per run: this process's own plus two fresh child processes.
pub const SETUP_SAMPLES: usize = 3;

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct Request {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// Operations attempted and failed. A repetition is one operation; it
/// fails if a rank returns `Err`, the output check fails, or its model
/// counts differ from the first repetition's.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one operation; a failure is reported on stderr.
    pub fn record<T>(&mut self, what: &str, outcome: &Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
    }
}

/// One measured metric: the value reported, the samples behind it.
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Measured {
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }

    fn to_json(&self) -> Value {
        let (q1, q2, q3) = quartiles(&self.samples);
        let mut pairs = vec![
            ("unit", Value::str(self.unit)),
            ("median", Value::Num(q2)),
            ("q1", Value::Num(q1)),
            ("q3", Value::Num(q3)),
            ("n", Value::Num(self.samples.len() as f64)),
        ];
        if let Some(b) = spec::bound_of(self.name) {
            pairs.push(("bound", Value::Num(b)));
        }
        pairs.push(("samples", Value::nums(&self.samples)));
        Value::obj(pairs)
    }
}

/// Where result files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
    }
    dir
}

fn write_file(path: &PathBuf, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// First line of a command's standard output, or "unknown".
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What every result file is stamped with.
pub fn stamps(req: &Request) -> Vec<(&'static str, Value)> {
    vec![
        ("seed", Value::Num(req.seed as f64)),
        (
            "git_commit",
            Value::Str(first_line_of(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", Value::Str(first_line_of("rustc", &["-V"]))),
        (
            "available_parallelism",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("run_seconds", Value::Num(req.seconds)),
        ("comparable", Value::Bool(!req.smoke)),
    ]
}

/// One repetition, counted. Returns it only if it passed its own check.
fn repetition(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    observe: Observe,
    what: &str,
    ops: &mut Ops,
) -> Option<Rep> {
    let rep = w.run(inputs, seed, observe);
    ops.record(&format!("{} {what}", w.name), &rep.check);
    rep.check.is_ok().then_some(rep)
}

// ---- probes ----------------------------------------------------------------

/// Set-up ends here: the raw seconds since `process_start`, then (outside
/// them) a fresh calibrator and the host's slowdown, the mean of two
/// samples.
fn setup_ended(process_start: Instant) -> (f64, Calibrator, f64) {
    let raw_s = process_start.elapsed().as_secs_f64();
    let mut cal = Calibrator::new();
    let slowdown = (cal.sample() + cal.sample()) / 2.0;
    (raw_s, cal, slowdown)
}

/// `--probe setup`: a fresh process sets up (inputs + one cold repetition)
/// and reports how long that took since `process_start`, raw and with the
/// host's slowdown right after it.
pub fn probe_setup(w: &Workload, req: &Request, process_start: Instant) -> Value {
    let inputs = w.inputs(req.seed);
    let rep = w.run(&inputs, req.seed, Observe::default());
    let (raw_s, _, slowdown) = setup_ended(process_start);
    Value::obj([
        ("raw_setup_s", Value::Num(raw_s)),
        ("slowdown", Value::Num(slowdown)),
        ("ok", Value::Bool(rep.check.is_ok())),
        ("error", rep.check.err().map_or(Value::Null, Value::Str)),
    ])
}

/// `--probe memory`: a fresh process generates the inputs, then runs one
/// repetition with the counting allocator on and reads the resident-set
/// high-water mark on both sides of it.
pub fn probe_memory(w: &Workload, req: &Request) -> Value {
    let inputs = w.inputs(req.seed);
    let hwm_before = vm_hwm_bytes();
    let (rep, peak_heap) = peak_heap_during(|| w.run(&inputs, req.seed, Observe::default()));
    let hwm_after = vm_hwm_bytes();
    let rss = match (hwm_before, hwm_after) {
        (Some(a), Some(b)) => Value::Num(b.saturating_sub(a) as f64),
        _ => Value::Null,
    };
    Value::obj([
        ("peak_heap_bytes", Value::Num(peak_heap as f64)),
        ("peak_rss_bytes", rss),
        ("ok", Value::Bool(rep.check.is_ok())),
        ("error", rep.check.err().map_or(Value::Null, Value::Str)),
    ])
}

/// Start this executable again as a probe, wait for it, parse the JSON on
/// the last line of its standard output.
fn run_probe(kind: &str, w: &Workload, req: &Request) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--probe", kind, "--workload", w.name])
        .args(["--seed", &req.seed.to_string()]);
    if req.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {kind} probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{kind} probe exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v = json::parse(last)?;
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(v),
        _ => Err(format!(
            "{kind} probe's repetition failed: {}",
            v.get("error").and_then(Value::as_str).unwrap_or("?")
        )),
    }
}

// ---- the timed run -----------------------------------------------------------

/// The result of one workload's run, timed or traced.
pub struct Outcome {
    pub ops: Ops,
    pub metrics: Vec<Measured>,
}

impl Outcome {
    /// The line the driver parses: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn contract_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.ops.failed == 0)),
            ("attempted", Value::Num(self.ops.attempted as f64)),
            ("failed", Value::Num(self.ops.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Value::obj([
                            ("value", Value::Num(m.value())),
                            ("unit", Value::str(m.unit)),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// Every metric by name, with unit, sample count, quartiles and its
    /// bound (end-to-end) or the end-to-end metric it should move
    /// (per-layer).
    pub fn print_table(&self, title: &str) {
        println!("{title}");
        println!(
            "  {:<42} {:>16} {:<6} {:>3}  {:>14} {:>14}  bound / moves",
            "metric", "median", "unit", "n", "q1", "q3"
        );
        for m in &self.metrics {
            let (q1, q2, q3) = quartiles(&m.samples);
            let note = match (spec::bound_of(m.name), spec::moves_of(m.name)) {
                (Some(b), _) => format!("{b}"),
                (None, Some(moves)) => moves.to_string(),
                (None, None) => "-".to_string(),
            };
            println!(
                "  {:<42} {:>16} {:<6} {:>3}  {:>14} {:>14}  {note}",
                m.name,
                sig(q2),
                m.unit,
                m.samples.len(),
                sig(q1),
                sig(q3),
            );
        }
        println!(
            "  ops_attempted {}  ops_failed {}",
            self.ops.attempted, self.ops.failed
        );
    }
}

/// Six significant digits, for tables (files keep every digit). Whole
/// numbers, which is what counts are, print as such.
pub fn sig(x: f64) -> String {
    if x.fract() == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let digits = (5 - x.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{x:.digits$}")
}

/// The samples of the end-to-end metric called `name`, with its unit from
/// the catalogue.
fn end_to_end(name: &'static str, samples: Vec<f64>) -> Measured {
    let unit = END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the end-to-end catalogue"))
        .unit;
    Measured {
        name,
        unit,
        samples,
    }
}

/// `--trace 0`: set up, time repetitions for `req.seconds` with the
/// calibration kernel beside each, measure set-up time and memory in fresh
/// child processes, report every end-to-end metric.
///
/// Host time is reported in calibrated seconds: a repetition's wall-clock
/// over the host's slowdown, the mean of the calibration samples taken
/// right before and right after it (see `calib.rs`). The raw seconds and
/// the slowdowns go into the record beside them.
pub fn timed_run(w: &Workload, req: &Request, process_start: Instant) -> Outcome {
    let mut ops = Ops::default();

    // Set-up: inputs from the seed, one cold repetition (slab mmap, pool
    // fill, lazy statics). Ends where the first timed repetition begins.
    let inputs = w.inputs(req.seed);
    let first = repetition(
        w,
        &inputs,
        req.seed,
        Observe::default(),
        "warm-up",
        &mut ops,
    );
    let (raw_setup, mut cal, mut before) = setup_ended(process_start);
    let mut raw_setup_s = vec![raw_setup];
    let mut setup_s = vec![raw_setup / before];
    let reference = first.as_ref().map(Rep::model_counts);

    // Timed repetitions: tracing, profiling and allocation counting off.
    let min_reps = if req.smoke { SMOKE_REPS } else { MIN_REPS };
    let budget = Duration::from_secs_f64(req.seconds);
    let (mut wall_s, mut ns_per_msg) = (Vec::new(), Vec::new());
    let (mut raw_wall_s, mut slowdowns) = (Vec::new(), Vec::new());
    let counts = first.as_ref().map(|r| (r.virtual_ns, r.metrics.clone()));
    let t0 = Instant::now();
    while wall_s.len() < min_reps || t0.elapsed() < budget {
        let what = format!("repetition {}", wall_s.len() + 1);
        let rep = repetition(w, &inputs, req.seed, Observe::default(), &what, &mut ops);
        let after = cal.sample();
        let slowdown = (before + after) / 2.0;
        before = after;
        let Some(rep) = rep else {
            if ops.failed >= 3 {
                break; // a broken build fails every time; do not spin
            }
            continue;
        };
        if reference.is_some_and(|r| r != rep.model_counts()) {
            ops.failed += 1;
            eprintln!(
                "FAILED {} {what}: (virtual ns, messages, epochs) {:?} differ from the first repetition's {:?}",
                w.name,
                rep.model_counts(),
                reference
            );
        }
        let calibrated = rep.wall_s / slowdown;
        wall_s.push(calibrated);
        ns_per_msg.push(calibrated * 1e9 / rep.metrics.messages.max(1) as f64);
        raw_wall_s.push(rep.wall_s);
        slowdowns.push(slowdown);
    }

    // Set-up time again, and memory, each in a fresh process so neither
    // lazy initialisation nor high-water marks leak between samples.
    for _ in 1..SETUP_SAMPLES {
        let probe = run_probe("setup", w, req);
        ops.record(&format!("{} setup probe", w.name), &probe);
        let field = |k| probe.as_ref().ok()?.get(k).and_then(Value::as_f64);
        if let (Some(raw), Some(slowdown)) = (field("raw_setup_s"), field("slowdown")) {
            raw_setup_s.push(raw);
            setup_s.push(raw / slowdown);
        }
    }
    let memory = run_probe("memory", w, req);
    ops.record(&format!("{} memory probe", w.name), &memory);
    let per_rank = |key: &str| -> Vec<f64> {
        memory
            .as_ref()
            .ok()
            .and_then(|v| v.get(key).and_then(Value::as_f64))
            .map(|bytes| bytes / w.p as f64)
            .into_iter()
            .collect()
    };

    let repetitions = wall_s.len();
    let metrics = vec![
        end_to_end("setup_s", setup_s),
        end_to_end("wall_s", wall_s),
        end_to_end("host_ns_per_msg", ns_per_msg),
        end_to_end("peak_heap_bytes_per_rank", per_rank("peak_heap_bytes")),
        end_to_end("peak_rss_bytes_per_rank", per_rank("peak_rss_bytes")),
    ];
    debug_assert!(metrics
        .iter()
        .map(|m| m.name)
        .eq(END_TO_END.iter().map(|m| m.name)));
    println!(
        "{}: uncalibrated wall_s median {}, setup_s median {}, host slowdown median {} (1 = quiet host)",
        w.name,
        sig(median(&raw_wall_s)),
        sig(median(&raw_setup_s)),
        sig(median(&slowdowns)),
    );
    let mut extra = vec![
        ("repetitions", Value::Num(repetitions as f64)),
        (
            "uncalibrated",
            Value::obj([
                ("wall_s", Value::nums(&raw_wall_s)),
                ("setup_s", Value::nums(&raw_setup_s)),
                ("slowdown", Value::nums(&slowdowns)),
            ]),
        ),
    ];
    if let Some((virtual_ns, m)) = &counts {
        extra.push((
            "counts",
            Value::obj([
                ("virtual_ms", Value::Num(*virtual_ns as f64 / 1e6)),
                ("messages", Value::Num(m.messages as f64)),
                ("bytes", Value::Num(m.bytes as f64)),
                ("epochs", Value::Num(m.epochs as f64)),
                ("wakeups", Value::Num(m.wakeups as f64)),
                ("switches", Value::Num(m.switches as f64)),
                ("mailbox_scans", Value::Num(m.mailbox_scans as f64)),
            ]),
        ));
    }
    finish(w, req, "run", extra, ops, metrics)
}

/// The common end of both runs: a metric without a sample is a failure;
/// the record goes to `benchmark/out/<workload>.<mode>.json`.
fn finish(
    w: &Workload,
    req: &Request,
    mode: &str,
    extra: Vec<(&'static str, Value)>,
    mut ops: Ops,
    metrics: Vec<Measured>,
) -> Outcome {
    for m in &metrics {
        if m.samples.is_empty() {
            ops.failed += 1;
            eprintln!("FAILED {}: no sample of {}", w.name, m.name);
        }
    }
    let mut record = vec![
        ("name", Value::str(w.name)),
        ("p", Value::Num(w.p as f64)),
        ("workers", Value::Num(w.workers as f64)),
        ("backend", Value::Str(format!("{:?}", w.backend))),
        ("mode", Value::str(mode)),
    ];
    record.extend(stamps(req));
    record.push(("ops_attempted", Value::Num(ops.attempted as f64)));
    record.push(("ops_failed", Value::Num(ops.failed as f64)));
    record.push((
        "metrics",
        Value::obj(metrics.iter().map(|m| (m.name, m.to_json()))),
    ));
    record.extend(extra);
    write_file(
        &out_dir().join(format!("{}.{mode}.json", w.name)),
        &Value::obj(record).render_pretty(),
    );
    Outcome { ops, metrics }
}

// ---- the traced run -----------------------------------------------------------

/// `--trace 1`: drive every layer, then run the workload untraced,
/// profiled and traced, all inside spans; report every per-layer metric.
pub fn traced_run(w: &Workload, req: &Request) -> Outcome {
    let mut ops = Ops::default();
    let mut t = Tracer::new(w.name);
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let mut untraced_wall_s = f64::NAN;

    t.span("layers", |t| {
        values.extend(layers::drive_all(t, req.seed, req.smoke));
    });

    t.span(&format!("workload:{}", w.name), |t| {
        let inputs = t.span("inputs", |_| w.inputs(req.seed));
        let rep_in_span = |t: &mut Tracer, what: &str, observe: Observe, ops: &mut Ops| {
            t.span(&format!("rep:{what}"), |t| {
                let rep = repetition(w, &inputs, req.seed, observe, what, ops);
                if let Some(r) = &rep {
                    t.count("messages", r.metrics.messages as f64);
                    t.count("epochs", r.metrics.epochs as f64);
                    t.count("virtual_ns", r.virtual_ns as f64);
                }
                rep
            })
        };
        rep_in_span(t, "warm-up", Observe::default(), &mut ops);
        // The host's slowdown beside the untraced repetitions, so a reader
        // of the traced run can tell a slow phase from slow code.
        let mut cal = t.span("calibrator", |_| Calibrator::new());
        let mut slowdowns = vec![cal.sample()];
        let plain: Vec<Rep> = (0..2)
            .filter_map(|_| {
                let rep = rep_in_span(t, "untraced", Observe::default(), &mut ops);
                slowdowns.push(cal.sample());
                rep
            })
            .collect();
        drop(cal);
        let profiled = rep_in_span(
            t,
            "profiled",
            Observe {
                trace: false,
                profile: true,
            },
            &mut ops,
        );
        let traced = rep_in_span(
            t,
            "traced",
            Observe {
                trace: true,
                profile: true,
            },
            &mut ops,
        );

        // A host-only observer must not change what is simulated.
        let reference = plain.first().map(Rep::model_counts);
        for (what, rep) in [("profiled", &profiled), ("traced", &traced)] {
            if let (Some(want), Some(rep)) = (reference, rep) {
                if rep.model_counts() != want {
                    ops.failed += 1;
                    eprintln!(
                        "FAILED {} {what}: model counts {:?} differ from the untraced {want:?}",
                        w.name,
                        rep.model_counts()
                    );
                }
            }
        }

        if let Some(r) = plain.first() {
            let m = &r.metrics;
            let lookups = r.pool.hits + r.pool.misses;
            values.extend([
                ("model.virtual_us", r.virtual_ns as f64 / 1e3),
                ("model.messages", m.messages as f64),
                ("model.bytes", m.bytes as f64),
                ("sched.epochs", m.epochs as f64),
                ("sched.wakeups", m.wakeups as f64),
                ("sched.switches", m.switches as f64),
                ("mailbox.scans", m.mailbox_scans as f64),
                ("pool.payload_hits", r.pool.hits as f64),
                ("pool.payload_misses", r.pool.misses as f64),
                ("pool.payload_overflow", r.pool.overflow as f64),
                (
                    "pool.payload_hit_ratio",
                    r.pool.hits as f64 / lookups.max(1) as f64,
                ),
                (
                    "nbcoll.polls_per_completion",
                    r.polls_per_completion.unwrap_or(0.0),
                ),
            ]);
            let s = r.sort.unwrap_or_default();
            values.extend([
                ("jquick.max_level", f64::from(s.max_level)),
                ("jquick.stuck_retries", s.stuck_retries as f64),
                ("jquick.base_1", s.base_1 as f64),
                ("jquick.base_2", s.base_2 as f64),
                ("jquick.imbalance", s.imbalance),
            ]);
        }
        if let Some((r, prof)) = profiled
            .as_ref()
            .and_then(|r| r.profile.as_ref().map(|p| (r, p)))
        {
            let sum = |f: fn(&mpisim::WorkerProfile) -> u64| -> f64 {
                prof.workers.iter().map(f).sum::<u64>() as f64
            };
            let (run, commit, merge, idle) = (
                sum(|x| x.run_ns),
                sum(|x| x.commit_ns),
                sum(|x| x.merge_ns),
                sum(|x| x.idle_ns),
            );
            // At one worker the profile reports commit_ns = 0 (the inline
            // commit is not attributed): the residual says so.
            let explained = (run + commit + merge + idle) / (w.workers as f64 * r.wall_s * 1e9);
            values.extend([
                ("sched.run_ns", run),
                ("sched.commit_ns", commit),
                ("sched.merge_ns", merge),
                ("sched.idle_ns", idle),
                ("sched.tasks", sum(|x| x.tasks)),
                ("sched.shards", sum(|x| x.shards)),
                ("sched.merge_runs", sum(|x| x.merge_runs)),
                ("sched.unattributed_share", 1.0 - explained),
            ]);
        }
        untraced_wall_s = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        values.extend([
            ("calib.raw_wall_s", untraced_wall_s),
            ("calib.slowdown", median(&slowdowns)),
        ]);
        if let Some(r) = &traced {
            values.extend([
                ("obs.trace_events", r.trace_events.unwrap_or(0) as f64),
                ("obs.trace_overhead_ratio", r.wall_s / untraced_wall_s),
            ]);
        }
    });

    let metrics: Vec<Measured> = PER_LAYER
        .iter()
        .map(|m| Measured {
            name: m.name,
            unit: m.unit,
            samples: values
                .iter()
                .filter(|(n, _)| *n == m.name)
                .map(|(_, v)| *v)
                .collect(),
        })
        .collect();
    let extra = vec![
        ("untraced_wall_s", Value::Num(untraced_wall_s)),
        ("spans", t.to_json()),
    ];
    finish(w, req, "trace", extra, ops, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_operations_are_counted() {
        let mut ops = Ops::default();
        ops.record("a", &Ok(()));
        ops.record::<()>("b", &Err("rank 3: output not sorted".into()));
        ops.record("c", &Ok(()));
        assert_eq!(
            ops,
            Ops {
                attempted: 3,
                failed: 1
            }
        );
    }

    /// The negative test of the issue: a deliberately unbalanced output is
    /// an operation that failed, and the contract line says so.
    #[test]
    fn an_unbalanced_output_ends_up_in_ops_failed() {
        let layout = jquick::Layout::new(4, 2);
        let outs: [&[f64]; 2] = [&[1.0, 2.0, 3.0], &[4.0]];
        let mut ops = Ops::default();
        ops.record("rep", &crate::workloads::check_sorted(&outs, &layout, 0));
        let outcome = Outcome {
            ops,
            metrics: vec![Measured {
                name: "wall_s",
                unit: "s",
                samples: vec![0.5, 0.25, 1.0],
            }],
        };
        let line = json::parse(&outcome.contract_line()).unwrap();
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(line.get("attempted").and_then(Value::as_f64), Some(1.0));
        assert_eq!(line.get("failed").and_then(Value::as_f64), Some(1.0));
        let wall = line.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(0.5));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn table_numbers_keep_six_significant_digits() {
        assert_eq!(sig(1234.56789), "1234.57");
        assert_eq!(sig(0.000123456789), "0.000123457");
        assert_eq!(sig(615505.0), "615505");
        assert_eq!(sig(238.0), "238");
        assert_eq!(sig(0.0), "0");
    }
}
