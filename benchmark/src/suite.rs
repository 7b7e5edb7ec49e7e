//! The whole suite from one command: `run` and `trace` start one child
//! process per workload (so lazy initialisation and high-water marks never
//! leak between workloads), collect what each wrote, and print every
//! metric by name.

use std::path::PathBuf;
use std::process::Command;

use crate::json::{self, Value};
use crate::run::{out_dir, stamps, Request};
use crate::workloads::{self, Workload};

/// Which of the two suite commands.
#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    Run,
    Trace,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Trace => "trace",
        }
    }
}

/// Run one workload in a child process; its tables pass through to our
/// standard output, and its record comes back from `benchmark/out/`.
fn child(mode: Mode, w: &Workload, req: &Request) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &req.seed.to_string()])
        .args(["--seconds", &req.seconds.to_string()])
        .args(["--trace", if mode == Mode::Trace { "1" } else { "0" }]);
    if req.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
    if !status.success() {
        return Err(format!("{} exited with {status}", w.name));
    }
    let path = out_dir().join(format!("{}.{}.json", w.name, mode.name()));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
}

/// Run the suite (or the one workload named). Returns the process exit
/// code: non-zero if a child failed or any operation did.
pub fn suite(mode: Mode, only: Option<&str>, req: &Request, out: Option<PathBuf>) -> u8 {
    let selected: Vec<Workload> = workloads::all(req.smoke)
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
        .collect();
    if selected.is_empty() {
        eprintln!("unknown workload {:?}", only.unwrap_or(""));
        return 2;
    }
    if req.smoke {
        println!("SMOKE RUN: shrunk workloads, numbers are not comparable with a full run");
    }
    let mut records = Vec::new();
    let mut broken = false;
    for w in &selected {
        match child(mode, w, req) {
            Ok(r) => records.push(r),
            Err(e) => {
                eprintln!("FAILED {e}");
                broken = true;
            }
        }
    }

    let (attempted, failed) = records.iter().fold((0.0, 0.0), |(a, f), r| {
        let n = |k| r.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        (a + n("ops_attempted"), f + n("ops_failed"))
    });
    println!("suite: ops_attempted {attempted}  ops_failed {failed}");

    if mode == Mode::Trace {
        // One file with every span of every workload.
        let spans: Vec<Value> = records
            .iter()
            .flat_map(|r| {
                r.get("spans")
                    .and_then(Value::as_arr)
                    .unwrap_or(&[])
                    .to_vec()
            })
            .collect();
        let path = out_dir().join("trace.json");
        match std::fs::write(
            &path,
            Value::obj([("spans", Value::Arr(spans))]).render_pretty(),
        ) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }

    let mut doc = vec![
        ("schema", Value::str("perf-ledger/1")),
        ("mode", Value::str(mode.name())),
    ];
    doc.extend(stamps(req));
    doc.push(("ops_attempted", Value::Num(attempted)));
    doc.push(("ops_failed", Value::Num(failed)));
    doc.push((
        "workloads",
        Value::Arr(
            records
                .into_iter()
                .map(|r| match r {
                    // Spans live in trace.json; keep the summary small.
                    Value::Obj(pairs) => {
                        Value::Obj(pairs.into_iter().filter(|(k, _)| k != "spans").collect())
                    }
                    other => other,
                })
                .collect(),
        ),
    ));
    // This benchmark defines the ledger; it claims no gain.
    doc.push(("claim", Value::Null));
    let doc = Value::obj(doc);
    // `trace.json` holds the spans, so the traced summary gets its own name.
    let default_name = match mode {
        Mode::Run => "run.json",
        Mode::Trace => "trace_metrics.json",
    };
    let path = out.unwrap_or_else(|| out_dir().join(default_name));
    match std::fs::write(&path, doc.render_pretty()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            broken = true;
        }
    }
    u8::from(broken || failed > 0.0)
}
