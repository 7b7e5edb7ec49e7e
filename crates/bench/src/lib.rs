//! Shared benchmark harness utilities.
//!
//! Every figure binary builds a [`Table`] (one row per x value, one column
//! per series), prints it as markdown, and writes a CSV under `results/`.
//! Timing follows the paper's protocol: an operation's running time is the
//! **maximum over ranks** of per-rank virtual elapsed time, **averaged over
//! repetitions** (the paper uses 5 reps for microbenchmarks, 7/3 for
//! sorting).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;

pub mod figs;
use std::path::Path;

use mpisim::{SimConfig, Time};

/// Number of repetitions, scaled down in quick mode.
pub fn reps(full: usize) -> usize {
    if quick_mode() {
        2
    } else {
        full
    }
}

/// `BENCH_QUICK=1` shrinks sweeps so the golden check stays fast; the figure
/// binaries run full sweeps by default.
pub fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Powers of two in `[2^lo, 2^hi]`, truncated in quick mode.
pub fn pow2_sweep(lo: u32, hi: u32) -> Vec<u64> {
    let hi = if quick_mode() { hi.min(lo + 4) } else { hi };
    (lo..=hi).map(|e| 1u64 << e).collect()
}

/// A result table: one named series per column.
pub struct Table {
    /// Table heading, printed above the markdown rendering.
    pub title: String,
    /// Name of the x column (e.g. `n/p` or `p`).
    pub xlabel: String,
    /// Column (series) names.
    pub series: Vec<String>,
    /// Unit appended to series headers (usually `ms`).
    pub unit: String,
    /// One `(x, series values)` row per swept point.
    pub rows: Vec<(u64, Vec<f64>)>,
}

impl Table {
    /// A table reporting milliseconds.
    pub fn new(title: &str, xlabel: &str, series: &[&str]) -> Table {
        Table::with_unit(title, xlabel, series, "ms")
    }

    /// A table reporting values in `unit`.
    pub fn with_unit(title: &str, xlabel: &str, series: &[&str], unit: &str) -> Table {
        Table {
            title: title.to_string(),
            xlabel: xlabel.to_string(),
            series: series.iter().map(|s| s.to_string()).collect(),
            unit: unit.to_string(),
            rows: Vec::new(),
        }
    }

    /// Append a row; `values` must match the series count.
    pub fn push(&mut self, x: u64, values: Vec<f64>) {
        assert_eq!(values.len(), self.series.len());
        self.rows.push((x, values));
    }

    /// Render as a markdown table of milliseconds.
    pub fn print(&self) {
        println!("\n## {}\n", self.title);
        print!("| {} |", self.xlabel);
        for s in &self.series {
            if self.unit.is_empty() {
                print!(" {s} |");
            } else {
                print!(" {s} [{}] |", self.unit);
            }
        }
        println!();
        print!("|---|");
        for _ in &self.series {
            print!("---|");
        }
        println!();
        for (x, vals) in &self.rows {
            print!("| {x} |");
            for v in vals {
                print!(" {v:.4} |");
            }
            println!();
        }
    }

    /// Render the table as CSV. Non-finite cells render empty —
    /// downstream plotting must never have to parse a literal `NaN`.
    pub fn to_csv(&self) -> String {
        let mut out = self.xlabel.clone();
        for s in &self.series {
            out.push_str(&format!(",{s}"));
        }
        out.push('\n');
        for (x, vals) in &self.rows {
            out.push_str(&x.to_string());
            for v in vals {
                if v.is_finite() {
                    out.push_str(&format!(",{v:.6}"));
                } else {
                    out.push(',');
                }
            }
            out.push('\n');
        }
        out
    }

    /// Write `results/<name>.csv`, panicking with the path on failure:
    /// the golden check byte-diffs these files, so a write that fails
    /// quietly would leave the previous run's file to pass in its place.
    /// Host-time tables pass `host/<name>`, a directory the check ignores.
    pub fn write_csv(&self, name: &str) {
        let path = format!("results/{name}.csv");
        write_artifact(&path, self.to_csv());
        eprintln!("wrote {path}");
    }
}

/// Run the async `op` on `p` ranks `reps` times and report the mean over
/// reps of the per-rep makespan (max over ranks of virtual elapsed time).
/// The closure receives `(env, rep_index)` and must return its elapsed
/// virtual time. Each rank is a future body on the epoch scheduler (every
/// figure passes `SimConfig::cooperative()`): a few hundred bytes
/// and no OS thread per rank, which is what lets the sweeps reach 2^15
/// ranks and `largep` 2^20, and the output is the same bytes for every
/// worker count. Every figure kernel enters here; there is no synchronous
/// twin (a synchronous body would cost an OS thread per rank).
pub fn measure_async<F, Fut>(p: usize, cfg: SimConfig, reps: usize, op: F) -> Time
where
    F: Fn(mpisim::ProcEnv, usize) -> Fut + Send + Sync,
    Fut: std::future::Future<Output = Time> + Send,
{
    let res = mpisim::Universe::run_poll(p, cfg, |env| {
        let op = &op;
        async move {
            let mut times = Vec::with_capacity(reps);
            for rep in 0..reps {
                times.push(op(env.clone(), rep).await);
            }
            times
        }
    });
    makespan_mean(&res.per_rank, reps)
}

/// Per rep: max over ranks; then mean over reps.
fn makespan_mean(per_rank: &[Vec<Time>], reps: usize) -> Time {
    let mut total = 0u64;
    for rep in 0..reps {
        let max = per_rank
            .iter()
            .map(|ts| ts[rep].as_nanos())
            .max()
            .unwrap_or(0);
        total += max;
    }
    Time(total / reps as u64)
}

/// Write a results artefact: create the parent directory first, then panic
/// with the offending *path* on failure. A bare `fs::write(...).unwrap()`
/// dies with an anonymous `NotFound` that names neither the file nor the
/// missing directory — useless when a figure binary runs from an
/// unexpected working directory.
pub fn write_artifact(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) {
    let path = path.as_ref();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = fs::create_dir_all(dir) {
            panic!(
                "cannot create directory {} for artifact {}: {e}",
                dir.display(),
                path.display()
            );
        }
    }
    if let Err(e) = fs::write(path, contents) {
        panic!("cannot write artifact {}: {e}", path.display());
    }
}

/// Convert to the milliseconds the tables report.
pub fn ms(t: Time) -> f64 {
    t.as_millis_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::Transport;

    #[test]
    fn sweep_shapes() {
        std::env::remove_var("BENCH_QUICK");
        assert_eq!(pow2_sweep(0, 3), vec![1, 2, 4, 8]);
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("t", "x", &["a", "b"]);
        t.push(1, vec![0.5, 1.5]);
        t.push(2, vec![0.25, 2.5]);
        assert_eq!(t.rows.len(), 2);
        t.print(); // smoke
    }

    #[test]
    fn non_finite_cells_serialise_as_empty() {
        let mut t = Table::new("t", "x", &["a", "b"]);
        t.push(1, vec![0.5, f64::NAN]);
        let csv = t.to_csv();
        assert!(csv.lines().any(|l| l == "1,0.500000,"), "{csv}");
        assert!(!csv.contains("NaN"), "{csv}");
    }

    #[test]
    fn write_artifact_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("rbc_bench_artifact_test");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested/deep/file.csv");
        write_artifact(&path, "x,y\n");
        assert_eq!(fs::read_to_string(&path).unwrap(), "x,y\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn measure_async_is_the_same_on_every_worker_count() {
        let on = |cfg: SimConfig| {
            measure_async(4, cfg.with_seed(9), 2, |env, _| async move {
                env.world.barrier_async().await.unwrap();
                env.now()
            })
        };
        let one = on(SimConfig::cooperative());
        assert!(one > Time::ZERO);
        assert_eq!(one, on(SimConfig::cooperative().with_workers(4)));
    }

    #[test]
    fn measure_async_reports_makespan_mean() {
        let t = measure_async(3, SimConfig::default(), 2, |env, rep| async move {
            let dt = Time::from_millis((env.rank() as u64 + 1) * (rep as u64 + 1));
            env.state().charge(dt);
            dt
        });
        // Rep 0 makespan 3ms, rep 1 makespan 6ms -> mean 4.5ms.
        assert_eq!(t, Time::from_micros(4500));
    }
}
