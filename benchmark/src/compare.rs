//! `compare A.json B.json`: apply the bounds to two sets of runs.
//!
//! One row per workload and end-to-end metric, with both medians, both
//! quartile pairs, the relative change of B against A and a verdict. All
//! end-to-end metrics are lower-is-better, so a positive change is worse.

use crate::json::{self, Value};
use crate::run::sig;
use crate::spec::END_TO_END;
use crate::stats::{iqr_share, quartiles};

/// What the bound says about one workload x metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's own spread is wider than the bound and the two sides'
    /// runs overlap: the bound cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B's samples against A's under `bound` (lower is better).
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let (ma, mb) = (quartiles(a).1, quartiles(b).1);
    let change = (mb - ma) / ma.abs();
    if change > bound {
        return Verdict::Worse;
    }
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let b_beats_a = max(b) < min(a);
    let a_beats_b = max(a) < min(b);
    let wide = iqr_share(a) > bound || iqr_share(b) > bound;
    if wide && !b_beats_a && !a_beats_b {
        return Verdict::Unresolved;
    }
    if change < -bound || (wide && b_beats_a) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("perf-ledger/1") {
        return Err(format!("{path}: not a perf-ledger result file"));
    }
    if doc.get("mode").and_then(Value::as_str) != Some("run") {
        return Err(format!("{path}: not the result of `run`"));
    }
    Ok(doc)
}

fn workloads_of(doc: &Value) -> &[Value] {
    doc.get("workloads").and_then(Value::as_arr).unwrap_or(&[])
}

fn samples(record: &Value, metric: &str) -> Vec<f64> {
    record
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("samples"))
        .map(Value::as_nums)
        .unwrap_or_default()
}

fn failure_share(record: &Value) -> f64 {
    let n = |k| record.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    n("ops_failed") / n("ops_attempted").max(1.0)
}

/// Compare two result files; returns the process exit code (non-zero on
/// any `worse`, a higher failure share, or changed model counts).
pub fn compare(path_a: &str, path_b: &str) -> u8 {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    for (side, doc) in [("A", &a), ("B", &b)] {
        if doc.get("comparable").and_then(Value::as_bool) != Some(true) {
            println!("note: {side} is a smoke run; its numbers are not comparable");
        }
    }
    let same_seed = a.get("seed") == b.get("seed");
    if !same_seed {
        println!("note: seeds differ, so model counts are not compared");
    }

    println!(
        "{:<24} {:<26} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "change"
    );
    let mut bad = false;
    for ra in workloads_of(&a) {
        let name = ra.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(rb) = workloads_of(&b)
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some(name))
        else {
            println!("{name:<24} missing from B");
            bad = true;
            continue;
        };
        for m in END_TO_END {
            let (sa, sb) = (samples(ra, m.name), samples(rb, m.name));
            if sa.is_empty() || sb.is_empty() {
                println!("{name:<24} {:<26} no samples on one side", m.name);
                bad = true;
                continue;
            }
            let (qa, qb) = (quartiles(&sa), quartiles(&sb));
            let v = verdict(&sa, &sb, m.bound);
            bad |= v == Verdict::Worse;
            println!(
                "{name:<24} {:<26} {:>12} {:>25} {:>12} {:>25} {:>+7.1}%  {}",
                m.name,
                sig(qa.1),
                format!("{}..{}", sig(qa.0), sig(qa.2)),
                sig(qb.1),
                format!("{}..{}", sig(qb.0), sig(qb.2)),
                100.0 * (qb.1 - qa.1) / qa.1.abs(),
                v.name()
            );
        }
        if same_seed {
            let identical = ra.get("counts") == rb.get("counts");
            println!(
                "{name:<24} {:<26} {}",
                "model counts",
                if identical {
                    "identical (virtual_ms, messages, bytes, epochs, wakeups, switches, scans)"
                } else {
                    "CHANGED: a model change, to be argued as one"
                }
            );
            bad |= !identical;
        }
        let (fa, fb) = (failure_share(ra), failure_share(rb));
        if fb > fa {
            println!("{name:<24} ops_failed / ops_attempted rose from {fa} to {fb}");
            bad = true;
        }
    }
    u8::from(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01];
        let shift = |d: f64| a.map(|x| x + d);
        assert_eq!(verdict(&a, &shift(0.02), 0.10), Verdict::Same);
        assert_eq!(verdict(&a, &shift(0.20), 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &shift(-0.20), 0.10), Verdict::Better);
        // A noisy side whose runs overlap the other's cannot be judged...
        let noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25];
        assert_eq!(verdict(&a, &noisy, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &a, 0.10), Verdict::Unresolved);
        // ...unless every run of one side beats every run of the other.
        let noisy_but_faster = noisy.map(|x| x * 0.5);
        assert_eq!(verdict(&a, &noisy_but_faster, 0.10), Verdict::Better);
        // Beyond the bound is worse however noisy.
        assert_eq!(verdict(&a, &noisy.map(|x| x * 3.0), 0.10), Verdict::Worse);
        // Single samples (the memory metrics) fall back to the plain bound.
        assert_eq!(verdict(&[100.0], &[102.0], 0.03), Verdict::Same);
        assert_eq!(verdict(&[100.0], &[104.0], 0.03), Verdict::Worse);
    }
}
