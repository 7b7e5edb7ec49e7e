//! Per-collective communication-volume figure (`tracevol`).
//!
//! Runs each blocking collective in isolation on the epoch scheduler
//! and reports the deterministic per-class counters from
//! [`mpisim::MetricsSnapshot`]: total messages, the maximum number of
//! messages any single rank sends, and total payload bytes. Every value is
//! a **pure function of `(program, p)`**, so the three CSVs are golden
//! files (`results/golden/`).
//!
//! The figure also *checks* the paper's volume bounds in-process (§V-D:
//! the collectives are binomial-tree / dissemination shaped):
//!
//! * binomial bcast / reduce move exactly `p − 1` messages, gatherv
//!   `2(p − 1)` (metadata + payload per tree edge);
//! * the dissemination barrier moves exactly `p · ⌈log₂ p⌉`;
//! * Hillis–Steele scan moves `Σ_{d=2^k < p} (p − d)`;
//! * **no rank sends more than `⌈log₂ p⌉` messages per tree collective**
//!   (`2⌈log₂ p⌉` for the two-message-per-edge gatherv framing) — the
//!   O(log p) per-rank bound that keeps every collective latency
//!   logarithmic.
//!
//! A violated bound panics the figure run: a wrong count here means a
//! collective's communication structure changed, which no timing table
//! would catch as crisply.

use mpisim::{OpClass, ProcEnv, SimConfig, Transport, Universe};

use crate::{pow2_sweep, Table};

/// `⌈log₂ p⌉` (0 for p = 1).
fn ceil_log2(p: u64) -> u64 {
    64 - (p.max(1) - 1).leading_zeros() as u64
}

/// One collective under measurement: which [`OpClass`] it is (and its
/// volume lands in) and its exact expected message totals.
struct CollOp {
    name: &'static str,
    class: OpClass,
    /// Exact total messages the collective moves at `p` ranks.
    expected_total: fn(u64) -> u64,
    /// Upper bound on messages sent by any single rank at `p` ranks.
    max_rank_bound: fn(u64) -> u64,
}

fn ops() -> Vec<CollOp> {
    vec![
        CollOp {
            name: "bcast",
            class: OpClass::Bcast,
            expected_total: |p| p - 1,
            max_rank_bound: ceil_log2,
        },
        CollOp {
            name: "reduce",
            class: OpClass::Reduce,
            expected_total: |p| p - 1,
            // Every non-root sends exactly one partial to its parent.
            max_rank_bound: |_| 1,
        },
        CollOp {
            name: "scan",
            class: OpClass::Scan,
            expected_total: |p| {
                let mut total = 0;
                let mut d = 1;
                while d < p {
                    total += p - d; // ranks r with r + d < p send in round d
                    d <<= 1;
                }
                total
            },
            max_rank_bound: ceil_log2,
        },
        CollOp {
            name: "gatherv",
            class: OpClass::Gather,
            // Two messages per tree edge: metadata then payload.
            expected_total: |p| 2 * (p - 1),
            max_rank_bound: |_| 2,
        },
        CollOp {
            name: "barrier",
            class: OpClass::Barrier,
            expected_total: |p| p * ceil_log2(p),
            max_rank_bound: ceil_log2,
        },
    ]
}

/// Run the blocking collective of `class` once on this rank.
async fn run_collective(class: OpClass, env: ProcEnv) {
    let (w, me) = (&env.world, env.rank() as u64);
    match class {
        OpClass::Bcast => w.bcast_async(&mut vec![me], 0).await.unwrap(),
        OpClass::Reduce => drop(w.reduce_async(&[1u64], 0, |a, b| a + b).await.unwrap()),
        OpClass::Scan => drop(w.scan_async(&[1u64], |a, b| a + b).await.unwrap()),
        OpClass::Gather => drop(w.gatherv_async(vec![me], 0).await.unwrap()),
        OpClass::Barrier => w.barrier_async().await.unwrap(),
        other => unreachable!("tracevol does not measure {other:?}"),
    }
}

/// Measured volume of one collective at `p` ranks:
/// `(total msgs, max msgs by any rank, total bytes)`.
fn volumes(p: usize, class: OpClass) -> (u64, u64, u64) {
    let res = Universe::run_poll(p, SimConfig::cooperative(), move |env| {
        run_collective(class, env)
    });
    let c = class as usize;
    (
        res.metrics.class_msgs[c],
        res.metrics.class_max_rank_msgs[c],
        res.metrics.class_bytes[c],
    )
}

/// Regenerate the volume tables, checking the exact totals and the
/// O(log p) per-rank bounds on the way.
pub fn run() -> Vec<Table> {
    let ops = ops();
    let names: Vec<&str> = ops.iter().map(|o| o.name).collect();
    let mut total = Table::with_unit(
        "Trace volumes — total messages per collective (deterministic)",
        "p",
        &names,
        "count",
    );
    let mut max_rank = Table::with_unit(
        "Trace volumes — max messages sent by any one rank (O(log p) bound)",
        "p",
        &names,
        "count",
    );
    let mut bytes = Table::with_unit(
        "Trace volumes — total payload bytes per collective",
        "p",
        &names,
        "count",
    );
    for p in pow2_sweep(6, 12) {
        let mut row_total = Vec::new();
        let mut row_max = Vec::new();
        let mut row_bytes = Vec::new();
        for op in &ops {
            let (msgs, per_rank, by) = volumes(p as usize, op.class);
            let want = (op.expected_total)(p);
            assert_eq!(
                msgs, want,
                "{} at p={p}: measured {msgs} total messages, model predicts {want}",
                op.name
            );
            let bound = (op.max_rank_bound)(p);
            assert!(
                per_rank <= bound,
                "{} at p={p}: a rank sent {per_rank} messages, O(log p) bound is {bound}",
                op.name
            );
            row_total.push(msgs as f64);
            row_max.push(per_rank as f64);
            row_bytes.push(by as f64);
        }
        total.push(p, row_total);
        max_rank.push(p, row_max);
        bytes.push(p, row_bytes);
        eprintln!("tracevol: finished p = {p} (all volume bounds hold)");
    }
    total.print();
    total.write_csv("tracevol_msgs");
    max_rank.print();
    max_rank.write_csv("tracevol_max_rank");
    bytes.print();
    bytes.write_csv("tracevol_bytes");
    vec![total, max_rank, bytes]
}
