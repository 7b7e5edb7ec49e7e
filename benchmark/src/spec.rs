//! The metric catalogue: every end-to-end and per-layer metric by name,
//! with its unit, direction and (end-to-end only) regression bound. The
//! root `BENCHMARK.json` repeats this list for the driver; a unit test
//! keeps the two in step.

/// An end-to-end metric: something a user of the simulator would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// the change counts as a regression. Set from measurement; see
    /// `benchmark/README.md` ("How the bounds were set").
    pub bound: f64,
}

/// All end-to-end metrics are lower-is-better.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "host_ns_per_msg",
        unit: "ns",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_bytes_per_rank",
        unit: "B",
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_bytes_per_rank",
        unit: "B",
        bound: 0.10,
    },
];

/// A per-layer metric. `moves` names the end-to-end metric and workload an
/// optimisation of that layer should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        moves,
    }
}

const LATENCY: &str = "host_ns_per_msg on jquick_latency_poll";
const STORM: &str =
    "sched.storm_w1_ns_per_msg first (no bound); host_ns_per_msg on jquick_latency_poll second";
const BULK: &str = "wall_s on jquick_bulk";
const CREATE: &str = "wall_s on comm_create";
const NBC: &str = "wall_s, host_ns_per_msg on nbc_overlap";
const MODEL: &str = "none: a host-only change must leave it identical";

pub const PER_LAYER: &[PerLayer] = &[
    // The reproduction's own result and the counts that define "same
    // behaviour". Exact for a given seed.
    lower("model.virtual_us", "us", MODEL),
    lower("model.messages", "count", MODEL),
    lower("model.bytes", "B", MODEL),
    // mpisim::universe
    lower(
        "universe.setup_ns_per_rank.poll",
        "ns",
        "setup_s, wall_s on the poll rows",
    ),
    lower(
        "universe.setup_ns_per_rank.fiber",
        "ns",
        "variant.jquick_latency.fiber_ns_per_msg",
    ),
    lower(
        "universe.idle_heap_bytes_per_rank.poll",
        "B",
        "peak_heap_bytes_per_rank on the poll rows",
    ),
    lower(
        "universe.idle_heap_bytes_per_rank.fiber",
        "B",
        "none end to end: the fiber backend's memory per idle rank",
    ),
    // mpisim::sched, driven from outside
    lower("sched.rank_epoch_ns.poll", "ns", LATENCY),
    lower(
        "sched.rank_epoch_ns.fiber",
        "ns",
        "variant.jquick_latency.fiber_ns_per_msg",
    ),
    lower(
        "sched.storm_w1_ns_per_msg",
        "ns",
        "none end to end: the storm on one worker (inline commit, mailbox matching)",
    ),
    lower(
        "sched.storm_w2_ns_per_msg",
        "ns",
        "none end to end: the storm on two workers (sharded commit, merge round)",
    ),
    lower("sched.pingpong_ns", "ns", LATENCY),
    // mpisim::sched, the workload's own profile
    lower("sched.run_ns", "ns", LATENCY),
    lower("sched.commit_ns", "ns", STORM),
    lower("sched.merge_ns", "ns", STORM),
    lower("sched.idle_ns", "ns", "speedup.w2_over_w1"),
    lower("sched.tasks", "count", MODEL),
    lower(
        "sched.shards",
        "count",
        "host-side split of the commit; may change with sched",
    ),
    lower(
        "sched.merge_runs",
        "count",
        "host-side split of the merge; may change with sched",
    ),
    lower("sched.epochs", "count", MODEL),
    lower("sched.wakeups", "count", MODEL),
    lower("sched.switches", "count", MODEL),
    lower(
        "sched.unattributed_share",
        "ratio",
        "none: the part of workers x wall the profile does not explain",
    ),
    // mpisim::mailbox
    lower("mailbox.push_claim_exact_ns", "ns", LATENCY),
    lower("mailbox.wildcard_claim_32_ns", "ns", STORM),
    lower("mailbox.push_batch_ns_per_msg", "ns", STORM),
    lower("mailbox.scans", "count", MODEL),
    // mpisim::pool / mpisim::msg
    lower("pool.take_recycle_ns.16", "ns", STORM),
    lower("pool.take_recycle_ns.1024", "ns", LATENCY),
    lower("pool.take_recycle_ns.65536", "ns", BULK),
    lower("pool.fresh_alloc_ns.16", "ns", STORM),
    lower("pool.fresh_alloc_ns.1024", "ns", LATENCY),
    lower("pool.fresh_alloc_ns.65536", "ns", BULK),
    lower("msg.new_take_ns.8B", "ns", STORM),
    lower("msg.new_take_ns.64KiB", "ns", BULK),
    PerLayer {
        name: "pool.payload_hits",
        unit: "count",
        higher_is_better: true,
        moves: "wall_s on jquick_bulk",
    },
    lower(
        "pool.payload_misses",
        "count",
        "peak_heap_bytes_per_rank everywhere",
    ),
    lower(
        "pool.payload_overflow",
        "count",
        "peak_heap_bytes_per_rank everywhere",
    ),
    PerLayer {
        name: "pool.payload_hit_ratio",
        unit: "ratio",
        higher_is_better: true,
        moves: "wall_s on jquick_bulk",
    },
    // mpisim::coll / rbc::coll
    lower("coll.barrier_ns_per_rank_op", "ns", "wall_s on comm_create"),
    lower(
        "coll.allreduce_ns_per_rank_op",
        "ns",
        "wall_s on comm_create, jquick_latency_poll",
    ),
    lower(
        "rbc.coll.barrier_ns_per_rank_op",
        "ns",
        "wall_s on comm_create, jquick_latency_poll",
    ),
    // mpisim::nbcoll / rbc::nbc
    lower("nbcoll.ibcast_ns_per_rank_op", "ns", NBC),
    lower("nbcoll.ireduce_ns_per_rank_op", "ns", NBC),
    lower("nbcoll.iscan_ns_per_rank_op", "ns", NBC),
    lower("rbc.nbc.iscan_ns_per_rank_op", "ns", NBC),
    lower("nbcoll.polls_per_completion", "ratio", NBC),
    // mpisim::comm (+ splitdist, context, group) / rbc::comm
    lower("comm.create_group_s", "s", CREATE),
    lower("comm.native_split_s", "s", CREATE),
    lower("rbc.comm.split_chain_s", "s", CREATE),
    lower("rbc.comm.split_ns", "ns", CREATE),
    lower("group.subrange_ns", "ns", CREATE),
    lower("context.mask_agree_ns", "ns", CREATE),
    // jquick
    lower("jquick.partition_ns_per_elem", "ns", BULK),
    lower("jquick.pivot.sample_median_256_ns", "ns", BULK),
    lower("jquick.assign.greedy_ns", "ns", BULK),
    lower("jquick.exchange.encode_ns_per_elem", "ns", BULK),
    lower("jquick.exchange.decode_ns_per_elem", "ns", BULK),
    lower("jquick.layout.owner_ns", "ns", BULK),
    lower("jquick.max_level", "count", MODEL),
    lower("jquick.stuck_retries", "count", MODEL),
    lower("jquick.base_1", "count", MODEL),
    lower("jquick.base_2", "count", MODEL),
    lower("jquick.imbalance", "ratio", "none: must read exactly 1"),
    // mpisim::obs
    lower(
        "obs.trace_events",
        "count",
        "none: deterministic size of the event trace",
    ),
    lower(
        "obs.trace_overhead_ratio",
        "ratio",
        "none: traced wall over untraced wall",
    ),
    // The variants the one-worker poll workloads leave out, each ratio
    // with its base beside it. Uncalibrated; diagnostics.
    lower("variant.jquick_latency.poll_ns_per_msg", "ns", LATENCY),
    lower(
        "variant.jquick_latency.fiber_ns_per_msg",
        "ns",
        "ratio.fiber_over_poll",
    ),
    lower(
        "variant.jquick_latency.w2_ns_per_msg",
        "ns",
        "speedup.w2_over_w1",
    ),
    lower(
        "ratio.fiber_over_poll",
        "ratio",
        "none: fiber over poll ns per message of jquick_latency",
    ),
    PerLayer {
        name: "speedup.w2_over_w1",
        unit: "ratio",
        higher_is_better: true,
        moves: "none: one-worker over two-worker ns per message of jquick_latency",
    },
    PerLayer {
        name: "speedup.storm_w2_over_w1",
        unit: "ratio",
        higher_is_better: true,
        moves: "none: one-worker over two-worker ns per message of p2p_storm",
    },
    // The host itself, beside the traced run's untraced repetitions.
    lower(
        "calib.raw_wall_s",
        "s",
        "none: uncalibrated wall of an untraced repetition",
    ),
    lower(
        "calib.slowdown",
        "ratio",
        "none: the calibration kernel's time over nominal; 1 on a quiet host",
    ),
];

/// Whether `name` is a legal metric or workload name: 1 to 64 characters
/// of `[A-Za-z0-9_.-]`, the first a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// The bound of an end-to-end metric.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound)
}

/// What a per-layer metric should move.
pub fn moves_of(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|m| m.name == name).map(|m| m.moves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn name_validation() {
        for ok in [
            "wall_s",
            "pool.take_recycle_ns.16",
            "msg.new_take_ns.8B",
            "a-b",
            "8x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-x",
            "_x",
            "has space",
            "slash/y",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn catalogue_names_are_legal_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(valid_name(n), "{n}");
            assert!(!names[..i].contains(n), "{n} listed twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert_eq!(END_TO_END[0].name, "setup_s");
        // setup_s carries the largest bound.
        assert!(END_TO_END.iter().all(|m| m.bound <= END_TO_END[0].bound));
    }

    /// `BENCHMARK.json` at the repository root must list exactly this
    /// catalogue and the workloads of `workloads::all`.
    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Value::Obj(members) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();

        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    "lower".to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect();
        assert_eq!(layers, want);

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<_> = crate::workloads::all(false)
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, want);

        assert_eq!(doc.get("paths").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::RUN_SECONDS as f64)
        );
    }
}
