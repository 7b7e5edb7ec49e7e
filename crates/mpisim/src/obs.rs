//! Deterministic observability: virtual-time event traces, exact-equality
//! model metrics, and the (explicitly non-deterministic) wall-clock
//! scheduler profile.
//!
//! Three layers with sharply different determinism contracts (DESIGN.md §9):
//!
//! * **Event trace** ([`Trace`], opt-in via
//!   [`SimConfig::trace`](crate::SimConfig)): every rank appends structured
//!   [`TraceEvent`]s — op spans, send/deliver edges, phase markers, fault
//!   injections, blame emissions — to its **own** per-rank buffer, stamped
//!   with its virtual clock. Because each rank's body runs serially with
//!   bit-identical inputs for every worker count (DESIGN.md §5/§7), each
//!   per-rank stream is worker-invariant; the global trace merges them in
//!   `(time, rank, seq)` order, so the merged trace is a pure function of
//!   `(program, seed, fault seed)` and **byte-identical** across
//!   `coop_workers`. Appending never touches a
//!   clock, an RNG, or a counter the model reads: observer effect = 0.
//! * **Model metrics** ([`MetricsSnapshot`], always on): message/byte
//!   totals, per-[`OpClass`] volumes, mailbox scan work, epochs, wake-ups,
//!   context switches. All are pure functions of the program, so CI gates
//!   them at **exact equality** — a changed message count is a model
//!   change, not noise.
//! * **Scheduler profile** ([`SchedProfile`], opt-in via
//!   [`SimConfig::sched_profile`](crate::SimConfig)): per-worker run /
//!   commit / idle wall-clock phase timings and claim counts. Host
//!   wall-clock is *deliberately outside* the deterministic domain — it
//!   exists to attribute multicore speedup, never to be diffed.

use parking_lot::Mutex;

use crate::proc::ProcState;
use crate::time::Time;

// ---------------------------------------------------------------------------
// Operation classes
// ---------------------------------------------------------------------------

/// The collective class an operation's traffic is attributed to. Mirrors
/// the [`CollScales`](crate::model::CollScales) cost buckets so measured
/// volumes line up with the cost model's per-collective scaling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpClass {
    /// Point-to-point traffic outside any collective span.
    P2p = 0,
    /// Broadcast (binomial tree).
    Bcast = 1,
    /// Reduce / allreduce reduction phases.
    Reduce = 2,
    /// Scan / exclusive scan.
    Scan = 3,
    /// Gather family (gather, gatherv, allgather).
    Gather = 4,
    /// Dissemination barrier.
    Barrier = 5,
    /// Everything else (alltoall, scatter, ...).
    Other = 6,
}

impl OpClass {
    /// Number of classes (array dimension for per-class counters).
    pub const COUNT: usize = 7;

    /// All classes, in `repr` order.
    pub const ALL: [OpClass; OpClass::COUNT] = [
        OpClass::P2p,
        OpClass::Bcast,
        OpClass::Reduce,
        OpClass::Scan,
        OpClass::Gather,
        OpClass::Barrier,
        OpClass::Other,
    ];

    /// Stable lower-case name (used by trace text and metric tables).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::P2p => "p2p",
            OpClass::Bcast => "bcast",
            OpClass::Reduce => "reduce",
            OpClass::Scan => "scan",
            OpClass::Gather => "gather",
            OpClass::Barrier => "barrier",
            OpClass::Other => "other",
        }
    }

    /// Inverse of the `repr(u8)` cast (out-of-range folds to `Other`).
    pub fn from_u8(v: u8) -> OpClass {
        *OpClass::ALL.get(v as usize).unwrap_or(&OpClass::Other)
    }
}

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// One structured trace event, stamped (by the emitting rank) with that
/// rank's virtual clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An operation span opened (collective entry, driver phase, ...).
    Begin {
        /// Traffic class the span attributes sends to.
        class: OpClass,
        /// Human-readable span name (shown on the Chrome-trace track).
        label: &'static str,
    },
    /// The matching span closed.
    End {
        /// Class of the span being closed.
        class: OpClass,
    },
    /// A message was priced and staged for sending.
    Send {
        /// Destination global rank.
        dest: usize,
        /// Payload bytes.
        bytes: usize,
        /// Class the volume was attributed to (innermost open span).
        class: OpClass,
        /// Modeled arrival time at the destination.
        arrival: Time,
    },
    /// A message was matched and consumed by this rank.
    Deliver {
        /// Source global rank.
        src: usize,
        /// Payload bytes.
        bytes: usize,
    },
    /// A free-form phase marker (e.g. a JQuick level boundary).
    Mark {
        /// Marker text.
        label: String,
    },
    /// Fault injection inflated this rank's outgoing transfer.
    FaultJitter {
        /// Injected extra latency in nanoseconds.
        ns: u64,
    },
    /// A send was dropped because this rank has crash-stopped.
    FaultDrop {
        /// Destination the dropped message was addressed to.
        dest: usize,
    },
    /// A [`RoundBlame`](crate::RoundBlame) was attached to a timeout.
    Blame {
        /// The rendered blame text.
        text: String,
    },
}

/// One merged trace record: `(t, rank, seq)` is the total order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual timestamp (emitting rank's clock).
    pub t: Time,
    /// Emitting global rank.
    pub rank: usize,
    /// Position in the rank's own stream (ties within `(t, rank)`).
    pub seq: u32,
    /// The event.
    pub ev: TraceEvent,
}

/// Per-rank trace buffer, cache-line aligned like the router's per-rank
/// clock and counter cells. Only the owning rank's body ever appends, so
/// the mutex is uncontended; it exists because future bodies migrate
/// across workers.
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct TraceCell(Mutex<Vec<(Time, TraceEvent)>>);

impl TraceCell {
    #[inline]
    pub(crate) fn push(&self, t: Time, ev: TraceEvent) {
        self.0.lock().push((t, ev));
    }
}

/// The merged, deterministic event trace of a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// All events in global `(t, rank, seq)` order.
    pub events: Vec<TraceRecord>,
}

impl Trace {
    /// Merge per-rank buffers into the global order. Each rank's stream is
    /// already in emission order; a stable sort on `(t, rank)` therefore
    /// realises the `(t, rank, seq)` total order.
    pub(crate) fn collect(cells: &[TraceCell]) -> Trace {
        let mut events = Vec::new();
        for (rank, cell) in cells.iter().enumerate() {
            let buf = cell.0.lock();
            for (seq, (t, ev)) in buf.iter().enumerate() {
                events.push(TraceRecord {
                    t: *t,
                    rank,
                    seq: seq as u32,
                    ev: ev.clone(),
                });
            }
        }
        events.sort_by_key(|a| (a.t, a.rank, a.seq));
        Trace { events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Canonical text rendering: one line per event, integer-nanosecond
    /// timestamps, no floats. This is the representation CI byte-diffs
    /// across worker counts.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in &self.events {
            out.push_str(&format!("{} r{} #{} ", r.t.as_nanos(), r.rank, r.seq));
            match &r.ev {
                TraceEvent::Begin { class, label } => {
                    out.push_str(&format!("begin {} {label}", class.name()));
                }
                TraceEvent::End { class } => out.push_str(&format!("end {}", class.name())),
                TraceEvent::Send {
                    dest,
                    bytes,
                    class,
                    arrival,
                } => out.push_str(&format!(
                    "send -> {dest} {bytes}B {} arrive={}",
                    class.name(),
                    arrival.as_nanos()
                )),
                TraceEvent::Deliver { src, bytes } => {
                    out.push_str(&format!("deliver <- {src} {bytes}B"));
                }
                TraceEvent::Mark { label } => out.push_str(&format!("mark {label}")),
                TraceEvent::FaultJitter { ns } => out.push_str(&format!("fault-jitter +{ns}ns")),
                TraceEvent::FaultDrop { dest } => out.push_str(&format!("fault-drop -> {dest}")),
                TraceEvent::Blame { text } => out.push_str(&format!("blame {text}")),
            }
            out.push('\n');
        }
        out
    }

    /// Export as Chrome `trace_event` JSON (the array-of-events form with
    /// a `traceEvents` wrapper), openable in Perfetto / `chrome://tracing`.
    /// One track (`tid`) per rank, timestamps in virtual microseconds.
    pub fn to_chrome_json(&self) -> String {
        let ts = |t: Time| format!("{:.3}", t.as_nanos() as f64 / 1e3);
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut emit = |s: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&s);
        };
        let mut ranks: Vec<usize> = self.events.iter().map(|r| r.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        for r in ranks {
            emit(
                format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{r},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"rank {r}\"}}}}"
                ),
                &mut first,
            );
        }
        for rec in &self.events {
            let (rank, t) = (rec.rank, rec.t);
            let ev = match &rec.ev {
                TraceEvent::Begin { class, label } => format!(
                    "{{\"ph\":\"B\",\"pid\":0,\"tid\":{rank},\"ts\":{},\"name\":{},\
                     \"cat\":\"{}\"}}",
                    ts(t),
                    json_str(label),
                    class.name()
                ),
                TraceEvent::End { class } => format!(
                    "{{\"ph\":\"E\",\"pid\":0,\"tid\":{rank},\"ts\":{},\"cat\":\"{}\"}}",
                    ts(t),
                    class.name()
                ),
                TraceEvent::Send {
                    dest,
                    bytes,
                    class,
                    arrival,
                } => format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{rank},\"ts\":{},\
                     \"name\":\"send->{dest}\",\"cat\":\"{}\",\
                     \"args\":{{\"bytes\":{bytes},\"arrival_us\":{}}}}}",
                    ts(t),
                    class.name(),
                    ts(*arrival)
                ),
                TraceEvent::Deliver { src, bytes } => format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{rank},\"ts\":{},\
                     \"name\":\"deliver<-{src}\",\"cat\":\"deliver\",\
                     \"args\":{{\"bytes\":{bytes}}}}}",
                    ts(t)
                ),
                TraceEvent::Mark { label } => format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{rank},\"ts\":{},\
                     \"name\":{},\"cat\":\"mark\"}}",
                    ts(t),
                    json_str(label)
                ),
                TraceEvent::FaultJitter { ns } => format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{rank},\"ts\":{},\
                     \"name\":\"fault-jitter\",\"cat\":\"fault\",\"args\":{{\"ns\":{ns}}}}}",
                    ts(t)
                ),
                TraceEvent::FaultDrop { dest } => format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{rank},\"ts\":{},\
                     \"name\":\"fault-drop->{dest}\",\"cat\":\"fault\"}}",
                    ts(t)
                ),
                TraceEvent::Blame { text } => format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{rank},\"ts\":{},\
                     \"name\":\"blame\",\"cat\":\"fault\",\"args\":{{\"text\":{}}}}}",
                    ts(t),
                    json_str(text)
                ),
            };
            emit(ev, &mut first);
        }
        out.push_str("]}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// enough for span labels, marker text, and blame lines.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Span guards
// ---------------------------------------------------------------------------

/// RAII guard opened by [`span`]: restores the previous operation class on
/// drop and closes the trace span. Lives in the rank's own body (its
/// future state or its stack), **not** in a thread-local, because a future
/// body suspends mid-collective and is polled again on a different worker
/// thread.
pub struct SpanGuard<'a> {
    state: &'a ProcState,
    prev: u8,
    class: OpClass,
    traced: bool,
}

impl Drop for SpanGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.traced {
            self.state
                .trace_push(|| TraceEvent::End { class: self.class });
        }
        self.state.set_op_class_raw(self.prev);
    }
}

/// Open a traced operation span: sends priced while the guard lives are
/// attributed to `class` (innermost span wins for nested collectives —
/// allreduce's internal bcast counts as bcast), and `Begin`/`End` events
/// bracket it in the trace.
///
/// Inside the poll of a nonblocking request (`nbcoll`) the span only sets
/// the class: such a core is polled many times and suspends across polls
/// with its span open, so it could neither nest its `Begin`/`End` nor
/// afford one per poll. The request restores the class on the next poll.
#[inline]
pub fn span<'a>(state: &'a ProcState, class: OpClass, label: &'static str) -> SpanGuard<'a> {
    let prev = state.set_op_class_raw(class as u8);
    let traced = !crate::sched::in_try_mode();
    if traced {
        state.trace_push(|| TraceEvent::Begin { class, label });
    }
    SpanGuard {
        state,
        prev,
        class,
        traced,
    }
}

/// RAII guard opened by [`class_guard`]: class attribution only, no trace
/// events.
pub struct ClassGuard<'a> {
    state: &'a ProcState,
    prev: u8,
}

impl Drop for ClassGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.state.set_op_class_raw(self.prev);
    }
}

/// Attribute sends to `class` while the guard lives, without trace spans.
#[inline]
pub fn class_guard(state: &ProcState, class: OpClass) -> ClassGuard<'_> {
    let prev = state.set_op_class_raw(class as u8);
    ClassGuard { state, prev }
}

/// Emit a free-form phase marker (e.g. a JQuick level boundary) into the
/// trace at the rank's current virtual time. No-op when tracing is off;
/// the label closure only runs when it is.
pub fn mark(state: &ProcState, label: impl FnOnce() -> String) {
    state.trace_push(|| TraceEvent::Mark { label: label() });
}

// ---------------------------------------------------------------------------
// Model metrics (deterministic, exact-gated)
// ---------------------------------------------------------------------------

/// The deterministic model-metric snapshot of a run. Every field is a
/// pure function of `(program, seed, fault seed)` — identical for every
/// worker count — so CI compares these at **exact
/// equality** (the `tracevol` CSVs are golden files, `results/golden/`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Total messages sent (priced; crash-dropped sends not included).
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Messages per [`OpClass`] (indexed by `OpClass as usize`).
    pub class_msgs: [u64; OpClass::COUNT],
    /// Payload bytes per [`OpClass`].
    pub class_bytes: [u64; OpClass::COUNT],
    /// Per class, the maximum over ranks of messages sent in that class —
    /// the quantity the paper's O(log p) per-rank bounds cap.
    pub class_max_rank_msgs: [u64; OpClass::COUNT],
    /// Wait-pattern match checks performed by mailbox deposits.
    pub mailbox_scans: u64,
    /// Scheduler epochs committed.
    pub epochs: u64,
    /// Tasks woken across all epoch commits.
    pub wakeups: u64,
    /// Task steps: one per rank body per round it ran in.
    pub switches: u64,
}

impl MetricsSnapshot {
    /// Render as JSON (hand-rolled; the workspace vendors no serde).
    pub fn to_json(&self) -> String {
        let arr = |a: &[u64; OpClass::COUNT]| {
            let items: Vec<String> = OpClass::ALL
                .iter()
                .map(|c| format!("\"{}\":{}", c.name(), a[*c as usize]))
                .collect();
            format!("{{{}}}", items.join(","))
        };
        format!(
            "{{\"messages\":{},\"bytes\":{},\"class_msgs\":{},\"class_bytes\":{},\
             \"class_max_rank_msgs\":{},\"mailbox_scans\":{},\"epochs\":{},\
             \"wakeups\":{},\"switches\":{}}}",
            self.messages,
            self.bytes,
            arr(&self.class_msgs),
            arr(&self.class_bytes),
            arr(&self.class_max_rank_msgs),
            self.mailbox_scans,
            self.epochs,
            self.wakeups,
            self.switches
        )
    }
}

// ---------------------------------------------------------------------------
// Wall-clock scheduler profile (non-deterministic by design)
// ---------------------------------------------------------------------------

/// One worker's wall-clock phase breakdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Nanoseconds spent stepping rank bodies.
    pub run_ns: u64,
    /// Nanoseconds spent committing epochs on this worker: delivering the
    /// handed-in outboxes and publishing the next round.
    pub commit_ns: u64,
    /// Always 0: the published k-way merge round this timed is gone
    /// (the commit orders nothing, DESIGN.md §7). The
    /// field stays because the perf ledger (`benchmark/`) reads it through
    /// the `pub` surface and is byte-frozen for a PR that changes the
    /// code it measures; a `benchmark`-only PR drops its
    /// `sched.merge_ns` row, after which this field can go.
    pub merge_ns: u64,
    /// Nanoseconds spent parked on the epoch gate.
    pub idle_ns: u64,
    /// Task resumptions this worker claimed.
    pub tasks: u64,
    /// Always 0: the commit is never split into claimable units any
    /// more. Kept for the same reason as `merge_ns` (the ledger's
    /// `sched.shards` row).
    pub shards: u64,
    /// Always 0, and kept for the same reason as `merge_ns` (the
    /// ledger's `sched.merge_runs` row).
    pub merge_runs: u64,
}

/// The wall-clock scheduler profile: host-time phase attribution for the
/// epoch scheduler. **Outside the deterministic domain** — values
/// differ run to run and worker count to worker count; they are emitted to
/// `results/host/BENCH_sched_profile.json`, which no check reads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedProfile {
    /// One entry per worker, indexed by worker id.
    pub workers: Vec<WorkerProfile>,
}

impl SchedProfile {
    /// Render as JSON (hand-rolled; the workspace vendors no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"worker\":{i},\"run_ns\":{},\"commit_ns\":{},\"merge_ns\":{},\
                 \"idle_ns\":{},\"tasks\":{},\"shards\":{},\"merge_runs\":{}}}",
                w.run_ns, w.commit_ns, w.merge_ns, w.idle_ns, w.tasks, w.shards, w.merge_runs
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let cells: Vec<TraceCell> = (0..2).map(|_| TraceCell::default()).collect();
        cells[0].push(
            Time::from_nanos(10),
            TraceEvent::Begin {
                class: OpClass::Bcast,
                label: "bcast",
            },
        );
        cells[0].push(
            Time::from_nanos(10),
            TraceEvent::Send {
                dest: 1,
                bytes: 64,
                class: OpClass::Bcast,
                arrival: Time::from_nanos(1074),
            },
        );
        cells[1].push(
            Time::from_nanos(5),
            TraceEvent::Mark {
                label: "level 0".to_string(),
            },
        );
        cells[0].push(
            Time::from_nanos(20),
            TraceEvent::End {
                class: OpClass::Bcast,
            },
        );
        cells[1].push(
            Time::from_nanos(1074),
            TraceEvent::Deliver { src: 0, bytes: 64 },
        );
        Trace::collect(&cells)
    }

    #[test]
    fn merge_orders_by_time_rank_seq() {
        let tr = sample_trace();
        let keys: Vec<(u64, usize, u32)> = tr
            .events
            .iter()
            .map(|r| (r.t.as_nanos(), r.rank, r.seq))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        // Rank 1's mark at t=5 precedes everything from rank 0 at t=10.
        assert_eq!(tr.events[0].rank, 1);
        assert!(matches!(tr.events[0].ev, TraceEvent::Mark { .. }));
    }

    #[test]
    fn text_rendering_is_stable() {
        let txt = sample_trace().to_text();
        assert_eq!(
            txt,
            "5 r1 #0 mark level 0\n\
             10 r0 #0 begin bcast bcast\n\
             10 r0 #1 send -> 1 64B bcast arrive=1074\n\
             20 r0 #2 end bcast\n\
             1074 r1 #1 deliver <- 0 64B\n"
        );
    }

    #[test]
    fn chrome_export_is_balanced_and_tracked() {
        let js = sample_trace().to_chrome_json();
        assert!(js.starts_with("{\"displayTimeUnit\""), "{js}");
        assert_eq!(js.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(js.matches("\"ph\":\"E\"").count(), 1);
        assert_eq!(js.matches("\"ph\":\"M\"").count(), 2); // one per rank
        assert!(js.contains("\"args\":{\"name\":\"rank 0\"}"), "{js}");
        assert!(
            js.contains("\"ts\":0.010"),
            "t=10ns renders as 0.010us: {js}"
        );
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn op_class_roundtrip() {
        for c in OpClass::ALL {
            assert_eq!(OpClass::from_u8(c as u8), c);
        }
        assert_eq!(OpClass::from_u8(250), OpClass::Other);
    }

    #[test]
    fn snapshot_json_shape() {
        let snap = MetricsSnapshot {
            messages: 3,
            bytes: 96,
            ..Default::default()
        };
        let js = snap.to_json();
        assert!(js.contains("\"messages\":3"), "{js}");
        assert!(js.contains("\"class_msgs\":{\"p2p\":0"), "{js}");
    }

    #[test]
    fn profile_json_shape() {
        let prof = SchedProfile {
            workers: vec![WorkerProfile {
                run_ns: 5,
                commit_ns: 2,
                merge_ns: 7,
                idle_ns: 1,
                tasks: 9,
                shards: 3,
                merge_runs: 6,
            }],
        };
        let js = prof.to_json();
        assert!(js.contains("\"worker\":0"), "{js}");
        assert!(js.starts_with("{\"workers\":[{\"worker\":0,"), "{js}");
        assert!(js.contains("\"merge_runs\":6"), "{js}");
    }
}
