//! # mpisim — an MPI-like message-passing substrate with virtual time
//!
//! This crate is the substrate for reproducing *"Lightweight MPI
//! Communicators with Applications to Perfectly Balanced Quicksort"*
//! (Axtmann, Wiebigke, Sanders; IPDPS 2018). It provides, from scratch:
//!
//! * a simulated-rank runtime ([`Universe`]) with MPI matching semantics —
//!   `(context, source, tag)` matching, `ANY_SOURCE` wildcards,
//!   non-overtaking per sender and context: the epoch scheduler ([`sched`])
//!   steps the ranks from a small worker pool with seed-deterministic
//!   message-delivery order (synchronous programs on a parked thread per
//!   rank, `async` ones as stackless futures up to 2^20 ranks);
//! * native communicators ([`Comm`]) whose construction runs the *real*
//!   algorithms (a distributed sample sort for `MPI_Comm_split`,
//!   context-ID-mask all-reduce for `MPI_Comm_create_group`) so that their
//!   costs emerge from the α–β model rather than being hard-coded;
//! * blocking collectives ([`coll`]) and nonblocking collective state
//!   machines ([`nbcoll`]), generic over [`Transport`] so the RBC library
//!   reuses them verbatim;
//! * the paper's §VI proposal [`icomm::icomm_create_group`] — nonblocking
//!   communicator creation with 5-tuple context IDs, constant-time for
//!   process ranges;
//! * a virtual-time cost model ([`CostModel`], [`VendorProfile`]): every
//!   message carries `arrival = t + α + bytes·β`, `t` the sender's clock
//!   at the send, and a receive sets `clock = max(clock, arrival)`.
//!   Benchmarks report virtual milliseconds, which is what makes the
//!   paper's figures reproducible at laptop scale (see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coll;
pub mod coll_large;
pub mod comm;
pub mod context;
pub mod datum;
pub mod distsort;
pub mod env;
pub mod error;
pub mod faults;
pub mod group;
pub mod icomm;
pub mod mailbox;
pub mod model;
pub mod msg;
pub mod nbcoll;
pub mod obs;
#[doc(hidden)]
pub mod pool;
pub mod proc;
pub mod sched;
mod splitdist;
pub mod tags;
pub mod time;
pub mod transport;
pub mod universe;

pub use comm::Comm;
pub use datum::{ops, Datum, SortKey};
pub use error::{MpiError, Result};
pub use faults::{FaultPlan, RankBlame, RankHealth, RoundBlame, SlowdownSpec};
pub use group::Group;
pub use model::{CostModel, CostScale, CreateGroupAlgo, VendorProfile};
pub use msg::{ContextId, MsgInfo, SharedSlice, Tag};
pub use nbcoll::{Progress, Request};
pub use obs::{MetricsSnapshot, OpClass, SchedProfile, Trace, TraceEvent, WorkerProfile};
pub use sched::poll::block_inline;
pub use sched::{yield_now, yield_now_async};
pub use time::{Time, VirtualClock};
pub use transport::{probe_async, recv_async, recv_shared_async, Scaled, Src, Status, Transport};
pub use universe::{Backend, ProcEnv, SimConfig, SimResult, Universe};
