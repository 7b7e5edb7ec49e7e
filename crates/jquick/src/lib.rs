//! # Janus Quicksort (JQuick) and baselines
//!
//! The sorting side of *"Lightweight MPI Communicators with Applications to
//! Perfectly Balanced Quicksort"* (Axtmann, Wiebigke, Sanders; IPDPS 2018).
//!
//! JQuick (§VII) is a recursive distributed quicksort that guarantees
//! **perfect data balance**: after every level each process stores ⌊n/p⌋ or
//! ⌈n/p⌉ elements. The key device is the *janus process* — a process
//! belonging to two adjacent process groups at once, advancing both via
//! nonblocking operations so progress in one subtask never delays the
//! other. JQuick runs on any number of processes (not just powers of two).
//!
//! The crate is generic over the communicator [`backend`]: lightweight RBC
//! range communicators (O(1) local splits) or native MPI communicators
//! (blocking `MPI_Comm_create_group` per level) — the comparison of the
//! paper's Fig. 8.
//!
//! Also included: hypercube quicksort \[6\] and single-level sample sort \[15\]
//! as baselines (§IV), and distributed output verification.
//!
//! ```
//! use jquick::{jquick_sort, JQuickConfig, RbcBackend};
//! use mpisim::Universe;
//!
//! let n = 64u64;
//! let res = Universe::run_default(4, |env| {
//!     let r = env.rank() as u64;
//!     // Each rank holds 16 elements: 63-r, 59-r, ... (reverse order).
//!     let data: Vec<u64> = (0..16).map(|i| 63 - (i * 4 + r)).collect();
//!     let (out, _stats) =
//!         jquick_sort(&RbcBackend, &env.world, data, n, &JQuickConfig::default()).unwrap();
//!     out
//! });
//! let all: Vec<u64> = res.per_rank.into_iter().flatten().collect();
//! assert_eq!(all, (0..64).collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod backend;
pub mod basecase;
pub mod driver;
pub mod exchange;
pub mod hypercube;
pub mod layout;
pub mod level;
pub mod multilevel;
pub mod partition;
pub mod pivot;
pub mod quickhull;
pub mod samplesort;
pub mod verify;
pub mod workloads;

pub use backend::{Backend, MpiBackend, RbcBackend, Schedule};
pub use driver::{jquick_sort, jquick_sort_async, JQuickConfig, SortStats};
pub use exchange::AssignmentKind;
pub use hypercube::{hypercube_sort, hypercube_sort_async};
pub use layout::{Layout, TaskRange};
pub use multilevel::{multilevel_sample_sort, multilevel_sample_sort_async, MultiLevelCfg};
pub use pivot::PivotCfg;
pub use quickhull::{quickhull, Point};
pub use samplesort::{sample_sort, sample_sort_async, SampleSortCfg};
pub use verify::{
    fingerprint, imbalance_factor, imbalance_factor_async, verify_sorted, VerifyReport,
};
pub use workloads::{generate as generate_workload, Dist};
