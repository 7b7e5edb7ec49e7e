//! # RBC — RangeBasedComm
//!
//! Reimplementation of the RBC library from *"Lightweight MPI Communicators
//! with Applications to Perfectly Balanced Quicksort"* (Axtmann, Wiebigke,
//! Sanders; IPDPS 2018), on top of the [`mpisim`] substrate.
//!
//! The key feature: **RBC communicators are created in constant time
//! without communication** (§V). An RBC communicator `R` is derived from an
//! MPI communicator `M` and contains the processes with ranks `f..=l` in
//! `M` (optionally strided). RBC provides (non)blocking point-to-point and
//! (non)blocking collective operations in `R`'s scope, implemented with
//! binomial trees over MPI point-to-point calls.
//!
//! Because RBC cannot allocate its own MPI context ID, communicators that
//! overlap on **more than one** process must use distinct tags for
//! simultaneous operations; communicators overlapping on at most one
//! process (e.g. the two groups of a janus process in JQuick) never
//! interfere (§V-A).
//!
//! ## Quickstart (paper Fig. 1)
//!
//! ```
//! use mpisim::{Universe, Transport};
//! use rbc::RbcComm;
//!
//! let result = Universe::run_default(4, |env| {
//!     let world = rbc::create_rbc_comm(&env.world);
//!     let (r, s) = (rbc::comm_rank(&world), rbc::comm_size(&world));
//!     let (f, l) = if r < s / 2 { (0, s / 2 - 1) } else { (s / 2, s - 1) };
//!     // Local operation. No synchronization.
//!     let range = rbc::split_rbc_comm(&world, f, l).unwrap();
//!     let payload = (range.rank() == 0).then(|| vec![f as u64]);
//!     let mut req = range.ibcast(payload, 0, None).unwrap();
//!     let mut flag = false;
//!     while !flag {
//!         flag = rbc::test(&mut req).unwrap();
//!         // Do something else: here, give the other ranks their turn.
//!         mpisim::yield_now();
//!     }
//!     req.into_data().unwrap()[0] as usize
//! });
//! assert_eq!(result.per_rank, vec![0, 0, 2, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coll;
pub mod comm;
pub mod nbc;

pub use comm::RbcComm;
pub use nbc::{
    testall, waitall, Progress, Request, RBC_IALLREDUCE_TAG, RBC_IBARRIER_TAG, RBC_IBCAST_TAG,
    RBC_IEXSCAN_TAG, RBC_IGATHERV_TAG, RBC_IGATHER_TAG, RBC_IREDUCE_TAG, RBC_ISCAN_TAG,
};

use mpisim::{Comm, Result, Transport};

/// `rbc::Create_RBC_Comm` — RBC communicator over all processes of an MPI
/// communicator. Local, O(1).
pub fn create_rbc_comm(mpi: &Comm) -> RbcComm {
    RbcComm::create(mpi)
}

/// `rbc::Split_RBC_Comm` — RBC communicator over ranks `f..=l` of an
/// existing RBC communicator. Local, O(1).
pub fn split_rbc_comm(comm: &RbcComm, f: usize, l: usize) -> Result<RbcComm> {
    comm.split(f, l)
}

/// `rbc::Comm_rank`.
pub fn comm_rank(comm: &RbcComm) -> usize {
    comm.rank()
}

/// `rbc::Comm_size`.
pub fn comm_size(comm: &RbcComm) -> usize {
    comm.size()
}

/// `rbc::Test` — drive a nonblocking operation one step.
pub fn test(req: &mut impl Progress) -> Result<bool> {
    req.poll()
}

/// `rbc::Wait` — repeatedly test until complete.
pub fn wait(req: &mut impl Progress) -> Result<()> {
    mpisim::nbcoll::wait(req)
}

/// [`wait`] as a maybe-async core, usable inside a poll-mode rank body.
pub async fn wait_async(req: &mut impl Progress) -> Result<()> {
    mpisim::nbcoll::wait_async(req).await
}
