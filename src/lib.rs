//! Umbrella crate for the RBC / Janus Quicksort reproduction.
//! Re-exports the three library crates; examples and integration tests live
//! under this package.

#![forbid(unsafe_code)]

pub use jquick;
pub use mpisim;
pub use rbc;
