//! Error type for the simulator.
//!
//! Real MPI aborts the job on most errors; we return `Result` so tests can
//! exercise failure paths (deadlock timeouts, type mismatches, exhausted
//! context-ID space) without tearing the process down.

use std::fmt;

use crate::faults::RoundBlame;
use crate::time::Time;

/// Errors surfaced by simulator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// A blocking operation can never complete: the scheduler's deadlock
    /// or stagnation detector poisoned the wait, or the rank itself has
    /// crash-stopped. A correct program never hits it.
    Timeout {
        /// Rank that timed out.
        rank: usize,
        /// Human-readable description of the blocked operation.
        waited_for: String,
        /// Virtual clock of the rank when the wait failed.
        virtual_now: Time,
        /// Which ranks the stalled operation was waiting on, with their
        /// last virtual-time activity and crashed/slowed/live status.
        blame: RoundBlame,
    },
    /// A message was matched whose payload element type differs from the
    /// type requested by the receive.
    TypeMismatch {
        /// Type name the receive asked for.
        expected: &'static str,
        /// Type name the matched message carries.
        got: &'static str,
    },
    /// Receive count expectations violated (analogue of MPI_ERR_TRUNCATE).
    Truncation {
        /// Element count the receive expected.
        expected: usize,
        /// Element count the message actually carries.
        got: usize,
    },
    /// Rank outside the communicator's group.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// Size of the communicator it was used with.
        size: usize,
    },
    /// The context-ID mask has no free IDs left.
    ContextExhausted,
    /// A collective was invoked with inconsistent arguments across ranks
    /// (detected opportunistically).
    CollectiveMismatch(String),
    /// Catch-all for invalid API usage.
    Usage(String),
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::Timeout {
                rank,
                waited_for,
                virtual_now,
                blame,
            } => {
                write!(
                    f,
                    "deadlock timeout on rank {rank} while waiting for {waited_for} (virtual time {virtual_now})"
                )?;
                if !blame.is_empty() {
                    write!(f, "; {blame}")?;
                }
                Ok(())
            }
            MpiError::TypeMismatch { expected, got } => {
                write!(
                    f,
                    "datatype mismatch: receive expected {expected}, message holds {got}"
                )
            }
            MpiError::Truncation { expected, got } => {
                write!(
                    f,
                    "message truncated: expected {expected} elements, got {got}"
                )
            }
            MpiError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            MpiError::ContextExhausted => write!(f, "context-ID space exhausted"),
            MpiError::CollectiveMismatch(s) => write!(f, "collective argument mismatch: {s}"),
            MpiError::Usage(s) => write!(f, "invalid usage: {s}"),
        }
    }
}

impl std::error::Error for MpiError {}

/// Result alias used across the simulator.
pub type Result<T> = std::result::Result<T, MpiError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = MpiError::Timeout {
            rank: 3,
            waited_for: "recv(src=1, tag=7)".into(),
            virtual_now: Time::from_micros(5),
            blame: RoundBlame::default(),
        };
        let s = format!("{e}");
        assert!(s.contains("rank 3"));
        assert!(s.contains("recv(src=1, tag=7)"));
        // An unenriched blame adds nothing to the message.
        assert!(!s.contains("waiting on:"), "{s}");

        let e = MpiError::Timeout {
            rank: 3,
            waited_for: "recv(src=1, tag=7)".into(),
            virtual_now: Time::from_micros(5),
            blame: RoundBlame {
                waiting_on: vec![crate::faults::RankBlame {
                    rank: 1,
                    last_activity: Time::from_micros(4),
                    health: crate::faults::RankHealth::Crashed {
                        at: Time::from_micros(4),
                    },
                }],
                omitted: 0,
            },
        };
        let s = format!("{e}");
        assert!(s.contains("waiting on: rank 1 [crashed at"), "{s}");

        let e = MpiError::TypeMismatch {
            expected: "f64",
            got: "u32",
        };
        assert!(format!("{e}").contains("f64"));

        let e = MpiError::InvalidRank { rank: 9, size: 4 };
        assert!(format!("{e}").contains("size 4"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(MpiError::ContextExhausted);
        assert!(e.to_string().contains("context-ID"));
    }
}
