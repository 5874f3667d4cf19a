#![forbid(unsafe_code)]
// The node or the gateway runs this crate: outside tests, failures are
// typed errors, not `unwrap`, `expect`, `panic!` or `unreachable!`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

//! Archival storage and deterministic replay for the WBSN gateway.
//!
//! The gateway is the only component that sees everything a monitoring
//! session produces — CS measurements and their reconstruction PRD,
//! fiducials, rhythm and alert events, link-health reports,
//! handshakes — and none of it survives the process. This crate persists that knowledge in an
//! EDF-inspired *epoch-block* stream and makes replay a first-class
//! entry point:
//!
//! - [`ArchiveWriter`] appends CRC-protected, versioned blocks with
//!   bounded memory at any recording length. Reference ECG windows
//!   are delta + zigzag + varint coded ([`codec`]), the lossless shape
//!   the on-node ECG-compressor literature settled on; CS measurements
//!   are stored raw. Reconstructed samples are not archived: they are
//!   a pure function of the measurements and the recorded solver
//!   settings, and [`replay`] re-solves them bit for bit.
//! - [`ArchiveReader`] streams blocks back, stopping at the first
//!   damaged byte with a typed [`ArchiveError`] — every block before
//!   the damage is recovered, and corruption can never decode into a
//!   wrong value (every block is CRC-checked before decoding).
//! - [`replay`] re-runs CS reconstruction from archived measurements
//!   at arbitrary solver settings and re-runs alert policy against the
//!   recorded rhythm stream, deterministically.
//!
//! The cohort-level glue — recording a [`CohortRunner`] run and
//! regenerating its `CohortReport` bit-identically — lives in the
//! umbrella crate (`wbsn::replay`), which owns the report types.
//!
//! [`CohortRunner`]: https://docs.rs/wbsn

pub mod codec;
pub mod format;
pub mod reader;
pub mod replay;
pub mod writer;

pub use format::{
    ArchiveBlock, CodecStats, EpochItem, EpochRecord, RunMeta, RunTrailer, SessionEnd, SessionMeta,
};
pub use reader::{ArchiveContents, ArchiveReader};
pub use replay::{
    AlertPolicy, PolicyReplayReport, PolicySessionOutcome, SolverReplayConfig, SolverReplayReport,
};
pub use writer::ArchiveWriter;

use wbsn_core::WbsnError;

/// Errors of the archive layer.
///
/// Reading distinguishes *truncation* (the stream ends inside a
/// block — a cut transfer) from *corruption* (a CRC mismatch — bit
/// rot) from *malformed structure* (a block that checksums but cannot
/// decode — a writer bug or version skew). All are recoverable in the
/// sense that every block before the damage has already been yielded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveError {
    /// The underlying reader or writer failed.
    Io(std::io::ErrorKind),
    /// The stream does not start with the `WBSA` magic.
    BadMagic,
    /// The stream's format version is not the one this build reads.
    UnsupportedVersion {
        /// Version the stream announced.
        got: u16,
        /// The version this build reads and writes.
        supported: u16,
    },
    /// The stream ended mid-block.
    Truncated {
        /// Byte offset of the block the damage was found in.
        offset: u64,
        /// What was being read.
        what: &'static str,
    },
    /// A block's CRC32 does not match its bytes.
    CrcMismatch {
        /// Byte offset of the damaged block.
        offset: u64,
    },
    /// A block checksums but its payload cannot decode.
    Malformed {
        /// What was being decoded.
        what: &'static str,
        /// Explanation.
        detail: String,
    },
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(kind) => write!(f, "archive I/O error: {kind}"),
            ArchiveError::BadMagic => write!(f, "not a WBSA archive (bad magic)"),
            ArchiveError::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "archive format version {got} (this build reads version {supported})"
                )
            }
            ArchiveError::Truncated { offset, what } => {
                write!(f, "archive truncated at byte {offset} while reading {what}")
            }
            ArchiveError::CrcMismatch { offset } => {
                write!(f, "archive block at byte {offset} failed its CRC check")
            }
            ArchiveError::Malformed { what, detail } => {
                write!(f, "malformed archive {what}: {detail}")
            }
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> Self {
        ArchiveError::Io(e.kind())
    }
}

impl From<ArchiveError> for WbsnError {
    fn from(e: ArchiveError) -> Self {
        WbsnError::Malformed {
            what: "archive",
            detail: e.to_string(),
        }
    }
}

/// Convenience alias for archive operations.
pub type Result<T> = std::result::Result<T, ArchiveError>;
