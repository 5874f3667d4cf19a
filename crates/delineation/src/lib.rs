//! # wbsn-delineation
//!
//! Real-time embedded ECG delineation (Section III-C of the DAC'14
//! paper): locating the fiducial points — onset, peak and offset of the
//! P wave, QRS complex and T wave — of every heartbeat, in integer
//! arithmetic and constant memory.
//!
//! Two delineators are provided, mirroring the two families the paper
//! compares (references \[12\] and \[13\]):
//!
//! * [`wavelet`] — dyadic à-trous quadratic-spline transform with
//!   modulus-maxima analysis (Rincón et al., BSN 2009), the method the
//!   paper reports at 7% duty cycle / 7.2 kB on the node;
//! * [`mmd`] — the multiscale morphological derivative of Sun, Chan &
//!   Krishnan (2005).
//!
//! Both consume the beat locations produced by the integer
//! Pan-Tompkins-style QRS detector in [`qrs`], and both are scored by
//! the tolerance-window sensitivity/precision machinery in [`eval`]
//! (the ">90% in all cases" text claim). [`realtime`] wraps the
//! pipeline in a fixed-memory streaming engine whose exact buffer
//! budget is reported, reproducing the paper's memory claim.

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

pub mod eval;
pub mod fiducials;
pub mod mmd;
pub mod qrs;
pub mod realtime;
pub mod wavelet;

pub use eval::{DelineationReport, FiducialScore, Tolerances};
pub use fiducials::{BeatFiducials, FiducialKind};
pub use mmd::MmdDelineator;
pub use qrs::QrsDetector;
pub use realtime::StreamingDelineator;
pub use wavelet::WaveletDelineator;

/// Errors produced by delineation configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DelineationError {
    /// Parameter outside its valid range.
    InvalidParameter {
        /// Parameter name.
        what: &'static str,
        /// Explanation.
        detail: &'static str,
    },
}

impl core::fmt::Display for DelineationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DelineationError::InvalidParameter { what, detail } => {
                write!(f, "invalid parameter {what}: {detail}")
            }
        }
    }
}

impl std::error::Error for DelineationError {}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, DelineationError>;
