//! # wbsn-sigproc
//!
//! Integer-friendly digital signal processing substrate for wearable
//! cardiac monitors.
//!
//! This crate collects the low-level building blocks that the DAC'14
//! ultra-low-power cardiac monitoring pipeline is assembled from:
//!
//! * [`morphology`] — flat structuring-element erosion/dilation with
//!   amortized O(1) sliding min/max, opening/closing, and the
//!   morphological ECG conditioning filters of Sun et al.
//! * [`wavelet`] — orthogonal DWT filter banks (Haar, Daubechies-4) and
//!   the integer à-trous quadratic-spline transform used for ECG
//!   delineation.
//! * [`matrix`] — small dense matrices and 2-bit-packed sparse ternary
//!   matrices (Achlioptas-style) shared by compressed sensing and
//!   random-projection classification.
//! * [`combine`] — multi-lead combination (RMS aggregation).
//! * [`stats`] — summary statistics, SNR/PRD reconstruction metrics and
//!   integer square roots.
//! * [`div`] — exact multiply-shift division by loop-invariant window
//!   widths, backing the per-sample normalizations of the streaming
//!   detectors.
//!
//! The streaming paths allocate only at construction time, mirroring
//! the constant-memory regime of the embedded targets the paper
//! describes.
//!
//! ## Example
//!
//! ```
//! use wbsn_sigproc::morphology::{erode, dilate};
//!
//! let x = [0i32, 5, 1, 7, 2, 8, 3];
//! let er = erode(&x, 3);
//! let di = dilate(&x, 3);
//! for i in 0..x.len() {
//!     assert!(er[i] <= x[i] && x[i] <= di[i]);
//! }
//! ```

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

pub mod combine;
pub mod div;
pub mod matrix;
pub mod morphology;
pub mod stats;
pub mod wavelet;

pub use matrix::{DenseMatrix, SparseTernaryMatrix};

/// Errors produced by signal-processing constructors that validate
/// their arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigprocError {
    /// A length or size argument was zero or otherwise out of range.
    InvalidLength {
        /// Name of the offending parameter.
        what: &'static str,
        /// The rejected value.
        got: usize,
    },
    /// A numeric parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        what: &'static str,
        /// Human-readable detail.
        detail: &'static str,
    },
    /// Two inputs that must agree in shape did not.
    ShapeMismatch {
        /// Description of the mismatch.
        what: &'static str,
        /// Expected extent.
        expected: usize,
        /// Observed extent.
        got: usize,
    },
}

impl core::fmt::Display for SigprocError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SigprocError::InvalidLength { what, got } => {
                write!(f, "invalid length for {what}: {got}")
            }
            SigprocError::InvalidParameter { what, detail } => {
                write!(f, "invalid parameter {what}: {detail}")
            }
            SigprocError::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "shape mismatch for {what}: expected {expected}, got {got}"
            ),
        }
    }
}

impl std::error::Error for SigprocError {}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, SigprocError>;
