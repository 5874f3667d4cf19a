//! # wbsn-cs
//!
//! Compressed sensing for ECG on wireless body sensor nodes.
//!
//! Implements the compression path the paper builds on (Section III-A,
//! references \[4\], \[6\], \[16\]):
//!
//! * [`encoder`] — the **node side**: `y = Φx` with a column-sparse
//!   ternary Φ, computed entirely in integer additions. This is the
//!   ultra-low-power part whose cost appears in the Figure 6 energy
//!   breakdown.
//! * [`solver`] — the **base-station side**: recovery by FISTA over a
//!   Daubechies wavelet synthesis dictionary, with an optional
//!   wavelet-tree model constraint (reference \[17\]).
//!   [`Fista::solve_with`] and [`Fista::solve_stream`] recover each
//!   window of a single lead alone. [`Fista::solve_joint`] recovers the
//!   leads of one window together with an ℓ₂,₁ group-sparsity penalty
//!   that ties their shared wavelet support (reference \[6\]): the
//!   "Multi-Lead CS" series of Figure 5. Both run the same lane
//!   iteration, on one [`FistaConfig`].
//!
//! The SNR-vs-CR sweep that regenerates Figure 5 from synthetic
//! records lives in `wbsn_bench::sweep`, beside the figure binary.
//!
//! ## Example
//!
//! ```
//! use wbsn_cs::encoder::CsEncoder;
//! use wbsn_cs::solver::{Fista, FistaConfig};
//!
//! // 50% compression of a 256-sample window.
//! let enc = CsEncoder::new(256, 128, 4, 99).unwrap();
//! let x: Vec<i32> = (0..256)
//!     .map(|i| (300.0 * (-((i as f64 - 128.0) / 9.0).powi(2) / 2.0).exp()) as i32)
//!     .collect();
//! let y = enc.encode(&x).unwrap();
//! let solver = Fista::new(FistaConfig::default());
//! let xr = solver.reconstruct(&enc, &y).unwrap();
//! let snr = wbsn_sigproc::stats::snr_db(
//!     &x.iter().map(|&v| v as f64).collect::<Vec<_>>(),
//!     &xr,
//! );
//! assert!(snr > 15.0, "snr {snr}");
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

pub mod encoder;
pub mod solver;

pub use encoder::CsEncoder;
pub use solver::{Continuation, Fista, FistaConfig, FistaScratch, FistaSolve};

/// Errors produced by the CS pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CsError {
    /// Constructor argument out of range.
    InvalidParameter {
        /// Name of the parameter.
        what: &'static str,
        /// Explanation.
        detail: String,
    },
    /// Input shape does not match the encoder/solver configuration.
    ShapeMismatch {
        /// What was being checked.
        what: &'static str,
        /// Expected size.
        expected: usize,
        /// Observed size.
        got: usize,
    },
    /// An input held a NaN or infinity, which no solve can recover
    /// from.
    NonFinite {
        /// What was being checked.
        what: &'static str,
        /// Index of the first non-finite entry.
        index: usize,
    },
    /// An underlying signal-processing primitive rejected its input.
    Sigproc(wbsn_sigproc::SigprocError),
}

impl core::fmt::Display for CsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CsError::InvalidParameter { what, detail } => {
                write!(f, "invalid parameter {what}: {detail}")
            }
            CsError::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "shape mismatch for {what}: expected {expected}, got {got}"
            ),
            CsError::NonFinite { what, index } => {
                write!(f, "non-finite value in {what} at index {index}")
            }
            CsError::Sigproc(e) => write!(f, "sigproc error: {e}"),
        }
    }
}

impl std::error::Error for CsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsError::Sigproc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wbsn_sigproc::SigprocError> for CsError {
    fn from(e: wbsn_sigproc::SigprocError) -> Self {
        CsError::Sigproc(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, CsError>;

/// Compression ratio as a percentage: `CR = 100·(n − m)/n`.
pub fn compression_ratio(n: usize, m: usize) -> f64 {
    100.0 * (n.saturating_sub(m)) as f64 / n as f64
}

/// Measurement count for a target compression ratio.
pub fn measurements_for_cr(n: usize, cr_percent: f64) -> usize {
    let m = ((1.0 - cr_percent / 100.0) * n as f64).round() as usize;
    m.clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cr_round_trip() {
        let n = 512;
        for cr in [0.0, 25.0, 50.0, 65.9, 72.7, 90.0] {
            let m = measurements_for_cr(n, cr);
            let back = compression_ratio(n, m);
            assert!((back - cr).abs() < 0.2, "cr {cr} -> m {m} -> {back}");
        }
    }

    #[test]
    fn cr_extremes_clamped() {
        assert_eq!(measurements_for_cr(512, 100.0), 1);
        assert_eq!(measurements_for_cr(512, 0.0), 512);
        assert_eq!(compression_ratio(512, 512), 0.0);
    }
}
