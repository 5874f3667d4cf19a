//! # wbsn-multimodal
//!
//! Multi-modal cardiac parameter estimation (Section IV-C of the
//! DAC'14 paper): combining ECG with a PPG channel to estimate
//! parameters that cannot be measured directly on a wearable.
//!
//! * [`pat`] — pulse arrival time: R peak → PPG pulse foot (tangent
//!   intersection method), and the PAT → PWV → blood-pressure
//!   surrogate chain (Gesche et al., reference \[20\]).
//! * [`ea`] — ensemble averaging time-locked to the ECG R peaks:
//!   strong denoising, but beat-to-beat variation is lost (the paper's
//!   stated drawback).
//! * [`aicf`] — the adaptive impulse-correlated filter of Laguna et
//!   al. (reference \[22\]): an LMS filter whose reference input is the
//!   R-peak impulse train; tracks dynamic changes EA cannot.

#![forbid(unsafe_code)]

pub mod aicf;
pub mod ea;
pub mod pat;

pub use aicf::Aicf;
pub use ea::EnsembleAverager;
pub use pat::{BpCalibration, BpEstimator, PatDetector};

/// Errors from multi-modal estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum MultimodalError {
    /// Parameter outside its valid range.
    InvalidParameter {
        /// Parameter name.
        what: &'static str,
        /// Explanation.
        detail: String,
    },
    /// Not enough data to calibrate/estimate.
    InsufficientData {
        /// Explanation.
        detail: String,
    },
}

impl core::fmt::Display for MultimodalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MultimodalError::InvalidParameter { what, detail } => {
                write!(f, "invalid parameter {what}: {detail}")
            }
            MultimodalError::InsufficientData { detail } => {
                write!(f, "insufficient data: {detail}")
            }
        }
    }
}

impl std::error::Error for MultimodalError {}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, MultimodalError>;
