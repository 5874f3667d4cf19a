//! # wbsn-classify
//!
//! Embedded heartbeat classification and atrial-fibrillation detection
//! (Sections III-D, IV-A and V of the DAC'14 paper).
//!
//! * [`features`] — per-beat feature extraction by **random
//!   projection** (Achlioptas ternary matrices stored at 2 bits per
//!   element, reference \[15\]): a morphology window around each R peak
//!   is projected to a handful of dimensions with additions and
//!   subtractions only, then augmented with RR-interval ratios.
//! * [`fuzzy`] — the neuro-fuzzy classifier of reference \[14\]:
//!   per-class Gaussian memberships over each feature, evaluated either
//!   exactly or with the **four-segment piecewise-linear
//!   approximation** the paper highlights as "close-to-optimal …
//!   while vastly simplifying the computational requirements".
//! * [`knn`] — a k-nearest-neighbour baseline for ablations.
//! * [`af`] — the real-time AF detector of reference \[25\]: RR-interval
//!   irregularity metrics plus P-wave absence, combined by fuzzy rules
//!   with hysteresis into episodes (the 96% Se / 93% Sp text claim).
//! * [`eval`] — confusion matrices and sensitivity/specificity.

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

pub mod af;
pub mod eval;
pub mod features;
pub mod fuzzy;
pub mod knn;

pub use af::{AfBeat, AfConfig, AfDetector, AfWindow};
pub use eval::ConfusionMatrix;
pub use features::{BeatFeatureExtractor, FeatureConfig};
pub use fuzzy::{FuzzyClassifier, MembershipMode};

/// Errors produced by classifier configuration and training.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassifyError {
    /// Parameter outside its valid range.
    InvalidParameter {
        /// Parameter name.
        what: &'static str,
        /// Explanation.
        detail: String,
    },
    /// Training data insufficient or inconsistent.
    InvalidTrainingData {
        /// Explanation.
        detail: String,
    },
}

impl core::fmt::Display for ClassifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClassifyError::InvalidParameter { what, detail } => {
                write!(f, "invalid parameter {what}: {detail}")
            }
            ClassifyError::InvalidTrainingData { detail } => {
                write!(f, "invalid training data: {detail}")
            }
        }
    }
}

impl std::error::Error for ClassifyError {}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, ClassifyError>;
