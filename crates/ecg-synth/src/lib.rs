//! # wbsn-ecg-synth
//!
//! Synthetic cardiac bio-signal generation with exact ground truth.
//!
//! The DAC'14 evaluation runs over annotated ECG databases and signals
//! acquired by the SmartCardia front-end — neither of which can ship
//! with an open-source reproduction. This crate substitutes them with a
//! parametric generator in the spirit of the ECGSYN dynamical model
//! (McSharry et al., 2003): each heartbeat is a train of Gaussian wave
//! events (P, Q, R, S, T) placed on a beat-to-beat RR process, with
//!
//! * per-beat morphologies (normal, PVC, APC) and per-lead projections,
//! * rhythm processes (normal sinus rhythm with LF/HF heart-rate
//!   variability, atrial fibrillation with irregular RR / absent P /
//!   fibrillatory baseline, bigeminy, episodic AF),
//! * calibrated noise sources (baseline wander, powerline, EMG,
//!   electrode motion) mixed at a target SNR,
//! * a 12-bit ADC front-end model, and
//! * **exact annotations**: every fiducial point (onset, peak, offset
//!   of each wave) is emitted by construction, which makes
//!   delineation/classification scoring strict rather than optimistic.
//!
//! A time-locked PPG channel with programmable pulse-transit time
//! supports the multi-modal experiments (Section IV-C of the paper).
//!
//! On top of single records, the [`scenario`] module provides a
//! composable session DSL (rhythm phases plus timed adversities:
//! motion bursts, electrode dropout, node reboots, channel regime
//! shifts), and the [`cohort`] module samples whole populations of
//! scripted patients deterministically from one cohort seed.
//!
//! ## Example
//!
//! ```
//! use wbsn_ecg_synth::{RecordBuilder, Rhythm};
//!
//! let record = RecordBuilder::new(42)
//!     .duration_s(10.0)
//!     .rhythm(Rhythm::NormalSinus { mean_hr_bpm: 70.0 })
//!     .build();
//! assert_eq!(record.fs(), 250);
//! assert!(record.beats().len() >= 10);
//! ```

#![forbid(unsafe_code)]
// The cohort runner renders records on its worker threads with this
// crate: outside tests, failures are typed errors, not `unwrap`,
// `expect`, `panic!` or `unreachable!`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod cohort;
pub mod generator;
pub mod model;
pub mod noise;
pub mod ppg;
pub mod record;
pub mod rhythm;
pub mod scenario;
pub mod suite;

pub use cohort::{
    AgeBand, CohortConfig, CohortGenerator, NoiseProfile, PatientProfile, RhythmBurden,
};
pub use generator::RecordBuilder;
pub use model::{AdcModel, BeatMorphology, BeatType, WaveKind};
pub use ppg::{PpgConfig, PpgSignal};
pub use record::{Annotation, Beat, FiducialKind, Record, RhythmSpan};
pub use rhythm::{Rhythm, RhythmLabel, RhythmPhase};
pub use scenario::{Adversity, Script, TimedAdversity};
