//! # wbsn
//!
//! Umbrella crate for the ultra-low-power wearable cardiac monitoring
//! workspace (a reproduction and extension of the DAC'14 paper
//! *Ultra-Low Power Design of Wearable Cardiac Monitoring Systems*).
//!
//! Each layer lives in its own crate; this crate re-exports them under
//! one name and hosts the workspace-level integration tests and
//! examples:
//!
//! * [`sigproc`] — integer-friendly DSP substrate.
//! * [`ecg_synth`] — synthetic annotated ECG/PPG records.
//! * [`delineation`] — streaming QRS detection + wavelet delineation.
//! * [`classify`] — random-projection fuzzy classification and AF.
//! * [`cs`] — compressed sensing encoder and FISTA decoders.
//! * [`multimodal`] — ECG+PPG pulse-arrival-time estimation.
//! * [`platform`] — node hardware energy/timing models.
//! * [`multicore`] — cycle-stepped multi-core WBSN simulator.
//! * [`core`] — the session pipeline ([`core::CardiacMonitor`],
//!   [`core::MonitorBuilder`], [`core::stage`]), the uplink wire layer
//!   ([`core::link`]), the closed-loop node that drives them behind
//!   the retransmit buffer ([`core::Node`]) and the one scoped-thread
//!   helper every library thread comes from ([`core::workers`]).
//! * [`gateway`] — the base-station side: lossy-channel simulation,
//!   per-session reassembly/decoding, AF alerts, the ACK/NACK
//!   downlink and CS reconstruction ([`gateway::Gateway`]).
//! * [`archive`] — gateway recording: a streaming, CRC-protected
//!   epoch-block archive format with lossless delta/varint signal
//!   codecs, plus solver and policy replay straight off a recording.
//!
//! On top of the re-exports, the umbrella owns three modules:
//! [`apps`], the HRV/sleep and AF-episode applications that run on a
//! session's beat stream; [`cohort`], the population-scale evaluation
//! engine that drives 200+ scripted patients end to end and folds the
//! run into one [`cohort::CohortReport`]; and [`replay`], which
//! regenerates that report **bit-identically** from a recorded run
//! ([`cohort::CohortRunner::run_recorded`] →
//! [`replay::CohortReplayer`]).

// Every public item carries documentation; rustdoc runs with
// `-D warnings` in CI, so a gap fails the build.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod cohort;
pub mod replay;

pub use wbsn_archive as archive;
pub use wbsn_classify as classify;
pub use wbsn_core as core;
pub use wbsn_cs as cs;
pub use wbsn_delineation as delineation;
pub use wbsn_ecg_synth as ecg_synth;
pub use wbsn_gateway as gateway;
pub use wbsn_multicore as multicore;
pub use wbsn_multimodal as multimodal;
pub use wbsn_platform as platform;
pub use wbsn_sigproc as sigproc;
