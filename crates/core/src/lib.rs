//! # wbsn-core
//!
//! The integrated ultra-low-power wearable cardiac monitoring node —
//! the system-level architecture the DAC'14 paper presents — rebuilt
//! as a **session-oriented pipeline**.
//!
//! The central idea (Figure 1 of the paper): **on-node digital signal
//! processing raises the abstraction level of the transmitted data and
//! thereby shrinks the energy-dominant radio traffic.** A node can
//! stream raw samples, stream compressively-sensed windows, transmit
//! delineated fiducial points, or transmit only classified events —
//! each step trades MCU cycles for (much more expensive) radio bytes.
//!
//! ## Architecture
//!
//! * [`level`] — the abstraction ladder ([`ProcessingLevel`]).
//! * [`stage`] — the composable pipeline API: the [`PipelineStage`]
//!   trait ([`stage::RawForwarder`], [`stage::CsStage`],
//!   [`stage::DelineationStage`], [`stage::ClassifyStage`]) and the
//!   [`stage::PayloadSink`] payloads flow into. New workloads plug in
//!   by implementing the trait — the engine never changes.
//! * [`monitor`] — [`CardiacMonitor`]: one monitoring *session*. Built
//!   with the validating [`MonitorBuilder`], fed through the fallible
//!   [`CardiacMonitor::try_push`] or the batched
//!   [`CardiacMonitor::push_block`] hot path.
//! * [`payload`] — the on-air payload formats with exact byte costs.
//! * [`energy`] — per-stage cycle accounting composed with the
//!   `wbsn-platform` node model into Figure 6-style breakdowns and
//!   battery lifetimes, plus per-mode workload prediction for the
//!   governor.
//! * [`governor`] — the closed-loop power governor: a deterministic
//!   per-session controller that re-selects the [`OperatingMode`]
//!   (processing level + powered leads) at runtime from rhythm state,
//!   battery state-of-charge and a radio budget, applied through
//!   [`CardiacMonitor::switch_mode`] live level switching.
//! * [`link`] and [`retransmit`] — the wire: payloads framed into
//!   CRC-checked radio packets, the ACK/NACK/directive downlink, and
//!   the node's bounded retransmit buffer.
//! * [`node`] — [`Node`]: the closed-loop wearable. It owns a governed
//!   monitor, its uplink framer, retransmit buffer and directive
//!   handler, and takes and returns wire bytes; the cohort runner,
//!   the closed-loop tests and benches all drive it.
//! * [`workers`] — [`workers::map_on_workers`], the workspace's one
//!   thread model: every library thread — the cohort runner's node
//!   side, the sharded gateway's decode and the gateway's solve phase
//!   (which the archive's solver replay runs too) — comes from this
//!   scoped helper: each thread pulls the
//!   next unclaimed item, results come back in item order, and every
//!   thread is joined before it returns.
//!
//! ## Quickstart
//!
//! ```
//! use wbsn_core::monitor::MonitorBuilder;
//! use wbsn_core::level::ProcessingLevel;
//! use wbsn_ecg_synth::RecordBuilder;
//!
//! let record = RecordBuilder::new(1).duration_s(12.0).n_leads(3).build();
//! let mut node = MonitorBuilder::new()
//!     .level(ProcessingLevel::Delineated)
//!     .n_leads(3)
//!     .build()
//!     .unwrap();
//! let payloads = node.process_record(record.leads()).unwrap();
//! assert!(!payloads.is_empty());
//! let report = node.energy_report();
//! assert!(report.breakdown.avg_power_mw() < 5.0);
//! ```
//!
//! ## The closed loop
//!
//! ```
//! use wbsn_core::governor::GovernorConfig;
//! use wbsn_core::link::DownlinkFrame;
//! use wbsn_core::monitor::MonitorBuilder;
//! use wbsn_core::Node;
//! use wbsn_ecg_synth::RecordBuilder;
//!
//! let record = RecordBuilder::new(1).duration_s(30.0).n_leads(3).build();
//! let mut node = Node::new(1, MonitorBuilder::new(), GovernorConfig::for_leads(3)).unwrap();
//! let frames = record.interleaved_frames();
//! let mut wire = node.push_block(&frames, record.n_samples()).unwrap();
//! wire.extend(node.drain().unwrap());
//! // The handshake and every payload went out, each recorded until
//! // the gateway acknowledges it.
//! let sent = node.retransmit_stats().recorded;
//! assert!(sent > 1 && wire.len() as u64 >= sent);
//! let ack = DownlinkFrame::Ack { cum_ack: sent as u32 }.to_wire(1, 0);
//! node.take_downlink(&ack).unwrap();
//! assert_eq!(node.retransmit_stats().acked, sent);
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

pub mod energy;
pub mod governor;
pub mod level;
pub mod link;
pub mod monitor;
pub mod node;
pub mod payload;
pub mod retransmit;
pub mod stage;
pub mod workers;

pub use energy::EnergyReport;
pub use governor::{GovernedMonitor, GovernorConfig, PowerGovernor};
pub use level::{OperatingMode, ProcessingLevel};
pub use link::{
    DirectiveAction, DirectiveFrame, DownlinkFrame, LinkError, LinkFramer, LinkPacket,
    SessionHandshake, Uplink,
};
pub use monitor::{CardiacMonitor, MonitorBuilder, MonitorConfig};
pub use node::Node;
pub use payload::Payload;
pub use retransmit::{DirectiveHandler, RetransmitBuffer, RetransmitConfig, RetransmitEvent};
pub use stage::{ActivityCounters, PayloadSink, PipelineStage};

use wbsn_classify::ClassifyError;
use wbsn_cs::CsError;
use wbsn_delineation::DelineationError;
use wbsn_platform::PlatformError;
use wbsn_sigproc::SigprocError;

/// Unified error for the node pipeline, the link and the gateway.
///
/// Sub-crate errors convert losslessly via `From`, so `?` works across
/// crate boundaries without stringifying.
#[derive(Debug, Clone, PartialEq)]
pub enum WbsnError {
    /// Parameter outside its valid range.
    InvalidParameter {
        /// Parameter name.
        what: &'static str,
        /// Explanation.
        detail: String,
    },
    /// A frame or record carried a different lead count than the
    /// session was configured for.
    LeadMismatch {
        /// Leads the session expects.
        expected: usize,
        /// Leads the caller provided.
        got: usize,
    },
    /// An uplink or gateway operation referenced a session id that is
    /// not (or no longer) registered.
    UnknownSession {
        /// The offending id.
        id: u64,
    },
    /// A worker thread panicked, so the items it ran have no result.
    /// Raised by [`workers::map_on_workers`], which runs every library
    /// thread: the cohort runner's node side, the sharded gateway's
    /// decode and the gateway's solve phase. A helper that fails to
    /// spawn is not an error: the threads that did start run its share.
    WorkerLost {
        /// The lost helper thread, numbered from 1 (the calling thread
        /// is 0).
        shard: usize,
    },
    /// Decoding ran out of bytes: the input is shorter than its own
    /// header/length fields claim. The receiver can distinguish a cut
    /// transfer from a corrupted one ([`WbsnError::Malformed`]).
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes it got.
        got: usize,
    },
    /// Decoding met structurally invalid input (unknown tag,
    /// inconsistent fields) — the bytes can never become a valid value
    /// no matter how many more arrive.
    Malformed {
        /// What was being decoded.
        what: &'static str,
        /// Explanation.
        detail: String,
    },
    /// The peer announced a wire-protocol version this build does not
    /// speak (see [`link::PROTOCOL_VERSION`]). Negotiation is the
    /// receiver's job: the session is rejected before any state is
    /// created, never half-decoded.
    UnsupportedVersion {
        /// Version the peer announced.
        got: u8,
        /// Highest version this build supports.
        supported: u8,
    },
    /// Link-layer error: packet framing, CRC or reassembly (see
    /// [`link::LinkError`]).
    Link(link::LinkError),
    /// DSP substrate error.
    Sigproc(SigprocError),
    /// Compressed-sensing error.
    Cs(CsError),
    /// Delineation error.
    Delineation(DelineationError),
    /// Classification error.
    Classify(ClassifyError),
    /// Platform-model error.
    Platform(PlatformError),
}

impl core::fmt::Display for WbsnError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WbsnError::InvalidParameter { what, detail } => {
                write!(f, "invalid parameter {what}: {detail}")
            }
            WbsnError::LeadMismatch { expected, got } => {
                write!(
                    f,
                    "lead mismatch: session expects {expected} leads, got {got}"
                )
            }
            WbsnError::UnknownSession { id } => write!(f, "unknown session id {id}"),
            WbsnError::WorkerLost { shard } => {
                write!(f, "worker helper thread {shard} was lost")
            }
            WbsnError::Truncated { what, needed, got } => {
                write!(f, "truncated {what}: needed {needed} bytes, got {got}")
            }
            WbsnError::Malformed { what, detail } => {
                write!(f, "malformed {what}: {detail}")
            }
            WbsnError::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this build speaks up to {supported})"
                )
            }
            WbsnError::Link(e) => write!(f, "link: {e}"),
            WbsnError::Sigproc(e) => write!(f, "sigproc: {e}"),
            WbsnError::Cs(e) => write!(f, "cs: {e}"),
            WbsnError::Delineation(e) => write!(f, "delineation: {e}"),
            WbsnError::Classify(e) => write!(f, "classify: {e}"),
            WbsnError::Platform(e) => write!(f, "platform: {e}"),
        }
    }
}

impl std::error::Error for WbsnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WbsnError::Sigproc(e) => Some(e),
            WbsnError::Cs(e) => Some(e),
            WbsnError::Delineation(e) => Some(e),
            WbsnError::Classify(e) => Some(e),
            WbsnError::Platform(e) => Some(e),
            WbsnError::Link(e) => Some(e),
            _ => None,
        }
    }
}

impl From<link::LinkError> for WbsnError {
    fn from(e: link::LinkError) -> Self {
        WbsnError::Link(e)
    }
}

macro_rules! from_sub_error {
    ($($sub:ty => $variant:ident),+ $(,)?) => {
        $(
            impl From<$sub> for WbsnError {
                fn from(e: $sub) -> Self {
                    WbsnError::$variant(e)
                }
            }
        )+
    };
}

from_sub_error!(
    SigprocError => Sigproc,
    CsError => Cs,
    DelineationError => Delineation,
    ClassifyError => Classify,
    PlatformError => Platform,
);

/// Transitional alias: earlier releases exposed the error as
/// `CoreError` with a stringly-typed `Component` variant.
#[deprecated(since = "0.2.0", note = "use WbsnError")]
pub type CoreError = WbsnError;

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, WbsnError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_errors_convert_without_stringifying() {
        let e = SigprocError::InvalidLength {
            what: "n_leads",
            got: 0,
        };
        let w: WbsnError = e.clone().into();
        assert_eq!(w, WbsnError::Sigproc(e));
        assert!(w.to_string().contains("n_leads"));
    }

    #[test]
    fn lead_mismatch_is_descriptive() {
        let e = WbsnError::LeadMismatch {
            expected: 3,
            got: 1,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('1'), "{s}");
    }

    #[test]
    fn source_chains_to_sub_error() {
        use std::error::Error;
        let w = WbsnError::from(CsError::InvalidParameter {
            what: "m",
            detail: "zero".into(),
        });
        assert!(w.source().is_some());
        assert!(WbsnError::UnknownSession { id: 9 }.source().is_none());
    }
}
