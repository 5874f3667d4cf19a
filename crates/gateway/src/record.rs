//! The recording tap: a per-session stream of everything the gateway
//! decodes, for an external recorder to persist.
//!
//! When [`GatewayConfig::tap`](crate::GatewayConfig) is on, the
//! gateway appends one [`TapItem`] per decoded observation —
//! handshakes, rhythm events, fiducial sets, CS windows (measurements
//! and PRD), loss and recovery — in processing order, which for a
//! single session is deterministic at any worker count (each session
//! lives on exactly one shard). [`Gateway::drain_tap`]
//! and [`ShardedGateway::drain_tap`] hand the buffered items over
//! grouped by session in ascending session order, so the merged
//! stream is byte-stable across runs and worker counts.
//!
//! The tap is pull-based and bounded by drain frequency: the cohort
//! runner drains once per pump, so gateway memory stays O(epoch)
//! regardless of run length. Cohort runs always tap, recorded or not:
//! the runner scores every session by folding these items, the same
//! items its recordings archive (as `wbsn_archive::EpochItem::Gateway`)
//! and its replays fold again. With the flag off (the default) no item
//! is ever buffered, and the tap never changes the gateway's events,
//! downlink bytes or counters either way.
//!
//! [`Gateway::drain_tap`]: crate::Gateway::drain_tap
//! [`ShardedGateway::drain_tap`]: crate::ShardedGateway::drain_tap

use wbsn_core::link::SessionHandshake;
use wbsn_delineation::BeatFiducials;

/// One decoded observation of one session, in processing order.
#[derive(Debug, Clone, PartialEq)]
pub enum TapItem {
    /// A handshake was installed (initial, re-announced, or recovered
    /// from a retransmission).
    Handshake(SessionHandshake),
    /// A rhythm/classification event payload.
    Rhythm {
        /// Uplink message sequence carrying the event.
        msg_seq: u32,
        /// Beats covered by the reporting interval.
        n_beats: u32,
        /// Mean heart rate (bpm ×10 fixed point).
        mean_hr_x10: u16,
        /// AF burden of the interval (%, 0–100).
        af_burden_pct: u8,
        /// Whether the node considers AF active.
        af_active: bool,
    },
    /// A delineated-beats payload.
    Beats {
        /// Uplink message sequence carrying the beats.
        msg_seq: u32,
        /// The fiducial sets.
        beats: Vec<BeatFiducials>,
    },
    /// A CS window arrived: its measurements, and its PRD when it was
    /// solved and a reference covers it. The reconstructed samples are
    /// not part of the item; they travel in the call's
    /// [`GatewayEvent::WindowReconstructed`], and a replay re-solves
    /// them from these measurements bit for bit.
    ///
    /// [`GatewayEvent::WindowReconstructed`]: crate::GatewayEvent::WindowReconstructed
    CsWindow {
        /// Lead index.
        lead: u8,
        /// Window sequence within the lead's CS stream.
        window_seq: u32,
        /// PRD against the attached reference, when scored.
        prd: Option<f64>,
        /// The raw CS measurements.
        measurements: Vec<i16>,
    },
    /// The reassembler declared messages lost.
    Lost {
        /// First missing sequence.
        first_seq: u32,
        /// Run length.
        count: u32,
    },
    /// A previously-lost message was recovered by retransmission.
    Recovered {
        /// The recovered sequence.
        msg_seq: u32,
    },
}
