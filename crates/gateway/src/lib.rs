//! # wbsn-gateway
//!
//! The **base-station side** of the wearable body sensor network —
//! the half of the paper's system this workspace previously only
//! implied. The node compresses, delineates and classifies to shrink
//! its radio traffic; *something* has to terminate that radio link,
//! reassemble the packet stream, and (for the compressed-sensing
//! levels) run reconstruction. This crate is that something:
//!
//! ```text
//!  node fleet ──► link framer ──► LossyChannel ──► Gateway
//!  (payloads)     (wbsn-core       (seeded drop /   ├─ Reassembler per session
//!                  link packets)    reorder /       │    → handshakes, Payloads
//!      ▲           corruption)                      ├─ AF alert edges
//!      │                                            ├─ CS reconstruction (Φ by
//!      │                                            │    seed from the handshake)
//!      └──────── ACK / NACK / CR directives ◄───────┘  pump_downlink()
//!                (DuplexChannel downlink)
//! ```
//!
//! * [`channel`] — a **deterministic** lossy-link simulator: seeded
//!   drop, single-bit corruption and reordering, so tests can script
//!   exact link conditions and replay them bit-identically; the
//!   [`DuplexChannel`] pairs an uplink with an independently seeded
//!   downlink for closed-loop runs.
//! * [`controller`] — the [`LinkController`]: per-session adaptive CR
//!   policy turning measured PRD and loss into dwell-gated
//!   step-down/step-up directives.
//! * [`reassembler`] — per-session fragment buffers with
//!   duplicate/out-of-order handling, in-order message release and
//!   gap detection, failing with typed
//!   [`LinkError`](wbsn_core::link::LinkError)s.
//! * [`gateway`] — the [`Gateway`] service: routes packets from many
//!   interleaved sessions to their reassemblers, decodes each released
//!   message into a
//!   [`SessionHandshake`](wbsn_core::link::SessionHandshake) or a
//!   [`Payload`](wbsn_core::Payload), raises AF alerts from `Events`
//!   payloads, and reconstructs CS windows through the
//!   `wbsn-cs` solvers (FISTA with λ-continuation by default) using
//!   the sensing matrix regenerated by seed from the session
//!   handshake, reporting per-window PRD against an attached
//!   reference. [`Gateway::pump_downlink`](gateway::Gateway::pump_downlink)
//!   closes the loop: cumulative ACKs, selective NACKs (recovered
//!   retransmissions surface as
//!   [`GatewayEvent::MessageRecovered`](gateway::GatewayEvent)), and
//!   the controller's CR directives, per session.
//! * [`cache`] — the [`MatrixCache`]: one sensing matrix per distinct
//!   handshake geometry `(window, m, density, seed, lead)`, shared by
//!   every session — and every shard — that announces it.
//! * [`fleet`] — the [`ShardedGateway`]: `4n` plain [`Gateway`] shards
//!   keyed by `session % 4n` for `n` worker threads, whose decoding
//!   fans out over `wbsn-core`'s work-pulling scoped-thread helper
//!   ([`map_on_workers`](wbsn_core::workers::map_on_workers)), with
//!   merge rules that keep the combined event stream byte-identical to
//!   the single-threaded service at any worker count.
//! * [`solve`] — the [`SolvePhase`]: the CS windows a call decoded,
//!   queued by matrix and solved four windows of one Φ per pass on up
//!   to `n` threads, each bit for bit its one-window FISTA solve. Every
//!   call that can release windows decodes first, solves its queue, and
//!   then completes the windows in decode order; the sharded gateway
//!   and the archive's solver replay share one phase across all their
//!   windows.
//!
//! Corruption can never surface as a wrong payload: every packet is
//! CRC32-checked before any field is trusted, and a flipped bit is a
//! typed [`LinkError::CrcMismatch`](wbsn_core::link::LinkError) —
//! pinned by the workspace test `tests/link_roundtrip.rs`.
//!
//! ## Example
//!
//! ```
//! use wbsn_core::link::{SessionHandshake, Uplink};
//! use wbsn_core::monitor::MonitorBuilder;
//! use wbsn_core::level::ProcessingLevel;
//! use wbsn_gateway::channel::{ChannelConfig, LossyChannel};
//! use wbsn_gateway::gateway::{Gateway, GatewayConfig};
//!
//! // Node side: one classified session, one second of flat signal.
//! let mut node = MonitorBuilder::new()
//!     .level(ProcessingLevel::Classified)
//!     .build()
//!     .unwrap();
//! let mut payloads = node.push_block(&[0i32; 3 * 250], 250).unwrap();
//! payloads.extend(node.flush().unwrap());
//!
//! // Uplink: handshake + payloads framed into radio packets.
//! let mut uplink = Uplink::new();
//! let mut packets = Vec::new();
//! let hs = SessionHandshake::for_config(1, node.config());
//! uplink.open_session(&hs, &mut packets).unwrap();
//! uplink.frame(1, &payloads, &mut packets).unwrap();
//!
//! // A perfect channel and the gateway.
//! let mut channel = LossyChannel::new(ChannelConfig::ideal()).unwrap();
//! let mut gw = Gateway::new(GatewayConfig::default());
//! for pkt in channel.send_all(packets) {
//!     gw.ingest(&pkt).unwrap();
//! }
//! gw.flush_sessions();
//! assert_eq!(gw.stats().payloads, payloads.len() as u64);
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

pub mod cache;
pub mod channel;
pub mod controller;
pub mod fleet;
pub mod gateway;
pub mod reassembler;
pub mod record;
pub mod solve;

pub use cache::{LeadMatrix, MatrixCache, MatrixCacheStats, MatrixKey, SessionMatrices};
pub use channel::{ChannelConfig, ChannelStats, DuplexChannel, LossyChannel};
pub use controller::{ControlDecision, ControllerConfig, LinkController};
pub use fleet::ShardedGateway;
pub use gateway::{
    probes_window, reference_window, Gateway, GatewayConfig, GatewayEvent, GatewayStats,
    SessionReport,
};
pub use reassembler::{LinkEvent, Reassembler, ReassemblyStats};
pub use record::TapItem;
pub use solve::SolvePhase;

/// Crate-wide result alias (errors unify into
/// [`wbsn_core::WbsnError`], the workspace's typed error).
pub type Result<T> = wbsn_core::Result<T>;
