//! The gateway service: many sessions, one packet stream.
//!
//! A base station terminates the radio uplinks of a whole fleet. The
//! [`Gateway`] routes every received packet to its session's
//! [`SessionDecoder`], then acts on what comes out:
//!
//! * **Handshakes** open the session: they carry the CS sensing
//!   parameters (window, measurement count, column density, seed), so
//!   the gateway can regenerate the node's `SparseTernaryMatrix` per
//!   lead (`seed + lead`, exactly as the node's `CsStage` builds them)
//!   and reconstruct.
//! * **`Events` payloads** drive per-session rhythm state: AF episode
//!   onsets surface as [`GatewayEvent::AfAlert`]s and are kept in an
//!   audit log, mirroring what a monitoring service would page on.
//! * **`CsWindow` payloads** are reconstructed through the `wbsn-cs`
//!   FISTA solver, in a solve phase after the call has decoded
//!   everything ([`SolvePhase`]); when a reference signal is attached
//!   ([`Gateway::attach_reference`]), each window reports its PRD
//!   (percentage root-mean-square difference) against the transmitted
//!   original — the Figure 5 quality metric, now measured end to end
//!   through the lossy link. The reconstructed samples live only in
//!   the call's [`GatewayEvent::WindowReconstructed`]: the gateway
//!   keeps no copy, and its recording tap carries the measurements
//!   and the PRD, from which archive replay re-solves bit for bit.
//! * **Losses** (gaps the reassembler proves) surface as
//!   [`GatewayEvent::MessageLost`].
//!
//! Everything is deterministic: same packet stream, same events, same
//! reconstructed samples — the end-to-end scenario test replays the
//! whole node→channel→gateway path bit-identically.

use crate::cache::{MatrixCache, MatrixCacheStats, SessionMatrices};
use crate::controller::{ControllerConfig, LinkController};
use crate::decoder::{SessionDecoder, SessionItem};
use crate::record::TapItem;
use crate::solve::SolvePhase;
use crate::Result;
use std::collections::BTreeMap;
use std::sync::Arc;
use wbsn_core::link::{
    DirectiveFrame, DownlinkFrame, LinkError, LinkPacket, SessionHandshake, NACK_MAX_MISSING,
};
use wbsn_core::{Payload, WbsnError};
use wbsn_cs::solver::{Continuation, FistaConfig, FistaSolve};
use wbsn_sigproc::stats::prd_percent;

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Reorder window of each session's reassembler (messages).
    pub reorder_window: u32,
    /// FISTA settings of every CS window's reconstruction.
    pub solver: FistaConfig,
    /// Recovery window of each session's reassembler: how many of the
    /// most recently declared-lost sequence numbers stay eligible for
    /// late recovery from NACK-driven retransmissions. Zero (the
    /// default) disables both recovery *and* selective NACKs —
    /// [`Gateway::pump_downlink`] then emits pure cumulative ACKs,
    /// and the gateway behaves exactly as before the downlink existed.
    pub recovery_window: u32,
    /// Adaptive CR policy. `None` (the default) means no directives
    /// are ever issued; `Some` gives every session a
    /// [`LinkController`] that turns measured PRD/loss into
    /// [`DirectiveAction::SetCr`](wbsn_core::link::DirectiveAction)
    /// downlink frames at pump time.
    pub controller: Option<ControllerConfig>,
    /// Solve only every k-th CS window (by `window_seq`); the rest are
    /// counted as skipped and never reach the solver. `1` (the
    /// default) reconstructs everything; larger values turn full
    /// reconstruction into periodic quality *probing* — what a cohort
    /// harness needs to keep hundreds of CS sessions affordable while
    /// still sampling PRD. Values of 0 are clamped to 1. The decision
    /// depends only on `window_seq`, so it is invariant to packet
    /// arrival order and to the gateway's worker count.
    pub reconstruct_every: u32,
    /// Buffer a [`TapItem`] per decoded
    /// observation for an external recorder to drain
    /// ([`Gateway::drain_tap`]). Off by default: with the flag off no
    /// item is ever constructed and the gateway's numeric behaviour
    /// is unchanged.
    pub tap: bool,
}

impl GatewayConfig {
    /// The base station's FISTA settings, tuned for the gateway rather
    /// than the sweep harness: a gateway has server-class cycles to
    /// spend per window, so it runs lighter regularization than the
    /// `wbsn-cs` default (mean PRD at 50% CR improves from ≈9.5% to
    /// ≈6.5% on clean windows). Gradient restart, λ-continuation and an
    /// early-exit tolerance at the target λ stop each solve at its
    /// quality plateau. The schedule was chosen on a replay frontier
    /// (`examples/solver_frontier.rs`) and judged on held-out seeds
    /// against the previous default; `tests/solver_defaults.rs` pins
    /// that it meets or beats the original fixed 800-iteration budget
    /// on PRD with at most half its iterations on quiet windows.
    pub fn default_solver() -> FistaConfig {
        FistaConfig {
            lambda_rel: 0.001,
            max_iters: 800,
            tol: 1e-4,
            restart: true,
            continuation: Some(Continuation {
                start_rel: 0.01,
                factor: 0.5,
                stage_tol: 3e-3,
            }),
            ..FistaConfig::default()
        }
    }
}

impl Default for GatewayConfig {
    /// [`GatewayConfig::default_solver`] on every CS window, no
    /// downlink feedback, no recording tap.
    fn default() -> Self {
        GatewayConfig {
            reorder_window: crate::reassembler::DEFAULT_REORDER_WINDOW,
            solver: GatewayConfig::default_solver(),
            recovery_window: 0,
            controller: None,
            reconstruct_every: 1,
            tap: false,
        }
    }
}

/// One AF alert surfaced by the gateway, kept in the session's audit
/// log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertEvent {
    /// Message sequence number of the `Events` payload that raised it.
    pub msg_seq: u32,
    /// AF burden reported by the node at that point (percent).
    pub af_burden_pct: u8,
}

/// Per-session rhythm state, driven by the node's `Events` payloads.
#[derive(Debug, Clone, Default)]
pub struct RhythmState {
    /// Whether an AF episode is currently flagged.
    pub af_active: bool,
    /// Last reported AF burden (percent).
    pub af_burden_pct: u8,
    /// Last reported mean heart rate (bpm ×10).
    pub mean_hr_x10: u16,
    /// Beats reported across all `Events` payloads.
    pub beats_reported: u64,
    /// `Events` payloads seen.
    pub events_seen: u64,
    /// Delineated beats received via `Beats` payloads.
    pub beats_received: u64,
    /// Every AF episode onset, in arrival order.
    pub alerts: Vec<AlertEvent>,
}

/// What the gateway tells its caller per ingested packet.
#[derive(Debug, Clone, PartialEq)]
pub enum GatewayEvent {
    /// A session handshake arrived; the session is fully open.
    SessionOpened {
        /// The session.
        session: u64,
    },
    /// An AF episode started (the node's `Events` payload flipped
    /// `af_active` on).
    AfAlert {
        /// The session.
        session: u64,
        /// Message that raised the alert.
        msg_seq: u32,
        /// Reported AF burden (percent).
        af_burden_pct: u8,
    },
    /// The ongoing AF episode ended.
    AfCleared {
        /// The session.
        session: u64,
        /// Message that cleared it.
        msg_seq: u32,
    },
    /// One CS window was reconstructed.
    WindowReconstructed {
        /// The session.
        session: u64,
        /// Lead index.
        lead: u8,
        /// Window sequence number.
        window_seq: u32,
        /// PRD against the attached reference, when one covers the
        /// window (percent; lower is better).
        prd_percent: Option<f64>,
        /// The reconstructed samples. This event is their only copy:
        /// the gateway keeps none, and a recording archives the
        /// measurements they are re-solved from.
        samples: Vec<f64>,
    },
    /// A run of consecutive messages lost on the link (reassembly
    /// gap). Ranged so a long outage costs one event, not one per
    /// missing message.
    MessageLost {
        /// The session.
        session: u64,
        /// First lost sequence number of the run.
        first_seq: u32,
        /// Number of consecutive lost messages.
        count: u32,
    },
    /// A previously lost message was recovered from a NACK-driven
    /// retransmission and processed. It is out of sequence order by
    /// construction — the in-order stream already moved past it.
    MessageRecovered {
        /// The session.
        session: u64,
        /// Recovered sequence number.
        msg_seq: u32,
    },
    /// A message reassembled but could not be decoded or processed
    /// (malformed sender output, or a CS window with no handshake to
    /// regenerate Φ from). Carried as an event so the valid messages
    /// released alongside it are never discarded.
    PayloadRejected {
        /// The session.
        session: u64,
        /// Sequence number of the rejected message.
        msg_seq: u32,
        /// Why it was rejected.
        error: WbsnError,
    },
}

/// Gateway-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Packets offered to [`Gateway::ingest`].
    pub packets: u64,
    /// Packets rejected by the CRC check.
    pub crc_rejected: u64,
    /// Packets rejected for other typed reasons (truncation, bad
    /// headers, fragment conflicts).
    pub rejected: u64,
    /// Messages that reassembled but failed to decode or process
    /// (surfaced as [`GatewayEvent::PayloadRejected`]).
    pub items_rejected: u64,
    /// Payloads decoded across all sessions.
    pub payloads: u64,
    /// Messages proven lost across all sessions.
    pub messages_lost: u64,
    /// Lost messages later recovered from retransmissions.
    pub messages_recovered: u64,
    /// Cumulative-ACK downlink frames emitted.
    pub acks_sent: u64,
    /// Selective-NACK downlink frames emitted.
    pub nacks_sent: u64,
    /// Individual message retransmissions requested across all NACKs
    /// (repeat requests for the same stubborn sequence count again).
    pub retransmits_requested: u64,
    /// Adaptive-CR directives issued across all sessions.
    pub directives_issued: u64,
    /// CS windows reconstructed.
    pub windows_reconstructed: u64,
    /// CS windows skipped by [`GatewayConfig::reconstruct_every`]
    /// (decoded and counted, never solved).
    pub windows_skipped: u64,
    /// FISTA iterations spent across all reconstructions. Deterministic
    /// for a given packet stream, so the shard-determinism suite can
    /// pin that parallel decode does not change the numerics.
    pub solver_iters: u64,
}

/// Minimum pumps between repeat NACKs for the same missing sequence:
/// the node resends on every request it hears, so re-asking every
/// pump would burn its bounded retry budget before the first resend
/// had a chance to arrive.
const RENACK_INTERVAL_PUMPS: u64 = 2;

/// Retransmission requests per missing sequence before the gateway
/// gives up on it — the cumulative ACK then advances past the hole so
/// neither side keeps state for an unrecoverable message.
const MAX_RETRANSMIT_REQUESTS: u32 = 6;

/// Request history of one still-missing sequence number.
#[derive(Debug, Clone, Copy)]
struct MissingState {
    requests: u32,
    last_pump: u64,
}

/// Per-session downlink feedback state: what is missing, what was
/// already asked for, and the observation accumulators the adaptive
/// controller reads at pump time.
#[derive(Debug, Default)]
struct LinkFeedback {
    /// Still-missing sequence numbers → request history; bounded by
    /// the configured recovery window, oldest evicted.
    missing: BTreeMap<u32, MissingState>,
    pump_idx: u64,
    downlink_seq: u32,
    directive_seq: u32,
    acks_sent: u64,
    nacks_sent: u64,
    retransmits_requested: u64,
    directives_issued: u64,
    // Observations since the last pump.
    prd_sum: f64,
    prd_count: u64,
    delivered_since: u64,
    lost_since: u64,
}

impl LinkFeedback {
    /// Records a lost run as retransmission candidates, keeping the
    /// newest `bound` missing sequences (zero disables NACKs).
    fn note_lost(&mut self, first_seq: u32, count: u32, bound: u32) {
        self.lost_since += u64::from(count);
        if bound == 0 || count == 0 {
            return;
        }
        let end = u64::from(first_seq) + u64::from(count); // exclusive
        let start = end - u64::from(count.min(bound));
        for s in start..end {
            self.missing.insert(
                s as u32,
                MissingState {
                    requests: 0,
                    last_pump: 0,
                },
            );
        }
        while self.missing.len() > bound as usize {
            self.missing.pop_first();
        }
    }
}

/// Per-session link-health report (see [`Gateway::session_report`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The session.
    pub session: u64,
    /// Messages released in order.
    pub messages: u64,
    /// Messages declared lost on the uplink.
    pub lost: u64,
    /// Lost messages later recovered from retransmissions.
    pub recovered: u64,
    /// Unrecovered loss as a fraction of all resolved messages
    /// (`(lost − recovered) / (messages + lost)`), 0 for an idle
    /// session.
    pub loss_rate: f64,
    /// Cumulative-ACK frames sent to this session.
    pub acks_sent: u64,
    /// Selective-NACK frames sent to this session.
    pub nacks_sent: u64,
    /// Individual retransmissions requested (repeats count).
    pub retransmits_requested: u64,
    /// Adaptive-CR directives issued to this session.
    pub directives_issued: u64,
    /// Sequence numbers currently missing and still being chased.
    pub missing_now: u64,
    /// Compression ratio of the installed handshake (percent), when
    /// the session is open.
    pub cr_percent: Option<f64>,
}

/// A session's link counters, as [`SessionReport`] sums them.
#[derive(Debug, Clone, Copy, Default)]
struct LinkTotals {
    messages: u64,
    lost: u64,
    recovered: u64,
    acks_sent: u64,
    nacks_sent: u64,
    retransmits_requested: u64,
    directives_issued: u64,
}

/// One lead's attached PRD reference: `samples[0]` corresponds to
/// sample `offset` of the session's CS sample stream, i.e. window
/// `w` compares against `samples[w·n − offset ..][..n]`. Windows
/// outside the covered span simply report no PRD.
#[derive(Debug)]
struct LeadReference {
    offset: u64,
    samples: Vec<f64>,
}

#[derive(Debug)]
struct SessionState {
    decoder: SessionDecoder,
    feedback: LinkFeedback,
    // The link counters of the session's earlier incarnations, banked
    // when a re-registration replaces the decoder and the feedback.
    banked: LinkTotals,
    controller: Option<LinkController>,
    rhythm: RhythmState,
    // The installed handshake and the per-lead sensing matrices it
    // names, shared out of the gateway's MatrixCache on first use.
    matrices: SessionMatrices,
    // Optional per-lead reference signals for PRD reporting.
    references: BTreeMap<u8, LeadReference>,
}

impl SessionState {
    /// The link counters over every incarnation so far.
    fn totals(&self) -> LinkTotals {
        let r = self.decoder.stats();
        let fb = &self.feedback;
        let b = &self.banked;
        LinkTotals {
            messages: b.messages + r.messages,
            lost: b.lost + r.lost,
            recovered: b.recovered + r.recovered,
            acks_sent: b.acks_sent + fb.acks_sent,
            nacks_sent: b.nacks_sent + fb.nacks_sent,
            retransmits_requested: b.retransmits_requested + fb.retransmits_requested,
            directives_issued: b.directives_issued + fb.directives_issued,
        }
    }

    fn new(session: u64, window: u32, recovery: u32) -> Result<Self> {
        Ok(SessionState {
            decoder: SessionDecoder::with_windows(session, window, recovery)?,
            feedback: LinkFeedback::default(),
            banked: LinkTotals::default(),
            controller: None,
            rhythm: RhythmState::default(),
            matrices: SessionMatrices::default(),
            references: BTreeMap::new(),
        })
    }
}

/// The slice of a PRD reference that CS window `window_seq` (of `n`
/// samples) is scored against: `samples[window_seq·n − offset ..][..n]`,
/// where `samples[0]` is sample `offset` of the session's CS stream.
/// `None` when the reference does not cover the window, or when the
/// slice has zero energy: a dropped electrode reads a flat baseline,
/// against which PRD is undefined, so the window goes unscored instead
/// of tripping `prd_percent`'s zero-signal assert. The gateway and
/// archive replay pick reference windows through this one rule.
pub fn reference_window<T: Copy + Default + PartialEq>(
    samples: &[T],
    offset: u64,
    window_seq: u32,
    n: usize,
) -> Option<&[T]> {
    let start = (u64::from(window_seq) * n as u64).checked_sub(offset)? as usize;
    let orig = samples.get(start..start + n)?;
    (!orig.iter().all(|&v| v == T::default())).then_some(orig)
}

/// Whether CS window `window_seq` is reconstructed when the gateway
/// solves every `reconstruct_every`-th window (`0` reads as `1`: every
/// window). The decision depends only on `window_seq`, so it is
/// invariant to arrival order and worker count. The gateway and
/// archive replay probe windows through this one rule.
pub fn probes_window(window_seq: u32, reconstruct_every: u32) -> bool {
    window_seq.is_multiple_of(reconstruct_every.max(1))
}

/// A CS window the current call decoded and queued for its solve, and
/// where the solve's results go: the window's `WindowReconstructed`
/// event and tap item are already in place, both waiting for the PRD
/// and the event for the samples.
#[derive(Debug)]
struct PendingWindow {
    session: u64,
    msg_seq: u32,
    lead: u8,
    window_seq: u32,
    /// Window length of the handshake it was decoded under.
    n: usize,
    /// Which of the call's event lists holds its event, and where.
    list: usize,
    event: usize,
    /// Its item in the tap, when the tap is on.
    tap: Option<usize>,
}

/// Writes `event` at position `at` of `events`, when both exist.
pub(crate) fn put(events: Option<&mut Vec<GatewayEvent>>, at: usize, event: GatewayEvent) {
    if let Some(slot) = events.and_then(|events| events.get_mut(at)) {
        *slot = event;
    }
}

/// The multi-session gateway service.
#[derive(Debug)]
pub struct Gateway {
    cfg: GatewayConfig,
    cache: Arc<MatrixCache>,
    sessions: BTreeMap<u64, SessionState>,
    stats: GatewayStats,
    /// Recording tap ([`GatewayConfig::tap`]): decoded observations
    /// awaiting [`Gateway::drain_tap`]. Gateway-level (not
    /// per-session) so items surfaced by a session's closing flush
    /// survive the session-state teardown.
    tap: Vec<(u64, TapItem)>,
    /// The CS windows the current call decoded, in decode order.
    pending: Vec<PendingWindow>,
    /// Their solves, in the same order, and the solver working memory
    /// of this gateway's own calls (a [`ShardedGateway`] moves its
    /// shards' queues into one pool-wide phase instead).
    ///
    /// [`ShardedGateway`]: crate::ShardedGateway
    pub(crate) phase: SolvePhase,
}

impl Default for Gateway {
    fn default() -> Self {
        Gateway::new(GatewayConfig::default())
    }
}

impl Gateway {
    /// Gateway with the given configuration and a private
    /// [`MatrixCache`]. A zero `reorder_window` is clamped to 1 (the
    /// smallest meaningful window), so session construction can never
    /// fail mid-ingest over a config typo.
    pub fn new(cfg: GatewayConfig) -> Self {
        Gateway::with_cache(cfg, Arc::new(MatrixCache::new()))
    }

    /// Gateway sharing an existing sensing-matrix cache — how the
    /// sharded gateway's shards (and any co-located gateways) avoid
    /// rebuilding identical Φ per shard.
    pub fn with_cache(mut cfg: GatewayConfig, cache: Arc<MatrixCache>) -> Self {
        cfg.reorder_window = cfg.reorder_window.max(1);
        cfg.reconstruct_every = cfg.reconstruct_every.max(1);
        Gateway {
            phase: SolvePhase::new(cfg.solver),
            cfg,
            cache,
            sessions: BTreeMap::new(),
            stats: GatewayStats::default(),
            tap: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Drains the recording tap: every buffered [`TapItem`] grouped
    /// by session, ascending by session id, items of one session in
    /// processing order. Empty unless [`GatewayConfig::tap`] is on.
    pub fn drain_tap(&mut self) -> Vec<(u64, Vec<TapItem>)> {
        let mut by_session: BTreeMap<u64, Vec<TapItem>> = BTreeMap::new();
        for (session, item) in self.tap.drain(..) {
            by_session.entry(session).or_default().push(item);
        }
        by_session.into_iter().collect()
    }

    /// Counters so far.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// Counters of the sensing-matrix cache (shared ones include the
    /// traffic of every other gateway on the same cache).
    pub fn cache_stats(&self) -> MatrixCacheStats {
        self.cache.stats()
    }

    /// Sessions the gateway has seen packets (or registrations) for.
    pub fn session_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.sessions.keys().copied()
    }

    /// Opens (or re-opens) a session out of band (control plane), as
    /// an alternative to the in-band handshake message. Re-registering
    /// an existing session resets its link stream — fresh reassembler
    /// at sequence 0, cleared CS state, and **cleared downlink
    /// feedback** (missing set, downlink sequence, controller): stale
    /// NACK state must never ask a rebooted node (whose retransmit
    /// buffer is empty) for messages of its previous life, and the
    /// reborn stream's sequence numbers must not collide with old
    /// recovery bookkeeping. Without the reset, a long-lived
    /// reassembler would treat the reborn stream as stale stragglers
    /// forever. The rhythm/alert history is kept (it is an audit log
    /// of the subject, not of the link), and so are the link counters:
    /// [`Gateway::session_report`] sums them over every incarnation.
    ///
    /// # Errors
    ///
    /// Propagates decoder construction failures.
    pub fn register(&mut self, hs: SessionHandshake) -> Result<()> {
        let window = self.cfg.reorder_window;
        let recovery = self.cfg.recovery_window;
        let state = self.session_state(hs.session)?;
        let decoder = SessionDecoder::with_windows(hs.session, window, recovery)?;
        state.banked = state.totals();
        state.decoder = decoder;
        state.feedback = LinkFeedback::default();
        state.controller = None;
        state.matrices.install(hs);
        Ok(())
    }

    /// Attaches the transmitted original of one lead so reconstructed
    /// windows report PRD against it (evaluation harnesses only — a
    /// production gateway has no original to compare with). The
    /// reference starts at sample 0 of the CS stream; see
    /// [`Gateway::attach_reference_at`] for mid-stream references.
    ///
    /// # Errors
    ///
    /// Propagates decoder construction failures for a new session.
    pub fn attach_reference(&mut self, session: u64, lead: u8, samples: Vec<f64>) -> Result<()> {
        self.attach_reference_at(session, lead, 0, samples)
    }

    /// Attaches a PRD reference whose first sample corresponds to
    /// sample `offset_samples` of the session's CS stream: window `w`
    /// (of `n` samples) compares against
    /// `samples[w·n − offset_samples ..][..n]`, and windows outside
    /// the covered span report no PRD. This is what lets a long-running
    /// harness probe reconstruction quality segment by segment without
    /// ever holding the whole session's original in memory. Attaching
    /// replaces the lead's previous reference.
    ///
    /// # Errors
    ///
    /// Propagates decoder construction failures for a new session.
    pub fn attach_reference_at(
        &mut self,
        session: u64,
        lead: u8,
        offset_samples: u64,
        samples: Vec<f64>,
    ) -> Result<()> {
        let state = self.session_state(session)?;
        state.references.insert(
            lead,
            LeadReference {
                offset: offset_samples,
                samples,
            },
        );
        Ok(())
    }

    /// Rhythm/alert state of one session.
    pub fn rhythm(&self, session: u64) -> Option<&RhythmState> {
        self.sessions.get(&session).map(|s| &s.rhythm)
    }

    /// The handshake of one session, when received.
    pub fn handshake(&self, session: u64) -> Option<&SessionHandshake> {
        self.sessions
            .get(&session)
            .and_then(|s| s.matrices.handshake())
    }

    /// Ingests one raw packet off the channel: CRC check, session
    /// routing, reassembly, decoding, and whatever state updates the
    /// decoded items imply. Returns the events this packet produced.
    ///
    /// # Errors
    ///
    /// Packet-level rejections are typed errors:
    /// [`LinkError::CrcMismatch`] for corruption (counted in
    /// [`GatewayStats::crc_rejected`]) and truncation/header/conflict
    /// errors from the link layer; a rejected packet never changes
    /// payload-visible state. Message-level problems — a payload that
    /// reassembled but cannot be decoded, or a CS window whose session
    /// has no handshake ([`LinkError::NoHandshake`]) — surface as
    /// [`GatewayEvent::PayloadRejected`] events instead, so the valid
    /// messages released by the same packet are never discarded.
    ///
    /// A CS window is decoded and queued first, then solved, then
    /// completed (its PRD, tap item and event): the three steps of
    /// every call that can release windows, run here on this thread.
    pub fn ingest(&mut self, raw: &[u8]) -> Result<Vec<GatewayEvent>> {
        let mut events = self.decode(raw, 0)?;
        self.solve_pending(|_, at, event| put(Some(&mut events), at, event));
        Ok(events)
    }

    /// Step 1 of [`Gateway::ingest`]: decodes one packet, queueing its
    /// CS windows with their events written to list `list` of the call.
    pub(crate) fn decode(&mut self, raw: &[u8], list: usize) -> Result<Vec<GatewayEvent>> {
        self.stats.packets += 1;
        let pkt = match LinkPacket::decode(raw) {
            Ok(p) => p,
            Err(e) => {
                if matches!(e, WbsnError::Link(LinkError::CrcMismatch { .. })) {
                    self.stats.crc_rejected += 1;
                } else {
                    self.stats.rejected += 1;
                }
                return Err(e);
            }
        };
        let state = self.session_state(pkt.session)?;
        let mut items = Vec::new();
        if let Err(e) = state.decoder.accept(&pkt, &mut items) {
            self.stats.rejected += 1;
            return Err(e);
        }
        Ok(self.handle_items(pkt.session, items, list))
    }

    /// End of stream: drains every session's reassembler and processes
    /// the tails (sessions in id order).
    pub fn flush_sessions(&mut self) -> Vec<GatewayEvent> {
        self.flush_sessions_tagged()
            .into_iter()
            .flat_map(|(_, ev)| ev)
            .collect()
    }

    /// [`Gateway::flush_sessions`] with each session's events grouped
    /// under its id (ids ascending). The sharded gateway merges its
    /// shards' flushes through this form so the merged order is
    /// identical to a single gateway's.
    pub fn flush_sessions_tagged(&mut self) -> Vec<(u64, Vec<GatewayEvent>)> {
        let mut lists = self.decode_flush();
        self.solve_pending(|list, at, event| put(lists.get_mut(list).map(|l| &mut l.1), at, event));
        lists
    }

    /// Step 1 of [`Gateway::flush_sessions_tagged`]: session `k` (in
    /// id order) writes its events to list `k`.
    pub(crate) fn decode_flush(&mut self) -> Vec<(u64, Vec<GatewayEvent>)> {
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        ids.into_iter()
            .enumerate()
            .map(|(list, id)| {
                let mut items = Vec::new();
                if let Some(state) = self.sessions.get_mut(&id) {
                    state.decoder.flush(&mut items);
                }
                (id, self.handle_items(id, items, list))
            })
            .collect()
    }

    /// Steps 2 and 3 of a call on this thread: solves the pending
    /// windows with this gateway's own phase and completes them.
    fn solve_pending(&mut self, patch: impl FnMut(usize, usize, GatewayEvent)) {
        if self.pending.is_empty() {
            return;
        }
        let mut phase = core::mem::replace(&mut self.phase, SolvePhase::new(self.cfg.solver));
        self.complete(phase.run(1), patch);
        self.phase = phase;
    }

    /// Windows queued by the current call and not yet completed.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Drops the current call's pending windows and their queued
    /// solves, for a call that failed before its solve phase.
    pub(crate) fn abandon_pending(&mut self) {
        self.pending.clear();
        self.phase.clear();
    }

    /// Step 3 of a call: completes the pending windows in decode order
    /// from their `solves` (one each, in the same order), writing each
    /// window's final event through `patch(list, position, event)`.
    /// A solved window gets its PRD, its samples (in the event) and
    /// its counters exactly as an in-line solve would have; a
    /// failed one becomes a [`GatewayEvent::PayloadRejected`] in its
    /// place, its tap item left as a measurements-only one.
    pub(crate) fn complete(
        &mut self,
        mut solves: impl Iterator<Item = Result<FistaSolve>>,
        mut patch: impl FnMut(usize, usize, GatewayEvent),
    ) {
        let mut pending = core::mem::take(&mut self.pending);
        for window in pending.drain(..) {
            let solve = solves
                .next()
                .unwrap_or(Err(WbsnError::WorkerLost { shard: 0 }));
            let event = match solve {
                Ok(solve) => self.finish_window(&window, solve),
                Err(error) => {
                    self.stats.items_rejected += 1;
                    GatewayEvent::PayloadRejected {
                        session: window.session,
                        msg_seq: window.msg_seq,
                        error,
                    }
                }
            };
            patch(window.list, window.event, event);
        }
        debug_assert!(
            solves.next().is_none(),
            "every queued window is completed exactly once"
        );
        self.pending = pending;
    }

    /// A solved window's PRD, counters and tap item; returns its event,
    /// which takes the solve's samples.
    fn finish_window(&mut self, window: &PendingWindow, solve: FistaSolve) -> GatewayEvent {
        let PendingWindow {
            session,
            lead,
            window_seq,
            n,
            ..
        } = *window;
        self.stats.solver_iters += solve.iters as u64;
        self.stats.windows_reconstructed += 1;
        let state = self.sessions.get_mut(&session);
        let prd = state
            .as_ref()
            .and_then(|state| state.references.get(&lead))
            .and_then(|r| reference_window(&r.samples, r.offset, window_seq, n))
            .map(|orig| prd_percent(orig, &solve.x));
        if let Some(TapItem::CsWindow {
            prd: tapped_prd, ..
        }) = window
            .tap
            .and_then(|i| self.tap.get_mut(i))
            .map(|(_, item)| item)
        {
            // The live PRD is replay's comparison baseline; replay
            // re-solves the samples from the tapped measurements.
            *tapped_prd = prd;
        }
        if let (Some(state), Some(p)) = (state, prd) {
            state.feedback.prd_sum += p;
            state.feedback.prd_count += 1;
        }
        GatewayEvent::WindowReconstructed {
            session,
            lead,
            window_seq,
            prd_percent: prd,
            samples: solve.x,
        }
    }

    /// One downlink pump: for every session (ids ascending) emits the
    /// feedback frames the node should hear *now*, as raw wire bytes
    /// ready for the return channel.
    ///
    /// * Always one [`DownlinkFrame::Ack`] or [`DownlinkFrame::Nack`]
    ///   carrying the cumulative ACK — the lowest still-missing
    ///   sequence when one exists, else the reassembler's in-order
    ///   cursor, so the node never trims a message the gateway may yet
    ///   ask for. NACKs list up to [`NACK_MAX_MISSING`] missing
    ///   sequences, pacing repeats (`RENACK_INTERVAL_PUMPS` pumps
    ///   apart, capped at `MAX_RETRANSMIT_REQUESTS` per sequence —
    ///   then the gateway gives the sequence up and the ACK advances
    ///   past the hole).
    /// * When a [`ControllerConfig`] is configured and the session is
    ///   open, the per-session [`LinkController`] reads the window's
    ///   observations (mean PRD, loss rate) and may append one
    ///   [`DownlinkFrame::Directive`].
    ///
    /// Deterministic: same ingest history, same pump cadence → the
    /// same frames, bit for bit. The sharded gateway merges its
    /// shards' pumps by ascending session id into the identical
    /// sequence.
    pub fn pump_downlink(&mut self) -> Vec<(u64, Vec<Vec<u8>>)> {
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        let controller_cfg = self.cfg.controller.clone();
        let mut out = Vec::new();
        for id in ids {
            let Some(state) = self.sessions.get_mut(&id) else {
                continue;
            };
            let fb = &mut state.feedback;
            fb.pump_idx += 1;
            let pump = fb.pump_idx;
            // Give up on sequences already asked for too often.
            fb.missing
                .retain(|_, m| m.requests < MAX_RETRANSMIT_REQUESTS);
            let cum_ack = fb
                .missing
                .first_key_value()
                .map(|(&s, _)| s)
                .unwrap_or_else(|| state.decoder.next_seq());
            let mut request: Vec<u32> = Vec::new();
            for (&seq, m) in fb.missing.iter_mut() {
                if request.len() >= NACK_MAX_MISSING {
                    break;
                }
                if m.requests == 0 || pump.saturating_sub(m.last_pump) >= RENACK_INTERVAL_PUMPS {
                    m.requests += 1;
                    m.last_pump = pump;
                    request.push(seq);
                }
            }
            let mut frames = Vec::new();
            let frame = if request.is_empty() {
                fb.acks_sent += 1;
                self.stats.acks_sent += 1;
                DownlinkFrame::Ack { cum_ack }
            } else {
                fb.nacks_sent += 1;
                fb.retransmits_requested += request.len() as u64;
                self.stats.nacks_sent += 1;
                self.stats.retransmits_requested += request.len() as u64;
                DownlinkFrame::Nack {
                    cum_ack,
                    missing: request,
                }
            };
            let seq = fb.downlink_seq;
            fb.downlink_seq = fb.downlink_seq.wrapping_add(1);
            frames.push(frame.to_wire(id, seq));
            // Adaptive CR: one directive at most per pump, dwell-gated
            // inside the controller.
            if let (Some(cc), Some(hs)) = (&controller_cfg, state.matrices.handshake()) {
                let cr_now = hs.cr_percent();
                let mean_prd = (fb.prd_count > 0).then(|| fb.prd_sum / fb.prd_count as f64);
                let resolved = fb.delivered_since + fb.lost_since;
                let loss_rate = (resolved > 0).then(|| fb.lost_since as f64 / resolved as f64);
                let ctrl = state
                    .controller
                    .get_or_insert_with(|| LinkController::new(cc.clone()));
                if let Some(action) = ctrl.observe(cr_now, mean_prd, loss_rate) {
                    let fb = &mut state.feedback;
                    let directive = DirectiveFrame {
                        directive_seq: fb.directive_seq,
                        action,
                    };
                    fb.directive_seq = fb.directive_seq.wrapping_add(1);
                    fb.directives_issued += 1;
                    self.stats.directives_issued += 1;
                    let seq = fb.downlink_seq;
                    fb.downlink_seq = fb.downlink_seq.wrapping_add(1);
                    frames.push(DownlinkFrame::Directive(directive).to_wire(id, seq));
                }
            }
            // The observation window closes with the pump.
            let fb = &mut state.feedback;
            fb.prd_sum = 0.0;
            fb.prd_count = 0;
            fb.delivered_since = 0;
            fb.lost_since = 0;
            out.push((id, frames));
        }
        out
    }

    /// Link-health report of one session, or `None` for a session this
    /// gateway never saw. The counters cover every incarnation of the
    /// session: [`Gateway::register`] banks them before it resets the
    /// link stream.
    pub fn session_report(&self, session: u64) -> Option<SessionReport> {
        let state = self.sessions.get(&session)?;
        let t = state.totals();
        let resolved = t.messages + t.lost;
        let unrecovered = t.lost.saturating_sub(t.recovered);
        Some(SessionReport {
            session,
            messages: t.messages,
            lost: t.lost,
            recovered: t.recovered,
            loss_rate: if resolved > 0 {
                unrecovered as f64 / resolved as f64
            } else {
                0.0
            },
            acks_sent: t.acks_sent,
            nacks_sent: t.nacks_sent,
            retransmits_requested: t.retransmits_requested,
            directives_issued: t.directives_issued,
            missing_now: state.feedback.missing.len() as u64,
            cr_percent: state.matrices.handshake().map(SessionHandshake::cr_percent),
        })
    }

    /// Link-health reports of every session, ids ascending.
    pub fn session_reports(&self) -> Vec<SessionReport> {
        self.sessions
            .keys()
            .filter_map(|&id| self.session_report(id))
            .collect()
    }

    /// Closes one session: drains its reassembler tail, processes it,
    /// and drops all per-session state (decoder, rhythm log, sensing
    /// matrices, references). Returns the tail's events,
    /// or `None` for a session this gateway never saw.
    pub fn close_session(&mut self, session: u64) -> Option<Vec<GatewayEvent>> {
        let mut events = self.decode_close(session)?;
        self.solve_pending(|_, at, event| put(Some(&mut events), at, event));
        self.sessions.remove(&session);
        Some(events)
    }

    /// Step 1 of [`Gateway::close_session`]: the session's tail, with
    /// its events in list 0. The caller removes the session once the
    /// tail's windows are complete.
    pub(crate) fn decode_close(&mut self, session: u64) -> Option<Vec<GatewayEvent>> {
        let state = self.sessions.get_mut(&session)?;
        let mut items = Vec::new();
        state.decoder.flush(&mut items);
        Some(self.handle_items(session, items, 0))
    }

    /// Drops one session's state (after [`Gateway::decode_close`]).
    pub(crate) fn remove_session(&mut self, session: u64) {
        self.sessions.remove(&session);
    }

    fn session_state(&mut self, session: u64) -> Result<&mut SessionState> {
        let window = self.cfg.reorder_window;
        let recovery = self.cfg.recovery_window;
        Ok(match self.sessions.entry(session) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(SessionState::new(session, window, recovery)?)
            }
        })
    }

    fn handle_items(
        &mut self,
        session: u64,
        items: Vec<SessionItem>,
        list: usize,
    ) -> Vec<GatewayEvent> {
        let mut events = Vec::new();
        for item in items {
            match item {
                SessionItem::Lost { first_seq, count } => {
                    self.stats.messages_lost += u64::from(count);
                    let bound = self.cfg.recovery_window;
                    if let Some(state) = self.sessions.get_mut(&session) {
                        state.feedback.note_lost(first_seq, count, bound);
                    }
                    events.push(GatewayEvent::MessageLost {
                        session,
                        first_seq,
                        count,
                    });
                    if self.cfg.tap {
                        self.tap.push((session, TapItem::Lost { first_seq, count }));
                    }
                }
                SessionItem::Rejected { msg_seq, error } => {
                    self.stats.items_rejected += 1;
                    events.push(GatewayEvent::PayloadRejected {
                        session,
                        msg_seq,
                        error,
                    });
                }
                SessionItem::Handshake(hs) => {
                    if let Some(state) = self.sessions.get_mut(&session) {
                        state.matrices.install(hs);
                        events.push(GatewayEvent::SessionOpened { session });
                        if self.cfg.tap {
                            self.tap.push((session, TapItem::Handshake(hs)));
                        }
                    }
                }
                SessionItem::Payload { msg_seq, payload } => {
                    self.stats.payloads += 1;
                    if let Some(state) = self.sessions.get_mut(&session) {
                        state.feedback.delivered_since += 1;
                    }
                    if let Err(error) =
                        self.handle_payload(session, msg_seq, payload, list, &mut events)
                    {
                        self.stats.items_rejected += 1;
                        events.push(GatewayEvent::PayloadRejected {
                            session,
                            msg_seq,
                            error,
                        });
                    }
                }
                SessionItem::RecoveredHandshake { msg_seq, hs } => {
                    self.stats.messages_recovered += 1;
                    if let Some(state) = self.sessions.get_mut(&session) {
                        state.feedback.missing.remove(&msg_seq);
                        events.push(GatewayEvent::MessageRecovered { session, msg_seq });
                        state.matrices.install(hs);
                        events.push(GatewayEvent::SessionOpened { session });
                        if self.cfg.tap {
                            self.tap.push((session, TapItem::Recovered { msg_seq }));
                            self.tap.push((session, TapItem::Handshake(hs)));
                        }
                    }
                }
                SessionItem::Recovered { msg_seq, payload } => {
                    self.stats.payloads += 1;
                    self.stats.messages_recovered += 1;
                    if let Some(state) = self.sessions.get_mut(&session) {
                        state.feedback.missing.remove(&msg_seq);
                    }
                    if self.cfg.tap {
                        self.tap.push((session, TapItem::Recovered { msg_seq }));
                    }
                    events.push(GatewayEvent::MessageRecovered { session, msg_seq });
                    if let Err(error) =
                        self.handle_payload(session, msg_seq, payload, list, &mut events)
                    {
                        self.stats.items_rejected += 1;
                        events.push(GatewayEvent::PayloadRejected {
                            session,
                            msg_seq,
                            error,
                        });
                    }
                }
            }
        }
        events
    }

    fn handle_payload(
        &mut self,
        session: u64,
        msg_seq: u32,
        payload: Payload,
        list: usize,
        events: &mut Vec<GatewayEvent>,
    ) -> Result<()> {
        let Some(state) = self.sessions.get_mut(&session) else {
            // `ingest` routes through `session_state` before any item
            // reaches here, but a typed error keeps the wire surface
            // panic-free even if that routing ever changes.
            return Err(LinkError::NoHandshake { session }.into());
        };
        match payload {
            Payload::Events {
                n_beats,
                mean_hr_x10,
                af_burden_pct,
                af_active,
                ..
            } => {
                if self.cfg.tap {
                    self.tap.push((
                        session,
                        TapItem::Rhythm {
                            msg_seq,
                            n_beats,
                            mean_hr_x10,
                            af_burden_pct,
                            af_active,
                        },
                    ));
                }
                let was_active = state.rhythm.af_active;
                state.rhythm.af_active = af_active;
                state.rhythm.af_burden_pct = af_burden_pct;
                state.rhythm.mean_hr_x10 = mean_hr_x10;
                state.rhythm.beats_reported += u64::from(n_beats);
                state.rhythm.events_seen += 1;
                if af_active && !was_active {
                    state.rhythm.alerts.push(AlertEvent {
                        msg_seq,
                        af_burden_pct,
                    });
                    events.push(GatewayEvent::AfAlert {
                        session,
                        msg_seq,
                        af_burden_pct,
                    });
                } else if !af_active && was_active {
                    events.push(GatewayEvent::AfCleared { session, msg_seq });
                }
            }
            Payload::Beats { beats } => {
                state.rhythm.beats_received += beats.len() as u64;
                if self.cfg.tap {
                    self.tap.push((session, TapItem::Beats { msg_seq, beats }));
                }
            }
            Payload::CsWindow {
                lead,
                window_seq,
                measurements,
            } => {
                let Some(&hs) = state.matrices.handshake() else {
                    return Err(LinkError::NoHandshake { session }.into());
                };
                if !probes_window(window_seq, self.cfg.reconstruct_every) {
                    self.stats.windows_skipped += 1;
                    if self.cfg.tap {
                        // Skipped windows are still archived — the
                        // measurements are what replay re-solves from.
                        self.tap.push((
                            session,
                            TapItem::CsWindow {
                                lead,
                                window_seq,
                                prd: None,
                                measurements,
                            },
                        ));
                    }
                    return Ok(());
                }
                let (enc, lip) = state
                    .matrices
                    .lead(lead, &self.cache, self.phase.solver())?;
                // The value path i16 → i64 (reassembly) → f64 (solver
                // front end) is exact at every step. The solve runs in
                // the call's solve phase; its event and tap item are
                // reserved here, in order, and completed afterwards.
                self.phase
                    .push(&enc, lip, measurements.iter().map(|&v| v as i64 as f64))?;
                let tap = if self.cfg.tap {
                    self.tap.push((
                        session,
                        TapItem::CsWindow {
                            lead,
                            window_seq,
                            prd: None,
                            measurements,
                        },
                    ));
                    Some(self.tap.len() - 1)
                } else {
                    None
                };
                self.pending.push(PendingWindow {
                    session,
                    msg_seq,
                    lead,
                    window_seq,
                    n: hs.cs_window as usize,
                    list,
                    event: events.len(),
                    tap,
                });
                events.push(GatewayEvent::WindowReconstructed {
                    session,
                    lead,
                    window_seq,
                    prd_percent: None,
                    samples: Vec::new(),
                });
            }
            Payload::RawChunk { .. } => {
                // Raw chunks need no gateway-side processing; they are
                // the signal. Counted via `stats.payloads`.
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_core::level::ProcessingLevel;
    use wbsn_core::link::Uplink;
    use wbsn_core::monitor::MonitorBuilder;
    use wbsn_ecg_synth::noise::NoiseConfig;
    use wbsn_ecg_synth::{RecordBuilder, Rhythm};

    #[test]
    fn af_alert_surfaces_and_logs() {
        let rec = RecordBuilder::new(7)
            .duration_s(60.0)
            .n_leads(3)
            .rhythm(Rhythm::AtrialFibrillation { mean_hr_bpm: 95.0 })
            .noise(NoiseConfig::ambulatory(20.0))
            .build();
        let mut node = MonitorBuilder::new()
            .level(ProcessingLevel::Classified)
            .build()
            .unwrap();
        let payloads = node.process_record(&rec).unwrap();
        let mut uplink = Uplink::new();
        let mut packets = Vec::new();
        uplink
            .open_session(
                &SessionHandshake::for_config(1, node.config()),
                &mut packets,
            )
            .unwrap();
        uplink.frame(1, &payloads, &mut packets).unwrap();
        let mut gw = Gateway::default();
        let mut events = Vec::new();
        for p in &packets {
            events.extend(gw.ingest(p).unwrap());
        }
        events.extend(gw.flush_sessions());
        assert!(events
            .iter()
            .any(|e| matches!(e, GatewayEvent::AfAlert { session: 1, .. })));
        let rhythm = gw.rhythm(1).unwrap();
        assert!(!rhythm.alerts.is_empty());
        assert!(rhythm.events_seen > 0);
    }

    #[test]
    fn cs_windows_reconstruct_with_prd_against_reference() {
        let rec = RecordBuilder::new(21)
            .duration_s(10.0)
            .n_leads(1)
            .noise(NoiseConfig::clean())
            .build();
        let mut node = MonitorBuilder::new()
            .level(ProcessingLevel::CompressedSingleLead)
            .n_leads(1)
            .cs_compression_ratio(50.0)
            .build()
            .unwrap();
        let payloads = node.process_record(&rec).unwrap();
        let mut uplink = Uplink::new();
        let mut packets = Vec::new();
        uplink
            .open_session(
                &SessionHandshake::for_config(4, node.config()),
                &mut packets,
            )
            .unwrap();
        uplink.frame(4, &payloads, &mut packets).unwrap();
        let mut gw = Gateway::default();
        gw.attach_reference(4, 0, rec.lead(0).iter().map(|&v| v as f64).collect())
            .unwrap();
        let mut events = Vec::new();
        for p in &packets {
            events.extend(gw.ingest(p).unwrap());
        }
        events.extend(gw.flush_sessions());
        let prds: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                GatewayEvent::WindowReconstructed {
                    prd_percent: Some(prd),
                    samples,
                    ..
                } => {
                    assert_eq!(samples.len(), 512, "the event carries the window");
                    Some(*prd)
                }
                _ => None,
            })
            .collect();
        assert!(prds.len() >= 4, "windows {}", prds.len());
        let avg = prds.iter().sum::<f64>() / prds.len() as f64;
        assert!(avg < 9.0, "avg PRD {avg}%");
    }

    /// Shared setup for the reconstruct_every / mid-stream-reference
    /// tests: one clean single-lead CS session, framed and ready to
    /// ingest, with its original lead returned for references.
    fn cs_session_packets(session: u64) -> (Vec<Vec<u8>>, Vec<f64>) {
        let rec = RecordBuilder::new(21)
            .duration_s(10.0)
            .n_leads(1)
            .noise(NoiseConfig::clean())
            .build();
        let mut node = MonitorBuilder::new()
            .level(ProcessingLevel::CompressedSingleLead)
            .n_leads(1)
            .cs_compression_ratio(50.0)
            .build()
            .unwrap();
        let payloads = node.process_record(&rec).unwrap();
        let mut uplink = Uplink::new();
        let mut packets = Vec::new();
        uplink
            .open_session(
                &SessionHandshake::for_config(session, node.config()),
                &mut packets,
            )
            .unwrap();
        uplink.frame(session, &payloads, &mut packets).unwrap();
        let original = rec.lead(0).iter().map(|&v| v as f64).collect();
        (packets, original)
    }

    fn run_cs(gw: &mut Gateway, packets: &[Vec<u8>]) -> Vec<GatewayEvent> {
        let mut events = Vec::new();
        for p in packets {
            events.extend(gw.ingest(p).unwrap());
        }
        events.extend(gw.flush_sessions());
        events
    }

    #[test]
    fn reconstruct_every_probes_periodically() {
        // Every solve is independent of the windows before it, so
        // skipping some leaves the others' PRDs unchanged.
        let (packets, original) = cs_session_packets(6);
        let mut full = Gateway::new(GatewayConfig::default());
        full.attach_reference(6, 0, original.clone()).unwrap();
        let full_events = run_cs(&mut full, &packets);
        let total = full.stats().windows_reconstructed;
        assert!(total >= 4);

        let mut probing = Gateway::new(GatewayConfig {
            reconstruct_every: 3,
            ..GatewayConfig::default()
        });
        probing.attach_reference(6, 0, original).unwrap();
        let probe_events = run_cs(&mut probing, &packets);
        // Every window was either solved or counted as skipped…
        let s = probing.stats();
        assert_eq!(s.windows_reconstructed + s.windows_skipped, total);
        assert!(s.windows_skipped > 0);
        // …and solved windows are exactly the window_seq multiples of
        // 3, with PRDs identical to the full run's (cold-solve inputs
        // are unchanged; only which windows get solved differs).
        let pick = |events: &[GatewayEvent]| -> Vec<(u32, Option<f64>)> {
            events
                .iter()
                .filter_map(|e| match e {
                    GatewayEvent::WindowReconstructed {
                        window_seq,
                        prd_percent,
                        ..
                    } => Some((*window_seq, *prd_percent)),
                    _ => None,
                })
                .collect()
        };
        let probed = pick(&probe_events);
        assert!(probed.iter().all(|(seq, _)| seq % 3 == 0));
        let full_map: Vec<(u32, Option<f64>)> = pick(&full_events)
            .into_iter()
            .filter(|(seq, _)| seq % 3 == 0)
            .collect();
        assert_eq!(probed.len(), full_map.len());
        for ((sa, pa), (sb, pb)) in probed.iter().zip(&full_map) {
            assert_eq!(sa, sb);
            assert_eq!(pa.unwrap(), pb.unwrap(), "window {sa}");
        }
        // Zero clamps to 1 — everything reconstructs.
        let mut clamped = Gateway::new(GatewayConfig {
            reconstruct_every: 0,
            ..GatewayConfig::default()
        });
        run_cs(&mut clamped, &packets);
        assert_eq!(clamped.stats().windows_reconstructed, total);
        assert_eq!(clamped.stats().windows_skipped, 0);
    }

    #[test]
    fn mid_stream_reference_scopes_prd() {
        let (packets, original) = cs_session_packets(8);
        // Full reference for ground truth.
        let mut full = Gateway::default();
        full.attach_reference(8, 0, original.clone()).unwrap();
        let full_events = run_cs(&mut full, &packets);
        let n = 512usize;
        // Mid-stream reference covering only windows 2 and 3.
        let offset = 2 * n as u64;
        let mut gw = Gateway::default();
        gw.attach_reference_at(8, 0, offset, original[2 * n..4 * n].to_vec())
            .unwrap();
        let events = run_cs(&mut gw, &packets);
        let prd_of = |events: &[GatewayEvent], want: u32| -> Option<f64> {
            events.iter().find_map(|e| match e {
                GatewayEvent::WindowReconstructed {
                    window_seq,
                    prd_percent,
                    ..
                } if *window_seq == want => Some(*prd_percent),
                _ => None,
            })?
        };
        // Windows outside the span report no PRD; inside, the PRD is
        // exactly what the full reference reports.
        assert_eq!(prd_of(&events, 0), None);
        assert_eq!(prd_of(&events, 1), None);
        for w in 2..4u32 {
            let scoped = prd_of(&events, w).expect("covered window has PRD");
            assert_eq!(scoped, prd_of(&full_events, w).unwrap(), "window {w}");
        }
    }

    #[test]
    fn zero_energy_reference_window_reports_no_prd() {
        // A dropped electrode reads a flat baseline: the reference
        // window has zero signal energy and PRD is undefined there.
        // The window must come back unscored — not kill the worker
        // through `prd_percent`'s zero-signal assert.
        let rec = RecordBuilder::new(23)
            .duration_s(4.1)
            .n_leads(1)
            .noise(NoiseConfig::clean())
            .build();
        let mut node = MonitorBuilder::new()
            .level(ProcessingLevel::CompressedSingleLead)
            .n_leads(1)
            .cs_compression_ratio(50.0)
            .build()
            .unwrap();
        let payloads = node.process_record(&rec).unwrap();
        let mut uplink = Uplink::new();
        let mut packets = Vec::new();
        uplink
            .open_session(
                &SessionHandshake::for_config(5, node.config()),
                &mut packets,
            )
            .unwrap();
        uplink.frame(5, &payloads, &mut packets).unwrap();
        let mut gw = Gateway::default();
        gw.attach_reference(5, 0, vec![0.0; rec.n_samples()])
            .unwrap();
        let mut windows = 0;
        for p in &packets {
            for ev in gw.ingest(p).unwrap() {
                if let GatewayEvent::WindowReconstructed { prd_percent, .. } = ev {
                    assert_eq!(prd_percent, None);
                    windows += 1;
                }
            }
        }
        assert_eq!(windows, 2);
        assert_eq!(gw.stats().windows_reconstructed, 2);
    }

    #[test]
    fn reregistration_recovers_a_restarted_node() {
        let p = Payload::Events {
            n_beats: 4,
            class_counts: [4, 0, 0, 0],
            mean_hr_x10: 650,
            af_burden_pct: 0,
            af_active: false,
        };
        let hs = SessionHandshake {
            version: wbsn_core::link::PROTOCOL_VERSION,
            session: 3,
            fs_hz: 250,
            n_leads: 3,
            cs_window: 512,
            cs_measurements: 256,
            cs_d_per_col: 4,
            seed: 9,
        };
        let mut gw = Gateway::default();
        // First life of the node: handshake + 5 payloads.
        let mut framer = wbsn_core::link::LinkFramer::new(3);
        let mut packets = Vec::new();
        framer.frame_handshake(&hs, &mut packets).unwrap();
        for _ in 0..5 {
            framer.frame_payload(&p, &mut packets).unwrap();
        }
        for raw in &packets {
            gw.ingest(raw).unwrap();
        }
        assert_eq!(gw.stats().payloads, 5);
        // The node reboots: its framer restarts at message 0. Without
        // re-registration the reborn stream is stale to the old
        // reassembler...
        let mut reborn = wbsn_core::link::LinkFramer::new(3);
        let mut packets = Vec::new();
        reborn.frame_handshake(&hs, &mut packets).unwrap();
        reborn.frame_payload(&p, &mut packets).unwrap();
        for raw in &packets {
            assert!(gw.ingest(raw).unwrap().is_empty());
        }
        assert_eq!(gw.stats().payloads, 5, "stale stream must not decode");
        // ... and with it, the stream decodes again from sequence 0.
        gw.register(hs).unwrap();
        let mut packets = Vec::new();
        let mut reborn = wbsn_core::link::LinkFramer::new(3);
        reborn.frame_handshake(&hs, &mut packets).unwrap();
        reborn.frame_payload(&p, &mut packets).unwrap();
        let mut events = Vec::new();
        for raw in &packets {
            events.extend(gw.ingest(raw).unwrap());
        }
        assert_eq!(gw.stats().payloads, 6);
        assert!(events
            .iter()
            .any(|e| matches!(e, GatewayEvent::SessionOpened { session: 3 })));
    }

    #[test]
    fn nack_driven_retransmission_recovers_a_lost_message() {
        use wbsn_core::retransmit::{RetransmitBuffer, RetransmitConfig};

        let hs = SessionHandshake {
            version: wbsn_core::link::PROTOCOL_VERSION,
            session: 6,
            fs_hz: 250,
            n_leads: 1,
            cs_window: 256,
            cs_measurements: 128,
            cs_d_per_col: 4,
            seed: 1,
        };
        let payload = Payload::Events {
            n_beats: 2,
            class_counts: [2, 0, 0, 0],
            mean_hr_x10: 700,
            af_burden_pct: 0,
            af_active: false,
        };
        let mut gw = Gateway::new(GatewayConfig {
            reorder_window: 4,
            recovery_window: 16,
            ..GatewayConfig::default()
        });
        let mut uplink = wbsn_core::link::Uplink::new();
        let mut node_buf = RetransmitBuffer::new(RetransmitConfig::default()).unwrap();
        let mut rt_events = Vec::new();
        let mut wire = Vec::new();
        uplink.open_session(&hs, &mut wire).unwrap();
        for raw in wire.drain(..) {
            gw.ingest(&raw).unwrap();
        }
        // 12 payload messages; message 5 is dropped by the "channel"
        // but retained in the node's retransmit buffer.
        for _ in 0..12 {
            let mut pkts = Vec::new();
            let msg_seq = uplink.frame_one(6, &payload, &mut pkts).unwrap();
            node_buf.record(msg_seq, &pkts, &mut rt_events);
            if msg_seq == 5 {
                continue;
            }
            for raw in &pkts {
                gw.ingest(raw).unwrap();
            }
        }
        assert_eq!(gw.stats().messages_lost, 1);
        assert_eq!(gw.stats().payloads, 11);
        // First pump: a NACK naming message 5, cum-ack stuck below it.
        let pumped = gw.pump_downlink();
        assert_eq!(pumped.len(), 1);
        let (session, frames) = &pumped[0];
        assert_eq!(*session, 6);
        assert_eq!(frames.len(), 1);
        let frame = DownlinkFrame::from_wire(&frames[0]).unwrap();
        assert_eq!(
            frame,
            DownlinkFrame::Nack {
                cum_ack: 5,
                missing: vec![5],
            }
        );
        // The node hears it: everything below 5 is trimmed, message 5
        // is resent.
        let mut resent = Vec::new();
        assert!(node_buf.on_frame(&frame, &mut resent, &mut rt_events));
        assert!(!resent.is_empty());
        assert_eq!(node_buf.buffered_messages(), 8, "0..5 trimmed, 5.. kept");
        let mut events = Vec::new();
        for raw in &resent {
            events.extend(gw.ingest(raw).unwrap());
        }
        assert!(events.iter().any(|e| matches!(
            e,
            GatewayEvent::MessageRecovered {
                session: 6,
                msg_seq: 5
            }
        )));
        assert_eq!(gw.stats().messages_recovered, 1);
        assert_eq!(gw.stats().payloads, 12, "the recovered payload counts");
        // Next pump: the hole is gone, the cumulative ACK covers the
        // whole stream (handshake + 12 payloads = sequences 0..=12).
        let pumped = gw.pump_downlink();
        let frame = DownlinkFrame::from_wire(&pumped[0].1[0]).unwrap();
        assert_eq!(frame, DownlinkFrame::Ack { cum_ack: 13 });
        node_buf.on_frame(&frame, &mut resent, &mut rt_events);
        assert_eq!(node_buf.buffered_messages(), 0);
        // The report reflects the episode: one loss, fully recovered.
        let report = gw.session_report(6).unwrap();
        assert_eq!(report.lost, 1);
        assert_eq!(report.recovered, 1);
        assert_eq!(report.loss_rate, 0.0);
        assert_eq!(report.nacks_sent, 1);
        assert_eq!(report.acks_sent, 1);
        assert_eq!(report.retransmits_requested, 1);
        assert_eq!(report.directives_issued, 0);
        assert_eq!(report.missing_now, 0);
        assert_eq!(report.cr_percent, Some(50.0));
    }

    #[test]
    fn reregistration_discards_stale_nack_state() {
        let hs = SessionHandshake {
            version: wbsn_core::link::PROTOCOL_VERSION,
            session: 2,
            fs_hz: 250,
            n_leads: 1,
            cs_window: 256,
            cs_measurements: 128,
            cs_d_per_col: 4,
            seed: 3,
        };
        let payload = Payload::Events {
            n_beats: 1,
            class_counts: [1, 0, 0, 0],
            mean_hr_x10: 600,
            af_burden_pct: 0,
            af_active: false,
        };
        let mut gw = Gateway::new(GatewayConfig {
            reorder_window: 2,
            recovery_window: 8,
            ..GatewayConfig::default()
        });
        gw.register(hs).unwrap();
        // First life: messages 0..6 with 2 dropped → a missing entry.
        let mut framer = wbsn_core::link::LinkFramer::new(2);
        let mut wire = Vec::new();
        for _ in 0..6 {
            framer.frame_payload(&payload, &mut wire).unwrap();
        }
        for (i, raw) in wire.iter().enumerate() {
            if i != 2 {
                gw.ingest(raw).unwrap();
            }
        }
        let first_life = gw.session_report(2).unwrap();
        assert_eq!(first_life.missing_now, 1);
        assert_eq!(first_life.lost, 1);
        // The node reboots mid-retransmission; re-registration clears
        // the stale NACK state, so the first pump of the new life is a
        // clean cumulative ACK at sequence 0 — the gateway never asks
        // the reborn node (whose buffer is empty) for its old life.
        // The first life's counters stay in the report.
        gw.register(hs).unwrap();
        let report = gw.session_report(2).unwrap();
        assert_eq!(report.missing_now, 0);
        assert_eq!(report.nacks_sent, 0);
        assert_eq!(
            (report.messages, report.lost, report.recovered),
            (first_life.messages, first_life.lost, first_life.recovered)
        );
        let pumped = gw.pump_downlink();
        let frame = DownlinkFrame::from_wire(&pumped[0].1[0]).unwrap();
        assert_eq!(frame, DownlinkFrame::Ack { cum_ack: 0 });
        // The second life's traffic adds to the first's.
        let mut reborn = wbsn_core::link::LinkFramer::new(2);
        let mut wire = Vec::new();
        for _ in 0..3 {
            reborn.frame_payload(&payload, &mut wire).unwrap();
        }
        for raw in &wire {
            gw.ingest(raw).unwrap();
        }
        let report = gw.session_report(2).unwrap();
        assert!(report.messages > first_life.messages);
        assert_eq!(report.acks_sent, first_life.acks_sent + 1);
        assert_eq!(report.lost, 1);
    }

    #[test]
    fn cs_without_handshake_is_a_typed_error() {
        let mut node = MonitorBuilder::new()
            .level(ProcessingLevel::CompressedSingleLead)
            .n_leads(1)
            .cs_window(256)
            .build()
            .unwrap();
        let payloads = node.push_block(&vec![0i32; 256], 256).unwrap();
        assert!(!payloads.is_empty());
        // Frame the payloads on a session the gateway never got a
        // handshake for.
        let mut framer = wbsn_core::link::LinkFramer::new(8);
        let mut packets = Vec::new();
        for p in &payloads {
            framer.frame_payload(p, &mut packets).unwrap();
        }
        let mut gw = Gateway::default();
        let mut rejections = Vec::new();
        for p in &packets {
            for ev in gw.ingest(p).unwrap() {
                if let GatewayEvent::PayloadRejected { session, error, .. } = ev {
                    rejections.push((session, error));
                }
            }
        }
        assert!(!rejections.is_empty(), "missing handshake went unnoticed");
        assert!(rejections
            .iter()
            .all(|(s, e)| *s == 8
                && matches!(e, WbsnError::Link(LinkError::NoHandshake { session: 8 }))));
        assert_eq!(gw.stats().items_rejected, rejections.len() as u64);
        // The stream itself was otherwise healthy: nothing lost,
        // nothing reconstructed.
        assert_eq!(gw.stats().windows_reconstructed, 0);
    }
}
