//! Node-side loss recovery: the bounded retransmit buffer and the
//! directive handler that close the gateway's downlink loop.
//!
//! The uplink is fire-and-forget at the radio layer; reliability is
//! added end to end. Every framed message is recorded in a
//! [`RetransmitBuffer`] keyed by its `msg_seq`; the gateway's
//! cumulative-ACK/selective-NACK frames ([`DownlinkFrame`]) release
//! or resend entries, and a logical epoch clock drives ack-timeout
//! resends with doubling backoff. The buffer is **byte- and
//! message-capped**: under sustained loss the oldest entries are
//! evicted with a typed [`RetransmitEvent::Expired`], so degradation
//! is always visible — a window the node gave up on is an event, not
//! a silent hole.
//!
//! Everything here is deterministic by construction: no wall clocks,
//! no randomness — `epoch` advances only when the caller calls
//! [`RetransmitBuffer::tick`], so identically-scripted runs replay
//! bit-identically (the workspace's `wbsn-analyze` no-wallclock gate
//! covers this module).
//!
//! [`DirectiveHandler`] is the companion for the third downlink kind:
//! it orders [`DirectiveFrame`]s per session (latest wins, stale
//! duplicates dropped) so the caller can map each accepted
//! [`DirectiveAction`] onto the existing
//! [`CardiacMonitor::switch_mode`](crate::CardiacMonitor::switch_mode)
//! / [`CardiacMonitor::switch_cs_cr`](crate::CardiacMonitor::switch_cs_cr)
//! plumbing at a deterministic stream boundary.

use crate::link::{DirectiveAction, DirectiveFrame, DownlinkFrame};
use crate::{Result, WbsnError};
use std::collections::BTreeMap;

/// Bounds and timing of a [`RetransmitBuffer`]. All times are logical
/// epochs (one [`RetransmitBuffer::tick`] = one epoch), never wall
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// Most messages buffered at once; the oldest is evicted (with an
    /// [`RetransmitEvent::Expired`]) when a new record would exceed
    /// it.
    pub max_messages: usize,
    /// Most buffered wire bytes at once (same eviction discipline).
    pub max_bytes: usize,
    /// Epochs to wait for an ACK before the first unsolicited resend.
    pub ack_timeout_epochs: u64,
    /// Backoff doubles after every timeout resend up to this cap.
    pub max_backoff_epochs: u64,
    /// Resends (NACK- or timeout-driven) before a message expires.
    pub max_retries: u32,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            max_messages: 64,
            max_bytes: 16 * 1024,
            ack_timeout_epochs: 2,
            max_backoff_epochs: 8,
            max_retries: 4,
        }
    }
}

impl RetransmitConfig {
    /// Validates the bounds.
    ///
    /// # Errors
    ///
    /// [`WbsnError::InvalidParameter`] for zero caps, timeouts or
    /// retry budgets, or a backoff cap below the initial timeout.
    pub fn validate(&self) -> Result<()> {
        if self.max_messages == 0 || self.max_bytes == 0 {
            return Err(WbsnError::InvalidParameter {
                what: "retransmit caps",
                detail: format!(
                    "max_messages {} / max_bytes {} must be nonzero",
                    self.max_messages, self.max_bytes
                ),
            });
        }
        if self.ack_timeout_epochs == 0 || self.max_retries == 0 {
            return Err(WbsnError::InvalidParameter {
                what: "retransmit timing",
                detail: format!(
                    "ack_timeout_epochs {} / max_retries {} must be nonzero",
                    self.ack_timeout_epochs, self.max_retries
                ),
            });
        }
        if self.max_backoff_epochs < self.ack_timeout_epochs {
            return Err(WbsnError::InvalidParameter {
                what: "max_backoff_epochs",
                detail: format!(
                    "{} is below the initial timeout {}",
                    self.max_backoff_epochs, self.ack_timeout_epochs
                ),
            });
        }
        Ok(())
    }
}

/// Something observable happened to a buffered message. Expiry is the
/// graceful-degradation path: the node sheds its oldest unacked
/// traffic under sustained loss instead of buffering without bound —
/// and says so.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetransmitEvent {
    /// A message left the buffer unacknowledged — evicted by the
    /// byte/message caps or out of retries. It will never be resent.
    Expired {
        /// The abandoned message.
        msg_seq: u32,
        /// Wire bytes it held.
        bytes: usize,
        /// Resends it had consumed.
        retries: u32,
    },
    /// The gateway NACKed a message that is no longer buffered (it
    /// expired earlier, or predates this buffer). The gap is
    /// permanent on this side.
    Unavailable {
        /// The requested message.
        msg_seq: u32,
    },
}

/// Lifetime counters of a [`RetransmitBuffer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetransmitStats {
    /// Messages recorded.
    pub recorded: u64,
    /// Messages released by cumulative ACK.
    pub acked: u64,
    /// Packets resent (NACK- and timeout-driven).
    pub resent_packets: u64,
    /// Wire bytes resent.
    pub resent_bytes: u64,
    /// Messages expired (evicted or out of retries).
    pub expired: u64,
    /// NACKed messages that were no longer buffered.
    pub unavailable: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    packets: Vec<Vec<u8>>,
    bytes: usize,
    retries: u32,
    backoff: u64,
    next_due: u64,
}

/// The bounded per-session retransmit buffer: encoded packets of every
/// in-flight message, resent on selective NACK or ack-timeout,
/// released on cumulative ACK, evicted oldest-first at the caps.
///
/// ```
/// use wbsn_core::retransmit::{RetransmitBuffer, RetransmitConfig};
///
/// let mut buf = RetransmitBuffer::new(RetransmitConfig::default()).unwrap();
/// let mut events = Vec::new();
/// buf.record(0, &[vec![0u8; 24]], &mut events);
/// buf.record(1, &[vec![1u8; 24]], &mut events);
/// assert!(events.is_empty());
///
/// // The gateway saw message 1 but not 0: resend 0, keep 1 buffered.
/// let mut resend = Vec::new();
/// buf.on_nack(0, &[0], &mut resend, &mut events);
/// assert_eq!(resend.len(), 1);
///
/// // A later cumulative ACK releases both.
/// buf.on_ack(2);
/// assert_eq!(buf.buffered_messages(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct RetransmitBuffer {
    cfg: RetransmitConfig,
    entries: BTreeMap<u32, Entry>,
    buffered_bytes: usize,
    epoch: u64,
    stats: RetransmitStats,
}

impl RetransmitBuffer {
    /// Empty buffer at epoch 0.
    ///
    /// # Errors
    ///
    /// As [`RetransmitConfig::validate`].
    pub fn new(cfg: RetransmitConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(RetransmitBuffer {
            cfg,
            entries: BTreeMap::new(),
            buffered_bytes: 0,
            epoch: 0,
            stats: RetransmitStats::default(),
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &RetransmitConfig {
        &self.cfg
    }

    /// Current logical epoch (ticks since creation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Messages currently buffered.
    pub fn buffered_messages(&self) -> usize {
        self.entries.len()
    }

    /// Wire bytes currently buffered.
    pub fn buffered_bytes(&self) -> usize {
        self.buffered_bytes
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RetransmitStats {
        self.stats
    }

    /// Records a freshly framed message (its encoded packets, as
    /// produced by
    /// [`Uplink::frame_one`](crate::link::Uplink::frame_one)) for
    /// possible retransmission. Evicts oldest entries past the caps,
    /// appending an [`RetransmitEvent::Expired`] per eviction — a
    /// message larger than the whole byte cap expires immediately,
    /// visibly.
    pub fn record(&mut self, msg_seq: u32, packets: &[Vec<u8>], events: &mut Vec<RetransmitEvent>) {
        let bytes: usize = packets.iter().map(Vec::len).sum();
        self.stats.recorded += 1;
        self.entries.insert(
            msg_seq,
            Entry {
                packets: packets.to_vec(),
                bytes,
                retries: 0,
                backoff: self.cfg.ack_timeout_epochs,
                next_due: self.epoch + self.cfg.ack_timeout_epochs,
            },
        );
        self.buffered_bytes += bytes;
        while self.entries.len() > self.cfg.max_messages || self.buffered_bytes > self.cfg.max_bytes
        {
            let Some((&oldest, _)) = self.entries.iter().next() else {
                break;
            };
            self.expire(oldest, events);
        }
    }

    /// Applies a cumulative acknowledgement: every buffered message
    /// with `msg_seq < cum_ack` is released.
    pub fn on_ack(&mut self, cum_ack: u32) {
        let keep = self.entries.split_off(&cum_ack);
        for (_, entry) in std::mem::replace(&mut self.entries, keep) {
            self.buffered_bytes -= entry.bytes;
            self.stats.acked += 1;
        }
    }

    /// Applies a selective NACK: acks cumulatively below `cum_ack`,
    /// then resends each still-buffered `missing` message (appending
    /// its packets to `out`). A missing message that is no longer
    /// buffered yields [`RetransmitEvent::Unavailable`]; one that has
    /// exhausted its retry budget expires instead of resending.
    ///
    /// The `missing` list is also an implicit *selective ACK*: the
    /// gateway enumerates every hole it knows of up to the highest
    /// listed sequence, so any buffered message below that horizon
    /// that is **not** listed has demonstrably been received (it sits
    /// in the gateway's reorder buffer behind the hole). Those
    /// entries are released here — without this, every message parked
    /// behind a stalled cumulative ACK hits its ack-timeout and is
    /// pointlessly resent, which under sustained loss snowballs into
    /// a resend storm precisely when the channel can least afford
    /// one.
    pub fn on_nack(
        &mut self,
        cum_ack: u32,
        missing: &[u32],
        out: &mut Vec<Vec<u8>>,
        events: &mut Vec<RetransmitEvent>,
    ) {
        self.on_ack(cum_ack);
        for &msg_seq in missing {
            if !self.entries.contains_key(&msg_seq) {
                self.stats.unavailable += 1;
                events.push(RetransmitEvent::Unavailable { msg_seq });
                continue;
            }
            self.resend(msg_seq, out, events);
        }
        if let Some(&horizon) = missing.iter().max() {
            let sacked: Vec<u32> = self
                .entries
                .range(..horizon)
                .map(|(&seq, _)| seq)
                .filter(|seq| !missing.contains(seq))
                .collect();
            for seq in sacked {
                if let Some(entry) = self.entries.remove(&seq) {
                    self.buffered_bytes -= entry.bytes;
                    self.stats.acked += 1;
                }
            }
        }
    }

    /// Applies any decoded downlink ACK/NACK frame; returns `true`
    /// when the frame was an ack/nack, `false` for a directive (which
    /// belongs to a [`DirectiveHandler`]).
    pub fn on_frame(
        &mut self,
        frame: &DownlinkFrame,
        out: &mut Vec<Vec<u8>>,
        events: &mut Vec<RetransmitEvent>,
    ) -> bool {
        match frame {
            DownlinkFrame::Ack { cum_ack } => {
                self.on_ack(*cum_ack);
                true
            }
            DownlinkFrame::Nack { cum_ack, missing } => {
                self.on_nack(*cum_ack, missing, out, events);
                true
            }
            DownlinkFrame::Directive(_) => false,
        }
    }

    /// Advances the logical clock one epoch and resends every message
    /// whose ack-timeout elapsed (backoff doubles per resend, capped
    /// at `max_backoff_epochs`; retry exhaustion expires the message).
    pub fn tick(&mut self, out: &mut Vec<Vec<u8>>, events: &mut Vec<RetransmitEvent>) {
        self.epoch += 1;
        let due: Vec<u32> = self
            .entries
            .iter()
            .filter(|(_, e)| e.next_due <= self.epoch)
            .map(|(&seq, _)| seq)
            .collect();
        for msg_seq in due {
            self.resend(msg_seq, out, events);
        }
    }

    /// Drops every buffered message and resets the epoch clock — the
    /// node-reboot path. Nothing is resent afterwards; the gateway's
    /// `register` reset discards its matching NACK state.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.buffered_bytes = 0;
        self.epoch = 0;
    }

    fn resend(&mut self, msg_seq: u32, out: &mut Vec<Vec<u8>>, events: &mut Vec<RetransmitEvent>) {
        let Some(entry) = self.entries.get_mut(&msg_seq) else {
            return;
        };
        if entry.retries >= self.cfg.max_retries {
            self.expire(msg_seq, events);
            return;
        }
        entry.retries += 1;
        entry.backoff = (entry.backoff * 2).min(self.cfg.max_backoff_epochs);
        entry.next_due = self.epoch + entry.backoff;
        self.stats.resent_packets += entry.packets.len() as u64;
        self.stats.resent_bytes += entry.bytes as u64;
        out.extend(entry.packets.iter().cloned());
    }

    fn expire(&mut self, msg_seq: u32, events: &mut Vec<RetransmitEvent>) {
        if let Some(entry) = self.entries.remove(&msg_seq) {
            self.buffered_bytes -= entry.bytes;
            self.stats.expired += 1;
            events.push(RetransmitEvent::Expired {
                msg_seq,
                bytes: entry.bytes,
                retries: entry.retries,
            });
        }
    }
}

/// Orders the downlink's [`DirectiveFrame`]s for one session:
/// duplicates and stale reorderings are dropped (latest
/// `directive_seq` wins), accepted actions are handed back for the
/// caller to apply at the next deterministic stream boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectiveHandler {
    next_seq: u32,
    accepted: u64,
    stale: u64,
}

impl DirectiveHandler {
    /// Handler expecting directive 0 first.
    pub fn new() -> Self {
        DirectiveHandler::default()
    }

    /// Filters one directive: `Some(action)` when it is new (and all
    /// older unseen directives become stale), `None` for a duplicate
    /// or stale reordering.
    pub fn accept(&mut self, frame: &DirectiveFrame) -> Option<DirectiveAction> {
        if frame.directive_seq < self.next_seq {
            self.stale += 1;
            return None;
        }
        self.next_seq = frame.directive_seq + 1;
        self.accepted += 1;
        Some(frame.action)
    }

    /// Directives accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Directives dropped as stale/duplicate.
    pub fn stale(&self) -> u64 {
        self.stale
    }

    /// Forgets all ordering state — the node-reboot path (a restarted
    /// node must accept the gateway's next directive stream from
    /// whatever sequence it resumes at, so the gateway re-numbers
    /// from its own persisted counter).
    pub fn reset(&mut self) {
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::DirectiveAction;

    fn pkt(fill: u8, len: usize) -> Vec<u8> {
        vec![fill; len]
    }

    #[test]
    fn config_bounds_are_validated() {
        assert!(RetransmitConfig::default().validate().is_ok());
        for bad in [
            RetransmitConfig {
                max_messages: 0,
                ..Default::default()
            },
            RetransmitConfig {
                max_bytes: 0,
                ..Default::default()
            },
            RetransmitConfig {
                ack_timeout_epochs: 0,
                ..Default::default()
            },
            RetransmitConfig {
                max_retries: 0,
                ..Default::default()
            },
            RetransmitConfig {
                max_backoff_epochs: 1,
                ack_timeout_epochs: 2,
                ..Default::default()
            },
        ] {
            assert!(RetransmitBuffer::new(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn caps_evict_oldest_with_visible_expiry() {
        let mut buf = RetransmitBuffer::new(RetransmitConfig {
            max_messages: 2,
            max_bytes: 1000,
            ..Default::default()
        })
        .unwrap();
        let mut events = Vec::new();
        buf.record(0, &[pkt(0, 30)], &mut events);
        buf.record(1, &[pkt(1, 30)], &mut events);
        assert!(events.is_empty());
        buf.record(2, &[pkt(2, 30)], &mut events);
        assert_eq!(
            events,
            vec![RetransmitEvent::Expired {
                msg_seq: 0,
                bytes: 30,
                retries: 0
            }]
        );
        assert_eq!(buf.buffered_messages(), 2);
        assert_eq!(buf.buffered_bytes(), 60);

        // Byte cap too: one giant message evicts everything, itself
        // included — loudly, never silently.
        let mut buf = RetransmitBuffer::new(RetransmitConfig {
            max_messages: 10,
            max_bytes: 100,
            ..Default::default()
        })
        .unwrap();
        events.clear();
        buf.record(0, &[pkt(0, 60)], &mut events);
        buf.record(1, &[pkt(1, 60)], &mut events);
        assert_eq!(events.len(), 1);
        events.clear();
        buf.record(2, &[pkt(2, 200)], &mut events);
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(buf.buffered_messages(), 0);
        assert_eq!(buf.buffered_bytes(), 0);
        assert_eq!(buf.stats().expired, 3);
    }

    #[test]
    fn nack_resends_and_ack_releases() {
        let mut buf = RetransmitBuffer::new(RetransmitConfig::default()).unwrap();
        let mut events = Vec::new();
        for seq in 0..4u32 {
            buf.record(seq, &[pkt(seq as u8, 25), pkt(seq as u8, 10)], &mut events);
        }
        let mut out = Vec::new();
        buf.on_nack(1, &[2], &mut out, &mut events);
        // Message 0 acked away, message 2's two packets resent, and
        // message 1 released by selective-ACK inference (below the
        // NACK horizon but not listed missing ⇒ the gateway has it).
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], pkt(2, 25));
        assert_eq!(buf.buffered_messages(), 2);
        assert_eq!(buf.stats().acked, 2);
        assert_eq!(buf.stats().resent_packets, 2);
        assert_eq!(buf.stats().resent_bytes, 35);
        // NACK for something long gone is a visible Unavailable.
        out.clear();
        buf.on_nack(1, &[0], &mut out, &mut events);
        assert!(out.is_empty());
        assert_eq!(events, vec![RetransmitEvent::Unavailable { msg_seq: 0 }]);
        buf.on_ack(10);
        assert_eq!(buf.buffered_messages(), 0);
        assert_eq!(buf.buffered_bytes(), 0);
    }

    #[test]
    fn a_nack_selectively_acks_unlisted_messages_below_its_horizon() {
        let mut buf = RetransmitBuffer::new(RetransmitConfig::default()).unwrap();
        let mut events = Vec::new();
        for seq in 0..6u32 {
            buf.record(seq, &[pkt(seq as u8, 20)], &mut events);
        }
        // Holes at 1 and 3: everything else below 3 (i.e. 0 and 2) is
        // demonstrably buffered at the gateway and must be released so
        // it never timeout-resends; 4 and 5 are above the horizon and
        // stay buffered (the gateway has said nothing about them).
        let mut out = Vec::new();
        buf.on_nack(1, &[1, 3], &mut out, &mut events);
        assert_eq!(out.len(), 2, "both holes resent");
        assert_eq!(
            buf.buffered_messages(),
            4,
            "1 and 3 in flight, 4 and 5 awaiting ack"
        );
        assert!(buf.entries.contains_key(&4) && buf.entries.contains_key(&5));
        assert_eq!(buf.stats().acked, 2, "0 cumulatively, 2 selectively");
        // The selective release is an ack, not an expiry: no events.
        assert!(events.is_empty());
    }

    #[test]
    fn tick_resends_on_timeout_with_doubling_backoff() {
        let cfg = RetransmitConfig {
            ack_timeout_epochs: 2,
            max_backoff_epochs: 8,
            max_retries: 3,
            ..Default::default()
        };
        let mut buf = RetransmitBuffer::new(cfg).unwrap();
        let (mut out, mut events) = (Vec::new(), Vec::new());
        buf.record(0, &[pkt(0, 25)], &mut events);
        // Due at epoch 2, then backoff 4 → epoch 6, then 8 → epoch 14,
        // then the 4th attempt expires it.
        let mut resend_epochs = Vec::new();
        for _ in 0..40 {
            out.clear();
            buf.tick(&mut out, &mut events);
            if !out.is_empty() {
                resend_epochs.push(buf.epoch());
            }
            if !events.is_empty() {
                break;
            }
        }
        assert_eq!(resend_epochs, vec![2, 6, 14]);
        assert_eq!(
            events,
            vec![RetransmitEvent::Expired {
                msg_seq: 0,
                bytes: 25,
                retries: 3
            }]
        );
        assert_eq!(buf.buffered_messages(), 0);
    }

    #[test]
    fn retry_budget_applies_to_nack_resends_too() {
        let cfg = RetransmitConfig {
            max_retries: 2,
            ..Default::default()
        };
        let mut buf = RetransmitBuffer::new(cfg).unwrap();
        let (mut out, mut events) = (Vec::new(), Vec::new());
        buf.record(0, &[pkt(0, 25)], &mut events);
        buf.on_nack(0, &[0], &mut out, &mut events);
        buf.on_nack(0, &[0], &mut out, &mut events);
        assert_eq!(out.len(), 2);
        assert!(events.is_empty());
        out.clear();
        buf.on_nack(0, &[0], &mut out, &mut events);
        assert!(out.is_empty());
        assert!(matches!(
            events[..],
            [RetransmitEvent::Expired {
                msg_seq: 0,
                retries: 2,
                ..
            }]
        ));
    }

    #[test]
    fn reset_clears_state_for_a_reboot() {
        let mut buf = RetransmitBuffer::new(RetransmitConfig::default()).unwrap();
        let (mut out, mut events) = (Vec::new(), Vec::new());
        buf.record(0, &[pkt(0, 25)], &mut events);
        buf.tick(&mut out, &mut events);
        buf.reset();
        assert_eq!(buf.buffered_messages(), 0);
        assert_eq!(buf.buffered_bytes(), 0);
        assert_eq!(buf.epoch(), 0);
        // A stale NACK after the reboot is Unavailable, not a panic or
        // a wrong resend.
        out.clear();
        buf.on_nack(0, &[0], &mut out, &mut events);
        assert!(out.is_empty());
    }

    #[test]
    fn directive_handler_orders_latest_wins() {
        let mut h = DirectiveHandler::new();
        let d = |seq, cr| DirectiveFrame {
            directive_seq: seq,
            action: DirectiveAction::SetCr { cr_x10: cr },
        };
        assert_eq!(
            h.accept(&d(0, 500)),
            Some(DirectiveAction::SetCr { cr_x10: 500 })
        );
        // Duplicate of 0: stale.
        assert_eq!(h.accept(&d(0, 500)), None);
        // Jump ahead (1 was lost): 2 is accepted, then the late 1 is
        // stale — latest wins.
        assert!(h.accept(&d(2, 659)).is_some());
        assert_eq!(h.accept(&d(1, 570)), None);
        assert_eq!(h.accepted(), 2);
        assert_eq!(h.stale(), 2);
        h.reset();
        assert!(h.accept(&d(0, 500)).is_some());
    }
}
