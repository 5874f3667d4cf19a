//! The closed-loop node: one wearable as the paper prices it — front
//! end, DSP level, MCU and radio — plus the link machinery that keeps
//! its uplink reliable.
//!
//! ```text
//!   frames ──► GovernedMonitor ──► payloads ──► Uplink ──► packets ──► caller's channel
//!                    ▲                            │
//!                    │ directives                 ▼ record
//!   wire ──► DownlinkFrame ──► DirectiveHandler   RetransmitBuffer ──► resends
//!                        └──── ACK / NACK ─────────────┘
//! ```
//!
//! [`Node`] owns the governed monitor, the per-session uplink framer,
//! the retransmit buffer and the directive handler, and speaks wire
//! bytes on both sides: [`Node::push_block`] turns samples into the
//! packets to send, [`Node::take_downlink`] consumes one gateway
//! control frame. Channels stay with the caller, so the same node runs
//! behind an ideal link, a seeded lossy one, or a test that drops a
//! chosen packet by hand.
//!
//! Every message the node frames is recorded for retransmission
//! (the handshake included, at sequence 0), so a message only leaves
//! the buffer by cumulative or selective ACK, by expiry, or by a
//! reboot discarding it. Debug builds assert that conservation after
//! every call that moves messages.
//!
//! ```
//! use wbsn_core::governor::GovernorConfig;
//! use wbsn_core::link::{DownlinkFrame, LinkPacket, KIND_HANDSHAKE};
//! use wbsn_core::monitor::MonitorBuilder;
//! use wbsn_core::node::Node;
//!
//! let mut node = Node::new(
//!     7,
//!     MonitorBuilder::new().n_leads(3),
//!     GovernorConfig::for_leads(3),
//! )
//! .unwrap();
//! // The first send leads with the session handshake (message 0).
//! let quiet = vec![0i32; 3 * 250 * 30];
//! let packets = node.push_block(&quiet, 250 * 30).unwrap();
//! let first = LinkPacket::decode(&packets[0]).unwrap();
//! assert_eq!((first.kind, first.msg_seq), (KIND_HANDSHAKE, 0));
//! assert_eq!(node.retransmit_stats().recorded, 1);
//!
//! // The gateway's cumulative ACK releases it.
//! let ack = DownlinkFrame::Ack { cum_ack: 1 }.to_wire(7, 0);
//! assert_eq!(node.take_downlink(&ack).unwrap(), None);
//! assert_eq!(node.retransmit_stats().acked, 1);
//!
//! // A reboot starts a fresh incarnation at sequence 0; the energy
//! // of the dead one stays on the books.
//! let hs = node.reboot().unwrap();
//! assert_eq!(hs.session, 7);
//! node.drain().unwrap();
//! assert!(node.average_power_w() > 0.0);
//! ```

use crate::governor::{GovernedMonitor, GovernorConfig};
use crate::link::{DirectiveAction, DownlinkFrame, SessionHandshake, Uplink};
use crate::monitor::{MonitorBuilder, MonitorConfig};
use crate::payload::Payload;
use crate::retransmit::{
    DirectiveHandler, RetransmitBuffer, RetransmitConfig, RetransmitEvent, RetransmitStats,
};
use crate::Result;
use wbsn_platform::NodeModel;

/// The retransmit policy of every node. The ack-timeout sits above
/// the NACK round trip (loss declared after the gateway's reorder
/// window, NACKed next pump, resent one epoch later): below it the
/// node repairs every gap on its own before the gateway can ask, and
/// selective NACK, the primary repair path, would never run.
fn retransmit_config() -> RetransmitConfig {
    RetransmitConfig {
        ack_timeout_epochs: 6,
        max_backoff_epochs: 12,
        ..RetransmitConfig::default()
    }
}

/// One closed-loop wearable node: governed monitor, uplink framer,
/// retransmit buffer and directive handler, driven with wire bytes.
#[derive(Debug)]
pub struct Node {
    session: u64,
    builder: MonitorBuilder,
    gov_cfg: GovernorConfig,
    gm: GovernedMonitor,
    uplink: Uplink,
    buf: RetransmitBuffer,
    directives: DirectiveHandler,
    /// Packets produced between sends (resends, re-announced
    /// handshakes, directive flushes); they lead the next send.
    queued: Vec<Vec<u8>>,
    rt_events: Vec<RetransmitEvent>,
    /// Buffered messages dropped unacknowledged by reboots.
    discarded: u64,
    /// Energy drained (J) and signal seconds of dead incarnations.
    spent_j: f64,
    spent_s: f64,
}

impl Node {
    /// Builds the node, opens `session` on its uplink and records the
    /// handshake (message 0) for retransmission; the handshake leads
    /// the first [`Self::push_block`] send. Reboots rebuild the
    /// monitor from the same `builder` and `gov_cfg`.
    ///
    /// # Errors
    ///
    /// Builder and policy validation failures
    /// ([`GovernedMonitor::new`]).
    pub fn new(session: u64, builder: MonitorBuilder, gov_cfg: GovernorConfig) -> Result<Node> {
        let gm = GovernedMonitor::new(builder.clone(), gov_cfg.clone(), NodeModel::default())?;
        let mut node = Node {
            session,
            builder,
            gov_cfg,
            gm,
            uplink: Uplink::new(),
            buf: RetransmitBuffer::new(retransmit_config())?,
            directives: DirectiveHandler::new(),
            queued: Vec::new(),
            rt_events: Vec::new(),
            discarded: 0,
            spent_j: 0.0,
            spent_s: 0.0,
        };
        node.open()?;
        Ok(node)
    }

    /// The session id every packet carries.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The current incarnation's governed monitor.
    pub fn monitor(&self) -> &GovernedMonitor {
        &self.gm
    }

    /// The current incarnation's monitor configuration.
    pub fn config(&self) -> &MonitorConfig {
        self.gm.monitor().config()
    }

    /// Lifetime retransmit counters (all incarnations).
    pub fn retransmit_stats(&self) -> RetransmitStats {
        self.buf.stats()
    }

    /// Every expiry and unavailable-NACK event so far, in order.
    pub fn retransmit_events(&self) -> &[RetransmitEvent] {
        &self.rt_events
    }

    /// The directive ordering state (accepted / stale counts).
    pub fn directives(&self) -> &DirectiveHandler {
        &self.directives
    }

    /// Buffered messages that reboots discarded unacknowledged.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// One send turn: pushes `n_frames` interleaved frames through the
    /// governed monitor, frames and records the new payloads, advances
    /// the retransmit clock one epoch, and returns the packets to
    /// send — queued packets first, then the new payloads, then any
    /// ack-timeout resends. An empty block is a send turn without new
    /// signal.
    ///
    /// # Errors
    ///
    /// Shape mismatches and stage failures ([`GovernedMonitor::push_block`]),
    /// plus framing failures.
    pub fn push_block(&mut self, frames: &[i32], n_frames: usize) -> Result<Vec<Vec<u8>>> {
        let payloads = self.gm.push_block(frames, n_frames)?;
        self.queue(&payloads)?;
        let mut tx = std::mem::take(&mut self.queued);
        self.buf.tick(&mut tx, &mut self.rt_events);
        self.debug_check_conservation();
        Ok(tx)
    }

    /// Consumes one downlink control frame. ACKs and NACKs go to the
    /// retransmit buffer (NACKed resends queue for the next send). A
    /// new in-order directive is applied when the node runs a
    /// compressed level — the gateway's controller steers only the CS
    /// ladder — and the re-announced handshake (plus any boundary
    /// flush) queues behind it. Returns the directive applied, if any.
    /// A frame that does not decode is a loss and is ignored.
    ///
    /// # Errors
    ///
    /// A directive the monitor rejects
    /// ([`GovernedMonitor::apply_directive`]), plus framing failures.
    pub fn take_downlink(&mut self, wire: &[u8]) -> Result<Option<DirectiveAction>> {
        let Ok(frame) = DownlinkFrame::from_wire(wire) else {
            return Ok(None);
        };
        let applied = match frame {
            DownlinkFrame::Directive(df) => match self.directives.accept(&df) {
                Some(action) if self.gm.mode().level.compresses() => {
                    let flushed = self.gm.apply_directive(action)?;
                    self.queue(&flushed)?;
                    let hs = SessionHandshake::for_config(self.session, self.config());
                    let mut pk = Vec::new();
                    let seq = self.uplink.announce_handshake(&hs, &mut pk)?;
                    self.record_and_queue(seq, pk);
                    Some(action)
                }
                _ => None,
            },
            ack_or_nack => {
                self.buf
                    .on_frame(&ack_or_nack, &mut self.queued, &mut self.rt_events);
                None
            }
        };
        self.debug_check_conservation();
        Ok(applied)
    }

    /// A node reboot: the monitor, framer, retransmit buffer,
    /// directive state and queued packets die; the dead incarnation's
    /// energy is banked; a fresh handshake restarts the stream at
    /// sequence 0 and leads the next send. Returns that handshake for
    /// the caller to register with the gateway out of band.
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    pub fn reboot(&mut self) -> Result<SessionHandshake> {
        let secs = self.gm.monitor().counters().seconds;
        self.spent_j += self.gm.average_power_w() * secs;
        self.spent_s += secs;
        self.gm = GovernedMonitor::new(
            self.builder.clone(),
            self.gov_cfg.clone(),
            NodeModel::default(),
        )?;
        self.uplink = Uplink::new();
        self.discarded += self.buf.buffered_messages() as u64;
        self.buf.reset();
        self.directives.reset();
        self.queued.clear();
        let hs = self.open()?;
        self.debug_check_conservation();
        Ok(hs)
    }

    /// End of session: flushes the monitor's partial stage and returns
    /// the final packets — queued packets first, then the flushed
    /// payloads. The retransmit clock does not advance.
    ///
    /// # Errors
    ///
    /// Stage flush failures ([`GovernedMonitor::finish`]), plus framing
    /// failures.
    pub fn drain(&mut self) -> Result<Vec<Vec<u8>>> {
        let payloads = self.gm.finish()?;
        self.queue(&payloads)?;
        self.debug_check_conservation();
        Ok(std::mem::take(&mut self.queued))
    }

    /// Average modeled node power over every incarnation so far, watts
    /// (0 before any signal).
    pub fn average_power_w(&self) -> f64 {
        let secs = self.gm.monitor().counters().seconds;
        let spent_j = self.spent_j + self.gm.average_power_w() * secs;
        let spent_s = self.spent_s + secs;
        if spent_s > 0.0 {
            spent_j / spent_s
        } else {
            0.0
        }
    }

    /// Opens the session on the (fresh) uplink and queues the
    /// handshake as message 0, recorded so a lossy link cannot orphan
    /// the session open.
    fn open(&mut self) -> Result<SessionHandshake> {
        let hs = SessionHandshake::for_config(self.session, self.config());
        let mut pk = Vec::new();
        self.uplink.open_session(&hs, &mut pk)?;
        self.record_and_queue(0, pk);
        Ok(hs)
    }

    /// Frames each payload as one message and records and queues it.
    fn queue(&mut self, payloads: &[Payload]) -> Result<()> {
        for payload in payloads {
            let mut pk = Vec::new();
            let seq = self.uplink.frame_one(self.session, payload, &mut pk)?;
            self.record_and_queue(seq, pk);
        }
        Ok(())
    }

    /// Records message `seq`'s packets for retransmission and queues
    /// them for the next send.
    fn record_and_queue(&mut self, seq: u32, packets: Vec<Vec<u8>>) {
        self.buf.record(seq, &packets, &mut self.rt_events);
        self.queued.extend(packets);
    }

    /// Every message ever recorded is acknowledged, expired, discarded
    /// by a reboot, or still buffered — exactly one of the four.
    fn debug_check_conservation(&self) {
        let s = self.buf.stats();
        debug_assert_eq!(
            s.recorded,
            s.acked + s.expired + self.discarded + self.buf.buffered_messages() as u64,
            "retransmit conservation broken on session {}: {s:?}, {} discarded, {} buffered",
            self.session,
            self.discarded,
            self.buf.buffered_messages()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{OperatingMode, ProcessingLevel};
    use crate::link::{DirectiveFrame, LinkPacket};

    fn cs_node(session: u64) -> Node {
        Node::new(
            session,
            MonitorBuilder::new().n_leads(1).cs_window(256),
            GovernorConfig::pinned(OperatingMode::new(ProcessingLevel::CompressedSingleLead, 1)),
        )
        .unwrap()
    }

    /// The message sequence numbers `packets` carry, one per message.
    fn seqs(packets: &[Vec<u8>]) -> Vec<u32> {
        let mut seqs: Vec<u32> = packets
            .iter()
            .map(|p| LinkPacket::decode(p).unwrap().msg_seq)
            .collect();
        seqs.dedup();
        seqs
    }

    #[test]
    fn a_malformed_block_changes_nothing() {
        let mut node = cs_node(5);
        assert!(matches!(
            node.push_block(&[0; 10], 3),
            Err(crate::WbsnError::InvalidParameter { what: "frames", .. })
        ));
        // No samples landed, and the handshake still leads the next
        // send.
        assert_eq!(node.monitor().monitor().counters().samples_in, 0);
        let sent = node.push_block(&[1i32; 256], 256).unwrap();
        assert_eq!(seqs(&sent), vec![0, 1]);
    }

    #[test]
    fn nacks_resend_and_directives_renegotiate_the_cr() {
        let mut node = cs_node(2);
        let sent = node.push_block(&[1i32; 3 * 256], 3 * 256).unwrap();
        assert_eq!(seqs(&sent), vec![0, 1, 2, 3]);

        // Message 2 lost: the NACK acks 0 and 1 and resends 2.
        let nack = DownlinkFrame::Nack {
            cum_ack: 2,
            missing: vec![2],
        };
        assert_eq!(node.take_downlink(&nack.to_wire(2, 0)).unwrap(), None);
        let fragments = sent
            .iter()
            .filter(|p| LinkPacket::decode(p).unwrap().msg_seq == 2)
            .count() as u64;
        let stats = node.retransmit_stats();
        assert_eq!((stats.acked, stats.resent_packets), (2, fragments));

        // A new directive re-announces the handshake behind the resend;
        // its duplicate is stale and changes nothing.
        let set = DownlinkFrame::Directive(DirectiveFrame {
            directive_seq: 0,
            action: DirectiveAction::SetCr { cr_x10: 450 },
        })
        .to_wire(2, 1);
        assert_eq!(
            node.take_downlink(&set).unwrap(),
            Some(DirectiveAction::SetCr { cr_x10: 450 })
        );
        assert_eq!(node.take_downlink(&set).unwrap(), None);
        assert_eq!(node.directives().stale(), 1);
        assert!((node.config().cs_cr_percent - 45.0).abs() < 1e-12);
        let next = node.push_block(&[], 0).unwrap();
        assert_eq!(seqs(&next), vec![2, 4]);
        assert_eq!(
            LinkPacket::decode(next.last().unwrap()).unwrap().kind,
            crate::link::KIND_HANDSHAKE
        );

        // Garbage on the downlink is a loss, not an error.
        assert_eq!(node.take_downlink(&[0xF0, 1, 2]).unwrap(), None);
    }

    #[test]
    fn an_events_node_ignores_cr_directives() {
        let mut node = Node::new(
            4,
            MonitorBuilder::new().n_leads(3),
            GovernorConfig::for_leads(3),
        )
        .unwrap();
        let before = node.config().cs_cr_percent;
        let set = DownlinkFrame::Directive(DirectiveFrame {
            directive_seq: 0,
            action: DirectiveAction::SetCr { cr_x10: 450 },
        })
        .to_wire(4, 0);
        assert_eq!(node.take_downlink(&set).unwrap(), None);
        assert_eq!(node.directives().accepted(), 1);
        assert_eq!(node.config().cs_cr_percent, before);
    }

    #[test]
    fn an_unknown_directive_tag_is_a_lost_frame() {
        let mut node = cs_node(3);
        node.push_block(&[1i32; 256], 256).unwrap();
        let cr = node.config().cs_cr_percent;
        // Action tag 0x03 is not assigned: the frame is malformed.
        let mut pkt = DownlinkFrame::Directive(DirectiveFrame {
            directive_seq: 0,
            action: DirectiveAction::SetCr { cr_x10: 450 },
        })
        .to_packet(3, 0);
        pkt.body[4] = 0x03;
        assert!(matches!(
            DownlinkFrame::from_packet(&pkt),
            Err(crate::WbsnError::Malformed { .. })
        ));
        assert_eq!(node.take_downlink(&pkt.encode()).unwrap(), None);
        assert_eq!(node.directives().accepted(), 0);
        assert_eq!(node.config().cs_cr_percent, cr);
        assert!(
            node.push_block(&[], 0).unwrap().is_empty(),
            "nothing queued"
        );
    }

    #[test]
    fn a_reboot_discards_the_buffer_and_restarts_at_sequence_zero() {
        let mut node = cs_node(9);
        // Ten windows: one full 10 s governor epoch, so energy is booked.
        node.push_block(&[1i32; 10 * 256], 10 * 256).unwrap();
        assert!(node.average_power_w() > 0.0);
        let hs = node.reboot().unwrap();
        assert_eq!(hs.session, 9);
        // The handshake and the ten windows died unacknowledged.
        assert_eq!(node.discarded(), 11);
        let sent = node.push_block(&[1i32; 256], 256).unwrap();
        assert_eq!(seqs(&sent), vec![0, 1]);
        // The dead incarnation's power stays in the average.
        assert!(node.average_power_w() > 0.0);
    }

    #[test]
    fn node_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Node>();
        assert_send::<crate::CardiacMonitor>();
        assert_send::<MonitorBuilder>();
        assert_send::<Payload>();
        assert_send::<crate::stage::RawForwarder>();
        assert_send::<crate::stage::CsStage>();
        assert_send::<crate::stage::DelineationStage>();
        assert_send::<crate::stage::ClassifyStage>();
        assert_send::<Box<dyn crate::stage::PipelineStage>>();
    }
}
