//! Per-session packet reassembly: fragments → in-order messages.
//!
//! The link framer splits every payload into MTU-sized fragments; the
//! channel drops, duplicates-in-effect (late held packets) and
//! reorders them. The [`Reassembler`] undoes that: it buffers
//! fragments per message, tolerates duplicates and out-of-order
//! arrival, releases completed messages **strictly in sequence
//! order**, and — once the reorder window is exhausted — declares
//! unfillable gaps as [`LinkEvent::Lost`] instead of stalling the
//! stream. Structural violations (conflicting fragments, inconsistent
//! headers) surface as typed [`LinkError`]s.
//!
//! With the ACK/NACK downlink in play a declared loss is no longer
//! final: the node retransmits NACKed messages, which by then sit
//! *behind* the in-order cursor. A bounded **recovery window**
//! ([`Reassembler::with_windows`]) keeps the newest lost sequence
//! numbers eligible, surfacing their late arrivals as
//! [`LinkEvent::Recovered`] instead of counting them stale. It is off
//! by default, so feedback-free deployments behave exactly as before.

use crate::Result;
use std::collections::{BTreeMap, BTreeSet};
use wbsn_core::link::{LinkError, LinkPacket};
use wbsn_core::WbsnError;

/// One reassembly outcome, in release order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkEvent {
    /// A message was fully reassembled.
    Message {
        /// Message sequence number.
        msg_seq: u32,
        /// Kind byte carried by its packets.
        kind: u8,
        /// Reassembled message bytes.
        bytes: Vec<u8>,
    },
    /// A run of consecutive messages proven lost: either partially
    /// received messages whose reorder window expired, or sequence
    /// numbers never seen at all. Reported as a range so a large
    /// sequence jump (a gateway restart, a long outage) costs one
    /// event, not one per missing message.
    Lost {
        /// First lost sequence number of the run.
        first_seq: u32,
        /// Number of consecutive lost messages.
        count: u32,
    },
    /// A previously [`Lost`](LinkEvent::Lost) message whose
    /// retransmission arrived inside the recovery window and
    /// reassembled completely. Recovered messages are out of sequence
    /// order by construction — the in-order stream already moved past
    /// them — so consumers must treat them as fill-ins, not appends.
    Recovered {
        /// Message sequence number.
        msg_seq: u32,
        /// Kind byte carried by its packets.
        kind: u8,
        /// Reassembled message bytes.
        bytes: Vec<u8>,
    },
}

/// Reassembly counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReassemblyStats {
    /// Packets accepted.
    pub packets: u64,
    /// Messages released complete.
    pub messages: u64,
    /// Exact duplicate fragments ignored.
    pub duplicates: u64,
    /// Packets for already-released (or already-lost) messages.
    pub stale: u64,
    /// Messages declared lost.
    pub lost: u64,
}

#[derive(Debug)]
struct Partial {
    kind: u8,
    frag_count: u16,
    received: u16,
    frags: Vec<Option<Vec<u8>>>,
}

impl Partial {
    fn new(kind: u8, frag_count: u16) -> Self {
        Partial {
            kind,
            frag_count,
            received: 0,
            frags: vec![None; frag_count as usize],
        }
    }

    fn complete(&self) -> bool {
        self.received == self.frag_count
    }

    fn into_bytes(self) -> Vec<u8> {
        // Only called once `complete()` holds; a missing fragment
        // would contribute nothing rather than abort the gateway.
        let mut out = Vec::new();
        for f in self.frags.into_iter().flatten() {
            out.extend(f);
        }
        out
    }
}

/// Stores one fragment into a partial reassembly. `Ok(true)` means the
/// fragment was new, `Ok(false)` an exact duplicate; mismatched
/// headers or differing bodies for the same slot are conflicts.
fn store_fragment(partial: &mut Partial, pkt: &LinkPacket) -> Result<bool> {
    if partial.kind != pkt.kind || partial.frag_count != pkt.frag_count {
        return Err(LinkError::FragmentConflict {
            msg_seq: pkt.msg_seq,
            frag_index: pkt.frag_index,
        }
        .into());
    }
    let slot = &mut partial.frags[pkt.frag_index as usize];
    match slot {
        Some(existing) if *existing == pkt.body => Ok(false),
        Some(_) => Err(LinkError::FragmentConflict {
            msg_seq: pkt.msg_seq,
            frag_index: pkt.frag_index,
        }
        .into()),
        None => {
            *slot = Some(pkt.body.clone());
            partial.received += 1;
            Ok(true)
        }
    }
}

/// Default reorder window: how many message sequence numbers may be in
/// flight before the oldest incomplete one is declared lost.
pub const DEFAULT_REORDER_WINDOW: u32 = 64;

/// Per-session fragment reassembly with in-order release, gap
/// detection, and (optionally) late recovery of declared-lost
/// messages from retransmissions.
#[derive(Debug)]
pub struct Reassembler {
    window: u32,
    /// Recovery window: how many of the most recently lost sequence
    /// numbers remain eligible for late recovery. Zero disables the
    /// mechanism entirely (every late packet is stale).
    recovery: u32,
    next_seq: u32,
    pending: BTreeMap<u32, Partial>,
    /// Lost sequence numbers still eligible for recovery, oldest
    /// evicted; bounded by `recovery`.
    recoverable: BTreeSet<u32>,
    /// Partial reassemblies of retransmitted lost messages; keys are
    /// always a subset of `recoverable`.
    late: BTreeMap<u32, Partial>,
    stats: ReassemblyStats,
}

impl Default for Reassembler {
    fn default() -> Self {
        Reassembler::new()
    }
}

impl Reassembler {
    /// Reassembler with the default reorder window
    /// ([`DEFAULT_REORDER_WINDOW`] messages).
    pub fn new() -> Self {
        Reassembler {
            window: DEFAULT_REORDER_WINDOW,
            recovery: 0,
            next_seq: 0,
            pending: BTreeMap::new(),
            recoverable: BTreeSet::new(),
            late: BTreeMap::new(),
            stats: ReassemblyStats::default(),
        }
    }

    /// Reassembler with an explicit reorder window (≥ 1) and a
    /// recovery window: up to `recovery` of the most recently
    /// declared-lost sequence numbers stay eligible for late recovery
    /// when their retransmissions arrive. Zero (the default) disables
    /// recovery — every late packet counts as stale, exactly the
    /// pre-downlink behavior.
    ///
    /// # Errors
    ///
    /// [`WbsnError::InvalidParameter`] for a zero reorder window.
    pub fn with_windows(window: u32, recovery: u32) -> Result<Self> {
        if window == 0 {
            return Err(WbsnError::InvalidParameter {
                what: "reorder_window",
                detail: "must be at least 1 message".into(),
            });
        }
        Ok(Reassembler {
            window,
            recovery,
            ..Reassembler::new()
        })
    }

    /// Counters so far.
    pub fn stats(&self) -> ReassemblyStats {
        self.stats
    }

    /// Sequence number of the next in-order message to release.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }

    /// Messages currently buffered incomplete or out of order.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Accepts one (already CRC-verified) packet, appending whatever
    /// messages become releasable — and whatever gaps become certain —
    /// to `out` in sequence order.
    ///
    /// # Errors
    ///
    /// [`LinkError::BadHeader`] / [`LinkError::FragmentConflict`]
    /// (wrapped in [`WbsnError::Link`]) for structurally inconsistent
    /// packets; the reassembler state is unchanged by a rejected
    /// packet.
    pub fn accept(&mut self, pkt: &LinkPacket, out: &mut Vec<LinkEvent>) -> Result<()> {
        if pkt.frag_count == 0 || pkt.frag_index >= pkt.frag_count {
            return Err(LinkError::BadHeader {
                detail: format!("fragment {} of {}", pkt.frag_index, pkt.frag_count),
            }
            .into());
        }
        let seq = pkt.msg_seq;
        if seq < self.next_seq {
            return self.accept_late(pkt, out);
        }
        let partial = self
            .pending
            .entry(seq)
            .or_insert_with(|| Partial::new(pkt.kind, pkt.frag_count));
        if !store_fragment(partial, pkt)? {
            self.stats.duplicates += 1;
            return Ok(());
        }
        self.stats.packets += 1;
        // Gap detection: activity at `seq` proves every message below
        // `seq - window + 1` has had its whole reorder window to
        // arrive; incomplete ones are lost. (u64 arithmetic: the
        // framer never wraps msg_seq, but `next_seq + window` may not
        // overflow near the top of the sequence space either.)
        if (self.next_seq as u64) + (self.window as u64) <= seq as u64 {
            let target = (seq as u64 - self.window as u64 + 1) as u32;
            self.advance_to(target, out);
        }
        self.release_ready(out);
        Ok(())
    }

    /// A packet whose sequence number the in-order stream already
    /// passed: a retransmission of a declared-lost message (recover it
    /// if still inside the recovery window) or a mere straggler
    /// (stale).
    fn accept_late(&mut self, pkt: &LinkPacket, out: &mut Vec<LinkEvent>) -> Result<()> {
        let seq = pkt.msg_seq;
        if !self.recoverable.contains(&seq) {
            self.stats.stale += 1;
            return Ok(());
        }
        let partial = self
            .late
            .entry(seq)
            .or_insert_with(|| Partial::new(pkt.kind, pkt.frag_count));
        if !store_fragment(partial, pkt)? {
            self.stats.duplicates += 1;
            return Ok(());
        }
        self.stats.packets += 1;
        if self.late.get(&seq).is_some_and(Partial::complete) {
            if let Some(p) = self.late.remove(&seq) {
                self.recoverable.remove(&seq);
                out.push(LinkEvent::Recovered {
                    msg_seq: seq,
                    kind: p.kind,
                    bytes: p.into_bytes(),
                });
            }
        }
        Ok(())
    }

    /// Records a lost run as recovery candidates: the newest
    /// `recovery` lost sequence numbers stay eligible, older ones (and
    /// their partial retransmissions) are evicted.
    fn note_lost(&mut self, first_seq: u32, count: u32) {
        if self.recovery == 0 || count == 0 {
            return;
        }
        let end = first_seq as u64 + count as u64; // exclusive
        let start = end - (count.min(self.recovery)) as u64;
        for s in start..end {
            self.recoverable.insert(s as u32);
        }
        while self.recoverable.len() > self.recovery as usize {
            if let Some(oldest) = self.recoverable.pop_first() {
                self.late.remove(&oldest);
            }
        }
    }

    /// End of stream: releases every remaining completed message in
    /// order, declaring the incomplete ones before them lost.
    pub fn flush(&mut self, out: &mut Vec<LinkEvent>) {
        let Some((&last, _)) = self.pending.iter().next_back() else {
            return;
        };
        // Resolve everything below the highest buffered sequence,
        // then the highest itself — `advance_to`'s exclusive target
        // cannot express `last + 1` when a (hostile) wire packet
        // carried msg_seq == u32::MAX, and the gateway must never
        // panic on wire input. After `advance_to(last)` the map holds
        // nothing below `last`, so `pop_last` yields exactly `last`.
        self.advance_to(last, out);
        if let Some((seq, p)) = self.pending.pop_last() {
            if p.complete() {
                self.stats.messages += 1;
                out.push(LinkEvent::Message {
                    msg_seq: seq,
                    kind: p.kind,
                    bytes: p.into_bytes(),
                });
            } else {
                self.stats.lost += 1;
                self.note_lost(seq, 1);
                out.push(LinkEvent::Lost {
                    first_seq: seq,
                    count: 1,
                });
            }
        }
        self.next_seq = last.saturating_add(1);
    }

    /// Resolves every sequence number in `[next_seq, target)` in
    /// order: buffered complete messages release, buffered incomplete
    /// ones and never-seen runs are declared lost — the latter as one
    /// ranged event per run, so the work and the event count are
    /// bounded by the number of *buffered* messages, never by the size
    /// of the sequence jump.
    fn advance_to(&mut self, target: u32, out: &mut Vec<LinkEvent>) {
        while self.next_seq < target {
            match self
                .pending
                .range(self.next_seq..target)
                .next()
                .map(|(&s, _)| s)
            {
                Some(s) => {
                    if s > self.next_seq {
                        let count = s - self.next_seq;
                        self.stats.lost += count as u64;
                        self.note_lost(self.next_seq, count);
                        out.push(LinkEvent::Lost {
                            first_seq: self.next_seq,
                            count,
                        });
                        self.next_seq = s;
                    }
                    if let Some(p) = self.pending.remove(&s) {
                        if p.complete() {
                            self.stats.messages += 1;
                            out.push(LinkEvent::Message {
                                msg_seq: s,
                                kind: p.kind,
                                bytes: p.into_bytes(),
                            });
                        } else {
                            self.stats.lost += 1;
                            self.note_lost(s, 1);
                            out.push(LinkEvent::Lost {
                                first_seq: s,
                                count: 1,
                            });
                        }
                    }
                    self.next_seq = self.next_seq.saturating_add(1);
                }
                None => {
                    let count = target - self.next_seq;
                    self.stats.lost += count as u64;
                    self.note_lost(self.next_seq, count);
                    out.push(LinkEvent::Lost {
                        first_seq: self.next_seq,
                        count,
                    });
                    self.next_seq = target;
                }
            }
        }
    }

    /// Releases the run of consecutive completed messages starting at
    /// `next_seq`.
    fn release_ready(&mut self, out: &mut Vec<LinkEvent>) {
        // Every pending key is >= next_seq, so the first entry is the
        // release candidate; stop at the first gap or incomplete head.
        while let Some(entry) = self.pending.first_entry() {
            if *entry.key() != self.next_seq || !entry.get().complete() {
                break;
            }
            let p = entry.remove();
            self.stats.messages += 1;
            out.push(LinkEvent::Message {
                msg_seq: self.next_seq,
                kind: p.kind,
                bytes: p.into_bytes(),
            });
            self.next_seq = self.next_seq.saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_core::link::LinkFramer;

    fn packets_of(framer: &mut LinkFramer, messages: &[&[u8]]) -> Vec<LinkPacket> {
        let mut raw = Vec::new();
        for m in messages {
            framer.frame_message(0x01, m, &mut raw).unwrap();
        }
        raw.iter().map(|b| LinkPacket::decode(b).unwrap()).collect()
    }

    #[test]
    fn in_order_stream_reassembles_identically() {
        let mut framer = LinkFramer::with_mtu(1, 30).unwrap(); // 7-byte bodies
        let messages: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 20]).collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let pkts = packets_of(&mut framer, &refs);
        let mut r = Reassembler::new();
        let mut out = Vec::new();
        for p in &pkts {
            r.accept(p, &mut out).unwrap();
        }
        assert_eq!(out.len(), 5);
        for (i, ev) in out.iter().enumerate() {
            let LinkEvent::Message { msg_seq, bytes, .. } = ev else {
                panic!("loss on a perfect link");
            };
            assert_eq!(*msg_seq, i as u32);
            assert_eq!(bytes, &messages[i]);
        }
    }

    #[test]
    fn out_of_order_fragments_release_in_order() {
        let mut framer = LinkFramer::with_mtu(1, 30).unwrap();
        let pkts = packets_of(&mut framer, &[&[1u8; 20], &[2u8; 20]]);
        assert_eq!(pkts.len(), 6);
        let mut r = Reassembler::new();
        let mut out = Vec::new();
        // Deliver message 1 completely first, then message 0 reversed.
        for p in [&pkts[3], &pkts[4], &pkts[5], &pkts[2], &pkts[1]] {
            r.accept(p, &mut out).unwrap();
            assert!(out.is_empty(), "nothing releasable before msg 0 completes");
        }
        r.accept(&pkts[0], &mut out).unwrap();
        // Both messages release at once, in order.
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], LinkEvent::Message { msg_seq: 0, .. }));
        assert!(matches!(out[1], LinkEvent::Message { msg_seq: 1, .. }));
    }

    #[test]
    fn duplicates_are_tolerated_conflicts_are_errors() {
        let mut framer = LinkFramer::with_mtu(1, 30).unwrap();
        let pkts = packets_of(&mut framer, &[&[7u8; 20]]);
        let mut r = Reassembler::new();
        let mut out = Vec::new();
        r.accept(&pkts[0], &mut out).unwrap();
        r.accept(&pkts[0], &mut out).unwrap(); // exact duplicate: fine
        assert_eq!(r.stats().duplicates, 1);
        let mut conflicting = pkts[0].clone();
        conflicting.body[0] ^= 0xFF;
        let err = r.accept(&conflicting, &mut out).unwrap_err();
        assert!(matches!(
            err,
            WbsnError::Link(LinkError::FragmentConflict { msg_seq: 0, .. })
        ));
    }

    #[test]
    fn gap_is_declared_once_the_window_passes() {
        let mut framer = LinkFramer::with_mtu(1, 30).unwrap();
        let messages: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 4]).collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let pkts = packets_of(&mut framer, &refs); // 1 packet per message
        let mut r = Reassembler::with_windows(4, 0).unwrap();
        let mut out = Vec::new();
        // Drop message 2 entirely.
        for (i, p) in pkts.iter().enumerate() {
            if i == 2 {
                continue;
            }
            r.accept(p, &mut out).unwrap();
        }
        // Message 2 was declared lost when message 6 (= 2 + window)
        // arrived; everything else came through in order.
        let lost: Vec<(u32, u32)> = out
            .iter()
            .filter_map(|e| match e {
                LinkEvent::Lost { first_seq, count } => Some((*first_seq, *count)),
                _ => None,
            })
            .collect();
        assert_eq!(lost, vec![(2, 1)]);
        let delivered: Vec<u32> = out
            .iter()
            .filter_map(|e| match e {
                LinkEvent::Message { msg_seq, .. } => Some(*msg_seq),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![0, 1, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(r.stats().lost, 1);
    }

    #[test]
    fn a_giant_sequence_jump_is_one_ranged_loss_not_millions_of_events() {
        // A gateway restart (next_seq back at 0) meeting a long-running
        // node's stream must not allocate one event per missing
        // message.
        let mut framer = LinkFramer::with_mtu(1, 30).unwrap();
        let mut raw = Vec::new();
        framer.frame_message(0x01, &[7; 4], &mut raw).unwrap();
        // Simulate the long-running node: same packet, far-future seq.
        let mut pkt = LinkPacket::decode(&raw[0]).unwrap();
        pkt.msg_seq = 10_000_000;
        let mut r = Reassembler::with_windows(64, 0).unwrap();
        let mut out = Vec::new();
        r.accept(&pkt, &mut out).unwrap();
        // One ranged loss covering the whole gap; the jumped-to message
        // itself stays buffered awaiting its window.
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            LinkEvent::Lost {
                first_seq: 0,
                count: 9_999_937, // 10_000_000 - 64 + 1
            }
        ));
        assert_eq!(r.stats().lost, 9_999_937);
        assert_eq!(r.next_seq(), 9_999_937);
        assert_eq!(r.pending(), 1);
        // Flush releases the buffered message after one more ranged gap.
        let mut tail = Vec::new();
        r.flush(&mut tail);
        assert!(matches!(
            tail[0],
            LinkEvent::Lost {
                first_seq: 9_999_937,
                count: 63,
            }
        ));
        assert!(matches!(
            tail[1],
            LinkEvent::Message {
                msg_seq: 10_000_000,
                ..
            }
        ));
    }

    #[test]
    fn hostile_max_sequence_number_cannot_panic_the_flush() {
        let mut framer = LinkFramer::with_mtu(1, 30).unwrap();
        let mut raw = Vec::new();
        framer.frame_message(0x01, &[7; 4], &mut raw).unwrap();
        let mut pkt = LinkPacket::decode(&raw[0]).unwrap();
        pkt.msg_seq = u32::MAX;
        let mut r = Reassembler::with_windows(4, 0).unwrap();
        let mut out = Vec::new();
        r.accept(&pkt, &mut out).unwrap();
        let mut tail = Vec::new();
        r.flush(&mut tail);
        // The ranged gap below it plus the message itself, no panic.
        assert!(matches!(
            tail.last(),
            Some(LinkEvent::Message {
                msg_seq: u32::MAX,
                ..
            })
        ));
    }

    #[test]
    fn flush_releases_tail_and_declares_gaps() {
        let mut framer = LinkFramer::with_mtu(1, 30).unwrap();
        let pkts = packets_of(&mut framer, &[&[1u8; 4], &[2u8; 4], &[3u8; 4]]);
        let mut r = Reassembler::new();
        let mut out = Vec::new();
        // Only messages 1 and 2 arrive; 0 never does.
        r.accept(&pkts[1], &mut out).unwrap();
        r.accept(&pkts[2], &mut out).unwrap();
        assert!(out.is_empty());
        r.flush(&mut out);
        assert!(matches!(
            out[0],
            LinkEvent::Lost {
                first_seq: 0,
                count: 1
            }
        ));
        assert!(matches!(out[1], LinkEvent::Message { msg_seq: 1, .. }));
        assert!(matches!(out[2], LinkEvent::Message { msg_seq: 2, .. }));
        // A straggler for message 0 after the fact is stale, not an error.
        r.accept(&pkts[0], &mut out).unwrap();
        assert_eq!(r.stats().stale, 1);
    }

    #[test]
    fn a_retransmission_inside_the_recovery_window_is_recovered() {
        let mut framer = LinkFramer::with_mtu(1, 30).unwrap(); // 7-byte bodies
        let messages: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 20]).collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let pkts = packets_of(&mut framer, &refs); // 3 packets per message
        let mut r = Reassembler::with_windows(4, 8).unwrap();
        let mut out = Vec::new();
        // Drop message 2 entirely; the rest arrives in order.
        for p in pkts.iter().filter(|p| p.msg_seq != 2) {
            r.accept(p, &mut out).unwrap();
        }
        assert!(out.iter().any(|e| matches!(
            e,
            LinkEvent::Lost {
                first_seq: 2,
                count: 1
            }
        )));
        // The node answers the NACK: message 2's packets arrive late,
        // themselves out of order.
        out.clear();
        let late: Vec<&LinkPacket> = pkts.iter().filter(|p| p.msg_seq == 2).collect();
        r.accept(late[2], &mut out).unwrap();
        r.accept(late[0], &mut out).unwrap();
        assert!(out.is_empty(), "incomplete retransmission recovers nothing");
        r.accept(late[1], &mut out).unwrap();
        assert_eq!(out.len(), 1);
        let LinkEvent::Recovered { msg_seq, bytes, .. } = &out[0] else {
            panic!("expected a recovery, got {:?}", out[0]);
        };
        assert_eq!(*msg_seq, 2);
        assert_eq!(bytes, &messages[2]);
        assert_eq!(r.stats().stale, 0);
        // A second copy of the same retransmission is stale again: the
        // sequence left the recovery set when it recovered.
        out.clear();
        r.accept(late[0], &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(r.stats().stale, 1);
    }

    #[test]
    fn the_recovery_window_is_bounded_and_evicts_oldest() {
        let mut framer = LinkFramer::with_mtu(1, 30).unwrap();
        let messages: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 4]).collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let pkts = packets_of(&mut framer, &refs); // 1 packet per message
        let mut r = Reassembler::with_windows(2, 2).unwrap();
        let mut out = Vec::new();
        // Drop messages 3, 7 and 11; recovery window holds only two.
        for p in pkts.iter().filter(|p| ![3, 7, 11].contains(&p.msg_seq)) {
            r.accept(p, &mut out).unwrap();
        }
        out.clear();
        // Message 3's retransmission was evicted by the later losses.
        r.accept(&pkts[3], &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(r.stats().stale, 1);
        // Messages 7 and 11 are still recoverable.
        r.accept(&pkts[7], &mut out).unwrap();
        r.accept(&pkts[11], &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], LinkEvent::Recovered { msg_seq: 7, .. }));
        assert!(matches!(out[1], LinkEvent::Recovered { msg_seq: 11, .. }));
    }

    #[test]
    fn a_giant_loss_run_keeps_recovery_state_bounded() {
        // The recovery set must track the *newest* tail of a ranged
        // loss, never materialize the whole run.
        let mut framer = LinkFramer::with_mtu(1, 30).unwrap();
        let mut raw = Vec::new();
        framer.frame_message(0x01, &[7; 4], &mut raw).unwrap();
        let mut pkt = LinkPacket::decode(&raw[0]).unwrap();
        pkt.msg_seq = 10_000_000;
        let mut r = Reassembler::with_windows(64, 8).unwrap();
        let mut out = Vec::new();
        r.accept(&pkt, &mut out).unwrap();
        // Newest lost seq is 9_999_936; it must be recoverable, seq 0
        // must not be.
        out.clear();
        let mut retx = pkt.clone();
        retx.msg_seq = 9_999_936;
        r.accept(&retx, &mut out).unwrap();
        assert!(matches!(
            out.as_slice(),
            [LinkEvent::Recovered {
                msg_seq: 9_999_936,
                ..
            }]
        ));
        out.clear();
        let mut ancient = pkt.clone();
        ancient.msg_seq = 0;
        r.accept(&ancient, &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(r.stats().stale, 1);
    }
}
