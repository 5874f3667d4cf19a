//! The wire layer: payloads framed into MTU-sized radio packets
//! uplink, ACK/NACK/directive control frames downlink.
//!
//! The paper's node hands payloads to "a simple medium access control
//! (MAC) scheme (IEEE 802.15.4)"; this module is the layer between the
//! pipeline's [`Payload`]s and that radio. Each payload becomes one
//! link-layer *message*, fragmented into packets that fit the radio's
//! MTU (the 802.15.4 `MAX_PAYLOAD` of 116 bytes by default). Every
//! packet carries a fixed header — session id, message sequence
//! number, fragment index/count, payload kind — and a CRC32 trailer,
//! so the receiving gateway (`wbsn-gateway`) can reassemble streams
//! from many nodes, detect losses and reject corruption with typed
//! [`LinkError`]s instead of ever surfacing a wrong payload.
//!
//! ```text
//!   Payload::encode() ──► LinkFramer ──► [pkt][pkt][pkt] ──► radio
//!                         (per session,   ≤ MTU each,
//!                          msg_seq++)     header + CRC32)
//! ```
//!
//! The byte accounting here is shared with the energy model:
//! [`wire_bytes_for`] is exactly what
//! [`RadioModel::transmit_framed`](wbsn_platform::radio::RadioModel::transmit_framed)
//! prices and exactly what an [`Uplink`] counts, so the bytes the
//! battery pays for are the bytes on the wire.
//!
//! ## Packet format (little-endian)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 1    | payload kind (`0x00` = handshake, else payload tag) |
//! | 1      | 8    | session id |
//! | 9      | 4    | message sequence number |
//! | 13     | 2    | fragment index |
//! | 15     | 2    | fragment count |
//! | 17     | 2    | body length `n` |
//! | 19     | `n`  | body |
//! | 19+`n` | 4    | CRC32 (IEEE) over bytes `0..19+n` |
//!
//! The same packet format carries the **downlink**: kinds
//! `0xF0..=0xFF` are reserved for gateway→node control frames
//! ([`DownlinkFrame`]), of which `0xF0`/`0xF1`/`0xF2` are assigned to
//! cumulative ACKs, selective NACKs and controller directives. The
//! handshake record leads with a [`PROTOCOL_VERSION`] byte so future
//! wire changes are negotiable (typed
//! [`WbsnError::UnsupportedVersion`]) instead of silently
//! mis-decoding.

use crate::monitor::MonitorConfig;
use crate::payload::Payload;
use crate::{Result, WbsnError};
use std::collections::BTreeMap;

/// Fixed per-packet header size in bytes (everything before the body).
pub const LINK_HEADER_BYTES: usize = 19;
/// CRC32 trailer size in bytes.
pub const LINK_TRAILER_BYTES: usize = 4;
/// Total per-packet overhead: header + CRC trailer.
pub const LINK_OVERHEAD_BYTES: usize = LINK_HEADER_BYTES + LINK_TRAILER_BYTES;
/// Default MTU: one packet per 802.15.4 frame
/// ([`wbsn_platform::radio::frame::MAX_PAYLOAD`]).
pub const DEFAULT_MTU: usize = wbsn_platform::radio::frame::MAX_PAYLOAD;
/// Kind byte of a session handshake message; payload messages carry
/// their [`Payload`] tag (`0x01..=0x04`) instead.
pub const KIND_HANDSHAKE: u8 = 0x00;
/// Wire-protocol version this build speaks, announced as the first
/// byte of every [`SessionHandshake`]. A gateway that receives a
/// higher (or lower) version rejects the session with a typed
/// [`WbsnError::UnsupportedVersion`] before creating any state.
pub const PROTOCOL_VERSION: u8 = 1;
/// First kind byte of the reserved downlink/control range
/// (`0xF0..=0xFF`). Uplink payload tags will never be assigned here,
/// so a node can classify a packet by kind alone.
pub const KIND_DOWNLINK_MIN: u8 = 0xF0;
/// Downlink kind: cumulative acknowledgement ([`DownlinkFrame::Ack`]).
pub const KIND_ACK: u8 = 0xF0;
/// Downlink kind: cumulative ack + selective NACK
/// ([`DownlinkFrame::Nack`]).
pub const KIND_NACK: u8 = 0xF1;
/// Downlink kind: link-controller directive
/// ([`DownlinkFrame::Directive`]).
pub const KIND_DIRECTIVE: u8 = 0xF2;
/// Most missing-message ids one NACK frame carries; older gaps wait
/// for the next pump so the downlink stays one packet per session per
/// epoch.
pub const NACK_MAX_MISSING: usize = 16;

/// True for kind bytes in the reserved gateway→node control range.
pub fn is_downlink_kind(kind: u8) -> bool {
    kind >= KIND_DOWNLINK_MIN
}

/// Typed link-layer failures, shared by the node-side framer and the
/// gateway-side reassembly (`wbsn-gateway`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// A packet is shorter than its header and length field claim.
    Truncated {
        /// Bytes the parser needed.
        needed: usize,
        /// Bytes it got.
        got: usize,
    },
    /// The CRC32 trailer does not match the packet bytes — the packet
    /// was corrupted in flight and is rejected whole.
    CrcMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// A header field is structurally invalid (zero fragment count,
    /// fragment index out of range, trailing bytes).
    BadHeader {
        /// Explanation.
        detail: String,
    },
    /// Two fragments claimed the same slot of one message with
    /// different contents or inconsistent metadata.
    FragmentConflict {
        /// Message sequence number.
        msg_seq: u32,
        /// Conflicting fragment index.
        frag_index: u16,
    },
    /// A message could not be framed because it would need more
    /// fragments than the 16-bit fragment counter can address.
    Oversized {
        /// Message length in bytes.
        len: usize,
        /// Largest length the MTU supports.
        max: usize,
    },
    /// A compressed window arrived for a session whose handshake
    /// (sensing-matrix seed and shape) was never received.
    NoHandshake {
        /// The session missing its handshake.
        session: u64,
    },
}

impl core::fmt::Display for LinkError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LinkError::Truncated { needed, got } => {
                write!(f, "truncated packet: needed {needed} bytes, got {got}")
            }
            LinkError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            LinkError::BadHeader { detail } => write!(f, "bad packet header: {detail}"),
            LinkError::FragmentConflict {
                msg_seq,
                frag_index,
            } => {
                write!(f, "conflicting fragment {frag_index} of message {msg_seq}")
            }
            LinkError::Oversized { len, max } => {
                write!(
                    f,
                    "message of {len} bytes exceeds the framable maximum {max}"
                )
            }
            LinkError::NoHandshake { session } => {
                write!(f, "no handshake received for session {session}")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// CRC32 (IEEE 802.3, reflected) over `bytes` — the per-packet
/// integrity check. Nibble-table implementation: fast enough for the
/// gateway's ingest hot path, no 1 kB table in node RAM.
pub fn crc32(bytes: &[u8]) -> u32 {
    // 16-entry table of the reflected polynomial 0xEDB88320.
    const TABLE: [u32; 16] = [
        0x0000_0000,
        0x1db7_1064,
        0x3b6e_20c8,
        0x26d9_30ac,
        0x76dc_4190,
        0x6b6b_51f4,
        0x4db2_6158,
        0x5005_713c,
        0xedb8_8320,
        0xf00f_9344,
        0xd6d6_a3e8,
        0xcb61_b38c,
        0x9b64_c2b0,
        0x86d3_d2d4,
        0xa00a_e278,
        0xbdbd_f21c,
    ];
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0x0F) as usize] ^ (crc >> 4);
        crc = TABLE[((crc ^ (b as u32 >> 4)) & 0x0F) as usize] ^ (crc >> 4);
    }
    !crc
}

/// One link-layer packet: a fragment of one message, with enough
/// header to route, order and reassemble it, and a CRC32 trailer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkPacket {
    /// Originating session.
    pub session: u64,
    /// Per-session message sequence number (one message per payload).
    pub msg_seq: u32,
    /// Index of this fragment within the message.
    pub frag_index: u16,
    /// Total fragments of the message.
    pub frag_count: u16,
    /// Message kind: [`KIND_HANDSHAKE`] or the payload's tag byte.
    pub kind: u8,
    /// Fragment body bytes.
    pub body: Vec<u8>,
}

impl LinkPacket {
    /// Encoded size in bytes (header + body + CRC).
    pub fn encoded_len(&self) -> usize {
        LINK_OVERHEAD_BYTES + self.body.len()
    }

    /// Encodes to the on-air packet bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.push(self.kind);
        out.extend(self.session.to_le_bytes());
        out.extend(self.msg_seq.to_le_bytes());
        out.extend(self.frag_index.to_le_bytes());
        out.extend(self.frag_count.to_le_bytes());
        out.extend((self.body.len() as u16).to_le_bytes());
        out.extend(&self.body);
        let crc = crc32(&out);
        out.extend(crc.to_le_bytes());
        out
    }

    /// Decodes and integrity-checks one received packet.
    ///
    /// # Errors
    ///
    /// [`LinkError::Truncated`] when bytes are missing,
    /// [`LinkError::BadHeader`] on structurally invalid fields or
    /// trailing bytes, [`LinkError::CrcMismatch`] when the trailer
    /// does not match — a corrupted packet is always rejected whole,
    /// never decoded into a wrong payload (wrapped in
    /// [`WbsnError::Link`]).
    pub fn decode(bytes: &[u8]) -> Result<LinkPacket> {
        if bytes.len() < LINK_OVERHEAD_BYTES {
            return Err(LinkError::Truncated {
                needed: LINK_OVERHEAD_BYTES,
                got: bytes.len(),
            }
            .into());
        }
        let body_len = u16::from_le_bytes([bytes[17], bytes[18]]) as usize;
        let needed = LINK_OVERHEAD_BYTES + body_len;
        if bytes.len() < needed {
            return Err(LinkError::Truncated {
                needed,
                got: bytes.len(),
            }
            .into());
        }
        if bytes.len() > needed {
            return Err(LinkError::BadHeader {
                detail: format!("{} trailing bytes after the CRC", bytes.len() - needed),
            }
            .into());
        }
        let stored = u32::from_le_bytes([
            bytes[needed - 4],
            bytes[needed - 3],
            bytes[needed - 2],
            bytes[needed - 1],
        ]);
        let computed = crc32(&bytes[..needed - 4]);
        if stored != computed {
            return Err(LinkError::CrcMismatch { stored, computed }.into());
        }
        let frag_index = u16::from_le_bytes([bytes[13], bytes[14]]);
        let frag_count = u16::from_le_bytes([bytes[15], bytes[16]]);
        if frag_count == 0 || frag_index >= frag_count {
            return Err(LinkError::BadHeader {
                detail: format!("fragment {frag_index} of {frag_count}"),
            }
            .into());
        }
        Ok(LinkPacket {
            kind: bytes[0],
            session: u64::from_le_bytes(le_array(bytes, 1)),
            msg_seq: u32::from_le_bytes(le_array(bytes, 9)),
            frag_index,
            frag_count,
            body: bytes[LINK_HEADER_BYTES..needed - 4].to_vec(),
        })
    }
}

/// Copies `N` little-endian bytes starting at `at` into a fixed
/// array, zero-filling when the slice is too short. Decoders check
/// lengths upfront, so the zero-fill branch is unreachable in
/// practice — but wire decoding stays panic-free by construction
/// rather than by `expect`ed slice-length invariants.
fn le_array<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    if let Some(src) = bytes.get(at..at + N) {
        out.copy_from_slice(src);
    }
    out
}

/// Packets needed to carry a `payload_len`-byte message at `mtu`
/// (an empty message still takes one packet).
pub fn fragments_for(payload_len: usize, mtu: usize) -> usize {
    let cap = mtu.saturating_sub(LINK_OVERHEAD_BYTES).max(1);
    payload_len.div_ceil(cap).max(1)
}

/// Total on-wire bytes of a `payload_len`-byte message at `mtu`:
/// the payload plus one [`LINK_OVERHEAD_BYTES`] header+CRC per
/// fragment. This is the quantity the radio energy model prices
/// ([`RadioModel::transmit_framed`](wbsn_platform::radio::RadioModel::transmit_framed))
/// and the [`Uplink`] counts.
pub fn wire_bytes_for(payload_len: usize, mtu: usize) -> usize {
    payload_len + fragments_for(payload_len, mtu) * LINK_OVERHEAD_BYTES
}

/// The session handshake record the node sends (message 0) before any
/// payload: everything the gateway needs to decode the stream and —
/// for CS sessions — regenerate the sensing matrix Φ by seed and run
/// reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionHandshake {
    /// Wire-protocol version ([`PROTOCOL_VERSION`]); encoded as the
    /// first byte so a receiver can reject an unknown version before
    /// trusting any other field.
    pub version: u8,
    /// Session id.
    pub session: u64,
    /// Sampling rate per lead, Hz.
    pub fs_hz: u32,
    /// Configured lead count.
    pub n_leads: u8,
    /// CS window length in samples.
    pub cs_window: u32,
    /// CS measurements per window (`m`).
    pub cs_measurements: u32,
    /// CS sensing-matrix column density.
    pub cs_d_per_col: u8,
    /// Shared sensing-matrix seed (lead `l` uses
    /// `seed.wrapping_add(l)`, matching the node's `CsStage`).
    pub seed: u64,
}

impl SessionHandshake {
    /// Encoded size in bytes.
    pub const ENCODED_LEN: usize = 1 + 8 + 4 + 1 + 4 + 4 + 1 + 8;

    /// Builds the handshake for a session's configuration.
    pub fn for_config(session: u64, cfg: &MonitorConfig) -> Self {
        SessionHandshake {
            version: PROTOCOL_VERSION,
            session,
            fs_hz: cfg.fs_hz,
            n_leads: cfg.n_leads.min(255) as u8,
            cs_window: cfg.cs_window as u32,
            cs_measurements: wbsn_cs::measurements_for_cr(cfg.cs_window, cfg.cs_cr_percent) as u32,
            cs_d_per_col: cfg.cs_d_per_col.min(255) as u8,
            seed: cfg.seed,
        }
    }

    /// The CS compression ratio this handshake installs, in percent:
    /// `100·(1 − m/n)` with the window clamped to at least one sample.
    /// The gateway's link controller and its session reports both read
    /// the CR through this one expression.
    pub fn cr_percent(&self) -> f64 {
        100.0 * (1.0 - f64::from(self.cs_measurements) / f64::from(self.cs_window.max(1)))
    }

    /// Encodes to the fixed-size wire record.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::ENCODED_LEN);
        out.push(self.version);
        out.extend(self.session.to_le_bytes());
        out.extend(self.fs_hz.to_le_bytes());
        out.push(self.n_leads);
        out.extend(self.cs_window.to_le_bytes());
        out.extend(self.cs_measurements.to_le_bytes());
        out.push(self.cs_d_per_col);
        out.extend(self.seed.to_le_bytes());
        out
    }

    /// Decodes the wire record.
    ///
    /// # Errors
    ///
    /// [`WbsnError::UnsupportedVersion`] when the leading version
    /// byte is not [`PROTOCOL_VERSION`] — checked before any length
    /// or field validation, since a future version may change the
    /// record layout. Otherwise [`WbsnError::Truncated`] /
    /// [`WbsnError::Malformed`] on bad input, like
    /// [`Payload::decode`].
    pub fn decode(bytes: &[u8]) -> Result<SessionHandshake> {
        let Some(&version) = bytes.first() else {
            return Err(WbsnError::Truncated {
                what: "session handshake",
                needed: Self::ENCODED_LEN,
                got: 0,
            });
        };
        if version != PROTOCOL_VERSION {
            return Err(WbsnError::UnsupportedVersion {
                got: version,
                supported: PROTOCOL_VERSION,
            });
        }
        if bytes.len() < Self::ENCODED_LEN {
            return Err(WbsnError::Truncated {
                what: "session handshake",
                needed: Self::ENCODED_LEN,
                got: bytes.len(),
            });
        }
        if bytes.len() > Self::ENCODED_LEN {
            return Err(WbsnError::Malformed {
                what: "session handshake",
                detail: format!("{} trailing bytes", bytes.len() - Self::ENCODED_LEN),
            });
        }
        Ok(SessionHandshake {
            version,
            session: u64::from_le_bytes(le_array(bytes, 1)),
            fs_hz: u32::from_le_bytes(le_array(bytes, 9)),
            n_leads: bytes[13],
            cs_window: u32::from_le_bytes(le_array(bytes, 14)),
            cs_measurements: u32::from_le_bytes(le_array(bytes, 18)),
            cs_d_per_col: bytes[22],
            seed: u64::from_le_bytes(le_array(bytes, 23)),
        })
    }
}

/// A control action the gateway's link controller asks the node to
/// apply ([`DownlinkFrame::Directive`]). Applications happen at
/// deterministic stream boundaries through
/// [`DirectiveHandler`](crate::retransmit::DirectiveHandler), never
/// mid-window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectiveAction {
    /// Switch the CS compression ratio to `cr_x10 / 10` percent
    /// (fixed-point so the wire stays integer; e.g. `659` = 65.9 %).
    SetCr {
        /// Compression ratio in tenths of a percent.
        cr_x10: u16,
    },
    /// Switch the operating mode: `level` indexes
    /// [`ProcessingLevel::ALL`](crate::level::ProcessingLevel::ALL),
    /// `active_leads` is the powered lead count.
    SetMode {
        /// Index into the processing-level ladder.
        level: u8,
        /// Powered acquisition leads.
        active_leads: u8,
    },
}

// Wire tags of the directive actions.
const DIRECTIVE_SET_CR: u8 = 0x01;
const DIRECTIVE_SET_MODE: u8 = 0x02;

/// One numbered directive: `directive_seq` increases per session so a
/// node can drop duplicates and stale reorderings (latest wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectiveFrame {
    /// Per-session directive sequence number.
    pub directive_seq: u32,
    /// The requested action.
    pub action: DirectiveAction,
}

/// A gateway→node control frame, carried as a single-fragment
/// [`LinkPacket`] whose kind byte is in the reserved downlink range
/// (`0xF0..=0xFF`). The `msg_seq` field carries an independent
/// per-session *downlink* sequence so the node-side channel replay
/// stays deterministic; it does not interact with uplink sequencing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownlinkFrame {
    /// Cumulative acknowledgement: every uplink message with
    /// `msg_seq < cum_ack` was delivered (or given up on) — the node
    /// may drop them from its retransmit buffer.
    Ack {
        /// First sequence number not yet fully received.
        cum_ack: u32,
    },
    /// Cumulative ack plus a bounded list of missing message ids past
    /// it — the selective-retransmission request.
    Nack {
        /// First sequence number not yet fully received.
        cum_ack: u32,
        /// Missing ids in `cum_ack..` (ascending, at most
        /// [`NACK_MAX_MISSING`]).
        missing: Vec<u32>,
    },
    /// A link-controller directive ([`DirectiveFrame`]).
    Directive(DirectiveFrame),
}

impl DownlinkFrame {
    /// The kind byte this frame travels under.
    pub fn kind(&self) -> u8 {
        match self {
            DownlinkFrame::Ack { .. } => KIND_ACK,
            DownlinkFrame::Nack { .. } => KIND_NACK,
            DownlinkFrame::Directive(_) => KIND_DIRECTIVE,
        }
    }

    /// Encodes the frame body (everything inside the link packet).
    pub fn encode_body(&self) -> Vec<u8> {
        match self {
            DownlinkFrame::Ack { cum_ack } => cum_ack.to_le_bytes().to_vec(),
            DownlinkFrame::Nack { cum_ack, missing } => {
                let n = missing.len().min(NACK_MAX_MISSING);
                let mut out = Vec::with_capacity(5 + 4 * n);
                out.extend(cum_ack.to_le_bytes());
                out.push(n as u8);
                for id in missing.iter().take(n) {
                    out.extend(id.to_le_bytes());
                }
                out
            }
            DownlinkFrame::Directive(d) => {
                let mut out = Vec::with_capacity(7);
                out.extend(d.directive_seq.to_le_bytes());
                match d.action {
                    DirectiveAction::SetCr { cr_x10 } => {
                        out.push(DIRECTIVE_SET_CR);
                        out.extend(cr_x10.to_le_bytes());
                    }
                    DirectiveAction::SetMode {
                        level,
                        active_leads,
                    } => {
                        out.push(DIRECTIVE_SET_MODE);
                        out.push(level);
                        out.push(active_leads);
                    }
                }
                out
            }
        }
    }

    /// Wraps the frame into a single-fragment [`LinkPacket`] for
    /// `session` at downlink sequence `msg_seq`.
    pub fn to_packet(&self, session: u64, msg_seq: u32) -> LinkPacket {
        LinkPacket {
            session,
            msg_seq,
            frag_index: 0,
            frag_count: 1,
            kind: self.kind(),
            body: self.encode_body(),
        }
    }

    /// Encodes straight to on-air bytes (packet header + CRC32).
    pub fn to_wire(&self, session: u64, msg_seq: u32) -> Vec<u8> {
        self.to_packet(session, msg_seq).encode()
    }

    /// Decodes a downlink frame out of a CRC-checked [`LinkPacket`].
    ///
    /// # Errors
    ///
    /// [`LinkError::BadHeader`] when the kind byte is not a known
    /// downlink kind or the packet is fragmented;
    /// [`WbsnError::Truncated`] / [`WbsnError::Malformed`] on body
    /// length or field mismatches.
    pub fn from_packet(pkt: &LinkPacket) -> Result<DownlinkFrame> {
        if !is_downlink_kind(pkt.kind) {
            return Err(LinkError::BadHeader {
                detail: format!("kind {:#04x} is not a downlink frame", pkt.kind),
            }
            .into());
        }
        if pkt.frag_count != 1 {
            return Err(LinkError::BadHeader {
                detail: format!("downlink frame fragmented {}x", pkt.frag_count),
            }
            .into());
        }
        let body = &pkt.body;
        let need = |needed: usize, what: &'static str| -> Result<()> {
            if body.len() < needed {
                Err(WbsnError::Truncated {
                    what,
                    needed,
                    got: body.len(),
                })
            } else {
                Ok(())
            }
        };
        match pkt.kind {
            KIND_ACK => {
                need(4, "ack frame")?;
                if body.len() > 4 {
                    return Err(WbsnError::Malformed {
                        what: "ack frame",
                        detail: format!("{} trailing bytes", body.len() - 4),
                    });
                }
                Ok(DownlinkFrame::Ack {
                    cum_ack: u32::from_le_bytes(le_array(body, 0)),
                })
            }
            KIND_NACK => {
                need(5, "nack frame")?;
                let cum_ack = u32::from_le_bytes(le_array(body, 0));
                let n = body[4] as usize;
                if n > NACK_MAX_MISSING {
                    return Err(WbsnError::Malformed {
                        what: "nack frame",
                        detail: format!("{n} missing ids exceed the cap {NACK_MAX_MISSING}"),
                    });
                }
                let needed = 5 + 4 * n;
                need(needed, "nack frame")?;
                if body.len() > needed {
                    return Err(WbsnError::Malformed {
                        what: "nack frame",
                        detail: format!("{} trailing bytes", body.len() - needed),
                    });
                }
                let missing = (0..n)
                    .map(|i| u32::from_le_bytes(le_array(body, 5 + 4 * i)))
                    .collect();
                Ok(DownlinkFrame::Nack { cum_ack, missing })
            }
            KIND_DIRECTIVE => {
                need(5, "directive frame")?;
                let directive_seq = u32::from_le_bytes(le_array(body, 0));
                let (action, needed) = match body[4] {
                    DIRECTIVE_SET_CR => {
                        need(7, "directive frame")?;
                        (
                            DirectiveAction::SetCr {
                                cr_x10: u16::from_le_bytes(le_array(body, 5)),
                            },
                            7,
                        )
                    }
                    DIRECTIVE_SET_MODE => {
                        need(7, "directive frame")?;
                        (
                            DirectiveAction::SetMode {
                                level: body[5],
                                active_leads: body[6],
                            },
                            7,
                        )
                    }
                    other => {
                        return Err(WbsnError::Malformed {
                            what: "directive frame",
                            detail: format!("unknown action tag {other:#04x}"),
                        })
                    }
                };
                if body.len() > needed {
                    return Err(WbsnError::Malformed {
                        what: "directive frame",
                        detail: format!("{} trailing bytes", body.len() - needed),
                    });
                }
                Ok(DownlinkFrame::Directive(DirectiveFrame {
                    directive_seq,
                    action,
                }))
            }
            other => Err(WbsnError::Malformed {
                what: "downlink frame",
                detail: format!("reserved kind {other:#04x} is not assigned in this version"),
            }),
        }
    }

    /// Decodes a downlink frame from raw wire bytes (CRC-checked).
    ///
    /// # Errors
    ///
    /// As [`LinkPacket::decode`] and [`Self::from_packet`].
    pub fn from_wire(bytes: &[u8]) -> Result<DownlinkFrame> {
        DownlinkFrame::from_packet(&LinkPacket::decode(bytes)?)
    }
}

/// Per-session framing state: turns messages into MTU-sized packets
/// with monotonically increasing message sequence numbers.
#[derive(Debug, Clone)]
pub struct LinkFramer {
    session: u64,
    mtu: usize,
    next_msg_seq: u32,
    packets: u64,
    wire_bytes: u64,
}

impl LinkFramer {
    /// Framer for `session` at the default radio MTU
    /// ([`DEFAULT_MTU`]).
    pub fn new(session: u64) -> Self {
        LinkFramer {
            session,
            mtu: DEFAULT_MTU,
            next_msg_seq: 0,
            packets: 0,
            wire_bytes: 0,
        }
    }

    /// Framer with an explicit MTU (must exceed the per-packet
    /// overhead).
    ///
    /// # Errors
    ///
    /// [`WbsnError::InvalidParameter`] when `mtu` leaves no room for
    /// body bytes.
    pub fn with_mtu(session: u64, mtu: usize) -> Result<Self> {
        if mtu <= LINK_OVERHEAD_BYTES {
            return Err(WbsnError::InvalidParameter {
                what: "mtu",
                detail: format!("{mtu} does not exceed the packet overhead {LINK_OVERHEAD_BYTES}"),
            });
        }
        Ok(LinkFramer {
            mtu,
            ..LinkFramer::new(session)
        })
    }

    /// Session this framer serves.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// MTU in effect.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// Sequence number the next message will carry.
    pub fn next_msg_seq(&self) -> u32 {
        self.next_msg_seq
    }

    /// Packets emitted over the framer's lifetime.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// On-wire bytes emitted over the framer's lifetime (headers and
    /// CRCs included).
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Frames one message of `kind` into packets, appending the
    /// encoded packet bytes to `out`. Returns the message's sequence
    /// number.
    ///
    /// # Errors
    ///
    /// [`LinkError::Oversized`] when the message needs more fragments
    /// than the 16-bit counter can address.
    pub fn frame_message(&mut self, kind: u8, body: &[u8], out: &mut Vec<Vec<u8>>) -> Result<u32> {
        let cap = self.mtu - LINK_OVERHEAD_BYTES;
        let frag_count = fragments_for(body.len(), self.mtu);
        if frag_count > u16::MAX as usize {
            return Err(LinkError::Oversized {
                len: body.len(),
                max: cap * u16::MAX as usize,
            }
            .into());
        }
        // The receiver's in-order release relies on message sequence
        // numbers never wrapping; a session is bounded to 2^32 - 1
        // messages (decades at physiological payload rates) and ends
        // with a typed error instead of silently wrapping into
        // permanent stale-packet loss at the gateway.
        if self.next_msg_seq == u32::MAX {
            return Err(WbsnError::InvalidParameter {
                what: "msg_seq",
                detail: format!(
                    "session {} exhausted its message sequence space",
                    self.session
                ),
            });
        }
        let msg_seq = self.next_msg_seq;
        self.next_msg_seq += 1;
        for frag_index in 0..frag_count {
            let chunk = &body[frag_index * cap..body.len().min((frag_index + 1) * cap)];
            let pkt = LinkPacket {
                session: self.session,
                msg_seq,
                frag_index: frag_index as u16,
                frag_count: frag_count as u16,
                kind,
                body: chunk.to_vec(),
            };
            let bytes = pkt.encode();
            self.packets += 1;
            self.wire_bytes += bytes.len() as u64;
            out.push(bytes);
        }
        Ok(msg_seq)
    }

    /// Frames one payload (encoded with [`Payload::encode`], kind =
    /// its tag byte).
    ///
    /// # Errors
    ///
    /// As [`Self::frame_message`].
    pub fn frame_payload(&mut self, payload: &Payload, out: &mut Vec<Vec<u8>>) -> Result<u32> {
        let body = payload.encode();
        self.frame_message(body[0], &body, out)
    }

    /// Frames the session handshake record ([`KIND_HANDSHAKE`]).
    ///
    /// # Errors
    ///
    /// As [`Self::frame_message`].
    pub fn frame_handshake(
        &mut self,
        hs: &SessionHandshake,
        out: &mut Vec<Vec<u8>>,
    ) -> Result<u32> {
        self.frame_message(KIND_HANDSHAKE, &hs.encode(), out)
    }
}

/// The multi-session uplink front end: one [`LinkFramer`] per session,
/// shared MTU, exact wire byte accounting.
///
/// ```
/// use wbsn_core::link::{SessionHandshake, Uplink};
/// use wbsn_core::monitor::MonitorBuilder;
///
/// let mut monitor = MonitorBuilder::new().build().unwrap();
/// let mut uplink = Uplink::new();
/// let hs = SessionHandshake::for_config(3, monitor.config());
/// let mut packets = Vec::new();
/// uplink.open_session(&hs, &mut packets).unwrap();
/// assert_eq!(packets.len(), 1); // the handshake fits one packet
///
/// // Ingest a second of signal and put the payloads on the wire.
/// let payloads = monitor.push_block(&[0i32; 3 * 250], 250).unwrap();
/// uplink.frame(3, &payloads, &mut packets).unwrap();
/// assert_eq!(uplink.wire_bytes() as usize,
///            packets.iter().map(Vec::len).sum::<usize>());
/// ```
#[derive(Debug, Default)]
pub struct Uplink {
    framers: BTreeMap<u64, LinkFramer>,
    payload_bytes: u64,
    // Totals of sessions closed by `close_session`, so lifetime wire
    // accounting survives session churn.
    retired_wire_bytes: u64,
    retired_packets: u64,
}

impl Uplink {
    /// Uplink at the default radio MTU.
    pub fn new() -> Self {
        Uplink::default()
    }

    /// Registered sessions.
    pub fn len(&self) -> usize {
        self.framers.len()
    }

    /// True when no sessions are registered.
    pub fn is_empty(&self) -> bool {
        self.framers.is_empty()
    }

    /// Registers a session and frames its handshake record as message
    /// 0, appending the packets to `out`.
    ///
    /// # Errors
    ///
    /// [`WbsnError::InvalidParameter`] when the session is already
    /// registered.
    pub fn open_session(&mut self, hs: &SessionHandshake, out: &mut Vec<Vec<u8>>) -> Result<()> {
        if self.framers.contains_key(&hs.session) {
            return Err(WbsnError::InvalidParameter {
                what: "session",
                detail: format!("session {} is already on the uplink", hs.session),
            });
        }
        let mut framer = LinkFramer::new(hs.session);
        framer.frame_handshake(hs, out)?;
        self.framers.insert(hs.session, framer);
        Ok(())
    }

    /// Deregisters a session, retiring its byte/packet totals into the
    /// uplink lifetime counters; returns whether it was registered.
    pub fn close_session(&mut self, session: u64) -> bool {
        match self.framers.remove(&session) {
            Some(framer) => {
                self.retired_wire_bytes += framer.wire_bytes();
                self.retired_packets += framer.packets();
                true
            }
            None => false,
        }
    }

    /// Frames one session's payloads onto the wire, appending the
    /// encoded packets to `out`.
    ///
    /// # Errors
    ///
    /// [`WbsnError::UnknownSession`] for an unregistered session, plus
    /// framing failures.
    pub fn frame(
        &mut self,
        session: u64,
        payloads: &[Payload],
        out: &mut Vec<Vec<u8>>,
    ) -> Result<()> {
        let framer = self
            .framers
            .get_mut(&session)
            .ok_or(WbsnError::UnknownSession { id: session })?;
        for p in payloads {
            framer.frame_payload(p, out)?;
            // Counted only after framing succeeds, so the payload and
            // wire accounting always describe the same traffic.
            self.payload_bytes += p.byte_len() as u64;
        }
        Ok(())
    }

    /// Frames one payload, returning the message sequence number it
    /// was assigned — the handle a
    /// [`RetransmitBuffer`](crate::retransmit::RetransmitBuffer)
    /// records the packets under.
    ///
    /// # Errors
    ///
    /// As [`Self::frame`].
    pub fn frame_one(
        &mut self,
        session: u64,
        payload: &Payload,
        out: &mut Vec<Vec<u8>>,
    ) -> Result<u32> {
        let framer = self
            .framers
            .get_mut(&session)
            .ok_or(WbsnError::UnknownSession { id: session })?;
        let msg_seq = framer.frame_payload(payload, out)?;
        self.payload_bytes += payload.byte_len() as u64;
        Ok(msg_seq)
    }

    /// Re-announces a session's handshake mid-stream (after a CS
    /// compression-ratio renegotiation the gateway must learn the new
    /// measurement count before the next window arrives). The record
    /// is framed as a regular in-sequence message, so ordering with
    /// the surrounding payloads is preserved end to end.
    ///
    /// # Errors
    ///
    /// [`WbsnError::UnknownSession`] for an unregistered session, plus
    /// framing failures.
    pub fn announce_handshake(
        &mut self,
        hs: &SessionHandshake,
        out: &mut Vec<Vec<u8>>,
    ) -> Result<u32> {
        let framer = self
            .framers
            .get_mut(&hs.session)
            .ok_or(WbsnError::UnknownSession { id: hs.session })?;
        framer.frame_handshake(hs, out)
    }

    /// Application payload bytes accepted so far (before framing).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Total on-wire bytes emitted over the uplink's lifetime (headers
    /// and CRCs included, closed sessions too) — the number the
    /// battery pays for.
    pub fn wire_bytes(&self) -> u64 {
        self.retired_wire_bytes
            + self
                .framers
                .values()
                .map(LinkFramer::wire_bytes)
                .sum::<u64>()
    }

    /// Total packets emitted over the uplink's lifetime (closed
    /// sessions included).
    pub fn packets(&self) -> u64 {
        self.retired_packets + self.framers.values().map(LinkFramer::packets).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_payload() -> Payload {
        Payload::Events {
            n_beats: 12,
            class_counts: [10, 2, 0, 0],
            mean_hr_x10: 731,
            af_burden_pct: 4,
            af_active: false,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn packet_round_trips() {
        let pkt = LinkPacket {
            session: 7,
            msg_seq: 42,
            frag_index: 1,
            frag_count: 3,
            kind: 0x02,
            body: vec![1, 2, 3, 4, 5],
        };
        let bytes = pkt.encode();
        assert_eq!(bytes.len(), pkt.encoded_len());
        assert_eq!(LinkPacket::decode(&bytes).unwrap(), pkt);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let pkt = LinkPacket {
            session: 3,
            msg_seq: 9,
            frag_index: 0,
            frag_count: 1,
            kind: 0x04,
            body: sample_payload().encode(),
        };
        let bytes = pkt.encode();
        for bit in 0..bytes.len() * 8 {
            let mut corrupted = bytes.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            let res = LinkPacket::decode(&corrupted);
            assert!(res.is_err(), "bit {bit} survived: {res:?}");
        }
    }

    #[test]
    fn framer_fragments_at_the_mtu() {
        let mut f = LinkFramer::with_mtu(1, 40).unwrap(); // 17-byte bodies
        let body = vec![9u8; 50];
        let mut out = Vec::new();
        f.frame_message(0x01, &body, &mut out).unwrap();
        assert_eq!(out.len(), fragments_for(50, 40));
        assert_eq!(out.len(), 3);
        let pkts: Vec<LinkPacket> = out.iter().map(|b| LinkPacket::decode(b).unwrap()).collect();
        assert!(pkts.iter().all(|p| p.frag_count == 3 && p.msg_seq == 0));
        let total: Vec<u8> = pkts.iter().flat_map(|p| p.body.clone()).collect();
        assert_eq!(total, body);
        assert_eq!(
            f.wire_bytes() as usize,
            out.iter().map(Vec::len).sum::<usize>()
        );
        assert_eq!(f.wire_bytes() as usize, wire_bytes_for(50, 40));
    }

    #[test]
    fn wire_accounting_agrees_with_the_radio_model() {
        use wbsn_platform::radio::RadioModel;
        let radio = RadioModel::default();
        // The energy model's framed path and the link framer must
        // agree packet-for-packet and byte-for-byte, so the bytes the
        // battery pays for are exactly the bytes on the wire.
        for len in [1usize, 92, 93, 94, 358, 1000] {
            assert_eq!(
                radio.frames_for_framed(len, LINK_OVERHEAD_BYTES),
                fragments_for(len, DEFAULT_MTU),
                "len {len}"
            );
            let mut framer = LinkFramer::new(0);
            let mut out = Vec::new();
            framer
                .frame_message(0x01, &vec![0u8; len], &mut out)
                .unwrap();
            assert_eq!(
                framer.wire_bytes() as usize,
                wire_bytes_for(len, DEFAULT_MTU),
                "len {len}"
            );
        }
    }

    #[test]
    fn handshake_round_trips() {
        let hs = SessionHandshake {
            version: PROTOCOL_VERSION,
            session: 11,
            fs_hz: 250,
            n_leads: 3,
            cs_window: 512,
            cs_measurements: 175,
            cs_d_per_col: 4,
            seed: 0xCAFE,
        };
        let bytes = hs.encode();
        assert_eq!(bytes.len(), SessionHandshake::ENCODED_LEN);
        assert_eq!(SessionHandshake::decode(&bytes).unwrap(), hs);
        assert!(matches!(
            SessionHandshake::decode(&bytes[..10]),
            Err(WbsnError::Truncated { .. })
        ));
    }

    #[test]
    fn cr_percent_reads_the_installed_shape() {
        let mut hs = SessionHandshake::for_config(2, &crate::monitor::MonitorConfig::default());
        hs.cs_window = 512;
        hs.cs_measurements = 256;
        assert_eq!(hs.cr_percent(), 50.0);
        hs.cs_measurements = 175;
        assert_eq!(
            hs.cr_percent().to_bits(),
            (100.0 * (1.0 - 175.0 / 512.0f64)).to_bits()
        );
        // A zero-length window divides by one, not by zero.
        hs.cs_window = 0;
        hs.cs_measurements = 0;
        assert_eq!(hs.cr_percent(), 100.0);
    }

    #[test]
    fn unknown_protocol_version_is_rejected_before_anything_else() {
        let hs = SessionHandshake::for_config(9, &crate::monitor::MonitorConfig::default());
        let mut bytes = hs.encode();
        bytes[0] = PROTOCOL_VERSION + 1;
        // Version wins even over truncation: a future version may not
        // share this record's length.
        for cut in [bytes.len(), 10, 1] {
            assert!(matches!(
                SessionHandshake::decode(&bytes[..cut]),
                Err(WbsnError::UnsupportedVersion {
                    got,
                    supported: PROTOCOL_VERSION,
                }) if got == PROTOCOL_VERSION + 1
            ));
        }
        assert!(matches!(
            SessionHandshake::decode(&[]),
            Err(WbsnError::Truncated { .. })
        ));
    }

    #[test]
    fn downlink_frames_round_trip() {
        let frames = [
            DownlinkFrame::Ack { cum_ack: 42 },
            DownlinkFrame::Nack {
                cum_ack: 7,
                missing: vec![9, 11, 12],
            },
            DownlinkFrame::Nack {
                cum_ack: 0,
                missing: vec![],
            },
            DownlinkFrame::Directive(DirectiveFrame {
                directive_seq: 3,
                action: DirectiveAction::SetCr { cr_x10: 659 },
            }),
            DownlinkFrame::Directive(DirectiveFrame {
                directive_seq: 4,
                action: DirectiveAction::SetMode {
                    level: 4,
                    active_leads: 1,
                },
            }),
        ];
        for (i, frame) in frames.iter().enumerate() {
            let wire = frame.to_wire(17, i as u32);
            let pkt = LinkPacket::decode(&wire).unwrap();
            assert!(is_downlink_kind(pkt.kind), "{frame:?}");
            assert_eq!(pkt.session, 17);
            assert_eq!(pkt.msg_seq, i as u32);
            assert_eq!(&DownlinkFrame::from_packet(&pkt).unwrap(), frame);
        }
        // Uplink kinds never parse as downlink frames.
        let uplink = LinkPacket {
            session: 1,
            msg_seq: 0,
            frag_index: 0,
            frag_count: 1,
            kind: 0x02,
            body: vec![],
        };
        assert!(DownlinkFrame::from_packet(&uplink).is_err());
    }

    #[test]
    fn nack_missing_list_is_capped_on_both_sides() {
        let frame = DownlinkFrame::Nack {
            cum_ack: 1,
            missing: (0..40).collect(),
        };
        let body = frame.encode_body();
        assert_eq!(body[4] as usize, NACK_MAX_MISSING);
        assert_eq!(body.len(), 5 + 4 * NACK_MAX_MISSING);
        // A forged over-cap count is rejected.
        let mut pkt = frame.to_packet(1, 0);
        pkt.body[4] = (NACK_MAX_MISSING + 1) as u8;
        assert!(matches!(
            DownlinkFrame::from_packet(&pkt),
            Err(WbsnError::Malformed { .. })
        ));
    }

    #[test]
    fn uplink_tracks_sessions_and_bytes() {
        let mut uplink = Uplink::new();
        let hs = SessionHandshake {
            version: PROTOCOL_VERSION,
            session: 5,
            fs_hz: 250,
            n_leads: 3,
            cs_window: 512,
            cs_measurements: 175,
            cs_d_per_col: 4,
            seed: 1,
        };
        let mut packets = Vec::new();
        uplink.open_session(&hs, &mut packets).unwrap();
        assert!(uplink.open_session(&hs, &mut packets).is_err());
        let p = sample_payload();
        uplink
            .frame(5, core::slice::from_ref(&p), &mut packets)
            .unwrap();
        assert!(matches!(
            uplink.frame(6, core::slice::from_ref(&p), &mut packets),
            Err(WbsnError::UnknownSession { id: 6 })
        ));
        assert_eq!(uplink.payload_bytes(), p.byte_len() as u64);
        assert_eq!(
            uplink.wire_bytes() as usize,
            packets.iter().map(Vec::len).sum::<usize>()
        );
        // Closing a session retires its totals instead of erasing them.
        let before = (uplink.wire_bytes(), uplink.packets());
        assert!(uplink.close_session(5));
        assert!(!uplink.close_session(5));
        assert_eq!((uplink.wire_bytes(), uplink.packets()), before);
    }
}
