//! The epoch-block archive format: block types and their byte codecs.
//!
//! An archive is a header followed by a flat stream of CRC-protected
//! blocks (EDF's "data record" shape, generalised to event payloads):
//!
//! ```text
//! header :=  "WBSA" | version u16 LE | meta_len u32 LE | RunMeta | crc32 LE
//! block  :=  kind u8 | session u64 LE | epoch u32 LE | len u32 LE
//!            | payload (len bytes) | crc32 LE over kind..payload
//! ```
//!
//! Block kinds: `1` session metadata, `2` an epoch of items, `3` a
//! session's closing summary, `4` the run trailer. Every multi-byte
//! scalar is little-endian; counts and ids are LEB128 varints inside
//! payloads; all `f64` travel as raw bit patterns so a round trip is
//! bit-exact (NaNs and signed zeros included). The CRC is the same
//! CRC32 the wire link layer uses ([`wbsn_core::link::crc32`]), so a
//! flipped bit anywhere in a block is caught before any decoding.
//!
//! Everything here is pure `Vec<u8>`/slice transformation — no I/O —
//! which is what lets [`crate::ArchiveWriter`] assemble blocks in one
//! reused scratch buffer and write with zero steady-state allocation.

use crate::codec::{
    read_bool, read_f64_bits, read_i16_section, read_i32_section, read_u64_le, read_u8,
    read_uvarint, write_f64_bits, write_i16_section, write_i32_section, write_u64_le,
    write_uvarint,
};
use crate::{ArchiveError, Result};
use wbsn_core::link::SessionHandshake;
use wbsn_cs::solver::{Continuation, FistaConfig};
use wbsn_delineation::fiducials::BeatFiducials;
use wbsn_gateway::record::TapItem;
use wbsn_gateway::SessionReport;
use wbsn_sigproc::wavelet::Wavelet;

/// Stream magic: the first four bytes of every archive.
pub const MAGIC: [u8; 4] = *b"WBSA";
/// Format version this build writes and the only one it reads.
/// Version 2 replaced version 1's warm-start flag in [`RunMeta`] with
/// the solver's λ-continuation schedule; version 3 dropped the
/// reconstructed samples from CS-window items, which replay re-solves
/// from the archived measurements.
pub const FORMAT_VERSION: u16 = 3;
/// Fixed bytes of a block header (`kind`, `session`, `epoch`, `len`).
pub const BLOCK_HEADER_LEN: usize = 1 + 8 + 4 + 4;
/// Upper bound on a single block payload. A real epoch is far below
/// this; the reader uses it to reject absurd lengths (a corrupted
/// length field) before trusting them.
pub const MAX_BLOCK_LEN: u32 = 1 << 28;

/// Block kind tags.
pub mod kind {
    /// A [`super::SessionMeta`] block.
    pub const SESSION_META: u8 = 1;
    /// An [`super::EpochRecord`] block.
    pub const EPOCH: u8 = 2;
    /// A [`super::SessionEnd`] block.
    pub const SESSION_END: u8 = 3;
    /// A [`super::RunTrailer`] block.
    pub const TRAILER: u8 = 4;
}

/// Run-wide metadata, written once in the stream header: everything a
/// replayer needs to regenerate the live run's report and solves
/// without access to the original configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Detection grace window (seconds) used when scoring alerts.
    pub alert_grace_s: f64,
    /// Minimum episode length (seconds) kept after span merging.
    pub min_episode_s: f64,
    /// The gateway solved every k-th CS window.
    pub reconstruct_every: u32,
    /// The exact solver configuration of the live run, continuation
    /// schedule included.
    pub solver: FistaConfig,
}

fn wavelet_tag(w: Wavelet) -> u8 {
    match w {
        Wavelet::Haar => 0,
        Wavelet::Db2 => 1,
        Wavelet::Db4 => 2,
    }
}

fn wavelet_from_tag(tag: u8) -> Result<Wavelet> {
    match tag {
        0 => Ok(Wavelet::Haar),
        1 => Ok(Wavelet::Db2),
        2 => Ok(Wavelet::Db4),
        other => Err(ArchiveError::Malformed {
            what: "wavelet tag",
            detail: format!("unknown wavelet {other}"),
        }),
    }
}

impl RunMeta {
    /// Appends the encoded metadata to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        write_f64_bits(out, self.alert_grace_s);
        write_f64_bits(out, self.min_episode_s);
        write_uvarint(out, u64::from(self.reconstruct_every));
        out.push(wavelet_tag(self.solver.wavelet));
        write_uvarint(out, self.solver.levels as u64);
        write_f64_bits(out, self.solver.lambda_rel);
        write_uvarint(out, self.solver.max_iters as u64);
        write_f64_bits(out, self.solver.tol);
        out.push(u8::from(self.solver.restart));
        out.push(u8::from(self.solver.tree_model));
        match &self.solver.continuation {
            None => out.push(0),
            Some(c) => {
                out.push(1);
                write_f64_bits(out, c.start_rel);
                write_f64_bits(out, c.factor);
                write_f64_bits(out, c.stage_tol);
            }
        }
    }

    /// Decodes metadata from a header payload.
    pub fn decode(bytes: &[u8]) -> Result<RunMeta> {
        let pos = &mut 0;
        let alert_grace_s = read_f64_bits(bytes, pos)?;
        let min_episode_s = read_f64_bits(bytes, pos)?;
        let reconstruct_every = read_u32(bytes, pos)?;
        let wavelet = wavelet_from_tag(read_u8(bytes, pos)?)?;
        let levels = read_uvarint(bytes, pos)? as usize;
        let lambda_rel = read_f64_bits(bytes, pos)?;
        let max_iters = read_uvarint(bytes, pos)? as usize;
        let tol = read_f64_bits(bytes, pos)?;
        let restart = read_bool(bytes, pos)?;
        let tree_model = read_bool(bytes, pos)?;
        let continuation = if read_bool(bytes, pos)? {
            Some(Continuation {
                start_rel: read_f64_bits(bytes, pos)?,
                factor: read_f64_bits(bytes, pos)?,
                stage_tol: read_f64_bits(bytes, pos)?,
            })
        } else {
            None
        };
        Ok(RunMeta {
            alert_grace_s,
            min_episode_s,
            reconstruct_every,
            solver: FistaConfig {
                wavelet,
                levels,
                lambda_rel,
                max_iters,
                tol,
                restart,
                tree_model,
                continuation,
            },
        })
    }
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    let v = read_uvarint(bytes, pos)?;
    u32::try_from(v).map_err(|_| ArchiveError::Malformed {
        what: "u32 field",
        detail: format!("{v} exceeds u32"),
    })
}

/// Per-session metadata, written when a session joins the recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionMeta {
    /// Whether the session runs compressed sensing (and therefore
    /// carries reference and measurement items).
    pub cs: bool,
    /// The scripted rhythm-burden label of the patient (the cohort
    /// stratification key), e.g. `"paroxysmal-af"`.
    pub burden: String,
}

impl SessionMeta {
    /// Appends the encoded payload to `out`.
    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.cs));
        write_uvarint(out, self.burden.len() as u64);
        out.extend_from_slice(self.burden.as_bytes());
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<SessionMeta> {
        let cs = read_bool(bytes, pos)?;
        let len = read_uvarint(bytes, pos)? as usize;
        let Some(raw) = bytes.get(*pos..*pos + len) else {
            return Err(ArchiveError::Malformed {
                what: "session meta",
                detail: "burden label ran off the end of the payload".into(),
            });
        };
        *pos += len;
        let burden = std::str::from_utf8(raw)
            .map_err(|_| ArchiveError::Malformed {
                what: "session meta",
                detail: "burden label is not UTF-8".into(),
            })?
            .to_string();
        Ok(SessionMeta { cs, burden })
    }
}

/// One archived item: everything the gateway or the cohort runner
/// learned during an epoch, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub enum EpochItem {
    /// A gateway observation exactly as the recording tap handed it
    /// over: a handshake, a rhythm or beats payload, a CS window
    /// (solved or skipped by periodic probing; its measurements are
    /// always archived so replay can re-solve at other settings), a
    /// loss or a recovery.
    Gateway(TapItem),
    /// The gateway raised an AF alert (runner-observed, in modeled
    /// session seconds).
    Alert {
        /// Modeled session time of the alert.
        t_s: f64,
    },
    /// The node rebooted mid-session.
    Reboot {
        /// Modeled session time of the reboot.
        t_s: f64,
    },
    /// The node's retransmit buffer expired a message unrecovered.
    Expired {
        /// The expired sequence.
        msg_seq: u32,
    },
    /// The node could not serve a NACK (message already evicted).
    Unavailable {
        /// The requested sequence.
        msg_seq: u32,
    },
    /// A PRD reference attachment: ground-truth samples for scoring
    /// reconstructed windows from `offset` onward.
    Reference {
        /// Lead index.
        lead: u8,
        /// Absolute CS-stream sample offset of `samples[0]`.
        offset: u64,
        /// Raw reference samples (ADC counts).
        samples: Vec<i32>,
    },
    /// A scripted ground-truth arrhythmia span (for detection
    /// scoring), in modeled session seconds.
    Truth {
        /// `true` for flutter, `false` for AF.
        flutter: bool,
        /// Span start.
        start_s: f64,
        /// Span end.
        end_s: f64,
    },
}

mod item_tag {
    pub const HANDSHAKE: u8 = 1;
    pub const RHYTHM: u8 = 2;
    pub const BEATS: u8 = 3;
    pub const CS_WINDOW: u8 = 4;
    pub const LOST: u8 = 5;
    pub const RECOVERED: u8 = 6;
    pub const ALERT: u8 = 7;
    pub const REBOOT: u8 = 8;
    pub const EXPIRED: u8 = 9;
    pub const UNAVAILABLE: u8 = 10;
    pub const REFERENCE: u8 = 11;
    pub const TRUTH: u8 = 12;
}

/// Running totals of raw vs coded bytes per signal-section codec; the
/// compression story of a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Raw little-endian bytes of archived reference windows.
    pub reference_raw: u64,
    /// Coded bytes of archived reference windows.
    pub reference_coded: u64,
    /// Raw little-endian bytes of archived CS measurements.
    pub measurement_raw: u64,
    /// Coded bytes of archived CS measurements.
    pub measurement_coded: u64,
}

fn encode_fiducial(out: &mut Vec<u8>, beat: &BeatFiducials) {
    write_uvarint(out, beat.r_peak as u64);
    let fields = [
        beat.qrs_on,
        beat.qrs_off,
        beat.p_on,
        beat.p_peak,
        beat.p_off,
        beat.t_on,
        beat.t_peak,
        beat.t_off,
    ];
    let mut mask = 0u8;
    for (i, f) in fields.iter().enumerate() {
        if f.is_some() {
            mask |= 1 << i;
        }
    }
    out.push(mask);
    for f in fields.iter().flatten() {
        write_uvarint(out, *f as u64);
    }
}

fn decode_fiducial(bytes: &[u8], pos: &mut usize) -> Result<BeatFiducials> {
    let r_peak = read_uvarint(bytes, pos)? as usize;
    let mask = read_u8(bytes, pos)?;
    let mut fields = [None; 8];
    for (i, slot) in fields.iter_mut().enumerate() {
        if mask & (1 << i) != 0 {
            *slot = Some(read_uvarint(bytes, pos)? as usize);
        }
    }
    let [qrs_on, qrs_off, p_on, p_peak, p_off, t_on, t_peak, t_off] = fields;
    Ok(BeatFiducials {
        r_peak,
        qrs_on,
        qrs_off,
        p_on,
        p_peak,
        p_off,
        t_on,
        t_peak,
        t_off,
    })
}

fn encode_handshake(out: &mut Vec<u8>, hs: &SessionHandshake) {
    out.push(hs.version);
    write_uvarint(out, hs.session);
    write_uvarint(out, u64::from(hs.fs_hz));
    out.push(hs.n_leads);
    write_uvarint(out, u64::from(hs.cs_window));
    write_uvarint(out, u64::from(hs.cs_measurements));
    out.push(hs.cs_d_per_col);
    write_u64_le(out, hs.seed);
}

fn decode_handshake(bytes: &[u8], pos: &mut usize) -> Result<SessionHandshake> {
    Ok(SessionHandshake {
        version: read_u8(bytes, pos)?,
        session: read_uvarint(bytes, pos)?,
        fs_hz: read_u32(bytes, pos)?,
        n_leads: read_u8(bytes, pos)?,
        cs_window: read_u32(bytes, pos)?,
        cs_measurements: read_u32(bytes, pos)?,
        cs_d_per_col: read_u8(bytes, pos)?,
        seed: read_u64_le(bytes, pos)?,
    })
}

fn encode_item(out: &mut Vec<u8>, item: &EpochItem, stats: &mut CodecStats) {
    match item {
        EpochItem::Gateway(tap) => encode_tap(out, tap, stats),
        EpochItem::Alert { t_s } => {
            out.push(item_tag::ALERT);
            write_f64_bits(out, *t_s);
        }
        EpochItem::Reboot { t_s } => {
            out.push(item_tag::REBOOT);
            write_f64_bits(out, *t_s);
        }
        EpochItem::Expired { msg_seq } => {
            out.push(item_tag::EXPIRED);
            write_uvarint(out, u64::from(*msg_seq));
        }
        EpochItem::Unavailable { msg_seq } => {
            out.push(item_tag::UNAVAILABLE);
            write_uvarint(out, u64::from(*msg_seq));
        }
        EpochItem::Reference {
            lead,
            offset,
            samples,
        } => {
            out.push(item_tag::REFERENCE);
            out.push(*lead);
            write_uvarint(out, *offset);
            let before = out.len();
            write_i32_section(out, samples);
            stats.reference_raw += 4 * samples.len() as u64;
            stats.reference_coded += (out.len() - before) as u64;
        }
        EpochItem::Truth {
            flutter,
            start_s,
            end_s,
        } => {
            out.push(item_tag::TRUTH);
            out.push(u8::from(*flutter));
            write_f64_bits(out, *start_s);
            write_f64_bits(out, *end_s);
        }
    }
}

/// A gateway observation under tags 1–6.
fn encode_tap(out: &mut Vec<u8>, item: &TapItem, stats: &mut CodecStats) {
    match item {
        TapItem::Handshake(hs) => {
            out.push(item_tag::HANDSHAKE);
            encode_handshake(out, hs);
        }
        TapItem::Rhythm {
            msg_seq,
            n_beats,
            mean_hr_x10,
            af_burden_pct,
            af_active,
        } => {
            out.push(item_tag::RHYTHM);
            write_uvarint(out, u64::from(*msg_seq));
            write_uvarint(out, u64::from(*n_beats));
            write_uvarint(out, u64::from(*mean_hr_x10));
            out.push(*af_burden_pct);
            out.push(u8::from(*af_active));
        }
        TapItem::Beats { msg_seq, beats } => {
            out.push(item_tag::BEATS);
            write_uvarint(out, u64::from(*msg_seq));
            write_uvarint(out, beats.len() as u64);
            for beat in beats {
                encode_fiducial(out, beat);
            }
        }
        TapItem::CsWindow {
            lead,
            window_seq,
            prd,
            measurements,
        } => {
            out.push(item_tag::CS_WINDOW);
            out.push(*lead);
            write_uvarint(out, u64::from(*window_seq));
            match prd {
                Some(p) => {
                    out.push(1);
                    write_f64_bits(out, *p);
                }
                None => out.push(0),
            }
            let before = out.len();
            write_i16_section(out, measurements);
            stats.measurement_raw += 2 * measurements.len() as u64;
            stats.measurement_coded += (out.len() - before) as u64;
        }
        TapItem::Lost { first_seq, count } => {
            out.push(item_tag::LOST);
            write_uvarint(out, u64::from(*first_seq));
            write_uvarint(out, u64::from(*count));
        }
        TapItem::Recovered { msg_seq } => {
            out.push(item_tag::RECOVERED);
            write_uvarint(out, u64::from(*msg_seq));
        }
    }
}

fn decode_item(bytes: &[u8], pos: &mut usize) -> Result<EpochItem> {
    match read_u8(bytes, pos)? {
        item_tag::ALERT => Ok(EpochItem::Alert {
            t_s: read_f64_bits(bytes, pos)?,
        }),
        item_tag::REBOOT => Ok(EpochItem::Reboot {
            t_s: read_f64_bits(bytes, pos)?,
        }),
        item_tag::EXPIRED => Ok(EpochItem::Expired {
            msg_seq: read_u32(bytes, pos)?,
        }),
        item_tag::UNAVAILABLE => Ok(EpochItem::Unavailable {
            msg_seq: read_u32(bytes, pos)?,
        }),
        item_tag::REFERENCE => {
            let lead = read_u8(bytes, pos)?;
            let offset = read_uvarint(bytes, pos)?;
            let mut samples = Vec::new();
            read_i32_section(bytes, pos, &mut samples)?;
            Ok(EpochItem::Reference {
                lead,
                offset,
                samples,
            })
        }
        item_tag::TRUTH => Ok(EpochItem::Truth {
            flutter: read_bool(bytes, pos)?,
            start_s: read_f64_bits(bytes, pos)?,
            end_s: read_f64_bits(bytes, pos)?,
        }),
        tag => decode_tap(tag, bytes, pos).map(EpochItem::Gateway),
    }
}

/// The gateway observation behind a tag in 1–6; any other tag is
/// unknown.
fn decode_tap(tag: u8, bytes: &[u8], pos: &mut usize) -> Result<TapItem> {
    match tag {
        item_tag::HANDSHAKE => Ok(TapItem::Handshake(decode_handshake(bytes, pos)?)),
        item_tag::RHYTHM => Ok(TapItem::Rhythm {
            msg_seq: read_u32(bytes, pos)?,
            n_beats: read_u32(bytes, pos)?,
            mean_hr_x10: {
                let v = read_uvarint(bytes, pos)?;
                u16::try_from(v).map_err(|_| ArchiveError::Malformed {
                    what: "rhythm item",
                    detail: format!("mean_hr_x10 {v} exceeds u16"),
                })?
            },
            af_burden_pct: read_u8(bytes, pos)?,
            af_active: read_bool(bytes, pos)?,
        }),
        item_tag::BEATS => {
            let msg_seq = read_u32(bytes, pos)?;
            let len = read_uvarint(bytes, pos)?;
            let remaining = bytes.len().saturating_sub(*pos);
            if len as u128 * 2 > remaining as u128 {
                return Err(ArchiveError::Malformed {
                    what: "beats item",
                    detail: format!("{len} beats cannot fit in {remaining} remaining bytes"),
                });
            }
            let mut beats = Vec::with_capacity(len as usize);
            for _ in 0..len {
                beats.push(decode_fiducial(bytes, pos)?);
            }
            Ok(TapItem::Beats { msg_seq, beats })
        }
        item_tag::CS_WINDOW => {
            let lead = read_u8(bytes, pos)?;
            let window_seq = read_u32(bytes, pos)?;
            let prd = if read_bool(bytes, pos)? {
                Some(read_f64_bits(bytes, pos)?)
            } else {
                None
            };
            let mut measurements = Vec::new();
            read_i16_section(bytes, pos, &mut measurements)?;
            Ok(TapItem::CsWindow {
                lead,
                window_seq,
                prd,
                measurements,
            })
        }
        item_tag::LOST => Ok(TapItem::Lost {
            first_seq: read_u32(bytes, pos)?,
            count: read_u32(bytes, pos)?,
        }),
        item_tag::RECOVERED => Ok(TapItem::Recovered {
            msg_seq: read_u32(bytes, pos)?,
        }),
        other => Err(ArchiveError::Malformed {
            what: "epoch item",
            detail: format!("unknown item tag {other}"),
        }),
    }
}

/// One epoch of one session: every item the gateway and the runner
/// observed for that session during the epoch, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// The session.
    pub session: u64,
    /// Epoch index within the session (the cohort runner uses one
    /// epoch per modeled hour).
    pub epoch: u32,
    /// The items, in observation order.
    pub items: Vec<EpochItem>,
}

impl EpochRecord {
    /// Appends the encoded payload (item count + items) to `out`,
    /// accumulating codec statistics.
    pub fn encode_payload(&self, out: &mut Vec<u8>, stats: &mut CodecStats) {
        write_uvarint(out, self.items.len() as u64);
        for item in &self.items {
            encode_item(out, item, stats);
        }
    }

    /// Decodes a payload encoded by [`EpochRecord::encode_payload`].
    pub fn decode_payload(session: u64, epoch: u32, bytes: &[u8]) -> Result<EpochRecord> {
        let pos = &mut 0;
        let len = read_uvarint(bytes, pos)?;
        let remaining = bytes.len().saturating_sub(*pos);
        if len as u128 > remaining as u128 {
            return Err(ArchiveError::Malformed {
                what: "epoch record",
                detail: format!("{len} items cannot fit in {remaining} remaining bytes"),
            });
        }
        let mut items = Vec::with_capacity(len as usize);
        for _ in 0..len {
            items.push(decode_item(bytes, pos)?);
        }
        if *pos != bytes.len() {
            return Err(ArchiveError::Malformed {
                what: "epoch record",
                detail: format!("{} trailing bytes after the last item", bytes.len() - *pos),
            });
        }
        Ok(EpochRecord {
            session,
            epoch,
            items,
        })
    }
}

/// A session's closing summary: the node-physical quantities a
/// replayer cannot recompute from the item stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEnd {
    /// Modeled session seconds.
    pub modeled_s: f64,
    /// Modeled battery lifetime (days) at the session's mean draw.
    pub battery_days: f64,
    /// The gateway's link-health report, when the session was open.
    pub report: Option<SessionReport>,
}

impl SessionEnd {
    /// Appends the encoded payload to `out`.
    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        write_f64_bits(out, self.modeled_s);
        write_f64_bits(out, self.battery_days);
        match &self.report {
            None => out.push(0),
            Some(r) => {
                out.push(1);
                write_uvarint(out, r.messages);
                write_uvarint(out, r.lost);
                write_uvarint(out, r.recovered);
                write_f64_bits(out, r.loss_rate);
                write_uvarint(out, r.acks_sent);
                write_uvarint(out, r.nacks_sent);
                write_uvarint(out, r.retransmits_requested);
                write_uvarint(out, r.directives_issued);
                write_uvarint(out, r.missing_now);
                match r.cr_percent {
                    None => out.push(0),
                    Some(cr) => {
                        out.push(1);
                        write_f64_bits(out, cr);
                    }
                }
            }
        }
    }

    fn decode(session: u64, bytes: &[u8], pos: &mut usize) -> Result<SessionEnd> {
        let modeled_s = read_f64_bits(bytes, pos)?;
        let battery_days = read_f64_bits(bytes, pos)?;
        let report = if read_bool(bytes, pos)? {
            Some(SessionReport {
                session,
                messages: read_uvarint(bytes, pos)?,
                lost: read_uvarint(bytes, pos)?,
                recovered: read_uvarint(bytes, pos)?,
                loss_rate: read_f64_bits(bytes, pos)?,
                acks_sent: read_uvarint(bytes, pos)?,
                nacks_sent: read_uvarint(bytes, pos)?,
                retransmits_requested: read_uvarint(bytes, pos)?,
                directives_issued: read_uvarint(bytes, pos)?,
                missing_now: read_uvarint(bytes, pos)?,
                cr_percent: if read_bool(bytes, pos)? {
                    Some(read_f64_bits(bytes, pos)?)
                } else {
                    None
                },
            })
        } else {
            None
        };
        Ok(SessionEnd {
            modeled_s,
            battery_days,
            report,
        })
    }
}

/// The run trailer: run-wide totals, written last. A reader that
/// reaches the trailer knows the recording is complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunTrailer {
    /// Sessions recorded.
    pub sessions: u64,
    /// Modeled hours per session (longest plan).
    pub modeled_hours: u32,
    /// CS windows skipped by periodic probing, run-wide.
    pub windows_skipped: u64,
}

impl RunTrailer {
    /// Appends the encoded payload to `out`.
    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.sessions);
        write_uvarint(out, u64::from(self.modeled_hours));
        write_uvarint(out, self.windows_skipped);
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<RunTrailer> {
        Ok(RunTrailer {
            sessions: read_uvarint(bytes, pos)?,
            modeled_hours: read_u32(bytes, pos)?,
            windows_skipped: read_uvarint(bytes, pos)?,
        })
    }
}

/// One decoded block of the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ArchiveBlock {
    /// A session joined the recording.
    SessionMeta {
        /// The session.
        session: u64,
        /// Its metadata.
        meta: SessionMeta,
    },
    /// An epoch of items.
    Epoch(EpochRecord),
    /// A session's closing summary.
    SessionEnd {
        /// The session.
        session: u64,
        /// The summary.
        end: SessionEnd,
    },
    /// The run trailer.
    Trailer(RunTrailer),
}

/// Decodes one block payload given its header fields.
pub(crate) fn decode_block_payload(
    block_kind: u8,
    session: u64,
    epoch: u32,
    bytes: &[u8],
) -> Result<ArchiveBlock> {
    match block_kind {
        kind::SESSION_META => {
            let pos = &mut 0;
            let meta = SessionMeta::decode(bytes, pos)?;
            Ok(ArchiveBlock::SessionMeta { session, meta })
        }
        kind::EPOCH => Ok(ArchiveBlock::Epoch(EpochRecord::decode_payload(
            session, epoch, bytes,
        )?)),
        kind::SESSION_END => {
            let pos = &mut 0;
            let end = SessionEnd::decode(session, bytes, pos)?;
            Ok(ArchiveBlock::SessionEnd { session, end })
        }
        kind::TRAILER => {
            let pos = &mut 0;
            Ok(ArchiveBlock::Trailer(RunTrailer::decode(bytes, pos)?))
        }
        other => Err(ArchiveError::Malformed {
            what: "block kind",
            detail: format!("unknown block kind {other}"),
        }),
    }
}
