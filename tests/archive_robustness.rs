//! Archive damage-recovery guarantees, exercised exhaustively on a
//! small hand-built recording:
//!
//! * **Every** tail truncation (all `0..=len` cut points) recovers
//!   every block that was fully written before the cut, reports a
//!   typed [`ArchiveError::Truncated`] when the cut lands mid-block,
//!   and reads cleanly (unsealed) when it lands exactly on a block
//!   boundary. No cut point panics.
//! * **Every** single-bit flip (all 8 bits of every byte) is detected:
//!   the reader yields only an unmodified prefix of the original
//!   blocks, then surfaces a typed error. A flip can never decode into
//!   a wrong block, and never panics.

use wbsn_archive::{
    ArchiveBlock, ArchiveError, ArchiveReader, ArchiveWriter, EpochItem, EpochRecord, RunMeta,
    RunTrailer, SessionEnd, SessionMeta,
};
use wbsn_core::link::SessionHandshake;
use wbsn_cs::solver::FistaConfig;
use wbsn_delineation::BeatFiducials;
use wbsn_gateway::{SessionReport, TapItem};

fn meta() -> RunMeta {
    RunMeta {
        alert_grace_s: 30.0,
        min_episode_s: 20.0,
        reconstruct_every: 8,
        solver: FistaConfig::default(),
    }
}

fn handshake(session: u64) -> SessionHandshake {
    SessionHandshake {
        version: 1,
        session,
        fs_hz: 250,
        n_leads: 1,
        cs_window: 512,
        cs_measurements: 192,
        cs_d_per_col: 12,
        seed: 0xD00D ^ session,
    }
}

fn beat(r_peak: usize) -> BeatFiducials {
    let mut b = BeatFiducials::new(r_peak);
    b.qrs_on = Some(r_peak - 10);
    b.qrs_off = Some(r_peak + 12);
    b.t_peak = Some(r_peak + 60);
    b
}

/// A small but representative recording: two sessions, every block
/// kind, every epoch-item kind, both signal-section codecs. Returns
/// the decoded blocks, the raw bytes, and the byte offset of every
/// block boundary (header end first, full length last).
fn small_recording() -> (Vec<ArchiveBlock>, Vec<u8>, Vec<usize>) {
    let mut w = ArchiveWriter::new(Vec::new(), &meta()).expect("writer opens");
    let mut blocks = Vec::new();
    let mut bounds = vec![w.bytes_written() as usize];
    let push = |w: &mut ArchiveWriter<Vec<u8>>,
                blocks: &mut Vec<ArchiveBlock>,
                bounds: &mut Vec<usize>,
                block: ArchiveBlock| {
        match &block {
            ArchiveBlock::SessionMeta { session, meta } => {
                w.session_meta(*session, meta).expect("block writes")
            }
            ArchiveBlock::Epoch(rec) => w.epoch(rec).expect("block writes"),
            ArchiveBlock::SessionEnd { session, end } => {
                w.session_end(*session, end).expect("block writes")
            }
            ArchiveBlock::Trailer(_) => unreachable!("trailer goes through finish()"),
        }
        bounds.push(w.bytes_written() as usize);
        blocks.push(block);
    };

    for session in [1u64, 2] {
        push(
            &mut w,
            &mut blocks,
            &mut bounds,
            ArchiveBlock::SessionMeta {
                session,
                meta: SessionMeta {
                    cs: session == 1,
                    burden: if session == 1 { "quiet" } else { "ectopy" }.to_string(),
                },
            },
        );
    }
    push(
        &mut w,
        &mut blocks,
        &mut bounds,
        ArchiveBlock::Epoch(EpochRecord {
            session: 1,
            epoch: 0,
            items: vec![
                EpochItem::Gateway(TapItem::Handshake(handshake(1))),
                EpochItem::Reference {
                    lead: 0,
                    offset: 0,
                    samples: (0..256i32).map(|i| (i * 37) % 901 - 450).collect(),
                },
                EpochItem::Gateway(TapItem::CsWindow {
                    lead: 0,
                    window_seq: 0,
                    prd: Some(3.25),
                    measurements: (0..192).map(|i| (i as i16) * 17 - 800).collect(),
                }),
                EpochItem::Gateway(TapItem::Rhythm {
                    msg_seq: 4,
                    n_beats: 9,
                    mean_hr_x10: 712,
                    af_burden_pct: 0,
                    af_active: false,
                }),
                EpochItem::Gateway(TapItem::Beats {
                    msg_seq: 4,
                    beats: vec![beat(120), beat(310)],
                }),
                EpochItem::Gateway(TapItem::Lost {
                    first_seq: 5,
                    count: 2,
                }),
                EpochItem::Gateway(TapItem::Recovered { msg_seq: 5 }),
            ],
        }),
    );
    push(
        &mut w,
        &mut blocks,
        &mut bounds,
        ArchiveBlock::Epoch(EpochRecord {
            session: 2,
            epoch: 0,
            items: vec![
                EpochItem::Gateway(TapItem::Handshake(handshake(2))),
                EpochItem::Truth {
                    flutter: false,
                    start_s: 100.0,
                    end_s: 160.0,
                },
                EpochItem::Alert { t_s: 131.5 },
                EpochItem::Reboot { t_s: 1800.0 },
                EpochItem::Expired { msg_seq: 77 },
                EpochItem::Unavailable { msg_seq: 91 },
            ],
        }),
    );
    for session in [1u64, 2] {
        push(
            &mut w,
            &mut blocks,
            &mut bounds,
            ArchiveBlock::SessionEnd {
                session,
                end: SessionEnd {
                    modeled_s: 3600.0,
                    battery_days: 11.25,
                    report: (session == 1).then(|| SessionReport {
                        session,
                        messages: 900,
                        lost: 2,
                        recovered: 1,
                        loss_rate: 2.0 / 900.0,
                        acks_sent: 30,
                        nacks_sent: 2,
                        retransmits_requested: 2,
                        directives_issued: 1,
                        missing_now: 1,
                        cr_percent: Some(62.5),
                    }),
                },
            },
        );
    }
    let trailer = RunTrailer {
        sessions: 2,
        modeled_hours: 1,
        windows_skipped: 3,
    };
    let bytes = w.finish(&trailer).expect("trailer writes");
    blocks.push(ArchiveBlock::Trailer(trailer));
    bounds.push(bytes.len());
    (blocks, bytes, bounds)
}

#[test]
fn untouched_recording_reads_back_sealed_and_intact() {
    let (blocks, bytes, _) = small_recording();
    let contents = ArchiveReader::new(&bytes[..])
        .expect("header reads")
        .into_contents();
    assert_eq!(contents.error, None);
    assert!(contents.sealed, "a finished recording must read as sealed");
    assert_eq!(contents.blocks, blocks);
    assert_eq!(contents.meta, meta());
}

#[test]
fn every_tail_truncation_recovers_all_fully_written_blocks() {
    let (blocks, bytes, bounds) = small_recording();
    let header_end = bounds[0];
    for cut in 0..=bytes.len() {
        let prefix = &bytes[..cut];
        if cut < header_end {
            let err = ArchiveReader::new(prefix).expect_err("cut header must not open");
            assert!(
                matches!(err, ArchiveError::Truncated { .. }),
                "cut at {cut}: expected Truncated, got {err:?}"
            );
            continue;
        }
        let contents = ArchiveReader::new(prefix)
            .expect("intact header opens")
            .into_contents();
        // Every block fully written before the cut must be recovered.
        let complete = bounds.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(
            contents.blocks,
            blocks[..complete],
            "cut at {cut}: recovered block set is wrong"
        );
        if bounds.contains(&cut) {
            assert_eq!(
                contents.error, None,
                "cut at {cut} lands on a block boundary and must read cleanly"
            );
            assert_eq!(contents.sealed, cut == bytes.len());
        } else {
            assert!(
                matches!(contents.error, Some(ArchiveError::Truncated { .. })),
                "cut at {cut}: expected Truncated, got {:?}",
                contents.error
            );
            assert!(!contents.sealed);
        }
    }
}

#[test]
fn every_single_bit_flip_is_detected_and_never_decodes_wrong() {
    let (blocks, bytes, _) = small_recording();
    let mut damaged = bytes.clone();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            damaged[i] ^= 1 << bit;
            match ArchiveReader::new(&damaged[..]) {
                // Header damage: refusing to open is a typed detection.
                Err(_) => {}
                Ok(reader) => {
                    let contents = reader.into_contents();
                    assert!(
                        contents.error.is_some(),
                        "flip of bit {bit} at byte {i} went undetected"
                    );
                    assert!(!contents.sealed);
                    // Whatever was yielded must be an unmodified prefix
                    // of the true stream — CRC runs before decoding, so
                    // a flipped block can never decode into wrong data.
                    let n = contents.blocks.len();
                    assert!(
                        n < blocks.len() && contents.blocks == blocks[..n],
                        "flip of bit {bit} at byte {i} decoded a wrong block"
                    );
                }
            }
            damaged[i] ^= 1 << bit; // restore
        }
    }
}
