//! Archive round-trip properties: arbitrary epoch payloads must
//! encode → decode bit-identically, at every layer.
//!
//! * Random [`EpochItem`] mixes survive
//!   `encode_payload` → `decode_payload` structurally intact, and the
//!   decoded record re-encodes to the **same bytes** — the archive's
//!   canonical-form guarantee.
//! * Whole streams (header, session metadata, epochs, session ends,
//!   trailer) survive [`ArchiveWriter`] → `read_archive` intact.
//! * The delta+varint window codec is pinned lossless on random-walk
//!   `i32` windows and on `f64` windows drawn from **raw random bit
//!   patterns** — NaNs, infinities, signed zeros and subnormals
//!   included (compared by bit pattern, since NaN ≠ NaN).
//! * The version-2 header carries the solver's continuation schedule
//!   bit for bit, and a version-1 stream is a typed rejection.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use wbsn_archive::codec::{
    read_f64_section, read_i32_section, write_f64_section, write_i32_section,
};
use wbsn_archive::format::FORMAT_VERSION;
use wbsn_archive::reader::read_archive;
use wbsn_archive::{
    ArchiveBlock, ArchiveError, ArchiveReader, ArchiveWriter, CodecStats, EpochItem, EpochRecord,
    RunMeta, RunTrailer, SessionEnd, SessionMeta,
};
use wbsn_core::link::crc32;
use wbsn_core::link::SessionHandshake;
use wbsn_cs::solver::{Continuation, FistaConfig};
use wbsn_delineation::BeatFiducials;
use wbsn_gateway::SessionReport;
use wbsn_sigproc::wavelet::Wavelet;

/// A finite (non-NaN) `f64` with a wide dynamic range: scalar fields
/// travel as raw bit patterns, so finiteness is only needed to keep
/// `PartialEq` comparisons meaningful.
fn finite_f64(rng: &mut StdRng) -> f64 {
    match rng.next_u64() % 6 {
        0 => 0.0,
        1 => -0.0,
        2 => (rng.next_u64() as f64 / u64::MAX as f64) * 2e6 - 1e6,
        3 => (rng.next_u64() as f64 / u64::MAX as f64) * 2e-6,
        4 => -((rng.next_u64() % 100_000) as f64) / 7.0,
        _ => (rng.next_u64() % 1_000_000) as f64 * 1e9,
    }
}

fn maybe_idx(rng: &mut StdRng, one_in: u64) -> Option<usize> {
    let hit = rng.next_u64().is_multiple_of(one_in);
    hit.then(|| (rng.next_u64() % 1_000_000) as usize)
}

fn random_beat(rng: &mut StdRng) -> BeatFiducials {
    let mut b = BeatFiducials::new((rng.next_u64() % 1_000_000) as usize);
    b.qrs_on = maybe_idx(rng, 2);
    b.qrs_off = maybe_idx(rng, 2);
    b.p_on = maybe_idx(rng, 3);
    b.p_peak = maybe_idx(rng, 3);
    b.p_off = maybe_idx(rng, 3);
    b.t_on = maybe_idx(rng, 3);
    b.t_peak = maybe_idx(rng, 3);
    b.t_off = maybe_idx(rng, 3);
    b
}

fn random_handshake(rng: &mut StdRng) -> SessionHandshake {
    SessionHandshake {
        version: rng.next_u64() as u8,
        session: rng.next_u64() >> 12,
        fs_hz: rng.next_u32() % 10_000,
        n_leads: (rng.next_u64() % 12) as u8,
        cs_window: rng.next_u32() % 4096,
        cs_measurements: rng.next_u32() % 4096,
        cs_d_per_col: rng.next_u64() as u8,
        seed: rng.next_u64(),
    }
}

/// A random-walk `i32` window with occasional motion-artifact spikes —
/// the shape the delta codec is built for, plus worst-case jumps.
fn random_walk_i32(rng: &mut StdRng, len: usize) -> Vec<i32> {
    let mut v = Vec::with_capacity(len);
    let mut x: i64 = (rng.next_u64() % 4096) as i64 - 2048;
    for _ in 0..len {
        x += (rng.next_u64() % 65) as i64 - 32;
        if rng.next_u64().is_multiple_of(97) {
            // Spike: exercise multi-byte varints and sign flips.
            x = (rng.next_u64() % (1 << 20)) as i64 - (1 << 19);
        }
        x = x.clamp(i64::from(i32::MIN), i64::from(i32::MAX));
        v.push(x as i32);
    }
    v
}

fn random_item(rng: &mut StdRng) -> EpochItem {
    match rng.next_u64() % 12 {
        0 => EpochItem::Handshake(random_handshake(rng)),
        1 => EpochItem::Rhythm {
            msg_seq: rng.next_u32(),
            n_beats: rng.next_u32(),
            mean_hr_x10: rng.next_u64() as u16,
            af_burden_pct: (rng.next_u64() % 101) as u8,
            af_active: rng.gen_bool(0.5),
        },
        2 => EpochItem::Beats {
            msg_seq: rng.next_u32(),
            beats: (0..(rng.next_u64() % 8) as usize)
                .map(|_| random_beat(rng))
                .collect(),
        },
        3 => EpochItem::CsWindow {
            lead: (rng.next_u64() % 8) as u8,
            window_seq: rng.next_u32(),
            prd: rng.gen_bool(0.6).then(|| finite_f64(rng)),
            measurements: (0..(rng.next_u64() % 300) as usize)
                .map(|_| rng.next_u64() as i16)
                .collect(),
            samples: (0..(rng.next_u64() % 300) as usize)
                .map(|_| finite_f64(rng))
                .collect(),
        },
        4 => EpochItem::Lost {
            first_seq: rng.next_u32(),
            count: rng.next_u32() % 1000,
        },
        5 => EpochItem::Recovered {
            msg_seq: rng.next_u32(),
        },
        6 => EpochItem::Alert {
            t_s: finite_f64(rng),
        },
        7 => EpochItem::Reboot {
            t_s: finite_f64(rng),
        },
        8 => EpochItem::Expired {
            msg_seq: rng.next_u32(),
        },
        9 => EpochItem::Unavailable {
            msg_seq: rng.next_u32(),
        },
        10 => {
            let len = (rng.next_u64() % 600) as usize;
            EpochItem::Reference {
                lead: (rng.next_u64() % 8) as u8,
                offset: rng.next_u64() >> 16,
                samples: random_walk_i32(rng, len),
            }
        }
        _ => EpochItem::Truth {
            flutter: rng.gen_bool(0.3),
            start_s: finite_f64(rng),
            end_s: finite_f64(rng),
        },
    }
}

fn random_meta(rng: &mut StdRng) -> RunMeta {
    RunMeta {
        alert_grace_s: finite_f64(rng),
        min_episode_s: finite_f64(rng),
        reconstruct_every: rng.next_u32() % 1000,
        solver: FistaConfig {
            wavelet: [Wavelet::Haar, Wavelet::Db2, Wavelet::Db4][(rng.next_u64() % 3) as usize],
            levels: (rng.next_u64() % 9) as usize,
            lambda_rel: finite_f64(rng),
            max_iters: (rng.next_u64() % 10_000) as usize,
            tol: finite_f64(rng),
            restart: rng.gen_bool(0.5),
            tree_model: rng.gen_bool(0.5),
            continuation: rng.gen_bool(0.5).then(|| Continuation {
                start_rel: finite_f64(rng),
                factor: finite_f64(rng),
                stage_tol: finite_f64(rng),
            }),
        },
    }
}

fn random_report(rng: &mut StdRng, session: u64) -> SessionReport {
    SessionReport {
        session,
        messages: rng.next_u64() % 1_000_000,
        lost: rng.next_u64() % 10_000,
        recovered: rng.next_u64() % 10_000,
        loss_rate: finite_f64(rng),
        acks_sent: rng.next_u64() % 10_000,
        nacks_sent: rng.next_u64() % 10_000,
        retransmits_requested: rng.next_u64() % 10_000,
        directives_issued: rng.next_u64() % 1000,
        missing_now: rng.next_u64() % 100,
        cr_percent: rng.gen_bool(0.5).then(|| finite_f64(rng)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn epoch_payload_roundtrips_and_reencodes_identically(
        seed in 0u64..1_000_000,
        n_items in 0usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA7C1);
        let rec = EpochRecord {
            session: rng.next_u64() >> 8,
            epoch: rng.next_u32(),
            items: (0..n_items).map(|_| random_item(&mut rng)).collect(),
        };
        let mut bytes = Vec::new();
        let mut stats = CodecStats::default();
        rec.encode_payload(&mut bytes, &mut stats);
        let decoded = EpochRecord::decode_payload(rec.session, rec.epoch, &bytes)
            .expect("a just-encoded payload must decode");
        prop_assert_eq!(&decoded, &rec);
        // Canonical form: re-encoding the decode yields the same bytes.
        let mut bytes2 = Vec::new();
        let mut stats2 = CodecStats::default();
        decoded.encode_payload(&mut bytes2, &mut stats2);
        prop_assert_eq!(bytes, bytes2);
        prop_assert_eq!(stats, stats2);
    }

    #[test]
    fn whole_streams_roundtrip_through_writer_and_reader(
        seed in 0u64..1_000_000,
        n_blocks in 0usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57E4);
        let meta = random_meta(&mut rng);
        let mut w = ArchiveWriter::new(Vec::new(), &meta).expect("writer opens");
        let mut blocks = Vec::new();
        for _ in 0..n_blocks {
            let session = 1 + rng.next_u64() % 64;
            match rng.next_u64() % 3 {
                0 => {
                    let sm = SessionMeta {
                        cs: rng.gen_bool(0.5),
                        burden: ["quiet", "ectopy", "paroxysmal-af", ""]
                            [(rng.next_u64() % 4) as usize]
                            .to_string(),
                    };
                    w.session_meta(session, &sm).expect("block writes");
                    blocks.push(ArchiveBlock::SessionMeta { session, meta: sm });
                }
                1 => {
                    let rec = EpochRecord {
                        session,
                        epoch: rng.next_u32() % 100,
                        items: (0..(rng.next_u64() % 6) as usize)
                            .map(|_| random_item(&mut rng))
                            .collect(),
                    };
                    w.epoch(&rec).expect("block writes");
                    blocks.push(ArchiveBlock::Epoch(rec));
                }
                _ => {
                    let end = SessionEnd {
                        modeled_s: finite_f64(&mut rng),
                        battery_days: finite_f64(&mut rng),
                        report: rng
                            .gen_bool(0.7)
                            .then(|| random_report(&mut rng, session)),
                    };
                    w.session_end(session, &end).expect("block writes");
                    blocks.push(ArchiveBlock::SessionEnd { session, end });
                }
            }
        }
        let trailer = RunTrailer {
            sessions: rng.next_u64() % 1000,
            modeled_hours: rng.next_u32() % 1000,
            windows_skipped: rng.next_u64() % 100_000,
        };
        let bytes = w.finish(&trailer).expect("trailer writes");
        blocks.push(ArchiveBlock::Trailer(trailer));

        let (meta2, blocks2) = read_archive(&bytes[..]).expect("stream reads back");
        prop_assert_eq!(meta2, meta);
        prop_assert_eq!(blocks2, blocks);
    }

    #[test]
    fn i32_window_codec_is_lossless(seed in 0u64..1_000_000, len in 0usize..2000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1325);
        let window = random_walk_i32(&mut rng, len);
        let mut bytes = Vec::new();
        write_i32_section(&mut bytes, &window);
        let mut back = Vec::new();
        let pos = &mut 0;
        read_i32_section(&bytes, pos, &mut back).expect("section decodes");
        prop_assert_eq!(*pos, bytes.len());
        prop_assert_eq!(back, window);
    }

    #[test]
    fn f64_window_codec_is_bit_lossless_for_any_bit_pattern(
        seed in 0u64..1_000_000,
        len in 0usize..600,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF64);
        // Raw random bits: NaNs (quiet and signalling payloads),
        // infinities, subnormals, signed zeros — all of it.
        let window: Vec<f64> = (0..len).map(|_| f64::from_bits(rng.next_u64())).collect();
        let mut bytes = Vec::new();
        write_f64_section(&mut bytes, &window);
        let mut back = Vec::new();
        let pos = &mut 0;
        read_f64_section(&bytes, pos, &mut back).expect("section decodes");
        prop_assert_eq!(*pos, bytes.len());
        prop_assert_eq!(back.len(), window.len());
        for (a, b) in back.iter().zip(&window) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// A gateway-shaped header: FISTA with a continuation schedule.
fn continuation_meta() -> RunMeta {
    RunMeta {
        alert_grace_s: 30.0,
        min_episode_s: 20.0,
        reconstruct_every: 1,
        solver: FistaConfig {
            lambda_rel: 0.001,
            max_iters: 800,
            tol: 1e-4,
            restart: true,
            continuation: Some(Continuation {
                start_rel: 0.01,
                factor: 0.3,
                stage_tol: 3e-3,
            }),
            ..FistaConfig::default()
        },
    }
}

/// An empty stream (header and trailer) written under `meta`.
fn empty_stream(meta: &RunMeta) -> Vec<u8> {
    let trailer = RunTrailer {
        sessions: 0,
        modeled_hours: 0,
        windows_skipped: 0,
    };
    ArchiveWriter::new(Vec::new(), meta)
        .expect("writer opens")
        .finish(&trailer)
        .expect("trailer writes")
}

#[test]
fn version_2_header_carries_the_continuation_schedule() {
    assert_eq!(FORMAT_VERSION, 2);
    let with = continuation_meta();
    let without = RunMeta {
        solver: FistaConfig {
            continuation: None,
            ..with.solver
        },
        ..with.clone()
    };
    for meta in [with, without] {
        let mut payload = Vec::new();
        meta.encode(&mut payload);
        assert_eq!(RunMeta::decode(&payload).expect("meta decodes"), meta);
        let bytes = empty_stream(&meta);
        assert_eq!(bytes[4..6], FORMAT_VERSION.to_le_bytes());
        let (back, _) = read_archive(&bytes[..]).expect("stream reads back");
        assert_eq!(back, meta);
    }
}

#[test]
fn version_1_streams_are_rejected_with_a_typed_error() {
    let mut bytes = empty_stream(&continuation_meta());
    // Re-stamp the header as version 1 with a valid header CRC, so only
    // the version can be at fault.
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    let meta_len = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]) as usize;
    let crc = crc32(&bytes[..10 + meta_len]);
    bytes[10 + meta_len..14 + meta_len].copy_from_slice(&crc.to_le_bytes());
    for version in [1u16, FORMAT_VERSION + 1] {
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let err = ArchiveReader::new(&bytes[..]).err();
        assert_eq!(
            err,
            Some(ArchiveError::UnsupportedVersion {
                got: version,
                supported: FORMAT_VERSION,
            }),
            "version {version}"
        );
    }
}
