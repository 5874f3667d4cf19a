//! End-to-end acceptance scenario for the gateway subsystem: four
//! mixed-level nodes stream over a bad open-loop link and the base
//! station must hold the line.
//!
//! Path under test: synth ECG → `CardiacMonitor`s → uplink framer →
//! seeded `LossyChannel` (1% drop, 1.5% corruption, 2% reorder) →
//! `Gateway`.
//! Pinned properties:
//!
//! * **(a) zero undetected corruptions** — every packet the channel
//!   corrupted is rejected by CRC; the identity-channel byte identity
//!   is pinned separately in `tests/link_roundtrip.rs`.
//! * **(b) reconstruction quality** — CS sessions at the paper's
//!   moderate compression ratios (40%, 50%) reconstruct every cleanly
//!   delivered window at PRD ≤ 9% against the transmitted original.
//! * **(c) alert latency** — the AF alert surfaces at the gateway
//!   within one payload flush of the node-side detection (the node
//!   re-reports `af_active` on every `Events` payload, so one lost
//!   alert packet costs at most one flush interval).
//! * **(d) determinism** — the whole path is bit-identical across
//!   reruns with the same channel seed.

use wbsn_core::level::ProcessingLevel;
use wbsn_core::link::{SessionHandshake, Uplink};
use wbsn_core::monitor::MonitorBuilder;
use wbsn_core::Payload;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::rhythm::RhythmPhase;
use wbsn_ecg_synth::{Record, RecordBuilder, Rhythm};
use wbsn_gateway::channel::{ChannelConfig, ChannelStats, LossyChannel};
use wbsn_gateway::gateway::{Gateway, GatewayConfig, GatewayEvent, GatewayStats};

const CHANNEL_SEED: u64 = 0xBA_D11;

/// The scenario's four nodes: an AF patient on the classified level,
/// two CS streamers at the paper's moderate CRs, and a delineated
/// session for mix.
fn records() -> Vec<Record> {
    let af = RecordBuilder::new(41)
        .duration_s(120.0)
        .n_leads(3)
        .rhythm(Rhythm::Phased(vec![
            RhythmPhase::new(Rhythm::NormalSinus { mean_hr_bpm: 72.0 }, 40.0),
            RhythmPhase::new(Rhythm::AtrialFibrillation { mean_hr_bpm: 95.0 }, 80.0),
        ]))
        .noise(NoiseConfig::ambulatory(20.0))
        .build();
    let cs50 = RecordBuilder::new(42)
        .duration_s(60.0)
        .n_leads(1)
        .noise(NoiseConfig::clean())
        .build();
    let cs40 = RecordBuilder::new(43)
        .duration_s(60.0)
        .n_leads(1)
        .noise(NoiseConfig::clean())
        .build();
    let delin = RecordBuilder::new(44)
        .duration_s(60.0)
        .n_leads(3)
        .noise(NoiseConfig::ambulatory(22.0))
        .build();
    vec![af, cs50, cs40, delin]
}

struct RunResult {
    events: Vec<GatewayEvent>,
    gateway_stats: GatewayStats,
    channel_stats: ChannelStats,
    /// Reconstructed windows that carry a PRD, in event order:
    /// (session, lead, seq, samples).
    windows: Vec<(u64, u8, u32, Vec<f64>)>,
    /// Node-side payload streams per session, in emission order.
    node_payloads: Vec<Vec<Payload>>,
    /// Session ids of the four nodes.
    ids: Vec<u64>,
}

fn run(channel_seed: u64) -> RunResult {
    let records = records();
    let builders = [
        MonitorBuilder::new()
            .level(ProcessingLevel::Classified)
            .n_leads(3),
        MonitorBuilder::new()
            .level(ProcessingLevel::CompressedSingleLead)
            .n_leads(1)
            .cs_compression_ratio(50.0),
        MonitorBuilder::new()
            .level(ProcessingLevel::CompressedSingleLead)
            .n_leads(1)
            .cs_compression_ratio(40.0),
        MonitorBuilder::new()
            .level(ProcessingLevel::Delineated)
            .n_leads(3),
    ];
    let mut monitors: Vec<_> = builders.into_iter().map(|b| b.build().unwrap()).collect();
    let ids: Vec<u64> = (0..monitors.len() as u64).collect();

    let mut uplink = Uplink::new();
    let mut channel = LossyChannel::new(ChannelConfig {
        drop_rate: 0.01,
        corrupt_rate: 0.015,
        reorder_rate: 0.02,
        reorder_depth: 2,
        seed: channel_seed,
    })
    .unwrap();
    let mut gw = Gateway::new(GatewayConfig::default());
    for (i, &id) in ids.iter().enumerate() {
        gw.attach_reference(
            id,
            0,
            records[i].lead(0).iter().map(|&v| v as f64).collect(),
        )
        .unwrap();
    }

    let mut events = Vec::new();
    let deliver = |gw: &mut Gateway, events: &mut Vec<GatewayEvent>, delivered: Vec<Vec<u8>>| {
        for raw in delivered {
            match gw.ingest(&raw) {
                Ok(evs) => events.extend(evs),
                // Corruption and loss-induced rejections are expected
                // on this link; they must be typed, never silent.
                Err(e) => assert!(
                    matches!(e, wbsn_core::WbsnError::Link(_)),
                    "untyped rejection: {e}"
                ),
            }
        }
    };

    // Handshakes first (control messages, message 0 of every session).
    let mut packets = Vec::new();
    for (m, &id) in monitors.iter().zip(&ids) {
        let hs = SessionHandshake::for_config(id, m.config());
        uplink.open_session(&hs, &mut packets).unwrap();
    }
    deliver(&mut gw, &mut events, channel.send_all(packets));

    // Stream second-by-second batches through the whole path.
    let fs = 250usize;
    let max_secs = records.iter().map(|r| r.n_samples() / fs).max().unwrap();
    let mut node_payloads: Vec<Vec<Payload>> = vec![Vec::new(); ids.len()];
    let mut frames: Vec<Vec<i32>> = vec![Vec::new(); ids.len()];
    for sec in 0..max_secs {
        for (i, rec) in records.iter().enumerate() {
            let buf = &mut frames[i];
            buf.clear();
            if (sec + 1) * fs > rec.n_samples() {
                continue;
            }
            for s in sec * fs..(sec + 1) * fs {
                for l in 0..rec.n_leads() {
                    buf.push(rec.lead(l)[s]);
                }
            }
        }
        let mut packets = Vec::new();
        for (i, m) in monitors.iter_mut().enumerate() {
            if frames[i].is_empty() {
                continue;
            }
            let n = frames[i].len() / m.config().n_leads;
            let payloads = m.push_block(&frames[i], n).unwrap();
            uplink.frame(ids[i], &payloads, &mut packets).unwrap();
            node_payloads[i].extend(payloads);
        }
        deliver(&mut gw, &mut events, channel.send_all(packets));
    }
    // End of session: flush the monitors, the channel's held packets,
    // and the gateway's reassembly tails.
    let mut packets = Vec::new();
    for (i, m) in monitors.iter_mut().enumerate() {
        let payloads = m.flush().unwrap();
        uplink.frame(ids[i], &payloads, &mut packets).unwrap();
        node_payloads[i].extend(payloads);
    }
    deliver(&mut gw, &mut events, channel.send_all(packets));
    deliver(&mut gw, &mut events, channel.flush());
    events.extend(gw.flush_sessions());

    let windows = events
        .iter()
        .filter_map(|e| match e {
            GatewayEvent::WindowReconstructed {
                session,
                lead,
                window_seq,
                prd_percent: Some(_),
                samples,
            } => Some((*session, *lead, *window_seq, samples.clone())),
            _ => None,
        })
        .collect();
    RunResult {
        events,
        gateway_stats: gw.stats(),
        channel_stats: channel.stats(),
        windows,
        node_payloads,
        ids,
    }
}

#[test]
fn lossy_link_scenario_meets_acceptance() {
    let r = run(CHANNEL_SEED);

    // The channel actually exercised every impairment.
    assert!(r.channel_stats.dropped > 0, "no drops: weak scenario");
    assert!(
        r.channel_stats.corrupted > 0,
        "no corruption: weak scenario"
    );
    assert!(
        r.channel_stats.reordered > 0,
        "no reordering: weak scenario"
    );

    // (a) Zero undetected corruptions: every corrupted delivery was
    // rejected with a typed error — by the CRC, or (for flips landing
    // in the length field) by the truncation/header checks before it.
    assert_eq!(
        r.gateway_stats.crc_rejected + r.gateway_stats.rejected,
        r.channel_stats.corrupted,
        "corrupted packets slipped past the integrity checks"
    );
    assert!(r.gateway_stats.crc_rejected > 0, "CRC never exercised");
    // Loss is detected, not silent: the reassembler proved gaps.
    assert!(r.gateway_stats.messages_lost > 0);
    assert!(r
        .events
        .iter()
        .any(|e| matches!(e, GatewayEvent::MessageLost { .. })));

    // (b) Reconstruction quality at the paper's moderate compression
    // ratios, measured on cleanly delivered windows: signal-level PRD
    // (all clean windows against the transmitted original) within the
    // ≤ 9% "very good"/"good" band, and no individual window
    // degenerating.
    for (label, session, record_seed) in [("CR 50%", r.ids[1], 42u64), ("CR 40%", r.ids[2], 43u64)]
    {
        let prds: Vec<f64> = r
            .events
            .iter()
            .filter_map(|e| match e {
                GatewayEvent::WindowReconstructed {
                    session: s,
                    prd_percent: Some(prd),
                    ..
                } if *s == session => Some(*prd),
                _ => None,
            })
            .collect();
        assert!(
            prds.len() >= 15,
            "{label}: only {} windows survived the link",
            prds.len()
        );
        let mean = prds.iter().sum::<f64>() / prds.len() as f64;
        let max = prds.iter().fold(0.0f64, |m, &p| m.max(p));
        assert!(mean <= 9.0, "{label}: mean PRD {mean:.2}%");
        assert!(max <= 12.0, "{label}: worst clean window PRD {max:.2}%");
        // Signal-level PRD over the stitched clean windows.
        let record = RecordBuilder::new(record_seed)
            .duration_s(60.0)
            .n_leads(1)
            .noise(NoiseConfig::clean())
            .build();
        let mut orig = Vec::new();
        let mut recon = Vec::new();
        for (s, _, seq, w) in r.windows.iter().filter(|w| w.0 == session) {
            assert_eq!(*s, session);
            let start = *seq as usize * w.len();
            orig.extend(
                record.lead(0)[start..start + w.len()]
                    .iter()
                    .map(|&v| v as f64),
            );
            recon.extend(w.iter().copied());
        }
        let prd = wbsn_sigproc::stats::prd_percent(&orig, &recon);
        assert!(prd <= 9.0, "{label}: signal-level PRD {prd:.2}%");
    }

    // (c) The AF alert reached the gateway within one payload flush of
    // the node-side detection: the node's first af_active Events
    // payload is message `1 + i` (handshake is message 0), and the
    // gateway alert fires on that message or the one right after it
    // (one flush of slack buys immunity to a single lost packet).
    let af_session = r.ids[0];
    let node_first_af = r.node_payloads[0]
        .iter()
        .position(|p| {
            matches!(
                p,
                Payload::Events {
                    af_active: true,
                    ..
                }
            )
        })
        .expect("node detected AF") as u32;
    let alert_seq = r
        .events
        .iter()
        .find_map(|e| match e {
            GatewayEvent::AfAlert {
                session, msg_seq, ..
            } if *session == af_session => Some(*msg_seq),
            _ => None,
        })
        .expect("gateway surfaced the AF alert");
    let node_alert_seq = 1 + node_first_af;
    assert!(
        alert_seq >= node_alert_seq && alert_seq <= node_alert_seq + 1,
        "alert at message {alert_seq}, node detection at {node_alert_seq}"
    );

    // Sanity: payloads flowed from every session (≈80 messages total
    // across the four nodes, minus link losses).
    assert!(
        r.gateway_stats.payloads > 60,
        "payloads {}",
        r.gateway_stats.payloads
    );
}

#[test]
fn scenario_replays_bit_identically_with_the_same_seed() {
    let a = run(CHANNEL_SEED);
    let b = run(CHANNEL_SEED);
    assert_eq!(a.events, b.events);
    assert_eq!(a.gateway_stats, b.gateway_stats);
    assert_eq!(a.channel_stats, b.channel_stats);
    // Reconstructed samples are bit-identical, not just close.
    assert_eq!(a.windows.len(), b.windows.len());
    for (wa, wb) in a.windows.iter().zip(&b.windows) {
        assert_eq!(wa.0, wb.0);
        assert_eq!(wa.2, wb.2);
        let bits_a: Vec<u64> = wa.3.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u64> = wb.3.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "session {} window {}", wa.0, wa.2);
    }
    // And a different seed produces a genuinely different impairment
    // pattern (the determinism above is not vacuous).
    let c = run(CHANNEL_SEED + 1);
    assert_ne!(a.channel_stats, c.channel_stats);
}
