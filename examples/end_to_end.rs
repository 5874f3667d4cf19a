//! End to end: the node→radio→reconstruction loop, closed.
//!
//! Paper section: the whole system — Section II's node architecture
//! transmitting over "a simple medium access control (MAC) scheme
//! (IEEE 802.15.4) between the node and the base station", and
//! Section III's base-station reconstruction. Earlier examples stopped
//! at the node's payload bytes; this one puts them **on the wire** and
//! receives them:
//!
//! ```text
//!   synth ECG ─► Node ──────────────────► LossyChannel ─► Gateway
//!   (3 nodes)    (monitor, MTU packets,   (1% drop,       (reassembly,
//!                 CRC32, retransmit        corruption,     alarms, CS
//!                 buffer)                  reordering)     reconstruction)
//!                  ▲                                          │
//!                  └──────────── cumulative ACKs ─────────────┘
//! ```
//!
//! Each node runs its monitor pinned to one processing level, so it
//! emits that level's payloads unchanged; the gateway's ACKs come
//! back over a clean downlink and release the nodes' retransmit
//! buffers.
//!
//! Run with: `cargo run --release --example end_to_end`

use wbsn_core::governor::GovernorConfig;
use wbsn_core::level::{OperatingMode, ProcessingLevel};
use wbsn_core::monitor::MonitorBuilder;
use wbsn_core::Node;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::rhythm::RhythmPhase;
use wbsn_ecg_synth::{Record, RecordBuilder, Rhythm};
use wbsn_gateway::channel::{ChannelConfig, LossyChannel};
use wbsn_gateway::gateway::{Gateway, GatewayConfig, GatewayEvent};

fn main() {
    // ---- the ward: three wearable nodes with different jobs ----
    let records: Vec<Record> = vec![
        // An AF patient monitored at the classified level: 40 s of
        // sinus rhythm, then the arrhythmia starts.
        RecordBuilder::new(41)
            .duration_s(120.0)
            .n_leads(3)
            .rhythm(Rhythm::Phased(vec![
                RhythmPhase::new(Rhythm::NormalSinus { mean_hr_bpm: 72.0 }, 40.0),
                RhythmPhase::new(Rhythm::AtrialFibrillation { mean_hr_bpm: 95.0 }, 80.0),
            ]))
            .noise(NoiseConfig::ambulatory(20.0))
            .build(),
        // A compressed-sensing streamer the base station reconstructs.
        RecordBuilder::new(42)
            .duration_s(60.0)
            .n_leads(1)
            .noise(NoiseConfig::clean())
            .build(),
        // A delineated-beats session.
        RecordBuilder::new(44)
            .duration_s(60.0)
            .n_leads(3)
            .noise(NoiseConfig::ambulatory(22.0))
            .build(),
    ];
    let jobs = [
        (ProcessingLevel::Classified, 3, MonitorBuilder::new()),
        (
            ProcessingLevel::CompressedSingleLead,
            1,
            MonitorBuilder::new().cs_compression_ratio(50.0),
        ),
        (ProcessingLevel::Delineated, 3, MonitorBuilder::new()),
    ];
    // Session ids 0, 1, 2; each node opens its session with a
    // handshake (message 0 carries the CS seed) ahead of its first
    // payloads.
    let mut nodes: Vec<Node> = jobs
        .into_iter()
        .enumerate()
        .map(|(id, (level, leads, builder))| {
            Node::new(
                id as u64,
                builder.n_leads(leads),
                GovernorConfig::pinned(OperatingMode::new(level, leads)),
            )
            .expect("valid config")
        })
        .collect();

    // ---- the wire ----
    let channel_cfg = ChannelConfig {
        drop_rate: 0.01,
        corrupt_rate: 0.015,
        reorder_rate: 0.02,
        reorder_depth: 2,
        seed: 0xBA_D11,
    };
    let mut channel = LossyChannel::new(channel_cfg).expect("valid rates");
    let mut gateway = Gateway::new(GatewayConfig::default());
    // Attach the CS session's transmitted original so the gateway
    // reports per-window PRD (evaluation-only — a real base station
    // has nothing to compare with).
    gateway
        .attach_reference(
            nodes[1].session(),
            0,
            records[1].lead(0).iter().map(|&v| v as f64).collect(),
        )
        .expect("fresh session");

    let mut events = Vec::new();
    let mut rejected = 0u64;
    let mut wire_bytes = 0usize;
    let mut deliver =
        |gateway: &mut Gateway, events: &mut Vec<GatewayEvent>, packets: Vec<Vec<u8>>| {
            for raw in packets {
                match gateway.ingest(&raw) {
                    Ok(evs) => events.extend(evs),
                    Err(_) => rejected += 1, // typed CRC/loss rejections
                }
            }
        };

    // ---- stream: 1 s turns through node → channel → gateway → ACK ----
    let fs = 250usize;
    let frames: Vec<Vec<i32>> = records.iter().map(Record::interleaved_frames).collect();
    let max_secs = records.iter().map(|r| r.n_samples() / fs).max().unwrap();
    for sec in 0..max_secs {
        let mut packets = Vec::new();
        for (node, (rec, frames)) in nodes.iter_mut().zip(records.iter().zip(&frames)) {
            if (sec + 1) * fs > rec.n_samples() {
                continue;
            }
            let n = rec.n_leads();
            let block = &frames[sec * fs * n..(sec + 1) * fs * n];
            packets.extend(node.push_block(block, fs).expect("valid block"));
        }
        wire_bytes += packets.iter().map(Vec::len).sum::<usize>();
        deliver(&mut gateway, &mut events, channel.send_all(packets));
        for (session, acks) in gateway.pump_downlink() {
            for wire in acks {
                nodes[session as usize]
                    .take_downlink(&wire)
                    .expect("an ACK never fails");
            }
        }
    }
    let mut packets = Vec::new();
    for node in &mut nodes {
        packets.extend(node.drain().expect("flush"));
    }
    wire_bytes += packets.iter().map(Vec::len).sum::<usize>();
    deliver(&mut gateway, &mut events, channel.send_all(packets));
    deliver(&mut gateway, &mut events, channel.flush());
    events.extend(gateway.flush_sessions());

    // ---- report ----
    let ch = channel.stats();
    let gw = gateway.stats();
    let resent: u64 = nodes
        .iter()
        .map(|n| n.retransmit_stats().resent_packets)
        .sum();
    println!(
        "link:    {} packets offered ({wire_bytes} B on the wire, {resent} resent)",
        ch.offered
    );
    println!(
        "channel: {} delivered, {} dropped, {} corrupted, {} reordered",
        ch.delivered, ch.dropped, ch.corrupted, ch.reordered
    );
    println!(
        "gateway: {} payloads decoded, {} corrupt packets rejected, {} messages proven lost",
        gw.payloads,
        gw.crc_rejected + gw.rejected,
        gw.messages_lost
    );
    // Every ingest error observed at the call site matches the
    // gateway's own rejection books.
    assert_eq!(rejected, gw.crc_rejected + gw.rejected);
    // Every corrupted packet is caught — usually by the CRC, or (when
    // the flip hits the length field) by the typed truncation checks
    // that run before it. Never by decoding into a wrong payload.
    assert_eq!(
        gw.crc_rejected + gw.rejected,
        ch.corrupted,
        "every corrupted packet must be rejected with a typed error"
    );

    // Alarm log of the AF patient, read off the gateway's events.
    let af_patient = nodes[0].session();
    println!("\nAF patient (session {af_patient}):");
    let mut alerts = 0;
    for event in &events {
        match *event {
            GatewayEvent::AfAlert {
                session,
                msg_seq,
                af_burden_pct,
            } if session == af_patient => {
                alerts += 1;
                println!("  ALERT at message {msg_seq} (AF burden {af_burden_pct}%)");
            }
            GatewayEvent::AfCleared { session, msg_seq } if session == af_patient => {
                println!("  cleared at message {msg_seq}");
            }
            _ => {}
        }
    }
    assert!(alerts > 0, "AF must surface at the gateway");

    // Reconstruction quality of the CS streamer.
    let prds: Vec<f64> = events
        .iter()
        .filter_map(|e| match e {
            GatewayEvent::WindowReconstructed {
                prd_percent: Some(prd),
                ..
            } => Some(*prd),
            _ => None,
        })
        .collect();
    let mean = prds.iter().sum::<f64>() / prds.len().max(1) as f64;
    println!(
        "\nCS streamer (session {}): {} windows reconstructed, mean PRD {:.2}% (≤ 9% = good)",
        nodes[1].session(),
        prds.len(),
        mean
    );
    assert!(mean <= 9.0, "mean PRD {mean:.2}% over the lossy link");
    println!("\nend-to-end loop closed: node bytes → wire → reconstruction + alarms");
}
