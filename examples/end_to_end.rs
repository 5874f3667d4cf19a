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
//!   synth ECG ─► NodeFleet ─► Uplink framer ─► LossyChannel ─► Gateway
//!   (3 nodes)    (sessions)   (MTU packets,    (1% drop,       (reassembly,
//!                              CRC32)           corruption,     alarms, CS
//!                                               reordering)     reconstruction)
//! ```
//!
//! Run with: `cargo run --release --example end_to_end`

use wbsn_core::fleet::NodeFleet;
use wbsn_core::level::ProcessingLevel;
use wbsn_core::link::{SessionHandshake, Uplink};
use wbsn_core::monitor::MonitorBuilder;
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
    let builders = [
        MonitorBuilder::new()
            .level(ProcessingLevel::Classified)
            .n_leads(3),
        MonitorBuilder::new()
            .level(ProcessingLevel::CompressedSingleLead)
            .n_leads(1)
            .cs_compression_ratio(50.0),
        MonitorBuilder::new()
            .level(ProcessingLevel::Delineated)
            .n_leads(3),
    ];
    let mut fleet = NodeFleet::new();
    let ids: Vec<_> = builders
        .iter()
        .map(|b| fleet.add_session(b.clone()).expect("valid config"))
        .collect();

    // ---- the wire ----
    let mut uplink = Uplink::new();
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
            ids[1].raw(),
            0,
            records[1].lead(0).iter().map(|&v| v as f64).collect(),
        )
        .expect("fresh session");

    let mut events = Vec::new();
    let mut rejected = 0u64;
    let mut deliver =
        |gateway: &mut Gateway, events: &mut Vec<GatewayEvent>, packets: Vec<Vec<u8>>| {
            for raw in packets {
                match gateway.ingest(&raw) {
                    Ok(evs) => events.extend(evs),
                    Err(_) => rejected += 1, // typed CRC/loss rejections
                }
            }
        };

    // Handshakes open every session (message 0 carries the CS seed).
    let mut packets = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        let hs = SessionHandshake::for_config(id.raw(), builders[i].config());
        uplink.open_session(&hs, &mut packets).expect("new session");
    }
    deliver(&mut gateway, &mut events, channel.send_all(packets));

    // ---- stream: 1 s batches through fleet → framer → channel ----
    let fs = 250usize;
    let max_secs = records.iter().map(|r| r.n_samples() / fs).max().unwrap();
    let mut scratch: Vec<i32> = Vec::new();
    for sec in 0..max_secs {
        let mut batch_frames: Vec<(usize, Vec<i32>)> = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            if (sec + 1) * fs > rec.n_samples() {
                continue;
            }
            scratch.clear();
            for s in sec * fs..(sec + 1) * fs {
                for l in 0..rec.n_leads() {
                    scratch.push(rec.lead(l)[s]);
                }
            }
            batch_frames.push((i, scratch.clone()));
        }
        let batch: Vec<_> = batch_frames
            .iter()
            .map(|(i, frames)| (ids[*i], frames.as_slice()))
            .collect();
        let results = fleet.ingest_batch(&batch).expect("valid batch");
        let mut packets = Vec::new();
        uplink
            .frame_fleet(&results, &mut packets)
            .expect("registered sessions");
        deliver(&mut gateway, &mut events, channel.send_all(packets));
    }
    let mut packets = Vec::new();
    for (id, payloads) in fleet.flush_all().expect("flush") {
        uplink
            .frame(id.raw(), &payloads, &mut packets)
            .expect("registered session");
    }
    deliver(&mut gateway, &mut events, channel.send_all(packets));
    deliver(&mut gateway, &mut events, channel.flush());
    events.extend(gateway.flush_sessions());

    // ---- report ----
    let ch = channel.stats();
    let gw = gateway.stats();
    println!(
        "link:    {} packets offered ({} B on the wire for {} payload B)",
        ch.offered,
        uplink.wire_bytes(),
        uplink.payload_bytes()
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

    // Alarm log of the AF patient.
    let rhythm = gateway.rhythm(ids[0].raw()).expect("session seen");
    println!("\nAF patient (session {}):", ids[0].raw());
    println!(
        "  {} event summaries, {} beats reported, AF active at end: {}",
        rhythm.events_seen, rhythm.beats_reported, rhythm.af_active
    );
    for a in &rhythm.alerts {
        println!(
            "  ALERT at message {} (AF burden {}%)",
            a.msg_seq, a.af_burden_pct
        );
    }
    assert!(!rhythm.alerts.is_empty(), "AF must surface at the gateway");

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
        ids[1].raw(),
        prds.len(),
        mean
    );
    assert!(mean <= 9.0, "mean PRD {mean:.2}% over the lossy link");
    println!("\nend-to-end loop closed: node bytes → wire → reconstruction + alarms");
}
