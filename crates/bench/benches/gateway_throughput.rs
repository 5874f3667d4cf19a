//! Gateway serving surface: packets/s through reassembly + decode,
//! and CS reconstruction cost per window.
//!
//! `gateway/reassemble_decode_stream` drives a pre-framed multi-session
//! packet stream (raw chunks, delineated beats, classified events; no
//! CS sessions, so nothing is solved) through a fresh `Gateway` — the
//! pure packet path a base station scales on.
//! `gateway/cs_reconstruct_window` prices one FISTA reconstruction at
//! the gateway's default solver settings — the per-window cost the
//! reconstruction workers pay. CI uploads the medians as
//! `BENCH_gateway.json` next to the monitor/fleet/sigproc artifacts.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wbsn_core::level::ProcessingLevel;
use wbsn_core::link::{SessionHandshake, Uplink};
use wbsn_core::monitor::MonitorBuilder;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;
use wbsn_gateway::gateway::{Gateway, GatewayConfig};

/// Pre-framed packet stream of a small mixed fleet (8 sessions across
/// the abstraction ladder below CS, 10 s each), plus the handshakes.
fn packet_stream() -> Vec<Vec<u8>> {
    let mut uplink = Uplink::new();
    let mut packets = Vec::new();
    for s in 0..8u64 {
        let level = match s % 4 {
            0 => ProcessingLevel::RawStreaming,
            1 | 2 => ProcessingLevel::Delineated,
            _ => ProcessingLevel::Classified,
        };
        let rec = RecordBuilder::new(100 + s)
            .duration_s(10.0)
            .n_leads(3)
            .noise(NoiseConfig::ambulatory(22.0))
            .build();
        let mut node = MonitorBuilder::new().level(level).build().unwrap();
        let payloads = node.process_record(rec.leads()).unwrap();
        uplink
            .open_session(
                &SessionHandshake::for_config(s, node.config()),
                &mut packets,
            )
            .unwrap();
        uplink.frame(s, &payloads, &mut packets).unwrap();
    }
    packets
}

fn bench_gateway(c: &mut Criterion) {
    let mut g = c.benchmark_group("gateway");
    g.sample_size(10);

    let packets = packet_stream();
    let n_packets = packets.len();
    g.bench_function(format!("reassemble_decode_stream_{n_packets}pkts"), |b| {
        b.iter(|| {
            // No CS windows: this measures the packet path (CRC,
            // routing, reassembly, payload decode, rhythm state).
            let mut gw = Gateway::new(GatewayConfig::default());
            let mut events = 0usize;
            for raw in &packets {
                events += gw.ingest(black_box(raw)).map(|e| e.len()).unwrap_or(0);
            }
            events += gw.flush_sessions().len();
            black_box((events, gw.stats().payloads))
        })
    });

    // One CS session's worth of packets for the reconstruction cost.
    let mut uplink = Uplink::new();
    let mut cs_packets = Vec::new();
    let rec = RecordBuilder::new(7)
        .duration_s(4.1)
        .n_leads(1)
        .noise(NoiseConfig::clean())
        .build();
    let mut node = MonitorBuilder::new()
        .level(ProcessingLevel::CompressedSingleLead)
        .n_leads(1)
        .cs_compression_ratio(50.0)
        .build()
        .unwrap();
    let payloads = node.process_record(rec.leads()).unwrap();
    uplink
        .open_session(
            &SessionHandshake::for_config(0, node.config()),
            &mut cs_packets,
        )
        .unwrap();
    uplink.frame(0, &payloads, &mut cs_packets).unwrap();
    assert_eq!(node.counters().cs_windows, 2, "stream length drifted");
    g.bench_function("cs_reconstruct_2windows", |b| {
        b.iter(|| {
            let mut gw = Gateway::new(GatewayConfig::default());
            for raw in &cs_packets {
                gw.ingest(black_box(raw)).unwrap();
            }
            black_box(gw.stats().windows_reconstructed)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_gateway);
criterion_main!(benches);
