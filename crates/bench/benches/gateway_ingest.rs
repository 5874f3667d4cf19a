//! The sharded gateway's serving surface — the numbers behind the
//! README's "Server-side throughput" section. Three measurements:
//!
//! * `reassemble_s{S}_w{W}`: cross-session `ingest_batch` throughput
//!   over streams framed without CS sessions — the pure packet path
//!   (CRC, routing, reassembly, payload decode) over a sessions ×
//!   workers matrix.
//! * `reconstruct_cold_10w` vs `reconstruct_default_10w`: one CS
//!   session, ten windows, through a sequential `Gateway` — the
//!   original fixed-budget decoder (FISTA at tol 1e-7, no restart, no
//!   continuation) against the current defaults (gradient restart +
//!   λ-continuation + early exit + the matrix cache's Lipschitz
//!   constant). Median ÷ 10 is the per-window cost; supported realtime
//!   sessions-per-core is `window_period / per_window` (a 512-sample
//!   window at 250 Hz is 2.048 s of signal).
//! * `reconstruct_default_s8_w{W}`: eight CS sessions sharing one Φ
//!   through the matrix cache, on a gateway of `4W` shards run by W
//!   worker threads — the machine-level scaling of the full decode
//!   pipeline, solves included. Each thread takes the next
//!   shard with packets as soon as it finishes one.
//!
//! CI uploads the JSON medians as `BENCH_gateway_ingest.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wbsn_core::level::ProcessingLevel;
use wbsn_core::link::{SessionHandshake, Uplink};
use wbsn_core::monitor::MonitorBuilder;
use wbsn_cs::solver::FistaConfig;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;
use wbsn_gateway::{Gateway, GatewayConfig, ShardedGateway};

/// The original gateway decoder: fixed-budget FISTA. The movement
/// tolerance never fires at 1e-7 on these problems, so every window
/// costs `max_iters`.
fn legacy_cfg() -> GatewayConfig {
    GatewayConfig {
        solver: FistaConfig {
            lambda_rel: 0.001,
            max_iters: 800,
            tol: 1e-7,
            ..FistaConfig::default()
        },
        ..GatewayConfig::default()
    }
}

/// Pre-framed packets of `sessions` mixed-level nodes below CS (raw,
/// delineated, classified), `secs` each.
fn mixed_stream(sessions: u64, secs: f64) -> Vec<Vec<u8>> {
    let mut uplink = Uplink::new();
    let mut packets = Vec::new();
    for s in 0..sessions {
        let level = match s % 4 {
            0 => ProcessingLevel::RawStreaming,
            1 | 2 => ProcessingLevel::Delineated,
            _ => ProcessingLevel::Classified,
        };
        let rec = RecordBuilder::new(100 + s)
            .duration_s(secs)
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

/// Pre-framed packets of `sessions` CS nodes at CR 50%, `secs` each.
/// All share the default matrix seed, so the gateway-side cache
/// collapses them onto one Φ.
fn cs_stream(sessions: u64, secs: f64) -> Vec<Vec<u8>> {
    let mut uplink = Uplink::new();
    let mut packets = Vec::new();
    for s in 0..sessions {
        let rec = RecordBuilder::new(300 + s)
            .duration_s(secs)
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
                &SessionHandshake::for_config(s, node.config()),
                &mut packets,
            )
            .unwrap();
        uplink.frame(s, &payloads, &mut packets).unwrap();
    }
    packets
}

fn drive_sharded(cfg: GatewayConfig, workers: usize, packets: &[Vec<u8>]) -> u64 {
    let mut gw = ShardedGateway::new(cfg, workers).expect("spawn workers");
    // One batch: the control thread routes, the workers pull shards
    // until none are left, replies re-merge in batch order.
    let results = gw.ingest_batch(packets).expect("workers alive");
    let events = results.iter().flatten().map(Vec::len).sum::<usize>();
    black_box(events);
    gw.stats().expect("workers alive").payloads
}

fn drive_sequential(cfg: GatewayConfig, packets: &[Vec<u8>]) -> u64 {
    let mut gw = Gateway::new(cfg);
    for raw in packets {
        black_box(gw.ingest(black_box(raw)).map(|e| e.len()).unwrap_or(0));
    }
    gw.stats().payloads
}

fn bench_gateway_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("gateway_ingest");
    g.sample_size(10);

    // Packet path only: no CS sessions, sessions × workers.
    for &sessions in &[8u64, 32] {
        let packets = mixed_stream(sessions, 10.0);
        for &workers in &[1usize, 2, 4] {
            g.bench_function(format!("reassemble_s{sessions}_w{workers}"), |b| {
                b.iter(|| drive_sharded(GatewayConfig::default(), workers, black_box(&packets)))
            });
        }
    }

    // Per-window reconstruction cost, before vs after: one CS session,
    // ten 512-sample windows, sequential gateway.
    let one = cs_stream(1, 20.48);
    g.bench_function("reconstruct_cold_10w", |b| {
        b.iter(|| drive_sequential(legacy_cfg(), black_box(&one)))
    });
    g.bench_function("reconstruct_default_10w", |b| {
        b.iter(|| drive_sequential(GatewayConfig::default(), black_box(&one)))
    });

    // Machine-level decode scaling: eight CS sessions, five windows
    // each, the default decode pipeline over the worker matrix.
    let eight = cs_stream(8, 10.24);
    for &workers in &[1usize, 2, 4] {
        g.bench_function(format!("reconstruct_default_s8_w{workers}"), |b| {
            b.iter(|| drive_sharded(GatewayConfig::default(), workers, black_box(&eight)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_gateway_ingest);
criterion_main!(benches);
