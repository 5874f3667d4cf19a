//! Server-side scale-out: one base station, N decode workers.
//!
//! Paper section: Section III's base-station reconstruction, grown to
//! the "many nodes per receiver" setting the wireless-sensor CS
//! literature assumes. A ward of CS streamers uplinks compressed
//! windows; the base station serves them through a `ShardedGateway`
//! whose workers share one sensing-matrix cache:
//!
//! ```text
//!   synth ECG ─► CS nodes ─► Uplink framer ─► ShardedGateway
//!   (8 wards)    (CR 50%)    (MTU packets)     router ─► 4N × Gateway
//!                                              one shared MatrixCache
//!                                              FISTA with λ-continuation
//! ```
//!
//! The run demonstrates the three server-side cost levers and the
//! determinism guarantee: identical handshake geometry collapses onto
//! one cached Φ (and its Lipschitz constant), λ-continuation solves
//! spend a fraction of the fixed iteration budget, and the 4-worker
//! event stream is byte-identical
//! to the single-threaded gateway's.
//!
//! Run with: `cargo run --release --example sharded_gateway`

use wbsn_core::level::ProcessingLevel;
use wbsn_core::link::{SessionHandshake, Uplink};
use wbsn_core::monitor::MonitorBuilder;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;
use wbsn_gateway::{Gateway, GatewayConfig, GatewayEvent, ShardedGateway};

const SESSIONS: u64 = 8;
const SECONDS: f64 = 10.24;

/// Frames every session's full CS stream onto the wire.
fn packet_stream() -> Vec<Vec<u8>> {
    let mut uplink = Uplink::new();
    let mut packets = Vec::new();
    for s in 0..SESSIONS {
        let rec = RecordBuilder::new(500 + s)
            .duration_s(SECONDS)
            .n_leads(1)
            .noise(NoiseConfig::ambulatory(26.0))
            .build();
        let mut node = MonitorBuilder::new()
            .level(ProcessingLevel::CompressedSingleLead)
            .n_leads(1)
            .cs_compression_ratio(50.0)
            .build()
            .expect("valid node config");
        let payloads = node.process_record(rec.leads()).expect("lead counts match");
        uplink
            .open_session(
                &SessionHandshake::for_config(s, node.config()),
                &mut packets,
            )
            .expect("fresh session id");
        uplink
            .frame(s, &payloads, &mut packets)
            .expect("open session");
    }
    packets
}

fn main() {
    let packets = packet_stream();
    println!(
        "ward: {SESSIONS} CS nodes × {SECONDS} s at CR 50% → {} packets",
        packets.len()
    );

    // ---- sharded serving: 4 decode workers, one matrix cache ----
    let mut sharded =
        ShardedGateway::new(GatewayConfig::default(), 4).expect("spawn worker threads");
    let results = sharded.ingest_batch(&packets).expect("workers alive");
    let sharded_events: Vec<GatewayEvent> = results
        .into_iter()
        .flat_map(Result::unwrap_or_default)
        .collect();
    let stats = sharded.stats().expect("workers alive");
    let cache = sharded.cache_stats();

    let windows = stats.windows_reconstructed;
    println!("\n4-worker gateway:");
    println!("  windows reconstructed : {windows}");
    println!(
        "  solver iterations     : {} ({:.0} per window, λ-continuation)",
        stats.solver_iters,
        stats.solver_iters as f64 / windows as f64
    );
    println!(
        "  matrix cache          : {} built / {} shared hits — {SESSIONS} sessions, {} Φ",
        cache.misses, cache.hits, cache.entries
    );

    // ---- the determinism guarantee, demonstrated live ----
    let mut single = Gateway::new(GatewayConfig::default());
    let mut single_events = Vec::new();
    for raw in &packets {
        single_events.extend(single.ingest(raw).unwrap_or_default());
    }
    assert_eq!(
        sharded_events, single_events,
        "sharded events must be byte-identical to the single-threaded gateway"
    );
    assert_eq!(single.stats(), stats);
    println!(
        "\nsingle-threaded replay: {} events — byte-identical to the 4-worker run",
        single_events.len()
    );

    // Mean PRD across every reconstructed window (no reference is
    // attached, so recompute against the gateway's own output).
    let prd_events = sharded_events
        .iter()
        .filter(|e| matches!(e, GatewayEvent::WindowReconstructed { .. }))
        .count();
    println!("window events         : {prd_events} (one per reconstructed window)");
}
