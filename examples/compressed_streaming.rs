//! Compressed streaming: CS encode on the node, transmit over the
//! link, reconstruct **at the gateway**, compare quality and battery
//! impact against raw streaming.
//!
//! Paper section: Section III (compressed sensing) — the Figure 5
//! reconstruction-quality story and the Figure 6 energy story in one
//! program, now running the real receive path: every encoded window
//! travels through the uplink framer and the `wbsn-gateway` service,
//! which regenerates Φ from the session handshake's seed and runs the
//! reconstruction, reporting PRD per window. One compression level per
//! session, quality printed per level.
//!
//! Run with: `cargo run --release --example compressed_streaming`

use wbsn_core::level::ProcessingLevel;
use wbsn_core::link::{SessionHandshake, Uplink};
use wbsn_core::monitor::MonitorBuilder;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;
use wbsn_gateway::channel::{ChannelConfig, LossyChannel};
use wbsn_gateway::gateway::{Gateway, GatewayConfig, GatewayEvent};

fn main() {
    let record = RecordBuilder::new(0xC0DE)
        .duration_s(20.0)
        .n_leads(3)
        .noise(NoiseConfig::ambulatory(30.0))
        .build();

    // One node session per compression level, all feeding one gateway
    // through a perfect link (quality numbers, not loss numbers — the
    // lossy story is examples/end_to_end.rs).
    let mut gateway = Gateway::new(GatewayConfig::default());
    let mut channel = LossyChannel::new(ChannelConfig::ideal()).expect("valid rates");
    let mut uplink = Uplink::new();

    println!("CS over the wire at the paper's compression levels:\n");
    println!("  CR      windows   payload B   wire B   mean PRD    quality");
    let mut cs_node_for_energy = None;
    for (session, cr) in [(1u64, 40.0), (2, 55.0), (3, 65.9)] {
        let mut node = MonitorBuilder::new()
            .level(ProcessingLevel::CompressedSingleLead)
            .cs_compression_ratio(cr)
            .build()
            .expect("valid config");
        let payloads = node.process_record(record.leads()).expect("3-lead record");

        // Frame handshake + payloads, pass the (ideal) channel, ingest.
        let mut packets = Vec::new();
        uplink
            .open_session(
                &SessionHandshake::for_config(session, node.config()),
                &mut packets,
            )
            .expect("new session");
        uplink
            .frame(session, &payloads, &mut packets)
            .expect("registered session");
        // The gateway reports PRD against the transmitted original.
        for lead in 0..3u8 {
            gateway
                .attach_reference(
                    session,
                    lead,
                    record
                        .lead(lead as usize)
                        .iter()
                        .map(|&v| v as f64)
                        .collect(),
                )
                .expect("session state");
        }
        // What this session actually puts on the air: payloads plus
        // per-packet link header/CRC overhead (handshake included).
        let wire_bytes: usize = packets.iter().map(Vec::len).sum();
        let mut prds = Vec::new();
        for raw in channel.send_all(packets) {
            for ev in gateway.ingest(&raw).expect("perfect link") {
                if let GatewayEvent::WindowReconstructed {
                    prd_percent: Some(prd),
                    ..
                } = ev
                {
                    prds.push(prd);
                }
            }
        }
        assert!(!prds.is_empty(), "no windows reconstructed at CR {cr}");
        let mean = prds.iter().sum::<f64>() / prds.len() as f64;
        let quality = match mean {
            m if m <= 9.0 => "good (paper's ≤9% band)",
            m if m <= 20.0 => "usable",
            _ => "degraded",
        };
        println!(
            "  {cr:>5.1}%  {:>7}   {:>9}   {wire_bytes:>6}   {mean:>7.2}%    {quality}",
            prds.len(),
            node.counters().payload_bytes,
        );
        if cr == 55.0 {
            cs_node_for_energy = Some(node);
        }
    }

    // ---- energy comparison (unchanged story: the bytes the radio
    //      never sends are the battery's win) ----
    let node = cs_node_for_energy.expect("55% session ran");
    let mut raw_node = MonitorBuilder::new()
        .level(ProcessingLevel::RawStreaming)
        .build()
        .expect("valid config");
    let _ = raw_node
        .process_record(record.leads())
        .expect("3-lead record");
    let p_cs = node.energy_report();
    let p_raw = raw_node.energy_report();
    println!(
        "\npower: raw {:.2} mW vs CS@55% {:.2} mW  (saving {:.0}%)",
        p_raw.breakdown.avg_power_mw(),
        p_cs.breakdown.avg_power_mw(),
        (1.0 - p_cs.breakdown.total_j() / p_raw.breakdown.total_j()) * 100.0
    );
    println!(
        "battery: raw {:.1} days vs CS {:.1} days on a 100 mAh cell",
        p_raw.lifetime_days, p_cs.lifetime_days
    );
}
