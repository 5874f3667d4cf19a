//! The closed loop under a loss sweep: one CS node streaming through a
//! seeded lossy duplex channel while the gateway ACKs, NACKs and steers
//! the compression ratio. `closed_loop/epoch_d*` times a full epoch of
//! the bidirectional protocol (frame → channel → reassemble → FISTA
//! reconstruction → pump → node-side downlink handling) at packet-drop
//! rates from 0% to 10%.
//!
//! Alongside the timings, one measurement run per drop rate prints
//! derived link-economics JSON lines — goodput (payload-carrying bytes
//! the gateway accepted per second of signal), retransmit overhead
//! bytes, and mean reconstruction PRD — as
//! `{"bench": "closed_loop/<metric>_d<pct>", "value": ...}` so CI can
//! capture them into `BENCH_closed_loop.json` next to the medians. A
//! rising drop rate should show overhead rising and goodput falling
//! *gracefully*, never a cliff: that curve is the wire-level face of
//! the paper's energy/robustness trade.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wbsn_core::governor::GovernorConfig;
use wbsn_core::level::{OperatingMode, ProcessingLevel};
use wbsn_core::monitor::MonitorBuilder;
use wbsn_core::Node;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;
use wbsn_gateway::channel::{ChannelConfig, DuplexChannel};
use wbsn_gateway::controller::ControllerConfig;
use wbsn_gateway::gateway::{Gateway, GatewayConfig, GatewayEvent};

const FS_HZ: u32 = 250;
const CS_WINDOW: usize = 512;
/// Samples per epoch (2 s — roughly one CS window per epoch).
const EPOCH_FRAMES: usize = 500;
/// Epochs per measured run: enough for the reorder window to declare
/// losses and the NACK/retransmit exchange to complete at every rung
/// of the sweep.
const EPOCHS: usize = 12;
const SESSION: u64 = 4;

/// What one run of the loop produced, for the derived-metric lines.
struct LoopOutcome {
    /// Wire bytes of accepted payload-carrying messages (goodput).
    good_bytes: usize,
    /// Wire bytes spent on NACK- and timeout-driven resends.
    retransmit_bytes: u64,
    /// Mean PRD over reconstructed windows (`None` if all were lost).
    mean_prd: Option<f64>,
}

struct Harness {
    record: Vec<i32>,
    node: Node,
    duplex: DuplexChannel,
    gateway: Gateway,
}

/// Fresh node + gateway, session opened, reference attached.
fn harness(drop: f64) -> Harness {
    let record = RecordBuilder::new(0xC10E)
        .duration_s((EPOCHS * EPOCH_FRAMES) as f64 / f64::from(FS_HZ))
        .n_leads(1)
        .noise(NoiseConfig::clean())
        .build();
    // Pinned to single-lead CS: the governor never switches, so the
    // node emits exactly the bare monitor's windows.
    let node = Node::new(
        SESSION,
        MonitorBuilder::new()
            .n_leads(1)
            .cs_window(CS_WINDOW)
            .cs_compression_ratio(54.0),
        GovernorConfig::pinned(OperatingMode::new(ProcessingLevel::CompressedSingleLead, 1)),
    )
    .expect("valid node config");
    let mut duplex = DuplexChannel::symmetric(ChannelConfig {
        seed: 0xB0D1,
        ..ChannelConfig::ideal()
    })
    .expect("valid channel config");
    duplex.up().set_drop_rate(drop).expect("valid drop rate");
    duplex.down().set_drop_rate(drop).expect("valid drop rate");
    let mut gateway = Gateway::new(GatewayConfig {
        reorder_window: 3,
        recovery_window: 12,
        controller: Some(ControllerConfig::default()),
        ..GatewayConfig::default()
    });
    gateway
        .attach_reference(
            SESSION,
            0,
            record.lead(0).iter().map(|&v| f64::from(v)).collect(),
        )
        .expect("attach reference");
    Harness {
        record: record.lead(0).to_vec(),
        node,
        duplex,
        gateway,
    }
}

/// One full bidirectional epoch: push samples, frame + send uplink,
/// ingest, pump the downlink back through the lossy reverse path, and
/// apply frames node-side. Returns accepted payload bytes and PRDs.
fn run_epoch(h: &mut Harness, epoch: usize, prds: &mut Vec<f64>) -> usize {
    let block = &h.record[epoch * EPOCH_FRAMES..(epoch + 1) * EPOCH_FRAMES];
    let tx = h.node.push_block(block, EPOCH_FRAMES).expect("push");
    let mut good = 0usize;
    for p in h.duplex.up().send_all(tx) {
        good += p.len();
        for ev in h.gateway.ingest(&p).expect("well-formed wire") {
            if let GatewayEvent::WindowReconstructed {
                prd_percent: Some(prd),
                ..
            } = ev
            {
                prds.push(prd);
            }
        }
    }
    for (_, frames) in h.gateway.pump_downlink() {
        for wire in frames {
            for delivered in h.duplex.down().send(wire) {
                h.node
                    .take_downlink(&delivered)
                    .expect("ladder CRs are valid");
            }
        }
    }
    good
}

fn run_loop(drop: f64) -> LoopOutcome {
    let mut h = harness(drop);
    let mut prds = Vec::new();
    let mut good_bytes = 0usize;
    for epoch in 0..EPOCHS {
        good_bytes += run_epoch(&mut h, epoch, &mut prds);
    }
    for ev in h.gateway.flush_sessions() {
        if let GatewayEvent::WindowReconstructed {
            prd_percent: Some(prd),
            ..
        } = ev
        {
            prds.push(prd);
        }
    }
    LoopOutcome {
        good_bytes,
        retransmit_bytes: h.node.retransmit_stats().resent_bytes,
        mean_prd: (!prds.is_empty()).then(|| prds.iter().sum::<f64>() / prds.len() as f64),
    }
}

fn bench_closed_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("closed_loop");
    g.sample_size(10);
    let duration_s = (EPOCHS * EPOCH_FRAMES) as f64 / f64::from(FS_HZ);
    for &(drop, tag) in &[(0.0, "d0"), (0.02, "d2"), (0.05, "d5"), (0.10, "d10")] {
        // One measured run per rung for the derived link-economics
        // lines CI captures alongside the timing medians.
        let outcome = run_loop(drop);
        println!(
            "{{\"bench\": \"closed_loop/goodput_bytes_per_s_{tag}\", \"value\": {:.1}}}",
            outcome.good_bytes as f64 / duration_s
        );
        println!(
            "{{\"bench\": \"closed_loop/retransmit_bytes_{tag}\", \"value\": {}}}",
            outcome.retransmit_bytes
        );
        println!(
            "{{\"bench\": \"closed_loop/mean_prd_pct_{tag}\", \"value\": {:.2}}}",
            outcome.mean_prd.unwrap_or(f64::NAN)
        );
        g.bench_function(format!("epoch_{tag}"), |b| {
            b.iter(|| {
                let mut h = harness(black_box(drop));
                let mut prds = Vec::new();
                let mut good = 0usize;
                for epoch in 0..EPOCHS {
                    good += run_epoch(&mut h, epoch, &mut prds);
                }
                good
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_closed_loop);
criterion_main!(benches);
