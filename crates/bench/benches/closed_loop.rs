//! The closed loop under a loss sweep: one CS node streaming through a
//! seeded lossy duplex channel while the gateway ACKs, NACKs and steers
//! the compression ratio. `closed_loop/epoch_d*` times one run of
//! `EPOCHS` epochs of the bidirectional protocol (frame → channel →
//! reassemble → FISTA reconstruction → pump → node-side downlink
//! handling) on the first channel seed, at packet-drop rates from 0% to
//! 10%.
//!
//! Alongside the timings, each drop rate is run once per channel seed
//! (`CHANNEL_SEEDS`), and the means over the seeds print as derived
//! link-economics JSON lines, `{"bench": "closed_loop/<metric>_d<pct>",
//! "value": ...}`, so CI can capture them into `BENCH_closed_loop.json`
//! next to the medians:
//! - goodput: payload-carrying messages (CS windows) the gateway
//!   accepted per second of signal, each counted once, when its last
//!   missing fragment first arrives (a resend of a message already
//!   accepted, or of a fragment already held, adds nothing). It counts
//!   messages, not bytes: under loss the controller lowers the CR, so
//!   each window's message grows while the windows delivered can only
//!   fall;
//! - retransmit overhead: wire bytes the node spent on NACK- and
//!   timeout-driven resends;
//! - mean reconstruction PRD over the scored windows.
//!
//! A rising drop rate shows overhead rising and goodput falling
//! *gracefully*, never a cliff: that curve is the wire-level face of
//! the paper's energy/robustness trade.

use std::collections::{BTreeMap, BTreeSet};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wbsn_core::governor::GovernorConfig;
use wbsn_core::level::{OperatingMode, ProcessingLevel};
use wbsn_core::link::{LinkPacket, KIND_HANDSHAKE};
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
/// Epochs per run: enough packets that every rung of the sweep drops a
/// different number of them, and for the reorder window to declare
/// losses and the NACK/retransmit exchange to complete.
const EPOCHS: usize = 40;
/// Channel seeds each rung's derived lines average over.
const CHANNEL_SEEDS: [u64; 4] = [0xB0D1, 0xB0D2, 0xB0D3, 0xB0D4];
const SESSION: u64 = 4;

/// What one run of the loop produced, for the derived-metric lines.
struct LoopOutcome {
    /// Payload-carrying messages accepted (goodput).
    good_messages: usize,
    /// Wire bytes spent on NACK- and timeout-driven resends.
    retransmit_bytes: u64,
    /// PRDs of the scored windows.
    prds: Vec<f64>,
}

/// Goodput bookkeeping: each payload-carrying message counts once,
/// when the gateway has accepted every one of its fragments for the
/// first time.
#[derive(Default)]
struct Goodput {
    /// Messages still missing fragments: the fragments held.
    partial: BTreeMap<u32, BTreeSet<u16>>,
    /// Messages accepted whole.
    counted: BTreeSet<u32>,
}

impl Goodput {
    /// Notes one packet the gateway accepted.
    fn accept(&mut self, wire: &[u8]) {
        let Ok(pkt) = LinkPacket::decode(wire) else {
            return;
        };
        if pkt.kind == KIND_HANDSHAKE || self.counted.contains(&pkt.msg_seq) {
            return;
        }
        let frags = self.partial.entry(pkt.msg_seq).or_default();
        frags.insert(pkt.frag_index);
        if frags.len() == usize::from(pkt.frag_count) {
            self.partial.remove(&pkt.msg_seq);
            self.counted.insert(pkt.msg_seq);
        }
    }
}

struct Harness {
    record: Vec<i32>,
    node: Node,
    duplex: DuplexChannel,
    gateway: Gateway,
}

/// Fresh node + gateway, session opened, reference attached.
fn harness(drop: f64, channel_seed: u64) -> Harness {
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
        seed: channel_seed,
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
/// apply frames node-side. Notes accepted packets in `good` and scored
/// PRDs in `prds`.
fn run_epoch(h: &mut Harness, epoch: usize, good: &mut Goodput, prds: &mut Vec<f64>) {
    let block = &h.record[epoch * EPOCH_FRAMES..(epoch + 1) * EPOCH_FRAMES];
    let tx = h.node.push_block(block, EPOCH_FRAMES).expect("push");
    for p in h.duplex.up().send_all(tx) {
        let Ok(events) = h.gateway.ingest(&p) else {
            continue;
        };
        good.accept(&p);
        for ev in events {
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
}

fn run_loop(drop: f64, channel_seed: u64) -> LoopOutcome {
    let mut h = harness(drop, channel_seed);
    let mut prds = Vec::new();
    let mut good = Goodput::default();
    for epoch in 0..EPOCHS {
        run_epoch(&mut h, epoch, &mut good, &mut prds);
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
        good_messages: good.counted.len(),
        retransmit_bytes: h.node.retransmit_stats().resent_bytes,
        prds,
    }
}

fn bench_closed_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("closed_loop");
    g.sample_size(10);
    let duration_s = (EPOCHS * EPOCH_FRAMES) as f64 / f64::from(FS_HZ);
    let seeds = CHANNEL_SEEDS.len() as f64;
    for &(drop, tag) in &[(0.0, "d0"), (0.02, "d2"), (0.05, "d5"), (0.10, "d10")] {
        // One measured run per rung and channel seed for the derived
        // link-economics lines CI captures alongside the timing medians.
        let outcomes: Vec<LoopOutcome> = CHANNEL_SEEDS
            .iter()
            .map(|&seed| run_loop(drop, seed))
            .collect();
        let good: usize = outcomes.iter().map(|o| o.good_messages).sum();
        let resent: u64 = outcomes.iter().map(|o| o.retransmit_bytes).sum();
        let prds: Vec<f64> = outcomes
            .iter()
            .flat_map(|o| o.prds.iter().copied())
            .collect();
        println!(
            "{{\"bench\": \"closed_loop/goodput_msgs_per_s_{tag}\", \"value\": {:.4}}}",
            good as f64 / seeds / duration_s
        );
        println!(
            "{{\"bench\": \"closed_loop/retransmit_bytes_{tag}\", \"value\": {:.1}}}",
            resent as f64 / seeds
        );
        println!(
            "{{\"bench\": \"closed_loop/mean_prd_pct_{tag}\", \"value\": {:.2}}}",
            if prds.is_empty() {
                f64::NAN
            } else {
                prds.iter().sum::<f64>() / prds.len() as f64
            }
        );
        g.bench_function(format!("epoch_{tag}"), |b| {
            b.iter(|| {
                let mut h = harness(black_box(drop), CHANNEL_SEEDS[0]);
                let mut prds = Vec::new();
                let mut good = Goodput::default();
                for epoch in 0..EPOCHS {
                    run_epoch(&mut h, epoch, &mut good, &mut prds);
                }
                good.counted.len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_closed_loop);
criterion_main!(benches);
