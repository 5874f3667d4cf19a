//! The closed loop, end to end: a node streaming CS windows through a
//! scripted degrading channel while the gateway ACKs, NACKs and steers
//! the node's compression ratio — the acceptance scenario of the
//! downlink subsystem.
//!
//! The channel script is a loss ramp and recovery: clean, then packet
//! drop ramping 0% → 8%, a sustained 8% outage, then a healed link.
//! The claims pinned here:
//!
//! * **Graceful degradation** — the adaptive controller steps the CR
//!   down the ladder as the measured loss rises, so the windows that
//!   *do* survive the outage reconstruct well below the diagnostic
//!   bar, and NACK-driven retransmissions recover windows outright.
//! * **Recovery** — after the channel heals, the controller's loss
//!   memory decays and it steps the CR back up, recovering the radio
//!   bytes (and the modeled battery-days) the defensive rungs cost.
//! * **Dominance** — every *static* CR choice on the same channel
//!   trace either misses the degraded-phase quality bar or pays more
//!   energy than the adaptive policy.
//! * **Determinism** — the entire bidirectional run (uplink packets,
//!   gateway events, downlink ACK/NACK/directive bytes, node-side
//!   retransmit accounting) replays bit-identically, sequential vs
//!   the sharded gateway at 1, 2 and 4 workers.
//!
//! Bars are grounded in measurement, not hope: on this pipeline
//! (window 512, clean channel, default gateway solver) CR 45 / 50 /
//! 54 reconstruct at ≈3.9 / 6.1 / 7.9 % mean PRD — so the clean bar
//! is 9% (every rung passes) and the degraded bar is 5% (only the
//! bottom rung passes, which is exactly where the controller must be
//! during the outage).

use wbsn_core::level::ProcessingLevel;
use wbsn_core::link::{DirectiveAction, DownlinkFrame, SessionHandshake, Uplink};
use wbsn_core::monitor::{CardiacMonitor, MonitorBuilder};
use wbsn_core::retransmit::{
    DirectiveHandler, RetransmitBuffer, RetransmitConfig, RetransmitEvent,
};
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;
use wbsn_gateway::channel::{ChannelConfig, DuplexChannel};
use wbsn_gateway::controller::ControllerConfig;
use wbsn_gateway::gateway::{Gateway, GatewayConfig, GatewayEvent, SessionReport};
use wbsn_gateway::ShardedGateway;
use wbsn_platform::battery::Battery;
use wbsn_platform::radio::RadioModel;

const FS_HZ: u32 = 250;
const CS_WINDOW: usize = 512;
/// Samples pushed per epoch (2 s — roughly one CS window per epoch).
const EPOCH_FRAMES: usize = 500;
/// Deepest scripted packet-drop probability.
const DEEP_DROP: f64 = 0.08;
/// Mean-PRD diagnostic bar on a clean link (every ladder rung passes).
const CLEAN_BAR: f64 = 9.0;
/// Tightened mean-PRD bar during the outage: only the bottom ladder
/// rung (CR 45 ≈ 3.9%) clears it, so passing proves the controller
/// actually moved.
const DEGRADED_BAR: f64 = 5.0;

/// The full acceptance scenario: clean 0..8, ramp 8..14, deep outage
/// 14..28, healed 28..42.
const EPOCHS: usize = 42;
fn scenario_drop(epoch: usize) -> f64 {
    match epoch {
        0..=7 => 0.0,
        8..=13 => DEEP_DROP * (epoch - 7) as f64 / 6.0,
        14..=27 => DEEP_DROP,
        _ => 0.0,
    }
}

/// A compressed replica of the same shape for the replay test: clean
/// 0..4, ramp 4..8, deep 8..16, healed 16..24.
const REPLAY_EPOCHS: usize = 24;
fn replay_drop(epoch: usize) -> f64 {
    match epoch {
        0..=3 => 0.0,
        4..=7 => DEEP_DROP * (epoch - 3) as f64 / 4.0,
        8..=15 => DEEP_DROP,
        _ => 0.0,
    }
}

#[derive(Clone, Copy)]
enum Policy {
    /// Gateway runs the default `LinkController`; the node starts at
    /// the top of its ladder.
    Adaptive,
    /// No controller; the node holds this CR for the whole run.
    Static(f64),
}

impl Policy {
    fn start_cr(self) -> f64 {
        match self {
            Policy::Adaptive => 54.0,
            Policy::Static(cr) => cr,
        }
    }
}

/// One node of the harness: monitor + uplink + retransmit buffer +
/// directive handler + its own deterministic duplex channel.
struct Node {
    session: u64,
    monitor: CardiacMonitor,
    uplink: Uplink,
    buf: RetransmitBuffer,
    directives: DirectiveHandler,
    duplex: DuplexChannel,
    record: Vec<i32>,
    /// Packets produced after this epoch's uplink send (NACK resends,
    /// re-announced handshakes) — they ride the next epoch's send.
    pending_tx: Vec<Vec<u8>>,
    rt_events: Vec<RetransmitEvent>,
    sent_bytes: usize,
    sent_frames: usize,
}

impl Node {
    fn new(session: u64, epochs: usize, start_cr: f64) -> Node {
        let record = RecordBuilder::new(31 * session + 5)
            .duration_s((epochs * EPOCH_FRAMES) as f64 / FS_HZ as f64)
            .n_leads(1)
            .noise(NoiseConfig::clean())
            .build();
        let monitor = MonitorBuilder::new()
            .level(ProcessingLevel::CompressedSingleLead)
            .n_leads(1)
            .cs_window(CS_WINDOW)
            .cs_compression_ratio(start_cr)
            .build()
            .unwrap();
        let mut uplink = Uplink::new();
        let mut pending_tx = Vec::new();
        let hs = SessionHandshake::for_config(session, monitor.config());
        uplink.open_session(&hs, &mut pending_tx).unwrap();
        Node {
            session,
            monitor,
            uplink,
            // The ack-timeout is the *backup* repair path: it must sit
            // above the NACK round trip (loss declared after the
            // ~3-message reorder window, NACKed next pump, resend one
            // epoch later), or the node spontaneously repairs every
            // gap before the gateway can ask and the selective-NACK
            // machinery is never exercised.
            buf: RetransmitBuffer::new(RetransmitConfig {
                ack_timeout_epochs: 6,
                max_backoff_epochs: 12,
                ..RetransmitConfig::default()
            })
            .unwrap(),
            directives: DirectiveHandler::new(),
            duplex: DuplexChannel::symmetric(ChannelConfig {
                seed: 0xB0D1 + session,
                ..ChannelConfig::ideal()
            })
            .unwrap(),
            record: record.lead(0).to_vec(),
            pending_tx,
            rt_events: Vec::new(),
            sent_bytes: 0,
            sent_frames: 0,
        }
    }
}

/// Sequential or sharded gateway behind one interface, so the replay
/// test runs the *same* harness against both.
enum Driver {
    Seq(Box<Gateway>),
    Sharded(ShardedGateway),
}

impl Driver {
    fn attach_reference(&mut self, session: u64, samples: Vec<f64>) {
        match self {
            Driver::Seq(gw) => gw.attach_reference(session, 0, samples).unwrap(),
            Driver::Sharded(gw) => gw.attach_reference(session, 0, samples).unwrap(),
        }
    }

    fn ingest_all(&mut self, packets: &[Vec<u8>]) -> Vec<wbsn_core::Result<Vec<GatewayEvent>>> {
        match self {
            Driver::Seq(gw) => packets.iter().map(|p| gw.ingest(p)).collect(),
            Driver::Sharded(gw) => gw.ingest_batch(packets).unwrap(),
        }
    }

    fn pump_downlink(&mut self) -> Vec<(u64, Vec<Vec<u8>>)> {
        match self {
            Driver::Seq(gw) => gw.pump_downlink(),
            Driver::Sharded(gw) => gw.pump_downlink().unwrap(),
        }
    }

    fn flush_tagged(&mut self) -> Vec<(u64, Vec<GatewayEvent>)> {
        match self {
            Driver::Seq(gw) => gw.flush_sessions_tagged(),
            Driver::Sharded(gw) => gw.flush_sessions_tagged().unwrap(),
        }
    }

    fn session_reports(&self) -> Vec<SessionReport> {
        match self {
            Driver::Seq(gw) => gw.session_reports(),
            Driver::Sharded(gw) => gw.session_reports(),
        }
    }
}

struct RunOutcome {
    /// (epoch, session, PRD%) per reconstructed window; flush-released
    /// windows carry `epoch == epochs`.
    prds: Vec<(usize, u64, f64)>,
    /// (epoch, session, old CR, new CR) per applied directive.
    cr_changes: Vec<(usize, u64, f64, f64)>,
    reports: Vec<SessionReport>,
    /// Modeled battery lifetime from the nodes' uplink radio traffic.
    battery_days: f64,
    /// Every observable of the run, serialized: gateway events and
    /// errors, downlink frame bytes, node retransmit accounting.
    fingerprint: String,
}

fn run(
    policy: Policy,
    sessions: &[u64],
    epochs: usize,
    drop_of: fn(usize) -> f64,
    driver: &mut Driver,
) -> RunOutcome {
    let mut nodes: Vec<Node> = sessions
        .iter()
        .map(|&s| Node::new(s, epochs, policy.start_cr()))
        .collect();
    nodes.sort_by_key(|n| n.session);
    for node in &nodes {
        driver.attach_reference(
            node.session,
            node.record.iter().map(|&v| v as f64).collect(),
        );
    }

    let mut out = RunOutcome {
        prds: Vec::new(),
        cr_changes: Vec::new(),
        reports: Vec::new(),
        battery_days: 0.0,
        fingerprint: String::new(),
    };

    for epoch in 0..epochs {
        let drop = drop_of(epoch);
        // Uplink: every node frames its new windows, ticks its
        // retransmit clock, and sends (with any pending resends).
        let mut up = Vec::new();
        for node in &mut nodes {
            node.duplex.up().set_drop_rate(drop).unwrap();
            node.duplex.down().set_drop_rate(drop).unwrap();
            let block = &node.record[epoch * EPOCH_FRAMES..(epoch + 1) * EPOCH_FRAMES];
            let payloads = node.monitor.push_block(block, EPOCH_FRAMES).unwrap();
            let mut tx = std::mem::take(&mut node.pending_tx);
            for payload in &payloads {
                let mut pk = Vec::new();
                let seq = node
                    .uplink
                    .frame_one(node.session, payload, &mut pk)
                    .unwrap();
                node.buf.record(seq, &pk, &mut node.rt_events);
                tx.extend(pk);
            }
            node.buf.tick(&mut tx, &mut node.rt_events);
            node.sent_bytes += tx.iter().map(Vec::len).sum::<usize>();
            node.sent_frames += tx.len();
            up.extend(node.duplex.up().send_all(tx));
        }

        for result in driver.ingest_all(&up) {
            match result {
                Ok(events) => {
                    for ev in events {
                        if let GatewayEvent::WindowReconstructed {
                            session,
                            prd_percent: Some(prd),
                            ..
                        } = ev
                        {
                            out.prds.push((epoch, session, prd));
                        }
                        out.fingerprint.push_str(&format!("{epoch}:{ev:?}\n"));
                    }
                }
                Err(err) => out.fingerprint.push_str(&format!("{epoch}:err:{err}\n")),
            }
        }

        // Downlink: ACK/NACK/directives through the lossy reverse
        // path; resends and re-announced handshakes queue for the next
        // epoch's uplink.
        for (session, frames) in driver.pump_downlink() {
            let node = nodes.iter_mut().find(|n| n.session == session).unwrap();
            for wire in frames {
                out.fingerprint.push_str(&format!(
                    "{epoch}:dl:{session}:{}\n",
                    wire.iter().map(|b| format!("{b:02x}")).collect::<String>()
                ));
                for delivered in node.duplex.down().send(wire) {
                    let frame = DownlinkFrame::from_wire(&delivered).unwrap();
                    if node
                        .buf
                        .on_frame(&frame, &mut node.pending_tx, &mut node.rt_events)
                    {
                        continue;
                    }
                    let DownlinkFrame::Directive(df) = frame else {
                        continue;
                    };
                    let Some(DirectiveAction::SetCr { cr_x10 }) = node.directives.accept(&df)
                    else {
                        continue;
                    };
                    let new_cr = f64::from(cr_x10) / 10.0;
                    let old_cr = node.monitor.config().cs_cr_percent;
                    node.monitor.switch_cs_cr(new_cr).unwrap();
                    let hs = SessionHandshake::for_config(session, node.monitor.config());
                    let mut pk = Vec::new();
                    let seq = node.uplink.announce_handshake(&hs, &mut pk).unwrap();
                    node.buf.record(seq, &pk, &mut node.rt_events);
                    node.pending_tx.extend(pk);
                    out.cr_changes.push((epoch, session, old_cr, new_cr));
                }
            }
        }
    }

    for (session, events) in driver.flush_tagged() {
        for ev in events {
            if let GatewayEvent::WindowReconstructed {
                prd_percent: Some(prd),
                ..
            } = ev
            {
                out.prds.push((epochs, session, prd));
            }
            out.fingerprint
                .push_str(&format!("flush:{session}:{ev:?}\n"));
        }
    }
    out.reports = driver.session_reports();
    for report in &out.reports {
        out.fingerprint.push_str(&format!("report:{report:?}\n"));
    }
    for node in &nodes {
        out.fingerprint.push_str(&format!(
            "node:{}:{:?}:{:?}:d{}s{}\n",
            node.session,
            node.buf.stats(),
            node.rt_events,
            node.directives.accepted(),
            node.directives.stale()
        ));
    }

    // Energy: price the nodes' uplink traffic (retransmissions and
    // re-announced handshakes included — defensive CR rungs and resend
    // storms both cost real bytes) on the paper's radio model, one
    // wakeup per epoch per node.
    let radio = RadioModel::default();
    let total_bytes: usize = nodes.iter().map(|n| n.sent_bytes).sum();
    let total_frames: usize = nodes.iter().map(|n| n.sent_frames).sum();
    let tx = radio.transmit_packets(total_bytes, total_frames, epochs * nodes.len());
    let duration_s = (epochs * EPOCH_FRAMES) as f64 / FS_HZ as f64;
    out.battery_days = Battery::default().lifetime_days(tx.energy_j / duration_s);
    out
}

fn gateway_config(policy: Policy) -> GatewayConfig {
    GatewayConfig {
        reorder_window: 3,
        recovery_window: 12,
        controller: match policy {
            Policy::Adaptive => Some(ControllerConfig::default()),
            Policy::Static(_) => None,
        },
        ..GatewayConfig::default()
    }
}

fn mean_prd(prds: &[(usize, u64, f64)], epochs: std::ops::Range<usize>) -> f64 {
    let inside: Vec<f64> = prds
        .iter()
        .filter(|(e, _, _)| epochs.contains(e))
        .map(|&(_, _, p)| p)
        .collect();
    assert!(
        !inside.is_empty(),
        "no reconstructed windows in epochs {epochs:?}"
    );
    inside.iter().sum::<f64>() / inside.len() as f64
}

#[test]
fn adaptive_cr_rides_the_loss_ramp_and_beats_every_static_policy() {
    let session = 7;
    let mut driver = Driver::Seq(Box::new(Gateway::new(gateway_config(Policy::Adaptive))));
    let adaptive = run(
        Policy::Adaptive,
        &[session],
        EPOCHS,
        scenario_drop,
        &mut driver,
    );

    // Quality: clean phases at the bar, outage windows well under the
    // tightened bar — proof the controller was at the bottom rung.
    let clean_head = mean_prd(&adaptive.prds, 0..8);
    let deep = mean_prd(&adaptive.prds, 20..28);
    let healed_tail = mean_prd(&adaptive.prds, 32..EPOCHS + 1);
    assert!(clean_head <= CLEAN_BAR, "clean-phase mean PRD {clean_head}");
    assert!(
        deep <= DEGRADED_BAR,
        "deep-outage mean PRD {deep} (bar {DEGRADED_BAR}) — controller failed to protect quality"
    );
    assert!(healed_tail <= CLEAN_BAR, "post-heal mean PRD {healed_tail}");

    // The controller moved: down during the loss ramp/outage, back up
    // after the heal.
    assert!(
        adaptive
            .cr_changes
            .iter()
            .any(|&(e, _, old, new)| (8..28).contains(&e) && new < old),
        "no step-down during the loss ramp: {:?}",
        adaptive.cr_changes
    );
    assert!(
        adaptive
            .cr_changes
            .iter()
            .any(|&(e, _, old, new)| e >= 28 && new > old),
        "no step-up after the heal: {:?}",
        adaptive.cr_changes
    );

    // The loop actually exercised retransmission and reporting.
    let report = adaptive
        .reports
        .iter()
        .find(|r| r.session == session)
        .unwrap();
    assert!(report.directives_issued >= 2, "report {report:?}");
    assert!(report.nacks_sent > 0, "report {report:?}");
    assert!(
        report.recovered > 0,
        "no NACK-driven recovery happened: {report:?}"
    );

    // Dominance: every static CR on the same channel trace either
    // fails a quality bar or burns more battery than adaptive.
    for static_cr in [45.0, 50.0, 54.0] {
        let mut driver = Driver::Seq(Box::new(Gateway::new(gateway_config(Policy::Static(
            static_cr,
        )))));
        let fixed = run(
            Policy::Static(static_cr),
            &[session],
            EPOCHS,
            scenario_drop,
            &mut driver,
        );
        let quality_ok = mean_prd(&fixed.prds, 0..8) <= CLEAN_BAR
            && mean_prd(&fixed.prds, 20..28) <= DEGRADED_BAR
            && mean_prd(&fixed.prds, 32..EPOCHS + 1) <= CLEAN_BAR;
        assert!(
            !quality_ok || adaptive.battery_days > fixed.battery_days,
            "static CR {static_cr} holds quality ({quality_ok}) at {} battery-days \
             vs adaptive {} — adaptive is dominated",
            fixed.battery_days,
            adaptive.battery_days
        );
    }
}

#[test]
fn closed_loop_replay_is_bit_identical_across_worker_counts() {
    let sessions = [3, 9];
    let mut seq = Driver::Seq(Box::new(Gateway::new(gateway_config(Policy::Adaptive))));
    let reference = run(
        Policy::Adaptive,
        &sessions,
        REPLAY_EPOCHS,
        replay_drop,
        &mut seq,
    );

    // The reference trace is only meaningful if the downlink actually
    // carried traffic and the channel actually hurt.
    assert!(reference.fingerprint.contains(":dl:"));
    assert!(reference.fingerprint.contains("MessageLost"));

    for workers in [1usize, 2, 3, 5, 17] {
        let mut sharded = Driver::Sharded(
            ShardedGateway::new(gateway_config(Policy::Adaptive), workers).unwrap(),
        );
        let replay = run(
            Policy::Adaptive,
            &sessions,
            REPLAY_EPOCHS,
            replay_drop,
            &mut sharded,
        );
        assert_eq!(
            reference.fingerprint, replay.fingerprint,
            "sharded gateway at {workers} workers diverged from the sequential run"
        );
    }
}

/// A node reboot in the middle of a retransmission exchange: the node
/// loses its retransmit buffer and restarts its sequence numbering at
/// zero; the gateway is told out of band (`register`) and must discard
/// its NACK state, accept the fresh stream from sequence 0, and treat
/// stragglers from the previous incarnation as stale — never as data.
#[test]
fn a_node_reboot_mid_retransmission_resumes_cleanly() {
    let session = 11;
    let events = |af: bool| wbsn_core::Payload::Events {
        n_beats: 9,
        class_counts: [9, 0, 0, 0],
        mean_hr_x10: 721,
        af_burden_pct: 0,
        af_active: af,
    };
    let mut gw = Gateway::new(GatewayConfig {
        reorder_window: 2,
        recovery_window: 8,
        ..GatewayConfig::default()
    });
    let monitor = MonitorBuilder::new()
        .level(ProcessingLevel::Classified)
        .n_leads(1)
        .build()
        .unwrap();
    let hs = SessionHandshake::for_config(session, monitor.config());

    // First incarnation: handshake + six messages, message 3 lost.
    let mut uplink = Uplink::new();
    let mut buf = RetransmitBuffer::new(RetransmitConfig::default()).unwrap();
    let mut directives = DirectiveHandler::new();
    let mut rt_events = Vec::new();
    let mut pkts = Vec::new();
    uplink.open_session(&hs, &mut pkts).unwrap();
    let mut dropped = Vec::new();
    for i in 1..=6u32 {
        let mut msg = Vec::new();
        let seq = uplink.frame_one(session, &events(false), &mut msg).unwrap();
        assert_eq!(seq, i);
        buf.record(seq, &msg, &mut rt_events);
        if seq == 3 {
            dropped = msg;
        } else {
            pkts.extend(msg);
        }
    }
    assert_eq!(dropped.len(), 1, "Events payloads are single-packet");
    for p in &pkts {
        gw.ingest(p).unwrap();
    }
    let report = gw.session_report(session).unwrap();
    assert_eq!(report.missing_now, 1, "the gap must be tracked");

    // The NACK goes out and the node starts a retransmission …
    let pumped = gw.pump_downlink();
    let frame = DownlinkFrame::from_wire(&pumped[0].1[0]).unwrap();
    assert_eq!(
        frame,
        DownlinkFrame::Nack {
            cum_ack: 3,
            missing: vec![3]
        }
    );
    let mut in_flight = Vec::new();
    assert!(buf.on_frame(&frame, &mut in_flight, &mut rt_events));
    assert_eq!(in_flight, dropped, "message 3 resent");

    // … but the node reboots before it is delivered. Everything
    // volatile on the node dies; the gateway is re-registered.
    buf.reset();
    directives.reset();
    let mut uplink = Uplink::new();
    gw.register(hs).unwrap();
    assert_eq!(gw.session_report(session).unwrap().missing_now, 0);

    // Second incarnation: fresh handshake, sequences restart at 0.
    let mut pkts = Vec::new();
    uplink.open_session(&hs, &mut pkts).unwrap();
    for _ in 1..=3u32 {
        let seq = uplink.frame_one(session, &events(true), &mut pkts).unwrap();
        buf.record(seq, &pkts[pkts.len() - 1..], &mut rt_events);
        assert!(seq < 4, "fresh framer must restart numbering");
    }
    let payloads_before = gw.stats().payloads;
    for p in &pkts {
        gw.ingest(p).unwrap();
    }
    assert_eq!(gw.stats().payloads, payloads_before + 3);

    // The first pump of the new incarnation is a clean cumulative ACK
    // past the fresh stream — no stale NACKs from before the reboot.
    let pumped = gw.pump_downlink();
    assert_eq!(
        DownlinkFrame::from_wire(&pumped[0].1[0]).unwrap(),
        DownlinkFrame::Ack { cum_ack: 4 }
    );

    // The pre-reboot retransmission finally straggles in: its sequence
    // belongs to the dead incarnation and must be swallowed as stale —
    // not decoded, not recovered, not an error.
    let payloads_before = gw.stats().payloads;
    for p in &in_flight {
        gw.ingest(p).unwrap();
    }
    assert_eq!(
        gw.stats().payloads,
        payloads_before,
        "a dead incarnation's packet must never surface as a payload"
    );
    let report = gw.session_report(session).unwrap();
    assert_eq!(report.missing_now, 0, "{report:?}");
}

/// Re-derivation probe for the measured PRD-per-CR table in the module
/// docs (and the controller's default ladder). Run with
/// `cargo test --test closed_loop -- --ignored --nocapture`.
#[test]
#[ignore = "measurement probe, not an assertion"]
fn probe_prd_per_cr_rung() {
    for cr in [40.0f64, 42.5, 45.0, 47.5, 50.0, 52.0, 54.0, 55.0, 57.0] {
        let rec = RecordBuilder::new(21)
            .duration_s(45.0)
            .n_leads(1)
            .noise(NoiseConfig::clean())
            .build();
        let mut node = MonitorBuilder::new()
            .level(ProcessingLevel::CompressedSingleLead)
            .n_leads(1)
            .cs_window(CS_WINDOW)
            .cs_compression_ratio(cr)
            .build()
            .unwrap();
        let payloads = node.process_record(&rec).unwrap();
        let mut uplink = Uplink::new();
        let mut packets = Vec::new();
        uplink
            .open_session(
                &SessionHandshake::for_config(4, node.config()),
                &mut packets,
            )
            .unwrap();
        uplink.frame(4, &payloads, &mut packets).unwrap();
        let mut gw = Gateway::new(GatewayConfig::default());
        gw.attach_reference(4, 0, rec.lead(0).iter().map(|&v| f64::from(v)).collect())
            .unwrap();
        let mut prds = Vec::new();
        let mut bytes = 0usize;
        let mut events = Vec::new();
        for p in &packets {
            bytes += p.len();
            events.extend(gw.ingest(p).unwrap());
        }
        events.extend(gw.flush_sessions());
        for ev in events {
            if let GatewayEvent::WindowReconstructed {
                prd_percent: Some(prd),
                ..
            } = ev
            {
                prds.push(prd);
            }
        }
        let mean = prds.iter().sum::<f64>() / prds.len() as f64;
        println!(
            "cr={cr} n={} mean_prd={mean:.2} bytes_45s={bytes}",
            prds.len()
        );
    }
}
