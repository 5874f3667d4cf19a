//! The sharded gateway's core guarantee: a [`ShardedGateway`] with
//! any worker count is **byte-identical** to a sequential [`Gateway`]
//! fed the same packets — per-packet ingest results (events *and*
//! typed rejections), flush order, counters (including solver
//! iterations), reconstructed samples, and shared-cache totals — even
//! while sessions are registered and closed mid-stream and the link
//! drops, corrupts and reorders packets.
//!
//! One scripted feeding schedule drives every driver, so the
//! comparison is like-for-like by construction. The packet stream is
//! built once (node fleet → uplink framer → seeded `LossyChannel`) and
//! replayed into each driver.
//!
//! The downlink is live throughout: every batch is followed by a
//! [`Gateway::pump_downlink`] whose ACK/NACK/directive frames go into
//! the compared outcome byte for byte, and session 102 is re-registered
//! mid-stream — a node reboot while NACKs for its earlier messages are
//! still in flight — so the register-reset path (decoder, feedback and
//! controller state) is pinned across worker counts too.

use wbsn_core::level::ProcessingLevel;
use wbsn_core::link::{SessionHandshake, Uplink};
use wbsn_core::monitor::{CardiacMonitor, MonitorBuilder};
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::rhythm::RhythmPhase;
use wbsn_ecg_synth::{Record, RecordBuilder, Rhythm};
use wbsn_gateway::channel::{ChannelConfig, LossyChannel};
use wbsn_gateway::{
    ControllerConfig, Gateway, GatewayConfig, GatewayEvent, GatewayStats, MatrixCacheStats,
    ShardedGateway,
};

const CHANNEL_SEED: u64 = 0x5AD_0001;
const FS: usize = 250;
const ROUNDS: usize = 10;

/// Batch index boundaries of the scripted run. Batch 0 carries the
/// in-band handshakes; batch `r + 1` carries round `r`.
const GARBAGE_AT: usize = 3; // a 3-byte runt injected post-channel
const REGISTER_AT: usize = 5; // out-of-band handshake for session 106
const CLOSE_AT: usize = 7; // session 104 closed mid-stream
const REBOOT_AT: usize = 8; // session 102 re-registered (node reboot)

/// Downlink on: a tight reorder window so the lossy link's gaps are
/// declared (and NACKed) mid-run, a recovery window so late
/// retransmissions would count, and the adaptive controller so
/// directive frames ride the compared downlink too.
fn shard_config() -> GatewayConfig {
    GatewayConfig {
        reorder_window: 4,
        recovery_window: 8,
        controller: Some(ControllerConfig::default()),
        ..GatewayConfig::default()
    }
}

/// Session ids chosen to spread across 1, 2 and 4 workers
/// (`id % workers` hits every shard).
const IDS: [u64; 6] = [101, 102, 103, 104, 105, 106];

struct NodeSide {
    /// Delivered packets per ingest batch, post-channel.
    batches: Vec<Vec<Vec<u8>>>,
    /// The handshake registered out of band at `REGISTER_AT`.
    late_hs: SessionHandshake,
    /// Session 102's handshake, re-registered at `REBOOT_AT` as a
    /// node reboot mid-retransmission.
    reboot_hs: SessionHandshake,
    /// Reference samples for session 102's PRD reporting.
    reference: Vec<f64>,
}

fn monitors() -> Vec<CardiacMonitor> {
    // A mixed fleet: sessions 102 and 103 share identical CS geometry
    // (same window, CR and default matrix seed), so the matrix cache
    // must collapse them onto one Φ; 105 adds a second geometry at
    // CR 40% across two leads.
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
            .cs_compression_ratio(50.0),
        MonitorBuilder::new()
            .level(ProcessingLevel::Delineated)
            .n_leads(3),
        MonitorBuilder::new()
            .level(ProcessingLevel::CompressedMultiLead)
            .n_leads(2)
            .cs_compression_ratio(40.0),
        MonitorBuilder::new()
            .level(ProcessingLevel::RawStreaming)
            .n_leads(1),
    ];
    builders
        .iter()
        .map(|b| b.clone().build().unwrap())
        .collect()
}

fn records() -> Vec<Record> {
    let dur = ROUNDS as f64;
    [
        RecordBuilder::new(201)
            .duration_s(dur)
            .n_leads(3)
            .rhythm(Rhythm::Phased(vec![
                RhythmPhase::new(Rhythm::NormalSinus { mean_hr_bpm: 70.0 }, 4.0),
                RhythmPhase::new(Rhythm::AtrialFibrillation { mean_hr_bpm: 95.0 }, dur - 4.0),
            ]))
            .noise(NoiseConfig::ambulatory(22.0)),
        RecordBuilder::new(202)
            .duration_s(dur)
            .n_leads(1)
            .noise(NoiseConfig::clean()),
        RecordBuilder::new(203)
            .duration_s(dur)
            .n_leads(1)
            .noise(NoiseConfig::clean()),
        RecordBuilder::new(204)
            .duration_s(dur)
            .n_leads(3)
            .noise(NoiseConfig::ambulatory(24.0)),
        RecordBuilder::new(205)
            .duration_s(dur)
            .n_leads(2)
            .noise(NoiseConfig::ambulatory(26.0)),
        RecordBuilder::new(206)
            .duration_s(dur)
            .n_leads(1)
            .noise(NoiseConfig::clean()),
    ]
    .map(RecordBuilder::build)
    .into_iter()
    .collect()
}

/// Whether session slot `s` streams during `round` — 104 stops before
/// its close, 106 only starts once registered.
fn streams(s: usize, round: usize) -> bool {
    match IDS[s] {
        104 => round + 1 < CLOSE_AT,
        106 => round + 1 >= REGISTER_AT,
        _ => true,
    }
}

/// Builds the full post-channel packet schedule once; every driver
/// replays exactly these bytes.
fn build_input() -> NodeSide {
    let mut monitors = monitors();
    let records = records();
    let mut uplink = Uplink::new();
    let mut channel = LossyChannel::new(ChannelConfig {
        drop_rate: 0.01,
        corrupt_rate: 0.015,
        reorder_rate: 0.02,
        reorder_depth: 2,
        seed: CHANNEL_SEED,
    })
    .unwrap();

    let mut batches = Vec::new();
    // Batch 0: in-band handshakes for everyone but the late joiner.
    let mut pkts = Vec::new();
    for s in 0..IDS.len() - 1 {
        let hs = SessionHandshake::for_config(IDS[s], monitors[s].config());
        uplink.open_session(&hs, &mut pkts).unwrap();
    }
    batches.push(channel.send_all(pkts));

    for round in 0..ROUNDS {
        let mut pkts = Vec::new();
        for (s, m) in monitors.iter_mut().enumerate() {
            if !streams(s, round) {
                continue;
            }
            if IDS[s] == 106 && round + 1 == REGISTER_AT {
                // The late joiner's handshake travels out of band
                // (Driver::register); its message-0 packet is framed
                // but never delivered, so every driver must prove the
                // same gap.
                let mut discard = Vec::new();
                uplink
                    .open_session(
                        &SessionHandshake::for_config(IDS[s], m.config()),
                        &mut discard,
                    )
                    .unwrap();
            }
            let rec = &records[s];
            let mut buf = Vec::with_capacity(FS * rec.n_leads());
            for i in round * FS..(round + 1) * FS {
                for l in 0..rec.n_leads() {
                    buf.push(rec.lead(l)[i]);
                }
            }
            let payloads = m.push_block(&buf, FS).unwrap();
            uplink.frame(IDS[s], &payloads, &mut pkts).unwrap();
        }
        batches.push(channel.send_all(pkts));
    }

    // Tail: node-side flush of the surviving sessions, then the
    // channel's held (reordered) packets.
    let mut pkts = Vec::new();
    for (s, m) in monitors.iter_mut().enumerate() {
        if IDS[s] == 104 {
            continue;
        }
        let tail = m.flush().unwrap();
        uplink.frame(IDS[s], &tail, &mut pkts).unwrap();
    }
    batches.push(channel.send_all(pkts));
    batches.push(channel.flush());

    // A runt too short to carry a session id: routed to worker 0,
    // rejected with the same typed error everywhere.
    batches[GARBAGE_AT].push(vec![0xFF, 0x01, 0x02]);

    NodeSide {
        batches,
        late_hs: SessionHandshake::for_config(IDS[5], monitors[5].config()),
        reboot_hs: SessionHandshake::for_config(IDS[1], monitors[1].config()),
        reference: records[1].lead(0).iter().map(|&v| f64::from(v)).collect(),
    }
}

/// Uniform handle over both drivers so one scripted schedule feeds
/// the sequential reference and every sharded run.
enum Driver {
    Seq(Box<Gateway>),
    Sharded(ShardedGateway),
}

impl Driver {
    fn new(workers: Option<usize>) -> Self {
        match workers {
            None => Driver::Seq(Box::new(Gateway::new(shard_config()))),
            Some(w) => Driver::Sharded(ShardedGateway::new(shard_config(), w).unwrap()),
        }
    }

    fn pump(&mut self) -> Vec<(u64, Vec<Vec<u8>>)> {
        match self {
            Driver::Seq(g) => g.pump_downlink(),
            Driver::Sharded(g) => g.pump_downlink().unwrap(),
        }
    }

    fn ingest_batch(&mut self, batch: &[Vec<u8>]) -> Vec<Result<Vec<GatewayEvent>, String>> {
        match self {
            Driver::Seq(g) => batch
                .iter()
                .map(|p| g.ingest(p).map_err(|e| e.to_string()))
                .collect(),
            Driver::Sharded(g) => g
                .ingest_batch(batch)
                .unwrap()
                .into_iter()
                .map(|r| r.map_err(|e| e.to_string()))
                .collect(),
        }
    }

    fn register(&mut self, hs: SessionHandshake) {
        match self {
            Driver::Seq(g) => g.register(hs).unwrap(),
            Driver::Sharded(g) => g.register(hs).unwrap(),
        }
    }

    fn attach_reference(&mut self, session: u64, lead: u8, samples: Vec<f64>) {
        match self {
            Driver::Seq(g) => g.attach_reference(session, lead, samples).unwrap(),
            Driver::Sharded(g) => g.attach_reference(session, lead, samples).unwrap(),
        }
    }

    fn close(&mut self, session: u64) -> Option<Vec<GatewayEvent>> {
        match self {
            Driver::Seq(g) => g.close_session(session),
            Driver::Sharded(g) => g.close_session(session).unwrap(),
        }
    }

    fn flush_tagged(&mut self) -> Vec<(u64, Vec<GatewayEvent>)> {
        match self {
            Driver::Seq(g) => g.flush_sessions_tagged(),
            Driver::Sharded(g) => g.flush_sessions_tagged().unwrap(),
        }
    }

    fn stats(&self) -> GatewayStats {
        match self {
            Driver::Seq(g) => g.stats(),
            Driver::Sharded(g) => g.stats().unwrap(),
        }
    }

    fn cache_stats(&self) -> MatrixCacheStats {
        match self {
            Driver::Seq(g) => g.cache_stats(),
            Driver::Sharded(g) => g.cache_stats(),
        }
    }

    fn session_ids(&self) -> Vec<u64> {
        let mut ids = match self {
            Driver::Seq(g) => g.session_ids().collect::<Vec<_>>(),
            Driver::Sharded(g) => g.session_ids(),
        };
        ids.sort_unstable();
        ids
    }

    fn windows_bits(&self, session: u64, lead: u8) -> Vec<(u32, Vec<u64>)> {
        let bits = |(seq, w): (u32, &[f64])| (seq, w.iter().map(|v| v.to_bits()).collect());
        match self {
            Driver::Seq(g) => g.reconstructed_windows(session, lead).map(bits).collect(),
            Driver::Sharded(g) => g.reconstructed_windows(session, lead).map(bits).collect(),
        }
    }
}

/// Everything observable about one run, bit-exact. Rejections are
/// compared by rendered message so the error *text* must match too.
#[derive(Debug, PartialEq)]
struct Outcome {
    per_packet: Vec<Result<Vec<GatewayEvent>, String>>,
    /// Downlink frames pumped after every batch: `(batch, session,
    /// wire bytes)` — ACKs, selective NACKs and CR directives, byte
    /// for byte.
    downlink: Vec<(usize, u64, Vec<Vec<u8>>)>,
    closed_tail: Option<Vec<GatewayEvent>>,
    unknown_close: Option<Vec<GatewayEvent>>,
    flush: Vec<(u64, Vec<GatewayEvent>)>,
    stats: GatewayStats,
    cache: MatrixCacheStats,
    sessions: Vec<u64>,
    /// (session, lead, window_seq, sample bits) of every CS stream.
    windows: Vec<(u64, u8, u32, Vec<u64>)>,
}

fn run(workers: Option<usize>, input: &NodeSide) -> Outcome {
    let mut drv = Driver::new(workers);
    drv.attach_reference(102, 0, input.reference.clone());
    let mut per_packet = Vec::new();
    let mut downlink = Vec::new();
    let mut closed_tail = None;
    let mut unknown_close = None;
    for (i, batch) in input.batches.iter().enumerate() {
        if i == REGISTER_AT {
            drv.register(input.late_hs);
        }
        if i == CLOSE_AT {
            closed_tail = drv.close(104);
            unknown_close = drv.close(9_999);
        }
        if i == REBOOT_AT {
            // Node reboot mid-retransmission: 102 re-registers while
            // NACKs for its earlier gaps are still being paced. The
            // reset must discard decoder, feedback and controller
            // state identically on every driver — 102's subsequent
            // packets (the framer keeps counting) then look like one
            // big future run to the fresh reassembler.
            drv.register(input.reboot_hs);
        }
        per_packet.extend(drv.ingest_batch(batch));
        for (session, frames) in drv.pump() {
            downlink.push((i, session, frames));
        }
    }
    let flush = drv.flush_tagged();
    let mut windows = Vec::new();
    for (session, lead) in [(102, 0u8), (103, 0), (105, 0), (105, 1)] {
        for (seq, bits) in drv.windows_bits(session, lead) {
            windows.push((session, lead, seq, bits));
        }
    }
    Outcome {
        per_packet,
        downlink,
        closed_tail,
        unknown_close,
        flush,
        stats: drv.stats(),
        cache: drv.cache_stats(),
        sessions: drv.session_ids(),
        windows,
    }
}

#[test]
fn sharded_gateway_matches_sequential_for_any_worker_count() {
    let input = build_input();
    let reference = run(None, &input);

    // The scenario is not vacuous: the link actually rejected packets,
    // sessions churned, CS windows decoded, and the cache was shared.
    assert!(
        reference.per_packet.iter().any(Result::is_err),
        "no packet was ever rejected — the lossy link did nothing"
    );
    assert!(reference.stats.crc_rejected + reference.stats.rejected > 0);
    assert!(reference.stats.windows_reconstructed > 0);
    assert!(reference.stats.solver_iters > 0);
    assert!(
        reference.closed_tail.is_some(),
        "mid-stream close must find the session"
    );
    // The downlink was not idling either: the lossy link forced
    // selective NACKs (wire kind 0xF1) and the controller issued CR
    // directives (0xF2) somewhere in the compared frame stream.
    let downlink_kinds: Vec<u8> = reference
        .downlink
        .iter()
        .flat_map(|(_, _, frames)| frames.iter().map(|f| f[0]))
        .collect();
    assert!(
        downlink_kinds.contains(&0xF1),
        "no NACK ever pumped — the downlink did nothing interesting"
    );
    assert!(
        downlink_kinds.contains(&0xF2),
        "no directive ever pumped — the controller did nothing"
    );
    assert_eq!(reference.unknown_close, None);
    assert!(reference.sessions.contains(&106), "late registration lost");
    // Four CS streams (102, 103, 105×2 leads) resolve through the
    // cache once each — sessions keep the shared `Arc` afterwards —
    // and 102/103 share identical geometry, so exactly three matrices
    // are built and one lookup hits.
    assert_eq!(reference.cache.misses, 3, "cache sharing not exercised");
    assert_eq!(reference.cache.entries, 3);
    assert_eq!(reference.cache.hits, 1);

    // 17 workers is more than there are sessions: empty shards and
    // uneven chunks on the scoped threads.
    for workers in [1usize, 2, 3, 5, 17] {
        let sharded = run(Some(workers), &input);
        assert_eq!(
            sharded, reference,
            "sharded run with {workers} workers diverged from sequential"
        );
    }
}

#[test]
fn sharded_lossy_replays_are_bit_identical() {
    // Two independent end-to-end replays — fresh channel, fresh
    // shards, fresh cache — must agree bit for bit, reconstructed
    // samples included (`Outcome` compares them as raw f64 bits).
    for workers in [1usize, 2, 3, 5, 17] {
        let a = run(Some(workers), &build_input());
        let b = run(Some(workers), &build_input());
        assert_eq!(a, b, "{workers} workers");
    }
}
