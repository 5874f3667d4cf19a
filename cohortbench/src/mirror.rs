//! The traced mirror of the cohort runner.
//!
//! `CohortRunner` keeps its per-node loop private, so the traced run
//! drives the same plans through the same public calls, in the same
//! order as `run_plans_inner`/`run_batch` in `src/cohort.rs`, with a
//! span around every call into a layer. The runner's private
//! parameters (pump cadence, retransmit timeouts, channel seeding,
//! gateway settings) are repeated here; [`MirrorTotals`] lets the
//! caller prove they still agree by comparing with the untraced
//! report. Scoring-only bookkeeping (alert times, ground truth,
//! battery pricing) is left out: it calls into no layer.

use crate::trace::{Layer, Tracer};
use wbsn::archive::{ArchiveBlock, ArchiveWriter, RunMeta};
use wbsn::cohort::{CohortRunConfig, LinkRollup, PrdStats, SessionPlan};
use wbsn::core::governor::{GovernedMonitor, GovernorConfig};
use wbsn::core::level::{OperatingMode, ProcessingLevel};
use wbsn::core::link::{DownlinkFrame, SessionHandshake, Uplink};
use wbsn::core::monitor::MonitorBuilder;
use wbsn::core::retransmit::{
    DirectiveHandler, RetransmitBuffer, RetransmitConfig, RetransmitEvent,
};
use wbsn::core::{Result, WbsnError};
use wbsn::ecg_synth::scenario::{Adversity, Script};
use wbsn::gateway::channel::{ChannelConfig, DuplexChannel};
use wbsn::gateway::controller::ControllerConfig;
use wbsn::gateway::gateway::{GatewayConfig, GatewayEvent, GatewayStats, SessionReport};
use wbsn::gateway::{MatrixCacheStats, ShardedGateway};
use wbsn::platform::NodeModel;

/// Seconds of signal per link pump (`PUMP_S` in `src/cohort.rs`).
const PUMP_S: usize = 10;

/// The totals the traced run must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MirrorTotals {
    /// Link rollup, from `session_report` plus the event stream.
    pub link: LinkRollup,
    /// `GatewayStats::windows_skipped`.
    pub windows_skipped: u64,
    /// PRD over the reconstructed windows, folded as the runner does.
    pub prd: PrdStats,
    /// Node reboots enacted.
    pub reboots: u64,
}

/// Work units counted at the layer boundaries.
#[derive(Debug, Clone, Default)]
pub struct Work {
    /// Samples synthesized (all leads).
    pub synth_samples: u64,
    /// Frames pushed through the governed monitors.
    pub monitor_frames: u64,
    /// Payloads the monitors emitted.
    pub monitor_payloads: u64,
    /// Uplink packets framed.
    pub link_packets: u64,
    /// Uplink wire bytes framed (first transmissions).
    pub link_wire_bytes: u64,
    /// Application payload bytes framed.
    pub link_payload_bytes: u64,
    /// Packets the retransmit buffers resent.
    pub resent_packets: u64,
    /// Wire bytes the retransmit buffers resent.
    pub resent_bytes: u64,
    /// Messages the retransmit buffers abandoned.
    pub expired: u64,
    /// Packets offered to the channels, both directions.
    pub channel_packets: u64,
    /// Packets the channels dropped, both directions.
    pub channel_dropped: u64,
    /// Downlink frames the gateway emitted.
    pub downlink_frames: u64,
    /// The gateway's own counters at the end of the run.
    pub gateway: GatewayStats,
    /// The sensing-matrix cache counters at the end of the run.
    pub cache: MatrixCacheStats,
}

/// Runs `plans` as `CohortRunner::run_plans` (or, with `tap`,
/// `run_plans_recorded` minus the archive writes) would, on a gateway
/// with `workers` decode workers, recording spans into `tr`.
///
/// # Errors
///
/// Any error a traced call returns.
pub fn run(
    plans: &[SessionPlan],
    cfg: &CohortRunConfig,
    tap: bool,
    workers: usize,
    tr: &mut Tracer,
) -> Result<(MirrorTotals, Work)> {
    let gw_cfg = GatewayConfig {
        reorder_window: 3,
        recovery_window: 12,
        reconstruct_every: cfg.reconstruct_every,
        controller: Some(ControllerConfig::default()),
        tap,
        ..GatewayConfig::default()
    };
    let mut gw = tr.time(Layer::GatewayControl, || {
        ShardedGateway::new(gw_cfg, workers)
    })?;
    let mut acc = Acc::default();
    let mut base = 0usize;
    for batch in plans.chunks(cfg.batch_sessions) {
        run_batch(&mut gw, batch, base, cfg, tap, tr, &mut acc)?;
        base += batch.len();
    }
    let Acc {
        mut totals,
        mut work,
        prds,
    } = acc;
    work.gateway = tr.time(Layer::GatewayControl, || gw.stats())?;
    work.cache = gw.cache_stats();
    totals.windows_skipped = work.gateway.windows_skipped;
    totals.prd = prd_stats(&prds);
    Ok((totals, work))
}

/// Re-streams a recording's blocks through a fresh `ArchiveWriter`,
/// one span per writer call: the archive-write work of a recorded run,
/// which the mirror itself does not do. Returns the bytes and the
/// number of blocks written.
///
/// # Errors
///
/// Writer errors, or a recording without a trailer.
pub fn rewrite(meta: &RunMeta, blocks: &[ArchiveBlock], tr: &mut Tracer) -> Result<(Vec<u8>, u64)> {
    let mut w = tr.time(Layer::ArchiveWrite, || ArchiveWriter::new(Vec::new(), meta))?;
    let mut trailer = None;
    for block in blocks {
        match block {
            ArchiveBlock::SessionMeta { session, meta } => {
                tr.time(Layer::ArchiveWrite, || w.session_meta(*session, meta))?
            }
            ArchiveBlock::Epoch(rec) => tr.time(Layer::ArchiveWrite, || w.epoch(rec))?,
            ArchiveBlock::SessionEnd { session, end } => {
                tr.time(Layer::ArchiveWrite, || w.session_end(*session, end))?
            }
            ArchiveBlock::Trailer(t) => trailer = Some(*t),
        }
    }
    let Some(trailer) = trailer else {
        return Err(WbsnError::Malformed {
            what: "cohort recording",
            detail: "no trailer".into(),
        });
    };
    let written = w.blocks_written();
    let bytes = tr.time(Layer::ArchiveWrite, || w.finish(&trailer))?;
    Ok((bytes, written))
}

/// What the mirror accumulates across batches; `prds` in session
/// order, as the runner folds them (the mean depends on the order).
#[derive(Default)]
struct Acc {
    totals: MirrorTotals,
    work: Work,
    prds: Vec<f64>,
}

fn run_batch(
    gw: &mut ShardedGateway,
    batch: &[SessionPlan],
    first_index: usize,
    cfg: &CohortRunConfig,
    tap: bool,
    tr: &mut Tracer,
    acc: &mut Acc,
) -> Result<()> {
    let work = &mut acc.work;
    let mut nodes = Vec::with_capacity(batch.len());
    for (k, plan) in batch.iter().enumerate() {
        nodes.push(Node::new((first_index + k + 1) as u64, plan, cfg, tr)?);
    }
    let hours = batch.iter().map(|p| p.scripts.len()).max().unwrap_or(0);
    for hour in 0..hours {
        for (node, plan) in nodes.iter_mut().zip(batch) {
            if let Some(script) = plan.scripts.get(hour) {
                node.load_segment(script, gw, tr, work)?;
            }
        }
        let pumps = nodes
            .iter()
            .map(|n| n.seg_frames.div_ceil(n.pump_frames()))
            .max()
            .unwrap_or(0);
        for pump in 0..pumps {
            let mut up = Vec::new();
            for node in &mut nodes {
                node.pump_uplink(pump, gw, &mut up, tr, work)?;
            }
            let results = tr.time(Layer::GatewayIngest, || gw.ingest_batch(&up))?;
            for events in results.into_iter().flatten() {
                collect_events(&events, &mut nodes);
            }
            let downlink = tr.time(Layer::GatewayDownlink, || gw.pump_downlink())?;
            for (session, frames) in downlink {
                work.downlink_frames += frames.len() as u64;
                let Some(node) = nodes.iter_mut().find(|n| n.session == session) else {
                    continue;
                };
                node.take_downlink(&frames, tr, work)?;
            }
            if tap {
                tr.time(Layer::GatewayControl, || gw.drain_tap())?;
            }
        }
        for node in &mut nodes {
            node.seg = Vec::new();
            node.seg_frames = 0;
        }
    }

    let mut up = Vec::new();
    for node in &mut nodes {
        node.drain(&mut up, tr, work)?;
    }
    let results = tr.time(Layer::GatewayIngest, || gw.ingest_batch(&up))?;
    for events in results.into_iter().flatten() {
        collect_events(&events, &mut nodes);
    }
    for node in &mut nodes {
        if let Some(report) = tr.time(Layer::GatewayControl, || gw.session_report(node.session))? {
            node.report = Some(report);
        }
        if let Some(events) = tr.time(Layer::GatewayControl, || gw.close_session(node.session))? {
            for ev in &events {
                node.observe(ev);
            }
        }
    }
    if tap {
        tr.time(Layer::GatewayControl, || gw.drain_tap())?;
    }
    for node in nodes {
        node.fold_into(acc);
    }
    Ok(())
}

/// Routes the PRD and link events of one ingest result to their nodes.
fn collect_events(events: &[GatewayEvent], nodes: &mut [Node]) {
    for ev in events {
        let session = match *ev {
            GatewayEvent::WindowReconstructed { session, .. }
            | GatewayEvent::MessageLost { session, .. }
            | GatewayEvent::MessageRecovered { session, .. } => session,
            _ => continue,
        };
        if let Some(n) = nodes.iter_mut().find(|n| n.session == session) {
            n.observe(ev);
        }
    }
}

/// PRD summary exactly as `src/cohort.rs` folds it: arithmetic mean in
/// collection order, nearest-rank 95th percentile.
fn prd_stats(prds: &[f64]) -> PrdStats {
    if prds.is_empty() {
        return PrdStats::default();
    }
    let mut sorted = prds.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * 0.95).round() as usize;
    PrdStats {
        windows: prds.len() as u64,
        mean_percent: prds.iter().sum::<f64>() / prds.len() as f64,
        p95_percent: sorted[idx.min(sorted.len() - 1)],
    }
}

/// Uplink counters banked from a node's dead incarnations.
#[derive(Debug, Default)]
struct Banked {
    packets: u64,
    wire_bytes: u64,
    payload_bytes: u64,
}

/// One live node, as `NodeState` in `src/cohort.rs`.
struct Node {
    session: u64,
    cs: bool,
    builder: MonitorBuilder,
    gov_cfg: GovernorConfig,
    gm: GovernedMonitor,
    uplink: Uplink,
    banked: Banked,
    buf: RetransmitBuffer,
    directives: DirectiveHandler,
    duplex: DuplexChannel,
    pending_tx: Vec<Vec<u8>>,
    rt_events: Vec<RetransmitEvent>,
    reboots: Vec<f64>,
    next_reboot: usize,
    regimes: Vec<(f64, f64, f64)>,
    seg: Vec<i32>,
    seg_frames: usize,
    seg_base_frames: u64,
    abs_frames: u64,
    window_base_abs: u64,
    fs: u32,
    prds: Vec<f64>,
    report: Option<SessionReport>,
    lost_events: u64,
    recovered_events: u64,
    reboot_count: u64,
}

impl Node {
    fn new(
        session: u64,
        plan: &SessionPlan,
        cfg: &CohortRunConfig,
        tr: &mut Tracer,
    ) -> Result<Node> {
        let p = &plan.profile;
        let mut builder = MonitorBuilder::new().n_leads(p.n_leads);
        let gov_cfg = if p.cs_uplink {
            builder = builder
                .cs_window(cfg.cs_window)
                .cs_compression_ratio(cfg.cs_cr_percent);
            GovernorConfig::pinned(OperatingMode::new(ProcessingLevel::CompressedSingleLead, 1))
        } else {
            GovernorConfig::for_leads(p.n_leads)
        };
        let gm = GovernedMonitor::new(builder.clone(), gov_cfg.clone(), NodeModel::default())?;
        let fs = gm.monitor().config().fs_hz;
        let mut uplink = Uplink::new();
        let mut pending_tx = Vec::new();
        let hs = SessionHandshake::for_config(session, gm.monitor().config());
        tr.time(Layer::CoreLink, || {
            uplink.open_session(&hs, &mut pending_tx)
        })?;
        let mut rt_events = Vec::new();
        let mut buf = RetransmitBuffer::new(RetransmitConfig {
            ack_timeout_epochs: 6,
            max_backoff_epochs: 12,
            ..RetransmitConfig::default()
        })?;
        tr.time(Layer::CoreRetransmit, || {
            buf.record(0, &pending_tx, &mut rt_events)
        });

        let mut reboots = Vec::new();
        let mut regimes = Vec::new();
        let mut base_s = 0.0;
        for script in &plan.scripts {
            for ta in script.runtime_adversities() {
                match ta.adversity {
                    Adversity::NodeReboot => reboots.push(base_s + ta.start_s),
                    Adversity::ChannelRegime {
                        drop_rate,
                        corrupt_rate,
                    } => regimes.push((
                        base_s + ta.start_s,
                        base_s + ta.start_s + ta.duration_s,
                        (drop_rate + corrupt_rate).clamp(0.0, 0.9),
                    )),
                    _ => {}
                }
            }
            base_s += script.duration_s();
        }
        reboots.sort_by(f64::total_cmp);
        regimes.sort_by(|a, b| a.0.total_cmp(&b.0));

        Ok(Node {
            session,
            cs: p.cs_uplink,
            builder,
            gov_cfg,
            gm,
            uplink,
            banked: Banked::default(),
            buf,
            directives: DirectiveHandler::new(),
            duplex: DuplexChannel::symmetric(ChannelConfig {
                seed: p
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0x4C49_4E4B),
                ..ChannelConfig::ideal()
            })?,
            pending_tx,
            rt_events,
            reboots,
            next_reboot: 0,
            regimes,
            seg: Vec::new(),
            seg_frames: 0,
            seg_base_frames: 0,
            abs_frames: 0,
            window_base_abs: 0,
            fs,
            prds: Vec::new(),
            report: None,
            lost_events: 0,
            recovered_events: 0,
            reboot_count: 0,
        })
    }

    fn pump_frames(&self) -> usize {
        self.fs as usize * PUMP_S
    }

    /// Accumulates the PRD and link figures of one of the session's
    /// gateway events.
    fn observe(&mut self, ev: &GatewayEvent) {
        match *ev {
            GatewayEvent::WindowReconstructed {
                prd_percent: Some(prd),
                ..
            } => self.prds.push(prd),
            GatewayEvent::MessageLost { count, .. } => self.lost_events += u64::from(count),
            GatewayEvent::MessageRecovered { .. } => self.recovered_events += 1,
            _ => {}
        }
    }

    fn load_segment(
        &mut self,
        script: &Script,
        gw: &mut ShardedGateway,
        tr: &mut Tracer,
        work: &mut Work,
    ) -> Result<()> {
        let rec = tr.time(Layer::EcgSynth, || script.record());
        self.seg = tr.time(Layer::EcgSynth, || rec.interleaved_frames());
        work.synth_samples += self.seg.len() as u64;
        self.seg_frames = rec.n_samples();
        self.seg_base_frames = self.abs_frames;
        if self.cs && self.seg_base_frames >= self.window_base_abs {
            let reference: Vec<f64> = rec.lead(0).iter().map(|&v| f64::from(v)).collect();
            let offset = self.seg_base_frames - self.window_base_abs;
            tr.time(Layer::GatewayControl, || {
                gw.attach_reference_at(self.session, 0, offset, reference)
            })?;
        }
        Ok(())
    }

    fn pump_uplink(
        &mut self,
        pump: usize,
        gw: &mut ShardedGateway,
        up: &mut Vec<Vec<u8>>,
        tr: &mut Tracer,
        work: &mut Work,
    ) -> Result<()> {
        let lo = pump * self.pump_frames();
        if lo >= self.seg_frames {
            return Ok(());
        }
        let hi = (lo + self.pump_frames()).min(self.seg_frames);
        let t0 = (self.seg_base_frames + lo as u64) as f64 / f64::from(self.fs);
        let t1 = (self.seg_base_frames + hi as u64) as f64 / f64::from(self.fs);

        while self.next_reboot < self.reboots.len() && self.reboots[self.next_reboot] <= t0 {
            self.reboot(gw, tr)?;
            self.next_reboot += 1;
        }

        let mut drop = 0.0f64;
        for &(s, e, d) in &self.regimes {
            if s < t1 && t0 < e {
                drop = drop.max(d);
            }
        }
        self.duplex.up().set_drop_rate(drop)?;
        self.duplex.down().set_drop_rate(drop)?;

        let n_leads = self.gm.monitor().config().n_leads;
        let block = &self.seg[lo * n_leads..hi * n_leads];
        let payloads = tr.time(Layer::CoreMonitor, || self.gm.push_block(block, hi - lo))?;
        work.monitor_frames += (hi - lo) as u64;
        work.monitor_payloads += payloads.len() as u64;
        self.abs_frames += (hi - lo) as u64;

        let mut tx = std::mem::take(&mut self.pending_tx);
        for payload in &payloads {
            let mut pk = Vec::new();
            let seq = tr.time(Layer::CoreLink, || {
                self.uplink.frame_one(self.session, payload, &mut pk)
            })?;
            tr.time(Layer::CoreRetransmit, || {
                self.buf.record(seq, &pk, &mut self.rt_events)
            });
            tx.extend(pk);
        }
        tr.time(Layer::CoreRetransmit, || {
            self.buf.tick(&mut tx, &mut self.rt_events)
        });
        let delivered = tr.time(Layer::GatewayChannel, || self.duplex.up().send_all(tx));
        up.extend(delivered);
        Ok(())
    }

    fn take_downlink(
        &mut self,
        frames: &[Vec<u8>],
        tr: &mut Tracer,
        work: &mut Work,
    ) -> Result<()> {
        for wire in frames {
            let delivered = tr.time(Layer::GatewayChannel, || {
                self.duplex.down().send(wire.clone())
            });
            for bytes in delivered {
                let Ok(frame) = tr.time(Layer::CoreLink, || DownlinkFrame::from_wire(&bytes))
                else {
                    continue;
                };
                if tr.time(Layer::CoreRetransmit, || {
                    self.buf
                        .on_frame(&frame, &mut self.pending_tx, &mut self.rt_events)
                }) {
                    continue;
                }
                let DownlinkFrame::Directive(df) = frame else {
                    continue;
                };
                let Some(action) = tr.time(Layer::CoreRetransmit, || self.directives.accept(&df))
                else {
                    continue;
                };
                if !self.cs {
                    continue;
                }
                let flushed = tr.time(Layer::CoreMonitor, || self.gm.apply_directive(action))?;
                work.monitor_payloads += flushed.len() as u64;
                for payload in &flushed {
                    let mut pk = Vec::new();
                    let seq = tr.time(Layer::CoreLink, || {
                        self.uplink.frame_one(self.session, payload, &mut pk)
                    })?;
                    tr.time(Layer::CoreRetransmit, || {
                        self.buf.record(seq, &pk, &mut self.rt_events)
                    });
                    self.pending_tx.extend(pk);
                }
                let hs = SessionHandshake::for_config(self.session, self.gm.monitor().config());
                let mut pk = Vec::new();
                let seq = tr.time(Layer::CoreLink, || {
                    self.uplink.announce_handshake(&hs, &mut pk)
                })?;
                tr.time(Layer::CoreRetransmit, || {
                    self.buf.record(seq, &pk, &mut self.rt_events)
                });
                self.pending_tx.extend(pk);
            }
        }
        Ok(())
    }

    fn reboot(&mut self, gw: &mut ShardedGateway, tr: &mut Tracer) -> Result<()> {
        self.gm = GovernedMonitor::new(
            self.builder.clone(),
            self.gov_cfg.clone(),
            NodeModel::default(),
        )?;
        self.banked.packets += self.uplink.packets();
        self.banked.wire_bytes += self.uplink.wire_bytes();
        self.banked.payload_bytes += self.uplink.payload_bytes();
        self.uplink = Uplink::new();
        self.buf.reset();
        self.directives.reset();
        self.pending_tx.clear();
        let hs = SessionHandshake::for_config(self.session, self.gm.monitor().config());
        tr.time(Layer::GatewayControl, || gw.register(hs))?;
        tr.time(Layer::CoreLink, || {
            self.uplink.open_session(&hs, &mut self.pending_tx)
        })?;
        tr.time(Layer::CoreRetransmit, || {
            self.buf.record(0, &self.pending_tx, &mut self.rt_events)
        });
        if self.cs {
            tr.time(Layer::GatewayControl, || {
                gw.attach_reference_at(self.session, 0, 0, Vec::new())
            })?;
        }
        self.window_base_abs = self.abs_frames;
        self.reboot_count += 1;
        Ok(())
    }

    fn drain(&mut self, up: &mut Vec<Vec<u8>>, tr: &mut Tracer, work: &mut Work) -> Result<()> {
        self.duplex.up().set_drop_rate(0.0)?;
        self.duplex.down().set_drop_rate(0.0)?;
        let payloads = tr.time(Layer::CoreMonitor, || self.gm.finish())?;
        work.monitor_payloads += payloads.len() as u64;
        let mut tx = std::mem::take(&mut self.pending_tx);
        for payload in &payloads {
            let mut pk = Vec::new();
            let seq = tr.time(Layer::CoreLink, || {
                self.uplink.frame_one(self.session, payload, &mut pk)
            })?;
            tr.time(Layer::CoreRetransmit, || {
                self.buf.record(seq, &pk, &mut self.rt_events)
            });
            tx.extend(pk);
        }
        let delivered = tr.time(Layer::GatewayChannel, || self.duplex.up().send_all(tx));
        up.extend(delivered);
        Ok(())
    }

    /// Adds the finished session to the run totals.
    fn fold_into(self, acc: &mut Acc) {
        let link = &mut acc.totals.link;
        if let Some(r) = &self.report {
            link.messages += r.messages;
            link.lost += r.lost;
            link.recovered += r.recovered;
            link.acks_sent += r.acks_sent;
            link.nacks_sent += r.nacks_sent;
            link.retransmits_requested += r.retransmits_requested;
            link.directives_issued += r.directives_issued;
        }
        link.lost_events += self.lost_events;
        link.recovered_events += self.recovered_events;
        for ev in &self.rt_events {
            match ev {
                RetransmitEvent::Expired { .. } => link.expired += 1,
                RetransmitEvent::Unavailable { .. } => link.unavailable += 1,
            }
        }
        acc.prds.extend_from_slice(&self.prds);
        acc.totals.reboots += self.reboot_count;

        let work = &mut acc.work;
        let rt = self.buf.stats();
        work.link_packets += self.banked.packets + self.uplink.packets();
        work.link_wire_bytes += self.banked.wire_bytes + self.uplink.wire_bytes();
        work.link_payload_bytes += self.banked.payload_bytes + self.uplink.payload_bytes();
        work.resent_packets += rt.resent_packets;
        work.resent_bytes += rt.resent_bytes;
        work.expired += rt.expired;
        for stats in [self.duplex.up_stats(), self.duplex.down_stats()] {
            work.channel_packets += stats.offered;
            work.channel_dropped += stats.dropped;
        }
    }
}
