//! Cohort engine: drives whole populations of scripted patients
//! through the full system — governed node pipeline → uplink framing →
//! lossy duplex channel → sharded gateway — and folds the result into
//! one typed [`CohortReport`].
//!
//! The sessions come from
//! [`CohortGenerator`]: each
//! patient is a seeded [`PatientProfile`] expanded into one scenario
//! [`Script`] per *modeled hour* (duty-cycled — every hour is
//! represented by [`CohortConfig::segment_s`] seconds of synthesized
//! signal, which is what makes 200 sessions × multi-day modeled time
//! tractable). Scripts carry both signal adversities (motion bursts,
//! electrode dropout — baked into the record) and runtime adversities,
//! which this runner enacts live:
//!
//! * [`Adversity::NodeReboot`] — the node loses its monitor, framer,
//!   retransmit buffer and directive state mid-session; the gateway is
//!   re-registered out of band and must treat stragglers from the dead
//!   incarnation as stale.
//! * [`Adversity::ChannelRegime`] — a timed degraded-link interval;
//!   the drop and corruption probabilities are folded into one drop
//!   rate on both directions of the node's
//!   [`DuplexChannel`] (a
//!   corrupted packet fails the CRC and is indistinguishable from a
//!   loss end to end).
//!
//! Every session is scored by one fold. Each observation — a tapped
//! gateway item (PRD-scored window, loss, recovery, handshake, …) or a
//! runner-side one (alert, reboot, retransmit failure, ground-truth
//! span, PRD reference) — goes through `NodeState::log`, which folds
//! it into the session's `SessionOutcome` with `SessionOutcome::observe`
//! and, when the run records, keeps it for the archive. A session's
//! closing summary goes through `SessionOutcome::end`. Archive replay
//! ([`crate::replay::CohortReplayer::report`]) calls the same two
//! functions on the archived items, so a recorded report and its
//! replay cannot diverge by construction.
//!
//! Everything is deterministic: the entire run — gateway events,
//! downlink bytes, retransmit accounting, every report number — is a
//! pure function of the plans, and replays bit-identically at any
//! worker count (`tests/cohort_determinism.rs` pins 1/2/3/4/5/17).
//!
//! [`CohortRunConfig::workers`] sets both the gateway's decode workers
//! and the node-side threads. Each modeled hour, the batch's records
//! are rendered on up to `workers` scoped threads (the calling thread
//! among them, each taking the next node as soon as it finishes one);
//! each pump, the [`Node`]s (governed monitor, framer, retransmit
//! buffer) run the same way, every node writing its own outbound
//! packets.
//! Everything that talks to the gateway stays on the calling thread in
//! session order: truth harvest, PRD reference attach, reboots
//! (re-registration), the concatenated uplink batch, downlink pumping
//! and archive writes. So the gateway sees the same calls with the
//! same bytes at any worker count, and every thread is joined before a
//! run returns.
//!
//! Memory stays bounded by construction: sessions run in batches of
//! [`CohortRunConfig::batch_sessions`], each node holds only its
//! current hour's interleaved samples, at most `workers` records are
//! in flight at once (each rendering thread reduces its record to
//! those samples and the rhythm spans before rendering the next),
//! per-segment PRD references supersede each other on the gateway
//! ([`attach_reference_at`](wbsn_gateway::ShardedGateway::attach_reference_at)
//! replaces the lead's previous reference), and finished sessions are
//! [`close_session`](wbsn_gateway::ShardedGateway::close_session)ed
//! before the next batch starts.

use std::io::Write;
use wbsn_archive::{
    ArchiveWriter, EpochItem, EpochRecord, RunMeta, RunTrailer, SessionEnd, SessionMeta,
};
use wbsn_core::governor::GovernorConfig;
use wbsn_core::level::{OperatingMode, ProcessingLevel};
use wbsn_core::monitor::MonitorBuilder;
use wbsn_core::retransmit::RetransmitEvent;
use wbsn_core::workers::map_on_workers;
use wbsn_core::{Node, Result};
use wbsn_cs::solver::FistaConfig;
use wbsn_ecg_synth::cohort::{CohortConfig, CohortGenerator, PatientProfile, RhythmBurden};
use wbsn_ecg_synth::scenario::{Adversity, Script};
use wbsn_ecg_synth::{RhythmLabel, RhythmSpan};
use wbsn_gateway::channel::{ChannelConfig, DuplexChannel};
use wbsn_gateway::controller::ControllerConfig;
use wbsn_gateway::gateway::{GatewayConfig, GatewayEvent, SessionReport};
use wbsn_gateway::{ShardedGateway, TapItem};
use wbsn_platform::battery::Battery;
use wbsn_sigproc::stats::percentile95_sorted;

/// Link-pump cadence: the runner frames, sends and pumps the downlink
/// once per this many seconds of signal. The governed monitor handles
/// its own epoch boundaries internally, so this cadence never changes
/// node-side numbers — only how often the link machinery turns over.
const PUMP_S: u64 = 10;

/// Maximum gap (seconds) between ground-truth AF spans merged into one
/// scorable episode (spans are per-hour; adjacent hours of persistent
/// AF fuse across the segment boundary).
const EPISODE_MERGE_GAP_S: f64 = 2.0;

/// One planned patient session: the sampled profile plus its per-hour
/// scenario scripts, in modeled-time order.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// The sampled patient.
    pub profile: PatientProfile,
    /// One script per modeled hour.
    pub scripts: Vec<Script>,
}

/// Configuration of a cohort run: the cohort itself plus the runner's
/// link/gateway parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortRunConfig {
    /// The cohort to generate (see [`CohortConfig`]).
    pub cohort: CohortConfig,
    /// Parallelism of a run (≥ 1): the gateway's decode workers and
    /// the threads that render records and run the node side (monitor,
    /// framing, retransmit, channel). The report and the recorded
    /// archive bytes are invariant in this.
    pub workers: usize,
    /// Sessions run concurrently per batch (bounds peak memory).
    pub batch_sessions: usize,
    /// Gateway PRD probing period: solve every N-th CS window
    /// ([`GatewayConfig::reconstruct_every`]).
    pub reconstruct_every: u32,
    /// CS window length for compressed-uplink patients.
    pub cs_window: usize,
    /// Starting CS compression ratio (percent).
    pub cs_cr_percent: f64,
    /// Ground-truth AF spans shorter than this are not scorable
    /// episodes (seconds).
    pub min_episode_s: f64,
    /// An alert up to this long after an episode ends still counts as
    /// detecting it (seconds) — covers payload/link latency.
    pub alert_grace_s: f64,
    /// The gateway's FISTA settings ([`GatewayConfig::default_solver`]
    /// by default); a recording stores them in its header.
    pub solver: FistaConfig,
}

impl Default for CohortRunConfig {
    fn default() -> Self {
        CohortRunConfig {
            cohort: CohortConfig::full(),
            workers: 2,
            batch_sessions: 16,
            reconstruct_every: 6,
            cs_window: 512,
            cs_cr_percent: 50.0,
            min_episode_s: 20.0,
            alert_grace_s: 45.0,
            solver: GatewayConfig::default_solver(),
        }
    }
}

impl CohortRunConfig {
    /// The CI smoke configuration: [`CohortConfig::smoke`] (24 sessions
    /// × 2 modeled hours) with the default runner parameters.
    pub fn smoke() -> Self {
        CohortRunConfig {
            cohort: CohortConfig::smoke(),
            ..CohortRunConfig::default()
        }
    }
}

/// Episode-detection metrics of one cohort (or stratum).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetectionStats {
    /// Scorable ground-truth AF episodes.
    pub episodes: u64,
    /// Episodes with at least one gateway alert inside
    /// `[onset, offset + grace]`.
    pub detected: u64,
    /// Mean alert latency from episode onset, seconds (0 when none).
    pub latency_mean_s: f64,
    /// 95th-percentile alert latency, seconds (0 when none).
    pub latency_p95_s: f64,
    /// Alerts raised outside every AF episode and flutter span.
    pub false_alerts: u64,
    /// False alerts per *synthesized* patient-day (the duty-cycled
    /// signal actually driven through the system — see
    /// [`CohortReport::modeled_days`]).
    pub false_alerts_per_day: f64,
}

/// CS reconstruction-quality metrics of one cohort.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PrdStats {
    /// Windows reconstructed *with* a covering PRD reference.
    pub windows: u64,
    /// Mean PRD, percent (0 when no windows).
    pub mean_percent: f64,
    /// 95th-percentile PRD, percent (0 when no windows).
    pub p95_percent: f64,
}

/// Link-health rollup across all sessions. `messages` through
/// `directives_issued` come from the per-session gateway reports,
/// which count every incarnation of a rebooted session. `lost_events`
/// and `recovered_events` re-derive the loss truth from each session's
/// observation log (the tapped `Lost`/`Recovered` items), so a
/// silently dropped observation shows up as a mismatch.
///
/// `recovered_events == recovered` always holds. `lost_events` can
/// exceed `lost`: the runner reads a session's report just before
/// closing it, and the close flushes the reassembler, which can still
/// declare a trailing gap lost. That loss reaches the log but not the
/// report. In the full cohort (`COHORT_report.json`) one message is
/// lost that way, so `lost_events` is 924 against `lost` 923; the smoke
/// and adversity suites pin both pairs equal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkRollup {
    /// Messages released in order across all sessions.
    pub messages: u64,
    /// Messages declared lost (per-session reports).
    pub lost: u64,
    /// Lost messages recovered by retransmission (per-session reports).
    pub recovered: u64,
    /// Lost messages summed from the logged [`TapItem::Lost`] runs,
    /// the closing flush included.
    pub lost_events: u64,
    /// [`TapItem::Recovered`] items logged.
    pub recovered_events: u64,
    /// Cumulative-ACK downlink frames sent.
    pub acks_sent: u64,
    /// Selective-NACK downlink frames sent.
    pub nacks_sent: u64,
    /// Individual retransmissions requested.
    pub retransmits_requested: u64,
    /// Adaptive-CR directives issued by the gateway controller.
    pub directives_issued: u64,
    /// Node-side messages abandoned unacknowledged
    /// ([`RetransmitEvent::Expired`]).
    pub expired: u64,
    /// NACKs for messages the node no longer buffers
    /// ([`RetransmitEvent::Unavailable`]).
    pub unavailable: u64,
}

/// Per-stratum (rhythm-burden) slice of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumReport {
    /// Stable stratum label ([`RhythmBurden::label`]).
    pub burden: &'static str,
    /// Sessions in the stratum.
    pub sessions: u64,
    /// Detection metrics over the stratum's sessions.
    pub detection: DetectionStats,
    /// Mean modeled battery lifetime, days.
    pub battery_days_mean: f64,
}

/// The one artifact of a cohort run. Deliberately carries **no**
/// worker count, wall-clock, or host detail: two runs of the same
/// plans must compare equal ([`PartialEq`]) at any parallelism.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortReport {
    /// Sessions run.
    pub sessions: u64,
    /// Modeled hours per session (longest plan).
    pub modeled_hours: u32,
    /// Synthesized patient-days actually driven through the system.
    /// Duty-cycled: each modeled hour is represented by
    /// [`CohortConfig::segment_s`] seconds of signal, so this is the
    /// rate denominator, not `sessions × modeled_hours / 24`.
    pub modeled_days: f64,
    /// Node reboots enacted mid-session.
    pub reboots: u64,
    /// Cohort-wide detection metrics.
    pub detection: DetectionStats,
    /// Cohort-wide CS reconstruction quality.
    pub prd: PrdStats,
    /// CS windows the gateway skipped under periodic probing
    /// ([`GatewayConfig::reconstruct_every`]).
    pub windows_skipped: u64,
    /// Link-health rollup (with event-derived cross-checks).
    pub link: LinkRollup,
    /// Mean modeled battery lifetime across sessions, days.
    pub battery_days_mean: f64,
    /// Worst modeled battery lifetime, days.
    pub battery_days_min: f64,
    /// Populated strata in [`RhythmBurden::ALL`] order.
    pub strata: Vec<StratumReport>,
}

impl CohortReport {
    /// Serializes the report as deterministic JSON (stable key order,
    /// shortest-roundtrip float formatting) — the checked-in artifact
    /// format of `examples/cohort.rs`.
    pub fn to_json(&self) -> String {
        fn det(d: &DetectionStats) -> String {
            format!(
                "{{\"episodes\":{},\"detected\":{},\"latency_mean_s\":{},\
                 \"latency_p95_s\":{},\"false_alerts\":{},\"false_alerts_per_day\":{}}}",
                d.episodes,
                d.detected,
                d.latency_mean_s,
                d.latency_p95_s,
                d.false_alerts,
                d.false_alerts_per_day
            )
        }
        let strata: Vec<String> = self
            .strata
            .iter()
            .map(|s| {
                format!(
                    "{{\"burden\":\"{}\",\"sessions\":{},\"detection\":{},\
                     \"battery_days_mean\":{}}}",
                    s.burden,
                    s.sessions,
                    det(&s.detection),
                    s.battery_days_mean
                )
            })
            .collect();
        format!(
            "{{\"sessions\":{},\"modeled_hours\":{},\"modeled_days\":{},\"reboots\":{},\
             \"detection\":{},\
             \"prd\":{{\"windows\":{},\"mean_percent\":{},\"p95_percent\":{}}},\
             \"windows_skipped\":{},\
             \"link\":{{\"messages\":{},\"lost\":{},\"recovered\":{},\"lost_events\":{},\
             \"recovered_events\":{},\"acks_sent\":{},\"nacks_sent\":{},\
             \"retransmits_requested\":{},\"directives_issued\":{},\"expired\":{},\
             \"unavailable\":{}}},\
             \"battery_days_mean\":{},\"battery_days_min\":{},\"strata\":[{}]}}",
            self.sessions,
            self.modeled_hours,
            self.modeled_days,
            self.reboots,
            det(&self.detection),
            self.prd.windows,
            self.prd.mean_percent,
            self.prd.p95_percent,
            self.windows_skipped,
            self.link.messages,
            self.link.lost,
            self.link.recovered,
            self.link.lost_events,
            self.link.recovered_events,
            self.link.acks_sent,
            self.link.nacks_sent,
            self.link.retransmits_requested,
            self.link.directives_issued,
            self.link.expired,
            self.link.unavailable,
            self.battery_days_mean,
            self.battery_days_min,
            strata.join(",")
        )
    }
}

/// Drives a cohort end to end and produces the [`CohortReport`].
#[derive(Debug, Clone)]
pub struct CohortRunner {
    cfg: CohortRunConfig,
}

impl CohortRunner {
    /// New runner; out-of-range fields are clamped to their documented
    /// minimums rather than rejected.
    pub fn new(mut cfg: CohortRunConfig) -> Self {
        cfg.workers = cfg.workers.max(1);
        cfg.batch_sessions = cfg.batch_sessions.max(1);
        cfg.reconstruct_every = cfg.reconstruct_every.max(1);
        cfg.cs_window = cfg.cs_window.max(64);
        cfg.cs_cr_percent = cfg.cs_cr_percent.clamp(30.0, 60.0);
        cfg.min_episode_s = cfg.min_episode_s.max(1.0);
        cfg.alert_grace_s = cfg.alert_grace_s.max(1.0);
        CohortRunner { cfg }
    }

    /// The (clamped) configuration.
    pub fn config(&self) -> &CohortRunConfig {
        &self.cfg
    }

    /// Expands the configured cohort into session plans (profiles plus
    /// per-hour scripts). Pure in the cohort seed.
    pub fn plans(&self) -> Vec<SessionPlan> {
        let generator = CohortGenerator::new(self.cfg.cohort.clone());
        (0..generator.config().sessions)
            .map(|i| {
                let profile = generator.profile(i);
                let scripts = generator.session_scripts(&profile);
                SessionPlan { profile, scripts }
            })
            .collect()
    }

    /// Runs the configured cohort.
    ///
    /// # Errors
    ///
    /// Monitor/gateway construction or processing failures — all
    /// configuration-shaped; a valid config never errors mid-run.
    pub fn run(&self) -> Result<CohortReport> {
        self.run_plans(&self.plans())
    }

    /// Runs an explicit set of plans (the acceptance path and the
    /// adversity regression tests share this entry).
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_plans(&self, plans: &[SessionPlan]) -> Result<CohortReport> {
        self.run_plans_inner(plans, None::<&mut ArchiveWriter<std::io::Sink>>)
    }

    /// Runs the configured cohort while recording everything the
    /// gateway and the runner observe into `sink` as a `wbsn-archive`
    /// epoch-block stream. Returns the report and the sink; the
    /// recorded stream replays to a bit-identical [`CohortReport`]
    /// through [`crate::replay::CohortReplayer`], and the archive
    /// bytes are invariant in [`CohortRunConfig::workers`].
    ///
    /// # Errors
    ///
    /// As [`Self::run`], plus sink write failures.
    pub fn run_recorded<W: Write>(&self, sink: W) -> Result<(CohortReport, W)> {
        self.run_plans_recorded(&self.plans(), sink)
    }

    /// [`Self::run_recorded`] over an explicit set of plans.
    ///
    /// # Errors
    ///
    /// As [`Self::run_recorded`].
    pub fn run_plans_recorded<W: Write>(
        &self,
        plans: &[SessionPlan],
        sink: W,
    ) -> Result<(CohortReport, W)> {
        let mut writer = ArchiveWriter::new(sink, &self.run_meta())?;
        let report = self.run_plans_inner(plans, Some(&mut writer))?;
        let trailer = RunTrailer {
            sessions: report.sessions,
            modeled_hours: report.modeled_hours,
            windows_skipped: report.windows_skipped,
        };
        let sink = writer.finish(&trailer)?;
        Ok((report, sink))
    }

    /// The archive header metadata a recorded run writes: the scoring
    /// parameters and the exact gateway solver settings, everything
    /// replay needs without access to this configuration.
    pub fn run_meta(&self) -> RunMeta {
        RunMeta {
            alert_grace_s: self.cfg.alert_grace_s,
            min_episode_s: self.cfg.min_episode_s,
            reconstruct_every: self.cfg.reconstruct_every,
            solver: self.cfg.solver,
        }
    }

    /// The gateway configuration of every cohort run. The tap is always
    /// on: the runner scores each session by folding the tapped
    /// observations, recorded or not, and the tap changes no numeric
    /// behaviour of the gateway.
    fn gateway_config(&self) -> GatewayConfig {
        GatewayConfig {
            reorder_window: 3,
            recovery_window: 12,
            reconstruct_every: self.cfg.reconstruct_every,
            controller: Some(ControllerConfig::default()),
            tap: true,
            solver: self.cfg.solver,
        }
    }

    /// The shared body of [`Self::run_plans`] and
    /// [`Self::run_plans_recorded`].
    fn run_plans_inner<W: Write>(
        &self,
        plans: &[SessionPlan],
        mut rec: Option<&mut ArchiveWriter<W>>,
    ) -> Result<CohortReport> {
        let mut gw = ShardedGateway::new(self.gateway_config(), self.cfg.workers)?;
        let mut outcomes = Vec::with_capacity(plans.len());
        let mut base = 0usize;
        for batch in plans.chunks(self.cfg.batch_sessions) {
            self.run_batch(&mut gw, batch, base, &mut outcomes, rec.as_deref_mut())?;
            base += batch.len();
        }
        let stats = gw.stats()?;
        let modeled_hours = plans.iter().map(|p| p.scripts.len()).max().unwrap_or(0) as u32;
        Ok(aggregate(
            &outcomes,
            modeled_hours,
            stats.windows_skipped,
            self.cfg.alert_grace_s,
        ))
    }

    /// Runs one batch of sessions in lockstep against the shared
    /// gateway, closing each session afterwards. The gateway tap is
    /// drained every pump into each node's [`NodeState::log`]; when
    /// recording, each node's observations are flushed as one epoch
    /// block per modeled hour, so writer memory stays O(epoch) at any
    /// recording length.
    fn run_batch<W: Write>(
        &self,
        gw: &mut ShardedGateway,
        batch: &[SessionPlan],
        first_index: usize,
        outcomes: &mut Vec<SessionOutcome>,
        mut rec: Option<&mut ArchiveWriter<W>>,
    ) -> Result<()> {
        let mut nodes = Vec::with_capacity(batch.len());
        for (k, plan) in batch.iter().enumerate() {
            nodes.push(NodeState::new(
                (first_index + k + 1) as u64,
                plan,
                &self.cfg,
                rec.is_some(),
            )?);
        }
        if let Some(w) = rec.as_deref_mut() {
            for (node, plan) in nodes.iter().zip(batch) {
                w.session_meta(
                    node.session,
                    &SessionMeta {
                        cs: node.cs,
                        burden: plan.profile.burden.label().to_string(),
                    },
                )?;
            }
        }
        let hours = batch.iter().map(|p| p.scripts.len()).max().unwrap_or(0);

        for hour in 0..hours {
            // Render the hour's segment for every node that still has
            // one, then load them in session order.
            let mut scripts: Vec<Option<&Script>> =
                batch.iter().map(|p| p.scripts.get(hour)).collect();
            let segments = map_on_workers(self.cfg.workers, &mut scripts, |script| {
                Ok(script.map(Segment::render))
            })?;
            for (node, segment) in nodes.iter_mut().zip(segments) {
                if let Some(segment) = segment {
                    node.load_segment(segment, gw)?;
                }
            }
            let pumps = nodes
                .iter()
                .map(|n| n.seg_frames.div_ceil(n.pump_frames()))
                .max()
                .unwrap_or(0);
            for pump in 0..pumps {
                for node in &mut nodes {
                    node.pump_prologue(pump, gw)?;
                }
                let outbound =
                    map_on_workers(self.cfg.workers, &mut nodes, |node| node.pump_uplink(pump))?;
                let up: Vec<Vec<u8>> = outbound.into_iter().flatten().collect();
                // Transport errors are channel damage, not harness
                // bugs — the loss shows up in the link rollup. A
                // pump's alerts are logged before its tap items.
                for events in gw.ingest_batch(&up)?.into_iter().flatten() {
                    note_alerts(&events, &mut nodes);
                }
                for (session, frames) in gw.pump_downlink()? {
                    let Some(node) = nodes.iter_mut().find(|n| n.session == session) else {
                        continue;
                    };
                    node.take_downlink(&frames)?;
                }
                distribute_tap(gw.drain_tap()?, &mut nodes);
            }
            for node in &mut nodes {
                node.end_segment();
                node.flush_rt_log();
                if let Some(w) = rec.as_deref_mut() {
                    node.flush_epoch(hour as u32, w)?;
                }
            }
        }

        // Drain: flush every node's partial stage, deliver it over a
        // clean link, and release the gateway's pending windows.
        let mut up = Vec::new();
        for node in &mut nodes {
            node.drain(&mut up)?;
        }
        for events in gw.ingest_batch(&up)?.into_iter().flatten() {
            note_alerts(&events, &mut nodes);
        }
        // The link reports are read before each session closes: a
        // loss declared by the closing flush reaches the observation
        // log (`lost_events`) but not the report (`lost`).
        let mut reports = Vec::with_capacity(nodes.len());
        let mut closing = Vec::new();
        for node in &nodes {
            reports.push(gw.session_report(node.session)?);
            closing.extend(gw.close_session(node.session)?.into_iter().flatten());
        }
        note_alerts(&closing, &mut nodes);
        // Closing a session flushes its pending windows through the
        // tap; pick them up before sealing the final epochs.
        distribute_tap(gw.drain_tap()?, &mut nodes);
        for (mut node, report) in nodes.into_iter().zip(reports) {
            node.flush_rt_log();
            let end = SessionEnd {
                modeled_s: node.abs_seconds(),
                battery_days: Battery::default().lifetime_days(node.node.average_power_w()),
                report,
            };
            node.outcome.end(&end);
            if let Some(w) = rec.as_deref_mut() {
                node.flush_epoch(hours as u32, w)?;
                w.session_end(node.session, &end)?;
            }
            node.outcome.finalize(self.cfg.min_episode_s);
            outcomes.push(node.outcome);
        }
        Ok(())
    }
}

/// What the runner keeps of one node's rendered hour: the record
/// reduced to its interleaved samples and ground truth on the thread
/// that rendered it, which drops the full `Record` there.
struct Segment {
    /// Frame-major interleaved samples (lead 0 is every
    /// `n_leads`-th value, starting at 0).
    frames: Vec<i32>,
    n_frames: usize,
    n_leads: usize,
    fs: u32,
    spans: Vec<RhythmSpan>,
}

impl Segment {
    fn render(script: &Script) -> Segment {
        let rec = script.record();
        Segment {
            frames: rec.interleaved_frames(),
            n_frames: rec.n_samples(),
            n_leads: rec.n_leads().max(1),
            fs: rec.fs(),
            spans: rec.rhythm_spans().to_vec(),
        }
    }

    /// Lead 0 of the segment, in ADC counts.
    fn lead0(&self) -> impl Iterator<Item = i32> + '_ {
        self.frames.iter().step_by(self.n_leads).copied()
    }
}

/// Folds per-session outcomes into the report. Free-standing (and
/// crate-visible) because the live runner and the archive replayer
/// ([`crate::replay::CohortReplayer`]) must fold identically — down to
/// floating-point summation order — for replayed reports to compare
/// bit-identical to live ones.
pub(crate) fn aggregate(
    outcomes: &[SessionOutcome],
    modeled_hours: u32,
    windows_skipped: u64,
    alert_grace_s: f64,
) -> CohortReport {
    let modeled_days: f64 = outcomes.iter().map(|o| o.modeled_s).sum::<f64>() / 86_400.0;

    let mut link = LinkRollup::default();
    let mut prds = Vec::new();
    let mut battery = Vec::new();
    let mut reboots = 0u64;
    for o in outcomes {
        if let Some(r) = &o.report {
            link.messages += r.messages;
            link.lost += r.lost;
            link.recovered += r.recovered;
            link.acks_sent += r.acks_sent;
            link.nacks_sent += r.nacks_sent;
            link.retransmits_requested += r.retransmits_requested;
            link.directives_issued += r.directives_issued;
        }
        link.lost_events += o.lost_events;
        link.recovered_events += o.recovered_events;
        link.expired += o.expired;
        link.unavailable += o.unavailable;
        prds.extend_from_slice(&o.prds);
        battery.push(o.battery_days);
        reboots += o.reboots;
    }

    let mut strata = Vec::new();
    for burden in RhythmBurden::ALL {
        let members: Vec<&SessionOutcome> =
            outcomes.iter().filter(|o| o.burden == burden).collect();
        if members.is_empty() {
            continue;
        }
        let days: f64 = members.iter().map(|o| o.modeled_s).sum::<f64>() / 86_400.0;
        let mean_batt = members.iter().map(|o| o.battery_days).sum::<f64>() / members.len() as f64;
        strata.push(StratumReport {
            burden: burden.label(),
            sessions: members.len() as u64,
            detection: score_detection(&members, days, alert_grace_s),
            battery_days_mean: mean_batt,
        });
    }

    let all: Vec<&SessionOutcome> = outcomes.iter().collect();
    let battery_days_mean = if battery.is_empty() {
        0.0
    } else {
        battery.iter().sum::<f64>() / battery.len() as f64
    };
    let battery_days_min = battery
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .unwrap_or(0.0);
    CohortReport {
        sessions: outcomes.len() as u64,
        modeled_hours,
        modeled_days,
        reboots,
        detection: score_detection(&all, modeled_days, alert_grace_s),
        prd: prd_stats(&prds),
        windows_skipped,
        link,
        battery_days_mean,
        battery_days_min,
        strata,
    }
}

/// Routes drained gateway tap items to the owning nodes' logs.
fn distribute_tap(tapped: Vec<(u64, Vec<TapItem>)>, nodes: &mut [NodeState]) {
    for (session, items) in tapped {
        if let Some(node) = nodes.iter_mut().find(|n| n.session == session) {
            for item in items {
                node.log(EpochItem::Gateway(item));
            }
        }
    }
}

/// Logs each AF alert of a gateway event burst at its node's current
/// position. Alerts are the one gateway event the runner reads: they
/// are stamped with the runner's modeled time, which the gateway does
/// not know.
fn note_alerts(events: &[GatewayEvent], nodes: &mut [NodeState]) {
    for ev in events {
        if let GatewayEvent::AfAlert { session, .. } = *ev {
            if let Some(n) = nodes.iter_mut().find(|n| n.session == session) {
                let t_s = n.abs_seconds();
                n.log(EpochItem::Alert { t_s });
            }
        }
    }
}

/// Scores detection over a set of session outcomes.
fn score_detection(outcomes: &[&SessionOutcome], modeled_days: f64, grace: f64) -> DetectionStats {
    let mut episodes = 0u64;
    let mut detected = 0u64;
    let mut latencies = Vec::new();
    let mut false_alerts = 0u64;
    for o in outcomes {
        for &(start, end) in &o.episodes {
            episodes += 1;
            let hit = o
                .alerts
                .iter()
                .copied()
                .filter(|&t| t >= start && t <= end + grace)
                .min_by(f64::total_cmp);
            if let Some(t) = hit {
                detected += 1;
                latencies.push((t - start).max(0.0));
            }
        }
        for &t in &o.alerts {
            let excused = o
                .episodes
                .iter()
                .chain(&o.flutter)
                .any(|&(s, e)| t >= s && t <= e + grace);
            if !excused {
                false_alerts += 1;
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    let latency_mean_s = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    let latency_p95_s = percentile95_sorted(&latencies);
    DetectionStats {
        episodes,
        detected,
        latency_mean_s,
        latency_p95_s,
        false_alerts,
        false_alerts_per_day: if modeled_days > 0.0 {
            false_alerts as f64 / modeled_days
        } else {
            0.0
        },
    }
}

/// PRD summary of the collected per-window values.
fn prd_stats(prds: &[f64]) -> PrdStats {
    if prds.is_empty() {
        return PrdStats::default();
    }
    let mut sorted = prds.to_vec();
    sorted.sort_by(f64::total_cmp);
    PrdStats {
        windows: prds.len() as u64,
        mean_percent: prds.iter().sum::<f64>() / prds.len() as f64,
        p95_percent: percentile95_sorted(&sorted),
    }
}

/// Per-session result accumulator. Crate-visible so the archive
/// replayer rebuilds it through the same two functions the live runner
/// calls: [`SessionOutcome::observe`] per archived item and
/// [`SessionOutcome::end`] per session end, then the same [`aggregate`]
/// fold.
#[derive(Debug, Clone)]
pub(crate) struct SessionOutcome {
    pub(crate) burden: RhythmBurden,
    /// Ground-truth AF episodes, absolute seconds (merged, filtered).
    pub(crate) episodes: Vec<(f64, f64)>,
    /// Atrial-flutter spans (alerts here are excused, not rewarded —
    /// flutter is the AF detector's documented blind spot).
    pub(crate) flutter: Vec<(f64, f64)>,
    /// Gateway AF-alert times, absolute seconds.
    pub(crate) alerts: Vec<f64>,
    pub(crate) prds: Vec<f64>,
    pub(crate) report: Option<SessionReport>,
    pub(crate) lost_events: u64,
    pub(crate) recovered_events: u64,
    pub(crate) expired: u64,
    pub(crate) unavailable: u64,
    pub(crate) battery_days: f64,
    pub(crate) reboots: u64,
    pub(crate) modeled_s: f64,
}

impl SessionOutcome {
    /// A fresh, empty accumulator for one session.
    pub(crate) fn new(burden: RhythmBurden) -> SessionOutcome {
        SessionOutcome {
            burden,
            episodes: Vec::new(),
            flutter: Vec::new(),
            alerts: Vec::new(),
            prds: Vec::new(),
            report: None,
            lost_events: 0,
            recovered_events: 0,
            expired: 0,
            unavailable: 0,
            battery_days: 0.0,
            reboots: 0,
            modeled_s: 0.0,
        }
    }

    /// Folds one observation into the accumulator: a scored CS window's
    /// PRD, a loss or a recovery from the gateway; an alert, a reboot, a
    /// node-side retransmit failure or a ground-truth span from the
    /// runner. Handshakes, payload contents and references score
    /// nothing.
    pub(crate) fn observe(&mut self, item: &EpochItem) {
        match item {
            EpochItem::Gateway(TapItem::CsWindow { prd: Some(p), .. }) => self.prds.push(*p),
            EpochItem::Gateway(TapItem::Lost { count, .. }) => {
                self.lost_events += u64::from(*count);
            }
            EpochItem::Gateway(TapItem::Recovered { .. }) => self.recovered_events += 1,
            EpochItem::Alert { t_s } => self.alerts.push(*t_s),
            EpochItem::Expired { .. } => self.expired += 1,
            EpochItem::Unavailable { .. } => self.unavailable += 1,
            EpochItem::Reboot { .. } => self.reboots += 1,
            EpochItem::Truth {
                flutter,
                start_s,
                end_s,
            } => {
                if *flutter {
                    self.flutter.push((*start_s, *end_s));
                } else {
                    self.episodes.push((*start_s, *end_s));
                }
            }
            _ => {}
        }
    }

    /// Takes the session's closing summary: modeled time, battery life
    /// and the gateway's link report.
    pub(crate) fn end(&mut self, end: &SessionEnd) {
        self.modeled_s = end.modeled_s;
        self.battery_days = end.battery_days;
        self.report = end.report.clone();
    }

    /// The scoring-side seal: merges ground-truth spans, drops
    /// episodes shorter than `min_episode_s`, sorts alerts. Shared by
    /// the live runner and the archive replayer so both produce
    /// identical accumulators.
    pub(crate) fn finalize(&mut self, min_episode_s: f64) {
        self.episodes = merge_spans(std::mem::take(&mut self.episodes), EPISODE_MERGE_GAP_S);
        self.episodes.retain(|&(s, e)| e - s >= min_episode_s);
        self.flutter = merge_spans(std::mem::take(&mut self.flutter), EPISODE_MERGE_GAP_S);
        self.alerts.sort_by(f64::total_cmp);
    }
}

/// One live session of a batch: the closed-loop [`Node`] behind its
/// own duplex channel, plus the runner's script, segment and
/// observation-log bookkeeping.
struct NodeState {
    session: u64,
    cs: bool,
    node: Node,
    duplex: DuplexChannel,
    /// Scheduled reboot times, absolute seconds, ascending.
    reboots: Vec<f64>,
    next_reboot: usize,
    /// Degraded-channel intervals: (start, end, folded drop rate).
    regimes: Vec<(f64, f64, f64)>,
    /// Current segment, frame-major interleaved samples.
    seg: Vec<i32>,
    seg_frames: usize,
    /// Absolute frame index of the current segment's first sample.
    seg_base_frames: u64,
    /// Frames pushed since session start (all incarnations).
    abs_frames: u64,
    /// Absolute frame where the current incarnation's CS window 0
    /// starts — the reference-offset anchor.
    window_base_abs: u64,
    fs: u32,
    /// The session's score, folded from every item [`NodeState::log`]
    /// takes.
    outcome: SessionOutcome,
    /// Whether this run is being recorded (the log keeps its items).
    recording: bool,
    /// The current epoch's archive items (gateway tap plus
    /// runner-side observations), flushed each modeled hour.
    epoch_items: Vec<EpochItem>,
    /// Watermark into the node's retransmit events: entries before
    /// this are already in a flushed epoch.
    rt_logged: usize,
}

impl NodeState {
    fn new(
        session: u64,
        plan: &SessionPlan,
        cfg: &CohortRunConfig,
        recording: bool,
    ) -> Result<NodeState> {
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
        let node = Node::new(session, builder, gov_cfg)?;
        let fs = node.config().fs_hz;

        // Runtime adversities at absolute times (scripts are per-hour).
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
                    } => {
                        // Corruption is folded into drop: a flipped bit
                        // fails the CRC, which is a loss end to end.
                        let drop = (drop_rate + corrupt_rate).clamp(0.0, 0.9);
                        regimes.push((
                            base_s + ta.start_s,
                            base_s + ta.start_s + ta.duration_s,
                            drop,
                        ));
                    }
                    _ => {}
                }
            }
            base_s += script.duration_s();
        }
        reboots.sort_by(f64::total_cmp);
        regimes.sort_by(|a, b| a.0.total_cmp(&b.0));

        Ok(NodeState {
            session,
            cs: p.cs_uplink,
            node,
            duplex: DuplexChannel::symmetric(ChannelConfig {
                seed: p
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0x4C49_4E4B),
                ..ChannelConfig::ideal()
            })?,
            reboots,
            next_reboot: 0,
            regimes,
            seg: Vec::new(),
            seg_frames: 0,
            seg_base_frames: 0,
            abs_frames: 0,
            window_base_abs: 0,
            fs,
            outcome: SessionOutcome::new(p.burden),
            recording,
            epoch_items: Vec::new(),
            rt_logged: 0,
        })
    }

    /// The one path of every observation: scores it into the session's
    /// outcome and, when the run records, keeps it for the epoch's
    /// archive block. Live scoring and replay fold the same items.
    fn log(&mut self, item: EpochItem) {
        self.outcome.observe(&item);
        if self.recording {
            self.epoch_items.push(item);
        }
    }

    fn pump_frames(&self) -> usize {
        (self.fs as usize) * (PUMP_S as usize)
    }

    /// Absolute modeled seconds at the node's current position.
    fn abs_seconds(&self) -> f64 {
        self.abs_frames as f64 / f64::from(self.fs)
    }

    /// Loads a rendered hour: harvests ground truth and (re-)anchors
    /// the gateway PRD reference.
    fn load_segment(&mut self, segment: Segment, gw: &mut ShardedGateway) -> Result<()> {
        let base_s = self.abs_seconds();
        self.harvest_truth(&segment.spans, segment.fs, base_s);
        self.seg_base_frames = self.abs_frames;
        if self.cs && self.seg_base_frames >= self.window_base_abs {
            // Window w of the current incarnation covers absolute
            // samples [window_base_abs + w·n ..); the segment record
            // covers [seg_base_frames ..). attach_reference_at maps
            // between the two and replaces the previous segment's
            // reference.
            let offset = self.seg_base_frames - self.window_base_abs;
            gw.attach_reference_at(
                self.session,
                0,
                offset,
                segment.lead0().map(f64::from).collect(),
            )?;
            self.log(EpochItem::Reference {
                lead: 0,
                offset,
                samples: segment.lead0().collect(),
            });
        }
        self.seg = segment.frames;
        self.seg_frames = segment.n_frames;
        Ok(())
    }

    /// Extends the session ground truth with the segment's AF and
    /// flutter spans (merged across adjacent spans later, at finish).
    fn harvest_truth(&mut self, spans: &[RhythmSpan], fs: u32, base_s: f64) {
        let fs = f64::from(fs);
        for span in spans {
            let flutter = match span.label {
                RhythmLabel::Af => false,
                RhythmLabel::Flutter => true,
                _ => continue,
            };
            self.log(EpochItem::Truth {
                flutter,
                start_s: base_s + span.start_sample as f64 / fs,
                end_s: base_s + span.end_sample as f64 / fs,
            });
        }
    }

    /// The pump's `[lo, hi)` frame range within the current segment,
    /// or `None` once the segment is exhausted.
    fn pump_range(&self, pump: usize) -> Option<(usize, usize)> {
        let lo = pump * self.pump_frames();
        (lo < self.seg_frames).then(|| (lo, (lo + self.pump_frames()).min(self.seg_frames)))
    }

    /// The serial half of an uplink turn, run in session order: enact
    /// due reboots (they re-register with the gateway) and set the
    /// pump's channel drop rate.
    fn pump_prologue(&mut self, pump: usize, gw: &mut ShardedGateway) -> Result<()> {
        let Some((lo, hi)) = self.pump_range(pump) else {
            return Ok(());
        };
        let t0 = (self.seg_base_frames + lo as u64) as f64 / f64::from(self.fs);
        let t1 = (self.seg_base_frames + hi as u64) as f64 / f64::from(self.fs);

        while self.next_reboot < self.reboots.len() && self.reboots[self.next_reboot] <= t0 {
            self.reboot(gw)?;
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
        Ok(())
    }

    /// The node-local half of an uplink turn, safe to run on any
    /// thread: push the pump's block through the node and send its
    /// packets. Returns the packets that survive the uplink channel.
    fn pump_uplink(&mut self, pump: usize) -> Result<Vec<Vec<u8>>> {
        let Some((lo, hi)) = self.pump_range(pump) else {
            return Ok(Vec::new());
        };
        let n_leads = self.node.config().n_leads;
        let tx = self
            .node
            .push_block(&self.seg[lo * n_leads..hi * n_leads], hi - lo)?;
        self.abs_frames += (hi - lo) as u64;
        Ok(self.duplex.up().send_all(tx))
    }

    /// Delivers a downlink frame burst through the lossy reverse path
    /// to the node (ACK/NACK bookkeeping, ordered CR directives).
    fn take_downlink(&mut self, frames: &[Vec<u8>]) -> Result<()> {
        for wire in frames {
            for delivered in self.duplex.down().send(wire.clone()) {
                self.node.take_downlink(&delivered)?;
            }
        }
        Ok(())
    }

    /// A mid-session node reboot: the node loses every volatile piece
    /// and restarts its stream at sequence 0; the gateway is
    /// re-registered out of band.
    fn reboot(&mut self, gw: &mut ShardedGateway) -> Result<()> {
        let hs = self.node.reboot()?;
        gw.register(hs)?;
        // CS window numbering restarts with the monitor: window 0 of
        // the new incarnation begins at the current absolute frame.
        // The incumbent reference is indexed by the dead incarnation's
        // sample counter, so it would score the reborn stream's
        // windows against the wrong signal — blank it until the next
        // segment boundary attaches one with a matching offset.
        if self.cs {
            gw.attach_reference_at(self.session, 0, 0, Vec::new())?;
        }
        self.window_base_abs = self.abs_frames;
        // The gateway-side register() is out of band (no packet, no
        // tap), so the runner logs the reborn handshake and the
        // reference blanking itself; replay re-enacts both.
        self.log(EpochItem::Reboot {
            t_s: self.abs_seconds(),
        });
        self.log(EpochItem::Gateway(TapItem::Handshake(hs)));
        if self.cs {
            self.log(EpochItem::Reference {
                lead: 0,
                offset: 0,
                samples: Vec::new(),
            });
        }
        Ok(())
    }

    fn end_segment(&mut self) {
        self.seg = Vec::new();
        self.seg_frames = 0;
    }

    /// Flushes the node's partial stage over a clean link.
    fn drain(&mut self, up: &mut Vec<Vec<u8>>) -> Result<()> {
        self.duplex.up().set_drop_rate(0.0)?;
        self.duplex.down().set_drop_rate(0.0)?;
        let tx = self.node.drain()?;
        up.extend(self.duplex.up().send_all(tx));
        Ok(())
    }

    /// Logs node-side retransmit failures the watermark has not
    /// covered yet (each event is logged exactly once).
    fn flush_rt_log(&mut self) {
        let events = self.node.retransmit_events();
        let fresh: Vec<EpochItem> = events[self.rt_logged..]
            .iter()
            .map(|ev| match *ev {
                RetransmitEvent::Expired { msg_seq, .. } => EpochItem::Expired { msg_seq },
                RetransmitEvent::Unavailable { msg_seq } => EpochItem::Unavailable { msg_seq },
            })
            .collect();
        self.rt_logged = events.len();
        for item in fresh {
            self.log(item);
        }
    }

    /// Writes the accumulated epoch log as one archive block (nothing
    /// is written for an empty epoch) and clears it, keeping writer
    /// memory O(epoch) regardless of recording length.
    fn flush_epoch<W: Write>(&mut self, epoch: u32, w: &mut ArchiveWriter<W>) -> Result<()> {
        if self.epoch_items.is_empty() {
            return Ok(());
        }
        let rec = EpochRecord {
            session: self.session,
            epoch,
            items: std::mem::take(&mut self.epoch_items),
        };
        w.epoch(&rec)?;
        Ok(())
    }
}

/// Merges overlapping/adjacent `(start, end)` spans (gap ≤ `gap_s`).
fn merge_spans(mut spans: Vec<(f64, f64)>, gap_s: f64) -> Vec<(f64, f64)> {
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::new();
    for &(s, e) in spans.iter() {
        if let Some(last) = out.last_mut() {
            if s <= last.1 + gap_s {
                last.1 = last.1.max(e);
                continue;
            }
        }
        out.push((s, e));
    }
    out
}
