//! The closed-loop power governor: runtime selection of the operating
//! mode.
//!
//! The paper's central trade-off — MCU cycles against radio bytes,
//! settled by *choosing a processing level* — is static in Figure 6:
//! each curve is one level run forever. Real wearables close the loop
//! on-device instead: related systems duty-cycle acquisition around
//! signal condition and gate their compressors by payload budget. This
//! module is that loop:
//!
//! ```text
//!        frames ──► CardiacMonitor ──► payloads ──► radio
//!                        ▲    │
//!            switch_mode │    │ counters / payloads (per epoch)
//!                        │    ▼
//!   PowerGovernor ◄── EpochObservation ◄── rhythm sentinel
//!        ▲                                  battery state
//!        └── predicted_workload per candidate mode (energy.rs)
//! ```
//!
//! Once per **epoch** (a fixed number of frames), the controller reads
//! what happened — beats, AF activity, ectopy, radio bytes — drains
//! the modeled [`BatteryState`] by the epoch's priced energy, and
//! re-decides the session's [`OperatingMode`]:
//!
//! * **Rhythm demand.** An AF episode or a high ectopic rate
//!   *escalates fidelity* (down the abstraction ladder, all leads
//!   powered) so the clinician gets diagnostic detail; sustained quiet
//!   *de-escalates* toward the cheapest mode, shedding radio bytes,
//!   MCU cycles and per-lead analog front-end bias.
//! * **Battery supply.** Candidate modes are priced with
//!   [`predicted_workload`](crate::energy::predicted_workload) on the
//!   node model; modes whose projected lifetime misses the mission
//!   target are rejected, and low / critical state-of-charge caps or
//!   forces the tier.
//! * **Radio budget.** Candidates whose predicted payload rate exceeds
//!   the configured bytes-per-second budget are rejected.
//! * **Hysteresis.** Escalations are immediate (clinical
//!   responsiveness); de-escalations require a sustained quiet run
//!   *and* a minimum dwell since the last switch, so a flickering AF
//!   flag can never make the mode oscillate — pinned by the property
//!   tests in `tests/governor_properties.rs`.
//!
//! Decisions are pure functions of the governor state and the
//! observation, so governed sessions stay deterministic: the same
//! frames produce the same switches, payloads and counters every run.
//!
//! [`GovernedMonitor`] packages the loop around one
//! [`CardiacMonitor`]; [`Node`](crate::node::Node) puts it behind the
//! uplink, the retransmit buffer and the gateway's directives.

use crate::energy::{workload_from_counters, CycleCosts};
use crate::level::{OperatingMode, ProcessingLevel};
use crate::monitor::{ActivityCounters, CardiacMonitor, MonitorBuilder, MonitorConfig};
use crate::payload::Payload;
use crate::{Result, WbsnError};
use wbsn_classify::af::{AfBeat, AfConfig, AfDetector};
use wbsn_platform::battery::BatteryState;
use wbsn_platform::node::NodeModel;

/// The governor's three fidelity tiers, cheapest first. Each tier maps
/// to one configured [`OperatingMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FidelityTier {
    /// Quiet signal, battery preserved: the cheapest configured mode
    /// (single-lead classification by default).
    Economy,
    /// Recent activity or cautious start: full-lead classification.
    Vigilant,
    /// AF episode or heavy ectopy: full-lead diagnostic fidelity.
    Alert,
}

impl FidelityTier {
    fn step_down(self) -> FidelityTier {
        match self {
            FidelityTier::Alert => FidelityTier::Vigilant,
            _ => FidelityTier::Economy,
        }
    }
}

/// Why the governor switched modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchReason {
    /// AF episode or ectopic burden demanded diagnostic fidelity.
    RhythmEscalation,
    /// Sustained quiet rhythm allowed stepping down a tier.
    RhythmRecovery,
    /// State of charge fell below the low-battery threshold.
    LowBattery,
    /// State of charge fell below the critical threshold.
    CriticalBattery,
    /// Projected lifetime at the richer mode missed the mission target.
    MissionGuard,
    /// Predicted radio bytes exceeded the configured budget.
    RadioBudget,
    /// A gateway downlink directive
    /// ([`crate::link::DirectiveAction::SetMode`]) requested the
    /// change — the distributed half of the control loop, reacting to
    /// receiver-side reality instead of local state.
    Directive,
}

/// Tunable policy of the [`PowerGovernor`].
///
/// ```
/// use wbsn_core::governor::GovernorConfig;
/// use wbsn_core::level::{OperatingMode, ProcessingLevel};
///
/// // Default policy for a 3-lead session: single-lead classification
/// // when quiet, full-lead delineation during an AF episode.
/// let cfg = GovernorConfig::for_leads(3);
/// assert_eq!(cfg.economy_mode.active_leads, 1);
/// assert_eq!(cfg.alert_mode.level, ProcessingLevel::Delineated);
///
/// // A pinned policy never switches — the static baseline the
/// // governor is compared against.
/// let raw = GovernorConfig::pinned(OperatingMode::new(
///     ProcessingLevel::RawStreaming,
///     3,
/// ));
/// assert_eq!(raw.economy_mode, raw.alert_mode);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorConfig {
    /// Seconds per decision epoch.
    pub epoch_s: f64,
    /// Mode during AF episodes / heavy ectopy (diagnostic fidelity).
    pub alert_mode: OperatingMode,
    /// Mode while recently active or starting up.
    pub vigilant_mode: OperatingMode,
    /// Mode for sustained quiet signal (maximum economy).
    pub economy_mode: OperatingMode,
    /// Ectopic-beat fraction above which an epoch counts as active.
    pub ectopic_threshold: f64,
    /// Consecutive active epochs required to escalate (1 = immediate).
    pub escalate_after: u32,
    /// Consecutive quiet epochs required to step down one tier.
    pub deescalate_after: u32,
    /// Minimum epochs between a switch and any later de-escalation.
    pub min_dwell_epochs: u32,
    /// Radio budget: candidate modes predicted to exceed this
    /// **on-wire** byte rate (application payloads plus per-packet
    /// link framing overhead, bytes/s) are rejected — the same bytes
    /// the uplink framer ([`crate::link`]) emits and the battery pays
    /// for.
    pub radio_budget_bytes_per_s: f64,
    /// Link MTU the uplink frames payloads at — used for the wire-byte
    /// pricing above and the battery books, so the governor counts the
    /// same bytes as the deployment's [`crate::link::Uplink`]. Must
    /// exceed [`crate::link::LINK_OVERHEAD_BYTES`].
    pub link_mtu: usize,
    /// State of charge below which the tier is capped at `Vigilant`.
    pub low_soc: f64,
    /// State of charge below which the tier is forced to `Economy`.
    pub critical_soc: f64,
    /// Mission length in days the battery must survive; richer modes
    /// whose projected lifetime falls short are rejected.
    pub target_days: f64,
}

impl GovernorConfig {
    /// Default policy for a session with `n_leads` configured leads:
    /// escalate to full-lead delineation on AF, recover through
    /// full-lead classification, idle at single-lead classification.
    pub fn for_leads(n_leads: usize) -> Self {
        GovernorConfig {
            epoch_s: 10.0,
            alert_mode: OperatingMode::new(ProcessingLevel::Delineated, n_leads),
            vigilant_mode: OperatingMode::new(ProcessingLevel::Classified, n_leads),
            economy_mode: OperatingMode::new(ProcessingLevel::Classified, 1),
            ectopic_threshold: 0.15,
            escalate_after: 1,
            deescalate_after: 6,
            min_dwell_epochs: 3,
            radio_budget_bytes_per_s: 600.0,
            link_mtu: crate::link::DEFAULT_MTU,
            low_soc: 0.30,
            critical_soc: 0.10,
            target_days: 7.0,
        }
    }

    /// A degenerate policy pinned to one mode — every tier maps to
    /// `mode`, so the governor never switches. This is how the static
    /// levels of the paper's Figure 6 are reproduced inside the same
    /// epoch-priced harness, making lifetime comparisons exact.
    pub fn pinned(mode: OperatingMode) -> Self {
        GovernorConfig {
            alert_mode: mode,
            vigilant_mode: mode,
            economy_mode: mode,
            // A pinned governor never rejects its only mode.
            radio_budget_bytes_per_s: f64::INFINITY,
            low_soc: 0.0,
            critical_soc: 0.0,
            target_days: 0.0,
            ..GovernorConfig::for_leads(mode.active_leads)
        }
    }

    /// The mode a tier maps to under this policy.
    pub fn mode_of(&self, tier: FidelityTier) -> OperatingMode {
        match tier {
            FidelityTier::Economy => self.economy_mode,
            FidelityTier::Vigilant => self.vigilant_mode,
            FidelityTier::Alert => self.alert_mode,
        }
    }

    fn validate(&self) -> Result<()> {
        if !self.epoch_s.is_finite() || self.epoch_s <= 0.0 {
            return Err(WbsnError::InvalidParameter {
                what: "epoch_s",
                detail: format!("{} must be positive", self.epoch_s),
            });
        }
        if self.escalate_after == 0 || self.deescalate_after == 0 {
            return Err(WbsnError::InvalidParameter {
                what: "escalate_after/deescalate_after",
                detail: "hysteresis runs must be at least 1 epoch".into(),
            });
        }
        if self.link_mtu <= crate::link::LINK_OVERHEAD_BYTES {
            return Err(WbsnError::InvalidParameter {
                what: "link_mtu",
                detail: format!(
                    "{} does not exceed the per-packet link overhead {}",
                    self.link_mtu,
                    crate::link::LINK_OVERHEAD_BYTES
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.low_soc)
            || !(0.0..=1.0).contains(&self.critical_soc)
            || self.critical_soc > self.low_soc
        {
            return Err(WbsnError::InvalidParameter {
                what: "low_soc/critical_soc",
                detail: "need 0 <= critical_soc <= low_soc <= 1".into(),
            });
        }
        Ok(())
    }
}

impl Default for GovernorConfig {
    /// The 3-lead policy of [`GovernorConfig::for_leads`].
    fn default() -> Self {
        GovernorConfig::for_leads(3)
    }
}

/// What the controller saw during one epoch — the pure input of
/// [`PowerGovernor::decide`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochObservation {
    /// Signal seconds covered by the epoch.
    pub seconds: f64,
    /// Beats delineated during the epoch (0 at non-delineating modes).
    pub beats: u64,
    /// Whether an AF episode is currently flagged.
    pub af_active: bool,
    /// Fraction of the epoch's classified beats that were ectopic.
    pub ectopic_ratio: f64,
    /// Battery state of charge (0..=1).
    pub soc: f64,
}

/// One decision of the governor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorDecision {
    /// The mode the session should run from now on.
    pub mode: OperatingMode,
    /// The tier behind that mode.
    pub tier: FidelityTier,
    /// True when the mode differs from the previous epoch's.
    pub changed: bool,
    /// Why the mode changed (`None` when unchanged).
    pub reason: Option<SwitchReason>,
}

/// The deterministic per-session controller: consumes one
/// [`EpochObservation`] per epoch and outputs the [`OperatingMode`] to
/// run next. Pure state machine — no clocks, no randomness — so
/// governed sessions replay bit-identically.
#[derive(Debug, Clone)]
pub struct PowerGovernor {
    cfg: GovernorConfig,
    monitor_cfg: MonitorConfig,
    node: NodeModel,
    costs: CycleCosts,
    tier: FidelityTier,
    active_run: u32,
    quiet_run: u32,
    epochs_since_switch: u32,
    elapsed_s: f64,
    // Smoothed beat rate for the mission/budget guards (see `decide`);
    // 0.0 until the first observation arrives.
    beat_rate_ewma: f64,
}

impl PowerGovernor {
    /// Controller over the given policy, pricing candidates for the
    /// session described by `monitor_cfg` on `node`.
    ///
    /// # Errors
    ///
    /// [`WbsnError::InvalidParameter`] for an inconsistent policy
    /// (non-positive epoch, zero hysteresis runs, SoC thresholds
    /// outside `0 <= critical <= low <= 1`).
    pub fn new(cfg: GovernorConfig, monitor_cfg: MonitorConfig, node: NodeModel) -> Result<Self> {
        cfg.validate()?;
        Ok(PowerGovernor {
            cfg,
            monitor_cfg,
            node,
            costs: CycleCosts::default(),
            tier: FidelityTier::Vigilant,
            active_run: 0,
            quiet_run: 0,
            epochs_since_switch: 0,
            elapsed_s: 0.0,
            beat_rate_ewma: 0.0,
        })
    }

    /// The policy in effect.
    pub fn config(&self) -> &GovernorConfig {
        &self.cfg
    }

    /// Current fidelity tier.
    pub fn tier(&self) -> FidelityTier {
        self.tier
    }

    /// The mode the current tier maps to.
    pub fn mode(&self) -> OperatingMode {
        self.cfg.mode_of(self.tier)
    }

    /// Prices one candidate mode at an assumed beat rate: predicted
    /// steady-state average node power in watts. The radio term is
    /// priced at **wire** bytes (payloads framed at the policy's
    /// [`GovernorConfig::link_mtu`]), matching what
    /// [`GovernedMonitor`] actually drains from the battery — so the
    /// mission guard's lifetime projections and the battery books
    /// count the same bytes.
    pub fn predicted_power_w(&self, mode: OperatingMode, beats_per_s: f64) -> f64 {
        let mut wl =
            crate::energy::predicted_workload(mode, &self.monitor_cfg, beats_per_s, &self.costs);
        wl.radio_payload_bytes_per_s = self.predicted_wire_bytes_per_s(mode, beats_per_s);
        self.node.breakdown(&wl).total_j()
    }

    /// Predicted steady-state **on-wire** byte rate of a candidate
    /// mode: application bytes plus the per-packet link header/CRC
    /// overhead of framing every payload at the policy's
    /// [`GovernorConfig::link_mtu`] ([`crate::link::wire_bytes_for`]).
    /// This is what the [`GovernorConfig::radio_budget_bytes_per_s`]
    /// budget is compared against, so the budget and the uplink framer
    /// count the same bytes.
    pub fn predicted_wire_bytes_per_s(&self, mode: OperatingMode, beats_per_s: f64) -> f64 {
        let (len, rate) = crate::energy::predicted_emission(mode, &self.monitor_cfg, beats_per_s);
        crate::link::wire_bytes_for(len, self.cfg.link_mtu) as f64 * rate
    }

    /// Consumes one epoch observation and decides the next mode.
    ///
    /// Escalations take effect immediately (capped by the supply
    /// ceiling below); rhythm de-escalations require
    /// `deescalate_after` consecutive quiet epochs *and*
    /// `min_dwell_epochs` since the last switch. The supply ceiling —
    /// SoC guards, mission target, radio budget — can only lower the
    /// tier: the SoC guards act immediately (SoC is monotone within a
    /// discharge, so they cannot oscillate), while the mission and
    /// budget guards depend on the beat rate, which *is* noisy, so
    /// they price against a smoothed (EWMA) rate and their forced
    /// de-escalations respect the dwell like any other.
    pub fn decide(&mut self, obs: &EpochObservation) -> GovernorDecision {
        let active = obs.af_active || obs.ectopic_ratio >= self.cfg.ectopic_threshold;
        if active {
            self.quiet_run = 0;
            self.active_run = self.active_run.saturating_add(1);
        } else {
            self.active_run = 0;
            self.quiet_run = self.quiet_run.saturating_add(1);
        }
        self.elapsed_s += obs.seconds.max(0.0);
        // Smooth the observed beat rate so the (threshold-crossing)
        // mission/budget guards don't chatter on AF's irregular epochs.
        let epoch_rate = obs.beats as f64 / obs.seconds.max(1e-9);
        self.beat_rate_ewma = if self.beat_rate_ewma <= 0.0 {
            epoch_rate
        } else {
            0.75 * self.beat_rate_ewma + 0.25 * epoch_rate
        };
        let beats_per_s = self.beat_rate_ewma;

        // Supply ceiling: the richest tier the battery and the radio
        // budget allow this epoch. Computed *before* rhythm demand so
        // an escalation lands directly at the affordable tier instead
        // of overshooting and being yanked back next epoch.
        let mut ceiling = FidelityTier::Alert;
        let mut cap_reason = None;
        if obs.soc <= self.cfg.critical_soc {
            ceiling = FidelityTier::Economy;
            cap_reason = Some(SwitchReason::CriticalBattery);
        } else if obs.soc <= self.cfg.low_soc {
            ceiling = FidelityTier::Vigilant;
            cap_reason = Some(SwitchReason::LowBattery);
        }
        // Mission guard: the remaining charge must survive the rest of
        // the mission at the candidate mode's predicted draw.
        let remaining_j = obs.soc * self.node.battery.energy_j();
        let remaining_days = self.cfg.target_days - self.elapsed_s / 86_400.0;
        while ceiling > FidelityTier::Economy && remaining_days > 0.0 {
            let power = self.predicted_power_w(self.cfg.mode_of(ceiling), beats_per_s);
            if remaining_j / power.max(1e-12) / 86_400.0 >= remaining_days {
                break;
            }
            ceiling = ceiling.step_down();
            cap_reason = Some(SwitchReason::MissionGuard);
        }
        // Radio budget, priced at on-wire bytes (after link framing).
        while ceiling > FidelityTier::Economy
            && self.predicted_wire_bytes_per_s(self.cfg.mode_of(ceiling), beats_per_s)
                > self.cfg.radio_budget_bytes_per_s
        {
            ceiling = ceiling.step_down();
            cap_reason = Some(SwitchReason::RadioBudget);
        }

        // Rhythm demand, capped by the ceiling.
        let mut tier = self.tier;
        let mut reason = None;
        if self.active_run >= self.cfg.escalate_after && tier < ceiling {
            tier = ceiling;
            reason = Some(SwitchReason::RhythmEscalation);
        } else if self.quiet_run >= self.cfg.deescalate_after
            && self.epochs_since_switch >= self.cfg.min_dwell_epochs
            && tier > FidelityTier::Economy
        {
            tier = tier.step_down();
            reason = Some(SwitchReason::RhythmRecovery);
        }

        // Enforce the ceiling on the running tier. SoC-driven caps act
        // immediately (monotone input, cannot oscillate); the
        // beat-rate-driven mission/budget caps additionally respect
        // the dwell so a rate blip cannot flap the mode.
        if tier > ceiling {
            let immediate = matches!(
                cap_reason,
                Some(SwitchReason::CriticalBattery) | Some(SwitchReason::LowBattery)
            );
            if immediate || self.epochs_since_switch >= self.cfg.min_dwell_epochs {
                tier = ceiling;
                reason = cap_reason;
            } else {
                tier = self.tier;
            }
        }

        let changed = tier != self.tier && self.cfg.mode_of(tier) != self.cfg.mode_of(self.tier);
        if tier != self.tier {
            self.tier = tier;
            self.epochs_since_switch = 0;
            // A fresh de-escalation restarts the quiet requirement for
            // the next step down (Alert → Vigilant → Economy is
            // gradual).
            self.quiet_run = 0;
        } else {
            self.epochs_since_switch = self.epochs_since_switch.saturating_add(1);
        }
        GovernorDecision {
            mode: self.cfg.mode_of(self.tier),
            tier: self.tier,
            changed,
            reason: if changed { reason } else { None },
        }
    }
}

/// One applied mode switch, for audit logs and the scenario reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchEvent {
    /// Session time of the switch, seconds from start.
    pub at_s: f64,
    /// Mode before the switch.
    pub from: OperatingMode,
    /// Mode after the switch.
    pub to: OperatingMode,
    /// Tier after the switch.
    pub tier: FidelityTier,
    /// Why the governor switched.
    pub reason: SwitchReason,
}

/// A [`CardiacMonitor`] with the control loop attached: epoch
/// accounting, rhythm sentinel, battery model and the
/// [`PowerGovernor`], all behind the same `push_block` ingestion
/// surface.
///
/// ```
/// use wbsn_core::governor::{GovernedMonitor, GovernorConfig};
/// use wbsn_core::monitor::MonitorBuilder;
///
/// let mut session = GovernedMonitor::new(
///     MonitorBuilder::new().n_leads(3),
///     GovernorConfig::for_leads(3),
///     Default::default(),
/// )
/// .unwrap();
/// // Quiet zero signal: the governor steps down to the single-lead
/// // economy mode once the de-escalation hysteresis is satisfied.
/// let minute = vec![0i32; 3 * 250 * 60];
/// session.push_block(&minute, 250 * 60).unwrap();
/// session.push_block(&minute, 250 * 60).unwrap();
/// session.finish().unwrap();
/// assert_eq!(session.mode(), GovernorConfig::for_leads(3).economy_mode);
/// assert!(session.battery().soc() < 1.0);
/// ```
///
/// The sentinel keeps rhythm sensing mode-independent: at classified
/// modes it reads the AF flag off `Events` payloads; at delineated
/// modes it feeds the emitted fiducials through its own
/// [`AfDetector`]. At raw/CS modes the node is rhythm-blind — exactly
/// the paper's argument for on-node intelligence — so those modes only
/// make sense as escalation targets, not as watch modes.
#[derive(Debug)]
pub struct GovernedMonitor {
    monitor: CardiacMonitor,
    governor: PowerGovernor,
    node: NodeModel,
    costs: CycleCosts,
    battery: BatteryState,
    epoch_frames: u64,
    frames_into_epoch: u64,
    frames_total: u64,
    epoch_start: ActivityCounters,
    // Rhythm sentinel.
    af: AfDetector,
    af_beats: Vec<AfBeat>,
    af_active: bool,
    // Absolute frame index at which the current stage was installed;
    // stage-relative beat indices are rebased by it.
    frame_base: u64,
    // Ectopic evidence accumulated over the current epoch.
    epoch_ectopic: u64,
    epoch_classified: u64,
    // Exact on-wire bytes of the payloads observed since the last
    // battery drain: each payload priced at its per-payload link
    // framing cost, so the battery pays for the bytes the uplink
    // framer actually puts on the wire, not just the payload bytes.
    epoch_wire_bytes: u64,
    drained_j: f64,
    switches: Vec<SwitchEvent>,
}

impl GovernedMonitor {
    /// Builds the session and attaches the governor. The governor
    /// owns the operating mode from the first frame: the builder's
    /// `level`/`active_leads` are overridden by the governor's initial
    /// (vigilant) mode, so no throwaway stage is ever constructed —
    /// the builder supplies everything else (leads, sampling rate, CS
    /// parameters, classifier, …).
    ///
    /// # Errors
    ///
    /// Builder validation failures and policy validation failures
    /// ([`PowerGovernor::new`]).
    pub fn new(builder: MonitorBuilder, cfg: GovernorConfig, node: NodeModel) -> Result<Self> {
        let initial = cfg.mode_of(FidelityTier::Vigilant);
        let monitor = builder
            .level(initial.level)
            .active_leads(initial.active_leads)
            .build()?;
        // Pre-flight every tier's mode now: a live switch must never
        // fail for configuration reasons mid-stream (e.g. a CS alert
        // mode over a non-dyadic window, which only CS stage
        // construction would catch).
        for tier in [
            FidelityTier::Economy,
            FidelityTier::Vigilant,
            FidelityTier::Alert,
        ] {
            crate::monitor::validate_mode(monitor.config(), cfg.mode_of(tier))?;
        }
        let fs_hz = monitor.config().fs_hz;
        let governor = PowerGovernor::new(cfg, monitor.config().clone(), node.clone())?;
        debug_assert_eq!(monitor.mode(), governor.mode());
        let epoch_frames = (governor.config().epoch_s * fs_hz as f64).round().max(1.0) as u64;
        let battery = BatteryState::new(node.battery);
        let epoch_start = monitor.counters();
        Ok(GovernedMonitor {
            monitor,
            governor,
            node,
            costs: CycleCosts::default(),
            battery,
            epoch_frames,
            frames_into_epoch: 0,
            frames_total: 0,
            epoch_start,
            af: AfDetector::new(AfConfig {
                fs_hz,
                ..AfConfig::default()
            })?,
            af_beats: Vec::new(),
            af_active: false,
            frame_base: 0,
            epoch_ectopic: 0,
            epoch_classified: 0,
            epoch_wire_bytes: 0,
            drained_j: 0.0,
            switches: Vec::new(),
        })
    }

    /// The governed session.
    pub fn monitor(&self) -> &CardiacMonitor {
        &self.monitor
    }

    /// The controller.
    pub fn governor(&self) -> &PowerGovernor {
        &self.governor
    }

    /// The operating point currently in effect.
    pub fn mode(&self) -> OperatingMode {
        self.monitor.mode()
    }

    /// Modeled battery state.
    pub fn battery(&self) -> &BatteryState {
        &self.battery
    }

    /// Every mode switch applied so far, in order.
    pub fn switch_log(&self) -> &[SwitchEvent] {
        &self.switches
    }

    /// Average modeled node power over the session so far, watts.
    pub fn average_power_w(&self) -> f64 {
        let secs = self.monitor.counters().seconds;
        if secs <= 0.0 {
            0.0
        } else {
            self.drained_j / secs
        }
    }

    /// Battery lifetime in days if the session so far repeated forever
    /// — the scenario comparison metric.
    pub fn projected_lifetime_days(&self) -> f64 {
        self.node.battery.lifetime_days(self.average_power_w())
    }

    /// Batched ingestion: identical framing contract to
    /// [`CardiacMonitor::push_block`]. Epoch boundaries falling inside
    /// the block are handled inside the call, so arbitrary block sizes
    /// replay bit-identically to per-frame pushes.
    ///
    /// # Errors
    ///
    /// Shape mismatches and stage failures, as the monitor.
    pub fn push_block(&mut self, frames: &[i32], n_frames: usize) -> Result<Vec<Payload>> {
        let n_leads = self.monitor.config().n_leads;
        let expected = n_frames.checked_mul(n_leads);
        if expected != Some(frames.len()) {
            return Err(WbsnError::InvalidParameter {
                what: "frames",
                detail: format!(
                    "block of {n_frames} frames × {n_leads} leads needs {} samples, got {}",
                    expected.map_or_else(|| "an overflowing number of".into(), |e| e.to_string()),
                    frames.len()
                ),
            });
        }
        let mut out = Vec::new();
        let mut offset = 0usize;
        let mut remaining = n_frames as u64;
        while remaining > 0 {
            let take = remaining.min(self.epoch_frames - self.frames_into_epoch);
            let sub = &frames[offset * n_leads..(offset + take as usize) * n_leads];
            let payloads = self.monitor.push_block(sub, take as usize)?;
            self.frames_total += take;
            self.frames_into_epoch += take;
            self.observe_payloads(&payloads);
            out.extend(payloads);
            offset += take as usize;
            remaining -= take;
            if self.frames_into_epoch == self.epoch_frames {
                self.settle_epoch(&mut out)?;
            }
        }
        Ok(out)
    }

    /// Applies a gateway link-controller directive
    /// ([`crate::link::DirectiveAction`], delivered downlink and
    /// ordered by a
    /// [`DirectiveHandler`](crate::retransmit::DirectiveHandler)) at
    /// the current stream boundary.
    ///
    /// * `SetCr` renegotiates the CS ratio in place
    ///   ([`CardiacMonitor::switch_cs_cr`]) — no stage rebuild, no
    ///   payloads.
    /// * `SetMode` switches through the same
    ///   [`CardiacMonitor::switch_mode`] path as the governor's own
    ///   decisions and is recorded in the switch log with
    ///   [`SwitchReason::Directive`]; its boundary flush payloads are
    ///   returned and their wire bytes priced with the running epoch.
    /// * `SetMtu` is a no-op here: the MTU lives in the uplink framer
    ///   ([`crate::link::Uplink::set_mtu`]), which the caller owns.
    ///
    /// # Errors
    ///
    /// [`WbsnError::InvalidParameter`] for an unknown level index or
    /// an out-of-range ratio/lead count — unlike the governor's
    /// pre-flighted tiers, a directive is remote input and validated
    /// like any other wire data. The session is unchanged on error.
    pub fn apply_directive(
        &mut self,
        action: crate::link::DirectiveAction,
    ) -> Result<Vec<Payload>> {
        use crate::link::DirectiveAction;
        match action {
            DirectiveAction::SetCr { cr_x10 } => {
                self.monitor.switch_cs_cr(cr_x10 as f64 / 10.0)?;
                Ok(Vec::new())
            }
            DirectiveAction::SetMode {
                level,
                active_leads,
            } => {
                let Some(&level) = ProcessingLevel::ALL.get(level as usize) else {
                    return Err(WbsnError::InvalidParameter {
                        what: "level",
                        detail: format!(
                            "directive level index {level} exceeds the ladder ({} levels)",
                            ProcessingLevel::ALL.len()
                        ),
                    });
                };
                let to = OperatingMode::new(level, active_leads as usize);
                let from = self.monitor.mode();
                if to == from {
                    return Ok(Vec::new());
                }
                let boundary = self.monitor.switch_mode(to)?;
                // Same bookkeeping as a governor-decided switch: the
                // retired stage's payloads are observed before the
                // sentinel rebases, and their wire bytes stay in the
                // epoch accumulator so the next drain prices them.
                self.observe_payloads(&boundary);
                self.frame_base = self.frames_total;
                self.switches.push(SwitchEvent {
                    at_s: self.monitor.counters().seconds,
                    from,
                    to,
                    tier: self.governor.tier(),
                    reason: SwitchReason::Directive,
                });
                Ok(boundary)
            }
            DirectiveAction::SetMtu { .. } => Ok(Vec::new()),
        }
    }

    /// Convenience driver shared by the scenario example and its
    /// acceptance test: replays an entire synthetic record (batched
    /// ingestion plus [`Self::finish`]). Block size never affects
    /// results — epoch boundaries are handled inside
    /// [`Self::push_block`] — so the whole record goes down in one
    /// call.
    ///
    /// # Errors
    ///
    /// [`WbsnError::LeadMismatch`] when the record carries a different
    /// lead count than the session, plus stage failures.
    pub fn process_record(&mut self, record: &wbsn_ecg_synth::Record) -> Result<Vec<Payload>> {
        if record.n_leads() != self.monitor.config().n_leads {
            return Err(WbsnError::LeadMismatch {
                expected: self.monitor.config().n_leads,
                got: record.n_leads(),
            });
        }
        let frames = record.interleaved_frames();
        let mut payloads = self.push_block(&frames, record.n_samples())?;
        payloads.extend(self.finish()?);
        Ok(payloads)
    }

    /// Ends the session: settles the partial epoch's battery drain and
    /// flushes the monitor.
    ///
    /// # Errors
    ///
    /// Stage flush failures.
    pub fn finish(&mut self) -> Result<Vec<Payload>> {
        let out = self.monitor.flush()?;
        self.observe_payloads(&out);
        if self.frames_into_epoch == 0 {
            // The flush landed exactly on an epoch boundary: there is
            // no signal time to attribute it to, so price it directly
            // as a burst — a flush never transmits for free.
            self.epoch_wire_bytes = 0;
            if !out.is_empty() {
                let burst_j = self.price_burst(&out);
                self.battery.drain_j(burst_j);
                self.drained_j += burst_j;
            }
        } else {
            self.drain_epoch_energy();
        }
        self.epoch_start = self.monitor.counters();
        self.frames_into_epoch = 0;
        Ok(out)
    }

    /// Radio energy of transmitting `payloads` as one burst, each
    /// payload packetized by the uplink framer at the policy's link
    /// MTU: the frame count is the payload's link fragment count and
    /// the bytes are its exact wire bytes, priced through
    /// [`wbsn_platform::radio::RadioModel::transmit_packets`] (one
    /// wakeup per payload, matching the stream model's payload-count
    /// wakeups).
    fn price_burst(&self, payloads: &[Payload]) -> f64 {
        let mtu = self.governor.config().link_mtu;
        payloads
            .iter()
            .map(|p| {
                let len = p.byte_len();
                self.node
                    .radio
                    .transmit_packets(
                        crate::link::wire_bytes_for(len, mtu),
                        crate::link::fragments_for(len, mtu),
                        1,
                    )
                    .energy_j
            })
            .sum()
    }

    /// Prices the epoch-so-far at the mode in effect and drains the
    /// battery by it. The radio term is priced at the epoch's exact
    /// on-wire bytes (per-payload link framing included), so the bytes
    /// the battery pays for are the bytes the uplink puts on the wire.
    fn drain_epoch_energy(&mut self) {
        let counters = self.monitor.counters();
        let delta = counters.delta(&self.epoch_start);
        if delta.seconds <= 0.0 {
            return;
        }
        let mode = self.monitor.mode();
        let mut wl = workload_from_counters(
            mode.level,
            &delta,
            mode.active_leads,
            self.monitor.config().fs_hz as f64,
            &self.costs,
        );
        wl.radio_payload_bytes_per_s =
            core::mem::take(&mut self.epoch_wire_bytes) as f64 / delta.seconds;
        let power = self.node.breakdown(&wl).total_j();
        let energy = power * delta.seconds;
        self.battery.drain_j(energy);
        self.drained_j += energy;
    }

    fn settle_epoch(&mut self, out: &mut Vec<Payload>) -> Result<()> {
        self.drain_epoch_energy();
        let counters = self.monitor.counters();
        let delta = counters.delta(&self.epoch_start);
        let obs = EpochObservation {
            seconds: delta.seconds,
            beats: delta.beats,
            af_active: self.af_active,
            ectopic_ratio: if self.epoch_classified == 0 {
                0.0
            } else {
                self.epoch_ectopic as f64 / self.epoch_classified as f64
            },
            soc: self.battery.soc(),
        };
        let decision = self.governor.decide(&obs);
        if decision.changed {
            let from = self.monitor.mode();
            let boundary = match self.monitor.switch_mode(decision.mode) {
                Ok(b) => b,
                Err(e) => {
                    // Unreachable for configuration reasons — every
                    // tier's mode is pre-flighted in `new` — but keep
                    // the epoch books consistent anyway so a caller
                    // retrying after an error cannot double-drain the
                    // battery for the same epoch.
                    self.epoch_start = self.monitor.counters();
                    self.frames_into_epoch = 0;
                    self.epoch_ectopic = 0;
                    self.epoch_classified = 0;
                    return Err(e);
                }
            };
            // Boundary flush payloads carry stage-relative indices of
            // the *retired* stage; observe them before rebasing.
            self.observe_payloads(&boundary);
            self.frame_base = self.frames_total;
            // The flush bytes fall between two epoch deltas (the epoch
            // just priced and the one starting now), so price them
            // directly as a burst — a switch never transmits for free.
            // Each payload is its own link message, so its radio
            // frames are its link fragments: price per payload through
            // the framed path (one wakeup each, like the stream
            // model's payload-count wakeups), and clear the wire-byte
            // accumulator so the next epoch drain cannot price these
            // bytes again.
            if !boundary.is_empty() {
                self.epoch_wire_bytes = 0;
                let burst_j = self.price_burst(&boundary);
                self.battery.drain_j(burst_j);
                self.drained_j += burst_j;
            }
            out.extend(boundary);
            // Changed decisions always carry a reason; an (impossible)
            // reasonless change records no switch event rather than
            // aborting mid-epoch.
            if let Some(reason) = decision.reason {
                self.switches.push(SwitchEvent {
                    at_s: counters.seconds,
                    from,
                    to: decision.mode,
                    tier: decision.tier,
                    reason,
                });
            }
        }
        self.epoch_start = self.monitor.counters();
        self.frames_into_epoch = 0;
        self.epoch_ectopic = 0;
        self.epoch_classified = 0;
        Ok(())
    }

    /// Feeds emitted payloads to the rhythm sentinel and accumulates
    /// their exact on-wire (framed) byte cost for the battery books.
    fn observe_payloads(&mut self, payloads: &[Payload]) {
        let mtu = self.governor.config().link_mtu;
        for p in payloads {
            self.epoch_wire_bytes += crate::link::wire_bytes_for(p.byte_len(), mtu) as u64;
            match p {
                Payload::Events {
                    af_active,
                    class_counts,
                    n_beats,
                    ..
                } => {
                    self.af_active = *af_active;
                    let ectopic: u32 = class_counts.iter().skip(1).sum();
                    self.epoch_ectopic += u64::from(ectopic);
                    self.epoch_classified += u64::from(*n_beats);
                }
                Payload::Beats { beats } => {
                    for b in beats {
                        self.af_beats.push(AfBeat {
                            r_sample: self.frame_base as usize + b.r_peak,
                            has_p: b.has_p(),
                        });
                    }
                    if self.af_beats.len() > 512 {
                        self.af_beats.drain(..256);
                    }
                    // Re-analyzing the whole (≤512-beat) buffer per
                    // payload mirrors ClassifyStage's own AF tracking:
                    // window alignment is relative to the buffer
                    // start, so a shorter buffer would shift episode
                    // boundaries. Measured cost of the whole governed
                    // wrapper is ~1.5% of ingest (governor benches).
                    let windows = self.af.analyze(&self.af_beats);
                    if let Some(w) = windows.last() {
                        self.af_active = w.is_af;
                    }
                }
                // Raw/CS payloads carry no rhythm information.
                Payload::RawChunk { .. } | Payload::CsWindow { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor(cfg: GovernorConfig) -> PowerGovernor {
        PowerGovernor::new(cfg, MonitorConfig::default(), NodeModel::default()).unwrap()
    }

    fn quiet(soc: f64) -> EpochObservation {
        EpochObservation {
            seconds: 10.0,
            beats: 9,
            af_active: false,
            ectopic_ratio: 0.0,
            soc,
        }
    }

    fn af(soc: f64) -> EpochObservation {
        EpochObservation {
            af_active: true,
            beats: 18,
            ..quiet(soc)
        }
    }

    #[test]
    fn directives_apply_through_the_switch_plumbing() {
        use crate::link::DirectiveAction;
        let mut s = GovernedMonitor::new(
            MonitorBuilder::new().n_leads(3),
            GovernorConfig::for_leads(3),
            NodeModel::default(),
        )
        .unwrap();
        let from = s.mode();
        // A mode directive lands in the switch log as Directive.
        s.apply_directive(DirectiveAction::SetMode {
            level: 3, // Delineated
            active_leads: 3,
        })
        .unwrap();
        assert_eq!(s.mode().level, ProcessingLevel::Delineated);
        let log = s.switch_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].reason, SwitchReason::Directive);
        assert_eq!(log[0].from, from);
        // A CR directive updates the config without a stage rebuild
        // or a switch-log entry; MTU directives are a node-link
        // concern and a no-op here.
        s.apply_directive(DirectiveAction::SetCr { cr_x10: 500 })
            .unwrap();
        assert!((s.monitor().config().cs_cr_percent - 50.0).abs() < 1e-12);
        s.apply_directive(DirectiveAction::SetMtu { mtu: 64 })
            .unwrap();
        assert_eq!(s.switch_log().len(), 1);
        // Hostile input: unknown ladder index is a typed error, the
        // session untouched.
        assert!(s
            .apply_directive(DirectiveAction::SetMode {
                level: 9,
                active_leads: 1
            })
            .is_err());
        assert_eq!(s.mode().level, ProcessingLevel::Delineated);
    }

    #[test]
    fn escalates_immediately_and_recovers_slowly() {
        let mut g = governor(GovernorConfig::for_leads(3));
        assert_eq!(g.tier(), FidelityTier::Vigilant);
        let d = g.decide(&af(1.0));
        assert!(d.changed);
        assert_eq!(d.tier, FidelityTier::Alert);
        assert_eq!(d.reason, Some(SwitchReason::RhythmEscalation));
        // Quiet epochs: no step down before the configured run.
        let cfg = g.config().clone();
        for _ in 0..cfg.deescalate_after - 1 {
            assert!(!g.decide(&quiet(1.0)).changed);
        }
        let d = g.decide(&quiet(1.0));
        assert!(d.changed);
        assert_eq!(d.tier, FidelityTier::Vigilant);
        assert_eq!(d.reason, Some(SwitchReason::RhythmRecovery));
        // And another full quiet run before reaching economy.
        for _ in 0..cfg.deescalate_after - 1 {
            assert!(!g.decide(&quiet(1.0)).changed);
        }
        let d = g.decide(&quiet(1.0));
        assert_eq!(d.tier, FidelityTier::Economy);
        assert_eq!(d.mode, cfg.economy_mode);
    }

    #[test]
    fn flickering_af_does_not_oscillate() {
        let mut g = governor(GovernorConfig::for_leads(3));
        let _ = g.decide(&af(1.0));
        let mut switches = 0;
        for i in 0..40 {
            let obs = if i % 2 == 0 { quiet(1.0) } else { af(1.0) };
            if g.decide(&obs).changed {
                switches += 1;
            }
        }
        // The AF flag flips every epoch; hysteresis keeps the mode
        // pinned at alert (quiet runs never reach deescalate_after).
        assert_eq!(switches, 0);
        assert_eq!(g.tier(), FidelityTier::Alert);
    }

    #[test]
    fn critical_soc_forces_economy_even_during_af() {
        let mut g = governor(GovernorConfig::for_leads(3));
        let _ = g.decide(&af(1.0));
        assert_eq!(g.tier(), FidelityTier::Alert);
        let d = g.decide(&af(0.05));
        assert!(d.changed);
        assert_eq!(d.tier, FidelityTier::Economy);
        assert_eq!(d.reason, Some(SwitchReason::CriticalBattery));
        // Low (but not critical) SoC caps at vigilant instead. A short
        // mission target keeps the (stricter) mission guard out of the
        // picture so the cap itself is what is exercised.
        let mut cfg = GovernorConfig::for_leads(3);
        cfg.target_days = 0.25;
        let mut g = governor(cfg);
        let _ = g.decide(&af(1.0));
        assert_eq!(g.tier(), FidelityTier::Alert);
        let d = g.decide(&af(0.2));
        assert!(d.changed);
        assert_eq!(d.tier, FidelityTier::Vigilant);
        assert_eq!(d.reason, Some(SwitchReason::LowBattery));
    }

    #[test]
    fn mission_guard_degrades_when_charge_cannot_last() {
        // 20% charge against a full 7-day mission: even vigilant is
        // too rich, the guard walks the tier down to economy — but
        // only after the dwell, because the guard prices against the
        // (noisy) beat rate and must not flap the mode on a rate blip.
        let mut g = governor(GovernorConfig::for_leads(3));
        let dwell = g.config().min_dwell_epochs;
        for _ in 0..dwell {
            let d = g.decide(&af(0.2));
            assert!(!d.changed, "guard de-escalated inside the dwell");
            assert_eq!(d.tier, FidelityTier::Vigilant);
        }
        let d = g.decide(&af(0.2));
        assert!(d.changed);
        assert_eq!(d.tier, FidelityTier::Economy);
        assert_eq!(d.reason, Some(SwitchReason::MissionGuard));
    }

    #[test]
    fn guard_ceiling_caps_escalation_without_flapping() {
        // An AF episode with the battery right at the mission margin:
        // the escalation lands at the affordable tier directly and the
        // mode never bounces Alert <-> Vigilant even though the beat
        // rate varies epoch to epoch.
        let mut g = governor(GovernorConfig::for_leads(3));
        let mut switches = 0;
        for i in 0..60 {
            // Irregular AF: beat count jitters around the margin.
            let obs = EpochObservation {
                beats: 14 + (i % 5) * 3,
                ..af(0.21)
            };
            if g.decide(&obs).changed {
                switches += 1;
            }
        }
        assert!(switches <= 2, "mode flapped: {switches} switches");
        // It settled at a tier the charge can actually sustain.
        assert!(g.tier() < FidelityTier::Alert);
    }

    #[test]
    fn radio_budget_rejects_expensive_alert_modes() {
        let mut cfg = GovernorConfig::for_leads(3);
        cfg.alert_mode = OperatingMode::new(ProcessingLevel::RawStreaming, 3);
        cfg.radio_budget_bytes_per_s = 200.0; // raw is ~1.1 kB/s
        let mut g = governor(cfg);
        let d = g.decide(&af(1.0));
        // Raw streaming blows the budget; the governor refuses the
        // escalation and stays at the richest affordable tier.
        assert_eq!(d.tier, FidelityTier::Vigilant);
        assert!(!d.changed);
    }

    #[test]
    fn pinned_policy_never_switches() {
        let mode = OperatingMode::new(ProcessingLevel::CompressedSingleLead, 3);
        let mut g = governor(GovernorConfig::pinned(mode));
        for i in 0..50 {
            let obs = if i % 3 == 0 { af(0.5) } else { quiet(0.04) };
            let d = g.decide(&obs);
            assert!(!d.changed);
            assert_eq!(d.mode, mode);
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let mut cfg = GovernorConfig::for_leads(3);
        cfg.epoch_s = 0.0;
        assert!(PowerGovernor::new(cfg, MonitorConfig::default(), NodeModel::default()).is_err());
        let mut cfg = GovernorConfig::for_leads(3);
        cfg.deescalate_after = 0;
        assert!(PowerGovernor::new(cfg, MonitorConfig::default(), NodeModel::default()).is_err());
        let mut cfg = GovernorConfig::for_leads(3);
        cfg.critical_soc = 0.5;
        cfg.low_soc = 0.2;
        assert!(PowerGovernor::new(cfg, MonitorConfig::default(), NodeModel::default()).is_err());
    }

    #[test]
    fn governed_monitor_preflights_every_tier_mode() {
        // A CS alert mode over a non-dyadic window must fail at
        // construction — never at the first escalation mid-stream,
        // where a failed switch would desync governor and monitor.
        let mut cfg = GovernorConfig::for_leads(3);
        cfg.alert_mode = OperatingMode::new(ProcessingLevel::CompressedMultiLead, 3);
        let builder = crate::monitor::MonitorBuilder::new()
            .n_leads(3)
            .cs_window(300);
        assert!(GovernedMonitor::new(builder, cfg, NodeModel::default()).is_err());
        // The same configuration with a dyadic window is fine.
        let mut cfg = GovernorConfig::for_leads(3);
        cfg.alert_mode = OperatingMode::new(ProcessingLevel::CompressedMultiLead, 3);
        let builder = crate::monitor::MonitorBuilder::new()
            .n_leads(3)
            .cs_window(256);
        assert!(GovernedMonitor::new(builder, cfg, NodeModel::default()).is_ok());
    }

    #[test]
    fn economy_mode_is_cheaper_than_alert_mode() {
        let g = governor(GovernorConfig::for_leads(3));
        let cfg = g.config();
        let p_economy = g.predicted_power_w(cfg.economy_mode, 1.2);
        let p_alert = g.predicted_power_w(cfg.alert_mode, 1.2);
        assert!(
            p_economy < 0.75 * p_alert,
            "economy {p_economy} W vs alert {p_alert} W"
        );
    }
}
