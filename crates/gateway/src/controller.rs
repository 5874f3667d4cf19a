//! Adaptive link control: measured link health → CR directives.
//!
//! The node picks its compression ratio blind; only the gateway sees
//! what the channel actually did to the stream. The [`LinkController`]
//! closes that gap: per downlink pump it observes the session's mean
//! reconstruction PRD and message loss rate, and walks the node up and
//! down a configured **CR ladder** — stepping *down* (spending more
//! measurements per window) when the link degrades or quality nears
//! the diagnostic bar, stepping back *up* (recovering battery life)
//! once the channel heals and quality has headroom. Transitions are
//! dwell-gated with the same discipline as the node's power governor:
//! after every directive the controller holds for a configured number
//! of pumps, so a directive's effect (a re-announced handshake, a
//! refilled pipeline) is actually *measured* before the next move —
//! no flapping on transient loss bursts.
//!
//! The controller is pure decision logic: it never touches the wire.
//! The [`Gateway`](crate::gateway::Gateway) owns one per session
//! (when [`GatewayConfig::controller`](crate::gateway::GatewayConfig)
//! is set), feeds it observations at pump time, and turns its verdicts
//! into [`DirectiveAction::SetCr`] downlink frames.

use wbsn_core::link::DirectiveAction;

/// Policy knobs of the adaptive CR controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// CR rungs in percent, ascending (more compression → fewer bytes
    /// → longer battery, at higher PRD). The controller only ever
    /// commands values from this ladder.
    pub cr_ladder: Vec<f64>,
    /// Diagnostic quality bar: mean clean-window PRD above this forces
    /// a step down (percent).
    pub prd_target: f64,
    /// Step up only while mean PRD is at or below this (percent) —
    /// the headroom that absorbs the quality cost of the next rung.
    pub step_up_prd_max: f64,
    /// Message loss rate above which the link counts as degraded and
    /// the controller steps down (fraction, 0–1).
    pub loss_step_down: f64,
    /// Loss rate at or below which the link counts as healed and a
    /// step up is allowed (fraction, 0–1).
    pub loss_step_up: f64,
    /// Pumps to hold after every directive before deciding again.
    pub dwell_pumps: u32,
}

impl Default for ControllerConfig {
    /// Ladder and thresholds measured on this repo's own pipeline
    /// (window 512, clean channel, default gateway solver): 45% CR
    /// reconstructs at ≈3.9% mean PRD, 50% at ≈6.1%, 54% at ≈7.9% —
    /// the top rung sits just inside the 9% "very good" bar, the
    /// bottom rung keeps diagnostic margin even when the link is
    /// eating windows. (CR ≥55% crosses 9% mean PRD on this
    /// pipeline, so it is not a usable rung.)
    fn default() -> Self {
        ControllerConfig {
            cr_ladder: vec![45.0, 50.0, 54.0],
            prd_target: 9.0,
            step_up_prd_max: 6.5,
            loss_step_down: 0.02,
            loss_step_up: 0.005,
            dwell_pumps: 3,
        }
    }
}

/// Why the controller issued (or withheld) a directive, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlDecision {
    /// Link degraded or quality at the bar: commanded one rung down.
    SteppedDown,
    /// Link healed with quality headroom: commanded one rung up.
    SteppedUp,
    /// Inside the dwell window or nothing to change.
    Hold,
}

/// Smoothing factor of the controller's observation memories: each
/// pump with a measurement moves the decayed value halfway toward it.
/// Per-pump observations are shot noise — messages are coarse (one CS
/// window each), so the instantaneous loss rate is usually 0 or 1,
/// and the per-pump mean PRD is typically a *single* window, whose
/// PRD swings by several points window to window. The exponential
/// memories turn both into usable signals: one lost window pins the
/// controller down for several pumps (a step back up needs ≈7
/// loss-free pumps to decay from 0.5 under the default
/// `loss_step_up`), and one outlier window cannot trip the quality
/// bar on its own.
const EWMA_ALPHA: f64 = 0.5;

fn ewma(memory: &mut Option<f64>, sample: Option<f64>) {
    if let Some(s) = sample {
        *memory = Some(match *memory {
            Some(prev) => prev + EWMA_ALPHA * (s - prev),
            None => s,
        });
    }
}

/// Per-session adaptive CR state machine. See the module docs.
#[derive(Debug, Clone)]
pub struct LinkController {
    cfg: ControllerConfig,
    pumps_since_change: u32,
    directives: u64,
    loss_ewma: Option<f64>,
    prd_ewma: Option<f64>,
}

impl LinkController {
    /// Controller with the given policy. An empty ladder is tolerated
    /// (the controller simply never moves), so construction cannot
    /// fail mid-pump.
    pub fn new(cfg: ControllerConfig) -> Self {
        LinkController {
            cfg,
            // Born dwell-elapsed: the first observation may act.
            pumps_since_change: u32::MAX,
            directives: 0,
            loss_ewma: None,
            prd_ewma: None,
        }
    }

    /// Directives issued so far.
    pub fn directives(&self) -> u64 {
        self.directives
    }

    /// Ladder index whose CR is nearest to `cr_percent` — the
    /// controller re-derives its rung from the *installed handshake*
    /// every pump, so a node reboot (which re-announces the configured
    /// CR) or a lost directive can never desynchronize them.
    fn rung_of(&self, cr_percent: f64) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &cr) in self.cfg.cr_ladder.iter().enumerate() {
            let d = (cr - cr_percent).abs();
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The decayed loss rate the decisions run on (`None` until the
    /// first pump that actually moved messages).
    pub fn loss_memory(&self) -> Option<f64> {
        self.loss_ewma
    }

    /// One pump's observation: the session's current CR (from its
    /// installed handshake), the mean clean-window PRD since the last
    /// pump (`None` when no window reconstructed), and the message
    /// loss rate since the last pump (`None` when no messages moved).
    /// Both observations are folded into exponential memories
    /// (`EWMA_ALPHA`) before thresholding, so single lost windows
    /// and single outlier reconstructions register as sustained
    /// evidence rather than one-pump blips. Returns the directive to
    /// issue, if any.
    pub fn observe(
        &mut self,
        cr_percent: f64,
        mean_prd: Option<f64>,
        loss_rate: Option<f64>,
    ) -> Option<DirectiveAction> {
        ewma(&mut self.loss_ewma, loss_rate);
        ewma(&mut self.prd_ewma, mean_prd);
        self.pumps_since_change = self.pumps_since_change.saturating_add(1);
        if self.pumps_since_change <= self.cfg.dwell_pumps {
            return None;
        }
        let rung = self.rung_of(cr_percent)?;
        let (loss, prd) = (self.loss_ewma, self.prd_ewma);
        let degraded = loss.is_some_and(|l| l > self.cfg.loss_step_down)
            || prd.is_some_and(|p| p > self.cfg.prd_target);
        let healed = loss.is_none_or(|l| l <= self.cfg.loss_step_up)
            && prd.is_some_and(|p| p <= self.cfg.step_up_prd_max);
        let target = if degraded {
            rung.checked_sub(1)?
        } else if healed && rung + 1 < self.cfg.cr_ladder.len() {
            rung + 1
        } else {
            return None;
        };
        let cr = *self.cfg.cr_ladder.get(target)?;
        self.pumps_since_change = 0;
        self.directives += 1;
        // cr_x10 is exact for ladder values specified to one decimal.
        Some(DirectiveAction::SetCr {
            cr_x10: (cr * 10.0).round() as u16,
        })
    }

    /// What the last call to [`observe`](Self::observe) would decide
    /// for the given inputs *without* mutating state — used by tests
    /// and reports to explain the policy.
    pub fn classify(&self, mean_prd: Option<f64>, loss_rate: Option<f64>) -> ControlDecision {
        if self.pumps_since_change < self.cfg.dwell_pumps {
            return ControlDecision::Hold;
        }
        // The same memories observe() would act on, without committing
        // the updates.
        let mut loss = self.loss_ewma;
        ewma(&mut loss, loss_rate);
        let mut prd = self.prd_ewma;
        ewma(&mut prd, mean_prd);
        if loss.is_some_and(|l| l > self.cfg.loss_step_down)
            || prd.is_some_and(|p| p > self.cfg.prd_target)
        {
            ControlDecision::SteppedDown
        } else if loss.is_none_or(|l| l <= self.cfg.loss_step_up)
            && prd.is_some_and(|p| p <= self.cfg.step_up_prd_max)
        {
            ControlDecision::SteppedUp
        } else {
            ControlDecision::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cr_of(action: DirectiveAction) -> f64 {
        match action {
            DirectiveAction::SetCr { cr_x10 } => cr_x10 as f64 / 10.0,
            other => panic!("expected SetCr, got {other:?}"),
        }
    }

    #[test]
    fn degradation_steps_down_heal_steps_back_up() {
        let cfg = ControllerConfig::default();
        let mut c = LinkController::new(cfg.clone());
        // Clean link at the middle rung with headroom: steps up.
        let up = c.observe(50.0, Some(6.1), Some(0.0)).unwrap();
        assert_eq!(cr_of(up), 54.0);
        // Dwell holds even under loss...
        for _ in 0..cfg.dwell_pumps {
            assert!(c.observe(54.0, Some(7.9), Some(0.06)).is_none());
        }
        // ...then the degraded link steps down one rung at a time.
        let down = c.observe(54.0, Some(7.9), Some(0.06)).unwrap();
        assert_eq!(cr_of(down), 50.0);
        for _ in 0..cfg.dwell_pumps {
            assert!(c.observe(50.0, Some(6.1), Some(0.06)).is_none());
        }
        let down = c.observe(50.0, Some(6.1), Some(0.06)).unwrap();
        assert_eq!(cr_of(down), 45.0);
        // At the bottom rung, degradation has nowhere to go.
        for _ in 0..cfg.dwell_pumps {
            c.observe(45.0, Some(3.9), Some(0.06));
        }
        assert!(c.observe(45.0, Some(3.9), Some(0.06)).is_none());
        assert_eq!(c.directives(), 3);
    }

    #[test]
    fn quality_at_the_bar_steps_down_even_on_a_clean_channel() {
        let mut c = LinkController::new(ControllerConfig::default());
        let down = c.observe(54.0, Some(9.4), Some(0.0)).unwrap();
        assert_eq!(cr_of(down), 50.0);
    }

    #[test]
    fn one_lost_window_pins_the_controller_until_a_sustained_clean_stretch() {
        let mut c = LinkController::new(ControllerConfig::default());
        // Messages are whole CS windows, so a pump that lost its one
        // message observes loss 1.0. At the bottom rung there is no
        // further down, but the memory is now saturated.
        assert!(c.observe(45.0, Some(3.9), Some(1.0)).is_none());
        assert_eq!(c.loss_memory(), Some(1.0));
        // A single clean pump halves the memory — still far above the
        // heal bar, so no step up on a one-pump blip.
        assert!(c.observe(45.0, Some(3.9), Some(0.0)).is_none());
        assert_eq!(c.loss_memory(), Some(0.5));
        // A genuinely sustained clean stretch decays it through
        // loss_step_up and releases the step up.
        let mut stepped = 0;
        for _ in 0..12 {
            if c.observe(45.0, Some(3.9), Some(0.0)).is_some() {
                stepped += 1;
                break;
            }
        }
        assert_eq!(stepped, 1, "memory must eventually decay and step up");
    }

    #[test]
    fn no_observations_hold_and_an_empty_ladder_never_moves() {
        let mut c = LinkController::new(ControllerConfig::default());
        // Loss unknown counts as healed, but without a PRD measurement
        // there is no evidence of headroom: hold.
        assert!(c.observe(50.0, None, None).is_none());
        let mut empty = LinkController::new(ControllerConfig {
            cr_ladder: Vec::new(),
            ..ControllerConfig::default()
        });
        assert!(empty.observe(50.0, Some(20.0), Some(0.5)).is_none());
    }
}
