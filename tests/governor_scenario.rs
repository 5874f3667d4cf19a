//! The closed-loop power governor's acceptance scenario: a quiet
//! night, an AF episode, recovery — one continuous `ecg-synth` trace
//! (`wbsn_ecg_synth::suite::governor_scenario`, shared with
//! `examples/power_governor.rs` so the demo and this pin cannot
//! drift).
//!
//! The governed session must (a) escalate to diagnostic fidelity while
//! the AF episode runs, (b) recover to the economy mode afterwards,
//! and (c) end with a **longer modeled battery lifetime than every
//! static `ProcessingLevel`** run over the same trace at the session's
//! configured (3-lead) acquisition — the paper's static Figure 6
//! trade-off, closed into a loop. Static baselines run through the
//! same epoch-priced harness (a governor pinned to one mode), so the
//! lifetime comparison uses one pricing path for everything.

use wbsn_core::governor::{FidelityTier, GovernedMonitor, GovernorConfig};
use wbsn_core::level::{OperatingMode, ProcessingLevel};
use wbsn_core::monitor::MonitorBuilder;
use wbsn_ecg_synth::suite::{governor_scenario, GOVERNOR_SCENARIO_PHASES_S};

/// Runs one governed session over the shared trace and returns it for
/// inspection — the same `GovernedMonitor::process_record` driver the
/// example uses.
fn run(cfg: GovernorConfig) -> GovernedMonitor {
    let rec = governor_scenario();
    let mut gm = GovernedMonitor::new(
        MonitorBuilder::new().n_leads(rec.n_leads()).fs_hz(rec.fs()),
        cfg,
        Default::default(),
    )
    .unwrap();
    gm.process_record(rec.leads()).unwrap();
    gm
}

#[test]
fn governed_lifetime_beats_every_static_level() {
    let governed = run(GovernorConfig::for_leads(3));
    let governed_days = governed.projected_lifetime_days();
    let mut best_static = 0.0f64;
    for level in ProcessingLevel::ALL {
        let pinned = run(GovernorConfig::pinned(OperatingMode::new(level, 3)));
        assert!(pinned.switch_log().is_empty(), "{level} baseline switched");
        let static_days = pinned.projected_lifetime_days();
        best_static = best_static.max(static_days);
        assert!(
            governed_days > static_days,
            "governed {governed_days:.1} d must beat static {level} {static_days:.1} d"
        );
    }
    // And the margin over the best static level is material, not an
    // epsilon artifact.
    assert!(
        governed_days > 1.1 * best_static,
        "governed {governed_days:.1} d vs best static {best_static:.1} d"
    );
}

#[test]
fn governor_escalates_during_af_and_recovers_after() {
    let (quiet_s, af_s, _) = GOVERNOR_SCENARIO_PHASES_S;
    let governed = run(GovernorConfig::for_leads(3));
    let log = governed.switch_log();
    assert!(!log.is_empty(), "the governor never switched");

    // It reached the economy mode during the quiet night, before the
    // AF episode began.
    let cfg = GovernorConfig::for_leads(3);
    let economy_at = log
        .iter()
        .find(|e| e.to == cfg.economy_mode)
        .expect("never reached economy");
    assert!(
        economy_at.at_s < quiet_s,
        "economy only at {:.0} s",
        economy_at.at_s
    );

    // It escalated to the alert (delineated, all leads) mode while the
    // AF episode was actually running.
    let alert_at = log
        .iter()
        .find(|e| e.to == cfg.alert_mode)
        .expect("never escalated to alert");
    assert!(
        alert_at.at_s >= quiet_s && alert_at.at_s <= quiet_s + af_s,
        "alert at {:.0} s, AF ran {quiet_s:.0}..{:.0} s",
        alert_at.at_s,
        quiet_s + af_s
    );
    assert_eq!(alert_at.tier, FidelityTier::Alert);

    // After the episode it stepped back down and ended in economy.
    let last = log.last().unwrap();
    assert_eq!(last.to, cfg.economy_mode, "did not return to economy");
    assert!(last.at_s > quiet_s + af_s);
    assert_eq!(governed.mode(), cfg.economy_mode);

    // The battery model actually drained.
    assert!(governed.battery().soc() < 1.0);
    assert!(governed.average_power_w() > 0.0);
}

#[test]
fn governed_session_is_deterministic() {
    let a = run(GovernorConfig::for_leads(3));
    let b = run(GovernorConfig::for_leads(3));
    assert_eq!(a.switch_log(), b.switch_log());
    assert_eq!(a.monitor().counters(), b.monitor().counters());
    assert!((a.average_power_w() - b.average_power_w()).abs() < 1e-18);
}
