//! Scenario: the closed-loop power governor over a quiet night, an AF
//! episode, and recovery — closing the loop on the paper's central
//! trade-off.
//!
//! Paper section: Section III + Figure 6 pick one processing level per
//! deployment and price it forever; this example makes that choice
//! *at runtime*. A 3-lead node idles at single-lead classification,
//! escalates to full-lead delineation the moment its AF detector
//! fires (diagnostic fidelity exactly when a clinician needs it), and
//! steps back down — with hysteresis — once the rhythm settles. Every
//! static level and the governed run are priced through the same
//! epoch-driven battery model, so the printed lifetimes are directly
//! comparable; the governed run must beat all five static rows
//! (pinned by `tests/governor_scenario.rs`).
//!
//! Run with: `cargo run --release --example power_governor`

use wbsn_core::governor::{GovernedMonitor, GovernorConfig};
use wbsn_core::level::{OperatingMode, ProcessingLevel};
use wbsn_core::monitor::MonitorBuilder;
use wbsn_ecg_synth::suite::{governor_scenario, GOVERNOR_SCENARIO_PHASES_S};
use wbsn_ecg_synth::Record;

const QUIET_S: f64 = GOVERNOR_SCENARIO_PHASES_S.0;
const AF_S: f64 = GOVERNOR_SCENARIO_PHASES_S.1;
const RECOVERY_S: f64 = GOVERNOR_SCENARIO_PHASES_S.2;

fn run(cfg: GovernorConfig, rec: &Record) -> GovernedMonitor {
    let mut gm = GovernedMonitor::new(
        MonitorBuilder::new().n_leads(rec.n_leads()).fs_hz(rec.fs()),
        cfg,
        Default::default(),
    )
    .expect("valid configuration");
    gm.process_record(rec.leads()).expect("well-formed record");
    gm
}

fn main() {
    // The trace is shared with `tests/governor_scenario.rs`, so this
    // demo and the pinned lifetime ordering cannot drift apart.
    let rec = governor_scenario();
    let total_s = QUIET_S + AF_S + RECOVERY_S;
    println!("=== Closed-loop power governor: quiet night -> AF episode -> recovery ===");
    println!(
        "trace: {:.0} s quiet sinus (52 bpm) | {:.0} s AF (115 bpm) | {:.0} s recovery (68 bpm)",
        QUIET_S, AF_S, RECOVERY_S
    );
    println!();

    // Static baselines: each ProcessingLevel pinned at 3 always-on
    // leads, priced through the identical epoch harness.
    println!(
        "{:<22} {:>12} {:>14} {:>12}",
        "configuration", "avg power", "radio bytes", "lifetime"
    );
    let mut best_static = 0.0f64;
    for level in ProcessingLevel::ALL {
        let pinned = run(GovernorConfig::pinned(OperatingMode::new(level, 3)), &rec);
        let days = pinned.projected_lifetime_days();
        best_static = best_static.max(days);
        println!(
            "{:<22} {:>9.3} mW {:>12} B {:>9.1} d",
            format!("static {level}"),
            pinned.average_power_w() * 1e3,
            pinned.monitor().counters().payload_bytes,
            days
        );
    }

    let governed = run(GovernorConfig::for_leads(3), &rec);
    let days = governed.projected_lifetime_days();
    println!(
        "{:<22} {:>9.3} mW {:>12} B {:>9.1} d",
        "governed (adaptive)",
        governed.average_power_w() * 1e3,
        governed.monitor().counters().payload_bytes,
        days
    );
    println!();
    println!(
        "governed vs best static: {:.1} d vs {:.1} d  ({:+.0}% lifetime)",
        days,
        best_static,
        (days / best_static - 1.0) * 100.0
    );
    println!(
        "battery after the {:.0} s trace: {:.4}% state of charge",
        total_s,
        governed.battery().soc() * 100.0
    );

    println!();
    println!("governor switch log:");
    for e in governed.switch_log() {
        println!(
            "  t={:>5.0} s  {:<28} -> {:<28} [{:?}, {:?}]",
            e.at_s,
            e.from.to_string(),
            e.to.to_string(),
            e.tier,
            e.reason
        );
    }
    println!();
    println!(
        "The escalation lands inside the AF window ({:.0}..{:.0} s): full-lead",
        QUIET_S,
        QUIET_S + AF_S
    );
    println!("delineation exactly while there is something to diagnose, single-lead");
    println!("classification the rest of the night — that asymmetry is the lifetime win.");
}
