//! Regression pin for the nastiest scripted adversity stack: a node
//! reboot *and* an electrode dropout mid-session, under a degraded
//! channel regime — driven entirely through the scenario DSL and the
//! shared [`CohortRunner::run_plans`] entry.
//!
//! The claims:
//!
//! * **Re-registration recovers** — after the reboot the gateway
//!   accepts the fresh incarnation and the session keeps producing
//!   payloads; an AF episode scheduled *after* the reboot is still
//!   detected end to end.
//! * **The retransmit machinery drains** — the lossy regime provably
//!   loses messages and NACK-driven retransmission provably recovers
//!   some of them.
//! * **No event is silently dropped** — the Lost/Recovered counts
//!   folded from the session's observation log equal the gateway's own
//!   per-session reports, exactly, also when the losses happen before
//!   a reboot re-registers the session.
//! * **The CS path survives a reboot** — window numbering restarts
//!   with the new incarnation and PRD probing resumes at the next
//!   segment's re-anchored reference.

use wbsn::cohort::{CohortRunConfig, CohortRunner, SessionPlan};
use wbsn_ecg_synth::cohort::{AgeBand, NoiseProfile, PatientProfile, RhythmBurden};
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::scenario::{Adversity, Script};
use wbsn_ecg_synth::Rhythm;

const SEG_S: f64 = 120.0;

fn profile(session_index: usize, cs: bool) -> PatientProfile {
    PatientProfile {
        session_index,
        seed: 0xADA9 + session_index as u64,
        age_band: AgeBand::MidLife,
        burden: RhythmBurden::ParoxysmalAf,
        noise: NoiseProfile::Ambulatory,
        baseline_hr_bpm: 68.0,
        n_leads: if cs { 1 } else { 3 },
        cs_uplink: cs,
    }
}

/// Events-mode patient: dropout + reboot under a lossy regime in hour
/// 0, a clean sustained AF episode in hour 1 (after the reboot).
fn events_plan() -> SessionPlan {
    let h0 = Script::new("adversity-h0", 0xE0)
        .leads(3)
        .noise(NoiseConfig::ambulatory(20.0))
        .phase(Rhythm::NormalSinus { mean_hr_bpm: 66.0 }, SEG_S)
        .adversity(
            10.0,
            70.0,
            Adversity::ChannelRegime {
                drop_rate: 0.10,
                corrupt_rate: 0.005,
            },
        )
        .adversity(20.0, 12.0, Adversity::ElectrodeDropout { lead: 1 })
        .at(55.0, Adversity::NodeReboot);
    let h1 = Script::new("adversity-h1", 0xE1)
        .leads(3)
        .noise(NoiseConfig::ambulatory(22.0))
        .phase(Rhythm::NormalSinus { mean_hr_bpm: 66.0 }, 20.0)
        .phase(Rhythm::AtrialFibrillation { mean_hr_bpm: 112.0 }, 80.0)
        .phase(Rhythm::NormalSinus { mean_hr_bpm: 70.0 }, 20.0);
    SessionPlan {
        profile: profile(0, false),
        scripts: vec![h0, h1],
    }
}

/// CS-mode patient: reboot mid-hour-0; PRD probing must resume at the
/// hour-1 reference.
fn cs_plan() -> SessionPlan {
    let h0 = Script::new("adversity-cs-h0", 0xC0)
        .leads(1)
        .noise(NoiseConfig::clean())
        .phase(Rhythm::NormalSinus { mean_hr_bpm: 64.0 }, SEG_S)
        .at(48.0, Adversity::NodeReboot);
    let h1 = Script::new("adversity-cs-h1", 0xC1)
        .leads(1)
        .noise(NoiseConfig::clean())
        .phase(Rhythm::NormalSinus { mean_hr_bpm: 72.0 }, SEG_S);
    SessionPlan {
        profile: profile(1, true),
        scripts: vec![h0, h1],
    }
}

/// CS-mode patient whose losses all fall in its first incarnation: a
/// lossy regime over 10–40 s, a reboot at 60 s, and a clean link
/// afterwards.
fn lossy_then_reboot_plan() -> SessionPlan {
    let h0 = Script::new("loss-then-reboot-h0", 0xB0)
        .leads(1)
        .noise(NoiseConfig::clean())
        .phase(Rhythm::NormalSinus { mean_hr_bpm: 70.0 }, SEG_S)
        .adversity(
            10.0,
            30.0,
            Adversity::ChannelRegime {
                drop_rate: 0.25,
                corrupt_rate: 0.0,
            },
        )
        .at(60.0, Adversity::NodeReboot);
    SessionPlan {
        profile: profile(2, true),
        scripts: vec![h0],
    }
}

fn runner() -> CohortRunner {
    CohortRunner::new(CohortRunConfig {
        reconstruct_every: 2,
        ..CohortRunConfig::smoke()
    })
}

#[test]
fn reboot_and_dropout_mid_session_recover_cleanly() {
    let plans = [events_plan(), cs_plan()];
    let report = runner().run_plans(&plans).unwrap();

    // Both scripted reboots were enacted.
    assert_eq!(report.reboots, 2, "{report:?}");

    // Re-registration recovered: the post-reboot AF episode (hour 1 of
    // the events patient) was detected end to end.
    assert_eq!(report.detection.episodes, 1, "{:?}", report.detection);
    assert_eq!(
        report.detection.detected, 1,
        "post-reboot AF episode missed: {:?}",
        report.detection
    );

    // The lossy regime hurt, and NACK-driven retransmission drained
    // the retransmit buffer back into the stream.
    assert!(report.link.lost > 0, "regime never lost a message");
    assert!(
        report.link.recovered > 0,
        "retransmissions never recovered a loss: {:?}",
        report.link
    );
    assert!(report.link.nacks_sent > 0);

    // Nothing silently dropped: event-derived counts match the
    // gateway's own reports exactly.
    assert_eq!(
        report.link.lost_events, report.link.lost,
        "{:?}",
        report.link
    );
    assert_eq!(
        report.link.recovered_events, report.link.recovered,
        "{:?}",
        report.link
    );

    // The CS session's PRD probing survived its reboot: windows were
    // reconstructed against the re-anchored hour-1 reference.
    assert!(
        report.prd.windows > 0,
        "no PRD-scored windows after the CS reboot: {:?}",
        report.prd
    );
    assert!(
        report.prd.mean_percent > 0.0 && report.prd.mean_percent < 15.0,
        "implausible PRD after re-anchoring: {:?}",
        report.prd
    );
}

#[test]
fn losses_before_a_reboot_stay_in_the_link_report() {
    // Re-registration replaces the gateway's decoder and feedback
    // state; the report must still count the first incarnation's link
    // traffic, or it would fall short of the observation log.
    let report = runner().run_plans(&[lossy_then_reboot_plan()]).unwrap();
    assert_eq!(report.reboots, 1, "{report:?}");
    assert!(
        report.link.lost > 0,
        "the regime lost nothing: {:?}",
        report.link
    );
    assert!(report.link.nacks_sent > 0, "{:?}", report.link);
    assert_eq!(
        report.link.lost_events, report.link.lost,
        "{:?}",
        report.link
    );
    assert_eq!(
        report.link.recovered_events, report.link.recovered,
        "{:?}",
        report.link
    );
}

#[test]
fn adversity_run_replays_bit_identically() {
    // The scripted stack above must itself be deterministic — same
    // plans, same report, at different worker counts.
    let plans = [events_plan(), cs_plan()];
    let a = runner().run_plans(&plans).unwrap();
    let b = CohortRunner::new(CohortRunConfig {
        reconstruct_every: 2,
        workers: 4,
        ..CohortRunConfig::smoke()
    })
    .run_plans(&plans)
    .unwrap();
    assert_eq!(a, b);
}
