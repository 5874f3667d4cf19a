//! Seeded record suites — the synthetic stand-ins for the evaluation
//! databases (MIT-BIH Arrhythmia, QT, AF) used by the original paper.
//!
//! Every suite is a pure function of `(n, base_seed)`, so experiments
//! are exactly reproducible and node/base-station pairs can regenerate
//! identical data.

use crate::generator::RecordBuilder;
use crate::noise::NoiseConfig;
use crate::record::Record;
use crate::rhythm::Rhythm;
use crate::scenario::Script;

/// Records with PVC/APC ectopy — the classifier training/eval corpus
/// (MIT-BIH-arrhythmia stand-in).
pub fn ectopy_suite(n: usize, base_seed: u64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let seed = base_seed.wrapping_add(0x1000 + i as u64);
            let hr = 60.0 + (i as f64 * 9.7) % 40.0;
            let snr = 18.0 + (i as f64 * 4.3) % 12.0;
            RecordBuilder::new(seed)
                .duration_s(60.0)
                .n_leads(3)
                .rhythm(Rhythm::SinusWithEctopy {
                    mean_hr_bpm: hr,
                    pvc_rate: 0.10,
                    apc_rate: 0.06,
                })
                .noise(NoiseConfig::ambulatory(snr))
                .build()
        })
        .collect()
}

/// Mixed AF / NSR record set for detector scoring (AFDB stand-in):
/// the first `n_af` records are sustained AF, the rest sinus.
pub fn af_mixed_suite(n_af: usize, n_nsr: usize, base_seed: u64) -> Vec<Record> {
    let mut out = Vec::with_capacity(n_af + n_nsr);
    for i in 0..n_af {
        let seed = base_seed.wrapping_add(0x2000 + i as u64);
        let hr = 85.0 + (i as f64 * 6.1) % 40.0;
        let snr = 15.0 + (i as f64 * 3.7) % 15.0;
        out.push(
            RecordBuilder::new(seed)
                .duration_s(60.0)
                .n_leads(3)
                .rhythm(Rhythm::AtrialFibrillation { mean_hr_bpm: hr })
                .noise(NoiseConfig::ambulatory(snr))
                .build(),
        );
    }
    for i in 0..n_nsr {
        let seed = base_seed.wrapping_add(0x3000 + i as u64);
        let hr = 55.0 + (i as f64 * 8.3) % 45.0;
        let snr = 15.0 + (i as f64 * 4.9) % 15.0;
        out.push(
            RecordBuilder::new(seed)
                .duration_s(60.0)
                .n_leads(3)
                .rhythm(Rhythm::NormalSinus { mean_hr_bpm: hr })
                .noise(NoiseConfig::ambulatory(snr))
                .build(),
        );
    }
    out
}

/// Phase lengths of [`governor_scenario`], seconds:
/// (quiet night, AF episode, recovery).
pub const GOVERNOR_SCENARIO_PHASES_S: (f64, f64, f64) = (240.0, 120.0, 240.0);

/// The power governor's acceptance trace: a quiet night (sinus at
/// 52 bpm), a sustained AF episode (115 bpm ventricular response), and
/// recovery (sinus at 68 bpm), as one continuous 3-lead record with
/// exact regime boundaries ([`GOVERNOR_SCENARIO_PHASES_S`]).
///
/// Both `examples/power_governor.rs` and `tests/governor_scenario.rs`
/// in the workspace root consume *this* function, so the demo output
/// and the pinned lifetime ordering can never drift apart.
///
/// The trace is now defined once as a scenario-DSL script
/// ([`governor_scenario_script`]); this function simply compiles it.
/// A script with no signal adversities renders bit-identically to the
/// old direct [`RecordBuilder`] chain, so every number pinned against
/// this record is unchanged.
pub fn governor_scenario() -> Record {
    governor_scenario_script().record()
}

/// The power governor's acceptance trace as a named scenario-DSL
/// [`Script`] — the shared definition consumed by both the legacy
/// single-trace acceptance path ([`governor_scenario`]) and the cohort
/// engine.
pub fn governor_scenario_script() -> Script {
    let (quiet_s, af_s, recovery_s) = GOVERNOR_SCENARIO_PHASES_S;
    Script::new("governor-three-act", 0xD1A6)
        .leads(3)
        .noise(NoiseConfig::ambulatory(22.0))
        .phase(Rhythm::NormalSinus { mean_hr_bpm: 52.0 }, quiet_s)
        .phase(Rhythm::AtrialFibrillation { mean_hr_bpm: 115.0 }, af_s)
        .phase(Rhythm::NormalSinus { mean_hr_bpm: 68.0 }, recovery_s)
}

/// Records for the compressed-sensing SNR-vs-CR sweep (Figure 5):
/// 3-lead, mildly noisy so that reconstruction quality is dominated by
/// the compression itself.
pub fn cs_eval_suite(n: usize, base_seed: u64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let seed = base_seed.wrapping_add(0x5000 + i as u64);
            let hr = 60.0 + (i as f64 * 11.3) % 40.0;
            RecordBuilder::new(seed)
                .duration_s(20.0)
                .n_leads(3)
                .rhythm(Rhythm::NormalSinus { mean_hr_bpm: hr })
                .noise(NoiseConfig::ambulatory(40.0))
                .build()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rhythm::RhythmLabel;

    #[test]
    fn suites_are_deterministic() {
        let a = cs_eval_suite(2, 7);
        let b = cs_eval_suite(2, 7);
        assert_eq!(a[0].lead(0), b[0].lead(0));
        assert_eq!(a[1].lead(2), b[1].lead(2));
    }

    #[test]
    fn suites_vary_across_records() {
        let s = cs_eval_suite(3, 7);
        assert_ne!(s[0].lead(0), s[1].lead(0));
    }

    #[test]
    fn af_mixed_has_correct_labels() {
        let s = af_mixed_suite(2, 2, 3);
        assert_eq!(s.len(), 4);
        assert!(s[0].af_fraction() > 0.9);
        assert!(s[1].af_fraction() > 0.9);
        assert!(s[2].af_fraction() < 0.05);
        assert!(s[3].af_fraction() < 0.05);
    }

    #[test]
    fn ectopy_suite_contains_ectopic_beats() {
        let s = ectopy_suite(1, 5);
        let ectopic = s[0]
            .beats()
            .iter()
            .filter(|b| b.label == RhythmLabel::Sinus && b.beat_type != crate::BeatType::Normal)
            .count();
        assert!(ectopic > 3, "ectopic beats: {ectopic}");
    }

    #[test]
    fn governor_scenario_script_is_bit_identical_to_legacy_builder() {
        // The DSL migration must not move a single sample: rebuild the
        // trace with the original direct RecordBuilder chain and compare
        // every lead bit-for-bit.
        let (quiet_s, af_s, recovery_s) = GOVERNOR_SCENARIO_PHASES_S;
        let legacy = RecordBuilder::new(0xD1A6)
            .duration_s(quiet_s + af_s + recovery_s)
            .n_leads(3)
            .rhythm(Rhythm::Phased(vec![
                crate::rhythm::RhythmPhase::new(Rhythm::NormalSinus { mean_hr_bpm: 52.0 }, quiet_s),
                crate::rhythm::RhythmPhase::new(
                    Rhythm::AtrialFibrillation { mean_hr_bpm: 115.0 },
                    af_s,
                ),
                crate::rhythm::RhythmPhase::new(
                    Rhythm::NormalSinus { mean_hr_bpm: 68.0 },
                    recovery_s,
                ),
            ]))
            .noise(NoiseConfig::ambulatory(22.0))
            .build();
        let scripted = governor_scenario();
        for l in 0..3 {
            assert_eq!(scripted.lead(l), legacy.lead(l), "lead {l}");
        }
        assert_eq!(scripted.beats(), legacy.beats());
        assert_eq!(scripted.rhythm_spans(), legacy.rhythm_spans());
        assert_eq!(governor_scenario_script().name(), "governor-three-act");
    }
}
