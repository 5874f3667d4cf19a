//! Sleep monitoring via heart-rate variability — the paper's abstract
//! names "autonomous sleep monitoring for critical scenarios, such as
//! monitoring of the sleep state of airline pilots".
//!
//! Paper section: Abstract + Section II — behavioural applications
//! that "only require processing of beat-to-beat intervals", the
//! cheapest workload class of the ladder.
//!
//! Simulates a subject drifting from wakefulness into rest (heart rate
//! falls, vagal tone rises) and shows the on-node HRV metrics + sleep
//! score tracking the transition.
//!
//! Run with: `cargo run --example sleep_monitor`

use wbsn::apps::HrvAnalyzer;
use wbsn_delineation::qrs::QrsConfig;
use wbsn_delineation::QrsDetector;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::{RecordBuilder, Rhythm};

fn main() {
    // Two physiological states, back to back.
    let awake = RecordBuilder::new(0x51)
        .duration_s(180.0)
        .rhythm(Rhythm::NormalSinus { mean_hr_bpm: 82.0 })
        .noise(NoiseConfig::ambulatory(20.0))
        .build();
    let asleep = RecordBuilder::new(0x52)
        .duration_s(180.0)
        .rhythm(Rhythm::NormalSinus { mean_hr_bpm: 56.0 })
        .noise(NoiseConfig::ambulatory(24.0))
        .build();

    let mut hrv = HrvAnalyzer::new(250.0, 120.0);
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "t [s]", "HR [bpm]", "SDNN [ms]", "RMSSD[ms]", "pNN50 [%]", "sleep score"
    );
    let mut offset = 0usize;
    for (rec, label) in [(awake, "awake"), (asleep, "resting")] {
        let beats = QrsDetector::detect(rec.lead(0), QrsConfig::default()).expect("fs valid");
        for (k, &r) in beats.iter().enumerate() {
            hrv.add_beat(r + offset);
            // Report once every ~30 beats.
            if k % 30 == 29 {
                if let Some(m) = hrv.metrics() {
                    let t = (r + offset) as f64 / 250.0;
                    println!(
                        "{:>8.0} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>12.2}  ({label})",
                        t,
                        m.mean_hr_bpm,
                        m.sdnn_ms,
                        m.rmssd_ms,
                        m.pnn50_pct,
                        hrv.sleep_score().unwrap_or(0.0)
                    );
                }
            }
        }
        offset += rec.n_samples();
    }
    println!(
        "\nThe sleep score rises as the heart slows and variability increases —\nthe beat-to-beat-interval level of processing (Section II: behavioural\napplications \"only require processing of beat-to-beat intervals\")."
    );
}
