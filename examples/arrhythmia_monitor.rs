//! Arrhythmia monitoring: the paper's headline application.
//!
//! Paper section: Section II (application requirements) + Section
//! IV-B — on-node beat classification by random projections and the
//! AF detector of reference [25], at the top of the Figure 1 ladder.
//!
//! Trains the embedded classifier on synthetic ectopy records, then
//! monitors a patient with PVCs and an AF episode: every beat is
//! classified on-node and AF episodes are extracted — only event
//! summaries ever reach the radio.
//!
//! Run with: `cargo run --example arrhythmia_monitor`

use wbsn::apps::AfMonitorApp;
use wbsn_classify::features::{BeatFeatureExtractor, FeatureConfig};
use wbsn_classify::fuzzy::{FuzzyClassifier, MembershipMode};
use wbsn_core::level::ProcessingLevel;
use wbsn_core::monitor::MonitorBuilder;
use wbsn_core::payload::Payload;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::suite::ectopy_suite;
use wbsn_ecg_synth::{BeatType, RecordBuilder, Rhythm};

fn main() {
    // ---- train the beat classifier (offline, as the paper does) ----
    let mut fe = BeatFeatureExtractor::new(FeatureConfig::default()).expect("default config");
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for rec in ectopy_suite(3, 0xA11) {
        let lead = rec.lead(0);
        let beats = rec.beats();
        for i in 1..beats.len().saturating_sub(1) {
            let r = beats[i].r_sample;
            if let Some(f) = fe.extract(
                lead,
                r,
                r - beats[i - 1].r_sample,
                beats[i + 1].r_sample - r,
            ) {
                xs.push(f);
                ys.push(match beats[i].beat_type {
                    BeatType::Pvc => 1,
                    BeatType::Apc => 2,
                    _ => 0,
                });
            }
        }
    }
    let clf = FuzzyClassifier::train(&xs, &ys, MembershipMode::PiecewiseLinear)
        .expect("training set is consistent");
    println!(
        "classifier trained on {} beats (PWL fuzzy, 3 classes)",
        xs.len()
    );

    // ---- the patient: sinus with PVCs, then an AF episode ----
    let record = RecordBuilder::new(0x9A7)
        .duration_s(240.0)
        .n_leads(3)
        .rhythm(Rhythm::EpisodicAf {
            sinus_hr_bpm: 72.0,
            af_hr_bpm: 98.0,
            episode_len_s: 45.0,
            gap_len_s: 60.0,
        })
        .noise(NoiseConfig::ambulatory(20.0))
        .build();
    println!(
        "patient record: {:.0} s, AF fraction {:.0}%",
        record.duration_s(),
        record.af_fraction() * 100.0
    );

    // ---- the node at the classified level ----
    let mut node = MonitorBuilder::new()
        .level(ProcessingLevel::Classified)
        .classifier(clf)
        .event_interval_s(30.0)
        .build()
        .expect("valid config");
    let payloads = node.process_record(record.leads()).expect("3-lead record");

    println!("\nevent stream ({} payloads):", payloads.len());
    for p in &payloads {
        if let Payload::Events {
            n_beats,
            class_counts,
            mean_hr_x10,
            af_burden_pct,
            af_active,
        } = p
        {
            println!(
                "  {:>3} beats | HR {:5.1} bpm | N {:>3} PVC {:>2} APC {:>2} | AF burden {:>3}% {}",
                n_beats,
                *mean_hr_x10 as f64 / 10.0,
                class_counts[0],
                class_counts[1],
                class_counts[2],
                af_burden_pct,
                if *af_active { "⚠ AF ACTIVE" } else { "" }
            );
        }
    }

    // ---- server-side episode extraction from the same beat stream ----
    let mut app = AfMonitorApp::new(record.fs()).expect("default AF config");
    let lead = record.lead(0);
    let rs =
        wbsn_delineation::QrsDetector::detect(lead, wbsn_delineation::qrs::QrsConfig::default())
            .expect("detector config");
    let delineated = wbsn_delineation::WaveletDelineator::new(
        wbsn_delineation::wavelet::WaveletConfig::default(),
    )
    .expect("delineator config")
    .delineate(lead, &rs);
    for b in &delineated {
        app.add_beat(b.r_peak, b.has_p());
    }
    println!("\ndetected AF episodes:");
    for e in app.episodes() {
        println!("  {:6.1} s → {:6.1} s", e.start_s, e.end_s);
    }
    println!(
        "ground truth AF spans: {:?}",
        record
            .rhythm_spans()
            .iter()
            .filter(|s| s.label == wbsn_ecg_synth::RhythmLabel::Af)
            .map(|s| {
                (
                    s.start_sample as f64 / record.fs() as f64,
                    s.end_sample as f64 / record.fs() as f64,
                )
            })
            .collect::<Vec<_>>()
    );
    let report = node.energy_report();
    println!(
        "\nnode power: {:.2} mW → {:.0} days battery life",
        report.breakdown.avg_power_mw(),
        report.lifetime_days
    );
}
