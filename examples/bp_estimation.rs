//! Cuffless blood-pressure trending from ECG + PPG.
//!
//! Paper section: Section IV-C — multi-modal pulse-arrival-time
//! estimation as the paper's example of fusing a second sensing
//! modality on the same ultra-low-power node.
//!
//! Generates a subject whose blood pressure rises over twenty minutes
//! (pulse-transit time falls), measures the pulse arrival time from
//! the synthetic PPG, calibrates against sparse "cuff readings" and
//! tracks the trend.
//!
//! Run with: `cargo run --example bp_estimation`

use wbsn_ecg_synth::ppg::{PpgConfig, PpgSignal, PttProfile};
use wbsn_ecg_synth::{RecordBuilder, Rhythm};
use wbsn_multimodal::pat::{BpEstimator, PatDetector};
use wbsn_sigproc::stats::{correlation, mean};

fn main() {
    let record = RecordBuilder::new(0xB9)
        .duration_s(240.0)
        .rhythm(Rhythm::NormalSinus { mean_hr_bpm: 74.0 })
        .build();
    // BP rises: PTT falls 0.27 s -> 0.19 s.
    let ppg = PpgSignal::generate(
        &record,
        &PpgConfig {
            ptt: PttProfile::Ramp {
                start_s: 0.27,
                end_s: 0.19,
            },
            noise_snr_db: Some(14.0),
            ..PpgConfig::default()
        },
        7,
    );
    let anchors: Vec<usize> = record.beats().iter().map(|b| b.r_sample).collect();

    let detector = PatDetector {
        fs_hz: record.fs() as f64,
        ..PatDetector::default()
    };
    let pats: Vec<f64> = detector
        .measure(&ppg.samples, &anchors)
        .iter()
        .map(|m| m.pat_s)
        .collect();
    // Ground truth via the standard surrogate model.
    let truth: Vec<f64> = ppg.ptt_s.iter().map(|&p| 42.0 + 21.0 / p).collect();
    let n = pats.len().min(truth.len());

    // Three "cuff readings": start, middle, end of the session.
    let cal_idx = [5usize, n / 2, n - 5];
    let cal_pats: Vec<f64> = cal_idx.iter().map(|&i| pats[i]).collect();
    let cal_bp: Vec<f64> = cal_idx.iter().map(|&i| truth[i]).collect();
    let bp = BpEstimator::calibrate(&cal_pats, &cal_bp).expect("3 spread readings");
    println!(
        "calibrated on 3 cuff readings: {:.0} / {:.0} / {:.0} mmHg",
        cal_bp[0], cal_bp[1], cal_bp[2]
    );

    println!(
        "\n{:>8} {:>10} {:>12} {:>12}",
        "t [s]", "PAT [ms]", "BP est", "BP truth"
    );
    for i in (0..n).step_by(20) {
        let est = bp.estimate(pats[i]);
        println!(
            "{:>8.0} {:>10.0} {:>12.1} {:>12.1}",
            anchors[i] as f64 / record.fs() as f64,
            pats[i] * 1000.0,
            est,
            truth[i]
        );
    }
    let est: Vec<f64> = pats[..n].iter().map(|&p| bp.estimate(p)).collect();
    let errs: Vec<f64> = est
        .iter()
        .zip(&truth[..n])
        .map(|(e, t)| (e - t).abs())
        .collect();
    println!(
        "\nover {} beats: MAE {:.1} mmHg, correlation {:.3}",
        n,
        mean(&errs),
        correlation(&est, &truth[..n])
    );
    println!("(AAMI's 5±8 mmHg would require per-subject models; the trend is the point.)");
}
