//! Text claims T6 (Section IV-C): multi-modal estimation.
//!
//! * EA and AICF both exploit the ECG time-locking to denoise the PPG;
//!   "the disadvantage of using EA is that the beat-to-beat variation
//!   of the signals is lost … AICF, on the other hand, is also capable
//!   of tracking dynamic changes."
//! * PAT → PWV → BP: "the pulse arrival time … can be used to estimate
//!   the pulse wave velocity, which is a surrogate marker for arterial
//!   stiffness and BP."

use wbsn_bench::header;
use wbsn_ecg_synth::ppg::{PpgConfig, PpgSignal, PttProfile};
use wbsn_ecg_synth::{RecordBuilder, Rhythm};
use wbsn_multimodal::pat::{BpEstimator, PatDetector};
use wbsn_multimodal::{Aicf, EnsembleAverager};
use wbsn_sigproc::stats::{correlation, mean};

fn main() {
    header(
        "T6 (text, §IV-C)",
        "EA vs AICF PPG denoising; PAT-based blood-pressure trending",
        "EA/AICF denoise via ECG time-locking; AICF tracks dynamics; BP ∝ 1/PAT",
    );
    let rec = RecordBuilder::new(0x77)
        .duration_s(120.0)
        .rhythm(Rhythm::NormalSinus { mean_hr_bpm: 70.0 })
        .build();
    let fs = rec.fs() as f64;

    // ---- denoising: stationary PPG at 5 dB ----
    let clean = PpgSignal::generate(&rec, &PpgConfig::default(), 1);
    let noisy = PpgSignal::generate(
        &rec,
        &PpgConfig {
            noise_snr_db: Some(5.0),
            ..PpgConfig::default()
        },
        1,
    );
    let anchors: Vec<usize> = rec.beats().iter().map(|b| b.r_sample).collect();
    let seg_len = (0.6 * fs) as usize;
    let noisy_segs = EnsembleAverager::segments(&noisy.samples, &anchors, 0, seg_len);
    let clean_segs = EnsembleAverager::segments(&clean.samples, &anchors, 0, seg_len);
    let mut ea = EnsembleAverager::new(seg_len);
    let mut aicf = Aicf::new(seg_len, 0.12);
    let mut ea_mse = 0.0;
    let mut aicf_mse = 0.0;
    let mut raw_mse = 0.0;
    let mut counted = 0usize;
    for (i, (n_seg, c_seg)) in noisy_segs.iter().zip(&clean_segs).enumerate() {
        ea.add(n_seg);
        let a_est = aicf.process(n_seg);
        if i >= 20 {
            // steady state
            let e_est = ea.template();
            ea_mse += mse(&e_est, c_seg);
            aicf_mse += mse(&a_est, c_seg);
            raw_mse += mse(n_seg, c_seg);
            counted += 1;
        }
    }
    let db = |r: f64| 10.0 * r.log10();
    println!("\nPPG denoising at 5 dB input SNR ({counted} beats, steady state):");
    println!(
        "  EA   : {:5.1} dB SNR gain    AICF : {:5.1} dB SNR gain",
        db(raw_mse / ea_mse),
        db(raw_mse / aicf_mse)
    );

    // ---- dynamics: pulse amplitude ramps; EA lags, AICF follows ----
    println!("\ntracking a dynamic signal (pulse amplitude doubles over the record):");
    let mut ea2 = EnsembleAverager::new(seg_len);
    let mut aicf2 = Aicf::new(seg_len, 0.15);
    let n_beats = noisy_segs.len();
    let mut final_ea = Vec::new();
    let mut final_aicf = Vec::new();
    for (i, n_seg) in noisy_segs.iter().enumerate() {
        let gain = 1.0 + i as f64 / n_beats as f64;
        let scaled: Vec<f64> = n_seg.iter().map(|v| v * gain).collect();
        ea2.add(&scaled);
        final_aicf = aicf2.process(&scaled);
        final_ea = ea2.template();
    }
    let truth_final: Vec<f64> = clean_segs[n_beats - 1].iter().map(|v| v * 2.0).collect();
    println!(
        "  residual vs final beat:  EA {:.4}   AICF {:.4}  (AICF tracks, EA averages away)",
        mse(&final_ea, &truth_final),
        mse(&final_aicf, &truth_final)
    );

    // ---- BP trending ----
    println!("\nPAT → BP trend (true PTT ramps 0.26 s → 0.18 s, i.e. BP rising):");
    let ppg_bp = PpgSignal::generate(
        &rec,
        &PpgConfig {
            ptt: PttProfile::Ramp {
                start_s: 0.26,
                end_s: 0.18,
            },
            noise_snr_db: Some(15.0),
            ..PpgConfig::default()
        },
        3,
    );
    let detector = PatDetector {
        fs_hz: rec.fs() as f64,
        ..PatDetector::default()
    };
    let pats: Vec<f64> = detector
        .measure(&ppg_bp.samples, &anchors)
        .iter()
        .map(|m| m.pat_s)
        .collect();
    // Ground-truth BP from the generator's PTT via the standard
    // surrogate model bp = 40 + 22/ptt.
    let truth_bp: Vec<f64> = ppg_bp.ptt_s.iter().map(|&p| 40.0 + 22.0 / p).collect();
    // Calibrate on every 15th beat ("periodic cuff readings" spanning
    // the BP range — consecutive beats would give a degenerate fit).
    let cal_idx: Vec<usize> = (0..pats.len().min(truth_bp.len())).step_by(15).collect();
    let cal_pats: Vec<f64> = cal_idx.iter().map(|&i| pats[i]).collect();
    let cal_bp: Vec<f64> = cal_idx.iter().map(|&i| truth_bp[i]).collect();
    let bp = BpEstimator::calibrate(&cal_pats, &cal_bp).unwrap();
    let est: Vec<f64> = pats.iter().map(|&p| bp.estimate(p)).collect();
    let n_eval = est.len().min(truth_bp.len());
    let errs: Vec<f64> = est[..n_eval]
        .iter()
        .zip(&truth_bp[..n_eval])
        .map(|(e, t)| (e - t).abs())
        .collect();
    println!(
        "  beats: {}   MAE {:.1} mmHg   correlation(est, truth) {:.3}",
        n_eval,
        mean(&errs),
        correlation(&est[..n_eval], &truth_bp[..n_eval])
    );
    println!(
        "  BP span truth {:.0} → {:.0} mmHg; estimated {:.0} → {:.0} mmHg",
        truth_bp.first().unwrap(),
        truth_bp.last().unwrap(),
        est.first().unwrap(),
        est.last().unwrap()
    );
}

fn mse(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64
}
