//! Cross-crate integration: node-side CS encoding → on-air payload →
//! base-station reconstruction from the shared seed.

use wbsn_core::level::ProcessingLevel;
use wbsn_core::monitor::MonitorBuilder;
use wbsn_core::payload::Payload;
use wbsn_cs::encoder::CsEncoder;
use wbsn_cs::measurements_for_cr;
use wbsn_cs::solver::{Fista, FistaConfig, FistaScratch};
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;
use wbsn_sigproc::stats::snr_db;
use wbsn_sigproc::SparseTernaryMatrix;

#[test]
fn single_lead_roundtrip_reaches_20db_at_moderate_cr() {
    let rec = RecordBuilder::new(10)
        .duration_s(10.0)
        .n_leads(3)
        .noise(NoiseConfig::ambulatory(35.0))
        .build();
    let cr = 50.0;
    let mut node = MonitorBuilder::new()
        .level(ProcessingLevel::CompressedSingleLead)
        .cs_compression_ratio(cr)
        .build()
        .unwrap();
    let payloads = node.process_record(rec.leads()).unwrap();
    let cfg = node.config();
    let m = measurements_for_cr(cfg.cs_window, cr);
    let solver = Fista::new(FistaConfig::default());
    let mut snrs = Vec::new();
    for p in &payloads {
        let Payload::CsWindow {
            lead,
            window_seq,
            measurements,
        } = p
        else {
            continue;
        };
        let enc = CsEncoder::new(
            cfg.cs_window,
            m,
            cfg.cs_d_per_col,
            cfg.seed.wrapping_add(*lead as u64),
        )
        .unwrap();
        let y: Vec<i64> = measurements.iter().map(|&v| v as i64).collect();
        let xr = solver.reconstruct(&enc, &y).unwrap();
        let start = *window_seq as usize * cfg.cs_window;
        let orig: Vec<f64> = rec.lead(*lead as usize)[start..start + cfg.cs_window]
            .iter()
            .map(|&v| v as f64)
            .collect();
        snrs.push(snr_db(&orig, &xr));
    }
    assert!(snrs.len() >= 9, "windows {}", snrs.len());
    let avg = snrs.iter().sum::<f64>() / snrs.len() as f64;
    assert!(avg > 20.0, "avg snr {avg}");
}

#[test]
fn joint_multi_lead_beats_independent_at_high_cr() {
    let rec = RecordBuilder::new(11)
        .duration_s(8.0)
        .n_leads(3)
        .noise(NoiseConfig::ambulatory(35.0))
        .build();
    let n = 512;
    let m = measurements_for_cr(n, 72.0);
    let phis: Vec<SparseTernaryMatrix> = (0..3)
        .map(|l| SparseTernaryMatrix::random(m, n, 4, 900 + l as u64).unwrap())
        .collect();
    let xs: Vec<Vec<f64>> = (0..3)
        .map(|l| rec.lead(l)[512..1024].iter().map(|&v| v as f64).collect())
        .collect();
    let ys: Vec<Vec<f64>> = (0..3).map(|l| phis[l].apply(&xs[l])).collect();

    let single = Fista::new(FistaConfig::default());
    let mut snr_single = 0.0;
    for l in 0..3 {
        let xr = single.reconstruct_f64(&phis[l], &ys[l]).unwrap();
        snr_single += snr_db(&xs[l], &xr) / 3.0;
    }
    let refs: Vec<&SparseTernaryMatrix> = phis.iter().collect();
    let lips: Vec<f64> = phis.iter().map(|p| single.lipschitz(p).unwrap()).collect();
    let xr = single
        .solve_joint(&mut FistaScratch::new(), &refs, &ys, &lips)
        .unwrap();
    let snr_joint: f64 = (0..3).map(|l| snr_db(&xs[l], &xr[l].x)).sum::<f64>() / 3.0;
    assert!(
        snr_joint > snr_single + 1.0,
        "joint {snr_joint:.1} dB vs single {snr_single:.1} dB"
    );
}

#[test]
fn decoder_with_wrong_seed_fails_gracefully() {
    // A mismatched seed must not crash — it just reconstructs noise.
    let rec = RecordBuilder::new(12).duration_s(5.0).build();
    let n = 512;
    let m = measurements_for_cr(n, 50.0);
    let enc = CsEncoder::new(n, m, 4, 1234).unwrap();
    let x: Vec<i32> = rec.lead(0)[..n].to_vec();
    let y = enc.encode(&x).unwrap();
    let wrong = CsEncoder::new(n, m, 4, 9999).unwrap();
    let solver = Fista::new(FistaConfig::default());
    let xr = solver.reconstruct(&wrong, &y).unwrap();
    let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
    assert!(
        snr_db(&xf, &xr) < 10.0,
        "wrong seed cannot reconstruct well"
    );
}
