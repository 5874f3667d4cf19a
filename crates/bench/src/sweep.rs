//! SNR-vs-CR sweep machinery — regenerates Figure 5 of the paper.
//!
//! For each compression ratio, every record is cut into non-overlapping
//! windows, each window is CS-encoded on the (simulated) node and
//! reconstructed, and the output SNR is averaged "over all records"
//! exactly as the figure's y-axis label says.

use wbsn_cs::encoder::CsEncoder;
use wbsn_cs::measurements_for_cr;
use wbsn_cs::solver::{Fista, FistaConfig, FistaScratch};
use wbsn_cs::Result;
use wbsn_ecg_synth::Record;
use wbsn_sigproc::stats::snr_db;
use wbsn_sigproc::SparseTernaryMatrix;

/// Sweep configuration shared by the single- and multi-lead runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// Window length (samples); must divide by `2^levels`.
    pub window: usize,
    /// Sensing-matrix column density.
    pub d_per_col: usize,
    /// Base seed for sensing matrices.
    pub seed: u64,
    /// Solver settings, single- and multi-lead.
    pub fista: FistaConfig,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            window: 512,
            d_per_col: 4,
            seed: 0xC5,
            fista: FistaConfig::default(),
        }
    }
}

/// One sweep sample: compression ratio and resulting average SNR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Compression ratio in percent.
    pub cr_percent: f64,
    /// Averaged output SNR in dB over all windows/records/leads.
    pub snr_db: f64,
}

/// Averaged single-lead SNR at each CR (the "Single-Lead CS" series).
/// Φ is fixed per CR, so its Lipschitz constant is computed once per CR
/// and every window is solved by [`Fista::solve_with`] on one reused
/// scratch: the same samples, bit for bit, as [`Fista::reconstruct`]
/// per window.
///
/// # Errors
///
/// Propagates encoder/solver failures (mis-sized windows etc.).
pub fn snr_vs_cr_single(
    records: &[Record],
    crs: &[f64],
    cfg: &SweepConfig,
) -> Result<Vec<SweepPoint>> {
    let solver = Fista::new(cfg.fista);
    let mut scratch = FistaScratch::new();
    let mut y = Vec::new();
    let mut out = Vec::with_capacity(crs.len());
    for &cr in crs {
        let m = measurements_for_cr(cfg.window, cr);
        let enc = CsEncoder::new(cfg.window, m, cfg.d_per_col, cfg.seed)?;
        let phi = enc.sensing_matrix();
        let lip = solver.lipschitz(phi)?;
        let mut snr_sum = 0.0;
        let mut count = 0usize;
        for rec in records {
            for lead_idx in 0..rec.n_leads() {
                for win in windows(rec.lead(lead_idx), cfg.window) {
                    enc.encode_into(win, &mut y)?;
                    let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
                    let xr = solver.solve_with(&mut scratch, phi, &yf, lip)?.x;
                    let xf: Vec<f64> = win.iter().map(|&v| v as f64).collect();
                    if xf.iter().all(|&v| v == 0.0) {
                        continue;
                    }
                    snr_sum += snr_db(&xf, &xr);
                    count += 1;
                }
            }
        }
        out.push(SweepPoint {
            cr_percent: enc.cr_percent(),
            snr_db: snr_sum / count.max(1) as f64,
        });
    }
    Ok(out)
}

/// Averaged joint multi-lead SNR at each CR (the "Multi-Lead CS"
/// series), each window's leads solved together by
/// [`Fista::solve_joint`]. Each lead gets its own sensing matrix
/// (rotated seed), built with its Lipschitz constant once per CR for
/// the most leads any record has.
///
/// # Errors
///
/// Propagates encoder/solver failures.
pub fn snr_vs_cr_joint(
    records: &[Record],
    crs: &[f64],
    cfg: &SweepConfig,
) -> Result<Vec<SweepPoint>> {
    let solver = Fista::new(cfg.fista);
    let mut scratch = FistaScratch::new();
    let max_leads = records.iter().map(Record::n_leads).max().unwrap_or(0);
    let mut out = Vec::with_capacity(crs.len());
    for &cr in crs {
        let m = measurements_for_cr(cfg.window, cr);
        let phis: Vec<SparseTernaryMatrix> = (0..max_leads)
            .map(|l| {
                SparseTernaryMatrix::random(
                    m,
                    cfg.window,
                    cfg.d_per_col,
                    cfg.seed.wrapping_add(l as u64),
                )
            })
            .collect::<core::result::Result<_, _>>()?;
        let phi_refs: Vec<&SparseTernaryMatrix> = phis.iter().collect();
        let lips = phis
            .iter()
            .map(|phi| solver.lipschitz(phi))
            .collect::<Result<Vec<f64>>>()?;
        let mut snr_sum = 0.0;
        let mut count = 0usize;
        for rec in records {
            let n_leads = rec.n_leads();
            let n_wins = rec.n_samples() / cfg.window;
            for wi in 0..n_wins {
                let lo = wi * cfg.window;
                let hi = lo + cfg.window;
                let xs: Vec<Vec<f64>> = (0..n_leads)
                    .map(|l| rec.lead(l)[lo..hi].iter().map(|&v| v as f64).collect())
                    .collect();
                let ys: Vec<Vec<f64>> = (0..n_leads).map(|l| phis[l].apply(&xs[l])).collect();
                let xr = solver.solve_joint(
                    &mut scratch,
                    &phi_refs[..n_leads],
                    &ys,
                    &lips[..n_leads],
                )?;
                for l in 0..n_leads {
                    if xs[l].iter().all(|&v| v == 0.0) {
                        continue;
                    }
                    snr_sum += snr_db(&xs[l], &xr[l].x);
                    count += 1;
                }
            }
        }
        out.push(SweepPoint {
            cr_percent: wbsn_cs::compression_ratio(cfg.window, m),
            snr_db: snr_sum / count.max(1) as f64,
        });
    }
    Ok(out)
}

/// Highest CR (by linear interpolation between sweep points) at which
/// the SNR still reaches `target_db` — the "CR at 20 dB" numbers the
/// paper quotes (65.9% single-lead, 72.7% multi-lead).
pub fn cr_at_snr(points: &[SweepPoint], target_db: f64) -> Option<f64> {
    // Points ordered by ascending CR; SNR decreases with CR.
    let mut best: Option<f64> = None;
    for w in points.windows(2) {
        let (a, b) = (w[0], w[1]);
        let (hi, lo) = (a.snr_db.max(b.snr_db), a.snr_db.min(b.snr_db));
        if target_db <= hi && target_db >= lo && a.snr_db != b.snr_db {
            let frac = (a.snr_db - target_db) / (a.snr_db - b.snr_db);
            let cr = a.cr_percent + frac * (b.cr_percent - a.cr_percent);
            best = Some(best.map_or(cr, |prev: f64| prev.max(cr)));
        } else if b.snr_db >= target_db {
            best = Some(best.map_or(b.cr_percent, |prev: f64| prev.max(b.cr_percent)));
        }
    }
    if best.is_none() && points.iter().all(|p| p.snr_db >= target_db) {
        best = points.last().map(|p| p.cr_percent);
    }
    best
}

fn windows(x: &[i32], w: usize) -> impl Iterator<Item = &[i32]> {
    x.chunks_exact(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_ecg_synth::noise::NoiseConfig;
    use wbsn_ecg_synth::suite::cs_eval_suite;
    use wbsn_ecg_synth::RecordBuilder;

    fn tiny_cfg() -> SweepConfig {
        let mut cfg = SweepConfig {
            window: 256,
            ..SweepConfig::default()
        };
        cfg.fista.max_iters = 80;
        cfg
    }

    #[test]
    fn snr_decreases_with_cr_single() {
        let recs = cs_eval_suite(1, 7);
        let pts = snr_vs_cr_single(&recs[..1], &[40.0, 85.0], &tiny_cfg()).unwrap();
        assert!(
            pts[0].snr_db > pts[1].snr_db + 3.0,
            "CR 40 {} dB vs CR 85 {} dB",
            pts[0].snr_db,
            pts[1].snr_db
        );
    }

    /// `snr_vs_cr_single` as it was: every window through
    /// [`Fista::reconstruct`], with its own Lipschitz constant and
    /// scratch.
    fn snr_vs_cr_single_per_window(
        records: &[Record],
        crs: &[f64],
        cfg: &SweepConfig,
    ) -> Vec<SweepPoint> {
        let solver = Fista::new(cfg.fista);
        crs.iter()
            .map(|&cr| {
                let m = measurements_for_cr(cfg.window, cr);
                let enc = CsEncoder::new(cfg.window, m, cfg.d_per_col, cfg.seed).unwrap();
                let mut snr_sum = 0.0;
                let mut count = 0usize;
                for rec in records {
                    for lead_idx in 0..rec.n_leads() {
                        for win in windows(rec.lead(lead_idx), cfg.window) {
                            let y = enc.encode(win).unwrap();
                            let xr = solver.reconstruct(&enc, &y).unwrap();
                            let xf: Vec<f64> = win.iter().map(|&v| v as f64).collect();
                            if xf.iter().all(|&v| v == 0.0) {
                                continue;
                            }
                            snr_sum += snr_db(&xf, &xr);
                            count += 1;
                        }
                    }
                }
                SweepPoint {
                    cr_percent: enc.cr_percent(),
                    snr_db: snr_sum / count.max(1) as f64,
                }
            })
            .collect()
    }

    #[test]
    fn hoisted_single_sweep_matches_per_window_reconstruct_bit_for_bit() {
        // Two short 3-lead records: 30 windows per CR.
        let recs: Vec<Record> = (0..2)
            .map(|i| {
                RecordBuilder::new(11 + i)
                    .duration_s(3.6)
                    .n_leads(3)
                    .noise(NoiseConfig::ambulatory(40.0))
                    .build()
            })
            .collect();
        let cfg = tiny_cfg();
        let crs = [30.0, 80.0];
        let bits = |pts: &[SweepPoint]| -> Vec<(u64, u64)> {
            pts.iter()
                .map(|p| (p.cr_percent.to_bits(), p.snr_db.to_bits()))
                .collect()
        };
        let got = snr_vs_cr_single(&recs, &crs, &cfg).unwrap();
        let want = snr_vs_cr_single_per_window(&recs, &crs, &cfg);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn joint_at_least_matches_single_at_high_cr() {
        let recs = cs_eval_suite(1, 8);
        let cfg = tiny_cfg();
        let s = snr_vs_cr_single(&recs[..1], &[75.0], &cfg).unwrap();
        let j = snr_vs_cr_joint(&recs[..1], &[75.0], &cfg).unwrap();
        assert!(
            j[0].snr_db > s[0].snr_db - 0.5,
            "joint {} dB vs single {} dB",
            j[0].snr_db,
            s[0].snr_db
        );
    }

    #[test]
    fn cr_at_snr_interpolates() {
        let pts = vec![
            SweepPoint {
                cr_percent: 50.0,
                snr_db: 30.0,
            },
            SweepPoint {
                cr_percent: 70.0,
                snr_db: 20.0,
            },
            SweepPoint {
                cr_percent: 90.0,
                snr_db: 10.0,
            },
        ];
        let cr = cr_at_snr(&pts, 25.0).unwrap();
        assert!((cr - 60.0).abs() < 1e-9, "{cr}");
        let cr20 = cr_at_snr(&pts, 20.0).unwrap();
        assert!((cr20 - 70.0).abs() < 1e-9, "{cr20}");
        assert!(cr_at_snr(&pts, 40.0).is_none());
    }
}
