//! Multiscale-Morphological-Derivative delineation (Sun, Chan &
//! Krishnan 2005 — reference \[13\] of the paper).
//!
//! The MMD transform `(x⊕sB + x⊖sB − 2x)/s` turns a positive wave peak
//! into a sharp **minimum** and flanks it with **maxima** at the wave
//! boundaries (and dually for negative waves). The QRS is delineated at
//! a small scale, P and T at a larger one. Only min/max comparisons and
//! subtractions are needed — the paper's Section IV-A notes this
//! reduces, with a flat structuring element, to tracking the extrema of
//! a sliding window.

use crate::fiducials::BeatFiducials;
use crate::{DelineationError, Result};
use wbsn_sigproc::morphology::mmd_transform_unscaled;

/// MMD delineator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmdConfig {
    /// Sampling rate in Hz.
    pub fs_hz: u32,
    /// QRS analysis scale in seconds (structuring-element half-width).
    pub qrs_scale_s: f64,
    /// P/T analysis scale in seconds.
    pub pt_scale_s: f64,
    /// Acceptance threshold for P as a fraction of the beat's QRS MMD
    /// magnitude at the P/T scale.
    pub p_accept_frac: f64,
    /// Acceptance threshold for T (same reference).
    pub t_accept_frac: f64,
}

impl Default for MmdConfig {
    fn default() -> Self {
        MmdConfig {
            fs_hz: 250,
            qrs_scale_s: 0.024,
            pt_scale_s: 0.08,
            p_accept_frac: 0.05,
            t_accept_frac: 0.09,
        }
    }
}

/// Batch MMD delineator with the same interface as
/// [`crate::WaveletDelineator`].
#[derive(Debug, Clone)]
pub struct MmdDelineator {
    cfg: MmdConfig,
}

impl MmdDelineator {
    /// Creates a delineator.
    ///
    /// # Errors
    ///
    /// Fails when `fs_hz < 100` or the scales are non-positive.
    pub fn new(cfg: MmdConfig) -> Result<Self> {
        if cfg.fs_hz < 100 {
            return Err(DelineationError::InvalidParameter {
                what: "fs_hz",
                detail: "must be at least 100 Hz",
            });
        }
        if cfg.qrs_scale_s <= 0.0 || cfg.pt_scale_s <= 0.0 {
            return Err(DelineationError::InvalidParameter {
                what: "scale",
                detail: "scales must be positive",
            });
        }
        Ok(MmdDelineator { cfg })
    }

    /// Configuration in use.
    pub fn config(&self) -> &MmdConfig {
        &self.cfg
    }

    /// Delineates `x` around approximate R positions.
    pub fn delineate(&self, x: &[i32], approx_r: &[usize]) -> Vec<BeatFiducials> {
        if x.is_empty() || approx_r.is_empty() {
            return Vec::new();
        }
        let fs = self.cfg.fs_hz as f64;
        let n = x.len();
        let s_qrs = ((self.cfg.qrs_scale_s * fs) as usize).max(2);
        let s_pt = ((self.cfg.pt_scale_s * fs) as usize).max(4);
        let m_qrs = mmd_transform_unscaled(x, s_qrs);
        let m_pt = mmd_transform_unscaled(x, s_pt);
        // Record-wide atrial-band floor (see the wavelet delineator):
        // suppresses P reports during continuous fibrillatory activity.
        let global_floor = {
            // Interior only: edge replication flattens the transform at
            // the boundaries and would bias the percentile on short
            // segments.
            let margin = (2 * s_pt).min(m_pt.len() / 4);
            let interior = &m_pt[margin..m_pt.len().saturating_sub(margin).max(margin)];
            let mut v: Vec<u32> = interior
                .iter()
                .step_by(4)
                .map(|x| x.unsigned_abs())
                .collect();
            v.sort_unstable();
            v.get(v.len() / 5).copied().unwrap_or(0)
        };
        let mut out: Vec<BeatFiducials> = Vec::with_capacity(approx_r.len());
        for (bi, &r0) in approx_r.iter().enumerate() {
            let r0 = r0.min(n - 1);
            let mut beat = BeatFiducials::new(r0);
            // Keep the P search clear of the previous beat's T wave.
            let prev_limit = out
                .last()
                .and_then(|b: &BeatFiducials| b.t_off)
                .map(|t| t + 2)
                .or_else(|| {
                    (bi > 0).then(|| {
                        let prev = approx_r[bi - 1];
                        prev + (0.55 * (r0.saturating_sub(prev)) as f64) as usize
                    })
                })
                .unwrap_or(0);
            // ---- QRS ----
            let qw = (0.09 * fs) as usize;
            let qlo = r0.saturating_sub(qw);
            let qhi = (r0 + qw).min(n - 1);
            if let Some(me) = arg_extreme_abs(&m_qrs, qlo, qhi) {
                // The MMD extremum may sit on the strongest deflection
                // (possibly S); refine the R peak on the raw signal.
                let rp = refine_on_raw(x, me, (0.035 * fs) as usize);
                beat.r_peak = rp;
                let center_sign = if m_qrs[rp] != 0 {
                    m_qrs[rp].signum()
                } else {
                    m_qrs[me].signum()
                };
                // Boundaries: strongest opposite-sign extremum on each side
                // within ~80 ms (outside the QRS core).
                let reach = (0.08 * fs) as usize + s_qrs;
                beat.qrs_on = arg_extreme_signed(
                    &m_qrs,
                    rp.saturating_sub(reach),
                    rp.saturating_sub(s_qrs + 1),
                    -center_sign,
                );
                beat.qrs_off = arg_extreme_signed(
                    &m_qrs,
                    (rp + s_qrs + 1).min(n - 1),
                    (rp + reach).min(n - 1),
                    -center_sign,
                );
            }
            let r = beat.r_peak;
            // Reference magnitude for P/T acceptance.
            let q4lo = r.saturating_sub((0.08 * fs) as usize);
            let q4hi = (r + (0.08 * fs) as usize).min(n - 1);
            let qrs_mag = max_abs(&m_pt, q4lo, q4hi);

            // ---- T ----
            let rr_next = approx_r
                .get(bi + 1)
                .map(|&nx| nx.saturating_sub(r))
                .unwrap_or(fs as usize);
            // Start past the QRS offset plus one structuring element.
            let t_lo = r + (0.12 * fs) as usize + s_pt / 2;
            let t_hi = (r + (0.65 * rr_next as f64) as usize).min(n.saturating_sub(1));
            if t_lo < t_hi {
                if let Some(me) = arg_extreme_abs(&m_pt, t_lo, t_hi) {
                    if m_pt[me].unsigned_abs() as f64 > self.cfg.t_accept_frac * qrs_mag as f64 {
                        // A negative MMD extremum marks a positive wave
                        // (and vice versa): refine on the raw signal in
                        // the indicated direction.
                        let tp = refine_directed(x, me, s_pt, m_pt[me] < 0);
                        beat.t_peak = Some(tp);
                        // Boundaries: the MMD changes sign where the wave
                        // passes half its amplitude; the nearest sign
                        // change on each side of the extremum, pushed
                        // outward by half a structuring element, marks
                        // the onset/offset (Sun et al. 2005).
                        let reach = (0.20 * fs) as usize + s_pt;
                        beat.t_on = nearest_sign_change(
                            &m_pt,
                            me,
                            me.saturating_sub(reach).max(t_lo.saturating_sub(s_pt)),
                        )
                        .map(|b| b.saturating_sub(s_pt / 2));
                        beat.t_off = nearest_sign_change(&m_pt, me, (me + reach).min(n - 1))
                            .map(|b| (b + s_pt / 2).min(n - 1));
                    }
                }
            }

            // ---- P ----
            // Keep the structuring element clear of the QRS: otherwise
            // the dilation reaches the R slope and fakes a P wave.
            let p_hi = beat
                .qrs_on
                .unwrap_or(r.saturating_sub((0.06 * fs) as usize))
                .saturating_sub(s_pt);
            let p_lo = r.saturating_sub((0.30 * fs) as usize).max(prev_limit);
            if p_lo + 4 < p_hi {
                if let Some(me) = arg_extreme_abs(&m_pt, p_lo, p_hi) {
                    let strong =
                        m_pt[me].unsigned_abs() as f64 > self.cfg.p_accept_frac * qrs_mag as f64;
                    // The unscaled MMD floor carries more broadband
                    // noise than the wavelet band; 2× is the matched
                    // margin (ablation: text_delineation_quality).
                    let isolated = m_pt[me].unsigned_abs() as f64 > 2.0 * global_floor as f64;
                    if strong && isolated {
                        let pp = refine_directed(x, me, s_pt, m_pt[me] < 0);
                        beat.p_peak = Some(pp);
                        let reach = (0.12 * fs) as usize + s_pt;
                        beat.p_on = nearest_sign_change(&m_pt, me, me.saturating_sub(reach))
                            .map(|b| b.saturating_sub(s_pt / 2));
                        beat.p_off = nearest_sign_change(
                            &m_pt,
                            me,
                            (me + reach).min(p_hi + 2 * s_pt).min(n - 1),
                        )
                        .map(|b| (b + s_pt / 2).min(n - 1));
                    }
                }
            }
            out.push(beat);
        }
        out
    }
}

fn max_abs(w: &[i32], lo: usize, hi: usize) -> u32 {
    w[lo..=hi.min(w.len() - 1)]
        .iter()
        .map(|v| v.unsigned_abs())
        .max()
        .unwrap_or(0)
}

/// Index of the largest |w| in `[lo, hi]`.
fn arg_extreme_abs(w: &[i32], lo: usize, hi: usize) -> Option<usize> {
    if lo > hi || lo >= w.len() {
        return None;
    }
    let hi = hi.min(w.len() - 1);
    (lo..=hi).max_by_key(|&i| w[i].unsigned_abs())
}

/// Refine the R location on the raw signal: the sample of largest
/// absolute deviation from the window median.
fn refine_on_raw(x: &[i32], center: usize, half: usize) -> usize {
    let lo = center.saturating_sub(half);
    let hi = (center + half).min(x.len() - 1);
    let mut vals: Vec<i32> = x[lo..=hi].to_vec();
    vals.sort_unstable();
    let med = vals[vals.len() / 2];
    (lo..=hi)
        .max_by_key(|&i| (x[i] - med).unsigned_abs())
        .unwrap_or(center)
}

/// Nearest index (walking from `from` towards `bound`) where `w`
/// flips sign relative to `w[from]` (zero counts as a flip).
fn nearest_sign_change(w: &[i32], from: usize, bound: usize) -> Option<usize> {
    let start_sign = w[from].signum();
    if start_sign == 0 {
        return Some(from);
    }
    if bound <= from {
        let mut i = from;
        while i > bound {
            i -= 1;
            if w[i].signum() != start_sign {
                return Some(i);
            }
        }
        Some(bound)
    } else {
        let mut i = from;
        while i < bound.min(w.len() - 1) {
            i += 1;
            if w[i].signum() != start_sign {
                return Some(i);
            }
        }
        Some(bound.min(w.len() - 1))
    }
}

/// Refines a smooth-wave peak: the extremum of `x` (max for positive
/// waves, min for negative) within ±`half` of the transform extremum.
fn refine_directed(x: &[i32], center: usize, half: usize, positive: bool) -> usize {
    let lo = center.saturating_sub(half);
    let hi = (center + half).min(x.len() - 1);
    if positive {
        (lo..=hi).max_by_key(|&i| x[i]).unwrap_or(center)
    } else {
        (lo..=hi).min_by_key(|&i| x[i]).unwrap_or(center)
    }
}

/// Index of the strongest value of the requested sign in `[lo, hi]`.
fn arg_extreme_signed(w: &[i32], lo: usize, hi: usize, sign: i32) -> Option<usize> {
    if lo > hi || lo >= w.len() {
        return None;
    }
    let hi = hi.min(w.len() - 1);
    let best = (lo..=hi).max_by_key(|&i| (w[i] * sign.signum()).max(0))?;
    if w[best].signum() == sign.signum() {
        Some(best)
    } else {
        // No extremum of the requested sign: fall back to the window edge.
        Some(if sign > 0 { lo } else { hi })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat_signal(n: usize, r: usize, fs: f64) -> Vec<i32> {
        let mut x = vec![0i32; n];
        let waves = [
            (-0.18 * fs, 30.0, 0.022 * fs),
            (-0.032 * fs, -24.0, 0.009 * fs),
            (0.0, 220.0, 0.011 * fs),
            (0.030 * fs, -56.0, 0.009 * fs),
            (0.30 * fs, 64.0, 0.045 * fs),
        ];
        for (off, amp, sigma) in waves {
            let c = r as f64 + off;
            for (i, xi) in x.iter_mut().enumerate() {
                let d = (i as f64 - c) / sigma;
                if d.abs() < 5.0 {
                    *xi += (amp * (-0.5 * d * d).exp()) as i32;
                }
            }
        }
        x
    }

    #[test]
    fn locates_waves_on_clean_beat() {
        let fs = 250.0;
        let x = beat_signal(500, 250, fs);
        let del = MmdDelineator::new(MmdConfig::default()).unwrap();
        let beats = del.delineate(&x, &[250]);
        let b = &beats[0];
        assert!(b.r_peak.abs_diff(250) <= 4, "R at {}", b.r_peak);
        let p = b.p_peak.expect("P located");
        assert!(p.abs_diff(205) <= 10, "P at {p}");
        let t = b.t_peak.expect("T located");
        assert!(t.abs_diff(325) <= 14, "T at {t}");
        assert!(b.qrs_on.unwrap() < b.r_peak);
        assert!(b.qrs_off.unwrap() > b.r_peak);
    }

    #[test]
    fn skips_absent_p() {
        let fs = 250.0;
        let mut x = vec![0i32; 500];
        for (off, amp, sigma) in [(0.0, 220.0, 0.011 * fs), (0.30 * fs, 64.0, 0.045 * fs)] {
            let c = 250.0 + off;
            for (i, xi) in x.iter_mut().enumerate() {
                let d = (i as f64 - c) / sigma;
                if d.abs() < 5.0 {
                    *xi += (amp * (-0.5 * d * d).exp()) as i32;
                }
            }
        }
        let del = MmdDelineator::new(MmdConfig::default()).unwrap();
        let beats = del.delineate(&x, &[250]);
        assert!(!beats[0].has_p());
        assert!(beats[0].has_t());
    }

    #[test]
    fn handles_inverted_beat() {
        let fs = 250.0;
        let x: Vec<i32> = beat_signal(500, 250, fs).iter().map(|&v| -v).collect();
        let del = MmdDelineator::new(MmdConfig::default()).unwrap();
        let beats = del.delineate(&x, &[250]);
        assert!(beats[0].r_peak.abs_diff(250) <= 4);
    }

    #[test]
    fn rejects_bad_config() {
        assert!(MmdDelineator::new(MmdConfig {
            fs_hz: 50,
            ..MmdConfig::default()
        })
        .is_err());
        assert!(MmdDelineator::new(MmdConfig {
            qrs_scale_s: 0.0,
            ..MmdConfig::default()
        })
        .is_err());
    }

    #[test]
    fn empty_inputs() {
        let del = MmdDelineator::new(MmdConfig::default()).unwrap();
        assert!(del.delineate(&[], &[1]).is_empty());
        assert!(del.delineate(&[1, 2, 3], &[]).is_empty());
    }
}
