//! Wavelet-based delineation (Rincón et al., BSN 2009 — ref \[12\]).
//!
//! The signal is expanded with the integer à-trous quadratic-spline
//! transform; because the prototype wavelet is (a smoothed) derivative,
//! each wave of the ECG maps to a **pair of opposite-sign modulus
//! maxima** bracketing a zero-crossing at the wave's peak. The QRS
//! lives at small scales (2²), the lower-frequency P and T waves at
//! scale 2⁴. Onsets and offsets are found where the detail magnitude
//! decays below a fraction of its bracketing modulus maximum — all in
//! integer arithmetic, as on the node.

use crate::fiducials::{BeatFiducials, FiducialKind};
use crate::{DelineationError, Result};
use wbsn_sigproc::wavelet::{AtrousQspline, AtrousScratch};

/// Wavelet delineator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveletConfig {
    /// Sampling rate in Hz.
    pub fs_hz: u32,
    /// Modulus decay fraction marking QRS onset/offset.
    pub qrs_bound_frac: f64,
    /// Modulus decay fraction marking P/T onsets/offsets.
    pub pt_bound_frac: f64,
    /// Acceptance threshold for a P wave, as a fraction of the QRS
    /// scale-4 modulus (below ⇒ P reported absent).
    pub p_accept_frac: f64,
    /// Acceptance threshold for a T wave (same reference).
    pub t_accept_frac: f64,
}

impl Default for WaveletConfig {
    fn default() -> Self {
        WaveletConfig {
            fs_hz: 250,
            qrs_bound_frac: 0.08,
            pt_bound_frac: 0.25,
            p_accept_frac: 0.06,
            t_accept_frac: 0.10,
        }
    }
}

/// Batch wavelet delineator: refines R peaks and locates all other
/// fiducials around externally supplied approximate beat positions.
#[derive(Debug, Clone)]
pub struct WaveletDelineator {
    cfg: WaveletConfig,
    transform: AtrousQspline,
    // Reused transform working memory and detail signals, so the
    // per-beat streaming path performs no transform allocations after
    // warm-up (delineation takes `&mut self` for exactly this reason).
    scratch: AtrousScratch,
    details: Vec<Vec<i32>>,
    floor_scratch: Vec<u32>,
}

impl WaveletDelineator {
    /// Creates a delineator.
    ///
    /// # Errors
    ///
    /// Fails when `fs_hz < 100` (the dyadic scales would not separate
    /// QRS from P/T bands).
    pub fn new(cfg: WaveletConfig) -> Result<Self> {
        if cfg.fs_hz < 100 {
            return Err(DelineationError::InvalidParameter {
                what: "fs_hz",
                detail: "must be at least 100 Hz",
            });
        }
        let transform = AtrousQspline::new(4).map_err(|_| DelineationError::InvalidParameter {
            what: "levels",
            detail: "the à trous transform takes 1 to 8 levels",
        })?;
        Ok(WaveletDelineator {
            cfg,
            transform,
            scratch: AtrousScratch::default(),
            details: Vec::new(),
            floor_scratch: Vec::new(),
        })
    }

    /// Configuration in use.
    pub fn config(&self) -> &WaveletConfig {
        &self.cfg
    }

    /// Delineates `x` around the given approximate R positions
    /// (typically from [`crate::QrsDetector`]). Returns one
    /// [`BeatFiducials`] per input beat, in order.
    pub fn delineate(&mut self, x: &[i32], approx_r: &[usize]) -> Vec<BeatFiducials> {
        self.delineate_with_context(x, approx_r, None)
    }

    /// [`WaveletDelineator::delineate`] with cross-segment context: the
    /// previous beat's T offset (local index), used to keep the first
    /// beat's P search out of the preceding T wave when the caller
    /// processes one beat at a time (the streaming engine).
    pub fn delineate_with_context(
        &mut self,
        x: &[i32],
        approx_r: &[usize],
        prev_t_off: Option<usize>,
    ) -> Vec<BeatFiducials> {
        if x.is_empty() || approx_r.is_empty() {
            return Vec::new();
        }
        self.transform
            .transform_into(x, &mut self.scratch, &mut self.details);
        let w2 = &self.details[1]; // scale 2² — QRS band
        let w4 = &self.details[3]; // scale 2⁴ — P/T band
                                   // Global atrial-band activity floor: isolated P waves barely
                                   // move the low percentiles of |w4|, while the continuous
                                   // fibrillatory activity of AF raises it to P-wave order — the
                                   // per-beat acceptance below exploits exactly that.
        let global_floor = {
            // Exclude the transform's edge margins: delay compensation
            // zero-fills the tail, which would drag the percentile to
            // zero on short (streaming) segments.
            let margin = 32.min(w4.len() / 4);
            let interior = &w4[margin..w4.len().saturating_sub(margin).max(margin)];
            let v = &mut self.floor_scratch;
            v.clear();
            v.extend(interior.iter().step_by(4).map(|x| x.unsigned_abs()));
            v.sort_unstable();
            v.get(v.len() / 5).copied().unwrap_or(0)
        };
        let fs = self.cfg.fs_hz as f64;
        let n = x.len();
        let mut out: Vec<BeatFiducials> = Vec::with_capacity(approx_r.len());
        for (bi, &r0) in approx_r.iter().enumerate() {
            let mut beat = BeatFiducials::new(r0.min(n - 1));
            // The P search must not reach into the previous beat's T
            // wave (at short RR the windows would overlap).
            let prev_limit = out
                .last()
                .and_then(|b: &BeatFiducials| b.t_off)
                .map(|t| t + 4)
                .or_else(|| {
                    (bi > 0).then(|| {
                        let prev = approx_r[bi - 1];
                        prev + (0.55 * (r0.saturating_sub(prev)) as f64) as usize
                    })
                })
                .or(prev_t_off.map(|t| t + 4))
                .unwrap_or(0);
            // ---- QRS at scale 2 ----
            let qw = (0.10 * fs) as usize;
            let (qlo, qhi) = window(r0.min(n - 1), qw, qw, n);
            if let Some((mm_a, mm_b)) = opposite_modulus_pair(w2, qlo, qhi) {
                let zc = zero_crossing(w2, mm_a, mm_b).unwrap_or(r0);
                // Refine R on the raw signal: largest |x| deviation from
                // the local median near the zero-crossing.
                beat.r_peak = refine_on_raw(x, zc, (0.03 * fs) as usize);
                let first = mm_a.min(mm_b);
                let last = mm_a.max(mm_b);
                // Extend across any additional significant maxima (Q/S).
                let peak_mod = w2[first].unsigned_abs().max(w2[last].unsigned_abs());
                let sig = (peak_mod as f64 * 0.25) as u32;
                let first = extend_to_outer_max(w2, first, qlo, sig, true);
                let last = extend_to_outer_max(w2, last, qhi, sig, false);
                let on_thr = (w2[first].unsigned_abs() as f64 * self.cfg.qrs_bound_frac) as u32;
                let off_thr = (w2[last].unsigned_abs() as f64 * self.cfg.qrs_bound_frac) as u32;
                beat.qrs_on =
                    walk_below(w2, first, qlo.saturating_sub((0.05 * fs) as usize), on_thr);
                beat.qrs_off =
                    walk_below(w2, last, (qhi + (0.05 * fs) as usize).min(n - 1), off_thr);
            }
            let r = beat.r_peak;
            // Reference modulus for P/T acceptance: QRS energy at scale 4.
            let (q4lo, q4hi) = window(r, (0.08 * fs) as usize, (0.08 * fs) as usize, n);
            let qrs_mod4 = max_modulus(w4, q4lo, q4hi);

            // ---- T wave at scale 4 ----
            let rr_next = approx_r
                .get(bi + 1)
                .map(|&nx| nx.saturating_sub(r))
                .unwrap_or(fs as usize);
            let t_lo = r + (0.10 * fs) as usize;
            let t_hi = (r + (0.65 * rr_next as f64) as usize).min(n.saturating_sub(1));
            if t_lo < t_hi {
                let t_mod = max_modulus(w4, t_lo, t_hi);
                if t_mod as f64 > self.cfg.t_accept_frac * qrs_mod4 as f64 && t_mod > 0 {
                    if let Some((a, b)) = opposite_modulus_pair(w4, t_lo, t_hi) {
                        if let Some(zc) = zero_crossing(w4, a, b) {
                            beat.t_peak = Some(zc);
                            let first = a.min(b);
                            let last = a.max(b);
                            let thr_on =
                                (w4[first].unsigned_abs() as f64 * self.cfg.pt_bound_frac) as u32;
                            let thr_off =
                                (w4[last].unsigned_abs() as f64 * self.cfg.pt_bound_frac) as u32;
                            beat.t_on = walk_below(w4, first, t_lo.saturating_sub(8), thr_on);
                            beat.t_off = walk_below(
                                w4,
                                last,
                                (t_hi + (0.10 * fs) as usize).min(n - 1),
                                thr_off,
                            );
                        }
                    }
                }
            }

            // ---- P wave at scale 4 ----
            // Cap the window one scale-4 support (≈16 samples) before
            // the QRS onset so the complex's own scale-4 response does
            // not masquerade as a P wave.
            let p_hi = beat
                .qrs_on
                .unwrap_or(r.saturating_sub((0.06 * fs) as usize))
                .saturating_sub((0.064 * fs) as usize);
            let p_lo = r.saturating_sub((0.36 * fs) as usize).max(prev_limit);
            if p_lo + 4 < p_hi {
                let p_mod = max_modulus(w4, p_lo, p_hi);
                // A true P is an isolated wave standing well above the
                // record-wide atrial-band floor; continuous f-wave
                // activity during AF raises the floor and fails this.
                let isolated = p_mod as f64 > 3.0 * global_floor as f64;
                if p_mod as f64 > self.cfg.p_accept_frac * qrs_mod4 as f64 && p_mod > 0 && isolated
                {
                    if let Some((a, b)) = opposite_modulus_pair(w4, p_lo, p_hi) {
                        if let Some(zc) = zero_crossing(w4, a, b) {
                            beat.p_peak = Some(zc);
                            let first = a.min(b);
                            let last = a.max(b);
                            let thr_on =
                                (w4[first].unsigned_abs() as f64 * self.cfg.pt_bound_frac) as u32;
                            let thr_off =
                                (w4[last].unsigned_abs() as f64 * self.cfg.pt_bound_frac) as u32;
                            beat.p_on = walk_below(w4, first, p_lo.saturating_sub(8), thr_on);
                            beat.p_off = walk_below(w4, last, (p_hi + 8).min(n - 1), thr_off);
                        }
                    }
                }
            }
            out.push(beat);
        }
        out
    }
}

/// Clamped `[center-left, center+right]` window.
fn window(center: usize, left: usize, right: usize, n: usize) -> (usize, usize) {
    (
        center.saturating_sub(left),
        (center + right).min(n.saturating_sub(1)),
    )
}

/// Largest |w| in `[lo, hi]`.
fn max_modulus(w: &[i32], lo: usize, hi: usize) -> u32 {
    w[lo..=hi]
        .iter()
        .map(|v| v.unsigned_abs())
        .max()
        .unwrap_or(0)
}

/// Finds the largest positive maximum and the largest negative minimum
/// in the window; returns their indices when both exist.
fn opposite_modulus_pair(w: &[i32], lo: usize, hi: usize) -> Option<(usize, usize)> {
    let mut best_pos: Option<(usize, i32)> = None;
    let mut best_neg: Option<(usize, i32)> = None;
    for (i, &v) in w.iter().enumerate().take(hi + 1).skip(lo) {
        if v > 0 && best_pos.is_none_or(|(_, b)| v > b) {
            best_pos = Some((i, v));
        }
        if v < 0 && best_neg.is_none_or(|(_, b)| v < b) {
            best_neg = Some((i, v));
        }
    }
    match (best_pos, best_neg) {
        (Some((p, _)), Some((q, _))) => Some((p, q)),
        _ => None,
    }
}

/// First sign flip of `w` scanning from `a` towards `b`.
fn zero_crossing(w: &[i32], a: usize, b: usize) -> Option<usize> {
    let (lo, hi) = (a.min(b), a.max(b));
    let start_sign = w[lo].signum();
    if start_sign == 0 {
        return Some(lo);
    }
    for (i, &v) in w.iter().enumerate().take(hi + 1).skip(lo) {
        if v.signum() != start_sign {
            return Some(i);
        }
    }
    None
}

/// Walks outward from `from` towards `bound` until `|w| < thr`;
/// returns the crossing index.
fn walk_below(w: &[i32], from: usize, bound: usize, thr: u32) -> Option<usize> {
    if bound <= from {
        // Walking left.
        let mut i = from;
        while i > bound {
            i -= 1;
            if w[i].unsigned_abs() < thr.max(1) {
                return Some(i);
            }
        }
        Some(bound)
    } else {
        let mut i = from;
        while i < bound {
            i += 1;
            if w[i].unsigned_abs() < thr.max(1) {
                return Some(i);
            }
        }
        Some(bound)
    }
}

/// Extends from a modulus maximum towards `bound`, hopping to any
/// further local maxima whose magnitude exceeds `sig` (captures Q and
/// S deflections around the R pair). `left = true` walks to lower
/// indices.
fn extend_to_outer_max(w: &[i32], from: usize, bound: usize, sig: u32, left: bool) -> usize {
    let mut best = from;
    if left {
        let lo = bound.min(from);
        for (i, v) in w.iter().enumerate().take(from).skip(lo).rev() {
            if v.unsigned_abs() > sig {
                best = i;
            }
        }
    } else {
        let hi = bound.max(from);
        let end = hi.min(w.len() - 1);
        for (i, v) in w.iter().enumerate().take(end + 1).skip(from + 1) {
            if v.unsigned_abs() > sig {
                best = i;
            }
        }
    }
    best
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

/// A detected fiducial list flattened to `(kind, sample)` pairs, for
/// interoperability with evaluation tooling.
pub fn flatten(beats: &[BeatFiducials]) -> Vec<(FiducialKind, usize)> {
    let mut out = Vec::new();
    for b in beats {
        for kind in FiducialKind::ALL {
            if let Some(s) = b.get(kind) {
                out.push((kind, s));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One clean synthetic beat centred at `r` on a length-`n` signal.
    fn beat_signal(n: usize, r: usize, fs: f64) -> Vec<i32> {
        let mut x = vec![0i32; n];
        let waves = [
            (-0.18 * fs, 30.0, 0.022 * fs),   // P
            (-0.032 * fs, -24.0, 0.009 * fs), // Q
            (0.0, 220.0, 0.011 * fs),         // R
            (0.030 * fs, -56.0, 0.009 * fs),  // S
            (0.30 * fs, 64.0, 0.045 * fs),    // T
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
    fn locates_all_waves_on_clean_beat() {
        let fs = 250.0;
        let x = beat_signal(500, 250, fs);
        let mut del = WaveletDelineator::new(WaveletConfig::default()).unwrap();
        let beats = del.delineate(&x, &[250]);
        assert_eq!(beats.len(), 1);
        let b = &beats[0];
        assert!(b.r_peak.abs_diff(250) <= 3, "R at {}", b.r_peak);
        let p = b.p_peak.expect("P located");
        assert!(p.abs_diff(250 - 45) <= 8, "P at {p}");
        let t = b.t_peak.expect("T located");
        assert!(t.abs_diff(250 + 75) <= 12, "T at {t}");
        // Ordering sanity.
        assert!(b.p_on.unwrap() < b.p_peak.unwrap());
        assert!(b.p_off.unwrap() < b.r_peak);
        assert!(b.qrs_on.unwrap() < b.r_peak);
        assert!(b.qrs_off.unwrap() > b.r_peak);
        assert!(b.t_off.unwrap() > b.t_peak.unwrap());
    }

    #[test]
    fn absent_p_is_not_invented() {
        let fs = 250.0;
        // Build a beat without a P wave.
        let mut x = vec![0i32; 500];
        let waves = [
            (0.0, 220.0, 0.011 * fs),
            (0.030 * fs, -56.0, 0.009 * fs),
            (0.30 * fs, 64.0, 0.045 * fs),
        ];
        for (off, amp, sigma) in waves {
            let c = 250.0 + off;
            for (i, xi) in x.iter_mut().enumerate() {
                let d = (i as f64 - c) / sigma;
                if d.abs() < 5.0 {
                    *xi += (amp * (-0.5 * d * d).exp()) as i32;
                }
            }
        }
        let mut del = WaveletDelineator::new(WaveletConfig::default()).unwrap();
        let beats = del.delineate(&x, &[250]);
        assert!(!beats[0].has_p(), "no P should be reported");
        assert!(beats[0].has_t());
    }

    #[test]
    fn inverted_lead_still_delineates() {
        let fs = 250.0;
        let x: Vec<i32> = beat_signal(500, 250, fs).iter().map(|&v| -v).collect();
        let mut del = WaveletDelineator::new(WaveletConfig::default()).unwrap();
        let beats = del.delineate(&x, &[250]);
        assert!(beats[0].r_peak.abs_diff(250) <= 3);
        assert!(beats[0].has_t());
    }

    #[test]
    fn multiple_beats_are_delineated_independently() {
        let fs = 250.0;
        let mut x = vec![0i32; 1250];
        for r in [250usize, 500, 750, 1000] {
            let b = beat_signal(1250, r, fs);
            for (xi, bi) in x.iter_mut().zip(&b) {
                *xi += bi;
            }
        }
        let mut del = WaveletDelineator::new(WaveletConfig::default()).unwrap();
        let beats = del.delineate(&x, &[250, 500, 750, 1000]);
        assert_eq!(beats.len(), 4);
        for (i, b) in beats.iter().enumerate() {
            assert!(b.has_p(), "beat {i} P");
            assert!(b.has_t(), "beat {i} T");
        }
    }

    #[test]
    fn empty_inputs_are_harmless() {
        let mut del = WaveletDelineator::new(WaveletConfig::default()).unwrap();
        assert!(del.delineate(&[], &[5]).is_empty());
        assert!(del.delineate(&[0; 100], &[]).is_empty());
    }

    #[test]
    fn rejects_low_sample_rate() {
        assert!(WaveletDelineator::new(WaveletConfig {
            fs_hz: 80,
            ..WaveletConfig::default()
        })
        .is_err());
    }

    #[test]
    fn flatten_lists_all_located_points() {
        let fs = 250.0;
        let x = beat_signal(500, 250, fs);
        let mut del = WaveletDelineator::new(WaveletConfig::default()).unwrap();
        let beats = del.delineate(&x, &[250]);
        let flat = flatten(&beats);
        assert_eq!(flat.len(), beats[0].located_count());
    }
}
