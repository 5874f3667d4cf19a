//! Integer streaming QRS detection (Pan–Tompkins style).
//!
//! The classic energy-based detector, restructured for an integer-only
//! node: band-pass by difference of moving averages, five-point
//! derivative, squaring, moving-window integration, and adaptive dual
//! thresholds with search-back. All state is fixed-size; arithmetic is
//! `i64` at worst (squares of 12-bit samples times short windows).

use crate::{DelineationError, Result};
use wbsn_sigproc::div::ExactDiv;

/// Configuration of the QRS detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QrsConfig {
    /// Sampling rate in Hz.
    pub fs_hz: u32,
    /// Refractory period in seconds (no two beats closer than this).
    pub refractory_s: f64,
    /// Moving-window-integration width in seconds.
    pub mwi_window_s: f64,
    /// Threshold coefficient (fraction of SPKI−NPKI above NPKI).
    pub threshold_coeff: f64,
    /// Learning phase length in seconds (no detections emitted).
    pub learning_s: f64,
}

impl Default for QrsConfig {
    fn default() -> Self {
        QrsConfig {
            fs_hz: 250,
            refractory_s: 0.20,
            mwi_window_s: 0.15,
            threshold_coeff: 0.25,
            learning_s: 2.0,
        }
    }
}

/// Streaming QRS detector. Feed samples with [`QrsDetector::push`];
/// confirmed R-peak sample indices are returned with bounded latency.
///
/// # Example
///
/// ```
/// use wbsn_delineation::qrs::{QrsConfig, QrsDetector};
///
/// let mut det = QrsDetector::new(QrsConfig::default()).unwrap();
/// let mut beats = Vec::new();
/// for i in 0..2500i32 {
///     // Impulse train at 1 Hz on a flat baseline.
///     let x = if i % 250 == 100 { 800 } else { 0 };
///     if let Some(r) = det.push(x) {
///         beats.push(r);
///     }
/// }
/// assert!(beats.len() >= 7);
/// ```
#[derive(Debug, Clone)]
pub struct QrsDetector {
    cfg: QrsConfig,
    // Filter windows.
    ma_short: MovingSum,
    ma_long: MovingSum,
    bp_hist: [i64; 5],
    mwi: MovingSum,
    // Exact multiply-shift normalizers for the three window widths —
    // bit-identical to `/ width`, without a hardware divide per sample.
    inv_short: ExactDiv,
    inv_long: ExactDiv,
    inv_mwi: ExactDiv,
    // Recent history for peak localization.
    bp_ring: Vec<i64>,
    // Write cursor into `bp_ring` (== n % bp_ring.len(), maintained
    // incrementally so the hot path never takes a modulo).
    bp_pos: usize,
    // MWI local-maximum tracking.
    mwi_prev: i64,
    mwi_prev2: i64,
    // Adaptive thresholds.
    spki: f64,
    npki: f64,
    // Beat bookkeeping.
    n: usize,
    last_beat: Option<usize>,
    rr_avg: f64,
    // Cached `learning_s * fs` and `1.66 * rr_avg` so the per-sample
    // path compares instead of multiplying (values are recomputed only
    // when `rr_avg` moves, i.e. per beat).
    learning_limit: f64,
    searchback_limit: f64,
    sub_threshold_peaks: Vec<(usize, i64)>,
    refractory: usize,
    mwi_delay: usize,
    bp_delay: usize,
}

/// Fixed-width running sum (integer moving average numerator).
#[derive(Debug, Clone)]
struct MovingSum {
    buf: Vec<i64>,
    pos: usize,
    sum: i64,
}

impl MovingSum {
    fn new(w: usize) -> Self {
        MovingSum {
            buf: vec![0; w.max(1)],
            pos: 0,
            sum: 0,
        }
    }
    #[inline]
    fn push(&mut self, v: i64) -> i64 {
        self.sum += v - self.buf[self.pos];
        self.buf[self.pos] = v;
        self.pos += 1;
        if self.pos == self.buf.len() {
            self.pos = 0;
        }
        self.sum
    }
    fn width(&self) -> usize {
        self.buf.len()
    }
}

/// Exact divider for a moving-window width; a zero width is a typed
/// error rather than a panic.
fn divider(width: usize) -> Result<ExactDiv> {
    ExactDiv::new(width).ok_or(DelineationError::InvalidParameter {
        what: "window width",
        detail: "moving-window widths must be non-zero",
    })
}

impl QrsDetector {
    /// Creates a detector.
    ///
    /// # Errors
    ///
    /// Fails when `fs_hz` is below 100 Hz (the filter chain needs
    /// enough resolution for the 5–15 Hz QRS band).
    pub fn new(cfg: QrsConfig) -> Result<Self> {
        if cfg.fs_hz < 100 {
            return Err(DelineationError::InvalidParameter {
                what: "fs_hz",
                detail: "must be at least 100 Hz",
            });
        }
        let fs = cfg.fs_hz as f64;
        let w_short = ((fs / 25.0).round() as usize).max(2); // ~LP 12 Hz
        let w_long = ((fs / 4.0).round() as usize).max(8); // ~LP 2 Hz
        let w_mwi = ((cfg.mwi_window_s * fs).round() as usize).max(4);
        // The band-pass output peaks (w_short-1)/2 samples after the R
        // peak: the short moving average dominates the response shape.
        let bp_delay = w_short / 2;
        let mwi_delay = bp_delay + 2 + w_mwi / 2;
        let ring_len = (fs * 1.2) as usize;
        Ok(QrsDetector {
            cfg,
            ma_short: MovingSum::new(w_short),
            ma_long: MovingSum::new(w_long),
            bp_hist: [0; 5],
            mwi: MovingSum::new(w_mwi),
            inv_short: divider(w_short)?,
            inv_long: divider(w_long)?,
            inv_mwi: divider(w_mwi)?,
            bp_ring: vec![0; ring_len],
            bp_pos: 0,
            mwi_prev: 0,
            mwi_prev2: 0,
            spki: 0.0,
            npki: 0.0,
            n: 0,
            last_beat: None,
            rr_avg: fs * 0.8,
            learning_limit: cfg.learning_s * fs,
            searchback_limit: 1.66 * (fs * 0.8),
            sub_threshold_peaks: Vec::new(),
            refractory: (cfg.refractory_s * fs) as usize,
            mwi_delay,
            bp_delay,
        })
    }

    /// Sampling rate the detector was configured for.
    pub fn fs_hz(&self) -> u32 {
        self.cfg.fs_hz
    }

    /// Approximate detection latency in samples (filter + search
    /// window delays).
    pub fn latency_samples(&self) -> usize {
        self.mwi_delay + self.refractory
    }

    /// Bytes of state held by the detector (embedded memory budget).
    pub fn memory_bytes(&self) -> usize {
        8 * (self.ma_short.width()
            + self.ma_long.width()
            + self.mwi.width()
            + self.bp_ring.len()
            + self.bp_hist.len())
            + 64
    }

    /// Processes one sample; returns a confirmed R-peak index when a
    /// beat is recognized (indices refer to pushed-sample positions).
    #[inline]
    pub fn push(&mut self, x: i32) -> Option<usize> {
        let n = self.n;
        self.n += 1;
        // Band-pass: short MA minus long MA (keeps ≈2–12 Hz).
        let s_short = self.ma_short.push(x as i64);
        let s_long = self.ma_long.push(x as i64);
        let bp = self.inv_short.div(s_short) - self.inv_long.div(s_long);
        self.bp_ring[self.bp_pos] = bp;
        self.bp_pos += 1;
        if self.bp_pos == self.bp_ring.len() {
            self.bp_pos = 0;
        }
        // Five-point derivative.
        self.bp_hist.rotate_left(1);
        self.bp_hist[4] = bp;
        let d = 2 * self.bp_hist[4] + self.bp_hist[3] - self.bp_hist[1] - 2 * self.bp_hist[0];
        // Square + moving window integral (normalized by width).
        let sq = (d * d) >> 6; // headroom shift
        let mwi = self.inv_mwi.div(self.mwi.push(sq));

        // Local-maximum detection on the MWI.
        let is_peak = self.mwi_prev > 0 && self.mwi_prev >= self.mwi_prev2 && mwi < self.mwi_prev;
        let peak_val = self.mwi_prev;
        let peak_at = n.saturating_sub(1);
        self.mwi_prev2 = self.mwi_prev;
        self.mwi_prev = mwi;

        let mut emitted = None;
        let learning = (n as f64) < self.learning_limit;
        if is_peak {
            if learning {
                // Learning phase: seed the running estimates.
                self.spki = self.spki.max(peak_val as f64 * 0.7);
                self.npki = 0.9 * self.npki + 0.1 * (peak_val as f64 * 0.3);
            } else {
                let threshold1 = self.npki + self.cfg.threshold_coeff * (self.spki - self.npki);
                let since_last = self
                    .last_beat
                    .map_or(usize::MAX, |lb| peak_at.saturating_sub(lb));
                if peak_val as f64 > threshold1 && since_last > self.refractory {
                    emitted = Some(self.confirm_beat(peak_at));
                    self.spki = 0.125 * peak_val as f64 + 0.875 * self.spki;
                    self.sub_threshold_peaks.clear();
                } else {
                    self.npki = 0.125 * peak_val as f64 + 0.875 * self.npki;
                    if since_last > self.refractory {
                        self.sub_threshold_peaks.push((peak_at, peak_val));
                        if self.sub_threshold_peaks.len() > 16 {
                            self.sub_threshold_peaks.remove(0);
                        }
                    }
                }
            }
        }

        // Search-back: if no beat for 1.66·RRavg, accept the largest
        // sub-threshold peak above half the threshold.
        if !learning && emitted.is_none() {
            if let Some(lb) = self.last_beat {
                if (n - lb) as f64 > self.searchback_limit {
                    let threshold2 =
                        0.5 * (self.npki + self.cfg.threshold_coeff * (self.spki - self.npki));
                    if let Some(&(at, val)) = self
                        .sub_threshold_peaks
                        .iter()
                        .max_by_key(|&&(_, v)| v)
                        .filter(|&&(_, v)| v as f64 > threshold2)
                    {
                        emitted = Some(self.confirm_beat(at));
                        self.spki = 0.25 * val as f64 + 0.75 * self.spki;
                        self.sub_threshold_peaks.clear();
                    }
                }
            }
        }
        emitted
    }

    /// Processes a block of samples, appending every confirmed R-peak
    /// index to `beats`. Detections are identical to calling
    /// [`QrsDetector::push`] per sample — this is that loop, packaged
    /// so block callers collect beats without per-sample `Option`
    /// handling at the call site.
    pub fn push_block(&mut self, xs: &[i32], beats: &mut Vec<usize>) {
        for &v in xs {
            if let Some(r) = self.push(v) {
                beats.push(r);
            }
        }
    }

    /// Batch convenience: detect all beats in `x`.
    pub fn detect(x: &[i32], cfg: QrsConfig) -> Result<Vec<usize>> {
        let mut det = QrsDetector::new(cfg)?;
        let mut beats = Vec::new();
        det.push_block(x, &mut beats);
        Ok(beats)
    }

    /// Registers a beat whose MWI peak is at `peak_at`, localizing the
    /// R peak as the maximum of |band-pass| in the preceding window.
    fn confirm_beat(&mut self, peak_at: usize) -> usize {
        let ring_len = self.bp_ring.len();
        // The MWI peak trails the R peak by roughly mwi_delay samples;
        // search |bp| in a window around (peak_at - mwi_delay + bp_delay).
        let center = peak_at.saturating_sub(self.mwi_delay.saturating_sub(self.bp_delay));
        let half = (self.cfg.fs_hz as f64 * 0.12) as usize;
        let lo = center.saturating_sub(half);
        let hi = (center + half).min(self.n.saturating_sub(1));
        let mut best = lo;
        let mut best_v = i64::MIN;
        for i in lo..=hi {
            if self.n - i > ring_len {
                continue; // fell out of the ring
            }
            let v = self.bp_ring[i % ring_len].abs();
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        // Compensate the band-pass group delay.
        let r = best.saturating_sub(self.bp_delay);
        if let Some(lb) = self.last_beat {
            let rr = (r.saturating_sub(lb)) as f64;
            if rr > 0.0 {
                self.rr_avg = 0.875 * self.rr_avg + 0.125 * rr;
                self.searchback_limit = 1.66 * self.rr_avg;
            }
        }
        self.last_beat = Some(r.max(1));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic beat train: Gaussian R waves every `rr` samples.
    fn pulse_train(n: usize, rr: usize, amp: f64, polarity: f64) -> Vec<i32> {
        (0..n)
            .map(|i| {
                let phase = (i % rr) as f64;
                let d = (phase - rr as f64 / 2.0) / 3.0;
                (polarity * amp * (-0.5 * d * d).exp()) as i32
            })
            .collect()
    }

    fn truth_peaks(n: usize, rr: usize) -> Vec<usize> {
        (0..n / rr + 1)
            .map(|k| k * rr + rr / 2)
            .filter(|&p| p < n)
            .collect()
    }

    fn score(detected: &[usize], truth: &[usize], tol: usize, skip_first_s: usize) -> (f64, f64) {
        let truth: Vec<usize> = truth
            .iter()
            .copied()
            .filter(|&t| t > skip_first_s)
            .collect();
        let mut tp = 0;
        let mut matched = vec![false; detected.len()];
        for &t in &truth {
            if let Some((i, _)) = detected
                .iter()
                .enumerate()
                .filter(|&(i, &d)| !matched[i] && d.abs_diff(t) <= tol)
                .min_by_key(|&(_, &d)| d.abs_diff(t))
            {
                matched[i] = true;
                tp += 1;
            }
        }
        let relevant_det = detected.iter().filter(|&&d| d > skip_first_s).count();
        let se = tp as f64 / truth.len().max(1) as f64;
        let ppv = tp as f64 / relevant_det.max(1) as f64;
        (se, ppv)
    }

    #[test]
    fn detects_regular_train() {
        let fs = 250;
        let x = pulse_train(fs * 30, 200, 900.0, 1.0);
        let det = QrsDetector::detect(&x, QrsConfig::default()).unwrap();
        let truth = truth_peaks(x.len(), 200);
        let (se, ppv) = score(&det, &truth, 12, fs * 3);
        assert!(se > 0.98, "se {se}");
        assert!(ppv > 0.98, "ppv {ppv}");
    }

    #[test]
    fn detects_inverted_beats() {
        let fs = 250;
        let x = pulse_train(fs * 30, 190, 900.0, -1.0);
        let det = QrsDetector::detect(&x, QrsConfig::default()).unwrap();
        let truth = truth_peaks(x.len(), 190);
        let (se, ppv) = score(&det, &truth, 12, fs * 3);
        assert!(se > 0.98, "se {se}");
        assert!(ppv > 0.98, "ppv {ppv}");
    }

    #[test]
    fn survives_baseline_drift() {
        let fs = 250usize;
        let mut x = pulse_train(fs * 30, 210, 800.0, 1.0);
        for (i, v) in x.iter_mut().enumerate() {
            *v += (400.0 * (core::f64::consts::TAU * 0.3 * i as f64 / fs as f64).sin()) as i32;
        }
        let det = QrsDetector::detect(&x, QrsConfig::default()).unwrap();
        let truth = truth_peaks(x.len(), 210);
        let (se, ppv) = score(&det, &truth, 15, fs * 3);
        assert!(se > 0.95, "se {se}");
        assert!(ppv > 0.95, "ppv {ppv}");
    }

    #[test]
    fn refractory_suppresses_t_like_bumps() {
        // Beats every 250 samples plus a smaller wide bump 75 samples
        // after each R (a T wave): must not double-count.
        let fs = 250usize;
        let n = fs * 30;
        let x: Vec<i32> = (0..n)
            .map(|i| {
                let phase = (i % 250) as f64;
                let r = 900.0 * (-0.5 * ((phase - 50.0) / 3.0).powi(2)).exp();
                let t = 280.0 * (-0.5 * ((phase - 125.0) / 12.0).powi(2)).exp();
                (r + t) as i32
            })
            .collect();
        let det = QrsDetector::detect(&x, QrsConfig::default()).unwrap();
        let truth: Vec<usize> = (0..n / 250).map(|k| k * 250 + 50).collect();
        let (se, ppv) = score(&det, &truth, 12, fs * 3);
        assert!(se > 0.97, "se {se}");
        assert!(ppv > 0.97, "ppv {ppv}");
    }

    #[test]
    fn irregular_rr_is_tracked() {
        // Alternating RR 180/260 (bigeminy-ish timing).
        let fs = 250usize;
        let n = fs * 30;
        let mut x = vec![0i32; n];
        let mut truth = Vec::new();
        let mut t = 100usize;
        let mut short = true;
        while t < n {
            let lo = t.saturating_sub(9);
            for (i, xv) in x.iter_mut().enumerate().take((t + 9).min(n)).skip(lo) {
                let d = (i as f64 - t as f64) / 3.0;
                *xv += (850.0 * (-0.5 * d * d).exp()) as i32;
            }
            truth.push(t);
            t += if short { 180 } else { 260 };
            short = !short;
        }
        let det = QrsDetector::detect(&x, QrsConfig::default()).unwrap();
        let (se, ppv) = score(&det, &truth, 12, fs * 3);
        assert!(se > 0.95, "se {se}");
        assert!(ppv > 0.95, "ppv {ppv}");
    }

    #[test]
    fn rejects_low_fs() {
        assert!(QrsDetector::new(QrsConfig {
            fs_hz: 50,
            ..QrsConfig::default()
        })
        .is_err());
    }

    #[test]
    fn memory_budget_is_bounded() {
        let det = QrsDetector::new(QrsConfig::default()).unwrap();
        // The streaming detector must stay in the low-kB range.
        assert!(det.memory_bytes() < 4096, "{} bytes", det.memory_bytes());
    }

    #[test]
    fn flat_signal_yields_no_beats() {
        let x = vec![0i32; 250 * 10];
        let det = QrsDetector::detect(&x, QrsConfig::default()).unwrap();
        assert!(det.is_empty());
    }
}
