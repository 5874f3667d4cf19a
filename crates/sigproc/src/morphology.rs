//! Mathematical morphology with flat structuring elements.
//!
//! The paper (Sections III-B, IV-A) uses morphological operators both
//! for ECG conditioning (Sun, Chan & Krishnan, *ECG signal conditioning
//! by morphological filtering*, 2002) and for delineation via the
//! multiscale morphological derivative. With a **flat** structuring
//! element, erosion and dilation reduce to sliding minima and maxima,
//! which the paper notes can be computed by "keeping track of only the
//! center value, maximum and minimum in a sliding window" — here
//! realized with the amortized O(1) monotonic-wedge algorithm, plus a
//! naive reference used for verification.

/// Sliding-window minimum of `x` with a centered flat window of
/// odd length `w` (values beyond the edges are treated as edge-replicated).
///
/// This *is* flat-structuring-element erosion.
///
/// # Panics
///
/// Panics if `w` is zero or even.
pub fn erode(x: &[i32], w: usize) -> Vec<i32> {
    sliding_extreme::<false>(x, w)
}

/// Sliding-window maximum of `x` (flat dilation); see [`erode`].
///
/// # Panics
///
/// Panics if `w` is zero or even.
pub fn dilate(x: &[i32], w: usize) -> Vec<i32> {
    sliding_extreme::<true>(x, w)
}

/// Morphological opening: erosion followed by dilation. Removes
/// positive peaks narrower than the structuring element.
pub fn open(x: &[i32], w: usize) -> Vec<i32> {
    dilate(&erode(x, w), w)
}

/// Morphological closing: dilation followed by erosion. Removes
/// negative pits narrower than the structuring element.
pub fn close(x: &[i32], w: usize) -> Vec<i32> {
    erode(&dilate(x, w), w)
}

/// Monotonic-wedge sliding extreme. `MAX = true` computes maxima,
/// `false` minima. Window is centered; edges replicate.
fn sliding_extreme<const MAX: bool>(x: &[i32], w: usize) -> Vec<i32> {
    assert!(w != 0 && w % 2 == 1, "window length must be odd, got {w}");
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let half = w / 2;
    let at = |i: isize| -> i32 {
        // edge replication
        let i = i.clamp(0, n as isize - 1) as usize;
        x[i]
    };
    // Deque of indices into the virtual (edge-replicated) signal,
    // values kept monotonic (decreasing for max, increasing for min).
    let mut dq: std::collections::VecDeque<isize> = std::collections::VecDeque::new();
    let mut out = Vec::with_capacity(n);
    let dominates = |a: i32, b: i32| if MAX { a >= b } else { a <= b };
    // Pre-fill with the left part of the first window.
    let mut right: isize = -(half as isize) - 1;
    for center in 0..n as isize {
        let new_right = center + half as isize;
        while right < new_right {
            right += 1;
            let v = at(right);
            while let Some(&back) = dq.back() {
                if dominates(v, at(back)) {
                    dq.pop_back();
                } else {
                    break;
                }
            }
            dq.push_back(right);
        }
        let left = center - half as isize;
        while let Some(&front) = dq.front() {
            if front < left {
                dq.pop_front();
            } else {
                break;
            }
        }
        // The window just admitted index `center + half`, so the deque
        // is never empty here; a defensive skip beats an abort.
        if let Some(&front) = dq.front() {
            out.push(at(front));
        }
    }
    out
}

/// Naive O(n·w) sliding extreme used as a correctness reference in
/// tests and as the faithful model of the embedded implementation's
/// per-sample scan.
pub fn sliding_extreme_naive(x: &[i32], w: usize, max: bool) -> Vec<i32> {
    assert!(w != 0 && w % 2 == 1, "window length must be odd, got {w}");
    let n = x.len() as isize;
    let half = (w / 2) as isize;
    (0..n)
        .map(|c| {
            // `w >= 1`, so the window range is never empty and the
            // reduction always yields a value; 0 is a dead fallback.
            (c - half..=c + half)
                .map(|j| x[j.clamp(0, n - 1) as usize])
                .reduce(|b, v| if max { b.max(v) } else { b.min(v) })
                .unwrap_or(0)
        })
        .collect()
}

/// Baseline estimate by opening-then-closing with two structuring
/// elements, per Sun et al. 2002: `w_open` removes peaks (QRS/P/T) and
/// `w_close` removes the remaining pits, leaving the slow baseline.
///
/// Typical choices at sampling rate `fs`: `w_open ≈ 0.2·fs` and
/// `w_close ≈ 0.3·fs` (both forced odd).
pub fn baseline_morphological(x: &[i32], w_open: usize, w_close: usize) -> Vec<i32> {
    close(&open(x, force_odd(w_open)), force_odd(w_close))
}

/// Morphological ECG conditioning filter of Sun et al. 2002.
///
/// Output is the baseline-corrected signal additionally cleaned of
/// impulsive noise by averaging an opening and a closing with a short
/// structuring element pair:
/// `y = (x_bc ∘ b1 • b2 + x_bc • b1 ∘ b2) / 2` where `x_bc = x - baseline`.
#[derive(Debug, Clone)]
pub struct MorphologicalFilter {
    w_baseline_open: usize,
    w_baseline_close: usize,
    w_noise_1: usize,
    w_noise_2: usize,
}

impl MorphologicalFilter {
    /// Filter configured for sampling rate `fs_hz` with the window
    /// proportions recommended by Sun et al. (baseline SEs of 0.2 s and
    /// 0.3 s; noise SE pair of 5 and 7 samples at 250 Hz, scaled).
    pub fn for_sample_rate(fs_hz: u32) -> Self {
        let fs = fs_hz as f64;
        MorphologicalFilter {
            w_baseline_open: force_odd((0.2 * fs) as usize),
            w_baseline_close: force_odd((0.3 * fs) as usize),
            w_noise_1: force_odd(((5.0 / 250.0) * fs) as usize),
            w_noise_2: force_odd(((7.0 / 250.0) * fs) as usize),
        }
    }

    /// Structuring-element widths `(baseline_open, baseline_close, noise1, noise2)`.
    pub fn windows(&self) -> (usize, usize, usize, usize) {
        (
            self.w_baseline_open,
            self.w_baseline_close,
            self.w_noise_1,
            self.w_noise_2,
        )
    }

    /// Estimated drifting baseline of `x`.
    pub fn baseline(&self, x: &[i32]) -> Vec<i32> {
        baseline_morphological(x, self.w_baseline_open, self.w_baseline_close)
    }

    /// Full conditioning: baseline removal + impulsive-noise suppression.
    pub fn filter(&self, x: &[i32]) -> Vec<i32> {
        let baseline = self.baseline(x);
        let corrected: Vec<i32> = x.iter().zip(&baseline).map(|(&xi, &bi)| xi - bi).collect();
        let oc = close(&open(&corrected, self.w_noise_1), self.w_noise_2);
        let co = open(&close(&corrected, self.w_noise_1), self.w_noise_2);
        oc.iter()
            .zip(&co)
            // Round-to-nearest average in integer arithmetic.
            .map(|(&a, &b)| (a + b + 1) >> 1)
            .collect()
    }
}

/// Multiscale Morphological Derivative transform (Sun, Chan & Krishnan
/// 2005) at scale `s` (samples):
///
/// `MMD_s(x)[n] = ((x ⊕ sB)[n] + (x ⊖ sB)[n] − 2·x[n]) / s`
///
/// Peaks in `x` map to sharp minima (positive peaks) or maxima
/// (negative peaks) of the transform; wave boundaries map to local
/// extrema of opposite sign around them. Division by `s` is kept in
/// integer arithmetic (the delineator only compares magnitudes at a
/// fixed scale, so the scaling is monotonic-equivalent).
pub fn mmd_transform(x: &[i32], s: usize) -> Vec<i32> {
    mmd_transform_unscaled(x, s)
        .into_iter()
        .map(|v| v / s.max(1) as i32)
        .collect()
}

/// [`mmd_transform`] without the division by `s`: same extrema and
/// zero-crossings, but full integer resolution — what an embedded
/// detector comparing magnitudes at a single scale actually computes
/// (the division is monotonic and can be folded into thresholds).
pub fn mmd_transform_unscaled(x: &[i32], s: usize) -> Vec<i32> {
    let w = force_odd(2 * s + 1);
    let di = dilate(x, w);
    let er = erode(x, w);
    x.iter()
        .enumerate()
        .map(|(i, &xi)| di[i] + er[i] - 2 * xi)
        .collect()
}

/// Forces `w` odd (rounding up) and at least 1, as required by the
/// centered structuring elements.
pub fn force_odd(w: usize) -> usize {
    let w = w.max(1);
    if w.is_multiple_of(2) {
        w + 1
    } else {
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_with_spike() -> Vec<i32> {
        let mut v: Vec<i32> = (0..50).collect();
        v[25] = 500; // positive spike
        v[40] = -300; // negative spike
        v
    }

    #[test]
    fn erode_dilate_bound_signal() {
        let x = ramp_with_spike();
        let er = erode(&x, 5);
        let di = dilate(&x, 5);
        for i in 0..x.len() {
            assert!(er[i] <= x[i], "erosion anti-extensive at {i}");
            assert!(di[i] >= x[i], "dilation extensive at {i}");
        }
    }

    #[test]
    fn opening_removes_narrow_positive_spike() {
        let x = ramp_with_spike();
        let op = open(&x, 5);
        assert!(op[25] < 100, "spike must be flattened, got {}", op[25]);
        // Opening is anti-extensive.
        for i in 0..x.len() {
            assert!(op[i] <= x[i]);
        }
    }

    #[test]
    fn closing_removes_narrow_negative_spike() {
        let x = ramp_with_spike();
        let cl = close(&x, 5);
        assert!(cl[40] > -50, "pit must be filled, got {}", cl[40]);
        for i in 0..x.len() {
            assert!(cl[i] >= x[i]);
        }
    }

    #[test]
    fn opening_is_idempotent() {
        let x = ramp_with_spike();
        let once = open(&x, 7);
        let twice = open(&once, 7);
        assert_eq!(once, twice);
    }

    #[test]
    fn closing_is_idempotent() {
        let x = ramp_with_spike();
        let once = close(&x, 7);
        let twice = close(&once, 7);
        assert_eq!(once, twice);
    }

    #[test]
    fn wedge_matches_naive_reference() {
        // Deterministic pseudo-random signal.
        let mut state = 0x12345678u32;
        let mut x = Vec::new();
        for _ in 0..300 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            x.push((state >> 20) as i32 - 2048);
        }
        for w in [1, 3, 5, 9, 31, 101] {
            assert_eq!(erode(&x, w), sliding_extreme_naive(&x, w, false), "w={w}");
            assert_eq!(dilate(&x, w), sliding_extreme_naive(&x, w, true), "w={w}");
        }
    }

    #[test]
    fn constant_signal_is_fixed_point() {
        let x = vec![42; 64];
        assert_eq!(erode(&x, 9), x);
        assert_eq!(dilate(&x, 9), x);
        let f = MorphologicalFilter::for_sample_rate(250);
        let y = f.filter(&x);
        // Constant signal: baseline == signal, output ~ 0.
        assert!(y.iter().all(|&v| v == 0));
    }

    #[test]
    fn baseline_tracks_slow_drift() {
        // Slow triangular drift + narrow spikes.
        let n = 500usize;
        let x: Vec<i32> = (0..n)
            .map(|i| {
                let drift = if i < n / 2 { i as i32 } else { (n - i) as i32 };
                let spike = if i % 50 == 25 { 400 } else { 0 };
                drift + spike
            })
            .collect();
        let f = MorphologicalFilter::for_sample_rate(250);
        let b = f.baseline(&x);
        // Baseline must ignore spikes and stay near drift away from edges.
        for (i, &bv) in b.iter().enumerate().take(n - 100).skip(100) {
            let drift = if i < n / 2 { i as i32 } else { (n - i) as i32 };
            assert!(
                (bv - drift).abs() <= 60,
                "baseline off at {i}: {bv} vs {drift}"
            );
        }
    }

    #[test]
    fn mmd_marks_peak_as_minimum() {
        // Triangle peak at center.
        let n = 101usize;
        let x: Vec<i32> = (0..n)
            .map(|i| {
                let d = (i as i32 - 50).abs();
                (50 - d).max(0) * 10
            })
            .collect();
        let m = mmd_transform(&x, 10);
        let (argmin, _) = m
            .iter()
            .enumerate()
            .min_by_key(|(_, &v)| v)
            .expect("non-empty");
        assert!(
            (argmin as i32 - 50).abs() <= 1,
            "MMD minimum should sit at the peak, got {argmin}"
        );
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(erode(&[], 3).is_empty());
        assert!(dilate(&[], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "window length must be odd")]
    fn even_window_panics() {
        let _ = erode(&[1, 2, 3], 4);
    }

    #[test]
    fn force_odd_behaviour() {
        assert_eq!(force_odd(0), 1);
        assert_eq!(force_odd(4), 5);
        assert_eq!(force_odd(5), 5);
    }
}
