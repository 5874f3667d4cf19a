//! Summary statistics and reconstruction-quality metrics.
//!
//! The evaluation of the paper reports compression quality as output
//! SNR in dB over reconstructed records (Figure 5); the CS literature
//! it builds on (\[4\], \[16\]) uses PRD (percentage root-mean-square
//! difference). Both are provided, related by
//! `SNR_dB = -20·log10(PRD/100)`.

/// Integer square root of a `u64` (floor).
///
/// Seeds with the hardware `f64` square root and corrects the result
/// exactly; the `f64` estimate is always within ±1 of the true floor
/// (the relative error of rounding `v` to 53 bits plus one ulp from
/// `sqrt` is far below one at magnitude `√v`), so the correction loops
/// run at most once. Same results as the classic 32-iteration
/// bit-by-bit routine — this is the RMS lead combiner's per-frame
/// inner call, so the host takes the ~10× faster path while an
/// integer-only MCU would ship the shift-subtract version.
pub fn isqrt_u64(v: u64) -> u64 {
    let mut r = (v as f64).sqrt() as u64;
    // `r` can overshoot (or reach 2^32 for v near u64::MAX, where r*r
    // overflows — treat overflow as "too big").
    while r.checked_mul(r).is_none_or(|rr| rr > v) {
        r -= 1;
    }
    // ... or undershoot by one.
    while (r + 1).checked_mul(r + 1).is_some_and(|rr| rr <= v) {
        r += 1;
    }
    r
}

/// Arithmetic mean; 0 for empty input.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Population variance; 0 for inputs shorter than 2.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Standard deviation (population).
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Root mean square; 0 for empty input.
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        (x.iter().map(|&v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }
}

/// Median (interpolated for even lengths); 0 for empty input.
pub fn median(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let mut v = x.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `p`-th percentile (0–100, nearest-rank with interpolation).
///
/// # Panics
///
/// Panics when `x` is empty or `p` is outside `[0, 100]`.
pub fn percentile(x: &[f64], p: f64) -> f64 {
    assert!(!x.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    let mut v = x.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Nearest-rank 95th percentile of an ascending-sorted slice (the
/// value at rank `round(0.95·(n − 1))`); 0 for an empty slice.
pub fn percentile95_sorted(sorted: &[f64]) -> f64 {
    let rank = (sorted.len().saturating_sub(1) as f64 * 0.95).round() as usize;
    sorted.get(rank).copied().unwrap_or(0.0)
}

/// Output signal-to-noise ratio in dB between an original and its
/// reconstruction: `10·log10(Σx² / Σ(x−x̂)²)`.
///
/// Returns `f64::INFINITY` for an exact reconstruction.
///
/// # Panics
///
/// Panics when lengths differ or the original is all-zero.
pub fn snr_db(original: &[f64], reconstructed: &[f64]) -> f64 {
    assert_eq!(original.len(), reconstructed.len(), "length mismatch");
    let sig: f64 = original.iter().map(|&v| v * v).sum();
    assert!(sig > 0.0, "snr of all-zero signal");
    let err: f64 = original
        .iter()
        .zip(reconstructed)
        .map(|(&a, &b)| (a - b) * (a - b))
        .sum();
    if err == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (sig / err).log10()
    }
}

/// Percentage root-mean-square difference:
/// `PRD = 100·sqrt(Σ(x−x̂)² / Σx²)`.
///
/// # Panics
///
/// Same conditions as [`snr_db`].
pub fn prd_percent(original: &[f64], reconstructed: &[f64]) -> f64 {
    assert_eq!(original.len(), reconstructed.len(), "length mismatch");
    let sig: f64 = original.iter().map(|&v| v * v).sum();
    assert!(sig > 0.0, "prd of all-zero signal");
    let err: f64 = original
        .iter()
        .zip(reconstructed)
        .map(|(&a, &b)| (a - b) * (a - b))
        .sum();
    100.0 * (err / sig).sqrt()
}

/// Pearson correlation coefficient; 0 when either input is constant.
///
/// # Panics
///
/// Panics when lengths differ.
pub fn correlation(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    if x.len() < 2 {
        return 0.0;
    }
    let mx = mean(x);
    let my = mean(y);
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for i in 0..x.len() {
        let a = x[i] - mx;
        let b = y[i] - my;
        num += a * b;
        dx += a * a;
        dy += b * b;
    }
    if dx == 0.0 || dy == 0.0 {
        0.0
    } else {
        num / (dx * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isqrt_exact_squares_and_neighbors() {
        for v in [0u64, 1, 2, 3, 4, 15, 16, 17, 99, 100, 1 << 40] {
            let r = isqrt_u64(v);
            assert!(r * r <= v, "floor property for {v}");
            assert!((r + 1) * (r + 1) > v, "tightness for {v}");
        }
        assert_eq!(isqrt_u64(u64::MAX), (1u64 << 32) - 1);
    }

    #[test]
    fn basic_moments() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&x), 2.5);
        assert!((variance(&x) - 1.25).abs() < 1e-12);
        assert!((rms(&x) - (7.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(median(&x), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let x = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&x, 0.0), 10.0);
        assert_eq!(percentile(&x, 100.0), 40.0);
        assert_eq!(percentile(&x, 50.0), 25.0);
    }

    #[test]
    fn percentile95_sorted_takes_the_nearest_rank() {
        let x: Vec<f64> = (1..=20).map(f64::from).collect();
        // Rank round(0.95 · 19) = 18.
        assert_eq!(percentile95_sorted(&x), 19.0);
        assert_eq!(percentile95_sorted(&[7.0]), 7.0);
        assert_eq!(percentile95_sorted(&[]), 0.0);
    }

    #[test]
    fn snr_prd_duality() {
        let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        let y: Vec<f64> = x.iter().map(|&v| v + 0.01).collect();
        let snr = snr_db(&x, &y);
        let prd = prd_percent(&x, &y);
        let snr_from_prd = -20.0 * (prd / 100.0).log10();
        assert!((snr - snr_from_prd).abs() < 1e-9);
    }

    #[test]
    fn perfect_reconstruction_is_infinite_snr() {
        let x = [1.0, -2.0, 3.0];
        assert_eq!(snr_db(&x, &x), f64::INFINITY);
        assert_eq!(prd_percent(&x, &x), 0.0);
    }

    #[test]
    fn correlation_limits() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 2.0 * v + 1.0).collect();
        let z: Vec<f64> = x.iter().map(|&v| -v).collect();
        assert!((correlation(&x, &y) - 1.0).abs() < 1e-12);
        assert!((correlation(&x, &z) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&x, &vec![5.0; 50]), 0.0);
    }

    #[test]
    fn empty_inputs_are_harmless() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(rms(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }
}
