//! FIR filtering with integer-quantized coefficients.
//!
//! The acquisition chain of the WBSN conditions the raw ADC stream with
//! short FIR sections (the paper's Section III-B "filtering stage is
//! mandatory"). Embedded targets store coefficients as Q15 integers;
//! this module provides both the float designs (windowed-sinc) and the
//! integer streaming engine that models the node implementation.

use crate::{Result, SigprocError};

/// Streaming FIR filter with `i32` coefficients in Q15 and an `i64`
/// accumulator, matching a 16×16→32 MAC datapath with headroom.
///
/// # Block processing
///
/// The history is a **contiguous double buffer**: every sample is
/// written twice, `n` apart, so the most recent `n` samples are always
/// available as one contiguous slice and the convolution never takes a
/// per-tap branch or modulo. [`FirFilter::process_block_into`] splits a
/// block into a short *history prologue* (outputs whose window still
/// overlaps pre-block state) and a *steady-state slice loop* (pure
/// forward dot products over the input block, the autovectorizable
/// path). Both paths are bit-identical to calling [`FirFilter::push`]
/// per sample.
///
/// # Example
///
/// ```
/// use wbsn_sigproc::fir::FirFilter;
///
/// // 3-tap moving average in Q15.
/// let q = (1 << 15) / 3;
/// let mut f = FirFilter::from_q15(vec![q, q, q]).unwrap();
/// let y: Vec<i32> = [30, 30, 30, 30].iter().map(|&x| f.push(x)).collect();
/// assert_eq!(y[3], 30);
/// ```
#[derive(Debug, Clone)]
pub struct FirFilter {
    taps_q15: Vec<i32>,
    /// Taps in reversed order, so the steady-state block loop is a
    /// forward·forward dot product.
    taps_rev: Vec<i32>,
    /// Double-buffered history, `2n` long: sample written at `pos` is
    /// mirrored at `pos + n`, and `history[pos..pos + n]` is always the
    /// last `n` samples, newest first.
    history: Vec<i32>,
    pos: usize,
}

impl FirFilter {
    /// Builds a filter from Q15 integer taps.
    ///
    /// # Errors
    ///
    /// Returns [`SigprocError::InvalidLength`] when `taps` is empty.
    pub fn from_q15(taps: Vec<i32>) -> Result<Self> {
        if taps.is_empty() {
            return Err(SigprocError::InvalidLength {
                what: "fir taps",
                got: 0,
            });
        }
        let n = taps.len();
        let taps_rev: Vec<i32> = taps.iter().rev().copied().collect();
        Ok(FirFilter {
            taps_q15: taps,
            taps_rev,
            history: vec![0; 2 * n],
            pos: 0,
        })
    }

    /// Builds a filter by quantizing float taps to Q15.
    ///
    /// # Errors
    ///
    /// Returns [`SigprocError::InvalidLength`] when `taps` is empty.
    pub fn from_f64(taps: &[f64]) -> Result<Self> {
        Self::from_q15(taps.iter().map(|&t| (t * 32768.0).round() as i32).collect())
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps_q15.len()
    }

    /// True if the filter has no taps (never true for a constructed filter).
    pub fn is_empty(&self) -> bool {
        self.taps_q15.is_empty()
    }

    /// Group delay in samples for the linear-phase case `(N-1)/2`.
    pub fn group_delay(&self) -> usize {
        (self.taps_q15.len() - 1) / 2
    }

    /// Pushes one sample, returning the filtered output.
    #[inline]
    pub fn push(&mut self, x: i32) -> i32 {
        let n = self.taps_q15.len();
        self.pos = if self.pos == 0 { n - 1 } else { self.pos - 1 };
        self.history[self.pos] = x;
        self.history[self.pos + n] = x;
        // history[pos..pos + n] is newest→oldest: one contiguous dot
        // product, no per-tap branch, no modulo.
        let window = &self.history[self.pos..self.pos + n];
        let acc: i64 = self
            .taps_q15
            .iter()
            .zip(window)
            .map(|(&t, &h)| t as i64 * h as i64)
            .sum();
        round_q15(acc)
    }

    /// Filters a block into `out` (cleared first), continuing from the
    /// current history — bit-identical to pushing every sample through
    /// [`FirFilter::push`], at block speed.
    ///
    /// The first `n-1` outputs (fewer when the block is shorter) go
    /// through the history prologue, mixing pre-block state with the
    /// block head; every later output is a pure dot product of the
    /// reversed taps against a sliding window of `x` — contiguous,
    /// branch-free and vectorizable.
    pub fn process_block_into(&mut self, x: &[i32], out: &mut Vec<i32>) {
        out.clear();
        out.reserve(x.len());
        let n = self.taps_q15.len();
        let m = n - 1;
        // History prologue: windows still overlapping pre-block state.
        let prologue = m.min(x.len());
        for &v in &x[..prologue] {
            let y = self.push(v);
            out.push(y);
        }
        // Steady state: window i covers x[i-m ..= i] only.
        for window in x.windows(n) {
            let acc: i64 = self
                .taps_rev
                .iter()
                .zip(window)
                .map(|(&t, &h)| t as i64 * h as i64)
                .sum();
            out.push(round_q15(acc));
        }
        // Rebuild the double-buffered history from the block tail.
        if x.len() > prologue {
            let tail = &x[x.len() - n..];
            for (i, &v) in tail.iter().enumerate() {
                self.history[n - 1 - i] = v;
                self.history[2 * n - 1 - i] = v;
            }
            self.pos = 0;
        }
    }

    /// Filters a whole slice (stateful; continues from current history).
    ///
    /// Allocates the output vector; hot paths should prefer
    /// [`FirFilter::process_block_into`] with a caller-owned buffer.
    pub fn filter(&mut self, x: &[i32]) -> Vec<i32> {
        let mut out = Vec::new();
        self.process_block_into(x, &mut out);
        out
    }

    /// Resets the history to zero.
    pub fn reset(&mut self) {
        self.history.fill(0);
        self.pos = 0;
    }
}

/// Q15 → integer with rounding (shared by the per-sample and block
/// paths so they stay bit-identical by construction).
#[inline]
fn round_q15(acc: i64) -> i32 {
    ((acc + (1 << 14)) >> 15) as i32
}

/// Windowed-sinc low-pass design with a Hamming window.
///
/// `cutoff_hz` is the -6 dB cutoff, `fs_hz` the sampling rate, `n_taps`
/// the (odd) filter length.
///
/// # Errors
///
/// Fails if `n_taps` is even/zero or the cutoff is not in `(0, fs/2)`.
pub fn design_lowpass(fs_hz: f64, cutoff_hz: f64, n_taps: usize) -> Result<Vec<f64>> {
    if n_taps == 0 || n_taps.is_multiple_of(2) {
        return Err(SigprocError::InvalidLength {
            what: "n_taps (must be odd)",
            got: n_taps,
        });
    }
    if !(cutoff_hz > 0.0 && cutoff_hz < fs_hz / 2.0) {
        return Err(SigprocError::InvalidParameter {
            what: "cutoff_hz",
            detail: "must lie in (0, fs/2)",
        });
    }
    let fc = cutoff_hz / fs_hz;
    let m = (n_taps - 1) as f64;
    let mut taps: Vec<f64> = (0..n_taps)
        .map(|i| {
            let x = i as f64 - m / 2.0;
            let sinc = if x == 0.0 {
                2.0 * fc
            } else {
                (2.0 * core::f64::consts::PI * fc * x).sin() / (core::f64::consts::PI * x)
            };
            let hamming = 0.54 - 0.46 * (2.0 * core::f64::consts::PI * i as f64 / m).cos();
            sinc * hamming
        })
        .collect();
    let sum: f64 = taps.iter().sum();
    for t in &mut taps {
        *t /= sum; // unity DC gain
    }
    Ok(taps)
}

/// Windowed-sinc high-pass design (spectral inversion of [`design_lowpass`]).
///
/// # Errors
///
/// Same conditions as [`design_lowpass`].
pub fn design_highpass(fs_hz: f64, cutoff_hz: f64, n_taps: usize) -> Result<Vec<f64>> {
    let mut lp = design_lowpass(fs_hz, cutoff_hz, n_taps)?;
    for t in lp.iter_mut() {
        *t = -*t;
    }
    lp[(n_taps - 1) / 2] += 1.0;
    Ok(lp)
}

/// Band-pass design as a cascade-free tap-domain difference of two
/// low-pass prototypes.
///
/// # Errors
///
/// Fails under the conditions of [`design_lowpass`] or when
/// `lo_hz >= hi_hz`.
pub fn design_bandpass(fs_hz: f64, lo_hz: f64, hi_hz: f64, n_taps: usize) -> Result<Vec<f64>> {
    if lo_hz >= hi_hz {
        return Err(SigprocError::InvalidParameter {
            what: "band edges",
            detail: "lo_hz must be < hi_hz",
        });
    }
    let lp_hi = design_lowpass(fs_hz, hi_hz, n_taps)?;
    let lp_lo = design_lowpass(fs_hz, lo_hz, n_taps)?;
    Ok(lp_hi.iter().zip(&lp_lo).map(|(a, b)| a - b).collect())
}

/// Magnitude response of a tap set at frequency `f_hz` (for tests and
/// design verification).
pub fn magnitude_at(taps: &[f64], fs_hz: f64, f_hz: f64) -> f64 {
    let w = 2.0 * core::f64::consts::PI * f_hz / fs_hz;
    let (mut re, mut im) = (0.0f64, 0.0f64);
    for (i, &t) in taps.iter().enumerate() {
        re += t * (w * i as f64).cos();
        im -= t * (w * i as f64).sin();
    }
    (re * re + im * im).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowpass_passes_dc_blocks_high() {
        let taps = design_lowpass(250.0, 40.0, 51).unwrap();
        assert!((magnitude_at(&taps, 250.0, 0.0) - 1.0).abs() < 1e-6);
        assert!(magnitude_at(&taps, 250.0, 100.0) < 0.05);
    }

    #[test]
    fn highpass_blocks_dc_passes_high() {
        let taps = design_highpass(250.0, 0.7, 101).unwrap();
        assert!(magnitude_at(&taps, 250.0, 0.0) < 1e-6);
        assert!(magnitude_at(&taps, 250.0, 30.0) > 0.95);
    }

    #[test]
    fn bandpass_selects_band() {
        let taps = design_bandpass(250.0, 5.0, 15.0, 101).unwrap();
        assert!(magnitude_at(&taps, 250.0, 10.0) > 0.9);
        assert!(magnitude_at(&taps, 250.0, 0.0) < 0.05);
        assert!(magnitude_at(&taps, 250.0, 60.0) < 0.05);
    }

    #[test]
    fn streaming_matches_direct_convolution() {
        let taps = design_lowpass(250.0, 30.0, 21).unwrap();
        let mut f = FirFilter::from_f64(&taps).unwrap();
        let x: Vec<i32> = (0..100).map(|i: i32| (i * 37) % 211 - 100).collect();
        let y = f.filter(&x);
        // Direct convolution with the same quantized taps.
        let q: Vec<i64> = taps.iter().map(|&t| (t * 32768.0).round() as i64).collect();
        for n in 0..x.len() {
            let mut acc = 0i64;
            for (k, &t) in q.iter().enumerate() {
                if n >= k {
                    acc += t * x[n - k] as i64;
                }
            }
            let want = ((acc + (1 << 14)) >> 15) as i32;
            assert_eq!(y[n], want, "sample {n}");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut f = FirFilter::from_q15(vec![32768 / 2, 32768 / 2]).unwrap();
        f.push(1000);
        f.reset();
        // After reset, first output only sees the new sample.
        assert_eq!(f.push(0), 0);
    }

    #[test]
    fn invalid_designs_are_rejected() {
        assert!(design_lowpass(250.0, 40.0, 50).is_err(), "even taps");
        assert!(design_lowpass(250.0, 200.0, 51).is_err(), "cutoff > fs/2");
        assert!(
            design_bandpass(250.0, 20.0, 10.0, 51).is_err(),
            "inverted band"
        );
        assert!(FirFilter::from_q15(vec![]).is_err(), "empty taps");
    }

    #[test]
    fn group_delay_is_centered() {
        let f = FirFilter::from_q15(vec![0, 0, 32767, 0, 0]).unwrap();
        assert_eq!(f.group_delay(), 2);
    }
}
