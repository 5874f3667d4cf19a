//! Node-side CS encoder: integer-only `y = Φx`.

use crate::{compression_ratio, CsError, Result};
use wbsn_sigproc::SparseTernaryMatrix;

/// Compressed-sensing encoder for one signal window.
///
/// The sensing matrix is column-sparse ternary with `d_per_col`
/// non-zeros: encoding a window costs exactly `n·d` signed integer
/// additions, no multiplications — the property that makes CS "a very
/// low cost and easy to implement compression technique" on the node
/// (Section III-A). Both ends regenerate Φ from the shared `seed`.
#[derive(Debug, Clone)]
pub struct CsEncoder {
    phi: SparseTernaryMatrix,
    seed: u64,
}

impl CsEncoder {
    /// Creates an encoder mapping `n`-sample windows to `m`
    /// measurements using `d_per_col` non-zeros per column.
    ///
    /// # Errors
    ///
    /// Fails when `m > n`, any dimension is zero, or `d_per_col` is
    /// invalid for the shape.
    pub fn new(n: usize, m: usize, d_per_col: usize, seed: u64) -> Result<Self> {
        if m > n {
            return Err(CsError::InvalidParameter {
                what: "m",
                detail: format!("measurements ({m}) must not exceed window length ({n})"),
            });
        }
        let phi = SparseTernaryMatrix::random(m, n, d_per_col, seed)?;
        Ok(CsEncoder { phi, seed })
    }

    /// Creates the encoder for one lead of a multi-lead session: lead
    /// `l` senses with the matrix seeded `base_seed + l` (wrapping).
    ///
    /// This is *the* seed-derivation rule of the whole system — the
    /// node's `CsStage` builds its per-lead encoders through it, and
    /// the gateway regenerates Φ from the session handshake through
    /// it, so both ends provably agree on the same matrix
    /// (`tests/phi_handshake_identity.rs` pins the bit-identity).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CsEncoder::new`].
    pub fn for_lead(
        n: usize,
        m: usize,
        d_per_col: usize,
        base_seed: u64,
        lead: u8,
    ) -> Result<Self> {
        CsEncoder::new(n, m, d_per_col, base_seed.wrapping_add(u64::from(lead)))
    }

    /// Window length `n`.
    pub fn window_len(&self) -> usize {
        self.phi.cols()
    }

    /// Measurement count `m`.
    pub fn measurements(&self) -> usize {
        self.phi.rows()
    }

    /// Seed shared with the decoder.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The sensing matrix (decoder side needs it for reconstruction).
    pub fn sensing_matrix(&self) -> &SparseTernaryMatrix {
        &self.phi
    }

    /// Compression ratio in percent.
    pub fn cr_percent(&self) -> f64 {
        compression_ratio(self.window_len(), self.measurements())
    }

    /// Encodes one window of ADC counts into a caller-owned measurement
    /// buffer (cleared and resized to `m` first) — the zero-allocation
    /// form of [`CsEncoder::encode`].
    ///
    /// # Errors
    ///
    /// Fails when `window.len() != n`.
    pub fn encode_into(&self, window: &[i32], y: &mut Vec<i64>) -> Result<()> {
        if window.len() != self.window_len() {
            return Err(CsError::ShapeMismatch {
                what: "encode window",
                expected: self.window_len(),
                got: window.len(),
            });
        }
        self.phi.apply_i32_into(window, y);
        Ok(())
    }

    /// Encodes a batch of back-to-back windows (`windows.len()` must be
    /// a multiple of `n`) into one measurement buffer: window `k`'s
    /// measurements land at `y[k * m..(k + 1) * m]`. Returns the number
    /// of windows encoded. One buffer, one shape check, no per-window
    /// allocation.
    ///
    /// # Errors
    ///
    /// Fails when `windows.len()` is not a multiple of `n`.
    pub fn encode_batch_into(&self, windows: &[i32], y: &mut Vec<i64>) -> Result<usize> {
        let n = self.window_len();
        if !windows.len().is_multiple_of(n) {
            return Err(CsError::ShapeMismatch {
                what: "encode batch",
                expected: windows.len().next_multiple_of(n),
                got: windows.len(),
            });
        }
        let n_windows = windows.len() / n;
        let m = self.measurements();
        y.clear();
        y.resize(n_windows * m, 0);
        for (window, out) in windows.chunks_exact(n).zip(y.chunks_exact_mut(m)) {
            self.phi.apply_i32_to_slice(window, out);
        }
        Ok(n_windows)
    }

    /// Encodes one window of ADC counts.
    ///
    /// Allocates the output; hot paths should prefer
    /// [`CsEncoder::encode_into`] or [`CsEncoder::encode_batch_into`].
    ///
    /// # Errors
    ///
    /// Fails when `window.len() != n`.
    pub fn encode(&self, window: &[i32]) -> Result<Vec<i64>> {
        let mut y = Vec::new();
        self.encode_into(window, &mut y)?;
        Ok(y)
    }

    /// Integer additions per encoded window (`n·d`) — the MCU cost the
    /// energy model charges for compression.
    pub fn adds_per_window(&self) -> usize {
        self.phi.encode_add_count()
    }

    /// Bits needed to transmit one encoded window. Measurements are
    /// sums of `d` column entries of up to `sample_bits` each, so each
    /// needs `sample_bits + ceil(log2(d)) + 1` bits.
    pub fn payload_bits(&self, sample_bits: u32) -> usize {
        let growth = usize::BITS - (self.phi.d_per_col()).leading_zeros();
        self.measurements() * (sample_bits + growth + 1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_matches_matrix_apply() {
        let enc = CsEncoder::new(64, 32, 3, 5).unwrap();
        let x: Vec<i32> = (0..64).map(|i: i32| i * i % 97 - 48).collect();
        let y = enc.encode(&x).unwrap();
        assert_eq!(y, enc.sensing_matrix().apply_i32(&x));
        assert_eq!(y.len(), 32);
    }

    #[test]
    fn cr_reports_reduction() {
        let enc = CsEncoder::new(512, 175, 4, 1).unwrap();
        assert!((enc.cr_percent() - 65.8).abs() < 0.3);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(CsEncoder::new(64, 65, 3, 1).is_err());
        assert!(CsEncoder::new(0, 0, 3, 1).is_err());
        let enc = CsEncoder::new(64, 32, 3, 1).unwrap();
        assert!(enc.encode(&[0; 63]).is_err());
    }

    #[test]
    fn cost_and_payload_accounting() {
        let enc = CsEncoder::new(512, 128, 4, 9).unwrap();
        assert_eq!(enc.adds_per_window(), 512 * 4);
        // 12-bit samples, d=4 -> 12 + 3 + 1 = 16 bits per measurement.
        assert_eq!(enc.payload_bits(12), 128 * 16);
    }

    #[test]
    fn same_seed_same_encoding() {
        let a = CsEncoder::new(128, 64, 4, 77).unwrap();
        let b = CsEncoder::new(128, 64, 4, 77).unwrap();
        let x: Vec<i32> = (0..128).collect();
        assert_eq!(a.encode(&x).unwrap(), b.encode(&x).unwrap());
    }

    #[test]
    fn for_lead_derives_the_seed_by_wrapping_add() {
        let direct = CsEncoder::new(128, 64, 4, 100 + 3).unwrap();
        let derived = CsEncoder::for_lead(128, 64, 4, 100, 3).unwrap();
        assert_eq!(derived.seed(), 103);
        assert_eq!(direct.sensing_matrix(), derived.sensing_matrix());
        // The derivation wraps instead of overflowing.
        let wrapped = CsEncoder::for_lead(128, 64, 4, u64::MAX, 2).unwrap();
        assert_eq!(wrapped.seed(), 1);
    }
}
