//! Single-lead CS reconstruction: FISTA over a wavelet dictionary.
//!
//! Solves `min_a ½‖y − ΦΨa‖² + λ‖a‖₁` where Ψ is an orthonormal
//! Daubechies synthesis operator, then returns `x̂ = Ψâ`. The fast
//! iterative shrinkage-thresholding algorithm (Beck & Teboulle 2009)
//! is the standard decoder in the ECG-CS literature the paper builds
//! on; an optional wavelet-tree constraint implements the connected
//! tree model of Duarte et al. (reference \[17\]).

use crate::encoder::CsEncoder;
use crate::{CsError, Result};
use wbsn_sigproc::wavelet::{wavedec_into, waverec_into, DwtScratch, Wavelet};
use wbsn_sigproc::SparseTernaryMatrix;

/// FISTA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FistaConfig {
    /// Sparsifying wavelet.
    pub wavelet: Wavelet,
    /// Decomposition levels (window length must divide by `2^levels`).
    pub levels: usize,
    /// λ as a fraction of `‖Aᵀy‖∞` (adaptive regularization).
    pub lambda_rel: f64,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Relative-change stopping tolerance.
    pub tol: f64,
    /// Adaptive (gradient) restart, O'Donoghue & Candès 2015: reset
    /// the momentum whenever it points against the descent direction
    /// (`⟨z − a⁺, a⁺ − a⟩ > 0`). Suppresses FISTA's objective ripples,
    /// giving near-monotone, locally linear convergence — which is
    /// what lets the movement tolerance [`FistaConfig::tol`] fire
    /// after a handful of iterations when a solve is warm-started
    /// close to its optimum. `false` preserves the historical
    /// plain-FISTA iterate sequence bit for bit.
    pub restart: bool,
    /// Enforce the parent-child wavelet tree model after shrinkage.
    pub tree_model: bool,
}

impl FistaConfig {
    /// `Ok` when the configuration describes a solve that can run:
    /// `levels` at least 1 and small enough for `2^levels` to fit a
    /// `usize`, `max_iters` at least 1, `lambda_rel` and `tol`
    /// finite and non-negative. `tol == 0` is valid: it runs every one
    /// of `max_iters`.
    fn validate(&self) -> Result<()> {
        validate_iteration(self.levels, self.max_iters, self.lambda_rel, self.tol)
    }
}

/// The checks [`FistaConfig`] and
/// [`GroupFista`](crate::joint::GroupFista)'s configuration share: `levels`
/// in `1..usize::BITS` (so `1 << levels` cannot overflow), `max_iters`
/// at least 1, `lambda_rel` and `tol` finite and non-negative.
pub(crate) fn validate_iteration(
    levels: usize,
    max_iters: usize,
    lambda_rel: f64,
    tol: f64,
) -> Result<()> {
    let invalid = |what, detail: &str| {
        Err(CsError::InvalidParameter {
            what,
            detail: detail.to_string(),
        })
    };
    if levels == 0 || levels >= usize::BITS as usize {
        return invalid("levels", "must be at least 1 and below the word size");
    }
    if max_iters == 0 {
        return invalid("max_iters", "must be at least 1");
    }
    if !(lambda_rel.is_finite() && lambda_rel >= 0.0) {
        return invalid("lambda_rel", "must be finite and non-negative");
    }
    if !(tol.is_finite() && tol >= 0.0) {
        return invalid("tol", "must be finite and non-negative");
    }
    Ok(())
}

impl Default for FistaConfig {
    fn default() -> Self {
        FistaConfig {
            wavelet: Wavelet::Db4,
            levels: 5,
            lambda_rel: 0.005,
            max_iters: 200,
            tol: 1e-5,
            restart: false,
            tree_model: false,
        }
    }
}

/// Reusable per-stream solver state for warm-started solves.
///
/// A gateway decodes one window after another through the *same*
/// sensing matrix, and consecutive ECG windows share most of their
/// wavelet support. The state carries the two quantities that makes
/// the next solve cheap:
///
/// * the **Lipschitz constant** of `A = ΦΨ` — a property of the fixed
///   matrix, so the 12-round power iteration (24 operator
///   applications, ≈12 FISTA iterations' worth of work) runs once per
///   stream instead of once per window;
/// * the **previous window's coefficient solution**, which seeds the
///   next solve far closer to its optimum than the cold all-zeros
///   start, so the early-exit tolerance fires after a fraction of the
///   cold iteration count (pinned ≥2× by `tests/warm_start.rs`).
///
/// The state is only valid for a fixed `(Φ, FistaConfig)` pair —
/// [`FistaState::reset`] it when the sensing matrix changes (the
/// gateway does so on any handshake change). A state whose cached
/// `(rows, cols)` disagree with the solve at hand is ignored and
/// rebuilt — both the warm vector and the Lipschitz constant — so a
/// stale state can degrade speed, never correctness.
#[derive(Debug, Clone, Default)]
pub struct FistaState {
    /// Cached Lipschitz constant of `AᵀA`, keyed by the `(rows, cols)`
    /// of the Φ it was computed for (`None` until first solve).
    lip: Option<((usize, usize), f64)>,
    /// Previous solution in the coefficient domain.
    warm: Vec<f64>,
}

impl FistaState {
    /// Fresh (cold) state.
    pub fn new() -> Self {
        FistaState::default()
    }

    /// Forgets everything — required when the sensing matrix changes.
    pub fn reset(&mut self) {
        self.lip = None;
        self.warm.clear();
    }

    /// True when the next solve will start cold.
    pub fn is_cold(&self) -> bool {
        self.warm.is_empty()
    }
}

/// Reusable working memory for [`Fista::solve_with`]: the DWT scratch
/// plus the signal-, measurement- and coefficient-domain buffers of
/// one iteration. One scratch serves any number of streams and shapes
/// in turn (a gateway keeps one per decode worker, not per session);
/// once warm, the iteration loop allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct FistaScratch {
    dwt: DwtScratch,
    /// Signal domain: `Ψz`, then `Φᵀr`.
    sig: Vec<f64>,
    /// Measurement domain: `ΦΨz`, then the residual `r`.
    meas: Vec<f64>,
    /// Coefficient domain: the gradient `ΨᵀΦᵀr`.
    grad: Vec<f64>,
    /// Current iterate `a`.
    a: Vec<f64>,
    /// Next iterate `a⁺`.
    a_next: Vec<f64>,
    /// Extrapolated point `z` (also the power-iteration vector).
    z: Vec<f64>,
}

impl FistaScratch {
    /// Empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        FistaScratch::default()
    }
}

/// `out = A v = Φ Ψ v`, through `sig`.
fn apply_a(
    phi: &SparseTernaryMatrix,
    w: Wavelet,
    lv: usize,
    v: &[f64],
    dwt: &mut DwtScratch,
    sig: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> Result<()> {
    waverec_into(v, w, lv, dwt, sig)?;
    phi.apply_into(sig, out);
    Ok(())
}

/// `out = Aᵀ r = Ψᵀ Φᵀ r` (Ψ orthonormal), through `sig`.
fn apply_at(
    phi: &SparseTernaryMatrix,
    w: Wavelet,
    lv: usize,
    r: &[f64],
    dwt: &mut DwtScratch,
    sig: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> Result<()> {
    phi.apply_t_into(r, sig);
    wavedec_into(sig, w, lv, dwt, out)?;
    Ok(())
}

/// One reconstruction plus its diagnostics.
#[derive(Debug, Clone)]
pub struct FistaSolve {
    /// Reconstructed window samples (`x̂ = Ψâ`).
    pub x: Vec<f64>,
    /// FISTA iterations actually run (early exit counts fewer than
    /// [`FistaConfig::max_iters`]).
    pub iters: usize,
}

/// Single-lead FISTA solver.
#[derive(Debug, Clone)]
pub struct Fista {
    cfg: FistaConfig,
}

impl Fista {
    /// Creates a solver with the given configuration.
    pub fn new(cfg: FistaConfig) -> Self {
        Fista { cfg }
    }

    /// Configuration in use.
    pub fn config(&self) -> &FistaConfig {
        &self.cfg
    }

    /// Reconstructs a window from its measurements.
    ///
    /// # Errors
    ///
    /// Fails when shapes are inconsistent with the encoder or the
    /// window length is incompatible with the configured levels.
    pub fn reconstruct(&self, encoder: &CsEncoder, y: &[i64]) -> Result<Vec<f64>> {
        let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        self.reconstruct_f64(encoder.sensing_matrix(), &yf)
    }

    /// Warm-started solve: seeds from `state` (previous window's
    /// solution + cached Lipschitz constant) and updates it for the
    /// next window. The first call on a fresh state is an ordinary
    /// cold solve that additionally fills the state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fista::reconstruct`].
    pub fn reconstruct_warm(
        &self,
        encoder: &CsEncoder,
        y: &[i64],
        state: &mut FistaState,
    ) -> Result<FistaSolve> {
        let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        self.solve(encoder.sensing_matrix(), &yf, Some(state))
    }

    /// Float-measurement variant (used by the sweep machinery).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fista::reconstruct`].
    pub fn reconstruct_f64(&self, phi: &SparseTernaryMatrix, y: &[f64]) -> Result<Vec<f64>> {
        Ok(self.solve(phi, y, None)?.x)
    }

    /// The solver core with a fresh [`FistaScratch`]: cold when
    /// `state` is `None` (or fresh), warm-started otherwise.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fista::solve_with`].
    pub fn solve(
        &self,
        phi: &SparseTernaryMatrix,
        y: &[f64],
        state: Option<&mut FistaState>,
    ) -> Result<FistaSolve> {
        self.solve_with(&mut FistaScratch::new(), phi, y, state)
    }

    /// [`Fista::solve`] on caller-owned working memory: with a warm
    /// `scratch` the iteration loop performs no heap allocation, and
    /// a solve allocates only its returned samples.
    ///
    /// # Errors
    ///
    /// [`CsError::InvalidParameter`] before any work when the
    /// configuration is degenerate: `levels` or `max_iters` is zero,
    /// `2^levels` overflows a `usize`, or `lambda_rel` or `tol` is
    /// negative or non-finite (`tol == 0` is valid). Also fails when `y` does not have `phi.rows()` entries
    /// or holds a non-finite value, or when the window length is
    /// incompatible with the configured levels. A rejected solve leaves
    /// `state` untouched.
    pub fn solve_with(
        &self,
        scratch: &mut FistaScratch,
        phi: &SparseTernaryMatrix,
        y: &[f64],
        state: Option<&mut FistaState>,
    ) -> Result<FistaSolve> {
        self.cfg.validate()?;
        let n = phi.cols();
        let m = phi.rows();
        if y.len() != m {
            return Err(CsError::ShapeMismatch {
                what: "measurement vector",
                expected: m,
                got: y.len(),
            });
        }
        if let Some(index) = y.iter().position(|v| !v.is_finite()) {
            return Err(CsError::NonFinite {
                what: "measurement vector",
                index,
            });
        }
        if n % (1 << self.cfg.levels) != 0 {
            return Err(CsError::InvalidParameter {
                what: "levels",
                detail: format!("window {n} not divisible by 2^{}", self.cfg.levels),
            });
        }
        let w = self.cfg.wavelet;
        let lv = self.cfg.levels;
        let FistaScratch {
            dwt,
            sig,
            meas,
            grad,
            a,
            a_next,
            z,
        } = scratch;

        // A state is trusted only for the shape it was built on; a
        // mismatched one is stale, so both its Lipschitz constant and
        // its warm vector are ignored (and overwritten below).
        let cached = state.as_ref().and_then(|s| match s.lip {
            Some((shape, lip)) if shape == (m, n) && s.warm.len() == n => Some((lip, &s.warm)),
            _ => None,
        });

        // Lipschitz constant of ∇f via power iteration on AᵀA — a
        // property of the fixed operator, so a warm state pays it once
        // per stream. `z` doubles as the power-iteration vector.
        let lip = match cached {
            Some((l, _)) => l,
            None => {
                z.clear();
                z.resize(n, 1.0);
                let mut lam = 1.0f64;
                for _ in 0..12 {
                    apply_a(phi, w, lv, z, dwt, sig, meas)?;
                    apply_at(phi, w, lv, meas, dwt, sig, grad)?;
                    lam = grad.iter().map(|x| x * x).sum::<f64>().sqrt();
                    if lam <= 0.0 {
                        break;
                    }
                    for (vi, &ai) in z.iter_mut().zip(grad.iter()) {
                        *vi = ai / lam;
                    }
                }
                lam.max(1e-12)
            }
        };
        let step = 1.0 / lip;

        apply_at(phi, w, lv, y, dwt, sig, grad)?;
        let linf = grad.iter().fold(0.0f64, |mx, &v| mx.max(v.abs()));
        let lambda = self.cfg.lambda_rel * linf;

        // Warm start from the previous window's solution, or cold
        // from zeros.
        a.clear();
        match cached {
            Some((_, warm)) => a.extend_from_slice(warm),
            None => a.resize(n, 0.0),
        }
        z.clear();
        z.extend_from_slice(a);
        a_next.resize(n, 0.0);
        let mut t = 1.0f64;
        let mut prev_norm = 0.0f64;
        let mut iters = 0usize;
        for _ in 0..self.cfg.max_iters {
            iters += 1;
            // r = A z − y, then ∇ = Aᵀ r.
            apply_a(phi, w, lv, z, dwt, sig, meas)?;
            for (p, q) in meas.iter_mut().zip(y) {
                *p -= q;
            }
            apply_at(phi, w, lv, meas, dwt, sig, grad)?;
            for ((an, &zi), &gi) in a_next.iter_mut().zip(z.iter()).zip(grad.iter()) {
                *an = soft_threshold(zi - step * gi, step * lambda);
            }
            if self.cfg.tree_model {
                enforce_tree(a_next, n, lv);
            }
            // One pass, three independent ordered sums, each starting
            // at −0.0 and adding in index order exactly as `f64`'s
            // `Sum` would over its own pass:
            // * the restart test `⟨z − a⁺, a⁺ − a⟩`,
            // * `‖a⁺ − a‖²` and `‖a⁺‖²` for the movement tolerance.
            let mut overshoot = -0.0f64;
            let mut change2 = -0.0f64;
            let mut norm2 = -0.0f64;
            for ((&zi, &an), &ao) in z.iter().zip(a_next.iter()).zip(a.iter()) {
                let step_taken = an - ao;
                overshoot += (zi - an) * step_taken;
                change2 += step_taken * step_taken;
                norm2 += an * an;
            }
            // Gradient restart: when the momentum direction `a⁺ − a`
            // opposes the step the prox-gradient actually took from z,
            // the extrapolation is overshooting — drop it.
            if self.cfg.restart && overshoot > 0.0 {
                t = 1.0;
            }
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
            let beta = (t - 1.0) / t_next;
            for ((zi, &an), &ao) in z.iter_mut().zip(a_next.iter()).zip(a.iter()) {
                *zi = an + beta * (an - ao);
            }
            let change = change2.sqrt();
            let norm = norm2.sqrt();
            core::mem::swap(a, a_next);
            t = t_next;
            if norm > 0.0 && change / norm.max(prev_norm) < self.cfg.tol {
                break;
            }
            prev_norm = norm;
        }
        let mut x = Vec::with_capacity(n);
        waverec_into(a, w, lv, dwt, &mut x)?;
        if let Some(s) = state {
            s.lip = Some(((m, n), lip));
            s.warm.clear();
            s.warm.extend_from_slice(a);
        }
        Ok(FistaSolve { x, iters })
    }
}

/// Soft-thresholding (proximal operator of `λ‖·‖₁`).
pub fn soft_threshold(v: f64, thresh: f64) -> f64 {
    if v > thresh {
        v - thresh
    } else if v < -thresh {
        v + thresh
    } else {
        0.0
    }
}

/// Enforces the wavelet parent-child model: a detail coefficient may
/// survive only if its parent at the next-coarser scale survived.
/// Coefficients are packed `[a_L | d_L | d_{L-1} | … | d_1]`.
fn enforce_tree(a: &mut [f64], n: usize, levels: usize) {
    // Walk from the coarsest detail band to the finest.
    let coarsest = n >> levels;
    let mut parent_start = coarsest; // d_L
    for lev in (1..levels).rev() {
        let child_start = n - (n >> lev); // start of d_lev
        let child_len = n >> lev;
        let parent_len = child_len / 2;
        for c in 0..child_len {
            let p = parent_start + c / 2;
            debug_assert!(p < parent_start + parent_len);
            if a[p] == 0.0 {
                a[child_start + c] = 0.0;
            }
        }
        parent_start = child_start;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::CsEncoder;
    use wbsn_sigproc::stats::snr_db;

    /// An ECG-like window: two smooth bumps (QRS + T).
    fn ecg_like(n: usize) -> Vec<i32> {
        (0..n)
            .map(|i| {
                let qrs = 900.0 * (-((i as f64 - n as f64 * 0.4) / 6.0).powi(2) / 2.0).exp();
                let t = 250.0 * (-((i as f64 - n as f64 * 0.62) / 20.0).powi(2) / 2.0).exp();
                (qrs + t) as i32
            })
            .collect()
    }

    #[test]
    fn soft_threshold_laws() {
        assert_eq!(soft_threshold(5.0, 2.0), 3.0);
        assert_eq!(soft_threshold(-5.0, 2.0), -3.0);
        assert_eq!(soft_threshold(1.0, 2.0), 0.0);
        assert_eq!(soft_threshold(0.0, 0.0), 0.0);
    }

    #[test]
    fn reconstructs_sparse_signal_at_moderate_cr() {
        let n = 256;
        let x = ecg_like(n);
        let enc = CsEncoder::new(n, 128, 4, 11).unwrap();
        let y = enc.encode(&x).unwrap();
        let solver = Fista::new(FistaConfig::default());
        let xr = solver.reconstruct(&enc, &y).unwrap();
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let snr = snr_db(&xf, &xr);
        assert!(snr > 18.0, "CR=50% snr {snr}");
    }

    #[test]
    fn quality_degrades_with_cr() {
        let n = 256;
        let x = ecg_like(n);
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let solver = Fista::new(FistaConfig::default());
        let snr_at = |m: usize| {
            let enc = CsEncoder::new(n, m, 4, 13).unwrap();
            let y = enc.encode(&x).unwrap();
            snr_db(&xf, &solver.reconstruct(&enc, &y).unwrap())
        };
        let hi = snr_at(160);
        let lo = snr_at(40);
        assert!(hi > lo + 5.0, "m=160 {hi} dB vs m=40 {lo} dB");
    }

    #[test]
    fn tree_model_runs_and_reconstructs() {
        let n = 256;
        let x = ecg_like(n);
        let enc = CsEncoder::new(n, 110, 4, 17).unwrap();
        let y = enc.encode(&x).unwrap();
        // The tree model pairs with a stronger threshold (it prunes
        // orphan coefficients; a small λ leaves too many parents alive
        // for the constraint to help).
        let solver = Fista::new(FistaConfig {
            tree_model: true,
            lambda_rel: 0.02,
            ..FistaConfig::default()
        });
        let xr = solver.reconstruct(&enc, &y).unwrap();
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        assert!(snr_db(&xf, &xr) > 10.0);
    }

    #[test]
    fn rejects_incompatible_levels() {
        let enc = CsEncoder::new(80, 40, 4, 1).unwrap(); // 80 not divisible by 32
        let y = enc.encode(&vec![0; 80]).unwrap();
        let solver = Fista::new(FistaConfig::default());
        assert!(solver.reconstruct(&enc, &y).is_err());
    }

    #[test]
    fn rejects_wrong_measurement_length() {
        let enc = CsEncoder::new(128, 64, 4, 1).unwrap();
        let solver = Fista::new(FistaConfig::default());
        assert!(solver.reconstruct(&enc, &[0i64; 63]).is_err());
    }

    #[test]
    fn zero_measurements_give_zero_signal() {
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let solver = Fista::new(FistaConfig::default());
        let xr = solver.reconstruct(&enc, &vec![0i64; 64]).unwrap();
        assert!(xr.iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn warm_first_solve_matches_cold_bit_for_bit() {
        // A fresh state changes nothing about the first solve: same
        // power iteration, same zero start, same iterates.
        let n = 256;
        let x = ecg_like(n);
        let enc = CsEncoder::new(n, 128, 4, 11).unwrap();
        let y = enc.encode(&x).unwrap();
        let solver = Fista::new(FistaConfig::default());
        let cold = solver.reconstruct(&enc, &y).unwrap();
        let mut state = FistaState::new();
        assert!(state.is_cold());
        let warm = solver.reconstruct_warm(&enc, &y, &mut state).unwrap();
        assert!(!state.is_cold());
        let cold_bits: Vec<u64> = cold.iter().map(|v| v.to_bits()).collect();
        let warm_bits: Vec<u64> = warm.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(cold_bits, warm_bits);
    }

    #[test]
    fn warm_second_solve_converges_faster_on_a_repeated_window() {
        let n = 256;
        let x = ecg_like(n);
        let enc = CsEncoder::new(n, 128, 4, 11).unwrap();
        let y = enc.encode(&x).unwrap();
        let solver = Fista::new(FistaConfig::default());
        let mut state = FistaState::new();
        let first = solver.reconstruct_warm(&enc, &y, &mut state).unwrap();
        let second = solver.reconstruct_warm(&enc, &y, &mut state).unwrap();
        assert!(
            second.iters * 2 <= first.iters,
            "warm restart on an identical window should converge ≥2× \
             faster: cold {} iters, warm {}",
            first.iters,
            second.iters
        );
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        assert!(snr_db(&xf, &second.x) + 0.5 >= snr_db(&xf, &first.x));
    }

    #[test]
    fn stale_state_shape_is_ignored_not_trusted() {
        // A state warmed on a 256-window must not poison a 128-window
        // solve; the solver falls back to a cold start.
        let solver = Fista::new(FistaConfig::default());
        let big = CsEncoder::new(256, 128, 4, 5).unwrap();
        let mut state = FistaState::new();
        let x = ecg_like(256);
        let y = big.encode(&x).unwrap();
        solver.reconstruct_warm(&big, &y, &mut state).unwrap();
        // Lipschitz constants differ between the operators, so the
        // stale cached value must be dropped along with the warm
        // vector for the result to stay correct — reset does both.
        state.reset();
        assert!(state.is_cold());
        let small = CsEncoder::new(128, 64, 4, 5).unwrap();
        let xs = ecg_like(128);
        let ys = small.encode(&xs).unwrap();
        let warm = solver.reconstruct_warm(&small, &ys, &mut state).unwrap();
        let cold = solver.reconstruct(&small, &ys).unwrap();
        let warm_bits: Vec<u64> = warm.x.iter().map(|v| v.to_bits()).collect();
        let cold_bits: Vec<u64> = cold.iter().map(|v| v.to_bits()).collect();
        assert_eq!(warm_bits, cold_bits);
    }

    #[test]
    fn mismatched_state_is_rebuilt_without_reset() {
        // Same window length, different measurement count: the warm
        // vector's length still fits, so only the stored (rows, cols)
        // can tell the cached Lipschitz constant is stale. The solve
        // must then match a cold one bit for bit, and leave a state
        // keyed to the new shape.
        let solver = Fista::new(FistaConfig::default());
        let x = ecg_like(256);
        let wide = CsEncoder::new(256, 160, 4, 5).unwrap();
        let mut state = FistaState::new();
        solver
            .reconstruct_warm(&wide, &wide.encode(&x).unwrap(), &mut state)
            .unwrap();
        let narrow = CsEncoder::new(256, 64, 4, 5).unwrap();
        let y = narrow.encode(&x).unwrap();
        let warm = solver.reconstruct_warm(&narrow, &y, &mut state).unwrap();
        let cold = solver.reconstruct(&narrow, &y).unwrap();
        let warm_bits: Vec<u64> = warm.x.iter().map(|v| v.to_bits()).collect();
        let cold_bits: Vec<u64> = cold.iter().map(|v| v.to_bits()).collect();
        assert_eq!(warm_bits, cold_bits);
        assert_eq!(state.lip.map(|(shape, _)| shape), Some((64, 256)));
    }

    #[test]
    fn non_finite_measurements_are_a_typed_error() {
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let solver = Fista::new(FistaConfig::default());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut y = vec![0.0; 64];
            y[11] = bad;
            let mut state = FistaState::new();
            let err = solver
                .solve(enc.sensing_matrix(), &y, Some(&mut state))
                .unwrap_err();
            assert_eq!(
                err,
                CsError::NonFinite {
                    what: "measurement vector",
                    index: 11
                }
            );
            // A rejected window leaves the stream's state untouched.
            assert!(state.is_cold());
        }
    }

    #[test]
    fn degenerate_configs_are_typed_errors_before_any_work() {
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let y: Vec<f64> = enc
            .encode(&ecg_like(128))
            .unwrap()
            .iter()
            .map(|&v| v as f64)
            .collect();
        let base = FistaConfig::default();
        let cases = [
            ("levels", FistaConfig { levels: 0, ..base }),
            ("levels", FistaConfig { levels: 64, ..base }),
            (
                "max_iters",
                FistaConfig {
                    max_iters: 0,
                    ..base
                },
            ),
            (
                "lambda_rel",
                FistaConfig {
                    lambda_rel: -1e-3,
                    ..base
                },
            ),
            (
                "lambda_rel",
                FistaConfig {
                    lambda_rel: f64::NAN,
                    ..base
                },
            ),
            (
                "lambda_rel",
                FistaConfig {
                    lambda_rel: f64::INFINITY,
                    ..base
                },
            ),
            ("tol", FistaConfig { tol: -1e-5, ..base }),
            (
                "tol",
                FistaConfig {
                    tol: f64::NAN,
                    ..base
                },
            ),
            (
                "tol",
                FistaConfig {
                    tol: f64::INFINITY,
                    ..base
                },
            ),
        ];
        // A warm state, so "untouched" is observable beyond coldness.
        let mut warm = FistaState::new();
        Fista::new(base)
            .solve(enc.sensing_matrix(), &y, Some(&mut warm))
            .unwrap();
        for (what, cfg) in cases {
            assert!(
                matches!(cfg.validate(), Err(CsError::InvalidParameter { what: w, .. }) if w == what),
                "{cfg:?}"
            );
            for mut state in [FistaState::new(), warm.clone()] {
                let before = (state.lip, state.warm.clone());
                // Measurements of the wrong length too: the
                // configuration is checked before the input.
                for y in [&y[..], &y[1..]] {
                    let err = Fista::new(cfg)
                        .solve(enc.sensing_matrix(), y, Some(&mut state))
                        .unwrap_err();
                    assert!(
                        matches!(err, CsError::InvalidParameter { what: w, .. } if w == what),
                        "{cfg:?}: {err:?}"
                    );
                }
                assert_eq!(state.lip, before.0, "{what}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&state.warm), bits(&before.1), "{what}");
            }
        }
    }

    #[test]
    fn zero_tolerance_runs_every_iteration() {
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let y = enc.encode(&ecg_like(128)).unwrap();
        let cfg = FistaConfig {
            tol: 0.0,
            max_iters: 7,
            ..FistaConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        let solve = Fista::new(cfg)
            .reconstruct_warm(&enc, &y, &mut FistaState::new())
            .unwrap();
        assert_eq!(solve.iters, 7);
    }

    #[test]
    fn scratch_reuse_across_shapes_matches_fresh_solves() {
        // One scratch serving windows of different shapes in turn (as a
        // gateway worker does across sessions) gives the same bits as a
        // fresh scratch per solve.
        let solver = Fista::new(FistaConfig {
            max_iters: 60,
            ..FistaConfig::default()
        });
        let mut scratch = FistaScratch::new();
        for (n, m) in [(256, 128), (128, 48), (512, 192), (256, 100)] {
            let enc = CsEncoder::new(n, m, 4, 9).unwrap();
            let y: Vec<f64> = enc
                .encode(&ecg_like(n))
                .unwrap()
                .iter()
                .map(|&v| v as f64)
                .collect();
            let reused = solver
                .solve_with(&mut scratch, enc.sensing_matrix(), &y, None)
                .unwrap();
            let fresh = solver.solve(enc.sensing_matrix(), &y, None).unwrap();
            assert_eq!(reused.iters, fresh.iters);
            let a: Vec<u64> = reused.x.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = fresh.x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "n={n} m={m}");
        }
    }
}
