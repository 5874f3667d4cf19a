//! Single-lead CS reconstruction: FISTA over a wavelet dictionary.
//!
//! Solves `min_a ½‖y − ΦΨa‖² + λ‖a‖₁` where Ψ is an orthonormal
//! Daubechies synthesis operator, then returns `x̂ = Ψâ`. The fast
//! iterative shrinkage-thresholding algorithm (Beck & Teboulle 2009)
//! is the standard decoder in the ECG-CS literature the paper builds
//! on; an optional wavelet-tree constraint implements the connected
//! tree model of Duarte et al. (reference \[17\]).
//!
//! Two options cut the iterations a solve needs to reach its ℓ1
//! optimum. Gradient restart (O'Donoghue & Candès 2015) drops the
//! momentum whenever it overshoots. λ-continuation (Hale, Yin & Zhang's
//! fixed-point continuation, 2008) solves a short sequence of problems
//! with shrinking λ, each started from the last one's solution, and
//! stops on the movement tolerance only at the target λ: the large-λ
//! stages find the sparse support cheaply, and the final stage refines
//! it. The gateway runs both ([`FistaConfig`]'s `Default` runs neither,
//! which keeps the historical iterate sequence).
//!
//! The Lipschitz constant the iteration steps by depends only on Φ and
//! the dictionary, so [`Fista::solve_with`] takes it from the caller:
//! the gateway's matrix cache computes it once per matrix
//! ([`Fista::lipschitz`]).

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
    /// Maximum iterations, over every continuation stage together.
    pub max_iters: usize,
    /// Relative-change stopping tolerance, tested at the target λ.
    pub tol: f64,
    /// Adaptive (gradient) restart, O'Donoghue & Candès 2015: reset
    /// the momentum whenever it points against the descent direction
    /// (`⟨z − a⁺, a⁺ − a⟩ > 0`). Suppresses FISTA's objective ripples,
    /// giving near-monotone, locally linear convergence — which is
    /// what lets the movement tolerance [`FistaConfig::tol`] fire
    /// close to the optimum instead of on a ripple. `false` preserves
    /// the historical plain-FISTA iterate sequence bit for bit.
    pub restart: bool,
    /// Enforce the parent-child wavelet tree model after shrinkage.
    pub tree_model: bool,
    /// λ-continuation schedule; `None` solves at the target λ from the
    /// first iteration.
    pub continuation: Option<Continuation>,
}

/// A λ-continuation schedule (Hale, Yin & Zhang 2008).
///
/// The solve starts at `λ = max(λ_target, start_rel·‖Aᵀy‖∞)`. While
/// `λ > λ_target`, each time the relative change falls below
/// `stage_tol` the stage ends: `λ ← max(factor·λ, λ_target)` and the
/// momentum resets. [`FistaConfig::tol`] applies only at `λ_target`,
/// and [`FistaConfig::max_iters`] caps all stages together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Continuation {
    /// First stage's λ as a fraction of `‖Aᵀy‖∞`; at least
    /// [`FistaConfig::lambda_rel`].
    pub start_rel: f64,
    /// Factor λ shrinks by from one stage to the next, in `(0, 1)`.
    pub factor: f64,
    /// Relative-change tolerance that ends a stage above the target λ.
    pub stage_tol: f64,
}

impl FistaConfig {
    /// `Ok` when the configuration describes a solve that can run:
    /// `levels` at least 1 and small enough for `2^levels` to fit a
    /// `usize`, `max_iters` at least 1, `lambda_rel` and `tol`
    /// finite and non-negative, and a continuation schedule that
    /// [`validate_continuation`] accepts. `tol == 0` is valid: it runs
    /// every one of `max_iters` unless the iterate reaches an exact
    /// fixed point.
    fn validate(&self) -> Result<()> {
        validate_iteration(self.levels, self.max_iters, self.lambda_rel, self.tol)?;
        match &self.continuation {
            Some(c) => validate_continuation(c, self.lambda_rel),
            None => Ok(()),
        }
    }
}

fn invalid(what: &'static str, detail: &str) -> Result<()> {
    Err(CsError::InvalidParameter {
        what,
        detail: detail.to_string(),
    })
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

/// A continuation schedule can run when `factor` lies in `(0, 1)` (so
/// λ shrinks and reaches the target), `start_rel` is finite and at
/// least `lambda_rel` (the schedule starts at or above the target),
/// and `stage_tol` is finite and non-negative.
fn validate_continuation(c: &Continuation, lambda_rel: f64) -> Result<()> {
    if !(c.factor > 0.0 && c.factor < 1.0) {
        return invalid("continuation.factor", "must lie in (0, 1)");
    }
    if !(c.start_rel.is_finite() && c.start_rel >= lambda_rel) {
        return invalid(
            "continuation.start_rel",
            "must be finite and at least lambda_rel",
        );
    }
    if !(c.stage_tol.is_finite() && c.stage_tol >= 0.0) {
        return invalid("continuation.stage_tol", "must be finite and non-negative");
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
            continuation: None,
        }
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

    /// The Lipschitz constant of `∇f` for `A = ΦΨ` under this
    /// configuration's wavelet and levels: 12 rounds of power iteration
    /// on `AᵀA` from the all-ones vector. It depends only on Φ and the
    /// dictionary, so a caller that solves many windows through one Φ
    /// computes it once and hands it to [`Fista::solve_with`].
    ///
    /// # Errors
    ///
    /// [`CsError::InvalidParameter`] for a degenerate configuration or
    /// a window length incompatible with the configured levels.
    pub fn lipschitz(&self, phi: &SparseTernaryMatrix) -> Result<f64> {
        self.cfg.validate()?;
        self.check_levels(phi.cols())?;
        let FistaScratch {
            dwt,
            sig,
            meas,
            grad,
            z,
            ..
        } = &mut FistaScratch::new();
        let (w, lv) = (self.cfg.wavelet, self.cfg.levels);
        z.resize(phi.cols(), 1.0);
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
        Ok(lam.max(1e-12))
    }

    /// `Ok` when a window of `n` samples divides by `2^levels`.
    fn check_levels(&self, n: usize) -> Result<()> {
        if n % (1 << self.cfg.levels) != 0 {
            return Err(CsError::InvalidParameter {
                what: "levels",
                detail: format!("window {n} not divisible by 2^{}", self.cfg.levels),
            });
        }
        Ok(())
    }

    /// Float-measurement variant (used by the sweep machinery).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fista::reconstruct`].
    pub fn reconstruct_f64(&self, phi: &SparseTernaryMatrix, y: &[f64]) -> Result<Vec<f64>> {
        Ok(self.solve(phi, y)?.x)
    }

    /// The solver core with a fresh [`FistaScratch`] and the Lipschitz
    /// constant computed for this one solve.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fista::solve_with`].
    pub fn solve(&self, phi: &SparseTernaryMatrix, y: &[f64]) -> Result<FistaSolve> {
        let lip = self.lipschitz(phi)?;
        self.solve_with(&mut FistaScratch::new(), phi, y, lip)
    }

    /// [`Fista::solve`] on caller-owned working memory, stepping by a
    /// `lipschitz` constant the caller computed once for `phi` with
    /// [`Fista::lipschitz`]: with a warm `scratch` the iteration loop
    /// performs no heap allocation, and a solve allocates only its
    /// returned samples. Every solve starts cold, from zeros.
    ///
    /// Besides the tolerance and the iteration cap, a solve stops at an
    /// exact fixed point: when a step taken from the current iterate
    /// returns it bit for bit, every later iteration would too (an
    /// all-zero `y` gets there on the first iteration).
    ///
    /// # Errors
    ///
    /// [`CsError::InvalidParameter`] before any work when the
    /// configuration is degenerate: `levels` or `max_iters` is zero,
    /// `2^levels` overflows a `usize`, `lambda_rel` or `tol` is
    /// negative or non-finite (`tol == 0` is valid), or the
    /// continuation schedule is degenerate (see [`Continuation`]); or
    /// when `lipschitz` is not finite and positive. Also fails when `y`
    /// does not have `phi.rows()` entries or holds a non-finite value,
    /// or when the window length is incompatible with the configured
    /// levels.
    pub fn solve_with(
        &self,
        scratch: &mut FistaScratch,
        phi: &SparseTernaryMatrix,
        y: &[f64],
        lipschitz: f64,
    ) -> Result<FistaSolve> {
        self.cfg.validate()?;
        if !(lipschitz.is_finite() && lipschitz > 0.0) {
            return Err(CsError::InvalidParameter {
                what: "lipschitz",
                detail: format!("{lipschitz} is not finite and positive"),
            });
        }
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
        self.check_levels(n)?;
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
        let step = 1.0 / lipschitz;

        apply_at(phi, w, lv, y, dwt, sig, grad)?;
        let linf = grad.iter().fold(0.0f64, |mx, &v| mx.max(v.abs()));
        let target = self.cfg.lambda_rel * linf;
        let mut lambda = match &self.cfg.continuation {
            Some(c) => target.max(c.start_rel * linf),
            None => target,
        };

        a.clear();
        a.resize(n, 0.0);
        z.clear();
        z.resize(n, 0.0);
        a_next.resize(n, 0.0);
        let mut t = 1.0f64;
        let mut prev_norm = 0.0f64;
        let mut iters = 0usize;
        // Whether `z == a` bit for bit: the next step is taken from the
        // current iterate itself, with no momentum.
        let mut from_a = true;
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
            let change = change2.sqrt();
            let norm = norm2.sqrt();
            // `a⁺ == a` bit for bit (the sum is only zero when nothing
            // moved, or moved below f64's square range).
            let still = change2 == 0.0
                && a_next
                    .iter()
                    .zip(a.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
            let above_target = lambda > target;
            let tol = match &self.cfg.continuation {
                Some(c) if above_target => c.stage_tol,
                _ => self.cfg.tol,
            };
            let settled = (from_a && still) || (norm > 0.0 && change / norm.max(prev_norm) < tol);
            // Gradient restart: when the momentum direction `a⁺ − a`
            // opposes the step the prox-gradient actually took from z,
            // the extrapolation is overshooting — drop it. A finished
            // continuation stage drops it too: the next stage solves a
            // different problem.
            if (self.cfg.restart && overshoot > 0.0) || (above_target && settled) {
                t = 1.0;
            }
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
            let beta = (t - 1.0) / t_next;
            for ((zi, &an), &ao) in z.iter_mut().zip(a_next.iter()).zip(a.iter()) {
                *zi = an + beta * (an - ao);
            }
            // With β = 0 or a⁺ = a the update wrote z = a⁺ exactly
            // (soft-thresholding never yields −0.0).
            from_a = beta == 0.0 || still;
            core::mem::swap(a, a_next);
            t = t_next;
            if settled {
                match &self.cfg.continuation {
                    Some(c) if above_target => lambda = target.max(c.factor * lambda),
                    _ => break,
                }
            }
            prev_norm = norm;
        }
        let mut x = Vec::with_capacity(n);
        waverec_into(a, w, lv, dwt, &mut x)?;
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
        // λ = 0 and the iterate never leaves zero: an exact fixed point
        // on the first step, not `max_iters` of idling.
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let y = vec![0.0; 64];
        for cfg in [
            FistaConfig::default(),
            FistaConfig {
                max_iters: 800,
                tol: 0.0,
                restart: true,
                continuation: Some(schedule()),
                ..FistaConfig::default()
            },
        ] {
            let solve = Fista::new(cfg).solve(enc.sensing_matrix(), &y).unwrap();
            assert!(solve.iters <= 2, "{} iterations on y = 0", solve.iters);
            assert!(solve.x.iter().all(|&v| v.to_bits() == 0), "{cfg:?}");
        }
        let solver = Fista::new(FistaConfig::default());
        let xr = solver.reconstruct(&enc, &vec![0i64; 64]).unwrap();
        assert!(xr.iter().all(|&v| v.abs() < 1e-9));
    }

    /// A continuation schedule in the gateway's range.
    fn schedule() -> Continuation {
        Continuation {
            start_rel: 0.01,
            factor: 0.3,
            stage_tol: 3e-3,
        }
    }

    #[test]
    fn continuation_reaches_the_plain_optimum_in_fewer_iterations() {
        let n = 256;
        let x = ecg_like(n);
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let enc = CsEncoder::new(n, 128, 4, 11).unwrap();
        let y: Vec<f64> = enc.encode(&x).unwrap().iter().map(|&v| v as f64).collect();
        let plain = FistaConfig {
            lambda_rel: 0.001,
            max_iters: 800,
            tol: 3e-5,
            restart: true,
            ..FistaConfig::default()
        };
        let cold = Fista::new(plain).solve(enc.sensing_matrix(), &y).unwrap();
        let staged = Fista::new(FistaConfig {
            continuation: Some(schedule()),
            tol: 1e-4,
            ..plain
        })
        .solve(enc.sensing_matrix(), &y)
        .unwrap();
        assert!(
            staged.iters < cold.iters,
            "continuation {} iterations vs plain {}",
            staged.iters,
            cold.iters
        );
        let (snr_cold, snr_staged) = (snr_db(&xf, &cold.x), snr_db(&xf, &staged.x));
        assert!(
            snr_staged + 0.5 >= snr_cold,
            "continuation {snr_staged:.2} dB vs plain {snr_cold:.2} dB"
        );
    }

    #[test]
    fn continuation_stages_share_the_iteration_cap() {
        let enc = CsEncoder::new(256, 128, 4, 11).unwrap();
        let y: Vec<f64> = enc
            .encode(&ecg_like(256))
            .unwrap()
            .iter()
            .map(|&v| v as f64)
            .collect();
        // A schedule whose stages never end by tolerance still stops
        // at `max_iters`.
        let cfg = FistaConfig {
            max_iters: 9,
            continuation: Some(Continuation {
                stage_tol: 0.0,
                ..schedule()
            }),
            ..FistaConfig::default()
        };
        let solve = Fista::new(cfg).solve(enc.sensing_matrix(), &y).unwrap();
        assert_eq!(solve.iters, 9);
        // A schedule starting at the target λ is plain FISTA, bit for
        // bit.
        let plain = FistaConfig::default();
        let at_target = FistaConfig {
            continuation: Some(Continuation {
                start_rel: plain.lambda_rel,
                ..schedule()
            }),
            ..plain
        };
        let a = Fista::new(plain).solve(enc.sensing_matrix(), &y).unwrap();
        let b = Fista::new(at_target)
            .solve(enc.sensing_matrix(), &y)
            .unwrap();
        assert_eq!(a.iters, b.iters);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.x), bits(&b.x));
    }

    #[test]
    fn non_finite_measurements_are_a_typed_error() {
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let solver = Fista::new(FistaConfig::default());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut y = vec![0.0; 64];
            y[11] = bad;
            let err = solver.solve(enc.sensing_matrix(), &y).unwrap_err();
            assert_eq!(
                err,
                CsError::NonFinite {
                    what: "measurement vector",
                    index: 11
                }
            );
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
        for (what, cfg) in cases {
            assert!(
                matches!(cfg.validate(), Err(CsError::InvalidParameter { what: w, .. }) if w == what),
                "{cfg:?}"
            );
            // Measurements of the wrong length too: the configuration
            // is checked before the input.
            for y in [&y[..], &y[1..]] {
                let err = Fista::new(cfg).solve(enc.sensing_matrix(), y).unwrap_err();
                assert!(
                    matches!(err, CsError::InvalidParameter { what: w, .. } if w == what),
                    "{cfg:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn degenerate_continuation_schedules_are_typed_errors_before_any_work() {
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let y = vec![1.0; 64];
        let base = FistaConfig::default();
        let with = |c: Continuation| FistaConfig {
            continuation: Some(c),
            ..base
        };
        let s = schedule();
        let cases = [
            (
                "continuation.factor",
                with(Continuation { factor: 0.0, ..s }),
            ),
            (
                "continuation.factor",
                with(Continuation { factor: 1.0, ..s }),
            ),
            (
                "continuation.factor",
                with(Continuation { factor: -0.5, ..s }),
            ),
            (
                "continuation.factor",
                with(Continuation {
                    factor: f64::NAN,
                    ..s
                }),
            ),
            (
                "continuation.start_rel",
                with(Continuation {
                    start_rel: base.lambda_rel / 2.0,
                    ..s
                }),
            ),
            (
                "continuation.start_rel",
                with(Continuation {
                    start_rel: f64::INFINITY,
                    ..s
                }),
            ),
            (
                "continuation.start_rel",
                with(Continuation {
                    start_rel: f64::NAN,
                    ..s
                }),
            ),
            (
                "continuation.stage_tol",
                with(Continuation {
                    stage_tol: -1e-3,
                    ..s
                }),
            ),
            (
                "continuation.stage_tol",
                with(Continuation {
                    stage_tol: f64::NAN,
                    ..s
                }),
            ),
            (
                "continuation.stage_tol",
                with(Continuation {
                    stage_tol: f64::INFINITY,
                    ..s
                }),
            ),
        ];
        for (what, cfg) in cases {
            assert!(
                matches!(cfg.validate(), Err(CsError::InvalidParameter { what: w, .. }) if w == what),
                "{cfg:?}"
            );
            for y in [&y[..], &y[1..]] {
                let err = Fista::new(cfg).solve(enc.sensing_matrix(), y).unwrap_err();
                assert!(
                    matches!(err, CsError::InvalidParameter { what: w, .. } if w == what),
                    "{cfg:?}: {err:?}"
                );
            }
        }
        // The edges that do describe a schedule.
        for c in [
            Continuation {
                start_rel: base.lambda_rel,
                ..s
            },
            Continuation {
                stage_tol: 0.0,
                ..s
            },
            Continuation { factor: 1e-9, ..s },
        ] {
            assert_eq!(with(c).validate(), Ok(()), "{c:?}");
        }
    }

    #[test]
    fn non_positive_lipschitz_constants_are_typed_errors() {
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let y = vec![1.0; 64];
        let solver = Fista::new(FistaConfig::default());
        for lip in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = solver
                .solve_with(&mut FistaScratch::new(), enc.sensing_matrix(), &y, lip)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    CsError::InvalidParameter {
                        what: "lipschitz",
                        ..
                    }
                ),
                "{lip}: {err:?}"
            );
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
        let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        let solve = Fista::new(cfg).solve(enc.sensing_matrix(), &yf).unwrap();
        assert_eq!(solve.iters, 7);
    }

    #[test]
    fn scratch_reuse_across_shapes_matches_fresh_solves() {
        // One scratch serving windows of different shapes in turn (as a
        // gateway worker does across sessions) gives the same bits as a
        // fresh scratch per solve.
        for continuation in [None, Some(schedule())] {
            let solver = Fista::new(FistaConfig {
                max_iters: 60,
                continuation,
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
                let lip = solver.lipschitz(enc.sensing_matrix()).unwrap();
                let reused = solver
                    .solve_with(&mut scratch, enc.sensing_matrix(), &y, lip)
                    .unwrap();
                let fresh = solver.solve(enc.sensing_matrix(), &y).unwrap();
                assert_eq!(reused.iters, fresh.iters);
                let a: Vec<u64> = reused.x.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u64> = fresh.x.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "n={n} m={m}");
            }
        }
    }
}
