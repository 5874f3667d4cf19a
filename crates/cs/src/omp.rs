//! Orthogonal matching pursuit — the greedy baseline.
//!
//! OMP is the classical greedy decoder used as a comparison point in
//! the ECG-CS literature. It is slower per atom than FISTA at ECG
//! sizes but recovers exactly-sparse signals exactly, which makes it
//! a good correctness oracle for the solver stack.

use crate::{CsError, Result};
use wbsn_sigproc::wavelet::{wavedec, waverec, Wavelet};
use wbsn_sigproc::SparseTernaryMatrix;

/// OMP configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OmpConfig {
    /// Sparsifying wavelet.
    pub wavelet: Wavelet,
    /// Decomposition levels.
    pub levels: usize,
    /// Maximum number of atoms to select.
    pub max_atoms: usize,
    /// Residual norm (relative to ‖y‖) at which to stop.
    pub residual_tol: f64,
}

impl Default for OmpConfig {
    fn default() -> Self {
        OmpConfig {
            wavelet: Wavelet::Db4,
            levels: 5,
            max_atoms: 64,
            residual_tol: 1e-4,
        }
    }
}

/// Greedy solver for `y = ΦΨa` with explicit per-atom least squares.
#[derive(Debug, Clone)]
pub struct Omp {
    cfg: OmpConfig,
}

impl Omp {
    /// Creates a solver.
    pub fn new(cfg: OmpConfig) -> Self {
        Omp { cfg }
    }

    /// Reconstructs the signal window from measurements `y`.
    ///
    /// # Errors
    ///
    /// Fails on shape mismatches or incompatible levels.
    pub fn reconstruct(&self, phi: &SparseTernaryMatrix, y: &[f64]) -> Result<Vec<f64>> {
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
        // Column j of A = Φ Ψ e_j, materialized lazily and cached.
        let mut atom_cache: Vec<Option<Vec<f64>>> = vec![None; n];
        let atom = |j: usize, cache: &mut Vec<Option<Vec<f64>>>| -> Result<Vec<f64>> {
            if let Some(col) = &cache[j] {
                return Ok(col.clone());
            }
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = phi.apply(&waverec(&e, w, lv)?);
            cache[j] = Some(col.clone());
            Ok(col)
        };

        let y_norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if y_norm == 0.0 {
            return Ok(vec![0.0; n]);
        }
        let mut residual = y.to_vec();
        let mut support: Vec<usize> = Vec::new();
        let mut selected: Vec<Vec<f64>> = Vec::new(); // columns on support
        let mut coeffs: Vec<f64> = Vec::new();
        let k_max = self.cfg.max_atoms.min(m);
        for _ in 0..k_max {
            // Correlations via the fast adjoint.
            let corr = wavedec(&phi.apply_t(&residual), w, lv)?;
            let (best, best_val) = corr
                .iter()
                .enumerate()
                .filter(|(j, _)| !support.contains(j))
                .map(|(j, &c)| (j, c.abs()))
                // `abs()` of a finite correlation is never NaN, where
                // `total_cmp` orders exactly as `partial_cmp`.
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap_or((0, 0.0));
            if best_val < 1e-12 {
                break;
            }
            support.push(best);
            selected.push(atom(best, &mut atom_cache)?);
            // Least squares on the support via normal equations +
            // Cholesky (support stays small).
            let k = support.len();
            let mut gram = vec![0.0; k * k];
            let mut rhs = vec![0.0; k];
            for a_i in 0..k {
                for b_i in 0..k {
                    gram[a_i * k + b_i] = dot(&selected[a_i], &selected[b_i]);
                }
                rhs[a_i] = dot(&selected[a_i], y);
            }
            coeffs = cholesky_solve(&gram, &rhs, k).ok_or_else(|| CsError::InvalidParameter {
                what: "gram matrix",
                detail: "singular system in OMP least squares".to_string(),
            })?;
            // Update residual.
            residual = y.to_vec();
            for (ci, col) in coeffs.iter().zip(&selected) {
                for (r, &cv) in residual.iter_mut().zip(col) {
                    *r -= ci * cv;
                }
            }
            let rn = residual.iter().map(|v| v * v).sum::<f64>().sqrt();
            if rn / y_norm < self.cfg.residual_tol {
                break;
            }
        }
        let mut a = vec![0.0; n];
        for (j, &c) in support.iter().zip(&coeffs) {
            a[*j] = c;
        }
        Ok(waverec(&a, w, lv)?)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves `G x = b` for symmetric positive-definite `G` (row-major
/// k×k). Returns `None` when the factorization breaks down.
fn cholesky_solve(g: &[f64], b: &[f64], k: usize) -> Option<Vec<f64>> {
    let mut l = vec![0.0f64; k * k];
    for i in 0..k {
        for j in 0..=i {
            let mut s = g[i * k + j];
            for p in 0..j {
                s -= l[i * k + p] * l[j * k + p];
            }
            if i == j {
                if s <= 0.0 {
                    return None;
                }
                l[i * k + i] = s.sqrt();
            } else {
                l[i * k + j] = s / l[j * k + j];
            }
        }
    }
    // Forward substitution L z = b.
    let mut z = vec![0.0; k];
    for i in 0..k {
        let mut s = b[i];
        for p in 0..i {
            s -= l[i * k + p] * z[p];
        }
        z[i] = s / l[i * k + i];
    }
    // Back substitution Lᵀ x = z.
    let mut x = vec![0.0; k];
    for i in (0..k).rev() {
        let mut s = z[i];
        for p in i + 1..k {
            s -= l[p * k + i] * x[p];
        }
        x[i] = s / l[i * k + i];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_sigproc::stats::snr_db;
    use wbsn_sigproc::wavelet::waverec;

    #[test]
    fn recovers_exactly_sparse_signal() {
        let n = 128;
        let m = 64;
        // Build a signal that is exactly 5-sparse in the dictionary.
        let mut a = vec![0.0; n];
        a[3] = 10.0;
        a[17] = -6.0;
        a[40] = 4.0;
        a[70] = 8.0;
        a[100] = -3.0;
        let x = waverec(&a, Wavelet::Db4, 5).unwrap();
        let phi = SparseTernaryMatrix::random(m, n, 4, 42).unwrap();
        let y = phi.apply(&x);
        let omp = Omp::new(OmpConfig {
            max_atoms: 10,
            ..OmpConfig::default()
        });
        let xr = omp.reconstruct(&phi, &y).unwrap();
        let snr = snr_db(&x, &xr);
        assert!(snr > 60.0, "exact-sparse recovery snr {snr}");
    }

    #[test]
    fn zero_measurements_zero_signal() {
        let phi = SparseTernaryMatrix::random(32, 128, 4, 1).unwrap();
        let omp = Omp::new(OmpConfig::default());
        let xr = omp.reconstruct(&phi, &vec![0.0; 32]).unwrap();
        assert!(xr.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn validates_shapes() {
        let phi = SparseTernaryMatrix::random(32, 128, 4, 1).unwrap();
        let omp = Omp::new(OmpConfig::default());
        assert!(omp.reconstruct(&phi, &vec![0.0; 31]).is_err());
    }

    #[test]
    fn non_finite_measurements_are_a_typed_error() {
        let phi = SparseTernaryMatrix::random(32, 128, 4, 1).unwrap();
        let omp = Omp::new(OmpConfig::default());
        let mut y = vec![1.0; 32];
        y[7] = f64::NAN;
        assert!(matches!(
            omp.reconstruct(&phi, &y),
            Err(CsError::NonFinite { index: 7, .. })
        ));
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // G = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5]
        let g = [4.0, 2.0, 2.0, 3.0];
        let b = [10.0, 8.0];
        let x = cholesky_solve(&g, &b, 2).unwrap();
        assert!((x[0] - 1.75).abs() < 1e-12);
        assert!((x[1] - 1.5).abs() < 1e-12);
        // Singular matrix returns None.
        let g_sing = [1.0, 1.0, 1.0, 1.0];
        assert!(cholesky_solve(&g_sing, &b, 2).is_none());
    }
}
