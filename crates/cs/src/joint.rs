//! Joint multi-lead CS reconstruction with group sparsity.
//!
//! Mamaghanian et al. (ICASSP 2014, reference \[6\]) observe that the
//! wavelet supports of simultaneous ECG leads coincide — "non-zero
//! coefficients are partitioned in subsets or groups, and this
//! information can be employed to enhance the compression performance
//! across all leads". This solver ties the leads together with an
//! ℓ₂,₁ penalty: coefficient index `i` forms one group across all
//! leads, and the proximal step shrinks whole groups, so a wave that is
//! strong in one lead rescues its (noisier) siblings.

use crate::solver::validate_iteration;
use crate::{CsError, Result};
use wbsn_sigproc::wavelet::{wavedec, waverec, Wavelet};
use wbsn_sigproc::SparseTernaryMatrix;

/// Group-FISTA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupFistaConfig {
    /// Sparsifying wavelet.
    pub wavelet: Wavelet,
    /// Decomposition levels.
    pub levels: usize,
    /// λ as a fraction of the largest group norm of `Aᵀy`.
    pub lambda_rel: f64,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Relative-change stopping tolerance.
    pub tol: f64,
}

impl Default for GroupFistaConfig {
    fn default() -> Self {
        GroupFistaConfig {
            wavelet: Wavelet::Db4,
            levels: 5,
            lambda_rel: 0.005,
            max_iters: 200,
            tol: 1e-5,
        }
    }
}

/// Joint multi-lead solver. Every lead may use a *different* sensing
/// matrix (the node rotates seeds), which additionally diversifies the
/// measurements.
#[derive(Debug, Clone)]
pub struct GroupFista {
    cfg: GroupFistaConfig,
}

impl GroupFista {
    /// Creates a solver with the given configuration.
    pub fn new(cfg: GroupFistaConfig) -> Self {
        GroupFista { cfg }
    }

    /// Configuration in use.
    pub fn config(&self) -> &GroupFistaConfig {
        &self.cfg
    }

    /// Jointly reconstructs `L` leads. `phis[l]` sensed `ys[l]`.
    ///
    /// Returns one reconstructed window per lead.
    ///
    /// # Errors
    ///
    /// [`CsError::InvalidParameter`] before any work for a degenerate
    /// configuration: `levels` of 0 or at least the word size,
    /// `max_iters` of 0, or a negative or non-finite `lambda_rel` or
    /// `tol`. Also fails when lead counts or shapes disagree, or the
    /// window length is incompatible with the configured levels.
    pub fn reconstruct(
        &self,
        phis: &[&SparseTernaryMatrix],
        ys: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>> {
        let cfg = &self.cfg;
        validate_iteration(cfg.levels, cfg.max_iters, cfg.lambda_rel, cfg.tol)?;
        if phis.is_empty() || phis.len() != ys.len() {
            return Err(CsError::ShapeMismatch {
                what: "lead count",
                expected: phis.len(),
                got: ys.len(),
            });
        }
        let n = phis[0].cols();
        for (l, phi) in phis.iter().enumerate() {
            if phi.cols() != n {
                return Err(CsError::ShapeMismatch {
                    what: "window length across leads",
                    expected: n,
                    got: phi.cols(),
                });
            }
            if ys[l].len() != phi.rows() {
                return Err(CsError::ShapeMismatch {
                    what: "measurement vector",
                    expected: phi.rows(),
                    got: ys[l].len(),
                });
            }
        }
        if !n.is_multiple_of(1 << self.cfg.levels) {
            return Err(CsError::InvalidParameter {
                what: "levels",
                detail: format!("window {n} not divisible by 2^{}", self.cfg.levels),
            });
        }
        let n_leads = phis.len();
        let w = self.cfg.wavelet;
        let lv = self.cfg.levels;

        let apply = |a: &[Vec<f64>]| -> Result<Vec<Vec<f64>>> {
            let mut out = Vec::with_capacity(n_leads);
            for l in 0..n_leads {
                out.push(phis[l].apply(&waverec(&a[l], w, lv)?));
            }
            Ok(out)
        };
        let apply_t = |r: &[Vec<f64>]| -> Result<Vec<Vec<f64>>> {
            let mut out = Vec::with_capacity(n_leads);
            for l in 0..n_leads {
                out.push(wavedec(&phis[l].apply_t(&r[l]), w, lv)?);
            }
            Ok(out)
        };

        // Power iteration over the stacked operator for the Lipschitz
        // constant (max over leads would also do; stacked is tighter).
        let lip = {
            let mut v: Vec<Vec<f64>> = vec![vec![1.0; n]; n_leads];
            let mut lam = 1.0f64;
            for _ in 0..12 {
                let av = apply(&v)?;
                let atav = apply_t(&av)?;
                lam = atav
                    .iter()
                    .flat_map(|l| l.iter().map(|x| x * x))
                    .sum::<f64>()
                    .sqrt();
                if lam <= 0.0 {
                    break;
                }
                for l in 0..n_leads {
                    for (vi, &ai) in v[l].iter_mut().zip(&atav[l]) {
                        *vi = ai / lam;
                    }
                }
            }
            lam.max(1e-12)
        };
        let step = 1.0 / lip;

        let aty = apply_t(ys)?;
        let max_group = (0..n).map(|i| group_norm(&aty, i)).fold(0.0f64, f64::max);
        let lambda = self.cfg.lambda_rel * max_group;

        let mut a: Vec<Vec<f64>> = vec![vec![0.0; n]; n_leads];
        let mut z = a.clone();
        let mut t = 1.0f64;
        for _ in 0..self.cfg.max_iters {
            let az = apply(&z)?;
            let resid: Vec<Vec<f64>> = az
                .iter()
                .zip(ys)
                .map(|(p, q)| p.iter().zip(q).map(|(x, y)| x - y).collect())
                .collect();
            let grad = apply_t(&resid)?;
            // Gradient step.
            let mut a_next: Vec<Vec<f64>> = (0..n_leads)
                .map(|l| {
                    z[l].iter()
                        .zip(&grad[l])
                        .map(|(&zi, &gi)| zi - step * gi)
                        .collect()
                })
                .collect();
            // Group soft-threshold across leads.
            for i in 0..n {
                let g = group_norm(&a_next, i);
                let scale = if g > 0.0 {
                    (1.0 - step * lambda / g).max(0.0)
                } else {
                    0.0
                };
                for lead in a_next.iter_mut() {
                    lead[i] *= scale;
                }
            }
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
            let beta = (t - 1.0) / t_next;
            let mut change = 0.0f64;
            let mut norm = 0.0f64;
            for l in 0..n_leads {
                for i in 0..n {
                    let d = a_next[l][i] - a[l][i];
                    change += d * d;
                    norm += a_next[l][i] * a_next[l][i];
                    z[l][i] = a_next[l][i] + beta * d;
                }
            }
            a = a_next;
            t = t_next;
            if norm > 0.0 && (change / norm).sqrt() < self.cfg.tol {
                break;
            }
        }
        let mut out = Vec::with_capacity(n_leads);
        for al in a.iter().take(n_leads) {
            out.push(waverec(al, w, lv)?);
        }
        Ok(out)
    }
}

fn group_norm(a: &[Vec<f64>], i: usize) -> f64 {
    a.iter().map(|lead| lead[i] * lead[i]).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Fista, FistaConfig};
    use wbsn_sigproc::stats::snr_db;
    use wbsn_sigproc::SparseTernaryMatrix;

    /// Three correlated leads sharing wave timing, different gains,
    /// with independent measurement-level noise.
    fn leads(n: usize) -> Vec<Vec<f64>> {
        let shape = |i: usize| -> f64 {
            let qrs = 900.0 * (-((i as f64 - n as f64 * 0.4) / 6.0).powi(2) / 2.0).exp();
            let t = 250.0 * (-((i as f64 - n as f64 * 0.62) / 20.0).powi(2) / 2.0).exp();
            qrs + t
        };
        vec![
            (0..n).map(shape).collect(),
            (0..n).map(|i| 0.6 * shape(i)).collect(),
            (0..n).map(|i| -0.8 * shape(i)).collect(),
        ]
    }

    #[test]
    fn joint_beats_independent_at_high_cr() {
        let n = 256;
        let m = 56; // CR ≈ 78%
        let xs = leads(n);
        let phis: Vec<SparseTernaryMatrix> = (0..3)
            .map(|l| SparseTernaryMatrix::random(m, n, 4, 100 + l as u64).unwrap())
            .collect();
        let ys: Vec<Vec<f64>> = (0..3).map(|l| phis[l].apply(&xs[l])).collect();

        // Independent recovery.
        let single = Fista::new(FistaConfig::default());
        let mut snr_indep = 0.0;
        for l in 0..3 {
            let xr = single.reconstruct_f64(&phis[l], &ys[l]).unwrap();
            snr_indep += snr_db(&xs[l], &xr);
        }
        snr_indep /= 3.0;

        // Joint recovery.
        let joint = GroupFista::new(GroupFistaConfig::default());
        let phi_refs: Vec<&SparseTernaryMatrix> = phis.iter().collect();
        let xr = joint.reconstruct(&phi_refs, &ys).unwrap();
        let snr_joint: f64 = (0..3).map(|l| snr_db(&xs[l], &xr[l])).sum::<f64>() / 3.0;

        assert!(
            snr_joint > snr_indep,
            "joint {snr_joint:.1} dB must beat independent {snr_indep:.1} dB"
        );
    }

    #[test]
    fn joint_reconstruction_is_accurate_at_moderate_cr() {
        let n = 256;
        let m = 128;
        let xs = leads(n);
        let phis: Vec<SparseTernaryMatrix> = (0..3)
            .map(|l| SparseTernaryMatrix::random(m, n, 4, 200 + l as u64).unwrap())
            .collect();
        let ys: Vec<Vec<f64>> = (0..3).map(|l| phis[l].apply(&xs[l])).collect();
        let joint = GroupFista::new(GroupFistaConfig::default());
        let phi_refs: Vec<&SparseTernaryMatrix> = phis.iter().collect();
        let xr = joint.reconstruct(&phi_refs, &ys).unwrap();
        for l in 0..3 {
            let snr = snr_db(&xs[l], &xr[l]);
            assert!(snr > 18.0, "lead {l}: {snr} dB");
        }
    }

    #[test]
    fn degenerate_configs_are_typed_errors_before_any_work() {
        let phi = SparseTernaryMatrix::random(64, 128, 4, 3).unwrap();
        let y = phi.apply(&leads(128)[0]);
        let base = GroupFistaConfig::default();
        let cases = [
            ("levels", GroupFistaConfig { levels: 0, ..base }),
            ("levels", GroupFistaConfig { levels: 64, ..base }),
            (
                "levels",
                GroupFistaConfig {
                    levels: usize::MAX,
                    ..base
                },
            ),
            (
                "max_iters",
                GroupFistaConfig {
                    max_iters: 0,
                    ..base
                },
            ),
            (
                "lambda_rel",
                GroupFistaConfig {
                    lambda_rel: -1e-3,
                    ..base
                },
            ),
            (
                "lambda_rel",
                GroupFistaConfig {
                    lambda_rel: f64::NAN,
                    ..base
                },
            ),
            (
                "lambda_rel",
                GroupFistaConfig {
                    lambda_rel: f64::INFINITY,
                    ..base
                },
            ),
            ("tol", GroupFistaConfig { tol: -1e-5, ..base }),
            (
                "tol",
                GroupFistaConfig {
                    tol: f64::NAN,
                    ..base
                },
            ),
            (
                "tol",
                GroupFistaConfig {
                    tol: f64::INFINITY,
                    ..base
                },
            ),
        ];
        for (what, cfg) in cases {
            // Mismatched shapes too: the configuration is checked
            // before the input.
            for ys in [vec![y.clone()], vec![y[1..].to_vec()], Vec::new()] {
                let err = GroupFista::new(cfg).reconstruct(&[&phi], &ys).unwrap_err();
                assert!(
                    matches!(err, CsError::InvalidParameter { what: w, .. } if w == what),
                    "{cfg:?}: {err:?}"
                );
            }
        }
        // The base configuration itself solves.
        assert!(GroupFista::new(base).reconstruct(&[&phi], &[y]).is_ok());
    }

    #[test]
    fn shape_validation() {
        let phi = SparseTernaryMatrix::random(32, 128, 4, 1).unwrap();
        let joint = GroupFista::new(GroupFistaConfig::default());
        // Wrong measurement length.
        assert!(joint.reconstruct(&[&phi], &[vec![0.0; 31]]).is_err());
        // Lead count mismatch.
        assert!(joint
            .reconstruct(&[&phi], &[vec![0.0; 32], vec![0.0; 32]])
            .is_err());
        // Empty.
        let none: Vec<&SparseTernaryMatrix> = Vec::new();
        assert!(joint.reconstruct(&none, &[]).is_err());
    }
}
