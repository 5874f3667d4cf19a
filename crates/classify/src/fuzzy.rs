//! Neuro-fuzzy heartbeat classifier with piecewise-linear memberships.
//!
//! The classifier of Braojos et al. (DATE 2013, reference \[14\]): each
//! class is described by Gaussian membership functions over every
//! feature; a beat's class score aggregates the (log-)memberships and
//! the largest score wins. Evaluating `exp(-u²/2)` is expensive on an
//! integer MCU, so the paper approximates the **negative log
//! membership** `u²/2` with a four-segment piecewise-linear function —
//! "a four-segments linearization is shown to achieve close-to-optimal
//! results". Both paths are implemented; the approximation error is
//! bounded in the tests.

use crate::{ClassifyError, Result};

/// How memberships are evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MembershipMode {
    /// Exact Gaussian negative log-likelihood (`u²/2`).
    #[default]
    ExactGaussian,
    /// Four-segment piecewise-linear approximation of `u²/2` on
    /// `|u| ∈ [0, 4]`, clamped linear beyond — the embedded path.
    PiecewiseLinear,
}

/// Knots of the PWL approximation of `u²/2` at `|u| = 0, 1, 2, 3, 4`.
const PWL_KNOTS: [f64; 5] = [0.0, 0.5, 2.0, 4.5, 8.0];

/// Four-segment piecewise-linear `u²/2`.
///
/// # Example
///
/// ```
/// use wbsn_classify::fuzzy::pwl_half_square;
///
/// assert_eq!(pwl_half_square(0.0), 0.0);
/// assert_eq!(pwl_half_square(2.0), 2.0);
/// // Within the knot range the approximation error is below 0.13.
/// assert!((pwl_half_square(1.5) - 1.125).abs() < 0.13);
/// ```
pub fn pwl_half_square(u: f64) -> f64 {
    let a = u.abs();
    if a >= 4.0 {
        // Continue with the last segment's slope (3.5).
        return PWL_KNOTS[4] + 3.5 * (a - 4.0);
    }
    let seg = a.floor() as usize; // 0..=3
    let frac = a - seg as f64;
    PWL_KNOTS[seg] + (PWL_KNOTS[seg + 1] - PWL_KNOTS[seg]) * frac
}

/// Per-class diagonal Gaussian model.
#[derive(Debug, Clone, PartialEq)]
struct ClassModel {
    label: usize,
    mean: Vec<f64>,
    inv_sigma: Vec<f64>,
    log_prior: f64,
}

/// Trained fuzzy classifier.
///
/// # Example
///
/// ```
/// use wbsn_classify::fuzzy::{FuzzyClassifier, MembershipMode};
///
/// let xs = vec![
///     vec![0.0, 0.0], vec![0.1, -0.1], vec![-0.1, 0.1], // class 0
///     vec![2.0, 2.0], vec![2.1, 1.9], vec![1.9, 2.1],   // class 1
/// ];
/// let ys = vec![0, 0, 0, 1, 1, 1];
/// let clf = FuzzyClassifier::train(&xs, &ys, MembershipMode::PiecewiseLinear).unwrap();
/// assert_eq!(clf.predict(&[0.05, 0.02]), 0);
/// assert_eq!(clf.predict(&[2.02, 2.05]), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FuzzyClassifier {
    classes: Vec<ClassModel>,
    dims: usize,
    mode: MembershipMode,
}

impl FuzzyClassifier {
    /// Trains the classifier: per-class feature means and deviations
    /// (σ floored at 5% of the global feature scale to avoid
    /// degenerate memberships).
    ///
    /// # Errors
    ///
    /// Fails when inputs are empty/mismatched or any class has fewer
    /// than 2 examples.
    pub fn train(features: &[Vec<f64>], labels: &[usize], mode: MembershipMode) -> Result<Self> {
        if features.is_empty() || features.len() != labels.len() {
            return Err(ClassifyError::InvalidTrainingData {
                detail: format!(
                    "features ({}) and labels ({}) must be non-empty and equal",
                    features.len(),
                    labels.len()
                ),
            });
        }
        let dims = features[0].len();
        if features.iter().any(|f| f.len() != dims) {
            return Err(ClassifyError::InvalidTrainingData {
                detail: "inconsistent feature dimensionality".into(),
            });
        }
        let mut class_ids: Vec<usize> = labels.to_vec();
        class_ids.sort_unstable();
        class_ids.dedup();
        // Global per-dimension scale for the σ floor.
        let mut global_scale = vec![0.0f64; dims];
        for f in features {
            for (g, &v) in global_scale.iter_mut().zip(f) {
                *g = g.max(v.abs());
            }
        }
        let mut classes = Vec::with_capacity(class_ids.len());
        for &c in &class_ids {
            let members: Vec<&Vec<f64>> = features
                .iter()
                .zip(labels)
                .filter(|&(_, &l)| l == c)
                .map(|(f, _)| f)
                .collect();
            if members.len() < 2 {
                return Err(ClassifyError::InvalidTrainingData {
                    detail: format!("class {c} has fewer than 2 examples"),
                });
            }
            let n = members.len() as f64;
            let mut mean = vec![0.0; dims];
            for f in &members {
                for (m, &v) in mean.iter_mut().zip(f.iter()) {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= n;
            }
            let mut var = vec![0.0; dims];
            for f in &members {
                for j in 0..dims {
                    let d = f[j] - mean[j];
                    var[j] += d * d;
                }
            }
            let inv_sigma: Vec<f64> = (0..dims)
                .map(|j| {
                    let sigma = (var[j] / n).sqrt().max(0.05 * global_scale[j]).max(1e-6);
                    1.0 / sigma
                })
                .collect();
            classes.push(ClassModel {
                label: c,
                mean,
                inv_sigma,
                log_prior: (members.len() as f64 / features.len() as f64).ln(),
            });
        }
        Ok(FuzzyClassifier {
            classes,
            dims,
            mode,
        })
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Feature dimensionality expected by [`FuzzyClassifier::predict`].
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Membership evaluation mode.
    pub fn mode(&self) -> MembershipMode {
        self.mode
    }

    /// Returns a copy using a different membership mode (same model).
    pub fn with_mode(&self, mode: MembershipMode) -> Self {
        let mut c = self.clone();
        c.mode = mode;
        c
    }

    /// Negative log-score of `x` for each class (lower = better),
    /// ordered as the class labels returned by training.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != dims`.
    pub fn scores(&self, x: &[f64]) -> Vec<(usize, f64)> {
        assert_eq!(x.len(), self.dims, "feature dimensionality");
        self.classes
            .iter()
            .map(|c| {
                let mut cost = -c.log_prior;
                for (j, &xj) in x.iter().enumerate() {
                    let u = (xj - c.mean[j]) * c.inv_sigma[j];
                    cost += match self.mode {
                        MembershipMode::ExactGaussian => 0.5 * u * u,
                        MembershipMode::PiecewiseLinear => pwl_half_square(u),
                    };
                }
                (c.label, cost)
            })
            .collect()
    }

    /// Predicted class label for `x`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != dims`.
    pub fn predict(&self, x: &[f64]) -> usize {
        // `total_cmp` keeps a NaN score (a NaN feature) deterministic;
        // training guarantees at least one class, so label 0 only
        // keeps the fold total.
        self.scores(x)
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(0, |(l, _)| l)
    }

    /// Approximate MCU operations per classified beat: one subtract,
    /// one multiply and one PWL lookup (4 compares + 1 MAC) per
    /// feature per class.
    pub fn ops_per_beat(&self) -> usize {
        self.classes.len() * self.dims * 7
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pwl_matches_knots_exactly() {
        for (i, &v) in PWL_KNOTS.iter().enumerate() {
            assert_eq!(pwl_half_square(i as f64), v);
            assert_eq!(pwl_half_square(-(i as f64)), v);
        }
    }

    #[test]
    fn pwl_error_is_bounded_on_range() {
        let mut u = 0.0;
        while u <= 4.0 {
            let exact = 0.5 * u * u;
            let approx = pwl_half_square(u);
            assert!(
                (exact - approx).abs() <= 0.125 + 1e-12,
                "u={u}: exact {exact} approx {approx}"
            );
            u += 0.01;
        }
    }

    #[test]
    fn pwl_is_monotone_and_even() {
        let mut prev = -1.0;
        let mut u = 0.0;
        while u <= 6.0 {
            let v = pwl_half_square(u);
            assert!(v >= prev);
            assert_eq!(v, pwl_half_square(-u));
            prev = v;
            u += 0.05;
        }
    }

    fn gaussian_blobs(n_per: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        // Three 4-D blobs with distinct means.
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let centers = [
            [0.0, 0.0, 0.0, 0.0],
            [3.0, 0.0, -2.0, 1.0],
            [-2.0, 2.5, 1.0, -1.0],
        ];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..n_per {
                let f: Vec<f64> = center.iter().map(|&m| m + next()).collect();
                xs.push(f);
                ys.push(c);
            }
        }
        (xs, ys)
    }

    #[test]
    fn classifies_separable_blobs() {
        let (xs, ys) = gaussian_blobs(60, 42);
        for mode in [
            MembershipMode::ExactGaussian,
            MembershipMode::PiecewiseLinear,
        ] {
            let clf = FuzzyClassifier::train(&xs, &ys, mode).unwrap();
            let correct = xs
                .iter()
                .zip(&ys)
                .filter(|(x, &y)| clf.predict(x) == y)
                .count();
            assert!(
                correct as f64 / xs.len() as f64 > 0.98,
                "{mode:?}: {}/{}",
                correct,
                xs.len()
            );
        }
    }

    #[test]
    fn pwl_agrees_with_exact_on_most_points() {
        let (xs, ys) = gaussian_blobs(60, 77);
        let exact = FuzzyClassifier::train(&xs, &ys, MembershipMode::ExactGaussian).unwrap();
        let pwl = exact.with_mode(MembershipMode::PiecewiseLinear);
        let agree = xs
            .iter()
            .filter(|x| exact.predict(x) == pwl.predict(x))
            .count();
        assert!(
            agree as f64 / xs.len() as f64 > 0.97,
            "agreement {}/{}",
            agree,
            xs.len()
        );
    }

    #[test]
    fn rejects_bad_training_sets() {
        assert!(FuzzyClassifier::train(&[], &[], MembershipMode::ExactGaussian).is_err());
        let xs = vec![vec![1.0], vec![2.0]];
        assert!(FuzzyClassifier::train(&xs, &[0], MembershipMode::ExactGaussian).is_err());
        // Class with a single member.
        assert!(FuzzyClassifier::train(&xs, &[0, 1], MembershipMode::ExactGaussian).is_err());
        // Inconsistent dims.
        let bad = vec![vec![1.0], vec![2.0, 3.0]];
        assert!(FuzzyClassifier::train(&bad, &[0, 0], MembershipMode::ExactGaussian).is_err());
    }

    #[test]
    fn priors_break_ties() {
        // Two identical overlapping classes, one with 3x the examples:
        // ambiguous points go to the bigger class.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..30 {
            xs.push(vec![(i % 5) as f64 * 0.01]);
            ys.push(0);
        }
        for i in 0..10 {
            xs.push(vec![(i % 5) as f64 * 0.01]);
            ys.push(1);
        }
        let clf = FuzzyClassifier::train(&xs, &ys, MembershipMode::ExactGaussian).unwrap();
        assert_eq!(clf.predict(&[0.02]), 0);
    }

    #[test]
    fn ops_accounting_scales_with_model() {
        let (xs, ys) = gaussian_blobs(10, 5);
        let clf = FuzzyClassifier::train(&xs, &ys, MembershipMode::PiecewiseLinear).unwrap();
        assert_eq!(clf.ops_per_beat(), 3 * 4 * 7);
    }
}
