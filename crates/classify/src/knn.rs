//! k-nearest-neighbour baseline classifier.
//!
//! Used in the ablation benches as the "memory-unconstrained"
//! comparison point for the fuzzy classifier: kNN stores every training
//! beat (far beyond a WBSN's RAM) but is a strong accuracy reference.

use crate::{ClassifyError, Result};

/// kNN classifier over Euclidean distance.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    k: usize,
    train_x: Vec<Vec<f64>>,
    train_y: Vec<usize>,
}

impl KnnClassifier {
    /// Stores the training set.
    ///
    /// # Errors
    ///
    /// Fails when inputs are empty/mismatched or `k` is zero.
    pub fn train(features: &[Vec<f64>], labels: &[usize], k: usize) -> Result<Self> {
        if k == 0 {
            return Err(ClassifyError::InvalidParameter {
                what: "k",
                detail: "must be non-zero".into(),
            });
        }
        if features.is_empty() || features.len() != labels.len() {
            return Err(ClassifyError::InvalidTrainingData {
                detail: "empty or mismatched training set".into(),
            });
        }
        Ok(KnnClassifier {
            k: k.min(features.len()),
            train_x: features.to_vec(),
            train_y: labels.to_vec(),
        })
    }

    /// Number of stored examples.
    pub fn len(&self) -> usize {
        self.train_x.len()
    }

    /// True when no examples are stored (never for a trained model).
    pub fn is_empty(&self) -> bool {
        self.train_x.is_empty()
    }

    /// Memory footprint of the stored training set in bytes — the
    /// reason this baseline cannot ship on the node.
    pub fn memory_bytes(&self) -> usize {
        self.train_x.iter().map(|f| f.len() * 8).sum::<usize>() + self.train_y.len() * 8
    }

    /// Predicts by majority vote among the `k` nearest neighbours.
    ///
    /// # Panics
    ///
    /// Panics when `x` has a different dimensionality than the
    /// training data.
    pub fn predict(&self, x: &[f64]) -> usize {
        assert_eq!(x.len(), self.train_x[0].len(), "feature dimensionality");
        let mut dists: Vec<(f64, usize)> = self
            .train_x
            .iter()
            .zip(&self.train_y)
            .map(|(t, &y)| {
                let d: f64 = t.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
                (d, y)
            })
            .collect();
        // `total_cmp` orders NaN distances (a NaN feature) after every
        // number, so a NaN input still gets a deterministic vote.
        dists.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut votes = std::collections::BTreeMap::new();
        for &(_, y) in dists.iter().take(self.k) {
            *votes.entry(y).or_insert(0usize) += 1;
        }
        // Training guarantees k >= 1 over a non-empty set, so there is
        // always a vote; label 0 only keeps the fold total.
        votes
            .into_iter()
            .max_by_key(|&(label, count)| (count, usize::MAX - label))
            .map_or(0, |(label, _)| label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_neighbour_wins() {
        let xs = vec![vec![0.0], vec![10.0], vec![0.2], vec![9.8]];
        let ys = vec![0, 1, 0, 1];
        let knn = KnnClassifier::train(&xs, &ys, 1).unwrap();
        assert_eq!(knn.predict(&[0.1]), 0);
        assert_eq!(knn.predict(&[9.9]), 1);
    }

    #[test]
    fn majority_vote_with_k3() {
        let xs = vec![vec![0.0], vec![0.1], vec![0.2], vec![5.0]];
        let ys = vec![0, 0, 1, 1];
        let knn = KnnClassifier::train(&xs, &ys, 3).unwrap();
        // Neighbours of 0.05: {0.0:0, 0.1:0, 0.2:1} -> class 0.
        assert_eq!(knn.predict(&[0.05]), 0);
    }

    #[test]
    fn k_is_clamped_to_training_size() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![0, 1];
        let knn = KnnClassifier::train(&xs, &ys, 100).unwrap();
        let _ = knn.predict(&[0.4]); // must not panic
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(KnnClassifier::train(&[], &[], 1).is_err());
        assert!(KnnClassifier::train(&[vec![1.0]], &[0], 0).is_err());
        assert!(KnnClassifier::train(&[vec![1.0]], &[0, 1], 1).is_err());
    }

    #[test]
    fn memory_scales_with_training_set() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64; 18]).collect();
        let ys: Vec<usize> = (0..100).map(|i| i % 2).collect();
        let knn = KnnClassifier::train(&xs, &ys, 3).unwrap();
        assert_eq!(knn.memory_bytes(), 100 * 18 * 8 + 100 * 8);
    }
}
