//! Gradient-boosted decision trees with second-order (Newton) leaf
//! weights — the XGBoost training scheme for binary logistic loss.
//!
//! Each round fits a regression tree to the negative gradients, then
//! replaces each leaf's value with the Newton step
//! `−Σg / (Σh + λ)` computed from the per-sample gradients `g = p − y`
//! and hessians `h = p(1 − p)` of the logistic loss.

use crate::linear::sigmoid;
use crate::tree::{DecisionTreeRegressor, TreeParams};
use crate::{Classifier, MlError, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters for [`GradientBoostedTrees`].
#[derive(Debug, Clone, PartialEq)]
pub struct GbdtParams {
    /// Boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage per round.
    pub learning_rate: f64,
    /// L2 regularization λ on leaf weights.
    pub lambda: f64,
    /// Per-round tree shape.
    pub tree: TreeParams,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_rounds: 100,
            learning_rate: 0.1,
            lambda: 1.0,
            tree: TreeParams {
                max_depth: 4,
                min_samples_split: 4,
                min_samples_leaf: 2,
                max_features: None,
            },
        }
    }
}

/// A boosted ensemble for binary classification.
#[derive(Debug, Clone)]
pub struct GradientBoostedTrees {
    base_score: f64,
    learning_rate: f64,
    trees: Vec<DecisionTreeRegressor>,
}

impl GradientBoostedTrees {
    /// Train on labels in `{0, 1}`.
    pub fn fit(xs: &[Vec<f64>], ys: &[u32], params: &GbdtParams, seed: u64) -> Result<Self> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(MlError::InvalidTrainingData(
                "empty or mismatched data".into(),
            ));
        }
        if ys.iter().any(|&y| y > 1) {
            return Err(MlError::InvalidTrainingData("labels must be 0/1".into()));
        }
        if params.n_rounds == 0 || params.learning_rate <= 0.0 {
            return Err(MlError::InvalidHyperparameter(
                "n_rounds > 0 and learning_rate > 0 required".into(),
            ));
        }
        let n = xs.len();
        let pos = ys.iter().filter(|&&y| y == 1).count() as f64;
        // initial log-odds, clamped for degenerate single-class data
        let p0 = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (p0 / (1.0 - p0)).ln();

        let mut rng = StdRng::seed_from_u64(seed);
        let mut margins = vec![base_score; n];
        let mut trees = Vec::with_capacity(params.n_rounds);
        let mut residuals = vec![0.0f64; n];

        for _ in 0..params.n_rounds {
            // gradients/hessians of logistic loss at current margins
            let mut grads = Vec::with_capacity(n);
            let mut hess = Vec::with_capacity(n);
            for (m, &y) in margins.iter().zip(ys) {
                let p = sigmoid(*m);
                grads.push(p - f64::from(y));
                hess.push((p * (1.0 - p)).max(1e-12));
            }
            // fit structure on the negative gradient
            for (r, &g) in residuals.iter_mut().zip(&grads) {
                *r = -g;
            }
            let mut tree = DecisionTreeRegressor::fit(xs, &residuals, &params.tree, &mut rng)?;

            // Newton refit of leaf values: w_j = −Σg / (Σh + λ)
            let n_leaves = tree.n_leaves();
            let mut leaf_g = vec![0.0f64; n_leaves];
            let mut leaf_h = vec![0.0f64; n_leaves];
            let mut leaf_of = Vec::with_capacity(n);
            for (i, x) in xs.iter().enumerate() {
                let leaf = tree.leaf_index(x);
                leaf_of.push(leaf);
                leaf_g[leaf] += grads[i];
                leaf_h[leaf] += hess[i];
            }
            let weights: Vec<f64> = leaf_g
                .iter()
                .zip(&leaf_h)
                .map(|(&g, &h)| -g / (h + params.lambda))
                .collect();
            tree.set_leaf_values(&weights);

            for (i, &leaf) in leaf_of.iter().enumerate() {
                margins[i] += params.learning_rate * weights[leaf];
            }
            trees.push(tree);
        }
        Ok(GradientBoostedTrees {
            base_score,
            learning_rate: params.learning_rate,
            trees,
        })
    }

    /// Raw margin (log-odds) for `x`.
    pub fn decision_function(&self, x: &[f64]) -> f64 {
        let mut m = self.base_score;
        for tree in &self.trees {
            m += self.learning_rate * crate::Regressor::predict(tree, x);
        }
        m
    }
}

impl Classifier for GradientBoostedTrees {
    fn n_classes(&self) -> usize {
        2
    }

    fn predict_proba(&self, x: &[f64], out: &mut [f64]) {
        let p = sigmoid(self.decision_function(x));
        out[0] = 1.0 - p;
        out[1] = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interaction_data(n: usize) -> (Vec<Vec<f64>>, Vec<u32>) {
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i % 13) as f64 / 13.0;
            let b = (i % 29) as f64 / 29.0;
            xs.push(vec![a, b]);
            ys.push(u32::from((a - 0.5) * (b - 0.5) > 0.0));
        }
        (xs, ys)
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let (xs, ys) = interaction_data(800);
        let m = GradientBoostedTrees::fit(&xs, &ys, &GbdtParams::default(), 7).unwrap();
        let acc = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| m.predict(x) == y)
            .count() as f64
            / xs.len() as f64;
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn more_rounds_reduce_training_loss() {
        let (xs, ys) = interaction_data(400);
        let small = GradientBoostedTrees::fit(
            &xs,
            &ys,
            &GbdtParams {
                n_rounds: 5,
                ..GbdtParams::default()
            },
            7,
        )
        .unwrap();
        let large = GradientBoostedTrees::fit(
            &xs,
            &ys,
            &GbdtParams {
                n_rounds: 80,
                ..GbdtParams::default()
            },
            7,
        )
        .unwrap();
        let loss = |m: &GradientBoostedTrees| -> f64 {
            xs.iter()
                .zip(&ys)
                .map(|(x, &y)| {
                    let p = m.proba_of(x, 1).clamp(1e-12, 1.0 - 1e-12);
                    if y == 1 {
                        -p.ln()
                    } else {
                        -(1.0 - p).ln()
                    }
                })
                .sum::<f64>()
                / xs.len() as f64
        };
        assert!(
            loss(&large) < loss(&small),
            "{} !< {}",
            loss(&large),
            loss(&small)
        );
    }

    #[test]
    fn base_score_matches_class_prior() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i % 3)]).collect();
        let ys: Vec<u32> = (0..100).map(|i| u32::from(i < 30)).collect();
        let m = GradientBoostedTrees::fit(
            &xs,
            &ys,
            &GbdtParams {
                n_rounds: 1,
                learning_rate: 1e-9,
                ..GbdtParams::default()
            },
            0,
        )
        .unwrap();
        // with negligible learning rate the prediction is the prior
        let p = m.proba_of(&[0.0], 1);
        assert!((p - 0.3).abs() < 0.01, "prior {p}");
    }

    #[test]
    fn probabilities_valid() {
        let (xs, ys) = interaction_data(200);
        let m = GradientBoostedTrees::fit(
            &xs,
            &ys,
            &GbdtParams {
                n_rounds: 20,
                ..GbdtParams::default()
            },
            1,
        )
        .unwrap();
        let mut buf = [0.0; 2];
        for x in xs.iter().take(40) {
            m.predict_proba(x, &mut buf);
            assert!((buf.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn single_class_data_does_not_explode() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![f64::from(i)]).collect();
        let ys = vec![1u32; 50];
        let m = GradientBoostedTrees::fit(&xs, &ys, &GbdtParams::default(), 0).unwrap();
        let p = m.proba_of(&[25.0], 1);
        assert!(p > 0.99 && p.is_finite());
    }

    #[test]
    fn invalid_input_rejected() {
        let (xs, ys) = interaction_data(10);
        assert!(GradientBoostedTrees::fit(&[], &[], &GbdtParams::default(), 0).is_err());
        assert!(GradientBoostedTrees::fit(
            &xs,
            &ys,
            &GbdtParams {
                n_rounds: 0,
                ..GbdtParams::default()
            },
            0
        )
        .is_err());
        assert!(GradientBoostedTrees::fit(&xs, &[9; 10], &GbdtParams::default(), 0).is_err());
    }
}
