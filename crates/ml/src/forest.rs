//! Bagged random forests (Breiman 2001).
//!
//! Each tree is trained on a bootstrap resample with per-split feature
//! subsampling (`√d` for classification, `d/3` for regression, the
//! classical defaults). Predictions average the trees' leaf
//! distributions / values.

use crate::tree::{DecisionTreeClassifier, DecisionTreeRegressor, TreeParams};
use crate::{Classifier, MlError, Regressor, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters for both forest flavours.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters (feature subsetting is filled in automatically
    /// when `max_features` is `None`).
    pub tree: TreeParams,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 100,
            tree: TreeParams {
                max_depth: 12,
                min_samples_split: 4,
                min_samples_leaf: 2,
                max_features: None,
            },
        }
    }
}

fn bootstrap<R: Rng>(n: usize, rng: &mut R) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..n)).collect()
}

/// A random forest classifier (majority soft-vote).
#[derive(Debug, Clone)]
pub struct RandomForestClassifier {
    trees: Vec<DecisionTreeClassifier>,
    n_classes: usize,
}

impl RandomForestClassifier {
    /// Train `params.n_trees` trees on bootstrap resamples.
    pub fn fit(
        xs: &[Vec<f64>],
        ys: &[u32],
        n_classes: usize,
        params: &ForestParams,
        seed: u64,
    ) -> Result<Self> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(MlError::InvalidTrainingData(
                "empty or mismatched data".into(),
            ));
        }
        if params.n_trees == 0 {
            return Err(MlError::InvalidHyperparameter("n_trees must be > 0".into()));
        }
        let d = xs[0].len();
        let mut tree_params = params.tree.clone();
        if tree_params.max_features.is_none() {
            tree_params.max_features = Some(((d as f64).sqrt().ceil() as usize).max(1));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut bx: Vec<Vec<f64>> = Vec::with_capacity(xs.len());
        let mut by: Vec<u32> = Vec::with_capacity(ys.len());
        for _ in 0..params.n_trees {
            bx.clear();
            by.clear();
            for &i in &bootstrap(xs.len(), &mut rng) {
                bx.push(xs[i].clone());
                by.push(ys[i]);
            }
            trees.push(DecisionTreeClassifier::fit(
                &bx,
                &by,
                n_classes,
                &tree_params,
                &mut rng,
            )?);
        }
        Ok(RandomForestClassifier { trees, n_classes })
    }
}

impl Classifier for RandomForestClassifier {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, x: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        let mut buf = vec![0.0; self.n_classes];
        for tree in &self.trees {
            tree.predict_proba(x, &mut buf);
            for (o, &p) in out.iter_mut().zip(&buf) {
                *o += p;
            }
        }
        let inv = 1.0 / self.trees.len() as f64;
        for o in out.iter_mut() {
            *o *= inv;
        }
    }
}

/// A random forest regressor (mean of tree predictions).
#[derive(Debug, Clone)]
pub struct RandomForestRegressor {
    trees: Vec<DecisionTreeRegressor>,
}

impl RandomForestRegressor {
    /// Train `params.n_trees` regression trees on bootstrap resamples.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: &ForestParams, seed: u64) -> Result<Self> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(MlError::InvalidTrainingData(
                "empty or mismatched data".into(),
            ));
        }
        if params.n_trees == 0 {
            return Err(MlError::InvalidHyperparameter("n_trees must be > 0".into()));
        }
        let d = xs[0].len();
        let mut tree_params = params.tree.clone();
        if tree_params.max_features.is_none() {
            tree_params.max_features = Some((d / 3).max(1));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut bx: Vec<Vec<f64>> = Vec::with_capacity(xs.len());
        let mut by: Vec<f64> = Vec::with_capacity(ys.len());
        for _ in 0..params.n_trees {
            bx.clear();
            by.clear();
            for &i in &bootstrap(xs.len(), &mut rng) {
                bx.push(xs[i].clone());
                by.push(ys[i]);
            }
            trees.push(DecisionTreeRegressor::fit(
                &bx,
                &by,
                &tree_params,
                &mut rng,
            )?);
        }
        Ok(RandomForestRegressor { trees })
    }
}

impl Regressor for RandomForestRegressor {
    fn predict(&self, x: &[f64]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict(x)).sum();
        sum / self.trees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moons(n: usize) -> (Vec<Vec<f64>>, Vec<u32>) {
        // deterministic two-cluster data with an interaction
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i % 17) as f64 / 17.0;
            let b = (i % 23) as f64 / 23.0;
            xs.push(vec![a, b]);
            ys.push(u32::from((a - 0.5) * (b - 0.5) > 0.0));
        }
        (xs, ys)
    }

    #[test]
    fn classifier_beats_chance_on_interaction() {
        let (xs, ys) = moons(600);
        let params = ForestParams {
            n_trees: 30,
            ..ForestParams::default()
        };
        let m = RandomForestClassifier::fit(&xs, &ys, 2, &params, 1).unwrap();
        let acc = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| m.predict(x) == y)
            .count() as f64
            / xs.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let (xs, ys) = moons(200);
        let m = RandomForestClassifier::fit(
            &xs,
            &ys,
            2,
            &ForestParams {
                n_trees: 7,
                ..ForestParams::default()
            },
            3,
        )
        .unwrap();
        let mut buf = [0.0; 2];
        for x in xs.iter().take(50) {
            m.predict_proba(x, &mut buf);
            assert!((buf.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(buf.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = moons(100);
        let params = ForestParams {
            n_trees: 5,
            ..ForestParams::default()
        };
        let a = RandomForestClassifier::fit(&xs, &ys, 2, &params, 42).unwrap();
        let b = RandomForestClassifier::fit(&xs, &ys, 2, &params, 42).unwrap();
        for x in xs.iter().take(20) {
            assert_eq!(a.proba_of(x, 1), b.proba_of(x, 1));
        }
    }

    #[test]
    fn regressor_approximates_smooth_function() {
        let xs: Vec<Vec<f64>> = (0..500).map(|i| vec![f64::from(i) / 50.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin()).collect();
        let m = RandomForestRegressor::fit(
            &xs,
            &ys,
            &ForestParams {
                n_trees: 30,
                ..ForestParams::default()
            },
            5,
        )
        .unwrap();
        let mut worst: f64 = 0.0;
        for x in xs.iter().step_by(13) {
            let err = (m.predict(x) - x[0].sin()).abs();
            worst = worst.max(err);
        }
        assert!(worst < 0.15, "worst error {worst}");
    }

    #[test]
    fn invalid_params_rejected() {
        let (xs, ys) = moons(10);
        let params = ForestParams {
            n_trees: 0,
            ..ForestParams::default()
        };
        assert!(RandomForestClassifier::fit(&xs, &ys, 2, &params, 0).is_err());
        assert!(RandomForestClassifier::fit(&[], &[], 2, &ForestParams::default(), 0).is_err());
        let ysf: Vec<f64> = ys.iter().map(|&y| f64::from(y)).collect();
        assert!(RandomForestRegressor::fit(&xs, &ysf[..5], &ForestParams::default(), 0).is_err());
    }
}
