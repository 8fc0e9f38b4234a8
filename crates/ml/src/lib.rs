//! # ml — from-scratch machine-learning substrate
//!
//! The paper evaluates LEWIS against four black-box model families
//! (§5.2): random forest classifiers, random forest regressors, XGBoost,
//! and feed-forward neural networks. None of these exist in the offline
//! Rust ecosystem available here, so this crate implements them, plus the
//! (weighted, regularized) linear models that LIME / KernelSHAP / the
//! recourse logit surrogate need:
//!
//! * [`linalg`] — dense matrices, Gaussian elimination, Cholesky;
//! * [`linear`] — linear & ridge regression (weighted), logistic
//!   regression;
//! * [`tree`] — CART decision trees (gini / entropy / variance);
//! * [`forest`] — bagged random forests (classification & regression);
//! * [`gbdt`] — gradient-boosted trees with second-order (Newton) leaf
//!   weights, XGBoost-style;
//! * [`nn`] — multi-layer perceptron trained with Adam;
//! * [`encode`] — dictionary-code ⇄ feature-vector bridges for
//!   [`tabular::Table`] data;
//! * [`metrics`] — accuracy, log-loss, AUC.
//!
//! All models implement [`Classifier`] or [`Regressor`]; LEWIS itself only
//! ever sees the [`Classifier::predict`] surface, which is what makes it
//! model-agnostic.

pub mod encode;
pub mod forest;
pub mod gbdt;
pub mod linalg;
pub mod linear;
pub mod metrics;
pub mod nn;
pub mod tree;

pub use encode::TableEncoder;
pub use forest::{RandomForestClassifier, RandomForestRegressor};
pub use gbdt::GradientBoostedTrees;
pub use linalg::Matrix;
pub use linear::{
    LinearRegression, LogisticRegression, NewtonOptions, OneHotBlock, OneHotDesign, OrdinalFeature,
    Patterns,
};
pub use nn::NeuralNetwork;
pub use tree::{DecisionTreeClassifier, DecisionTreeRegressor};

/// A trained classifier over dense feature vectors.
///
/// `predict_proba` fills a caller-provided buffer with the class
/// distribution so hot loops stay allocation-free.
pub trait Classifier: Send + Sync {
    /// Number of classes `K`; class labels are `0..K`.
    fn n_classes(&self) -> usize;

    /// Write `Pr(class = k | x)` for every `k` into `out`
    /// (`out.len() == n_classes()`).
    fn predict_proba(&self, x: &[f64], out: &mut [f64]);

    /// The most probable class.
    fn predict(&self, x: &[f64]) -> u32 {
        let mut buf = vec![0.0; self.n_classes()];
        self.predict_proba(x, &mut buf);
        argmax(&buf) as u32
    }

    /// `Pr(class | x)` for one class.
    fn proba_of(&self, x: &[f64], class: u32) -> f64 {
        let mut buf = vec![0.0; self.n_classes()];
        self.predict_proba(x, &mut buf);
        buf.get(class as usize).copied().unwrap_or(0.0)
    }
}

/// A trained regressor over dense feature vectors.
pub trait Regressor: Send + Sync {
    /// Predicted real-valued outcome.
    fn predict(&self, x: &[f64]) -> f64;
}

/// Index of the maximum element (first on ties).
pub(crate) fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Errors from model training.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// Training data was empty or shapes disagree.
    InvalidTrainingData(String),
    /// A linear system was singular beyond recovery.
    SingularMatrix,
    /// A hyper-parameter was out of range.
    InvalidHyperparameter(String),
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::InvalidTrainingData(m) => write!(f, "invalid training data: {m}"),
            MlError::SingularMatrix => write!(f, "singular matrix in linear solve"),
            MlError::InvalidHyperparameter(m) => write!(f, "invalid hyperparameter: {m}"),
        }
    }
}

impl std::error::Error for MlError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, MlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_basics() {
        assert_eq!(argmax(&[0.1, 0.7, 0.2]), 1);
        assert_eq!(argmax(&[0.5, 0.5]), 0, "first wins ties");
        assert_eq!(argmax(&[3.0]), 0);
    }
}
