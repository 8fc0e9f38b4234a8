//! Linear and logistic regression (optionally weighted and ridge-
//! regularized).
//!
//! These models serve three roles in the reproduction: the *logit-linear
//! surrogate* that linearizes the recourse sufficiency constraint (paper
//! eq. 28), the weighted local surrogates of LIME, and the weighted least
//! squares solve inside KernelSHAP.

use crate::linalg::{dot, Matrix};
use crate::{Classifier, MlError, Regressor, Result};
use tabular::Counter;

/// Canonical accumulation chunk for the gradient-descent fit: each
/// epoch's gradient is summed as per-chunk partials (left-to-right
/// within a chunk) merged sequentially in chunk-index order. The
/// reduction tree depends only on the row count, so the fit's bits are
/// a pure function of its inputs.
const FIT_CHUNK: usize = 4096;

/// Ordinary / ridge / weighted least squares `y ≈ β₀ + βᵀx`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    /// Intercept `β₀`.
    pub intercept: f64,
    /// Coefficients `β`, one per feature.
    pub coefficients: Vec<f64>,
}

impl LinearRegression {
    /// Fit with uniform weights.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], ridge: f64) -> Result<Self> {
        let w = vec![1.0; ys.len()];
        Self::fit_weighted(xs, ys, &w, ridge)
    }

    /// Fit weighted ridge regression by solving the normal equations
    /// `(Xᵀ W X + λI) β = Xᵀ W y` (the intercept column is not
    /// penalized).
    pub fn fit_weighted(xs: &[Vec<f64>], ys: &[f64], w: &[f64], ridge: f64) -> Result<Self> {
        if xs.is_empty() || xs.len() != ys.len() || xs.len() != w.len() {
            return Err(MlError::InvalidTrainingData(format!(
                "xs={}, ys={}, w={}",
                xs.len(),
                ys.len(),
                w.len()
            )));
        }
        if ridge < 0.0 {
            return Err(MlError::InvalidHyperparameter("ridge must be >= 0".into()));
        }
        let d = xs[0].len();
        // design matrix with a leading 1-column for the intercept
        let mut design = Matrix::zeros(xs.len(), d + 1);
        for (i, x) in xs.iter().enumerate() {
            if x.len() != d {
                return Err(MlError::InvalidTrainingData("ragged feature rows".into()));
            }
            let row = design.row_mut(i);
            row[0] = 1.0;
            row[1..].copy_from_slice(x);
        }
        let mut gram = design.weighted_gram(w);
        for j in 1..=d {
            gram[(j, j)] += ridge;
        }
        let rhs = design.weighted_t_matvec(w, ys);
        let beta = gram.solve_spd(&rhs).or_else(|_| {
            // fall back to heavier regularization for degenerate designs
            let mut g2 = gram.clone();
            for j in 0..=d {
                g2[(j, j)] += 1e-8 + ridge.max(1e-6);
            }
            g2.solve_spd(&rhs)
        })?;
        Ok(LinearRegression {
            intercept: beta[0],
            coefficients: beta[1..].to_vec(),
        })
    }

    /// Predicted value for `x`.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        self.intercept + dot(&self.coefficients, x)
    }
}

impl Regressor for LinearRegression {
    fn predict(&self, x: &[f64]) -> f64 {
        self.predict_one(x)
    }
}

/// Binary logistic regression trained with gradient descent on the
/// (optionally L2-regularized) log-loss.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    /// Intercept.
    pub intercept: f64,
    /// Feature coefficients.
    pub coefficients: Vec<f64>,
}

/// Training options for [`LogisticRegression`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticOptions {
    /// Gradient-descent learning rate.
    pub learning_rate: f64,
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// L2 penalty on coefficients (not the intercept).
    pub l2: f64,
}

impl Default for LogisticOptions {
    fn default() -> Self {
        LogisticOptions {
            learning_rate: 0.1,
            epochs: 500,
            l2: 1e-4,
        }
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Logit transform clamped away from 0/1 (paper's eq. 28 estimates the
/// logit of a probability that may sit at the boundary).
#[inline]
pub fn logit(p: f64) -> f64 {
    let p = p.clamp(1e-9, 1.0 - 1e-9);
    (p / (1.0 - p)).ln()
}

impl LogisticRegression {
    /// Gradient-descent fit on labels in `{0, 1}`. Each epoch's
    /// gradient is accumulated as canonical per-chunk partials merged in
    /// chunk-index order (see `FIT_CHUNK`); for inputs up to one chunk
    /// that is a single left-to-right pass.
    pub fn fit(xs: &[Vec<f64>], ys: &[u32], opts: &LogisticOptions) -> Result<Self> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(MlError::InvalidTrainingData(format!(
                "xs={}, ys={}",
                xs.len(),
                ys.len()
            )));
        }
        if ys.iter().any(|&y| y > 1) {
            return Err(MlError::InvalidTrainingData("labels must be 0/1".into()));
        }
        let d = xs[0].len();
        let n = xs.len() as f64;
        let mut w = vec![0.0f64; d];
        let mut b = 0.0f64;
        for _ in 0..opts.epochs {
            let mut grad_w = vec![0.0f64; d];
            let mut grad_b = 0.0f64;
            for (xc, yc) in xs.chunks(FIT_CHUNK).zip(ys.chunks(FIT_CHUNK)) {
                let mut part_w = vec![0.0f64; d];
                let mut part_b = 0.0f64;
                for (x, &y) in xc.iter().zip(yc) {
                    let p = sigmoid(b + dot(&w, x));
                    let err = p - f64::from(y);
                    part_b += err;
                    for (g, &xi) in part_w.iter_mut().zip(x) {
                        *g += err * xi;
                    }
                }
                grad_b += part_b;
                for (g, p) in grad_w.iter_mut().zip(part_w) {
                    *g += p;
                }
            }
            b -= opts.learning_rate * grad_b / n;
            for (wi, g) in w.iter_mut().zip(&grad_w) {
                *wi -= opts.learning_rate * (g / n + opts.l2 * *wi);
            }
        }
        Ok(LogisticRegression {
            intercept: b,
            coefficients: w,
        })
    }

    /// Newton/IRLS fit of the recourse surrogate over grouped rows:
    /// `patterns` holds the distinct rows of a sparse [`OneHotDesign`]
    /// (one-hot codes and ordinal values), each with its row count `n_k`
    /// and positive count `m_k`, in lexicographic pattern order (see
    /// [`Patterns::from_counter`]). Every iteration accumulates the
    /// gradient `Σ_k (n_k·p_k − m_k)·x_k` and Hessian
    /// `Σ_k n_k·p_k(1−p_k)·x_k x_kᵀ` over those K patterns (only the few
    /// active slots of each touch either) and takes one damped Newton
    /// step via the deterministic SPD solver. `design` supplies only the
    /// layout: width, blocks and ordinals.
    ///
    /// The sums run over integer counts in a canonical order, so the
    /// coefficients — and the iteration count — depend only on the
    /// multiset of rows: they are bit-identical under any row order, and
    /// for patterns merged from any split of the rows
    /// ([`Patterns::merge`]). A dictionary-coded table has few patterns
    /// (hundreds against hundreds of thousands of rows), so each
    /// iteration costs O(K), not O(rows).
    pub fn fit_patterns(
        design: &OneHotDesign,
        patterns: &Patterns,
        opts: &NewtonOptions,
    ) -> Result<Self> {
        Self::newton_iterations(design, patterns, opts).map(|(model, _)| model)
    }

    /// [`LogisticRegression::fit_patterns`] plus the number of Newton
    /// steps it took.
    fn newton_iterations(
        design: &OneHotDesign,
        patterns: &Patterns,
        opts: &NewtonOptions,
    ) -> Result<(Self, usize)> {
        design.validate()?;
        let cards = design.cardinalities();
        if patterns.arity != cards.len() {
            return Err(MlError::InvalidTrainingData(format!(
                "patterns have {} columns, design has {}",
                patterns.arity,
                cards.len()
            )));
        }
        if let Some(k) = (0..patterns.len()).find(|&k| {
            patterns
                .key(k)
                .iter()
                .zip(&cards)
                .any(|(&v, &c)| v as usize >= c)
        }) {
            return Err(MlError::InvalidTrainingData(format!(
                "pattern {:?} lies outside the design's cardinalities {cards:?}",
                patterns.key(k)
            )));
        }
        let n_rows: u64 = patterns.rows.iter().sum();
        if n_rows == 0 {
            return Err(MlError::InvalidTrainingData("design has no rows".into()));
        }
        let width = design.width;
        let p1 = width + 1; // slot `width` is the intercept
        let tri = p1 * (p1 + 1) / 2;
        let n = n_rows as f64;
        // each pattern's active `(slot, value)` pairs, `stride` per pattern
        let stride = patterns.arity + 1;
        let mut slots: Vec<(usize, f64)> = Vec::with_capacity(patterns.len() * stride);
        for k in 0..patterns.len() {
            let key = patterns.key(k);
            for (blk, &code) in design.blocks.iter().zip(key) {
                slots.push((blk.offset + code as usize, 1.0));
            }
            for (ord, &v) in design.ordinals.iter().zip(&key[design.blocks.len()..]) {
                slots.push((ord.slot, f64::from(v)));
            }
            slots.push((width, 1.0));
        }
        // beta = [coefficients.., intercept]
        let mut beta = vec![0.0f64; p1];
        let mut iterations = 0;
        for _ in 0..opts.max_iters.max(1) {
            iterations += 1;
            let mut g = vec![0.0f64; p1];
            let mut h = vec![0.0f64; tri];
            for ((xs, &rows), &positives) in slots
                .chunks_exact(stride)
                .zip(&patterns.rows)
                .zip(&patterns.positives)
            {
                let mut z = 0.0f64;
                for &(s, v) in xs {
                    z += beta[s] * v;
                }
                let p = sigmoid(z);
                let n_k = rows as f64;
                let err = n_k * p - positives as f64;
                let wgt = n_k * p * (1.0 - p);
                for (a, &(i, vi)) in xs.iter().enumerate() {
                    g[i] += err * vi;
                    for &(j, vj) in &xs[..=a] {
                        let (hi_s, lo_s) = if i >= j { (i, j) } else { (j, i) };
                        h[hi_s * (hi_s + 1) / 2 + lo_s] += wgt * vi * vj;
                    }
                }
            }
            // mean-scale and L2-regularize (never the intercept)
            for (j, gj) in g.iter_mut().enumerate() {
                *gj /= n;
                if j < width {
                    *gj += opts.l2 * beta[j];
                }
            }
            let mut hess = Matrix::zeros(p1, p1);
            for i in 0..p1 {
                for j in 0..=i {
                    let v = h[i * (i + 1) / 2 + j] / n;
                    hess[(i, j)] = v;
                    hess[(j, i)] = v;
                }
                if i < width {
                    hess[(i, i)] += opts.l2;
                }
            }
            let delta = hess.solve_spd(&g).or_else(|_| {
                // near-separable data drives p(1-p) → 0 and the Hessian
                // toward singular; a heavier ridge keeps the step defined
                let mut h2 = hess.clone();
                for i in 0..p1 {
                    h2[(i, i)] += 1e-8 + opts.l2.max(1e-6);
                }
                h2.solve_spd(&g)
            })?;
            if delta.iter().any(|d| !d.is_finite()) {
                break; // keep the last finite iterate
            }
            let mut max_step = 0.0f64;
            for (b, d) in beta.iter_mut().zip(&delta) {
                *b -= d;
                max_step = max_step.max(d.abs());
            }
            if max_step <= opts.tol {
                break;
            }
        }
        let intercept = beta[width];
        beta.truncate(width);
        let model = LogisticRegression {
            intercept,
            coefficients: beta,
        };
        Ok((model, iterations))
    }

    /// `Pr(y = 1 | x)`.
    pub fn predict_proba_one(&self, x: &[f64]) -> f64 {
        sigmoid(self.intercept + dot(&self.coefficients, x))
    }
}

/// One one-hot block of a [`OneHotDesign`]: a row whose code in the
/// block's column is `c` puts a `1.0` at feature slot `offset + c`.
#[derive(Debug, Clone)]
pub struct OneHotBlock {
    /// First feature slot of the block.
    pub offset: usize,
    /// Number of slots (the attribute's cardinality); every code in the
    /// block's column must be below it.
    pub cardinality: usize,
}

/// One ordinal feature of a [`OneHotDesign`]: a row whose value in the
/// feature's column is `v` puts `f64::from(v)` at feature slot `slot`.
#[derive(Debug, Clone)]
pub struct OrdinalFeature {
    /// The feature slot.
    pub slot: usize,
    /// Number of values the attribute can take; every value in the
    /// feature's column must be below it.
    pub cardinality: usize,
}

/// A sparse design over dictionary-coded columns: a few one-hot blocks
/// plus a few ordinal columns. Each row activates exactly
/// `blocks.len() + ordinals.len()` of the `width` feature slots, which
/// is what makes Hessian accumulation affordable. The rows themselves
/// arrive grouped, as [`Patterns`].
#[derive(Debug, Clone)]
pub struct OneHotDesign {
    /// Total feature width (one-hot slots + ordinal slots).
    pub width: usize,
    /// One-hot blocks, in ascending slot order.
    pub blocks: Vec<OneHotBlock>,
    /// Ordinal features, in ascending slot order after the blocks.
    pub ordinals: Vec<OrdinalFeature>,
}

impl OneHotDesign {
    /// Structural checks: slot bounds and cardinalities. Pattern keys
    /// are range-checked against the cardinalities by the fit.
    pub fn validate(&self) -> Result<()> {
        for blk in &self.blocks {
            let end = blk.offset.checked_add(blk.cardinality);
            if blk.cardinality == 0 || end.is_none_or(|e| e > self.width) {
                return Err(MlError::InvalidTrainingData(format!(
                    "one-hot block {}+{} exceeds width {}",
                    blk.offset, blk.cardinality, self.width
                )));
            }
        }
        for ord in &self.ordinals {
            if ord.slot >= self.width || ord.cardinality == 0 {
                return Err(MlError::InvalidTrainingData(format!(
                    "ordinal slot {} (cardinality {}) outside width {}",
                    ord.slot, ord.cardinality, self.width
                )));
            }
        }
        Ok(())
    }

    /// Per-column cardinalities in design order: one-hot blocks, then
    /// ordinal features.
    fn cardinalities(&self) -> Vec<usize> {
        self.blocks
            .iter()
            .map(|b| b.cardinality)
            .chain(self.ordinals.iter().map(|o| o.cardinality))
            .collect()
    }
}

/// Distinct rows of a design — keys of `arity` values (one-hot codes,
/// then ordinal values) — in strictly ascending lexicographic key order,
/// each with its row count and positive-label count: the sufficient
/// statistics of [`LogisticRegression::fit_patterns`]. Built by
/// [`Patterns::from_counter`] and combined by [`Patterns::merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Patterns {
    arity: usize,
    /// `len() × arity` values, key after key.
    keys: Vec<u32>,
    rows: Vec<u64>,
    positives: Vec<u64>,
}

impl Patterns {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn key(&self, k: usize) -> &[u32] {
        &self.keys[k * self.arity..(k + 1) * self.arity]
    }

    /// Each pattern's key, row count and positive count, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u64, u64)> + '_ {
        (0..self.len()).map(|k| (self.key(k), self.rows[k], self.positives[k]))
    }

    fn push(&mut self, key: &[u32], rows: u64, positives: u64) {
        self.keys.extend_from_slice(key);
        self.rows.push(rows);
        self.positives.push(positives);
    }

    /// The patterns of a counting pass over the design's columns
    /// followed by one label attribute: the cells that differ only in
    /// the label become one pattern, whose `rows` is their sum and whose
    /// positives are the cell labelled `positive`. Counter keys are
    /// row-major with the label last, so visiting them in key order
    /// yields each pattern's cells together and the patterns in
    /// lexicographic order; cells with no rows are skipped.
    pub fn from_counter(counter: &Counter, positive: u32) -> Result<Patterns> {
        let Some(arity) = counter.attrs().len().checked_sub(1) else {
            return Err(MlError::InvalidTrainingData(
                "a pattern count needs a label attribute".into(),
            ));
        };
        let mut out = Patterns {
            arity,
            keys: Vec::new(),
            rows: Vec::new(),
            positives: Vec::new(),
        };
        counter.for_each_nonzero_in_key_order(|values, n| {
            let (key, label) = values.split_at(arity);
            let positives = if label[0] == positive { n } else { 0 };
            match out.len().checked_sub(1) {
                Some(last) if out.key(last) == key => {
                    out.rows[last] += n;
                    out.positives[last] += positives;
                }
                _ => out.push(key, n, positives),
            }
        });
        Ok(out)
    }

    /// The patterns of two sets of rows together: a sorted merge that
    /// adds the counts of equal keys. Integer addition in key order, so
    /// the result equals grouping the concatenated rows exactly.
    pub fn merge(&self, other: &Patterns) -> Result<Patterns> {
        if self.arity != other.arity {
            return Err(MlError::InvalidTrainingData(format!(
                "cannot merge patterns of {} and {} columns",
                self.arity, other.arity
            )));
        }
        let capacity = self.len() + other.len();
        let mut out = Patterns {
            arity: self.arity,
            keys: Vec::with_capacity(capacity * self.arity),
            rows: Vec::with_capacity(capacity),
            positives: Vec::with_capacity(capacity),
        };
        let (mut i, mut j) = (0, 0);
        while i < self.len() || j < other.len() {
            let order = if i == self.len() {
                std::cmp::Ordering::Greater
            } else if j == other.len() {
                std::cmp::Ordering::Less
            } else {
                self.key(i).cmp(other.key(j))
            };
            match order {
                std::cmp::Ordering::Less => {
                    out.push(self.key(i), self.rows[i], self.positives[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.key(j), other.rows[j], other.positives[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(
                        self.key(i),
                        self.rows[i] + other.rows[j],
                        self.positives[i] + other.positives[j],
                    );
                    i += 1;
                    j += 1;
                }
            }
        }
        Ok(out)
    }
}

/// Options for [`LogisticRegression::fit_patterns`].
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonOptions {
    /// Iteration cap; IRLS typically converges in well under ten.
    pub max_iters: usize,
    /// Stop when the largest coefficient step falls to this.
    pub tol: f64,
    /// L2 penalty on coefficients (not the intercept).
    pub l2: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iters: 25,
            tol: 1e-10,
            l2: 1e-4,
        }
    }
}

impl Classifier for LogisticRegression {
    fn n_classes(&self) -> usize {
        2
    }

    fn predict_proba(&self, x: &[f64], out: &mut [f64]) {
        let p = self.predict_proba_one(x);
        out[0] = 1.0 - p;
        out[1] = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::ops::Range;
    use tabular::{AttrId, Context, Domain, Schema, Table};

    #[test]
    fn linear_recovers_exact_line() {
        // y = 3 + 2a - b, noiseless
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![f64::from(i), f64::from(i % 5)])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x[0] - x[1]).collect();
        let m = LinearRegression::fit(&xs, &ys, 0.0).unwrap();
        assert!((m.intercept - 3.0).abs() < 1e-8);
        assert!((m.coefficients[0] - 2.0).abs() < 1e-8);
        assert!((m.coefficients[1] + 1.0).abs() < 1e-8);
        assert!((m.predict_one(&[10.0, 2.0]) - 21.0).abs() < 1e-8);
    }

    #[test]
    fn weighted_fit_ignores_zero_weight_points() {
        let xs = vec![vec![0.0], vec![1.0], vec![2.0], vec![100.0]];
        let ys = vec![0.0, 1.0, 2.0, -500.0]; // outlier
        let w = vec![1.0, 1.0, 1.0, 0.0];
        let m = LinearRegression::fit_weighted(&xs, &ys, &w, 0.0).unwrap();
        assert!((m.coefficients[0] - 1.0).abs() < 1e-8);
        assert!(m.intercept.abs() < 1e-8);
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 * x[0]).collect();
        let free = LinearRegression::fit(&xs, &ys, 0.0).unwrap();
        let shrunk = LinearRegression::fit(&xs, &ys, 100.0).unwrap();
        assert!(shrunk.coefficients[0].abs() < free.coefficients[0].abs());
    }

    #[test]
    fn degenerate_design_still_solves() {
        // duplicated feature columns are rank deficient; the ridge
        // fallback must cope
        let xs = vec![vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]];
        let ys = vec![2.0, 4.0, 6.0];
        let m = LinearRegression::fit(&xs, &ys, 0.0).unwrap();
        let pred = m.predict_one(&[4.0, 4.0]);
        assert!((pred - 8.0).abs() < 1e-2, "pred {pred}");
    }

    #[test]
    fn shape_errors() {
        assert!(LinearRegression::fit(&[], &[], 0.0).is_err());
        assert!(LinearRegression::fit(&[vec![1.0]], &[1.0, 2.0], 0.0).is_err());
        assert!(LinearRegression::fit(&[vec![1.0]], &[1.0], -1.0).is_err());
        assert!(LinearRegression::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0], 0.0).is_err());
    }

    #[test]
    fn sigmoid_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0) > 0.999_999);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn logit_inverts_sigmoid() {
        for &p in &[0.1, 0.25, 0.5, 0.9] {
            assert!((sigmoid(logit(p)) - p).abs() < 1e-9);
        }
        assert!(logit(0.0).is_finite());
        assert!(logit(1.0).is_finite());
    }

    #[test]
    fn logistic_learns_separable_data() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..400 {
            let a: f64 = rng.gen_range(-2.0..2.0);
            let b: f64 = rng.gen_range(-2.0..2.0);
            xs.push(vec![a, b]);
            ys.push(u32::from(a + b > 0.0));
        }
        let m = LogisticRegression::fit(&xs, &ys, &LogisticOptions::default()).unwrap();
        let acc = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| m.predict(x) == y)
            .count() as f64
            / xs.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
        // coefficients point the right way
        assert!(m.coefficients[0] > 0.0 && m.coefficients[1] > 0.0);
    }

    #[test]
    fn logistic_as_classifier_trait() {
        let m = LogisticRegression {
            intercept: 0.0,
            coefficients: vec![1.0],
        };
        let mut buf = [0.0; 2];
        m.predict_proba(&[0.0], &mut buf);
        assert!((buf[0] - 0.5).abs() < 1e-12);
        assert!((buf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(m.n_classes(), 2);
        assert!((m.proba_of(&[2.0], 1) - sigmoid(2.0)).abs() < 1e-12);
    }

    #[test]
    fn logistic_rejects_bad_labels() {
        assert!(LogisticRegression::fit(&[vec![1.0]], &[2], &LogisticOptions::default()).is_err());
    }

    /// A little synthetic one-hot + ordinal world shared by the fit
    /// tests: one 3-code block, one 2-code block, one ordinal column of
    /// cardinality 5, labels from a noisy linear rule.
    fn onehot_world(n: usize) -> (Vec<Vec<u32>>, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(17);
        let mut cols: Vec<Vec<u32>> = (0..3).map(|_| Vec::with_capacity(n)).collect();
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.gen_range(0..3u32);
            let b = rng.gen_range(0..2u32);
            let o = rng.gen_range(0..5u32);
            cols[0].push(a);
            cols[1].push(b);
            cols[2].push(o);
            let z = f64::from(a) * 0.9 - f64::from(b) * 1.3 + f64::from(o) * 0.4 - 1.0;
            ys.push(u32::from(sigmoid(z) > rng.gen_range(0.0..1.0)));
        }
        (cols, ys)
    }

    /// The layout of [`onehot_world`]'s columns.
    fn world_design() -> OneHotDesign {
        OneHotDesign {
            width: 6,
            blocks: vec![
                OneHotBlock {
                    offset: 0,
                    cardinality: 3,
                },
                OneHotBlock {
                    offset: 3,
                    cardinality: 2,
                },
            ],
            ordinals: vec![OrdinalFeature {
                slot: 5,
                cardinality: 5,
            }],
        }
    }

    /// A table of the design columns `cols`, of cardinalities `cards`,
    /// with the 0/1 labels `ys` as its last attribute.
    fn labelled_table(cards: &[usize], cols: &[Vec<u32>], ys: &[u32]) -> Table {
        let mut schema = Schema::new();
        for (j, &card) in cards.iter().enumerate() {
            schema.push(
                format!("c{j}"),
                Domain::categorical((0..card).map(|v| v.to_string())),
            );
        }
        schema.push("y", Domain::boolean());
        let columns = cols.iter().cloned().chain([ys.to_vec()]).collect();
        Table::from_columns(schema, columns).unwrap()
    }

    /// The patterns of rows `rows` of a labelled table, positive label 1,
    /// from one counting pass over every attribute.
    fn patterns_of(t: &Table, rows: Range<usize>) -> Patterns {
        let attrs: Vec<AttrId> = t.schema().attr_ids().collect();
        let counter = Counter::build_range(t, &attrs, &Context::empty(), rows).unwrap();
        Patterns::from_counter(&counter, 1).unwrap()
    }

    /// Dense feature vector of row `r` of the design's columns.
    fn dense_features(design: &OneHotDesign, cols: &[Vec<u32>], r: usize) -> Vec<f64> {
        let mut x = vec![0.0f64; design.width];
        for (blk, col) in design.blocks.iter().zip(cols) {
            x[blk.offset + col[r] as usize] = 1.0;
        }
        for (ord, col) in design.ordinals.iter().zip(&cols[design.blocks.len()..]) {
            x[ord.slot] = f64::from(col[r]);
        }
        x
    }

    /// A random design: 1–3 one-hot blocks and 0–2 ordinal features of
    /// random cardinality, rows labelled by a random logit-linear rule.
    struct RandomDesign {
        layout: OneHotDesign,
        cols: Vec<Vec<u32>>,
        ys: Vec<u32>,
    }

    impl RandomDesign {
        fn new(seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut blocks = Vec::new();
            let mut width = 0;
            for _ in 0..rng.gen_range(1..4usize) {
                let cardinality = rng.gen_range(2..5usize);
                blocks.push(OneHotBlock {
                    offset: width,
                    cardinality,
                });
                width += cardinality;
            }
            let mut ordinals = Vec::new();
            for _ in 0..rng.gen_range(0..3usize) {
                ordinals.push(OrdinalFeature {
                    slot: width,
                    cardinality: rng.gen_range(2..6usize),
                });
                width += 1;
            }
            let layout = OneHotDesign {
                width,
                blocks,
                ordinals,
            };
            let cards = layout.cardinalities();
            let weights: Vec<f64> = cards.iter().map(|_| rng.gen_range(-0.6..0.6)).collect();
            let n = rng.gen_range(200..2_000usize);
            let mut cols: Vec<Vec<u32>> = cards.iter().map(|_| Vec::with_capacity(n)).collect();
            let mut ys = Vec::with_capacity(n);
            for _ in 0..n {
                let mut z = -0.3;
                for ((col, &card), w) in cols.iter_mut().zip(&cards).zip(&weights) {
                    let v = rng.gen_range(0..card as u32);
                    col.push(v);
                    z += w * f64::from(v);
                }
                ys.push(u32::from(sigmoid(z) > rng.gen_range(0.0..1.0)));
            }
            RandomDesign { layout, cols, ys }
        }

        /// The labelled table over rows `order` (a permutation of the
        /// row ids).
        fn table(&self, order: &[usize]) -> Table {
            let pick = |col: &Vec<u32>| order.iter().map(|&r| col[r]).collect::<Vec<u32>>();
            let cols: Vec<Vec<u32>> = self.cols.iter().map(pick).collect();
            labelled_table(&self.layout.cardinalities(), &cols, &pick(&self.ys))
        }

        fn shuffled(&self, seed: u64) -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut order: Vec<usize> = (0..self.ys.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            order
        }
    }

    /// Row-wise dense IRLS with the same scaling, L2, ridge fallback and
    /// stopping rule as the grouped fit: `([coefficients.., intercept],
    /// iterations)`.
    fn dense_irls(
        design: &OneHotDesign,
        cols: &[Vec<u32>],
        labels: &[u32],
        opts: &NewtonOptions,
    ) -> (Vec<f64>, usize) {
        let width = design.width;
        let p1 = width + 1;
        let xs: Vec<Vec<f64>> = (0..labels.len())
            .map(|r| {
                let mut x = dense_features(design, cols, r);
                x.push(1.0);
                x
            })
            .collect();
        let n = xs.len() as f64;
        let mut beta = vec![0.0f64; p1];
        for iteration in 1..=opts.max_iters {
            let mut g = vec![0.0f64; p1];
            let mut hess = Matrix::zeros(p1, p1);
            for (x, &y) in xs.iter().zip(labels) {
                let p = sigmoid(dot(&beta, x));
                for i in 0..p1 {
                    g[i] += (p - f64::from(y)) * x[i];
                    for j in 0..p1 {
                        hess[(i, j)] += p * (1.0 - p) * x[i] * x[j];
                    }
                }
            }
            for i in 0..p1 {
                g[i] /= n;
                for j in 0..p1 {
                    hess[(i, j)] /= n;
                }
                if i < width {
                    g[i] += opts.l2 * beta[i];
                    hess[(i, i)] += opts.l2;
                }
            }
            let delta = hess
                .solve_spd(&g)
                .or_else(|_| {
                    let mut h2 = hess.clone();
                    for i in 0..p1 {
                        h2[(i, i)] += 1e-8 + opts.l2.max(1e-6);
                    }
                    h2.solve_spd(&g)
                })
                .unwrap();
            let mut max_step = 0.0f64;
            for (b, d) in beta.iter_mut().zip(&delta) {
                *b -= d;
                max_step = max_step.max(d.abs());
            }
            if max_step <= opts.tol {
                return (beta, iteration);
            }
        }
        (beta, opts.max_iters)
    }

    fn bits(m: &LogisticRegression) -> Vec<u64> {
        m.coefficients
            .iter()
            .chain([&m.intercept])
            .map(|c| c.to_bits())
            .collect()
    }

    #[test]
    fn small_inputs_reproduce_the_single_pass_fit() {
        // under one chunk the chunked accumulator IS the single
        // left-to-right pass — pin the exact historical coefficients
        // by re-running the pre-chunking loop inline
        let (cols, ys) = onehot_world(500);
        let design = world_design();
        let xs: Vec<Vec<f64>> = (0..ys.len())
            .map(|r| dense_features(&design, &cols, r))
            .collect();
        let opts = LogisticOptions::default();
        let m = LogisticRegression::fit(&xs, &ys, &opts).unwrap();
        let (mut w, mut b) = (vec![0.0f64; 6], 0.0f64);
        let n = xs.len() as f64;
        for _ in 0..opts.epochs {
            let mut gw = vec![0.0f64; 6];
            let mut gb = 0.0f64;
            for (x, &y) in xs.iter().zip(&ys) {
                let err = sigmoid(b + dot(&w, x)) - f64::from(y);
                gb += err;
                for (g, &xi) in gw.iter_mut().zip(x) {
                    *g += err * xi;
                }
            }
            b -= opts.learning_rate * gb / n;
            for (wi, g) in w.iter_mut().zip(&gw) {
                *wi -= opts.learning_rate * (g / n + opts.l2 * *wi);
            }
        }
        assert_eq!(m.intercept.to_bits(), b.to_bits());
        for (a, e) in m.coefficients.iter().zip(&w) {
            assert_eq!(a.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn grouped_newton_matches_a_dense_rowwise_irls() {
        let opts = NewtonOptions::default();
        for seed in 0..12 {
            let world = RandomDesign::new(seed);
            let order: Vec<usize> = (0..world.ys.len()).collect();
            let table = world.table(&order);
            let patterns = patterns_of(&table, 0..table.n_rows());
            let (model, iterations) =
                LogisticRegression::newton_iterations(&world.layout, &patterns, &opts).unwrap();
            let (want, want_iterations) = dense_irls(&world.layout, &world.cols, &world.ys, &opts);
            assert_eq!(iterations, want_iterations, "seed {seed}");
            let got: Vec<f64> = model
                .coefficients
                .iter()
                .chain([&model.intercept])
                .copied()
                .collect();
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 1e-9,
                    "seed {seed}: grouped {g} vs dense {w}"
                );
            }
        }
    }

    #[test]
    fn grouped_newton_is_bitwise_invariant_under_row_order() {
        let opts = NewtonOptions::default();
        for seed in 0..8 {
            let world = RandomDesign::new(100 + seed);
            let identity: Vec<usize> = (0..world.ys.len()).collect();
            let fit = |order: &[usize]| {
                let table = world.table(order);
                let patterns = patterns_of(&table, 0..table.n_rows());
                bits(&LogisticRegression::fit_patterns(&world.layout, &patterns, &opts).unwrap())
            };
            assert_eq!(fit(&identity), fit(&world.shuffled(seed)), "seed {seed}");
        }
    }

    #[test]
    fn merged_patterns_of_any_two_way_split_equal_grouping_the_concatenation() {
        let opts = NewtonOptions::default();
        for seed in 0..8 {
            let world = RandomDesign::new(200 + seed);
            let n = world.ys.len();
            let whole = world.table(&world.shuffled(seed));
            let want = patterns_of(&whole, 0..n);
            let cold =
                bits(&LogisticRegression::fit_patterns(&world.layout, &want, &opts).unwrap());
            let mut rng = StdRng::seed_from_u64(seed);
            for split in [0, 1, rng.gen_range(0..n), n / 2, n - 1, n] {
                let head = patterns_of(&whole, 0..split);
                let tail = patterns_of(&whole, split..n);
                let merged = head.merge(&tail).unwrap();
                assert_eq!(merged, want, "seed {seed}, split at {split}");
                // merging is symmetric: the tail's patterns first, too
                assert_eq!(tail.merge(&head).unwrap(), want, "seed {seed}");
                let fit = LogisticRegression::fit_patterns(&world.layout, &merged, &opts).unwrap();
                assert_eq!(bits(&fit), cold, "seed {seed}, split at {split}");
            }
        }
    }

    #[test]
    fn patterns_from_dense_and_sparse_counters_equal_a_rowwise_grouping() {
        // 2 × 3 codes is a dense grid; 300 × 300 × 2 cells is past
        // MAX_DENSE_GRID, so that counter is sparse and sorts its keys
        let mut rng = StdRng::seed_from_u64(9);
        for cards in [[2usize, 3], [300, 300]] {
            let n = 500;
            let cols: Vec<Vec<u32>> = cards
                .iter()
                .map(|&c| (0..n).map(|_| rng.gen_range(0..c as u32)).collect())
                .collect();
            let ys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2u32)).collect();
            let mut want: std::collections::BTreeMap<Vec<u32>, (u64, u64)> = Default::default();
            for r in 0..n {
                let cell = want.entry(vec![cols[0][r], cols[1][r]]).or_default();
                cell.0 += 1;
                cell.1 += u64::from(ys[r]);
            }
            let got = patterns_of(&labelled_table(&cards, &cols, &ys), 0..n);
            assert_eq!(got.arity, 2);
            let got: Vec<(Vec<u32>, (u64, u64))> = got
                .iter()
                .map(|(key, rows, positives)| (key.to_vec(), (rows, positives)))
                .collect();
            assert_eq!(got, want.into_iter().collect::<Vec<_>>(), "{cards:?}");
        }
        // a count with no attribute has no label to group by
        let t = labelled_table(&[2], &[vec![0, 1]], &[0, 1]);
        let none = Counter::build(&t, &[], &Context::empty()).unwrap();
        assert!(Patterns::from_counter(&none, 1).is_err());
    }

    #[test]
    fn foreign_patterns_are_typed_errors() {
        let (cols, ys) = onehot_world(50);
        let design = world_design();
        let table = labelled_table(&design.cardinalities(), &cols, &ys);
        let patterns = patterns_of(&table, 0..50);
        // a design with one column fewer cannot take these patterns
        let mut narrow = design.clone();
        narrow.ordinals.clear();
        let opts = NewtonOptions::default();
        assert!(LogisticRegression::fit_patterns(&narrow, &patterns, &opts).is_err());
        let narrow_table = labelled_table(&[3, 2], &cols[..2], &ys);
        let narrow_patterns = patterns_of(&narrow_table, 0..50);
        assert!(narrow_patterns.merge(&patterns).is_err());
        // nor a design whose cardinalities its keys exceed
        let mut small = design.clone();
        small.ordinals[0].cardinality = 2;
        assert!(matches!(
            LogisticRegression::fit_patterns(&small, &patterns, &opts),
            Err(MlError::InvalidTrainingData(_))
        ));
        small = design.clone();
        small.blocks[0].cardinality = 2;
        small.blocks[1].offset = 2;
        assert!(matches!(
            LogisticRegression::fit_patterns(&small, &patterns, &opts),
            Err(MlError::InvalidTrainingData(_))
        ));
        // an empty set of patterns has no rows to fit
        let no_rows = patterns_of(&table, 0..0);
        assert!(LogisticRegression::fit_patterns(&design, &no_rows, &opts).is_err());
    }

    #[test]
    fn newton_fit_matches_the_model_and_beats_gd_at_equal_budget() {
        let (cols, ys) = onehot_world(4_000);
        let design = world_design();
        let patterns = patterns_of(&labelled_table(&[3, 2, 5], &cols, &ys), 0..ys.len());
        let m = LogisticRegression::fit_patterns(&design, &patterns, &NewtonOptions::default())
            .unwrap();
        // the learned coefficients order the first block correctly
        // (gain rises with the code) and point the right way elsewhere
        assert!(m.coefficients[2] > m.coefficients[1]);
        assert!(m.coefficients[1] > m.coefficients[0]);
        assert!(m.coefficients[4] < m.coefficients[3]);
        assert!(m.coefficients[5] > 0.0);
        let acc = (0..ys.len())
            .filter(|&r| {
                let p = m.predict_proba_one(&dense_features(&design, &cols, r));
                u32::from(p > 0.5) == ys[r]
            })
            .count() as f64
            / ys.len() as f64;
        assert!(acc > 0.7, "newton surrogate accuracy {acc}");
    }

    #[test]
    fn newton_sparse_equals_dense_gd_geometry_on_onehot_data() {
        // predictions from the sparse fit match a well-converged dense
        // GD fit closely on every row
        let (cols, ys) = onehot_world(2_000);
        let design = world_design();
        let xs: Vec<Vec<f64>> = (0..ys.len())
            .map(|r| dense_features(&design, &cols, r))
            .collect();
        let patterns = patterns_of(&labelled_table(&[3, 2, 5], &cols, &ys), 0..ys.len());
        let newton =
            LogisticRegression::fit_patterns(&design, &patterns, &NewtonOptions::default())
                .unwrap();
        let gd = LogisticRegression::fit(
            &xs,
            &ys,
            &LogisticOptions {
                epochs: 4_000,
                learning_rate: 0.5,
                l2: 1e-4,
            },
        )
        .unwrap();
        for x in xs.iter().step_by(97) {
            let a = newton.predict_proba_one(x);
            let b = gd.predict_proba_one(x);
            assert!((a - b).abs() < 0.02, "newton {a} vs gd {b}");
        }
    }

    #[test]
    fn onehot_design_validation() {
        let ok = OneHotDesign {
            width: 4,
            blocks: vec![OneHotBlock {
                offset: 0,
                cardinality: 3,
            }],
            ordinals: vec![OrdinalFeature {
                slot: 3,
                cardinality: 3,
            }],
        };
        assert!(ok.validate().is_ok());
        let mut wide = ok.clone();
        wide.blocks[0].cardinality = 5;
        assert!(wide.validate().is_err(), "block past width");
        let mut slot = ok.clone();
        slot.ordinals[0].slot = 9;
        assert!(slot.validate().is_err(), "ordinal slot past width");
        let codes = vec![0u32, 1, 2];
        let patterns = patterns_of(
            &labelled_table(&[3, 3], &[codes.clone(), codes], &[0, 1, 0]),
            0..3,
        );
        let opts = NewtonOptions::default();
        assert!(LogisticRegression::fit_patterns(&ok, &patterns, &opts).is_ok());
        assert!(
            LogisticRegression::fit_patterns(&wide, &patterns, &opts).is_err(),
            "an invalid layout is refused before any pattern is read"
        );
    }
}
