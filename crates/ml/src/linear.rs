//! Linear and logistic regression (optionally weighted and ridge-
//! regularized).
//!
//! These models serve three roles in the reproduction: the *logit-linear
//! surrogate* that linearizes the recourse sufficiency constraint (paper
//! eq. 28), the weighted local surrogates of LIME, and the weighted least
//! squares solve inside KernelSHAP.

use crate::linalg::{dot, Matrix};
use crate::{Classifier, MlError, Regressor, Result};
use tabular::FxHashMap;

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

    /// Newton/IRLS fit over a sparse [`OneHotDesign`] — the recourse
    /// surrogate's fit. One pass over the rows groups them into their
    /// distinct patterns (one-hot codes and ordinal values), each with
    /// its row count `n_k` and positive count `m_k`, in lexicographic
    /// pattern order. Every iteration then accumulates the gradient
    /// `Σ_k (n_k·p_k − m_k)·x_k` and Hessian `Σ_k n_k·p_k(1−p_k)·x_k x_kᵀ`
    /// over those K patterns (only the few active slots of each touch
    /// either) and takes one damped Newton step via the deterministic
    /// SPD solver.
    ///
    /// The sums run over integer counts in a canonical order, so the
    /// coefficients — and the iteration count — depend only on the
    /// multiset of rows: they are bit-identical under any row order and
    /// any split of the rows into [`DesignSegment`]s. A dictionary-coded
    /// table has few patterns (hundreds against hundreds of thousands of
    /// rows), so each iteration costs O(K), not O(rows).
    pub fn fit_onehot_newton(design: &OneHotDesign<'_>, opts: &NewtonOptions) -> Result<Self> {
        Self::fit_patterns(design, &design.patterns()?, opts)
    }

    /// The Newton/IRLS iterations of
    /// [`LogisticRegression::fit_onehot_newton`] over rows that are
    /// already grouped — for example the patterns of earlier rows
    /// merged with those of the rows appended since
    /// ([`Patterns::merge`]). `design` supplies only the layout (width,
    /// blocks, ordinals); its segments are not read. Grouped patterns
    /// depend only on the multiset of rows, so this fit is bit-identical
    /// to grouping every row at once.
    pub fn fit_patterns(
        design: &OneHotDesign<'_>,
        patterns: &Patterns,
        opts: &NewtonOptions,
    ) -> Result<Self> {
        Self::newton_iterations(design, patterns, opts).map(|(model, _)| model)
    }

    /// [`LogisticRegression::fit_patterns`] plus the number of Newton
    /// steps it took.
    fn newton_iterations(
        design: &OneHotDesign<'_>,
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

/// A contiguous run of design rows, borrowed straight from column
/// storage.
#[derive(Debug, Clone)]
pub struct DesignSegment<'a> {
    /// One column per one-hot block, then one per ordinal feature, in
    /// design order; each as long as `labels`.
    pub columns: Vec<&'a [u32]>,
    /// Per-row label in `{0, 1}`.
    pub labels: &'a [u32],
}

/// A sparse design matrix over dictionary-coded columns: a few one-hot
/// blocks plus a few ordinal columns, borrowed straight from table
/// storage as one or more row segments — no dense row materialization
/// and no concatenation. Each row activates exactly
/// `blocks.len() + ordinals.len()` of the `width` feature slots, which
/// is what makes Hessian accumulation affordable.
#[derive(Debug, Clone)]
pub struct OneHotDesign<'a> {
    /// Total feature width (one-hot slots + ordinal slots).
    pub width: usize,
    /// One-hot blocks, in ascending slot order.
    pub blocks: Vec<OneHotBlock>,
    /// Ordinal features, in ascending slot order after the blocks.
    pub ordinals: Vec<OrdinalFeature>,
    /// The rows, segment after segment (for example a frozen base table
    /// and the rows appended to it).
    pub segments: Vec<DesignSegment<'a>>,
}

impl OneHotDesign<'_> {
    /// Total rows over all segments.
    pub fn n_rows(&self) -> usize {
        self.segments.iter().map(|s| s.labels.len()).sum()
    }

    /// Structural checks: slot bounds, cardinalities, column counts and
    /// lengths. Codes, values and labels are range-checked by the fit's
    /// single pass over the rows.
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
        let arity = self.blocks.len() + self.ordinals.len();
        for seg in &self.segments {
            if seg.columns.len() != arity {
                return Err(MlError::InvalidTrainingData(format!(
                    "segment has {} columns, design has {arity}",
                    seg.columns.len()
                )));
            }
            if let Some(col) = seg.columns.iter().find(|c| c.len() != seg.labels.len()) {
                return Err(MlError::InvalidTrainingData(format!(
                    "design column has {} rows, its segment has {} labels",
                    col.len(),
                    seg.labels.len()
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

    /// Dense feature vector of row `r`, counting across segments
    /// (test/debug helper; the fit itself never materializes rows).
    pub fn dense_row(&self, mut r: usize) -> Vec<f64> {
        let mut segments = self.segments.iter();
        let seg = loop {
            let seg = segments.next().expect("row within the design");
            if r < seg.labels.len() {
                break seg;
            }
            r -= seg.labels.len();
        };
        let mut x = vec![0.0f64; self.width];
        for (blk, col) in self.blocks.iter().zip(&seg.columns) {
            x[blk.offset + col[r] as usize] = 1.0;
        }
        for (ord, col) in self.ordinals.iter().zip(&seg.columns[self.blocks.len()..]) {
            x[ord.slot] = f64::from(col[r]);
        }
        x
    }

    /// The design's distinct patterns, grouped column by column over
    /// all segments in row order: each row carries the id of its pattern
    /// prefix over the columns seen so far, and a small map from
    /// `(prefix id, value)` to the next id refines it. Every pass reads
    /// the columns sequentially, and the ids never pack the key into an
    /// integer, so any cardinality product works. A last pass counts
    /// rows and positives per pattern, which are then put in
    /// lexicographic key order — so the result depends only on the
    /// multiset of rows, not on their order or segment split.
    pub fn patterns(&self) -> Result<Patterns> {
        self.validate()?;
        let cards = self.cardinalities();
        let mut prefix = vec![0usize; self.n_rows()];
        // `(segment, row)` of the first row of each prefix group; with
        // no columns at all the one group's (empty) key is never read
        let mut first: Vec<(usize, usize)> = if prefix.is_empty() {
            Vec::new()
        } else {
            vec![(0, 0)]
        };
        let mut ids: FxHashMap<(usize, u32), usize> = FxHashMap::default();
        for (j, &card) in cards.iter().enumerate() {
            ids.clear();
            let mut next_first = Vec::with_capacity(first.len());
            let mut start = 0;
            for (s, seg) in self.segments.iter().enumerate() {
                let col = seg.columns[j];
                if let Some(&v) = col.iter().find(|&&v| v as usize >= card) {
                    return Err(MlError::InvalidTrainingData(format!(
                        "design column {j} holds {v}, at or above its cardinality {card}"
                    )));
                }
                let here = &mut prefix[start..start + col.len()];
                start += col.len();
                for (r, (id, &v)) in here.iter_mut().zip(col).enumerate() {
                    *id = *ids.entry((*id, v)).or_insert_with(|| {
                        next_first.push((s, r));
                        next_first.len() - 1
                    });
                }
            }
            first = next_first;
        }
        let mut rows = vec![0u64; first.len()];
        let mut positives = vec![0u64; first.len()];
        let labels = self.segments.iter().flat_map(|seg| seg.labels);
        for (&id, &y) in prefix.iter().zip(labels) {
            if y > 1 {
                return Err(MlError::InvalidTrainingData("labels must be 0/1".into()));
            }
            rows[id] += 1;
            positives[id] += u64::from(y);
        }
        let key = |id: usize| {
            let (s, r) = first[id];
            self.segments[s].columns.iter().map(move |c| c[r])
        };
        let mut by_key: Vec<usize> = (0..first.len()).collect();
        by_key.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        Ok(Patterns {
            arity: cards.len(),
            keys: by_key.iter().flat_map(|&id| key(id)).collect(),
            rows: by_key.iter().map(|&id| rows[id]).collect(),
            positives: by_key.iter().map(|&id| positives[id]).collect(),
        })
    }
}

/// Distinct rows of a design — keys of `arity` values (one-hot codes,
/// then ordinal values) — in strictly ascending lexicographic key order,
/// each with its row count and positive-label count: the sufficient
/// statistics of [`LogisticRegression::fit_patterns`]. Built by
/// [`OneHotDesign::patterns`] and combined by [`Patterns::merge`].
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

    fn push(&mut self, key: &[u32], rows: u64, positives: u64) {
        self.keys.extend_from_slice(key);
        self.rows.push(rows);
        self.positives.push(positives);
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

/// Options for [`LogisticRegression::fit_onehot_newton`].
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

    fn world_design<'a>(cols: &'a [Vec<u32>], ys: &'a [u32]) -> OneHotDesign<'a> {
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
            segments: vec![DesignSegment {
                columns: cols.iter().map(Vec::as_slice).collect(),
                labels: ys,
            }],
        }
    }

    /// A random design: 1–3 one-hot blocks and 0–2 ordinal features of
    /// random cardinality, rows labelled by a random logit-linear rule.
    struct RandomDesign {
        blocks: Vec<OneHotBlock>,
        ordinals: Vec<OrdinalFeature>,
        width: usize,
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
            let cards: Vec<usize> = blocks
                .iter()
                .map(|b| b.cardinality)
                .chain(ordinals.iter().map(|o| o.cardinality))
                .collect();
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
            RandomDesign {
                blocks,
                ordinals,
                width,
                cols,
                ys,
            }
        }

        /// The design over rows `order` (a permutation of the row ids),
        /// cut into two segments at `split`.
        fn design<'a>(
            &self,
            store: &'a mut Vec<Vec<u32>>,
            order: &[usize],
            split: usize,
        ) -> OneHotDesign<'a> {
            store.clear();
            for col in self.cols.iter().chain([&self.ys]) {
                store.push(order.iter().map(|&r| col[r]).collect());
            }
            let (labels, columns) = store.split_last().expect("label column");
            let segment = |lo: usize, hi: usize| DesignSegment {
                columns: columns.iter().map(|c| &c[lo..hi]).collect(),
                labels: &labels[lo..hi],
            };
            OneHotDesign {
                width: self.width,
                blocks: self.blocks.clone(),
                ordinals: self.ordinals.clone(),
                segments: vec![segment(0, split), segment(split, order.len())],
            }
        }
    }

    /// Row-wise dense IRLS with the same scaling, L2, ridge fallback and
    /// stopping rule as the grouped fit: `([coefficients.., intercept],
    /// iterations)`.
    fn dense_irls(design: &OneHotDesign<'_>, opts: &NewtonOptions) -> (Vec<f64>, usize) {
        let width = design.width;
        let p1 = width + 1;
        let labels: Vec<u32> = design
            .segments
            .iter()
            .flat_map(|s| s.labels.iter().copied())
            .collect();
        let xs: Vec<Vec<f64>> = (0..labels.len())
            .map(|r| {
                let mut x = design.dense_row(r);
                x.push(1.0);
                x
            })
            .collect();
        let n = xs.len() as f64;
        let mut beta = vec![0.0f64; p1];
        for iteration in 1..=opts.max_iters {
            let mut g = vec![0.0f64; p1];
            let mut hess = Matrix::zeros(p1, p1);
            for (x, &y) in xs.iter().zip(&labels) {
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
        let design = world_design(&cols, &ys);
        let xs: Vec<Vec<f64>> = (0..design.n_rows()).map(|r| design.dense_row(r)).collect();
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
            let mut store = Vec::new();
            let design = world.design(&mut store, &order, order.len() / 3);
            let (model, iterations) =
                LogisticRegression::newton_iterations(&design, &design.patterns().unwrap(), &opts)
                    .unwrap();
            let (want, want_iterations) = dense_irls(&design, &opts);
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
    fn grouped_newton_is_bitwise_invariant_under_row_order_and_segment_splits() {
        let opts = NewtonOptions::default();
        for seed in 0..8 {
            let world = RandomDesign::new(100 + seed);
            let n = world.ys.len();
            let identity: Vec<usize> = (0..n).collect();
            let mut store = Vec::new();
            let want = bits(
                &LogisticRegression::fit_onehot_newton(
                    &world.design(&mut store, &identity, n),
                    &opts,
                )
                .unwrap(),
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let mut shuffled = identity.clone();
            for i in (1..n).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            for (order, split) in [
                (&identity, 0),
                (&identity, 1),
                (&identity, n / 2),
                (&identity, n - 1),
                (&shuffled, n),
                (&shuffled, n / 3),
            ] {
                let design = world.design(&mut store, order, split);
                let got = bits(&LogisticRegression::fit_onehot_newton(&design, &opts).unwrap());
                assert_eq!(want, got, "seed {seed}, split at {split}");
            }
        }
    }

    #[test]
    fn merged_patterns_of_any_two_way_split_equal_grouping_the_concatenation() {
        let opts = NewtonOptions::default();
        for seed in 0..8 {
            let world = RandomDesign::new(200 + seed);
            let n = world.ys.len();
            let mut order: Vec<usize> = (0..n).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut store = Vec::new();
            let whole = world.design(&mut store, &order, n);
            let want = whole.patterns().unwrap();
            let cold = bits(&LogisticRegression::fit_onehot_newton(&whole, &opts).unwrap());
            for split in [0, 1, rng.gen_range(0..n), n / 2, n - 1, n] {
                let (mut head_store, mut tail_store) = (Vec::new(), Vec::new());
                let head = world.design(&mut head_store, &order[..split], split);
                let tail = world.design(&mut tail_store, &order[split..], 0);
                let merged = head
                    .patterns()
                    .unwrap()
                    .merge(&tail.patterns().unwrap())
                    .unwrap();
                assert_eq!(merged, want, "seed {seed}, split at {split}");
                // merging is symmetric: the tail's patterns first, too
                let swapped = tail
                    .patterns()
                    .unwrap()
                    .merge(&head.patterns().unwrap())
                    .unwrap();
                assert_eq!(swapped, want, "seed {seed}, split at {split}");
                let fit = LogisticRegression::fit_patterns(&head, &merged, &opts).unwrap();
                assert_eq!(bits(&fit), cold, "seed {seed}, split at {split}");
            }
        }
    }

    #[test]
    fn foreign_patterns_are_typed_errors() {
        let (cols, ys) = onehot_world(50);
        let design = world_design(&cols, &ys);
        let patterns = design.patterns().unwrap();
        // a design with one column fewer cannot take these patterns
        let mut narrow = design.clone();
        narrow.ordinals.clear();
        for seg in &mut narrow.segments {
            seg.columns.pop();
        }
        let opts = NewtonOptions::default();
        assert!(LogisticRegression::fit_patterns(&narrow, &patterns, &opts).is_err());
        assert!(narrow.patterns().unwrap().merge(&patterns).is_err());
        // nor a design whose cardinalities its keys exceed
        let mut small = design.clone();
        small.ordinals[0].cardinality = 2;
        assert!(LogisticRegression::fit_patterns(&small, &patterns, &opts).is_err());
        // an empty set of patterns has no rows to fit
        let mut empty = design.clone();
        empty.segments[0].labels = &ys[..0];
        for col in &mut empty.segments[0].columns {
            *col = &col[..0];
        }
        let no_rows = empty.patterns().unwrap();
        assert!(LogisticRegression::fit_patterns(&design, &no_rows, &opts).is_err());
    }

    #[test]
    fn grouping_never_packs_a_key_that_could_overflow() {
        // 70 binary blocks: the cardinality product 2^70 exceeds u64::MAX
        let (n_blocks, n) = (70usize, 400usize);
        let mut rng = StdRng::seed_from_u64(5);
        let cols: Vec<Vec<u32>> = (0..n_blocks)
            .map(|_| (0..n).map(|_| rng.gen_range(0..2u32)).collect())
            .collect();
        let ys: Vec<u32> = cols[0]
            .iter()
            .map(|&v| u32::from(rng.gen_range(0.0..1.0) < 0.3 + 0.4 * f64::from(v)))
            .collect();
        let design = OneHotDesign {
            width: 2 * n_blocks,
            blocks: (0..n_blocks)
                .map(|b| OneHotBlock {
                    offset: 2 * b,
                    cardinality: 2,
                })
                .collect(),
            ordinals: Vec::new(),
            segments: vec![DesignSegment {
                columns: cols.iter().map(Vec::as_slice).collect(),
                labels: &ys,
            }],
        };
        let m = LogisticRegression::fit_onehot_newton(&design, &NewtonOptions::default()).unwrap();
        assert!(m.intercept.is_finite());
        assert!(m.coefficients.iter().all(|c| c.is_finite()));
        // block 0 drives the label
        assert!(m.coefficients[1] > m.coefficients[0]);
    }

    #[test]
    fn newton_fit_matches_the_model_and_beats_gd_at_equal_budget() {
        let (cols, ys) = onehot_world(4_000);
        let design = world_design(&cols, &ys);
        let m = LogisticRegression::fit_onehot_newton(&design, &NewtonOptions::default()).unwrap();
        // the learned coefficients order the first block correctly
        // (gain rises with the code) and point the right way elsewhere
        assert!(m.coefficients[2] > m.coefficients[1]);
        assert!(m.coefficients[1] > m.coefficients[0]);
        assert!(m.coefficients[4] < m.coefficients[3]);
        assert!(m.coefficients[5] > 0.0);
        let acc = (0..design.n_rows())
            .filter(|&r| {
                let p = m.predict_proba_one(&design.dense_row(r));
                u32::from(p > 0.5) == ys[r]
            })
            .count() as f64
            / design.n_rows() as f64;
        assert!(acc > 0.7, "newton surrogate accuracy {acc}");
    }

    #[test]
    fn newton_sparse_equals_dense_gd_geometry_on_onehot_data() {
        // predictions from the sparse fit match a well-converged dense
        // GD fit closely on every row
        let (cols, ys) = onehot_world(2_000);
        let design = world_design(&cols, &ys);
        let xs: Vec<Vec<f64>> = (0..design.n_rows()).map(|r| design.dense_row(r)).collect();
        let newton =
            LogisticRegression::fit_onehot_newton(&design, &NewtonOptions::default()).unwrap();
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
        let codes = vec![0u32, 1, 2];
        let short = vec![0u32];
        let ys = [0u32, 1, 0];
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
            segments: vec![DesignSegment {
                columns: vec![&codes, &codes],
                labels: &ys,
            }],
        };
        assert!(ok.validate().is_ok());
        let mut wide = ok.clone();
        wide.blocks[0].cardinality = 5;
        assert!(wide.validate().is_err(), "block past width");
        let mut ragged = ok.clone();
        ragged.segments[0].columns[0] = &short;
        assert!(ragged.validate().is_err(), "short column");
        let mut missing = ok.clone();
        missing.segments[0].columns.pop();
        assert!(missing.validate().is_err(), "column count");
        let mut slot = ok.clone();
        slot.ordinals[0].slot = 9;
        assert!(slot.validate().is_err(), "ordinal slot past width");
        let opts = NewtonOptions::default();
        assert!(LogisticRegression::fit_onehot_newton(&ok, &opts).is_ok());
        let mut short_labels = ok.clone();
        short_labels.segments[0].labels = &ys[..2];
        assert!(
            LogisticRegression::fit_onehot_newton(&short_labels, &opts).is_err(),
            "label length mismatch"
        );
        let mut empty = ok.clone();
        empty.segments.clear();
        assert!(
            LogisticRegression::fit_onehot_newton(&empty, &opts).is_err(),
            "no rows"
        );
    }

    #[test]
    fn out_of_range_codes_values_and_labels_are_typed_errors() {
        fn design<'a>(columns: Vec<&'a [u32]>, labels: &'a [u32]) -> OneHotDesign<'a> {
            OneHotDesign {
                width: 4,
                blocks: vec![OneHotBlock {
                    offset: 0,
                    cardinality: 3,
                }],
                ordinals: vec![OrdinalFeature {
                    slot: 3,
                    cardinality: 3,
                }],
                segments: vec![DesignSegment { columns, labels }],
            }
        }
        let ok = [0u32, 1, 2];
        let ys = [0u32, 1, 0];
        let (bad_code, bad_value, bad_labels) = ([0u32, 3, 1], [0u32, 1, 3], [0u32, 2, 0]);
        let opts = NewtonOptions::default();
        let cases = [
            (
                "one-hot code at its cardinality",
                design(vec![&bad_code, &ok], &ys),
            ),
            (
                "ordinal value at its cardinality",
                design(vec![&ok, &bad_value], &ys),
            ),
            ("label above 1", design(vec![&ok, &ok], &bad_labels)),
        ];
        assert!(LogisticRegression::fit_onehot_newton(&design(vec![&ok, &ok], &ys), &opts).is_ok());
        for (what, d) in &cases {
            assert!(
                matches!(
                    LogisticRegression::fit_onehot_newton(d, &opts),
                    Err(MlError::InvalidTrainingData(_))
                ),
                "{what}"
            );
        }
    }
}
