//! Explanation-score estimation (Definition 3.1, Propositions 4.1–4.2).
//!
//! Given a dataset labelled with the black box's predictions, a causal
//! diagram, and a value contrast `x > x'` for attribute `X` in context
//! `k`, this module estimates
//!
//! * `NEC_x(k)  = Pr(o'_{X←x'} | x, o, k)` — necessity,
//! * `SUF_x(k)  = Pr(o_{X←x}  | x', o', k)` — sufficiency,
//! * `NESUF_x(k) = Pr(o_{X←x}, o'_{X←x'} | k)` — necessity & sufficiency,
//!
//! via the monotone identification formulas (paper eqs. 19–21)
//!
//! ```text
//! NEC   = [ Σ_c Pr(o'|c,x',k) Pr(c|x,k)  −  Pr(o'|x,k) ] / Pr(o|x,k)
//! SUF   = [ Σ_c Pr(o |c,x,k)  Pr(c|x',k) −  Pr(o |x',k)] / Pr(o'|x',k)
//! NESUF =   Σ_c [Pr(o|x,c,k) − Pr(o|x',c,k)] Pr(c|k)
//! ```
//!
//! where `C` is a backdoor adjustment set (defaulting to `parents(X) \ K`,
//! always valid under causal sufficiency) — and the Fréchet bounds of
//! Proposition 4.1 when monotonicity is not assumed. With no causal graph
//! the estimator degrades to the no-confounding fallback of §6
//! (group-level attributable fraction / relative risk).

use crate::cache::CountingCache;
use crate::{LewisError, Result};
use causal::Dag;
use lewis_index::TableIndex;
use std::ops::Range;
use std::sync::Arc;
use tabular::{AttrId, Context, Counter, ShardedTable, Table, Value};

/// One run of rows an estimator counts over, with its bitmap index when
/// the estimator keeps one: the base table, and on a live table the rows
/// appended after it. Every count runs one routine over each part, base
/// first, and adds their integers, so it equals a count over the
/// concatenated table exactly.
#[derive(Clone)]
pub(crate) struct Part {
    /// The rows, dictionary-coded against the base schema.
    pub(crate) table: Arc<Table>,
    /// Per-(attribute, code) bitmaps over exactly these rows.
    pub(crate) index: Option<Arc<TableIndex>>,
}

impl Part {
    /// `min(|rows matching ctx|, cap)`: the index's capped count, else a
    /// scan. Both count the same integer.
    fn count_at_most(&self, ctx: &Context, cap: u64) -> u64 {
        match self.index.as_ref().and_then(|i| i.count_at_most(ctx, cap)) {
            Some(n) => n,
            None => (self.table.count(ctx) as u64).min(cap),
        }
    }

    /// A counting pass over these rows: the index's cube or walk, else a
    /// scan (over `sharded` when given). Every path counts the same
    /// integers.
    fn counting_pass(
        &self,
        sharded: Option<&ShardedTable>,
        attrs: &[AttrId],
        k: &Context,
    ) -> Result<Counter> {
        // The bitmap index gets first refusal: when its cube or its cost
        // model serves the pass it returns the bit-identical counter
        // without touching the rows; otherwise it returns `None` and the
        // pass falls through to the scan below.
        if let Some(index) = &self.index {
            if let Some(counter) = index.counting_pass(&self.table, attrs, k)? {
                return Ok(counter);
            }
        }
        let counter = match sharded {
            Some(sharded) => Counter::build_sharded(sharded, attrs, k)?,
            None => Counter::build(&self.table, attrs, k)?,
        };
        Ok(counter)
    }

    /// A counting pass over the rows `rows` of this part: a range walk
    /// of the index, else a range scan. Also returns how many rows it
    /// scanned one by one.
    fn counting_pass_range(
        &self,
        rows: Range<usize>,
        attrs: &[AttrId],
        k: &Context,
    ) -> Result<(Counter, usize)> {
        if let Some(index) = &self.index {
            if let Some(counter) = index.counting_pass_range(&self.table, rows.clone(), attrs, k)? {
                return Ok((counter, 0));
            }
        }
        let scanned = rows.len();
        Ok((Counter::build_range(&self.table, attrs, k, rows)?, scanned))
    }
}

/// Which of the three explanation scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoreKind {
    /// `NEC` — attribution of the positive decision to the value.
    Necessity,
    /// `SUF` — tendency of the value to produce the positive decision.
    Sufficiency,
    /// `NESUF` — overall explanatory power.
    NecessityAndSufficiency,
}

/// The three scores for one contrast.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Scores {
    /// Necessity score in `[0, 1]`.
    pub necessity: f64,
    /// Sufficiency score in `[0, 1]`.
    pub sufficiency: f64,
    /// Necessity-and-sufficiency score in `[0, 1]`.
    pub nesuf: f64,
}

impl Scores {
    /// Retrieve one component by kind.
    pub fn get(&self, kind: ScoreKind) -> f64 {
        match kind {
            ScoreKind::Necessity => self.necessity,
            ScoreKind::Sufficiency => self.sufficiency,
            ScoreKind::NecessityAndSufficiency => self.nesuf,
        }
    }
}

/// A `[lower, upper]` interval from Proposition 4.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreBounds {
    /// Fréchet lower bound.
    pub lower: f64,
    /// Fréchet upper bound.
    pub upper: f64,
}

/// One `X ← hi` vs `X ← lo` value contrast — the unit of batched
/// scoring. `hi` and `lo` must cover the same attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contrast {
    /// Attribute assignments of the factual arm.
    pub hi: Vec<(AttrId, Value)>,
    /// Attribute assignments of the counterfactual arm.
    pub lo: Vec<(AttrId, Value)>,
}

impl Contrast {
    /// A single-attribute contrast `attr: hi > lo`.
    pub fn single(attr: AttrId, hi: Value, lo: Value) -> Self {
        Contrast {
            hi: vec![(attr, hi)],
            lo: vec![(attr, lo)],
        }
    }

    /// A set contrast over several attributes.
    pub fn set(hi: &[(AttrId, Value)], lo: &[(AttrId, Value)]) -> Self {
        Contrast {
            hi: hi.to_vec(),
            lo: lo.to_vec(),
        }
    }
}

/// Per-adjustment-cell counts for every observed assignment of the
/// intervened attributes (the "arms"). One of these is built per
/// counting pass and then shared by every contrast over the same
/// attribute set — the core of [`ScoreEstimator::scores_batch`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct CellArms {
    /// Rows in this adjustment cell (all arms).
    pub(crate) n: u64,
    /// Per `x`-assignment: `(rows, rows with positive outcome)`,
    /// sorted by assignment.
    pub(crate) arms: Vec<(Vec<Value>, (u64, u64))>,
}

/// All adjustment cells from one counting pass over `(C…, X…, pred)`.
/// Immutable once built, so one instance can be shared across threads
/// and across queries (the unit the [`crate::Engine`] cache stores).
///
/// Cells and arms are **sorted vectors**, not hash maps: iteration order
/// (and therefore the floating-point summation order in
/// [`ScoreEstimator::scores_from_arms`]) depends only on the counted
/// data, never on a hasher or insertion history. That determinism is
/// what makes a snapshot-restored pass answer bit-for-bit like its
/// donor (`engine::snapshot` / `engine::restore`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ArmTable {
    /// `(adjustment-cell key, its arms)`, sorted by key.
    pub(crate) cells: Vec<(Vec<Value>, CellArms)>,
    /// Rows matching the build context (all cells, all arms).
    pub(crate) total: u64,
}

impl ArmTable {
    /// This pass plus `more`, a pass under the same key over other
    /// rows: cells and arms are unioned by key and their counts added.
    /// Both sides are sorted, so this is a sorted merge, and the result
    /// is the very table one pass over both sets of rows would build.
    pub(crate) fn merged(&self, more: &ArmTable) -> ArmTable {
        ArmTable {
            cells: merge_sorted(&self.cells, &more.cells, |a, b| CellArms {
                n: a.n + b.n,
                arms: merge_sorted(&a.arms, &b.arms, |x, y| (x.0 + y.0, x.1 + y.1)),
            }),
            total: self.total + more.total,
        }
    }
}

/// Merge two key-sorted vectors, combining the values of equal keys
/// with `add`.
fn merge_sorted<K: Ord + Clone, V: Clone>(
    a: &[(K, V)],
    b: &[(K, V)],
    add: impl Fn(&V, &V) -> V,
) -> Vec<(K, V)> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0.clone(), add(&a[i].1, &b[j].1)));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Estimates explanation scores from a labelled table.
///
/// The table must contain the black box's predictions as a **binary**
/// column `pred` (multi-class outcomes are first reduced with
/// [`crate::multiclass::binarize_outcome`]).
///
/// Every estimator is built and owned by an [`crate::Engine`];
/// [`crate::Engine::estimator`] lends it out as the engine's uncached,
/// read-only scoring view. It owns its inputs behind [`Arc`]s, so it is
/// `Send + Sync` and has no borrowed lifetime.
///
/// On a live table the estimator counts over two parts, each a table
/// with its bitmap index: the frozen base, and the rows appended after
/// it. A full pass takes each part's cube, else its walk, else its scan;
/// a top-up takes each part's range walk, else its range scan; a support
/// probe caps each part's count at what is still missing. The parts'
/// integers are added base first, so every count equals one over the
/// concatenated table.
#[derive(Clone)]
pub struct ScoreEstimator {
    /// The base table and, when enabled, its per-(attribute, code)
    /// bitmap index. Counting passes and support probes route through
    /// the index whenever its cube or cost model serves them; every path
    /// is bit-identical, so the routing never changes a result.
    base: Part,
    graph: Option<Arc<Dag>>,
    pred: AttrId,
    positive: Value,
    alpha: f64,
    /// Row shards every counting pass fans over (1 = single pass).
    shards: usize,
    /// The precomputed shard layout when `shards > 1` — boundaries are
    /// a pure function of `(n_rows, shards)`, both fixed for the
    /// estimator's lifetime, so they are computed once here instead of
    /// per counting pass (the hottest path in the system).
    sharded: Option<ShardedTable>,
    /// Rows appended after the base table (live tables), indexed with
    /// one shard when the base is indexed. `None` for the ordinary
    /// cold-built estimator.
    delta: Option<Part>,
}

impl ScoreEstimator {
    /// Create an estimator from already-shared inputs without copying
    /// the table. `graph` is the causal diagram over the table's
    /// attributes (`None` for the no-confounding fallback of §6);
    /// `positive` is the favourable outcome code `o`; `alpha` is the
    /// Laplace pseudo-count used for the inner conditionals.
    pub(crate) fn from_shared(
        table: Arc<Table>,
        graph: Option<Arc<Dag>>,
        pred: AttrId,
        positive: Value,
        alpha: f64,
    ) -> Result<Self> {
        let card = table.schema().cardinality(pred)?;
        if card != 2 {
            return Err(LewisError::Invalid(format!(
                "prediction column must be binary, has cardinality {card}; \
                 reduce multi-class outcomes with multiclass::binarize_outcome"
            )));
        }
        if positive >= 2 {
            return Err(LewisError::Invalid(
                "positive outcome code must be 0 or 1".into(),
            ));
        }
        if let Some(g) = graph.as_deref() {
            // The graph covers the first `n_nodes` attributes; tables may
            // carry extra *derived* columns after them (binarized
            // outcomes, prediction columns). A graph larger than the
            // schema is a wiring error.
            if g.n_nodes() > table.schema().len() {
                return Err(LewisError::Invalid(format!(
                    "graph has {} nodes but table has only {} attributes",
                    g.n_nodes(),
                    table.schema().len()
                )));
            }
        }
        // is_finite first: NaN fails every comparison, and estimators
        // can now be built from deserialized (untrusted) pack configs
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(LewisError::Invalid(
                "smoothing must be finite and >= 0".into(),
            ));
        }
        Ok(ScoreEstimator {
            base: Part { table, index: None },
            graph,
            pred,
            positive,
            alpha,
            shards: 1,
            sharded: None,
            delta: None,
        })
    }

    /// Fan every counting pass over `shards` fixed-boundary row shards
    /// (clamped into `[1, tabular::MAX_SHARDS]`). Shard results are
    /// merged in shard-index order, and the merged counts are *exactly*
    /// those of a single contiguous pass — scores are bit-identical for
    /// any shard count (see [`tabular::Counter::build_sharded`]); the
    /// fan-out only buys wall-clock on multi-core machines.
    #[must_use]
    pub(crate) fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.clamp(1, tabular::MAX_SHARDS);
        self.sharded = (self.shards > 1)
            .then(|| ShardedTable::from_shared(Arc::clone(&self.base.table), self.shards));
        self
    }

    /// Row shards every counting pass fans over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Build (or drop) the per-(attribute, code) bitmap index. The
    /// index is sharded along the same boundaries as the counting
    /// passes, so call this **after** [`ScoreEstimator::with_shards`].
    /// Indexed counting passes and support probes are bit-identical to
    /// their scan equivalents (property-tested in
    /// `tests/index_parity.rs`); the index only changes wall-clock.
    pub(crate) fn with_index(mut self, enabled: bool) -> Result<Self> {
        self.base.index = if enabled {
            Some(Arc::new(
                TableIndex::build(&self.base.table, self.shards).map_err(LewisError::from)?,
            ))
        } else {
            None
        };
        Ok(self)
    }

    /// Install an already-built index (the snapshot-restore path).
    /// Callers must have validated `index.matches(table)` first.
    pub(crate) fn install_index(&mut self, index: Arc<TableIndex>) {
        self.base.index = Some(index);
    }

    /// The base table's bitmap index, when one is enabled.
    pub fn index(&self) -> Option<&Arc<TableIndex>> {
        self.base.index.as_ref()
    }

    /// This estimator with `batch` appended after every row it serves:
    /// its appended rows grow by the batch, each row checked for arity
    /// and domain (an error leaves nothing appended). When the base is
    /// indexed, the appended rows' index is the previous one
    /// [extended](TableIndex::extended) over them, so only the batch is
    /// coded. The base part is shared untouched.
    pub(crate) fn with_appended(&self, batch: &[Vec<Value>]) -> Result<ScoreEstimator> {
        let mut grown = match &self.delta {
            Some(delta) => (*delta.table).clone(),
            None => Table::new(self.base.table.schema().clone()),
        };
        for row in batch {
            grown.push_row(row)?;
        }
        let previous = self.delta.as_ref().and_then(|d| d.index.as_deref());
        self.with_delta_part(Arc::new(grown), previous)
    }

    /// This estimator's base with `delta` as its appended rows, in place
    /// of any it has — how a restored live table or a fold's remainder
    /// resumes. `delta` must be coded against the base schema.
    pub(crate) fn with_delta_table(&self, delta: Arc<Table>) -> Result<ScoreEstimator> {
        if delta.schema() != self.base.table.schema() {
            return Err(LewisError::Invalid(
                "delta shard schema differs from the base table's".into(),
            ));
        }
        self.with_delta_part(delta, None)
    }

    /// This estimator with `delta` as its appended rows, indexed when
    /// the base is: `previous`, an index over the first rows of `delta`,
    /// extended over the rest, or else a build.
    fn with_delta_part(
        &self,
        delta: Arc<Table>,
        previous: Option<&TableIndex>,
    ) -> Result<ScoreEstimator> {
        let index = match &self.base.index {
            None => None,
            Some(_) => {
                let index = match previous.and_then(|index| index.extended(&delta)) {
                    Some(index) => index,
                    None => TableIndex::build(&delta, 1)?,
                };
                Some(Arc::new(index))
            }
        };
        let mut est = self.clone();
        est.delta = Some(Part {
            table: delta,
            index,
        });
        Ok(est)
    }

    /// The rows this estimator counts over, in logical order: the base,
    /// then the appended rows on a live table.
    pub(crate) fn parts(&self) -> impl Iterator<Item = &Part> {
        std::iter::once(&self.base).chain(&self.delta)
    }

    /// The appended rows, when this estimator serves a live table.
    pub(crate) fn delta_table(&self) -> Option<&Arc<Table>> {
        self.delta.as_ref().map(|d| &d.table)
    }

    /// Rows appended on top of the base table (0 for frozen estimators).
    pub fn delta_rows(&self) -> usize {
        self.delta.as_ref().map_or(0, |d| d.table.n_rows())
    }

    /// Base rows plus delta rows — the logical size of the served table.
    pub fn n_total_rows(&self) -> usize {
        self.base.table.n_rows() + self.delta_rows()
    }

    /// Whether at least `min` rows match `ctx` — the support probe
    /// under every local-context back-off step. Each part's rows are
    /// counted up to what is still missing (bitmap index when one is
    /// present, a table scan otherwise), so a probe stops reading words
    /// once the answer is known. All paths decide on the integer one
    /// scan of the concatenated table counts.
    pub(crate) fn has_support(&self, ctx: &Context, min: usize) -> bool {
        let min = min as u64;
        let mut found = 0;
        for part in self.parts() {
            found += part.count_at_most(ctx, min - found);
            if found >= min {
                return true;
            }
        }
        false
    }

    /// One counting pass over `attrs` within `k` — the single chokepoint
    /// every diagnostic and score in this crate counts through. Each
    /// part is counted by its cube, walk or scan (the base's scan fans
    /// over the estimator's shards) and the counts are added base first,
    /// so the result equals a cold pass over the concatenated table
    /// exactly.
    pub(crate) fn counting_pass(&self, attrs: &[AttrId], k: &Context) -> Result<Counter> {
        let mut counter = self.base.counting_pass(self.sharded.as_ref(), attrs, k)?;
        if let Some(delta) = &self.delta {
            // Same attrs over the same domains: grid, strides and
            // storage kind match the base counter by construction, so
            // the merge cannot fail on shape.
            counter.merge_from(&delta.counting_pass(None, attrs, k)?)?;
        }
        Ok(counter)
    }

    /// [`ScoreEstimator::counting_pass`] over the logical rows `from..`
    /// only (base rows, then delta rows) — the pass that tops up a
    /// cached aggregate counted over the first `from` rows. Returns the
    /// counter and how many rows it scanned one by one.
    ///
    /// Each part's share of the range is walked by popcount when the
    /// part is indexed over a single shard and the index's cost gate
    /// admits the request ([`TableIndex::counting_pass_range`]), and
    /// scanned otherwise. Both give the same integers.
    pub(crate) fn counting_pass_since(
        &self,
        attrs: &[AttrId],
        k: &Context,
        from: usize,
    ) -> Result<(Counter, usize)> {
        let base = self.base.table.n_rows();
        let Some(delta) = &self.delta else {
            return self
                .base
                .counting_pass_range(from.min(base)..base, attrs, k);
        };
        let n = delta.table.n_rows();
        let (more, more_scanned) =
            delta.counting_pass_range(from.saturating_sub(base).min(n)..n, attrs, k)?;
        if from >= base {
            return Ok((more, more_scanned)); // every new row is the delta's
        }
        let (mut counter, scanned) = self.base.counting_pass_range(from..base, attrs, k)?;
        counter.merge_from(&more)?;
        Ok((counter, scanned + more_scanned))
    }

    /// Infer the value order of `attr` (ascending positive rate, see
    /// [`crate::ordering::infer_value_order`]) through the counting
    /// chokepoint: one grouped pass over `(attr, pred)` supplies every
    /// per-value count, so the order is index-accelerated when an index
    /// is installed and **delta-aware** when a shard is overlaid —
    /// bit-identical to the table-scan inference over the (concatenated)
    /// table in both cases, because the pass emits the same integers.
    pub(crate) fn infer_order(&self, attr: AttrId) -> Result<Vec<Value>> {
        let stats = self.order_stats_since(attr, 0)?;
        Ok(crate::ordering::infer_value_order_from_stats(&stats))
    }

    /// Per-value `(rows, positives)` of `attr` over the logical rows
    /// `from..` — the integers value orders rank by. A live engine keeps
    /// running totals and adds just the appended rows' stats per batch:
    /// integer addition, identical to re-counting every row.
    pub(crate) fn order_stats_since(&self, attr: AttrId, from: usize) -> Result<Vec<(u64, u64)>> {
        let card = self
            .base
            .table
            .schema()
            .cardinality(attr)
            .map_err(LewisError::from)?;
        let attrs = [attr, self.pred];
        let counter = match from {
            0 => self.counting_pass(&attrs, &Context::empty())?,
            _ => self.counting_pass_since(&attrs, &Context::empty(), from)?.0,
        };
        Ok((0..card as Value)
            .map(|v| {
                (
                    counter.marginal_count(&[Some(v), None]),
                    counter.count(&[v, self.positive]),
                )
            })
            .collect())
    }

    /// The labelled table.
    pub fn table(&self) -> &Table {
        &self.base.table
    }

    /// A shared handle to the labelled table (no data copy).
    pub fn shared_table(&self) -> Arc<Table> {
        Arc::clone(&self.base.table)
    }

    /// A shared handle to the causal diagram, if one was supplied.
    pub fn shared_graph(&self) -> Option<Arc<Dag>> {
        self.graph.clone()
    }

    /// The prediction column.
    pub fn pred_attr(&self) -> AttrId {
        self.pred
    }

    /// The positive outcome code.
    pub fn positive(&self) -> Value {
        self.positive
    }

    /// The causal diagram, if one was supplied.
    pub fn graph(&self) -> Option<&Dag> {
        self.graph.as_deref()
    }

    /// The Laplace pseudo-count used for the inner conditionals.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Default backdoor adjustment set for an intervention on `xs`:
    /// the union of parents not already fixed by `k` (and not the
    /// prediction column). Empty without a graph (§6 fallback), and
    /// empty for derived attributes outside the graph.
    pub fn adjustment_set(&self, xs: &[AttrId], k: &Context) -> Vec<AttrId> {
        let Some(g) = self.graph.as_deref() else {
            return Vec::new();
        };
        let mut c: Vec<AttrId> = xs
            .iter()
            .filter(|x| x.index() < g.n_nodes())
            .flat_map(|x| g.parents(x.index()).iter().copied())
            .map(|p| AttrId(p as u32))
            .filter(|p| !xs.contains(p) && !k.constrains(*p) && *p != self.pred)
            .collect();
        c.sort_unstable();
        c.dedup();
        c
    }

    /// All three scores for the single-attribute contrast `x_hi > x_lo`
    /// in context `k`.
    pub fn scores(&self, attr: AttrId, x_hi: Value, x_lo: Value, k: &Context) -> Result<Scores> {
        self.scores_set(&[(attr, x_hi)], &[(attr, x_lo)], k)
    }

    /// Necessity score for a single-attribute contrast.
    pub fn necessity(&self, attr: AttrId, x_hi: Value, x_lo: Value, k: &Context) -> Result<f64> {
        Ok(self.scores(attr, x_hi, x_lo, k)?.necessity)
    }

    /// Sufficiency score for a single-attribute contrast.
    pub fn sufficiency(&self, attr: AttrId, x_hi: Value, x_lo: Value, k: &Context) -> Result<f64> {
        Ok(self.scores(attr, x_hi, x_lo, k)?.sufficiency)
    }

    /// All three scores for a *set* contrast `X ← hi` vs `X ← lo`
    /// (actions that touch several attributes at once): the one-contrast
    /// case of [`ScoreEstimator::scores_batch`]. `hi` and `lo` must cover
    /// the same attributes.
    pub fn scores_set(
        &self,
        hi: &[(AttrId, Value)],
        lo: &[(AttrId, Value)],
        k: &Context,
    ) -> Result<Scores> {
        self.scores_batch(&[Contrast::set(hi, lo)], k)
            .pop()
            .expect("one result per contrast")
    }

    /// All three scores for a *batch* of contrasts sharing one context.
    ///
    /// Contrasts over the same attribute set (e.g. every ordered value
    /// pair of one attribute) share a **single** counting pass over the
    /// table instead of re-scanning once per contrast. Results are
    /// positionally aligned with `contrasts` and each entry is exactly
    /// what scoring that contrast alone returns — bit-for-bit, including
    /// per-contrast errors for unsupported contrasts.
    pub fn scores_batch(&self, contrasts: &[Contrast], k: &Context) -> Vec<Result<Scores>> {
        self.scores_batch_impl(contrasts, k, None)
    }

    /// [`ScoreEstimator::scores_batch`] with an optional counting-pass
    /// cache: when `cache` is given, each attribute-set group first looks
    /// up its [`ArmTable`] under the `(intervened set, context,
    /// adjustment set)` key and only scans the table on a miss. Cached
    /// and uncached results are bit-identical — the [`ArmTable`] is built
    /// by the same deterministic pass either way, and scoring reads it
    /// in the same order.
    pub(crate) fn scores_batch_impl(
        &self,
        contrasts: &[Contrast],
        k: &Context,
        cache: Option<&CountingCache>,
    ) -> Vec<Result<Scores>> {
        let mut out: Vec<Option<Result<Scores>>> = contrasts.iter().map(|_| None).collect();
        // Group contrasts by intervened attribute set, preserving first-
        // seen order; each group shares one adjustment set and one
        // counting pass.
        let mut group_of: tabular::FxHashMap<Vec<AttrId>, usize> = tabular::FxHashMap::default();
        type Member = (usize, Vec<Value>, Vec<Value>);
        let mut groups: Vec<(Vec<AttrId>, Vec<Member>)> = Vec::new();
        for (i, contrast) in contrasts.iter().enumerate() {
            match self.validate_for_scoring(&contrast.hi, &contrast.lo, k) {
                Err(e) => out[i] = Some(Err(e)),
                Ok((xs, hi_vals, lo_vals)) => {
                    let gi = *group_of.entry(xs.clone()).or_insert_with(|| {
                        groups.push((xs, Vec::new()));
                        groups.len() - 1
                    });
                    groups[gi].1.push((i, hi_vals, lo_vals));
                }
            }
        }
        let scored: Vec<Vec<(usize, Result<Scores>)>> = groups
            .iter()
            .map(|(xs, members)| {
                let c_set = self.adjustment_set(xs, k);
                let arms: Result<Arc<ArmTable>> = match cache {
                    Some(cache) => {
                        cache.get_or_count(xs, k, &c_set, self.n_total_rows(), |resident| {
                            match resident {
                                None => self.build_arm_table(&c_set, xs, k),
                                Some((arms, from)) => {
                                    let (arms, scanned) =
                                        self.top_up_arm_table(arms, from, &c_set, xs, k)?;
                                    cache.scanned(scanned);
                                    Ok(arms)
                                }
                            }
                        })
                    }
                    None => self.build_arm_table(&c_set, xs, k).map(Arc::new),
                };
                match arms {
                    Ok(arms) => members
                        .iter()
                        .map(|(i, hi_vals, lo_vals)| {
                            (*i, self.scores_from_arms(&arms, hi_vals, lo_vals))
                        })
                        .collect(),
                    // The shared pass itself failed (e.g. empty context):
                    // every member carries that error.
                    Err(e) => members
                        .iter()
                        .map(|(i, _, _)| (*i, Err(e.clone())))
                        .collect(),
                }
            })
            .collect();
        for (i, result) in scored.into_iter().flatten() {
            out[i] = Some(result);
        }
        out.into_iter()
            .map(|slot| slot.expect("every contrast scored"))
            .collect()
    }

    /// Shared validation for single and batched scoring.
    fn validate_for_scoring(
        &self,
        hi: &[(AttrId, Value)],
        lo: &[(AttrId, Value)],
        k: &Context,
    ) -> Result<(Vec<AttrId>, Vec<Value>, Vec<Value>)> {
        let (xs, hi_vals, lo_vals) = validate_contrast(hi, lo)?;
        for &x in &xs {
            if x == self.pred {
                return Err(LewisError::Invalid(
                    "cannot intervene on the prediction column".into(),
                ));
            }
            if k.constrains(x) {
                return Err(LewisError::Invalid(format!(
                    "context constrains intervened attribute {x}"
                )));
            }
        }
        Ok((xs, hi_vals, lo_vals))
    }

    /// One counting pass over `(C…, X…, pred)` within `k`, aggregated
    /// per adjustment cell and per `x`-arm.
    pub(crate) fn build_arm_table(
        &self,
        c_set: &[AttrId],
        xs: &[AttrId],
        k: &Context,
    ) -> Result<ArmTable> {
        let counter = self.counting_pass(&self.pass_attrs(c_set, xs), k)?;
        if counter.total() == 0 {
            return Err(LewisError::Unsupported(
                "no rows match the context; relax the context or add data".into(),
            ));
        }
        Ok(self.arms_from_counter(&counter, c_set.len(), xs.len()))
    }

    /// `arms`, a pass over the first `from` logical rows, topped up with
    /// the rows after them: one pass over just those rows, merged in.
    /// The result equals [`ScoreEstimator::build_arm_table`] over every
    /// row exactly. A top-up that matches no new row returns `arms`
    /// unchanged rather than an error. Also returns how many rows the
    /// top-up scanned one by one (see
    /// [`ScoreEstimator::counting_pass_since`]).
    pub(crate) fn top_up_arm_table(
        &self,
        arms: &ArmTable,
        from: usize,
        c_set: &[AttrId],
        xs: &[AttrId],
        k: &Context,
    ) -> Result<(ArmTable, usize)> {
        let (counter, scanned) = self.counting_pass_since(&self.pass_attrs(c_set, xs), k, from)?;
        let more = self.arms_from_counter(&counter, c_set.len(), xs.len());
        Ok((arms.merged(&more), scanned))
    }

    /// The attributes an arm-table pass groups by: `(C…, X…, pred)`.
    fn pass_attrs(&self, c_set: &[AttrId], xs: &[AttrId]) -> Vec<AttrId> {
        let mut attrs: Vec<AttrId> = c_set.to_vec();
        attrs.extend(xs);
        attrs.push(self.pred);
        attrs
    }

    /// Aggregate a `(C…, X…, pred)` counter per adjustment cell and per
    /// `x`-arm, frozen into sorted vectors.
    fn arms_from_counter(&self, counter: &Counter, nc: usize, nx: usize) -> ArmTable {
        let o = self.positive;
        #[derive(Default)]
        struct CellAcc {
            n: u64,
            arms: tabular::FxHashMap<Vec<Value>, (u64, u64)>,
        }
        let mut acc: tabular::FxHashMap<Vec<Value>, CellAcc> = tabular::FxHashMap::default();
        counter.for_each_nonzero(|values, n| {
            let cell = acc.entry(values[..nc].to_vec()).or_default();
            cell.n += n;
            let x_vals = &values[nc..nc + nx];
            let arm = cell.arms.entry(x_vals.to_vec()).or_insert((0, 0));
            arm.0 += n;
            if values[nc + nx] == o {
                arm.1 += n;
            }
        });
        // Freeze the accumulators into sorted vectors: the hash maps
        // above are only a build-time convenience, the shared (and
        // snapshottable) pass must be hasher-independent.
        let mut cells: Vec<(Vec<Value>, CellArms)> = acc
            // lint:allow(ordered-iteration): the drained cells are sorted
            // by key at the end of this expression (`cells.sort_unstable_by`
            // below), which erases the hash visit order.
            .into_iter()
            .map(|(key, cell)| {
                // lint:allow(ordered-iteration): sorted on the next line.
                let mut arms: Vec<(Vec<Value>, (u64, u64))> = cell.arms.into_iter().collect();
                arms.sort_unstable();
                (key, CellArms { n: cell.n, arms })
            })
            .collect();
        cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        ArmTable {
            cells,
            total: counter.total(),
        }
    }

    /// The eq. 19–21 estimates for one `hi` vs `lo` contrast, read off a
    /// prebuilt [`ArmTable`].
    pub(crate) fn scores_from_arms(
        &self,
        arms: &ArmTable,
        hi_vals: &[Value],
        lo_vals: &[Value],
    ) -> Result<Scores> {
        let arm_of = |cell: &CellArms, vals: &[Value]| -> (u64, u64) {
            cell.arms
                .binary_search_by(|(a, _)| a.as_slice().cmp(vals))
                .map(|i| cell.arms[i].1)
                .unwrap_or((0, 0))
        };
        let mut n_hi = 0u64;
        let mut n_hi_o = 0u64;
        let mut n_lo = 0u64;
        let mut n_lo_o = 0u64;
        for (_, cell) in &arms.cells {
            let (h, ho) = arm_of(cell, hi_vals);
            let (l, lo_o) = arm_of(cell, lo_vals);
            n_hi += h;
            n_hi_o += ho;
            n_lo += l;
            n_lo_o += lo_o;
        }
        if n_hi == 0 || n_lo == 0 {
            return Err(LewisError::Unsupported(format!(
                "contrast unsupported in context: n(hi)={n_hi}, n(lo)={n_lo}"
            )));
        }
        let a = self.alpha;
        // marginals within k
        let pr_o_hi = (n_hi_o as f64 + a) / (n_hi as f64 + 2.0 * a);
        let pr_o_lo = (n_lo_o as f64 + a) / (n_lo as f64 + 2.0 * a);
        let pr_oneg_hi = 1.0 - pr_o_hi;
        let pr_oneg_lo = 1.0 - pr_o_lo;

        // Adjusted sums, renormalized over *supported* adjustment cells:
        // with α = 0 a cell whose contrast arm is unobserved contributes
        // no estimate (deterministic strata are common in SCM data), so
        // each sum divides by the weight it actually covered and falls
        // back to the marginal contrast when no cell overlaps.
        let cond = |n_o: u64, n: u64| -> Option<f64> {
            if n == 0 && a == 0.0 {
                None
            } else {
                Some((n_o as f64 + a) / (n as f64 + 2.0 * a))
            }
        };
        let mut sum_nec = 0.0f64; // Σ_c Pr(o'|c,lo,k) Pr(c|hi,k)
        let mut w_nec = 0.0f64;
        let mut sum_suf = 0.0f64; // Σ_c Pr(o |c,hi,k) Pr(c|lo,k)
        let mut w_suf = 0.0f64;
        let mut sum_ate = 0.0f64; // Σ_c [Pr(o|hi,c,k) − Pr(o|lo,c,k)] Pr(c|k)
        let mut w_ate = 0.0f64;
        for (_, cell) in &arms.cells {
            let (cell_n_hi, cell_n_hi_o) = arm_of(cell, hi_vals);
            let (cell_n_lo, cell_n_lo_o) = arm_of(cell, lo_vals);
            let p_hi_c = cond(cell_n_hi_o, cell_n_hi);
            let p_lo_c = cond(cell_n_lo_o, cell_n_lo);
            if let Some(p_lo_c) = p_lo_c {
                let w = cell_n_hi as f64 / n_hi as f64;
                sum_nec += (1.0 - p_lo_c) * w;
                w_nec += w;
            }
            if let Some(p_hi_c) = p_hi_c {
                let w = cell_n_lo as f64 / n_lo as f64;
                sum_suf += p_hi_c * w;
                w_suf += w;
            }
            if let (Some(p_hi_c), Some(p_lo_c)) = (p_hi_c, p_lo_c) {
                let w = cell.n as f64 / arms.total as f64;
                sum_ate += (p_hi_c - p_lo_c) * w;
                w_ate += w;
            }
        }
        let adj_nec = if w_nec > 0.0 {
            sum_nec / w_nec
        } else {
            pr_oneg_lo
        };
        let adj_suf = if w_suf > 0.0 {
            sum_suf / w_suf
        } else {
            pr_o_hi
        };
        let adj_ate = if w_ate > 0.0 {
            sum_ate / w_ate
        } else {
            pr_o_hi - pr_o_lo
        };

        let necessity = if pr_o_hi <= 0.0 {
            0.0
        } else {
            ((adj_nec - pr_oneg_hi) / pr_o_hi).clamp(0.0, 1.0)
        };
        let sufficiency = if pr_oneg_lo <= 0.0 {
            0.0
        } else {
            ((adj_suf - pr_o_lo) / pr_oneg_lo).clamp(0.0, 1.0)
        };
        let nesuf = adj_ate.clamp(0.0, 1.0);
        Ok(Scores {
            necessity,
            sufficiency,
            nesuf,
        })
    }

    /// Fréchet bounds (Proposition 4.1, eqs. 9–11) for one score — valid
    /// *without* the monotonicity assumption. Interventional terms
    /// `Pr(o | do(x), k)` are estimated by backdoor adjustment over the
    /// default adjustment set.
    ///
    /// Bounds are a diagnostic outside the engine's query surface
    /// (`Engine::run` never reaches here): the adjusted terms read the
    /// **base** table directly, so on a live estimator they describe the
    /// frozen base, not base + delta. Compaction folds the delta in.
    pub fn bounds(
        &self,
        kind: ScoreKind,
        attr: AttrId,
        x_hi: Value,
        x_lo: Value,
        k: &Context,
    ) -> Result<ScoreBounds> {
        let o = self.positive;
        let o_neg = 1 - o;
        let c_set = self.adjustment_set(&[attr], k);

        let do_p = |x_val: Value, out: Value| -> Result<f64> {
            causal::adjustment::estimate_adjusted(
                &self.base.table,
                attr,
                x_val,
                self.pred,
                out,
                k,
                &c_set,
                self.alpha,
            )
            .map_err(LewisError::from)
        };
        // joint probabilities within k — over the base table only, the
        // same rows the adjusted terms above read, so the bound stays
        // internally consistent on a live estimator
        let base_support = |ctx: &Context| -> usize {
            if let Some(index) = &self.base.index {
                if let Some(n) = index.count(ctx) {
                    return n as usize;
                }
            }
            self.base.table.count(ctx)
        };
        let n_k = base_support(k) as f64;
        if n_k == 0.0 {
            return Err(LewisError::Unsupported("no rows match the context".into()));
        }
        let joint = |x_val: Value, out: Value| -> f64 {
            base_support(&k.with(attr, x_val).with(self.pred, out)) as f64 / n_k
        };

        let (lower, upper) = match kind {
            ScoreKind::Necessity => {
                let pr_o_hi = joint(x_hi, o);
                if pr_o_hi == 0.0 {
                    return Err(LewisError::Unsupported("Pr(o, x | k) = 0".into()));
                }
                let lo_b = (joint(x_hi, o) + joint(x_lo, o) - do_p(x_lo, o)?) / pr_o_hi;
                let up_b = (do_p(x_lo, o_neg)? - joint(x_lo, o_neg)) / pr_o_hi;
                (lo_b.max(0.0), up_b.min(1.0))
            }
            ScoreKind::Sufficiency => {
                let pr_oneg_lo = joint(x_lo, o_neg);
                if pr_oneg_lo == 0.0 {
                    return Err(LewisError::Unsupported("Pr(o', x' | k) = 0".into()));
                }
                let lo_b =
                    (joint(x_hi, o_neg) + joint(x_lo, o_neg) - do_p(x_hi, o_neg)?) / pr_oneg_lo;
                let up_b = (do_p(x_hi, o)? - joint(x_hi, o)) / pr_oneg_lo;
                (lo_b.max(0.0), up_b.min(1.0))
            }
            ScoreKind::NecessityAndSufficiency => {
                let lo_b = do_p(x_hi, o)? - do_p(x_lo, o)?;
                let up_b = do_p(x_hi, o)?.min(do_p(x_lo, o_neg)?);
                (lo_b.max(0.0), up_b.min(1.0))
            }
        };
        // Estimation noise can push either raw endpoint outside [0, 1]
        // or invert the interval entirely. Clamp each endpoint into
        // [0, 1] first, then collapse an inverted (empty) interval to
        // its midpoint so callers can always rely on `lower <= upper`.
        let lower = lower.clamp(0.0, 1.0);
        let upper = upper.clamp(0.0, 1.0);
        if lower <= upper {
            Ok(ScoreBounds { lower, upper })
        } else {
            let mid = 0.5 * (lower + upper);
            Ok(ScoreBounds {
                lower: mid,
                upper: mid,
            })
        }
    }

    /// Build the local-explanation context for `row` and intervention
    /// target `x_attr` (paper §3.2, `K = V`): the individual's values on
    /// the **non-descendants** of `x_attr` (descendants must stay free to
    /// respond to the intervention), greedily dropped from the causally
    /// least-proximate end until at least `min_support` rows match.
    pub fn local_context(&self, row: &[Value], x_attr: AttrId, min_support: usize) -> Context {
        let candidates: Vec<AttrId> = match self
            .graph
            .as_deref()
            .filter(|g| x_attr.index() < g.n_nodes())
        {
            Some(g) => {
                let parents: Vec<usize> = g.parents(x_attr.index()).to_vec();
                let ancestors = g.ancestors(x_attr.index());
                let descendants = g.descendants(x_attr.index());
                let mut ordered: Vec<usize> = Vec::new();
                ordered.extend(&parents);
                ordered.extend(ancestors.iter().filter(|a| !parents.contains(a)));
                let rest: Vec<usize> = (0..g.n_nodes())
                    .filter(|n| {
                        *n != x_attr.index() && !descendants.contains(n) && !ordered.contains(n)
                    })
                    .collect();
                ordered.extend(rest);
                ordered
                    .into_iter()
                    .map(|n| AttrId(n as u32))
                    .filter(|a| *a != self.pred && a.index() < row.len())
                    .collect()
            }
            None => self
                .base
                .table
                .schema()
                .attr_ids()
                .filter(|a| *a != x_attr && *a != self.pred && a.index() < row.len())
                .collect(),
        };
        // Documented back-off: start from the full non-descendant
        // context and greedily drop attributes from the causally
        // least-proximate end (the tail of `candidates`) until the
        // stratum reaches `min_support`. A more-proximate attribute is
        // therefore never sacrificed to keep a less-proximate one.
        let mut kept = candidates;
        loop {
            let ctx = Context::of(kept.iter().map(|a| (*a, row[a.index()])));
            if kept.is_empty() || self.has_support(&ctx, min_support) {
                return ctx;
            }
            kept.pop();
        }
    }
}

fn validate_contrast(
    hi: &[(AttrId, Value)],
    lo: &[(AttrId, Value)],
) -> Result<(Vec<AttrId>, Vec<Value>, Vec<Value>)> {
    if hi.is_empty() {
        return Err(LewisError::Invalid("empty contrast".into()));
    }
    let mut hi_sorted = hi.to_vec();
    hi_sorted.sort_by_key(|&(a, _)| a);
    let mut lo_sorted = lo.to_vec();
    lo_sorted.sort_by_key(|&(a, _)| a);
    let xs: Vec<AttrId> = hi_sorted.iter().map(|&(a, _)| a).collect();
    let xs_lo: Vec<AttrId> = lo_sorted.iter().map(|&(a, _)| a).collect();
    if xs != xs_lo {
        return Err(LewisError::Invalid(
            "hi/lo contrasts must cover the same attributes".into(),
        ));
    }
    if xs.windows(2).any(|w| w[0] == w[1]) {
        return Err(LewisError::Invalid(
            "duplicate attribute in contrast".into(),
        ));
    }
    if hi_sorted
        .iter()
        .zip(&lo_sorted)
        .all(|(&(_, h), &(_, l))| h == l)
    {
        return Err(LewisError::Invalid("hi and lo are identical".into()));
    }
    Ok((
        xs,
        hi_sorted.iter().map(|&(_, v)| v).collect(),
        lo_sorted.iter().map(|&(_, v)| v).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal::scm::{Mechanism, ScmBuilder};
    use causal::{CounterfactualEngine, Scm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tabular::{Domain, Schema};

    /// An estimator over copies of `t` and `graph` (engines share theirs).
    fn estimator(
        t: &Table,
        graph: Option<&Dag>,
        pred: AttrId,
        positive: Value,
        alpha: f64,
    ) -> Result<ScoreEstimator> {
        let graph = graph.map(|g| Arc::new(g.clone()));
        ScoreEstimator::from_shared(Arc::new(t.clone()), graph, pred, positive, alpha)
    }

    /// Confounded, monotone world:
    /// C → X, C → O-inputs, X → D; f(c, x, d) = 1 iff c + x + d ≥ 2.
    fn world() -> Scm {
        let mut schema = Schema::new();
        schema.push("c", Domain::boolean());
        schema.push("x", Domain::boolean());
        schema.push("d", Domain::boolean());
        let mut b = ScmBuilder::new(schema);
        b.edge(0, 1).unwrap();
        b.edge(1, 2).unwrap();
        b.mechanism(0, Mechanism::root(vec![0.5, 0.5])).unwrap();
        // X = C with flip prob 0.3 (confounded but monotone-friendly)
        b.mechanism(
            1,
            Mechanism::with_noise(vec![0.7, 0.3], |pa, u| pa[0] ^ (u as Value)),
        )
        .unwrap();
        // D = X, degraded with prob 0.2 (monotone in X: D = X & ¬u)
        b.mechanism(
            2,
            Mechanism::with_noise(vec![0.8, 0.2], |pa, u| pa[0] & (1 - u as Value)),
        )
        .unwrap();
        b.build().unwrap()
    }

    fn f(row: &[Value]) -> Value {
        u32::from(row[0] + row[1] + row[2] >= 2)
    }

    /// Labelled dataset + estimator inputs.
    fn setup(n: usize) -> (Table, AttrId) {
        let scm = world();
        let mut rng = StdRng::seed_from_u64(31);
        let mut t = scm.generate(n, &mut rng);
        let pred = crate::blackbox::label_table(&mut t, &f, "pred").unwrap();
        (t, pred)
    }

    fn ground_truth_scores(k_c: Option<Value>) -> Scores {
        let scm = world();
        let eng = CounterfactualEngine::exact(&scm).unwrap();
        let x = 1usize;
        let evid_base = move |w: &[Value]| k_c.is_none_or(|c| w[0] == c);
        let nec = eng
            .query(
                |w| evid_base(w) && w[x] == 1 && f(w) == 1,
                &[(x, 0)],
                |w| f(w) == 0,
            )
            .unwrap();
        let suf = eng
            .query(
                |w| evid_base(w) && w[x] == 0 && f(w) == 0,
                &[(x, 1)],
                |w| f(w) == 1,
            )
            .unwrap();
        let nesuf = eng
            .joint_query(
                evid_base,
                &[(x, 1)],
                |w| f(w) == 1,
                &[(x, 0)],
                |w| f(w) == 0,
            )
            .unwrap();
        Scores {
            necessity: nec,
            sufficiency: suf,
            nesuf,
        }
    }

    #[test]
    fn estimates_match_ground_truth_globally() {
        let (t, pred) = setup(60_000);
        let scm = world();
        let est = estimator(&t, Some(scm.graph()), pred, 1, 0.0).unwrap();
        let got = est.scores(AttrId(1), 1, 0, &Context::empty()).unwrap();
        let want = ground_truth_scores(None);
        assert!(
            (got.necessity - want.necessity).abs() < 0.02,
            "NEC {} vs {}",
            got.necessity,
            want.necessity
        );
        assert!(
            (got.sufficiency - want.sufficiency).abs() < 0.02,
            "SUF {} vs {}",
            got.sufficiency,
            want.sufficiency
        );
        assert!(
            (got.nesuf - want.nesuf).abs() < 0.02,
            "NESUF {} vs {}",
            got.nesuf,
            want.nesuf
        );
    }

    #[test]
    fn estimates_match_ground_truth_contextually() {
        let (t, pred) = setup(60_000);
        let scm = world();
        let est = estimator(&t, Some(scm.graph()), pred, 1, 0.0).unwrap();
        for c in [0u32, 1] {
            let k = Context::of([(AttrId(0), c)]);
            let got = est.scores(AttrId(1), 1, 0, &k).unwrap();
            let want = ground_truth_scores(Some(c));
            assert!(
                (got.sufficiency - want.sufficiency).abs() < 0.03,
                "c={c}: SUF {} vs {}",
                got.sufficiency,
                want.sufficiency
            );
            assert!(
                (got.nesuf - want.nesuf).abs() < 0.03,
                "c={c}: NESUF {} vs {}",
                got.nesuf,
                want.nesuf
            );
        }
    }

    #[test]
    fn bounds_contain_point_estimates_and_truth() {
        let (t, pred) = setup(60_000);
        let scm = world();
        let est = estimator(&t, Some(scm.graph()), pred, 1, 0.0).unwrap();
        let truth = ground_truth_scores(None);
        for (kind, want) in [
            (ScoreKind::Necessity, truth.necessity),
            (ScoreKind::Sufficiency, truth.sufficiency),
            (ScoreKind::NecessityAndSufficiency, truth.nesuf),
        ] {
            let b = est
                .bounds(kind, AttrId(1), 1, 0, &Context::empty())
                .unwrap();
            assert!(
                b.lower <= b.upper + 1e-9,
                "{kind:?}: [{}, {}]",
                b.lower,
                b.upper
            );
            assert!(
                b.lower - 0.03 <= want && want <= b.upper + 0.03,
                "{kind:?}: truth {want} outside [{}, {}]",
                b.lower,
                b.upper
            );
        }
    }

    #[test]
    fn proposition_4_3_binary_equality() {
        // For binary X:
        // NESUF = Pr(o,x|k)·NEC + Pr(o',x'|k)·SUF + 1 − Pr(x|k) − Pr(x'|k)
        // and the last term vanishes for binary domains.
        let (t, pred) = setup(60_000);
        let scm = world();
        let est = estimator(&t, Some(scm.graph()), pred, 1, 0.0).unwrap();
        let s = est.scores(AttrId(1), 1, 0, &Context::empty()).unwrap();
        let n = t.n_rows() as f64;
        let pr_o_x = t.count(&Context::of([(AttrId(1), 1), (pred, 1)])) as f64 / n;
        let pr_on_xn = t.count(&Context::of([(AttrId(1), 0), (pred, 0)])) as f64 / n;
        let rhs = pr_o_x * s.necessity + pr_on_xn * s.sufficiency;
        assert!(
            (s.nesuf - rhs).abs() < 0.02,
            "Prop 4.3: NESUF {} vs weighted sum {}",
            s.nesuf,
            rhs
        );
    }

    #[test]
    fn proposition_4_4_non_ancestor_scores_are_zero() {
        // D is a descendant of X but O (= f) is NOT downstream of... use
        // a variable with no causal path to the outcome: add an isolated
        // noise attribute and check its scores vanish.
        let scm = world();
        let mut schema = scm.schema().clone();
        let iso = schema.push("iso", Domain::boolean());
        let mut b = ScmBuilder::new(schema);
        b.edge(0, 1).unwrap();
        b.edge(1, 2).unwrap();
        b.mechanism(0, Mechanism::root(vec![0.5, 0.5])).unwrap();
        b.mechanism(
            1,
            Mechanism::with_noise(vec![0.7, 0.3], |pa, u| pa[0] ^ (u as Value)),
        )
        .unwrap();
        b.mechanism(
            2,
            Mechanism::with_noise(vec![0.8, 0.2], |pa, u| pa[0] & (1 - u as Value)),
        )
        .unwrap();
        b.mechanism(iso.index(), Mechanism::root(vec![0.4, 0.6]))
            .unwrap();
        let scm2 = b.build().unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let mut t = scm2.generate(40_000, &mut rng);
        let pred = crate::blackbox::label_table(&mut t, &f, "pred").unwrap();
        let est = estimator(&t, Some(scm2.graph()), pred, 1, 0.0).unwrap();
        let s = est.scores(iso, 1, 0, &Context::empty()).unwrap();
        assert!(s.necessity < 0.03, "NEC {}", s.necessity);
        assert!(s.sufficiency < 0.03, "SUF {}", s.sufficiency);
        assert!(s.nesuf < 0.03, "NESUF {}", s.nesuf);
    }

    #[test]
    fn no_graph_fallback_reduces_to_conditional_contrast() {
        // §6: without a graph, SUF = [Pr(o|x,k) − Pr(o|x',k)] / Pr(o'|x',k)
        let (t, pred) = setup(20_000);
        let est = estimator(&t, None, pred, 1, 0.0).unwrap();
        let s = est.scores(AttrId(1), 1, 0, &Context::empty()).unwrap();
        let p_hi = t
            .conditional_probability(pred, 1, &Context::of([(AttrId(1), 1)]), 0.0)
            .unwrap();
        let p_lo = t
            .conditional_probability(pred, 1, &Context::of([(AttrId(1), 0)]), 0.0)
            .unwrap();
        let expect_suf = ((p_hi - p_lo) / (1.0 - p_lo)).clamp(0.0, 1.0);
        assert!((s.sufficiency - expect_suf).abs() < 1e-9);
        let expect_nec = (((1.0 - p_lo) - (1.0 - p_hi)) / p_hi).clamp(0.0, 1.0);
        assert!((s.necessity - expect_nec).abs() < 1e-9);
        assert!((s.nesuf - (p_hi - p_lo).clamp(0.0, 1.0)).abs() < 1e-9);
    }

    #[test]
    fn set_contrasts_validated() {
        let (t, pred) = setup(1000);
        let est = estimator(&t, None, pred, 1, 0.0).unwrap();
        // mismatched attr sets
        assert!(est
            .scores_set(&[(AttrId(0), 1)], &[(AttrId(1), 0)], &Context::empty())
            .is_err());
        // identical hi/lo
        assert!(est
            .scores_set(&[(AttrId(0), 1)], &[(AttrId(0), 1)], &Context::empty())
            .is_err());
        // duplicate attr
        assert!(est
            .scores_set(
                &[(AttrId(0), 1), (AttrId(0), 0)],
                &[(AttrId(0), 0), (AttrId(0), 1)],
                &Context::empty()
            )
            .is_err());
        // intervening on the prediction column
        assert!(est.scores(pred, 1, 0, &Context::empty()).is_err());
        // context constrains the intervened attribute
        assert!(est
            .scores(AttrId(1), 1, 0, &Context::of([(AttrId(1), 0)]))
            .is_err());
        // set contrast over two attributes works
        let s = est
            .scores_set(
                &[(AttrId(1), 1), (AttrId(2), 1)],
                &[(AttrId(1), 0), (AttrId(2), 0)],
                &Context::empty(),
            )
            .unwrap();
        assert!(
            s.sufficiency > 0.5,
            "joint intervention strongly sufficient"
        );
    }

    #[test]
    fn constructor_validations() {
        let (t, pred) = setup(100);
        assert!(estimator(&t, None, pred, 2, 0.0).is_err());
        assert!(estimator(&t, None, pred, 1, -0.5).is_err());
        // non-binary prediction column
        assert!(estimator(&t, None, AttrId(0), 1, 0.0).is_ok());
        let mut t2 = t.clone();
        let tri = t2
            .add_column(
                "tri",
                Domain::categorical(["a", "b", "c"]),
                vec![0; t.n_rows()],
            )
            .unwrap();
        assert!(estimator(&t2, None, tri, 1, 0.0).is_err());
    }

    #[test]
    fn local_context_backs_off_to_keep_support() {
        let (t, pred) = setup(5000);
        let scm = world();
        let est = estimator(&t, Some(scm.graph()), pred, 1, 0.0).unwrap();
        let row = t.row(0).unwrap();
        // generous support: keeps C (the only non-descendant of X)
        let ctx = est.local_context(&row, AttrId(1), 10);
        assert!(ctx.constrains(AttrId(0)));
        assert!(
            !ctx.constrains(AttrId(1)),
            "intervention target must stay free"
        );
        assert!(!ctx.constrains(AttrId(2)), "descendants must stay free");
        assert!(!ctx.constrains(pred));
        // impossible support: context collapses to empty
        let ctx2 = est.local_context(&row, AttrId(1), t.n_rows() + 1);
        assert!(ctx2.is_empty());
    }

    #[test]
    fn has_support_decides_on_the_concatenated_count() {
        let (t, pred) = setup(3000);
        let all: Vec<usize> = (0..t.n_rows()).collect();
        for split in [0, 1, 2000, 2999, 3000] {
            let base = Arc::new(t.select(&all[..split]).unwrap());
            let delta = Arc::new(t.select(&all[split..]).unwrap());
            for indexed in [false, true] {
                let est = ScoreEstimator::from_shared(Arc::clone(&base), None, pred, 1, 0.0)
                    .unwrap()
                    .with_index(indexed)
                    .unwrap();
                let live = est.with_delta_table(Arc::clone(&delta)).unwrap();
                for r in [0, 7, 2999] {
                    let row = t.row(r).unwrap();
                    for subset in 0u32..16 {
                        let ctx = Context::of(
                            (0..4u32)
                                .filter(|a| subset >> a & 1 == 1)
                                .map(|a| (AttrId(a), row[a as usize])),
                        );
                        let n = t.count(&ctx);
                        for min in [0, 1, n.saturating_sub(1), n, n + 1, usize::MAX] {
                            assert_eq!(
                                live.has_support(&ctx, min),
                                n >= min,
                                "split {split}, indexed {indexed}, {ctx:?}, min {min}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bounds_are_ordered_on_randomized_tables() {
        // Regression for the final clamp: on small noisy tables the raw
        // Fréchet endpoints routinely land outside [0, 1] or inverted;
        // the returned interval must still satisfy lower <= upper.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..200 {
            let mut schema = Schema::new();
            schema.push("c", Domain::boolean());
            schema.push("x", Domain::boolean());
            schema.push("pred", Domain::boolean());
            let mut t = Table::new(schema);
            let n = rng.gen_range(4..40);
            for _ in 0..n {
                t.push_row(&[
                    rng.gen_range(0..2),
                    rng.gen_range(0..2),
                    rng.gen_range(0..2),
                ])
                .unwrap();
            }
            let mut g = causal::Dag::new(2);
            g.add_edge(0, 1).unwrap();
            let alpha = rng.gen_range(0.0..2.0);
            let est = estimator(&t, Some(&g), AttrId(2), 1, alpha).unwrap();
            for kind in [
                ScoreKind::Necessity,
                ScoreKind::Sufficiency,
                ScoreKind::NecessityAndSufficiency,
            ] {
                for k in [Context::empty(), Context::of([(AttrId(0), 0)])] {
                    let Ok(b) = est.bounds(kind, AttrId(1), 1, 0, &k) else {
                        continue; // unsupported contrast on this draw
                    };
                    assert!(
                        b.lower <= b.upper,
                        "round {round} {kind:?}: inverted [{}, {}]",
                        b.lower,
                        b.upper
                    );
                    assert!((0.0..=1.0).contains(&b.lower), "round {round}: {}", b.lower);
                    assert!((0.0..=1.0).contains(&b.upper), "round {round}: {}", b.upper);
                }
            }
        }
    }

    #[test]
    fn local_context_drops_least_proximate_first() {
        // Chain A -> B -> X -> D. For target X the candidate context is
        // [B (parent), A (ancestor)], most causally proximate first. The
        // documented back-off drops from the tail: if even {B} alone
        // lacks support, the context must collapse to empty rather than
        // keep the less-proximate A (which the old greedy-add did when
        // {A} happened to have support).
        let mut schema = Schema::new();
        schema.push("a", Domain::boolean());
        schema.push("b", Domain::boolean());
        schema.push("x", Domain::boolean());
        schema.push("d", Domain::boolean());
        schema.push("pred", Domain::boolean());
        let mut t = Table::new(schema);
        // B = 1 occurs once; A = 1 is common.
        t.push_row(&[1, 1, 1, 1, 1]).unwrap();
        for _ in 0..9 {
            t.push_row(&[1, 0, 0, 0, 0]).unwrap();
        }
        for _ in 0..10 {
            t.push_row(&[0, 0, 0, 0, 0]).unwrap();
        }
        let mut g = causal::Dag::new(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        let est = estimator(&t, Some(&g), AttrId(4), 1, 0.0).unwrap();
        let row = t.row(0).unwrap();
        // {B=1, A=1} has 1 row, {B=1} has 1 row, {A=1} has 10: the
        // back-off must end empty, never keeping A without B.
        let ctx = est.local_context(&row, AttrId(2), 3);
        assert!(
            !ctx.constrains(AttrId(0)),
            "less-proximate A kept after more-proximate B was dropped"
        );
        assert!(!ctx.constrains(AttrId(1)));
        assert!(ctx.is_empty());
        // With support available for the full context, everything stays.
        let ctx_full = est.local_context(&row, AttrId(2), 1);
        assert!(ctx_full.constrains(AttrId(0)));
        assert!(ctx_full.constrains(AttrId(1)));
        assert!(!ctx_full.constrains(AttrId(3)), "descendant must stay free");
        // Prefix semantics: a mid support level keeps B (proximate) and
        // drops A (least proximate) — here {B=1,A=1} == {B=1} == 1 row,
        // so asking for 1 keeps both; asking for 2 keeps neither.
        let ctx_mid = est.local_context(&row, AttrId(2), 2);
        assert!(ctx_mid.is_empty());
    }

    #[test]
    fn scores_are_probabilities_under_smoothing() {
        let (t, pred) = setup(2000);
        let scm = world();
        for alpha in [0.0, 0.5, 2.0] {
            let est = estimator(&t, Some(scm.graph()), pred, 1, alpha).unwrap();
            let s = est.scores(AttrId(1), 1, 0, &Context::empty()).unwrap();
            for v in [s.necessity, s.sufficiency, s.nesuf] {
                assert!((0.0..=1.0).contains(&v), "alpha={alpha}: {v}");
            }
        }
    }
}
