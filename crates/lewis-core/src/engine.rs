//! The owned, shareable explanation engine — LEWIS as a *system*.
//!
//! The paper frames LEWIS as one trained estimator answering many
//! global / contextual / local / recourse queries over the same labelled
//! table (§3.2–§4.2). This module is that front door:
//!
//! * [`Engine`] owns its inputs behind `Arc`s, is `Send + Sync`, and can
//!   be shared across threads (`Arc<Engine>`) or cloned handles without
//!   copying the table;
//! * [`EngineBuilder`] replaces the six-positional-argument constructor
//!   with named, defaulted settings:
//!
//!   ```no_run
//!   # use lewis_core::Engine;
//!   # use tabular::{AttrId, Table, Schema};
//!   # let table: Table = Table::new(Schema::new());
//!   # let dag = causal::Dag::new(0);
//!   let engine = Engine::builder(table)
//!       .graph(&dag)
//!       .prediction(AttrId(3), 1)
//!       .features(&[AttrId(0), AttrId(1), AttrId(2)])
//!       .alpha(1.0)
//!       .min_support(30)
//!       .build()?;
//!   # Ok::<(), lewis_core::LewisError>(())
//!   ```
//!
//! * [`ExplainRequest`] / [`ExplainResponse`] make every query kind one
//!   uniform `run` call, and [`Engine::run_batch`] answers many requests
//!   in one call;
//! * a bounded, thread-safe **counting-pass cache** inside the engine
//!   reuses [`ArmTable`](crate::scores) scans across repeated and
//!   batched queries, recourse verification included — results are
//!   bit-identical to cold evaluation (property-tested), just without
//!   the redundant table scans. A surrogate cache fits each recourse
//!   actionable set once.

use crate::cache::{Caches, CountingCache, PassKey};
use crate::explain::{
    AttributeScores, ContextualExplanation, GlobalExplanation, LocalContribution, LocalExplanation,
};
use crate::ordering::{infer_value_order_from_stats, ordered_pairs};
use crate::recourse::{
    check_fit, check_request, fit_surrogate, surrogate_plan, Recourse, RecourseEngine,
    RecourseOptions, SurrogateFit,
};
use crate::scores::{ArmTable, CellArms, Contrast, ScoreEstimator, Scores};
use crate::snapshot::{
    ArmSnapshot, CacheSnapshot, CellSnapshot, EngineSnapshot, PassSnapshot, SurrogateCacheSnapshot,
    SurrogateSnapshot,
};
use crate::surrogates::SurrogateCache;
use crate::{LewisError, Result};
use causal::Dag;
use std::sync::Arc;
use tabular::{AttrId, Context, Table, Value};

pub use crate::cache::CacheStats;

/// Default minimum matching rows for local-context back-off.
const DEFAULT_MIN_SUPPORT: usize = 30;
/// Default Laplace pseudo-count.
const DEFAULT_ALPHA: f64 = 1.0;
/// Default bound on resident counting passes.
const DEFAULT_CACHE_CAPACITY: usize = 256;
/// Default bound on resident fitted recourse surrogates. Real traffic
/// repeats a handful of actionable sets, so a small bound captures the
/// working set while capping memory for adversarial mixes. Public so
/// pack readers can apply the same default to pre-v4 packs, which
/// predate the surrogate cache.
pub const DEFAULT_SURROGATE_CAPACITY: usize = 32;

/// One explanation query, ready to be answered by [`Engine::run`].
///
/// The variants mirror the paper's query taxonomy (§3.2): the context
/// `K` ranges from empty (global) over a sub-population (contextual) to
/// a full individual (local), plus actionable recourse (§4.2).
#[derive(Debug, Clone)]
pub enum ExplainRequest {
    /// Every feature ranked over the whole population (`K = ∅`).
    Global,
    /// A global-shaped ranking inside the sub-population `k`.
    ContextualGlobal {
        /// The sub-population.
        k: Context,
    },
    /// One attribute's scores inside the sub-population `k`.
    Contextual {
        /// The probed attribute.
        attr: AttrId,
        /// The sub-population.
        k: Context,
    },
    /// Per-attribute contributions for one individual (`K = V`).
    Local {
        /// A full schema row, including the prediction cell.
        row: Vec<Value>,
    },
    /// Minimal-cost actionable recourse for one individual.
    Recourse {
        /// A full schema row, including the prediction cell.
        row: Vec<Value>,
        /// The attributes the individual can act on.
        actionable: Vec<AttrId>,
        /// Cost model, sufficiency threshold, etc.
        opts: RecourseOptions,
    },
}

/// The answer to one [`ExplainRequest`], same variant order.
#[derive(Debug, Clone)]
pub enum ExplainResponse {
    /// Answer to [`ExplainRequest::Global`] / [`ExplainRequest::ContextualGlobal`].
    Global(GlobalExplanation),
    /// Answer to [`ExplainRequest::Contextual`].
    Contextual(ContextualExplanation),
    /// Answer to [`ExplainRequest::Local`].
    Local(LocalExplanation),
    /// Answer to [`ExplainRequest::Recourse`].
    Recourse(Recourse),
}

impl ExplainResponse {
    /// The global explanation, if this response carries one.
    pub fn into_global(self) -> Option<GlobalExplanation> {
        match self {
            ExplainResponse::Global(g) => Some(g),
            _ => None,
        }
    }

    /// The contextual explanation, if this response carries one.
    pub fn into_contextual(self) -> Option<ContextualExplanation> {
        match self {
            ExplainResponse::Contextual(c) => Some(c),
            _ => None,
        }
    }

    /// The local explanation, if this response carries one.
    pub fn into_local(self) -> Option<LocalExplanation> {
        match self {
            ExplainResponse::Local(l) => Some(l),
            _ => None,
        }
    }

    /// The recourse recommendation, if this response carries one.
    pub fn into_recourse(self) -> Option<Recourse> {
        match self {
            ExplainResponse::Recourse(r) => Some(r),
            _ => None,
        }
    }
}

/// Typed, defaulted construction of an [`Engine`] — see
/// [`Engine::builder`].
pub struct EngineBuilder {
    table: Arc<Table>,
    graph: Option<Arc<Dag>>,
    pred: Option<AttrId>,
    positive: Value,
    features: Option<Vec<AttrId>>,
    alpha: f64,
    min_support: usize,
    cache_capacity: usize,
    shards: usize,
    index: bool,
}

impl EngineBuilder {
    fn new(table: Arc<Table>) -> Self {
        EngineBuilder {
            table,
            graph: None,
            pred: None,
            positive: 1,
            features: None,
            alpha: DEFAULT_ALPHA,
            min_support: DEFAULT_MIN_SUPPORT,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            shards: 1,
            index: true,
        }
    }

    /// Use `graph` as the causal diagram (cloned into shared ownership;
    /// see [`EngineBuilder::graph_shared`] for the zero-copy variant).
    /// Without a graph the engine uses the §6 no-confounding fallback.
    #[must_use]
    pub fn graph(mut self, graph: &Dag) -> Self {
        self.graph = Some(Arc::new(graph.clone()));
        self
    }

    /// Use an already-shared causal diagram without copying it.
    #[must_use]
    pub fn graph_shared(mut self, graph: Arc<Dag>) -> Self {
        self.graph = Some(graph);
        self
    }

    /// The black box's binary prediction column and the favourable
    /// outcome code. **Required.**
    #[must_use]
    pub fn prediction(mut self, pred: AttrId, positive: Value) -> Self {
        self.pred = Some(pred);
        self.positive = positive;
        self
    }

    /// The attributes to explain (exclude the prediction column and any
    /// raw outcome columns). **Required.**
    #[must_use]
    pub fn features(mut self, features: &[AttrId]) -> Self {
        self.features = Some(features.to_vec());
        self
    }

    /// Laplace pseudo-count for the inner conditionals (default 1.0).
    #[must_use]
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Minimum matching rows for local-context back-off (default 30).
    #[must_use]
    pub fn min_support(mut self, min_support: usize) -> Self {
        self.min_support = min_support;
        self
    }

    /// Maximum counting passes kept resident in the engine's cache
    /// (default 256; clamped to at least 1).
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Reference override: fan every counting pass over `shards`
    /// fixed-boundary row shards (default 1; clamped to at least 1).
    /// Results are **bit-identical** for every shard count — per-shard
    /// counts are integers merged in shard-index order, so the merged
    /// pass equals a single contiguous scan exactly (property-tested in
    /// `tests/shard_parity.rs`). The parity suites use it to hold
    /// sharded layouts against the default one.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Reference override: whether to build the per-(feature, code)
    /// bitmap index at construction time (default on). With the index,
    /// counting passes and support probes become word-level `AND` +
    /// popcount intersections whenever the index's cost model says that
    /// is cheaper than a row scan. Results are **bit-identical** with
    /// and without it (property-tested in `tests/index_parity.rs`);
    /// `index(false)` keeps the row-scan path as the cold reference.
    #[must_use]
    pub fn index(mut self, enabled: bool) -> Self {
        self.index = enabled;
        self
    }

    /// Validate the configuration and build the engine (infers the
    /// per-feature value orderings up front, like the paper's offline
    /// phase).
    pub fn build(self) -> Result<Engine> {
        let pred = self.pred.ok_or_else(|| {
            LewisError::Invalid("EngineBuilder: prediction(pred, positive) is required".into())
        })?;
        let features = self.features.ok_or_else(|| {
            LewisError::Invalid("EngineBuilder: features(&[...]) is required".into())
        })?;
        if features.is_empty() {
            return Err(LewisError::Invalid("features must not be empty".into()));
        }
        if features.contains(&pred) {
            return Err(LewisError::Invalid(
                "features must not include the prediction".into(),
            ));
        }
        let est =
            ScoreEstimator::from_shared(self.table, self.graph, pred, self.positive, self.alpha)?
                .with_shards(self.shards)
                .with_index(self.index)?;
        let mut orders = vec![None; est.table().schema().len()];
        let mut order_stats = Vec::with_capacity(features.len());
        for &a in &features {
            let stats = est.order_stats_since(a, 0)?;
            orders[a.index()] = Some(infer_value_order_from_stats(&stats));
            order_stats.push(stats);
        }
        let caches = Caches::new(
            CountingCache::new(self.cache_capacity),
            SurrogateCache::new(DEFAULT_SURROGATE_CAPACITY),
            est.n_total_rows(),
        );
        Ok(Engine {
            est,
            features,
            orders,
            min_support: self.min_support,
            caches,
            order_stats: Some(order_stats),
        })
    }
}

/// The LEWIS explanation engine: one owned, thread-shareable object
/// answering every query kind of §3.2/§4.2 over one labelled table,
/// with counting passes shared across queries.
pub struct Engine {
    est: ScoreEstimator,
    features: Vec<AttrId>,
    orders: Vec<Option<Vec<Value>>>,
    min_support: usize,
    /// Shared by every generation of a live table.
    caches: Arc<Caches>,
    /// Per-feature `(rows, positives)`-per-value stats over every
    /// logical row (`order_stats[i]` aligned with `features[i]`) — the
    /// running totals [`Engine::with_delta`] adds each batch's stats to
    /// instead of re-counting the table. `None` until the first append
    /// needs them: restored engines start lazy.
    order_stats: Option<Vec<Vec<(u64, u64)>>>,
}

impl Engine {
    /// Start building an engine over `table` (pass a `Table` to hand
    /// over ownership, or an `Arc<Table>` to share without copying).
    pub fn builder(table: impl Into<Arc<Table>>) -> EngineBuilder {
        EngineBuilder::new(table.into())
    }

    /// The engine's scoring view: the estimator its queries count and
    /// score through, read-only. Scoring through it directly bypasses
    /// the engine's counting-pass cache, so every call counts its pass
    /// afresh; use the engine's own queries to share passes.
    pub fn estimator(&self) -> &ScoreEstimator {
        &self.est
    }

    /// The labelled table.
    pub fn table(&self) -> &Table {
        self.est.table()
    }

    /// The causal diagram, if one was supplied.
    pub fn graph(&self) -> Option<&Dag> {
        self.est.graph()
    }

    /// The explained features.
    pub fn features(&self) -> &[AttrId] {
        &self.features
    }

    /// Minimum matching rows for local-context back-off.
    pub fn min_support(&self) -> usize {
        self.min_support
    }

    /// Row shards every counting pass fans over (1 = single pass).
    pub fn shards(&self) -> usize {
        self.est.shards()
    }

    /// Whether a per-(feature, code) bitmap index is installed.
    pub fn index_enabled(&self) -> bool {
        self.est.index().is_some()
    }

    /// Rows in the write-side delta shard (0 for frozen engines).
    pub fn delta_rows(&self) -> usize {
        self.est.delta_rows()
    }

    /// The write-side delta shard itself, when one is overlaid. A live
    /// ingestion layer restoring a mid-stream engine reads this to pick
    /// up appending exactly where the pack's watermark left off.
    pub fn delta_table(&self) -> Option<&Arc<Table>> {
        self.est.delta_table()
    }

    /// Base rows plus delta rows — the logical size of the served table.
    pub fn total_rows(&self) -> usize {
        self.est.n_total_rows()
    }

    /// Heap bytes held by the bitmap indexes: the base's and, on a live
    /// table, the appended rows' (0 without an index).
    pub fn index_memory_bytes(&self) -> u64 {
        let indexes = self.est.parts().filter_map(|part| part.index.as_ref());
        indexes.map(|i| i.memory_bytes()).sum()
    }

    /// Cells of the base index's joint-count cube (0 without an index
    /// or when the grid is past the cube's gate).
    pub fn index_cube_cells(&self) -> usize {
        self.est.index().map_or(0, |i| i.cube_cells())
    }

    /// The inferred (ascending) value order of a feature.
    pub fn value_order(&self, attr: AttrId) -> Option<&[Value]> {
        self.orders.get(attr.index()).and_then(|o| o.as_deref())
    }

    /// Counting-pass cache counters (hits / misses / residency).
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.passes.stats()
    }

    /// Recourse-surrogate cache counters (hits / misses / residency).
    pub fn surrogate_stats(&self) -> CacheStats {
        self.caches.surrogates.stats()
    }

    /// Fit (or reuse) the recourse surrogate for `actionable` so later
    /// recourse queries over the same set answer from warm
    /// coefficients. Pack compilation uses this to pre-warm the cache
    /// the snapshot will carry.
    pub fn prepare_surrogate(&self, actionable: &[AttrId]) -> Result<()> {
        self.surrogate_for(actionable).map(|_| ())
    }

    /// The cached (or freshly fitted) surrogate for one actionable set.
    fn surrogate_for(&self, actionable: &[AttrId]) -> Result<Arc<SurrogateFit>> {
        self.caches
            .surrogates
            .get_or_fit(actionable, self.est.n_total_rows(), |kept| {
                fit_surrogate(&self.est, actionable, kept)
            })
    }

    /// Capture everything needed to rebuild this engine exactly —
    /// configuration, inferred value orders, and the warm counting-pass
    /// cache. The table and graph are shared into the snapshot, not
    /// copied. See [`crate::snapshot`] for the fidelity guarantees and
    /// [`Engine::restore`] for the inverse.
    pub fn snapshot(&self) -> EngineSnapshot {
        let rows = self.est.n_total_rows();
        let (s_hits, s_misses, s_entries) = self.caches.surrogates.export(rows);
        let fits = s_entries
            .into_iter()
            .map(|(actionable, (fit, _))| SurrogateSnapshot {
                actionable,
                intercept: fit.intercept,
                coefficients: fit.coefficients.clone(),
                orders: fit.orders.clone(),
            })
            .collect();
        let (hits, misses, entries) = self.caches.passes.export(rows);
        let passes = entries
            .into_iter()
            .map(|(key, arms)| PassSnapshot {
                xs: key.xs,
                context: key.k,
                c_set: key.c_set,
                total: arms.total,
                cells: arms
                    .cells
                    .iter()
                    .map(|(cell_key, cell)| CellSnapshot {
                        key: cell_key.clone(),
                        rows: cell.n,
                        arms: cell
                            .arms
                            .iter()
                            .map(|(assignment, (rows, positives))| ArmSnapshot {
                                assignment: assignment.clone(),
                                rows: *rows,
                                positives: *positives,
                            })
                            .collect(),
                    })
                    .collect(),
            })
            .collect();
        EngineSnapshot {
            table: self.est.shared_table(),
            graph: self.est.shared_graph(),
            pred: self.est.pred_attr(),
            positive: self.est.positive(),
            alpha: self.est.alpha(),
            min_support: self.min_support,
            cache_capacity: self.caches.passes.stats().capacity,
            shards: self.est.shards(),
            features: self.features.clone(),
            orders: self.orders.clone(),
            cache: CacheSnapshot {
                hits,
                misses,
                passes,
            },
            surrogate_capacity: self.caches.surrogates.stats().capacity,
            surrogates: SurrogateCacheSnapshot {
                hits: s_hits,
                misses: s_misses,
                fits,
            },
            index: self.est.index().map(Arc::clone),
            delta: self.est.delta_table().cloned(),
        }
    }

    /// Rebuild an engine from a snapshot, **without** re-inferring value
    /// orders or re-running counting passes: the restored engine answers
    /// every query byte-for-byte like the donor (property-tested in
    /// `tests/pack_engine.rs`).
    ///
    /// The snapshot is validated structurally before anything is trusted
    /// — feature/order/cache inconsistencies against the table's schema
    /// are reported as [`LewisError::Invalid`], never absorbed, so a
    /// mismatched table + snapshot pairing cannot produce a garbage
    /// engine.
    pub fn restore(snapshot: EngineSnapshot) -> Result<Engine> {
        let EngineSnapshot {
            table,
            graph,
            pred,
            positive,
            alpha,
            min_support,
            cache_capacity,
            shards,
            features,
            orders,
            cache,
            surrogate_capacity,
            surrogates,
            index,
            delta,
        } = snapshot;
        // An out-of-range shard count can only come from a hand-crafted
        // (or corrupted) snapshot: reject it rather than silently
        // clamping — a crafted count must never size an allocation.
        if shards == 0 || shards > tabular::MAX_SHARDS {
            return Err(LewisError::Invalid(format!(
                "snapshot: shard count {shards} outside [1, {}]",
                tabular::MAX_SHARDS
            )));
        }
        let mut est =
            ScoreEstimator::from_shared(table, graph, pred, positive, alpha)?.with_shards(shards);
        // An index that disagrees with the table (row count or
        // per-attribute cardinalities) can only come from a mismatched
        // pairing: reject it rather than serve wrong counts.
        if let Some(index) = index {
            if !index.matches(est.table()) {
                return Err(LewisError::Invalid(
                    "snapshot: bitmap index does not match the table".into(),
                ));
            }
            est.install_index(index);
        }
        // Overlay a live donor's delta shard before anything downstream
        // validates row counts: its passes may legitimately count more
        // rows than the base table alone holds. The overlay re-checks
        // the schema pairing and indexes the delta rows.
        if let Some(delta) = delta {
            est = est.with_delta_table(delta)?;
        }
        let schema = est.table().schema();
        if features.is_empty() {
            return Err(LewisError::Invalid(
                "snapshot: features must not be empty".into(),
            ));
        }
        if features.contains(&pred) {
            return Err(LewisError::Invalid(
                "snapshot: features must not include the prediction".into(),
            ));
        }
        for (i, &a) in features.iter().enumerate() {
            schema.attr(a)?;
            // any *order* is legitimate (builders take features in user
            // order), but a duplicate would score and report the same
            // attribute twice
            if features[..i].contains(&a) {
                return Err(LewisError::Invalid(format!(
                    "snapshot: feature {a} appears more than once"
                )));
            }
        }
        if orders.len() != schema.len() {
            return Err(LewisError::Invalid(format!(
                "snapshot: {} value orders for a schema of {} attributes",
                orders.len(),
                schema.len()
            )));
        }
        for (i, order) in orders.iter().enumerate() {
            let a = AttrId(i as u32);
            let is_feature = features.contains(&a);
            match order {
                None if is_feature => {
                    return Err(LewisError::Invalid(format!(
                        "snapshot: feature {a} has no value order"
                    )))
                }
                Some(_) if !is_feature => {
                    return Err(LewisError::Invalid(format!(
                        "snapshot: non-feature {a} carries a value order"
                    )))
                }
                Some(order) => {
                    let card = schema.cardinality(a)?;
                    let mut sorted = order.clone();
                    sorted.sort_unstable();
                    if sorted != (0..card as Value).collect::<Vec<_>>() {
                        return Err(LewisError::Invalid(format!(
                            "snapshot: value order of {a} is not a permutation of its domain"
                        )));
                    }
                }
                None => {}
            }
        }
        let entries = cache
            .passes
            .into_iter()
            .map(|pass| restore_pass(&est, pass))
            .collect::<Result<Vec<_>>>()?;
        // Each surrogate must fit this engine's layout exactly — the
        // same shape checks a warm lookup would apply. A fit from a
        // foreign engine (different schema, graph or actionable set)
        // is rejected typed, never served.
        let fits = surrogates
            .fits
            .into_iter()
            .map(|s| {
                let fit = Arc::new(SurrogateFit {
                    intercept: s.intercept,
                    coefficients: s.coefficients,
                    orders: s.orders,
                });
                check_fit(&est, &s.actionable, &fit)
                    .map_err(|e| LewisError::Invalid(format!("snapshot surrogate: {e}")))?;
                Ok((s.actionable, (fit, None)))
            })
            .collect::<Result<Vec<_>>>()?;
        // Every pass and fit a snapshot carries covers all its rows.
        let rows = est.n_total_rows();
        let (s_hits, s_misses) = (surrogates.hits, surrogates.misses);
        let caches = Caches::new(
            CountingCache::restore(cache_capacity, cache.hits, cache.misses, entries, rows),
            SurrogateCache::restore(surrogate_capacity, s_hits, s_misses, fits, rows),
            rows,
        );
        Ok(Engine {
            est,
            features,
            orders,
            min_support,
            caches,
            order_stats: None,
        })
    }

    /// A new engine serving this engine's rows followed by `batch` — the
    /// live-table append path. The rows are dictionary-coded in schema
    /// order (prediction column included) and checked for arity and
    /// domain; a bad row rejects the whole batch.
    ///
    /// The engine keeps the appended rows after its frozen base, and the
    /// batch extends them, so each step costs work in proportion to the
    /// batch and the rows past the base, never the base. Everything the
    /// returned engine answers is bit-identical to a cold build over the
    /// concatenated table:
    ///
    /// * counting passes and support probes run the same routine over
    ///   the base and the appended rows and add their integers (see
    ///   [`crate::scores`]); the appended rows' bitmap index is this
    ///   engine's, extended over the batch;
    /// * value orders re-rank from per-value integer totals over every
    ///   row: this engine's totals plus one count of the new rows;
    /// * the new engine shares this one's caches if this one is its
    ///   table's newest generation, else (a fork) starts with empty
    ///   ones: a lookup tops a pass up with the rows past its watermark,
    ///   and a refit groups just those rows into the fit's patterns.
    pub fn with_delta(&self, batch: &[Vec<Value>]) -> Result<Engine> {
        let from = self.est.n_total_rows();
        let est = self.est.with_appended(batch)?;
        let mut order_stats = match &self.order_stats {
            Some(stats) => stats.clone(),
            None => self
                .features
                .iter()
                .map(|&a| self.est.order_stats_since(a, 0))
                .collect::<Result<Vec<_>>>()?,
        };
        let mut orders = vec![None; est.table().schema().len()];
        for (stats, &a) in order_stats.iter_mut().zip(&self.features) {
            for (total, (n, pos)) in stats.iter_mut().zip(est.order_stats_since(a, from)?) {
                total.0 += n;
                total.1 += pos;
            }
            orders[a.index()] = Some(infer_value_order_from_stats(stats));
        }
        let caches = self.caches.extended(from, est.n_total_rows());
        Ok(Engine {
            orders,
            caches,
            order_stats: Some(order_stats),
            ..self.over(est)
        })
    }

    /// This engine's configuration, value orders and caches over `est`,
    /// which serves the same logical rows.
    fn over(&self, est: ScoreEstimator) -> Engine {
        Engine {
            est,
            features: self.features.clone(),
            orders: self.orders.clone(),
            min_support: self.min_support,
            caches: Arc::clone(&self.caches),
            order_stats: self.order_stats.clone(),
        }
    }

    /// Fold the delta shard into the base: a new engine over the
    /// concatenated table, the same value orders and their totals, and
    /// the same shared caches. Its bitmap index is the base index
    /// extended over the concatenated table, coding only the delta rows
    /// ([`lewis_index::TableIndex::extended`]), which equals a rebuild
    /// word for word; an index of more than one shard is rebuilt. The
    /// concatenated table holds exactly the rows this engine was already
    /// answering over, in the same logical order, so every cached entry
    /// stays exact and every watermark still marks the same rows; only
    /// the physical layout changes. Compaction therefore never changes an
    /// answer (property-tested in `tests/live_parity.rs`). Without a
    /// delta this just re-materializes the engine over its existing
    /// base and index.
    pub fn compacted(&self) -> Result<Engine> {
        let (folded, index) = match self.est.delta_table().filter(|d| d.n_rows() > 0) {
            None => (self.est.shared_table(), self.est.index().cloned()),
            Some(delta) => {
                let base = self.est.table();
                let cols = base.columns().iter().zip(delta.columns());
                let cols = cols.map(|(b, d)| [b.as_slice(), d].concat()).collect();
                let folded = Table::from_columns(base.schema().clone(), cols)?;
                let index = self.est.index().and_then(|i| i.extended(&folded));
                (Arc::new(folded), index.map(Arc::new))
            }
        };
        let mut est = ScoreEstimator::from_shared(
            folded,
            self.est.shared_graph(),
            self.est.pred_attr(),
            self.est.positive(),
            self.est.alpha(),
        )?
        .with_shards(self.est.shards());
        match index {
            Some(index) => est.install_index(index),
            None => est = est.with_index(self.est.index().is_some())?,
        }
        Ok(self.over(est))
    }

    /// This engine over `folded`, [`Engine::compacted`] of an earlier
    /// generation of its table: the rows past the fold stay the delta,
    /// and orders and caches are this engine's, so nothing appended or
    /// cached while a live table's fold ran is lost.
    pub fn rebased_onto(&self, folded: &Engine) -> Result<Engine> {
        let lineage = Arc::ptr_eq(&self.caches, &folded.caches) && folded.delta_rows() == 0;
        let skip = folded.total_rows().checked_sub(self.table().n_rows());
        let Some(skip) = skip.filter(|&skip| lineage && skip <= self.delta_rows()) else {
            return Err(LewisError::Invalid(
                "rebased_onto: not a fold of this table".into(),
            ));
        };
        let est = match self.est.delta_table().filter(|d| d.n_rows() > skip) {
            None => folded.est.clone(),
            Some(delta) => {
                let tail = delta.columns().iter().map(|col| col[skip..].to_vec());
                let tail = Table::from_columns(delta.schema().clone(), tail.collect())?;
                folded.est.with_delta_table(Arc::new(tail))?
            }
        };
        Ok(self.over(est))
    }

    /// Answer one request.
    pub fn run(&self, request: &ExplainRequest) -> Result<ExplainResponse> {
        match request {
            ExplainRequest::Global => self.global().map(ExplainResponse::Global),
            ExplainRequest::ContextualGlobal { k } => {
                self.contextual_global(k).map(ExplainResponse::Global)
            }
            ExplainRequest::Contextual { attr, k } => {
                self.contextual(*attr, k).map(ExplainResponse::Contextual)
            }
            ExplainRequest::Local { row } => self.local(row).map(ExplainResponse::Local),
            ExplainRequest::Recourse {
                row,
                actionable,
                opts,
            } => self
                .recourse(row, actionable, opts)
                .map(ExplainResponse::Recourse),
        }
    }

    /// Answer many requests: each one exactly as [`Engine::run`]
    /// answers it alone, positionally aligned with `requests`. Work is
    /// shared through the engine's caches, not by grouping: repeated or
    /// overlapping `(intervened set, context)` passes are counted once,
    /// and each actionable set's recourse surrogate is fitted once.
    pub fn run_batch(&self, requests: &[ExplainRequest]) -> Vec<Result<ExplainResponse>> {
        requests.iter().map(|request| self.run(request)).collect()
    }

    /// Score `contrasts` within `k` through the engine's counting-pass
    /// cache: each intervened set's pass is counted once and shared
    /// with every later query that needs it.
    pub(crate) fn scores_batch(&self, contrasts: &[Contrast], k: &Context) -> Vec<Result<Scores>> {
        self.est
            .scores_batch_impl(contrasts, k, Some(&self.caches.passes))
    }

    /// Maximum scores over all ordered value pairs of `attr` within `k`.
    /// Pairs without data support are skipped; when **no** pair has
    /// support the scores are zero and `best_pair` is `None`.
    ///
    /// All pairs of one attribute intervene on the same attribute set,
    /// so they are scored off a single counting pass — served from the
    /// engine cache when a previous query already paid for it.
    pub fn attribute_scores(&self, attr: AttrId, k: &Context) -> Result<AttributeScores> {
        let order = self
            .value_order(attr)
            .ok_or_else(|| LewisError::Invalid(format!("{attr} is not an explained feature")))?;
        let pairs = ordered_pairs(order);
        let contrasts: Vec<Contrast> = pairs
            .iter()
            .map(|&(hi, lo)| Contrast::single(attr, hi, lo))
            .collect();
        let mut best = Scores::default();
        let mut best_pair: Option<(Value, Value)> = None;
        for (&(hi, lo), result) in pairs.iter().zip(self.scores_batch(&contrasts, k)) {
            match result {
                Ok(s) => {
                    if best_pair.is_none() || s.nesuf > best.nesuf {
                        best.nesuf = s.nesuf;
                        best_pair = Some((hi, lo));
                    }
                    best.necessity = best.necessity.max(s.necessity);
                    best.sufficiency = best.sufficiency.max(s.sufficiency);
                }
                Err(LewisError::Unsupported(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(AttributeScores {
            attr,
            name: self.est.table().schema().name(attr).to_string(),
            scores: best,
            best_pair,
        })
    }

    /// Global explanation (`K = ∅`, Figure 3).
    pub fn global(&self) -> Result<GlobalExplanation> {
        self.contextual_global(&Context::empty())
    }

    /// Global-shaped explanation within a context (used for Figure 4 and
    /// the sub-population audits). Attributes are scored in feature
    /// order and sorted with a total tie-break.
    pub fn contextual_global(&self, k: &Context) -> Result<GlobalExplanation> {
        let free: Vec<AttrId> = self
            .features
            .iter()
            .copied()
            .filter(|a| !k.constrains(*a))
            .collect();
        let mut attributes = free
            .iter()
            .map(|&a| self.attribute_scores(a, k))
            .collect::<Result<Vec<_>>>()?;
        attributes.sort_by(|x, y| {
            y.scores
                .nesuf
                .total_cmp(&x.scores.nesuf)
                .then_with(|| x.attr.cmp(&y.attr))
        });
        Ok(GlobalExplanation { attributes })
    }

    /// Contextual explanation of one attribute in one sub-population
    /// (Figure 4's bars).
    pub fn contextual(&self, attr: AttrId, k: &Context) -> Result<ContextualExplanation> {
        let scores = self.attribute_scores(attr, k)?.scores;
        Ok(ContextualExplanation {
            attr,
            context: k.clone(),
            scores,
        })
    }

    /// Local explanation for one individual (Figures 5–7), using the
    /// engine's configured `min_support` for the context back-off.
    ///
    /// For a **negative** outcome, an attribute's *negative* contribution
    /// is `max_{x > x'} SUF` (a better value would likely flip the
    /// decision) and its *positive* contribution is `max_{x'' < x'} SUF`
    /// (the current value already helps relative to worse ones). For a
    /// **positive** outcome the same roles are played by the necessity
    /// score (§3.2).
    pub fn local(&self, row: &[Value]) -> Result<LocalExplanation> {
        self.local_with_support(row, self.min_support)
    }

    /// [`Engine::local`] with an explicit back-off support floor.
    pub fn local_with_support(
        &self,
        row: &[Value],
        min_support: usize,
    ) -> Result<LocalExplanation> {
        let pred = self.est.pred_attr();
        if row.len() < self.est.table().schema().len() {
            return Err(LewisError::Invalid(format!(
                "row has {} values, schema needs {}",
                row.len(),
                self.est.table().schema().len()
            )));
        }
        let outcome = row[pred.index()];
        let favourable = outcome == self.est.positive();
        // Within one attribute, every value contrast is scored off a
        // single shared counting pass.
        let mut contributions = self
            .features
            .iter()
            .map(|&a| self.local_contribution(a, row, favourable, min_support))
            .collect::<Result<Vec<_>>>()?;
        contributions.sort_by(|x, y| {
            let mx = x.positive.max(x.negative);
            let my = y.positive.max(y.negative);
            my.total_cmp(&mx).then_with(|| x.attr.cmp(&y.attr))
        });
        Ok(LocalExplanation {
            outcome,
            contributions,
        })
    }

    /// Minimal-cost actionable recourse for `row` (§4.2). The
    /// logit-linear surrogate for `actionable` is served from the
    /// engine's surrogate cache — only the first query over a set pays
    /// the full-table fit; repeats (and pack-restored warm sets) reuse
    /// the coefficients bit-identically. Candidate actions are verified
    /// on counting passes from the engine's pass cache, like every
    /// other query's.
    pub fn recourse(
        &self,
        row: &[Value],
        actionable: &[AttrId],
        opts: &RecourseOptions,
    ) -> Result<Recourse> {
        // a bad actionable set, alpha or row fails before the fit
        let est = &self.est;
        surrogate_plan(est.table(), est.graph(), est.pred_attr(), actionable)?;
        check_request(est.table(), row, opts)?;
        let fit = self.surrogate_for(actionable)?;
        RecourseEngine::with_fit(self, actionable, fit)?.recourse(row, opts)
    }

    /// One attribute's local contribution (the §3.2 rules; see
    /// [`Engine::local`] for the positive/negative semantics).
    fn local_contribution(
        &self,
        a: AttrId,
        row: &[Value],
        favourable: bool,
        min_support: usize,
    ) -> Result<LocalContribution> {
        let order = self.value_order(a).expect("feature orders precomputed");
        let current = row[a.index()];
        let pos_rank = order.iter().position(|&v| v == current).ok_or_else(|| {
            LewisError::Invalid(format!(
                "row value {current} of attribute {a} is outside its domain"
            ))
        })?;
        let k = self.est.local_context(row, a, min_support);
        // values worse / better than current, per the inferred order;
        // every contrast shares the same attribute and context, so the
        // whole attribute costs one counting pass.
        let mut directions: Vec<bool> = Vec::with_capacity(order.len().saturating_sub(1));
        let mut contrasts: Vec<Contrast> = Vec::with_capacity(order.len().saturating_sub(1));
        for (rank, &v) in order.iter().enumerate() {
            if rank == pos_rank {
                continue;
            }
            let is_positive = rank < pos_rank;
            let (hi, lo) = if is_positive {
                (current, v)
            } else {
                (v, current)
            };
            directions.push(is_positive);
            contrasts.push(Contrast::single(a, hi, lo));
        }
        let mut positive = 0.0f64;
        let mut negative = 0.0f64;
        for (is_positive, result) in directions.iter().zip(self.scores_batch(&contrasts, &k)) {
            match result {
                Ok(s) => {
                    // positive outcome: NEC quantifies both directions;
                    // negative outcome: SUF does (§3.2)
                    let score = if favourable {
                        s.necessity
                    } else {
                        s.sufficiency
                    };
                    if *is_positive {
                        positive = positive.max(score);
                    } else {
                        negative = negative.max(score);
                    }
                }
                Err(LewisError::Unsupported(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        // A missing attribute is a caller error, not a silent blank.
        let label = self.est.table().schema().attr(a)?.domain.label(current);
        Ok(LocalContribution {
            attr: a,
            name: self.est.table().schema().name(a).to_string(),
            value: current,
            label,
            positive,
            negative,
        })
    }
}

/// Validate one snapshotted counting pass against the engine's schema
/// and freeze it back into the cache's internal representation. Every
/// structural invariant the scorer relies on (sortedness, arity,
/// domain-valid codes, consistent counts) is checked here, so a
/// snapshot that disagrees with its table can never be served from.
fn restore_pass(est: &ScoreEstimator, pass: PassSnapshot) -> Result<(PassKey, Arc<ArmTable>)> {
    let schema = est.table().schema();
    let invalid = |msg: String| LewisError::Invalid(format!("snapshot cache: {msg}"));
    let check_attr_set = |attrs: &[AttrId], what: &str| -> Result<()> {
        if attrs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(invalid(format!("{what} is not strictly ascending")));
        }
        for &a in attrs {
            schema.attr(a)?;
        }
        Ok(())
    };
    if pass.xs.is_empty() {
        return Err(invalid("pass intervenes on no attributes".into()));
    }
    check_attr_set(&pass.xs, "intervened set")?;
    check_attr_set(&pass.c_set, "adjustment set")?;
    for &x in &pass.xs {
        if x == est.pred_attr() {
            return Err(invalid(format!("pass intervenes on the prediction {x}")));
        }
        if pass.context.constrains(x) {
            return Err(invalid(format!("context constrains intervened {x}")));
        }
    }
    for (a, v) in pass.context.iter() {
        schema.check_value(a, v)?;
    }
    let mut cells = Vec::with_capacity(pass.cells.len());
    let mut total = 0u64;
    let mut prev_key: Option<&[Value]> = None;
    for cell in &pass.cells {
        if cell.key.len() != pass.c_set.len() {
            return Err(invalid(format!(
                "cell key has {} values for an adjustment set of {}",
                cell.key.len(),
                pass.c_set.len()
            )));
        }
        if prev_key.is_some_and(|p| p >= cell.key.as_slice()) {
            return Err(invalid("cells are not strictly sorted".into()));
        }
        prev_key = Some(&cell.key);
        for (&a, &v) in pass.c_set.iter().zip(&cell.key) {
            schema.check_value(a, v)?;
        }
        let mut arms = Vec::with_capacity(cell.arms.len());
        let mut arm_rows = 0u64;
        let mut prev_arm: Option<&[Value]> = None;
        for arm in &cell.arms {
            if arm.assignment.len() != pass.xs.len() {
                return Err(invalid(format!(
                    "arm has {} values for an intervened set of {}",
                    arm.assignment.len(),
                    pass.xs.len()
                )));
            }
            if prev_arm.is_some_and(|p| p >= arm.assignment.as_slice()) {
                return Err(invalid("arms are not strictly sorted".into()));
            }
            prev_arm = Some(&arm.assignment);
            for (&a, &v) in pass.xs.iter().zip(&arm.assignment) {
                schema.check_value(a, v)?;
            }
            if arm.positives > arm.rows {
                return Err(invalid(format!(
                    "arm counts {} positives out of {} rows",
                    arm.positives, arm.rows
                )));
            }
            // checked: crafted u64 counts must fail typed, not wrap
            // (release) or panic (debug) past the consistency checks
            arm_rows = arm_rows
                .checked_add(arm.rows)
                .ok_or_else(|| invalid("arm row counts overflow".into()))?;
            arms.push((arm.assignment.clone(), (arm.rows, arm.positives)));
        }
        if arm_rows != cell.rows {
            return Err(invalid(format!(
                "cell rows {} disagree with its arms' total {arm_rows}",
                cell.rows
            )));
        }
        total = total
            .checked_add(cell.rows)
            .ok_or_else(|| invalid("cell row counts overflow".into()))?;
        cells.push((cell.key.clone(), CellArms { n: cell.rows, arms }));
    }
    if total != pass.total {
        return Err(invalid(format!(
            "pass total {} disagrees with its cells' total {total}",
            pass.total
        )));
    }
    if total > est.n_total_rows() as u64 {
        return Err(invalid(format!(
            "pass counts {total} rows but the table has only {}",
            est.n_total_rows()
        )));
    }
    Ok((
        PassKey {
            xs: pass.xs,
            k: pass.context,
            c_set: pass.c_set,
        },
        Arc::new(ArmTable {
            cells,
            total: pass.total,
        }),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::label_table;
    use causal::scm::{Mechanism, ScmBuilder};
    use causal::Scm;
    use lewis_index::TableIndex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tabular::{Domain, Schema};

    /// Loan world: status (3 levels) and savings (2) cause approval;
    /// `hair` does not.
    fn world() -> Scm {
        let mut schema = Schema::new();
        schema.push("status", Domain::categorical(["bad", "ok", "good"]));
        schema.push("savings", Domain::categorical(["low", "high"]));
        schema.push("hair", Domain::boolean());
        let mut b = ScmBuilder::new(schema);
        b.edge(0, 1).unwrap();
        b.mechanism(0, Mechanism::root(vec![0.3, 0.4, 0.3]))
            .unwrap();
        b.mechanism(
            1,
            Mechanism::with_noise(vec![0.7, 0.3], |pa, u| {
                u32::from(pa[0] == 2) | (u as Value & u32::from(pa[0] == 1))
            }),
        )
        .unwrap();
        b.mechanism(2, Mechanism::root(vec![0.5, 0.5])).unwrap();
        b.build().unwrap()
    }

    fn approve(row: &[Value]) -> Value {
        u32::from(row[0] + row[1] >= 2)
    }

    fn setup(n: usize) -> (Table, AttrId) {
        let scm = world();
        let mut rng = StdRng::seed_from_u64(13);
        let mut t = scm.generate(n, &mut rng);
        let pred = label_table(&mut t, &approve, "pred").unwrap();
        (t, pred)
    }

    fn engine(n: usize) -> Engine {
        let (t, pred) = setup(n);
        let scm = world();
        Engine::builder(t)
            .graph(scm.graph())
            .prediction(pred, 1)
            .features(&[AttrId(0), AttrId(1), AttrId(2)])
            .alpha(0.0)
            .build()
            .unwrap()
    }

    #[test]
    fn engine_is_send_sync_and_unlifetimed() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<ScoreEstimator>();
    }

    #[test]
    fn builder_validates_configuration() {
        let (t, pred) = setup(200);
        let t = Arc::new(t);
        // missing prediction
        assert!(Engine::builder(Arc::clone(&t))
            .features(&[AttrId(0)])
            .build()
            .is_err());
        // missing features
        assert!(Engine::builder(Arc::clone(&t))
            .prediction(pred, 1)
            .build()
            .is_err());
        // empty features
        assert!(Engine::builder(Arc::clone(&t))
            .prediction(pred, 1)
            .features(&[])
            .build()
            .is_err());
        // features include the prediction
        assert!(Engine::builder(Arc::clone(&t))
            .prediction(pred, 1)
            .features(&[pred])
            .build()
            .is_err());
        // bad positive code / alpha delegate to the estimator checks
        assert!(Engine::builder(Arc::clone(&t))
            .prediction(pred, 2)
            .features(&[AttrId(0)])
            .build()
            .is_err());
        assert!(Engine::builder(Arc::clone(&t))
            .prediction(pred, 1)
            .features(&[AttrId(0)])
            .alpha(-1.0)
            .build()
            .is_err());
        // a valid configuration builds and shares the table (no copy)
        let e = Engine::builder(Arc::clone(&t))
            .prediction(pred, 1)
            .features(&[AttrId(0)])
            .build()
            .unwrap();
        assert_eq!(e.table().n_rows(), t.n_rows());
        // the (unsharded) estimator holds one shallow Arc clone, never
        // a copy of the column data
        assert_eq!(
            Arc::strong_count(&t),
            2,
            "builder must not deep-copy the Arc'd table"
        );
    }

    #[test]
    fn value_orders_are_exposed() {
        let (t, pred) = setup(5000);
        let e = Engine::builder(t)
            .prediction(pred, 1)
            .features(&[AttrId(0)])
            .alpha(0.0)
            .build()
            .unwrap();
        // approval rate rises with status level
        assert_eq!(e.value_order(AttrId(0)).unwrap(), &[0, 1, 2]);
        assert!(e.value_order(AttrId(1)).is_none());
    }

    #[test]
    fn contextual_scores_differ_across_groups() {
        let e = engine(20_000);
        // savings' effect inside status groups: with status=good the loan
        // is often approved regardless, so sufficiency of savings is
        // higher for ok-status than bad-status individuals
        let bad = e
            .contextual(AttrId(1), &Context::of([(AttrId(0), 0)]))
            .unwrap();
        let ok = e
            .contextual(AttrId(1), &Context::of([(AttrId(0), 1)]))
            .unwrap();
        assert!(
            ok.scores.sufficiency > bad.scores.sufficiency + 0.5,
            "ok {} vs bad {}",
            ok.scores.sufficiency,
            bad.scores.sufficiency
        );
    }

    #[test]
    fn contextual_global_skips_constrained_attribute() {
        let g = engine(5000)
            .contextual_global(&Context::of([(AttrId(0), 2)]))
            .unwrap();
        assert!(g.attributes.iter().all(|a| a.attr != AttrId(0)));
    }

    #[test]
    fn local_with_support_steers_the_context_back_off() {
        let e = engine(3000);
        let row = e.table().row(0).unwrap();
        let default_support = e.local(&row).unwrap();
        assert_eq!(
            default_support,
            e.local_with_support(&row, e.min_support()).unwrap()
        );
        // an impossible support floor forces every local context to
        // back off to empty — the outcome and attribute set stay
        let no_support = e.local_with_support(&row, e.table().n_rows() + 1).unwrap();
        assert_eq!(default_support.outcome, no_support.outcome);
        assert_eq!(
            no_support.contributions.len(),
            default_support.contributions.len()
        );
    }

    #[test]
    fn shard_setting_threads_through_build_snapshot_restore() {
        let (t, pred) = setup(500);
        let e = Engine::builder(t)
            .prediction(pred, 1)
            .features(&[AttrId(0), AttrId(1)])
            .shards(4)
            .build()
            .unwrap();
        assert_eq!(e.shards(), 4);
        let snap = e.snapshot();
        assert_eq!(snap.shards, 4);
        let restored = Engine::restore(snap).unwrap();
        assert_eq!(restored.shards(), 4);
        // zero clamps to one at the builder (a layout setting, not an
        // untrusted input)
        let (t, pred) = setup(100);
        let e1 = Engine::builder(t)
            .prediction(pred, 1)
            .features(&[AttrId(0)])
            .shards(0)
            .build()
            .unwrap();
        assert_eq!(e1.shards(), 1);
    }

    #[test]
    fn index_setting_threads_through_build_snapshot_restore() {
        let (t, pred) = setup(500);
        let e = Engine::builder(t)
            .prediction(pred, 1)
            .features(&[AttrId(0), AttrId(1)])
            .index(true)
            .build()
            .unwrap();
        assert!(e.index_enabled());
        assert!(e.index_memory_bytes() > 0);
        let snap = e.snapshot();
        assert!(snap.index.is_some());
        let restored = Engine::restore(snap).unwrap();
        assert!(restored.index_enabled());
        assert_eq!(e.global().unwrap(), restored.global().unwrap());
        // an index paired with the wrong table is rejected, not served
        let mut bad = e.snapshot();
        let (other, _) = setup(123);
        bad.table = Arc::new(other);
        assert!(Engine::restore(bad).is_err());
    }

    #[test]
    fn indexed_engines_answer_bit_identically() {
        let (t, pred) = setup(3000);
        let t = Arc::new(t);
        let build = |indexed: bool| {
            Engine::builder(Arc::clone(&t))
                .prediction(pred, 1)
                .features(&[AttrId(0), AttrId(1), AttrId(2)])
                .index(indexed)
                .build()
                .unwrap()
        };
        let plain = build(false);
        let indexed = build(true);
        assert!(!plain.index_enabled());
        assert!(indexed.index_enabled());
        assert_eq!(plain.global().unwrap(), indexed.global().unwrap());
        let row = t.row(0).unwrap();
        assert_eq!(plain.local(&row).unwrap(), indexed.local(&row).unwrap());
        let k = Context::of([(AttrId(0), 1)]);
        assert_eq!(
            plain.contextual(AttrId(1), &k).unwrap(),
            indexed.contextual(AttrId(1), &k).unwrap()
        );
    }

    #[test]
    fn run_matches_direct_methods() {
        let e = engine(5000);
        let k = Context::of([(AttrId(0), 1)]);
        let row = e.table().row(0).unwrap();

        let g = e
            .run(&ExplainRequest::Global)
            .unwrap()
            .into_global()
            .unwrap();
        assert_eq!(g, e.global().unwrap());
        let cg = e
            .run(&ExplainRequest::ContextualGlobal { k: k.clone() })
            .unwrap()
            .into_global()
            .unwrap();
        assert_eq!(cg, e.contextual_global(&k).unwrap());
        let c = e
            .run(&ExplainRequest::Contextual {
                attr: AttrId(1),
                k: k.clone(),
            })
            .unwrap()
            .into_contextual()
            .unwrap();
        assert_eq!(c, e.contextual(AttrId(1), &k).unwrap());
        let l = e
            .run(&ExplainRequest::Local { row: row.clone() })
            .unwrap()
            .into_local()
            .unwrap();
        assert_eq!(l, e.local(&row).unwrap());
    }

    #[test]
    fn run_batch_is_positional_and_reuses_passes() {
        let e = engine(5000);
        let k = Context::of([(AttrId(0), 1)]);
        let mut requests = Vec::new();
        for _ in 0..10 {
            requests.push(ExplainRequest::Contextual {
                attr: AttrId(1),
                k: k.clone(),
            });
            requests.push(ExplainRequest::Contextual {
                attr: AttrId(2),
                k: k.clone(),
            });
        }
        let responses = e.run_batch(&requests);
        assert_eq!(responses.len(), requests.len());
        let first = responses[0]
            .as_ref()
            .unwrap()
            .clone()
            .into_contextual()
            .unwrap();
        for r in responses.iter().step_by(2) {
            assert_eq!(
                first,
                r.as_ref().unwrap().clone().into_contextual().unwrap(),
                "repeated requests must agree"
            );
        }
        let stats = e.cache_stats();
        assert!(
            stats.hits >= 18,
            "20 repeated queries over 2 keys must mostly hit, got {stats:?}"
        );
        assert_eq!(stats.misses, 2, "one pass per distinct (attr, context)");
    }

    #[test]
    fn cached_scores_equal_cold_scores_bitwise() {
        let cold = engine(5000);
        let warm = engine(5000);
        let contexts = [
            Context::empty(),
            Context::of([(AttrId(0), 0)]),
            Context::of([(AttrId(0), 2)]),
        ];
        // warm the second engine with one full sweep, then compare a
        // second sweep (all hits) against the first engine's cold run
        for k in &contexts {
            for a in [AttrId(1), AttrId(2)] {
                if k.constrains(a) {
                    continue;
                }
                let _ = warm.attribute_scores(a, k).unwrap();
            }
        }
        for k in &contexts {
            for a in [AttrId(1), AttrId(2)] {
                if k.constrains(a) {
                    continue;
                }
                let c = cold.attribute_scores(a, k).unwrap();
                let w = warm.attribute_scores(a, k).unwrap();
                assert_eq!(c, w, "warm result must be bit-identical for {a} in {k:?}");
                assert_eq!(c.scores.nesuf.to_bits(), w.scores.nesuf.to_bits());
                assert_eq!(c.scores.necessity.to_bits(), w.scores.necessity.to_bits());
                assert_eq!(
                    c.scores.sufficiency.to_bits(),
                    w.scores.sufficiency.to_bits()
                );
            }
        }
        assert!(warm.cache_stats().hits > 0);
    }

    #[test]
    fn global_ranks_causal_attributes_above_noise() {
        let e = engine(20_000);
        let g = e.global().unwrap();
        assert_eq!(g.attributes.len(), 3);
        let last = g.attributes.last().unwrap();
        assert_eq!(last.attr, AttrId(2));
        assert!(last.scores.nesuf < 0.05);
        assert_eq!(g.attributes[0].attr, AttrId(0));
        assert!(g.attributes[0].scores.sufficiency > 0.3);
        assert_eq!(g.rank_by(AttrId(0), |s| s.nesuf), Some(1));
        assert_eq!(g.rank_by(AttrId(2), |s| s.nesuf), Some(3));
        // every scored attribute carries its maximizing contrast
        for a in &g.attributes {
            assert!(a.best_pair.is_some(), "{} has support", a.name);
        }
    }

    #[test]
    fn local_explanations_flag_improvable_attributes() {
        let e = engine(20_000);
        let rejected = e.local(&[0, 0, 0, 0]).unwrap();
        assert_eq!(rejected.outcome, 0);
        let status = rejected
            .contributions
            .iter()
            .find(|c| c.attr == AttrId(0))
            .unwrap();
        assert!(
            status.negative > 0.5,
            "raising bad status is sufficient: {}",
            status.negative
        );
        assert!(status.positive < 0.1);
        let approved = e.local(&[2, 1, 0, 1]).unwrap();
        assert_eq!(approved.outcome, 1);
        let status_a = approved
            .contributions
            .iter()
            .find(|c| c.attr == AttrId(0))
            .unwrap();
        assert!(
            status_a.positive > 0.5,
            "good status is necessary: {}",
            status_a.positive
        );
    }

    #[test]
    fn local_validates_row_shape_and_domain() {
        let e = engine(500);
        assert!(e.local(&[0, 0]).is_err(), "short row");
        assert!(e.local(&[9, 0, 0, 0]).is_err(), "out-of-domain value");
    }

    #[test]
    fn recourse_request_round_trips() {
        let e = engine(20_000);
        let opts = RecourseOptions {
            alpha: 0.6,
            ..RecourseOptions::default()
        };
        let direct = e.recourse(&[0, 0, 0, 0], &[AttrId(0), AttrId(1)], &opts);
        let via_batch = e
            .run_batch(&[ExplainRequest::Recourse {
                row: vec![0, 0, 0, 0],
                actionable: vec![AttrId(0), AttrId(1)],
                opts,
            }])
            .remove(0);
        match (direct, via_batch) {
            (Ok(d), Ok(r)) => assert_eq!(Some(d), r.into_recourse()),
            (Err(d), Err(r)) => assert_eq!(format!("{d}"), format!("{r}")),
            (d, r) => panic!("direct {d:?} vs batch {r:?}"),
        }
    }

    #[test]
    fn recourse_rejects_a_bad_row_or_alpha_before_fitting_a_surrogate() {
        let e = engine(2000);
        let actionable = [AttrId(0), AttrId(1)];
        let defaults = RecourseOptions::default();
        let bad_alpha = RecourseOptions {
            alpha: 1.5,
            ..RecourseOptions::default()
        };
        let invalid = |row: &[Value], actionable: &[AttrId], opts, expected: &str| match e
            .recourse(row, actionable, opts)
        {
            Err(LewisError::Invalid(m)) => assert!(m.contains(expected), "{m}"),
            other => panic!("{row:?}: expected Invalid, got {other:?}"),
        };
        invalid(&[0, 99, 0, 0], &actionable, &defaults, "outside its domain");
        invalid(&[0, 0], &actionable, &defaults, "row too short");
        invalid(&[0, 0, 0, 0], &actionable, &bad_alpha, "alpha must be");
        // a bad actionable set still reports before a bad row
        invalid(
            &[0, 99, 0, 0],
            &[AttrId(0), AttrId(0)],
            &defaults,
            "listed twice",
        );
        assert_eq!(e.surrogate_stats().misses, 0, "no surrogate was fitted");
        let _ = e.recourse(&[0, 0, 0, 0], &actionable, &defaults);
        assert_eq!(e.surrogate_stats().misses, 1);
    }

    #[test]
    fn snapshot_restore_is_bit_identical_and_keeps_the_cache_warm() {
        let donor = engine(5000);
        // warm the donor with a realistic mix
        let k = Context::of([(AttrId(0), 1)]);
        let _ = donor.global().unwrap();
        let _ = donor.contextual_global(&k).unwrap();
        let row = donor.table().row(0).unwrap();
        let _ = donor.local(&row).unwrap();
        let donor_stats = donor.cache_stats();
        assert!(donor_stats.entries > 0, "warm-up must populate the cache");

        let restored = Engine::restore(donor.snapshot()).unwrap();
        // cache state carried over: entries resident, counters continue
        let restored_stats = restored.cache_stats();
        assert_eq!(restored_stats.entries, donor_stats.entries);
        assert_eq!(restored_stats.hits, donor_stats.hits);
        assert_eq!(restored_stats.misses, donor_stats.misses);
        assert_eq!(restored_stats.capacity, donor_stats.capacity);

        // every query kind answers identically, to the bit
        let g_d = donor.global().unwrap();
        let g_r = restored.global().unwrap();
        assert_eq!(g_d, g_r);
        for (d, r) in g_d.attributes.iter().zip(&g_r.attributes) {
            assert_eq!(d.scores.nesuf.to_bits(), r.scores.nesuf.to_bits());
            assert_eq!(d.scores.necessity.to_bits(), r.scores.necessity.to_bits());
            assert_eq!(
                d.scores.sufficiency.to_bits(),
                r.scores.sufficiency.to_bits()
            );
        }
        assert_eq!(
            donor.contextual(AttrId(1), &k).unwrap(),
            restored.contextual(AttrId(1), &k).unwrap()
        );
        assert_eq!(donor.local(&row).unwrap(), restored.local(&row).unwrap());
        // the restored cache *hits* on the donor's warm keys
        let before = restored.cache_stats().hits;
        let _ = restored.contextual_global(&k).unwrap();
        assert!(
            restored.cache_stats().hits > before,
            "restored cache must serve warm keys without re-scanning"
        );
        // and a snapshot of the restored engine round-trips the cache
        let again = donor.snapshot();
        let re_snap = restored.snapshot();
        assert_eq!(again.cache.passes.len(), donor_stats.entries);
        assert_eq!(re_snap.orders, again.orders);
        assert_eq!(re_snap.features, again.features);
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let donor = engine(500);
        let _ = donor.global().unwrap();
        let base = donor.snapshot();

        // empty features
        let mut s = base.clone();
        s.features.clear();
        s.orders = vec![None; s.orders.len()];
        assert!(Engine::restore(s).is_err());

        // order missing for a feature
        let mut s = base.clone();
        s.orders[0] = None;
        assert!(Engine::restore(s).is_err());

        // order that is not a permutation of the domain
        let mut s = base.clone();
        s.orders[0] = Some(vec![0, 0, 1]);
        assert!(Engine::restore(s).is_err());

        // order arity mismatching the schema
        let mut s = base.clone();
        s.orders.pop();
        assert!(Engine::restore(s).is_err());

        // a cache pass with out-of-domain codes
        let mut s = base.clone();
        if let Some(pass) = s.cache.passes.first_mut() {
            if let Some(cell) = pass.cells.first_mut() {
                if let Some(arm) = cell.arms.first_mut() {
                    arm.assignment[0] = 99;
                }
            }
            assert!(Engine::restore(s).is_err());
        }

        // a duplicated feature (would score the same attribute twice)
        let mut s = base.clone();
        s.features.push(s.features[0]);
        assert!(Engine::restore(s).is_err());

        // an out-of-range shard count (only reachable from a crafted
        // snapshot — with_shards clamps; restore must reject, not size
        // allocations from it)
        let mut s = base.clone();
        s.shards = 0;
        assert!(Engine::restore(s).is_err());
        let mut s = base.clone();
        s.shards = tabular::MAX_SHARDS + 1;
        assert!(Engine::restore(s).is_err());

        // a non-finite smoothing constant from an untrusted config
        let mut s = base.clone();
        s.alpha = f64::NAN;
        assert!(Engine::restore(s).is_err());
        let mut s = base.clone();
        s.alpha = f64::INFINITY;
        assert!(Engine::restore(s).is_err());

        // a cache pass with inconsistent counts
        let mut s = base.clone();
        if let Some(pass) = s.cache.passes.first_mut() {
            pass.total += 1;
            assert!(Engine::restore(s).is_err());
        }

        // the untouched snapshot still restores fine
        assert!(Engine::restore(base).is_ok());
    }

    /// Split a labelled table into a frozen base and a delta of appended
    /// rows (same schema).
    fn split(full: &Table, n_base: usize) -> (Table, Table) {
        let mut base = Table::new(full.schema().clone());
        let mut delta = Table::new(full.schema().clone());
        for r in 0..full.n_rows() {
            let row = full.row(r).unwrap();
            if r < n_base {
                base.push_row(&row).unwrap();
            } else {
                delta.push_row(&row).unwrap();
            }
        }
        (base, delta)
    }

    /// The rows `range` of `t`, as an append batch.
    fn rows(t: &Table, range: std::ops::Range<usize>) -> Vec<Vec<Value>> {
        range.map(|r| t.row(r).unwrap()).collect()
    }

    #[test]
    fn with_delta_answers_like_a_cold_build_over_the_concatenated_table() {
        let (full, pred) = setup(3000);
        let (base, delta) = split(&full, 2500);
        let scm = world();
        for (shards, index) in [(1, false), (4, true)] {
            let build = |t: Table| {
                Engine::builder(t)
                    .graph(scm.graph())
                    .prediction(pred, 1)
                    .features(&[AttrId(0), AttrId(1), AttrId(2)])
                    .alpha(0.0)
                    .shards(shards)
                    .index(index)
                    .build()
                    .unwrap()
            };
            let cold = build(full.clone());
            let live = build(base.clone())
                .with_delta(&rows(&delta, 0..500))
                .unwrap();
            assert_eq!(live.total_rows(), cold.table().n_rows());
            assert_eq!(live.delta_rows(), delta.n_rows());
            for &a in cold.features() {
                assert_eq!(live.value_order(a), cold.value_order(a), "order of {a}");
            }
            // every query kind, bit for bit
            assert_eq!(live.global().unwrap(), cold.global().unwrap());
            let k = Context::of([(AttrId(0), 1)]);
            assert_eq!(
                live.contextual_global(&k).unwrap(),
                cold.contextual_global(&k).unwrap()
            );
            assert_eq!(
                live.contextual(AttrId(1), &k).unwrap(),
                cold.contextual(AttrId(1), &k).unwrap()
            );
            let row = full.row(7).unwrap();
            assert_eq!(live.local(&row).unwrap(), cold.local(&row).unwrap());
            let opts = RecourseOptions::default();
            assert_eq!(
                live.recourse(&row, &[AttrId(0), AttrId(1)], &opts).unwrap(),
                cold.recourse(&row, &[AttrId(0), AttrId(1)], &opts).unwrap()
            );
        }
    }

    #[test]
    fn with_delta_tops_up_cached_passes_and_refits_surrogates_from_the_new_rows() {
        let (full, pred) = setup(1600);
        let scm = world();
        let build = |t: Table| {
            Engine::builder(t)
                .graph(scm.graph())
                .prediction(pred, 1)
                .features(&[AttrId(0), AttrId(1), AttrId(2)])
                .alpha(0.0)
                .build()
                .unwrap()
        };
        let k0 = Context::of([(AttrId(0), 0)]);
        let k2 = Context::of([(AttrId(0), 2)]);
        let row = full.row(7).unwrap();
        let opts = RecourseOptions::default();
        let answers = |e: &Engine| {
            (
                e.global().unwrap(),
                e.contextual_global(&k0).unwrap(),
                e.contextual_global(&k2).unwrap(),
                e.recourse(&row, &[AttrId(0), AttrId(1)], &opts).unwrap(),
            )
        };
        let mut live = build(split(&full, 1000).0);
        let _ = answers(&live);
        // the delta grows in two steps; each generation extends the last
        for total in [1300, 1600] {
            let (served, _) = split(&full, total);
            let donor = live;
            live = donor
                .with_delta(&rows(&full, donor.total_rows()..total))
                .unwrap();
            // the head's child shares its caches: nothing is dropped
            assert!(Arc::ptr_eq(&live.caches, &donor.caches));
            let (before, s_before) = (live.cache_stats(), live.surrogate_stats());
            assert_eq!(answers(&live), answers(&build(served)), "{total} rows");
            // every pass was topped up with the new rows: all hits
            let after = live.cache_stats();
            assert_eq!(after.misses, before.misses, "no full pass at {total} rows");
            assert!(after.hits > before.hits);
            assert_eq!(after.topped_up - before.topped_up, before.entries as u64);
            assert_eq!(after.entries, before.entries);
            // the surrogate refit once, from its kept patterns
            assert_eq!(live.surrogate_stats().misses, s_before.misses + 1);
            assert_eq!(live.surrogate_stats().topped_up, s_before.topped_up + 1);
            let _ = answers(&live);
            assert_eq!(live.surrogate_stats().misses, s_before.misses + 1);
            assert_eq!(live.cache_stats().misses, before.misses);
        }
    }

    #[test]
    fn recourse_verification_counts_through_the_pass_cache() {
        let (full, pred) = setup(1600);
        let (base, _) = split(&full, 1300);
        let scm = world();
        let build = |t: Table| {
            Engine::builder(t)
                .graph(scm.graph())
                .prediction(pred, 1)
                .features(&[AttrId(0), AttrId(1), AttrId(2)])
                .alpha(0.0)
                .build()
                .unwrap()
        };
        // a rejected applicant: bad status, low savings
        let row = [0, 0, 0, 0];
        let actionable = [AttrId(0), AttrId(1)];
        let opts = RecourseOptions::default();
        let engine = build(base);
        assert_eq!(engine.cache_stats().misses, 0);
        let answer = engine.recourse(&row, &actionable, &opts).unwrap();
        assert!(answer.verified_sufficiency.is_some(), "{answer:?}");
        // each distinct verification pass is counted once and stays
        let cold = engine.cache_stats();
        assert!(cold.misses > 0);
        assert_eq!(cold.misses, cold.entries as u64);
        // a repeat verifies from resident passes only
        assert_eq!(engine.recourse(&row, &actionable, &opts).unwrap(), answer);
        let warm = engine.cache_stats();
        assert_eq!(warm.misses, cold.misses);
        assert!(warm.hits > cold.hits);
        // appended rows top the verification passes up
        let live = engine.with_delta(&rows(&full, 1300..1600)).unwrap();
        let before = live.cache_stats();
        assert_eq!(
            live.recourse(&row, &actionable, &opts).unwrap(),
            build(full).recourse(&row, &actionable, &opts).unwrap()
        );
        assert!(live.cache_stats().topped_up > before.topped_up);
    }

    #[test]
    fn top_ups_walk_the_index_and_scan_rows_only_where_it_declines() {
        let (full, pred) = setup(1600);
        let (base, _) = split(&full, 1300);
        let scm = world();
        let build = |t: Table, shards: usize| {
            Engine::builder(t)
                .graph(scm.graph())
                .prediction(pred, 1)
                .features(&[AttrId(0), AttrId(1), AttrId(2)])
                .alpha(0.0)
                .shards(shards)
                .build()
                .unwrap()
        };
        let mut answers = Vec::new();
        for shards in [1, 2] {
            let engine = build(base.clone(), shards);
            let _ = engine.global().unwrap();
            let live = engine.with_delta(&rows(&full, 1300..1600)).unwrap();
            let before = live.cache_stats();
            answers.push(format!("{:?}", live.global().unwrap()));
            let after = live.cache_stats();
            let topped = after.topped_up - before.topped_up;
            assert!(topped > 0, "the warm passes are topped up");
            assert_eq!(after.misses, before.misses);
            let scanned = after.topup_rows_scanned - before.topup_rows_scanned;
            // every pass grid is under the gate, and the 300 new rows
            // are the delta's: its own one-shard index walks them
            // whatever the base's shard count
            assert_eq!(scanned, 0, "{shards} shards");
        }
        assert_eq!(answers[0], answers[1]);
        assert_eq!(
            answers[0],
            format!("{:?}", build(full, 1).global().unwrap())
        );
    }

    #[test]
    fn compaction_folds_the_delta_without_changing_answers() {
        let (full, pred) = setup(1500);
        let (base, _) = split(&full, 1200);
        let scm = world();
        let live = Engine::builder(base)
            .graph(scm.graph())
            .prediction(pred, 1)
            .features(&[AttrId(0), AttrId(1), AttrId(2)])
            .alpha(0.0)
            .index(true)
            .build()
            .unwrap()
            .with_delta(&rows(&full, 1200..1500))
            .unwrap();
        let k = Context::of([(AttrId(0), 1)]);
        let g = live.global().unwrap();
        let c = live.contextual_global(&k).unwrap();
        let warm = live.cache_stats();

        let folded = live.compacted().unwrap();
        assert_eq!(folded.delta_rows(), 0);
        assert_eq!(folded.total_rows(), live.total_rows());
        assert_eq!(folded.table().n_rows(), full.n_rows());
        assert!(folded.index_enabled(), "compaction folds the index");
        let rebuilt = TableIndex::build(folded.table(), 1).unwrap();
        assert_eq!(folded.estimator().index().map(|i| &**i), Some(&rebuilt));
        // the fold shares the warm caches, and they still answer warm
        assert_eq!(folded.cache_stats(), warm);
        let before = folded.cache_stats();
        assert_eq!(folded.global().unwrap(), g);
        assert_eq!(folded.contextual_global(&k).unwrap(), c);
        assert!(
            folded.cache_stats().hits > before.hits,
            "compaction must not cool the cache"
        );
        assert_eq!(
            folded.cache_stats().misses,
            before.misses,
            "warm passes must not re-count after compaction"
        );
    }

    /// An indexed engine over `t` with the test world's graph.
    fn build_over(t: Table, pred: AttrId) -> Engine {
        Engine::builder(t)
            .graph(world().graph())
            .prediction(pred, 1)
            .features(&[AttrId(0), AttrId(1), AttrId(2)])
            .alpha(0.0)
            .build()
            .unwrap()
    }

    /// Every query kind's answer for `e`, as bytes to compare.
    fn answers(e: &Engine, row: &[Value]) -> String {
        let k = Context::of([(AttrId(0), 1)]);
        let opts = RecourseOptions::default();
        format!(
            "{:?}",
            (
                e.global().unwrap(),
                e.contextual_global(&k).unwrap(),
                e.local(row).unwrap(),
                e.recourse(row, &[AttrId(0), AttrId(1)], &opts).unwrap(),
            )
        )
    }

    #[test]
    fn a_fit_finishing_on_a_replaced_generation_seeds_the_next_refit() {
        let (full, pred) = setup(1600);
        let (base, _) = split(&full, 1000);
        let g = build_over(base, pred);
        // an append publishes g1 before the work already running on g
        // inserts its fit and its pass
        let g1 = g.with_delta(&rows(&full, 1000..1300)).unwrap();
        let actionable = [AttrId(0), AttrId(1)];
        g.prepare_surrogate(&actionable).unwrap();
        let _ = g.global().unwrap();
        let (passes, fits) = (g1.cache_stats(), g1.surrogate_stats());
        assert_eq!((fits.misses, fits.topped_up), (1, 0), "g's full fit");
        // g1 refits from g's watermark: it groups only its 300 new rows,
        // and its passes top up from g's
        g1.prepare_surrogate(&actionable).unwrap();
        let _ = g1.global().unwrap();
        let s = g1.surrogate_stats();
        assert_eq!((s.misses, s.topped_up), (2, 1), "one full fit in all");
        let s = g1.cache_stats();
        assert_eq!(s.misses, passes.misses, "no full pass on g1");
        assert!(s.topped_up > passes.topped_up);
        let row = full.row(7).unwrap();
        assert_eq!(
            answers(&g1, &row),
            answers(&build_over(split(&full, 1300).0, pred), &row)
        );
    }

    #[test]
    fn work_on_a_generation_published_mid_fold_survives_the_fold() {
        let (full, pred) = setup(1600);
        let (base, _) = split(&full, 1000);
        let g0 = build_over(base, pred)
            .with_delta(&rows(&full, 1000..1300))
            .unwrap();
        // the fold starts from g0 while an append publishes g1
        let folded = g0.compacted().unwrap();
        let g1 = g0.with_delta(&rows(&full, 1300..1600)).unwrap();
        let row = full.row(7).unwrap();
        let warm = answers(&g1, &row);
        // publishing the fold re-expresses g1 over the folded base
        let head = g1.rebased_onto(&folded).unwrap();
        assert_eq!((head.table().n_rows(), head.delta_rows()), (1300, 300));
        let (passes, fits) = (head.cache_stats(), head.surrogate_stats());
        assert_eq!(answers(&head, &row), warm);
        let s = head.cache_stats();
        assert_eq!(s.misses, passes.misses, "g1's passes are resident");
        assert_eq!(s.topped_up, passes.topped_up);
        let s = head.surrogate_stats();
        assert_eq!(
            (s.hits, s.misses),
            (fits.hits + 1, fits.misses),
            "g1's fit too"
        );
        assert_eq!(warm, answers(&build_over(full.clone(), pred), &row));
        // a fold past this generation's rows, or of another table, is
        // refused
        assert!(g0.rebased_onto(&g1.compacted().unwrap()).is_err());
        let other = build_over(full, pred).compacted().unwrap();
        assert!(head.rebased_onto(&other).is_err());
    }

    #[test]
    fn two_deltas_on_one_parent_each_answer_like_their_own_cold_build() {
        let (full, pred) = setup(1600);
        let (base, rest) = split(&full, 1000);
        // equal-size deltas: their caches' watermarks would collide
        let (a, b) = split(&rest, 300);
        let parent = build_over(base.clone(), pred);
        let row = full.row(7).unwrap();
        let _ = answers(&parent, &row);
        let fork_a = parent.with_delta(&rows(&a, 0..300)).unwrap();
        let fork_b = parent.with_delta(&rows(&b, 0..300)).unwrap();
        assert_eq!(fork_b.cache_stats().hits + fork_b.cache_stats().misses, 0);
        for (fork, delta) in [(fork_a, a), (fork_b, b)] {
            let mut table = base.clone();
            for r in 0..delta.n_rows() {
                table.push_row(&delta.row(r).unwrap()).unwrap();
            }
            let cold = answers(&build_over(table, pred), &row);
            assert_eq!(answers(&fork, &row), cold);
            assert_eq!(answers(&fork, &row), cold, "warm");
        }
    }

    /// The delta rows' bitmap index of a live engine.
    fn delta_index(e: &Engine) -> Option<&TableIndex> {
        e.est.parts().nth(1).and_then(|part| part.index.as_deref())
    }

    #[test]
    fn a_live_engine_grown_batch_by_batch_counts_supports_and_orders_like_a_cold_build() {
        let (full, pred) = setup(3000);
        // contexts over every attribute subset of a spread of rows
        let contexts: Vec<Context> = (0..13)
            .flat_map(|i| {
                let row = full.row(i * 229).unwrap();
                (0..16u32).map(move |subset| {
                    let attrs = (0..4u32).filter(|a| subset >> a & 1 == 1);
                    Context::of(attrs.map(|a| (AttrId(a), row[a as usize])))
                })
            })
            .collect();
        for (shards, index) in [(1, true), (2, true), (1, false)] {
            let build = |t: Table| {
                Engine::builder(t)
                    .graph(world().graph())
                    .prediction(pred, 1)
                    .features(&[AttrId(0), AttrId(1), AttrId(2)])
                    .alpha(0.0)
                    .shards(shards)
                    .index(index)
                    .build()
                    .unwrap()
            };
            let mut live = build(split(&full, 2000).0);
            for batch in [300, 1, 63, 65, 71, 500] {
                let total = live.total_rows() + batch;
                live = live
                    .with_delta(&rows(&full, live.total_rows()..total))
                    .unwrap();
                let (served, _) = split(&full, total);
                let what = format!("{total} rows, {shards} shards, index {index}");
                for ctx in &contexts {
                    let n = served.count(ctx);
                    for min in [n.saturating_sub(1), n, n + 1] {
                        let got = live.est.has_support(ctx, min);
                        assert_eq!(got, n >= min, "{what}, {ctx:?}, min {min}");
                    }
                }
                let (_, delta) = split(&served, 2000);
                let want = index.then(|| TableIndex::build(&delta, 1).unwrap());
                assert!(delta_index(&live) == want.as_ref(), "{what}");
                let cold = build(served);
                assert_eq!(live.order_stats, cold.order_stats, "{what}");
                assert_eq!(live.orders, cold.orders, "{what}");
            }
        }
    }

    #[test]
    fn a_delta_crossing_its_cube_gate_answers_like_cold_builds_before_and_after_a_fold() {
        // the joint grid has 3 × 2 × 2 × 2 = 24 cells: the delta keeps a
        // cube from its 24th row on, the 200-row base from the start
        let (full, pred) = setup(300);
        let row = full.row(7).unwrap();
        let mut live = build_over(split(&full, 200).0, pred);
        let _ = answers(&live, &row);
        for batch in [10, 10, 10, 70] {
            let total = live.total_rows() + batch;
            live = live
                .with_delta(&rows(&full, live.total_rows()..total))
                .unwrap();
            let cells = delta_index(&live).map(TableIndex::cube_cells);
            let want = if live.delta_rows() >= 24 { 24 } else { 0 };
            assert_eq!(cells, Some(want), "{} delta rows", live.delta_rows());
            let cold = build_over(split(&full, total).0, pred);
            assert_eq!(answers(&live, &row), answers(&cold, &row), "{total} rows");
        }
        let folded = live.compacted().unwrap();
        let rebuilt = TableIndex::build(&full, 1).unwrap();
        assert_eq!(folded.estimator().index().map(|i| &**i), Some(&rebuilt));
        assert_eq!(
            answers(&folded, &row),
            answers(&build_over(full, pred), &row)
        );
    }

    #[test]
    fn index_memory_counts_the_delta_index_and_a_fold_equals_a_rebuild() {
        let (full, pred) = setup(1500);
        let engine = build_over(split(&full, 1200).0, pred);
        let base_bytes = engine.index_memory_bytes();
        let live = engine.with_delta(&rows(&full, 1200..1500)).unwrap();
        assert!(live.index_memory_bytes() > base_bytes);
        assert_eq!(
            live.index_memory_bytes(),
            base_bytes + delta_index(&live).unwrap().memory_bytes()
        );
        let folded = live.compacted().unwrap();
        let rebuilt = TableIndex::build(&full, 1).unwrap();
        assert_eq!(folded.index_memory_bytes(), rebuilt.memory_bytes());
        assert_eq!(folded.index_cube_cells(), rebuilt.cube_cells());
    }

    #[test]
    fn snapshot_restore_round_trips_a_live_engine_mid_stream() {
        let (full, pred) = setup(1500);
        let (base, _) = split(&full, 1200);
        let scm = world();
        let live = Engine::builder(base)
            .graph(scm.graph())
            .prediction(pred, 1)
            .features(&[AttrId(0), AttrId(1), AttrId(2)])
            .alpha(0.0)
            .index(true)
            .build()
            .unwrap()
            .with_delta(&rows(&full, 1200..1500))
            .unwrap();
        let k = Context::of([(AttrId(0), 1)]);
        let _ = live.global().unwrap();
        let _ = live.contextual_global(&k).unwrap();

        let snap = live.snapshot();
        assert!(snap.delta.is_some(), "snapshot must carry the delta shard");
        let restored = Engine::restore(snap).unwrap();
        assert_eq!(restored.delta_rows(), live.delta_rows());
        assert_eq!(restored.total_rows(), live.total_rows());
        assert_eq!(restored.cache_stats().entries, live.cache_stats().entries);
        assert_eq!(restored.global().unwrap(), live.global().unwrap());
        assert_eq!(
            restored.contextual_global(&k).unwrap(),
            live.contextual_global(&k).unwrap()
        );
        let row = full.row(3).unwrap();
        assert_eq!(restored.local(&row).unwrap(), live.local(&row).unwrap());

        // a delta that disagrees with the base schema is rejected
        let mut bad = live.snapshot();
        let (other, _) = setup(50);
        bad.delta = Some(Arc::new(other));
        assert!(Engine::restore(bad).is_err());
    }

    #[test]
    fn run_batch_distributes_recourse_build_errors_per_request() {
        let e = engine(500);
        let pred = e.estimator().pred_attr();
        // actionable set containing the prediction column fails the
        // cheap validation; every request in the group must get the
        // same Invalid error, not just the first
        let bad = ExplainRequest::Recourse {
            row: vec![0, 0, 0, 0],
            actionable: vec![pred],
            opts: RecourseOptions::default(),
        };
        let responses = e.run_batch(&[bad.clone(), bad]);
        assert_eq!(responses.len(), 2);
        for r in responses {
            match r {
                Err(LewisError::Invalid(m)) => {
                    assert!(m.contains("not actionable"), "unexpected message: {m}")
                }
                other => panic!("expected Invalid for both requests, got {other:?}"),
            }
        }
    }
}
