//! Warm engine snapshots: everything needed to rebuild an [`Engine`]
//! *exactly*, without re-parsing data, re-inferring value orders or
//! re-warming the counting-pass cache.
//!
//! The snapshot is plain data — shared table and graph handles, the
//! engine configuration, the inferred per-feature value orders, and the
//! cache's resident counting passes in recency order. It exists so a
//! serving process can persist a hot engine (see the `lewis-store`
//! crate's `.lewis` packs) and a restarted process can come back
//! **observably identical**: a restored engine answers every query kind
//! byte-for-byte like its donor, because
//!
//! * scoring reads counting passes whose cells are *sorted vectors*
//!   (see [`crate::scores`]), so floating-point summation order depends
//!   only on the counted data — the restored pass iterates exactly like
//!   the donor's;
//! * value orders are carried, not re-derived, so tie-breaks cannot
//!   drift;
//! * the cache is restored with the donor's recency order and lifetime
//!   counters, so LRU eviction and `/metrics` continue seamlessly.
//!
//! Build one with [`Engine::snapshot`]; rebuild with
//! [`Engine::restore`].
//!
//! [`Engine`]: crate::Engine
//! [`Engine::snapshot`]: crate::Engine::snapshot
//! [`Engine::restore`]: crate::Engine::restore

use causal::Dag;
use lewis_index::TableIndex;
use std::sync::Arc;
use tabular::{AttrId, Context, Table, Value};

/// One arm of a counting pass: the rows holding one assignment of the
/// intervened attributes within one adjustment cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmSnapshot {
    /// The intervened attributes' values, aligned with
    /// [`PassSnapshot::xs`].
    pub assignment: Vec<Value>,
    /// Rows in this cell holding the assignment.
    pub rows: u64,
    /// Of those, rows with the positive prediction.
    pub positives: u64,
}

/// One adjustment cell of a counting pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSnapshot {
    /// The adjustment attributes' values, aligned with
    /// [`PassSnapshot::c_set`].
    pub key: Vec<Value>,
    /// Rows in this cell (all arms, including unmaterialized ones).
    pub rows: u64,
    /// The observed arms, sorted by assignment.
    pub arms: Vec<ArmSnapshot>,
}

/// One resident counting pass: the cache key plus the aggregated scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassSnapshot {
    /// Sorted intervened attribute set.
    pub xs: Vec<AttrId>,
    /// The query context the pass was built under.
    pub context: Context,
    /// The backdoor adjustment set used for the pass.
    pub c_set: Vec<AttrId>,
    /// Rows matching the context (all cells).
    pub total: u64,
    /// The adjustment cells, sorted by key.
    pub cells: Vec<CellSnapshot>,
}

/// The counting-pass cache: lifetime counters plus resident passes in
/// recency order (least recently used first).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Lookups answered from the cache over the donor's lifetime.
    pub hits: u64,
    /// Lookups that ran a counting pass over the donor's lifetime.
    pub misses: u64,
    /// Resident passes, least recently used first.
    pub passes: Vec<PassSnapshot>,
}

/// One resident fitted recourse surrogate (see
/// [`crate::SurrogateFit`]): the cache key — the exact *ordered*
/// actionable set, which fixes the coefficient layout — plus the fit.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateSnapshot {
    /// The ordered actionable set the surrogate was fitted for.
    pub actionable: Vec<AttrId>,
    /// Surrogate intercept.
    pub intercept: f64,
    /// Coefficients over the one-hot + ordinal-context layout.
    pub coefficients: Vec<f64>,
    /// Inferred value order per actionable attribute.
    pub orders: Vec<Vec<Value>>,
}

/// The recourse-surrogate cache: lifetime counters plus resident fits
/// in recency order (least recently used first).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SurrogateCacheSnapshot {
    /// Lookups answered from the cache over the donor's lifetime.
    pub hits: u64,
    /// Lookups that ran a surrogate fit over the donor's lifetime.
    pub misses: u64,
    /// Resident fits, least recently used first.
    pub fits: Vec<SurrogateSnapshot>,
}

/// Everything needed to rebuild an [`crate::Engine`] exactly — see the
/// module docs for the fidelity guarantees.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// The labelled table (shared, not copied).
    pub table: Arc<Table>,
    /// The causal diagram, if the donor had one.
    pub graph: Option<Arc<Dag>>,
    /// The black box's binary prediction column.
    pub pred: AttrId,
    /// The favourable outcome code.
    pub positive: Value,
    /// Laplace pseudo-count for the inner conditionals.
    pub alpha: f64,
    /// Minimum matching rows for local-context back-off.
    pub min_support: usize,
    /// Bound on resident counting passes.
    pub cache_capacity: usize,
    /// Row shards every counting pass fans over (≥ 1; results are
    /// shard-count-invariant, so this is a layout/performance setting,
    /// carried so a restored engine keeps its donor's fan-out).
    pub shards: usize,
    /// The explained features.
    pub features: Vec<AttrId>,
    /// Inferred ascending value order per schema attribute (`Some` for
    /// every feature, `None` elsewhere) — carried verbatim so restored
    /// tie-breaks match the donor's.
    pub orders: Vec<Option<Vec<Value>>>,
    /// The warm counting-pass cache.
    pub cache: CacheSnapshot,
    /// Bound on resident fitted recourse surrogates.
    pub surrogate_capacity: usize,
    /// The warm recourse-surrogate cache — carried so a restored engine
    /// answers recourse over the donor's actionable sets from warm
    /// coefficients, without refitting.
    pub surrogates: SurrogateCacheSnapshot,
    /// The per-(attribute, code) bitmap index, when the donor had one
    /// (shared, not copied). Restore validates it against the table and
    /// installs it verbatim, so a restored engine skips the index
    /// rebuild just like it skips re-warming the cache.
    pub index: Option<Arc<TableIndex>>,
    /// The write-side delta shard, when the donor was serving a live
    /// table mid-stream: rows appended after `table` (and its index)
    /// froze, coded against the same schema. Restore overlays it
    /// verbatim — the delta index is rebuilt from these rows — so a
    /// restored engine resumes the stream exactly where the donor
    /// stood, answering as a cold build over the concatenated table
    /// would. `None` for frozen engines and freshly compacted ones.
    pub delta: Option<Arc<Table>>,
}
