//! The engine registry: one process, many named [`Engine`]s — with a
//! hot lifecycle.
//!
//! A serving deployment rarely explains a single model over a single
//! table — the paper's own evaluation walks four datasets plus a
//! synthetic variant, and every production system multiplexes scenarios
//! (per-model, per-cohort, per-experiment). The registry maps stable
//! names to shared [`Arc<Engine>`]s so one server can answer
//! `POST /v1/engines/{name}/explain` for all of them.
//!
//! Engines come from two sources:
//!
//! * **built-in datasets** ([`EngineRegistry::load_builtin`]) — the
//!   `datasets` crate's SCM generators, labelled with the *oracle*
//!   decision rule `outcome ≥ pivot`. That makes startup O(rows) with
//!   no model training, and the served explanations are exactly the
//!   ones the paper's ground-truth analysis reasons about;
//! * **user CSVs** ([`EngineRegistry::load_csv`]) — any table with a
//!   binary prediction column, loaded via [`tabular::read_csv_file`].
//!   This is the hook for explaining a real model: score your data
//!   offline, write the predictions as a column, point the server at
//!   the file. A [`GraphSpec`] decides the causal diagram: the §6
//!   no-graph fallback, or a CPDAG discovered on the spot with the PC
//!   algorithm;
//! * **`.lewis` packs** ([`EngineRegistry::load_pack`]) — pre-compiled
//!   engines (table + graph + config + warm cache) written by
//!   `lewis-pack` or [`EngineRegistry::save_pack`]. Pack boot skips CSV
//!   parsing, order inference *and* cache warm-up, and the restored
//!   engine is byte-identical to its donor.
//!
//! ## The hot lifecycle
//!
//! Boot-time loading takes `&mut self`; once the registry is behind the
//! server's `Arc` the *admin* methods take over — they synchronize on
//! an interior `RwLock`, so `POST /admin/engines/{name}/load`, `/swap`
//! and `/unload` mutate a live registry while workers keep answering:
//!
//! * [`EngineRegistry::admin_load_pack`] registers a new engine from a
//!   pack without a restart;
//! * [`EngineRegistry::swap_pack`] atomically replaces an engine with a
//!   pack of the **same schema** (a foreign-schema pack is rejected and
//!   the old engine keeps serving). Requests already holding the old
//!   entry finish against it — entries are `Arc`s, nothing is torn
//!   down under a reader — and the entry's [`Admission`] gate (knobs
//!   *and* shed counters) carries over to the swapped-in engine;
//! * [`EngineRegistry::unload`] removes an engine; again, in-flight
//!   holders finish undisturbed.
//!
//! Every successful load or swap stamps the entry with a registry-wide
//! monotonically increasing **generation**, exposed in `/v1/engines`,
//! `/metrics` and the `x-engine-generation` response header, so a
//! client can tell exactly which engine build answered.

use crate::admission::{Admission, AdmissionConfig};
use crate::ServeError;
use causal::discovery::{pc_algorithm, Cpdag, PcOptions};
use causal::Dag;
use lewis_core::blackbox::label_table;
use lewis_core::Engine;
use lewis_live::LiveEngine;
use lewis_store::{Pack, PackMeta};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use tabular::AttrId;

/// Serving-oriented default for the engine's counting-pass cache: a
/// server sees many more distinct `(attribute, context)` keys than a
/// single experiment, so keep more passes resident.
const SERVE_CACHE_CAPACITY: usize = 1024;

/// Name of the prediction column appended to built-in datasets.
const PRED_COLUMN: &str = "pred";

/// Which causal graph to pair with a user CSV (the paper assumes the
/// diagram is background knowledge; user data rarely comes with one).
#[derive(Debug, Clone, Default)]
pub enum GraphSpec {
    /// No diagram: the §6 fallback, which conditions on nothing and so
    /// behaves as if every pair of features could be directly connected.
    /// This was the silent default for every user CSV before packs.
    #[default]
    FullyConnected,
    /// Discover a CPDAG with the PC algorithm over the CSV itself
    /// (§6's "diagrams can be learned from data"), then orient it into
    /// a DAG for backdoor adjustment. Edges touching the prediction
    /// column are dropped — the prediction is the *output* being
    /// explained, never a cause.
    Discovered(PcOptions),
}

/// One registered engine plus its provenance.
pub struct EngineEntry {
    /// The live table wrapping the engine: readers clone the current
    /// generation via [`EngineEntry::engine`], the append route feeds
    /// rows through [`LiveEngine::append_rows`], and the background
    /// compactor folds deltas behind the same handle.
    pub live: Arc<LiveEngine>,
    /// Where it came from (`"builtin:german_syn"`, `"csv:data.csv"`).
    pub source: String,
    /// Which causal graph the engine adjusts with (`"fully-connected
    /// (§6 no-graph fallback)"`, `"discovered: pc …"`, `"builtin scm …"`).
    pub graph: String,
    /// The prediction column's display name.
    pub pred_name: String,
    /// The favourable outcome code.
    pub positive: tabular::Value,
    /// Registry-wide monotonic build number, stamped at registration
    /// (and re-stamped by every [`EngineRegistry::swap_pack`]). `0`
    /// until the entry is inserted.
    pub generation: u64,
    /// The per-engine admission gate. Swaps carry the same `Arc` over,
    /// so QoS knobs and shed counters survive pack churn.
    pub admission: Arc<Admission>,
}

impl EngineEntry {
    /// Wrap `engine` in a fresh live table (generation `0`, unlimited
    /// admission; both are assigned for real at registration).
    pub fn from_engine(
        engine: impl Into<Arc<Engine>>,
        source: String,
        graph: String,
        pred_name: String,
        positive: tabular::Value,
    ) -> EngineEntry {
        EngineEntry {
            live: Arc::new(LiveEngine::new(engine.into())),
            source,
            graph,
            pred_name,
            positive,
            generation: 0,
            admission: Arc::new(Admission::new(AdmissionConfig::unlimited())),
        }
    }

    /// The current engine generation. The handle is immutable: queries
    /// against it are unaffected by concurrent appends or compaction.
    pub fn engine(&self) -> Arc<Engine> {
        self.live.engine()
    }
}

/// A name → engine map with deterministic iteration order (insertion
/// order, which for CLI-built registries is argument order).
///
/// Lookups and the admin lifecycle synchronize on an interior
/// `RwLock`, so a registry behind the server's `Arc` supports hot
/// load/swap/unload while every worker keeps reading.
#[derive(Default)]
pub struct EngineRegistry {
    entries: RwLock<Vec<(String, Arc<EngineEntry>)>>,
    /// The last generation number handed out; `fetch_add + 1` stamps
    /// each registered or swapped-in entry.
    generation: AtomicU64,
}

/// The built-in dataset names [`EngineRegistry::load_builtin`] accepts,
/// with the pivot applied to their outcome column (favourable =
/// `outcome ≥ pivot`).
pub const BUILTINS: &[(&str, u32)] = &[
    ("german_syn", 5),        // credit score ≥ 0.5 of 10 bins
    ("german_syn_scaled", 5), // same pivot, chunk-parallel generator for millions of rows
    ("german", 1),            // good credit risk
    ("adult", 1),             // income > 50K
    ("compas", 1),            // high COMPAS score
    ("drug", 1),              // used in the last decade or earlier
];

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `engine` under `name`. Names are unique.
    pub fn insert(&self, name: impl Into<String>, entry: EngineEntry) -> Result<(), ServeError> {
        self.insert_entry(name.into(), entry).map(|_generation| ())
    }

    /// [`EngineRegistry::insert`] returning the generation stamped onto
    /// the new entry.
    fn insert_entry(&self, name: String, mut entry: EngineEntry) -> Result<u64, ServeError> {
        validate_name(&name)?;
        let mut entries = write_entries(&self.entries);
        if entries.iter().any(|(n, _)| *n == name) {
            return Err(ServeError::Config(format!(
                "engine {name:?} is already registered"
            )));
        }
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        entry.generation = generation;
        entries.push((name, Arc::new(entry)));
        Ok(generation)
    }

    /// Generate a built-in dataset, label it with its oracle decision
    /// rule and register the resulting engine under the dataset's name.
    pub fn load_builtin(&mut self, name: &str, rows: usize, seed: u64) -> Result<(), ServeError> {
        self.load_builtin_as(name, name, rows, seed)
    }

    /// [`EngineRegistry::load_builtin`] registering under a caller-chosen
    /// name (used by `lewis-pack`, whose single engine is always called
    /// `"engine"` regardless of the source dataset).
    pub fn load_builtin_as(
        &mut self,
        register_as: &str,
        name: &str,
        rows: usize,
        seed: u64,
    ) -> Result<(), ServeError> {
        let Some(&(_, pivot)) = BUILTINS.iter().find(|(n, _)| *n == name) else {
            let known: Vec<&str> = BUILTINS.iter().map(|&(n, _)| n).collect();
            return Err(ServeError::Config(format!(
                "unknown built-in dataset {name:?} (available: {})",
                known.join(", ")
            )));
        };
        let dataset = match name {
            "german_syn" => datasets::GermanSynDataset::standard().generate(rows, seed),
            "german_syn_scaled" => datasets::german_syn_scaled(rows, seed),
            "german" => datasets::GermanDataset::generate(rows, seed),
            "adult" => datasets::AdultDataset::generate(rows, seed),
            "compas" => datasets::CompasDataset::generate(rows, seed),
            "drug" => datasets::DrugDataset::generate(rows, seed),
            // BUILTINS membership was checked above, but a table/match
            // drift must degrade to a config error, not a panic, on what
            // is ultimately a request-supplied name
            _ => {
                return Err(ServeError::Config(format!(
                    "built-in dataset {name:?} has no generator wired up"
                )))
            }
        };
        let datasets::Dataset {
            table: mut t,
            scm,
            outcome,
            features,
            ..
        } = dataset;
        let oracle = move |row: &[tabular::Value]| u32::from(row[outcome.index()] >= pivot);
        let pred = label_table(&mut t, &oracle, PRED_COLUMN)?;
        let graph = format!(
            "builtin scm ({} nodes, {} edges)",
            scm.graph().n_nodes(),
            scm.graph().n_edges()
        );
        let engine = Engine::builder(t)
            .graph(scm.graph())
            .prediction(pred, 1)
            .features(&features)
            .cache_capacity(SERVE_CACHE_CAPACITY)
            .build()?;
        self.insert(
            register_as,
            EngineEntry::from_engine(
                engine,
                format!("builtin:{name} ({rows} rows, seed {seed})"),
                graph,
                PRED_COLUMN.to_string(),
                1,
            ),
        )
    }

    /// Load a CSV file (see [`tabular::read_csv_file`]'s inference
    /// rules), take `pred_col` as the binary prediction column with
    /// `positive_label` as the favourable value, and register the
    /// engine under `name`. All other columns become features; the
    /// causal diagram is chosen by `graph` — the §6 fallback, or a
    /// PC-discovered CPDAG oriented into a DAG (opt-in, no longer a
    /// silent assumption).
    pub fn load_csv(
        &mut self,
        name: &str,
        path: &str,
        pred_col: &str,
        positive_label: &str,
        graph: GraphSpec,
    ) -> Result<(), ServeError> {
        let table = tabular::read_csv_file(path)?;
        let pred = table.schema().require(pred_col)?;
        let positive = table
            .schema()
            .domain(pred)?
            .code_of(positive_label)
            .ok_or_else(|| {
                ServeError::Config(format!(
                    "column {pred_col:?} of {path:?} has no value {positive_label:?}"
                ))
            })?;
        let features: Vec<AttrId> = table.schema().attr_ids().filter(|&a| a != pred).collect();
        let (dag, graph_desc) = match graph {
            GraphSpec::FullyConnected => {
                (None, "fully-connected (§6 no-graph fallback)".to_string())
            }
            GraphSpec::Discovered(opts) => {
                let cpdag = pc_algorithm(&table, table.schema().len(), &opts)
                    .map_err(lewis_core::LewisError::from)?;
                let (dag, order_oriented) = Self::orient_cpdag(&cpdag, pred);
                let desc = format!(
                    "discovered: pc ({} edges, {} of them order-oriented)",
                    dag.n_edges(),
                    order_oriented
                );
                (Some(dag), desc)
            }
        };
        let mut builder = Engine::builder(table)
            .prediction(pred, positive)
            .features(&features)
            .cache_capacity(SERVE_CACHE_CAPACITY);
        if let Some(dag) = dag {
            builder = builder.graph(&dag);
        }
        let engine = builder.build()?;
        self.insert(
            name,
            EngineEntry::from_engine(
                engine,
                format!("csv:{path}"),
                graph_desc,
                pred_col.to_string(),
                positive,
            ),
        )
    }

    /// Load a pre-compiled `.lewis` pack (written by `lewis-pack` or
    /// [`EngineRegistry::save_pack`]) and register its engine under
    /// `name`. No CSV parsing, no value-order inference, no cache
    /// warm-up — the engine arrives exactly as its donor was
    /// snapshotted, warm cache included.
    pub fn load_pack(&mut self, name: &str, path: &str) -> Result<(), ServeError> {
        let entry = entry_from_pack(path)?;
        self.insert(name, entry)
    }

    /// The hot-lifecycle cousin of [`EngineRegistry::load_pack`]:
    /// `&self`, so it works through the server's `Arc` on a registry
    /// that is already serving. Returns the new entry's generation.
    pub fn admin_load_pack(&self, name: &str, path: &str) -> Result<u64, ServeError> {
        let entry = entry_from_pack(path)?;
        self.insert_entry(name.to_string(), entry)
    }

    /// Atomically replace the engine named `name` with the one in the
    /// pack at `path`.
    ///
    /// The pack must carry the **same schema** as the engine it
    /// replaces — a swap is a data/model refresh, not a contract
    /// change; a foreign-schema pack is rejected with
    /// [`ServeError::SchemaMismatch`] and the old engine keeps serving.
    /// Requests that already resolved the old entry finish against it
    /// (entries are `Arc`s); the entry's admission gate carries over so
    /// QoS knobs and shed counters survive the swap. Returns the new
    /// generation.
    ///
    /// ```
    /// use lewis_serve::EngineRegistry;
    ///
    /// let dir = std::env::temp_dir().join(format!("lewis-doc-swap-{}", std::process::id()));
    /// std::fs::create_dir_all(&dir).unwrap();
    /// let pack = dir.join("engine.lewis");
    /// let pack = pack.to_str().unwrap();
    ///
    /// // bake a pack, then drive the hot lifecycle on a live registry
    /// let mut donor = EngineRegistry::new();
    /// donor.load_builtin("german_syn", 200, 7).unwrap();
    /// donor.save_pack("german_syn", pack).unwrap();
    ///
    /// let reg = EngineRegistry::new(); // note: not `mut` — the hot path is `&self`
    /// let gen1 = reg.admin_load_pack("credit", pack).unwrap();
    /// let gen2 = reg.swap_pack("credit", pack).unwrap();
    /// assert!(gen2 > gen1, "every swap advances the generation");
    ///
    /// // the swapped-in engine answers immediately
    /// let engine = reg.get("credit").unwrap().engine();
    /// assert!(engine.run(&lewis_core::ExplainRequest::Global).is_ok());
    /// std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn swap_pack(&self, name: &str, path: &str) -> Result<u64, ServeError> {
        let old = self
            .get(name)
            .ok_or_else(|| ServeError::UnknownEngine(name.to_string()))?;
        let mut entry = entry_from_pack(path)?;
        let old_engine = old.engine();
        let new_engine = entry.engine();
        if new_engine.table().schema() != old_engine.table().schema() {
            return Err(ServeError::SchemaMismatch(format!(
                "pack {path:?} carries a different schema than engine {name:?} \
                 (swap refreshes data, it must not change the contract; \
                 use load under a new name instead)"
            )));
        }
        entry.admission = Arc::clone(&old.admission);
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        entry.generation = generation;
        let entry = Arc::new(entry);
        let mut entries = write_entries(&self.entries);
        // re-resolve under the write lock: a concurrent unload between
        // our `get` and here must surface, not resurrect the engine
        let Some(slot) = entries.iter_mut().find(|(n, _)| n == name) else {
            return Err(ServeError::UnknownEngine(name.to_string()));
        };
        slot.1 = entry;
        Ok(generation)
    }

    /// Remove the engine named `name`. In-flight requests holding the
    /// entry finish against it; new lookups miss immediately.
    pub fn unload(&self, name: &str) -> Result<(), ServeError> {
        let mut entries = write_entries(&self.entries);
        let Some(pos) = entries.iter().position(|(n, _)| n == name) else {
            return Err(ServeError::UnknownEngine(name.to_string()));
        };
        entries.remove(pos);
        Ok(())
    }

    /// Replace the admission knobs of the engine named `name`. Takes
    /// effect for the next admission decision.
    pub fn set_admission(&self, name: &str, config: AdmissionConfig) -> Result<(), ServeError> {
        let entry = self
            .get(name)
            .ok_or_else(|| ServeError::UnknownEngine(name.to_string()))?;
        entry.admission.configure(config);
        Ok(())
    }

    /// The last generation number handed out (`0` before any engine is
    /// registered).
    pub fn current_generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Snapshot the named engine (warm cache included) into a `.lewis`
    /// pack at `path`. The pack records the entry's provenance, so a
    /// registry restored from it lists where the data originally came
    /// from.
    pub fn save_pack(&self, name: &str, path: &str) -> Result<(), ServeError> {
        let entry = self
            .get(name)
            .ok_or_else(|| ServeError::Config(format!("no engine named {name:?}")))?;
        let meta = PackMeta {
            source: entry.source.clone(),
            graph: entry.graph.clone(),
        };
        Pack::from_engine(&entry.engine(), meta).write_file(path)?;
        Ok(())
    }

    /// Orient a discovered CPDAG into a DAG usable for backdoor
    /// adjustment: directed edges are kept; each undirected edge is
    /// oriented from the lower to the higher attribute id unless that
    /// would close a cycle (then the reverse is tried); edges incident
    /// to the prediction column are dropped entirely — the prediction
    /// is the output being explained, never a cause. Returns the DAG
    /// plus how many undirected edges actually made it in (for the
    /// published provenance — dropped edges must not be counted).
    fn orient_cpdag(cpdag: &Cpdag, pred: AttrId) -> (Dag, usize) {
        let p = pred.index();
        let mut dag = Dag::new(cpdag.n_nodes());
        for (x, y) in cpdag.directed_edges() {
            if x != p && y != p {
                // v-structure conflicts can, on noisy data, imply a cycle
                // across several edges; adjustment only needs *a* DAG of
                // the equivalence class, so the late edge loses
                let _ = dag.add_edge(x, y);
            }
        }
        let mut order_oriented = 0usize;
        for (x, y) in cpdag.undirected_edges() {
            if x != p && y != p && (dag.add_edge(x, y).is_ok() || dag.add_edge(y, x).is_ok()) {
                order_oriented += 1;
            }
        }
        (dag, order_oriented)
    }

    /// Look up an engine by name. The returned `Arc` stays valid across
    /// concurrent swaps and unloads — a request answers against the
    /// engine it resolved.
    pub fn get(&self, name: &str) -> Option<Arc<EngineEntry>> {
        read_entries(&self.entries)
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, e)| Arc::clone(e))
    }

    /// A point-in-time snapshot of `(name, entry)` in registration
    /// order (swaps keep their slot).
    pub fn snapshot(&self) -> Vec<(String, Arc<EngineEntry>)> {
        read_entries(&self.entries)
            .iter()
            .map(|(n, e)| (n.clone(), Arc::clone(e)))
            .collect()
    }

    /// Number of registered engines.
    pub fn len(&self) -> usize {
        read_entries(&self.entries).len()
    }

    /// Whether no engine is registered.
    pub fn is_empty(&self) -> bool {
        read_entries(&self.entries).is_empty()
    }
}

/// Engine names are path/metric-safe identifiers.
fn validate_name(name: &str) -> Result<(), ServeError> {
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(ServeError::Config(format!(
            "engine name {name:?} must be non-empty [A-Za-z0-9_-]"
        )));
    }
    Ok(())
}

/// Restore a pack into a fresh (unregistered) entry.
fn entry_from_pack(path: &str) -> Result<EngineEntry, ServeError> {
    let (engine, meta) = lewis_store::load_engine(path)?;
    let pred = engine.estimator().pred_attr();
    let pred_name = engine.table().schema().name(pred).to_string();
    let positive = engine.estimator().positive();
    Ok(EngineEntry::from_engine(
        engine,
        format!("pack:{path} ({})", meta.source),
        meta.graph,
        pred_name,
        positive,
    ))
}

/// Read-lock the entry table, recovering from poisoning: every write
/// path keeps the vector consistent on unwind, and a wedged registry
/// would take the whole server down.
fn read_entries(
    entries: &RwLock<Vec<(String, Arc<EngineEntry>)>>,
) -> RwLockReadGuard<'_, Vec<(String, Arc<EngineEntry>)>> {
    match entries.read() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Write-lock the entry table (same poisoning stance as reads).
fn write_entries(
    entries: &RwLock<Vec<(String, Arc<EngineEntry>)>>,
) -> RwLockWriteGuard<'_, Vec<(String, Arc<EngineEntry>)>> {
    match entries.write() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lewis_core::ExplainRequest;

    #[test]
    fn builtin_loads_and_serves() {
        let mut reg = EngineRegistry::new();
        reg.load_builtin("german_syn", 800, 7).unwrap();
        assert_eq!(reg.len(), 1);
        let entry = reg.get("german_syn").unwrap();
        assert_eq!(entry.engine().table().n_rows(), 800);
        assert!(entry.source.contains("builtin:german_syn"));
        assert_eq!(entry.generation, 1, "first registration is generation 1");
        assert_eq!(reg.current_generation(), 1);
        // the engine answers a query end to end
        let g = entry.engine().run(&ExplainRequest::Global).unwrap();
        assert!(g.into_global().is_some());
    }

    #[test]
    fn default_layout_is_unsharded_and_indexed() {
        // a default registry's builtin engines are indexed
        let mut reg = EngineRegistry::new();
        reg.load_builtin("german_syn", 500, 7).unwrap();
        let served = reg.get("german_syn").unwrap().engine();
        assert_eq!(served.shards(), 1);
        assert!(served.index_enabled());
        assert!(served.index_memory_bytes() > 0);
        // and so is a builder with no layout call
        let e = Engine::builder(served.table().clone())
            .prediction(served.estimator().pred_attr(), 1)
            .features(served.features())
            .build()
            .unwrap();
        assert_eq!(e.shards(), 1);
        assert!(e.index_enabled());
    }

    #[test]
    fn unknown_builtin_is_a_config_error() {
        let mut reg = EngineRegistry::new();
        let err = reg.load_builtin("no_such_dataset", 100, 0).unwrap_err();
        assert!(
            err.to_string().contains("german_syn"),
            "lists the options: {err}"
        );
    }

    #[test]
    fn duplicate_and_invalid_names_are_rejected() {
        let mut reg = EngineRegistry::new();
        reg.load_builtin("german_syn", 300, 7).unwrap();
        assert!(reg.load_builtin("german_syn", 300, 7).is_err());
        let entry_of = |reg: &EngineRegistry| {
            let e = reg.get("german_syn").unwrap();
            EngineEntry {
                live: Arc::clone(&e.live),
                source: e.source.clone(),
                graph: e.graph.clone(),
                pred_name: e.pred_name.clone(),
                positive: e.positive,
                generation: 0,
                admission: Arc::clone(&e.admission),
            }
        };
        let dup = entry_of(&reg);
        assert!(reg.insert("bad name", dup).is_err(), "whitespace in name");
        let dup = entry_of(&reg);
        assert!(reg.insert("", dup).is_err(), "empty name");
    }

    #[test]
    fn csv_loading_round_trips_through_a_file() {
        // export a labelled built-in table, reload it as a "user" CSV
        let mut reg = EngineRegistry::new();
        reg.load_builtin("german_syn", 600, 3).unwrap();
        let engine = reg.get("german_syn").unwrap().engine();
        let dir = std::env::temp_dir().join(format!("lewis-serve-reg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("export.csv");
        tabular::write_csv_file(engine.table(), &path).unwrap();

        reg.load_csv(
            "from_csv",
            path.to_str().unwrap(),
            "pred",
            "true",
            GraphSpec::FullyConnected,
        )
        .unwrap();
        let entry = reg.get("from_csv").unwrap();
        assert_eq!(entry.engine().table().n_rows(), 600);
        assert!(
            entry.graph.contains("fully-connected"),
            "graph provenance is recorded: {}",
            entry.graph
        );
        // CSV inference maps boolean "true" to whatever code it was
        // first seen as — the registry resolves it by label
        let g = entry
            .engine()
            .run(&ExplainRequest::Global)
            .unwrap()
            .into_global()
            .unwrap();
        assert!(!g.attributes.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_errors_are_typed() {
        let mut reg = EngineRegistry::new();
        // missing file → tabular Io error
        assert!(matches!(
            reg.load_csv(
                "x",
                "/definitely/missing.csv",
                "pred",
                "1",
                GraphSpec::FullyConnected
            ),
            Err(ServeError::Tabular(tabular::TabularError::Io { .. }))
        ));
        // missing column / label → config-ish errors with context
        let dir = std::env::temp_dir().join(format!("lewis-serve-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.csv");
        std::fs::write(&path, "a,b\n0,1\n1,0\n").unwrap();
        let p = path.to_str().unwrap();
        assert!(reg
            .load_csv("x", p, "nope", "1", GraphSpec::FullyConnected)
            .is_err());
        let err = reg
            .load_csv("x", p, "b", "yes", GraphSpec::FullyConnected)
            .unwrap_err();
        assert!(err.to_string().contains("yes"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn discovered_graphs_are_opt_in_and_reported() {
        // export a built-in table whose SCM has real structure, then
        // reload it with PC discovery switched on
        let mut reg = EngineRegistry::new();
        reg.load_builtin("german_syn", 2000, 5).unwrap();
        let engine = reg.get("german_syn").unwrap().engine();
        let dir = std::env::temp_dir().join(format!("lewis-serve-disc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("discover.csv");
        tabular::write_csv_file(engine.table(), &path).unwrap();

        reg.load_csv(
            "discovered",
            path.to_str().unwrap(),
            "pred",
            "true",
            GraphSpec::Discovered(PcOptions::default()),
        )
        .unwrap();
        let entry = reg.get("discovered").unwrap();
        assert!(
            entry.graph.starts_with("discovered: pc"),
            "provenance names the discovery: {}",
            entry.graph
        );
        let engine = entry.engine();
        let g = engine.graph().expect("discovery must attach a graph");
        assert!(g.n_edges() > 0, "german_syn has discoverable structure");
        // the prediction column is never part of the diagram
        let pred = engine.estimator().pred_attr();
        for (from, to) in g.edges() {
            assert_ne!(from, pred.index());
            assert_ne!(to, pred.index());
        }
        // and the engine still answers queries
        assert!(engine.run(&ExplainRequest::Global).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_and_load_pack_round_trips_an_engine() {
        let dir = std::env::temp_dir().join(format!("lewis-serve-pack-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.lewis");
        let p = path.to_str().unwrap();

        let mut reg = EngineRegistry::new();
        reg.load_builtin("german_syn", 800, 7).unwrap();
        // warm the donor so the pack carries cache state
        let donor = reg.get("german_syn").unwrap().engine();
        let donor_g = donor.run(&ExplainRequest::Global).unwrap();
        assert!(donor.cache_stats().entries > 0);
        reg.save_pack("german_syn", p).unwrap();

        let mut reg2 = EngineRegistry::new();
        reg2.load_pack("from_pack", p).unwrap();
        let entry = reg2.get("from_pack").unwrap();
        assert!(entry.source.starts_with("pack:"), "{}", entry.source);
        assert!(
            entry.source.contains("builtin:german_syn"),
            "original provenance survives: {}",
            entry.source
        );
        assert!(entry.graph.contains("builtin scm"), "{}", entry.graph);
        assert_eq!(entry.pred_name, "pred");
        // the restored engine arrives warm and answers identically
        let restored = entry.engine();
        assert_eq!(restored.cache_stats().entries, donor.cache_stats().entries);
        let restored_g = restored.run(&ExplainRequest::Global).unwrap();
        assert_eq!(format!("{donor_g:?}"), format!("{restored_g:?}"));

        // saving an unknown engine is a config error
        assert!(reg.save_pack("nope", p).is_err());
        // loading garbage is a typed store error
        std::fs::write(&path, b"not a pack").unwrap();
        assert!(matches!(
            reg2.load_pack("bad", p),
            Err(ServeError::Store(lewis_store::StoreError::BadMagic))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hot_lifecycle_load_swap_unload() {
        let dir = std::env::temp_dir().join(format!("lewis-serve-hot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pack_a = dir.join("a.lewis");
        let pack_b = dir.join("b.lewis");

        // two packs of the same schema but different data
        let mut donor = EngineRegistry::new();
        donor.load_builtin("german_syn", 400, 1).unwrap();
        donor
            .save_pack("german_syn", pack_a.to_str().unwrap())
            .unwrap();
        let mut donor_b = EngineRegistry::new();
        donor_b.load_builtin("german_syn", 500, 2).unwrap();
        donor_b
            .save_pack("german_syn", pack_b.to_str().unwrap())
            .unwrap();

        // the hot path works through a shared reference
        let reg = EngineRegistry::new();
        let gen1 = reg
            .admin_load_pack("live", pack_a.to_str().unwrap())
            .unwrap();
        assert_eq!(gen1, 1);
        let before = reg.get("live").unwrap();
        assert_eq!(before.engine().table().n_rows(), 400);

        // a reader holding the old entry survives the swap
        let gen2 = reg.swap_pack("live", pack_b.to_str().unwrap()).unwrap();
        assert!(gen2 > gen1);
        assert_eq!(reg.current_generation(), gen2);
        let after = reg.get("live").unwrap();
        assert_eq!(after.engine().table().n_rows(), 500);
        assert_eq!(after.generation, gen2);
        assert_eq!(
            before.engine().table().n_rows(),
            400,
            "in-flight holders keep the engine they resolved"
        );
        assert!(
            Arc::ptr_eq(&before.admission, &after.admission),
            "the admission gate carries over"
        );
        assert_eq!(reg.len(), 1, "swap replaces in place");

        // swapping an unknown engine / unloading twice are typed misses
        assert!(matches!(
            reg.swap_pack("nope", pack_b.to_str().unwrap()),
            Err(ServeError::UnknownEngine(_))
        ));
        reg.unload("live").unwrap();
        assert!(reg.get("live").is_none());
        assert!(matches!(
            reg.unload("live"),
            Err(ServeError::UnknownEngine(_))
        ));
        assert_eq!(
            after.engine().table().n_rows(),
            500,
            "unload never tears the engine out from under a holder"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_swap_serves_the_packs_caches_not_the_old_tables() {
        let dir =
            std::env::temp_dir().join(format!("lewis-serve-swap-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pack = dir.join("warm.lewis");
        let pack = pack.to_str().unwrap();
        let mut donor = EngineRegistry::new();
        donor.load_builtin("german_syn", 400, 1).unwrap();
        let warm = donor.get("german_syn").unwrap().engine();
        warm.run(&ExplainRequest::Global).unwrap();
        donor.save_pack("german_syn", pack).unwrap();
        let packed = lewis_store::load_engine(pack).unwrap().0.cache_stats();

        // the old table has warmed its own caches and topped them up
        let mut reg = EngineRegistry::new();
        reg.load_builtin("german_syn", 500, 2).unwrap();
        let entry = reg.get("german_syn").unwrap();
        entry.engine().run(&ExplainRequest::Global).unwrap();
        entry.live.append_rows(&[vec![0; 7]]).unwrap();
        let old = entry.engine();
        old.run(&ExplainRequest::Global).unwrap();
        assert_ne!(old.cache_stats(), packed);

        reg.swap_pack("german_syn", pack).unwrap();
        let served = reg.get("german_syn").unwrap().engine();
        assert_eq!(served.cache_stats(), packed);
        // a query still running on the pre-swap handle fills the old
        // table's caches, never the pack's
        let k = tabular::Context::of([(tabular::AttrId(0), 1)]);
        old.run(&ExplainRequest::ContextualGlobal { k }).unwrap();
        assert_eq!(served.cache_stats(), packed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn swap_rejects_foreign_schema_and_keeps_serving() {
        let dir = std::env::temp_dir().join(format!("lewis-serve-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let german = dir.join("german.lewis");
        let adult = dir.join("adult.lewis");
        let mut donor = EngineRegistry::new();
        donor.load_builtin("german_syn", 300, 1).unwrap();
        donor.load_builtin("adult", 300, 1).unwrap();
        donor
            .save_pack("german_syn", german.to_str().unwrap())
            .unwrap();
        donor.save_pack("adult", adult.to_str().unwrap()).unwrap();

        let reg = EngineRegistry::new();
        let gen1 = reg
            .admin_load_pack("live", german.to_str().unwrap())
            .unwrap();
        let err = reg.swap_pack("live", adult.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, ServeError::SchemaMismatch(_)), "{err}");
        let entry = reg.get("live").unwrap();
        assert_eq!(entry.generation, gen1, "a failed swap changes nothing");
        assert!(entry.engine().run(&ExplainRequest::Global).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
