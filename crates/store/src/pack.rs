//! The `.lewis` pack: a versioned, checksummed container bundling a
//! dictionary-encoded columnar table, its schema and domains, the
//! causal graph, the engine configuration, the inferred value orders,
//! and (optionally) a pre-warmed counting-cache snapshot.
//!
//! ## Layout
//!
//! ```text
//! magic    8 bytes   b"LEWISPAK"
//! version  u32 LE    FORMAT_VERSION
//! section* —         until end of file
//!
//! section := tag u8 · payload_len u64 LE · payload · crc32 u32 LE
//! ```
//!
//! Each section's payload carries its own CRC-32, so truncation and
//! bit-flips surface as typed [`StoreError`]s — [`StoreError::Truncated`],
//! [`StoreError::ChecksumMismatch`] — never as a garbage engine. All
//! integers are little-endian; `f64`s travel as raw IEEE-754 bits, so
//! domains and smoothing survive bit-for-bit.
//!
//! Table columns are width-packed: a column whose domain has ≤ 256
//! values spends one byte per cell (≤ 65 536 → two), which is what
//! makes packs markedly smaller than the label-expanded CSV they were
//! compiled from (`lewisbench` reports `store.pack.bytes`).

use crate::bytes::{crc32, Cursor, CursorError, WriteBytes};
use crate::{Result, StoreError};
use lewis_core::snapshot::{
    ArmSnapshot, CacheSnapshot, CellSnapshot, EngineSnapshot, PassSnapshot, SurrogateCacheSnapshot,
    SurrogateSnapshot,
};
use lewis_core::Engine;
use lewis_index::TableIndex;
use std::path::Path;
use std::sync::Arc;
use tabular::{AttrId, Context, Domain, Schema, Table, Value};

/// The pack file magic.
pub const MAGIC: [u8; 8] = *b"LEWISPAK";

/// The current format version. Readers reject anything newer with
/// [`StoreError::UnsupportedVersion`] and keep reading every older
/// version.
///
/// * **v1** — the original layout.
/// * **v2** — the config section additionally records the engine's
///   **row-shard count** (appended at the end, so a v1 config is a
///   strict prefix). Shard *boundaries* are canonical in the count
///   (`tabular::shard_boundaries`), so the count alone restores the
///   donor's exact layout; v1 packs restore with 1 shard.
/// * **v3** — the config grows a trailing **index-enabled** flag (again
///   appended, so a v2 config is a strict prefix) and an optional,
///   CRC'd `index` section carries the engine's per-(attribute, code)
///   bitmap index verbatim. The flag without the section means "rebuild
///   the index from the table on restore" — writers that strip the
///   section stay loadable; v1/v2 packs restore without an index.
/// * **v4** — the config grows a trailing **surrogates** flag and the
///   surrogate-cache **capacity** (appended, so a v3 config is a strict
///   prefix) and an optional, CRC'd `surrogates` section carries the
///   engine's fitted recourse surrogates. The flag without the section
///   means "refit lazily" (the restored engine starts with an empty
///   surrogate cache) — writers that strip the section stay loadable; a
///   section without the flag is a [`StoreError::Mismatch`]. v1–v3
///   packs restore with an empty cache at the default capacity.
/// * **v5** — live tables. The config grows a trailing **row-version
///   watermark** (appended, so a v4 config is a strict prefix): the
///   logical row count — base rows plus appended delta rows — the
///   engine had reached when it was packed. An optional, CRC'd `delta`
///   section (same columnar codec as `table`, decoded against the same
///   schema) carries the write-side delta shard of a live engine packed
///   mid-stream, so a restored engine resumes the stream exactly where
///   the donor stood. A watermark that disagrees with the base + delta
///   row count is a [`StoreError::Mismatch`]; a delta section in a
///   pre-v5 pack is one too. v1–v4 packs restore frozen, with the
///   watermark assumed at the base row count.
/// * **v6** — same layout as v5. Recourse surrogates are now fitted over
///   the table's distinct row patterns rather than summed row by row,
///   which can move a coefficient in its last bits, so a `surrogates`
///   section in a pre-v6 pack never answers: it restores like the flag
///   without a section — an empty cache that refits lazily — keeping
///   the donor's hit/miss counters.
pub const FORMAT_VERSION: u32 = 6;

/// Section tags, in the order the writer emits them.
const TAG_META: u8 = 1;
const TAG_SCHEMA: u8 = 2;
const TAG_TABLE: u8 = 3;
const TAG_GRAPH: u8 = 4;
const TAG_CONFIG: u8 = 5;
const TAG_ORDERS: u8 = 6;
const TAG_CACHE: u8 = 7;
const TAG_INDEX: u8 = 8;
const TAG_SURROGATES: u8 = 9;
const TAG_DELTA: u8 = 10;

pub(crate) fn section_name(tag: u8) -> &'static str {
    match tag {
        TAG_META => "meta",
        TAG_SCHEMA => "schema",
        TAG_TABLE => "table",
        TAG_GRAPH => "graph",
        TAG_CONFIG => "config",
        TAG_ORDERS => "orders",
        TAG_CACHE => "cache",
        TAG_INDEX => "index",
        TAG_SURROGATES => "surrogates",
        TAG_DELTA => "delta",
        _ => "unknown",
    }
}

/// Human-oriented provenance carried inside a pack.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackMeta {
    /// Where the data came from (`"csv:data.csv"`, `"builtin:german_syn"`).
    pub source: String,
    /// Which causal graph the engine uses (`"none (§6 fallback)"`,
    /// `"discovered: pc"`, `"builtin scm"`).
    pub graph: String,
}

/// A fully materialized pack: provenance plus a restorable engine
/// snapshot. Build one from a warm engine with [`Pack::from_engine`],
/// persist with [`Pack::write_file`], and bring it back with
/// [`Pack::read_file`] + [`Pack::restore_engine`].
#[derive(Debug, Clone)]
pub struct Pack {
    /// Provenance strings, surfaced by `lewis-serve`'s engine listing.
    pub meta: PackMeta,
    /// The engine state — see [`EngineSnapshot`] for fidelity guarantees.
    pub snapshot: EngineSnapshot,
    /// Write the config's index-enabled flag *without* an index section
    /// (set by [`Pack::strip_index`]): readers rebuild the index from
    /// the table instead of deserializing it.
    rebuild_index: bool,
    /// Write the config's surrogates flag *without* a surrogates
    /// section (set by [`Pack::strip_surrogates`]): readers start with
    /// an empty surrogate cache and refit lazily.
    refit_surrogates: bool,
}

impl Pack {
    /// Snapshot `engine` (including its warm cache) under the given
    /// provenance.
    pub fn from_engine(engine: &Engine, meta: PackMeta) -> Pack {
        Pack {
            meta,
            snapshot: engine.snapshot(),
            rebuild_index: false,
            refit_surrogates: false,
        }
    }

    /// Rebuild the engine. Consumes the pack (the table and graph move
    /// into the engine without copying). Snapshot/table inconsistencies
    /// surface as [`StoreError::Mismatch`].
    pub fn restore_engine(self) -> Result<(Engine, PackMeta)> {
        let engine =
            Engine::restore(self.snapshot).map_err(|e| StoreError::Mismatch(e.to_string()))?;
        Ok((engine, self.meta))
    }

    /// Drop the pre-warmed cache (the pack then restores a cold engine;
    /// configuration and value orders are still carried).
    pub fn strip_cache(&mut self) {
        self.snapshot.cache = CacheSnapshot::default();
    }

    /// Drop the serialized bitmap index but keep the engine's
    /// index-enabled setting: a reader of the resulting bytes rebuilds
    /// the index from the table (paying the build once) instead of
    /// reading it. Shrinks the pack; never changes any answer.
    pub fn strip_index(&mut self) {
        if self.snapshot.index.take().is_some() {
            self.rebuild_index = true;
        }
    }

    /// Drop the fitted recourse surrogates but keep the config's
    /// surrogates flag: a reader of the resulting bytes starts with an
    /// empty surrogate cache and refits lazily on the first recourse
    /// query per actionable set. Shrinks the pack; never changes any
    /// answer (the refit is deterministic).
    pub fn strip_surrogates(&mut self) {
        if !self.snapshot.surrogates.fits.is_empty() {
            self.snapshot.surrogates.fits.clear();
            self.refit_surrogates = true;
        }
    }

    /// Serialize to the `.lewis` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.put_u32(FORMAT_VERSION);
        write_section(&mut out, TAG_META, encode_meta(&self.meta));
        write_section(
            &mut out,
            TAG_SCHEMA,
            encode_schema(self.snapshot.table.schema()),
        );
        write_section(&mut out, TAG_TABLE, encode_table(&self.snapshot.table));
        write_section(
            &mut out,
            TAG_GRAPH,
            encode_graph(self.snapshot.graph.as_deref()),
        );
        write_section(
            &mut out,
            TAG_CONFIG,
            encode_config(
                &self.snapshot,
                self.snapshot.index.is_some() || self.rebuild_index,
                !self.snapshot.surrogates.fits.is_empty() || self.refit_surrogates,
            ),
        );
        write_section(&mut out, TAG_ORDERS, encode_orders(&self.snapshot.orders));
        write_section(&mut out, TAG_CACHE, encode_cache(&self.snapshot.cache));
        if let Some(index) = &self.snapshot.index {
            write_section(&mut out, TAG_INDEX, index.to_bytes());
        }
        if !self.snapshot.surrogates.fits.is_empty() {
            write_section(
                &mut out,
                TAG_SURROGATES,
                encode_surrogates(&self.snapshot.surrogates),
            );
        }
        if let Some(delta) = self.snapshot.delta.as_ref().filter(|d| d.n_rows() > 0) {
            write_section(&mut out, TAG_DELTA, encode_table(delta));
        }
        out
    }

    /// Parse a `.lewis` byte buffer. Every defect is a typed error:
    /// wrong magic, future version, truncation, per-section checksum
    /// mismatches, unknown or duplicate sections, and cross-section
    /// inconsistencies ([`StoreError::Mismatch`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Pack> {
        let (version, sections) = parse_sections(bytes)?;

        let require = |tag: u8| -> Result<&[u8]> {
            sections
                .iter()
                .find(|&&(t, _)| t == tag)
                .map(|&(_, p)| p)
                .ok_or(StoreError::MissingSection {
                    section: section_name(tag),
                })
        };

        let meta = decode_meta(require(TAG_META)?)?;
        let schema = decode_schema(require(TAG_SCHEMA)?)?;
        let n_attrs = schema.len();
        let table = decode_table(require(TAG_TABLE)?, schema.clone())?;
        let graph = decode_graph(require(TAG_GRAPH)?, n_attrs)?;
        let config = decode_config(require(TAG_CONFIG)?, version)?;
        let orders = decode_orders(require(TAG_ORDERS)?)?;
        let cache = match sections.iter().find(|&&(t, _)| t == TAG_CACHE) {
            Some(&(_, payload)) => decode_cache(payload)?,
            None => CacheSnapshot::default(),
        };
        let index = match sections.iter().find(|&&(t, _)| t == TAG_INDEX) {
            Some(&(_, payload)) => {
                if !config.index_enabled {
                    return Err(StoreError::Mismatch(
                        "index section present but the config disables the index".into(),
                    ));
                }
                let index = TableIndex::from_bytes(payload).map_err(|e| StoreError::Corrupt {
                    section: "index",
                    detail: e.detail,
                })?;
                // The section is internally consistent; now it must
                // also belong to *this* table (row count and
                // per-attribute cardinalities), or its popcounts would
                // silently disagree with scans.
                if !index.matches(&table) {
                    return Err(StoreError::Mismatch(format!(
                        "index covers {} rows over {} attributes, table has {} rows over {}",
                        index.n_rows(),
                        index.cardinalities().len(),
                        table.n_rows(),
                        table.n_attrs()
                    )));
                }
                // The section carries no joint-count cube: count it
                // from the table, as the build would have.
                Some(Arc::new(index.with_cube(&table)))
            }
            // Index-enabled without a section (a writer stripped it):
            // rebuild from the table so the engine still serves indexed.
            // The build only fails on a table/schema disagreement, which
            // from_columns has already ruled out.
            None if config.index_enabled => Some(Arc::new(
                TableIndex::build(&table, config.shards)
                    .map_err(|e| StoreError::Mismatch(e.to_string()))?,
            )),
            None => None,
        };
        let surrogates = match sections.iter().find(|&&(t, _)| t == TAG_SURROGATES) {
            Some(&(_, payload)) => {
                if !config.surrogates_flag {
                    return Err(StoreError::Mismatch(
                        "surrogates section present but the config carries no surrogates".into(),
                    ));
                }
                let mut surrogates = decode_surrogates(payload)?;
                if version < 6 {
                    // fitted by the old row-order sums (see v6 above)
                    surrogates.fits.clear();
                }
                // The section is internally consistent; each fit must
                // also belong to *this* engine — its coefficient count
                // must equal the surrogate feature width the table,
                // graph and prediction column imply for its actionable
                // set, or the restored engine would mis-index warm
                // coefficients. (Engine::restore re-validates the value
                // orders too.)
                for fit in &surrogates.fits {
                    let width = lewis_core::surrogate_width(
                        &table,
                        graph.as_ref(),
                        config.pred,
                        &fit.actionable,
                    )
                    .map_err(|e| StoreError::Mismatch(format!("surrogates: {e}")))?;
                    if fit.coefficients.len() != width {
                        return Err(StoreError::Mismatch(format!(
                            "surrogate for {:?} has {} coefficients, this engine needs {width}",
                            fit.actionable,
                            fit.coefficients.len()
                        )));
                    }
                }
                surrogates
            }
            // Surrogates flag without a section (a writer stripped it):
            // start with an empty cache and refit lazily per actionable
            // set. Pre-v4 packs land here too via the flag default.
            None => SurrogateCacheSnapshot::default(),
        };
        let delta = match sections.iter().find(|&&(t, _)| t == TAG_DELTA) {
            Some(&(_, payload)) => {
                if version < 5 {
                    return Err(StoreError::Mismatch(
                        "delta section in a pre-v5 pack (no writer ever produced one)".into(),
                    ));
                }
                // Same columnar codec as the table section, decoded
                // against the same schema — from_columns re-validates
                // every appended code against its domain.
                let delta = decode_table(payload, schema)?;
                (delta.n_rows() > 0).then(|| Arc::new(delta))
            }
            None => None,
        };
        // The watermark must equal the logical rows the sections carry:
        // a pack whose delta was truncated or swapped against a
        // different base must fail typed, never resume a stream at the
        // wrong row version.
        if let Some(watermark) = config.watermark {
            let total = table.n_rows() as u64 + delta.as_ref().map_or(0, |d| d.n_rows() as u64);
            if watermark != total {
                return Err(StoreError::Mismatch(format!(
                    "watermark records {watermark} rows, sections carry {total}"
                )));
            }
        }

        Ok(Pack {
            meta,
            snapshot: EngineSnapshot {
                table: Arc::new(table),
                graph: graph.map(Arc::new),
                pred: config.pred,
                positive: config.positive,
                alpha: config.alpha,
                min_support: config.min_support,
                cache_capacity: config.cache_capacity,
                shards: config.shards,
                features: config.features,
                orders,
                cache,
                surrogate_capacity: config.surrogate_capacity,
                surrogates,
                index,
                delta,
            },
            rebuild_index: false,
            refit_surrogates: false,
        })
    }

    /// Write the pack to `path`.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_bytes()).map_err(|e| StoreError::io(path, e))
    }

    /// Read a pack from `path`.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Pack> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, e))?;
        Pack::from_bytes(&bytes)
    }
}

/// Read a pack file and restore its engine in one step.
pub fn load_engine(path: impl AsRef<Path>) -> Result<(Engine, PackMeta)> {
    Pack::read_file(path)?.restore_engine()
}

/// Each section's `(tag, payload)`, in file order.
type TaggedSections<'a> = Vec<(u8, &'a [u8])>;

/// Validate a pack byte stream's framing (magic, version, per-section
/// CRCs, no unknown/duplicate tags) and return the version plus each
/// section's `(tag, payload)` in file order. Shared by
/// [`Pack::from_bytes`] and [`section_sizes`].
fn parse_sections(bytes: &[u8]) -> Result<(u32, TaggedSections<'_>)> {
    // Magic first: a foreign file is "not a pack", not a truncated
    // one, even when it is shorter than our header.
    let magic_prefix = bytes.len().min(MAGIC.len());
    if bytes[..magic_prefix] != MAGIC[..magic_prefix] {
        return Err(StoreError::BadMagic);
    }
    if bytes.len() < MAGIC.len() + 4 {
        return Err(StoreError::Truncated {
            offset: 0,
            detail: format!("{} bytes is smaller than the pack header", bytes.len()),
        });
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version == 0 || version > FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }

    // Walk the sections, checksum-verifying each payload before any
    // of its content is decoded.
    let mut sections: Vec<(u8, &[u8])> = Vec::new();
    let mut pos = MAGIC.len() + 4;
    while pos < bytes.len() {
        let header_end = pos + 1 + 8;
        if header_end > bytes.len() {
            return Err(StoreError::Truncated {
                offset: pos,
                detail: "section header cut off".into(),
            });
        }
        let tag = bytes[pos];
        let len_bytes: [u8; 8] =
            bytes[pos + 1..header_end]
                .try_into()
                .map_err(|_| StoreError::Truncated {
                    offset: pos,
                    detail: "section header cut off".into(),
                })?;
        let len = u64::from_le_bytes(len_bytes);
        let Ok(len) = usize::try_from(len) else {
            return Err(StoreError::Truncated {
                offset: pos,
                detail: format!("section {} announces {len} bytes", section_name(tag)),
            });
        };
        let payload_end = header_end.checked_add(len).and_then(|e| e.checked_add(4));
        let Some(payload_end) = payload_end.filter(|&e| e <= bytes.len()) else {
            return Err(StoreError::Truncated {
                offset: pos,
                detail: format!(
                    "section {} announces {len} bytes, {} remain",
                    section_name(tag),
                    bytes.len() - header_end
                ),
            });
        };
        let payload = &bytes[header_end..header_end + len];
        let stored_bytes: [u8; 4] =
            bytes[header_end + len..payload_end]
                .try_into()
                .map_err(|_| StoreError::Truncated {
                    offset: header_end + len,
                    detail: "section checksum cut off".into(),
                })?;
        let stored = u32::from_le_bytes(stored_bytes);
        if crc32(payload) != stored {
            return Err(StoreError::ChecksumMismatch {
                section: section_name(tag),
            });
        }
        if section_name(tag) == "unknown" {
            return Err(StoreError::Corrupt {
                section: "unknown",
                detail: format!("unknown section tag {tag}"),
            });
        }
        if sections.iter().any(|&(t, _)| t == tag) {
            return Err(StoreError::DuplicateSection {
                section: section_name(tag),
            });
        }
        sections.push((tag, payload));
        pos = payload_end;
    }
    Ok((version, sections))
}

/// Per-section layout of a pack byte stream: `(section name, payload
/// bytes)` in file order. Walks the same checksummed framing as
/// [`Pack::from_bytes`] without decoding any payload, so tooling
/// (`lewis-pack inspect`) can report sizes and the presence of the
/// optional sections (`cache`, `index`) cheaply.
pub fn section_sizes(bytes: &[u8]) -> Result<Vec<(&'static str, u64)>> {
    let (_, sections) = parse_sections(bytes)?;
    Ok(sections
        .iter()
        .map(|&(tag, payload)| (section_name(tag), payload.len() as u64))
        .collect())
}

/// Header-level facts for tooling (`lewis-pack inspect`): the format
/// version the pack announces and, for v5+ packs, the config's
/// row-version watermark (`None` for pre-v5 packs, which are frozen at
/// their base row count). Walks the checksummed framing and decodes the
/// config section only.
pub fn version_info(bytes: &[u8]) -> Result<(u32, Option<u64>)> {
    let (version, sections) = parse_sections(bytes)?;
    let payload = sections
        .iter()
        .find(|&&(t, _)| t == TAG_CONFIG)
        .map(|&(_, p)| p)
        .ok_or(StoreError::MissingSection {
            section: section_name(TAG_CONFIG),
        })?;
    let config = decode_config(payload, version)?;
    Ok((version, config.watermark))
}

fn write_section(out: &mut Vec<u8>, tag: u8, payload: Vec<u8>) {
    out.put_u8(tag);
    out.put_u64(payload.len() as u64);
    let crc = crc32(&payload);
    out.extend_from_slice(&payload);
    out.put_u32(crc);
}

/// Wrap a cursor-level failure with its section name.
fn corrupt(section: &'static str) -> impl Fn(CursorError) -> StoreError {
    move |e| StoreError::Corrupt {
        section,
        detail: e.to_string(),
    }
}

/// Clamp a decoded element count before it becomes a `Vec` capacity.
/// `Cursor::count` bounds counts by the *payload* bytes remaining, but
/// in-memory elements (structs, `String`s) are larger than their wire
/// form, so a crafted file could otherwise amplify its own size many
/// times over in one reservation. Past the clamp the vector grows
/// normally — decoding still fails fast when the payload runs out.
fn cap(n: usize) -> usize {
    n.min(1024)
}

// ---- meta ----

fn encode_meta(meta: &PackMeta) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_string(&meta.source);
    out.put_string(&meta.graph);
    out
}

fn decode_meta(payload: &[u8]) -> Result<PackMeta> {
    let at = corrupt("meta");
    let mut c = Cursor::new(payload);
    let source = c.string().map_err(&at)?;
    let graph = c.string().map_err(&at)?;
    c.finish().map_err(&at)?;
    Ok(PackMeta { source, graph })
}

// ---- schema ----

const DOMAIN_CATEGORICAL: u8 = 0;
const DOMAIN_BINNED: u8 = 1;

fn encode_schema(schema: &Schema) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_u32(schema.len() as u32);
    for a in schema.attr_ids() {
        // lint:allow(no-panic-on-input): encode runs on the in-memory
        // engine being saved, not on pack bytes; `a` is the schema's own
        // iterator so the lookup cannot miss.
        let attr = schema.attr(a).expect("attr in range");
        out.put_string(&attr.name);
        if let Some(labels) = attr.domain.labels() {
            out.put_u8(DOMAIN_CATEGORICAL);
            out.put_u32(labels.len() as u32);
            for l in labels {
                out.put_string(l);
            }
        } else {
            // lint:allow(no-panic-on-input): a Domain is categorical or
            // binned by construction (labels() returned None just above),
            // and this is the trusted save path, not the parser.
            let edges = attr.domain.edges().expect("categorical or binned");
            out.put_u8(DOMAIN_BINNED);
            out.put_u32(edges.len() as u32);
            for &e in edges {
                out.put_f64_bits(e);
            }
        }
    }
    out
}

fn decode_schema(payload: &[u8]) -> Result<Schema> {
    let at = corrupt("schema");
    let mut c = Cursor::new(payload);
    let n = c.count(2).map_err(&at)?;
    let mut schema = Schema::new();
    for _ in 0..n {
        let name = c.string().map_err(&at)?;
        if schema.attr_by_name(&name).is_some() {
            // Schema::push panics on duplicates (library misuse); from a
            // file that's data corruption, so fail typed instead.
            return Err(StoreError::Corrupt {
                section: "schema",
                detail: format!("duplicate attribute name {name:?}"),
            });
        }
        let kind = c.u8().map_err(&at)?;
        let domain = match kind {
            DOMAIN_CATEGORICAL => {
                let n_labels = c.count(4).map_err(&at)?;
                let mut labels = Vec::with_capacity(cap(n_labels));
                for _ in 0..n_labels {
                    labels.push(c.string().map_err(&at)?);
                }
                Domain::categorical(labels)
            }
            DOMAIN_BINNED => {
                let n_edges = c.count(8).map_err(&at)?;
                let mut edges = Vec::with_capacity(n_edges);
                for _ in 0..n_edges {
                    edges.push(c.f64_bits().map_err(&at)?);
                }
                // Domain::binned asserts on malformed edges; check first
                // so corruption cannot panic.
                if edges.len() < 2
                    || edges
                        .windows(2)
                        .any(|w| !matches!(w[0].partial_cmp(&w[1]), Some(std::cmp::Ordering::Less)))
                {
                    return Err(StoreError::Corrupt {
                        section: "schema",
                        detail: format!("attribute {name:?} has malformed bin edges"),
                    });
                }
                Domain::binned(edges)
            }
            other => {
                return Err(StoreError::Corrupt {
                    section: "schema",
                    detail: format!("unknown domain kind {other}"),
                })
            }
        };
        schema.push(name, domain);
    }
    c.finish().map_err(&at)?;
    Ok(schema)
}

// ---- table ----

/// Bytes per cell for a domain of the given cardinality.
fn column_width(cardinality: usize) -> usize {
    if cardinality <= 1 << 8 {
        1
    } else if cardinality <= 1 << 16 {
        2
    } else {
        4
    }
}

fn encode_table(table: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_u64(table.n_rows() as u64);
    out.put_u32(table.n_attrs() as u32);
    for (i, col) in table.columns().iter().enumerate() {
        let card = table
            .schema()
            .cardinality(AttrId(i as u32))
            // lint:allow(no-panic-on-input): trusted save path; the column
            // index enumerates the table's own schema.
            .expect("attr in range");
        let width = column_width(card);
        out.put_u8(width as u8);
        match width {
            1 => out.extend(col.iter().map(|&v| v as u8)),
            2 => {
                for &v in col {
                    out.extend_from_slice(&(v as u16).to_le_bytes());
                }
            }
            _ => {
                for &v in col {
                    out.put_u32(v);
                }
            }
        }
    }
    out
}

fn decode_table(payload: &[u8], schema: Schema) -> Result<Table> {
    let at = corrupt("table");
    let mut c = Cursor::new(payload);
    let n_rows = c.u64().map_err(&at)?;
    let Ok(n_rows) = usize::try_from(n_rows) else {
        return Err(StoreError::Corrupt {
            section: "table",
            detail: format!("{n_rows} rows do not fit in memory"),
        });
    };
    let n_cols = c.count(1).map_err(&at)?;
    let mut columns = Vec::with_capacity(cap(n_cols));
    for _ in 0..n_cols {
        let width = c.u8().map_err(&at)? as usize;
        if !matches!(width, 1 | 2 | 4) {
            return Err(StoreError::Corrupt {
                section: "table",
                detail: format!("invalid column width {width}"),
            });
        }
        let bytes = c
            .take(n_rows.checked_mul(width).ok_or(StoreError::Corrupt {
                section: "table",
                detail: "column size overflows".into(),
            })?)
            .map_err(&at)?;
        let col: Vec<Value> = match width {
            1 => bytes.iter().map(|&b| Value::from(b)).collect(),
            2 => bytes
                .chunks_exact(2)
                .map(|b| Value::from(u16::from_le_bytes([b[0], b[1]])))
                .collect(),
            _ => bytes
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect(),
        };
        columns.push(col);
    }
    c.finish().map_err(&at)?;
    // from_columns re-validates arity and every code against its domain:
    // a table section that disagrees with the schema section is a
    // cross-section mismatch, not a usable table.
    Table::from_columns(schema, columns).map_err(|e| StoreError::Mismatch(e.to_string()))
}

// ---- graph ----

fn encode_graph(graph: Option<&causal::Dag>) -> Vec<u8> {
    let mut out = Vec::new();
    match graph {
        None => out.put_u8(0),
        Some(g) => {
            out.put_u8(1);
            out.put_u32(g.n_nodes() as u32);
            let edges = adjacency_preserving_edges(g);
            out.put_u32(edges.len() as u32);
            for (from, to) in edges {
                out.put_u32(from as u32);
                out.put_u32(to as u32);
            }
        }
    }
    out
}

/// Edges of `g` in an order whose `add_edge` replay reproduces the
/// donor's adjacency lists **exactly** — children and parents lists in
/// the same order, not just the same sets. The order of those lists is
/// observable: local-explanation back-off drops context attributes in
/// causal-proximity order, which walks `parents()` as stored, so a
/// restored engine must get byte-identical lists or its local answers
/// drift (a sorted edge dump loses the insertion order and did exactly
/// that).
///
/// Greedy merge: an edge is emittable when it is the next unconsumed
/// entry of both its source's children list and its target's parents
/// list. The donor's true insertion sequence satisfies both orders, so
/// whenever edges remain at least one is emittable (the σ-earliest
/// remaining edge always is) and the loop drains completely.
fn adjacency_preserving_edges(g: &causal::Dag) -> Vec<(usize, usize)> {
    let n = g.n_nodes();
    let mut child_pos = vec![0usize; n];
    let mut parent_pos = vec![0usize; n];
    let mut edges = Vec::with_capacity(g.n_edges());
    loop {
        let before = edges.len();
        for (from, pos) in child_pos.iter_mut().enumerate() {
            while let Some(&to) = g.children(from).get(*pos) {
                if g.parents(to).get(parent_pos[to]) != Some(&from) {
                    break;
                }
                edges.push((from, to));
                *pos += 1;
                parent_pos[to] += 1;
            }
        }
        if edges.len() == before {
            break;
        }
    }
    // a consistent Dag always drains; a hypothetical inconsistency must
    // still emit every edge (order no longer recoverable) rather than
    // silently truncate the graph
    if edges.len() < g.n_edges() {
        for (from, &pos) in child_pos.iter().enumerate() {
            for &to in &g.children(from)[pos..] {
                edges.push((from, to));
            }
        }
    }
    edges
}

fn decode_graph(payload: &[u8], n_attrs: usize) -> Result<Option<causal::Dag>> {
    let at = corrupt("graph");
    let mut c = Cursor::new(payload);
    let present = c.u8().map_err(&at)?;
    let graph = match present {
        0 => None,
        1 => {
            let n_nodes = c.u32().map_err(&at)? as usize;
            // The node count carries no per-node payload, so the
            // cursor's count() guard cannot bound it — check it against
            // the schema (engines require n_nodes ≤ attributes) before
            // Dag::new allocates adjacency lists for a crafted 4-billion
            // node graph.
            if n_nodes > n_attrs {
                return Err(StoreError::Corrupt {
                    section: "graph",
                    detail: format!("{n_nodes} nodes for a schema of {n_attrs} attributes"),
                });
            }
            let n_edges = c.count(8).map_err(&at)?;
            let mut g = causal::Dag::new(n_nodes);
            for _ in 0..n_edges {
                let from = c.u32().map_err(&at)? as usize;
                let to = c.u32().map_err(&at)? as usize;
                // out-of-range nodes and cycles are rejected by the Dag
                // itself; surface them as corruption, never a panic
                g.add_edge(from, to).map_err(|e| StoreError::Corrupt {
                    section: "graph",
                    detail: e.to_string(),
                })?;
            }
            Some(g)
        }
        other => {
            return Err(StoreError::Corrupt {
                section: "graph",
                detail: format!("invalid presence flag {other}"),
            })
        }
    };
    c.finish().map_err(&at)?;
    Ok(graph)
}

// ---- config ----

struct Config {
    pred: AttrId,
    positive: Value,
    alpha: f64,
    min_support: usize,
    cache_capacity: usize,
    features: Vec<AttrId>,
    shards: usize,
    index_enabled: bool,
    surrogates_flag: bool,
    surrogate_capacity: usize,
    /// v5 row-version watermark (`None` for pre-v5 packs, which predate
    /// live tables and are frozen at their base row count).
    watermark: Option<u64>,
}

fn encode_config(snapshot: &EngineSnapshot, index_enabled: bool, surrogates: bool) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_u32(snapshot.pred.0);
    out.put_u32(snapshot.positive);
    out.put_f64_bits(snapshot.alpha);
    out.put_u64(snapshot.min_support as u64);
    out.put_u64(snapshot.cache_capacity as u64);
    out.put_u32_vec(&snapshot.features.iter().map(|a| a.0).collect::<Vec<_>>());
    // v2: the shard count rides at the end, so a v1 config is a strict
    // prefix of a v2 one
    out.put_u64(snapshot.shards as u64);
    // v3: the index-enabled flag rides after that, extending the prefix
    // property one more version
    out.put_u8(u8::from(index_enabled));
    // v4: the surrogates flag and the surrogate-cache capacity ride at
    // the end, extending the prefix property one more version
    out.put_u8(u8::from(surrogates));
    out.put_u64(snapshot.surrogate_capacity as u64);
    // v5: the row-version watermark rides last — base rows plus delta
    // rows, the logical size of the (possibly live) table being packed
    let delta_rows = snapshot.delta.as_ref().map_or(0, |d| d.n_rows() as u64);
    out.put_u64(snapshot.table.n_rows() as u64 + delta_rows);
    out
}

fn decode_config(payload: &[u8], version: u32) -> Result<Config> {
    let at = corrupt("config");
    let mut c = Cursor::new(payload);
    let pred = AttrId(c.u32().map_err(&at)?);
    let positive = c.u32().map_err(&at)?;
    let alpha = c.f64_bits().map_err(&at)?;
    let min_support = c.u64().map_err(&at)? as usize;
    let cache_capacity = c.u64().map_err(&at)? as usize;
    let features = c.u32_vec().map_err(&at)?.into_iter().map(AttrId).collect();
    // v1 predates sharding: those engines ran one contiguous pass
    let shards = if version >= 2 {
        let raw = c.u64().map_err(&at)?;
        // A pack's CRCs only catch *accidental* damage; a deliberately
        // crafted count would otherwise size per-pass allocations and
        // work, so anything outside the engine's legal range is
        // corruption — writers can never produce it (with_shards
        // clamps into the same range).
        if raw == 0 || raw > tabular::MAX_SHARDS as u64 {
            return Err(StoreError::Corrupt {
                section: "config",
                detail: format!("shard count {raw} outside [1, {}]", tabular::MAX_SHARDS),
            });
        }
        raw as usize
    } else {
        1
    };
    // v1/v2 predate bitmap indexes: those engines always scanned
    let index_enabled = if version >= 3 {
        match c.u8().map_err(&at)? {
            0 => false,
            1 => true,
            other => {
                return Err(StoreError::Corrupt {
                    section: "config",
                    detail: format!("invalid index flag {other}"),
                })
            }
        }
    } else {
        false
    };
    // v1–v3 predate the surrogate cache: those engines refit per query
    let (surrogates_flag, surrogate_capacity) = if version >= 4 {
        let flag = match c.u8().map_err(&at)? {
            0 => false,
            1 => true,
            other => {
                return Err(StoreError::Corrupt {
                    section: "config",
                    detail: format!("invalid surrogates flag {other}"),
                })
            }
        };
        (flag, c.u64().map_err(&at)? as usize)
    } else {
        (false, lewis_core::engine::DEFAULT_SURROGATE_CAPACITY)
    };
    // v1–v4 predate live tables: those packs are frozen at their base
    // row count, so there is no watermark to cross-check
    let watermark = if version >= 5 {
        Some(c.u64().map_err(&at)?)
    } else {
        None
    };
    c.finish().map_err(&at)?;
    Ok(Config {
        pred,
        positive,
        alpha,
        min_support,
        cache_capacity,
        features,
        shards,
        index_enabled,
        surrogates_flag,
        surrogate_capacity,
        watermark,
    })
}

// ---- orders ----

fn encode_orders(orders: &[Option<Vec<Value>>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_u32(orders.len() as u32);
    for order in orders {
        match order {
            None => out.put_u8(0),
            Some(o) => {
                out.put_u8(1);
                out.put_u32_vec(o);
            }
        }
    }
    out
}

fn decode_orders(payload: &[u8]) -> Result<Vec<Option<Vec<Value>>>> {
    let at = corrupt("orders");
    let mut c = Cursor::new(payload);
    let n = c.count(1).map_err(&at)?;
    let mut orders = Vec::with_capacity(cap(n));
    for _ in 0..n {
        orders.push(match c.u8().map_err(&at)? {
            0 => None,
            1 => Some(c.u32_vec().map_err(&at)?),
            other => {
                return Err(StoreError::Corrupt {
                    section: "orders",
                    detail: format!("invalid presence flag {other}"),
                })
            }
        });
    }
    c.finish().map_err(&at)?;
    Ok(orders)
}

// ---- cache ----

fn encode_cache(cache: &CacheSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_u64(cache.hits);
    out.put_u64(cache.misses);
    out.put_u32(cache.passes.len() as u32);
    for pass in &cache.passes {
        out.put_u32_vec(&pass.xs.iter().map(|a| a.0).collect::<Vec<_>>());
        out.put_u32(pass.context.len() as u32);
        for (a, v) in pass.context.iter() {
            out.put_u32(a.0);
            out.put_u32(v);
        }
        out.put_u32_vec(&pass.c_set.iter().map(|a| a.0).collect::<Vec<_>>());
        out.put_u64(pass.total);
        out.put_u32(pass.cells.len() as u32);
        for cell in &pass.cells {
            out.put_u32_vec(&cell.key);
            out.put_u64(cell.rows);
            out.put_u32(cell.arms.len() as u32);
            for arm in &cell.arms {
                out.put_u32_vec(&arm.assignment);
                out.put_u64(arm.rows);
                out.put_u64(arm.positives);
            }
        }
    }
    out
}

fn decode_cache(payload: &[u8]) -> Result<CacheSnapshot> {
    let at = corrupt("cache");
    let mut c = Cursor::new(payload);
    let hits = c.u64().map_err(&at)?;
    let misses = c.u64().map_err(&at)?;
    let n_passes = c.count(4).map_err(&at)?;
    let mut passes = Vec::with_capacity(cap(n_passes));
    for _ in 0..n_passes {
        let xs: Vec<AttrId> = c.u32_vec().map_err(&at)?.into_iter().map(AttrId).collect();
        let n_ctx = c.count(8).map_err(&at)?;
        let mut context = Context::empty();
        for _ in 0..n_ctx {
            let a = AttrId(c.u32().map_err(&at)?);
            let v = c.u32().map_err(&at)?;
            context.set(a, v);
        }
        let c_set: Vec<AttrId> = c.u32_vec().map_err(&at)?.into_iter().map(AttrId).collect();
        let total = c.u64().map_err(&at)?;
        let n_cells = c.count(4).map_err(&at)?;
        let mut cells = Vec::with_capacity(cap(n_cells));
        for _ in 0..n_cells {
            let key = c.u32_vec().map_err(&at)?;
            let rows = c.u64().map_err(&at)?;
            let n_arms = c.count(4).map_err(&at)?;
            let mut arms = Vec::with_capacity(cap(n_arms));
            for _ in 0..n_arms {
                arms.push(ArmSnapshot {
                    assignment: c.u32_vec().map_err(&at)?,
                    rows: c.u64().map_err(&at)?,
                    positives: c.u64().map_err(&at)?,
                });
            }
            cells.push(CellSnapshot { key, rows, arms });
        }
        passes.push(PassSnapshot {
            xs,
            context,
            c_set,
            total,
            cells,
        });
    }
    c.finish().map_err(&at)?;
    Ok(CacheSnapshot {
        hits,
        misses,
        passes,
    })
}

// ---- surrogates ----

fn encode_surrogates(surrogates: &SurrogateCacheSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_u64(surrogates.hits);
    out.put_u64(surrogates.misses);
    out.put_u32(surrogates.fits.len() as u32);
    for fit in &surrogates.fits {
        out.put_u32_vec(&fit.actionable.iter().map(|a| a.0).collect::<Vec<_>>());
        out.put_f64_bits(fit.intercept);
        out.put_u32(fit.coefficients.len() as u32);
        for &w in &fit.coefficients {
            out.put_f64_bits(w);
        }
        out.put_u32(fit.orders.len() as u32);
        for order in &fit.orders {
            out.put_u32_vec(order);
        }
    }
    out
}

fn decode_surrogates(payload: &[u8]) -> Result<SurrogateCacheSnapshot> {
    let at = corrupt("surrogates");
    let mut c = Cursor::new(payload);
    let hits = c.u64().map_err(&at)?;
    let misses = c.u64().map_err(&at)?;
    let n_fits = c.count(4).map_err(&at)?;
    let mut fits = Vec::with_capacity(cap(n_fits));
    for _ in 0..n_fits {
        let actionable: Vec<AttrId> = c.u32_vec().map_err(&at)?.into_iter().map(AttrId).collect();
        let intercept = c.f64_bits().map_err(&at)?;
        let n_coefs = c.count(8).map_err(&at)?;
        let mut coefficients = Vec::with_capacity(n_coefs);
        for _ in 0..n_coefs {
            coefficients.push(c.f64_bits().map_err(&at)?);
        }
        let n_orders = c.count(4).map_err(&at)?;
        let mut orders = Vec::with_capacity(cap(n_orders));
        for _ in 0..n_orders {
            orders.push(c.u32_vec().map_err(&at)?);
        }
        fits.push(SurrogateSnapshot {
            actionable,
            intercept,
            coefficients,
            orders,
        });
    }
    c.finish().map_err(&at)?;
    Ok(SurrogateCacheSnapshot { hits, misses, fits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lewis_core::ExplainRequest;

    fn tiny_engine() -> Engine {
        let mut schema = Schema::new();
        schema.push("savings", Domain::categorical(["low", "high"]));
        schema.push("pred", Domain::boolean());
        let mut table = Table::new(schema);
        for row in [[0, 0], [0, 0], [0, 1], [1, 1], [1, 1], [1, 0]] {
            table.push_row(&row).unwrap();
        }
        Engine::builder(table)
            .prediction(AttrId(1), 1)
            .features(&[AttrId(0)])
            .shards(3)
            // pinned off (the default is on): these tests exercise the
            // unindexed pack shape specifically
            .index(false)
            .build()
            .unwrap()
    }

    /// Regression: a graph whose edges were inserted out of sorted
    /// order must round-trip with its adjacency **lists** intact, not
    /// just its edge set — local-explanation back-off walks `parents()`
    /// in stored order, so a sorted re-emit silently changed restored
    /// engines' local answers.
    #[test]
    fn graph_round_trips_preserve_adjacency_order() {
        let mut g = causal::Dag::new(5);
        // node 4's parents arrive as [3, 0, 2]; node 3's as [1, 0]
        g.add_edge(3, 4).unwrap();
        g.add_edge(1, 3).unwrap();
        g.add_edge(0, 4).unwrap();
        g.add_edge(0, 3).unwrap();
        g.add_edge(2, 4).unwrap();
        assert_eq!(g.parents(4), &[3, 0, 2], "the fixture is out of order");
        let decoded = decode_graph(&encode_graph(Some(&g)), 5)
            .unwrap()
            .expect("graph present");
        for node in 0..5 {
            assert_eq!(decoded.parents(node), g.parents(node), "parents of {node}");
            assert_eq!(
                decoded.children(node),
                g.children(node),
                "children of {node}"
            );
        }
    }

    /// Re-emit a pack byte stream with `version` in the header and the
    /// config section's payload passed through `rewrite` (all other
    /// sections are copied verbatim, CRCs recomputed) — the one place
    /// the tests below encode the section framing.
    fn rewrite_config(bytes: &[u8], version: u32, rewrite: impl Fn(Vec<u8>) -> Vec<u8>) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.put_u32(version);
        let mut pos = MAGIC.len() + 4;
        while pos < bytes.len() {
            let tag = bytes[pos];
            let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
            let mut payload = bytes[pos + 9..pos + 9 + len].to_vec();
            if tag == TAG_CONFIG {
                payload = rewrite(payload);
            }
            write_section(&mut out, tag, payload);
            pos += 9 + len + 4;
        }
        out
    }

    /// Overwrite the shard count of a v5 config payload (it sits just
    /// before the trailing index flag, surrogates flag, surrogate
    /// capacity and row-version watermark).
    fn with_shard_count(count: u64) -> impl Fn(Vec<u8>) -> Vec<u8> {
        move |mut payload: Vec<u8>| {
            let n = payload.len();
            payload[n - 26..n - 18].copy_from_slice(&count.to_le_bytes());
            payload
        }
    }

    #[test]
    fn v5_packs_round_trip_the_shard_count() {
        let engine = tiny_engine();
        let bytes = Pack::from_engine(&engine, PackMeta::default()).to_bytes();
        let (restored, _) = Pack::from_bytes(&bytes).unwrap().restore_engine().unwrap();
        assert_eq!(restored.shards(), 3, "pack must carry the shard layout");
        let a = engine.run(&ExplainRequest::Global).unwrap();
        let b = restored.run(&ExplainRequest::Global).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn v1_packs_still_read_and_restore_with_one_shard() {
        let engine = tiny_engine();
        let v5 = Pack::from_engine(&engine, PackMeta::default()).to_bytes();
        // v1 configs are a strict prefix of v5 ones: drop the trailing
        // watermark, surrogate fields, index flag and shard count and
        // stamp the old version
        let v1 = rewrite_config(&v5, 1, |payload| {
            let keep = payload.len() - 26;
            payload[..keep].to_vec()
        });
        let (restored, _) = Pack::from_bytes(&v1).unwrap().restore_engine().unwrap();
        assert_eq!(restored.shards(), 1, "v1 engines ran one contiguous pass");
        assert!(!restored.index_enabled(), "v1 engines always scanned");
        // and the answers still match (shard count never changes results)
        let a = engine.run(&ExplainRequest::Global).unwrap();
        let b = restored.run(&ExplainRequest::Global).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn v2_packs_still_read_and_restore_without_an_index() {
        let engine = tiny_engine();
        let v5 = Pack::from_engine(&engine, PackMeta::default()).to_bytes();
        // v2 configs are a strict prefix of v5 ones: drop the trailing
        // watermark, surrogate fields and index flag and stamp the old
        // version
        let v2 = rewrite_config(&v5, 2, |payload| {
            let keep = payload.len() - 18;
            payload[..keep].to_vec()
        });
        let (restored, _) = Pack::from_bytes(&v2).unwrap().restore_engine().unwrap();
        assert_eq!(restored.shards(), 3, "v2 packs carry the shard layout");
        assert!(!restored.index_enabled(), "v2 engines always scanned");
        let a = engine.run(&ExplainRequest::Global).unwrap();
        let b = restored.run(&ExplainRequest::Global).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn v3_packs_still_read_and_restore_with_a_cold_surrogate_cache() {
        let engine = tiny_engine();
        // warm a surrogate so the v4 writer would have carried it — the
        // v3 rewrite must drop it cleanly
        engine.prepare_surrogate(&[AttrId(0)]).unwrap();
        let v5 = Pack::from_engine(&engine, PackMeta::default()).to_bytes();
        // v3 configs are a strict prefix of v5 ones: drop the trailing
        // watermark and surrogates flag + capacity and stamp the old
        // version (also drop the v4-only surrogates section — v3
        // readers never wrote one)
        let v3 = rewrite_config(&strip_section(&v5, TAG_SURROGATES), 3, |payload| {
            let keep = payload.len() - 17;
            payload[..keep].to_vec()
        });
        let (restored, _) = Pack::from_bytes(&v3).unwrap().restore_engine().unwrap();
        assert_eq!(restored.shards(), 3, "v3 packs carry the shard layout");
        let s = restored.surrogate_stats();
        assert_eq!(s.entries, 0, "v3 engines predate the surrogate cache");
        assert_eq!(
            s.capacity,
            lewis_core::engine::DEFAULT_SURROGATE_CAPACITY,
            "pre-v4 packs restore at the default surrogate capacity"
        );
        let a = engine.run(&ExplainRequest::Global).unwrap();
        let b = restored.run(&ExplainRequest::Global).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Re-emit a pack byte stream without the sections carrying `tag`
    /// (CRCs of the surviving sections are copied verbatim).
    fn strip_section(bytes: &[u8], strip: u8) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&bytes[..MAGIC.len() + 4]);
        let mut pos = MAGIC.len() + 4;
        while pos < bytes.len() {
            let tag = bytes[pos];
            let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
            let end = pos + 9 + len + 4;
            if tag != strip {
                out.extend_from_slice(&bytes[pos..end]);
            }
            pos = end;
        }
        out
    }

    #[test]
    fn warm_surrogates_round_trip_and_skip_the_refit() {
        let engine = tiny_engine();
        engine.prepare_surrogate(&[AttrId(0)]).unwrap();
        let donor_stats = engine.surrogate_stats();
        assert_eq!((donor_stats.entries, donor_stats.misses), (1, 1));
        let bytes = Pack::from_engine(&engine, PackMeta::default()).to_bytes();
        let sizes = section_sizes(&bytes).unwrap();
        assert!(
            sizes.iter().any(|&(name, n)| name == "surrogates" && n > 0),
            "warm packs must carry a surrogates section: {sizes:?}"
        );
        let (restored, _) = Pack::from_bytes(&bytes).unwrap().restore_engine().unwrap();
        let s = restored.surrogate_stats();
        assert_eq!(s.entries, 1, "the warm fit must arrive resident");
        assert_eq!(s.misses, donor_stats.misses, "counters continue");
        // a recourse query over the warm set must hit, not refit
        let before = restored.surrogate_stats();
        let r = restored.run(&ExplainRequest::Recourse {
            row: vec![0, 0],
            actionable: vec![AttrId(0)],
            opts: Default::default(),
        });
        let after = restored.surrogate_stats();
        assert_eq!(after.misses, before.misses, "warm set must not refit");
        assert_eq!(after.hits, before.hits + 1);
        // and the answer matches the donor's, error or not
        let d = engine.run(&ExplainRequest::Recourse {
            row: vec![0, 0],
            actionable: vec![AttrId(0)],
            opts: Default::default(),
        });
        assert_eq!(format!("{d:?}"), format!("{r:?}"));
    }

    #[test]
    fn stripped_surrogate_packs_refit_lazily() {
        let engine = tiny_engine();
        engine.prepare_surrogate(&[AttrId(0)]).unwrap();
        let mut pack = Pack::from_engine(&engine, PackMeta::default());
        pack.strip_surrogates();
        let bytes = pack.to_bytes();
        let sizes = section_sizes(&bytes).unwrap();
        assert!(
            !sizes.iter().any(|&(name, _)| name == "surrogates"),
            "stripped packs must omit the surrogates section: {sizes:?}"
        );
        let (restored, _) = Pack::from_bytes(&bytes).unwrap().restore_engine().unwrap();
        assert_eq!(restored.surrogate_stats().entries, 0);
        // the flag without a section means lazy refit, not an error:
        // the first recourse query fits fresh
        let _ = restored.run(&ExplainRequest::Recourse {
            row: vec![0, 0],
            actionable: vec![AttrId(0)],
            opts: Default::default(),
        });
        assert_eq!(restored.surrogate_stats().entries, 1);
    }

    #[test]
    fn pre_v6_surrogates_never_answer_and_refit_lazily() {
        let engine = tiny_engine();
        engine.prepare_surrogate(&[AttrId(0)]).unwrap();
        let donor = engine.surrogate_stats();
        let bytes = Pack::from_engine(&engine, PackMeta::default()).to_bytes();
        // v5 had the same layout: re-stamping the header is a v5 pack
        // whose surrogates were fitted by the old row-order sums
        let v5 = rewrite_config(&bytes, 5, |payload| payload);
        let (restored, _) = Pack::from_bytes(&v5).unwrap().restore_engine().unwrap();
        let s = restored.surrogate_stats();
        assert_eq!(s.entries, 0, "pre-v6 fits must not arrive resident");
        assert_eq!(
            (s.hits, s.misses),
            (donor.hits, donor.misses),
            "counters continue"
        );
        let request = ExplainRequest::Recourse {
            row: vec![0, 0],
            actionable: vec![AttrId(0)],
            opts: lewis_core::RecourseOptions {
                alpha: 0.3,
                min_support: 1,
                ..Default::default()
            },
        };
        let got = restored.run(&request);
        assert!(got.is_ok(), "{got:?}");
        assert_eq!(
            restored.surrogate_stats().misses,
            donor.misses + 1,
            "refit lazily"
        );
        let want = tiny_engine().run(&request);
        assert_eq!(format!("{want:?}"), format!("{got:?}"));
    }

    #[test]
    fn surrogate_section_without_the_flag_is_a_mismatch() {
        let engine = tiny_engine();
        engine.prepare_surrogate(&[AttrId(0)]).unwrap();
        let bytes = Pack::from_engine(&engine, PackMeta::default()).to_bytes();
        // clear the config's surrogates flag while keeping the section
        let cleared = rewrite_config(&bytes, FORMAT_VERSION, |mut payload| {
            let n = payload.len();
            payload[n - 17] = 0;
            payload
        });
        assert!(
            matches!(Pack::from_bytes(&cleared), Err(StoreError::Mismatch(_))),
            "a surrogates section the config does not announce must be a mismatch"
        );
    }

    #[test]
    fn foreign_surrogates_are_a_mismatch() {
        let engine = tiny_engine();
        engine.prepare_surrogate(&[AttrId(0)]).unwrap();
        let mut pack = Pack::from_engine(&engine, PackMeta::default());
        // widen the warm fit beyond this engine's layout: a surrogate
        // fitted against some other schema must never be served
        pack.snapshot.surrogates.fits[0].coefficients.push(0.25);
        let bytes = pack.to_bytes();
        assert!(
            matches!(Pack::from_bytes(&bytes), Err(StoreError::Mismatch(m)) if m.contains("surrogate")),
            "a foreign-width surrogate must be a mismatch"
        );
    }

    fn indexed_engine() -> Engine {
        let mut schema = Schema::new();
        schema.push("savings", Domain::categorical(["low", "high"]));
        schema.push("pred", Domain::boolean());
        let mut table = Table::new(schema);
        for row in [[0, 0], [0, 0], [0, 1], [1, 1], [1, 1], [1, 0]] {
            table.push_row(&row).unwrap();
        }
        Engine::builder(table)
            .prediction(AttrId(1), 1)
            .features(&[AttrId(0)])
            .shards(2)
            .index(true)
            .build()
            .unwrap()
    }

    #[test]
    fn v3_packs_round_trip_the_bitmap_index() {
        let engine = indexed_engine();
        let bytes = Pack::from_engine(&engine, PackMeta::default()).to_bytes();
        let sizes = section_sizes(&bytes).unwrap();
        assert!(
            sizes.iter().any(|&(name, n)| name == "index" && n > 0),
            "indexed packs must carry an index section: {sizes:?}"
        );
        let (restored, _) = Pack::from_bytes(&bytes).unwrap().restore_engine().unwrap();
        assert!(restored.index_enabled(), "index must arrive installed");
        assert_eq!(restored.index_memory_bytes(), engine.index_memory_bytes());
        // the section carries no cube: the restore counts it (2 × 2 cells)
        assert_eq!(restored.index_cube_cells(), 4);
        let a = engine.run(&ExplainRequest::Global).unwrap();
        let b = restored.run(&ExplainRequest::Global).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn stripped_index_packs_rebuild_the_index_on_read() {
        let engine = indexed_engine();
        let mut pack = Pack::from_engine(&engine, PackMeta::default());
        pack.strip_index();
        let bytes = pack.to_bytes();
        let sizes = section_sizes(&bytes).unwrap();
        assert!(
            !sizes.iter().any(|&(name, _)| name == "index"),
            "stripped packs must omit the index section: {sizes:?}"
        );
        let (restored, _) = Pack::from_bytes(&bytes).unwrap().restore_engine().unwrap();
        assert!(
            restored.index_enabled(),
            "the config flag without a section must rebuild from the table"
        );
        let a = engine.run(&ExplainRequest::Global).unwrap();
        let b = restored.run(&ExplainRequest::Global).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn unindexed_packs_omit_the_index_section() {
        let bytes = Pack::from_engine(&tiny_engine(), PackMeta::default()).to_bytes();
        let sizes = section_sizes(&bytes).unwrap();
        assert!(!sizes.iter().any(|&(name, _)| name == "index"));
        let (restored, _) = Pack::from_bytes(&bytes).unwrap().restore_engine().unwrap();
        assert!(!restored.index_enabled());
    }

    #[test]
    fn v4_packs_still_read_and_restore_frozen() {
        let engine = tiny_engine();
        let v5 = Pack::from_engine(&engine, PackMeta::default()).to_bytes();
        // v4 configs are a strict prefix of v5 ones: drop the trailing
        // watermark and stamp the old version
        let v4 = rewrite_config(&v5, 4, |payload| {
            let keep = payload.len() - 8;
            payload[..keep].to_vec()
        });
        let (restored, _) = Pack::from_bytes(&v4).unwrap().restore_engine().unwrap();
        assert_eq!(restored.shards(), 3, "v4 packs carry the shard layout");
        assert_eq!(restored.delta_rows(), 0, "v4 packs predate live tables");
        let a = engine.run(&ExplainRequest::Global).unwrap();
        let b = restored.run(&ExplainRequest::Global).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// `tiny_engine` with three rows appended as a live delta shard.
    fn live_engine() -> Engine {
        let batch = [vec![1, 1], vec![0, 0], vec![1, 0]];
        tiny_engine().with_delta(&batch).unwrap()
    }

    #[test]
    fn v5_packs_round_trip_a_live_engine_mid_stream() {
        let live = live_engine();
        let _ = live.run(&ExplainRequest::Global).unwrap();
        let bytes = Pack::from_engine(&live, PackMeta::default()).to_bytes();
        let sizes = section_sizes(&bytes).unwrap();
        assert!(
            sizes.iter().any(|&(name, n)| name == "delta" && n > 0),
            "live packs must carry a delta section: {sizes:?}"
        );
        let (version, watermark) = version_info(&bytes).unwrap();
        assert_eq!(version, FORMAT_VERSION);
        assert_eq!(watermark, Some(9), "watermark = 6 base + 3 delta rows");
        let (restored, _) = Pack::from_bytes(&bytes).unwrap().restore_engine().unwrap();
        assert_eq!(restored.delta_rows(), 3, "the stream resumes mid-delta");
        assert_eq!(restored.total_rows(), 9);
        let a = live.run(&ExplainRequest::Global).unwrap();
        let b = restored.run(&ExplainRequest::Global).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn frozen_packs_omit_the_delta_section_and_record_the_base_watermark() {
        let bytes = Pack::from_engine(&tiny_engine(), PackMeta::default()).to_bytes();
        let sizes = section_sizes(&bytes).unwrap();
        assert!(!sizes.iter().any(|&(name, _)| name == "delta"));
        assert_eq!(version_info(&bytes).unwrap(), (FORMAT_VERSION, Some(6)));
    }

    #[test]
    fn watermark_disagreeing_with_the_sections_is_a_mismatch() {
        let bytes = Pack::from_engine(&live_engine(), PackMeta::default()).to_bytes();
        let tampered = rewrite_config(&bytes, FORMAT_VERSION, |mut payload| {
            let n = payload.len();
            payload[n - 8..].copy_from_slice(&999u64.to_le_bytes());
            payload
        });
        assert!(
            matches!(
                Pack::from_bytes(&tampered),
                Err(StoreError::Mismatch(m)) if m.contains("watermark")
            ),
            "a tampered watermark must be a mismatch"
        );
    }

    #[test]
    fn delta_sections_in_pre_v5_packs_are_a_mismatch() {
        let bytes = Pack::from_engine(&live_engine(), PackMeta::default()).to_bytes();
        // stamp v4 (dropping the watermark so the config parses) while
        // leaving the delta section in place — no v4 writer ever
        // produced one, so the pairing can only be crafted
        let v4 = rewrite_config(&bytes, 4, |payload| {
            let keep = payload.len() - 8;
            payload[..keep].to_vec()
        });
        assert!(matches!(
            Pack::from_bytes(&v4),
            Err(StoreError::Mismatch(_))
        ));
    }

    #[test]
    fn out_of_range_shard_counts_are_corrupt_not_clamped() {
        let engine = tiny_engine();
        let bytes = Pack::from_engine(&engine, PackMeta::default()).to_bytes();
        // rewrite the config section's shard count with each hostile
        // value: zero, just past the cap, and an allocation-amplifier
        // sized count — all with valid CRCs, so only the range check
        // stands between the file and the engine
        for hostile in [0u64, tabular::MAX_SHARDS as u64 + 1, 1 << 61, u64::MAX] {
            let out = rewrite_config(&bytes, FORMAT_VERSION, with_shard_count(hostile));
            assert!(
                matches!(
                    Pack::from_bytes(&out),
                    Err(StoreError::Corrupt {
                        section: "config",
                        ..
                    })
                ),
                "shard count {hostile} must be rejected as corruption"
            );
        }
        // the legal maximum itself still reads fine
        let out = rewrite_config(
            &bytes,
            FORMAT_VERSION,
            with_shard_count(tabular::MAX_SHARDS as u64),
        );
        let (restored, _) = Pack::from_bytes(&out).unwrap().restore_engine().unwrap();
        assert_eq!(restored.shards(), tabular::MAX_SHARDS);
    }
}
