//! # lewis-store — `.lewis` packs: binary columnar tables and warm
//! engine snapshots for instant cold-starts
//!
//! Every `lewis-serve` start used to pay CSV parsing, engine
//! construction and a cold counting-pass cache until traffic re-warmed
//! it. A **pack** bundles everything the serving layer needs —
//! dictionary-encoded columnar table, schema and domains, causal graph,
//! engine configuration, inferred value orders, and an optional
//! pre-warmed cache snapshot — in one hand-rolled, std-only binary file:
//! length-prefixed, versioned (magic + format version) and CRC-32
//! checksummed per section, so truncation and bit-flips yield typed
//! [`StoreError`]s, never garbage engines.
//!
//! A restored engine is **observably identical** to its donor: all
//! query kinds answer byte-for-byte the same (property-tested in
//! `tests/pack_engine.rs` at the workspace root), and the warm cache
//! keeps serving without re-scanning the table.
//!
//! ## Pack → restore → query
//!
//! ```
//! use lewis_core::{Engine, ExplainRequest};
//! use lewis_store::{Pack, PackMeta};
//! use tabular::{AttrId, Domain, Schema, Table};
//!
//! // a tiny labelled table: savings drives approval
//! let mut schema = Schema::new();
//! schema.push("savings", Domain::categorical(["low", "high"]));
//! schema.push("pred", Domain::boolean());
//! let mut table = Table::new(schema);
//! for row in [[0, 0], [0, 0], [0, 1], [1, 1], [1, 1], [1, 0]] {
//!     table.push_row(&row).unwrap();
//! }
//! let engine = Engine::builder(table)
//!     .prediction(AttrId(1), 1)
//!     .features(&[AttrId(0)])
//!     .build()
//!     .unwrap();
//! let warm = engine.run(&ExplainRequest::Global).unwrap(); // warms the cache
//!
//! // pack the warm engine, ship the bytes, restore elsewhere
//! let bytes = Pack::from_engine(&engine, PackMeta::default()).to_bytes();
//! let (restored, _meta) = Pack::from_bytes(&bytes).unwrap().restore_engine().unwrap();
//!
//! let again = restored.run(&ExplainRequest::Global).unwrap();
//! assert_eq!(format!("{warm:?}"), format!("{again:?}"));
//! assert!(restored.cache_stats().entries > 0, "cache arrived warm");
//! ```
//!
//! ## Format
//!
//! See [`pack`] for the byte layout. The format is deliberately dumb:
//! no compression, no seeking, one linear pass to read — restore cost
//! is dominated by `memcpy`-shaped column decodes, which is what makes
//! pack-boot dramatically faster than CSV-rebuild (`lewisbench` reports
//! `store.pack.restore_ms`, and `setup_s` end to end).

pub mod pack;

mod bytes;

pub use pack::{load_engine, section_sizes, version_info, Pack, PackMeta, FORMAT_VERSION, MAGIC};

/// Errors raised while writing, reading or restoring packs. Each defect
/// class is a distinct variant so callers (and tests) can tell a
/// truncated download from a flipped bit from a snapshot that simply
/// does not belong to its table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed (flattened to keep the error
    /// `Clone`/`Eq`; the offending path is kept for context).
    Io {
        /// The path being read or written.
        path: String,
        /// The underlying `io::Error`, rendered.
        message: String,
    },
    /// The file does not start with the `.lewis` magic.
    BadMagic,
    /// The file announces a format version this reader does not speak.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Newest version this build understands.
        supported: u32,
    },
    /// The byte stream ends before a header or announced payload does.
    Truncated {
        /// Byte offset of the cut-off structure.
        offset: usize,
        /// What was being read there.
        detail: String,
    },
    /// A section's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// The section whose checksum failed.
        section: &'static str,
    },
    /// A checksum-valid payload decodes to nonsense (unknown tags or
    /// kinds, malformed counts, invalid UTF-8, …).
    Corrupt {
        /// The section being decoded.
        section: &'static str,
        /// Where and why the decode failed.
        detail: String,
    },
    /// A required section is absent.
    MissingSection {
        /// The missing section.
        section: &'static str,
    },
    /// The same section appears twice.
    DuplicateSection {
        /// The repeated section.
        section: &'static str,
    },
    /// Sections are individually valid but disagree with each other or
    /// with the engine's invariants (table codes outside their domains,
    /// value orders that are no permutation, cache passes referencing
    /// unknown attributes, …).
    Mismatch(String),
}

impl StoreError {
    /// Wrap an `io::Error` raised while touching `path`.
    pub fn io(path: impl AsRef<std::path::Path>, err: std::io::Error) -> Self {
        StoreError::Io {
            path: path.as_ref().display().to_string(),
            message: err.to_string(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "io error on {path:?}: {message}"),
            StoreError::BadMagic => write!(f, "not a .lewis pack (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "pack format version {found} is newer than the supported {supported}"
            ),
            StoreError::Truncated { offset, detail } => {
                write!(f, "truncated pack at byte {offset}: {detail}")
            }
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section:?}")
            }
            StoreError::Corrupt { section, detail } => {
                write!(f, "corrupt section {section:?}: {detail}")
            }
            StoreError::MissingSection { section } => {
                write!(f, "required section {section:?} is missing")
            }
            StoreError::DuplicateSection { section } => {
                write!(f, "section {section:?} appears more than once")
            }
            StoreError::Mismatch(detail) => {
                write!(f, "pack sections are inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

/// List the `.lewis` packs in `dir` as `(engine_name, path)` pairs,
/// sorted by name. The engine name is the file stem (`german.lewis` →
/// `german`); non-`.lewis` entries and subdirectories are skipped. This
/// is how a serving fleet bootstraps: every replica points at the same
/// pack directory and loads the same engines under the same names.
pub fn discover_packs(
    dir: impl AsRef<std::path::Path>,
) -> Result<Vec<(String, std::path::PathBuf)>> {
    let dir = dir.as_ref();
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
    let mut packs = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, e))?;
        let path = entry.path();
        if !path.is_file() || path.extension().and_then(|e| e.to_str()) != Some("lewis") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        packs.push((stem.to_string(), path));
    }
    packs.sort();
    Ok(packs)
}
