//! # tabular — columnar data engine for discrete, finite domains
//!
//! This crate is the storage and aggregation substrate of the LEWIS
//! reproduction. The paper (§2) assumes *all domains are discrete and
//! finite; continuous domains are assumed to be binned*, so the engine is
//! built around that assumption from the ground up:
//!
//! * every attribute value is a dictionary code (`u32`) into a finite
//!   [`Domain`];
//! * tables are column-major [`Table`]s of code vectors, cache-friendly for
//!   the full-column scans that dominate probability estimation;
//! * conditional probabilities such as `Pr(o | c, x, k)` are estimated with
//!   the grouped counting engine in [`groupby`], with Laplace smoothing;
//! * continuous source data is quantized through [`binning`].
//!
//! The crate has no opinion about causality or models — it only stores,
//! filters, counts and samples.
//!
//! ## Quick example
//!
//! ```
//! use tabular::{Domain, Schema, Table, Context};
//!
//! let mut schema = Schema::new();
//! let sex = schema.push("sex", Domain::categorical(["F", "M"]));
//! let out = schema.push("approved", Domain::categorical(["no", "yes"]));
//! let mut t = Table::new(schema);
//! t.push_row(&[0, 1]).unwrap();
//! t.push_row(&[1, 0]).unwrap();
//! t.push_row(&[1, 1]).unwrap();
//!
//! // Pr(approved = yes | sex = M), unsmoothed
//! let ctx = Context::of([(sex, 1)]);
//! let p = t.conditional_probability(out, 1, &ctx, 0.0).unwrap();
//! assert!((p - 0.5).abs() < 1e-12);
//! ```

pub mod binning;
pub mod bitmap;
pub mod context;
pub mod csv;
pub mod domain;
pub mod error;
pub mod fanout;
pub mod groupby;
pub mod hash;
pub mod sample;
pub mod schema;
pub mod shard;
pub mod table;

pub use binning::{Binner, BinningStrategy};
pub use bitmap::{code_words, words_for, Bitmap};
pub use context::Context;
pub use csv::{read_csv_file, read_csv_str, write_csv_file, write_csv_string};
pub use domain::{AttrId, Domain, Value};
pub use error::TabularError;
pub use groupby::{Counter, GroupKey, MAX_DENSE_GRID};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use sample::{bootstrap_indices, train_test_split};
pub use schema::{Attribute, Schema};
pub use shard::{shard_boundaries, RowShard, ShardedTable, MAX_SHARDS};
pub use table::Table;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TabularError>;
