//! # lewis-serve — the LEWIS explanation service
//!
//! The paper frames LEWIS as a *system*: one trained estimator
//! answering global, contextual and local counterfactual queries and
//! generating recourse on demand (§3.2, §4.2). This crate is that
//! system's network face — an HTTP/1.1 JSON service over shared
//! [`lewis_core::Engine`]s, built **entirely on `std`** (the build
//! environment has no crates.io access, so there is no serde, no
//! hyper, no tokio; the whole stack is hand-rolled and test-covered).
//!
//! The layers, bottom-up:
//!
//! * [`wire`] — a small JSON value type with parser/serializer, plus
//!   explicit [`lewis_core::ExplainRequest`] /
//!   [`lewis_core::ExplainResponse`] / [`lewis_core::LewisError`] ⇄
//!   JSON mappings (round-trip property-tested; finite `f64`s survive
//!   bit for bit);
//! * [`registry`] — named engines: built-in SCM datasets and user CSVs
//!   loaded through [`tabular::read_csv_file`], so one process serves
//!   many models/scenarios;
//! * [`http`] — bounded HTTP/1.1 request and response parsing,
//!   response writing, and the one listener, bounded worker pool and
//!   keep-alive connection loop the server and the router both run on;
//! * [`metrics`] — lock-free request/error counters, per-route latency
//!   histograms (p50/p95/p99) and engine cache stats for
//!   `GET /metrics`;
//! * [`admission`] — per-engine QoS: token-bucket rate caps, bounded
//!   in-flight/queue gates and typed `429` load shedding, so one hot
//!   engine never starves the pool;
//! * [`server`] — the route table and its handlers, graceful
//!   shutdown and the `/admin/engines/{name}` hot lifecycle
//!   (load/swap/unload of `.lewis` packs with a monotonic engine
//!   generation);
//! * [`client`] — the minimal blocking client the router forwards and
//!   probes with, and the tests drive the server with;
//! * [`router`] — a std-only fleet front: round-robin over N replica
//!   processes through [`Client`], with health-check eviction, writes
//!   sent once, and per-replica forward counters.
//!
//! Three binaries ship with the crate: `lewis-serve` (the server),
//! `lewis-router` (the replica front) and `lewis-pack` (the `.lewis`
//! pack compiler). The repository's service benchmark is `lewisbench`,
//! which drives these same binaries' code paths over real sockets.
//!
//! ## The wire codec in one example
//!
//! ```
//! use lewis_serve::wire::{self, Json};
//! use lewis_core::ExplainRequest;
//! use tabular::{AttrId, Context};
//!
//! // a contextual query: how does attribute #3 behave for sex = 1?
//! let request = ExplainRequest::Contextual {
//!     attr: AttrId(3),
//!     k: Context::of([(AttrId(1), 1)]),
//! };
//! let body = wire::request_to_json(&request).to_json();
//! assert_eq!(body, r#"{"kind":"contextual","attr":3,"context":[[1,1]]}"#);
//!
//! // and back — the decoded request is the one we started with
//! let decoded = wire::request_from_json(&Json::parse(&body).unwrap()).unwrap();
//! assert_eq!(format!("{decoded:?}"), format!("{request:?}"));
//! ```

pub mod admission;
pub mod client;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod router;
pub mod server;
pub mod warm;
pub mod wire;

pub use admission::{Admission, AdmissionConfig, AdmissionStats, ShedReason};
pub use client::Client;
pub use metrics::{Metrics, Route};
pub use registry::{EngineEntry, EngineRegistry, GraphSpec, BUILTINS};
pub use router::{route_serve, Router, RouterConfig};
pub use server::{serve, Server, ServerConfig};
pub use wire::Json;

/// Errors raised while configuring or running the service.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid configuration (bad engine name, unknown dataset, …).
    Config(String),
    /// A lifecycle operation named an engine that is not registered
    /// (served as a `404`).
    UnknownEngine(String),
    /// A hot swap offered a pack whose schema differs from the engine
    /// it would replace (served as a `409`; the old engine keeps
    /// serving).
    SchemaMismatch(String),
    /// An explanation-engine error during setup.
    Lewis(lewis_core::LewisError),
    /// A data-layer error (CSV loading, schema lookups).
    Tabular(tabular::TabularError),
    /// A `.lewis` pack error (corrupt file, mismatched snapshot).
    Store(lewis_store::StoreError),
    /// A socket-level error.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "configuration error: {msg}"),
            ServeError::UnknownEngine(name) => write!(f, "no engine named {name:?}"),
            ServeError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            ServeError::Lewis(e) => write!(f, "engine error: {e}"),
            ServeError::Tabular(e) => write!(f, "data error: {e}"),
            ServeError::Store(e) => write!(f, "pack error: {e}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<lewis_core::LewisError> for ServeError {
    fn from(e: lewis_core::LewisError) -> Self {
        ServeError::Lewis(e)
    }
}

impl From<tabular::TabularError> for ServeError {
    fn from(e: tabular::TabularError) -> Self {
        ServeError::Tabular(e)
    }
}

impl From<lewis_store::StoreError> for ServeError {
    fn from(e: lewis_store::StoreError) -> Self {
        ServeError::Store(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
