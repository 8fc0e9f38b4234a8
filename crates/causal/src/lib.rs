//! # causal — probabilistic causal models and counterfactual inference
//!
//! This crate implements the causal machinery the paper's framework rests
//! on (§2):
//!
//! * [`graph`] — causal diagrams as DAGs whose nodes are the attribute ids
//!   of a [`tabular::Schema`], with topological utilities;
//! * [`dsep`] — d-separation (the reachability algorithm) and the
//!   **backdoor criterion**;
//! * [`adjustment`] — estimation of interventional queries
//!   `Pr(y | do(x), k)` from observational data via the backdoor formula
//!   (paper eq. 4);
//! * [`scm`] — structural causal models with *finite discrete exogenous
//!   noise*, supporting ancestral sampling and deterministic world
//!   reconstruction from a noise assignment;
//! * [`counterfactual`] — Pearl's three-step abduction–action–prediction
//!   procedure (paper eq. 3), both exact (noise-space enumeration) and
//!   Monte-Carlo, used to compute ground-truth explanation scores.
//!
//! ```
//! use causal::graph::Dag;
//!
//! // G -> R -> O,  A -> R,  A -> O   (Figure 2 of the paper, simplified)
//! let mut g = Dag::new(4);
//! g.add_edge(0, 2).unwrap(); // G -> R
//! g.add_edge(1, 2).unwrap(); // A -> R
//! g.add_edge(2, 3).unwrap(); // R -> O
//! g.add_edge(1, 3).unwrap(); // A -> O
//! assert!(g.is_ancestor(0, 3));
//! assert_eq!(g.topological_order().len(), 4);
//! ```

pub mod adjustment;
pub mod counterfactual;
pub mod discovery;
pub mod dsep;
pub mod graph;
pub mod scm;
pub mod validate;

pub use adjustment::interventional_probability;
pub use counterfactual::CounterfactualEngine;
pub use discovery::{pc_algorithm, Cpdag, PcOptions};
pub use dsep::{is_d_separated, satisfies_backdoor};
pub use graph::{Dag, NodeId};
pub use scm::{Mechanism, Scm, ScmBuilder};
pub use validate::{validate_graph, ValidationReport};

/// Errors produced by causal-graph and SCM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalError {
    /// Node index out of range for the graph.
    UnknownNode { node: usize, n_nodes: usize },
    /// Adding the edge would create a directed cycle.
    CycleDetected { from: usize, to: usize },
    /// The requested set does not satisfy the backdoor criterion.
    NotABackdoorSet(String),
    /// SCM construction/validation failure.
    InvalidScm(String),
    /// Exact counterfactual inference would enumerate too many noise
    /// assignments; use Monte-Carlo instead.
    NoiseSpaceTooLarge { size: u128, limit: u128 },
    /// No world is consistent with the conditioning evidence.
    ZeroProbabilityEvidence,
    /// A joint noise assignment has the wrong number of entries.
    NoiseArity { expected: usize, got: usize },
    /// A noise level is outside its node's noise domain.
    NoiseOutOfRange {
        node: usize,
        level: usize,
        levels: usize,
    },
    /// [`Scm::generate_into`] got a column count other than the
    /// model's node count.
    ColumnArity { expected: usize, got: usize },
    /// [`Scm::generate_into`] got a column whose length differs from
    /// the first column's.
    RaggedColumns {
        column: usize,
        len: usize,
        expected: usize,
    },
    /// Underlying tabular error.
    Tabular(tabular::TabularError),
}

impl std::fmt::Display for CausalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CausalError::UnknownNode { node, n_nodes } => {
                write!(f, "node {node} out of range (graph has {n_nodes} nodes)")
            }
            CausalError::CycleDetected { from, to } => {
                write!(f, "edge {from} -> {to} would create a cycle")
            }
            CausalError::NotABackdoorSet(msg) => write!(f, "not a backdoor set: {msg}"),
            CausalError::InvalidScm(msg) => write!(f, "invalid SCM: {msg}"),
            CausalError::NoiseSpaceTooLarge { size, limit } => {
                write!(
                    f,
                    "noise space of {size} assignments exceeds exact-inference limit {limit}"
                )
            }
            CausalError::ZeroProbabilityEvidence => {
                write!(f, "conditioning evidence has zero probability")
            }
            CausalError::NoiseArity { expected, got } => {
                write!(
                    f,
                    "noise assignment has {got} levels, the model has {expected} nodes"
                )
            }
            CausalError::NoiseOutOfRange {
                node,
                level,
                levels,
            } => write!(
                f,
                "noise level {level} of node {node} out of range ({levels} levels)"
            ),
            CausalError::ColumnArity { expected, got } => {
                write!(f, "got {got} columns, the model has {expected} nodes")
            }
            CausalError::RaggedColumns {
                column,
                len,
                expected,
            } => write!(
                f,
                "column {column} holds {len} rows, column 0 holds {expected}"
            ),
            CausalError::Tabular(e) => write!(f, "tabular error: {e}"),
        }
    }
}

impl std::error::Error for CausalError {}

impl From<tabular::TabularError> for CausalError {
    fn from(e: tabular::TabularError) -> Self {
        CausalError::Tabular(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CausalError>;
