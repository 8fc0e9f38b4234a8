//! # lewis-core — probabilistic contrastive counterfactual explanations
//!
//! The paper's primary contribution (Galhotra, Pradhan, Salimi, SIGMOD
//! 2021): explaining any black-box decision algorithm with three
//! counterfactual scores and generating provably minimal actionable
//! recourse.
//!
//! * [`blackbox`] — the model-agnostic [`BlackBox`] surface LEWIS audits
//!   (predict-only over dictionary-coded rows) and adapters for the `ml`
//!   crate's classifiers/regressors;
//! * [`scores`] — the necessity / sufficiency / necessity-and-sufficiency
//!   estimators of Definition 3.1, identified via Proposition 4.2
//!   (eqs. 19–21), with the Fréchet bounds of Proposition 4.1
//!   (eqs. 9–11) and the no-graph fallback of §6 — built by an
//!   [`Engine`], and read through [`Engine::estimator`];
//! * [`ordering`] — inference of value orderings from the black box when
//!   domains carry no natural order (§4.1);
//! * [`engine`] — the owned, `Send + Sync` [`Engine`]: the only way in
//!   for global / contextual / local / recourse queries
//!   ([`ExplainRequest`] → [`ExplainResponse`]), built with
//!   [`Engine::builder`], sharing counting passes and recourse
//!   surrogates across queries through bounded in-engine caches;
//! * [`explain`] — global, contextual and local explanation result
//!   types (§3.2);
//! * [`recourse`] — minimal-cost actionable recourse via the integer
//!   program of §4.2 with lazy sufficiency verification, served by
//!   [`Engine::recourse`];
//! * [`monotonicity`] — the Λ_viol diagnostic of §5.5;
//! * [`groundtruth`] — exact scores from a known SCM (Pearl's three-step
//!   procedure) for correctness evaluation (§5.5, Fig. 11);
//! * [`multiclass`] — the ordinal multi-class / regression outcome
//!   extension (§4.1, "Extensions");
//! * [`report`] — ranking, rank-comparison and pretty-printing helpers
//!   shared by the experiment harness.

pub mod blackbox;
pub(crate) mod cache;
pub mod engine;
pub mod explain;
pub mod fairness;
pub mod groundtruth;
pub mod monotonicity;
pub mod multiclass;
pub mod ordering;
pub mod recourse;
pub mod report;
pub mod scores;
pub mod snapshot;
pub mod statements;
pub(crate) mod surrogates;

pub use blackbox::{BlackBox, ClassifierBox, RegressorThresholdBox};
pub use engine::{CacheStats, Engine, EngineBuilder, ExplainRequest, ExplainResponse};
pub use explain::{ContextualExplanation, GlobalExplanation, LocalExplanation};
pub use ordering::infer_value_order;
pub use recourse::{surrogate_width, Action, CostModel, Recourse, RecourseOptions, SurrogateFit};
pub use scores::{Contrast, ScoreKind, Scores};
pub use snapshot::EngineSnapshot;
pub use statements::{OutcomeWords, Statement};

/// Errors surfaced by LEWIS computations.
#[derive(Debug, Clone)]
pub enum LewisError {
    /// Underlying data-engine error.
    Tabular(tabular::TabularError),
    /// Underlying causal-inference error.
    Causal(causal::CausalError),
    /// Underlying model error.
    Ml(ml::MlError),
    /// Recourse optimization failed.
    Optim(optim::IpError),
    /// The request was inconsistent (bad attribute roles, etc.).
    Invalid(String),
    /// The request was well-formed but the data cannot answer it: the
    /// contrast arms or the context have no matching rows. This is an
    /// *expected* outcome when sweeping value pairs or narrow contexts,
    /// not a caller bug — filter it with [`LewisError::is_unsupported`].
    Unsupported(String),
    /// No recourse exists within the given actionable set / threshold.
    NoRecourse(String),
}

impl LewisError {
    /// Whether this is the expected "no data support" outcome (as
    /// opposed to a malformed request or an infrastructure failure).
    pub fn is_unsupported(&self) -> bool {
        matches!(self, LewisError::Unsupported(_))
    }
}

impl std::fmt::Display for LewisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LewisError::Tabular(e) => write!(f, "tabular: {e}"),
            LewisError::Causal(e) => write!(f, "causal: {e}"),
            LewisError::Ml(e) => write!(f, "ml: {e}"),
            LewisError::Optim(e) => write!(f, "optim: {e}"),
            LewisError::Invalid(m) => write!(f, "invalid request: {m}"),
            LewisError::Unsupported(m) => write!(f, "unsupported by the data: {m}"),
            LewisError::NoRecourse(m) => write!(f, "no recourse: {m}"),
        }
    }
}

impl std::error::Error for LewisError {}

impl From<tabular::TabularError> for LewisError {
    fn from(e: tabular::TabularError) -> Self {
        LewisError::Tabular(e)
    }
}

impl From<causal::CausalError> for LewisError {
    fn from(e: causal::CausalError) -> Self {
        LewisError::Causal(e)
    }
}

impl From<ml::MlError> for LewisError {
    fn from(e: ml::MlError) -> Self {
        LewisError::Ml(e)
    }
}

impl From<optim::IpError> for LewisError {
    fn from(e: optim::IpError) -> Self {
        LewisError::Optim(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, LewisError>;
