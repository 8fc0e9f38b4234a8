//! # lewis — facade crate for the LEWIS reproduction
//!
//! Re-exports the workspace crates under one roof so examples and
//! downstream users can depend on a single crate:
//!
//! * [`core`] — explanation scores, the [`core::Engine`] query layer,
//!   counterfactual recourse (the paper's contribution);
//! * [`causal`] — causal diagrams, d-separation, SCMs, counterfactuals;
//! * [`tabular`] — the columnar data engine;
//! * [`ml`] — black-box model families (forests, GBDT, neural nets);
//! * [`xai`] — baselines (LIME, SHAP, permutation importance, LinearIP);
//! * [`datasets`] — SCM-based synthetic benchmark datasets;
//! * [`optim`] — the branch-and-bound integer-program solver.
//!
//! Most programs only need the [`prelude`]:
//!
//! ```no_run
//! use lewis::prelude::*;
//! # let table: Table = Table::new(Schema::new());
//! # let pred = AttrId(0);
//! # let features = vec![AttrId(1)];
//! let engine = Engine::builder(table)
//!     .prediction(pred, 1)
//!     .features(&features)
//!     .build()?;
//! let ranking = engine.run(&ExplainRequest::Global)?;
//! # Ok::<(), lewis::core::LewisError>(())
//! ```

pub use causal;
pub use datasets;
pub use lewis_core as core;
pub use ml;
pub use optim;
pub use tabular;
pub use xai;

/// One-stop imports for the common explanation workflow: build a
/// [`core::Engine`] over a labelled [`tabular::Table`], then answer
/// [`core::ExplainRequest`]s — plus the data/causal vocabulary those
/// calls need.
pub mod prelude {
    pub use crate::causal::Dag;
    pub use crate::core::blackbox::label_table;
    pub use crate::core::{
        BlackBox, CacheStats, ClassifierBox, Contrast, CostModel, Engine, EngineBuilder,
        ExplainRequest, ExplainResponse, LewisError, Recourse, RecourseOptions, ScoreKind, Scores,
    };
    pub use crate::tabular::{AttrId, Context, Domain, Schema, Table, Value};
}
