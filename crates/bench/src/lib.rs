//! # bench — experiment harness for the LEWIS reproduction
//!
//! Every table and figure of the paper's evaluation (§5) is a module of
//! [`experiments`]; the `all_experiments` binary runs them, all or by
//! name. Shared setup (trained models, labelled datasets, printing) is
//! in this library.

pub mod experiments;
pub mod harness;

pub use harness::*;
