//! Answer parity: served answers must be byte-identical to what a cold
//! reference engine, built in-process with explicit `shards(1)` and
//! `index(false)`, answers for the same request.

use crate::client::Reply;
use crate::gen::Query;
use lewis_core::blackbox::label_table;
use lewis_core::Engine;
use lewis_serve::wire;
use tabular::Value;

/// The outcome bin at and above which a german_syn applicant is
/// labelled favourable — the serving registry's oracle for both
/// german_syn builtins.
const PIVOT: Value = 5;

/// Which german_syn generator a workload's table comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// `datasets::GermanSynDataset::standard()` (builtin `german_syn`).
    GermanSyn,
    /// `datasets::german_syn_scaled` (builtin `german_syn_scaled`).
    Scaled,
}

impl Source {
    /// The serving registry's builtin name.
    pub fn builtin(self) -> &'static str {
        match self {
            Source::GermanSyn => "german_syn",
            Source::Scaled => "german_syn_scaled",
        }
    }
}

/// A cold engine over the builtin table of `rows` rows from `seed`,
/// labelled with the serving oracle, plus `appended` rows (full schema
/// rows, prediction cell included).
pub fn reference_engine(
    source: Source,
    rows: usize,
    seed: u64,
    appended: &[Vec<Value>],
) -> Result<Engine, String> {
    let dataset = match source {
        Source::GermanSyn => datasets::GermanSynDataset::standard().generate(rows, seed),
        Source::Scaled => datasets::german_syn_scaled(rows, seed),
    };
    let datasets::Dataset {
        mut table,
        scm,
        outcome,
        features,
        ..
    } = dataset;
    let oracle = move |row: &[Value]| u32::from(row[outcome.index()] >= PIVOT);
    let pred = label_table(&mut table, &oracle, "pred").map_err(|e| e.to_string())?;
    for row in appended {
        table.push_row(row).map_err(|e| e.to_string())?;
    }
    Engine::builder(table)
        .graph(scm.graph())
        .prediction(pred, 1)
        .features(&features)
        .shards(1)
        .index(false)
        .build()
        .map_err(|e| e.to_string())
}

/// The exact status and body the service must answer `query` with.
pub fn expected(reference: &Engine, query: &Query) -> (u16, String) {
    match reference.run(&query.request) {
        Ok(response) => (200, wire::response_to_json(&response).to_json()),
        Err(e) => (wire::error_status(&e), wire::error_to_json(&e).to_json()),
    }
}

/// Compare each served answer with the reference. `fetch` answers one
/// query over the wire; every mismatch is described in the error.
pub fn check<'a>(
    what: &str,
    expected: &[(u16, String)],
    queries: impl IntoIterator<Item = &'a Query>,
    mut fetch: impl FnMut(&Query) -> Result<Reply, String>,
) -> Result<usize, String> {
    let mut checked = 0;
    for (query, (status, body)) in queries.into_iter().zip(expected) {
        let reply = fetch(query).map_err(|e| format!("{what}: {e}"))?;
        if reply.status != *status || reply.body != body.as_bytes() {
            return Err(format!(
                "{what}: answer to {} differs from the reference: got {} {:?}, expected {} {:?}",
                query.body,
                reply.status,
                String::from_utf8_lossy(&reply.body),
                status,
                body
            ));
        }
        checked += 1;
    }
    Ok(checked)
}
