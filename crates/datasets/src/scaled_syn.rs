//! A data-scale workload: German-syn at millions of rows.
//!
//! Serving is measured on tables far beyond the paper's 48k-row Adult
//! ceiling, and [`german_syn_scaled`] is the workload at that scale (the
//! 1M-row table behind the `cold_1m` benchmark). It generates the *same
//! distribution* as [`crate::GermanSynDataset`] (identical schema, SCM
//! and mechanisms) in fixed-size chunks written in place: the final
//! columns are allocated once, each chunk is a disjoint slice of every
//! column, and [`tabular::fanout::fan_out`] fills the chunks on every
//! core through [`causal::Scm::generate_into`], which fills each chunk
//! column by column. One [`Table::from_columns`] checks the finished
//! table. Nothing is copied, so the peak memory is about one copy of
//! the table (24 MB at 1M rows), and a seeded 1M-row table takes about
//! 20–30 ms on two threads of a 2-vCPU Intel Xeon, 50–60 ms on one.
//!
//! Determinism guarantees:
//!
//! * **seed-determined** — each chunk is generated from an RNG derived
//!   only from `(seed, chunk index)`, so the output is identical for
//!   any worker count;
//! * **prefix-stable** — `german_syn_scaled(n, seed)` is row-for-row
//!   the first `n` rows of `german_syn_scaled(m, seed)` for any
//!   `m ≥ n`, because rows are drawn chunk-locally in row order. A
//!   smoke test at 10k rows therefore sees a literal prefix of the
//!   1M-row benchmark table.

use crate::german_syn::GermanSynDataset;
use crate::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tabular::fanout::{available_workers, fan_out};
use tabular::{Table, Value};

/// Rows generated per chunk (one unit of parallel work).
const CHUNK_ROWS: usize = 65_536;

/// Mix a chunk index into the user seed (splitmix64 finalizer) so chunk
/// streams are decorrelated but fully determined by `(seed, chunk)`.
fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    let mut z = seed ^ chunk.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generate `rows` observations of the standard (monotone) German-syn
/// model, chunk-parallel and prefix-stable — see the module docs for
/// the exact guarantees. The returned [`Dataset`] carries the same
/// ground-truth SCM, outcome and actionable roles as
/// [`GermanSynDataset::generate`].
pub fn german_syn_scaled(rows: usize, seed: u64) -> Dataset {
    generate_on(rows, seed, available_workers())
}

/// [`german_syn_scaled`] on at most `workers` threads, the calling one
/// included. The table does not depend on `workers`.
fn generate_on(rows: usize, seed: u64, workers: usize) -> Dataset {
    let scm = GermanSynDataset::standard().scm();
    let schema = GermanSynDataset::schema();
    let mut columns: Vec<Vec<Value>> = (0..schema.len()).map(|_| vec![0; rows]).collect();
    // chunk i is the i-th CHUNK_ROWS slice of every column
    let mut chunks: Vec<(u64, Vec<&mut [Value]>)> = (0..rows.div_ceil(CHUNK_ROWS) as u64)
        .map(|i| (i, Vec::with_capacity(schema.len())))
        .collect();
    for column in &mut columns {
        for (chunk, slice) in chunks.iter_mut().zip(column.chunks_mut(CHUNK_ROWS)) {
            chunk.1.push(slice);
        }
    }
    fan_out(workers, rows, chunks, |(i, mut chunk)| {
        let mut rng = StdRng::seed_from_u64(chunk_seed(seed, i));
        scm.generate_into(&mut chunk, &mut rng)
            .expect("every chunk holds one equal-length slice per node");
    });
    let table = Table::from_columns(schema, columns).expect("SCM rows lie in the schema");
    Dataset {
        name: "german_syn_scaled",
        table,
        scm,
        outcome: GermanSynDataset::SCORE,
        features: GermanSynDataset::schema()
            .attr_ids()
            .filter(|&a| a != GermanSynDataset::SCORE)
            .collect(),
        actionable: vec![
            GermanSynDataset::STATUS,
            GermanSynDataset::SAVING,
            GermanSynDataset::HOUSING,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Context;

    /// The table as it was built before chunks were written in place:
    /// each chunk a table of its own from [`causal::Scm::generate`],
    /// the columns concatenated in chunk order.
    fn concatenated_chunks(rows: usize, seed: u64) -> Table {
        let scm = GermanSynDataset::standard().scm();
        let mut columns: Vec<Vec<Value>> = vec![Vec::new(); scm.schema().len()];
        for (i, start) in (0..rows).step_by(CHUNK_ROWS).enumerate() {
            let mut rng = StdRng::seed_from_u64(chunk_seed(seed, i as u64));
            let chunk = scm.generate(CHUNK_ROWS.min(rows - start), &mut rng);
            for (dst, src) in columns.iter_mut().zip(chunk.columns()) {
                dst.extend_from_slice(src);
            }
        }
        Table::from_columns(GermanSynDataset::schema(), columns).unwrap()
    }

    #[test]
    fn in_place_chunks_equal_concatenated_chunk_tables_on_any_worker_count() {
        let sizes = [
            0,
            1,
            CHUNK_ROWS - 1,
            CHUNK_ROWS,
            CHUNK_ROWS + 1,
            CHUNK_ROWS * 5 / 2,
        ];
        for rows in sizes {
            let reference = concatenated_chunks(rows, 11);
            assert_eq!(reference.n_rows(), rows);
            for workers in 1..=3 {
                assert!(
                    generate_on(rows, 11, workers).table == reference,
                    "{rows} rows on {workers} workers differ from the chunk tables"
                );
            }
        }
    }

    #[test]
    fn is_deterministic_and_seed_sensitive() {
        let a = german_syn_scaled(3000, 9);
        let b = german_syn_scaled(3000, 9);
        assert_eq!(a.table, b.table);
        let c = german_syn_scaled(3000, 10);
        assert_ne!(a.table, c.table);
    }

    #[test]
    fn is_prefix_stable_across_row_counts() {
        // crosses a chunk boundary on purpose
        let small = german_syn_scaled(CHUNK_ROWS + 100, 4);
        let large = german_syn_scaled(CHUNK_ROWS + 5000, 4);
        for attr in small.table.schema().attr_ids() {
            let s = small.table.column(attr).unwrap();
            let l = large.table.column(attr).unwrap();
            assert_eq!(s, &l[..s.len()], "column {attr} is not a prefix");
        }
    }

    #[test]
    fn distribution_matches_german_syn_roles() {
        let d = german_syn_scaled(20_000, 3);
        assert_eq!(d.table.n_rows(), 20_000);
        assert_eq!(d.table.schema().len(), 6);
        assert_eq!(d.outcome, GermanSynDataset::SCORE);
        assert_eq!(d.scm.graph().n_nodes(), 6);
        // outcome balance at the serving pivot (score bin >= 5)
        let mut high = 0usize;
        for &v in d.table.column(GermanSynDataset::SCORE).unwrap() {
            if v >= 5 {
                high += 1;
            }
        }
        let rate = high as f64 / d.table.n_rows() as f64;
        assert!((0.1..0.9).contains(&rate), "high-score rate {rate}");
        // positivity in the strata the estimators condition on
        for age in 0..3u32 {
            for sex in 0..2u32 {
                let ctx = Context::of([(GermanSynDataset::AGE, age), (GermanSynDataset::SEX, sex)]);
                assert!(d.table.count(&ctx) > 0, "empty stratum ({age}, {sex})");
            }
        }
    }

    #[test]
    fn zero_rows_is_a_valid_empty_workload() {
        let d = german_syn_scaled(0, 1);
        assert_eq!(d.table.n_rows(), 0);
        assert_eq!(d.table.schema().len(), 6);
    }
}
