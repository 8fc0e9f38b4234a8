//! Column-major tables of dictionary codes.

use crate::context::Context;
use crate::domain::{AttrId, Domain, Value};
use crate::error::TabularError;
use crate::schema::Schema;
use crate::Result;

/// A column-major table whose cells are domain codes.
///
/// Columns are plain `Vec<Value>` so the counting engine can scan them
/// sequentially; the row count is identical across columns by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Vec<Value>>,
    n_rows: usize,
}

impl Table {
    /// An empty table over `schema`.
    pub fn new(schema: Schema) -> Self {
        let columns = vec![Vec::new(); schema.len()];
        Table {
            schema,
            columns,
            n_rows: 0,
        }
    }

    /// An empty table with `capacity` rows pre-reserved per column.
    pub fn with_capacity(schema: Schema, capacity: usize) -> Self {
        let columns = (0..schema.len())
            .map(|_| Vec::with_capacity(capacity))
            .collect();
        Table {
            schema,
            columns,
            n_rows: 0,
        }
    }

    /// Rebuild a table directly from full columns (one `Vec<Value>` per
    /// schema attribute, in schema order) — the bulk counterpart of
    /// [`Table::push_row`] used when deserializing columnar storage.
    /// Validates column count, equal lengths and every code against its
    /// domain, so a corrupt column set can never become a table.
    pub fn from_columns(schema: Schema, columns: Vec<Vec<Value>>) -> Result<Table> {
        if columns.len() != schema.len() {
            return Err(TabularError::ArityMismatch {
                expected: schema.len(),
                got: columns.len(),
            });
        }
        let n_rows = columns.first().map_or(0, Vec::len);
        for (i, col) in columns.iter().enumerate() {
            if col.len() != n_rows {
                return Err(TabularError::ArityMismatch {
                    expected: n_rows,
                    got: col.len(),
                });
            }
            check_codes(i as u32, schema.domain(AttrId(i as u32))?, col)?;
        }
        Ok(Table {
            schema,
            columns,
            n_rows,
        })
    }

    /// All columns in schema order (each one row-aligned with the rest) —
    /// the zero-copy accessor columnar serializers iterate.
    pub fn columns(&self) -> &[Vec<Value>] {
        &self.columns
    }

    /// Move the table into shared ownership for engines that serve
    /// concurrent readers (`Table` is `Send + Sync`; an `Arc<Table>` is
    /// the idiomatic handle for sharing it without copying columns).
    pub fn into_shared(self) -> std::sync::Arc<Table> {
        std::sync::Arc::new(self)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes (columns).
    pub fn n_attrs(&self) -> usize {
        self.schema.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Append a full row of codes (one per attribute, in schema order).
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(TabularError::ArityMismatch {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        for (i, (&v, col)) in row.iter().zip(&self.columns).enumerate() {
            debug_assert_eq!(col.len(), self.n_rows);
            self.schema.check_value(AttrId(i as u32), v)?;
        }
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// The cell at `(row, attr)`.
    pub fn get(&self, row: usize, attr: AttrId) -> Result<Value> {
        let col = self
            .columns
            .get(attr.index())
            .ok_or(TabularError::UnknownAttribute {
                attr: attr.0,
                n_attrs: self.schema.len(),
            })?;
        col.get(row).copied().ok_or_else(|| {
            TabularError::EmptySelection(format!("row {row} out of {}", self.n_rows))
        })
    }

    /// Borrow the full column of attribute `attr`.
    pub fn column(&self, attr: AttrId) -> Result<&[Value]> {
        self.columns
            .get(attr.index())
            .map(Vec::as_slice)
            .ok_or(TabularError::UnknownAttribute {
                attr: attr.0,
                n_attrs: self.schema.len(),
            })
    }

    /// Materialize row `row` as a `Vec` of codes in schema order.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.n_rows {
            return Err(TabularError::EmptySelection(format!(
                "row {row} out of {}",
                self.n_rows
            )));
        }
        Ok(self.columns.iter().map(|c| c[row]).collect())
    }

    /// The row as a [`Context`] constraining every attribute (the paper's
    /// `K = V` individual-level context).
    pub fn row_context(&self, row: usize) -> Result<Context> {
        let r = self.row(row)?;
        Ok(Context::of(
            r.iter().enumerate().map(|(i, &v)| (AttrId(i as u32), v)),
        ))
    }

    /// Indices of all rows satisfying `ctx`.
    pub fn filter(&self, ctx: &Context) -> Vec<usize> {
        self.filter_within(ctx, None)
    }

    /// Indices of rows satisfying `ctx`, restricted to `subset` when given.
    pub fn filter_within(&self, ctx: &Context, subset: Option<&[usize]>) -> Vec<usize> {
        let pred = |row: usize| ctx.iter().all(|(a, v)| self.columns[a.index()][row] == v);
        match subset {
            Some(idx) => idx.iter().copied().filter(|&r| pred(r)).collect(),
            None => (0..self.n_rows).filter(|&r| pred(r)).collect(),
        }
    }

    /// Count rows satisfying `ctx`.
    pub fn count(&self, ctx: &Context) -> usize {
        if ctx.is_empty() {
            return self.n_rows;
        }
        (0..self.n_rows)
            .filter(|&r| ctx.iter().all(|(a, v)| self.columns[a.index()][r] == v))
            .count()
    }

    /// Smoothed conditional probability `Pr(attr = value | ctx)`.
    ///
    /// With Laplace smoothing `α ≥ 0`: `(n(value ∧ ctx) + α) / (n(ctx) +
    /// α·|Dom(attr)|)`. With `α = 0` and an empty condition the result is
    /// an error (division by zero is a modelling problem worth surfacing).
    pub fn conditional_probability(
        &self,
        attr: AttrId,
        value: Value,
        ctx: &Context,
        alpha: f64,
    ) -> Result<f64> {
        if alpha < 0.0 {
            return Err(TabularError::InvalidArgument("negative smoothing".into()));
        }
        self.schema.check_value(attr, value)?;
        let card = self.schema.cardinality(attr)? as f64;
        let denom_n = self.count(ctx) as f64;
        let denom = denom_n + alpha * card;
        if denom == 0.0 {
            return Err(TabularError::EmptySelection(format!(
                "no rows match context while estimating Pr({} = {value} | ctx)",
                self.schema.name(attr)
            )));
        }
        let num = self.count(&ctx.with(attr, value)) as f64 + alpha;
        Ok(num / denom)
    }

    /// `Pr(ctx)` relative to the whole table (unsmoothed).
    pub fn probability(&self, ctx: &Context) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        self.count(ctx) as f64 / self.n_rows as f64
    }

    /// Empirical distribution of `attr` conditioned on `ctx` (smoothed).
    pub fn distribution(&self, attr: AttrId, ctx: &Context, alpha: f64) -> Result<Vec<f64>> {
        let card = self.schema.cardinality(attr)?;
        let mut out = Vec::with_capacity(card);
        for v in 0..card as Value {
            out.push(self.conditional_probability(attr, v, ctx, alpha)?);
        }
        Ok(out)
    }

    /// A new table containing the given rows (in the given order).
    pub fn select(&self, rows: &[usize]) -> Result<Table> {
        let mut t = Table::with_capacity(self.schema.clone(), rows.len());
        for &r in rows {
            if r >= self.n_rows {
                return Err(TabularError::EmptySelection(format!(
                    "row {r} out of {}",
                    self.n_rows
                )));
            }
        }
        for (ci, col) in self.columns.iter().enumerate() {
            t.columns[ci].extend(rows.iter().map(|&r| col[r]));
        }
        t.n_rows = rows.len();
        Ok(t)
    }

    /// Append a freshly computed column (e.g. model predictions), extending
    /// the schema. Returns the new attribute's id.
    pub fn add_column(
        &mut self,
        name: impl Into<String>,
        domain: Domain,
        values: Vec<Value>,
    ) -> Result<AttrId> {
        if values.len() != self.n_rows {
            return Err(TabularError::ArityMismatch {
                expected: self.n_rows,
                got: values.len(),
            });
        }
        check_codes(self.schema.len() as u32, &domain, &values)?;
        let id = self.schema.push(name, domain);
        self.columns.push(values);
        Ok(id)
    }

    /// Overwrite one column in place (domain must be unchanged).
    pub fn replace_column(&mut self, attr: AttrId, values: Vec<Value>) -> Result<()> {
        if values.len() != self.n_rows {
            return Err(TabularError::ArityMismatch {
                expected: self.n_rows,
                got: values.len(),
            });
        }
        check_codes(attr.0, self.schema.domain(attr)?, &values)?;
        self.columns[attr.index()] = values;
        Ok(())
    }

    /// Per-value counts of a column (a histogram of codes).
    pub fn value_counts(&self, attr: AttrId) -> Result<Vec<usize>> {
        let card = self.schema.cardinality(attr)?;
        let mut counts = vec![0usize; card];
        for &v in self.column(attr)? {
            counts[v as usize] += 1;
        }
        Ok(counts)
    }

    /// Iterate all rows as code vectors. Materializes one `Vec` per row;
    /// prefer column access in hot paths.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.n_rows).map(move |r| self.columns.iter().map(|c| c[r]).collect())
    }
}

/// Check every code of column `attr` against its domain in one pass
/// that compiles to vector max instructions: the column's maximum
/// against the cardinality. Only a column that fails is searched again,
/// for its first out-of-domain code, which is the error.
fn check_codes(attr: u32, domain: &Domain, col: &[Value]) -> Result<()> {
    let max = col.iter().fold(0, |max: Value, &v| max.max(v));
    if domain.contains(max) {
        return Ok(());
    }
    match col.iter().find(|&&v| !domain.contains(v)) {
        Some(&value) => Err(TabularError::ValueOutOfDomain {
            attr,
            value,
            cardinality: domain.cardinality(),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.push("x", Domain::categorical(["a", "b", "c"]));
        s.push("y", Domain::boolean());
        s
    }

    fn table() -> Table {
        let mut t = Table::new(schema());
        for row in [[0, 0], [0, 1], [1, 1], [2, 1], [2, 0], [2, 1]] {
            t.push_row(&row).unwrap();
        }
        t
    }

    #[test]
    fn push_and_access() {
        let t = table();
        assert_eq!(t.n_rows(), 6);
        assert_eq!(t.get(2, AttrId(0)).unwrap(), 1);
        assert_eq!(t.row(4).unwrap(), vec![2, 0]);
        assert_eq!(t.column(AttrId(1)).unwrap(), &[0, 1, 1, 1, 0, 1]);
    }

    #[test]
    fn push_validates() {
        let mut t = table();
        assert!(matches!(
            t.push_row(&[0]),
            Err(TabularError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.push_row(&[3, 0]),
            Err(TabularError::ValueOutOfDomain { .. })
        ));
        assert_eq!(t.n_rows(), 6, "failed pushes must not grow the table");
    }

    #[test]
    fn filter_and_count() {
        let t = table();
        let x = AttrId(0);
        let y = AttrId(1);
        let ctx = Context::of([(x, 2)]);
        assert_eq!(t.filter(&ctx), vec![3, 4, 5]);
        assert_eq!(t.count(&ctx), 3);
        assert_eq!(t.count(&ctx.with(y, 1)), 2);
        assert_eq!(t.count(&Context::empty()), 6);
        let sub = [0usize, 3, 4];
        assert_eq!(t.filter_within(&ctx, Some(&sub)), vec![3, 4]);
    }

    #[test]
    fn conditional_probabilities() {
        let t = table();
        let x = AttrId(0);
        let y = AttrId(1);
        // Pr(y=1 | x=2) = 2/3
        let p = t
            .conditional_probability(y, 1, &Context::of([(x, 2)]), 0.0)
            .unwrap();
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
        // Laplace smoothing pulls toward uniform
        let p_s = t
            .conditional_probability(y, 1, &Context::of([(x, 2)]), 1.0)
            .unwrap();
        assert!((p_s - 3.0 / 5.0).abs() < 1e-12);
        // an impossible condition without smoothing errors out; with
        // smoothing it falls back to the uniform distribution
        let mut sparse = Table::new(schema());
        sparse.push_row(&[0, 0]).unwrap();
        sparse.push_row(&[2, 1]).unwrap();
        let never = Context::of([(x, 1)]);
        assert!(sparse.conditional_probability(y, 1, &never, 0.0).is_err());
        let p_u = sparse.conditional_probability(y, 1, &never, 1.0).unwrap();
        assert!((p_u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distribution_sums_to_one() {
        let t = table();
        for alpha in [0.0, 0.5, 2.0] {
            let d = t.distribution(AttrId(0), &Context::empty(), alpha).unwrap();
            let sum: f64 = d.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "alpha={alpha} sum={sum}");
        }
    }

    #[test]
    fn select_preserves_order() {
        let t = table();
        let s = t.select(&[5, 0]).unwrap();
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row(0).unwrap(), vec![2, 1]);
        assert_eq!(s.row(1).unwrap(), vec![0, 0]);
        assert!(t.select(&[6]).is_err());
    }

    #[test]
    fn add_and_replace_column() {
        let mut t = table();
        let pred = t
            .add_column("pred", Domain::boolean(), vec![1, 1, 0, 0, 1, 1])
            .unwrap();
        assert_eq!(t.n_attrs(), 3);
        assert_eq!(t.column(pred).unwrap(), &[1, 1, 0, 0, 1, 1]);
        assert!(t
            .add_column("bad", Domain::boolean(), vec![2, 0, 0, 0, 0, 0])
            .is_err());
        t.replace_column(pred, vec![0, 0, 0, 0, 0, 0]).unwrap();
        assert_eq!(t.value_counts(pred).unwrap(), vec![6, 0]);
        assert!(t.replace_column(pred, vec![1]).is_err());
    }

    #[test]
    fn row_context_matches_own_row() {
        let t = table();
        let ctx = t.row_context(3).unwrap();
        assert!(ctx.matches_row(&t.row(3).unwrap()));
        assert_eq!(t.filter(&ctx), vec![3, 5]); // rows 3 and 5 are identical
    }

    #[test]
    fn from_columns_round_trips_and_validates() {
        let t = table();
        let rebuilt = Table::from_columns(t.schema().clone(), t.columns().to_vec()).unwrap();
        assert_eq!(rebuilt, t);
        // wrong column count
        assert!(matches!(
            Table::from_columns(t.schema().clone(), vec![vec![0, 1]]),
            Err(TabularError::ArityMismatch { .. })
        ));
        // ragged columns
        assert!(matches!(
            Table::from_columns(t.schema().clone(), vec![vec![0, 1], vec![0]]),
            Err(TabularError::ArityMismatch { .. })
        ));
        // out-of-domain code
        assert!(matches!(
            Table::from_columns(t.schema().clone(), vec![vec![7], vec![0]]),
            Err(TabularError::ValueOutOfDomain { .. })
        ));
        // the first out-of-domain code is the error, not the largest
        assert_eq!(
            Table::from_columns(t.schema().clone(), vec![vec![0, 2, 1], vec![1, 5, 7]]),
            Err(TabularError::ValueOutOfDomain {
                attr: 1,
                value: 5,
                cardinality: 2
            })
        );
        // zero-row tables are fine
        let empty = Table::from_columns(t.schema().clone(), vec![Vec::new(), Vec::new()]).unwrap();
        assert_eq!(empty.n_rows(), 0);
    }

    #[test]
    fn probability_of_empty_table() {
        let t = Table::new(schema());
        assert_eq!(t.probability(&Context::empty()), 0.0);
    }
}
