//! Grouped counting: the workhorse behind every probability estimate.
//!
//! LEWIS's identification formulas (paper eqs. 19–21) are sums of the form
//! `Σ_c Pr(o | c, x, k) Pr(c | x, k)`, which reduce to contingency counts
//! `n(c, x, o, k)` over the model-labelled dataset. A [`Counter`] builds
//! those counts in one table scan and answers marginal queries by summing
//! over unspecified attributes.
//!
//! Storage is adaptive: when the joint grid `∏ |Dom(Xᵢ)|` has at most
//! [`MAX_DENSE_GRID`] cells the counts live in a dense vector (fast,
//! enumerable); otherwise they fall back to a hash map keyed by
//! mixed-radix packed codes.

use crate::context::Context;
use crate::domain::{AttrId, Value};
use crate::error::TabularError;
use crate::hash::FxHashMap;
use crate::shard::ShardedTable;
use crate::table::Table;
use crate::Result;
use std::ops::Range;

/// Mixed-radix packed group key.
pub type GroupKey = u64;

/// The largest grid kept as one dense `u64` per cell (512 KiB): a
/// [`Counter`] past it stores its counts sparse, and a bitmap index
/// neither groups nor keeps a joint-count cube past it. Visiting every
/// cell of a denser grid would cost more than the rows of most tables.
pub const MAX_DENSE_GRID: u64 = 1 << 16;

#[derive(Debug, Clone)]
enum Storage {
    Dense(Vec<u64>),
    Sparse(FxHashMap<GroupKey, u64>),
}

/// Counts of value combinations over a fixed attribute tuple.
#[derive(Debug, Clone)]
pub struct Counter {
    attrs: Vec<AttrId>,
    radices: Vec<u64>,
    strides: Vec<u64>,
    grid: u64,
    total: u64,
    storage: Storage,
}

impl Counter {
    /// Count all rows of `table` (optionally restricted to rows matching
    /// `ctx`) grouped by `attrs`.
    pub fn build(table: &Table, attrs: &[AttrId], ctx: &Context) -> Result<Self> {
        Self::build_range(table, attrs, ctx, 0..table.n_rows())
    }

    /// [`Counter::build`] restricted to the contiguous row range `rows`
    /// — the per-shard unit of a sharded counting pass.
    pub fn build_range(
        table: &Table,
        attrs: &[AttrId],
        ctx: &Context,
        rows: Range<usize>,
    ) -> Result<Self> {
        if rows.start > rows.end || rows.end > table.n_rows() {
            return Err(TabularError::InvalidArgument(format!(
                "row range {}..{} out of table of {} rows",
                rows.start,
                rows.end,
                table.n_rows()
            )));
        }
        let mut radices = Vec::with_capacity(attrs.len());
        for &a in attrs {
            radices.push(table.schema().cardinality(a)? as u64);
        }
        let mut strides = vec![1u64; attrs.len()];
        let mut grid: u64 = 1;
        // Row-major: last attribute varies fastest.
        for i in (0..attrs.len()).rev() {
            strides[i] = grid;
            grid = grid.checked_mul(radices[i]).ok_or_else(|| {
                TabularError::InvalidArgument("group-by grid overflows u64".into())
            })?;
        }
        let storage = if grid <= MAX_DENSE_GRID {
            Storage::Dense(vec![0u64; grid as usize])
        } else {
            Storage::Sparse(FxHashMap::default())
        };
        let mut counter = Counter {
            attrs: attrs.to_vec(),
            radices,
            strides,
            grid,
            total: 0,
            storage,
        };

        let cols: Vec<&[Value]> = counter
            .attrs
            .iter()
            .map(|&a| table.column(a))
            .collect::<Result<_>>()?;
        let ctx_cols: Vec<(&[Value], Value)> = ctx
            .iter()
            .map(|(a, v)| table.column(a).map(|c| (c, v)))
            .collect::<Result<_>>()?;

        'rows: for r in rows {
            for &(col, want) in &ctx_cols {
                if col[r] != want {
                    continue 'rows;
                }
            }
            let mut key: GroupKey = 0;
            for (col, stride) in cols.iter().zip(&counter.strides) {
                key += u64::from(col[r]) * stride;
            }
            counter.bump(key);
            counter.total += 1;
        }
        Ok(counter)
    }

    /// Assemble a counter directly from a dense per-cell count vector —
    /// the bitmap-index path's exit door back into the scan world.
    ///
    /// `counts` must be keyed exactly like [`Counter::build`] keys its
    /// dense storage: mixed-radix row-major over `attrs` (last attribute
    /// fastest), one `u64` per grid cell. Because the index produces the
    /// same unsigned integers a scan would and this constructor stores
    /// them in the same dense layout, a counter built here is
    /// indistinguishable from — not just equal to — its scanned twin.
    ///
    /// Only dense-range grids are accepted: past the dense cell limit a scan
    /// would have used sparse storage, so an index path producing a
    /// dense vector there would break the storage-kind invariant
    /// [`Counter::merge_from`] relies on.
    pub fn from_dense(table: &Table, attrs: &[AttrId], counts: Vec<u64>) -> Result<Self> {
        let mut radices = Vec::with_capacity(attrs.len());
        for &a in attrs {
            radices.push(table.schema().cardinality(a)? as u64);
        }
        let mut strides = vec![1u64; attrs.len()];
        let mut grid: u64 = 1;
        for i in (0..attrs.len()).rev() {
            strides[i] = grid;
            grid = grid.checked_mul(radices[i]).ok_or_else(|| {
                TabularError::InvalidArgument("group-by grid overflows u64".into())
            })?;
        }
        if grid > MAX_DENSE_GRID {
            return Err(TabularError::InvalidArgument(format!(
                "grid of {grid} cells exceeds the dense storage limit {MAX_DENSE_GRID}"
            )));
        }
        if counts.len() as u64 != grid {
            return Err(TabularError::InvalidArgument(format!(
                "dense counts of {} cells do not cover the {grid}-cell grid",
                counts.len()
            )));
        }
        let mut total: u64 = 0;
        for &n in &counts {
            total = total
                .checked_add(n)
                .ok_or_else(|| TabularError::InvalidArgument("dense counts overflow u64".into()))?;
        }
        Ok(Counter {
            attrs: attrs.to_vec(),
            radices,
            strides,
            grid,
            total,
            storage: Storage::Dense(counts),
        })
    }

    /// One counting pass fanned across the shards of `sharded` (via the
    /// rayon shim) and reduced **in shard-index order**.
    ///
    /// Counts are unsigned integers and merging is addition, so the
    /// result is *exactly* — not approximately — the counter a single
    /// contiguous [`Counter::build`] would produce, for **any** shard
    /// count (including 1, which takes the single-pass path verbatim).
    /// Downstream floating-point estimates computed from a sharded pass
    /// are therefore bit-identical to the unsharded ones.
    pub fn build_sharded(sharded: &ShardedTable, attrs: &[AttrId], ctx: &Context) -> Result<Self> {
        use rayon::prelude::*;
        let table = sharded.table().as_ref();
        if sharded.n_shards() == 1 {
            return Counter::build(table, attrs, ctx);
        }
        let indices: Vec<usize> = (0..sharded.n_shards()).collect();
        let partials: Vec<Result<Counter>> = indices
            .par_iter()
            .map(|&i| Counter::build_range(table, attrs, ctx, sharded.shard(i).rows()))
            .collect();
        // Fixed-order reduce: shard 0 is the accumulator, shards 1..
        // merge into it in index order. Integer merges commute, but the
        // fixed order keeps the reduction auditable and makes the
        // determinism argument trivial.
        let mut merged: Option<Counter> = None;
        for partial in partials {
            let partial = partial?;
            match &mut merged {
                None => merged = Some(partial),
                Some(m) => m.merge_from(&partial)?,
            }
        }
        merged.ok_or_else(|| TabularError::InvalidArgument("zero shards".into()))
    }

    /// Add another counter's counts into this one. Both counters must
    /// group the same attribute tuple over the same domains (they then
    /// share grid, strides and storage kind by construction).
    pub fn merge_from(&mut self, other: &Counter) -> Result<()> {
        if self.attrs != other.attrs || self.radices != other.radices {
            return Err(TabularError::InvalidArgument(
                "cannot merge counters over different attribute grids".into(),
            ));
        }
        match (&mut self.storage, &other.storage) {
            (Storage::Dense(dst), Storage::Dense(src)) => {
                for (x, &y) in dst.iter_mut().zip(src) {
                    *x += y;
                }
            }
            (Storage::Sparse(sink), Storage::Sparse(other)) => {
                // lint:allow(ordered-iteration): u64 addition into an entry
                // keyed by packed value codes is commutative, so the merged
                // counts are identical for every visit order.
                for (&key, &n) in other {
                    *sink.entry(key).or_insert(0) += n;
                }
            }
            // storage kind is a pure function of the grid size, which
            // the radices check above already pinned equal
            _ => {
                return Err(TabularError::InvalidArgument(
                    "cannot merge counters with different storage kinds".into(),
                ))
            }
        }
        self.total += other.total;
        Ok(())
    }

    #[inline]
    fn bump(&mut self, key: GroupKey) {
        match &mut self.storage {
            Storage::Dense(v) => v[key as usize] += 1,
            Storage::Sparse(m) => *m.entry(key).or_insert(0) += 1,
        }
    }

    /// The grouped attributes, in key order.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Total rows counted (those matching the build context).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Size of the full value grid `∏ |Dom(Xᵢ)|`.
    pub fn grid_size(&self) -> u64 {
        self.grid
    }

    /// Pack a full value tuple into its [`GroupKey`].
    ///
    /// # Panics
    /// Panics (debug) if the tuple arity or any code is out of range — the
    /// caller controls both, so this is an internal contract.
    #[inline]
    pub fn key_of(&self, values: &[Value]) -> GroupKey {
        debug_assert_eq!(values.len(), self.attrs.len());
        let mut key = 0;
        for ((&v, &stride), &radix) in values.iter().zip(&self.strides).zip(&self.radices) {
            debug_assert!(u64::from(v) < radix, "code {v} out of radix {radix}");
            key += u64::from(v) * stride;
        }
        key
    }

    /// Unpack a [`GroupKey`] back to a value tuple.
    pub fn values_of(&self, key: GroupKey) -> Vec<Value> {
        let mut out = vec![0 as Value; self.attrs.len()];
        self.unpack_into(key, &mut out);
        out
    }

    /// Count of an exact value tuple.
    pub fn count(&self, values: &[Value]) -> u64 {
        let key = self.key_of(values);
        match &self.storage {
            Storage::Dense(v) => v[key as usize],
            Storage::Sparse(m) => m.get(&key).copied().unwrap_or(0),
        }
    }

    /// Count summed over every attribute not fixed by `fixed`, where
    /// `fixed[i]` optionally pins the i-th grouped attribute.
    pub fn marginal_count(&self, fixed: &[Option<Value>]) -> u64 {
        debug_assert_eq!(fixed.len(), self.attrs.len());
        let mut acc = 0u64;
        self.for_each_nonzero(|values, n| {
            if fixed
                .iter()
                .zip(values)
                .all(|(f, &v)| f.is_none_or(|want| want == v))
            {
                acc += n;
            }
        });
        acc
    }

    /// Visit every observed (non-zero) group.
    pub fn for_each_nonzero<F: FnMut(&[Value], u64)>(&self, mut f: F) {
        match &self.storage {
            Storage::Dense(v) => {
                let mut values = vec![0 as Value; self.attrs.len()];
                for (key, &n) in v.iter().enumerate() {
                    if n > 0 {
                        self.unpack_into(key as u64, &mut values);
                        f(&values, n);
                    }
                }
            }
            Storage::Sparse(m) => {
                let mut values = vec![0 as Value; self.attrs.len()];
                // lint:allow(ordered-iteration): callers that need an order
                // (scores.rs freezing passes) sort what they build from this
                // visit; the closure contract promises no order.
                for (&key, &n) in m {
                    self.unpack_into(key, &mut values);
                    f(&values, n);
                }
            }
        }
    }

    /// [`Counter::for_each_nonzero`] in ascending key order, which is
    /// the lexicographic order of the value tuples (row-major keys, last
    /// attribute fastest). A sparse counter sorts its keys first.
    pub fn for_each_nonzero_in_key_order<F: FnMut(&[Value], u64)>(&self, mut f: F) {
        let Storage::Sparse(m) = &self.storage else {
            return self.for_each_nonzero(f);
        };
        // lint:allow(ordered-iteration): sorted by key on the next line.
        let mut cells: Vec<(GroupKey, u64)> = m.iter().map(|(&key, &n)| (key, n)).collect();
        cells.sort_unstable();
        let mut values = vec![0 as Value; self.attrs.len()];
        for (key, n) in cells {
            self.unpack_into(key, &mut values);
            f(&values, n);
        }
    }

    #[inline]
    fn unpack_into(&self, mut key: GroupKey, out: &mut [Value]) {
        for (cell, &stride) in out.iter_mut().zip(&self.strides) {
            *cell = (key / stride) as Value;
            key %= stride;
        }
    }

    /// Observed groups and counts, materialized (sorted by key for
    /// determinism).
    pub fn nonzero_groups(&self) -> Vec<(Vec<Value>, u64)> {
        let mut out = Vec::new();
        self.for_each_nonzero_in_key_order(|values, n| out.push((values.to_vec(), n)));
        out
    }

    /// Smoothed conditional probability
    /// `Pr(target_attr = target_value | given)` within the counted rows,
    /// where `given[i]` pins grouped attributes and `target` indexes the
    /// grouped attribute list.
    pub fn conditional(
        &self,
        target: usize,
        target_value: Value,
        given: &[Option<Value>],
        alpha: f64,
    ) -> f64 {
        debug_assert!(given[target].is_none(), "target must be free in `given`");
        let denom_n = self.marginal_count(given) as f64;
        let mut num_fixed = given.to_vec();
        num_fixed[target] = Some(target_value);
        let num_n = self.marginal_count(&num_fixed) as f64;
        let card = self.radices[target] as f64;
        let denom = denom_n + alpha * card;
        if denom == 0.0 {
            // Uninformative: uniform over the target's domain.
            return 1.0 / card;
        }
        (num_n + alpha) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::schema::Schema;

    fn table() -> Table {
        let mut s = Schema::new();
        s.push("a", Domain::categorical(["0", "1"]));
        s.push("b", Domain::categorical(["0", "1", "2"]));
        s.push("c", Domain::boolean());
        let mut t = Table::new(s);
        let rows: [[u32; 3]; 7] = [
            [0, 0, 0],
            [0, 1, 1],
            [0, 1, 1],
            [1, 2, 0],
            [1, 2, 1],
            [1, 0, 1],
            [1, 1, 0],
        ];
        for r in rows {
            t.push_row(&r).unwrap();
        }
        t
    }

    #[test]
    fn counts_match_table_counts() {
        let t = table();
        let attrs = [AttrId(0), AttrId(1), AttrId(2)];
        let c = Counter::build(&t, &attrs, &Context::empty()).unwrap();
        assert_eq!(c.total(), 7);
        assert_eq!(c.count(&[0, 1, 1]), 2);
        assert_eq!(c.count(&[1, 2, 0]), 1);
        assert_eq!(c.count(&[0, 2, 0]), 0);
    }

    #[test]
    fn key_roundtrip() {
        let t = table();
        let c = Counter::build(&t, &[AttrId(1), AttrId(2)], &Context::empty()).unwrap();
        for b in 0..3u32 {
            for cc in 0..2u32 {
                let key = c.key_of(&[b, cc]);
                assert_eq!(c.values_of(key), vec![b, cc]);
            }
        }
        assert_eq!(c.grid_size(), 6);
    }

    #[test]
    fn marginals_sum_correctly() {
        let t = table();
        let c = Counter::build(&t, &[AttrId(0), AttrId(2)], &Context::empty()).unwrap();
        // marginal over c for a=1: rows 3..=6 -> 4
        assert_eq!(c.marginal_count(&[Some(1), None]), 4);
        // full marginal = total
        assert_eq!(c.marginal_count(&[None, None]), 7);
        // pin both
        assert_eq!(c.marginal_count(&[Some(1), Some(1)]), 2);
    }

    #[test]
    fn build_with_context_restricts_rows() {
        let t = table();
        let ctx = Context::of([(AttrId(0), 1)]);
        let c = Counter::build(&t, &[AttrId(2)], &ctx).unwrap();
        assert_eq!(c.total(), 4);
        assert_eq!(c.count(&[1]), 2);
    }

    #[test]
    fn conditional_matches_table_estimate() {
        let t = table();
        let attrs = [AttrId(0), AttrId(2)];
        let c = Counter::build(&t, &attrs, &Context::empty()).unwrap();
        // Pr(c=1 | a=0) = 2/3
        let p = c.conditional(1, 1, &[Some(0), None], 0.0);
        let p_tab = t
            .conditional_probability(AttrId(2), 1, &Context::of([(AttrId(0), 0)]), 0.0)
            .unwrap();
        assert!((p - p_tab).abs() < 1e-12);
        // a context value that never occurs yields an empty counter
        let empty =
            Counter::build(&t, &attrs, &Context::of([(AttrId(1), 2), (AttrId(0), 0)])).unwrap();
        assert_eq!(empty.total(), 0);
        // and conditionals fall back to uniform
        let p_u = empty.conditional(1, 1, &[None, None], 0.0);
        assert!((p_u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nonzero_groups_sorted_and_complete() {
        let t = table();
        let c = Counter::build(&t, &[AttrId(0), AttrId(1)], &Context::empty()).unwrap();
        let groups = c.nonzero_groups();
        let total: u64 = groups.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 7);
        let mut sorted = groups.clone();
        sorted.sort();
        assert_eq!(groups, sorted);
    }

    #[test]
    fn key_order_visits_sort_sparse_counters_too() {
        // 300 × 300 cells is past MAX_DENSE_GRID: the counts are sparse
        let wide = || Domain::categorical((0..300).map(|i| i.to_string()));
        let mut s = Schema::new();
        s.push("a", wide());
        s.push("b", wide());
        let mut t = Table::new(s);
        for i in 0..500u32 {
            t.push_row(&[(i * 7919) % 300, (i * 31) % 300]).unwrap();
        }
        let c = Counter::build(&t, &[AttrId(0), AttrId(1)], &Context::empty()).unwrap();
        assert!(c.grid_size() > MAX_DENSE_GRID);
        let mut visited = Vec::new();
        c.for_each_nonzero_in_key_order(|values, n| visited.push((values.to_vec(), n)));
        let mut want = Vec::new();
        c.for_each_nonzero(|values, n| want.push((values.to_vec(), n)));
        want.sort();
        assert_eq!(visited, want);
        assert_eq!(c.nonzero_groups(), want);
    }

    #[test]
    fn range_builds_partition_the_full_count() {
        let t = table();
        let attrs = [AttrId(0), AttrId(1), AttrId(2)];
        let full = Counter::build(&t, &attrs, &Context::empty()).unwrap();
        let mut merged = Counter::build_range(&t, &attrs, &Context::empty(), 0..3).unwrap();
        let rest = Counter::build_range(&t, &attrs, &Context::empty(), 3..7).unwrap();
        merged.merge_from(&rest).unwrap();
        assert_eq!(merged.total(), full.total());
        assert_eq!(merged.nonzero_groups(), full.nonzero_groups());
        // invalid ranges are typed errors
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 5..3;
        assert!(Counter::build_range(&t, &attrs, &Context::empty(), reversed).is_err());
        assert!(Counter::build_range(&t, &attrs, &Context::empty(), 0..8).is_err());
        // mismatched grids refuse to merge
        let other = Counter::build(&t, &[AttrId(0)], &Context::empty()).unwrap();
        assert!(merged.merge_from(&other).is_err());
    }

    #[test]
    fn sharded_build_equals_single_pass_for_any_shard_count() {
        let t = table();
        let attrs = [AttrId(0), AttrId(1), AttrId(2)];
        let contexts = [Context::empty(), Context::of([(AttrId(0), 1)])];
        for ctx in &contexts {
            let full = Counter::build(&t, &attrs, ctx).unwrap();
            for n_shards in [1usize, 2, 3, 7, 16] {
                let sharded = ShardedTable::from_shared(std::sync::Arc::new(t.clone()), n_shards);
                let c = Counter::build_sharded(&sharded, &attrs, ctx).unwrap();
                assert_eq!(c.total(), full.total(), "{n_shards} shards");
                assert_eq!(
                    c.nonzero_groups(),
                    full.nonzero_groups(),
                    "{n_shards} shards"
                );
            }
        }
    }

    #[test]
    fn from_dense_equals_a_scan_built_counter() {
        let t = table();
        let attrs = [AttrId(0), AttrId(1), AttrId(2)];
        let scanned = Counter::build(&t, &attrs, &Context::empty()).unwrap();
        // rebuild the dense vector a scan would produce, cell by cell
        let mut counts = vec![0u64; scanned.grid_size() as usize];
        scanned.for_each_nonzero(|values, n| counts[scanned.key_of(values) as usize] = n);
        let assembled = Counter::from_dense(&t, &attrs, counts).unwrap();
        assert_eq!(assembled.total(), scanned.total());
        assert_eq!(assembled.nonzero_groups(), scanned.nonzero_groups());
        // and it merges with scan-built counters (same storage kind)
        let mut merged = assembled.clone();
        merged.merge_from(&scanned).unwrap();
        assert_eq!(merged.total(), 14);
        // wrong-length vectors are typed errors
        assert!(Counter::from_dense(&t, &attrs, vec![0; 3]).is_err());
    }

    #[test]
    fn conditional_uniform_on_empty_support() {
        let t = table();
        let c = Counter::build(&t, &[AttrId(0), AttrId(1)], &Context::empty()).unwrap();
        // b has no rows with a-code that never occurs in subset: pin b=2 & ask about a conditioned on impossible combos
        // Pin a=0, b=2 has zero rows; conditional of target a given b=2 is fine though:
        let p = c.conditional(0, 0, &[None, Some(2)], 0.0);
        assert!((p - 0.0).abs() < 1e-12); // a=0,b=2 never occurs; a=1,b=2 occurs twice
        let p1 = c.conditional(0, 1, &[None, Some(2)], 0.0);
        assert!((p1 - 1.0).abs() < 1e-12);
    }
}
