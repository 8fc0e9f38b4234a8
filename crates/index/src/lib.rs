//! # lewis-index — bitmap indexes over dictionary-coded tables
//!
//! Every LEWIS probability estimate reduces to conjunctive counts over
//! a dictionary-coded [`tabular::Table`] (paper eqs. 19–21): "how many
//! rows have `x = a` and `k = b` and `o = 1`?". Answering that with a
//! row scan costs `O(rows)` per probe — the cold local-context back-off
//! rescans the whole table once per dropped attribute — a ~160 ms tail
//! at a million rows.
//!
//! A [`TableIndex`] stores one [`tabular::Bitmap`] per
//! `(attribute, code)` pair — bit `i` set iff row `i` holds that code —
//! so the same conjunctive count becomes a word-level `AND` plus
//! `popcount` over `rows / 64` words. A grouped counting pass is the
//! same intersection walked over the group grid with zero-subtree
//! pruning, emitting the *identical* unsigned integers a scan would
//! (assembled via [`tabular::Counter::from_dense`]).
//!
//! ## Sharding and determinism
//!
//! The index keeps one bitmap set per row shard, aligned to the
//! canonical [`tabular::shard_boundaries`] partition, and reduces
//! per-shard results **in shard-index order**. Counts are `u64`s and
//! the reduction is addition, so — exactly as with sharded scans — an
//! indexed result is bit-identical to the single-scan result for any
//! shard count. Whether a query runs through the index or falls back
//! to a scan can never change an answer, only its latency.
//!
//! ## Example: build → index → count
//!
//! ```
//! use tabular::{Context, Counter, Domain, Schema, Table};
//! use lewis_index::TableIndex;
//!
//! let mut schema = Schema::new();
//! let color = schema.push("color", Domain::categorical(["red", "green"]));
//! let size = schema.push("size", Domain::categorical(["s", "m", "l"]));
//! let mut table = Table::new(schema);
//! for row in [[0, 0], [0, 2], [1, 1], [0, 2], [1, 2]] {
//!     table.push_row(&row).unwrap();
//! }
//!
//! // one bitmap per (attribute, code), two row shards
//! let index = TableIndex::build(&table, 2).unwrap();
//!
//! // a support probe is an AND + popcount — and equals the scan
//! let ctx = Context::of([(color, 0), (size, 2)]);
//! assert_eq!(index.count(&ctx), Some(2));
//! assert_eq!(index.count(&ctx).unwrap() as usize, table.count(&ctx));
//!
//! // a counting pass through the index is bit-identical to a scan
//! let indexed = index
//!     .counting_pass(&table, &[color, size], &Context::empty())
//!     .unwrap()
//!     .expect("small grid stays on the index path");
//! let scanned = Counter::build(&table, &[color, size], &Context::empty()).unwrap();
//! assert_eq!(indexed.nonzero_groups(), scanned.nonzero_groups());
//! assert_eq!(indexed.total(), scanned.total());
//! ```
//!
//! ## When it pays off
//!
//! Memory: per attribute, `cardinality × rows / 8` bytes (each code
//! owns a full-length bitmap), summed over attributes — ~5 MB for a
//! million rows of an 8-attribute, ~40-codes-total schema. Probes win
//! whenever the table is large and the group grid is small relative to
//! it; [`TableIndex::counting_pass`] prices each request with a
//! deterministic cost model and returns `None` (caller scans) when the
//! grid is too large for intersections to beat one sequential pass.

mod codec;

pub use codec::IndexError;

use tabular::shard::shard_boundaries;
use tabular::{column_bitmaps, words_for, AttrId, Bitmap, Context, Counter, Table, Value};

/// Group grids larger than this always fall back to the scan path:
/// past it the intersection walk visits more cells than a scan visits
/// rows in any realistic table, and the dense count vector would start
/// to rival the index itself in size.
const MAX_INDEX_GRID: u64 = 1 << 16;

/// The indexed walk is admitted when its estimated word operations stay
/// within this factor of the scan's cell reads — biased toward the
/// index because word ops cover 64 rows each and zero-subtree pruning
/// only ever lowers the real cost below the estimate.
const COST_BIAS: u64 = 8;

/// Above this shard count the per-shard walks run sequentially into one
/// accumulator instead of materializing one count vector per shard —
/// identical sums (addition, in shard order either way), bounded memory.
const PARALLEL_SHARD_LIMIT: usize = 64;

/// One shard's bitmaps: `attrs[a][c]` covers the shard's local rows
/// holding code `c` in attribute `a`.
#[derive(Debug, Clone)]
struct ShardIndex {
    attrs: Vec<Vec<Bitmap>>,
}

/// Per-(attribute, code) bitmap index over a table, one bitmap set per
/// canonical row shard. See the [crate docs](crate) for the layout and
/// the determinism argument.
#[derive(Debug, Clone)]
pub struct TableIndex {
    n_rows: usize,
    cardinalities: Vec<u32>,
    boundaries: Vec<usize>,
    shards: Vec<ShardIndex>,
}

impl TableIndex {
    /// Index every attribute of `table`, one bitmap set per shard of
    /// the canonical `shard_boundaries(n_rows, n_shards)` partition
    /// (clamped like the counting engine's own sharding). Shards build
    /// in parallel; the result is a pure function of the table and the
    /// shard count.
    pub fn build(table: &Table, n_shards: usize) -> tabular::Result<TableIndex> {
        use rayon::prelude::*;
        let schema = table.schema();
        let mut cardinalities = Vec::with_capacity(schema.len());
        for a in schema.attr_ids() {
            cardinalities.push(schema.cardinality(a)? as u32);
        }
        let boundaries = shard_boundaries(table.n_rows(), n_shards);
        let indices: Vec<usize> = (0..boundaries.len() - 1).collect();
        let built: Vec<tabular::Result<ShardIndex>> = indices
            .par_iter()
            .map(|&i| {
                let rows = boundaries[i]..boundaries[i + 1];
                let mut attrs = Vec::with_capacity(cardinalities.len());
                for (ai, a) in schema.attr_ids().enumerate() {
                    let col = &table.column(a)?[rows.clone()];
                    attrs.push(column_bitmaps(col, cardinalities[ai] as usize)?);
                }
                Ok(ShardIndex { attrs })
            })
            .collect();
        let mut shards = Vec::with_capacity(indices.len());
        for shard in built {
            shards.push(shard?);
        }
        Ok(TableIndex {
            n_rows: table.n_rows(),
            cardinalities,
            boundaries,
            shards,
        })
    }

    /// Rows the indexed table has.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Shards the index is partitioned into.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-attribute cardinalities recorded at build time.
    pub fn cardinalities(&self) -> &[u32] {
        &self.cardinalities
    }

    /// Heap bytes held by the packed bitmap words (the dominant cost;
    /// per attribute this is `cardinality × n_rows / 8` bytes).
    pub fn memory_bytes(&self) -> u64 {
        let mut total = 0u64;
        for shard in &self.shards {
            for maps in &shard.attrs {
                for b in maps {
                    total += b.memory_bytes() as u64;
                }
            }
        }
        total
    }

    /// Whether this index describes `table` (same row count, same
    /// per-attribute cardinalities) — the compatibility gate an engine
    /// checks before installing a restored index.
    pub fn matches(&self, table: &Table) -> bool {
        if self.n_rows != table.n_rows() {
            return false;
        }
        let schema = table.schema();
        if self.cardinalities.len() != schema.len() {
            return false;
        }
        schema
            .attr_ids()
            .zip(&self.cardinalities)
            .all(|(a, &card)| schema.cardinality(a).is_ok_and(|c| c as u32 == card))
    }

    /// Count rows matching `ctx`: per shard, `AND` the context's code
    /// bitmaps and popcount, summed in shard-index order. Equals
    /// [`Table::count`] exactly. Returns `None` when `ctx` names an
    /// attribute this index does not cover (the caller's scan path owns
    /// the error behavior); a code outside its attribute's domain
    /// matches zero rows, exactly as a scan would find.
    pub fn count(&self, ctx: &Context) -> Option<u64> {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (a, v) in ctx.iter() {
            if a.index() >= self.cardinalities.len() {
                return None;
            }
            pairs.push((a.index(), v as usize));
        }
        if pairs.is_empty() {
            return Some(self.n_rows as u64);
        }
        let mut total = 0u64;
        for shard in &self.shards {
            total += Self::shard_count(shard, &pairs);
        }
        Some(total)
    }

    /// Materialize 0/1 labels for `attr == code` over every row,
    /// assembled from the per-shard code bitmaps in shard-index order —
    /// `labels[r] == 1` iff row `r` holds `code` in `attr`, exactly the
    /// vector a column scan comparing against `code` would produce.
    /// This is how the recourse surrogate sources its training labels
    /// when an index is installed: one word-walk of the prediction
    /// attribute's bitmap instead of a full-column compare.
    ///
    /// Returns `None` when `attr` is outside the indexed schema (the
    /// caller's scan path owns that case); a code outside the
    /// attribute's domain labels every row 0, as a scan would.
    pub fn labels(&self, attr: AttrId, code: tabular::Value) -> Option<Vec<u32>> {
        if attr.index() >= self.cardinalities.len() {
            return None;
        }
        let mut labels = vec![0u32; self.n_rows];
        for (si, shard) in self.shards.iter().enumerate() {
            let base = self.boundaries[si];
            if let Some(bits) = shard.attrs[attr.index()].get(code as usize) {
                bits.for_each_set(|i| labels[base + i] = 1);
            }
        }
        Some(labels)
    }

    /// One shard's contribution to [`TableIndex::count`].
    fn shard_count(shard: &ShardIndex, pairs: &[(usize, usize)]) -> u64 {
        let ((a0, c0), rest) = match pairs.split_first() {
            Some((&first, rest)) => (first, rest),
            None => return 0,
        };
        let Some(first) = shard.attrs[a0].get(c0) else {
            return 0; // code outside the domain: no row can hold it
        };
        match rest {
            [] => first.count_ones(),
            [(a1, c1)] => match shard.attrs[*a1].get(*c1) {
                Some(second) => first.and_count(second),
                None => 0,
            },
            _ => {
                let mut mask = first.clone();
                for &(a, c) in rest {
                    let Some(b) = shard.attrs[a].get(c) else {
                        return 0;
                    };
                    mask.and_assign(b);
                    if mask.is_zero() {
                        return 0;
                    }
                }
                mask.count_ones()
            }
        }
    }

    /// A grouped counting pass through the index: group the rows
    /// matching `ctx` by `attrs`, producing a [`Counter`] bit-identical
    /// to [`Counter::build`]`(table, attrs, ctx)` (dense cells are the
    /// same `u64`s in the same mixed-radix order, assembled via
    /// [`Counter::from_dense`]).
    ///
    /// Returns `Ok(None)` when the request is better served by a scan —
    /// the group grid exceeds the built-in grid cap, the deterministic
    /// cost estimate says intersections would visit more words than the
    /// scan visits cells, or an attribute is outside the indexed schema.
    /// The decision is a pure function of the grid and row count, and
    /// both paths return identical counters, so routing can never
    /// change an answer.
    pub fn counting_pass(
        &self,
        table: &Table,
        attrs: &[AttrId],
        ctx: &Context,
    ) -> tabular::Result<Option<Counter>> {
        use rayon::prelude::*;
        if !self.matches(table) {
            return Ok(None);
        }
        let mut attr_idx = Vec::with_capacity(attrs.len());
        for &a in attrs {
            if a.index() >= self.cardinalities.len() {
                return Ok(None);
            }
            attr_idx.push(a.index());
        }
        let mut ctx_pairs: Vec<(usize, usize)> = Vec::new();
        for (a, v) in ctx.iter() {
            if a.index() >= self.cardinalities.len() {
                return Ok(None);
            }
            ctx_pairs.push((a.index(), v as usize));
        }

        // Mixed-radix strides, row-major, exactly as Counter::build.
        let radices: Vec<u64> = attr_idx
            .iter()
            .map(|&a| u64::from(self.cardinalities[a]))
            .collect();
        let mut strides = vec![1u64; radices.len()];
        let mut grid: u64 = 1;
        for i in (0..radices.len()).rev() {
            strides[i] = grid;
            grid = match grid.checked_mul(radices[i]) {
                Some(g) => g,
                None => return Ok(None), // a scan reports the overflow
            };
        }
        if grid > MAX_INDEX_GRID || !self.walk_is_cheaper(&radices) {
            return Ok(None);
        }

        let counts = if self.shards.len() <= 1 || self.shards.len() > PARALLEL_SHARD_LIMIT {
            // Sequential accumulation in shard-index order.
            let mut counts = vec![0u64; grid as usize];
            for si in 0..self.shards.len() {
                self.shard_pass(si, &attr_idx, &strides, &ctx_pairs, &mut counts);
            }
            counts
        } else {
            // One count vector per shard in parallel, summed in
            // shard-index order — u64 addition, so identical to the
            // sequential accumulation above.
            let indices: Vec<usize> = (0..self.shards.len()).collect();
            let partials: Vec<Vec<u64>> = indices
                .par_iter()
                .map(|&si| {
                    let mut counts = vec![0u64; grid as usize];
                    self.shard_pass(si, &attr_idx, &strides, &ctx_pairs, &mut counts);
                    counts
                })
                .collect();
            let mut counts = vec![0u64; grid as usize];
            for partial in partials {
                for (acc, n) in counts.iter_mut().zip(partial) {
                    *acc += n;
                }
            }
            counts
        };
        Counter::from_dense(table, attrs, counts).map(Some)
    }

    /// Deterministic cost gate: estimated word operations of the
    /// pruned intersection walk (`Σ_d min(∏radices[..d], rows) ×
    /// radices[d]` grid visits, each touching `rows / 64` words) versus
    /// the scan's `rows × attrs` cell reads, biased by [`COST_BIAS`].
    fn walk_is_cheaper(&self, radices: &[u64]) -> bool {
        let rows = self.n_rows as u64;
        let words = words_for(self.n_rows) as u64;
        let mut visits: u64 = 0;
        let mut prefix: u64 = 1;
        for &r in radices {
            visits = visits.saturating_add(prefix.min(rows).saturating_mul(r));
            prefix = prefix.saturating_mul(r);
        }
        let index_cost = visits.saturating_mul(words);
        let scan_cost = rows.saturating_mul(radices.len().max(1) as u64);
        index_cost <= scan_cost.saturating_mul(COST_BIAS)
    }

    /// Walk one shard's grid, accumulating leaf popcounts into the
    /// shared dense count vector.
    fn shard_pass(
        &self,
        si: usize,
        attr_idx: &[usize],
        strides: &[u64],
        ctx_pairs: &[(usize, usize)],
        counts: &mut [u64],
    ) {
        let shard = &self.shards[si];
        let rows = self.boundaries[si + 1] - self.boundaries[si];
        if rows == 0 {
            return;
        }
        // One scratch bitmap per inner depth, allocated once per shard:
        // inner nodes intersect via the fused single-pass `and_into`
        // instead of clone + and_assign + is_zero (three word passes).
        // The last two levels run through the fused `and_count_multi`
        // kernel and never materialize a mask, so only depths up to
        // `len - 3` need scratch.
        let inner_depths = attr_idx.len().saturating_sub(2);
        let mut scratch: Vec<Bitmap> = (0..inner_depths).map(|_| Bitmap::zeros(rows)).collect();

        if ctx_pairs.is_empty() {
            if attr_idx.is_empty() {
                counts[0] += rows as u64;
                return;
            }
            // Unconstrained pass: the first grouped attribute's code
            // bitmaps partition the shard's rows, so each serves
            // directly as a root mask — no all-ones base and no
            // depth-0 AND pass at all. The last code's popcount is
            // whatever the others leave of the shard.
            let maps = &shard.attrs[attr_idx[0]];
            let mut remaining = rows as u64;
            for (code, b) in maps.iter().enumerate() {
                let last = code + 1 == maps.len();
                let n = if last { remaining } else { b.count_ones() };
                if n == 0 {
                    continue;
                }
                if !last {
                    remaining -= n;
                }
                Self::walk(
                    shard,
                    b,
                    n,
                    attr_idx,
                    strides,
                    1,
                    code as u64 * strides[0],
                    counts,
                    &mut scratch,
                );
            }
            return;
        }

        // Fold the context into a base mask: a one-attribute context
        // borrows its code bitmap outright, larger ones fold into an
        // owned clone (a missing code means zero matching rows).
        let (&(a0, c0), rest_ctx) = ctx_pairs.split_first().expect("checked non-empty");
        let Some(first) = shard.attrs[a0].get(c0) else {
            return;
        };
        let owned;
        let (base, base_count) = match rest_ctx {
            [] => (first, first.count_ones()),
            _ => {
                let mut m = first.clone();
                for &(a, c) in rest_ctx {
                    let Some(b) = shard.attrs[a].get(c) else {
                        return;
                    };
                    m.and_assign(b);
                }
                owned = m;
                (&owned, owned.count_ones())
            }
        };
        if base_count == 0 {
            return;
        }
        Self::walk(
            shard,
            base,
            base_count,
            attr_idx,
            strides,
            0,
            0,
            counts,
            &mut scratch,
        );
    }

    /// Recursive prefix intersection: at each depth, intersect the
    /// running mask with each code bitmap of the next grouped
    /// attribute, pruning empty subtrees; leaves popcount straight into
    /// their mixed-radix cell. `mask_count` is `mask`'s popcount, which
    /// every caller already knows — the leaf level spends it on the
    /// partition identity below instead of recounting.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        shard: &ShardIndex,
        mask: &Bitmap,
        mask_count: u64,
        attr_idx: &[usize],
        strides: &[u64],
        depth: usize,
        key_base: u64,
        counts: &mut [u64],
        scratch: &mut [Bitmap],
    ) {
        if depth == attr_idx.len() {
            counts[key_base as usize] += mask_count;
            return;
        }
        let maps = &shard.attrs[attr_idx[depth]];
        if depth + 1 == attr_idx.len() {
            // Last level: the attribute's code bitmaps partition the
            // rows, so the final code's popcount is the mask total
            // minus the others — one fewer AND pass per leaf group,
            // and no intersections are ever materialized.
            let Some((_, head)) = maps.split_last() else {
                return;
            };
            let mut remaining = mask_count;
            for (code, b) in head.iter().enumerate() {
                let n = mask.and_count(b);
                if n > 0 {
                    remaining -= n;
                    counts[(key_base + code as u64 * strides[depth]) as usize] += n;
                }
            }
            if remaining > 0 {
                let last_code = (maps.len() - 1) as u64;
                counts[(key_base + last_code * strides[depth]) as usize] += remaining;
            }
            return;
        }
        if depth + 2 == attr_idx.len() {
            // Second-to-last level: one fused pass per code computes the
            // node's popcount *and* every leaf cell under it
            // ([`Bitmap::and_count_multi`]) — nothing is materialized,
            // and the leaf partition identity fills the final cell.
            let leaf_maps = &shard.attrs[attr_idx[depth + 1]];
            let Some((_, leaf_head)) = leaf_maps.split_last() else {
                return;
            };
            let last_leaf = (leaf_maps.len() - 1) as u64;
            let mut leaf_counts = vec![0u64; leaf_head.len()];
            for (code, b) in maps.iter().enumerate() {
                let n = mask.and_count_multi(b, leaf_head, &mut leaf_counts);
                if n == 0 {
                    continue;
                }
                let cell = key_base + code as u64 * strides[depth];
                let mut remaining = n;
                for (leaf, &m) in leaf_counts.iter().enumerate() {
                    if m > 0 {
                        remaining -= m;
                        counts[(cell + leaf as u64 * strides[depth + 1]) as usize] += m;
                    }
                }
                if remaining > 0 {
                    counts[(cell + last_leaf * strides[depth + 1]) as usize] += remaining;
                }
            }
            return;
        }
        let (sub, rest) = scratch
            .split_first_mut()
            .expect("shard_pass allocates one scratch bitmap per inner depth");
        for (code, b) in maps.iter().enumerate() {
            let n = mask.and_into(b, sub);
            if n == 0 {
                continue;
            }
            Self::walk(
                shard,
                sub,
                n,
                attr_idx,
                strides,
                depth + 1,
                key_base + code as u64 * strides[depth],
                counts,
                rest,
            );
        }
    }
}

/// Append-only per-(attribute, code) bit vectors over a **delta** table
/// — the write-side growth companion to [`TableIndex`].
///
/// A frozen [`TableIndex`] cannot grow (its bitmaps are sized and
/// sharded at build time), so a live engine keeps its base index
/// untouched and accumulates appended rows here: bit `i` of
/// `(attr, code)` is set iff delta row `i` holds `code` in `attr`.
/// Support probes over the live table are then
/// `base_index.count(ctx) + delta.count(ctx)` — two word-level
/// AND+popcount walks summed base-then-delta, exactly the integer one
/// scan over the concatenated table would count.
///
/// Word vectors grow lazily: a code's vector only extends when one of
/// its rows lands in a new word, and rows past a vector's end read as
/// zero. [`DeltaBitmaps::count`] mirrors [`TableIndex::count`]'s
/// contract — `None` defers out-of-schema attributes to the caller's
/// scan path, out-of-domain codes count zero rows.
#[derive(Debug, Clone, Default)]
pub struct DeltaBitmaps {
    n_rows: usize,
    cardinalities: Vec<u32>,
    /// `attrs[a][c]`: packed words over delta rows (missing tail words
    /// are all-zero).
    attrs: Vec<Vec<Vec<u64>>>,
}

impl DeltaBitmaps {
    /// An empty delta index over a schema described by its per-attribute
    /// cardinalities (use `TableIndex::cardinalities()`'s layout).
    pub fn new(cardinalities: Vec<u32>) -> DeltaBitmaps {
        let attrs = cardinalities
            .iter()
            .map(|&card| vec![Vec::new(); card as usize])
            .collect();
        DeltaBitmaps {
            n_rows: 0,
            cardinalities,
            attrs,
        }
    }

    /// Index every row of `table` — the rebuild-from-a-delta-shard path
    /// (restores, and engines overlaying a fresh batch).
    pub fn from_table(table: &Table) -> tabular::Result<DeltaBitmaps> {
        let schema = table.schema();
        let mut cardinalities = Vec::with_capacity(schema.len());
        for a in schema.attr_ids() {
            cardinalities.push(schema.cardinality(a)? as u32);
        }
        let mut delta = DeltaBitmaps::new(cardinalities);
        for (ai, a) in schema.attr_ids().enumerate() {
            for (r, &code) in table.column(a)?.iter().enumerate() {
                delta.set_bit(ai, code, r);
            }
        }
        delta.n_rows = table.n_rows();
        Ok(delta)
    }

    /// Append one row (codes in schema order). The caller validates
    /// codes against the schema first — the table the delta shard
    /// mirrors rejects out-of-domain rows before they reach here.
    pub fn append_row(&mut self, row: &[Value]) -> tabular::Result<()> {
        if row.len() < self.cardinalities.len() {
            return Err(tabular::TabularError::ArityMismatch {
                expected: self.cardinalities.len(),
                got: row.len(),
            });
        }
        for (a, (&code, &card)) in row.iter().zip(&self.cardinalities).enumerate() {
            if code >= card {
                return Err(tabular::TabularError::ValueOutOfDomain {
                    attr: a as u32,
                    value: code,
                    cardinality: card as usize,
                });
            }
        }
        let r = self.n_rows;
        for (a, &code) in row.iter().take(self.cardinalities.len()).enumerate() {
            self.set_bit(a, code, r);
        }
        self.n_rows += 1;
        Ok(())
    }

    fn set_bit(&mut self, attr: usize, code: Value, row: usize) {
        let words = &mut self.attrs[attr][code as usize];
        let w = row / 64;
        if words.len() <= w {
            words.resize(w + 1, 0);
        }
        words[w] |= 1u64 << (row % 64);
    }

    /// Delta rows indexed so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Count delta rows matching `ctx`: AND the context's code word
    /// vectors and popcount. Equals a scan of the delta shard exactly.
    /// `None` when `ctx` names an attribute outside the indexed schema
    /// (the caller's scan path owns the error behavior); out-of-domain
    /// codes match zero rows.
    pub fn count(&self, ctx: &Context) -> Option<u64> {
        let mut vecs: Vec<&[u64]> = Vec::new();
        for (a, v) in ctx.iter() {
            if a.index() >= self.cardinalities.len() {
                return None;
            }
            match self.attrs[a.index()].get(v as usize) {
                Some(words) => vecs.push(words),
                None => return Some(0), // out-of-domain code
            }
        }
        if vecs.is_empty() {
            return Some(self.n_rows as u64);
        }
        let n_words = words_for(self.n_rows);
        let mut total = 0u64;
        for w in 0..n_words {
            let mut acc = match vecs[0].get(w) {
                Some(&x) => x,
                None => continue,
            };
            for words in &vecs[1..] {
                acc &= words.get(w).copied().unwrap_or(0);
                if acc == 0 {
                    break;
                }
            }
            total += u64::from(acc.count_ones());
        }
        Some(total)
    }

    /// Heap bytes held by the packed words.
    pub fn memory_bytes(&self) -> u64 {
        let mut total = 0u64;
        for maps in &self.attrs {
            for words in maps {
                total += (words.capacity() * 8) as u64;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::{Domain, Schema, Value};

    fn table(n: usize) -> Table {
        let mut s = Schema::new();
        s.push("a", Domain::categorical(["0", "1", "2"]));
        s.push("b", Domain::categorical(["0", "1"]));
        s.push("c", Domain::categorical(["0", "1", "2", "3"]));
        let mut t = Table::new(s);
        for i in 0..n {
            t.push_row(&[
                (i % 3) as Value,
                ((i / 2) % 2) as Value,
                ((i * 7) % 4) as Value,
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn counts_equal_scans_for_every_context_and_shard_count() {
        let t = table(101);
        let contexts = [
            Context::empty(),
            Context::of([(AttrId(0), 1)]),
            Context::of([(AttrId(0), 2), (AttrId(1), 0)]),
            Context::of([(AttrId(0), 0), (AttrId(1), 1), (AttrId(2), 3)]),
        ];
        for n_shards in [1usize, 2, 4, 7, 128] {
            let idx = TableIndex::build(&t, n_shards).unwrap();
            assert_eq!(idx.n_shards(), n_shards.min(tabular::MAX_SHARDS));
            for ctx in &contexts {
                assert_eq!(
                    idx.count(ctx),
                    Some(t.count(ctx) as u64),
                    "{n_shards} shards"
                );
            }
        }
    }

    #[test]
    fn out_of_domain_codes_count_zero_and_unknown_attrs_defer() {
        let t = table(20);
        let idx = TableIndex::build(&t, 3).unwrap();
        // code 9 is outside b's domain: a scan finds nothing
        assert_eq!(idx.count(&Context::of([(AttrId(1), 9)])), Some(0));
        assert_eq!(
            idx.count(&Context::of([(AttrId(0), 1), (AttrId(1), 9)])),
            Some(0)
        );
        // attribute 7 is not in the schema: defer to the scan path
        assert_eq!(idx.count(&Context::of([(AttrId(7), 0)])), None);
    }

    #[test]
    fn labels_match_a_column_scan_for_any_shard_count() {
        let t = table(101);
        for n_shards in [1usize, 2, 4, 7] {
            let idx = TableIndex::build(&t, n_shards).unwrap();
            for attr in [AttrId(0), AttrId(2)] {
                for code in 0..4u32 {
                    let scanned: Vec<u32> = t
                        .column(attr)
                        .unwrap()
                        .iter()
                        .map(|&v| u32::from(v == code))
                        .collect();
                    assert_eq!(
                        idx.labels(attr, code),
                        Some(scanned),
                        "{attr:?}={code} over {n_shards} shards"
                    );
                }
            }
            // out-of-domain code labels nothing; unknown attr defers
            assert_eq!(idx.labels(AttrId(1), 9), Some(vec![0u32; 101]));
            assert_eq!(idx.labels(AttrId(7), 0), None);
        }
    }

    #[test]
    fn counting_passes_are_bit_identical_to_scans() {
        let t = table(97);
        let groupings: &[&[AttrId]] = &[
            &[AttrId(0)],
            &[AttrId(0), AttrId(2)],
            &[AttrId(2), AttrId(0), AttrId(1)],
            &[AttrId(1), AttrId(1)], // duplicate attribute, scan semantics
            &[],
        ];
        let contexts = [
            Context::empty(),
            Context::of([(AttrId(1), 1)]),
            Context::of([(AttrId(0), 2), (AttrId(2), 1)]),
            Context::of([(AttrId(2), 9)]), // out-of-domain: empty counter
        ];
        for n_shards in [1usize, 2, 4, 7] {
            let idx = TableIndex::build(&t, n_shards).unwrap();
            for attrs in groupings {
                for ctx in &contexts {
                    let indexed = idx
                        .counting_pass(&t, attrs, ctx)
                        .unwrap()
                        .expect("tiny grids stay on the index path");
                    let scanned = Counter::build(&t, attrs, ctx).unwrap();
                    assert_eq!(indexed.total(), scanned.total(), "{attrs:?} {ctx:?}");
                    assert_eq!(
                        indexed.nonzero_groups(),
                        scanned.nonzero_groups(),
                        "{attrs:?} {ctx:?} over {n_shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_grids_fall_back_to_the_scan_path() {
        let wide = || Domain::categorical((0..300).map(|i| i.to_string()));
        let mut s = Schema::new();
        s.push("wide", wide());
        s.push("wide2", wide());
        let mut t = Table::new(s);
        for i in 0..50 {
            t.push_row(&[i % 300, (i * 3) % 300]).unwrap();
        }
        let idx = TableIndex::build(&t, 2).unwrap();
        // 300 × 300 = 90 000 cells > MAX_INDEX_GRID: the index declines
        let pass = idx
            .counting_pass(&t, &[AttrId(0), AttrId(1)], &Context::empty())
            .unwrap();
        assert!(pass.is_none());
        // but simple probes still run through the bitmaps
        assert_eq!(idx.count(&Context::of([(AttrId(0), 0)])), Some(1));
    }

    #[test]
    fn mismatched_tables_are_refused() {
        let t = table(30);
        let other = table(31);
        let idx = TableIndex::build(&t, 2).unwrap();
        assert!(idx.matches(&t));
        assert!(!idx.matches(&other));
        assert!(idx
            .counting_pass(&other, &[AttrId(0)], &Context::empty())
            .unwrap()
            .is_none());
    }

    #[test]
    fn memory_accounting_matches_the_layout() {
        let t = table(64);
        let idx = TableIndex::build(&t, 1).unwrap();
        // 64 rows = 1 word per bitmap; 3 + 2 + 4 = 9 bitmaps × 8 bytes
        assert_eq!(idx.memory_bytes(), 72);
        assert_eq!(idx.n_rows(), 64);
        assert_eq!(idx.cardinalities(), &[3, 2, 4]);
    }

    #[test]
    fn empty_tables_index_cleanly() {
        let t = table(0);
        let idx = TableIndex::build(&t, 4).unwrap();
        assert_eq!(idx.count(&Context::empty()), Some(0));
        assert_eq!(idx.count(&Context::of([(AttrId(0), 1)])), Some(0));
        let pass = idx
            .counting_pass(&t, &[AttrId(0)], &Context::empty())
            .unwrap()
            .expect("grid of 3 cells");
        assert_eq!(pass.total(), 0);
    }

    #[test]
    fn delta_counts_equal_scans_as_rows_append() {
        let t = table(150);
        let mut delta = DeltaBitmaps::new(vec![3, 2, 4]);
        let contexts = [
            Context::empty(),
            Context::of([(AttrId(0), 1)]),
            Context::of([(AttrId(0), 2), (AttrId(1), 0)]),
            Context::of([(AttrId(0), 0), (AttrId(1), 1), (AttrId(2), 3)]),
        ];
        let mut grown = Table::new(t.schema().clone());
        for r in 0..t.n_rows() {
            let row = t.row(r).unwrap();
            delta.append_row(&row).unwrap();
            grown.push_row(&row).unwrap();
            if r % 37 == 0 || r + 1 == t.n_rows() {
                for ctx in &contexts {
                    assert_eq!(
                        delta.count(ctx),
                        Some(grown.count(ctx) as u64),
                        "after {} rows, {ctx:?}",
                        r + 1
                    );
                }
            }
        }
        assert_eq!(delta.n_rows(), 150);
    }

    #[test]
    fn delta_from_table_equals_incremental_appends() {
        let t = table(101);
        let built = DeltaBitmaps::from_table(&t).unwrap();
        let mut appended = DeltaBitmaps::new(vec![3, 2, 4]);
        for row in t.rows() {
            appended.append_row(&row).unwrap();
        }
        let contexts = [
            Context::empty(),
            Context::of([(AttrId(1), 1)]),
            Context::of([(AttrId(0), 2), (AttrId(2), 1)]),
        ];
        for ctx in &contexts {
            assert_eq!(built.count(ctx), appended.count(ctx), "{ctx:?}");
            assert_eq!(built.count(ctx), Some(t.count(ctx) as u64), "{ctx:?}");
        }
    }

    #[test]
    fn delta_mirrors_the_index_edge_contract() {
        let t = table(20);
        let delta = DeltaBitmaps::from_table(&t).unwrap();
        // out-of-domain code: zero rows, exactly as a scan finds
        assert_eq!(delta.count(&Context::of([(AttrId(1), 9)])), Some(0));
        assert_eq!(
            delta.count(&Context::of([(AttrId(0), 1), (AttrId(1), 9)])),
            Some(0)
        );
        // out-of-schema attribute: defer to the caller's scan path
        assert_eq!(delta.count(&Context::of([(AttrId(7), 0)])), None);
        // malformed appends are typed errors, not silent corruption
        let mut d = DeltaBitmaps::new(vec![3, 2, 4]);
        assert!(d.append_row(&[0, 1]).is_err());
        assert!(d.append_row(&[0, 5, 0]).is_err());
        assert_eq!(d.n_rows(), 0);
        // empty deltas count zero everywhere and hold no words
        assert_eq!(d.count(&Context::empty()), Some(0));
        assert_eq!(d.memory_bytes(), 0);
    }
}
