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
//! per-shard results **in shard-index order**, on the calling thread. Counts are `u64`s and
//! the reduction is addition, so — exactly as with sharded scans — an
//! indexed result is bit-identical to the single-scan result for any
//! shard count. Whether a query runs through the index or falls back
//! to a scan can never change an answer, only its latency.
//!
//! ## Capped counts
//!
//! A support probe asks "do at least `min_support` rows match?", not
//! "how many?". [`TableIndex::count_at_most`] returns exactly
//! `min(count, cap)`: it ANDs the context's code words in blocks of 64
//! words, popcounts each block, and stops after the block that reaches
//! `cap`. A live table probes its base rows, then its appended rows'
//! index with the cap lowered by what the base found. On a 1M-row
//! table a context matching thousands of rows is settled after a block
//! or two instead of ~15,600 words per code. [`TableIndex::count`] is
//! the same loop with `cap = u64::MAX`, so capped and full counts share
//! one path. The AND and popcount are the [`tabular::bitmap`] kernels,
//! which run on the fastest instruction tier the CPU has.
//!
//! ## Joint counts
//!
//! For a categorical schema, one dense count over the full joint grid
//! of the table's attributes — the *cube* — is a sufficient statistic
//! for every grouped count. A [`TableIndex`] keeps one when that grid
//! has at most `min(`[`MAX_DENSE_GRID`]`, n_rows)` cells (65,536, the
//! grid a [`Counter`] stores densely), so it never exceeds 512 KiB and
//! counting it never costs more than one scan.
//! [`TableIndex::counting_pass`] then marginalises the cube: it keeps
//! the slice the context fixes, sums out the attributes the pass does
//! not group by, and places what is left into the pass's dense cells —
//! no bitmap is read. [`TableIndex::build`] counts the cube in the same
//! fan-out that fills the bitmaps, into one partial cube per worker;
//! [`TableIndex::extended`] counts just the new rows into a copy of its
//! cube, or counts one from the table when the grown grid first passes
//! the gate; an index decoded from bytes regains its cube from its
//! table with [`TableIndex::with_cube`]. Counts are `u64` sums, so a
//! cube pass equals a walk and a scan exactly.
//!
//! ```
//! use tabular::{Context, Counter, Domain, Schema, Table};
//! use lewis_index::TableIndex;
//!
//! let mut schema = Schema::new();
//! let color = schema.push("color", Domain::categorical(["red", "green"]));
//! let size = schema.push("size", Domain::categorical(["s", "m", "l"]));
//! let mut table = Table::new(schema);
//! for row in [[0, 0], [0, 2], [1, 1], [0, 2], [1, 2], [1, 0]] {
//!     table.push_row(&row).unwrap();
//! }
//!
//! // 2 × 3 = 6 cells and 6 rows: the index keeps a cube
//! let index = TableIndex::build(&table, 1).unwrap();
//! assert_eq!(index.cube_cells(), 6);
//!
//! // a pass answered from the cube equals the scan
//! let ctx = Context::of([(color, 1)]);
//! let passed = index.counting_pass(&table, &[size], &ctx).unwrap().unwrap();
//! let scanned = Counter::build(&table, &[size], &ctx).unwrap();
//! assert_eq!(passed.nonzero_groups(), scanned.nonzero_groups());
//!
//! // the byte format carries no cube; the table gives it back
//! let decoded = TableIndex::from_bytes(&index.to_bytes()).unwrap();
//! assert_eq!(decoded.cube_cells(), 0);
//! assert_eq!(decoded.with_cube(&table), index);
//!
//! // one row fewer than cells: no cube, and passes walk the bitmaps
//! let mut short = Table::new(table.schema().clone());
//! for r in 0..5 {
//!     short.push_row(&table.row(r).unwrap()).unwrap();
//! }
//! assert_eq!(TableIndex::build(&short, 1).unwrap().cube_cells(), 0);
//! ```
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
//! // a capped probe answers min(count, cap)
//! assert_eq!(index.count_at_most(&ctx, 1), Some(1));
//! assert_eq!(index.count_at_most(&ctx, 30), Some(2));
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
//! million rows of an 8-attribute, ~40-codes-total schema — plus 8
//! bytes per cube cell. Probes win
//! whenever the table is large and the group grid is small relative to
//! it; without a cube, [`TableIndex::counting_pass`] prices each
//! request with a deterministic cost model and returns `None` (caller
//! scans) when the grid is too large for intersections to beat one
//! sequential pass.
//!
//! ## Live tables: extended indexes and range walks
//!
//! A live table's appended rows are an index of their own, grown batch
//! by batch with [`TableIndex::extended`]: the previous words are
//! copied and only the new rows are coded, and the result equals a
//! build over all the rows. Compaction folds the appended rows into the
//! base's index the same way. A count over the live table is the base
//! index's count plus the appended index's, so every count runs the same
//! code over both.
//!
//! A cached pass is topped up with just the rows past its watermark.
//! [`TableIndex::counting_pass_range`] counts such a row range with the
//! full pass's walk: the root mask covers only the words the range
//! spans, with the bits outside the range cleared, and every code's
//! words are read through that window. A top-up of a few thousand rows
//! thus touches a few dozen words per code instead of scanning its rows
//! one by one.

mod codec;

pub use codec::IndexError;

use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use tabular::bitmap::{and_assign, and_count, and_count_multi, and_into, count_ones};
use tabular::fanout::{available_workers, fan_out, ITEM_ROWS};
use tabular::shard::shard_boundaries;
use tabular::{
    code_words, words_for, AttrId, Bitmap, Context, Counter, Table, Value, MAX_DENSE_GRID,
};

/// The indexed walk is admitted when its estimated word operations stay
/// within this factor of the scan's cell reads — biased toward the
/// index because word ops cover 64 rows each and zero-subtree pruning
/// only ever lowers the real cost below the estimate.
const COST_BIAS: u64 = 8;

/// Rows per block of [`count_cells`]: the block's cell keys live in
/// one array on the stack while the columns are added in one by one.
const CUBE_BLOCK_ROWS: usize = 256;

/// One shard's bitmaps: `attrs[a][c]` covers the shard's local rows
/// holding code `c` in attribute `a`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShardIndex {
    attrs: Vec<Vec<Bitmap>>,
}

/// Per-(attribute, code) bitmap index over a table, one bitmap set per
/// canonical row shard. See the [crate docs](crate) for the layout and
/// the determinism argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableIndex {
    n_rows: usize,
    cardinalities: Vec<u32>,
    boundaries: Vec<usize>,
    shards: Vec<ShardIndex>,
    /// The joint counts over every attribute (see [`cube_grid`]), cell
    /// `Σ code[a] × stride[a]` in row-major order; `None` past the gate.
    cube: Option<Vec<u64>>,
}

impl TableIndex {
    /// Index every attribute of `table`, one bitmap set per shard of
    /// the canonical `shard_boundaries(n_rows, n_shards)` partition
    /// (clamped like the counting engine's own sharding). Each shard's
    /// columns are split into 64-row-aligned word ranges of
    /// [`ITEM_ROWS`] rows, which [`fan_out`] fills on every core; a
    /// table under [`tabular::fanout::FANOUT_MIN_ROWS`] rows builds on
    /// the calling thread. The same fan-out counts the joint-count
    /// cube, when the grid passes its gate, into per-worker partials.
    /// The result is a pure function of the table and the shard count.
    pub fn build(table: &Table, n_shards: usize) -> tabular::Result<TableIndex> {
        let schema = table.schema();
        let mut cardinalities = Vec::with_capacity(schema.len());
        for a in schema.attr_ids() {
            cardinalities.push(schema.cardinality(a)? as u32);
        }
        build_on(
            table.columns(),
            table.n_rows(),
            cardinalities,
            n_shards,
            available_workers(),
        )
    }

    /// This index, which covers the first [`TableIndex::n_rows`] rows of
    /// `table`, extended to all of `table`'s rows: each code's words are
    /// copied and the new rows coded into them, from the start of the
    /// word the first new row lands in. The joint-count cube is kept and
    /// the new rows counted into it, or counted from `table` once the
    /// grid passes its gate, exactly as a build would. The result equals
    /// [`TableIndex::build`]`(table, 1)` word for word and cube for cube
    /// — how a live table indexes each appended batch and folds its
    /// appended rows into the base's index.
    ///
    /// `None` when the index has more than one shard (shard boundaries
    /// move with the row count, so the caller rebuilds), or `table` has
    /// fewer rows, other cardinalities or a code outside its domain.
    pub fn extended(&self, table: &Table) -> Option<TableIndex> {
        let [shard] = self.shards.as_slice() else {
            return None;
        };
        let n_rows = table.n_rows();
        if n_rows < self.n_rows || !self.same_cardinalities(table) {
            return None;
        }
        let kept = self.n_rows / 64;
        let mut attrs = Vec::with_capacity(shard.attrs.len());
        for (maps, col) in shard.attrs.iter().zip(table.columns()) {
            let mut codes: Vec<Vec<u64>> = (maps.iter())
                .map(|map| {
                    let mut words = Vec::with_capacity(words_for(n_rows));
                    words.extend_from_slice(&map.words()[..kept]);
                    words.resize(words_for(n_rows), 0);
                    words
                })
                .collect();
            let mut tails: Vec<&mut [u64]> = codes.iter_mut().map(|w| &mut w[kept..]).collect();
            code_words(&col[kept * 64..], kept * 64, &mut tails).ok()?;
            let maps = codes.into_iter().map(|w| Bitmap::from_words(w, n_rows));
            attrs.push(maps.collect::<tabular::Result<Vec<Bitmap>>>().ok()?);
        }
        let cube = cube_grid(&self.cardinalities, n_rows).map(|grid| {
            let (mut cube, from) = match &self.cube {
                Some(cube) => (cube.clone(), self.n_rows),
                None => (vec![0u64; grid], 0),
            };
            count_cells(
                table.columns(),
                &self.cardinalities,
                from..n_rows,
                &mut cube,
            );
            cube
        });
        Some(TableIndex {
            n_rows,
            cardinalities: self.cardinalities.clone(),
            boundaries: shard_boundaries(n_rows, 1),
            shards: vec![ShardIndex { attrs }],
            cube,
        })
    }

    /// This index with its joint-count cube counted from `table`, the
    /// table it indexes — how an index decoded from a pack (whose
    /// format carries no cube) regains the one its build would have
    /// made. The rows are counted on [`fan_out`] like a build's.
    /// Unchanged when the index does not match `table`.
    pub fn with_cube(mut self, table: &Table) -> TableIndex {
        if !self.matches(table) {
            return self;
        }
        self.cube = cube_grid(&self.cardinalities, self.n_rows).map(|grid| {
            let partials = Partials::new(grid);
            let ranges = row_ranges(self.n_rows).collect();
            fan_out(available_workers(), self.n_rows, ranges, |rows| {
                partials.count(table.columns(), &self.cardinalities, rows)
            });
            partials.sum()
        });
        self
    }

    /// Cells of the joint-count cube: the product of the cardinalities,
    /// or 0 when the grid is past the cube's gate (more than 65,536
    /// cells or more cells than rows) or the index
    /// was decoded and not given one ([`TableIndex::with_cube`]).
    pub fn cube_cells(&self) -> usize {
        self.cube.as_ref().map_or(0, Vec::len)
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
    /// per attribute this is `cardinality × n_rows / 8` bytes) and the
    /// joint-count cube (8 bytes a cell).
    pub fn memory_bytes(&self) -> u64 {
        let mut total = self.cube_cells() as u64 * 8;
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
        self.n_rows == table.n_rows() && self.same_cardinalities(table)
    }

    /// Whether `table`'s attributes have this index's cardinalities.
    fn same_cardinalities(&self, table: &Table) -> bool {
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
        self.count_at_most(ctx, u64::MAX)
    }

    /// [`TableIndex::count`] capped at `cap`: exactly
    /// `min(count, cap)`, with the same `None` cases. The shards are
    /// counted in order, each by blocks of 64 words (4,096 rows), and
    /// the count stops after the block that reaches `cap` — a support
    /// probe asking "at least `min_support` rows?" reads only the words
    /// it takes to see that many.
    pub fn count_at_most(&self, ctx: &Context, cap: u64) -> Option<u64> {
        if ctx
            .iter()
            .any(|(a, _)| a.index() >= self.cardinalities.len())
        {
            return None;
        }
        if ctx.is_empty() {
            return Some((self.n_rows as u64).min(cap));
        }
        let mut total = 0u64;
        let mut codes = Vec::with_capacity(ctx.len());
        for shard in &self.shards {
            codes.clear();
            for (a, v) in ctx.iter() {
                match shard.attrs[a.index()].get(v as usize) {
                    Some(bits) => codes.push(bits.words()),
                    // outside the attribute's domain: no row holds it
                    None => return Some(0),
                }
            }
            total += and_count_at_most(&codes, cap - total);
            if total == cap {
                break;
            }
        }
        Some(total)
    }

    /// A grouped counting pass through the index: group the rows
    /// matching `ctx` by `attrs`, producing a [`Counter`] bit-identical
    /// to [`Counter::build`]`(table, attrs, ctx)` (dense cells are the
    /// same `u64`s in the same mixed-radix order, assembled via
    /// [`Counter::from_dense`]).
    ///
    /// With a joint-count cube the pass marginalises it: only the cells
    /// matching the context are visited, and no bitmap is read. Without
    /// one the bitmaps are walked shard by shard, in shard order, on the
    /// calling thread.
    ///
    /// Returns `Ok(None)` when the request is better served by a scan —
    /// the group grid exceeds [`MAX_DENSE_GRID`], there is no cube
    /// and the deterministic cost estimate says intersections would
    /// visit more words than the scan visits cells, or an attribute is
    /// outside the indexed schema. The decision is a pure function of
    /// the grid and row count, and every path returns identical
    /// counters, so routing can never change an answer.
    pub fn counting_pass(
        &self,
        table: &Table,
        attrs: &[AttrId],
        ctx: &Context,
    ) -> tabular::Result<Option<Counter>> {
        if !self.matches(table) {
            return Ok(None);
        }
        let Some(plan) = Plan::new(&self.cardinalities, attrs, ctx) else {
            return Ok(None);
        };
        let counts = match &self.cube {
            Some(cube) => plan.marginalise(&self.cardinalities, cube),
            None if !plan.walk_is_cheaper(self.n_rows, words_for(self.n_rows)) => return Ok(None),
            // Every row of a shard is in the pass: the walk starts from
            // the shard's whole code bitmaps, with no root mask to build.
            None => {
                let mut counts = vec![0u64; plan.grid as usize];
                for (shard, b) in self.shards.iter().zip(self.boundaries.windows(2)) {
                    plan.walk(&shard.attrs, Root::All((b[1] - b[0]) as u64), &mut counts);
                }
                counts
            }
        };
        Counter::from_dense(table, attrs, counts).map(Some)
    }

    /// [`TableIndex::counting_pass`] over the rows `rows` of the indexed
    /// table only — the top-up of a live table's cached pass with the
    /// rows past its watermark. The result is bit-identical to
    /// [`Counter::build_range`] over the same rows.
    ///
    /// The pass is one range-restricted popcount walk: a root mask over
    /// the words the range spans, edge bits cleared, ANDed with the
    /// context's code words, then intersected down the grid exactly like
    /// a full pass.
    ///
    /// Returns `Ok(None)` (the caller scans) on everything
    /// [`TableIndex::counting_pass`] declines, when the index has more
    /// than one shard, or when the range does not fit. The cost gate
    /// prices the range's rows and words only, so the routing is a pure
    /// function of the request.
    pub fn counting_pass_range(
        &self,
        table: &Table,
        rows: Range<usize>,
        attrs: &[AttrId],
        ctx: &Context,
    ) -> tabular::Result<Option<Counter>> {
        let [shard] = self.shards.as_slice() else {
            return Ok(None);
        };
        if !self.matches(table) || rows.start > rows.end || rows.end > self.n_rows {
            return Ok(None);
        }
        let Some(plan) = Plan::new(&self.cardinalities, attrs, ctx) else {
            return Ok(None);
        };
        if !plan.walk_is_cheaper(rows.len(), word_span(&rows).len()) {
            return Ok(None);
        }
        let mut counts = vec![0u64; plan.grid as usize];
        plan.walk_range(&shard.attrs, rows, &mut counts);
        Counter::from_dense(table, attrs, counts).map(Some)
    }
}

/// [`TableIndex::build`] over the `n_rows` rows of `columns` with the
/// given cardinalities, on at most `workers` threads. The index does
/// not depend on `workers`; an out-of-domain code is the error of the
/// first item (in shard, attribute, row order) that holds one.
fn build_on(
    columns: &[Vec<Value>],
    n_rows: usize,
    cardinalities: Vec<u32>,
    n_shards: usize,
    workers: usize,
) -> tabular::Result<TableIndex> {
    let boundaries = shard_boundaries(n_rows, n_shards);
    // words[shard][attr][code]
    let mut words: Vec<Vec<Vec<Vec<u64>>>> = boundaries
        .windows(2)
        .map(|b| {
            let n_words = words_for(b[1] - b[0]);
            cardinalities
                .iter()
                .map(|&card| (0..card).map(|_| vec![0u64; n_words]).collect())
                .collect()
        })
        .collect();
    let mut items = Vec::new();
    for (b, shard) in boundaries.windows(2).zip(&mut words) {
        for (col, codes) in columns.iter().zip(shard.iter_mut()) {
            let col = &col[b[0]..b[1]];
            let mut ranges: Vec<_> = col
                .chunks(ITEM_ROWS)
                .enumerate()
                .map(|(i, rows)| (i * ITEM_ROWS, rows, Vec::with_capacity(codes.len())))
                .collect();
            for code in codes.iter_mut() {
                for (range, w) in ranges.iter_mut().zip(code.chunks_mut(ITEM_ROWS / 64)) {
                    range.2.push(w);
                }
            }
            items.extend(
                ranges
                    .into_iter()
                    .map(|(first, col, out)| Item::Words(first, col, out)),
            );
        }
    }
    let partials = cube_grid(&cardinalities, n_rows).map(Partials::new);
    if partials.is_some() {
        items.extend(row_ranges(n_rows).map(Item::Cells));
    }
    fan_out(workers, n_rows, items, |item| match item {
        Item::Words(first_row, col, mut out) => code_words(col, first_row, &mut out),
        Item::Cells(rows) => {
            if let Some(partials) = &partials {
                partials.count(columns, &cardinalities, rows);
            }
            Ok(())
        }
    })
    .into_iter()
    .collect::<tabular::Result<()>>()?;
    let mut shards = Vec::with_capacity(words.len());
    for (b, shard) in boundaries.windows(2).zip(words) {
        let mut attrs = Vec::with_capacity(shard.len());
        for codes in shard {
            let maps = codes
                .into_iter()
                .map(|w| Bitmap::from_words(w, b[1] - b[0]));
            attrs.push(maps.collect::<tabular::Result<Vec<Bitmap>>>()?);
        }
        shards.push(ShardIndex { attrs });
    }
    Ok(TableIndex {
        n_rows,
        cardinalities,
        boundaries,
        shards,
        cube: partials.map(Partials::sum),
    })
}

/// One item of an index build's fan-out.
enum Item<'a> {
    /// The rows of one shard's column from its local row `first_row`
    /// on, coded into their slices of that shard's code words.
    Words(usize, &'a [Value], Vec<&'a mut [u64]>),
    /// These rows of every column, counted into a partial cube.
    Cells(Range<usize>),
}

/// `0..n_rows` cut into [`ITEM_ROWS`]-row ranges.
fn row_ranges(n_rows: usize) -> impl Iterator<Item = Range<usize>> {
    (0..n_rows)
        .step_by(ITEM_ROWS)
        .map(move |r| r..n_rows.min(r + ITEM_ROWS))
}

/// Cells of the joint grid over `cardinalities` when an index of
/// `n_rows` rows keeps a cube of them: at most [`MAX_DENSE_GRID`], so
/// a cube never exceeds 512 KiB, and at most `n_rows`, so counting it
/// costs no more than one scan and it never outweighs the table.
fn cube_grid(cardinalities: &[u32], n_rows: usize) -> Option<usize> {
    let grid = (cardinalities.iter()).try_fold(1u64, |g, &c| g.checked_mul(u64::from(c)))?;
    (1..=MAX_DENSE_GRID.min(n_rows as u64))
        .contains(&grid)
        .then_some(grid as usize)
}

/// Add the rows `rows` of `columns` to `cube`, [`CUBE_BLOCK_ROWS`] rows
/// at a time: a block's cell keys are built column by column on the
/// stack (`key × cardinality + code`, so the last attribute varies
/// fastest, as in a [`Counter`]), then each key's cell is bumped.
fn count_cells(
    columns: &[Vec<Value>],
    cardinalities: &[u32],
    rows: Range<usize>,
    cube: &mut [u64],
) {
    let mut keys = [0u32; CUBE_BLOCK_ROWS];
    for start in rows.clone().step_by(CUBE_BLOCK_ROWS) {
        let block = start..rows.end.min(start + CUBE_BLOCK_ROWS);
        let keys = &mut keys[..block.len()];
        keys.fill(0);
        for (col, &card) in columns.iter().zip(cardinalities) {
            for (key, &code) in keys.iter_mut().zip(&col[block.clone()]) {
                *key = key.wrapping_mul(card).wrapping_add(code);
            }
        }
        // A code outside its domain (the build reports it as an error
        // from the words items) may key past the grid: skip it.
        for &key in keys.iter() {
            if let Some(cell) = cube.get_mut(key as usize) {
                *cell += 1;
            }
        }
    }
}

/// `cube += other`, cell by cell.
fn add_cells(cube: &mut [u64], other: &[u64]) {
    for (cell, &n) in cube.iter_mut().zip(other) {
        *cell += n;
    }
}

/// `cells`, row-major over `axes`, with axis `p` taken out of `axes`
/// and of the cells: only the slice at `code` kept, or, for `None`,
/// the slices summed.
fn contract(
    cells: &[u64],
    axes: &mut Vec<(usize, usize)>,
    p: usize,
    code: Option<usize>,
) -> Vec<u64> {
    let (_, card) = axes.remove(p);
    let inner: usize = axes[p..].iter().map(|&(_, c)| c).product();
    let mut out = vec![0u64; cells.len() / card];
    for (dst, src) in out
        .chunks_exact_mut(inner)
        .zip(cells.chunks_exact(inner * card))
    {
        match code {
            Some(code) => dst.copy_from_slice(&src[code * inner..(code + 1) * inner]),
            None if inner == 1 => dst[0] = src.iter().sum(),
            None => src
                .chunks_exact(inner)
                .for_each(|slice| add_cells(dst, slice)),
        }
    }
    out
}

/// The per-worker partial cubes of one fan-out. An item takes a partial
/// no other thread holds (or starts one), counts its rows into it and
/// hands it back, so a fan-out holds at most one partial per thread.
/// The cube is their sum: `u64` addition, whichever rows each holds.
struct Partials {
    grid: usize,
    free: Mutex<Vec<Vec<u64>>>,
}

impl Partials {
    fn new(grid: usize) -> Partials {
        Partials {
            grid,
            free: Mutex::new(Vec::new()),
        }
    }

    fn count(&self, columns: &[Vec<Value>], cardinalities: &[u32], rows: Range<usize>) {
        let free = || self.free.lock().unwrap_or_else(PoisonError::into_inner);
        let taken = free().pop();
        let mut cube = taken.unwrap_or_else(|| vec![0u64; self.grid]);
        count_cells(columns, cardinalities, rows, &mut cube);
        free().push(cube);
    }

    fn sum(self) -> Vec<u64> {
        let free = self
            .free
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let mut partials = free.into_iter();
        let mut cube = partials.next().unwrap_or_else(|| vec![0u64; self.grid]);
        partials.for_each(|partial| add_cells(&mut cube, &partial));
        cube
    }
}

/// The words `rows` touches: `rows.start / 64 .. ceil(rows.end / 64)`.
fn word_span(rows: &Range<usize>) -> Range<usize> {
    if rows.is_empty() {
        return 0..0;
    }
    rows.start / 64..words_for(rows.end)
}

/// Words per block of [`and_count_at_most`]: 512 bytes of each code,
/// so a block of five codes and the running mask stay in L1.
const BLOCK_WORDS: usize = 64;

/// `min(popcount(codes[0] & codes[1] & …), cap)`, the one loop every
/// support count runs. Blocks of [`BLOCK_WORDS`] words are ANDed into a
/// stack mask and popcounted, and the loop stops once `cap` is reached.
/// Words past the end of the shortest slice read as zero; no codes
/// count zero.
fn and_count_at_most(codes: &[&[u64]], cap: u64) -> u64 {
    let n_words = codes.iter().map(|c| c.len()).min().unwrap_or(0);
    let mut scratch = [0u64; BLOCK_WORDS];
    let mut total = 0u64;
    for start in (0..n_words).step_by(BLOCK_WORDS) {
        if total >= cap {
            break;
        }
        let block = start..n_words.min(start + BLOCK_WORDS);
        total += match codes {
            [] => 0,
            [a] => count_ones(&a[block]),
            [a, b] => and_count(&a[block.clone()], &b[block]),
            [a, mid @ .., z] => {
                let mask = &mut scratch[..block.len()];
                mask.copy_from_slice(&a[block.clone()]);
                for m in mid {
                    and_assign(mask, &m[block.clone()]);
                }
                and_count(mask, &z[block])
            }
        };
    }
    total.min(cap)
}

/// `mask` ANDed with every code in turn, or `None` once it is empty or
/// a code is missing (outside its attribute's domain: no row holds it).
fn fold<'a>(
    mut mask: Vec<u64>,
    codes: impl Iterator<Item = Option<&'a [u64]>>,
) -> Option<Vec<u64>> {
    for code in codes {
        and_assign(&mut mask, code?);
        if mask.iter().all(|&w| w == 0) {
            return None;
        }
    }
    Some(mask)
}

/// Where a walk starts.
enum Root {
    /// Every row the code words cover — this many. Each row holds
    /// exactly one code per attribute.
    All(u64),
    /// The rows set in this mask, a subset of the covered rows.
    Mask(Vec<u64>),
}

/// A grouped counting request resolved against an indexed schema: the
/// grouped attributes' positions and mixed-radix strides (row-major,
/// exactly as [`Counter::build`]) and the context's `(attribute, code)`
/// pairs.
struct Plan {
    attrs: Vec<usize>,
    radices: Vec<u64>,
    strides: Vec<u64>,
    ctx: Vec<(usize, usize)>,
    grid: u64,
}

impl Plan {
    /// `None` when an attribute is outside the indexed schema, or the
    /// grid overflows or exceeds [`MAX_DENSE_GRID`]: the scan serves
    /// (or reports) those.
    fn new(cardinalities: &[u32], attrs: &[AttrId], ctx: &Context) -> Option<Plan> {
        let radix = |a: AttrId| cardinalities.get(a.index()).map(|&c| u64::from(c));
        let radices = attrs
            .iter()
            .map(|&a| radix(a))
            .collect::<Option<Vec<_>>>()?;
        let mut strides = vec![1u64; radices.len()];
        let mut grid: u64 = 1;
        for i in (0..radices.len()).rev() {
            strides[i] = grid;
            grid = grid.checked_mul(radices[i])?;
        }
        if grid > MAX_DENSE_GRID {
            return None;
        }
        let mut pairs = Vec::new();
        for (a, v) in ctx.iter() {
            radix(a)?;
            pairs.push((a.index(), v as usize));
        }
        Some(Plan {
            attrs: attrs.iter().map(|a| a.index()).collect(),
            radices,
            strides,
            ctx: pairs,
            grid,
        })
    }

    /// Deterministic cost gate: estimated word operations of the
    /// pruned intersection walk (`Σ_d min(∏radices[..d], rows) ×
    /// radices[d]` grid visits, each touching `words` words) versus
    /// the scan's `rows × attrs` cell reads, biased by [`COST_BIAS`].
    fn walk_is_cheaper(&self, rows: usize, words: usize) -> bool {
        let rows = rows as u64;
        let mut visits: u64 = 0;
        let mut prefix: u64 = 1;
        for &r in &self.radices {
            visits = visits.saturating_add(prefix.min(rows).saturating_mul(r));
            prefix = prefix.saturating_mul(r);
        }
        let index_cost = visits.saturating_mul(words as u64);
        let scan_cost = rows.saturating_mul(self.radices.len().max(1) as u64);
        index_cost <= scan_cost.saturating_mul(COST_BIAS)
    }

    /// The pass's dense counts summed out of `cube`, the joint counts
    /// over every attribute of `cardinalities`. The cube is cut down one
    /// axis at a time ([`contract`]): first to the slice the context
    /// fixes, then summed over each attribute no group holds. What is
    /// left covers the grouped attributes in schema order, and an
    /// odometer adds each of its cells to its group's cell. An attribute
    /// steps the group key by the strides of every position it is
    /// grouped at, so a repeated grouped attribute lands on the cells a
    /// scan fills.
    fn marginalise(&self, cardinalities: &[u32], cube: &[u64]) -> Vec<u64> {
        let mut counts = vec![0u64; self.grid as usize];
        let mut key_step = vec![0usize; cardinalities.len()];
        for (&a, &stride) in self.attrs.iter().zip(&self.strides) {
            key_step[a] += stride as usize;
        }
        // (attribute, cardinality) of each axis of `cells`, row-major
        let mut axes: Vec<(usize, usize)> = (cardinalities.iter().enumerate())
            .map(|(a, &card)| (a, card as usize))
            .collect();
        let mut cells = Cow::Borrowed(cube);
        let mut key = 0usize;
        for &(a, code) in &self.ctx {
            let Some(p) = axes.iter().position(|&(b, _)| b == a) else {
                continue;
            };
            if code >= axes[p].1 {
                return counts; // outside the attribute's domain: no row holds it
            }
            key += code * key_step[a];
            cells = Cow::Owned(contract(&cells, &mut axes, p, Some(code)));
        }
        while let Some(p) = axes.iter().position(|&(a, _)| key_step[a] == 0) {
            cells = Cow::Owned(contract(&cells, &mut axes, p, None));
        }
        let Some((&(last, last_card), outer)) = axes.split_last() else {
            counts[key] += cells[0];
            return counts;
        };
        let mut digits = vec![0usize; outer.len()];
        for block in cells.chunks_exact(last_card) {
            let mut k = key;
            for &n in block {
                counts[k] += n;
                k += key_step[last];
            }
            for (digit, &(a, card)) in digits.iter_mut().zip(outer).rev() {
                *digit += 1;
                key += key_step[a];
                if *digit < card {
                    break;
                }
                *digit = 0;
                key -= card * key_step[a];
            }
        }
        counts
    }

    /// Count `rows` of one shard's bitmaps (`attrs[a][c]`: code `c` of
    /// attribute `a`) into `counts`, reading each code through the
    /// window of words `rows` spans.
    fn walk_range(&self, attrs: &[Vec<Bitmap>], rows: Range<usize>, counts: &mut [u64]) {
        if rows.is_empty() {
            return;
        }
        let span = word_span(&rows);
        let cols: Vec<Vec<&[u64]>> = (attrs.iter())
            .map(|codes| codes.iter().map(|b| &b.words()[span.clone()]).collect())
            .collect();
        // The root: every row of the range, edge bits cleared.
        let mut mask = vec![u64::MAX; span.len()];
        mask[0] &= u64::MAX << (rows.start % 64);
        mask[span.len() - 1] &= u64::MAX >> ((64 - rows.end % 64) % 64);
        self.walk(&cols, Root::Mask(mask), counts);
    }

    /// Count the rows of `root` matching the context into `counts`.
    fn walk<W: AsRef<[u64]>>(&self, cols: &[Vec<W>], root: Root, counts: &mut [u64]) {
        let code = |&(a, c): &(usize, usize)| cols[a].get(c).map(W::as_ref);
        // Fold the context into a root mask: a one-attribute context
        // over every row borrows its code words outright, otherwise an
        // owned mask ANDs each code in.
        let mask = match (root, self.ctx.split_first()) {
            (Root::All(rows), None) => return self.walk_all(cols, rows, counts),
            (Root::All(_), Some((first, []))) => code(first).map(Cow::Borrowed),
            (Root::All(_), Some((first, rest))) => code(first)
                .and_then(|w| fold(w.to_vec(), rest.iter().map(code)))
                .map(Cow::Owned),
            (Root::Mask(mask), _) => fold(mask, self.ctx.iter().map(code)).map(Cow::Owned),
        };
        let Some(mask) = mask else {
            return;
        };
        let n = count_ones(&mask);
        if n == 0 {
            return;
        }
        let walk = Walk { plan: self, cols };
        let mut scratch = walk.scratch(mask.len());
        walk.descend(&mask, n, 0, 0, counts, &mut scratch);
    }

    /// An unconstrained walk over every row: the first grouped
    /// attribute's code words partition the rows, so each serves
    /// directly as a root mask — no all-ones base and no depth-0 AND
    /// pass at all. The last code's popcount is whatever the others
    /// leave.
    fn walk_all<W: AsRef<[u64]>>(&self, cols: &[Vec<W>], rows: u64, counts: &mut [u64]) {
        let Some(&first) = self.attrs.first() else {
            counts[0] += rows;
            return;
        };
        let maps = &cols[first];
        let walk = Walk { plan: self, cols };
        let mut scratch = walk.scratch(maps.first().map_or(0, |w| w.as_ref().len()));
        let mut remaining = rows;
        for (code, b) in maps.iter().enumerate() {
            let last = code + 1 == maps.len();
            let b = b.as_ref();
            let n = if last { remaining } else { count_ones(b) };
            if n == 0 {
                continue;
            }
            if !last {
                remaining -= n;
            }
            let key = code as u64 * self.strides[0];
            walk.descend(b, n, 1, key, counts, &mut scratch);
        }
    }
}

/// One grid walk over one run of code words.
struct Walk<'p, W> {
    plan: &'p Plan,
    cols: &'p [Vec<W>],
}

impl<W: AsRef<[u64]>> Walk<'_, W> {
    /// One scratch mask of `n_words` per inner depth: inner nodes
    /// intersect via the fused single-pass [`and_into`], while the last
    /// two levels run through [`and_count_multi`] and [`and_count`]
    /// without materializing a mask, so only depths up to `len - 3`
    /// need scratch.
    fn scratch(&self, n_words: usize) -> Vec<Vec<u64>> {
        let inner_depths = self.plan.attrs.len().saturating_sub(2);
        (0..inner_depths).map(|_| vec![0u64; n_words]).collect()
    }

    /// Recursive prefix intersection: at each depth, intersect the
    /// running mask with each code of the next grouped attribute,
    /// pruning empty subtrees; leaves popcount straight into their
    /// mixed-radix cell. `mask_count` is `mask`'s popcount, which every
    /// caller already knows — the leaf level spends it on the partition
    /// identity below instead of recounting.
    fn descend(
        &self,
        mask: &[u64],
        mask_count: u64,
        depth: usize,
        key_base: u64,
        counts: &mut [u64],
        scratch: &mut [Vec<u64>],
    ) {
        let (attrs, strides) = (&self.plan.attrs, &self.plan.strides);
        if depth == attrs.len() {
            counts[key_base as usize] += mask_count;
            return;
        }
        let maps = &self.cols[attrs[depth]];
        if depth + 1 == attrs.len() {
            // Last level: the attribute's codes partition the rows, so
            // the final code's popcount is the mask total minus the
            // others — one fewer AND pass per leaf group, and no
            // intersections are ever materialized.
            let Some((_, head)) = maps.split_last() else {
                return;
            };
            let mut remaining = mask_count;
            for (code, b) in head.iter().enumerate() {
                let n = and_count(mask, b.as_ref());
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
        if depth + 2 == attrs.len() {
            // Second-to-last level: one fused pass per code computes the
            // node's popcount *and* every leaf cell under it — nothing
            // is materialized, and the leaf partition identity fills the
            // final cell.
            let leaf_maps = &self.cols[attrs[depth + 1]];
            let Some((_, leaf_head)) = leaf_maps.split_last() else {
                return;
            };
            let last_leaf = (leaf_maps.len() - 1) as u64;
            let mut leaf_counts = vec![0u64; leaf_head.len()];
            for (code, b) in maps.iter().enumerate() {
                let n = and_count_multi(mask, b.as_ref(), leaf_head, &mut leaf_counts);
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
            .expect("Walk::scratch allocates one mask per inner depth");
        for (code, b) in maps.iter().enumerate() {
            let n = and_into(mask, b.as_ref(), sub);
            if n == 0 {
                continue;
            }
            let key = key_base + code as u64 * strides[depth];
            self.descend(sub, n, depth + 1, key, counts, rest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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
        // 300 × 300 = 90 000 cells > MAX_DENSE_GRID: the index declines
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
        // 64 rows = 1 word per bitmap; 3 + 2 + 4 = 9 bitmaps × 8 bytes,
        // plus a cube of 3 × 2 × 4 = 24 cells × 8 bytes
        assert_eq!(idx.cube_cells(), 24);
        assert_eq!(idx.memory_bytes(), 72 + 192);
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

    /// The first `n` rows of `t`.
    fn prefix(t: &Table, n: usize) -> Table {
        t.select(&(0..n).collect::<Vec<_>>()).unwrap()
    }

    /// An index over `t` grown from an index over its first `start`
    /// rows by [`TableIndex::extended`], one batch of `batches` at a
    /// time, cycling through them until every row is in.
    fn grown(t: &Table, start: usize, batches: &[usize]) -> TableIndex {
        let mut index = TableIndex::build(&prefix(t, start), 1).unwrap();
        for &batch in batches.iter().cycle() {
            if index.n_rows() == t.n_rows() {
                break;
            }
            let rows = t.n_rows().min(index.n_rows() + batch);
            index = index.extended(&prefix(t, rows)).expect("one shard");
        }
        index
    }

    #[test]
    fn extended_counts_equal_scans_as_batches_append() {
        let t = table(150);
        let contexts = [
            Context::empty(),
            Context::of([(AttrId(0), 1)]),
            Context::of([(AttrId(0), 2), (AttrId(1), 0)]),
            Context::of([(AttrId(0), 0), (AttrId(1), 1), (AttrId(2), 3)]),
        ];
        let mut index = TableIndex::build(&table(0), 1).unwrap();
        for (r, batch) in [1, 36, 1, 63, 1, 48].into_iter().enumerate() {
            let grown = prefix(&t, index.n_rows() + batch);
            index = index.extended(&grown).unwrap();
            for ctx in &contexts {
                let want = Some(grown.count(ctx) as u64);
                assert_eq!(index.count(ctx), want, "batch #{r}, {ctx:?}");
            }
        }
        assert_eq!(index.n_rows(), 150);
    }

    #[test]
    fn extended_indexes_keep_the_index_edge_contract() {
        let t = table(20);
        let index = grown(&t, 0, &[7]);
        // out-of-domain code: zero rows, exactly as a scan finds
        assert_eq!(index.count(&Context::of([(AttrId(1), 9)])), Some(0));
        assert_eq!(
            index.count(&Context::of([(AttrId(0), 1), (AttrId(1), 9)])),
            Some(0)
        );
        // out-of-schema attribute: defer to the caller's scan path
        assert_eq!(index.count(&Context::of([(AttrId(7), 0)])), None);
        // a table of fewer rows or other cardinalities is not an
        // extension; a sharded index moves its boundaries: the caller
        // rebuilds
        assert_eq!(index.extended(&table(19)), None);
        let mut s = Schema::new();
        s.push("a", Domain::categorical(["0", "1", "2"]));
        s.push("b", Domain::categorical(["0", "1"]));
        assert_eq!(index.extended(&Table::new(s)), None);
        let sharded = TableIndex::build(&t, 2).unwrap();
        assert_eq!(sharded.extended(&table(30)), None);
        // an empty index counts zero everywhere and holds no words
        let empty = TableIndex::build(&table(0), 1).unwrap();
        let empty = empty.extended(&table(0)).unwrap();
        assert_eq!(empty.count(&Context::empty()), Some(0));
        assert_eq!(empty.memory_bytes(), 0);
    }

    /// A table over `a` (3 codes), `b` (2) and `wide` (`wide` codes),
    /// whose rows hold codes from `0..max` of each attribute only, so
    /// the codes above stay absent.
    fn random_table(rng: &mut StdRng, n: usize, wide: u32, max: [u32; 3]) -> Table {
        let mut s = Schema::new();
        s.push("a", Domain::categorical(["0", "1", "2"]));
        s.push("b", Domain::categorical(["0", "1"]));
        s.push(
            "wide",
            Domain::categorical((0..wide).map(|i| i.to_string())),
        );
        let mut t = Table::new(s);
        for _ in 0..n {
            let row = max.map(|m| rng.gen_range(0..m));
            t.push_row(&row).unwrap();
        }
        t
    }

    /// `Counter` equality the way the engine sees it.
    fn assert_same(got: &Counter, want: &Counter, what: &str) {
        assert_eq!(got.total(), want.total(), "{what}");
        assert_eq!(got.nonzero_groups(), want.nonzero_groups(), "{what}");
    }

    #[test]
    fn range_walks_cover_the_edges_of_words() {
        let mut rng = StdRng::seed_from_u64(7);
        let base = random_table(&mut rng, 200, 5, [3, 2, 5]);
        // a = 0 and wide ∈ {0, 1} occur only in the first 10 rows, and
        // wide ≥ 2 only after them: the ranges past row 10 walk codes
        // whose words are all zero there
        let mut skewed = random_table(&mut rng, 10, 5, [3, 2, 2]);
        for row in random_table(&mut rng, 190, 5, [3, 2, 5]).rows() {
            skewed
                .push_row(&[row[0].max(1), row[1], row[2].max(2)])
                .unwrap();
        }
        let ranges = [
            0..0,
            5..5,
            0..1,
            63..64,
            64..65,
            63..65,
            1..200,
            0..200,
            130..131,
            199..200,
        ];
        let groupings: &[&[AttrId]] = &[
            &[],
            &[AttrId(0)],
            &[AttrId(2), AttrId(1)],
            &[AttrId(1), AttrId(2), AttrId(0)],
        ];
        let contexts = [
            Context::empty(),
            Context::of([(AttrId(0), 0)]),
            Context::of([(AttrId(1), 1), (AttrId(2), 1)]),
            Context::of([(AttrId(2), 9)]), // out of domain: nothing
            Context::of([(AttrId(0), 1), (AttrId(1), 7)]),
        ];
        // a built index, and one grown batch by batch from row 10
        for (t, index) in [
            (&base, TableIndex::build(&base, 1).unwrap()),
            (&skewed, grown(&skewed, 10, &[1, 63, 65])),
        ] {
            for rows in &ranges {
                for attrs in groupings {
                    for ctx in &contexts {
                        let what = format!("{rows:?}, {attrs:?}, {ctx:?}");
                        let walked = index
                            .counting_pass_range(t, rows.clone(), attrs, ctx)
                            .unwrap()
                            .expect("small grids walk");
                        let want = Counter::build_range(t, attrs, ctx, rows.clone()).unwrap();
                        assert_same(&walked, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn range_walks_decline_past_the_gate_and_for_sharded_or_foreign_inputs() {
        let mut rng = StdRng::seed_from_u64(11);
        let base = random_table(&mut rng, 300, 60, [3, 2, 60]);
        let index = TableIndex::build(&base, 1).unwrap();
        let wide = [AttrId(2), AttrId(0), AttrId(1)];
        let ctx = Context::empty();
        // 360 cells over a single row: the scan is cheaper
        let one = index.counting_pass_range(&base, 100..101, &wide, &ctx);
        assert!(one.unwrap().is_none());
        // the same grid over every row walks
        let all = index
            .counting_pass_range(&base, 0..300, &wide, &ctx)
            .unwrap();
        assert_same(
            &all.expect("walks"),
            &Counter::build(&base, &wide, &ctx).unwrap(),
            "all",
        );
        // a sharded index, an out-of-range window and a foreign table decline
        let sharded = TableIndex::build(&base, 2).unwrap();
        let pass = sharded.counting_pass_range(&base, 0..10, &[AttrId(0)], &ctx);
        assert!(pass.unwrap().is_none());
        let pass = index.counting_pass_range(&base, 0..301, &[AttrId(0)], &ctx);
        assert!(pass.unwrap().is_none());
        let pass = index.counting_pass_range(&table(300), 0..10, &[AttrId(0)], &ctx);
        assert!(pass.unwrap().is_none());
        let pass = index.counting_pass_range(&base, 0..10, &[AttrId(7)], &ctx);
        assert!(
            pass.unwrap().is_none(),
            "an unknown attribute is the scan's error to report"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The range walk over an index grown batch by batch equals
        /// `Counter::build_range` over the same rows — or declines,
        /// exactly when its cost gate says the scan is cheaper.
        #[test]
        fn range_walks_equal_range_scans(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let wide = rng.gen_range(2..40u32);
            let n_base = rng.gen_range(0..260usize);
            let n_rows = n_base + rng.gen_range(0..260usize);
            let mut t = random_table(&mut rng, n_base, wide, [3, 2, wide]);
            let max = [rng.gen_range(1..=3), 2, rng.gen_range(1..=wide)];
            for row in random_table(&mut rng, n_rows - n_base, wide, max).rows() {
                t.push_row(&row).unwrap();
            }
            let batch = rng.gen_range(1..100usize);
            let index = grown(&t, n_base, &[batch]);
            let from = rng.gen_range(0..=n_rows);
            let to = if seed % 3 == 0 { rng.gen_range(from..=n_rows) } else { n_rows };
            let mut attrs: Vec<AttrId> = (0..3).map(AttrId).filter(|_| rng.gen_bool(0.6)).collect();
            if rng.gen_bool(0.5) {
                attrs.reverse();
            }
            let cards = [3u32, 2, wide];
            let mut pairs = Vec::new();
            for a in 0..3u32 {
                if rng.gen_bool(0.3) {
                    // now and then a code outside the domain
                    pairs.push((AttrId(a), rng.gen_range(0..cards[a as usize] + 1)));
                }
            }
            let ctx = Context::of(pairs);
            let walked = index.counting_pass_range(&t, from..to, &attrs, &ctx).unwrap();
            let plan = Plan::new(index.cardinalities(), &attrs, &ctx).unwrap();
            let words = word_span(&(from..to)).len();
            prop_assert_eq!(walked.is_some(), plan.walk_is_cheaper(to - from, words));
            if let Some(walked) = walked {
                let want = Counter::build_range(&t, &attrs, &ctx, from..to).unwrap();
                prop_assert_eq!(walked.total(), want.total());
                prop_assert_eq!(walked.nonzero_groups(), want.nonzero_groups());
            }
        }

        /// An index extended batch by batch equals a build over all the
        /// rows, word for word and cube for cube: from bases at and
        /// around word and 64-word-block edges, in batches that end on
        /// and off a word, with a joint grid that the rows cross, reach
        /// or never reach.
        #[test]
        fn extended_indexes_equal_builds_over_the_concatenated_table(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let bases = [0usize, 1, 63, 64, 65, 4095, 4096, 4097];
            let sizes = [1usize, 63, 64, 65, 256];
            let n_base = bases[rng.gen_range(0..bases.len())];
            let batches: Vec<usize> =
                (0..rng.gen_range(1..=3)).map(|_| sizes[rng.gen_range(0..sizes.len())]).collect();
            let n_rows = n_base + batches.iter().sum::<usize>();
            // the grid is 6 × wide cells: past the last row count, at
            // most the base's, or crossed by one of the batches
            let (lo, hi) = (n_base / 6, n_rows / 6);
            let wide = match seed % 3 {
                0 => hi + 1 + rng.gen_range(0..8usize),
                1 => lo.saturating_sub(rng.gen_range(0..8usize)).max(1),
                _ if lo < hi => rng.gen_range(lo + 1..=hi),
                _ => hi + 1,
            } as u32;
            let t = random_table(&mut rng, n_rows, wide, [3, 2, wide]);
            let mut index = TableIndex::build(&prefix(&t, n_base), 1).unwrap();
            let mut rows = n_base;
            for &batch in &batches {
                rows += batch;
                let upto = prefix(&t, rows);
                index = index.extended(&upto).unwrap();
                let rebuilt = TableIndex::build(&upto, 1).unwrap();
                prop_assert_eq!(index.cube_cells(), rebuilt.cube_cells());
                prop_assert!(index == rebuilt, "{} + {:?} rows, {} codes", n_base, batches, wide);
            }
        }
    }

    /// `rows` rows over attributes of cardinalities `cards`, each code
    /// drawn at random, plus every code of every attribute at least
    /// once when there are rows enough.
    fn table_over(rng: &mut StdRng, rows: usize, cards: &[u32]) -> Table {
        let mut s = Schema::new();
        for (a, &card) in cards.iter().enumerate() {
            s.push(
                a.to_string(),
                Domain::categorical((0..card).map(|i| i.to_string())),
            );
        }
        let columns = cards
            .iter()
            .map(|&card| {
                (0..rows)
                    .map(|r| match (r as u32) < card {
                        true => r as u32,
                        false => rng.gen_range(0..card),
                    })
                    .collect()
            })
            .collect();
        Table::from_columns(s, columns).unwrap()
    }

    #[test]
    fn cube_passes_equal_scans_on_both_sides_of_the_gate_on_any_shard_and_worker_count() {
        let mut rng = StdRng::seed_from_u64(29);
        let m = tabular::fanout::FANOUT_MIN_ROWS;
        // (cardinalities, rows): grid = rows keeps a cube and grid =
        // rows + 1 does not; the fan-out sizes run cube items on 1–3
        // workers, the last one over several row ranges
        let cases: [(&[u32], usize); 6] = [
            (&[3, 2, 4], 24),
            (&[3, 2, 4], 23),
            (&[2, 64, 64], m),
            (&[2, 64, 64], m - 1),
            (&[3, 2, 5, 2], 2 * ITEM_ROWS + 5),
            (&[1], 1),
        ];
        for (cards, rows) in cases {
            let t = table_over(&mut rng, rows, cards);
            let grid: usize = cards.iter().map(|&c| c as usize).product();
            let n = cards.len() as u32;
            let last = AttrId(n - 1);
            let groupings: Vec<Vec<AttrId>> = vec![
                vec![],
                vec![last],
                vec![last, AttrId(0)],
                (0..n).map(AttrId).collect(),
                vec![AttrId(0), last, AttrId(0)], // a repeated grouped attribute
            ];
            let contexts = [
                Context::empty(),
                Context::of([(AttrId(0), 0)]), // fixes a grouped attribute
                Context::of([(last, 1.min(cards[n as usize - 1] - 1))]),
                Context::of([(AttrId(0), 0), (last, 0)]),
                Context::of([(last, cards[n as usize - 1])]), // out of domain
            ];
            for n_shards in 1..=3 {
                for workers in 1..=3 {
                    let index =
                        build_on(t.columns(), rows, cards.to_vec(), n_shards, workers).unwrap();
                    let what =
                        format!("{cards:?} × {rows} rows, {n_shards} shards, {workers} workers");
                    assert_eq!(
                        index.cube_cells(),
                        if grid <= rows { grid } else { 0 },
                        "{what}"
                    );
                    assert!(index == per_row_index(&t, n_shards), "{what}");
                    for attrs in &groupings {
                        for ctx in &contexts {
                            let scanned = Counter::build(&t, attrs, ctx).unwrap();
                            let passed = index.counting_pass(&t, attrs, ctx).unwrap();
                            if grid <= rows {
                                let passed = passed.expect("a cube answers every small grid");
                                assert_same(
                                    &passed,
                                    &scanned,
                                    &format!("{what}, {attrs:?} {ctx:?}"),
                                );
                            } else if let Some(passed) = passed {
                                assert_same(
                                    &passed,
                                    &scanned,
                                    &format!("{what}, {attrs:?} {ctx:?}"),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The index as the per-row loop built it: one `Bitmap::set` per
    /// row and attribute.
    fn per_row_index(table: &Table, n_shards: usize) -> TableIndex {
        let schema = table.schema();
        let cardinalities: Vec<u32> = schema
            .attr_ids()
            .map(|a| schema.cardinality(a).unwrap() as u32)
            .collect();
        let boundaries = shard_boundaries(table.n_rows(), n_shards);
        let shards = boundaries
            .windows(2)
            .map(|b| ShardIndex {
                attrs: table
                    .columns()
                    .iter()
                    .zip(&cardinalities)
                    .map(|(col, &card)| {
                        let mut maps = vec![Bitmap::zeros(b[1] - b[0]); card as usize];
                        for (row, &code) in col[b[0]..b[1]].iter().enumerate() {
                            maps[code as usize].set(row);
                        }
                        maps
                    })
                    .collect(),
            })
            .collect();
        // the cube as the per-row loop counts it: one key per row
        let cube = cube_grid(&cardinalities, table.n_rows()).map(|grid| {
            let mut cube = vec![0u64; grid];
            for row in table.rows() {
                let key = row.iter().zip(&cardinalities);
                cube[key.fold(0, |k, (&code, &card)| k * card + code) as usize] += 1;
            }
            cube
        });
        TableIndex {
            n_rows: table.n_rows(),
            cardinalities,
            boundaries,
            shards,
            cube,
        }
    }

    /// Row counts at the edges of a word and of the fan-out threshold.
    fn edge_row_counts() -> [usize; 11] {
        let m = tabular::fanout::FANOUT_MIN_ROWS;
        [
            0,
            1,
            63,
            64,
            65,
            m - 64,
            m - 1,
            m,
            m + 1,
            m + 64,
            m + 2 * ITEM_ROWS + 5,
        ]
    }

    #[test]
    fn builds_equal_the_per_row_loop_word_for_word_on_any_worker_count() {
        let mut rng = StdRng::seed_from_u64(3);
        for rows in edge_row_counts() {
            let t = random_table(&mut rng, rows, 70, [3, 2, 70]);
            let cardinalities = vec![3, 2, 70];
            for n_shards in [1, 2] {
                let reference = per_row_index(&t, n_shards);
                for workers in 1..=3 {
                    let built =
                        build_on(t.columns(), rows, cardinalities.clone(), n_shards, workers);
                    assert!(
                        built.unwrap() == reference,
                        "{rows} rows, {n_shards} shards, {workers} workers"
                    );
                }
            }
        }
    }

    /// Five attributes; code 3 of `e` only occurs in the first 100
    /// rows, so its words are zero past them while others fill.
    fn support_table(rng: &mut StdRng, n: usize) -> Table {
        let mut s = Schema::new();
        for (name, card) in [("a", 3), ("b", 2), ("c", 4), ("d", 2), ("e", 4)] {
            s.push(name, Domain::categorical((0..card).map(|i| i.to_string())));
        }
        let mut t = Table::new(s);
        for r in 0..n {
            let e = if r < 100 {
                rng.gen_range(0..4)
            } else {
                rng.gen_range(0..3)
            };
            let row = [
                rng.gen_range(0..3),
                rng.gen_range(0..2),
                rng.gen_range(0..4),
                u32::from(rng.gen_range(0..8) == 0),
                e,
            ];
            t.push_row(&row).unwrap();
        }
        t
    }

    /// Contexts of 0–4 attributes: each attribute subset takes a row's
    /// codes, and every subset also takes an out-of-domain variant.
    fn support_contexts(t: &Table, rng: &mut StdRng) -> Vec<Context> {
        let cards = [3, 2, 4, 2, 4];
        let mut contexts = vec![Context::empty()];
        for subset in 1u32..32 {
            if subset.count_ones() > 4 {
                continue;
            }
            let attrs: Vec<usize> = (0..5).filter(|a| subset >> a & 1 == 1).collect();
            let row: Vec<Value> = match t.n_rows() {
                0 => vec![0; 5],
                n => t.row(rng.gen_range(0..n)).unwrap(),
            };
            contexts.push(Context::of(
                attrs.iter().map(|&a| (AttrId(a as u32), row[a])),
            ));
            let last = *attrs.last().unwrap();
            contexts.push(Context::of(attrs.iter().map(|&a| {
                let code = if a == last { cards[a] } else { row[a] };
                (AttrId(a as u32), code)
            })));
        }
        contexts
    }

    #[test]
    fn capped_counts_equal_the_scan_clamped_at_every_cap_shard_and_edge() {
        let mut rng = StdRng::seed_from_u64(11);
        let block_rows = BLOCK_WORDS * 64;
        for n in [
            0,
            1,
            63,
            64,
            65,
            block_rows - 1,
            block_rows,
            block_rows + 1,
            2 * block_rows + 65,
        ] {
            let t = support_table(&mut rng, n);
            // grown in batches: code 3 of `e` stops after row 100
            let extended = grown(&t, 0, &[65, 1, 4096]);
            let indexes: Vec<TableIndex> = (1..=3)
                .map(|shards| TableIndex::build(&t, shards).unwrap())
                .collect();
            for ctx in support_contexts(&t, &mut rng) {
                let n_match = t.count(&ctx) as u64;
                let caps = [
                    0,
                    1,
                    n_match.saturating_sub(1),
                    n_match,
                    n_match + 1,
                    u64::MAX,
                ];
                for cap in caps {
                    let want = Some(n_match.min(cap));
                    for index in &indexes {
                        let what =
                            format!("{n} rows, {} shards, {ctx:?}, cap {cap}", index.n_shards());
                        assert_eq!(index.count_at_most(&ctx, cap), want, "{what}");
                    }
                    assert_eq!(
                        extended.count_at_most(&ctx, cap),
                        want,
                        "extended: {n} rows, {ctx:?}, cap {cap}"
                    );
                }
                assert_eq!(indexes[0].count(&ctx), Some(n_match));
                assert_eq!(extended.count(&ctx), Some(n_match));
            }
            // an attribute outside the schema is the caller's to scan
            let outside = Context::of([(AttrId(0), 0), (AttrId(5), 0)]);
            assert_eq!(indexes[2].count_at_most(&outside, 1), None);
            assert_eq!(extended.count_at_most(&outside, 1), None);
        }
    }

    #[test]
    fn an_out_of_domain_code_in_the_last_range_names_its_row() {
        let rows = 2 * ITEM_ROWS + 64;
        assert!(rows > tabular::fanout::FANOUT_MIN_ROWS);
        let t = random_table(&mut StdRng::seed_from_u64(5), rows, 4, [3, 2, 4]);
        // the last item is the last attribute's final 64 rows
        for bad_row in [rows - 64, rows - 1] {
            let mut columns = t.columns().to_vec();
            columns[2][bad_row] = 9;
            for workers in 1..=3 {
                assert_eq!(
                    build_on(&columns, rows, vec![3, 2, 4], 1, workers),
                    Err(tabular::TabularError::InvalidArgument(format!(
                        "code 9 at row {bad_row} exceeds cardinality 4"
                    ))),
                    "{workers} workers"
                );
            }
        }
    }
}
