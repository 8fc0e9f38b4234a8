//! # lewis-live — streaming ingestion over frozen LEWIS engines
//!
//! Every engine in this workspace is built from a *frozen* table: the
//! counting passes, bitmap indexes and surrogate fits all assume the
//! rows they saw at build time are the rows forever. `lewis-live` turns
//! such an engine into a **live table** without giving up the repo's
//! bit-identical-results guarantee:
//!
//! - appended rows land in a **write-side delta shard**, dictionary
//!   coded against the existing schema — a batch is validated in full
//!   before any row lands, so a bad row rejects the whole batch and the
//!   table never holds half an append;
//! - counters are maintained **incrementally**: the delta rows carry a
//!   bitmap index of their own, extended with each batch, and every
//!   count runs the same routine over the base and the delta and adds
//!   the two, so a query against the live view answers byte-for-byte
//!   what a cold build over the concatenated table would answer
//!   (property-tested in `tests/live_parity.rs` at the workspace root);
//! - nothing cached is invalidated: every generation of a live table
//!   shares **one** pass cache and one surrogate cache, whose entries
//!   carry a **row watermark**, the logical row count they cover; the
//!   next lookup past it tops the entry up with just the rows appended
//!   since — exact integer merges, so the answer equals a cold build's;
//! - once the delta grows past a row threshold, a **background
//!   compactor** folds it into the base behind an atomic
//!   [`Arc<Engine>`] swap. Readers never block on compaction and never
//!   observe a half-folded table; rows appended *during* the fold
//!   simply stay in the delta of the published generation.
//!
//! Compaction triggers on delta *size*, never on wall-clock time: the
//! crate does no time reads at all, keeping replay deterministic.
//!
//! ## Append → query → compact
//!
//! ```
//! use lewis_core::{Engine, ExplainRequest};
//! use lewis_live::LiveEngine;
//! use std::sync::Arc;
//! use tabular::{AttrId, Domain, Schema, Table};
//!
//! // a tiny labelled table: savings drives approval
//! let mut schema = Schema::new();
//! schema.push("savings", Domain::categorical(["low", "high"]));
//! schema.push("pred", Domain::boolean());
//! let mut table = Table::new(schema);
//! for row in [[0, 0], [0, 0], [0, 1], [1, 1], [1, 1], [1, 0]] {
//!     table.push_row(&row).unwrap();
//! }
//! let engine = Engine::builder(table)
//!     .prediction(AttrId(1), 1)
//!     .features(&[AttrId(0)])
//!     .build()
//!     .unwrap();
//!
//! let live = LiveEngine::new(Arc::new(engine));
//!
//! // append two approved high-savings rows; the batch is atomic
//! let receipt = live.append_rows(&[vec![1, 1], vec![1, 1]]).unwrap();
//! assert_eq!((receipt.appended, receipt.total_rows), (2, 8));
//! assert_eq!(receipt.pending_delta_rows, 2);
//!
//! // queries see base + delta immediately
//! let warm = live.engine().run(&ExplainRequest::Global).unwrap();
//!
//! // fold the delta into the base; answers do not change
//! let folded = live.compact().unwrap();
//! assert_eq!(folded.folded_rows, 2);
//! assert_eq!(live.status().pending_delta_rows, 0);
//! let after = live.engine().run(&ExplainRequest::Global).unwrap();
//! assert_eq!(format!("{warm:?}"), format!("{after:?}"));
//!
//! // a bad code rejects the whole batch — nothing landed
//! assert!(live.append_rows(&[vec![0, 1], vec![9, 0]]).is_err());
//! assert_eq!(live.status().total_rows, 8);
//! ```
//!
//! ## Concurrency model
//!
//! One mutex guards the writer state (the engine handle, whose delta
//! overlay is the growing delta table, and the compacting flag).
//! Appends serialise on it; readers touch it only long enough to clone
//! an [`Arc<Engine>`], then query entirely lock-free on an immutable
//! engine generation. The expensive part of compaction —
//! [`Engine::compacted`], which concatenates the folded table's columns
//! and extends the base index over the delta rows — runs *outside*
//! the lock; only publishing the current generation
//! [rebased onto](Engine::rebased_onto) the fold re-takes it.

use lewis_core::{Engine, Result};
use std::sync::{Arc, Mutex, PoisonError};
use tabular::Value;

/// Delta rows that trigger [`LiveEngine::maybe_spawn_compaction`].
///
/// An append still copies the delta table and its index's words once
/// (the previous engine generation keeps reading the old copies);
/// everything else it does is in proportion to the batch. The threshold
/// bounds those copies and the delta's memory; it is deliberately small
/// next to the bases it shields.
pub const DEFAULT_COMPACTION_THRESHOLD: usize = 8192;

/// Writer-side state, guarded by the one mutex in [`LiveEngine`].
struct State {
    /// The current engine generation; readers clone this handle. Its
    /// delta overlay holds every row appended since its base froze.
    engine: Arc<Engine>,
    /// A compaction fold is running outside the lock.
    compacting: bool,
}

/// What an accepted append did. One receipt per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReceipt {
    /// Rows this batch added (the whole batch, or the call errored).
    pub appended: usize,
    /// Logical rows now served (base + delta).
    pub total_rows: usize,
    /// The table's row-version watermark after this batch. Equal to
    /// `total_rows`: every append advances it, compaction never does.
    pub version: u64,
    /// Delta rows awaiting compaction.
    pub pending_delta_rows: usize,
}

/// What a compaction pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReceipt {
    /// Delta rows folded into the base (0 when skipped or idle).
    pub folded_rows: usize,
    /// Delta rows still pending — rows appended while the fold ran.
    pub pending_delta_rows: usize,
    /// Another fold was already in flight, so this call did nothing.
    pub skipped: bool,
}

/// A point-in-time view of a live table, for metrics and listings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveStatus {
    /// Rows in the frozen base table.
    pub base_rows: usize,
    /// Delta rows awaiting compaction.
    pub pending_delta_rows: usize,
    /// Logical rows served (base + delta).
    pub total_rows: usize,
    /// Row-version watermark (= `total_rows`).
    pub version: u64,
    /// A background fold is currently running.
    pub compacting: bool,
}

/// A frozen [`Engine`] promoted to an appendable live table.
///
/// See the [crate docs](self) for the data model and concurrency
/// story. Construct one per served table, share it behind an [`Arc`],
/// and hand readers [`LiveEngine::engine`] clones.
pub struct LiveEngine {
    state: Mutex<State>,
}

/// A poisoned writer mutex means an append or fold panicked mid-swap.
/// Every mutation leaves `State` consistent before releasing the lock
/// (clone-then-swap, never in-place), so the inner value is still
/// coherent; recover it rather than propagating the poison.
fn recover<T>(r: std::result::Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl LiveEngine {
    /// Promote `engine` to a live table.
    ///
    /// The engine may already carry a delta overlay (an engine restored
    /// from a mid-stream v5 pack): appending resumes from its watermark
    /// as if the process had never restarted.
    pub fn new(engine: Arc<Engine>) -> LiveEngine {
        LiveEngine {
            state: Mutex::new(State {
                engine,
                compacting: false,
            }),
        }
    }

    /// The current engine generation. The handle is immutable — queries
    /// on it never block appends or compaction, and later appends never
    /// change answers it already gave.
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&recover(self.state.lock()).engine)
    }

    /// Row counts, watermark and compactor state, in one locked peek.
    pub fn status(&self) -> LiveStatus {
        let st = recover(self.state.lock());
        let total = st.engine.total_rows();
        LiveStatus {
            base_rows: st.engine.table().n_rows(),
            pending_delta_rows: st.engine.delta_rows(),
            total_rows: total,
            version: total as u64,
            compacting: st.compacting,
        }
    }

    /// Append a batch of dictionary-coded rows (schema order, including
    /// the prediction column).
    ///
    /// The batch is validated in full — arity and domain of every row —
    /// before any row lands; on error the table is untouched. On
    /// success the swapped-in engine generation answers every query
    /// kind exactly as a cold build over the concatenated table would.
    /// Cached counting passes and surrogate fits stay resident; each is
    /// topped up with the new rows on its next use.
    pub fn append_rows(&self, rows: &[Vec<Value>]) -> Result<AppendReceipt> {
        let mut st = recover(self.state.lock());
        if !rows.is_empty() {
            // The next generation validates arity and domain as it grows
            // its rows, and an error leaves the published state
            // untouched (atomicity).
            st.engine = Arc::new(st.engine.with_delta(rows)?);
        }
        let total = st.engine.total_rows();
        Ok(AppendReceipt {
            appended: rows.len(),
            total_rows: total,
            version: total as u64,
            pending_delta_rows: st.engine.delta_rows(),
        })
    }

    /// Fold the delta into the base, synchronously.
    ///
    /// The fold itself runs without the writer lock, so appends and
    /// reads proceed while it works; the result is published with one
    /// atomic handle swap of the current generation over the folded
    /// base. Rows appended mid-fold stay in its delta. Answers never
    /// change across a fold — same logical rows in the same order, same
    /// integers — so the shared caches keep their row watermarks.
    ///
    /// If another fold is already in flight the call is a no-op and the
    /// receipt says `skipped`.
    pub fn compact(&self) -> Result<CompactReceipt> {
        let (engine, folded_rows) = {
            let mut st = recover(self.state.lock());
            if st.compacting {
                return Ok(CompactReceipt {
                    folded_rows: 0,
                    pending_delta_rows: st.engine.delta_rows(),
                    skipped: true,
                });
            }
            st.compacting = true;
            (Arc::clone(&st.engine), st.engine.delta_rows())
        };

        // The expensive part — concatenating columns, rebuilding the
        // index — happens outside the lock.
        let folded = engine.compacted();

        let mut st = recover(self.state.lock());
        st.compacting = false;
        st.engine = Arc::new(st.engine.rebased_onto(&folded?)?);
        Ok(CompactReceipt {
            folded_rows,
            pending_delta_rows: st.engine.delta_rows(),
            skipped: false,
        })
    }

    /// Spawn a background [`LiveEngine::compact`] on a thread named
    /// `lewis-compact` if the delta has reached the threshold and no
    /// fold is already running. Returns whether a fold was spawned. Call
    /// after appends; never blocks.
    ///
    /// If the OS refuses the thread, this returns `false` and nothing
    /// changes: the delta keeps serving, and the next append's call
    /// tries the fold again.
    pub fn maybe_spawn_compaction(self: &Arc<Self>) -> bool {
        {
            let st = recover(self.state.lock());
            if st.compacting || st.engine.delta_rows() < DEFAULT_COMPACTION_THRESHOLD {
                return false;
            }
        }
        let live = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name("lewis-compact".into())
            .spawn(move || {
                // compact() sets and clears the compacting flag itself;
                // a racing fold that got there first reports `skipped`.
                let _ = live.compact();
            });
        spawned.is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lewis_core::ExplainRequest;
    use tabular::{AttrId, Domain, Schema, Table};

    fn seed_engine() -> Arc<Engine> {
        let mut schema = Schema::new();
        schema.push("status", Domain::categorical(["none", "low", "high"]));
        schema.push("savings", Domain::categorical(["low", "high"]));
        schema.push("pred", Domain::boolean());
        let mut table = Table::new(schema);
        for row in [
            [0, 0, 0],
            [1, 0, 0],
            [2, 0, 1],
            [0, 1, 0],
            [1, 1, 1],
            [2, 1, 1],
            [2, 0, 1],
            [0, 1, 0],
        ] {
            table.push_row(&row).unwrap();
        }
        Arc::new(
            Engine::builder(table)
                .prediction(AttrId(2), 1)
                .features(&[AttrId(0), AttrId(1)])
                .build()
                .unwrap(),
        )
    }

    fn global(engine: &Engine) -> String {
        format!("{:?}", engine.run(&ExplainRequest::Global).unwrap())
    }

    #[test]
    fn appends_advance_the_watermark_and_the_answers() {
        let live = LiveEngine::new(seed_engine());
        let before = global(&live.engine());
        let receipt = live
            .append_rows(&[vec![2, 1, 1], vec![2, 1, 1], vec![0, 0, 0]])
            .unwrap();
        assert_eq!(receipt.appended, 3);
        assert_eq!(receipt.total_rows, 11);
        assert_eq!(receipt.version, 11);
        assert_eq!(receipt.pending_delta_rows, 3);
        let after = global(&live.engine());
        assert_ne!(before, after, "three skewed rows must move the scores");

        // cold build over the concatenated table answers identically
        let mut table = (*seed_engine().table()).clone();
        for row in [[2, 1, 1], [2, 1, 1], [0, 0, 0]] {
            table.push_row(&row).unwrap();
        }
        let cold = Engine::builder(table)
            .prediction(AttrId(2), 1)
            .features(&[AttrId(0), AttrId(1)])
            .build()
            .unwrap();
        assert_eq!(after, global(&cold));
    }

    #[test]
    fn a_bad_row_rejects_the_whole_batch() {
        let live = LiveEngine::new(seed_engine());
        let err = live.append_rows(&[vec![0, 0, 0], vec![3, 0, 0]]);
        assert!(err.is_err(), "code 3 is outside status's domain");
        let err = live.append_rows(&[vec![0, 0]]);
        assert!(err.is_err(), "arity 2 against a 3-column schema");
        let status = live.status();
        assert_eq!(
            (status.total_rows, status.pending_delta_rows),
            (8, 0),
            "failed batches must leave nothing behind"
        );
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let live = LiveEngine::new(seed_engine());
        let receipt = live.append_rows(&[]).unwrap();
        assert_eq!(receipt.appended, 0);
        assert_eq!(receipt.total_rows, 8);
        assert_eq!(live.status().version, 8);
    }

    #[test]
    fn compaction_folds_without_changing_answers_or_the_watermark() {
        let live = LiveEngine::new(seed_engine());
        live.append_rows(&[vec![2, 1, 1], vec![0, 0, 0]]).unwrap();
        let before = global(&live.engine());
        let receipt = live.compact().unwrap();
        assert_eq!(receipt.folded_rows, 2);
        assert_eq!(receipt.pending_delta_rows, 0);
        assert!(!receipt.skipped);
        let status = live.status();
        assert_eq!(status.base_rows, 10);
        assert_eq!(status.pending_delta_rows, 0);
        assert_eq!(
            status.version, 10,
            "compaction must not advance the version"
        );
        assert_eq!(before, global(&live.engine()));

        // idle compaction is harmless
        let receipt = live.compact().unwrap();
        assert_eq!(receipt.folded_rows, 0);
        assert!(!receipt.skipped);
    }

    #[test]
    fn appends_keep_flowing_after_compaction() {
        let live = LiveEngine::new(seed_engine());
        live.append_rows(&[vec![1, 1, 1]]).unwrap();
        live.compact().unwrap();
        let receipt = live.append_rows(&[vec![1, 0, 0]]).unwrap();
        assert_eq!(receipt.total_rows, 10);
        assert_eq!(receipt.pending_delta_rows, 1);

        let mut table = (*seed_engine().table()).clone();
        table.push_row(&[1, 1, 1]).unwrap();
        table.push_row(&[1, 0, 0]).unwrap();
        let cold = Engine::builder(table)
            .prediction(AttrId(2), 1)
            .features(&[AttrId(0), AttrId(1)])
            .build()
            .unwrap();
        assert_eq!(global(&live.engine()), global(&cold));
    }

    #[test]
    fn reader_handles_are_stable_across_appends() {
        let live = LiveEngine::new(seed_engine());
        let old = live.engine();
        let before = global(&old);
        live.append_rows(&[vec![2, 1, 1], vec![2, 1, 1]]).unwrap();
        assert_eq!(
            before,
            global(&old),
            "a generation handed out keeps answering from its snapshot"
        );
        assert_ne!(before, global(&live.engine()));
    }

    #[test]
    fn threshold_arms_background_compaction() {
        let live = Arc::new(LiveEngine::new(seed_engine()));
        let short = vec![vec![0, 0, 0]; DEFAULT_COMPACTION_THRESHOLD - 1];
        live.append_rows(&short).unwrap();
        assert!(
            !live.maybe_spawn_compaction(),
            "one row short of the threshold"
        );
        live.append_rows(&[vec![1, 1, 1]]).unwrap();
        assert!(live.maybe_spawn_compaction());
        // the fold runs on its own thread; wait for it to publish
        while live.status().pending_delta_rows > 0 || live.status().compacting {
            std::thread::yield_now();
        }
        let rows = 8 + DEFAULT_COMPACTION_THRESHOLD;
        assert_eq!(live.status().base_rows, rows);
        assert_eq!(live.status().total_rows, rows);
    }

    #[test]
    fn concurrent_appends_and_reads_stay_consistent() {
        // 32 batches of a quarter threshold: the delta crosses the
        // threshold at least twice while the writers run
        const BATCH: usize = DEFAULT_COMPACTION_THRESHOLD / 4;
        let live = Arc::new(LiveEngine::new(seed_engine()));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let live = Arc::clone(&live);
                std::thread::spawn(move || {
                    for i in 0..8 {
                        let status = (w + i) % 3;
                        live.append_rows(&vec![vec![status, 1, 1]; BATCH]).unwrap();
                        live.maybe_spawn_compaction();
                        let _ = live.engine().run(&ExplainRequest::Global).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(live.status().total_rows, 8 + 32 * BATCH);
        // settle any in-flight fold, then a final fold must converge
        while live.status().compacting {
            std::thread::yield_now();
        }
        live.compact().unwrap();
        let status = live.status();
        assert_eq!(status.base_rows, 8 + 32 * BATCH);
        assert_eq!(status.pending_delta_rows, 0);
    }

    #[test]
    fn a_restored_mid_stream_engine_resumes_appending() {
        let live = LiveEngine::new(seed_engine());
        live.append_rows(&[vec![2, 1, 1]]).unwrap();
        let snapshot = live.engine().snapshot();
        let restored = Arc::new(Engine::restore(snapshot).unwrap());
        assert_eq!(restored.delta_rows(), 1);

        let resumed = LiveEngine::new(restored);
        assert_eq!(resumed.status().total_rows, 9);
        let receipt = resumed.append_rows(&[vec![0, 0, 0]]).unwrap();
        assert_eq!(receipt.total_rows, 10);
        assert_eq!(receipt.pending_delta_rows, 2);

        let mut table = (*seed_engine().table()).clone();
        table.push_row(&[2, 1, 1]).unwrap();
        table.push_row(&[0, 0, 0]).unwrap();
        let cold = Engine::builder(table)
            .prediction(AttrId(2), 1)
            .features(&[AttrId(0), AttrId(1)])
            .build()
            .unwrap();
        assert_eq!(global(&resumed.engine()), global(&cold));
    }
}
