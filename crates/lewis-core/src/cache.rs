//! Bounded, thread-safe cache of counting passes.
//!
//! Every explanation score starts from the same expensive primitive: one
//! [`ArmTable`](crate::scores) — a full scan of the labelled table
//! aggregated per adjustment cell and per intervened-attribute arm.
//! Consecutive queries routinely hit the identical `(intervened
//! attribute set, context, adjustment set)` key: repeated dashboard
//! queries, the per-group sweeps of a fairness audit, every batch of
//! contextual questions about one sub-population. This cache lets the
//! [`crate::Engine`] reuse those passes instead of re-scanning.
//!
//! Properties:
//! * **bit-identical results** — a hit returns the very [`ArmTable`]
//!   a cold build would have produced (same deterministic construction,
//!   same iteration order), so cached scores equal uncached scores
//!   bit for bit (pinned by `tests/engine_api.rs`);
//! * **topped up, never invalidated** — every entry carries a row
//!   watermark: the logical row count (base + delta) it was counted
//!   over. A live engine that has grown past an entry's watermark
//!   counts just the rows appended since and merges them in (integer
//!   addition into sorted vectors), so an append costs each warm pass
//!   a popcount walk over the new rows' bitmap words (or, where the
//!   index declines, a scan of those rows) instead of a pass over the
//!   whole table, and the merged pass equals a cold one exactly
//!   (pinned by `tests/live_parity.rs`);
//! * **bounded** — at most `capacity` entries, evicting the least
//!   recently used; an un-bounded cache over per-individual local
//!   contexts would grow with the table;
//! * **thread-safe** — a single mutex guards the map; the scan itself
//!   runs outside the lock, so concurrent misses build in parallel
//!   (a rare duplicate build inserts an equivalent table — harmless).
//!
//! The map itself, [`Lru`], also holds the engine's fitted recourse
//! surrogates (see [`crate::surrogates`]).

use crate::scores::ArmTable;
use crate::surrogates::SurrogateCache;
use crate::Result;
use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tabular::{AttrId, Context, FxHashMap};

/// Cache key: everything that determines an [`ArmTable`]'s content for a
/// fixed engine (table, prediction column and positive code are engine
/// invariants; the adjustment set is derived from graph + key but kept
/// in the key so graph-free and graph-full engines can never alias).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PassKey {
    /// Sorted intervened attribute set.
    pub(crate) xs: Vec<AttrId>,
    /// The query context `k`.
    pub(crate) k: Context,
    /// The backdoor adjustment set used for the pass.
    pub(crate) c_set: Vec<AttrId>,
}

/// Hit/miss counters plus occupancy — exposed via
/// [`crate::Engine::cache_stats`] so callers (and the warm-vs-cold
/// bench) can verify reuse actually happens.
///
/// For counting passes, a lookup that tops a resident pass up with
/// appended rows is a **hit**; a miss means a full pass over every row
/// ran. For recourse surrogates, any refit — even one that groups only
/// the appended rows — is a **miss**; full fits are `misses - topped_up`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run a full counting pass (or a fit).
    pub misses: u64,
    /// Lookups that merged appended rows into a resident entry.
    pub topped_up: u64,
    /// Rows the counting-pass top-ups scanned one by one, because the
    /// bitmap index declined to walk them (a multi-shard or unindexed
    /// engine, or a grid past the index's cost gate). Always 0 for
    /// surrogates.
    pub topup_rows_scanned: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache, in `[0, 1]`.
    /// Returns `0.0` (not NaN) when there have been no lookups at all.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate, {}/{} resident)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.capacity
        )
    }
}

/// The bounded LRU map both engine caches are built on — counting
/// passes here, fitted surrogates in [`crate::surrogates`]. Every entry
/// carries a recency stamp and a row watermark: the logical row count
/// (base + delta) its value was counted over. Interior-mutable so the
/// engine can stay `&self` everywhere.
pub(crate) struct Lru<K, V> {
    inner: Mutex<LruInner<K, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    topped_up: AtomicU64,
    topup_rows_scanned: AtomicU64,
}

struct LruInner<K, V> {
    map: FxHashMap<K, Slot<V>>,
    /// Monotone counter driving LRU recency.
    stamp: u64,
}

struct Slot<V> {
    /// Last-touched stamp (monotone, drives LRU eviction).
    touched: u64,
    /// The value covers logical rows `0..watermark`.
    watermark: usize,
    value: V,
}

/// The counting-pass cache: shared passes by key.
pub(crate) type CountingCache = Lru<PassKey, Arc<ArmTable>>;

/// The caches every generation of one live table shares, and the row
/// count of its **head**, the one generation they may grow with. Every
/// sharing generation thus serves a prefix of one row history, so an
/// entry over rows `0..w` is exact for any of them with `w` rows or more.
pub(crate) struct Caches {
    pub(crate) passes: CountingCache,
    pub(crate) surrogates: SurrogateCache,
    head: AtomicUsize,
}

impl Caches {
    /// The caches of a new table whose head has `rows` logical rows.
    pub(crate) fn new(passes: CountingCache, surrogates: SurrogateCache, rows: usize) -> Arc<Self> {
        let head = AtomicUsize::new(rows);
        Arc::new(Caches {
            passes,
            surrogates,
            head,
        })
    }

    /// The caches for a child, over `child` rows, of a generation over
    /// `parent` rows: these when the parent is the head (the child
    /// becomes it), else empty ones — a fork may differ past `parent`.
    pub(crate) fn extended(self: &Arc<Self>, parent: usize, child: usize) -> Arc<Self> {
        let claimed = self
            .head
            .compare_exchange(parent, child, Ordering::SeqCst, Ordering::SeqCst);
        if claimed.is_ok() {
            return Arc::clone(self);
        }
        let (passes, surrogates) = (self.passes.capacity, self.surrogates.capacity);
        Caches::new(Lru::new(passes), Lru::new(surrogates), child)
    }
}

impl<K: Clone + Eq + Hash, V: Clone> Lru<K, V> {
    /// An empty cache holding at most `capacity` entries (`capacity` is
    /// clamped to at least 1 — a zero-size cache would still be correct
    /// but would turn every lookup into a miss plus bookkeeping).
    pub(crate) fn new(capacity: usize) -> Self {
        Lru::restore(capacity, 0, 0, Vec::new(), 0)
    }

    /// The resident value for `key` and its watermark, marked most
    /// recently used — unless it is absent or counted over more than
    /// `rows` rows, by a newer generation sharing the cache (the asking
    /// generation counts its own; [`Lru::insert`] keeps the newer one).
    pub(crate) fn touch<Q>(&self, key: &Q, rows: usize) -> Option<(V, usize)>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.stamp += 1;
        let stamp = inner.stamp;
        let slot = inner.map.get_mut(key).filter(|s| s.watermark <= rows)?;
        slot.touched = stamp;
        Some((slot.value.clone(), slot.watermark))
    }

    /// Make `value`, counted over `rows` rows, the entry for `key` —
    /// unless a racing insert already left one over at least as many
    /// rows — then evict the least recently used down to capacity.
    pub(crate) fn insert(&self, key: K, value: V, rows: usize) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.stamp += 1;
        let slot = Slot {
            touched: inner.stamp,
            watermark: rows,
            value,
        };
        if inner.map.get(&key).is_none_or(|r| r.watermark < rows) {
            inner.map.insert(key, slot);
        }
        while inner.map.len() > self.capacity {
            let oldest = inner
                .map
                // lint:allow(ordered-iteration): recency stamps are unique
                // (a monotone counter), so min_by_key has a single answer
                // regardless of visit order.
                .iter()
                .min_by_key(|(_, slot)| slot.touched)
                .map(|(k, _)| k.clone())
                .expect("non-empty over capacity");
            inner.map.remove(&oldest);
        }
    }

    /// Count one lookup (a hit or a miss) and whether it topped up.
    pub(crate) fn tally(&self, hit: bool, topped_up: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        self.topped_up
            .fetch_add(u64::from(topped_up), Ordering::Relaxed);
    }

    /// Count `rows` rows a top-up scanned one by one.
    pub(crate) fn scanned(&self, rows: usize) {
        self.topup_rows_scanned
            .fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Current counters and occupancy.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            topped_up: self.topped_up.load(Ordering::Relaxed),
            topup_rows_scanned: self.topup_rows_scanned.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("cache lock").map.len(),
            capacity: self.capacity,
        }
    }

    /// Export the entries counted over all `rows` logical rows in
    /// recency order (least recently touched first), together with the
    /// lifetime counters — the payload of an engine snapshot. Entries
    /// over other row counts are omitted (a restored engine would take
    /// them as complete, so it rebuilds them lazily instead). Values
    /// are cloned handles, not copies.
    pub(crate) fn export(&self, rows: usize) -> (u64, u64, Vec<(K, V)>) {
        let inner = self.inner.lock().expect("cache lock");
        let mut slots: Vec<(&K, &Slot<V>)> = inner
            .map
            // lint:allow(ordered-iteration): the collected entries are
            // sorted by their unique recency stamp two lines down, which
            // erases the hash visit order.
            .iter()
            .filter(|(_, slot)| slot.watermark == rows)
            .collect();
        slots.sort_by_key(|(_, slot)| slot.touched);
        let entries = slots
            .into_iter()
            .map(|(key, slot)| (key.clone(), slot.value.clone()))
            .collect();
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            entries,
        )
    }

    /// Rebuild a cache from exported state over `rows` logical rows.
    /// `entries` must be in recency order (as produced by
    /// [`Lru::export`]): they are re-stamped in sequence, so LRU
    /// eviction behaves exactly as in the donor. Entries beyond
    /// `capacity` evict from the front, mirroring what the donor's own
    /// bound would have kept.
    pub(crate) fn restore(
        capacity: usize,
        hits: u64,
        misses: u64,
        entries: Vec<(K, V)>,
        rows: usize,
    ) -> Self {
        let capacity = capacity.max(1);
        let mut inner = LruInner {
            map: FxHashMap::default(),
            stamp: 0,
        };
        let keep = entries.len().saturating_sub(capacity);
        for (key, value) in entries.into_iter().skip(keep) {
            inner.stamp += 1;
            let slot = Slot {
                touched: inner.stamp,
                watermark: rows,
                value,
            };
            inner.map.insert(key, slot);
        }
        Lru {
            inner: Mutex::new(inner),
            capacity,
            hits: AtomicU64::new(hits),
            misses: AtomicU64::new(misses),
            topped_up: AtomicU64::new(0),
            topup_rows_scanned: AtomicU64::new(0),
        }
    }
}

impl CountingCache {
    /// The pass for `(xs, k, c_set)` over the first `rows` logical
    /// rows. A resident pass counted over exactly `rows` rows is
    /// returned as is. One counted over fewer rows `w` is handed to
    /// `count` as `Some((pass, w))` to be topped up with rows `w..rows`;
    /// both are hits. Otherwise `count(None)` runs a full pass, a miss.
    /// The count runs outside the lock, so other queries keep flowing;
    /// of two racing counts the one over more rows stays resident.
    /// Errors are returned without being cached, so a
    /// transiently-unsupported context does not poison later lookups.
    pub(crate) fn get_or_count(
        &self,
        xs: &[AttrId],
        k: &Context,
        c_set: &[AttrId],
        rows: usize,
        count: impl FnOnce(Option<(&ArmTable, usize)>) -> Result<ArmTable>,
    ) -> Result<Arc<ArmTable>> {
        let key = PassKey {
            xs: xs.to_vec(),
            k: k.clone(),
            c_set: c_set.to_vec(),
        };
        let arms = match self.touch(&key, rows) {
            Some((arms, watermark)) => {
                self.tally(true, watermark < rows);
                if watermark == rows {
                    return Ok(arms);
                }
                Arc::new(count(Some((&arms, watermark)))?)
            }
            None => {
                self.tally(false, false);
                Arc::new(count(None)?)
            }
        };
        self.insert(key, Arc::clone(&arms), rows);
        Ok(arms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scores::ScoreEstimator;
    use tabular::{Domain, Schema, Table};

    fn estimator() -> ScoreEstimator {
        let mut s = Schema::new();
        s.push("x", Domain::boolean());
        s.push("pred", Domain::boolean());
        let mut t = Table::new(s);
        for row in [[0, 0], [0, 1], [1, 1], [1, 0], [1, 1]] {
            t.push_row(&row).unwrap();
        }
        ScoreEstimator::from_shared(t.clone().into(), None, AttrId(1), 1, 0.0).unwrap()
    }

    fn key_of(v: u32) -> (Vec<AttrId>, Context) {
        (vec![AttrId(0)], Context::of([(AttrId(5), v)]))
    }

    #[test]
    fn hit_rate_has_no_nan_edge() {
        // zero lookups: rate is exactly 0.0, not NaN
        let fresh = CacheStats::default();
        assert_eq!(fresh.hit_rate(), 0.0);
        assert!(!fresh.hit_rate().is_nan());
        // all hits / all misses / mixed
        let hot = CacheStats {
            hits: 4,
            misses: 0,
            ..CacheStats::default()
        };
        assert_eq!(hot.hit_rate(), 1.0);
        let cold = CacheStats {
            hits: 0,
            misses: 5,
            ..CacheStats::default()
        };
        assert_eq!(cold.hit_rate(), 0.0);
        let mixed = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(mixed.hit_rate(), 0.75);
    }

    #[test]
    fn stats_display_is_informative() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            entries: 2,
            capacity: 8,
            ..CacheStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("3 hits"), "{text}");
        assert!(text.contains("75.0%"), "{text}");
        assert!(text.contains("2/8"), "{text}");
        // the zero-lookup edge case renders too
        assert!(CacheStats::default().to_string().contains("0.0%"));
    }

    #[test]
    fn hit_returns_same_table_and_counts() {
        let est = estimator();
        let cache = CountingCache::new(8);
        let build = |_: Option<(&ArmTable, usize)>| {
            est.build_arm_table(&[], &[AttrId(0)], &Context::empty())
        };
        let a = cache
            .get_or_count(&[AttrId(0)], &Context::empty(), &[], 5, build)
            .unwrap();
        let b = cache
            .get_or_count(&[AttrId(0)], &Context::empty(), &[], 5, |_| {
                panic!("must not rebuild on a hit")
            })
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must return the cached pass");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_bounds_residency_lru() {
        let est = estimator();
        let cache = CountingCache::new(2);
        for v in 0..4u32 {
            let (xs, _) = key_of(v);
            // distinct keys via distinct adjustment sets
            let c_set = vec![AttrId(10 + v)];
            let _ = cache.get_or_count(&xs, &Context::empty(), &c_set, 5, |_| {
                est.build_arm_table(&[], &[AttrId(0)], &Context::empty())
            });
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2, "LRU must evict down to capacity");
        assert_eq!(s.misses, 4);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = CountingCache::new(2);
        // a context matching no rows is unsupported, not cached
        let k = Context::of([(AttrId(0), 0), (AttrId(1), 7)]);
        for _ in 0..2 {
            let r = cache.get_or_count(&[AttrId(0)], &k, &[], 5, |_| {
                Err(crate::LewisError::Unsupported("no rows".into()))
            });
            assert!(r.is_err());
        }
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.misses, 2, "both lookups must have tried to build");
    }

    #[test]
    fn grown_lookups_top_up_the_resident_pass_as_hits() {
        let est = estimator();
        let cache = CountingCache::new(8);
        let key = |cache: &CountingCache, rows, want: Option<usize>| {
            cache
                .get_or_count(&[AttrId(0)], &Context::empty(), &[], rows, |resident| {
                    assert_eq!(resident.map(|(_, w)| w), want, "lookup at {rows} rows");
                    est.build_arm_table(&[], &[AttrId(0)], &Context::empty())
                })
                .unwrap()
        };
        let counted = key(&cache, 3, None);
        // grown past the watermark: the resident pass is offered for a
        // top-up from row 3, and the lookup is a hit
        let topped = key(&cache, 5, Some(3));
        assert!(!Arc::ptr_eq(&counted, &topped));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.topped_up, s.entries), (1, 1, 1, 1));
        // the topped-up pass replaced the resident one
        let again = cache
            .get_or_count(&[AttrId(0)], &Context::empty(), &[], 5, |_| {
                panic!("a pass over every row must not recount")
            })
            .unwrap();
        assert!(Arc::ptr_eq(&topped, &again));
        // snapshots carry only passes counted over every row
        assert_eq!(cache.export(5).2.len(), 1);
        assert_eq!(cache.export(6).2.len(), 0);
        // an older generation over fewer rows counts its own, and the
        // entry over more rows stays resident for the newer ones
        key(&cache, 4, None);
        key(&cache, 7, Some(5));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.topped_up), (3, 2, 2));
    }

    #[test]
    fn only_the_head_shares_its_caches_with_a_child() {
        let caches = Caches::new(CountingCache::new(4), SurrogateCache::new(2), 10);
        assert!(Arc::ptr_eq(&caches, &caches.extended(10, 12)));
        // 10 rows is no longer the head: a second child forks
        let fork = caches.extended(10, 12);
        assert!(!Arc::ptr_eq(&caches, &fork));
        assert_eq!(fork.passes.stats().capacity, 4);
        assert_eq!(fork.surrogates.stats().capacity, 2);
        assert!(Arc::ptr_eq(&fork, &fork.extended(12, 13)));
        assert!(Arc::ptr_eq(&caches, &caches.extended(12, 16)));
    }
}
