//! Bounded, thread-safe cache of fitted recourse surrogates.
//!
//! Every recourse query over the same actionable set needs the same
//! logit-linear surrogate (eq. 28) — the one genuinely expensive part
//! of answering recourse: a pass over every row to group the table into
//! its distinct patterns, then a Newton fit over those. Real traffic repeats
//! actionable sets constantly (a product exposes a handful of "what can
//! the user change" configurations), so the [`crate::Engine`] keeps the
//! fitted coefficients here and rebuilds the per-row generator from
//! warm coefficients in microseconds.
//!
//! Properties mirror [`crate::cache`]'s counting cache:
//! * **bit-identical results** — a hit returns the very
//!   [`SurrogateFit`] a cold fit would have produced (the grouped
//!   Newton fit depends only on the multiset of rows, not on shard
//!   count or row order), so cached recourse equals uncached recourse
//!   bit for bit;
//! * **bounded** — at most `capacity` entries, evicting the least
//!   recently used;
//! * **thread-safe** — a single mutex guards the map; the fit itself
//!   runs outside the lock, so concurrent misses fit in parallel (a
//!   rare duplicate fit inserts an equivalent surrogate — harmless);
//! * **exportable** — entries round-trip through engine snapshots and
//!   `.lewis` packs (format v6; fits from older packs are dropped and
//!   refit lazily), so a restored server answers recourse from warm
//!   coefficients without refitting.

use crate::cache::CacheStats;
use crate::recourse::SurrogateFit;
use crate::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tabular::{AttrId, FxHashMap};

/// The bounded LRU map itself. Keyed by the exact *ordered* actionable
/// set — the order fixes the surrogate's coefficient layout, so two
/// orderings of the same attributes are distinct (and both valid)
/// entries. Interior-mutable so the engine can stay `&self` everywhere.
pub(crate) struct SurrogateCache {
    inner: Mutex<SurrogateInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// `export`'s payload: lifetime hits, lifetime misses, and the resident
/// **fresh** fits least-recently-touched first.
pub(crate) type SurrogateExport = (u64, u64, Vec<(Vec<AttrId>, Arc<SurrogateFit>)>);

/// [`SurrogateCache::export_full`]'s payload: like [`SurrogateExport`]
/// but carrying every entry with its staleness flag — the live-table
/// hand-off between engine generations.
pub(crate) type SurrogateFullExport = (u64, u64, Vec<(Vec<AttrId>, bool, Arc<SurrogateFit>)>);

/// One resident fit with its recency stamp and staleness.
struct SurrogateSlot {
    /// Last-touched stamp (monotone, drives LRU eviction).
    touched: u64,
    /// A stale fit was trained before rows were appended: the key stays
    /// resident (the actionable set is known traffic) but the next
    /// lookup refits over the live rows instead of answering from it.
    stale: bool,
    fit: Arc<SurrogateFit>,
}

#[derive(Default)]
struct SurrogateInner {
    map: FxHashMap<Vec<AttrId>, SurrogateSlot>,
    /// Monotone counter driving LRU recency.
    stamp: u64,
}

impl SurrogateCache {
    /// An empty cache holding at most `capacity` fits (`capacity` is
    /// clamped to at least 1 — a zero-size cache would still be correct
    /// but would turn every lookup into a miss plus bookkeeping).
    pub(crate) fn new(capacity: usize) -> Self {
        SurrogateCache {
            inner: Mutex::new(SurrogateInner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Return the cached fit for `actionable` or run `build` and cache
    /// its result. A **stale** resident entry is treated as a miss: the
    /// refit runs outside the lock and replaces the entry fresh (the
    /// fit is a pure function of the live rows, so a concurrent refit
    /// inserts the identical coefficients — harmless). Errors are
    /// returned without being cached, so an invalid actionable set does
    /// not poison later lookups.
    pub(crate) fn get_or_build(
        &self,
        actionable: &[AttrId],
        build: impl FnOnce() -> Result<SurrogateFit>,
    ) -> Result<Arc<SurrogateFit>> {
        {
            let mut inner = self.inner.lock().expect("surrogate cache lock");
            inner.stamp += 1;
            let stamp = inner.stamp;
            if let Some(slot) = inner.map.get_mut(actionable) {
                if !slot.stale {
                    slot.touched = stamp;
                    let fit = Arc::clone(&slot.fit);
                    drop(inner);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(fit);
                }
            }
        }
        // Miss (or stale): fit outside the lock so queries keep flowing.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fit = Arc::new(build()?);
        let mut inner = self.inner.lock().expect("surrogate cache lock");
        inner.stamp += 1;
        let stamp = inner.stamp;
        inner.map.insert(
            actionable.to_vec(),
            SurrogateSlot {
                touched: stamp,
                stale: false,
                fit: Arc::clone(&fit),
            },
        );
        while inner.map.len() > self.capacity {
            let oldest = inner
                .map
                // lint:allow(ordered-iteration): recency stamps are a unique monotone counter, so min_by_key has one answer in any visit order
                .iter()
                .min_by_key(|(_, slot)| slot.touched)
                .map(|(k, _)| k.clone())
                .expect("non-empty over capacity");
            inner.map.remove(&oldest);
        }
        Ok(fit)
    }

    /// Current counters and occupancy (same shape as the counting
    /// cache's stats, so `/metrics` reports both uniformly).
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("surrogate cache lock").map.len(),
            capacity: self.capacity,
        }
    }

    /// Export the resident **fresh** fits in recency order (least
    /// recently touched first) together with the lifetime counters —
    /// the payload of an engine snapshot. Stale fits are omitted: they
    /// describe rows that no longer exist alone, and a restored engine
    /// refits them lazily (deterministically, to the same coefficients
    /// a resident refit would produce). The `Arc`s are shared, not
    /// copied.
    pub(crate) fn export(&self) -> SurrogateExport {
        let (hits, misses, entries) = self.export_full();
        (
            hits,
            misses,
            entries
                .into_iter()
                .filter(|(_, stale, _)| !stale)
                .map(|(k, _, f)| (k, f))
                .collect(),
        )
    }

    /// Export every resident fit — fresh and stale — in recency order,
    /// the hand-off between live-engine generations ([`crate::Engine`]'s
    /// delta overlay and compaction paths carry staleness across).
    pub(crate) fn export_full(&self) -> SurrogateFullExport {
        let inner = self.inner.lock().expect("surrogate cache lock");
        let mut entries: Vec<(u64, Vec<AttrId>, bool, Arc<SurrogateFit>)> = inner
            .map
            // lint:allow(ordered-iteration): the collected entries are sorted by their unique recency stamp below, erasing the hash visit order
            .iter()
            .map(|(k, slot)| (slot.touched, k.clone(), slot.stale, Arc::clone(&slot.fit)))
            .collect();
        entries.sort_by_key(|(touched, _, _, _)| *touched);
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            entries.into_iter().map(|(_, k, s, f)| (k, s, f)).collect(),
        )
    }

    /// Rebuild a cache from exported state, everything fresh. `entries`
    /// must be in recency order (as produced by
    /// [`SurrogateCache::export`]): they are re-stamped in sequence, so
    /// LRU eviction behaves exactly as in the donor. Entries beyond
    /// `capacity` evict from the front, mirroring what the donor's own
    /// bound would have kept.
    pub(crate) fn restore(
        capacity: usize,
        hits: u64,
        misses: u64,
        entries: Vec<(Vec<AttrId>, Arc<SurrogateFit>)>,
    ) -> Self {
        Self::restore_full(
            capacity,
            hits,
            misses,
            entries.into_iter().map(|(k, f)| (k, false, f)).collect(),
        )
    }

    /// [`SurrogateCache::restore`] with per-entry staleness — the
    /// live-table hand-off. A stale entry keeps its key resident (and
    /// its LRU position) but answers the next lookup by refitting.
    pub(crate) fn restore_full(
        capacity: usize,
        hits: u64,
        misses: u64,
        entries: Vec<(Vec<AttrId>, bool, Arc<SurrogateFit>)>,
    ) -> Self {
        let cache = SurrogateCache::new(capacity);
        {
            let mut inner = cache.inner.lock().expect("surrogate cache lock");
            let keep = entries.len().saturating_sub(cache.capacity);
            for (key, stale, fit) in entries.into_iter().skip(keep) {
                inner.stamp += 1;
                let stamp = inner.stamp;
                inner.map.insert(
                    key,
                    SurrogateSlot {
                        touched: stamp,
                        stale,
                        fit,
                    },
                );
            }
        }
        cache.hits.store(hits, Ordering::Relaxed);
        cache.misses.store(misses, Ordering::Relaxed);
        cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LewisError;

    fn fit_of(v: f64) -> SurrogateFit {
        SurrogateFit {
            intercept: v,
            coefficients: vec![v; 3],
            orders: vec![vec![0, 1, 2]],
        }
    }

    #[test]
    fn hit_returns_same_fit_and_counts() {
        let cache = SurrogateCache::new(8);
        let key = vec![AttrId(1), AttrId(2)];
        let a = cache.get_or_build(&key, || Ok(fit_of(1.0))).unwrap();
        let b = cache
            .get_or_build(&key, || panic!("must not refit on a hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must return the cached fit");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn key_order_matters() {
        // [1, 2] and [2, 1] have different coefficient layouts: both
        // must be resident, neither may answer for the other.
        let cache = SurrogateCache::new(8);
        cache
            .get_or_build(&[AttrId(1), AttrId(2)], || Ok(fit_of(1.0)))
            .unwrap();
        let b = cache
            .get_or_build(&[AttrId(2), AttrId(1)], || Ok(fit_of(2.0)))
            .unwrap();
        assert_eq!(b.intercept, 2.0, "reversed set must fit fresh");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn capacity_bounds_residency_lru() {
        let cache = SurrogateCache::new(2);
        for v in 0..4u32 {
            cache
                .get_or_build(&[AttrId(v)], || Ok(fit_of(f64::from(v))))
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2, "LRU must evict down to capacity");
        assert_eq!(s.misses, 4);
        // the two newest keys survive
        cache
            .get_or_build(&[AttrId(3)], || panic!("3 must be resident"))
            .unwrap();
        cache
            .get_or_build(&[AttrId(2)], || panic!("2 must be resident"))
            .unwrap();
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = SurrogateCache::new(2);
        for _ in 0..2 {
            let r = cache.get_or_build(&[AttrId(0)], || Err(LewisError::Invalid("bad set".into())));
            assert!(r.is_err());
        }
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.misses, 2, "both lookups must have tried to fit");
    }

    #[test]
    fn export_restore_round_trips_in_recency_order() {
        let cache = SurrogateCache::new(4);
        for v in 0..3u32 {
            cache
                .get_or_build(&[AttrId(v)], || Ok(fit_of(f64::from(v))))
                .unwrap();
        }
        // touch 0 so it becomes most recent
        cache
            .get_or_build(&[AttrId(0)], || panic!("resident"))
            .unwrap();
        let (hits, misses, entries) = cache.export();
        assert_eq!((hits, misses), (1, 3));
        let keys: Vec<_> = entries.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            keys,
            vec![vec![AttrId(1)], vec![AttrId(2)], vec![AttrId(0)]],
            "least recently touched first"
        );
        // restoring into a smaller cache keeps the most recent entries
        let small = SurrogateCache::restore(2, hits, misses, entries);
        assert_eq!(small.stats().entries, 2);
        small
            .get_or_build(&[AttrId(0)], || panic!("most recent must survive"))
            .unwrap();
        small
            .get_or_build(&[AttrId(2)], || panic!("second most recent must survive"))
            .unwrap();
    }

    #[test]
    fn stale_entries_refit_in_place_and_stay_resident() {
        let cache = SurrogateCache::new(4);
        for v in 0..2u32 {
            cache
                .get_or_build(&[AttrId(v)], || Ok(fit_of(f64::from(v))))
                .unwrap();
        }
        // mark everything stale, as an append does
        let (hits, misses, entries) = cache.export_full();
        let stale = SurrogateCache::restore_full(
            4,
            hits,
            misses,
            entries.into_iter().map(|(k, _, f)| (k, true, f)).collect(),
        );
        assert_eq!(stale.stats().entries, 2, "keys stay resident");
        // a stale lookup refits (a miss) and replaces the entry fresh
        let refit = stale
            .get_or_build(&[AttrId(0)], || Ok(fit_of(10.0)))
            .unwrap();
        assert_eq!(refit.intercept, 10.0, "stale entry must refit");
        stale
            .get_or_build(&[AttrId(0)], || panic!("refit entry is fresh"))
            .unwrap();
        // snapshots carry only fresh fits; full exports carry both
        let (_, _, fresh) = stale.export();
        assert_eq!(fresh.len(), 1, "stale fit of AttrId(1) is omitted");
        assert_eq!(fresh[0].0, vec![AttrId(0)]);
        let (_, _, full) = stale.export_full();
        assert_eq!(full.len(), 2);
        assert!(full.iter().any(|(k, s, _)| k == &[AttrId(1)] && *s));
    }
}
