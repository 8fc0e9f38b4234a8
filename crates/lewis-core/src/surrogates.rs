//! Bounded, thread-safe cache of fitted recourse surrogates.
//!
//! Every recourse query over the same actionable set needs the same
//! logit-linear surrogate (eq. 28) — the one genuinely expensive part
//! of answering recourse: one counting pass over the actionable, context
//! and prediction attributes (the estimator's cube, walk or scan), read
//! as the table's distinct patterns, then a Newton fit over those. Real
//! traffic repeats actionable sets constantly (a product exposes a
//! handful of "what can the user change" configurations), so the
//! [`crate::Engine`] keeps the fitted coefficients here and rebuilds the
//! per-row generator from warm coefficients in microseconds.
//!
//! The cache is the same bounded, thread-safe LRU as [`crate::cache`]'s
//! counting cache (a fit runs outside its lock), shared the same way by
//! every generation of a live table, with the same properties:
//! * **bit-identical results** — a hit returns the very
//!   [`SurrogateFit`] a cold fit would have produced (the grouped
//!   Newton fit depends only on the multiset of rows, not on shard
//!   count or row order), so cached recourse equals uncached recourse
//!   bit for bit;
//! * **refit from a row watermark** — each entry keeps the grouped
//!   [`Patterns`] its fit came from and the logical row count (base +
//!   delta) they cover. Once a live engine has grown past it, the next
//!   lookup is a miss that counts only the appended rows (the counting
//!   pass since the watermark, as a cached pass's top-up does), merges
//!   them into the kept patterns and reruns Newton over the merge — the
//!   same coefficients a cold fit over every row gives;
//! * **exportable** — fits round-trip through engine snapshots and
//!   `.lewis` packs (format v6; fits from older packs are dropped and
//!   refit lazily), so a restored server answers recourse from warm
//!   coefficients without refitting. Patterns are not persisted: a
//!   restored fit's first refit counts every row once.

use crate::cache::Lru;
use crate::recourse::SurrogateFit;
use crate::Result;
use ml::Patterns;
use std::sync::Arc;
use tabular::AttrId;

/// A resident fit and the grouped rows it came from; the patterns are
/// `None` for a fit restored from a snapshot, whose next refit counts
/// from row 0.
pub(crate) type Fitted = (Arc<SurrogateFit>, Option<Arc<Patterns>>);

/// The surrogate cache, keyed by the exact *ordered* actionable set —
/// the order fixes the surrogate's coefficient layout, so two orderings
/// of the same attributes are distinct (and both valid) entries.
pub(crate) type SurrogateCache = Lru<Vec<AttrId>, Fitted>;

impl SurrogateCache {
    /// The fit for `actionable` over the first `rows` logical rows. A
    /// resident fit over exactly `rows` rows is a hit. Otherwise it is a
    /// miss and `fit` runs outside the lock: with `Some((patterns, w))`
    /// when the resident entry kept the patterns of its first `w < rows`
    /// rows (count rows `w..rows` and merge: a top-up), with `None`
    /// for a full fit. The result replaces the entry (the fit is a pure
    /// function of the live rows, so a concurrent refit inserts the
    /// identical coefficients — harmless). Errors are returned without
    /// being cached, so an invalid actionable set does not poison later
    /// lookups.
    pub(crate) fn get_or_fit(
        &self,
        actionable: &[AttrId],
        rows: usize,
        fit: impl FnOnce(Option<(&Patterns, usize)>) -> Result<(SurrogateFit, Patterns)>,
    ) -> Result<Arc<SurrogateFit>> {
        let kept = match self.touch(actionable, rows) {
            Some(((fit, _), watermark)) if watermark == rows => {
                self.tally(true, false);
                return Ok(fit);
            }
            Some(((_, patterns), watermark)) => patterns.map(|p| (p, watermark)),
            None => None,
        };
        self.tally(false, kept.is_some());
        let (fitted, patterns) = fit(kept.as_ref().map(|(p, w)| (&**p, *w)))?;
        let fitted = Arc::new(fitted);
        let value = (Arc::clone(&fitted), Some(Arc::new(patterns)));
        self.insert(actionable.to_vec(), value, rows);
        Ok(fitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LewisError;
    use tabular::{Context, Counter, Domain, Schema, Table};

    /// A fit with every coefficient `v`, and the (empty) patterns it
    /// claims to come from.
    fn fit_of(v: f64) -> Result<(SurrogateFit, Patterns)> {
        let mut schema = Schema::new();
        let label = schema.push("label", Domain::boolean());
        let count = Counter::build(&Table::new(schema), &[label], &Context::empty())?;
        let fit = SurrogateFit {
            intercept: v,
            coefficients: vec![v; 3],
            orders: vec![vec![0, 1, 2]],
        };
        Ok((fit, Patterns::from_counter(&count, 1)?))
    }

    #[test]
    fn hit_returns_same_fit_and_counts() {
        let cache = SurrogateCache::new(8);
        let key = vec![AttrId(1), AttrId(2)];
        let a = cache.get_or_fit(&key, 10, |_| fit_of(1.0)).unwrap();
        let b = cache
            .get_or_fit(&key, 10, |_| panic!("must not refit on a hit"))
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
            .get_or_fit(&[AttrId(1), AttrId(2)], 10, |_| fit_of(1.0))
            .unwrap();
        let b = cache
            .get_or_fit(&[AttrId(2), AttrId(1)], 10, |_| fit_of(2.0))
            .unwrap();
        assert_eq!(b.intercept, 2.0, "reversed set must fit fresh");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn capacity_bounds_residency_lru() {
        let cache = SurrogateCache::new(2);
        for v in 0..4u32 {
            cache
                .get_or_fit(&[AttrId(v)], 10, |_| fit_of(f64::from(v)))
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2, "LRU must evict down to capacity");
        assert_eq!(s.misses, 4);
        // the two newest keys survive
        cache
            .get_or_fit(&[AttrId(3)], 10, |_| panic!("3 must be resident"))
            .unwrap();
        cache
            .get_or_fit(&[AttrId(2)], 10, |_| panic!("2 must be resident"))
            .unwrap();
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = SurrogateCache::new(2);
        for _ in 0..2 {
            let r = cache.get_or_fit(&[AttrId(0)], 10, |_| {
                Err(LewisError::Invalid("bad set".into()))
            });
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
                .get_or_fit(&[AttrId(v)], 10, |_| fit_of(f64::from(v)))
                .unwrap();
        }
        // touch 0 so it becomes most recent
        cache
            .get_or_fit(&[AttrId(0)], 10, |_| panic!("resident"))
            .unwrap();
        let (hits, misses, entries) = cache.export(10);
        assert_eq!((hits, misses), (1, 3));
        let keys: Vec<_> = entries.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            keys,
            vec![vec![AttrId(1)], vec![AttrId(2)], vec![AttrId(0)]],
            "least recently touched first"
        );
        // restoring into a smaller cache keeps the most recent entries
        let small = SurrogateCache::restore(2, hits, misses, entries, 10);
        assert_eq!(small.stats().entries, 2);
        small
            .get_or_fit(&[AttrId(0)], 10, |_| panic!("most recent must survive"))
            .unwrap();
        small
            .get_or_fit(&[AttrId(2)], 10, |_| {
                panic!("second most recent must survive")
            })
            .unwrap();
    }

    #[test]
    fn grown_lookups_refit_from_the_kept_patterns_and_stay_resident() {
        let cache = SurrogateCache::new(4);
        for v in 0..2u32 {
            cache
                .get_or_fit(&[AttrId(v)], 10, |_| fit_of(f64::from(v)))
                .unwrap();
        }
        // a lookup over more rows is a miss that is handed the kept
        // patterns and their watermark, then replaces the entry
        let refit = cache
            .get_or_fit(&[AttrId(0)], 14, |kept| {
                assert_eq!(kept.map(|(_, w)| w), Some(10), "refit from row 10");
                fit_of(10.0)
            })
            .unwrap();
        assert_eq!(refit.intercept, 10.0);
        cache
            .get_or_fit(&[AttrId(0)], 14, |_| panic!("refit entry covers 14 rows"))
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.topped_up), (1, 3, 1));
        assert_eq!(s.entries, 2, "keys stay resident");
        // snapshots carry only fits over every row
        let (_, _, current) = cache.export(14);
        assert_eq!(current.len(), 1, "the fit of AttrId(1) covers 10 rows");
        assert_eq!(current[0].0, vec![AttrId(0)]);
        // a fit restored from a snapshot has no patterns: its first
        // refit starts at row 0
        let (hits, misses, entries) = cache.export(14);
        let entries = entries.into_iter().map(|(k, (f, _))| (k, (f, None)));
        let restored = SurrogateCache::restore(4, hits, misses, entries.collect(), 14);
        restored
            .get_or_fit(&[AttrId(0)], 20, |kept| {
                assert!(kept.is_none(), "no patterns survive a snapshot");
                fit_of(20.0)
            })
            .unwrap();
        // an older generation over 10 rows fits its own and leaves the
        // entry over 14 rows resident
        cache.get_or_fit(&[AttrId(0)], 10, |_| fit_of(1.0)).unwrap();
        cache
            .get_or_fit(&[AttrId(0)], 14, |_| panic!("still covers 14 rows"))
            .unwrap();
    }
}
