//! Seeded warm-up mixes: pre-run a deterministic stream of queries so a
//! snapshot (`lewis-pack --warm`) ships with a populated counting-pass
//! cache and the restored server starts at steady-state hit rates.
//!
//! The mix is dashboard-shaped — mostly contextual probes, a stream of
//! per-individual locals, the occasional global sweep — and draws
//! context values and rows from the engine's *own table*, so warmed
//! contexts are guaranteed to be populated (a warm-up that mostly hits
//! `Unsupported` warms nothing). Recourse is deliberately absent: it
//! exercises the surrogate cache, not the counting cache, and that
//! cache is warmed on its own terms — `lewis-pack --warm-recourse` fits
//! one surrogate per feature, and the pack (format v6) carries the fits
//! to the restored server.

use lewis_core::{Engine, ExplainRequest};
use tabular::Context;

/// xorshift64* — tiny, seedable, good enough to spread queries.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n.max(1))) as u32
    }
}

/// Synthesize `n` warm-up requests for `engine`, deterministically from
/// `seed`. The same `(engine shape, n, seed)` always yields the same
/// stream, so warm caches are replayable.
pub fn warm_requests(engine: &Engine, n: usize, seed: u64) -> Vec<ExplainRequest> {
    let mut rng = Rng::new(seed ^ 0x5EED_CAFE);
    let features = engine.features();
    let table = engine.table();
    let n_rows = table.n_rows() as u32;
    let mut out = Vec::with_capacity(n);
    if features.is_empty() || n_rows == 0 {
        return out;
    }
    for _ in 0..n {
        let pick = rng.below(100);
        let request = if pick < 10 {
            ExplainRequest::Global
        } else if pick < 70 {
            // one-attribute sub-population taken from a real row, so the
            // context always has support
            let ctx_attr = features[rng.below(features.len() as u32) as usize];
            let row = table.row(rng.below(n_rows) as usize).expect("row in range");
            ExplainRequest::ContextualGlobal {
                k: Context::of([(ctx_attr, row[ctx_attr.index()])]),
            }
        } else {
            let row = table.row(rng.below(n_rows) as usize).expect("row in range");
            ExplainRequest::Local { row }
        };
        out.push(request);
    }
    out
}

/// Run a seeded warm-up mix against `engine` and return
/// `(answered, unsupported)`. Infrastructure errors (anything that is
/// not the expected no-data-support outcome) propagate — a warm-up that
/// cannot run means the engine is misconfigured.
pub fn warm_engine(
    engine: &Engine,
    n: usize,
    seed: u64,
) -> Result<(usize, usize), lewis_core::LewisError> {
    let requests = warm_requests(engine, n, seed);
    let mut answered = 0usize;
    let mut unsupported = 0usize;
    for result in engine.run_batch(&requests) {
        match result {
            Ok(_) => answered += 1,
            Err(e) if e.is_unsupported() => unsupported += 1,
            Err(e) => return Err(e),
        }
    }
    Ok((answered, unsupported))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::EngineRegistry;

    fn engine() -> std::sync::Arc<Engine> {
        let mut reg = EngineRegistry::new();
        reg.load_builtin("german_syn", 600, 3).unwrap();
        reg.get("german_syn").unwrap().engine()
    }

    #[test]
    fn warm_streams_are_deterministic_and_in_domain() {
        let e = engine();
        let a = warm_requests(&e, 64, 9);
        let b = warm_requests(&e, 64, 9);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = warm_requests(&e, 64, 10);
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "seed matters");
        // the mix visits all three kinds
        let kinds: Vec<&str> = a
            .iter()
            .map(|r| match r {
                ExplainRequest::Global => "g",
                ExplainRequest::ContextualGlobal { .. } => "c",
                ExplainRequest::Local { .. } => "l",
                _ => "other",
            })
            .collect();
        assert!(kinds.contains(&"g") && kinds.contains(&"c") && kinds.contains(&"l"));
        assert!(!kinds.contains(&"other"));
    }

    #[test]
    fn warming_populates_the_cache_with_mostly_answerable_queries() {
        let e = engine();
        let (answered, unsupported) = warm_engine(&e, 64, 7).unwrap();
        assert_eq!(answered + unsupported, 64);
        assert!(
            answered >= 60,
            "contexts drawn from real rows mostly answer: {answered}/64"
        );
        assert!(e.cache_stats().entries > 0, "warm-up fills the cache");
    }
}
