//! The rule catalogue and the path policy saying where each rule
//! applies.
//!
//! Paths are workspace-relative with `/` separators (e.g.
//! `crates/serve/src/wire.rs`). The linter walks the `src/` tree of
//! every workspace member (plus the root package); integration-test
//! directories (`tests/`), benches and examples are out of scope — the
//! invariants below protect *production* code paths, and `#[cfg(test)]`
//! / `#[test]` regions inside linted files are skipped for the same
//! reason.

/// Where a rule applies.
#[derive(Debug, Clone, Copy)]
pub enum Applies {
    /// Every linted file.
    Everywhere,
    /// Exactly these files.
    Files(&'static [&'static str]),
    /// Every linted file under one of these directory prefixes.
    Prefixes(&'static [&'static str]),
}

/// A lint rule: identifier (as used in `lint:allow(...)`), a one-line
/// summary, and its path policy.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case id, e.g. `total-cmp`.
    pub id: &'static str,
    /// One-line human summary shown in reports.
    pub summary: &'static str,
    /// Path policy.
    pub applies: Applies,
}

/// Files whose bytes arrive from untrusted sources (network requests,
/// on-disk packs). Rule `no-panic-on-input` bans panicking operators
/// here outright: a crafted request or a corrupt pack must surface as a
/// typed error, never a worker panic.
const UNTRUSTED_INPUT_FILES: &[&str] = &[
    "crates/serve/src/wire.rs",
    "crates/serve/src/http.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/registry.rs",
    "crates/serve/src/router.rs",
    "crates/serve/src/admission.rs",
    "crates/store/src/bytes.rs",
    "crates/store/src/pack.rs",
    "crates/index/src/codec.rs",
];

/// Modules where f64 summation order or serialized byte order could
/// leak hash-iteration order: the counting engine and its merge path,
/// snapshot/cache export, row sharding, the pack writer and the bitmap
/// kernels (with their CPU-tier dispatch) every indexed count runs. LEWIS's
/// bit-identical-results guarantee (sharding, caching, pack round-trips)
/// lives or dies in these files.
const DETERMINISM_CRITICAL_FILES: &[&str] = &[
    "crates/tabular/src/groupby.rs",
    "crates/tabular/src/shard.rs",
    "crates/tabular/src/bitmap.rs",
    "crates/lewis-core/src/scores.rs",
    "crates/lewis-core/src/cache.rs",
    "crates/lewis-core/src/snapshot.rs",
    "crates/lewis-core/src/surrogates.rs",
    "crates/store/src/pack.rs",
    "crates/index/src/lib.rs",
    "crates/index/src/codec.rs",
    "crates/live/src/lib.rs",
];

/// Crates doing pure computation: wall-clock reads here would make
/// results (or serialized artifacts) depend on when they ran. Timing
/// belongs in `serve` and `bench`.
const ENGINE_CRATE_PREFIXES: &[&str] = &[
    "crates/lewis-core/",
    "crates/tabular/",
    "crates/causal/",
    "crates/ml/",
    "crates/xai/",
    "crates/optim/",
    "crates/datasets/",
    "crates/store/",
    "crates/index/",
    "crates/live/",
];

/// The rule catalogue. Ids are the names accepted by
/// `// lint:allow(<id>): <reason>`.
pub const RULES: &[Rule] = &[
    Rule {
        id: "total-cmp",
        summary: "sort comparators must use total_cmp, not partial_cmp \
                  (deterministic total order; no NaN panic)",
        applies: Applies::Everywhere,
    },
    Rule {
        id: "ordered-iteration",
        summary: "no iteration over HashMap/HashSet in determinism-critical \
                  modules (iteration order is arbitrary)",
        applies: Applies::Files(DETERMINISM_CRITICAL_FILES),
    },
    Rule {
        id: "no-panic-on-input",
        summary: "no unwrap/expect/panic!/unreachable!/todo! on untrusted-byte \
                  paths; return typed errors",
        applies: Applies::Files(UNTRUSTED_INPUT_FILES),
    },
    Rule {
        id: "safety-comment",
        summary: "every `unsafe` needs an adjacent `// SAFETY:` comment",
        applies: Applies::Everywhere,
    },
    Rule {
        id: "no-silent-default",
        summary: "unwrap_or_default() silently swallows failures; handle the \
                  None/Err case explicitly",
        applies: Applies::Everywhere,
    },
    Rule {
        id: "no-wall-clock",
        summary: "no SystemTime::now/Instant::now in engine/counting crates \
                  (timing belongs in serve/bench)",
        applies: Applies::Prefixes(ENGINE_CRATE_PREFIXES),
    },
];

/// Meta-rule id for malformed `lint:allow` comments (unknown rule name,
/// missing `: reason`). Not suppressible.
pub const BAD_ALLOW: &str = "bad-allow";

/// Meta-rule id for `lint:allow` comments that suppressed nothing.
/// Not suppressible — suppressions must not rot.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// Look up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Does `rule` apply to the file at workspace-relative `path`?
pub fn rule_applies(rule: &Rule, path: &str) -> bool {
    match rule.applies {
        Applies::Everywhere => true,
        Applies::Files(files) => files.contains(&path),
        Applies::Prefixes(prefixes) => prefixes.iter().any(|p| path.starts_with(p)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_ids_are_unique_and_kebab_case() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            assert!(!RULES[i + 1..].iter().any(|o| o.id == r.id));
        }
    }

    #[test]
    fn policies_resolve() {
        let r3 = rule_by_id("no-panic-on-input").unwrap();
        assert!(rule_applies(r3, "crates/serve/src/wire.rs"));
        assert!(!rule_applies(r3, "crates/serve/src/metrics.rs"));
        let r6 = rule_by_id("no-wall-clock").unwrap();
        assert!(rule_applies(r6, "crates/ml/src/tree.rs"));
        assert!(rule_applies(r6, "crates/live/src/lib.rs"));
        assert!(!rule_applies(r6, "crates/serve/src/server.rs"));
        let r2 = rule_by_id("ordered-iteration").unwrap();
        assert!(rule_applies(r2, "crates/live/src/lib.rs"));
        let r1 = rule_by_id("total-cmp").unwrap();
        assert!(rule_applies(r1, "src/lib.rs"));
    }
}
