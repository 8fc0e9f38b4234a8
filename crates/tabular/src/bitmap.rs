//! Fixed-length row bitmaps: the building block of bitmap indexes.
//!
//! A [`Bitmap`] is a set of row positions over a fixed row range,
//! packed 64 rows per `u64` word. Conjunctive row predicates over
//! dictionary-coded columns — exactly the shape of every LEWIS
//! counting query — reduce to word-wise `AND` plus `popcount`, which
//! is why the `lewis-index` crate stores one bitmap per
//! `(attribute, code)` pair.
//!
//! Bit `i` of word `i / 64` (bit position `i % 64`) corresponds to row
//! `i` of the covered range. Trailing bits past `len` are always zero —
//! an invariant [`Bitmap::from_words`] enforces on untrusted input so
//! popcounts can never over-report.
//!
//! The counting kernels ([`count_ones`], [`and_count`], [`and_into`],
//! [`and_assign`], [`and_count_multi`]) take plain word slices of equal
//! length, so they serve a whole bitmap and a window of one alike.
//!
//! ## Kernel tiers
//!
//! Each counting kernel, and [`and_assign`], exists in three compiled
//! copies. On x86-64 a process runs the fastest copy its CPU supports:
//! the `avx512` twins (AVX-512 with `avx512vpopcntdq`: a 512-bit `vpand`
//! and `vpopcntq` per eight words), then the `kernels` twins (scalar
//! `popcnt`), then the portable code. CPU features are probed once per
//! process. [`kernel_tier`] names the chosen tier. All three copies
//! inline the same private `_body` function, so the tier can change
//! only latency, never a count. A test compares every tier the CPU has
//! against the portable bodies.

use crate::domain::Value;
use crate::error::TabularError;
use crate::Result;

/// A fixed-length bit set over row positions `0..len`, packed into
/// `u64` words (least-significant bit first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

/// Number of `u64` words needed to hold `len` bits.
pub fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

impl Bitmap {
    /// An all-zero bitmap over `len` rows.
    pub fn zeros(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0u64; words_for(len)],
            len,
        }
    }

    /// An all-one bitmap over `len` rows (trailing bits zero).
    pub fn ones(len: usize) -> Bitmap {
        let mut b = Bitmap {
            words: vec![u64::MAX; words_for(len)],
            len,
        };
        b.clear_tail();
        b
    }

    /// Reassemble a bitmap from raw words (the deserialization path).
    /// Rejects a word count that does not match `len` and any set bit
    /// past `len` — both would silently corrupt downstream popcounts.
    pub fn from_words(words: Vec<u64>, len: usize) -> Result<Bitmap> {
        if words.len() != words_for(len) {
            return Err(TabularError::InvalidArgument(format!(
                "bitmap of {len} rows needs {} words, got {}",
                words_for(len),
                words.len()
            )));
        }
        let b = Bitmap { words, len };
        if let Some(&last) = b.words.last() {
            let used = b.len - (b.words.len() - 1) * 64;
            if used < 64 && last >> used != 0 {
                return Err(TabularError::InvalidArgument(
                    "bitmap has set bits past its row count".into(),
                ));
            }
        }
        Ok(b)
    }

    /// Number of rows covered (bits, not set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words, least-significant bit = lowest row.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Set the bit for row `i`.
    ///
    /// # Panics
    /// Panics (debug) if `i >= len` — construction code controls `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of {} rows", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether the bit for row `i` is set (`false` past the end).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        count_ones(&self.words)
    }

    /// Visit the row position of every set bit, in ascending order.
    pub fn for_each_set<F: FnMut(usize)>(&self, mut f: F) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }

    /// Heap bytes held by the packed words.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }

    fn clear_tail(&mut self) {
        let n_words = self.words.len();
        if let Some(last) = self.words.last_mut() {
            let used = self.len - (n_words - 1) * 64;
            if used < 64 {
                *last &= (1u64 << used) - 1;
            }
        }
    }
}

impl AsRef<[u64]> for Bitmap {
    fn as_ref(&self) -> &[u64] {
        &self.words
    }
}

/// Runs `$kernel($args)` on tier `$tier`: its twin in [`avx512`] or
/// [`kernels`], or the portable `$body`. Every tier runs the same
/// `$body` code. `$tier` must be one the CPU executes: [`tier`], or in
/// tests a tier it was checked against.
macro_rules! run_on {
    ($tier:expr, $kernel:ident, $body:ident($($arg:expr),*)) => {
        match $tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `$tier` is `Avx512` only when the CPU has every
            // feature `avx512` is compiled for.
            Tier::Avx512 => unsafe { avx512::$kernel($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `$tier` is `Popcnt` only when the CPU has the
            // `popcnt` feature `kernels` is compiled for.
            Tier::Popcnt => unsafe { kernels::$kernel($($arg),*) },
            Tier::Portable => $body($($arg),*),
        }
    };
}

/// Popcount of `words`.
pub fn count_ones(words: &[u64]) -> u64 {
    run_on!(tier(), count_ones, count_ones_body(words))
}

/// `popcount(a & b)` without materializing the intersection.
pub fn and_count(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len(), "AND over mismatched word ranges");
    run_on!(tier(), and_count, and_count_body(a, b))
}

/// Write `a & b` into `out` and return its popcount, in one pass over
/// the words. This is the inner-node step of the index's grid walk.
pub fn and_into(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len(), "AND over mismatched word ranges");
    debug_assert_eq!(a.len(), out.len(), "AND into a mismatched word range");
    run_on!(tier(), and_into, and_into_body(a, b, out))
}

/// `mask &= b`, word by word. No popcount, so the loop vectorizes: a
/// context folds into a root mask this way and is counted once.
pub fn and_assign(mask: &mut [u64], b: &[u64]) {
    debug_assert_eq!(mask.len(), b.len(), "AND over mismatched word ranges");
    run_on!(tier(), and_assign, and_assign_body(mask, b))
}

/// Fused two-level intersection counts: returns `popcount(a & b)` and
/// writes `popcount(a & b & thirds[j])` into `out[j]`, all in one pass
/// with no intermediate words. This is the second-to-last-level kernel
/// of the index's grid walk, where `thirds` are the leaf attribute's
/// code words: the `a & b` word is visited once and AND-ed against each
/// leaf word in registers.
///
/// All slices must have the same length; `out` must have `thirds.len()`
/// slots and is overwritten.
pub fn and_count_multi<T: AsRef<[u64]>>(
    a: &[u64],
    b: &[u64],
    thirds: &[T],
    out: &mut [u64],
) -> u64 {
    debug_assert_eq!(a.len(), b.len(), "AND over mismatched word ranges");
    debug_assert_eq!(thirds.len(), out.len(), "one count slot per third");
    match (thirds, out) {
        // no leaf codes to split out: a plain fused AND-popcount
        ([], _) => and_count(a, b),
        // one third (binary leaf attributes — the prediction column
        // — land here): branch-free zip the optimizer can unroll
        ([t], [o]) => {
            let t = t.as_ref();
            debug_assert_eq!(a.len(), t.len(), "AND over mismatched word ranges");
            let (total, n) = run_on!(tier(), and_count_pair, and_count_pair_body(a, b, t));
            *o = n;
            total
        }
        // wider leaves: word-major with zero-word skipping, which
        // pays off once several popcounts hang off each word
        (thirds, out) => run_on!(tier(), and_count_fan, and_count_fan_body(a, b, thirds, out)),
    }
}

/// A compiled copy of the counting kernels; [`tier`] picks one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// [`avx512`]: 512-bit `vpopcntq`, eight words per instruction.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// [`kernels`]: the scalar `popcnt` instruction, one word at a time.
    #[cfg(target_arch = "x86_64")]
    Popcnt,
    /// The `_body` functions under the baseline target.
    Portable,
}

/// The fastest kernel tier this CPU runs, probed once per process and
/// then read from a `OnceLock`. The portable `u64::count_ones` lowers to
/// a ~12-op bit-twiddling sequence under the baseline x86-64 target, so
/// the counting kernels dispatch to twins of themselves compiled with
/// the features enabled when the CPU has them: first [`avx512`] (the
/// `avx512vpopcntdq` extension, which popcounts a 512-bit vector in one
/// instruction), then [`kernels`] (`popcnt`). Every tier runs the
/// *same* `_body` code, so dispatch can only change latency, never a
/// count.
fn tier() -> Tier {
    static TIER: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
    *TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("popcnt") && has!("avx2") && has!("avx512f") && has!("avx512vpopcntdq") {
                return Tier::Avx512;
            }
            if has!("popcnt") {
                return Tier::Popcnt;
            }
        }
        Tier::Portable
    })
}

/// The name of the kernel tier this process dispatches to:
/// `"avx512vpopcntdq"`, `"popcnt"` or `"portable"` (what a server
/// reports under `/metrics`).
pub fn kernel_tier() -> &'static str {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => "avx512vpopcntdq",
        #[cfg(target_arch = "x86_64")]
        Tier::Popcnt => "popcnt",
        Tier::Portable => "portable",
    }
}

#[inline(always)]
fn count_ones_body(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

#[inline(always)]
fn and_count_body(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| u64::from((x & y).count_ones()))
        .sum()
}

#[inline(always)]
fn and_into_body(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
    let mut count = 0u64;
    for ((&x, &y), w) in a.iter().zip(b).zip(out) {
        let v = x & y;
        *w = v;
        count += u64::from(v.count_ones());
    }
    count
}

#[inline(always)]
fn and_assign_body(mask: &mut [u64], b: &[u64]) {
    for (w, &y) in mask.iter_mut().zip(b) {
        *w &= y;
    }
}

#[inline(always)]
fn and_count_pair_body(a: &[u64], b: &[u64], c: &[u64]) -> (u64, u64) {
    let mut total = 0u64;
    let mut n = 0u64;
    for ((&x, &y), &z) in a.iter().zip(b).zip(c) {
        let v = x & y;
        total += u64::from(v.count_ones());
        n += u64::from((v & z).count_ones());
    }
    (total, n)
}

#[inline(always)]
fn and_count_fan_body<T: AsRef<[u64]>>(a: &[u64], b: &[u64], thirds: &[T], out: &mut [u64]) -> u64 {
    out.fill(0);
    let mut total = 0u64;
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let v = x & y;
        if v == 0 {
            continue;
        }
        total += u64::from(v.count_ones());
        for (t, o) in thirds.iter().zip(out.iter_mut()) {
            *o += u64::from((v & t.as_ref()[i]).count_ones());
        }
    }
    total
}

/// One tier's twins of the kernels: each calls its `_body` function
/// inside a function compiled with the tier's `$features`, so the body
/// is inlined and lowered with those instructions. Calling one is
/// `unsafe` (undefined on CPUs without the features); the only call
/// sites sit behind [`tier`].
#[cfg(target_arch = "x86_64")]
macro_rules! twins {
    ($features:literal) => {
        #[target_feature(enable = $features)]
        pub fn count_ones(words: &[u64]) -> u64 {
            super::count_ones_body(words)
        }

        #[target_feature(enable = $features)]
        pub fn and_count(a: &[u64], b: &[u64]) -> u64 {
            super::and_count_body(a, b)
        }

        #[target_feature(enable = $features)]
        pub fn and_into(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
            super::and_into_body(a, b, out)
        }

        #[target_feature(enable = $features)]
        pub fn and_assign(mask: &mut [u64], b: &[u64]) {
            super::and_assign_body(mask, b)
        }

        #[target_feature(enable = $features)]
        pub fn and_count_pair(a: &[u64], b: &[u64], c: &[u64]) -> (u64, u64) {
            super::and_count_pair_body(a, b, c)
        }

        #[target_feature(enable = $features)]
        pub fn and_count_fan<T: AsRef<[u64]>>(
            a: &[u64],
            b: &[u64],
            thirds: &[T],
            out: &mut [u64],
        ) -> u64 {
            super::and_count_fan_body(a, b, thirds, out)
        }
    };
}

/// The kernels compiled with the `popcnt` target feature, so every
/// `count_ones` lowers to the single scalar instruction.
#[cfg(target_arch = "x86_64")]
mod kernels {
    twins!("popcnt");
}

/// The kernels compiled for AVX-512 with `avx512vpopcntdq`, so the
/// word loops vectorize to 512-bit `vpand` and `vpopcntq`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    twins!("popcnt,avx2,avx512f,avx512vpopcntdq");
}

/// The words of one bitmap per dictionary code over a column slice:
/// bit `i` of `out[code]` is set iff `col[i] == code`, so `out` holds
/// one word range per code, each `words_for(col.len())` words long.
/// This is the per-(attribute, code) index build primitive: a table's
/// column split at multiples of 64 rows fills disjoint word ranges of
/// its bitmaps. Each word is assembled off to the side from its 64 rows
/// and stored once.
///
/// Codes at or above `out.len()` (impossible in a validated
/// [`crate::Table`], whose constructors check domains) are a typed
/// error naming the row, `first_row` plus its offset in `col`, rather
/// than dropped, so an index can never silently under-count.
pub fn code_words(col: &[Value], first_row: usize, out: &mut [&mut [u64]]) -> Result<()> {
    let cardinality = out.len();
    debug_assert!(out.iter().all(|w| w.len() == words_for(col.len())));
    let mut word = vec![0u64; cardinality];
    for (wi, rows) in col.chunks(64).enumerate() {
        for (bit, &code) in rows.iter().enumerate() {
            let Some(w) = word.get_mut(code as usize) else {
                let row = first_row + wi * 64 + bit;
                return Err(TabularError::InvalidArgument(format!(
                    "code {code} at row {row} exceeds cardinality {cardinality}"
                )));
            };
            *w |= 1u64 << bit;
        }
        for (words, w) in out.iter_mut().zip(&mut word) {
            words[wi] = std::mem::take(w);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count_roundtrip() {
        let mut b = Bitmap::zeros(130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            b.set(i);
            assert!(b.get(i));
        }
        assert!(!b.get(2));
        assert_eq!(b.count_ones(), 8);
        assert_eq!(b.words().len(), 3);
    }

    #[test]
    fn ones_clears_the_tail() {
        let b = Bitmap::ones(70);
        assert_eq!(b.count_ones(), 70);
        assert!(!b.get(70));
        let full = Bitmap::ones(128);
        assert_eq!(full.count_ones(), 128);
        let empty = Bitmap::ones(0);
        assert_eq!(empty.count_ones(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn and_kernels_match_set_intersection() {
        let multiples = |k: usize| {
            let mut b = Bitmap::zeros(100);
            (0..100).filter(|i| i % k == 0).for_each(|i| b.set(i));
            b
        };
        let (a, b) = (multiples(2), multiples(3));
        let (a, b) = (a.words(), b.words());
        assert_eq!(and_count(a, b), 17); // multiples of 6 in 0..100
                                         // the fused single-pass variant agrees and overwrites out
        let mut out = Bitmap::ones(100).words().to_vec();
        assert_eq!(and_into(a, b, &mut out), 17);
        assert_eq!(out, multiples(6).words());
        // in place, too
        let mut mask = a.to_vec();
        and_assign(&mut mask, b);
        assert_eq!(mask, out);
        // the two-level kernel agrees with chained and_counts
        let (d, e) = (multiples(5), multiples(4));
        let mut counts = [7u64, 7u64];
        let total = and_count_multi(a, b, &[d.words(), e.words()], &mut counts);
        assert_eq!(total, 17);
        assert_eq!(counts[0], and_count(&out, d.words())); // multiples of 30
        assert_eq!(counts[1], and_count(&out, e.words())); // multiples of 12
        assert_eq!(counts, [4, 9]);
        // every specialized arity agrees
        let mut one = [0u64];
        assert_eq!(and_count_multi(a, b, &[d.words()], &mut one), 17);
        assert_eq!(one, [4]);
        assert_eq!(and_count_multi::<&[u64]>(a, b, &[], &mut []), 17);
        assert_eq!(count_ones(&out), 17);
        let mut collected = Vec::new();
        multiples(6).for_each_set(|i| collected.push(i));
        assert_eq!(
            collected,
            (0..100).filter(|i| i % 6 == 0).collect::<Vec<_>>()
        );
    }

    /// `n` words from a xorshift stream, every fourth one zero so the
    /// fan kernel's zero-word skip is taken.
    fn noise(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 4 == 3 {
                    0
                } else {
                    x
                }
            })
            .collect()
    }

    /// Runs `check` once per tier this CPU executes.
    fn for_each_tier(mut check: impl FnMut(Tier)) {
        check(Tier::Portable);
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("popcnt") {
                check(Tier::Popcnt);
            }
            if tier() == Tier::Avx512 {
                check(Tier::Avx512);
            }
        }
    }

    #[test]
    fn every_tier_counts_what_the_portable_bodies_count() {
        for_each_tier(|tier| {
            for len in (0..=67).chain([1000]) {
                let (a, b, c) = (noise(len, 1), noise(len, 2), noise(len, 3));
                let what = format!("{tier:?}, {len} words");
                let got = (
                    run_on!(tier, count_ones, count_ones_body(&a)),
                    run_on!(tier, and_count, and_count_body(&a, &b)),
                    run_on!(tier, and_count_pair, and_count_pair_body(&a, &b, &c)),
                );
                let want = (
                    count_ones_body(&a),
                    and_count_body(&a, &b),
                    and_count_pair_body(&a, &b, &c),
                );
                assert_eq!(got, want, "{what}");
                let (mut into, mut want_into) = (vec![7u64; len], vec![7u64; len]);
                assert_eq!(
                    run_on!(tier, and_into, and_into_body(&a, &b, &mut into)),
                    and_into_body(&a, &b, &mut want_into),
                    "{what}"
                );
                assert_eq!(into, want_into, "{what}");
                let (mut mask, mut want_mask) = (a.clone(), a.clone());
                run_on!(tier, and_assign, and_assign_body(&mut mask, &b));
                and_assign_body(&mut want_mask, &b);
                assert_eq!(mask, want_mask, "{what}");
                let thirds: Vec<Vec<u64>> = (0..5).map(|j| noise(len, 10 + j)).collect();
                for k in 0..=5 {
                    let thirds = &thirds[..k];
                    let (mut out, mut want_out) = (vec![9u64; k], vec![9u64; k]);
                    assert_eq!(
                        run_on!(
                            tier,
                            and_count_fan,
                            and_count_fan_body(&a, &b, thirds, &mut out)
                        ),
                        and_count_fan_body(&a, &b, thirds, &mut want_out),
                        "{what}, {k} thirds"
                    );
                    assert_eq!(out, want_out, "{what}, {k} thirds");
                }
            }
        });
        assert!(["avx512vpopcntdq", "popcnt", "portable"].contains(&kernel_tier()));
    }

    #[test]
    fn from_words_validates_shape_and_tail() {
        let b = Bitmap::ones(70);
        let rebuilt = Bitmap::from_words(b.words().to_vec(), 70).unwrap();
        assert_eq!(rebuilt, b);
        // wrong word count
        assert!(Bitmap::from_words(vec![0u64; 3], 70).is_err());
        // set bit past len
        assert!(Bitmap::from_words(vec![u64::MAX, u64::MAX], 70).is_err());
        // exact multiple of 64: no tail to check
        assert!(Bitmap::from_words(vec![u64::MAX, u64::MAX], 128).is_ok());
        assert!(Bitmap::from_words(Vec::new(), 0).is_ok());
    }

    /// [`code_words`] over a whole column, as bitmaps.
    fn column_bitmaps(col: &[Value], cardinality: usize) -> Result<Vec<Bitmap>> {
        let mut words = vec![vec![0u64; words_for(col.len())]; cardinality];
        let mut out: Vec<&mut [u64]> = words.iter_mut().map(Vec::as_mut_slice).collect();
        code_words(col, 0, &mut out)?;
        words
            .into_iter()
            .map(|w| Bitmap::from_words(w, col.len()))
            .collect()
    }

    #[test]
    fn column_bitmaps_partition_the_rows() {
        let col: Vec<Value> = vec![2, 0, 1, 2, 2, 0];
        let maps = column_bitmaps(&col, 3).unwrap();
        assert_eq!(maps.len(), 3);
        assert_eq!(maps[0].count_ones(), 2);
        assert_eq!(maps[1].count_ones(), 1);
        assert_eq!(maps[2].count_ones(), 3);
        // every row in exactly one bitmap
        let total: u64 = maps.iter().map(Bitmap::count_ones).sum();
        assert_eq!(total, 6);
        assert_eq!(and_count(maps[0].words(), maps[2].words()), 0);
        // out-of-domain code is a typed error, not a silent drop
        assert!(column_bitmaps(&col, 2).is_err());
        // empty slice works
        let empty = column_bitmaps(&[], 4).unwrap();
        assert!(empty.iter().all(|b| b.count_ones() == 0));
    }

    #[test]
    fn code_words_match_per_row_sets_across_word_edges() {
        for n in [1, 63, 64, 65, 130, 200] {
            let col: Vec<Value> = (0..n).map(|i| (i * 7 % 5) as Value).collect();
            let mut reference = vec![Bitmap::zeros(n); 5];
            for (row, &code) in col.iter().enumerate() {
                reference[code as usize].set(row);
            }
            assert_eq!(column_bitmaps(&col, 5).unwrap(), reference, "{n} rows");
        }
        // the error names the first bad row, offset by `first_row`
        let col: Vec<Value> = vec![0, 1, 0, 4, 1, 9];
        let mut words = [[0u64; 1]; 3];
        let mut out: Vec<&mut [u64]> = words.iter_mut().map(|w| &mut w[..]).collect();
        assert_eq!(
            code_words(&col, 128, &mut out),
            Err(TabularError::InvalidArgument(
                "code 4 at row 131 exceeds cardinality 3".into()
            ))
        );
    }
}
