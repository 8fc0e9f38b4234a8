//! Wire format for [`TableIndex`]: the payload of a `.lewis` pack's
//! optional index section.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! u64  n_rows
//! u32  n_shards
//! u32  n_attrs
//! u32 × n_attrs          per-attribute cardinality
//! u64 × words            bitmap words, shard-major: for each shard in
//!                        index order, for each attribute, for each
//!                        code, that bitmap's words (count derived from
//!                        the shard's canonical row range)
//! ```
//!
//! Everything after the three header integers is *derivable*: shard row
//! ranges come from [`shard_boundaries`]`(n_rows, n_shards)` and word
//! counts from the range lengths, so the expected payload size is a
//! checked pure function of the header. Decoding therefore
//!
//! 1. sizes the payload **before** allocating anything proportional to
//!    the declared dimensions (a crafted header cannot become an
//!    allocation amplifier),
//! 2. rejects set bits past each bitmap's row count
//!    ([`Bitmap::from_words`]), and
//! 3. verifies the partition property per `(shard, attribute)`: code
//!    bitmaps must be disjoint and cover every row — the structural
//!    fact that makes intersections count exactly what a scan counts.
//!
//! The payload carries no joint-count cube: a decoded index has none
//! until [`TableIndex::with_cube`] counts it from the table it indexes.
//!
//! Bit flips inside the pack are caught by the section CRC before this
//! parser runs; the checks here catch *valid-checksum nonsense* (a
//! rewritten section) and turn it into a typed error, never a panic.

use crate::TableIndex;
use std::fmt;
use tabular::shard::{shard_boundaries, MAX_SHARDS};
use tabular::{words_for, Bitmap};

/// Decoding failed: the bytes do not describe a well-formed index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexError {
    /// What was wrong, for the pack-level `Corrupt` error's detail.
    pub detail: String,
}

impl IndexError {
    fn new(detail: impl Into<String>) -> IndexError {
        IndexError {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt index: {}", self.detail)
    }
}

impl std::error::Error for IndexError {}

/// Cardinalities above this are rejected outright: no discrete LEWIS
/// domain is remotely this wide, and the cap bounds the bitmap-vector
/// allocations a header can demand.
const MAX_CARDINALITY: u64 = 1 << 22;

/// Hard ceiling on `n_shards × Σ cardinalities` (the number of bitmap
/// structs a decode allocates) for payloads whose bitmaps are all
/// empty; larger payloads may carry proportionally more (see
/// [`TableIndex::from_bytes`]).
const MIN_BITMAP_BUDGET: u64 = 1 << 16;

fn read_u32(bytes: &[u8], at: &mut usize) -> Result<u32, IndexError> {
    let end = at
        .checked_add(4)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| IndexError::new("truncated header"))?;
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[*at..end]);
    *at = end;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(bytes: &[u8], at: &mut usize) -> Result<u64, IndexError> {
    let end = at
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| IndexError::new("truncated header"))?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[*at..end]);
    *at = end;
    Ok(u64::from_le_bytes(buf))
}

impl TableIndex {
    /// Serialize into the section payload format above.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.n_rows as u64).to_le_bytes());
        out.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.cardinalities.len() as u32).to_le_bytes());
        for &card in &self.cardinalities {
            out.extend_from_slice(&card.to_le_bytes());
        }
        for shard in &self.shards {
            for maps in &shard.attrs {
                for bitmap in maps {
                    for &word in bitmap.words() {
                        out.extend_from_slice(&word.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Decode a section payload, validating structure before allocation
    /// and the partition property after. Any defect is a typed
    /// [`IndexError`]; this path never panics on input.
    pub fn from_bytes(bytes: &[u8]) -> Result<TableIndex, IndexError> {
        let mut at = 0usize;
        let n_rows_u64 = read_u64(bytes, &mut at)?;
        let n_shards = read_u32(bytes, &mut at)? as usize;
        let n_attrs = read_u32(bytes, &mut at)? as usize;
        let n_rows = usize::try_from(n_rows_u64)
            .map_err(|_| IndexError::new("row count exceeds the address space"))?;
        if n_shards == 0 || n_shards > MAX_SHARDS {
            return Err(IndexError::new(format!(
                "shard count {n_shards} outside [1, {MAX_SHARDS}]"
            )));
        }
        if n_attrs > u16::MAX as usize {
            return Err(IndexError::new(format!("{n_attrs} attributes is absurd")));
        }
        let mut cardinalities = Vec::with_capacity(n_attrs);
        let mut total_card: u64 = 0;
        for _ in 0..n_attrs {
            let card = read_u32(bytes, &mut at)?;
            if u64::from(card) > MAX_CARDINALITY {
                return Err(IndexError::new(format!("cardinality {card} is absurd")));
            }
            total_card += u64::from(card); // ≤ 65 535 × 2²² < u64::MAX
            cardinalities.push(card);
        }

        // Size the whole payload from the header before touching it.
        let boundaries = shard_boundaries(n_rows, n_shards);
        if boundaries.len() != n_shards + 1 {
            return Err(IndexError::new("shard layout mismatch"));
        }
        let mut expected_words: u64 = 0;
        for pair in boundaries.windows(2) {
            let shard_words = words_for(pair[1] - pair[0]) as u64;
            expected_words = shard_words
                .checked_mul(total_card)
                .and_then(|w| expected_words.checked_add(w))
                .ok_or_else(|| IndexError::new("declared dimensions overflow"))?;
        }
        let expected_len = expected_words
            .checked_mul(8)
            .and_then(|b| b.checked_add(at as u64))
            .ok_or_else(|| IndexError::new("declared dimensions overflow"))?;
        if expected_len != bytes.len() as u64 {
            return Err(IndexError::new(format!(
                "payload of {} bytes, header declares {expected_len}",
                bytes.len()
            )));
        }
        // The payload length now vouches for word allocations; bound
        // the bitmap *struct* count too (empty bitmaps occupy no words,
        // so a zero-row header could otherwise demand millions of them).
        let budget = (bytes.len() as u64 / 8).max(MIN_BITMAP_BUDGET);
        let total_bitmaps = (n_shards as u64).saturating_mul(total_card);
        if total_bitmaps > budget {
            return Err(IndexError::new(format!(
                "{total_bitmaps} bitmaps declared by a {}-byte payload",
                bytes.len()
            )));
        }

        let mut shards = Vec::with_capacity(n_shards);
        for pair in boundaries.windows(2) {
            let shard_rows = pair[1] - pair[0];
            let words = words_for(shard_rows);
            let mut attrs = Vec::with_capacity(n_attrs);
            for (ai, &card) in cardinalities.iter().enumerate() {
                let mut maps = Vec::with_capacity(card as usize);
                let mut union = vec![0u64; words];
                let mut covered: u64 = 0;
                for code in 0..card {
                    let mut raw = Vec::with_capacity(words);
                    for _ in 0..words {
                        raw.push(read_u64(bytes, &mut at)?);
                    }
                    for (u, &w) in union.iter_mut().zip(&raw) {
                        if *u & w != 0 {
                            return Err(IndexError::new(format!(
                                "attribute {ai} codes overlap (code {code})"
                            )));
                        }
                        *u |= w;
                    }
                    let bitmap = Bitmap::from_words(raw, shard_rows)
                        .map_err(|e| IndexError::new(format!("attribute {ai} code {code}: {e}")))?;
                    covered += bitmap.count_ones();
                    maps.push(bitmap);
                }
                if covered != shard_rows as u64 {
                    return Err(IndexError::new(format!(
                        "attribute {ai} covers {covered} of {shard_rows} rows"
                    )));
                }
                attrs.push(maps);
            }
            shards.push(crate::ShardIndex { attrs });
        }
        Ok(TableIndex {
            n_rows,
            cardinalities,
            boundaries,
            shards,
            cube: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::{Context, Domain, Schema, Table, Value};

    fn table(n: usize) -> Table {
        let mut s = Schema::new();
        s.push("a", Domain::categorical(["0", "1", "2"]));
        s.push("b", Domain::boolean());
        let mut t = Table::new(s);
        for i in 0..n {
            t.push_row(&[(i % 3) as Value, (i % 2) as Value]).unwrap();
        }
        t
    }

    #[test]
    fn round_trips_exactly() {
        for (rows, shards) in [(0usize, 1usize), (1, 1), (65, 4), (130, 7)] {
            let t = table(rows);
            let idx = TableIndex::build(&t, shards).unwrap();
            let bytes = idx.to_bytes();
            let back = TableIndex::from_bytes(&bytes).unwrap();
            assert_eq!(back.n_rows(), idx.n_rows());
            assert_eq!(back.n_shards(), idx.n_shards());
            assert_eq!(back.cardinalities(), idx.cardinalities());
            assert_eq!(back.to_bytes(), bytes, "byte-stable round trip");
            // the cube is not in the bytes; the table gives it back
            assert_eq!(back.cube_cells(), 0);
            assert_eq!(
                back.clone().with_cube(&t),
                idx,
                "{rows} rows, {shards} shards"
            );
            // and it still counts correctly
            let ctx = Context::of([(tabular::AttrId(0), 1)]);
            assert_eq!(back.count(&ctx), Some(t.count(&ctx) as u64));
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let idx = TableIndex::build(&table(70), 3).unwrap();
        let bytes = idx.to_bytes();
        for len in 0..bytes.len() {
            let err = TableIndex::from_bytes(&bytes[..len]).unwrap_err();
            assert!(!err.detail.is_empty(), "truncated at {len}");
        }
    }

    #[test]
    fn flipped_bits_never_pass_validation_silently() {
        let t = table(70);
        let idx = TableIndex::build(&t, 2).unwrap();
        let bytes = idx.to_bytes();
        // flip one bit in every byte position; each result must either
        // fail typed or (for count-preserving swaps, impossible here
        // since codes partition rows) decode to a *valid* index
        let mut rejected = 0usize;
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x01;
            match TableIndex::from_bytes(&corrupt) {
                Err(_) => rejected += 1,
                Ok(decoded) => {
                    // a bit moved between codes of the same attribute in
                    // a way that kept the partition: still a well-formed
                    // index, just of a different table
                    assert_eq!(decoded.n_rows(), 70);
                }
            }
        }
        assert!(rejected > bytes.len() / 2, "rejected {rejected}");
    }

    #[test]
    fn allocation_amplifiers_are_rejected() {
        // zero rows, max shards, wide cardinalities: header would
        // demand millions of (empty) bitmaps from a tiny payload
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&(MAX_SHARDS as u32).to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&1000u32.to_le_bytes());
        bytes.extend_from_slice(&1000u32.to_le_bytes());
        let err = TableIndex::from_bytes(&bytes).unwrap_err();
        assert!(err.detail.contains("bitmaps"), "{err}");
        // absurd single dimensions fail fast too
        let mut wide = Vec::new();
        wide.extend_from_slice(&8u64.to_le_bytes());
        wide.extend_from_slice(&1u32.to_le_bytes());
        wide.extend_from_slice(&1u32.to_le_bytes());
        wide.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(TableIndex::from_bytes(&wide).is_err());
        let mut shardy = Vec::new();
        shardy.extend_from_slice(&8u64.to_le_bytes());
        shardy.extend_from_slice(&u32::MAX.to_le_bytes());
        shardy.extend_from_slice(&0u32.to_le_bytes());
        assert!(TableIndex::from_bytes(&shardy).is_err());
    }

    #[test]
    fn partition_violations_are_rejected() {
        let t = table(64); // one word per shardless bitmap
        let idx = TableIndex::build(&t, 1).unwrap();
        let bytes = idx.to_bytes();
        let header = 8 + 4 + 4 + 2 * 4;
        // overlap: copy code 0's word over code 1's
        let mut overlap = bytes.clone();
        let word0: [u8; 8] = overlap[header..header + 8].try_into().unwrap();
        overlap[header + 8..header + 16].copy_from_slice(&word0);
        let err = TableIndex::from_bytes(&overlap).unwrap_err();
        assert!(err.detail.contains("overlap"), "{err}");
        // under-coverage: zero out code 0's word
        let mut hole = bytes.clone();
        hole[header..header + 8].copy_from_slice(&[0u8; 8]);
        let err = TableIndex::from_bytes(&hole).unwrap_err();
        assert!(err.detail.contains("covers"), "{err}");
    }
}
