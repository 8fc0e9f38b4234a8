//! Byte-level plumbing for the `.lewis` pack format: little-endian
//! primitive encoding, a bounds-checked cursor, and CRC-32.
//!
//! Every read is length-checked against the remaining input *before*
//! touching it, and no read ever allocates more than the bytes that are
//! actually present — so a corrupt length field produces a typed error,
//! never a panic or a giant allocation. The cursor's error carries the
//! failing offset; the section layer wraps it with the section name.

/// A located low-level decode failure inside one section payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CursorError {
    /// Offset within the payload where the read failed.
    pub offset: usize,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for CursorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.detail)
    }
}

pub(crate) type CursorResult<T> = Result<T, CursorError>;

/// A bounds-checked reader over one section payload.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The payload must be fully consumed — trailing garbage means the
    /// writer and reader disagree about the format.
    pub(crate) fn finish(self) -> CursorResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.err(format!("{} trailing bytes", self.remaining())))
        }
    }

    fn err(&self, detail: String) -> CursorError {
        CursorError {
            offset: self.pos,
            detail,
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> CursorResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.err(format!("need {n} bytes, {} remain", self.remaining())));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> CursorResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> CursorResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> CursorResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn f64_bits(&mut self) -> CursorResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32` that must fit in `usize` **and** be a plausible element
    /// count for the bytes that remain (each element taking at least
    /// `min_elem_bytes`). This is the guard that keeps corrupt counts
    /// from ever driving an allocation.
    pub(crate) fn count(&mut self, min_elem_bytes: usize) -> CursorResult<usize> {
        let n = self.u32()? as usize;
        let need = n.saturating_mul(min_elem_bytes.max(1));
        if need > self.remaining() {
            return Err(self.err(format!(
                "count {n} needs {need} bytes, {} remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn string(&mut self) -> CursorResult<String> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| self.err(format!("invalid UTF-8: {e}")))
    }

    /// A length-prefixed vector of `u32`s.
    pub(crate) fn u32_vec(&mut self) -> CursorResult<Vec<u32>> {
        let n = self.count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }
}

/// The write side: plain appends, always little-endian.
pub(crate) trait WriteBytes {
    fn put_u8(&mut self, v: u8);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_f64_bits(&mut self, v: f64);
    fn put_string(&mut self, s: &str);
    fn put_u32_vec(&mut self, vs: &[u32]);
}

impl WriteBytes for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64_bits(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    fn put_string(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.extend_from_slice(s.as_bytes());
    }

    fn put_u32_vec(&mut self, vs: &[u32]) {
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_u32(v);
        }
    }
}

/// CRC-32 (IEEE 802.3 / zlib polynomial, reflected) lookup tables for
/// slicing-by-8, generated at compile time. `CRC_TABLES[0]` is the
/// classic bytewise table; `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight table reads fold eight input
/// bytes at once. Detects every single-byte corruption the property
/// tests throw at a section payload.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes`, eight bytes per step (slicing-by-8), then the
/// tail byte by byte. Equal to the bytewise CRC for every input.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The CRC one byte at a time, the reference [`crc32`] must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_crc_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn cursor_round_trips_primitives() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(u64::MAX - 3);
        buf.put_f64_bits(-0.0);
        buf.put_string("héllo");
        buf.put_u32_vec(&[1, 2, 3]);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8().unwrap(), 7);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), u64::MAX - 3);
        assert_eq!(c.f64_bits().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(c.string().unwrap(), "héllo");
        assert_eq!(c.u32_vec().unwrap(), vec![1, 2, 3]);
        c.finish().unwrap();
    }

    #[test]
    fn cursor_rejects_overruns_and_trailing_bytes() {
        let mut c = Cursor::new(&[1, 2]);
        assert!(c.u32().is_err());
        let buf = [9u8, 9, 9, 9, 9];
        let mut c = Cursor::new(&buf);
        c.u8().unwrap();
        assert!(c.finish().is_err(), "trailing bytes are an error");
    }

    #[test]
    fn corrupt_counts_cannot_drive_allocations() {
        // a u32 count of 4 billion over a 6-byte payload must fail fast
        let mut buf = Vec::new();
        buf.put_u32(u32::MAX);
        buf.extend_from_slice(&[0, 0]);
        let mut c = Cursor::new(&buf);
        let err = c.u32_vec().unwrap_err();
        assert!(err.detail.contains("count"), "{err}");
    }

    #[test]
    fn invalid_utf8_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        buf.put_u32(2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Cursor::new(&buf).string().is_err());
    }
}
