//! Pack corruption coverage: every defect class yields its own typed
//! [`StoreError`], and no corruption — not a single byte, anywhere —
//! can make the reader panic or hand back an engine built from bad
//! data.

use lewis_core::{Engine, ExplainRequest};
use lewis_store::{Pack, PackMeta, StoreError, FORMAT_VERSION};
use proptest::prelude::*;
use tabular::{AttrId, Domain, Schema, Table};

/// A small but structurally rich engine: categorical + binned domains,
/// a causal graph, and a warm cache with several resident passes.
fn donor() -> Engine {
    let mut schema = Schema::new();
    schema.push("status", Domain::categorical(["bad", "ok", "good"]));
    schema.push("age", Domain::binned(vec![0.0, 30.0, 60.0, 99.0]));
    schema.push("savings", Domain::boolean());
    schema.push("pred", Domain::boolean());
    let mut t = Table::new(schema);
    // deterministic pseudo-random fill
    let mut x = 9u32;
    for _ in 0..400 {
        x = x.wrapping_mul(1664525).wrapping_add(1013904223);
        let status = (x >> 3) % 3;
        let age = (x >> 7) % 3;
        let savings = (x >> 11) % 2;
        let pred = u32::from(status + savings >= 2);
        t.push_row(&[status, age, savings, pred]).unwrap();
    }
    let mut g = causal::Dag::new(3);
    g.add_edge(0, 2).unwrap();
    let engine = Engine::builder(t)
        .graph(&g)
        .prediction(AttrId(3), 1)
        .features(&[AttrId(0), AttrId(1), AttrId(2)])
        // pinned off (the default is on): these tests reason about the
        // unindexed pack layout; indexed_donor covers the rest
        .index(false)
        .build()
        .unwrap();
    // warm: several distinct passes resident
    let _ = engine.run(&ExplainRequest::Global).unwrap();
    let _ = engine
        .run(&ExplainRequest::ContextualGlobal {
            k: tabular::Context::of([(AttrId(2), 1)]),
        })
        .unwrap();
    assert!(engine.cache_stats().entries >= 3);
    engine
}

fn donor_bytes() -> Vec<u8> {
    Pack::from_engine(
        &donor(),
        PackMeta {
            source: "test:donor".into(),
            graph: "handmade dag".into(),
        },
    )
    .to_bytes()
}

#[test]
fn truncation_at_every_prefix_is_typed() {
    // The cache (tag 7), index (tag 8) and surrogates (tag 9) sections
    // are optional by design, so a prefix ending exactly where one
    // starts parses as a pack without it (an index-enabled config
    // rebuilds from the table; a surrogates-flagged config refits
    // lazily). Locate those boundaries by walking the section headers.
    for bytes in [
        donor_bytes(),
        indexed_donor_bytes(),
        surrogate_donor_bytes(),
    ] {
        let mut optional_boundaries = Vec::new();
        let mut pos = 12usize;
        while pos < bytes.len() {
            let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
            if bytes[pos] == 7 || bytes[pos] == 8 || bytes[pos] == 9 {
                optional_boundaries.push(pos);
            }
            pos = pos + 1 + 8 + len + 4;
        }
        assert!(
            !optional_boundaries.is_empty(),
            "donor pack carries an optional section"
        );

        // every other strict prefix must fail with a *typed* error,
        // never panic, and never produce a pack
        for cut in 0..bytes.len() {
            match Pack::from_bytes(&bytes[..cut]) {
                Ok(pack) => {
                    assert!(
                        optional_boundaries.contains(&cut),
                        "unexpected parse at cut {cut}"
                    );
                    // whatever survived must still restore cleanly
                    pack.restore_engine().unwrap();
                }
                Err(
                    StoreError::Truncated { .. }
                    | StoreError::BadMagic
                    | StoreError::MissingSection { .. },
                ) => {}
                Err(other) => panic!("prefix of {cut} bytes: unexpected {other:?}"),
            }
        }
        // the full file still parses
        assert!(Pack::from_bytes(&bytes).is_ok());
    }
}

#[test]
fn flipped_checksum_byte_is_a_checksum_mismatch() {
    let mut bytes = donor_bytes();
    // the first section starts right after the 12-byte header:
    // tag(1) + len(8) + payload(len) + crc(4) — flip a crc byte
    let len = u64::from_le_bytes(bytes[13..21].try_into().unwrap()) as usize;
    let crc_at = 12 + 1 + 8 + len;
    bytes[crc_at] ^= 0xFF;
    match Pack::from_bytes(&bytes).unwrap_err() {
        StoreError::ChecksumMismatch { section } => assert_eq!(section, "meta"),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn flipped_payload_byte_is_a_checksum_mismatch() {
    let mut bytes = donor_bytes();
    bytes[12 + 1 + 8] ^= 0x01; // first payload byte of the meta section
    assert!(matches!(
        Pack::from_bytes(&bytes).unwrap_err(),
        StoreError::ChecksumMismatch { section: "meta" }
    ));
}

#[test]
fn wrong_magic_is_bad_magic() {
    let mut bytes = donor_bytes();
    bytes[0] ^= 0x20;
    assert_eq!(Pack::from_bytes(&bytes).unwrap_err(), StoreError::BadMagic);
    // entirely foreign files too
    assert_eq!(
        Pack::from_bytes(b"PK\x03\x04 definitely a zip file").unwrap_err(),
        StoreError::BadMagic
    );
}

#[test]
fn future_format_version_is_rejected() {
    let mut bytes = donor_bytes();
    let future = (FORMAT_VERSION + 1).to_le_bytes();
    bytes[8..12].copy_from_slice(&future);
    assert_eq!(
        Pack::from_bytes(&bytes).unwrap_err(),
        StoreError::UnsupportedVersion {
            found: FORMAT_VERSION + 1,
            supported: FORMAT_VERSION
        }
    );
}

#[test]
fn missing_and_duplicate_sections_are_typed() {
    let bytes = donor_bytes();
    // drop everything after the header: first missing section is meta
    assert!(matches!(
        Pack::from_bytes(&bytes[..12]).unwrap_err(),
        StoreError::MissingSection { section: "meta" }
    ));
    // duplicate the first section wholesale
    let len = u64::from_le_bytes(bytes[13..21].try_into().unwrap()) as usize;
    let section_end = 12 + 1 + 8 + len + 4;
    let mut dup = bytes.clone();
    dup.extend_from_slice(&bytes[12..section_end]);
    assert!(matches!(
        Pack::from_bytes(&dup).unwrap_err(),
        StoreError::DuplicateSection { section: "meta" }
    ));
}

#[test]
fn schema_mismatch_on_restore_is_typed() {
    // a snapshot whose cache/config disagree with the (valid) table —
    // build it by pairing the donor's sections with a doctored snapshot
    let engine = donor();
    let mut pack = Pack::from_engine(&engine, PackMeta::default());

    // features pointing outside the schema
    let mut bad = pack.clone();
    bad.snapshot.features = vec![AttrId(99)];
    bad.snapshot.orders = vec![None; bad.snapshot.table.schema().len()];
    let err = Pack::from_bytes(&bad.to_bytes())
        .unwrap()
        .restore_engine()
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, StoreError::Mismatch(_)), "{err:?}");

    // a value order that is not a permutation of its domain
    let mut bad = pack.clone();
    bad.snapshot.orders[0] = Some(vec![0, 0, 1]);
    let err = Pack::from_bytes(&bad.to_bytes())
        .unwrap()
        .restore_engine()
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, StoreError::Mismatch(_)), "{err:?}");

    // a cache pass with counts that cannot come from this table
    if let Some(pass) = pack.snapshot.cache.passes.first_mut() {
        pass.total = pass.total.wrapping_add(7);
        let err = Pack::from_bytes(&pack.to_bytes())
            .unwrap()
            .restore_engine()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, StoreError::Mismatch(_)), "{err:?}");
    }
}

#[test]
fn crafted_giant_graph_section_is_rejected_without_allocating() {
    // CRC is an integrity check, not a MAC: an attacker can re-checksum
    // a doctored section. A graph section announcing 2^32-1 nodes must
    // fail typed *before* Dag::new allocates ~200 GB of adjacency lists.
    let bytes = donor_bytes();
    let mut out = bytes[..12].to_vec();
    let mut pos = 12usize;
    while pos < bytes.len() {
        let tag = bytes[pos];
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
        let end = pos + 1 + 8 + len + 4;
        if tag == 4 {
            // replace the graph payload: present=1, n_nodes=u32::MAX,
            // n_edges=0, with a freshly computed (valid!) CRC-32
            let mut payload = vec![1u8];
            payload.extend_from_slice(&u32::MAX.to_le_bytes());
            payload.extend_from_slice(&0u32.to_le_bytes());
            out.push(4);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            let crc = {
                // IEEE CRC-32, same as the writer
                let mut crc = 0xFFFF_FFFFu32;
                for &b in &payload {
                    crc ^= u32::from(b);
                    for _ in 0..8 {
                        crc = if crc & 1 != 0 {
                            (crc >> 1) ^ 0xEDB8_8320
                        } else {
                            crc >> 1
                        };
                    }
                }
                !crc
            };
            out.extend_from_slice(&payload);
            out.extend_from_slice(&crc.to_le_bytes());
        } else {
            out.extend_from_slice(&bytes[pos..end]);
        }
        pos = end;
    }
    match Pack::from_bytes(&out).map(|_| ()).unwrap_err() {
        StoreError::Corrupt { section, detail } => {
            assert_eq!(section, "graph");
            assert!(detail.contains("4294967295"), "{detail}");
        }
        other => panic!("expected Corrupt graph, got {other:?}"),
    }
}

#[test]
fn overflowing_cache_counts_fail_typed_not_wrapping() {
    // u64::MAX + 2 wraps to 1 — a crafted pass whose cell total
    // "checks out" after wraparound must still be rejected (the sums
    // are checked_add on restore), in debug and release alike.
    let engine = donor();
    let mut pack = Pack::from_engine(&engine, PackMeta::default());
    let pass = pack
        .snapshot
        .cache
        .passes
        .iter_mut()
        .find(|p| p.cells.iter().any(|c| c.arms.len() >= 2))
        .expect("donor has a multi-arm pass");
    let cell = pass
        .cells
        .iter_mut()
        .find(|c| c.arms.len() >= 2)
        .expect("multi-arm cell");
    cell.arms[0].rows = u64::MAX;
    cell.arms[0].positives = 0;
    cell.arms[1].rows = 2;
    cell.arms[1].positives = 0;
    cell.rows = 1; // what the wrapped sum would be
    let err = Pack::from_bytes(&pack.to_bytes())
        .unwrap()
        .restore_engine()
        .map(|_| ())
        .unwrap_err();
    match err {
        StoreError::Mismatch(detail) => {
            assert!(detail.contains("overflow"), "{detail}")
        }
        other => panic!("expected Mismatch, got {other:?}"),
    }
}

#[test]
fn cache_counts_exceeding_the_table_are_rejected() {
    // internally consistent counts that still cannot come from this
    // table (more rows than the table has) must not restore
    let engine = donor();
    let mut pack = Pack::from_engine(&engine, PackMeta::default());
    let n_rows = pack.snapshot.table.n_rows() as u64;
    let pass = pack.snapshot.cache.passes.first_mut().unwrap();
    for cell in &mut pass.cells {
        for arm in &mut cell.arms {
            arm.rows += n_rows;
        }
        cell.rows += n_rows * cell.arms.len() as u64;
    }
    pass.total = pass.cells.iter().map(|c| c.rows).sum();
    let err = Pack::from_bytes(&pack.to_bytes())
        .unwrap()
        .restore_engine()
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, StoreError::Mismatch(_)), "{err:?}");
}

/// The donor again, but carrying the v3 bitmap-index section.
fn indexed_donor() -> Engine {
    let mut schema = Schema::new();
    schema.push("status", Domain::categorical(["bad", "ok", "good"]));
    schema.push("age", Domain::binned(vec![0.0, 30.0, 60.0, 99.0]));
    schema.push("savings", Domain::boolean());
    schema.push("pred", Domain::boolean());
    let mut t = Table::new(schema);
    let mut x = 9u32;
    for _ in 0..400 {
        x = x.wrapping_mul(1664525).wrapping_add(1013904223);
        let status = (x >> 3) % 3;
        let age = (x >> 7) % 3;
        let savings = (x >> 11) % 2;
        let pred = u32::from(status + savings >= 2);
        t.push_row(&[status, age, savings, pred]).unwrap();
    }
    let engine = Engine::builder(t)
        .prediction(AttrId(3), 1)
        .features(&[AttrId(0), AttrId(1), AttrId(2)])
        .shards(3)
        .index(true)
        .build()
        .unwrap();
    let _ = engine.run(&ExplainRequest::Global).unwrap();
    engine
}

fn indexed_donor_bytes() -> Vec<u8> {
    Pack::from_engine(&indexed_donor(), PackMeta::default()).to_bytes()
}

/// IEEE CRC-32, matching the pack writer — crafted sections get valid
/// checksums so corruption reaches the *decoder*, not the CRC check.
fn crc32(payload: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in payload {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Rewrite the section with `tag`: `None` removes it wholesale,
/// `Some(payload)` swaps the payload in with a freshly valid CRC.
fn rewrite_section(bytes: &[u8], tag: u8, payload: Option<&[u8]>) -> Vec<u8> {
    let mut out = bytes[..12].to_vec();
    let mut pos = 12usize;
    let mut found = false;
    while pos < bytes.len() {
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
        let end = pos + 1 + 8 + len + 4;
        if bytes[pos] == tag {
            found = true;
            if let Some(payload) = payload {
                out.push(tag);
                out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                out.extend_from_slice(payload);
                out.extend_from_slice(&crc32(payload).to_le_bytes());
            }
        } else {
            out.extend_from_slice(&bytes[pos..end]);
        }
        pos = end;
    }
    assert!(found, "donor pack lacks section tag {tag}");
    out
}

/// Return the payload of the section with `tag`.
fn section_payload(bytes: &[u8], tag: u8) -> Vec<u8> {
    let mut pos = 12usize;
    while pos < bytes.len() {
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
        if bytes[pos] == tag {
            return bytes[pos + 9..pos + 9 + len].to_vec();
        }
        pos = pos + 1 + 8 + len + 4;
    }
    panic!("donor pack lacks section tag {tag}");
}

const TAG_CONFIG: u8 = 5;
const TAG_INDEX: u8 = 8;
const TAG_SURROGATES: u8 = 9;

/// The donor again, with a warm recourse-surrogate cache so the pack
/// carries the v4 surrogates section.
fn surrogate_donor() -> Engine {
    let engine = donor();
    engine.prepare_surrogate(&[AttrId(0)]).unwrap();
    engine.prepare_surrogate(&[AttrId(0), AttrId(2)]).unwrap();
    engine
}

fn surrogate_donor_bytes() -> Vec<u8> {
    Pack::from_engine(&surrogate_donor(), PackMeta::default()).to_bytes()
}

#[test]
fn flipped_surrogate_payload_byte_is_a_checksum_mismatch() {
    let bytes = surrogate_donor_bytes();
    let mut pos = 12usize;
    loop {
        assert!(pos < bytes.len(), "donor pack lacks a surrogates section");
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
        if bytes[pos] == TAG_SURROGATES {
            let mut corrupt = bytes.clone();
            corrupt[pos + 9 + len / 2] ^= 0x10;
            assert!(matches!(
                Pack::from_bytes(&corrupt).unwrap_err(),
                StoreError::ChecksumMismatch {
                    section: "surrogates"
                }
            ));
            return;
        }
        pos = pos + 1 + 8 + len + 4;
    }
}

#[test]
fn truncated_surrogate_payload_with_valid_crc_is_corrupt() {
    // chop the tail off the surrogates payload and re-checksum: the CRC
    // passes, so the codec's cursor bounds must catch it
    let bytes = surrogate_donor_bytes();
    let payload = section_payload(&bytes, TAG_SURROGATES);
    for cut in [payload.len() - 1, payload.len() - 8, 0] {
        let short = rewrite_section(&bytes, TAG_SURROGATES, Some(&payload[..cut]));
        match Pack::from_bytes(&short).map(|_| ()).unwrap_err() {
            StoreError::Corrupt { section, .. } => assert_eq!(section, "surrogates"),
            other => panic!("cut {cut}: expected Corrupt surrogates, got {other:?}"),
        }
    }
}

#[test]
fn crafted_giant_surrogate_header_is_rejected_without_allocating() {
    // a re-checksummed surrogates section announcing u32::MAX fits must
    // die typed in the codec's element-size accounting, not OOM
    let bytes = surrogate_donor_bytes();
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_le_bytes()); // hits
    payload.extend_from_slice(&0u64.to_le_bytes()); // misses
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // n_fits
    let crafted = rewrite_section(&bytes, TAG_SURROGATES, Some(&payload));
    match Pack::from_bytes(&crafted).map(|_| ()).unwrap_err() {
        StoreError::Corrupt { section, .. } => assert_eq!(section, "surrogates"),
        other => panic!("expected Corrupt surrogates, got {other:?}"),
    }
}

#[test]
fn foreign_schema_surrogate_section_is_a_mismatch() {
    // a structurally valid surrogates section fitted against some other
    // engine: transplant the warm section into a pack whose config does
    // not announce it, and into one whose schema gives it a different
    // coefficient width
    let warm = surrogate_donor_bytes();
    let cold = donor_bytes();
    // splice the warm surrogates section into the cold pack (its config
    // flag says "no surrogates"): self-contradictory → Mismatch
    let warm_payload = section_payload(&warm, TAG_SURROGATES);
    let mut spliced = cold.clone();
    spliced.push(TAG_SURROGATES);
    spliced.extend_from_slice(&(warm_payload.len() as u64).to_le_bytes());
    spliced.extend_from_slice(&warm_payload);
    spliced.extend_from_slice(&crc32(&warm_payload).to_le_bytes());
    let err = Pack::from_bytes(&spliced).map(|_| ()).unwrap_err();
    assert!(matches!(err, StoreError::Mismatch(_)), "{err:?}");
}

#[test]
fn flipped_index_payload_byte_is_a_checksum_mismatch() {
    let bytes = indexed_donor_bytes();
    // locate the index section and flip a payload byte
    let mut pos = 12usize;
    loop {
        assert!(pos < bytes.len(), "donor pack lacks an index section");
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
        if bytes[pos] == TAG_INDEX {
            let mut corrupt = bytes.clone();
            corrupt[pos + 9 + len / 2] ^= 0x10;
            assert!(matches!(
                Pack::from_bytes(&corrupt).unwrap_err(),
                StoreError::ChecksumMismatch { section: "index" }
            ));
            return;
        }
        pos = pos + 1 + 8 + len + 4;
    }
}

#[test]
fn crafted_giant_index_header_is_rejected_without_allocating() {
    // a re-checksummed index section announcing max shards over zero
    // rows with wide cardinalities would demand millions of bitmap
    // allocations; it must die typed in the codec's pre-allocation
    // sizing, not OOM
    let bytes = indexed_donor_bytes();
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_le_bytes()); // n_rows
    payload.extend_from_slice(&1024u32.to_le_bytes()); // n_shards
    payload.extend_from_slice(&2u32.to_le_bytes()); // n_attrs
    payload.extend_from_slice(&1000u32.to_le_bytes());
    payload.extend_from_slice(&1000u32.to_le_bytes());
    let crafted = rewrite_section(&bytes, TAG_INDEX, Some(&payload));
    match Pack::from_bytes(&crafted).map(|_| ()).unwrap_err() {
        StoreError::Corrupt { section, detail } => {
            assert_eq!(section, "index");
            assert!(detail.contains("bitmaps"), "{detail}");
        }
        other => panic!("expected Corrupt index, got {other:?}"),
    }
}

#[test]
fn truncated_index_payload_with_valid_crc_is_corrupt() {
    // chop the tail off the index payload and re-checksum: the CRC
    // passes, so the codec's header-vs-length check must catch it
    let bytes = indexed_donor_bytes();
    let payload = section_payload(&bytes, TAG_INDEX);
    let cut = rewrite_section(&bytes, TAG_INDEX, Some(&payload[..payload.len() - 8]));
    match Pack::from_bytes(&cut).map(|_| ()).unwrap_err() {
        StoreError::Corrupt { section, detail } => {
            assert_eq!(section, "index");
            assert!(detail.contains("header declares"), "{detail}");
        }
        other => panic!("expected Corrupt index, got {other:?}"),
    }
}

#[test]
fn index_of_a_different_table_is_a_mismatch() {
    // a structurally valid index whose dimensions disagree with the
    // table: swap in the index of a thinner table, re-checksummed
    let bytes = indexed_donor_bytes();
    let mut schema = Schema::new();
    schema.push("a", Domain::boolean());
    schema.push("pred", Domain::boolean());
    let mut t = Table::new(schema);
    for i in 0..10u32 {
        t.push_row(&[i % 2, (i / 2) % 2]).unwrap();
    }
    let foreign = lewis_index::TableIndex::build(&t, 3).unwrap();
    let swapped = rewrite_section(&bytes, TAG_INDEX, Some(&foreign.to_bytes()));
    let err = Pack::from_bytes(&swapped).map(|_| ()).unwrap_err();
    assert!(matches!(err, StoreError::Mismatch(_)), "{err:?}");
}

/// Offset of the index flag from the end of a v5 config payload: the
/// surrogates flag (1 byte), surrogate capacity (8 bytes) and row-version
/// watermark (8 bytes) trail it.
const INDEX_FLAG_FROM_END: usize = 18;

#[test]
fn index_section_with_the_flag_off_is_a_mismatch() {
    // flip the config's index-enabled byte to 0 (re-CRC'd) while the
    // index section stays: the pack contradicts itself
    let bytes = indexed_donor_bytes();
    let mut config = section_payload(&bytes, TAG_CONFIG);
    let at = config.len() - INDEX_FLAG_FROM_END;
    assert_eq!(config[at], 1, "donor config has the index flag set");
    config[at] = 0;
    let contradicted = rewrite_section(&bytes, TAG_CONFIG, Some(&config));
    match Pack::from_bytes(&contradicted).map(|_| ()).unwrap_err() {
        StoreError::Mismatch(detail) => {
            assert!(detail.contains("disables the index"), "{detail}")
        }
        other => panic!("expected Mismatch, got {other:?}"),
    }
}

#[test]
fn invalid_index_flag_byte_is_corrupt() {
    let bytes = indexed_donor_bytes();
    let mut config = section_payload(&bytes, TAG_CONFIG);
    let at = config.len() - INDEX_FLAG_FROM_END;
    config[at] = 7; // neither 0 nor 1
    let bad = rewrite_section(&bytes, TAG_CONFIG, Some(&config));
    match Pack::from_bytes(&bad).map(|_| ()).unwrap_err() {
        StoreError::Corrupt { section, detail } => {
            assert_eq!(section, "config");
            assert!(detail.contains("index flag"), "{detail}");
        }
        other => panic!("expected Corrupt config, got {other:?}"),
    }
}

#[test]
fn invalid_surrogates_flag_byte_is_corrupt() {
    let bytes = donor_bytes();
    let mut config = section_payload(&bytes, TAG_CONFIG);
    let at = config.len() - 17; // before the trailing capacity + watermark
    config[at] = 3; // neither 0 nor 1
    let bad = rewrite_section(&bytes, TAG_CONFIG, Some(&config));
    match Pack::from_bytes(&bad).map(|_| ()).unwrap_err() {
        StoreError::Corrupt { section, detail } => {
            assert_eq!(section, "config");
            assert!(detail.contains("surrogates flag"), "{detail}");
        }
        other => panic!("expected Corrupt config, got {other:?}"),
    }
}

#[test]
fn dropping_the_index_section_still_restores_an_indexed_engine() {
    // flag on, section gone (e.g. written by `strip_index`): the reader
    // rebuilds the index from the table — answers identical, bit for bit
    let donor = indexed_donor();
    let bytes = Pack::from_engine(&donor, PackMeta::default()).to_bytes();
    let stripped = rewrite_section(&bytes, TAG_INDEX, None);
    let (restored, _) = Pack::from_bytes(&stripped)
        .unwrap()
        .restore_engine()
        .unwrap();
    assert!(restored.index_enabled(), "rebuilt from the table");
    assert_eq!(
        format!("{:?}", restored.run(&ExplainRequest::Global).unwrap()),
        format!("{:?}", donor.run(&ExplainRequest::Global).unwrap()),
    );
}

#[test]
fn round_trip_is_lossless() {
    let engine = donor();
    let meta = PackMeta {
        source: "test:donor".into(),
        graph: "handmade dag".into(),
    };
    let pack = Pack::from_engine(&engine, meta.clone());
    let bytes = pack.to_bytes();
    let back = Pack::from_bytes(&bytes).unwrap();
    assert_eq!(back.meta, meta);
    assert_eq!(*back.snapshot.table, *pack.snapshot.table);
    assert_eq!(
        back.snapshot.graph.as_deref(),
        pack.snapshot.graph.as_deref()
    );
    assert_eq!(back.snapshot.orders, pack.snapshot.orders);
    assert_eq!(back.snapshot.cache, pack.snapshot.cache);
    assert_eq!(back.snapshot.alpha.to_bits(), pack.snapshot.alpha.to_bits());
    // and the re-serialization is byte-identical (deterministic format)
    assert_eq!(back.to_bytes(), bytes);
}

#[test]
fn strip_cache_restores_a_cold_engine() {
    let engine = donor();
    let mut pack = Pack::from_engine(&engine, PackMeta::default());
    pack.strip_cache();
    let (cold, _) = Pack::from_bytes(&pack.to_bytes())
        .unwrap()
        .restore_engine()
        .unwrap();
    assert_eq!(cold.cache_stats().entries, 0);
    // still answers identically, it just re-scans
    assert_eq!(
        format!("{:?}", cold.run(&ExplainRequest::Global).unwrap()),
        format!("{:?}", engine.run(&ExplainRequest::Global).unwrap()),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single flipped byte anywhere in the file either leaves the
    /// pack readable (flips in dead header space cannot happen — every
    /// byte is covered by magic, version, section headers or checksums)
    /// or yields a typed error. It must never panic, and a "successful"
    /// parse after corruption is only acceptable if it decodes to the
    /// donor's exact content (e.g. flipping a bit that the CRC itself
    /// compensates — impossible for single flips, so success means the
    /// reader caught nothing because nothing material changed).
    #[test]
    fn single_byte_corruption_never_panics(
        offset in 0usize..=usize::MAX,
        flip in 1u8..=255u8,
    ) {
        // cache the donor bytes across cases via a thread-local
        thread_local! {
            static BYTES: Vec<u8> = donor_bytes();
        }
        BYTES.with(|bytes| {
            let mut corrupted = bytes.clone();
            let at = offset % corrupted.len();
            corrupted[at] ^= flip;
            match Pack::from_bytes(&corrupted) {
                // CRC-32 detects all single-byte flips in payloads;
                // header flips hit magic/version/len/tag checks. A
                // clean parse is impossible because every byte of the
                // file is load-bearing.
                Ok(_) => prop_assert!(false, "corruption at {at} went unnoticed"),
                Err(
                    StoreError::BadMagic
                    | StoreError::UnsupportedVersion { .. }
                    | StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt { .. }
                    | StoreError::MissingSection { .. }
                    | StoreError::DuplicateSection { .. }
                    | StoreError::Mismatch(_),
                ) => {}
                Err(other) => prop_assert!(false, "untyped failure at {at}: {other:?}"),
            }
            Ok(())
        })?;
    }

    /// The same guarantee for packs carrying the v4 surrogates section:
    /// every byte (coefficient bits included) is covered by a checksum
    /// or a header check, so single flips never pass and never panic.
    #[test]
    fn single_byte_corruption_of_surrogate_packs_never_panics(
        offset in 0usize..=usize::MAX,
        flip in 1u8..=255u8,
    ) {
        thread_local! {
            static BYTES: Vec<u8> = surrogate_donor_bytes();
        }
        BYTES.with(|bytes| {
            let mut corrupted = bytes.clone();
            let at = offset % corrupted.len();
            corrupted[at] ^= flip;
            match Pack::from_bytes(&corrupted) {
                Ok(_) => prop_assert!(false, "corruption at {at} went unnoticed"),
                Err(
                    StoreError::BadMagic
                    | StoreError::UnsupportedVersion { .. }
                    | StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt { .. }
                    | StoreError::MissingSection { .. }
                    | StoreError::DuplicateSection { .. }
                    | StoreError::Mismatch(_),
                ) => {}
                Err(other) => prop_assert!(false, "untyped failure at {at}: {other:?}"),
            }
            Ok(())
        })?;
    }

    /// The same guarantee for v3 packs carrying the bitmap-index
    /// section: every byte (index words included) is covered by a
    /// checksum or a header check, so single flips never pass and
    /// never panic.
    #[test]
    fn single_byte_corruption_of_indexed_packs_never_panics(
        offset in 0usize..=usize::MAX,
        flip in 1u8..=255u8,
    ) {
        thread_local! {
            static BYTES: Vec<u8> = indexed_donor_bytes();
        }
        BYTES.with(|bytes| {
            let mut corrupted = bytes.clone();
            let at = offset % corrupted.len();
            corrupted[at] ^= flip;
            match Pack::from_bytes(&corrupted) {
                Ok(_) => prop_assert!(false, "corruption at {at} went unnoticed"),
                Err(
                    StoreError::BadMagic
                    | StoreError::UnsupportedVersion { .. }
                    | StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt { .. }
                    | StoreError::MissingSection { .. }
                    | StoreError::DuplicateSection { .. }
                    | StoreError::Mismatch(_),
                ) => {}
                Err(other) => prop_assert!(false, "untyped failure at {at}: {other:?}"),
            }
            Ok(())
        })?;
    }
}
