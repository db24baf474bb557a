//! Golden-bytes tests pinning the on-disk durable format.
//!
//! These constants are a compatibility contract: segment and journal
//! files written by one build must be readable by the next. Any change
//! here is a format break and must bump `FORMAT_VERSION` plus add a
//! migration path — it must never be silent. Version 2 made frames
//! self-describing (the reserved header word became the group's frame
//! count, and puts left the journal); version-1 images migrate at open,
//! pinned by `a_per_record_builds_image_opens_and_extends` in
//! `crates/node/src/durable.rs`.

use sievestore::PolicySpec;
use sievestore_node::{crc64, DataCache, DurableMediaSet, MemBacking, WritePolicy};
use sievestore_types::Micros;

const SEGMENT_MAGIC: &[u8; 8] = b"SVSTSEG1";
const JOURNAL_MAGIC: &[u8; 8] = b"SVSTJNL1";
const FORMAT_VERSION: u16 = 2;
const FILE_HEADER_LEN: usize = 24;
const FRAME_HEADER_LEN: usize = 32;
const FRAME_RECORD_LEN: usize = 544;
const JOURNAL_RECORD_LEN: usize = 32;

/// CRC-64/XZ check value for the standard nine-digit test vector. Pins
/// the polynomial, reflection, and init/xorout parameters all at once.
#[test]
fn crc64_is_crc64_xz() {
    assert_eq!(crc64(&[b"123456789"]), 0x995D_C9BB_DF19_39FA);
    // Multi-chunk hashing must equal whole-buffer hashing.
    assert_eq!(crc64(&[b"1234", b"56789"]), crc64(&[b"123456789"]));
    assert_eq!(crc64(&[]), crc64(&[b""]));
}

/// Builds a durable cache on in-memory media, writes one known frame,
/// flushes it (one journal record), and returns the raw bytes of all
/// three devices.
fn golden_media() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let media = DurableMediaSet::in_memory();
    let (cache, _) = DataCache::new_durable(MemBacking::new(), PolicySpec::Aod, 4, media)
        .expect("fresh media formats cleanly");
    let mut cache = cache.with_write_policy(WritePolicy::WriteBack);
    let key = 0x1122_3344_5566_7788u64;
    cache
        .write(key, &[0xAB; 512], Micros::from_secs(1))
        .unwrap();
    assert_eq!(cache.flush().unwrap(), 1);
    cache
        .durable()
        .expect("durable store attached")
        .clone_media_bytes()
        .unwrap()
}

#[test]
fn segment_file_header_is_pinned() {
    let (seg, _, _) = golden_media();
    assert!(seg.len() >= FILE_HEADER_LEN);
    assert_eq!(&seg[0..8], SEGMENT_MAGIC, "segment magic");
    assert_eq!(
        u16::from_le_bytes([seg[8], seg[9]]),
        FORMAT_VERSION,
        "format version, little-endian at offset 8"
    );
}

#[test]
fn journal_file_header_is_pinned() {
    let (_, ja, jb) = golden_media();
    // Fresh format truncates the inactive journal to zero length; only
    // the active journal carries a header until the first compaction.
    let active = [&ja, &jb]
        .into_iter()
        .find(|j| !j.is_empty())
        .expect("one journal is active");
    assert!(active.len() >= FILE_HEADER_LEN);
    assert_eq!(&active[0..8], JOURNAL_MAGIC, "journal magic");
    assert_eq!(
        u16::from_le_bytes([active[8], active[9]]),
        FORMAT_VERSION,
        "format version, little-endian at offset 8"
    );
}

#[test]
fn frame_record_layout_is_pinned() {
    let (seg, _, _) = golden_media();
    let key = 0x1122_3344_5566_7788u64;
    let key_le: [u8; 8] = [0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11];
    assert_eq!(key.to_le_bytes(), key_le, "keys are little-endian");

    // Exactly one occupied slot; find it by its key bytes and verify
    // the full record layout around it.
    let slots = (seg.len() - FILE_HEADER_LEN) / FRAME_RECORD_LEN;
    let mut found = None;
    for slot in 0..slots {
        let base = FILE_HEADER_LEN + slot * FRAME_RECORD_LEN;
        if seg[base..base + 8] == key_le {
            assert!(found.is_none(), "key appears in exactly one slot");
            found = Some(base);
        }
    }
    let base = found.expect("written key present in the segment");

    // Header: key | seq | flags | group | crc. The write was the store's
    // first mutation (seq 1), dirty and occupied (flags 3), alone in its
    // group (one frame).
    let mut header = key_le.to_vec();
    header.extend_from_slice(&1u64.to_le_bytes());
    header.extend_from_slice(&3u32.to_le_bytes());
    header.extend_from_slice(&1u32.to_le_bytes());
    assert_eq!(seg[base..base + 24], header[..], "frame header layout");

    // Payload is stored verbatim after the 32-byte frame header.
    let payload = &seg[base + FRAME_HEADER_LEN..base + FRAME_RECORD_LEN];
    assert_eq!(payload.len(), 512);
    assert!(
        payload.iter().all(|&b| b == 0xAB),
        "payload stored verbatim"
    );

    // The record checksum lives at bytes 24..32 of the record, is
    // little-endian CRC-64/XZ, and covers header-before-crc + payload.
    let stored = u64::from_le_bytes(seg[base + 24..base + 32].try_into().unwrap());
    let computed = crc64(&[&seg[base..base + 24], payload]);
    assert_eq!(stored, computed, "frame CRC covers header + payload");
}

#[test]
fn journal_record_layout_is_pinned() {
    let (_, ja, jb) = golden_media();
    // Exactly one of the two journals is active for generation 1; the
    // flush above appended one record to it.
    let active = [&ja, &jb]
        .into_iter()
        .find(|j| j.len() > FILE_HEADER_LEN)
        .expect("one journal holds records");
    let body = &active[FILE_HEADER_LEN..];
    assert_eq!(
        body.len() % JOURNAL_RECORD_LEN,
        0,
        "journal body is whole 32-byte records"
    );
    let record = &body[..JOURNAL_RECORD_LEN];
    // seq | kind | slot | key | crc: the flush's MarkClean (kind 5), the
    // store's second mutation, for the written key.
    assert_eq!(
        u64::from_le_bytes(record[0..8].try_into().unwrap()),
        2,
        "seq"
    );
    assert_eq!(
        u32::from_le_bytes(record[8..12].try_into().unwrap()),
        5,
        "kind"
    );
    assert_eq!(
        u64::from_le_bytes(record[16..24].try_into().unwrap()),
        0x1122_3344_5566_7788,
        "key"
    );
    let stored = u64::from_le_bytes(record[24..32].try_into().unwrap());
    let computed = crc64(&[&record[..24]]);
    assert_eq!(
        stored, computed,
        "journal CRC at bytes 24..32 of the record"
    );
}

#[test]
fn record_sizes_are_pinned() {
    // Writing one more frame grows the journal by nothing (the frame
    // describes itself); flushing two frames grows it by two records;
    // the segment file is slot-granular at 544 bytes.
    let media = DurableMediaSet::in_memory();
    let (cache, _) = DataCache::new_durable(MemBacking::new(), PolicySpec::Aod, 4, media).unwrap();
    let mut cache = cache.with_write_policy(WritePolicy::WriteBack);
    cache.write(1, &[1u8; 512], Micros::from_secs(1)).unwrap();
    let before = cache.durable().unwrap().clone_media_bytes().unwrap();
    cache.write(2, &[2u8; 512], Micros::from_secs(2)).unwrap();
    let after = cache.durable().unwrap().clone_media_bytes().unwrap();

    let journal_len = |media: &(Vec<u8>, Vec<u8>, Vec<u8>)| media.1.len() + media.2.len();
    assert_eq!(
        journal_len(&after),
        journal_len(&before),
        "no record per allocation"
    );
    assert_eq!(cache.flush().unwrap(), 2);
    let flushed = cache.durable().unwrap().clone_media_bytes().unwrap();
    assert_eq!(
        journal_len(&flushed) - journal_len(&after),
        2 * JOURNAL_RECORD_LEN,
        "one journal record per flushed frame"
    );
    assert_eq!(
        (before.0.len() - FILE_HEADER_LEN) % FRAME_RECORD_LEN,
        0,
        "segment is whole 544-byte slots"
    );
}
