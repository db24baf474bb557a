//! The durable cache tier: a crash-consistent on-disk frame store.
//!
//! The paper's SSD absorbs the ensemble's hot blocks; until now our
//! stand-in was a `HashMap` that evaporated on crash, forfeiting exactly
//! the warm hit-ratio the sieve's selectivity buys (and, in write-back
//! mode, potentially the only copy of acked dirty data). This module
//! gives [`crate::DataCache`] real persistent media:
//!
//! * a **frame segment** — a slot-based file of 544-byte records (32-byte
//!   header + 512-byte payload) with a per-frame CRC64 over header and
//!   payload. Payloads are never rewritten in place: every update lands
//!   in a fresh slot, so a torn write can corrupt only bytes that were
//!   never acknowledged;
//! * a **metadata journal** — fixed-size, sequenced, checksummed records
//!   (allocate/evict/dirty/flush), appended a *group* at a time and
//!   synced before anything in the group is acknowledged. Recovery
//!   replays the journal's valid prefix to decide which segment slots
//!   are live;
//! * **dual journal files** with a generation-stamped header, so journal
//!   compaction at open is crash-safe: the compacted copy is written to
//!   the inactive file and published by writing its header (with a higher
//!   generation) last. A crash at any step leaves the previous journal
//!   intact and authoritative.
//!
//! # Recovery state machine
//!
//! 1. **Headers** — verify magic, version and header CRC of the segment
//!    and both journals; pick the journal with the highest valid
//!    generation. Unreadable headers on non-empty media are
//!    unrecoverable ([`DurableError`]); the node then starts memory-only
//!    in degraded pass-through mode.
//! 2. **Segment scan** — classify every slot: CRC-valid frame, empty
//!    (all zeroes), or torn/rotted (quarantined; never served).
//! 3. **Journal replay** — scan fixed-size records, verifying each CRC;
//!    stop at the first invalid record (the torn, never-acked tail) and
//!    truncate it. Fold records into a final per-key state.
//! 4. **Merge** — a key the journal says is resident recovers from its
//!    slot if the slot is CRC-valid and holds that key; otherwise the
//!    key is quarantined (re-fetched from the backing store on next
//!    access) and counted as lost dirty data if its journaled state was
//!    dirty. Segment frames the journal does not vouch for are ignored:
//!    their allocation was never acknowledged. Clean frames are trusted
//!    only when the journal ends with a [`JournalKind::Shutdown`]
//!    marker (orderly shutdown, written by [`DurableStore::shutdown`]):
//!    after a crash, the backing store may have advanced past a failed
//!    best-effort mirror, so clean frames are dropped cold while dirty
//!    frames — the only copy of their data — are always kept.
//! 5. **Compact** — rewrite the surviving state into the inactive
//!    journal and bump the generation, bounding journal growth across
//!    restarts.
//!
//! # Group commit
//!
//! The unit of durability is the **group**: every mutation staged
//! ([`DurableStore::stage_put`], [`DurableStore::stage_evict`],
//! [`DurableStore::stage_mark_clean`]) since the last commit. Staging is
//! memory-only: the encoded 544-byte frame record, addressed to a fresh
//! slot, and its 32-byte journal record are appended to the open group;
//! no device is touched.
//!
//! # Commit pipeline
//!
//! The devices sit behind two locks of their own (frames, journal), not
//! behind whatever guards the store, and one procedure lands a group:
//!
//! 1. **seal** — under the frames lock, and briefly the store's guard:
//!    take the open group (frame bytes, slots, journal bytes, released
//!    slots, highest sequence number);
//! 2. **stage 1** — write the frames (adjacent slots in one write) and
//!    sync the segment;
//! 3. **stage 2** — take the journal lock *before* letting go of the
//!    frames lock, so groups reach the journal in the order they were
//!    sealed; one append at the journal's end, one sync;
//! 4. **finish** — still under the journal lock, and briefly the
//!    store's guard: the slots the group released join the free list,
//!    and the durable high-water mark moves to the group's last record.
//!
//! While one group is in stage 2 the next can be sealed and in stage 1:
//! two syncs overlap, and the store's guard is never held across I/O.
//! Lock order is frames → journal → store guard, never the reverse.
//! [`DurableStore::commit`] is that procedure run by a single owner;
//! [`crate::NodeServer`] runs it from connection threads, under the
//! shard lock for steps 1 and 4 only, and skips it when the high-water
//! mark already covers all that was staged.
//!
//! Two rules make a power cut anywhere in that sequence equivalent to a
//! cut between two records of a one-record-at-a-time journal. **A
//! journal record never reaches the media before its frame is synced**
//! (stage 2 follows stage 1, and journal order is seal order), so
//! whatever prefix of the records survives the cut, every frame it names
//! is intact. **A slot released inside a group is not reused until that
//! group's records are durable** (step 4), so no frame can overwrite a
//! slot the on-media journal still vouches for. A torn append leaves a
//! record prefix, which recovery's replay accepts and truncates after.
//! Frames reach the media at commit, not when staged, so the crash
//! states are a subset of those of write-at-stage-time.
//!
//! Nothing of a failed land was acknowledged, and all of it is retried
//! ahead of newer work. A group whose stage 1 failed returns to the head
//! of the open group and is *written* again — a failed `fdatasync`
//! reports once and leaves the pages clean, so syncing again proves
//! nothing. Records whose stage 2 failed wait at the journal as the
//! **carry**, which the next stage 2 writes ahead of its own records:
//! a later group's `MarkClean`/`Evict` never reaches the journal without
//! the `Alloc*` it follows. [`DurableStore::put`], `evict`, `mark_clean`
//! and `shutdown` are groups of one: stage, commit, durable on return.
//!
//! The three crash-consistency invariants this buys (proved by the
//! property suite in `tests/crash_consistency.rs`, per operation and per
//! group), where *acked* means the covering `commit()` returned `Ok`:
//!
//! 1. a frame that fails its checksum is **never served**;
//! 2. **write-through data is never lost** (the backing store always
//!    holds it; recovery can only lose warmth);
//! 3. **acked write-back dirty data survives restart**, at exactly the
//!    acked payload.
//!
//! A pipeline is as deep as the free list allows: a store formatted
//! with `SPARE_SLOTS` beyond a *full* cache has eight slots to stage
//! into before a request must wait for a group in flight to finish.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use parking_lot::Mutex;
use sievestore_types::{obs_count, obs_observe, DurableError, U64Map, BLOCK_SIZE};

use crate::backing::Block;

// ---------------------------------------------------------------------------
// CRC64 (CRC-64/XZ: reflected ECMA-182, init/xorout = !0)
// ---------------------------------------------------------------------------

const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC64_TABLE: [u64; 256] = crc64_table();

/// Streaming CRC64/XZ update (start from [`crc64_init`], finish with
/// [`crc64_finish`]).
fn crc64_update(mut crc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        crc = CRC64_TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

fn crc64_init() -> u64 {
    !0
}

fn crc64_finish(crc: u64) -> u64 {
    !crc
}

/// CRC64/XZ over a sequence of byte slices, as if concatenated.
pub fn crc64(parts: &[&[u8]]) -> u64 {
    let mut crc = crc64_init();
    for part in parts {
        crc = crc64_update(crc, part);
    }
    crc64_finish(crc)
}

// ---------------------------------------------------------------------------
// Media: the byte-addressed device under the durable store
// ---------------------------------------------------------------------------

/// A byte-addressed persistent device.
///
/// Semantics mirror a page-cached file: `write_at` data is visible to
/// subsequent reads immediately but only guaranteed durable after
/// `sync`. The crash-point harness in [`crate::faults`] implements this
/// trait over an in-memory buffer and can lose or tear unsynced writes
/// at a deterministic step.
pub trait Media: Send {
    /// Reads `buf.len()` bytes at `offset`, zero-filling past EOF.
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Writes `data` at `offset`, extending the device as needed.
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Makes all previous writes durable.
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    fn sync(&mut self) -> io::Result<()>;

    /// Current device length in bytes.
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    fn len(&self) -> io::Result<u64>;

    /// Truncates (or extends with zeroes) the device to `len` bytes.
    /// Durable after the next [`Media::sync`].
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    fn truncate(&mut self, len: u64) -> io::Result<()>;

    /// Whether the device currently holds zero bytes.
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// [`Media`] over a real file.
#[derive(Debug)]
pub struct FileMedia {
    file: File,
}

impl FileMedia {
    /// Opens (or creates) the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        Ok(FileMedia { file })
    }
}

impl Media for FileMedia {
    #[cfg(unix)]
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        let mut filled = 0;
        while filled < buf.len() {
            match self
                .file
                .read_at(&mut buf[filled..], offset + filled as u64)
            {
                // EOF: the rest of the range reads as zeroes.
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        buf[filled..].fill(0);
        Ok(())
    }

    #[cfg(not(unix))]
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = &self.file;
        let len = file.metadata()?.len();
        buf.fill(0);
        if offset >= len {
            return Ok(());
        }
        file.seek(SeekFrom::Start(offset))?;
        let available = ((len - offset) as usize).min(buf.len());
        file.read_exact(&mut buf[..available])
    }

    #[cfg(unix)]
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        std::os::unix::fs::FileExt::write_all_at(&self.file, data, offset)
    }

    #[cfg(not(unix))]
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

/// [`Media`] over an in-memory buffer (tests, golden-bytes fixtures).
#[derive(Debug, Default)]
pub struct MemMedia {
    bytes: Vec<u8>,
}

impl MemMedia {
    /// An empty device.
    pub fn new() -> Self {
        MemMedia::default()
    }

    /// A device pre-loaded with `bytes` (rebooting a crash image).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemMedia { bytes }
    }

    /// The device's current contents.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl Media for MemMedia {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        buf.fill(0);
        let offset = offset as usize;
        if offset < self.bytes.len() {
            let available = (self.bytes.len() - offset).min(buf.len());
            buf[..available].copy_from_slice(&self.bytes[offset..offset + available]);
        }
        Ok(())
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        let end = offset as usize + data.len();
        if self.bytes.len() < end {
            self.bytes.resize(end, 0);
        }
        self.bytes[offset as usize..end].copy_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.bytes.len() as u64)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.bytes.resize(len as usize, 0);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// On-disk format
// ---------------------------------------------------------------------------

/// Magic bytes opening the frame segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"SVSTSEG1";
/// Magic bytes opening each journal file.
pub const JOURNAL_MAGIC: [u8; 8] = *b"SVSTJNL1";
/// On-disk format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// File header: magic(8) | version u16 | reserved u16 | param u32 |
/// crc64 u64, all little-endian. `param` is the slot count for the
/// segment and the generation for a journal.
pub const FILE_HEADER_LEN: usize = 24;

/// Frame record header: key u64 | seq u64 | flags u32 | reserved u32 |
/// crc64 u64 (over the first 24 header bytes then the payload).
pub const FRAME_HEADER_LEN: usize = 32;
/// One frame slot: header plus the 512-byte payload.
pub const FRAME_RECORD_LEN: usize = FRAME_HEADER_LEN + BLOCK_SIZE;

/// Journal record: seq u64 | kind u32 | slot u32 | key u64 | crc64 u64
/// (over the first 24 bytes).
pub const JOURNAL_RECORD_LEN: usize = 32;

/// Frame flag: the slot holds a frame (clear = freed/never written).
pub const FLAG_OCCUPIED: u32 = 1;
/// Frame flag: the payload was dirty (unflushed) when written.
pub const FLAG_DIRTY: u32 = 2;

/// Journal record kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum JournalKind {
    /// A clean frame was installed at `slot`.
    AllocClean = 1,
    /// A dirty frame (the cache holds the only copy) was installed.
    AllocDirty = 2,
    /// The key left residency; its slot is free for reuse.
    Evict = 3,
    /// The key's frame became dirty in place (reserved; the cache
    /// currently re-installs on every payload change).
    MarkDirty = 4,
    /// The key's dirty data reached the backing store (flush).
    MarkClean = 5,
    /// Clean-shutdown marker: the session ended in an orderly fashion
    /// and the journal reflects every acknowledged write. Recovery
    /// trusts recovered *clean* frames only when the journal ends with
    /// this marker; after a crash the backing store may have advanced
    /// past a failed best-effort mirror, so clean frames are dropped
    /// and re-fetched on next access (dirty frames — the only copy —
    /// are always kept).
    Shutdown = 6,
}

impl JournalKind {
    fn from_u32(v: u32) -> Option<Self> {
        Some(match v {
            1 => JournalKind::AllocClean,
            2 => JournalKind::AllocDirty,
            3 => JournalKind::Evict,
            4 => JournalKind::MarkDirty,
            5 => JournalKind::MarkClean,
            6 => JournalKind::Shutdown,
            _ => return None,
        })
    }
}

/// Extra segment slots beyond the cache capacity, so payload updates can
/// always land in a fresh slot before the old one is freed.
const SPARE_SLOTS: u32 = 8;

fn encode_file_header(magic: [u8; 8], param: u32) -> [u8; FILE_HEADER_LEN] {
    let mut buf = [0u8; FILE_HEADER_LEN];
    buf[0..8].copy_from_slice(&magic);
    buf[8..10].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    // bytes 10..12 reserved (zero)
    buf[12..16].copy_from_slice(&param.to_le_bytes());
    let crc = crc64(&[&buf[0..16]]);
    buf[16..24].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// Parses and verifies a file header; returns the `param` field.
fn decode_file_header(buf: &[u8; FILE_HEADER_LEN], magic: [u8; 8]) -> Result<u32, DurableError> {
    if buf[0..8] != magic {
        let what = if magic == SEGMENT_MAGIC {
            "segment"
        } else {
            "journal"
        };
        return Err(DurableError::BadMagic { what });
    }
    let version = u16::from_le_bytes([buf[8], buf[9]]);
    if version != FORMAT_VERSION {
        return Err(DurableError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let crc = u64::from_le_bytes(buf[16..24].try_into().unwrap());
    if crc != crc64(&[&buf[0..16]]) {
        return Err(DurableError::Corrupt {
            what: "file header",
            detail: "header crc mismatch".into(),
        });
    }
    Ok(u32::from_le_bytes(buf[12..16].try_into().unwrap()))
}

fn encode_frame_record(key: u64, seq: u64, flags: u32, payload: &Block, buf: &mut [u8]) {
    debug_assert_eq!(buf.len(), FRAME_RECORD_LEN);
    buf[0..8].copy_from_slice(&key.to_le_bytes());
    buf[8..16].copy_from_slice(&seq.to_le_bytes());
    buf[16..20].copy_from_slice(&flags.to_le_bytes());
    buf[20..24].fill(0); // reserved
    buf[32..].copy_from_slice(payload);
    let crc = crc64(&[&buf[0..24], payload]);
    buf[24..32].copy_from_slice(&crc.to_le_bytes());
}

/// A CRC-valid frame decoded from a segment slot.
struct FrameRecord {
    key: u64,
    seq: u64,
    payload: Box<Block>,
}

/// `Ok(Some)` = valid frame, `Ok(None)` = empty (all-zero) slot,
/// `Err(())` = torn or rotted bytes.
#[allow(clippy::result_unit_err)]
fn decode_frame_record(buf: &[u8]) -> Result<Option<FrameRecord>, ()> {
    debug_assert_eq!(buf.len(), FRAME_RECORD_LEN);
    if buf.iter().all(|&b| b == 0) {
        return Ok(None);
    }
    let crc = u64::from_le_bytes(buf[24..32].try_into().unwrap());
    if crc != crc64(&[&buf[0..24], &buf[32..]]) {
        return Err(());
    }
    let flags = u32::from_le_bytes(buf[16..20].try_into().unwrap());
    if flags & FLAG_OCCUPIED == 0 {
        return Err(());
    }
    let mut payload = Box::new([0u8; BLOCK_SIZE]);
    payload.copy_from_slice(&buf[32..]);
    Ok(Some(FrameRecord {
        key: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
        seq: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
        payload,
    }))
}

fn encode_journal_record(seq: u64, kind: JournalKind, slot: u32, key: u64) -> [u8; 32] {
    let mut buf = [0u8; JOURNAL_RECORD_LEN];
    buf[0..8].copy_from_slice(&seq.to_le_bytes());
    buf[8..12].copy_from_slice(&(kind as u32).to_le_bytes());
    buf[12..16].copy_from_slice(&slot.to_le_bytes());
    buf[16..24].copy_from_slice(&key.to_le_bytes());
    let crc = crc64(&[&buf[0..24]]);
    buf[24..32].copy_from_slice(&crc.to_le_bytes());
    buf
}

struct JournalRecord {
    seq: u64,
    kind: JournalKind,
    slot: u32,
    key: u64,
}

fn decode_journal_record(buf: &[u8]) -> Option<JournalRecord> {
    debug_assert_eq!(buf.len(), JOURNAL_RECORD_LEN);
    let crc = u64::from_le_bytes(buf[24..32].try_into().unwrap());
    if crc != crc64(&[&buf[0..24]]) {
        return None;
    }
    let kind = JournalKind::from_u32(u32::from_le_bytes(buf[8..12].try_into().unwrap()))?;
    Some(JournalRecord {
        seq: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
        kind,
        slot: u32::from_le_bytes(buf[12..16].try_into().unwrap()),
        key: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
    })
}

// ---------------------------------------------------------------------------
// Recovery results
// ---------------------------------------------------------------------------

/// One frame restored by recovery.
pub struct RecoveredFrame {
    /// The block key.
    pub key: u64,
    /// The verified 512-byte payload.
    pub data: Box<Block>,
    /// Whether the frame was dirty (the cache holds the only copy).
    pub dirty: bool,
}

/// What recovery found on the media.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frames restored warm (CRC-verified, journal-vouched).
    pub recovered: u64,
    /// Journal-resident keys whose slot failed verification; they will
    /// be re-fetched from the backing store on next access.
    pub quarantined: u64,
    /// Quarantined keys whose journaled state was dirty — the only copy
    /// of that data is gone.
    pub lost_dirty: u64,
    /// Segment slots holding torn or rotted bytes.
    pub torn_slots: u64,
    /// Valid journal records replayed.
    pub journal_records: u64,
    /// Whether the journal had a torn (truncated) tail.
    pub journal_truncated: bool,
    /// Whether the previous session ended with a clean-shutdown marker.
    pub clean_shutdown: bool,
    /// Clean frames dropped because the shutdown was unclean (the
    /// backing store may have advanced past a failed best-effort
    /// mirror); they are re-fetched from backing on next access.
    pub dropped_clean: u64,
    /// The journal generation now active (after compaction).
    pub generation: u32,
}

/// The outcome of recovery: the store, the surviving frames and the
/// report for observability.
pub struct Recovery {
    /// The opened store, ready for service.
    pub store: DurableStore,
    /// Frames restored from media, in ascending sequence order (oldest
    /// first, so LRU warm-insertion leaves the newest most recent).
    pub frames: Vec<RecoveredFrame>,
    /// Counters describing what was found.
    pub report: RecoveryReport,
}

impl fmt::Debug for Recovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recovery")
            .field("frames", &self.frames.len())
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

/// Result of one scrub pass over a range of slots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubPass {
    /// Slots examined (occupied or not).
    pub scanned: u64,
    /// Occupied slots whose checksum verified.
    pub verified: u64,
    /// Keys whose slot failed verification and was quarantined.
    pub quarantined: Vec<u64>,
    /// The slot index where the next pass should start.
    pub next_slot: u32,
}

// ---------------------------------------------------------------------------
// DurableStore
// ---------------------------------------------------------------------------

/// The set of media a [`DurableStore`] lives on.
pub struct DurableMediaSet {
    /// The frame segment device.
    pub frames: Box<dyn Media>,
    /// Journal file A.
    pub journal_a: Box<dyn Media>,
    /// Journal file B.
    pub journal_b: Box<dyn Media>,
}

impl DurableMediaSet {
    /// A fully in-memory media set (tests).
    pub fn in_memory() -> Self {
        DurableMediaSet {
            frames: Box::new(MemMedia::new()),
            journal_a: Box::new(MemMedia::new()),
            journal_b: Box::new(MemMedia::new()),
        }
    }

    /// File-backed media under `dir` (`frames.seg`, `journal.a`,
    /// `journal.b`), creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Propagates directory/file creation failures.
    pub fn open_dir(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        Ok(DurableMediaSet {
            frames: Box::new(FileMedia::open(dir.join("frames.seg"))?),
            journal_a: Box::new(FileMedia::open(dir.join("journal.a"))?),
            journal_b: Box::new(FileMedia::open(dir.join("journal.b"))?),
        })
    }
}

/// One group of staged mutations, encoded: one `FRAME_RECORD_LEN` record
/// in `frames` per entry of `slots`; `records` in sequence order.
#[derive(Default)]
struct Group {
    frames: Vec<u8>,
    slots: Vec<u32>,
    records: Vec<u8>,
    /// Slots the group released: the on-media journal vouches for them
    /// until `records` are durable, so they join `free` only then.
    frees: Vec<u32>,
    /// Highest sequence number in `records`.
    high_seq: u64,
}

impl Group {
    /// Appends `later`, a group staged after everything in `self`.
    fn absorb(&mut self, later: &mut Group) {
        self.frames.append(&mut later.frames);
        self.slots.append(&mut later.slots);
        self.records.append(&mut later.records);
        self.frees.append(&mut later.frees);
        self.high_seq = self.high_seq.max(later.high_seq);
    }

    /// Stage 1: every frame to its slot (adjacent slots in one write), sync.
    fn write_frames(&self, media: &mut dyn Media) -> io::Result<()> {
        let mut start = 0;
        for i in 1..=self.slots.len() {
            if i == self.slots.len() || self.slots[i] != self.slots[i - 1] + 1 {
                media.write_at(
                    DurableStore::slot_offset(self.slots[start]),
                    &self.frames[start * FRAME_RECORD_LEN..i * FRAME_RECORD_LEN],
                )?;
                start = i;
            }
        }
        media.sync()
    }
}

/// The journal device pair and what is sealed but not yet durable on it.
struct Journal {
    /// Journal files A and B, and which of them is taking appends.
    media: [Box<dyn Media>; 2],
    active: usize,
    /// Append offset in the active journal.
    end: u64,
    /// Records (and their frees) past stage 1, oldest first: the group
    /// in stage 2 behind whatever a failed stage 2 left here.
    carry: Group,
}

impl Journal {
    /// Rewrites `records` (the live state) into the inactive journal and
    /// publishes it by writing its header (generation `new_gen`) last. A
    /// crash at any step leaves the previous journal authoritative.
    fn compact(&mut self, records: &[u8], new_gen: u32) -> io::Result<()> {
        let target = &mut self.media[1 - self.active];
        // Records first (the header slot stays invalid until they are
        // durable), then truncate stale bytes, sync, and publish.
        if !records.is_empty() {
            target.write_at(FILE_HEADER_LEN as u64, records)?;
        }
        let offset = (FILE_HEADER_LEN + records.len()) as u64;
        target.truncate(offset)?;
        target.sync()?;
        target.write_at(0, &encode_file_header(JOURNAL_MAGIC, new_gen))?;
        target.sync()?;
        self.active = 1 - self.active;
        self.end = offset;
        Ok(())
    }
}

/// A store's media, each device behind its own lock so a group can land
/// without the store's owner being locked out (module docs, "Commit
/// pipeline"). Lock order: `frames` → `journal` → the store's guard.
pub(crate) struct CommitPipe {
    frames: Mutex<Box<dyn Media>>,
    journal: Mutex<Journal>,
    /// Newest sequence number staged; written by the store's owner.
    staged_seq: AtomicU64,
    /// Newest sequence number durable in the journal.
    durable_seq: AtomicU64,
}

/// Runs a closure on the store under its guard (a server's shard lock).
pub(crate) type WithStore<'a> = &'a mut dyn FnMut(&mut dyn FnMut(&mut DurableStore));

/// A sealed group on its way through stage 1. Dropped with anything
/// left in it — stage 1 failed, or panicked — it goes back to the head
/// of the store's open group, to be written again by the next land.
struct Sealed<'a> {
    group: Group,
    with_store: WithStore<'a>,
}

impl Drop for Sealed<'_> {
    fn drop(&mut self) {
        let group = &mut self.group;
        if !group.records.is_empty() {
            (self.with_store)(&mut |store| {
                group.absorb(&mut store.open);
                std::mem::swap(group, &mut store.open);
            });
        }
    }
}

impl CommitPipe {
    /// The newest sequence number durable in the journal. It moves each
    /// time a group lands, whoever lands it.
    pub(crate) fn durable_seq(&self) -> u64 {
        self.durable_seq.load(SeqCst)
    }

    /// Returns once every group sealed so far has finished or failed.
    pub(crate) fn settle(&self) {
        let frames = self.frames.lock();
        let _journal = self.journal.lock();
        drop(frames);
    }

    /// The one commit procedure: makes every mutation staged before the
    /// call durable, whoever lands it. `with_store` is called only to
    /// *seal* and to *finish*, never across media I/O. Returns whether
    /// this call wrote anything (`false`: other landers covered it all).
    /// On a media failure, whatever did not land stays queued (open
    /// group or carry) for the next call, ahead of newer work.
    pub(crate) fn land(&self, with_store: WithStore<'_>) -> io::Result<bool> {
        if self.durable_seq.load(SeqCst) >= self.staged_seq.load(SeqCst) {
            return Ok(false);
        }
        let mut frames = self.frames.lock();
        // Seal: the open group leaves the store, in frames-lock order.
        let mut sealed = Sealed {
            group: Group::default(),
            with_store,
        };
        (sealed.with_store)(&mut |store| sealed.group = std::mem::take(&mut store.open));
        let mut syncs = 1;
        if !sealed.group.slots.is_empty() {
            sealed
                .group
                .write_frames(frames.as_mut())
                .inspect_err(|_| obs_count!(DurableMediaErrors, 1))?;
            sealed.group.frames.clear();
            sealed.group.slots.clear();
            syncs += 1;
        }
        // Hand over hand: the journal lock before the frames lock goes,
        // so groups reach the journal in the order they were sealed.
        let mut journal = self.journal.lock();
        journal.carry.absorb(&mut sealed.group);
        drop(frames);
        if journal.carry.records.is_empty() {
            // Every earlier lander has left stage 2: all is durable.
            return Ok(false);
        }
        // Stage 2. On failure the carry stays: the next stage 2 rewrites
        // it at this offset, ahead of its own records.
        let journal = &mut *journal;
        let (media, carry) = (&mut journal.media[journal.active], &mut journal.carry);
        media
            .write_at(journal.end, &carry.records)
            .and_then(|()| media.sync())
            .inspect_err(|_| obs_count!(DurableMediaErrors, 1))?;
        let records = (carry.records.len() / JOURNAL_RECORD_LEN) as u64;
        journal.end += carry.records.len() as u64;
        carry.records.clear();
        // Finish, still under the journal lock: whoever passes it after
        // us finds these slots free and this group covered.
        (sealed.with_store)(&mut |store| store.free.append(&mut carry.frees));
        self.durable_seq.store(carry.high_seq, SeqCst);
        obs_count!(DurableJournalRecords, records);
        obs_count!(DurableSyncs, syncs);
        obs_count!(DurableCommits, 1);
        obs_observe!(DurableGroupRecords, records);
        Ok(true)
    }
}

/// A crash-consistent frame store: checksummed slot segment plus a
/// sequenced metadata journal. See the [module docs](self) for the
/// format and recovery semantics.
///
/// The store tracks *placement* (key → slot) and stages mutations in
/// memory; residency policy and payload caching stay in
/// [`crate::DataCache`].
pub struct DurableStore {
    pipe: Arc<CommitPipe>,
    generation: u32,
    slot_count: u32,
    /// key → occupied slot.
    slot_of: U64Map<u32>,
    /// slot → key (u64::MAX = free). Drives scrub and slot accounting.
    slot_key: Vec<u64>,
    /// Slots a put may take: free on media as well as in memory.
    free: Vec<u32>,
    /// The open group: everything staged since the last seal. None of
    /// it has touched a device.
    open: Group,
    next_seq: u64,
    /// Whether the journal (staged records included) ends with a
    /// clean-shutdown marker.
    shutdown_marked: bool,
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("slots", &self.slot_count)
            .field("occupied", &self.slot_of.len())
            .field("generation", &self.generation)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl DurableStore {
    /// Opens the store: formats fresh media, or recovers existing state
    /// (verifying checksums, replaying the journal, quarantining torn
    /// frames and compacting the journal).
    ///
    /// `capacity_blocks` is the cache capacity the store must be able to
    /// hold; fresh media is formatted with a few spare slots beyond it.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] for media failures; [`DurableError::BadMagic`],
    /// [`DurableError::UnsupportedVersion`] or [`DurableError::Corrupt`]
    /// when non-empty media is not a readable store (unrecoverable — the
    /// caller decides whether to run memory-only); and
    /// [`DurableError::Geometry`] when existing media is too small for
    /// `capacity_blocks`.
    pub fn open(media: DurableMediaSet, capacity_blocks: usize) -> Result<Recovery, DurableError> {
        let DurableMediaSet {
            frames,
            journal_a,
            journal_b,
        } = media;
        let needed = capacity_blocks as u32 + SPARE_SLOTS;
        if frames.len()? == 0 {
            Self::format(frames, journal_a, journal_b, needed)
        } else {
            let recovery = Self::recover(frames, journal_a, journal_b)?;
            if recovery.store.slot_count < needed {
                return Err(DurableError::Geometry(format!(
                    "existing segment has {} slots, capacity {} needs {}",
                    recovery.store.slot_count, capacity_blocks, needed
                )));
            }
            Ok(recovery)
        }
    }

    /// Wraps opened media and recovered placement into a store.
    fn assemble(
        frames: Box<dyn Media>,
        journal: Journal,
        generation: u32,
        slot_of: U64Map<u32>,
        slot_key: Vec<u64>,
        next_seq: u64,
    ) -> Self {
        let slot_count = slot_key.len() as u32;
        DurableStore {
            pipe: Arc::new(CommitPipe {
                frames: Mutex::new(frames),
                journal: Mutex::new(journal),
                staged_seq: AtomicU64::new(next_seq - 1),
                durable_seq: AtomicU64::new(next_seq - 1),
            }),
            generation,
            slot_count,
            slot_of,
            free: (0..slot_count)
                .rev()
                .filter(|&s| slot_key[s as usize] == u64::MAX)
                .collect(),
            slot_key,
            open: Group::default(),
            next_seq,
            shutdown_marked: false,
        }
    }

    /// Formats fresh media: segment header, and journal A at generation 1.
    fn format(
        mut frames: Box<dyn Media>,
        mut journal_a: Box<dyn Media>,
        mut journal_b: Box<dyn Media>,
        slot_count: u32,
    ) -> Result<Recovery, DurableError> {
        frames.truncate(0)?;
        frames.write_at(0, &encode_file_header(SEGMENT_MAGIC, slot_count))?;
        frames.sync()?;
        journal_b.truncate(0)?;
        journal_b.sync()?;
        journal_a.truncate(0)?;
        journal_a.write_at(0, &encode_file_header(JOURNAL_MAGIC, 1))?;
        journal_a.sync()?;
        let journal = Journal {
            media: [journal_a, journal_b],
            active: 0,
            end: FILE_HEADER_LEN as u64,
            carry: Group::default(),
        };
        let slots = slot_count as usize;
        let (slot_of, slot_key) = (U64Map::with_capacity(slots), vec![u64::MAX; slots]);
        Ok(Recovery {
            store: Self::assemble(frames, journal, 1, slot_of, slot_key, 1),
            frames: Vec::new(),
            report: RecoveryReport {
                generation: 1,
                clean_shutdown: true,
                ..RecoveryReport::default()
            },
        })
    }

    /// Recovers existing media per the module-level state machine.
    fn recover(
        frames: Box<dyn Media>,
        journal_a: Box<dyn Media>,
        journal_b: Box<dyn Media>,
    ) -> Result<Recovery, DurableError> {
        // 1. Headers.
        let mut header = [0u8; FILE_HEADER_LEN];
        frames.read_at(0, &mut header)?;
        let slot_count = decode_file_header(&header, SEGMENT_MAGIC)?;
        let gen_of = |media: &dyn Media| -> Option<u32> {
            if media.len().ok()? < FILE_HEADER_LEN as u64 {
                return None;
            }
            let mut header = [0u8; FILE_HEADER_LEN];
            media.read_at(0, &mut header).ok()?;
            decode_file_header(&header, JOURNAL_MAGIC).ok()
        };
        let media = [journal_a, journal_b];
        let gen_a = gen_of(media[0].as_ref());
        let gen_b = gen_of(media[1].as_ref());
        let (active, generation) = match (gen_a, gen_b) {
            (Some(a), Some(b)) if b > a => (1, b),
            (Some(a), _) => (0, a),
            (None, Some(b)) => (1, b),
            (None, None) => {
                return Err(DurableError::Corrupt {
                    what: "journal",
                    detail: "no journal file has a valid header".into(),
                })
            }
        };

        // 2. Segment scan.
        let mut slots: Vec<Option<FrameRecord>> = Vec::with_capacity(slot_count as usize);
        let mut torn = vec![false; slot_count as usize];
        let mut torn_slots = 0u64;
        let mut max_seq = 0u64;
        let mut buf = vec![0u8; FRAME_RECORD_LEN];
        for slot in 0..slot_count {
            frames.read_at(Self::slot_offset(slot), &mut buf)?;
            match decode_frame_record(&buf) {
                Ok(Some(rec)) => {
                    max_seq = max_seq.max(rec.seq);
                    slots.push(Some(rec));
                }
                Ok(None) => slots.push(None),
                Err(()) => {
                    torn[slot as usize] = true;
                    torn_slots += 1;
                    slots.push(None);
                }
            }
        }

        // 3. Journal replay (valid prefix only).
        let journal = media[active].as_ref();
        let journal_len = journal.len()?;
        let mut offset = FILE_HEADER_LEN as u64;
        let mut rec_buf = [0u8; JOURNAL_RECORD_LEN];
        #[derive(Clone, Copy, Default)]
        enum KeyState {
            Resident {
                slot: u32,
                dirty: bool,
            },
            #[default]
            Gone,
        }
        let mut state: U64Map<KeyState> = U64Map::new();
        // Track journal order per key (insertion order of final states
        // is reconstructed below by seq).
        let mut journal_records = 0u64;
        let mut clean_shutdown = false;
        let journal_truncated;
        loop {
            if offset + JOURNAL_RECORD_LEN as u64 > journal_len {
                journal_truncated = offset < journal_len;
                break;
            }
            journal.read_at(offset, &mut rec_buf)?;
            let Some(rec) = decode_journal_record(&rec_buf) else {
                journal_truncated = true;
                break;
            };
            max_seq = max_seq.max(rec.seq);
            // Clean only when the marker is the *last* valid record.
            clean_shutdown = rec.kind == JournalKind::Shutdown;
            match rec.kind {
                JournalKind::AllocClean => {
                    state.insert(
                        rec.key,
                        KeyState::Resident {
                            slot: rec.slot,
                            dirty: false,
                        },
                    );
                }
                JournalKind::AllocDirty => {
                    state.insert(
                        rec.key,
                        KeyState::Resident {
                            slot: rec.slot,
                            dirty: true,
                        },
                    );
                }
                JournalKind::Evict => {
                    state.insert(rec.key, KeyState::Gone);
                }
                JournalKind::MarkDirty | JournalKind::MarkClean => {
                    if let Some(KeyState::Resident { dirty, .. }) = state.get_mut(rec.key) {
                        *dirty = rec.kind == JournalKind::MarkDirty;
                    }
                }
                JournalKind::Shutdown => {}
            }
            journal_records += 1;
            offset += JOURNAL_RECORD_LEN as u64;
        }
        // A torn tail means appends were attempted after the last valid
        // record, so any marker in the prefix is not the session's end.
        if journal_truncated {
            clean_shutdown = false;
        }

        // 4. Merge: journal-resident keys recover from their verified
        // slot or are quarantined.
        let mut recovered: Vec<RecoveredFrame> = Vec::new();
        let mut quarantined = 0u64;
        let mut lost_dirty = 0u64;
        let mut dropped_clean = 0u64;
        let mut slot_of = U64Map::with_capacity(slot_count as usize);
        let mut slot_key = vec![u64::MAX; slot_count as usize];
        let mut order: Vec<(u64, u64, u32, bool)> = Vec::new(); // (seq, key, slot, dirty)
        for (key, st) in state.iter() {
            let KeyState::Resident { slot, dirty } = *st else {
                continue;
            };
            // After an unclean shutdown a clean frame may be staler than
            // the backing store (a best-effort mirror failure is
            // swallowed while backing writes keep being acknowledged),
            // so only dirty frames — the sole copy of their data — are
            // trusted. Clean frames re-fetch from backing on access.
            if !clean_shutdown && !dirty {
                dropped_clean += 1;
                continue;
            }
            let valid = (slot < slot_count)
                .then(|| slots[slot as usize].as_ref())
                .flatten()
                .filter(|rec| rec.key == key);
            match valid {
                Some(rec) => order.push((rec.seq, key, slot, dirty)),
                None => {
                    quarantined += 1;
                    if dirty {
                        lost_dirty += 1;
                    }
                }
            }
        }
        // Oldest first: LRU warm-insertion leaves the newest most recent.
        order.sort_unstable();
        for (_, key, slot, dirty) in &order {
            // A well-formed journal never maps two keys to one slot; on
            // forged media, quarantine the loser instead of panicking.
            let Some(rec) = slots[*slot as usize].take() else {
                quarantined += 1;
                if *dirty {
                    lost_dirty += 1;
                }
                continue;
            };
            slot_of.insert(*key, *slot);
            slot_key[*slot as usize] = *key;
            recovered.push(RecoveredFrame {
                key: *key,
                data: rec.payload,
                dirty: *dirty,
            });
        }
        let mut journal = Journal {
            media,
            active,
            end: offset,
            carry: Group::default(),
        };
        // Drop the torn journal tail so a future append at this offset
        // can never be followed by stale-but-valid phantom records.
        journal.media[active].truncate(offset)?;
        journal.media[active].sync()?;

        // 5. Crash-safe compaction into the inactive journal: one record
        // per surviving frame.
        let mut next_seq = max_seq + 1;
        let mut records = Vec::with_capacity(recovered.len() * JOURNAL_RECORD_LEN);
        for frame in &recovered {
            let slot = *slot_of.get(frame.key).expect("live frame has a slot");
            let kind = if frame.dirty {
                JournalKind::AllocDirty
            } else {
                JournalKind::AllocClean
            };
            records.extend_from_slice(&encode_journal_record(next_seq, kind, slot, frame.key));
            next_seq += 1;
        }
        journal.compact(&records, generation + 1)?;

        let report = RecoveryReport {
            recovered: recovered.len() as u64,
            quarantined,
            lost_dirty,
            torn_slots,
            journal_records,
            journal_truncated,
            clean_shutdown,
            dropped_clean,
            generation: generation + 1,
        };
        Ok(Recovery {
            store: Self::assemble(frames, journal, generation + 1, slot_of, slot_key, next_seq),
            frames: recovered,
            report,
        })
    }

    fn slot_offset(slot: u32) -> u64 {
        FILE_HEADER_LEN as u64 + slot as u64 * FRAME_RECORD_LEN as u64
    }

    /// The store's media and commit procedure, for an owner that keeps
    /// the store behind a lock and lands groups outside it.
    pub(crate) fn pipe(&self) -> Arc<CommitPipe> {
        Arc::clone(&self.pipe)
    }

    /// Whether the next [`Self::stage_put`] would find no free slot: time
    /// to commit, which frees the slots the open group released.
    pub(crate) fn out_of_slots(&self) -> bool {
        self.free.is_empty()
    }

    /// Appends one journal record to the open group.
    fn stage_record(&mut self, kind: JournalKind, slot: u32, key: u64) {
        self.shutdown_marked = kind == JournalKind::Shutdown;
        self.open
            .records
            .extend_from_slice(&encode_journal_record(self.next_seq, kind, slot, key));
        self.open.high_seq = self.next_seq;
        self.pipe.staged_seq.store(self.next_seq, SeqCst);
        self.next_seq += 1;
    }

    /// Stages `data` for `key` in the open group: the frame record,
    /// addressed to a fresh slot, and its journal record are buffered in
    /// memory — no device is touched. Nothing staged is durable, or may
    /// be acknowledged, until [`DurableStore::commit`] returns `Ok`. An
    /// existing slot for `key` is released when the group commits (never
    /// overwritten in place, never reused inside the group).
    ///
    /// # Errors
    ///
    /// Fails when no slot is free (a commit releases those the open group
    /// superseded); the previous slot, if any, stays authoritative.
    pub fn stage_put(&mut self, key: u64, data: &Block, dirty: bool) -> io::Result<()> {
        let slot = self.free.pop().ok_or_else(|| {
            io::Error::other(format!(
                "durable segment out of slots ({} occupied, {} awaiting a commit)",
                self.slot_of.len(),
                self.open.frees.len()
            ))
        })?;
        let flags = FLAG_OCCUPIED | if dirty { FLAG_DIRTY } else { 0 };
        let at = self.open.frames.len();
        self.open.frames.resize(at + FRAME_RECORD_LEN, 0);
        encode_frame_record(key, self.next_seq, flags, data, &mut self.open.frames[at..]);
        self.open.slots.push(slot);
        let kind = if dirty {
            JournalKind::AllocDirty
        } else {
            JournalKind::AllocClean
        };
        self.stage_record(kind, slot, key);
        if let Some(old) = self.slot_of.insert(key, slot) {
            self.slot_key[old as usize] = u64::MAX;
            self.open.frees.push(old);
        }
        self.slot_key[slot as usize] = key;
        Ok(())
    }

    /// Stages the record that `key`'s dirty data reached the backing
    /// store.
    pub fn stage_mark_clean(&mut self, key: u64) {
        if let Some(slot) = self.slot_of.get(key).copied() {
            self.stage_record(JournalKind::MarkClean, slot, key);
        }
    }

    /// Stages the record that `key` left residency; its slot becomes
    /// reusable when the group commits.
    pub fn stage_evict(&mut self, key: u64) {
        if let Some(slot) = self.slot_of.remove(key) {
            self.stage_record(JournalKind::Evict, slot, key);
            self.slot_key[slot as usize] = u64::MAX;
            self.open.frees.push(slot);
        }
    }

    /// Stages a clean-shutdown marker unless the journal (staged records
    /// included) already ends with one.
    pub(crate) fn stage_shutdown(&mut self) {
        if !self.shutdown_marked {
            self.stage_record(JournalKind::Shutdown, 0, 0);
        }
    }

    /// Makes everything staged durable — the
    /// [commit pipeline](self#commit-pipeline) run inline by the store's
    /// single owner. An empty group costs nothing.
    ///
    /// # Errors
    ///
    /// Propagates media failures. Nothing in the group may be
    /// acknowledged, and the next commit retries all of it.
    pub fn commit(&mut self) -> io::Result<()> {
        self.pipe().land(&mut |on_store| on_store(self)).map(drop)
    }

    /// Persists `data` for `key` as a group of one: [`Self::stage_put`]
    /// then [`Self::commit`]. The data is durable on return, so a
    /// write-back ack ordered after `put` upholds the durability
    /// invariant.
    ///
    /// # Errors
    ///
    /// Propagates media failures; nothing is durable on error.
    pub fn put(&mut self, key: u64, data: &Block, dirty: bool) -> io::Result<()> {
        self.stage_put(key, data, dirty)?;
        self.commit()
    }

    /// Appends a clean-shutdown marker (idempotent) and commits, so the
    /// next open can trust recovered clean frames. Without the marker,
    /// recovery keeps only dirty frames — after a crash the backing
    /// store may have advanced past a failed best-effort mirror, so
    /// clean frames cannot be trusted.
    ///
    /// # Errors
    ///
    /// Propagates media failures; the next recovery then treats the
    /// shutdown as unclean, which is safe (merely colder).
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.stage_shutdown();
        self.commit()
    }

    /// Journals, durably, that `key`'s dirty data reached the backing
    /// store: [`Self::stage_mark_clean`] then [`Self::commit`].
    ///
    /// # Errors
    ///
    /// Propagates media failures.
    pub fn mark_clean(&mut self, key: u64) -> io::Result<()> {
        self.stage_mark_clean(key);
        self.commit()
    }

    /// Journals, durably, that `key` left residency and frees its slot:
    /// [`Self::stage_evict`] then [`Self::commit`].
    ///
    /// # Errors
    ///
    /// Propagates media failures.
    pub fn evict(&mut self, key: u64) -> io::Result<()> {
        self.stage_evict(key);
        self.commit()
    }

    /// Whether `key` currently owns a slot.
    pub fn contains(&self, key: u64) -> bool {
        self.slot_of.contains_key(key)
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Total slots in the segment.
    pub fn slots(&self) -> u32 {
        self.slot_count
    }

    /// Copies the raw bytes of the three media devices `(frames,
    /// journal_a, journal_b)` — a diagnostic and test aid for simulating
    /// a restart over in-memory media.
    ///
    /// # Errors
    ///
    /// Propagates media failures.
    pub fn clone_media_bytes(&self) -> io::Result<(Vec<u8>, Vec<u8>, Vec<u8>)> {
        let snap = |media: &dyn Media| -> io::Result<Vec<u8>> {
            let mut bytes = vec![0u8; media.len()? as usize];
            media.read_at(0, &mut bytes)?;
            Ok(bytes)
        };
        let frames = snap(self.pipe.frames.lock().as_ref())?;
        let journal = self.pipe.journal.lock();
        let [a, b] = &journal.media;
        Ok((frames, snap(a.as_ref())?, snap(b.as_ref())?))
    }

    /// Verifies up to `max_slots` slots starting at `start_slot`
    /// (wrapping), quarantining any occupied slot whose bytes no longer
    /// match their checksum — bit rot caught before it is ever served.
    /// Quarantined keys' evictions are *staged*; the caller re-installs
    /// from its in-memory frame (or re-fetches from backing later) and
    /// commits the pass as one group.
    ///
    /// Slots whose frame is only staged are skipped, and a pass that
    /// finds a group landing on the frame device examines nothing: the
    /// caller may hold a lock the lander needs, so it must not wait.
    ///
    /// # Errors
    ///
    /// Propagates media failures.
    pub fn scrub(&mut self, start_slot: u32, max_slots: u32) -> io::Result<ScrubPass> {
        let mut pass = ScrubPass {
            next_slot: start_slot,
            ..ScrubPass::default()
        };
        let pipe = self.pipe();
        let Some(frames) = pipe.frames.try_lock() else {
            return Ok(pass);
        };
        if self.slot_count == 0 {
            return Ok(pass);
        }
        let mut buf = vec![0u8; FRAME_RECORD_LEN];
        let mut slot = start_slot % self.slot_count;
        for _ in 0..max_slots.min(self.slot_count) {
            pass.scanned += 1;
            let key = self.slot_key[slot as usize];
            if key != u64::MAX && !self.open.slots.contains(&slot) {
                frames.read_at(Self::slot_offset(slot), &mut buf)?;
                let ok = matches!(&decode_frame_record(&buf), Ok(Some(rec)) if rec.key == key);
                if ok {
                    pass.verified += 1;
                } else {
                    self.stage_evict(key);
                    pass.quarantined.push(key);
                }
            }
            slot = (slot + 1) % self.slot_count;
        }
        pass.next_slot = slot;
        Ok(pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(fill: u8) -> Block {
        [fill; BLOCK_SIZE]
    }

    fn open_mem(capacity: usize) -> Recovery {
        DurableStore::open(DurableMediaSet::in_memory(), capacity).expect("open fresh store")
    }

    /// Shuts a store down cleanly and reopens it from the same bytes.
    fn reopen(mut store: DurableStore, capacity: usize) -> Recovery {
        store.shutdown().expect("write shutdown marker");
        reopen_unclean(store, capacity)
    }

    /// Reopens from the same bytes *without* a clean-shutdown marker,
    /// simulating a crash.
    fn reopen_unclean(store: DurableStore, capacity: usize) -> Recovery {
        DurableStore::open(media_copy(&store), capacity).expect("reopen store")
    }

    /// The bytes on `store`'s three devices, as fresh in-memory media.
    fn media_copy(store: &DurableStore) -> DurableMediaSet {
        let (frames, journal_a, journal_b) = store.clone_media_bytes().unwrap();
        DurableMediaSet {
            frames: Box::new(MemMedia::from_bytes(frames)),
            journal_a: Box::new(MemMedia::from_bytes(journal_a)),
            journal_b: Box::new(MemMedia::from_bytes(journal_b)),
        }
    }

    /// Append offset in the active journal.
    fn journal_end(store: &DurableStore) -> u64 {
        store.pipe.journal.lock().end
    }

    #[test]
    fn crc64_matches_known_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(&[b"123456789"]), 0x995D_C9BB_DF19_39FA);
        // Split input gives the same digest.
        assert_eq!(crc64(&[b"1234", b"56789"]), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn fresh_store_formats_and_reopens_empty() {
        let r = open_mem(4);
        assert_eq!(r.report.recovered, 0);
        assert_eq!(r.store.slots(), 4 + SPARE_SLOTS);
        let r = reopen(r.store, 4);
        assert!(r.frames.is_empty());
        assert_eq!(r.report.torn_slots, 0);
    }

    #[test]
    fn put_evict_round_trip_survives_reopen() {
        let mut r = open_mem(8);
        r.store.put(1, &block(0x11), false).unwrap();
        r.store.put(2, &block(0x22), true).unwrap();
        r.store.put(3, &block(0x33), false).unwrap();
        r.store.evict(3).unwrap();
        assert_eq!(r.store.len(), 2);

        let r = reopen(r.store, 8);
        assert_eq!(r.report.recovered, 2);
        assert_eq!(r.report.quarantined, 0);
        let by_key: Vec<(u64, bool)> = r.frames.iter().map(|f| (f.key, f.dirty)).collect();
        assert_eq!(by_key, vec![(1, false), (2, true)]);
        assert_eq!(*r.frames[0].data, block(0x11));
        assert_eq!(*r.frames[1].data, block(0x22));
        assert!(!r.store.contains(3));
    }

    #[test]
    fn mark_clean_survives_reopen() {
        let mut r = open_mem(8);
        r.store.put(7, &block(0x77), true).unwrap();
        r.store.mark_clean(7).unwrap();
        let r = reopen(r.store, 8);
        assert_eq!(r.frames.len(), 1);
        assert!(!r.frames[0].dirty, "flush record survived");
    }

    #[test]
    fn payload_update_uses_a_fresh_slot() {
        let mut r = open_mem(4);
        r.store.put(9, &block(0xA1), true).unwrap();
        let first = *r.store.slot_of.get(9).unwrap();
        r.store.put(9, &block(0xA2), true).unwrap();
        let second = *r.store.slot_of.get(9).unwrap();
        assert_ne!(
            first, second,
            "in-place rewrite would lose acked data on a torn write"
        );
        let r = reopen(r.store, 4);
        assert_eq!(*r.frames[0].data, block(0xA2));
    }

    #[test]
    fn recovery_quarantines_rotted_slots() {
        let mut r = open_mem(8);
        r.store.put(1, &block(0x11), false).unwrap();
        r.store.put(2, &block(0x22), true).unwrap();
        let slot2 = *r.store.slot_of.get(2).unwrap();
        // Flip one payload bit of key 2's slot behind the store's back.
        let offset = DurableStore::slot_offset(slot2) + FRAME_HEADER_LEN as u64 + 100;
        let mut byte = [0u8; 1];
        let mut frames = r.store.pipe.frames.lock();
        frames.read_at(offset, &mut byte).unwrap();
        byte[0] ^= 0x40;
        frames.write_at(offset, &byte).unwrap();
        drop(frames);

        let r = reopen(r.store, 8);
        assert_eq!(r.report.recovered, 1);
        assert_eq!(r.report.quarantined, 1);
        assert_eq!(r.report.lost_dirty, 1, "key 2 was dirty");
        assert_eq!(r.frames[0].key, 1);
        assert!(!r.store.contains(2));
    }

    #[test]
    fn scrub_quarantines_and_reports() {
        let mut r = open_mem(8);
        r.store.put(1, &block(0x11), false).unwrap();
        r.store.put(2, &block(0x22), false).unwrap();
        let slot1 = *r.store.slot_of.get(1).unwrap();
        let offset = DurableStore::slot_offset(slot1) + FRAME_HEADER_LEN as u64;
        r.store
            .pipe
            .frames
            .lock()
            .write_at(offset, &[0xFF])
            .unwrap();

        let pass = r.store.scrub(0, r.store.slots()).unwrap();
        assert_eq!(pass.quarantined, vec![1]);
        assert_eq!(pass.verified, 1);
        assert!(!r.store.contains(1));
        assert!(r.store.contains(2));
        // A clean pass afterwards finds nothing.
        let pass = r.store.scrub(pass.next_slot, r.store.slots()).unwrap();
        assert!(pass.quarantined.is_empty());
    }

    #[test]
    fn unclean_reopen_drops_clean_frames_keeps_dirty() {
        let mut r = open_mem(8);
        r.store.put(1, &block(0x11), false).unwrap();
        r.store.put(2, &block(0x22), true).unwrap();

        // No shutdown marker: the backing store may have advanced past
        // a failed best-effort mirror, so the clean frame is dropped.
        let r = reopen_unclean(r.store, 8);
        assert!(!r.report.clean_shutdown);
        assert_eq!(r.report.recovered, 1);
        assert_eq!(r.report.dropped_clean, 1);
        assert_eq!(r.report.quarantined, 0, "dropped, not quarantined");
        assert_eq!(r.frames[0].key, 2);
        assert!(r.frames[0].dirty);
        assert!(!r.store.contains(1), "dropped frame's slot is free again");
    }

    #[test]
    fn shutdown_marker_is_idempotent_and_invalidated_by_writes() {
        let mut r = open_mem(8);
        r.store.put(1, &block(0x11), false).unwrap();
        r.store.shutdown().unwrap();
        r.store.shutdown().unwrap();
        let end = journal_end(&r.store);
        // A second shutdown with no intervening writes appends nothing.
        assert_eq!(
            end,
            (FILE_HEADER_LEN + 2 * JOURNAL_RECORD_LEN) as u64,
            "alloc + one marker only"
        );
        // A write after the marker makes the journal unclean again.
        r.store.put(2, &block(0x22), false).unwrap();
        let r = reopen_unclean(r.store, 8);
        assert!(!r.report.clean_shutdown);
        assert_eq!(r.report.dropped_clean, 2);
    }

    #[test]
    fn compaction_bounds_journal_growth_across_reopens() {
        let mut r = open_mem(8);
        for i in 0..100u64 {
            r.store.put(i % 4, &block(i as u8), false).unwrap();
        }
        let r = reopen(r.store, 8);
        // After compaction the journal holds one record per live frame.
        assert_eq!(
            journal_end(&r.store),
            (FILE_HEADER_LEN + 4 * JOURNAL_RECORD_LEN) as u64
        );
        let r2 = reopen(r.store, 8);
        assert_eq!(r2.report.recovered, 4);
        assert!(r2.report.generation > r.report.generation);
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let r = open_mem(4);
        let err = DurableStore::open(media_copy(&r.store), 64).unwrap_err();
        assert!(matches!(err, DurableError::Geometry(_)), "{err}");
    }

    #[test]
    fn garbage_media_is_unrecoverable_not_a_panic() {
        let media = DurableMediaSet {
            frames: Box::new(MemMedia::from_bytes(vec![0xAB; 4096])),
            journal_a: Box::new(MemMedia::new()),
            journal_b: Box::new(MemMedia::new()),
        };
        let err = DurableStore::open(media, 4).unwrap_err();
        assert!(matches!(err, DurableError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn file_media_round_trips() {
        let dir = std::env::temp_dir().join(format!("sievestore-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut m = FileMedia::open(dir.join("media.bin")).unwrap();
        m.write_at(10, b"hello").unwrap();
        m.sync().unwrap();
        let mut buf = [0u8; 20];
        m.read_at(8, &mut buf).unwrap();
        assert_eq!(&buf[2..7], b"hello");
        assert_eq!(buf[0], 0, "zero-filled before the write");
        assert_eq!(buf[7..], [0u8; 13], "zero-filled past EOF");
        m.truncate(12).unwrap();
        assert_eq!(m.len().unwrap(), 12);
        // A read straddling EOF keeps the file's bytes and zero-fills
        // the rest; one wholly past EOF is all zeroes. Neither moves
        // the length.
        let mut buf = [0xEEu8; 8];
        m.read_at(8, &mut buf).unwrap();
        assert_eq!(&buf, b"\0\0he\0\0\0\0", "straddling EOF");
        let mut buf = [0xEEu8; 8];
        m.read_at(12, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8], "at EOF");
        let mut buf = [0xEEu8; 8];
        m.read_at(4096, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8], "far past EOF");
        assert_eq!(m.len().unwrap(), 12);
        // Positional writes do not depend on a cursor.
        m.write_at(2, b"ab").unwrap();
        m.write_at(0, b"cd").unwrap();
        let mut buf = [0u8; 4];
        m.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"cdab");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backed_store_survives_process_style_reopen() {
        let dir = std::env::temp_dir().join(format!("sievestore-durable2-{}", std::process::id()));
        {
            let mut r = DurableStore::open(DurableMediaSet::open_dir(&dir).unwrap(), 8)
                .expect("fresh file store");
            r.store.put(5, &block(0x55), true).unwrap();
            r.store.put(6, &block(0x66), false).unwrap();
            r.store.shutdown().unwrap();
        }
        let r = DurableStore::open(DurableMediaSet::open_dir(&dir).unwrap(), 8)
            .expect("recover file store");
        assert_eq!(r.report.recovered, 2);
        let keys: Vec<u64> = r.frames.iter().map(|f| f.key).collect();
        assert_eq!(keys, vec![5, 6]);
        assert!(r.frames[0].dirty && !r.frames[1].dirty);
        std::fs::remove_dir_all(&dir).ok();
    }

    // -- group commit -------------------------------------------------------

    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Counts syncs and fails the next `fail_syncs` of them.
    #[derive(Default)]
    struct SyncScript {
        syncs: AtomicU64,
        fail_syncs: AtomicU64,
    }

    /// Memory media that behaves like Linux under a failed `fdatasync`:
    /// the error is reported once and the unsynced writes are gone, so
    /// syncing again without writing again lands nothing. (Reads see
    /// synced bytes only; the store reads no device between a write and
    /// its sync.)
    struct ScriptedMedia {
        inner: MemMedia,
        unsynced: Vec<(u64, Vec<u8>)>,
        script: Arc<SyncScript>,
    }

    impl ScriptedMedia {
        fn boxed(script: &Arc<SyncScript>) -> Box<dyn Media> {
            Box::new(ScriptedMedia {
                inner: MemMedia::new(),
                unsynced: Vec::new(),
                script: Arc::clone(script),
            })
        }
    }

    impl Media for ScriptedMedia {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
            self.inner.read_at(offset, buf)
        }
        fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
            self.unsynced.push((offset, data.to_vec()));
            Ok(())
        }
        fn sync(&mut self) -> io::Result<()> {
            if self.script.fail_syncs.load(Ordering::SeqCst) > 0 {
                self.script.fail_syncs.fetch_sub(1, Ordering::SeqCst);
                self.unsynced.clear();
                return Err(io::Error::other("injected sync failure"));
            }
            self.script.syncs.fetch_add(1, Ordering::SeqCst);
            for (offset, data) in self.unsynced.drain(..) {
                self.inner.write_at(offset, &data)?;
            }
            Ok(())
        }
        fn len(&self) -> io::Result<u64> {
            self.inner.len()
        }
        fn truncate(&mut self, len: u64) -> io::Result<()> {
            self.inner.truncate(len)
        }
    }

    /// A fresh store on scripted media: the journals share one sync
    /// script (first of the pair: one sync per non-empty commit), the
    /// frame segment has its own (second).
    fn open_scripted(capacity: usize) -> (DurableStore, Arc<SyncScript>, Arc<SyncScript>) {
        let journal = Arc::new(SyncScript::default());
        let frames = Arc::new(SyncScript::default());
        let media = DurableMediaSet {
            frames: ScriptedMedia::boxed(&frames),
            journal_a: ScriptedMedia::boxed(&journal),
            journal_b: ScriptedMedia::boxed(&journal),
        };
        let store = DurableStore::open(media, capacity).expect("format").store;
        journal.syncs.store(0, Ordering::SeqCst);
        frames.syncs.store(0, Ordering::SeqCst);
        (store, journal, frames)
    }

    #[test]
    fn a_slot_released_in_the_open_group_is_not_reused_before_commit() {
        let mut r = open_mem(4);
        r.store.put(1, &block(0x11), true).unwrap();
        let first = *r.store.slot_of.get(1).unwrap();
        // The on-media journal vouches for `first` until the group that
        // supersedes it commits: nothing staged meanwhile may land there.
        r.store.stage_put(1, &block(0x12), true).unwrap();
        r.store.stage_evict(1);
        for key in 2..6u64 {
            r.store.stage_put(key, &block(key as u8), false).unwrap();
            assert_ne!(*r.store.slot_of.get(key).unwrap(), first);
        }
        assert!(r.store.open.frees.contains(&first));
        assert!(!r.store.free.contains(&first));
        r.store.commit().unwrap();
        assert!(r.store.open.frees.is_empty());
        assert!(r.store.pipe.journal.lock().carry.frees.is_empty());
        assert!(r.store.free.contains(&first), "released by the commit");
    }

    #[test]
    fn running_out_of_free_slots_is_an_error_until_a_commit_releases_them() {
        let (mut store, script, _) = open_scripted(2);
        let slots = store.slots() as usize;
        // Every rewrite of key 1 takes a fresh slot and releases the old
        // one into the open group; after `slots` rewrites the free list
        // is dry, and staging — which touches no device — says so
        // instead of committing behind its caller's back.
        for i in 0..slots {
            store.stage_put(1, &block(i as u8), true).unwrap();
        }
        assert!(store.out_of_slots());
        let err = store.stage_put(1, &block(0xEE), true).unwrap_err();
        assert!(err.to_string().contains("out of slots"), "{err}");
        assert_eq!(script.syncs.load(Ordering::SeqCst), 0, "no hidden commit");
        assert_eq!(store.open.records.len(), slots * JOURNAL_RECORD_LEN);
        // One commit releases every superseded slot.
        store.commit().unwrap();
        assert_eq!(script.syncs.load(Ordering::SeqCst), 1);
        assert_eq!(store.free.len(), slots - 1);
        store.stage_put(1, &block(slots as u8), true).unwrap();
        store.commit().unwrap();
        assert_eq!(script.syncs.load(Ordering::SeqCst), 2);
        let r = reopen(store, 2);
        assert_eq!(r.report.quarantined, 0);
        assert_eq!(*r.frames[0].data, block(slots as u8));
    }

    #[test]
    fn a_failed_commit_keeps_the_group_open_and_the_next_one_lands_it() {
        let (mut store, script, _) = open_scripted(8);
        store.put(1, &block(0x11), true).unwrap();
        store.stage_put(1, &block(0x12), true).unwrap();
        store.stage_put(2, &block(0x22), true).unwrap();
        let end = journal_end(&store);
        script.fail_syncs.store(1, Ordering::SeqCst);
        assert!(store.commit().is_err());
        assert_eq!(journal_end(&store), end, "nothing was appended for good");
        // The frames landed; the records and the released slot wait at
        // the journal for the next commit.
        {
            let journal = store.pipe.journal.lock();
            assert_eq!(journal.carry.records.len(), 2 * JOURNAL_RECORD_LEN);
            assert!(
                journal.carry.frames.is_empty(),
                "frame bytes stop at stage 1"
            );
            assert_eq!(journal.carry.frees.len(), 1, "key 1's old slot still held");
        }
        assert!(store.open.records.is_empty());
        // More work is staged; the retry writes the failed records
        // again (the failed sync dropped them) ahead of the new one.
        store.stage_put(3, &block(0x33), true).unwrap();
        store.commit().unwrap();
        assert_eq!(journal_end(&store), end + 3 * JOURNAL_RECORD_LEN as u64);
        assert!(store.pipe.journal.lock().carry.frees.is_empty());
        let r = reopen_unclean(store, 8);
        assert_eq!(r.report.quarantined, 0);
        assert_eq!(r.report.lost_dirty, 0);
        let got: Vec<(u64, u8)> = r.frames.iter().map(|f| (f.key, f.data[0])).collect();
        assert_eq!(got, vec![(1, 0x12), (2, 0x22), (3, 0x33)]);
    }

    /// Linux reports a failed `fdatasync` once and marks the pages
    /// clean: syncing again would return `Ok` over frames that never
    /// landed. The group keeps its frame bytes until they are synced, so
    /// the retry writes every one of them again.
    #[test]
    fn a_failed_frame_sync_is_retried_by_writing_the_frames_again() {
        let (mut store, journal, frames) = open_scripted(8);
        store.put(1, &block(0x11), true).unwrap();
        store.stage_put(1, &block(0x12), true).unwrap();
        store.stage_put(2, &block(0x22), true).unwrap();
        store.stage_evict(2);
        store.stage_put(3, &block(0x33), true).unwrap();
        let (frame_syncs, journal_syncs) = (
            frames.syncs.load(Ordering::SeqCst),
            journal.syncs.load(Ordering::SeqCst),
        );
        frames.fail_syncs.store(1, Ordering::SeqCst);
        assert!(store.commit().is_err());
        assert_eq!(
            journal.syncs.load(Ordering::SeqCst),
            journal_syncs,
            "no record reaches the journal before its frame is synced"
        );
        // The whole group is back at the head of the open group, in
        // order, its released slots still held.
        assert_eq!(store.open.slots.len(), 3);
        assert_eq!(store.open.frames.len(), 3 * FRAME_RECORD_LEN);
        assert_eq!(store.open.records.len(), 4 * JOURNAL_RECORD_LEN);
        assert_eq!(store.open.frees.len(), 2);
        store.stage_put(4, &block(0x44), true).unwrap();
        store.commit().unwrap();
        assert_eq!(frames.syncs.load(Ordering::SeqCst), frame_syncs + 1);
        assert!(store.open.records.is_empty() && store.open.frees.is_empty());
        let r = reopen_unclean(store, 8);
        assert_eq!((r.report.quarantined, r.report.lost_dirty), (0, 0));
        let got: Vec<(u64, u8)> = r.frames.iter().map(|f| (f.key, f.data[0])).collect();
        assert_eq!(got, vec![(1, 0x12), (3, 0x33), (4, 0x44)]);
    }

    #[test]
    fn adjacent_slots_land_in_one_write() {
        struct CountingWrites(MemMedia, Arc<AtomicU64>);
        impl Media for CountingWrites {
            fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
                self.0.read_at(offset, buf)
            }
            fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
                self.1.fetch_add(1, Ordering::SeqCst);
                self.0.write_at(offset, data)
            }
            fn sync(&mut self) -> io::Result<()> {
                Ok(())
            }
            fn len(&self) -> io::Result<u64> {
                self.0.len()
            }
            fn truncate(&mut self, len: u64) -> io::Result<()> {
                self.0.truncate(len)
            }
        }
        let writes = Arc::new(AtomicU64::new(0));
        let media = DurableMediaSet {
            frames: Box::new(CountingWrites(MemMedia::new(), Arc::clone(&writes))),
            ..DurableMediaSet::in_memory()
        };
        let mut store = DurableStore::open(media, 8).expect("format").store;
        writes.store(0, Ordering::SeqCst);
        // A fresh store hands out slots 0, 1, 2, ...: one run.
        for key in 0..5u64 {
            store.stage_put(key, &block(key as u8 + 1), true).unwrap();
        }
        store.commit().unwrap();
        assert_eq!(writes.load(Ordering::SeqCst), 1);
        // Rewriting keys 0 and 4 frees slots 0 and 4: the next two puts
        // are not neighbours, and land apart.
        store.put(0, &block(0xA0), true).unwrap();
        store.put(4, &block(0xA4), true).unwrap();
        writes.store(0, Ordering::SeqCst);
        store.stage_put(8, &block(0x08), true).unwrap();
        store.stage_put(9, &block(0x09), true).unwrap();
        store.commit().unwrap();
        assert_eq!(writes.load(Ordering::SeqCst), 2);
        let r = reopen_unclean(store, 8);
        assert_eq!((r.report.recovered, r.report.quarantined), (7, 0));
        for frame in &r.frames {
            let expect = match frame.key {
                0 => 0xA0,
                4 => 0xA4,
                8 | 9 => frame.key as u8,
                key => key as u8 + 1,
            };
            assert_eq!(*frame.data, block(expect), "key {}", frame.key);
        }
    }

    #[test]
    fn scrub_skips_frames_that_are_only_staged_and_yields_to_a_lander() {
        let mut r = open_mem(8);
        r.store.put(1, &block(0x11), false).unwrap();
        // Key 2's frame exists only in the open group: its slot reads
        // as zeroes on the device, which is not rot.
        r.store.stage_put(2, &block(0x22), false).unwrap();
        let pass = r.store.scrub(0, r.store.slots()).unwrap();
        assert_eq!(pass.verified, 1);
        assert!(pass.quarantined.is_empty(), "a staged frame is healthy");
        // While a group lands (the frame device is locked) a pass looks
        // at nothing and keeps its place.
        let pipe = r.store.pipe();
        let landing = pipe.frames.lock();
        let pass = r.store.scrub(3, r.store.slots()).unwrap();
        assert_eq!((pass.scanned, pass.next_slot), (0, 3));
        drop(landing);
        r.store.commit().unwrap();
        let pass = r.store.scrub(0, r.store.slots()).unwrap();
        assert_eq!(pass.verified, 2);
    }

    #[test]
    fn an_uncommitted_group_leaves_the_previous_state_recoverable() {
        let mut r = open_mem(4);
        r.store.put(1, &block(0x11), true).unwrap();
        r.store.put(2, &block(0x22), true).unwrap();
        // Staged but never committed: rewrites, an eviction and enough
        // fresh keys to use every free slot. No device has heard of any
        // of it.
        let before = r.store.clone_media_bytes().unwrap();
        r.store.stage_put(1, &block(0x12), true).unwrap();
        r.store.stage_evict(2);
        let mut key = 3u64;
        while !r.store.out_of_slots() {
            r.store.stage_put(key, &block(key as u8), true).unwrap();
            key += 1;
        }
        assert!(before == r.store.clone_media_bytes().unwrap());
        let r = reopen_unclean(r.store, 4);
        assert_eq!(r.report.quarantined, 0);
        assert_eq!(r.report.lost_dirty, 0);
        let got: Vec<(u64, u8)> = r.frames.iter().map(|f| (f.key, f.data[0])).collect();
        assert_eq!(got, vec![(1, 0x11), (2, 0x22)], "the pre-group state");
    }

    #[test]
    fn an_empty_commit_touches_no_media() {
        let (mut store, script, _) = open_scripted(4);
        store.commit().unwrap();
        store.stage_mark_clean(9); // not resident: stages nothing
        store.stage_evict(9);
        store.commit().unwrap();
        assert_eq!(script.syncs.load(Ordering::SeqCst), 0);
    }

    /// The on-disk format did not move with group commit: an image
    /// written by the per-record build (one synced journal record per
    /// mutation, `fixtures/durable_v1_*.bin`) opens here, and what
    /// this build appends to it is laid out the same way.
    #[test]
    fn a_per_record_builds_image_opens_and_extends() {
        let media = DurableMediaSet {
            frames: Box::new(MemMedia::from_bytes(
                include_bytes!("../fixtures/durable_v1_frames.bin").to_vec(),
            )),
            journal_a: Box::new(MemMedia::from_bytes(
                include_bytes!("../fixtures/durable_v1_journal_a.bin").to_vec(),
            )),
            journal_b: Box::new(MemMedia::from_bytes(
                include_bytes!("../fixtures/durable_v1_journal_b.bin").to_vec(),
            )),
        };
        let mut r = DurableStore::open(media, 4).expect("parent image opens");
        assert!(!r.report.clean_shutdown, "the image is a crash image");
        assert_eq!(r.report.journal_records, 6);
        assert_eq!(r.report.dropped_clean, 1, "key 3 was clean");
        assert_eq!((r.report.quarantined, r.report.lost_dirty), (0, 0));
        let got: Vec<(u64, u8)> = r.frames.iter().map(|f| (f.key, f.data[0])).collect();
        assert_eq!(got, vec![(1, 0xA2), (4, 0xD4)]);
        r.store.stage_put(5, &block(0xE5), true).unwrap();
        r.store.stage_put(1, &block(0xA3), true).unwrap();
        r.store.commit().unwrap();
        let r = reopen(r.store, 4);
        let got: Vec<(u64, u8)> = r.frames.iter().map(|f| (f.key, f.data[0])).collect();
        assert_eq!(got, vec![(4, 0xD4), (5, 0xE5), (1, 0xA3)]);
    }
}
