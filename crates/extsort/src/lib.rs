//! SieveStore-D's access counting.
//!
//! SieveStore-D (§3.2 of the paper) must count accesses for **every** block
//! touched in an epoch — including blocks not resident in the cache — and
//! does so off the critical path by logging each access and periodically
//! running a "map-reduction-like" per-key reduction:
//!
//! 1. each access is logged as an `<address, 1>` tuple into one of `R`
//!    partition files chosen by a hash of the address,
//! 2. each partition file is sorted,
//! 3. runs of the same address are counted and re-emitted as
//!    `<address, n>` tuples.
//!
//! [`AccessLog`] is that log. The reduction may run *incrementally*
//! ([`AccessLog::compact`]) to keep log sizes bounded; at the epoch
//! boundary [`AccessLog::finish_selection`] selects the blocks at or
//! above the allocation threshold, or [`AccessLog::finish`] produces the
//! full totals as [`BlockCounts`] — the one per-key count table, which
//! the Ideal oracle and the trace analyses count days into as well.
//!
//! [`AccessCounter`] is the epoch counter SieveStore-D runs on, minted
//! by a [`CountingConfig`]: one 16-byte slot per key per epoch,
//! `(key, count | resident bit)`, so counting an access and answering
//! "did last epoch select this block?" is one probe of one cache line.
//! The bit is seeded after each epoch install and never reaches a count;
//! the table is emptied in place at the boundary. Under spill counting
//! the same table drains into an [`AccessLog`] whenever it holds its key
//! budget, so memory stays bounded — and the bit cannot survive a drain.
//!
//! # Examples
//!
//! ```
//! use sievestore_extsort::AccessLog;
//!
//! # fn main() -> Result<(), sievestore_types::SieveError> {
//! let dir = std::env::temp_dir().join("sievestore-doc-extsort");
//! let mut log = AccessLog::create(&dir, 4)?;
//! for key in [7u64, 9, 7, 7, 1] {
//!     log.record(key);
//! }
//! let counts = log.finish()?;
//! assert_eq!(counts.get(7), 3);
//! assert_eq!(counts.get(9), 1);
//! assert_eq!(counts.keys_with_at_least(2), vec![7]);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};

use sievestore_types::{prefetch_read, Request, SieveError, U64Map};

/// Per-block access totals over some slice of a trace: one epoch, one
/// calendar day, one server or one volume.
///
/// Iteration order is unspecified; every derived figure (ranking,
/// selection, fractions) is order-independent.
///
/// # Examples
///
/// ```
/// use sievestore_extsort::BlockCounts;
///
/// let counts = BlockCounts::from_blocks([1u64, 1, 2].into_iter());
/// assert_eq!(counts.get(1), 2);
/// assert_eq!(counts.unique_blocks(), 2);
/// assert_eq!(counts.total_accesses(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockCounts {
    counts: U64Map<u64>,
    total: u64,
}

impl BlockCounts {
    /// Creates an empty count table.
    pub fn new() -> Self {
        BlockCounts::default()
    }

    /// Counts each block key produced by the iterator.
    pub fn from_blocks(blocks: impl Iterator<Item = u64>) -> Self {
        let mut counts = BlockCounts::new();
        blocks.for_each(|key| counts.record(key));
        counts
    }

    /// Counts every 512-byte block touched by the requests.
    pub fn from_requests<'a>(requests: impl Iterator<Item = &'a Request>) -> Self {
        BlockCounts::from_blocks(requests.flat_map(|r| r.blocks().map(|b| b.raw())))
    }

    /// Records one access.
    pub fn record(&mut self, key: u64) {
        self.add(key, 1);
    }

    fn add(&mut self, key: u64, accesses: u64) {
        *self.counts.get_or_insert_with(key, || 0) += accesses;
        self.total += accesses;
    }

    /// Access count of one block (0 if untouched).
    pub fn get(&self, key: u64) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Number of distinct blocks.
    pub fn unique_blocks(&self) -> usize {
        self.counts.len()
    }

    /// Total accesses.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Whether nothing was counted.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// All counts in descending order (the ranked popularity curve).
    pub fn sorted_desc(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self.iter().map(|(_, c)| c).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }

    /// `(key, count)` pairs sorted by descending count, ties by key.
    pub fn ranked(&self) -> Vec<(u64, u64)> {
        let mut ranked: Vec<(u64, u64)> = self.iter().collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }

    /// The most-accessed `fraction` of distinct blocks (ties broken by
    /// key) and the accesses they cover: the Ideal oracle's rule, with
    /// the paper's 1 %.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn top_fraction(&self, fraction: f64) -> (Vec<u64>, u64) {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let n = (self.counts.len() as f64 * fraction).round() as usize;
        let mut ranked = self.ranked();
        ranked.truncate(n);
        let covered = ranked.iter().map(|&(_, c)| c).sum();
        (ranked.into_iter().map(|(k, _)| k).collect(), covered)
    }

    /// Keys whose count is at least `threshold`, sorted ascending:
    /// SieveStore-D's allocation rule (blocks with `count >= t` in epoch
    /// *i* are batch-allocated for epoch *i + 1*).
    pub fn keys_with_at_least(&self, threshold: u64) -> Vec<u64> {
        let selected = self.iter().filter(|&(_, c)| c >= threshold);
        let mut keys: Vec<u64> = selected.map(|(k, _)| k).collect();
        keys.sort_unstable();
        keys
    }

    /// Fraction of distinct blocks whose count is at most `limit`
    /// (e.g. the paper's "99 % of blocks see 10 or fewer accesses").
    pub fn fraction_with_at_most(&self, limit: u64) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        let n = self.iter().filter(|&(_, c)| c <= limit).count();
        n as f64 / self.counts.len() as f64
    }

    /// Iterates over `(key, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(k, &c)| (k, c))
    }
}

/// Sums `(key, count)` tuples, merging duplicate keys.
impl FromIterator<(u64, u64)> for BlockCounts {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let mut counts = BlockCounts::new();
        iter.into_iter().for_each(|(k, c)| counts.add(k, c));
        counts
    }
}

impl<'a> FromIterator<&'a Request> for BlockCounts {
    fn from_iter<I: IntoIterator<Item = &'a Request>>(iter: I) -> Self {
        BlockCounts::from_requests(iter.into_iter())
    }
}

/// `word` bit 0: the key is resident in the epoch cache.
const RESIDENT: u64 = 1;
/// One access in a slot's `word` (the count sits above the resident bit).
const ONE: u64 = 2;
/// Smallest table (slots).
const MIN_SLOTS: usize = 16;

/// One key's epoch state; `word == 0` marks a vacant slot, so every
/// `u64` — `u64::MAX` included — is a legal key. Sixteen-byte aligned:
/// a slot never straddles a cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(16))]
struct Slot {
    key: u64,
    /// `count << 1 | resident`.
    word: u64,
}

/// SieveStore-D's epoch access counter, minted by
/// [`CountingConfig::counter`]. See the [crate docs](crate) for the
/// layout.
///
/// In memory the table holds the whole epoch, and [`touch`](Self::touch)
/// answers residency from the slot it counts in. Under spill counting the
/// table drains into the counter's [`AccessLog`] whenever it holds
/// `budget` keys, so it keeps no resident bit: `touch` answers `None`
/// and [`seed_resident`](Self::seed_resident) does nothing.
///
/// # Examples
///
/// ```
/// use sievestore_extsort::CountingConfig;
///
/// let mut counter = CountingConfig::InMemory.counter().unwrap();
/// counter.seed_resident(5);
/// assert_eq!(counter.touch(5), Some(true));
/// assert_eq!(counter.touch(6), Some(false));
/// counter.record(5);
/// assert_eq!(counter.end_epoch(2).unwrap(), vec![5]);
/// // The next epoch starts in the same table, with no count and no bit.
/// assert_eq!(counter.touch(5), Some(false));
/// ```
#[derive(Debug)]
pub struct AccessCounter {
    /// Power-of-two length, linear probing, at most 3/4 occupied.
    slots: Box<[Slot]>,
    /// `64 - log2(slots.len())`: the Fibonacci multiply-shift.
    shift: u32,
    /// Occupied slots: touched or seeded.
    used: usize,
    /// Where the table drains to under spill counting.
    spill: Option<Spill>,
}

/// A spill-backed counter's log: one epoch's at a time, emptied in place
/// at each boundary. The log lives in a subdirectory of its own, removed
/// with it.
#[derive(Debug)]
struct Spill {
    log: AccessLog,
    /// The table drains once it holds this many keys.
    budget: usize,
}

impl Drop for Spill {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.log.dir);
    }
}

impl AccessCounter {
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `key`, or the vacant slot where it would go.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mut i = self.home(key);
        loop {
            let slot = &self.slots[i];
            if slot.word == 0 || slot.key == key {
                return i;
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }

    /// `key`'s slot, claimed (with a zero word the caller must make
    /// nonzero) if the key was absent.
    #[inline]
    fn entry(&mut self, key: u64) -> &mut Slot {
        let mut i = self.probe(key);
        if self.slots[i].word == 0 {
            if (self.used + 1) * 4 > self.slots.len() * 3 {
                self.resize(self.slots.len() * 2);
                i = self.probe(key);
            }
            self.slots[i].key = key;
            self.used += 1;
        }
        &mut self.slots[i]
    }

    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); slots].into());
        self.shift = 64 - slots.trailing_zeros();
        for slot in old.iter().filter(|s| s.word != 0) {
            self.slots[self.probe(slot.key)] = *slot;
        }
    }

    /// Records one access to `key`.
    #[inline]
    pub fn record(&mut self, key: u64) {
        self.touch(key);
    }

    /// [`record`](Self::record), answering whether `key` was
    /// [seeded](Self::seed_resident) this epoch; `None` under spill
    /// counting, which sends the caller to the cache itself.
    #[inline]
    pub fn touch(&mut self, key: u64) -> Option<bool> {
        let slot = self.entry(key);
        slot.word += ONE;
        let resident = slot.word & RESIDENT != 0;
        let Some(spill) = &self.spill else {
            return Some(resident);
        };
        if self.used >= spill.budget {
            self.spill_table();
        }
        None
    }

    /// Marks `key` resident for this epoch without counting an access.
    /// `touch` is right only if exactly the keys resident *after* each
    /// epoch install are seeded. A no-op under spill counting.
    pub fn seed_resident(&mut self, key: u64) {
        if self.spill.is_none() {
            self.entry(key).word |= RESIDENT;
        }
    }

    /// Hints that `key` is about to be counted. Changes no state.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        prefetch_read(&self.slots[self.home(key)]);
    }

    /// Ends the epoch in place: returns every key counted at least
    /// `threshold` times, sorted ascending, and empties the counter —
    /// counts and resident marks — for the next epoch. The table keeps
    /// its size; a spill log is read back and truncated, so one epoch's
    /// log exists at a time.
    ///
    /// # Errors
    ///
    /// Returns an error if the spill log cannot be read back or reopened
    /// (never in memory).
    pub fn end_epoch(&mut self, threshold: u64) -> Result<Vec<u64>, SieveError> {
        let keys = self.select(threshold)?;
        self.slots.fill(Slot::default());
        self.used = 0;
        Ok(keys)
    }

    /// Finalizes straight into the selection [`end_epoch`](Self::end_epoch)
    /// would return, without readying a next epoch.
    ///
    /// # Errors
    ///
    /// As [`end_epoch`](Self::end_epoch).
    pub fn finish_selection(mut self, threshold: u64) -> Result<Vec<u64>, SieveError> {
        self.select(threshold)
    }

    fn select(&mut self, threshold: u64) -> Result<Vec<u64>, SieveError> {
        if let Some(log) = self.spill_table() {
            return log.finish_selection(threshold);
        }
        // `count >= t` is `word >= 2t` whatever the resident bit says; a
        // seeded, never-touched key has count 0 and was not observed.
        let floor = threshold.max(1).saturating_mul(ONE);
        let selected = self.slots.iter().filter(|s| s.word >= floor);
        let mut keys: Vec<u64> = selected.map(|s| s.key).collect();
        keys.sort_unstable();
        Ok(keys)
    }

    /// Under spill counting, drains the table's counts into the log as
    /// pre-aggregated tuples and returns the log; in memory, `None`.
    fn spill_table(&mut self) -> Option<&mut AccessLog> {
        let spill = self.spill.as_mut()?;
        for slot in self.slots.iter().filter(|s| s.word != 0) {
            spill.log.record_count(slot.key, slot.word / ONE);
        }
        self.slots.fill(Slot::default());
        self.used = 0;
        Some(&mut spill.log)
    }
}

/// One `<key, count>` tuple, 16 bytes little-endian on disk.
const TUPLE_BYTES: usize = 16;

/// The external, hash-partitioned access log (the paper's mechanism).
///
/// Tuples are buffered per partition and spilled to `R` files. Calling
/// [`AccessLog::compact`] performs the incremental per-key reduction the
/// paper describes (sort each partition, count runs, rewrite); calling
/// [`AccessLog::finish`] produces the final totals.
///
/// Dropping the log removes its partition files (best-effort).
#[derive(Debug)]
pub struct AccessLog {
    dir: PathBuf,
    partitions: usize,
    writers: Vec<BufWriter<File>>,
    /// Total tuples logged (pre-reduction).
    logged: u64,
}

impl AccessLog {
    /// Creates a log with `partitions` spill files inside `dir`
    /// (the directory is created if needed).
    ///
    /// # Errors
    ///
    /// Returns an error if the directory or spill files cannot be created,
    /// or if `partitions == 0`.
    pub fn create(dir: impl AsRef<Path>, partitions: usize) -> Result<Self, SieveError> {
        if partitions == 0 {
            return Err(SieveError::InvalidConfig(
                "access log needs at least one partition".into(),
            ));
        }
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut writers = Vec::with_capacity(partitions);
        for i in 0..partitions {
            writers.push(BufWriter::new(File::create(partition_path(&dir, i))?));
        }
        Ok(AccessLog {
            dir,
            partitions,
            writers,
            logged: 0,
        })
    }

    /// Number of partition files.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Total accesses logged since creation or the last
    /// [`finish_selection`](Self::finish_selection) (pre-reduction).
    pub fn logged(&self) -> u64 {
        self.logged
    }

    /// Bytes currently on disk across partitions (post last compaction
    /// flush; buffered tuples not yet flushed are excluded).
    ///
    /// # Errors
    ///
    /// Propagates metadata I/O errors.
    pub fn disk_bytes(&self) -> Result<u64, SieveError> {
        let mut total = 0;
        for i in 0..self.partitions {
            total += fs::metadata(partition_path(&self.dir, i))?.len();
        }
        Ok(total)
    }

    fn partition_of(&self, key: u64) -> usize {
        // SplitMix64 finalizer as the partition hash.
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize % self.partitions
    }

    /// Logs one access as an `<address, 1>` tuple.
    ///
    /// I/O errors are deferred: the tuple goes into a buffered writer and
    /// any failure surfaces at the next [`AccessLog::compact`] or
    /// finishing call, keeping this hot path infallible.
    pub fn record(&mut self, key: u64) {
        self.record_count(key, 1);
    }

    /// Logs a pre-aggregated `<address, count>` tuple — how a spill-backed
    /// [`AccessCounter`] drains its table without replaying every access.
    /// I/O errors are deferred as in [`AccessLog::record`].
    fn record_count(&mut self, key: u64, count: u64) {
        let p = self.partition_of(key);
        let mut tuple = [0u8; TUPLE_BYTES];
        tuple[0..8].copy_from_slice(&key.to_le_bytes());
        tuple[8..16].copy_from_slice(&count.to_le_bytes());
        // Errors deferred to the next call that flushes and re-reads.
        let _ = self.writers[p].write_all(&tuple);
        self.logged += count;
    }

    /// Partition `i`, flushed, read back and reduced to one tuple per key.
    fn reduced(&mut self, i: usize) -> Result<Vec<(u64, u64)>, SieveError> {
        self.writers[i].flush()?;
        Ok(reduce(read_tuples(&partition_path(&self.dir, i))?))
    }

    /// Incrementally reduces every partition: sort by key, merge runs into
    /// `<address, n>` tuples, rewrite. Keeps log size proportional to the
    /// number of *distinct* keys rather than the number of accesses.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from reading or rewriting partitions.
    pub fn compact(&mut self) -> Result<(), SieveError> {
        for i in 0..self.partitions {
            let reduced = self.reduced(i)?;
            write_tuples(&partition_path(&self.dir, i), &reduced)?;
            let file = OpenOptions::new()
                .append(true)
                .open(partition_path(&self.dir, i))?;
            self.writers[i] = BufWriter::new(file);
        }
        Ok(())
    }

    /// Finalizes: reduces every partition and merges the totals.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish(mut self) -> Result<BlockCounts, SieveError> {
        let mut tuples = Vec::new();
        for i in 0..self.partitions {
            tuples.extend(self.reduced(i)?);
        }
        Ok(tuples.into_iter().collect())
    }

    /// Selects every key logged at least `threshold` times, sorted
    /// ascending — [`BlockCounts::keys_with_at_least`] over
    /// [`AccessLog::finish`] — one partition at a time, so peak memory is
    /// the largest partition plus the selected keys. Each partition is
    /// truncated once read: the log is empty afterwards, ready for the
    /// next epoch.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish_selection(&mut self, threshold: u64) -> Result<Vec<u64>, SieveError> {
        let mut keys = Vec::new();
        for i in 0..self.partitions {
            let selected = self
                .reduced(i)?
                .into_iter()
                .filter(|&(_, c)| c >= threshold);
            keys.extend(selected.map(|(k, _)| k));
            self.writers[i] = BufWriter::new(File::create(partition_path(&self.dir, i))?);
        }
        self.logged = 0;
        // Partitions are hash-split, so a global sort restores the
        // selection order the in-memory table produces.
        keys.sort_unstable();
        Ok(keys)
    }
}

impl Drop for AccessLog {
    fn drop(&mut self) {
        for i in 0..self.partitions {
            let _ = fs::remove_file(partition_path(&self.dir, i));
        }
    }
}

/// Default distinct-key budget for a spill-backed counter's table
/// (16 MiB of 16-byte slots at the table's densest).
pub const DEFAULT_SPILL_BUDGET: usize = 1 << 20;
/// Default partition count for spill-backed counting.
pub const DEFAULT_SPILL_PARTITIONS: usize = 16;

/// Sequence number making concurrent spill counters in one process use
/// disjoint directories.
static SPILL_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How an epoch's access counting should be backed.
///
/// The selection produced at each epoch boundary is identical across
/// backends (pinned by tests); the choice only trades memory for disk
/// I/O.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum CountingConfig {
    /// Everything in the epoch table: fastest, memory proportional to
    /// the epoch's distinct-key population.
    #[default]
    InMemory,
    /// The epoch table drains into a partitioned on-disk log whenever it
    /// holds `budget` keys: memory bounded regardless of epoch size.
    Spill {
        /// Root directory spill logs live under.
        dir: PathBuf,
        /// Max distinct keys in the table before a drain.
        budget: usize,
        /// Spill log partition count.
        partitions: usize,
    },
}

impl CountingConfig {
    /// Spill-backed counting under `dir` with default budget/partitions.
    pub fn spill(dir: impl Into<PathBuf>) -> Self {
        CountingConfig::Spill {
            dir: dir.into(),
            budget: DEFAULT_SPILL_BUDGET,
            partitions: DEFAULT_SPILL_PARTITIONS,
        }
    }

    /// Overrides the table's key budget (spill mode only; no-op for
    /// in-memory).
    #[must_use]
    pub fn with_budget(mut self, keys: usize) -> Self {
        if let CountingConfig::Spill { budget, .. } = &mut self {
            *budget = keys;
        }
        self
    }

    /// Creates a counter, which then counts every epoch in turn
    /// ([`AccessCounter::end_epoch`]). A spill counter claims a
    /// process-unique `epoch-*` subdirectory under the spill root, so one
    /// config serves many concurrent counters; the subdirectory is
    /// removed when the counter drops.
    ///
    /// # Errors
    ///
    /// Returns an error if the spill budget is 0 or the spill log cannot
    /// be created.
    pub fn counter(&self) -> Result<AccessCounter, SieveError> {
        let spill = match self {
            CountingConfig::InMemory => None,
            CountingConfig::Spill {
                dir,
                budget,
                partitions,
            } => {
                if *budget == 0 {
                    return Err(SieveError::InvalidConfig(
                        "spill counter needs a non-zero key budget".into(),
                    ));
                }
                let seq = SPILL_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let dir = dir.join(format!("epoch-{}-{seq:04}", std::process::id()));
                Some(Spill {
                    log: AccessLog::create(dir, *partitions)?,
                    budget: *budget,
                })
            }
        };
        Ok(AccessCounter {
            slots: vec![Slot::default(); MIN_SLOTS].into(),
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            used: 0,
            spill,
        })
    }
}

fn partition_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("part-{index:04}.log"))
}

/// Reads all `<key, count>` tuples of a partition file.
fn read_tuples(path: &Path) -> Result<Vec<(u64, u64)>, SieveError> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut reader = BufReader::new(file);
    let mut tuples = Vec::new();
    let mut buf = [0u8; TUPLE_BYTES];
    loop {
        match reader.read_exact(&mut buf) {
            Ok(()) => {
                let key = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
                let count = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
                tuples.push((key, count));
            }
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(tuples)
}

/// Sorts tuples by key and merges runs: the per-key reduction step.
fn reduce(mut tuples: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    tuples.sort_unstable_by_key(|&(k, _)| k);
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(tuples.len());
    for (k, c) in tuples {
        match out.last_mut() {
            Some((lk, lc)) if *lk == k => *lc += c,
            _ => out.push((k, c)),
        }
    }
    out
}

fn write_tuples(path: &Path, tuples: &[(u64, u64)]) -> Result<(), SieveError> {
    let file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)?;
    let mut writer = BufWriter::new(file);
    for &(k, c) in tuples {
        writer.write_all(&k.to_le_bytes())?;
        writer.write_all(&c.to_le_bytes())?;
    }
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use sievestore_types::{BlockAddr, Micros, RequestKind, ServerId, VolumeId};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sievestore-extsort-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The two counting backends, by the names of the types that held
    /// them before there was one counter.
    type InMemoryCounter = AccessCounter;
    type SpillCounter = AccessCounter;

    impl AccessCounter {
        fn new() -> Self {
            CountingConfig::InMemory.counter().unwrap()
        }

        fn create(
            root: impl Into<PathBuf>,
            budget: usize,
            partitions: usize,
        ) -> Result<Self, SieveError> {
            let dir = root.into();
            CountingConfig::Spill {
                dir,
                budget,
                partitions,
            }
            .counter()
        }
    }

    /// The counts the table holds (the whole epoch's, in memory).
    fn table_counts(counter: &AccessCounter) -> BlockCounts {
        let counted = counter.slots.iter().filter(|s| s.word >= ONE);
        counted.map(|s| (s.key, s.word / ONE)).collect()
    }

    /// The epoch's counts so far, whichever way `counter` is backed.
    fn totals(mut counter: AccessCounter) -> BlockCounts {
        counter.spill_table();
        let mut counts = table_counts(&counter);
        if let Some(spill) = &mut counter.spill {
            for i in 0..spill.log.partitions {
                for (key, accesses) in spill.log.reduced(i).unwrap() {
                    counts.add(key, accesses);
                }
            }
        }
        counts
    }

    /// Accesses that reached a spill counter's log so far.
    fn spilled(counter: &AccessCounter) -> u64 {
        counter.spill.as_ref().map_or(0, |spill| spill.log.logged())
    }

    #[test]
    fn zero_partitions_is_rejected() {
        assert!(AccessLog::create(temp_dir("zero"), 0).is_err());
    }

    #[test]
    fn counts_match_in_memory_oracle() {
        let dir = temp_dir("oracle");
        let mut log = AccessLog::create(&dir, 8).unwrap();
        let mut oracle = InMemoryCounter::new();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50_000 {
            let key = rng.random_range(0..5_000u64);
            log.record(key);
            oracle.record(key);
        }
        let external = log.finish().unwrap();
        let expected = totals(oracle);
        assert_eq!(external, expected);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_preserves_totals_and_shrinks_disk() {
        let dir = temp_dir("compact");
        let mut log = AccessLog::create(&dir, 4).unwrap();
        // 10_000 accesses to only 50 distinct keys.
        for i in 0..10_000u64 {
            log.record(i % 50);
        }
        log.compact().unwrap();
        let after_first = log.disk_bytes().unwrap();
        assert!(
            after_first <= 50 * TUPLE_BYTES as u64,
            "compacted size {after_first}"
        );
        // Log more, compact again, counts must still be exact.
        for i in 0..5_000u64 {
            log.record(i % 50);
        }
        log.compact().unwrap();
        let counts = log.finish().unwrap();
        assert_eq!(counts.unique_blocks(), 50);
        for k in 0..50 {
            assert_eq!(counts.get(k), 300, "key {k}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn logged_counts_tuples_not_keys() {
        let dir = temp_dir("logged");
        let mut log = AccessLog::create(&dir, 2).unwrap();
        for _ in 0..7 {
            log.record(1);
        }
        assert_eq!(log.logged(), 7);
        assert_eq!(log.partitions(), 2);
        let counts = log.finish().unwrap();
        assert_eq!(counts.total_accesses(), 7);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_finished_selection_empties_the_log_for_the_next_epoch() {
        let dir = temp_dir("reopen");
        let mut log = AccessLog::create(&dir, 3).unwrap();
        [4u64, 4, 5, 6, 6, 6].iter().for_each(|&k| log.record(k));
        log.compact().unwrap();
        log.record(5);
        assert_eq!(log.finish_selection(2).unwrap(), vec![4, 5, 6]);
        assert_eq!((log.logged(), log.disk_bytes().unwrap()), (0, 0));
        // The next epoch counts from zero in the same files.
        [5u64, 6, 6].iter().for_each(|&k| log.record(k));
        assert_eq!(log.finish_selection(2).unwrap(), vec![6]);
        log.record(7);
        let counts = log.finish().unwrap();
        assert_eq!((counts.unique_blocks(), counts.get(7)), (1, 1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threshold_selection_matches_paper_rule() {
        let counts: BlockCounts = [(1u64, 12u64), (2, 10), (3, 9), (4, 1)]
            .into_iter()
            .collect();
        assert_eq!(counts.keys_with_at_least(10), vec![1, 2]);
        assert_eq!(counts.keys_with_at_least(1).len(), 4);
        assert!(counts.keys_with_at_least(13).is_empty());
    }

    #[test]
    fn ranked_orders_by_count_then_key() {
        let counts: BlockCounts = [(5u64, 3u64), (1, 7), (9, 3), (2, 7)].into_iter().collect();
        assert_eq!(counts.ranked(), vec![(1, 7), (2, 7), (5, 3), (9, 3)]);
        assert_eq!(counts.sorted_desc(), vec![7, 7, 3, 3]);
        assert_eq!(counts.top_fraction(0.75), (vec![1, 2, 5], 17));
    }

    #[test]
    fn from_iterator_merges_duplicate_keys() {
        let counts: BlockCounts = [(1u64, 2u64), (1, 3)].into_iter().collect();
        assert_eq!(counts.get(1), 5);
        assert_eq!((counts.unique_blocks(), counts.total_accesses()), (1, 5));
        assert!(!counts.is_empty());
    }

    #[test]
    fn counting_and_ranking() {
        let blocks = [1u64, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
        let counts = BlockCounts::from_blocks(blocks.iter().copied());
        assert_eq!(counts.unique_blocks(), 11);
        assert_eq!(counts.total_accesses(), 14);
        assert_eq!((counts.get(1), counts.get(99)), (3, 0));
        assert_eq!(counts.ranked()[..3], [(1, 3), (2, 2), (3, 1)]);
        // Top ~18% of 11 blocks = 2 blocks: 1 (3 accesses) and 2 (2).
        assert_eq!(counts.top_fraction(0.18), (vec![1, 2], 5));
    }

    #[test]
    fn from_requests_counts_blocks_not_requests() {
        let req = Request::new(
            Micros::new(0),
            BlockAddr::new(ServerId::new(0), VolumeId::new(0), 8),
            4,
            RequestKind::Read,
        );
        let counts = BlockCounts::from_requests([req].iter());
        assert_eq!(counts.total_accesses(), 4);
        assert_eq!(counts.unique_blocks(), 4);
        let counts: BlockCounts = [req, req].iter().collect();
        assert_eq!(counts.total_accesses(), 8);
        assert_eq!(counts.unique_blocks(), 4);
    }

    #[test]
    fn top_fraction_and_low_reuse() {
        let mut blocks = vec![1u64; 10]; // block 1: 10 accesses
        blocks.extend(2..=100u64); // 99 one-touch blocks
        let counts = BlockCounts::from_blocks(blocks.into_iter());
        assert_eq!(counts.top_fraction(0.01), (vec![1], 10));
        assert!((counts.fraction_with_at_most(1) - 0.99).abs() < 1e-12);
        assert_eq!(counts.fraction_with_at_most(10), 1.0);
    }

    #[test]
    fn top_fraction_edges() {
        let counts = BlockCounts::from_blocks([1u64, 2, 3].into_iter());
        assert_eq!(counts.top_fraction(0.0), (vec![], 0));
        let (all, covered) = counts.top_fraction(1.0);
        assert_eq!((all.len(), covered), (3, 3));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_panics() {
        let counts = BlockCounts::from_blocks([1u64].into_iter());
        let _ = counts.top_fraction(1.5);
    }

    #[test]
    fn empty_counts_are_well_behaved() {
        let counts = BlockCounts::new();
        assert!(counts.is_empty());
        assert_eq!(counts.fraction_with_at_most(5), 0.0);
        assert_eq!(counts.top_fraction(0.5), (vec![], 0));
        assert!(counts.sorted_desc().is_empty());
    }

    #[test]
    fn empty_log_finishes_empty() {
        let dir = temp_dir("empty");
        let log = AccessLog::create(&dir, 3).unwrap();
        let counts = log.finish().unwrap();
        assert!(counts.is_empty());
        assert_eq!(counts.total_accesses(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_removes_partition_files() {
        let dir = temp_dir("drop");
        {
            let mut log = AccessLog::create(&dir, 3).unwrap();
            log.record(1);
            log.compact().unwrap();
            assert!(partition_path(&dir, 0).exists());
        }
        for i in 0..3 {
            assert!(!partition_path(&dir, i).exists(), "partition {i} remains");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reduce_merges_runs() {
        let reduced = reduce(vec![(3, 1), (1, 1), (3, 2), (1, 1), (2, 1)]);
        assert_eq!(reduced, vec![(1, 2), (2, 1), (3, 3)]);
        assert_eq!(reduce(vec![]), vec![]);
    }

    #[test]
    fn spill_counter_matches_oracle_with_tiny_budget() {
        let dir = temp_dir("spill-oracle");
        let mut spill = SpillCounter::create(&dir, 16, 4).unwrap();
        let mut oracle = InMemoryCounter::new();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..20_000 {
            let key = rng.random_range(0..3_000u64);
            spill.record(key);
            oracle.record(key);
        }
        assert!(spilled(&spill) > 0, "tiny budget must force drains");
        assert!(spill.slots.len() <= 32, "the table stays inside its budget");
        assert_eq!(
            totals(spill),
            totals(oracle),
            "spill totals diverge from in-memory"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_selection_identical_across_all_backends() {
        let dir = temp_dir("select");
        let mut rng = SmallRng::seed_from_u64(3);
        let keys: Vec<u64> = (0..30_000).map(|_| rng.random_range(0..2_000)).collect();
        for threshold in [1u64, 5, 10, 50] {
            let mut mem = InMemoryCounter::new();
            let mut log = AccessLog::create(dir.join("log"), 8).unwrap();
            let mut spill = SpillCounter::create(dir.join("spill"), 64, 8).unwrap();
            for &k in &keys {
                mem.record(k);
                log.record(k);
                spill.record(k);
            }
            let expect = mem.finish_selection(threshold).unwrap();
            assert!(expect.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
            assert_eq!(
                log.finish_selection(threshold).unwrap(),
                expect,
                "log backend, threshold {threshold}"
            );
            assert_eq!(
                spill.finish_selection(threshold).unwrap(),
                expect,
                "spill backend, threshold {threshold}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_config_selects_alike_epoch_after_epoch() {
        let dir = temp_dir("epoch");
        let configs = [
            CountingConfig::InMemory,
            CountingConfig::spill(&dir).with_budget(4),
        ];
        let epochs: [&[u64]; 3] = [&[1, 2, 1, 3, 1, 2, 9, 9, 9, 9], &[3, 3, 4], &[]];
        let mut selections = Vec::new();
        for config in &configs {
            let mut counter = config.counter().unwrap();
            let mut selected = Vec::new();
            for keys in epochs {
                keys.iter().for_each(|&k| counter.record(k));
                selected.push(counter.end_epoch(2).unwrap());
            }
            selections.push(selected);
        }
        assert_eq!(selections[0], [vec![1, 2, 9], vec![3], vec![]]);
        assert_eq!(selections[0], selections[1]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_counter_cleans_its_directory() {
        let root = temp_dir("spill-clean");
        let mut counter = SpillCounter::create(&root, 2, 3).unwrap();
        for k in 0..100u64 {
            counter.record(k);
        }
        counter.finish_selection(1).unwrap();
        let leftover = fs::read_dir(&root).map(|d| d.count()).unwrap_or(0);
        assert_eq!(leftover, 0, "epoch subdirectory must be removed");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn an_unfinished_spill_counter_removes_its_directory_on_drop() {
        let root = temp_dir("spill-drop");
        let mut counter = SpillCounter::create(&root, 2, 3).unwrap();
        for k in 0..100u64 {
            counter.record(k);
        }
        assert!(spilled(&counter) > 0, "something reached the log");
        drop(counter);
        let leftover = fs::read_dir(&root).map(|d| d.count()).unwrap_or(0);
        assert_eq!(leftover, 0, "epoch subdirectory must be removed");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn zero_budget_is_rejected() {
        assert!(SpillCounter::create(temp_dir("zb"), 0, 4).is_err());
    }

    #[test]
    fn record_count_aggregates_like_repeated_records() {
        let dir = temp_dir("rc");
        let mut log = AccessLog::create(&dir, 2).unwrap();
        log.record_count(5, 7);
        log.record(5);
        assert_eq!(log.logged(), 8);
        let counts = log.finish().unwrap();
        assert_eq!(counts.get(5), 8);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_counting_keeps_no_resident_bit() {
        let root = temp_dir("spill-touch");
        let mut counter = SpillCounter::create(&root, 8, 2).unwrap();
        counter.seed_resident(5);
        counter.prefetch(5);
        assert_eq!(counter.touch(5), None);
        assert_eq!(counter.touch(5), None);
        assert_eq!(counter.end_epoch(2).unwrap(), vec![5], "touch still counts");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn epoch_two_of_a_steady_trace_answers_residency_from_the_kept_table() {
        let mut table = InMemoryCounter::new();
        let steady_epoch = |table: &mut AccessCounter| {
            let mut hits = 0;
            for key in (0..5000u64).map(|k| k * 977) {
                for _ in 0..=key % 4 {
                    hits += u64::from(table.touch(key).expect("the table answers"));
                }
            }
            hits
        };
        assert_eq!(steady_epoch(&mut table), 0, "nothing resident in epoch 0");
        let selected = table.end_epoch(3).unwrap();
        assert_eq!(selected.len(), 2500);
        selected.iter().for_each(|&key| table.seed_resident(key));
        // Every access of a seeded key reads "hit", the first included.
        let selected_accesses: u64 = selected.iter().map(|key| 1 + key % 4).sum();
        assert_eq!(steady_epoch(&mut table), selected_accesses);
        // The seeds changed no count: the same keys are selected again.
        assert_eq!(table.end_epoch(3).unwrap(), selected);
    }

    #[test]
    fn resident_bit_never_leaks_into_a_count() {
        let mut table = InMemoryCounter::new();
        for key in [7, 8, u64::MAX] {
            table.seed_resident(key);
        }
        assert!(table_counts(&table).is_empty(), "seeded only");
        assert_eq!(table.touch(7), Some(true));
        assert_eq!(table.touch(7), Some(true));
        assert_eq!(table.touch(u64::MAX), Some(true));
        assert_eq!(table.touch(0), Some(false), "key 0 is not the vacancy mark");
        table.seed_resident(7); // seeding twice, or after a touch, changes nothing
        let counts = table_counts(&table);
        assert_eq!((counts.get(7), counts.get(8), counts.get(0)), (2, 0, 1));
        assert_eq!((counts.unique_blocks(), counts.total_accesses()), (3, 4));
        assert_eq!(counts.get(u64::MAX), 1);
        // Resident but touched fewer than `threshold` times: not selected;
        // resident and never touched: not even at threshold 0.
        assert_eq!(table.select(3).unwrap(), Vec::<u64>::new());
        assert_eq!(table.select(2).unwrap(), vec![7]);
        assert_eq!(table.select(0).unwrap(), vec![0, 7, u64::MAX]);
        // Ending the epoch leaves neither counts nor resident marks behind.
        assert_eq!(table.end_epoch(1).unwrap(), vec![0, 7, u64::MAX]);
        assert_eq!(table.touch(7), Some(false));
        assert_eq!(table_counts(&table).unique_blocks(), 1);
    }

    #[test]
    fn an_ended_epoch_keeps_the_table_size_for_the_next() {
        let mut table = InMemoryCounter::new();
        let epoch = |table: &mut AccessCounter, keys: u64| {
            (0..keys).for_each(|key| table.record(key.wrapping_mul(0x9E37_79B9)));
        };
        epoch(&mut table, 1000);
        // The table only ever grows, and only by rehashing: an unchanged
        // slot count is zero rehashes.
        let grown = table.slots.len();
        assert_eq!(grown, 2048, "grown from 16 slots, at most 3/4 full");
        assert_eq!(table.end_epoch(1).unwrap().len(), 1000);
        assert_eq!(table.slots.len(), grown, "ending the epoch keeps the size");
        epoch(&mut table, 1000);
        assert_eq!(table.slots.len(), grown, "no rehash in a same-sized epoch");
        epoch(&mut table, 4000);
        assert!(table.slots.len() > grown, "growth past the kept size");
        assert_eq!(table_counts(&table).unique_blocks(), 4000);
    }

    #[derive(Debug, Clone)]
    enum TableOp {
        Seed(u64),
        Touch(u64),
        /// Select at this threshold and start the next epoch in place.
        EndEpoch(u64),
    }

    fn table_ops() -> impl Strategy<Value = Vec<TableOp>> {
        // A small key space so the same key is seeded, touched and
        // re-selected across epochs; the extremes ride along.
        let key = || prop_oneof![0u64..48, 0u64..48, Just(u64::MAX), Just(0u64), any::<u64>()];
        proptest::collection::vec(
            prop_oneof![
                key().prop_map(TableOp::Touch),
                key().prop_map(TableOp::Touch),
                key().prop_map(TableOp::Touch),
                key().prop_map(TableOp::Seed),
                (0u64..4).prop_map(TableOp::EndEpoch),
            ],
            0..400,
        )
    }

    proptest! {
        /// The fused table against a `HashMap` of counts beside a
        /// `HashSet` of resident keys: every touch's answer, every count,
        /// the distinct keys, the totals and the selection, over epochs
        /// that reuse the table (growing past its kept size on the way).
        #[test]
        fn epoch_table_matches_map_and_set_reference(ops in table_ops()) {
            use std::collections::{HashMap, HashSet};
            let mut table = InMemoryCounter::new();
            let mut counts: HashMap<u64, u64> = HashMap::new();
            let mut resident: HashSet<u64> = HashSet::new();
            for op in ops {
                match op {
                    TableOp::Seed(key) => {
                        table.seed_resident(key);
                        resident.insert(key);
                    }
                    TableOp::Touch(key) => {
                        prop_assert_eq!(table.touch(key), Some(resident.contains(&key)));
                        *counts.entry(key).or_insert(0) += 1;
                        prop_assert_eq!(table_counts(&table).get(key), counts[&key]);
                    }
                    TableOp::EndEpoch(threshold) => {
                        let totals = table_counts(&table);
                        prop_assert_eq!(totals.unique_blocks(), counts.len());
                        for (&k, &c) in &counts {
                            prop_assert_eq!(totals.get(k), c);
                        }
                        let mut want: Vec<u64> = counts
                            .iter()
                            .filter(|&(_, &c)| c >= threshold)
                            .map(|(&k, _)| k)
                            .collect();
                        want.sort_unstable();
                        prop_assert_eq!(table.end_epoch(threshold).unwrap(), want);
                        counts.clear();
                        resident.clear();
                    }
                }
            }
            prop_assert_eq!(totals(table).unique_blocks(), counts.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn spill_selection_equals_oracle_under_random_streams(
            keys in proptest::collection::vec(0u64..300, 0..2000),
            budget in 1usize..64,
            threshold in 1u64..6,
        ) {
            let dir = temp_dir(&format!("prop-spill{budget}-{threshold}-{}", keys.len()));
            let mut spill = SpillCounter::create(&dir, budget, 4).unwrap();
            let mut oracle = InMemoryCounter::new();
            for &k in &keys {
                spill.record(k);
                oracle.record(k);
            }
            prop_assert_eq!(
                spill.finish_selection(threshold).unwrap(),
                oracle.finish_selection(threshold).unwrap()
            );
            fs::remove_dir_all(&dir).ok();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn external_equals_oracle_under_random_streams(
            keys in proptest::collection::vec(0u64..200, 0..2000),
            partitions in 1usize..9,
            compact_every in 1usize..500,
        ) {
            let dir = temp_dir(&format!("prop{partitions}-{compact_every}-{}", keys.len()));
            let mut log = AccessLog::create(&dir, partitions).unwrap();
            let mut oracle = InMemoryCounter::new();
            for (i, &k) in keys.iter().enumerate() {
                log.record(k);
                oracle.record(k);
                if (i + 1) % compact_every == 0 {
                    log.compact().unwrap();
                }
            }
            let external = log.finish().unwrap();
            prop_assert_eq!(external, totals(oracle));
            fs::remove_dir_all(&dir).ok();
        }
    }
}
