//! SieveStore-D's offline access-counting substrate.
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
//! The reduction may run *incrementally* ([`AccessLog::compact`]) to keep
//! log sizes bounded; at the epoch boundary [`AccessLog::finish`] produces
//! the final [`AccessCounts`], from which the blocks above the allocation
//! threshold are selected.
//!
//! [`InMemoryCounter`] is the in-memory implementation of the same
//! [`AccessCounter`] interface, used by fast simulations and as a test
//! oracle for the external implementation: one 16-byte slot per key per
//! epoch, `(key, count | resident bit)`, so counting an access and
//! answering "did last epoch select this block?" is one probe of one
//! cache line. The bit is seeded after each epoch install and never
//! reaches a count; the table is emptied in place at the boundary.
//!
//! # Examples
//!
//! ```
//! use sievestore_extsort::{AccessCounter, AccessLog, InMemoryCounter};
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

use sievestore_types::{prefetch_read, SieveError, U64Map};

/// Common interface over access counters (external log or in-memory map).
pub trait AccessCounter {
    /// Records one access to `key`.
    fn record(&mut self, key: u64);

    /// Finalizes the counter into per-key totals.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying storage fails (the in-memory
    /// implementation never fails).
    fn finish(self) -> Result<AccessCounts, SieveError>;

    /// Finalizes directly into the selected key set: every key accessed at
    /// least `threshold` times, sorted ascending.
    ///
    /// This is the epoch-boundary operation SieveStore-D actually needs —
    /// spill-backed implementations override it to avoid materializing
    /// per-key totals for every distinct key of the epoch at once.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying storage fails.
    fn finish_selection(self, threshold: u64) -> Result<Vec<u64>, SieveError>
    where
        Self: Sized,
    {
        Ok(self.finish()?.keys_with_at_least(threshold))
    }

    /// [`AccessCounter::record`], answering whether `key` was
    /// [seeded](AccessCounter::seed_resident) this epoch if the backend
    /// keeps that bit; `None` sends the caller to the cache itself.
    fn touch(&mut self, key: u64) -> Option<bool> {
        self.record(key);
        None
    }

    /// Marks `key` resident for this epoch without counting an access.
    /// `touch` is right only if exactly the keys resident *after* each
    /// epoch install are seeded. A no-op for backends without the bit.
    fn seed_resident(&mut self, _key: u64) {}

    /// Hints that `key` is about to be recorded. Changes no state.
    fn prefetch(&self, _key: u64) {}

    /// [`AccessCounter::finish_selection`] in place: selects, then empties
    /// the counter (counts and resident marks) keeping its size. `None`,
    /// the default: finish this counter by value and start a fresh one.
    fn drain_selection(&mut self, _threshold: u64) -> Option<Vec<u64>> {
        None
    }
}

/// Final per-key access totals for an epoch.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessCounts {
    counts: U64Map<u64>,
}

impl AccessCounts {
    /// Creates an empty count table.
    pub fn new() -> Self {
        AccessCounts::default()
    }

    /// Returns the access count for `key` (0 if never seen).
    pub fn get(&self, key: u64) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Number of distinct keys observed.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no key was observed.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total number of recorded accesses.
    pub fn total_accesses(&self) -> u64 {
        self.counts.iter().map(|(_, &c)| c).sum()
    }

    /// Keys whose count is at least `threshold`, sorted ascending.
    ///
    /// This is SieveStore-D's allocation rule: blocks with `count >= t`
    /// in epoch *i* are batch-allocated for epoch *i + 1*.
    pub fn keys_with_at_least(&self, threshold: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .counts
            .iter()
            .filter(|&(_, &c)| c >= threshold)
            .map(|(k, _)| k)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// The `n` most-accessed keys (ties broken by key), descending count.
    pub fn top_n(&self, n: usize) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = self.counts.iter().map(|(k, &c)| (k, c)).collect();
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Iterates over `(key, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(k, &c)| (k, c))
    }
}

impl FromIterator<(u64, u64)> for AccessCounts {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let mut counts: U64Map<u64> = U64Map::new();
        for (k, c) in iter {
            *counts.get_or_insert_with(k, || 0) += c;
        }
        AccessCounts { counts }
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

/// The in-memory epoch table: test oracle and fast path. See the
/// [crate docs](crate) for the layout.
///
/// # Examples
///
/// ```
/// use sievestore_extsort::{AccessCounter, InMemoryCounter};
/// let mut counter = InMemoryCounter::new();
/// counter.seed_resident(5);
/// assert_eq!(counter.touch(5), Some(true));
/// assert_eq!(counter.touch(6), Some(false));
/// counter.record(5);
/// let counts = counter.finish().unwrap();
/// assert_eq!((counts.get(5), counts.len()), (2, 2));
/// ```
#[derive(Debug, Clone)]
pub struct InMemoryCounter {
    /// Power-of-two length, linear probing, at most 3/4 occupied.
    slots: Box<[Slot]>,
    /// `64 - log2(slots.len())`: the Fibonacci multiply-shift.
    shift: u32,
    /// Occupied slots: touched or seeded.
    used: usize,
}

impl Default for InMemoryCounter {
    fn default() -> Self {
        InMemoryCounter::new()
    }
}

impl InMemoryCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        InMemoryCounter {
            slots: vec![Slot::default(); MIN_SLOTS].into(),
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            used: 0,
        }
    }

    /// Current count for a key (0 if never seen).
    pub fn get(&self, key: u64) -> u64 {
        self.slots[self.probe(key)].word / ONE
    }

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

    /// Keys counted at least `threshold` times, sorted ascending.
    fn selection(&self, threshold: u64) -> Vec<u64> {
        // `count >= t` is `word >= 2t` whatever the resident bit says; a
        // seeded, never-touched key has count 0 and was not observed.
        let floor = threshold.max(1).saturating_mul(ONE);
        let selected = self.slots.iter().filter(|s| s.word >= floor);
        let mut keys: Vec<u64> = selected.map(|s| s.key).collect();
        keys.sort_unstable();
        keys
    }

    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); slots].into());
        self.shift = 64 - slots.trailing_zeros();
        for slot in old.iter().filter(|s| s.word != 0) {
            self.slots[self.probe(slot.key)] = *slot;
        }
    }
}

impl AccessCounter for InMemoryCounter {
    fn record(&mut self, key: u64) {
        self.touch(key);
    }

    fn finish(self) -> Result<AccessCounts, SieveError> {
        let counted = self.slots.iter().filter(|s| s.word >= ONE);
        Ok(counted.map(|s| (s.key, s.word / ONE)).collect())
    }

    fn finish_selection(self, threshold: u64) -> Result<Vec<u64>, SieveError> {
        Ok(self.selection(threshold))
    }

    fn drain_selection(&mut self, threshold: u64) -> Option<Vec<u64>> {
        let keys = self.selection(threshold);
        self.slots.fill(Slot::default());
        self.used = 0;
        Some(keys)
    }

    #[inline]
    fn touch(&mut self, key: u64) -> Option<bool> {
        let slot = self.entry(key);
        slot.word += ONE;
        Some(slot.word & RESIDENT != 0)
    }

    fn seed_resident(&mut self, key: u64) {
        self.entry(key).word |= RESIDENT;
    }

    #[inline]
    fn prefetch(&self, key: u64) {
        prefetch_read(&self.slots[self.home(key)]);
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
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(partition_path(&dir, i))?;
            writers.push(BufWriter::new(file));
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

    /// Total tuples logged since creation (pre-reduction).
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
    /// any failure surfaces at the next [`AccessLog::compact`] /
    /// [`AccessLog::finish`] call, keeping this hot path infallible.
    pub fn record_access(&mut self, key: u64) {
        self.record_count(key, 1);
    }

    /// Logs a pre-aggregated `<address, count>` tuple — how a budgeted
    /// in-memory front (see [`SpillCounter`]) drains its hot map into the
    /// log without replaying every individual access.
    ///
    /// I/O errors are deferred exactly as in [`AccessLog::record_access`].
    pub fn record_count(&mut self, key: u64, count: u64) {
        let p = self.partition_of(key);
        let mut tuple = [0u8; TUPLE_BYTES];
        tuple[0..8].copy_from_slice(&key.to_le_bytes());
        tuple[8..16].copy_from_slice(&count.to_le_bytes());
        // Errors deferred to compact()/finish(), which flush and re-read.
        let _ = self.writers[p].write_all(&tuple);
        self.logged += count;
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
            self.writers[i].flush()?;
            let tuples = read_tuples(&partition_path(&self.dir, i))?;
            let reduced = reduce(tuples);
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
    pub fn finish(mut self) -> Result<AccessCounts, SieveError> {
        let mut counts: U64Map<u64> = U64Map::new();
        for i in 0..self.partitions {
            self.writers[i].flush()?;
            let tuples = read_tuples(&partition_path(&self.dir, i))?;
            for (k, c) in reduce(tuples) {
                *counts.get_or_insert_with(k, || 0) += c;
            }
        }
        Ok(AccessCounts { counts })
    }

    /// Finalizes straight into the threshold selection, one partition at a
    /// time: peak memory is the largest partition plus the selected keys,
    /// never the full distinct-key population. Keys come back sorted
    /// ascending — identical to
    /// [`AccessCounts::keys_with_at_least`] over [`AccessLog::finish`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish_selecting(mut self, threshold: u64) -> Result<Vec<u64>, SieveError> {
        let mut keys = Vec::new();
        for i in 0..self.partitions {
            self.writers[i].flush()?;
            let tuples = read_tuples(&partition_path(&self.dir, i))?;
            keys.extend(
                reduce(tuples)
                    .into_iter()
                    .filter(|&(_, c)| c >= threshold)
                    .map(|(k, _)| k),
            );
        }
        // Partitions are hash-split, so a global sort restores the
        // selection order the in-memory backend produces.
        keys.sort_unstable();
        Ok(keys)
    }
}

impl AccessCounter for AccessLog {
    fn record(&mut self, key: u64) {
        self.record_access(key);
    }

    fn finish(self) -> Result<AccessCounts, SieveError> {
        AccessLog::finish(self)
    }

    fn finish_selection(self, threshold: u64) -> Result<Vec<u64>, SieveError> {
        AccessLog::finish_selecting(self, threshold)
    }
}

impl Drop for AccessLog {
    fn drop(&mut self) {
        for i in 0..self.partitions {
            let _ = fs::remove_file(partition_path(&self.dir, i));
        }
    }
}

/// Default distinct-key budget for [`SpillCounter`]'s hot map
/// (~16 MiB of `U64Map` at 16 bytes/entry before load-factor headroom).
pub const DEFAULT_SPILL_BUDGET: usize = 1 << 20;
/// Default partition count for spill-backed counting.
pub const DEFAULT_SPILL_PARTITIONS: usize = 16;

/// Sequence number making concurrent spill counters in one process use
/// disjoint directories.
static SPILL_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Bounded-memory access counter: an in-memory hot map in front of an
/// [`AccessLog`].
///
/// Counts accumulate in a `U64Map` until it holds `budget` distinct keys,
/// then drain to the log as pre-aggregated `<key, count>` tuples
/// ([`AccessLog::record_count`]) and the map resets — so resident memory
/// is bounded by the budget no matter how many distinct blocks an epoch
/// touches, while the common case (hot keys re-hit before a drain) stays
/// a pure hash-map increment.
///
/// Each counter claims a process-unique subdirectory under the configured
/// spill root, so one [`CountingConfig`] can mint counters for many
/// concurrent policies/epochs without collisions; the subdirectory is
/// removed when the counter finishes or is dropped unfinished (as the
/// last epoch's counter of a replay is).
///
/// # Examples
///
/// ```
/// use sievestore_extsort::{AccessCounter, SpillCounter};
///
/// # fn main() -> Result<(), sievestore_types::SieveError> {
/// let dir = std::env::temp_dir().join("sievestore-doc-spill");
/// let mut counter = SpillCounter::create(&dir, 2, 4)?; // tiny budget: spills often
/// for key in [7u64, 9, 7, 3, 7, 9] {
///     counter.record(key);
/// }
/// assert_eq!(counter.finish_selection(2)?, vec![7, 9]);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SpillCounter {
    hot: U64Map<u64>,
    budget: usize,
    log: AccessLog,
    /// Declared after `log`, so the log's files are gone when it drops.
    dir: SpillDir,
    spills: u64,
}

/// A counter's spill subdirectory, removed (once empty) when dropped.
#[derive(Debug)]
struct SpillDir(PathBuf);

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir(&self.0);
    }
}

impl SpillCounter {
    /// Creates a spill counter under `root` holding at most `budget`
    /// distinct keys in memory, spilling into `partitions` log files.
    ///
    /// # Errors
    ///
    /// Returns an error if the spill directory or log cannot be created,
    /// or if `budget` or `partitions` is 0.
    pub fn create(
        root: impl AsRef<Path>,
        budget: usize,
        partitions: usize,
    ) -> Result<Self, SieveError> {
        if budget == 0 {
            return Err(SieveError::InvalidConfig(
                "spill counter needs a non-zero key budget".into(),
            ));
        }
        let seq = SPILL_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = root
            .as_ref()
            .join(format!("epoch-{}-{seq:04}", std::process::id()));
        let log = AccessLog::create(&dir, partitions)?;
        Ok(SpillCounter {
            hot: U64Map::new(),
            budget,
            log,
            dir: SpillDir(dir),
            spills: 0,
        })
    }

    /// Distinct keys currently resident in the hot map.
    pub fn resident_keys(&self) -> usize {
        self.hot.len()
    }

    /// Times the hot map has drained to disk so far.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    fn drain_hot(&mut self) {
        for (k, &c) in self.hot.iter() {
            self.log.record_count(k, c);
        }
        self.hot.clear();
        self.spills += 1;
    }

    /// The log with every count drained into it, and the directory to
    /// drop once the log is finished.
    fn into_log(mut self) -> (AccessLog, SpillDir) {
        if !self.hot.is_empty() {
            self.drain_hot();
        }
        (self.log, self.dir)
    }
}

impl AccessCounter for SpillCounter {
    fn record(&mut self, key: u64) {
        *self.hot.get_or_insert_with(key, || 0) += 1;
        if self.hot.len() >= self.budget {
            self.drain_hot();
        }
    }

    fn finish(self) -> Result<AccessCounts, SieveError> {
        let (log, _dir) = self.into_log();
        log.finish()
    }

    fn finish_selection(self, threshold: u64) -> Result<Vec<u64>, SieveError> {
        let (log, _dir) = self.into_log();
        log.finish_selecting(threshold)
    }
}

/// How an epoch's access counting should be backed.
///
/// The selection produced at each epoch boundary is identical across
/// backends (pinned by tests); the choice only trades memory for disk
/// I/O.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum CountingConfig {
    /// Everything in a hash map: fastest, memory proportional to the
    /// epoch's distinct-key population.
    #[default]
    InMemory,
    /// Budgeted hot map spilling to a partitioned on-disk log: memory
    /// bounded by `budget` keys regardless of epoch size.
    Spill {
        /// Root directory spill logs live under.
        dir: PathBuf,
        /// Max distinct keys resident before a drain.
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

    /// Overrides the hot-map key budget (spill mode only; no-op for
    /// in-memory).
    #[must_use]
    pub fn with_budget(mut self, keys: usize) -> Self {
        if let CountingConfig::Spill { budget, .. } = &mut self {
            *budget = keys;
        }
        self
    }

    /// Creates a fresh counter for one epoch.
    ///
    /// # Errors
    ///
    /// Returns an error if spill storage cannot be set up.
    pub fn counter(&self) -> Result<EpochCounter, SieveError> {
        match self {
            CountingConfig::InMemory => Ok(EpochCounter::InMemory(InMemoryCounter::new())),
            CountingConfig::Spill {
                dir,
                budget,
                partitions,
            } => Ok(EpochCounter::Spill(SpillCounter::create(
                dir,
                *budget,
                *partitions,
            )?)),
        }
    }
}

/// An access counter minted from a [`CountingConfig`] — the backend the
/// discrete sieve runs each epoch over.
#[derive(Debug)]
pub enum EpochCounter {
    /// The in-memory epoch table.
    InMemory(InMemoryCounter),
    /// Budgeted spill backend.
    Spill(SpillCounter),
}

/// Runs `$call` on whichever backend `$this` holds. The spill backend's
/// hot map drains mid-epoch, so it cannot hold the resident bit: it keeps
/// the trait's no-residency defaults, and its callers their separate
/// residency probe.
macro_rules! on_backend {
    ($this:expr, $c:ident => $call:expr) => {
        match $this {
            EpochCounter::InMemory($c) => $call,
            EpochCounter::Spill($c) => $call,
        }
    };
}

impl AccessCounter for EpochCounter {
    fn record(&mut self, key: u64) {
        on_backend!(self, c => c.record(key))
    }

    fn finish(self) -> Result<AccessCounts, SieveError> {
        on_backend!(self, c => c.finish())
    }

    fn finish_selection(self, threshold: u64) -> Result<Vec<u64>, SieveError> {
        on_backend!(self, c => c.finish_selection(threshold))
    }

    #[inline]
    fn touch(&mut self, key: u64) -> Option<bool> {
        on_backend!(self, c => c.touch(key))
    }

    fn seed_resident(&mut self, key: u64) {
        on_backend!(self, c => c.seed_resident(key))
    }

    #[inline]
    fn prefetch(&self, key: u64) {
        on_backend!(self, c => c.prefetch(key))
    }

    fn drain_selection(&mut self, threshold: u64) -> Option<Vec<u64>> {
        on_backend!(self, c => c.drain_selection(threshold))
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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sievestore-extsort-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
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
        let expected = oracle.finish().unwrap();
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
        assert_eq!(counts.len(), 50);
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
    fn threshold_selection_matches_paper_rule() {
        let counts: AccessCounts = [(1u64, 12u64), (2, 10), (3, 9), (4, 1)]
            .into_iter()
            .collect();
        assert_eq!(counts.keys_with_at_least(10), vec![1, 2]);
        assert_eq!(counts.keys_with_at_least(1).len(), 4);
        assert!(counts.keys_with_at_least(13).is_empty());
    }

    #[test]
    fn top_n_orders_by_count_then_key() {
        let counts: AccessCounts = [(5u64, 3u64), (1, 7), (9, 3), (2, 7)].into_iter().collect();
        assert_eq!(counts.top_n(3), vec![(1, 7), (2, 7), (5, 3)]);
        assert_eq!(counts.top_n(0), vec![]);
        assert_eq!(counts.top_n(10).len(), 4);
    }

    #[test]
    fn from_iterator_merges_duplicate_keys() {
        let counts: AccessCounts = [(1u64, 2u64), (1, 3)].into_iter().collect();
        assert_eq!(counts.get(1), 5);
        assert_eq!(counts.len(), 1);
        assert!(!counts.is_empty());
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
        assert!(spill.spills() > 0, "tiny budget must force drains");
        assert_eq!(
            spill.finish().unwrap(),
            oracle.finish().unwrap(),
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
    fn epoch_counter_dispatches_per_config() {
        let dir = temp_dir("epoch");
        let configs = [
            CountingConfig::InMemory,
            CountingConfig::spill(&dir).with_budget(4),
        ];
        let mut selections = Vec::new();
        for config in &configs {
            let mut counter = config.counter().unwrap();
            for k in [1u64, 2, 1, 3, 1, 2, 9, 9, 9, 9] {
                counter.record(k);
            }
            selections.push(counter.finish_selection(2).unwrap());
        }
        assert_eq!(selections[0], vec![1, 2, 9]);
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
        counter.finish().unwrap();
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
        assert!(counter.spills() > 0, "something reached the log");
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
        log.record_access(5);
        assert_eq!(log.logged(), 8);
        let counts = log.finish().unwrap();
        assert_eq!(counts.get(5), 8);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resident_bit_never_leaks_into_a_count() {
        let mut table = InMemoryCounter::new();
        for key in [7, 8, u64::MAX] {
            table.seed_resident(key);
        }
        assert!(table.clone().finish().unwrap().is_empty(), "seeded only");
        assert_eq!(table.touch(7), Some(true));
        assert_eq!(table.touch(7), Some(true));
        assert_eq!(table.touch(u64::MAX), Some(true));
        assert_eq!(table.touch(0), Some(false), "key 0 is not the vacancy mark");
        table.seed_resident(7); // seeding twice, or after a touch, changes nothing
        assert_eq!((table.get(7), table.get(8), table.get(0)), (2, 0, 1));
        // Resident but touched fewer than `threshold` times: not selected;
        // resident and never touched: not even at threshold 0.
        assert_eq!(
            table.clone().finish_selection(3).unwrap(),
            Vec::<u64>::new()
        );
        assert_eq!(table.clone().finish_selection(2).unwrap(), vec![7]);
        assert_eq!(
            table.clone().finish_selection(0).unwrap(),
            vec![0, 7, u64::MAX]
        );
        let counts = table.clone().finish().unwrap();
        assert_eq!((counts.len(), counts.total_accesses()), (3, 4));
        assert_eq!(counts.get(u64::MAX), 1);
        // Draining leaves neither counts nor resident marks behind.
        assert_eq!(table.drain_selection(1), Some(vec![0, 7, u64::MAX]));
        assert_eq!(table.touch(7), Some(false));
        assert_eq!(table.finish().unwrap().len(), 1);
    }

    #[test]
    fn drained_table_keeps_its_size_for_the_next_epoch() {
        let mut table = InMemoryCounter::new();
        let epoch = |table: &mut InMemoryCounter, keys: u64| {
            (0..keys).for_each(|key| table.record(key.wrapping_mul(0x9E37_79B9)));
        };
        epoch(&mut table, 1000);
        // The table only ever grows, and only by rehashing: an unchanged
        // slot count is zero rehashes.
        let grown = table.slots.len();
        assert_eq!(grown, 2048, "grown from 16 slots, at most 3/4 full");
        assert_eq!(table.drain_selection(1).map(|keys| keys.len()), Some(1000));
        assert_eq!(table.slots.len(), grown, "draining keeps the size");
        epoch(&mut table, 1000);
        assert_eq!(table.slots.len(), grown, "no rehash in a same-sized epoch");
        epoch(&mut table, 4000);
        assert!(table.slots.len() > grown, "growth past the kept size");
        assert_eq!(table.finish().unwrap().len(), 4000);
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
                        prop_assert_eq!(table.get(key), counts[&key]);
                    }
                    TableOp::EndEpoch(threshold) => {
                        let totals = table.clone().finish().unwrap();
                        prop_assert_eq!(totals.len(), counts.len());
                        for (&k, &c) in &counts {
                            prop_assert_eq!(totals.get(k), c);
                        }
                        let mut want: Vec<u64> = counts
                            .iter()
                            .filter(|&(_, &c)| c >= threshold)
                            .map(|(&k, _)| k)
                            .collect();
                        want.sort_unstable();
                        prop_assert_eq!(table.clone().finish_selection(threshold).unwrap(), want.clone());
                        prop_assert_eq!(table.drain_selection(threshold), Some(want));
                        counts.clear();
                        resident.clear();
                    }
                }
            }
            prop_assert_eq!(table.finish().unwrap().len(), counts.len());
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
            prop_assert_eq!(external, oracle.finish().unwrap());
            fs::remove_dir_all(&dir).ok();
        }
    }
}
