//! The data-holding cache: policy decisions plus actual block payloads.
//!
//! [`DataCache`] wires a [`SieveStore`] appliance (which decides hits,
//! bypasses and allocations) to real 512-byte payloads: hits are served
//! from cached frames (the SSD stand-in), misses are fetched from the
//! [`BackingStore`] (the ensemble), and allocation decisions copy the
//! fetched block into a frame.
//!
//! Two write policies ([`WritePolicy`]):
//!
//! * **Write-through** (default): every write also updates the backing
//!   store; the cache never holds the only copy.
//! * **Write-back** — the paper's accounting: write *hits* land on the
//!   SSD only (that is exactly the ensemble-offload benefit of caching
//!   write-hot blocks), with the frame marked dirty and flushed to the
//!   backing store on eviction, on epoch replacement or on an explicit
//!   [`DataCache::flush`].
//!
//! # Durability
//!
//! [`DataCache::new_durable`] attaches a [`DurableStore`] — the
//! checksummed on-disk frame store of [`crate::durable`] — and the cache
//! then mirrors every frame mutation onto it. Restart recovery
//! ([`DurableStore::open`]) verifies every frame checksum, folds in the
//! metadata journal and hands the survivors back; `new_durable` warms the
//! policy with them so the node resumes with its working set intact.
//!
//! Mutations are *staged* — in memory — into the durable store's open
//! group and made durable together by [`DataCache::commit`] (frames
//! synced, then any evict/clean records appended and synced). Every
//! public mutating call ends with that commit, durable on return; the
//! node's server calls the same bodies without it and lands the group
//! once per pipelined window, *outside* the lock the cache sits behind
//! ([`crate::durable`], "Group commit"), holding the window's replies
//! until a commit covers them.
//!
//! The mirroring discipline follows the data's exposure:
//!
//! * **dirty frames** (write-back: the cache holds the only copy) must
//!   be staged for the write to succeed — no free slot fails the write
//!   — and are acknowledged only after the covering commit;
//! * **clean frames** (a second copy exists on the backing store) are
//!   staged best-effort — one that finds no free slot is counted
//!   (`durable_media_errors`) and simply will not survive a restart.

use std::io;
use std::time::Instant;

use sievestore::{AccessOutcome, ApplianceStats, PolicySpec, SieveStore, SieveStoreBuilder};
use sievestore_types::obs::{self, CounterId, HistId};
use sievestore_types::{Day, Micros, RequestKind, SieveError, U64Map, U64Set};

use crate::backing::{BackingStore, Block};
use crate::durable::{DurableMediaSet, DurableStore, Recovery, RecoveryReport, ScrubPass};

/// When writes reach the backing store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WritePolicy {
    /// Every write also updates the backing store immediately.
    #[default]
    WriteThrough,
    /// Write hits stay on the cached frame (dirty) until eviction or an
    /// explicit flush — the paper's SSD-absorbs-write-hits accounting.
    WriteBack,
}

/// Outcome of one data access through the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataOutcome {
    /// Whether the cache served (or absorbed) the access.
    pub hit: bool,
    /// Whether the access triggered an allocation-write.
    pub allocated: bool,
}

/// A block cache with payloads, fronting a backing store.
///
/// # Examples
///
/// ```
/// use sievestore::PolicySpec;
/// use sievestore_node::{DataCache, MemBacking};
/// use sievestore_types::Micros;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cache = DataCache::new(MemBacking::new(), PolicySpec::Aod, 128)?;
/// cache.write(7, &[9u8; 512], Micros::from_secs(1))?;
/// let (data, outcome) = cache.read(7, Micros::from_secs(2))?;
/// assert_eq!(data, [9u8; 512]);
/// assert!(outcome.hit);
/// # Ok(())
/// # }
/// ```
pub struct DataCache<B: BackingStore> {
    store: SieveStore,
    /// Resident payloads. `U64Map` needs `V: Default` for vacant slots,
    /// so the boxed frame rides inside an `Option` (a vacant slot costs
    /// a null pointer, not a 512-byte allocation).
    frames: U64Map<Option<Box<Block>>>,
    dirty: U64Set,
    write_policy: WritePolicy,
    backing: B,
    /// The crash-consistent on-disk mirror, when attached.
    durable: Option<DurableStore>,
    /// Where the next scrub pass resumes.
    scrub_cursor: u32,
}

impl<B: BackingStore> std::fmt::Debug for DataCache<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataCache")
            .field("policy", &self.store.policy_name())
            .field("frames", &self.frames.len())
            .field("dirty", &self.dirty.len())
            .field("write_policy", &self.write_policy)
            .field("capacity", &self.store.capacity_blocks())
            .field("durable", &self.durable.is_some())
            .finish()
    }
}

impl<B: BackingStore> DataCache<B> {
    /// Creates a cache over `backing` with the given policy and frame
    /// capacity.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] for an invalid policy or
    /// zero capacity.
    pub fn new(backing: B, policy: PolicySpec, capacity_blocks: usize) -> Result<Self, SieveError> {
        let store = SieveStoreBuilder::new()
            .capacity_blocks(capacity_blocks)
            .policy(policy)
            .build()?;
        Ok(Self::over(backing, store))
    }

    /// A cache over `backing` driven by an already-built appliance (one
    /// shard's slice of a policy, for the sharded server).
    pub(crate) fn over(backing: B, store: SieveStore) -> Self {
        DataCache {
            store,
            frames: U64Map::new(),
            dirty: U64Set::new(),
            write_policy: WritePolicy::WriteThrough,
            backing,
            durable: None,
            scrub_cursor: 0,
        }
    }

    /// Creates a cache backed by a durable frame store, recovering
    /// whatever a previous incarnation persisted.
    ///
    /// Recovery takes each key's newest checksummed frame, folds in the
    /// metadata journal, never serves torn or rotted frames, warms the policy
    /// with the survivors (oldest sequence first, so recency order
    /// approximates the pre-crash state). Recovered dirty frames — data
    /// the backing store has never seen — re-enter the dirty set and are
    /// flushed through the normal write-back paths.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] for an invalid policy, or
    /// [`SieveError::Durable`] when the media is unrecoverable (wrong
    /// magic, mismatched geometry, I/O failure). Callers that can serve
    /// without durability should fall back to [`DataCache::new`].
    pub fn new_durable(
        backing: B,
        policy: PolicySpec,
        capacity_blocks: usize,
        media: DurableMediaSet,
    ) -> Result<(Self, RecoveryReport), SieveError> {
        let mut cache = Self::new(backing, policy, capacity_blocks)?;
        let started = obs::enabled().then(Instant::now);
        let recovery = DurableStore::open(media, capacity_blocks)?;
        let report = cache.attach_recovery(recovery);
        if let Some(t) = started {
            obs::observe(HistId::DurableRecoveryNanos, t.elapsed().as_nanos() as u64);
        }
        Ok((cache, report))
    }

    /// Installs a completed [`Recovery`]: adopts the durable store, warms
    /// the policy with the recovered frames and rebuilds the dirty set.
    pub(crate) fn attach_recovery(&mut self, recovery: Recovery) -> RecoveryReport {
        let Recovery {
            store: durable,
            frames,
            report,
        } = recovery;
        self.durable = Some(durable);
        self.store.warm(frames.iter().map(|f| f.key));
        for frame in frames {
            if self.store.contains(frame.key) {
                if frame.dirty {
                    self.dirty.insert(frame.key);
                }
                self.frames.insert(frame.key, Some(frame.data));
            } else if frame.dirty {
                // The policy would not take the frame back (epoch
                // overflow); its data exists nowhere else, so it keeps
                // its frame and dirty bit — reads serve it over the
                // stale backing copy and flushes drain it normally.
                self.dirty.insert(frame.key);
                self.frames.insert(frame.key, Some(frame.data));
            } else {
                // Clean and not re-admitted: retire the durable copy.
                self.durable_evict(frame.key);
            }
        }
        // Best-effort: the retirements only save a restart some work.
        let _ = self.commit();
        obs::count(CounterId::DurableRecoveredFrames, report.recovered);
        obs::count(CounterId::DurableQuarantinedFrames, report.quarantined);
        obs::count(CounterId::DurableLostDirtyFrames, report.lost_dirty);
        report
    }

    /// Selects the write policy (default: write-through).
    #[must_use]
    pub fn with_write_policy(mut self, policy: WritePolicy) -> Self {
        self.write_policy = policy;
        self
    }

    /// The active write policy.
    pub fn write_policy(&self) -> WritePolicy {
        self.write_policy
    }

    /// Number of dirty (unflushed) frames.
    pub fn dirty_blocks(&self) -> usize {
        self.dirty.len()
    }

    /// The attached durable store, if any.
    pub fn durable(&self) -> Option<&DurableStore> {
        self.durable.as_ref()
    }

    /// The attached durable store, for the seal and finish steps of a
    /// group landed outside the lock this cache sits behind.
    pub(crate) fn durable_mut(&mut self) -> Option<&mut DurableStore> {
        self.durable.as_mut()
    }

    /// Writes a clean-shutdown marker to the durable journal (if one is
    /// attached), letting the next open trust recovered clean frames.
    /// Idempotent; also invoked best-effort on drop.
    ///
    /// # Errors
    ///
    /// Propagates media failures; the next recovery then treats the
    /// shutdown as unclean, which is safe (merely colder).
    pub fn shutdown_durable(&mut self) -> io::Result<()> {
        match self.durable.as_mut() {
            Some(d) => d.shutdown(),
            None => Ok(()),
        }
    }

    /// A copy of `key`'s resident payload.
    fn frame_copy(&self, key: u64) -> Option<Block> {
        self.frames.get(key).and_then(|f| f.as_deref()).copied()
    }

    /// Makes every mutation staged so far durable: the group's frames
    /// written and synced, then, if the group holds records, one journal
    /// append + sync ([`DurableStore::commit`]). Until this returns `Ok`,
    /// nothing staged may be acknowledged; on `Err` what did not land is
    /// retried by the next commit. A no-op without a durable store or
    /// with nothing staged.
    ///
    /// # Errors
    ///
    /// Propagates media failures.
    pub fn commit(&mut self) -> io::Result<()> {
        match self.durable.as_mut() {
            Some(d) => d.commit(),
            None => Ok(()),
        }
    }

    /// Ends a public call: commits what it staged (even when the call
    /// itself failed part-way), reporting the call's own error first.
    fn committed<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        let commit = self.commit();
        let value = result?;
        commit?;
        Ok(value)
    }

    /// Stages a frame onto the durable tier.
    ///
    /// `dirty` data (the only copy) propagates failures so callers never
    /// acknowledge an un-persisted write; clean mirrors are best-effort.
    fn durable_put(&mut self, key: u64, data: &Block, dirty: bool) -> io::Result<()> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        match d.stage_put(key, data, dirty) {
            Ok(()) => Ok(()),
            Err(e) => {
                obs::count(CounterId::DurableMediaErrors, 1);
                if dirty {
                    Err(e)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Stages `key`'s retirement from the durable tier.
    ///
    /// Should the record never commit, the stale durable copy survives a
    /// restart as a clean extra frame — recovery re-admits or drops
    /// it; it can never shadow newer data because recovery orders
    /// frames and records by sequence.
    fn durable_evict(&mut self, key: u64) {
        if let Some(d) = self.durable.as_mut() {
            d.stage_evict(key);
        }
    }

    /// Stages the record that `key` reached the backing store. Should it
    /// never commit, a restart re-flushes the frame — an idempotent extra
    /// write, never data loss.
    fn durable_mark_clean(&mut self, key: u64) {
        if let Some(d) = self.durable.as_mut() {
            d.stage_mark_clean(key);
        }
    }

    /// Writes one dirty victim back to the backing store.
    ///
    /// On failure the key is re-marked dirty so the data is not lost —
    /// a later flush (or shutdown retry) will try again.
    fn flush_one(&mut self, key: u64) -> io::Result<()> {
        if self.dirty.remove(key) {
            // A dirty key without a frame would be an internal
            // inconsistency; treat it as already-flushed rather than
            // panicking on a degraded node.
            let Some(data) = self.frame_copy(key) else {
                return Ok(());
            };
            if let Err(e) = self.backing.write_block(key, &data) {
                self.dirty.insert(key);
                return Err(e);
            }
            self.durable_mark_clean(key);
        }
        Ok(())
    }

    /// Writes every dirty frame back to the backing store; returns how
    /// many blocks were flushed.
    ///
    /// The flushed keys' clean records commit as one group.
    ///
    /// # Errors
    ///
    /// Propagates the first backing-store failure; already-flushed
    /// blocks stay clean, the failed key stays dirty. A failed commit is
    /// also an error: the blocks did reach the backing store, but a
    /// restart would flush them again.
    pub fn flush(&mut self) -> io::Result<u64> {
        let result = self.flush_staged();
        self.committed(result)
    }

    /// [`Self::flush`] without the commit.
    pub(crate) fn flush_staged(&mut self) -> io::Result<u64> {
        let keys: Vec<u64> = self.dirty.iter().collect();
        keys.iter().try_for_each(|&key| self.flush_one(key))?;
        Ok(keys.len() as u64)
    }

    /// Best-effort flush: keeps going past individual failures instead
    /// of aborting on the first one. Returns `(flushed, still_dirty)`.
    pub fn flush_best_effort(&mut self) -> (u64, u64) {
        let result = self.flush_best_effort_staged();
        // Best-effort here too: an uncommitted clean record only costs a
        // restart an idempotent re-flush.
        let _ = self.commit();
        result
    }

    /// [`Self::flush_best_effort`] without the commit.
    pub(crate) fn flush_best_effort_staged(&mut self) -> (u64, u64) {
        let keys: Vec<u64> = self.dirty.iter().collect();
        let mut flushed = 0;
        for key in keys {
            if self.flush_one(key).is_ok() {
                flushed += 1;
            }
        }
        (flushed, self.dirty.len() as u64)
    }

    /// Runs one bounded scrub pass over the durable segment, verifying
    /// frame checksums. Quarantined frames whose payload is still
    /// resident in memory are healed (re-written to a fresh slot); the
    /// rest will be re-fetched from the backing store on next access.
    /// The pass's quarantines and heals commit as one group.
    ///
    /// Returns an empty pass when no durable store is attached or the
    /// media fails entirely (the failure is counted).
    pub fn scrub(&mut self, max_slots: u32) -> ScrubPass {
        let pass = self.scrub_staged(max_slots);
        let _ = self.commit();
        pass
    }

    /// [`Self::scrub`] without the commit.
    pub(crate) fn scrub_staged(&mut self, max_slots: u32) -> ScrubPass {
        let cursor = self.scrub_cursor;
        let pass = match self.durable.as_mut() {
            Some(d) => match d.scrub(cursor, max_slots) {
                Ok(pass) => pass,
                Err(_) => {
                    obs::count(CounterId::DurableMediaErrors, 1);
                    return ScrubPass::default();
                }
            },
            None => return ScrubPass::default(),
        };
        self.scrub_cursor = pass.next_slot;
        obs::count(CounterId::DurableScrubbedFrames, pass.verified);
        obs::count(
            CounterId::DurableQuarantinedFrames,
            pass.quarantined.len() as u64,
        );
        for &key in &pass.quarantined {
            if let Some(data) = self.frame_copy(key) {
                let dirty = self.dirty.contains(key);
                // Best-effort even for dirty frames: the in-memory copy
                // and dirty bit still protect the data if this fails.
                let _ = self.durable_put(key, &data, dirty);
            }
        }
        pass
    }

    /// Applies a policy outcome to the frame map, fetching `fresh` on
    /// allocation; dirty victims are flushed before their frame drops.
    ///
    /// `dirty_alloc` marks the allocation's payload as existing nowhere
    /// else (a write-back allocating write): it is made durable before
    /// the frame installs and joins the dirty set.
    fn apply_outcome(
        &mut self,
        key: u64,
        outcome: AccessOutcome,
        fresh: Option<&Block>,
        dirty_alloc: bool,
    ) -> io::Result<DataOutcome> {
        Ok(match outcome {
            AccessOutcome::Hit => DataOutcome {
                hit: true,
                allocated: false,
            },
            AccessOutcome::BypassMiss => DataOutcome {
                hit: false,
                allocated: false,
            },
            AccessOutcome::AllocatedMiss { evicted } => {
                if let Some(victim) = evicted {
                    self.flush_one(victim)?;
                    self.frames.remove(victim);
                    self.durable_evict(victim);
                }
                if let Some(data) = fresh {
                    self.durable_put(key, data, dirty_alloc)?;
                    if dirty_alloc {
                        self.dirty.insert(key);
                    }
                    self.frames.insert(key, Some(Box::new(*data)));
                }
                DataOutcome {
                    hit: false,
                    allocated: true,
                }
            }
        })
    }

    /// Reads one block through the cache; whatever the read staged on
    /// the durable tier (an allocation, a victim's retirement) is
    /// committed before this returns.
    ///
    /// # Errors
    ///
    /// Propagates backing-store failures (cache state stays consistent:
    /// policy metadata may register the miss, but no frame is installed)
    /// and durable commit failures.
    pub fn read(&mut self, key: u64, now: Micros) -> io::Result<(Block, DataOutcome)> {
        let result = self.read_staged(key, now);
        self.committed(result)
    }

    /// [`Self::read`] without the commit, for callers that commit once
    /// per group of operations (the node's request engine): the caller
    /// owes one [`Self::commit`] before it lets the result out, because
    /// the read may have observed a write that is still only staged.
    ///
    /// # Errors
    ///
    /// Propagates backing-store failures.
    pub fn read_staged(&mut self, key: u64, now: Micros) -> io::Result<(Block, DataOutcome)> {
        self.read_staged_with(key, now, |data, outcome| (*data, outcome))
    }

    /// The one read body: [`Self::read_staged`] with the block lent to
    /// `serve` instead of copied out — a hit lends the resident frame
    /// itself, so the node encodes its reply frame → output buffer in
    /// one copy.
    pub(crate) fn read_staged_with<R>(
        &mut self,
        key: u64,
        now: Micros,
        serve: impl FnOnce(&Block, DataOutcome) -> R,
    ) -> io::Result<R> {
        let outcome = self.store.access(key, RequestKind::Read, now);
        if outcome.is_hit() {
            // A hit without a frame would be an internal inconsistency;
            // fall back to the backing store instead of panicking.
            if let Some(frame) = self.frames.get(key).and_then(|f| f.as_deref()) {
                let outcome = DataOutcome {
                    hit: true,
                    allocated: false,
                };
                return Ok(serve(frame, outcome));
            }
            let data = self.backing.read_block(key)?;
            let outcome = DataOutcome {
                hit: false,
                allocated: false,
            };
            return Ok(serve(&data, outcome));
        }
        // A dirty frame is authoritative even when the policy calls the
        // access a miss (recovery can leave a dirty frame the policy did
        // not re-admit): never serve the stale backing copy over it, and
        // if the read re-allocates, the frame must stay labelled dirty —
        // staging it clean would let the next power cut drop
        // the only copy of acked write-back data.
        let mut still_dirty = false;
        let data = match self.frame_copy(key) {
            Some(data) if self.dirty.contains(key) => {
                still_dirty = true;
                data
            }
            _ => self.backing.read_block(key)?,
        };
        let result = self.apply_outcome(key, outcome, Some(&data), still_dirty)?;
        Ok(serve(&data, result))
    }

    /// Writes one block through the cache, honouring the write policy.
    ///
    /// Under write-back, dirty data is made durable (when a durable
    /// store is attached) *before* this method returns — the
    /// acknowledgement never precedes persistence.
    ///
    /// # Errors
    ///
    /// Propagates backing-store and durable-store failures.
    pub fn write(&mut self, key: u64, data: &Block, now: Micros) -> io::Result<DataOutcome> {
        let result = self.write_staged(key, data, now);
        self.committed(result)
    }

    /// [`Self::write`] without the commit, for callers that commit once
    /// per group of operations: the write is **not durable** — and must
    /// not be acknowledged — until a later [`Self::commit`] returns `Ok`.
    ///
    /// # Errors
    ///
    /// Propagates backing-store failures and durable staging failures.
    pub fn write_staged(&mut self, key: u64, data: &Block, now: Micros) -> io::Result<DataOutcome> {
        let outcome = self.store.access(key, RequestKind::Write, now);
        if outcome.is_hit() {
            match self.write_policy {
                WritePolicy::WriteThrough => {
                    self.backing.write_block(key, data)?;
                    self.durable_put(key, data, false)?;
                }
                WritePolicy::WriteBack => {
                    self.durable_put(key, data, true)?;
                    self.dirty.insert(key);
                }
            }
            self.frames.insert(key, Some(Box::new(*data)));
            return Ok(DataOutcome {
                hit: true,
                allocated: false,
            });
        }
        // Misses: a bypass goes straight to the ensemble; an allocation
        // installs the fresh data (dirty under write-back — the backing
        // store has never seen it).
        let dirty_alloc = self.write_policy == WritePolicy::WriteBack && outcome.is_allocation();
        if !dirty_alloc {
            self.backing.write_block(key, data)?;
            // A lingering frame (e.g. a recovered dirty frame the policy
            // no longer admits) must not go stale behind this write.
            if let Some(frame) = self.frames.get_mut(key).and_then(|f| f.as_deref_mut()) {
                *frame = *data;
                self.dirty.remove(key);
                self.durable_put(key, data, false)?;
            }
        }
        self.apply_outcome(key, outcome, Some(data), dirty_alloc)
    }

    /// Serves a read without consulting the policy or allocating frames
    /// — the degraded pass-through path.
    ///
    /// Dirty frames are authoritative (the backing store holds stale
    /// data for them), so they are served from memory; everything else
    /// goes straight to the backing store.
    ///
    /// # Errors
    ///
    /// Propagates backing-store failures.
    pub fn read_bypass(&mut self, key: u64) -> io::Result<Block> {
        if self.dirty.contains(key) {
            if let Some(data) = self.frame_copy(key) {
                return Ok(data);
            }
        }
        self.backing.read_block(key)
    }

    /// Applies a write without consulting the policy or allocating
    /// frames — the degraded pass-through path.
    ///
    /// The backing store is updated first; if the block also has a
    /// cached frame, the frame is refreshed and its dirty bit cleared so
    /// later reads (degraded or healthy) cannot see stale data.
    ///
    /// # Errors
    ///
    /// Propagates backing-store failures (neither the frame nor the
    /// dirty bit changes) and durable commit failures.
    pub fn write_bypass(&mut self, key: u64, data: &Block) -> io::Result<()> {
        let result = self.write_bypass_staged(key, data);
        self.committed(result)
    }

    /// [`Self::write_bypass`] without the commit.
    pub(crate) fn write_bypass_staged(&mut self, key: u64, data: &Block) -> io::Result<()> {
        self.backing.write_block(key, data)?;
        let had_frame = match self.frames.get_mut(key).and_then(|f| f.as_deref_mut()) {
            Some(frame) => {
                *frame = *data;
                true
            }
            None => false,
        };
        self.dirty.remove(key);
        if had_frame {
            // Refresh the durable copy too (and clear its dirty flag);
            // best-effort — the backing store already holds the data.
            let _ = self.durable_put(key, data, false);
        }
        Ok(())
    }

    /// Signals a day boundary; discrete policies batch-install, and the
    /// newly selected blocks' payloads are staged from the backing store
    /// (the paper's staggered bulk moves).
    ///
    /// The whole batch — retirements and installs — commits as one
    /// group (two, when it needs the slots it has just released).
    ///
    /// # Errors
    ///
    /// Propagates backing-store failures while staging payloads, and
    /// durable commit failures.
    pub fn day_boundary(&mut self, day: Day) -> io::Result<u64> {
        let Some(transition) = self.store.day_boundary(day) else {
            return Ok(0);
        };
        let result = self.install_epoch(&transition.allocated);
        self.committed(result)
    }

    fn install_epoch(&mut self, allocated: &[u64]) -> io::Result<u64> {
        // Flush dirty frames leaving residency, drop evicted frames, keep
        // retained ones, stage the newly selected blocks' payloads.
        let evicted: Vec<u64> = self
            .frames
            .keys()
            .filter(|key| !self.store.contains(*key))
            .collect();
        for key in evicted {
            self.flush_one(key)?;
            self.frames.remove(key);
            self.durable_evict(key);
        }
        for key in allocated {
            if self.durable().is_some_and(DurableStore::out_of_slots) {
                // The installs need the slots the retirements released.
                self.commit()?;
            }
            let data = self.backing.read_block(*key)?;
            self.durable_put(*key, &data, false)?;
            self.frames.insert(*key, Some(Box::new(data)));
        }
        Ok(allocated.len() as u64)
    }

    /// Running policy statistics.
    pub fn stats(&self) -> &ApplianceStats {
        self.store.stats()
    }

    /// Number of frames currently holding data.
    pub fn resident_blocks(&self) -> usize {
        self.frames.len()
    }

    /// The underlying backing store.
    pub fn backing(&self) -> &B {
        &self.backing
    }

    /// The policy's report name.
    pub fn policy_name(&self) -> &str {
        self.store.policy_name()
    }
}

impl<B: BackingStore> Drop for DataCache<B> {
    /// Marks the durable journal cleanly shut down, best-effort: if the
    /// marker cannot be written (media already failed), the next open
    /// recovers as an unclean shutdown — colder, never incorrect.
    fn drop(&mut self) {
        let _ = self.shutdown_durable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;
    use crate::durable::MemMedia;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::HashMap;

    fn block(fill: u8) -> Block {
        [fill; 512]
    }

    fn t(secs: u64) -> Micros {
        Micros::from_secs(secs)
    }

    #[test]
    fn read_allocates_and_then_hits_under_aod() {
        let mut c = DataCache::new(MemBacking::new(), PolicySpec::Aod, 16).unwrap();
        c.backing().write_block(1, &block(0x42)).unwrap();
        let (data, o) = c.read(1, t(0)).unwrap();
        assert_eq!(data, block(0x42));
        assert!(!o.hit);
        assert!(o.allocated);
        let (data, o) = c.read(1, t(1)).unwrap();
        assert_eq!(data, block(0x42));
        assert!(o.hit);
        assert_eq!(c.resident_blocks(), 1);
    }

    #[test]
    fn write_through_updates_backing_and_frame() {
        let mut c = DataCache::new(MemBacking::new(), PolicySpec::Aod, 16).unwrap();
        c.write(5, &block(0xAA), t(0)).unwrap();
        assert_eq!(c.backing().read_block(5).unwrap(), block(0xAA));
        // The write allocated (AOD): the frame holds the fresh data.
        let (data, o) = c.read(5, t(1)).unwrap();
        assert!(o.hit);
        assert_eq!(data, block(0xAA));
        // A write hit refreshes the frame.
        c.write(5, &block(0xBB), t(2)).unwrap();
        let (data, _) = c.read(5, t(3)).unwrap();
        assert_eq!(data, block(0xBB));
        assert_eq!(c.backing().read_block(5).unwrap(), block(0xBB));
    }

    #[test]
    fn eviction_drops_the_victims_frame() {
        let mut c = DataCache::new(MemBacking::new(), PolicySpec::Aod, 2).unwrap();
        c.write(1, &block(1), t(0)).unwrap();
        c.write(2, &block(2), t(1)).unwrap();
        c.write(3, &block(3), t(2)).unwrap(); // evicts 1
        assert_eq!(c.resident_blocks(), 2);
        // Block 1 now misses but still reads correctly from backing.
        let (data, o) = c.read(1, t(3)).unwrap();
        assert!(!o.hit);
        assert_eq!(data, block(1));
    }

    #[test]
    fn sieved_cache_bypasses_cold_blocks_with_correct_data() {
        let cfg = sievestore_sieve::TwoTierConfig::paper_default()
            .with_imct_entries(1 << 12)
            .with_thresholds(2, 2);
        let mut c = DataCache::new(MemBacking::new(), PolicySpec::SieveStoreC(cfg), 64).unwrap();
        c.backing().write_block(9, &block(0x99)).unwrap();
        // First misses bypass but still serve correct data.
        for i in 0..3 {
            let (data, o) = c.read(9, t(i)).unwrap();
            assert_eq!(data, block(0x99));
            assert!(!o.hit, "miss {i}");
        }
        // Fourth access allocates (t1=2 + t2=2), fifth hits.
        let (_, o) = c.read(9, t(3)).unwrap();
        assert!(o.allocated);
        let (data, o) = c.read(9, t(4)).unwrap();
        assert!(o.hit);
        assert_eq!(data, block(0x99));
    }

    #[test]
    fn discrete_day_boundary_stages_payloads() {
        let mut c = DataCache::new(
            MemBacking::new(),
            PolicySpec::SieveStoreD { threshold: 2 },
            16,
        )
        .unwrap();
        c.backing().write_block(4, &block(0x44)).unwrap();
        for i in 0..3 {
            let (_, o) = c.read(4, t(i)).unwrap();
            assert!(!o.hit);
            assert!(!o.allocated);
        }
        let staged = c.day_boundary(Day::new(1)).unwrap();
        assert_eq!(staged, 1);
        let (data, o) = c.read(4, Micros::from_days(1)).unwrap();
        assert!(o.hit);
        assert_eq!(data, block(0x44));
    }

    #[test]
    fn write_back_defers_backing_updates_until_flush() {
        let mut c = DataCache::new(MemBacking::new(), PolicySpec::Aod, 16)
            .unwrap()
            .with_write_policy(WritePolicy::WriteBack);
        assert_eq!(c.write_policy(), WritePolicy::WriteBack);
        // The allocating write-miss installs a dirty frame; the backing
        // store has never seen the data.
        c.write(1, &block(0xD1), t(0)).unwrap();
        assert_eq!(c.dirty_blocks(), 1);
        assert_eq!(c.backing().read_block(1).unwrap(), block(0));
        // Reads still serve the fresh data from the frame.
        let (data, o) = c.read(1, t(1)).unwrap();
        assert!(o.hit);
        assert_eq!(data, block(0xD1));
        // Flush persists it.
        assert_eq!(c.flush().unwrap(), 1);
        assert_eq!(c.dirty_blocks(), 0);
        assert_eq!(c.backing().read_block(1).unwrap(), block(0xD1));
        // Flushing again is a no-op.
        assert_eq!(c.flush().unwrap(), 0);
    }

    #[test]
    fn write_back_flushes_dirty_victims_on_eviction() {
        let mut c = DataCache::new(MemBacking::new(), PolicySpec::Aod, 2)
            .unwrap()
            .with_write_policy(WritePolicy::WriteBack);
        c.write(1, &block(0x11), t(0)).unwrap();
        c.write(2, &block(0x22), t(1)).unwrap();
        // Block 3 evicts block 1, whose dirty data must reach the backing
        // store before the frame drops.
        c.write(3, &block(0x33), t(2)).unwrap();
        assert_eq!(c.backing().read_block(1).unwrap(), block(0x11));
        // Block 2 is still dirty and cached only.
        assert_eq!(c.backing().read_block(2).unwrap(), block(0));
        let (data, _) = c.read(2, t(3)).unwrap();
        assert_eq!(data, block(0x22));
    }

    #[test]
    fn write_back_bypassed_writes_go_straight_to_backing() {
        // A sieved cache refuses cold writes; under write-back they must
        // still land on the ensemble immediately.
        let cfg = sievestore_sieve::TwoTierConfig::paper_default()
            .with_imct_entries(1 << 12)
            .with_thresholds(9, 4);
        let mut c = DataCache::new(MemBacking::new(), PolicySpec::SieveStoreC(cfg), 16)
            .unwrap()
            .with_write_policy(WritePolicy::WriteBack);
        let o = c.write(7, &block(0x77), t(0)).unwrap();
        assert!(!o.hit && !o.allocated);
        assert_eq!(c.backing().read_block(7).unwrap(), block(0x77));
        assert_eq!(c.dirty_blocks(), 0);
    }

    #[test]
    fn write_back_day_boundary_flushes_departing_blocks() {
        let mut c = DataCache::new(
            MemBacking::new(),
            PolicySpec::SieveStoreD { threshold: 2 },
            16,
        )
        .unwrap()
        .with_write_policy(WritePolicy::WriteBack);
        // Day 0: block 8 earns residency for day 1.
        for i in 0..3 {
            c.read(8, t(i)).unwrap();
        }
        c.day_boundary(Day::new(1)).unwrap();
        // Day 1: dirty the resident block via a write hit.
        let o = c.write(8, &block(0x88), Micros::from_days(1)).unwrap();
        assert!(o.hit);
        assert_eq!(c.backing().read_block(8).unwrap(), block(0));
        // Day 2: block 8 was not re-qualified, so the boundary evicts and
        // flushes it.
        c.day_boundary(Day::new(2)).unwrap();
        assert_eq!(c.backing().read_block(8).unwrap(), block(0x88));
        assert_eq!(c.dirty_blocks(), 0);
    }

    #[test]
    fn bypass_reads_serve_dirty_frames_and_skip_the_policy() {
        let mut c = DataCache::new(MemBacking::new(), PolicySpec::Aod, 16)
            .unwrap()
            .with_write_policy(WritePolicy::WriteBack);
        // Dirty frame: the cache holds the only copy.
        c.write(1, &block(0xD1), t(0)).unwrap();
        assert_eq!(c.backing().read_block(1).unwrap(), block(0));
        let hits_before = c.stats().hits();
        // Bypass reads serve the dirty frame, not the stale backing data,
        // and leave policy counters untouched.
        assert_eq!(c.read_bypass(1).unwrap(), block(0xD1));
        assert_eq!(c.stats().hits(), hits_before);
        // Clean keys come straight from backing.
        c.backing().write_block(9, &block(0x99)).unwrap();
        assert_eq!(c.read_bypass(9).unwrap(), block(0x99));
        assert_eq!(c.resident_blocks(), 1, "bypass reads never allocate");
    }

    #[test]
    fn bypass_writes_update_backing_and_refresh_frames() {
        let mut c = DataCache::new(MemBacking::new(), PolicySpec::Aod, 16)
            .unwrap()
            .with_write_policy(WritePolicy::WriteBack);
        c.write(2, &block(0x22), t(0)).unwrap();
        assert_eq!(c.dirty_blocks(), 1);
        // The bypass write lands on backing, refreshes the frame and
        // clears the dirty bit — no stale copy anywhere.
        c.write_bypass(2, &block(0x33)).unwrap();
        assert_eq!(c.dirty_blocks(), 0);
        assert_eq!(c.backing().read_block(2).unwrap(), block(0x33));
        let (data, o) = c.read(2, t(1)).unwrap();
        assert!(o.hit);
        assert_eq!(data, block(0x33));
        // Non-resident keys go straight through without allocating.
        c.write_bypass(8, &block(0x88)).unwrap();
        assert_eq!(c.backing().read_block(8).unwrap(), block(0x88));
        assert_eq!(c.resident_blocks(), 1);
    }

    #[test]
    fn best_effort_flush_continues_past_failures() {
        use crate::faults::{FaultInjectingBacking, FaultPlan};
        let faulty = FaultInjectingBacking::new(MemBacking::new(), FaultPlan::new(0));
        let handle = faulty.handle();
        let mut c = DataCache::new(faulty, PolicySpec::Aod, 16)
            .unwrap()
            .with_write_policy(WritePolicy::WriteBack);
        for key in 0..4 {
            c.write(key, &block(key as u8 + 1), t(key)).unwrap();
        }
        assert_eq!(c.dirty_blocks(), 4);
        // Two of the four flush writes fail; the other two land.
        handle.fail_next(2);
        let (flushed, still_dirty) = c.flush_best_effort();
        assert_eq!(flushed, 2);
        assert_eq!(still_dirty, 2);
        assert_eq!(c.dirty_blocks(), 2);
        // A retry after healing drains the rest.
        let (flushed, still_dirty) = c.flush_best_effort();
        assert_eq!(flushed, 2);
        assert_eq!(still_dirty, 0);
        for key in 0..4u64 {
            assert_eq!(
                c.backing().inner().read_block(key).unwrap(),
                block(key as u8 + 1)
            );
        }
    }

    #[test]
    fn write_back_random_workload_reads_own_writes() {
        let mut c = DataCache::new(MemBacking::new(), PolicySpec::Aod, 8)
            .unwrap()
            .with_write_policy(WritePolicy::WriteBack);
        let mut shadow: HashMap<u64, Block> = HashMap::new();
        let mut rng = SmallRng::seed_from_u64(78);
        for i in 0..5_000u64 {
            let key = rng.random_range(0..32u64);
            if rng.random::<bool>() {
                let fill = rng.random::<u8>();
                c.write(key, &block(fill), t(i)).unwrap();
                shadow.insert(key, block(fill));
            } else {
                let (data, _) = c.read(key, t(i)).unwrap();
                let expect = shadow.get(&key).copied().unwrap_or(block(0));
                assert_eq!(data, expect, "stale data for key {key} at step {i}");
            }
        }
        // After a full flush the backing store agrees with the shadow.
        c.flush().unwrap();
        for (key, expect) in &shadow {
            assert_eq!(c.backing().read_block(*key).unwrap(), *expect);
        }
    }

    #[test]
    fn random_mixed_workload_always_returns_backing_truth() {
        // The cache must never serve stale data, whatever the policy does.
        let mut c = DataCache::new(MemBacking::new(), PolicySpec::Aod, 8).unwrap();
        let mut shadow: HashMap<u64, Block> = HashMap::new();
        let mut rng = SmallRng::seed_from_u64(77);
        for i in 0..5_000u64 {
            let key = rng.random_range(0..32u64);
            if rng.random::<bool>() {
                let fill = rng.random::<u8>();
                c.write(key, &block(fill), t(i)).unwrap();
                shadow.insert(key, block(fill));
            } else {
                let (data, _) = c.read(key, t(i)).unwrap();
                let expect = shadow.get(&key).copied().unwrap_or(block(0));
                assert_eq!(data, expect, "stale data for key {key} at step {i}");
            }
        }
        assert!(c.stats().hits() > 0);
    }

    // -- durable tier wiring ------------------------------------------------

    /// Runs a workload against a durable cache, then "restarts" by
    /// re-opening a cache over the surviving media bytes (orderly
    /// shutdown: the clean-shutdown marker is written first).
    fn reopen(
        mut cache: DataCache<MemBacking>,
        policy: PolicySpec,
        capacity: usize,
        write_policy: WritePolicy,
    ) -> (DataCache<MemBacking>, RecoveryReport) {
        cache.shutdown_durable().unwrap();
        let backing = {
            // Clone the backing contents into a fresh MemBacking.
            let old = cache.backing();
            let fresh = MemBacking::new();
            for key in 0..64u64 {
                let data = old.read_block(key).unwrap();
                if data != [0u8; 512] {
                    fresh.write_block(key, &data).unwrap();
                }
            }
            fresh
        };
        let media = cache
            .durable()
            .expect("durable attached")
            .clone_media_bytes()
            .unwrap();
        let set = DurableMediaSet {
            frames: Box::new(MemMedia::from_bytes(media.0)),
            journal_a: Box::new(MemMedia::from_bytes(media.1)),
            journal_b: Box::new(MemMedia::from_bytes(media.2)),
        };
        let (cache, report) = DataCache::new_durable(backing, policy, capacity, set).unwrap();
        (cache.with_write_policy(write_policy), report)
    }

    #[test]
    fn durable_cache_round_trips_and_recovers_warm() {
        let (mut c, report) = DataCache::new_durable(
            MemBacking::new(),
            PolicySpec::Aod,
            8,
            DurableMediaSet::in_memory(),
        )
        .unwrap();
        assert_eq!(report.recovered, 0);
        assert_eq!(report.journal_records, 0);
        for key in 0..5u64 {
            c.write(key, &block(key as u8 + 1), t(key)).unwrap();
        }
        let resident_before = c.resident_blocks();

        let (mut c2, report) = reopen(c, PolicySpec::Aod, 8, WritePolicy::WriteThrough);
        assert_eq!(report.recovered, resident_before as u64);
        assert_eq!(report.quarantined, 0);
        assert_eq!(c2.resident_blocks(), resident_before);
        // Recovered frames serve hits with the right payloads.
        for key in 0..5u64 {
            let (data, o) = c2.read(key, t(100 + key)).unwrap();
            assert!(o.hit, "key {key} should be warm");
            assert_eq!(data, block(key as u8 + 1));
        }
    }

    #[test]
    fn durable_write_back_dirty_data_survives_restart() {
        let (c, _) = DataCache::new_durable(
            MemBacking::new(),
            PolicySpec::Aod,
            8,
            DurableMediaSet::in_memory(),
        )
        .unwrap();
        let mut c = c.with_write_policy(WritePolicy::WriteBack);
        c.write(3, &block(0xD3), t(0)).unwrap();
        assert_eq!(c.dirty_blocks(), 1);
        // The backing store has never seen the data...
        assert_eq!(c.backing().read_block(3).unwrap(), block(0));

        // ...yet after a restart the dirty frame is back, and a flush
        // lands it.
        let (mut c2, report) = reopen(c, PolicySpec::Aod, 8, WritePolicy::WriteBack);
        assert_eq!(report.recovered, 1);
        assert_eq!(c2.dirty_blocks(), 1);
        let (data, _) = c2.read(3, t(1)).unwrap();
        assert_eq!(data, block(0xD3));
        c2.flush().unwrap();
        assert_eq!(c2.backing().read_block(3).unwrap(), block(0xD3));
    }

    #[test]
    fn durable_flush_marks_clean_so_restart_does_not_reflush() {
        let (c, _) = DataCache::new_durable(
            MemBacking::new(),
            PolicySpec::Aod,
            8,
            DurableMediaSet::in_memory(),
        )
        .unwrap();
        let mut c = c.with_write_policy(WritePolicy::WriteBack);
        c.write(1, &block(0x11), t(0)).unwrap();
        c.flush().unwrap();
        let (c2, _) = reopen(c, PolicySpec::Aod, 8, WritePolicy::WriteBack);
        assert_eq!(c2.dirty_blocks(), 0, "flushed frame must recover clean");
        assert_eq!(c2.resident_blocks(), 1);
    }

    #[test]
    fn durable_eviction_retires_the_victims_durable_copy() {
        let (mut c, _) = DataCache::new_durable(
            MemBacking::new(),
            PolicySpec::Aod,
            2,
            DurableMediaSet::in_memory(),
        )
        .unwrap();
        c.write(1, &block(1), t(0)).unwrap();
        c.write(2, &block(2), t(1)).unwrap();
        c.write(3, &block(3), t(2)).unwrap(); // evicts 1
        let d = c.durable().unwrap();
        assert!(!d.contains(1), "evicted key must leave the durable store");
        assert!(d.contains(2) && d.contains(3));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn durable_scrub_heals_from_resident_frames() {
        let (mut c, _) = DataCache::new_durable(
            MemBacking::new(),
            PolicySpec::Aod,
            8,
            DurableMediaSet::in_memory(),
        )
        .unwrap();
        for key in 0..4u64 {
            c.write(key, &block(key as u8 + 1), t(key)).unwrap();
        }
        // A clean pass verifies everything.
        let pass = c.scrub(64);
        assert_eq!(pass.verified, 4);
        assert!(pass.quarantined.is_empty());
        // Cursor wraps: a second pass scans again.
        let pass = c.scrub(64);
        assert_eq!(pass.verified, 4);
    }

    #[test]
    fn durable_mixed_workload_restart_agrees_with_shadow() {
        let (c, _) = DataCache::new_durable(
            MemBacking::new(),
            PolicySpec::Aod,
            8,
            DurableMediaSet::in_memory(),
        )
        .unwrap();
        let mut c = c.with_write_policy(WritePolicy::WriteBack);
        let mut shadow: HashMap<u64, Block> = HashMap::new();
        let mut rng = SmallRng::seed_from_u64(99);
        for i in 0..2_000u64 {
            let key = rng.random_range(0..24u64);
            if rng.random::<bool>() {
                let fill = rng.random::<u8>();
                c.write(key, &block(fill), t(i)).unwrap();
                shadow.insert(key, block(fill));
            } else {
                let (data, _) = c.read(key, t(i)).unwrap();
                let expect = shadow.get(&key).copied().unwrap_or(block(0));
                assert_eq!(data, expect, "stale data for key {key} at step {i}");
            }
        }
        let resident = c.resident_blocks();
        let (mut c2, report) = reopen(c, PolicySpec::Aod, 8, WritePolicy::WriteBack);
        assert_eq!(report.recovered as usize, resident);
        // Every read after restart still agrees with the shadow.
        for i in 0..200u64 {
            let key = i % 24;
            let (data, _) = c2.read(key, t(10_000 + i)).unwrap();
            let expect = shadow.get(&key).copied().unwrap_or(block(0));
            assert_eq!(data, expect, "stale data for key {key} after restart");
        }
    }
}
