//! Crash-consistency property suite for the durable cache tier.
//!
//! Every schedule runs a deterministic workload against a
//! [`DataCache`] whose durable media is a set of [`CrashPointMedia`]
//! devices sharing one crash clock, cuts power at a chosen media
//! mutation step (optionally tearing the in-flight write and rotting
//! surviving bits), reboots from the surviving bytes and asserts the
//! three crash-consistency invariants:
//!
//! 1. **No corrupt frame is ever served** — every byte returned, before
//!    or after the crash, is a value some acknowledged or in-flight
//!    write produced (or the backing store's zero block); never torn or
//!    rotted garbage.
//! 2. **Write-through data is never lost** — an acknowledged
//!    write-through write is readable after restart.
//! 3. **Write-back dirty data acked after a journaled dirty record
//!    survives restart** — an acknowledged write-back write is readable
//!    after restart with exactly the acknowledged payload.
//!
//! The schedule count defaults to 250 and follows the `CRASH_SCHEDULES`
//! environment variable (CI pins it).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use sievestore::PolicySpec;
use sievestore_node::{
    BackingStore, Block, CrashHandle, CrashPlan, CrashPointMedia, DataCache, DurableMediaSet,
    DurableStore, FaultInjectingBacking, FaultPlan, MediaImage, MemBacking, MemMedia, NodeClient,
    NodeConfig, NodeMode, NodeServerBuilder, RecoveryReport, WritePolicy,
};
use sievestore_types::obs::{CapturingSink, FieldValue};
use sievestore_types::{Micros, SieveError};

const CAPACITY: usize = 8;
const KEY_SPACE: u64 = 16;
const OPS: u64 = 40;

fn block(fill: u8) -> Block {
    [fill; 512]
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A durable cache on crash-point media, plus the handles needed to cut
/// power and reboot from the survivors.
struct Rig {
    /// `None` when the cut landed during open-time recovery/compaction
    /// (before the workload could start) — itself a crash point worth
    /// covering.
    cache: Option<DataCache<MemBacking>>,
    handle: CrashHandle,
    images: (MediaImage, MediaImage, MediaImage),
}

/// Formats a fresh durable store on plain memory media and returns its
/// bytes, so the crash clock covers reopen + workload rather than mkfs.
fn fresh_formatted_bytes() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let media = DurableMediaSet::in_memory();
    let (cache, _) = DataCache::new_durable(MemBacking::new(), PolicySpec::Aod, CAPACITY, media)
        .expect("fresh media formats cleanly");
    cache.durable().unwrap().clone_media_bytes().unwrap()
}

fn build_rig(plan: CrashPlan, policy: WritePolicy) -> Rig {
    let formatted = fresh_formatted_bytes();
    let handle = CrashHandle::new(plan);
    let frames = CrashPointMedia::with_initial(formatted.0, handle.clone());
    let journal_a = CrashPointMedia::with_initial(formatted.1, handle.clone());
    let journal_b = CrashPointMedia::with_initial(formatted.2, handle.clone());
    let images = (frames.image(), journal_a.image(), journal_b.image());
    let media = DurableMediaSet {
        frames: Box::new(frames),
        journal_a: Box::new(journal_a),
        journal_b: Box::new(journal_b),
    };
    let cache = match DataCache::new_durable(MemBacking::new(), PolicySpec::Aod, CAPACITY, media) {
        Ok((cache, _)) => Some(cache.with_write_policy(policy)),
        Err(e) => {
            assert!(handle.crashed(), "open failed without a power cut: {e}");
            None
        }
    };
    Rig {
        cache,
        handle,
        images,
    }
}

/// What the workload observed before the cut.
struct WorkloadTrace {
    /// key → last *acknowledged* payload.
    shadow: HashMap<u64, Block>,
    /// key → every fill byte ever attempted for it (acked or not).
    seen_fills: HashMap<u64, Vec<u8>>,
    /// The write that was in flight when the cut landed, if any.
    in_flight: Option<(u64, Block)>,
    crashed: bool,
}

fn empty_trace(crashed: bool) -> WorkloadTrace {
    WorkloadTrace {
        shadow: HashMap::new(),
        seen_fills: HashMap::new(),
        in_flight: None,
        crashed,
    }
}

/// Runs the deterministic workload until completion or power cut.
fn run_workload(
    cache: &mut DataCache<MemBacking>,
    handle: &CrashHandle,
    workload_seed: u64,
) -> WorkloadTrace {
    let mut rng = workload_seed;
    let mut trace = WorkloadTrace {
        shadow: HashMap::new(),
        seen_fills: HashMap::new(),
        in_flight: None,
        crashed: false,
    };
    for i in 0..OPS {
        let r = splitmix(&mut rng);
        let key = r % KEY_SPACE;
        let op = (r >> 8) % 10;
        let now = Micros::from_secs(i);
        if op < 6 {
            let fill = (r >> 16) as u8;
            trace.seen_fills.entry(key).or_default().push(fill);
            match cache.write(key, &block(fill), now) {
                Ok(_) => {
                    trace.shadow.insert(key, block(fill));
                }
                Err(e) => {
                    assert!(handle.crashed(), "write failed without a power cut: {e}");
                    trace.in_flight = Some((key, block(fill)));
                }
            }
        } else if op < 9 {
            match cache.read(key, now) {
                Ok((data, _)) => {
                    let expect = trace.shadow.get(&key).copied().unwrap_or(block(0));
                    assert_eq!(data, expect, "pre-crash read of key {key} is stale");
                }
                Err(e) => {
                    assert!(handle.crashed(), "read failed without a power cut: {e}");
                }
            }
        } else {
            // A flush is allowed to fail only at the cut.
            if let Err(e) = cache.flush() {
                assert!(handle.crashed(), "flush failed without a power cut: {e}");
            }
        }
        if handle.crashed() {
            trace.crashed = true;
            break;
        }
    }
    trace
}

/// Clones the ensemble's contents (the backing store survives the cut —
/// only the node's own durable media loses power).
fn clone_backing(cache: &DataCache<MemBacking>) -> MemBacking {
    let fresh = MemBacking::new();
    for key in 0..KEY_SPACE {
        let data = cache.backing().read_block(key).unwrap();
        if data != block(0) {
            fresh.write_block(key, &data).unwrap();
        }
    }
    fresh
}

/// Reboots a cache from the surviving media bytes.
fn reboot(
    images: &(MediaImage, MediaImage, MediaImage),
    backing: MemBacking,
    policy: WritePolicy,
) -> Result<(DataCache<MemBacking>, RecoveryReport), SieveError> {
    let media = DurableMediaSet {
        frames: Box::new(MemMedia::from_bytes(images.0.bytes())),
        journal_a: Box::new(MemMedia::from_bytes(images.1.bytes())),
        journal_b: Box::new(MemMedia::from_bytes(images.2.bytes())),
    };
    DataCache::new_durable(backing, PolicySpec::Aod, CAPACITY, media)
        .map(|(c, r)| (c.with_write_policy(policy), r))
}

/// Invariant 1: every payload the rebooted cache serves must be a value
/// some write produced for that key (acked or in-flight) or the zero
/// block — never torn or rotted garbage.
fn assert_no_garbage(cache: &mut DataCache<MemBacking>, trace: &WorkloadTrace) {
    for key in 0..KEY_SPACE {
        let (data, _) = cache.read(key, Micros::from_secs(1_000 + key)).unwrap();
        let fill = data[0];
        let uniform = data.iter().all(|&b| b == fill);
        assert!(
            uniform,
            "key {key}: non-uniform payload can only be garbage"
        );
        let legal = fill == 0
            || trace
                .seen_fills
                .get(&key)
                .is_some_and(|fills| fills.contains(&fill));
        assert!(legal, "key {key}: served fill {fill:#x} was never written");
    }
}

/// Runs one full crash schedule and checks all invariants.
fn run_schedule(schedule: u64, crash_at: u64, policy: WritePolicy, torn: bool, rot: u32) {
    let mut plan = CrashPlan::no_crash(schedule).crash_at_step(crash_at);
    if torn {
        plan = plan.with_torn_tail();
    }
    if rot > 0 {
        plan = plan.with_bit_rot(rot);
    }
    let mut rig = build_rig(plan, policy);
    let workload_seed = 1 + schedule / 97; // several crash points share a workload
    let (trace, backing) = match rig.cache.take() {
        Some(mut cache) => {
            let trace = run_workload(&mut cache, &rig.handle, workload_seed);
            let backing = clone_backing(&cache);
            (trace, backing)
        }
        // The cut landed inside open-time recovery — nothing was acked,
        // the backing is empty, and reboot must still succeed.
        None => (empty_trace(true), MemBacking::new()),
    };

    let rebooted = reboot(&rig.images, backing, policy);
    let (mut cache, report) = match rebooted {
        Ok(ok) => ok,
        Err(e) => {
            // Unrecoverable media is only legal under bit rot (a flipped
            // header bit); a pure power cut must always recover.
            assert!(rot > 0, "schedule {schedule}: clean cut unrecoverable: {e}");
            return;
        }
    };

    if rot == 0 {
        // A pure power cut (even with a torn in-flight write) can only
        // lose *unacknowledged* state: fresh-slot writes and the
        // un-synced journal tail. Nothing acked is quarantined or lost.
        assert_eq!(
            report.quarantined, 0,
            "schedule {schedule}: acked frame quarantined without bit rot"
        );
        assert_eq!(
            report.lost_dirty, 0,
            "schedule {schedule}: acked dirty frame lost without bit rot"
        );
        // Invariants 2 and 3: every acknowledged write is readable with
        // exactly the acknowledged payload. The in-flight write (never
        // acked) may read as either its old or its attempted value.
        for (&key, &expect) in &trace.shadow {
            let (data, _) = cache.read(key, Micros::from_secs(2_000 + key)).unwrap();
            if let Some((in_key, attempted)) = trace.in_flight {
                if in_key == key {
                    assert!(
                        data == expect || data == attempted,
                        "schedule {schedule}: in-flight key {key} reads neither old nor new"
                    );
                    continue;
                }
            }
            assert_eq!(
                data, expect,
                "schedule {schedule}: acked write to key {key} lost (policy {policy:?})"
            );
        }
    }
    // Invariant 1 holds regardless of rot.
    assert_no_garbage(&mut cache, &trace);
}

/// Counts the media mutation steps of an uncut run, bounding the sweep.
fn steps_for(policy: WritePolicy, workload_seed: u64) -> u64 {
    let mut rig = build_rig(CrashPlan::no_crash(0), policy);
    let mut cache = rig.cache.take().expect("no cut in the dry run");
    let trace = run_workload(&mut cache, &rig.handle, workload_seed);
    assert!(!trace.crashed);
    rig.handle.steps()
}

fn schedule_count() -> u64 {
    std::env::var("CRASH_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(250)
}

#[test]
fn power_cut_schedules_preserve_all_invariants_write_back() {
    let schedules = schedule_count();
    let mut ran = 0u64;
    let mut sweep = 0u64;
    while ran < schedules {
        let workload_seed = 1 + sweep / 97;
        let total = steps_for(WritePolicy::WriteBack, workload_seed);
        let crash_at = sweep % total;
        let torn = sweep.is_multiple_of(2);
        let rot = if sweep % 11 == 7 { 2 } else { 0 };
        run_schedule(sweep, crash_at, WritePolicy::WriteBack, torn, rot);
        ran += 1;
        sweep += 1;
    }
    assert!(ran >= schedules);
}

#[test]
fn power_cut_schedules_preserve_all_invariants_write_through() {
    // Write-through mirrors are best-effort, so the cut is invisible to
    // the workload: every op keeps succeeding against the backing store
    // and nothing acked can be lost (invariant 2).
    let schedules = schedule_count() / 5;
    for sweep in 0..schedules {
        let workload_seed = 1 + sweep / 29;
        let total = steps_for(WritePolicy::WriteThrough, workload_seed);
        run_schedule(
            10_000 + sweep,
            sweep % total,
            WritePolicy::WriteThrough,
            sweep % 2 == 1,
            if sweep % 13 == 5 { 1 } else { 0 },
        );
    }
}

// ---------------------------------------------------------------------------
// Group granularity: windows of staged operations closed by one commit,
// the way the node's request engine drives the cache.
// ---------------------------------------------------------------------------

/// What the grouped workload observed before the cut. "Acknowledged"
/// means the window's covering `commit()` returned `Ok`.
struct GroupedTrace {
    /// `shadow`: key → last acknowledged payload; `seen_fills`: every
    /// fill ever attempted; `in_flight` is unused (see `cut_window`).
    base: WorkloadTrace,
    /// Every write of the window the cut landed in: none was
    /// acknowledged, any of them may or may not have taken effect.
    cut_window: HashMap<u64, Vec<Block>>,
}

/// Runs the deterministic workload in windows of 1..=8 staged ops, each
/// closed by one `commit()`, until completion or power cut.
fn run_workload_grouped(
    cache: &mut DataCache<MemBacking>,
    handle: &CrashHandle,
    workload_seed: u64,
) -> GroupedTrace {
    let mut rng = workload_seed ^ 0x6A09_E667_F3BC_C908;
    let mut trace = GroupedTrace {
        base: empty_trace(false),
        cut_window: HashMap::new(),
    };
    let mut i = 0u64;
    while i < OPS && !trace.base.crashed {
        let window_len = 1 + splitmix(&mut rng) % 8;
        // The window's own writes, in order; reads inside the window
        // see them although nothing has committed yet.
        let mut window: Vec<(u64, Block)> = Vec::new();
        for _ in 0..window_len {
            let r = splitmix(&mut rng);
            let key = r % KEY_SPACE;
            let op = (r >> 8) % 10;
            let now = Micros::from_secs(i);
            i += 1;
            if op < 6 {
                let fill = (r >> 16) as u8;
                trace.base.seen_fills.entry(key).or_default().push(fill);
                window.push((key, block(fill)));
                if let Err(e) = cache.write_staged(key, &block(fill), now) {
                    assert!(handle.crashed(), "write failed without a power cut: {e}");
                }
            } else if op < 9 {
                match cache.read_staged(key, now) {
                    Ok((data, _)) => {
                        let expect = window
                            .iter()
                            .rev()
                            .find(|(k, _)| *k == key)
                            .map(|(_, b)| *b)
                            .or_else(|| trace.base.shadow.get(&key).copied())
                            .unwrap_or(block(0));
                        assert_eq!(data, expect, "pre-crash read of key {key} is stale");
                    }
                    Err(e) => assert!(handle.crashed(), "read failed without a power cut: {e}"),
                }
            } else if let Err(e) = cache.flush() {
                assert!(handle.crashed(), "flush failed without a power cut: {e}");
            }
            if handle.crashed() {
                break;
            }
        }
        let committed = !handle.crashed() && cache.commit().is_ok();
        if committed {
            trace.base.shadow.extend(window);
        } else {
            assert!(handle.crashed(), "commit failed without a power cut");
            trace.base.crashed = true;
            for (key, data) in window {
                trace.cut_window.entry(key).or_default().push(data);
            }
        }
    }
    trace
}

/// One grouped crash schedule: as `run_schedule`, at group granularity.
fn run_schedule_grouped(schedule: u64, crash_at: u64, policy: WritePolicy, torn: bool, rot: u32) {
    let mut plan = CrashPlan::no_crash(schedule).crash_at_step(crash_at);
    if torn {
        plan = plan.with_torn_tail();
    }
    if rot > 0 {
        plan = plan.with_bit_rot(rot);
    }
    let mut rig = build_rig(plan, policy);
    let workload_seed = 1 + schedule / 97;
    let (trace, backing) = match rig.cache.take() {
        Some(mut cache) => {
            let trace = run_workload_grouped(&mut cache, &rig.handle, workload_seed);
            let backing = clone_backing(&cache);
            (trace, backing)
        }
        None => (
            GroupedTrace {
                base: empty_trace(true),
                cut_window: HashMap::new(),
            },
            MemBacking::new(),
        ),
    };
    let (mut cache, report) = match reboot(&rig.images, backing, policy) {
        Ok(ok) => ok,
        Err(e) => {
            assert!(rot > 0, "schedule {schedule}: clean cut unrecoverable: {e}");
            return;
        }
    };
    if rot == 0 {
        // Whatever the cut left of the group in flight — none, some or
        // all of its frames, a torn prefix of its journal records — no
        // acknowledged frame may be missing or overwritten.
        assert_eq!(
            report.quarantined, 0,
            "schedule {schedule}: acked frame quarantined without bit rot"
        );
        assert_eq!(
            report.lost_dirty, 0,
            "schedule {schedule}: acked dirty frame lost without bit rot"
        );
        // Every key reads as its last acknowledged value, or — cut
        // window only — as a value that window attempted.
        for key in 0..KEY_SPACE {
            let (data, _) = cache.read(key, Micros::from_secs(2_000 + key)).unwrap();
            let acked = trace.base.shadow.get(&key).copied().unwrap_or(block(0));
            let attempted = trace.cut_window.get(&key);
            assert!(
                data == acked || attempted.is_some_and(|a| a.contains(&data)),
                "schedule {schedule}: key {key} reads {:#x}, acked {:#x}, cut window {:?} \
                 (policy {policy:?})",
                data[0],
                acked[0],
                attempted.map(|a| a.iter().map(|b| b[0]).collect::<Vec<_>>()),
            );
        }
    }
    assert_no_garbage(&mut cache, &trace.base);
}

/// Media mutation steps of an uncut grouped run.
fn grouped_steps_for(policy: WritePolicy, workload_seed: u64) -> u64 {
    let mut rig = build_rig(CrashPlan::no_crash(0), policy);
    let mut cache = rig.cache.take().expect("no cut in the dry run");
    let trace = run_workload_grouped(&mut cache, &rig.handle, workload_seed);
    assert!(!trace.base.crashed);
    rig.handle.steps()
}

#[test]
fn power_cut_schedules_preserve_all_invariants_grouped_write_back() {
    for sweep in 0..schedule_count() {
        let total = grouped_steps_for(WritePolicy::WriteBack, 1 + sweep / 97);
        run_schedule_grouped(
            sweep,
            sweep % total,
            WritePolicy::WriteBack,
            sweep.is_multiple_of(2),
            if sweep % 11 == 7 { 2 } else { 0 },
        );
    }
}

#[test]
fn power_cut_schedules_preserve_all_invariants_grouped_write_through() {
    for sweep in 0..schedule_count() / 5 {
        // `run_schedule_grouped` derives the workload from the schedule
        // number the same way, so the step bound matches the run.
        let schedule = 10_000 + sweep;
        let total = grouped_steps_for(WritePolicy::WriteThrough, 1 + schedule / 97);
        run_schedule_grouped(
            schedule,
            sweep % total,
            WritePolicy::WriteThrough,
            sweep % 2 == 1,
            if sweep % 13 == 5 { 1 } else { 0 },
        );
    }
}

/// A store on crash-point media formatted fresh, and the images a cut
/// leaves behind.
fn open_crash_store(
    plan: CrashPlan,
) -> (
    DurableStore,
    CrashHandle,
    (MediaImage, MediaImage, MediaImage),
) {
    let formatted = fresh_formatted_bytes();
    let handle = CrashHandle::new(plan);
    let frames = CrashPointMedia::with_initial(formatted.0, handle.clone());
    let journal_a = CrashPointMedia::with_initial(formatted.1, handle.clone());
    let journal_b = CrashPointMedia::with_initial(formatted.2, handle.clone());
    let images = (frames.image(), journal_a.image(), journal_b.image());
    let store = DurableStore::open(
        DurableMediaSet {
            frames: Box::new(frames),
            journal_a: Box::new(journal_a),
            journal_b: Box::new(journal_b),
        },
        CAPACITY,
    )
    .expect("formatted media opens")
    .store;
    (store, handle, images)
}

/// Reopens a store from what a cut left: every key it recovered, with
/// its fill byte.
fn recovered_after_cut(images: &(MediaImage, MediaImage, MediaImage)) -> Vec<(u64, u8)> {
    let recovery = DurableStore::open(
        DurableMediaSet {
            frames: Box::new(MemMedia::from_bytes(images.0.bytes())),
            journal_a: Box::new(MemMedia::from_bytes(images.1.bytes())),
            journal_b: Box::new(MemMedia::from_bytes(images.2.bytes())),
        },
        CAPACITY,
    )
    .expect("a cut is recoverable");
    assert_eq!(recovery.report.quarantined, 0);
    assert_eq!(recovery.report.lost_dirty, 0);
    let mut keys: Vec<(u64, u8)> = recovery
        .frames
        .iter()
        .map(|frame| {
            assert!(frame.data.iter().all(|&b| b == frame.data[0]), "garbage");
            (frame.key, frame.data[0])
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// A group's journal records go to the media in one write. Tear that
/// write at every byte the harness will pick: recovery must keep a
/// *prefix* of the group's records — never a later record without the
/// earlier ones.
#[test]
fn a_torn_group_append_recovers_a_record_prefix() {
    const GROUP: u64 = 6;
    let run = |plan: CrashPlan| {
        let (mut store, handle, images) = open_crash_store(plan);
        for key in 0..GROUP {
            store.put(key, &block(0x50 + key as u8), true).unwrap();
        }
        let before = handle.steps();
        for key in 0..GROUP {
            store.stage_evict(key);
        }
        assert_eq!(handle.steps(), before, "staging touches no device");
        let committed = store.commit();
        std::mem::forget(store);
        (committed, handle, images, before)
    };
    // Dry run: a records-only commit is the journal append and its sync.
    let (committed, handle, _, before) = run(CrashPlan::no_crash(0));
    committed.expect("no cut in the dry run");
    assert_eq!(handle.steps(), before + 2);

    let mut prefix_lengths = std::collections::BTreeSet::new();
    for seed in 0..64u64 {
        let plan = CrashPlan::no_crash(seed)
            .crash_at_step(before)
            .with_torn_tail();
        let (committed, handle, images, _) = run(plan);
        assert!(committed.is_err(), "the append is where the cut lands");
        assert!(handle.crashed());
        // The keys evicted are a prefix of the group: the survivors are
        // the rest of it, unchanged.
        let survivors = recovered_after_cut(&images);
        let evicted = GROUP - survivors.len() as u64;
        let expect: Vec<(u64, u8)> = (evicted..GROUP).map(|k| (k, 0x50 + k as u8)).collect();
        assert_eq!(survivors, expect, "seed {seed}: the evictions are a prefix");
        prefix_lengths.insert(evicted);
    }
    assert!(
        prefix_lengths.len() > 2,
        "the tear points sampled several prefix lengths: {prefix_lengths:?}"
    );
}

/// A put-only group is one frame write per run of adjacent slots and one
/// sync, with no journal record to order it. Cut power at each of those
/// steps — tearing the write in flight, keeping each earlier unsynced
/// write or not by a seeded coin — and recovery must keep all of the
/// group or none of it, whatever subset of its frames reached the media.
#[test]
fn a_torn_put_only_group_recovers_all_or_none_of_it() {
    const KEYS: u64 = 8;
    let before: Vec<(u64, u8)> = (0..KEYS)
        .map(|k| (k, if k % 2 == 0 { 0x60 } else { 0x40 } + k as u8))
        .collect();
    let after: Vec<(u64, u8)> = (0..KEYS)
        .map(|k| (k, if k % 2 == 0 { 0x60 } else { 0x80 } + k as u8))
        .collect();
    let run = |plan: CrashPlan| {
        let (mut store, handle, images) = open_crash_store(plan);
        for key in 0..KEYS {
            store
                .stage_put(key, &block(0x40 + key as u8), true)
                .unwrap();
        }
        store.commit().unwrap();
        // Rewriting the even keys frees their slots; the odd keys'
        // rewrite then lands in them, which are not adjacent.
        for key in (0..KEYS).step_by(2) {
            store
                .stage_put(key, &block(0x60 + key as u8), true)
                .unwrap();
        }
        store.commit().unwrap();
        let start = handle.steps();
        for key in (1..KEYS).step_by(2) {
            store
                .stage_put(key, &block(0x80 + key as u8), true)
                .unwrap();
        }
        let committed = store.commit();
        std::mem::forget(store);
        (committed, handle, images, start)
    };
    let (committed, handle, dry, start) = run(CrashPlan::no_crash(0));
    committed.expect("no cut in the dry run");
    let steps = handle.steps() - start;
    assert_eq!(
        steps,
        KEYS / 2 + 1,
        "one write per frame, one sync, no journal"
    );
    // Where the group's frames sit, and their bytes once landed.
    const FILE_HEADER_LEN: usize = 24;
    const FRAME_RECORD_LEN: usize = 544;
    let dry = dry.0.bytes();
    let group: Vec<(usize, Vec<u8>)> = (0..(dry.len() - FILE_HEADER_LEN) / FRAME_RECORD_LEN)
        .map(|slot| FILE_HEADER_LEN + slot * FRAME_RECORD_LEN)
        .map(|at| (at, dry[at..at + FRAME_RECORD_LEN].to_vec()))
        .filter(|(_, frame)| frame[32] >= 0x80)
        .collect();
    assert_eq!(group.len() as u64, KEYS / 2);

    let mut landed = std::collections::BTreeSet::new();
    for seed in 0..96u64 {
        let plan = CrashPlan::no_crash(seed)
            .crash_at_step(start + seed % steps)
            .with_torn_tail();
        let (committed, _, images, _) = run(plan);
        assert!(
            committed.is_err(),
            "seed {seed}: the cut lands in the group"
        );
        let media = images.0.bytes();
        let whole = group
            .iter()
            .filter(|(at, frame)| media[*at..*at + FRAME_RECORD_LEN] == frame[..])
            .count();
        let survivors = recovered_after_cut(&images);
        let expect = if whole == group.len() {
            &after
        } else {
            &before
        };
        assert_eq!(
            &survivors, expect,
            "seed {seed}: {whole} of the group's frames landed"
        );
        landed.insert(whole);
    }
    assert!(
        landed.iter().any(|&whole| whole > 0 && whole < group.len()),
        "the cuts left part of the group on the media: {landed:?}"
    );
}

// ---------------------------------------------------------------------------
// Pipelined commits: two groups in flight on a live server, group N+1's
// frames written and synced while group N's journal sync is still
// running (DESIGN §5e, "Group commit").
// ---------------------------------------------------------------------------

mod pipelined {
    use std::collections::BTreeMap;
    use std::io::Write as _;
    use std::net::TcpStream;
    use std::sync::{Condvar, Mutex};
    use std::time::Instant;

    use sievestore_node::{Media, NodeServer, PipedReply, PipedRequest, Reply, Request};

    use super::*;

    /// What the media wrappers have seen since the test armed them, and
    /// what the test has told them.
    #[derive(Default)]
    struct Stage {
        armed: bool,
        /// Group N's journal sync has arrived and waits for `released`.
        parked: bool,
        released: bool,
        /// The parked sync fails (once) instead of reaching the device:
        /// a stage-2 failure of N with N+1 already sealed.
        fail_parked: bool,
        /// Frame-device writes and syncs since arming.
        frame_ops: u32,
        frame_syncs: u32,
    }

    struct Ctl {
        stage: Mutex<Stage>,
        changed: Condvar,
        handle: CrashHandle,
    }

    impl Ctl {
        fn update(&self, f: impl FnOnce(&mut Stage)) {
            f(&mut self.stage.lock().unwrap());
            self.changed.notify_all();
        }

        /// Blocks until `ready` holds or the power is cut.
        fn wait(&self, ready: impl Fn(&Stage) -> bool) {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut stage = self.stage.lock().unwrap();
            while !ready(&stage) && !self.handle.crashed() {
                assert!(Instant::now() < deadline, "the commit pipeline stalled");
                stage = self
                    .changed
                    .wait_timeout(stage, Duration::from_millis(1))
                    .unwrap()
                    .0;
            }
        }
    }

    /// Crash-point media that reports to, and parks for, the test.
    struct Watched {
        inner: CrashPointMedia,
        journal: bool,
        ctl: Arc<Ctl>,
    }

    impl Media for Watched {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.inner.read_at(offset, buf)
        }
        fn write_at(&mut self, offset: u64, data: &[u8]) -> std::io::Result<()> {
            if !self.journal {
                self.ctl.update(|s| s.frame_ops += u32::from(s.armed));
            }
            self.inner.write_at(offset, data)
        }
        fn sync(&mut self) -> std::io::Result<()> {
            if !self.journal {
                let synced = self.inner.sync();
                self.ctl.update(|s| {
                    s.frame_ops += u32::from(s.armed);
                    s.frame_syncs += u32::from(s.armed);
                });
                return synced;
            }
            let mut park = false;
            self.ctl.update(|s| {
                park = s.armed && !s.parked;
                s.parked |= park;
            });
            if park {
                self.ctl.wait(|s| s.released);
                if self.ctl.stage.lock().unwrap().fail_parked {
                    return Err(std::io::Error::other("injected journal sync failure"));
                }
            }
            self.inner.sync()
        }
        fn len(&self) -> std::io::Result<u64> {
            self.inner.len()
        }
        fn truncate(&mut self, len: u64) -> std::io::Result<()> {
            self.inner.truncate(len)
        }
    }

    /// The three windows, in the order they are staged: A and B overlap
    /// on keys 2 and 3, so the order groups land in decides what they
    /// read as. A ends with a `Flush`, whose clean records give its group
    /// a journal append to park in; B and C are put-only.
    const WINDOWS: [&[(u64, u8)]; 3] = [
        &[(0, 0xA0), (1, 0xA1), (2, 0xA2), (3, 0xA3)],
        &[(2, 0xB2), (3, 0xB3), (4, 0xB4), (5, 0xB5), (6, 0xB6)],
        &[(7, 0xC7)],
    ];

    /// Whether window `i` ends with a `Flush`.
    fn flushes(i: usize) -> bool {
        i == 0
    }

    fn send_window(stream: &mut TcpStream, i: usize) {
        let writes = WINDOWS[i];
        let mut frames = Vec::new();
        for &(key, fill) in writes {
            PipedRequest {
                corr: key as u32,
                request: Request::Write {
                    key,
                    data: Box::new(block(fill)),
                },
            }
            .encode_into(&mut frames);
        }
        if flushes(i) {
            PipedRequest {
                corr: u32::MAX,
                request: Request::Flush,
            }
            .encode_into(&mut frames);
        }
        stream.write_all(&frames).expect("send window");
    }

    /// Whether every write of window `i` was acknowledged.
    fn acked(stream: &mut TcpStream, i: usize) -> bool {
        let writes = WINDOWS[i];
        let replies: Vec<Reply> = (0..writes.len() + usize::from(flushes(i)))
            .map(|_| {
                PipedReply::decode(stream)
                    .expect("a reply per request")
                    .reply
            })
            .collect();
        let acks = replies
            .iter()
            .filter(|r| matches!(r, Reply::Write { .. }))
            .count();
        assert!(
            acks == 0 || acks == writes.len(),
            "a window is acknowledged as one: {replies:?}"
        );
        acks > 0
    }

    struct PipelinedRun {
        /// Which of the windows were acknowledged.
        acked: Vec<bool>,
        images: (MediaImage, MediaImage, MediaImage),
        /// Media steps taken by opening the store / by the whole run.
        open_steps: u64,
        steps: u64,
        /// Frame-device operations seen while a third window waited
        /// behind B, itself parked at the journal (`probe` runs only).
        overtaking_ops: u32,
    }

    /// Window A is served and its land parked inside its journal sync;
    /// window B is served, sealed, and its frames written and synced
    /// meanwhile; then A's sync is let go (or failed, `fail_stage2`).
    /// With `probe`, a third window arrives while both are in flight.
    fn run(plan: CrashPlan, fail_stage2: bool, probe: bool) -> PipelinedRun {
        let formatted = fresh_formatted_bytes();
        let handle = CrashHandle::new(plan);
        let ctl = Arc::new(Ctl {
            stage: Mutex::new(Stage {
                fail_parked: fail_stage2,
                ..Stage::default()
            }),
            changed: Condvar::new(),
            handle: handle.clone(),
        });
        let mut images = Vec::new();
        let mut watch = |bytes: Vec<u8>, journal: bool| -> Box<dyn Media> {
            let inner = CrashPointMedia::with_initial(bytes, handle.clone());
            images.push(inner.image());
            Box::new(Watched {
                inner,
                journal,
                ctl: Arc::clone(&ctl),
            })
        };
        let media = DurableMediaSet {
            frames: watch(formatted.0, false),
            journal_a: watch(formatted.1, true),
            journal_b: watch(formatted.2, true),
        };
        let images = (images[0].clone(), images[1].clone(), images[2].clone());
        let (server, _): (NodeServer<MemBacking>, _) = NodeServerBuilder::new("127.0.0.1:0")
            .config(NodeConfig {
                request_deadline: Duration::from_secs(30),
                breaker_threshold: 100,
                ..NodeConfig::default()
            })
            .serve_durable(
                MemBacking::new(),
                PolicySpec::Aod,
                CAPACITY,
                WritePolicy::WriteBack,
                media,
            )
            .expect("bind");
        let open_steps = handle.steps();
        let mut conns: Vec<TcpStream> = WINDOWS
            .iter()
            .map(|_| {
                let stream = TcpStream::connect(server.addr()).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                stream
            })
            .collect();

        ctl.update(|s| s.armed = true);
        send_window(&mut conns[0], 0);
        ctl.wait(|s| s.parked);
        send_window(&mut conns[1], 1);
        ctl.wait(|s| s.frame_syncs >= 2);
        let mut overtaking_ops = 0;
        if probe {
            // B has nothing left to do on the frame device and must
            // hold it until A lets go of the journal: a third group
            // cannot reach the device — or the journal before B.
            let quiet = ctl.stage.lock().unwrap().frame_ops;
            send_window(&mut conns[2], 2);
            std::thread::sleep(Duration::from_millis(50));
            overtaking_ops = ctl.stage.lock().unwrap().frame_ops - quiet;
        }
        ctl.update(|s| s.released = true);
        let windows = if probe { 3 } else { 2 };
        let acked = (0..windows).map(|i| acked(&mut conns[i], i)).collect();
        let steps = handle.steps();
        drop(conns);
        server.shutdown();
        PipelinedRun {
            acked,
            images,
            open_steps,
            steps,
            overtaking_ops,
        }
    }

    /// Reboots from what survived and checks it against the windows:
    /// nothing quarantined or lost, the surviving state is the fold of a
    /// *prefix* of the staged records in sequence order, and that prefix
    /// covers every acknowledged window.
    fn check(tag: &str, run: &PipelinedRun) {
        let recovery = DurableStore::open(
            DurableMediaSet {
                frames: Box::new(MemMedia::from_bytes(run.images.0.bytes())),
                journal_a: Box::new(MemMedia::from_bytes(run.images.1.bytes())),
                journal_b: Box::new(MemMedia::from_bytes(run.images.2.bytes())),
            },
            CAPACITY,
        )
        .unwrap_or_else(|e| panic!("{tag}: a clean cut is recoverable: {e}"));
        assert_eq!(recovery.report.quarantined, 0, "{tag}");
        assert_eq!(recovery.report.lost_dirty, 0, "{tag}");
        let survived: BTreeMap<u64, u8> = recovery
            .frames
            .iter()
            .map(|frame| {
                assert!(
                    frame.data.iter().all(|&b| b == frame.data[0]),
                    "{tag}: key {} serves garbage",
                    frame.key
                );
                (frame.key, frame.data[0])
            })
            .collect();
        let staged: Vec<(u64, u8)> = WINDOWS[..run.acked.len()]
            .iter()
            .flat_map(|w| w.iter().copied())
            .collect();
        // The shortest prefix that covers every acknowledged window.
        let mut must_cover = 0;
        let mut end = 0;
        for (window, &acked) in WINDOWS.iter().zip(&run.acked) {
            end += window.len();
            if acked {
                must_cover = end;
            }
        }
        let matches = (must_cover..=staged.len()).any(|prefix| {
            let state: BTreeMap<u64, u8> = staged[..prefix].iter().copied().collect();
            state == survived
        });
        assert!(
            matches,
            "{tag}: survivors {survived:x?} are no record prefix of {staged:x?} \
             covering the first {must_cover} (acked {:?})",
            run.acked
        );
    }

    #[test]
    fn power_cut_schedules_preserve_all_invariants_with_two_groups_in_flight() {
        // Dry runs: both scenarios uncut — every window of the plain one
        // acknowledged; the failed stage 2 fails A's window only, and
        // B's land carries A's records to the journal ahead of its own.
        let plain = run(CrashPlan::no_crash(0), false, false);
        assert_eq!(plain.acked, [true, true]);
        check("uncut", &plain);
        let failed = run(CrashPlan::no_crash(0), true, false);
        assert_eq!(failed.acked, [false, true]);
        check("uncut, stage 2 of A failed", &failed);

        for sweep in 0..schedule_count() {
            let fail_stage2 = sweep % 2 == 1;
            let dry = if fail_stage2 { &failed } else { &plain };
            let span = dry.steps - dry.open_steps;
            let step = dry.open_steps + (sweep / 2) % span;
            let torn = (sweep / 2 / span).is_multiple_of(2);
            let mut plan = CrashPlan::no_crash(sweep).crash_at_step(step);
            if torn {
                plan = plan.with_torn_tail();
            }
            let cut = run(plan, fail_stage2, false);
            check(
                &format!(
                    "schedule {sweep} (step {step}, torn {torn}, failed stage 2 {fail_stage2})"
                ),
                &cut,
            );
        }
    }

    #[test]
    fn a_group_keeps_the_frame_device_until_it_holds_the_journal() {
        let probed = run(CrashPlan::no_crash(0), false, true);
        assert_eq!(
            probed.overtaking_ops, 0,
            "a third group reached the frame device while its predecessor \
             still waited for the journal: the journal's order is no longer \
             the order the groups were sealed in"
        );
        assert_eq!(probed.acked, [true, true, true]);
        check("three windows", &probed);
    }
}

#[test]
fn clean_restart_recovers_the_full_resident_set_warm() {
    // Acceptance: after an orderly run (no crash), restart recovers a
    // warm cache whose resident-frame count equals the pre-shutdown
    // count, and every frame serves the right payload as a hit.
    let mut rig = build_rig(CrashPlan::no_crash(42), WritePolicy::WriteBack);
    let mut cache = rig.cache.take().expect("no cut");
    let trace = run_workload(&mut cache, &rig.handle, 3);
    assert!(!trace.crashed);
    let resident_before = cache.resident_blocks();
    assert!(resident_before > 0);
    let backing = clone_backing(&cache);
    drop(cache);

    let (mut cache, report) = reboot(&rig.images, backing, WritePolicy::WriteBack).unwrap();
    assert_eq!(report.recovered as usize, resident_before);
    assert_eq!(cache.resident_blocks(), resident_before);
    assert_eq!(report.quarantined, 0);
    assert_eq!(report.lost_dirty, 0);
    for (&key, &expect) in &trace.shadow {
        let (data, outcome) = cache.read(key, Micros::from_secs(5_000 + key)).unwrap();
        assert_eq!(data, expect);
        // Keys that were resident before shutdown are warm hits now.
        if report.recovered > 0 && outcome.hit {
            assert_eq!(data, expect);
        }
    }
}

#[test]
fn targeted_bit_rot_is_quarantined_never_served() {
    // Rot every frame's payload on the "disk", reboot, and make sure
    // recovery never serves one and the read falls back to backing.
    let mut rig = build_rig(CrashPlan::no_crash(7), WritePolicy::WriteThrough);
    let mut live = rig.cache.take().expect("no cut");
    for key in 0..4u64 {
        live.write(key, &block(key as u8 + 0x10), Micros::from_secs(key))
            .unwrap();
    }
    assert_eq!(live.resident_blocks(), 4);
    let backing = clone_backing(&live);
    drop(live);

    // Flip one bit in every possible frame-slot payload region so at
    // least one occupied slot rots (slot assignment is an internal
    // detail).
    const FILE_HEADER_LEN: usize = 24;
    const FRAME_RECORD_LEN: usize = 544;
    let seg_len = rig.images.0.bytes().len();
    let mut offset = FILE_HEADER_LEN + 100;
    let mut rotted = 0;
    while offset < seg_len {
        rig.images.0.flip_bit(offset, 3);
        offset += FRAME_RECORD_LEN;
        rotted += 1;
    }

    let (mut cache, report) = reboot(&rig.images, backing, WritePolicy::WriteThrough).unwrap();
    // A frame names its own key, so a rotted one is an unreadable slot
    // no key claims: torn, not quarantined, and nothing recovers.
    assert_eq!(report.torn_slots, rotted, "all slots rotted");
    assert_eq!(report.recovered, 0);
    assert_eq!(report.lost_dirty, 0, "write-through: backing has a copy");
    // Every key still reads correctly — re-fetched from backing, the
    // rotted payloads are never served.
    for key in 0..4u64 {
        let (data, _) = cache.read(key, Micros::from_secs(100 + key)).unwrap();
        assert_eq!(data, block(key as u8 + 0x10));
    }
}

/// Flips one payload bit in every frame slot whose payload is all
/// `fill`, and returns how many it rotted.
fn rot_frames_holding(images: &(MediaImage, MediaImage, MediaImage), fill: u8) -> usize {
    const FILE_HEADER_LEN: usize = 24;
    const FRAME_HEADER_LEN: usize = 32;
    const FRAME_RECORD_LEN: usize = 544;
    let bytes = images.0.bytes();
    let mut rotted = 0;
    for start in (FILE_HEADER_LEN..bytes.len()).step_by(FRAME_RECORD_LEN) {
        let payload = start + FRAME_HEADER_LEN..start + FRAME_RECORD_LEN;
        if bytes.get(payload.clone()) == Some(&block(fill)[..]) {
            images.0.flip_bit(payload.start + 100, 3);
            rotted += 1;
        }
    }
    rotted
}

#[test]
fn a_rotted_rewrite_never_falls_back_to_a_stale_clean_frame() {
    // Each key written twice, flushed, a clean shutdown, then rot in
    // every newest frame: the older frames are still valid on the media,
    // but the backing store holds the newer data, so none may be served.
    for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
        let mut rig = build_rig(CrashPlan::no_crash(11), policy);
        let mut live = rig.cache.take().expect("no cut");
        for (i, fill) in [0x10u8, 0x20].into_iter().enumerate() {
            for key in 0..4u64 {
                let now = Micros::from_secs(10 * i as u64 + key);
                live.write(key, &block(fill + key as u8), now).unwrap();
            }
        }
        live.flush().unwrap();
        live.shutdown_durable().unwrap();
        let backing = clone_backing(&live);
        drop(live);
        for key in 0..4u8 {
            assert_eq!(rot_frames_holding(&rig.images, 0x20 + key), 1, "{policy:?}");
        }

        let (mut cache, report) = reboot(&rig.images, backing, policy).unwrap();
        assert!(report.clean_shutdown, "{policy:?}");
        assert_eq!(report.torn_slots, 4, "{policy:?}");
        assert_eq!((report.recovered, report.lost_dirty), (0, 0), "{policy:?}");
        for key in 0..4u64 {
            let (data, _) = cache.read(key, Micros::from_secs(100 + key)).unwrap();
            assert_eq!(data, block(0x20 + key as u8), "{policy:?}");
        }
    }
}

#[test]
fn a_rotted_clean_rewrite_never_resurrects_the_dirty_frame_under_it() {
    // A dirty frame, then the degraded path's clean rewrite of the same
    // key (the backing store takes it first). Should the clean frame
    // rot, recovery must not bring the dirty one back and flush it over
    // the backing store's newer copy.
    let mut rig = build_rig(CrashPlan::no_crash(13), WritePolicy::WriteBack);
    let mut live = rig.cache.take().expect("no cut");
    live.write(1, &block(0x31), Micros::from_secs(1)).unwrap();
    assert_eq!(live.dirty_blocks(), 1);
    live.write_bypass(1, &block(0x32)).unwrap();
    assert_eq!(live.dirty_blocks(), 0);
    let backing = clone_backing(&live);
    drop(live);
    assert_eq!(rot_frames_holding(&rig.images, 0x32), 1);

    let (mut cache, report) = reboot(&rig.images, backing, WritePolicy::WriteBack).unwrap();
    assert_eq!((report.recovered, report.lost_dirty), (0, 0));
    cache.flush().unwrap();
    assert_eq!(cache.backing().read_block(1).unwrap(), block(0x32));
    let (data, _) = cache.read(1, Micros::from_secs(100)).unwrap();
    assert_eq!(data, block(0x32));
}

// ---------------------------------------------------------------------------
// Server-level integration: shutdown flush under faults, degraded start,
// background scrub.
// ---------------------------------------------------------------------------

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sievestore-{tag}-{}", std::process::id()))
}

#[test]
fn shutdown_flush_failures_are_reported_and_recovered_from_journal() {
    // Satellite: a write-back node whose backing store fails every
    // shutdown flush round must (a) report each failed round as a
    // structured event rather than swallowing it, and (b) leave the
    // dirty frames journaled so the next open restores them.
    let dir = temp_dir("flushfail");
    std::fs::remove_dir_all(&dir).ok();
    let backing = FaultInjectingBacking::new(MemBacking::new(), FaultPlan::new(9));
    let faults = backing.handle();
    let sink = Arc::new(CapturingSink::new());
    let config = NodeConfig {
        shutdown_flush_retries: 2,
        ..NodeConfig::default()
    };
    let (server, report) = NodeServerBuilder::new("127.0.0.1:0")
        .config(config)
        .sink(sink.clone())
        .serve_durable(
            backing,
            PolicySpec::Aod,
            64,
            WritePolicy::WriteBack,
            DurableMediaSet::open_dir(&dir).unwrap(),
        )
        .unwrap();
    assert_eq!(report.expect("fresh media opens").recovered, 0);

    let mut client = NodeClient::connect(server.addr()).unwrap();
    for key in 0..6u64 {
        client.write_block(key, &block(0x40 + key as u8)).unwrap();
    }
    client.quit().unwrap();

    // Every backing write now fails: all flush rounds come up short.
    faults.set_plan(FaultPlan::new(9).with_write_error_prob(1.0));
    server.shutdown();

    let failed = sink.named("node.flush.failed");
    assert_eq!(
        failed.len(),
        3,
        "one event per failed round (1 + shutdown_flush_retries)"
    );
    for event in &failed {
        let context = event
            .fields
            .iter()
            .find(|(k, _)| *k == "context")
            .expect("context field");
        assert!(matches!(context.1, FieldValue::Str("shutdown")));
        let still_dirty = event
            .fields
            .iter()
            .find(|(k, _)| *k == "still_dirty")
            .expect("still_dirty field");
        assert!(matches!(still_dirty.1, FieldValue::U64(6)));
    }

    // Reopen from the journal: the dirty frames' only copy survives.
    let (cache, report) = DataCache::new_durable(
        MemBacking::new(),
        PolicySpec::Aod,
        64,
        DurableMediaSet::open_dir(&dir).unwrap(),
    )
    .unwrap();
    let mut cache_wb = cache.with_write_policy(WritePolicy::WriteBack);
    assert_eq!(report.recovered, 6, "all dirty frames restored");
    assert_eq!(report.lost_dirty, 0);
    for key in 0..6u64 {
        let (data, _) = cache_wb.read(key, Micros::from_secs(key)).unwrap();
        assert_eq!(data, block(0x40 + key as u8), "dirty payload survives");
    }
    // With the backing healed, the recovered frames flush through.
    assert_eq!(cache_wb.flush().unwrap(), 6);
    for key in 0..6u64 {
        assert_eq!(
            cache_wb.backing().read_block(key).unwrap(),
            block(0x40 + key as u8)
        );
    }
    drop(cache_wb);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unrecoverable_media_starts_degraded_and_still_serves() {
    // Garbage on the durable media must not take the node down: it
    // starts in degraded pass-through with the breaker open, emits a
    // recovery-failed event, and serves reads/writes from backing.
    let media = DurableMediaSet {
        frames: Box::new(MemMedia::from_bytes(vec![0xAB; 4096])),
        journal_a: Box::new(MemMedia::new()),
        journal_b: Box::new(MemMedia::new()),
    };
    let sink = Arc::new(CapturingSink::new());
    let (server, report) = NodeServerBuilder::new("127.0.0.1:0")
        .sink(sink.clone())
        .serve_durable(
            MemBacking::new(),
            PolicySpec::Aod,
            16,
            WritePolicy::WriteThrough,
            media,
        )
        .unwrap();
    assert!(report.is_none(), "no recovery happened");
    assert_eq!(server.mode(), NodeMode::Degraded);
    assert_eq!(sink.named("node.recovery.failed").len(), 1);
    assert!(sink.named("node.recovery.complete").is_empty());

    let mut client = NodeClient::connect(server.addr()).unwrap();
    client.write_block(3, &block(0x33)).unwrap();
    let (data, _) = client.read_block(3).unwrap();
    assert_eq!(data, block(0x33), "degraded node still serves from backing");
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn recovery_on_start_emits_completion_event() {
    let dir = temp_dir("recoverevt");
    std::fs::remove_dir_all(&dir).ok();
    {
        let (server, _) = NodeServerBuilder::new("127.0.0.1:0")
            .sink(Arc::new(CapturingSink::new()))
            .serve_durable(
                MemBacking::new(),
                PolicySpec::Aod,
                16,
                WritePolicy::WriteThrough,
                DurableMediaSet::open_dir(&dir).unwrap(),
            )
            .unwrap();
        let mut client = NodeClient::connect(server.addr()).unwrap();
        for key in 0..5u64 {
            client.write_block(key, &block(key as u8 + 1)).unwrap();
        }
        client.quit().unwrap();
        server.shutdown();
    }
    let sink = Arc::new(CapturingSink::new());
    let (server, report) = NodeServerBuilder::new("127.0.0.1:0")
        .sink(sink.clone())
        .serve_durable(
            MemBacking::new(),
            PolicySpec::Aod,
            16,
            WritePolicy::WriteThrough,
            DurableMediaSet::open_dir(&dir).unwrap(),
        )
        .unwrap();
    let report = report.expect("media recovered");
    assert_eq!(report.recovered, 5, "orderly shutdown recovers warm");
    assert_eq!(server.mode(), NodeMode::Healthy);
    let events = sink.named("node.recovery.complete");
    assert_eq!(events.len(), 1);
    let recovered = events[0]
        .fields
        .iter()
        .find(|(k, _)| *k == "recovered")
        .expect("recovered field");
    assert!(matches!(recovered.1, FieldValue::U64(5)));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn background_scrub_quarantines_rot_and_reads_stay_correct() {
    let dir = temp_dir("scrub");
    std::fs::remove_dir_all(&dir).ok();
    let sink = Arc::new(CapturingSink::new());
    let config = NodeConfig {
        scrub_interval: Some(Duration::from_millis(5)),
        scrub_batch: 1024,
        ..NodeConfig::default()
    };
    let (server, _) = NodeServerBuilder::new("127.0.0.1:0")
        .config(config)
        .sink(sink.clone())
        .serve_durable(
            MemBacking::new(),
            PolicySpec::Aod,
            16,
            WritePolicy::WriteThrough,
            DurableMediaSet::open_dir(&dir).unwrap(),
        )
        .unwrap();
    let mut client = NodeClient::connect(server.addr()).unwrap();
    for key in 0..4u64 {
        client.write_block(key, &block(0x60 + key as u8)).unwrap();
    }

    // Rot every slot's payload region behind the server's back.
    const FILE_HEADER_LEN: u64 = 24;
    const FRAME_RECORD_LEN: u64 = 544;
    {
        use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join("frames.seg"))
            .unwrap();
        let len = file.metadata().unwrap().len();
        let mut offset = FILE_HEADER_LEN + 200;
        while offset < len {
            file.seek(SeekFrom::Start(offset)).unwrap();
            let mut byte = [0u8; 1];
            file.read_exact(&mut byte).unwrap();
            byte[0] ^= 0x10;
            file.seek(SeekFrom::Start(offset)).unwrap();
            file.write_all(&byte).unwrap();
            offset += FRAME_RECORD_LEN;
        }
        file.sync_all().unwrap();
    }

    // The scrubber must notice within a couple of seconds.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while sink.named("node.scrub.quarantined").is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "scrubber never quarantined the rotted slots"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Reads stay correct throughout: resident frames in memory are
    // authoritative and the rotted on-disk copies are never served.
    for key in 0..4u64 {
        let (data, _) = client.read_block(key).unwrap();
        assert_eq!(data, block(0x60 + key as u8));
    }
    client.quit().unwrap();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
