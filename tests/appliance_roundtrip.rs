//! Cross-crate integration: the appliance's discrete sieve must agree
//! with an independent count over the paper's offline log substrate, its
//! epoch counter must count alike in memory and under spill epoch after
//! epoch,
//! and the trace codec must round-trip generator output through the
//! filesystem.

use proptest::prelude::*;
use sievestore::{PolicySpec, SieveStoreBuilder};
use sievestore_cache::BatchCache;
use sievestore_extsort::{AccessLog, CountingConfig};
use sievestore_trace::{EnsembleConfig, SyntheticTrace, TraceReader, TraceWriter};
use sievestore_types::Day;

#[test]
fn appliance_batch_selection_matches_external_log_counts() {
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(55)).expect("valid ensemble");
    let threshold = 10u64;

    // Drive the appliance over day 0.
    let mut store = SieveStoreBuilder::new()
        .capacity_blocks(1 << 20)
        .policy(PolicySpec::SieveStoreD { threshold })
        .build()
        .expect("valid appliance");
    // Independently, log every access the way the paper's offline pass
    // does: hash-partitioned <address, 1> tuples with periodic reduction.
    let dir = std::env::temp_dir().join(format!("sievestore-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut log = AccessLog::create(&dir, 8).expect("temp dir");

    let mut i = 0usize;
    for req in trace.day_requests(Day::new(0)) {
        for block in req.blocks() {
            store.access(block.raw(), req.kind, req.timestamp);
            log.record(block.raw());
            i += 1;
            if i.is_multiple_of(100_000) {
                log.compact().expect("compaction");
            }
        }
    }

    let transition = store
        .day_boundary(Day::new(1))
        .expect("discrete policy installs");
    let mut from_appliance = transition.allocated.clone();
    from_appliance.sort_unstable();

    let counts = log.finish().expect("log finalize");
    let from_log = counts.keys_with_at_least(threshold);

    assert_eq!(
        from_appliance, from_log,
        "appliance selection must equal offline log reduction"
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// SieveStore-D's epoch counter in memory and over a spill log with
    /// a tiny budget, epoch after epoch, each install's kept keys
    /// seeded into both: the selections are equal, and every in-memory
    /// `touch` answers what a shadow epoch cache holds. Dropped, the
    /// spill counter leaves no `epoch-*` directory behind.
    #[test]
    fn in_memory_and_spill_sieves_agree_across_epochs(
        epochs in proptest::collection::vec(proptest::collection::vec(0u64..64, 0..800), 3..6),
        threshold in 1u64..=12,
        budget in 1usize..=64,
        capacity in 1usize..64,
    ) {
        let root = std::env::temp_dir().join(format!("sievestore-dspill-{}", std::process::id()));
        let spilled = CountingConfig::spill(&root).with_budget(budget);
        let mut memory = CountingConfig::InMemory.counter().unwrap();
        let mut spill = spilled.counter().unwrap();
        let mut shadow = BatchCache::new(capacity);
        for keys in &epochs {
            for &key in keys {
                prop_assert_eq!(memory.touch(key), Some(shadow.contains(key)));
                prop_assert_eq!(spill.touch(key), None);
            }
            let selected = memory.end_epoch(threshold).unwrap();
            prop_assert_eq!(spill.end_epoch(threshold).unwrap(), selected.clone());
            shadow.install_epoch(selected);
            for key in shadow.iter() {
                memory.seed_resident(key);
                spill.seed_resident(key);
            }
        }
        drop(spill);
        let left: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .filter(|name| name.to_string_lossy().starts_with("epoch-"))
            .collect();
        prop_assert!(left.is_empty(), "left {:?}", left);
        std::fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn trace_survives_filesystem_roundtrip() {
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(77)).expect("valid ensemble");
    let requests = trace.day_requests(Day::new(1));

    let dir = std::env::temp_dir().join(format!("sievestore-traceio-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("day1.sstr");

    let file = std::fs::File::create(&path).expect("create trace file");
    let mut writer = TraceWriter::with_count(file, requests.len() as u64).expect("header");
    for r in &requests {
        writer.write(r).expect("record write");
    }
    writer.finish().expect("flush");

    let file = std::fs::File::open(&path).expect("open trace file");
    let mut reader = TraceReader::new(file).expect("valid header");
    assert_eq!(reader.declared_count(), Some(requests.len() as u64));
    let reread: Vec<_> = (&mut reader).map(|r| r.expect("valid record")).collect();
    // Every field of every request comes back as written.
    assert_eq!(reread, requests);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn continuous_appliance_hits_grow_monotonically_with_capacity() {
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(88)).expect("valid ensemble");
    let requests = trace.day_requests(Day::new(1));
    let mut last_hits = 0u64;
    for capacity in [1 << 8, 1 << 12, 1 << 16] {
        let mut store = SieveStoreBuilder::new()
            .capacity_blocks(capacity)
            .policy(PolicySpec::Aod)
            .build()
            .expect("valid appliance");
        for req in &requests {
            for block in req.blocks() {
                store.access(block.raw(), req.kind, req.timestamp);
            }
        }
        let hits = store.stats().hits();
        assert!(
            hits >= last_hits,
            "capacity {capacity}: hits {hits} < smaller cache's {last_hits}"
        );
        last_hits = hits;
    }
    assert!(last_hits > 0);
}
