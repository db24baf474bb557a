//! Repro: a recovered dirty frame the policy did not re-admit gets
//! re-staged as a clean frame on a read-allocation, so a subsequent
//! unclean crash loses the acked write-back data.

use sievestore::PolicySpec;
use sievestore_node::durable::{DurableMediaSet, DurableStore, MemMedia};
use sievestore_node::{DataCache, MemBacking, WritePolicy};
use sievestore_types::Micros;

fn block(fill: u8) -> [u8; 512] {
    [fill; 512]
}

fn media_from(cache: &DataCache<MemBacking>) -> DurableMediaSet {
    let (f, a, b) = cache.durable().unwrap().clone_media_bytes().unwrap();
    DurableMediaSet {
        frames: Box::new(MemMedia::from_bytes(f)),
        journal_a: Box::new(MemMedia::from_bytes(a)),
        journal_b: Box::new(MemMedia::from_bytes(b)),
    }
}

#[test]
fn read_alloc_must_not_relabel_recovered_dirty_frame_as_clean() {
    // Incarnation 1: capacity 8, write-back, 6 dirty keys, crash (no
    // shutdown marker, no flush).
    let (c, _) = DataCache::new_durable(
        MemBacking::new(),
        PolicySpec::Aod,
        8,
        DurableMediaSet::in_memory(),
    )
    .unwrap();
    let mut c = c.with_write_policy(WritePolicy::WriteBack);
    for k in 0..6u64 {
        c.write(k, &block(k as u8 + 1), Micros::from_secs(k))
            .unwrap();
    }
    assert_eq!(c.dirty_blocks(), 6);

    // Incarnation 2: recover into a smaller cache (capacity 2) so the
    // policy cannot re-admit every dirty frame.
    let media = media_from(&c);
    let (c2, report) =
        DataCache::new_durable(MemBacking::new(), PolicySpec::Aod, 2, media).unwrap();
    let mut c2 = c2.with_write_policy(WritePolicy::WriteBack);
    assert_eq!(report.recovered, 6, "all dirty frames kept after crash");
    assert_eq!(c2.dirty_blocks(), 6);

    // Read a non-readmitted dirty key: served correctly from the dirty
    // frame...
    let (data, _) = c2.read(0, Micros::from_secs(100)).unwrap();
    assert_eq!(data, block(1));
    assert!(c2.dirty_blocks() >= 1, "key 0 still dirty in memory");

    // ...but crash again before any flush. The backing store has never
    // seen key 0's data, so recovery must keep it dirty.
    let media = media_from(&c2);
    let recovery = DurableStore::open(media, 2).unwrap();
    let k0 = recovery.frames.iter().find(|f| f.key == 0);
    match k0 {
        Some(f) => assert!(
            f.dirty,
            "key 0 recovered but relabeled clean: acked write-back data would be dropped"
        ),
        None => panic!(
            "key 0's acked write-back data lost after crash (dropped_clean={}, lost_dirty={})",
            recovery.report.dropped_clean, recovery.report.lost_dirty
        ),
    }
}
