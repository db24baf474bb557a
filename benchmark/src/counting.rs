//! Counting and timing wrappers at the two storage boundaries under the
//! node: the durable tier's [`Media`] and the cache's [`BackingStore`].
//! They are the only way to see, from outside the crate, how many
//! flushes, bytes and backing round trips a request cost.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use sievestore_node::{BackingStore, Block, DurableMediaSet, Media};

/// Totals of one wrapped device. Statistics only: `Relaxed` throughout.
#[derive(Debug, Default)]
pub struct MediaCounts {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub bytes_written: AtomicU64,
    pub syncs: AtomicU64,
    pub sync_ns: AtomicU64,
    pub busy_ns: AtomicU64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediaSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub bytes_written: u64,
    pub syncs: u64,
    pub sync_ns: u64,
    pub busy_ns: u64,
}

impl MediaCounts {
    pub fn snapshot(&self) -> MediaSnapshot {
        MediaSnapshot {
            reads: self.reads.load(Relaxed),
            writes: self.writes.load(Relaxed),
            bytes_written: self.bytes_written.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
            sync_ns: self.sync_ns.load(Relaxed),
            busy_ns: self.busy_ns.load(Relaxed),
        }
    }
}

impl MediaSnapshot {
    pub fn since(&self, earlier: &MediaSnapshot) -> MediaSnapshot {
        MediaSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            bytes_written: self.bytes_written - earlier.bytes_written,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

pub struct CountingMedia {
    inner: Box<dyn Media>,
    counts: Arc<MediaCounts>,
}

impl CountingMedia {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let started = Instant::now();
        let out = f();
        let ns = started.elapsed().as_nanos() as u64;
        self.counts.busy_ns.fetch_add(ns, Relaxed);
        (out, ns)
    }
}

impl Media for CountingMedia {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.counts.reads.fetch_add(1, Relaxed);
        self.timed(|| self.inner.read_at(offset, buf)).0
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.counts.writes.fetch_add(1, Relaxed);
        self.counts
            .bytes_written
            .fetch_add(data.len() as u64, Relaxed);
        let started = Instant::now();
        let out = self.inner.write_at(offset, data);
        self.counts
            .busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        out
    }

    fn sync(&mut self) -> io::Result<()> {
        self.counts.syncs.fetch_add(1, Relaxed);
        let started = Instant::now();
        let out = self.inner.sync();
        let ns = started.elapsed().as_nanos() as u64;
        self.counts.sync_ns.fetch_add(ns, Relaxed);
        self.counts.busy_ns.fetch_add(ns, Relaxed);
        out
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}

/// Wraps all three devices of a media set behind one set of totals.
pub fn counting_media(set: DurableMediaSet, counts: &Arc<MediaCounts>) -> DurableMediaSet {
    let wrap = |inner: Box<dyn Media>| -> Box<dyn Media> {
        Box::new(CountingMedia {
            inner,
            counts: Arc::clone(counts),
        })
    };
    DurableMediaSet {
        frames: wrap(set.frames),
        journal_a: wrap(set.journal_a),
        journal_b: wrap(set.journal_b),
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackingSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub busy_ns: u64,
}

impl BackingSnapshot {
    pub fn since(&self, earlier: &BackingSnapshot) -> BackingSnapshot {
        BackingSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// A backing store that counts and times every block it moves.
#[derive(Debug, Default)]
pub struct CountingBacking<B> {
    inner: B,
    reads: AtomicU64,
    writes: AtomicU64,
    busy_ns: AtomicU64,
}

impl<B: BackingStore> CountingBacking<B> {
    pub fn new(inner: B) -> Self {
        CountingBacking {
            inner,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    pub fn snapshot(&self) -> BackingSnapshot {
        BackingSnapshot {
            reads: self.reads.load(Relaxed),
            writes: self.writes.load(Relaxed),
            busy_ns: self.busy_ns.load(Relaxed),
        }
    }
}

impl<B: BackingStore> BackingStore for CountingBacking<B> {
    fn read_block(&self, key: u64) -> io::Result<Block> {
        self.reads.fetch_add(1, Relaxed);
        let started = Instant::now();
        let out = self.inner.read_block(key);
        self.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        out
    }

    fn write_block(&self, key: u64, data: &Block) -> io::Result<()> {
        self.writes.fetch_add(1, Relaxed);
        let started = Instant::now();
        let out = self.inner.write_block(key, data);
        self.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Traffic, WireConn};
    use sievestore::PolicySpec;
    use sievestore_node::{MemBacking, NodeServerBuilder, WritePolicy};
    use sievestore_sieve::TwoTierConfig;
    use std::time::Duration;

    /// One connection at a fixed seed through the durable server: what
    /// the wrappers count must repeat exactly.
    fn single_connection_run(dir: &std::path::Path) -> (MediaSnapshot, BackingSnapshot) {
        let _ = std::fs::remove_dir_all(dir);
        let backing = Arc::new(CountingBacking::new(MemBacking::new()));
        let media = Arc::new(MediaCounts::default());
        let policy = PolicySpec::SieveStoreC(
            TwoTierConfig::paper_default()
                .with_imct_entries(1 << 10)
                .with_thresholds(2, 1),
        );
        let (server, _) = NodeServerBuilder::new("127.0.0.1:0")
            .serve_durable(
                Arc::clone(&backing),
                policy,
                64,
                WritePolicy::WriteBack,
                counting_media(DurableMediaSet::open_dir(dir).unwrap(), &media),
            )
            .unwrap();
        let traffic = Traffic {
            keys: 512,
            zipf_s: 0.9,
            read_pct: 50,
        };
        // Exactly 2000 requests, one at a time: a fixed order, cut off by
        // count and not by the clock.
        let tape = traffic.tape(42, 0, 1, 2_000);
        let mut conn = WireConn::connect(server.addr(), 0, 1, Arc::clone(&tape)).unwrap();
        let keys: Vec<u64> = (0..512).collect();
        assert_eq!(conn.prefill(&keys, 1).unwrap(), 0);
        assert_eq!(conn.run_ops(&tape, 1).unwrap(), 0);
        drop(conn);
        while server.live_connections() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let counts = (media.snapshot(), backing.snapshot());
        server.shutdown();
        std::fs::remove_dir_all(dir).unwrap();
        counts
    }

    #[test]
    fn counts_repeat_exactly_for_a_single_connection_at_a_fixed_seed() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-counting-{}", std::process::id()));
        let (media_a, backing_a) = single_connection_run(&dir);
        let (media_b, backing_b) = single_connection_run(&dir);
        let exact = |m: &MediaSnapshot| (m.reads, m.writes, m.bytes_written, m.syncs);
        assert_eq!(exact(&media_a), exact(&media_b));
        assert_eq!(
            (backing_a.reads, backing_a.writes),
            (backing_b.reads, backing_b.writes)
        );
        // The workload did reach both boundaries.
        assert!(media_a.syncs > 0 && media_a.bytes_written > 0);
        assert!(backing_a.reads > 0 && backing_a.writes >= 512);
        assert!(media_a.sync_ns > 0 && media_a.busy_ns >= media_a.sync_ns);
    }
}
