//! Streaming day generation: the trace as a bounded-memory chunk pipeline.
//!
//! [`SyntheticTrace::day_requests`] materializes a whole calendar day in
//! RAM, which caps the scale a replay can run at. This module generates
//! the *same bytes in the same order* as a stream of fixed-size request
//! chunks instead:
//!
//! * Requests are ordered by [`request_order_key`], a **total** order
//!   (timestamp first, then the full request payload as a tiebreak).
//!   Because the order is total, every sorting strategy over the same
//!   multiset yields the same sequence — so a k-way merge of per-server
//!   sorted runs is bit-identical to sorting the concatenated day, which
//!   is what makes streamed and materialized generation interchangeable
//!   (pinned by this module's tests and `tests/streaming_replay.rs`).
//!   The merge scans k cached 16-byte `(timestamp, block)` key prefixes
//!   per request and builds a full key only where two prefixes tie.
//! * A background thread generates per-server day runs and merges them
//!   into chunks of [`TraceStreamConfig::chunk_requests`] requests,
//!   delivered over a bounded channel ([`TraceStreamConfig::depth`]
//!   chunks in flight). The consumer replays day *N* while the generator
//!   is already producing day *N + 1* — generation overlaps replay
//!   instead of serializing with it.
//! * With [`TraceStreamConfig::spill_dir`] set, each per-server run is
//!   written to disk (the [`crate::TraceWriter`] binary format) as soon
//!   as it is generated and the merge streams it back, so peak memory
//!   drops from one full day to one *server*-day plus I/O buffers —
//!   the mode full-scale replay runs in. Each stream spills into a
//!   subdirectory of its own, so streams sharing a spill dir run side
//!   by side.
//!
//! Consumers either drain [`TraceStream::next_msg`] (day markers +
//! chunks, with buffer recycling) or flatten the stream through
//! [`TraceStream::requests`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;

use sievestore_types::{Day, GlobalBlock, Request, SieveError};

use crate::io::{TraceReader, TraceWriter};
use crate::synth::SyntheticTrace;

/// Sort key produced by [`request_order_key`]: timestamp-major, then
/// every remaining request field as a tiebreak.
pub type RequestOrderKey = (u64, u64, u32, u8, u64);

/// The canonical total order over requests.
///
/// Timestamp-major, with the remaining request fields as tiebreaks, so
/// two requests compare equal only when they are bitwise identical —
/// which makes the sorted sequence of any request multiset unique, and
/// merge-based streaming reproducible against materialized sorting.
/// [`sort_requests`] and the stream's merge rely on it being timestamp-major.
///
/// # Examples
///
/// ```
/// use sievestore_trace::request_order_key;
/// use sievestore_types::{BlockAddr, Micros, Request, RequestKind, ServerId, VolumeId};
///
/// let a = Request::new(
///     Micros::new(5),
///     BlockAddr::new(ServerId::new(0), VolumeId::new(0), 8),
///     4,
///     RequestKind::Read,
/// );
/// let b = Request::new(
///     Micros::new(5),
///     BlockAddr::new(ServerId::new(1), VolumeId::new(0), 8),
///     4,
///     RequestKind::Read,
/// );
/// // Same timestamp, different server: the tiebreak still orders them.
/// assert!(request_order_key(&a) < request_order_key(&b));
/// ```
pub fn request_order_key(r: &Request) -> RequestOrderKey {
    (
        r.timestamp.as_u64(),
        GlobalBlock::from(r.start).raw(),
        r.len_blocks,
        r.kind.as_byte(),
        r.response_time.as_u64(),
    )
}

/// Sorts requests by [`request_order_key`] (the order every trace API
/// emits): sorts 16-byte `(timestamp, index)` keys, permutes the requests
/// into that order in place, then full-key-sorts only equal timestamps.
pub fn sort_requests(requests: &mut [Request]) {
    sort_with(requests, &mut Vec::new());
}

/// [`sort_requests`] with a reused key buffer.
pub(crate) fn sort_with(requests: &mut [Request], keys: &mut Vec<u128>) {
    keys.clear();
    for (i, r) in (0u64..).zip(requests.iter()) {
        keys.push(u128::from(r.timestamp.as_u64()) << 64 | u128::from(i));
    }
    keys.sort_unstable();
    // Position `i` takes the request at index `keys[i] as u64`: walk each
    // cycle once by swaps, re-pointing visited positions at themselves.
    for start in 0..requests.len() {
        let mut dst = start;
        loop {
            let src = keys[dst] as u64 as usize;
            keys[dst] = keys[dst] >> 64 << 64 | dst as u128;
            if src == start {
                break;
            }
            requests.swap(dst, src);
            dst = src;
        }
    }
    for tied in requests.chunk_by_mut(|a, b| a.timestamp == b.timestamp) {
        tied.sort_unstable_by_key(request_order_key);
    }
}

/// Default requests per streamed chunk (~2 MiB of `Request`s).
pub const DEFAULT_CHUNK_REQUESTS: usize = 1 << 16;
/// Default chunks in flight between generator and consumer.
pub const DEFAULT_STREAM_DEPTH: usize = 4;

/// Configuration for [`SyntheticTrace::stream`].
#[derive(Debug, Clone)]
pub struct TraceStreamConfig {
    /// Requests per chunk.
    pub chunk_requests: usize,
    /// Bounded-channel depth: at most this many chunks in flight
    /// (generator backpressure).
    pub depth: usize,
    /// When set, per-server day runs spill under this directory instead
    /// of staying resident for the merge: peak generator memory drops
    /// from one day to one server-day. Each stream writes into a
    /// process-unique subdirectory, created if needed and removed when
    /// the stream ends; run files are deleted as each day completes —
    /// including when the stream is dropped mid-day or generation fails
    /// (the files are guarded, never orphaned).
    pub spill_dir: Option<PathBuf>,
}

impl Default for TraceStreamConfig {
    fn default() -> Self {
        TraceStreamConfig {
            chunk_requests: DEFAULT_CHUNK_REQUESTS,
            depth: DEFAULT_STREAM_DEPTH,
            spill_dir: None,
        }
    }
}

impl TraceStreamConfig {
    /// Sets the chunk size in requests (clamped to at least 1).
    #[must_use]
    pub fn with_chunk_requests(mut self, chunk_requests: usize) -> Self {
        self.chunk_requests = chunk_requests.max(1);
        self
    }

    /// Sets the in-flight chunk bound (clamped to at least 1).
    #[must_use]
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth.max(1);
        self
    }

    /// Enables spill-to-disk generation under `dir`.
    #[must_use]
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }
}

/// One message from the generator thread.
#[derive(Debug)]
pub enum StreamMsg {
    /// Calendar day `day` starts here; every following [`StreamMsg::Chunk`]
    /// until the next marker (or end of stream) belongs to it. Emitted for
    /// every day in the trace, even a day with no requests.
    StartDay(Day),
    /// The next run of requests, in [`request_order_key`] order. Never
    /// empty. Return the buffer via [`TraceStream::recycle`] to keep the
    /// steady state allocation-free.
    Chunk(Vec<Request>),
    /// Generation failed (spill-mode I/O); the stream ends after this.
    Failed(SieveError),
}

/// A live streaming generation: the consumer half of the pipeline.
///
/// Dropping the stream stops the generator (its next send fails) and
/// joins the background thread.
///
/// # Examples
///
/// ```
/// use sievestore_trace::{EnsembleConfig, SyntheticTrace, TraceStreamConfig};
/// use sievestore_types::Day;
///
/// let trace = SyntheticTrace::new(EnsembleConfig::tiny(42)).unwrap();
/// let streamed: Vec<_> = trace.stream(TraceStreamConfig::default()).requests().collect();
/// let mut materialized = Vec::new();
/// for d in 0..trace.days() {
///     materialized.extend(trace.day_requests(Day::new(d)));
/// }
/// assert_eq!(streamed, materialized);
/// ```
#[derive(Debug)]
pub struct TraceStream {
    rx: Option<mpsc::Receiver<StreamMsg>>,
    recycle_tx: Option<mpsc::Sender<Vec<Request>>>,
    handle: Option<JoinHandle<()>>,
}

impl TraceStream {
    /// Receives the next message, or `None` once generation completed.
    pub fn next_msg(&mut self) -> Option<StreamMsg> {
        self.rx.as_ref().and_then(|rx| rx.recv().ok())
    }

    /// Hands a drained chunk buffer back to the generator for reuse.
    pub fn recycle(&self, mut buf: Vec<Request>) {
        buf.clear();
        // The generator may already have finished; dropped buffers are
        // simply reallocated next run.
        if let Some(tx) = &self.recycle_tx {
            let _ = tx.send(buf);
        }
    }

    /// Flattens the stream into one request iterator (convenience for
    /// analyses and tests; replay engines consume chunks directly).
    ///
    /// # Panics
    ///
    /// The iterator panics if spill-mode generation hits an I/O error.
    pub fn requests(self) -> RequestStream {
        RequestStream {
            stream: self,
            chunk: Vec::new(),
            pos: 0,
        }
    }
}

impl Drop for TraceStream {
    fn drop(&mut self) {
        // Closing the receiver makes the generator's next send fail, so
        // it exits even mid-day; closing the recycle channel lets it
        // detect the hang-up *between* sends too (spill mode checks it
        // between per-server run writes). Then reap the thread — by the
        // time `drop` returns, spill run files are guaranteed cleaned up.
        drop(self.rx.take());
        drop(self.recycle_tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Flattened per-request view of a [`TraceStream`].
///
/// Produced by [`TraceStream::requests`].
#[derive(Debug)]
pub struct RequestStream {
    stream: TraceStream,
    chunk: Vec<Request>,
    pos: usize,
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        loop {
            if self.pos < self.chunk.len() {
                let req = self.chunk[self.pos];
                self.pos += 1;
                return Some(req);
            }
            if !self.chunk.is_empty() {
                self.stream.recycle(std::mem::take(&mut self.chunk));
            }
            self.pos = 0;
            match self.stream.next_msg()? {
                StreamMsg::StartDay(_) => {}
                StreamMsg::Chunk(chunk) => self.chunk = chunk,
                StreamMsg::Failed(e) => panic!("trace generation failed: {e}"),
            }
        }
    }
}

/// Which slice of the ensemble a stream generates.
#[derive(Debug, Clone, Copy)]
enum StreamScope {
    AllServers,
    Server(usize),
}

impl SyntheticTrace {
    /// Streams every request of the whole trace, all servers merged in
    /// [`request_order_key`] order — the same sequence
    /// [`SyntheticTrace::day_requests`] materializes, day by day, but
    /// generated on a background thread in bounded chunks.
    pub fn stream(&self, config: TraceStreamConfig) -> TraceStream {
        self.stream_scoped(StreamScope::AllServers, config)
    }

    /// Streams a single server's slice of the trace (the counterpart of
    /// [`SyntheticTrace::server_day`]).
    ///
    /// # Panics
    ///
    /// Panics if `server_idx` is out of range.
    pub fn stream_server(&self, server_idx: usize, config: TraceStreamConfig) -> TraceStream {
        assert!(
            server_idx < self.config().servers.len(),
            "server out of range"
        );
        self.stream_scoped(StreamScope::Server(server_idx), config)
    }

    fn stream_scoped(&self, scope: StreamScope, config: TraceStreamConfig) -> TraceStream {
        let spill = config.spill_dir.as_deref().map(SpillDir::claim);
        self.spawn_stream(scope, config, spill)
    }

    /// Starts the generator thread, spilling into `spill` if given.
    fn spawn_stream(
        &self,
        scope: StreamScope,
        config: TraceStreamConfig,
        spill: Option<SpillDir>,
    ) -> TraceStream {
        let config = TraceStreamConfig {
            chunk_requests: config.chunk_requests.max(1),
            depth: config.depth.max(1),
            spill_dir: config.spill_dir,
        };
        let (tx, rx) = mpsc::sync_channel::<StreamMsg>(config.depth);
        let (recycle_tx, recycle_rx) = mpsc::channel::<Vec<Request>>();
        let trace = self.clone();
        let handle = std::thread::Builder::new()
            .name("trace-stream".into())
            .spawn(move || {
                Generator {
                    trace,
                    scope,
                    config,
                    spill,
                    tx,
                    recycle_rx,
                    spare: Vec::new(),
                    sort_keys: Vec::new(),
                }
                .run();
            })
            .expect("spawn trace generator thread");
        TraceStream {
            rx: Some(rx),
            recycle_tx: Some(recycle_tx),
            handle: Some(handle),
        }
    }
}

/// One stream's private spill directory, `<spill_dir>/stream-<pid>-<seq>`:
/// two streams on one spill dir never write the same run file. Removed
/// with whatever is left in it when dropped, i.e. when the stream ends.
struct SpillDir(PathBuf);

impl SpillDir {
    fn claim(root: &Path) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        SpillDir(root.join(format!("stream-{}-{seq:04}", std::process::id())))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes its run files when dropped, so spill-mode generation never
/// leaves orphans behind — not on completion, not on consumer hang-up,
/// not on an I/O-error early return, not on a generator panic.
struct SpillRunGuard {
    paths: Vec<PathBuf>,
}

impl Drop for SpillRunGuard {
    fn drop(&mut self) {
        for p in &self.paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// The background generation loop.
struct Generator {
    trace: SyntheticTrace,
    scope: StreamScope,
    config: TraceStreamConfig,
    /// Declared before `tx`, so it is removed before the consumer sees
    /// the stream end.
    spill: Option<SpillDir>,
    tx: mpsc::SyncSender<StreamMsg>,
    recycle_rx: mpsc::Receiver<Vec<Request>>,
    /// Recycled buffers drained by [`Generator::consumer_gone`], reused
    /// before asking the channel again.
    spare: Vec<Vec<Request>>,
    sort_keys: Vec<u128>,
}

impl Generator {
    fn run(mut self) {
        for d in 0..self.trace.days() {
            let day = Day::new(d);
            if self.tx.send(StreamMsg::StartDay(day)).is_err() {
                return; // consumer dropped
            }
            let done = match &self.spill {
                None => self.emit_day_in_memory(day),
                Some(dir) => match self.emit_day_spilled(day, dir.0.clone()) {
                    Ok(done) => done,
                    Err(e) => {
                        let _ = self.tx.send(StreamMsg::Failed(e));
                        return;
                    }
                },
            };
            if !done {
                return;
            }
        }
    }

    fn servers(&self) -> Vec<usize> {
        match self.scope {
            StreamScope::AllServers => (0..self.trace.config().servers.len()).collect(),
            StreamScope::Server(idx) => vec![idx],
        }
    }

    /// A chunk buffer, recycled from the consumer when available.
    fn chunk_buf(&mut self) -> Vec<Request> {
        let mut buf = self
            .spare
            .pop()
            .or_else(|| self.recycle_rx.try_recv().ok())
            .unwrap_or_else(|| Vec::with_capacity(self.config.chunk_requests));
        buf.clear();
        buf
    }

    /// Drains the recycle channel into the spare pool; `true` once the
    /// consumer has hung up. Lets spill mode abort between per-server
    /// run writes instead of generating the rest of a day nobody will
    /// read.
    fn consumer_gone(&mut self) -> bool {
        loop {
            match self.recycle_rx.try_recv() {
                Ok(buf) => self.spare.push(buf),
                Err(mpsc::TryRecvError::Empty) => return false,
                Err(mpsc::TryRecvError::Disconnected) => return true,
            }
        }
    }

    /// Generates every server's run for `day` in memory and merges them
    /// into chunks. Returns `false` if the consumer went away.
    fn emit_day_in_memory(&mut self, day: Day) -> bool {
        let mut runs: Vec<_> = self
            .servers()
            .into_iter()
            .map(|s| self.trace.server_day_requests(s, day, &mut self.sort_keys))
            .map(Vec::into_iter)
            .collect();
        self.merge_chunks(runs.len(), |i| runs[i].next()).is_ok()
    }

    /// Spill mode: writes each server run to disk as soon as it is
    /// generated (so only one resident server-day at a time), then merges
    /// the runs back as streams. The runs live behind a [`SpillRunGuard`],
    /// so every exit — completion, consumer hang-up, I/O error, panic —
    /// leaves the spill directory clean.
    ///
    /// Returns `Ok(false)` if the consumer went away, `Err` on I/O
    /// failure.
    fn emit_day_spilled(&mut self, day: Day, dir: PathBuf) -> Result<bool, SieveError> {
        std::fs::create_dir_all(&dir)?;
        let servers = self.servers();
        let mut guard = SpillRunGuard {
            paths: Vec::with_capacity(servers.len()),
        };
        for s in servers {
            if self.consumer_gone() {
                return Ok(false);
            }
            let run = self.trace.server_day_requests(s, day, &mut self.sort_keys);
            let path = dir.join(format!("day{:04}-srv{s:02}.run", day.index()));
            // Registered before creation: a partially-written file from a
            // failed write below is still removed by the guard.
            guard.paths.push(path.clone());
            let file = std::fs::File::create(&path)?;
            let mut writer = TraceWriter::with_count(file, run.len() as u64)?;
            for req in &run {
                writer.write(req)?;
            }
            writer.finish()?;
        }
        let mut readers = guard
            .paths
            .iter()
            .map(|p| TraceReader::new(std::fs::File::open(p)?))
            .collect::<Result<Vec<_>, SieveError>>()?;
        let mut io_err: Option<SieveError> = None;
        let delivered = self.merge_chunks(readers.len(), |i| match readers[i].next().transpose() {
            Ok(next) => next,
            Err(e) => {
                io_err = Some(e);
                None // ends this source; the error surfaces below
            }
        });
        match io_err {
            Some(e) => Err(e),
            None => Ok(delivered.is_ok()),
        }
    }

    /// [`merge_runs`] over `runs` pulled by `next`, chunked and sent:
    /// every chunk holds exactly `chunk_requests` requests except the
    /// day's last, which holds the remainder.
    ///
    /// Returns `Err(())` when the consumer hung up.
    fn merge_chunks<F>(&mut self, runs: usize, next: F) -> Result<(), ()>
    where
        F: FnMut(usize) -> Option<Request>,
    {
        let mut chunk = self.chunk_buf();
        merge_runs(runs, next, |req| {
            chunk.push(req);
            if chunk.len() < self.config.chunk_requests {
                return Ok(());
            }
            let full = std::mem::replace(&mut chunk, self.chunk_buf());
            self.tx.send(StreamMsg::Chunk(full)).map_err(drop)
        })?;
        if !chunk.is_empty() && self.tx.send(StreamMsg::Chunk(chunk)).is_err() {
            return Err(());
        }
        Ok(())
    }
}

/// K-way merge of `runs` sorted runs (`next(i)` pulls run `i`'s next
/// request) into `emit`, stopping at the first `Err`. Fully equal heads
/// are identical requests, so which goes first is moot.
fn merge_runs<F, E>(runs: usize, mut next: F, mut emit: E) -> Result<(), ()>
where
    F: FnMut(usize) -> Option<Request>,
    E: FnMut(Request) -> Result<(), ()>,
{
    fn key(r: &Request) -> u128 {
        u128::from(r.timestamp.as_u64()) << 64 | u128::from(GlobalBlock::from(r.start).raw())
    }
    // (cached key prefix, head, run) per live run; an exhausted run leaves.
    let mut live: Vec<(u128, Request, usize)> = (0..runs)
        .filter_map(|run| next(run).map(|req| (key(&req), req, run)))
        .collect();
    while !live.is_empty() {
        let mut min = 0;
        for (i, head) in live.iter().enumerate().skip(1) {
            let best = &live[min];
            if head.0 < best.0
                || (head.0 == best.0 && request_order_key(&head.1) < request_order_key(&best.1))
            {
                min = i;
            }
        }
        let (_, req, run) = live[min];
        if let Some(refill) = next(run) {
            live[min] = (key(&refill), refill, run);
        } else {
            live.swap_remove(min);
        }
        emit(req)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EnsembleConfig;

    fn tiny() -> SyntheticTrace {
        SyntheticTrace::new(EnsembleConfig::tiny(0xBEEF)).unwrap()
    }

    fn materialized(trace: &SyntheticTrace) -> Vec<Request> {
        let mut all = Vec::new();
        for d in 0..trace.days() {
            all.extend(trace.day_requests(Day::new(d)));
        }
        all
    }

    fn drain(stream: TraceStream) -> (Vec<Day>, Vec<Request>) {
        let (days, all, _) = drain_chunks(stream);
        (days, all)
    }

    /// [`drain`], plus each day's chunk lengths in order.
    fn drain_chunks(mut stream: TraceStream) -> (Vec<Day>, Vec<Request>, Vec<Vec<usize>>) {
        let mut days = Vec::new();
        let mut all = Vec::new();
        let mut lens: Vec<Vec<usize>> = Vec::new();
        while let Some(msg) = stream.next_msg() {
            match msg {
                StreamMsg::StartDay(d) => {
                    days.push(d);
                    lens.push(Vec::new());
                }
                StreamMsg::Chunk(chunk) => {
                    assert!(!chunk.is_empty(), "chunks are never empty");
                    lens.last_mut()
                        .expect("a day marker first")
                        .push(chunk.len());
                    all.extend_from_slice(&chunk);
                    stream.recycle(chunk);
                }
                StreamMsg::Failed(e) => panic!("generation failed: {e}"),
            }
        }
        (days, all, lens)
    }

    /// Every chunk but a day's last holds exactly `chunk` requests; the
    /// last holds at most that many.
    fn assert_exact_chunks(lens: &[Vec<usize>], chunk: usize) {
        for (day, day_lens) in lens.iter().enumerate() {
            if let Some((last, full)) = day_lens.split_last() {
                assert!(
                    full.iter().all(|&n| n == chunk),
                    "day {day}: a non-final chunk is not {chunk} long: {full:?}"
                );
                assert!(*last <= chunk, "day {day}: last chunk {last} > {chunk}");
            }
        }
    }

    /// Requests whose timestamps come from `stamps` (so at most four
    /// distinct values) and whose other fields come from small domains,
    /// so prefix ties, full-key ties and duplicates are all common.
    fn tied_requests(stamps: &[u64], raw: &[(usize, u64)]) -> Vec<Request> {
        use sievestore_types::{BlockAddr, Micros, RequestKind, ServerId, VolumeId};
        raw.iter()
            .map(|&(stamp, bits)| {
                let start = BlockAddr::new(
                    ServerId::new((bits % 3) as u8),
                    VolumeId::new((bits >> 2 & 1) as u8),
                    bits >> 4 & 7,
                );
                let kind = if bits >> 8 & 1 == 0 {
                    RequestKind::Read
                } else {
                    RequestKind::Write
                };
                Request::new(
                    Micros::new(stamps[stamp]),
                    start,
                    1 + (bits >> 9 & 1) as u32,
                    kind,
                )
                .with_response_time(Micros::new(bits >> 10 & 1))
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn sort_requests_is_the_full_key_sort(
            stamps in proptest::collection::vec(0u64..1 << 40, 4),
            raw in proptest::collection::vec((0usize..4, proptest::prelude::any::<u64>()), 0..64),
            dups in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..16),
        ) {
            let mut requests = tied_requests(&stamps, &raw);
            for d in dups {
                if !requests.is_empty() {
                    requests.push(requests[d % requests.len()]);
                }
            }
            let mut want = requests.clone();
            want.sort_unstable_by_key(request_order_key);
            let mut got = requests.clone();
            sort_requests(&mut got);
            proptest::prop_assert_eq!(&got, &want);
            // A reused key buffer sorts a second, shorter input the same way.
            let mut keys = Vec::new();
            let mut again = requests.clone();
            sort_with(&mut again, &mut keys);
            let mut half = requests[..requests.len() / 2].to_vec();
            sort_with(&mut half, &mut keys);
            let mut half_want = requests[..requests.len() / 2].to_vec();
            half_want.sort_unstable_by_key(request_order_key);
            proptest::prop_assert_eq!(again, want);
            proptest::prop_assert_eq!(half, half_want);
        }

        #[test]
        fn merge_is_a_sort_of_the_concatenated_runs(
            stamps in proptest::collection::vec(0u64..1 << 40, 4),
            raw in proptest::collection::vec((0usize..4, proptest::prelude::any::<u64>()), 0..96),
            cuts in proptest::collection::vec(0usize..96, 0..6),
        ) {
            // Runs of uneven length, some empty, cut from one tied pool:
            // ties across runs, and runs that empty long before the rest.
            let requests = tied_requests(&stamps, &raw);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(requests.len())).collect();
            cuts.sort_unstable();
            let mut runs: Vec<Vec<Request>> = Vec::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([requests.len()]) {
                let mut run = requests[from..cut].to_vec();
                sort_requests(&mut run);
                runs.push(run);
                from = cut;
            }
            let mut sources: Vec<std::vec::IntoIter<Request>> =
                runs.into_iter().map(Vec::into_iter).collect();
            let mut merged = Vec::new();
            merge_runs(sources.len(), |i| sources[i].next(), |req| {
                merged.push(req);
                Ok(())
            })
            .unwrap();
            let mut want = requests;
            want.sort_unstable_by_key(request_order_key);
            proptest::prop_assert_eq!(merged, want);
        }
    }

    #[test]
    fn order_key_is_total_over_distinct_requests() {
        let trace = tiny();
        let day = trace.day_requests(Day::new(1));
        for w in day.windows(2) {
            let (a, b) = (request_order_key(&w[0]), request_order_key(&w[1]));
            assert!(a <= b, "day_requests not sorted by the canonical order");
            if a == b {
                assert_eq!(w[0], w[1], "equal keys must mean identical requests");
            }
        }
    }

    #[test]
    fn in_memory_stream_matches_materialized_at_any_chunk_size() {
        let trace = tiny();
        let expect = materialized(&trace);
        for chunk in [1usize, 7, 1024, DEFAULT_CHUNK_REQUESTS] {
            let cfg = TraceStreamConfig::default().with_chunk_requests(chunk);
            let (days, got, lens) = drain_chunks(trace.stream(cfg));
            assert_eq!(days.len(), trace.days() as usize, "chunk {chunk}");
            assert_eq!(got, expect, "chunk size {chunk} diverged");
            assert_exact_chunks(&lens, chunk);
        }
    }

    #[test]
    fn spilled_stream_matches_materialized() {
        let trace = tiny();
        let dir = std::env::temp_dir().join(format!("sievestore-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TraceStreamConfig::default()
            .with_chunk_requests(513)
            .with_spill_dir(&dir);
        let (days, got, lens) = drain_chunks(trace.stream(cfg));
        assert_eq!(days.len(), trace.days() as usize);
        assert_eq!(got, materialized(&trace));
        assert_exact_chunks(&lens, 513);
        // Run files are cleaned up as days complete.
        let leftover = std::fs::read_dir(&dir)
            .map(|d| d.count())
            .unwrap_or_default();
        assert_eq!(leftover, 0, "spill files must be deleted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn server_stream_matches_server_day() {
        let trace = tiny();
        let server = 1;
        let mut expect = Vec::new();
        for d in 0..trace.days() {
            expect.extend(trace.server_day(server, Day::new(d)));
        }
        let cfg = TraceStreamConfig::default().with_chunk_requests(97);
        let (_, got) = drain(trace.stream_server(server, cfg));
        assert_eq!(got, expect);
    }

    #[test]
    fn request_iterator_flattens_the_stream() {
        let trace = tiny();
        let got: Vec<Request> = trace
            .stream(TraceStreamConfig::default().with_chunk_requests(311))
            .requests()
            .collect();
        assert_eq!(got, materialized(&trace));
    }

    #[test]
    fn dropping_a_stream_mid_day_joins_cleanly() {
        let trace = tiny();
        let mut stream = trace.stream(TraceStreamConfig::default().with_chunk_requests(64));
        // Take a few messages, then hang up with the generator mid-day.
        for _ in 0..3 {
            let _ = stream.next_msg();
        }
        drop(stream); // must not hang or panic
    }

    #[test]
    fn dropping_a_spilled_stream_mid_day_leaves_no_run_files() {
        let trace = tiny();
        let dir =
            std::env::temp_dir().join(format!("sievestore-stream-abort-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Tiny chunks + depth 1: the generator blocks mid-merge with its
        // run files still on disk when we hang up.
        let cfg = TraceStreamConfig::default()
            .with_chunk_requests(8)
            .with_depth(1)
            .with_spill_dir(&dir);
        let mut stream = trace.stream(cfg);
        for _ in 0..3 {
            let _ = stream.next_msg();
        }
        // Drop joins the generator thread, so by the time it returns the
        // guard has run: the spill dir must already be empty.
        drop(stream);
        let leftover: Vec<_> = std::fs::read_dir(&dir)
            .map(|d| d.filter_map(Result::ok).map(|e| e.path()).collect())
            .unwrap_or_default();
        assert!(leftover.is_empty(), "orphaned run files: {leftover:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_write_error_cleans_up_already_written_runs() {
        let trace = tiny();
        let root =
            std::env::temp_dir().join(format!("sievestore-stream-ioerr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // The stream's own spill dir, named here so the test can squat
        // in it: server 1's run filename is a *directory*, so its
        // `File::create` fails after server 0's run was already written —
        // the exact mid-day I/O-error path that used to orphan files.
        let dir = root.join("stream");
        std::fs::create_dir_all(dir.join("day0000-srv01.run")).unwrap();
        let cfg = TraceStreamConfig::default().with_spill_dir(&root);
        let mut stream = trace.spawn_stream(StreamScope::AllServers, cfg, Some(SpillDir(dir)));
        let mut failed = false;
        while let Some(msg) = stream.next_msg() {
            if let StreamMsg::Failed(_) = msg {
                failed = true;
            }
        }
        assert!(failed, "colliding run path must surface as Failed");
        drop(stream);
        let leftover: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        assert!(
            leftover.is_empty(),
            "the stream's spill dir must be removed on the error path: {leftover:?}"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn day_markers_precede_their_chunks() {
        let trace = tiny();
        let mut stream = trace.stream(TraceStreamConfig::default());
        let mut current: Option<Day> = None;
        let mut expected_next = 0u16;
        while let Some(msg) = stream.next_msg() {
            match msg {
                StreamMsg::StartDay(d) => {
                    assert_eq!(d.index(), expected_next, "days arrive in order");
                    expected_next += 1;
                    current = Some(d);
                }
                StreamMsg::Chunk(chunk) => {
                    let day = current.expect("chunk before any day marker");
                    assert!(chunk.iter().all(|r| r.timestamp.day() == day));
                    stream.recycle(chunk);
                }
                StreamMsg::Failed(e) => panic!("generation failed: {e}"),
            }
        }
    }
}
