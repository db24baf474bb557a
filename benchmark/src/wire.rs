//! The raw wire driver: one thread per connection speaking the node's
//! pipelined protocol over a nonblocking `TcpStream`.
//!
//! The benchmark depends on the wire format (`PipedRequest::encode_into`,
//! `split_frame`, `PipedReply::parse`) and on `NodeServerBuilder` only —
//! on neither client — so a client rewrite cannot move its numbers.
//!
//! Two pacings share one loop. *Closed*: keep `depth` requests in flight
//! (callers that each wait for a reply). *Open*: request `i` is due at
//! `start + i * interval` whatever the server does (independent users);
//! its latency runs from that intended time, so a stall is charged to
//! every request that should have gone out during it (no coordinated
//! omission), and how late the generator itself ran is recorded as lag.
//!
//! Each connection writes only the keys congruent to its index, so every
//! key has one writer and a total order of versions: a read must return
//! an intact payload at least as new as the last acknowledged write.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sievestore_node::protocol::split_frame;
use sievestore_node::{Block, PipedReply, PipedRequest, Reply, Request};
use sievestore_trace::Zipf;
use sievestore_types::U64Map;

use crate::hist::Histogram;
use crate::payload;
use crate::span::Tracer;

/// Slots per connection: the most requests one connection may have
/// outstanding before the open loop must hold the rest back as backlog.
const MAX_IN_FLIGHT: usize = 4096;

/// How long after a phase's end its outstanding replies may take.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// One request of the tape: the key and whether it is a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeOp {
    pub key: u64,
    pub read: bool,
}

/// The traffic mix of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub keys: u64,
    pub zipf_s: f64,
    pub read_pct: u32,
}

impl Traffic {
    /// Connection `conn`'s request tape: Zipf-ranked keys (rank 1 is key
    /// 0), with writes moved onto the nearest key this connection owns.
    /// The tape is replayed cyclically.
    pub fn tape(&self, seed: u64, conn: usize, conns: usize, len: usize) -> Arc<[TapeOp]> {
        assert!(
            self.keys >= conns as u64,
            "every connection needs a key to write"
        );
        let zipf = Zipf::new(self.keys, self.zipf_s).expect("valid zipf parameters");
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (0..len)
            .map(|_| {
                let mut key = zipf.sample(&mut rng) - 1;
                let read = rng.random_range(0..100u32) < self.read_pct;
                if !read {
                    key = key - key % conns as u64 + conn as u64;
                    if key >= self.keys {
                        key -= conns as u64;
                    }
                }
                TapeOp { key, read }
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Keep this many requests in flight.
    Closed { depth: usize },
    /// Send one request every `interval_ns`, on schedule.
    Open { interval_ns: u64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub pace: Pace,
    pub duration: Duration,
    pub window: Duration,
}

#[derive(Clone, Default)]
pub struct Window {
    pub completed: u64,
    pub latency_ns: Histogram,
}

/// What one connection saw during one phase.
#[derive(Clone, Default)]
pub struct PhaseOutcome {
    /// Completions by the window their reply arrived in.
    pub windows: Vec<Window>,
    pub attempted: u64,
    /// Error replies, damaged or stale payloads, replies nobody asked for.
    pub failed: u64,
    /// Open loop: how long after its due time each request was sent.
    pub lag_ns: Histogram,
    /// Open loop: requests that fell due but were never sent.
    pub unsent: u64,
    /// Replies that arrived after the phase's last window closed.
    pub late: u64,
    /// Request payload bytes of acknowledged writes.
    pub written_bytes: u64,
}

impl PhaseOutcome {
    pub fn merge(&mut self, other: &PhaseOutcome) {
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize_with(other.windows.len(), Window::default);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            mine.completed += theirs.completed;
            mine.latency_ns.merge(&theirs.latency_ns);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lag_ns.merge(&other.lag_ns);
        self.unsent += other.unsent;
        self.late += other.late;
        self.written_bytes += other.written_bytes;
    }

    pub fn completed(&self) -> u64 {
        self.windows.iter().map(|w| w.completed).sum::<u64>() + self.late
    }
}

#[derive(Clone, Copy)]
enum Op {
    Read { min_version: u64 },
    Write { version: u64 },
}

#[derive(Clone, Copy)]
struct Slot {
    intended: Instant,
    key: u64,
    op: Op,
}

/// Optional span recording around the calls one batch makes.
struct Probe<'a> {
    tracer: Option<&'a mut Tracer>,
    batch: u64,
    /// Whether this batch's spans are kept as rows; every batch counts in
    /// the layer totals either way.
    keep: bool,
}

const ROOT: &str = "bench.gen.batch";

impl Probe<'_> {
    fn start(&self) -> Option<Instant> {
        self.tracer.as_ref().map(|_| Instant::now())
    }

    fn stop(&mut self, name: &'static str, parent: Option<&'static str>, start: Option<Instant>) {
        if let (Some(tracer), Some(start)) = (self.tracer.as_deref_mut(), start) {
            tracer.close(name, parent, self.batch, start, self.keep);
        }
    }
}

pub struct WireConn {
    stream: TcpStream,
    conn: usize,
    conns: usize,
    /// Shared: a set-up connects anew without copying megabytes of tape.
    tape: Arc<[TapeOp]>,
    cursor: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    rpos: usize,
    scratch: Vec<u8>,
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    in_flight: usize,
    /// Per owned key: versions sent and acknowledged.
    versions: U64Map<Versions>,
    batches: u64,
    /// Whether reads currently wait in the kernel (closed loop) instead
    /// of returning at once (open loop).
    blocking: bool,
}

#[derive(Clone, Copy, Default)]
struct Versions {
    sent: u64,
    acked: u64,
}

impl WireConn {
    /// Connects connection `conn` of `conns`; it owns (is the only
    /// writer of) the keys `k` with `k % conns == conn`.
    pub fn connect(
        addr: SocketAddr,
        conn: usize,
        conns: usize,
        tape: Arc<[TapeOp]>,
    ) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(WireConn {
            stream,
            conn,
            conns,
            tape,
            cursor: 0,
            wbuf: Vec::with_capacity(1 << 16),
            wpos: 0,
            rbuf: Vec::with_capacity(1 << 16),
            rpos: 0,
            scratch: vec![0; 1 << 16],
            slots: vec![None; MAX_IN_FLIGHT],
            free: (0..MAX_IN_FLIGHT as u32).rev().collect(),
            in_flight: 0,
            versions: U64Map::new(),
            batches: 0,
            blocking: false,
        })
    }

    fn owns(&self, key: u64) -> bool {
        key % self.conns as u64 == self.conn as u64
    }

    /// The last acknowledged `(key, version)` of every key this
    /// connection wrote — what a restart must still serve.
    pub fn acknowledged(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.versions
            .iter()
            .filter(|(_, v)| v.acked > 0)
            .map(|(key, v)| (key, v.acked))
    }

    fn enqueue(&mut self, op: TapeOp, intended: Instant, probe: &mut Probe) {
        let corr = self.free.pop().expect("caller checked for a free slot");
        let (request, slot_op) = if op.read {
            let min_version = self.versions.get(op.key).map_or(0, |v| v.acked);
            (Request::Read { key: op.key }, Op::Read { min_version })
        } else {
            let t = probe.start();
            assert!(self.owns(op.key), "the tape writes owned keys only");
            let versions = self.versions.get_or_insert_with(op.key, Versions::default);
            versions.sent += 1;
            let version = versions.sent;
            let mut data: Box<Block> = Box::new([0; 512]);
            payload::fill(op.key, version, &mut data);
            probe.stop("bench.payload", Some(ROOT), t);
            (Request::Write { key: op.key, data }, Op::Write { version })
        };
        let t = probe.start();
        PipedRequest { corr, request }.encode_into(&mut self.wbuf);
        probe.stop("node.protocol.encode_req", Some(ROOT), t);
        self.slots[corr as usize] = Some(Slot {
            intended,
            key: op.key,
            op: slot_op,
        });
        self.in_flight += 1;
    }

    fn next_op(&mut self) -> TapeOp {
        let op = self.tape[self.cursor];
        self.cursor = (self.cursor + 1) % self.tape.len();
        op
    }

    /// Writes as much of the pending bytes as the socket takes.
    fn flush(&mut self, probe: &mut Probe) -> io::Result<bool> {
        if self.wpos == self.wbuf.len() {
            return Ok(false);
        }
        let t = probe.start();
        let mut progressed = false;
        let result = loop {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    progressed = true;
                    if self.wpos == self.wbuf.len() {
                        self.wbuf.clear();
                        self.wpos = 0;
                        break Ok(progressed);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(progressed),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            }
        };
        probe.stop("net.write", Some(ROOT), t);
        result
    }

    /// Reads whatever the socket holds and settles every complete reply.
    fn poll(
        &mut self,
        settle: &mut dyn FnMut(Instant, Instant, bool, u64),
        probe: &mut Probe,
    ) -> io::Result<bool> {
        let t = probe.start();
        let mut got = false;
        let read = loop {
            match self.stream.read(&mut self.scratch) {
                Ok(0) => break Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&self.scratch[..n]);
                    got = true;
                    if n < self.scratch.len() || self.blocking {
                        break Ok(());
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    break Ok(())
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            }
        };
        probe.stop("net.read", Some(ROOT), t);
        read?;
        if !got {
            return Ok(false);
        }
        let arrived = Instant::now();
        loop {
            let t = probe.start();
            let Some((consumed, range)) = split_frame(&self.rbuf[self.rpos..])? else {
                break;
            };
            let reply =
                PipedReply::parse(&self.rbuf[self.rpos + range.start..self.rpos + range.end]);
            self.rpos += consumed;
            probe.stop("node.protocol.parse_reply", Some(ROOT), t);
            let t = probe.start();
            let reply = reply?;
            let slot = self
                .slots
                .get_mut(reply.corr as usize)
                .and_then(Option::take);
            let (intended, ok, bytes) = match slot {
                // A reply nobody is waiting for: count it, time nothing.
                None => (arrived, false, 0),
                Some(slot) => {
                    self.free.push(reply.corr);
                    self.in_flight -= 1;
                    let (ok, bytes) = self.verify(&slot, &reply.reply);
                    (slot.intended, ok, bytes)
                }
            };
            probe.stop("bench.verify", Some(ROOT), t);
            settle(intended, arrived, ok, bytes);
        }
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        } else if self.rpos > 1 << 16 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        Ok(true)
    }

    /// Whether `reply` answers `slot` correctly, and the user bytes an
    /// acknowledged write stored.
    fn verify(&mut self, slot: &Slot, reply: &Reply) -> (bool, u64) {
        match (slot.op, reply) {
            (Op::Read { min_version }, Reply::Read { data, .. }) => (
                payload::check(slot.key, &data[..]).is_some_and(|v| v >= min_version),
                0,
            ),
            (Op::Write { version }, Reply::Write { .. }) => {
                let versions = self
                    .versions
                    .get_or_insert_with(slot.key, Versions::default);
                versions.acked = versions.acked.max(version);
                (true, 512)
            }
            _ => (false, 0),
        }
    }

    /// Issues `ops` in order, `depth` at a time, and waits for every
    /// reply. Returns how many were wrong.
    pub fn run_ops(&mut self, ops: &[TapeOp], depth: usize) -> io::Result<u64> {
        let mut probe = Probe {
            tracer: None,
            batch: 0,
            keep: false,
        };
        let mut failed = 0u64;
        let mut settle = |_: Instant, _: Instant, ok: bool, _: u64| failed += u64::from(!ok);
        let mut next = 0;
        while next < ops.len() || self.in_flight > 0 {
            while next < ops.len() && self.in_flight < depth.min(MAX_IN_FLIGHT) {
                self.enqueue(ops[next], Instant::now(), &mut probe);
                next += 1;
            }
            let wrote = self.flush(&mut probe)?;
            let read = self.poll(&mut settle, &mut probe)?;
            if !wrote && !read {
                std::thread::yield_now();
            }
        }
        Ok(failed)
    }

    /// Writes the next version of every key of `keys` this connection
    /// owns and waits for every acknowledgement. Returns the failures.
    pub fn prefill(&mut self, keys: &[u64], depth: usize) -> io::Result<u64> {
        let ops: Vec<TapeOp> = keys
            .iter()
            .filter(|&&key| self.owns(key))
            .map(|&key| TapeOp { key, read: false })
            .collect();
        self.run_ops(&ops, depth)
    }

    /// Reads every key of `keys` this connection owns; each must come
    /// back intact at its last acknowledged version or newer. Returns
    /// the number read and the failures.
    pub fn read_back(&mut self, keys: &[u64], depth: usize) -> io::Result<(u64, u64)> {
        let ops: Vec<TapeOp> = keys
            .iter()
            .filter(|&&key| self.owns(key))
            .map(|&key| TapeOp { key, read: true })
            .collect();
        Ok((ops.len() as u64, self.run_ops(&ops, depth)?))
    }

    /// Rewinds the tape, so the next phase sends the same requests
    /// whatever ran before it.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Runs one phase starting at `start` (shared by all connections).
    pub fn run_phase(
        &mut self,
        phase: &Phase,
        start: Instant,
        mut tracer: Option<&mut Tracer>,
    ) -> io::Result<PhaseOutcome> {
        let end = start + phase.duration;
        let window_ns = phase.window.as_nanos().max(1);
        let window_count = (phase.duration.as_nanos() / window_ns) as usize;
        let mut out = PhaseOutcome {
            windows: vec![Window::default(); window_count],
            ..PhaseOutcome::default()
        };
        // Stagger the connections' schedules across one interval.
        let mut next_due = match phase.pace {
            Pace::Open { interval_ns } => {
                start + Duration::from_nanos(interval_ns * self.conn as u64 / self.conns as u64)
            }
            Pace::Closed { .. } => start,
        };
        // A closed loop's callers wait for their replies: the thread
        // sleeps in `read` until one arrives instead of competing with
        // the server for the two cores. The timeout only bounds the wait.
        self.blocking = matches!(phase.pace, Pace::Closed { .. });
        if self.blocking {
            self.stream.set_nonblocking(false)?;
            self.stream
                .set_read_timeout(Some(Duration::from_millis(2)))?;
        }
        while Instant::now() < start {
            std::thread::yield_now();
        }
        let first_batch = self.batches;
        loop {
            self.batches += 1;
            // Rows for a phase's first batches and one in 1024 after.
            let mut probe = Probe {
                tracer: tracer.as_deref_mut(),
                batch: self.batches,
                keep: self.batches - first_batch <= 64 || self.batches.is_multiple_of(1024),
            };
            let batch_start = probe.start();
            let now = Instant::now();
            match phase.pace {
                Pace::Closed { depth } => {
                    while now < end && self.in_flight < depth.min(MAX_IN_FLIGHT) {
                        let op = self.next_op();
                        self.enqueue(op, now, &mut probe);
                        out.attempted += 1;
                    }
                }
                // Everything due before the end goes out, however late.
                Pace::Open { interval_ns } => {
                    while next_due <= now && next_due < end && !self.free.is_empty() {
                        let op = self.next_op();
                        self.enqueue(op, next_due, &mut probe);
                        out.attempted += 1;
                        out.lag_ns.record((now - next_due).as_nanos() as u64);
                        next_due += Duration::from_nanos(interval_ns);
                    }
                }
            }
            let mut settle = |intended: Instant, arrived: Instant, ok: bool, bytes: u64| {
                out.failed += u64::from(!ok);
                out.written_bytes += bytes;
                let index =
                    (arrived.saturating_duration_since(start).as_nanos() / window_ns) as usize;
                match out.windows.get_mut(index) {
                    Some(window) => {
                        window.completed += 1;
                        window
                            .latency_ns
                            .record(arrived.saturating_duration_since(intended).as_nanos() as u64);
                    }
                    None => out.late += 1,
                }
            };
            let wrote = self.flush(&mut probe)?;
            let read = self.poll(&mut settle, &mut probe)?;
            let all_sent = match phase.pace {
                Pace::Closed { .. } => true,
                Pace::Open { .. } => next_due >= end,
            };
            if now >= end && all_sent && self.in_flight == 0 && self.wpos == self.wbuf.len() {
                probe.stop(ROOT, None, batch_start);
                break;
            }
            if now >= end + DRAIN_LIMIT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "{} replies still missing after the drain limit",
                        self.in_flight
                    ),
                ));
            }
            if !wrote && !read && !self.blocking {
                let t = probe.start();
                // Nothing outstanding and the next request is far off:
                // sleep up to it. Otherwise a reply may land any moment.
                let idle_until_due = match phase.pace {
                    Pace::Open { .. } if self.in_flight == 0 && next_due < end => {
                        next_due.saturating_duration_since(Instant::now())
                    }
                    _ => Duration::ZERO,
                };
                if idle_until_due > Duration::from_micros(200) {
                    std::thread::sleep(idle_until_due - Duration::from_micros(100));
                } else {
                    std::thread::yield_now();
                }
                probe.stop("bench.gen.idle", Some(ROOT), t);
            }
            probe.stop(ROOT, None, batch_start);
        }
        if self.blocking {
            self.blocking = false;
            self.stream.set_nonblocking(true)?;
        }
        if let Pace::Open { interval_ns } = phase.pace {
            out.unsent = (end.saturating_duration_since(next_due).as_nanos()
                / interval_ns.max(1) as u128) as u64;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sievestore_node::Incoming;
    use std::collections::HashMap;
    use std::io::{BufReader, BufWriter};
    use std::net::TcpListener;

    /// A one-connection server that answers from a map and, once, stops
    /// reading for `stall` after it has served `stall_after` requests.
    fn stub_server(
        stall_after: u64,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<u64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let mut blocks: HashMap<u64, Box<Block>> = HashMap::new();
            let mut served = 0u64;
            let mut out = Vec::new();
            while let Ok(Incoming::Piped(piped)) = Incoming::decode(&mut reader) {
                if served == stall_after {
                    std::thread::sleep(stall);
                }
                served += 1;
                let reply = match piped.request {
                    Request::Read { key } => Reply::Read {
                        hit: true,
                        data: blocks.get(&key).cloned().unwrap_or(Box::new([0; 512])),
                    },
                    Request::Write { key, data } => {
                        blocks.insert(key, data);
                        Reply::Write { hit: true }
                    }
                    _ => break,
                };
                out.clear();
                PipedReply {
                    corr: piped.corr,
                    reply,
                }
                .encode_into(&mut out);
                writer.write_all(&out).unwrap();
                if reader.buffer().is_empty() {
                    writer.flush().unwrap();
                }
            }
            served
        });
        (addr, handle)
    }

    const TRAFFIC: Traffic = Traffic {
        keys: 64,
        zipf_s: 0.9,
        read_pct: 50,
    };

    #[test]
    fn tape_is_seeded_and_writes_only_owned_keys() {
        let a = TRAFFIC.tape(7, 1, 2, 10_000);
        assert_eq!(a, TRAFFIC.tape(7, 1, 2, 10_000));
        assert_ne!(a, TRAFFIC.tape(8, 1, 2, 10_000));
        assert!(a
            .iter()
            .all(|op| op.key < 64 && (op.read || op.key % 2 == 1)));
        let reads = a.iter().filter(|op| op.read).count();
        assert!((4_500..5_500).contains(&reads), "{reads} reads of 10000");
    }

    /// The stall is charged to every request that fell due during it, not
    /// to the one request that was waiting (no coordinated omission), and
    /// the generator's own lateness is reported apart from it.
    #[test]
    fn open_loop_charges_a_server_stall_to_later_requests() {
        let stall = Duration::from_millis(60);
        let (addr, server) = stub_server(64 + 500, stall);
        let mut conn = WireConn::connect(addr, 0, 1, TRAFFIC.tape(1, 0, 1, 4096)).unwrap();
        let keys: Vec<u64> = (0..64).collect();
        assert_eq!(conn.prefill(&keys, 16).unwrap(), 0);

        // 10 000 requests/s for 0.3 s: about 600 fall due during the stall.
        let phase = Phase {
            pace: Pace::Open {
                interval_ns: 100_000,
            },
            duration: Duration::from_millis(300),
            window: Duration::from_millis(300),
        };
        let outcome = conn.run_phase(&phase, Instant::now(), None).unwrap();
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.unsent, 0);
        assert_eq!(outcome.attempted, 3_000);
        assert_eq!(outcome.completed(), 3_000);

        let latency = &outcome.windows[0].latency_ns;
        let worst = latency.quantile(1.0).unwrap();
        assert!(worst >= 0.9 * stall.as_nanos() as f64, "worst {worst} ns");
        // A closed loop would show one slow request. Here every request
        // due in the stall waited for its remainder: at least a third of
        // them (200 of ~600) waited 20 ms or more.
        let waited = (0..=1000)
            .map(|i| i as f64 / 1000.0)
            .filter(|&q| latency.quantile(q).unwrap() >= 20e6)
            .count() as f64
            / 1000.0
            * latency.count() as f64;
        assert!(waited >= 200.0, "only {waited} requests saw the stall");
        // The generator kept its schedule through the stall: the socket
        // took the requests, so lag stays far below the stall.
        assert_eq!(outcome.lag_ns.count(), 3_000);
        assert!(outcome.lag_ns.quantile(0.5).unwrap() < 5e6);

        let (read, failed) = conn.read_back(&keys, 16).unwrap();
        assert_eq!((read, failed), (64, 0));
        assert_eq!(conn.acknowledged().count(), 64);
        drop(conn);
        assert_eq!(server.join().unwrap(), 64 + 3_000 + 64);
    }

    #[test]
    fn closed_loop_keeps_depth_in_flight_and_detects_a_damaged_reply() {
        let (addr, server) = stub_server(u64::MAX, Duration::ZERO);
        // Reads of never-written keys come back as zero blocks, which are
        // not valid payloads: every one of them must count as failed.
        let tape: Arc<[TapeOp]> = Arc::new([TapeOp { key: 5, read: true }]);
        let mut conn = WireConn::connect(addr, 0, 1, tape).unwrap();
        let phase = Phase {
            pace: Pace::Closed { depth: 4 },
            duration: Duration::from_millis(50),
            window: Duration::from_millis(25),
        };
        let outcome = conn.run_phase(&phase, Instant::now(), None).unwrap();
        assert!(outcome.attempted >= 4);
        assert_eq!(outcome.failed, outcome.attempted);
        assert_eq!(outcome.completed(), outcome.attempted);
        assert_eq!(outcome.windows.len(), 2);
        drop(conn);
        assert_eq!(server.join().unwrap(), outcome.attempted);
    }
}
