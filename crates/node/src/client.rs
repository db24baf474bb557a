//! The blocking, fault-tolerant client for the appliance's wire protocol
//! (DESIGN §5g, "The client").
//!
//! One connection core, [`PipelinedClient`]: up to `window` requests in
//! flight as correlation-id envelopes on one lazily (re)dialled TCP
//! connection. [`NodeClient`] is that core at window 1 behind
//! call-and-return methods; it has no socket, retry loop or framing of
//! its own.
//!
//! * **The server's I/O rule**: requests are encoded by reference into
//!   one out buffer and written only when the client is about to block;
//!   **every** reply the blocking `read` then delivers is parsed in place
//!   and settled before it blocks again.
//! * **One retry ladder**: a failed attempt — one operation's transient
//!   error reply, or the whole window's when the connection fails — is
//!   retried under the same correlation id, after one jittered
//!   exponential back-off, while the [`RetryPolicy`] budget lasts.
//! * **One error contract at every window**: a failure lands on the
//!   operations it hit as a typed [`NodeError`] that keeps its cause,
//!   bare after a single attempt, inside
//!   [`NodeError::RetriesExhausted`] once a larger budget is spent.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use sievestore_types::obs::{self, CounterId};
use sievestore_types::{NodeError, BLOCK_SIZE};

use crate::protocol::{
    encode_request_into, ErrorCode, NodeMode, PipedReply, ReadBuffer, Reply, Request,
};

/// Appliance statistics as reported over the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Read hits.
    pub read_hits: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Allocation-writes performed.
    pub allocation_writes: u64,
    /// Blocks currently resident in the cache.
    pub resident_blocks: u64,
    /// Reads served in degraded pass-through mode.
    pub degraded_reads: u64,
    /// Writes served in degraded pass-through mode.
    pub degraded_writes: u64,
    /// The node's current health mode.
    pub mode: NodeMode,
}

impl NodeStats {
    /// Hit ratio over all accesses (0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.read_hits + self.write_hits;
        let total = hits + self.read_misses + self.write_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Bounded-retry schedule for transient failures.
///
/// Backoff is exponential from [`RetryPolicy::base_backoff`], capped at
/// [`RetryPolicy::max_backoff`], with deterministic jitter derived from
/// the attempt counter so runs are reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per request (1 = no retries).
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// No retries at all: one attempt, surface the first failure.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The pause before retry number `attempt` (1-based), with
    /// deterministic jitter from `salt`.
    fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16).saturating_sub(1))
            .min(self.max_backoff);
        if exp.is_zero() {
            return exp;
        }
        // SplitMix64 of (salt, attempt): full-strength jitter in
        // [exp/2, exp), decorrelating concurrent clients without any
        // global randomness source.
        let mut z = salt
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let half = exp / 2;
        let span_nanos = half.as_nanos() as u64;
        let jitter = if span_nanos == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(z % span_nanos)
        };
        half + jitter
    }
}

/// Connection and retry configuration for a [`NodeClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Budget for establishing (or re-establishing) the TCP connection;
    /// `None` blocks until the OS gives up.
    pub connect_timeout: Option<Duration>,
    /// Per-read socket timeout; `None` blocks indefinitely.
    pub read_timeout: Option<Duration>,
    /// Per-write socket timeout; `None` blocks indefinitely.
    pub write_timeout: Option<Duration>,
    /// Retry schedule for transient failures.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(1)),
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            retry: RetryPolicy::default(),
        }
    }
}

/// The payload of one successfully completed pipelined operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// A read completed; `hit` is whether the cache served it.
    Read {
        /// Whether the cache held the block.
        hit: bool,
        /// The block payload.
        data: Box<[u8; BLOCK_SIZE]>,
    },
    /// A write completed; `hit` is whether the cache held the block.
    Write {
        /// Whether the cache held the block.
        hit: bool,
    },
}

/// One finished pipelined operation, successful or not.
#[derive(Debug)]
pub struct Completion {
    /// The block key the operation targeted.
    pub key: u64,
    /// The outcome, after the retries [`RetryPolicy`] allows.
    pub result: Result<OpResult, NodeError>,
    /// Wall-clock time from first submission to completion, retries and all.
    pub latency: Duration,
}

/// One request awaiting its correlated reply.
struct Op {
    corr: u32,
    request: Request,
    /// The block a pipelined operation targets; `None` for the request
    /// of a [`PipelinedClient::call`], which takes the reply itself.
    key: Option<u64>,
    /// The attempt in progress (1-based).
    attempts: u32,
    started: Instant,
}

/// The connection core: up to `window` requests in flight at once, with
/// timeouts, bounded retries and transparent reconnection (see the
/// [module docs](self)). Operations submitted with [`Self::read`] /
/// [`Self::write`] come back as [`Completion`]s, possibly out of
/// submission order; nothing is written until the window fills or the
/// caller drains it.
///
/// # Examples
///
/// ```
/// use sievestore::PolicySpec;
/// use sievestore_node::{MemBacking, NodeServerBuilder, PipelinedClient, WritePolicy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let server = NodeServerBuilder::new("127.0.0.1:0")
///     .workers(2)
///     .serve_sharded(MemBacking::new(), PolicySpec::Aod, 64, WritePolicy::WriteThrough)?;
///
/// let mut client = PipelinedClient::connect(server.addr(), 32)?;
/// for key in 0..16 {
///     client.write(key, &[key as u8; 512])?;
/// }
/// let done = client.drain()?;
/// assert_eq!(done.len(), 16);
/// assert!(done.iter().all(|c| c.result.is_ok()));
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct PipelinedClient {
    addr: SocketAddr,
    config: ClientConfig,
    window: usize,
    stream: Option<TcpStream>,
    /// Encoded frames of in-flight operations, not yet written.
    out: Vec<u8>,
    inbound: ReadBuffer,
    next_corr: u32,
    inflight: Vec<Op>,
    done: Vec<Completion>,
    /// Where the request of a [`Self::call`] finishes.
    answer: Option<Result<Reply, NodeError>>,
    /// Salt for deterministic backoff jitter, advanced per pause.
    jitter_salt: u64,
    retries: u64,
    reconnects: u64,
    stale_replies: u64,
}

impl PipelinedClient {
    /// [`Self::connect_with`] the default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs, window: usize) -> Result<Self, NodeError> {
        Self::connect_with(addr, ClientConfig::default(), window)
    }

    /// Connects with at most `window` requests in flight (clamped to at
    /// least 1).
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Connect`] when the address does not resolve
    /// or the connection cannot be established within
    /// [`ClientConfig::connect_timeout`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
        window: usize,
    ) -> Result<Self, NodeError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(NodeError::Connect)?
            .next()
            .ok_or_else(|| NodeError::Connect(io::ErrorKind::AddrNotAvailable.into()))?;
        let window = window.max(1);
        let mut client = PipelinedClient {
            addr,
            config,
            window,
            stream: None,
            out: Vec::new(),
            // Room for a window of read replies (prefix, envelope, tag,
            // hit flag, block), up to the 64 KiB the server reads at once.
            inbound: ReadBuffer::new(window.saturating_mul(11 + BLOCK_SIZE).min(1 << 16)),
            next_corr: 0,
            inflight: Vec::new(),
            done: Vec::new(),
            answer: None,
            jitter_salt: addr.port() as u64 ^ 0xA076_1D64_78BD_642F,
            retries: 0,
            reconnects: 0,
            stale_replies: 0,
        };
        client.stream = Some(client.dial().map_err(NodeError::Connect)?);
        Ok(client)
    }

    fn dial(&self) -> io::Result<TcpStream> {
        let stream = match self.config.connect_timeout {
            Some(timeout) => TcpStream::connect_timeout(&self.addr, timeout),
            None => TcpStream::connect(self.addr),
        }?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.config.read_timeout)?;
        stream.set_write_timeout(self.config.write_timeout)?;
        Ok(stream)
    }

    /// The resolved address this client (re)connects to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests currently awaiting completion.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Transient-failure retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Reconnections after transport failures (the first connect aside).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Replies that matched no in-flight operation and were discarded.
    pub fn stale_replies(&self) -> u64 {
        self.stale_replies
    }

    /// Submits a pipelined read; returns any operations that completed
    /// while making room in the window. Never `Err`: every failure
    /// surfaces in a [`Completion`].
    pub fn read(&mut self, key: u64) -> Result<Vec<Completion>, NodeError> {
        self.submit(Request::Read { key }, Some(key));
        Ok(std::mem::take(&mut self.done))
    }

    /// Submits a pipelined write; returns any operations that completed
    /// while making room in the window. Never `Err`: every failure
    /// surfaces in a [`Completion`].
    pub fn write(
        &mut self,
        key: u64,
        data: &[u8; BLOCK_SIZE],
    ) -> Result<Vec<Completion>, NodeError> {
        let data = Box::new(*data);
        self.submit(Request::Write { key, data }, Some(key));
        Ok(std::mem::take(&mut self.done))
    }

    /// Waits for every in-flight operation and returns all completions.
    /// Never `Err`: every failure surfaces in a [`Completion`].
    pub fn drain(&mut self) -> Result<Vec<Completion>, NodeError> {
        self.settle_all();
        Ok(std::mem::take(&mut self.done))
    }

    /// Fetches appliance statistics once every operation in flight has
    /// completed (the counts include them; their [`Completion`]s stay
    /// for the next [`Self::drain`]). Fails with the typed [`NodeError`]
    /// the retries ended in.
    pub fn stats(&mut self) -> Result<NodeStats, NodeError> {
        match self.call(Request::Stats)? {
            Reply::Stats {
                read_hits,
                write_hits,
                read_misses,
                write_misses,
                allocation_writes,
                resident_blocks,
                degraded_reads,
                degraded_writes,
                mode,
            } => Ok(NodeStats {
                read_hits,
                write_hits,
                read_misses,
                write_misses,
                allocation_writes,
                resident_blocks,
                degraded_reads,
                degraded_writes,
                mode,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Flushes the node's dirty frames (write-back nodes) once every
    /// operation in flight has completed; returns how many blocks were
    /// written to the backing store. Fails as [`Self::stats`] does.
    pub fn flush(&mut self) -> Result<u64, NodeError> {
        match self.call(Request::Flush)? {
            Reply::Flush { flushed } => Ok(flushed),
            other => Err(unexpected(other)),
        }
    }

    /// Drains outstanding work, then closes the connection politely
    /// (the goodbye is best effort and never retried). Never `Err`.
    pub fn quit(mut self) -> Result<Vec<Completion>, NodeError> {
        let done = self.drain()?;
        if let Some(stream) = self.stream.as_mut() {
            Request::Quit.encode_into(&mut self.out);
            let _ = stream.write_all(&self.out);
        }
        Ok(done)
    }

    /// One request, alone in flight, and its reply: the window is
    /// settled first, then the request rides the path of any other.
    fn call(&mut self, request: Request) -> Result<Reply, NodeError> {
        self.settle_all();
        self.submit(request, None);
        self.settle_all();
        self.answer
            .take()
            .expect("a call's request finishes into `answer`")
    }

    fn settle_all(&mut self) {
        while !self.inflight.is_empty() {
            self.pump();
        }
    }

    /// Touches the socket only to make room in a full window.
    fn submit(&mut self, request: Request, key: Option<u64>) {
        while self.inflight.len() >= self.window {
            self.pump();
        }
        let corr = self.next_corr;
        self.next_corr = self.next_corr.wrapping_add(1);
        self.send(Op {
            corr,
            request,
            key,
            attempts: 1,
            started: Instant::now(),
        });
    }

    fn send(&mut self, op: Op) {
        encode_request_into(&mut self.out, Some(op.corr), &op.request);
        self.inflight.push(op);
    }

    /// The one blocking step, taken only with operations in flight:
    /// (re)dial, write everything encoded, block for replies, settle
    /// every reply that arrived. A failure fails the window's attempt.
    fn pump(&mut self) {
        if self.stream.is_none() {
            match self.dial() {
                Ok(stream) => {
                    self.stream = Some(stream);
                    self.reconnects += 1;
                    obs::count(CounterId::ClientReconnects, 1);
                }
                Err(e) => return self.fail_attempt(&e, NodeError::Connect),
            }
        }
        let stream = self.stream.as_mut().expect("just dialled");
        let arrived = stream.write_all(&self.out).and_then(|()| {
            self.out.clear();
            match self.inbound.fill(stream)? {
                0 => Err(io::ErrorKind::UnexpectedEof.into()),
                _ => Ok(()),
            }
        });
        if let Err(e) = arrived {
            return self.fail_attempt(&e, NodeError::from_transport);
        }
        while let Some(frame) = self.inbound.next_frame(PipedReply::parse) {
            match frame {
                Ok(piped) => self.settle(piped),
                // Nothing behind a malformed frame can be trusted.
                Err(e) => return self.fail_attempt(&e, NodeError::from_transport),
            }
        }
    }

    /// Routes one reply to its in-flight operation; one that matches none
    /// (its operation already completed) is counted and dropped.
    fn settle(&mut self, piped: PipedReply) {
        let Some(pos) = self.inflight.iter().position(|op| op.corr == piped.corr) else {
            self.stale_replies += 1;
            return;
        };
        let op = self.inflight.swap_remove(pos);
        let error = match piped.reply {
            Reply::Error { code, message } => match code {
                ErrorCode::Transient => NodeError::NodeTransient(message),
                ErrorCode::Deadline => NodeError::Deadline(message),
                ErrorCode::Fatal => NodeError::NodeFatal(message),
                ErrorCode::Protocol => NodeError::Protocol(message),
            },
            reply => return self.finish(op, Ok(reply)),
        };
        if let Some(op) = self.charge(op, error) {
            self.back_off(op.attempts - 1);
            self.send(op);
        }
    }

    /// Drops the failed connection and charges every operation in flight
    /// the attempt, each with its own copy of the cause (typed by
    /// `as_node`); the next [`Self::pump`] dials and sends the survivors.
    fn fail_attempt(&mut self, cause: &io::Error, as_node: fn(io::Error) -> NodeError) {
        self.stream = None;
        self.inbound.clear();
        self.out.clear();
        let mut failed_attempts = 0;
        for op in std::mem::take(&mut self.inflight) {
            let error = as_node(io::Error::new(cause.kind(), cause.to_string()));
            if let Some(op) = self.charge(op, error) {
                failed_attempts = failed_attempts.max(op.attempts - 1);
                self.send(op);
            }
        }
        if failed_attempts > 0 {
            self.back_off(failed_attempts);
        }
    }

    /// Charges `op` the attempt that just failed. Returns it for another
    /// while `error` is transient and the budget lasts; else completes
    /// it, wrapping a transient error that spent a budget of several.
    fn charge(&mut self, mut op: Op, mut error: NodeError) -> Option<Op> {
        if error.is_transient() && op.attempts < self.config.retry.attempts.max(1) {
            op.attempts += 1;
            self.retries += 1;
            obs::count(CounterId::ClientRetries, 1);
            return Some(op);
        }
        if error.is_transient() && op.attempts > 1 {
            let (attempts, last) = (op.attempts, Box::new(error));
            error = NodeError::RetriesExhausted { attempts, last };
        }
        self.finish(op, Err(error));
        None
    }

    /// Sleeps the pause that follows failed attempt number `attempt`.
    fn back_off(&mut self, attempt: u32) {
        self.jitter_salt = self.jitter_salt.wrapping_add(1);
        std::thread::sleep(self.config.retry.backoff(attempt, self.jitter_salt));
    }

    fn finish(&mut self, op: Op, result: Result<Reply, NodeError>) {
        let Some(key) = op.key else {
            self.answer = Some(result);
            return;
        };
        let result = result.and_then(|reply| match (&op.request, reply) {
            (Request::Read { .. }, Reply::Read { hit, data }) => Ok(OpResult::Read { hit, data }),
            (Request::Write { .. }, Reply::Write { hit }) => Ok(OpResult::Write { hit }),
            (_, other) => Err(unexpected(other)),
        });
        self.done.push(Completion {
            key,
            result,
            latency: op.started.elapsed(),
        });
    }
}

fn unexpected(reply: Reply) -> NodeError {
    NodeError::Protocol(format!("unexpected reply {reply:?}"))
}

/// A call-and-return connection to a [`NodeServer`](crate::NodeServer):
/// [`PipelinedClient`] at window 1, so one request is in flight at a
/// time and each method returns its reply, or the typed [`NodeError`]
/// the retries ended in.
///
/// See [`NodeServer`](crate::NodeServer) for an end-to-end example.
pub struct NodeClient(PipelinedClient);

impl std::fmt::Debug for NodeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("NodeClient").field(&self.0.addr).finish()
    }
}

impl NodeClient {
    /// [`Self::connect_with`] the default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NodeError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects to a node.
    ///
    /// # Errors
    ///
    /// [`NodeError::Connect`], as [`PipelinedClient::connect_with`].
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, NodeError> {
        PipelinedClient::connect_with(addr, config, 1).map(NodeClient)
    }

    /// The resolved address this client (re)connects to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.0.peer_addr()
    }

    /// Transient-failure retries performed so far.
    pub fn retries(&self) -> u64 {
        self.0.retries()
    }

    /// Reconnections after transport failures (the first connect aside).
    pub fn reconnects(&self) -> u64 {
        self.0.reconnects()
    }

    /// Reads one block; returns the payload and whether the cache hit.
    pub fn read_block(&mut self, key: u64) -> Result<([u8; BLOCK_SIZE], bool), NodeError> {
        match self.0.call(Request::Read { key })? {
            Reply::Read { hit, data } => Ok((*data, hit)),
            other => Err(unexpected(other)),
        }
    }

    /// Writes one block (the node applies its configured write policy);
    /// returns whether the cache held the block.
    pub fn write_block(&mut self, key: u64, data: &[u8; BLOCK_SIZE]) -> Result<bool, NodeError> {
        let data = Box::new(*data);
        match self.0.call(Request::Write { key, data })? {
            Reply::Write { hit } => Ok(hit),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches appliance statistics.
    pub fn stats(&mut self) -> Result<NodeStats, NodeError> {
        self.0.stats()
    }

    /// Flushes the node's dirty frames (write-back nodes); returns how
    /// many blocks were written to the backing store.
    pub fn flush(&mut self) -> Result<u64, NodeError> {
        self.0.flush()
    }

    /// Closes the connection politely (best effort; never `Err`).
    pub fn quit(self) -> Result<(), NodeError> {
        self.0.quit().map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_hit_ratio() {
        let s = NodeStats {
            read_hits: 3,
            write_hits: 1,
            read_misses: 4,
            write_misses: 0,
            allocation_writes: 2,
            resident_blocks: 5,
            ..NodeStats::default()
        };
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(NodeStats::default().hit_ratio(), 0.0);
        assert_eq!(NodeStats::default().mode, NodeMode::Healthy);
    }

    #[test]
    fn backoff_is_exponential_capped_and_deterministic() {
        let policy = RetryPolicy::default();
        // Jitter keeps each pause within [exp/2, exp).
        for attempt in 1..=6 {
            let exp = policy
                .base_backoff
                .saturating_mul(1 << (attempt - 1))
                .min(policy.max_backoff);
            let pause = policy.backoff(attempt, 42);
            assert!(
                pause >= exp / 2,
                "attempt {attempt}: {pause:?} < {:?}",
                exp / 2
            );
            assert!(pause < exp, "attempt {attempt}: {pause:?} >= {exp:?}");
        }
        // Same salt, same jitter: reproducible schedules.
        assert_eq!(policy.backoff(3, 7), policy.backoff(3, 7));
        // Zero base means zero pause (no panics on empty ranges).
        let zero = RetryPolicy {
            base_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        assert_eq!(zero.backoff(1, 1), Duration::ZERO);
    }

    #[test]
    fn retry_policy_none_is_single_attempt() {
        assert_eq!(RetryPolicy::none().attempts, 1);
    }

    #[test]
    fn connect_fails_cleanly_when_nothing_listens() {
        // Port 1 on localhost is essentially never bound; expect a typed
        // connect error, not a panic or a hang.
        let err = NodeClient::connect_with(
            "127.0.0.1:1",
            ClientConfig {
                connect_timeout: Some(Duration::from_millis(500)),
                ..ClientConfig::default()
            },
        )
        .expect_err("nothing listens on port 1");
        assert!(matches!(err, NodeError::Connect(_)));
    }
}
