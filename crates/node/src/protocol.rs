//! The appliance's wire protocol.
//!
//! A deliberately small, length-prefixed binary protocol for block I/O
//! through the SieveStore node (the paper assumes iSCSI; any block
//! protocol works, and this one keeps the repository self-contained):
//!
//! ```text
//! frame   :=  u32 length (LE, payload bytes) | payload
//! request :=  0x01 'R' | u64 key                      read one block
//!          |  0x02 'W' | u64 key | 512 B data         write one block
//!          |  0x03 'S'                                 fetch statistics
//!          |  0x04 'Q'                                 close connection
//!          |  0x05 'F'                                 flush dirty frames
//!          |  0x10 | u32 corr | request payload        pipelined envelope
//! reply   :=  0x81 | u8 hit | 512 B data               read reply
//!          |  0x82 | u8 hit                            write reply
//!          |  0x83 | 8 x u64 stats | u8 mode           stats reply
//!          |  0x84 | u64 flushed                       flush reply
//!          |  0xFF | u8 code | utf-8 message           error
//!          |  0x90 | u32 corr | reply payload          pipelined envelope
//! ```
//!
//! Error replies carry an [`ErrorCode`] so clients can distinguish
//! retryable conditions (a backing-store hiccup, an overrun deadline)
//! from permanent ones without parsing prose.
//!
//! # Pipelining
//!
//! A pipelined envelope ([`PipedRequest`] / [`PipedReply`]) wraps the
//! ordinary request/reply payload in a 32-bit **correlation id** chosen
//! by the client. Many enveloped requests may be in flight on one
//! connection, and the server may answer them **in any order** — each
//! reply carries its request's correlation id back, including `0xFF`
//! error replies, which ride inside the envelope like any other reply.
//! Plain (un-enveloped) requests keep their strict one-at-a-time,
//! in-order semantics, and both framings may share a connection.
//!
//! Encoding and decoding are symmetric and fully covered by round-trip
//! tests, including property tests over arbitrary payloads and
//! interleaved envelopes.

use std::io::{self, Read, Write};

use sievestore_types::{ErrorClass, BLOCK_SIZE};

/// Maximum accepted frame payload (guards against corrupt lengths).
pub const MAX_FRAME: u32 = 4096;

/// A client-to-node request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read one 512-byte block.
    Read {
        /// Packed global block key.
        key: u64,
    },
    /// Write one 512-byte block (the node applies its write policy).
    Write {
        /// Packed global block key.
        key: u64,
        /// Block payload.
        data: Box<[u8; BLOCK_SIZE]>,
    },
    /// Fetch appliance statistics.
    Stats,
    /// Close the connection.
    Quit,
    /// Flush dirty frames to the backing store (write-back nodes).
    Flush,
}

/// Why the node rejected a request, as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// A momentary failure (backing hiccup); the client should retry.
    Transient,
    /// A permanent failure; retrying will not help.
    Fatal,
    /// The client violated the wire protocol.
    Protocol,
    /// The request overran its server-side deadline.
    Deadline,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Transient => 0x01,
            ErrorCode::Fatal => 0x02,
            ErrorCode::Protocol => 0x03,
            ErrorCode::Deadline => 0x04,
        }
    }

    fn from_u8(byte: u8) -> io::Result<Self> {
        match byte {
            0x01 => Ok(ErrorCode::Transient),
            0x02 => Ok(ErrorCode::Fatal),
            0x03 => Ok(ErrorCode::Protocol),
            0x04 => Ok(ErrorCode::Deadline),
            other => Err(bad(format!("unknown error code {other:#x}"))),
        }
    }

    /// How a client should treat this error.
    pub fn class(self) -> ErrorClass {
        match self {
            ErrorCode::Transient | ErrorCode::Deadline => ErrorClass::Transient,
            ErrorCode::Fatal => ErrorClass::Fatal,
            ErrorCode::Protocol => ErrorClass::Protocol,
        }
    }
}

/// The node's health as reported in stats replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeMode {
    /// Normal operation: the cache allocates and serves hits.
    #[default]
    Healthy,
    /// Circuit breaker open: requests pass through to the ensemble and
    /// no frames are allocated.
    Degraded,
    /// The breaker is about to probe the cache path with a live request.
    Probing,
}

impl NodeMode {
    fn to_u8(self) -> u8 {
        match self {
            NodeMode::Healthy => 0,
            NodeMode::Degraded => 1,
            NodeMode::Probing => 2,
        }
    }

    fn from_u8(byte: u8) -> io::Result<Self> {
        match byte {
            0 => Ok(NodeMode::Healthy),
            1 => Ok(NodeMode::Degraded),
            2 => Ok(NodeMode::Probing),
            other => Err(bad(format!("unknown node mode {other:#x}"))),
        }
    }
}

/// A node-to-client reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Data for a read; `hit` tells whether the cache served it.
    Read {
        /// Whether the SSD cache served the block.
        hit: bool,
        /// Block payload.
        data: Box<[u8; BLOCK_SIZE]>,
    },
    /// Acknowledgement of a write; `hit` tells whether the cache held it.
    Write {
        /// Whether the block was resident in the cache.
        hit: bool,
    },
    /// Aggregate appliance counters.
    Stats {
        /// Read hits.
        read_hits: u64,
        /// Write hits.
        write_hits: u64,
        /// Read misses.
        read_misses: u64,
        /// Write misses.
        write_misses: u64,
        /// Allocation-writes performed.
        allocation_writes: u64,
        /// Blocks currently resident.
        resident_blocks: u64,
        /// Requests served in degraded pass-through mode (reads).
        degraded_reads: u64,
        /// Requests served in degraded pass-through mode (writes).
        degraded_writes: u64,
        /// The node's current health mode.
        mode: NodeMode,
    },
    /// Acknowledgement of a flush with the number of blocks written back.
    Flush {
        /// Dirty frames written to the backing store.
        flushed: u64,
    },
    /// The node rejected the request.
    Error {
        /// Machine-readable classification.
        code: ErrorCode,
        /// Human-readable reason.
        message: String,
    },
}

/// Tag opening a pipelined request envelope (`0x10 | u32 corr | payload`).
const PIPED_REQUEST_TAG: u8 = 0x10;
/// Tag opening a pipelined reply envelope (`0x90 | u32 corr | payload`).
const PIPED_REPLY_TAG: u8 = 0x90;

/// Appends one length-prefixed frame to `buf` without touching I/O:
/// the prefix is reserved, `body` pushes the payload straight into the
/// caller's buffer, and the prefix is back-patched with its length — no
/// temporary per frame. The batched (pipelined) paths build many frames
/// and issue a single `write_all`, amortizing syscalls.
fn frame_into(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let prefix = buf.len();
    buf.extend_from_slice(&[0; 4]);
    body(buf);
    let len = (buf.len() - prefix - 4) as u32;
    buf[prefix..prefix + 4].copy_from_slice(&len.to_le_bytes());
}

/// Writes the one frame `encode_into` appends, then flushes: the I/O
/// flavor of the four `encode_into` functions.
fn write_encoded<W: Write>(out: &mut W, encode_into: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let mut frame = Vec::new();
    encode_into(&mut frame);
    out.write_all(&frame)?;
    out.flush()
}

/// Pushes an envelope header: the tag and the correlation id.
fn push_envelope(buf: &mut Vec<u8>, tag: u8, corr: u32) {
    buf.push(tag);
    buf.extend_from_slice(&corr.to_le_bytes());
}

fn read_frame<R: Read>(input: &mut R) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    input.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    input.read_exact(&mut payload)?;
    Ok(payload)
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Request {
    /// Pushes the request's frame payload (tag byte onward, no length
    /// prefix).
    fn push_body(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Read { key } => {
                buf.push(0x01);
                buf.extend_from_slice(&key.to_le_bytes());
            }
            Request::Write { key, data } => {
                buf.push(0x02);
                buf.extend_from_slice(&key.to_le_bytes());
                buf.extend_from_slice(&data[..]);
            }
            Request::Stats => buf.push(0x03),
            Request::Quit => buf.push(0x04),
            Request::Flush => buf.push(0x05),
        }
    }

    /// Parses a request frame payload (tag byte onward).
    fn parse(p: &[u8]) -> io::Result<Self> {
        if p.is_empty() {
            return Err(bad("empty request payload"));
        }
        match p[0] {
            0x01 => {
                if p.len() != 9 {
                    return Err(bad("read frame must be 9 bytes"));
                }
                Ok(Request::Read {
                    key: u64::from_le_bytes(p[1..9].try_into().expect("8 bytes")),
                })
            }
            0x02 => {
                if p.len() != 9 + BLOCK_SIZE {
                    return Err(bad("write frame must carry one block"));
                }
                let mut data = Box::new([0u8; BLOCK_SIZE]);
                data.copy_from_slice(&p[9..]);
                Ok(Request::Write {
                    key: u64::from_le_bytes(p[1..9].try_into().expect("8 bytes")),
                    data,
                })
            }
            0x03 => Ok(Request::Stats),
            0x04 => Ok(Request::Quit),
            0x05 => Ok(Request::Flush),
            tag => Err(bad(format!("unknown request tag {tag:#x}"))),
        }
    }

    /// Serializes the request as one frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn encode<W: Write>(&self, out: &mut W) -> io::Result<()> {
        write_encoded(out, |buf| self.encode_into(buf))
    }

    /// Appends the request's frame to `buf` (no I/O, no flush) for
    /// batched pipelined writes.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_request_into(buf, None, self);
    }

    /// Reads and parses one request frame.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed frames; propagates I/O errors
    /// (including `UnexpectedEof` when the peer disconnects).
    pub fn decode<R: Read>(input: &mut R) -> io::Result<Self> {
        let p = read_frame(input)?;
        Self::parse(&p)
    }
}

/// A request wrapped in a pipelined envelope: the client-chosen
/// correlation id rides with the request and comes back on its reply,
/// so many requests can be in flight per connection and complete out of
/// order. See the [module docs](self) for the framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipedRequest {
    /// Client-chosen correlation id echoed on the matching reply.
    pub corr: u32,
    /// The wrapped request.
    pub request: Request,
}

/// Appends `request`'s frame to `buf`, inside a pipelined envelope when
/// `corr` is given — the client's send path, which holds the request by
/// reference and never builds a [`PipedRequest`].
pub(crate) fn encode_request_into(buf: &mut Vec<u8>, corr: Option<u32>, request: &Request) {
    frame_into(buf, |p| {
        if let Some(corr) = corr {
            push_envelope(p, PIPED_REQUEST_TAG, corr);
        }
        request.push_body(p);
    });
}

impl PipedRequest {
    fn parse(p: &[u8]) -> io::Result<Self> {
        if p.len() < 6 || p[0] != PIPED_REQUEST_TAG {
            return Err(bad("piped request envelope must carry corr + payload"));
        }
        Ok(PipedRequest {
            corr: u32::from_le_bytes(p[1..5].try_into().expect("4 bytes")),
            request: Request::parse(&p[5..])?,
        })
    }

    /// Serializes the envelope as one frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn encode<W: Write>(&self, out: &mut W) -> io::Result<()> {
        write_encoded(out, |buf| self.encode_into(buf))
    }

    /// Appends the envelope's frame to `buf` (no I/O, no flush).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_request_into(buf, Some(self.corr), &self.request);
    }
}

/// One decoded inbound frame on a server connection: either a plain
/// in-order request or a pipelined envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Incoming {
    /// A plain request with strict in-order reply semantics.
    Plain(Request),
    /// An enveloped request that may complete out of order.
    Piped(PipedRequest),
}

impl Incoming {
    /// Parses a frame payload as either framing.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed frames of either kind.
    pub fn parse(p: &[u8]) -> io::Result<Self> {
        if p.first() == Some(&PIPED_REQUEST_TAG) {
            Ok(Incoming::Piped(PipedRequest::parse(p)?))
        } else {
            Ok(Incoming::Plain(Request::parse(p)?))
        }
    }

    /// Reads and parses one frame of either framing.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed frames; propagates I/O errors
    /// (including `UnexpectedEof` when the peer disconnects).
    pub fn decode<R: Read>(input: &mut R) -> io::Result<Self> {
        let p = read_frame(input)?;
        Self::parse(&p)
    }
}

/// Attempts to split one complete frame off the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a full frame,
/// or `Some((consumed, payload_range))` where `consumed` counts the
/// length prefix plus payload and `payload_range` indexes the payload
/// bytes inside `buf`. Server and client walk a connection's inbound
/// bytes with this.
///
/// # Errors
///
/// Returns `InvalidData` for out-of-bounds frame lengths.
pub fn split_frame(buf: &[u8]) -> io::Result<Option<(usize, std::ops::Range<usize>)>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
    if len == 0 || len > MAX_FRAME {
        return Err(bad(format!("frame length {len} outside 1..={MAX_FRAME}")));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((total, 4..total)))
}

/// One connection's unparsed inbound bytes, `buf[start..end]`: the frame
/// reader both ends of a connection use. [`Self::fill`] blocks in one
/// `read`; [`Self::next_frame`] then hands out, parsed in place, every
/// frame that read delivered.
pub(crate) struct ReadBuffer {
    buf: Box<[u8]>,
    start: usize,
    end: usize,
}

impl ReadBuffer {
    /// A buffer of `capacity` bytes, and never less than one frame of
    /// the largest legal size.
    pub(crate) fn new(capacity: usize) -> Self {
        ReadBuffer {
            buf: vec![0; capacity.max(4 + MAX_FRAME as usize)].into_boxed_slice(),
            start: 0,
            end: 0,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Forgets the buffered bytes (their connection is gone).
    pub(crate) fn clear(&mut self) {
        (self.start, self.end) = (0, 0);
    }

    /// Blocks until the stream yields more bytes; `Ok(0)` is EOF.
    pub(crate) fn fill(&mut self, stream: &mut impl Read) -> io::Result<usize> {
        if self.is_empty() {
            self.clear();
        } else if self.buf.len() - self.end < 4 + MAX_FRAME as usize {
            // Keep room for the rest of the largest frame.
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        loop {
            match stream.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Splits the next complete frame off the front and parses its
    /// payload with `parse`; `None` when the buffer holds no complete
    /// frame.
    pub(crate) fn next_frame<T>(
        &mut self,
        parse: impl FnOnce(&[u8]) -> io::Result<T>,
    ) -> Option<io::Result<T>> {
        let pending = &self.buf[self.start..self.end];
        match split_frame(pending) {
            Ok(None) => None,
            Ok(Some((consumed, payload))) => {
                let parsed = parse(&pending[payload]);
                self.start += consumed;
                Some(parsed)
            }
            Err(e) => Some(Err(e)),
        }
    }
}

/// Pushes a read reply's payload straight from the block it answers
/// with.
fn push_read_body(buf: &mut Vec<u8>, hit: bool, data: &[u8; BLOCK_SIZE]) {
    buf.extend_from_slice(&[0x81, hit as u8]);
    buf.extend_from_slice(data);
}

/// Pushes one reply's frame payload: the envelope header when the
/// request carried a correlation id, then whatever `body` pushes.
fn push_reply(buf: &mut Vec<u8>, corr: Option<u32>, body: impl FnOnce(&mut Vec<u8>)) {
    if let Some(corr) = corr {
        push_envelope(buf, PIPED_REPLY_TAG, corr);
    }
    body(buf);
}

/// Appends `reply`'s frame to `buf` — the server's reply path, which
/// holds the reply by reference and never builds a [`PipedReply`].
pub(crate) fn encode_reply_into(buf: &mut Vec<u8>, corr: Option<u32>, reply: &Reply) {
    frame_into(buf, |p| push_reply(p, corr, |p| reply.push_body(p)));
}

/// Appends a read reply's frame to `buf` straight from a borrowed block
/// (a cache frame): one copy, no `Box`, byte-identical to
/// [`encode_reply_into`] over the equivalent [`Reply::Read`].
pub(crate) fn encode_read_into(
    buf: &mut Vec<u8>,
    corr: Option<u32>,
    hit: bool,
    data: &[u8; BLOCK_SIZE],
) {
    frame_into(buf, |p| {
        push_reply(p, corr, |p| push_read_body(p, hit, data))
    });
}

impl Reply {
    /// Pushes the reply's frame payload (tag byte onward, no length
    /// prefix).
    fn push_body(&self, buf: &mut Vec<u8>) {
        match self {
            Reply::Read { hit, data } => push_read_body(buf, *hit, data),
            Reply::Write { hit } => buf.extend_from_slice(&[0x82, *hit as u8]),
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
            } => {
                buf.push(0x83);
                for v in [
                    read_hits,
                    write_hits,
                    read_misses,
                    write_misses,
                    allocation_writes,
                    resident_blocks,
                    degraded_reads,
                    degraded_writes,
                ] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                buf.push(mode.to_u8());
            }
            Reply::Flush { flushed } => {
                buf.push(0x84);
                buf.extend_from_slice(&flushed.to_le_bytes());
            }
            Reply::Error { code, message } => {
                // Error messages must never themselves overflow a frame
                // (pipelined envelopes add 5 bytes of header on top).
                let message = &message.as_bytes()[..message.len().min(MAX_FRAME as usize - 7)];
                buf.extend_from_slice(&[0xFF, code.to_u8()]);
                buf.extend_from_slice(message);
            }
        }
    }

    /// Parses a reply frame payload (tag byte onward).
    fn parse(p: &[u8]) -> io::Result<Self> {
        if p.is_empty() {
            return Err(bad("empty reply payload"));
        }
        match p[0] {
            0x81 => {
                if p.len() != 2 + BLOCK_SIZE {
                    return Err(bad("read reply must carry one block"));
                }
                let mut data = Box::new([0u8; BLOCK_SIZE]);
                data.copy_from_slice(&p[2..]);
                Ok(Reply::Read {
                    hit: p[1] != 0,
                    data,
                })
            }
            0x82 => {
                if p.len() != 2 {
                    return Err(bad("write reply must be 2 bytes"));
                }
                Ok(Reply::Write { hit: p[1] != 0 })
            }
            0x83 => {
                if p.len() != 66 {
                    return Err(bad("stats reply must be 66 bytes"));
                }
                let field = |i: usize| {
                    u64::from_le_bytes(p[1 + i * 8..9 + i * 8].try_into().expect("8 bytes"))
                };
                Ok(Reply::Stats {
                    read_hits: field(0),
                    write_hits: field(1),
                    read_misses: field(2),
                    write_misses: field(3),
                    allocation_writes: field(4),
                    resident_blocks: field(5),
                    degraded_reads: field(6),
                    degraded_writes: field(7),
                    mode: NodeMode::from_u8(p[65])?,
                })
            }
            0x84 => {
                if p.len() != 9 {
                    return Err(bad("flush reply must be 9 bytes"));
                }
                Ok(Reply::Flush {
                    flushed: u64::from_le_bytes(p[1..9].try_into().expect("8 bytes")),
                })
            }
            0xFF => {
                if p.len() < 2 {
                    return Err(bad("error reply must carry a code"));
                }
                Ok(Reply::Error {
                    code: ErrorCode::from_u8(p[1])?,
                    message: String::from_utf8_lossy(&p[2..]).into_owned(),
                })
            }
            tag => Err(bad(format!("unknown reply tag {tag:#x}"))),
        }
    }

    /// Serializes the reply as one frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn encode<W: Write>(&self, out: &mut W) -> io::Result<()> {
        write_encoded(out, |buf| self.encode_into(buf))
    }

    /// Appends the reply's frame to `buf` (no I/O, no flush) for
    /// batched pipelined writes.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_reply_into(buf, None, self);
    }

    /// Reads and parses one reply frame.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed frames; propagates I/O errors.
    pub fn decode<R: Read>(input: &mut R) -> io::Result<Self> {
        let p = read_frame(input)?;
        Self::parse(&p)
    }
}

/// A reply wrapped in a pipelined envelope, carrying its request's
/// correlation id back to the client. Error replies (`0xFF`) ride the
/// envelope like any other reply, so a failed pipelined request fails
/// only its own correlation id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipedReply {
    /// The correlation id of the request this reply answers.
    pub corr: u32,
    /// The wrapped reply.
    pub reply: Reply,
}

impl PipedReply {
    /// Parses a reply-envelope frame payload.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` unless the payload is a well-formed
    /// envelope wrapping a well-formed reply.
    pub fn parse(p: &[u8]) -> io::Result<Self> {
        if p.len() < 6 || p[0] != PIPED_REPLY_TAG {
            return Err(bad("piped reply envelope must carry corr + payload"));
        }
        Ok(PipedReply {
            corr: u32::from_le_bytes(p[1..5].try_into().expect("4 bytes")),
            reply: Reply::parse(&p[5..])?,
        })
    }

    /// Serializes the envelope as one frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn encode<W: Write>(&self, out: &mut W) -> io::Result<()> {
        write_encoded(out, |buf| self.encode_into(buf))
    }

    /// Appends the envelope's frame to `buf` (no I/O, no flush).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_reply_into(buf, Some(self.corr), &self.reply);
    }

    /// Reads and parses one reply-envelope frame.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed frames; propagates I/O errors.
    pub fn decode<R: Read>(input: &mut R) -> io::Result<Self> {
        let p = read_frame(input)?;
        Self::parse(&p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_request(req: &Request) -> Request {
        let mut bytes = Vec::new();
        req.encode(&mut bytes).expect("vec write");
        Request::decode(&mut bytes.as_slice()).expect("own encoding decodes")
    }

    fn roundtrip_reply(reply: &Reply) -> Reply {
        let mut bytes = Vec::new();
        reply.encode(&mut bytes).expect("vec write");
        Reply::decode(&mut bytes.as_slice()).expect("own encoding decodes")
    }

    #[test]
    fn request_roundtrips() {
        let data = Box::new([0xAB; BLOCK_SIZE]);
        for req in [
            Request::Read { key: 42 },
            Request::Write { key: 7, data },
            Request::Stats,
            Request::Quit,
            Request::Flush,
        ] {
            assert_eq!(roundtrip_request(&req), req);
        }
    }

    #[test]
    fn reply_roundtrips() {
        let data = Box::new([0x5A; BLOCK_SIZE]);
        for reply in [
            Reply::Read { hit: true, data },
            Reply::Write { hit: false },
            Reply::Stats {
                read_hits: 1,
                write_hits: 2,
                read_misses: 3,
                write_misses: 4,
                allocation_writes: 5,
                resident_blocks: 6,
                degraded_reads: 7,
                degraded_writes: 8,
                mode: NodeMode::Degraded,
            },
            Reply::Flush { flushed: 12 },
            Reply::Error {
                code: ErrorCode::Transient,
                message: "no".into(),
            },
            Reply::Error {
                code: ErrorCode::Deadline,
                message: String::new(),
            },
        ] {
            assert_eq!(roundtrip_reply(&reply), reply);
        }
    }

    #[test]
    fn error_codes_classify_for_retry() {
        use sievestore_types::ErrorClass;
        assert_eq!(ErrorCode::Transient.class(), ErrorClass::Transient);
        assert_eq!(ErrorCode::Deadline.class(), ErrorClass::Transient);
        assert_eq!(ErrorCode::Fatal.class(), ErrorClass::Fatal);
        assert_eq!(ErrorCode::Protocol.class(), ErrorClass::Protocol);
    }

    #[test]
    fn oversized_error_messages_are_truncated_to_fit() {
        let reply = Reply::Error {
            code: ErrorCode::Fatal,
            message: "x".repeat(2 * MAX_FRAME as usize),
        };
        let mut bytes = Vec::new();
        reply.encode(&mut bytes).expect("encode truncates");
        match Reply::decode(&mut bytes.as_slice()).expect("decodes") {
            Reply::Error { code, message } => {
                assert_eq!(code, ErrorCode::Fatal);
                // Truncated so that even the 5-byte pipelined envelope
                // header cannot push the frame past MAX_FRAME.
                assert_eq!(message.len(), MAX_FRAME as usize - 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        let piped = PipedReply {
            corr: u32::MAX,
            reply: Reply::Error {
                code: ErrorCode::Fatal,
                message: "x".repeat(2 * MAX_FRAME as usize),
            },
        };
        let mut bytes = Vec::new();
        piped.encode(&mut bytes).expect("enveloped error encodes");
        assert!(bytes.len() <= 4 + MAX_FRAME as usize);
        PipedReply::decode(&mut bytes.as_slice()).expect("enveloped error decodes");
    }

    #[test]
    fn piped_envelopes_roundtrip() {
        let data = Box::new([0x5A; BLOCK_SIZE]);
        for (corr, request) in [
            (0u32, Request::Read { key: 42 }),
            (
                u32::MAX,
                Request::Write {
                    key: 7,
                    data: data.clone(),
                },
            ),
            (7, Request::Stats),
            (8, Request::Flush),
        ] {
            let piped = PipedRequest { corr, request };
            let mut bytes = Vec::new();
            piped.encode(&mut bytes).expect("vec write");
            assert_eq!(
                PipedRequest::parse(&bytes[4..]).expect("own encoding parses"),
                piped
            );
            match Incoming::decode(&mut bytes.as_slice()).expect("incoming decodes") {
                Incoming::Piped(got) => assert_eq!(got, piped),
                other => panic!("unexpected {other:?}"),
            }
        }
        for (corr, reply) in [
            (3u32, Reply::Read { hit: true, data }),
            (4, Reply::Write { hit: false }),
            (
                5,
                Reply::Error {
                    code: ErrorCode::Deadline,
                    message: "late".into(),
                },
            ),
        ] {
            let piped = PipedReply { corr, reply };
            let mut bytes = Vec::new();
            piped.encode(&mut bytes).expect("vec write");
            assert_eq!(
                PipedReply::decode(&mut bytes.as_slice()).expect("decodes"),
                piped
            );
        }
    }

    #[test]
    fn plain_frames_decode_as_incoming_plain() {
        let mut bytes = Vec::new();
        Request::Read { key: 9 }.encode(&mut bytes).unwrap();
        assert_eq!(
            Incoming::decode(&mut bytes.as_slice()).unwrap(),
            Incoming::Plain(Request::Read { key: 9 })
        );
    }

    #[test]
    fn split_frame_handles_partial_and_complete_buffers() {
        let mut bytes = Vec::new();
        Request::Read { key: 5 }.encode_into(&mut bytes);
        Request::Stats.encode_into(&mut bytes);
        // Every strict prefix of the first frame wants more bytes.
        for cut in 0..13 {
            assert!(split_frame(&bytes[..cut])
                .expect("prefix is clean")
                .is_none());
        }
        let (consumed, range) = split_frame(&bytes).expect("complete").expect("frame");
        assert_eq!(consumed, 13);
        assert_eq!(
            Request::parse(&bytes[range]).expect("parses"),
            Request::Read { key: 5 }
        );
        let rest = &bytes[consumed..];
        let (consumed, range) = split_frame(rest).expect("complete").expect("frame");
        assert_eq!(
            Request::parse(&rest[range]).expect("parses"),
            Request::Stats
        );
        assert_eq!(consumed, rest.len());
        // Corrupt lengths are rejected, not buffered forever.
        assert!(split_frame(&0u32.to_le_bytes()).is_err());
        assert!(split_frame(&(MAX_FRAME + 1).to_le_bytes()).is_err());
    }

    #[test]
    fn bad_frames_are_rejected() {
        // Zero length.
        let z = 0u32.to_le_bytes();
        assert!(Request::decode(&mut z.as_slice()).is_err());
        // Oversized length.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(Request::decode(&mut huge.as_slice()).is_err());
        // Unknown tag.
        let mut bytes = Vec::new();
        frame_into(&mut bytes, |p| p.extend_from_slice(&[0x7E]));
        assert!(Request::decode(&mut bytes.as_slice()).is_err());
        // Truncated read request.
        let mut bytes = Vec::new();
        frame_into(&mut bytes, |p| p.extend_from_slice(&[0x01, 1, 2]));
        assert!(Request::decode(&mut bytes.as_slice()).is_err());
        // Write without a full block.
        let mut bytes = Vec::new();
        frame_into(&mut bytes, |p| p.extend_from_slice(&[0x02; 20]));
        assert!(Request::decode(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn eof_surfaces_as_io_error() {
        let empty: &[u8] = &[];
        let err = Request::decode(&mut &*empty).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut bytes = Vec::new();
        Request::Read { key: 1 }.encode(&mut bytes).unwrap();
        Request::Stats.encode(&mut bytes).unwrap();
        Request::Quit.encode(&mut bytes).unwrap();
        let mut cursor = bytes.as_slice();
        assert_eq!(
            Request::decode(&mut cursor).unwrap(),
            Request::Read { key: 1 }
        );
        assert_eq!(Request::decode(&mut cursor).unwrap(), Request::Stats);
        assert_eq!(Request::decode(&mut cursor).unwrap(), Request::Quit);
    }

    proptest! {
        #[test]
        fn arbitrary_writes_roundtrip(key in any::<u64>(), bytes in proptest::collection::vec(any::<u8>(), BLOCK_SIZE)) {
            let mut data = Box::new([0u8; BLOCK_SIZE]);
            data.copy_from_slice(&bytes);
            let req = Request::Write { key, data };
            prop_assert_eq!(roundtrip_request(&req), req);
        }

        #[test]
        fn error_messages_roundtrip(message in "[a-zA-Z0-9 .!?]{0,200}") {
            let reply = Reply::Error { code: ErrorCode::Transient, message: message.clone() };
            prop_assert_eq!(
                roundtrip_reply(&reply),
                Reply::Error { code: ErrorCode::Transient, message }
            );
        }

        /// Arbitrary bytes must never panic the request decoder: every
        /// outcome is a clean `Ok` or `Err`.
        #[test]
        fn request_decoder_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
            let _ = Request::decode(&mut bytes.as_slice());
        }

        /// Same for the reply decoder (the client's exposure).
        #[test]
        fn reply_decoder_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
            let _ = Reply::decode(&mut bytes.as_slice());
        }

        /// Length-prefixed garbage within frame bounds decodes to an
        /// error or a request, never a panic; lengths beyond MAX_FRAME
        /// are always rejected.
        #[test]
        fn framed_garbage_never_panics(
            len in 0u32..(MAX_FRAME * 2),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(&payload);
            let result = Request::decode(&mut bytes.as_slice());
            if len == 0 || len > MAX_FRAME {
                prop_assert!(result.is_err(), "out-of-bounds length must be rejected");
            }
        }

        /// Correlation ids survive the envelope round trip for every
        /// request kind and arbitrary payloads.
        #[test]
        fn piped_requests_roundtrip(
            corr in any::<u32>(),
            key in any::<u64>(),
            bytes in proptest::collection::vec(any::<u8>(), BLOCK_SIZE),
            kind in 0u8..4,
        ) {
            let mut data = Box::new([0u8; BLOCK_SIZE]);
            data.copy_from_slice(&bytes);
            let request = match kind {
                0 => Request::Read { key },
                1 => Request::Write { key, data },
                2 => Request::Stats,
                _ => Request::Flush,
            };
            let piped = PipedRequest { corr, request };
            let mut encoded = Vec::new();
            piped.encode(&mut encoded).expect("vec write");
            match Incoming::decode(&mut encoded.as_slice()).expect("decodes") {
                Incoming::Piped(got) => prop_assert_eq!(got, piped),
                other => prop_assert!(false, "decoded as plain: {:?}", other),
            }
        }

        /// A batch of enveloped replies completed in ANY order decodes
        /// back to exactly the sent (corr, reply) pairs — including 0xFF
        /// error replies — so out-of-order pipelined completion loses
        /// nothing.
        #[test]
        fn interleaved_piped_replies_roundtrip_out_of_order(
            corrs in proptest::collection::vec(any::<u32>(), 1..20),
            rot in any::<usize>(),
        ) {
            let replies: Vec<PipedReply> = corrs
                .iter()
                .enumerate()
                .map(|(i, &corr)| PipedReply {
                    corr,
                    reply: match i % 3 {
                        0 => Reply::Write { hit: i % 2 == 0 },
                        1 => Reply::Read {
                            hit: false,
                            data: Box::new([i as u8; BLOCK_SIZE]),
                        },
                        _ => Reply::Error {
                            code: ErrorCode::Transient,
                            message: format!("injected {i}"),
                        },
                    },
                })
                .collect();
            // Complete in rotated (out-of-order) sequence.
            let rot = rot % replies.len();
            let mut buf = Vec::new();
            for r in replies[rot..].iter().chain(&replies[..rot]) {
                r.encode_into(&mut buf);
            }
            let mut cursor = buf.as_slice();
            let mut seen = Vec::new();
            while !cursor.is_empty() {
                seen.push(PipedReply::decode(&mut cursor).expect("decodes"));
            }
            let mut expect: Vec<PipedReply> =
                replies[rot..].iter().chain(&replies[..rot]).cloned().collect();
            prop_assert_eq!(seen.len(), expect.len());
            for (got, want) in seen.iter().zip(expect.drain(..)) {
                prop_assert_eq!(got, &want);
            }
        }

        /// `split_frame` over an arbitrary concatenation of frames plus a
        /// truncated tail yields exactly the whole frames, then `None`.
        #[test]
        fn split_frame_recovers_concatenated_frames(
            keys in proptest::collection::vec(any::<u64>(), 0..8),
            tail in 0usize..13,
        ) {
            let mut buf = Vec::new();
            for &key in &keys {
                PipedRequest { corr: key as u32, request: Request::Read { key } }
                    .encode_into(&mut buf);
            }
            let mut partial = Vec::new();
            Request::Read { key: 1 }.encode_into(&mut partial);
            buf.extend_from_slice(&partial[..tail]);
            let mut off = 0;
            let mut frames = 0;
            while let Some((consumed, range)) = split_frame(&buf[off..]).expect("clean") {
                let payload = &buf[off..][range];
                match Incoming::parse(payload).expect("parses") {
                    Incoming::Piped(p) => prop_assert_eq!(p.request, Request::Read { key: keys[frames] }),
                    Incoming::Plain(_) => prop_assert!(frames == keys.len()),
                }
                off += consumed;
                frames += 1;
                if frames > keys.len() { break; }
            }
            prop_assert!(frames >= keys.len());
        }

        /// Truncating a valid frame at any point yields an error (EOF or
        /// invalid data), never a panic or a bogus success.
        #[test]
        fn truncated_frames_error_cleanly(key in any::<u64>(), cut in 0usize..12) {
            let mut bytes = Vec::new();
            Request::Read { key }.encode(&mut bytes).expect("vec write");
            let cut = cut.min(bytes.len().saturating_sub(1));
            let truncated = &bytes[..cut];
            prop_assert!(Request::decode(&mut &*truncated).is_err());
        }
    }
}

/// Pins for the wire format itself: the encoders write into caller
/// buffers behind a back-patched length prefix, and nothing about the
/// bytes may move.
#[cfg(test)]
mod wire_format {
    use super::*;
    use proptest::prelude::*;

    fn request_of(kind: u8, key: u64, fill: &[u8]) -> Request {
        match kind % 5 {
            0 => Request::Read { key },
            1 => {
                let mut data = Box::new([0u8; BLOCK_SIZE]);
                data.copy_from_slice(fill);
                Request::Write { key, data }
            }
            2 => Request::Stats,
            3 => Request::Quit,
            _ => Request::Flush,
        }
    }

    fn reply_of(kind: u8, v: u64, fill: &[u8], message_len: usize) -> Reply {
        match kind % 5 {
            0 => {
                let mut data = Box::new([0u8; BLOCK_SIZE]);
                data.copy_from_slice(fill);
                Reply::Read {
                    hit: v.is_multiple_of(2),
                    data,
                }
            }
            1 => Reply::Write {
                hit: v.is_multiple_of(2),
            },
            2 => Reply::Stats {
                read_hits: v,
                write_hits: v.rotate_left(8),
                read_misses: v.rotate_left(16),
                write_misses: v.rotate_left(24),
                allocation_writes: v.rotate_left(32),
                resident_blocks: v.rotate_left(40),
                degraded_reads: v.rotate_left(48),
                degraded_writes: v.rotate_left(56),
                mode: [NodeMode::Healthy, NodeMode::Degraded, NodeMode::Probing][(v % 3) as usize],
            },
            3 => Reply::Flush { flushed: v },
            _ => Reply::Error {
                code: [
                    ErrorCode::Transient,
                    ErrorCode::Fatal,
                    ErrorCode::Protocol,
                    ErrorCode::Deadline,
                ][(v % 4) as usize],
                message: "e".repeat(message_len),
            },
        }
    }

    /// `encode` into an empty writer.
    fn written(encode: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode(&mut bytes).expect("vec write");
        bytes
    }

    /// `encode_into` behind bytes already in the buffer, which it must
    /// leave alone (the length prefix is patched in place).
    fn appended(encode_into: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut buf = vec![0xEE; 3];
        encode_into(&mut buf);
        assert_eq!(buf[..3], [0xEE; 3]);
        buf.split_off(3)
    }

    proptest! {
        /// `encode_into` ≡ `encode`, byte for byte, for every request
        /// and reply variant, plain and enveloped — error messages past
        /// the truncation budget included — and each frame's prefix is
        /// its payload's length.
        #[test]
        fn encode_into_matches_encode_for_every_variant(
            kind in 0u8..5,
            corr in any::<u32>(),
            v in any::<u64>(),
            fill in proptest::collection::vec(any::<u8>(), BLOCK_SIZE),
            message_len in 0usize..(2 * MAX_FRAME as usize),
        ) {
            let request = request_of(kind, v, &fill);
            let reply = reply_of(kind, v, &fill, message_len);
            let piped_request = PipedRequest { corr, request: request.clone() };
            let piped_reply = PipedReply { corr, reply: reply.clone() };
            let pairs = [
                (written(|w| request.encode(w)), appended(|b| request.encode_into(b))),
                (written(|w| piped_request.encode(w)), appended(|b| piped_request.encode_into(b))),
                (written(|w| reply.encode(w)), appended(|b| reply.encode_into(b))),
                (written(|w| piped_reply.encode(w)), appended(|b| piped_reply.encode_into(b))),
            ];
            for (encoded, appended) in &pairs {
                prop_assert_eq!(encoded, appended);
                let len = u32::from_le_bytes(encoded[..4].try_into().expect("prefix"));
                prop_assert_eq!(len as usize, encoded.len() - 4);
                prop_assert!(len <= MAX_FRAME);
            }
            // The server's by-reference reply path writes the same bytes.
            for corr in [None, Some(corr)] {
                let by_ref = appended(|b| encode_reply_into(b, corr, &reply));
                prop_assert_eq!(&by_ref, if corr.is_some() { &pairs[3].0 } else { &pairs[2].0 });
                if let Reply::Read { hit, data } = &reply {
                    prop_assert_eq!(appended(|b| encode_read_into(b, corr, *hit, data)), by_ref);
                }
            }
        }
    }

    /// One committed vector per frame type.
    #[test]
    fn golden_bytes_per_frame_type() {
        let key = 0x0102_0304_0506_0708u64;
        let block = |fill: u8| Box::new([fill; BLOCK_SIZE]);
        let with_block = |head: &[u8], fill: u8| [head, &[fill; BLOCK_SIZE][..]].concat();

        let requests: [(Request, Vec<u8>); 5] = [
            (
                Request::Read { key },
                vec![9, 0, 0, 0, 0x01, 8, 7, 6, 5, 4, 3, 2, 1],
            ),
            (
                Request::Write {
                    key,
                    data: block(0xAB),
                },
                with_block(&[0x09, 0x02, 0, 0, 0x02, 8, 7, 6, 5, 4, 3, 2, 1], 0xAB),
            ),
            (Request::Stats, vec![1, 0, 0, 0, 0x03]),
            (Request::Quit, vec![1, 0, 0, 0, 0x04]),
            (Request::Flush, vec![1, 0, 0, 0, 0x05]),
        ];
        for (request, golden) in &requests {
            assert_eq!(&appended(|b| request.encode_into(b)), golden, "{request:?}");
        }
        let piped = PipedRequest {
            corr: 0xA1B2_C3D4,
            request: Request::Read { key },
        };
        assert_eq!(
            appended(|b| piped.encode_into(b)),
            [14, 0, 0, 0, 0x10, 0xD4, 0xC3, 0xB2, 0xA1, 0x01, 8, 7, 6, 5, 4, 3, 2, 1]
        );

        let stats = Reply::Stats {
            read_hits: 1,
            write_hits: 2,
            read_misses: 3,
            write_misses: 4,
            allocation_writes: 5,
            resident_blocks: 6,
            degraded_reads: 7,
            degraded_writes: 8,
            mode: NodeMode::Probing,
        };
        let mut stats_golden = vec![66, 0, 0, 0, 0x83];
        for v in 1u8..=8 {
            stats_golden.extend_from_slice(&[v, 0, 0, 0, 0, 0, 0, 0]);
        }
        stats_golden.push(2);
        let replies: [(Reply, Vec<u8>); 5] = [
            (
                Reply::Read {
                    hit: true,
                    data: block(0x5A),
                },
                with_block(&[0x02, 0x02, 0, 0, 0x81, 1], 0x5A),
            ),
            (Reply::Write { hit: false }, vec![2, 0, 0, 0, 0x82, 0]),
            (stats, stats_golden),
            (
                Reply::Flush { flushed: 0x0A0B },
                vec![9, 0, 0, 0, 0x84, 0x0B, 0x0A, 0, 0, 0, 0, 0, 0],
            ),
            (
                Reply::Error {
                    code: ErrorCode::Deadline,
                    message: "late".into(),
                },
                vec![6, 0, 0, 0, 0xFF, 0x04, b'l', b'a', b't', b'e'],
            ),
        ];
        for (reply, golden) in &replies {
            assert_eq!(&appended(|b| reply.encode_into(b)), golden, "{reply:?}");
        }
        let piped = PipedReply {
            corr: 7,
            reply: Reply::Write { hit: true },
        };
        assert_eq!(
            appended(|b| piped.encode_into(b)),
            [7, 0, 0, 0, 0x90, 7, 0, 0, 0, 0x82, 1]
        );
    }
}
