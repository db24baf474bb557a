//! Trace serialization: a compact binary format.
//!
//! The binary format is a fixed little-endian record stream with a small
//! header, so multi-gigabyte traces stream through `BufReader`/`BufWriter`
//! without intermediate allocation:
//!
//! ```text
//! header:  magic "SSTR" | u16 version | u16 reserved | u64 record count
//! record:  u64 timestamp_us | u64 packed block key | u32 len_blocks
//!          | u32 response_us | u8 kind tag | 3 pad bytes
//! ```

use std::io::{self, BufReader, BufWriter, Read, Write};

use sievestore_types::{
    BlockAddr, GlobalBlock, Micros, ParseRequestError, Request, RequestKind, SieveError,
};

const MAGIC: &[u8; 4] = b"SSTR";
const VERSION: u16 = 1;
const RECORD_BYTES: usize = 8 + 8 + 4 + 4 + 1 + 3;

/// Writes a request stream in the binary trace format.
///
/// The writer buffers internally; call [`TraceWriter::finish`] to flush and
/// patch the record count into the header. `W` must support neither seeking
/// nor anything beyond `Write`; the count is emitted by `finish` only when
/// the destination was pre-counted, so instead we write the count as
/// `u64::MAX` ("streamed") unless [`TraceWriter::with_count`] was used.
///
/// # Examples
///
/// ```
/// use sievestore_trace::{TraceReader, TraceWriter};
/// use sievestore_types::{BlockAddr, Micros, Request, RequestKind, ServerId, VolumeId};
///
/// # fn main() -> Result<(), sievestore_types::SieveError> {
/// let req = Request::new(
///     Micros::from_secs(1),
///     BlockAddr::new(ServerId::new(0), VolumeId::new(0), 8),
///     8,
///     RequestKind::Read,
/// );
/// let mut bytes = Vec::new();
/// let mut writer = TraceWriter::new(&mut bytes)?;
/// writer.write(&req)?;
/// writer.finish()?;
///
/// let mut reader = TraceReader::new(bytes.as_slice())?;
/// assert_eq!(reader.next().transpose()?, Some(req));
/// assert!(reader.next().is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: BufWriter<W>,
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the header with a streamed (unknown)
    /// record count.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn new(out: W) -> Result<Self, SieveError> {
        Self::with_count(out, u64::MAX)
    }

    /// Creates a writer with a known record count in the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn with_count(out: W, count: u64) -> Result<Self, SieveError> {
        let mut out = BufWriter::new(out);
        out.write_all(MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&0u16.to_le_bytes())?;
        out.write_all(&count.to_le_bytes())?;
        Ok(TraceWriter { out, written: 0 })
    }

    /// Appends one request.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the destination.
    pub fn write(&mut self, req: &Request) -> Result<(), SieveError> {
        let mut rec = [0u8; RECORD_BYTES];
        rec[0..8].copy_from_slice(&req.timestamp.as_u64().to_le_bytes());
        rec[8..16].copy_from_slice(&GlobalBlock::from(req.start).raw().to_le_bytes());
        rec[16..20].copy_from_slice(&req.len_blocks.to_le_bytes());
        let response = u32::try_from(req.response_time.as_u64()).unwrap_or(u32::MAX);
        rec[20..24].copy_from_slice(&response.to_le_bytes());
        rec[24] = req.kind.as_byte();
        self.out.write_all(&rec)?;
        self.written += 1;
        Ok(())
    }

    /// Returns how many records have been written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the final flush error.
    pub fn finish(self) -> Result<W, SieveError> {
        Ok(self
            .out
            .into_inner()
            .map_err(|e| io::Error::other(e.to_string()))?)
    }
}

/// Streaming reader for the binary trace format; yields `Result<Request>`.
///
/// See [`TraceWriter`] for an end-to-end example.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: BufReader<R>,
    /// Record count from the header; `u64::MAX` means "streamed".
    declared: u64,
    read: u64,
}

impl<R: Read> TraceReader<R> {
    /// Creates a reader, validating the header.
    ///
    /// # Errors
    ///
    /// Returns a parse error for a bad magic or unsupported version, or an
    /// I/O error from the source.
    pub fn new(input: R) -> Result<Self, SieveError> {
        let mut input = BufReader::new(input);
        let mut header = [0u8; 16];
        input.read_exact(&mut header)?;
        if &header[0..4] != MAGIC {
            return Err(ParseRequestError::new(0, "bad trace magic").into());
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != VERSION {
            return Err(
                ParseRequestError::new(0, format!("unsupported trace version {version}")).into(),
            );
        }
        let declared = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        Ok(TraceReader {
            input,
            declared,
            read: 0,
        })
    }

    /// Returns the record count declared in the header, if the trace was
    /// written with a known count.
    pub fn declared_count(&self) -> Option<u64> {
        (self.declared != u64::MAX).then_some(self.declared)
    }

    fn read_record(&mut self) -> Result<Option<Request>, SieveError> {
        let mut rec = [0u8; RECORD_BYTES];
        match self.input.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let timestamp = Micros::new(u64::from_le_bytes(rec[0..8].try_into().expect("8")));
        let key = GlobalBlock::from_raw(u64::from_le_bytes(rec[8..16].try_into().expect("8")));
        let len = u32::from_le_bytes(rec[16..20].try_into().expect("4"));
        let response = u32::from_le_bytes(rec[20..24].try_into().expect("4"));
        let kind = RequestKind::from_byte(rec[24]).ok_or_else(|| {
            ParseRequestError::new(self.read, format!("unknown request kind tag {}", rec[24]))
        })?;
        if len == 0 {
            return Err(ParseRequestError::new(self.read, "zero-length request").into());
        }
        self.read += 1;
        Ok(Some(
            Request::new(timestamp, BlockAddr::from(key), len, kind)
                .with_response_time(Micros::new(response as u64)),
        ))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<Request, SieveError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sievestore_types::{ServerId, VolumeId};

    fn sample_requests() -> Vec<Request> {
        (0..100u64)
            .map(|i| {
                Request::new(
                    Micros::from_secs(i),
                    BlockAddr::new(
                        ServerId::new((i % 3) as u8),
                        VolumeId::new((i % 2) as u8),
                        i * 8,
                    ),
                    (i % 16 + 1) as u32,
                    if i % 4 == 0 {
                        RequestKind::Write
                    } else {
                        RequestKind::Read
                    },
                )
                .with_response_time(Micros::new(1000 + i))
            })
            .collect()
    }

    #[test]
    fn binary_roundtrip_preserves_every_field() {
        let reqs = sample_requests();
        let mut bytes = Vec::new();
        let mut writer = TraceWriter::with_count(&mut bytes, reqs.len() as u64).unwrap();
        for r in &reqs {
            writer.write(r).unwrap();
        }
        assert_eq!(writer.written(), 100);
        writer.finish().unwrap();

        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.declared_count(), Some(100));
        let back: Vec<Request> = (&mut reader).map(|r| r.unwrap()).collect();
        assert_eq!(back, reqs);
    }

    #[test]
    fn streamed_count_reads_back_as_none() {
        let mut bytes = Vec::new();
        let writer = TraceWriter::new(&mut bytes).unwrap();
        writer.finish().unwrap();
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.declared_count(), None);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let bytes = b"XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00".to_vec();
        assert!(TraceReader::new(bytes.as_slice()).is_err());
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut bytes = Vec::new();
        TraceWriter::new(&mut bytes).unwrap().finish().unwrap();
        bytes[4] = 9; // version
        assert!(TraceReader::new(bytes.as_slice()).is_err());
    }

    #[test]
    fn corrupt_kind_tag_surfaces_as_parse_error() {
        let reqs = sample_requests();
        let mut bytes = Vec::new();
        let mut writer = TraceWriter::new(&mut bytes).unwrap();
        writer.write(&reqs[0]).unwrap();
        writer.finish().unwrap();
        // Kind tag is the 25th byte of the record, after the 16-byte header.
        bytes[16 + 24] = b'Z';
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        let err = reader.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("unknown request kind"));
    }

    #[test]
    fn truncated_record_yields_clean_eof() {
        let reqs = sample_requests();
        let mut bytes = Vec::new();
        let mut writer = TraceWriter::new(&mut bytes).unwrap();
        writer.write(&reqs[0]).unwrap();
        writer.write(&reqs[1]).unwrap();
        writer.finish().unwrap();
        bytes.truncate(bytes.len() - 5);
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        // First record intact, second lost to truncation.
        let ok: Vec<_> = reader.filter_map(|r| r.ok()).collect();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn saturating_response_time_in_binary_format() {
        let req = Request::new(
            Micros::new(0),
            BlockAddr::new(ServerId::new(0), VolumeId::new(0), 0),
            1,
            RequestKind::Read,
        )
        .with_response_time(Micros::new(u64::MAX));
        let mut bytes = Vec::new();
        let mut writer = TraceWriter::new(&mut bytes).unwrap();
        writer.write(&req).unwrap();
        writer.finish().unwrap();
        let back = TraceReader::new(bytes.as_slice())
            .unwrap()
            .next()
            .unwrap()
            .unwrap();
        assert_eq!(back.response_time.as_u64(), u32::MAX as u64);
    }
}
