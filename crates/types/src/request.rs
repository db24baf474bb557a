//! Block-level I/O requests.
//!
//! A [`Request`] mirrors one record of a block-device trace: a timestamp, a
//! starting block address, a length in 512-byte blocks, a read/write flag
//! and a measured response time. Multi-block requests are the norm (the
//! paper's ensemble averages ~11 KiB per request); the simulator expands
//! them into per-block accesses.

use std::fmt;

use crate::{BlockAddr, GlobalBlock, Micros, BLOCK_SIZE};

/// Whether a request reads or writes.
///
/// # Examples
///
/// ```
/// use sievestore_types::RequestKind;
/// assert!(RequestKind::Read.is_read());
/// assert!(!RequestKind::Write.is_read());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A read of one or more blocks.
    Read,
    /// A write of one or more blocks.
    Write,
}

impl RequestKind {
    /// Returns `true` for [`RequestKind::Read`].
    pub const fn is_read(self) -> bool {
        matches!(self, RequestKind::Read)
    }

    /// Returns `true` for [`RequestKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, RequestKind::Write)
    }

    /// Single-byte tag used by the binary trace format.
    pub const fn as_byte(self) -> u8 {
        match self {
            RequestKind::Read => b'R',
            RequestKind::Write => b'W',
        }
    }

    /// Parses the single-byte tag used by the binary trace format.
    pub const fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            b'R' => Some(RequestKind::Read),
            b'W' => Some(RequestKind::Write),
            _ => None,
        }
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RequestKind::Read => "read",
            RequestKind::Write => "write",
        })
    }
}

/// One block-device request, as recorded below the buffer cache.
///
/// # Examples
///
/// ```
/// use sievestore_types::{BlockAddr, Micros, Request, RequestKind, ServerId, VolumeId};
///
/// let start = BlockAddr::new(ServerId::new(0), VolumeId::new(0), 64);
/// let req = Request::new(Micros::from_secs(5), start, 8, RequestKind::Write)
///     .with_response_time(Micros::new(1_200));
/// assert_eq!(req.blocks().count(), 8);
/// assert_eq!(req.completion_time(), Micros::new(5_001_200));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Issue time, microseconds since trace start.
    pub timestamp: Micros,
    /// Address of the first block.
    pub start: BlockAddr,
    /// Length in 512-byte blocks (at least 1).
    pub len_blocks: u32,
    /// Read or write.
    pub kind: RequestKind,
    /// Device response time (issue to completion).
    pub response_time: Micros,
}

impl Request {
    /// Creates a request with a zero response time.
    ///
    /// # Panics
    ///
    /// Panics if `len_blocks == 0`.
    pub fn new(timestamp: Micros, start: BlockAddr, len_blocks: u32, kind: RequestKind) -> Self {
        assert!(len_blocks > 0, "request must span at least one block");
        Request {
            timestamp,
            start,
            len_blocks,
            kind,
            response_time: Micros::new(0),
        }
    }

    /// Sets the measured response time and returns the request.
    #[must_use]
    pub fn with_response_time(mut self, response_time: Micros) -> Self {
        self.response_time = response_time;
        self
    }

    /// Returns the request length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len_blocks as u64 * BLOCK_SIZE as u64
    }

    /// Returns the completion time (`timestamp + response_time`).
    pub fn completion_time(&self) -> Micros {
        self.timestamp + self.response_time
    }

    /// Iterates over the packed keys of every block the request touches.
    pub fn blocks(&self) -> Blocks {
        Blocks {
            base: GlobalBlock::from(self.start),
            next: 0,
            len: self.len_blocks,
        }
    }

    /// Returns the completion time attributed to the `i`-th block of the
    /// request, by linear interpolation across the request's duration.
    ///
    /// The paper (§4) infers per-block completion times this way for large
    /// multi-block requests so that SieveStore-C's allocation-writes start
    /// only once the underlying data would have been fetched.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len_blocks`.
    pub fn block_completion_time(&self, i: u32) -> Micros {
        assert!(i < self.len_blocks, "block index out of request bounds");
        if self.len_blocks == 1 {
            return self.completion_time();
        }
        let total = self.response_time.as_u64();
        let frac = total * (i as u64 + 1) / self.len_blocks as u64;
        self.timestamp + Micros::new(frac)
    }

    /// Every block's [`Request::block_completion_time`], in block order,
    /// from one division for the whole request: each step adds the
    /// quotient `response_time / len_blocks` and carries one microsecond
    /// whenever the accumulated remainder reaches `len_blocks`.
    pub fn block_completion_times(&self) -> impl ExactSizeIterator<Item = Micros> {
        let (total, len) = (self.response_time.as_u64(), u64::from(self.len_blocks));
        let (step, rem_step) = (total / len, total % len);
        let (mut at, mut rem) = (self.timestamp, 0);
        (0..self.len_blocks).map(move |_| {
            rem += rem_step;
            let carry = u64::from(rem >= len);
            rem -= carry * len;
            at += Micros::new(step + carry);
            at
        })
    }

    /// Returns the number of 4 KiB pages this request occupies on a device,
    /// counting partially-covered pages in full (the paper's conservative
    /// treatment of the ~6% of requests that are not 4 KiB-aligned).
    pub fn pages(&self) -> u64 {
        let first = self.start.block;
        let last = first + self.len_blocks as u64 - 1;
        let bpp = crate::BLOCKS_PER_PAGE as u64;
        (last / bpp) - (first / bpp) + 1
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}+{}",
            self.timestamp, self.kind, self.start, self.len_blocks
        )
    }
}

/// Iterator over the block keys of a request, produced by [`Request::blocks`].
#[derive(Debug, Clone)]
pub struct Blocks {
    base: GlobalBlock,
    next: u32,
    len: u32,
}

impl Iterator for Blocks {
    type Item = GlobalBlock;

    fn next(&mut self) -> Option<GlobalBlock> {
        if self.next >= self.len {
            return None;
        }
        let key = GlobalBlock::from_raw(self.base.raw() + self.next as u64);
        self.next += 1;
        Some(key)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.len - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Blocks {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServerId, VolumeId};
    use proptest::prelude::*;

    fn addr(block: u64) -> BlockAddr {
        BlockAddr::new(ServerId::new(2), VolumeId::new(1), block)
    }

    #[test]
    fn blocks_iterates_contiguous_keys() {
        let req = Request::new(Micros::new(0), addr(100), 4, RequestKind::Read);
        let blocks: Vec<u64> = req.blocks().map(|b| b.block()).collect();
        assert_eq!(blocks, vec![100, 101, 102, 103]);
        for b in req.blocks() {
            assert_eq!(b.server(), ServerId::new(2));
            assert_eq!(b.volume(), VolumeId::new(1));
        }
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_length_request_is_rejected() {
        let _ = Request::new(Micros::new(0), addr(0), 0, RequestKind::Read);
    }

    #[test]
    fn page_count_aligned() {
        // 8 blocks starting at a page boundary = exactly 1 page.
        let req = Request::new(Micros::new(0), addr(16), 8, RequestKind::Read);
        assert_eq!(req.pages(), 1);
        // 16 blocks = 2 pages.
        let req = Request::new(Micros::new(0), addr(16), 16, RequestKind::Read);
        assert_eq!(req.pages(), 2);
    }

    #[test]
    fn page_count_unaligned_rounds_up() {
        // 1 block straddling nothing: still occupies a full page.
        let req = Request::new(Micros::new(0), addr(17), 1, RequestKind::Write);
        assert_eq!(req.pages(), 1);
        // 8 blocks starting mid-page straddle two pages.
        let req = Request::new(Micros::new(0), addr(20), 8, RequestKind::Write);
        assert_eq!(req.pages(), 2);
    }

    #[test]
    fn interpolated_completion_times_are_monotonic_and_bounded() {
        let req = Request::new(Micros::from_secs(10), addr(0), 5, RequestKind::Read)
            .with_response_time(Micros::new(1000));
        let mut last = Micros::new(0);
        for i in 0..5 {
            let t = req.block_completion_time(i);
            assert!(t >= req.timestamp);
            assert!(t <= req.completion_time());
            assert!(t >= last);
            last = t;
        }
        assert_eq!(req.block_completion_time(4), req.completion_time());
    }

    #[test]
    fn single_block_completion_is_request_completion() {
        let req = Request::new(Micros::from_secs(1), addr(9), 1, RequestKind::Write)
            .with_response_time(Micros::new(77));
        assert_eq!(req.block_completion_time(0), req.completion_time());
    }

    #[test]
    fn kind_byte_roundtrip() {
        for kind in [RequestKind::Read, RequestKind::Write] {
            assert_eq!(RequestKind::from_byte(kind.as_byte()), Some(kind));
        }
        assert_eq!(RequestKind::from_byte(b'x'), None);
    }

    proptest! {
        #[test]
        fn pages_matches_naive_page_set(start in 0u64..10_000, len in 1u32..600) {
            let req = Request::new(Micros::new(0), addr(start), len, RequestKind::Read);
            let mut pages = std::collections::HashSet::new();
            for b in req.blocks() {
                pages.insert(b.block() / crate::BLOCKS_PER_PAGE as u64);
            }
            prop_assert_eq!(req.pages(), pages.len() as u64);
        }

        /// The one-division iterator yields the closed form exactly,
        /// single-block, zero-duration and long requests included.
        #[test]
        fn completion_time_iterator_matches_closed_form(
            start in 0u64..1 << 40,
            len in prop_oneof![Just(1u32), 1u32..64, 1u32..100_000],
            response in prop_oneof![Just(0u64), 0u64..1000, 0u64..1 << 40],
        ) {
            let req = Request::new(Micros::new(start), addr(0), len, RequestKind::Read)
                .with_response_time(Micros::new(response));
            let times = req.block_completion_times();
            prop_assert_eq!(times.len(), len as usize);
            let mut seen = 0;
            for (i, t) in times.enumerate() {
                prop_assert_eq!(t, req.block_completion_time(i as u32), "block {}", i);
                seen += 1;
            }
            prop_assert_eq!(seen, len);
        }

        #[test]
        fn block_iterator_length_matches(len in 1u32..1000) {
            let req = Request::new(Micros::new(0), addr(5), len, RequestKind::Write);
            prop_assert_eq!(req.blocks().len(), len as usize);
            prop_assert_eq!(req.blocks().count(), len as usize);
        }
    }
}
