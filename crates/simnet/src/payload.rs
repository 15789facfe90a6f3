//! Shared, immutable byte buffers for the zero-copy data path.
//!
//! A [`Payload`] is an offline-friendly `bytes`-lite: a reference-counted
//! allocation (`Arc<Vec<u8>>`) plus an `(offset, len)` view into it.
//! `clone()`, [`Payload::slice`], and [`Payload::split_to`] are O(1) and
//! never copy bytes; the underlying allocation is immutable once frozen,
//! so any number of views — a multicast fan-out, a retransmit queue, a
//! decoded message body — can alias it safely.
//!
//! [`PayloadBuilder`] covers the encode side: incremental appends into a
//! private `Vec<u8>`, then a zero-copy [`PayloadBuilder::freeze`] that
//! moves the vector behind the `Arc`. [`ByteReader`] is the decode side
//! every binary codec shares: a bounds-checked cursor that fails with a
//! [`DecodeError`] instead of panicking, and hands out byte-array fields
//! as zero-copy views of a backing payload. [`ChunkQueue`] reassembles a
//! stream and pops its `u32`-length-prefixed frames.
//!
//! The module keeps thread-local **copy accounting** so copy-elimination
//! is observable rather than asserted: every fresh allocation, every byte
//! physically copied into payload storage, and every shared (O(1)) clone
//! is counted. Benches and experiments read [`stats`] / [`take_stats`]
//! and export the numbers next to their timing results.

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::Arc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES_COPIED: Cell<u64> = const { Cell::new(0) };
    static SHARED_CLONES: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of the thread-local payload copy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PayloadStats {
    /// Fresh backing allocations (builder freezes, `From` conversions).
    pub allocs: u64,
    /// Bytes physically copied into payload storage. Zero-copy paths
    /// (clone, slice, split, `From<Vec<u8>>`) never increment this.
    pub bytes_copied: u64,
    /// O(1) clones that shared an existing allocation.
    pub shared_clones: u64,
}

/// Reads the current thread's payload accounting counters.
pub fn stats() -> PayloadStats {
    PayloadStats {
        allocs: ALLOCS.with(Cell::get),
        bytes_copied: BYTES_COPIED.with(Cell::get),
        shared_clones: SHARED_CLONES.with(Cell::get),
    }
}

/// Reads and resets the current thread's payload accounting counters.
pub fn take_stats() -> PayloadStats {
    let s = stats();
    ALLOCS.with(|c| c.set(0));
    BYTES_COPIED.with(|c| c.set(0));
    SHARED_CLONES.with(|c| c.set(0));
    s
}

fn count_alloc(copied: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    if copied > 0 {
        BYTES_COPIED.with(|c| c.set(c.get() + copied as u64));
    }
}

fn count_copy(copied: usize) {
    if copied > 0 {
        BYTES_COPIED.with(|c| c.set(c.get() + copied as u64));
    }
}

/// A cheaply cloneable, immutable view of a shared byte buffer.
///
/// # Examples
///
/// ```
/// use simnet::Payload;
///
/// let p = Payload::from(vec![1u8, 2, 3, 4, 5]);
/// let head = p.slice(0..2);
/// let tail = p.slice(2..5);
/// assert_eq!(&head[..], &[1, 2]);
/// assert_eq!(&tail[..], &[3, 4, 5]);
/// // All three views share one allocation.
/// assert!(p.shares_buffer(&head) && p.shares_buffer(&tail));
/// ```
pub struct Payload {
    buf: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Clone for Payload {
    fn clone(&self) -> Payload {
        SHARED_CLONES.with(|c| c.set(c.get() + 1));
        Payload {
            buf: Arc::clone(&self.buf),
            off: self.off,
            len: self.len,
        }
    }
}

impl Payload {
    /// The empty payload. Does not allocate: every empty payload made
    /// on a thread shares that thread's one empty buffer.
    pub fn new() -> Payload {
        thread_local! {
            static EMPTY: Arc<Vec<u8>> = Arc::new(Vec::new());
        }
        Payload {
            buf: EMPTY.with(Arc::clone),
            off: 0,
            len: 0,
        }
    }

    /// Wraps an existing vector without copying its bytes.
    pub fn from_vec(v: Vec<u8>) -> Payload {
        count_alloc(0);
        let len = v.len();
        Payload {
            buf: Arc::new(v),
            off: 0,
            len,
        }
    }

    /// Copies a slice into a fresh payload (the one place a copy is the
    /// point — counted as such).
    pub fn copy_from_slice(s: &[u8]) -> Payload {
        count_alloc(s.len());
        Payload {
            buf: Arc::new(s.to_vec()),
            off: 0,
            len: s.len(),
        }
    }

    /// Number of bytes in this view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity of the backing buffer, which every view of it shares:
    /// `len()` for a whole buffer encoded into an exact reservation.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }

    /// O(1) sub-view of `range` (relative to this view).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or decreasing.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(range.start <= range.end, "slice range is decreasing");
        assert!(range.end <= self.len, "slice range out of bounds");
        SHARED_CLONES.with(|c| c.set(c.get() + 1));
        Payload {
            buf: Arc::clone(&self.buf),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }

    /// Splits off and returns the first `n` bytes; `self` advances to the
    /// remainder. O(1), no copy.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn split_to(&mut self, n: usize) -> Payload {
        assert!(n <= self.len, "split_to out of bounds");
        let head = self.slice(0..n);
        self.off += n;
        self.len -= n;
        head
    }

    /// Drops the first `n` bytes of the view in place. O(1), no copy.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len, "advance out of bounds");
        self.off += n;
        self.len -= n;
    }

    /// Returns `true` if both views alias the same backing allocation
    /// (regardless of offsets). The cheap-clone identity check used by
    /// the property tests.
    pub fn shares_buffer(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Returns `true` if both are the same view of the same buffer: one
    /// backing allocation, one offset, one length. Equal bytes in
    /// another buffer, or another slice of this one, do not count.
    pub fn same_view(&self, other: &Payload) -> bool {
        self.shares_buffer(other) && self.off == other.off && self.len == other.len
    }

    /// Copies the viewed bytes into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::new()
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Payload {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Bounded hex preview so debug-printing a frame doesn't dump MBs.
        const PREVIEW: usize = 16;
        write!(f, "Payload[{}B:", self.len)?;
        for b in self.as_slice().iter().take(PREVIEW) {
            write!(f, " {b:02x}")?;
        }
        if self.len > PREVIEW {
            write!(f, " …")?;
        }
        write!(f, "]")
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl Hash for Payload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for Payload {
    fn partial_cmp(&self, other: &Payload) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Payload {
    fn cmp(&self, other: &Payload) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::from_vec(v)
    }
}
impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Payload {
        Payload::copy_from_slice(s)
    }
}
impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(s: &[u8; N]) -> Payload {
        Payload::copy_from_slice(s)
    }
}
impl From<String> for Payload {
    fn from(s: String) -> Payload {
        Payload::from_vec(s.into_bytes())
    }
}
impl From<&str> for Payload {
    fn from(s: &str) -> Payload {
        Payload::copy_from_slice(s.as_bytes())
    }
}
impl From<Box<[u8]>> for Payload {
    fn from(b: Box<[u8]>) -> Payload {
        Payload::from_vec(b.into_vec())
    }
}

impl From<Payload> for Vec<u8> {
    /// Recovers the bytes. When this view is the whole buffer and the
    /// last reference, the vector is moved out without copying.
    fn from(p: Payload) -> Vec<u8> {
        if p.off == 0 {
            match Arc::try_unwrap(p.buf) {
                Ok(mut v) => {
                    v.truncate(p.len);
                    return v;
                }
                Err(buf) => return buf[p.off..p.off + p.len].to_vec(),
            }
        }
        p.to_vec()
    }
}

impl IntoIterator for Payload {
    type Item = u8;
    type IntoIter = PayloadIter;
    fn into_iter(self) -> PayloadIter {
        PayloadIter {
            payload: self,
            pos: 0,
        }
    }
}

impl<'p> IntoIterator for &'p Payload {
    type Item = &'p u8;
    type IntoIter = std::slice::Iter<'p, u8>;
    fn into_iter(self) -> std::slice::Iter<'p, u8> {
        self.as_slice().iter()
    }
}

/// Owning byte iterator over a [`Payload`].
#[derive(Debug)]
pub struct PayloadIter {
    payload: Payload,
    pos: usize,
}

impl Iterator for PayloadIter {
    type Item = u8;
    fn next(&mut self) -> Option<u8> {
        let b = self.payload.as_slice().get(self.pos).copied();
        self.pos += 1;
        b
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.payload.len().saturating_sub(self.pos);
        (left, Some(left))
    }
}
impl ExactSizeIterator for PayloadIter {}

/// Incremental encoder producing a [`Payload`] with a single allocation
/// and a zero-copy freeze.
///
/// # Examples
///
/// ```
/// use simnet::PayloadBuilder;
///
/// let mut b = PayloadBuilder::with_capacity(8);
/// b.push(0x01);
/// b.extend_from_slice(b"abc");
/// b.u32_le(7);
/// let p = b.freeze();
/// assert_eq!(&p[..], &[0x01, b'a', b'b', b'c', 7, 0, 0, 0]);
///
/// let framed = PayloadBuilder::u32_framed(u32::to_be_bytes, 4, |b| b.str16_be("hi"));
/// assert_eq!(&framed[..], &[0, 0, 0, 4, 0, 2, b'h', b'i']);
/// assert_eq!(framed.capacity(), framed.len());
/// ```
#[derive(Debug, Default)]
pub struct PayloadBuilder {
    buf: Vec<u8>,
}

impl PayloadBuilder {
    /// Creates an empty builder.
    pub fn new() -> PayloadBuilder {
        PayloadBuilder::default()
    }

    /// Creates a builder with pre-reserved capacity.
    pub fn with_capacity(n: usize) -> PayloadBuilder {
        PayloadBuilder {
            buf: Vec::with_capacity(n),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn push(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Appends a little-endian `u16`.
    pub fn u16_le(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a big-endian `u16`.
    pub fn u16_be(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn u32_be(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn u64_be(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a string with a little-endian `u16` byte-length prefix,
    /// cut to the first `u16::MAX` bytes.
    pub fn str16_le(&mut self, s: &str) {
        let b = &s.as_bytes()[..s.len().min(usize::from(u16::MAX))];
        self.u16_le(b.len() as u16);
        self.buf.extend_from_slice(b);
    }

    /// Appends a string with a big-endian `u16` byte-length prefix, cut
    /// to the first `u16::MAX` bytes.
    pub fn str16_be(&mut self, s: &str) {
        let b = &s.as_bytes()[..s.len().min(usize::from(u16::MAX))];
        self.u16_be(b.len() as u16);
        self.buf.extend_from_slice(b);
    }

    /// Encodes one frame of a `u32`-length-prefixed stream in a single
    /// buffer: `body` writes after a 4-byte slot, which then gets the
    /// body length from `prefix` (`u32::to_le_bytes` or
    /// `u32::to_be_bytes`). [`ChunkQueue::pop_u32_frame`] decodes it.
    /// The buffer is reserved once for the prefix and `body_len` bytes,
    /// the size the caller expects `body` to write; an exact size
    /// leaves no spare capacity.
    pub fn u32_framed(
        prefix: fn(u32) -> [u8; 4],
        body_len: usize,
        body: impl FnOnce(&mut PayloadBuilder),
    ) -> Payload {
        let mut b = PayloadBuilder::with_capacity(4 + body_len);
        b.extend_from_slice(&[0; 4]);
        body(&mut b);
        let len = prefix((b.len() - 4) as u32);
        b.buf[..4].copy_from_slice(&len);
        b.freeze()
    }

    /// Overwrites two already-written bytes with a big-endian `u16`
    /// (OBEX's packet length, known only once its headers are written).
    ///
    /// # Panics
    ///
    /// Panics if `at + 2` is past the bytes written so far.
    pub fn patch_u16_be(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Freezes the builder into an immutable [`Payload`] without copying:
    /// the accumulated vector moves behind the `Arc`.
    pub fn freeze(self) -> Payload {
        Payload::from_vec(self.buf)
    }

    /// Consumes the builder and returns the raw vector (for callers that
    /// still need `Vec<u8>`).
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Why a [`ByteReader`] read failed. Each codec converts it into its
/// own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside a field.
    Truncated,
    /// A string field is not UTF-8.
    InvalidUtf8,
    /// This many bytes remain after the last field.
    Trailing(usize),
    /// A tag, count or length the codec does not accept.
    Malformed,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("truncated"),
            DecodeError::InvalidUtf8 => f.write_str("invalid utf-8"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes"),
            DecodeError::Malformed => f.write_str("malformed"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The decode side of [`PayloadBuilder`], shared by every binary codec:
/// a cursor whose reads check the bytes left and fail with
/// [`DecodeError::Truncated`] instead of panicking, so a codec built on
/// it is total over hostile input.
///
/// A reader made by [`with_backing`](Self::with_backing) returns
/// [`payload`](Self::payload) fields as zero-copy views of the backing
/// [`Payload`]; one made by [`new`](Self::new) copies them (counted,
/// like every copy into payload storage).
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    /// The whole input (the backing payload's bytes, when there is one,
    /// so `pos` is also an offset into it).
    buf: &'a [u8],
    pos: usize,
    /// Reads stop here: the end of `buf`, or of a [`reader`](Self::reader)
    /// window.
    end: usize,
    backing: Option<&'a Payload>,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`; [`payload`](Self::payload) fields are copied.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader {
            buf,
            pos: 0,
            end: buf.len(),
            backing: None,
        }
    }

    /// A reader over `payload`; [`payload`](Self::payload) fields are
    /// zero-copy views of it.
    pub fn with_backing(payload: &'a Payload) -> ByteReader<'a> {
        ByteReader {
            backing: Some(payload),
            ..ByteReader::new(payload.as_slice())
        }
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }

    /// The bytes left to read, without consuming them.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..self.end]
    }

    /// Consumes and returns the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16_le(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn u16_be(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_be_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32_le(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn u32_be(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_be_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64_le(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a big-endian `u64`.
    #[inline]
    pub fn u64_be(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_be_bytes)
    }

    /// Reads a string as [`PayloadBuilder::str16_le`] writes it,
    /// borrowed from the input.
    #[inline]
    pub fn str16_le(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.u16_le()?;
        self.utf8(usize::from(n))
    }

    /// Reads a string as [`PayloadBuilder::str16_be`] writes it,
    /// borrowed from the input.
    #[inline]
    pub fn str16_be(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.u16_be()?;
        self.utf8(usize::from(n))
    }

    /// Reads `n` bytes of UTF-8 text, borrowed from the input.
    #[inline]
    pub fn utf8(&mut self, n: usize) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.take(n)?).map_err(|_| DecodeError::InvalidUtf8)
    }

    /// Consumes the next `n` bytes as a [`Payload`]: a zero-copy view of
    /// the backing payload, or a counted copy when there is none.
    pub fn payload(&mut self, n: usize) -> Result<Payload, DecodeError> {
        let s = self.take(n)?;
        Ok(match self.backing {
            Some(p) => p.slice(self.pos - n..self.pos),
            None => Payload::copy_from_slice(s),
        })
    }

    /// Consumes the next `n` bytes and returns a reader over just them,
    /// with the same backing.
    pub fn reader(&mut self, n: usize) -> Result<ByteReader<'a>, DecodeError> {
        self.take(n)?;
        Ok(ByteReader {
            pos: self.pos - n,
            end: self.pos,
            ..*self
        })
    }

    /// How many of `count` elements to preallocate for when `count` is
    /// a length prefix read from the input: at most the bytes left, as
    /// every element takes at least one. A hostile prefix thus never
    /// reserves more than the input could fill.
    pub fn capacity_for(&self, count: usize) -> usize {
        count.min(self.remaining())
    }

    /// Checks that every byte was read.
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

/// An ordered queue of [`Payload`] chunks acting as one logical byte
/// stream.
///
/// This is the shared building block for stream reassembly and frame
/// decoding: bytes arriving from a stream are pushed as whole chunks
/// (no concatenation copy), and consumers read from the front either by
/// peeking a bounded prefix (for length fields that may straddle chunk
/// boundaries) or by taking `n` bytes. A take that falls inside the head
/// chunk is zero-copy (`split_to`); only takes that span chunks assemble
/// a fresh buffer.
///
/// Draining from the front is O(bytes drained) regardless of how much is
/// buffered behind it — unlike the `Vec::drain(..n)` pattern, which
/// shifts the entire tail and turns bulk decoding quadratic.
///
/// # Examples
///
/// ```
/// use simnet::{ChunkQueue, Payload};
///
/// let mut q = ChunkQueue::new();
/// q.push(Payload::from(vec![1u8, 2, 3]));
/// q.push(Payload::from(vec![4u8, 5]));
/// assert_eq!(q.len(), 5);
/// let head = q.take(2);
/// assert_eq!(&head[..], &[1, 2]);
/// let rest = q.take(3);
/// assert_eq!(&rest[..], &[3, 4, 5]);
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct ChunkQueue {
    chunks: VecDeque<Payload>,
    total: usize,
}

impl ChunkQueue {
    /// Creates an empty queue.
    pub fn new() -> ChunkQueue {
        ChunkQueue::default()
    }

    /// Total buffered bytes across all chunks.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Returns `true` if no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Appends a chunk to the back of the stream without copying. Empty
    /// chunks are dropped.
    pub fn push(&mut self, chunk: Payload) {
        if chunk.is_empty() {
            return;
        }
        self.total += chunk.len();
        self.chunks.push_back(chunk);
    }

    /// Appends a borrowed slice (one copy into a fresh chunk). Prefer
    /// [`push`](Self::push) when a `Payload` is already in hand.
    pub fn push_slice(&mut self, bytes: &[u8]) {
        self.push(Payload::copy_from_slice(bytes));
    }

    /// Copies up to `out.len()` bytes from the front of the stream into
    /// `out` without consuming them; returns how many were written. Used
    /// to read fixed-size headers that may straddle chunk boundaries.
    pub fn peek_into(&self, out: &mut [u8]) -> usize {
        let mut written = 0;
        for chunk in &self.chunks {
            if written == out.len() {
                break;
            }
            let n = (out.len() - written).min(chunk.len());
            out[written..written + n].copy_from_slice(&chunk[..n]);
            written += n;
        }
        written
    }

    /// Removes and returns exactly `n` bytes from the front. Zero-copy
    /// when `n` falls within the head chunk; assembles one fresh buffer
    /// when it spans several.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes are buffered.
    pub fn take(&mut self, n: usize) -> Payload {
        assert!(n <= self.total, "ChunkQueue::take past end of stream");
        self.total -= n;
        if n == 0 {
            return Payload::new();
        }
        let head_len = self.chunks[0].len();
        if n < head_len {
            return self.chunks[0].split_to(n);
        }
        if n == head_len {
            return self.chunks.pop_front().expect("head chunk exists");
        }
        let mut out = Vec::with_capacity(n);
        let mut remaining = n;
        while remaining > 0 {
            let head = &mut self.chunks[0];
            if head.len() <= remaining {
                remaining -= head.len();
                let chunk = self.chunks.pop_front().expect("head chunk exists");
                out.extend_from_slice(&chunk);
            } else {
                out.extend_from_slice(&head.split_to(remaining));
                remaining = 0;
            }
        }
        count_copy(out.len());
        Payload::from_vec(out)
    }

    /// A zero-copy view of up to `max` bytes starting `offset` bytes into
    /// the queue; nothing is consumed. The view ends where the chunk
    /// holding `offset` ends, so it is always a slice of one pushed
    /// chunk: a stream sender cuts each segment this way, so every
    /// segment on the wire is a view of one application write.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not inside the queue.
    ///
    /// # Examples
    ///
    /// ```
    /// use simnet::{ChunkQueue, Payload};
    ///
    /// let mut q = ChunkQueue::new();
    /// q.push(Payload::from(vec![1u8, 2, 3]));
    /// q.push(Payload::from(vec![4u8, 5]));
    /// assert_eq!(&q.peek_at(1, 8)[..], &[2, 3]);
    /// assert_eq!(&q.peek_at(3, 1)[..], &[4]);
    /// q.advance(4);
    /// assert_eq!(&q.peek_at(0, 8)[..], &[5]);
    /// ```
    pub fn peek_at(&self, offset: usize, max: usize) -> Payload {
        assert!(
            offset < self.total,
            "ChunkQueue::peek_at past end of stream"
        );
        let mut skip = offset;
        for chunk in &self.chunks {
            if skip < chunk.len() {
                return chunk.slice(skip..(skip + max).min(chunk.len()));
            }
            skip -= chunk.len();
        }
        unreachable!("offset lies inside a chunk")
    }

    /// Drops `n` bytes from the front without copying any.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes are buffered.
    pub fn advance(&mut self, mut n: usize) {
        assert!(n <= self.total, "ChunkQueue::advance past end of stream");
        self.total -= n;
        while n > 0 {
            let head = &mut self.chunks[0];
            if n < head.len() {
                head.advance(n);
                return;
            }
            n -= head.len();
            self.chunks.pop_front();
        }
    }

    /// Pops the next frame of a stream of `u32`-length-prefixed frames,
    /// the prefix read by `prefix` (`u32::from_le_bytes` or
    /// `u32::from_be_bytes`): the frame body, or `None` until a whole
    /// frame is buffered. This is the one framer under every such
    /// stream codec. A body inside one chunk is a zero-copy view; one
    /// spanning chunks is assembled once, and counted, as by
    /// [`take`](Self::take).
    pub fn pop_u32_frame(&mut self, prefix: fn([u8; 4]) -> u32) -> Option<Payload> {
        let mut hdr = [0u8; 4];
        if self.peek_into(&mut hdr) < 4 {
            return None;
        }
        let len = prefix(hdr) as usize;
        if self.total - 4 < len {
            return None;
        }
        let _prefix = self.take(4);
        Some(self.take(len))
    }

    /// Discards all buffered bytes.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_backing() {
        let p = Payload::from(vec![0u8, 1, 2, 3, 4, 5, 6, 7]);
        let c = p.clone();
        let s = p.slice(2..6);
        assert!(p.shares_buffer(&c));
        assert!(p.shares_buffer(&s));
        assert_eq!(&s[..], &[2, 3, 4, 5]);
        assert_eq!(c, p);
        // A clone is the same view; a slice or a copy of the bytes is not.
        assert!(p.same_view(&c));
        assert!(!p.same_view(&s) && !s.same_view(&p.slice(2..5)));
        assert!(!p.same_view(&Payload::copy_from_slice(&p)));
    }

    #[test]
    fn split_to_partitions_without_copy() {
        let mut p = Payload::from(vec![9u8; 10]);
        let orig = p.clone();
        let head = p.split_to(4);
        assert_eq!(head.len(), 4);
        assert_eq!(p.len(), 6);
        assert!(head.shares_buffer(&orig) && p.shares_buffer(&orig));
    }

    #[test]
    fn advance_drops_prefix() {
        let mut p = Payload::from(vec![1u8, 2, 3]);
        p.advance(2);
        assert_eq!(&p[..], &[3]);
        p.advance(1);
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_past_end_panics() {
        let mut p = Payload::from(vec![1u8]);
        let _ = p.split_to(2);
    }

    #[test]
    fn from_vec_does_not_copy_bytes() {
        let before = take_stats();
        assert_eq!(before.bytes_copied, 0);
        let _p = Payload::from(vec![0u8; 4096]);
        let s = take_stats();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.bytes_copied, 0, "From<Vec> must not copy");
    }

    #[test]
    fn copy_from_slice_is_counted() {
        let _ = take_stats();
        let _p = Payload::from(&b"hello"[..]);
        let s = take_stats();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.bytes_copied, 5);
    }

    #[test]
    fn clones_are_counted_as_shared() {
        let p = Payload::from(vec![1u8, 2, 3]);
        let _ = take_stats();
        let _a = p.slice(0..2);
        let mut b = p.clone();
        let _c = b.split_to(1);
        let s = take_stats();
        assert_eq!(s.allocs, 0);
        assert_eq!(s.bytes_copied, 0);
        // slice + clone + split_to each count as a share.
        assert_eq!(s.shared_clones, 3);
    }

    #[test]
    fn into_vec_moves_when_unique() {
        let p = Payload::from(vec![7u8; 32]);
        let v: Vec<u8> = p.into();
        assert_eq!(v, vec![7u8; 32]);
        // Truncating view still moves when it starts at offset 0.
        let mut p = Payload::from(vec![1u8, 2, 3, 4]);
        p.advance(0);
        let head_only = {
            let mut q = p.clone();
            let h = q.split_to(2);
            drop(q);
            drop(p);
            h
        };
        let v: Vec<u8> = head_only.into();
        assert_eq!(v, vec![1, 2]);
    }

    #[test]
    fn builder_freeze_round_trip() {
        let mut b = PayloadBuilder::new();
        b.u16_le(0x0102);
        b.u32_le(0x03040506);
        b.u64_le(0x0708090a0b0c0d0e);
        b.u32_le(3);
        b.extend_from_slice(b"xyz");
        let p = b.freeze();
        assert_eq!(p.len(), 2 + 4 + 8 + 4 + 3);
        assert_eq!(&p[0..2], &[0x02, 0x01]);
        assert_eq!(&p[14..18], &[3, 0, 0, 0]);
        assert_eq!(&p[18..], b"xyz");
    }

    #[test]
    fn chunk_queue_take_within_head_is_zero_copy() {
        let mut q = ChunkQueue::new();
        let big = Payload::from(vec![7u8; 100]);
        q.push(big.clone());
        let _ = take_stats();
        let head = q.take(40);
        let rest = q.take(60);
        let s = take_stats();
        assert!(head.shares_buffer(&big) && rest.shares_buffer(&big));
        assert_eq!(s.allocs, 0);
        assert_eq!(s.bytes_copied, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn chunk_queue_take_spanning_chunks_assembles_once() {
        let mut q = ChunkQueue::new();
        q.push(Payload::from(vec![1u8, 2]));
        q.push(Payload::from(vec![3u8, 4, 5]));
        q.push(Payload::from(vec![6u8]));
        let _ = take_stats();
        let all = q.take(6);
        let s = take_stats();
        assert_eq!(&all[..], &[1, 2, 3, 4, 5, 6]);
        assert_eq!(s.allocs, 1);
        assert_eq!(s.bytes_copied, 6);
    }

    #[test]
    fn chunk_queue_peek_straddles_boundaries() {
        let mut q = ChunkQueue::new();
        q.push(Payload::from(vec![0x78u8, 0x56]));
        q.push(Payload::from(vec![0x34u8, 0x12, 0xaa]));
        let mut hdr = [0u8; 4];
        assert_eq!(q.peek_into(&mut hdr), 4);
        assert_eq!(u32::from_le_bytes(hdr), 0x12345678);
        // Peeking does not consume.
        assert_eq!(q.len(), 5);
        let mut long = [0u8; 8];
        assert_eq!(q.peek_into(&mut long), 5);
    }

    #[test]
    fn u32_frames_pop_whole_in_either_byte_order() {
        for (put, pop) in [
            (
                u32::to_le_bytes as fn(u32) -> [u8; 4],
                u32::from_le_bytes as fn([u8; 4]) -> u32,
            ),
            (u32::to_be_bytes, u32::from_be_bytes),
        ] {
            let framed = PayloadBuilder::u32_framed(put, 5, |b| b.extend_from_slice(b"hello"));
            assert_eq!(framed.capacity(), framed.len(), "reserved once, exactly");
            let mut q = ChunkQueue::new();
            q.push(framed.slice(0..3));
            assert_eq!(q.pop_u32_frame(pop), None, "partial prefix");
            q.push(framed.slice(3..6));
            assert_eq!(q.pop_u32_frame(pop), None, "partial body");
            q.push(framed.slice(6..9));
            let _ = take_stats();
            assert_eq!(q.pop_u32_frame(pop).unwrap(), b"hello");
            assert_eq!(take_stats().bytes_copied, 4 + 5, "spanning prefix and body");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn byte_reader_reads_what_the_builder_writes_and_checks_bounds() {
        let mut b = PayloadBuilder::new();
        b.u16_le(0x0102);
        b.u16_be(0x0102);
        b.u32_le(3);
        b.u32_be(3);
        b.u64_le(7);
        b.u64_be(7);
        b.str16_le("é");
        b.str16_be("x");
        let bytes = b.into_vec();
        let read = |r: &mut ByteReader<'_>| -> Result<(), DecodeError> {
            assert_eq!(
                (r.u16_le()?, r.u16_be()?, r.u32_le()?, r.u32_be()?),
                (258, 258, 3, 3)
            );
            assert_eq!(
                (r.u64_le()?, r.u64_be()?, r.str16_le()?, r.str16_be()?),
                (7, 7, "é", "x")
            );
            r.finish()
        };
        assert_eq!(read(&mut ByteReader::new(&bytes)), Ok(()));
        for cut in 0..bytes.len() {
            let got = read(&mut ByteReader::new(&bytes[..cut]));
            assert_eq!(got, Err(DecodeError::Truncated), "cut {cut}");
        }
        let bad_utf8 = ByteReader::new(&[0, 1, 0xFF]).str16_be();
        assert_eq!(bad_utf8, Err(DecodeError::InvalidUtf8));
        assert_eq!(
            ByteReader::new(&[1, 2]).finish(),
            Err(DecodeError::Trailing(2))
        );
        assert_eq!(ByteReader::new(&[0; 10]).capacity_for(usize::MAX), 10);
    }

    #[test]
    fn byte_reader_payloads_share_the_backing_or_count_the_copy() {
        let frame = Payload::from(vec![9u8, 1, 2, 3, 4, 5]);
        let mut r = ByteReader::with_backing(&frame);
        let mut window = r.reader(4).unwrap();
        let _ = take_stats();
        let body = window.payload(4).unwrap();
        assert!(body == [9u8, 1, 2, 3] && body.shares_buffer(&frame));
        assert_eq!(window.payload(1), Err(DecodeError::Truncated));
        assert_eq!((r.remaining(), take_stats().bytes_copied), (2, 0));
        let copy = ByteReader::new(&frame).payload(3).unwrap();
        assert!(!copy.shares_buffer(&frame));
        assert_eq!(take_stats().bytes_copied, 3);
    }

    #[test]
    #[should_panic(expected = "take past end")]
    fn chunk_queue_take_past_end_panics() {
        let mut q = ChunkQueue::new();
        q.push_slice(b"ab");
        let _ = q.take(3);
    }

    #[test]
    fn equality_and_ordering_are_by_bytes() {
        let a = Payload::from(vec![1u8, 2]);
        let b = Payload::from(vec![1u8, 2]);
        let c = Payload::from(vec![1u8, 3]);
        assert_eq!(a, b);
        assert!(a < c);
        assert!(a == vec![1u8, 2]);
        assert!(a == [1u8, 2]);
    }

    #[test]
    fn iterators_cover_the_view() {
        let p = Payload::from(vec![5u8, 6, 7]);
        let owned: Vec<u8> = p.clone().into_iter().collect();
        assert_eq!(owned, vec![5, 6, 7]);
        let borrowed: Vec<u8> = (&p).into_iter().copied().collect();
        assert_eq!(borrowed, vec![5, 6, 7]);
        let sliced: Vec<u8> = p.slice(1..3).into_iter().collect();
        assert_eq!(sliced, vec![6, 7]);
    }

    #[test]
    fn debug_preview_is_bounded() {
        let p = Payload::from(vec![0xAAu8; 100]);
        let s = format!("{p:?}");
        assert!(s.starts_with("Payload[100B:"));
        assert!(s.len() < 80, "debug output stays short: {s}");
    }
}
