//! Shared, immutable frame buffers: the zero-copy spine of the frame path.
//!
//! Every layer of the reproduction used to clone payload bytes as a packet
//! climbed the stack (bridge → Synjitsu → vchan → unikernel). [`FrameBuf`]
//! replaces those clones with reference-counted views: one `Arc<[u8]>`
//! allocation holds the received bytes, and [`FrameBuf::slice`] hands out
//! O(1) windows into it — an Ethernet payload, the IPv4 payload inside it,
//! the TCP payload inside *that* — all sharing the single allocation. The
//! `shares_allocation` checks in `tests/frame_path.rs` and the pinned
//! `copies_per_packet` benchmark metric keep the hot path this way: a
//! packet is copied at most once, at ring ingress.
//!
//! [`FrameBufMut`] is the builder half for emit paths: append bytes, then
//! [`FrameBufMut::freeze`] into an immutable shared buffer. Copies that
//! *must* happen (ring ingress, reassembly of out-of-order segments) go
//! through the explicit [`FrameBuf::copy_from_slice`] constructor so intent
//! is visible at the call site.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, cheaply cloneable view into shared frame bytes.
///
/// Cloning and slicing are O(1): both produce a new view over the same
/// underlying `Arc<[u8]>` allocation. The empty buffer holds no allocation
/// at all, so [`FrameBuf::empty`] is free and `const`.
#[derive(Clone)]
pub struct FrameBuf {
    /// `None` iff the buffer is empty — the empty view never allocates.
    data: Option<Arc<[u8]>>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// The empty buffer. Allocation-free and `const`.
    pub const fn empty() -> FrameBuf {
        FrameBuf {
            data: None,
            start: 0,
            end: 0,
        }
    }

    /// Take ownership of `bytes` as a shared buffer (the sanctioned way to
    /// seal an emit-path `Vec`; no per-hop copies after this point).
    pub fn from_vec(bytes: Vec<u8>) -> FrameBuf {
        if bytes.is_empty() {
            return FrameBuf::empty();
        }
        let end = bytes.len();
        FrameBuf {
            data: Some(Arc::from(bytes)),
            start: 0,
            end,
        }
    }

    /// Copy `bytes` into a fresh shared buffer. This is the *explicit* copy
    /// constructor: the frame path allows exactly one copy per packet (ring
    /// ingress, reassembly), and that copy should be spelled out, not hidden
    /// in a `.to_vec()`.
    pub fn copy_from_slice(bytes: &[u8]) -> FrameBuf {
        let mut v = Vec::with_capacity(bytes.len());
        v.extend_from_slice(bytes);
        FrameBuf::from_vec(v)
    }

    /// Number of visible bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when no bytes are visible.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The visible bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(d) => &d[self.start..self.end],
            None => &[],
        }
    }

    /// An O(1) sub-view sharing this buffer's allocation. Follows the std
    /// slice-index contract: an out-of-range or inverted range panics.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> FrameBuf {
        let len = self.len();
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => len,
        };
        #[expect(
            clippy::panic,
            reason = "mirrors the std slice-index contract: a bad range is a caller bug"
        )]
        if start > end || end > len {
            panic!("FrameBuf::slice: range {start}..{end} out of bounds for length {len}");
        }
        if start == end {
            return FrameBuf::empty();
        }
        match &self.data {
            Some(d) => FrameBuf {
                data: Some(Arc::clone(d)),
                start: self.start + start,
                end: self.start + end,
            },
            None => FrameBuf::empty(),
        }
    }

    /// Concatenate views. A single non-empty part is returned as an O(1)
    /// view (the common in-order delivery case); only genuine multi-part
    /// reassembly copies.
    pub fn concat(parts: &[FrameBuf]) -> FrameBuf {
        let non_empty: Vec<&FrameBuf> = parts.iter().filter(|p| !p.is_empty()).collect();
        match non_empty.as_slice() {
            [] => FrameBuf::empty(),
            [one] => (*one).clone(),
            many => {
                let total = many.iter().map(|p| p.len()).sum();
                let mut v = Vec::with_capacity(total);
                for part in many {
                    v.extend_from_slice(part);
                }
                FrameBuf::from_vec(v)
            }
        }
    }

    /// True when this view is backed by a heap allocation (the empty buffer
    /// never is — the zero-byte vchan read regression test keys on this).
    pub fn has_allocation(&self) -> bool {
        self.data.is_some()
    }

    /// True when both views are windows into the *same* allocation — the
    /// structural zero-copy check the `frame_path` bench suite counts
    /// copies with.
    pub fn shares_allocation(&self, other: &FrameBuf) -> bool {
        match (&self.data, &other.data) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Default for FrameBuf {
    fn default() -> FrameBuf {
        FrameBuf::empty()
    }
}

impl Deref for FrameBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for FrameBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("FrameBuf").field(&self.as_slice()).finish()
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(v: Vec<u8>) -> FrameBuf {
        FrameBuf::from_vec(v)
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(v: &[u8]) -> FrameBuf {
        FrameBuf::copy_from_slice(v)
    }
}

impl<const N: usize> From<&[u8; N]> for FrameBuf {
    fn from(v: &[u8; N]) -> FrameBuf {
        FrameBuf::copy_from_slice(v)
    }
}

impl From<&FrameBuf> for FrameBuf {
    fn from(v: &FrameBuf) -> FrameBuf {
        v.clone()
    }
}

impl From<FrameBufMut> for FrameBuf {
    fn from(v: FrameBufMut) -> FrameBuf {
        v.freeze()
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &FrameBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FrameBuf {}

impl PartialEq<[u8]> for FrameBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for FrameBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for FrameBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for FrameBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for FrameBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<FrameBuf> for Vec<u8> {
    fn eq(&self, other: &FrameBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<FrameBuf> for [u8] {
    fn eq(&self, other: &FrameBuf) -> bool {
        self == other.as_slice()
    }
}

/// The builder half: an append-only byte buffer that freezes into a
/// [`FrameBuf`]. Emit paths compose a frame once (headers, then payload)
/// and seal it; nothing downstream copies it again.
#[derive(Debug, Default, Clone)]
pub struct FrameBufMut {
    buf: Vec<u8>,
}

impl FrameBufMut {
    /// An empty builder.
    pub fn new() -> FrameBufMut {
        FrameBufMut::default()
    }

    /// An empty builder with `capacity` bytes pre-reserved (emit paths know
    /// the frame length up front).
    pub fn with_capacity(capacity: usize) -> FrameBufMut {
        FrameBufMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Append one byte.
    pub fn push(&mut self, byte: u8) {
        self.buf.push(byte);
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Overwrite a byte written earlier (checksum backfill in emit paths).
    pub fn set(&mut self, index: usize, byte: u8) {
        self.buf[index] = byte;
    }

    /// Seal into an immutable shared buffer.
    pub fn freeze(self) -> FrameBuf {
        FrameBuf::from_vec(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_allocation_free() {
        let e = FrameBuf::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(!e.has_allocation());
        assert_eq!(e.as_slice(), &[] as &[u8]);
        assert_eq!(FrameBuf::default(), e);
        assert!(!FrameBuf::from_vec(Vec::new()).has_allocation());
        assert!(!FrameBuf::copy_from_slice(&[]).has_allocation());
    }

    #[test]
    fn from_vec_and_views_share_one_allocation() {
        let b = FrameBuf::from_vec(vec![1, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        assert!(b.has_allocation());
        let mid = b.slice(1..4);
        assert_eq!(mid, [2, 3, 4]);
        assert!(mid.shares_allocation(&b));
        let inner = mid.slice(1..);
        assert_eq!(inner, [3, 4]);
        assert!(inner.shares_allocation(&b));
        let all = b.slice(..);
        assert_eq!(all, b);
        assert!(all.shares_allocation(&b));
        let cloned = b.clone();
        assert!(cloned.shares_allocation(&b));
    }

    #[test]
    fn zero_length_slices_drop_the_allocation() {
        let b = FrameBuf::from_vec(vec![1, 2, 3]);
        let empty = b.slice(2..2);
        assert!(empty.is_empty());
        assert!(!empty.has_allocation());
        assert!(!empty.shares_allocation(&b));
    }

    #[test]
    fn slice_accepts_every_range_form() {
        let b = FrameBuf::from_vec(vec![10, 11, 12, 13]);
        assert_eq!(b.slice(..), [10, 11, 12, 13]);
        assert_eq!(b.slice(1..), [11, 12, 13]);
        assert_eq!(b.slice(..2), [10, 11]);
        assert_eq!(b.slice(1..3), [11, 12]);
        assert_eq!(b.slice(1..=2), [11, 12]);
        assert_eq!(b.slice(4..), [] as [u8; 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics_like_std() {
        FrameBuf::from_vec(vec![1, 2]).slice(..3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[expect(
        clippy::reversed_empty_ranges,
        reason = "the test feeds an inverted range on purpose"
    )]
    fn inverted_slice_panics_like_std() {
        FrameBuf::from_vec(vec![1, 2, 3]).slice(2..1);
    }

    #[test]
    fn copies_are_independent_allocations() {
        let a = FrameBuf::copy_from_slice(b"abc");
        let b = FrameBuf::copy_from_slice(b"abc");
        assert_eq!(a, b);
        assert!(!a.shares_allocation(&b));
    }

    #[test]
    fn concat_of_one_part_is_a_view_not_a_copy() {
        let b = FrameBuf::from_vec(vec![1, 2, 3]);
        let joined = FrameBuf::concat(&[FrameBuf::empty(), b.clone(), FrameBuf::empty()]);
        assert_eq!(joined, b);
        assert!(joined.shares_allocation(&b));
    }

    #[test]
    fn concat_of_many_parts_preserves_order() {
        let a = FrameBuf::from_vec(vec![1, 2]);
        let b = FrameBuf::from_vec(vec![3]);
        let c = FrameBuf::from_vec(vec![4, 5]);
        let joined = FrameBuf::concat(&[a.clone(), b, FrameBuf::empty(), c]);
        assert_eq!(joined, [1, 2, 3, 4, 5]);
        assert!(!joined.shares_allocation(&a));
        assert_eq!(FrameBuf::concat(&[]), FrameBuf::empty());
        assert!(!FrameBuf::concat(&[]).has_allocation());
    }

    #[test]
    fn equality_against_plain_byte_containers() {
        let b = FrameBuf::from_vec(b"hello".to_vec());
        assert_eq!(b, b"hello");
        assert_eq!(b, *b"hello");
        assert_eq!(b, b"hello".to_vec());
        assert_eq!(b, b"hello" as &[u8]);
        assert_eq!(b"hello".to_vec(), b);
        assert_ne!(b, b"world");
    }

    #[test]
    fn deref_exposes_slice_methods() {
        let b = FrameBuf::from_vec(b"GET / HTTP/1.1".to_vec());
        assert!(b.starts_with(b"GET"));
        assert_eq!(b[4], b'/');
        assert_eq!(b.iter().filter(|&&c| c == b'/').count(), 2);
        let (head, tail) = b.split_at(3);
        assert_eq!(head, b"GET");
        assert_eq!(tail.len(), 11);
    }

    #[test]
    fn builder_freezes_into_a_shared_buffer() {
        let mut m = FrameBufMut::with_capacity(8);
        assert!(m.is_empty());
        m.extend_from_slice(&[0xde, 0x00]);
        m.push(0xbe);
        m.set(1, 0xad);
        assert_eq!(m.len(), 3);
        assert_eq!(m.as_slice(), &[0xde, 0xad, 0xbe]);
        let frozen: FrameBuf = m.into();
        assert_eq!(frozen, [0xde, 0xad, 0xbe]);
        assert!(FrameBufMut::new().freeze().is_empty());
    }

    #[test]
    fn from_conversions() {
        let v: FrameBuf = vec![1, 2].into();
        let s: FrameBuf = (&[1u8, 2][..]).into();
        let a: FrameBuf = (&[1u8, 2]).into();
        assert_eq!(v, s);
        assert_eq!(v, a);
        let r: FrameBuf = (&v).into();
        assert!(r.shares_allocation(&v));
        assert_eq!(format!("{v:?}"), "FrameBuf([1, 2])");
    }
}
