//! TCP: segments, the connection control block, and a small state machine.
//!
//! Synjitsu's connection hand-off (§3.3.1) depends on TCP connection state
//! being a *value* that can be serialised into XenStore by the proxy and
//! rebuilt by the freshly booted unikernel — "the high-level nature of the
//! OCaml TCP/IP stack makes implementation a simple matter of
//! (de)serialising values across XenStore". This module keeps the same
//! property: [`Tcb`] is a plain serialisable struct, [`segment::TcpSegment`]
//! is a value, and the [`conn`] state machines are sans-io, so a connection
//! accepted by one stack instance (the proxy) can be continued by another
//! (the unikernel).

use std::ops::{Add, Sub};

pub mod conn;
pub mod segment;
pub mod tcb;

pub use conn::{Connection, Listener};
pub use segment::{TcpFlags, TcpSegment};
pub use tcb::{Tcb, TcpState};

/// A TCP sequence number: a point on the 2^32 circle (RFC 793 serial
/// arithmetic, RFC 1982).
///
/// `a` is "before" `b` when the signed distance from `a` to `b` is
/// positive, which stays correct when the counters wrap past `2^32`. Plain
/// `<` on the raw `u32` misclassifies exactly at the wrap — a connection
/// whose ISN sits near `u32::MAX` would treat every post-wrap segment as
/// ancient — so the type has no `PartialOrd`/`Ord` and offers
/// [`SeqNum::lt`] and friends instead. Arithmetic wraps: `SeqNum + u32`
/// advances, `SeqNum - SeqNum` is the forward distance.
///
/// ```
/// use netstack::tcp::SeqNum;
/// let (a, b) = (SeqNum(u32::MAX), SeqNum(u32::MAX) + 2);
/// assert!(a.lt(b) && b - a == 2);
/// ```
///
/// The same comparison spelled with `<` does not compile:
///
/// ```compile_fail
/// use netstack::tcp::SeqNum;
/// let (a, b) = (SeqNum(u32::MAX), SeqNum(u32::MAX) + 2);
/// assert!(a < b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqNum(pub u32);

impl SeqNum {
    /// `self < other` in sequence space.
    pub fn lt(self, other: SeqNum) -> bool {
        (self.0.wrapping_sub(other.0) as i32) < 0
    }

    /// `self <= other` in sequence space.
    pub fn le(self, other: SeqNum) -> bool {
        self == other || self.lt(other)
    }

    /// `self > other` in sequence space.
    pub fn gt(self, other: SeqNum) -> bool {
        other.lt(self)
    }

    /// `self >= other` in sequence space.
    pub fn ge(self, other: SeqNum) -> bool {
        other.le(self)
    }
}

impl Add<u32> for SeqNum {
    type Output = SeqNum;

    fn add(self, len: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(len))
    }
}

impl Sub for SeqNum {
    type Output = u32;

    fn sub(self, earlier: SeqNum) -> u32 {
        self.0.wrapping_sub(earlier.0)
    }
}

#[cfg(test)]
mod seq_tests {
    use super::SeqNum;

    #[test]
    fn ordering_within_a_window_ignores_the_wrap() {
        // 100 < 200 the obvious way…
        assert!(SeqNum(100).lt(SeqNum(200)));
        assert!(SeqNum(200).gt(SeqNum(100)));
        // …and across the 2^32 boundary.
        assert!(SeqNum(u32::MAX - 5).lt(SeqNum(3)));
        assert!(SeqNum(3).gt(SeqNum(u32::MAX - 5)));
        assert!(SeqNum(3).ge(SeqNum(u32::MAX - 5)));
        assert!(SeqNum(u32::MAX).le(SeqNum(0)));
    }

    #[test]
    fn equality_is_neither_lt_nor_gt() {
        for x in [0u32, 1, u32::MAX, 0x8000_0000].map(SeqNum) {
            assert!(!x.lt(x));
            assert!(!x.gt(x));
            assert!(x.le(x));
            assert!(x.ge(x));
        }
    }

    #[test]
    fn antisymmetric_for_distances_below_half_the_space() {
        for (a, d) in [
            (0u32, 1u32),
            (u32::MAX, 1),
            (u32::MAX - 1000, 5000),
            (0x7fff_0000, 0x0001_0000),
        ] {
            let (a, b) = (SeqNum(a), SeqNum(a) + d);
            assert!(a.lt(b), "{a:?} < {a:?}+{d}");
            assert!(!b.lt(a));
            assert_eq!(b - a, d);
        }
    }
}
