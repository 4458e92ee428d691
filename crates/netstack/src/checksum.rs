//! The Internet checksum (RFC 1071) used by IPv4, ICMP, UDP and TCP.

/// Compute the one's-complement sum of `data`, folded to 16 bits, starting
/// from an initial partial sum (host byte order).
pub fn partial(mut sum: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let Some(&last) = chunks.remainder().first() {
        sum += u32::from(u16::from_be_bytes([last, 0]));
    }
    sum
}

/// Fold a partial sum and return the final checksum value.
pub fn finish(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the fold loop above just established sum >> 16 == 0, so sum fits in u16"
    )]
    !(sum as u16)
}

/// One-shot checksum of a buffer.
pub fn checksum(data: &[u8]) -> u16 {
    finish(partial(0, data))
}

/// The IPv4 pseudo-header contribution used by TCP and UDP checksums.
pub fn pseudo_header(src: [u8; 4], dst: [u8; 4], protocol: u8, length: u16) -> u32 {
    let mut sum = 0u32;
    sum = partial(sum, &src);
    sum = partial(sum, &dst);
    sum += u32::from(protocol);
    sum += u32::from(length);
    sum
}

/// Verify that a buffer containing its own checksum field sums to zero.
pub fn verify(data: &[u8]) -> bool {
    finish(partial(0, data)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2u16);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        let even = checksum(&[0x01, 0x02, 0x03, 0x00]);
        let odd = checksum(&[0x01, 0x02, 0x03]);
        assert_eq!(even, odd);
    }

    #[test]
    fn verify_detects_corruption() {
        // Build a fake header with its checksum inserted and verify it.
        let mut header = vec![
            0x45, 0x00, 0x00, 0x54, 0x00, 0x00, 0x40, 0x00, 0x40, 0x01, 0, 0, 10, 0, 0, 1, 10, 0,
            0, 2,
        ];
        let c = checksum(&header);
        header[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&header));
        header[15] ^= 0xff;
        assert!(!verify(&header));
    }

    #[test]
    fn pseudo_header_contributes_to_sum() {
        let ph = pseudo_header([10, 0, 0, 1], [10, 0, 0, 2], 6, 20);
        let with = finish(partial(ph, b"hello world tcp data"));
        let without = checksum(b"hello world tcp data");
        assert_ne!(with, without);
    }

    #[test]
    fn empty_buffer_checksum() {
        assert_eq!(checksum(&[]), 0xffff);
        assert_eq!(finish(0), 0xffff);
    }
}
