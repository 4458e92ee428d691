//! The XenStore wire protocol.
//!
//! Guests talk to the store daemon over a shared-memory ring carrying
//! `xsd_sockmsg`-framed packets: a 16-byte little-endian header
//! (`type`, `req_id`, `tx_id`, `len`) followed by a NUL-separated payload.
//! This module implements the framing and the request/response encoding for
//! the operations the Jitsu toolstack uses. The `conduit` and `xen-sim`
//! crates exchange these packets over simulated rings, so the control path
//! exercised by the reproduction is byte-compatible in structure with the
//! real protocol.

use crate::error::{Error, Result};

/// Message type numbers, following `xen/include/public/io/xs_wire.h`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
#[expect(
    missing_docs,
    reason = "each variant is named after its xs_wire.h constant"
)]
pub enum MsgType {
    Debug = 0,
    Directory = 1,
    Read = 2,
    GetPerms = 3,
    Watch = 4,
    Unwatch = 5,
    TransactionStart = 6,
    TransactionEnd = 7,
    Introduce = 8,
    Release = 9,
    GetDomainPath = 10,
    Write = 11,
    Mkdir = 12,
    Rm = 13,
    SetPerms = 14,
    WatchEvent = 15,
    Error = 16,
    IsDomainIntroduced = 17,
}

impl MsgType {
    /// Decode a wire type number.
    pub fn from_u32(v: u32) -> Option<MsgType> {
        use MsgType::*;
        Some(match v {
            0 => Debug,
            1 => Directory,
            2 => Read,
            3 => GetPerms,
            4 => Watch,
            5 => Unwatch,
            6 => TransactionStart,
            7 => TransactionEnd,
            8 => Introduce,
            9 => Release,
            10 => GetDomainPath,
            11 => Write,
            12 => Mkdir,
            13 => Rm,
            14 => SetPerms,
            15 => WatchEvent,
            16 => Error,
            17 => IsDomainIntroduced,
            _ => return None,
        })
    }
}

/// Maximum payload accepted on the wire (matching `XENSTORE_PAYLOAD_MAX`).
pub const PAYLOAD_MAX: usize = 4096;

/// One framed message (request or response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Operation or response type.
    pub kind: MsgType,
    /// Request id echoed in the response, so clients can pipeline.
    pub req_id: u32,
    /// Transaction id, 0 when outside a transaction.
    pub tx_id: u32,
    /// Raw payload (NUL-separated strings).
    pub payload: Vec<u8>,
}

impl Message {
    /// Build a message from string segments joined by NUL bytes.
    pub fn from_segments(kind: MsgType, req_id: u32, tx_id: u32, segments: &[&str]) -> Message {
        Message {
            kind,
            req_id,
            tx_id,
            payload: segments.join("\0").into_bytes(),
        }
    }

    /// Split the payload on NUL bytes into string segments. A trailing NUL
    /// produces no empty trailing segment.
    pub fn segments(&self) -> Vec<String> {
        let mut parts: Vec<String> = self
            .payload
            .split(|&b| b == 0)
            .map(|s| String::from_utf8_lossy(s).into_owned())
            .collect();
        if parts.last().map(|s| s.is_empty()).unwrap_or(false) {
            parts.pop();
        }
        parts
    }

    /// Encode as header + payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.payload.len());
        out.extend_from_slice(&(self.kind as u32).to_le_bytes());
        out.extend_from_slice(&self.req_id.to_le_bytes());
        out.extend_from_slice(&self.tx_id.to_le_bytes());
        #[expect(
            clippy::cast_possible_truncation,
            reason = "decode rejects payloads above PAYLOAD_MAX (4096); the store never builds larger ones"
        )]
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decode one message from the front of `buf`. Returns the message and
    /// the number of bytes consumed, or `Ok(None)` if more bytes are needed.
    pub fn decode(buf: &[u8]) -> Result<Option<(Message, usize)>> {
        if buf.len() < 16 {
            return Ok(None);
        }
        #[expect(
            clippy::expect_used,
            reason = "the length guard above ensures a full 16-byte header"
        )]
        let kind_raw = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
        #[expect(
            clippy::expect_used,
            reason = "the length guard above ensures a full 16-byte header"
        )]
        let req_id = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        #[expect(
            clippy::expect_used,
            reason = "the length guard above ensures a full 16-byte header"
        )]
        let tx_id = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        #[expect(
            clippy::expect_used,
            reason = "the length guard above ensures a full 16-byte header"
        )]
        let len = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) as usize;
        if len > PAYLOAD_MAX {
            return Err(Error::Protocol(format!(
                "payload length {len} exceeds maximum {PAYLOAD_MAX}"
            )));
        }
        let kind = MsgType::from_u32(kind_raw)
            .ok_or_else(|| Error::Protocol(format!("unknown message type {kind_raw}")))?;
        if buf.len() < 16 + len {
            return Ok(None);
        }
        Ok(Some((
            Message {
                kind,
                req_id,
                tx_id,
                payload: buf[16..16 + len].to_vec(),
            },
            16 + len,
        )))
    }

    /// Build an error response carrying the errno name of `err`.
    pub fn error_response(req_id: u32, tx_id: u32, err: &Error) -> Message {
        Message::from_segments(MsgType::Error, req_id, tx_id, &[err.errno_name()])
    }

    /// True if this is an error response.
    pub fn is_error(&self) -> bool {
        self.kind == MsgType::Error
    }
}

/// A streaming decoder that accumulates bytes (as delivered by a shared
/// memory ring in arbitrary chunks) and yields complete messages.
#[derive(Debug, Default, Clone)]
pub struct Decoder {
    buf: Vec<u8>,
}

impl Decoder {
    /// Create an empty decoder.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Feed bytes into the decoder.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete message, if any.
    pub fn next_message(&mut self) -> Result<Option<Message>> {
        match Message::decode(&self.buf)? {
            None => Ok(None),
            Some((msg, consumed)) => {
                self.buf.drain(..consumed);
                Ok(Some(msg))
            }
        }
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let m = Message::from_segments(MsgType::Write, 7, 3, &["/local/domain/5/name", "web"]);
        let bytes = m.encode();
        let (decoded, consumed) = Message::decode(&bytes).unwrap().unwrap();
        assert_eq!(decoded, m);
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded.segments(), vec!["/local/domain/5/name", "web"]);
    }

    #[test]
    fn decode_needs_full_header_and_payload() {
        let m = Message::from_segments(MsgType::Read, 1, 0, &["/a"]);
        let bytes = m.encode();
        assert!(Message::decode(&bytes[..10]).unwrap().is_none());
        assert!(Message::decode(&bytes[..bytes.len() - 1])
            .unwrap()
            .is_none());
    }

    #[test]
    fn decode_rejects_unknown_type_and_oversized_payload() {
        let mut bytes = Message::from_segments(MsgType::Read, 1, 0, &["/a"]).encode();
        bytes[0] = 200; // unknown type
        assert!(matches!(Message::decode(&bytes), Err(Error::Protocol(_))));

        let mut huge = Message::from_segments(MsgType::Read, 1, 0, &["/a"]).encode();
        huge[12..16].copy_from_slice(&u32::try_from(PAYLOAD_MAX + 1).unwrap().to_le_bytes());
        assert!(matches!(Message::decode(&huge), Err(Error::Protocol(_))));
    }

    #[test]
    fn msg_type_round_trip() {
        for v in 0..=17u32 {
            let t = MsgType::from_u32(v).unwrap();
            assert_eq!(t as u32, v);
        }
        assert!(MsgType::from_u32(99).is_none());
    }

    #[test]
    fn segments_handles_trailing_nul_and_empty() {
        let m = Message {
            kind: MsgType::Watch,
            req_id: 0,
            tx_id: 0,
            payload: b"/path\0token\0".to_vec(),
        };
        assert_eq!(m.segments(), vec!["/path", "token"]);
        let empty = Message {
            kind: MsgType::Debug,
            req_id: 0,
            tx_id: 0,
            payload: Vec::new(),
        };
        assert_eq!(empty.segments(), Vec::<String>::new());
    }

    #[test]
    fn error_response_carries_errno() {
        let e = Message::error_response(9, 0, &Error::NoEntry("/x".into()));
        assert!(e.is_error());
        assert_eq!(e.segments(), vec!["ENOENT"]);
        assert_eq!(e.req_id, 9);
    }

    #[test]
    fn streaming_decoder_reassembles_chunks() {
        let m1 = Message::from_segments(MsgType::Watch, 1, 0, &["/conduit", "tok"]);
        let m2 = Message::from_segments(MsgType::Read, 2, 5, &["/local"]);
        let mut stream = m1.encode();
        stream.extend_from_slice(&m2.encode());

        let mut dec = Decoder::new();
        // Feed in awkward chunk sizes.
        for chunk in stream.chunks(7) {
            dec.push(chunk);
        }
        let got1 = dec.next_message().unwrap().unwrap();
        let got2 = dec.next_message().unwrap().unwrap();
        assert_eq!(got1, m1);
        assert_eq!(got2, m2);
        assert!(dec.next_message().unwrap().is_none());
        assert_eq!(dec.buffered(), 0);
    }
}
