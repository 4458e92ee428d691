//! The TCP connection control block (TCB) and its textual serialisation.
//!
//! Figure 7 of the paper shows Synjitsu registering embryonic connections in
//! XenStore as s-expression-like values: a `state` key (`SYN` or `SYN_ACK`),
//! a `tcb` value carrying the endpoint and sequence state, and a `packets`
//! list of buffered data. [`Tcb::to_sexp`] / [`Tcb::from_sexp`] reproduce
//! that format so the proxy and the unikernel exchange connection state as
//! plain store values, exactly as the paper describes.

use super::SeqNum;
use crate::ipv4::Ipv4Addr;

/// TCP connection states (the subset the reproduction exercises).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Passive open, waiting for a SYN.
    Listen,
    /// SYN received, SYN-ACK sent, waiting for the final ACK.
    SynReceived,
    /// SYN sent (active open), waiting for SYN-ACK.
    SynSent,
    /// Three-way handshake complete.
    Established,
    /// We sent a FIN and await its ACK.
    FinWait1,
    /// Our FIN was ACKed; waiting for the peer's FIN.
    FinWait2,
    /// Peer sent FIN; we ACKed and may still send.
    CloseWait,
    /// We sent our FIN after CloseWait.
    LastAck,
    /// Connection fully closed.
    Closed,
}

impl TcpState {
    /// Encode as the token used in the XenStore handoff record.
    pub fn as_token(self) -> &'static str {
        match self {
            TcpState::Listen => "LISTEN",
            TcpState::SynReceived => "SYN_RCVD",
            TcpState::SynSent => "SYN_SENT",
            TcpState::Established => "ESTABLISHED",
            TcpState::FinWait1 => "FIN_WAIT_1",
            TcpState::FinWait2 => "FIN_WAIT_2",
            TcpState::CloseWait => "CLOSE_WAIT",
            TcpState::LastAck => "LAST_ACK",
            TcpState::Closed => "CLOSED",
        }
    }

    /// Decode a token.
    pub fn from_token(s: &str) -> Option<TcpState> {
        Some(match s {
            "LISTEN" => TcpState::Listen,
            "SYN_RCVD" => TcpState::SynReceived,
            "SYN_SENT" => TcpState::SynSent,
            "ESTABLISHED" => TcpState::Established,
            "FIN_WAIT_1" => TcpState::FinWait1,
            "FIN_WAIT_2" => TcpState::FinWait2,
            "CLOSE_WAIT" => TcpState::CloseWait,
            "LAST_ACK" => TcpState::LastAck,
            "CLOSED" => TcpState::Closed,
            _ => return None,
        })
    }
}

/// The serialisable connection control block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tcb {
    /// Connection state.
    pub state: TcpState,
    /// Local (server) address.
    pub local_ip: Ipv4Addr,
    /// Local (server) port.
    pub local_port: u16,
    /// Remote (client) address.
    pub remote_ip: Ipv4Addr,
    /// Remote (client) port.
    pub remote_port: u16,
    /// Initial send sequence number chosen by this end.
    pub isn: SeqNum,
    /// Next sequence number this end will send.
    pub snd_nxt: SeqNum,
    /// Highest cumulative acknowledgement received from the peer.
    pub snd_una: SeqNum,
    /// Next sequence number expected from the peer.
    pub rcv_nxt: SeqNum,
    /// Application data received in order but not yet consumed. For a
    /// Synjitsu-proxied connection this is the buffered request bytes the
    /// unikernel replays after the handoff.
    pub buffered: Vec<u8>,
}

impl Tcb {
    /// A fresh listener-side TCB for a connection identified by the 4-tuple.
    pub fn for_listener(
        local_ip: Ipv4Addr,
        local_port: u16,
        remote_ip: Ipv4Addr,
        remote_port: u16,
        isn: SeqNum,
    ) -> Tcb {
        Tcb {
            state: TcpState::Listen,
            local_ip,
            local_port,
            remote_ip,
            remote_port,
            isn,
            snd_nxt: isn,
            snd_una: isn,
            rcv_nxt: SeqNum(0),
            buffered: Vec::new(),
        }
    }

    /// The connection 4-tuple `(local ip, local port, remote ip, remote port)`.
    pub fn four_tuple(&self) -> (Ipv4Addr, u16, Ipv4Addr, u16) {
        (
            self.local_ip,
            self.local_port,
            self.remote_ip,
            self.remote_port,
        )
    }

    /// Serialise to the XenStore handoff format: an s-expression-like record
    /// matching Figure 7, with buffered bytes hex-encoded.
    pub fn to_sexp(&self) -> String {
        format!(
            "((state {})(src {})(src-port {})(dst {})(dst-port {})(isn {})(snd-nxt {})(snd-una {})(rcv-nxt {})(packets {}))",
            self.state.as_token(),
            self.local_ip,
            self.local_port,
            self.remote_ip,
            self.remote_port,
            self.isn.0,
            self.snd_nxt.0,
            self.snd_una.0,
            self.rcv_nxt.0,
            hex_encode(&self.buffered),
        )
    }

    /// Parse the handoff format produced by [`Tcb::to_sexp`].
    pub fn from_sexp(s: &str) -> Option<Tcb> {
        let field = |name: &str| -> Option<String> {
            let needle = format!("({name} ");
            let start = s.find(&needle)? + needle.len();
            let end = s[start..].find(')')? + start;
            Some(s[start..end].to_string())
        };
        Some(Tcb {
            state: TcpState::from_token(&field("state")?)?,
            local_ip: Ipv4Addr::parse(&field("src")?)?,
            local_port: field("src-port")?.parse().ok()?,
            remote_ip: Ipv4Addr::parse(&field("dst")?)?,
            remote_port: field("dst-port")?.parse().ok()?,
            isn: SeqNum(field("isn")?.parse().ok()?),
            snd_nxt: SeqNum(field("snd-nxt")?.parse().ok()?),
            snd_una: SeqNum(field("snd-una")?.parse().ok()?),
            rcv_nxt: SeqNum(field("rcv-nxt")?.parse().ok()?),
            buffered: hex_decode(&field("packets")?)?,
        })
    }
}

/// Hex-encode a byte buffer for a XenStore value (`-` for empty, so the
/// store never holds a zero-length value). Public because the handoff
/// coordinator stores raw queued frames in the same format.
pub fn hex_encode(data: &[u8]) -> String {
    if data.is_empty() {
        return "-".to_string();
    }
    data.iter().map(|b| format!("{b:02x}")).collect()
}

/// Decode [`hex_encode`]'s output.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s == "-" {
        return Some(Vec::new());
    }
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tcb {
        Tcb {
            state: TcpState::Established,
            local_ip: Ipv4Addr::new(192, 168, 1, 20),
            local_port: 80,
            remote_ip: Ipv4Addr::new(192, 168, 1, 100),
            remote_port: 51324,
            isn: SeqNum(1_000_000),
            snd_nxt: SeqNum(1_000_001),
            snd_una: SeqNum(1_000_001),
            rcv_nxt: SeqNum(42_424_243),
            buffered: b"GET / HTTP/1.1\r\nHost: alice\r\n\r\n".to_vec(),
        }
    }

    #[test]
    fn state_tokens_round_trip() {
        for s in [
            TcpState::Listen,
            TcpState::SynReceived,
            TcpState::SynSent,
            TcpState::Established,
            TcpState::FinWait1,
            TcpState::FinWait2,
            TcpState::CloseWait,
            TcpState::LastAck,
            TcpState::Closed,
        ] {
            assert_eq!(TcpState::from_token(s.as_token()), Some(s));
        }
        assert_eq!(TcpState::from_token("BOGUS"), None);
    }

    #[test]
    fn sexp_round_trip() {
        let tcb = sample();
        let s = tcb.to_sexp();
        assert!(s.contains("(state ESTABLISHED)"));
        assert!(s.contains("(src 192.168.1.20)"));
        assert!(s.contains("(dst-port 51324)"));
        assert!(s.contains("(isn 1000000)(snd-nxt 1000001)(snd-una 1000001)(rcv-nxt 42424243)"));
        let parsed = Tcb::from_sexp(&s).unwrap();
        assert_eq!(parsed, tcb);
    }

    #[test]
    fn sexp_round_trip_with_empty_buffer() {
        let mut tcb = sample();
        tcb.buffered.clear();
        tcb.state = TcpState::SynReceived;
        let parsed = Tcb::from_sexp(&tcb.to_sexp()).unwrap();
        assert_eq!(parsed, tcb);
        assert!(parsed.buffered.is_empty());
    }

    #[test]
    fn malformed_sexp_rejected() {
        assert!(Tcb::from_sexp("garbage").is_none());
        assert!(Tcb::from_sexp("((state NOPE)(src 1.2.3.4))").is_none());
        let valid = sample().to_sexp();
        let broken = valid.replace("(isn ", "(xxx ");
        assert!(Tcb::from_sexp(&broken).is_none());
    }

    #[test]
    fn hex_codec() {
        assert_eq!(hex_encode(&[]), "-");
        assert_eq!(hex_encode(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(hex_decode("00ff10"), Some(vec![0x00, 0xff, 0x10]));
        assert_eq!(hex_decode("-"), Some(vec![]));
        assert_eq!(hex_decode("abc"), None);
        assert_eq!(hex_decode("zz"), None);
    }

    #[test]
    fn listener_tcb_and_four_tuple() {
        let t = Tcb::for_listener(
            Ipv4Addr::new(10, 0, 0, 2),
            80,
            Ipv4Addr::new(10, 0, 0, 9),
            4000,
            SeqNum(999),
        );
        assert_eq!(t.state, TcpState::Listen);
        assert_eq!(t.snd_nxt, SeqNum(999));
        assert_eq!(
            t.four_tuple(),
            (
                Ipv4Addr::new(10, 0, 0, 2),
                80,
                Ipv4Addr::new(10, 0, 0, 9),
                4000
            )
        );
    }
}
