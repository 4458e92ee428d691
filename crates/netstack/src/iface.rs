//! A sans-io network interface: one MAC + IPv4 address, ARP, ICMP echo,
//! UDP delivery and TCP listeners/connections.
//!
//! This is the object a unikernel (or Synjitsu, or the simulated external
//! client) instantiates on top of its link. Frames go in via
//! [`Interface::handle_frame`]; the return value carries both the frames to
//! transmit in response (ARP replies, ICMP echo replies, TCP ACKs, …) and
//! higher-level events (datagrams and TCP data) for the application to act
//! on. Nothing here performs I/O, so the same interface code runs over the
//! simulated dom0 bridge, over a conduit, or in unit tests.

use crate::arp::{ArpCache, ArpOp, ArpPacket};
use crate::buf::FrameBuf;
use crate::ethernet::{EtherType, EthernetFrame, MacAddr};
use crate::icmp::IcmpEcho;
use crate::ipv4::{Ipv4Addr, Ipv4Packet, Protocol};
use crate::tcp::{Connection, Listener, TcpFlags, TcpSegment};
use crate::udp::UdpDatagram;
use std::collections::BTreeMap;

/// Events surfaced to the application layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IfaceEvent {
    /// A TCP connection completed its handshake.
    TcpConnected {
        /// Remote endpoint.
        remote: (Ipv4Addr, u16),
        /// Local port.
        local_port: u16,
    },
    /// In-order TCP data arrived on a connection.
    TcpData {
        /// Remote endpoint.
        remote: (Ipv4Addr, u16),
        /// Local port.
        local_port: u16,
        /// The received bytes: a view of the frame's shared buffer when a
        /// single segment is pending (the common case).
        data: FrameBuf,
    },
    /// The remote side closed a connection.
    TcpClosed {
        /// Remote endpoint.
        remote: (Ipv4Addr, u16),
        /// Local port.
        local_port: u16,
    },
    /// A UDP datagram arrived.
    Udp {
        /// Source endpoint.
        src: (Ipv4Addr, u16),
        /// Destination port.
        dst_port: u16,
        /// Payload: a view into the received frame's shared buffer.
        payload: FrameBuf,
    },
    /// An ICMP echo reply arrived (the client side of Figure 8's ping).
    IcmpEchoReply {
        /// Source address of the reply.
        src: Ipv4Addr,
        /// Echo identifier.
        ident: u16,
        /// Echo sequence number.
        seq: u16,
        /// Payload length.
        payload_len: usize,
    },
}

/// Key identifying a connection: (remote ip, remote port, local port).
type ConnKey = (Ipv4Addr, u16, u16);

/// A sans-io interface.
#[derive(Debug)]
pub struct Interface {
    /// Our MAC address.
    pub mac: MacAddr,
    /// Our IPv4 address.
    pub ip: Ipv4Addr,
    arp_cache: ArpCache,
    listeners: Vec<Listener>,
    connections: BTreeMap<ConnKey, Connection>,
    next_ephemeral: u16,
    isn_seed: u32,
}

impl Interface {
    /// Create an interface with the given addresses.
    pub fn new(mac: MacAddr, ip: Ipv4Addr) -> Interface {
        Interface {
            mac,
            ip,
            arp_cache: ArpCache::new(),
            listeners: Vec::new(),
            connections: BTreeMap::new(),
            next_ephemeral: 49152,
            isn_seed: u32::from_be_bytes(ip.0).wrapping_mul(2654435761),
        }
    }

    /// Override the base of the ephemeral port range used by
    /// [`Interface::tcp_connect`] (useful when a fresh interface must not
    /// collide with connections an earlier interface at the same address
    /// established — e.g. repeated simulated clients).
    pub fn set_ephemeral_base(&mut self, port: u16) {
        self.next_ephemeral = port.max(1024);
    }

    /// Start listening for TCP connections on a port.
    pub fn listen_tcp(&mut self, port: u16) {
        if !self.listeners.iter().any(|l| l.local_port == port) {
            self.listeners.push(Listener::new(
                self.ip,
                port,
                self.isn_seed.wrapping_add(port as u32),
            ));
        }
    }

    /// Number of live TCP connections.
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// Access a connection's state (for tests and Synjitsu's handoff).
    pub fn connection(&self, remote: (Ipv4Addr, u16), local_port: u16) -> Option<&Connection> {
        self.connections.get(&(remote.0, remote.1, local_port))
    }

    /// The keys of all live connections as `(remote ip, remote port,
    /// local port)` — used by Synjitsu to mirror every proxied connection
    /// into XenStore.
    pub fn connection_keys(&self) -> Vec<(Ipv4Addr, u16, u16)> {
        self.connections.keys().copied().collect()
    }

    /// Remove and return a connection (Synjitsu extracts connections here to
    /// serialise them for handoff).
    pub fn extract_connection(
        &mut self,
        remote: (Ipv4Addr, u16),
        local_port: u16,
    ) -> Option<Connection> {
        self.connections.remove(&(remote.0, remote.1, local_port))
    }

    /// Adopt a connection built elsewhere (the unikernel side of the
    /// Synjitsu handoff). Also primes the ARP cache so replies can be sent
    /// without another resolution round trip.
    pub fn adopt_connection(&mut self, conn: Connection, remote_mac: MacAddr) {
        let key = (
            conn.tcb.remote_ip,
            conn.tcb.remote_port,
            conn.tcb.local_port,
        );
        self.arp_cache.insert(conn.tcb.remote_ip, remote_mac);
        self.connections.insert(key, conn);
    }

    /// Record an IP → MAC mapping (e.g. learned out of band).
    pub fn add_arp_entry(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.arp_cache.insert(ip, mac);
    }

    fn lookup_mac(&self, ip: Ipv4Addr) -> MacAddr {
        self.arp_cache.lookup(ip).unwrap_or(MacAddr::BROADCAST)
    }

    fn wrap_ip(&self, dst_ip: Ipv4Addr, protocol: Protocol, payload: FrameBuf) -> FrameBuf {
        let packet = Ipv4Packet::new(self.ip, dst_ip, protocol, payload);
        EthernetFrame::new(
            self.lookup_mac(dst_ip),
            self.mac,
            EtherType::Ipv4,
            packet.emit(),
        )
        .emit()
    }

    /// Build an ARP who-has request frame for `ip`.
    pub fn arp_request(&self, ip: Ipv4Addr) -> FrameBuf {
        let arp = ArpPacket::request(self.mac, self.ip, ip);
        EthernetFrame::new(MacAddr::BROADCAST, self.mac, EtherType::Arp, arp.emit()).emit()
    }

    /// Build an ICMP echo request frame (the Figure 8 client).
    pub fn icmp_echo_request(
        &self,
        dst: Ipv4Addr,
        ident: u16,
        seq: u16,
        payload_len: usize,
    ) -> FrameBuf {
        let echo = IcmpEcho::request(ident, seq, vec![0x42; payload_len]);
        self.wrap_ip(dst, Protocol::Icmp, echo.emit())
    }

    /// Build a UDP datagram frame.
    pub fn udp_send(
        &self,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: impl Into<FrameBuf>,
    ) -> FrameBuf {
        let datagram = UdpDatagram::new(src_port, dst_port, payload);
        self.wrap_ip(dst, Protocol::Udp, datagram.emit(self.ip, dst))
    }

    /// Open a TCP connection; returns the SYN frame to transmit.
    pub fn tcp_connect(&mut self, dst: Ipv4Addr, dst_port: u16) -> FrameBuf {
        let local_port = self.next_ephemeral;
        self.next_ephemeral = self.next_ephemeral.wrapping_add(1).max(49152);
        let isn = self
            .isn_seed
            .wrapping_add(local_port as u32)
            .wrapping_mul(69069);
        let (conn, syn) = Connection::connect(self.ip, local_port, dst, dst_port, isn);
        self.connections.insert((dst, dst_port, local_port), conn);
        self.wrap_ip(dst, Protocol::Tcp, syn.emit(self.ip, dst))
    }

    /// Send data on an established connection; returns the frame. A
    /// [`FrameBuf`] argument rides through as an O(1) view.
    pub fn tcp_send(
        &mut self,
        remote: (Ipv4Addr, u16),
        local_port: u16,
        data: impl Into<FrameBuf>,
    ) -> Option<FrameBuf> {
        let conn = self
            .connections
            .get_mut(&(remote.0, remote.1, local_port))?;
        let seg = conn.send(data);
        let bytes = seg.emit(self.ip, remote.0);
        Some(self.wrap_ip(remote.0, Protocol::Tcp, bytes))
    }

    /// Close a connection; returns the FIN frame.
    pub fn tcp_close(&mut self, remote: (Ipv4Addr, u16), local_port: u16) -> Option<FrameBuf> {
        let conn = self
            .connections
            .get_mut(&(remote.0, remote.1, local_port))?;
        let fin = conn.close();
        let bytes = fin.emit(self.ip, remote.0);
        Some(self.wrap_ip(remote.0, Protocol::Tcp, bytes))
    }

    /// Process one received Ethernet frame. Returns `(frames_to_send, events)`.
    ///
    /// The frame is a shared buffer; every payload handed out in the events
    /// (TCP data, UDP datagrams) is a view into it, so the one copy made at
    /// ring ingress is the last copy a packet sees.
    pub fn handle_frame(&mut self, frame_bytes: &FrameBuf) -> (Vec<FrameBuf>, Vec<IfaceEvent>) {
        let mut out = Vec::new();
        let mut events = Vec::new();
        let Ok(frame) = EthernetFrame::parse(frame_bytes) else {
            return (out, events);
        };
        if frame.dst != self.mac && !frame.dst.is_broadcast() && !frame.dst.is_multicast() {
            return (out, events);
        }
        match frame.ethertype {
            EtherType::Arp => {
                if let Ok(arp) = ArpPacket::parse(&frame.payload) {
                    self.arp_cache.insert(arp.sender_ip, arp.sender_mac);
                    if arp.op == ArpOp::Request && arp.target_ip == self.ip {
                        let reply = ArpPacket::reply_to(&arp, self.mac);
                        out.push(
                            EthernetFrame::new(
                                arp.sender_mac,
                                self.mac,
                                EtherType::Arp,
                                reply.emit(),
                            )
                            .emit(),
                        );
                    }
                }
            }
            EtherType::Ipv4 => {
                if let Ok(packet) = Ipv4Packet::parse(&frame.payload) {
                    if packet.dst != self.ip && packet.dst != Ipv4Addr::BROADCAST {
                        return (out, events);
                    }
                    self.arp_cache.insert(packet.src, frame.src);
                    match packet.protocol {
                        Protocol::Icmp => self.handle_icmp(&packet, &mut out, &mut events),
                        Protocol::Udp => self.handle_udp(&packet, &mut events),
                        Protocol::Tcp => self.handle_tcp(&packet, &mut out, &mut events),
                        Protocol::Other(_) => {}
                    }
                }
            }
            EtherType::Other(_) => {}
        }
        (out, events)
    }

    fn handle_icmp(
        &mut self,
        packet: &Ipv4Packet,
        out: &mut Vec<FrameBuf>,
        events: &mut Vec<IfaceEvent>,
    ) {
        if let Ok(echo) = IcmpEcho::parse(&packet.payload) {
            if echo.is_request {
                let reply = echo.reply();
                out.push(self.wrap_ip(packet.src, Protocol::Icmp, reply.emit()));
            } else {
                events.push(IfaceEvent::IcmpEchoReply {
                    src: packet.src,
                    ident: echo.ident,
                    seq: echo.seq,
                    payload_len: echo.payload.len(),
                });
            }
        }
    }

    fn handle_udp(&mut self, packet: &Ipv4Packet, events: &mut Vec<IfaceEvent>) {
        if let Ok(datagram) = UdpDatagram::parse(&packet.payload, packet.src, packet.dst) {
            events.push(IfaceEvent::Udp {
                src: (packet.src, datagram.src_port),
                dst_port: datagram.dst_port,
                payload: datagram.payload,
            });
        }
    }

    fn handle_tcp(
        &mut self,
        packet: &Ipv4Packet,
        out: &mut Vec<FrameBuf>,
        events: &mut Vec<IfaceEvent>,
    ) {
        let Ok(seg) = TcpSegment::parse(&packet.payload, packet.src, packet.dst) else {
            return;
        };
        let key = (packet.src, seg.src_port, seg.dst_port);
        if let Some(conn) = self.connections.get_mut(&key) {
            let was_established = conn.is_established();
            let responses = conn.on_segment(&seg);
            let newly_established = !was_established && conn.is_established();
            let data = conn.take_received();
            let closed = seg.flags.fin
                && matches!(
                    conn.state(),
                    crate::tcp::TcpState::Closed | crate::tcp::TcpState::CloseWait
                );
            for r in responses {
                let bytes = r.emit(self.ip, packet.src);
                out.push(self.wrap_ip(packet.src, Protocol::Tcp, bytes));
            }
            if newly_established {
                events.push(IfaceEvent::TcpConnected {
                    remote: (packet.src, seg.src_port),
                    local_port: seg.dst_port,
                });
            }
            if !data.is_empty() {
                events.push(IfaceEvent::TcpData {
                    remote: (packet.src, seg.src_port),
                    local_port: seg.dst_port,
                    data,
                });
            }
            if closed {
                events.push(IfaceEvent::TcpClosed {
                    remote: (packet.src, seg.src_port),
                    local_port: seg.dst_port,
                });
            }
            return;
        }
        // No existing connection: maybe a listener wants the SYN.
        if seg.flags.syn && !seg.flags.ack {
            if let Some(listener) = self
                .listeners
                .iter_mut()
                .find(|l| l.local_port == seg.dst_port)
            {
                if let Some((conn, syn_ack)) = listener.on_syn(packet.src, &seg) {
                    let bytes = syn_ack.emit(self.ip, packet.src);
                    out.push(self.wrap_ip(packet.src, Protocol::Tcp, bytes));
                    self.connections.insert(key, conn);
                    return;
                }
            }
        }
        // Otherwise: refuse with RST (unless the segment was itself an RST).
        if !seg.flags.rst {
            let rst = TcpSegment::control(
                seg.dst_port,
                seg.src_port,
                seg.ack,
                seg.seq + seg.seq_len(),
                TcpFlags::RST,
            );
            let bytes = rst.emit(self.ip, packet.src);
            out.push(self.wrap_ip(packet.src, Protocol::Tcp, bytes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLIENT_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
    const SERVER_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 100);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 20);

    fn pair() -> (Interface, Interface) {
        let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
        let mut server = Interface::new(SERVER_MAC, SERVER_IP);
        client.add_arp_entry(SERVER_IP, SERVER_MAC);
        server.add_arp_entry(CLIENT_IP, CLIENT_MAC);
        (client, server)
    }

    /// Deliver frames back and forth until both sides go quiet, collecting
    /// events per side.
    fn pump(
        a: &mut Interface,
        b: &mut Interface,
        mut frames_to_b: Vec<FrameBuf>,
    ) -> (Vec<IfaceEvent>, Vec<IfaceEvent>) {
        let mut events_a = Vec::new();
        let mut events_b = Vec::new();
        let mut frames_to_a: Vec<FrameBuf> = Vec::new();
        for _ in 0..32 {
            if frames_to_b.is_empty() && frames_to_a.is_empty() {
                break;
            }
            let mut next_to_a = Vec::new();
            for f in frames_to_b.drain(..) {
                let (out, ev) = b.handle_frame(&f);
                next_to_a.extend(out);
                events_b.extend(ev);
            }
            let mut next_to_b = Vec::new();
            for f in frames_to_a.drain(..) {
                let (out, ev) = a.handle_frame(&f);
                next_to_b.extend(out);
                events_a.extend(ev);
            }
            frames_to_a = next_to_a;
            frames_to_b = next_to_b;
        }
        (events_a, events_b)
    }

    #[test]
    fn arp_request_gets_replied_and_cached() {
        let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
        let mut server = Interface::new(SERVER_MAC, SERVER_IP);
        let req = client.arp_request(SERVER_IP);
        let (replies, _) = server.handle_frame(&req);
        assert_eq!(replies.len(), 1);
        let (none, _) = client.handle_frame(&replies[0]);
        assert!(none.is_empty());
        // The client now resolves the server without broadcasting.
        assert_eq!(client.lookup_mac(SERVER_IP), SERVER_MAC);
        // Requests for other addresses are ignored.
        let other = client.arp_request(Ipv4Addr::new(192, 168, 1, 77));
        let (replies, _) = server.handle_frame(&other);
        assert!(replies.is_empty());
    }

    #[test]
    fn icmp_echo_request_reply() {
        let (mut client, mut server) = pair();
        let ping = client.icmp_echo_request(SERVER_IP, 0x77, 3, 56);
        let (events_client, events_server) = pump(&mut client, &mut server, vec![ping]);
        assert!(events_server.is_empty());
        assert_eq!(events_client.len(), 1);
        match &events_client[0] {
            IfaceEvent::IcmpEchoReply {
                src,
                ident,
                seq,
                payload_len,
            } => {
                assert_eq!(*src, SERVER_IP);
                assert_eq!(*ident, 0x77);
                assert_eq!(*seq, 3);
                assert_eq!(*payload_len, 56);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn udp_delivery() {
        let (client, mut server) = pair();
        let frame = client.udp_send(SERVER_IP, 5353, 53, b"query".to_vec());
        let (_, events) = server.handle_frame(&frame);
        match &events[..] {
            [IfaceEvent::Udp {
                src,
                dst_port,
                payload,
            }] => {
                assert_eq!(*src, (CLIENT_IP, 5353));
                assert_eq!(*dst_port, 53);
                assert_eq!(payload, b"query");
                assert!(
                    payload.shares_allocation(&frame),
                    "the delivered datagram payload is a view of the frame"
                );
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn tcp_connect_send_receive() {
        let (mut client, mut server) = pair();
        server.listen_tcp(80);
        let syn = client.tcp_connect(SERVER_IP, 80);
        let (events_client, _events_server) = pump(&mut client, &mut server, vec![syn]);
        assert!(events_client
            .iter()
            .any(|e| matches!(e, IfaceEvent::TcpConnected { .. })));
        assert_eq!(client.connection_count(), 1);
        assert_eq!(server.connection_count(), 1);

        // Send a request from the client and observe it on the server.
        let remote = (SERVER_IP, 80);
        let local_port = client
            .connections
            .keys()
            .next()
            .map(|(_, _, lp)| *lp)
            .unwrap();
        let frame = client
            .tcp_send(remote, local_port, b"GET / HTTP/1.1\r\n\r\n")
            .unwrap();
        let (_, events_server) = pump(&mut client, &mut server, vec![frame.slice(..)]);
        let data_event = events_server
            .iter()
            .find_map(|e| match e {
                IfaceEvent::TcpData { data, remote, .. } => Some((data.clone(), *remote)),
                _ => None,
            })
            .expect("server receives the request");
        assert_eq!(data_event.0, b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(data_event.1 .0, CLIENT_IP);
        assert!(
            data_event.0.shares_allocation(&frame),
            "delivered TCP data is a view of the frame that carried it"
        );
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let (mut client, mut server) = pair();
        let syn = client.tcp_connect(SERVER_IP, 81); // nothing listening
        let (frames, _) = server.handle_frame(&syn);
        assert_eq!(frames.len(), 1);
        let eth = EthernetFrame::parse(&frames[0]).unwrap();
        let ip = Ipv4Packet::parse(&eth.payload).unwrap();
        let seg = TcpSegment::parse(&ip.payload, ip.src, ip.dst).unwrap();
        assert!(seg.flags.rst);
    }

    #[test]
    fn frames_for_other_hosts_are_ignored() {
        let (client, mut server) = pair();
        // Address the frame at some third MAC.
        let mut frame = client.udp_send(SERVER_IP, 1, 2, b"x".to_vec()).to_vec();
        frame[0..6].copy_from_slice(&[2, 0, 0, 0, 0, 9]);
        let (out, events) = server.handle_frame(&frame.into());
        assert!(out.is_empty());
        assert!(events.is_empty());
        // Garbage frames are ignored too.
        let (out, events) = server.handle_frame(&FrameBuf::copy_from_slice(&[1, 2, 3]));
        assert!(out.is_empty());
        assert!(events.is_empty());
    }

    #[test]
    fn adopted_connection_serves_data() {
        // Build an established connection on a "proxy" interface, extract
        // it, and adopt it on a fresh "unikernel" interface.
        let (mut client, mut proxy) = pair();
        proxy.listen_tcp(80);
        let syn = client.tcp_connect(SERVER_IP, 80);
        pump(&mut client, &mut proxy, vec![syn]);
        let local_port = client
            .connections
            .keys()
            .next()
            .map(|(_, _, lp)| *lp)
            .unwrap();
        let req = client
            .tcp_send((SERVER_IP, 80), local_port, b"GET /")
            .unwrap();
        pump(&mut client, &mut proxy, vec![req]);

        let conn = proxy
            .extract_connection((CLIENT_IP, local_port), 80)
            .expect("proxy holds the connection");
        // A fresh unikernel interface with the same IP adopts it.
        let mut unikernel = Interface::new(SERVER_MAC, SERVER_IP);
        unikernel.adopt_connection(conn, CLIENT_MAC);
        assert_eq!(unikernel.connection_count(), 1);
        let resp_frame = unikernel
            .tcp_send((CLIENT_IP, local_port), 80, b"HTTP/1.1 200 OK\r\n\r\n")
            .unwrap();
        let (_, events) = client.handle_frame(&resp_frame);
        assert!(events.iter().any(|e| matches!(
            e,
            IfaceEvent::TcpData { data, .. } if data.starts_with(b"HTTP/1.1 200")
        )));
    }

    #[test]
    fn tcp_close_emits_fin_and_event() {
        let (mut client, mut server) = pair();
        server.listen_tcp(80);
        let syn = client.tcp_connect(SERVER_IP, 80);
        pump(&mut client, &mut server, vec![syn]);
        let local_port = client
            .connections
            .keys()
            .next()
            .map(|(_, _, lp)| *lp)
            .unwrap();
        let fin = client.tcp_close((SERVER_IP, 80), local_port).unwrap();
        let (_, events_server) = pump(&mut client, &mut server, vec![fin]);
        assert!(events_server
            .iter()
            .any(|e| matches!(e, IfaceEvent::TcpClosed { .. })));
    }
}
