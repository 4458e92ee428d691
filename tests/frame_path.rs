//! Integration tests for the zero-copy frame path: a packet travelling
//! bridge → vchan ring → unikernel is copied exactly once, at ring ingress,
//! and a packet Synjitsu parks during the handoff is copied exactly once, at
//! the park. Everything downstream of that copy — ethernet/IP/TCP parsing,
//! in-order delivery, HTTP reassembly — hands out `FrameBuf` views of the
//! single allocation, and the tests here prove it with `shares_allocation`
//! assertions on real end-to-end exchanges.

use jitsu_repro::conduit::vchan::{Side, VchanPair};
use jitsu_repro::netstack::http::{HttpRequest, HttpResponse};
use jitsu_repro::netstack::iface::{IfaceEvent, Interface};
use jitsu_repro::netstack::tcp::Connection;
use jitsu_repro::netstack::{FrameBuf, MacAddr};
use jitsu_repro::prelude::*;
use jitsu_repro::unikernel::appliance::StaticSiteAppliance;
use jitsu_repro::unikernel::image::UnikernelImage;
use jitsu_repro::unikernel::instance::UnikernelInstance;
use jitsu_repro::xen::event_channel::EventChannelTable;
use jitsu_repro::xen::grant_table::GrantTable;

const SERVER_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x20]);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 20);
const CLIENT_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x64]);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 100);

fn unikernel() -> UnikernelInstance {
    UnikernelInstance::new(
        UnikernelImage::mirage("alice"),
        SERVER_MAC,
        SERVER_IP,
        80,
        Box::new(StaticSiteAppliance::new("alice")),
        99,
    )
}

/// Every TCP payload the unikernel's responses deliver to the client must be
/// an O(1) view of the Ethernet frame it arrived in — no hidden copy between
/// the wire and the application.
#[test]
fn response_bytes_reach_the_client_as_views_of_the_arriving_frames() {
    let mut server = unikernel();
    let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
    client.add_arp_entry(SERVER_IP, SERVER_MAC);
    server.iface.add_arp_entry(CLIENT_IP, CLIENT_MAC);

    let mut to_server = vec![client.tcp_connect(SERVER_IP, 80)];
    let local_port = 49152;
    let mut sent_request = false;
    let mut response = Vec::new();
    let mut data_events = 0usize;
    for _ in 0..32 {
        if to_server.is_empty() {
            break;
        }
        let mut to_client = Vec::new();
        for f in to_server.drain(..) {
            let (out, _) = server.handle_frame(&f);
            to_client.extend(out);
        }
        for frame in to_client {
            let (out, events) = client.handle_frame(&frame);
            to_server.extend(out);
            for ev in events {
                match ev {
                    IfaceEvent::TcpConnected { remote, .. } if !sent_request => {
                        sent_request = true;
                        let req = HttpRequest::get("/", "alice").emit();
                        let f = client.tcp_send(remote, local_port, &req).unwrap();
                        to_server.push(f);
                    }
                    IfaceEvent::TcpData { data, .. } => {
                        data_events += 1;
                        assert!(
                            data.shares_allocation(&frame),
                            "delivered payload must be a view of the frame it \
                             arrived in"
                        );
                        response.extend_from_slice(&data);
                    }
                    _ => {}
                }
            }
        }
    }
    assert!(data_events > 0, "the exchange must deliver payload bytes");
    let response = FrameBuf::from_vec(response);
    let parsed = HttpResponse::parse(&response).unwrap().unwrap();
    assert_eq!(parsed.status, 200);
    assert!(String::from_utf8_lossy(&parsed.body).contains("alice"));
}

/// Push every client→server frame through a real vchan ring and hand the
/// drained buffer straight to the server interface: the request payload the
/// server sees shares the allocation created at ring egress, so the only
/// copy on the path is the ring transfer itself.
#[test]
fn a_request_crossing_the_vchan_ring_is_copied_only_at_the_ring() {
    let mut grants = GrantTable::new();
    let mut evtchn = EventChannelTable::new();
    let mut pair = VchanPair::establish(&mut grants, &mut evtchn, DomId(3), DomId(7)).unwrap();

    let mut server = Interface::new(SERVER_MAC, SERVER_IP);
    server.listen_tcp(80);
    let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
    client.add_arp_entry(SERVER_IP, SERVER_MAC);
    server.add_arp_entry(CLIENT_IP, CLIENT_MAC);

    let request = HttpRequest::get("/", "alice").emit();
    let mut to_server = vec![client.tcp_connect(SERVER_IP, 80)];
    let local_port = 49152;
    let mut sent_request = false;
    let mut ring_bytes = 0u64;
    let mut server_payload = Vec::new();
    for _ in 0..32 {
        if to_server.is_empty() {
            break;
        }
        let mut to_client = Vec::new();
        for f in to_server.drain(..) {
            // The ring transfer: the frame's bytes are copied into the ring
            // by `write` and materialised exactly once by `read`.
            let mut offset = 0;
            while offset < f.len() {
                offset += pair.write(Side::Client, &f[offset..], &mut evtchn).unwrap();
            }
            ring_bytes += f.len() as u64;
            let wire = pair.read(Side::Server, usize::MAX).unwrap();
            assert_eq!(&wire, &f, "the ring is loss-free and order-preserving");
            let (out, events) = server.handle_frame(&wire);
            to_client.extend(out);
            for ev in events {
                if let IfaceEvent::TcpData { data, .. } = ev {
                    assert!(
                        data.shares_allocation(&wire),
                        "server-side payload must be a view of the buffer \
                         drained from the ring"
                    );
                    server_payload.extend_from_slice(&data);
                }
            }
        }
        for f in to_client {
            let (out, events) = client.handle_frame(&f);
            to_server.extend(out);
            for ev in events {
                if let IfaceEvent::TcpConnected { remote, .. } = ev {
                    if !sent_request {
                        sent_request = true;
                        let f = client.tcp_send(remote, local_port, &request).unwrap();
                        to_server.push(f);
                    }
                }
            }
        }
    }
    assert_eq!(
        FrameBuf::from_vec(server_payload),
        request,
        "the request survives the ring byte-identically"
    );
    assert_eq!(
        pair.bytes_to_server(),
        ring_bytes,
        "every byte crossed the ring exactly once"
    );
}

/// The ring drain itself hands back a single shared buffer when the transfer
/// fit in one drain, and a zero-byte drain does not allocate at all.
#[test]
fn ring_drains_are_single_allocations_and_empty_drains_are_free() {
    let mut grants = GrantTable::new();
    let mut evtchn = EventChannelTable::new();
    let mut pair = VchanPair::establish(&mut grants, &mut evtchn, DomId(3), DomId(7)).unwrap();

    let frame = [0xABu8; 600];
    let mut offset = 0;
    while offset < frame.len() {
        offset += pair
            .write(Side::Client, &frame[offset..], &mut evtchn)
            .unwrap();
    }
    let drained = pair.read(Side::Server, usize::MAX).unwrap();
    assert!(drained.has_allocation(), "a non-empty drain owns its bytes");
    assert_eq!(&drained, &frame[..]);
    // A view of the drain shares the drain's allocation: downstream parsing
    // never re-copies.
    assert!(drained.slice(14..).shares_allocation(&drained));

    let empty = pair.read(Side::Server, usize::MAX).unwrap();
    assert!(empty.is_empty());
    assert!(
        !empty.has_allocation(),
        "an idle ring poll must not allocate"
    );
}

/// Synjitsu capture and handoff replay (§3.3.1). A request that reaches
/// Synjitsu while the handoff is in `Prepare` is parked in the store — the
/// one copy on its path, since Figure 7 keeps parked packets as store
/// values — and replayed by the unikernel after the commit. The replayed
/// frame is the drained buffer itself, and the request the unikernel's
/// stack delivers is a view of it: capture and replay add no copy.
#[test]
fn a_frame_parked_during_the_handoff_is_replayed_without_another_copy() {
    let svc = ServiceConfig::http_site("alice.family.name", SERVER_IP);
    let mut xs = XenStore::new(EngineKind::JitsuMerge);
    let mut synjitsu = Synjitsu::new();
    synjitsu.start_proxying(&mut xs, &svc).unwrap();

    // Synjitsu completes the client's handshake on the booting service's
    // behalf.
    let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
    client.add_arp_entry(svc.ip, svc.mac());
    let mut to_proxy = vec![client.tcp_connect(svc.ip, svc.port)];
    let mut connected = None;
    for _ in 0..16 {
        let mut to_client = Vec::new();
        for f in to_proxy.drain(..) {
            to_client.extend(synjitsu.handle_frame(&mut xs, &svc.name, &f).unwrap());
        }
        for f in to_client {
            let (out, events) = client.handle_frame(&f);
            to_proxy.extend(out);
            for ev in events {
                if let IfaceEvent::TcpConnected { remote, local_port } = ev {
                    connected = Some((remote, local_port));
                }
            }
        }
    }
    let (remote, local_port) = connected.expect("synjitsu completes the handshake");

    // The unikernel asks to take over; the request that arrives now is
    // parked, not answered.
    synjitsu.prepare_handoff(&mut xs, &svc.name).unwrap();
    let request = HttpRequest::get("/", &svc.name).emit();
    let arriving = client.tcp_send(remote, local_port, &request).unwrap();
    let answered = synjitsu
        .handle_frame(&mut xs, &svc.name, &arriving)
        .unwrap();
    assert!(answered.is_empty(), "nobody answers during Prepare");

    // The unikernel adopts the proxied connection, commits, and replays the
    // parked frame.
    let mut unikernel = Interface::new(svc.mac(), svc.ip);
    unikernel.listen_tcp(svc.port);
    for (_, tcb) in synjitsu.connection_records(&svc.name) {
        unikernel.adopt_connection(Connection::from_tcb(tcb), CLIENT_MAC);
    }
    let parked = synjitsu.commit_handoff(&mut xs, &svc.name).unwrap();
    assert_eq!(parked.len(), 1, "exactly the one late frame was parked");
    let replayed = &parked[0];
    assert_eq!(replayed, &arriving, "the park is loss-free");
    assert!(
        replayed.has_allocation(),
        "the park is the frame's one copy"
    );

    let (_, events) = unikernel.handle_frame(replayed);
    let delivered: Vec<FrameBuf> = events
        .into_iter()
        .filter_map(|ev| match ev {
            IfaceEvent::TcpData { data, .. } => Some(data),
            _ => None,
        })
        .collect();
    assert_eq!(delivered.len(), 1, "the replay delivers the request once");
    assert_eq!(delivered[0], request);
    assert!(
        delivered[0].shares_allocation(replayed),
        "the replayed request must be a view of the drained frame"
    );
}
