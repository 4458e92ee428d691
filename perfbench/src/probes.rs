//! Per-layer probes: small loops over each layer's public functions, timed
//! from outside around the calls, and sized from the workload's own
//! counters so that each layer is measured at the scale the storm used it.

use crate::stats::median;
use conduit::vchan::{Side, VchanPair};
use jitsu::config::{JitsuConfig, ServiceConfig};
use jitsu::directory::{DirectoryAction, DirectoryService};
use jitsu::synjitsu::Synjitsu;
use jitsu_sim::{Sim, SimRng, SimTime};
use netstack::dns::DnsMessage;
use netstack::ethernet::MacAddr;
use netstack::http::HttpRequest;
use netstack::iface::{IfaceEvent, Interface};
use netstack::ipv4::Ipv4Addr;
use netstack::{FrameBuf, Tcb};
use platform::BoardKind;
use std::hint::black_box;
use std::time::{Duration, Instant};
use unikernel::appliance::{Appliance, StaticSiteAppliance};
use unikernel::instance::UnikernelInstance;
use xen_sim::toolstack::Toolstack;
use xen_sim::{EventChannelTable, GrantTable};
use xenstore::{DomId, XenStore};

/// How large each probe is, taken from the workload's counters.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Domains launched (per board, on the busiest board).
    pub launches: u64,
    /// Mean clients parked per boot, rounded, at least 1.
    pub clients_per_boot: usize,
    /// The event queue's high-water mark.
    pub queue_high_water: usize,
}

/// Probe results, one field per per-layer metric.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub dispatch_ns: f64,
    pub launch_us_first_q: f64,
    pub launch_us_last_q: f64,
    pub nodes_left: f64,
    pub commit_us: f64,
    pub park_us_per_conn: f64,
    pub xs_ops_per_conn: f64,
    pub frame_ns: f64,
    pub exchange_us: f64,
    pub stream_ns_per_kib: f64,
    pub directory_query_ns: f64,
}

/// Host time accumulated over one kind of call.
#[derive(Debug, Default)]
struct Timer {
    total: Duration,
    calls: u64,
}

impl Timer {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.total += t.elapsed();
        self.calls += 1;
        out
    }

    fn ns_per_call(&self) -> f64 {
        self.total.as_nanos() as f64 / self.calls.max(1) as f64
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// How many times each short probe repeats; medians are reported.
const REPEATS: usize = 7;

/// Run every probe for a board configured as `cfg`.
pub fn run(cfg: &JitsuConfig, sizes: Sizes) -> Result<Probes, String> {
    let svc = cfg.services.first().ok_or("no services configured")?;
    let mut p = Probes {
        dispatch_ns: median(
            &(0..3)
                .map(|_| dispatch_ns(sizes.queue_high_water))
                .collect::<Vec<_>>(),
        ),
        ..Probes::default()
    };
    let mut xs = launch_loop(cfg, svc, sizes.launches, &mut p)?;
    p.commit_us = commit_us(&mut xs)?;

    let mut frames = Timer::default();
    let mut park = Vec::new();
    let mut ops = 0.0;
    let mut records = Vec::new();
    for _ in 0..REPEATS {
        let parked = park_clients(cfg, svc, sizes.clients_per_boot, &mut frames)?;
        park.push(parked.us_per_conn);
        ops = parked.xs_ops_per_conn;
        records = parked.records;
    }
    p.park_us_per_conn = median(&park);
    p.xs_ops_per_conn = ops;
    p.stream_ns_per_kib = stream_ns_per_kib(&records)?;
    p.exchange_us = exchange_us(svc, &mut frames)?;
    p.frame_ns = frames.ns_per_call();
    p.directory_query_ns = directory_query_ns(cfg, &svc.name)?;
    Ok(p)
}

/// `Sim::step` on no-op events with `n` of them queued at once: host ns per
/// dispatched event.
pub fn dispatch_ns(n: usize) -> f64 {
    let n = n.max(1_024);
    let mut sim: Sim<()> = Sim::new(());
    let mut rng = SimRng::seed_from_u64(0xD15_0A7C);
    for _ in 0..n {
        sim.schedule_at(SimTime::from_nanos(rng.uniform_u64(0, 1 << 40)), |_| {});
    }
    let t = Instant::now();
    while sim.step() {}
    let elapsed = t.elapsed();
    black_box(sim.events_executed());
    elapsed.as_nanos() as f64 / n as f64
}

/// `Toolstack::create_domain` + `unpause` + `destroy`, `launches` times on
/// one toolstack. Records the mean host time of the first and last quarter
/// of the loop and the XenStore nodes it leaves behind, and hands back the
/// store for the commit probe.
fn launch_loop(
    cfg: &JitsuConfig,
    svc: &ServiceConfig,
    launches: u64,
    p: &mut Probes,
) -> Result<XenStore, String> {
    let launches = launches.max(4) as usize;
    let mut ts = Toolstack::new(BoardKind::Cubieboard2.board(), cfg.engine, 0x7001_5CA1);
    let nodes_before = ts.xenstore.node_count();
    let mut times = Vec::with_capacity(launches);
    for _ in 0..launches {
        let t = Instant::now();
        let report = ts
            .create_domain(svc.image.domain_config(), cfg.boot)
            .map_err(|e| format!("create_domain: {e:?}"))?;
        ts.unpause(report.dom)
            .map_err(|e| format!("unpause: {e:?}"))?;
        ts.destroy(report.dom)
            .map_err(|e| format!("destroy: {e:?}"))?;
        times.push(us(t.elapsed()));
    }
    let q = launches / 4;
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    p.launch_us_first_q = mean(&times[..q]);
    p.launch_us_last_q = mean(&times[launches - q..]);
    p.nodes_left = ts.xenstore.node_count().saturating_sub(nodes_before) as f64;
    Ok(ts.xenstore)
}

/// A 3-write dom0 transaction commit on `xs`: median host µs.
fn commit_us(xs: &mut XenStore) -> Result<f64, String> {
    let paths = [
        "/perfbench/commit/a",
        "/perfbench/commit/b",
        "/perfbench/commit/c",
    ];
    let mut times = Vec::new();
    for i in 0..200u32 {
        let value = i.to_string();
        let t = Instant::now();
        let tx = xs
            .transaction_start(DomId::DOM0)
            .map_err(|e| format!("transaction_start: {e}"))?;
        for path in paths {
            xs.write(DomId::DOM0, Some(tx), path, value.as_bytes())
                .map_err(|e| format!("write: {e}"))?;
        }
        xs.transaction_end(DomId::DOM0, tx, true)
            .map_err(|e| format!("commit: {e}"))?;
        times.push(us(t.elapsed()));
    }
    Ok(median(&times))
}

/// A client's addresses, distinct per id (the daemon's 10.x.y.z scheme).
fn client_iface(id: u32, svc: &ServiceConfig) -> Interface {
    let ip = Ipv4Addr::new(10, (id >> 16) as u8, (id >> 8) as u8, id as u8);
    let mac = MacAddr([
        2,
        0,
        (id >> 24) as u8,
        (id >> 16) as u8,
        (id >> 8) as u8,
        id as u8,
    ]);
    let mut iface = Interface::new(mac, ip);
    iface.add_arp_entry(svc.ip, svc.mac());
    iface
}

/// Feed frames from the server into a client, sending `request` once the
/// handshake completes; returns the client's replies and appends received
/// bytes to `response`. Client-side `handle_frame` calls are timed into
/// `frames` (the netstack probe).
fn client_receive(
    iface: &mut Interface,
    frame: &FrameBuf,
    request: &FrameBuf,
    sent: &mut bool,
    response: &mut Vec<u8>,
    frames: &mut Timer,
) -> Vec<FrameBuf> {
    let (mut out, events) = frames.time(|| iface.handle_frame(frame));
    for ev in events {
        match ev {
            IfaceEvent::TcpConnected { remote, local_port } if !*sent => {
                *sent = true;
                if let Some(f) = iface.tcp_send(remote, local_port, request.slice(..)) {
                    out.push(f);
                }
            }
            IfaceEvent::TcpData { data, .. } => response.extend_from_slice(&data),
            _ => {}
        }
    }
    out
}

/// What one Synjitsu parking probe measured.
struct Parked {
    /// Host µs per parked connection, Synjitsu calls only.
    us_per_conn: f64,
    /// XenStore ops per parked connection.
    xs_ops_per_conn: f64,
    /// The connection records Synjitsu would drain.
    records: Vec<(u32, Tcb)>,
}

/// `Synjitsu::start_proxying` + `handle_frame` parking `k` real client
/// handshakes and HTTP requests.
fn park_clients(
    cfg: &JitsuConfig,
    svc: &ServiceConfig,
    k: usize,
    frames: &mut Timer,
) -> Result<Parked, String> {
    let mut xs = XenStore::new(cfg.engine);
    let mut syn = Synjitsu::new();
    let mut proxy = Timer::default();
    let ops_before = xs.stats().ops;
    proxy
        .time(|| syn.start_proxying(&mut xs, svc))
        .map_err(|e| format!("start_proxying: {e}"))?;
    let request = HttpRequest::get("/", &svc.name).emit();
    for c in 0..k {
        let mut client = client_iface(c as u32 + 1, svc);
        let (mut sent, mut response) = (false, Vec::new());
        let mut to_proxy = vec![client.tcp_connect(svc.ip, svc.port)];
        // The daemon's pump bound: exchange until both directions are quiet.
        for _ in 0..16 {
            if to_proxy.is_empty() {
                break;
            }
            let mut to_client = Vec::new();
            for frame in to_proxy.drain(..) {
                let out = proxy
                    .time(|| syn.handle_frame(&mut xs, &svc.name, &frame))
                    .map_err(|e| format!("handle_frame: {e}"))?;
                to_client.extend(out);
            }
            for frame in to_client {
                to_proxy.extend(client_receive(
                    &mut client,
                    &frame,
                    &request,
                    &mut sent,
                    &mut response,
                    frames,
                ));
            }
        }
        if !sent {
            return Err(format!("client {c} never completed its handshake"));
        }
    }
    let records = syn.connection_records(&svc.name);
    if records.len() != k || records.iter().any(|(_, tcb)| tcb.buffered != request[..]) {
        return Err(format!(
            "synjitsu holds {} records with buffered requests for {k} clients",
            records.len()
        ));
    }
    let ops = (xs.stats().ops - ops_before) as f64;
    Ok(Parked {
        us_per_conn: us(proxy.total) / k as f64,
        xs_ops_per_conn: ops / k as f64,
        records,
    })
}

/// `VchanPair::stream` of the serialized connection records, framed as the
/// daemon's handoff drain frames them: median host ns per KiB.
fn stream_ns_per_kib(records: &[(u32, Tcb)]) -> Result<f64, String> {
    let mut wire = Vec::new();
    for (_, tcb) in records {
        let sexp = tcb.to_sexp();
        wire.extend_from_slice(&(sexp.len() as u32).to_be_bytes());
        wire.extend_from_slice(sexp.as_bytes());
    }
    let mut grants = GrantTable::new();
    let mut evtchn = EventChannelTable::new();
    let mut pair = VchanPair::establish(&mut grants, &mut evtchn, DomId::DOM0, DomId(1))
        .map_err(|e| format!("vchan establish: {e:?}"))?;
    let kib = wire.len() as f64 / 1024.0;
    // Enough rounds for ~1 MiB of traffic, so that short drains still time
    // well above the clock's resolution.
    let rounds = ((1024.0 / kib.max(1e-3)) as usize).clamp(16, 4_096);
    let mut per_round = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        for _ in 0..rounds {
            let got = pair
                .stream(Side::Server, &wire, &mut evtchn)
                .map_err(|e| format!("vchan stream: {e:?}"))?;
            if got[..] != wire[..] {
                return Err("vchan stream altered the records".into());
            }
        }
        per_round.push(t.elapsed().as_nanos() as f64 / rounds as f64);
    }
    Ok(median(&per_round) / kib)
}

/// One HTTP exchange from a client `Interface` over a `VchanPair` into a
/// `UnikernelInstance`, each frame crossing the vchan: median host µs per
/// exchange, each checked byte-exact against the appliance's response.
fn exchange_us(svc: &ServiceConfig, frames: &mut Timer) -> Result<f64, String> {
    let mut instance = UnikernelInstance::new(
        svc.image.clone(),
        svc.mac(),
        svc.ip,
        svc.port,
        Box::new(StaticSiteAppliance::new(svc.name.clone())),
        0xE8C4,
    );
    let request = HttpRequest::get("/", &svc.name).emit();
    let expected = StaticSiteAppliance::new(svc.name.clone())
        .handle(
            &HttpRequest::get("/", &svc.name),
            &mut SimRng::seed_from_u64(0),
        )
        .0
        .emit();
    let mut grants = GrantTable::new();
    let mut evtchn = EventChannelTable::new();
    let mut pair = VchanPair::establish(&mut grants, &mut evtchn, DomId(1), DomId::DOM0)
        .map_err(|e| format!("vchan establish: {e:?}"))?;
    let mut times = Vec::new();
    for c in 0..64u32 {
        let mut client = client_iface(c + 1, svc);
        let (mut sent, mut response) = (false, Vec::new());
        let t = Instant::now();
        let mut to_server = vec![client.tcp_connect(svc.ip, svc.port)];
        for _ in 0..32 {
            if to_server.is_empty() {
                break;
            }
            let mut to_client = Vec::new();
            for frame in to_server.drain(..) {
                let got = pair
                    .stream(Side::Client, &frame, &mut evtchn)
                    .map_err(|e| format!("vchan to unikernel: {e:?}"))?;
                for out in instance.handle_frame(&got).0 {
                    to_client.push(
                        pair.stream(Side::Server, &out, &mut evtchn)
                            .map_err(|e| format!("vchan to client: {e:?}"))?,
                    );
                }
            }
            for frame in to_client {
                to_server.extend(client_receive(
                    &mut client,
                    &frame,
                    &request,
                    &mut sent,
                    &mut response,
                    frames,
                ));
            }
        }
        times.push(us(t.elapsed()));
        if response[..] != expected[..] {
            return Err(format!(
                "exchange {c} received {} bytes, not the expected {}",
                response.len(),
                expected.len()
            ));
        }
    }
    Ok(median(&times))
}

/// `DirectoryService::handle_query` for a running name: median host ns per
/// query over batches.
fn directory_query_ns(cfg: &JitsuConfig, name: &str) -> Result<f64, String> {
    let mut dir = DirectoryService::new(cfg.clone());
    dir.mark_ready(name, SimTime::ZERO);
    let query = DnsMessage::query(1, name);
    let batch = 2_000;
    let mut per_query = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        for i in 0..batch {
            let (response, action) = dir.handle_query(&query, SimTime::from_millis(i), true);
            if !matches!(action, DirectoryAction::AlreadyRunning { .. }) {
                return Err(format!("directory answered {action:?} for a running name"));
            }
            black_box(response);
        }
        per_query.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    Ok(median(&per_query))
}
