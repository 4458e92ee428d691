//! Quickstart: summon a unikernel in response to its first HTTP request.
//!
//! Run with `cargo run --example quickstart`. This walks the paper's core
//! flow end to end on the simulated Cubieboard2: a DNS query for
//! `alice.family.name` triggers the launch, Synjitsu proxies the client's
//! TCP connection while the unikernel boots, the connection state is handed
//! over through XenStore, and the freshly booted unikernel answers the
//! buffered request. A second, warm request then completes in a few tens of
//! milliseconds, DNS round trip included.

use jitsu_repro::prelude::*;

fn main() {
    let config = JitsuConfig::new("family.name").with_service(ServiceConfig::http_site(
        "alice.family.name",
        Ipv4Addr::new(192, 168, 1, 20),
    ));
    let mut sim = ConcurrentJitsud::sim(config, BoardKind::Cubieboard2.board(), 42);

    println!("== Cold start: first request summons the unikernel ==");
    ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, "alice.family.name");
    sim.run_until(SimTime::from_secs(1));
    let m = sim.world().metrics();
    let cold_ms = m.ttfb.p50_ms();
    println!("  first response byte after  {cold_ms:.3}ms");
    println!("  connections handed over   {}", m.syn_handoffs);
    println!("  byte-exact responses      {}", m.handoff.completed);
    assert_eq!(m.cold_served, 1);
    assert_eq!(m.handoff.completed, 1);

    println!("\n== Warm request: the unikernel is already running ==");
    ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(1), "alice.family.name");
    sim.run_until(SimTime::from_secs(2));
    let m = sim.world().metrics();
    // Two samples now; the faster one is the warm hit only if it beat the
    // cold start.
    let warm_ms = m.ttfb.percentile_ms(0.0);
    println!("  first response byte after  {warm_ms:.3}ms");
    assert_eq!(m.warm_hits, 1);
    assert_eq!(m.launches, 1, "the warm request must not relaunch");
    assert!(warm_ms < cold_ms, "warm {warm_ms}ms vs cold {cold_ms}ms");

    println!("\n== Control-plane trace (Figure 6's flow) ==");
    print!("{}", sim.world().tracer.render());
}
