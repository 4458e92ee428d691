//! Cross-crate integration tests of the paper's headline flow: DNS-triggered
//! summoning with Synjitsu masking boot latency (Figures 6 and 9a), one
//! query at a time on the daemon's engine.

use jitsu_repro::prelude::*;

const ALICE: &str = "alice.family.name";

fn config_with(names: &[&str]) -> JitsuConfig {
    let mut config = JitsuConfig::new("family.name");
    for (i, name) in names.iter().enumerate() {
        config = config.with_service(ServiceConfig::http_site(
            name,
            Ipv4Addr::new(192, 168, 1, 20 + i as u8),
        ));
    }
    config
}

/// One cold start: a single DNS query for `alice`, run to quiescence.
/// Returns the finished engine and the query's TTFB in milliseconds.
fn cold_start(config: JitsuConfig, board: Board, seed: u64) -> (StormSim, f64) {
    let mut sim = ConcurrentJitsud::sim(config, board, seed);
    ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
    sim.run();
    let m = sim.world().metrics();
    assert_eq!((m.launches, m.cold_served), (1, 1));
    let ttfb = m.ttfb.p50_ms();
    (sim, ttfb)
}

#[test]
fn cold_start_serves_the_buffered_request_through_the_handoff() {
    let (sim, ttfb) = cold_start(config_with(&[ALICE]), BoardKind::Cubieboard2.board(), 1);
    let world = sim.world();
    let m = world.metrics();
    // Paper envelope: the first response byte arrives at roughly the
    // cold-boot latency (≈300 ms), far below the 1 s retransmission that
    // would otherwise dominate.
    assert!(
        (250.0..420.0).contains(&ttfb),
        "optimised ARM cold start = {ttfb} ms"
    );
    // Synjitsu proxied the connection and handed it over; the unikernel's
    // response reached the client byte for byte.
    assert_eq!(m.syn_handoffs, 1);
    assert_eq!(m.handoff.migrated, 1);
    assert_eq!(m.handoff.completed, 1);
    assert_eq!(
        (m.handoff.dropped_bytes, m.handoff.duplicated_bytes),
        (0, 0)
    );
    // Figure 6's flow left its trail, in order.
    assert!(world
        .tracer
        .happens_before("summoning", "handed over 1 connection(s)"));
    assert!(world
        .tracer
        .happens_before("handed over 1 connection(s)", "alice.family.name ready"));
}

#[test]
fn synjitsu_disabled_falls_back_to_tcp_retransmission() {
    let board = || BoardKind::Cubieboard2.board();
    let (_, optimised) = cold_start(config_with(&[ALICE]), board(), 2);
    let (_, vanilla) = cold_start(config_with(&[ALICE]).with_vanilla_toolstack(), board(), 2);
    let (sim, none) = cold_start(config_with(&[ALICE]).without_synjitsu(), board(), 2);
    // Without Synjitsu the early SYN is lost: nothing is handed over and
    // the client's 1 s retransmission dominates.
    assert_eq!(sim.world().metrics().syn_handoffs, 0);
    assert!(none > 1_000.0, "no Synjitsu = {none} ms");
    // The vanilla toolstack with Synjitsu lands in between.
    assert!(
        optimised < vanilla && vanilla < 1_000.0,
        "optimised {optimised} ms, vanilla {vanilla} ms"
    );
}

#[test]
fn warm_requests_hit_the_running_unikernel_in_milliseconds() {
    let mut sim = ConcurrentJitsud::sim(config_with(&[ALICE]), BoardKind::Cubieboard2.board(), 3);
    ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
    sim.run_until(SimTime::from_secs(1));
    let cold = sim.world().metrics().ttfb.p50_ms();
    for i in 1..=5 {
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(i), ALICE);
    }
    sim.run_until(SimTime::from_secs(10));
    let m = sim.world().metrics();
    // DNS for a running service answers without relaunching.
    assert_eq!(m.launches, 1);
    assert_eq!(m.warm_hits, 5);
    assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Running);
    // Of the six samples, the 80th percentile (rank 4 of 0..=5) is the
    // fifth fastest. Below the cold start and below 25 ms, it shows that
    // all five warm requests took a DNS round trip plus the ≈5 ms local
    // request path.
    let slowest_warm = m.ttfb.percentile_ms(80.0);
    assert!(
        slowest_warm < cold && slowest_warm < 25.0,
        "warm {slowest_warm} ms vs cold {cold} ms"
    );
}

#[test]
fn multiple_tenants_are_isolated_domains_on_one_board() {
    let names = [ALICE, "bob.family.name", "carol.family.name"];
    let mut sim = ConcurrentJitsud::sim(config_with(&names), BoardKind::Cubieboard2.board(), 4);
    for name in names {
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, name);
    }
    sim.run_until(SimTime::from_secs(2));
    let world = sim.world();
    let m = world.metrics();
    assert_eq!(m.launches, 3, "one domain per tenant");
    assert_eq!(world.running_count(), 3);
    // Each client's response is compared byte for byte with its own
    // tenant's page: every one arrived intact, from its own appliance.
    assert_eq!(m.handoff.completed, 3);
    assert_eq!(
        (m.handoff.dropped_bytes, m.handoff.duplicated_bytes),
        (0, 0)
    );
    ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(2), ALICE);
    ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(2), "bob.family.name");
    sim.run_until(SimTime::from_secs(3));
    let m = sim.world().metrics();
    assert_eq!((m.warm_hits, m.launches), (2, 3));
}

#[test]
fn x86_cold_starts_are_an_order_of_magnitude_faster_than_arm() {
    let (_, arm) = cold_start(config_with(&[ALICE]), BoardKind::Cubieboard2.board(), 5);
    let (_, x86) = cold_start(config_with(&[ALICE]), BoardKind::X86Server.board(), 5);
    assert!((20.0..80.0).contains(&x86), "x86 cold start = {x86} ms");
    let ratio = arm / x86;
    assert!(ratio > 4.0, "ARM/x86 cold-start ratio = {ratio:.1}");
}

#[test]
fn idle_retirement_frees_memory_for_other_tenants() {
    let names = [ALICE, "bob.family.name"];
    let config = config_with(&names).with_idle_timeout(SimDuration::from_secs(60));
    let mut sim = ConcurrentJitsud::sim(config, BoardKind::Cubieboard2.board(), 6);
    let free = sim.world().effective_free_mib();
    ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
    sim.run_until(SimTime::from_secs(30));
    assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Running);
    assert!(sim.world().effective_free_mib() < free);
    // Idle past the TTL: reaped, and its memory is back in the pool.
    sim.run_until(SimTime::from_secs(300));
    assert_eq!(sim.world().metrics().reaps, 1);
    assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Idle);
    assert_eq!(sim.world().effective_free_mib(), free);
    // And it can be resummoned from scratch.
    ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(300), ALICE);
    sim.run_until(SimTime::from_secs(301));
    let m = sim.world().metrics();
    assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Running);
    assert_eq!((m.launches, m.cold_served, m.handoff.completed), (2, 2, 2));
}
