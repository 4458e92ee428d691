//! Single-query checks of jitsud, the daemon [`ConcurrentJitsud`] runs:
//! one DNS query injected and run to quiescence is one Figure 9a cold start
//! (§3.3, Figure 6).

mod tests {
    use crate::concurrent::{ConcurrentJitsud, LifecyclePhase, StormSim};
    use crate::config::{JitsuConfig, ServiceConfig};
    use jitsu_sim::{SimDuration, SimTime};
    use netstack::ipv4::Ipv4Addr;
    use platform::{Board, BoardKind};

    const ALICE: &str = "alice.family.name";

    fn config() -> JitsuConfig {
        let mut cfg = JitsuConfig::new("family.name").with_service(ServiceConfig::http_site(
            ALICE,
            Ipv4Addr::new(192, 168, 1, 20),
        ));
        cfg.idle_timeout = None;
        cfg
    }

    /// A single query for `alice` at t=0, run to quiescence. Returns the
    /// finished engine and the query's TTFB in milliseconds.
    fn cold_start(config: JitsuConfig, board: Board) -> (StormSim, f64) {
        let mut sim = ConcurrentJitsud::sim(config, board, 1);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        sim.run();
        let m = sim.world().metrics();
        assert_eq!((m.launches, m.cold_served), (1, 1));
        let ttfb = m.ttfb.p50_ms();
        (sim, ttfb)
    }

    #[test]
    fn optimised_cold_start_responds_in_300_to_400ms() {
        let (sim, ms) = cold_start(config(), BoardKind::Cubieboard2.board());
        assert!(
            (250.0..420.0).contains(&ms),
            "cold start response = {ms} ms"
        );
        let m = sim.world().metrics();
        // Proxied by Synjitsu and handed over: no SYN was lost, and the
        // response reached the client byte for byte.
        assert_eq!((m.syn_handoffs, m.handoff.migrated), (1, 1));
        assert_eq!(m.handoff.completed, 1);
        assert_eq!(
            (m.handoff.dropped_bytes, m.handoff.duplicated_bytes),
            (0, 0)
        );
        assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Running);
    }

    #[test]
    fn cold_start_without_synjitsu_takes_over_a_second() {
        let (sim, ms) = cold_start(config().without_synjitsu(), BoardKind::Cubieboard2.board());
        assert!(
            ms > 1000.0,
            "SYN retransmission pushes response over 1 s: {ms} ms"
        );
        let m = sim.world().metrics();
        assert_eq!((m.syn_handoffs, m.handoff.migrated), (0, 0));
    }

    #[test]
    fn vanilla_toolstack_with_synjitsu_lands_in_between() {
        let (_, fast) = cold_start(config(), BoardKind::Cubieboard2.board());
        let (sim, slow) = cold_start(
            config().with_vanilla_toolstack(),
            BoardKind::Cubieboard2.board(),
        );
        assert!(slow > fast, "vanilla {slow} ms vs optimised {fast} ms");
        assert!(slow < 1000.0, "vanilla = {slow} ms");
        assert_eq!(sim.world().metrics().handoff.completed, 1);
    }

    #[test]
    fn warm_requests_are_a_few_milliseconds() {
        let mut sim = ConcurrentJitsud::sim(config(), BoardKind::Cubieboard2.board(), 1);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(1), ALICE);
        sim.run();
        let m = sim.world().metrics();
        assert_eq!((m.cold_served, m.warm_hits), (1, 1));
        // The warm TTFB covers the DNS round trip, the handshake and the
        // request against the running unikernel.
        let (warm, cold) = (m.ttfb.percentile_ms(0.0), m.ttfb.percentile_ms(100.0));
        assert!(warm < 25.0, "warm = {warm} ms");
        assert!(warm * 10.0 < cold, "warm {warm} ms vs cold {cold} ms");
    }

    #[test]
    fn x86_cold_start_is_tens_of_milliseconds() {
        let (_, ms) = cold_start(config(), BoardKind::X86Server.board());
        assert!((20.0..80.0).contains(&ms), "x86 cold start = {ms} ms");
    }

    #[test]
    fn unknown_names_are_rejected() {
        let mut sim = ConcurrentJitsud::sim(config(), BoardKind::Cubieboard2.board(), 1);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, "carol.family.name");
        sim.run();
        let m = sim.world().metrics();
        assert_eq!((m.queries, m.unknown), (1, 1));
        assert_eq!((m.launches, m.served()), (0, 0));
        assert_eq!(sim.world().phase("carol.family.name"), LifecyclePhase::Idle);
    }

    #[test]
    fn dns_for_running_service_does_not_relaunch() {
        let (mut sim, _) = cold_start(config(), BoardKind::Cubieboard2.board());
        let before = sim.world().running_count();
        let now = sim.now();
        ConcurrentJitsud::inject_query(&mut sim, now, ALICE);
        sim.run();
        let m = sim.world().metrics();
        assert_eq!((m.launches, m.warm_hits, m.coalesced), (1, 1, 0));
        assert_eq!(sim.world().running_count(), before);
    }

    #[test]
    fn idle_services_are_retired_and_can_be_resummoned() {
        let cfg = config().with_idle_timeout(SimDuration::from_secs(60));
        let mut sim = ConcurrentJitsud::sim(cfg, BoardKind::Cubieboard2.board(), 1);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.world().running_count(), 1);
        sim.run_until(SimTime::from_secs(120));
        assert_eq!(sim.world().metrics().reaps, 1);
        assert_eq!(sim.world().running_count(), 0);
        // The next request cold-starts again.
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(120), ALICE);
        sim.run_until(SimTime::from_secs(121));
        let m = sim.world().metrics();
        assert_eq!((m.launches, m.cold_served, m.handoff.completed), (2, 2, 2));
    }

    #[test]
    fn trace_records_the_figure6_flow() {
        let (sim, _) = cold_start(config(), BoardKind::Cubieboard2.board());
        let tracer = &sim.world().tracer;
        assert!(tracer.find("summoning").is_some());
        // Synjitsu's handshake records go to XenStore, then the booted
        // unikernel adopts the proxied connection.
        assert!(tracer.happens_before("summoning", "prepare for alice.family.name"));
        assert!(tracer.happens_before(
            "prepare for alice.family.name",
            "handed over 1 connection(s)"
        ));
        assert!(tracer.happens_before("handed over 1 connection(s)", "alice.family.name ready"));
    }
}
