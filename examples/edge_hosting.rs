//! Edge hosting: a family's personal web sites served from one ARM board
//! (§3.3.2 and §5 of the paper).
//!
//! Run with `cargo run --example edge_hosting`. The board is the
//! authoritative nameserver for `family.name`; each family member's
//! low-traffic site is a separate 16 MiB unikernel that is summoned on
//! demand and retired after two minutes of idleness, so the 1 GB board can
//! host far more sites than it could keep resident.

use jitsu_repro::prelude::*;

fn main() {
    let members = ["alice", "bob", "carol", "dave", "erin"];
    let mut config = JitsuConfig::new("family.name").with_idle_timeout(SimDuration::from_secs(120));
    for (i, member) in members.iter().enumerate() {
        config = config.with_service(ServiceConfig::http_site(
            &format!("{member}.family.name"),
            Ipv4Addr::new(192, 168, 1, 20 + i as u8),
        ));
    }
    let mut sim = ConcurrentJitsud::sim(config, BoardKind::Cubieboard2.board(), 7);
    let free_at_start = sim.world().effective_free_mib();

    println!(
        "Hosting {} personal sites on one Cubieboard2\n",
        members.len()
    );
    // One visitor a second, each fetching a site twice half a second apart:
    // the first request summons the unikernel, the second finds it running.
    for (i, member) in members.iter().enumerate() {
        let name = format!("{member}.family.name");
        let at = SimTime::from_secs(i as u64);
        ConcurrentJitsud::inject_query(&mut sim, at, &name);
        ConcurrentJitsud::inject_query(&mut sim, at + SimDuration::from_millis(500), &name);
    }
    sim.run_until(SimTime::from_secs(10));
    let world = sim.world();
    let m = world.metrics();
    println!("{:<22} {:>10}", "site", "phase");
    for member in members {
        let name = format!("{member}.family.name");
        println!("{:<22} {:>10?}", name, world.phase(&name));
    }
    println!(
        "\ncold starts    {}   first byte after {:.3}ms (median)",
        m.cold_served,
        m.handoff.request_latency.p50_ms()
    );
    println!(
        "warm requests  {}   first byte after {:.3}ms",
        m.warm_hits,
        m.ttfb.percentile_ms(0.0)
    );
    println!("Running unikernels: {}", world.running_count());
    assert_eq!(m.launches, 5, "one launch per site");
    assert_eq!(m.cold_served, 5);
    assert_eq!(m.warm_hits, 5);
    assert_eq!(m.handoff.completed, 5, "every cold response byte-exact");
    assert!(
        m.ttfb.percentile_ms(0.0) < m.handoff.request_latency.percentile_ms(0.0),
        "the fastest request was a warm one"
    );
    assert_eq!(world.running_count(), 5);

    // Two minutes later, nobody has visited: the sites are retired and the
    // memory is reclaimed for whoever comes next.
    sim.run_until(SimTime::from_secs(190));
    let world = sim.world();
    println!(
        "Retired after 2 idle minutes: {} (free memory {} of {} MiB)",
        world.metrics().reaps,
        world.effective_free_mib(),
        free_at_start
    );
    println!("Running unikernels now: {}", world.running_count());
    assert_eq!(world.metrics().reaps, 5);
    assert_eq!(world.running_count(), 0);
    assert_eq!(world.effective_free_mib(), free_at_start);

    // The next visitor simply pays the ~300 ms cold start again.
    ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(200), "alice.family.name");
    sim.run_until(SimTime::from_secs(201));
    let world = sim.world();
    let m = world.metrics();
    println!(
        "\nalice.family.name resummoned on demand: {:?}, launch {} of the run",
        world.phase("alice.family.name"),
        m.launches
    );
    assert_eq!(world.phase("alice.family.name"), LifecyclePhase::Running);
    assert_eq!(m.launches, 6);
    assert_eq!(m.handoff.completed, 6);
}
