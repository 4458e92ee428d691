//! The benchmark's own tests: quick-size runs of every workload, the traced
//! loop against `Sim::run`, the kind classifier against the daemon's own
//! trace, determinism, and agreement with `BENCHMARK.json`.

use jitsu::concurrent::ConcurrentJitsud;
use jitsu::config::{JitsuConfig, ServiceConfig};
use jitsu_sim::{SimDuration, SimTime};
use netstack::ipv4::Ipv4Addr;
use perfbench::classify::{classify, Kind, Snapshot};
use perfbench::measure::step_traced;
use perfbench::run::{outcome, setup, Outcome, World};
use perfbench::workloads::{generate_for, Workload};
use platform::BoardKind;

/// Run a quick-size version of `workload` untraced (or traced through
/// `Sim::step`) and return its outcome.
fn quick(workload: Workload, seed: u64, traced: bool) -> Outcome {
    let inputs = generate_for(workload.quick_spec(), seed);
    let (mut world, base) = setup(workload, &inputs);
    let before = world.events_executed();
    if traced {
        step_traced(&mut world);
    } else {
        world.run();
    }
    outcome(workload, &inputs, &world, &base, before)
}

#[test]
fn every_workload_runs_at_quick_size_and_passes_its_checks() {
    for w in Workload::ALL {
        let out = quick(w, 11, false);
        assert!(
            out.violations.is_empty(),
            "{}: {:?}",
            w.name(),
            out.violations
        );
        assert!(out.client_queries > 0, "{}", w.name());
        let total = out.total();
        // A small fleet can run out of boards for a name; the full one never
        // does on the benchmark's seeds.
        let expected_failed = if w.is_flat() {
            0
        } else {
            total.failover_dropped
        };
        assert_eq!(out.failed_queries, expected_failed, "{}", w.name());
        match w {
            Workload::ColdChurn => assert!(total.launches > 10),
            Workload::WarmDns => assert_eq!(total.warm_hits, out.client_queries),
            Workload::FlashCrowd => assert!(total.coalesced > total.launches * 10),
            Workload::FleetFailover => assert!(total.failovers > 0 && out.barriers > 0),
        }
    }
}

#[test]
fn the_traced_step_loop_reaches_the_same_world_as_sim_run() {
    for w in [Workload::ColdChurn, Workload::WarmDns, Workload::FlashCrowd] {
        let run = quick(w, 5, false);
        let stepped = quick(w, 5, true);
        assert_eq!(run.fingerprint(), stepped.fingerprint(), "{}", w.name());
    }
}

#[test]
fn one_seed_gives_identical_virtual_metrics_and_another_seed_does_not() {
    for w in Workload::ALL {
        let a = quick(w, 3, false);
        let b = quick(w, 3, false);
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
        assert_eq!(a.ttfb_p99_ms.to_bits(), b.ttfb_p99_ms.to_bits());
        assert_ne!(
            quick(w, 4, false).fingerprint(),
            a.fingerprint(),
            "{}",
            w.name()
        );
    }
}

/// Step `sim` to quiescence, classifying every step.
fn classify_all(sim: &mut jitsu::concurrent::StormSim) -> Vec<Kind> {
    let mut kinds = Vec::new();
    let mut before = Snapshot::of(sim.world());
    while sim.step() {
        let after = Snapshot::of(sim.world());
        kinds.push(classify(&before, &after));
        before = after;
    }
    kinds
}

#[test]
fn the_classifier_names_a_hand_built_storm() {
    // Two services that cannot both fit on the board: while `a` runs, a
    // query for `b` is answered SERVFAIL.
    let mut cfg = JitsuConfig::new("hand.example").with_idle_timeout(SimDuration::from_secs(5));
    for (i, name) in ["a.hand.example", "b.hand.example"].into_iter().enumerate() {
        let mut svc = ServiceConfig::http_site(name, Ipv4Addr::new(192, 168, 9, 10 + i as u8));
        svc.image.memory_mib = 600;
        cfg = cfg.with_service(svc);
    }
    let mut sim = ConcurrentJitsud::sim(cfg, BoardKind::Cubieboard2.board(), 9);
    let at = SimTime::from_millis;
    ConcurrentJitsud::inject_query(&mut sim, at(0), "a.hand.example"); // cold
    ConcurrentJitsud::inject_query(&mut sim, at(10), "a.hand.example"); // coalesced
    ConcurrentJitsud::inject_query(&mut sim, at(20), "b.hand.example"); // SERVFAIL
    ConcurrentJitsud::inject_query(&mut sim, at(3_000), "a.hand.example"); // warm
    let kinds = classify_all(&mut sim);
    use Kind::*;
    assert_eq!(
        kinds,
        vec![
            QueryCold,
            QueryCoalesce,
            QueryServfail,
            BootCommit,
            Prepare,
            HandoffCommit,
            Serve,
            QueryWarm,
            Noop, // the reap check armed at app-ready; the warm hit refreshed it
            Reap,
            DrainDone,
        ]
    );
    let m = sim.world().metrics();
    assert_eq!(
        (
            m.launches,
            m.coalesced,
            m.servfails,
            m.warm_hits,
            m.cold_served
        ),
        (1, 1, 1, 1, 2)
    );
}

/// The daemon's own account of a step that handled no query: the first
/// trace record it left. Used as the oracle for the counter-based
/// classifier on the steps whose rules rely on counter offsets.
fn oracle(messages: &[String], commits: u64) -> Kind {
    let first = messages.first().map(String::as_str).unwrap_or("");
    if first.starts_with("handed over") {
        Kind::HandoffCommit
    } else if first.starts_with("prepare for") {
        Kind::Prepare
    } else if first.starts_with("reaping idle") {
        Kind::Reap
    } else if first.starts_with("retired idle") {
        Kind::DrainDone
    } else if first.contains(" ready;") {
        Kind::Serve
    } else if first.starts_with("summoning") || messages.is_empty() && commits > 0 {
        // Construction done leaves no record of its own; it commits the
        // boot transaction and may dispatch the next launch.
        Kind::BootCommit
    } else if messages.is_empty() {
        Kind::Noop
    } else {
        Kind::Unclassified
    }
}

#[test]
fn the_classifier_agrees_with_the_daemons_trace_on_a_storm() {
    for w in [Workload::ColdChurn, Workload::FlashCrowd] {
        let inputs = generate_for(w.quick_spec(), 21);
        let (world, _) = setup(w, &inputs);
        let World::Flat(mut sim) = world else {
            unreachable!("flat workloads build flat worlds")
        };
        let mut before = Snapshot::of(sim.world());
        let mut seen = std::collections::BTreeSet::new();
        while sim.step() {
            let after = Snapshot::of(sim.world());
            let kind = classify(&before, &after);
            let d = after.counters.since(&before.counters);
            if d.queries == 0 {
                let messages: Vec<String> = sim.world().tracer.events()
                    [before.counters.trace_records as usize..]
                    .iter()
                    .map(|e| e.message.clone())
                    .collect();
                assert_eq!(
                    kind,
                    oracle(&messages, d.xs_commits),
                    "{}: {messages:?}",
                    w.name()
                );
            }
            assert_ne!(kind, Kind::Unclassified, "{}", w.name());
            seen.insert(kind);
            before = after;
        }
        for k in [
            Kind::QueryCold,
            Kind::BootCommit,
            Kind::Prepare,
            Kind::HandoffCommit,
            Kind::Serve,
            Kind::Reap,
            Kind::DrainDone,
        ] {
            assert!(seen.contains(&k), "{}: no {k:?} step", w.name());
        }
    }
}

/// The value of `"key": "…"` at the start of `s`'s first such key.
fn field<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let at = s.find(&pat)? + pat.len();
    Some(&s[at..at + s[at..].find('"')?])
}

/// `name` (with `unit`, where given) of each entry of a `BENCHMARK.json`
/// section.
fn listed(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let name = field(entry, "name").expect("every entry has a name");
            match field(entry, "unit") {
                Some(unit) => format!("{name} [{unit}]"),
                None => name.to_string(),
            }
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names = |r: perfbench::measure::RunResult| -> Vec<String> {
        r.metrics
            .into_iter()
            .map(|(name, _, unit)| format!("{name} [{unit}]"))
            .collect()
    };
    let w = Workload::ColdChurn;
    let spec = w.quick_spec();
    let e2e = perfbench::measure::end_to_end_for(w, &spec, 1, 1);
    assert_eq!(listed(&json, "end_to_end"), names(e2e));
    let spans = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test.spans.tsv"));
    let layers = perfbench::measure::per_layer_for(w, &spec, 1, 1, spans);
    assert_eq!(listed(&json, "per_layer"), names(layers));
    // The listed workloads are a subset of the benchmark's, in its order.
    let workloads = listed(&json, "workloads");
    let known: Vec<String> = Workload::ALL
        .iter()
        .map(|w| w.name().to_string())
        .filter(|w| workloads.contains(w))
        .collect();
    assert!(workloads.len() >= 2);
    assert_eq!(workloads, known);
}
