//! Regression tests for the D001 sweep: every result-producing path that
//! used to iterate a `HashMap` now runs over a `BTreeMap` (or sorts
//! explicitly), so insertion order must never leak into observable output.
//!
//! Each test performs the same set of insertions in two shuffled orders and
//! asserts the rendered output is byte-identical. Before the conversion
//! these would have been flaky under `HashMap`'s per-process SipHash seed;
//! after it they are guaranteed stable, and clippy.toml's ban on
//! `HashMap`/`HashSet` (rule D001) keeps them that way statically.

use jitsu_repro::prelude::*;

/// `DirectoryService::idle_services` must list reap candidates in the same
/// order no matter which order the services were registered and marked.
#[test]
fn idle_service_listing_is_insertion_order_independent() {
    let names = [
        "zeta.family.name",
        "alice.family.name",
        "mike.family.name",
        "bob.family.name",
        "carol.family.name",
    ];
    let run = |order: &[usize]| {
        let mut config =
            JitsuConfig::new("family.name").with_idle_timeout(SimDuration::from_millis(100));
        for &i in order {
            config = config.with_service(ServiceConfig::http_site(
                names[i],
                Ipv4Addr::new(192, 168, 1, 20 + i as u8),
            ));
        }
        let mut dir = jitsu_repro::jitsu::directory::DirectoryService::new(config);
        for &i in order {
            let t = SimTime::from_millis(i as u64);
            dir.mark_launching(names[i], t);
            dir.mark_ready(names[i], t);
        }
        dir.idle_services(SimTime::from_millis(10_000))
    };
    let forward = run(&[0, 1, 2, 3, 4]);
    let shuffled = run(&[3, 0, 4, 2, 1]);
    assert_eq!(forward, shuffled);
    let mut sorted = forward.clone();
    sorted.sort();
    assert_eq!(forward, sorted, "idle listing is sorted by service name");
}

/// `Interface::connection_keys` must enumerate the connection table in key
/// order regardless of the order connections were opened.
#[test]
fn connection_table_enumeration_is_insertion_order_independent() {
    let remotes = [
        Ipv4Addr::new(10, 0, 0, 9),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(10, 0, 0, 7),
        Ipv4Addr::new(10, 0, 0, 4),
    ];
    let run = |order: &[usize]| {
        let mut iface = jitsu_repro::netstack::iface::Interface::new(
            MacAddr([0x06, 0x16, 0x3e, 0, 0, 1]),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        for &i in order {
            // Pin the ephemeral port to the remote's index so the key set is
            // identical across runs and only the insertion order varies.
            iface.set_ephemeral_base(50_000 + i as u16);
            let _syn = iface.tcp_connect(remotes[i], 80);
        }
        iface.connection_keys()
    };
    let forward = run(&[0, 1, 2, 3]);
    let shuffled = run(&[2, 0, 3, 1]);
    assert_eq!(forward, shuffled);
    let mut sorted = forward.clone();
    sorted.sort();
    assert_eq!(forward, sorted, "connection keys enumerate in sorted order");
}

/// XenStore `directory` listings must not depend on the order children were
/// written (DNS-triggered boots race, so jitsud writes arrive shuffled).
#[test]
fn xenstore_directory_listing_is_insertion_order_independent() {
    let children = ["vif", "console", "vbd", "control", "memory"];
    let run = |order: &[usize]| {
        let mut store = XenStore::new(EngineKind::JitsuMerge);
        let dom0 = jitsu_repro::xenstore::DomId(0);
        for &i in order {
            store
                .write(
                    dom0,
                    None,
                    &format!("/local/domain/1/{}", children[i]),
                    b"1",
                )
                .expect("write child");
        }
        store
            .directory(dom0, None, "/local/domain/1")
            .expect("list children")
    };
    let forward = run(&[0, 1, 2, 3, 4]);
    let shuffled = run(&[4, 1, 3, 0, 2]);
    assert_eq!(forward, shuffled);
}
