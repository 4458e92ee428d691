//! Naming the kind of each event of a traced flat run.
//!
//! The daemon's events are boxed closures, so the engine cannot say which
//! handler ran. The traced loop instead snapshots the board's public
//! counters — `metrics()`, `xenstore_stats()`, `effective_free_mib()` and
//! `tracer.len()` — around every `Sim::step`, and names the step by which
//! of them moved. The rules, checked in order (`L`, `T`, `C`, `W` are the
//! step's deltas of launches, trace records, XenStore commits and watch
//! events):
//!
//! | kind | what moved |
//! |---|---|
//! | `query_servfail` | queries and servfails |
//! | `query_warm` | queries and warm hits |
//! | `query_coalesce` | queries and coalesced |
//! | `query_cold` | queries and nothing above (a launch, or a queued one) |
//! | `serve` | cold-served (the app-ready event) |
//! | `reap` | reaps |
//! | `handoff_commit` | connections migrated, or `C = L + 1` and `T = L + 1` |
//! | `boot_commit` | `C = L + 1` and `T = L` (construction done, maybe launching the next) |
//! | `prepare` | `L = C = 0`, `T = 1` and `W > 0` (Synjitsu prepare + conduit drain) |
//! | `drain_done` | `C = L`, `T = L + 1` and `W = 0` (teardown done, maybe relaunching) |
//! | `noop` | nothing (a reap check on a busy service) |
//! | `unclassified` | anything else, e.g. a query for an unknown name |
//!
//! A launch performs exactly one XenStore commit (the domain's home
//! records) and one trace record, which is what the `L` offsets remove.

use crate::run::BoardCounters;
use jitsu::concurrent::ConcurrentJitsud;

/// The kinds a step can be classified as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    QueryWarm,
    QueryCold,
    QueryCoalesce,
    QueryServfail,
    BootCommit,
    Prepare,
    HandoffCommit,
    Serve,
    Reap,
    DrainDone,
    Noop,
    Unclassified,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 12] = [
        Kind::QueryWarm,
        Kind::QueryCold,
        Kind::QueryCoalesce,
        Kind::QueryServfail,
        Kind::BootCommit,
        Kind::Prepare,
        Kind::HandoffCommit,
        Kind::Serve,
        Kind::Reap,
        Kind::DrainDone,
        Kind::Noop,
        Kind::Unclassified,
    ];

    /// The kind's name in metric names and span files.
    pub fn name(self) -> &'static str {
        match self {
            Kind::QueryWarm => "query_warm",
            Kind::QueryCold => "query_cold",
            Kind::QueryCoalesce => "query_coalesce",
            Kind::QueryServfail => "query_servfail",
            Kind::BootCommit => "boot_commit",
            Kind::Prepare => "prepare",
            Kind::HandoffCommit => "handoff_commit",
            Kind::Serve => "serve",
            Kind::Reap => "reap",
            Kind::DrainDone => "drain_done",
            Kind::Noop => "noop",
            Kind::Unclassified => "unclassified",
        }
    }

    /// Index into [`Kind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The public state of a board the classifier compares across a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Counters from `metrics()`, `xenstore_stats()` and `tracer.len()`.
    pub counters: BoardCounters,
    /// `effective_free_mib()`.
    pub free_mib: u32,
}

impl Snapshot {
    /// Snapshot a board.
    pub fn of(world: &ConcurrentJitsud) -> Snapshot {
        Snapshot {
            counters: BoardCounters::of(world),
            free_mib: world.effective_free_mib(),
        }
    }
}

/// Name the step that took the board from `before` to `after`.
pub fn classify(before: &Snapshot, after: &Snapshot) -> Kind {
    if before == after {
        return Kind::Noop;
    }
    let d = after.counters.since(&before.counters);
    if d.queries > 0 {
        return if d.queries != 1 || d.unknown > 0 {
            Kind::Unclassified
        } else if d.servfails > 0 {
            Kind::QueryServfail
        } else if d.warm_hits > 0 {
            Kind::QueryWarm
        } else if d.coalesced > 0 {
            Kind::QueryCoalesce
        } else {
            Kind::QueryCold
        };
    }
    if d.cold_served > 0 {
        return Kind::Serve;
    }
    if d.reaps > 0 {
        return Kind::Reap;
    }
    if d.migrated > 0 {
        return Kind::HandoffCommit;
    }
    let (l, t, c, w) = (d.launches, d.trace_records, d.xs_commits, d.xs_watch_events);
    if c == l + 1 && t == l + 1 {
        Kind::HandoffCommit
    } else if c == l + 1 && t == l {
        Kind::BootCommit
    } else if l == 0 && c == 0 && t == 1 && w > 0 {
        Kind::Prepare
    } else if c == l && t == l + 1 && w == 0 {
        Kind::DrainDone
    } else {
        Kind::Unclassified
    }
}
