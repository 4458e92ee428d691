//! Building, running and checking one workload's world.
//!
//! A world is built exactly as the storm experiments build theirs — the
//! shipped `ConcurrentJitsud` with its tracer enabled, on the Cubieboard2
//! board — and driven only through public entry points.

use crate::workloads::{board_config, Inputs, Workload};
use jitsu::concurrent::{ConcurrentJitsud, StormMetrics, StormSim};
use jitsu::fleet::{self, FleetSim};
use jitsu_sim::{DomainId, LatencyRecorder, ShardedSim, SimDuration};
use platform::BoardKind;
use xenstore::StoreStats;

/// The virtual-time epoch of the fleet: fail-over retries are delivered at
/// the next 50 ms barrier, as in the storm experiments.
pub const FLEET_EPOCH: SimDuration = SimDuration::from_millis(50);

/// A workload's world, set up and ready for its measured phase.
pub enum World {
    /// One board on the flat engine.
    Flat(Box<StormSim>),
    /// A fleet of boards on the sharded engine.
    Fleet(FleetSim),
}

/// The counters of one board the benchmark reads, copied out of the
/// board's public accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BoardCounters {
    pub queries: u64,
    pub unknown: u64,
    pub launches: u64,
    pub cold_served: u64,
    pub coalesced: u64,
    pub warm_hits: u64,
    pub servfails: u64,
    pub failovers: u64,
    pub failover_dropped: u64,
    pub reaps: u64,
    pub syn_handoffs: u64,
    pub migrated: u64,
    pub queued_during_prepare: u64,
    pub replayed_after_commit: u64,
    pub completed: u64,
    pub dropped_bytes: u64,
    pub duplicated_bytes: u64,
    pub xs_ops: u64,
    pub xs_commits: u64,
    pub xs_merged: u64,
    pub xs_conflicts: u64,
    pub xs_aborts: u64,
    pub xs_watch_events: u64,
    pub trace_records: u64,
}

impl BoardCounters {
    /// Read a board's counters.
    pub fn of(world: &ConcurrentJitsud) -> BoardCounters {
        let m: &StormMetrics = world.metrics();
        let xs: StoreStats = world.xenstore_stats();
        BoardCounters {
            queries: m.queries,
            unknown: m.unknown,
            launches: m.launches,
            cold_served: m.cold_served,
            coalesced: m.coalesced,
            warm_hits: m.warm_hits,
            servfails: m.servfails,
            failovers: m.failovers,
            failover_dropped: m.failover_dropped,
            reaps: m.reaps,
            syn_handoffs: m.syn_handoffs,
            migrated: m.handoff.migrated,
            queued_during_prepare: m.handoff.queued_during_prepare,
            replayed_after_commit: m.handoff.replayed_after_commit,
            completed: m.handoff.completed,
            dropped_bytes: m.handoff.dropped_bytes,
            duplicated_bytes: m.handoff.duplicated_bytes,
            xs_ops: xs.ops,
            xs_commits: xs.commits,
            xs_merged: xs.merged,
            xs_conflicts: xs.conflicts,
            xs_aborts: xs.aborts,
            xs_watch_events: xs.watch_events,
            trace_records: world.tracer.len() as u64,
        }
    }

    /// Every counter, in declaration order (for sums and fingerprints).
    pub fn fields(&self) -> [u64; 24] {
        [
            self.queries,
            self.unknown,
            self.launches,
            self.cold_served,
            self.coalesced,
            self.warm_hits,
            self.servfails,
            self.failovers,
            self.failover_dropped,
            self.reaps,
            self.syn_handoffs,
            self.migrated,
            self.queued_during_prepare,
            self.replayed_after_commit,
            self.completed,
            self.dropped_bytes,
            self.duplicated_bytes,
            self.xs_ops,
            self.xs_commits,
            self.xs_merged,
            self.xs_conflicts,
            self.xs_aborts,
            self.xs_watch_events,
            self.trace_records,
        ]
    }

    fn from_fields(f: [u64; 24]) -> BoardCounters {
        BoardCounters {
            queries: f[0],
            unknown: f[1],
            launches: f[2],
            cold_served: f[3],
            coalesced: f[4],
            warm_hits: f[5],
            servfails: f[6],
            failovers: f[7],
            failover_dropped: f[8],
            reaps: f[9],
            syn_handoffs: f[10],
            migrated: f[11],
            queued_during_prepare: f[12],
            replayed_after_commit: f[13],
            completed: f[14],
            dropped_bytes: f[15],
            duplicated_bytes: f[16],
            xs_ops: f[17],
            xs_commits: f[18],
            xs_merged: f[19],
            xs_conflicts: f[20],
            xs_aborts: f[21],
            xs_watch_events: f[22],
            trace_records: f[23],
        }
    }

    /// `self − earlier`, counter by counter (all counters only grow).
    pub fn since(&self, earlier: &BoardCounters) -> BoardCounters {
        let (a, b) = (self.fields(), earlier.fields());
        BoardCounters::from_fields(std::array::from_fn(|i| a[i] - b[i]))
    }

    /// The counter-wise sum over boards.
    pub fn sum<'a>(boards: impl IntoIterator<Item = &'a BoardCounters>) -> BoardCounters {
        let mut acc = [0u64; 24];
        for b in boards {
            for (a, v) in acc.iter_mut().zip(b.fields()) {
                *a += v;
            }
        }
        BoardCounters::from_fields(acc)
    }
}

/// Build the world for `inputs`, inject every arrival and run the pre-warm
/// boots. This is the set-up the `setup_s` metric times. Returns the world
/// and each board's counters at the end of set-up (the measured phase is
/// counted from there).
pub fn setup(workload: Workload, inputs: &Inputs) -> (World, Vec<BoardCounters>) {
    let spec = &inputs.spec;
    let cfg = board_config(spec);
    let board = BoardKind::Cubieboard2.board();
    if workload.is_flat() {
        let mut sim = ConcurrentJitsud::sim(cfg, board, inputs.board_seeds[0]);
        if !inputs.prewarm.is_empty() {
            for q in &inputs.prewarm {
                ConcurrentJitsud::inject_query(&mut sim, q.at, &q.name);
            }
            // Run the pre-warm boots up to the first measured arrival; the
            // idle reap checks they armed stay queued.
            let first = inputs.measured.first().map(|q| q.at);
            if let Some(first) = first {
                let deadline = jitsu_sim::SimTime::from_nanos(first.as_nanos().saturating_sub(1));
                sim.run_until(deadline);
            }
        }
        let base = vec![BoardCounters::of(sim.world())];
        for q in &inputs.measured {
            ConcurrentJitsud::inject_query(&mut sim, q.at, &q.name);
        }
        (World::Flat(Box::new(sim)), base)
    } else {
        let mut sim: FleetSim = ShardedSim::new(1, FLEET_EPOCH);
        for (b, &seed) in inputs.board_seeds.iter().enumerate() {
            let mut world = ConcurrentJitsud::world(cfg.clone(), board.clone(), seed);
            world.set_failover_hops(spec.boards - 1);
            let id = sim.add_domain(world, seed);
            debug_assert_eq!(id.index(), b);
        }
        for q in &inputs.measured {
            fleet::inject_query(&mut sim, DomainId(q.board), q.at, &q.name);
        }
        let base = vec![BoardCounters::default(); spec.boards as usize];
        (World::Fleet(sim), base)
    }
}

impl World {
    /// Run the measured phase to quiescence.
    pub fn run(&mut self) {
        match self {
            World::Flat(sim) => sim.run(),
            World::Fleet(sim) => sim.run(),
        }
    }

    /// The boards, in id order.
    pub fn boards(&self) -> Vec<&ConcurrentJitsud> {
        match self {
            World::Flat(sim) => vec![sim.world()],
            World::Fleet(sim) => (0..sim.num_domains())
                .map(|b| sim.domain(DomainId(b)))
                .collect(),
        }
    }

    /// Events executed so far.
    pub fn events_executed(&self) -> u64 {
        match self {
            World::Flat(sim) => sim.events_executed(),
            World::Fleet(sim) => sim.events_executed(),
        }
    }

    /// Events pending.
    pub fn events_pending(&self) -> usize {
        match self {
            World::Flat(sim) => sim.events_pending(),
            World::Fleet(sim) => sim.events_pending(),
        }
    }

    /// Epoch barriers crossed (0 on the flat engine).
    pub fn barriers(&self) -> u64 {
        match self {
            World::Flat(_) => 0,
            World::Fleet(sim) => sim.barriers(),
        }
    }
}

/// TTFB percentiles (ms) over the served queries of every board.
///
/// `LatencyRecorder` exposes percentiles, not its samples. A single board
/// answers directly; for a fleet each board's sorted samples are recovered
/// from its order statistics (percentile `100·k/(n−1)` is sample `k`) and
/// merged, so the fleet's percentiles are taken over all its queries.
pub fn ttfb_percentiles(recorders: &[&LatencyRecorder], pcts: &[f64]) -> Vec<f64> {
    if let [one] = recorders {
        return one.percentiles_ms(pcts);
    }
    let mut merged = LatencyRecorder::new();
    for r in recorders {
        let n = r.count();
        let ranks: Vec<f64> = match n {
            0 => Vec::new(),
            1 => vec![50.0],
            _ => (0..n).map(|k| 100.0 * k as f64 / (n - 1) as f64).collect(),
        };
        for ms in r.percentiles_ms(&ranks) {
            merged.record(SimDuration::from_nanos((ms * 1e6).round() as u64));
        }
    }
    merged.percentiles_ms(pcts)
}

/// The virtual outcome of a run: a pure function of the seed, compared bit
/// for bit between repetitions and between the traced and untraced runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Each board's counters over the measured phase.
    pub boards: Vec<BoardCounters>,
    /// Events executed in the measured phase.
    pub events: u64,
    /// Epoch barriers (fleet only).
    pub barriers: u64,
    /// Client queries attempted (fleet fail-over retries excluded).
    pub client_queries: u64,
    /// Client queries with no byte-exact response.
    pub failed_queries: u64,
    /// Median TTFB, ms of virtual time.
    pub ttfb_p50_ms: f64,
    /// p99 TTFB, ms of virtual time.
    pub ttfb_p99_ms: f64,
    /// Correctness violations found by [`outcome`].
    pub violations: Vec<String>,
}

impl Outcome {
    /// The virtual fingerprint: every counter plus the exact bits of the
    /// virtual metrics.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut f: Vec<u64> = self.boards.iter().flat_map(|b| b.fields()).collect();
        f.extend([
            self.events,
            self.barriers,
            self.client_queries,
            self.failed_queries,
            self.ttfb_p50_ms.to_bits(),
            self.ttfb_p99_ms.to_bits(),
        ]);
        f
    }

    /// Counters summed over boards.
    pub fn total(&self) -> BoardCounters {
        BoardCounters::sum(&self.boards)
    }

    /// The fraction of client queries served byte-exact (1 − failed share).
    pub fn served_frac(&self) -> f64 {
        1.0 - self.failed_queries as f64 / self.client_queries.max(1) as f64
    }
}

/// Collect a finished world's outcome and run the per-run checks.
pub fn outcome(
    workload: Workload,
    inputs: &Inputs,
    world: &World,
    base: &[BoardCounters],
    events_before: u64,
) -> Outcome {
    let boards: Vec<BoardCounters> = world
        .boards()
        .iter()
        .zip(base)
        .map(|(w, b)| BoardCounters::of(w).since(b))
        .collect();
    let total = BoardCounters::sum(&boards);
    let mut violations = Vec::new();
    for (i, b) in boards.iter().enumerate() {
        if b.dropped_bytes != 0 || b.duplicated_bytes != 0 {
            violations.push(format!(
                "board {i}: handoff dropped {} and duplicated {} bytes",
                b.dropped_bytes, b.duplicated_bytes
            ));
        }
        if b.queries != b.servfails + b.warm_hits + b.cold_served + b.unknown {
            violations.push(format!(
                "board {i}: queries {} != servfails {} + warm {} + cold {} + unknown {}",
                b.queries, b.servfails, b.warm_hits, b.cold_served, b.unknown
            ));
        }
    }
    let client_queries = total.queries - total.failovers;
    if client_queries != inputs.measured.len() as u64 {
        violations.push(format!(
            "{} client queries counted, {} injected",
            client_queries,
            inputs.measured.len()
        ));
    }
    let failed_queries = if workload.is_flat() {
        total.servfails + total.cold_served.saturating_sub(total.completed)
    } else {
        total.failover_dropped
    };
    if workload == Workload::WarmDns {
        // The pre-warm must leave every service running, so that every
        // measured query is a warm hit.
        if total.warm_hits != client_queries {
            violations.push(format!(
                "{} of {} measured queries were warm hits",
                total.warm_hits, client_queries
            ));
        }
    }
    let boards_ref = world.boards();
    let recorders: Vec<&LatencyRecorder> = boards_ref.iter().map(|w| &w.metrics().ttfb).collect();
    let tail = ttfb_percentiles(&recorders, &[50.0, 99.0]);
    Outcome {
        boards,
        events: world.events_executed() - events_before,
        barriers: world.barriers(),
        client_queries,
        failed_queries,
        ttfb_p50_ms: tail[0],
        ttfb_p99_ms: tail[1],
        violations,
    }
}
