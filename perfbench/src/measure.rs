//! The untraced and traced runs, and the metrics they report.
//!
//! * **Untraced** (`--trace 0`): the workload is set up and run to
//!   quiescence over and over for the run's seconds, every repetition on
//!   the same seed. Host times are the fastest repetition's (best of N);
//!   the virtual outcome must be identical in every repetition.
//! * **Traced** (`--trace 1`): a few untraced repetitions give the
//!   reference outcome and host time; then one repetition steps the flat
//!   engine through `Sim::step`, recording a span per event, and must reach
//!   the same virtual outcome bit for bit; then the per-layer probes run.

use crate::classify::{classify, Kind, Snapshot};
use crate::probes::{self, Probes, Sizes};
use crate::run::{outcome, setup, Outcome, World};
use crate::stats::{median, quantile_sorted, sorted, tail};
use crate::workloads::{board_config, generate_for, Spec, Workload};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One metric as reported: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Host times of one untraced repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Generate inputs, build the world, inject arrivals, pre-warm.
    pub setup_s: f64,
    /// The measured phase: run to quiescence.
    pub run_s: f64,
}

/// The result of a run: its metrics and what its checks found.
#[derive(Debug)]
pub struct RunResult {
    /// Client queries attempted (over one repetition).
    pub attempted: u64,
    /// Failed client queries plus violated checks.
    pub failed: u64,
    /// The violated checks (empty when correct).
    pub violations: Vec<String>,
    /// The reported metrics: the ones `BENCHMARK.json` lists.
    pub metrics: Vec<Metric>,
    /// Readings printed beside the metrics but left out of the result line:
    /// host times per span kind, which a workload without spans or without
    /// that kind cannot measure, and the median TTFB, which is the model's
    /// constant warm-hit time on every seed of the gated workloads.
    pub readings: Vec<Metric>,
}

/// Untraced repetitions until `budget` is spent (at least `min_reps`).
/// Returns the host times and the first repetition's outcome; a repetition
/// whose virtual outcome differs is a violation.
pub fn untraced(
    workload: Workload,
    spec: &Spec,
    seed: u64,
    budget: Duration,
    min_reps: usize,
) -> (Vec<Rep>, Outcome) {
    let start = Instant::now();
    let one = || {
        let t0 = Instant::now();
        let inputs = generate_for(spec.clone(), seed);
        let (mut world, base) = setup(workload, &inputs);
        let events_before = world.events_executed();
        let t1 = Instant::now();
        world.run();
        let t2 = Instant::now();
        let out = outcome(workload, &inputs, &world, &base, events_before);
        drop(world);
        let rep = Rep {
            setup_s: (t1 - t0).as_secs_f64(),
            run_s: (t2 - t1).as_secs_f64(),
        };
        (rep, out)
    };
    let (rep, mut first) = one();
    let mut reps = vec![rep];
    // Stop before a repetition that would overrun the budget.
    while reps.len() < min_reps || start.elapsed() + start.elapsed() / reps.len() as u32 <= budget {
        let (rep, out) = one();
        reps.push(rep);
        if out.fingerprint() != first.fingerprint() {
            first.violations.push(format!(
                "repetition {} reached a different virtual outcome",
                reps.len()
            ));
        }
    }
    (reps, first)
}

/// Fewest served queries a full-size workload must produce, so that its
/// p99 has at least ten samples beyond it.
pub const MIN_SERVED: u64 = 1_000;

fn served_check(out: &Outcome) -> Option<String> {
    let total = out.total();
    let served = total.cold_served + total.warm_hits;
    (served < MIN_SERVED).then(|| format!("only {served} queries served, fewer than {MIN_SERVED}"))
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(workload: Workload, seed: u64, seconds: u64) -> RunResult {
    end_to_end_for(workload, &workload.spec(), seed, seconds)
}

/// [`end_to_end`] on a workload of shape `spec`.
pub fn end_to_end_for(workload: Workload, spec: &Spec, seed: u64, seconds: u64) -> RunResult {
    let (reps, mut out) = untraced(workload, spec, seed, Duration::from_secs(seconds), 3);
    out.violations.extend(served_check(&out));
    // Best of N: other load on the machine only ever slows a repetition
    // down, in phases lasting seconds to minutes, so the fastest
    // repetition moves less from run to run than the median does.
    let fastest = |time: fn(&Rep) -> f64| reps.iter().map(time).fold(f64::INFINITY, f64::min);
    let metrics = vec![
        (
            "queries_per_s".to_string(),
            out.client_queries as f64 / fastest(|r| r.run_s),
            "queries/s",
        ),
        ("setup_s".to_string(), fastest(|r| r.setup_s), "s"),
        ("peak_rss_mib".to_string(), peak_rss_mib(), "MiB"),
        ("ttfb_p99_ms".to_string(), out.ttfb_p99_ms, "ms"),
        ("served_frac".to_string(), out.served_frac(), "fraction"),
    ];
    RunResult {
        attempted: out.client_queries,
        failed: out.failed_queries + out.violations.len() as u64,
        violations: out.violations,
        metrics,
        readings: vec![("ttfb_p50_ms".to_string(), out.ttfb_p50_ms, "ms")],
    }
}

/// One traced event.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the event in the measured phase.
    pub index: u64,
    /// Virtual time the event ran at, ns.
    pub virtual_ns: u64,
    /// Host start and end, ns since the traced loop began.
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// What the event did.
    pub kind: Kind,
    /// `events_pending()` after the step.
    pub pending: usize,
    /// Domains launched by the step.
    pub launches: u64,
}

impl Span {
    fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }
}

/// Step a flat world to quiescence through `Sim::step`, one span per
/// event. Returns the spans and the loop's host time.
pub fn step_traced(world: &mut World) -> (Vec<Span>, f64) {
    let World::Flat(sim) = world else {
        return (Vec::new(), 0.0);
    };
    let mut spans = Vec::with_capacity(sim.events_pending() * 2);
    let mut before = Snapshot::of(sim.world());
    let start = Instant::now();
    let mut index = 0;
    loop {
        let t0 = start.elapsed();
        if !sim.step() {
            break;
        }
        let t1 = start.elapsed();
        let after = Snapshot::of(sim.world());
        spans.push(Span {
            index,
            virtual_ns: sim.now().as_nanos(),
            host_start_ns: t0.as_nanos() as u64,
            host_end_ns: t1.as_nanos() as u64,
            kind: classify(&before, &after),
            pending: sim.events_pending(),
            launches: after.counters.launches - before.counters.launches,
        });
        before = after;
        index += 1;
    }
    (spans, start.elapsed().as_secs_f64())
}

/// Write the spans of a traced run as tab-separated text.
pub fn write_spans(path: &Path, workload: Workload, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "workload\tindex\tvirtual_ns\thost_start_ns\thost_end_ns\tkind\tpending"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            workload.name(),
            s.index,
            s.virtual_ns,
            s.host_start_ns,
            s.host_end_ns,
            s.kind.name(),
            s.pending
        )?;
    }
    out.flush()
}

/// Per-kind metrics from the spans: each kind's count, and as readings its
/// busy seconds, median and tail µs.
fn kind_metrics(spans: &[Span]) -> (Vec<Metric>, Vec<Metric>) {
    let mut per_kind: Vec<Vec<u64>> = vec![Vec::new(); Kind::ALL.len()];
    for s in spans {
        per_kind[s.kind.index()].push(s.host_ns());
    }
    let (mut counts, mut times) = (Vec::new(), Vec::new());
    for kind in Kind::ALL {
        let ns = &per_kind[kind.index()];
        let us = sorted(ns.iter().map(|&n| n as f64 / 1e3).collect());
        let k = kind.name();
        counts.push((format!("jitsu.{k}.n"), ns.len() as f64, "count"));
        times.push((
            format!("jitsu.{k}.busy_s"),
            ns.iter().sum::<u64>() as f64 / 1e9,
            "s",
        ));
        times.push((format!("jitsu.{k}.us_p50"), quantile_sorted(&us, 0.5), "us"));
        times.push((format!("jitsu.{k}.us_tail"), tail(&us).1, "us"));
    }
    (counts, times)
}

/// Mean host time of launch-bearing steps in the last quarter of them ÷ the
/// first quarter (0 with fewer than four).
fn launch_growth(spans: &[Span]) -> f64 {
    let launch: Vec<f64> = spans
        .iter()
        .filter(|s| s.launches > 0)
        .map(|s| s.host_ns() as f64)
        .collect();
    let q = launch.len() / 4;
    if q == 0 {
        return 0.0;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    mean(&launch[launch.len() - q..]) / mean(&launch[..q])
}

/// The per-layer metrics of a traced run. `spans_path` receives the spans.
pub fn per_layer(workload: Workload, seed: u64, seconds: u64, spans_path: &Path) -> RunResult {
    per_layer_for(workload, &workload.spec(), seed, seconds, spans_path)
}

/// [`per_layer`] on a workload of shape `spec`.
pub fn per_layer_for(
    workload: Workload,
    spec: &Spec,
    seed: u64,
    seconds: u64,
    spans_path: &Path,
) -> RunResult {
    // Untraced reference: a third of the budget, at least two repetitions.
    let (reps, reference) = untraced(workload, spec, seed, Duration::from_secs(seconds / 3), 2);
    let untraced_s = median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());

    let inputs = generate_for(spec.clone(), seed);
    let (mut world, base) = setup(workload, &inputs);
    let queue_high_water = world.events_pending();
    let events_before = world.events_executed();
    let (spans, traced_s) = if workload.is_flat() {
        step_traced(&mut world)
    } else {
        // ShardedSim exposes only `run`: whole-run time and counters.
        let t = Instant::now();
        world.run();
        (Vec::new(), t.elapsed().as_secs_f64())
    };
    let traced = outcome(workload, &inputs, &world, &base, events_before);
    let mut violations = reference.violations.clone();
    violations.extend(traced.violations.iter().cloned());
    violations.extend(served_check(&traced));
    if traced.fingerprint() != reference.fingerprint() {
        violations.push("traced run's virtual outcome differs from the untraced run's".into());
    }
    if let Err(e) = write_spans(spans_path, workload, &spans) {
        violations.push(format!("writing spans to {}: {e}", spans_path.display()));
    }

    let total = traced.total();
    let queue_high_water = spans
        .iter()
        .map(|s| s.pending)
        .max()
        .unwrap_or(0)
        .max(queue_high_water);
    let busiest_launches = traced.boards.iter().map(|b| b.launches).max().unwrap_or(0);
    let sizes = Sizes {
        launches: busiest_launches,
        clients_per_boot: ((total.cold_served as f64 / total.launches.max(1) as f64).round()
            as usize)
            .max(1),
        queue_high_water,
    };
    let probes = probes::run(&board_config(&inputs.spec), sizes).unwrap_or_else(|e| {
        violations.push(format!("probe failed: {e}"));
        Probes::default()
    });

    let q = traced.client_queries.max(1) as f64;
    let traced_busy = spans.iter().map(Span::host_ns).sum::<u64>() as f64;
    let unclassified = spans
        .iter()
        .filter(|s| s.kind == Kind::Unclassified)
        .map(Span::host_ns)
        .sum::<u64>() as f64;
    let c = |name: &str, v: f64, unit: &'static str| (name.to_string(), v, unit);
    let mut m = vec![
        c("sim.events", traced.events as f64, "count"),
        c("sim.events_per_query", traced.events as f64 / q, "ratio"),
        c("sim.queue_depth_max", queue_high_water as f64, "count"),
        c("sim.dispatch_ns", probes.dispatch_ns, "ns"),
        c("shard.barriers", traced.barriers as f64, "count"),
        c("fleet.failovers", total.failovers as f64, "count"),
        c(
            "fleet.failover_dropped",
            total.failover_dropped as f64,
            "count",
        ),
    ];
    let (kind_counts, kind_times) = kind_metrics(&spans);
    m.extend(kind_counts);
    m.extend([
        c("jitsu.query_cold.growth", launch_growth(&spans), "ratio"),
        c(
            "jitsu.coalesced_per_launch",
            total.coalesced as f64 / total.launches.max(1) as f64,
            "ratio",
        ),
        c("jitsu.trace_records", total.trace_records as f64, "count"),
        c("jitsu.directory.query_ns", probes.directory_query_ns, "ns"),
        c("xenstore.ops", total.xs_ops as f64, "count"),
        c("xenstore.ops_per_query", total.xs_ops as f64 / q, "ratio"),
        c("xenstore.commits", total.xs_commits as f64, "count"),
        c("xenstore.merged", total.xs_merged as f64, "count"),
        c("xenstore.conflicts", total.xs_conflicts as f64, "count"),
        c(
            "xenstore.watch_events",
            total.xs_watch_events as f64,
            "count",
        ),
        c("xenstore.commit_us", probes.commit_us, "us"),
        c("xen_sim.launch_us_first_q", probes.launch_us_first_q, "us"),
        c("xen_sim.launch_us_last_q", probes.launch_us_last_q, "us"),
        c("xen_sim.nodes_left", probes.nodes_left, "count"),
        c("synjitsu.park_us_per_conn", probes.park_us_per_conn, "us"),
        c("synjitsu.xs_ops_per_conn", probes.xs_ops_per_conn, "ratio"),
        c("netstack.frame_ns", probes.frame_ns, "ns"),
        c("unikernel.exchange_us", probes.exchange_us, "us"),
        c(
            "conduit.stream_ns_per_kib",
            probes.stream_ns_per_kib,
            "ns/KiB",
        ),
        c(
            "bench.trace_overhead_frac",
            traced_s / untraced_s - 1.0,
            "fraction",
        ),
        c(
            "bench.unclassified_frac",
            if traced_busy > 0.0 {
                unclassified / traced_busy
            } else {
                0.0
            },
            "fraction",
        ),
    ]);
    RunResult {
        attempted: traced.client_queries,
        failed: traced.failed_queries + violations.len() as u64,
        violations,
        metrics: m,
        readings: kind_times,
    }
}
