//! `bench_snapshot` — record the repository's performance trajectory.
//!
//! Runs the hot-path suite from `bench::snapshot` and writes a
//! schema-versioned `BENCH_<date>.json`; with `--compare <baseline>` it
//! also gates against a previous snapshot, exiting nonzero on a wall-time
//! regression past tolerance (exit 2) or on *any* drift in the
//! deterministic virtual metrics (exit 3).
//!
//! This binary is the only place in the workspace that reads the host
//! clock. Everything else is fenced off from `Instant` and `SystemTime` by
//! clippy.toml's disallowed lists; the harness opts out so it can time the
//! simulated workloads *from outside* the simulation.
//!
//! ```text
//! bench_snapshot [--out <path>] [--compare <baseline>]
//!                [--wall-tolerance <pct>] [--quick]
//! ```

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the harness times the simulation from outside it, so it reads the host clock"
)]

use bench::snapshot::{
    collect, compare, BenchConfig, Snapshot, WallTimer, DEFAULT_WALL_TOLERANCE_PCT, SCHEMA_VERSION,
};
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The real timer: wall-clock seconds around one run of the workload.
struct InstantTimer;

impl WallTimer for InstantTimer {
    fn time(&self, work: &mut dyn FnMut()) -> f64 {
        let start = Instant::now();
        work();
        start.elapsed().as_secs_f64()
    }
}

/// Today's UTC date as `YYYY-MM-DD`, from the epoch-day count (civil
/// calendar conversion; no external time crates in this tree).
fn today() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    // Days-to-civil, via the era decomposition over 400-year cycles.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// `git rev-parse HEAD`, or `"unknown"` outside a repository.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

struct Args {
    out: Option<String>,
    baseline: Option<String>,
    wall_tolerance_pct: f64,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: None,
        baseline: None,
        wall_tolerance_pct: DEFAULT_WALL_TOLERANCE_PCT,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                args.out = Some(it.next().ok_or("--out needs a path")?);
            }
            "--compare" => {
                args.baseline = Some(it.next().ok_or("--compare needs a baseline path")?);
            }
            "--wall-tolerance" => {
                let raw = it.next().ok_or("--wall-tolerance needs a percentage")?;
                args.wall_tolerance_pct = raw
                    .parse::<f64>()
                    .map_err(|_| format!("invalid tolerance `{raw}`"))?;
                if !args.wall_tolerance_pct.is_finite() || args.wall_tolerance_pct < 0.0 {
                    return Err(format!(
                        "tolerance must be a non-negative percentage, got `{raw}`"
                    ));
                }
            }
            "--quick" => args.quick = true,
            "--help" | "-h" => {
                return Err(
                    "usage: bench_snapshot [--out <path>] [--compare <baseline>] \
                     [--wall-tolerance <pct>] [--quick]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };

    let cfg = if args.quick {
        BenchConfig::quick()
    } else {
        BenchConfig::default()
    };
    let date = today();
    eprintln!(
        "bench_snapshot: collecting {} suite run ({} wall reps per metric)…",
        if args.quick { "quick" } else { "full" },
        cfg.wall_reps
    );
    let metrics = collect(&InstantTimer, &cfg);
    let snapshot = Snapshot {
        schema_version: SCHEMA_VERSION,
        git_sha: git_sha(),
        date: date.clone(),
        metrics,
    };

    let out_path = args.out.unwrap_or_else(|| format!("BENCH_{date}.json"));
    let doc = snapshot.to_json();
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("bench_snapshot: cannot write {out_path}: {e}");
        return ExitCode::from(1);
    }
    println!(
        "wrote {out_path} ({} metrics, schema v{}, {})",
        snapshot.metrics.len(),
        snapshot.schema_version,
        snapshot.git_sha
    );
    for m in &snapshot.metrics {
        println!(
            "  {:32} {:>16.4} {:10} [{}]",
            m.key(),
            m.value,
            m.unit,
            match m.kind {
                bench::snapshot::MetricKind::Virtual => "virtual",
                bench::snapshot::MetricKind::Wall => "wall",
            }
        );
    }

    let Some(baseline_path) = args.baseline else {
        return ExitCode::SUCCESS;
    };
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_snapshot: cannot read baseline {baseline_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let baseline = match Snapshot::from_json(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_snapshot: malformed baseline {baseline_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let report = compare(&snapshot, &baseline, args.wall_tolerance_pct);
    println!(
        "\ncompare vs {baseline_path} (wall tolerance {:.0}%):",
        args.wall_tolerance_pct
    );
    print!("{}", report.render());
    ExitCode::from(report.verdict().exit_code() as u8)
}
