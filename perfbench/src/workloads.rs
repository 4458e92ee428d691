//! The four storm workloads and their seeded input generators.
//!
//! Every input the daemon sees is generated here from the run's `--seed`:
//! the board configurations, the per-board engine seeds and every query
//! arrival. The program receives only the generated arrivals, through its
//! public entry points (`ConcurrentJitsud::inject_query` on the flat engine,
//! `jitsu::fleet::inject_query` on the sharded one).
//!
//! All four workloads are **open loop**: arrival times are fixed in virtual
//! time before the run starts and never wait for the system, so a slow
//! launch path makes later queries wait instead of arriving later. The
//! daemon times each query's TTFB from the moment its arrival event fires,
//! which in a discrete-event run is exactly when the query was due.
//!
//! Each workload has a fixed length (in virtual time and in bursts): the
//! launch path's host cost per launch grows with the number of launches so
//! far, so a run's cost depends on its length, and the length is part of
//! the workload's definition.

use jitsu::config::{JitsuConfig, ServiceConfig};
use jitsu_sim::{SimDuration, SimRng, SimTime};
use netstack::ipv4::Ipv4Addr;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Poisson arrivals over 24 light services with a 1 s idle TTL.
    ColdChurn,
    /// 8 services booted during set-up, then ~2,000 warm queries/s.
    WarmDns,
    /// Bursts of ~32 clients onto one cold service, round-robin over 4.
    FlashCrowd,
    /// 32 boards on the sharded engine with SERVFAIL fail-over.
    FleetFailover,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdChurn,
        Workload::WarmDns,
        Workload::FlashCrowd,
        Workload::FleetFailover,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdChurn => "cold_churn",
            Workload::WarmDns => "warm_dns",
            Workload::FlashCrowd => "flash_crowd",
            Workload::FleetFailover => "fleet_failover",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the flat engine (`Sim`), where the
    /// traced run can step event by event.
    pub fn is_flat(self) -> bool {
        !matches!(self, Workload::FleetFailover)
    }
}

/// The fixed shape of one workload: what its boards look like and how its
/// arrivals are generated. Sizes are constants, so that a run's cost is a
/// function of the seed alone.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Number of boards (1 on the flat engine).
    pub boards: u32,
    /// Services configured on each board.
    pub services: usize,
    /// Memory per service unikernel, MiB.
    pub service_mib: u32,
    /// Launch-slot semaphore capacity.
    pub launch_slots: u32,
    /// Idle TTL before a running unikernel is reaped.
    pub idle_ttl: SimDuration,
    /// The arrival process.
    pub arrivals: Arrivals,
}

/// The arrival processes the generators implement.
#[derive(Debug, Clone)]
pub enum Arrivals {
    /// Poisson arrivals at `rate` per second over `window`, each query for
    /// a uniformly random service.
    Poisson { rate: f64, window: SimDuration },
    /// One query per service at `spacing` intervals from time zero (the
    /// pre-warm boots, run during set-up), then Poisson arrivals as above,
    /// starting at `start`.
    PrewarmPoisson {
        spacing: SimDuration,
        start: SimTime,
        rate: f64,
        window: SimDuration,
    },
    /// `bursts` bursts, `gap` apart. Burst `b` aims `clients` queries at
    /// service `b % services`, each at a uniform time within `spread` of
    /// the burst start.
    Bursts {
        bursts: u32,
        clients: u32,
        spread: SimDuration,
        gap: SimDuration,
    },
    /// Poisson arrivals at `rate` per second per board over `window`.
    PerBoardPoisson { rate: f64, window: SimDuration },
}

impl Workload {
    /// The workload's fixed shape.
    pub fn spec(self) -> Spec {
        match self {
            // Why: a third of the queries launch a unikernel and a tenth
            // coalesce onto a launch; the warm rest cost little, so the
            // launch path (xen_sim domain build and destroy, xenstore boot
            // transactions) does most of the work. This is the
            // boot_storm experiment's slot-bound cell at 24 q/s with 2
            // slots. Its per-launch host cost grows with launches so far,
            // so the window is fixed.
            Workload::ColdChurn => Spec {
                boards: 1,
                services: 24,
                service_mib: 16,
                launch_slots: 2,
                idle_ttl: SimDuration::from_secs(1),
                arrivals: Arrivals::Poisson {
                    rate: 24.0,
                    window: SimDuration::from_secs(120),
                },
            },
            // Why: every measured query is a warm hit (about a microsecond of
            // handler work plus a no-op reap check), so engine dispatch, the
            // event queue (every arrival is pre-injected) and the DNS
            // directory do the work. It bypasses the toolstack, XenStore and
            // Synjitsu: a launch-path change must leave it unmoved. The
            // pre-warm keeps the first boots' coalesced queries out of the
            // measured phase.
            Workload::WarmDns => Spec {
                boards: 1,
                services: 8,
                service_mib: 16,
                launch_slots: 2,
                idle_ttl: SimDuration::from_secs(3_600),
                arrivals: Arrivals::PrewarmPoisson {
                    spacing: SimDuration::from_millis(1),
                    start: SimTime::from_secs(2),
                    rate: 2_000.0,
                    window: SimDuration::from_secs(120),
                },
            },
            // Why: each boot parks a crowd of clients, so the Synjitsu proxy,
            // the handoff records in xenstore (many small record writes, not
            // transactions), the conduit vchan drain and the unikernel's
            // adopt-and-replay do the work. Bursts are spaced further apart
            // than the TTL plus teardown, so every burst meets a cold
            // service.
            Workload::FlashCrowd => Spec {
                boards: 1,
                services: 4,
                service_mib: 16,
                launch_slots: 2,
                idle_ttl: SimDuration::from_secs(1),
                arrivals: Arrivals::Bursts {
                    bursts: 32,
                    clients: 32,
                    spread: SimDuration::from_millis(300),
                    gap: SimDuration::from_millis(2_500),
                },
            },
            // Why: 60 services of 48 MiB on boards that hold 17 of them and
            // never reap inside the run. Once boards fill, most queries
            // SERVFAIL and fail over around the ring at the 50 ms epoch
            // barriers, so cheap handlers, barriers and cross-board messages
            // dominate. The only workload on sim::shard and jitsu::fleet.
            Workload::FleetFailover => Spec {
                boards: 32,
                services: 60,
                service_mib: 48,
                launch_slots: 2,
                idle_ttl: SimDuration::from_secs(3_600),
                arrivals: Arrivals::PerBoardPoisson {
                    rate: 16.0,
                    window: SimDuration::from_secs(60),
                },
            },
        }
    }
}

impl Workload {
    /// A small version of the workload's shape, for tests: the same
    /// mechanisms at a fraction of the length (and of the fleet).
    pub fn quick_spec(self) -> Spec {
        let mut spec = self.spec();
        spec.arrivals = match spec.arrivals {
            Arrivals::Poisson { rate, .. } => Arrivals::Poisson {
                rate,
                window: SimDuration::from_secs(10),
            },
            Arrivals::PrewarmPoisson {
                spacing,
                start,
                rate,
                ..
            } => Arrivals::PrewarmPoisson {
                spacing,
                start,
                rate,
                window: SimDuration::from_secs(1),
            },
            Arrivals::Bursts {
                clients,
                spread,
                gap,
                ..
            } => Arrivals::Bursts {
                bursts: 4,
                clients,
                spread,
                gap,
            },
            Arrivals::PerBoardPoisson { rate, .. } => Arrivals::PerBoardPoisson {
                rate,
                window: SimDuration::from_secs(10),
            },
        };
        if spec.boards > 1 {
            spec.boards = 4;
        }
        spec
    }
}

/// The DNS zone every board serves.
pub const ZONE: &str = "bench.example";

/// The name of service `i`.
pub fn service_name(i: usize) -> String {
    format!("svc{i:03}.{ZONE}")
}

/// The Jitsu configuration of one board of a workload.
pub fn board_config(spec: &Spec) -> JitsuConfig {
    let mut cfg = JitsuConfig::new(ZONE)
        .with_launch_slots(spec.launch_slots)
        .with_idle_timeout(spec.idle_ttl);
    if spec.boards > 1 {
        cfg = cfg.with_failover();
    }
    for i in 0..spec.services {
        let ip = Ipv4Addr::new(192, 168, 2 + (i / 200) as u8, 20 + (i % 200) as u8);
        let mut svc = ServiceConfig::http_site(&service_name(i), ip);
        svc.image.memory_mib = spec.service_mib;
        cfg = cfg.with_service(svc);
    }
    cfg
}

/// One generated query: the board it arrives at, when, and for which name.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Board index (0 on the flat engine).
    pub board: u32,
    /// Virtual arrival time.
    pub at: SimTime,
    /// Queried service name.
    pub name: String,
}

/// A workload's generated inputs: its shape, engine seeds and arrivals,
/// split into the pre-warm queries (run during set-up) and the measured
/// ones.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The shape the inputs were generated for.
    pub spec: Spec,
    /// Engine seed of each board.
    pub board_seeds: Vec<u64>,
    /// Queries run to completion during set-up (empty except `warm_dns`).
    pub prewarm: Vec<Query>,
    /// The measured queries, in arrival order per board.
    pub measured: Vec<Query>,
}

/// Split a 64-bit seed into an independent stream for `salt` (splitmix64),
/// so that every board seed and arrival stream derives from `--seed` alone.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Poisson arrivals at `rate` per second over `[start, start + window)`,
/// each for a uniformly random one of `services`.
fn poisson(
    rng: &mut SimRng,
    board: u32,
    start: SimTime,
    rate: f64,
    window: SimDuration,
    services: usize,
) -> Vec<Query> {
    let mean_gap = 1.0 / rate;
    let window = window.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exponential(mean_gap);
        if t >= window {
            return out;
        }
        out.push(Query {
            board,
            at: start + SimDuration::from_secs_f64(t),
            name: service_name(rng.index(services)),
        });
    }
}

/// Generate a workload's inputs from `seed`. A pure function: the same
/// seed gives the same inputs.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    generate_for(workload.spec(), seed)
}

/// Generate inputs of shape `spec` from `seed`.
pub fn generate_for(spec: Spec, seed: u64) -> Inputs {
    let board_seeds = (0..spec.boards)
        .map(|b| derive_seed(seed, 0x5EED_0000 + u64::from(b)))
        .collect();
    let mut rng = SimRng::seed_from_u64(derive_seed(seed, 0xA77_1BA1));
    let mut prewarm = Vec::new();
    let mut measured = Vec::new();
    match spec.arrivals.clone() {
        Arrivals::Poisson { rate, window } => {
            measured = poisson(&mut rng, 0, SimTime::ZERO, rate, window, spec.services);
        }
        Arrivals::PrewarmPoisson {
            spacing,
            start,
            rate,
            window,
        } => {
            prewarm = (0..spec.services)
                .map(|i| Query {
                    board: 0,
                    at: SimTime::ZERO + spacing * i as u64,
                    name: service_name(i),
                })
                .collect();
            measured = poisson(&mut rng, 0, start, rate, window, spec.services);
        }
        Arrivals::Bursts {
            bursts,
            clients,
            spread,
            gap,
        } => {
            for b in 0..bursts {
                let begin = SimTime::ZERO + gap * u64::from(b);
                let name = service_name(b as usize % spec.services);
                let mut times: Vec<SimTime> = (0..clients)
                    .map(|_| begin + spread.mul_f64(rng.uniform01()))
                    .collect();
                times.sort();
                measured.extend(times.into_iter().map(|at| Query {
                    board: 0,
                    at,
                    name: name.clone(),
                }));
            }
        }
        Arrivals::PerBoardPoisson { rate, window } => {
            for b in 0..spec.boards {
                let mut board_rng =
                    SimRng::seed_from_u64(derive_seed(seed, 0xB0A2D + u64::from(b)));
                measured.extend(poisson(
                    &mut board_rng,
                    b,
                    SimTime::ZERO,
                    rate,
                    window,
                    spec.services,
                ));
            }
        }
    }
    Inputs {
        spec,
        board_seeds,
        prewarm,
        measured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let a = generate(w, 7);
            let b = generate(w, 7);
            assert_eq!(a.measured, b.measured, "{}", w.name());
            assert_eq!(a.board_seeds, b.board_seeds);
            assert_ne!(generate(w, 8).measured, a.measured, "{}", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
