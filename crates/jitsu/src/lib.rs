//! # jitsu — just-in-time summoning of unikernels
//!
//! This crate is the paper's primary contribution: the toolstack layer that
//! launches unikernels in response to network traffic and masks their boot
//! latency.
//!
//! * [`config`] — service configuration: which DNS name maps to which
//!   unikernel image, external IP, protocol and port (§3.3.2);
//! * [`directory`] — the Jitsu directory service: an authoritative DNS
//!   responder that returns the address of a running unikernel, triggers a
//!   launch for a known-but-not-running one, or answers `SERVFAIL` when the
//!   host is out of resources;
//! * [`launcher`] — summoning and retiring unikernels through the
//!   (optimised) `xen-sim` toolstack, composing domain construction with the
//!   guest boot pipeline;
//! * [`synjitsu`] — the SYN proxy: accepts embryonic TCP connections on
//!   behalf of still-booting unikernels, buffers their data, and records the
//!   connection state in XenStore (Figure 7);
//! * [`handoff`] — the two-phase commit through XenStore that guarantees
//!   exactly one of Synjitsu or the unikernel answers any given packet;
//! * [`jitsud`] — the daemon tying it all together, with the end-to-end
//!   cold-start and warm-request timelines that Figure 9a measures;
//! * [`concurrent`] — the event-driven concurrent engine: per-service
//!   lifecycle state machines scheduled on the `jitsu_sim` event engine,
//!   with launch-slot admission control, duplicate-query coalescing,
//!   memory-exhaustion `SERVFAIL` and idle reaping (§3.3) — the machinery
//!   the boot-storm experiment drives.

#![warn(missing_docs)]
// A sim-logic crate: outside tests, no panics or discarded `Result`s
// without a reasoned `#[expect]` (README, "Static analysis").
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use
)]

pub mod concurrent;
pub mod config;
pub mod directory;
pub mod fleet;
pub mod handoff;
pub mod jitsud;
pub mod launcher;
pub mod synjitsu;

pub use concurrent::{ConcurrentJitsud, Lifecycle, LifecyclePhase, StormMetrics, StormSim};
pub use config::{JitsuConfig, Protocol, ServiceConfig};
pub use directory::{DirectoryAction, DirectoryService, ServicePhase};
pub use fleet::{FleetMsg, FleetSim};
pub use handoff::{HandoffCoordinator, HandoffPhase};
pub use jitsud::{ColdStartMode, ColdStartReport, Jitsud, RequestOutcome};
pub use launcher::{LaunchOutcome, Launcher};
pub use synjitsu::Synjitsu;
