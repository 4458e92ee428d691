//! The summoning benchmark: end-to-end and per-layer host and virtual
//! metrics of the Jitsu reproduction's concurrent daemon on four storm
//! workloads. See `README.md` in this directory.

// Measuring host time is this crate's purpose. It lives outside the
// repository's workspace and outside the directories jitsu-lint scans; the
// allow keeps a clippy run that picks up the repository's `clippy.toml`
// (which fences `Instant` out of the simulation crates) from refusing it.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod classify;
pub mod measure;
pub mod probes;
pub mod run;
pub mod stats;
pub mod workloads;
