//! Fixtures for the workspace lint rules: one feature-gated module per
//! rule, each holding code the rule must reject, and the always-built
//! `waiver_ok`, which must pass. [`config`] maps each rule to its feature
//! and lints; `tests/fixtures.rs` runs clippy once per feature under the
//! root `[workspace.lints]` and `clippy.toml` and checks the lints it
//! reports.

// The same scope the sim-logic crates that encode wire formats declare.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::cast_possible_truncation
)]

pub mod config;
#[cfg(feature = "d001")]
pub mod d001;
#[cfg(feature = "d002")]
pub mod d002;
#[cfg(feature = "d003")]
pub mod d003;
#[cfg(feature = "d004")]
pub mod d004;
#[cfg(feature = "h001")]
pub mod h001;
#[cfg(feature = "n001")]
pub mod n001;
#[cfg(feature = "p001")]
pub mod p001;
#[cfg(feature = "r001")]
pub mod r001;
#[cfg(feature = "waiver_missing_reason")]
pub mod waiver_missing_reason;
pub mod waiver_ok;
#[cfg(feature = "waiver_unknown_lint")]
pub mod waiver_unknown_lint;
#[cfg(feature = "waiver_unused")]
pub mod waiver_unused;
pub mod walk;
