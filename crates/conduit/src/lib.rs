//! # conduit — shared-memory channels with XenStore rendezvous
//!
//! §3.2 of the paper introduces *Conduit*, a Plan 9-like layer that lets
//! unikernels (and legacy VMs) discover each other by name and then exchange
//! bytes over zero-copy shared memory, without touching the network bridge:
//!
//! 1. [`vchan`] — the point-to-point transport: a pair of byte rings in
//!    grant-shared pages, signalled by event channels (compatible in spirit
//!    with the Xen `libvchan` the paper builds on);
//! 2. [`rendezvous`] — the naming layer: servers register
//!    `/conduit/<name>`, clients write a connection request into the
//!    server's create-restricted `listen` directory, and both sides learn
//!    the grant/event-channel references from `/local/domain/<domid>/vchan`;
//! 3. [`flows`] — the `/conduit/flows` metadata tree management tools read.
//!
//! The Jitsu directory service is itself discovered through a well-known
//! `jitsud` conduit node, and Synjitsu hands TCP state to booting unikernels
//! through the same store (§3.3).

#![warn(missing_docs)]
// A sim-logic crate that encodes wire formats: outside tests, no panics,
// discarded `Result`s or unchecked narrowing casts without a reasoned
// `#[expect]` (README, "Static analysis").
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::cast_possible_truncation
)]

pub mod flows;
pub mod rendezvous;
pub mod vchan;

pub use flows::{FlowState, FlowTable};
pub use rendezvous::{ConduitError, ConduitRegistry, Endpoint};
pub use vchan::{Vchan, VchanError, VchanPair};
