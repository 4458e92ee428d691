//! # bench — experiment harnesses regenerating every table and figure
//!
//! Each module reproduces one artefact of the paper's evaluation and returns
//! it as a [`jitsu_sim::Figure`] or [`jitsu_sim::Table`]; the `src/bin/*`
//! binaries print them, and the Criterion benches exercise the hot paths the
//! experiments depend on. See `EXPERIMENTS.md` at the repository root for
//! the paper-vs-measured comparison.

#![warn(missing_docs)]

pub mod boot_storm;
pub mod fig3;
pub mod fig4;
pub mod fig8;
pub mod fig9a;
pub mod fig9b;
pub mod fleet;
pub mod handoff_storm;
pub mod json;
pub mod snapshot;
pub mod table1;
pub mod table2;
pub mod throughput;
pub mod xenstore_storm;
