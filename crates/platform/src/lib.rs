//! # platform — hardware platform models
//!
//! The paper evaluates Jitsu on two inexpensive ARM boards (Cubieboard2 and
//! Cubietruck), compares against a 2.4 GHz quad-core AMD x86-64 server for
//! boot-time experiments, and against an Intel Haswell NUC for power. This
//! crate models those platforms so the rest of the reproduction can be
//! parameterised by board: CPU speed scale factors, memory, NIC speed,
//! storage devices (SD card, SSD, tmpfs, on-board MMC), the component power
//! model behind Table 1 and the battery-runtime observation of §4.
//!
//! The numbers here are calibration constants taken from the paper itself
//! (e.g. ARM ≈ 6× slower than the x86 server for domain construction,
//! 10 MB/s SD card, Table 1's wattages); they are data, not measurements of
//! the host this code runs on.

#![warn(missing_docs)]

pub mod battery;
pub mod board;
pub mod power;
pub mod storage;

pub use battery::Battery;
pub use board::{Arch, Board, BoardKind};
pub use power::{PowerComponent, PowerModel, PowerState};
pub use storage::{StorageDevice, StorageKind};
