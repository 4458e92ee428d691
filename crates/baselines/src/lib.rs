//! # baselines — the systems Jitsu is compared against
//!
//! §4 compares on-demand unikernel launch against two alternatives on the
//! same hardware: Docker containers started from `inetd` (Figure 9b) and
//! full Linux VMs (whose >5 s boot is not even plotted). This crate models
//! both baselines:
//!
//! * [`docker`] — the container start pipeline (image metadata, layer
//!   mounts, union filesystem setup, namespace/cgroup creation, process
//!   exec), dominated by metadata-heavy I/O on the backing store, plus the
//!   occasional ext4/VFS failure observed for the devicemapper-on-tmpfs
//!   workaround;
//! * [`inetd`] — the trigger path shared by the baselines: a listening
//!   super-server that forks a handler per incoming connection;
//! * [`linux_vm`] — cold-starting a service inside a freshly booted Linux
//!   guest.

#![warn(missing_docs)]

pub mod docker;
pub mod inetd;
pub mod linux_vm;

pub use docker::{ContainerRuntime, ContainerStart, DockerConfig};
pub use inetd::Inetd;
pub use linux_vm::LinuxVmBaseline;
