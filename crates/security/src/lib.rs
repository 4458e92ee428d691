//! # security — the CVE study behind Table 2
//!
//! Table 2 of the paper classifies a representative selection of 2011–2014
//! CVEs across three system layers — network-facing embedded firmware, the
//! Linux kernel, and Xen/ARM — by their properties (application-level,
//! remotely exploitable, arbitrary code execution, denial of service, data
//! exposure) and asks which would still affect a Jitsu deployment (Xen on
//! ARM with a Linux dom0 used only for network drivers). The paper's
//! argument: memory-safe protocol parsing eliminates the embedded-firmware
//! class entirely, the type-1 hypervisor removes reliance on the Linux
//! kernel for isolation so most of the middle class stops mattering, while
//! Xen/ARM's own (non-remote) bugs remain.
//!
//! This crate encodes the dataset and the classification rules so Table 2 is
//! *derived* rather than transcribed: [`classify`] decides Jitsu
//! applicability from a CVE's properties, and the test suite checks the
//! derivation against the published table.

#![warn(missing_docs)]

pub mod cve;
pub mod report;

pub use cve::{Component, Cve, CveProperties, CVE_DATASET};
pub use report::{classify, eliminated_by_jitsu, summary, JitsuImpact, LayerSummary};
