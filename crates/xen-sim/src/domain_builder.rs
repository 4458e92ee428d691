//! The domain builder: turning a kernel image and a memory allocation into
//! a bootable domain.
//!
//! "Xen's domain builder creates the initial VM kernel image. Most of its
//! work is to initialise and zero out physical memory pages, thus guests with
//! less memory are naturally built more quickly" (§3.1). The builder here
//! allocates and scrubs pages from the [`PageAllocator`], loads the kernel at
//! the zImage offset 0x8000, constructs the Flattened Device Tree handed to
//! the guest in `r2` (§2.3), and reports the time spent in each stage so the
//! toolstack can compose Figure 4.

use crate::domain::{Domain, DomainConfig, DomainState};
use crate::fdt::FdtBuilder;
use crate::memory::{MemoryLayout, PageAllocator};
use jitsu_sim::SimDuration;
use platform::{Arch, Board};
use xenstore::DomId;

/// Why a build failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The host cannot satisfy the memory request. Jitsu surfaces this to
    /// DNS clients as `SERVFAIL` so they can fail over to another host
    /// (§3.3.2).
    OutOfMemory {
        /// MiB requested.
        requested_mib: u32,
        /// MiB available.
        available_mib: u32,
    },
    /// The domain was not in a buildable state.
    WrongState(DomainState),
}

/// Per-stage timing of one domain build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildReport {
    /// Creating the empty domain descriptor (hypercall).
    pub descriptor: SimDuration,
    /// Zeroing the assigned memory — the memory-proportional component.
    pub zeroing: SimDuration,
    /// Loading the kernel image at offset 0x8000.
    pub kernel_load: SimDuration,
    /// Building and writing the FDT.
    pub fdt_build: SimDuration,
    /// The encoded device tree handed to the guest.
    pub fdt_bytes: usize,
    /// The guest memory layout configured for the boot code.
    pub layout: MemoryLayout,
}

impl BuildReport {
    /// Total builder-path time (the part §3.1 optimisation (ii) overlaps
    /// with vif setup).
    pub fn total(&self) -> SimDuration {
        self.descriptor + self.zeroing + self.kernel_load + self.fdt_build
    }
}

/// The domain builder, bound to a board and its page allocator.
#[derive(Debug)]
pub struct DomainBuilder {
    board: Board,
    allocator: PageAllocator,
}

impl DomainBuilder {
    /// Create a builder for a board, with a page pool sized for it.
    pub fn new(board: Board) -> DomainBuilder {
        let allocator = PageAllocator::for_board(&board);
        DomainBuilder { board, allocator }
    }

    /// The board this builder targets.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// Free guest memory remaining, in MiB.
    pub fn free_mib(&self) -> u32 {
        self.allocator.free_mib()
    }

    /// Whether a request for `mib` MiB can currently be satisfied.
    pub fn can_allocate(&self, mib: u32) -> bool {
        self.allocator.free_mib() >= mib
    }

    fn descriptor_time(&self) -> SimDuration {
        self.board.scale_cpu(SimDuration::from_micros(1_000))
    }

    fn kernel_load_time(&self, kernel_bytes: usize) -> SimDuration {
        // ≈1 ms/MB on the x86 server (reading from page cache and copying
        // into the guest), scaled to the board.
        let per_mb = self.board.scale_cpu(SimDuration::from_micros(1_000));
        per_mb.mul_f64(kernel_bytes as f64 / (1024.0 * 1024.0))
    }

    fn fdt_time(&self) -> SimDuration {
        self.board.scale_cpu(SimDuration::from_micros(200))
    }

    /// Build a domain: assign and zero memory, load the kernel, write the
    /// FDT and advance the domain to [`DomainState::Built`].
    pub fn build(
        &mut self,
        domain: &mut Domain,
        config: &DomainConfig,
    ) -> Result<BuildReport, BuildError> {
        if domain.state != DomainState::Created {
            return Err(BuildError::WrongState(domain.state));
        }
        let zeroing =
            self.allocator
                .assign(domain.id, config.memory_mib)
                .ok_or(BuildError::OutOfMemory {
                    requested_mib: config.memory_mib,
                    available_mib: self.allocator.free_mib(),
                })?;

        let ram_bytes = config.memory_mib as u64 * 1024 * 1024;
        let layout = MemoryLayout::mirage_arm(ram_bytes.min(u32::MAX as u64) as u32);
        let cmdline = match config.arch {
            Arch::Arm => format!("console=hvc0 jitsu.name={}", config.name),
            Arch::X86 => format!("console=hvc0 root=/dev/xvda1 jitsu.name={}", config.name),
        };
        let fdt = FdtBuilder::standard_guest(
            layout.ram_base_ipa as u64,
            ram_bytes,
            &cmdline,
            1, // xenstore event channel (bound later)
            2, // console event channel (bound later)
        )
        .encode();

        let report = BuildReport {
            descriptor: self.descriptor_time(),
            zeroing,
            kernel_load: self.kernel_load_time(config.kernel_size_bytes),
            fdt_build: self.fdt_time(),
            fdt_bytes: fdt.len(),
            layout,
        };
        #[expect(
            clippy::expect_used,
            reason = "Created -> Built is a legal lifecycle transition by construction"
        )]
        domain
            .transition(DomainState::Built)
            .expect("Created -> Built is legal");
        Ok(report)
    }

    /// Release a destroyed domain's memory back to the pool.
    pub fn release(&mut self, dom: DomId) -> usize {
        self.allocator.release(dom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::BoardKind;

    fn builder() -> DomainBuilder {
        DomainBuilder::new(BoardKind::Cubieboard2.board())
    }

    #[test]
    fn building_a_unikernel_is_fast() {
        let mut b = builder();
        let config = DomainConfig::unikernel("www");
        let mut dom = Domain::new(DomId(5), config.clone());
        let report = b.build(&mut dom, &config).unwrap();
        assert_eq!(dom.state, DomainState::Built);
        // 16 MiB of zeroing plus small fixed costs: a few tens of ms on ARM.
        assert!(
            (25..70).contains(&report.total().as_millis()),
            "total={}",
            report.total()
        );
        assert!(report.zeroing > report.kernel_load);
        assert!(report.fdt_bytes > 0);
        assert!(report.layout.region_order_is_valid());
    }

    #[test]
    fn larger_memory_builds_slower() {
        let mut b = builder();
        let small_cfg = DomainConfig::unikernel("small");
        let mut small = Domain::new(DomId(1), small_cfg.clone());
        let small_report = b.build(&mut small, &small_cfg).unwrap();
        let big_cfg = DomainConfig::unikernel("big").with_memory_mib(256);
        let mut big = Domain::new(DomId(2), big_cfg.clone());
        let big_report = b.build(&mut big, &big_cfg).unwrap();
        assert!(big_report.total() > small_report.total() * 4);
        assert!(big_report.zeroing.as_millis() > 300);
    }

    #[test]
    fn x86_builds_about_six_times_faster() {
        let mut arm = DomainBuilder::new(BoardKind::Cubieboard2.board());
        let mut x86 = DomainBuilder::new(BoardKind::X86Server.board());
        let config = DomainConfig::unikernel("u");
        let mut d1 = Domain::new(DomId(1), config.clone());
        let mut d2 = Domain::new(DomId(1), config.clone());
        let ra = arm.build(&mut d1, &config).unwrap();
        let rx = x86.build(&mut d2, &config).unwrap();
        let ratio = ra.total().as_secs_f64() / rx.total().as_secs_f64();
        assert!((4.5..7.5).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn out_of_memory_is_reported_for_servfail() {
        let mut b = builder(); // Cubieboard2: ~832 MiB of guest RAM
        let big_cfg = DomainConfig::linux_vm("hog").with_memory_mib(700);
        let mut hog = Domain::new(DomId(1), big_cfg.clone());
        b.build(&mut hog, &big_cfg).unwrap();
        let cfg = DomainConfig::linux_vm("second").with_memory_mib(700);
        let mut second = Domain::new(DomId(2), cfg.clone());
        match b.build(&mut second, &cfg) {
            Err(BuildError::OutOfMemory {
                requested_mib,
                available_mib,
            }) => {
                assert_eq!(requested_mib, 700);
                assert!(available_mib < 700);
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
        assert_eq!(second.state, DomainState::Created);
        // Releasing the hog frees the memory again.
        assert!(b.release(DomId(1)) > 0);
        assert!(b.can_allocate(700));
    }

    #[test]
    fn rebuilding_a_built_domain_is_rejected() {
        let mut b = builder();
        let config = DomainConfig::unikernel("u");
        let mut dom = Domain::new(DomId(5), config.clone());
        b.build(&mut dom, &config).unwrap();
        assert_eq!(
            b.build(&mut dom, &config),
            Err(BuildError::WrongState(DomainState::Built))
        );
    }

    #[test]
    fn linux_kernel_takes_longer_to_load() {
        let mut b = builder();
        let ucfg = DomainConfig::unikernel("u");
        let lcfg = DomainConfig::linux_vm("l").with_memory_mib(16);
        let mut ud = Domain::new(DomId(1), ucfg.clone());
        let mut ld = Domain::new(DomId(2), lcfg.clone());
        let ur = b.build(&mut ud, &ucfg).unwrap();
        let lr = b.build(&mut ld, &lcfg).unwrap();
        assert!(lr.kernel_load > ur.kernel_load * 5);
    }
}
