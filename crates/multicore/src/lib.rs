//! # wbsn-multicore
//!
//! Cycle-stepped simulator of the ultra-low-power multi-core WBSN
//! architecture of Section IV-B (Braojos et al., DATE 2014 — reference
//! \[18\]; Figure 3 of the paper).
//!
//! Architecture modelled:
//!
//! * several in-order single-issue RISC cores ([`isa`]) with private
//!   register files;
//! * a multi-bank **instruction memory** with a broadcast interconnect
//!   that merges identical same-cycle fetch requests from different
//!   cores into a single memory access — the mechanism that makes
//!   SIMD-style execution cheap ([`sim`]);
//! * a multi-bank **data memory** with per-bank single-port arbitration
//!   (block-partitioned banks, one per core region, so well-mapped
//!   kernels never conflict);
//! * **barrier-based lock-step recovery**: after data-dependent
//!   branches de-synchronize the cores, `Bar` instructions re-align
//!   them so fetch merging resumes — the paper's "software technique
//!   based in barrier insertion to maintain cores in lock-step";
//! * a DVFS energy model (`E ∝ V²`) pricing core cycles, IM reads and
//!   DM accesses at each operating point ([`energy`]).
//!
//! The three applications of Figure 7 — 3-lead morphological filtering
//! (3L-MF), 3-lead MMD delineation (3L-MMD) and random-projection
//! classification (RP-CLASS) — are written as ISA kernels in
//! [`kernels`] and verified against host-reference Rust
//! implementations; [`power`] runs the single-core vs multi-core
//! iso-throughput comparison that regenerates the figure.

#![forbid(unsafe_code)]

pub mod energy;
pub mod isa;
pub mod kernels;
pub mod power;
pub mod program;
pub mod sim;

pub use energy::{EnergyParams, MulticoreOperatingPoint};
pub use isa::{Instr, Reg};
pub use program::{Program, ProgramBuilder};
pub use sim::{MachineConfig, Multicore, SimStats};

/// Errors from simulator configuration and program assembly.
#[derive(Debug, Clone, PartialEq)]
pub enum MulticoreError {
    /// Parameter outside its valid range.
    InvalidParameter {
        /// Parameter name.
        what: &'static str,
        /// Explanation.
        detail: String,
    },
    /// A label was referenced but never defined (or defined twice).
    BadLabel {
        /// Label name.
        label: String,
    },
    /// The simulation exceeded its cycle budget (likely livelock).
    CycleLimitExceeded {
        /// The budget that was exceeded.
        limit: u64,
    },
    /// A core accessed data memory out of range.
    MemoryFault {
        /// Core index.
        core: usize,
        /// Offending address.
        addr: i64,
    },
}

impl core::fmt::Display for MulticoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MulticoreError::InvalidParameter { what, detail } => {
                write!(f, "invalid parameter {what}: {detail}")
            }
            MulticoreError::BadLabel { label } => write!(f, "bad label: {label}"),
            MulticoreError::CycleLimitExceeded { limit } => {
                write!(f, "cycle limit exceeded: {limit}")
            }
            MulticoreError::MemoryFault { core, addr } => {
                write!(f, "memory fault on core {core} at address {addr}")
            }
        }
    }
}

impl std::error::Error for MulticoreError {}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, MulticoreError>;
