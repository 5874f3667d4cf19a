//! # wbsn-platform
//!
//! Energy and timing models of the WBSN node hardware (Section IV and
//! the Figure 6 evaluation of the DAC'14 paper).
//!
//! The paper measures its energy figures on a SmartCardia-class node:
//! an MSP430-class 16-bit microcontroller running FreeRTOS, a low-power
//! analog front-end, and an IEEE 802.15.4 radio. None of that hardware
//! can ship with a reproduction, so this crate provides **calibrated
//! component models** — every constant is taken from the public
//! datasheet class of the named component family:
//!
//! * [`radio`] — 802.15.4 framing (PHY + MAC overhead, 127-byte MPDU),
//!   250 kbps airtime, CC2420-class TX/RX power and startup energy;
//! * [`mcu`] — MSP430-class active/sleep power across DVFS operating
//!   points, cycle-energy accounting and duty cycle;
//! * [`frontend`] — instrumentation-amplifier + SAR-ADC acquisition
//!   energy per lead;
//! * [`rtos`] — FreeRTOS-like tick/context-switch overhead;
//! * [`battery`] — capacity → lifetime conversion ("mean time between
//!   charges is typically one week");
//! * [`node`] — the composed node model producing the Figure 6-style
//!   radio/sampling/computation/OS breakdowns.

#![forbid(unsafe_code)]
// The node or the gateway runs this crate: outside tests, failures are
// typed errors, not `unwrap`, `expect`, `panic!` or `unreachable!`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod battery;
pub mod frontend;
pub mod mcu;
pub mod node;
pub mod radio;
pub mod rtos;

pub use battery::Battery;
pub use frontend::FrontEndModel;
pub use mcu::{McuModel, OperatingPoint};
pub use node::{EnergyBreakdown, NodeModel, WorkloadProfile};
pub use radio::{RadioModel, TxReport};
pub use rtos::RtosModel;

/// Errors from platform-model configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// Parameter outside its valid range.
    InvalidParameter {
        /// Parameter name.
        what: &'static str,
        /// Explanation.
        detail: String,
    },
}

impl core::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlatformError::InvalidParameter { what, detail } => {
                write!(f, "invalid parameter {what}: {detail}")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, PlatformError>;
