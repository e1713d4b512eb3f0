//! The MAVR hardware platform simulation (§V-A, §VI-A, Figs. 7–8).
//!
//! A [`MavrBoard`] wires together:
//!
//! * an **application processor** (ATmega2560, simulated by [`avr_sim`])
//!   with its readout-protection fuse set, so nothing off-chip can read the
//!   randomized binary ([`app::AppProcessor`]);
//! * an **external flash chip** (M95M02-class SPI EEPROM) holding only the
//!   *unrandomized* container — binary plus prepended symbol table
//!   ([`ext_flash::ExternalFlash`]);
//! * a **master processor** (ATmega1284P role) that randomizes at boot per
//!   policy, streams the patched binary to the application processor's
//!   bootloader over the serial link, and then watches the heartbeat to
//!   detect failed attacks — on detection it resets, **re-randomizes** and
//!   reflashes ([`master::MasterProcessor`]);
//! * a **serial link** with baud-accurate timing
//!   ([`link::SerialLink`]) — at the prototype's 115200 baud the
//!   transfer dominates startup, which is how the paper's Table II numbers
//!   arise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod board;
pub mod bootloader;
pub mod chaos;
pub mod ext_flash;
pub mod link;
pub mod master;
pub mod software_only;

pub use app::AppProcessor;
pub use board::{BoardEvent, MavrBoard, RecoveryCause};
pub use chaos::{ChaosConfig, ChaosState, FaultPlan, ResilienceStats};
pub use ext_flash::ExternalFlash;
pub use link::SerialLink;
pub use master::{MasterError, MasterProcessor, StartupReport};
pub use software_only::SoftwareOnlyBoard;
