//! Execution faults — the observable failure modes of a (possibly attacked)
//! application processor.

use std::fmt;

/// Why the machine stopped abnormally.
///
/// The paper's security argument (§V-D) rests on a failed ROP attempt
/// "executing garbage bytes", which on a real part manifests as one of these
/// conditions. The MAVR master processor cannot see the fault directly — it
/// infers it from the missing heartbeat — but the simulator reports the
/// precise cause for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The PC reached a word that decodes to no AVRe+ instruction.
    InvalidOpcode {
        /// Byte address of the offending word.
        addr: u32,
        /// The undecodable word.
        word: u16,
    },
    /// The PC left the program flash.
    PcOutOfBounds {
        /// The out-of-range PC, in words.
        pc: u32,
    },
    /// A `break` instruction was executed (on real silicon this stops the
    /// CPU for the on-chip debugger; the simulator treats it as a halt).
    Break {
        /// Byte address of the `break`.
        addr: u32,
    },
    /// A stack push or pop ran outside the data space.
    StackOutOfBounds {
        /// Stack pointer value at the time of the access.
        sp: u16,
    },
    /// A load/store touched an address outside the data space.
    DataOutOfBounds {
        /// The offending data address.
        addr: u32,
    },
    /// The watchdog timer expired without a `wdr`.
    WatchdogTimeout,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::InvalidOpcode { addr, word } => {
                write!(f, "invalid opcode {word:#06x} at {addr:#x}")
            }
            Fault::PcOutOfBounds { pc } => write!(f, "PC out of flash at word {pc:#x}"),
            Fault::Break { addr } => write!(f, "break executed at {addr:#x}"),
            Fault::StackOutOfBounds { sp } => write!(f, "stack access out of bounds (SP={sp:#x})"),
            Fault::DataOutOfBounds { addr } => write!(f, "data access out of bounds ({addr:#x})"),
            Fault::WatchdogTimeout => write!(f, "watchdog timeout"),
        }
    }
}

impl std::error::Error for Fault {}

/// How a `Machine::run` call ended.
///
/// The exit conditions, checked in this order on every instruction
/// boundary:
///
/// 1. the cycle budget is exhausted → [`CyclesExhausted`];
/// 2. the PC sits on a registered breakpoint (checked *before* the
///    instruction executes, so resuming requires stepping over it) →
///    [`Breakpoint`];
/// 3. the instruction faults → [`Faulted`].
///
/// [`CyclesExhausted`]: RunExit::CyclesExhausted
/// [`Breakpoint`]: RunExit::Breakpoint
/// [`Faulted`]: RunExit::Faulted
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// The cycle budget was exhausted; the machine is still healthy.
    CyclesExhausted,
    /// The machine faulted (it stays faulted until reset).
    Faulted(Fault),
    /// A registered breakpoint was hit (PC is at the breakpoint).
    Breakpoint {
        /// Byte address of the breakpoint.
        addr: u32,
    },
}

impl RunExit {
    /// Whether the machine is still able to continue executing.
    pub fn is_healthy(&self) -> bool {
        !matches!(self, RunExit::Faulted(_))
    }

    /// The fault, if any.
    pub fn fault(&self) -> Option<Fault> {
        match self {
            RunExit::Faulted(fault) => Some(*fault),
            _ => None,
        }
    }
}
