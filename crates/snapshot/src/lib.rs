//! Deterministic snapshot/replay for the MAVR reproduction.
//!
//! The paper's evaluation (§VII) repeatedly needs to answer "what exactly
//! was the machine doing at cycle N?" — when a stealthy code-reuse attack
//! fires (§V), when the master's watchdog catches a crashed application
//! processor (§VI-A), when a randomized image and a stock image stop
//! behaving identically. Because the whole stack is deterministic, those
//! questions have exact answers; this crate makes them cheap:
//!
//! * [`format`] — a versioned, CRC-guarded binary format for full machine
//!   state and fleet campaign checkpoints. Corruption is detected before
//!   a broken state is ever loaded.
//! * [`replay`] — [`Timeline`] keyframing over a run (`rewind_to` any
//!   cycle), and [`bisect_divergence`]: given a stock and a
//!   MAVR-randomized execution of the same attack, find the exact first
//!   cycle where the randomized run departs — the forensic signature of a
//!   code-reuse payload whose hard-coded addresses no longer match the
//!   shuffled layout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod replay;

pub use format::{
    crc32, decode_machine, encode_machine, Kind, Reader, SnapshotError, Writer, MAGIC, VERSION,
};
pub use replay::{bisect_divergence, Divergence, Timeline};
