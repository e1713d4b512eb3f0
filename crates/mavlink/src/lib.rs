//! A MAVLink-style protocol implementation (the paper's Fig. 2).
//!
//! MAVLink is the byte-stream protocol between a small UAV and its ground
//! station (§II-C). A packet is a 6-byte header (magic, payload length,
//! sequence number, sender system id, sender component id, message id), a
//! payload of up to 255 bytes, and a 2-byte X25 checksum. The paper notes a
//! minimum payload of 9 bytes (a HEARTBEAT) for a minimum packet length of
//! 17 bytes.
//!
//! The crate provides:
//!
//! * [`Packet`] encode/decode and the byte-at-a-time [`Parser`] state
//!   machine (the same structure the synthetic firmware implements in AVR
//!   instructions),
//! * typed message codecs in [`msg`] (HEARTBEAT, ATTITUDE, PARAM_SET, …),
//! * a [`GroundStation`] session model, including the *malicious* ground
//!   station of the paper's threat model, which emits oversized packets
//!   that a length-check-disabled receiver will copy past its buffer,
//! * a deterministic [`LossyChannel`] link model (per-byte drop / corrupt
//!   / duplicate / delay from a seeded RNG) — the substrate of fleet
//!   campaigns, which sum their per-link sessions into [`RouterTotals`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod ground_station;
pub mod msg;
mod packet;

pub use channel::{ChannelStats, LossConfig, LossyChannel};
pub use ground_station::{GroundStation, RouterTotals};
pub use packet::{crc_x25, Packet, Parser, MAGIC, MAX_PAYLOAD, MIN_PAYLOAD};

/// Errors from decoding packets or payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Payload longer than the 255-byte maximum.
    PayloadTooLong {
        /// Actual length.
        len: usize,
    },
    /// Checksum mismatch on a received packet.
    BadChecksum {
        /// Checksum computed over the received bytes.
        computed: u16,
        /// Checksum carried by the packet.
        received: u16,
    },
    /// A typed message decoder was handed the wrong message id.
    WrongMessageId {
        /// Expected id.
        expected: u8,
        /// Actual id.
        actual: u8,
    },
    /// A typed message decoder was handed a payload of the wrong size.
    BadPayloadLength {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::PayloadTooLong { len } => write!(f, "payload too long: {len} bytes"),
            ProtocolError::BadChecksum { computed, received } => write!(
                f,
                "checksum mismatch: computed {computed:#06x}, received {received:#06x}"
            ),
            ProtocolError::WrongMessageId { expected, actual } => {
                write!(f, "wrong message id: expected {expected}, got {actual}")
            }
            ProtocolError::BadPayloadLength { expected, actual } => {
                write!(f, "bad payload length: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}
