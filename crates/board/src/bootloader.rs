//! The serial programming protocol between the master and the application
//! processor's bootloader (§VI-B4).
//!
//! "The ATmega2560 processor is commonly fitted with a boot loading
//! functionality that works over its primary asynchronous serial port …
//! invoked by briefly asserting the RESET line and sending a specific byte
//! sequence within a few milliseconds after boot. The randomized binary is
//! then incrementally transferred; the bootloader performs the work of
//! writing the data to the non-volatile program memory."
//!
//! The framing follows the STK500v2 shape (start byte, sequence number,
//! length, token, body, XOR checksum); the command set is the subset the
//! MAVR master needs: sign-on, chip erase, load-address, program-page,
//! set-lock-fuse, leave-progmode.

use crate::app::AppProcessor;

/// Frame start byte (`MESSAGE_START`).
pub const MESSAGE_START: u8 = 0x1b;
/// Frame token byte.
pub const TOKEN: u8 = 0x0e;

/// Command ids (STK500v2-inspired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Command {
    SignOn = 0x01,
    ChipErase = 0x12,
    LoadAddress = 0x06,
    ProgramPage = 0x13,
    SetLockFuse = 0x20,
    LeaveProgmode = 0x11,
}

/// Errors from the app-side decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A frame checksum failed.
    BadChecksum {
        /// Sequence number of the offending frame.
        seq: u8,
    },
    /// Unknown command byte.
    UnknownCommand(u8),
    /// A page write was attempted without a prior load-address.
    NoAddress,
    /// A page write ran past the end of flash.
    AddressOutOfRange {
        /// Offending byte address.
        addr: u32,
    },
    /// A frame arrived out of order or twice: the sequence number did not
    /// match the decoder's expectation. A dropped-then-duplicated frame
    /// must not double-program a page, so the decoder refuses rather than
    /// guessing.
    BadSequence {
        /// Sequence number the decoder expected next.
        expected: u8,
        /// Sequence number the frame carried.
        got: u8,
    },
    /// The stream ended mid-frame.
    Truncated,
}

impl ProtocolError {
    /// The sequence number of the offending frame, where the error has one.
    pub fn sequence(&self) -> Option<u8> {
        match self {
            ProtocolError::BadChecksum { seq } => Some(*seq),
            ProtocolError::BadSequence { got, .. } => Some(*got),
            _ => None,
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadChecksum { seq } => write!(f, "frame {seq}: checksum mismatch"),
            ProtocolError::UnknownCommand(c) => write!(f, "unknown command {c:#04x}"),
            ProtocolError::NoAddress => write!(f, "program-page before load-address"),
            ProtocolError::AddressOutOfRange { addr } => {
                write!(f, "page write at {addr:#x} past end of flash")
            }
            ProtocolError::BadSequence { expected, got } => {
                write!(
                    f,
                    "frame {got}: out of order (expected sequence {expected})"
                )
            }
            ProtocolError::Truncated => write!(f, "stream truncated mid-frame"),
        }
    }
}

impl std::error::Error for ProtocolError {}

fn frame(seq: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 6);
    out.push(MESSAGE_START);
    out.push(seq);
    out.push((body.len() >> 8) as u8);
    out.push((body.len() & 0xff) as u8);
    out.push(TOKEN);
    out.extend_from_slice(body);
    let checksum = out.iter().fold(0u8, |a, &b| a ^ b);
    out.push(checksum);
    out
}

/// Master side: build the complete programming byte stream for `binary`.
///
/// Pages stream in address order; the lock fuse is set after the last page,
/// then the bootloader is told to leave and run the application — the exact
/// sequence of §VI (flash, fuse, release).
pub fn programming_stream(binary: &[u8], page_size: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let mut seq = 0u8;
    let push = |body: &[u8], seq: &mut u8| {
        let f = frame(*seq, body);
        *seq = seq.wrapping_add(1);
        f
    };
    out.extend(push(&[Command::SignOn as u8], &mut seq));
    out.extend(push(&[Command::ChipErase as u8], &mut seq));
    for (i, page) in binary.chunks(page_size).enumerate() {
        let addr = (i * page_size) as u32;
        let mut body = vec![Command::LoadAddress as u8];
        body.extend_from_slice(&addr.to_be_bytes());
        out.extend(push(&body, &mut seq));
        let mut body = vec![Command::ProgramPage as u8];
        body.extend_from_slice(page);
        out.extend(push(&body, &mut seq));
    }
    out.extend(push(&[Command::SetLockFuse as u8], &mut seq));
    out.extend(push(&[Command::LeaveProgmode as u8], &mut seq));
    out
}

/// Master side: build a *repair* stream that rewrites only the given pages.
///
/// Unlike [`programming_stream`] there is no chip erase — the pages that
/// verified clean are left untouched — but the lock fuse and leave-progmode
/// tail are identical, so the part ends up locked and running. Sequence
/// numbers start at zero: each transfer is its own session to the decoder.
pub fn repair_stream(pages: &[(u32, &[u8])]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut seq = 0u8;
    let push = |body: &[u8], seq: &mut u8| {
        let f = frame(*seq, body);
        *seq = seq.wrapping_add(1);
        f
    };
    out.extend(push(&[Command::SignOn as u8], &mut seq));
    for (addr, page) in pages {
        let mut body = vec![Command::LoadAddress as u8];
        body.extend_from_slice(&addr.to_be_bytes());
        out.extend(push(&body, &mut seq));
        let mut body = vec![Command::ProgramPage as u8];
        body.extend_from_slice(page);
        out.extend(push(&body, &mut seq));
    }
    out.extend(push(&[Command::SetLockFuse as u8], &mut seq));
    out.extend(push(&[Command::LeaveProgmode as u8], &mut seq));
    out
}

/// Application side: consume a programming stream and apply it to the
/// processor. Returns the number of pages written.
pub fn apply_stream(app: &mut AppProcessor, stream: &[u8]) -> Result<usize, ProtocolError> {
    apply_stream_chaos(app, stream, &mut crate::chaos::FaultPlan::none())
}

/// [`apply_stream`] with commit-time fault injection: the given plan may
/// cut power mid-commit (a suffix of the staged pages, and the lock fuse,
/// never latch) or leave individual page writes partial. Decoding errors
/// are reported exactly as in the fault-free path; write faults are
/// *silent* — it is the master's verify-after-write readback that catches
/// them.
pub fn apply_stream_chaos(
    app: &mut AppProcessor,
    stream: &[u8],
    chaos: &mut crate::chaos::FaultPlan,
) -> Result<usize, ProtocolError> {
    let mut pos = 0usize;
    let mut address: Option<u32> = None;
    let mut pages = 0usize;
    let mut staged: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut erased = false;
    let mut lock = false;
    let mut expected_seq = 0u8;
    while pos < stream.len() {
        if stream.len() - pos < 6 {
            return Err(ProtocolError::Truncated);
        }
        if stream[pos] != MESSAGE_START {
            return Err(ProtocolError::UnknownCommand(stream[pos]));
        }
        let seq = stream[pos + 1];
        let len = ((stream[pos + 2] as usize) << 8) | stream[pos + 3] as usize;
        let end = pos + 5 + len;
        if end + 1 > stream.len() {
            return Err(ProtocolError::Truncated);
        }
        let checksum = stream[pos..end].iter().fold(0u8, |a, &b| a ^ b);
        if checksum != stream[end] {
            return Err(ProtocolError::BadChecksum { seq });
        }
        // Only after the checksum clears: a flipped sequence byte is a
        // checksum failure, not a reordering.
        if seq != expected_seq {
            return Err(ProtocolError::BadSequence {
                expected: expected_seq,
                got: seq,
            });
        }
        expected_seq = expected_seq.wrapping_add(1);
        let body = &stream[pos + 5..end];
        pos = end + 1;

        match body.first().copied() {
            Some(c) if c == Command::SignOn as u8 => {}
            Some(c) if c == Command::ChipErase as u8 => {
                erased = true;
                staged.clear();
            }
            Some(c) if c == Command::LoadAddress as u8 => {
                let mut a = [0u8; 4];
                a.copy_from_slice(&body[1..5]);
                address = Some(u32::from_be_bytes(a));
            }
            Some(c) if c == Command::ProgramPage as u8 => {
                let addr = address.ok_or(ProtocolError::NoAddress)?;
                let flash_size = app.machine.device().flash_bytes;
                if addr as usize + (body.len() - 1) > flash_size as usize {
                    return Err(ProtocolError::AddressOutOfRange { addr });
                }
                staged.push((addr, body[1..].to_vec()));
                pages += 1;
                address = None;
            }
            Some(c) if c == Command::SetLockFuse as u8 => lock = true,
            Some(c) if c == Command::LeaveProgmode as u8 => {
                // Commit: erase, write all staged pages, fuse, reset.
                if erased {
                    app.chip_erase();
                }
                let flat: Vec<(u32, Vec<u8>)> = std::mem::take(&mut staged);
                let cut = chaos.power_loss_cut(flat.len());
                for (i, (addr, data)) in flat.iter().enumerate() {
                    if cut.is_some_and(|k| i >= k) {
                        break; // supply dropped; later pages never latch
                    }
                    let keep = chaos.partial_page_len(data.len()).unwrap_or(data.len());
                    app.program_page(*addr, &data[..keep]);
                }
                if lock && cut.is_none() {
                    app.set_lock_fuse();
                }
                app.machine.reset();
                app.machine.uart0.clear();
                app.machine.heartbeat.clear();
            }
            Some(other) => return Err(ProtocolError::UnknownCommand(other)),
            None => return Err(ProtocolError::Truncated),
        }
    }
    Ok(pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synth_firmware::{apps, build, BuildOptions};

    #[test]
    fn stream_round_trip_programs_the_part() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let stream = programming_stream(&fw.image.bytes, 256);
        let mut app = AppProcessor::new();
        let pages = apply_stream(&mut app, &stream).unwrap();
        assert_eq!(pages, fw.image.bytes.len().div_ceil(256));
        assert_eq!(
            &app.machine.flash()[..fw.image.bytes.len()],
            &fw.image.bytes[..]
        );
        assert!(app.locked(), "lock fuse set by the stream");
        // And it boots.
        app.machine.run(1_000_000);
        assert!(app.machine.fault().is_none());
        assert!(app.machine.heartbeat.toggles.len() > 10);
    }

    #[test]
    fn reflash_through_bootloader_invalidates_predecode_cache() {
        // Run firmware A long enough to build and use the predecode cache,
        // then push firmware B through the full bootloader stream (chip
        // erase + pages + reset). The machine must then execute B exactly
        // like a fresh, cache-less part loaded with B — any stale cache
        // entry from A would diverge the lockstep comparison.
        let fw_a = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let fw_b = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        assert_ne!(fw_a.image.bytes, fw_b.image.bytes, "need distinct images");

        let mut app = AppProcessor::new();
        apply_stream(&mut app, &programming_stream(&fw_a.image.bytes, 256)).unwrap();
        app.machine.run(200_000);
        assert!(app.machine.fault().is_none());

        apply_stream(&mut app, &programming_stream(&fw_b.image.bytes, 256)).unwrap();

        let mut fresh = avr_sim::Machine::new_atmega2560();
        fresh.set_predecode(false);
        fresh.load_flash(0, &fw_b.image.bytes);
        let cycles0 = app.machine.cycles(); // survives reset; compare deltas
        for step in 0..50_000u32 {
            app.machine.run(1);
            fresh.run(1);
            assert_eq!(
                (
                    app.machine.pc(),
                    app.machine.sreg(),
                    app.machine.sp(),
                    app.machine.cycles() - cycles0,
                    app.machine.fault(),
                ),
                (
                    fresh.pc(),
                    fresh.sreg(),
                    fresh.sp(),
                    fresh.cycles(),
                    fresh.fault(),
                ),
                "diverged at step {step}"
            );
            if fresh.fault().is_some() {
                break;
            }
        }
    }

    #[test]
    fn reflash_through_bootloader_invalidates_block_cache() {
        // Same shape as the predecode test above, but with the block-fused
        // engine on the bootloader side: firmware A runs long enough to
        // discover and compile fused blocks, then firmware B arrives via
        // chip erase + page stream + reset. Every fused block from A must
        // be gone — the part then has to match a cache-less reference
        // executing B, single-stepped so any stale fusion shows up at the
        // exact cycle it fires.
        let fw_a = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let fw_b = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        assert_ne!(fw_a.image.bytes, fw_b.image.bytes, "need distinct images");

        let mut app = AppProcessor::new();
        apply_stream(&mut app, &programming_stream(&fw_a.image.bytes, 256)).unwrap();
        app.machine.run(200_000);
        assert!(app.machine.fault().is_none());
        let pre_reflash = app.machine.block_stats();
        assert!(pre_reflash.hits > 0, "firmware A should run fused");

        apply_stream(&mut app, &programming_stream(&fw_b.image.bytes, 256)).unwrap();
        assert!(
            app.machine.block_stats().invalidations > pre_reflash.invalidations,
            "chip erase must invalidate firmware A's fused blocks"
        );

        let mut fresh = avr_sim::Machine::new_atmega2560();
        fresh.set_predecode(false);
        fresh.load_flash(0, &fw_b.image.bytes);
        let cycles0 = app.machine.cycles(); // survives reset; compare deltas
        for step in 0..50_000u32 {
            app.machine.run(1);
            fresh.run(1);
            assert_eq!(
                (
                    app.machine.pc(),
                    app.machine.sreg(),
                    app.machine.sp(),
                    app.machine.cycles() - cycles0,
                    app.machine.fault(),
                ),
                (
                    fresh.pc(),
                    fresh.sreg(),
                    fresh.sp(),
                    fresh.cycles(),
                    fresh.fault(),
                ),
                "diverged at step {step}"
            );
            if fresh.fault().is_some() {
                break;
            }
        }
    }

    #[test]
    fn framing_overhead_is_small() {
        let binary = vec![0u8; 64 * 1024];
        let stream = programming_stream(&binary, 256);
        let overhead = stream.len() as f64 / binary.len() as f64;
        assert!(
            overhead < 1.08,
            "framing overhead {overhead:.3} should stay under 8%"
        );
    }

    #[test]
    fn corrupt_frame_rejected() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut stream = programming_stream(&fw.image.bytes, 256);
        let n = stream.len();
        stream[n / 2] ^= 0xff;
        let mut app = AppProcessor::new();
        let err = apply_stream(&mut app, &stream).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::BadChecksum { .. }
                | ProtocolError::UnknownCommand(_)
                | ProtocolError::Truncated
                | ProtocolError::AddressOutOfRange { .. }
                | ProtocolError::BadSequence { .. }
        ));
    }

    #[test]
    fn duplicated_frame_rejected_not_double_programmed() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let stream = programming_stream(&fw.image.bytes, 256);
        // Replay the second frame (chip erase) immediately after itself.
        let first = 6 + 1; // sign-on frame: 5-byte header + 1-byte body + checksum
        let second_end = first + 6 + 1;
        let mut dup = Vec::new();
        dup.extend_from_slice(&stream[..second_end]);
        dup.extend_from_slice(&stream[first..second_end]);
        dup.extend_from_slice(&stream[second_end..]);
        let mut app = AppProcessor::new();
        assert_eq!(
            apply_stream(&mut app, &dup).unwrap_err(),
            ProtocolError::BadSequence {
                expected: 2,
                got: 1
            }
        );
        assert!(!app.locked(), "rejected stream must not release the part");
    }

    #[test]
    fn dropped_frame_rejected_by_sequence_check() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let stream = programming_stream(&fw.image.bytes, 256);
        let first = 6 + 1;
        let mut short = Vec::new();
        short.extend_from_slice(&stream[..first]);
        short.extend_from_slice(&stream[first + 6 + 1..]); // skip chip erase
        let mut app = AppProcessor::new();
        assert_eq!(
            apply_stream(&mut app, &short).unwrap_err(),
            ProtocolError::BadSequence {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn repair_stream_rewrites_only_named_pages_and_locks() {
        let mut app = AppProcessor::new();
        apply_stream(&mut app, &programming_stream(&[0x11u8; 1024], 256)).unwrap();
        let fixed = [0x22u8; 256];
        let stream = repair_stream(&[(256, &fixed[..])]);
        apply_stream(&mut app, &stream).unwrap();
        assert_eq!(&app.machine.flash()[..256], &[0x11u8; 256][..]);
        assert_eq!(&app.machine.flash()[256..512], &fixed[..]);
        assert_eq!(&app.machine.flash()[512..1024], &[0x11u8; 512][..]);
        assert!(app.locked());
    }

    #[test]
    fn page_write_requires_address() {
        let body = [Command::ProgramPage as u8, 1, 2, 3];
        let stream = frame(0, &body);
        let mut app = AppProcessor::new();
        assert_eq!(
            apply_stream(&mut app, &stream).unwrap_err(),
            ProtocolError::NoAddress
        );
    }

    #[test]
    fn oversized_binary_rejected_by_decoder() {
        let too_big = vec![0u8; 257 * 1024];
        let stream = programming_stream(&too_big, 256);
        let mut app = AppProcessor::new();
        assert!(matches!(
            apply_stream(&mut app, &stream).unwrap_err(),
            ProtocolError::AddressOutOfRange { .. }
        ));
    }

    #[test]
    fn truncated_stream_detected() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let stream = programming_stream(&fw.image.bytes, 256);
        let mut app = AppProcessor::new();
        assert_eq!(
            apply_stream(&mut app, &stream[..stream.len() - 3]).unwrap_err(),
            ProtocolError::Truncated
        );
    }
}
