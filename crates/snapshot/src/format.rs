//! The versioned, CRC-guarded snapshot wire format.
//!
//! Every snapshot is one self-describing blob:
//!
//! ```text
//! +--------+---------+------+-------------+-----------+-------+
//! | magic  | version | kind | payload_len |  payload  | crc32 |
//! | 8 B    | u16     | u8   | u64         | ...       | u32   |
//! +--------+---------+------+-------------+-----------+-------+
//! ```
//!
//! All integers are little-endian. The CRC (IEEE 802.3 polynomial) covers
//! the payload only, so a flipped bit anywhere in the state is caught
//! before a corrupted machine is ever resurrected. The [`Kind`] byte keeps
//! one decoder from swallowing another's payload: a campaign checkpoint
//! handed to [`decode_machine`] fails loudly instead of misparsing.
//!
//! Payloads are built with [`Writer`] and parsed with [`Reader`] — a
//! bounds-checked cursor that never panics on truncated or malformed
//! input; every structural problem surfaces as a [`SnapshotError`].

use avr_sim::{
    AdcState, EepromState, Fault, HeartbeatState, MachineState, Pwm, Timer0State, UartState,
    WatchdogState,
};
use mavr_board::BoardState;

/// Leading magic of every snapshot blob.
pub const MAGIC: &[u8; 8] = b"MAVRSNAP";

/// Current format version. Bump on any payload layout change: readers
/// accept exactly this version, so a blob from an older layout is
/// refused at the header instead of being misparsed.
pub const VERSION: u16 = 4;

/// What a snapshot blob contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A complete [`MachineState`].
    MachineFull,
    /// A complete [`BoardState`].
    Board,
    /// A [`mavr_world::WorldState`]: the physical arena around a board.
    World,
    /// A fleet campaign checkpoint: a contiguous job range and its
    /// completed outcomes (payload owned by the `fleet` crate).
    ShardCheckpoint,
}

impl Kind {
    fn to_u8(self) -> u8 {
        match self {
            Kind::MachineFull => 1,
            // Tags 2 (the retired machine delta) and 4 (the retired
            // whole-campaign checkpoint) stay reserved, so a stale blob
            // decodes as `BadKind(2)` or `BadKind(4)`.
            Kind::Board => 3,
            Kind::World => 5,
            Kind::ShardCheckpoint => 6,
        }
    }

    fn from_u8(v: u8) -> Option<Kind> {
        match v {
            1 => Some(Kind::MachineFull),
            3 => Some(Kind::Board),
            5 => Some(Kind::World),
            6 => Some(Kind::ShardCheckpoint),
            _ => None,
        }
    }
}

/// Why a snapshot blob could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the structure requires.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The blob does not start with [`MAGIC`].
    BadMagic,
    /// The blob's version is not this decoder's [`VERSION`].
    UnsupportedVersion(u16),
    /// Unknown [`Kind`] byte.
    BadKind(u8),
    /// The blob is a valid snapshot of the wrong kind.
    WrongKind {
        /// Kind the caller expected.
        expected: Kind,
        /// Kind the blob declares.
        found: Kind,
    },
    /// Payload checksum mismatch — the state is corrupt, refuse to load it.
    CrcMismatch {
        /// CRC stored in the blob.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// Structurally invalid payload (bad enum tag, page out of range, …).
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { needed, have } => {
                write!(f, "truncated snapshot: needed {needed} bytes, have {have}")
            }
            SnapshotError::BadMagic => write!(f, "not a MAVR snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (decoder is v{VERSION})"
                )
            }
            SnapshotError::BadKind(k) => write!(f, "unknown snapshot kind {k}"),
            SnapshotError::WrongKind { expected, found } => {
                write!(
                    f,
                    "wrong snapshot kind: expected {expected:?}, found {found:?}"
                )
            }
            SnapshotError::CrcMismatch { stored, computed } => write!(
                f,
                "snapshot CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// IEEE CRC-32 (the `cksum -o3`/zlib polynomial) guarding every frame:
/// the workspace's one slice-by-8 implementation, shared with the external
/// flash's container footer.
pub use mavr_board::ext_flash::crc32;

// ---- payload writer / reader ----

/// Little-endian payload builder; [`Writer::finish`] wraps the payload in
/// the header + CRC framing.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty payload.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Wrap the payload into a complete snapshot blob of the given kind.
    pub fn finish(self, kind: Kind) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buf.len() + 23);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(kind.to_u8());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        let crc = crc32(&self.buf);
        out.extend_from_slice(&self.buf);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }
}

/// Bounds-checked little-endian payload cursor.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Validate the framing of `blob` — magic, version, kind byte, payload
    /// length, CRC — and return its kind plus a cursor over the payload.
    pub fn open(blob: &'a [u8]) -> Result<(Kind, Reader<'a>), SnapshotError> {
        if blob.len() < MAGIC.len() {
            return Err(SnapshotError::Truncated {
                needed: MAGIC.len(),
                have: blob.len(),
            });
        }
        if &blob[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let header = MAGIC.len() + 2 + 1 + 8;
        if blob.len() < header {
            return Err(SnapshotError::Truncated {
                needed: header,
                have: blob.len(),
            });
        }
        let version = u16::from_le_bytes([blob[8], blob[9]]);
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let kind = Kind::from_u8(blob[10]).ok_or(SnapshotError::BadKind(blob[10]))?;
        let len = u64::from_le_bytes(blob[11..19].try_into().expect("8 bytes"));
        // A hostile length must not overflow the bounds arithmetic: any
        // length that does is longer than every blob that can exist.
        let total = usize::try_from(len)
            .ok()
            .and_then(|len| len.checked_add(header + 4))
            .unwrap_or(usize::MAX);
        if blob.len() < total {
            return Err(SnapshotError::Truncated {
                needed: total,
                have: blob.len(),
            });
        }
        let (payload, crc) = blob[header..total].split_at(total - header - 4);
        let stored = u32::from_le_bytes(crc.try_into().expect("4 bytes"));
        let computed = crc32(payload);
        if stored != computed {
            return Err(SnapshotError::CrcMismatch { stored, computed });
        }
        Ok((
            kind,
            Reader {
                buf: payload,
                pos: 0,
            },
        ))
    }

    /// Like [`Reader::open`], additionally requiring the blob's kind.
    pub fn open_expecting(blob: &'a [u8], expected: Kind) -> Result<Reader<'a>, SnapshotError> {
        let (kind, r) = Reader::open(blob)?;
        if kind != expected {
            return Err(SnapshotError::WrongKind {
                expected,
                found: kind,
            });
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(SnapshotError::Truncated { needed: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a bool byte, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SnapshotError::Malformed(format!("bool byte {v}"))),
        }
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let len = self.u64()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Assert the payload is fully consumed (trailing garbage is an error:
    /// it means the decoder and encoder disagree about the layout).
    pub fn done(&self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---- fault encoding ----

fn put_fault(w: &mut Writer, f: Option<Fault>) {
    match f {
        None => w.put_u8(0),
        Some(Fault::InvalidOpcode { addr, word }) => {
            w.put_u8(1);
            w.put_u32(addr);
            w.put_u16(word);
        }
        Some(Fault::PcOutOfBounds { pc }) => {
            w.put_u8(2);
            w.put_u32(pc);
        }
        Some(Fault::Break { addr }) => {
            w.put_u8(3);
            w.put_u32(addr);
        }
        Some(Fault::StackOutOfBounds { sp }) => {
            w.put_u8(4);
            w.put_u16(sp);
        }
        Some(Fault::DataOutOfBounds { addr }) => {
            w.put_u8(5);
            w.put_u32(addr);
        }
        Some(Fault::WatchdogTimeout) => w.put_u8(6),
    }
}

fn get_fault(r: &mut Reader<'_>) -> Result<Option<Fault>, SnapshotError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(Fault::InvalidOpcode {
            addr: r.u32()?,
            word: r.u16()?,
        }),
        2 => Some(Fault::PcOutOfBounds { pc: r.u32()? }),
        3 => Some(Fault::Break { addr: r.u32()? }),
        4 => Some(Fault::StackOutOfBounds { sp: r.u16()? }),
        5 => Some(Fault::DataOutOfBounds { addr: r.u32()? }),
        6 => Some(Fault::WatchdogTimeout),
        t => return Err(SnapshotError::Malformed(format!("fault tag {t}"))),
    })
}

// ---- machine state ----

fn put_eeprom(w: &mut Writer, e: &EepromState) {
    w.put_bytes(&e.bytes);
    w.put_u16(e.addr);
    w.put_u8(e.data);
    w.put_bool(e.master_enable);
    w.put_u64(e.writes);
}

fn get_eeprom(r: &mut Reader<'_>) -> Result<EepromState, SnapshotError> {
    Ok(EepromState {
        bytes: r.bytes()?,
        addr: r.u16()?,
        data: r.u8()?,
        master_enable: r.bool()?,
        writes: r.u64()?,
    })
}

/// A machine state on the wire: the CPU core and every peripheral first,
/// then the flash, data-space and EEPROM arrays.
fn put_machine_state(w: &mut Writer, s: &MachineState) {
    w.put_u32(s.pc);
    w.put_u64(s.cycles);
    put_fault(w, s.fault);
    w.put_bool(s.irq_delay);
    w.put_u64(s.insns_retired);
    w.put_u64(s.interrupts_taken);
    // UART.
    w.put_bytes(&s.uart0.rx);
    w.put_bytes(&s.uart0.tx);
    w.put_u64(s.uart0.rx_bytes);
    w.put_u64(s.uart0.tx_bytes);
    // Heartbeat.
    w.put_u64(s.heartbeat.toggles.len() as u64);
    for &t in &s.heartbeat.toggles {
        w.put_u64(t);
    }
    w.put_bool(s.heartbeat.last_level);
    // Watchdog.
    w.put_bool(s.watchdog.timeout.is_some());
    w.put_u64(s.watchdog.timeout.unwrap_or(0));
    w.put_u64(s.watchdog.last_reset);
    // Timer0.
    w.put_u8(s.timer0.tcnt);
    w.put_u8(s.timer0.tccr_b);
    w.put_u8(s.timer0.timsk);
    w.put_u8(s.timer0.tifr);
    w.put_u64(s.timer0.residual);
    // ADC.
    w.put_u8(s.adc.admux);
    w.put_u8(s.adc.control);
    w.put_u8(s.adc.adcsrb);
    w.put_u16(s.adc.data);
    w.put_bool(s.adc.converting.is_some());
    w.put_u64(s.adc.converting.unwrap_or(0));
    w.put_bool(s.adc.adif);
    w.put_bool(s.adc.first);
    for ch in s.adc.channels {
        w.put_u16(ch);
    }
    // PWM compare latches and the PORTB output latch.
    w.put_u8(s.pwm.ocr0a);
    w.put_u8(s.pwm.ocr0b);
    w.put_u8(s.portb);
    // The memories.
    w.put_bytes(&s.flash);
    w.put_bytes(&s.data);
    put_eeprom(w, &s.eeprom);
}

/// Inverse of [`put_machine_state`]. Struct fields are evaluated in the
/// order written, so every literal below reads in wire order.
fn get_machine_state(r: &mut Reader<'_>) -> Result<MachineState, SnapshotError> {
    let pc = r.u32()?;
    let cycles = r.u64()?;
    let fault = get_fault(r)?;
    let irq_delay = r.bool()?;
    let insns_retired = r.u64()?;
    let interrupts_taken = r.u64()?;
    let uart0 = UartState {
        rx: r.bytes()?,
        tx: r.bytes()?,
        rx_bytes: r.u64()?,
        tx_bytes: r.u64()?,
    };
    let n = r.u64()? as usize;
    let mut toggles = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        toggles.push(r.u64()?);
    }
    let heartbeat = HeartbeatState {
        toggles,
        last_level: r.bool()?,
    };
    let enabled = r.bool()?;
    let timeout = r.u64()?;
    let watchdog = WatchdogState {
        timeout: enabled.then_some(timeout),
        last_reset: r.u64()?,
    };
    let timer0 = Timer0State {
        tcnt: r.u8()?,
        tccr_b: r.u8()?,
        timsk: r.u8()?,
        tifr: r.u8()?,
        residual: r.u64()?,
    };
    let admux = r.u8()?;
    let control = r.u8()?;
    let adcsrb = r.u8()?;
    let data = r.u16()?;
    let in_flight = r.bool()?;
    let left = r.u64()?;
    let adif = r.bool()?;
    let first = r.bool()?;
    let mut channels = [0u16; avr_sim::adc::ADC_CHANNELS];
    for ch in &mut channels {
        *ch = r.u16()?;
    }
    let adc = AdcState {
        admux,
        control,
        adcsrb,
        data,
        converting: in_flight.then_some(left),
        adif,
        first,
        channels,
    };
    let pwm = Pwm {
        ocr0a: r.u8()?,
        ocr0b: r.u8()?,
    };
    Ok(MachineState {
        portb: r.u8()?,
        flash: r.bytes()?,
        data: r.bytes()?,
        eeprom: get_eeprom(r)?,
        pc,
        cycles,
        fault,
        irq_delay,
        uart0,
        heartbeat,
        watchdog,
        timer0,
        adc,
        pwm,
        insns_retired,
        interrupts_taken,
    })
}

// ---- public encoders / decoders ----

/// Encode a complete machine state as one snapshot blob.
pub fn encode_machine(s: &MachineState) -> Vec<u8> {
    let mut w = Writer::new();
    put_machine_state(&mut w, s);
    w.finish(Kind::MachineFull)
}

/// Decode a [`Kind::MachineFull`] blob.
pub fn decode_machine(blob: &[u8]) -> Result<MachineState, SnapshotError> {
    let mut r = Reader::open_expecting(blob, Kind::MachineFull)?;
    let s = get_machine_state(&mut r)?;
    r.done()?;
    Ok(s)
}

/// Encode a complete board state as one snapshot blob.
pub fn encode_board(s: &BoardState) -> Vec<u8> {
    let mut w = Writer::new();
    put_machine_state(&mut w, &s.app);
    w.put_bool(s.app_locked);
    for word in s.master_rng {
        w.put_u64(word);
    }
    w.put_u32(s.boot_count);
    w.put_u32(s.wear_cycles);
    w.put_u64(s.watch_since);
    w.put_u64(s.heartbeat_timeout);
    for word in s.chaos.rng {
        w.put_u64(word);
    }
    w.put_u64(s.chaos.injected);
    w.put_u64(s.reflash_retries);
    w.put_u64(s.degraded_boots);
    w.finish(Kind::Board)
}

/// Decode a [`Kind::Board`] blob.
pub fn decode_board(blob: &[u8]) -> Result<BoardState, SnapshotError> {
    let mut r = Reader::open_expecting(blob, Kind::Board)?;
    let app = get_machine_state(&mut r)?;
    let app_locked = r.bool()?;
    let mut master_rng = [0u64; 4];
    for word in &mut master_rng {
        *word = r.u64()?;
    }
    let boot_count = r.u32()?;
    let wear_cycles = r.u32()?;
    let watch_since = r.u64()?;
    let heartbeat_timeout = r.u64()?;
    let mut chaos_rng = [0u64; 4];
    for word in &mut chaos_rng {
        *word = r.u64()?;
    }
    let s = BoardState {
        app,
        app_locked,
        master_rng,
        boot_count,
        wear_cycles,
        watch_since,
        heartbeat_timeout,
        chaos: mavr_board::ChaosState {
            rng: chaos_rng,
            injected: r.u64()?,
        },
        reflash_retries: r.u64()?,
        degraded_boots: r.u64()?,
    };
    r.done()?;
    Ok(s)
}

/// Encode a physical-world state ([`mavr_world::WorldState`]) as one
/// snapshot blob. Floats are stored as their exact IEEE-754 bit
/// patterns, so a decoded world resumes bit-identically.
pub fn encode_world(s: &mavr_world::WorldState) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(s.scenario);
    for v in s.pos.iter().chain(&s.vel).chain(&s.att).chain(&s.omega) {
        w.put_u64(v.to_bits());
    }
    for word in s.rng {
        w.put_u64(word);
    }
    w.put_u64(s.steps);
    w.put_u64(s.peak_alt_err.to_bits());
    w.put_u32(s.ground_impacts);
    w.put_bool(s.grounded);
    w.finish(Kind::World)
}

/// Decode a [`Kind::World`] blob.
pub fn decode_world(blob: &[u8]) -> Result<mavr_world::WorldState, SnapshotError> {
    let mut r = Reader::open_expecting(blob, Kind::World)?;
    let scenario = r.u8()?;
    let f = |r: &mut Reader| -> Result<f64, SnapshotError> { Ok(f64::from_bits(r.u64()?)) };
    let pos = [f(&mut r)?, f(&mut r)?, f(&mut r)?];
    let vel = [f(&mut r)?, f(&mut r)?, f(&mut r)?];
    let att = [f(&mut r)?, f(&mut r)?, f(&mut r)?, f(&mut r)?];
    let omega = [f(&mut r)?, f(&mut r)?, f(&mut r)?];
    let mut rng = [0u64; 4];
    for word in &mut rng {
        *word = r.u64()?;
    }
    let s = mavr_world::WorldState {
        scenario,
        pos,
        vel,
        att,
        omega,
        rng,
        steps: r.u64()?,
        peak_alt_err: f64::from_bits(r.u64()?),
        ground_impacts: r.u32()?,
        grounded: r.bool()?,
    };
    r.done()?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_core::encode::encode_to_bytes;
    use avr_core::{Insn, Reg};
    use avr_sim::Machine;

    fn busy_machine() -> Machine {
        let mut m = Machine::new_atmega2560();
        // ldi r24,1 ; sts 0x0400 ; inc ; rjmp -3 — touches SRAM forever.
        m.load_flash(
            0,
            &encode_to_bytes(&[
                Insn::Ldi { d: Reg::R24, k: 1 },
                Insn::Sts {
                    k: 0x0400,
                    r: Reg::R24,
                },
                Insn::Inc { d: Reg::R24 },
                Insn::Rjmp { k: -4 },
            ])
            .unwrap(),
        );
        m.uart0.inject(&[1, 2, 3]);
        m.watchdog.enable(1_000_000, 0);
        m.run(5_000);
        m
    }

    #[test]
    fn machine_round_trip_is_exact() {
        let m = busy_machine();
        let state = m.capture_state();
        let blob = encode_machine(&state);
        assert_eq!(decode_machine(&blob).unwrap(), state);
    }

    #[test]
    fn board_round_trip_is_exact() {
        use mavr::policy::RandomizationPolicy;
        use synth_firmware::{apps, build, BuildOptions};
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut board =
            mavr_board::MavrBoard::provision(&fw.image, 7, RandomizationPolicy::default()).unwrap();
        board.run(500_000).unwrap();
        let state = board.capture_state();
        let blob = encode_board(&state);
        assert_eq!(decode_board(&blob).unwrap(), state);
    }

    #[test]
    fn corruption_is_detected() {
        let m = busy_machine();
        let mut blob = encode_machine(&m.capture_state());
        let mid = blob.len() / 2;
        blob[mid] ^= 0x40;
        assert!(matches!(
            decode_machine(&blob),
            Err(SnapshotError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn framing_errors_are_loud() {
        let m = busy_machine();
        let blob = encode_machine(&m.capture_state());
        // Truncation at every interesting boundary.
        for cut in [0, 4, 10, 18, blob.len() - 1] {
            assert!(matches!(
                decode_machine(&blob[..cut]),
                Err(SnapshotError::Truncated { .. })
            ));
        }
        // Bad magic.
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert_eq!(decode_machine(&bad), Err(SnapshotError::BadMagic));
        // Future version.
        let mut bad = blob.clone();
        bad[8] = 0xff;
        assert!(matches!(
            decode_machine(&bad),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        // Unknown kind byte, and the retired delta and checkpoint tags.
        for tag in [9, 2, 4] {
            let mut bad = blob.clone();
            bad[10] = tag;
            assert_eq!(decode_machine(&bad), Err(SnapshotError::BadKind(tag)));
        }
        // Wrong (but valid) kind.
        let board_kind = Writer::new().finish(Kind::Board);
        assert!(matches!(
            decode_machine(&board_kind),
            Err(SnapshotError::WrongKind { .. })
        ));
        // A declared payload length near `u64::MAX` is a truncation, not
        // an overflow in the bounds arithmetic.
        let mut huge = blob[..19].to_vec();
        huge[11..19].copy_from_slice(&(u64::MAX - 15).to_le_bytes());
        huge.extend_from_slice(&[0; 8]);
        assert!(matches!(
            decode_machine(&huge),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn older_versions_are_refused() {
        // The CRC covers the payload only, so restamping the header keeps
        // the frame otherwise valid: only the version check can refuse it.
        let mut blob = encode_machine(&busy_machine().capture_state());
        blob[8..10].copy_from_slice(&3u16.to_le_bytes());
        assert_eq!(
            decode_machine(&blob),
            Err(SnapshotError::UnsupportedVersion(3))
        );
    }

    #[test]
    fn restore_from_decoded_blob_runs_identically() {
        let mut a = busy_machine();
        let blob = encode_machine(&a.capture_state());
        let mut b = Machine::new_atmega2560();
        b.restore_state(&decode_machine(&blob).unwrap());
        a.run(50_000);
        b.run(50_000);
        assert_eq!(a.capture_state(), b.capture_state());
    }

    #[test]
    fn world_state_round_trips_and_resumes_bit_identically() {
        use mavr_world::{Scenario, World};
        let mut w = World::new(Scenario::Turbulent, 0x5eed);
        for i in 0..300u32 {
            let _ = w.sample();
            w.step(0.55, if i % 5 == 0 { 0.02 } else { 0.0 });
        }
        let state = w.state();
        let blob = encode_world(&state);
        assert_eq!(decode_world(&blob).unwrap(), state);

        // A world restored from the decoded blob continues exactly in
        // step with one restored from the live state.
        let mut a = World::restore(&state).unwrap();
        let mut b = World::restore(&decode_world(&blob).unwrap()).unwrap();
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
            a.step(0.5, 0.0);
            b.step(0.5, 0.0);
        }
        assert_eq!(a.state(), b.state());

        // Kind mismatches are rejected before any payload is read.
        assert!(matches!(
            decode_board(&blob),
            Err(SnapshotError::WrongKind { .. })
        ));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
