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

use avr_sim::adc::ADC_CHANNELS;
use avr_sim::{Adc, Eeprom, Fault, Heartbeat, MachineState, PortB, Pwm, Timer0, Uart, Watchdog};

/// Leading magic of every snapshot blob.
pub const MAGIC: &[u8; 8] = b"MAVRSNAP";

/// Version of the framing and the machine payload: readers accept exactly
/// this one, so an older layout is refused at the header, not misparsed.
/// A kind whose payload layout changes takes a new [`Kind`] tag instead
/// and retires the old one, so the other kinds' blobs stay readable.
pub const VERSION: u16 = 4;

/// What a snapshot blob contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A complete [`MachineState`].
    MachineFull,
    /// A fleet campaign checkpoint: a contiguous job range and its
    /// completed outcomes in job order (payload owned by the `fleet` crate).
    ShardCheckpoint,
}

impl Kind {
    fn to_u8(self) -> u8 {
        match self {
            Kind::MachineFull => 1,
            // Tags 2 (the retired machine delta), 3 (board), 4 (the
            // retired whole-campaign checkpoint), 5 (world) and 6 (the
            // shard checkpoint that stored each outcome's job index) stay
            // reserved, so a stale blob decodes as `BadKind(tag)`.
            Kind::ShardCheckpoint => 7,
        }
    }

    fn from_u8(v: u8) -> Option<Kind> {
        match v {
            1 => Some(Kind::MachineFull),
            7 => Some(Kind::ShardCheckpoint),
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

/// An optional value as the wire carries it: a presence flag, then the
/// value either way, with `absent` written in place of a missing one. A
/// missing value written as anything else is refused, so every payload
/// that decodes re-encodes to the same bytes. Call it as
/// `optional(r.bool()?, r.u64()?, 0)`: arguments are read left to right.
pub fn optional<T: PartialEq>(
    present: bool,
    value: T,
    absent: T,
) -> Result<Option<T>, SnapshotError> {
    match (present, value == absent) {
        (true, _) => Ok(Some(value)),
        (false, true) => Ok(None),
        (false, false) => Err(SnapshotError::Malformed(
            "absent value with a nonzero encoding".into(),
        )),
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

/// A machine state on the wire: the CPU core and every peripheral first,
/// then the flash, data-space and EEPROM arrays. Every struct is
/// destructured without `..`, so a field added to a peripheral stops this
/// from compiling instead of silently dropping out of the wire.
fn put_machine_state(w: &mut Writer, s: &MachineState) {
    let MachineState {
        flash,
        data,
        eeprom,
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
        portb,
        insns_retired,
        interrupts_taken,
    } = s;
    w.put_u32(*pc);
    w.put_u64(*cycles);
    put_fault(w, *fault);
    w.put_bool(*irq_delay);
    w.put_u64(*insns_retired);
    w.put_u64(*interrupts_taken);
    let Uart {
        rx,
        tx,
        rx_bytes,
        tx_bytes,
    } = uart0;
    w.put_bytes(&rx.iter().copied().collect::<Vec<u8>>());
    w.put_bytes(tx);
    w.put_u64(*rx_bytes);
    w.put_u64(*tx_bytes);
    let Heartbeat {
        toggles,
        last_level,
    } = heartbeat;
    w.put_u64(toggles.len() as u64);
    for &t in toggles {
        w.put_u64(t);
    }
    w.put_bool(*last_level);
    let Watchdog {
        timeout,
        last_reset,
    } = watchdog;
    w.put_bool(timeout.is_some());
    w.put_u64(timeout.unwrap_or(0));
    w.put_u64(*last_reset);
    let Timer0 {
        tcnt,
        tccr_b,
        timsk,
        tifr,
        residual,
    } = timer0;
    w.put_u8(*tcnt);
    w.put_u8(*tccr_b);
    w.put_u8(*timsk);
    w.put_u8(*tifr);
    w.put_u64(*residual);
    let Adc {
        admux,
        control,
        adcsrb,
        data: result,
        converting,
        adif,
        first,
        channels,
    } = adc;
    w.put_u8(*admux);
    w.put_u8(*control);
    w.put_u8(*adcsrb);
    w.put_u16(*result);
    w.put_bool(converting.is_some());
    w.put_u64(converting.unwrap_or(0));
    w.put_bool(*adif);
    w.put_bool(*first);
    for &ch in channels {
        w.put_u16(ch);
    }
    let Pwm { ocr0a, ocr0b } = pwm;
    w.put_u8(*ocr0a);
    w.put_u8(*ocr0b);
    let PortB { value } = portb;
    w.put_u8(*value);
    w.put_bytes(flash);
    w.put_bytes(data);
    let Eeprom {
        bytes,
        addr,
        data: eedr,
        master_enable,
        writes,
    } = eeprom;
    w.put_bytes(bytes);
    w.put_u16(*addr);
    w.put_u8(*eedr);
    w.put_bool(*master_enable);
    w.put_u64(*writes);
}

/// Inverse of [`put_machine_state`]. Struct fields are evaluated in the
/// order written, so every literal below reads in wire order.
fn get_machine_state(r: &mut Reader<'_>) -> Result<MachineState, SnapshotError> {
    Ok(MachineState {
        pc: r.u32()?,
        cycles: r.u64()?,
        fault: get_fault(r)?,
        irq_delay: r.bool()?,
        insns_retired: r.u64()?,
        interrupts_taken: r.u64()?,
        uart0: Uart {
            rx: r.bytes()?.into(),
            tx: r.bytes()?,
            rx_bytes: r.u64()?,
            tx_bytes: r.u64()?,
        },
        heartbeat: Heartbeat {
            toggles: {
                // Grow as entries arrive: a hostile count reserves nothing.
                let n = r.u64()?;
                let mut toggles = Vec::new();
                for _ in 0..n {
                    toggles.push(r.u64()?);
                }
                toggles
            },
            last_level: r.bool()?,
        },
        watchdog: Watchdog {
            timeout: optional(r.bool()?, r.u64()?, 0)?,
            last_reset: r.u64()?,
        },
        timer0: Timer0 {
            tcnt: r.u8()?,
            tccr_b: r.u8()?,
            timsk: r.u8()?,
            tifr: r.u8()?,
            residual: r.u64()?,
        },
        adc: Adc {
            admux: r.u8()?,
            control: r.u8()?,
            adcsrb: r.u8()?,
            data: r.u16()?,
            converting: optional(r.bool()?, r.u64()?, 0)?,
            adif: r.bool()?,
            first: r.bool()?,
            channels: {
                let mut channels = [0; ADC_CHANNELS];
                for ch in &mut channels {
                    *ch = r.u16()?;
                }
                channels
            },
        },
        pwm: Pwm {
            ocr0a: r.u8()?,
            ocr0b: r.u8()?,
        },
        portb: PortB { value: r.u8()? },
        flash: r.bytes()?,
        data: r.bytes()?,
        eeprom: Eeprom {
            bytes: r.bytes()?,
            addr: r.u16()?,
            data: r.u8()?,
            master_enable: r.bool()?,
            writes: r.u64()?,
        },
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
        // Unknown kind byte, and every retired tag.
        for tag in [9, 2, 3, 4, 5, 6] {
            let mut bad = blob.clone();
            bad[10] = tag;
            assert_eq!(decode_machine(&bad), Err(SnapshotError::BadKind(tag)));
        }
        // Wrong (but valid) kind.
        let checkpoint_kind = Writer::new().finish(Kind::ShardCheckpoint);
        assert!(matches!(
            decode_machine(&checkpoint_kind),
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

    /// Pins the machine wire. Round trips alone would pass an encoder and
    /// decoder that moved fields together, so one state with every
    /// peripheral field off its default must encode to a fixed length and
    /// CRC-32; changing either is a layout change, which bumps `VERSION`.
    /// The CRC is taken without the blob's trailer: over a frame that ends
    /// in its own CRC, it would depend on the length alone.
    #[test]
    fn machine_wire_is_pinned() {
        use avr_sim::adc::{ADCSRA_ADDR, ADCSRB_ADDR, ADEN, ADIE, ADLAR, ADMUX_ADDR, ADSC};
        use avr_sim::eeprom::{EEARH_ADDR, EEARL_ADDR, EECR_ADDR, EEDR_ADDR, EEMPE, EEPE};
        use avr_sim::timer::TOV0;
        use avr_sim::HEARTBEAT_BIT;

        let mut m = Machine::new_atmega2560();
        m.uart0.inject(&[0x11, 0x22, 0x33]);
        assert_eq!(m.uart0.read_data(), 0x11);
        m.uart0.write_data(0x44);
        m.uart0.write_data(0x55);
        let hb = 1 << HEARTBEAT_BIT;
        for (level, cycle) in [(hb, 100), (0, 250), (hb, 400)] {
            m.heartbeat.observe(level, HEARTBEAT_BIT, cycle);
        }
        m.watchdog.enable(16_000, 20);
        m.watchdog.pet(300);
        m.timer0.tccr_b = 3; // div 64
        m.timer0.timsk = TOV0;
        // Overflow, then tcnt 1 with a residual of 36.
        m.timer0.advance(256 * 64 + 100);
        // One conversion lands (ADIF set, the first-conversion flag spent)
        // and a second is in flight.
        m.adc.channels = [0x101, 0x202, 0x303, 0x004, 0x105, 0x206, 0x307, 0x008];
        m.adc.write(ADMUX_ADDR, ADLAR | 2);
        m.adc.write(ADCSRB_ADDR, 0x40);
        m.adc.write(ADCSRA_ADDR, ADEN | ADSC | ADIE | 3);
        m.adc.advance(25 * 8);
        m.adc.write(ADCSRA_ADDR, ADEN | ADSC | ADIE | 3);
        m.adc.advance(7);
        // One armed EEPROM write lands, and EEMPE arms the next.
        m.eeprom.write_reg(EEARL_ADDR, 0x34);
        m.eeprom.write_reg(EEARH_ADDR, 0x01);
        m.eeprom.write_reg(EEDR_ADDR, 0xa5);
        m.eeprom.write_reg(EECR_ADDR, EEMPE);
        m.eeprom.write_reg(EECR_ADDR, EEPE);
        m.eeprom.write_reg(EECR_ADDR, EEMPE);
        m.pwm.ocr0a = 0xc0;
        m.pwm.ocr0b = 0x70;
        m.portb.value = 0x21;
        let mut s = m.capture_state();
        s.flash = (0..=255).collect();
        s.data = (0..=255).rev().collect();
        s.pc = 0x1234;
        s.cycles = 0x0102_0304_0506;
        s.fault = Some(Fault::InvalidOpcode {
            addr: 0x2468,
            word: 0xffff,
        });
        s.irq_delay = true;
        s.insns_retired = 777;
        s.interrupts_taken = 9;
        assert!(!s.uart0.rx.is_empty() && !s.uart0.tx.is_empty());
        assert!(s.heartbeat.toggles.len() == 3 && s.heartbeat.last_level);
        assert!(s.watchdog.timeout.is_some() && s.watchdog.last_reset == 300);
        assert!(s.timer0.tifr == TOV0 && s.timer0.tcnt == 1 && s.timer0.residual == 36);
        assert!(s.adc.converting.is_some() && s.adc.adif && !s.adc.first && s.adc.data != 0);
        assert!(s.eeprom.writes == 1 && s.eeprom.master_enable);

        let blob = encode_machine(&s);
        let body = &blob[..blob.len() - 4];
        assert_eq!((blob.len(), crc32(body)), (4836, 0x6da6_3039));
        assert_eq!(decode_machine(&blob).unwrap(), s);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
