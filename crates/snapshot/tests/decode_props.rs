//! Totality of the machine decoder: truncated payloads, bit-flipped
//! payloads with their CRC recomputed, and arbitrary framed payloads each
//! decode to a state that re-encodes to the same bytes, or give a typed
//! error — never a panic.

use avr_sim::adc::{ADCSRA_ADDR, ADEN, ADIE, ADSC};
use avr_sim::timer::TOV0;
use avr_sim::{Eeprom, Fault, Machine, MachineState};
use mavr_snapshot::{decode_machine, encode_machine, Kind, SnapshotError, Writer};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// `payload` in a valid machine frame: right magic, version, kind, length
/// and CRC, so only the payload decoder can refuse it.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    for &b in payload {
        w.put_u8(b);
    }
    w.finish(Kind::MachineFull)
}

/// The payload of a framed blob (19-byte header, 4-byte CRC trailer).
fn payload(blob: &[u8]) -> &[u8] {
    &blob[19..blob.len() - 4]
}

/// Two states to mutate: a fresh machine, and one with every optional
/// field present and every buffer non-empty. The memories are cut short
/// so that most mutations land in the structure, not in array bytes.
fn states() -> [MachineState; 2] {
    let mut fresh = Machine::new_atmega2560().capture_state();
    fresh.flash.truncate(32);
    fresh.data.truncate(32);
    fresh.eeprom.bytes.truncate(16);

    let mut m = Machine::new_atmega2560();
    m.uart0.inject(&[1, 2, 3]);
    m.uart0.write_data(9);
    m.heartbeat.observe(1 << 5, 5, 100);
    m.heartbeat.observe(0, 5, 180);
    m.watchdog.enable(1_000, 5);
    m.timer0.tccr_b = 3;
    m.timer0.timsk = TOV0;
    m.timer0.advance(256 * 64 + 9);
    // One conversion completes and raises ADIF; a second is in flight.
    m.adc.write(ADCSRA_ADDR, ADEN | ADSC | ADIE);
    m.adc.advance(50);
    m.adc.write(ADCSRA_ADDR, ADEN | ADSC | ADIE);
    m.eeprom = Eeprom::new(16);
    let mut busy = m.capture_state();
    busy.flash.truncate(32);
    busy.data.truncate(32);
    busy.fault = Some(Fault::InvalidOpcode {
        addr: 0x40,
        word: 0xffff,
    });
    busy.irq_delay = true;
    [fresh, busy]
}

/// The totality contract for one blob.
fn decodes_exactly_or_refuses(blob: &[u8]) {
    if let Ok(state) = decode_machine(blob) {
        assert_eq!(
            encode_machine(&state),
            blob,
            "a decoded blob must re-encode to itself"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Every proper prefix of a payload, framed validly, is a truncation.
    #[test]
    fn truncated_payloads_are_truncations(pick in any::<bool>(), cut in any::<usize>()) {
        let blob = encode_machine(&states()[usize::from(pick)]);
        let whole = payload(&blob);
        let short = frame(&whole[..cut % whole.len()]);
        prop_assert!(
            matches!(decode_machine(&short), Err(SnapshotError::Truncated { .. })),
            "cut at {}", cut % whole.len()
        );
        // Cutting the frame itself is caught before the payload is read.
        prop_assert!(decode_machine(&blob[..cut % blob.len()]).is_err());
    }

    /// Flipped bits under a recomputed CRC decode exactly or are refused.
    #[test]
    fn bit_flipped_payloads_decode_exactly_or_are_refused(
        pick in any::<bool>(),
        flips in pvec((any::<usize>(), 0u8..8), 1..4),
    ) {
        let blob = encode_machine(&states()[usize::from(pick)]);
        let mut bytes = payload(&blob).to_vec();
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        decodes_exactly_or_refuses(&frame(&bytes));
    }

    /// Arbitrary payloads, rich in the bytes 0 and 1 so that flags and
    /// lengths often parse, decode exactly or are refused.
    #[test]
    fn arbitrary_payloads_decode_exactly_or_are_refused(
        bytes in pvec(prop_oneof![Just(0u8), Just(1u8), any::<u8>()], 0..400),
    ) {
        decodes_exactly_or_refuses(&frame(&bytes));
    }
}

/// A 93-byte, CRC-valid blob whose heartbeat declares 2^40 toggles and
/// then ends is a truncation. The decoder once reserved 8 MiB for it
/// before reading a toggle; it now grows the list as entries arrive.
#[test]
fn a_huge_toggle_count_is_a_truncation() {
    let mut w = Writer::new();
    w.put_u32(0); // pc
    w.put_u64(0); // cycles
    w.put_u8(0); // no fault
    w.put_bool(false); // irq_delay
    w.put_u64(0); // insns_retired
    w.put_u64(0); // interrupts_taken
    w.put_bytes(&[]); // UART rx
    w.put_bytes(&[]); // UART tx
    w.put_u64(0); // rx_bytes
    w.put_u64(0); // tx_bytes
    w.put_u64(1 << 40); // heartbeat toggles
    let blob = w.finish(Kind::MachineFull);
    assert_eq!(blob.len(), 93);
    assert_eq!(
        decode_machine(&blob),
        Err(SnapshotError::Truncated { needed: 8, have: 0 })
    );
}

/// An absent optional value is written as a zero; any other value under a
/// `false` flag would decode to the same state and re-encode differently,
/// so it is refused.
#[test]
fn absent_values_must_be_written_as_zero() {
    let [fresh, _] = states();
    let blob = encode_machine(&fresh);
    assert!(fresh.watchdog.timeout.is_none() && fresh.adc.converting.is_none());
    // The watchdog's flag follows the core (30 bytes), the UART (32) and
    // the empty toggle list (8) and its level (1).
    let mut bytes = payload(&blob).to_vec();
    let timeout = 30 + 32 + 8 + 1 + 1;
    assert_eq!(bytes[timeout - 1], 0, "watchdog off");
    bytes[timeout] = 1;
    assert!(matches!(
        decode_machine(&frame(&bytes)),
        Err(SnapshotError::Malformed(_))
    ));
}
