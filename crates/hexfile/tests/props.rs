//! Property tests: Intel HEX and MAVR container round-trips, and the
//! parsers' totality — truncated, bit-flipped or arbitrary text yields a
//! typed error or an exact round trip, never a panic, and never an
//! allocation beyond the caller's span bound plus a multiple of the input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use avr_core::device::ATMEGA2560;
use avr_core::image::{FirmwareImage, Symbol, SymbolKind};
use hexfile::intel::DEFAULT_MAX_SPAN;
use hexfile::{parse_ihex, write_ihex, MavrContainer, ParseError};
use proptest::prelude::*;

/// The system allocator, recording the largest single request made on the
/// current thread since the last [`reset_peak`].
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each of `GlobalAlloc`'s requirements holds exactly when it holds for the
// caller; the recording touches only a const-initialized thread-local
// `Cell`, which never allocates (and is skipped during thread teardown).
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = PEAK.try_with(|p| p.set(p.get().max(layout.size())));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = PEAK.try_with(|p| p.set(p.get().max(new_size)));
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

fn reset_peak() {
    PEAK.with(|p| p.set(0));
}

fn peak() -> usize {
    PEAK.with(Cell::get)
}

/// Parse `text` both ways and check the totality contract: no panic (the
/// test would fail), and no single allocation beyond the span bound plus a
/// small multiple of the input (record and symbol tables grow by doubling).
fn parses_within_bounds(text: &str) -> Result<(), String> {
    reset_peak();
    let plain = parse_ihex(text);
    let container = MavrContainer::parse(text);
    let bound = DEFAULT_MAX_SPAN + 8 * text.len() + 4096;
    if peak() > bound {
        return Err(format!(
            "allocated {} bytes for {} bytes of text",
            peak(),
            text.len()
        ));
    }
    if let Ok((_, bytes)) = &plain {
        if bytes.len() > DEFAULT_MAX_SPAN {
            return Err(format!(
                "{} loaded bytes exceed the span bound",
                bytes.len()
            ));
        }
    }
    // A container that parses re-serializes to text that parses back to it.
    if let Ok(c) = container {
        if MavrContainer::parse(&c.to_text()) != Ok(c) {
            return Err("container does not round-trip".into());
        }
    }
    Ok(())
}

/// A valid container with `n` functions, a pointer table, and `ptrs`
/// function-pointer slots.
fn sample_container(sizes: &[u32], ptrs: usize) -> MavrContainer {
    let mut img = FirmwareImage::new(ATMEGA2560);
    let mut addr = 0u32;
    for (i, sz) in sizes.iter().enumerate() {
        let size = sz * 2;
        img.symbols.push(Symbol {
            name: format!("f{i}"),
            addr,
            size,
            kind: SymbolKind::Function,
        });
        addr += size;
    }
    img.text_end = addr;
    img.symbols.push(Symbol {
        name: "tbl".into(),
        addr,
        size: 8,
        kind: SymbolKind::Object,
    });
    img.bytes = (0..addr + 8).map(|i| (i * 13 + 5) as u8).collect();
    for i in 0..ptrs.min(4) {
        img.fn_ptr_locs.push(addr + (i as u32) * 2);
    }
    img.validate().unwrap();
    MavrContainer::new(img)
}

proptest! {
    #[test]
    fn ihex_round_trips(data in proptest::collection::vec(any::<u8>(), 0..4096),
                        base in 0u32..0x3_0000) {
        let text = write_ihex(&data, base);
        let (got_base, got) = parse_ihex(&text).unwrap();
        if data.is_empty() {
            prop_assert!(got.is_empty());
        } else {
            prop_assert_eq!(got_base, base);
            prop_assert_eq!(got, data);
        }
    }

    #[test]
    fn ihex_round_trips_across_64k_boundaries(
        data in proptest::collection::vec(any::<u8>(), 1..600),
        segment in 1u32..4,
        before in 0u32..300,
    ) {
        // The image starts `before` bytes below a 64 KiB boundary, so the
        // writer must split a record and emit an extended-address record.
        let base = segment * 0x1_0000 - before;
        let text = write_ihex(&data, base);
        prop_assert_eq!(parse_ihex(&text), Ok((base, data)));
    }

    #[test]
    fn ihex_output_is_ascii_records(data in proptest::collection::vec(any::<u8>(), 1..256)) {
        let text = write_ihex(&data, 0);
        for line in text.lines() {
            prop_assert!(line.starts_with(':'));
            prop_assert!(line[1..].bytes().all(|b| b.is_ascii_hexdigit()));
            // Record length: 1 count + 2 addr + 1 type + payload + 1 checksum.
            prop_assert!(line.len() >= 11);
        }
        prop_assert!(text.ends_with(":00000001FF\n"));
    }

    #[test]
    fn parser_is_total_on_noise(noise in proptest::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&noise).into_owned();
        prop_assert_eq!(parses_within_bounds(&text), Ok(()));
    }

    #[test]
    fn parser_is_total_on_record_shaped_noise(
        records in proptest::collection::vec(
            (any::<u16>(), 0u8..6, proptest::collection::vec(any::<u8>(), 2..20)),
            0..12,
        ),
    ) {
        // Well-formed records with arbitrary types and addresses, where
        // every extended-address record carries a random upper half, so
        // data scatters across 4 GiB: the span check must refuse, not
        // allocate.
        let mut text = String::new();
        for (addr, rtype, payload) in &records {
            let payload = if *rtype == 4 { &payload[..2] } else { &payload[..] };
            let mut bytes = vec![payload.len() as u8, (addr >> 8) as u8, *addr as u8, *rtype];
            bytes.extend_from_slice(payload);
            let sum = bytes.iter().fold(0u8, |a, &b| a.wrapping_add(b));
            bytes.push(sum.wrapping_neg());
            text.push(':');
            for b in bytes {
                text.push_str(&format!("{b:02X}"));
            }
            text.push('\n');
        }
        text.push_str(":00000001FF\n");
        prop_assert_eq!(parses_within_bounds(&text), Ok(()));
    }

    #[test]
    fn truncated_containers_are_refused_or_exact(
        sizes in proptest::collection::vec(1u32..40, 1..12),
        cut in any::<u16>(),
    ) {
        let c = sample_container(&sizes, 2);
        let text = c.to_text();
        let at = usize::from(cut) % text.len();
        let truncated = &text[..at];
        prop_assert_eq!(parses_within_bounds(truncated), Ok(()));
        // The only prefix that can parse is one that kept every line the
        // container needs; it then parses to the original.
        if let Ok(parsed) = MavrContainer::parse(truncated) {
            prop_assert_eq!(parsed, c);
        }
    }

    #[test]
    fn bit_flipped_containers_are_refused_or_exact(
        sizes in proptest::collection::vec(1u32..40, 1..12),
        pos in any::<u32>(),
        bit in 0u8..7,
    ) {
        // Flip one of the low seven bits, so the text stays ASCII (and
        // therefore UTF-8) and reaches the parsers.
        let c = sample_container(&sizes, 3);
        let mut bytes = c.to_text().into_bytes();
        let at = pos as usize % bytes.len();
        bytes[at] ^= 1 << bit;
        let text = String::from_utf8(bytes).unwrap();
        prop_assert_eq!(parses_within_bounds(&text), Ok(()));
        match MavrContainer::parse(&text) {
            // A flip inside a directive can still spell a valid container
            // (say, another symbol name); the HEX body is checksummed.
            Ok(parsed) => prop_assert_eq!(parsed.image.bytes, c.image.bytes),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn corrupting_one_hex_digit_is_detected(
        data in proptest::collection::vec(any::<u8>(), 16..64),
        pos in 0usize..200,
        delta in 1u8..15,
    ) {
        let text = write_ihex(&data, 0);
        let bytes = text.as_bytes();
        // Find a hex digit to corrupt (skip ':' and newlines).
        let candidates: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_ascii_hexdigit())
            .map(|(i, _)| i)
            .collect();
        let idx = candidates[pos % candidates.len()];
        let orig = (bytes[idx] as char).to_digit(16).unwrap() as u8;
        let new = (orig + delta) % 16;
        let mut corrupted = text.clone().into_bytes();
        corrupted[idx] = char::from_digit(u32::from(new), 16).unwrap() as u8;
        let corrupted = String::from_utf8(corrupted).unwrap();
        // Either the checksum rejects it, or the corruption hit a length /
        // address / checksum field and a structural error fires; silently
        // returning the original data is the one unacceptable outcome.
        if let Ok((_, parsed)) = parse_ihex(&corrupted) { prop_assert_ne!(parsed, data) }
    }

    #[test]
    fn container_round_trips(
        sizes in proptest::collection::vec(1u32..40, 1..20),
        ptr_count in 0usize..4,
    ) {
        let c = sample_container(&sizes, ptr_count);
        prop_assert_eq!(MavrContainer::parse(&c.to_text()), Ok(c));
    }
}

#[test]
fn sparse_hex_file_is_refused_without_a_4gib_allocation() {
    // A data byte at 0, an extended-address record to 0xffff, and a data
    // byte at 0xffff0000: 56 bytes of text once asked for 4 GiB.
    let text = ":0100000000FF\n:02000004FFFFFC\n:0100000000FF\n:00000001FF\n";
    reset_peak();
    let err = parse_ihex(text).unwrap_err();
    assert!(peak() < 64 * 1024, "allocated {} bytes", peak());
    assert!(matches!(
        err,
        ParseError::SpanTooLarge {
            span: 0xffff_0001,
            ..
        }
    ));
    let err = MavrContainer::parse(&format!(";MAVR 1 ATmega2560\n{text}")).unwrap_err();
    assert!(matches!(err, ParseError::SpanTooLarge { .. }));
}
