//! Intel HEX encoding and decoding.
//!
//! Both directions run at memory speed: the writer formats records through
//! a nibble table into one growing buffer, and the reader decodes every
//! digit once while it validates the records, then sizes the image from
//! the records' span — checked against the caller's bound *before*
//! allocating — and places the payloads.

use avr_core::device::ATMEGA2560;

use crate::ParseError;

const RECORD_DATA: u8 = 0x00;
const RECORD_EOF: u8 = 0x01;
const RECORD_EXT_LINEAR: u8 = 0x04;

/// Largest span [`parse_ihex`] loads: the flash of the biggest supported
/// part (the ATmega2560's 256 KiB).
pub const DEFAULT_MAX_SPAN: usize = ATMEGA2560.flash_bytes as usize;

const HEX_DIGITS: &[u8; 16] = b"0123456789ABCDEF";

/// Serialize `bytes` (loaded at byte address `base`) as Intel HEX text with
/// 16-byte data records and type-04 extended linear address records at every
/// 64 KiB boundary crossing.
pub fn write_ihex(bytes: &[u8], base: u32) -> String {
    let mut out = Vec::new();
    encode_ihex(&mut out, bytes, base);
    String::from_utf8(out).expect("Intel HEX records are ASCII")
}

/// Append the Intel HEX text of `bytes` at `base` to `out` (see
/// [`write_ihex`]).
pub(crate) fn encode_ihex(out: &mut Vec<u8>, bytes: &[u8], base: u32) {
    // 44 bytes per full 16-byte record, plus the EOF record and slack for
    // the ELA records.
    out.reserve(bytes.len().div_ceil(16) * 44 + 64);
    let mut upper = u32::MAX; // force an initial ELA record if base > 0xffff
    if base <= 0xffff && (base as usize + bytes.len()) <= 0x1_0000 {
        upper = 0; // small images skip the ELA record, like avr-objcopy
    }
    let mut addr = base;
    for chunk in bytes.chunks(16) {
        // A record must not cross a 64 KiB boundary.
        let mut off = 0usize;
        while off < chunk.len() {
            let hi = addr >> 16;
            if hi != upper {
                upper = hi;
                push_record(out, 0, RECORD_EXT_LINEAR, &(hi as u16).to_be_bytes());
            }
            let room = (0x1_0000 - (addr & 0xffff)) as usize;
            let take = room.min(chunk.len() - off);
            push_record(
                out,
                (addr & 0xffff) as u16,
                RECORD_DATA,
                &chunk[off..off + take],
            );
            addr += take as u32;
            off += take;
        }
    }
    push_record(out, 0, RECORD_EOF, &[]);
}

fn push_hex_byte(out: &mut Vec<u8>, b: u8) {
    out.push(HEX_DIGITS[usize::from(b >> 4)]);
    out.push(HEX_DIGITS[usize::from(b & 0x0f)]);
}

fn push_record(out: &mut Vec<u8>, addr: u16, rtype: u8, payload: &[u8]) {
    let [addr_hi, addr_lo] = addr.to_be_bytes();
    let count = payload.len() as u8;
    let mut sum = count
        .wrapping_add(addr_hi)
        .wrapping_add(addr_lo)
        .wrapping_add(rtype);
    out.push(b':');
    for b in [count, addr_hi, addr_lo, rtype] {
        push_hex_byte(out, b);
    }
    for &b in payload {
        push_hex_byte(out, b);
        sum = sum.wrapping_add(b);
    }
    push_hex_byte(out, sum.wrapping_neg());
    out.push(b'\n');
}

/// Parse Intel HEX text into `(base_address, bytes)`.
///
/// The returned byte vector is contiguous from the lowest loaded address;
/// gaps are filled with `0xff` (erased flash). Lines starting with `;` are
/// skipped, which is how the MAVR container directives stay compatible with
/// standard loaders. The loaded span may not exceed [`DEFAULT_MAX_SPAN`]
/// (a MAVR container's parse bounds it by its own device instead).
pub fn parse_ihex(text: &str) -> Result<(u32, Vec<u8>), ParseError> {
    parse_ihex_within(text, DEFAULT_MAX_SPAN)
}

/// [`parse_ihex`] with an explicit bound: the lowest-to-highest loaded
/// address span must fit `max_span` bytes, or the parse fails with
/// [`ParseError::SpanTooLarge`] before anything that size is allocated.
/// Extended-address records reach 4 GiB, so a few sparse records would
/// otherwise demand a gigantic erased-fill image.
pub(crate) fn parse_ihex_within(text: &str, max_span: usize) -> Result<(u32, Vec<u8>), ParseError> {
    // Pass 1: validate every record, decoding each line's digits once into
    // a stack buffer; data payloads append to one shared buffer.
    let mut records: Vec<DataRecord> = Vec::new();
    let mut data: Vec<u8> = Vec::with_capacity(text.len() / 3);
    let mut buf = [0u8; MAX_RECORD_BYTES];
    let mut upper: u32 = 0;
    let mut saw_eof = false;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let t = raw.trim();
        if t.is_empty() || t.starts_with(';') {
            continue;
        }
        if saw_eof {
            break;
        }
        let Some(hex) = t.strip_prefix(':') else {
            return Err(ParseError::BadStartCode { line });
        };
        let hex = hex.as_bytes();
        let n = hex.len() / 2;
        if hex.len() % 2 != 0 || n > MAX_RECORD_BYTES {
            // Digit errors outrank length errors, as for a short line.
            return Err(
                if hex.len() % 2 != 0 || !hex.iter().all(|&c| NIBBLE[usize::from(c)] < 16) {
                    ParseError::BadHexDigits { line }
                } else {
                    ParseError::BadLength { line }
                },
            );
        }
        let record = &mut buf[..n];
        let mut bad = 0u8;
        for (b, pair) in record.iter_mut().zip(hex.chunks_exact(2)) {
            let (hi, lo) = (NIBBLE[usize::from(pair[0])], NIBBLE[usize::from(pair[1])]);
            bad |= hi | lo;
            *b = (hi << 4) | lo;
        }
        if bad > 0x0f {
            return Err(ParseError::BadHexDigits { line });
        }
        if n < 5 {
            return Err(ParseError::BadLength { line });
        }
        let count = usize::from(record[0]);
        if n != count + 5 {
            return Err(ParseError::BadLength { line });
        }
        let sum = record[..n - 1].iter().fold(0u8, |a, &b| a.wrapping_add(b));
        let (expected, found) = (sum.wrapping_neg(), record[n - 1]);
        if expected != found {
            return Err(ParseError::BadChecksum {
                line,
                expected,
                found,
            });
        }
        let addr = u32::from(u16::from_be_bytes([record[1], record[2]]));
        let payload = &record[4..4 + count];
        match record[3] {
            RECORD_DATA => {
                records.push(DataRecord {
                    addr: (upper << 16) | addr,
                    at: data.len(),
                    len: record[0],
                });
                data.extend_from_slice(payload);
            }
            RECORD_EOF => saw_eof = true,
            RECORD_EXT_LINEAR => {
                if count != 2 {
                    return Err(ParseError::BadLength { line });
                }
                upper = u32::from(u16::from_be_bytes([payload[0], payload[1]]));
            }
            // Start-address records carry no data we need.
            0x03 | 0x05 => {}
            other => {
                return Err(ParseError::UnknownRecordType {
                    line,
                    record_type: other,
                })
            }
        }
    }
    if !saw_eof {
        return Err(ParseError::MissingEof);
    }
    let Some(base) = records.iter().map(|r| r.addr).min() else {
        return Ok((0, Vec::new()));
    };
    let end = records
        .iter()
        .map(|r| u64::from(r.addr) + u64::from(r.len))
        .max()
        .unwrap_or(0);
    let span = end - u64::from(base);
    if span > max_span as u64 {
        return Err(ParseError::SpanTooLarge { span, max_span });
    }
    // Pass 2: the span is known and bounded; place the payloads.
    let mut image = vec![0xff; span as usize];
    for r in &records {
        let (off, len) = ((r.addr - base) as usize, usize::from(r.len));
        image[off..off + len].copy_from_slice(&data[r.at..r.at + len]);
    }
    Ok((base, image))
}

/// Bytes in the longest record: count, address, type, 255 data bytes and
/// the checksum.
const MAX_RECORD_BYTES: usize = 5 + 255;

/// A validated data record: load address, and where its payload sits in
/// the parse's shared payload buffer.
struct DataRecord {
    addr: u32,
    at: usize,
    len: u8,
}

/// ASCII byte to hex-digit value (either case); `0xff` for non-digits.
const NIBBLE: [u8; 256] = {
    let mut t = [0xff; 256];
    let mut i = 0;
    while i < 10 {
        t[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        t[b'a' as usize + i] = 10 + i as u8;
        t[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    t
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_image_round_trip() {
        let data: Vec<u8> = (0u16..100).map(|i| i as u8).collect();
        let text = write_ihex(&data, 0);
        let (base, parsed) = parse_ihex(&text).unwrap();
        assert_eq!(base, 0);
        assert_eq!(parsed, data);
        assert!(text.ends_with(":00000001FF\n"));
    }

    #[test]
    fn large_image_crosses_64k_boundaries() {
        // 200 KiB image — the Arduplane scale — needs ELA records.
        let data: Vec<u8> = (0..200 * 1024).map(|i| (i * 7) as u8).collect();
        let text = write_ihex(&data, 0);
        assert!(text.contains(":02000004"), "must emit type-04 records");
        let (base, parsed) = parse_ihex(&text).unwrap();
        assert_eq!(base, 0);
        assert_eq!(parsed, data);
    }

    #[test]
    fn nonzero_base() {
        let data = vec![1, 2, 3, 4];
        let text = write_ihex(&data, 0x2_0010);
        let (base, parsed) = parse_ihex(&text).unwrap();
        assert_eq!(base, 0x2_0010);
        assert_eq!(parsed, data);
    }

    #[test]
    fn known_record_format() {
        // The canonical example record.
        let text = write_ihex(
            &[
                0x21, 0x46, 0x01, 0x36, 0x01, 0x21, 0x47, 0x01, 0x36, 0x00, 0x7E, 0xFE, 0x09, 0xD2,
                0x19, 0x01,
            ],
            0x0100,
        );
        assert!(text.starts_with(":10010000214601360121470136007EFE09D21901"));
    }

    #[test]
    fn checksum_rejected() {
        let err = parse_ihex(":0100000000FE\n:00000001FF\n").unwrap_err();
        assert!(matches!(err, ParseError::BadChecksum { .. }));
    }

    #[test]
    fn missing_eof_rejected() {
        let err = parse_ihex(":0100000000FF\n").unwrap_err();
        assert_eq!(err, ParseError::MissingEof);
    }

    #[test]
    fn bad_start_code_rejected() {
        let err = parse_ihex("10010000\n").unwrap_err();
        assert!(matches!(err, ParseError::BadStartCode { line: 1 }));
    }

    #[test]
    fn comments_are_skipped() {
        let text = format!("; MAVR directive line\n{}", write_ihex(&[9], 0));
        let (_, parsed) = parse_ihex(&text).unwrap();
        assert_eq!(parsed, vec![9]);
    }

    #[test]
    fn gaps_fill_with_erased_flash() {
        let mut text = Vec::new();
        super::push_record(&mut text, 0, 0, &[1]);
        super::push_record(&mut text, 4, 0, &[2]);
        super::push_record(&mut text, 0, 1, &[]);
        let (base, parsed) = parse_ihex(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(base, 0);
        assert_eq!(parsed, vec![1, 0xff, 0xff, 0xff, 2]);
    }

    #[test]
    fn sparse_records_past_the_bound_are_refused_before_allocating() {
        // 56 bytes of text: a data byte at 0, an ELA record to 0xffff, and
        // a data byte at 0xffff0000. Filling that gap would take 4 GiB.
        let text = ":0100000000FF\n:02000004FFFFFC\n:0100000000FF\n:00000001FF\n";
        assert_eq!(text.len(), 56);
        assert_eq!(
            parse_ihex(text).unwrap_err(),
            ParseError::SpanTooLarge {
                span: 0xffff_0001,
                max_span: DEFAULT_MAX_SPAN,
            }
        );
        // The same records within a caller's bound parse as usual.
        let near = ":0100000000FF\n:0100100000EF\n:00000001FF\n";
        assert_eq!(parse_ihex_within(near, 17).unwrap().1.len(), 17);
        assert!(matches!(
            parse_ihex_within(near, 16),
            Err(ParseError::SpanTooLarge { span: 17, .. })
        ));
    }

    #[test]
    fn lowercase_digits_parse() {
        let text = write_ihex(&[0xab, 0xcd], 0).to_lowercase();
        assert_eq!(parse_ihex(&text).unwrap(), (0, vec![0xab, 0xcd]));
    }

    #[test]
    fn empty_input() {
        assert_eq!(parse_ihex(":00000001FF\n").unwrap(), (0, vec![]));
    }
}
