//! The external flash chip (§V-A1): an M95M02-class 256 KiB SPI EEPROM
//! holding the unrandomized binary and its symbol table.
//!
//! "This flash chip serves as the only entry point to introduce new code
//! onto the MAVR system. The randomized binary is never stored on this
//! external flash memory and the application processor never reads from
//! this flash memory."

use std::sync::{Arc, OnceLock};

use crate::chaos::FaultPlan;
use hexfile::MavrContainer;
use mavr::{PatchPlan, RandomizeError, RandomizeOptions, RandomizedImage};
use rand::Rng;

/// Capacity of the prototype part (matches the application processor's
/// program memory, per §V-A1).
pub const CAPACITY_BYTES: usize = 256 * 1024;

/// Directive prefix of the integrity footer appended to the stored text.
const CRC_DIRECTIVE: &str = ";CRC32 ";

/// Errors from the external flash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// The uploaded container does not fit the chip.
    TooLarge {
        /// Bytes required.
        required: usize,
    },
    /// Read of an empty chip.
    Empty,
    /// The stored container failed to parse (corruption).
    Corrupt(String),
    /// The CRC-32 footer did not match the stored bytes (bit rot, stuck
    /// cells, or a torn upload).
    IntegrityFailure {
        /// CRC the footer recorded at upload time.
        expected: u32,
        /// CRC computed over the bytes actually read back.
        actual: u32,
    },
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::TooLarge { required } => write!(
                f,
                "container needs {required} bytes, chip holds {CAPACITY_BYTES}"
            ),
            FlashError::Empty => write!(f, "external flash is empty"),
            FlashError::Corrupt(why) => write!(f, "stored container corrupt: {why}"),
            FlashError::IntegrityFailure { expected, actual } => write!(
                f,
                "container integrity failure: footer CRC {expected:#010x}, read back {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for FlashError {}

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte table,
/// and `CRC_TABLES[k][n]` is the CRC of byte `n` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xedb8_8320 & (c & 1).wrapping_neg());
            k += 1;
        }
        t[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = t[k - 1][n];
            t[k][n] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            n += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected — the zlib/`cksum -o3` polynomial) over
/// `data`, eight bytes per step. This is the workspace's one CRC: the
/// container footer checked on every boot's read, and the snapshot
/// framing, which re-exports it.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The chip: stores the MAVR container verbatim, as `avrdude` would upload
/// it (§VI-B2: "receives the HEX file and stores it verbatim").
///
/// The stored bytes are shared: a clone is one more handle on the same
/// cells, so a campaign uploads once and every board it provisions reads
/// that one copy. Nothing writes the cells after an upload (chaos reads
/// mangle a transient copy), which is what makes sharing exact — and what
/// lets the cells carry one shared memo of their decode.
#[derive(Debug, Clone, Default)]
pub struct ExternalFlash {
    contents: Option<Arc<Cells>>,
}

/// One upload's cells and the memo of their fault-free decode. An upload
/// or erase replaces both; clones share both.
#[derive(Debug)]
struct Cells {
    bytes: Box<[u8]>,
    /// Filled by the first fault-free read. Decoding is a pure function of
    /// cells that never change, so every later read — on any clone, any
    /// board, any recovery — is the same container.
    decoded: OnceLock<Result<Arc<Decoded>, FlashError>>,
}

impl Cells {
    fn new(bytes: Box<[u8]>) -> Arc<Cells> {
        Arc::new(Cells {
            bytes,
            decoded: OnceLock::new(),
        })
    }
}

/// A decoded container and, built by the first boot that randomizes it,
/// its image's [`PatchPlan`]: what every randomizing boot starts from.
#[derive(Debug)]
pub struct Decoded {
    container: Arc<MavrContainer>,
    plan: OnceLock<PatchPlan>,
}

impl Decoded {
    fn new(container: MavrContainer) -> Decoded {
        Decoded {
            container: Arc::new(container),
            plan: OnceLock::new(),
        }
    }

    /// The container the cells hold.
    pub fn container(&self) -> &Arc<MavrContainer> {
        &self.container
    }

    /// One boot's randomization of the container's image
    /// ([`mavr::randomize()`], with the scan done once per decode).
    pub fn randomize(
        &self,
        rng: &mut impl Rng,
        opts: &RandomizeOptions,
    ) -> Result<RandomizedImage, RandomizeError> {
        let image = &self.container.image;
        self.plan
            .get_or_init(|| PatchPlan::new(image))
            .apply(image, rng, opts)
    }
}

impl ExternalFlash {
    /// An erased chip.
    pub fn new() -> Self {
        ExternalFlash::default()
    }

    /// Upload a container (the flashing step on the host).
    ///
    /// The paper warns about exactly this failure mode: the chip is sized
    /// to the application flash, and the symbol table rides on top, so "a
    /// binary that is perilously close to the maximum allowable size" can
    /// exhaust the chip (§VI-B2).
    pub fn upload(&mut self, container: &MavrContainer) -> Result<(), FlashError> {
        // The chip stores the *binary* content the container denotes:
        // symbol directives + program bytes, plus the CRC-32 integrity
        // footer. Model the footprint as the program bytes plus the
        // encoded directive text (the footer counts: it occupies real
        // cells, so it must not push a near-capacity binary over §VI-B2's
        // line for free).
        let mut text = Vec::new();
        let header = container.write_text(&mut text);
        let footer = format!("{CRC_DIRECTIVE}{:08x}\n", crc32(&text));
        text.extend_from_slice(footer.as_bytes());
        let required = container.image.bytes.len() + header + footer.len();
        if required > CAPACITY_BYTES {
            return Err(FlashError::TooLarge { required });
        }
        self.contents = Some(Cells::new(text.into()));
        Ok(())
    }

    /// Master-side read of the whole stored container: CRC-checked against
    /// the upload-time footer, then parsed — once per upload; later reads
    /// share that decode.
    pub fn read(&self) -> Result<Arc<MavrContainer>, FlashError> {
        self.read_decoded().map(|d| Arc::clone(&d.container))
    }

    /// [`ExternalFlash::read`] through a fault plan: an active plan
    /// corrupts a transient copy of the cells (the stored container is
    /// untouched) and decodes that copy, so each retry observes a fresh
    /// roll of the configured bit rot.
    pub fn read_chaos(&self, chaos: &mut FaultPlan) -> Result<Arc<Decoded>, FlashError> {
        if !chaos.is_active() {
            return self.read_decoded();
        }
        let cells = self.contents.as_ref().ok_or(FlashError::Empty)?;
        let mut copy = cells.bytes.to_vec();
        chaos.mangle_flash_read(&mut copy);
        Self::decode(&copy).map(|c| Arc::new(Decoded::new(c)))
    }

    /// The shared fault-free decode, filled by the first read.
    fn read_decoded(&self) -> Result<Arc<Decoded>, FlashError> {
        let cells = self.contents.as_ref().ok_or(FlashError::Empty)?;
        cells
            .decoded
            .get_or_init(|| Self::decode(&cells.bytes).map(|c| Arc::new(Decoded::new(c))))
            .clone()
    }

    /// Verify the integrity footer, strip it, and parse what precedes it.
    fn decode(bytes: &[u8]) -> Result<MavrContainer, FlashError> {
        let text = std::str::from_utf8(bytes).map_err(|e| FlashError::Corrupt(e.to_string()))?;
        let body_len = text
            .trim_end_matches('\n')
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(0);
        let (body, footer_line) = text.split_at(body_len);
        let expected = footer_line
            .trim_end()
            .strip_prefix(CRC_DIRECTIVE)
            .and_then(|hex| u32::from_str_radix(hex.trim(), 16).ok())
            .ok_or_else(|| FlashError::Corrupt("missing ;CRC32 integrity footer".into()))?;
        let actual = crc32(body.as_bytes());
        if actual != expected {
            return Err(FlashError::IntegrityFailure { expected, actual });
        }
        MavrContainer::parse(body).map_err(|e| FlashError::Corrupt(e.to_string()))
    }

    /// Random-access byte read (the streaming interface of §VI-B3; `None`
    /// past the end or when empty).
    pub fn read_byte(&self, offset: usize) -> Option<u8> {
        self.contents.as_ref()?.bytes.get(offset).copied()
    }

    /// Whether anything is stored.
    pub fn is_programmed(&self) -> bool {
        self.contents.is_some()
    }

    /// Erase the chip.
    pub fn erase(&mut self) {
        self.contents = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use synth_firmware::{apps, build, BuildOptions};

    fn tiny_chip() -> ExternalFlash {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut chip = ExternalFlash::new();
        chip.upload(&mavr::preprocess(&fw.image).unwrap()).unwrap();
        chip
    }

    /// A chip whose cells hold `bytes` verbatim.
    fn chip_holding(bytes: &[u8]) -> ExternalFlash {
        ExternalFlash {
            contents: Some(Cells::new(bytes.into())),
        }
    }

    #[test]
    fn upload_read_round_trip() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let container = mavr::preprocess(&fw.image).unwrap();
        let mut chip = ExternalFlash::new();
        assert!(!chip.is_programmed());
        chip.upload(&container).unwrap();
        assert!(chip.is_programmed());
        let back = chip.read().unwrap();
        assert_eq!(back.image, fw.image);
        assert!(chip.read_byte(0).is_some());
    }

    #[test]
    fn integrity_footer_is_stored_and_checked() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut chip = ExternalFlash::new();
        chip.upload(&mavr::preprocess(&fw.image).unwrap()).unwrap();
        // The footer is real stored content.
        let stored: Vec<u8> = (0..).map_while(|i| chip.read_byte(i)).collect();
        let text = std::str::from_utf8(&stored).unwrap();
        assert!(text
            .trim_end()
            .lines()
            .last()
            .unwrap()
            .starts_with(";CRC32 "));

        // Flip one stored bit: the read must fail closed with the CRC pair.
        let mut bytes = stored.clone();
        let at = bytes.len() / 3;
        bytes[at] ^= 0x40;
        match chip_holding(&bytes).read().unwrap_err() {
            FlashError::IntegrityFailure { expected, actual } => assert_ne!(expected, actual),
            other => panic!("expected IntegrityFailure, got {other:?}"),
        }

        // A chip written without a footer (legacy or torn upload) is corrupt.
        let body_end = text.trim_end_matches('\n').rfind('\n').unwrap() + 1;
        let legacy = chip_holding(&stored[..body_end]);
        assert!(matches!(legacy.read().unwrap_err(), FlashError::Corrupt(_)));
    }

    #[test]
    fn chaos_read_with_inert_plan_matches_plain_read() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut chip = ExternalFlash::new();
        chip.upload(&mavr::preprocess(&fw.image).unwrap()).unwrap();
        let mut plan = crate::chaos::FaultPlan::none();
        let read = chip.read_chaos(&mut plan).unwrap();
        assert!(Arc::ptr_eq(read.container(), &chip.read().unwrap()));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_definition_at_every_length() {
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in data {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        }
        let data: Vec<u8> = (0u32..300).map(|i| (i * 151 + 7) as u8).collect();
        for len in 0..data.len() {
            // Every head length and alignment exercises the 8-byte steps
            // and the byte-wise remainder.
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "len {len}");
            assert_eq!(crc32(&data[len..]), bitwise(&data[len..]), "tail {len}");
        }
    }

    #[test]
    fn clones_share_the_uploaded_cells() {
        let chip = tiny_chip();
        let twin = chip.clone();
        let (a, b) = (chip.contents.as_ref(), twin.contents.as_ref());
        assert!(Arc::ptr_eq(a.unwrap(), b.unwrap()));
        // And one decode of them, whichever clone reads first.
        let first = twin.read().unwrap();
        assert!(Arc::ptr_eq(&first, &chip.read().unwrap()));
        assert!(Arc::ptr_eq(&first, &twin.read().unwrap()));
    }

    #[test]
    fn a_clone_that_uploads_reads_its_own_container() {
        let chip = tiny_chip();
        let old = chip.read().unwrap();
        let mut other = chip.clone();
        let quad = build(&apps::by_name("quad").unwrap(), &BuildOptions::safe_mavr()).unwrap();
        other
            .upload(&mavr::preprocess(&quad.image).unwrap())
            .unwrap();
        assert_eq!(other.read().unwrap().image, quad.image);
        assert!(Arc::ptr_eq(&chip.read().unwrap(), &old));
        assert!(Arc::ptr_eq(&chip.clone().read().unwrap(), &old));
    }

    #[test]
    fn a_filled_memo_does_not_mask_an_active_fault_plan() {
        let chip = tiny_chip();
        let memo = chip.read().unwrap();
        let twin = chip.clone();
        let rot = ChaosConfig {
            flash_bit_rot: 2e-4,
            ..ChaosConfig::off()
        };
        let mut plan = FaultPlan::new(2, rot);
        assert!(matches!(
            twin.read_chaos(&mut plan).unwrap_err(),
            FlashError::IntegrityFailure { .. }
        ));
        assert!(Arc::ptr_eq(&twin.read().unwrap(), &memo));
    }

    #[test]
    fn empty_chip_errors() {
        let chip = ExternalFlash::new();
        assert_eq!(chip.read().unwrap_err(), FlashError::Empty);
        assert_eq!(chip.read_byte(0), None);
    }

    #[test]
    fn erase_clears() {
        let chip = tiny_chip();
        chip.read().unwrap();
        let mut erased = chip.clone();
        erased.erase();
        assert!(!erased.is_programmed());
        // The memo goes with the cells; a clone that kept them still reads.
        assert_eq!(erased.read().unwrap_err(), FlashError::Empty);
        assert!(chip.read().is_ok());
    }

    #[test]
    fn oversized_container_rejected() {
        // A full-size app (221 KiB) plus its symbol table is fine on the
        // 256 KiB chip; force failure with a near-capacity fake image.
        use avr_core::device::ATMEGA2560;
        use avr_core::image::{FirmwareImage, Symbol, SymbolKind};
        let mut img = FirmwareImage::new(ATMEGA2560);
        img.bytes = vec![0; 255 * 1024];
        img.text_end = 255 * 1024;
        img.symbols = (0..2000u32)
            .map(|i| Symbol {
                name: format!("very_long_function_symbol_name_{i:08}"),
                addr: i * 2,
                size: 2,
                kind: SymbolKind::Function,
            })
            .collect();
        let container = MavrContainer::new(img);
        let mut chip = ExternalFlash::new();
        assert!(matches!(
            chip.upload(&container),
            Err(FlashError::TooLarge { .. })
        ));
    }
}
