//! The application processor with its readout-protection (lock) fuse
//! (§V-A3): "the attacker [cannot obtain] a copy of the current binary
//! (that is, randomized binary) stored in the application processor's
//! flash memory".

use avr_sim::Machine;

/// The application MCU plus its programming-interface state.
#[derive(Debug, Clone)]
pub struct AppProcessor {
    /// The simulated ATmega2560.
    pub machine: Machine,
    lock_fuse: bool,
}

impl AppProcessor {
    /// A factory-fresh part: erased flash, lock fuse clear.
    pub fn new() -> Self {
        AppProcessor {
            machine: Machine::new_atmega2560(),
            lock_fuse: false,
        }
    }

    /// Set the readout-protection fuse. Cleared only by a full chip erase.
    pub fn set_lock_fuse(&mut self) {
        self.lock_fuse = true;
    }

    /// Whether readout protection is active.
    pub fn locked(&self) -> bool {
        self.lock_fuse
    }

    /// The external debugger / ISP view of flash: erased-looking `0xff`
    /// when the lock fuse is set, the real contents otherwise. This is the
    /// interface an attacker with physical tools would use.
    pub fn external_flash_read(&self) -> Vec<u8> {
        if self.lock_fuse {
            vec![0xff; self.machine.flash().len()]
        } else {
            self.machine.flash().to_vec()
        }
    }

    /// Bootloader-side programming: a full chip erase (which also clears
    /// the lock fuse, as on real parts) followed by a write and reset.
    pub fn chip_erase(&mut self) {
        self.machine.erase_flash();
        self.lock_fuse = false;
    }

    /// Bootloader-side write of one staged page. No implicit erase: the
    /// commit path decides whether a chip erase preceded it (full reflash)
    /// or not (targeted page repair).
    pub fn program_page(&mut self, addr: u32, data: &[u8]) {
        self.machine.load_flash(addr, data);
    }

    /// Bootloader-side verify: compare flash against `image` page by page
    /// and return the byte addresses of mismatching pages. The bootloader
    /// reads its *own* flash, so the lock fuse — which gates only external
    /// readout — does not blind it; on the wire this is a per-page CRC
    /// exchange, a few bytes per page, so verification is cheap next to the
    /// transfer itself (§VI-B4 timing).
    pub fn mismatched_pages(&self, image: &[u8], page_size: usize) -> Vec<u32> {
        let flash = self.machine.flash();
        image
            .chunks(page_size)
            .enumerate()
            .filter_map(|(i, page)| {
                let addr = i * page_size;
                let end = (addr + page.len()).min(flash.len());
                if addr >= flash.len() || flash[addr..end] != page[..end - addr] {
                    Some(addr as u32)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Write a binary via the (master-driven) programming interface, then
    /// reset into it.
    pub fn program_and_reset(&mut self, binary: &[u8]) {
        self.machine.erase_flash();
        self.machine.load_flash(0, binary);
        self.machine.reset();
        self.machine.uart0.clear();
        self.machine.heartbeat.clear();
    }
}

impl Default for AppProcessor {
    fn default() -> Self {
        AppProcessor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_fuse_hides_flash() {
        let mut app = AppProcessor::new();
        app.program_and_reset(&[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(&app.external_flash_read()[..4], &[0xde, 0xad, 0xbe, 0xef]);
        app.set_lock_fuse();
        assert!(app.locked());
        assert!(app.external_flash_read().iter().all(|&b| b == 0xff));
        // The CPU itself still executes the real contents.
        assert_eq!(&app.machine.flash()[..4], &[0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn chip_erase_clears_fuse_and_flash() {
        let mut app = AppProcessor::new();
        app.program_and_reset(&[1, 2, 3, 4]);
        app.set_lock_fuse();
        app.chip_erase();
        assert!(!app.locked());
        assert!(app.machine.flash().iter().all(|&b| b == 0xff));
    }

    #[test]
    fn reprogram_resets_cpu_state() {
        let mut app = AppProcessor::new();
        app.program_and_reset(&[0x00, 0x00]); // nop
        app.machine.run(5);
        assert!(app.machine.cycles() > 0);
        let pc_before = app.machine.pc();
        assert!(pc_before > 0);
        app.program_and_reset(&[0x00, 0x00, 0x00, 0x00]);
        assert_eq!(app.machine.pc(), 0);
    }
}
