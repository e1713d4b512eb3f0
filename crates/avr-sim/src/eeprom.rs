//! EEPROM with its register interface (EECR/EEDR/EEARL/EEARH).
//!
//! The paper's Fig. 1 lists the 4 KiB EEPROM as the persistent-configuration
//! store ("persistent storage of configuration settings … not included in
//! the data or program address space"). The synthetic autopilot uses it the
//! same way ArduPilot does: tuned parameters survive reboots — and notably
//! survive MAVR reflashes, since randomization touches program flash only.

/// Data-space address of `EECR` (control: EERE = bit 0, EEPE = bit 1,
/// EEMPE = bit 2).
pub const EECR_ADDR: u16 = 0x3f;
/// Data-space address of `EEDR` (data).
pub const EEDR_ADDR: u16 = 0x40;
/// Data-space address of `EEARL` (address low).
pub const EEARL_ADDR: u16 = 0x41;
/// Data-space address of `EEARH` (address high).
pub const EEARH_ADDR: u16 = 0x42;

/// `EERE`: EEPROM read enable.
pub const EERE: u8 = 1 << 0;
/// `EEPE`: EEPROM program enable.
pub const EEPE: u8 = 1 << 1;
/// `EEMPE`: EEPROM master program enable (must precede EEPE, as on real
/// silicon).
pub const EEMPE: u8 = 1 << 2;

/// The EEPROM array plus its I/O-register state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eeprom {
    /// The persistent array.
    pub bytes: Vec<u8>,
    /// `EEAR` address register.
    pub addr: u16,
    /// `EEDR` data register.
    pub data: u8,
    /// Set by writing EEMPE; consumed by the next EEPE write.
    pub master_enable: bool,
    /// Total program operations (EEPROM endurance is 100k cycles; tracked
    /// like the flash-wear ledger).
    pub writes: u64,
}

impl Eeprom {
    /// An erased EEPROM of `size` bytes.
    pub fn new(size: usize) -> Self {
        Eeprom {
            bytes: vec![0xff; size],
            addr: 0,
            data: 0,
            master_enable: false,
            writes: 0,
        }
    }

    /// Register write dispatch.
    pub fn write_reg(&mut self, reg: u16, v: u8) {
        match reg {
            EEDR_ADDR => self.data = v,
            EEARL_ADDR => self.addr = (self.addr & 0xff00) | u16::from(v),
            EEARH_ADDR => self.addr = (self.addr & 0x00ff) | (u16::from(v) << 8),
            EECR_ADDR => {
                if v & EEMPE != 0 {
                    self.master_enable = true;
                }
                if v & EEPE != 0 {
                    // Program only when armed, as on hardware.
                    if self.master_enable {
                        if let Some(cell) = self.bytes.get_mut(self.addr as usize) {
                            *cell = self.data;
                            self.writes += 1;
                        }
                    }
                    self.master_enable = false;
                }
                if v & EERE != 0 {
                    self.data = self.bytes.get(self.addr as usize).copied().unwrap_or(0xff);
                }
            }
            _ => {}
        }
    }

    /// Register read dispatch.
    pub fn read_reg(&self, reg: u16) -> u8 {
        match reg {
            EEDR_ADDR => self.data,
            EEARL_ADDR => (self.addr & 0xff) as u8,
            EEARH_ADDR => (self.addr >> 8) as u8,
            EECR_ADDR => 0, // operations complete instantly in the model
            _ => 0,
        }
    }

    /// Host-side write (e.g. factory provisioning).
    pub fn poke(&mut self, addr: u16, v: u8) {
        if let Some(cell) = self.bytes.get_mut(addr as usize) {
            *cell = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_requires_arming() {
        let mut e = Eeprom::new(16);
        e.write_reg(EEARL_ADDR, 3);
        e.write_reg(EEDR_ADDR, 0x5a);
        // EEPE without EEMPE: ignored.
        e.write_reg(EECR_ADDR, EEPE);
        assert_eq!(e.bytes[3], 0xff);
        // Armed write lands.
        e.write_reg(EECR_ADDR, EEMPE);
        e.write_reg(EECR_ADDR, EEPE);
        assert_eq!(e.bytes[3], 0x5a);
        assert_eq!(e.writes, 1);
        // Arming is consumed.
        e.write_reg(EEDR_ADDR, 0x11);
        e.write_reg(EECR_ADDR, EEPE);
        assert_eq!(e.bytes[3], 0x5a);
    }

    #[test]
    fn read_back() {
        let mut e = Eeprom::new(16);
        e.poke(7, 0xab);
        e.write_reg(EEARL_ADDR, 7);
        e.write_reg(EECR_ADDR, EERE);
        assert_eq!(e.read_reg(EEDR_ADDR), 0xab);
    }

    #[test]
    fn sixteen_bit_addressing() {
        let mut e = Eeprom::new(4096);
        e.write_reg(EEARL_ADDR, 0x34);
        e.write_reg(EEARH_ADDR, 0x0f);
        e.write_reg(EEDR_ADDR, 0x77);
        e.write_reg(EECR_ADDR, EEMPE);
        e.write_reg(EECR_ADDR, EEPE);
        assert_eq!(e.bytes[0x0f34], 0x77);
        assert_eq!(e.read_reg(EEARH_ADDR), 0x0f);
    }

    #[test]
    fn out_of_range_is_ignored() {
        let mut e = Eeprom::new(16);
        e.write_reg(EEARL_ADDR, 0xff);
        e.write_reg(EEDR_ADDR, 1);
        e.write_reg(EECR_ADDR, EEMPE);
        e.write_reg(EECR_ADDR, EEPE);
        assert_eq!(e.writes, 0);
        e.write_reg(EECR_ADDR, EERE);
        assert_eq!(e.read_reg(EEDR_ADDR), 0xff);
    }
}
