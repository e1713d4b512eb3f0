//! The successive-approximation ADC — the firmware's window onto the
//! physical world.
//!
//! Modelled subset of the ATmega2560 converter: channel select and left
//! adjust in `ADMUX`, enable/start/flag/interrupt-enable and the prescaler
//! bits in `ADCSRA`, and the `ADCL`/`ADCH` result pair. Conversions take
//! real time — 13 ADC clocks (25 for the first after enabling), each ADC
//! clock a prescaled CPU clock — so firmware observes the same
//! start-poll-read latency it would on silicon, and the block-fused run
//! loop has to treat an armed conversion as an event horizon exactly like
//! a Timer0 overflow.
//!
//! The *analog inputs* are host-side state: the world model (or a test)
//! writes [`Adc::channels`] and the next conversion latches from them.
//! Like every peripheral, the ADC advances in lockstep with CPU cycles via
//! [`Adc::advance`], which is linear — advancing by `a` then `b` is
//! identical to advancing by `a + b` — so batched (block-fused) and
//! per-instruction execution see bit-identical conversions.

/// Data-space address of `ADCL` (result low byte).
pub const ADCL_ADDR: u16 = 0x78;
/// Data-space address of `ADCH` (result high byte).
pub const ADCH_ADDR: u16 = 0x79;
/// Data-space address of `ADCSRA` (control/status A).
pub const ADCSRA_ADDR: u16 = 0x7a;
/// Data-space address of `ADCSRB` (control/status B — stored, not decoded).
pub const ADCSRB_ADDR: u16 = 0x7b;
/// Data-space address of `ADMUX` (multiplexer select).
pub const ADMUX_ADDR: u16 = 0x7c;

/// `ADEN` bit of `ADCSRA`: ADC enable.
pub const ADEN: u8 = 1 << 7;
/// `ADSC` bit of `ADCSRA`: start conversion (reads 1 while converting).
pub const ADSC: u8 = 1 << 6;
/// `ADIF` bit of `ADCSRA`: conversion-complete flag (write 1 to clear).
pub const ADIF: u8 = 1 << 4;
/// `ADIE` bit of `ADCSRA`: conversion-complete interrupt enable.
pub const ADIE: u8 = 1 << 3;
/// `ADLAR` bit of `ADMUX`: left-adjust the 10-bit result.
pub const ADLAR: u8 = 1 << 5;

/// Interrupt vector index of ADC conversion complete on the ATmega2560.
pub const ADC_VECTOR: u32 = 29;

/// Modelled analog input channels (`ADMUX` MUX2:0; the upper mux bits and
/// the differential modes are unmodelled and read as channel 0..=7).
pub const ADC_CHANNELS: usize = 8;

/// ADC clocks per normal conversion (datasheet: 13).
const CONVERSION_CLOCKS: u64 = 13;
/// ADC clocks for the first conversion after `ADEN` (datasheet: 25).
const FIRST_CONVERSION_CLOCKS: u64 = 25;

/// The ADC peripheral.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adc {
    /// `ADMUX`: channel select (bits 2:0 honoured) and `ADLAR`.
    pub admux: u8,
    /// `ADCSRA` control bits as written (`ADEN`, `ADIE`, prescaler);
    /// `ADSC`/`ADIF` are reconstructed from the conversion state on read.
    pub control: u8,
    /// `ADCSRB`: stored and read back, otherwise unmodelled.
    pub adcsrb: u8,
    /// Latched 10-bit result, already `ADLAR`-adjusted at latch time.
    pub data: u16,
    /// CPU cycles until the in-flight conversion completes.
    pub converting: Option<u64>,
    /// Conversion-complete flag (`ADIF`).
    pub adif: bool,
    /// The next conversion is the extended first-after-enable one.
    pub first: bool,
    /// Host-side analog inputs, one 10-bit sample per channel. Written by
    /// the world model; latched into `data` when a conversion completes.
    pub channels: [u16; ADC_CHANNELS],
}

impl Default for Adc {
    fn default() -> Self {
        Adc {
            admux: 0,
            control: 0,
            adcsrb: 0,
            data: 0,
            converting: None,
            adif: false,
            first: true,
            channels: [0; ADC_CHANNELS],
        }
    }
}

impl Adc {
    /// CPU cycles per ADC clock for the current `ADPS2:0` bits. The
    /// datasheet maps `ADPS` 0 and 1 both to division by 2.
    fn prescale(&self) -> u64 {
        match self.control & 0x07 {
            0 | 1 => 2,
            n => 1u64 << n,
        }
    }

    /// Advance by `cycles` CPU cycles, completing an in-flight conversion
    /// when its time is up. Linear: any partition of a cycle span produces
    /// the same completion point and latched sample.
    pub fn advance(&mut self, cycles: u64) {
        let Some(left) = self.converting else {
            return;
        };
        if cycles < left {
            self.converting = Some(left - cycles);
            return;
        }
        self.converting = None;
        self.first = false;
        self.adif = true;
        let sample = self.channels[usize::from(self.admux & 0x07)] & 0x03ff;
        self.data = if self.admux & ADLAR != 0 {
            sample << 6
        } else {
            sample
        };
    }

    /// CPU cycles until the in-flight conversion completes, while its
    /// completion can interrupt (`ADIE` set; the caller checks the global
    /// I flag); `None` while idle or masked. The fast run loop's event
    /// horizon for the ADC.
    pub fn cycles_to_irq(&self) -> Option<u64> {
        self.converting.filter(|_| self.control & ADIE != 0)
    }

    /// Whether a conversion-complete interrupt is pending (flag set and
    /// `ADIE` enabled).
    pub fn irq_pending(&self) -> bool {
        self.adif && self.control & ADIE != 0
    }

    /// Acknowledge the interrupt (hardware clears `ADIF` on vector entry).
    pub fn ack(&mut self) {
        self.adif = false;
    }

    /// Firmware-side read of an ADC register.
    pub fn read(&self, addr: u16) -> u8 {
        match addr {
            ADCL_ADDR => (self.data & 0xff) as u8,
            ADCH_ADDR => (self.data >> 8) as u8,
            ADCSRA_ADDR => {
                let mut v = self.control;
                if self.converting.is_some() {
                    v |= ADSC;
                }
                if self.adif {
                    v |= ADIF;
                }
                v
            }
            ADCSRB_ADDR => self.adcsrb,
            ADMUX_ADDR => self.admux,
            _ => 0,
        }
    }

    /// Firmware-side write of an ADC register.
    pub fn write(&mut self, addr: u16, v: u8) {
        match addr {
            ADMUX_ADDR => self.admux = v,
            ADCSRB_ADDR => self.adcsrb = v,
            ADCSRA_ADDR => {
                self.control = v & (ADEN | ADIE | 0x07);
                // Writing 1 to ADIF clears it, as on real hardware.
                if v & ADIF != 0 {
                    self.adif = false;
                }
                if v & ADEN == 0 {
                    // Disabling the ADC aborts a conversion and re-arms the
                    // extended first conversion.
                    self.converting = None;
                    self.first = true;
                } else if v & ADSC != 0 && self.converting.is_none() {
                    let clocks = if self.first {
                        FIRST_CONVERSION_CLOCKS
                    } else {
                        CONVERSION_CLOCKS
                    };
                    self.converting = Some(clocks * self.prescale());
                }
            }
            // The result registers are read-only.
            _ => {}
        }
    }

    /// Reset the register interface (CPU reset resets the peripheral) while
    /// keeping the host-side analog inputs: the world does not reboot with
    /// the autopilot.
    pub fn reset(&mut self) {
        let channels = self.channels;
        *self = Adc {
            channels,
            ..Adc::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(adc: &mut Adc) {
        adc.write(ADCSRA_ADDR, ADEN | ADSC | ADIE | 0x02); // prescale /4
    }

    #[test]
    fn conversion_takes_prescaled_clocks() {
        let mut adc = Adc::default();
        adc.channels[0] = 0x155;
        start(&mut adc);
        // First conversion: 25 ADC clocks at /4 = 100 cycles.
        assert_eq!(adc.cycles_to_irq(), Some(100));
        adc.advance(99);
        assert_ne!(adc.read(ADCSRA_ADDR) & ADSC, 0, "still converting");
        assert_eq!(adc.read(ADCSRA_ADDR) & ADIF, 0);
        adc.advance(1);
        assert_eq!(adc.read(ADCSRA_ADDR) & ADSC, 0);
        assert_ne!(adc.read(ADCSRA_ADDR) & ADIF, 0);
        assert_eq!(adc.read(ADCL_ADDR), 0x55);
        assert_eq!(adc.read(ADCH_ADDR), 0x01);
        // Second conversion: 13 clocks = 52 cycles.
        start(&mut adc);
        assert_eq!(adc.cycles_to_irq(), Some(52));
    }

    #[test]
    fn advance_is_linear() {
        let mut a = Adc::default();
        let mut b = Adc::default();
        a.channels[3] = 0x3ff;
        b.channels[3] = 0x3ff;
        a.write(ADMUX_ADDR, 3);
        b.write(ADMUX_ADDR, 3);
        start(&mut a);
        start(&mut b);
        a.advance(100);
        for _ in 0..100 {
            b.advance(1);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn adlar_left_adjusts_for_eight_bit_reads() {
        let mut adc = Adc::default();
        adc.channels[1] = 0x2a5; // 10-bit sample
        adc.write(ADMUX_ADDR, ADLAR | 1);
        start(&mut adc);
        adc.advance(100);
        // Top 8 of 10 bits land in ADCH.
        assert_eq!(adc.read(ADCH_ADDR), (0x2a5 >> 2) as u8);
    }

    #[test]
    fn irq_gating_and_flag_clear() {
        let mut adc = Adc::default();
        adc.write(ADCSRA_ADDR, ADEN | ADSC | 0x02);
        assert_eq!(adc.cycles_to_irq(), None, "masked while ADIE clear");
        adc.write(ADCSRA_ADDR, ADEN | ADIE | 0x02);
        assert_eq!(adc.cycles_to_irq(), Some(100));
        assert!(!adc.irq_pending());
        adc.advance(100);
        assert!(adc.irq_pending());
        assert_eq!(
            adc.cycles_to_irq(),
            None,
            "nothing in flight after completion"
        );
        adc.ack();
        assert!(!adc.irq_pending());
        // Flag also clears by writing 1 to ADIF.
        adc.write(ADCSRA_ADDR, ADEN | ADSC | 0x02);
        adc.advance(52);
        assert_ne!(adc.read(ADCSRA_ADDR) & ADIF, 0);
        adc.write(ADCSRA_ADDR, ADEN | ADIF | 0x02);
        assert_eq!(adc.read(ADCSRA_ADDR) & ADIF, 0);
    }

    #[test]
    fn disable_aborts_and_rearms_first_conversion() {
        let mut adc = Adc::default();
        start(&mut adc);
        adc.advance(100);
        start(&mut adc);
        assert_eq!(adc.cycles_to_irq(), Some(52));
        // Clear ADEN but keep ADIE, so `None` can only mean the conversion
        // in flight was aborted.
        adc.write(ADCSRA_ADDR, ADIE);
        assert_eq!(adc.cycles_to_irq(), None);
        assert_eq!(adc.read(ADCSRA_ADDR) & ADSC, 0);
        start(&mut adc);
        assert_eq!(adc.cycles_to_irq(), Some(100), "first conversion again");
    }

    #[test]
    fn reset_keeps_channels() {
        let mut adc = Adc::default();
        adc.channels[2] = 0x123;
        start(&mut adc);
        adc.reset();
        assert_eq!(adc.cycles_to_irq(), None);
        assert_eq!(adc.read(ADCSRA_ADDR), 0);
        assert_eq!(adc.channels[2], 0x123, "analog world survives a reboot");
    }

    #[test]
    fn sample_clamps_to_ten_bits() {
        let mut adc = Adc::default();
        adc.channels[0] = 0xffff;
        start(&mut adc);
        adc.advance(100);
        assert_eq!(adc.read(ADCL_ADDR), 0xff);
        assert_eq!(adc.read(ADCH_ADDR), 0x03);
    }
}
