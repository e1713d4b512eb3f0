//! Timer/Counter0 — the 8-bit timer whose overflow interrupt paces real
//! autopilot firmware (the paper's "numerous interrupts with strict
//! timetables", §III).
//!
//! Modelled subset: the clock-select bits of `TCCR0B`, the counter
//! `TCNT0`, the overflow flag `TOV0` in `TIFR0`, and the overflow
//! interrupt enable `TOIE0` in `TIMSK0`.

/// Data-space address of `TIFR0`.
pub const TIFR0_ADDR: u16 = 0x35;
/// Data-space address of `TCCR0B`.
pub const TCCR0B_ADDR: u16 = 0x45;
/// Data-space address of `TCNT0`.
pub const TCNT0_ADDR: u16 = 0x46;
/// Data-space address of `TIMSK0`.
pub const TIMSK0_ADDR: u16 = 0x6e;
/// `TOV0` / `TOIE0` bit.
pub const TOV0: u8 = 1 << 0;

/// Interrupt vector index of TIMER0 OVF on the ATmega2560.
pub const TIMER0_OVF_VECTOR: u32 = 23;

/// Timer/Counter0 state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timer0 {
    /// `TCNT0` counter value.
    pub tcnt: u8,
    /// `TCCR0B` clock-select field (we honour bits 2:0).
    pub tccr_b: u8,
    /// `TIMSK0` (bit 0 = TOIE0).
    pub timsk: u8,
    /// `TIFR0` (bit 0 = TOV0).
    pub tifr: u8,
    /// Accumulated CPU cycles not yet converted into timer ticks.
    pub residual: u64,
}

impl Timer0 {
    /// Prescaler divisor for the current clock-select bits; `None` when the
    /// timer is stopped.
    pub fn prescale(&self) -> Option<u64> {
        match self.tccr_b & 0x07 {
            1 => Some(1),
            2 => Some(8),
            3 => Some(64),
            4 => Some(256),
            5 => Some(1024),
            _ => None, // stopped (0) or external clock (6, 7 — unmodelled)
        }
    }

    /// Advance by `cycles` CPU cycles, setting `TOV0` on overflow.
    pub fn advance(&mut self, cycles: u64) {
        let Some(div) = self.prescale() else {
            return;
        };
        self.residual += cycles;
        let ticks = self.residual / div;
        self.residual %= div;
        if ticks == 0 {
            return;
        }
        let total = u64::from(self.tcnt) + ticks;
        if total > 0xff {
            self.tifr |= TOV0;
        }
        self.tcnt = (total & 0xff) as u8;
    }

    /// Whether an overflow interrupt is pending (flag set and enabled).
    pub fn irq_pending(&self) -> bool {
        self.tifr & TOV0 != 0 && self.timsk & TOV0 != 0
    }

    /// CPU cycles until [`advance`] would next set `TOV0`, given the current
    /// counter, prescaler and residual, while the overflow can interrupt
    /// (`TOIE0` set; the caller checks the global I flag); `None` while the
    /// interrupt is masked or the timer is stopped. The fast run loop's
    /// event horizon for Timer0 — exact only until firmware rewrites
    /// `TCNT0`, `TCCR0B` or `TIMSK0`.
    ///
    /// [`advance`]: Timer0::advance
    pub fn cycles_to_irq(&self) -> Option<u64> {
        if self.timsk & TOV0 == 0 {
            return None;
        }
        let div = self.prescale()?;
        let ticks = 256 - u64::from(self.tcnt);
        Some((ticks * div).saturating_sub(self.residual))
    }

    /// Acknowledge the overflow interrupt (hardware clears TOV0 on entry).
    pub fn ack(&mut self) {
        self.tifr &= !TOV0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopped_timer_never_ticks() {
        let mut t = Timer0::default();
        t.advance(1_000_000);
        assert_eq!(t.tcnt, 0);
        assert_eq!(t.tifr & TOV0, 0);
    }

    #[test]
    fn div64_overflow_period() {
        let mut t = Timer0 {
            tccr_b: 3,
            ..Default::default()
        };
        // 256 ticks * 64 cycles = 16384 cycles per overflow.
        t.advance(16_383);
        assert_eq!(t.tifr & TOV0, 0);
        t.advance(64);
        assert_ne!(t.tifr & TOV0, 0);
    }

    #[test]
    fn residual_cycles_accumulate() {
        let mut t = Timer0 {
            tccr_b: 3,
            ..Default::default()
        };
        for _ in 0..64 {
            t.advance(1);
        }
        assert_eq!(t.tcnt, 1, "64 one-cycle steps = one div-64 tick");
    }

    #[test]
    fn cycles_to_irq_predicts_advance() {
        let mut t = Timer0 {
            timsk: TOV0,
            ..Default::default()
        };
        assert_eq!(t.cycles_to_irq(), None, "stopped timer has no event");
        t.tccr_b = 3; // div 64
        t.tcnt = 254;
        assert_eq!(t.cycles_to_irq(), Some(2 * 64));
        t.timsk = 0;
        assert_eq!(t.cycles_to_irq(), None, "masked overflow is no event");
        t.timsk = TOV0;
        t.advance(64); // one tick: residual consumed, tcnt -> 255
        assert_eq!(t.cycles_to_irq(), Some(64));
        t.advance(63);
        assert_eq!(t.cycles_to_irq(), Some(1), "residual counts down");
        assert_eq!(t.tifr & TOV0, 0);
        t.advance(1);
        assert_ne!(t.tifr & TOV0, 0, "overflow exactly at the horizon");
    }

    #[test]
    fn irq_gating() {
        let mut t = Timer0 {
            tccr_b: 1,
            ..Default::default()
        };
        t.advance(256);
        assert!(t.tifr & TOV0 != 0);
        assert!(!t.irq_pending(), "masked while TOIE0 clear");
        t.timsk = TOV0;
        assert!(t.irq_pending());
        t.ack();
        assert!(!t.irq_pending());
    }
}
