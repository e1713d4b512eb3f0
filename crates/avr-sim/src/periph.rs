//! Peripheral models: UART, PORTB pin latch, PWM duty latches, heartbeat
//! GPIO, watchdog timer.

use std::collections::VecDeque;

/// Data-space address of `UCSR0A` (USART0 control/status A) on the
/// ATmega2560.
pub const UCSR0A_ADDR: u16 = 0xc0;
/// Data-space address of `UDR0` (USART0 data register).
pub const UDR0_ADDR: u16 = 0xc6;
/// `RXC0` bit of `UCSR0A`: receive complete.
pub const RXC0: u8 = 1 << 7;
/// `UDRE0` bit of `UCSR0A`: data register empty (we model an always-ready
/// transmitter).
pub const UDRE0: u8 = 1 << 5;

/// Data-space address of `PORTB` — the heartbeat pin lives here.
pub const PORTB_ADDR: u16 = 0x25;

/// Data-space address of `OCR0A` — modelled as the motor *thrust* duty
/// latch of the PWM output stage.
pub const OCR0A_ADDR: u16 = 0x47;
/// Data-space address of `OCR0B` — modelled as the motor *pitch-torque*
/// duty latch (centred at `0x80`).
pub const OCR0B_ADDR: u16 = 0x48;

/// The PORTB output latch: a real read/write register, not just a byte in
/// the data array. Firmware reads it back (read-modify-write heartbeat
/// toggles) and the heartbeat monitor observes every write one level up in
/// the machine. Like SRAM, the latch survives a CPU reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortB {
    /// Current pin levels.
    pub value: u8,
}

impl PortB {
    /// Firmware-side read of `PORTB`.
    pub fn read(&self) -> u8 {
        self.value
    }

    /// Firmware-side write of `PORTB`; returns the new level for the
    /// heartbeat monitor to observe.
    pub fn write(&mut self, v: u8) -> u8 {
        self.value = v;
        v
    }
}

/// The PWM output stage: `OCR0A`/`OCR0B` duty-cycle latches on the Timer0
/// path, captured for the world model.
///
/// The latches are zero-order holds: the host (the flight-dynamics
/// integrator) samples them between run slices, so only the *last* write
/// before a sample boundary matters — writes need no cycle stamps, which
/// is what lets them fuse mid-block like ordinary stores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pwm {
    /// `OCR0A` duty latch (thrust, 0..=255).
    pub ocr0a: u8,
    /// `OCR0B` duty latch (pitch torque, centred at 0x80).
    pub ocr0b: u8,
}

impl Pwm {
    /// Firmware-side read of a duty latch.
    pub fn read(&self, addr: u16) -> u8 {
        match addr {
            OCR0A_ADDR => self.ocr0a,
            OCR0B_ADDR => self.ocr0b,
            _ => 0,
        }
    }

    /// Firmware-side write of a duty latch.
    pub fn write(&mut self, addr: u16, v: u8) {
        match addr {
            OCR0A_ADDR => self.ocr0a = v,
            OCR0B_ADDR => self.ocr0b = v,
            _ => {}
        }
    }

    /// Reset both latches (motors cut), as a CPU reset resets the timer's
    /// compare registers.
    pub fn reset(&mut self) {
        *self = Pwm::default();
    }

    /// Thrust duty cycle as a fraction in `[0, 1]`.
    pub fn thrust_duty(&self) -> f64 {
        f64::from(self.ocr0a) / 255.0
    }

    /// Pitch-torque duty as a signed fraction in `[-1, 1]`, centred at
    /// `0x80`.
    pub fn pitch_duty(&self) -> f64 {
        (f64::from(self.ocr0b) - 128.0) / 128.0
    }
}

/// A byte-oriented, polled UART.
///
/// The ground station (or the MAVR master, on the programming link) feeds
/// [`Uart::inject`]; firmware polls `UCSR0A.RXC0` and reads `UDR0`.
/// Transmitted bytes accumulate in [`Uart::take_tx`] for the host to drain.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Uart {
    /// Unread receive queue, front first.
    pub rx: VecDeque<u8>,
    /// Undrained transmit buffer.
    pub tx: Vec<u8>,
    /// Total bytes the firmware has consumed from the receive queue
    /// (monotonic; survives [`Uart::clear`]).
    pub rx_bytes: u64,
    /// Total bytes the firmware has transmitted (monotonic; survives
    /// [`Uart::take_tx`] and [`Uart::clear`]).
    pub tx_bytes: u64,
}

impl Uart {
    /// Queue bytes for the firmware to receive.
    pub fn inject(&mut self, bytes: &[u8]) {
        self.rx.extend(bytes.iter().copied());
    }

    /// Number of bytes waiting to be received.
    pub fn rx_pending(&self) -> usize {
        self.rx.len()
    }

    /// Status byte as seen at `UCSR0A`.
    pub fn status(&self) -> u8 {
        let mut s = UDRE0;
        if !self.rx.is_empty() {
            s |= RXC0;
        }
        s
    }

    /// Firmware-side read of `UDR0`. Reading with an empty queue returns 0,
    /// like reading the data register with no reception on real silicon.
    pub fn read_data(&mut self) -> u8 {
        match self.rx.pop_front() {
            Some(b) => {
                self.rx_bytes += 1;
                b
            }
            None => 0,
        }
    }

    /// Firmware-side write of `UDR0`.
    pub fn write_data(&mut self, byte: u8) {
        self.tx_bytes += 1;
        self.tx.push(byte);
    }

    /// Drain everything the firmware has transmitted so far.
    pub fn take_tx(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.tx)
    }

    /// Discard any unread receive bytes (used on reset).
    pub fn clear(&mut self) {
        self.rx.clear();
        self.tx.clear();
    }
}

/// Records transitions of the heartbeat pin, with cycle timestamps.
///
/// The paper's master processor "listens to the application processor and
/// performs simple timing analysis to determine whether a failed attack has
/// occurred" (§V-A2). This model gives it the raw signal: every toggle of
/// the heartbeat bit on PORTB, timestamped in CPU cycles.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Heartbeat {
    /// Cycle timestamps of every toggle.
    pub toggles: Vec<u64>,
    /// Pin level after the last observed write.
    pub last_level: bool,
}

impl Heartbeat {
    /// Observe a write of `value` to PORTB at time `cycle`.
    pub fn observe(&mut self, value: u8, bit: u8, cycle: u64) {
        let level = value & (1 << bit) != 0;
        if level != self.last_level {
            self.last_level = level;
            self.toggles.push(cycle);
        }
    }

    /// Cycle timestamp of the most recent toggle.
    pub fn last_toggle(&self) -> Option<u64> {
        self.toggles.last().copied()
    }

    /// Largest gap (in cycles) between consecutive toggles after `from`,
    /// including the gap from the final toggle to `now`. `None` if no toggle
    /// has been seen after `from`.
    pub fn max_gap(&self, from: u64, now: u64) -> Option<u64> {
        let mut prev = None;
        let mut max = 0u64;
        for &t in self.toggles.iter().filter(|&&t| t >= from) {
            if let Some(p) = prev {
                max = max.max(t - p);
            }
            prev = Some(t);
        }
        let last = prev?;
        Some(max.max(now.saturating_sub(last)))
    }

    /// Forget all history (used on reset).
    pub fn clear(&mut self) {
        self.toggles.clear();
        self.last_level = false;
    }
}

/// A watchdog timer. Disabled by default; when enabled, the machine faults
/// if `timeout` cycles pass without a `wdr` instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Watchdog {
    /// Timeout in cycles; `None` while disabled.
    pub timeout: Option<u64>,
    /// Cycle of the last `wdr` (or enable).
    pub last_reset: u64,
}

impl Watchdog {
    /// Enable with the given timeout in cycles.
    pub fn enable(&mut self, timeout_cycles: u64, now: u64) {
        self.timeout = Some(timeout_cycles);
        self.last_reset = now;
    }

    /// Disable the watchdog.
    pub fn disable(&mut self) {
        self.timeout = None;
    }

    /// Called when the CPU executes `wdr`.
    pub fn pet(&mut self, now: u64) {
        self.last_reset = now;
    }

    /// Whether the watchdog has expired at time `now`.
    pub fn expired(&self, now: u64) -> bool {
        match self.timeout {
            Some(t) => now.saturating_sub(self.last_reset) > t,
            None => false,
        }
    }

    /// The last cycle at which the watchdog is still satisfied: [`expired`]
    /// is false for `now <= deadline()` and true from `deadline() + 1` on.
    /// `None` while disabled. The fast run loop uses this as an event
    /// horizon; a `wdr` only ever moves the deadline later, so a horizon
    /// computed before the pet is merely conservative.
    ///
    /// [`expired`]: Watchdog::expired
    pub fn deadline(&self) -> Option<u64> {
        self.timeout.map(|t| self.last_reset.saturating_add(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uart_queues() {
        let mut u = Uart::default();
        assert_eq!(u.status() & RXC0, 0);
        assert_ne!(u.status() & UDRE0, 0);
        u.inject(&[1, 2, 3]);
        assert_ne!(u.status() & RXC0, 0);
        assert_eq!(u.read_data(), 1);
        assert_eq!(u.read_data(), 2);
        assert_eq!(u.rx_pending(), 1);
        u.write_data(9);
        u.write_data(8);
        assert_eq!(u.take_tx(), vec![9, 8]);
        assert!(u.take_tx().is_empty());
        assert_eq!(u.read_data(), 3);
        assert_eq!(u.read_data(), 0, "empty queue reads zero");
    }

    #[test]
    fn heartbeat_gap_analysis() {
        let mut hb = Heartbeat::default();
        hb.observe(0x20, 5, 100); // low -> high
        hb.observe(0x20, 5, 150); // no change
        hb.observe(0x00, 5, 200); // high -> low
        hb.observe(0x20, 5, 350);
        assert_eq!(hb.toggles, [100, 200, 350]);
        assert_eq!(hb.max_gap(0, 400), Some(150));
        // Silence after the last toggle dominates.
        assert_eq!(hb.max_gap(0, 1000), Some(650));
        assert_eq!(hb.max_gap(500, 1000), None);
    }

    #[test]
    fn watchdog_expiry() {
        let mut w = Watchdog::default();
        assert!(!w.expired(1_000_000));
        w.enable(100, 0);
        assert!(!w.expired(100));
        assert!(w.expired(101));
        w.pet(90);
        assert!(!w.expired(150));
        w.disable();
        assert!(!w.expired(u64::MAX));
    }

    #[test]
    fn heartbeat_max_gap_no_toggles() {
        let hb = Heartbeat::default();
        assert_eq!(hb.max_gap(0, 1_000_000), None, "silent pin has no gap");
    }

    #[test]
    fn heartbeat_max_gap_from_after_now() {
        let mut hb = Heartbeat::default();
        hb.observe(0x20, 5, 100);
        hb.observe(0x00, 5, 200);
        // `from` beyond every toggle (and beyond `now`): no observation
        // window, so no verdict — the master must not flag a miss here.
        assert_eq!(hb.max_gap(5000, 300), None);
        // Toggle inside the window but `now` earlier than the toggle: the
        // trailing gap saturates to zero rather than wrapping.
        assert_eq!(hb.max_gap(150, 100), Some(0));
    }

    #[test]
    fn heartbeat_max_gap_single_toggle() {
        let mut hb = Heartbeat::default();
        hb.observe(0x20, 5, 400);
        // One toggle: the only gap is toggle -> now.
        assert_eq!(hb.max_gap(0, 1000), Some(600));
        assert_eq!(hb.max_gap(0, 400), Some(0));
    }

    #[test]
    fn watchdog_enable_pet_timeout_sequencing() {
        let mut w = Watchdog::default();
        // Never enabled: never expires.
        w.pet(50);
        assert!(!w.expired(u64::MAX));
        // Enable at t=1000 with a 200-cycle budget.
        w.enable(200, 1000);
        assert!(!w.expired(1000), "fresh enable is not expired");
        assert!(!w.expired(1200), "boundary is inclusive");
        assert!(w.expired(1201));
        // A pet restarts the budget from the pet time.
        w.pet(1150);
        assert!(!w.expired(1350));
        assert!(w.expired(1351));
        // Re-enable resets the deadline even without a pet.
        w.enable(10, 2000);
        assert!(!w.expired(2010));
        assert!(w.expired(2011));
    }

    #[test]
    fn watchdog_deadline_tracks_expiry_boundary() {
        let mut w = Watchdog::default();
        assert_eq!(w.deadline(), None);
        w.enable(200, 1000);
        assert_eq!(w.deadline(), Some(1200));
        assert!(!w.expired(1200));
        assert!(w.expired(1201), "first expired cycle is deadline + 1");
        w.pet(1150);
        assert_eq!(w.deadline(), Some(1350), "pet moves the deadline later");
        w.disable();
        assert_eq!(w.deadline(), None);
    }

    #[test]
    fn portb_latch_reads_back_writes() {
        let mut p = PortB::default();
        assert_eq!(p.read(), 0);
        assert_eq!(p.write(0x25), 0x25);
        assert_eq!(p.read(), 0x25);
    }

    #[test]
    fn pwm_latches_and_duty_mapping() {
        let mut pwm = Pwm::default();
        pwm.write(OCR0A_ADDR, 255);
        pwm.write(OCR0B_ADDR, 128);
        assert_eq!(pwm.read(OCR0A_ADDR), 255);
        assert_eq!(pwm.thrust_duty(), 1.0);
        assert_eq!(pwm.pitch_duty(), 0.0, "0x80 is torque-neutral");
        pwm.write(OCR0B_ADDR, 0);
        assert_eq!(pwm.pitch_duty(), -1.0);
        pwm.reset();
        assert_eq!((pwm.ocr0a, pwm.ocr0b), (0, 0), "reset cuts the motors");
    }

    #[test]
    fn uart_counts_traffic() {
        let mut u = Uart::default();
        u.inject(&[1, 2]);
        u.read_data();
        u.read_data();
        u.read_data(); // empty read does not count
        u.write_data(7);
        u.take_tx();
        u.write_data(8);
        u.clear();
        assert_eq!(u.rx_bytes, 2);
        assert_eq!(u.tx_bytes, 2, "counters are monotonic across drains");
    }
}
