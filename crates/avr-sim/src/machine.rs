//! The machine: CPU, Harvard memories, and memory-mapped peripherals.

use std::collections::HashSet;

use avr_core::decode::{
    predecode_at, predecode_pages, predecode_patch, PREDECODE_PAGE_WORDS, UNDECODED,
};
use avr_core::device::{Device, ATMEGA2560};
use avr_core::{io, Insn, Predecoded, PtrReg, Reg};

use telemetry::{History, Telemetry, Value};

use crate::adc::{Adc, ADCL_ADDR, ADMUX_ADDR};
use crate::alu;
use crate::blockcache::{observes_cycles, BlockCache, BlockStats, FusedBlock, MicroOp, Mop};
use crate::eeprom::{Eeprom, EEARH_ADDR, EECR_ADDR};
use crate::fault::{Fault, RunExit};
use crate::periph::{
    Heartbeat, PortB, Pwm, Uart, Watchdog, OCR0A_ADDR, OCR0B_ADDR, PORTB_ADDR, UCSR0A_ADDR,
    UDR0_ADDR,
};
use crate::profiler::{CycleProfile, Flow};
use crate::timer::{self, Timer0, TCCR0B_ADDR, TCNT0_ADDR, TIFR0_ADDR, TIMSK0_ADDR};

/// PORTB bit used as the heartbeat signal to the MAVR master processor.
pub const HEARTBEAT_BIT: u8 = 5;

const SPL_DATA: u16 = io::to_data_address(io::SPL);
const SPH_DATA: u16 = io::to_data_address(io::SPH);
const SREG_DATA: u16 = io::to_data_address(io::SREG);
const RAMPZ_DATA: u16 = io::to_data_address(io::RAMPZ);
const EIND_DATA: u16 = io::to_data_address(io::EIND);

/// The recently executed instructions as `(pc bytes, sp)` pairs, oldest
/// first, for post-mortem analysis of crashed (attacked) machines.
pub type Trace = History<(u32, u16)>;

/// A simulated AVR microcontroller.
///
/// Program memory, the linear data space (registers + I/O + SRAM) and the
/// EEPROM are physically separate, exactly as on the part (Fig. 1 of the
/// paper): nothing in the data space is ever executed, and flash can only be
/// changed by the host (playing the role of the programmer/bootloader).
#[derive(Debug, Clone)]
pub struct Machine {
    device: Device,
    flash: Vec<u8>,
    data: Vec<u8>,
    /// The EEPROM and its register interface (persistent configuration;
    /// unaffected by MAVR reflashes).
    pub eeprom: Eeprom,
    pc: u32,
    cycles: u64,
    fault: Option<Fault>,
    breakpoints: HashSet<u32>,
    /// One-instruction interrupt suppression after SREG writes / reti, as
    /// on real silicon ("the instruction following SEI will be executed
    /// before any pending interrupts").
    irq_delay: bool,
    trace: Option<Trace>,
    /// USART0 — the telemetry link to the ground station.
    pub uart0: Uart,
    /// The heartbeat monitor fed by PORTB writes.
    pub heartbeat: Heartbeat,
    /// Watchdog timer (disabled unless enabled by the host).
    pub watchdog: Watchdog,
    /// Timer/Counter0 (overflow interrupt support).
    pub timer0: Timer0,
    /// The ADC — the firmware's window onto the host-side analog world.
    pub adc: Adc,
    /// PWM duty latches (`OCR0A`/`OCR0B`) — the firmware's motor outputs.
    pub pwm: Pwm,
    /// The PORTB output latch (heartbeat pin and friends).
    pub portb: PortB,
    /// Instructions retired since construction (not cleared by [`reset`]).
    ///
    /// [`reset`]: Machine::reset
    pub insns_retired: u64,
    /// Interrupts vectored since construction.
    pub interrupts_taken: u64,
    /// Flight-recorder handle; inert by default. Fault and watchdog events
    /// are emitted here from the cold failure path only, so the hot loop is
    /// unaffected.
    pub telemetry: Telemetry,
    /// Opt-in symbol-attributed cycle profiler (see
    /// [`Machine::enable_cycle_profile`]). Boxed: it is cold and large
    /// relative to the hot machine state.
    cycle_profile: Option<Box<CycleProfile>>,
    /// Predecoded instruction cache, one entry per word of the programmed
    /// extent. Empty means "not built yet": the first fast [`run`] sizes it
    /// to the extent, every slot [`UNDECODED`], and 256-byte pages decode
    /// on first use — at block discovery, or on a fetch miss. Flash writes
    /// patch decoded slots in place, so cached and uncached execution are
    /// bit-for-bit identical.
    ///
    /// [`run`]: Machine::run
    icache: Vec<Predecoded>,
    /// Flash words, from 0, that may hold programmed bytes: every word past
    /// the extent reads erased (`0xffff`). Page-rounded; grown by
    /// [`Machine::load_flash`], zeroed by [`Machine::erase_flash`].
    extent_words: usize,
    /// Whether the predecode cache (and the fast run loop that depends on
    /// it) is enabled. On by default; see [`Machine::set_predecode`].
    predecode: bool,
    /// Fused basic-block cache layered over the icache: superinstruction
    /// records with folded cycle totals, one event check per block. Like
    /// the icache it is pure memoization — lazily built, patched per flash
    /// write, never snapshotted.
    bcache: BlockCache,
    /// Whether block-fused dispatch is enabled (on by default; requires
    /// predecode). See [`Machine::set_block_fusion`].
    block_fusion: bool,
}

/// Snapshot of the machine's activity counters (see [`Machine::counters`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Instructions retired.
    pub insns_retired: u64,
    /// CPU cycles elapsed.
    pub cycles: u64,
    /// Interrupts vectored.
    pub interrupts_taken: u64,
    /// Bytes the UART consumed from the receive queue.
    pub uart_rx_bytes: u64,
    /// Bytes the UART transmitted.
    pub uart_tx_bytes: u64,
    /// EEPROM write operations.
    pub eeprom_writes: u64,
}

impl Machine {
    /// Create a machine for the given device, flash erased to `0xff`.
    pub fn new(device: Device) -> Self {
        let mut m = Machine {
            device,
            flash: vec![0xff; device.flash_bytes as usize],
            data: vec![0; device.sram_start as usize + device.sram_bytes as usize],
            eeprom: Eeprom::new(device.eeprom_bytes as usize),
            pc: 0,
            cycles: 0,
            fault: None,
            breakpoints: HashSet::new(),
            irq_delay: false,
            trace: None,
            uart0: Uart::default(),
            heartbeat: Heartbeat::default(),
            watchdog: Watchdog::default(),
            timer0: Timer0::default(),
            adc: Adc::default(),
            pwm: Pwm::default(),
            portb: PortB::default(),
            insns_retired: 0,
            interrupts_taken: 0,
            telemetry: Telemetry::off(),
            cycle_profile: None,
            icache: Vec::new(),
            extent_words: 0,
            predecode: true,
            bcache: BlockCache::default(),
            block_fusion: true,
        };
        m.set_sp(device.ramend());
        m
    }

    /// Create an ATmega2560 — the APM 2.5 application processor.
    pub fn new_atmega2560() -> Self {
        Machine::new(ATMEGA2560)
    }

    /// The device description.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Copy `bytes` into flash at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the flash size.
    pub fn load_flash(&mut self, addr: u32, bytes: &[u8]) {
        let a = addr as usize;
        self.flash[a..a + bytes.len()].copy_from_slice(bytes);
        if !bytes.is_empty() {
            let end_words =
                (a + bytes.len()).div_ceil(2 * PREDECODE_PAGE_WORDS) * PREDECODE_PAGE_WORDS;
            self.extent_words = self.extent_words.max(end_words);
        }
        // Slots past the table's end join it, undecoded, on the next fast
        // run; only decoded slots need the new bytes now.
        predecode_patch(&mut self.icache, &self.flash, a, bytes.len());
        self.bcache.invalidate_range(a, bytes.len());
    }

    /// Read back flash (the *debug/ISP* view — the MAVR readout-protection
    /// fuse is modelled one level up, in the board crate).
    pub fn flash(&self) -> &[u8] {
        &self.flash
    }

    /// Erase all of flash to `0xff`. The predecode table truncates to the
    /// (now empty) programmed extent, keeping its allocation for the next
    /// image.
    pub fn erase_flash(&mut self) {
        self.flash.fill(0xff);
        self.extent_words = 0;
        self.icache.clear();
        self.bcache.clear(true);
    }

    /// Enable or disable the predecoded instruction cache (on by default).
    ///
    /// The cache is a pure memoization of the decoder: cached and uncached
    /// execution produce identical architectural traces (the differential
    /// tests assert this). Disabling it drops the cache and forces every
    /// fetch through the decoder, which also disables the fast run loop —
    /// useful as the reference side of a differential test.
    pub fn set_predecode(&mut self, on: bool) {
        self.predecode = on;
        if !on {
            self.icache = Vec::new();
            // Blocks are scanned out of the icache; without it they would
            // go stale unnoticed.
            self.bcache.clear(false);
        }
    }

    /// Enable or disable block-fused dispatch (on by default).
    ///
    /// Fusion is a second memoization layer on top of the predecode cache:
    /// straight-line runs become superinstructions with a folded cycle
    /// total and one event-horizon/interrupt check per block. Fused,
    /// predecoded-only (`set_block_fusion(false)`) and uncached
    /// (`set_predecode(false)`) execution produce identical architectural
    /// traces — the three-way differential tests assert it. Disabling drops
    /// the cache.
    pub fn set_block_fusion(&mut self, on: bool) {
        self.block_fusion = on;
        if !on {
            self.bcache.clear(false);
        }
    }

    /// Lifetime block-cache activity: fused dispatches, flash-write
    /// invalidations, and the current live block count.
    pub fn block_stats(&self) -> BlockStats {
        BlockStats {
            hits: self.bcache.hits,
            invalidations: self.bcache.invalidations,
            blocks: self.bcache.live() as u64,
        }
    }

    /// Size the predecode table to the programmed extent; new slots start
    /// undecoded, so this costs a fill, not a decode.
    fn ensure_icache(&mut self) {
        if self.predecode && self.icache.len() < self.extent_words {
            self.icache.resize(self.extent_words, UNDECODED);
        }
    }

    /// Reset the CPU: PC to the reset vector, SP to RAMEND, SREG cleared,
    /// fault cleared. SRAM contents are preserved, as on real silicon.
    pub fn reset(&mut self) {
        self.pc = 0;
        self.fault = None;
        self.data[..32].fill(0);
        self.write_data(SREG_DATA, 0);
        self.set_sp(self.device.ramend());
        self.watchdog = Watchdog::default();
        self.timer0 = Timer0::default();
        // A reset resets the peripheral register interfaces; the PORTB pin
        // latch survives like SRAM (and the heartbeat monitor's level with
        // it), and the ADC keeps its host-side analog inputs.
        self.adc.reset();
        self.pwm.reset();
    }

    // ---- register / flag accessors ----

    /// Read a general-purpose register.
    pub fn reg(&self, r: Reg) -> u8 {
        self.data[r.num() as usize]
    }

    /// Write a general-purpose register.
    pub fn set_reg(&mut self, r: Reg, v: u8) {
        self.data[r.num() as usize] = v;
    }

    /// Read a register pair as little-endian u16 (`low` must be the lower
    /// register of the pair).
    pub fn reg_pair(&self, low: Reg) -> u16 {
        u16::from_le_bytes([self.reg(low), self.data[low.num() as usize + 1]])
    }

    /// Write a register pair.
    pub fn set_reg_pair(&mut self, low: Reg, v: u16) {
        let [lo, hi] = v.to_le_bytes();
        self.data[low.num() as usize] = lo;
        self.data[low.num() as usize + 1] = hi;
    }

    /// Current stack pointer.
    pub fn sp(&self) -> u16 {
        u16::from_le_bytes([self.data[SPL_DATA as usize], self.data[SPH_DATA as usize]])
    }

    /// Set the stack pointer.
    pub fn set_sp(&mut self, sp: u16) {
        let [lo, hi] = sp.to_le_bytes();
        self.data[SPL_DATA as usize] = lo;
        self.data[SPH_DATA as usize] = hi;
    }

    /// Current SREG.
    pub fn sreg(&self) -> u8 {
        self.data[SREG_DATA as usize]
    }

    /// Set SREG.
    pub fn set_sreg(&mut self, v: u8) {
        self.data[SREG_DATA as usize] = v;
    }

    /// Current program counter, in words.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Current program counter, in bytes (as listings show it).
    pub fn pc_bytes(&self) -> u32 {
        self.pc * 2
    }

    /// Jump the PC to a byte address.
    pub fn set_pc_bytes(&mut self, addr: u32) {
        self.pc = addr / 2;
    }

    /// Total executed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The sticky fault, if the machine has crashed.
    pub fn fault(&self) -> Option<Fault> {
        self.fault
    }

    // ---- data space ----

    /// Read a data-space byte (with I/O side effects, e.g. reading `UDR0`
    /// consumes a received byte).
    pub fn read_data(&mut self, addr: u16) -> u8 {
        match addr {
            UCSR0A_ADDR => self.uart0.status(),
            UDR0_ADDR => self.uart0.read_data(),
            EECR_ADDR..=EEARH_ADDR => self.eeprom.read_reg(addr),
            TCNT0_ADDR => self.timer0.tcnt,
            TCCR0B_ADDR => self.timer0.tccr_b,
            TIMSK0_ADDR => self.timer0.timsk,
            TIFR0_ADDR => self.timer0.tifr,
            PORTB_ADDR => self.portb.read(),
            OCR0A_ADDR | OCR0B_ADDR => self.pwm.read(addr),
            ADCL_ADDR..=ADMUX_ADDR => self.adc.read(addr),
            _ => self.data.get(addr as usize).copied().unwrap_or(0),
        }
    }

    /// Inspect a data-space byte with **no** side effects (host/debugger
    /// view, used for the paper's stack dumps in Fig. 6).
    pub fn peek_data(&self, addr: u16) -> u8 {
        self.data.get(addr as usize).copied().unwrap_or(0)
    }

    /// Inspect a range of the data space without side effects.
    pub fn peek_range(&self, addr: u16, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.peek_data(addr.wrapping_add(i as u16)))
            .collect()
    }

    /// Write a data-space byte (with I/O side effects: PORTB writes feed the
    /// heartbeat monitor, `UDR0` writes transmit).
    pub fn write_data(&mut self, addr: u16, v: u8) {
        match addr {
            UDR0_ADDR => self.uart0.write_data(v),
            EECR_ADDR..=EEARH_ADDR => self.eeprom.write_reg(addr, v),
            TCNT0_ADDR => self.timer0.tcnt = v,
            TCCR0B_ADDR => self.timer0.tccr_b = v,
            TIMSK0_ADDR => self.timer0.timsk = v,
            // Writing 1 to a TIFR bit clears it, as on real hardware.
            TIFR0_ADDR => self.timer0.tifr &= !v,
            OCR0A_ADDR | OCR0B_ADDR => self.pwm.write(addr, v),
            ADCL_ADDR..=ADMUX_ADDR => self.adc.write(addr, v),
            PORTB_ADDR => self.store_portb(v, self.cycles),
            _ => {
                if (addr as usize) < self.data.len() {
                    self.data[addr as usize] = v;
                }
            }
        }
    }

    /// The one PORTB store: latch the pin, let the heartbeat monitor
    /// observe it at `cycle`, and mirror it into the data array so
    /// host-side peeks (stack dumps, snapshots of the raw data space) keep
    /// seeing it.
    ///
    /// Kept out of line: a heartbeat store is rare, and inlined into the
    /// fused dispatch's three heartbeat micro-ops it grew `run` by 235
    /// bytes and cost 3-5% of campaign throughput (2-core x86-64 VM).
    #[inline(never)]
    fn store_portb(&mut self, v: u8, cycle: u64) {
        let v = self.portb.write(v);
        self.heartbeat.observe(v, HEARTBEAT_BIT, cycle);
        self.data[PORTB_ADDR as usize] = v;
    }

    /// Host-side poke with no side effects.
    pub fn poke_data(&mut self, addr: u16, v: u8) {
        if addr == PORTB_ADDR {
            // Keep the pin latch coherent with its data-space mirror
            // (silently, without a heartbeat observation).
            self.portb.value = v;
        }
        if (addr as usize) < self.data.len() {
            self.data[addr as usize] = v;
        }
    }

    fn data_in_bounds(&self, addr: u16) -> bool {
        (addr as usize) < self.data.len()
    }

    // ---- breakpoints ----

    /// Set a breakpoint at a byte address.
    pub fn add_breakpoint(&mut self, byte_addr: u32) {
        self.breakpoints.insert(byte_addr / 2);
    }

    /// Remove a breakpoint at a byte address.
    pub fn remove_breakpoint(&mut self, byte_addr: u32) {
        self.breakpoints.remove(&(byte_addr / 2));
    }

    // ---- stack ----

    fn push8(&mut self, v: u8) -> Result<(), Fault> {
        let sp = self.sp();
        if !self.data_in_bounds(sp) {
            return Err(Fault::StackOutOfBounds { sp });
        }
        self.data[sp as usize] = v;
        self.set_sp(sp.wrapping_sub(1));
        Ok(())
    }

    fn pop8(&mut self) -> Result<u8, Fault> {
        let sp = self.sp().wrapping_add(1);
        if !self.data_in_bounds(sp) {
            return Err(Fault::StackOutOfBounds { sp });
        }
        self.set_sp(sp);
        Ok(self.data[sp as usize])
    }

    fn push_pc(&mut self, pc: u32) -> Result<(), Fault> {
        // Low byte first, so the return address sits big-endian in memory.
        self.push8((pc & 0xff) as u8)?;
        self.push8(((pc >> 8) & 0xff) as u8)?;
        if self.device.pc_bytes == 3 {
            self.push8(((pc >> 16) & 0xff) as u8)?;
        }
        Ok(())
    }

    fn pop_pc(&mut self) -> Result<u32, Fault> {
        let mut pc = 0u32;
        if self.device.pc_bytes == 3 {
            pc = u32::from(self.pop8()?) << 16;
        }
        pc |= u32::from(self.pop8()?) << 8;
        pc |= u32::from(self.pop8()?);
        Ok(pc)
    }

    // ---- execution ----

    /// The decoded instruction starting at word address `pc`: out of the
    /// cache when it is built (decoding the slot's page on a miss), straight
    /// from the decoder otherwise — which is also how erased flash past the
    /// programmed extent reads. Both paths share [`predecode_at`]'s edge
    /// semantics (a two-word opcode truncated by the end of flash is
    /// `Invalid`, width 1).
    #[inline]
    fn fetch_at(&mut self, pc: u32) -> Result<Predecoded, Fault> {
        let w = pc as usize;
        if let Some(e) = self.icache.get(w) {
            if !e.is_decoded() {
                predecode_pages(&mut self.icache, &self.flash, w, w + 1);
            }
            return Ok(self.icache[w]);
        }
        if pc >= self.device.flash_words() {
            return Err(Fault::PcOutOfBounds { pc });
        }
        Ok(predecode_at(&self.flash, w))
    }

    /// [`Machine::fetch_at`] off the fast loop's hot path: an undecoded
    /// page, erased flash past the extent (which faults as it executes), or
    /// a PC past the end of flash (which faults here).
    #[cold]
    #[inline(never)]
    fn fetch_miss(&mut self, pc: u32) -> Result<Predecoded, Fault> {
        self.fetch_at(pc)
    }

    /// Width in words of the instruction at word address `pc` (for skips).
    fn width_at(&mut self, pc: u32) -> u32 {
        self.fetch_at(pc).map_or(1, |e| u32::from(e.width))
    }

    /// Whether any modelled interrupt source is pending (ignoring the
    /// global I flag and the one-instruction suppression window).
    #[inline]
    fn irq_source_pending(&self) -> bool {
        self.timer0.irq_pending() || self.adc.irq_pending()
    }

    /// Vector the highest-priority pending interrupt — Timer0 overflow
    /// (vector 23) outranks ADC conversion complete (vector 29), as on the
    /// part: ack its flag, push the PC, clear I and jump to its 4-byte
    /// slot. The caller has established that a source is pending.
    fn vector_pending(&mut self) -> Result<(), Fault> {
        let vector = if self.timer0.irq_pending() {
            self.timer0.ack();
            timer::TIMER0_OVF_VECTOR
        } else {
            self.adc.ack();
            crate::adc::ADC_VECTOR
        };
        self.push_pc(self.pc)?;
        let f = self.sreg() & !(1 << avr_core::sreg::I);
        self.set_sreg(f);
        self.pc = vector * 2;
        self.cycles += 5;
        self.interrupts_taken += 1;
        if let Some(p) = &mut self.cycle_profile {
            p.interrupt(self.pc * 2, 5);
        }
        Ok(())
    }

    /// Advance every cycle-driven peripheral in lockstep. Both advances are
    /// linear, so any partition of a cycle span is bit-identical — the
    /// property every batching layer above (blocks, sync points, tails)
    /// leans on.
    #[inline]
    fn advance_peripherals(&mut self, cycles: u64) {
        self.timer0.advance(cycles);
        self.adc.advance(cycles);
    }

    /// Execute one instruction. Returns the fault if the machine crashed;
    /// the fault is sticky and subsequent calls return it again.
    pub fn step(&mut self) -> Result<(), Fault> {
        if let Some(f) = self.fault {
            return Err(f);
        }
        if self.watchdog.expired(self.cycles) {
            return self.fail(Fault::WatchdogTimeout);
        }
        // Interrupt dispatch: with I set and TIMER0_OVF pending, vector —
        // unless the previous instruction wrote SREG (hardware executes one
        // more instruction first; the frame epilogue's `out SREG` relies on
        // this to protect the following `out SPL`).
        let suppressed = std::mem::replace(&mut self.irq_delay, false);
        if !suppressed && self.sreg() & (1 << avr_core::sreg::I) != 0 && self.irq_source_pending() {
            if let Err(f) = self.vector_pending() {
                return self.fail(f);
            }
        }
        let entry = match self.fetch_at(self.pc) {
            Ok(e) => e,
            Err(f) => return self.fail(f),
        };
        if let Some(t) = &mut self.trace {
            let sp =
                u16::from_le_bytes([self.data[SPL_DATA as usize], self.data[SPH_DATA as usize]]);
            t.push((self.pc * 2, sp));
        }
        let pc0 = self.pc;
        let width = u32::from(entry.width);
        self.pc += width;
        let c0 = self.cycles;
        self.cycles += u64::from(entry.cycles);
        self.insns_retired += 1;
        let result = self.exec(entry.insn, pc0, width);
        self.advance_peripherals(self.cycles - c0);
        if let Some(p) = &mut self.cycle_profile {
            // On a fault the next PC is meaningless; attribute the cycles
            // but don't follow the (never-completed) call or return.
            let flow = if result.is_err() {
                Flow::Straight
            } else if entry.insn.is_call() {
                Flow::Call
            } else if entry.insn.is_return() {
                Flow::Ret
            } else {
                Flow::Straight
            };
            p.record(pc0 * 2, self.cycles - c0, flow, self.pc * 2);
        }
        match result {
            Ok(()) => Ok(()),
            Err(f) => self.fail(f),
        }
    }

    fn fail(&mut self, f: Fault) -> Result<(), Fault> {
        self.fault = Some(f);
        let (pc, sp) = (self.pc, self.sp());
        self.telemetry.emit("sim.fault", Some(self.cycles), || {
            vec![
                ("fault", Value::Str(f.to_string())),
                ("pc", Value::U64(u64::from(pc) * 2)),
                ("sp", Value::U64(u64::from(sp))),
            ]
        });
        Err(f)
    }

    /// Run until the cycle budget is exhausted, a fault occurs, or a
    /// breakpoint is hit (see [`RunExit`] for the exact exit conditions).
    ///
    /// When nothing needs a per-instruction look — no breakpoints, no trace
    /// ring, no profiler, predecode enabled — this dispatches to a fast
    /// inner loop that runs straight-line batches between event horizons;
    /// otherwise it falls back to the careful per-[`step`] loop. Both paths
    /// produce identical architectural traces.
    ///
    /// [`step`]: Machine::step
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        let limit = self.cycles.saturating_add(max_cycles);
        if self.predecode
            && self.breakpoints.is_empty()
            && self.trace.is_none()
            && self.cycle_profile.is_none()
        {
            return self.run_fast(limit);
        }
        while self.cycles < limit {
            if self.breakpoints.contains(&self.pc) {
                return RunExit::Breakpoint { addr: self.pc * 2 };
            }
            if let Err(f) = self.step() {
                return RunExit::Faulted(f);
            }
        }
        RunExit::CyclesExhausted
    }

    /// The fast path of [`run`]: per-step cold checks (breakpoint set,
    /// trace/profile hooks, watchdog margin) are hoisted out of the inner
    /// loop, which runs straight-line until the next *event horizon* — the
    /// earliest cycle at which anything other than plain execution can
    /// happen (cycle budget, watchdog deadline). A `wdr` inside a batch
    /// only moves the deadline later, so a stale horizon merely ends the
    /// batch early and the outer loop recomputes it.
    ///
    /// With block fusion enabled, whole straight-line blocks dispatch as
    /// superinstructions: one interrupt/horizon check per block, entered
    /// only when the block provably ends by the event horizon (see
    /// [`fused_block_at`] for the exactness conditions). Anything that does
    /// not fit — block boundaries, pending-delivery edges, tiny blocks —
    /// falls through to the per-instruction body, which checks interrupt
    /// delivery every step (two loads and a branch).
    ///
    /// [`run`]: Machine::run
    /// [`fused_block_at`]: Machine::fused_block_at
    fn run_fast(&mut self, limit: u64) -> RunExit {
        self.ensure_icache();
        if self.block_fusion {
            self.bcache.ensure(self.icache.len());
        }
        loop {
            if self.cycles >= limit {
                return RunExit::CyclesExhausted;
            }
            if let Some(f) = self.fault {
                return RunExit::Faulted(f);
            }
            if self.watchdog.expired(self.cycles) {
                let _ = self.fail(Fault::WatchdogTimeout);
                return RunExit::Faulted(Fault::WatchdogTimeout);
            }
            let mut horizon = limit;
            if let Some(d) = self.watchdog.deadline() {
                // First expired cycle is deadline + 1 (see Watchdog::expired).
                horizon = horizon.min(d.saturating_add(1));
            }
            while self.cycles < horizon {
                let suppressed = std::mem::replace(&mut self.irq_delay, false);
                let irq_ready = self.data[SREG_DATA as usize] & (1 << avr_core::sreg::I) != 0
                    && self.irq_source_pending();
                if irq_ready && !suppressed {
                    if let Err(f) = self.vector_pending() {
                        let _ = self.fail(f);
                        return RunExit::Faulted(f);
                    }
                }
                // A suppressed pending interrupt delivers after exactly one
                // more instruction; a fused block would overshoot it.
                if self.block_fusion && !(irq_ready && suppressed) {
                    if let Some(b) = self.fused_block_at(self.pc, horizon) {
                        self.bcache.hits += 1;
                        let rem = match self.exec_block(&b) {
                            Ok(rem) => rem,
                            Err(f) => {
                                let _ = self.fail(f);
                                return RunExit::Faulted(f);
                            }
                        };
                        // Terminator tail: the instruction that ended the
                        // block steps in the same dispatch when no boundary
                        // event intervenes. The body cannot set `irq_delay`
                        // (every delay-setting instruction is itself a
                        // terminator), so the full boundary check reduces to
                        // the horizon and a freshly-pending interrupt — the
                        // block's last cycle may have raised the overflow.
                        if self.cycles < horizon
                            && !(self.data[SREG_DATA as usize] & (1 << avr_core::sreg::I) != 0
                                && self.irq_source_pending())
                        {
                            if let Err(f) = self.step_tail(rem) {
                                let _ = self.fail(f);
                                return RunExit::Faulted(f);
                            }
                        } else {
                            self.advance_peripherals(rem);
                        }
                        continue;
                    }
                }
                if let Err(f) = self.step_tail(0) {
                    let _ = self.fail(f);
                    return RunExit::Faulted(f);
                }
            }
        }
    }

    /// Step one instruction through the predecode table with full
    /// per-instruction accounting — the fallback when no fused block
    /// dispatches and the body of a block that runs stepped (`rem` 0), and
    /// the tail step for a block's terminator, where `rem` is the block's
    /// still-owed timer remainder. Pure
    /// control-flow terminators never touch Timer0, so their advance
    /// merges with the remainder into one call; anything that might (an
    /// I/O-dispatching store, an `sbic` probing a timer flag) settles the
    /// remainder first, preserving stepped advance order exactly.
    #[inline]
    fn step_tail(&mut self, rem: u64) -> Result<(), Fault> {
        let entry = match self.icache.get(self.pc as usize) {
            Some(e) if e.is_decoded() => *e,
            _ => match self.fetch_miss(self.pc) {
                Ok(e) => e,
                Err(f) => {
                    self.advance_peripherals(rem);
                    return Err(f);
                }
            },
        };
        let merge = matches!(
            entry.insn,
            Insn::Rjmp { .. }
                | Insn::Jmp { .. }
                | Insn::Ijmp
                | Insn::Eijmp
                | Insn::Brbs { .. }
                | Insn::Brbc { .. }
                | Insn::Ret
                | Insn::Reti
                | Insn::Rcall { .. }
                | Insn::Call { .. }
                | Insn::Icall
                | Insn::Eicall
                | Insn::Cpse { .. }
                | Insn::Sbrc { .. }
                | Insn::Sbrs { .. }
        );
        let rem = if merge {
            rem
        } else {
            self.advance_peripherals(rem);
            0
        };
        let pc0 = self.pc;
        let width = u32::from(entry.width);
        self.pc += width;
        let c0 = self.cycles;
        self.cycles += u64::from(entry.cycles);
        self.insns_retired += 1;
        let result = self.exec(entry.insn, pc0, width);
        self.advance_peripherals(rem + (self.cycles - c0));
        result
    }

    /// The cycle no fused block may run past: the caller's budget/watchdog
    /// `horizon`, lowered — only while I is set — to the next cycle at
    /// which an armed interrupt source (Timer0 overflow, ADC conversion
    /// complete) raises its flag. Instructions that could arm, retime or
    /// unmask a source mid-block (SREG/`sei`, timer- and ADC-block writes)
    /// all end blocks, so the horizon holds for the whole block.
    ///
    /// A block may end *on* an event cycle: the flag its last cycle raises
    /// is seen by the boundary check after the block.
    #[inline]
    fn event_horizon(&self, horizon: u64) -> u64 {
        if self.data[SREG_DATA as usize] & (1 << avr_core::sreg::I) == 0 {
            return horizon;
        }
        [self.timer0.cycles_to_irq(), self.adc.cycles_to_irq()]
            .into_iter()
            .flatten()
            .fold(horizon, |h, t| h.min(self.cycles + t))
    }

    /// The fused block starting at `pc`, if one exists (discovered lazily)
    /// *and* it ends by the [`event_horizon`]: every instruction costs ≥ 1
    /// cycle, so each intermediate boundary sits strictly below the cycle
    /// budget, the watchdog deadline and the next interrupt event, and
    /// dispatching the block whole is identical to stepping it.
    ///
    /// [`event_horizon`]: Machine::event_horizon
    fn fused_block_at(&mut self, pc: u32, horizon: u64) -> Option<FusedBlock> {
        let b = self.bcache.lookup(&mut self.icache, &self.flash, pc)?;
        (self.cycles + u64::from(b.cycles) <= self.event_horizon(horizon)).then_some(b)
    }

    /// Execute a fused block whose entry conditions [`fused_block_at`] has
    /// already established. Compiled blocks run their micro-op stream and
    /// batch *all* per-instruction bookkeeping — `pc`, `cycles`,
    /// `insns_retired`, the peripheral advance — into one update per block
    /// (no micro-op reads the PC, faults, or observes a peripheral without
    /// first syncing it; both advances are linear, so one folded advance is
    /// bit-identical to per-instruction advances). Blocks containing stack
    /// ops first prove the whole SP excursion in bounds — the margin check
    /// — so their pushes and pops cannot fault either. A block that did not
    /// compile, or whose margin check fails, steps its instructions one by
    /// one through [`step_tail`].
    ///
    /// On success returns the block's *unadvanced* peripheral remainder:
    /// the cycles the caller still owes [`advance_peripherals`]. A stepped
    /// block settles its own advances and returns 0; a compiled block
    /// defers its folded advance so the caller can merge it with the
    /// terminator tail's into a single call.
    ///
    /// [`fused_block_at`]: Machine::fused_block_at
    /// [`step_tail`]: Machine::step_tail
    /// [`advance_peripherals`]: Machine::advance_peripherals
    fn exec_block(&mut self, b: &FusedBlock) -> Result<u64, Fault> {
        debug_assert_eq!(self.pc, b.start);
        if b.compiled && (!b.stack || self.sp_margin_ok(b)) {
            // The stream moves out of `self` for the duration of the block
            // so `exec_mop` can borrow `self` mutably; no micro-op can
            // reach the block cache.
            let mops = std::mem::take(&mut self.bcache.mops);
            let at = b.mops as usize;
            let mut synced: u16 = 0;
            for m in &mops[at..at + usize::from(b.mop_len)] {
                self.exec_mop(m, &mut synced);
            }
            self.bcache.mops = mops;
            self.pc += u32::from(b.words);
            self.cycles += u64::from(b.cycles);
            self.insns_retired += u64::from(b.insns);
            // Timer-sync micro-ops already advanced `synced` of the block's
            // cycles; `advance` is linear, so the returned remainder (the
            // caller's to settle — possibly merged with the terminator
            // tail's own advance) completes the exact per-instruction total.
            return Ok(u64::from(b.cycles) - u64::from(synced));
        }
        for _ in 0..b.insns {
            self.step_tail(0)?;
        }
        Ok(0)
    }

    /// Prove every stack access of a compiled block in bounds from the entry
    /// SP: accesses span `sp + sp_lo ..= sp + sp_hi` (the compile-time
    /// excursion), so one range check covers them all.
    fn sp_margin_ok(&self, b: &FusedBlock) -> bool {
        let sp = i32::from(self.sp());
        sp + i32::from(b.sp_lo) >= 0 && sp + i32::from(b.sp_hi) < self.data.len() as i32
    }

    /// Execute one compiled micro-op. Infallible by construction: the
    /// compile pass only emits ops that cannot fault, and the dispatch
    /// margin check discharges the stack ops' bounds obligations. `synced`
    /// tracks how many block-relative cycles the timer has already been
    /// advanced by in-block sync points (see [`Machine::sync_timer`]).
    fn exec_mop(&mut self, m: &MicroOp, synced: &mut u16) {
        let a = usize::from(m.a);
        let b = usize::from(m.b);
        // Register-file/I/O/SREG window: `u8` operands indexing a
        // fixed-size array need no bounds checks on the hot ALU ops.
        let head: &mut [u8; 256] = (&mut self.data[..256])
            .try_into()
            .expect("data space holds at least the I/O window");
        match m.op {
            Mop::Nop => {}

            // ---- ALU, flags live ----
            Mop::Add => mop_alu2(head, a, b, |x, y, f| alu::add8(x, y, false, f)),
            Mop::Adc => {
                let c = head[SREG_IDX] & alu::C != 0;
                mop_alu2(head, a, b, move |x, y, f| alu::add8(x, y, c, f));
            }
            Mop::Sub => mop_alu2(head, a, b, |x, y, f| alu::sub8(x, y, false, false, f)),
            Mop::Sbc => {
                let c = head[SREG_IDX] & alu::C != 0;
                mop_alu2(head, a, b, move |x, y, f| alu::sub8(x, y, c, true, f));
            }
            Mop::And => mop_alu2(head, a, b, |x, y, f| alu::logic8(x & y, f)),
            Mop::Or => mop_alu2(head, a, b, |x, y, f| alu::logic8(x | y, f)),
            Mop::Eor => mop_alu2(head, a, b, |x, y, f| alu::logic8(x ^ y, f)),
            Mop::Cp => {
                let (_, f) = alu::sub8(head[a], head[b], false, false, head[SREG_IDX]);
                head[SREG_IDX] = f;
            }
            Mop::Cpc => {
                let c = head[SREG_IDX] & alu::C != 0;
                let (_, f) = alu::sub8(head[a], head[b], c, true, head[SREG_IDX]);
                head[SREG_IDX] = f;
            }
            Mop::Cpi => {
                let (_, f) = alu::sub8(head[a], m.b, false, false, head[SREG_IDX]);
                head[SREG_IDX] = f;
            }
            Mop::Subi => mop_alu1(head, a, |x, f| alu::sub8(x, m.b, false, false, f)),
            Mop::Sbci => {
                let c = head[SREG_IDX] & alu::C != 0;
                mop_alu1(head, a, move |x, f| alu::sub8(x, m.b, c, true, f));
            }
            Mop::Andi => mop_alu1(head, a, |x, f| alu::logic8(x & m.b, f)),
            Mop::Ori => mop_alu1(head, a, |x, f| alu::logic8(x | m.b, f)),
            Mop::Com => mop_alu1(head, a, alu::com8),
            Mop::Neg => mop_alu1(head, a, alu::neg8),
            Mop::Inc => mop_alu1(head, a, alu::inc8),
            Mop::Dec => mop_alu1(head, a, alu::dec8),
            Mop::Asr => mop_alu1(head, a, alu::asr8),
            Mop::Lsr => mop_alu1(head, a, alu::lsr8),
            Mop::Ror => mop_alu1(head, a, alu::ror8),
            Mop::Mul => mop_mul(head, a, b, false, false, false),
            Mop::Muls => mop_mul(head, a, b, true, true, false),
            Mop::Mulsu => mop_mul(head, a, b, true, false, false),
            Mop::Fmul => mop_mul(head, a, b, false, false, true),
            Mop::Fmuls => mop_mul(head, a, b, true, true, true),
            Mop::Fmulsu => mop_mul(head, a, b, true, false, true),
            Mop::Adiw => {
                let (r, f) = alu::adiw16(pair_at(head, a), m.b, head[SREG_IDX]);
                set_pair_at(head, a, r);
                head[SREG_IDX] = f;
            }
            Mop::Sbiw => {
                let (r, f) = alu::sbiw16(pair_at(head, a), m.b, head[SREG_IDX]);
                set_pair_at(head, a, r);
                head[SREG_IDX] = f;
            }

            // ---- ALU, flags dead ----
            Mop::AddNf => head[a] = head[a].wrapping_add(head[b]),
            Mop::AdcNf => {
                let c = head[SREG_IDX] & alu::C;
                head[a] = head[a].wrapping_add(head[b]).wrapping_add(c);
            }
            Mop::SubNf => head[a] = head[a].wrapping_sub(head[b]),
            Mop::SbcNf => {
                let c = head[SREG_IDX] & alu::C;
                head[a] = head[a].wrapping_sub(head[b]).wrapping_sub(c);
            }
            Mop::AndNf => head[a] &= head[b],
            Mop::OrNf => head[a] |= head[b],
            Mop::EorNf => head[a] ^= head[b],
            Mop::SubiNf => head[a] = head[a].wrapping_sub(m.b),
            Mop::SbciNf => {
                let c = head[SREG_IDX] & alu::C;
                head[a] = head[a].wrapping_sub(m.b).wrapping_sub(c);
            }
            Mop::AndiNf => head[a] &= m.b,
            Mop::OriNf => head[a] |= m.b,
            Mop::ComNf => head[a] = !head[a],
            Mop::NegNf => head[a] = 0u8.wrapping_sub(head[a]),
            Mop::IncNf => head[a] = head[a].wrapping_add(1),
            Mop::DecNf => head[a] = head[a].wrapping_sub(1),
            Mop::AsrNf => head[a] = ((head[a] as i8) >> 1) as u8,
            Mop::LsrNf => head[a] >>= 1,
            Mop::RorNf => {
                let c = head[SREG_IDX] & alu::C;
                head[a] = (head[a] >> 1) | (c << 7);
            }
            Mop::AdiwNf => {
                let r = pair_at(head, a).wrapping_add(u16::from(m.b));
                set_pair_at(head, a, r);
            }
            Mop::SbiwNf => {
                let r = pair_at(head, a).wrapping_sub(u16::from(m.b));
                set_pair_at(head, a, r);
            }

            // ---- moves & SREG bits ----
            Mop::Mov => head[a] = head[b],
            Mop::Movw => {
                let v = pair_at(head, b);
                set_pair_at(head, a, v);
            }
            Mop::Ldi => head[a] = m.b,
            Mop::Swap => head[a] = head[a].rotate_right(4),
            Mop::BsetM => head[SREG_IDX] |= m.a,
            Mop::BclrM => head[SREG_IDX] &= !m.a,
            Mop::Bst => {
                let mut f = head[SREG_IDX] & !alu::T;
                if head[a] & m.b != 0 {
                    f |= alu::T;
                }
                head[SREG_IDX] = f;
            }
            Mop::Bld => {
                if head[SREG_IDX] & alu::T != 0 {
                    head[a] |= m.b;
                } else {
                    head[a] &= !m.b;
                }
            }

            // ---- memory ----
            Mop::Lds => {
                let v = self.read_data(m.k);
                self.data[a] = v;
            }
            Mop::Sts => {
                let v = self.data[a];
                self.write_data(m.k, v);
            }
            Mop::SbiM => {
                let v = self.read_data(m.k) | m.b;
                self.write_data(m.k, v);
            }
            Mop::CbiM => {
                let v = self.read_data(m.k) & !m.b;
                self.write_data(m.k, v);
            }
            Mop::Push => {
                let r = self.push8(self.data[a]);
                debug_assert!(
                    r.is_ok(),
                    "sp-margin-checked push cannot fault: sp={:#x} pc={:#x}",
                    self.sp(),
                    self.pc
                );
                let _ = r;
            }
            Mop::Pop => match self.pop8() {
                Ok(v) => self.data[a] = v,
                Err(_) => debug_assert!(false, "sp-margin-checked pop cannot fault"),
            },
            Mop::Lpm => {
                let z = pair_at(head, 30);
                self.data[a] = self.flash_byte(u32::from(z));
            }
            Mop::LpmInc => {
                let z = pair_at(head, 30);
                set_pair_at(head, 30, z.wrapping_add(1));
                self.data[a] = self.flash_byte(u32::from(z));
            }
            Mop::Elpm => {
                let addr = self.rampz_z();
                self.data[a] = self.flash_byte(addr);
            }
            Mop::ElpmInc => {
                let addr = self.rampz_z();
                self.data[a] = self.flash_byte(addr);
                self.bump_rampz_z();
            }

            // ---- cycle-offset carriers ----
            Mop::LdsT => {
                // Only emitted for cycle-dependent registers (timer block,
                // ADC result/status): always needs the sync.
                self.sync_timer(m.b.into(), synced);
                let v = self.read_data(m.k);
                self.data[a] = v;
            }
            Mop::LdP => {
                let base = usize::from(m.k as u8) & 0x3f;
                let addr = pair_at(head, base);
                self.load_indirect(addr, a, m.b.into(), synced);
            }
            Mop::LdPInc => {
                let base = usize::from(m.k as u8) & 0x3f;
                let addr = pair_at(head, base);
                set_pair_at(head, base, addr.wrapping_add(1));
                self.load_indirect(addr, a, m.b.into(), synced);
            }
            Mop::LdPDec => {
                let base = usize::from(m.k as u8) & 0x3f;
                let addr = pair_at(head, base).wrapping_sub(1);
                set_pair_at(head, base, addr);
                self.load_indirect(addr, a, m.b.into(), synced);
            }
            Mop::LddQ => {
                let base = usize::from(m.k as u8) & 0x3f;
                let addr = pair_at(head, base).wrapping_add(m.k >> 8);
                self.load_indirect(addr, a, m.b.into(), synced);
            }
            Mop::WdrT => self.watchdog.pet(self.cycles + b as u64),
            Mop::StsHb => self.store_portb(self.data[a], self.cycles + b as u64),
            Mop::SbiHb => self.store_portb(self.portb.read() | m.a, self.cycles + b as u64),
            // `a` holds the complement mask (bit already inverted).
            Mop::CbiHb => self.store_portb(self.portb.read() & m.a, self.cycles + b as u64),
        }
    }

    /// Advance the cycle-driven peripherals to block-relative offset `off`
    /// (they are already at `synced`), so the next read observes exactly
    /// what per-instruction stepping would. Both advances are linear, so
    /// splitting the block total into sync points plus a remainder is
    /// bit-identical.
    fn sync_timer(&mut self, off: u16, synced: &mut u16) {
        if off > *synced {
            self.advance_peripherals(u64::from(off - *synced));
            *synced = off;
        }
    }

    /// Indirect-load tail: sync the cycle-driven peripherals first when the
    /// computed address observes elapsed cycles.
    fn load_indirect(&mut self, addr: u16, d: usize, off: u16, synced: &mut u16) {
        if observes_cycles(addr) {
            self.sync_timer(off, synced);
        }
        let v = self.read_data(addr);
        self.data[d] = v;
    }

    fn skip_next(&mut self) {
        let w = self.width_at(self.pc);
        self.pc += w;
        self.cycles += u64::from(w);
    }

    fn exec(&mut self, insn: Insn, pc0: u32, width: u32) -> Result<(), Fault> {
        let next = pc0 + width;
        match insn {
            Insn::Nop | Insn::Sleep | Insn::Spm | Insn::SpmZPostInc => {}
            Insn::Wdr => self.watchdog.pet(self.cycles),
            Insn::Break => return Err(Fault::Break { addr: pc0 * 2 }),
            Insn::Invalid(word) => {
                return Err(Fault::InvalidOpcode {
                    addr: pc0 * 2,
                    word,
                })
            }

            // ---- ALU, two-register ----
            Insn::Add { d, r } => self.alu2(d, r, |a, b, f| alu::add8(a, b, false, f)),
            Insn::Adc { d, r } => {
                let c = self.sreg() & alu::C != 0;
                self.alu2(d, r, move |a, b, f| alu::add8(a, b, c, f))
            }
            Insn::Sub { d, r } => self.alu2(d, r, |a, b, f| alu::sub8(a, b, false, false, f)),
            Insn::Sbc { d, r } => {
                let c = self.sreg() & alu::C != 0;
                self.alu2(d, r, move |a, b, f| alu::sub8(a, b, c, true, f))
            }
            Insn::And { d, r } => self.alu2(d, r, |a, b, f| alu::logic8(a & b, f)),
            Insn::Or { d, r } => self.alu2(d, r, |a, b, f| alu::logic8(a | b, f)),
            Insn::Eor { d, r } => self.alu2(d, r, |a, b, f| alu::logic8(a ^ b, f)),
            Insn::Cp { d, r } => {
                let (_, f) = alu::sub8(self.reg(d), self.reg(r), false, false, self.sreg());
                self.set_sreg(f);
            }
            Insn::Cpc { d, r } => {
                let c = self.sreg() & alu::C != 0;
                let (_, f) = alu::sub8(self.reg(d), self.reg(r), c, true, self.sreg());
                self.set_sreg(f);
            }
            Insn::Mov { d, r } => {
                let v = self.reg(r);
                self.set_reg(d, v);
            }
            Insn::Movw { d, r } => {
                let v = self.reg_pair(r);
                self.set_reg_pair(d, v);
            }

            // ---- immediates ----
            Insn::Ldi { d, k } => self.set_reg(d, k),
            Insn::Cpi { d, k } => {
                let (_, f) = alu::sub8(self.reg(d), k, false, false, self.sreg());
                self.set_sreg(f);
            }
            Insn::Subi { d, k } => self.alu1(d, |a, f| alu::sub8(a, k, false, false, f)),
            Insn::Sbci { d, k } => {
                let c = self.sreg() & alu::C != 0;
                self.alu1(d, move |a, f| alu::sub8(a, k, c, true, f))
            }
            Insn::Ori { d, k } => self.alu1(d, move |a, f| alu::logic8(a | k, f)),
            Insn::Andi { d, k } => self.alu1(d, move |a, f| alu::logic8(a & k, f)),

            // ---- single register ----
            Insn::Com { d } => self.alu1(d, alu::com8),
            Insn::Neg { d } => self.alu1(d, alu::neg8),
            Insn::Swap { d } => {
                let v = self.reg(d);
                self.set_reg(d, v.rotate_right(4));
            }
            Insn::Inc { d } => self.alu1(d, alu::inc8),
            Insn::Dec { d } => self.alu1(d, alu::dec8),
            Insn::Asr { d } => self.alu1(d, alu::asr8),
            Insn::Lsr { d } => self.alu1(d, alu::lsr8),
            Insn::Ror { d } => self.alu1(d, alu::ror8),

            // ---- multiplies ----
            Insn::Mul { d, r } => self.do_mul(d, r, false, false, false),
            Insn::Muls { d, r } => self.do_mul(d, r, true, true, false),
            Insn::Mulsu { d, r } => self.do_mul(d, r, true, false, false),
            Insn::Fmul { d, r } => self.do_mul(d, r, false, false, true),
            Insn::Fmuls { d, r } => self.do_mul(d, r, true, true, true),
            Insn::Fmulsu { d, r } => self.do_mul(d, r, true, false, true),

            // ---- word immediate ----
            Insn::Adiw { d, k } => {
                let (r, f) = alu::adiw16(self.reg_pair(d), k, self.sreg());
                self.set_reg_pair(d, r);
                self.set_sreg(f);
            }
            Insn::Sbiw { d, k } => {
                let (r, f) = alu::sbiw16(self.reg_pair(d), k, self.sreg());
                self.set_reg_pair(d, r);
                self.set_sreg(f);
            }

            // ---- loads & stores ----
            Insn::Ld { d, ptr } => {
                let addr = self.ptr_address(ptr);
                let v = self.read_data(addr);
                self.set_reg(d, v);
            }
            Insn::St { ptr, r } => {
                let v = self.reg(r);
                let addr = self.ptr_address(ptr);
                self.write_data(addr, v);
            }
            Insn::Ldd { d, idx, q } => {
                let base = self.reg_pair(idx.base());
                let v = self.read_data(base.wrapping_add(u16::from(q)));
                self.set_reg(d, v);
            }
            Insn::Std { idx, q, r } => {
                let base = self.reg_pair(idx.base());
                let v = self.reg(r);
                self.write_data(base.wrapping_add(u16::from(q)), v);
            }
            Insn::Lds { d, k } => {
                let v = self.read_data(k);
                self.set_reg(d, v);
            }
            Insn::Sts { k, r } => {
                let v = self.reg(r);
                self.write_data(k, v);
                if k == SREG_DATA {
                    self.irq_delay = true;
                }
            }
            Insn::Lpm { d, post_inc } => {
                let z = self.reg_pair(Reg::R30);
                let v = self.flash_byte(u32::from(z));
                self.set_reg(d, v);
                if post_inc {
                    self.set_reg_pair(Reg::R30, z.wrapping_add(1));
                }
            }
            Insn::Lpm0 => {
                let z = self.reg_pair(Reg::R30);
                let v = self.flash_byte(u32::from(z));
                self.set_reg(Reg::R0, v);
            }
            Insn::Elpm { d, post_inc } => {
                let addr = self.rampz_z();
                let v = self.flash_byte(addr);
                self.set_reg(d, v);
                if post_inc {
                    self.bump_rampz_z();
                }
            }
            Insn::Elpm0 => {
                let addr = self.rampz_z();
                let v = self.flash_byte(addr);
                self.set_reg(Reg::R0, v);
            }
            Insn::Push { r } => {
                let v = self.reg(r);
                self.push8(v)?;
            }
            Insn::Pop { d } => {
                let v = self.pop8()?;
                self.set_reg(d, v);
            }
            Insn::In { d, a } => {
                let v = self.read_data(io::to_data_address(a));
                self.set_reg(d, v);
            }
            Insn::Out { a, r } => {
                let v = self.reg(r);
                self.write_data(io::to_data_address(a), v);
                if a == io::SREG {
                    self.irq_delay = true;
                }
            }

            // ---- control flow ----
            Insn::Jmp { k } => self.pc = k,
            Insn::Rjmp { k } => self.pc = next.wrapping_add_signed(i32::from(k)),
            Insn::Ijmp => self.pc = u32::from(self.reg_pair(Reg::R30)),
            Insn::Eijmp => {
                let eind = u32::from(self.peek_data(EIND_DATA) & 1);
                self.pc = (eind << 16) | u32::from(self.reg_pair(Reg::R30));
            }
            Insn::Call { k } => {
                self.push_pc(next)?;
                self.pc = k;
            }
            Insn::Rcall { k } => {
                self.push_pc(next)?;
                self.pc = next.wrapping_add_signed(i32::from(k));
            }
            Insn::Icall => {
                self.push_pc(next)?;
                self.pc = u32::from(self.reg_pair(Reg::R30));
            }
            Insn::Eicall => {
                self.push_pc(next)?;
                let eind = u32::from(self.peek_data(EIND_DATA) & 1);
                self.pc = (eind << 16) | u32::from(self.reg_pair(Reg::R30));
            }
            Insn::Ret => self.pc = self.pop_pc()?,
            Insn::Reti => {
                self.pc = self.pop_pc()?;
                let f = self.sreg() | (1 << avr_core::sreg::I);
                self.set_sreg(f);
                self.irq_delay = true;
            }
            Insn::Brbs { s, k } => {
                if self.sreg() & (1 << s) != 0 {
                    self.pc = next.wrapping_add_signed(i32::from(k));
                    self.cycles += 1;
                }
            }
            Insn::Brbc { s, k } => {
                if self.sreg() & (1 << s) == 0 {
                    self.pc = next.wrapping_add_signed(i32::from(k));
                    self.cycles += 1;
                }
            }
            Insn::Cpse { d, r } => {
                if self.reg(d) == self.reg(r) {
                    self.skip_next();
                }
            }
            Insn::Sbrc { r, b } => {
                if self.reg(r) & (1 << b) == 0 {
                    self.skip_next();
                }
            }
            Insn::Sbrs { r, b } => {
                if self.reg(r) & (1 << b) != 0 {
                    self.skip_next();
                }
            }
            Insn::Sbic { a, b } => {
                if self.read_data(io::to_data_address(a)) & (1 << b) == 0 {
                    self.skip_next();
                }
            }
            Insn::Sbis { a, b } => {
                if self.read_data(io::to_data_address(a)) & (1 << b) != 0 {
                    self.skip_next();
                }
            }

            // ---- bit ops ----
            Insn::Bset { s } => {
                let f = self.sreg() | (1 << s);
                self.set_sreg(f);
                if s == avr_core::sreg::I {
                    self.irq_delay = true;
                }
            }
            Insn::Bclr { s } => {
                let f = self.sreg() & !(1 << s);
                self.set_sreg(f);
            }
            Insn::Bst { d, b } => {
                let t = self.reg(d) & (1 << b) != 0;
                let mut f = self.sreg() & !alu::T;
                if t {
                    f |= alu::T;
                }
                self.set_sreg(f);
            }
            Insn::Bld { d, b } => {
                let mut v = self.reg(d) & !(1 << b);
                if self.sreg() & alu::T != 0 {
                    v |= 1 << b;
                }
                self.set_reg(d, v);
            }
            Insn::Sbi { a, b } => {
                let addr = io::to_data_address(a);
                let v = self.read_data(addr) | (1 << b);
                self.write_data(addr, v);
            }
            Insn::Cbi { a, b } => {
                let addr = io::to_data_address(a);
                let v = self.read_data(addr) & !(1 << b);
                self.write_data(addr, v);
            }
        }
        Ok(())
    }

    fn alu2(&mut self, d: Reg, r: Reg, op: impl FnOnce(u8, u8, u8) -> (u8, u8)) {
        let (res, f) = op(self.reg(d), self.reg(r), self.sreg());
        self.set_reg(d, res);
        self.set_sreg(f);
    }

    fn alu1(&mut self, d: Reg, op: impl FnOnce(u8, u8) -> (u8, u8)) {
        let (res, f) = op(self.reg(d), self.sreg());
        self.set_reg(d, res);
        self.set_sreg(f);
    }

    fn do_mul(&mut self, d: Reg, r: Reg, sd: bool, sr: bool, fract: bool) {
        let (p, f) = alu::mul16(self.reg(d), self.reg(r), sd, sr, fract, self.sreg());
        self.set_reg_pair(Reg::R0, p);
        self.set_sreg(f);
    }

    fn ptr_address(&mut self, ptr: PtrReg) -> u16 {
        let base = ptr.base();
        match ptr {
            PtrReg::X => self.reg_pair(base),
            PtrReg::XPostInc | PtrReg::YPostInc | PtrReg::ZPostInc => {
                let a = self.reg_pair(base);
                self.set_reg_pair(base, a.wrapping_add(1));
                a
            }
            PtrReg::XPreDec | PtrReg::YPreDec | PtrReg::ZPreDec => {
                let a = self.reg_pair(base).wrapping_sub(1);
                self.set_reg_pair(base, a);
                a
            }
        }
    }

    fn flash_byte(&self, byte_addr: u32) -> u8 {
        self.flash.get(byte_addr as usize).copied().unwrap_or(0xff)
    }

    fn rampz_z(&self) -> u32 {
        (u32::from(self.peek_data(RAMPZ_DATA)) << 16) | u32::from(self.reg_pair(Reg::R30))
    }

    fn bump_rampz_z(&mut self) {
        let a = self.rampz_z().wrapping_add(1);
        self.set_reg_pair(Reg::R30, (a & 0xffff) as u16);
        self.poke_data(RAMPZ_DATA, ((a >> 16) & 0xff) as u8);
    }

    /// Enable instruction tracing with a ring buffer of `capacity` entries.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::with_capacity(capacity));
    }

    /// Disable tracing and drop the buffer.
    pub fn disable_trace(&mut self) {
        self.trace = None;
    }

    /// The trace buffer, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Enable the symbol-attributed cycle profiler over `image`'s symbol
    /// table. Forces the careful per-step loop while active (the fast
    /// event-horizon loop has no per-instruction hook), so expect the
    /// uncached-run throughput until disabled.
    pub fn enable_cycle_profile(&mut self, image: &avr_core::image::FirmwareImage) {
        self.cycle_profile = Some(Box::new(CycleProfile::from_image(image)));
    }

    /// The cycle profile, if enabled.
    pub fn cycle_profile(&self) -> Option<&CycleProfile> {
        self.cycle_profile.as_deref()
    }

    /// Detach and return the cycle profile, disabling further profiling.
    pub fn take_cycle_profile(&mut self) -> Option<CycleProfile> {
        self.cycle_profile.take().map(|b| *b)
    }

    /// Snapshot the activity counters across the core and its peripherals.
    pub fn counters(&self) -> SimCounters {
        SimCounters {
            insns_retired: self.insns_retired,
            cycles: self.cycles,
            interrupts_taken: self.interrupts_taken,
            uart_rx_bytes: self.uart0.rx_bytes,
            uart_tx_bytes: self.uart0.tx_bytes,
            eeprom_writes: self.eeprom.writes,
        }
    }

    // ---- snapshot / restore ----

    /// Capture the complete architectural state of the machine: memories,
    /// CPU registers (which live in the data space), and every peripheral.
    ///
    /// Host-side observability — breakpoints, trace ring, profiler,
    /// telemetry handle, and the predecode cache — is deliberately *not*
    /// part of the state: it does not influence execution (the differential
    /// tests prove the cache is a pure memoization), so two machines that
    /// compare equal here produce identical futures.
    pub fn capture_state(&self) -> MachineState {
        MachineState {
            flash: self.flash.clone(),
            data: self.data.clone(),
            eeprom: self.eeprom.clone(),
            pc: self.pc,
            cycles: self.cycles,
            fault: self.fault,
            irq_delay: self.irq_delay,
            uart0: self.uart0.clone(),
            heartbeat: self.heartbeat.clone(),
            watchdog: self.watchdog,
            timer0: self.timer0,
            adc: self.adc.clone(),
            pwm: self.pwm,
            portb: self.portb,
            insns_retired: self.insns_retired,
            interrupts_taken: self.interrupts_taken,
        }
    }

    /// Replace the architectural state with a snapshot taken by
    /// [`Machine::capture_state`].
    ///
    /// The predecode cache is dropped (it memoizes the *old* flash) and
    /// rebuilt lazily by the next fast run, so restoring is equally correct
    /// under `set_predecode(true)` and `(false)`.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's memory sizes do not match this device.
    pub fn restore_state(&mut self, s: &MachineState) {
        assert_eq!(
            s.flash.len(),
            self.flash.len(),
            "snapshot flash size does not match device"
        );
        assert_eq!(
            s.data.len(),
            self.data.len(),
            "snapshot data-space size does not match device"
        );
        self.flash.copy_from_slice(&s.flash);
        self.data.copy_from_slice(&s.data);
        self.eeprom.clone_from(&s.eeprom);
        self.pc = s.pc;
        self.cycles = s.cycles;
        self.fault = s.fault;
        self.irq_delay = s.irq_delay;
        self.uart0.clone_from(&s.uart0);
        self.heartbeat.clone_from(&s.heartbeat);
        self.watchdog = s.watchdog;
        self.timer0 = s.timer0;
        self.adc.clone_from(&s.adc);
        self.pwm = s.pwm;
        self.portb = s.portb;
        self.insns_retired = s.insns_retired;
        self.interrupts_taken = s.interrupts_taken;
        self.extent_words = self
            .flash
            .iter()
            .rposition(|&b| b != 0xff)
            .map_or(0, |last| {
                (last / (2 * PREDECODE_PAGE_WORDS) + 1) * PREDECODE_PAGE_WORDS
            });
        self.icache.clear();
        self.bcache.clear(false);
    }
}

/// SREG's index inside the head window (`0x5f`, well under 256).
const SREG_IDX: usize = SREG_DATA as usize;

fn mop_alu2(head: &mut [u8; 256], a: usize, b: usize, op: impl FnOnce(u8, u8, u8) -> (u8, u8)) {
    let (r, f) = op(head[a], head[b], head[SREG_IDX]);
    head[a] = r;
    head[SREG_IDX] = f;
}

fn mop_alu1(head: &mut [u8; 256], a: usize, op: impl FnOnce(u8, u8) -> (u8, u8)) {
    let (r, f) = op(head[a], head[SREG_IDX]);
    head[a] = r;
    head[SREG_IDX] = f;
}

fn mop_mul(head: &mut [u8; 256], a: usize, b: usize, sd: bool, sr: bool, fract: bool) {
    let (p, f) = alu::mul16(head[a], head[b], sd, sr, fract, head[SREG_IDX]);
    set_pair_at(head, 0, p);
    head[SREG_IDX] = f;
}

/// Little-endian register-pair read. The index is masked so `a + 1` stays
/// inside the window; pair operands only ever target registers 0..=30.
fn pair_at(head: &[u8; 256], a: usize) -> u16 {
    let a = a & 0x3f;
    u16::from_le_bytes([head[a], head[a + 1]])
}

fn set_pair_at(head: &mut [u8; 256], a: usize, v: u16) {
    let a = a & 0x3f;
    let [lo, hi] = v.to_le_bytes();
    head[a] = lo;
    head[a + 1] = hi;
}

/// Serializable snapshot of a [`Machine`]'s complete architectural state.
///
/// Produced by [`Machine::capture_state`], consumed by
/// [`Machine::restore_state`]; the `snapshot` crate gives it a versioned,
/// CRC-guarded wire format. Two machines restored from equal states run
/// lockstep-identically forever (the snapshot proptests assert this
/// through IRQs, watchdog resets and reflashes).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineState {
    /// Program flash image.
    pub flash: Vec<u8>,
    /// The linear data space: registers, I/O, SRAM.
    pub data: Vec<u8>,
    /// EEPROM array and register state machine.
    pub eeprom: Eeprom,
    /// Program counter, in words.
    pub pc: u32,
    /// Elapsed CPU cycles.
    pub cycles: u64,
    /// Sticky fault, if crashed.
    pub fault: Option<Fault>,
    /// One-instruction interrupt suppression pending (SREG write / reti).
    pub irq_delay: bool,
    /// USART0 buffers and counters.
    pub uart0: Uart,
    /// Heartbeat toggle history.
    pub heartbeat: Heartbeat,
    /// Watchdog configuration.
    pub watchdog: Watchdog,
    /// Timer/Counter0 registers.
    pub timer0: Timer0,
    /// ADC registers, conversion countdown and analog inputs.
    pub adc: Adc,
    /// PWM duty latches.
    pub pwm: Pwm,
    /// PORTB output latch.
    pub portb: PortB,
    /// Instructions retired.
    pub insns_retired: u64,
    /// Interrupts vectored.
    pub interrupts_taken: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_core::encode::encode_to_bytes;

    fn machine_with(prog: &[Insn]) -> Machine {
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &encode_to_bytes(prog).unwrap());
        m
    }

    #[test]
    fn arithmetic_and_store() {
        let mut m = machine_with(&[
            Insn::Ldi { d: Reg::R24, k: 40 },
            Insn::Ldi { d: Reg::R25, k: 2 },
            Insn::Add {
                d: Reg::R24,
                r: Reg::R25,
            },
            Insn::Sts {
                k: 0x0300,
                r: Reg::R24,
            },
            Insn::Break,
        ]);
        let exit = m.run(100);
        assert!(matches!(exit, RunExit::Faulted(Fault::Break { .. })));
        assert_eq!(m.peek_data(0x0300), 42);
    }

    #[test]
    fn adc_poll_loop_is_identical_across_engines() {
        use crate::adc::{ADCH_ADDR, ADCSRA_ADDR, ADLAR, ADMUX_ADDR};
        // Start a conversion on channel 2 (left-adjusted), poll ADSC, read
        // ADCH, store it — the exact idiom the flight firmware uses.
        let prog = [
            Insn::Ldi {
                d: Reg::R24,
                k: ADLAR | 2,
            },
            Insn::Sts {
                k: ADMUX_ADDR,
                r: Reg::R24,
            },
            Insn::Ldi {
                d: Reg::R24,
                k: crate::adc::ADEN | crate::adc::ADSC | 0x02,
            },
            Insn::Sts {
                k: ADCSRA_ADDR,
                r: Reg::R24,
            },
            Insn::Lds {
                d: Reg::R25,
                k: ADCSRA_ADDR,
            },
            Insn::Sbrc { r: Reg::R25, b: 6 },
            Insn::Rjmp { k: -4 },
            Insn::Lds {
                d: Reg::R26,
                k: ADCH_ADDR,
            },
            Insn::Sts {
                k: 0x0400,
                r: Reg::R26,
            },
            Insn::Break,
        ];
        let run_one = |predecode: bool, fusion: bool| {
            let mut m = machine_with(&prog);
            m.set_predecode(predecode);
            m.set_block_fusion(fusion);
            m.adc.channels[2] = 0x2a5;
            let exit = m.run(10_000);
            assert!(matches!(exit, RunExit::Faulted(Fault::Break { .. })));
            m.capture_state()
        };
        let fused = run_one(true, true);
        let predecoded = run_one(true, false);
        let uncached = run_one(false, false);
        assert_eq!(fused.data[0x0400], (0x2a5 >> 2) as u8);
        assert_eq!(fused, predecoded, "fused vs predecoded ADC poll");
        assert_eq!(predecoded, uncached, "predecoded vs uncached ADC poll");
    }

    #[test]
    fn adc_interrupt_vectors_after_conversion() {
        use crate::adc::{ADCSRA_ADDR, ADC_VECTOR, ADEN, ADIE, ADSC};
        // Vector slot 29 holds a jump to a break handler; main enables the
        // ADC interrupt, sets I, and spins.
        let mut m = Machine::new_atmega2560();
        let main = [
            Insn::Ldi {
                d: Reg::R24,
                k: ADEN | ADSC | ADIE | 0x02,
            },
            Insn::Sts {
                k: ADCSRA_ADDR,
                r: Reg::R24,
            },
            Insn::Bset {
                s: avr_core::sreg::I,
            },
            Insn::Rjmp { k: -1 },
        ];
        m.load_flash(ADC_VECTOR * 4, &encode_to_bytes(&[Insn::Break]).unwrap());
        m.load_flash(0x200, &encode_to_bytes(&main).unwrap());
        m.set_pc_bytes(0x200);
        let exit = m.run(10_000);
        assert!(
            matches!(exit, RunExit::Faulted(Fault::Break { .. })),
            "ADC completion must vector to slot 29: {exit:?}"
        );
        assert_eq!(m.interrupts_taken, 1);
    }

    #[test]
    fn call_ret_uses_three_byte_frames() {
        // 0: call 4 ; 2: break ; 3: (pad) ; 4: ret
        let mut m = machine_with(&[Insn::Call { k: 3 }, Insn::Break, Insn::Ret]);
        let sp0 = m.sp();
        assert_eq!(sp0, 0x21ff);
        m.step().unwrap(); // call
        assert_eq!(m.sp(), sp0 - 3, "ATmega2560 pushes 3 PC bytes");
        // Return address 2 sits big-endian at SP+1..SP+3.
        assert_eq!(m.peek_data(m.sp() + 1), 0);
        assert_eq!(m.peek_data(m.sp() + 2), 0);
        assert_eq!(m.peek_data(m.sp() + 3), 2);
        m.step().unwrap(); // ret
        assert_eq!(m.pc(), 2);
        assert_eq!(m.sp(), sp0);
    }

    #[test]
    fn stack_pointer_is_memory_mapped() {
        // The stk_move gadget primitive: out 0x3e/0x3d rewrites SP.
        let mut m = machine_with(&[
            Insn::Ldi {
                d: Reg::R29,
                k: 0x20,
            },
            Insn::Ldi {
                d: Reg::R28,
                k: 0x80,
            },
            Insn::Out {
                a: io::SPH,
                r: Reg::R29,
            },
            Insn::Out {
                a: io::SPL,
                r: Reg::R28,
            },
            Insn::Break,
        ]);
        m.run(100);
        assert_eq!(m.sp(), 0x2080);
    }

    #[test]
    fn registers_are_memory_mapped() {
        // sts into address 5 writes r5 — the paper leans on this.
        let mut m = machine_with(&[
            Insn::Ldi {
                d: Reg::R24,
                k: 0xab,
            },
            Insn::Sts {
                k: 0x0005,
                r: Reg::R24,
            },
            Insn::Break,
        ]);
        m.run(100);
        assert_eq!(m.reg(Reg::R5), 0xab);
    }

    #[test]
    fn invalid_opcode_faults() {
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &[0x01, 0x00]); // 0x0001 is reserved
        let exit = m.run(10);
        assert_eq!(
            exit,
            RunExit::Faulted(Fault::InvalidOpcode {
                addr: 0,
                word: 0x0001
            })
        );
        // Fault is sticky.
        assert!(m.step().is_err());
    }

    #[test]
    fn erased_flash_faults_immediately() {
        // 0xffff is a reserved encoding (sbrs with bit 3 set); executing
        // erased flash is exactly the "executing garbage" crash of §V-D.
        let mut m = Machine::new_atmega2560();
        let exit = m.run(600_000);
        assert_eq!(
            exit,
            RunExit::Faulted(Fault::InvalidOpcode {
                addr: 0,
                word: 0xffff
            })
        );
    }

    #[test]
    fn pc_runs_off_flash_end() {
        // A nop sled to the very end of flash runs the PC out of bounds.
        let mut m = Machine::new_atmega2560();
        let words = m.device().flash_words();
        m.load_flash(0, &vec![0u8; (words * 2) as usize]);
        m.set_pc_bytes(words * 2 - 2);
        let exit = m.run(10);
        assert_eq!(exit, RunExit::Faulted(Fault::PcOutOfBounds { pc: words }));
    }

    #[test]
    fn truncated_two_word_opcode_at_flash_edge() {
        // The first word of `call` in the very last flash word has no second
        // word to fetch: it must decode as an invalid opcode (width 1), not
        // as a call with a fabricated zero operand — with and without the
        // predecode cache.
        for predecode in [true, false] {
            let mut m = Machine::new_atmega2560();
            m.set_predecode(predecode);
            let last = m.device().flash_words() - 1;
            m.load_flash(last * 2, &0x940eu16.to_le_bytes()); // call, word 1 of 2
            m.set_pc_bytes(last * 2);
            let exit = m.run(10);
            assert_eq!(
                exit,
                RunExit::Faulted(Fault::InvalidOpcode {
                    addr: last * 2,
                    word: 0x940e,
                }),
                "predecode={predecode}"
            );
        }
    }

    #[test]
    fn branches_and_loops() {
        // Count r24 from 0 to 5: ldi r24,0 ; inc ; cpi 5 ; brne .-6 ; break
        let mut m = machine_with(&[
            Insn::Ldi { d: Reg::R24, k: 0 },
            Insn::Inc { d: Reg::R24 },
            Insn::Cpi { d: Reg::R24, k: 5 },
            Insn::Brbc { s: 1, k: -3 },
            Insn::Break,
        ]);
        m.run(1000);
        assert_eq!(m.reg(Reg::R24), 5);
    }

    #[test]
    fn skip_over_two_word_insn() {
        // sbrs r24,0 (r24=1 -> skip) over a jmp; lands on ldi.
        let mut m = machine_with(&[
            Insn::Ldi { d: Reg::R24, k: 1 },
            Insn::Sbrs { r: Reg::R24, b: 0 },
            Insn::Jmp { k: 0x100 },
            Insn::Ldi { d: Reg::R25, k: 7 },
            Insn::Break,
        ]);
        m.run(100);
        assert_eq!(m.reg(Reg::R25), 7);
    }

    #[test]
    fn uart_round_trip() {
        // Poll RXC, read UDR0, add 1, write UDR0.
        let mut m = machine_with(&[
            // in r24, UCSR0A(io 0xa0? no—use lds since 0xc0 is ext IO)
            Insn::Lds {
                d: Reg::R24,
                k: UCSR0A_ADDR,
            },
            Insn::Sbrs { r: Reg::R24, b: 7 },
            Insn::Rjmp { k: -3 },
            Insn::Lds {
                d: Reg::R24,
                k: UDR0_ADDR,
            },
            Insn::Inc { d: Reg::R24 },
            Insn::Sts {
                k: UDR0_ADDR,
                r: Reg::R24,
            },
            Insn::Break,
        ]);
        m.uart0.inject(&[41]);
        m.run(1000);
        assert_eq!(m.uart0.take_tx(), vec![42]);
    }

    #[test]
    fn heartbeat_toggles_recorded() {
        let mut m = machine_with(&[
            Insn::Ldi {
                d: Reg::R24,
                k: 1 << HEARTBEAT_BIT,
            },
            Insn::Sts {
                k: PORTB_ADDR,
                r: Reg::R24,
            },
            Insn::Ldi { d: Reg::R24, k: 0 },
            Insn::Sts {
                k: PORTB_ADDR,
                r: Reg::R24,
            },
            Insn::Break,
        ]);
        m.run(100);
        assert_eq!(m.heartbeat.toggles.len(), 2);
    }

    #[test]
    fn watchdog_fires_without_wdr() {
        let mut m = machine_with(&[Insn::Rjmp { k: -1 }]); // tight idle loop
        m.watchdog.enable(100, 0);
        let exit = m.run(10_000);
        assert_eq!(exit, RunExit::Faulted(Fault::WatchdogTimeout));

        let mut m = machine_with(&[Insn::Wdr, Insn::Rjmp { k: -2 }]);
        m.watchdog.enable(100, 0);
        let exit = m.run(10_000);
        assert_eq!(exit, RunExit::CyclesExhausted);
    }

    #[test]
    fn lpm_reads_flash() {
        let mut m = machine_with(&[
            Insn::Ldi {
                d: Reg::R30,
                k: 0x10,
            },
            Insn::Ldi {
                d: Reg::R31,
                k: 0x00,
            },
            Insn::Lpm {
                d: Reg::R24,
                post_inc: true,
            },
            Insn::Lpm {
                d: Reg::R25,
                post_inc: false,
            },
            Insn::Break,
        ]);
        m.load_flash(0x10, &[0xde, 0xad]);
        m.run(100);
        assert_eq!(m.reg(Reg::R24), 0xde);
        assert_eq!(m.reg(Reg::R25), 0xad);
        assert_eq!(m.reg_pair(Reg::R30), 0x11);
    }

    #[test]
    fn elpm_reads_high_flash() {
        let mut m = machine_with(&[
            Insn::Ldi { d: Reg::R24, k: 3 },
            Insn::Sts {
                k: RAMPZ_DATA,
                r: Reg::R24,
            },
            Insn::Ldi {
                d: Reg::R30,
                k: 0x00,
            },
            Insn::Ldi {
                d: Reg::R31,
                k: 0x00,
            },
            Insn::Elpm {
                d: Reg::R24,
                post_inc: false,
            },
            Insn::Break,
        ]);
        m.load_flash(0x30000, &[0x5a]);
        m.run(100);
        assert_eq!(m.reg(Reg::R24), 0x5a);
    }

    #[test]
    fn ijmp_uses_z() {
        let mut m = machine_with(&[
            Insn::Ldi { d: Reg::R30, k: 4 },
            Insn::Ldi { d: Reg::R31, k: 0 },
            Insn::Ijmp,
            Insn::Break, // skipped
            Insn::Ldi { d: Reg::R20, k: 9 },
            Insn::Break,
        ]);
        m.run(100);
        assert_eq!(m.reg(Reg::R20), 9);
    }

    #[test]
    fn breakpoints_pause_without_fault() {
        let mut m = machine_with(&[
            Insn::Ldi { d: Reg::R24, k: 1 },
            Insn::Ldi { d: Reg::R25, k: 2 },
            Insn::Break,
        ]);
        m.add_breakpoint(2);
        let exit = m.run(100);
        assert_eq!(exit, RunExit::Breakpoint { addr: 2 });
        assert_eq!(m.reg(Reg::R24), 1);
        assert_eq!(m.reg(Reg::R25), 0);
        m.remove_breakpoint(2);
        assert!(matches!(m.run(100), RunExit::Faulted(Fault::Break { .. })));
    }

    #[test]
    fn reset_preserves_sram() {
        let mut m = machine_with(&[
            Insn::Ldi {
                d: Reg::R24,
                k: 0x77,
            },
            Insn::Sts {
                k: 0x0500,
                r: Reg::R24,
            },
            Insn::Break,
        ]);
        m.run(100);
        assert!(m.fault().is_some());
        m.reset();
        assert!(m.fault().is_none());
        assert_eq!(m.pc(), 0);
        assert_eq!(m.sp(), 0x21ff);
        assert_eq!(m.peek_data(0x0500), 0x77, "SRAM survives reset");
    }

    #[test]
    fn push_pop_round_trip_pairs() {
        let mut m = machine_with(&[
            Insn::Ldi {
                d: Reg::R24,
                k: 0xaa,
            },
            Insn::Push { r: Reg::R24 },
            Insn::Pop { d: Reg::R0 },
            Insn::Break,
        ]);
        m.run(100);
        assert_eq!(m.reg(Reg::R0), 0xaa);
        assert_eq!(m.sp(), 0x21ff);
    }

    #[test]
    fn timer0_interrupt_vectors_and_returns() {
        use crate::timer::{TCCR0B_ADDR, TIMER0_OVF_VECTOR, TIMSK0_ADDR};
        // Vector table: slot 23 jumps to the ISR; main enables the timer
        // and interrupts, then spins incrementing r20. The ISR increments
        // a counter at 0x0400 and returns.
        let isr_word = 0x80u32; // ISR at byte 0x100
        let main_word = 0x100u32; // main at byte 0x200
        let mut m = Machine::new_atmega2560();
        let jmp_isr = encode_to_bytes(&[Insn::Jmp { k: isr_word }]).unwrap();
        m.load_flash(TIMER0_OVF_VECTOR * 4, &jmp_isr);
        m.load_flash(0, &encode_to_bytes(&[Insn::Jmp { k: main_word }]).unwrap());
        let isr = encode_to_bytes(&[
            Insn::Push { r: Reg::R24 },
            Insn::In {
                d: Reg::R24,
                a: io::SREG,
            },
            Insn::Push { r: Reg::R24 },
            Insn::Lds {
                d: Reg::R24,
                k: 0x0400,
            },
            Insn::Inc { d: Reg::R24 },
            Insn::Sts {
                k: 0x0400,
                r: Reg::R24,
            },
            Insn::Pop { d: Reg::R24 },
            Insn::Out {
                a: io::SREG,
                r: Reg::R24,
            },
            Insn::Pop { d: Reg::R24 },
            Insn::Reti,
        ])
        .unwrap();
        m.load_flash(isr_word * 2, &isr);
        let main = encode_to_bytes(&[
            Insn::Ldi { d: Reg::R24, k: 1 }, // prescale /1
            Insn::Sts {
                k: TCCR0B_ADDR,
                r: Reg::R24,
            },
            Insn::Ldi { d: Reg::R24, k: 1 }, // TOIE0
            Insn::Sts {
                k: TIMSK0_ADDR,
                r: Reg::R24,
            },
            Insn::Bset {
                s: avr_core::sreg::I,
            }, // sei
            // spin
            Insn::Inc { d: Reg::R20 },
            Insn::Rjmp { k: -2 },
        ])
        .unwrap();
        m.load_flash(main_word * 2, &main);
        let exit = m.run(3_000);
        assert_eq!(exit, RunExit::CyclesExhausted, "{:?}", m.fault());
        // ~3000 cycles at /1 prescale = ~11 overflows.
        let isr_count = m.peek_data(0x0400);
        assert!(
            (5..=15).contains(&isr_count),
            "ISR ran {isr_count} times in 3000 cycles"
        );
        // Main kept making progress between interrupts.
        assert!(m.reg(Reg::R20) > 100);
        // SP balanced (no leaked interrupt frames).
        assert_eq!(m.sp(), 0x21ff);
    }

    #[test]
    fn interrupts_masked_when_i_clear() {
        use crate::timer::{TCCR0B_ADDR, TIMSK0_ADDR};
        let mut m = machine_with(&[
            Insn::Ldi { d: Reg::R24, k: 1 },
            Insn::Sts {
                k: TCCR0B_ADDR,
                r: Reg::R24,
            },
            Insn::Sts {
                k: TIMSK0_ADDR,
                r: Reg::R24,
            },
            // I never set: spin.
            Insn::Inc { d: Reg::R20 },
            Insn::Rjmp { k: -2 },
        ]);
        m.run(3_000);
        assert!(m.fault().is_none());
        assert_eq!(m.sp(), 0x21ff, "no interrupt frames without sei");
        assert!(m.timer0.tifr & crate::timer::TOV0 != 0, "flag still pends");
    }

    #[test]
    fn eeprom_register_interface_via_instructions() {
        use crate::eeprom::{EEARL_ADDR, EECR_ADDR, EEDR_ADDR, EEMPE, EEPE, EERE};
        // Write 0x42 to EEPROM[5], read it back — through in/out as
        // firmware does it.
        let mut m = machine_with(&[
            Insn::Ldi { d: Reg::R24, k: 5 },
            Insn::Sts {
                k: EEARL_ADDR,
                r: Reg::R24,
            },
            Insn::Ldi {
                d: Reg::R24,
                k: 0x42,
            },
            Insn::Sts {
                k: EEDR_ADDR,
                r: Reg::R24,
            },
            Insn::Ldi {
                d: Reg::R24,
                k: EEMPE,
            },
            Insn::Sts {
                k: EECR_ADDR,
                r: Reg::R24,
            },
            Insn::Ldi {
                d: Reg::R24,
                k: EEPE,
            },
            Insn::Sts {
                k: EECR_ADDR,
                r: Reg::R24,
            },
            // Clear the data register, then read back.
            Insn::Ldi { d: Reg::R24, k: 0 },
            Insn::Sts {
                k: EEDR_ADDR,
                r: Reg::R24,
            },
            Insn::Ldi {
                d: Reg::R24,
                k: EERE,
            },
            Insn::Sts {
                k: EECR_ADDR,
                r: Reg::R24,
            },
            Insn::Lds {
                d: Reg::R20,
                k: EEDR_ADDR,
            },
            Insn::Break,
        ]);
        m.run(1_000);
        assert_eq!(m.eeprom.bytes[5], 0x42);
        assert_eq!(m.reg(Reg::R20), 0x42);
        assert_eq!(m.eeprom.writes, 1);
    }

    #[test]
    fn trace_records_execution_path() {
        let mut m = machine_with(&[
            Insn::Ldi { d: Reg::R24, k: 1 },
            Insn::Call { k: 4 },
            Insn::Break,
            Insn::Ret, // word 4
        ]);
        m.enable_trace(16);
        m.run(100);
        let pcs: Vec<u32> = m.trace().unwrap().iter().map(|e| e.0).collect();
        assert_eq!(pcs, vec![0, 2, 8, 6], "ldi, call, ret (at byte 8), break");
        assert_eq!(m.trace().unwrap().last().map(|e| e.0), Some(6));
    }

    #[test]
    fn trace_ring_wraps() {
        let mut m = machine_with(&[Insn::Inc { d: Reg::R24 }, Insn::Rjmp { k: -2 }]);
        m.enable_trace(4);
        m.run(100);
        let trace = m.trace().unwrap();
        assert_eq!(trace.len(), 4);
        assert!(trace.evicted() > 0);
        // Only the loop's two addresses appear.
        assert!(trace.iter().all(|(pc, _)| *pc == 0 || *pc == 2));
        m.disable_trace();
        assert!(m.trace().is_none());
    }

    #[test]
    fn cpse_skips_two_word_instruction() {
        let mut m = machine_with(&[
            Insn::Ldi { d: Reg::R24, k: 7 },
            Insn::Ldi { d: Reg::R25, k: 7 },
            Insn::Cpse {
                d: Reg::R24,
                r: Reg::R25,
            },
            Insn::Sts {
                k: 0x0400,
                r: Reg::R24,
            }, // two words, skipped
            Insn::Ldi { d: Reg::R20, k: 1 },
            Insn::Break,
        ]);
        m.run(100);
        assert_eq!(m.peek_data(0x0400), 0, "sts skipped");
        assert_eq!(m.reg(Reg::R20), 1);
    }

    #[test]
    fn bst_bld_move_bits_through_t() {
        let mut m = machine_with(&[
            Insn::Ldi {
                d: Reg::R24,
                k: 0b0000_1000,
            },
            Insn::Bst { d: Reg::R24, b: 3 },
            Insn::Ldi { d: Reg::R25, k: 0 },
            Insn::Bld { d: Reg::R25, b: 6 },
            Insn::Break,
        ]);
        m.run(100);
        assert_eq!(m.reg(Reg::R25), 0b0100_0000);
    }

    #[test]
    fn sbic_skips_on_clear_io_bit() {
        // TIFR0 (io 0x15) starts clear -> sbic skips; after setting TOV0
        // via the timer, sbis skips instead.
        let mut m = machine_with(&[
            Insn::Sbic { a: 0x15, b: 0 },
            Insn::Ldi { d: Reg::R20, k: 1 }, // skipped
            Insn::Ldi { d: Reg::R21, k: 2 },
            Insn::Break,
        ]);
        m.run(100);
        assert_eq!(m.reg(Reg::R20), 0);
        assert_eq!(m.reg(Reg::R21), 2);
    }

    #[test]
    fn swap_and_com() {
        let mut m = machine_with(&[
            Insn::Ldi {
                d: Reg::R24,
                k: 0xa5,
            },
            Insn::Swap { d: Reg::R24 },
            Insn::Com { d: Reg::R24 },
            Insn::Break,
        ]);
        m.run(100);
        assert_eq!(m.reg(Reg::R24), !0x5au8);
    }

    #[test]
    fn cycle_accounting() {
        let mut m = machine_with(&[Insn::Nop, Insn::Call { k: 3 }, Insn::Ret]);
        m.step().unwrap();
        assert_eq!(m.cycles(), 1);
        m.step().unwrap();
        assert_eq!(m.cycles(), 6, "call on 2560 is 5 cycles");
        m.step().unwrap();
        assert_eq!(m.cycles(), 11, "ret on 2560 is 5 cycles");
    }
}
