//! Fused basic-block cache backing the block-fused fast run loop.
//!
//! [`avr_core::block`] supplies the generic walker; this module supplies the
//! ATmega2560 *address policy* — which memory effects are safe inside a
//! block — and the cache that maps block-start word addresses to fused
//! records. The policy encodes exactly the hazards the simulator's
//! per-instruction loop re-checks every step:
//!
//! * writes that can change interrupt delivery (`SREG`, which also arms the
//!   one-instruction `irq_delay` window; `TIMSK0`; `sei` via `bset 7`) or
//!   retime the event horizon (`TCCR0B`, `TCNT0`, `TIFR0`) end the block —
//!   the boundary check after the block sees their effect exactly where the
//!   per-instruction loop would;
//! * indirect stores (`st`/`std`) end the block because their target is
//!   unknowable at scan time.
//!
//! Everything else — the overwhelming majority of straight-line code — is
//! *pure*, and pure blocks are **compiled** at discovery: each instruction
//! lowers to a [`MicroOp`] with pre-resolved operands (register numbers,
//! I/O ports rewritten to data addresses, bit indices to masks), and a
//! backward flag-liveness pass over the AVR dataflow rewrites ALU ops whose
//! SREG result is overwritten before any read to flag-free variants — or
//! deletes them outright when (like `cp`/`cpc`) flags were their only
//! effect. This is exact because a pure block can neither fault nor be
//! interrupted mid-block, so intermediate SREG values are unobservable.
//!
//! Three instruction families that look impure compile exactly anyway:
//!
//! * `push`/`pop`: the compiler records the block's stack-pointer
//!   excursion, and dispatch proves the whole excursion in bounds with one
//!   range check (stepping the block through `step_tail` when it
//!   cannot);
//! * loads that may observe elapsed cycles (indirect loads, direct reads
//!   of the timer and ADC registers): their micro-ops carry the cycle
//!   offset of the instructions before them, and the interpreter advances
//!   the peripherals to exactly that point before a read whose address
//!   `observes_cycles` — batching is exact because `Timer0::advance` and
//!   `Adc::advance` are linear;
//! * cycle observers (`wdr` pets, `PORTB` heartbeat stores): their
//!   micro-ops carry the cycle offset *through* themselves, recovering the
//!   exact mid-block cycle count from the block-entry value.
//!
//! The fused dispatch then batches `pc`, `cycles`, `insns_retired` and the
//! (remaining) timer advance to one update per block.

use avr_core::block::{scan_block, structural_end, FuseStep, MAX_BLOCK_WORDS};
use avr_core::decode::predecode_pages;
use avr_core::{io, sreg, Insn, Predecoded, PtrReg, Reg};

use crate::adc::{ADCH_ADDR, ADCL_ADDR, ADCSRA_ADDR, ADMUX_ADDR};
use crate::alu;
use crate::periph::PORTB_ADDR;
use crate::timer::{TCCR0B_ADDR, TCNT0_ADDR, TIFR0_ADDR, TIMSK0_ADDR};

const SREG_DATA: u16 = io::to_data_address(io::SREG);
const SPL_DATA: u16 = io::to_data_address(io::SPL);
const SPH_DATA: u16 = io::to_data_address(io::SPH);

/// Verdict for a data-space *write* to a statically known address. Reads
/// never end a block: a cycle-dependent read compiles to a micro-op that
/// syncs the peripherals first (see [`load_mop`]).
fn write_policy(addr: u16) -> FuseStep {
    match addr {
        // SREG writes arm irq_delay; timer-block writes move the event
        // horizon or the pending-interrupt state. ADC-block writes start
        // conversions (a new event horizon) or change ADIF/ADIE delivery,
        // so they end blocks for exactly the same reason.
        SREG_DATA | TIMSK0_ADDR | TCCR0B_ADDR | TCNT0_ADDR | TIFR0_ADDR => FuseStep::End,
        ADCL_ADDR..=ADMUX_ADDR => FuseStep::End,
        // The heartbeat monitor timestamps PORTB writes with the cycle
        // counter; the compiled micro-op carries the exact offset.
        _ => FuseStep::Fuse,
    }
}

/// The ATmega2560 fusion policy (see the module docs for the rationale).
pub(crate) fn classify(insn: &Insn) -> FuseStep {
    if structural_end(insn) {
        return FuseStep::End;
    }
    match *insn {
        // Unknown store target: could be SREG or the timer block.
        Insn::St { .. } | Insn::Std { .. } => FuseStep::End,
        // `sei` arms the irq_delay window, exactly like an SREG store.
        Insn::Bset { s } if s == sreg::I => FuseStep::End,
        Insn::Sts { k, .. } => write_policy(k),
        Insn::Out { a, .. } | Insn::Sbi { a, .. } | Insn::Cbi { a, .. } => {
            write_policy(io::to_data_address(a))
        }
        // Everything else joins the block: loads (direct or indirect) whose
        // micro-ops sync a cycle-dependent read, stack traffic whose bounds
        // dispatch proves with one range check, `wdr` and heartbeat stores
        // whose micro-ops carry their in-block cycle offset.
        _ => FuseStep::Fuse,
    }
}

/// Micro-operation opcodes for compiled pure blocks.
///
/// `*Nf` variants are the flag-liveness rewrites: same register dataflow,
/// no SREG computation. `Lds`/`Sts` cover `in`/`out` too (ports are
/// rewritten to data addresses at compile time); `Lpm`/`Elpm` cover their
/// `r0`-implicit forms (the destination is pre-resolved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mop {
    /// Compile-time placeholder; never emitted into a stream.
    Nop,
    // ---- ALU, flags live ----
    Add,
    Adc,
    Sub,
    Sbc,
    And,
    Or,
    Eor,
    Cp,
    Cpc,
    Cpi,
    Subi,
    Sbci,
    Andi,
    Ori,
    Com,
    Neg,
    Inc,
    Dec,
    Asr,
    Lsr,
    Ror,
    Mul,
    Muls,
    Mulsu,
    Fmul,
    Fmuls,
    Fmulsu,
    Adiw,
    Sbiw,
    // ---- ALU, flags dead ----
    AddNf,
    AdcNf,
    SubNf,
    SbcNf,
    AndNf,
    OrNf,
    EorNf,
    SubiNf,
    SbciNf,
    AndiNf,
    OriNf,
    ComNf,
    NegNf,
    IncNf,
    DecNf,
    AsrNf,
    LsrNf,
    RorNf,
    AdiwNf,
    SbiwNf,
    // ---- moves, bits, memory ----
    Mov,
    Movw,
    Ldi,
    Swap,
    BsetM,
    BclrM,
    Bst,
    Bld,
    Lds,
    Sts,
    SbiM,
    CbiM,
    Push,
    Pop,
    Lpm,
    LpmInc,
    Elpm,
    ElpmInc,
    // ---- cycle-offset carriers (operand `b` is an in-block offset) ----
    /// Direct load of a cycle-dependent register (timer block, ADC
    /// result/status): sync the peripherals to the offset first.
    LdsT,
    /// Indirect load through a pointer pair (`k` = base register).
    LdP,
    /// Indirect load, post-increment.
    LdPInc,
    /// Indirect load, pre-decrement.
    LdPDec,
    /// Displacement load (`k` = base register | displacement << 8).
    LddQ,
    /// Watchdog pet at the exact mid-block cycle.
    WdrT,
    /// Heartbeat (PORTB) store observed at the exact mid-block cycle.
    StsHb,
    /// Heartbeat (PORTB) bit set, cycle-exact.
    SbiHb,
    /// Heartbeat (PORTB) bit clear, cycle-exact.
    CbiHb,
}

/// One compiled micro-operation: opcode plus pre-resolved operands.
/// `a`/`b` are raw register numbers, immediates or SREG masks depending on
/// the opcode; `k` is a data-space address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MicroOp {
    pub op: Mop,
    pub a: u8,
    pub b: u8,
    pub k: u16,
}

/// A translated instruction with the metadata the liveness pass needs.
struct PureOp {
    mop: MicroOp,
    /// SREG bits this op reads.
    reads: u8,
    /// SREG bits this op (re)computes.
    writes: u8,
    /// Flag-dead rewrite, or [`Mop::Nop`] if none exists.
    nf: Mop,
    /// Flags are the op's *only* effect: delete it outright when dead.
    flag_only: bool,
    /// Stack-pointer delta (-1 push, +1 pop).
    sp: i8,
}

impl PureOp {
    fn new(op: Mop, a: u8, b: u8, k: u16) -> Self {
        PureOp {
            mop: MicroOp { op, a, b, k },
            reads: 0,
            writes: 0,
            nf: Mop::Nop,
            flag_only: false,
            sp: 0,
        }
    }
    fn flags(mut self, reads: u8, writes: u8) -> Self {
        self.reads = reads;
        self.writes = writes;
        self
    }
    fn nf(mut self, nf: Mop) -> Self {
        self.nf = nf;
        self
    }
    fn flag_only(mut self) -> Self {
        self.flag_only = true;
        self
    }
    fn stack(mut self, delta: i8) -> Self {
        self.sp = delta;
        self
    }
}

/// Whether a read of data address `addr` observes elapsed cycles: Timer0's
/// counter and flags, and the ADC's result and status while a conversion
/// runs. A compiled block syncs the peripherals to such a read's own cycle
/// first, whether the address is direct or computed; `ADCSRB` and `ADMUX`
/// hold only what was written.
pub(crate) fn observes_cycles(addr: u16) -> bool {
    matches!(
        addr,
        TCNT0_ADDR | TIFR0_ADDR | ADCL_ADDR | ADCH_ADDR | ADCSRA_ADDR
    )
}

/// Direct load, routed through the timer-sync micro-op when the address
/// observes elapsed cycles.
fn load_mop(d: Reg, k: u16) -> PureOp {
    let op = if observes_cycles(k) {
        Mop::LdsT
    } else {
        Mop::Lds
    };
    PureOp::new(op, d.num(), 0, k).flags(if k == SREG_DATA { 0xff } else { 0 }, 0)
}

/// Direct store, routed through the cycle-exact heartbeat micro-op for
/// PORTB.
fn store_mop(r: Reg, k: u16) -> PureOp {
    let op = if k == PORTB_ADDR {
        Mop::StsHb
    } else {
        Mop::Sts
    };
    PureOp::new(op, r.num(), 0, k)
}

/// Lower one policy-pure instruction to a micro-op. `None` leaves the
/// whole block uncompiled, stepped per instruction through `step_tail` —
/// translation is the authority on what the micro interpreter can run.
fn translate(insn: &Insn) -> Option<PureOp> {
    use Mop as M;
    const ARITH: u8 = alu::C | alu::Z | alu::N | alu::V | alu::S | alu::H;
    const LOGIC: u8 = alu::Z | alu::N | alu::V | alu::S;
    const SHIFT: u8 = alu::C | alu::Z | alu::N | alu::V | alu::S;
    const WORD: u8 = SHIFT;
    const MULF: u8 = alu::C | alu::Z;
    const STICKY: u8 = alu::C | alu::Z;
    let two = |op, d: Reg, r: Reg| PureOp::new(op, d.num(), r.num(), 0);
    let one = |op, d: Reg| PureOp::new(op, d.num(), 0, 0);
    let imm = |op, d: Reg, k: u8| PureOp::new(op, d.num(), k, 0);
    Some(match *insn {
        Insn::Nop => PureOp::new(M::Nop, 0, 0, 0),

        // ---- ALU, two-register ----
        Insn::Add { d, r } => two(M::Add, d, r).flags(0, ARITH).nf(M::AddNf),
        Insn::Adc { d, r } => two(M::Adc, d, r).flags(alu::C, ARITH).nf(M::AdcNf),
        Insn::Sub { d, r } => two(M::Sub, d, r).flags(0, ARITH).nf(M::SubNf),
        Insn::Sbc { d, r } => two(M::Sbc, d, r).flags(STICKY, ARITH).nf(M::SbcNf),
        Insn::And { d, r } => two(M::And, d, r).flags(0, LOGIC).nf(M::AndNf),
        Insn::Or { d, r } => two(M::Or, d, r).flags(0, LOGIC).nf(M::OrNf),
        Insn::Eor { d, r } => two(M::Eor, d, r).flags(0, LOGIC).nf(M::EorNf),
        Insn::Cp { d, r } => two(M::Cp, d, r).flags(0, ARITH).flag_only(),
        Insn::Cpc { d, r } => two(M::Cpc, d, r).flags(STICKY, ARITH).flag_only(),
        Insn::Mov { d, r } => two(M::Mov, d, r),
        Insn::Movw { d, r } => two(M::Movw, d, r),

        // ---- immediates ----
        Insn::Ldi { d, k } => imm(M::Ldi, d, k),
        Insn::Cpi { d, k } => imm(M::Cpi, d, k).flags(0, ARITH).flag_only(),
        Insn::Subi { d, k } => imm(M::Subi, d, k).flags(0, ARITH).nf(M::SubiNf),
        Insn::Sbci { d, k } => imm(M::Sbci, d, k).flags(STICKY, ARITH).nf(M::SbciNf),
        Insn::Ori { d, k } => imm(M::Ori, d, k).flags(0, LOGIC).nf(M::OriNf),
        Insn::Andi { d, k } => imm(M::Andi, d, k).flags(0, LOGIC).nf(M::AndiNf),

        // ---- single register ----
        Insn::Com { d } => one(M::Com, d).flags(0, SHIFT).nf(M::ComNf),
        Insn::Neg { d } => one(M::Neg, d).flags(0, ARITH).nf(M::NegNf),
        Insn::Swap { d } => one(M::Swap, d),
        Insn::Inc { d } => one(M::Inc, d).flags(0, LOGIC).nf(M::IncNf),
        Insn::Dec { d } => one(M::Dec, d).flags(0, LOGIC).nf(M::DecNf),
        Insn::Asr { d } => one(M::Asr, d).flags(0, SHIFT).nf(M::AsrNf),
        Insn::Lsr { d } => one(M::Lsr, d).flags(0, SHIFT).nf(M::LsrNf),
        Insn::Ror { d } => one(M::Ror, d).flags(alu::C, SHIFT).nf(M::RorNf),

        // ---- multiplies (flag recompute is cheap; no NF forms) ----
        Insn::Mul { d, r } => two(M::Mul, d, r).flags(0, MULF),
        Insn::Muls { d, r } => two(M::Muls, d, r).flags(0, MULF),
        Insn::Mulsu { d, r } => two(M::Mulsu, d, r).flags(0, MULF),
        Insn::Fmul { d, r } => two(M::Fmul, d, r).flags(0, MULF),
        Insn::Fmuls { d, r } => two(M::Fmuls, d, r).flags(0, MULF),
        Insn::Fmulsu { d, r } => two(M::Fmulsu, d, r).flags(0, MULF),

        // ---- word immediate ----
        Insn::Adiw { d, k } => imm(M::Adiw, d, k).flags(0, WORD).nf(M::AdiwNf),
        Insn::Sbiw { d, k } => imm(M::Sbiw, d, k).flags(0, WORD).nf(M::SbiwNf),

        // ---- memory (in/out pre-resolved to data addresses) ----
        Insn::Lds { d, k } => load_mop(d, k),
        Insn::Sts { k, r } => store_mop(r, k),
        Insn::In { d, a } => load_mop(d, io::to_data_address(a)),
        Insn::Out { a, r } => store_mop(r, io::to_data_address(a)),
        Insn::Sbi { a, b } => {
            let k = io::to_data_address(a);
            if k == PORTB_ADDR {
                PureOp::new(M::SbiHb, 1 << b, 0, k)
            } else {
                PureOp::new(M::SbiM, 0, 1 << b, k)
            }
        }
        Insn::Cbi { a, b } => {
            let k = io::to_data_address(a);
            if k == PORTB_ADDR {
                PureOp::new(M::CbiHb, !(1u8 << b), 0, k)
            } else {
                PureOp::new(M::CbiM, 0, 1 << b, k)
            }
        }
        // Dynamic-address reads (and pop, whose address is SP-relative) can
        // alias SREG in data space, so they pin every preceding flag write
        // live. Dynamic *writes* to SREG need no modelling: micro-ops write
        // flags through to `data` in program order.
        Insn::Ld { d, ptr } => {
            let op = match ptr {
                PtrReg::X => M::LdP,
                PtrReg::XPostInc | PtrReg::YPostInc | PtrReg::ZPostInc => M::LdPInc,
                PtrReg::XPreDec | PtrReg::YPreDec | PtrReg::ZPreDec => M::LdPDec,
            };
            PureOp::new(op, d.num(), 0, u16::from(ptr.base().num())).flags(0xff, 0)
        }
        Insn::Ldd { d, idx, q } => PureOp::new(
            M::LddQ,
            d.num(),
            0,
            u16::from(idx.base().num()) | (u16::from(q) << 8),
        )
        .flags(0xff, 0),
        Insn::Wdr => PureOp::new(M::WdrT, 0, 0, 0),
        Insn::Push { r } => one(M::Push, r).stack(-1),
        Insn::Pop { d } => one(M::Pop, d).stack(1).flags(0xff, 0),
        Insn::Lpm { d, post_inc } => one(if post_inc { M::LpmInc } else { M::Lpm }, d),
        Insn::Lpm0 => PureOp::new(M::Lpm, 0, 0, 0),
        Insn::Elpm { d, post_inc } => one(if post_inc { M::ElpmInc } else { M::Elpm }, d),
        Insn::Elpm0 => PureOp::new(M::Elpm, 0, 0, 0),

        // ---- SREG bit ops ----
        Insn::Bset { s } => PureOp::new(M::BsetM, 1 << s, 0, 0)
            .flags(0, 1 << s)
            .flag_only(),
        Insn::Bclr { s } => PureOp::new(M::BclrM, 1 << s, 0, 0)
            .flags(0, 1 << s)
            .flag_only(),
        Insn::Bst { d, b } => PureOp::new(M::Bst, d.num(), 1 << b, 0)
            .flags(0, alu::T)
            .flag_only(),
        Insn::Bld { d, b } => PureOp::new(M::Bld, d.num(), 1 << b, 0).flags(alu::T, 0),

        _ => return None,
    })
}

/// Compile a policy-pure block to a micro-op stream: translate every
/// instruction, run backward flag liveness, and record the stack-pointer
/// excursion. Returns `None` (the block is stepped instead) when any
/// instruction fails to translate, or when a stack op follows an SP write — the
/// entry-SP margin proof would not cover it.
fn compile(
    icache: &[Predecoded],
    start: usize,
    insns: u16,
) -> Option<(Vec<MicroOp>, bool, i8, i8)> {
    let mut items: Vec<PureOp> = Vec::with_capacity(usize::from(insns));
    let (mut delta, mut lo, mut hi): (i32, i32, i32) = (0, 0, 0);
    let mut has_stack = false;
    let mut sp_written = false;
    let mut cyc: u32 = 0;
    let mut w = start;
    for _ in 0..insns {
        let e = &icache[w];
        w += usize::from(e.width);
        let before = cyc;
        cyc += u32::from(e.cycles);
        let mut t = translate(&e.insn)?;
        // Cycle-offset carriers: loads sync the timer to the point *before*
        // themselves (the stepping loop advances after exec); cycle
        // observers see the count *through* themselves (the stepping loop
        // charges an instruction's cycles before exec). A block is ≤ 64
        // instructions of ≤ 3 cycles, so offsets fit u8.
        match t.mop.op {
            Mop::LdsT | Mop::LdP | Mop::LdPInc | Mop::LdPDec | Mop::LddQ => t.mop.b = before as u8,
            Mop::WdrT | Mop::StsHb | Mop::SbiHb | Mop::CbiHb => t.mop.b = cyc as u8,
            _ => {}
        }
        match t.sp {
            // Push accesses data[sp + delta], then decrements.
            -1 if !sp_written => {
                has_stack = true;
                lo = lo.min(delta);
                hi = hi.max(delta);
                delta -= 1;
            }
            // Pop increments first, then accesses data[sp + delta + 1].
            1 if !sp_written => {
                has_stack = true;
                lo = lo.min(delta + 1);
                hi = hi.max(delta + 1);
                delta += 1;
            }
            0 => {}
            _ => return None,
        }
        if t.mop.op == Mop::Sts && (t.mop.k == SPL_DATA || t.mop.k == SPH_DATA) {
            sp_written = true;
        }
        items.push(t);
    }
    // Backward flag liveness. Live-out is all bits: the terminator after
    // the block (branch, ret, ...) may read any flag.
    let mut dead = vec![false; items.len()];
    let mut live = 0xffu8;
    for i in (0..items.len()).rev() {
        let t = &items[i];
        dead[i] = t.writes != 0 && t.writes & live == 0;
        live = (live & !t.writes) | t.reads;
    }
    let mut ops = Vec::with_capacity(items.len());
    for (i, t) in items.iter().enumerate() {
        if t.mop.op == Mop::Nop {
            continue;
        }
        if dead[i] {
            if t.flag_only {
                continue;
            }
            if t.nf != Mop::Nop {
                let mut m = t.mop;
                m.op = t.nf;
                ops.push(m);
                continue;
            }
        }
        ops.push(t.mop);
    }
    // Excursion bounds fit i8: a block holds at most 64 stack ops. A
    // lone push has excursion [0, 0] — `has_stack` (not a nonzero bound)
    // is what obliges the dispatch margin check.
    Some((ops, has_stack, lo as i8, hi as i8))
}

/// Index sentinel: the word has not been scanned yet.
const UNDISCOVERED: u32 = u32::MAX;
/// Index sentinel: scanned, but shorter than two instructions — not worth a
/// fused record; the per-instruction path handles it.
const TINY: u32 = u32::MAX - 1;

/// One fused superinstruction: a block's folded totals plus, for compiled
/// blocks, the micro-op stream (a range of [`BlockCache::mops`]). A block
/// that did not compile steps its instructions straight out of the
/// predecode table — overlapping blocks (every skip- or branch-landing
/// inside a run gets its own suffix record) then share the same cache lines
/// instead of each holding a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FusedBlock {
    /// Start word address (the only entry point the cache indexes).
    pub start: u32,
    /// Word span.
    pub words: u16,
    /// Instruction count.
    pub insns: u16,
    /// Folded base-cycle total.
    pub cycles: u32,
    /// Offset of the compiled stream in [`BlockCache::mops`] (compiled only).
    pub mops: u32,
    /// Compiled stream length (≤ `insns`: dead ops are deleted).
    pub mop_len: u16,
    /// Compiled to a micro-op stream (see the module docs).
    pub compiled: bool,
    /// Contains stack ops; dispatch must prove `sp_lo`/`sp_hi` in bounds.
    pub stack: bool,
    /// Lowest SP-relative offset any stack op accesses.
    pub sp_lo: i8,
    /// Highest SP-relative offset any stack op accesses.
    pub sp_hi: i8,
}

/// Lifetime activity counters of a [`BlockCache`] (see
/// [`Machine::block_stats`]).
///
/// [`Machine::block_stats`]: crate::Machine::block_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Fused blocks dispatched (one count per block, not per instruction).
    pub hits: u64,
    /// Fused blocks dropped because a flash write overlapped them.
    pub invalidations: u64,
    /// Live fused blocks currently in the cache.
    pub blocks: u64,
}

/// Map from block-start word address to fused record, built lazily by the
/// fast run loop and patched per flash write. Like the predecode cache it
/// shadows, it is pure memoization: host-only, never snapshotted, rebuilt
/// on demand after `restore_state`.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockCache {
    /// Per flash word: [`UNDISCOVERED`], [`TINY`], or an index into
    /// `blocks`. Empty means the cache is not built.
    index: Vec<u32>,
    blocks: Vec<FusedBlock>,
    /// Arena of compiled micro-op streams, indexed by
    /// [`FusedBlock::mops`]`..+`[`FusedBlock::mop_len`].
    pub mops: Vec<MicroOp>,
    /// Non-tombstoned entries of `blocks`.
    live: usize,
    /// Fused blocks dispatched.
    pub hits: u64,
    /// Fused blocks invalidated by flash writes.
    pub invalidations: u64,
}

impl BlockCache {
    /// Make the index cover `words` flash words — the predecode table's
    /// extent — keeping every block already discovered below it.
    pub fn ensure(&mut self, words: usize) {
        if self.index.len() < words {
            self.index.resize(words, UNDISCOVERED);
        }
    }

    /// Number of live fused blocks.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The fused block starting at word `pc`, discovering it on a miss —
    /// after decoding the predecode pages its scan can reach out of
    /// `flash`. `None` when `pc` is out of range or the block is too small
    /// to fuse.
    pub fn lookup(
        &mut self,
        icache: &mut [Predecoded],
        flash: &[u8],
        pc: u32,
    ) -> Option<FusedBlock> {
        let slot = *self.index.get(pc as usize)?;
        match slot {
            TINY => None,
            UNDISCOVERED => self.discover(icache, flash, pc),
            i => Some(self.blocks[i as usize]),
        }
    }

    #[cold]
    #[inline(never)]
    fn discover(&mut self, icache: &mut [Predecoded], flash: &[u8], pc: u32) -> Option<FusedBlock> {
        // Decode the pages the walk reaches, and only those: an undecoded
        // slot reads as a terminator, so a walk that stops on the next
        // page's first slot decodes that page and walks again. A walk spans
        // at most MAX_BLOCK_WORDS + 1 slots, so it touches two pages at most.
        let w = pc as usize;
        predecode_pages(icache, flash, w, w + 1);
        let mut b = scan_block(icache, w, classify);
        let stop = w + usize::from(b.words);
        if icache.get(stop).is_some_and(|e| !e.is_decoded()) {
            predecode_pages(icache, flash, stop, stop + 1);
            b = scan_block(icache, w, classify);
        }
        let icache = &*icache;
        if b.insns < 1 {
            // A bare terminator: dispatching it as a block would just be
            // stepping with lookup overhead. Single-instruction bodies stay
            // worthwhile because the terminator-tail step rides along.
            self.index[pc as usize] = TINY;
            return None;
        }
        let mut fused = FusedBlock {
            start: pc,
            words: b.words,
            insns: b.insns,
            cycles: b.cycles,
            mops: 0,
            mop_len: 0,
            compiled: false,
            stack: false,
            sp_lo: 0,
            sp_hi: 0,
        };
        // Translation is the authority on compilation: if any instruction
        // resists lowering, the block is stepped per instruction instead.
        if let Some((ops, has_stack, lo, hi)) = compile(icache, pc as usize, b.insns) {
            fused.compiled = true;
            fused.mops = self.mops.len() as u32;
            fused.mop_len = ops.len() as u16;
            fused.stack = has_stack;
            fused.sp_lo = lo;
            fused.sp_hi = hi;
            self.mops.extend_from_slice(&ops);
        }
        let id = self.blocks.len() as u32;
        self.blocks.push(fused);
        self.live += 1;
        self.index[pc as usize] = id;
        Some(fused)
    }

    /// Invalidate every block overlapping the flash write of `len` bytes at
    /// byte address `addr`. Mirrors `predecode_patch`'s range semantics: the
    /// patched word range is widened one word left (a changed word may be
    /// the second word of its predecessor), and block starts are scanned up
    /// to [`MAX_BLOCK_WORDS`] − 1 words further left, the farthest a block
    /// can begin and still reach the patch.
    pub fn invalidate_range(&mut self, addr: usize, len: usize) {
        if self.index.is_empty() || len == 0 {
            return;
        }
        let plo = (addr / 2).saturating_sub(1);
        let phi = ((addr + len - 1) / 2).min(self.index.len() - 1);
        let scan_lo = plo.saturating_sub(usize::from(MAX_BLOCK_WORDS) - 1);
        for s in scan_lo..=phi {
            match self.index[s] {
                UNDISCOVERED => {}
                // A tiny verdict depends on the words following `s` too
                // (the first terminator may have moved), so any scan-range
                // hit is conservatively rescanned.
                TINY => {
                    self.index[s] = UNDISCOVERED;
                }
                i => {
                    let b = &self.blocks[i as usize];
                    if s + usize::from(b.words) > plo {
                        self.index[s] = UNDISCOVERED;
                        self.live -= 1;
                        self.invalidations += 1;
                    }
                }
            }
        }
        // Tombstoned records (and their dead micro-op ranges) leak until
        // enough accumulate; then drop everything and rebuild lazily.
        if self.blocks.len() >= 64 && self.live * 2 < self.blocks.len() {
            self.drop_cache();
        }
    }

    /// Drop every block (flash erased, state restored, fusion toggled). The
    /// lifetime counters survive; `erased` says whether the drop should be
    /// charged to `invalidations` (a flash mutation) or not (a host-side
    /// reconfiguration).
    pub fn clear(&mut self, erased: bool) {
        if erased {
            self.invalidations += self.live as u64;
        }
        self.drop_cache();
    }

    fn drop_cache(&mut self) {
        self.index.clear();
        self.blocks.clear();
        self.mops.clear();
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_core::decode::UNDECODED;
    use avr_core::encode::encode;
    use avr_core::Reg;

    fn table(insns: &[Insn]) -> Vec<Predecoded> {
        let bytes: Vec<u8> = insns
            .iter()
            .flat_map(|i| encode(i).unwrap())
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let mut table = vec![UNDECODED; bytes.len() / 2];
        predecode_pages(&mut table, &bytes, 0, usize::MAX);
        table
    }

    #[test]
    fn policy_ends_on_irq_and_timer_hazards() {
        // SREG writes (direct, out, sei) and timer-block writes end blocks.
        assert_eq!(
            classify(&Insn::Sts {
                k: SREG_DATA,
                r: Reg::R0
            }),
            FuseStep::End
        );
        assert_eq!(
            classify(&Insn::Out {
                a: io::SREG,
                r: Reg::R0
            }),
            FuseStep::End
        );
        assert_eq!(classify(&Insn::Bset { s: sreg::I }), FuseStep::End);
        for k in [TIMSK0_ADDR, TCCR0B_ADDR, TCNT0_ADDR, TIFR0_ADDR] {
            assert_eq!(classify(&Insn::Sts { k, r: Reg::R0 }), FuseStep::End);
        }
        // TIFR0 is within sbi/cbi range (io 0x15): write-one-to-clear.
        assert_eq!(classify(&Insn::Sbi { a: 0x15, b: 0 }), FuseStep::End);
        assert_eq!(classify(&Insn::Cbi { a: 0x15, b: 0 }), FuseStep::End);
        // ADC-block writes start conversions or change delivery state.
        for k in [ADCL_ADDR, ADCH_ADDR, ADCSRA_ADDR, ADMUX_ADDR] {
            assert_eq!(classify(&Insn::Sts { k, r: Reg::R0 }), FuseStep::End);
        }
        // Indirect stores could hit any of the above.
        assert_eq!(
            classify(&Insn::St {
                ptr: avr_core::PtrReg::X,
                r: Reg::R0
            }),
            FuseStep::End
        );
    }

    #[test]
    fn policy_fuses_reads_stack_ops_and_observers() {
        // cli is safe (it can only stop delivery, never start it mid-block).
        // Reads never end a block, cycle-dependent ones included: their
        // micro-ops sync the peripherals first. Heartbeat stores carry
        // their cycle offset in the micro-op; stack ops are proved by the
        // dispatch margin check.
        for i in [
            Insn::Bclr { s: sreg::I },
            Insn::In {
                d: Reg::R0,
                a: 0x26,
            },
            Insn::Lds {
                d: Reg::R0,
                k: TCNT0_ADDR,
            },
            Insn::Lds {
                d: Reg::R0,
                k: ADCL_ADDR,
            },
            Insn::Lds {
                d: Reg::R0,
                k: ADCH_ADDR,
            },
            Insn::Lds {
                d: Reg::R0,
                k: ADCSRA_ADDR,
            },
            Insn::Ld {
                d: Reg::R0,
                ptr: avr_core::PtrReg::X,
            },
            Insn::Sts {
                k: PORTB_ADDR,
                r: Reg::R0,
            },
            // PORTB as io (0x05) — distinct from TCCR0B's data address 0x25.
            Insn::Out {
                a: 0x05,
                r: Reg::R0,
            },
            Insn::Ldi { d: Reg::R16, k: 1 },
            Insn::Add {
                d: Reg::R0,
                r: Reg::R1,
            },
            Insn::Lds {
                d: Reg::R0,
                k: 0x300,
            },
            Insn::Sts {
                k: 0x300,
                r: Reg::R0,
            },
            Insn::Lpm0,
            Insn::Nop,
            Insn::Push { r: Reg::R0 },
            Insn::Pop { d: Reg::R0 },
        ] {
            assert_eq!(classify(&i), FuseStep::Fuse, "{i:?}");
        }
    }

    #[test]
    fn lookup_discovers_and_memoizes() {
        let mut t = table(&[
            Insn::Ldi { d: Reg::R16, k: 1 },
            Insn::Ldi { d: Reg::R17, k: 2 },
            Insn::Add {
                d: Reg::R16,
                r: Reg::R17,
            },
            Insn::Ret,
        ]);
        let mut c = BlockCache::default();
        c.ensure(t.len());
        let b = c.lookup(&mut t, &[], 0).unwrap();
        assert_eq!((b.insns, b.words, b.cycles), (3, 3, 3));
        assert!(b.compiled);
        assert_eq!(b.mop_len, 3, "three live micro-ops");
        assert_eq!(c.live(), 1);
        // Memoized: same record back.
        assert_eq!(c.lookup(&mut t, &[], 0), Some(b));
        // Entering mid-block creates an overlapping (shorter) block.
        let b2 = c.lookup(&mut t, &[], 1).unwrap();
        assert_eq!(b2.insns, 2);
        assert_eq!(c.live(), 2);
        // A one-instruction tail still fuses (its terminator tail-steps in
        // the same dispatch); a terminator start is empty and stays tiny.
        let b3 = c.lookup(&mut t, &[], 2).unwrap();
        assert_eq!(b3.insns, 1);
        assert_eq!(c.live(), 3);
        assert_eq!(c.lookup(&mut t, &[], 3), None);
        assert_eq!(c.lookup(&mut t, &[], 100), None, "out of range");
    }

    #[test]
    fn lazily_decoded_pages_discover_the_blocks_a_full_table_does() {
        // Straight-line code (with a two-word lds every few words, so
        // blocks straddle page edges at every alignment) over three pages,
        // then a terminator. Discovery on an undecoded table must decode
        // exactly what its walks reach and find the same blocks.
        use avr_core::decode::PREDECODE_PAGE_WORDS as PAGE;
        let mut insns = Vec::new();
        while insns.len() < 3 * PAGE - 2 {
            insns.push(if insns.len() % 7 == 3 {
                Insn::Lds {
                    d: Reg::R24,
                    k: 0x300,
                }
            } else {
                Insn::Inc { d: Reg::R24 }
            });
        }
        insns.push(Insn::Ret);
        let flash: Vec<u8> = insns
            .iter()
            .flat_map(|i| encode(i).unwrap())
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let mut full = table(&insns);
        let (mut lazy_cache, mut full_cache) = (BlockCache::default(), BlockCache::default());
        for pc in [0, 1, PAGE - 1, PAGE - 2, PAGE, 2 * PAGE - 1, 2 * PAGE + 5] {
            let mut lazy = vec![UNDECODED; full.len()];
            for c in [&mut lazy_cache, &mut full_cache] {
                c.drop_cache();
                c.ensure(full.len());
            }
            let pc = pc as u32;
            assert_eq!(
                lazy_cache.lookup(&mut lazy, &flash, pc),
                full_cache.lookup(&mut full, &flash, pc),
                "block at {pc}"
            );
            // Only the start page, and the next one when the walk reached it.
            let decoded = lazy.iter().filter(|e| e.is_decoded()).count();
            assert!(decoded == PAGE || decoded == 2 * PAGE, "pc {pc}: {decoded}");
        }
    }

    #[test]
    fn invalidate_drops_overlapping_blocks_only() {
        let mut insns = vec![
            Insn::Ldi { d: Reg::R16, k: 1 },
            Insn::Ldi { d: Reg::R17, k: 2 },
            Insn::Ret,
        ];
        insns.extend([
            Insn::Ldi { d: Reg::R18, k: 3 },
            Insn::Ldi { d: Reg::R19, k: 4 },
            Insn::Ret,
        ]);
        let mut t = table(&insns);
        let mut c = BlockCache::default();
        c.ensure(t.len());
        c.lookup(&mut t, &[], 0).unwrap();
        c.lookup(&mut t, &[], 3).unwrap();
        assert_eq!(c.live(), 2);
        // Patch word 4 (byte 8): only the second block overlaps.
        c.invalidate_range(8, 2);
        assert_eq!(c.live(), 1);
        assert_eq!(c.invalidations, 1);
        assert!(c.lookup(&mut t, &[], 0).is_some(), "first block survives");
    }

    #[test]
    fn clear_charges_only_flash_mutations() {
        let mut t = table(&[Insn::Ldi { d: Reg::R16, k: 1 }, Insn::Nop, Insn::Ret]);
        let mut c = BlockCache::default();
        c.ensure(t.len());
        c.lookup(&mut t, &[], 0).unwrap();
        c.clear(false);
        assert_eq!(c.invalidations, 0, "host reconfiguration is free");
        assert!(c.index.is_empty(), "clear drops the table");
        c.ensure(t.len());
        c.lookup(&mut t, &[], 0).unwrap();
        let hits_before = c.hits;
        c.clear(true);
        assert_eq!(c.invalidations, 1, "erase charges the live count");
        assert_eq!(c.hits, hits_before, "hits survive clears");
    }

    #[test]
    fn compile_deletes_dead_flag_ops_and_rewrites_nf() {
        // cp's flags are fully recomputed by subi before anything reads
        // them; subi's own flags die into the second subi. Only the last
        // op's flags survive to the terminator.
        let mut t = table(&[
            Insn::Cp {
                d: Reg::R0,
                r: Reg::R1,
            },
            Insn::Subi { d: Reg::R16, k: 1 },
            Insn::Subi { d: Reg::R17, k: 2 },
            Insn::Ret,
        ]);
        let mut c = BlockCache::default();
        c.ensure(t.len());
        let b = c.lookup(&mut t, &[], 0).unwrap();
        assert!(b.compiled);
        assert_eq!((b.insns, b.mop_len), (3, 2), "cp deleted outright");
        let ops = &c.mops[b.mops as usize..b.mops as usize + usize::from(b.mop_len)];
        assert_eq!(ops[0].op, Mop::SubiNf, "dead flags: flag-free rewrite");
        assert_eq!(ops[1].op, Mop::Subi, "live-out flags stay exact");
    }

    #[test]
    fn compile_keeps_flags_live_across_readers() {
        // adc reads C: the add before it must stay flagged.
        let mut t = table(&[
            Insn::Add {
                d: Reg::R0,
                r: Reg::R2,
            },
            Insn::Adc {
                d: Reg::R1,
                r: Reg::R3,
            },
            Insn::Ret,
        ]);
        let mut c = BlockCache::default();
        c.ensure(t.len());
        let b = c.lookup(&mut t, &[], 0).unwrap();
        let ops = &c.mops[b.mops as usize..b.mops as usize + usize::from(b.mop_len)];
        assert_eq!(ops[0].op, Mop::Add);
        assert_eq!(ops[1].op, Mop::Adc);
    }

    #[test]
    fn compile_keeps_flags_live_across_dynamic_reads() {
        // An indirect load can alias SREG in data space (X = 0x5f reads the
        // flags as a plain byte), so `cp` must survive even though `sub`
        // recomputes every flag before the terminator.
        let mut t = table(&[
            Insn::Cp {
                d: Reg::R0,
                r: Reg::R1,
            },
            Insn::Ld {
                d: Reg::R2,
                ptr: avr_core::PtrReg::X,
            },
            Insn::Sub {
                d: Reg::R3,
                r: Reg::R4,
            },
            Insn::Ret,
        ]);
        let mut c = BlockCache::default();
        c.ensure(t.len());
        let b = c.lookup(&mut t, &[], 0).unwrap();
        assert!(b.compiled);
        assert_eq!(b.mop_len, 3, "cp is pinned live by the dynamic read");
        let ops = &c.mops[b.mops as usize..b.mops as usize + usize::from(b.mop_len)];
        assert_eq!(ops[0].op, Mop::Cp);
        assert_eq!(ops[1].op, Mop::LdP);
    }

    #[test]
    fn compile_records_stack_excursion() {
        let mut t = table(&[
            Insn::Push { r: Reg::R0 },
            Insn::Push { r: Reg::R1 },
            Insn::Pop { d: Reg::R2 },
            Insn::Ret,
        ]);
        let mut c = BlockCache::default();
        c.ensure(t.len());
        let b = c.lookup(&mut t, &[], 0).unwrap();
        assert!(b.compiled && b.stack);
        // Accesses at sp+0 (push), sp-1 (push), sp-1 (pop).
        assert_eq!((b.sp_lo, b.sp_hi), (-1, 0));
    }

    #[test]
    fn compile_demotes_stack_ops_after_sp_write() {
        // `out SPL, r28` retargets the stack; a later push would escape the
        // entry-SP margin proof, so the block must be stepped, not compiled.
        let mut t = table(&[
            Insn::Out {
                a: io::SPL,
                r: Reg::R28,
            },
            Insn::Push { r: Reg::R0 },
            Insn::Ret,
        ]);
        let mut c = BlockCache::default();
        c.ensure(t.len());
        let b = c.lookup(&mut t, &[], 0).unwrap();
        assert!(!b.compiled, "SP write before a stack op demotes the block");
    }

    #[test]
    fn translate_resolves_io_and_sreg_reads() {
        let t = translate(&Insn::In {
            d: Reg::R0,
            a: io::SREG,
        })
        .unwrap();
        assert_eq!((t.mop.op, t.mop.k), (Mop::Lds, SREG_DATA));
        assert_eq!(t.reads, 0xff, "reading SREG keeps every flag live");
        let t = translate(&Insn::Out {
            a: 0x12,
            r: Reg::R5,
        })
        .unwrap();
        assert_eq!((t.mop.op, t.mop.k), (Mop::Sts, io::to_data_address(0x12)));
    }
}
