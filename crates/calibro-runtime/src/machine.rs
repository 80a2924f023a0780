//! The AArch64 interpreter: architectural state, instruction semantics,
//! runtime-native dispatch, and cycle/residency accounting.

use std::collections::HashMap;

use calibro_isa::{Cond, Insn, PairMode, Reg};

use crate::cost::CostModel;
use crate::memory::Memory;

/// Simulated address-space layout.
pub mod addr {
    /// The thread structure pointed to by `x19`.
    pub const THREAD_BASE: u64 = 0x7000_0000;
    /// `ArtMethod` records.
    pub const ART_METHODS_BASE: u64 = 0x7100_0000;
    /// The `ArtMethod*` table.
    pub const METHOD_TABLE_BASE: u64 = 0x7200_0000;
    /// Static field area.
    pub const STATICS_BASE: u64 = 0x7300_0000;
    /// Heap bump-allocation base (kept below 4 GiB so object pointers
    /// survive 32-bit register homes).
    pub const HEAP_BASE: u64 = 0x1000_0000;
    /// Initial stack pointer.
    pub const STACK_BASE: u64 = 0x7f00_0000;
    /// Lowest legal stack address; probes below throw stack overflow.
    pub const STACK_LIMIT: u64 = STACK_BASE - 0x4_0000;
    /// Runtime entrypoints live here; `pc` in this range dispatches to
    /// native Rust handlers.
    pub const NATIVE_BASE: u64 = 0xf000_0000;
    /// Return address sentinel marking the end of the outermost frame.
    pub const RETURN_SENTINEL: u64 = 0xffff_fff0;
}

/// Native entrypoint ids (slot order mirrors
/// [`calibro_codegen::layout::ENTRYPOINT_SLOTS`]).
pub mod native_id {
    /// `pAllocObjectResolved`.
    pub const ALLOC: u64 = 0;
    /// Throw `ArithmeticException`.
    pub const THROW_DIV_ZERO: u64 = 1;
    /// Throw `NullPointerException`.
    pub const THROW_NPE: u64 = 2;
    /// Deliver an explicit exception.
    pub const DELIVER: u64 = 3;
    /// JNI bridge.
    pub const BRIDGE: u64 = 4;
}

/// Why execution stopped abnormally (a simulator-level error, not a Java
/// exception).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trap {
    /// The pc landed on a word that does not decode — the embedded-data
    /// hazard the paper's metadata exists to prevent.
    ExecutedData(u64),
    /// The pc left the text.
    BadPc(u64),
    /// A `brk` was executed (unreachable guard reached — a codegen or
    /// outlining bug).
    Brk(u16),
    /// The step budget ran out.
    StepLimit,
    /// An unknown native id was called.
    BadNative(u64),
}

impl core::fmt::Display for Trap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Trap::ExecutedData(pc) => write!(f, "executed non-instruction word at {pc:#x}"),
            Trap::BadPc(pc) => write!(f, "pc {pc:#x} outside mapped code"),
            Trap::Brk(imm) => write!(f, "brk #{imm:#x} executed"),
            Trap::StepLimit => f.write_str("step budget exhausted"),
            Trap::BadNative(id) => write!(f, "unknown native id {id}"),
        }
    }
}

impl std::error::Error for Trap {}

/// A Java-level exception observed by the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThrowKind {
    /// Division by zero.
    DivZero,
    /// Null receiver.
    NullPointer,
    /// Explicit `throw` with its value.
    Explicit(i32),
    /// The Figure 4c probe hit the redzone.
    StackOverflow,
}

/// How an invocation finished.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecOutcome {
    /// Normal return with `x0`.
    Returned(i32),
    /// An exception unwound to the top frame.
    Threw(ThrowKind),
}

/// A registered Java-native (JNI) implementation.
#[derive(Clone, Copy)]
pub struct NativeMethod {
    /// Number of `i32` arguments taken from `x1..`.
    pub arity: usize,
    /// The implementation.
    pub func: fn(&[i32]) -> i32,
}

impl core::fmt::Debug for NativeMethod {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "NativeMethod(arity={})", self.arity)
    }
}

/// The simulated CPU plus memory.
pub struct Machine {
    regs: [u64; 31],
    sp: u64,
    pc: u64,
    n: bool,
    z: bool,
    c: bool,
    v: bool,
    /// Memory (text, thread struct, heap, stack, statics).
    pub mem: Memory,
    decoded: Vec<Option<Insn>>,
    text_base: u64,
    /// Per-word owner (method index, `u32::MAX` for thunks/outlined).
    owner: Vec<u32>,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Cycles attributed per method (`len == methods + 1`; the last slot
    /// aggregates thunks, outlined functions and runtime natives).
    pub method_cycles: Vec<u64>,
    natives: HashMap<u32, NativeMethod>,
    class_sizes: Vec<u64>,
    heap_next: u64,
    /// Number of objects allocated so far.
    pub heap_allocs: u64,
    /// Instructions executed.
    pub steps: u64,
    current_owner: usize,
}

enum Control {
    Next,
    Jump(u64),
}

impl Machine {
    /// Creates a machine executing `words` loaded at `text_base`.
    /// `owner[w]` attributes word `w` to a method index (or `u32::MAX`).
    #[must_use]
    pub fn new(
        words: &[u32],
        text_base: u64,
        owner: Vec<u32>,
        num_methods: usize,
        class_sizes: Vec<u64>,
        natives: HashMap<u32, NativeMethod>,
        icache: bool,
    ) -> Machine {
        assert_eq!(owner.len(), words.len());
        let decoded = words.iter().map(|&w| calibro_isa::decode(w).ok()).collect();
        let mut mem = Memory::new();
        // Map the text so literal-pool loads read real bytes.
        for (i, w) in words.iter().enumerate() {
            mem.write_u32(text_base + i as u64 * 4, *w);
        }
        Machine {
            regs: [0; 31],
            sp: addr::STACK_BASE,
            pc: 0,
            n: false,
            z: false,
            c: false,
            v: false,
            mem,
            decoded,
            text_base,
            owner,
            cost: CostModel::new(icache),
            method_cycles: vec![0; num_methods + 1],
            natives,
            class_sizes,
            heap_next: addr::HEAP_BASE,
            heap_allocs: 0,
            steps: 0,
            current_owner: num_methods,
        }
    }

    fn r(&self, reg: Reg) -> u64 {
        if reg.is_reg31() {
            0
        } else {
            self.regs[reg.index() as usize]
        }
    }

    fn r32(&self, reg: Reg) -> u32 {
        self.r(reg) as u32
    }

    fn set(&mut self, reg: Reg, value: u64, wide: bool) {
        if !reg.is_reg31() {
            self.regs[reg.index() as usize] = if wide { value } else { u64::from(value as u32) };
        }
    }

    /// Base-register read where encoding 31 means SP.
    fn base(&self, reg: Reg) -> u64 {
        if reg.is_reg31() {
            self.sp
        } else {
            self.regs[reg.index() as usize]
        }
    }

    fn set_base(&mut self, reg: Reg, value: u64) {
        if reg.is_reg31() {
            self.sp = value;
        } else {
            self.regs[reg.index() as usize] = value;
        }
    }

    /// Reads a register for an invocation setup.
    #[must_use]
    pub fn reg(&self, index: u8) -> u64 {
        self.r(Reg::new(index))
    }

    /// Writes a register (used by the runtime to stage arguments).
    pub fn set_reg(&mut self, index: u8, value: u64) {
        assert!(index < 31);
        self.regs[index as usize] = value;
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Sets the stack pointer.
    pub fn set_sp(&mut self, sp: u64) {
        self.sp = sp;
    }

    /// Current bump-allocator watermark (heap bytes in use).
    #[must_use]
    pub fn heap_used(&self) -> u64 {
        self.heap_next - addr::HEAP_BASE
    }

    fn flags_add(&mut self, a: u64, b: u64, wide: bool) -> u64 {
        if wide {
            let (res, carry) = a.overflowing_add(b);
            let sa = a as i64;
            let sb = b as i64;
            let (sres, overflow) = sa.overflowing_add(sb);
            self.n = sres < 0;
            self.z = res == 0;
            self.c = carry;
            self.v = overflow;
            res
        } else {
            let a = a as u32;
            let b = b as u32;
            let (res, carry) = a.overflowing_add(b);
            let (sres, overflow) = (a as i32).overflowing_add(b as i32);
            self.n = sres < 0;
            self.z = res == 0;
            self.c = carry;
            self.v = overflow;
            u64::from(res)
        }
    }

    fn flags_sub(&mut self, a: u64, b: u64, wide: bool) -> u64 {
        if wide {
            let res = a.wrapping_sub(b);
            let (sres, overflow) = (a as i64).overflowing_sub(b as i64);
            self.n = sres < 0;
            self.z = res == 0;
            self.c = a >= b;
            self.v = overflow;
            res
        } else {
            let a = a as u32;
            let b = b as u32;
            let res = a.wrapping_sub(b);
            let (sres, overflow) = (a as i32).overflowing_sub(b as i32);
            self.n = sres < 0;
            self.z = res == 0;
            self.c = a >= b;
            self.v = overflow;
            u64::from(res)
        }
    }

    fn load(&mut self, address: u64, wide: bool) -> Result<u64, ThrowKind> {
        self.check_data_access(address)?;
        self.mem.touch(address);
        Ok(if wide { self.mem.read_u64(address) } else { u64::from(self.mem.read_u32(address)) })
    }

    fn store(&mut self, address: u64, value: u64, wide: bool) -> Result<(), ThrowKind> {
        self.check_data_access(address)?;
        self.mem.touch(address);
        if wide {
            self.mem.write_u64(address, value);
        } else {
            self.mem.write_u32(address, value as u32);
        }
        Ok(())
    }

    fn check_data_access(&self, address: u64) -> Result<(), ThrowKind> {
        // The stack redzone: the Figure 4c probe (and genuine stack
        // overruns) fault here.
        if (addr::STACK_LIMIT - 0x10_0000..addr::STACK_LIMIT).contains(&address) {
            return Err(ThrowKind::StackOverflow);
        }
        Ok(())
    }

    /// Runs until the outermost frame returns, an exception is thrown,
    /// or `max_steps` instructions have executed.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] for simulator-level failures (executed data,
    /// bad pc, `brk`, step limit) — these indicate compilation or
    /// outlining bugs, and differential tests treat them as fatal.
    pub fn run(&mut self, max_steps: u64) -> Result<ExecOutcome, Trap> {
        let budget = self.steps + max_steps;
        loop {
            if self.pc == addr::RETURN_SENTINEL {
                return Ok(ExecOutcome::Returned(self.r32(Reg::X0) as i32));
            }
            if self.pc >= addr::NATIVE_BASE {
                match self.run_native()? {
                    Some(outcome) => return Ok(outcome),
                    None => continue,
                }
            }
            if self.steps >= budget {
                return Err(Trap::StepLimit);
            }
            self.steps += 1;
            let (slot, owner) = self.fetch_slot()?;
            let insn = slot.ok_or(Trap::ExecutedData(self.pc))?;
            self.mem.touch(self.pc);
            self.current_owner = owner;

            match self.exec(insn) {
                Ok(Control::Next) => {
                    let cost = self.cost.charge(self.pc, &insn, false);
                    self.method_cycles[self.current_owner] += cost;
                    self.pc += 4;
                }
                Ok(Control::Jump(target)) => {
                    let cost = self.cost.charge(self.pc, &insn, true);
                    self.method_cycles[self.current_owner] += cost;
                    self.pc = target;
                }
                Err(Step::Threw(kind)) => return Ok(ExecOutcome::Threw(kind)),
                Err(Step::Trapped(trap)) => return Err(trap),
            }
        }
    }

    /// Resolves the pc to a decoded slot of the text and its
    /// cycle-attribution owner.
    fn fetch_slot(&self) -> Result<(Option<Insn>, usize), Trap> {
        if let Some(delta) = self.pc.checked_sub(self.text_base) {
            if delta % 4 == 0 && (delta / 4) < self.decoded.len() as u64 {
                let word = (delta / 4) as usize;
                let owner = (self.owner[word] as usize).min(self.method_cycles.len() - 1);
                return Ok((self.decoded[word], owner));
            }
        }
        Err(Trap::BadPc(self.pc))
    }

    fn run_native(&mut self) -> Result<Option<ExecOutcome>, Trap> {
        let id = (self.pc - addr::NATIVE_BASE) / 8;
        let ret = self.r(Reg::LR);
        match id {
            native_id::ALLOC => {
                let class = self.r32(Reg::X0) as usize;
                let size = self.class_sizes.get(class).copied().unwrap_or(16);
                let address = (self.heap_next + 7) & !7;
                self.heap_next = address + size;
                self.heap_allocs += 1;
                // Object header: class id.
                self.mem.write_u64(address, class as u64);
                self.set(Reg::X0, address, true);
                let cost = self.cost.charge_flat(30);
                self.method_cycles[self.current_owner] += cost;
                self.pc = ret;
                Ok(None)
            }
            native_id::THROW_DIV_ZERO => Ok(Some(ExecOutcome::Threw(ThrowKind::DivZero))),
            native_id::THROW_NPE => Ok(Some(ExecOutcome::Threw(ThrowKind::NullPointer))),
            native_id::DELIVER => {
                Ok(Some(ExecOutcome::Threw(ThrowKind::Explicit(self.r32(Reg::X0) as i32))))
            }
            native_id::BRIDGE => {
                let method = self.r32(Reg::X0);
                let native =
                    *self.natives.get(&method).ok_or(Trap::BadNative(u64::from(method)))?;
                let args: Vec<i32> =
                    (0..native.arity).map(|i| self.r32(Reg::new(1 + i as u8)) as i32).collect();
                let result = (native.func)(&args);
                self.set(Reg::X0, u64::from(result as u32), false);
                let cost = self.cost.charge_flat(20);
                self.method_cycles[self.current_owner] += cost;
                self.pc = ret;
                Ok(None)
            }
            other => Err(Trap::BadNative(other)),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, insn: Insn) -> Result<Control, Step> {
        use Control::{Jump, Next};
        let pc = self.pc;
        let out = match insn {
            Insn::Nop => Next,
            Insn::Brk { imm } => return Err(Step::Trapped(Trap::Brk(imm))),
            Insn::Svc { .. } => return Err(Step::Trapped(Trap::BadPc(pc))),

            Insn::B { offset } => Jump(pc.wrapping_add(offset as u64)),
            Insn::Bl { offset } => {
                self.set(Reg::LR, pc + 4, true);
                Jump(pc.wrapping_add(offset as u64))
            }
            Insn::BCond { cond, offset } => {
                if self.cond_holds(cond) {
                    Jump(pc.wrapping_add(offset as u64))
                } else {
                    Next
                }
            }
            Insn::Cbz { wide, rt, offset } => {
                let v = if wide { self.r(rt) } else { u64::from(self.r32(rt)) };
                if v == 0 {
                    Jump(pc.wrapping_add(offset as u64))
                } else {
                    Next
                }
            }
            Insn::Cbnz { wide, rt, offset } => {
                let v = if wide { self.r(rt) } else { u64::from(self.r32(rt)) };
                if v != 0 {
                    Jump(pc.wrapping_add(offset as u64))
                } else {
                    Next
                }
            }
            Insn::Tbz { rt, bit, offset } => {
                if self.r(rt) >> bit & 1 == 0 {
                    Jump(pc.wrapping_add(offset as u64))
                } else {
                    Next
                }
            }
            Insn::Tbnz { rt, bit, offset } => {
                if self.r(rt) >> bit & 1 == 1 {
                    Jump(pc.wrapping_add(offset as u64))
                } else {
                    Next
                }
            }
            Insn::Br { rn } | Insn::Ret { rn } => Jump(self.r(rn)),
            Insn::Blr { rn } => {
                let target = self.r(rn);
                self.set(Reg::LR, pc + 4, true);
                Jump(target)
            }

            Insn::Adr { rd, offset } => {
                self.set(rd, pc.wrapping_add(offset as u64), true);
                Next
            }
            Insn::Adrp { rd, offset } => {
                self.set(rd, (pc & !0xfff).wrapping_add(offset as u64), true);
                Next
            }
            Insn::LdrLit { wide, rt, offset } => {
                let address = pc.wrapping_add(offset as u64);
                let v = self.load(address, wide).map_err(Step::Threw)?;
                self.set(rt, v, wide);
                Next
            }

            Insn::Movz { wide, rd, imm16, hw } => {
                self.set(rd, u64::from(imm16) << (16 * hw), wide);
                Next
            }
            Insn::Movn { wide, rd, imm16, hw } => {
                self.set(rd, !(u64::from(imm16) << (16 * hw)), wide);
                Next
            }
            Insn::Movk { wide, rd, imm16, hw } => {
                let shift = 16 * u32::from(hw);
                let keep = self.r(rd) & !(0xffffu64 << shift);
                self.set(rd, keep | (u64::from(imm16) << shift), wide);
                Next
            }

            Insn::AddImm { wide, set_flags, rd, rn, imm12, shift12 } => {
                let imm = u64::from(imm12) << if shift12 { 12 } else { 0 };
                let a = self.base(rn);
                if set_flags {
                    let res = self.flags_add(a, imm, wide);
                    self.set(rd, res, wide);
                } else {
                    let res = if wide {
                        a.wrapping_add(imm)
                    } else {
                        u64::from((a as u32).wrapping_add(imm as u32))
                    };
                    self.set_base_or_reg(rd, res, wide);
                }
                Next
            }
            Insn::SubImm { wide, set_flags, rd, rn, imm12, shift12 } => {
                let imm = u64::from(imm12) << if shift12 { 12 } else { 0 };
                let a = self.base(rn);
                if set_flags {
                    let res = self.flags_sub(a, imm, wide);
                    self.set(rd, res, wide);
                } else {
                    let res = if wide {
                        a.wrapping_sub(imm)
                    } else {
                        u64::from((a as u32).wrapping_sub(imm as u32))
                    };
                    self.set_base_or_reg(rd, res, wide);
                }
                Next
            }
            Insn::AddReg { wide, set_flags, rd, rn, rm, shift } => {
                let b = shifted(self.r(rm), shift, wide);
                let a = self.r(rn);
                let res = if set_flags {
                    self.flags_add(a, b, wide)
                } else if wide {
                    a.wrapping_add(b)
                } else {
                    u64::from((a as u32).wrapping_add(b as u32))
                };
                self.set(rd, res, wide);
                Next
            }
            Insn::SubReg { wide, set_flags, rd, rn, rm, shift } => {
                let b = shifted(self.r(rm), shift, wide);
                let a = self.r(rn);
                let res = if set_flags {
                    self.flags_sub(a, b, wide)
                } else if wide {
                    a.wrapping_sub(b)
                } else {
                    u64::from((a as u32).wrapping_sub(b as u32))
                };
                self.set(rd, res, wide);
                Next
            }
            Insn::AndReg { wide, set_flags, rd, rn, rm, shift } => {
                let res = self.r(rn) & shifted(self.r(rm), shift, wide);
                let res = if wide { res } else { u64::from(res as u32) };
                if set_flags {
                    self.n = if wide { (res as i64) < 0 } else { (res as u32 as i32) < 0 };
                    self.z = res == 0;
                    self.c = false;
                    self.v = false;
                }
                self.set(rd, res, wide);
                Next
            }
            Insn::OrrReg { wide, rd, rn, rm, shift } => {
                let res = self.r(rn) | shifted(self.r(rm), shift, wide);
                self.set(rd, res, wide);
                Next
            }
            Insn::EorReg { wide, rd, rn, rm, shift } => {
                let res = self.r(rn) ^ shifted(self.r(rm), shift, wide);
                self.set(rd, res, wide);
                Next
            }
            Insn::Sdiv { wide, rd, rn, rm } => {
                let res = if wide {
                    let b = self.r(rm) as i64;
                    if b == 0 {
                        0
                    } else {
                        (self.r(rn) as i64).wrapping_div(b) as u64
                    }
                } else {
                    let b = self.r32(rm) as i32;
                    let a = self.r32(rn) as i32;
                    u64::from(if b == 0 { 0 } else { a.wrapping_div(b) } as u32)
                };
                self.set(rd, res, wide);
                Next
            }
            Insn::Lslv { wide, rd, rn, rm } => {
                let width = if wide { 64 } else { 32 };
                let sh = self.r(rm) % width;
                let res = if wide { self.r(rn) << sh } else { u64::from((self.r32(rn)) << sh) };
                self.set(rd, res, wide);
                Next
            }
            Insn::Asrv { wide, rd, rn, rm } => {
                let width = if wide { 64 } else { 32 };
                let sh = self.r(rm) % width;
                let res = if wide {
                    ((self.r(rn) as i64) >> sh) as u64
                } else {
                    u64::from(((self.r32(rn) as i32) >> sh) as u32)
                };
                self.set(rd, res, wide);
                Next
            }
            Insn::Madd { wide, rd, rn, rm, ra } => {
                let res = if wide {
                    self.r(ra).wrapping_add(self.r(rn).wrapping_mul(self.r(rm)))
                } else {
                    u64::from(self.r32(ra).wrapping_add(self.r32(rn).wrapping_mul(self.r32(rm))))
                };
                self.set(rd, res, wide);
                Next
            }
            Insn::Msub { wide, rd, rn, rm, ra } => {
                let res = if wide {
                    self.r(ra).wrapping_sub(self.r(rn).wrapping_mul(self.r(rm)))
                } else {
                    u64::from(self.r32(ra).wrapping_sub(self.r32(rn).wrapping_mul(self.r32(rm))))
                };
                self.set(rd, res, wide);
                Next
            }
            Insn::Ubfm { wide, rd, rn, immr, imms } => {
                let res = bitfield_move(self.r(rn), immr, imms, wide, false);
                self.set(rd, res, wide);
                Next
            }
            Insn::Sbfm { wide, rd, rn, immr, imms } => {
                let res = bitfield_move(self.r(rn), immr, imms, wide, true);
                self.set(rd, res, wide);
                Next
            }

            Insn::LdrImm { wide, rt, rn, offset } => {
                let address = self.base(rn).wrapping_add(u64::from(offset));
                let v = self.load(address, wide).map_err(Step::Threw)?;
                self.set(rt, v, wide);
                Next
            }
            Insn::StrImm { wide, rt, rn, offset } => {
                let address = self.base(rn).wrapping_add(u64::from(offset));
                let v = self.r(rt);
                self.store(address, v, wide).map_err(Step::Threw)?;
                Next
            }
            Insn::Stp { rt, rt2, rn, offset, mode } => {
                let base = self.base(rn);
                let address = match mode {
                    PairMode::PreIndex | PairMode::SignedOffset => base.wrapping_add(offset as u64),
                    PairMode::PostIndex => base,
                };
                self.store(address, self.r(rt), true).map_err(Step::Threw)?;
                self.store(address + 8, self.r(rt2), true).map_err(Step::Threw)?;
                match mode {
                    PairMode::PreIndex => self.set_base(rn, address),
                    PairMode::PostIndex => self.set_base(rn, base.wrapping_add(offset as u64)),
                    PairMode::SignedOffset => {}
                }
                Next
            }
            Insn::Ldp { rt, rt2, rn, offset, mode } => {
                let base = self.base(rn);
                let address = match mode {
                    PairMode::PreIndex | PairMode::SignedOffset => base.wrapping_add(offset as u64),
                    PairMode::PostIndex => base,
                };
                let v1 = self.load(address, true).map_err(Step::Threw)?;
                let v2 = self.load(address + 8, true).map_err(Step::Threw)?;
                self.set(rt, v1, true);
                self.set(rt2, v2, true);
                match mode {
                    PairMode::PreIndex => self.set_base(rn, address),
                    PairMode::PostIndex => self.set_base(rn, base.wrapping_add(offset as u64)),
                    PairMode::SignedOffset => {}
                }
                Next
            }
        };
        Ok(out)
    }

    /// add/sub immediate writes SP when rd == 31 and flags are not set.
    fn set_base_or_reg(&mut self, rd: Reg, value: u64, wide: bool) {
        if rd.is_reg31() {
            self.sp = value;
        } else {
            self.set(rd, value, wide);
        }
    }

    fn cond_holds(&self, cond: Cond) -> bool {
        cond.holds(self.n, self.z, self.c, self.v)
    }
}

enum Step {
    Threw(ThrowKind),
    Trapped(Trap),
}

fn shifted(value: u64, shift: u8, wide: bool) -> u64 {
    let res = value << shift;
    if wide {
        res
    } else {
        u64::from(res as u32)
    }
}

/// UBFM/SBFM semantics for the LSL/LSR/ASR-style uses in this codebase.
fn bitfield_move(src: u64, immr: u8, imms: u8, wide: bool, signed: bool) -> u64 {
    let width: u32 = if wide { 64 } else { 32 };
    let src = if wide { src } else { u64::from(src as u32) };
    let (immr, imms) = (u32::from(immr), u32::from(imms));
    if imms >= immr {
        // Extract bits [immr, imms] to the bottom.
        let len = imms - immr + 1;
        let field = (src >> immr) & mask(len);
        let value =
            if signed && field >> (len - 1) & 1 == 1 { field | (!0u64 << len) } else { field };
        if wide {
            value
        } else {
            u64::from(value as u32)
        }
    } else {
        // Move bits [0, imms] up to position width - immr (LSL alias).
        let len = imms + 1;
        let field = src & mask(len);
        let shift = width - immr;
        let value = if signed && field >> (len - 1) & 1 == 1 {
            (field | (!0u64 << len)) << shift
        } else {
            field << shift
        };
        if wide {
            value
        } else {
            u64::from(value as u32)
        }
    }
}

fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        !0
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine_with(insns: &[Insn]) -> Machine {
        let words: Vec<u32> = insns.iter().map(|i| i.encode().unwrap()).collect();
        let owner = vec![0u32; words.len()];
        let mut m = Machine::new(&words, 0x1000, owner, 1, vec![16], HashMap::new(), false);
        m.set_pc(0x1000);
        m.set_reg(30, addr::RETURN_SENTINEL);
        m
    }

    #[test]
    fn arithmetic_and_return() {
        let mut m = machine_with(&[
            Insn::Movz { wide: false, rd: Reg::X0, imm16: 40, hw: 0 },
            Insn::AddImm {
                wide: false,
                set_flags: false,
                rd: Reg::X0,
                rn: Reg::X0,
                imm12: 2,
                shift12: false,
            },
            Insn::Ret { rn: Reg::LR },
        ]);
        assert_eq!(m.run(100), Ok(ExecOutcome::Returned(42)));
    }

    #[test]
    fn thirty_two_bit_ops_zero_extend() {
        let mut m = machine_with(&[
            Insn::Movn { wide: true, rd: Reg::X1, imm16: 0, hw: 0 }, // x1 = all ones
            Insn::AddImm {
                wide: false,
                set_flags: false,
                rd: Reg::X1,
                rn: Reg::X1,
                imm12: 0,
                shift12: false,
            }, // w1 = w1 + 0 zero-extends
            Insn::Ret { rn: Reg::LR },
        ]);
        m.run(10).unwrap();
        assert_eq!(m.reg(1), 0xffff_ffff);
    }

    #[test]
    fn branches_and_flags() {
        // if (5 < 7) return 1 else return 0
        let mut m = machine_with(&[
            Insn::Movz { wide: false, rd: Reg::X1, imm16: 5, hw: 0 },
            Insn::Movz { wide: false, rd: Reg::X2, imm16: 7, hw: 0 },
            Insn::SubReg {
                wide: false,
                set_flags: true,
                rd: Reg::ZR,
                rn: Reg::X1,
                rm: Reg::X2,
                shift: 0,
            },
            Insn::BCond { cond: Cond::Lt, offset: 12 },
            Insn::Movz { wide: false, rd: Reg::X0, imm16: 0, hw: 0 },
            Insn::Ret { rn: Reg::LR },
            Insn::Movz { wide: false, rd: Reg::X0, imm16: 1, hw: 0 },
            Insn::Ret { rn: Reg::LR },
        ]);
        assert_eq!(m.run(100), Ok(ExecOutcome::Returned(1)));
    }

    #[test]
    fn call_and_return_through_lr() {
        // main: save lr; bl f; return via saved lr. f: mov w0, 9; ret
        let mut m = machine_with(&[
            Insn::OrrReg { wide: true, rd: Reg::X20, rn: Reg::ZR, rm: Reg::LR, shift: 0 },
            Insn::Bl { offset: 8 },
            Insn::Br { rn: Reg::X20 },
            Insn::Movz { wide: false, rd: Reg::X0, imm16: 9, hw: 0 },
            Insn::Ret { rn: Reg::LR },
        ]);
        assert_eq!(m.run(100), Ok(ExecOutcome::Returned(9)));
    }

    #[test]
    fn stack_pushes_and_pops() {
        let mut m = machine_with(&[
            Insn::Movz { wide: false, rd: Reg::X0, imm16: 77, hw: 0 },
            Insn::Stp {
                rt: Reg::FP,
                rt2: Reg::LR,
                rn: Reg::SP,
                offset: -32,
                mode: PairMode::PreIndex,
            },
            Insn::StrImm { wide: false, rt: Reg::X0, rn: Reg::SP, offset: 16 },
            Insn::Movz { wide: false, rd: Reg::X0, imm16: 0, hw: 0 },
            Insn::LdrImm { wide: false, rt: Reg::X0, rn: Reg::SP, offset: 16 },
            Insn::Ldp {
                rt: Reg::FP,
                rt2: Reg::LR,
                rn: Reg::SP,
                offset: 32,
                mode: PairMode::PostIndex,
            },
            Insn::Ret { rn: Reg::LR },
        ]);
        assert_eq!(m.run(100), Ok(ExecOutcome::Returned(77)));
        assert_eq!(m.sp, addr::STACK_BASE);
    }

    #[test]
    fn stack_overflow_probe_faults() {
        // Emulate the Figure 4c probe against an exhausted stack.
        let mut m = machine_with(&[
            Insn::SubImm {
                wide: true,
                set_flags: false,
                rd: Reg::X16,
                rn: Reg::SP,
                imm12: 2,
                shift12: true,
            },
            Insn::LdrImm { wide: false, rt: Reg::ZR, rn: Reg::X16, offset: 0 },
            Insn::Ret { rn: Reg::LR },
        ]);
        m.set_sp(addr::STACK_LIMIT + 0x1000); // deep recursion simulated
        assert_eq!(m.run(100), Ok(ExecOutcome::Threw(ThrowKind::StackOverflow)));
    }

    #[test]
    fn executing_data_traps() {
        let words = vec![0xdead_beefu32];
        let mut m = Machine::new(&words, 0x1000, vec![0], 1, vec![], HashMap::new(), false);
        m.set_pc(0x1000);
        assert_eq!(m.run(10), Err(Trap::ExecutedData(0x1000)));
    }

    #[test]
    fn literal_pool_load() {
        let lit: u32 = 0x1234_5678;
        let words = vec![
            Insn::LdrLit { wide: false, rt: Reg::X0, offset: 8 }.encode().unwrap(),
            Insn::Ret { rn: Reg::LR }.encode().unwrap(),
            lit,
        ];
        let mut m = Machine::new(&words, 0x1000, vec![0, 0, 0], 1, vec![], HashMap::new(), false);
        m.set_pc(0x1000);
        m.set_reg(30, addr::RETURN_SENTINEL);
        assert_eq!(m.run(10), Ok(ExecOutcome::Returned(0x1234_5678)));
    }

    #[test]
    fn bitfield_aliases() {
        // lsl w0, w1, #3 == UBFM immr=29, imms=28
        let mut m = machine_with(&[
            Insn::Movz { wide: false, rd: Reg::X1, imm16: 5, hw: 0 },
            Insn::Ubfm { wide: false, rd: Reg::X0, rn: Reg::X1, immr: 29, imms: 28 },
            Insn::Ret { rn: Reg::LR },
        ]);
        assert_eq!(m.run(10), Ok(ExecOutcome::Returned(40)));
        // asr w0, w1, #1 of -8 == -4
        let mut m = machine_with(&[
            Insn::Movn { wide: false, rd: Reg::X1, imm16: 7, hw: 0 }, // w1 = -8
            Insn::Sbfm { wide: false, rd: Reg::X0, rn: Reg::X1, immr: 1, imms: 31 },
            Insn::Ret { rn: Reg::LR },
        ]);
        assert_eq!(m.run(10), Ok(ExecOutcome::Returned(-4)));
    }

    #[test]
    fn sdiv_semantics() {
        let mut m = machine_with(&[
            Insn::Movz { wide: false, rd: Reg::X1, imm16: 7, hw: 0 },
            Insn::Movz { wide: false, rd: Reg::X2, imm16: 2, hw: 0 },
            Insn::Sdiv { wide: false, rd: Reg::X0, rn: Reg::X1, rm: Reg::X2 },
            Insn::Ret { rn: Reg::LR },
        ]);
        assert_eq!(m.run(10), Ok(ExecOutcome::Returned(3)));
    }

    #[test]
    fn step_limit_trap() {
        let mut m = machine_with(&[Insn::B { offset: 0 }]);
        assert_eq!(m.run(100), Err(Trap::StepLimit));
    }

    #[test]
    fn calls_outside_the_text_trap() {
        let mut m = machine_with(&[Insn::Bl { offset: 0x8000 }, Insn::Ret { rn: Reg::LR }]);
        assert_eq!(m.run(100), Err(Trap::BadPc(0x9000)));
    }

    #[test]
    fn cycles_are_attributed() {
        let mut m = machine_with(&[Insn::Nop, Insn::Ret { rn: Reg::LR }]);
        m.run(10).unwrap();
        assert!(m.method_cycles[0] > 0);
        assert!(m.cost.cycles >= m.method_cycles[0]);
    }
}
