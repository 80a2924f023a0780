//! HGraph -> AArch64 code generation, including the three ART-specific
//! repetitive patterns (Figure 4) and their compilation-time outlining
//! (CTO, §3.1), plus LTBO.1 metadata collection (§3.2).

use std::sync::Arc;

use calibro_dex::{BinOp, ClassId, Cmp, MethodId, VReg};
use calibro_hgraph::{BlockId, HGraph, HInsn, HTerminator};
use calibro_isa::{Cond, Insn, PairMode, Reg};

use crate::compiled::{CallTarget, CompiledMethod, MethodTables, Reloc, TableSlices, ThunkKind};
use crate::layout;
use crate::regalloc::{Frame, Home};

/// Code-generation options.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodegenOptions {
    /// Enable compilation-time outlining of the three ART patterns
    /// (§3.1). When set, pattern occurrences compile to a single `bl` to
    /// a shared thunk; the linker emits each used thunk once.
    pub cto: bool,
    /// Collect LTBO.1 metadata (§3.2). Always cheap; kept optional so the
    /// baseline configuration matches the paper's unmodified AOSP.
    pub collect_metadata: bool,
}

/// The machine code of a CTO pattern thunk (§3.1). `bl`-compatible: the
/// return address installed by the caller's `bl` flows through.
#[must_use]
pub fn thunk_code(kind: ThunkKind) -> Vec<Insn> {
    match kind {
        ThunkKind::JavaEntry => vec![
            Insn::LdrImm {
                wide: true,
                rt: Reg::X16,
                rn: Reg::X0,
                offset: layout::ART_METHOD_ENTRY_OFFSET,
            },
            Insn::Br { rn: Reg::X16 },
        ],
        ThunkKind::RuntimeEntry(offset) => vec![
            Insn::LdrImm { wide: true, rt: Reg::X16, rn: Reg::X19, offset },
            Insn::Br { rn: Reg::X16 },
        ],
        ThunkKind::StackCheck => vec![
            Insn::SubImm {
                wide: true,
                set_flags: false,
                rd: Reg::X16,
                rn: Reg::SP,
                imm12: (layout::STACK_GUARD_BYTES >> 12) as u16,
                shift12: true,
            },
            Insn::LdrImm { wide: false, rt: Reg::ZR, rn: Reg::X16, offset: 0 },
            Insn::Br { rn: Reg::LR },
        ],
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Lab(usize);

struct SlowPath {
    label: Lab,
    entrypoint: u16,
    dex_pc: u32,
}

struct Emitter<'a> {
    opts: &'a CodegenOptions,
    frame: &'a Frame,
    insns: Vec<Insn>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Lab)>,
    pool: Vec<u32>,
    pool_fixups: Vec<(usize, usize)>, // (insn index, pool index)
    relocs: Vec<Reloc>,
    /// `[native offset, dex pc]` per call site.
    stack_maps: Vec<[u32; 2]>,
    slow_paths: Vec<SlowPath>,
    slow_ranges: Vec<[u32; 2]>,
    has_indirect_jump: bool,
}

impl<'a> Emitter<'a> {
    fn new(opts: &'a CodegenOptions, frame: &'a Frame) -> Emitter<'a> {
        Emitter {
            opts,
            frame,
            insns: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
            pool: Vec::new(),
            pool_fixups: Vec::new(),
            relocs: Vec::new(),
            stack_maps: Vec::new(),
            slow_paths: Vec::new(),
            slow_ranges: Vec::new(),
            has_indirect_jump: false,
        }
    }

    fn label(&mut self) -> Lab {
        self.labels.push(None);
        Lab(self.labels.len() - 1)
    }

    fn bind(&mut self, l: Lab) {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.insns.len());
    }

    fn emit(&mut self, insn: Insn) {
        self.insns.push(insn);
    }

    fn emit_branch(&mut self, insn: Insn, target: Lab) {
        self.fixups.push((self.insns.len(), target));
        self.insns.push(insn);
    }

    /// Emits a `bl` with a linker relocation and a stack-map entry.
    fn emit_call_reloc(&mut self, target: CallTarget, dex_pc: u32) {
        self.relocs.push(Reloc { at: self.insns.len(), target });
        self.insns.push(Insn::Bl { offset: 0 });
        self.push_stack_map(dex_pc);
    }

    fn push_stack_map(&mut self, dex_pc: u32) {
        self.stack_maps.push([self.insns.len() as u32 * 4, dex_pc]);
    }

    /// Materializes a 32-bit constant into `dst` (w view). Dual-half
    /// constants go through the literal pool, exercising the paper's
    /// embedded-data metadata.
    fn emit_const(&mut self, dst: Reg, value: i32) {
        let u = value as u32;
        if u & 0xffff_0000 == 0 {
            self.emit(Insn::Movz { wide: false, rd: dst, imm16: u as u16, hw: 0 });
        } else if u & 0x0000_ffff == 0 {
            self.emit(Insn::Movz { wide: false, rd: dst, imm16: (u >> 16) as u16, hw: 1 });
        } else if u >> 16 == 0xffff {
            self.emit(Insn::Movn { wide: false, rd: dst, imm16: !(u as u16), hw: 0 });
        } else {
            // Literal pool load: `ldr w, <pool>` — a PC-relative
            // instruction whose target is embedded data.
            let idx = match self.pool.iter().position(|&w| w == u) {
                Some(i) => i,
                None => {
                    self.pool.push(u);
                    self.pool.len() - 1
                }
            };
            self.pool_fixups.push((self.insns.len(), idx));
            self.insns.push(Insn::LdrLit { wide: false, rt: dst, offset: 0 });
        }
    }

    /// Reads virtual register `v`, returning the register that now holds
    /// it (`scratch` for frame-homed registers).
    fn read(&mut self, v: VReg, scratch: Reg) -> Reg {
        match self.frame.home(v) {
            Home::Reg(r) => r,
            Home::Slot(offset) => {
                self.emit(Insn::LdrImm { wide: false, rt: scratch, rn: Reg::SP, offset });
                scratch
            }
        }
    }

    /// Reads `v` *into a specific register* (for argument staging).
    fn read_into(&mut self, v: VReg, dst: Reg) {
        match self.frame.home(v) {
            Home::Reg(r) => {
                if r != dst {
                    self.emit(mov_reg(dst, r));
                }
            }
            Home::Slot(offset) => {
                self.emit(Insn::LdrImm { wide: false, rt: dst, rn: Reg::SP, offset });
            }
        }
    }

    /// Register the result of an operation on `v` should be computed
    /// into.
    fn write_target(&self, v: VReg) -> Reg {
        match self.frame.home(v) {
            Home::Reg(r) => r,
            Home::Slot(_) => Reg::X8,
        }
    }

    /// Completes a write: spills `src` if `v` is frame-homed, or moves it
    /// if it landed in the wrong register.
    fn finish_write(&mut self, v: VReg, src: Reg) {
        match self.frame.home(v) {
            Home::Reg(r) => {
                if r != src {
                    self.emit(mov_reg(r, src));
                }
            }
            Home::Slot(offset) => {
                self.emit(Insn::StrImm { wide: false, rt: src, rn: Reg::SP, offset });
            }
        }
    }

    /// Emits the Figure 4a Java-call pattern (or its CTO form).
    fn emit_java_call(&mut self, dex_pc: u32) {
        if self.opts.cto {
            self.emit_call_reloc(CallTarget::Thunk(ThunkKind::JavaEntry), dex_pc);
        } else {
            self.emit(Insn::LdrImm {
                wide: true,
                rt: Reg::LR,
                rn: Reg::X0,
                offset: layout::ART_METHOD_ENTRY_OFFSET,
            });
            self.emit(Insn::Blr { rn: Reg::LR });
            self.push_stack_map(dex_pc);
        }
    }

    /// Emits the Figure 4b runtime-call pattern (or its CTO form).
    fn emit_runtime_call(&mut self, entrypoint: u16, dex_pc: u32) {
        if self.opts.cto {
            self.emit_call_reloc(CallTarget::Thunk(ThunkKind::RuntimeEntry(entrypoint)), dex_pc);
        } else {
            self.emit(Insn::LdrImm { wide: true, rt: Reg::LR, rn: Reg::X19, offset: entrypoint });
            self.emit(Insn::Blr { rn: Reg::LR });
            self.push_stack_map(dex_pc);
        }
    }

    /// Emits the Figure 4c stack-overflow check (or its CTO form).
    fn emit_stack_check(&mut self, dex_pc: u32) {
        if self.opts.cto {
            self.emit_call_reloc(CallTarget::Thunk(ThunkKind::StackCheck), dex_pc);
        } else {
            self.emit(Insn::SubImm {
                wide: true,
                set_flags: false,
                rd: Reg::X16,
                rn: Reg::SP,
                imm12: (layout::STACK_GUARD_BYTES >> 12) as u16,
                shift12: true,
            });
            self.emit(Insn::LdrImm { wide: false, rt: Reg::ZR, rn: Reg::X16, offset: 0 });
        }
    }

    /// Requests a slow path ending in a throwing runtime call; returns
    /// the label a guard should branch to.
    fn request_slow_path(&mut self, entrypoint: u16, dex_pc: u32) -> Lab {
        let label = self.label();
        self.slow_paths.push(SlowPath { label, entrypoint, dex_pc });
        label
    }

    /// Emits all pending slow paths (at the end of the method).
    fn flush_slow_paths(&mut self) {
        let pending = std::mem::take(&mut self.slow_paths);
        for sp in pending {
            let start = self.insns.len() as u32;
            self.bind(sp.label);
            self.emit_runtime_call(sp.entrypoint, sp.dex_pc);
            // Unreachable guard: the throw entrypoints never return.
            self.emit(Insn::Brk { imm: 0xdead });
            self.slow_ranges.push([start, self.insns.len() as u32]);
        }
    }

    /// Loads the callee's `ArtMethod*` into `x0` (through the thread's
    /// method table).
    fn emit_load_art_method(&mut self, callee: MethodId) {
        self.emit(Insn::LdrImm {
            wide: true,
            rt: Reg::X16,
            rn: Reg::X19,
            offset: layout::THREAD_METHOD_TABLE,
        });
        let table_offset = layout::method_table_offset(callee);
        if table_offset < 4096 * 8 {
            self.emit(Insn::LdrImm {
                wide: true,
                rt: Reg::X0,
                rn: Reg::X16,
                offset: table_offset as u16,
            });
        } else {
            self.emit_const(Reg::X17, table_offset as i32);
            self.emit(Insn::AddReg {
                wide: true,
                set_flags: false,
                rd: Reg::X16,
                rn: Reg::X16,
                rm: Reg::X17,
                shift: 0,
            });
            self.emit(Insn::LdrImm { wide: true, rt: Reg::X0, rn: Reg::X16, offset: 0 });
        }
    }

    /// Resolves fixups and produces the compiled method, encoding its
    /// instructions into its words — the one time they are encoded.
    fn finish(mut self, method: MethodId, is_native_stub: bool) -> CompiledMethod {
        let code_len = self.insns.len();
        let mut pc_rel = Vec::with_capacity(self.fixups.len() + self.pool_fixups.len());
        for &(at, label) in &self.fixups {
            let target = self.labels[label.0].expect("unbound codegen label");
            let offset = (target as i64 - at as i64) * 4;
            self.insns[at] = self.insns[at].with_pc_rel_offset(offset);
            pc_rel.push([at as u32, target as u32]);
        }
        for &(at, pool_idx) in &self.pool_fixups {
            let target = code_len + pool_idx;
            let offset = (target as i64 - at as i64) * 4;
            self.insns[at] = self.insns[at].with_pc_rel_offset(offset);
            pc_rel.push([at as u32, target as u32]);
        }
        pc_rel.sort_by_key(|&[at, _]| at);

        let terminators: Vec<u32> = self
            .insns
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_terminator() || matches!(i, Insn::Brk { .. }))
            .map(|(idx, _)| idx as u32)
            .collect();

        let pool = [[code_len as u32, self.pool.len() as u32]];
        let embedded_data: &[[u32; 2]] = if self.pool.is_empty() { &[] } else { &pool };

        self.stack_maps.sort_by_key(|&[native_offset, _]| native_offset);
        let stack_maps = &self.stack_maps;
        let tables = if self.opts.collect_metadata {
            TableSlices {
                pc_rel: &pc_rel,
                terminators: &terminators,
                embedded_data,
                slow_paths: &self.slow_ranges,
                stack_maps,
                has_indirect_jump: self.has_indirect_jump,
                is_native_stub,
            }
        } else {
            // Even the baseline keeps enough structure to link (nothing)
            // and to unwind: baseline never runs LTBO.
            TableSlices { stack_maps, ..TableSlices::default() }
        };
        CompiledMethod {
            method,
            tables: MethodTables::new(tables),
            // Collected straight into the `Arc`: one allocation.
            words: self
                .insns
                .iter()
                .map(|insn| insn.encode().expect("compiled instruction encodes"))
                .collect(),
            insns: self.insns.into(),
            pool: shared(self.pool),
            relocs: shared(self.relocs),
        }
    }
}

/// `table` as a shared slice; an empty one allocates nothing.
fn shared<T>(table: Vec<T>) -> Arc<[T]> {
    if table.is_empty() {
        Arc::default()
    } else {
        table.into()
    }
}

fn mov_reg(dst: Reg, src: Reg) -> Insn {
    Insn::OrrReg { wide: false, rd: dst, rn: Reg::ZR, rm: src, shift: 0 }
}

fn cond_of(cmp: Cmp) -> Cond {
    match cmp {
        Cmp::Eq => Cond::Eq,
        Cmp::Ne => Cond::Ne,
        Cmp::Lt => Cond::Lt,
        Cmp::Ge => Cond::Ge,
        Cmp::Gt => Cond::Gt,
        Cmp::Le => Cond::Le,
    }
}

/// Compiles an optimized HGraph to machine code.
///
/// # Panics
///
/// Panics on malformed graphs (run [`calibro_hgraph::check`] first) and
/// on operands that exceed the supported encoding ranges (e.g. more than
/// 4095 instance fields).
#[must_use]
pub fn compile_method(graph: &HGraph, opts: &CodegenOptions) -> CompiledMethod {
    let frame = Frame::plan(graph.num_regs);
    let mut e = Emitter::new(opts, &frame);
    let mut dex_pc: u32 = 0;

    // Per-block labels + the shared epilogue label.
    let block_labels: Vec<Lab> = graph.blocks.iter().map(|_| e.label()).collect();
    let epilogue = e.label();

    // --- Prologue ----------------------------------------------------
    e.emit(Insn::Stp {
        rt: Reg::FP,
        rt2: Reg::LR,
        rn: Reg::SP,
        offset: -(frame.size() as i16),
        mode: PairMode::PreIndex,
    });
    if graph.has_calls() {
        e.emit_stack_check(dex_pc);
    }
    e.emit(Insn::AddImm {
        wide: true,
        set_flags: false,
        rd: Reg::FP,
        rn: Reg::SP,
        imm12: 0,
        shift12: false,
    });
    for (i, &r) in frame.saved_regs().iter().enumerate() {
        e.emit(Insn::StrImm { wide: true, rt: r, rn: Reg::SP, offset: frame.save_slot(i) });
    }
    // Arguments arrive in x1..x{n}; move them to their homes.
    let first_arg = graph.num_regs - graph.num_args;
    for i in 0..graph.num_args {
        let v = VReg(first_arg + i);
        let src = Reg::new(1 + i as u8);
        e.finish_write(v, src);
    }

    // --- Body ----------------------------------------------------------
    for block in &graph.blocks {
        e.bind(block_labels[block.id.index()]);
        for insn in &block.insns {
            dex_pc += 1;
            lower_insn(&mut e, insn, dex_pc);
        }
        dex_pc += 1;
        lower_terminator(
            &mut e,
            graph,
            block.id,
            &block.terminator,
            &block_labels,
            epilogue,
            dex_pc,
        );
    }

    // --- Epilogue ------------------------------------------------------
    e.bind(epilogue);
    for (i, &r) in frame.saved_regs().iter().enumerate().rev() {
        e.emit(Insn::LdrImm { wide: true, rt: r, rn: Reg::SP, offset: frame.save_slot(i) });
    }
    e.emit(Insn::Ldp {
        rt: Reg::FP,
        rt2: Reg::LR,
        rn: Reg::SP,
        offset: frame.size() as i16,
        mode: PairMode::PostIndex,
    });
    e.emit(Insn::Ret { rn: Reg::LR });

    // --- Slow paths and literal pool ------------------------------------
    e.flush_slow_paths();

    e.finish(graph.method, false)
}

fn lower_insn(e: &mut Emitter<'_>, insn: &HInsn, dex_pc: u32) {
    match insn {
        HInsn::Const { dst, value } => {
            let target = e.write_target(*dst);
            e.emit_const(target, *value);
            e.finish_write(*dst, target);
        }
        HInsn::Move { dst, src } => {
            let s = e.read(*src, Reg::X8);
            e.finish_write(*dst, s);
        }
        HInsn::Bin { op, dst, a, b } => {
            if matches!(op, BinOp::Div) {
                // Division-by-zero guard with a slow path (§3.2).
                let bb = e.read(*b, Reg::X9);
                let slow = e.request_slow_path(layout::EP_THROW_DIV_ZERO, dex_pc);
                e.emit_branch(Insn::Cbz { wide: false, rt: bb, offset: 0 }, slow);
                let aa = e.read(*a, Reg::X8);
                let target = e.write_target(*dst);
                e.emit(Insn::Sdiv { wide: false, rd: target, rn: aa, rm: bb });
                e.finish_write(*dst, target);
            } else {
                let aa = e.read(*a, Reg::X8);
                let bb = e.read(*b, Reg::X9);
                let target = e.write_target(*dst);
                e.emit(bin_insn(*op, target, aa, bb));
                e.finish_write(*dst, target);
            }
        }
        HInsn::BinLit { op, dst, a, lit } => {
            let aa = e.read(*a, Reg::X8);
            let target = e.write_target(*dst);
            let imm_ok = lit.unsigned_abs() < 4096;
            match op {
                BinOp::Add if *lit >= 0 && imm_ok => e.emit(Insn::AddImm {
                    wide: false,
                    set_flags: false,
                    rd: target,
                    rn: aa,
                    imm12: *lit as u16,
                    shift12: false,
                }),
                BinOp::Add if imm_ok => e.emit(Insn::SubImm {
                    wide: false,
                    set_flags: false,
                    rd: target,
                    rn: aa,
                    imm12: lit.unsigned_abs(),
                    shift12: false,
                }),
                BinOp::Sub if *lit >= 0 && imm_ok => e.emit(Insn::SubImm {
                    wide: false,
                    set_flags: false,
                    rd: target,
                    rn: aa,
                    imm12: *lit as u16,
                    shift12: false,
                }),
                BinOp::Sub if imm_ok => e.emit(Insn::AddImm {
                    wide: false,
                    set_flags: false,
                    rd: target,
                    rn: aa,
                    imm12: lit.unsigned_abs(),
                    shift12: false,
                }),
                BinOp::Shl => {
                    let sh = (*lit as u32 & 31) as u8;
                    // lsl w: UBFM with immr = -sh mod 32, imms = 31 - sh.
                    e.emit(Insn::Ubfm {
                        wide: false,
                        rd: target,
                        rn: aa,
                        immr: ((32 - u32::from(sh)) % 32) as u8,
                        imms: 31 - sh,
                    });
                }
                BinOp::Shr => {
                    // asr w: SBFM with immr = sh, imms = 31 (Java >> is
                    // arithmetic).
                    let sh = (*lit as u32 & 31) as u8;
                    e.emit(Insn::Sbfm { wide: false, rd: target, rn: aa, immr: sh, imms: 31 });
                }
                BinOp::Div if *lit != 0 => {
                    e.emit_const(Reg::X9, i32::from(*lit));
                    e.emit(Insn::Sdiv { wide: false, rd: target, rn: aa, rm: Reg::X9 });
                }
                _ => {
                    // Generic: materialize the literal, use the register
                    // form. (Div by literal zero unconditionally throws.)
                    if matches!(op, BinOp::Div) {
                        let slow = e.request_slow_path(layout::EP_THROW_DIV_ZERO, dex_pc);
                        e.emit_branch(Insn::B { offset: 0 }, slow);
                    } else {
                        e.emit_const(Reg::X9, i32::from(*lit));
                        e.emit(bin_insn(*op, target, aa, Reg::X9));
                    }
                }
            }
            e.finish_write(*dst, target);
        }
        HInsn::IGet { dst, obj, field } => {
            let base = e.read(*obj, Reg::X8);
            let slow = e.request_slow_path(layout::EP_THROW_NPE, dex_pc);
            e.emit_branch(Insn::Cbz { wide: false, rt: base, offset: 0 }, slow);
            let target = e.write_target(*dst);
            e.emit(Insn::LdrImm {
                wide: false,
                rt: target,
                rn: base,
                offset: layout::field_offset(*field),
            });
            e.finish_write(*dst, target);
        }
        HInsn::IPut { src, obj, field } => {
            let base = e.read(*obj, Reg::X8);
            let slow = e.request_slow_path(layout::EP_THROW_NPE, dex_pc);
            e.emit_branch(Insn::Cbz { wide: false, rt: base, offset: 0 }, slow);
            let value = e.read(*src, Reg::X9);
            e.emit(Insn::StrImm {
                wide: false,
                rt: value,
                rn: base,
                offset: layout::field_offset(*field),
            });
        }
        HInsn::SGet { dst, slot } => {
            e.emit(Insn::LdrImm {
                wide: true,
                rt: Reg::X16,
                rn: Reg::X19,
                offset: layout::THREAD_STATICS,
            });
            let target = e.write_target(*dst);
            e.emit(Insn::LdrImm {
                wide: false,
                rt: target,
                rn: Reg::X16,
                offset: layout::static_offset(*slot),
            });
            e.finish_write(*dst, target);
        }
        HInsn::SPut { src, slot } => {
            let value = e.read(*src, Reg::X8);
            e.emit(Insn::LdrImm {
                wide: true,
                rt: Reg::X16,
                rn: Reg::X19,
                offset: layout::THREAD_STATICS,
            });
            e.emit(Insn::StrImm {
                wide: false,
                rt: value,
                rn: Reg::X16,
                offset: layout::static_offset(*slot),
            });
        }
        HInsn::NewInstance { dst, class } => {
            let ClassId(cid) = class;
            e.emit_const(Reg::X0, *cid as i32);
            e.emit_runtime_call(layout::EP_ALLOC_OBJECT, dex_pc);
            e.finish_write(*dst, Reg::X0);
        }
        HInsn::Invoke { method, args, dst, .. } => {
            for (i, arg) in args.iter().enumerate() {
                e.read_into(*arg, Reg::new(1 + i as u8));
            }
            e.emit_load_art_method(*method);
            e.emit_java_call(dex_pc);
            if let Some(dst) = dst {
                e.finish_write(*dst, Reg::X0);
            }
        }
        HInsn::InvokeNative { method, args, dst } => {
            for (i, arg) in args.iter().enumerate() {
                e.read_into(*arg, Reg::new(1 + i as u8));
            }
            e.emit_const(Reg::X0, method.0 as i32);
            e.emit_runtime_call(layout::EP_NATIVE_BRIDGE, dex_pc);
            if let Some(dst) = dst {
                e.finish_write(*dst, Reg::X0);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn lower_terminator(
    e: &mut Emitter<'_>,
    graph: &HGraph,
    block: BlockId,
    term: &HTerminator,
    labels: &[Lab],
    epilogue: Lab,
    dex_pc: u32,
) {
    let next_block = BlockId(block.0 + 1);
    let is_next = |b: BlockId| b == next_block && (b.index()) < graph.blocks.len();
    match term {
        HTerminator::Goto { target } => {
            if !is_next(*target) {
                e.emit_branch(Insn::B { offset: 0 }, labels[target.index()]);
            }
        }
        HTerminator::If { cmp, a, b, then_bb, else_bb } => {
            let aa = e.read(*a, Reg::X8);
            let bb = e.read(*b, Reg::X9);
            e.emit(Insn::SubReg {
                wide: false,
                set_flags: true,
                rd: Reg::ZR,
                rn: aa,
                rm: bb,
                shift: 0,
            });
            e.emit_branch(Insn::BCond { cond: cond_of(*cmp), offset: 0 }, labels[then_bb.index()]);
            if !is_next(*else_bb) {
                e.emit_branch(Insn::B { offset: 0 }, labels[else_bb.index()]);
            }
        }
        HTerminator::IfZ { cmp, a, then_bb, else_bb } => {
            let aa = e.read(*a, Reg::X8);
            match cmp {
                Cmp::Eq => e.emit_branch(
                    Insn::Cbz { wide: false, rt: aa, offset: 0 },
                    labels[then_bb.index()],
                ),
                Cmp::Ne => e.emit_branch(
                    Insn::Cbnz { wide: false, rt: aa, offset: 0 },
                    labels[then_bb.index()],
                ),
                _ => {
                    e.emit(Insn::SubImm {
                        wide: false,
                        set_flags: true,
                        rd: Reg::ZR,
                        rn: aa,
                        imm12: 0,
                        shift12: false,
                    });
                    e.emit_branch(
                        Insn::BCond { cond: cond_of(*cmp), offset: 0 },
                        labels[then_bb.index()],
                    );
                }
            }
            if !is_next(*else_bb) {
                e.emit_branch(Insn::B { offset: 0 }, labels[else_bb.index()]);
            }
        }
        HTerminator::Switch { src, first_key, targets, default } => {
            // Bounds check + branch-ladder jump table through an indirect
            // branch; flags the method per §3.2.
            let s = e.read(*src, Reg::X8);
            if *first_key != 0 {
                e.emit_const(Reg::X17, *first_key);
                e.emit(Insn::SubReg {
                    wide: false,
                    set_flags: false,
                    rd: Reg::X16,
                    rn: s,
                    rm: Reg::X17,
                    shift: 0,
                });
            } else if s != Reg::X16 {
                e.emit(mov_reg(Reg::X16, s));
            }
            assert!(targets.len() < 4096, "switch too large for cmp immediate");
            e.emit(Insn::SubImm {
                wide: false,
                set_flags: true,
                rd: Reg::ZR,
                rn: Reg::X16,
                imm12: targets.len() as u16,
                shift12: false,
            });
            e.emit_branch(Insn::BCond { cond: Cond::Cs, offset: 0 }, labels[default.index()]);
            let table = e.label();
            e.emit_branch(Insn::Adr { rd: Reg::X17, offset: 0 }, table);
            e.emit(Insn::AddReg {
                wide: true,
                set_flags: false,
                rd: Reg::X17,
                rn: Reg::X17,
                rm: Reg::X16,
                shift: 2,
            });
            e.emit(Insn::Br { rn: Reg::X17 });
            e.has_indirect_jump = true;
            e.bind(table);
            for t in targets {
                e.emit_branch(Insn::B { offset: 0 }, labels[t.index()]);
            }
        }
        HTerminator::Return { src } => {
            if let Some(v) = src {
                e.read_into(*v, Reg::X0);
            }
            e.emit_branch(Insn::B { offset: 0 }, epilogue);
        }
        HTerminator::Throw { src } => {
            e.read_into(*src, Reg::X0);
            e.emit_runtime_call(layout::EP_DELIVER_EXCEPTION, dex_pc);
            e.emit(Insn::Brk { imm: 0xdead });
        }
    }
}

fn bin_insn(op: BinOp, rd: Reg, rn: Reg, rm: Reg) -> Insn {
    match op {
        BinOp::Add => Insn::AddReg { wide: false, set_flags: false, rd, rn, rm, shift: 0 },
        BinOp::Sub => Insn::SubReg { wide: false, set_flags: false, rd, rn, rm, shift: 0 },
        BinOp::Mul => Insn::Madd { wide: false, rd, rn, rm, ra: Reg::ZR },
        BinOp::Div => Insn::Sdiv { wide: false, rd, rn, rm },
        BinOp::And => Insn::AndReg { wide: false, set_flags: false, rd, rn, rm, shift: 0 },
        BinOp::Or => Insn::OrrReg { wide: false, rd, rn, rm, shift: 0 },
        BinOp::Xor => Insn::EorReg { wide: false, rd, rn, rm, shift: 0 },
        BinOp::Shl => Insn::Lslv { wide: false, rd, rn, rm },
        BinOp::Shr => Insn::Asrv { wide: false, rd, rn, rm },
    }
}

/// Compiles the JNI stub for a native method (flagged unoutlinable).
#[must_use]
pub fn compile_native_stub(method: MethodId, opts: &CodegenOptions) -> CompiledMethod {
    let frame = Frame::plan(0);
    let mut e = Emitter::new(opts, &frame);
    e.emit(Insn::Stp {
        rt: Reg::FP,
        rt2: Reg::LR,
        rn: Reg::SP,
        offset: -16,
        mode: PairMode::PreIndex,
    });
    e.emit_const(Reg::X0, method.0 as i32);
    e.emit_runtime_call(layout::EP_NATIVE_BRIDGE, 0);
    e.emit(Insn::Ldp {
        rt: Reg::FP,
        rt2: Reg::LR,
        rn: Reg::SP,
        offset: 16,
        mode: PairMode::PostIndex,
    });
    e.emit(Insn::Ret { rn: Reg::LR });
    e.finish(method, true)
}
