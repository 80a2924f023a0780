//! The tables block against the struct form it replaced, over random
//! methods with consistent tables and random valid edits: each block's
//! row is the bytes the per-table struct and the separate stack-map table
//! encoded to, an image's records load back to the blocks they were
//! written from, and the two rewrite routes — the linker applying the
//! edits as it writes the text, and a method rewritten in place first
//! (its call sites collected into its relocations, as `calibro::run_ltbo`
//! collects them) then linked without edits — give the same image.

use calibro_codegen::{CallTarget, CompiledMethod, MethodTables, Reloc, TableSlices, ThunkKind};
use calibro_dex::wire::{encode, wire_fields, wire_seq};
use calibro_dex::MethodId;
use calibro_isa::{encode_words, Cond, Insn, Reg};
use calibro_oat::{
    from_elf_bytes, link, to_elf_bytes, validate_stack_maps, Edit, LinkInput, MethodEdits, OatFile,
    OutlinedBodies, Rewriter,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The struct the tables block replaced, kept as the oracle of its row.
mod reference {
    use super::*;

    pub struct PcRel {
        pub at: u32,
        pub target: u32,
    }

    pub struct StackMapEntry {
        pub native_offset: u32,
        pub dex_pc: u32,
    }

    pub struct MethodMetadata {
        pub pc_rel: Vec<PcRel>,
        pub terminators: Vec<u32>,
        pub embedded_data: Vec<(u32, u32)>,
        pub has_indirect_jump: bool,
        pub is_native_stub: bool,
        pub slow_paths: Vec<(u32, u32)>,
    }

    wire_fields!(PcRel { at, target });
    wire_fields!(StackMapEntry { native_offset, dex_pc });
    wire_fields!(MethodMetadata {
        pc_rel,
        terminators,
        embedded_data,
        has_indirect_jump,
        is_native_stub,
        slow_paths,
    });
    wire_seq!(PcRel: 4 + 4, StackMapEntry: 4 + 4);

    /// `tables` as the struct and the stack-map table encoded, back to
    /// back, as every row carrying them laid them out.
    pub fn row(tables: &MethodTables) -> Vec<u8> {
        let t = tables.sections();
        let metadata = MethodMetadata {
            pc_rel: t.pc_rel.iter().map(|&[at, target]| PcRel { at, target }).collect(),
            terminators: t.terminators.to_vec(),
            embedded_data: t.embedded_data.iter().map(|&[s, l]| (s, l)).collect(),
            has_indirect_jump: t.has_indirect_jump,
            is_native_stub: t.is_native_stub,
            slow_paths: t.slow_paths.iter().map(|&[s, e]| (s, e)).collect(),
        };
        let stack_maps: Vec<StackMapEntry> = t
            .stack_maps
            .iter()
            .map(|&[native_offset, dex_pc]| StackMapEntry { native_offset, dex_pc })
            .collect();
        [encode(&metadata), encode(&stack_maps)].concat()
    }
}

/// Method `id` of `methods` over `n` code words and a `pool_len`-word
/// pool, with edits onto `outlined` functions, grown from `rng`: edits
/// first (adjacent ones and ones at either end occur), then every word
/// no edit covers draws a role — a PC-relative site whose target is any
/// word no edit's interior hides, a call with a stack map behind it, a
/// terminator, a plain word. Slow paths and the flags are drawn too.
fn method(rng: &mut TestRng, id: u32, methods: u32, outlined: u32) -> (CompiledMethod, Vec<Edit>) {
    let mut below = |bound: usize| rng.below(bound as u64) as usize;
    let (n, pool_len) = (1 + below(40), below(3));
    let mut edits = Vec::new();
    let (mut interior, mut covered) = (vec![false; n + 1], vec![false; n]);
    let mut word = below(3);
    while word < n && below(5) > 0 {
        let len = (1 + below(4)).min(n - word);
        edits.push(Edit {
            start: word as u32,
            len: len as u32,
            outlined: below(outlined as usize) as u32,
        });
        covered[word..word + len].fill(true);
        interior[word + 1..word + len].fill(true);
        word += len + [0, 1, 2, 4][below(4)];
    }
    let landing: Vec<usize> = (0..=n + pool_len).filter(|&w| w >= n || !interior[w]).collect();

    let (mut insns, mut relocs) = (Vec::with_capacity(n), Vec::new());
    let (mut pc_rel, mut terminators, mut stack_maps) = (Vec::new(), Vec::new(), Vec::new());
    for (w, &in_edit) in covered.iter().enumerate() {
        let insn = match if in_edit { 9 } else { below(8) } {
            0 | 1 => {
                let target = landing[below(landing.len())];
                let offset = (target as i64 - w as i64) * 4;
                pc_rel.push([w as u32, target as u32]);
                match below(4) {
                    0 => Insn::B { offset },
                    1 => Insn::BCond { cond: Cond::Eq, offset },
                    2 => Insn::Adr { rd: Reg::X7, offset },
                    _ => Insn::LdrLit { wide: false, rt: Reg::X8, offset },
                }
            }
            2 | 3 => {
                let target = match below(3) {
                    0 => CallTarget::Thunk(ThunkKind::StackCheck),
                    1 => CallTarget::Thunk(ThunkKind::RuntimeEntry(8 * below(4) as u16)),
                    _ => CallTarget::Method(MethodId(below(methods as usize) as u32)),
                };
                relocs.push(Reloc { at: w, target });
                stack_maps.push([(w as u32 + 1) * 4, w as u32]);
                Insn::Bl { offset: 0 }
            }
            4 => {
                terminators.push(w as u32);
                Insn::Ret { rn: Reg::LR }
            }
            _ => Insn::OrrReg { wide: true, rd: Reg::X3, rn: Reg::ZR, rm: Reg::X4, shift: 0 },
        };
        insns.push(insn);
    }
    let slow_paths: Vec<[u32; 2]> = (0..below(3))
        .map(|_| {
            let (a, b) =
                (landing[below(landing.len())].min(n), landing[below(landing.len())].min(n));
            [a.min(b) as u32, a.max(b) as u32]
        })
        .collect();
    let embedded_data = [[n as u32, pool_len as u32]];
    let tables = MethodTables::new(TableSlices {
        pc_rel: &pc_rel,
        terminators: &terminators,
        embedded_data: if pool_len > 0 { &embedded_data } else { &[] },
        slow_paths: &slow_paths,
        stack_maps: &stack_maps,
        has_indirect_jump: below(4) == 0,
        is_native_stub: below(4) == 0,
    });
    let m = CompiledMethod {
        method: MethodId(id),
        words: encode_words(&insns).expect("the method encodes").into(),
        insns: insns.into(),
        pool: (0..pool_len as u32).map(|i| 0xdead_0000 + i).collect(),
        relocs: relocs.into(),
        tables,
    };
    (m, edits)
}

/// `methods` with `edits` applied in place, as `calibro::run_ltbo` does:
/// each edited method's words, the call sites the rewrite hands over as
/// its relocations, and its rewritten tables.
fn rewritten_in_place(methods: &[CompiledMethod], edits: &MethodEdits) -> Vec<CompiledMethod> {
    let mut rewriter = Rewriter::default();
    let mut out = methods.to_vec();
    for (idx, m) in out.iter_mut().enumerate() {
        if edits.of(idx).is_empty() {
            continue;
        }
        let (mut words, mut relocs) = (Vec::new(), Vec::new());
        let collect = |_: &mut [u32], r| {
            relocs.push(r);
            Ok::<_, ()>(())
        };
        let rewritten = rewriter.rewrite(m, edits.of(idx), &mut words, collect).unwrap();
        *m = CompiledMethod {
            insns: Default::default(),
            words: words.into(),
            relocs: relocs.into(),
            tables: rewritten.tables,
            ..m.clone()
        };
    }
    out
}

fn records_eq(a: &OatFile, b: &OatFile) -> bool {
    a.methods.len() == b.methods.len()
        && a.methods.iter().zip(&b.methods).all(|(a, b)| {
            (a.method, a.offset, a.insn_words, a.code_words)
                == (b.method, b.offset, b.insn_words, b.code_words)
                && a.tables == b.tables
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_tables_block_keeps_the_struct_row_and_both_rewrite_routes_agree(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let count = 1 + rng.below(4) as u32;
        let bodies = 1 + rng.below(3) as u32;
        let (methods, per_method): (Vec<_>, Vec<_>) =
            (0..count).map(|id| method(&mut rng, id, count, bodies)).unzip();
        let mut edits = MethodEdits::default();
        for method_edits in per_method {
            let start = edits.edits.len() as u32;
            edits.edits.extend(method_edits);
            edits.spans.push([start, edits.edits.len() as u32]);
        }
        let mut outlined = OutlinedBodies::default();
        let ret = Insn::Br { rn: Reg::LR }.encode().unwrap();
        for i in 0..bodies {
            let nops = vec![Insn::Nop.encode().unwrap(); i as usize];
            outlined.push(&[&nops, &[ret]]);
        }

        // Every block's row is the struct's, and decodes back to the block.
        for m in &methods {
            prop_assert_eq!(encode(&m.tables), reference::row(&m.tables));
            prop_assert_eq!(calibro_dex::wire::decode::<MethodTables>(&encode(&m.tables)), Ok(m.tables.clone()));
        }

        let base = 0x4000_0000;
        let input = LinkInput { methods: methods.clone(), edits: edits.clone(), outlined: outlined.clone() };
        let by_linker = link(input, base).expect("the linker applies the edits");
        let in_place = rewritten_in_place(&methods, &edits);
        let by_run = link(LinkInput { methods: in_place, outlined, ..LinkInput::default() }, base)
            .expect("rewritten methods link");
        prop_assert!(records_eq(&by_linker, &by_run));
        prop_assert_eq!(&by_linker.words, &by_run.words);
        let image = to_elf_bytes(&by_linker);
        prop_assert!(image == to_elf_bytes(&by_run));
        validate_stack_maps(&by_linker).expect("stack maps follow their calls");

        // The image's records are the rewritten blocks, in the struct's row.
        let loaded = from_elf_bytes(&image).expect("the image loads");
        prop_assert!(records_eq(&loaded, &by_linker));
        for record in &by_linker.methods {
            prop_assert_eq!(encode(&record.tables), reference::row(&record.tables));
        }
    }
}

#[test]
#[should_panic(expected = "terminator removed by outlining")]
fn a_record_inside_an_outlined_range_is_refused() {
    let orr = Insn::OrrReg { wide: true, rd: Reg::X3, rn: Reg::ZR, rm: Reg::X4, shift: 0 };
    let insns = [orr, orr, Insn::Ret { rn: Reg::LR }, orr];
    let m = CompiledMethod {
        method: MethodId(0),
        words: encode_words(&insns).expect("the method encodes").into(),
        insns: insns.into(),
        pool: Default::default(),
        relocs: Default::default(),
        tables: MethodTables::new(TableSlices { terminators: &[2], ..TableSlices::default() }),
    };
    // Words 1..3 become one `bl`: the `ret` at word 2 is behind its first.
    let edit = Edit { start: 1, len: 2, outlined: 0 };
    let _ = Rewriter::default().rewrite(&m, &[edit], &mut Vec::new(), |_, _| Ok::<_, ()>(()));
}
