//! Error-path coverage for OAT loading and validation: the loader must
//! reject malformed bytes with a typed error (never a panic), the §3.5
//! stack-map validator must reject inconsistent tables — including the
//! offset-0 edge where a "return offset" cannot possibly follow a call —
//! and the structural validator must refuse whatever a loaded image
//! claims, never panic on it.

use calibro_codegen::{compile_method, CodegenOptions, MethodTables, TableSlices};
use calibro_dex::wire::WireError;
use calibro_dex::{BinOp, Cmp, DexFile, DexInsn, InvokeKind, MethodBuilder, MethodId, VReg};
use calibro_hgraph::{build_hgraph, run_pipeline};
use calibro_oat::{
    from_elf_bytes, link, to_elf_bytes, validate_stack_maps, validate_structure, LinkInput,
    LoadError, OatFile, OatMethodRecord, OutlinedRecord, StackMapError, StructureError,
};

/// Links a tiny two-method app (a leaf and a caller, so stack maps are
/// non-empty) into an OAT file.
fn sample_oat() -> OatFile {
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 0);
    let mut leaf = MethodBuilder::new("leaf", 4, 2);
    leaf.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(2), b: VReg(3) });
    leaf.push(DexInsn::Return { src: VReg(0) });
    dex.add_method(leaf.build(class));
    let mut caller = MethodBuilder::new("caller", 4, 2);
    let skip = caller.label();
    caller.push(DexInsn::Const { dst: VReg(0), value: 7 });
    caller.if_z(Cmp::Eq, VReg(2), skip);
    caller.push(DexInsn::Invoke {
        kind: InvokeKind::Static,
        method: MethodId(0),
        args: vec![VReg(2), VReg(3)],
        dst: Some(VReg(0)),
    });
    caller.bind(skip);
    caller.push(DexInsn::Return { src: VReg(0) });
    dex.add_method(caller.build(class));

    calibro_dex::verify(&dex).expect("verify");
    let opts = CodegenOptions { cto: false, collect_metadata: true };
    let methods = dex
        .methods()
        .iter()
        .map(|m| {
            let mut graph = build_hgraph(m);
            run_pipeline(&mut graph);
            compile_method(&graph, &opts)
        })
        .collect();
    let oat = link(LinkInput { methods, ..LinkInput::default() }, 0x4000_0000).expect("link");
    assert!(
        oat.methods.iter().any(|r| !r.tables.stack_maps().is_empty()),
        "sample must exercise stack maps"
    );
    oat
}

#[test]
fn full_elf_roundtrips() {
    let oat = sample_oat();
    let bytes = to_elf_bytes(&oat);
    let back = from_elf_bytes(&bytes).expect("roundtrip");
    assert_eq!(back.words, oat.words);
    assert_eq!(back.base_address, oat.base_address);
}

/// A truncation, found while reading `what`.
fn truncated(what: &'static str) -> LoadError {
    LoadError::Malformed(WireError::Truncated { what })
}

#[test]
fn truncated_elf_is_rejected_as_truncated() {
    let bytes = to_elf_bytes(&sample_oat());
    // Cuts that remove data the loader actually reads (the .text/.oatdata
    // section headers live in the last ~256 bytes, the payload before
    // them) must yield Truncated, not a panic or a silently short file.
    for cut in [300usize, bytes.len() / 2, bytes.len() - 64] {
        let short = &bytes[..bytes.len() - cut];
        assert_eq!(from_elf_bytes(short).unwrap_err(), truncated(".text"), "cut {cut} bytes");
    }
}

#[test]
fn every_prefix_is_rejected_or_loads_identically() {
    // The file ends with bytes the loader never dereferences (the unused
    // shstrtab section), so a short end-cut can still load — but then it
    // must decode to exactly the full file; every other prefix must fail
    // with a typed error, never a panic.
    let oat = sample_oat();
    let bytes = to_elf_bytes(&oat);
    for len in 0..bytes.len() {
        match from_elf_bytes(&bytes[..len]) {
            Err(_) => {}
            Ok(loaded) => {
                assert_eq!(loaded.words, oat.words, "prefix of {len} bytes decoded differently");
                assert_eq!(loaded.methods.len(), oat.methods.len());
            }
        }
    }
}

#[test]
fn corrupted_magic_is_rejected_as_bad_magic() {
    let mut bytes = to_elf_bytes(&sample_oat());
    bytes[0] ^= 0xff;
    assert_eq!(from_elf_bytes(&bytes).unwrap_err(), LoadError::BadMagic);
}

/// Byte offset of section `idx`'s header in an image [`to_elf_bytes`] wrote.
fn section_header(bytes: &[u8], idx: usize) -> usize {
    let shoff = u64::from_le_bytes(bytes[0x28..0x30].try_into().unwrap()) as usize;
    shoff + idx * 64
}

#[test]
fn a_section_header_pointing_past_the_address_space_is_truncated() {
    // `.text` claims offset u64::MAX, size 4: the sum wraps to 3, inside
    // the file, so an unchecked bounds test passes and the slice panics.
    let mut bytes = to_elf_bytes(&sample_oat());
    let text = section_header(&bytes, 1);
    bytes[text + 24..text + 32].copy_from_slice(&u64::MAX.to_le_bytes());
    bytes[text + 32..text + 40].copy_from_slice(&4u64.to_le_bytes());
    assert_eq!(from_elf_bytes(&bytes).unwrap_err(), truncated(".text"));
}

#[test]
fn a_section_table_offset_near_u64_max_is_truncated() {
    let mut bytes = to_elf_bytes(&sample_oat());
    bytes[0x28..0x30].copy_from_slice(&(u64::MAX - 8).to_le_bytes());
    assert_eq!(from_elf_bytes(&bytes).unwrap_err(), truncated(".text"));
}

#[test]
fn a_record_count_the_section_cannot_hold_is_rejected_before_allocating() {
    // A method count equal to the bytes left in the section is "at most
    // one record per byte", yet asks for ~160 bytes of `Vec` capacity per
    // claimed record: bounded by the smallest record, it is refused as
    // the count it is, not discovered records later as a truncation.
    let mut bytes = to_elf_bytes(&sample_oat());
    let (off, size) = oatdata(&bytes);
    let method_count = off + 8 + 8; // after the magic and the base address
    let bytes_left = (size - (8 + 8 + 4)) as u32;
    bytes[method_count..method_count + 4].copy_from_slice(&bytes_left.to_le_bytes());
    assert_eq!(
        from_elf_bytes(&bytes).unwrap_err(),
        LoadError::Malformed(WireError::OversizedCollection {
            what: "methods",
            len: u64::from(bytes_left)
        })
    );
}

/// Where `.oatdata` lies in an image [`to_elf_bytes`] wrote: its offset
/// and size.
fn oatdata(bytes: &[u8]) -> (usize, usize) {
    let header = section_header(bytes, 2);
    let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    (field(header + 24), field(header + 32))
}

#[test]
fn a_flag_byte_other_than_zero_or_one_is_refused_by_name() {
    // The first method record's `has_indirect_jump` byte follows its id,
    // offset, two word counts and three metadata tables.
    let oat = sample_oat();
    let mut bytes = to_elf_bytes(&oat);
    let t = oat.methods[0].tables.sections();
    let tables = (4 + 8 * t.pc_rel.len()) + (4 + 4 * t.terminators.len());
    let flag = oatdata(&bytes).0 + 8 + 8 + 4 + (4 + 8 + 4 + 4) + tables;
    let flag = flag + 4 + 8 * t.embedded_data.len();
    assert_eq!(bytes[flag], u8::from(t.has_indirect_jump));
    bytes[flag] = 2;
    assert_eq!(
        from_elf_bytes(&bytes).unwrap_err(),
        LoadError::Malformed(WireError::InvalidTag { what: "has_indirect_jump", tag: 2 })
    );
}

#[test]
fn an_oatdata_section_longer_than_its_records_is_refused() {
    // One more byte claimed for `.oatdata`: the `.shstrtab` byte after it
    // is inside the file, so only the section's own reader can tell.
    let mut bytes = to_elf_bytes(&sample_oat());
    let size_field = section_header(&bytes, 2) + 32;
    let size = oatdata(&bytes).1 as u64 + 1;
    bytes[size_field..size_field + 8].copy_from_slice(&size.to_le_bytes());
    assert_eq!(
        from_elf_bytes(&bytes).unwrap_err(),
        LoadError::Malformed(WireError::TrailingBytes { extra: 1 })
    );
}

/// `oat` written and loaded back: what a served artifact's validator
/// sees.
fn reloaded(oat: &OatFile) -> OatFile {
    from_elf_bytes(&to_elf_bytes(oat)).expect("the image loads")
}

#[test]
fn an_empty_outlined_function_has_no_return() {
    // Empty, it has no last word: at offset 0 that is no word at all,
    // elsewhere it would be its neighbour's.
    let mut oat = sample_oat();
    validate_structure(&reloaded(&oat)).expect("untampered oat validates");
    let after_first = oat.methods[0].offset + oat.methods[0].size_bytes();
    for offset in [0, after_first] {
        oat.outlined = vec![OutlinedRecord { offset, size_words: 0 }];
        assert_eq!(
            validate_structure(&reloaded(&oat)),
            Err(StructureError::OutlinedNoReturn { index: 0 }),
            "an empty outlined function at byte {offset}"
        );
    }
}

#[test]
fn a_text_ending_past_the_address_space_is_refused() {
    let base_address = u64::MAX - 3;
    let mut oat = sample_oat();
    oat.base_address = base_address;
    assert_eq!(
        validate_structure(&reloaded(&oat)),
        Err(StructureError::BeyondAddressSpace { base_address })
    );
}

/// Edits a record's stack-map table, which it shares with whatever it
/// was linked from.
fn tamper(record: &mut OatMethodRecord, edit: impl FnOnce(&mut Vec<[u32; 2]>)) {
    let mut maps = record.tables.stack_maps().to_vec();
    edit(&mut maps);
    record.tables =
        MethodTables::new(TableSlices { stack_maps: &maps, ..record.tables.sections() });
}

#[test]
fn stack_map_at_native_offset_zero_is_out_of_range() {
    // Offset 0 is the method's first instruction: it cannot be a return
    // offset (nothing precedes it to be the call), and `word - 1` would
    // otherwise underflow into the previous method's code.
    let mut oat = sample_oat();
    validate_stack_maps(&oat).expect("untampered oat validates");
    let record = oat.methods.iter_mut().find(|r| !r.tables.stack_maps().is_empty()).unwrap();
    let method = record.method.0;
    tamper(record, |maps| maps.insert(0, [0, 0]));
    assert_eq!(
        validate_stack_maps(&oat).unwrap_err(),
        StackMapError::OutOfRange { method, native_offset: 0 }
    );
}

#[test]
fn stack_map_past_the_code_is_out_of_range() {
    let mut oat = sample_oat();
    let record = oat.methods.iter_mut().find(|r| !r.tables.stack_maps().is_empty()).unwrap();
    let method = record.method.0;
    let past = (record.insn_words + 1) * 4;
    tamper(record, |maps| maps.push([past, 0]));
    assert_eq!(
        validate_stack_maps(&oat).unwrap_err(),
        StackMapError::OutOfRange { method, native_offset: past }
    );
}

#[test]
fn unsorted_stack_maps_are_rejected() {
    let mut oat = sample_oat();
    let record = oat.methods.iter_mut().find(|r| !r.tables.stack_maps().is_empty()).unwrap();
    let method = record.method.0;
    let dup = record.tables.stack_maps()[0];
    tamper(record, |maps| maps.push(dup)); // duplicate => non-increasing
    assert_eq!(validate_stack_maps(&oat).unwrap_err(), StackMapError::Unsorted { method });
}

#[test]
fn stack_map_not_after_a_call_is_rejected() {
    let mut oat = sample_oat();
    // Find an offset whose preceding instruction is NOT a call: the
    // second word of the method with stack maps (word 1 follows word 0,
    // which is frame setup, never a call).
    let record = oat.methods.iter_mut().find(|r| !r.tables.stack_maps().is_empty()).unwrap();
    let method = record.method.0;
    tamper(record, |maps| maps.insert(0, [4, 0]));
    let err = validate_stack_maps(&oat).unwrap_err();
    assert!(
        matches!(
            err,
            StackMapError::NotAfterCall { method: m, native_offset: 4 }
            | StackMapError::Unsorted { method: m } if m == method
        ),
        "unexpected error {err:?}"
    );
}
