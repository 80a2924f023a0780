//! ELF64 serialization of OAT files.
//!
//! Android OAT files are "special ELF files" (paper §1); this module
//! writes a genuine little-endian ELF64 image for AArch64 with a loadable
//! `.text` segment and an `.oatdata` section carrying the method records
//! (metadata + stack maps), and reads it back. The on-disk `.text` size
//! is the paper's Table 4 measurement.

use std::fmt;

use calibro_codegen::{MethodMetadata, PcRel, StackMapEntry, ThunkKind};
use calibro_dex::MethodId;

use crate::file::{DictLink, MergedRecord, OatFile, OatMethodRecord, OutlinedRecord, ThunkRecord};

const EM_AARCH64: u16 = 0xb7;
// Version 2: merged-island records follow the outlined records.
// Version 3: the shared-dictionary link record follows the merged records.
const MAGIC: &[u8; 8] = b"CALOAT3\0";
const TEXT_FILE_OFFSET: u64 = 0x1000;

/// A failure while loading an ELF-serialized OAT file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The buffer is too small or structurally invalid.
    Truncated,
    /// Not an ELF file, or not one produced by this crate.
    BadMagic,
    /// The `.oatdata` payload is malformed.
    BadOatData(&'static str),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Truncated => f.write_str("file truncated"),
            LoadError::BadMagic => f.write_str("not a Calibro OAT ELF file"),
            LoadError::BadOatData(what) => write!(f, "malformed oatdata: {what}"),
        }
    }
}

impl std::error::Error for LoadError {}

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn usize32(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("size exceeds u32"));
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        let end = self.pos.checked_add(n).ok_or(LoadError::Truncated)?;
        if end > self.buf.len() {
            return Err(LoadError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, LoadError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, LoadError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u16(&mut self) -> Result<u16, LoadError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u64(&mut self) -> Result<u64, LoadError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("len 8")))
    }
    /// A record count, bounded by how many records of at least
    /// `min_record_bytes` the rest of the buffer can hold — so a count a
    /// caller allocates for is never larger than the input itself.
    fn len32(&mut self, what: &'static str, min_record_bytes: usize) -> Result<usize, LoadError> {
        let v = self.u32()? as usize;
        if v > self.buf.len().saturating_sub(self.pos) / min_record_bytes {
            return Err(LoadError::BadOatData(what));
        }
        Ok(v)
    }
}

fn write_metadata(w: &mut Writer, m: &MethodMetadata) {
    w.usize32(m.pc_rel.len());
    for p in &m.pc_rel {
        w.usize32(p.at);
        w.usize32(p.target);
    }
    w.usize32(m.terminators.len());
    for &t in &m.terminators {
        w.usize32(t);
    }
    w.usize32(m.embedded_data.len());
    for &(s, l) in &m.embedded_data {
        w.usize32(s);
        w.usize32(l);
    }
    w.u8(u8::from(m.has_indirect_jump));
    w.u8(u8::from(m.is_native_stub));
    w.usize32(m.slow_paths.len());
    for &(s, e) in &m.slow_paths {
        w.usize32(s);
        w.usize32(e);
    }
}

fn read_metadata(r: &mut Reader<'_>) -> Result<MethodMetadata, LoadError> {
    let n = r.len32("pc_rel count", 8)?;
    let mut pc_rel = Vec::with_capacity(n);
    for _ in 0..n {
        pc_rel.push(PcRel { at: r.u32()? as usize, target: r.u32()? as usize });
    }
    let n = r.len32("terminator count", 4)?;
    let mut terminators = Vec::with_capacity(n);
    for _ in 0..n {
        terminators.push(r.u32()? as usize);
    }
    let n = r.len32("embedded count", 8)?;
    let mut embedded_data = Vec::with_capacity(n);
    for _ in 0..n {
        embedded_data.push((r.u32()? as usize, r.u32()? as usize));
    }
    let has_indirect_jump = r.u8()? != 0;
    let is_native_stub = r.u8()? != 0;
    let n = r.len32("slow path count", 8)?;
    let mut slow_paths = Vec::with_capacity(n);
    for _ in 0..n {
        slow_paths.push((r.u32()? as usize, r.u32()? as usize));
    }
    Ok(MethodMetadata {
        pc_rel,
        terminators,
        embedded_data,
        has_indirect_jump,
        is_native_stub,
        slow_paths,
    })
}

fn write_oatdata(w: &mut Writer, oat: &OatFile) {
    w.0.extend_from_slice(MAGIC);
    w.u64(oat.base_address);
    w.usize32(oat.methods.len());
    for m in &oat.methods {
        w.u32(m.method.0);
        w.u64(m.offset);
        w.usize32(m.insn_words);
        w.usize32(m.code_words);
        write_metadata(w, &m.metadata);
        w.usize32(m.stack_maps.len());
        for s in &m.stack_maps {
            w.u32(s.native_offset);
            w.u32(s.dex_pc);
        }
    }
    w.usize32(oat.thunks.len());
    for t in &oat.thunks {
        let (tag, arg): (u8, u16) = match t.kind {
            ThunkKind::JavaEntry => (0, 0),
            ThunkKind::RuntimeEntry(off) => (1, off),
            ThunkKind::StackCheck => (2, 0),
        };
        w.u8(tag);
        w.u16(arg);
        w.u64(t.offset);
        w.usize32(t.size_words);
    }
    w.usize32(oat.outlined.len());
    for o in &oat.outlined {
        w.u64(o.offset);
        w.usize32(o.size_words);
    }
    w.usize32(oat.merged.len());
    for m in &oat.merged {
        w.u64(m.offset);
        w.usize32(m.size_words);
    }
    match &oat.dict {
        None => w.u8(0),
        Some(d) => {
            w.u8(1);
            w.u64(d.base_address);
            w.u64(d.epoch);
            w.usize32(d.size_words);
        }
    }
}

/// Smallest encodings of the `.oatdata` records, for [`Reader::len32`]
/// and the writer's sizing pass: a method record is its fixed fields,
/// four empty metadata tables, two flag bytes and an empty stack-map
/// table.
const MIN_METHOD_BYTES: usize = 4 + 8 + 4 + 4 + (4 + 4 + 4 + 1 + 1 + 4) + 4;
const STACK_MAP_BYTES: usize = 4 + 4;
const THUNK_BYTES: usize = 1 + 2 + 8 + 4;
const ISLAND_BYTES: usize = 8 + 4;
const DICT_LINK_BYTES: usize = 8 + 8 + 4;

/// The length [`write_oatdata`] will write, from the record counts
/// alone — what lets [`to_elf_bytes`] put final offsets in the header
/// before any record is written.
fn oatdata_len(oat: &OatFile) -> usize {
    let methods: usize = oat
        .methods
        .iter()
        .map(|m| {
            let md = &m.metadata;
            MIN_METHOD_BYTES
                + 8 * (md.pc_rel.len() + md.embedded_data.len() + md.slow_paths.len())
                + 4 * md.terminators.len()
                + STACK_MAP_BYTES * m.stack_maps.len()
        })
        .sum();
    MAGIC.len()
        + 8
        + (4 + methods)
        + (4 + THUNK_BYTES * oat.thunks.len())
        + (4 + ISLAND_BYTES * oat.outlined.len())
        + (4 + ISLAND_BYTES * oat.merged.len())
        + (1 + oat.dict.map_or(0, |_| DICT_LINK_BYTES))
}

fn parse_oatdata(buf: &[u8], words: Vec<u32>) -> Result<OatFile, LoadError> {
    let mut r = Reader { buf, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(LoadError::BadMagic);
    }
    let base_address = r.u64()?;
    let n_methods = r.len32("method count", MIN_METHOD_BYTES)?;
    let mut methods = Vec::with_capacity(n_methods);
    for _ in 0..n_methods {
        let method = MethodId(r.u32()?);
        let offset = r.u64()?;
        let insn_words = r.u32()? as usize;
        let code_words = r.u32()? as usize;
        let metadata = read_metadata(&mut r)?;
        let n_maps = r.len32("stack map count", STACK_MAP_BYTES)?;
        let mut stack_maps = Vec::with_capacity(n_maps);
        for _ in 0..n_maps {
            stack_maps.push(StackMapEntry { native_offset: r.u32()?, dex_pc: r.u32()? });
        }
        methods.push(OatMethodRecord {
            method,
            offset,
            insn_words,
            code_words,
            metadata,
            stack_maps,
        });
    }
    let n_thunks = r.len32("thunk count", THUNK_BYTES)?;
    let mut thunks = Vec::with_capacity(n_thunks);
    for _ in 0..n_thunks {
        let tag = r.u8()?;
        let arg = r.u16()?;
        let kind = match tag {
            0 => ThunkKind::JavaEntry,
            1 => ThunkKind::RuntimeEntry(arg),
            2 => ThunkKind::StackCheck,
            _ => return Err(LoadError::BadOatData("unknown thunk kind")),
        };
        thunks.push(ThunkRecord { kind, offset: r.u64()?, size_words: r.u32()? as usize });
    }
    let n_out = r.len32("outlined count", ISLAND_BYTES)?;
    let mut outlined = Vec::with_capacity(n_out);
    for _ in 0..n_out {
        outlined.push(OutlinedRecord { offset: r.u64()?, size_words: r.u32()? as usize });
    }
    let n_merged = r.len32("merged count", ISLAND_BYTES)?;
    let mut merged = Vec::with_capacity(n_merged);
    for _ in 0..n_merged {
        merged.push(MergedRecord { offset: r.u64()?, size_words: r.u32()? as usize });
    }
    let dict = match r.u8()? {
        0 => None,
        1 => Some(DictLink {
            base_address: r.u64()?,
            epoch: r.u64()?,
            size_words: r.u32()? as usize,
        }),
        _ => return Err(LoadError::BadOatData("unknown dict link tag")),
    };
    Ok(OatFile { base_address, words, methods, thunks, outlined, merged, dict })
}

/// Serializes an [`OatFile`] into a loadable ELF64 image, written once
/// into one buffer: a sizing pass over the records fixes every offset
/// the header needs, then `.text` and `.oatdata` go straight into the
/// output.
#[must_use]
pub fn to_elf_bytes(oat: &OatFile) -> Vec<u8> {
    let text_len = oat.words.len() as u64 * 4;
    let oatdata_len = oatdata_len(oat) as u64;

    let text_off = TEXT_FILE_OFFSET;
    let oatdata_off = text_off + text_len;
    let shstrtab_off = oatdata_off + oatdata_len;
    let shstrtab: &[u8] = b"\0.text\0.oatdata\0.shstrtab\0";
    let shoff = shstrtab_off + shstrtab.len() as u64;
    // Align section header table to 8 bytes.
    let shoff = (shoff + 7) & !7;

    let mut w = Writer(Vec::with_capacity(shoff as usize + 4 * 64));
    // --- ELF header (64 bytes) ---
    w.0.extend_from_slice(&[0x7f, b'E', b'L', b'F', 2, 1, 1, 0]); // ident
    w.0.extend_from_slice(&[0; 8]);
    w.u16(3); // ET_DYN
    w.u16(EM_AARCH64);
    w.u32(1); // EV_CURRENT
    w.u64(oat.base_address); // e_entry: text base
    w.u64(64); // e_phoff
    w.u64(shoff); // e_shoff
    w.u32(0); // e_flags
    w.u16(64); // e_ehsize
    w.u16(56); // e_phentsize
    w.u16(1); // e_phnum
    w.u16(64); // e_shentsize
    w.u16(4); // e_shnum
    w.u16(3); // e_shstrndx

    // --- Program header: LOAD .text ---
    w.u32(1); // PT_LOAD
    w.u32(5); // R+X
    w.u64(text_off);
    w.u64(oat.base_address);
    w.u64(oat.base_address);
    w.u64(text_len);
    w.u64(text_len);
    w.u64(0x1000);

    // --- Padding, then .text word by word into its final place ---
    w.0.resize(oatdata_off as usize, 0);
    for (bytes, word) in w.0[text_off as usize..].chunks_exact_mut(4).zip(&oat.words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    write_oatdata(&mut w, oat);
    assert_eq!(w.0.len() as u64, shstrtab_off, "the sizing pass disagrees with the record writer");
    w.0.extend_from_slice(shstrtab);
    w.0.resize(shoff as usize, 0);

    // --- Section headers ---
    // [0] NULL
    w.0.extend_from_slice(&[0; 64]);
    // [1] .text
    w.u32(1); // name offset in shstrtab
    w.u32(1); // PROGBITS
    w.u64(6); // ALLOC | EXECINSTR
    w.u64(oat.base_address);
    w.u64(text_off);
    w.u64(text_len);
    w.u32(0);
    w.u32(0);
    w.u64(4);
    w.u64(0);
    // [2] .oatdata
    w.u32(7);
    w.u32(1);
    w.u64(0);
    w.u64(0);
    w.u64(oatdata_off);
    w.u64(oatdata_len);
    w.u32(0);
    w.u32(0);
    w.u64(1);
    w.u64(0);
    // [3] .shstrtab
    w.u32(16);
    w.u32(3); // STRTAB
    w.u64(0);
    w.u64(0);
    w.u64(shstrtab_off);
    w.u64(shstrtab.len() as u64);
    w.u32(0);
    w.u32(0);
    w.u64(1);
    w.u64(0);

    w.0
}

/// Loads an OAT file from an ELF image produced by [`to_elf_bytes`].
///
/// # Errors
///
/// Returns a [`LoadError`] for truncated or malformed images.
pub fn from_elf_bytes(bytes: &[u8]) -> Result<OatFile, LoadError> {
    if bytes.len() < 64 || &bytes[0..4] != b"\x7fELF" {
        return Err(LoadError::BadMagic);
    }
    let mut hdr = Reader { buf: bytes, pos: 0x28 };
    let shoff = hdr.u64()?;
    let mut hdr = Reader { buf: bytes, pos: 0x3c };
    let shnum = hdr.u16()? as usize;

    // Locate .text (index 1) and .oatdata (index 2) as written.
    if shnum < 3 {
        return Err(LoadError::BadMagic);
    }
    // Every offset and size below is the file's own claim: checked
    // arithmetic throughout, so a hostile header is `Truncated`, never
    // an overflow or an out-of-range slice.
    let index = |v: u64| usize::try_from(v).map_err(|_| LoadError::Truncated);
    let section = |idx: u64| -> Result<&[u8], LoadError> {
        let header = shoff.checked_add(idx * 64 + 24).ok_or(LoadError::Truncated)?;
        let mut r = Reader { buf: bytes, pos: index(header)? };
        let off = index(r.u64()?)?;
        let end = off.checked_add(index(r.u64()?)?).ok_or(LoadError::Truncated)?;
        bytes.get(off..end).ok_or(LoadError::Truncated)
    };
    let text = section(1)?;
    let oatdata = section(2)?;
    if text.len() % 4 != 0 {
        return Err(LoadError::BadOatData("text not word-aligned"));
    }
    let words: Vec<u32> =
        text.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
    parse_oatdata(oatdata, words)
}

/// On-disk `.text` size of the serialized file, in bytes: the paper's
/// primary metric.
#[must_use]
pub fn text_size_on_disk(oat: &OatFile) -> u64 {
    oat.text_size_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_isa::Insn;

    fn sample() -> OatFile {
        OatFile {
            base_address: 0x4000_0000,
            words: vec![
                Insn::Nop.encode().unwrap(),
                Insn::Ret { rn: calibro_isa::Reg::LR }.encode().unwrap(),
                0xdead_beef,
            ],
            methods: vec![OatMethodRecord {
                method: MethodId(0),
                offset: 0,
                insn_words: 2,
                code_words: 3,
                metadata: MethodMetadata {
                    pc_rel: vec![PcRel { at: 0, target: 2 }],
                    terminators: vec![1],
                    embedded_data: vec![(2, 1)],
                    has_indirect_jump: false,
                    is_native_stub: false,
                    slow_paths: vec![(1, 2)],
                },
                stack_maps: vec![StackMapEntry { native_offset: 4, dex_pc: 7 }],
            }],
            thunks: vec![ThunkRecord {
                kind: ThunkKind::RuntimeEntry(0x108),
                offset: 8,
                size_words: 1,
            }],
            outlined: vec![OutlinedRecord { offset: 12, size_words: 0 }],
            merged: vec![MergedRecord { offset: 12, size_words: 0 }],
            dict: Some(DictLink {
                base_address: crate::file::DICT_BASE_ADDRESS,
                epoch: 3,
                size_words: 9,
            }),
        }
    }

    #[test]
    fn elf_roundtrip_preserves_everything() {
        let oat = sample();
        let bytes = to_elf_bytes(&oat);
        let back = from_elf_bytes(&bytes).unwrap();
        assert_eq!(back.base_address, oat.base_address);
        assert_eq!(back.words, oat.words);
        assert_eq!(back.methods.len(), 1);
        let (a, b) = (&back.methods[0], &oat.methods[0]);
        assert_eq!(a.method, b.method);
        assert_eq!(a.offset, b.offset);
        assert_eq!(a.insn_words, b.insn_words);
        assert_eq!(a.code_words, b.code_words);
        assert_eq!(a.metadata, b.metadata);
        assert_eq!(a.stack_maps, b.stack_maps);
        assert_eq!(back.thunks[0].kind, ThunkKind::RuntimeEntry(0x108));
        assert_eq!(back.outlined[0].offset, 12);
        assert_eq!(back.merged.len(), 1);
        assert_eq!(back.merged[0].offset, 12);
        assert_eq!(back.dict, oat.dict);
    }

    #[test]
    fn elf_header_is_wellformed() {
        let bytes = to_elf_bytes(&sample());
        assert_eq!(&bytes[0..4], b"\x7fELF");
        assert_eq!(bytes[4], 2, "ELFCLASS64");
        assert_eq!(bytes[5], 1, "little endian");
        assert_eq!(u16::from_le_bytes([bytes[18], bytes[19]]), EM_AARCH64);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(matches!(from_elf_bytes(b"hello"), Err(LoadError::BadMagic)));
        let mut bytes = to_elf_bytes(&sample());
        bytes.truncate(bytes.len() / 2);
        assert!(from_elf_bytes(&bytes).is_err());
    }
}
