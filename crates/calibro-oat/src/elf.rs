//! ELF64 serialization of OAT files.
//!
//! Android OAT files are "special ELF files" (paper §1); this module
//! writes a genuine little-endian ELF64 image for AArch64 with a loadable
//! `.text` segment and an `.oatdata` section carrying the method records
//! (metadata + stack maps), and reads it back. The on-disk `.text` size
//! is the paper's Table 4 measurement.
//!
//! `.oatdata` is a magic, then rows of the workspace's one codec
//! ([`calibro_dex::wire`]): the load address and the record tables,
//! each record its `Wire` row. The ELF headers around it are
//! written and read with the same `Writer` and `Reader`, so every byte
//! of the image passes one bounds-checked reader.

use std::fmt;

use calibro_dex::wire::{Reader, Wire, WireError, Writer};

use crate::file::OatFile;

const EM_AARCH64: u16 = 0xb7;
// Version 2: merged-island records follow the outlined records.
// Version 3: the shared-dictionary link record follows the merged records.
// Version 4: the merged-island table is gone (function merging is); the
// dictionary link record follows the outlined records.
// Version 5: the dictionary link record is gone (the shared dictionary
// is); the outlined records end the section. An image of any other
// version is refused by its magic.
const MAGIC: &[u8; 8] = b"CALOAT5\0";
const TEXT_FILE_OFFSET: u64 = 0x1000;

/// A failure while loading an ELF-serialized OAT file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Not an ELF file, or not one produced by this crate in this
    /// format version (an older `CALOAT` image is refused unread).
    BadMagic,
    /// A header field, a section or an `.oatdata` row the bytes do not
    /// hold: a truncation, an undefined tag or flag byte, a table count
    /// the section cannot hold, or bytes after the last record.
    Malformed(WireError),
}

impl From<WireError> for LoadError {
    fn from(error: WireError) -> LoadError {
        LoadError::Malformed(error)
    }
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::BadMagic => f.write_str("not a Calibro OAT ELF file"),
            LoadError::Malformed(error) => write!(f, "malformed OAT file: {error}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Serializes an [`OatFile`] into a loadable ELF64 image, written once
/// into one buffer: the rows' encoded lengths fix every offset the
/// header needs, then `.text` and `.oatdata` go straight into the
/// output.
#[must_use]
pub fn to_elf_bytes(oat: &OatFile) -> Vec<u8> {
    let OatFile { base_address, words, methods, thunks, outlined } = oat;
    let oatdata_len = MAGIC.len()
        + base_address.encoded_len()
        + methods.encoded_len()
        + thunks.encoded_len()
        + outlined.encoded_len();

    let text_len = words.len() as u64 * 4;
    let text_off = TEXT_FILE_OFFSET;
    let oatdata_off = text_off + text_len;
    let shstrtab_off = oatdata_off + oatdata_len as u64;
    let shstrtab: &[u8] = b"\0.text\0.oatdata\0.shstrtab\0";
    // Align section header table to 8 bytes.
    let shoff = (shstrtab_off + shstrtab.len() as u64 + 7) & !7;

    let mut w = Writer::with_capacity(shoff as usize + 4 * 64);
    // --- ELF header (64 bytes) ---
    w.buf_mut().extend_from_slice(&[0x7f, b'E', b'L', b'F', 2, 1, 1, 0]); // ident
    w.u64(0);
    w.u16(3); // ET_DYN
    w.u16(EM_AARCH64);
    w.u32(1); // EV_CURRENT
    w.u64(*base_address); // e_entry: text base
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
    w.u64(*base_address);
    w.u64(*base_address);
    w.u64(text_len);
    w.u64(text_len);
    w.u64(0x1000);

    // --- Padding, then .text word by word into its final place ---
    let buf = w.buf_mut();
    buf.resize(oatdata_off as usize, 0);
    for (bytes, word) in buf[text_off as usize..].chunks_exact_mut(4).zip(words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    buf.extend_from_slice(MAGIC);
    base_address.put(&mut w);
    methods.put(&mut w);
    thunks.put(&mut w);
    outlined.put(&mut w);
    let buf = w.buf_mut();
    debug_assert_eq!(
        buf.len() as u64,
        shstrtab_off,
        "a row's encoded length is not its encoding's"
    );
    buf.extend_from_slice(shstrtab);
    buf.resize(shoff as usize, 0);

    // --- Section headers: [0] NULL, then .text, .oatdata, .shstrtab ---
    buf.extend_from_slice(&[0; 64]);
    for (name, kind, flags, addr, offset, size, align) in [
        (1, 1, 6, *base_address, text_off, text_len, 4), // PROGBITS, ALLOC | EXECINSTR
        (7, 1, 0, 0, oatdata_off, oatdata_len as u64, 1), // PROGBITS
        (16, 3, 0, 0, shstrtab_off, shstrtab.len() as u64, 1), // STRTAB
    ] {
        w.u32(name); // offset in shstrtab
        w.u32(kind);
        w.u64(flags);
        w.u64(addr);
        w.u64(offset);
        w.u64(size);
        w.u32(0); // sh_link
        w.u32(0); // sh_info
        w.u64(align);
        w.u64(0); // sh_entsize
    }
    w.into_bytes()
}

/// The next `n` bytes of `r`, where `n` is the file's own claim: a
/// length past the address space is a truncation like any other.
fn take<'a>(r: &mut Reader<'a>, n: u64, what: &'static str) -> Result<&'a [u8], WireError> {
    r.take(usize::try_from(n).unwrap_or(usize::MAX), what)
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
    let mut header = Reader::new(bytes);
    header.take(0x28, "ELF header")?;
    let shoff = header.u64("e_shoff")?;
    header.take(0x3c - 0x30, "ELF header")?;
    // Locate .text (index 1) and .oatdata (index 2) as written.
    if header.u16("e_shnum")? < 3 {
        return Err(LoadError::BadMagic);
    }
    // Every offset and size is the file's own claim, read through a
    // bounds-checked `Reader`: a hostile header is a truncation, never
    // an overflow or an out-of-range slice.
    let section = |idx: u64, what| -> Result<&[u8], WireError> {
        let mut header = Reader::new(bytes);
        take(&mut header, shoff.saturating_add(idx * 64 + 24), what)?;
        let (offset, size) = (header.u64(what)?, header.u64(what)?);
        let mut r = Reader::new(bytes);
        take(&mut r, offset, what)?;
        take(&mut r, size, what)
    };
    let text = section(1, ".text")?;
    if text.len() % 4 != 0 {
        return Err(WireError::Truncated { what: ".text" }.into());
    }
    let words = text.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]));

    let mut r = Reader::new(section(2, ".oatdata")?);
    if r.take(MAGIC.len(), "magic")? != MAGIC {
        return Err(LoadError::BadMagic);
    }
    let base_address = Wire::get(&mut r, "base_address")?;
    let methods = Wire::get(&mut r, "methods")?;
    let thunks = Wire::get(&mut r, "thunks")?;
    let outlined = Wire::get(&mut r, "outlined")?;
    let oat = OatFile { base_address, words: words.collect(), methods, thunks, outlined };
    r.finish()?;
    Ok(oat)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::file::{OatMethodRecord, OutlinedRecord, ThunkRecord};
    use calibro_codegen::{MethodMetadata, PcRel, StackMapEntry, ThunkKind};
    use calibro_dex::wire::{encode, SeqElem};
    use calibro_dex::MethodId;
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
                metadata: Arc::new(MethodMetadata {
                    pc_rel: vec![PcRel { at: 0, target: 2 }],
                    terminators: vec![1],
                    embedded_data: vec![(2, 1)],
                    has_indirect_jump: false,
                    is_native_stub: false,
                    slow_paths: vec![(1, 2)],
                }),
                stack_maps: Arc::from([StackMapEntry { native_offset: 4, dex_pc: 7 }]),
            }],
            thunks: vec![ThunkRecord {
                kind: ThunkKind::RuntimeEntry(0x108),
                offset: 8,
                size_words: 1,
            }],
            outlined: vec![OutlinedRecord { offset: 12, size_words: 0 }],
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
    }

    #[test]
    fn every_record_minimum_is_its_smallest_encoding() {
        fn smallest<T: SeqElem>(value: T) {
            assert_eq!(encode(&value).len(), T::MIN_BYTES, "{}", core::any::type_name::<T>());
        }
        smallest(OatMethodRecord {
            method: MethodId(0),
            offset: 0,
            insn_words: 0,
            code_words: 0,
            metadata: Arc::default(),
            stack_maps: Arc::default(),
        });
        smallest(ThunkRecord { kind: ThunkKind::JavaEntry, offset: 0, size_words: 0 });
        smallest(OutlinedRecord { offset: 0, size_words: 0 });
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

    #[test]
    fn an_image_of_a_previous_format_is_refused_unread() {
        let oat = sample();
        let at = TEXT_FILE_OFFSET as usize + oat.words.len() * 4;
        for old in [b"CALOAT3\0", b"CALOAT4\0"] {
            let mut bytes = to_elf_bytes(&oat);
            assert_eq!(&bytes[at..at + MAGIC.len()], MAGIC);
            bytes[at..at + MAGIC.len()].copy_from_slice(old);
            assert_eq!(from_elf_bytes(&bytes).unwrap_err(), LoadError::BadMagic);
        }
    }
}
