//! The persistent layer: one file per cache entry, written atomically
//! (temp file + rename) and read strictly (magic, format version,
//! checksum, full structural validation).
//!
//! Framing, file I/O and the validation gauntlet are written once,
//! generically over [`LaneEntry`]; what differs per lane — magic, file
//! extension, structural validator — is the entry type's `LaneEntry`
//! row at the bottom of this file. The payload codec is not written
//! here at all: every persisted type is a row of the [`Wire`] table
//! (`wire_fields!` over its fields, in payload order), so its binary
//! form, bounds rule and error labels are the ones [`calibro_dex::wire`]
//! decides for every other byte that crosses a trust boundary. A
//! compiled method's rows sit beside its type in `calibro-codegen`, and
//! the OAT's `.oatdata` is made of the same ones.
//!
//! Code is stored as machine words and nothing else: a method's words
//! and a plan's candidate words are copied into an image as they are,
//! so no row carries an instruction and framing cannot fail. Which
//! words are code is the validators' rule, one predicate for every
//! lane: each word decodes to an instruction that encodes back to that
//! very word — the canonical encoding the linker emits. Every row is
//! exhaustive over its struct: adding a field to a cached type fails
//! compilation here until the format (and [`FORMAT_VERSION`]) is
//! updated.

use std::io::Read as _;
use std::path::{Path, PathBuf};

use calibro_codegen::{CompiledMethod, PcRel};
use calibro_dex::wire::{self, wire_fields, Reader, Wire, WireError, Writer};

use crate::entry::{CacheEntry, GroupPlanEntry, SymbolTemplate};
use crate::error::CacheError;
use crate::hash::CacheKey;
use crate::peer::PeerLane;

/// Bumped whenever the on-disk layout changes. A well-formed frame of
/// another version is not an error: a disk read treats it as absent (an
/// ordinary miss, and the recompute's store overwrites the file), a
/// peer fetch as a counted peer error — so upgrading across a version
/// needs no manual cache wipe.
///
/// Version 2: call-target tag 5 (`Merged`) and the `.calm` merge-plan
/// lane (since removed with function merging: no lane reads a `.calm`
/// file, and tag 5 is undefined; no surviving frame changed, so the
/// version stands). Version 3: call-target tag 6 (`Dict`) and a shared-dictionary
/// lane (since removed: no lane reads its files). Version 4: payloads
/// are [`Wire`] rows — collection counts are `u32` (were `u64`), a
/// runtime-entry thunk offset is a `u16` (was `u32`), a bool byte other
/// than 0 or 1 is rejected. Version 5: a method's template is one flag byte per word
/// (was a tagged slot per symbol, literals repeated), and a group plan is
/// four flat `u32` rows (was a sequence of candidates with 64-bit
/// symbols and positions). Version 6: a group plan's occurrences are
/// offsets into the group's code words, and its length is the group's
/// word count (were symbol-text positions and the text length).
/// Version 7: a dictionary body is its words alone (its register record
/// is gone). Version 8: a method's metadata tables are `u32` word
/// indices (were `u64`) — the form the OAT's `.oatdata` writes.
pub const FORMAT_VERSION: u32 = 8;

/// Exactly what differs between the store's lanes. Everything else —
/// the in-memory tier and its counters ([`Lane`](crate::Lane)), framing,
/// atomic disk writes, strict reads, peer adoption — is written once
/// over this trait.
pub trait LaneEntry: Wire + Send + Sync + 'static {
    /// Frame magic, the first four bytes of every interchange frame.
    const MAGIC: [u8; 4];
    /// File extension of the lane's disk entries (`<key>.<EXT>`).
    const EXT: &'static str;
    /// The lane's fleet wire code.
    const PEER_LANE: PeerLane;

    /// Structural validation: every index a later stage will follow
    /// must be in bounds, so a poisoned entry is rejected with a typed
    /// error instead of panicking or miscompiling downstream.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    fn validate(&self) -> Result<(), String>;

    /// Approximate resident size in bytes, for the lane's byte budget.
    fn approx_bytes(&self) -> usize;
}

fn entry_path<V: LaneEntry>(dir: &Path, key: CacheKey) -> PathBuf {
    dir.join(format!("{}.{}", key.to_hex(), V::EXT))
}

/// FNV-1a over `bytes`: the frame checksum, and the digest the daemon
/// reports for a sealed artifact.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Store.
// ---------------------------------------------------------------------

/// Serializes `entry` into the checksummed interchange frame — the
/// exact bytes a lane persists. The frame doubles as the peer-wire
/// payload so a fetched artifact passes through the same magic /
/// version / key / checksum gauntlet as a disk read.
#[must_use]
pub fn to_frame<V: LaneEntry>(key: CacheKey, entry: &V) -> Vec<u8> {
    let payload = wire::encode(entry);
    let mut bytes = Vec::with_capacity(payload.len() + 40);
    bytes.extend_from_slice(&V::MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&key.hi.to_le_bytes());
    bytes.extend_from_slice(&key.lo.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv64(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

/// Write-then-rename, removing the tmp file if either step fails so a
/// failed store never strands `<key>.*.tmp<pid>` litter in the cache
/// directory. (A *killed* process can still strand one — those are
/// reclaimed by [`sweep_stale_tmp`] on the next store open.)
fn write_atomic(dir: &Path, path: &Path, tmp: &Path, bytes: &[u8]) -> Result<(), CacheError> {
    let io = |e: std::io::Error| CacheError::Io { path: path.to_path_buf(), detail: e.to_string() };
    std::fs::create_dir_all(dir).map_err(io)?;
    if let Err(e) = std::fs::write(tmp, bytes).and_then(|()| std::fs::rename(tmp, path)) {
        let _ = std::fs::remove_file(tmp);
        return Err(io(e));
    }
    Ok(())
}

/// Removes stale temp files (`*.tmp<pid>`) left behind by crashed or
/// killed writers, returning how many were removed. Entries proper
/// (`*.calc` / `*.calg`) and files of no lane are never
/// touched. Called when a store opens a disk directory; racing an
/// in-flight writer is harmless because a clobbered rename is
/// best-effort anyway and the writer's entry is rewritten on its next
/// store.
pub(crate) fn sweep_stale_tmp(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut removed = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp =
            path.extension().and_then(|e| e.to_str()).is_some_and(|e| e.starts_with("tmp"));
        if is_tmp && std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Persists `entry` under `dir` as `<key>.<EXT>`, best-effort atomic.
///
/// # Errors
///
/// Returns [`CacheError::Io`] on filesystem failures.
pub(crate) fn store<V: LaneEntry>(dir: &Path, key: CacheKey, entry: &V) -> Result<(), CacheError> {
    let path = entry_path::<V>(dir, key);
    let tmp = dir.join(format!("{}.{}.tmp{}", key.to_hex(), V::EXT, std::process::id()));
    write_atomic(dir, &path, &tmp, &to_frame(key, entry))
}

/// Loads and validates the entry for `key`, `Ok(None)` when absent —
/// or when the file is a well-formed frame of another
/// [`FORMAT_VERSION`]: a cache directory written by an older or newer
/// build is a miss per entry, and the recompute's store overwrites the
/// file.
///
/// # Errors
///
/// Returns [`CacheError`] when the file exists but cannot be read or
/// fails any other validation step.
pub(crate) fn load<V: LaneEntry>(dir: &Path, key: CacheKey) -> Result<Option<V>, CacheError> {
    let path = entry_path::<V>(dir, key);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CacheError::Io { path, detail: e.to_string() }),
    };
    let corrupt = |detail| CacheError::Corrupt { path: path.clone(), detail };
    if frame_version::<V>(&bytes).map_err(corrupt)? != FORMAT_VERSION {
        return Ok(None);
    }
    from_frame(key, &bytes).map(Some).map_err(corrupt)
}

/// `true` when a persisted entry for `key` exists under `dir` at the
/// current [`FORMAT_VERSION`] — the header is read, the payload is not
/// validated. Used by the drain flush to skip rewrites; a file [`load`]
/// would read as absent is absent here too, so the flush replaces it.
pub(crate) fn has<V: LaneEntry>(dir: &Path, key: CacheKey) -> bool {
    let mut header = [0u8; 40];
    std::fs::File::open(entry_path::<V>(dir, key))
        .and_then(|mut file| file.read_exact(&mut header))
        .is_ok_and(|()| frame_version::<V>(&header) == Ok(FORMAT_VERSION))
}

/// Decodes and fully validates an interchange frame produced by
/// [`to_frame`], read raw from a lane file, or fetched from a peer —
/// the one gauntlet every byte entering a lane from outside passes.
///
/// # Errors
///
/// Returns a description of the first failed check: header shape,
/// magic, format version, key match, payload length, checksum, decode,
/// or structural validation.
pub fn from_frame<V: LaneEntry>(key: CacheKey, bytes: &[u8]) -> Result<V, String> {
    let version = frame_version::<V>(bytes)?;
    if version != FORMAT_VERSION {
        return Err(format!("format version {version}, expected {FORMAT_VERSION}"));
    }
    let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
    if word(8) != key.hi || word(16) != key.lo {
        return Err("key mismatch".to_owned());
    }
    if word(24) != (bytes.len() - 40) as u64 {
        return Err("payload length mismatch".to_owned());
    }
    let payload = &bytes[40..];
    if fnv64(payload) != word(32) {
        return Err("checksum mismatch".to_owned());
    }
    let entry: V = wire::decode(payload).map_err(|e| e.to_string())?;
    entry.validate()?;
    Ok(entry)
}

/// The format version a frame declares, once it is long enough to hold
/// a header and leads with the lane's magic.
fn frame_version<V: LaneEntry>(bytes: &[u8]) -> Result<u32, String> {
    if bytes.len() < 40 {
        return Err("truncated header".to_owned());
    }
    if bytes[0..4] != V::MAGIC {
        return Err("bad magic".to_owned());
    }
    Ok(u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")))
}

/// `true` when `word` is the canonical word of an instruction: it
/// decodes, and the instruction encodes back to that very word (the
/// decoder is the more permissive of the two). Every lane's code is
/// copied into an image as it is, so this is the word rule of every
/// validator below.
fn is_code_word(word: u32) -> bool {
    calibro_isa::decode(word).ok().and_then(|insn| insn.encode().ok()) == Some(word)
}

/// Structural validation of a loaded entry: every code word must be an
/// instruction's ([`is_code_word`]), every index the LTBO and
/// link stages will follow must be in bounds, every PC-relative site
/// must be a PC-relative instruction whose offset reaches its record's
/// target (outlining patches a site only when that distance changes, and
/// the linker copies the rest as they are), and the template must
/// describe the method's own words — one defined flag per word, every
/// call site, PC-relative site and terminator a separator — so a
/// poisoned entry is rejected here with a typed error instead of
/// panicking or miscompiling downstream.
fn validate_entry(entry: &CacheEntry) -> Result<(), String> {
    let m = &entry.compiled;
    if let Some(at) = m.words.iter().position(|&word| !is_code_word(word)) {
        return Err(format!("word {at} ({:#010x}) is not an instruction", m.words[at]));
    }
    let code_len = m.words.len();
    let size_words = code_len + m.pool.len();
    for r in m.relocs.iter() {
        if r.at >= code_len {
            return Err(format!("relocation at word {} beyond code length {code_len}", r.at));
        }
    }
    for &PcRel { at, target } in &m.metadata.pc_rel {
        if at as usize >= code_len || target as usize >= size_words {
            return Err(format!("pc-rel record {at}→{target} out of bounds"));
        }
        let site = calibro_isa::decode(m.words[at as usize]).ok();
        let encoded = site.and_then(|site| site.pc_rel_offset());
        if encoded != Some((i64::from(target) - i64::from(at)) * 4) {
            return Err(format!("pc-rel site {at} does not encode its record {at}→{target}"));
        }
    }
    for &t in &m.metadata.terminators {
        if t as usize >= code_len {
            return Err(format!("terminator at word {t} beyond code length {code_len}"));
        }
    }
    for &(s, e) in &m.metadata.slow_paths {
        if s > e || e as usize > code_len {
            return Err(format!("slow path {s}..{e} out of bounds"));
        }
    }
    for &(s, l) in &m.metadata.embedded_data {
        if u64::from(s) + u64::from(l) > size_words as u64 {
            return Err(format!("embedded data {s}+{l} beyond {size_words} words"));
        }
    }
    for sm in m.stack_maps.iter() {
        let word = sm.native_offset / 4;
        if sm.native_offset % 4 != 0 || word == 0 || word as usize > code_len {
            return Err(format!("stack map at native offset {} invalid", sm.native_offset));
        }
    }
    if let Some(t) = &entry.template {
        let flags = t.flags();
        if flags.len() != code_len {
            return Err(format!("template has {} flags for {code_len} words", flags.len()));
        }
        const DEFINED: u8 = SymbolTemplate::FRESH | SymbolTemplate::LEADER;
        if let Some(word) = flags.iter().position(|&f| f & !DEFINED != 0) {
            return Err(format!("template flag {:#04x} of word {word} is undefined", flags[word]));
        }
        let sites = m.relocs.iter().map(|r| r.at);
        let sites = sites.chain(m.metadata.pc_rel.iter().map(|rec| rec.at as usize));
        for word in sites.chain(m.metadata.terminators.iter().map(|&t| t as usize)) {
            if flags[word] & SymbolTemplate::FRESH == 0 {
                return Err(format!("template leaves word {word} literal, which must be fresh"));
            }
        }
    }
    Ok(())
}

/// Structural validation of a loaded group plan: the rows must agree
/// (one length and one count per candidate, summing to the words and
/// positions present), and every candidate the replay path will
/// materialize must be well-formed — each word the canonical word of an
/// instruction (an outlined body is its candidate's words, copied into
/// the image as they are), at least two strictly non-overlapping
/// ascending occurrences, all within the group's code — so a poisoned plan
/// is rejected with a typed error instead of corrupting the outline
/// downstream.
fn validate_group_entry(entry: &GroupPlanEntry) -> Result<(), String> {
    let GroupPlanEntry { code_len, lens, counts, words, positions } = entry;
    if lens.len() != counts.len() {
        return Err(format!("{} candidate lengths for {} counts", lens.len(), counts.len()));
    }
    let sum = |row: &[u32]| row.iter().map(|&n| u64::from(n)).sum::<u64>();
    if sum(lens) != words.len() as u64 {
        return Err(format!("candidate lengths sum to {} for {} words", sum(lens), words.len()));
    }
    if sum(counts) != positions.len() as u64 {
        let (total, present) = (sum(counts), positions.len());
        return Err(format!("occurrence counts sum to {total} for {present} positions"));
    }
    for (i, (body, at)) in entry.candidates().enumerate() {
        if body.is_empty() {
            return Err(format!("candidate {i} has zero length"));
        }
        if let Some(&word) = body.iter().find(|&&word| !is_code_word(word)) {
            return Err(format!("candidate {i}: word {word:#010x} is not an instruction"));
        }
        if at.len() < 2 {
            return Err(format!("candidate {i} has fewer than two occurrences"));
        }
        let mut prev_end = 0;
        for &p in at {
            if u64::from(p) < prev_end {
                return Err(format!("candidate {i}: unsorted or overlapping position {p}"));
            }
            prev_end = u64::from(p) + body.len() as u64;
        }
        if prev_end > *code_len as u64 {
            return Err(format!(
                "candidate {i} ends at {prev_end}, beyond group code of {code_len}"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Codec: every persisted type is a row of the `Wire` table.
// ---------------------------------------------------------------------

wire_fields!(GroupPlanEntry { code_len, lens, counts, words, positions });

/// An entry travels as its fields in declaration order, the template as
/// a presence tag and then its flag bytes alone (the form of an
/// `Option<Vec<u8>>` field). Decoding rebuilds the template from those
/// flags over the words just decoded: its leader offsets and canonical
/// hashes are recomputed rather than trusted from disk, so a template can
/// never carry hashes that disagree with its replay output, no matter
/// what the file says. Whether the flags fit the words is
/// `validate_entry`'s to check. Written by hand because the template
/// is read against the method; the destructure is still exhaustive.
impl Wire for CacheEntry {
    fn put(&self, w: &mut Writer) {
        let CacheEntry { compiled, pass_stats, template, ref_env } = self;
        compiled.put(w);
        pass_stats.put(w);
        match template {
            None => w.u8(0),
            Some(template) => {
                w.u8(1);
                w.bytes(template.flags());
            }
        }
        ref_env.put(w);
    }

    fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<CacheEntry, WireError> {
        let compiled: CompiledMethod = Wire::get(r, "compiled")?;
        let pass_stats = Wire::get(r, "pass_stats")?;
        let flags: Option<Vec<u8>> = Wire::get(r, "template")?;
        let template = flags.map(|flags| SymbolTemplate::new(flags, &compiled.words));
        Ok(CacheEntry { compiled, pass_stats, template, ref_env: Wire::get(r, "ref_env")? })
    }
}

#[cfg(test)]
impl wire::FieldEnds for CacheEntry {
    fn field_ends(&self) -> Vec<(&'static str, usize)> {
        let CacheEntry { compiled, pass_stats, template, ref_env } = self;
        let flags = template.as_ref().map(|t| t.flags().to_vec());
        let lens = [
            ("compiled", wire::encode(compiled).len()),
            ("pass_stats", wire::encode(pass_stats).len()),
            ("template", wire::encode(&flags).len()),
            ("ref_env", wire::encode(ref_env).len()),
        ];
        let mut end = 0;
        lens.map(|(name, len)| {
            end += len;
            (name, end)
        })
        .to_vec()
    }
}

// ---------------------------------------------------------------------
// The two lanes.
// ---------------------------------------------------------------------

/// The lane table: one row per entry type — frame magic, file
/// extension, fleet wire code and the structural validator defined
/// above (the payload codec is the type's `Wire` row).
macro_rules! lanes {
    ($($entry:ty: $magic:literal, $ext:literal, $peer:expr, $validate:path;)*) => {$(
        impl LaneEntry for $entry {
            const MAGIC: [u8; 4] = *$magic;
            const EXT: &'static str = $ext;
            const PEER_LANE: PeerLane = $peer;
            fn validate(&self) -> Result<(), String> {
                $validate(self)
            }
            fn approx_bytes(&self) -> usize {
                <$entry>::approx_bytes(self)
            }
        }
    )*};
}

lanes! {
    CacheEntry: b"CALC", "calc", PeerLane::Method, validate_entry;
    GroupPlanEntry: b"CALG", "calg", PeerLane::Group, validate_group_entry;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use calibro_codegen::{CallTarget, MethodMetadata, Reloc, StackMapEntry, ThunkKind};
    use calibro_dex::wire::FieldEnds;
    use calibro_hgraph::PassStats;
    use calibro_isa::{decode_all, encode_words, Insn, Reg};
    use std::sync::Arc;

    const FRESH: u8 = SymbolTemplate::FRESH;
    const LEADER: u8 = SymbolTemplate::LEADER;

    /// A stored method: its words only, and the template its words and
    /// metadata make — the branch, the call and the `ret` fresh, the
    /// branch's target a leader, the `add` the one literal.
    pub(crate) fn sample_entry() -> CacheEntry {
        let insns = [
            Insn::B { offset: 8 },
            Insn::Bl { offset: 0 },
            Insn::AddImm {
                wide: true,
                set_flags: false,
                rd: Reg::X0,
                rn: Reg::X1,
                imm12: 7,
                shift12: false,
            },
            Insn::Ret { rn: Reg::LR },
        ];
        let words = encode_words(&insns).expect("the sample's instructions encode");
        CacheEntry {
            template: Some(SymbolTemplate::new(vec![FRESH, FRESH, LEADER, FRESH], &words)),
            compiled: CompiledMethod {
                method: calibro_dex::MethodId(5),
                insns: Arc::from([]),
                words: words.into(),
                pool: Arc::from([0xdead_beef]),
                relocs: Arc::from([Reloc {
                    at: 1,
                    target: CallTarget::Thunk(ThunkKind::StackCheck),
                }]),
                metadata: Arc::new(MethodMetadata {
                    pc_rel: vec![PcRel { at: 0, target: 2 }],
                    terminators: vec![0, 3],
                    embedded_data: vec![(4, 1)],
                    has_indirect_jump: false,
                    is_native_stub: false,
                    slow_paths: vec![(1, 3)],
                }),
                stack_maps: Arc::from([StackMapEntry { native_offset: 8, dex_pc: 1 }]),
            },
            pass_stats: PassStats { folded: 2, insns_in: 9, insns_out: 4, ..PassStats::default() },
            ref_env: 0x5eed_f00d,
        }
    }

    /// A plan of two candidates — three `nop`s three times, then an
    /// `add` and a `nop` twice — over a group of 20 code words.
    pub(crate) fn sample_group() -> GroupPlanEntry {
        let nop = Insn::Nop.encode().expect("a nop encodes");
        GroupPlanEntry {
            code_len: 20,
            lens: vec![3, 2],
            counts: vec![3, 2],
            words: vec![nop, nop, nop, 0x9100_1c20, nop],
            positions: vec![0, 5, 11, 15, 17],
        }
    }

    /// The key the committed fixtures are framed under.
    pub(crate) const FIXTURE_KEY: CacheKey =
        CacheKey { hi: 0x0123_4567_89ab_cdef, lo: 0xfedc_ba98_7654_3210 };

    macro_rules! fixtures {
        ($dir:literal) => {
            [
                ("calc", include_bytes!(concat!($dir, "0123456789abcdeffedcba9876543210.calc"))),
                ("calg", include_bytes!(concat!($dir, "0123456789abcdeffedcba9876543210.calg"))),
            ]
        };
    }

    /// The two `tests/fixtures/` files: the `sample_*` entries above,
    /// framed under [`FIXTURE_KEY`] by [`to_frame`] at
    /// [`FORMAT_VERSION`].
    const FIXTURES: [(&str, &[u8]); 2] = fixtures!("../tests/fixtures/");

    /// The same lanes as an older format version wrote them (version 7:
    /// a method's metadata tables of `u64` word indices) — kept to prove
    /// a directory of any other version degrades to misses.
    pub(crate) const STALE_FIXTURES: [(&str, &[u8]); 2] = fixtures!("../tests/fixtures/stale/");

    /// Where `field` starts in `value`'s encoding.
    fn start_of(value: &impl FieldEnds, field: &str) -> usize {
        let ends = value.field_ends();
        let i = ends.iter().position(|&(name, _)| name == field).expect("a field of the struct");
        i.checked_sub(1).map_or(0, |before| ends[before].1)
    }

    fn label(error: &WireError) -> Option<&'static str> {
        match error {
            WireError::Truncated { what }
            | WireError::InvalidTag { what, .. }
            | WireError::OversizedCollection { what, .. } => Some(what),
            WireError::BadUtf8 | WireError::TrailingBytes { .. } => None,
        }
    }

    /// What every row owes its readers, whatever its fields: every
    /// strict prefix of its encoding is a typed error labelled with the
    /// field the bytes ran out in — never a panic, never a value — and a
    /// byte past the end is `TrailingBytes`. `nested` lists the fields
    /// whose own row labels its inner fields.
    fn row_contract<T: Wire + FieldEnds>(sample: &T, nested: &[&str]) {
        let bytes = wire::encode(sample);
        let ends = sample.field_ends();
        assert_eq!(ends.last().map(|&(_, end)| end), Some(bytes.len()));
        for cut in 0..bytes.len() {
            let (field, _) = ends.iter().find(|&&(_, end)| end > cut).expect("cut is in a field");
            let error = wire::decode::<T>(&bytes[..cut])
                .err()
                .unwrap_or_else(|| panic!("the {cut}-byte prefix decoded to a value"));
            let what =
                label(&error).unwrap_or_else(|| panic!("prefix {cut} gave unlabelled {error:?}"));
            assert!(
                what == *field || nested.contains(field),
                "prefix {cut} ends inside `{field}` but the error names `{what}`"
            );
        }
        let mut longer = bytes;
        longer.push(0);
        assert_eq!(wire::decode::<T>(&longer).err(), Some(WireError::TrailingBytes { extra: 1 }));
    }

    /// What every lane's frame owes its readers: the sample frames to
    /// exactly the recorded fixture, whose payload decodes back to the
    /// sample (what the structural checks say of it is each lane's own
    /// test); its payload keeps the [`row_contract`]; a `u32::MAX` count
    /// at each of `counts` (payload offset, field) is
    /// `OversizedCollection` — the bounds check, so nothing was
    /// allocated for it; a bool byte of 2 at each of `bools` is
    /// `InvalidTag`.
    fn frame_contract<V: LaneEntry + FieldEnds + core::fmt::Debug>(
        sample: &V,
        nested: &[&str],
        counts: &[(usize, &'static str)],
        bools: &[(usize, &'static str)],
    ) {
        let (ext, fixture) = FIXTURES.iter().find(|(ext, _)| *ext == V::EXT).expect("lane fixture");
        assert_eq!(to_frame(FIXTURE_KEY, sample), *fixture, ".{ext} frame moved");
        let back: V = wire::decode(&fixture[40..]).expect("recorded payload decodes");
        assert_eq!(format!("{back:?}"), format!("{sample:?}"), ".{ext} decode lost something");

        row_contract(sample, nested);
        let payload = wire::encode(sample);
        for &(at, what) in counts {
            let mut huge = payload.clone();
            huge[at..at + 4].fill(0xff);
            assert_eq!(
                wire::decode::<V>(&huge).err(),
                Some(WireError::OversizedCollection { what, len: u64::from(u32::MAX) }),
                ".{ext}: count of `{what}` at payload offset {at}"
            );
        }
        for &(at, what) in bools {
            let mut strict = payload.clone();
            strict[at] = 2;
            assert_eq!(
                wire::decode::<V>(&strict).err(),
                Some(WireError::InvalidTag { what, tag: 2 }),
                ".{ext}: bool `{what}` at payload offset {at}"
            );
        }
    }

    #[test]
    fn method_frames_keep_the_frame_contract() {
        let entry = sample_entry();
        let (compiled, metadata) = (&entry.compiled, &*entry.compiled.metadata);
        // `compiled` leads the payload, so its offsets are payload offsets.
        let in_compiled = |field| start_of(compiled, field);
        let in_metadata = |field| in_compiled("metadata") + start_of(metadata, field);
        frame_contract(
            &entry,
            &["compiled", "pass_stats"],
            &[
                (in_compiled("insns"), "insns"),
                (in_compiled("pool"), "pool"),
                (in_compiled("relocs"), "relocs"),
                (in_metadata("pc_rel"), "pc_rel"),
                (in_metadata("terminators"), "terminators"),
                (in_metadata("embedded_data"), "embedded_data"),
                (in_metadata("slow_paths"), "slow_paths"),
                (in_compiled("stack_maps"), "stack_maps"),
                (start_of(&entry, "template") + 1, "template"), // after the presence tag
            ],
            &[
                (in_metadata("has_indirect_jump"), "has_indirect_jump"),
                (in_metadata("is_native_stub"), "is_native_stub"),
            ],
        );
        row_contract(compiled, &["relocs", "metadata", "stack_maps"]);
        row_contract(metadata, &["pc_rel"]);
        row_contract(&entry.pass_stats, &[]);
        row_contract(&compiled.relocs[0], &[]);
    }

    #[test]
    fn group_frames_keep_the_frame_contract() {
        let plan = sample_group();
        let rows = ["lens", "counts", "words", "positions"];
        frame_contract(&plan, &[], &rows.map(|row| (start_of(&plan, row), row)), &[]);
    }

    #[test]
    fn every_recorded_fixture_passes_the_gauntlet() {
        fn admits<V: LaneEntry>() {
            let (_, fixture) = FIXTURES.iter().find(|(ext, _)| *ext == V::EXT).expect("fixture");
            if let Err(refusal) = from_frame::<V>(FIXTURE_KEY, fixture) {
                panic!(".{}: {refusal}", V::EXT);
            }
        }
        admits::<CacheEntry>();
        admits::<GroupPlanEntry>();
    }

    #[test]
    fn an_undecodable_code_word_in_a_method_frame_is_refused_by_its_validator() {
        // The codec reads words as words; the frame is intact and its
        // payload decodes, so the refusal is `validate_entry`'s.
        let mut entry = sample_entry();
        let mut words = entry.compiled.words.to_vec();
        words[2] = 0; // the literal `add`, unallocated
        entry.compiled.words = words.into();
        let flags = entry.template.as_ref().expect("a template").flags().to_vec();
        entry.template = Some(SymbolTemplate::new(flags, &entry.compiled.words));
        let frame = to_frame(FIXTURE_KEY, &entry);
        assert!(wire::decode::<CacheEntry>(&frame[40..]).is_ok());
        assert_eq!(
            from_frame::<CacheEntry>(FIXTURE_KEY, &frame).map(|_| ()),
            Err("word 2 (0x00000000) is not an instruction".to_owned())
        );
    }

    #[test]
    fn a_method_frames_its_words_and_decodes_to_words_only() {
        let entry = sample_entry();
        let frame = to_frame(FIXTURE_KEY, &entry);
        let back: CacheEntry = from_frame(FIXTURE_KEY, &frame).unwrap();
        assert!(back.compiled.insns.is_empty());
        assert_eq!(back.compiled.words, entry.compiled.words);
        assert_eq!(back.template, entry.template, "flags, leaders and hashes rebuilt alike");
        // The words are what travels: a method that still carries the
        // instructions it was compiled to frames to the same bytes.
        let mut compiled = entry;
        compiled.compiled.insns = decode_all(&compiled.compiled.words).unwrap().into();
        assert_eq!(to_frame(FIXTURE_KEY, &compiled), frame);
    }

    /// `entry` framed and put through the gauntlet: its refusal.
    fn refusal(entry: &CacheEntry) -> String {
        let frame = to_frame(FIXTURE_KEY, entry);
        from_frame::<CacheEntry>(FIXTURE_KEY, &frame).expect_err("the frame was admitted")
    }

    #[test]
    fn a_template_that_does_not_fit_its_words_is_refused() {
        let mut entry = sample_entry();
        let words = entry.compiled.words.clone();
        entry.template = Some(SymbolTemplate::new(vec![FRESH, FRESH, FRESH], &words));
        assert_eq!(refusal(&entry), "template has 3 flags for 4 words");
        entry.template = Some(SymbolTemplate::new(vec![FRESH, FRESH, 4, FRESH], &words));
        assert_eq!(refusal(&entry), "template flag 0x04 of word 2 is undefined");
        // A call site, a branch or a terminator that would replay as a
        // literal could be outlined away.
        for (word, _) in words.iter().enumerate().filter(|&(word, _)| word != 2) {
            let mut flags = vec![FRESH, FRESH, LEADER, FRESH];
            flags[word] &= !FRESH;
            entry.template = Some(SymbolTemplate::new(flags, &words));
            let expected = format!("template leaves word {word} literal, which must be fresh");
            assert_eq!(refusal(&entry), expected);
        }
    }

    #[test]
    fn a_pc_rel_site_that_does_not_reach_its_target_is_refused() {
        // The sample's branch at word 0 lands on word 2. Outlining
        // patches a site only when its distance changes, so a site word
        // that does not encode its record would be linked as it is — or
        // patched by a `with_pc_rel_offset` that panics on it.
        let with_site = |site: Insn| {
            let mut entry = sample_entry();
            let mut words = entry.compiled.words.to_vec();
            words[0] = site.encode().expect("the site encodes");
            entry.compiled.words = words.into();
            let flags = entry.template.as_ref().expect("a template").flags().to_vec();
            entry.template = Some(SymbolTemplate::new(flags, &entry.compiled.words));
            to_frame(FIXTURE_KEY, &entry)
        };
        let refused = Err("pc-rel site 0 does not encode its record 0→2".to_owned());
        let admitted = |site| from_frame::<CacheEntry>(FIXTURE_KEY, &with_site(site)).map(|_| ());
        assert_eq!(admitted(Insn::B { offset: 12 }), refused, "the wrong distance");
        assert_eq!(admitted(Insn::Nop), refused, "not a PC-relative instruction");
        // Any PC-relative form that reaches the target will do.
        assert_eq!(admitted(Insn::Cbz { wide: true, rt: Reg::X0, offset: 8 }), Ok(()));
        // The recorded fixture is the sample, so it passes the same check.
        assert_eq!(with_site(Insn::B { offset: 8 }), FIXTURES[0].1);
    }

    #[test]
    fn an_embedded_data_range_that_wraps_is_refused() {
        // Checksummed and decodable; a `u32` sum `s + l` wraps to 1.
        let mut entry = sample_entry();
        Arc::make_mut(&mut entry.compiled.metadata).embedded_data = vec![(u32::MAX, 2)];
        let frame = to_frame(FIXTURE_KEY, &entry);
        let refusal = from_frame::<CacheEntry>(FIXTURE_KEY, &frame).expect_err("range accepted");
        assert!(refusal.starts_with("embedded data "), "{refusal}");
    }

    #[test]
    fn byte_budgets_charge_at_least_the_owned_vectors() {
        use std::mem::size_of_val;
        // Grown past the fixed 128-byte allowance, so an under-counted
        // element size cannot hide behind it.
        let mut entry = sample_entry();
        let m = &mut entry.compiled;
        let insns: Vec<Insn> = m.instructions().iter().copied().chain([Insn::Nop; 64]).collect();
        m.words = encode_words(&insns).unwrap().into();
        m.insns = insns.into();
        m.relocs = m.relocs.iter().copied().chain([m.relocs[0]; 16]).collect();
        let flags = vec![LEADER; m.words.len()];
        entry.template = Some(SymbolTemplate::new(flags, &m.words));
        let m = &entry.compiled;
        let template = entry.template.as_ref().unwrap();
        let owned = size_of_val(&*m.insns)
            + size_of_val(&*m.words)
            + size_of_val(&*m.pool)
            + size_of_val(&*m.relocs)
            + size_of_val(m.metadata.pc_rel.as_slice())
            + size_of_val(m.metadata.terminators.as_slice())
            + size_of_val(m.metadata.embedded_data.as_slice())
            + size_of_val(m.metadata.slow_paths.as_slice())
            + size_of_val(&*m.stack_maps)
            + size_of_val(template.flags())
            + 4 * m.words.len(); // one leader offset per word
        assert!(entry.approx_bytes() >= owned, "{} < {owned}", entry.approx_bytes());
        let mut plan = sample_group();
        plan.words.extend([0; 64]);
        plan.positions.extend([0; 64]);
        let rows = [&plan.lens, &plan.counts, &plan.words, &plan.positions];
        let owned: usize = rows.iter().map(|row| size_of_val(row.as_slice())).sum();
        assert!(plan.approx_bytes() >= owned, "{} < {owned}", plan.approx_bytes());
    }

    #[test]
    fn validation_rejects_out_of_bounds_metadata() {
        let mut entry = sample_entry();
        Arc::make_mut(&mut entry.compiled.metadata).terminators.push(99);
        assert!(validate_entry(&entry).is_err());
        let mut entry = sample_entry();
        Arc::make_mut(&mut entry.compiled.stack_maps)[0].native_offset = 0;
        assert!(validate_entry(&entry).is_err());
        let mut entry = sample_entry();
        Arc::make_mut(&mut entry.compiled.relocs)[0].at = 50;
        assert!(validate_entry(&entry).is_err());
    }

    #[test]
    fn group_validation_rejects_malformed_rows() {
        assert_eq!(validate_group_entry(&sample_group()), Ok(()));
        let refused = |edit: fn(&mut GroupPlanEntry)| {
            let mut plan = sample_group();
            edit(&mut plan);
            validate_group_entry(&plan).expect_err("a malformed plan was accepted")
        };
        // Rows that disagree with one another.
        assert_eq!(refused(|g| g.counts.push(2)), "2 candidate lengths for 3 counts");
        assert_eq!(refused(|g| g.lens[1] = 3), "candidate lengths sum to 6 for 5 words");
        assert_eq!(refused(|g| g.words.push(0)), "candidate lengths sum to 5 for 6 words");
        assert_eq!(refused(|g| g.counts[0] = 4), "occurrence counts sum to 6 for 5 positions");
        // Candidates the rows spell out wrongly.
        let zero_length = |g: &mut GroupPlanEntry| {
            g.lens.insert(0, 0);
            g.counts.insert(0, 2);
            g.positions.splice(0..0, [1, 2]);
        };
        assert_eq!(refused(zero_length), "candidate 0 has zero length");
        assert_eq!(
            refused(|g| g.words[3] = 0), // unallocated
            "candidate 1: word 0x00000000 is not an instruction"
        );
        let single = |g: &mut GroupPlanEntry| {
            g.counts = vec![3, 1];
            g.positions.pop();
        };
        assert_eq!(refused(single), "candidate 1 has fewer than two occurrences");
        assert_eq!(
            refused(|g| g.positions[1] = 2), // 0..3 and 2..5
            "candidate 0: unsorted or overlapping position 2"
        );
        assert_eq!(
            refused(|g| g.positions[4] = 19), // 19 + 2 > 20
            "candidate 1 ends at 21, beyond group code of 20"
        );
    }

    #[test]
    fn a_plan_word_that_is_not_an_instruction_is_refused_at_the_boundary() {
        // An outlined body is copied from its candidate's words, so the
        // gauntlet is where they are known to be instructions.
        let mut plan = sample_group();
        plan.words[1] = 0; // unallocated
        let frame = to_frame(FIXTURE_KEY, &plan);
        assert_eq!(
            from_frame::<GroupPlanEntry>(FIXTURE_KEY, &frame),
            Err("candidate 0: word 0x00000000 is not an instruction".to_owned())
        );
    }

    #[test]
    fn failed_rename_cleans_up_its_tmp_file() {
        let dir = std::env::temp_dir().join(format!("calibro-tmpfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let key = CacheKey { hi: 3, lo: 4 };
        // Make the rename target un-creatable: a *directory* occupies
        // the entry path, so rename(tmp, path) fails after the tmp is
        // written.
        std::fs::create_dir_all(entry_path::<CacheEntry>(&dir, key)).unwrap();
        assert!(matches!(store(&dir, key, &sample_entry()), Err(CacheError::Io { .. })));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| {
                e.path().extension().is_some_and(|x| x.to_string_lossy().starts_with("tmp"))
            })
            .collect();
        assert!(leftovers.is_empty(), "tmp file leaked: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_removes_stale_tmp_but_keeps_entries() {
        let dir = std::env::temp_dir().join(format!("calibro-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = CacheKey { hi: 21, lo: 22 };
        store(&dir, key, &sample_entry()).unwrap();
        store(&dir, key, &sample_group()).unwrap();
        // Simulate two killed writers (a method entry and a group plan).
        std::fs::write(dir.join(format!("{}.calc.tmp{}", key.to_hex(), 99999)), b"junk").unwrap();
        std::fs::write(dir.join(format!("{}.calg.tmp{}", key.to_hex(), 99999)), b"junk").unwrap();
        assert_eq!(sweep_stale_tmp(&dir), 2);
        // Real entries survive and still load.
        assert!(load::<CacheEntry>(&dir, key).unwrap().is_some());
        assert!(load::<GroupPlanEntry>(&dir, key).unwrap().is_some());
        assert_eq!(sweep_stale_tmp(&dir), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
