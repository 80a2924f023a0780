//! The persistent layer: one append-only log per lane, its frames read
//! strictly (magic, format version, checksum, full structural
//! validation).
//!
//! Framing, the log and the validation gauntlet are written once,
//! generically over [`LaneEntry`]; what differs per lane — magic, log
//! name, structural validator — is the entry type's `LaneEntry`
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

use std::collections::HashMap;
use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use calibro_codegen::CompiledMethod;
use calibro_dex::wire::{self, wire_fields, Reader, Wire, WireError, Writer};

use crate::entry::{CacheEntry, GroupPlanEntry, Row, SymbolTemplate};
use crate::error::CacheError;
use crate::hash::CacheKey;

/// Bumped whenever the frame layout changes; CHANGES.md says what each
/// version changed. A well-formed frame of another version is not an
/// error: the log scan leaves it out of the index, so a read of its key
/// is an ordinary miss whose recompute appends a current frame — a
/// cache directory survives a version bump without a manual wipe.
pub const FORMAT_VERSION: u32 = 10;

/// Exactly what differs between the store's lanes. Everything else —
/// the in-memory tier and its counters ([`Lane`](crate::Lane)), framing,
/// the log, strict reads — is written once over this trait.
pub trait LaneEntry: Wire + Send + Sync + 'static {
    /// Frame magic, the first four bytes of every interchange frame.
    const MAGIC: [u8; 4];
    /// Name of the lane's log under the disk directory (`<EXT>.log`).
    const EXT: &'static str;

    /// Structural validation: every index a later stage will follow
    /// must be in bounds, so a poisoned entry is rejected with a typed
    /// error instead of panicking or miscompiling downstream.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    fn validate(&self) -> Result<(), String>;
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
// Frames and the log.
// ---------------------------------------------------------------------

/// Serializes `entry` into the checksummed interchange frame — the
/// exact bytes a lane persists, which a read passes back through the
/// magic / version / key / checksum gauntlet of [`from_frame`].
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

/// One lane's persistent layer: `<dir>/<EXT>.log`, the lane's frames
/// back to back, only ever appended to, and the index from each key to
/// the offset and length of its last current-version frame (a later
/// frame for a key wins). The store that opens a log holds its lock
/// until it drops, so a log has one writer: a second store over the
/// same directory finds it held and runs memory-only.
pub(crate) struct Log {
    path: PathBuf,
    state: Mutex<LogState>,
}

struct LogState {
    file: File,
    index: HashMap<CacheKey, (u64, usize)>,
    /// Where the next frame goes: the end of the last whole frame.
    end: u64,
}

impl Log {
    /// Opens, locks and scans the lane's log under `dir`, cutting a torn
    /// tail — whatever follows the last whole frame of this lane — back
    /// to that frame. `None` when the log cannot be opened or read, or
    /// another store holds it.
    pub(crate) fn open<V: LaneEntry>(dir: &Path) -> Option<Log> {
        std::fs::create_dir_all(dir).ok()?;
        let path = dir.join(format!("{}.log", V::EXT));
        let mut file =
            File::options().read(true).write(true).create(true).truncate(false).open(&path).ok()?;
        file.try_lock().ok()?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).ok()?;
        let (mut index, mut end) = (HashMap::new(), 0);
        while let Ok(version) = frame_version::<V>(&bytes[end..]) {
            let frame = &bytes[end..];
            let len =
                usize::try_from(le_u64(frame, 24)).ok().filter(|&len| len <= frame.len() - 40);
            let Some(len) = len else { break };
            if version == FORMAT_VERSION {
                let key = CacheKey { hi: le_u64(frame, 8), lo: le_u64(frame, 16) };
                index.insert(key, (end as u64, 40 + len));
            }
            end += 40 + len;
        }
        file.set_len(end as u64).ok()?;
        Some(Log { path, state: Mutex::new(LogState { file, index, end: end as u64 }) })
    }

    /// A poisoned lock is recovered: every update leaves the index
    /// naming whole frames only.
    fn state(&self) -> MutexGuard<'_, LogState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `true` when the index holds a current-version frame for `key`.
    pub(crate) fn holds(&self, key: CacheKey) -> bool {
        self.state().index.contains_key(&key)
    }

    /// The entry of `key`'s indexed frame, through the whole
    /// [`from_frame`] gauntlet; `Ok(None)` when the index has none.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`], naming the log, when the frame cannot be
    /// read or fails a check.
    pub(crate) fn read<V: LaneEntry>(&self, key: CacheKey) -> Result<Option<V>, CacheError> {
        let state = self.state();
        let Some(&(at, len)) = state.index.get(&key) else { return Ok(None) };
        let (mut file, mut frame) = (&state.file, vec![0; len]);
        let read = file.seek(SeekFrom::Start(at)).and_then(|_| file.read_exact(&mut frame));
        drop(state);
        let path = || self.path.clone();
        read.map_err(|e| CacheError::Io { path: path(), detail: format!("frame at {at}: {e}") })?;
        let corrupt =
            |e| CacheError::Corrupt { path: path(), detail: format!("frame at {at}: {e}") };
        from_frame(key, &frame).map(Some).map_err(corrupt)
    }

    /// Appends `entry`'s frame under `key` with one write and indexes
    /// it; `false` when the write fails (best-effort, like every disk
    /// write), its partial frame cut off again.
    pub(crate) fn append<V: LaneEntry>(&self, key: CacheKey, entry: &V) -> bool {
        let frame = to_frame(key, entry);
        let mut state = self.state();
        let (mut file, at) = (&state.file, state.end);
        if file.seek(SeekFrom::Start(at)).and_then(|_| file.write_all(&frame)).is_err() {
            let _ = file.set_len(at);
            return false;
        }
        state.index.insert(key, (at, frame.len()));
        state.end += frame.len() as u64;
        true
    }
}

/// The little-endian `u64` at `at`.
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Decodes and fully validates an interchange frame produced by
/// [`to_frame`] or read raw from a lane file — the one gauntlet every
/// byte entering a lane from outside passes.
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
    if le_u64(bytes, 8) != key.hi || le_u64(bytes, 16) != key.lo {
        return Err("key mismatch".to_owned());
    }
    if le_u64(bytes, 24) != (bytes.len() - 40) as u64 {
        return Err("payload length mismatch".to_owned());
    }
    let payload = &bytes[40..];
    if fnv64(payload) != le_u64(bytes, 32) {
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
/// link stages will follow must be in bounds, the relocations must
/// ascend by site (the linker binds them in site order as it copies the
/// runs between edits), every PC-relative site
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
    for (i, r) in m.relocs.iter().enumerate() {
        if r.at >= code_len {
            return Err(format!("relocation at word {} beyond code length {code_len}", r.at));
        }
        if i > 0 && r.at <= m.relocs[i - 1].at {
            return Err(format!("relocation at word {} out of site order", r.at));
        }
    }
    let tables = &m.tables;
    for &[at, target] in tables.pc_rel() {
        if at as usize >= code_len || target as usize >= size_words {
            return Err(format!("pc-rel record {at}→{target} out of bounds"));
        }
        let site = calibro_isa::decode(m.words[at as usize]).ok();
        let encoded = site.and_then(|site| site.pc_rel_offset());
        if encoded != Some((i64::from(target) - i64::from(at)) * 4) {
            return Err(format!("pc-rel site {at} does not encode its record {at}→{target}"));
        }
    }
    for &t in tables.terminators() {
        if t as usize >= code_len {
            return Err(format!("terminator at word {t} beyond code length {code_len}"));
        }
    }
    for &[s, e] in tables.slow_paths() {
        if s > e || e as usize > code_len {
            return Err(format!("slow path {s}..{e} out of bounds"));
        }
    }
    for &[s, l] in tables.embedded_data() {
        if u64::from(s) + u64::from(l) > size_words as u64 {
            return Err(format!("embedded data {s}+{l} beyond {size_words} words"));
        }
    }
    for &[native_offset, _] in tables.stack_maps() {
        let word = native_offset / 4;
        if native_offset % 4 != 0 || word == 0 || word as usize > code_len {
            return Err(format!("stack map at native offset {native_offset} invalid"));
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
        let sites = sites.chain(tables.pc_rel().iter().map(|&[at, _]| at as usize));
        for word in sites.chain(tables.terminators().iter().map(|&t| t as usize)) {
            if flags[word] & SymbolTemplate::FRESH == 0 {
                return Err(format!("template leaves word {word} literal, which must be fresh"));
            }
        }
    }
    Ok(())
}

/// Structural validation of a loaded group plan: the occurrence rows
/// must agree (one body per position), every body must be named by index,
/// be non-empty and occur at least twice, bodies must first occur in
/// index order (the order a replay numbers the outlined functions in),
/// and the occurrences — of all bodies together, in one ascending pass —
/// must be strictly ascending, must not overlap and must lie within the
/// group's code. So a poisoned plan is rejected with a typed error
/// instead of handing the linker overlapping edits or corrupting the
/// outline downstream. A body's words are the code's at its first
/// occurrence, which the method lane's validation already admitted.
fn validate_group_entry(entry: &GroupPlanEntry) -> Result<(), String> {
    let GroupPlanEntry { code_len, lens, positions, bodies } = entry;
    if positions.len() != bodies.len() {
        return Err("occurrence positions and bodies differ in length".to_owned());
    }
    if let Some(body) = lens.iter().position(|&len| len == 0) {
        return Err(format!("body {body} has zero length"));
    }
    let mut counts = vec![0u32; lens.len()];
    let (mut first_seen, mut prev_end) = (0, 0u64);
    for (p, body) in positions.iter().zip(bodies.iter()) {
        let Some(&len) = lens.get(body as usize) else {
            return Err(format!("occurrence at {p} names body {body} of {}", lens.len()));
        };
        if counts[body as usize] == 0 {
            if body != first_seen {
                return Err(format!("body {body} first occurs before body {first_seen}"));
            }
            first_seen += 1;
        }
        counts[body as usize] += 1;
        if u64::from(p) < prev_end {
            return Err(format!("occurrence at {p} overlaps the one before it, or is unsorted"));
        }
        prev_end = u64::from(p) + u64::from(len);
    }
    if prev_end > *code_len as u64 {
        return Err(format!("an occurrence ends at {prev_end}, beyond group code of {code_len}"));
    }
    if let Some(body) = counts.iter().position(|&count| count < 2) {
        return Err(format!("body {body} has fewer than two occurrences"));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Codec: every persisted type is a row of the `Wire` table.
// ---------------------------------------------------------------------

wire_fields!(GroupPlanEntry { code_len, lens, positions, bodies });

/// A row travels as a width tag (0 for `u16`s, 1 for `u32`s) and then
/// its values, both under the field's name.
impl Wire for Row {
    fn put(&self, w: &mut Writer) {
        match self {
            Row::Narrow(values) => {
                w.u8(0);
                w.seq(values);
            }
            Row::Wide(values) => {
                w.u8(1);
                w.seq(values);
            }
        }
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Row, WireError> {
        match r.u8(what)? {
            0 => Ok(Row::Narrow(r.seq(what)?)),
            1 => Ok(Row::Wide(r.seq(what)?)),
            tag => Err(WireError::InvalidTag { what, tag }),
        }
    }
}

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

/// The lane table: one row per entry type — frame magic, log name and
/// the structural validator defined above (the payload codec is the
/// type's `Wire` row).
macro_rules! lanes {
    ($($entry:ty: $magic:literal, $ext:literal, $validate:path;)*) => {$(
        impl LaneEntry for $entry {
            const MAGIC: [u8; 4] = *$magic;
            const EXT: &'static str = $ext;
            fn validate(&self) -> Result<(), String> {
                $validate(self)
            }
        }
    )*};
}

lanes! {
    CacheEntry: b"CALC", "calc", validate_entry;
    GroupPlanEntry: b"CALG", "calg", validate_group_entry;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use calibro_codegen::{CallTarget, MethodTables, Reloc, TableSlices, ThunkKind};
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
                tables: MethodTables::new(TableSlices {
                    pc_rel: &[[0, 2]],
                    terminators: &[0, 3],
                    embedded_data: &[[4, 1]],
                    slow_paths: &[[1, 3]],
                    stack_maps: &[[8, 1]],
                    has_indirect_jump: false,
                    is_native_stub: false,
                }),
            },
            pass_stats: PassStats { folded: 2, insns_in: 9, insns_out: 4, ..PassStats::default() },
            ref_env: 0x5eed_f00d,
        }
    }

    /// A plan of two bodies over a group of 20 code words: one of three
    /// words at 0, 5 and 11, one of two words at 8 and 17.
    pub(crate) fn sample_group() -> GroupPlanEntry {
        GroupPlanEntry {
            code_len: 20,
            lens: vec![3, 2],
            positions: Row::new(vec![0, 5, 8, 11, 17]),
            bodies: Row::new(vec![0, 0, 1, 0, 1]),
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

    /// The same lanes as an older format version wrote them (version 9:
    /// a group plan with a row of counts and a row of body words) — kept
    /// to prove a directory of any other version degrades to misses.
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
        let (compiled, tables) = (&entry.compiled, &entry.compiled.tables);
        // `compiled` leads the payload, so its offsets are payload offsets.
        let in_compiled = |field| start_of(compiled, field);
        let in_tables = |field| in_compiled("tables") + start_of(tables, field);
        frame_contract(
            &entry,
            &["compiled", "pass_stats"],
            &[
                (in_compiled("insns"), "insns"),
                (in_compiled("pool"), "pool"),
                (in_compiled("relocs"), "relocs"),
                (in_tables("pc_rel"), "pc_rel"),
                (in_tables("terminators"), "terminators"),
                (in_tables("embedded_data"), "embedded_data"),
                (in_tables("slow_paths"), "slow_paths"),
                (in_tables("stack_maps"), "stack_maps"),
                (start_of(&entry, "template") + 1, "template"), // after the presence tag
            ],
            &[
                (in_tables("has_indirect_jump"), "has_indirect_jump"),
                (in_tables("is_native_stub"), "is_native_stub"),
            ],
        );
        row_contract(compiled, &["relocs", "tables"]);
        row_contract(tables, &[]);
        row_contract(&entry.pass_stats, &[]);
        row_contract(&compiled.relocs[0], &[]);
    }

    #[test]
    fn group_frames_keep_the_frame_contract() {
        let plan = sample_group();
        // A row's count follows its width tag.
        let (positions, bodies) = (start_of(&plan, "positions"), start_of(&plan, "bodies"));
        let counts = [
            (start_of(&plan, "lens"), "lens"),
            (positions + 1, "positions"),
            (bodies + 1, "bodies"),
        ];
        frame_contract(&plan, &[], &counts, &[(positions, "positions"), (bodies, "bodies")]);
        // A wide row keeps the same contract.
        let wide = GroupPlanEntry {
            code_len: 70_003,
            lens: vec![3],
            positions: Row::new(vec![0, 70_000]),
            bodies: Row::new(vec![0, 0]),
        };
        assert!(matches!((&wide.positions, &wide.bodies), (Row::Wide(_), Row::Narrow(_))));
        assert_eq!(validate_group_entry(&wide), Ok(()));
        let back: GroupPlanEntry = wire::decode(&wire::encode(&wide)).expect("a wide plan decodes");
        assert_eq!(back, wide);
        row_contract(&wide, &[]);
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
        let tables = &mut entry.compiled.tables;
        *tables =
            MethodTables::new(TableSlices { embedded_data: &[[u32::MAX, 2]], ..tables.sections() });
        let frame = to_frame(FIXTURE_KEY, &entry);
        let refusal = from_frame::<CacheEntry>(FIXTURE_KEY, &frame).expect_err("range accepted");
        assert!(refusal.starts_with("embedded data "), "{refusal}");
    }

    #[test]
    fn validation_rejects_out_of_bounds_metadata() {
        let mut entry = sample_entry();
        let tables = &mut entry.compiled.tables;
        *tables = MethodTables::new(TableSlices { terminators: &[0, 3, 99], ..tables.sections() });
        assert!(validate_entry(&entry).is_err());
        let mut entry = sample_entry();
        let tables = &mut entry.compiled.tables;
        *tables = MethodTables::new(TableSlices { stack_maps: &[[0, 1]], ..tables.sections() });
        assert!(validate_entry(&entry).is_err());
        let mut entry = sample_entry();
        Arc::make_mut(&mut entry.compiled.relocs)[0].at = 50;
        assert!(validate_entry(&entry).is_err());
        // Two relocations on one site are out of site order.
        let mut entry = sample_entry();
        let relocs = &mut entry.compiled.relocs;
        *relocs = relocs.iter().chain(relocs.iter()).copied().collect();
        let refusal = validate_entry(&entry).expect_err("a repeated site was accepted");
        assert!(refusal.ends_with("out of site order"), "{refusal}");
    }

    #[test]
    fn group_validation_rejects_malformed_rows() {
        assert_eq!(validate_group_entry(&sample_group()), Ok(()));
        /// The sample with its occurrences replaced.
        fn with(positions: &[u32], bodies: &[u32]) -> GroupPlanEntry {
            let (positions, bodies) = (Row::new(positions.to_vec()), Row::new(bodies.to_vec()));
            GroupPlanEntry { positions, bodies, ..sample_group() }
        }
        let refused = |plan: GroupPlanEntry| {
            validate_group_entry(&plan).expect_err("a malformed plan was accepted")
        };
        let (positions, bodies) = ([0, 5, 8, 11, 17], [0, 0, 1, 0, 1]);
        // Rows that disagree with one another.
        assert_eq!(
            refused(with(&[0, 5], &[0, 0, 0])),
            "occurrence positions and bodies differ in length"
        );
        assert_eq!(
            refused(with(&positions, &[0, 0, 1, 0, 2])),
            "occurrence at 17 names body 2 of 2"
        );
        // Bodies the rows spell out wrongly.
        let zero = GroupPlanEntry { lens: vec![3, 0], ..sample_group() };
        assert_eq!(refused(zero), "body 1 has zero length");
        assert_eq!(
            refused(with(&positions, &[1, 0, 0, 0, 1])),
            "body 1 first occurs before body 0"
        );
        assert_eq!(
            refused(with(&positions, &[0, 0, 1, 0, 0])),
            "body 1 has fewer than two occurrences"
        );
        // Overlap within one body (0..3 and 2..5), and across two: the
        // two-word body at 4 runs into the three-word one at 5. Checked
        // one body at a time, both would pass, and the linker would be
        // handed edits that overlap.
        let within = "occurrence at 2 overlaps the one before it, or is unsorted";
        assert_eq!(refused(with(&[0, 2, 8, 11, 17], &bodies)), within);
        let across = "occurrence at 5 overlaps the one before it, or is unsorted";
        assert_eq!(refused(with(&[0, 4, 5, 11, 17], &[0, 1, 0, 0, 1])), across);
        assert_eq!(
            refused(with(&[0, 5, 8, 11, 19], &bodies)), // 19 + 2 > 20
            "an occurrence ends at 21, beyond group code of 20"
        );
    }

    #[test]
    fn a_plan_whose_bodies_overlap_in_one_method_is_refused_at_the_boundary() {
        // Checksummed and decodable, each body's occurrences apart from
        // one another: the overlap is between the two bodies, which the
        // linker's rewrite would meet as edits that overlap.
        // Body 1 at 6..8, inside body 0's 5..8.
        let plan = GroupPlanEntry { positions: Row::new(vec![0, 5, 6, 11, 17]), ..sample_group() };
        let frame = to_frame(FIXTURE_KEY, &plan);
        assert!(wire::decode::<GroupPlanEntry>(&frame[40..]).is_ok());
        assert_eq!(
            from_frame::<GroupPlanEntry>(FIXTURE_KEY, &frame),
            Err("occurrence at 6 overlaps the one before it, or is unsorted".to_owned())
        );
    }

    impl Log {
        /// Puts `file` in place of the log's file, returning the one it
        /// held: a read-only stand-in makes every append fail.
        pub(crate) fn swap_file(&self, file: File) -> File {
            std::mem::replace(&mut self.state().file, file)
        }
    }
}
