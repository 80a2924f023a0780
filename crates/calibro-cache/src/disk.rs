//! The persistent layer: one file per cache entry, written atomically
//! (temp file + rename) and read strictly (magic, format version,
//! checksum, full structural validation).
//!
//! Framing, file I/O and the validation gauntlet are written once,
//! generically over [`LaneEntry`]; what differs per lane — magic, file
//! extension, payload codec, structural validator — is the entry type's
//! `LaneEntry` impl at the bottom of this file.
//!
//! Instructions are stored as their encoded machine words — the same
//! canonical encoding the linker emits — so a loaded entry re-encodes
//! bit-identically. Every serializer destructures its input
//! exhaustively: adding a field to a cached type fails compilation here
//! until the format (and [`FORMAT_VERSION`]) is updated.

use std::path::{Path, PathBuf};

use calibro_codegen::{
    CallTarget, CompiledMethod, MethodMetadata, PcRel, Reloc, StackMapEntry, ThunkKind,
};
use calibro_hgraph::PassStats;
use calibro_isa::Insn;

use crate::entry::{
    CacheEntry, DictEntry, GroupPlanEntry, MergePlanEntry, MergePlanGroup, SymbolTemplate,
    TemplateSlot,
};
use crate::error::CacheError;
use crate::hash::CacheKey;
use crate::peer::PeerLane;

/// Bumped whenever the on-disk layout changes; old entries are rejected
/// as corrupt (and overwritten on the next store).
///
/// Version 2: call-target tag 5 (`Merged`) and the `.calm` merge-plan
/// lane. Version 3: call-target tag 6 (`Dict`) and the `.cald`
/// shared-dictionary lane.
pub const FORMAT_VERSION: u32 = 3;

/// Exactly what differs between the store's lanes. Everything else —
/// the in-memory tier and its counters ([`Lane`](crate::Lane)), framing,
/// atomic disk writes, strict reads, peer adoption — is written once
/// over this trait.
pub trait LaneEntry: Sized + Send + Sync + 'static {
    /// Frame magic, the first four bytes of every interchange frame.
    const MAGIC: [u8; 4];
    /// File extension of the lane's disk entries (`<key>.<EXT>`).
    const EXT: &'static str;
    /// The lane's fleet wire code; `None` keeps the lane local-only
    /// (it never consults the peer source and no peer can ask for it).
    const PEER_LANE: Option<PeerLane>;

    /// Serializes the payload (the frame body after the header).
    ///
    /// # Errors
    ///
    /// Returns a description when the entry contains an instruction
    /// that does not encode (such an entry could never link anyway).
    fn encode(&self) -> Result<Vec<u8>, String>;

    /// Decodes a payload, rejecting truncation, unknown tags,
    /// implausible lengths and trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    fn decode(payload: &[u8]) -> Result<Self, String>;

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

fn fnv64(bytes: &[u8]) -> u64 {
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
/// exact bytes [`store`] persists. The frame doubles as the peer-wire
/// payload so a fetched artifact passes through the same magic /
/// version / key / checksum gauntlet as a disk read.
///
/// # Errors
///
/// Returns a description when the entry contains an instruction that
/// does not encode.
pub fn to_frame<V: LaneEntry>(key: CacheKey, entry: &V) -> Result<Vec<u8>, String> {
    let payload = entry.encode()?;
    let mut bytes = Vec::with_capacity(payload.len() + 40);
    bytes.extend_from_slice(&V::MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&key.hi.to_le_bytes());
    bytes.extend_from_slice(&key.lo.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv64(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    Ok(bytes)
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
/// (`*.calc` / `*.calg` / `*.calm` / `*.cald`) are never touched. Called when a store opens a
/// disk directory; racing an in-flight writer is harmless because a
/// clobbered rename is best-effort anyway and the writer's entry is
/// rewritten on its next store.
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
/// Returns [`CacheError::Io`] on filesystem failures and
/// [`CacheError::Corrupt`] when the entry contains an instruction that
/// does not encode (such an entry could never link anyway).
pub(crate) fn store<V: LaneEntry>(dir: &Path, key: CacheKey, entry: &V) -> Result<(), CacheError> {
    let path = entry_path::<V>(dir, key);
    let bytes = to_frame(key, entry)
        .map_err(|detail| CacheError::Corrupt { path: path.clone(), detail })?;
    let tmp = dir.join(format!("{}.{}.tmp{}", key.to_hex(), V::EXT, std::process::id()));
    write_atomic(dir, &path, &tmp, &bytes)
}

/// Loads and validates the entry for `key`, `Ok(None)` when absent.
///
/// # Errors
///
/// Returns [`CacheError`] when the file exists but cannot be read or
/// fails any validation step.
pub(crate) fn load<V: LaneEntry>(dir: &Path, key: CacheKey) -> Result<Option<V>, CacheError> {
    let path = entry_path::<V>(dir, key);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CacheError::Io { path, detail: e.to_string() }),
    };
    from_frame(key, &bytes).map(Some).map_err(|detail| CacheError::Corrupt { path, detail })
}

/// `true` when a persisted entry for `key` exists under `dir` (no
/// validation — used by the drain flush to skip rewrites).
pub(crate) fn has<V: LaneEntry>(dir: &Path, key: CacheKey) -> bool {
    entry_path::<V>(dir, key).exists()
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
    if bytes.len() < 40 {
        return Err("truncated header".to_owned());
    }
    if bytes[0..4] != V::MAGIC {
        return Err("bad magic".to_owned());
    }
    let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(format!("format version {version}, expected {FORMAT_VERSION}"));
    }
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
    let entry = V::decode(payload)?;
    entry.validate()?;
    Ok(entry)
}

/// Structural validation of a loaded entry: every index the LTBO and
/// link stages will follow must be in bounds, so a poisoned entry is
/// rejected here with a typed error instead of panicking downstream.
fn validate_entry(entry: &CacheEntry) -> Result<(), String> {
    let m = &entry.compiled;
    let code_len = m.insns.len();
    let size_words = code_len + m.pool.len();
    for r in &m.relocs {
        if r.at >= code_len {
            return Err(format!("relocation at word {} beyond code length {code_len}", r.at));
        }
    }
    for rec in &m.metadata.pc_rel {
        if rec.at >= code_len || rec.target >= size_words {
            return Err(format!("pc-rel record {}→{} out of bounds", rec.at, rec.target));
        }
    }
    for &t in &m.metadata.terminators {
        if t >= code_len {
            return Err(format!("terminator at word {t} beyond code length {code_len}"));
        }
    }
    for &(s, e) in &m.metadata.slow_paths {
        if s > e || e > code_len {
            return Err(format!("slow path {s}..{e} out of bounds"));
        }
    }
    for &(s, l) in &m.metadata.embedded_data {
        if s + l > size_words {
            return Err(format!("embedded data {s}+{l} beyond {size_words} words"));
        }
    }
    for sm in &m.stack_maps {
        let word = sm.native_offset / 4;
        if sm.native_offset % 4 != 0 || word == 0 || word as usize > code_len {
            return Err(format!("stack map at native offset {} invalid", sm.native_offset));
        }
    }
    if let Some(t) = &entry.template {
        for slot in &t.slots {
            let word = match *slot {
                TemplateSlot::Leader => continue,
                TemplateSlot::Fresh { word } | TemplateSlot::Lit { word, .. } => word,
            };
            if word as usize >= code_len {
                return Err(format!("template slot names word {word} beyond {code_len}"));
            }
        }
    }
    Ok(())
}

/// Structural validation of a loaded group plan: every candidate the
/// replay path will materialize must be well-formed — literal symbols
/// only, at least two strictly non-overlapping ascending occurrences,
/// all within the group text — so a poisoned plan is rejected with a
/// typed error instead of corrupting the outline downstream.
fn validate_group_entry(entry: &GroupPlanEntry) -> Result<(), String> {
    for (i, c) in entry.candidates.iter().enumerate() {
        if c.len == 0 {
            return Err(format!("candidate {i} has zero length"));
        }
        if c.symbols.len() != c.len {
            return Err(format!("candidate {i}: {} symbols for length {}", c.symbols.len(), c.len));
        }
        if c.symbols.iter().any(|&s| s > u64::from(u32::MAX)) {
            return Err(format!("candidate {i} contains a separator-space symbol"));
        }
        if c.positions.len() < 2 {
            return Err(format!("candidate {i} has fewer than two occurrences"));
        }
        let mut prev_end = 0;
        for &p in &c.positions {
            if p < prev_end {
                return Err(format!("candidate {i}: unsorted or overlapping position {p}"));
            }
            prev_end = p
                .checked_add(c.len)
                .ok_or_else(|| format!("candidate {i}: position {p} overflows"))?;
        }
        if prev_end > entry.text_len {
            return Err(format!(
                "candidate {i} ends at {prev_end}, beyond group text of {}",
                entry.text_len
            ));
        }
    }
    Ok(())
}

/// Structural validation of a loaded merge plan: member indices must
/// fall inside the recorded candidate count, each group must name at
/// least two sorted distinct members including its representative, and
/// diff positions must be sorted and distinct — so a poisoned plan is
/// rejected with a typed error instead of corrupting the merge replay
/// downstream.
fn validate_merge_entry(entry: &MergePlanEntry) -> Result<(), String> {
    let mut seen = vec![false; entry.member_count as usize];
    for (i, g) in entry.groups.iter().enumerate() {
        if g.members.len() < 2 {
            return Err(format!("merge group {i} has fewer than two members"));
        }
        if !g.members.contains(&g.rep) {
            return Err(format!("merge group {i}: representative {} not a member", g.rep));
        }
        let mut prev: Option<u32> = None;
        for &m in &g.members {
            if m >= entry.member_count {
                return Err(format!(
                    "merge group {i}: member {m} beyond candidate count {}",
                    entry.member_count
                ));
            }
            if prev.is_some_and(|p| p >= m) {
                return Err(format!("merge group {i}: unsorted or duplicate member {m}"));
            }
            if std::mem::replace(&mut seen[m as usize], true) {
                return Err(format!("merge group {i}: member {m} appears in two groups"));
            }
            prev = Some(m);
        }
        let mut prev: Option<u32> = None;
        for &d in &g.diff_positions {
            if prev.is_some_and(|p| p >= d) {
                return Err(format!("merge group {i}: unsorted or duplicate diff position {d}"));
            }
            prev = Some(d);
        }
    }
    Ok(())
}

/// Structural validation of a loaded dictionary body: the body must be
/// non-empty (an empty shared function cannot save anything and its
/// island slot would alias the next entry's), and the recorded calling
/// convention must name valid, distinct registers — so a poisoned or
/// maliciously crafted peer reply is rejected with a typed error before
/// it can enter any epoch layout.
fn validate_dict_entry(entry: &DictEntry) -> Result<(), String> {
    if entry.insns.is_empty() {
        return Err("empty dictionary body".to_owned());
    }
    let mut seen = [false; 32];
    for &r in &entry.regs {
        if r >= 32 {
            return Err(format!("calling-convention register {r} out of range"));
        }
        if std::mem::replace(&mut seen[r as usize], true) {
            return Err(format!("calling-convention register {r} listed twice"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Codec.
// ---------------------------------------------------------------------

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

fn serialize_entry(entry: &CacheEntry) -> Result<Vec<u8>, String> {
    let CacheEntry { compiled, pass_stats, template, ref_env } = entry;
    let CompiledMethod { method, insns, pool, relocs, metadata, stack_maps } = compiled;
    let mut w = Writer(Vec::new());
    w.u32(method.0);
    w.len(insns.len());
    for insn in insns {
        let word = insn.encode().map_err(|e| format!("unencodable instruction: {e}"))?;
        w.u32(word);
    }
    w.len(pool.len());
    for &p in pool {
        w.u32(p);
    }
    w.len(relocs.len());
    for Reloc { at, target } in relocs {
        w.len(*at);
        match target {
            CallTarget::Method(id) => {
                w.u8(0);
                w.u32(id.0);
            }
            CallTarget::Thunk(ThunkKind::JavaEntry) => w.u8(1),
            CallTarget::Thunk(ThunkKind::RuntimeEntry(off)) => {
                w.u8(2);
                w.u32(u32::from(*off));
            }
            CallTarget::Thunk(ThunkKind::StackCheck) => w.u8(3),
            CallTarget::Outlined(i) => {
                w.u8(4);
                w.u32(*i);
            }
            CallTarget::Merged(i) => {
                w.u8(5);
                w.u32(*i);
            }
            CallTarget::Dict(i) => {
                w.u8(6);
                w.u32(*i);
            }
        }
    }
    let MethodMetadata {
        pc_rel,
        terminators,
        embedded_data,
        has_indirect_jump,
        is_native_stub,
        slow_paths,
    } = metadata;
    w.len(pc_rel.len());
    for PcRel { at, target } in pc_rel {
        w.len(*at);
        w.len(*target);
    }
    w.len(terminators.len());
    for &t in terminators {
        w.len(t);
    }
    w.len(embedded_data.len());
    for &(s, l) in embedded_data {
        w.len(s);
        w.len(l);
    }
    w.u8(u8::from(*has_indirect_jump));
    w.u8(u8::from(*is_native_stub));
    w.len(slow_paths.len());
    for &(s, e) in slow_paths {
        w.len(s);
        w.len(e);
    }
    w.len(stack_maps.len());
    for StackMapEntry { native_offset, dex_pc } in stack_maps {
        w.u32(*native_offset);
        w.u32(*dex_pc);
    }
    let PassStats {
        folded,
        copies_propagated,
        cse_hits,
        dead_removed,
        simplified,
        returns_merged,
        blocks_removed,
        iterations,
        insns_in,
        insns_out,
    } = pass_stats;
    for v in [
        folded,
        copies_propagated,
        cse_hits,
        dead_removed,
        simplified,
        returns_merged,
        blocks_removed,
        iterations,
        insns_in,
        insns_out,
    ] {
        w.len(*v);
    }
    match template {
        None => w.u8(0),
        Some(t) => {
            let slots = t.slots();
            w.u8(1);
            w.len(slots.len());
            for slot in slots {
                match *slot {
                    TemplateSlot::Leader => w.u8(0),
                    TemplateSlot::Fresh { word } => {
                        w.u8(1);
                        w.u32(word);
                    }
                    TemplateSlot::Lit { encoded, word } => {
                        w.u8(2);
                        w.u32(encoded);
                        w.u32(word);
                    }
                }
            }
        }
    }
    w.u64(*ref_env);
    Ok(w.0)
}

fn serialize_group(entry: &GroupPlanEntry) -> Result<Vec<u8>, String> {
    let GroupPlanEntry { text_len, candidates } = entry;
    let mut w = Writer(Vec::new());
    w.len(*text_len);
    w.len(candidates.len());
    for c in candidates {
        let calibro_suffix::OutlineCandidate { len, positions, symbols } = c;
        w.len(*len);
        w.len(positions.len());
        for &p in positions {
            w.len(p);
        }
        w.len(symbols.len());
        for &s in symbols {
            w.u64(s);
        }
    }
    Ok(w.0)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        if end > self.bytes.len() {
            return Err("truncated payload".to_owned());
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn len(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| "length exceeds usize".to_owned())
    }
    /// A collection length, sanity-bounded against the remaining bytes
    /// so corrupt counts cannot trigger huge allocations.
    fn bounded_len(&mut self, min_item_bytes: usize) -> Result<usize, String> {
        let n = self.len()?;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(min_item_bytes.max(1)) > remaining {
            return Err(format!("implausible collection length {n}"));
        }
        Ok(n)
    }
}

fn deserialize_entry(payload: &[u8]) -> Result<CacheEntry, String> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let method = calibro_dex::MethodId(r.u32()?);
    let n_insns = r.bounded_len(4)?;
    let mut insns: Vec<Insn> = Vec::with_capacity(n_insns);
    for _ in 0..n_insns {
        let word = r.u32()?;
        let insn =
            calibro_isa::decode(word).map_err(|e| format!("undecodable word {word:#010x}: {e}"))?;
        insns.push(insn);
    }
    let n_pool = r.bounded_len(4)?;
    let mut pool = Vec::with_capacity(n_pool);
    for _ in 0..n_pool {
        pool.push(r.u32()?);
    }
    let n_relocs = r.bounded_len(9)?;
    let mut relocs = Vec::with_capacity(n_relocs);
    for _ in 0..n_relocs {
        let at = r.len()?;
        let target = match r.u8()? {
            0 => CallTarget::Method(calibro_dex::MethodId(r.u32()?)),
            1 => CallTarget::Thunk(ThunkKind::JavaEntry),
            2 => {
                let off = r.u32()?;
                let off = u16::try_from(off).map_err(|_| "runtime entry offset overflow")?;
                CallTarget::Thunk(ThunkKind::RuntimeEntry(off))
            }
            3 => CallTarget::Thunk(ThunkKind::StackCheck),
            4 => CallTarget::Outlined(r.u32()?),
            5 => CallTarget::Merged(r.u32()?),
            6 => CallTarget::Dict(r.u32()?),
            t => return Err(format!("unknown call-target tag {t}")),
        };
        relocs.push(Reloc { at, target });
    }
    let n_pc_rel = r.bounded_len(16)?;
    let mut pc_rel = Vec::with_capacity(n_pc_rel);
    for _ in 0..n_pc_rel {
        let at = r.len()?;
        let target = r.len()?;
        pc_rel.push(PcRel { at, target });
    }
    let n_term = r.bounded_len(8)?;
    let mut terminators = Vec::with_capacity(n_term);
    for _ in 0..n_term {
        terminators.push(r.len()?);
    }
    let n_embed = r.bounded_len(16)?;
    let mut embedded_data = Vec::with_capacity(n_embed);
    for _ in 0..n_embed {
        let s = r.len()?;
        let l = r.len()?;
        embedded_data.push((s, l));
    }
    let has_indirect_jump = r.u8()? != 0;
    let is_native_stub = r.u8()? != 0;
    let n_slow = r.bounded_len(16)?;
    let mut slow_paths = Vec::with_capacity(n_slow);
    for _ in 0..n_slow {
        let s = r.len()?;
        let e = r.len()?;
        slow_paths.push((s, e));
    }
    let n_maps = r.bounded_len(8)?;
    let mut stack_maps = Vec::with_capacity(n_maps);
    for _ in 0..n_maps {
        let native_offset = r.u32()?;
        let dex_pc = r.u32()?;
        stack_maps.push(StackMapEntry { native_offset, dex_pc });
    }
    let mut pass_fields = [0usize; 10];
    for slot in &mut pass_fields {
        *slot = r.len()?;
    }
    let [folded, copies_propagated, cse_hits, dead_removed, simplified, returns_merged, blocks_removed, iterations, insns_in, insns_out] =
        pass_fields;
    let pass_stats = PassStats {
        folded,
        copies_propagated,
        cse_hits,
        dead_removed,
        simplified,
        returns_merged,
        blocks_removed,
        iterations,
        insns_in,
        insns_out,
    };
    let template = match r.u8()? {
        0 => None,
        1 => {
            let n_slots = r.bounded_len(1)?;
            let mut slots = Vec::with_capacity(n_slots);
            for _ in 0..n_slots {
                slots.push(match r.u8()? {
                    0 => TemplateSlot::Leader,
                    1 => TemplateSlot::Fresh { word: r.u32()? },
                    2 => {
                        let encoded = r.u32()?;
                        let word = r.u32()?;
                        TemplateSlot::Lit { encoded, word }
                    }
                    t => return Err(format!("unknown template slot tag {t}")),
                });
            }
            // The canonical hashes are recomputed from the slots rather
            // than trusted from disk: a template can then never carry
            // hashes that disagree with its replay output, no matter
            // what the file says.
            Some(SymbolTemplate::new(slots))
        }
        t => return Err(format!("unknown template presence tag {t}")),
    };
    let ref_env = r.u64()?;
    if r.pos != payload.len() {
        return Err(format!("{} trailing bytes", payload.len() - r.pos));
    }
    Ok(CacheEntry {
        compiled: CompiledMethod {
            method,
            insns,
            pool,
            relocs,
            metadata: MethodMetadata {
                pc_rel,
                terminators,
                embedded_data,
                has_indirect_jump,
                is_native_stub,
                slow_paths,
            },
            stack_maps,
        },
        pass_stats,
        template,
        ref_env,
    })
}

fn deserialize_group(payload: &[u8]) -> Result<GroupPlanEntry, String> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let text_len = r.len()?;
    let n_candidates = r.bounded_len(24)?;
    let mut candidates = Vec::with_capacity(n_candidates);
    for _ in 0..n_candidates {
        let len = r.len()?;
        let n_positions = r.bounded_len(8)?;
        let mut positions = Vec::with_capacity(n_positions);
        for _ in 0..n_positions {
            positions.push(r.len()?);
        }
        let n_symbols = r.bounded_len(8)?;
        let mut symbols = Vec::with_capacity(n_symbols);
        for _ in 0..n_symbols {
            symbols.push(r.u64()?);
        }
        candidates.push(calibro_suffix::OutlineCandidate { len, positions, symbols });
    }
    if r.pos != payload.len() {
        return Err(format!("{} trailing bytes", payload.len() - r.pos));
    }
    Ok(GroupPlanEntry { text_len, candidates })
}

fn serialize_merge(entry: &MergePlanEntry) -> Result<Vec<u8>, String> {
    let MergePlanEntry { member_count, groups } = entry;
    let mut w = Writer(Vec::new());
    w.u32(*member_count);
    w.len(groups.len());
    for g in groups {
        let MergePlanGroup { rep, members, diff_positions } = g;
        w.u32(*rep);
        w.len(members.len());
        for &m in members {
            w.u32(m);
        }
        w.len(diff_positions.len());
        for &d in diff_positions {
            w.u32(d);
        }
    }
    Ok(w.0)
}

fn serialize_dict(entry: &DictEntry) -> Result<Vec<u8>, String> {
    let DictEntry { insns, regs } = entry;
    let mut w = Writer(Vec::new());
    w.len(insns.len());
    for insn in insns {
        let word = insn.encode().map_err(|e| format!("unencodable instruction: {e}"))?;
        w.u32(word);
    }
    w.len(regs.len());
    for &r in regs {
        w.u8(r);
    }
    Ok(w.0)
}

fn deserialize_dict(payload: &[u8]) -> Result<DictEntry, String> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let n_insns = r.bounded_len(4)?;
    let mut insns: Vec<Insn> = Vec::with_capacity(n_insns);
    for _ in 0..n_insns {
        let word = r.u32()?;
        let insn =
            calibro_isa::decode(word).map_err(|e| format!("undecodable word {word:#010x}: {e}"))?;
        insns.push(insn);
    }
    let n_regs = r.bounded_len(1)?;
    let mut regs = Vec::with_capacity(n_regs);
    for _ in 0..n_regs {
        regs.push(r.u8()?);
    }
    if r.pos != payload.len() {
        return Err(format!("{} trailing bytes", payload.len() - r.pos));
    }
    Ok(DictEntry { insns, regs })
}

fn deserialize_merge(payload: &[u8]) -> Result<MergePlanEntry, String> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let member_count = r.u32()?;
    let n_groups = r.bounded_len(14)?;
    let mut groups = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        let rep = r.u32()?;
        let n_members = r.bounded_len(4)?;
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            members.push(r.u32()?);
        }
        let n_diffs = r.bounded_len(4)?;
        let mut diff_positions = Vec::with_capacity(n_diffs);
        for _ in 0..n_diffs {
            diff_positions.push(r.u32()?);
        }
        groups.push(MergePlanGroup { rep, members, diff_positions });
    }
    if r.pos != payload.len() {
        return Err(format!("{} trailing bytes", payload.len() - r.pos));
    }
    Ok(MergePlanEntry { member_count, groups })
}

// ---------------------------------------------------------------------
// The four lanes.
// ---------------------------------------------------------------------

/// The lane table: one row per entry type — frame magic, file
/// extension, fleet wire code, then the payload codec and structural
/// validator defined above.
macro_rules! lanes {
    ($($entry:ty: $magic:literal, $ext:literal, $peer:expr, $encode:path, $decode:path, $validate:path;)*) => {$(
        impl LaneEntry for $entry {
            const MAGIC: [u8; 4] = *$magic;
            const EXT: &'static str = $ext;
            const PEER_LANE: Option<PeerLane> = $peer;
            fn encode(&self) -> Result<Vec<u8>, String> {
                $encode(self)
            }
            fn decode(payload: &[u8]) -> Result<Self, String> {
                $decode(payload)
            }
            fn validate(&self) -> Result<(), String> {
                $validate(self)
            }
            fn approx_bytes(&self) -> usize {
                <$entry>::approx_bytes(self)
            }
        }
    )*};
}

// The merge lane is local-only: a plan is cheaper to recompute than a
// network exchange, so the fleet protocol carries no code for it.
lanes! {
    CacheEntry: b"CALC", "calc", Some(PeerLane::Method), serialize_entry, deserialize_entry, validate_entry;
    GroupPlanEntry: b"CALG", "calg", Some(PeerLane::Group), serialize_group, deserialize_group, validate_group_entry;
    MergePlanEntry: b"CALM", "calm", None, serialize_merge, deserialize_merge, validate_merge_entry;
    DictEntry: b"CALD", "cald", Some(PeerLane::Dict), serialize_dict, deserialize_dict, validate_dict_entry;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use calibro_isa::Reg;

    pub(crate) fn sample_entry() -> CacheEntry {
        CacheEntry {
            compiled: CompiledMethod {
                method: calibro_dex::MethodId(5),
                insns: vec![
                    Insn::Nop,
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
                ],
                pool: vec![0xdead_beef],
                relocs: vec![Reloc { at: 1, target: CallTarget::Thunk(ThunkKind::StackCheck) }],
                metadata: MethodMetadata {
                    pc_rel: vec![PcRel { at: 0, target: 4 }],
                    terminators: vec![3],
                    embedded_data: vec![(4, 1)],
                    has_indirect_jump: false,
                    is_native_stub: false,
                    slow_paths: vec![(1, 3)],
                },
                stack_maps: vec![StackMapEntry { native_offset: 8, dex_pc: 1 }],
            },
            pass_stats: PassStats { folded: 2, insns_in: 9, insns_out: 4, ..PassStats::default() },
            template: Some(SymbolTemplate::new(vec![
                TemplateSlot::Leader,
                TemplateSlot::Fresh { word: 0 },
                TemplateSlot::Lit { encoded: 0xd503_201f, word: 2 },
            ])),
            ref_env: 0x5eed_f00d,
        }
    }

    pub(crate) fn sample_group() -> GroupPlanEntry {
        GroupPlanEntry {
            text_len: 20,
            candidates: vec![calibro_suffix::OutlineCandidate {
                len: 3,
                positions: vec![0, 5, 11],
                symbols: vec![100, 101, 102],
            }],
        }
    }

    pub(crate) fn sample_merge() -> MergePlanEntry {
        MergePlanEntry {
            member_count: 5,
            groups: vec![
                MergePlanGroup { rep: 0, members: vec![0, 2], diff_positions: vec![1, 4] },
                MergePlanGroup { rep: 3, members: vec![3, 4], diff_positions: vec![] },
            ],
        }
    }

    pub(crate) fn sample_dict() -> DictEntry {
        DictEntry {
            insns: vec![
                Insn::AddImm {
                    wide: true,
                    set_flags: false,
                    rd: Reg::X0,
                    rn: Reg::X1,
                    imm12: 3,
                    shift12: false,
                },
                Insn::OrrReg { wide: true, rd: Reg::X2, rn: Reg::ZR, rm: Reg::X0, shift: 0 },
            ],
            regs: vec![0, 1, 2],
        }
    }

    /// The key the committed fixtures are framed under.
    pub(crate) const FIXTURE_KEY: CacheKey =
        CacheKey { hi: 0x0123_4567_89ab_cdef, lo: 0xfedc_ba98_7654_3210 };

    /// The four `tests/fixtures/` files, written by the per-lane
    /// `store_*` functions of the commit before the lanes were unified
    /// (PR 15) from the `sample_*` entries above.
    pub(crate) const FIXTURES: [(&str, &[u8]); 4] = [
        ("calc", include_bytes!("../tests/fixtures/0123456789abcdeffedcba9876543210.calc")),
        ("calg", include_bytes!("../tests/fixtures/0123456789abcdeffedcba9876543210.calg")),
        ("calm", include_bytes!("../tests/fixtures/0123456789abcdeffedcba9876543210.calm")),
        ("cald", include_bytes!("../tests/fixtures/0123456789abcdeffedcba9876543210.cald")),
    ];

    fn assert_frame_pinned<V: LaneEntry>(sample: &V) {
        let (_, fixture) = FIXTURES.iter().find(|(ext, _)| *ext == V::EXT).expect("lane fixture");
        assert_eq!(to_frame(FIXTURE_KEY, sample).unwrap(), *fixture, ".{} frame moved", V::EXT);
        let back: V = from_frame(FIXTURE_KEY, fixture).expect("old frame still decodes");
        assert_eq!(to_frame(FIXTURE_KEY, &back).unwrap(), *fixture, ".{} re-encode", V::EXT);
    }

    #[test]
    fn frames_are_byte_identical_to_the_pre_unification_writers() {
        assert_frame_pinned(&sample_entry());
        assert_frame_pinned(&sample_group());
        assert_frame_pinned(&sample_merge());
        assert_frame_pinned(&sample_dict());
    }

    #[test]
    fn validation_rejects_out_of_bounds_metadata() {
        let mut entry = sample_entry();
        entry.compiled.metadata.terminators.push(99);
        assert!(validate_entry(&entry).is_err());
        let mut entry = sample_entry();
        entry.compiled.stack_maps[0].native_offset = 0;
        assert!(validate_entry(&entry).is_err());
        let mut entry = sample_entry();
        entry.compiled.relocs[0].at = 50;
        assert!(validate_entry(&entry).is_err());
    }

    #[test]
    fn group_validation_rejects_malformed_candidates() {
        let mut g = sample_group();
        g.candidates[0].symbols.push(u64::from(u32::MAX) + 1);
        g.candidates[0].len += 1;
        assert!(validate_group_entry(&g).is_err(), "separator-space symbol accepted");
        let mut g = sample_group();
        g.candidates[0].positions = vec![0, 1]; // overlap: 0..3 and 1..4
        assert!(validate_group_entry(&g).is_err(), "overlapping positions accepted");
        let mut g = sample_group();
        g.candidates[0].positions = vec![0, 18]; // 18 + 3 > 20
        assert!(validate_group_entry(&g).is_err(), "out-of-text position accepted");
        let mut g = sample_group();
        g.candidates[0].positions = vec![4];
        assert!(validate_group_entry(&g).is_err(), "single occurrence accepted");
    }

    #[test]
    fn merge_validation_rejects_malformed_plans() {
        let mut m = sample_merge();
        m.groups[0].members = vec![0];
        assert!(validate_merge_entry(&m).is_err(), "single-member group accepted");
        let mut m = sample_merge();
        m.groups[0].rep = 1;
        assert!(validate_merge_entry(&m).is_err(), "non-member representative accepted");
        let mut m = sample_merge();
        m.groups[0].members = vec![0, 9];
        assert!(validate_merge_entry(&m).is_err(), "out-of-range member accepted");
        let mut m = sample_merge();
        m.groups[1].members = vec![2, 3];
        m.groups[1].rep = 3;
        assert!(validate_merge_entry(&m).is_err(), "member shared across groups accepted");
        let mut m = sample_merge();
        m.groups[0].diff_positions = vec![4, 1];
        assert!(validate_merge_entry(&m).is_err(), "unsorted diff positions accepted");
    }

    #[test]
    fn dict_validation_rejects_malformed_bodies() {
        let mut d = sample_dict();
        d.insns.clear();
        assert!(validate_dict_entry(&d).is_err(), "empty body accepted");
        let mut d = sample_dict();
        d.regs = vec![0, 40];
        assert!(validate_dict_entry(&d).is_err(), "out-of-range register accepted");
        let mut d = sample_dict();
        d.regs = vec![5, 5];
        assert!(validate_dict_entry(&d).is_err(), "duplicate register accepted");
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
