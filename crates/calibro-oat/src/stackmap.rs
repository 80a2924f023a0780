//! Stack-map table queries and validation (§3.5 of the paper: "any
//! binary code level optimization should ensure the consistency between
//! the binary code and the stackmap").

use calibro_isa::{decode, Insn};

use crate::file::{OatFile, OatMethodRecord};

/// Looks up the bytecode pc for a native return offset (exact match)
/// in `[native offset, dex pc]` stack maps, as ART does during
/// unwinding.
#[must_use]
pub fn dex_pc_for_return_offset(maps: &[[u32; 2]], native_offset: u32) -> Option<u32> {
    maps.binary_search_by_key(&native_offset, |&[offset, _]| offset).ok().map(|i| maps[i][1])
}

/// A stack-map consistency violation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields name the offending site
pub enum StackMapError {
    /// Entries are not sorted by native offset.
    Unsorted { method: u32 },
    /// An entry points outside the method's code.
    OutOfRange { method: u32, native_offset: u32 },
    /// An entry's return offset does not follow a call instruction.
    NotAfterCall { method: u32, native_offset: u32 },
}

impl core::fmt::Display for StackMapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StackMapError::Unsorted { method } => write!(f, "m{method}: stack maps unsorted"),
            StackMapError::OutOfRange { method, native_offset } => {
                write!(f, "m{method}: stack map at {native_offset:#x} outside code")
            }
            StackMapError::NotAfterCall { method, native_offset } => {
                write!(f, "m{method}: stack map at {native_offset:#x} does not follow a call")
            }
        }
    }
}

impl std::error::Error for StackMapError {}

/// Validates one method's stack maps against its linked code.
///
/// # Errors
///
/// Returns the first [`StackMapError`] found.
pub fn validate_method_stack_maps(
    oat: &OatFile,
    record: &OatMethodRecord,
) -> Result<(), StackMapError> {
    let method = record.method.0;
    let mut prev = None;
    for &[native_offset, _] in record.tables.stack_maps() {
        if let Some(p) = prev {
            if native_offset <= p {
                return Err(StackMapError::Unsorted { method });
            }
        }
        prev = Some(native_offset);
        let word = (native_offset / 4) as usize;
        if word == 0 || word > record.insn_words as usize {
            return Err(StackMapError::OutOfRange { method, native_offset });
        }
        let abs = (record.offset / 4) as usize + word - 1;
        let insn = decode(oat.words[abs])
            .map_err(|_| StackMapError::OutOfRange { method, native_offset })?;
        if !insn.is_call() {
            return Err(StackMapError::NotAfterCall { method, native_offset });
        }
    }
    Ok(())
}

/// Validates every method's stack maps in an OAT file — the §3.5
/// consistency requirement, used by tests after every LTBO run.
///
/// # Errors
///
/// Returns the first [`StackMapError`] found.
pub fn validate_stack_maps(oat: &OatFile) -> Result<(), StackMapError> {
    for record in &oat.methods {
        validate_method_stack_maps(oat, record)?;
    }
    Ok(())
}

/// Decodes the instruction at an absolute address (helper for runtime
/// and diagnostics). Returns `None` for embedded data or out-of-range
/// addresses.
#[must_use]
pub fn insn_at(oat: &OatFile, address: u64) -> Option<Insn> {
    if address < oat.base_address || !address.is_multiple_of(4) {
        return None;
    }
    let word = ((address - oat.base_address) / 4) as usize;
    decode(*oat.words.get(word)?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_return_offset() {
        let maps = [[8, 1], [24, 5]];
        assert_eq!(dex_pc_for_return_offset(&maps, 8), Some(1));
        assert_eq!(dex_pc_for_return_offset(&maps, 24), Some(5));
        assert_eq!(dex_pc_for_return_offset(&maps, 12), None);
    }
}
