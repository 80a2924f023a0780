//! The one binary codec of the workspace: little-endian primitives over
//! a growable byte buffer, the [`Wire`] trait that gives every persisted
//! or transported type exactly one binary form, and the rows of the
//! types defined in this crate — the program a compile request carries
//! ([`DexFile`]).
//! Every other row sits beside its type, in the crate that defines it
//! (the orphan rule): a compiled method's in `calibro-codegen`, an OAT's
//! `.oatdata` records in `calibro-oat`, the cache's disk frames in
//! `calibro-cache`, the daemon's message table in `calibro-server`.
//!
//! Decoding is strictly bounds-checked: every read that would run past
//! the payload returns [`WireError::Truncated`] (never panics, never
//! reads garbage), every enum tag is validated, and every collection
//! count is checked against the bytes remaining before anything is
//! allocated for it — a counted sequence against its element's smallest
//! encoding ([`SeqElem::MIN_BYTES`]). The codec is self-contained — no
//! serde — so the input surface of every trust boundary is auditable
//! here and in the rows.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use crate::{
    BinOp, ClassId, Cmp, DexFile, DexInsn, FieldId, InvokeKind, Method, MethodId, StaticId, VReg,
};

/// Hard ceiling on decoded collection lengths (methods, instructions,
/// strings), independent of the frame-size bound: a malformed length
/// field inside an otherwise small frame must not drive a huge
/// allocation before the bounds check catches it.
const MAX_COLLECTION_LEN: usize = 1 << 24;

/// Most elements [`Reader::seq`] reserves room for ahead of decoding
/// them. A count is only bounded by the bytes remaining, and an element
/// can be one byte on the wire and tens in memory (a `DexInsn`), so a
/// hostile count inside a 64 MiB frame must not become a multi-GiB
/// reservation; a longer sequence grows from here as it decodes.
const SEQ_RESERVE_CAP: usize = 1 << 16;

/// A decode failure. Every variant carries enough context to log, and
/// none of them abort the connection by themselves — the protocol layer
/// maps them to a typed error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// An enum tag had no defined meaning.
    InvalidTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length field exceeded the collection ceiling.
    OversizedCollection {
        /// What was being decoded.
        what: &'static str,
        /// The claimed length.
        len: u64,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The payload had trailing bytes after the last field.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "payload truncated while decoding {what}"),
            WireError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag:#04x} while decoding {what}")
            }
            WireError::OversizedCollection { what, len } => {
                write!(f, "collection length {len} exceeds the decode ceiling for {what}")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Encode-side primitives: append-only little-endian writer.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer::default()
    }

    /// A fresh writer that holds `bytes` without growing.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Writer {
        Writer { buf: Vec::with_capacity(bytes) }
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far, for a caller that appends bytes of no
    /// [`Wire`] form (a magic, padding, a hasher's domain tags) or
    /// reuses the allocation.
    #[inline]
    pub fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Appends a `u32` byte length, then the UTF-8 bytes (the form of a
    /// `String` field, for an encoder that only borrows the text).
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a `u64` byte length, then the bytes (the form of a
    /// `Vec<u8>` field, for an encoder that only borrows them).
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32` element count, then each element.
    #[inline]
    pub fn seq<T: Wire>(&mut self, items: &[T]) {
        self.u32(items.len() as u32);
        for item in items {
            item.put(self);
        }
    }

    /// Appends a `u32` count of rows of `width` words, then the words
    /// little-endian in one copy: the form of a sequence of `u32`s, or of
    /// `(u32, u32)` pairs when `width` is 2.
    #[inline]
    pub fn u32_rows(&mut self, words: &[u32], width: usize) {
        debug_assert_eq!(words.len() % width, 0, "a partial row");
        self.u32((words.len() / width) as u32);
        self.words(words);
    }

    /// Appends `words` little-endian, uncounted: each output byte is
    /// written once, from a small staging block, and never zeroed first.
    pub fn words(&mut self, words: &[u32]) {
        const BLOCK: usize = 256;
        self.buf.reserve(4 * words.len());
        let mut staged = [0u8; 4 * BLOCK];
        for block in words.chunks(BLOCK) {
            for (bytes, word) in staged.chunks_exact_mut(4).zip(block) {
                bytes.copy_from_slice(&word.to_le_bytes());
            }
            self.buf.extend_from_slice(&staged[..4 * block.len()]);
        }
    }
}

/// Decode-side primitives: a bounds-checked cursor over a payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes not yet consumed, where they lie in the payload.
    #[must_use]
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Fails with [`WireError::TrailingBytes`] unless the payload was
    /// consumed exactly.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes { extra: self.remaining() })
        }
    }

    /// Reads the next `n` bytes as they are (a magic, a header field
    /// that is skipped).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] when fewer than `n` remain.
    #[inline]
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Validates a decoded length field against both the ceiling and
    /// the bytes actually remaining: a length whose elements of at least
    /// `min_bytes` each cannot fit in `remaining` is always malformed.
    #[inline]
    fn bounded(&self, len: u64, min_bytes: usize, what: &'static str) -> Result<usize, WireError> {
        let bytes = len.saturating_mul(min_bytes as u64);
        if len > MAX_COLLECTION_LEN as u64 || bytes > self.remaining() as u64 {
            return Err(WireError::OversizedCollection { what, len });
        }
        Ok(len as usize)
    }

    /// Reads a `u32` element count of elements of at least one byte,
    /// validated before anything is allocated for the elements.
    pub fn count(&mut self, what: &'static str) -> Result<usize, WireError> {
        let n = self.u32(what)?;
        self.bounded(u64::from(n), 1, what)
    }

    /// Reads what [`Writer::u32_rows`] writes: a `u32` row count,
    /// bounded like any sequence's, then the rows' words, appended to
    /// `out`. Returns the row count.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::OversizedCollection`] for a count the bytes
    /// remaining cannot hold, [`WireError::Truncated`] for a missing
    /// count.
    pub fn u32_rows(
        &mut self,
        width: usize,
        out: &mut Vec<u32>,
        what: &'static str,
    ) -> Result<usize, WireError> {
        let n = self.u32(what)?;
        let n = self.bounded(u64::from(n), 4 * width, what)?;
        let bytes = self.take(4 * width * n, what)?;
        out.extend(
            bytes.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes"))),
        );
        Ok(n)
    }

    /// Reads a `u32` element count, then that many elements, into a
    /// vector sized once: the count is already bounded by how many of
    /// the element's smallest encoding the bytes remaining hold, the
    /// reservation also by `SEQ_RESERVE_CAP`.
    pub fn seq<T: SeqElem>(&mut self, what: &'static str) -> Result<Vec<T>, WireError> {
        let n = self.u32(what)?;
        let n = self.bounded(u64::from(n), T::MIN_BYTES, what)?;
        let mut items = Vec::with_capacity(n.min(SEQ_RESERVE_CAP));
        for _ in 0..n {
            items.push(T::get(self, what)?);
        }
        Ok(items)
    }
}

/// A type with exactly one wire form. Frame payloads and message bodies
/// are structs of `Wire` fields (see `wire_fields!` below and `message!`
/// in `calibro_server::proto`), so a field's width, framing and
/// validation are decided here, once per type, and not at every frame or
/// message that carries one.
pub trait Wire: Sized {
    /// Appends the value.
    fn put(&self, w: &mut Writer);

    /// Reads one value. `what` names the field being decoded and ends
    /// up in the [`WireError`] when the bytes do not hold one.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or an invalid encoding.
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, WireError>;

    /// How many bytes [`put`](Wire::put) appends. Primitives, sequences
    /// and `wire_fields!` rows add it up from their fields without
    /// writing anything, which is what lets a container be sized exactly
    /// before it is written (the OAT image); other forms encode to count.
    fn encoded_len(&self) -> usize {
        encode(self).len()
    }
}

/// An element of a counted sequence: `Vec<T>` travels as a `u32` count,
/// then each element. `MIN_BYTES` is the element's smallest encoding, so
/// [`Reader::seq`] refuses a count the bytes remaining cannot hold
/// before it reserves anything. Declared with [`wire_seq!`]. (`Vec<u8>`
/// is not a sequence: raw bytes have a form of their own.)
pub trait SeqElem: Wire {
    /// Fewest bytes one element encodes to.
    const MIN_BYTES: usize;
}

impl<T: SeqElem> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.seq(self);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<T>, WireError> {
        r.seq(what)
    }

    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

/// A shared sequence has its vector's form: a table shared between a
/// cache entry and the methods replayed from it travels as if owned.
impl<T: SeqElem> Wire for Arc<[T]> {
    fn put(&self, w: &mut Writer) {
        w.seq(self);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Arc<[T]>, WireError> {
        r.seq(what).map(Arc::from)
    }

    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

/// A shared value has the value's form.
impl<T: Wire> Wire for Arc<T> {
    fn put(&self, w: &mut Writer) {
        (**self).put(w);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Arc<T>, WireError> {
        T::get(r, what).map(Arc::new)
    }

    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

/// Declares counted sequences of the listed element types, each with its
/// smallest encoding in bytes (`wire_seq!(Elem: 8, ...)`): the bound
/// [`Reader::seq`] checks a count against.
#[macro_export]
macro_rules! wire_seq {
    ($($elem:ty: $min:expr),* $(,)?) => {$(
        impl $crate::wire::SeqElem for $elem {
            const MIN_BYTES: usize = $min;
        }
    )*};
}
pub use wire_seq;

/// Encodes `value` as a whole message body.
#[must_use]
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.put(&mut w);
    w.into_bytes()
}

/// Decodes a whole message body: one `T` and nothing after it.
///
/// # Errors
///
/// Returns [`WireError`] on any malformed field or trailing bytes.
pub fn decode<T: Wire>(body: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(body);
    let value = T::get(&mut r, "message body")?;
    r.finish()?;
    Ok(value)
}

/// The little-endian integers: the `Writer`/`Reader` primitive and the
/// [`Wire`] impl, once per width.
macro_rules! le_ints {
    ($($int:ident)*) => {
        impl Writer {$(
            #[doc = concat!("Appends a `", stringify!($int), "`, little-endian.")]
            #[inline]
            pub fn $int(&mut self, v: $int) {
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
        )*}

        impl Reader<'_> {$(
            #[doc = concat!("Reads a little-endian `", stringify!($int), "`.")]
            #[inline]
            pub fn $int(&mut self, what: &'static str) -> Result<$int, WireError> {
                let raw = self.take(core::mem::size_of::<$int>(), what)?;
                Ok($int::from_le_bytes(raw.try_into().expect("length checked")))
            }
        )*}

        $(impl Wire for $int {
            #[inline]
            fn put(&self, w: &mut Writer) {
                w.$int(*self);
            }

            #[inline]
            fn get(r: &mut Reader<'_>, what: &'static str) -> Result<$int, WireError> {
                r.$int(what)
            }

            #[inline]
            fn encoded_len(&self) -> usize {
                core::mem::size_of::<$int>()
            }
        })*
    };
}

le_ints!(u8 u16 u32 u64 i16 i32);

/// A `usize` travels as a `u64` (no remaining-bytes bound — these are
/// scalar counts such as branch targets, not collection lengths).
impl Wire for usize {
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<usize, WireError> {
        let v = r.u64(what)?;
        usize::try_from(v).map_err(|_| WireError::OversizedCollection { what, len: v })
    }

    fn encoded_len(&self) -> usize {
        8
    }
}

/// One byte; anything but 0 or 1 is rejected.
impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        w.u8(u8::from(*self));
    }

    #[inline]
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<bool, WireError> {
        match r.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag { what, tag }),
        }
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

/// A `u32` byte length, then UTF-8.
impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.str(self);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<String, WireError> {
        let n = r.count(what)?;
        String::from_utf8(r.take(n, what)?.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

/// Raw bytes: a `u64` length, then the bytes. (Not a counted sequence
/// of `u8` elements — artifacts are megabytes and copied in one piece.)
impl Wire for Vec<u8> {
    fn put(&self, w: &mut Writer) {
        w.bytes(self);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<u8>, WireError> {
        let claimed = r.u64(what)?;
        let n = r.bounded(claimed, 1, what)?;
        Ok(r.take(n, what)?.to_vec())
    }

    fn encoded_len(&self) -> usize {
        8 + self.len()
    }
}

wire_seq!(u16: 2, u32: 4, u64: 8, usize: 8, (u32, u32): 8, VReg: 2, DexInsn: 1);

/// A word range, `(start, end)` or `(start, len)`: both halves decode
/// under the field's name. (Concrete, not a blanket tuple impl — a pair
/// can have a form of its own.)
impl Wire for (u32, u32) {
    fn put(&self, w: &mut Writer) {
        w.u32(self.0);
        w.u32(self.1);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<(u32, u32), WireError> {
        Ok((r.u32(what)?, r.u32(what)?))
    }

    fn encoded_len(&self) -> usize {
        8
    }
}

/// A one-byte presence tag, then the value when present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Option<T>, WireError> {
        match r.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r, what)?)),
            tag => Err(WireError::InvalidTag { what, tag }),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
}

/// Whole milliseconds in a `u32`, saturating: the protocol's only
/// durations are request deadlines.
impl Wire for Duration {
    fn put(&self, w: &mut Writer) {
        w.u32(self.as_millis().min(u128::from(u32::MAX)) as u32);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Duration, WireError> {
        Ok(Duration::from_millis(u64::from(r.u32(what)?)))
    }
}

/// Implements [`Wire`] for a struct as its fields in the listed order,
/// which is the wire order. Both directions are exhaustive over the
/// struct (a destructuring without `..`, a literal without `..`), so a
/// field added to the struct fails compilation here instead of silently
/// not being transported. Each field is decoded under its own name.
#[macro_export]
macro_rules! wire_fields {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::wire::Wire for $name {
            #[inline]
            fn put(&self, w: &mut $crate::wire::Writer) {
                let $name { $($field),* } = self;
                $($crate::wire::Wire::put($field, w);)*
            }

            #[inline]
            fn get(
                r: &mut $crate::wire::Reader<'_>,
                _what: &'static str,
            ) -> Result<$name, $crate::wire::WireError> {
                Ok($name { $($field: $crate::wire::Wire::get(r, stringify!($field))?),* })
            }

            fn encoded_len(&self) -> usize {
                let $name { $($field),* } = self;
                0 $(+ $crate::wire::Wire::encoded_len($field))*
            }
        }

        impl $crate::wire::FieldEnds for $name {
            fn field_ends(&self) -> Vec<(&'static str, usize)> {
                let $name { $($field),* } = self;
                let mut end = 0;
                vec![$({
                    end += $crate::wire::encode($field).len();
                    (stringify!($field), end)
                }),*]
            }
        }
    };
}
pub use wire_fields;

/// Test support: where each field of an encoded struct ends, so the
/// frame and message contracts can tell which field a truncation landed
/// in. Compiled unconditionally, impls included: a contract test in one
/// crate reads the rows of types another crate defines.
#[doc(hidden)]
pub trait FieldEnds {
    /// `(field name, end offset)` per field, in wire order.
    fn field_ends(&self) -> Vec<(&'static str, usize)>;
}

// ---------------------------------------------------------------------------
// Domain encoders/decoders.
// ---------------------------------------------------------------------------

/// Newtype ids travel as the integer they wrap.
macro_rules! wire_ids {
    ($($id:ident)*) => {$(
        impl Wire for $id {
            fn put(&self, w: &mut Writer) {
                self.0.put(w);
            }

            #[inline]
            fn get(r: &mut Reader<'_>, what: &'static str) -> Result<$id, WireError> {
                Ok($id(Wire::get(r, what)?))
            }

            fn encoded_len(&self) -> usize {
                self.0.encoded_len()
            }
        }
    )*};
}

wire_ids!(VReg ClassId FieldId MethodId StaticId);

/// Operand enums travel as the one-byte code calibro-dex assigns them.
macro_rules! wire_codes {
    ($($operand:ident)*) => {$(
        impl Wire for $operand {
            fn put(&self, w: &mut Writer) {
                w.u8(self.code());
            }

            fn get(r: &mut Reader<'_>, what: &'static str) -> Result<$operand, WireError> {
                let tag = r.u8(what)?;
                $operand::from_code(tag).ok_or(WireError::InvalidTag { what, tag })
            }
        }
    )*};
}

wire_codes!(BinOp Cmp InvokeKind);

impl Wire for DexInsn {
    // Inlined into `put_method_body`'s loop: every warm rebuild runs it
    // once per instruction of the program to key its methods.
    #[inline]
    fn put(&self, w: &mut Writer) {
        match self {
            DexInsn::Nop => w.u8(0),
            DexInsn::Const { dst, value } => {
                w.u8(1);
                dst.put(w);
                value.put(w);
            }
            DexInsn::Move { dst, src } => {
                w.u8(2);
                dst.put(w);
                src.put(w);
            }
            DexInsn::Bin { op, dst, a, b } => {
                w.u8(3);
                op.put(w);
                dst.put(w);
                a.put(w);
                b.put(w);
            }
            DexInsn::BinLit { op, dst, a, lit } => {
                w.u8(4);
                op.put(w);
                dst.put(w);
                a.put(w);
                lit.put(w);
            }
            DexInsn::IGet { dst, obj, field } => {
                w.u8(5);
                dst.put(w);
                obj.put(w);
                field.put(w);
            }
            DexInsn::IPut { src, obj, field } => {
                w.u8(6);
                src.put(w);
                obj.put(w);
                field.put(w);
            }
            DexInsn::SGet { dst, slot } => {
                w.u8(7);
                dst.put(w);
                slot.put(w);
            }
            DexInsn::SPut { src, slot } => {
                w.u8(8);
                src.put(w);
                slot.put(w);
            }
            DexInsn::NewInstance { dst, class } => {
                w.u8(9);
                dst.put(w);
                class.put(w);
            }
            DexInsn::Invoke { kind, method, args, dst } => {
                w.u8(10);
                kind.put(w);
                method.put(w);
                w.seq(args);
                dst.put(w);
            }
            DexInsn::InvokeNative { method, args, dst } => {
                w.u8(11);
                method.put(w);
                w.seq(args);
                dst.put(w);
            }
            DexInsn::If { cmp, a, b, target } => {
                w.u8(12);
                cmp.put(w);
                a.put(w);
                b.put(w);
                target.put(w);
            }
            DexInsn::IfZ { cmp, a, target } => {
                w.u8(13);
                cmp.put(w);
                a.put(w);
                target.put(w);
            }
            DexInsn::Goto { target } => {
                w.u8(14);
                target.put(w);
            }
            DexInsn::Switch { src, first_key, targets } => {
                w.u8(15);
                src.put(w);
                first_key.put(w);
                w.seq(targets);
            }
            DexInsn::Return { src } => {
                w.u8(16);
                src.put(w);
            }
            DexInsn::ReturnVoid => w.u8(17),
            DexInsn::Throw { src } => {
                w.u8(18);
                src.put(w);
            }
        }
    }

    // Inlined into `Reader::seq`'s loop: a daemon decodes every
    // instruction of every program it has not seen before.
    #[inline]
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<DexInsn, WireError> {
        Ok(match r.u8(what)? {
            0 => DexInsn::Nop,
            1 => DexInsn::Const { dst: Wire::get(r, "dst")?, value: Wire::get(r, "value")? },
            2 => DexInsn::Move { dst: Wire::get(r, "dst")?, src: Wire::get(r, "src")? },
            3 => DexInsn::Bin {
                op: Wire::get(r, "BinOp")?,
                dst: Wire::get(r, "dst")?,
                a: Wire::get(r, "a")?,
                b: Wire::get(r, "b")?,
            },
            4 => DexInsn::BinLit {
                op: Wire::get(r, "BinOp")?,
                dst: Wire::get(r, "dst")?,
                a: Wire::get(r, "a")?,
                lit: Wire::get(r, "lit")?,
            },
            5 => DexInsn::IGet {
                dst: Wire::get(r, "dst")?,
                obj: Wire::get(r, "obj")?,
                field: Wire::get(r, "field")?,
            },
            6 => DexInsn::IPut {
                src: Wire::get(r, "src")?,
                obj: Wire::get(r, "obj")?,
                field: Wire::get(r, "field")?,
            },
            7 => DexInsn::SGet { dst: Wire::get(r, "dst")?, slot: Wire::get(r, "slot")? },
            8 => DexInsn::SPut { src: Wire::get(r, "src")?, slot: Wire::get(r, "slot")? },
            9 => DexInsn::NewInstance { dst: Wire::get(r, "dst")?, class: Wire::get(r, "class")? },
            10 => DexInsn::Invoke {
                kind: Wire::get(r, "InvokeKind")?,
                method: Wire::get(r, "method")?,
                args: r.seq("invoke args")?,
                dst: Wire::get(r, "invoke dst")?,
            },
            11 => DexInsn::InvokeNative {
                method: Wire::get(r, "method")?,
                args: r.seq("invoke args")?,
                dst: Wire::get(r, "invoke dst")?,
            },
            12 => DexInsn::If {
                cmp: Wire::get(r, "Cmp")?,
                a: Wire::get(r, "a")?,
                b: Wire::get(r, "b")?,
                target: Wire::get(r, "target")?,
            },
            13 => DexInsn::IfZ {
                cmp: Wire::get(r, "Cmp")?,
                a: Wire::get(r, "a")?,
                target: Wire::get(r, "target")?,
            },
            14 => DexInsn::Goto { target: Wire::get(r, "target")? },
            15 => DexInsn::Switch {
                src: Wire::get(r, "src")?,
                first_key: Wire::get(r, "first_key")?,
                targets: r.seq("switch targets")?,
            },
            16 => DexInsn::Return { src: Wire::get(r, "src")? },
            17 => DexInsn::ReturnVoid,
            18 => DexInsn::Throw { src: Wire::get(r, "src")? },
            tag => return Err(WireError::InvalidTag { what, tag }),
        })
    }
}

/// One method as a program carries it — everything but `id`, which is
/// the method's table position. Shared with the cache's `hash_method`,
/// so a method's key covers exactly the fields a request transports; the
/// destructuring is exhaustive, so a field added to [`Method`] fails
/// compilation here instead of silently reaching neither. Out of line on
/// purpose, with the instruction loop inlined into it: inlining it into
/// `hash_method` as well measured slower on every warm rebuild.
pub fn put_method_body(m: &Method, w: &mut Writer) {
    let Method { id: _, class, name, num_regs, num_args, insns, is_native } = m;
    // One growth per method, not one per instruction: an instruction is
    // at most 8 bytes but for the rare invoke or switch tail.
    w.buf.reserve(16 + name.len() + 8 * insns.len());
    class.put(w);
    name.put(w);
    num_regs.put(w);
    num_args.put(w);
    is_native.put(w);
    w.seq(insns);
}

/// A whole program: static-slot count, classes, methods. Decoding
/// rebuilds it through the same `add_class` / `add_method` path local
/// callers use — ids come out as table positions, exactly as the
/// encoder saw them.
impl Wire for DexFile {
    fn put(&self, w: &mut Writer) {
        w.u32(self.num_statics());
        w.u32(self.classes().len() as u32);
        for class in self.classes() {
            class.name.put(w);
            w.u32(class.num_fields);
        }
        w.u32(self.methods().len() as u32);
        for m in self.methods() {
            put_method_body(m, w);
        }
    }

    fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<DexFile, WireError> {
        let mut dex = DexFile::new();
        dex.reserve_statics(r.u32("num_statics")?);
        for _ in 0..r.count("classes")? {
            let name = String::get(r, "class name")?;
            dex.add_class(name, r.u32("num_fields")?);
        }
        for _ in 0..r.count("methods")? {
            dex.add_method(get_method_body(r, dex.classes().len())?);
        }
        Ok(dex)
    }
}

/// Reads one [`put_method_body`] row of a program with `classes`
/// classes; its `id` is 0, for the table position to overwrite.
///
/// # Errors
///
/// Returns [`WireError`] on truncation, an invalid field, or a class id
/// of no class.
#[inline]
pub fn get_method_body(r: &mut Reader<'_>, classes: usize) -> Result<Method, WireError> {
    let class: ClassId = Wire::get(r, "method class")?;
    if class.index() >= classes {
        return Err(WireError::InvalidTag { what: "method class id", tag: 0 });
    }
    Ok(Method {
        id: MethodId(0),
        class,
        name: Wire::get(r, "method name")?,
        num_regs: r.u16("num_regs")?,
        num_args: r.u16("num_args")?,
        is_native: Wire::get(r, "is_native")?,
        insns: r.seq("insns")?,
    })
}

/// A hot set travels sorted, so equal sets encode to equal bytes.
impl Wire for HashSet<u32> {
    fn put(&self, w: &mut Writer) {
        let mut sorted: Vec<u32> = self.iter().copied().collect();
        sorted.sort_unstable();
        w.seq(&sorted);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<HashSet<u32>, WireError> {
        let n = r.u32(what)?;
        let n = r.bounded(u64::from(n), u32::MIN_BYTES, what)?;
        (0..n).map(|_| r.u32(what)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two classes, statics, and one method holding every [`DexInsn`]
    /// variant (the codec does not verify, so the body need not run).
    fn sample_dex() -> DexFile {
        let mut dex = DexFile::new();
        let class = dex.add_class("Main", 3);
        dex.add_class("Util", 0);
        dex.reserve_statics(2);
        let (a, b, c) = (VReg(0), VReg(1), VReg(2));
        let insns = vec![
            DexInsn::Nop,
            DexInsn::Const { dst: a, value: -7 },
            DexInsn::Move { dst: b, src: a },
            DexInsn::Bin { op: BinOp::Xor, dst: c, a, b },
            DexInsn::BinLit { op: BinOp::Shl, dst: c, a: b, lit: 3 },
            DexInsn::IGet { dst: a, obj: b, field: FieldId(1) },
            DexInsn::IPut { src: a, obj: b, field: FieldId(2) },
            DexInsn::SGet { dst: a, slot: StaticId(0) },
            DexInsn::SPut { src: a, slot: StaticId(1) },
            DexInsn::NewInstance { dst: a, class: ClassId(1) },
            DexInsn::Invoke {
                kind: InvokeKind::Virtual,
                method: MethodId(0),
                args: vec![a, b],
                dst: Some(c),
            },
            DexInsn::InvokeNative { method: MethodId(1), args: vec![], dst: None },
            DexInsn::If { cmp: Cmp::Ge, a, b, target: 9 },
            DexInsn::IfZ { cmp: Cmp::Le, a: c, target: 0 },
            DexInsn::Goto { target: 7 },
            DexInsn::Switch { src: c, first_key: -1, targets: vec![6, 7] },
            DexInsn::Return { src: b },
            DexInsn::ReturnVoid,
            DexInsn::Throw { src: c },
        ];
        let method = |name: &str, insns, is_native| Method {
            id: MethodId(0), // overwritten by add_method
            class,
            name: name.into(),
            num_regs: 6,
            num_args: 2,
            insns,
            is_native,
        };
        dex.add_method(method("every_insn", insns, false));
        dex.add_method(method("nat", vec![], true));
        dex
    }

    #[test]
    fn u32_rows_are_the_form_of_words_and_pairs() {
        let (words, pairs) = (vec![7u32, u32::MAX, 0], vec![(1u32, 2u32), (3, 4)]);
        let mut w = Writer::new();
        w.u32_rows(&words, 1);
        w.u32_rows(&[1, 2, 3, 4], 2);
        assert_eq!(w.into_bytes(), [encode(&words), encode(&pairs)].concat());

        let bytes = encode(&pairs);
        let mut out = vec![9];
        assert_eq!(Reader::new(&bytes).u32_rows(2, &mut out, "pairs"), Ok(2));
        assert_eq!(out, [9, 1, 2, 3, 4]);
        // A count the bytes cannot hold is refused before anything is read.
        assert_eq!(
            Reader::new(&bytes[..bytes.len() - 1]).u32_rows(2, &mut out, "pairs"),
            Err(WireError::OversizedCollection { what: "pairs", len: 2 })
        );
    }

    #[test]
    fn dex_roundtrip_is_lossless() {
        let dex = sample_dex();
        let back: DexFile = decode(&encode(&dex)).expect("roundtrip decodes");
        assert_eq!(back, dex);
    }

    #[test]
    fn insane_length_fields_are_rejected_before_allocating() {
        let mut w = Writer::new();
        w.u32(7); // statics
        w.u32(u32::MAX); // class count far beyond remaining bytes
        let err = decode::<DexFile>(&w.into_bytes()).expect_err("oversized must fail");
        assert_eq!(
            err,
            WireError::OversizedCollection { what: "classes", len: u64::from(u32::MAX) }
        );
    }

    #[test]
    fn a_sequence_longer_than_the_reserve_cap_decodes_whole() {
        let items: Vec<u32> = (0..SEQ_RESERVE_CAP as u32 + 3).collect();
        let bytes = encode(&items);
        let mut r = Reader::new(&bytes);
        let back: Vec<u32> = r.seq("items").expect("decodes past the reservation");
        assert_eq!(back, items);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn a_count_beyond_the_remaining_bytes_is_rejected_before_any_element_is_read() {
        let mut w = Writer::new();
        w.u32(9); // nine elements claimed
        w.u32(7); // ... and four bytes to read them from
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.seq::<u32>("items"),
            Err(WireError::OversizedCollection { what: "items", len: 9 })
        );
        // Only the count was consumed: no element read, nothing reserved.
        assert_eq!(r.rest(), 7u32.to_le_bytes());
    }

    #[test]
    fn a_count_is_bounded_by_the_smallest_element_not_by_one_byte() {
        // Two `u64`s claimed, eight bytes left: one byte per element
        // would admit the count, the element's eight do not.
        let bytes = encode(&vec![3u32, 7u32]);
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.seq::<u64>("items"),
            Err(WireError::OversizedCollection { what: "items", len: 2 })
        );
    }

    #[test]
    fn encoded_len_is_the_length_encode_writes() {
        fn agrees<T: Wire>(value: T) {
            assert_eq!(
                value.encoded_len(),
                encode(&value).len(),
                "{}",
                core::any::type_name::<T>()
            );
        }
        agrees(sample_dex());
        agrees(vec![(1u32, 2u32), (3, 4)]);
        agrees(Some(vec![7u64, 8]));
        agrees(None::<u32>);
        agrees(vec![1u8, 2, 3]);
        agrees(String::from("héllo"));
        agrees(vec![DexInsn::Nop, DexInsn::Goto { target: 3 }]);
        agrees(MethodId(4));
        agrees(true);
    }

    #[test]
    fn every_declared_minimum_is_the_smallest_encoding() {
        fn smallest<T: SeqElem>(value: T) {
            assert_eq!(encode(&value).len(), T::MIN_BYTES, "{}", core::any::type_name::<T>());
        }
        smallest(0u16);
        smallest(0u32);
        smallest(0u64);
        smallest(0usize);
        smallest((0u32, 0u32));
        smallest(VReg(0));
        smallest(DexInsn::Nop);
    }
}
