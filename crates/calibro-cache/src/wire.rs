//! The one binary codec under the cache and the daemon: little-endian
//! primitives over a growable byte buffer, the [`Wire`] trait that gives
//! every persisted or transported type exactly one binary form, and the
//! codecs of every type defined at or below this crate — the program a
//! compile request carries ([`DexFile`]), instructions, keys, counters.
//! Disk and peer frames (`disk.rs`) and the daemon's message table
//! (`calibro_server::proto`) are rows over this trait.
//!
//! Decoding is strictly bounds-checked: every read that would run past
//! the payload returns [`WireError::Truncated`] (never panics, never
//! reads garbage), every enum tag is validated, and every collection
//! count is checked against the bytes remaining before anything is
//! allocated for it. The codec is self-contained — no serde — so the
//! input surface of every trust boundary is auditable here and in the
//! two tables above.
//!
//! The trait lives in this crate, not the server, because of the orphan
//! rule: a type's `Wire` impl must sit with the trait or with the type,
//! and the cache's own entry types have to implement it.

use std::collections::HashSet;
use std::time::Duration;

use calibro_dex::{
    BinOp, ClassId, Cmp, DexFile, DexInsn, FieldId, InvokeKind, Method, MethodId, StaticId, VReg,
};
use calibro_hgraph::PipelineConfig;
use calibro_isa::Insn;

use crate::hash::CacheKey;
use crate::peer::PeerLane;
use crate::store::CacheStats;

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
    /// An instruction word did not decode.
    UndecodableWord {
        /// What was being decoded.
        what: &'static str,
        /// The offending machine word.
        word: u32,
    },
    /// An instruction word decoded, but to an instruction the encoder
    /// refuses or encodes to another word (the decoder is the more
    /// permissive of the two), so it is not a compiled method's word.
    UnencodableInsn {
        /// What was being decoded.
        what: &'static str,
    },
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
            WireError::UndecodableWord { what, word } => {
                write!(f, "undecodable word {word:#010x} while decoding {what}")
            }
            WireError::UnencodableInsn { what } => {
                write!(f, "an instruction does not encode back while decoding {what}")
            }
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
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
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
    pub fn seq<T: Wire>(&mut self, items: &[T]) {
        self.u32(items.len() as u32);
        for item in items {
            item.put(self);
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

    #[inline]
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Validates a decoded length field against both the ceiling and
    /// the bytes actually remaining (an element costs ≥ 1 byte, so a
    /// length beyond `remaining` is always malformed).
    fn bounded(&self, len: u64, what: &'static str) -> Result<usize, WireError> {
        if len > MAX_COLLECTION_LEN as u64 || len > self.remaining() as u64 {
            return Err(WireError::OversizedCollection { what, len });
        }
        Ok(len as usize)
    }

    /// Reads a `u32` element count, validated before anything is
    /// allocated for the elements.
    pub fn count(&mut self, what: &'static str) -> Result<usize, WireError> {
        let n = self.u32(what)?;
        self.bounded(u64::from(n), what)
    }

    /// Reads a `u32` element count, then that many elements, into a
    /// vector sized once: the count is already bounded by the bytes
    /// remaining, the reservation also by `SEQ_RESERVE_CAP`.
    pub fn seq<T: Wire>(&mut self, what: &'static str) -> Result<Vec<T>, WireError> {
        let n = self.count(what)?;
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
}

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
}

/// One byte; anything but 0 or 1 is rejected.
impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        w.u8(u8::from(*self));
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<bool, WireError> {
        match r.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag { what, tag }),
        }
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
}

/// Raw bytes: a `u64` length, then the bytes. (Not a counted sequence
/// of `u8` elements — artifacts are megabytes and copied in one piece.)
impl Wire for Vec<u8> {
    fn put(&self, w: &mut Writer) {
        w.bytes(self);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<u8>, WireError> {
        let claimed = r.u64(what)?;
        let n = r.bounded(claimed, what)?;
        Ok(r.take(n, what)?.to_vec())
    }
}

/// Counted sequences — a `u32` count, then each element — declared per
/// element type. There is no blanket `Vec<T>` impl: it would collide
/// with the raw-bytes form of `Vec<u8>` above.
macro_rules! wire_seq {
    ($($elem:ty),*) => {$(
        impl Wire for Vec<$elem> {
            fn put(&self, w: &mut Writer) {
                w.seq(self);
            }

            fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, WireError> {
                r.seq(what)
            }
        }
    )*};
}
pub(crate) use wire_seq;

wire_seq!(u32, u64, usize, (usize, usize), Insn);

/// A word range, `(start, end)` or `(start, len)`: both halves decode
/// under the field's name. (Concrete, not a blanket tuple impl — the
/// peer protocol's `Option<(Vec<u8>, u64)>` below has a form of its own.)
impl Wire for (usize, usize) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<(usize, usize), WireError> {
        Ok((Wire::get(r, what)?, Wire::get(r, what)?))
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
            fn put(&self, w: &mut $crate::wire::Writer) {
                let $name { $($field),* } = self;
                $($crate::wire::Wire::put($field, w);)*
            }

            fn get(
                r: &mut $crate::wire::Reader<'_>,
                _what: &'static str,
            ) -> Result<$name, $crate::wire::WireError> {
                Ok($name { $($field: $crate::wire::Wire::get(r, stringify!($field))?),* })
            }
        }

        #[cfg(test)]
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
/// in. The trait is compiled unconditionally because the `#[cfg(test)]`
/// on the impl above is evaluated in the crate `wire_fields!` expands in.
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

            fn get(r: &mut Reader<'_>, what: &'static str) -> Result<$id, WireError> {
                Ok($id(Wire::get(r, what)?))
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
/// the method's table position. Shared with [`hash_method`], so a
/// method's key covers exactly the fields a request transports; the
/// destructuring is exhaustive, so a field added to [`Method`] fails
/// compilation here instead of silently reaching neither.
///
/// [`hash_method`]: crate::hash_method
pub(crate) fn put_method_body(m: &Method, w: &mut Writer) {
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
            let class: ClassId = Wire::get(r, "method class")?;
            if class.index() >= dex.classes().len() {
                return Err(WireError::InvalidTag { what: "method class id", tag: 0 });
            }
            dex.add_method(Method {
                id: MethodId(0), // overwritten by add_method with the table position
                class,
                name: Wire::get(r, "method name")?,
                num_regs: r.u16("num_regs")?,
                num_args: r.u16("num_args")?,
                is_native: Wire::get(r, "is_native")?,
                insns: r.seq("insns")?,
            });
        }
        Ok(dex)
    }
}

/// A machine instruction travels as its encoded word — the canonical
/// encoding the linker emits, so a decoded instruction re-encodes
/// bit-identically. `put` is infallible, so it panics on an instruction
/// that does not encode: whoever frames instructions vets them first
/// (as `to_frame` does, refusing with a typed error).
impl Wire for Insn {
    fn put(&self, w: &mut Writer) {
        w.u32(self.encode().expect("instructions are vetted encodable before they are framed"));
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Insn, WireError> {
        let word = r.u32(what)?;
        calibro_isa::decode(word).map_err(|_| WireError::UndecodableWord { what, word })
    }
}

/// A hot set travels sorted, so equal sets encode to equal bytes.
impl Wire for HashSet<u32> {
    fn put(&self, w: &mut Writer) {
        let mut sorted: Vec<u32> = self.iter().copied().collect();
        sorted.sort_unstable();
        w.seq(&sorted);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<HashSet<u32>, WireError> {
        (0..r.count(what)?).map(|_| r.u32(what)).collect()
    }
}

wire_fields!(PipelineConfig {
    copy_prop,
    constant_folding,
    simplify,
    cse,
    dce,
    return_merge,
    remove_unreachable,
});

impl Wire for CacheKey {
    fn put(&self, w: &mut Writer) {
        w.u64(self.hi);
        w.u64(self.lo);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<CacheKey, WireError> {
        Ok(CacheKey { hi: r.u64(what)?, lo: r.u64(what)? })
    }
}

impl Wire for PeerLane {
    fn put(&self, w: &mut Writer) {
        w.u8(match self {
            PeerLane::Method => 0,
            PeerLane::Group => 1,
            PeerLane::Dict => 2,
        });
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<PeerLane, WireError> {
        match r.u8(what)? {
            0 => Ok(PeerLane::Method),
            1 => Ok(PeerLane::Group),
            2 => Ok(PeerLane::Dict),
            tag => Err(WireError::InvalidTag { what, tag }),
        }
    }
}

/// A peer-fetch answer ([`PeerFetch`](crate::PeerFetch)'s payload): the
/// presence tag, then the cost *before* the frame it describes — the
/// reverse of the tuple's order.
impl Wire for Option<(Vec<u8>, u64)> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some((frame, cost_us)) => {
                w.u8(1);
                cost_us.put(w);
                frame.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, WireError> {
        match r.u8(what)? {
            0 => Ok(None),
            1 => {
                let cost_us = Wire::get(r, what)?;
                Ok(Some((Wire::get(r, what)?, cost_us)))
            }
            tag => Err(WireError::InvalidTag { what, tag }),
        }
    }
}

// Every `CacheStats` field is a row of the counter table, which the stats
// body transports by iteration: a field declared outside the table fails
// compilation here instead of silently not being transported.
const _: () = assert!(core::mem::size_of::<CacheStats>() == 8 * CacheStats::LEN);

/// The counters in table order, each decoded under its own name.
impl Wire for CacheStats {
    fn put(&self, w: &mut Writer) {
        for v in self.to_array() {
            w.u64(v);
        }
    }

    fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<CacheStats, WireError> {
        let mut values = [0u64; CacheStats::LEN];
        for (slot, name) in values.iter_mut().zip(CacheStats::NAMES) {
            *slot = r.u64(name)?;
        }
        Ok(CacheStats::from_array(values))
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
    fn an_undecodable_instruction_word_is_a_typed_error_naming_the_field() {
        let nop = Insn::Nop.encode().expect("nop encodes");
        assert_eq!(decode::<Vec<Insn>>(&encode(&vec![nop])), Ok(vec![Insn::Nop]));
        assert!(calibro_isa::decode(0).is_err(), "the all-zero word is unallocated");
        let mut r = Reader::new(&[0; 4]);
        assert_eq!(
            Insn::get(&mut r, "insns"),
            Err(WireError::UndecodableWord { what: "insns", word: 0 })
        );
    }
}
