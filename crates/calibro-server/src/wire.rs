//! The binary wire codec: little-endian primitives over a growable
//! byte buffer, the [`Wire`] trait that gives every transported type
//! exactly one wire form, and the codecs of the domain payloads a
//! compile request carries ([`DexFile`], [`BuildOptions`]).
//!
//! Decoding is strictly bounds-checked: every read that would run past
//! the payload returns [`WireError::Truncated`] (never panics, never
//! reads garbage), and every enum tag is validated. The codec is
//! self-contained — no serde — so the daemon's input surface is fully
//! auditable in this file and the message table in [`crate::proto`].

use std::collections::HashSet;
use std::time::Duration;

use calibro::{BuildOptions, LtboMode, MergeConfig};
use calibro_dex::{
    BinOp, ClassId, Cmp, DexFile, DexInsn, FieldId, InvokeKind, Method, MethodId, StaticId, VReg,
};
use calibro_hgraph::PipelineConfig;

/// Hard ceiling on decoded collection lengths (methods, instructions,
/// strings), independent of the frame-size bound: a malformed length
/// field inside an otherwise small frame must not drive a huge
/// allocation before the bounds check catches it.
const MAX_COLLECTION_LEN: usize = 1 << 24;

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
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
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

    /// Fails with [`WireError::TrailingBytes`] unless the payload was
    /// consumed exactly.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes { extra: self.remaining() })
        }
    }

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

    /// Reads a `u32` element count, then that many elements.
    pub fn seq<T: Wire>(&mut self, what: &'static str) -> Result<Vec<T>, WireError> {
        let n = self.count(what)?;
        (0..n).map(|_| T::get(self, what)).collect()
    }
}

/// A type with exactly one wire form. Message bodies are structs of
/// `Wire` fields (see `message!` in [`crate::proto`] and `wire_fields!`
/// below), so a field's width, framing and validation are decided here,
/// once per type, and not at every message that carries one.
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
            pub fn $int(&mut self, v: $int) {
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
        )*}

        impl Reader<'_> {$(
            #[doc = concat!("Reads a little-endian `", stringify!($int), "`.")]
            pub fn $int(&mut self, what: &'static str) -> Result<$int, WireError> {
                let raw = self.take(core::mem::size_of::<$int>(), what)?;
                Ok($int::from_le_bytes(raw.try_into().expect("length checked")))
            }
        )*}

        $(impl Wire for $int {
            fn put(&self, w: &mut Writer) {
                w.$int(*self);
            }

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
        w.u32(self.len() as u32);
        w.buf.extend_from_slice(self.as_bytes());
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
        w.u64(self.len() as u64);
        w.buf.extend_from_slice(self);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<u8>, WireError> {
        let claimed = r.u64(what)?;
        let n = r.bounded(claimed, what)?;
        Ok(r.take(n, what)?.to_vec())
    }
}

impl Wire for Vec<u64> {
    fn put(&self, w: &mut Writer) {
        w.seq(self);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<u64>, WireError> {
        r.seq(what)
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
pub(crate) use wire_fields;

/// Test support: where each field of an encoded struct ends, so the
/// message contract can tell which field a truncation landed in.
#[cfg(test)]
pub(crate) trait FieldEnds {
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
            m.class.put(w);
            m.name.put(w);
            w.u16(m.num_regs);
            w.u16(m.num_args);
            m.is_native.put(w);
            w.seq(&m.insns);
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

/// `None` / `Global` / `Parallel { groups, threads }` share one tag
/// byte, so this is not the generic `Option` form.
impl Wire for Option<LtboMode> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(LtboMode::Global) => w.u8(1),
            Some(LtboMode::Parallel { groups, threads }) => {
                w.u8(2);
                groups.put(w);
                threads.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Option<LtboMode>, WireError> {
        match r.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(LtboMode::Global)),
            2 => Ok(Some(LtboMode::Parallel {
                groups: Wire::get(r, what)?,
                threads: Wire::get(r, what)?,
            })),
            tag => Err(WireError::InvalidTag { what, tag }),
        }
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

wire_fields!(MergeConfig { min_body_words, max_params, arbitrate });

wire_fields!(PipelineConfig {
    copy_prop,
    constant_folding,
    simplify,
    cse,
    dce,
    return_merge,
    remove_unreachable,
});

wire_fields!(BuildOptions {
    cto,
    ltbo,
    merge,
    dict,
    min_seq_len,
    hot_methods,
    base_address,
    force_metadata,
    inlining,
    compile_threads,
    passes,
});

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use calibro_dex::MethodBuilder;

    pub(crate) fn sample_dex() -> DexFile {
        let mut dex = DexFile::new();
        let class = dex.add_class("Main", 3);
        let other = dex.add_class("Util", 0);
        dex.reserve_statics(2);
        let mut b = MethodBuilder::new("f", 6, 2);
        b.push(DexInsn::Const { dst: VReg(0), value: -7 });
        b.push(DexInsn::Bin { op: BinOp::Xor, dst: VReg(1), a: VReg(0), b: VReg(4) });
        b.push(DexInsn::BinLit { op: BinOp::Shl, dst: VReg(2), a: VReg(1), lit: 3 });
        b.push(DexInsn::IGet { dst: VReg(3), obj: VReg(4), field: FieldId(1) });
        b.push(DexInsn::Switch { src: VReg(2), first_key: -1, targets: vec![6, 7] });
        b.push(DexInsn::Goto { target: 7 });
        b.push(DexInsn::Throw { src: VReg(3) });
        b.push(DexInsn::If { cmp: Cmp::Ge, a: VReg(0), b: VReg(1), target: 9 });
        b.push(DexInsn::IfZ { cmp: Cmp::Le, a: VReg(2), target: 0 });
        b.push(DexInsn::Return { src: VReg(1) });
        dex.add_method(b.build(class));
        let mut c = MethodBuilder::new("g", 4, 1);
        c.push(DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: MethodId(0),
            args: vec![VReg(3), VReg(3)],
            dst: Some(VReg(0)),
        });
        c.push(DexInsn::Invoke {
            kind: InvokeKind::Virtual,
            method: MethodId(1),
            args: vec![VReg(2)],
            dst: None,
        });
        c.push(DexInsn::InvokeNative { method: MethodId(2), args: vec![], dst: None });
        c.push(DexInsn::ReturnVoid);
        dex.add_method(c.build(other));
        dex.add_method(Method {
            id: MethodId(0),
            class,
            name: "nat".into(),
            num_regs: 1,
            num_args: 1,
            insns: vec![],
            is_native: true,
        });
        dex
    }

    pub(crate) fn option_variants() -> [BuildOptions; 8] {
        [
            BuildOptions::baseline(),
            BuildOptions::cto(),
            BuildOptions::cto_ltbo().with_compile_threads(8),
            BuildOptions::cto_ltbo().with_dict(),
            BuildOptions::cto_ltbo_parallel(16, 4).with_hot_filter([4, 1, 9].into_iter().collect()),
            BuildOptions::cto_merge(),
            BuildOptions::cto_merge_ltbo().with_merge(MergeConfig {
                min_body_words: 6,
                max_params: 1,
                arbitrate: false,
            }),
            BuildOptions {
                inlining: true,
                force_metadata: true,
                min_seq_len: 5,
                passes: PipelineConfig { cse: false, dce: false, ..PipelineConfig::all() },
                ..BuildOptions::default()
            },
        ]
    }

    #[test]
    fn dex_roundtrip_is_lossless() {
        let dex = sample_dex();
        let back: DexFile = decode(&encode(&dex)).expect("roundtrip decodes");
        assert_eq!(back.num_statics(), dex.num_statics());
        assert_eq!(back.classes().len(), dex.classes().len());
        assert_eq!(back.methods().len(), dex.methods().len());
        for (a, b) in dex.methods().iter().zip(back.methods()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.class, b.class);
            assert_eq!(a.name, b.name);
            assert_eq!(a.num_regs, b.num_regs);
            assert_eq!(a.num_args, b.num_args);
            assert_eq!(a.is_native, b.is_native);
            assert_eq!(a.insns, b.insns);
        }
    }

    #[test]
    fn method_hash_of_the_sample_program_is_unchanged() {
        // The operand codes this codec transports are the ones the
        // packed method hash folds into every cache key: renumbering
        // them in calibro-dex moves this golden.
        let mut h = calibro_cache::StableHasher::new();
        for m in sample_dex().methods() {
            calibro_cache::hash_method(m, &mut h);
        }
        let key = h.finish();
        assert_eq!((key.hi, key.lo), (0x4e52_4d6b_02d8_f04c, 0xa289_b151_a36b_d7eb));
    }

    #[test]
    fn option_and_ltbo_fingerprints_of_the_variants_are_unchanged() {
        // Every per-method cache key embeds `options_fingerprint`, every
        // group-plan key the LTBO fingerprint, and both travel in each
        // build request: a value moving here orphans every persisted
        // cache entry and needs a `SCHEMA_VERSION` bump.
        type Key = (u64, u64);
        const GLOBAL_MIN2: Option<Key> = Some((0x679d_08b5_c1c5_96e4, 0x7ee1_cebb_0e45_084d));
        const SHARDED_HOT: Option<Key> = Some((0x8d05_3954_3eac_8ec9, 0x23f4_4e92_f7ee_d391));
        let golden: [(Key, Option<Key>); 8] = [
            ((0x0c26_9af5_3abc_11e6, 0x56d7_791f_51df_7d72), None),
            ((0x7684_5f4c_4f9b_9a9e, 0xb11f_c4bd_54f9_8cd1), None),
            ((0x669f_afe9_f7f5_ae21, 0xfa57_acf5_330a_1c94), GLOBAL_MIN2),
            ((0xab65_97ad_587f_675e, 0x5dd4_6f8b_dff0_d946), GLOBAL_MIN2),
            ((0xa3df_c7f5_b672_f362, 0xe39b_2225_12b1_6dd4), SHARDED_HOT),
            ((0x3ec3_0d02_146b_de2a, 0xdbaf_cec1_91de_9516), None),
            ((0x0076_a68b_eb2c_9cbd, 0x9a6f_ee0a_9e49_5401), GLOBAL_MIN2),
            ((0xe11a_b865_8f08_530d, 0x2811_268a_8d03_c2d8), None),
        ];
        for (i, (options, (want_fp, want_ltbo))) in option_variants().iter().zip(golden).enumerate()
        {
            let fp = calibro::options_fingerprint(options);
            assert_eq!((fp.hi, fp.lo), want_fp, "variant {i}: options fingerprint moved");
            let ltbo = crate::ltbo_fingerprint(options).map(|k| (k.hi, k.lo));
            assert_eq!(ltbo, want_ltbo, "variant {i}: LTBO fingerprint moved");
        }
    }

    #[test]
    fn options_roundtrip_preserves_fingerprint() {
        use calibro::options_fingerprint;
        for options in option_variants() {
            let back: BuildOptions = decode(&encode(&options)).expect("options decode");
            assert_eq!(options_fingerprint(&back), options_fingerprint(&options));
        }
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
}
