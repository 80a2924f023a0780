//! A stable, dependency-free 128-bit hasher for cache keys.
//!
//! `std::hash::Hasher` implementations (SipHash) are randomly keyed per
//! process, so they cannot address an on-disk store. This hasher is
//! bit-stable across processes, platforms and crate versions (the
//! *schema* of what gets fed into it is versioned separately via
//! [`crate::SCHEMA_VERSION`]).
//!
//! Hashing is two-phase: every write serializes into an internal
//! [`Writer`] — [`write_wire`] appends a value's one [`Wire`] form, the
//! framed `write_*` helpers a tagged scalar — and [`finish`] /
//! [`finish_reset`] mix the buffer a whole 64-bit word at a time
//! through two independently seeded FxHash-style lanes
//! (`rotate ^ word, * odd-constant` — the short-key idiom rustc's
//! FxHasher uses in place of SipHash). Word-at-a-time mixing is ~8x
//! fewer multiplies than the byte-at-a-time FNV lanes this replaced,
//! which matters because the warm build path hashes every method on
//! every rebuild. [`finish_reset`] keeps the buffer's allocation so a
//! per-worker hasher can be reused across many methods without
//! re-allocating.
//!
//! A key is therefore the hash of bytes a decoder can read back: two
//! values of a keyed type share a key only if they share a wire form,
//! and the codec's round trip (`decode(encode(x)) == x`) rules that
//! out — no second serialiser to keep injective by hand.
//!
//! [`write_wire`]: StableHasher::write_wire
//! [`finish`]: StableHasher::finish
//! [`finish_reset`]: StableHasher::finish_reset

use calibro_dex::wire::{Reader, Wire, WireError, Writer};

/// A 128-bit content-address: the key of one cached artifact.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CacheKey {
    /// High lane.
    pub hi: u64,
    /// Low lane.
    pub lo: u64,
}

impl core::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// The high lane, then the low lane.
impl Wire for CacheKey {
    fn put(&self, w: &mut Writer) {
        w.u64(self.hi);
        w.u64(self.lo);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<CacheKey, WireError> {
        Ok(CacheKey { hi: r.u64(what)?, lo: r.u64(what)? })
    }
}

/// High-lane seed (FNV-1a-64 offset basis, kept from the old scheme).
const SEED_HI: u64 = 0xcbf2_9ce4_8422_2325;
/// Low-lane seed (digits of pi) — unrelated to the high seed so the two
/// lanes decorrelate.
const SEED_LO: u64 = 0x2437_54a3_2439_f31d;
/// High-lane multiplier: rustc `FxHasher`'s odd constant.
const K_HI: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Low-lane multiplier: the 64-bit golden ratio (odd).
const K_LO: u64 = 0x9e37_79b9_7f4a_7c15;
const ROTATE: u32 = 5;

/// One FxHash-style mixing step: fold a 64-bit word into a lane.
#[inline]
fn mix(lane: u64, word: u64, k: u64) -> u64 {
    (lane.rotate_left(ROTATE) ^ word).wrapping_mul(k)
}

/// SplitMix64 finalizer: avalanches a lane so the weak low bits of a
/// multiply-only mixer do not leak into the key.
#[inline]
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mixes a serialized buffer 8 bytes at a time through both lanes.
///
/// The tail (< 8 bytes) is zero-padded into one last word; folding the
/// exact byte length afterwards disambiguates it from genuine trailing
/// zero bytes and keeps prefixes from colliding with their extensions.
fn mix_buffer(buf: &[u8]) -> (u64, u64) {
    let (mut hi, mut lo) = (SEED_HI, SEED_LO);
    mix_words(&mut hi, &mut lo, buf);
    hi = mix(hi, buf.len() as u64, K_HI);
    lo = mix(lo, buf.len() as u64, K_LO);
    (avalanche(hi), avalanche(lo))
}

/// [`mix_buffer`]'s body: folds `bytes` into both lanes a word at a
/// time, the zero-padded tail last; the length fold is the caller's.
#[inline]
fn mix_words(hi: &mut u64, lo: &mut u64, bytes: &[u8]) {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes"));
        *hi = mix(*hi, w, K_HI);
        *lo = mix(*lo, w, K_LO);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        let w = u64::from_le_bytes(tail);
        *hi = mix(*hi, w, K_HI);
        *lo = mix(*lo, w, K_LO);
    }
}

/// [`mix_buffer`] of a [`StableHasher::write_tag`] frame followed by
/// `bytes`, without joining them: the tag frame and the first six bytes
/// make the first word, and the rest is mixed where it lies.
fn mix_tagged(tag: u8, bytes: &[u8]) -> (u64, u64) {
    let (mut hi, mut lo) = (SEED_HI, SEED_LO);
    let (head, rest) = bytes.split_at(bytes.len().min(6));
    let mut first = [0u8; 8];
    first[..2].copy_from_slice(&[0xAF, tag]);
    first[2..2 + head.len()].copy_from_slice(head);
    mix_words(&mut hi, &mut lo, &first[..2 + head.len()]);
    mix_words(&mut hi, &mut lo, rest);
    let len = 2 + bytes.len() as u64;
    (avalanche(mix(hi, len, K_HI)), avalanche(mix(lo, len, K_LO)))
}

/// The serialize-then-hash hasher. Every framed `write_*` helper
/// prefixes its input with a type tag byte, so adjacent fields of
/// different widths cannot alias (e.g. `(u32 1, u32 2)` hashes
/// differently from `(u64 0x2_0000_0001)`); [`write_wire`] appends a
/// value's wire form bare — a self-delimiting encoding by construction,
/// since the decoder reads it back without being told its length.
///
/// [`write_wire`]: StableHasher::write_wire
#[derive(Clone, Debug, Default)]
pub struct StableHasher {
    /// Crate-visible for the rows shared with a [`Wire`] impl that are
    /// not a whole value (`put_method_body`).
    pub(crate) w: Writer,
}

impl StableHasher {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> StableHasher {
        StableHasher::default()
    }

    /// A fresh hasher whose buffer can hold `bytes` without growing —
    /// for per-worker hashers sized to a typical method.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> StableHasher {
        StableHasher { w: Writer::with_capacity(bytes) }
    }

    /// A value of a keyed type, as its one [`Wire`] form.
    #[inline]
    pub fn write_wire<T: Wire>(&mut self, value: &T) {
        value.put(&mut self.w);
    }

    /// Bytes that already *are* a value's [`Wire`] form — a field of a
    /// frame, where it lies — appended bare: the key comes out as
    /// [`write_wire`](Self::write_wire) of the decoded value would make
    /// it, with no decode and no second encode.
    #[inline]
    pub fn write_wire_bytes(&mut self, encoded: &[u8]) {
        self.w.buf_mut().extend_from_slice(encoded);
    }

    /// Raw bytes, length-prefixed so concatenations cannot alias.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.w.buf_mut().push(0xB0);
        self.w.buf_mut().extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        self.w.buf_mut().extend_from_slice(bytes);
    }

    /// A tag byte: use to discriminate enum variants and field groups.
    #[inline]
    pub fn write_tag(&mut self, tag: u8) {
        self.w.buf_mut().extend_from_slice(&[0xAF, tag]);
    }

    /// An unsigned 32-bit value.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        let [a, b, c, d] = v.to_le_bytes();
        self.w.buf_mut().extend_from_slice(&[0xA4, a, b, c, d]);
    }

    /// An unsigned 64-bit value.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let [a, b, c, d, e, f, g, i] = v.to_le_bytes();
        self.w.buf_mut().extend_from_slice(&[0xA8, a, b, c, d, e, f, g, i]);
    }

    /// A `usize`, widened to 64 bits for cross-platform stability.
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// A boolean.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.w.buf_mut().extend_from_slice(&[0xAB, u8::from(v)]);
    }

    /// A UTF-8 string, length-prefixed.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.w.buf_mut().push(0xAC);
        self.write_bytes(s.as_bytes());
    }

    /// Finalizes into a [`CacheKey`], consuming the hasher.
    #[must_use]
    pub fn finish(self) -> CacheKey {
        let (hi, lo) = mix_buffer(&self.w.into_bytes());
        CacheKey { hi, lo: lo ^ hi.rotate_left(32) }
    }

    /// The key of [`write_tag`](Self::write_tag) of `tag` then
    /// [`write_wire_bytes`](Self::write_wire_bytes) of `encoded`, with
    /// the bytes hashed where they lie: no buffer, no copy. This is how a
    /// program's bytes in a request frame are named.
    #[must_use]
    pub fn tagged_wire_bytes_key(tag: u8, encoded: &[u8]) -> CacheKey {
        let (hi, lo) = mix_tagged(tag, encoded);
        CacheKey { hi, lo: lo ^ hi.rotate_left(32) }
    }

    /// Finalizes into a [`CacheKey`] and clears the buffer for reuse,
    /// keeping its allocation. A loop hashing many methods through one
    /// hasher allocates once instead of once per method.
    pub fn finish_reset(&mut self) -> CacheKey {
        let buf = self.w.buf_mut();
        let (hi, lo) = mix_buffer(buf);
        buf.clear();
        CacheKey { hi, lo: lo ^ hi.rotate_left(32) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(f: impl FnOnce(&mut StableHasher)) -> CacheKey {
        let mut h = StableHasher::new();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        let a = key_of(|h| h.write_str("hello"));
        let b = key_of(|h| h.write_str("hello"));
        assert_eq!(a, b);
    }

    #[test]
    fn framed_writes_do_not_alias() {
        // Two u32s vs one u64 with the same raw bytes.
        let a = key_of(|h| {
            h.write_u32(1);
            h.write_u32(2);
        });
        let b = key_of(|h| h.write_u64(0x2_0000_0001));
        assert_ne!(a, b);
        // Adjacent byte strings vs one concatenated string.
        let c = key_of(|h| {
            h.write_bytes(b"ab");
            h.write_bytes(b"cd");
        });
        let d = key_of(|h| h.write_bytes(b"abcd"));
        assert_ne!(c, d);
    }

    #[test]
    fn empty_and_prefix_inputs_distinct() {
        let empty = key_of(|_| {});
        let one = key_of(|h| h.write_bool(false));
        assert_ne!(empty, one);
    }

    #[test]
    fn trailing_zero_bytes_are_not_absorbed_by_tail_padding() {
        // The tail word is zero-padded; the length fold must keep a
        // buffer ending in literal zero bytes distinct from the same
        // buffer with them stripped.
        let a = key_of(|h| h.write_bytes(&[7, 0, 0, 0]));
        let b = key_of(|h| h.write_bytes(&[7, 0, 0]));
        let c = key_of(|h| h.write_bytes(&[7]));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn finish_reset_matches_fresh_hasher_and_reuses_buffer() {
        let mut reused = StableHasher::with_capacity(256);
        for round in 0..5u64 {
            let mut fresh = StableHasher::new();
            for h in [&mut reused, &mut fresh] {
                h.write_u64(round);
                h.write_str("method");
                h.write_bytes(&round.to_le_bytes());
            }
            assert_eq!(reused.finish_reset(), fresh.finish());
            assert!(reused.w.buf_mut().is_empty());
        }
    }

    #[test]
    fn a_tagged_key_is_the_buffered_key_of_the_tag_then_the_bytes() {
        let buffered = |tag: u8, bytes: &[u8]| {
            key_of(|h| {
                h.write_tag(tag);
                h.write_wire_bytes(bytes);
            })
        };
        let mut rng = SplitMix64(7);
        let bytes: Vec<u8> = (0..64).map(|_| rng.next() as u8).collect();
        for len in 0..=bytes.len() {
            for tag in [0x00, 0x50, 0xff] {
                let got = StableHasher::tagged_wire_bytes_key(tag, &bytes[..len]);
                assert_eq!(got, buffered(tag, &bytes[..len]), "tag {tag:#x}, {len} bytes");
            }
        }
    }

    /// A byte-at-a-time reference implementation of the exact same
    /// scheme: identical framing (tag bytes, little-endian values,
    /// length prefixes; wire forms bare) serialized byte by byte into a
    /// shift register that mixes every 8th byte, with the same
    /// tail-padding and length-fold finalization. Word-boundary bugs in the buffered
    /// mixer (chunking, tail handling, length fold) diverge from it.
    struct ReferenceHasher {
        hi: u64,
        lo: u64,
        pending: u64,
        pending_bytes: u32,
        len: u64,
    }

    impl ReferenceHasher {
        fn new() -> ReferenceHasher {
            ReferenceHasher { hi: SEED_HI, lo: SEED_LO, pending: 0, pending_bytes: 0, len: 0 }
        }

        fn byte(&mut self, b: u8) {
            self.pending |= u64::from(b) << (8 * self.pending_bytes);
            self.pending_bytes += 1;
            self.len += 1;
            if self.pending_bytes == 8 {
                self.hi = mix(self.hi, self.pending, K_HI);
                self.lo = mix(self.lo, self.pending, K_LO);
                self.pending = 0;
                self.pending_bytes = 0;
            }
        }

        fn bytes(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.byte(b);
            }
        }

        fn write_bytes(&mut self, bytes: &[u8]) {
            self.byte(0xB0);
            self.bytes(&(bytes.len() as u64).to_le_bytes());
            self.bytes(bytes);
        }

        fn write_tag(&mut self, tag: u8) {
            self.byte(0xAF);
            self.byte(tag);
        }

        fn write_u32(&mut self, v: u32) {
            self.byte(0xA4);
            self.bytes(&v.to_le_bytes());
        }

        fn write_u64(&mut self, v: u64) {
            self.byte(0xA8);
            self.bytes(&v.to_le_bytes());
        }

        fn write_usize(&mut self, v: usize) {
            self.write_u64(v as u64);
        }

        fn write_bool(&mut self, v: bool) {
            self.byte(0xAB);
            self.byte(u8::from(v));
        }

        fn write_str(&mut self, s: &str) {
            self.byte(0xAC);
            self.write_bytes(s.as_bytes());
        }

        fn finish(mut self) -> CacheKey {
            if self.pending_bytes > 0 {
                self.hi = mix(self.hi, self.pending, K_HI);
                self.lo = mix(self.lo, self.pending, K_LO);
            }
            let hi = avalanche(mix(self.hi, self.len, K_HI));
            let lo = avalanche(mix(self.lo, self.len, K_LO));
            CacheKey { hi, lo: lo ^ hi.rotate_left(32) }
        }
    }

    /// Deterministic SplitMix64 stream for the property test (the
    /// vendored rand shim is not a dependency of this crate).
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            avalanche(self.0)
        }
    }

    #[test]
    fn word_at_a_time_matches_byte_at_a_time_reference() {
        for seed in 0..300u64 {
            let mut rng = SplitMix64(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1);
            let mut h = StableHasher::new();
            let mut r = ReferenceHasher::new();
            let ops = (rng.next() % 40) as usize;
            for _ in 0..ops {
                match rng.next() % 11 {
                    0 => {
                        let n = (rng.next() % 43) as usize;
                        let data: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
                        h.write_bytes(&data);
                        r.write_bytes(&data);
                    }
                    1 => {
                        let v = rng.next() as u8;
                        h.write_tag(v);
                        r.write_tag(v);
                    }
                    2 => {
                        let v = rng.next() as u8;
                        h.write_wire(&v);
                        r.bytes(&[v]);
                    }
                    3 => {
                        let v = rng.next() as u16;
                        h.write_wire(&v);
                        r.bytes(&v.to_le_bytes());
                    }
                    4 => {
                        let v = rng.next() as u32;
                        h.write_u32(v);
                        r.write_u32(v);
                    }
                    5 => {
                        let v = rng.next();
                        h.write_u64(v);
                        r.write_u64(v);
                    }
                    6 => {
                        let v = rng.next() as i32;
                        h.write_wire(&v);
                        r.bytes(&v.to_le_bytes());
                    }
                    7 => {
                        let v = rng.next().is_multiple_of(2);
                        h.write_bool(v);
                        r.write_bool(v);
                    }
                    8 => {
                        let n = (rng.next() % 19) as usize;
                        let s: String =
                            (0..n).map(|_| char::from(b'a' + (rng.next() % 26) as u8)).collect();
                        h.write_str(&s);
                        r.write_str(&s);
                    }
                    9 => {
                        let v = rng.next();
                        h.write_wire(&v);
                        r.bytes(&v.to_le_bytes());
                    }
                    _ => {
                        let v = rng.next() as usize;
                        h.write_usize(v);
                        r.write_usize(v);
                    }
                }
            }
            assert_eq!(h.finish(), r.finish(), "divergence for op-stream seed {seed}");
        }
    }
}
