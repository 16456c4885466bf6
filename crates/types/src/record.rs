//! Fixed-size sortable records.
//!
//! The storage layer moves raw bytes (like a real disk); algorithms work
//! on typed records. [`Record`] bridges the two with cheap bulk
//! encode/decode. Two concrete record types cover the paper's
//! experiments:
//!
//! * [`Element16`] — 16-byte element with a 64-bit key, used in the
//!   scalability experiments (Figures 2–6): "The element size is (only)
//!   16 bytes with 64-bit keys."
//! * [`Record100`] — the SortBenchmark record: 100 bytes, 10-byte key,
//!   used for the GraySort/MinuteSort runs (Section VI).

/// A totally ordered, fixed-size sort key.
///
/// `MIN_KEY`/`MAX_KEY` act as sentinels for loser trees and for the
/// conceptual "fill up with ∞" padding in multiway selection
/// (Section IV-A of the paper).
pub trait Key: Copy + Ord + Send + Sync + std::fmt::Debug + 'static {
    /// Smallest possible key (−∞ sentinel).
    const MIN_KEY: Self;
    /// Largest possible key (+∞ sentinel).
    const MAX_KEY: Self;

    /// A monotone 64-bit summary of the key: `a <= b` implies
    /// `a.prefix64() <= b.prefix64()`. Used for histograms, band
    /// generation, diagnostics, and the tags of the in-node sort, which
    /// decide an order only where two prefixes differ.
    fn prefix64(&self) -> u64;

    /// Serialized size in bytes.
    const BYTES: usize;

    /// Write the key into `out` (exactly [`Key::BYTES`] bytes).
    fn encode(&self, out: &mut [u8]);

    /// Read a key [`Key::encode`] wrote.
    fn decode(bytes: &[u8]) -> Self;
}

impl Key for u64 {
    const MIN_KEY: Self = 0;
    const MAX_KEY: Self = u64::MAX;
    const BYTES: usize = 8;

    fn encode(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Self {
        let mut le = [0u8; 8];
        le.copy_from_slice(&bytes[..8]);
        u64::from_le_bytes(le)
    }

    #[inline]
    fn prefix64(&self) -> u64 {
        *self
    }
}

/// The SortBenchmark 10-byte key, ordered lexicographically.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Key10(pub [u8; 10]);

impl Key for Key10 {
    const MIN_KEY: Self = Key10([0u8; 10]);
    const MAX_KEY: Self = Key10([0xFF; 10]);
    const BYTES: usize = 10;

    fn encode(&self, out: &mut [u8]) {
        out[..10].copy_from_slice(&self.0);
    }

    fn decode(bytes: &[u8]) -> Self {
        let mut key = Key10::MIN_KEY;
        key.0.copy_from_slice(&bytes[..10]);
        key
    }

    #[inline]
    fn prefix64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8-byte prefix"))
    }
}

impl std::fmt::Debug for Key10 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Key10(")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

/// A fixed-size record that can be sorted by its [`Key`] and moved
/// through the byte-oriented storage and network layers.
///
/// Implementations must guarantee `encode` writes exactly
/// [`Record::BYTES`] bytes and `decode(encode(r)) == r`. A record type
/// that implements `Ord` must order by key first: splitters are chosen
/// on keys, and the in-node sort of wide records orders by
/// [`Key::prefix64`] wherever two prefixes differ.
pub trait Record: Copy + Send + Sync + 'static {
    /// The sort key type.
    type Key: Key;

    /// Serialized size in bytes.
    const BYTES: usize;

    /// Extract the sort key.
    fn key(&self) -> Self::Key;

    /// Serialize into `out` (`out.len() == Self::BYTES`).
    fn encode(&self, out: &mut [u8]);

    /// Deserialize from `buf` (`buf.len() == Self::BYTES`).
    fn decode(buf: &[u8]) -> Self;

    /// Bulk-serialize `recs` into `out`
    /// (`out.len() >= recs.len() * Self::BYTES`).
    fn encode_slice(recs: &[Self], out: &mut [u8]) {
        assert!(out.len() >= recs.len() * Self::BYTES, "output buffer too small");
        for (r, chunk) in recs.iter().zip(out.chunks_exact_mut(Self::BYTES)) {
            r.encode(chunk);
        }
    }

    /// Bulk-deserialize `buf` (a whole number of records), appending to
    /// `out`.
    fn decode_slice(buf: &[u8], out: &mut Vec<Self>) {
        debug_assert_eq!(buf.len() % Self::BYTES, 0, "partial record in buffer");
        out.reserve(buf.len() / Self::BYTES);
        for chunk in buf.chunks_exact(Self::BYTES) {
            out.push(Self::decode(chunk));
        }
    }

    /// View `buf` as the records it encodes, without copying — for
    /// types whose in-memory layout *is* the wire format at every
    /// address (no alignment, no padding, no invalid bit pattern).
    /// `None` when the type has no such layout, the default, or when
    /// `buf` is not a whole number of records; the caller then decodes
    /// with [`decode_slice`](Self::decode_slice).
    fn view_slice(_buf: &[u8]) -> Option<&[Self]> {
        None
    }
}

/// The paper's 16-byte element: 64-bit key plus 64-bit payload.
///
/// "The element size is (only) 16 bytes with 64-bit keys. This makes
/// internal computation efficiency as important as high I/O throughput."
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct Element16 {
    /// 64-bit sort key.
    pub key: u64,
    /// Opaque payload; carries provenance in tests (e.g. original index)
    /// so permutation checks can detect duplication or loss.
    pub payload: u64,
}

// The slab codecs below cast &[Element16] to bytes: the struct must
// stay exactly two packed u64s.
const _: () = assert!(std::mem::size_of::<Element16>() == 16);

impl Element16 {
    /// Construct from key and payload.
    #[inline]
    pub const fn new(key: u64, payload: u64) -> Self {
        Self { key, payload }
    }
}

impl PartialOrd for Element16 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Total order by key, tie-broken by payload so tests can demand a
/// unique sorted sequence.
impl Ord for Element16 {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.payload).cmp(&(other.key, other.payload))
    }
}

impl Record for Element16 {
    type Key = u64;
    const BYTES: usize = 16;

    #[inline]
    fn key(&self) -> u64 {
        self.key
    }

    #[inline]
    fn encode(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.key.to_le_bytes());
        out[8..16].copy_from_slice(&self.payload.to_le_bytes());
    }

    #[inline]
    fn decode(buf: &[u8]) -> Self {
        Self {
            key: u64::from_le_bytes(buf[..8].try_into().expect("8 bytes")),
            payload: u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
        }
    }

    /// Block-at-a-time path: on little-endian targets the in-memory
    /// layout (`repr(C)`, two packed LE `u64`s) equals the wire format,
    /// so the whole slab is one memcpy.
    fn encode_slice(recs: &[Self], out: &mut [u8]) {
        assert!(out.len() >= recs.len() * Self::BYTES, "output buffer too small");
        if cfg!(target_endian = "little") {
            let bytes = recs.len() * Self::BYTES;
            // SAFETY: Element16 is repr(C) with two u64 fields and no
            // padding (size asserted at compile time); on little-endian
            // its bytes are exactly the wire encoding.
            let src = unsafe { std::slice::from_raw_parts(recs.as_ptr().cast::<u8>(), bytes) };
            out[..bytes].copy_from_slice(src);
        } else {
            for (r, chunk) in recs.iter().zip(out.chunks_exact_mut(Self::BYTES)) {
                r.encode(chunk);
            }
        }
    }

    /// Block-at-a-time path: one memcpy into the vector's spare
    /// capacity on little-endian targets (every bit pattern is a valid
    /// `Element16`).
    fn decode_slice(buf: &[u8], out: &mut Vec<Self>) {
        debug_assert_eq!(buf.len() % Self::BYTES, 0, "partial record in buffer");
        let n = buf.len() / Self::BYTES;
        if cfg!(target_endian = "little") {
            out.reserve(n);
            let len = out.len();
            // SAFETY: same layout argument as encode_slice; the
            // destination is freshly reserved, fully written before
            // set_len, and any u128 bit pattern is a valid Element16.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    buf.as_ptr(),
                    out.as_mut_ptr().add(len).cast::<u8>(),
                    n * Self::BYTES,
                );
                out.set_len(len + n);
            }
        } else {
            out.reserve(n);
            for chunk in buf.chunks_exact(Self::BYTES) {
                out.push(Self::decode(chunk));
            }
        }
    }
}

/// SortBenchmark record: 10-byte key, 90-byte payload, 100 bytes total
/// ("This setting considers 100-byte elements with a 10-byte key").
#[derive(Copy, Clone)]
#[repr(C)]
pub struct Record100 {
    /// The 10-byte lexicographic key.
    pub key: Key10,
    /// The remaining 90 bytes of the record.
    pub payload: [u8; 90],
}

// The slab codecs below cast &[Record100] to bytes: key and payload
// must stay contiguous with no padding.
const _: () = assert!(std::mem::size_of::<Record100>() == 100);
const _: () = assert!(std::mem::align_of::<Record100>() == 1);

impl Record100 {
    /// Construct from key and payload.
    #[inline]
    pub const fn new(key: Key10, payload: [u8; 90]) -> Self {
        Self { key, payload }
    }
}

impl std::fmt::Debug for Record100 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Record100").field("key", &self.key).finish_non_exhaustive()
    }
}

impl PartialEq for Record100 {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.payload[..] == other.payload[..]
    }
}

impl Eq for Record100 {}

impl PartialOrd for Record100 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Ordered by key, then payload (total order for stable validation).
impl Ord for Record100 {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key).then_with(|| self.payload.cmp(&other.payload))
    }
}

impl Record for Record100 {
    type Key = Key10;
    const BYTES: usize = 100;

    #[inline]
    fn key(&self) -> Key10 {
        self.key
    }

    #[inline]
    fn encode(&self, out: &mut [u8]) {
        out[..10].copy_from_slice(&self.key.0);
        out[10..100].copy_from_slice(&self.payload);
    }

    #[inline]
    fn decode(buf: &[u8]) -> Self {
        let mut key = [0u8; 10];
        key.copy_from_slice(&buf[..10]);
        let mut payload = [0u8; 90];
        payload.copy_from_slice(&buf[10..100]);
        Self { key: Key10(key), payload }
    }

    /// Block-at-a-time path: the record is 100 contiguous bytes
    /// (`repr(C)`, align 1) in wire order on every target, so the slab
    /// is one endian-independent memcpy.
    fn encode_slice(recs: &[Self], out: &mut [u8]) {
        assert!(out.len() >= recs.len() * Self::BYTES, "output buffer too small");
        let bytes = recs.len() * Self::BYTES;
        // SAFETY: Record100 is repr(C) of [u8; 10] + [u8; 90] with no
        // padding (size and alignment asserted at compile time).
        let src = unsafe { std::slice::from_raw_parts(recs.as_ptr().cast::<u8>(), bytes) };
        out[..bytes].copy_from_slice(src);
    }

    /// Block-at-a-time path: one memcpy into the vector's spare
    /// capacity (every byte pattern is a valid `Record100`).
    fn decode_slice(buf: &[u8], out: &mut Vec<Self>) {
        debug_assert_eq!(buf.len() % Self::BYTES, 0, "partial record in buffer");
        let n = buf.len() / Self::BYTES;
        out.reserve(n);
        let len = out.len();
        // SAFETY: same layout argument as encode_slice; the destination
        // is freshly reserved and fully written before set_len.
        unsafe {
            std::ptr::copy_nonoverlapping(
                buf.as_ptr(),
                out.as_mut_ptr().add(len).cast::<u8>(),
                n * Self::BYTES,
            );
            out.set_len(len + n);
        }
    }

    /// A buffer of whole encoded records is a `[Record100]` wherever
    /// it starts.
    fn view_slice(buf: &[u8]) -> Option<&[Self]> {
        if !buf.len().is_multiple_of(Self::BYTES) {
            return None;
        }
        // SAFETY: Record100 is repr(C) of [u8; 10] + [u8; 90] — size
        // 100, alignment 1 (both asserted at compile time), every byte
        // pattern valid — so any `buf.len() / 100` whole records' worth
        // of initialized bytes is a valid `[Record100]` at any address;
        // the view borrows `buf` and lives no longer than it.
        Some(unsafe {
            std::slice::from_raw_parts(buf.as_ptr().cast::<Self>(), buf.len() / Self::BYTES)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip_through_their_encoding() {
        let mut buf = [0u8; 10];
        for k in [0u64, 7, u64::MAX] {
            k.encode(&mut buf);
            assert_eq!(u64::decode(&buf), k);
        }
        let k = Key10(*b"0123456789");
        k.encode(&mut buf);
        assert_eq!(Key10::decode(&buf), k);
    }

    #[test]
    fn element16_roundtrip() {
        let e = Element16::new(0xDEAD_BEEF_1234_5678, 42);
        let mut buf = [0u8; 16];
        e.encode(&mut buf);
        assert_eq!(Element16::decode(&buf), e);
    }

    #[test]
    fn element16_order_is_by_key_then_payload() {
        let a = Element16::new(1, 9);
        let b = Element16::new(2, 0);
        let c = Element16::new(2, 1);
        assert!(a < b && b < c);
    }

    #[test]
    fn record100_roundtrip() {
        let mut payload = [0u8; 90];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = i as u8;
        }
        let r = Record100::new(Key10(*b"ABCDEFGHIJ"), payload);
        let mut buf = [0u8; 100];
        r.encode(&mut buf);
        assert_eq!(Record100::decode(&buf), r);
    }

    #[test]
    fn key10_lexicographic_order() {
        let a = Key10(*b"AAAAAAAAA\x00");
        let b = Key10(*b"AAAAAAAAA\x01");
        let c = Key10(*b"B\x00\x00\x00\x00\x00\x00\x00\x00\x00");
        assert!(a < b && b < c);
        assert!(Key10::MIN_KEY <= a && c <= Key10::MAX_KEY);
    }

    #[test]
    fn key_prefix_is_monotone_on_samples() {
        let keys = [0u64, 1, 255, 1 << 20, u64::MAX / 2, u64::MAX];
        for w in keys.windows(2) {
            assert!(w[0].prefix64() <= w[1].prefix64());
        }
        let k10s = [Key10([0; 10]), Key10(*b"ABCDEFGHIJ"), Key10([0xFF; 10])];
        for w in k10s.windows(2) {
            assert!(w[0].prefix64() <= w[1].prefix64());
        }
    }

    #[test]
    fn bulk_encode_decode_roundtrip() {
        let recs: Vec<Element16> = (0..100).map(|i| Element16::new(i * 3, i)).collect();
        let mut buf = vec![0u8; recs.len() * Element16::BYTES];
        Element16::encode_slice(&recs, &mut buf);
        let mut out = Vec::new();
        Element16::decode_slice(&buf, &mut out);
        assert_eq!(recs, out);
    }

    #[test]
    #[should_panic(expected = "output buffer too small")]
    fn bulk_encode_checks_capacity() {
        let recs = [Element16::new(1, 2); 4];
        let mut buf = vec![0u8; 3 * Element16::BYTES];
        Element16::encode_slice(&recs, &mut buf);
    }

    /// The per-record reference paths the slab codecs must match.
    fn encode_each<R: Record>(recs: &[R]) -> Vec<u8> {
        let mut out = vec![0u8; recs.len() * R::BYTES];
        for (r, chunk) in recs.iter().zip(out.chunks_exact_mut(R::BYTES)) {
            r.encode(chunk);
        }
        out
    }

    fn decode_each<R: Record>(buf: &[u8]) -> Vec<R> {
        buf.chunks_exact(R::BYTES).map(R::decode).collect()
    }

    /// A full 100-byte record from a seed, so that every byte position
    /// (key and payload) varies across cases.
    fn record100_from(seed: u64) -> Record100 {
        let mut bytes = [0u8; 100];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64) >> 24) as u8;
        }
        Record100::decode(&bytes)
    }

    use proptest::prelude::*;

    proptest! {
        /// Slab encode/decode ≡ per-record encode/decode for the
        /// 16-byte element, at every length (including the 0- and
        /// partial-tail-block sizes recio produces) and with slack in
        /// the output buffer (a zero-padded tail block).
        #[test]
        fn element16_slab_matches_per_record(
            raw in prop::collection::vec(0u64..=u64::MAX, 0..200),
            slack in 0usize..48,
        ) {
            let recs: Vec<Element16> =
                raw.into_iter().map(|k| Element16::new(k, k.wrapping_mul(0x9E37_79B9))).collect();
            let reference = encode_each(&recs);
            let mut slab = vec![0u8; reference.len() + slack];
            Element16::encode_slice(&recs, &mut slab);
            prop_assert_eq!(&slab[..reference.len()], &reference[..]);
            prop_assert!(slab[reference.len()..].iter().all(|&b| b == 0));
            // Decode appends after existing elements.
            let mut out = vec![Element16::new(7, 7)];
            Element16::decode_slice(&reference, &mut out);
            prop_assert_eq!(out[0], Element16::new(7, 7));
            prop_assert_eq!(&out[1..], &recs[..]);
            prop_assert_eq!(decode_each::<Element16>(&reference), recs);
        }

        /// Same equivalence for the 100-byte SortBenchmark record.
        #[test]
        fn record100_slab_matches_per_record(
            raw in prop::collection::vec(0u64..=u64::MAX, 0..40),
            slack in 0usize..100,
        ) {
            let recs: Vec<Record100> = raw.iter().map(|&seed| record100_from(seed)).collect();
            let reference = encode_each(&recs);
            let mut slab = vec![0u8; reference.len() + slack];
            Record100::encode_slice(&recs, &mut slab);
            prop_assert_eq!(&slab[..reference.len()], &reference[..]);
            let mut out = Vec::new();
            Record100::decode_slice(&reference, &mut out);
            prop_assert_eq!(&out[..], &recs[..]);
            prop_assert_eq!(decode_each::<Record100>(&reference), recs);
        }

        /// The zero-copy view of an encoded slab is the records that
        /// were encoded, wherever in its backing buffer the slab starts
        /// (a received message carries no alignment); a length that is
        /// not whole records has no view. `Element16` — aligned, and
        /// little-endian only on the wire — never has one.
        #[test]
        fn record100_view_matches_decode_at_any_offset(
            raw in prop::collection::vec(0u64..=u64::MAX, 0..40),
            offset in 0usize..128,
            ragged in 1usize..100,
        ) {
            let recs: Vec<Record100> = raw.iter().map(|&seed| record100_from(seed)).collect();
            let bytes = recs.len() * Record100::BYTES;
            let mut backing = vec![0xA5u8; offset + bytes + ragged];
            Record100::encode_slice(&recs, &mut backing[offset..offset + bytes]);
            let view = Record100::view_slice(&backing[offset..offset + bytes]);
            prop_assert_eq!(view, Some(&recs[..]));
            prop_assert!(Record100::view_slice(&backing[offset..offset + bytes + ragged]).is_none());

            let elems: Vec<Element16> = raw.iter().map(|&k| Element16::new(k, !k)).collect();
            prop_assert!(Element16::view_slice(&encode_each(&elems)).is_none());
        }
    }
}
