//! Wire encodings for frontier exchanges — the communication-reduction
//! layer of §7.1's "compression of the frontier" direction.
//!
//! Both distributed algorithms move frontiers as `u64` payloads: the 1D
//! exchange and the 2D fold send `(target, parent)` pairs, the 2D expand
//! and transpose send plain vertex sets. Per destination those targets are
//! a subset of one contiguous owner range, which makes three encodings
//! natural:
//!
//! * **raw** — the `u64`s as little-endian bytes; the identity encoding.
//! * **varint-delta** — targets sorted ascending, gaps varint-encoded
//!   against the destination's range base. A sparse frontier with `k`
//!   vertices in a range of `R` costs about `k·len(varint(R/k))` bytes
//!   instead of `8k`.
//! * **bitmap** — one bit per vertex of the destination range (`R/8`
//!   bytes), best once the frontier is dense (`k ≳ R/8` for sets).
//!
//! The **adaptive** policy computes the exact cost of each encoding per
//! destination per level and picks the cheapest — which tracks the
//! hump-shaped frontier-size curve of R-MAT BFS levels: varint-delta on
//! the sparse early/late levels, bitmap near the peak. The crossover math
//! is worked out in DESIGN.md.
//!
//! Both drivers send every exchange under [`Codec::Adaptive`]; the one
//! fixed choice is the 1D bottom-up step's frontier allgather, which is
//! always a [`Codec::Bitmap`]. The fixed codecs stay selectable for that
//! and as the references the adaptive choice is measured against.
//! Encodings are exact: decode(encode(x)) == x for every codec (roundtrips
//! tested in `crates/bfs/tests/codec_proptests.rs`, parent trees against
//! the serial oracle in `crates/bfs/tests/max_parent_oracle.rs`).
//!
//! Set payloads decode two ways: [`decode_set`] returns the sorted
//! vertices (the 2D expand and transpose), and [`decode_set_into`] ORs
//! them into a global `u64` word bitmap (the 1D bottom-up step, which
//! probes the frontier by bit). The second copies a bitmap payload eight
//! bytes at a time, shifted to its range base, instead of enumerating it.
//!
//! Neither distributed BFS sieves with [`Sieve`]: both drop re-discovered
//! targets inside their SelectMax accumulator, whose slot of a sent target
//! stays at a `SENT` sentinel. The standalone bitmap filter is kept for
//! the codec benchmarks' sieve rate.

use dmbfs_comm::WireBuf;
use dmbfs_graph::VertexId;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which wire encoding an [`encode_pairs`] / [`encode_set`] call uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// Little-endian `u64`s behind the codec framing: the identity
    /// encoding, and the baseline the compressing codecs are measured
    /// against.
    Raw,
    /// Sorted targets, varint-encoded deltas.
    VarintDelta,
    /// One bit per vertex of the destination range.
    Bitmap,
    /// Per-destination, per-level choice of the cheapest of the above.
    Adaptive,
}

/// Wire tag identifying the concrete encoding inside a [`WireBuf`].
const TAG_RAW: u8 = 0;
const TAG_VARINT: u8 = 1;
const TAG_BITMAP: u8 = 2;

/// Appends `v` as a LEB128 varint (7 bits per byte, MSB = continuation).
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint at `*pos`, advancing it.
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Encoded length of `v` as a varint.
fn varint_len(v: u64) -> u64 {
    (64 - u64::from((v | 1).leading_zeros())).div_ceil(7)
}

/// Estimated wire bytes of each concrete encoding for `k` sorted-unique
/// targets within a destination range of `range_len` vertices, with
/// `parent_bytes` of varint-encoded parent payload riding along (0 for
/// plain sets). Header bytes (tag + count + base + range) are shared and
/// omitted: they don't affect which encoding wins.
fn estimate(k: u64, range_len: u64, parent_bytes: u64) -> [(u8, u64); 3] {
    let raw = 8 * k + parent_bytes;
    // Average-gap estimate: k deltas of roughly range_len/k each.
    let avg_gap = range_len.checked_div(k).unwrap_or(0);
    let varint = k * varint_len(avg_gap) + parent_bytes;
    let bitmap = range_len.div_ceil(8) + parent_bytes;
    [(TAG_RAW, raw), (TAG_VARINT, varint), (TAG_BITMAP, bitmap)]
}

/// Picks the concrete wire tag for `codec` given the frontier shape.
fn pick_tag(codec: Codec, k: u64, range_len: u64, parent_bytes: u64) -> u8 {
    if k == 0 {
        // All encodings are equivalent for an empty payload; raw avoids
        // materializing an all-zero bitmap under a forced Bitmap codec.
        return TAG_RAW;
    }
    match codec {
        Codec::Raw => TAG_RAW,
        Codec::VarintDelta => TAG_VARINT,
        Codec::Bitmap => TAG_BITMAP,
        Codec::Adaptive => {
            estimate(k, range_len, parent_bytes)
                .into_iter()
                .min_by_key(|&(_, cost)| cost)
                .expect("three candidates")
                .0
        }
    }
}

/// Writes the shared header: tag, element count, range base, range length.
fn push_header(out: &mut Vec<u8>, tag: u8, count: u64, range: &Range<u64>) {
    out.push(tag);
    push_varint(out, count);
    push_varint(out, range.start);
    push_varint(out, range.end - range.start);
}

/// Encodes sorted-unique `(target, parent)` pairs destined for an owner
/// whose vertices span `range`. Targets must be strictly increasing and
/// inside `range`; parents are arbitrary vertex ids.
///
/// Returns the encoded bytes wrapped with the logical size (16 bytes per
/// pair — what the typed `alltoallv` of `(u64, u64)` would have sent).
pub fn encode_pairs(pairs: &[(VertexId, VertexId)], range: Range<u64>, codec: Codec) -> WireBuf {
    debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "pairs sorted");
    let logical = 16 * pairs.len() as u64;
    let k = pairs.len() as u64;
    let range_len = range.end - range.start;
    let parent_bytes: u64 = pairs.iter().map(|&(_, p)| varint_len(p)).sum();
    let tag = pick_tag(codec, k, range_len, parent_bytes);
    let mut out = Vec::new();
    push_header(&mut out, tag, k, &range);
    match tag {
        TAG_RAW => {
            for &(t, _) in pairs {
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
        TAG_VARINT => {
            let mut prev = range.start;
            for &(t, _) in pairs {
                debug_assert!(range.contains(&t));
                push_varint(&mut out, t - prev);
                prev = t;
            }
        }
        TAG_BITMAP => {
            let mut bits = vec![0u8; range_len.div_ceil(8) as usize];
            for &(t, _) in pairs {
                debug_assert!(range.contains(&t));
                let off = (t - range.start) as usize;
                bits[off / 8] |= 1 << (off % 8);
            }
            out.extend_from_slice(&bits);
        }
        _ => unreachable!(),
    }
    // Parents ride along as varints in target order for every encoding
    // (the bitmap enumerates set bits ascending, matching the sort).
    for &(_, p) in pairs {
        push_varint(&mut out, p);
    }
    WireBuf::new(out, logical)
}

/// Decodes a [`encode_pairs`] payload back to sorted `(target, parent)`
/// pairs. Takes the raw wire bytes (`WireBuf::bytes()`) so receivers can
/// decode straight from a loaned payload without owning it.
pub fn decode_pairs(bytes: &[u8]) -> Vec<(VertexId, VertexId)> {
    if bytes.is_empty() {
        return Vec::new();
    }
    let mut pos = 0usize;
    let targets = decode_targets(bytes, &mut pos);
    targets
        .into_iter()
        .map(|t| (t, read_varint(bytes, &mut pos)))
        .collect()
}

/// Encodes a sorted-unique vertex set spanning `range` (the 2D expand /
/// transpose payloads). Logical size is 8 bytes per vertex.
pub fn encode_set(vertices: &[VertexId], range: Range<u64>, codec: Codec) -> WireBuf {
    debug_assert!(vertices.windows(2).all(|w| w[0] < w[1]), "set sorted");
    let logical = 8 * vertices.len() as u64;
    let k = vertices.len() as u64;
    let range_len = range.end - range.start;
    let tag = pick_tag(codec, k, range_len, 0);
    let mut out = Vec::new();
    push_header(&mut out, tag, k, &range);
    match tag {
        TAG_RAW => {
            for &v in vertices {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        TAG_VARINT => {
            let mut prev = range.start;
            for &v in vertices {
                debug_assert!(range.contains(&v));
                push_varint(&mut out, v - prev);
                prev = v;
            }
        }
        TAG_BITMAP => {
            let mut bits = vec![0u8; range_len.div_ceil(8) as usize];
            for &v in vertices {
                debug_assert!(range.contains(&v));
                let off = (v - range.start) as usize;
                bits[off / 8] |= 1 << (off % 8);
            }
            out.extend_from_slice(&bits);
        }
        _ => unreachable!(),
    }
    WireBuf::new(out, logical)
}

/// Decodes an [`encode_set`] payload back to the sorted vertex set. Takes
/// the raw wire bytes (`WireBuf::bytes()`) so receivers can decode straight
/// from a loaned payload without owning it.
pub fn decode_set(bytes: &[u8]) -> Vec<VertexId> {
    if bytes.is_empty() {
        return Vec::new();
    }
    decode_targets(bytes, &mut 0)
}

/// ORs an [`encode_set`] payload into a global word bitmap — vertex `v` is
/// bit `v % 64` of `words[v / 64]` — and returns how many vertices it
/// carried. Bits already set (other ranges' payloads) are kept.
///
/// A bitmap payload is copied eight bytes at a time: each little-endian
/// chunk is one word of the range, shifted up to the range base, and a
/// chunk that straddles a word boundary carries its high bits into the
/// next word. Raw and varint payloads set their bits one by one. `words`
/// must cover the payload's range.
pub fn decode_set_into(bytes: &[u8], words: &mut [u64]) -> u64 {
    if bytes.is_empty() {
        return 0;
    }
    let mut pos = 0usize;
    let header = read_header(bytes, &mut pos);
    if header.tag != TAG_BITMAP {
        for_each_target(bytes, &mut pos, header, |v| {
            words[(v / 64) as usize] |= 1 << (v % 64);
        });
        return header.count;
    }
    let bits = &bytes[pos..pos + header.range_len.div_ceil(8) as usize];
    let (w0, shift) = ((header.base / 64) as usize, header.base % 64);
    let mut count = 0u64;
    for (k, chunk) in bits.chunks(8).enumerate() {
        let mut le = [0u8; 8];
        le[..chunk.len()].copy_from_slice(chunk);
        let word = u64::from_le_bytes(le);
        count += u64::from(word.count_ones());
        words[w0 + k] |= word << shift;
        // Bits past the range are zero, so a non-zero carry lands inside it.
        let carry = word.checked_shr(64 - shift as u32).unwrap_or(0);
        if carry != 0 {
            words[w0 + k + 1] |= carry;
        }
    }
    debug_assert_eq!(count, header.count);
    count
}

/// The header every payload starts with (see `push_header`).
#[derive(Clone, Copy)]
struct Header {
    tag: u8,
    count: u64,
    base: u64,
    range_len: u64,
}

/// Reads the shared header at `*pos`, advancing it.
fn read_header(bytes: &[u8], pos: &mut usize) -> Header {
    let tag = bytes[*pos];
    *pos += 1;
    Header {
        tag,
        count: read_varint(bytes, pos),
        base: read_varint(bytes, pos),
        range_len: read_varint(bytes, pos),
    }
}

/// Reads a payload's header and targets at `*pos`, advancing it.
fn decode_targets(bytes: &[u8], pos: &mut usize) -> Vec<VertexId> {
    let header = read_header(bytes, pos);
    let mut targets = Vec::with_capacity(header.count as usize);
    for_each_target(bytes, pos, header, |t| targets.push(t));
    targets
}

/// Shared target decoder for the three concrete encodings: calls `f` on
/// each target in ascending order, advancing `*pos` past them.
fn for_each_target(bytes: &[u8], pos: &mut usize, header: Header, mut f: impl FnMut(VertexId)) {
    let Header {
        tag,
        count,
        base,
        range_len,
    } = header;
    match tag {
        TAG_RAW => {
            for _ in 0..count {
                let mut le = [0u8; 8];
                le.copy_from_slice(&bytes[*pos..*pos + 8]);
                *pos += 8;
                f(u64::from_le_bytes(le));
            }
        }
        TAG_VARINT => {
            let mut prev = base;
            for _ in 0..count {
                prev += read_varint(bytes, pos);
                f(prev);
            }
        }
        TAG_BITMAP => {
            let nbytes = range_len.div_ceil(8) as usize;
            let bits = &bytes[*pos..*pos + nbytes];
            *pos += nbytes;
            let mut found = 0u64;
            for (i, &byte) in bits.iter().enumerate() {
                let mut b = byte;
                while b != 0 {
                    let bit = b.trailing_zeros() as u64;
                    f(base + 8 * i as u64 + bit);
                    found += 1;
                    b &= b - 1;
                }
            }
            debug_assert_eq!(found, count);
        }
        other => panic!("corrupt frontier payload: unknown wire tag {other}"),
    }
}

/// Sender-side duplicate filter: one bit per key this rank has already
/// emitted. A BFS vertex is discovered exactly once, so anything the bit
/// already covers is a cross-level duplicate the owner would discard —
/// sieving drops it before it costs wire bytes. No BFS uses it (their
/// SelectMax accumulators sieve in place, a sent target's slot staying at
/// a `SENT` sentinel); it is kept as the standalone filter the codec
/// benchmarks time.
///
/// The bit array is atomic so callers can mark through a shared `&Sieve`
/// from several threads: callers with disjoint keys never contend on the
/// same bit, only — harmlessly — on neighbouring bits of a shared word.
#[derive(Debug)]
pub struct Sieve {
    bits: Vec<AtomicU64>,
    hits: AtomicU64,
}

impl Clone for Sieve {
    fn clone(&self) -> Self {
        Self {
            bits: self
                .bits
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect(),
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
        }
    }
}

impl Sieve {
    /// A sieve covering `n` slots, all clear.
    pub fn new(n: usize) -> Self {
        Self {
            bits: (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            hits: AtomicU64::new(0),
        }
    }

    /// Marks slot `i`; returns `true` if it was already set (a duplicate,
    /// counted in [`Sieve::hits`]).
    pub fn test_and_set(&self, i: usize) -> bool {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        let seen = self.bits[word].fetch_or(bit, Ordering::Relaxed) & bit != 0;
        if seen {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        seen
    }

    /// Number of duplicates dropped so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// Per-level codec telemetry for one rank (or merged across ranks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelCodecStats {
    /// BFS level this row describes.
    pub level: usize,
    /// Logical frontier-exchange bytes at this level.
    pub logical_bytes: u64,
    /// Encoded bytes that actually crossed the wire.
    pub wire_bytes: u64,
    /// Duplicates dropped by the sender-side sieve: offers whose target
    /// this rank already sent at an earlier level, dropped at the scatter —
    /// one per edge, so a target offered by k frontier vertices counts k.
    /// In 1D an offer is a frontier out-edge, in 2D a nonzero of a frontier
    /// column of the local matrix.
    pub sieve_hits: u64,
    /// Destinations encoded raw.
    pub chose_raw: u64,
    /// Destinations encoded varint-delta.
    pub chose_varint: u64,
    /// Destinations encoded bitmap.
    pub chose_bitmap: u64,
}

impl LevelCodecStats {
    /// Accounts one encoded buffer at this level. Empty buffers count
    /// toward byte totals (their header still travels) but not toward the
    /// encoding-choice tallies.
    pub fn note(&mut self, buf: &WireBuf) {
        self.logical_bytes += buf.logical_bytes;
        self.wire_bytes += buf.wire_bytes();
        if buf.logical_bytes == 0 {
            return;
        }
        if let Some(&tag) = buf.bytes().first() {
            match tag {
                TAG_RAW => self.chose_raw += 1,
                TAG_VARINT => self.chose_varint += 1,
                TAG_BITMAP => self.chose_bitmap += 1,
                _ => {}
            }
        }
    }

    /// Element-wise sum, keeping `self.level`.
    pub fn merge(&mut self, other: &LevelCodecStats) {
        self.logical_bytes += other.logical_bytes;
        self.wire_bytes += other.wire_bytes;
        self.sieve_hits += other.sieve_hits;
        self.chose_raw += other.chose_raw;
        self.chose_varint += other.chose_varint;
        self.chose_bitmap += other.chose_bitmap;
    }
}

/// Merges per-rank level-stat vectors (ragged lengths allowed) into one
/// per-level vector.
pub fn merge_level_stats(per_rank: &[Vec<LevelCodecStats>]) -> Vec<LevelCodecStats> {
    let depth = per_rank.iter().map(Vec::len).max().unwrap_or(0);
    let mut out: Vec<LevelCodecStats> = (0..depth)
        .map(|level| LevelCodecStats {
            level,
            ..Default::default()
        })
        .collect();
    for rank in per_rank {
        for (level, stats) in rank.iter().enumerate() {
            out[level].merge(stats);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(spec: &[(u64, u64)]) -> Vec<(VertexId, VertexId)> {
        spec.to_vec()
    }

    #[test]
    fn pairs_roundtrip_every_codec() {
        let p = pairs(&[(100, 7), (101, 3), (150, 999), (255, 0)]);
        for codec in [
            Codec::Raw,
            Codec::VarintDelta,
            Codec::Bitmap,
            Codec::Adaptive,
        ] {
            let buf = encode_pairs(&p, 100..256, codec);
            assert_eq!(decode_pairs(buf.bytes()), p, "codec {codec:?}");
        }
    }

    #[test]
    fn set_roundtrip_every_codec() {
        let s = vec![8u64, 9, 64, 65, 127];
        for codec in [
            Codec::Raw,
            Codec::VarintDelta,
            Codec::Bitmap,
            Codec::Adaptive,
        ] {
            let buf = encode_set(&s, 8..128, codec);
            assert_eq!(decode_set(buf.bytes()), s, "codec {codec:?}");
        }
    }

    #[test]
    fn empty_payloads_roundtrip() {
        for codec in [
            Codec::Raw,
            Codec::VarintDelta,
            Codec::Bitmap,
            Codec::Adaptive,
        ] {
            let buf = encode_pairs(&[], 0..1024, codec);
            assert_eq!(buf.logical_bytes, 0);
            assert!(decode_pairs(buf.bytes()).is_empty());
            let buf = encode_set(&[], 0..1024, codec);
            assert!(decode_set(buf.bytes()).is_empty());
        }
    }

    #[test]
    fn varint_beats_raw_on_sparse_and_bitmap_wins_dense() {
        // Sparse: 8 vertices in a 1M range.
        let sparse: Vec<u64> = (0..8u64).map(|i| i * 100_000).collect();
        let v = encode_set(&sparse, 0..1_000_000, Codec::VarintDelta);
        let r = encode_set(&sparse, 0..1_000_000, Codec::Raw);
        let b = encode_set(&sparse, 0..1_000_000, Codec::Bitmap);
        assert!(v.wire_bytes() < r.wire_bytes());
        assert!(v.wire_bytes() < b.wire_bytes());
        let a = encode_set(&sparse, 0..1_000_000, Codec::Adaptive);
        assert_eq!(a.bytes()[0], TAG_VARINT);

        // Dense: every vertex of a 4096 range.
        let dense: Vec<u64> = (0..4096u64).collect();
        let b = encode_set(&dense, 0..4096, Codec::Bitmap);
        let v = encode_set(&dense, 0..4096, Codec::VarintDelta);
        let r = encode_set(&dense, 0..4096, Codec::Raw);
        assert!(b.wire_bytes() < v.wire_bytes());
        assert!(b.wire_bytes() < r.wire_bytes());
        let a = encode_set(&dense, 0..4096, Codec::Adaptive);
        assert_eq!(a.bytes()[0], TAG_BITMAP);
    }

    #[test]
    fn adaptive_never_wildly_exceeds_best() {
        // The adaptive pick uses an average-gap estimate, so it may miss
        // the true optimum on adversarial gap distributions, but it must
        // stay within the estimate error (bounded by the raw encoding).
        let skewed: Vec<u64> = (0..64u64).chain(std::iter::once(999_999)).collect();
        let a = encode_set(&skewed, 0..1_000_000, Codec::Adaptive);
        let r = encode_set(&skewed, 0..1_000_000, Codec::Raw);
        assert!(a.wire_bytes() <= r.wire_bytes());
    }

    #[test]
    fn logical_bytes_match_typed_collective_sizes() {
        let p = pairs(&[(5, 1), (9, 2)]);
        assert_eq!(encode_pairs(&p, 0..16, Codec::Raw).logical_bytes, 32);
        assert_eq!(encode_set(&[3, 4], 0..16, Codec::Raw).logical_bytes, 16);
    }

    #[test]
    fn sieve_counts_duplicates() {
        let s = Sieve::new(100);
        assert!(!s.test_and_set(42));
        assert!(s.test_and_set(42));
        assert!(!s.test_and_set(99));
        assert!(s.test_and_set(42));
        assert_eq!(s.hits(), 2);
    }

    #[test]
    fn sieve_is_exact_under_concurrency() {
        // 4 threads hammer the same 256 slots twice each: every slot is
        // claimed exactly once, and every other attempt counts as a hit.
        let s = Sieve::new(256);
        let claimed = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..256 {
                        for _ in 0..2 {
                            if !s.test_and_set(i) {
                                claimed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(claimed.load(Ordering::Relaxed), 256);
        assert_eq!(s.hits(), 4 * 2 * 256 - 256);
    }

    #[test]
    fn level_stats_note_and_merge() {
        let mut a = LevelCodecStats {
            level: 2,
            ..Default::default()
        };
        a.note(&encode_set(&[1, 2, 3], 0..1024, Codec::VarintDelta));
        assert_eq!(a.logical_bytes, 24);
        assert_eq!(a.chose_varint, 1);
        let b = LevelCodecStats {
            level: 2,
            logical_bytes: 100,
            wire_bytes: 10,
            sieve_hits: 5,
            chose_raw: 1,
            chose_varint: 0,
            chose_bitmap: 2,
        };
        a.merge(&b);
        assert_eq!(a.logical_bytes, 124);
        assert_eq!(a.sieve_hits, 5);
        assert_eq!(a.chose_bitmap, 2);

        let merged = merge_level_stats(&[vec![a], vec![b, b]]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].level, 0);
        assert_eq!(merged[0].logical_bytes, 224);
        assert_eq!(merged[1].logical_bytes, 100);
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert_eq!(buf.len() as u64, varint_len(v), "v = {v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
    }
}
