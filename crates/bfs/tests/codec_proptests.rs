//! Property-based tests for the frontier wire codecs: every encoding
//! round-trips exactly, decoding a set into words sets exactly its bits,
//! and the adaptive choice is never larger than any
//! fixed encoding it picks from. Compression is a transport concern; the
//! parent trees the drivers build on it are checked against an
//! independent oracle in `max_parent_oracle.rs`.

use dmbfs_bfs::frontier_codec::{
    decode_pairs, decode_set, decode_set_into, encode_pairs, encode_set, Codec,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a half-open owner range plus a sorted, deduplicated set of
/// targets inside it, each paired with an arbitrary parent id.
fn payload() -> impl Strategy<Value = (u64, u64, Vec<(u64, u64)>)> {
    (
        0u64..1 << 40,
        1u64..5000,
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..200),
    )
        .prop_map(|(base, len, raw)| {
            let mut seen = BTreeSet::new();
            let mut pairs: Vec<(u64, u64)> = Vec::new();
            for (off, parent) in raw {
                if seen.insert(off % len) {
                    pairs.push((base + off % len, parent % (1 << 48)));
                }
            }
            pairs.sort_unstable();
            (base, len, pairs)
        })
}

fn codec_strategy() -> impl Strategy<Value = Codec> {
    prop::sample::select(vec![
        Codec::Raw,
        Codec::VarintDelta,
        Codec::Bitmap,
        Codec::Adaptive,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pairs_round_trip_under_every_codec(
        (base, len, pairs) in payload(),
        codec in codec_strategy(),
    ) {
        let buf = encode_pairs(&pairs, base..base + len, codec);
        prop_assert_eq!(buf.logical_bytes, 16 * pairs.len() as u64);
        prop_assert_eq!(decode_pairs(buf.bytes()), pairs);
    }

    #[test]
    fn sets_round_trip_under_every_codec(
        (base, len, pairs) in payload(),
        codec in codec_strategy(),
    ) {
        let set: Vec<u64> = pairs.iter().map(|&(t, _)| t).collect();
        let buf = encode_set(&set, base..base + len, codec);
        prop_assert_eq!(buf.logical_bytes, 8 * set.len() as u64);
        prop_assert_eq!(decode_set(buf.bytes()), set);
    }

    #[test]
    fn decode_set_into_ors_exactly_the_decoded_bits(
        (old_base, len, pairs) in payload(),
        codec in codec_strategy(),
        word in 0u64..3,
        offset in prop::sample::select(vec![0u64, 1, 7, 63]),
        fill in any::<u64>(),
    ) {
        // The same set, rebased so the range starts `offset` bits into a
        // word: a bitmap chunk then straddles word boundaries.
        let base = 64 * word + offset;
        let set: Vec<u64> = pairs.iter().map(|&(t, _)| t - old_base + base).collect();
        let buf = encode_set(&set, base..base + len, codec);
        // Other ranges' bits everywhere outside this range, including the
        // words it shares with its neighbours and one word past its end.
        let range = base..base + len;
        let mut state = fill | 1;
        let mut words: Vec<u64> = (0..(base + len).div_ceil(64) + 1)
            .map(|w| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (0..64).filter(|b| !range.contains(&(64 * w + b))).fold(0, |acc, b| {
                    acc | (state & 1 << b)
                })
            })
            .collect();
        let mut expected = words.clone();
        for v in decode_set(buf.bytes()) {
            expected[(v / 64) as usize] |= 1 << (v % 64);
        }
        prop_assert_eq!(decode_set_into(buf.bytes(), &mut words), set.len() as u64);
        prop_assert_eq!(words, expected);
    }

    #[test]
    fn adaptive_never_beaten_by_its_candidates(
        (base, len, pairs) in payload(),
    ) {
        let adaptive = encode_pairs(&pairs, base..base + len, Codec::Adaptive);
        for codec in [Codec::Raw, Codec::VarintDelta, Codec::Bitmap] {
            let fixed = encode_pairs(&pairs, base..base + len, codec);
            prop_assert!(adaptive.wire_bytes() <= fixed.wire_bytes());
        }
    }
}
