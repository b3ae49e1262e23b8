//! The one frontier-exchange path of both distributed drivers: the
//! `Alltoallv` of Algorithm 2 line 21 and the fold of Algorithm 3 line 8.
//!
//! A level's `(target, parent)` pairs are encoded per destination, cross
//! in one [`Comm::alltoallv_wire`] and are decoded on arrival — one
//! exchange per level, bulk-synchronous as in the paper.

use crate::frontier_codec::{decode_pairs, LevelCodecStats};
use dmbfs_comm::{Comm, WireBuf};
use dmbfs_trace::SpanKind;
use rayon::prelude::*;

/// Per-destination `(target, parent)` pairs, indexed by rank of `comm`.
pub(crate) type PairBuckets = Vec<Vec<(u64, u64)>>;

/// Runs one level's pair exchange on `comm` and returns the decoded
/// buckets, indexed by source rank.
///
/// `encode(j, pairs)` turns destination `j`'s bucket into its wire buffer.
/// Destinations are independent, so under a hybrid `pool` they fan out
/// across its threads. Wire accounting for off-rank buffers accumulates
/// into `stats`; the collective itself stays on the calling (rank main)
/// thread — the [`Comm`] threading invariant.
pub(crate) fn exchange_pairs(
    comm: &Comm,
    pool: Option<&rayon::ThreadPool>,
    stats: &mut LevelCodecStats,
    buckets: PairBuckets,
    encode: impl Fn(usize, Vec<(u64, u64)>) -> WireBuf + Sync,
) -> PairBuckets {
    let encode_t = comm.trace_start();
    let produced: u64 = buckets.iter().map(|b| b.len() as u64).sum();
    let bufs: Vec<WireBuf> = match pool {
        Some(pool) => pool.install(|| {
            buckets
                .into_par_iter()
                .enumerate()
                .map(|(j, pairs)| encode(j, pairs))
                .collect()
        }),
        None => buckets
            .into_iter()
            .enumerate()
            .map(|(j, pairs)| encode(j, pairs))
            .collect(),
    };
    for (j, buf) in bufs.iter().enumerate() {
        if j != comm.rank() {
            stats.note(buf);
        }
    }
    comm.trace_span(SpanKind::Encode, encode_t, produced);

    let wire = comm.alltoallv_wire(bufs);

    let decode_t = comm.trace_start();
    let recv: PairBuckets = match pool {
        Some(pool) => pool.install(|| wire.par_iter().map(|b| decode_pairs(b.bytes())).collect()),
        None => wire.iter().map(|b| decode_pairs(b.bytes())).collect(),
    };
    let decoded: u64 = recv.iter().map(|b| b.len() as u64).sum();
    comm.trace_span(SpanKind::Decode, decode_t, decoded);
    recv
}
