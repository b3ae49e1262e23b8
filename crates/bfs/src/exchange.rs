//! The one frontier-exchange path of both distributed drivers: the
//! `Alltoallv` of Algorithm 2 line 21 and the fold of Algorithm 3 line 8.
//!
//! A level's `(target, parent)` pairs are encoded per off-rank
//! destination, cross in one [`Comm::alltoallv_wire`] and are decoded on
//! arrival — one exchange per level, bulk-synchronous as in the paper. The
//! calling rank's own bucket never reaches the codec: it is handed back
//! as it came, in the slot the transport leaves empty.

use crate::frontier_codec::{decode_pairs, LevelCodecStats};
use dmbfs_comm::{Comm, WireBuf};
use dmbfs_trace::SpanKind;
use rayon::prelude::*;

/// Per-destination `(target, parent)` pairs, indexed by rank of `comm`.
pub(crate) type PairBuckets = Vec<Vec<(u64, u64)>>;

/// Runs one level's pair exchange on `comm` and returns the received
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
    mut buckets: PairBuckets,
    encode: impl Fn(usize, &[(u64, u64)]) -> WireBuf + Sync,
) -> PairBuckets {
    let me = comm.rank();
    let own = std::mem::take(&mut buckets[me]);
    let encode_t = comm.trace_start();
    let produced: u64 = buckets.iter().map(|b| b.len() as u64).sum();
    let encode_one = |(j, pairs): (usize, &Vec<(u64, u64)>)| {
        if j == me {
            WireBuf::default()
        } else {
            encode(j, pairs)
        }
    };
    let bufs: Vec<WireBuf> = match pool {
        Some(pool) => pool.install(|| buckets.par_iter().enumerate().map(encode_one).collect()),
        None => buckets.iter().enumerate().map(encode_one).collect(),
    };
    // The own slot is empty, so it adds nothing to the tallies.
    bufs.iter().for_each(|buf| stats.note(buf));
    comm.trace_span(SpanKind::Encode, encode_t, produced);

    let wire = comm.alltoallv_wire(bufs);

    let decode_t = comm.trace_start();
    let mut recv: PairBuckets = match pool {
        Some(pool) => pool.install(|| wire.par_iter().map(|b| decode_pairs(b.bytes())).collect()),
        None => wire.iter().map(|b| decode_pairs(b.bytes())).collect(),
    };
    let decoded: u64 = recv.iter().map(|b| b.len() as u64).sum();
    comm.trace_span(SpanKind::Decode, decode_t, decoded);
    recv[me] = own;
    recv
}
