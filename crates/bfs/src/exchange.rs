//! The one frontier-exchange path of both distributed drivers: the
//! `Alltoallv` of Algorithm 2 line 21 and the fold of Algorithm 3 line 8.
//!
//! A level's `(target, parent)` pairs travel as `k ≥ 1` chunks through a
//! double-buffered pipeline on [`Comm::ialltoallv_wire`]: while chunk `c`
//! is in flight, chunk `c + 1` is produced and encoded and chunk `c − 1`
//! is decoded and consumed. The blocking exchange is the `k = 1` case —
//! one start, one wait, nothing in between — not a second code path.

use crate::frontier_codec::{decode_pairs, LevelCodecStats};
use dmbfs_comm::{Comm, WireBuf};
use dmbfs_trace::SpanKind;
use rayon::prelude::*;

/// Per-destination `(target, parent)` pairs, indexed by rank of `comm`.
pub(crate) type PairBuckets = Vec<Vec<(u64, u64)>>;

/// Runs one level's pair exchange on `comm` in `k` chunks.
///
/// * `produce(c)` builds chunk `c`'s per-destination buckets (it runs
///   while chunk `c − 1` is in flight);
/// * `encode(j, pairs)` turns destination `j`'s bucket into its wire
///   buffer — destinations are independent, so under a hybrid `pool` they
///   fan out across its threads;
/// * `consume(recv)` takes each landed chunk's decoded buckets, indexed by
///   source rank.
///
/// Every rank runs exactly `k` start/wait pairs, empty chunks included, so
/// the collective schedule stays symmetric. Wire accounting for off-rank
/// buffers accumulates into `stats`; the collectives themselves stay on
/// the calling (rank main) thread — the [`Comm`] threading invariant.
pub(crate) fn exchange_pairs(
    comm: &Comm,
    pool: Option<&rayon::ThreadPool>,
    k: usize,
    stats: &mut LevelCodecStats,
    mut produce: impl FnMut(usize) -> PairBuckets,
    encode: impl Fn(usize, Vec<(u64, u64)>) -> WireBuf + Sync,
    mut consume: impl FnMut(PairBuckets),
) {
    let mut encode_chunk = |c: usize| -> Vec<WireBuf> {
        let buckets = produce(c);
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
        bufs
    };

    let mut decode_chunk = |wire: Vec<WireBuf>| {
        let decode_t = comm.trace_start();
        let recv: PairBuckets = match pool {
            Some(pool) => {
                pool.install(|| wire.par_iter().map(|b| decode_pairs(b.bytes())).collect())
            }
            None => wire.iter().map(|b| decode_pairs(b.bytes())).collect(),
        };
        let decoded: u64 = recv.iter().map(|b| b.len() as u64).sum();
        comm.trace_span(SpanKind::Decode, decode_t, decoded);
        consume(recv);
    };

    let mut pending = comm.ialltoallv_wire(encode_chunk(0));
    for c in 1..k {
        // Encode chunk c while chunk c - 1 is in flight, then rotate the
        // double buffer: collect c - 1, launch c, consume c - 1 while c
        // flies.
        let bufs = encode_chunk(c);
        let wire = pending.wait();
        pending = comm.ialltoallv_wire(bufs);
        decode_chunk(wire);
    }
    let wire = pending.wait();
    decode_chunk(wire);
}

/// Chunk `c` of `items` cut into `k` contiguous slices that cover it — the
/// whole of `items` when `k = 1`.
pub(crate) fn chunk<T>(items: &[T], k: usize, c: usize) -> &[T] {
    &items[c * items.len() / k..(c + 1) * items.len() / k]
}
