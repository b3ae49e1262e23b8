//! The one frontier-exchange path of both distributed drivers: the
//! `Alltoallv` of Algorithm 2 line 21 and the fold of Algorithm 3 line 8.
//!
//! A level's `(target, parent)` pairs come out of one [`Accumulator`] per
//! rank — the 1D adjacency scatter and the 2D local SpMSV both offer their
//! candidates to it, and it hands back one pair per target, each
//! destination's in ascending order. The pairs are encoded per off-rank
//! destination, cross in one [`Comm::alltoallv_wire`] and are decoded on
//! arrival — one exchange per level, bulk-synchronous as in the paper. The
//! calling rank's own bucket never reaches the codec: it is handed back
//! as it came, in the slot the transport leaves empty.

use crate::frontier_codec::{decode_pairs, LevelCodecStats};
use dmbfs_comm::{Comm, WireBuf};
use dmbfs_trace::SpanKind;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Per-destination `(target, parent)` pairs, indexed by rank of `comm`.
pub(crate) type PairBuckets = Vec<Vec<(u64, u64)>>;

/// The sieve (Lv et al., arXiv:1208.5542): the `best` slot of a sent target,
/// above every parent slot, so re-offers fail the scatter's plain load.
pub(crate) const SENT: u32 = u32::MAX;

/// The sort-free SelectMax accumulator (§4.2's SPA without its sort): one
/// `best` slot per target — the max parent slot offered (parent index + 1),
/// 0, or [`SENT`] — and one `touched` bit per target whose slot this level
/// lifted from 0. `Relaxed` throughout: neither publishes other data, and
/// the scatter's batch ends before the gather starts.
pub(crate) struct Accumulator {
    best: Vec<AtomicU32>,
    touched: Vec<AtomicU64>,
    /// What a gathered slot is left at: [`SENT`] when sieving, else 0.
    sent: u32,
}

impl Accumulator {
    /// An empty accumulator over `targets` slots, for parent indices below
    /// `parents`, sieving sent targets when `sieve` is set.
    pub(crate) fn new(targets: usize, parents: usize, sieve: bool) -> Self {
        assert!(parents < SENT as usize, "parent slots must stay < SENT");
        Self {
            best: (0..targets).map(|_| AtomicU32::new(0)).collect(),
            touched: (0..targets.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            sent: if sieve { SENT } else { 0 },
        }
    }

    /// Offers parent `slot` to target `v`: a plain load, and a `fetch_max`
    /// only when `slot` wins. Only the caller whose `fetch_max` lifted the
    /// slot from 0 marks it touched. Returns whether `v` was sent at an
    /// earlier level (a sieve hit).
    #[inline]
    pub(crate) fn offer(&self, v: usize, slot: u32) -> bool {
        let seen = self.best[v].load(Ordering::Relaxed);
        if seen < slot && self.best[v].fetch_max(slot, Ordering::Relaxed) == 0 {
            self.touched[v / 64].fetch_or(1 << (v % 64), Ordering::Relaxed);
        }
        seen == SENT
    }

    /// Gathers the touched targets of `range` in ascending order as
    /// `pair(v, slot)`, leaving each slot sent and its bit clear. A plain
    /// load and store per slot: each range is one task's, and the edge
    /// words of `touched` are masked.
    pub(crate) fn drain(
        &self,
        range: Range<usize>,
        pair: impl Fn(usize, u32) -> (u64, u64),
    ) -> Vec<(u64, u64)> {
        let (lo, hi) = (range.start, range.end);
        let mut pairs = Vec::new();
        let words = &self.touched[lo / 64..hi.div_ceil(64)];
        for (w, word) in (lo / 64..).zip(words) {
            let base = w * 64;
            let mask =
                (!0u64 << lo.saturating_sub(base)) & (!0u64 >> (base + 64).saturating_sub(hi));
            if word.load(Ordering::Relaxed) & mask == 0 {
                continue;
            }
            let mut bits = word.fetch_and(!mask, Ordering::Relaxed) & mask;
            while bits != 0 {
                let v = base + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = self.best[v].load(Ordering::Relaxed);
                self.best[v].store(self.sent, Ordering::Relaxed);
                pairs.push(pair(v, slot));
            }
        }
        pairs
    }

    /// One level's accumulation: `scatter` offers one frontier entry's
    /// candidates and returns its sieve hits; `gather(j)` drains destination
    /// `j`'s range. The frontier is walked back to front, so where it holds
    /// ascending runs the largest parent is offered first and most later
    /// offers stop at the load. On a `pool`, up to 64 parts scatter in
    /// parallel, each summing its hits into its own slot, then the `dests`
    /// destinations gather in parallel. Returns the hits and the buckets.
    pub(crate) fn scatter_gather<T: Sync>(
        &self,
        comm: &Comm,
        pool: Option<&rayon::ThreadPool>,
        frontier: &[T],
        dests: usize,
        scatter: impl Fn(&T) -> u64 + Sync,
        gather: impl Fn(usize) -> Vec<(u64, u64)> + Sync,
    ) -> (u64, PairBuckets) {
        let out = match pool {
            Some(pool) => {
                let batch_t = comm.trace_start();
                let (mut hits, len) = ([0u64; 64], frontier.len().div_ceil(64).max(64));
                let buckets = pool.install(|| {
                    let parts = hits.iter_mut().zip(frontier.rchunks(len)).into_par_iter();
                    parts.for_each(|(h, part)| *h = part.iter().rev().map(&scatter).sum());
                    (0..dests).into_par_iter().map(&gather).collect()
                });
                comm.trace_span(SpanKind::TaskBatch, batch_t, frontier.len() as u64);
                (hits.iter().sum(), buckets)
            }
            None => {
                let hits = frontier.iter().rev().map(&scatter).sum();
                (hits, (0..dests).map(&gather).collect())
            }
        };
        debug_assert!(self.touched.iter().all(|w| w.load(Ordering::Relaxed) == 0));
        debug_assert!(self
            .best
            .iter()
            .all(|b| [0, self.sent].contains(&b.load(Ordering::Relaxed))));
        out
    }
}

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
