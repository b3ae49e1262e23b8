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
use rayon::ThreadPool;
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
}

impl Accumulator {
    /// An empty accumulator over `targets` slots, for parent indices below
    /// `parents`.
    pub(crate) fn new(targets: usize, parents: usize) -> Self {
        assert!(parents < SENT as usize, "parent slots must stay < SENT");
        Self {
            best: (0..targets).map(|_| AtomicU32::new(0)).collect(),
            touched: (0..targets.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
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
                self.best[v].store(SENT, Ordering::Relaxed);
                pairs.push(pair(v, slot));
            }
        }
        pairs
    }

    /// One level's accumulation: `scatter` offers one frontier entry's
    /// candidates and returns its sieve hits; `gather(j)` drains destination
    /// `j`'s range. The frontier is walked back to front, so where it holds
    /// ascending runs the largest parent is offered first and most later
    /// offers stop at the load. The scatter runs in [`part_count`] parts of
    /// at least 64 entries, then the `dests` destinations gather, each as
    /// one [`run_parts`] batch. Returns the hits and the buckets.
    pub(crate) fn scatter_gather<T: Sync>(
        &self,
        comm: &Comm,
        pool: &ThreadPool,
        frontier: &[T],
        dests: usize,
        scatter: impl Fn(&T) -> u64 + Sync,
        gather: impl Fn(usize) -> Vec<(u64, u64)> + Sync,
    ) -> (u64, PairBuckets) {
        let hits = AtomicU64::new(0);
        let len = frontier.len().div_ceil(part_count(pool)).max(64);
        let scatter_part = |part: &[T]| {
            let part_hits = part.iter().rev().map(&scatter).sum();
            hits.fetch_add(part_hits, Ordering::Relaxed);
        };
        let parts = frontier.rchunks(len);
        let () = run_parts(comm, pool, frontier.len() as u64, parts, scatter_part);
        let buckets = run_parts(comm, pool, dests as u64, 0..dests, gather);
        debug_assert!(self.touched.iter().all(|w| w.load(Ordering::Relaxed) == 0));
        debug_assert!(self
            .best
            .iter()
            .all(|b| [0, SENT].contains(&b.load(Ordering::Relaxed))));
        (hits.into_inner(), buckets)
    }
}

/// How many parts a rank splits a kernel's work into: one on a one-lane
/// pool (a flat rank), four per lane on a wider one, so that lanes that
/// finish early claim more parts and uneven parts even out.
pub(crate) fn part_count(pool: &ThreadPool) -> usize {
    let lanes = pool.current_num_threads();
    if lanes == 1 {
        1
    } else {
        4 * lanes
    }
}

/// The one executor of rank-local parallel work: runs `part` on each of
/// `parts` and collects the results in part order. A one-lane pool runs
/// them inline, with no `install` and no span. A wider pool runs them as
/// one `install`, recorded as one [`SpanKind::TaskBatch`] span whose
/// detail is `detail`; it nests in the phase span of the caller.
pub(crate) fn run_parts<P: Send, R: Send, C: FromIterator<R>>(
    comm: &Comm,
    pool: &ThreadPool,
    detail: u64,
    parts: impl IntoIterator<Item = P>,
    part: impl Fn(P) -> R + Sync,
) -> C {
    if pool.current_num_threads() == 1 {
        return parts.into_iter().map(part).collect();
    }
    let batch_t = comm.trace_start();
    let out = pool.install(|| parts.into_par_iter().map(&part).collect());
    comm.trace_span(SpanKind::TaskBatch, batch_t, detail);
    out
}

/// Runs one level's pair exchange on `comm` and returns the received
/// buckets, indexed by source rank.
///
/// `encode(j, pairs)` turns destination `j`'s bucket into its wire buffer.
/// Destinations are independent, so they encode, and arrivals decode, as
/// one [`run_parts`] batch each. Wire accounting for off-rank buffers
/// accumulates into `stats`; the collective itself stays on the calling
/// (rank main) thread — the [`Comm`] threading invariant.
pub(crate) fn exchange_pairs(
    comm: &Comm,
    pool: &ThreadPool,
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
    let bufs: Vec<WireBuf> =
        run_parts(comm, pool, produced, buckets.iter().enumerate(), encode_one);
    // The own slot is empty, so it adds nothing to the tallies.
    bufs.iter().for_each(|buf| stats.note(buf));
    comm.trace_span(SpanKind::Encode, encode_t, produced);

    let wire = comm.alltoallv_wire(bufs);

    let decode_t = comm.trace_start();
    let mut recv: PairBuckets = run_parts(comm, pool, wire.len() as u64, &wire, |b| {
        decode_pairs(b.bytes())
    });
    let decoded: u64 = recv.iter().map(|b| b.len() as u64).sum();
    comm.trace_span(SpanKind::Decode, decode_t, decoded);
    recv[me] = own;
    recv
}
