//! Structured tracing for the distributed-memory BFS stack.
//!
//! Each simulated MPI rank owns one [`TraceSink`]: a fixed-capacity ring of
//! [`SpanRecord`]s stamped against a shared monotonic epoch. Recording a span
//! on the hot path is a couple of integer stores — no allocation, no I/O, no
//! formatting; the ring is drained into a [`RankTrace`] after the run and only
//! then exported. Two export formats are provided by [`export`]:
//!
//! * Chrome trace-event JSON (`chrome://tracing` / Perfetto), one process
//!   track per rank, and
//! * a compact JSONL schema consumed by the imbalance analysis in
//!   `dmbfs-model` (per-rank × per-level wait matrices, critical-path
//!   compute/comm splits — the Fig. 4 data of Buluç & Madduri, SC 2011).
//!
//! Tracing is a strict observer. Sinks never feed back into the algorithms
//! they watch: the BFS drivers produce bit-identical parent trees with
//! tracing enabled or disabled, and a disabled sink costs one branch per
//! call site (see the overhead assertion in `crates/bfs/tests/trace_tests.rs`).

pub mod export;

pub use export::{from_jsonl, merge_sequential, to_chrome_trace, to_jsonl};

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Default ring capacity per rank: enough for tens of BFS levels with every
/// phase and collective instrumented, while bounding memory at ~3.5 MiB per
/// rank worst case.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// `level` value for spans recorded outside any BFS level (setup, teardown).
pub const NO_LEVEL: i64 = -1;

/// What a span measures. Unit variants only, so the serde stub derive
/// applies; the wire spelling is the variant identifier (`"Level"`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// One whole BFS from a single source (first barrier to last).
    Search,
    /// One frontier expansion level in either distributed driver.
    Level,
    /// 1D: bucket the current frontier's neighbors by owner rank.
    Pack,
    /// A typed (un-encoded) frontier exchange. No driver emits it; the
    /// variant stays because the benchmark harness names it.
    Exchange,
    /// Codec encode half (sort/dedup/sieve/compress) before the wire call.
    Encode,
    /// Codec decode half after the wire call.
    Decode,
    /// 1D: fold received `(target, parent)` pairs into the local state.
    Unpack,
    /// 2D: redistribute the frontier from row to column layout.
    Transpose,
    /// 2D: allgatherv of frontier fringes along the processor column.
    ExpandPhase,
    /// 2D: local sparse matrix × sparse vector over the (select, max) semiring.
    SpMSV,
    /// 2D: alltoallv of candidate parents along the processor row.
    FoldPhase,
    /// 2D: merge fold output into the owned parent/visited state.
    Mask,
    /// One collective call on a communicator (emitted by `dmbfs-comm`).
    Collective,
    /// Start half of a wire exchange (`ialltoallv_wire`, and the blocking
    /// `alltoallv_wire` the BFS drivers call, which is the same start/wait
    /// pair): the time spent depositing outbound buffers. The matching wait
    /// half is [`SpanKind::ExchangeWait`].
    ExchangeStart,
    /// Wait half of a nonblocking exchange: the exposed time blocked in
    /// `PendingExchange::wait()` collecting peers' buffers.
    ExchangeWait,
    /// One batch of parts handed to the rank's pool.
    TaskBatch,
    /// The per-level direction decision, emitted once per level by the 1D
    /// driver (pinned top-down / bottom-up runs included). `detail` is the
    /// `LevelDirection` tag (0 = top-down, 1 = bottom-up).
    Direction,
    /// Direction-optimizing BFS: encode the local frontier slice as a
    /// bitmap and allgather it into the global frontier bitmap.
    BitmapBroadcast,
    /// Direction-optimizing BFS: the owner-side bottom-up scan — every
    /// locally-owned unvisited vertex probes its in-neighbors against the
    /// allgathered frontier bitmap. `detail` is edges examined.
    BottomUpScan,
}

impl SpanKind {
    /// Stable lowercase display name, used for Chrome-trace event names.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Search => "search",
            SpanKind::Level => "level",
            SpanKind::Pack => "pack",
            SpanKind::Exchange => "exchange",
            SpanKind::Encode => "encode",
            SpanKind::Decode => "decode",
            SpanKind::Unpack => "unpack",
            SpanKind::Transpose => "transpose",
            SpanKind::ExpandPhase => "expand",
            SpanKind::SpMSV => "spmsv",
            SpanKind::FoldPhase => "fold",
            SpanKind::Mask => "mask",
            SpanKind::Collective => "collective",
            SpanKind::ExchangeStart => "exchange_start",
            SpanKind::ExchangeWait => "exchange_wait",
            SpanKind::TaskBatch => "task_batch",
            SpanKind::Direction => "direction",
            SpanKind::BitmapBroadcast => "bitmap_broadcast",
            SpanKind::BottomUpScan => "bottom_up_scan",
        }
    }

    /// Chrome-trace category, used for filtering in the viewer.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Search | SpanKind::Level | SpanKind::Direction => "bfs",
            SpanKind::Collective | SpanKind::ExchangeStart | SpanKind::ExchangeWait => "comm",
            SpanKind::TaskBatch => "pool",
            _ => "phase",
        }
    }
}

/// Which collective a span wraps — also the pattern of every
/// `dmbfs_comm::CommEvent`, which picks the α–β model's bandwidth term.
/// `dmbfs-trace` is a leaf crate so every layer (comm included) can use it.
/// `Broadcast` is the second round of a communicator split.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollectiveTag {
    /// Not a collective span.
    None,
    Alltoallv,
    Allgatherv,
    Allreduce,
    Broadcast,
    PointToPoint,
    Barrier,
}

impl CollectiveTag {
    /// Stable lowercase display name.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveTag::None => "none",
            CollectiveTag::Alltoallv => "alltoallv",
            CollectiveTag::Allgatherv => "allgatherv",
            CollectiveTag::Allreduce => "allreduce",
            CollectiveTag::Broadcast => "broadcast",
            CollectiveTag::PointToPoint => "point_to_point",
            CollectiveTag::Barrier => "barrier",
        }
    }
}

/// One closed span. `Copy` and fixed-size so the ring buffer is a flat
/// `Vec<SpanRecord>` with no per-record allocation.
///
/// Timestamps are nanoseconds since the run's shared epoch (the `Instant`
/// captured on the launching thread before the ranks spawn), so spans from
/// different ranks share a zero and can be laid on one timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// What this span measures.
    pub kind: SpanKind,
    /// Collective pattern, or `None` for non-collective spans.
    pub pattern: CollectiveTag,
    /// Start, nanoseconds since the shared epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the shared epoch.
    pub end_ns: u64,
    /// BFS level the span belongs to, or [`NO_LEVEL`] outside any level.
    pub level: i64,
    /// Kind-specific payload: frontier size for levels/phases, group size
    /// for collectives, source vertex for searches, item count for batches.
    pub detail: u64,
    /// Logical payload bytes (collective spans; 0 elsewhere).
    pub bytes: u64,
    /// Post-codec wire bytes (collective spans; 0 elsewhere).
    pub wire: u64,
    /// Wire bytes that moved as zero-copy loans: equal to `wire` on wire
    /// collective spans, 0 on plain typed collectives (whose elements are
    /// cloned out of the board) and elsewhere — see `docs/zero-copy.md`.
    pub loaned: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The drained trace of one rank: spans oldest-first, plus how many were
/// overwritten when the ring filled.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RankTrace {
    /// Rank that recorded these spans.
    pub rank: usize,
    /// Spans in recording order (oldest first).
    pub spans: Vec<SpanRecord>,
    /// Spans overwritten because the ring was full.
    pub dropped: u64,
}

impl RankTrace {
    /// Latest `end_ns` across all spans; 0 when empty.
    pub fn end_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0)
    }

    /// Shift every timestamp forward, for laying runs end to end.
    pub fn shift(&mut self, offset_ns: u64) {
        for s in &mut self.spans {
            s.start_ns += offset_ns;
            s.end_ns += offset_ns;
        }
    }
}

/// Per-rank span recorder. Constructed disabled ([`TraceSink::disabled`]) or
/// enabled against a shared epoch ([`TraceSink::new`]); every recording call
/// on a disabled sink is a single branch.
#[derive(Debug, Default)]
pub struct TraceSink {
    active: Option<Active>,
}

#[derive(Debug)]
struct Active {
    rank: usize,
    epoch: Instant,
    ring: Vec<SpanRecord>,
    /// Overwrite cursor once `ring` has reached `capacity`.
    next: usize,
    capacity: usize,
    dropped: u64,
    level: i64,
}

impl TraceSink {
    /// A sink that records nothing and reports `now_ns() == 0`.
    pub fn disabled() -> Self {
        TraceSink { active: None }
    }

    /// An enabled sink with the default ring capacity.
    pub fn new(rank: usize, epoch: Instant) -> Self {
        Self::with_capacity(rank, epoch, DEFAULT_CAPACITY)
    }

    /// An enabled sink holding at most `capacity` spans; older spans are
    /// overwritten (and counted in `dropped`) once the ring fills.
    pub fn with_capacity(rank: usize, epoch: Instant, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceSink {
            active: Some(Active {
                rank,
                epoch,
                ring: Vec::with_capacity(capacity.min(DEFAULT_CAPACITY)),
                next: 0,
                capacity,
                dropped: 0,
                level: NO_LEVEL,
            }),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.active.is_some()
    }

    /// Nanoseconds since the shared epoch, or 0 when disabled. Saturates at
    /// 0 for instants taken before the epoch.
    pub fn now_ns(&self) -> u64 {
        match &self.active {
            Some(a) => a.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Nanoseconds from the shared epoch to `t` (saturating at 0).
    pub fn ns_of(&self, t: Instant) -> u64 {
        match &self.active {
            Some(a) => t.saturating_duration_since(a.epoch).as_nanos() as u64,
            None => 0,
        }
    }

    /// Tag subsequent spans with this BFS level ([`NO_LEVEL`] to clear).
    pub fn set_level(&mut self, level: i64) {
        if let Some(a) = &mut self.active {
            a.level = level;
        }
    }

    /// The level subsequent spans will be tagged with.
    pub fn level(&self) -> i64 {
        self.active.as_ref().map(|a| a.level).unwrap_or(NO_LEVEL)
    }

    /// Close a span that started at `start_ns` (from [`TraceSink::now_ns`])
    /// and ends now. No-op when disabled.
    pub fn span(&mut self, kind: SpanKind, start_ns: u64, detail: u64) {
        if self.active.is_some() {
            let end_ns = self.now_ns();
            self.push_record(SpanRecord {
                kind,
                pattern: CollectiveTag::None,
                start_ns,
                end_ns,
                level: NO_LEVEL,
                detail,
                bytes: 0,
                wire: 0,
                loaned: 0,
            });
        }
    }

    /// Close a collective span covering `start..now`, carrying the pattern,
    /// communicator group size, logical/wire byte counts, and the loaned
    /// (zero-copy) share of the wire bytes. No-op when disabled.
    pub fn collective(
        &mut self,
        pattern: CollectiveTag,
        start: Instant,
        group_size: u64,
        bytes: u64,
        wire: u64,
        loaned: u64,
    ) {
        if self.active.is_some() {
            let start_ns = self.ns_of(start);
            let end_ns = self.now_ns();
            self.push_record(SpanRecord {
                kind: SpanKind::Collective,
                pattern,
                start_ns,
                end_ns,
                level: NO_LEVEL,
                detail: group_size,
                bytes,
                wire,
                loaned,
            });
        }
    }

    /// Close one half of a nonblocking exchange ([`SpanKind::ExchangeStart`]
    /// or [`SpanKind::ExchangeWait`]) covering `start..now`, carrying the
    /// pattern and logical/wire/loaned byte counts like a collective span.
    /// No-op when disabled.
    #[allow(clippy::too_many_arguments)] // the list mirrors SpanRecord's fields one-to-one
    pub fn exchange(
        &mut self,
        kind: SpanKind,
        pattern: CollectiveTag,
        start: Instant,
        group_size: u64,
        bytes: u64,
        wire: u64,
        loaned: u64,
    ) {
        if self.active.is_some() {
            let start_ns = self.ns_of(start);
            let end_ns = self.now_ns();
            self.push_record(SpanRecord {
                kind,
                pattern,
                start_ns,
                end_ns,
                level: NO_LEVEL,
                detail: group_size,
                bytes,
                wire,
                loaned,
            });
        }
    }

    /// Insert a record, stamping it with the current level. The ring
    /// overwrites oldest-first once full.
    fn push_record(&mut self, mut rec: SpanRecord) {
        let Some(a) = &mut self.active else { return };
        rec.level = a.level;
        if a.ring.len() < a.capacity {
            a.ring.push(rec);
        } else {
            a.ring[a.next] = rec;
            a.next = (a.next + 1) % a.capacity;
            a.dropped += 1;
        }
    }

    /// Discard everything recorded so far (setup noise), keeping the sink
    /// enabled. Mirrors `Comm::take_stats()` used to exclude setup events.
    pub fn clear(&mut self) {
        if let Some(a) = &mut self.active {
            a.ring.clear();
            a.next = 0;
            a.dropped = 0;
        }
    }

    /// Drain the ring into a [`RankTrace`] (spans oldest-first), leaving the
    /// sink enabled but empty. A disabled sink drains to an empty trace.
    pub fn drain(&mut self) -> RankTrace {
        match &mut self.active {
            Some(a) => {
                let mut spans = Vec::with_capacity(a.ring.len());
                // Once wrapped, `next` points at the oldest surviving span.
                if a.ring.len() == a.capacity && a.next > 0 {
                    spans.extend_from_slice(&a.ring[a.next..]);
                    spans.extend_from_slice(&a.ring[..a.next]);
                } else {
                    spans.extend_from_slice(&a.ring);
                }
                let trace = RankTrace {
                    rank: a.rank,
                    spans,
                    dropped: a.dropped,
                };
                a.ring.clear();
                a.next = 0;
                a.dropped = 0;
                trace
            }
            None => RankTrace::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: SpanKind, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            kind,
            pattern: CollectiveTag::None,
            start_ns,
            end_ns,
            level: 0,
            detail: 0,
            bytes: 0,
            wire: 0,
            loaned: 0,
        }
    }

    #[test]
    fn disabled_sink_is_inert() {
        let mut sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        assert_eq!(sink.now_ns(), 0);
        sink.span(SpanKind::Level, 0, 7);
        sink.collective(CollectiveTag::Barrier, Instant::now(), 4, 0, 0, 0);
        let t = sink.drain();
        assert!(t.spans.is_empty());
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn spans_record_level_and_detail() {
        let mut sink = TraceSink::new(3, Instant::now());
        sink.set_level(2);
        let t0 = sink.now_ns();
        sink.span(SpanKind::Pack, t0, 41);
        let t = sink.drain();
        assert_eq!(t.rank, 3);
        assert_eq!(t.spans.len(), 1);
        let s = t.spans[0];
        assert_eq!(s.kind, SpanKind::Pack);
        assert_eq!(s.level, 2);
        assert_eq!(s.detail, 41);
        assert!(s.end_ns >= s.start_ns);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut sink = TraceSink::with_capacity(0, Instant::now(), 4);
        for i in 0..6u64 {
            sink.push_record(rec(SpanKind::Level, i, i + 1));
        }
        let t = sink.drain();
        assert_eq!(t.dropped, 2);
        let starts: Vec<u64> = t.spans.iter().map(|s| s.start_ns).collect();
        assert_eq!(
            starts,
            vec![2, 3, 4, 5],
            "oldest two overwritten, order kept"
        );
    }

    #[test]
    fn drain_resets_and_clear_drops_setup() {
        let mut sink = TraceSink::with_capacity(0, Instant::now(), 8);
        sink.span(SpanKind::Collective, 0, 0);
        sink.clear();
        sink.span(SpanKind::Level, 0, 1);
        let t = sink.drain();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].kind, SpanKind::Level);
        assert!(sink.drain().spans.is_empty());
    }

    #[test]
    fn collective_span_carries_bytes_and_saturates_before_epoch() {
        let before = Instant::now();
        let mut sink = TraceSink::new(1, Instant::now());
        sink.collective(CollectiveTag::Alltoallv, before, 16, 1000, 250, 200);
        let s = sink.drain().spans[0];
        assert_eq!(s.kind, SpanKind::Collective);
        assert_eq!(s.pattern, CollectiveTag::Alltoallv);
        assert_eq!(s.start_ns, 0, "pre-epoch instants clamp to 0");
        assert_eq!((s.detail, s.bytes, s.wire, s.loaned), (16, 1000, 250, 200));
    }

    #[test]
    fn exchange_spans_carry_kind_pattern_and_bytes() {
        let mut sink = TraceSink::new(2, Instant::now());
        sink.set_level(4);
        let t0 = Instant::now();
        sink.exchange(
            SpanKind::ExchangeStart,
            CollectiveTag::Alltoallv,
            t0,
            8,
            640,
            80,
            64,
        );
        sink.exchange(
            SpanKind::ExchangeWait,
            CollectiveTag::Alltoallv,
            t0,
            8,
            0,
            0,
            0,
        );
        let t = sink.drain();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].kind, SpanKind::ExchangeStart);
        assert_eq!(t.spans[1].kind, SpanKind::ExchangeWait);
        for s in &t.spans {
            assert_eq!(s.pattern, CollectiveTag::Alltoallv);
            assert_eq!(s.level, 4);
            assert_eq!(s.detail, 8);
        }
        assert_eq!(
            (t.spans[0].bytes, t.spans[0].wire, t.spans[0].loaned),
            (640, 80, 64)
        );
    }

    #[test]
    fn span_record_serde_round_trip() {
        let s = SpanRecord {
            kind: SpanKind::Collective,
            pattern: CollectiveTag::Allgatherv,
            start_ns: 12,
            end_ns: 900,
            level: 5,
            detail: 8,
            bytes: 4096,
            wire: 512,
            loaned: 448,
        };
        let back = SpanRecord::from_content(&s.to_content()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn rank_trace_shift_and_end() {
        let mut t = RankTrace {
            rank: 0,
            spans: vec![rec(SpanKind::Level, 10, 20), rec(SpanKind::Level, 30, 45)],
            dropped: 0,
        };
        assert_eq!(t.end_ns(), 45);
        t.shift(100);
        assert_eq!(t.spans[0].start_ns, 110);
        assert_eq!(t.end_ns(), 145);
    }
}
