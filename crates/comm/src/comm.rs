//! Communicator handles and typed collectives.

use crate::exchange::{ExchangeBoard, Poison};
use crate::fault::{corrupt_site, fnv1a64, FaultInjector, FaultPlan};
use crate::stats::{CommEvent, CommStats, LevelTiming, Pattern};
use crate::verify::{CollectiveKind, FailureKind, Fingerprint};
use dmbfs_trace::{CollectiveTag, RankTrace, SpanKind, TraceSink};
use parking_lot::Mutex;
use std::any::{type_name, TypeId};
use std::cell::{Cell, RefCell};
use std::panic::Location;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// An encoded payload travelling through a wire-aware collective: the
/// encoded bytes plus the logical (pre-encoding) size they stand for, so
/// accounting can report both sides of the compression ratio.
///
/// The bytes live behind an `Arc` from [`WireBuf::new`] on, so crossing
/// the rendezvous board never copies them: receivers clone a refcount and
/// decode straight from the sender's allocation, which is released when
/// the last reference drops — possibly *after* the board's ring retires
/// the slot; the refcount keeps the epoch-scoped retirement safe. A shared
/// buffer is immutable — [`WireBuf::bytes_mut`] panics on it — so checksums
/// and fault corruption always mutate *before* the deposit. See
/// `docs/zero-copy.md`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireBuf {
    /// The encoded bytes as produced by a frontier codec.
    bytes: Arc<Vec<u8>>,
    /// Size in bytes of the logical payload the encoding represents.
    pub logical_bytes: u64,
}

impl WireBuf {
    /// Wraps already-encoded bytes with their logical size.
    pub fn new(bytes: Vec<u8>, logical_bytes: u64) -> Self {
        Self {
            bytes: Arc::new(bytes),
            logical_bytes,
        }
    }

    /// Read access to the encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access to the encoded bytes. Panics once the buffer is
    /// shared (a clone is alive, e.g. the copy deposited on the board):
    /// other ranks may be decoding from the same allocation, so mutating
    /// it would race them — the refcount is the runtime enforcement of
    /// "senders must not mutate after deposit".
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        Arc::get_mut(&mut self.bytes).expect(
            "WireBuf is shared: the payload was deposited on the rendezvous board \
             (or cloned) and may be referenced by other ranks; mutate before the \
             deposit (checksum -> corrupt -> deposit)",
        )
    }

    /// Encoded (on-the-wire) length in bytes.
    pub fn wire_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }
}

/// What one rank deposits for one wire all-to-all: its outbound buffer per
/// destination (own bucket taken out), plus per-destination pre-corruption
/// checksums when a fault plan is armed.
type ExchangePayload = (Vec<WireBuf>, Option<Vec<u64>>);

/// Clones every rank's contribution out of its shared `Arc`.
fn cloned<T: Clone>(all: &[Arc<T>]) -> Vec<T> {
    all.iter().map(|v| T::clone(v)).collect()
}

/// One rank's handle to a communicator — the analogue of an
/// `(MPI_Comm, rank)` pair. Handles are created by [`crate::World::run`]
/// (the world communicator) and [`Comm::split`] (sub-communicators); each
/// handle belongs to exactly one thread.
///
/// All collectives but [`Comm::ialltoallv_wire`] are **blocking** and must
/// be called by every rank of the communicator in the same order with
/// compatible arguments, exactly as in MPI. Payload types need
/// `Clone + Send + Sync + 'static`.
///
/// # Threading invariant (hybrid MPI + threads)
///
/// When a rank is internally multi-threaded (`threads_per_rank > 1`, the
/// paper's hybrid mode), **only the rank's main thread — the thread the
/// rank closure started on — may call collectives**. This mirrors
/// `MPI_THREAD_FUNNELED`: worker threads compute, the main thread
/// communicates. Two guards enforce it:
///
/// * compile time: `Comm` is `!Sync` (it holds a `RefCell`), so a handle
///   cannot be shared with pool workers by reference;
/// * run time: every collective asserts it is running on the thread that
///   created the handle, catching handles smuggled across threads by
///   move (`Comm` is `Send`) — the epoch counter and the rank's lane on
///   the rendezvous board assume one caller per rank, and a second thread
///   entering a collective would corrupt the rendezvous.
pub struct Comm {
    /// The communicator's one rendezvous board (see the `exchange` module),
    /// shared by every rank of the communicator.
    board: Arc<ExchangeBoard>,
    rank: usize,
    stats: RefCell<CommStats>,
    /// Optional span recorder shared with sub-communicators split off this
    /// handle, so row/column collectives land in the same per-rank trace.
    /// `Arc<Mutex<..>>` rather than `Rc<RefCell<..>>` only to keep `Comm:
    /// Send`; the lock is uncontended — every handle sharing it belongs to
    /// the same rank thread.
    tracer: RefCell<Option<Arc<Mutex<TraceSink>>>>,
    /// Armed fault injector, shared with sub-communicators split off this
    /// handle (same sharing rationale as `tracer`). `None` — one borrow
    /// and one branch per collective — unless [`Comm::arm_faults`] armed a
    /// non-empty plan.
    fault: RefCell<Option<Arc<FaultInjector>>>,
    /// Optional collective-schedule recorder shared with sub-communicators
    /// split off this handle: the ordered fingerprint names this rank's
    /// collectives produce, harvested by the static-checker conformance
    /// test (same sharing rationale as `tracer`). `None` — one borrow per
    /// collective — unless [`Comm::capture_schedule`] armed it.
    sched_log: RefCell<Option<Arc<Mutex<Vec<&'static str>>>>>,
    /// Thread that created the handle; collectives must run on it.
    owner: ThreadId,
    /// Fingerprint of the collective in progress, recorded by
    /// [`Comm::enter`] at the public call site and stamped with the epoch
    /// by [`Comm::publish`], which deposits it beside the payload.
    site: Cell<Option<Fingerprint>>,
    /// True between [`Comm::ialltoallv_wire`] and the matching
    /// [`PendingExchange::wait`]. While set, no other collective may run
    /// on this handle: the depth-2 ring's proof assumes one operation in
    /// flight per communicator, and a collective interleaved between a
    /// start and its wait would let a rank deposit two epochs ahead of a
    /// peer that has not collected the start yet.
    pending_exchange: Cell<bool>,
    /// This rank's collective counter on this communicator: the epoch of
    /// the next deposit, indexing the depth-2 ring. Typed and wire
    /// collectives share it, and it advances identically on every rank
    /// because every operation on a communicator is collective.
    epoch: Cell<u64>,
}

/// The trace-side name of a collective pattern. `dmbfs-trace` is a leaf
/// crate, so the mapping lives here rather than there.
fn collective_tag(pattern: Pattern) -> CollectiveTag {
    match pattern {
        Pattern::Alltoallv => CollectiveTag::Alltoallv,
        Pattern::Allgatherv => CollectiveTag::Allgatherv,
        Pattern::Allreduce => CollectiveTag::Allreduce,
        Pattern::Broadcast => CollectiveTag::Broadcast,
        Pattern::Gather => CollectiveTag::Gather,
        Pattern::PointToPoint => CollectiveTag::PointToPoint,
        Pattern::Barrier => CollectiveTag::Barrier,
    }
}

impl Comm {
    pub(crate) fn new(board: Arc<ExchangeBoard>, rank: usize) -> Self {
        Self {
            board,
            rank,
            stats: RefCell::new(CommStats::default()),
            tracer: RefCell::new(None),
            fault: RefCell::new(None),
            sched_log: RefCell::new(None),
            owner: std::thread::current().id(),
            site: Cell::new(None),
            pending_exchange: Cell::new(false),
            epoch: Cell::new(0),
        }
    }

    /// Arms a deterministic fault plan on this rank: subsequent
    /// collectives on this handle — and on sub-communicators split off it —
    /// consult the injector (see the `fault` module). The rank recorded in
    /// injected payloads is this handle's rank, so arm the **world**
    /// communicator before splitting (`dmbfs_runtime::run_ranks` does).
    /// An empty plan is never armed and the per-collective hook stays one
    /// `Option` check.
    pub fn arm_faults(&self, plan: FaultPlan) {
        if plan.is_empty() {
            return;
        }
        *self.fault.borrow_mut() = Some(FaultInjector::new(plan, self.rank));
    }

    /// Whether a fault plan is armed on this handle.
    pub fn faults_armed(&self) -> bool {
        self.fault.borrow().is_some()
    }

    /// Arms collective-schedule capture on this handle: every subsequent
    /// collective — including on sub-communicators split off it — appends
    /// its fingerprint name (see [`CollectiveKind::name`]) to an ordered
    /// per-rank log. The static checker's conformance test diffs this
    /// against the predicted schedule. A strict observer, like tracing:
    /// payloads and results are untouched.
    pub fn capture_schedule(&self) {
        *self.sched_log.borrow_mut() = Some(Arc::new(Mutex::new(Vec::new())));
    }

    /// Discards everything captured so far (keeps capturing). Mirrors the
    /// static checker's `// schedule: reset` window marker.
    pub fn schedule_clear(&self) {
        if let Some(log) = self.sched_log.borrow().as_ref() {
            log.lock().clear();
        }
    }

    /// The captured fingerprint-name sequence, empty when capture was
    /// never armed.
    pub fn take_schedule(&self) -> Vec<&'static str> {
        self.sched_log
            .borrow()
            .as_ref()
            .map(|log| std::mem::take(&mut *log.lock()))
            .unwrap_or_default()
    }

    /// The corruption half of the fault hook: called by the wire
    /// collectives with `has_payload` = "some non-empty outbound buffer is
    /// destined to another rank". Returns the seed when an armed corrupt
    /// fault fires here.
    fn corruption_seed(&self, kind: CollectiveKind, has_payload: bool) -> Option<u64> {
        self.fault
            .borrow()
            .as_ref()
            .and_then(|inj| inj.corrupt_seed(kind, has_payload))
    }

    /// Checksum of one outbound wire payload, travelling in the payload —
    /// taken iff a fault plan is armed (the injector is the only source of
    /// corruption: a shared [`WireBuf`] is immutable), and *before* any
    /// corrupt fault flips a byte, which the receiver's check must catch.
    fn wire_checksum(&self, bytes: &[u8]) -> Option<u64> {
        self.faults_armed().then(|| fnv1a64(bytes))
    }

    /// Receiver-side end-to-end check of one wire payload read from local
    /// rank `source` in the collective just published. Raises a structured
    /// [`crate::VerifyFailure`] (kind `Corruption`, naming the source's
    /// world rank) when the bytes do not match the sender's checksum.
    fn check_wire(&self, bytes: &[u8], sum: Option<u64>, source: usize) {
        if sum.is_some_and(|sum| fnv1a64(bytes) != sum) {
            let epoch = self.epoch.get() - 1;
            self.board
                .fail(FailureKind::Corruption, epoch, self.rank, Some(source));
        }
    }

    /// Asserts the threading invariant documented on [`Comm`]: the
    /// calling thread must be the one that created this handle.
    fn assert_owner(&self) {
        assert_eq!(
            std::thread::current().id(),
            self.owner,
            "Comm collectives must be called from the rank's main thread \
             (the thread that created the handle); pool worker threads \
             must not communicate — see the threading invariant on Comm"
        );
    }

    /// Asserts no nonblocking exchange is in flight on this handle. Every
    /// collective passes through here (via [`Comm::publish`]): "one
    /// operation in flight per communicator" is the premise of the depth-2
    /// ring's no-blocked-deposit proof (see the `exchange` module).
    fn assert_no_inflight(&self) {
        assert!(
            !self.pending_exchange.get(),
            "a nonblocking exchange is in flight on this communicator: \
             call PendingExchange::wait() before issuing another collective"
        );
    }

    /// A standalone single-rank communicator: lets distributed code run
    /// unmodified in a serial context (tests, examples).
    pub fn single() -> Self {
        let board = ExchangeBoard::new(1, Arc::new(Poison::default()), None);
        Self::new(Arc::new(board), 0)
    }

    /// This rank's id in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.board.size()
    }

    /// Snapshot of the statistics recorded so far.
    pub fn stats(&self) -> CommStats {
        self.stats.borrow().clone()
    }

    /// Drains and returns the recorded statistics.
    pub fn take_stats(&self) -> CommStats {
        std::mem::take(&mut self.stats.borrow_mut())
    }

    /// Total wall time recorded inside this handle's collectives so far.
    /// Level loops sample this before and after a level to split the
    /// level's elapsed time into compute and communication components.
    pub fn comm_wall(&self) -> Duration {
        self.stats.borrow().wall()
    }

    /// Appends a per-level compute/comm timing record (see
    /// [`LevelTiming`]); retrieved later via [`Comm::stats`].
    pub fn push_level_timing(&self, timing: LevelTiming) {
        self.stats.borrow_mut().level_timings.push(timing);
    }

    /// Attach a span recorder to this handle. Sub-communicators created by
    /// [`Comm::split`] *after* this call share the sink, so their collective
    /// spans interleave into the same per-rank timeline.
    pub fn set_tracer(&self, sink: TraceSink) {
        *self.tracer.borrow_mut() = Some(Arc::new(Mutex::new(sink)));
    }

    /// Whether a tracer is attached (spans are being recorded).
    pub fn trace_enabled(&self) -> bool {
        self.tracer.borrow().is_some()
    }

    /// Timestamp (ns since the trace epoch) opening a span, or 0 when no
    /// tracer is attached. The disabled path is one borrow and one branch —
    /// cheap enough for the BFS hot loop (asserted by the overhead test in
    /// `dmbfs-bfs`).
    pub fn trace_start(&self) -> u64 {
        match self.tracer.borrow().as_ref() {
            Some(t) => t.lock().now_ns(),
            None => 0,
        }
    }

    /// Close a span opened by [`Comm::trace_start`]. No-op when untraced.
    pub fn trace_span(&self, kind: SpanKind, start_ns: u64, detail: u64) {
        if let Some(t) = self.tracer.borrow().as_ref() {
            t.lock().span(kind, start_ns, detail);
        }
    }

    /// Tag subsequent spans — including collective spans from shared
    /// sub-communicators — with this BFS level. An armed fault injector
    /// reads the same level stream, which is what makes `level`-triggered
    /// faults line up with the trace timeline.
    pub fn trace_enter_level(&self, level: i64) {
        if let Some(t) = self.tracer.borrow().as_ref() {
            t.lock().set_level(level);
        }
        if let Some(inj) = self.fault.borrow().as_ref() {
            inj.set_level(level);
        }
    }

    /// Discard spans recorded so far (setup noise), keeping the tracer
    /// attached. The trace analogue of dropping `take_stats()` output.
    pub fn trace_clear(&self) {
        if let Some(t) = self.tracer.borrow().as_ref() {
            t.lock().clear();
        }
    }

    /// Detach the tracer and drain its spans; `None` if never attached.
    pub fn take_trace(&self) -> Option<RankTrace> {
        self.tracer.borrow_mut().take().map(|t| t.lock().drain())
    }

    /// Appends one [`CommEvent`]. `loaned_out` is `wire_out` for the wire
    /// collectives — every [`WireBuf`] crosses the board as a shared loan —
    /// and 0 for the plain ones; nothing is ledgered as copied.
    fn push_event(
        &self,
        pattern: Pattern,
        [bytes_out, bytes_in]: [u64; 2],
        [wire_out, wire_in]: [u64; 2],
        loaned_out: u64,
        wall: Duration,
    ) {
        self.stats.borrow_mut().events.push(CommEvent {
            pattern,
            group_size: self.size(),
            bytes_out,
            bytes_in,
            wire_out,
            wire_in,
            wall,
            loaned_out,
            copied_out: 0,
        });
    }

    /// Records one finished blocking collective, timed from `start`: its
    /// [`CommEvent`] and, when traced, its span (pattern, group size,
    /// logical, wire and loaned bytes on the send side).
    fn record_wire(
        &self,
        pattern: Pattern,
        bytes: [u64; 2],
        wire: [u64; 2],
        loaned_out: u64,
        start: Instant,
    ) {
        self.push_event(pattern, bytes, wire, loaned_out, start.elapsed());
        if let Some(t) = self.tracer.borrow().as_ref() {
            let (tag, p) = (collective_tag(pattern), self.size() as u64);
            t.lock()
                .collective(tag, start, p, bytes[0], wire[0], loaned_out);
        }
    }

    /// [`Comm::record_wire`] for the plain collectives, which put their
    /// logical payload on the wire verbatim (cloned out of the board, so
    /// nothing is ledgered as loaned).
    fn record(&self, pattern: Pattern, bytes_out: u64, bytes_in: u64, start: Instant) {
        let bytes = [bytes_out, bytes_in];
        self.record_wire(pattern, bytes, bytes, 0, start);
    }

    /// Top of every collective: the fault hook, schedule capture and the
    /// call-site fingerprint (all against the caller's `#[track_caller]`
    /// location), then the clock the recorded [`CommEvent`] is timed from.
    #[track_caller]
    fn enter(&self, kind: CollectiveKind, type_id: TypeId, type_name: &'static str) -> Instant {
        let location = Location::caller();
        // Faults fire **before** the deposit — so a delayed or fail-stopped
        // rank is late *to* the rendezvous and its peers' watchdog names
        // it, matching how real MPI tools observe stragglers and dead
        // processes.
        let inj = self.fault.borrow().as_ref().cloned();
        if let Some(inj) = inj {
            inj.on_collective(kind, location);
        }
        if let Some(log) = self.sched_log.borrow().as_ref() {
            log.lock().push(kind.name());
        }
        self.site.set(Some(Fingerprint {
            kind,
            type_id,
            type_name,
            epoch: 0,
            location,
        }));
        Instant::now()
    }

    /// [`Comm::enter`] for a collective moving elements of type `T`.
    #[track_caller]
    fn enter_typed<T: 'static>(&self, kind: CollectiveKind) -> Instant {
        self.enter(kind, TypeId::of::<T>(), type_name::<T>())
    }

    /// [`Comm::enter`] for a collective moving encoded [`WireBuf`]s.
    #[track_caller]
    fn enter_wire(&self, kind: CollectiveKind) -> Instant {
        self.enter(kind, TypeId::of::<WireBuf>(), "WireBuf")
    }

    /// Deposit half of the rendezvous: publishes `mine` as this rank's
    /// contribution to the communicator's next epoch, beside the call-site
    /// fingerprint [`Comm::enter`] recorded, and returns that fingerprint
    /// stamped with the epoch. Every collective reaches the board through
    /// here, which makes it the choke point where the owner-thread and
    /// one-in-flight invariants are enforced. A single-rank group has no
    /// peer to collect the deposit, so it skips the board.
    fn publish<T: Send + Sync + 'static>(&self, mine: Arc<T>) -> Fingerprint {
        self.assert_owner();
        self.assert_no_inflight();
        let epoch = self.epoch.get();
        self.epoch.set(epoch + 1);
        let site = self.site.take().expect("every collective enters first");
        let fp = Fingerprint { epoch, ..site };
        if self.size() > 1 {
            self.board.deposit(self.rank, mine, fp);
        }
        fp
    }

    /// Collect half of the rendezvous: peer `from`'s contribution to the
    /// collective `mine` fingerprints, blocking until that rank has
    /// published it. Ranks that called different collectives meet here —
    /// one board, one epoch counter — and the board's fingerprint check
    /// fails them at once, so a collect that returns carries the payload
    /// type this collective deposits.
    fn collect<T: Send + Sync + 'static>(&self, from: usize, mine: &Fingerprint) -> Arc<T> {
        let payload = self.board.collect(self.rank, from, mine).downcast();
        payload.expect("matching fingerprints deposit the same payload type")
    }

    /// The one rendezvous every blocking collective is written on:
    /// publishes `mine` at the next epoch, collects every peer's lane, and
    /// returns all contributions indexed by rank (this rank's own `Arc`
    /// never touches the board). What a collective computes is a fold over
    /// the result; [`Comm::ialltoallv_wire`] / [`PendingExchange::wait`]
    /// are the same publish and collects with the caller's work between.
    fn rendezvous<T: Send + Sync + 'static>(&self, mine: T) -> Vec<Arc<T>> {
        let mine = Arc::new(mine);
        let fp = self.publish(mine.clone());
        (0..self.size())
            .map(|j| {
                if j == self.rank {
                    mine.clone()
                } else {
                    self.collect(j, &fp)
                }
            })
            .collect()
    }

    /// Sum of `bytes(contribution)` over this rank's peers — the inbound
    /// side of a collective's byte accounting.
    fn peer_sum<T>(&self, all: &[Arc<T>], bytes: impl Fn(&T) -> u64) -> u64 {
        let peers = all.iter().enumerate().filter(|&(j, _)| j != self.rank);
        peers.map(|(_, theirs)| bytes(theirs)).sum()
    }

    /// Pure synchronization barrier: a rendezvous with a unit payload.
    #[track_caller]
    pub fn barrier(&self) {
        let start = self.enter_typed::<()>(CollectiveKind::Barrier);
        self.rendezvous(());
        self.record(Pattern::Barrier, 0, 0, start);
    }

    /// Variable all-to-all: `bufs[j]` is this rank's payload for rank `j`
    /// (`bufs.len()` must equal `size()`); returns `recv` with `recv[j]` =
    /// what rank `j` sent to this rank.
    ///
    /// This is the workhorse of both algorithms: the 1D frontier exchange
    /// (Algorithm 2 line 21) and the 2D fold phase (Algorithm 3 line 8).
    ///
    /// # Examples
    /// ```
    /// use dmbfs_comm::World;
    ///
    /// let received = World::run(2, |comm| {
    ///     // Rank r sends [r] to everyone (including itself).
    ///     let bufs = vec![vec![comm.rank() as u8], vec![comm.rank() as u8]];
    ///     comm.alltoallv(bufs)
    /// });
    /// assert_eq!(received[0], vec![vec![0], vec![1]]);
    /// assert_eq!(received[1], vec![vec![0], vec![1]]);
    /// ```
    #[track_caller]
    pub fn alltoallv<T: Clone + Send + Sync + 'static>(&self, bufs: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(bufs.len(), self.size(), "need one buffer per rank");
        let start = self.enter_typed::<T>(CollectiveKind::Alltoallv);
        let elem = size_of::<T>() as u64;
        let bytes_out: u64 = bufs
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != self.rank)
            .map(|(_, b)| b.len() as u64 * elem)
            .sum();
        let all = self.rendezvous(bufs);
        let bytes_in = self.peer_sum(&all, |theirs| theirs[self.rank].len() as u64 * elem);
        let recv = all.iter().map(|theirs| theirs[self.rank].clone()).collect();
        self.record(Pattern::Alltoallv, bytes_out, bytes_in, start);
        recv
    }

    /// Variable all-gather: every rank contributes `mine`; returns the
    /// contributions of all ranks indexed by rank. The 2D expand phase
    /// (Algorithm 3 line 6) runs this on the processor-column communicator.
    #[track_caller]
    pub fn allgatherv<T: Clone + Send + Sync + 'static>(&self, mine: Vec<T>) -> Vec<Vec<T>> {
        let start = self.enter_typed::<T>(CollectiveKind::Allgatherv);
        let elem = size_of::<T>() as u64;
        let bytes_out = mine.len() as u64 * elem * (self.size() as u64 - 1);
        let all = self.rendezvous(mine);
        let bytes_in = self.peer_sum(&all, |theirs| theirs.len() as u64 * elem);
        let gathered = cloned(&all);
        self.record(Pattern::Allgatherv, bytes_out, bytes_in, start);
        gathered
    }

    /// All-gather of one value per rank. Fingerprints as an `allgatherv`
    /// (it delegates), with the caller's location preserved.
    #[track_caller]
    pub fn allgather<T: Clone + Send + Sync + 'static>(&self, mine: T) -> Vec<T> {
        self.allgatherv(vec![mine])
            .into_iter()
            .map(|mut v| v.pop().expect("one element per rank"))
            .collect()
    }

    /// All-reduce with a caller-supplied associative, commutative `op`.
    /// Every rank must pass an identical `op`; the fold happens in rank
    /// order on every rank, so results are deterministic and identical.
    #[track_caller]
    pub fn allreduce<T: Clone + Send + Sync + 'static>(
        &self,
        mine: T,
        op: impl Fn(T, T) -> T,
    ) -> T {
        let start = self.enter_typed::<T>(CollectiveKind::Allreduce);
        let elem = size_of::<T>() as u64;
        let all = self.rendezvous(mine);
        let folded = all.iter().map(|v| T::clone(v)).reduce(op);
        self.record(
            Pattern::Allreduce,
            elem,
            elem * (self.size() as u64 - 1),
            start,
        );
        folded.expect("communicator has at least one rank")
    }

    /// Broadcast from `root`: `root` passes `Some(value)`, everyone else
    /// `None`; all ranks return the root's value.
    #[track_caller]
    pub fn broadcast<T: Clone + Send + Sync + 'static>(&self, root: usize, mine: Option<T>) -> T {
        assert!(root < self.size());
        assert_eq!(
            mine.is_some(),
            self.rank == root,
            "exactly the root must supply the broadcast value"
        );
        let start = self.enter_typed::<T>(CollectiveKind::Broadcast);
        let elem = size_of::<T>() as u64;
        let all = self.rendezvous(mine);
        let value = Option::clone(&all[root]).expect("root deposited Some");
        let (out, inn) = if self.rank == root {
            (elem * (self.size() as u64 - 1), 0)
        } else {
            (0, elem)
        };
        self.record(Pattern::Broadcast, out, inn, start);
        value
    }

    /// Gather to `root`: returns `Some(all values indexed by rank)` on the
    /// root, `None` elsewhere.
    #[track_caller]
    pub fn gather<T: Clone + Send + Sync + 'static>(&self, root: usize, mine: T) -> Option<Vec<T>> {
        assert!(root < self.size());
        let start = self.enter_typed::<T>(CollectiveKind::Gather);
        let elem = size_of::<T>() as u64;
        let all = self.rendezvous(mine);
        let result = (self.rank == root).then(|| cloned(&all));
        let (out, inn) = if self.rank == root {
            (0, elem * (self.size() as u64 - 1))
        } else {
            (elem, 0)
        };
        self.record(Pattern::Gather, out, inn, start);
        result
    }

    /// Variable gather to `root`: returns `Some(contributions indexed by
    /// rank)` on the root, `None` elsewhere.
    #[track_caller]
    pub fn gatherv<T: Clone + Send + Sync + 'static>(
        &self,
        root: usize,
        mine: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        assert!(root < self.size());
        let start = self.enter_typed::<T>(CollectiveKind::Gatherv);
        let elem = size_of::<T>() as u64;
        let sent = mine.len() as u64 * elem;
        let all = self.rendezvous(mine);
        let (result, out, inn) = if self.rank == root {
            let inn = self.peer_sum(&all, |theirs| theirs.len() as u64 * elem);
            (Some(cloned(&all)), 0, inn)
        } else {
            (None, sent, 0)
        };
        self.record(Pattern::Gather, out, inn, start);
        result
    }

    /// Pairwise exchange: sends `data` to `partner` and returns what
    /// `partner` sent here. The partner assignment must be a symmetric
    /// permutation across all ranks (`partner(partner(r)) == r`), and every
    /// rank must participate — this is the square-grid `TransposeVector`
    /// of §3.2, "simply a pairwise exchange between P(i,j) and P(j,i)".
    /// A rank may partner itself (the diagonal), which is a local copy.
    #[track_caller]
    pub fn sendrecv<T: Clone + Send + Sync + 'static>(
        &self,
        partner: usize,
        data: Vec<T>,
    ) -> Vec<T> {
        assert!(partner < self.size());
        let start = self.enter_typed::<T>(CollectiveKind::Sendrecv);
        // The diagonal's self-exchange moves no bytes.
        let elem = if partner == self.rank {
            0
        } else {
            size_of::<T>() as u64
        };
        let bytes_out = data.len() as u64 * elem;
        let all = self.rendezvous((partner, data));
        let (back, received) = &*all[partner];
        self.assert_partner_points_back(partner, *back);
        let received = received.clone();
        let bytes_in = received.len() as u64 * elem;
        self.record(Pattern::PointToPoint, bytes_out, bytes_in, start);
        received
    }

    fn assert_partner_points_back(&self, partner: usize, back: usize) {
        assert_eq!(
            back, self.rank,
            "sendrecv partner mismatch: rank {} expected partner {} to point back",
            self.rank, partner
        );
    }

    /// Wire-aware variable all-to-all: like [`Comm::alltoallv`], but each
    /// per-destination buffer is an encoded [`WireBuf`]. The recorded
    /// [`CommEvent`] carries the logical bytes in `bytes_out`/`bytes_in`
    /// and the encoded sizes in `wire_out`/`wire_in`, which is what the
    /// α–β replay charges bandwidth for.
    ///
    /// This is [`Comm::ialltoallv_wire`] completed on the spot: there is
    /// one wire all-to-all, and "blocking" means nothing overlaps it. It
    /// fingerprints, faults and traces as that start/wait pair. It is the
    /// form the BFS drivers call, once per level.
    #[track_caller]
    pub fn alltoallv_wire(&self, bufs: Vec<WireBuf>) -> Vec<WireBuf> {
        self.ialltoallv_wire(bufs).wait()
    }

    /// Starts a **nonblocking** wire all-to-all: deposits `bufs` (one
    /// encoded [`WireBuf`] per destination rank) on the rendezvous board and
    /// returns immediately with a [`PendingExchange`]. The caller may do
    /// local work while the exchange is in flight, then calls
    /// [`PendingExchange::wait`] to rendezvous and collect what the peers
    /// sent. [`Comm::alltoallv_wire`] is built on it, and the benchmark's
    /// transport layer times the split form directly.
    ///
    /// Observer coverage:
    ///
    /// * **matching** — the start deposits its `ialltoallv_wire`
    ///   fingerprint and the wait matches every peer's start against it;
    ///   fault plans and captured schedules still see the wait as its own
    ///   `ialltoallv_wire_wait` site;
    /// * **faults** — injected faults fire here at the start site (where
    ///   the buffers leave the rank); checksum corruption planted here
    ///   trips at the receivers' `wait()`;
    /// * **stats** — the recorded [`CommEvent`]'s `wall` is the *exposed*
    ///   time: inside this call plus inside `wait()`, not the in-flight
    ///   window between them;
    /// * **trace** — an `ExchangeStart` span is emitted here and an
    ///   `ExchangeWait` span at the wait.
    ///
    /// At most one exchange may be in flight per communicator, and no
    /// other collective may run on the handle while it is (asserted): the
    /// ring is two epochs deep on the premise that a rank deposits epoch
    /// `e + 1` only after collecting every peer's epoch `e`, and a
    /// collective issued between a start and its wait would break it.
    #[track_caller]
    pub fn ialltoallv_wire(&self, bufs: Vec<WireBuf>) -> PendingExchange<'_> {
        assert_eq!(bufs.len(), self.size(), "need one buffer per rank");
        let start = self.enter_wire(CollectiveKind::IalltoallvWire);
        let mut bufs = bufs;
        let (mut bytes_out, mut wire_out) = (0u64, 0u64);
        for (j, b) in bufs.iter().enumerate() {
            if j != self.rank {
                bytes_out += b.logical_bytes;
                wire_out += b.wire_bytes();
            }
        }
        // End-to-end checksums (fault plan armed only), taken before any
        // armed corrupt fault flips a byte — receivers check them in `wait()`.
        let sums: Option<Vec<u64>> = self
            .faults_armed()
            .then(|| bufs.iter().map(|b| fnv1a64(b.bytes())).collect());
        let eligible = |j: usize, b: &WireBuf| j != self.rank && !b.bytes().is_empty();
        let has_payload = bufs.iter().enumerate().any(|(j, b)| eligible(j, b));
        if let Some(seed) = self.corruption_seed(CollectiveKind::IalltoallvWire, has_payload) {
            let b = bufs
                .iter_mut()
                .enumerate()
                .find(|(j, b)| eligible(*j, b))
                .map(|(_, b)| b)
                .expect("has_payload checked");
            let (i, mask) = corrupt_site(seed, b.bytes().len());
            b.bytes_mut()[i] ^= mask;
        }
        // Own bucket stays local (stashed on the pending handle until the
        // wait); off-rank buffers are deposited after checksum + corruption
        // and every receiver takes a refcount on them, never a copy.
        let own = std::mem::take(&mut bufs[self.rank]);
        let payload: ExchangePayload = (bufs, sums);
        let site = self.publish(Arc::new(payload));
        self.pending_exchange.set(true);
        if let Some(t) = self.tracer.borrow().as_ref() {
            t.lock().exchange(
                SpanKind::ExchangeStart,
                CollectiveTag::Alltoallv,
                start,
                self.size() as u64,
                bytes_out,
                wire_out,
                wire_out,
            );
        }
        PendingExchange {
            comm: self,
            site,
            start_call: start.elapsed(),
            bytes_out,
            wire_out,
            own,
        }
    }

    /// Wire-aware variable all-gather: like [`Comm::allgatherv`] with an
    /// encoded payload. See [`Comm::alltoallv_wire`] for the accounting.
    #[track_caller]
    pub fn allgatherv_wire(&self, mine: WireBuf) -> Vec<WireBuf> {
        let start = self.enter_wire(CollectiveKind::AllgathervWire);
        let mut mine = mine;
        let peers = self.size() as u64 - 1;
        let bytes_out = mine.logical_bytes * peers;
        let wire_out = mine.wire_bytes() * peers;
        let sum = self.wire_checksum(mine.bytes());
        let has_payload = peers > 0 && !mine.bytes().is_empty();
        if let Some(seed) = self.corruption_seed(CollectiveKind::AllgathervWire, has_payload) {
            let (i, mask) = corrupt_site(seed, mine.bytes().len());
            mine.bytes_mut()[i] ^= mask;
        }
        // Deposit after checksum + corruption: every receiver's clone
        // (this rank's own included) is a refcount bump.
        let all = self.rendezvous((mine, sum));
        for (j, (buf, sum)) in all.iter().map(|theirs| &**theirs).enumerate() {
            if j != self.rank {
                self.check_wire(buf.bytes(), *sum, j);
            }
        }
        let bytes_in = self.peer_sum(&all, |theirs| theirs.0.logical_bytes);
        let wire_in = self.peer_sum(&all, |theirs| theirs.0.wire_bytes());
        let gathered = all.iter().map(|theirs| theirs.0.clone()).collect();
        self.record_wire(
            Pattern::Allgatherv,
            [bytes_out, bytes_in],
            [wire_out, wire_in],
            wire_out,
            start,
        );
        gathered
    }

    /// Wire-aware pairwise exchange: like [`Comm::sendrecv`] with an
    /// encoded payload. See [`Comm::alltoallv_wire`] for the accounting.
    #[track_caller]
    pub fn sendrecv_wire(&self, partner: usize, data: WireBuf) -> WireBuf {
        assert!(partner < self.size());
        let start = self.enter_wire(CollectiveKind::SendrecvWire);
        let mut data = data;
        let (bytes_out, wire_out) = if partner == self.rank {
            (0, 0)
        } else {
            (data.logical_bytes, data.wire_bytes())
        };
        let sum = self.wire_checksum(data.bytes());
        let has_payload = partner != self.rank && !data.bytes().is_empty();
        if let Some(seed) = self.corruption_seed(CollectiveKind::SendrecvWire, has_payload) {
            let (i, mask) = corrupt_site(seed, data.bytes().len());
            data.bytes_mut()[i] ^= mask;
        }
        // Deposit after checksum + corruption: the partner's clone is a
        // refcount bump (and so is the diagonal self-exchange's).
        let all = self.rendezvous((partner, data, sum));
        let (back, received, sum) = &*all[partner];
        self.assert_partner_points_back(partner, *back);
        let received = received.clone();
        self.check_wire(received.bytes(), *sum, partner);
        let (bytes_in, wire_in) = if partner == self.rank {
            (0, 0)
        } else {
            (received.logical_bytes, received.wire_bytes())
        };
        self.record_wire(
            Pattern::PointToPoint,
            [bytes_out, bytes_in],
            [wire_out, wire_in],
            wire_out,
            start,
        );
        received
    }

    /// Splits the communicator à la `MPI_Comm_split`: ranks with equal
    /// `color` form a new communicator, ordered by `(key, old rank)`.
    /// Returns this rank's handle in its new communicator.
    ///
    /// The 2D algorithm calls this twice on the world communicator to build
    /// the processor-row communicator (color = row index) for the fold phase
    /// and the processor-column communicator (color = column index) for the
    /// expand phase.
    #[track_caller]
    pub fn split(&self, color: u64, key: u64) -> Comm {
        self.enter_typed::<()>(CollectiveKind::Split);
        // The inner allgather replaces the recorded site; round 2 restores
        // it, so that deposit fingerprints as the split itself.
        let site = self.site.get();
        // Round 1: learn everyone's (color, key).
        let infos = self.allgather((color, key));
        let mut members: Vec<usize> = (0..self.size()).filter(|&r| infos[r].0 == color).collect();
        members.sort_by_key(|&r| (infos[r].1, r));
        let my_group_rank = members
            .iter()
            .position(|&r| r == self.rank)
            .expect("self must be in own color group");
        let leader = members[0];

        // Round 2: each group leader derives the child board (fresh group
        // id, world-rank labels, the same poison flag and watchdog limit);
        // members pick it out of the leader's contribution.
        let start = Instant::now();
        let created: Option<Arc<ExchangeBoard>> =
            (self.rank == leader).then(|| Arc::new(self.board.child(&members)));
        self.site.set(site);
        let all = self.rendezvous(created);
        let board = Option::clone(&all[leader]).expect("leader deposited the group board");
        self.record(Pattern::Broadcast, 0, 0, start);

        let child = Comm::new(board, my_group_rank);
        // Sub-communicator collectives record into the parent's trace and
        // consult the parent's fault injector (which keeps counting ops and
        // reporting the world rank).
        *child.tracer.borrow_mut() = self.tracer.borrow().clone();
        *child.fault.borrow_mut() = self.fault.borrow().clone();
        *child.sched_log.borrow_mut() = self.sched_log.borrow().clone();
        child
    }
}

/// An in-flight nonblocking wire exchange started by
/// [`Comm::ialltoallv_wire`]. The outbound buffers are already deposited
/// on the rendezvous board; call [`PendingExchange::wait`] to collect what
/// the peers sent. Dropping the handle without waiting leaves the
/// communicator unusable (the next collective asserts), mirroring a
/// leaked `MPI_Request`.
#[must_use = "a started exchange must be completed: call .wait() to collect the received buffers"]
pub struct PendingExchange<'a> {
    comm: &'a Comm,
    /// The start's fingerprint, stamped with the epoch it was deposited
    /// at: every collect of the wait matches the peers' starts against it.
    site: Fingerprint,
    /// Wall time spent inside the start call — the exposed half of start,
    /// charged to the recorded event's `wall` together with the wait call.
    start_call: Duration,
    bytes_out: u64,
    wire_out: u64,
    /// The sender's own bucket, held locally until the wait instead of
    /// round-tripping through the board.
    own: WireBuf,
}

impl PendingExchange<'_> {
    /// Completes the exchange: collects `recv[j]` = the buffer rank `j`
    /// addressed to this rank, blocking only until each peer has
    /// **started** the matching exchange (deposited its buffers) — never
    /// on the peers' own waits — and checks end-to-end wire checksums
    /// (fault plan armed). Records one [`CommEvent`] whose `wall` is the
    /// exposed time (inside the start call plus inside this call), and
    /// emits the `ExchangeWait` span.
    #[track_caller]
    pub fn wait(self) -> Vec<WireBuf> {
        let comm = self.comm;
        comm.assert_owner();
        // Timed from before the hooks: an injected delay here is exposed
        // wait.
        let entered = Instant::now();
        comm.enter_wire(CollectiveKind::IalltoallvWireWait);
        let mut recv: Vec<WireBuf> = Vec::with_capacity(comm.size());
        let (mut bytes_in, mut wire_in) = (0u64, 0u64);
        let mut own = Some(self.own);
        for j in 0..comm.size() {
            if j == comm.rank {
                recv.push(own.take().expect("own bucket moved once"));
                continue;
            }
            let theirs: Arc<ExchangePayload> = comm.collect(j, &self.site);
            let mine = theirs.0[comm.rank].clone();
            comm.check_wire(mine.bytes(), theirs.1.as_ref().map(|s| s[comm.rank]), j);
            bytes_in += mine.logical_bytes;
            wire_in += mine.wire_bytes();
            recv.push(mine);
        }
        comm.pending_exchange.set(false);
        comm.push_event(
            Pattern::Alltoallv,
            [self.bytes_out, bytes_in],
            [self.wire_out, wire_in],
            self.wire_out,
            self.start_call + entered.elapsed(),
        );
        if let Some(t) = comm.tracer.borrow().as_ref() {
            t.lock().exchange(
                SpanKind::ExchangeWait,
                CollectiveTag::Alltoallv,
                entered,
                comm.size() as u64,
                bytes_in,
                wire_in,
                wire_in,
            );
        }
        recv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn collectives_emit_spans_when_traced() {
        let epoch = Instant::now();
        let traces = World::run(2, |comm| {
            comm.set_tracer(TraceSink::new(comm.rank(), epoch));
            comm.trace_enter_level(3);
            let bufs = vec![vec![comm.rank() as u64], vec![comm.rank() as u64]];
            comm.alltoallv(bufs);
            comm.barrier();
            comm.take_trace().expect("tracer was attached")
        });
        for (rank, t) in traces.iter().enumerate() {
            assert_eq!(t.rank, rank);
            assert_eq!(t.spans.len(), 2, "alltoallv + barrier");
            let a2a = t.spans[0];
            assert_eq!(a2a.kind, SpanKind::Collective);
            assert_eq!(a2a.pattern, CollectiveTag::Alltoallv);
            assert_eq!(a2a.level, 3);
            assert_eq!(a2a.detail, 2, "group size");
            assert_eq!(a2a.bytes, 8, "one off-rank u64");
            assert_eq!(a2a.wire, 8, "plain collectives ship logical bytes");
            assert!(a2a.end_ns >= a2a.start_ns);
            assert_eq!(t.spans[1].pattern, CollectiveTag::Barrier);
        }
    }

    #[test]
    fn split_children_share_the_parent_trace() {
        let epoch = Instant::now();
        let traces = World::run(4, |comm| {
            comm.set_tracer(TraceSink::new(comm.rank(), epoch));
            comm.trace_clear(); // drop nothing, but exercise the call
            let row = comm.split((comm.rank() / 2) as u64, comm.rank() as u64);
            comm.trace_clear(); // discard the split's own collectives
            row.allreduce(1u64, |a, b| a + b);
            comm.take_trace().expect("tracer was attached")
        });
        for t in &traces {
            assert_eq!(t.spans.len(), 1, "only the row allreduce survives clear");
            assert_eq!(t.spans[0].pattern, CollectiveTag::Allreduce);
            assert_eq!(t.spans[0].detail, 2, "row communicator has 2 ranks");
        }
    }

    #[test]
    fn untraced_comm_records_no_spans() {
        let out = World::run(2, |comm| {
            assert!(!comm.trace_enabled());
            assert_eq!(comm.trace_start(), 0);
            comm.trace_span(SpanKind::Level, 0, 0);
            comm.barrier();
            comm.take_trace()
        });
        assert!(out.iter().all(|t| t.is_none()));
    }

    #[test]
    fn alltoallv_wire_is_start_plus_wait() {
        let out = World::run(3, |comm| {
            let bufs: Vec<WireBuf> = (0..3)
                .map(|j| WireBuf::new(vec![comm.rank() as u8; j + 1], 16 * (j as u64 + 1)))
                .collect();
            let immediate = comm.alltoallv_wire(bufs.clone());
            let split = comm.ialltoallv_wire(bufs).wait();
            assert_eq!(split, immediate);
            let stats = comm.take_stats();
            assert_eq!(stats.num_calls(), 2, "one event per exchange");
            let (a, b) = (&stats.events[0], &stats.events[1]);
            assert_eq!(a.pattern, Pattern::Alltoallv);
            assert_eq!(b.pattern, Pattern::Alltoallv);
            assert_eq!(a.bytes_out, b.bytes_out);
            assert_eq!(a.bytes_in, b.bytes_in);
            assert_eq!(a.wire_out, b.wire_out);
            assert_eq!(a.wire_in, b.wire_in);
            split
        });
        // Every rank received one buffer per peer with the sender's id.
        for (rank, recv) in out.iter().enumerate() {
            for (j, b) in recv.iter().enumerate() {
                assert_eq!(b.bytes(), vec![j as u8; rank + 1]);
                assert_eq!(b.logical_bytes, 16 * (rank as u64 + 1));
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "sleep-based overlap-window timing")]
    fn nonblocking_exchange_records_hidden_window() {
        let sleep = Duration::from_millis(20);
        let out = World::run(2, |comm| {
            let bufs = vec![WireBuf::new(vec![9], 8), WireBuf::new(vec![9], 8)];
            let t0 = Instant::now();
            let pending = comm.ialltoallv_wire(bufs);
            std::thread::sleep(sleep);
            pending.wait();
            (t0.elapsed(), comm.take_stats())
        });
        for (elapsed, s) in &out {
            assert_eq!(s.num_calls(), 1);
            let wall = s.events[0].wall;
            assert!(
                wall > Duration::ZERO && wall + sleep <= *elapsed,
                "the wall must exclude the in-flight sleep: wall {wall:?}, \
                 start-to-wait {elapsed:?}"
            );
            assert_eq!(s.wall(), wall);
        }
    }

    #[test]
    fn nonblocking_exchange_emits_start_and_wait_spans() {
        let epoch = Instant::now();
        let traces = World::run(2, |comm| {
            comm.set_tracer(TraceSink::new(comm.rank(), epoch));
            comm.trace_enter_level(1);
            let bufs = vec![WireBuf::new(vec![1, 2], 32), WireBuf::new(vec![3, 4], 32)];
            let recv = comm.ialltoallv_wire(bufs).wait();
            assert_eq!(recv.len(), 2);
            comm.take_trace().expect("tracer was attached")
        });
        for t in &traces {
            let kinds: Vec<SpanKind> = t.spans.iter().map(|s| s.kind).collect();
            assert_eq!(
                kinds,
                vec![SpanKind::ExchangeStart, SpanKind::ExchangeWait],
                "the wire all-to-all traces as a start/wait pair, not a Collective"
            );
            let (start, wait) = (t.spans[0], t.spans[1]);
            assert_eq!(start.pattern, CollectiveTag::Alltoallv);
            assert_eq!(wait.pattern, CollectiveTag::Alltoallv);
            assert_eq!(start.level, 1);
            assert_eq!(wait.level, 1);
            assert_eq!(start.detail, 2, "group size");
            assert_eq!(start.bytes, 32, "start carries outbound logical bytes");
            assert_eq!(start.wire, 2, "start carries outbound wire bytes");
            assert_eq!(wait.bytes, 32, "wait carries inbound logical bytes");
            assert_eq!(wait.wire, 2, "wait carries inbound wire bytes");
            assert!(
                wait.start_ns >= start.end_ns,
                "wait begins after start returns"
            );
        }
    }

    #[test]
    fn collectives_assert_while_an_exchange_is_in_flight() {
        World::run(2, |comm| {
            let bufs = vec![WireBuf::default(), WireBuf::default()];
            let pending = comm.ialltoallv_wire(bufs);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                comm.allreduce(1u64, |a, b| a + b)
            }))
            .expect_err("a collective during an in-flight exchange must assert");
            let msg = err
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("in flight"), "unexpected panic message: {msg}");
            pending.wait();
            // After wait() the handle is usable again.
            assert_eq!(comm.allreduce(1u64, |a, b| a + b), 2);
        });
    }
}
