//! Deterministic fault injection for the in-process runtime.
//!
//! The paper's BFS is bulk-synchronous: every level is a handful of
//! collectives, and one slow, dead, or corrupting rank stalls the whole
//! machine. This module makes those failure classes *reproducible*: a
//! [`FaultPlan`] names up to [`MAX_FAULTS`] seeded faults — each one a
//! [`FaultSpec`] saying *which rank*, *at which site* (collective op index
//! or BFS level, optionally filtered to one collective kind), does *what*
//! ([`FaultKind`]: panic, silent fail-stop exit, delay, or outbound
//! wire-buffer corruption).
//!
//! The plan rides on `dmbfs_runtime::RunConfig` (builder API) or the
//! `DMBFS_FAULTS` environment variable / `--fault` CLI flag (grammar below)
//! and is armed per rank by `Comm::arm_faults`. An armed communicator calls
//! into the shared injector at the top of every collective — *before* its
//! deposit on the rendezvous board, so the detection story matches real
//! MPI: a fail-stopped or delayed rank is the one that never arrives, and
//! the board's watchdog names it. Arming a plan is also what turns on the
//! end-to-end wire checksums that convict a corrupting rank. Like tracing,
//! the layer is a strict observer when unused: an empty plan is never
//! armed, and the disabled hook is one `Option` check per collective
//! (priced by [`fault_disabled_hook_cost`]).
//!
//! # Grammar
//!
//! ```text
//! plan  := spec (';' spec)*
//! spec  := kind '@' 'r' RANK ':' site [':coll=' COLLECTIVE]
//! kind  := 'panic' | 'failstop' | 'delay=' MILLIS | 'corrupt=' SEED
//! site  := 'op' N | 'level' L
//! ```
//!
//! Examples: `panic@r2:level3`, `failstop@r0:op17`,
//! `delay=750@r1:level2:coll=allreduce`, `corrupt=42@r3:level1`.
//!
//! `op N` counts collectives issued by the rank across *all* its
//! communicator handles (world and splits share one counter); `level L` is
//! the 0-based BFS level as published by `Comm::trace_enter_level` and
//! fires at the first eligible collective with current level ≥ L. Corrupt
//! faults only fire at wire collectives (`ialltoallv_wire`,
//! `allgatherv_wire`, `sendrecv_wire`) carrying a non-empty outbound
//! payload, and stay armed until one passes; the receivers' end-to-end
//! checksum, taken on every wire payload of an armed rank, detects them.
//! The wire all-to-all is always a start/wait pair (`alltoallv_wire` is
//! the two back to back, so it is named `ialltoallv_wire` here too): the
//! fault fires at the *start* site (where the buffers are deposited); the
//! checksum trips at the receivers' `wait()`.

use crate::verify::CollectiveKind;
use std::fmt;
use std::panic::Location;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Maximum number of faults one [`FaultPlan`] can carry. A fixed small
/// bound keeps the plan `Copy` (it travels inside `RunConfig`, which the
/// drivers copy freely) and is plenty: a chaos cell injects exactly one.
pub const MAX_FAULTS: usize = 4;

/// What an injected fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic on the chosen rank with a typed [`InjectedFault`] payload —
    /// the "crash" failure class. Poisons the world like any rank panic;
    /// `World::run` re-raises the typed payload as the root cause.
    Panic,
    /// Exit the rank silently, *without* poisoning the world — the MPI
    /// "fail-stop process" class, where peers learn of the death only by
    /// timing out: the rendezvous watchdog (`DMBFS_COMM_TIMEOUT_SECS`, or
    /// `World::run_with_watchdog`) names the dead rank in a typed report.
    FailStop,
    /// Sleep for the given milliseconds before entering the collective —
    /// the "straggler" class. A delay longer than the rendezvous watchdog
    /// limit turns into a watchdog report naming the laggard.
    Delay {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
    /// Flip one seeded byte of the first non-empty outbound [`crate::WireBuf`]
    /// at a wire collective — the "corrupting network/rank" class. The
    /// end-to-end wire checksums an armed rank attaches catch it at the
    /// receiver and name the corrupting source rank.
    CorruptWire {
        /// Seed choosing which byte and bit to flip (deterministic).
        seed: u64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::FailStop => write!(f, "failstop"),
            FaultKind::Delay { millis } => write!(f, "delay={millis}"),
            FaultKind::CorruptWire { seed } => write!(f, "corrupt={seed}"),
        }
    }
}

/// When a fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultTrigger {
    /// At the rank's N-th collective (0-based, counted across all of the
    /// rank's communicator handles). Exact match for panic/fail-stop/delay;
    /// corrupt faults fire at the first eligible wire collective at or
    /// after N.
    AtOp(u64),
    /// At the first eligible collective once the rank's published BFS
    /// level (see `Comm::trace_enter_level`) reaches L. Levels are 0-based;
    /// a run that finishes before level L never fires the fault.
    AtLevel(i64),
}

impl fmt::Display for FaultTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTrigger::AtOp(n) => write!(f, "op{n}"),
            FaultTrigger::AtLevel(l) => write!(f, "level{l}"),
        }
    }
}

/// One scheduled fault: who, where, what.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// World rank the fault targets. (Faults always address world ranks,
    /// even when they fire inside a sub-communicator collective.)
    pub rank: usize,
    /// The site at which it fires.
    pub trigger: FaultTrigger,
    /// Restrict firing to one collective kind (`None` = any). Corrupt
    /// faults may only name wire collectives.
    pub collective: Option<CollectiveKind>,
    /// What happens.
    pub kind: FaultKind,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@r{}:{}", self.kind, self.rank, self.trigger)?;
        if let Some(c) = self.collective {
            write!(f, ":coll={}", c.name())?;
        }
        Ok(())
    }
}

impl FromStr for FaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind_s, site_s) = s
            .split_once('@')
            .ok_or_else(|| format!("fault spec `{s}`: expected `kind@rRANK:site`"))?;
        let kind = match kind_s {
            "panic" => FaultKind::Panic,
            "failstop" => FaultKind::FailStop,
            other => {
                if let Some(ms) = other.strip_prefix("delay=") {
                    FaultKind::Delay {
                        millis: ms
                            .parse()
                            .map_err(|_| format!("fault spec `{s}`: bad delay millis `{ms}`"))?,
                    }
                } else if let Some(seed) = other.strip_prefix("corrupt=") {
                    FaultKind::CorruptWire {
                        seed: seed
                            .parse()
                            .map_err(|_| format!("fault spec `{s}`: bad corrupt seed `{seed}`"))?,
                    }
                } else {
                    return Err(format!(
                        "fault spec `{s}`: unknown kind `{other}` \
                         (expected panic|failstop|delay=MS|corrupt=SEED)"
                    ));
                }
            }
        };
        let mut parts = site_s.split(':');
        let rank_s = parts
            .next()
            .and_then(|p| p.strip_prefix('r'))
            .ok_or_else(|| format!("fault spec `{s}`: expected `rRANK` after `@`"))?;
        let rank: usize = rank_s
            .parse()
            .map_err(|_| format!("fault spec `{s}`: bad rank `{rank_s}`"))?;
        let trig_s = parts
            .next()
            .ok_or_else(|| format!("fault spec `{s}`: missing `opN` or `levelL` site"))?;
        let trigger = if let Some(n) = trig_s.strip_prefix("op") {
            FaultTrigger::AtOp(
                n.parse()
                    .map_err(|_| format!("fault spec `{s}`: bad op index `{n}`"))?,
            )
        } else if let Some(l) = trig_s.strip_prefix("level") {
            FaultTrigger::AtLevel(
                l.parse()
                    .map_err(|_| format!("fault spec `{s}`: bad level `{l}`"))?,
            )
        } else {
            return Err(format!(
                "fault spec `{s}`: site `{trig_s}` must be `opN` or `levelL`"
            ));
        };
        let collective = match parts.next() {
            None => None,
            Some(c) => {
                let name = c
                    .strip_prefix("coll=")
                    .ok_or_else(|| format!("fault spec `{s}`: expected `coll=NAME`, got `{c}`"))?;
                Some(name.parse::<CollectiveKind>()?)
            }
        };
        if let Some(extra) = parts.next() {
            return Err(format!("fault spec `{s}`: trailing `{extra}`"));
        }
        if matches!(kind, FaultKind::CorruptWire { .. }) {
            if let Some(c) = collective {
                if !is_wire(c) {
                    return Err(format!(
                        "fault spec `{s}`: corrupt faults only fire at wire collectives \
                         (ialltoallv_wire|allgatherv_wire|sendrecv_wire), \
                         not `{}`",
                        c.name()
                    ));
                }
            }
        }
        Ok(FaultSpec {
            rank,
            trigger,
            collective,
            kind,
        })
    }
}

/// Whether a collective moves [`crate::WireBuf`] payloads (the corruption
/// targets).
pub(crate) fn is_wire(kind: CollectiveKind) -> bool {
    matches!(
        kind,
        CollectiveKind::IalltoallvWire
            | CollectiveKind::AllgathervWire
            | CollectiveKind::SendrecvWire
    )
}

/// A deterministic schedule of up to [`MAX_FAULTS`] faults. `Copy` and
/// defaultable so it embeds in `RunConfig` without disturbing its
/// `Copy + Eq + Hash` contract; the empty plan is the default and costs
/// nothing (it is never armed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    specs: [Option<FaultSpec>; MAX_FAULTS],
}

impl FaultPlan {
    /// The empty plan (no faults; never armed).
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a fault, builder-style.
    ///
    /// # Panics
    /// If the plan already holds [`MAX_FAULTS`] faults.
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        let slot = self
            .specs
            .iter_mut()
            .find(|s| s.is_none())
            .unwrap_or_else(|| panic!("FaultPlan holds at most {MAX_FAULTS} faults"));
        *slot = Some(spec);
        self
    }

    /// True when the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.specs.iter().all(Option::is_none)
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.specs.iter().filter(|s| s.is_some()).count()
    }

    /// The scheduled faults, in insertion order.
    pub fn specs(&self) -> impl Iterator<Item = &FaultSpec> {
        self.specs.iter().flatten()
    }

    /// Parses the `DMBFS_FAULTS` environment variable; the empty plan when
    /// unset or blank.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("DMBFS_FAULTS") {
            Ok(v) if !v.trim().is_empty() => v.parse(),
            _ => Ok(Self::default()),
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for spec in self.specs() {
            if !first {
                write!(f, ";")?;
            }
            write!(f, "{spec}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::default();
        let mut count = 0usize;
        for part in s.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if count == MAX_FAULTS {
                return Err(format!("fault plan `{s}`: at most {MAX_FAULTS} faults"));
            }
            plan = plan.with_fault(part.parse()?);
            count += 1;
        }
        Ok(plan)
    }
}

/// The typed panic payload of an injected [`FaultKind::Panic`] (and, inside
/// [`FailStopExit`], of a fail-stop). `World::run` re-raises it as the
/// run's root cause; tests and the `dmbfs chaos` harness downcast it to
/// check the reported site matches the injected one.
#[derive(Clone, Debug)]
pub struct InjectedFault {
    /// World rank the fault fired on.
    pub rank: usize,
    /// The collective being entered when it fired.
    pub collective: CollectiveKind,
    /// The rank's collective op index at the firing site.
    pub op: u64,
    /// The rank's published BFS level at the firing site
    /// (`dmbfs_trace::NO_LEVEL` outside any level).
    pub level: i64,
    /// What fired.
    pub kind: FaultKind,
    /// `file:line:col` of the collective call the fault fired in front of.
    pub location: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} at rank {}: before {} (op #{}, level {}) at {}",
            self.kind,
            self.rank,
            self.collective.name(),
            self.op,
            self.level,
            self.location
        )
    }
}

/// Panic payload of a [`FaultKind::FailStop`]: the rank unwinds with this
/// *without* poisoning the world, so peers observe only its absence —
/// exactly a fail-stopped MPI process. `World::run` treats it as the
/// weakest root-cause candidate (the peers' watchdog report explains the
/// run better).
#[derive(Clone, Debug)]
pub struct FailStopExit(
    /// The injected site.
    pub InjectedFault,
);

impl fmt::Display for FailStopExit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (rank exited silently)", self.0)
    }
}

/// Per-rank runtime state of an armed [`FaultPlan`]: a shared op counter
/// and level cell (all of the rank's communicator handles share one
/// injector through an `Arc`, exactly like the tracer), plus one fired
/// flag per scheduled fault so each fires at most once.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rank: usize,
    ops: AtomicU64,
    level: AtomicI64,
    fired: [AtomicBool; MAX_FAULTS],
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan, rank: usize) -> Arc<Self> {
        Arc::new(Self {
            plan,
            rank,
            ops: AtomicU64::new(0),
            level: AtomicI64::new(dmbfs_trace::NO_LEVEL),
            fired: Default::default(),
        })
    }

    /// Publishes the rank's current BFS level (fed by
    /// `Comm::trace_enter_level`, which every level-synchronous driver
    /// already calls).
    pub(crate) fn set_level(&self, level: i64) {
        self.level.store(level, Ordering::Relaxed);
    }

    fn payload(
        &self,
        spec: &FaultSpec,
        kind: CollectiveKind,
        op: u64,
        location: &Location<'_>,
    ) -> InjectedFault {
        InjectedFault {
            rank: self.rank,
            collective: kind,
            op,
            level: self.level.load(Ordering::Relaxed),
            kind: spec.kind,
            location: location.to_string(),
        }
    }

    fn trigger_hit(&self, spec: &FaultSpec, op: u64, at_or_after: bool) -> bool {
        let level = self.level.load(Ordering::Relaxed);
        match spec.trigger {
            FaultTrigger::AtOp(n) => {
                if at_or_after {
                    op >= n
                } else {
                    op == n
                }
            }
            FaultTrigger::AtLevel(l) => level != dmbfs_trace::NO_LEVEL && level >= l,
        }
    }

    /// Called at the top of every collective (before its deposit on the
    /// rendezvous board). Counts the op; fires any matching panic, fail-stop, or
    /// delay fault.
    pub(crate) fn on_collective(&self, kind: CollectiveKind, location: &'static Location<'static>) {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        for (i, spec) in self.plan.specs.iter().enumerate() {
            let Some(spec) = spec else { continue };
            if spec.rank != self.rank
                || matches!(spec.kind, FaultKind::CorruptWire { .. })
                || self.fired[i].load(Ordering::Relaxed)
                || spec.collective.is_some_and(|c| c != kind)
                || !self.trigger_hit(spec, op, false)
            {
                continue;
            }
            self.fired[i].store(true, Ordering::Relaxed);
            match spec.kind {
                FaultKind::Panic => {
                    std::panic::panic_any(self.payload(spec, kind, op, location));
                }
                FaultKind::FailStop => {
                    std::panic::panic_any(FailStopExit(self.payload(spec, kind, op, location)));
                }
                FaultKind::Delay { millis } => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                FaultKind::CorruptWire { .. } => unreachable!("filtered above"),
            }
        }
    }

    /// Called by the wire collectives after [`Self::on_collective`], with
    /// `has_payload` saying whether any non-empty outbound buffer exists at
    /// this site. Returns the corruption seed (and consumes the fault) when
    /// a corrupt spec matches; a matching spec with nothing to corrupt
    /// stays armed for the next wire collective.
    pub(crate) fn corrupt_seed(&self, kind: CollectiveKind, has_payload: bool) -> Option<u64> {
        if !has_payload {
            return None;
        }
        let op = self.ops.load(Ordering::Relaxed).saturating_sub(1);
        for (i, spec) in self.plan.specs.iter().enumerate() {
            let Some(spec) = spec else { continue };
            let FaultKind::CorruptWire { seed } = spec.kind else {
                continue;
            };
            if spec.rank != self.rank
                || self.fired[i].load(Ordering::Relaxed)
                || spec.collective.is_some_and(|c| c != kind)
                || !self.trigger_hit(spec, op, true)
            {
                continue;
            }
            self.fired[i].store(true, Ordering::Relaxed);
            return Some(seed);
        }
        None
    }
}

/// FNV-1a over a byte slice — the end-to-end checksum an armed rank
/// attaches to its wire payloads so receiver-side corruption checks are
/// deterministic and dependency-free.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Picks the (byte index, nonzero xor mask) a corrupt fault flips in a
/// buffer of `len` bytes, from its seed. Deterministic; `len` must be > 0.
pub(crate) fn corrupt_site(seed: u64, len: usize) -> (usize, u8) {
    // splitmix64 finalizer spreads small seeds over the buffer.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    ((z as usize) % len, 1u8 << (z % 8))
}

/// Measures the per-collective cost of the *disabled* fault hook — the
/// branch every collective takes when no plan is armed — over `iters`
/// iterations. The strict-observer overhead test in `dmbfs-bfs` prices a
/// real search's collective count with this, mirroring the tracing
/// overhead methodology.
pub fn fault_disabled_hook_cost(iters: u64) -> Duration {
    let injector: Option<Arc<FaultInjector>> = None;
    let t0 = std::time::Instant::now();
    for i in 0..iters {
        if std::hint::black_box(&injector).is_some() {
            // Unreachable: no injector armed. The branch is what we price.
            std::hint::black_box(i);
        }
    }
    t0.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips() {
        for s in [
            "panic@r2:level3",
            "failstop@r0:op17",
            "delay=750@r1:level2:coll=allreduce",
            "corrupt=42@r3:level1",
            "corrupt=7@r0:op5:coll=allgatherv_wire",
            "corrupt=3@r1:level2:coll=ialltoallv_wire",
            "panic@r0:level1;delay=100@r2:level2",
        ] {
            let plan: FaultPlan = s.parse().unwrap_or_else(|e| panic!("`{s}`: {e}"));
            assert_eq!(plan.to_string(), s, "display must round-trip");
            let again: FaultPlan = plan.to_string().parse().unwrap();
            assert_eq!(again, plan);
        }
    }

    #[test]
    fn grammar_rejects_malformed_specs() {
        for s in [
            "panic",                                                            // no site
            "panic@2:level1",                                                   // missing r prefix
            "panic@r2",                                                         // missing trigger
            "panic@r2:round3",                                                  // bad trigger word
            "explode@r2:level3",                                                // unknown kind
            "delay@r2:level3",                  // delay without millis
            "corrupt=1@r0:level1:coll=barrier", // corrupt at non-wire site
            "panic@r2:level3:barrier",          // collective without coll=
            "panic@r0:op1:coll=allreduce:x",    // trailing garbage
            "panic@r0:op1;panic@r1:op1;panic@r2:op1;panic@r3:op1;panic@r4:op1", // too many
        ] {
            assert!(s.parse::<FaultPlan>().is_err(), "`{s}` must be rejected");
        }
        // A name that is no `Comm` collective is the named parse error,
        // not a filter that never fires.
        let e = "panic@r0:op1:coll=reduce_scatter"
            .parse::<FaultPlan>()
            .unwrap_err();
        assert!(e.contains("unknown collective `reduce_scatter`"), "{e}");
    }

    #[test]
    fn empty_and_blank_plans() {
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none().len(), 0);
        let blank: FaultPlan = "".parse().unwrap();
        assert!(blank.is_empty());
        let padded: FaultPlan = " panic@r0:op1 ; ".parse().unwrap();
        assert_eq!(padded.len(), 1);
    }

    #[test]
    fn injector_fires_panic_at_exact_op() {
        let plan: FaultPlan = "panic@r1:op2".parse().unwrap();
        let inj = FaultInjector::new(plan, 1);
        for _ in 0..2 {
            inj.on_collective(CollectiveKind::Barrier, Location::caller());
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.on_collective(CollectiveKind::Allreduce, Location::caller())
        }))
        .expect_err("op 2 must fire");
        let fault = err
            .downcast::<InjectedFault>()
            .expect("typed InjectedFault payload");
        assert_eq!(fault.rank, 1);
        assert_eq!(fault.op, 2);
        assert_eq!(fault.collective, CollectiveKind::Allreduce);
        assert!(fault.to_string().contains("injected panic at rank 1"));
    }

    #[test]
    fn injector_ignores_other_ranks_and_respects_collective_filter() {
        let plan: FaultPlan = "panic@r1:op0:coll=allreduce".parse().unwrap();
        let other = FaultInjector::new(plan, 0);
        other.on_collective(CollectiveKind::Allreduce, Location::caller()); // rank 0: no fire
        let inj = FaultInjector::new(plan, 1);
        inj.on_collective(CollectiveKind::Barrier, Location::caller()); // wrong kind: no fire
    }

    #[test]
    fn level_triggers_fire_at_first_collective_at_or_after_the_level() {
        let plan: FaultPlan = "failstop@r0:level2".parse().unwrap();
        let inj = FaultInjector::new(plan, 0);
        inj.on_collective(CollectiveKind::Barrier, Location::caller()); // NO_LEVEL: no fire
        inj.set_level(1);
        inj.on_collective(CollectiveKind::Barrier, Location::caller()); // level 1 < 2
        inj.set_level(3); // level 2 was skipped; >= still fires
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.on_collective(CollectiveKind::Barrier, Location::caller())
        }))
        .expect_err("level 3 >= 2 must fire");
        assert!(err.is::<FailStopExit>());
    }

    #[test]
    fn corrupt_waits_for_a_wire_payload() {
        let plan: FaultPlan = "corrupt=9@r0:op0".parse().unwrap();
        let inj = FaultInjector::new(plan, 0);
        inj.on_collective(CollectiveKind::IalltoallvWire, Location::caller());
        assert_eq!(
            inj.corrupt_seed(CollectiveKind::IalltoallvWire, false),
            None,
            "empty payload leaves the fault armed"
        );
        inj.on_collective(CollectiveKind::AllgathervWire, Location::caller());
        assert_eq!(
            inj.corrupt_seed(CollectiveKind::AllgathervWire, true),
            Some(9),
            "fires at the next wire site with payload (op >= trigger)"
        );
        assert_eq!(
            inj.corrupt_seed(CollectiveKind::AllgathervWire, true),
            None,
            "fires at most once"
        );
    }

    #[test]
    fn corrupt_site_is_deterministic_and_in_bounds() {
        for seed in 0..64u64 {
            for len in [1usize, 2, 7, 1024] {
                let (i, mask) = corrupt_site(seed, len);
                assert!(i < len);
                assert_ne!(mask, 0);
                assert_eq!((i, mask), corrupt_site(seed, len));
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock performance bound")]
    fn disabled_hook_is_cheap() {
        assert!(fault_disabled_hook_cost(100_000) < Duration::from_secs(1));
    }
}
