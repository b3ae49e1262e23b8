//! Communication accounting.
//!
//! Every collective call records a [`CommEvent`]. Two consumers:
//!
//! 1. **In-process measurement** — the wall time spent inside collectives
//!    (which, with blocking semantics, includes waiting for slower peers)
//!    is the quantity Fig. 4 plots: "The time spent in MPI calls [...] The
//!    idling times of the waiting processors account for the higher MPI
//!    time spent on off-diagonal processors."
//! 2. **Network modeling** — `dmbfs-model` replays events through the α–β
//!    cost model of §5 to produce modeled communication times for machine
//!    profiles (Franklin/Hopper) and core counts we cannot run directly.

use dmbfs_trace::CollectiveTag;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Which traversal direction a BFS level ran in — the per-level output of
/// the Beamer αβ heuristic, recorded alongside the level's timing so
/// stats, traces, and the imbalance analysis can attribute cost to the
/// direction that incurred it. Lives here (not in the algorithm crates)
/// because [`LevelTiming`] carries it through the comm harvest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LevelDirection {
    /// Frontier-side expansion: owners push their frontier's out-edges.
    #[default]
    TopDown,
    /// Owner-side scan: unvisited vertices probe in-neighbors against the
    /// allgathered frontier bitmap.
    BottomUp,
}

impl LevelDirection {
    /// Stable lowercase name (JSON output, table rows, trace details).
    pub fn name(&self) -> &'static str {
        match self {
            LevelDirection::TopDown => "topdown",
            LevelDirection::BottomUp => "bottomup",
        }
    }

    /// Stable numeric tag for trace-span `detail` fields (0 = top-down,
    /// 1 = bottom-up).
    pub fn tag(&self) -> u64 {
        match self {
            LevelDirection::TopDown => 0,
            LevelDirection::BottomUp => 1,
        }
    }

    /// Inverse of [`LevelDirection::tag`]; any nonzero tag reads as
    /// bottom-up.
    pub fn from_tag(tag: u64) -> Self {
        if tag == 0 {
            LevelDirection::TopDown
        } else {
            LevelDirection::BottomUp
        }
    }
}

/// Per-BFS-level phase breakdown for one rank: how much of the level's
/// wall time went to local compute (expansion, SpMSV, merges, codec
/// work) versus communication (time inside collectives, including
/// waiting for slower peers). This is the paper's per-level
/// "computation vs. communication" attribution, and the quantity the
/// hybrid scaling study uses to show where intra-rank threading pays.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LevelTiming {
    /// BFS level (distance from the source).
    pub level: u32,
    /// Wall time outside collectives: the local compute phases.
    pub compute: Duration,
    /// Wall time inside collectives during this level.
    pub comm: Duration,
    /// Which direction this level ran in. Always
    /// [`LevelDirection::TopDown`] for drivers without a bottom-up step.
    pub direction: LevelDirection,
}

/// One collective call as seen by one rank.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CommEvent {
    /// Which collective pattern, selecting the pattern-specific sustained
    /// bandwidth term β_{N,pattern} of §5 — the same tag the collective's
    /// trace span carries. Never [`CollectiveTag::None`].
    pub pattern: CollectiveTag,
    /// Number of ranks in the participating communicator — the paper's
    /// key observation is that 2D limits this to `pr` or `pc` ≈ √p.
    pub group_size: usize,
    /// Logical payload bytes this rank contributed — the size of the
    /// application-level data before any wire encoding.
    pub bytes_out: u64,
    /// Logical payload bytes this rank received.
    pub bytes_in: u64,
    /// Bytes this rank actually put on the wire. Equal to `bytes_out` for
    /// plain collectives; smaller when the payload went through a frontier
    /// codec (compressed exchange).
    pub wire_out: u64,
    /// Bytes this rank actually received off the wire.
    pub wire_in: u64,
    /// Wall time spent inside the call, including barrier waits. For a
    /// nonblocking exchange this is the *exposed* time only: the start and
    /// wait calls themselves, excluding the in-flight window.
    pub wall: Duration,
    /// Of `wire_out`, the bytes that travelled as a zero-copy loan
    /// (receivers decoded straight from this rank's shared buffer): all of
    /// it for the wire collectives, zero for plain collectives.
    pub loaned_out: u64,
    /// Of `wire_out`, the bytes a wire collective shipped as an owned copy.
    /// No collective does — `Comm` always records 0; the field and
    /// [`CommStats::copied_bytes`] stay until the benchmark stops reading
    /// them.
    pub copied_out: u64,
}

/// Aggregate per-rank communication statistics.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CommStats {
    /// Every collective call, in program order.
    pub events: Vec<CommEvent>,
    /// Optional per-BFS-level compute/comm breakdown, recorded by the
    /// algorithm's level loop (one entry per level, in level order).
    pub level_timings: Vec<LevelTiming>,
}

impl CommStats {
    /// Total calls recorded.
    pub fn num_calls(&self) -> usize {
        self.events.len()
    }

    /// Total bytes sent by this rank.
    pub fn bytes_out(&self) -> u64 {
        self.events.iter().map(|e| e.bytes_out).sum()
    }

    /// Total bytes received by this rank.
    pub fn bytes_in(&self) -> u64 {
        self.events.iter().map(|e| e.bytes_in).sum()
    }

    /// Total wall time inside collectives (exposed time only — see
    /// [`CommEvent::wall`]).
    pub fn wall(&self) -> Duration {
        self.events.iter().map(|e| e.wall).sum()
    }

    /// Bytes sent under `pattern`.
    pub fn bytes_out_for(&self, pattern: CollectiveTag) -> u64 {
        self.events
            .iter()
            .filter(|e| e.pattern == pattern)
            .map(|e| e.bytes_out)
            .sum()
    }

    /// Total wire bytes sent by this rank.
    pub fn wire_out(&self) -> u64 {
        self.events.iter().map(|e| e.wire_out).sum()
    }

    /// Total wire bytes received by this rank.
    pub fn wire_in(&self) -> u64 {
        self.events.iter().map(|e| e.wire_in).sum()
    }

    /// Total wire bytes this rank sent as zero-copy loans (see
    /// [`CommEvent::loaned_out`]).
    pub fn loaned_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.loaned_out).sum()
    }

    /// Total wire bytes this rank sent as owned copies through the wire
    /// collectives — 0 for every recorded run (see
    /// [`CommEvent::copied_out`]).
    pub fn copied_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.copied_out).sum()
    }

    /// Total compute time across all recorded level timings.
    pub fn compute_total(&self) -> Duration {
        self.level_timings.iter().map(|t| t.compute).sum()
    }

    /// Total communication time across all recorded level timings.
    pub fn comm_total(&self) -> Duration {
        self.level_timings.iter().map(|t| t.comm).sum()
    }

    /// Merges another rank's stats into this one (event order interleaved
    /// arbitrarily; aggregates remain exact). Level timings concatenate;
    /// callers that want a per-level maximum across ranks should keep the
    /// per-rank stats separate instead.
    pub fn merge(&mut self, other: &CommStats) {
        self.events.extend_from_slice(&other.events);
        self.level_timings.extend_from_slice(&other.level_timings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pattern: CollectiveTag, out: u64, inn: u64, micros: u64) -> CommEvent {
        CommEvent {
            pattern,
            group_size: 4,
            bytes_out: out,
            bytes_in: inn,
            wire_out: out,
            wire_in: inn,
            wall: Duration::from_micros(micros),
            loaned_out: 0,
            copied_out: 0,
        }
    }

    #[test]
    fn aggregates_sum_correctly() {
        let stats = CommStats {
            events: vec![
                ev(CollectiveTag::Alltoallv, 100, 80, 5),
                ev(CollectiveTag::Allgatherv, 40, 200, 7),
                ev(CollectiveTag::Alltoallv, 10, 10, 3),
            ],
            ..Default::default()
        };
        assert_eq!(stats.num_calls(), 3);
        assert_eq!(stats.bytes_out(), 150);
        assert_eq!(stats.bytes_in(), 290);
        assert_eq!(stats.wall(), Duration::from_micros(15));
        assert_eq!(stats.bytes_out_for(CollectiveTag::Allgatherv), 40);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = CommStats {
            events: vec![ev(CollectiveTag::Barrier, 0, 0, 1)],
            ..Default::default()
        };
        let b = CommStats {
            events: vec![ev(CollectiveTag::Allreduce, 8, 0, 2)],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.num_calls(), 2);
    }

    #[test]
    fn direction_tags_round_trip() {
        assert_eq!(LevelDirection::default(), LevelDirection::TopDown);
        for d in [LevelDirection::TopDown, LevelDirection::BottomUp] {
            assert_eq!(LevelDirection::from_tag(d.tag()), d);
        }
        assert_eq!(LevelDirection::TopDown.name(), "topdown");
        assert_eq!(LevelDirection::BottomUp.name(), "bottomup");
    }

    #[test]
    fn level_timings_aggregate_and_merge() {
        let mut a = CommStats::default();
        a.level_timings.push(LevelTiming {
            level: 0,
            compute: Duration::from_micros(30),
            comm: Duration::from_micros(10),
            direction: LevelDirection::TopDown,
        });
        a.level_timings.push(LevelTiming {
            level: 1,
            compute: Duration::from_micros(50),
            comm: Duration::from_micros(20),
            direction: LevelDirection::BottomUp,
        });
        assert_eq!(a.compute_total(), Duration::from_micros(80));
        assert_eq!(a.comm_total(), Duration::from_micros(30));
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.level_timings.len(), 4);
        assert_eq!(a.compute_total(), Duration::from_micros(160));
    }

    #[test]
    fn wire_bytes_track_separately_from_logical() {
        let mut compressed = ev(CollectiveTag::Alltoallv, 1000, 800, 5);
        compressed.wire_out = 250;
        compressed.wire_in = 200;
        let stats = CommStats {
            events: vec![compressed, ev(CollectiveTag::Allreduce, 8, 24, 1)],
            ..Default::default()
        };
        assert_eq!(stats.bytes_out(), 1008);
        assert_eq!(stats.wire_out(), 258);
        assert_eq!(stats.wire_in(), 224);
    }

    #[test]
    fn loaned_and_copied_bytes_sum_independently() {
        let mut a = ev(CollectiveTag::Alltoallv, 1000, 1000, 5);
        a.loaned_out = 700;
        a.copied_out = 300;
        let mut b = ev(CollectiveTag::Allgatherv, 64, 64, 2);
        b.copied_out = 64;
        let stats = CommStats {
            events: vec![a, b],
            ..Default::default()
        };
        assert_eq!(stats.loaned_bytes(), 700);
        assert_eq!(stats.copied_bytes(), 364);
        assert_eq!(CommStats::default().loaned_bytes(), 0);
    }
}
