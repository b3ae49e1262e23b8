//! Event replay: modeled network time of a *functional* run.
//!
//! Functional runs on the in-process runtime record exact per-rank
//! [`CommEvent`] streams — what was sent, to whom, under which collective,
//! with how many participants. Replaying those events through a
//! [`MachineProfile`] yields the communication time the same execution
//! would have cost on a real interconnect. Because the event streams are
//! exact (not asymptotic), replay captures effects the closed-form
//! predictor rounds away: per-level frontier-size variation, empty levels
//! of high-diameter graphs, and the expand/fold volume asymmetry of
//! Table 1.

use crate::profile::MachineProfile;
use dmbfs_comm::{CollectiveTag, CommEvent};

/// Modeled wall time of one collective call on `profile`, with `ppn`
/// processes per node.
///
/// The per-call cost follows §5: a latency term proportional to the
/// participant count (`p·α_N`, the cost of starting p point-to-point
/// transfers in a flat collective implementation) plus the payload over the
/// pattern-specific sustained bandwidth. Reductions/broadcasts use
/// `log₂(p)` rounds as in tree-based MPI implementations.
pub fn event_time(profile: &MachineProfile, ev: &CommEvent, ppn: usize) -> f64 {
    let p = ev.group_size.max(1) as f64;
    // Bandwidth is charged for what actually crosses the network: the wire
    // bytes. For plain collectives wire == logical; with a frontier codec
    // the wire side is smaller and the modeled β term shrinks with it (the
    // latency term is unaffected — compression saves bandwidth, not α).
    let bytes = ev.wire_out.max(ev.wire_in) as f64;
    match ev.pattern {
        CollectiveTag::Alltoallv => {
            p * profile.alpha_net + bytes * profile.inv_bw_alltoall(ev.group_size, ppn)
        }
        CollectiveTag::Allgatherv => {
            p * profile.alpha_net + bytes * profile.inv_bw_allgather(ev.group_size, ppn)
        }
        CollectiveTag::Allreduce | CollectiveTag::Broadcast => {
            p.log2().max(1.0) * profile.alpha_net + bytes * profile.inv_bw_p2p(ppn)
        }
        CollectiveTag::PointToPoint => profile.alpha_net + bytes * profile.inv_bw_p2p(ppn),
        CollectiveTag::Barrier | CollectiveTag::None => p.log2().max(1.0) * profile.alpha_net,
    }
}

/// Modeled communication time of one rank: the sum over its event stream.
pub fn replay_rank_time(profile: &MachineProfile, events: &[CommEvent], ppn: usize) -> f64 {
    events.iter().map(|e| event_time(profile, e, ppn)).sum()
}

/// Modeled communication time of a whole run: the maximum over ranks
/// (collectives are bulk-synchronous, so the slowest rank is the critical
/// path).
pub fn replay_comm_time(
    profile: &MachineProfile,
    per_rank_events: &[Vec<CommEvent>],
    ppn: usize,
) -> f64 {
    per_rank_events
        .iter()
        .map(|ev| replay_rank_time(profile, ev, ppn))
        .fold(0.0, f64::max)
}

/// Splits a rank's modeled time by pattern — the decomposition Table 1
/// reports ("Allgatherv takes place during the expand phase and Alltoallv
/// takes place during the fold phase").
pub fn replay_by_pattern(
    profile: &MachineProfile,
    events: &[CommEvent],
    ppn: usize,
) -> Vec<(CollectiveTag, f64)> {
    let mut acc: Vec<(CollectiveTag, f64)> = Vec::new();
    for ev in events {
        let t = event_time(profile, ev, ppn);
        match acc.iter_mut().find(|(p, _)| *p == ev.pattern) {
            Some((_, total)) => *total += t,
            None => acc.push((ev.pattern, t)),
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ev(pattern: CollectiveTag, group: usize, bytes: u64) -> CommEvent {
        CommEvent {
            pattern,
            group_size: group,
            bytes_out: bytes,
            bytes_in: bytes,
            wire_out: bytes,
            wire_in: bytes,
            wall: Duration::ZERO,
            loaned_out: 0,
            copied_out: bytes,
        }
    }

    #[test]
    fn bigger_payloads_cost_more() {
        let f = MachineProfile::franklin();
        let small = event_time(&f, &ev(CollectiveTag::Alltoallv, 64, 1 << 10), 4);
        let large = event_time(&f, &ev(CollectiveTag::Alltoallv, 64, 1 << 24), 4);
        assert!(large > small * 50.0);
    }

    #[test]
    fn more_participants_cost_more_latency() {
        let f = MachineProfile::franklin();
        let few = event_time(&f, &ev(CollectiveTag::Alltoallv, 16, 0), 4);
        let many = event_time(&f, &ev(CollectiveTag::Alltoallv, 4096, 0), 4);
        assert!((many / few - 256.0).abs() < 1.0);
    }

    #[test]
    fn barrier_is_latency_only() {
        let f = MachineProfile::franklin();
        let t = event_time(&f, &ev(CollectiveTag::Barrier, 1024, 0), 4);
        assert!(t < 1024.0 * f.alpha_net);
        assert!(t > 0.0);
    }

    #[test]
    fn critical_path_is_max_over_ranks() {
        let f = MachineProfile::franklin();
        let fast = vec![ev(CollectiveTag::Alltoallv, 4, 100)];
        let slow = vec![ev(CollectiveTag::Alltoallv, 4, 1 << 26)];
        let total = replay_comm_time(&f, &[fast.clone(), slow.clone()], 4);
        assert_eq!(total, replay_rank_time(&f, &slow, 4));
        assert!(total > replay_rank_time(&f, &fast, 4));
    }

    #[test]
    fn compressed_events_cost_less_bandwidth_but_same_latency() {
        let f = MachineProfile::franklin();
        let plain = ev(CollectiveTag::Alltoallv, 64, 1 << 24);
        let mut compressed = plain;
        compressed.wire_out = 1 << 21;
        compressed.wire_in = 1 << 21;
        let t_plain = event_time(&f, &plain, 4);
        let t_compressed = event_time(&f, &compressed, 4);
        assert!(t_compressed < t_plain);
        // With zero wire bytes only the latency term remains, and latency
        // does not depend on the logical payload.
        let mut latency_only = plain;
        latency_only.wire_out = 0;
        latency_only.wire_in = 0;
        let empty = ev(CollectiveTag::Alltoallv, 64, 0);
        assert_eq!(event_time(&f, &latency_only, 4), event_time(&f, &empty, 4));
    }

    #[test]
    fn pattern_split_sums_to_total() {
        let f = MachineProfile::franklin();
        let events = vec![
            ev(CollectiveTag::Alltoallv, 64, 1 << 20),
            ev(CollectiveTag::Allgatherv, 8, 1 << 22),
            ev(CollectiveTag::Allreduce, 64, 8),
            ev(CollectiveTag::Alltoallv, 64, 1 << 18),
        ];
        let split = replay_by_pattern(&f, &events, 4);
        let total: f64 = split.iter().map(|(_, t)| t).sum();
        let direct = replay_rank_time(&f, &events, 4);
        assert!((total - direct).abs() < 1e-12);
        assert_eq!(split.len(), 3);
    }
}
