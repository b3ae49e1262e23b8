//! Load-imbalance analysis over structured traces (the Fig. 4 data).
//!
//! Fig. 4 of Buluç & Madduri (SC'11) is a per-rank × per-level heatmap of
//! time spent inside blocking collectives: "The waiting time for this
//! blocking collective is accounted for the total MPI time", so a rank that
//! arrives early at an `Alltoallv` charges its idle time to communication,
//! and the heatmap exposes which levels and which ranks carry the skew.
//!
//! This module reproduces that analysis from [`dmbfs_trace::RankTrace`]
//! streams (recorded live by the drivers, or re-read from a JSONL trace via
//! [`dmbfs_trace::from_jsonl`]):
//!
//! * a **wait matrix** `wait_ns[rank][level]` — summed [`SpanKind::Collective`]
//!   span durations plus the exposed halves of nonblocking exchanges
//!   (`ExchangeStart` durations and each `ExchangeWait`'s late-sender
//!   share, clipped at the last peer's deposit), the heatmap cells of
//!   Fig. 4;
//! * a **hidden matrix** `hidden_ns[rank][level]` — in-flight exchange time
//!   between a start span ending and its wait span beginning, i.e.
//!   communication a split-form exchange moved behind compute (≈ 0 for the
//!   BFS drivers, whose one exchange per level is the blocking form);
//! * a **compute matrix** `compute_ns[rank][level]` — the rank's `Level` span
//!   minus its collective time at that level, i.e. time doing local work;
//! * per-level and whole-run **imbalance factors** (max over mean across
//!   ranks — 1.0 is perfectly balanced);
//! * a **critical path** split: since levels are barrier-synchronised, the
//!   run can go no faster than the per-level maximum across ranks, summed
//!   over levels, and that bound decomposes into compute and wait shares.

use dmbfs_trace::{CollectiveTag, RankTrace, SpanKind};
use serde::Serialize;

/// Per-rank × per-level imbalance analysis of one traced run.
#[derive(Clone, Debug, Serialize)]
pub struct ImbalanceReport {
    /// Number of ranks (rows of the matrices).
    pub ranks: usize,
    /// Number of BFS levels (columns of the matrices).
    pub levels: usize,
    /// `wait_ns[rank][level]`: nanoseconds inside collectives — the Fig. 4
    /// heatmap cell. Includes barrier waiting, so it *is* the imbalance.
    /// For wire exchanges this counts the *exposed* time only: the
    /// `ExchangeStart` span durations plus each `ExchangeWait`'s
    /// *late-sender* share — the wait clipped at the instant the last
    /// rank's matching `ExchangeStart` ended, i.e. the moment every
    /// peer's data was deposited (Scalasca's late-sender wait-state).
    /// Time a waiter spends runnable-but-descheduled after the data is
    /// ready is CPU queueing, not communication — on hosts where rank
    /// threads outnumber cores it would otherwise swamp the signal — and
    /// falls into [`ImbalanceReport::compute_ns`]. The in-flight window
    /// between a start and its wait is [`ImbalanceReport::hidden_ns`].
    pub wait_ns: Vec<Vec<u64>>,
    /// `hidden_ns[rank][level]`: nanoseconds of in-flight nonblocking
    /// exchange time overlapped with local compute — the gap between the
    /// k-th `ExchangeStart` span ending and the k-th `ExchangeWait` span
    /// beginning at that (rank, level). The BFS drivers call the blocking
    /// form, so for them it is only the few instructions between its two
    /// halves; a caller of the split form sees the communication it *hid*.
    pub hidden_ns: Vec<Vec<u64>>,
    /// `level_ns[rank][level]`: duration of the rank's whole level span.
    pub level_ns: Vec<Vec<u64>>,
    /// `compute_ns[rank][level]`: level time minus collective time
    /// (saturating) — local pack/SpMSV/merge work.
    pub compute_ns: Vec<Vec<u64>>,
    /// Per-level imbalance factor: max over mean of `level_ns` across ranks.
    pub level_imbalance: Vec<f64>,
    /// Whole-run imbalance factor over summed per-rank level time.
    pub imbalance_factor: f64,
    /// Σ over levels of the per-level max `level_ns`: the synchronised
    /// lower bound on traversal time.
    pub critical_path_ns: u64,
    /// Σ over levels of the per-level max `wait_ns` — the communication
    /// share of the critical path.
    pub critical_wait_ns: u64,
    /// Σ over levels of the per-level max `compute_ns` — the compute share.
    pub critical_compute_ns: u64,
    /// Total collective time across all ranks and levels (exposed only,
    /// see [`ImbalanceReport::wait_ns`]).
    pub total_wait_ns: u64,
    /// The alltoallv share of [`ImbalanceReport::total_wait_ns`]: blocking
    /// `Alltoallv` collective spans plus the exposed halves of nonblocking
    /// exchanges. This isolates the frontier-exchange comm wall from the
    /// per-level allreduce/allgather baseline.
    pub total_exchange_exposed_ns: u64,
    /// Total hidden exchange time across all ranks and levels.
    pub total_hidden_ns: u64,
    /// Wire bytes that crossed the exchange as zero-copy loans, summed over
    /// the outbound sides of wire-collective spans (`Collective` with an
    /// alltoallv/allgatherv/point-to-point pattern, plus `ExchangeStart`;
    /// `ExchangeWait` counts the same bytes inbound and is skipped to avoid
    /// double-counting): everything the wire collectives moved — see
    /// `docs/zero-copy.md`.
    pub total_loaned_wire_bytes: u64,
    /// Bytes that receivers cloned off the exchange board — what plain
    /// typed collectives moved — over the same spans as
    /// [`ImbalanceReport::total_loaned_wire_bytes`].
    pub total_copied_wire_bytes: u64,
    /// Total compute time across all ranks and levels.
    pub total_compute_ns: u64,
    /// Per-level traversal direction (`"topdown"` / `"bottomup"`), read
    /// from the 1D driver's per-level `Direction` spans (detail 0 =
    /// top-down, 1 = bottom-up). `None` for levels without a direction
    /// span — 2D traces carry none, and their levels are implicitly
    /// top-down. Lets the heatmap attribute skew to
    /// the direction that produced it: bottom-up levels wait in the
    /// bitmap allgather, top-down levels in the alltoallv exchange.
    pub level_directions: Vec<Option<String>>,
}

impl ImbalanceReport {
    /// Fraction of the critical path spent waiting in collectives, in
    /// `[0, 1]`; 0 when the trace is empty.
    pub fn critical_wait_fraction(&self) -> f64 {
        let denom = self.critical_wait_ns + self.critical_compute_ns;
        if denom == 0 {
            0.0
        } else {
            self.critical_wait_ns as f64 / denom as f64
        }
    }
}

fn max_mean_ratio(values: impl Iterator<Item = u64> + Clone) -> f64 {
    let max = values.clone().max().unwrap_or(0);
    let (sum, n) = values.fold((0u64, 0u64), |(s, n), v| (s + v, n + 1));
    if sum == 0 || n == 0 {
        1.0
    } else {
        max as f64 * n as f64 / sum as f64
    }
}

/// Builds the per-rank × per-level analysis from drained rank traces.
///
/// Spans recorded outside any level (`level < 0`: setup, teardown, the
/// result gather) are excluded, matching the paper's focus on traversal
/// time. Ranks that recorded nothing for a level contribute zero cells.
pub fn analyze(traces: &[RankTrace]) -> ImbalanceReport {
    let ranks = traces.len();
    let levels = traces
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.level >= 0)
        .map(|s| s.level as usize + 1)
        .max()
        .unwrap_or(0);

    let mut wait_ns = vec![vec![0u64; levels]; ranks];
    let mut level_ns = vec![vec![0u64; levels]; ranks];
    let mut hidden_ns = vec![vec![0u64; levels]; ranks];
    let mut total_exchange_exposed_ns = 0u64;
    let mut total_loaned_wire_bytes = 0u64;
    let mut total_copied_wire_bytes = 0u64;

    // ready_ns[level][k]: the instant the *last* rank finished its k-th
    // ExchangeStart at that level — when exchange k's data was fully
    // deposited and a waiter's k-th wait stops being communication. (In
    // the 2D driver the fold exchanges run per processor row; the trace
    // does not record group membership, so the max is taken over all
    // ranks — a conservative over-estimate of readiness that can only
    // inflate, never hide, exposed time.)
    let mut ready_ns: Vec<Vec<u64>> = vec![Vec::new(); levels];
    for t in traces {
        let mut starts: Vec<Vec<u64>> = vec![Vec::new(); levels];
        for s in &t.spans {
            if s.level >= 0 && s.kind == SpanKind::ExchangeStart {
                starts[s.level as usize].push(s.end_ns);
            }
        }
        for (l, mut ends) in starts.into_iter().enumerate() {
            ends.sort_unstable();
            if ready_ns[l].len() < ends.len() {
                ready_ns[l].resize(ends.len(), 0);
            }
            for (k, end) in ends.into_iter().enumerate() {
                ready_ns[l][k] = ready_ns[l][k].max(end);
            }
        }
    }

    for (r, t) in traces.iter().enumerate() {
        // The k-th ExchangeStart at a (rank, level) pairs with the k-th
        // ExchangeWait there: a communicator keeps at most one exchange
        // in flight, so starts and waits interleave
        // strictly (start₀ wait₀ start₁ wait₁ …) in recording order.
        let mut starts: Vec<Vec<u64>> = vec![Vec::new(); levels];
        let mut waits: Vec<Vec<(u64, u64)>> = vec![Vec::new(); levels];
        for s in &t.spans {
            if s.level < 0 {
                continue;
            }
            let l = s.level as usize;
            match s.kind {
                SpanKind::Collective => {
                    wait_ns[r][l] += s.dur_ns();
                    if s.pattern == CollectiveTag::Alltoallv {
                        total_exchange_exposed_ns += s.dur_ns();
                    }
                    if matches!(
                        s.pattern,
                        CollectiveTag::Alltoallv
                            | CollectiveTag::Allgatherv
                            | CollectiveTag::PointToPoint
                    ) {
                        total_loaned_wire_bytes += s.loaned;
                        total_copied_wire_bytes += s.wire.saturating_sub(s.loaned);
                    }
                }
                // The start half is always exposed; the wait half is
                // clipped to its late-sender share below.
                SpanKind::ExchangeStart => {
                    wait_ns[r][l] += s.dur_ns();
                    total_exchange_exposed_ns += s.dur_ns();
                    total_loaned_wire_bytes += s.loaned;
                    total_copied_wire_bytes += s.wire.saturating_sub(s.loaned);
                    starts[l].push(s.end_ns);
                }
                SpanKind::ExchangeWait => {
                    waits[l].push((s.start_ns, s.end_ns));
                }
                SpanKind::Level => level_ns[r][l] += s.dur_ns(),
                _ => {}
            }
        }
        for l in 0..levels {
            starts[l].sort_unstable();
            waits[l].sort_unstable();
            for (k, &(wait_begin, wait_end)) in waits[l].iter().enumerate() {
                // Exposed share of the k-th wait: until the last matching
                // deposit landed (the waiter's own start is in the max, so
                // a ready instant always exists; full duration otherwise).
                let ready = ready_ns[l].get(k).copied().unwrap_or(wait_end);
                let exposed = ready.clamp(wait_begin, wait_end) - wait_begin;
                wait_ns[r][l] += exposed;
                total_exchange_exposed_ns += exposed;
                if let Some(start_end) = starts[l].get(k) {
                    hidden_ns[r][l] += wait_begin.saturating_sub(*start_end);
                }
            }
        }
    }
    // Direction tags: any rank's Direction span works (the decision is
    // computed from allreduced counts, so all ranks record the same tag).
    let mut level_directions: Vec<Option<String>> = vec![None; levels];
    for t in traces {
        for s in &t.spans {
            if s.kind == SpanKind::Direction && s.level >= 0 {
                let name = if s.detail == 0 { "topdown" } else { "bottomup" };
                level_directions[s.level as usize] = Some(name.to_string());
            }
        }
    }

    let compute_ns: Vec<Vec<u64>> = (0..ranks)
        .map(|r| {
            (0..levels)
                .map(|l| level_ns[r][l].saturating_sub(wait_ns[r][l]))
                .collect()
        })
        .collect();

    let level_imbalance: Vec<f64> = (0..levels)
        .map(|l| max_mean_ratio((0..ranks).map(|r| level_ns[r][l])))
        .collect();
    let imbalance_factor = max_mean_ratio(level_ns.iter().map(|row| row.iter().sum::<u64>()));

    let col_max = |m: &[Vec<u64>], l: usize| m.iter().map(|row| row[l]).max().unwrap_or(0);
    let critical_path_ns = (0..levels).map(|l| col_max(&level_ns, l)).sum();
    let critical_wait_ns = (0..levels).map(|l| col_max(&wait_ns, l)).sum();
    let critical_compute_ns = (0..levels).map(|l| col_max(&compute_ns, l)).sum();

    ImbalanceReport {
        ranks,
        levels,
        total_wait_ns: wait_ns.iter().flatten().sum(),
        total_exchange_exposed_ns,
        total_hidden_ns: hidden_ns.iter().flatten().sum(),
        total_loaned_wire_bytes,
        total_copied_wire_bytes,
        total_compute_ns: compute_ns.iter().flatten().sum(),
        wait_ns,
        hidden_ns,
        level_ns,
        compute_ns,
        level_imbalance,
        imbalance_factor,
        critical_path_ns,
        critical_wait_ns,
        critical_compute_ns,
        level_directions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmbfs_trace::{CollectiveTag, SpanRecord};

    fn span(kind: SpanKind, level: i64, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            kind,
            pattern: if kind == SpanKind::Collective {
                CollectiveTag::Alltoallv
            } else {
                CollectiveTag::None
            },
            start_ns,
            end_ns,
            level,
            detail: 0,
            bytes: 0,
            wire: 0,
            loaned: 0,
        }
    }

    fn rank(rank: usize, spans: Vec<SpanRecord>) -> RankTrace {
        RankTrace {
            rank,
            spans,
            dropped: 0,
        }
    }

    #[test]
    fn wait_matrix_sums_collectives_per_rank_and_level() {
        // Rank 0: level 0 takes 100ns of which 60ns collective; level 1 takes
        // 50ns all compute. Rank 1: level 0 takes 100ns of which 20ns
        // collective (two calls); level 1 takes 150ns with 150ns collective.
        let traces = vec![
            rank(
                0,
                vec![
                    span(SpanKind::Collective, 0, 10, 70),
                    span(SpanKind::Level, 0, 0, 100),
                    span(SpanKind::Level, 1, 100, 150),
                    span(SpanKind::Search, -1, 0, 160),
                ],
            ),
            rank(
                1,
                vec![
                    span(SpanKind::Collective, 0, 10, 20),
                    span(SpanKind::Collective, 0, 30, 40),
                    span(SpanKind::Level, 0, 0, 100),
                    span(SpanKind::Collective, 1, 100, 250),
                    span(SpanKind::Level, 1, 100, 250),
                ],
            ),
        ];
        let rep = analyze(&traces);
        assert_eq!(rep.ranks, 2);
        assert_eq!(rep.levels, 2);
        assert_eq!(rep.wait_ns, vec![vec![60, 0], vec![20, 150]]);
        assert_eq!(rep.level_ns, vec![vec![100, 50], vec![100, 150]]);
        assert_eq!(rep.compute_ns, vec![vec![40, 50], vec![80, 0]]);
        // Level 0 balanced (100 vs 100); level 1 skewed 150 vs 50.
        assert!((rep.level_imbalance[0] - 1.0).abs() < 1e-12);
        assert!((rep.level_imbalance[1] - 1.5).abs() < 1e-12);
        // Totals: rank 0 = 150, rank 1 = 250 → 250 / 200 mean.
        assert!((rep.imbalance_factor - 1.25).abs() < 1e-12);
        assert_eq!(rep.critical_path_ns, 100 + 150);
        assert_eq!(rep.critical_wait_ns, 60 + 150);
        assert_eq!(rep.critical_compute_ns, 80 + 50);
        assert_eq!(rep.total_wait_ns, 230);
        assert_eq!(rep.total_compute_ns, 170);
        assert!((rep.critical_wait_fraction() - 210.0 / 340.0).abs() < 1e-12);
    }

    #[test]
    fn overlapped_exchanges_split_exposed_from_hidden() {
        // Two ranks, one level, two split-form exchanges each. Rank 1 is
        // the late sender for exchange 0: its start₀ ends at 52, so rank
        // 0's wait₀ [50,55] is exposed only for [50,52] — the rest of the
        // span is post-ready (CPU queueing) and stays out of the wait
        // matrix. Exchange 1 deposits (ending 60) all land before either
        // wait₁ begins, so both wait₁ spans are fully hidden-by-readiness.
        let traces = vec![
            rank(
                0,
                vec![
                    span(SpanKind::ExchangeStart, 0, 10, 20),
                    span(SpanKind::ExchangeWait, 0, 50, 55),
                    span(SpanKind::ExchangeStart, 0, 55, 60),
                    span(SpanKind::ExchangeWait, 0, 90, 100),
                    span(SpanKind::Collective, 0, 100, 110),
                    span(SpanKind::Level, 0, 0, 120),
                ],
            ),
            rank(
                1,
                vec![
                    span(SpanKind::ExchangeStart, 0, 10, 52),
                    span(SpanKind::ExchangeWait, 0, 52, 58),
                    span(SpanKind::ExchangeStart, 0, 58, 60),
                    span(SpanKind::ExchangeWait, 0, 60, 95),
                    span(SpanKind::Level, 0, 0, 120),
                ],
            ),
        ];
        let rep = analyze(&traces);
        // Rank 0: starts 10+5, wait₀ late-sender 2, wait₁ 0, collective 10.
        // Rank 1: starts 42+2, both waits begin at/after readiness → 0.
        assert_eq!(rep.wait_ns, vec![vec![27], vec![44]]);
        // Exchange share: everything above except nothing — the lone
        // Collective span is Alltoallv-patterned too, so 27 + 44.
        assert_eq!(rep.total_exchange_exposed_ns, 71);
        // Hidden stays the start→wait in-flight gap, per rank.
        assert_eq!(rep.hidden_ns, vec![vec![60], vec![0]]);
        assert_eq!(rep.total_hidden_ns, 60);
        // Everything not exposed comm is charged to the compute cell.
        assert_eq!(rep.compute_ns, vec![vec![93], vec![76]]);
    }

    #[test]
    fn loaned_and_copied_wire_bytes_attribute_outbound_sides_only() {
        let mut coll = span(SpanKind::Collective, 0, 10, 20); // Alltoallv pattern
        coll.wire = 1000;
        coll.loaned = 600;
        let mut gather = span(SpanKind::Collective, 0, 30, 40);
        gather.pattern = CollectiveTag::Allgatherv;
        gather.wire = 100;
        gather.loaned = 100;
        let mut reduce = span(SpanKind::Collective, 0, 45, 50);
        reduce.pattern = CollectiveTag::Allreduce;
        reduce.wire = 64; // plain collective: never loan-attributed
        let mut start = span(SpanKind::ExchangeStart, 0, 50, 60);
        start.pattern = CollectiveTag::Alltoallv;
        start.wire = 50;
        start.loaned = 0;
        let mut wait = span(SpanKind::ExchangeWait, 0, 60, 70);
        wait.pattern = CollectiveTag::Alltoallv;
        wait.wire = 50; // inbound side of the same bytes: skipped
        wait.loaned = 50;
        let traces = vec![rank(
            0,
            vec![
                coll,
                gather,
                reduce,
                start,
                wait,
                span(SpanKind::Level, 0, 0, 80),
            ],
        )];
        let rep = analyze(&traces);
        assert_eq!(rep.total_loaned_wire_bytes, 600 + 100);
        assert_eq!(rep.total_copied_wire_bytes, 400 + 50);
    }

    #[test]
    fn blocking_traces_have_zero_hidden_time() {
        let traces = vec![rank(
            0,
            vec![
                span(SpanKind::Collective, 0, 5, 25),
                span(SpanKind::Level, 0, 0, 40),
            ],
        )];
        let rep = analyze(&traces);
        assert_eq!(rep.hidden_ns, vec![vec![0]]);
        assert_eq!(rep.total_hidden_ns, 0);
    }

    #[test]
    fn direction_spans_tag_levels_and_untagged_levels_stay_none() {
        let mut dir_span = span(SpanKind::Direction, 1, 0, 1);
        dir_span.detail = 1; // bottom-up
        let traces = vec![rank(
            0,
            vec![
                span(SpanKind::Direction, 0, 0, 1), // detail 0 = topdown
                span(SpanKind::Level, 0, 0, 40),
                dir_span,
                span(SpanKind::Level, 1, 40, 80),
                span(SpanKind::Level, 2, 80, 90), // no direction span
            ],
        )];
        let rep = analyze(&traces);
        assert_eq!(
            rep.level_directions,
            vec![
                Some("topdown".to_string()),
                Some("bottomup".to_string()),
                None
            ]
        );
    }

    #[test]
    fn empty_traces_yield_empty_report() {
        let rep = analyze(&[rank(0, vec![])]);
        assert_eq!(rep.levels, 0);
        assert_eq!(rep.critical_path_ns, 0);
        assert!((rep.imbalance_factor - 1.0).abs() < 1e-12);
        assert_eq!(rep.critical_wait_fraction(), 0.0);
    }

    #[test]
    fn analysis_consumes_the_jsonl_export() {
        // The model layer is the downstream consumer of the JSONL trace
        // format: round-trip through the exporter and re-analyze.
        let traces = vec![rank(
            0,
            vec![
                span(SpanKind::Collective, 0, 5, 25),
                span(SpanKind::Level, 0, 0, 40),
            ],
        )];
        let doc = dmbfs_trace::to_jsonl(&traces);
        let reread = dmbfs_trace::from_jsonl(&doc).expect("exporter output parses");
        let rep = analyze(&reread);
        assert_eq!(rep.wait_ns, vec![vec![20]]);
        assert_eq!(rep.compute_ns, vec![vec![20]]);
    }
}
