//! Spans: the benchmark's own in-memory recorder, and the analysis that
//! turns the program's per-rank traces (`with_trace(true)`) into self-time
//! shares. Nesting is rebuilt from interval containment, because the
//! program's `SpanRecord`s carry no parent id.

use dmbfs_trace::{to_chrome_trace, RankTrace};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span of the benchmark itself (`setup.generate`, `call`, …).
#[derive(Clone, Copy, Debug)]
pub struct OwnSpan {
    /// Span name.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Keeps the benchmark's own spans in memory; written out (if asked) only
/// when the run has ended.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<OwnSpan>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span: returns its start time.
    pub fn start(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Closes a span opened at `start_ns`.
    pub fn end(&mut self, name: &'static str, start_ns: u64) {
        let end_ns = self.start();
        self.spans.push(OwnSpan {
            name,
            start_ns,
            end_ns,
        });
    }

    /// The recorded spans, in closing order.
    pub fn spans(&self) -> &[OwnSpan] {
        &self.spans
    }
}

/// Self time of every interval: its duration minus the part its children
/// cover, a child being an interval it contains (the innermost container
/// is the parent). Of two identical intervals the one recorded later is
/// the outer one — spans are recorded when they close, inner first.
pub fn self_times(intervals: &[(u64, u64)]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_by_key(|&i| {
        let (start, end) = intervals[i];
        (start, std::cmp::Reverse(end), std::cmp::Reverse(i))
    });
    // Per interval: child coverage so far, and up to where it reaches, so
    // overlapping children are not counted twice.
    let mut covered = vec![0u64; intervals.len()];
    let mut covered_until = vec![0u64; intervals.len()];
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        let (start, end) = intervals[i];
        while let Some(&top) = open.last() {
            let (ps, pe) = intervals[top];
            if ps <= start && end <= pe {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            let from = start.max(covered_until[parent]);
            covered[parent] += end.saturating_sub(from);
            covered_until[parent] = covered_until[parent].max(end);
        }
        open.push(i);
    }
    intervals
        .iter()
        .zip(&covered)
        .map(|(&(start, end), &c)| (end - start).saturating_sub(c))
        .collect()
}

/// Self time per span kind inside one rank's `Search` span.
#[derive(Clone, Debug, Default)]
pub struct SearchProfile {
    /// Duration of the `Search` span.
    pub search_ns: u64,
    /// Self nanoseconds by `SpanKind::name()`, spans inside `Search` only
    /// (the `Search` span's own self time is under `"search"`).
    pub self_ns: BTreeMap<&'static str, u64>,
}

/// Profiles one rank's trace of one search; `None` when the trace holds no
/// `Search` span (tracing was off).
pub fn profile_rank(trace: &RankTrace) -> Option<SearchProfile> {
    let search = trace
        .spans
        .iter()
        .filter(|s| s.kind == dmbfs_trace::SpanKind::Search)
        .max_by_key(|s| s.dur_ns())?;
    let intervals: Vec<(u64, u64)> = trace
        .spans
        .iter()
        .map(|s| (s.start_ns, s.end_ns.max(s.start_ns)))
        .collect();
    let mut self_ns = BTreeMap::new();
    for (s, own) in trace.spans.iter().zip(self_times(&intervals)) {
        if search.start_ns <= s.start_ns && s.end_ns <= search.end_ns {
            *self_ns.entry(s.kind.name()).or_insert(0) += own;
        }
    }
    Some(SearchProfile {
        search_ns: search.dur_ns(),
        self_ns,
    })
}

/// The profile of the slowest rank (longest `Search` span) of one search —
/// the rank the barrier-to-barrier time waits for.
pub fn profile_slowest(traces: &[RankTrace]) -> Option<SearchProfile> {
    traces
        .iter()
        .filter_map(profile_rank)
        .max_by_key(|p| p.search_ns)
}

/// Span kinds whose self time counts as unattributed: the containers.
const CONTAINER_KINDS: [&str; 4] = ["search", "level", "exchange", "direction"];

/// Self-time shares of the `Search` span, summed over searches. Returns
/// `(share by kind name, other share)`; the shares and `other` sum to 1.
pub fn shares(profiles: &[SearchProfile]) -> (BTreeMap<&'static str, f64>, f64) {
    let total: u64 = profiles.iter().map(|p| p.search_ns).sum();
    let mut by_kind: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut other = 0.0;
    if total == 0 {
        return (by_kind, other);
    }
    for p in profiles {
        for (&kind, &ns) in &p.self_ns {
            let share = ns as f64 / total as f64;
            if CONTAINER_KINDS.contains(&kind) {
                other += share;
            } else {
                *by_kind.entry(kind).or_insert(0.0) += share;
            }
        }
    }
    (by_kind, other)
}

/// Chrome-trace JSON of one traced search's rank traces (through
/// `dmbfs_trace::to_chrome_trace`) with the benchmark's own spans added as
/// one more process track.
pub fn chrome_trace(own: &[OwnSpan], ranks: &[RankTrace]) -> String {
    let mut doc: Value =
        serde_json::from_str(&to_chrome_trace(ranks)).expect("to_chrome_trace emits valid JSON");
    let pid = ranks.len() as u64;
    let Value::Map(fields) = &mut doc else {
        panic!("chrome trace is a JSON object");
    };
    let Some((_, Value::Seq(events))) = fields.iter_mut().find(|(k, _)| k == "traceEvents") else {
        panic!("chrome trace has a traceEvents array");
    };
    events.push(json!({
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0u64,
        "args": {"name": "benchmark"}
    }));
    for s in own {
        events.push(json!({
            "name": (s.name), "cat": "benchmark", "ph": "X",
            "ts": (s.start_ns as f64 / 1_000.0),
            "dur": ((s.end_ns - s.start_ns) as f64 / 1_000.0),
            "pid": pid, "tid": 0u64
        }));
    }
    serde_json::to_string(&doc).expect("chrome trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmbfs_trace::{CollectiveTag, SpanKind, SpanRecord, NO_LEVEL};

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            kind,
            pattern: CollectiveTag::None,
            start_ns,
            end_ns,
            level: NO_LEVEL,
            detail: 0,
            bytes: 0,
            wire: 0,
            loaned: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_by_containment() {
        // outer [0,100] ⊃ a [10,40] ⊃ a1 [20,30]; outer ⊃ b [50,90].
        // Recorded in closing order: a1, a, b, outer.
        let iv = [(20, 30), (10, 40), (50, 90), (0, 100)];
        assert_eq!(self_times(&iv), vec![10, 20, 40, 30]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_twins_nest() {
        // Children [10,60] and [40,80] overlap: coverage is 70, not 90.
        assert_eq!(self_times(&[(10, 60), (40, 80), (0, 100)])[2], 30);
        // Identical intervals: the later-recorded one is the parent.
        assert_eq!(self_times(&[(5, 9), (5, 9)]), vec![4, 0]);
        // Disjoint roots have no parent.
        assert_eq!(self_times(&[(0, 5), (7, 9)]), vec![5, 2]);
    }

    #[test]
    fn shares_close_to_one_and_containers_count_as_other() {
        let trace = RankTrace {
            rank: 0,
            spans: vec![
                span(SpanKind::Pack, 10, 30),
                span(SpanKind::Encode, 32, 40),
                span(SpanKind::Collective, 40, 70),
                span(SpanKind::Exchange, 30, 75),
                span(SpanKind::Level, 5, 80),
                span(SpanKind::Search, 0, 100),
                span(SpanKind::Collective, 100, 120), // closing barrier: outside
            ],
            dropped: 0,
        };
        let p = profile_rank(&trace).unwrap();
        assert_eq!(p.search_ns, 100);
        assert_eq!(p.self_ns["pack"], 20);
        assert_eq!(p.self_ns["collective"], 30);
        assert_eq!(p.self_ns["exchange"], 7);
        assert_eq!(p.self_ns["level"], 10);
        assert_eq!(p.self_ns["search"], 25);

        let (by_kind, other) = shares(&[p]);
        assert!((by_kind["pack"] - 0.20).abs() < 1e-12);
        assert!((by_kind["encode"] - 0.08).abs() < 1e-12);
        assert!((other - 0.42).abs() < 1e-12);
        let closure: f64 = by_kind.values().sum();
        assert!((closure + other - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slowest_rank_is_the_one_with_the_longest_search() {
        let fast = RankTrace {
            rank: 0,
            spans: vec![span(SpanKind::Search, 0, 50)],
            dropped: 0,
        };
        let slow = RankTrace {
            rank: 1,
            spans: vec![span(SpanKind::Search, 0, 90)],
            dropped: 0,
        };
        assert_eq!(profile_slowest(&[fast, slow]).unwrap().search_ns, 90);
        assert!(profile_slowest(&[RankTrace::default()]).is_none());
    }

    #[test]
    fn chrome_trace_carries_rank_and_benchmark_tracks() {
        let ranks = [RankTrace {
            rank: 0,
            spans: vec![span(SpanKind::Search, 0, 50)],
            dropped: 0,
        }];
        let own = [OwnSpan {
            name: "call",
            start_ns: 0,
            end_ns: 2_000,
        }];
        let doc: Value = serde_json::from_str(&chrome_trace(&own, &ranks)).unwrap();
        let Value::Seq(events) = &doc["traceEvents"] else {
            panic!("traceEvents array");
        };
        assert!(events.iter().any(|e| e["name"] == "search"));
        assert!(events
            .iter()
            .any(|e| e["name"] == "call" && e["dur"] == 2.0));
    }
}
