//! One run of one workload: set-up, the search loops, aggregation.
//!
//! `--trace 0` measures the end-to-end metrics with nothing switched on.
//! `--trace 1` runs the layer phase, an allocation pass and alternating
//! untraced / traced searches, and reports the per-layer metrics.

use crate::alloc;
use crate::check::Checker;
use crate::inputs::{self, csr_fingerprint, Inputs, Size};
use crate::layers::{self, Effort};
use crate::metrics::{self, Values};
use crate::spans::{self, Recorder, SearchProfile};
use crate::stats::{harmonic_mean, median, percentile};
use crate::workloads::{run_search, ExactCounts, Outcome, Workload};
use crate::RunOpts;
use dmbfs_trace::RankTrace;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Untimed searches before any loop that is timed.
const WARMUPS: usize = 2;
/// Times the input is built in an untraced run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Sources the traced run cycles over: few, so sources come round again
/// and the exact counts can be checked to repeat.
const TRACE_SOURCES: usize = 4;
/// Searches of the allocation pass.
const ALLOC_SEARCHES: usize = 2;
/// Cap on searches per loop under `--smoke`.
const SMOKE_SEARCHES: usize = 8;

/// What one timed search contributed.
struct Sample {
    call_s: f64,
    search_s: f64,
    teps_edges: u64,
    ok: bool,
}

/// The result of one run of one workload in one trace mode.
pub struct RunResult {
    workload: &'static str,
    seed: u64,
    traced: bool,
    /// Searches judged by the correctness gate.
    pub attempted: u64,
    /// Searches that failed it.
    pub failed: u64,
    values: Values,
    /// Samples behind the search statistics.
    samples: usize,
    graph: Value,
    /// Chrome-trace JSON of the benchmark's spans (and, traced, of the
    /// last traced search's rank traces).
    pub chrome: String,
}

impl RunResult {
    fn names(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            metrics::per_layer_names().collect()
        } else {
            metrics::end_to_end_names().collect()
        }
    }

    /// The fields of the contract's result line.
    fn result_fields(&self) -> Vec<(String, Value)> {
        vec![
            ("correct".to_string(), json!(self.failed == 0)),
            ("attempted".to_string(), json!(self.attempted)),
            ("failed".to_string(), json!(self.failed)),
            (
                "metrics".to_string(),
                metrics::metrics_object(self.names(), &self.values),
            ),
        ]
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        serde_json::to_string(&Value::Map(self.result_fields())).expect("result line serializes")
    }

    /// The record `--out` appends: what is needed to read the result
    /// (`compare` consumes these), then the result line's own fields.
    pub fn record(&self, host: &Value) -> String {
        let mut fields = vec![
            ("workload".to_string(), json!(self.workload)),
            ("seed".to_string(), json!(self.seed)),
            ("trace".to_string(), json!(u8::from(self.traced))),
            ("samples".to_string(), json!(self.samples)),
            ("graph".to_string(), self.graph.clone()),
            ("host".to_string(), host.clone()),
        ];
        fields.extend(self.result_fields());
        serde_json::to_string(&Value::Map(fields)).expect("record serializes")
    }

    /// File name of this run's Chrome trace under `--spans DIR`.
    pub fn spans_file_name(&self) -> String {
        format!("{}.trace{}.json", self.workload, u8::from(self.traced))
    }

    /// Every metric by name with its unit and sample count, for people.
    pub fn table(&self) -> String {
        let mut text = format!(
            "## {} · trace {} · seed {} · {} searches judged, {} failed · graph {}\n",
            self.workload,
            u8::from(self.traced),
            self.seed,
            self.attempted,
            self.failed,
            serde_json::to_string(&self.graph).expect("json"),
        );
        for (name, unit) in self.names() {
            text.push_str(&format!(
                "{name:<34} {:>16.6} {unit:<12} n={}\n",
                self.values[name], self.samples
            ));
        }
        text
    }
}

/// Runs `w` once in one trace mode.
pub fn run_workload(w: &Workload, opts: &RunOpts, traced: bool) -> RunResult {
    let size = if opts.smoke { Size::SMOKE } else { Size::FULL };
    let mut rec = Recorder::new();
    let mut values = Values::new();
    let budget = Duration::from_secs_f64(opts.seconds);
    let cap = opts.smoke.then_some(SMOKE_SEARCHES);

    let inputs = inputs::build(w.graph, size, opts.seed, &mut rec);
    let (oracle, oracle_s) = inputs::oracle(&inputs, &mut rec);
    let graph = json!({
        "n": (inputs.graph.num_vertices()),
        "m": (inputs.graph.num_edges()),
        "csr_hash": (format!("{:016x}", csr_fingerprint(&inputs.graph))),
        "sources": (oracle.len())
    });
    let mut gate = Checker::new(oracle, size.validated_sources);

    let (samples, last_trace) = if traced {
        values.insert("bench.oracle_s", oracle_s);
        layered(
            w,
            &inputs,
            opts.smoke,
            budget,
            cap,
            &mut gate,
            &mut rec,
            &mut values,
        )
    } else {
        // The window is split over SETUP_REPS builds of the same input:
        // `setup_s` gets its repetitions, and the searches see that many
        // memory layouts instead of one process-long draw.
        let reps = if opts.smoke { 1 } else { SETUP_REPS };
        let mut builds = vec![inputs.times.total_s];
        let mut samples = Vec::new();
        let mut inputs = inputs;
        for rep in 0..reps {
            if rep > 0 {
                drop(inputs); // never hold two graphs
                inputs = inputs::build(w.graph, size, opts.seed, &mut rec);
                builds.push(inputs.times.total_s);
            }
            let share = cap.map(|c| c.div_ceil(reps));
            search_loop(
                w,
                &inputs,
                budget / reps as u32,
                share,
                &mut gate,
                &mut rec,
                &mut samples,
            );
        }
        end_to_end(&samples, &builds, &mut values);
        (samples.len(), Vec::new())
    };
    RunResult {
        workload: w.name,
        seed: opts.seed,
        traced,
        attempted: gate.attempted(),
        failed: gate.failed(),
        values,
        samples,
        graph,
        chrome: spans::chrome_trace(rec.spans(), &last_trace),
    }
}

/// Issues one search from source index `idx`, judges it outside the timed
/// call, and returns the outcome, the gate's verdict and the check's cost.
fn judged_search(
    w: &Workload,
    inputs: &Inputs,
    idx: usize,
    traced: bool,
    gate: &mut Checker,
    rec: &mut Recorder,
) -> (Outcome, bool, f64) {
    let span = rec.start();
    let outcome = run_search(w, &inputs.graph, inputs.sources[idx], traced);
    rec.end("call", span);
    let span = rec.start();
    let t0 = Instant::now();
    let ok = gate.judge(&inputs.graph, idx, outcome.output.as_ref());
    let check_s = t0.elapsed().as_secs_f64();
    rec.end("check", span);
    (outcome, ok, check_s)
}

fn warm_up(w: &Workload, inputs: &Inputs) {
    for &source in inputs.sources.iter().take(WARMUPS) {
        run_search(w, &inputs.graph, source, false);
    }
}

/// The untraced closed loop: one search at a time, sources cycled on from
/// where `samples` stands, until `budget` has passed (or `cap` searches
/// under `--smoke`).
fn search_loop(
    w: &Workload,
    inputs: &Inputs,
    budget: Duration,
    cap: Option<usize>,
    gate: &mut Checker,
    rec: &mut Recorder,
    samples: &mut Vec<Sample>,
) {
    warm_up(w, inputs);
    let round = rec.start();
    let t0 = Instant::now();
    let mut done = 0;
    while done == 0 || (t0.elapsed() < budget && cap.is_none_or(|c| done < c)) {
        let idx = samples.len() % inputs.sources.len();
        let (outcome, ok, _) = judged_search(w, inputs, idx, false, gate, rec);
        samples.push(Sample {
            call_s: outcome.call_s,
            search_s: outcome.search_s,
            teps_edges: gate.oracle()[idx].teps_edges,
            ok,
        });
        done += 1;
    }
    rec.end("round", round);
}

/// Search and call seconds with every failed search counted as slow as the
/// slowest one seen — a failure is never dropped from the timing samples.
fn penalized(samples: &[Sample]) -> (Vec<f64>, Vec<f64>) {
    let worst = |f: fn(&Sample) -> f64| samples.iter().map(f).fold(0.0, f64::max);
    let (worst_search, worst_call) = (worst(|s| s.search_s), worst(|s| s.call_s));
    samples
        .iter()
        .map(|s| {
            if s.ok {
                (s.search_s, s.call_s)
            } else {
                (worst_search, worst_call)
            }
        })
        .unzip()
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(samples: &[Sample], builds: &[f64], values: &mut Values) {
    let (search, call) = penalized(samples);
    let teps: Vec<f64> = samples
        .iter()
        .zip(&search)
        .map(|(s, &secs)| s.teps_edges as f64 / secs)
        .collect();
    values.insert("teps_hmean", harmonic_mean(&teps) / 1e6);
    values.insert("search_ms_p50", percentile(&search, 50.0) * 1e3);
    values.insert("call_ms_p50", percentile(&call, 50.0) * 1e3);
    values.insert("setup_s", median(builds));
}

/// The traced run. Returns the number of search samples and the rank
/// traces of the last traced search.
#[allow(clippy::too_many_arguments)]
fn layered(
    w: &Workload,
    inputs: &Inputs,
    smoke: bool,
    budget: Duration,
    cap: Option<usize>,
    gate: &mut Checker,
    rec: &mut Recorder,
    values: &mut Values,
) -> (usize, Vec<RankTrace>) {
    let t0 = Instant::now();
    let effort = if smoke { Effort::SMOKE } else { Effort::FULL };
    let span = rec.start();
    layers::run(
        &inputs.graph,
        &inputs.sources,
        &inputs.times,
        effort,
        values,
    );
    rec.end("layers", span);

    warm_up(w, inputs);
    allocation_pass(w, inputs, gate, values);
    let pairs = paired_loop(
        w,
        inputs,
        budget.saturating_sub(t0.elapsed()),
        cap,
        gate,
        rec,
    );
    driver_metrics(&pairs, values);
    trace_metrics(&pairs, values);
    values.insert("bench.check_ms_p50", percentile(&pairs.checks, 50.0) * 1e3);
    values.insert("bench.searches", gate.attempted() as f64);
    (pairs.plain.len(), pairs.last_trace)
}

/// The counting allocator is on for these searches only, so its atomics
/// never sit inside a timed sample.
fn allocation_pass(w: &Workload, inputs: &Inputs, gate: &mut Checker, values: &mut Values) {
    let mut allocs = Vec::new();
    for (idx, &source) in inputs.sources.iter().take(ALLOC_SEARCHES).enumerate() {
        let (outcome, totals) = alloc::counted(|| run_search(w, &inputs.graph, source, false));
        if gate.judge(&inputs.graph, idx, outcome.output.as_ref()) {
            allocs.push(totals);
        }
    }
    let mean = |f: fn(&alloc::Totals) -> u64| {
        allocs.iter().map(|t| f(t) as f64).sum::<f64>() / allocs.len().max(1) as f64
    };
    values.insert("alloc.count_per_search", mean(|t| t.count));
    values.insert("alloc.bytes_per_search", mean(|t| t.bytes));
    values.insert("alloc.peak_live_mb", mean(|t| t.peak_live) / 1e6);
}

/// What the alternating untraced / traced searches of a traced run saw.
#[derive(Default)]
struct Pairs {
    /// The untraced searches.
    plain: Vec<Sample>,
    /// `level_time_split` of each untraced search.
    splits: Vec<(f64, f64, f64)>,
    /// Exact counts of the first correct visit of each cycled source.
    first_counts: BTreeMap<usize, ExactCounts>,
    /// Repeat visits whose counts were compared with the first visit.
    rechecks: u64,
    /// Repeat visits whose counts differed.
    mismatches: u64,
    /// `seconds` of the traced searches.
    traced_s: Vec<f64>,
    /// Slowest-rank profile of each correct traced search.
    profiles: Vec<SearchProfile>,
    /// Spans the trace rings overwrote.
    dropped: u64,
    /// Wall seconds of each correctness check.
    checks: Vec<f64>,
    /// Rank traces of the last correct traced search.
    last_trace: Vec<RankTrace>,
}

/// Untraced and traced searches alternate on the same few sources, so both
/// see the same host weather; their p50s give the tracing overhead. Every
/// cycled source is visited at least once, whatever the budget, so the
/// exact counts always cover the same searches.
fn paired_loop(
    w: &Workload,
    inputs: &Inputs,
    budget: Duration,
    cap: Option<usize>,
    gate: &mut Checker,
    rec: &mut Recorder,
) -> Pairs {
    let cycle = TRACE_SOURCES.min(inputs.sources.len());
    let mut p = Pairs::default();
    let round = rec.start();
    let t0 = Instant::now();
    while p.plain.len() < cycle || (t0.elapsed() < budget && cap.is_none_or(|c| p.plain.len() < c))
    {
        let idx = p.plain.len() % cycle;
        let (outcome, ok, check_s) = judged_search(w, inputs, idx, false, gate, rec);
        p.checks.push(check_s);
        if ok {
            let counts = outcome.exact_counts();
            match p.first_counts.get(&idx) {
                Some(first) => {
                    p.rechecks += 1;
                    p.mismatches += u64::from(*first != counts);
                }
                None => {
                    p.first_counts.insert(idx, counts);
                }
            }
        }
        p.splits.push(outcome.level_time_split());
        p.plain.push(Sample {
            call_s: outcome.call_s,
            search_s: outcome.search_s,
            teps_edges: gate.oracle()[idx].teps_edges,
            ok,
        });

        let (outcome, ok, check_s) = judged_search(w, inputs, idx, true, gate, rec);
        p.checks.push(check_s);
        p.traced_s.push(outcome.search_s);
        p.dropped += outcome.trace.iter().map(|t| t.dropped).sum::<u64>();
        if ok {
            p.profiles.extend(spans::profile_slowest(&outcome.trace));
            p.last_trace = outcome.trace;
        }
    }
    rec.end("round", round);
    eprintln!(
        "exact counts: {} repeat visits checked, {} differed from the first visit",
        p.rechecks, p.mismatches
    );
    p
}

/// `driver.*`: from the public outputs of the untraced searches. The
/// counts are means over the first visit of each cycled source, so they
/// repeat exactly from run to run.
fn driver_metrics(p: &Pairs, values: &mut Values) {
    let (search, call) = penalized(&p.plain);
    values.insert("driver.search_ms_p90", percentile(&search, 90.0) * 1e3);
    values.insert(
        "driver.call_overhead_ms",
        (percentile(&call, 50.0) - percentile(&search, 50.0)) * 1e3,
    );
    let mean_split = |f: fn(&(f64, f64, f64)) -> f64| {
        p.splits.iter().map(f).sum::<f64>() / p.splits.len() as f64
    };
    values.insert("driver.compute_frac", mean_split(|s| s.0));
    values.insert("driver.comm_frac", mean_split(|s| s.1));
    values.insert("driver.imbalance", mean_split(|s| s.2));

    let mean_count = |f: fn(&ExactCounts) -> u64| {
        p.first_counts.values().map(|c| f(c) as f64).sum::<f64>()
            / p.first_counts.len().max(1) as f64
    };
    values.insert("driver.levels", mean_count(|c| c.levels));
    values.insert(
        "driver.bottom_up_levels",
        mean_count(|c| c.bottom_up_levels),
    );
    values.insert("driver.wire_bytes_per_search", mean_count(|c| c.wire_bytes));
    values.insert(
        "driver.logical_bytes_per_search",
        mean_count(|c| c.logical_bytes),
    );
    let loaned = mean_count(|c| c.loaned_bytes);
    let moved = loaned + mean_count(|c| c.copied_bytes);
    values.insert(
        "driver.loaned_frac",
        if moved > 0.0 { loaned / moved } else { 0.0 },
    );
    values.insert(
        "driver.collectives_per_search",
        mean_count(|c| c.collectives),
    );
    values.insert("driver.sieve_hits_per_search", mean_count(|c| c.sieve_hits));
    values.insert("driver.count_mismatches", p.mismatches as f64);
}

/// `trace.*`: self-time shares of the `Search` span on the slowest rank,
/// and what tracing costs.
fn trace_metrics(p: &Pairs, values: &mut Values) {
    let (by_kind, other) = spans::shares(&p.profiles);
    for (metric, kinds) in TRACE_SHARES {
        let share = kinds
            .iter()
            .filter_map(|k| by_kind.get(k))
            .fold(0.0, |a, b| a + b);
        values.insert(metric, share);
    }
    values.insert("trace.other_frac", other);
    values.insert(
        "trace.closure_frac",
        by_kind.values().fold(0.0, |a, b| a + b),
    );
    let (search, _) = penalized(&p.plain);
    values.insert(
        "trace.overhead_frac",
        percentile(&p.traced_s, 50.0) / percentile(&search, 50.0) - 1.0,
    );
    values.insert("trace.dropped_spans", p.dropped as f64);
}

/// Which span kinds (`SpanKind::name()`) each `trace.*_frac` sums.
const TRACE_SHARES: [(&str, &[&str]); 14] = [
    ("trace.pack_frac", &["pack"]),
    ("trace.encode_frac", &["encode"]),
    ("trace.decode_frac", &["decode"]),
    ("trace.unpack_frac", &["unpack"]),
    ("trace.collective_frac", &["collective"]),
    (
        "trace.exchange_wait_frac",
        &["exchange_start", "exchange_wait"],
    ),
    ("trace.bitmap_broadcast_frac", &["bitmap_broadcast"]),
    ("trace.bottom_up_scan_frac", &["bottom_up_scan"]),
    ("trace.transpose_frac", &["transpose"]),
    ("trace.expand_frac", &["expand"]),
    ("trace.spmsv_frac", &["spmsv"]),
    ("trace.fold_frac", &["fold"]),
    ("trace.mask_frac", &["mask"]),
    ("trace.task_batch_frac", &["task_batch"]),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(search_s: f64, ok: bool) -> Sample {
        Sample {
            call_s: search_s + 1.0,
            search_s,
            teps_edges: 1000,
            ok,
        }
    }

    #[test]
    fn a_failed_search_is_kept_as_the_slowest_sample() {
        let samples = [sample(0.2, true), sample(0.01, false), sample(0.5, true)];
        let (search, call) = penalized(&samples);
        assert_eq!(search, vec![0.2, 0.5, 0.5]);
        assert_eq!(call, vec![1.2, 1.5, 1.5]);
    }

    #[test]
    fn every_trace_share_metric_is_registered() {
        for (metric, _) in TRACE_SHARES {
            assert!(metrics::per_layer_names().any(|(name, _)| name == metric));
        }
    }
}
