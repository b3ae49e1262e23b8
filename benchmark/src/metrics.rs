//! The metric registry: every metric the benchmark prints, with its unit
//! and direction. `/BENCHMARK.json` lists the same names; a unit test keeps
//! the two in step.

use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A gated end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, measured untraced, same names on every
/// workload. Failures are not a metric here: the result line carries
/// `attempted` and `failed`, and any failure fails the run.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "teps_hmean",
        unit: "MTEPS",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "search_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "call_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

use Better::{Higher, Lower};

/// The per-layer metrics (layer = crate/module name), not gated. Printed,
/// all of them, by every `--trace 1` run; a metric whose layer the
/// workload never enters reads 0.
pub const PER_LAYER: [(&str, &str, Better); 62] = [
    // Layer phase: timed calls into public functions, inputs cut from the
    // largest level of source 0's serial BFS, bucketed for two owners.
    ("graph.gen_s", "s", Lower),
    ("graph.csr_build_s", "s", Lower),
    ("graph.csr_scan_gbps", "GB/s", Higher),
    ("distribute.extract_1d_ms", "ms", Lower),
    ("distribute.extract_2d_ms", "ms", Lower),
    ("matrix.dcsc_build_ms", "ms", Lower),
    ("codec.encode_pairs_mps", "Mpairs/s", Higher),
    ("codec.decode_pairs_mps", "Mpairs/s", Higher),
    ("codec.encode_set_mvs", "Mvertices/s", Higher),
    ("codec.decode_set_mvs", "Mvertices/s", Higher),
    ("codec.pairs_wire_ratio", "ratio", Lower),
    ("codec.set_wire_ratio", "ratio", Lower),
    ("codec.sieve_mops", "Mops/s", Higher),
    ("matrix.spmsv_spa_mflops", "Mflops/s", Higher),
    ("matrix.spmsv_heap_mflops", "Mflops/s", Higher),
    ("comm.barrier_us", "us", Lower),
    ("comm.allreduce_us", "us", Lower),
    ("comm.alltoallv_wire_small_us", "us", Lower),
    ("comm.ialltoallv_wire_small_us", "us", Lower),
    ("comm.alltoallv_wire_large_gbps", "GB/s", Higher),
    ("comm.allgatherv_wire_large_gbps", "GB/s", Higher),
    ("runtime.run_ranks_empty_us", "us", Lower),
    ("runtime.run_ranks_pool_us", "us", Lower),
    ("bfs.serial_ms_p50", "ms", Lower),
    ("bfs.one_d_p1_over_serial", "ratio", Lower),
    // From the public outputs of the untraced searches of the traced run.
    ("driver.search_ms_p90", "ms", Lower),
    ("driver.call_overhead_ms", "ms", Lower),
    ("driver.levels", "count", Lower),
    ("driver.bottom_up_levels", "count", Higher),
    ("driver.compute_frac", "ratio", Higher),
    ("driver.comm_frac", "ratio", Lower),
    ("driver.imbalance", "ratio", Lower),
    ("driver.wire_bytes_per_search", "B", Lower),
    ("driver.logical_bytes_per_search", "B", Lower),
    ("driver.loaned_frac", "ratio", Higher),
    ("driver.collectives_per_search", "count", Lower),
    ("driver.sieve_hits_per_search", "count", Higher),
    ("driver.count_mismatches", "count", Lower),
    // Traced searches: self-time shares of the Search span, slowest rank.
    ("trace.pack_frac", "ratio", Lower),
    ("trace.encode_frac", "ratio", Lower),
    ("trace.decode_frac", "ratio", Lower),
    ("trace.unpack_frac", "ratio", Lower),
    ("trace.collective_frac", "ratio", Lower),
    ("trace.exchange_wait_frac", "ratio", Lower),
    ("trace.bitmap_broadcast_frac", "ratio", Lower),
    ("trace.bottom_up_scan_frac", "ratio", Lower),
    ("trace.transpose_frac", "ratio", Lower),
    ("trace.expand_frac", "ratio", Lower),
    ("trace.spmsv_frac", "ratio", Lower),
    ("trace.fold_frac", "ratio", Lower),
    ("trace.mask_frac", "ratio", Lower),
    ("trace.task_batch_frac", "ratio", Lower),
    ("trace.other_frac", "ratio", Lower),
    ("trace.closure_frac", "ratio", Higher),
    ("trace.overhead_frac", "ratio", Lower),
    ("trace.dropped_spans", "count", Lower),
    // Counting allocator, on for the allocation pass only.
    ("alloc.count_per_search", "count", Lower),
    ("alloc.bytes_per_search", "B", Lower),
    ("alloc.peak_live_mb", "MB", Lower),
    // The benchmark's own costs, so they are never mistaken for the
    // program's.
    ("bench.oracle_s", "s", Lower),
    ("bench.check_ms_p50", "ms", Lower),
    ("bench.searches", "count", Higher),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The `metrics` object of the result line: every metric of `names` with
/// its value and unit. Panics if a value is missing — a run that cannot
/// report a metric it promises is a bug in the runner.
pub fn metrics_object<'a>(
    names: impl IntoIterator<Item = (&'a str, &'a str)>,
    values: &Values,
) -> Value {
    Value::Map(
        names
            .into_iter()
            .map(|(name, unit)| {
                let value = *values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                (name.to_string(), json!({"value": value, "unit": unit}))
            })
            .collect(),
    )
}

/// `(name, unit)` of the end-to-end metrics.
pub fn end_to_end_names() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit))
}

/// `(name, unit)` of the per-layer metrics.
pub fn per_layer_names() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|&(name, unit, _)| (name, unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    /// `/BENCHMARK.json` is what the gate reads; this registry is what the
    /// runner prints and `compare` judges by. They must say the same.
    #[test]
    fn registry_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        let Value::Seq(listed) = &doc["workloads"] else {
            panic!("workloads array");
        };
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        assert_eq!(listed.len(), names.len());
        for (entry, name) in listed.iter().zip(&names) {
            assert_eq!(entry["name"], *name);
        }

        let Value::Seq(e2e) = &doc["end_to_end"] else {
            panic!("end_to_end array");
        };
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry["name"], m.name);
            assert_eq!(entry["unit"], m.unit);
            assert_eq!(entry["better"], m.better.name());
            assert_eq!(entry["bound"], m.bound);
        }

        let Value::Seq(layers) = &doc["per_layer"] else {
            panic!("per_layer array");
        };
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, &(name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(entry["name"], name);
            assert_eq!(entry["unit"], unit);
            assert_eq!(entry["better"], better.name());
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in end_to_end_names().chain(per_layer_names()) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
