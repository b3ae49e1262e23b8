//! Shared experiment plumbing: instance construction, result output,
//! model calibration.

use dmbfs_bfs::serial::serial_bfs;
use dmbfs_graph::gen::{rmat, webcrawl, RmatConfig, WebCrawlConfig};
use dmbfs_graph::{CsrGraph, RandomPermutation};
use dmbfs_model::{GraphShape, MachineProfile, ScalePredictor};
use serde::Serialize;
use std::io::Write;
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::time::Instant;

/// Builds the standard benchmark instance: R-MAT at `scale` with
/// `edge_factor`, canonicalized undirected, vertex ids randomly shuffled
/// (§4.4 / Graph 500 preparation).
pub fn rmat_graph(scale: u32, edge_factor: u64, seed: u64) -> CsrGraph {
    let mut el = rmat(&RmatConfig::graph500_ef(scale, edge_factor, seed));
    el.canonicalize_undirected();
    let perm = RandomPermutation::new(el.num_vertices, seed ^ 0xD5BF);
    let el = perm.apply_edge_list(&el);
    CsrGraph::from_edge_list(&el)
}

/// Builds the uk-union stand-in: a 70-community high-diameter web crawl
/// (≈ 140 BFS levels), shuffled like the R-MAT instances.
pub fn webcrawl_graph(community_size: u64, seed: u64) -> CsrGraph {
    let mut el = webcrawl(&WebCrawlConfig::uk_union_like(community_size, seed));
    el.canonicalize_undirected();
    let perm = RandomPermutation::new(el.num_vertices, seed ^ 0xC4A31);
    let el = perm.apply_edge_list(&el);
    CsrGraph::from_edge_list(&el)
}

/// Functional R-MAT scale for this machine (override: `DMBFS_SCALE`).
pub fn functional_scale() -> u32 {
    scale_or(14)
}

/// `DMBFS_SCALE`, or `default` when it is unset — for experiments whose
/// instance must be larger than the functional default.
pub fn scale_or(default: u32) -> u32 {
    knob("DMBFS_SCALE", default.into(), SCALE_RANGE) as u32
}

/// Sources per TEPS measurement (override: `DMBFS_SOURCES`; the paper uses
/// ≥ 16 — the default here is smaller because functional runs multiplex
/// dozens of rank threads onto this machine's cores).
pub fn num_sources() -> usize {
    knob("DMBFS_SOURCES", 4, 1..=u64::MAX) as usize
}

/// Accepted `DMBFS_SCALE` values: `fig10_degree_sensitivity` also runs
/// the scale minus 2, and R-MAT ids are `u64`.
const SCALE_RANGE: RangeInclusive<u64> = 3..=62;

/// Reads an environment knob through [`parse_knob`]; a bad value ends the
/// experiment with exit code 2.
fn knob(name: &str, default: u64, range: RangeInclusive<u64>) -> u64 {
    let raw = std::env::var(name).ok();
    parse_knob(name, raw.as_deref(), default, range).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2)
    })
}

/// Parses one numeric knob: unset (`None`) is `default`; a value that is
/// not an integer in `range` is an error naming the variable and value.
fn parse_knob(
    name: &str,
    raw: Option<&str>,
    default: u64,
    range: RangeInclusive<u64>,
) -> Result<u64, String> {
    let Some(raw) = raw else {
        return Ok(default);
    };
    match raw.trim().parse::<u64>() {
        Ok(v) if range.contains(&v) => Ok(v),
        Ok(v) if v < *range.start() => Err(format!(
            "{name}={raw} is below the minimum {}",
            range.start()
        )),
        Ok(_) => Err(format!("{name}={raw} is above the maximum {}", range.end())),
        Err(_) => Err(format!("{name}={raw:?} is not a whole number")),
    }
}

/// A calibrated predictor for `profile`: measures this machine's serial
/// traversal rate on a small instance and scales the model's computation
/// terms so modeled absolute times are anchored to real kernel speed.
pub fn calibrated_predictor(profile: MachineProfile) -> ScalePredictor {
    let g = rmat_graph(13, 16, 7);
    let source = dmbfs_graph::components::sample_sources(&g, 1, 1)[0];
    let t0 = Instant::now();
    let out = serial_bfs(&g, source);
    let seconds = t0.elapsed().as_secs_f64().max(1e-6);
    std::hint::black_box(&out);
    let shape = GraphShape {
        n: g.num_vertices(),
        m_traversed: g.num_edges(),
        m_teps: g.num_edges() / 2,
        diameter: out.depth().max(1) as u32,
    };
    let mut pred = ScalePredictor::new(profile);
    pred.calibrate_compute(&shape, seconds);
    pred
}

/// Derives a [`GraphShape`] from a concrete instance and a measured BFS.
pub fn shape_of(g: &CsrGraph, diameter: u32) -> GraphShape {
    GraphShape {
        n: g.num_vertices(),
        m_traversed: g.num_edges(),
        m_teps: g.num_edges() / 2,
        diameter,
    }
}

/// Writes one experiment's JSON document under the result directory and
/// returns the path.
pub fn write_result<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir = std::env::var("DMBFS_RESULT_DIR").unwrap_or_else(|_| "results".into());
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir).expect("cannot create result directory");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("result serialization failed");
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("cannot write result file");
    path
}

/// Prints an aligned text table: header row plus data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            if k < widths.len() {
                widths[k] = widths[k].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(k, c)| format!("{:>width$}", c, width = widths.get(k).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.2}ms", s * 1e3)
    }
}

/// Formats a rate in GTEPS.
pub fn fmt_gteps(teps: f64) -> String {
    format!("{:.2}", teps / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_graph_is_prepared() {
        let g = rmat_graph(8, 16, 3);
        assert_eq!(g.num_vertices(), 256);
        g.check_invariants().unwrap();
        // Symmetric: every edge has its reverse.
        for (u, v) in g.edges().take(200) {
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn calibration_produces_finite_predictor() {
        let pred = calibrated_predictor(MachineProfile::franklin());
        assert!(pred.compute_calibration.is_finite());
        assert!(pred.compute_calibration > 0.0);
    }

    #[test]
    fn result_writer_round_trips() {
        let dir = std::env::temp_dir().join("dmbfs-bench-test");
        std::env::set_var("DMBFS_RESULT_DIR", &dir);
        let path = write_result("unit_test", &serde_json::json!({"x": 1}));
        let back: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back["x"], 1);
        std::env::remove_var("DMBFS_RESULT_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unset_knobs_take_their_default() {
        assert_eq!(parse_knob("DMBFS_SCALE", None, 14, SCALE_RANGE), Ok(14));
        assert_eq!(
            parse_knob("DMBFS_SCALE", Some("12"), 14, SCALE_RANGE),
            Ok(12)
        );
        assert_eq!(parse_knob("DMBFS_SOURCES", Some(" 8 "), 4, 1..=99), Ok(8));
    }

    #[test]
    fn unparsable_scale_is_rejected_naming_the_variable() {
        let err = parse_knob("DMBFS_SCALE", Some("abc"), 14, SCALE_RANGE).unwrap_err();
        assert!(err.contains("DMBFS_SCALE") && err.contains("abc"), "{err}");
    }

    #[test]
    fn zero_sources_are_rejected_naming_the_variable() {
        let err = parse_knob("DMBFS_SOURCES", Some("0"), 4, 1..=99).unwrap_err();
        assert!(err.contains("DMBFS_SOURCES=0"), "{err}");
    }

    #[test]
    fn scale_below_three_is_rejected_naming_the_variable() {
        for low in ["0", "1", "2"] {
            let err = parse_knob("DMBFS_SCALE", Some(low), 14, SCALE_RANGE).unwrap_err();
            assert!(err.contains(&format!("DMBFS_SCALE={low}")), "{err}");
        }
        assert_eq!(parse_knob("DMBFS_SCALE", Some("3"), 14, SCALE_RANGE), Ok(3));
    }

    #[test]
    fn negative_and_oversized_values_are_rejected() {
        assert!(parse_knob("DMBFS_SOURCES", Some("-1"), 4, 1..=99).is_err());
        assert!(parse_knob("DMBFS_SCALE", Some("63"), 14, SCALE_RANGE).is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(120.0), "120");
        assert_eq!(fmt_secs(2.5), "2.50");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_gteps(17.8e9), "17.80");
    }
}
