//! Shared experiment plumbing: the knobs, instance construction, result
//! output, model calibration.

use dmbfs_bfs::serial::serial_bfs;
use dmbfs_graph::gen::{rmat, webcrawl, RmatConfig, WebCrawlConfig};
use dmbfs_graph::{CsrGraph, RandomPermutation};
use dmbfs_model::{GraphShape, MachineProfile, ScalePredictor};
use serde::Serialize;
use std::io::Write;
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// Builds the standard benchmark instance: R-MAT at `scale` with
/// `edge_factor`, canonicalized undirected, vertex ids randomly shuffled
/// (§4.4 / Graph 500 preparation).
pub(crate) fn rmat_graph(scale: u32, edge_factor: u64, seed: u64) -> CsrGraph {
    let mut el = rmat(&RmatConfig::graph500_ef(scale, edge_factor, seed));
    el.canonicalize_undirected();
    let perm = RandomPermutation::new(el.num_vertices, seed ^ 0xD5BF);
    let el = perm.apply_edge_list(&el);
    CsrGraph::from_edge_list(&el)
}

/// Builds the uk-union stand-in: a 70-community high-diameter web crawl
/// (≈ 140 BFS levels), shuffled like the R-MAT instances.
pub(crate) fn webcrawl_graph(community_size: u64, seed: u64) -> CsrGraph {
    let mut el = webcrawl(&WebCrawlConfig::uk_union_like(community_size, seed));
    el.canonicalize_undirected();
    let perm = RandomPermutation::new(el.num_vertices, seed ^ 0xC4A31);
    let el = perm.apply_edge_list(&el);
    CsrGraph::from_edge_list(&el)
}

/// The environment knobs every experiment reads, parsed once before
/// anything runs so a bad value is a usage error with nothing written.
#[derive(Debug)]
pub(crate) struct Knobs {
    /// `DMBFS_SCALE`, when set.
    scale: Option<u32>,
    /// Sources per TEPS measurement: `DMBFS_SOURCES`, default 4 (the paper
    /// uses ≥ 16 — the default here is smaller because functional runs
    /// multiplex dozens of rank threads onto this machine's cores).
    pub(crate) sources: usize,
}

impl Knobs {
    /// Reads `DMBFS_SCALE` and `DMBFS_SOURCES`; the error names the
    /// variable and its value.
    pub(crate) fn from_env() -> Result<Knobs, String> {
        let raw = |name| std::env::var(name).ok();
        let scale = raw("DMBFS_SCALE")
            .map(|v| parse_knob("DMBFS_SCALE", Some(&v), 0, SCALE_RANGE))
            .transpose()?;
        let sources = parse_knob(
            "DMBFS_SOURCES",
            raw("DMBFS_SOURCES").as_deref(),
            4,
            1..=u64::MAX,
        )?;
        Ok(Knobs {
            scale: scale.map(|s| s as u32),
            sources: sources as usize,
        })
    }

    /// Functional R-MAT scale for this machine (override: `DMBFS_SCALE`).
    pub(crate) fn functional_scale(&self) -> u32 {
        self.scale_or(14)
    }

    /// `DMBFS_SCALE`, or `default` when it is unset — for experiments whose
    /// instance must be larger than the functional default.
    pub(crate) fn scale_or(&self, default: u32) -> u32 {
        self.scale.unwrap_or(default)
    }
}

/// Accepted `DMBFS_SCALE` values: `fig10_degree_sensitivity` also runs
/// the scale minus 2, and R-MAT ids are `u64`.
const SCALE_RANGE: RangeInclusive<u64> = 3..=62;

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

/// A calibrated predictor for `profile`: the model's computation terms
/// are scaled so modeled absolute times are anchored to this machine's
/// serial traversal rate, measured on a small instance once per process —
/// every model series of one `reproduce` run shares one rate.
pub(crate) fn calibrated_predictor(profile: MachineProfile) -> ScalePredictor {
    static CALIBRATION: OnceLock<(GraphShape, f64)> = OnceLock::new();
    let (shape, seconds) = CALIBRATION.get_or_init(|| {
        let g = rmat_graph(13, 16, 7);
        let source = dmbfs_graph::components::sample_sources(&g, 1, 1)[0];
        let t0 = Instant::now();
        let out = serial_bfs(&g, source);
        let seconds = t0.elapsed().as_secs_f64().max(1e-6);
        std::hint::black_box(&out);
        (shape_of(&g, out.depth().max(1) as u32), seconds)
    });
    let mut pred = ScalePredictor::new(profile);
    pred.calibrate_compute(shape, *seconds);
    pred
}

/// Derives a [`GraphShape`] from a concrete instance and a measured BFS.
pub(crate) fn shape_of(g: &CsrGraph, diameter: u32) -> GraphShape {
    GraphShape {
        n: g.num_vertices(),
        m_traversed: g.num_edges(),
        m_teps: g.num_edges() / 2,
        diameter,
    }
}

/// Writes one experiment's JSON document under the result directory and
/// returns the path.
pub(crate) fn write_result<T: Serialize>(name: &str, value: &T) -> PathBuf {
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
}
