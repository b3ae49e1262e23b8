//! The correctness gate. Runs outside every timed region: a search counts
//! as correct only if its level array hashes to the serial oracle's
//! fingerprint and — for the first few distinct sources — its parent tree
//! passes the full Graph500 rules of `validate_bfs`.

use crate::inputs::{levels_fingerprint, Oracle};
use dmbfs_bfs::validate::validate_bfs;
use dmbfs_bfs::BfsOutput;
use dmbfs_graph::CsrGraph;

/// Counts searches attempted and failed for one run.
pub struct Checker {
    oracle: Vec<Oracle>,
    /// Sources `0..validate_first` also go through `validate_bfs`, once.
    validate_first: usize,
    validated: Vec<bool>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// A gate over `oracle`'s sources.
    pub fn new(oracle: Vec<Oracle>, validate_first: usize) -> Self {
        Self {
            validated: vec![false; oracle.len()],
            oracle,
            validate_first,
            attempted: 0,
            failed: 0,
        }
    }

    /// The oracle's facts, by source index.
    pub fn oracle(&self) -> &[Oracle] {
        &self.oracle
    }

    /// Judges the outcome of one search on `graph` from source index
    /// `idx`; `None` means the call panicked. Returns whether it counts as
    /// correct.
    pub fn judge(&mut self, graph: &CsrGraph, idx: usize, out: Option<&BfsOutput>) -> bool {
        self.attempted += 1;
        let ok = out.is_some_and(|out| self.output_is_correct(graph, idx, out));
        if !ok {
            self.failed += 1;
        }
        ok
    }

    fn output_is_correct(&mut self, graph: &CsrGraph, idx: usize, out: &BfsOutput) -> bool {
        let want = self.oracle[idx];
        if out.source != want.source
            || out.num_reached() != want.reached
            || levels_fingerprint(&out.levels) != want.levels_fp
        {
            eprintln!(
                "check: source {}: level array differs from the serial oracle",
                want.source
            );
            return false;
        }
        if idx < self.validate_first && !self.validated[idx] {
            self.validated[idx] = true;
            if let Err(e) = validate_bfs(graph, out.source, &out.parents, &out.levels) {
                eprintln!("check: source {}: validate_bfs: {e}", want.source);
                return false;
            }
        }
        true
    }

    /// Searches judged so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Searches that failed the gate so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// Process exit code for a run with `failed` failed searches: any failure
/// makes the command exit non-zero.
pub fn exit_code(failed: u64) -> u8 {
    u8::from(failed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::oracle_of;
    use dmbfs_bfs::serial::serial_bfs;
    use dmbfs_graph::gen::grid2d;

    fn fixture() -> (CsrGraph, Vec<Oracle>, BfsOutput) {
        let graph = CsrGraph::from_edge_list(&grid2d(6, 6));
        let good = serial_bfs(&graph, 0);
        let oracle = vec![oracle_of(&graph, &good)];
        (graph, oracle, good)
    }

    #[test]
    fn a_correct_search_passes_and_exits_zero() {
        let (graph, oracle, good) = fixture();
        let mut gate = Checker::new(oracle.clone(), 1);
        assert!(gate.judge(&graph, 0, Some(&good)));
        assert_eq!((gate.attempted(), gate.failed()), (1, 0));
        assert_eq!(exit_code(gate.failed()), 0);
    }

    // The negative checks: "benchmark passes" must mean the outputs were
    // actually looked at, so the gate has to be able to fail.

    #[test]
    fn one_perturbed_level_fails_the_gate() {
        let (graph, oracle, good) = fixture();
        let mut bad = good.clone();
        bad.levels[17] += 1;
        let mut gate = Checker::new(oracle.clone(), 0);
        assert!(!gate.judge(&graph, 0, Some(&bad)));
        assert!(gate.failed() as f64 / gate.attempted() as f64 > 0.0);
        assert_ne!(exit_code(gate.failed()), 0);
    }

    #[test]
    fn one_bad_tree_edge_fails_the_gate_though_levels_match() {
        let (graph, oracle, good) = fixture();
        // Vertex 35 (far corner) claims the source as parent: the level
        // array still equals the oracle's, only validate_bfs can object.
        let mut bad = good.clone();
        bad.parents[35] = 0;
        assert_eq!(bad.levels, good.levels);
        let mut gate = Checker::new(oracle.clone(), 1);
        assert!(!gate.judge(&graph, 0, Some(&bad)));
        assert_ne!(exit_code(gate.failed()), 0);
        // Without the full validation the fingerprint alone lets it through
        // — which is why the first sources always get validate_bfs.
        let mut shallow = Checker::new(oracle.clone(), 0);
        assert!(shallow.judge(&graph, 0, Some(&bad)));
    }

    #[test]
    fn a_panicked_search_counts_as_failed() {
        let (graph, oracle, _) = fixture();
        let mut gate = Checker::new(oracle.clone(), 1);
        assert!(!gate.judge(&graph, 0, None));
        assert_eq!((gate.attempted(), gate.failed()), (1, 1));
    }
}
