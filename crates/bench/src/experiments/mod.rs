//! The registry: one module per experiment, named by its ID.

mod ablation_compression;
mod ablation_grid_shape;
mod ablation_relabeling;
mod architectural_trends;
mod direction_ablation;
mod fig10_degree_sensitivity;
mod fig11_webcrawl;
mod fig3_spa_vs_heap;
mod fig4_imbalance;
mod fig9_weak_scaling;
mod headline_summary;
mod hybrid_scaling;
mod model_validation;
mod ref_mpi_comparison;
mod single_node;
mod strong_scaling;
mod sweep;
mod table1_comm_decomposition;
mod table2_pbgl_comparison;

use crate::harness::Knobs;
use serde::Serialize;
use serde_json::Value;

/// One experiment: its ID (the module name), a one-line title, the
/// documents it writes, and the function that measures them.
pub(crate) struct Experiment {
    pub(crate) id: &'static str,
    pub(crate) title: &'static str,
    pub(crate) documents: &'static [&'static str],
    pub(crate) run: fn(&Knobs) -> Vec<Doc>,
}

/// One JSON document, written to `<result dir>/<name>.json`.
pub(crate) struct Doc {
    pub(crate) name: &'static str,
    pub(crate) value: Value,
    /// Claims in `value` that did not hold; any makes `reproduce` exit 1.
    pub(crate) failed: usize,
}

impl Doc {
    fn new(name: &'static str, value: &impl Serialize) -> Doc {
        Doc {
            name,
            value: value.to_content(),
            failed: 0,
        }
    }
}

/// Every experiment, in the order `reproduce all` runs them: the paper's
/// figures and tables, then the ablations and studies.
pub(crate) const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig3_spa_vs_heap",
        title: "SPA speedup over heap for local SpMSV",
        documents: &["fig3_spa_vs_heap"],
        run: fig3_spa_vs_heap::run,
    },
    Experiment {
        id: "fig4_imbalance",
        title: "diagonal vs 2D vector distribution",
        documents: &["fig4_imbalance"],
        run: fig4_imbalance::run,
    },
    Experiment {
        id: "strong_scaling",
        title: "Figs. 5–8, model at paper core counts plus a functional sweep",
        documents: &[
            "fig5_strong_scaling_franklin",
            "fig6_comm_franklin",
            "fig7_strong_scaling_hopper",
            "fig8_comm_hopper",
        ],
        run: strong_scaling::run,
    },
    Experiment {
        id: "fig9_weak_scaling",
        title: "Franklin, ~17M edges per core",
        documents: &["fig9_weak_scaling"],
        run: fig9_weak_scaling::run,
    },
    Experiment {
        id: "fig10_degree_sensitivity",
        title: "Franklin, GTEPS vs average degree",
        documents: &["fig10_degree_sensitivity"],
        run: fig10_degree_sensitivity::run,
    },
    Experiment {
        id: "fig11_webcrawl",
        title: "Hopper, uk-union stand-in, 2D algorithms",
        documents: &["fig11_webcrawl"],
        run: fig11_webcrawl::run,
    },
    Experiment {
        id: "table1_comm_decomposition",
        title: "flat 2D on Franklin, Allgatherv vs Alltoallv share",
        documents: &["table1_comm_decomposition"],
        run: table1_comm_decomposition::run,
    },
    Experiment {
        id: "table2_pbgl_comparison",
        title: "PBGL-like vs Flat 2D (functional)",
        documents: &["table2_pbgl_comparison"],
        run: table2_pbgl_comparison::run,
    },
    Experiment {
        id: "ref_mpi_comparison",
        title: "Flat 1D vs Graph 500 reference-like",
        documents: &["ref_mpi_comparison"],
        run: ref_mpi_comparison::run,
    },
    Experiment {
        id: "single_node",
        title: "shared-memory BFS variants",
        documents: &["single_node"],
        run: single_node::run,
    },
    Experiment {
        id: "model_validation",
        title: "α–β model vs functional runs",
        documents: &["model_validation"],
        run: model_validation::run,
    },
    Experiment {
        id: "architectural_trends",
        title: "who wins as architectures evolve (§7)",
        documents: &["architectural_trends"],
        run: architectural_trends::run,
    },
    Experiment {
        id: "hybrid_scaling",
        title: "flat vs hybrid per-level compute/comm",
        documents: &["hybrid_scaling"],
        run: hybrid_scaling::run,
    },
    Experiment {
        id: "ablation_compression",
        title: "adaptive frontier encoding + sieve",
        documents: &["ablation_compression"],
        run: ablation_compression::run,
    },
    Experiment {
        id: "ablation_grid_shape",
        title: "pr x pc aspect ratio (16 ranks)",
        documents: &["ablation_grid_shape"],
        run: ablation_grid_shape::run,
    },
    Experiment {
        id: "ablation_relabeling",
        title: "random vertex shuffle on/off (§4.4)",
        documents: &["ablation_relabeling"],
        run: ablation_relabeling::run,
    },
    Experiment {
        id: "direction_ablation",
        title: "distributed αβ hybrid vs pure top-down (1D driver)",
        documents: &["direction_ablation"],
        run: direction_ablation::run,
    },
    Experiment {
        id: "sweep",
        title: "one ledger row per (algorithm x RunConfig) point",
        documents: &["sweep"],
        run: sweep::run,
    },
    Experiment {
        id: "headline_summary",
        title: "the paper's claims vs this reproduction",
        documents: &["headline_summary"],
        run: headline_summary::run,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn every_id_is_unique_and_names_its_module() {
        for (i, exp) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|e| e.id != exp.id),
                "{}",
                exp.id
            );
            let module = format!(
                "{}/src/experiments/{}.rs",
                env!("CARGO_MANIFEST_DIR"),
                exp.id
            );
            assert!(Path::new(&module).is_file(), "{module}");
        }
    }

    #[test]
    fn every_result_file_is_written_by_exactly_one_experiment() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .filter_map(|f| f.strip_suffix(".json").map(str::to_owned))
            .filter(|f| f != "chaos_matrix")
            .collect();
        files.sort();
        for file in &files {
            let writers: Vec<&str> = EXPERIMENTS
                .iter()
                .filter(|e| e.documents.contains(&file.as_str()))
                .map(|e| e.id)
                .collect();
            assert_eq!(
                writers.len(),
                1,
                "results/{file}.json is written by {writers:?}"
            );
        }
        let mut documents: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.documents)
            .copied()
            .collect();
        documents.sort();
        assert_eq!(
            documents, files,
            "a registered document has no committed file"
        );
    }
}
