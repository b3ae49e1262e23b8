//! The wire ledger of a whole search, on each distributed configuration the
//! gated benchmark runs: nothing is copied, and what `CommStats` books as
//! loaned is exactly the off-rank wire bytes of the wire collectives — as
//! the same run's trace identifies them, by span kind rather than by the
//! ledger under test (a wire all-to-all is the only `ExchangeStart`; with a
//! codec on, the only all-gathers inside the timed region are
//! `allgatherv_wire`).

use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_comm::CommStats;
use dmbfs_graph::gen::{rmat, webcrawl, RmatConfig, WebCrawlConfig};
use dmbfs_graph::{CsrGraph, Grid2D};
use dmbfs_runtime::DirectionMode;
use dmbfs_trace::{CollectiveTag, RankTrace, SpanKind};

fn undirected(mut el: dmbfs_graph::EdgeList) -> CsrGraph {
    el.canonicalize_undirected();
    CsrGraph::from_edge_list(&el)
}

/// Outbound wire bytes of one rank's wire collectives, read off its trace.
fn traced_wire_out(t: &RankTrace) -> u64 {
    t.spans
        .iter()
        .filter(|s| {
            s.kind == SpanKind::ExchangeStart
                || (s.kind == SpanKind::Collective && s.pattern == CollectiveTag::Allgatherv)
        })
        .map(|s| s.wire)
        .sum()
}

/// Asserts the ledger of one run; returns the total loaned bytes.
fn check(name: &str, stats: &[CommStats], traces: &[RankTrace]) -> u64 {
    assert_eq!(stats.len(), traces.len(), "{name}");
    for (s, t) in stats.iter().zip(traces) {
        assert_eq!(s.copied_bytes(), 0, "{name} rank {}", t.rank);
        assert_eq!(
            s.loaned_bytes(),
            traced_wire_out(t),
            "{name} rank {}",
            t.rank
        );
    }
    stats.iter().map(CommStats::loaned_bytes).sum()
}

#[test]
fn every_benchmark_configuration_ledgers_all_wire_bytes_as_loaned() {
    let rmat_g = undirected(rmat(&RmatConfig::graph500(10, 21)));
    let web_g = undirected(webcrawl(&WebCrawlConfig {
        num_communities: 24,
        community_size: 40,
        intra_degree: 6,
        bridges: 2,
        seed: 21,
    }));
    let one_d = [
        ("1d_topdown", &rmat_g, Bfs1dConfig::flat(2)),
        (
            "1d_diropt",
            &rmat_g,
            Bfs1dConfig::flat(2).with_direction(DirectionMode::Hybrid),
        ),
        ("web_1d_topdown", &web_g, Bfs1dConfig::flat(2)),
        ("1d_threads", &rmat_g, Bfs1dConfig::hybrid(1, 2)),
    ];
    for (name, g, cfg) in one_d {
        let run = bfs1d_run(g, 1, &cfg.with_trace(true));
        let loaned = check(name, &run.per_rank_stats, &run.per_rank_trace);
        // One rank has no peer to lend to; two ranks lend every level.
        assert_eq!(loaned > 0, cfg.ranks > 1, "{name}: {loaned} B loaned");
    }
    let cfg = Bfs2dConfig::flat(Grid2D::new(1, 2)).with_trace(true);
    let run = bfs2d_run(&rmat_g, 1, &cfg);
    assert!(check("2d_topdown", &run.per_rank_stats, &run.per_rank_trace) > 0);
}
