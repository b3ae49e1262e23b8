#!/usr/bin/env python3
"""Render the paper's figures from the JSON files `dmbfs-bench reproduce` writes.

Usage:
    python3 scripts/plot_figures.py [results_dir] [output_dir]

Reads `results/*.json` (produced by `dmbfs-bench reproduce`: experiment
`strong_scaling` for figs 5-8, `fig9_weak_scaling`, `fig4_imbalance`;
`reproduce all` writes every one) and writes one SVG per
figure. A missing input file is an error naming it (exit code 1). Only
needs matplotlib; figures degrade to a text summary when matplotlib is
unavailable.
"""

import json
import sys
from pathlib import Path

RESULTS = Path(sys.argv[1] if len(sys.argv) > 1 else "results")
OUT = Path(sys.argv[2] if len(sys.argv) > 2 else "results/plots")

ALGORITHMS = ["1D Flat MPI", "2D Flat MPI", "1D Hybrid", "2D Hybrid"]
MARKERS = {"1D Flat MPI": "o", "2D Flat MPI": "s", "1D Hybrid": "^", "2D Hybrid": "D"}


# (name, plotted key, y label, title) of each strong/weak-scaling figure.
SCALING_FIGURES = [
    ("fig5_strong_scaling_franklin", "gteps", "GTEPS", "Fig. 5 — strong scaling, Franklin"),
    ("fig6_comm_franklin", "comm_seconds", "comm time (s)",
     "Fig. 6 — communication time, Franklin"),
    ("fig7_strong_scaling_hopper", "gteps", "GTEPS", "Fig. 7 — strong scaling, Hopper"),
    ("fig8_comm_hopper", "comm_seconds", "comm time (s)", "Fig. 8 — communication time, Hopper"),
    ("fig9_weak_scaling", "total_seconds", "mean search time (s)",
     "Fig. 9 — weak scaling, Franklin"),
]
HEATMAP_FIGURE = "fig4_imbalance"


def load(name):
    with open(RESULTS / f"{name}.json") as f:
        return json.load(f)


def series_by_algorithm(points, key):
    out = {}
    for p in points:
        out.setdefault(p["algorithm"], []).append((p["cores"], p[key]))
    for v in out.values():
        v.sort()
    return out


def plot_strong_scaling(plt, name, key, ylabel, title):
    doc = load(name)
    fig, ax = plt.subplots(figsize=(6, 4))
    for alg, pts in series_by_algorithm(doc["model"], key).items():
        xs, ys = zip(*pts)
        ax.plot(xs, ys, marker=MARKERS.get(alg, "x"), label=alg)
    ax.set_xscale("log")
    ax.set_xlabel("cores")
    ax.set_ylabel(ylabel)
    ax.set_title(title)
    ax.legend(fontsize=8)
    ax.grid(True, alpha=0.3)
    out = OUT / f"{name}.svg"
    fig.tight_layout()
    fig.savefig(out)
    print(f"wrote {out}")


def plot_heatmaps(plt, name):
    doc = load(name)
    fig, axes = plt.subplots(1, 2, figsize=(9, 4))
    for ax, key, title in [
        (axes[0], "diagonal_mpi_pct", "diagonal (1D) vector distribution"),
        (axes[1], "twod_mpi_pct", "2D vector distribution"),
    ]:
        im = ax.imshow(doc[key], vmin=0, vmax=100, cmap="viridis")
        ax.set_title(f"MPI time %, {title}", fontsize=9)
        fig.colorbar(im, ax=ax, shrink=0.8)
    out = OUT / f"{name}.svg"
    fig.tight_layout()
    fig.savefig(out)
    print(f"wrote {out}")


def text_summary():
    print("matplotlib unavailable — text summary of available results:")
    for path in sorted(RESULTS.glob("*.json")):
        with open(path) as f:
            doc = json.load(f)
        size = len(doc) if isinstance(doc, list) else len(doc.get("model", doc))
        print(f"  {path.name}: {size} records")


def main():
    needed = [fig[0] for fig in SCALING_FIGURES] + [HEATMAP_FIGURE]
    missing = [n for n in needed if not (RESULTS / f"{n}.json").exists()]
    if missing:
        for name in missing:
            print(f"missing {RESULTS / name}.json: run `dmbfs-bench reproduce` first",
                  file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        text_summary()
        return 0

    for name, key, ylabel, title in SCALING_FIGURES:
        plot_strong_scaling(plt, name, key, ylabel, title)
    plot_heatmaps(plt, HEATMAP_FIGURE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
