"""Method dispatch + timing glue shared by the table/figure harnesses.

``run_method`` gives every paper method an identical interface and the
Tab.-2 time split: for graph-based configurations the KNN-graph
construction counts as *Init* (exactly how the paper books it), the
GK-means clustering as *Iter*.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.closure import closure_kmeans
from repro.baselines.lloyd import lloyd_kmeans
from repro.baselines.minibatch import minibatch_kmeans
from repro.baselines.nn_descent import nn_descent
from repro.common.result import ClusterRun
from repro.core.bkm import boost_kmeans
from repro.core.gkmeans import gk_means
from repro.core.knn_graph import build_knn_graph

#: method key -> display name used in the paper's figures/tables
METHOD_NAMES = {
    "kmeans": "k-means",
    "bkm": "BKM",
    "minibatch": "Mini-Batch",
    "closure": "closure k-means",
    "gkmeans": "GK-means",
    "gkmeans_trad": "GK-means-",
    "kgraph_gkmeans": "KGraph+GK-means",
}


def run_method(
    spark: SparkSession,
    feats: DataFrame,
    k: int,
    method: str,
    *,
    iters: int = 20,
    seed: int = 0,
    kappa: int = 20,
    xi: int = 50,
    tau: int = 6,
    nnd_rounds: int = 4,
    nnd_sample: int = 8,
    truth: pd.DataFrame | None = None,
    minibatch_batch: int = 1024,
) -> ClusterRun:
    """Run one paper method end to end; graph build time lands in init_s.

    ``truth`` (exact top-1 sample) adds ``extra["graph_recall"]`` for the
    graph-based methods without affecting timings.
    """
    if method == "kmeans":
        return lloyd_kmeans(spark, feats, k, iters=iters, seed=seed)
    if method == "bkm":
        return boost_kmeans(spark, feats, k, iters=iters, seed=seed)
    if method == "minibatch":
        return minibatch_kmeans(
            spark, feats, k, iters=max(iters, 30), batch_size=minibatch_batch,
            seed=seed,
        )
    if method == "closure":
        return closure_kmeans(spark, feats, k, iters=iters, seed=seed)
    if method in ("gkmeans", "gkmeans_trad", "kgraph_gkmeans"):
        if method == "kgraph_gkmeans":
            graph, ghist = nn_descent(
                spark, feats, kappa, rounds=nnd_rounds, sample=nnd_sample,
                seed=seed, truth=truth,
            )
        else:
            graph, ghist = build_knn_graph(
                spark, feats, kappa, xi=xi, tau=tau, seed=seed, truth=truth
            )
        graph_s = ghist[-1]["elapsed"]
        mode = "traditional" if method == "gkmeans_trad" else "boost"
        run = gk_means(
            spark, feats, k, graph, mode=mode, iters=iters, seed=seed,
            track_candidates=True,
        )
        run.init_s += graph_s
        run.extra["graph_history"] = ghist
        if truth is not None:
            run.extra["graph_recall"] = ghist[-1].get("recall")
        return run
    raise ValueError(f"unknown method {method!r}")


def summary_row(method: str, run: ClusterRun, **extra) -> dict:
    """One Tab.-2-style row for a finished run."""
    row = {
        "method": METHOD_NAMES.get(method, method),
        "init_s": round(run.init_s, 2),
        "iter_s": round(run.iter_s, 2),
        "total_s": round(run.total_s, 2),
        "E": round(run.final_E, 4),
    }
    if "graph_recall" in run.extra and run.extra["graph_recall"] is not None:
        row["recall"] = round(run.extra["graph_recall"], 3)
    row.update(extra)
    return row


def print_table(df: pd.DataFrame, title: str) -> None:
    """Fixed-width console table, one row per paper-table row.

    Also persisted under ``results/<slug>.txt`` (override the directory
    with ``REPRO_RESULTS_DIR``) because pytest captures stdout — the
    benchmark log then carries timings while ``results/`` carries the
    actual table rows referenced from EXPERIMENTS.md.
    """
    import os
    import pathlib
    import re

    with pd.option_context(
        "display.max_columns", None, "display.width", 200,
        "display.max_rows", None,
    ):
        body = df.to_string(index=False)
    text = f"\n== {title} ==\n{body}"
    print(text)
    out_dir = pathlib.Path(
        os.environ.get("REPRO_RESULTS_DIR", pathlib.Path(__file__).parents[3] / "results")
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    slug = re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")[:60]
    (out_dir / f"{slug}.txt").write_text(text.lstrip("\n") + "\n")


def extrapolated_lloyd_hours(
    spark: SparkSession,
    feats: DataFrame,
    k_target: int,
    iters_target: int,
    *,
    k_probe: int = 128,
    seed: int = 0,
) -> float:
    """The paper's "3 years for traditional k-means" estimate, in miniature.

    Times two Lloyd iterations at a small ``k_probe`` and scales the
    per-iteration cost linearly in k (assignment is O(n·d·k)) to the
    target (k, iters).
    """
    probe = lloyd_kmeans(spark, feats, k_probe, iters=2, seed=seed)
    per_iter = probe.iter_s / max(1, len(probe.history) - 1)
    est_s = per_iter * (k_target / k_probe) * iters_target
    return est_s / 3600.0
