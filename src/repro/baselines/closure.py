"""Closure k-means (Wang et al., CVPR 2012 [27]) — the paper's strongest
published competitor for very large k.

Idea: an ensemble of random-projection partition trees groups each
point with its likely neighbours; a cluster's *closure* is the union of
the tree cells its members touch, and the assignment step compares a
point only against clusters whose closure contains it.  Like GK-means
this makes the iteration cost nearly independent of k, but the
candidate sets come from static random partitions instead of an evolving
KNN graph — which is why the paper finds its distortion worse (Tab. 2,
Figs. 5-7).

Implementation: trees are built level-wise (one ``applyInPandas`` group
per (tree, cell), balanced median splits on hashed random directions).
The clusters whose closure contains a point are the labels of its cell
mates, the points sharing a cell with it in any tree.  So closure k-means
is GK-means− (``core.iterate``'s nearest rule) on a fixed neighbour table:
the cell-mate pairs, built once with the trees and booked, like them, as
initialisation.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.common.kernels import rp_split
from repro.common.result import ClusterRun
from repro.common.vectors import splitmix64, to_matrix
from repro.core import iterate

_TREE_SCHEMA = "id long, features array<double>, tree int, cell long"


def _cell_seed(seed: int, tree: int, cell: int, depth: int) -> int:
    raw = (((seed * 131 + tree) * 1_000_003 + cell) * 31 + depth) & 0xFFFFFFFFFFFFFFFF
    return int(splitmix64(np.array([raw], dtype=np.uint64))[0] & np.uint64(0x7FFFFFFF))


def build_rp_trees(
    spark: SparkSession,
    feats_df: DataFrame,
    *,
    n_trees: int,
    leaf_size: int,
    seed: int = 0,
) -> DataFrame:
    """``n_trees`` balanced random-projection trees; returns (id, tree, cell).

    Every cell ends with at most ``leaf_size`` members; cell ids are the
    binary root-to-leaf paths, so sorted cells are spatially coherent.
    """
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    trees = F.explode(F.array(*[F.lit(t) for t in range(n_trees)])).alias("tree")
    state = (
        feats_df.select("id", "features")
        .select("id", "features", trees)
        .withColumn("cell", F.lit(0).cast("long"))
        .localCheckpoint(eager=True)
    )
    depth = 0
    while True:
        biggest = state.groupBy("tree", "cell").count().agg(F.max("count")).collect()[0][0]
        if biggest <= leaf_size:
            break
        d = depth
        sd = seed

        def split(pdf: pd.DataFrame) -> pd.DataFrame:
            out = pdf.copy()
            cell = int(pdf["cell"].iloc[0])
            if len(pdf) <= leaf_size:
                out["cell"] = cell * 2  # keep ids unique across the level
                return out
            tree = int(pdf["tree"].iloc[0])
            side = rp_split(to_matrix(pdf["features"]), _cell_seed(sd, tree, cell, d))
            out["cell"] = cell * 2 + side
            return out

        new_state = (
            state.groupBy("tree", "cell")
            .applyInPandas(split, _TREE_SCHEMA)
            .localCheckpoint(eager=True)
        )
        state.unpersist()
        state = new_state
        depth += 1
    return state.select("id", "tree", "cell").localCheckpoint(eager=True)


def initial_labels_from_tree(cells: DataFrame, k: int) -> DataFrame:
    """Initial k-partition: bucket tree-0's sorted cells into k groups.

    Cells are balanced and path-ordered, so contiguous buckets give a
    coherent, balanced coarse clustering — the closure paper's
    "random partition" initialisation.
    """
    c0 = cells.filter(F.col("tree") == 0).select("id", "cell")
    uniq = sorted(r["cell"] for r in c0.select("cell").distinct().collect())
    if len(uniq) < k:
        raise ValueError(f"only {len(uniq)} cells for k={k}; lower leaf_size")
    mapping = {c: (i * k) // len(uniq) for i, c in enumerate(uniq)}
    mdf = c0.sparkSession.createDataFrame(
        pd.DataFrame({"cell": list(mapping), "label": list(mapping.values())})
    )
    return c0.join(mdf, on="cell").select("id", "label")


def cell_mates(cells: DataFrame) -> DataFrame:
    """The checkpointed ``(id, nbr)`` pairs of points sharing a cell in any
    tree, self-pairs included.

    A cluster's closure contains a point iff one of its members is a cell
    mate of the point, so these are the rows of the point's neighbour table
    for :func:`repro.core.iterate.candidate_labels`.
    """
    mates = cells.select("tree", "cell", F.col("id").alias("nbr"))
    return (
        cells.join(mates, on=["tree", "cell"])
        .select("id", "nbr")
        .distinct()
        .localCheckpoint(eager=True)
    )


def closure_kmeans(
    spark: SparkSession,
    feats_df: DataFrame,
    k: int,
    *,
    iters: int = 20,
    n_trees: int = 3,
    leaf_size: int | None = None,
    seed: int = 0,
    rel_tol: float = 1e-9,
) -> ClusterRun:
    """Closure k-means; ``leaf_size`` defaults to ~n/k clamped to [2, 64].

    ``extra["mean_candidates"]`` is the mean closure size |candidate
    clusters| per point at iteration 0 — the paper's "comparisons per
    sample" metric (cf. GK-means' |Q|).
    """
    feats, sq = iterate.materialise(feats_df)
    n = sq[1]
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    if leaf_size is None:
        leaf_size = int(np.clip(round(n / k), 2, 64))
    leaf_size = min(leaf_size, max(1, n // k))  # ensure >= k cells exist

    t0 = time.perf_counter()
    cells = build_rp_trees(spark, feats, n_trees=n_trees, leaf_size=leaf_size, seed=seed)
    edges = cell_mates(cells)
    state = feats.join(initial_labels_from_tree(cells, k), on="id").select(
        "id", "features", F.col("label").cast("long").alias("label")
    ).localCheckpoint(eager=True)
    cells.unpersist()
    build_s = time.perf_counter() - t0

    run = iterate.run(
        lambda: state, k, sq, rule="nearest", edges=edges,
        iters=iters, rel_tol=rel_tol, track_candidates=True,
    )
    edges.unpersist()
    run.init_s += build_s
    run.extra.update(leaf_size=leaf_size, n_trees=n_trees)
    return run
