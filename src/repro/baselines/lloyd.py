"""Traditional k-means (Lloyd, 1982) on DataFrames — the paper's "k-means".

Assignment broadcasts the (k, d) centroid matrix into a ``mapInPandas``
argmin kernel; the update step reuses the treeAggregate-style
``cluster_stats``; both run in ``core.iterate``'s loop with the nearest
rule over all clusters.  Per-iteration cost is ``O(n·d·k)`` — the
bottleneck the paper attacks.  Initial centroids are k distinct samples
picked by a seeded hash order (the classical Forgy init); the initial
state is the assignment to them.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.common.result import ClusterRun
from repro.common.vectors import to_matrix
from repro.core import iterate
from repro.core.iterate import assign_to_centroids


def sample_rows(feats_df: DataFrame, k: int, seed: int) -> np.ndarray:
    """k distinct feature rows in deterministic hash order -> (k, d) matrix."""
    pdf = (
        feats_df.select("id", "features")
        .orderBy(F.xxhash64(F.col("id"), F.lit(seed)))
        .limit(k)
        .toPandas()
    )
    if len(pdf) < k:
        raise ValueError(f"k={k} exceeds n={len(pdf)}")
    return to_matrix(pdf["features"])


def lloyd_kmeans(
    spark: SparkSession,
    feats_df: DataFrame,
    k: int,
    *,
    iters: int = 20,
    seed: int = 0,
    rel_tol: float = 1e-9,
    init_centroids: np.ndarray | None = None,
) -> ClusterRun:
    """Standard Lloyd iterations; history tracks E of each assignment.

    ``init_centroids`` (k, d) overrides the Forgy sampling — used by
    tests and for controlled-initialisation comparisons.  The first
    assignment is part of the initialisation (``init_s``), as every other
    method's initial partition is; ``extra["centroids"]`` are the final
    centroids, an empty cluster keeping its last one.
    """
    feats, sq = iterate.materialise(feats_df)

    def forgy() -> tuple[DataFrame, np.ndarray]:
        if init_centroids is None:
            C = sample_rows(feats, k, seed)
        else:
            C = np.ascontiguousarray(init_centroids, dtype=np.float64)
            if C.shape[0] != k:
                raise ValueError(f"init_centroids has {C.shape[0]} rows, need k={k}")
        return assign_to_centroids(feats, C).localCheckpoint(eager=True), C

    return iterate.run(forgy, k, sq, rule="nearest", iters=iters, rel_tol=rel_tol)
