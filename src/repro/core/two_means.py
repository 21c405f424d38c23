"""Two-means (2M) tree — Alg. 1 of the paper.

Balanced hierarchical bisecting: recursively split clusters with a
local 2-means whose result is adjusted to equal halves, until exactly
``k`` clusters exist.  The paper pops the largest cluster one at a
time; we split *level-wise* — every round bisects, in parallel (one
``applyInPandas`` group per cluster), the largest clusters still
needed — which yields the same balanced partition in ``O(log k)``
Spark rounds instead of ``k-1`` (DESIGN.md §3).

Each bisection runs a short local Lloyd 2-means then the equal-size
adjustment of Alg. 1 step 9 (rank by ``d(x,c0) - d(x,c1)``, smaller
half to side 0); the paper's optional boost refinement of the bisection
is subsumed by the equal-size step, which overrides fine-grained
assignment anyway.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.common.kernels import local_two_means
from repro.common.vectors import splitmix64, to_matrix

STATE_SCHEMA = "id long, features array<double>, label long"


def _group_seed(seed: int, label: int, level: int) -> int:
    raw = ((seed * 1_000_003 + label) * 31 + level) & 0xFFFFFFFFFFFFFFFF
    mix = splitmix64(np.array([raw], dtype=np.uint64))[0]
    return int(mix & np.uint64(0x7FFFFFFF))


def two_means_tree(
    spark: SparkSession,
    feats_df: DataFrame,
    k: int,
    *,
    seed: int = 0,
    local_iters: int = 8,
) -> DataFrame:
    """Partition ``feats_df`` (id, features, ...) into ``k`` balanced clusters.

    Returns a cached, checkpointed state DataFrame
    ``(id, features, label)`` with labels in ``0..k-1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    state = feats_df.select("id", "features").withColumn(
        "label", F.lit(0).cast("long")
    )
    state = state.localCheckpoint(eager=True)
    if k == 1:
        return state

    n = state.count()
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")

    level = 0
    cur_k = 1
    while cur_k < k:
        sizes = (
            state.groupBy("label").count().toPandas().sort_values(
                ["count", "label"], ascending=[False, True]
            )
        )
        splittable = sizes[sizes["count"] >= 2]
        n_split = min(k - cur_k, len(splittable))
        if n_split == 0:
            raise RuntimeError("no splittable cluster left before reaching k")
        chosen = splittable["label"].to_numpy()[:n_split].tolist()
        new_label = {int(l): cur_k + i for i, l in enumerate(chosen)}
        lvl = level  # bind loop vars for the UDF closure
        sd = seed

        def bisect(pdf: pd.DataFrame) -> pd.DataFrame:
            # local_two_means seeds by row position: fix the order that the
            # shuffle leaves, so the tree does not depend on partitioning
            pdf = pdf.sort_values("id", ignore_index=True)
            parent = int(pdf["label"].iloc[0])
            X = to_matrix(pdf["features"])
            side = local_two_means(X, _group_seed(sd, parent, lvl), iters=local_iters)
            out = pdf.copy()
            out.loc[side == 1, "label"] = new_label[parent]
            return out

        to_split = state.filter(F.col("label").isin(chosen))
        rest = state.filter(~F.col("label").isin(chosen))
        new_state = rest.unionByName(
            to_split.groupBy("label").applyInPandas(bisect, STATE_SCHEMA)
        ).localCheckpoint(eager=True)
        state.unpersist()
        state = new_state
        cur_k += n_split
        level += 1
    return state
