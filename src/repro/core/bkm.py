"""Boost k-means (BKM) — the paper's quality-reference baseline [16].

Stochastic maximisation of ``I = sum_r D_r'D_r / n_r`` (Eqn. 2): each
point seeks the move with the largest positive ``delta_I`` (Eqn. 3).
The paper's version moves one random sample at a time with immediate
``D, n`` updates; this distributed version is the batch-synchronous
adaptation (DESIGN.md §3): every iteration computes all deltas against
frozen statistics, applies all positive best moves, then recomputes the
statistics.  Per-iteration cost is ``O(n·d·k)`` — the same level as
traditional k-means, which is exactly why the paper needs GK-means.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.common.result import ClusterRun
from repro.core import iterate


def boost_kmeans(
    spark: SparkSession,
    feats_df: DataFrame,
    k: int,
    *,
    iters: int = 20,
    seed: int = 0,
    init: str = "2m",
    rel_tol: float = 1e-9,
) -> ClusterRun:
    """Run batch boost k-means; returns a :class:`ClusterRun`.

    ``history`` as in :func:`repro.core.iterate.run`.

    Default init is the 2M tree: the sequential BKM of [16] recovers
    from a random partition via immediate updates, but the batch (BSP)
    adaptation moves points en masse against frozen statistics and can
    stall in merged-mode optima from a structureless start — a balanced
    spatial init restores the paper's "BKM = best quality" behaviour
    (DESIGN.md §3).
    """
    feats, sq = iterate.materialise(feats_df)
    return iterate.run(
        lambda: iterate.init_state(spark, feats, k, init, seed), k, sq,
        rule="boost", iters=iters, rel_tol=rel_tol,
    )
