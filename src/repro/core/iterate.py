"""The iteration loop shared by BKM, GK-means, closure k-means and Lloyd.

They differ in two choices: each point's candidate clusters and the move
rule.  The candidates are all k clusters (``edges=None``) or the current
labels of the point's rows in a neighbour table ``edges`` of ``(id, nbr)``
rows (:func:`candidate_labels`): the KNN graph for GK-means, the pairs of
points sharing a random-projection tree cell for closure k-means.  The
pair picks the ``mapInPandas`` kernel:

==========  =======  ============================  ====================
edges       rule     kernel                        used by
==========  =======  ============================  ====================
``None``    boost    ``boost_best_move_full``      BKM
table       boost    ``boost_delta_I``             GK-means (Alg. 2)
table       nearest  ``nearest_among_candidates``  GK-means−, closure
``None``    nearest  ``assign_nearest``            Lloyd
==========  =======  ============================  ====================

An iteration is the batch-synchronous adaptation of DESIGN.md §3: frozen
cluster stats, a history row, the convergence test, one move of every
point, a checkpoint.
"""
from __future__ import annotations

import time
from typing import Callable

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.common.kernels import (
    assign_nearest,
    boost_best_move_full,
    boost_delta_I,
    nearest_among_candidates,
)
from repro.common.result import ClusterRun
from repro.common.stats import (
    centroids_from_stats,
    cluster_stats,
    objective_from_stats,
    sum_sq_norms,
)
from repro.common.vectors import hash_choice, to_matrix
from repro.core.two_means import STATE_SCHEMA, two_means_tree


def materialise(
    feats_df: DataFrame, sq_norms: tuple[float, int] | None = None
) -> tuple[DataFrame, tuple[float, int]]:
    """``(id, features)`` checkpointed, and its ``(sum ||x||^2, n)``; given
    ``sq_norms``, ``feats_df`` is taken as already checkpointed (Alg. 3)."""
    if sq_norms is not None:
        return feats_df.select("id", "features"), sq_norms
    feats = feats_df.select("id", "features").localCheckpoint(eager=True)
    return feats, sum_sq_norms(feats)


def random_partition(feats_df: DataFrame, k: int, seed: int) -> DataFrame:
    """Balanced-in-expectation random k-partition: label = hash(id) mod-ish k."""

    def gen(batches):
        for pdf in batches:
            ids = pdf["id"].to_numpy(dtype=np.int64)
            out = pdf[["id", "features"]].copy()
            out["label"] = hash_choice(ids, k, seed + 7_777)
            yield out

    return feats_df.select("id", "features").mapInPandas(gen, STATE_SCHEMA)


def init_state(
    spark: SparkSession, feats_df: DataFrame, k: int, init: str, seed: int
) -> DataFrame:
    """Initial (id, features, label) state: ``"random"`` or ``"2m"`` tree."""
    if init == "random":
        return random_partition(feats_df, k, seed).localCheckpoint(eager=True)
    if init == "2m":
        return two_means_tree(spark, feats_df, k, seed=seed)
    raise ValueError(f"unknown init {init!r}")


def candidate_labels(state: DataFrame, edges: DataFrame) -> DataFrame:
    """Each point's candidate clusters, ``(id, cands)``: the distinct
    current labels of its ``nbr``s in ``edges`` (Alg. 2's Q)."""
    nbr_labels = state.select(F.col("id").alias("nbr"), "label")
    return (
        edges.join(nbr_labels, on="nbr")
        .groupBy("id")
        .agg(F.collect_set("label").alias("cands"))
    )


def _pad_candidates(cands) -> np.ndarray:
    """Ragged candidate lists -> (m, cmax) int64 matrix, -1 padded."""
    lists = [np.asarray(c, dtype=np.int64) if c is not None else np.empty(0, np.int64)
             for c in cands]
    cmax = max((len(c) for c in lists), default=0)
    out = np.full((len(lists), max(cmax, 1)), -1, dtype=np.int64)
    for i, c in enumerate(lists):
        out[i, : len(c)] = c
    return out


def assign_to_centroids(feats_df: DataFrame, centroids: np.ndarray) -> DataFrame:
    """(id, features) -> (id, features, label) by nearest-centroid argmin."""
    C = np.ascontiguousarray(centroids, dtype=np.float64)
    move = _mover("nearest", False, None, None, C)
    return feats_df.select("id", "features").mapInPandas(move, STATE_SCHEMA)


def _mover(rule: str, restricted: bool, counts, sums, C):
    """The ``mapInPandas`` move of the table above; every task ships it, so
    it closes over only the statistics its rule reads."""
    if rule == "nearest":
        counts = sums = None
    else:
        C = None

    def move(batches):
        for pdf in batches:
            if len(pdf) == 0:
                continue
            X = to_matrix(pdf["features"])
            if rule == "nearest" and not restricted:
                new = assign_nearest(X, C)[0]
            else:
                lab = pdf["label"].to_numpy(dtype=np.int64)
                cand = _pad_candidates(pdf["cands"]) if restricted else None
                if rule == "nearest":
                    new = nearest_among_candidates(X, lab, cand, C)
                else:
                    tgt, delta = (boost_delta_I(X, lab, cand, sums, counts) if restricted
                                  else boost_best_move_full(X, lab, sums, counts))
                    new = np.where(delta > 0, tgt, lab)
            out = pdf[["id", "features"]].copy()
            out["label"] = new
            yield out

    return move


def run(
    init: Callable[[], DataFrame | tuple[DataFrame, np.ndarray]],
    k: int,
    sq_norms: tuple[float, int],
    *,
    rule: str,
    edges: DataFrame | None = None,
    iters: int,
    rel_tol: float,
    track_candidates: bool = False,
) -> ClusterRun:
    """Iterate from ``init()``'s state, timed as ``init_s``.

    ``init()`` returns the (id, features, label) state, or ``(state,
    centroids)`` when initial centroids exist (Lloyd's Forgy seeds).  An
    empty cluster keeps its last centroid; only the all-clusters nearest
    rule can see one, as candidates and current labels are never empty.

    ``history[i]["E"]`` is the distortion of the state entering iteration
    ``i``, free from ``E = (S - I)/n``.  A batch step can lower I: the run
    then stops and returns the state that entered the step, its row last
    in ``history`` (``iter_s`` still counts the step).  ``extra`` holds the
    returned state's ``centroids`` and, with ``track_candidates``, the mean
    candidate-set size at iteration 0 (``mean_candidates``).
    """
    if rule not in ("boost", "nearest"):
        raise ValueError(f"unknown rule {rule!r}")
    S, n = sq_norms
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")

    t0 = time.perf_counter()
    state, C = init(), None
    if isinstance(state, tuple):
        state, C = state
    init_s = time.perf_counter() - t0

    history: list[dict] = []
    extra: dict = {}
    iter_s = 0.0
    prev_state, prev_I = None, -np.inf
    for it in range(iters + 1):
        t0 = time.perf_counter()
        counts, sums = cluster_stats(state, k)
        I = objective_from_stats(counts, sums)
        means, nonempty = centroids_from_stats(counts, sums)
        iter_s += time.perf_counter() - t0
        if I < prev_I:  # C is still prev_state's
            state.unpersist()
            state = prev_state
            break
        if prev_state is not None:
            prev_state.unpersist()
        C = means if C is None else np.where(nonempty[:, None], means, C)
        history.append({"iter": it, "elapsed": iter_s, "E": (S - I) / n})
        if it == iters or I - prev_I <= rel_tol * max(1.0, abs(I)):
            break

        t0 = time.perf_counter()
        joined = state
        if edges is not None:
            cand_df = candidate_labels(state, edges)
            joined = state.join(cand_df, on="id", how="left")
            if track_candidates and it == 0:
                row = cand_df.select(F.avg(F.size("cands")).alias("m")).collect()[0]
                extra["mean_candidates"] = float(row["m"] or 0.0)
        prev_state, prev_I = state, I
        move = _mover(rule, edges is not None, counts, sums, C)
        state = joined.mapInPandas(move, STATE_SCHEMA).localCheckpoint(eager=True)
        iter_s += time.perf_counter() - t0

    extra["centroids"] = C
    return ClusterRun(
        state=state, k=k, history=history, init_s=init_s, iter_s=iter_s, extra=extra
    )
