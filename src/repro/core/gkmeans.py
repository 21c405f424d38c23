"""GK-means — Alg. 2, the paper's primary contribution.

Boost k-means whose assignment step only considers the clusters where a
point's κ nearest neighbours (from an approximate KNN graph) currently
live.  Per-iteration cost drops from ``O(n·d·k)`` to ``O(n·d·κ)``,
κ ≪ k, which is the paper's speed-up.

Dataflow per iteration (all DataFrame/Catalyst):

1. ``cluster_stats`` — frozen composite vectors/sizes (treeAggregate).
2. candidate collection (``core.iterate.candidate_labels``): graph edges
   ``(id, nbr)`` joined with the current assignment on ``nbr`` then
   ``collect_set(label)`` per id — the set ``Q`` of Alg. 2 lines 6-11
   (duplicates collapse, so ``|Q|`` is usually well below κ, as the paper
   notes).
3. a ``mapInPandas`` kernel picks the best move per point: Eqn. 3
   (``mode="boost"``) or nearest-centroid-among-candidates
   (``mode="traditional"`` — the paper's "GK-means−" ablation).

Initialisation is the two-means tree, as in Alg. 2 line 3.  The loop
itself, and the sequential-to-batch adaptation, is ``core.iterate``'s
(DESIGN.md §3).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.common.result import ClusterRun
from repro.core import iterate

#: GK-means mode -> the driver's move rule
_RULES = {"boost": "boost", "traditional": "nearest"}


def gk_means(
    spark: SparkSession,
    feats_df: DataFrame,
    k: int,
    graph_df: DataFrame,
    *,
    mode: str = "boost",
    iters: int = 20,
    seed: int = 0,
    init: str = "2m",
    rel_tol: float = 1e-9,
    track_candidates: bool = False,
    sq_norms: tuple[float, int] | None = None,
) -> ClusterRun:
    """Cluster ``feats_df`` into k clusters guided by ``graph_df`` (id, nbr).

    ``history`` as in :func:`repro.core.iterate.run`;
    ``extra["mean_candidates"]`` (with ``track_candidates=True``) is the
    average |Q|, the paper's "number of clusters one sample actually
    visits".  ``sq_norms``: precomputed ``(sum ||x||^2, n)`` — callers that
    invoke gk_means in a loop (Alg. 3) pass it to skip re-materialising an
    already-checkpointed ``feats_df`` and re-scanning it.
    """
    if mode not in _RULES:
        raise ValueError(f"unknown mode {mode!r}")
    feats, sq = iterate.materialise(feats_df, sq_norms)
    return iterate.run(
        lambda: iterate.init_state(spark, feats, k, init, seed), k, sq,
        rule=_RULES[mode], edges=graph_df.select("id", "nbr"),
        iters=iters, rel_tol=rel_tol, track_candidates=track_candidates,
    )
