"""Single-threaded replay of the numpy kernels on a workload's own arrays.

Spark runs the kernels of ``repro.common.kernels`` inside its Python
workers, where no driver-side span reaches. The replay calls the same
functions on the driver, on one core, with the inputs a pass gave them: the
features, the final labels and cluster statistics, the candidate sets of
the final graph (GK-means) or of replayed random-projection trees (closure
k-means), and the clusters of replayed 2M trees. It gives, per function,
the seconds of arithmetic one pass holds, as a baseline for the wall time
of the phase that contains it.

Flops and bytes are computed from the array shapes with the formulas below,
not measured by a counter; their units say so. Bytes count each operand
read and each temporary written once.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from repro.baselines.closure import _cell_seed
from repro.common import kernels as K

FUNCTIONS = ("boost_delta_I", "boost_best_move_full", "nearest_among_candidates",
             "pairwise_topk", "local_two_means", "rp_split")
#: the kernel each method's iterations run; ``kernels.share`` is their
#: replay time over ``cluster_iter_s``
ITERATION_KERNEL = {"gkmeans": "boost_delta_I", "bkm": "boost_best_move_full",
                    "closure": "nearest_among_candidates"}
LOCAL_ITERS = 8  # two_means_tree's local_iters default
REPEATS = 3


def _timed(fn, *args) -> tuple[float, object]:
    """Median seconds of ``REPEATS`` calls, and the result of the last."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _cost(fn: str, **s) -> tuple[float, float]:
    """Computed (flops, bytes) of one call, from its array shapes."""
    m, d = s.get("m", 0), s.get("d", 0)
    if fn == "boost_delta_I":
        c, k = s["c"], s["k"]
        return (2 * k * d + m * (4 * d + 2 * c * d + 7 * c + 6),
                8 * (2 * m * d + 2 * m * c * d + 6 * m * c + k * d))
    if fn == "boost_best_move_full":
        k = s["k"]
        blocks = -(-m // max(1, int(4_000_000 / max(1, k))))
        return (2 * k * d + 2 * m * k * d + 5 * m * k + 4 * m * d + 6 * m,
                8 * (m * d + blocks * k * d + 5 * m * k))
    if fn == "nearest_among_candidates":
        c1 = s["c"] + 1
        return (m * (4 * c1 * d + 2 * d + 3 * c1),
                8 * (2 * m * c1 * d + m * d + 4 * m * c1))
    if fn == "pairwise_topk":
        return 2 * m * m * d + 3 * m * m + 2 * m * d, 8 * (m * d + 3 * m * m)
    if fn == "local_two_means":
        it = LOCAL_ITERS
        return (it + 1) * (6 * m * d + 6 * m) + it * m * d, 8 * m * d * (3 * it + 1)
    if fn == "rp_split":
        return 2 * m * d, 8 * m * d
    raise ValueError(fn)


def two_means_clusters(X: np.ndarray, k: int, seed: int):
    """Replay of a level-wise 2M tree.

    Returns (member index array per cluster, seconds, flops, bytes).
    """
    clusters = [np.arange(len(X))]
    secs = flops = nbytes = 0.0
    level = 0
    while len(clusters) < k:
        order = sorted(range(len(clusters)), key=lambda i: -len(clusters[i]))
        chosen = [i for i in order if len(clusters[i]) >= 2][: k - len(clusters)]
        for i in chosen:
            idx = clusters[i]
            seed_i = (seed * 1_000_003 + i) * 31 + level
            t, side = _timed(K.local_two_means, X[idx], seed_i, LOCAL_ITERS)
            secs += t
            f, b = _cost("local_two_means", m=len(idx), d=X.shape[1])
            flops, nbytes = flops + f, nbytes + b
            clusters[i] = idx[side == 0]
            clusters.append(idx[side == 1])
        level += 1
    return clusters, secs, flops, nbytes


def rp_cells(X: np.ndarray, n_trees: int, leaf_size: int, seed: int):
    """Replay of closure k-means' random-projection trees.

    Returns (cell id per (tree, point), seconds, flops, bytes).
    """
    cells = np.zeros((n_trees, len(X)), dtype=np.int64)
    secs = flops = nbytes = 0.0
    for t in range(n_trees):
        depth = 0
        while np.unique(cells[t], return_counts=True)[1].max() > leaf_size:
            new = cells[t] * 2
            for cell in np.unique(cells[t]):
                idx = np.flatnonzero(cells[t] == cell)
                if len(idx) <= leaf_size:
                    continue
                sd = _cell_seed(seed, t, int(cell), depth)
                t_split, side = _timed(K.rp_split, X[idx], sd)
                secs += t_split
                new[idx] += side
                f, b = _cost("rp_split", m=len(idx), d=X.shape[1])
                flops, nbytes = flops + f, nbytes + b
            cells[t] = new
            depth += 1
    return cells, secs, flops, nbytes


def _pad(lists: list[np.ndarray]) -> np.ndarray:
    width = max(1, max(len(c) for c in lists))
    out = np.full((len(lists), width), -1, dtype=np.int64)
    for i, c in enumerate(lists):
        out[i, : len(c)] = c
    return out


def graph_candidates(edges, labels: np.ndarray) -> np.ndarray:
    """GK-means' Q per point: distinct labels of its graph neighbours."""
    src = edges["id"].to_numpy(dtype=np.int64)
    nl = labels[edges["nbr"].to_numpy(dtype=np.int64)]
    order = np.lexsort((nl, src))
    src, nl = src[order], nl[order]
    lists = np.split(nl, np.flatnonzero(np.diff(src)) + 1)
    by_id = dict(zip(np.unique(src).tolist(), (np.unique(c) for c in lists)))
    return _pad([by_id.get(i, np.empty(0, np.int64)) for i in range(len(labels))])


def closure_candidates(cells: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Closure k-means' candidates: labels present in any of a point's cells."""
    per_point = [set() for _ in range(len(labels))]
    for t in range(cells.shape[0]):
        for cell in np.unique(cells[t]):
            idx = np.flatnonzero(cells[t] == cell)
            labs = set(labels[idx].tolist())
            for i in idx:
                per_point[i] |= labs
    return _pad([np.array(sorted(s), dtype=np.int64) for s in per_point])


def replay(method: str, X: np.ndarray, labels: np.ndarray, k: int, params: dict,
           seed: int, iterations: int, edges=None, closure_extra=None) -> dict[str, float]:
    """Replay the kernels of one clustering ``method`` of a pass.

    Returns the ``kernels.*`` metrics without ``share``; ``labels`` are the
    method's final labels and ``iterations`` the move steps it ran.
    """
    n, d = X.shape
    counts = np.bincount(labels, minlength=k)
    D = np.zeros((k, d))
    np.add.at(D, labels, X)
    out = {f"kernels.{f}_{u}": 0.0 for f in FUNCTIONS for u in ("s", "gflop", "mb")}

    def put(fn, secs, flops, nbytes):
        out[f"kernels.{fn}_s"] += secs
        out[f"kernels.{fn}_gflop"] += flops / 1e9
        out[f"kernels.{fn}_mb"] += nbytes / 1e6

    if method in ("gkmeans", "bkm"):
        put("local_two_means", *two_means_clusters(X, k, seed)[1:])
    if method == "gkmeans":
        k0 = max(1, n // params["xi"])
        tau = params["tau"]
        clusters, secs, flops, nbytes = two_means_clusters(X, k0, seed)
        put("local_two_means", tau * secs, tau * flops, tau * nbytes)
        secs = flops = nbytes = 0.0
        for idx in clusters:
            secs += _timed(K.pairwise_topk, idx, X[idx], params["kappa"])[0]
            f, b = _cost("pairwise_topk", m=len(idx), d=d)
            flops, nbytes = flops + f, nbytes + b
        put("pairwise_topk", tau * secs, tau * flops, tau * nbytes)
        cand = graph_candidates(edges, labels)
        secs = _timed(K.boost_delta_I, X, labels, cand, D, counts)[0]
        f, b = _cost("boost_delta_I", m=n, d=d, c=cand.shape[1], k=k)
        put("boost_delta_I", iterations * secs, iterations * f, iterations * b)
    if method == "bkm":
        secs = _timed(K.boost_best_move_full, X, labels, D, counts)[0]
        f, b = _cost("boost_best_move_full", m=n, d=d, k=k)
        put("boost_best_move_full", iterations * secs, iterations * f, iterations * b)
    if method == "closure":
        cells, secs, flops, nbytes = rp_cells(X, closure_extra["n_trees"],
                                              closure_extra["leaf_size"], seed)
        put("rp_split", secs, flops, nbytes)
        cand = closure_candidates(cells, labels)
        C = np.where(counts[:, None] > 0, D / np.maximum(counts, 1)[:, None], 0.0)
        secs = _timed(K.nearest_among_candidates, X, labels, cand, C)[0]
        f, b = _cost("nearest_among_candidates", m=n, d=d, c=cand.shape[1])
        put("nearest_among_candidates", iterations * secs, iterations * f, iterations * b)
    return out
